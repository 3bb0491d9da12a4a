//! Tiling selection for the TDC core-convolution kernel (paper Section 5.5).
//!
//! Two strategies are provided, matching the paper:
//!
//! * **Model** — the analytical selection: evaluate the compute latency of
//!   every candidate tiling with the closed-form model (Eq. 14–15), keep the
//!   top *p*% (5% on the A100, 15% on the 2080 Ti), and among those pick the
//!   one with the smallest total data-movement volume (Eq. 19). It is one
//!   streaming pass over [`Tiling::candidates`]: each candidate is scored
//!   once and nothing is allocated per candidate. Memory is bounded by the
//!   cut, not by the walk: the pass holds at most 2⌈*p* · triples⌉ scored
//!   candidates, where triples counts every `(TH, TW, TC)` it tries. Ties go
//!   to the earlier candidate in enumeration order, both in the latency cut
//!   and in the volume pick, so the result is the one a stable sort by
//!   latency followed by a first-minimum volume scan gives.
//! * **Oracle** — the exhaustive search: run every candidate through the full
//!   simulator latency model and keep the fastest. The paper's oracle runs
//!   every tiling on real hardware; here the simulator plays that role, so the
//!   oracle is "best achievable under the simulator" and the model selection
//!   is expected to land close to (but usually slightly above) it.
//!
//! Selections are memoised process-wide because end-to-end runs ask for the
//! same core-convolution shapes hundreds of times (DenseNet repeats the same
//! block shape dozens of times).

use crate::perf_model;
use crate::{Result, TdcError};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use tdc_conv::{ConvShape, Tiling};
use tdc_gpu_sim::{DeviceSpec, LatencyModel};

/// Which selection procedure to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TilingStrategy {
    /// Analytical model selection (fast, no tuning run needed).
    Model,
    /// Exhaustive search under the simulator (the paper's offline auto-tuning).
    Oracle,
}

impl TilingStrategy {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            TilingStrategy::Model => "TDC-MODELING",
            TilingStrategy::Oracle => "TDC-ORACLE",
        }
    }
}

/// The outcome of a tiling selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TilingChoice {
    /// The selected tile sizes.
    pub tiling: Tiling,
    /// Simulated latency of the TDC kernel with this tiling, in milliseconds.
    pub latency_ms: f64,
}

/// Fraction of tiling candidates kept after the compute-latency sort, per
/// device, as stated in Section 5.5.
pub fn top_fraction(device: &DeviceSpec) -> f64 {
    if device.name.contains("A100") {
        0.05
    } else {
        0.15
    }
}

fn simulated_latency_ms(
    model: &LatencyModel,
    shape: &ConvShape,
    tiling: &Tiling,
    device: &DeviceSpec,
) -> f64 {
    model
        .kernel_latency(&tiling.kernel_launch(shape, device))
        .map(|l| l.total_ms)
        .unwrap_or(f64::INFINITY)
}

/// A candidate with its modelled compute latency. Only finite latencies are
/// ever scored.
#[derive(Debug, Clone, Copy)]
struct Scored {
    latency_ms: f64,
    index: usize,
    tiling: Tiling,
}

/// Order by (latency, enumeration index): the order a stable sort by latency
/// leaves the candidates in.
fn by_latency(a: &Scored, b: &Scored) -> Ordering {
    a.latency_ms
        .total_cmp(&b.latency_ms)
        .then(a.index.cmp(&b.index))
}

/// Keep the `n` fastest of `buffer` (it holds at least `n`, and `n` is at
/// least 1) and return the slowest of those.
fn cut_to_fastest(buffer: &mut Vec<Scored>, n: usize) -> Scored {
    let (_, nth, _) = buffer.select_nth_unstable_by(n - 1, by_latency);
    let nth = *nth;
    buffer.truncate(n);
    nth
}

/// Analytical selection (Section 5.5): top-p% by compute latency, then the
/// minimum memory volume among the survivors.
///
/// One pass over [`Tiling::candidates`] scores each launchable candidate once
/// with [`perf_model::comp_latency_ms`] and allocates nothing per candidate.
/// The survivors are the first ⌈p · scored⌉ (at least one) by (latency,
/// enumeration index). `scored` is only known at the end, but ⌈p · triples⌉
/// bounds the cut from above, so the pass keeps no more than twice that
/// bound: when the buffer fills, it is cut back to the fastest `bound`, and
/// from then on only a candidate faster than the slowest of those enters.
/// Once the count is known the buffer is cut to the survivors. The winner is
/// the survivor with the smallest (volume, latency, enumeration index).
pub fn select_by_model(shape: &ConvShape, device: &DeviceSpec) -> Result<TilingChoice> {
    let p = top_fraction(device);
    let candidates = Tiling::candidates(shape, device);
    let bound = ((candidates.triples() as f64 * p).ceil() as usize).max(1);
    let mut fastest: Vec<Scored> = Vec::with_capacity(2 * bound);
    // The slowest of the fastest `bound` at the last cut: anything slower
    // can no longer survive.
    let mut cutoff: Option<Scored> = None;
    let mut scored = 0usize;
    for (index, tiling) in candidates.enumerate() {
        let latency_ms = perf_model::comp_latency_ms(shape, &tiling, device);
        if !latency_ms.is_finite() {
            continue;
        }
        scored += 1;
        let entry = Scored {
            latency_ms,
            index,
            tiling,
        };
        if cutoff.is_some_and(|slowest| by_latency(&entry, &slowest).is_gt()) {
            continue;
        }
        fastest.push(entry);
        if fastest.len() == 2 * bound {
            cutoff = Some(cut_to_fastest(&mut fastest, bound));
        }
    }
    if scored == 0 {
        return Err(TdcError::NoTiling {
            shape: shape.to_string(),
        });
    }
    let keep = ((scored as f64 * p).ceil() as usize).clamp(1, scored);
    cut_to_fastest(&mut fastest, keep);
    let best = fastest
        .iter()
        .min_by(|a, b| {
            perf_model::volume_total(shape, &a.tiling)
                .total_cmp(&perf_model::volume_total(shape, &b.tiling))
                .then(by_latency(a, b))
        })
        .expect("at least one candidate survives the cut")
        .tiling;
    let model = LatencyModel::new(device.clone());
    Ok(TilingChoice {
        tiling: best,
        latency_ms: simulated_latency_ms(&model, shape, &best, device),
    })
}

/// Exhaustive (oracle) selection: smallest simulated latency over all
/// launchable candidates.
pub fn select_by_oracle(shape: &ConvShape, device: &DeviceSpec) -> Result<TilingChoice> {
    let model = LatencyModel::new(device.clone());
    let best = Tiling::candidates(shape, device)
        .map(|t| (t, simulated_latency_ms(&model, shape, &t, device)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));
    match best {
        Some((tiling, latency_ms)) if latency_ms.is_finite() => {
            Ok(TilingChoice { tiling, latency_ms })
        }
        _ => Err(TdcError::NoTiling {
            shape: shape.to_string(),
        }),
    }
}

type CacheKey = (ConvShape, String, TilingStrategy);

fn cache() -> MutexGuard<'static, HashMap<CacheKey, TilingChoice>> {
    static CACHE: OnceLock<Mutex<HashMap<CacheKey, TilingChoice>>> = OnceLock::new();
    // A poisoned lock can only mean a panic mid-`insert`; the map is still
    // structurally sound, so keep serving from it.
    match CACHE.get_or_init(|| Mutex::new(HashMap::new())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Memoised tiling selection — the entry point the rest of the framework uses.
pub fn select(
    shape: &ConvShape,
    device: &DeviceSpec,
    strategy: TilingStrategy,
) -> Result<TilingChoice> {
    let key = (*shape, device.name.clone(), strategy);
    if let Some(hit) = cache().get(&key) {
        return Ok(*hit);
    }
    let choice = match strategy {
        TilingStrategy::Model => select_by_model(shape, device)?,
        TilingStrategy::Oracle => select_by_oracle(shape, device)?,
    };
    cache().insert(key, choice);
    Ok(choice)
}

/// Number of memoised selections (useful in tests and reports).
pub fn cache_len() -> usize {
    cache().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tdc_tucker::rank::rank_candidates_with_step;

    /// The sort-based selection the streaming pass replaced, kept as its
    /// reference: collect every scored candidate, stable-sort by latency, keep
    /// the top p%, then take the first minimum by volume.
    fn select_by_model_sorted(shape: &ConvShape, device: &DeviceSpec) -> Result<TilingChoice> {
        let candidates: Vec<Tiling> = Tiling::candidates(shape, device).collect();
        if candidates.is_empty() {
            return Err(TdcError::NoTiling {
                shape: shape.to_string(),
            });
        }
        let mut scored: Vec<(Tiling, f64)> = candidates
            .into_iter()
            .map(|t| {
                let lat = perf_model::comp_latency_ms(shape, &t, device);
                (t, lat)
            })
            .filter(|(_, lat)| lat.is_finite())
            .collect();
        if scored.is_empty() {
            return Err(TdcError::NoTiling {
                shape: shape.to_string(),
            });
        }
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal));
        let keep =
            ((scored.len() as f64 * top_fraction(device)).ceil() as usize).clamp(1, scored.len());
        let best = scored[..keep]
            .iter()
            .min_by(|a, b| {
                perf_model::volume_total(shape, &a.0)
                    .partial_cmp(&perf_model::volume_total(shape, &b.0))
                    .unwrap_or(Ordering::Equal)
            })
            .expect("non-empty candidate slice");
        let model = LatencyModel::new(device.clone());
        Ok(TilingChoice {
            tiling: best.0,
            latency_ms: simulated_latency_ms(&model, shape, &best.0, device),
        })
    }

    /// Every distinct core shape the serving models plan at rank step 4: the
    /// four-convolution chain of `tdc_serve::serving_descriptor` (base 16,
    /// widening to 64) at spatial 16, 24 and 32.
    fn serving_core_shapes() -> Vec<ConvShape> {
        let mut seen = HashSet::new();
        let mut shapes = Vec::new();
        for spatial in [16, 24, 32] {
            let base = 16;
            for (c, n) in [
                (base, base * 2),
                (base * 2, base * 2),
                (base * 2, base * 4),
                (base * 4, base * 4),
            ] {
                let layer = ConvShape::same3x3(c, n, spatial, spatial);
                for rank in rank_candidates_with_step(&layer, 4) {
                    let core = layer.with_ranks(rank.d1, rank.d2);
                    if seen.insert(core) {
                        shapes.push(core);
                    }
                }
            }
        }
        shapes
    }

    #[test]
    fn streaming_model_selection_equals_the_sort_based_reference() {
        let mut shapes = serving_core_shapes();
        assert_eq!(shapes.len(), 768);
        // The paper-scale shapes the other tests here select for, and one
        // that has no launchable tiling at all.
        shapes.extend([
            ConvShape::same3x3(64, 32, 28, 28),
            ConvShape::same3x3(96, 64, 14, 14),
            ConvShape::same3x3(32, 32, 7, 7),
            ConvShape::same3x3(64, 32, 56, 56),
            ConvShape::same3x3(192, 160, 7, 7),
            ConvShape::same3x3(160, 96, 28, 28),
            ConvShape::new(0, 0, 8, 8, 3, 3, 1, 1),
        ]);
        for device in [DeviceSpec::a100(), DeviceSpec::rtx2080ti()] {
            for shape in &shapes {
                let streamed = select_by_model(shape, &device);
                let sorted = select_by_model_sorted(shape, &device);
                match (streamed, sorted) {
                    (Ok(a), Ok(b)) => assert_eq!(
                        (a.tiling, a.latency_ms.to_bits()),
                        (b.tiling, b.latency_ms.to_bits()),
                        "{shape} on {}",
                        device.name
                    ),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("{shape} on {}: {a:?} vs {b:?}", device.name),
                }
            }
        }
    }

    #[test]
    fn top_fraction_follows_the_paper() {
        assert!((top_fraction(&DeviceSpec::a100()) - 0.05).abs() < 1e-12);
        assert!((top_fraction(&DeviceSpec::rtx2080ti()) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn oracle_is_no_worse_than_model() {
        let dev = DeviceSpec::a100();
        for shape in [
            ConvShape::same3x3(64, 32, 28, 28),
            ConvShape::same3x3(96, 64, 14, 14),
            ConvShape::same3x3(32, 32, 7, 7),
        ] {
            let oracle = select_by_oracle(&shape, &dev).unwrap();
            let model = select_by_model(&shape, &dev).unwrap();
            assert!(
                oracle.latency_ms <= model.latency_ms + 1e-12,
                "oracle {o} should be <= model {m} for {shape}",
                o = oracle.latency_ms,
                m = model.latency_ms
            );
            // The paper reports the model selection lands within ~25% of the
            // oracle on average; allow a generous 2x bound per-shape here.
            assert!(
                model.latency_ms <= oracle.latency_ms * 2.0,
                "model too far from oracle on {shape}"
            );
        }
    }

    #[test]
    fn selected_tilings_are_launchable_and_within_shape() {
        let dev = DeviceSpec::rtx2080ti();
        for shape in [
            ConvShape::same3x3(64, 32, 56, 56),
            ConvShape::same3x3(192, 160, 7, 7),
        ] {
            for strategy in [TilingStrategy::Model, TilingStrategy::Oracle] {
                let choice = select(&shape, &dev, strategy).unwrap();
                assert!(choice.tiling.is_launchable(&shape, &dev));
                assert!(choice.tiling.th <= shape.out_h());
                assert!(choice.tiling.tw <= shape.out_w());
                assert!(choice.tiling.tc <= shape.c);
                assert!(choice.latency_ms.is_finite() && choice.latency_ms > 0.0);
            }
        }
    }

    #[test]
    fn selection_is_memoised() {
        let dev = DeviceSpec::a100();
        let shape = ConvShape::same3x3(160, 96, 28, 28);
        let first = select(&shape, &dev, TilingStrategy::Oracle).unwrap();
        let before = cache_len();
        let second = select(&shape, &dev, TilingStrategy::Oracle).unwrap();
        assert_eq!(first, second);
        assert_eq!(cache_len(), before);
    }

    #[test]
    fn impossible_shapes_report_no_tiling() {
        // A degenerate shape with zero output channels cannot be launched.
        let dev = DeviceSpec::a100();
        let shape = ConvShape::new(0, 0, 8, 8, 3, 3, 1, 1);
        assert!(select_by_oracle(&shape, &dev).is_err());
        assert!(select_by_model(&shape, &dev).is_err());
    }

    #[test]
    fn strategy_labels_match_figures() {
        assert_eq!(TilingStrategy::Model.label(), "TDC-MODELING");
        assert_eq!(TilingStrategy::Oracle.label(), "TDC-ORACLE");
    }
}
