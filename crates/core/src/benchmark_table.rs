//! The per-layer latency table `T` over Tucker-rank candidates (Section 6,
//! Figure 5).
//!
//! For every original convolution layer, the co-design framework generates the
//! optimised kernel for every rank candidate `(D1, D2)` (stepping channels by
//! 32), measures it, and stores the results in a table the rank-selection
//! algorithm looks up. Here "measuring" means running the kernel descriptor
//! through the device simulator: the Tucker-format layer latency is the sum of
//! the first 1×1 convolution (`C → D1`, executed by the cuDNN-style GEMM
//! model, as the paper keeps library code for the channel-mixing stages), the
//! TDC core convolution (`D1 → D2`, with its tiling selected per Section 5.5)
//! and the second 1×1 convolution (`D2 → N`).

use crate::tiling::{self, TilingStrategy};
use crate::Result;
use serde::{Deserialize, Serialize};
use tdc_conv::cost::{best_cudnn_latency_ms, ConvCostModel, CudnnGemmCost};
use tdc_conv::{ConvShape, Tiling};
use tdc_gpu_sim::DeviceSpec;
use tdc_tucker::flops;
use tdc_tucker::rank::{rank_candidates_with_step, RankPair, RANK_STEP};

/// One row of the per-layer table: a rank candidate and its modelled cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankLatency {
    /// The rank candidate.
    pub rank: RankPair,
    /// Latency of the full Tucker-format layer (1×1 + core + 1×1) in ms.
    pub tucker_ms: f64,
    /// Latency of just the core convolution in ms.
    pub core_ms: f64,
    /// The tiling selected for the core convolution.
    pub tiling: Tiling,
    /// Fractional FLOPs reduction of this candidate (Eq. 6 recast as 1 − 1/γF).
    pub flops_reduction: f64,
}

/// The latency table for one convolution layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerPerfTable {
    /// The original (dense) convolution shape.
    pub shape: ConvShape,
    /// Latency of the original layer under the best cuDNN algorithm, in ms.
    pub original_ms: f64,
    /// One entry per rank candidate.
    pub entries: Vec<RankLatency>,
}

/// Latency of a 1×1 channel-mixing convolution executed by the library (GEMM)
/// path, in milliseconds.
pub fn pointwise_latency_ms(c: usize, n: usize, h: usize, w: usize, device: &DeviceSpec) -> f64 {
    let shape = ConvShape::pointwise(c, n, h, w);
    CudnnGemmCost.latency_ms(&shape, device)
}

/// Latency of the full Tucker-format layer for a rank pair, along with the
/// core-only latency and the chosen tiling.
pub fn tucker_layer_latency_ms(
    shape: &ConvShape,
    rank: RankPair,
    device: &DeviceSpec,
    strategy: TilingStrategy,
) -> Result<(f64, f64, Tiling)> {
    let core_shape = shape.with_ranks(rank.d1, rank.d2);
    let choice = tiling::select(&core_shape, device, strategy)?;
    let first = pointwise_latency_ms(shape.c, rank.d1, shape.h, shape.w, device);
    let last = pointwise_latency_ms(rank.d2, shape.n, shape.out_h(), shape.out_w(), device);
    Ok((
        first + choice.latency_ms + last,
        choice.latency_ms,
        choice.tiling,
    ))
}

impl LayerPerfTable {
    /// Build the table for one layer with the default warp-sized rank step.
    pub fn build(shape: &ConvShape, device: &DeviceSpec, strategy: TilingStrategy) -> Result<Self> {
        Self::build_with_step(shape, device, strategy, RANK_STEP)
    }

    /// Build the table with an explicit rank step (small steps are used by the
    /// miniature trainable models in tests and the Table 2/3 binaries).
    pub fn build_with_step(
        shape: &ConvShape,
        device: &DeviceSpec,
        strategy: TilingStrategy,
        step: usize,
    ) -> Result<Self> {
        let (_, original_ms) = best_cudnn_latency_ms(shape, device);
        let mut entries = Vec::new();
        for rank in rank_candidates_with_step(shape, step) {
            let (tucker_ms, core_ms, tiling) =
                tucker_layer_latency_ms(shape, rank, device, strategy)?;
            entries.push(RankLatency {
                rank,
                tucker_ms,
                core_ms,
                tiling,
                flops_reduction: flops::flops_reduction(shape, rank.d1, rank.d2),
            });
        }
        Ok(LayerPerfTable {
            shape: *shape,
            original_ms,
            entries,
        })
    }

    /// Look up a specific rank pair.
    pub fn lookup(&self, rank: RankPair) -> Option<&RankLatency> {
        self.entries.iter().find(|e| e.rank == rank)
    }

    /// Entries whose FLOPs reduction meets the budget fraction.
    pub fn admissible(&self, budget: f64) -> Vec<&RankLatency> {
        self.entries
            .iter()
            .filter(|e| e.flops_reduction >= budget)
            .collect()
    }

    /// Algorithm 1, line 3 for one layer:
    /// `max { argmin_{P(D1,D2) ≤ B} T(D1,D2) }` — among the admissible
    /// candidates, take those with minimum latency, and of those the one with
    /// the largest total rank (to preserve the most model capacity).
    pub fn best_under_budget(&self, budget: f64) -> Option<&RankLatency> {
        let admissible = self.admissible(budget);
        let min_latency = admissible
            .iter()
            .map(|e| e.tucker_ms)
            .fold(f64::INFINITY, f64::min);
        if !min_latency.is_finite() {
            return None;
        }
        admissible
            .into_iter()
            .filter(|e| e.tucker_ms <= min_latency * 1.0001)
            .max_by_key(|e| e.rank.d1 + e.rank.d2)
    }

    /// Speedup of the best admissible candidate over the original layer.
    pub fn best_speedup(&self, budget: f64) -> Option<f64> {
        self.best_under_budget(budget)
            .map(|e| self.original_ms / e.tucker_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_one_entry_per_candidate() {
        let shape = ConvShape::same3x3(128, 96, 28, 28);
        let dev = DeviceSpec::a100();
        let table = LayerPerfTable::build(&shape, &dev, TilingStrategy::Model).unwrap();
        assert_eq!(table.entries.len(), 4 * 3);
        assert!(table.original_ms > 0.0);
        assert!(table
            .entries
            .iter()
            .all(|e| e.tucker_ms.is_finite() && e.tucker_ms > 0.0));
        assert!(table.lookup(RankPair::new(32, 32)).is_some());
        assert!(table.lookup(RankPair::new(33, 32)).is_none());
    }

    #[test]
    fn lower_ranks_reduce_core_latency_or_keep_it_flat() {
        // The staircase effect means latency is non-increasing (not strictly
        // decreasing) as ranks shrink.
        let shape = ConvShape::same3x3(192, 96, 14, 14);
        let dev = DeviceSpec::a100();
        let table = LayerPerfTable::build(&shape, &dev, TilingStrategy::Model).unwrap();
        let small = table.lookup(RankPair::new(32, 32)).unwrap();
        let large = table.lookup(RankPair::new(192, 96)).unwrap();
        assert!(small.core_ms <= large.core_ms + 1e-9);
        assert!(small.flops_reduction > large.flops_reduction);
    }

    #[test]
    fn best_under_budget_respects_the_budget_and_prefers_capacity() {
        let shape = ConvShape::same3x3(256, 256, 14, 14);
        let dev = DeviceSpec::a100();
        let table = LayerPerfTable::build(&shape, &dev, TilingStrategy::Model).unwrap();
        let budget = 0.6;
        let best = table
            .best_under_budget(budget)
            .expect("budget should be feasible");
        assert!(best.flops_reduction >= budget);
        // No admissible candidate is strictly faster.
        for e in table.admissible(budget) {
            assert!(best.tucker_ms <= e.tucker_ms * 1.0001);
        }
        // And among equally fast ones, none has a larger total rank.
        for e in table.admissible(budget) {
            if e.tucker_ms <= best.tucker_ms * 1.0001 {
                assert!(e.rank.d1 + e.rank.d2 <= best.rank.d1 + best.rank.d2);
            }
        }
    }

    #[test]
    fn infeasible_budget_returns_none() {
        let shape = ConvShape::same3x3(32, 32, 7, 7);
        let dev = DeviceSpec::rtx2080ti();
        let table = LayerPerfTable::build(&shape, &dev, TilingStrategy::Model).unwrap();
        assert!(table.best_under_budget(0.999).is_none());
        assert!(table.best_speedup(0.999).is_none());
    }

    #[test]
    fn small_step_tables_for_miniature_layers() {
        let shape = ConvShape::same3x3(8, 16, 8, 8);
        let dev = DeviceSpec::a100();
        let table =
            LayerPerfTable::build_with_step(&shape, &dev, TilingStrategy::Model, 4).unwrap();
        assert_eq!(table.entries.len(), 2 * 4);
        assert!(table.best_under_budget(0.3).is_some());
    }

    #[test]
    fn decomposition_speeds_up_large_layers_under_a_reasonable_budget() {
        // The core value proposition: for a big ImageNet-scale layer, the
        // Tucker-format layer with the TDC kernel is faster than the original
        // dense layer under cuDNN.
        let shape = ConvShape::same3x3(256, 256, 14, 14);
        let dev = DeviceSpec::a100();
        let table = LayerPerfTable::build(&shape, &dev, TilingStrategy::Oracle).unwrap();
        let speedup = table.best_speedup(0.6).unwrap();
        assert!(speedup > 1.0, "expected a speedup, got {speedup}");
    }
}
