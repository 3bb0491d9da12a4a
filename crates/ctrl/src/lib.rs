//! `tdc-ctrl` — the closed-loop SLO controller for `tdc-serve`.
//!
//! SLO tuning is a *joint* problem: the budget trades model quality against
//! kernel time, the batch size trades throughput against service time, the
//! batch delay trades batching efficiency against queueing tail, and the
//! fair-share weight trades one model's throughput against its neighbours'.
//! This crate supplies the search: [`Controller`] is a
//! [`TuneDriver`] running **coordinate descent over
//! all four knobs at once**, scoring every candidate on the registry's
//! probe-and-replay wave simulator
//! ([`ModelRegistry::estimate_knobs`](tdc_serve::ModelRegistry::estimate_knobs))
//! and applying the winner through the zero-drop hot-swap path
//! ([`ModelRegistry::reconfigure_with`](tdc_serve::ModelRegistry::reconfigure_with)).
//!
//! **Measurement closes the loop.** Simulated estimates have systematic
//! error (the simulator does not know the host, the allocator, the Python
//! tax of a given deployment), so every tune starts by scraping the model's
//! *measured* p50/p99 from its live metrics and computing a **calibration
//! factor** `measured_p99 / estimated_p99` at the current operating point.
//! Candidate scores are calibrated by that factor before they are compared
//! against the target, which anchors the whole search to reality while
//! still letting the simulator rank candidates it has never served. After a
//! tune, the calibrated estimate at the winning knobs becomes the
//! controller's *expectation*; the serve-side watch loop
//! ([`ModelRegistry::watch`](tdc_serve::ModelRegistry::watch)) compares live
//! p99 against it every tick and re-tunes through this driver when the
//! drift leaves the configured band — scrape → score → apply → watch,
//! closed.
//!
//! The driver is **stateless**: everything it needs arrives through the
//! `tune` call (the registry reference, the model name, the request), so one
//! `Controller` can serve any number of registries and holds no `Arc` back
//! into any of them — registry teardown never waits on the controller.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use tdc_ctrl::Controller;
//! use tdc_serve::{serving_descriptor, ModelConfig, ModelRegistry, TuneRequest};
//!
//! let registry = ModelRegistry::new(4);
//! registry.set_tune_driver(Arc::new(Controller::new()));
//! registry
//!     .register("demo", &serving_descriptor("ctrl-demo", 8, 4, 4), ModelConfig::default())
//!     .unwrap();
//! let report = registry
//!     .tune(
//!         "demo",
//!         &TuneRequest {
//!             target_p99_ms: Some(50.0),
//!             ..TuneRequest::default()
//!         },
//!     )
//!     .unwrap();
//! assert_eq!(report.tuning_generation, 1);
//! assert!(!report.probes.is_empty());
//! registry.shutdown();
//! ```

use std::time::Duration;
use tdc_serve::{
    KnobEstimate, KnobSet, ModelRegistry, Result, ServeError, TuneDriver, TuneProbe, TuneReport,
    TuneRequest,
};

/// Bounds and step sizes of the coordinate descent. The defaults keep every
/// candidate inside the ranges the serving layer validates, so a probe can
/// only fail on planning itself (and such candidates are simply skipped).
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerOptions {
    /// Budget perturbations tried per round, in budget units (each applied
    /// in both directions around the incumbent).
    pub budget_steps: Vec<f64>,
    /// Lowest budget a candidate may propose.
    pub min_budget: f64,
    /// Highest budget a candidate may propose.
    pub max_budget: f64,
    /// Largest batch size a candidate may propose.
    pub max_batch_size: usize,
    /// Longest batch-formation delay a candidate may propose, µs.
    pub max_batch_delay_us: u64,
    /// Largest fair-share weight a candidate may propose.
    pub max_fair_share_weight: usize,
    /// Calibration is clamped into `[1/limit, limit]` so one absurd
    /// measurement (a cold start, a stalled scrape) cannot catapult every
    /// estimate out of range.
    pub calibration_limit: f64,
}

impl Default for ControllerOptions {
    fn default() -> Self {
        ControllerOptions {
            budget_steps: vec![0.05, 0.15],
            min_budget: 0.02,
            max_budget: 0.98,
            max_batch_size: 64,
            max_batch_delay_us: 8_000,
            max_fair_share_weight: 4,
            calibration_limit: 100.0,
        }
    }
}

/// The stock [`TuneDriver`]: calibrated coordinate descent over
/// `(flops_budget, max_batch_size, max_batch_delay_us, fair_share_weight)`.
///
/// Objective, lexicographic: a candidate whose *calibrated* p99 meets the
/// target beats any candidate that misses it; among feasible candidates the
/// higher modelled throughput wins (ties to the lower p99); among
/// infeasible ones the lower p99 wins — so an over-committed model first
/// climbs back inside its SLO, then spends the remaining headroom on
/// throughput.
#[derive(Debug, Clone, Default)]
pub struct Controller {
    options: ControllerOptions,
}

/// A scored candidate: the simulator's estimate plus the calibrated p99 the
/// objective actually compares.
#[derive(Debug, Clone, Copy)]
struct Scored {
    knobs: KnobSet,
    estimate: KnobEstimate,
    calibrated_p99_ms: f64,
}

impl Scored {
    fn feasible(&self, target_ms: f64) -> bool {
        self.calibrated_p99_ms <= target_ms
    }

    /// Whether `self` beats `incumbent` under the lexicographic objective.
    fn beats(&self, incumbent: &Scored, target_ms: f64) -> bool {
        match (self.feasible(target_ms), incumbent.feasible(target_ms)) {
            (true, false) => true,
            (false, true) => false,
            (true, true) => {
                if self.estimate.throughput_rps != incumbent.estimate.throughput_rps {
                    self.estimate.throughput_rps > incumbent.estimate.throughput_rps
                } else {
                    self.calibrated_p99_ms < incumbent.calibrated_p99_ms
                }
            }
            (false, false) => self.calibrated_p99_ms < incumbent.calibrated_p99_ms,
        }
    }
}

impl Controller {
    /// A controller at [`ControllerOptions::default`].
    pub fn new() -> Self {
        Controller::default()
    }

    /// A controller with explicit search bounds.
    pub fn with_options(options: ControllerOptions) -> Self {
        Controller { options }
    }

    /// The search bounds this controller probes within.
    pub fn options(&self) -> &ControllerOptions {
        &self.options
    }

    /// Budget candidates around `knobs`, quantized to 1e-3 (stable
    /// plan-cache keys) and clipped to the configured range.
    fn budget_candidates(&self, knobs: &KnobSet) -> Vec<KnobSet> {
        let round3 = |b: f64| (b * 1e3).round() / 1e3;
        let mut out = Vec::new();
        for step in &self.options.budget_steps {
            for dir in [-1.0, 1.0] {
                let budget = round3(
                    (knobs.flops_budget + dir * step)
                        .clamp(self.options.min_budget, self.options.max_budget),
                );
                if (budget - knobs.flops_budget).abs() > f64::EPSILON {
                    out.push(KnobSet {
                        flops_budget: budget,
                        ..*knobs
                    });
                }
            }
        }
        out
    }

    /// Batch-size candidates: halve and double, clamped to `[1, max]`.
    fn batch_candidates(&self, knobs: &KnobSet) -> Vec<KnobSet> {
        [knobs.max_batch_size / 2, knobs.max_batch_size * 2]
            .into_iter()
            .map(|b| b.clamp(1, self.options.max_batch_size))
            .filter(|&b| b != knobs.max_batch_size)
            .map(|b| KnobSet {
                max_batch_size: b,
                ..*knobs
            })
            .collect()
    }

    /// Delay candidates: halve and double (a zero delay steps up to 100 µs,
    /// sub-100 µs delays step down to zero), capped at the configured
    /// maximum.
    fn delay_candidates(&self, knobs: &KnobSet) -> Vec<KnobSet> {
        let d = knobs.max_batch_delay_us;
        let down = if d < 100 { 0 } else { d / 2 };
        let up = if d == 0 {
            100
        } else {
            (d * 2).min(self.options.max_batch_delay_us)
        };
        [down, up]
            .into_iter()
            .filter(|&c| c != d)
            .map(|c| KnobSet {
                max_batch_delay_us: c,
                ..*knobs
            })
            .collect()
    }

    /// Weight candidates: one step down and one step up, clamped to
    /// `[1, max]`.
    fn weight_candidates(&self, knobs: &KnobSet) -> Vec<KnobSet> {
        [
            knobs.fair_share_weight.saturating_sub(1).max(1),
            (knobs.fair_share_weight + 1).min(self.options.max_fair_share_weight),
        ]
        .into_iter()
        .filter(|&w| w != knobs.fair_share_weight)
        .map(|w| KnobSet {
            fair_share_weight: w,
            ..*knobs
        })
        .collect()
    }
}

impl TuneDriver for Controller {
    fn tune(
        &self,
        registry: &ModelRegistry,
        model: &str,
        request: &TuneRequest,
    ) -> Result<TuneReport> {
        if request.max_rounds == 0 {
            return Err(ServeError::BadConfig {
                reason: "tune max_rounds must be positive".into(),
            });
        }
        // Scrape the live operating point, then drop the handle before any
        // hot-swap below: a held handle would be the drain's holdout.
        let handle = registry.engine(model)?;
        let before = KnobSet::of(handle.config());
        let mut generation = handle.info().generation;
        let metrics = handle.metrics();
        drop(handle);
        let measured_p99_ms = (metrics.total_latency.count > 0)
            .then_some(metrics.total_latency.p99_ms)
            .filter(|p99| p99.is_finite() && *p99 > 0.0);

        let base = registry.estimate_knobs(model, &before)?;
        // Calibration anchors the simulator to the deployment: every
        // candidate's modelled p99 is scaled by how far off the model's
        // estimate is at the point we can actually observe. Gated on the
        // controller's own sample floor so a handful of warmup requests
        // cannot set the scale.
        let min_samples = registry.controller_config().min_samples;
        let limit = self.options.calibration_limit;
        let calibration = match measured_p99_ms {
            Some(measured)
                if metrics.total_latency.count as u64 >= min_samples && base.p99_ms > 0.0 =>
            {
                (measured / base.p99_ms).clamp(1.0 / limit, limit)
            }
            _ => 1.0,
        };
        // Without an explicit target, fall back to the ledger's recorded
        // one (a watch-loop re-tune), then to the current calibrated
        // operating point (a cold tune holds the line and optimizes
        // throughput under it).
        let target_ms = request
            .target_p99_ms
            .or_else(|| {
                registry
                    .controller_status()
                    .models
                    .iter()
                    .find(|m| m.model == model)
                    .map(|m| m.target_p99_ms)
                    .filter(|t| *t > 0.0)
            })
            .unwrap_or(base.p99_ms * calibration);
        if !target_ms.is_finite() || target_ms <= 0.0 {
            return Err(ServeError::BadConfig {
                reason: format!("tune target_p99_ms {target_ms} must be finite and positive"),
            });
        }

        let mut incumbent = Scored {
            knobs: before,
            estimate: base,
            calibrated_p99_ms: base.p99_ms * calibration,
        };
        let mut probes: Vec<TuneProbe> = Vec::new();
        for round in 1..=request.max_rounds {
            let mut improved = false;
            let dimensions: [(&str, Vec<KnobSet>); 4] = [
                ("flops_budget", self.budget_candidates(&incumbent.knobs)),
                ("max_batch_size", self.batch_candidates(&incumbent.knobs)),
                (
                    "max_batch_delay_us",
                    self.delay_candidates(&incumbent.knobs),
                ),
                (
                    "fair_share_weight",
                    self.weight_candidates(&incumbent.knobs),
                ),
            ];
            for (knob, candidates) in dimensions {
                for candidate in candidates {
                    // A candidate the planner rejects (e.g. no admissible
                    // rank at that budget) is skipped, not fatal: the
                    // search routes around infeasible corners.
                    let Ok(estimate) = registry.estimate_knobs(model, &candidate) else {
                        continue;
                    };
                    let scored = Scored {
                        knobs: candidate,
                        estimate,
                        calibrated_p99_ms: estimate.p99_ms * calibration,
                    };
                    let accepted = scored.beats(&incumbent, target_ms);
                    probes.push(TuneProbe {
                        round,
                        knob: knob.to_string(),
                        candidate,
                        estimated_p99_ms: scored.calibrated_p99_ms,
                        estimated_throughput_rps: estimate.throughput_rps,
                        feasible: scored.feasible(target_ms),
                        accepted,
                    });
                    if accepted {
                        incumbent = scored;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }

        let converged = incumbent.feasible(target_ms);
        let after = incumbent.knobs;
        let mut applied = false;
        if request.apply && after != before {
            let report = registry.reconfigure_with(model, move |config| after.apply_to(config))?;
            generation = report.generation;
            applied = true;
        }
        Ok(TuneReport {
            model: model.to_string(),
            target_p99_ms: target_ms,
            before,
            after,
            measured_p99_ms,
            calibration,
            estimated_p99_ms: incumbent.calibrated_p99_ms,
            estimated_throughput_rps: incumbent.estimate.throughput_rps,
            converged,
            applied,
            generation,
            // Stamped by the registry's ledger when the tune is
            // recorded.
            tuning_generation: 0,
            probes,
        })
    }
}

/// Convenience: install a stock [`Controller`] on `registry` and return it.
pub fn install(registry: &ModelRegistry) -> std::sync::Arc<Controller> {
    let controller = std::sync::Arc::new(Controller::new());
    registry.set_tune_driver(controller.clone());
    controller
}

// Re-exported so embedders driving the loop manually (benches, tests) need
// only this crate plus tdc-serve's registry types.
pub use tdc_serve::{ControllerConfig, ControllerStatus, ControllerWatch, MeasuredSlo, TickReport};

/// The duration form of a knob set's batch delay (µs knob → `Duration`).
pub fn knob_delay(knobs: &KnobSet) -> Duration {
    Duration::from_micros(knobs.max_batch_delay_us)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tdc_serve::{
        serving_descriptor, BatchingOptions, ControllerConfig, MeasuredSlo, ModelConfig,
        ModelRegistry, RuntimeOptions,
    };
    use tdc_tensor::Tensor;

    fn config(batch: usize, delay: Duration) -> ModelConfig {
        ModelConfig {
            batching: BatchingOptions {
                max_batch_size: batch,
                max_batch_delay: delay,
                ..BatchingOptions::default()
            },
            runtime: RuntimeOptions {
                workers: 2,
                ..RuntimeOptions::default()
            },
            ..ModelConfig::default()
        }
    }

    fn sim_config(batch: usize, delay: Duration) -> ModelConfig {
        let mut cfg = config(batch, delay);
        cfg.runtime.backend = tdc_serve::BackendKind::SimGpu;
        cfg
    }

    fn registry_with_model(name: &str, cfg: ModelConfig) -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new(8));
        registry.set_tune_driver(Arc::new(Controller::new()));
        registry
            .register(name, &serving_descriptor(name, 8, 4, 4), cfg)
            .unwrap();
        registry
    }

    #[test]
    fn tune_fails_typed_without_a_driver() {
        let registry = ModelRegistry::new(2);
        registry
            .register(
                "bare",
                &serving_descriptor("ctrl-bare", 8, 4, 4),
                ModelConfig::default(),
            )
            .unwrap();
        let err = registry.tune("bare", &TuneRequest::default()).unwrap_err();
        assert!(matches!(err, ServeError::BadConfig { .. }));
        registry.shutdown();
    }

    #[test]
    fn a_tune_rejects_degenerate_requests() {
        let registry = registry_with_model("strict", config(4, Duration::from_millis(1)));
        for bad in [f64::NAN, 0.0, -1.0] {
            let request = TuneRequest {
                target_p99_ms: Some(bad),
                ..TuneRequest::default()
            };
            assert!(matches!(
                registry.tune("strict", &request),
                Err(ServeError::BadConfig { .. })
            ));
        }
        let no_rounds = TuneRequest {
            max_rounds: 0,
            ..TuneRequest::default()
        };
        assert!(matches!(
            registry.tune("strict", &no_rounds),
            Err(ServeError::BadConfig { .. })
        ));
        assert!(matches!(
            registry.tune("ghost", &TuneRequest::default()),
            Err(ServeError::UnknownModel { .. })
        ));
        // Nothing above touched the served model.
        assert_eq!(registry.engine("strict").unwrap().info().generation, 1);
        Arc::try_unwrap(registry).ok().unwrap().shutdown();
    }

    #[test]
    fn a_tune_meets_the_target_and_applies_the_winning_knobs() {
        // Start deliberately mis-provisioned for a tight SLO: an 8 ms
        // batching delay alone already busts a 5 ms target, so the search
        // cannot converge without moving the delay knob.
        let registry = registry_with_model("tune-me", config(8, Duration::from_millis(8)));
        let report = registry
            .tune(
                "tune-me",
                &TuneRequest {
                    target_p99_ms: Some(5.0),
                    apply: true,
                    max_rounds: 4,
                },
            )
            .unwrap();
        assert!(report.converged, "search must reach the target: {report:?}");
        assert!(report.applied, "winning knobs must be hot-swapped in");
        assert!(report.estimated_p99_ms <= 5.0);
        assert!(
            report.after.max_batch_delay_us < 5_000,
            "the delay knob must move to meet a 5 ms target: {:?}",
            report.after
        );
        assert_eq!(report.tuning_generation, 1);
        assert!(report.generation > 1, "apply bumps the plan generation");
        // The table now serves the tuned config.
        let handle = registry.engine("tune-me").unwrap();
        assert_eq!(KnobSet::of(handle.config()), report.after);
        drop(handle);
        // The tuned engine still answers, bit-exactly vs a fresh engine at
        // the same knobs (zero-drop swap, same plan space).
        let out = registry
            .infer("tune-me", Tensor::zeros(vec![8, 8, 4]))
            .unwrap();
        assert_eq!(out.output.dims(), &[4]);
        let status = registry.controller_status();
        assert_eq!(status.tunes_total, 1);
        let model = &status.models[0];
        assert_eq!(model.tuning_generation, 1);
        assert!(model.expected_p99_ms > 0.0);
        Arc::try_unwrap(registry).ok().unwrap().shutdown();
    }

    #[test]
    fn a_tune_walks_an_over_provisioned_budget_down_to_the_slo() {
        // Budget 0.9 demands more FLOPs reduction than the layers can
        // deliver, so rank selection falls back to dense (slower) and the
        // plan misses what a mid-range, feasible budget serves at — the
        // search must move the budget knob to the feasible side of the
        // cliff. (`registry_with_model`'s 8×8×4 model has no such cliff.)
        let mut over_provisioned = sim_config(4, Duration::from_millis(1));
        over_provisioned.planning.budget = 0.9;
        let registry = Arc::new(ModelRegistry::new(8));
        registry.set_tune_driver(Arc::new(Controller::new()));
        registry
            .register(
                "tune",
                &serving_descriptor("ctl-tune", 12, 8, 10),
                over_provisioned,
            )
            .unwrap();
        let handle = registry.engine("tune").unwrap();
        let start = KnobSet::of(handle.config());
        drop(handle);
        let target = registry
            .estimate_knobs(
                "tune",
                &KnobSet {
                    flops_budget: 0.45,
                    ..start
                },
            )
            .unwrap()
            .p99_ms;
        assert!(
            registry.estimate_knobs("tune", &start).unwrap().p99_ms > target,
            "the over-provisioned start must miss the target"
        );

        let report = registry
            .tune(
                "tune",
                &TuneRequest {
                    target_p99_ms: Some(target),
                    ..TuneRequest::default()
                },
            )
            .unwrap();
        assert!(report.converged, "{report:?}");
        assert!(report.applied, "{report:?}");
        assert!(
            report.after.flops_budget < 0.9,
            "the search must walk down from the over-provisioned start: {report:?}"
        );
        assert!(report.estimated_p99_ms <= target, "{report:?}");
        assert_eq!(report.generation, 2, "the winning knobs were hot-swapped");
        assert_eq!(
            registry.metrics().replans_total,
            1,
            "an applied search is exactly one hot-swap"
        );

        // The served model now carries the tuned budget and keeps serving.
        let handle = registry.engine("tune").unwrap();
        assert_eq!(handle.info().budget, report.after.flops_budget);
        drop(handle);
        let out = registry
            .infer("tune", Tensor::zeros(vec![12, 12, 8]))
            .unwrap();
        assert_eq!(out.output.dims(), &[10]);
        Arc::try_unwrap(registry).ok().unwrap().shutdown();
    }

    #[test]
    fn an_unreachable_target_reports_not_converged_without_thrashing() {
        let registry = registry_with_model("hopeless", config(4, Duration::from_millis(1)));
        let report = registry
            .tune(
                "hopeless",
                &TuneRequest {
                    target_p99_ms: Some(1e-6),
                    apply: true,
                    max_rounds: 3,
                },
            )
            .unwrap();
        assert!(!report.converged);
        // Even an unconverged search may apply its best-effort knobs; what
        // it must not do is claim the SLO.
        assert!(report.estimated_p99_ms > 1e-6);
        Arc::try_unwrap(registry).ok().unwrap().shutdown();
    }

    #[test]
    fn drifting_feed_retunes_exactly_once_and_stable_feed_not_at_all() {
        // Fully deterministic: no watch thread, no clock — ticks are
        // injected with a scripted metric feed.
        let registry = registry_with_model("watched", config(4, Duration::from_millis(2)));
        registry
            .set_controller_config(ControllerConfig {
                enabled: true,
                interval_ms: 1,
                drift_band_frac: 0.5,
                min_samples: 4,
            })
            .unwrap();
        let seed = registry
            .tune(
                "watched",
                &TuneRequest {
                    target_p99_ms: Some(25.0),
                    apply: true,
                    max_rounds: 2,
                },
            )
            .unwrap();
        let expected = seed.estimated_p99_ms;
        assert!(expected > 0.0);

        // Stable feed: measured p99 sits exactly on the expectation —
        // zero drift events, zero re-tunes, however many ticks fire.
        let stable = vec![(
            "watched".to_string(),
            MeasuredSlo {
                p50_ms: expected * 0.8,
                p99_ms: expected,
                samples: 64,
            },
        )];
        for _ in 0..5 {
            let tick = registry.controller_tick_with(&stable);
            assert_eq!(tick.examined, 1);
            assert!(tick.drifted.is_empty());
            assert!(tick.retuned.is_empty());
        }

        // Drifting feed: measured p99 lands 3× outside the band → exactly
        // one drift event and one re-tune on this tick.
        let drifting = vec![(
            "watched".to_string(),
            MeasuredSlo {
                p50_ms: expected,
                p99_ms: expected * 3.0,
                samples: 64,
            },
        )];
        let tick = registry.controller_tick_with(&drifting);
        assert_eq!(tick.drifted, vec!["watched".to_string()]);
        assert_eq!(tick.retuned, vec!["watched".to_string()]);

        let status = registry.controller_status();
        assert_eq!(status.drift_events_total, 1);
        assert_eq!(status.tunes_total, 2, "the seed tune plus one re-tune");
        assert_eq!(status.models[0].tuning_generation, 2);

        // Under-sampled feeds are ignored entirely: no examination, no
        // drift, no re-tune.
        let sparse = vec![(
            "watched".to_string(),
            MeasuredSlo {
                p50_ms: expected,
                p99_ms: expected * 10.0,
                samples: 2,
            },
        )];
        let tick = registry.controller_tick_with(&sparse);
        assert_eq!(tick.examined, 0);
        assert!(tick.retuned.is_empty());
        Arc::try_unwrap(registry).ok().unwrap().shutdown();
    }

    #[test]
    fn the_watch_thread_starts_ticks_and_stops_cleanly() {
        let registry = registry_with_model("bg", config(4, Duration::from_millis(1)));
        registry
            .set_controller_config(ControllerConfig {
                enabled: true,
                interval_ms: 1,
                drift_band_frac: 0.5,
                min_samples: 1,
            })
            .unwrap();
        let mut watch = registry.watch();
        assert_eq!(registry.controller_status().watchers, 1);
        // The loop ticks on its own; wait for evidence, bounded.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while registry.controller_status().ticks_total == 0 && std::time::Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        assert!(registry.controller_status().ticks_total > 0);
        watch.stop();
        assert_eq!(registry.controller_status().watchers, 0);
        drop(watch);
        Arc::try_unwrap(registry).ok().unwrap().shutdown();
    }

    #[test]
    fn an_early_release_ships_at_deadline_minus_estimate_with_bit_identical_outputs() {
        // Engine with a batch-formation delay far beyond the request
        // deadline: without deadline-aware release the two requests below
        // would expire waiting for the window; with it the batch ships at
        // `deadline − estimated_exec` and completes in time. No sleeps and
        // no wall-clock assertions — the pinned facts are the early-release
        // counter, completion within deadline, and bit-parity. The sim-GPU
        // backend seeds a real (non-zero) exec estimate at build; the test
        // then pins it to a deliberately large value (as the controller's
        // measured-exec calibration would on a slow deployment) so the
        // release point sits far from the deadline and the outcome cannot
        // hinge on scheduler wake-up jitter.
        let registry = registry_with_model("early", sim_config(8, Duration::from_secs(5)));
        let handle = registry.engine("early").unwrap();
        assert!(
            handle.exec_estimate() > Duration::ZERO,
            "the sim-GPU latency report must seed the estimate"
        );
        handle.set_exec_estimate(Duration::from_millis(150));
        drop(handle);
        let inputs: Vec<Tensor> = (0..2)
            .map(|i| {
                let mut t = Tensor::zeros(vec![8, 8, 4]);
                for (j, v) in t.data_mut().iter_mut().enumerate() {
                    *v = ((i * 131 + j) % 17) as f32 * 0.25 - 1.0;
                }
                t
            })
            .collect();
        let pending: Vec<_> = inputs
            .iter()
            .map(|t| {
                registry
                    .submit_with_deadline("early", t.clone(), Some(Duration::from_millis(500)))
                    .unwrap()
            })
            .collect();
        let early: Vec<_> = pending.into_iter().map(|p| p.wait().unwrap()).collect();
        let handle = registry.engine("early").unwrap();
        assert!(
            handle.early_releases() >= 1,
            "the partial batch must have shipped via the deadline-aware path"
        );
        drop(handle);

        // Full-batch path: the same inputs padded out to the full batch
        // size, submitted atomically with no deadline pressure.
        let mut full_inputs = inputs.clone();
        for i in 2..8 {
            let mut t = Tensor::zeros(vec![8, 8, 4]);
            for (j, v) in t.data_mut().iter_mut().enumerate() {
                *v = ((i * 131 + j) % 17) as f32 * 0.25 - 1.0;
            }
            full_inputs.push(t);
        }
        let full_pending = registry
            .submit_many("early", full_inputs, Some(Duration::from_secs(30)))
            .unwrap();
        let full: Vec<_> = full_pending
            .into_iter()
            .map(|p| p.wait().unwrap())
            .collect();
        for (i, (e, f)) in early.iter().zip(full.iter()).enumerate() {
            assert_eq!(
                e.output.data(),
                f.output.data(),
                "input {i}: early-released output must be bit-identical to the full-batch path"
            );
        }
        Arc::try_unwrap(registry).ok().unwrap().shutdown();
    }
}
