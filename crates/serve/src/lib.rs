//! # tdc-serve
//!
//! Batched inference serving for Tucker-compressed CNNs — the "serve online"
//! half of the paper's compress-offline / serve-online split (Figure 1).
//! Everything upstream of this crate is a one-shot batch job: plan a
//! compression, print a figure, exit. `tdc-serve` turns those pieces into a
//! long-lived, concurrent service:
//!
//! * [`plan_cache`] — memoizes [`tdc::CompressionPlan`]s behind a
//!   `(model, device, backend, FLOPs-budget)` key: in-memory LRU with an
//!   optional JSON spill directory, so a restarted server skips rank
//!   selection entirely.
//! * [`batcher`] — a request queue with a dynamic batcher: requests coalesce
//!   until either `max_batch_size` is reached or the oldest request has
//!   waited `max_batch_delay`, then the batch is handed to a worker.
//! * [`backend`] — pluggable execution behind the [`ExecutionBackend`]
//!   trait: [`CpuBackend`] runs real CPU forward passes — an implicit GEMM
//!   for kept layers, the three-stage Tucker-2 convolution for decomposed ones,
//!   every intermediate staged in a [`ScratchArena`];
//!   [`SimGpuBackend`] runs the same numerics *and* lowers the plan to
//!   kernel-launch sequences replayed on `tdc-gpu-sim`'s wave engine, so
//!   every batch carries a simulated per-layer GPU latency breakdown.
//! * [`model`] — the materialized compressed network both backends execute.
//! * [`options`] + [`server`] — the typed engine builder:
//!   [`ServeEngine::builder`] takes [`PlanningOptions`], [`BatchingOptions`]
//!   and [`RuntimeOptions`], validates them at build, and registers the
//!   engine on a `tdc-exec` executor (shared fleet-wide when
//!   attached via [`ServeEngineBuilder::executor`], private otherwise) with
//!   a [`QosClass`] and fair-share weight, graceful drain on shutdown and
//!   [`metrics`] (throughput, latency percentiles, batch-size distribution,
//!   predicted and simulated GPU totals).
//! * [`registry`] — N named models behind one router, each with its own
//!   engine and a per-model admission bound (typed [`ServeError::Overloaded`]
//!   rejection instead of unbounded queues), sharing one plan cache and
//!   aggregating metrics. [`ModelRegistry`] owns the RCU-style
//!   epoch-swapped model table, which makes it shareable (`&self`
//!   registration/retirement behind an `Arc`; readers never block on
//!   writers), with graceful retire, atomic plan hot-swap
//!   ([`ModelRegistry::replan`]) and the joint-knob SLO controller
//!   ([`ModelRegistry::tune`], run on request).
//! * [`control`] — what those operations are built from and exchange: the
//!   [`EpochSwap`] primitive, [`EngineHandle`], the knob / tune / controller
//!   report types and the coordinate descent behind every tune.
//! * [`http`] — a dependency-free HTTP/1.1 front end on
//!   `std::net::TcpListener` exposing the registry at
//!   `POST /v1/models/{name}/infer`, `GET /v1/models`, `GET /metrics` and
//!   `GET /healthz`, plus the admin routes `PUT`/`DELETE /v1/models/{name}`,
//!   `POST /v1/models/{name}/replan` and `POST /v1/models/{name}/tune`.
//!
//! The `serve_http` binary is the HTTP daemon; the
//! stand-alone `benchmark/` package measures the stack end to end;
//! `examples/serve_demo.rs` at the repository root is the minimal
//! end-to-end tour. For horizontal scale-out — N
//! replica `serve_http` processes behind one routing front door — see the
//! `tdc-router` crate, which reuses this crate's [`HttpServer`] via the
//! [`HttpHandler`] trait and its keep-alive [`HttpClient`].
//!
//! # Example: one engine, then a registry
//!
//! ```
//! use tdc_serve::{serving_descriptor, ModelConfig, ModelRegistry, ServeEngine};
//!
//! // A single engine, built with the typed builder.
//! let descriptor = serving_descriptor("crate-docs", 8, 4, 4);
//! let engine = ServeEngine::builder(&descriptor).build().unwrap();
//! let direct = engine.infer(tdc_tensor::Tensor::zeros(vec![8, 8, 4])).unwrap();
//! assert_eq!(direct.output.dims(), &[4]);
//! engine.shutdown();
//!
//! // The same model plus a second one behind a named registry.
//! let registry = ModelRegistry::new(4);
//! registry.register("a", &descriptor, ModelConfig::default()).unwrap();
//! registry
//!     .register("b", &serving_descriptor("crate-docs-b", 8, 6, 6), ModelConfig::default())
//!     .unwrap();
//! let routed = registry.infer("a", tdc_tensor::Tensor::zeros(vec![8, 8, 4])).unwrap();
//! // Same descriptor, same seed, same plan: the registry serves the same model.
//! assert_eq!(routed.output, direct.output);
//! registry.shutdown();
//! ```

pub mod arena;
pub mod backend;
pub mod batcher;
pub mod control;
pub mod http;
pub mod metrics;
pub mod model;
pub mod options;
pub mod plan_cache;
pub mod registry;
pub mod server;
mod wire;

pub use arena::{BufferPool, PoolStats, ScratchArena};
pub use backend::{
    BackendKind, BackendLatencyReport, BackendWrapper, BatchExecution, CpuBackend,
    ExecutionBackend, LayerSimLatency, SimGpuBackend,
};
pub use batcher::{
    BatchQueue, DequeuedBatch, InferenceRequest, InferenceResponse, PendingResponse,
};
pub use control::{
    ControllerStatus, EngineHandle, EpochSwap, KnobEstimate, KnobSet, ModelControllerStatus,
    ReplanReport, TuneProbe, TuneReport, TuneRequest,
};
pub use http::{HealthReply, HttpClient, HttpHandler, HttpServer, RoutedResponse, ShutdownSignal};
pub use metrics::{LatencySummary, ServeMetrics};
pub use model::CompressedModel;
pub use options::{BatchingOptions, PlanningOptions, RuntimeOptions};
pub use plan_cache::{CacheOutcome, PlanCache, PlanCacheStats, PlanKey, PlanKeyHits};
pub use registry::{ModelConfig, ModelInfo, ModelMetricsEntry, ModelRegistry, RegistryMetrics};
pub use server::{ServeEngine, ServeEngineBuilder, ServeReport};
pub use tdc_exec::{Executor, ExecutorMetrics, ExecutorOptions, QosClass};

use tdc_conv::ConvShape;
use tdc_nn::models::ModelDescriptor;

/// Errors produced by the serving subsystem.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The underlying TDC framework failed (planning, lowering, tiling, ...).
    Tdc(tdc::TdcError),
    /// A tensor/convolution operation failed during execution.
    Conv(tdc_conv::ConvError),
    /// A Tucker operation failed during materialization or execution.
    Tucker(tdc_tucker::TuckerError),
    /// The model descriptor cannot be executed as a sequential chain.
    NotAChain {
        /// Index of the offending layer.
        layer_index: usize,
        /// Why the chain breaks there.
        reason: String,
    },
    /// An inference input does not match the model's expected shape.
    BadInput {
        /// Dims the backend expects.
        expected: Vec<usize>,
        /// Dims that were submitted.
        actual: Vec<usize>,
    },
    /// The engine is shut down and no longer accepts requests.
    Closed,
    /// The model's admission queue is at its configured bound; the request
    /// was rejected instead of growing the queue without limit.
    Overloaded {
        /// Configured admission bound (`max_queue_depth`) that was hit.
        limit: usize,
    },
    /// No model with this name is registered.
    UnknownModel {
        /// The name that failed to resolve.
        name: String,
    },
    /// The request's deadline passed before it could be served: either it
    /// expired while queued (dropped at dequeue, before any executor work)
    /// or its batch finished executing after the deadline. Counted in
    /// [`ServeMetrics::deadline_exceeded`](crate::ServeMetrics) and mapped
    /// to HTTP `504 Gateway Timeout` by the front end.
    DeadlineExceeded {
        /// How long the request had been waiting when it was expired, ms.
        waited_ms: f64,
    },
    /// The execution backend failed (or panicked) while running this
    /// request's batch. Every request in the batch is answered with this
    /// typed error — clients never see a bare channel disconnect for an
    /// execution failure — and counted in
    /// [`ServeMetrics::failed_requests`](crate::ServeMetrics).
    ExecutionFailed {
        /// What the backend reported (or the panic payload).
        reason: String,
    },
    /// A request was dropped without an answer: its worker-side channel
    /// disconnected (engine shutdown discarding the request, or a failed
    /// batch).
    Disconnected,
    /// A shared lock was poisoned by a panicking thread.
    LockPoisoned {
        /// Which lock was found poisoned.
        what: &'static str,
    },
    /// The serving runtime failed to start or operate (e.g. worker threads
    /// could not be spawned).
    Runtime {
        /// What failed.
        reason: String,
    },
    /// Invalid serving configuration.
    BadConfig {
        /// What is wrong with the configuration.
        reason: String,
    },
    /// A plan-cache spill could not be read or written.
    Spill {
        /// The underlying I/O problem.
        reason: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Tdc(e) => write!(f, "planning error: {e}"),
            ServeError::Conv(e) => write!(f, "convolution error: {e}"),
            ServeError::Tucker(e) => write!(f, "tucker error: {e}"),
            ServeError::NotAChain {
                layer_index,
                reason,
            } => {
                write!(
                    f,
                    "descriptor is not a sequential chain at layer {layer_index}: {reason}"
                )
            }
            ServeError::BadInput { expected, actual } => {
                write!(
                    f,
                    "bad inference input: expected {expected:?}, got {actual:?}"
                )
            }
            ServeError::Closed => write!(f, "serving engine is shut down"),
            ServeError::Overloaded { limit } => {
                write!(
                    f,
                    "model overloaded: admission queue is at its bound of {limit} requests"
                )
            }
            ServeError::UnknownModel { name } => {
                write!(f, "no model named {name:?} is registered")
            }
            ServeError::DeadlineExceeded { waited_ms } => {
                write!(
                    f,
                    "deadline exceeded: request expired after {waited_ms:.2} ms without being \
                     served"
                )
            }
            ServeError::ExecutionFailed { reason } => {
                write!(f, "batch execution failed: {reason}")
            }
            ServeError::Disconnected => {
                write!(f, "request dropped: worker channel disconnected")
            }
            ServeError::LockPoisoned { what } => {
                write!(f, "{what} lock poisoned by a panicking thread")
            }
            ServeError::Runtime { reason } => write!(f, "serving runtime error: {reason}"),
            ServeError::BadConfig { reason } => write!(f, "bad serving configuration: {reason}"),
            ServeError::Spill { reason } => write!(f, "plan-cache spill error: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Tdc(e) => Some(e),
            ServeError::Conv(e) => Some(e),
            ServeError::Tucker(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tdc::TdcError> for ServeError {
    fn from(e: tdc::TdcError) -> Self {
        ServeError::Tdc(e)
    }
}

impl From<tdc_conv::ConvError> for ServeError {
    fn from(e: tdc_conv::ConvError) -> Self {
        ServeError::Conv(e)
    }
}

impl From<tdc_tucker::TuckerError> for ServeError {
    fn from(e: tdc_tucker::TuckerError) -> Self {
        ServeError::Tucker(e)
    }
}

impl From<tdc_tensor::TensorError> for ServeError {
    fn from(e: tdc_tensor::TensorError) -> Self {
        ServeError::Conv(tdc_conv::ConvError::Tensor(e))
    }
}

/// Result alias for the serving subsystem.
pub type Result<T> = std::result::Result<T, ServeError>;

/// A miniature VGG-style serving model: a chain of same-padded 3×3
/// convolutions that widens from `base` to `4·base` channels over a
/// `spatial × spatial` input, closed by one FC layer to `classes` logits.
/// Every consecutive pair of layers is shape-compatible, so the descriptor is
/// executable as a real sequential network — the property the executor needs
/// and the ImageNet descriptors (with their residual shortcuts) do not have.
pub fn serving_descriptor(
    name: &str,
    spatial: usize,
    base: usize,
    classes: usize,
) -> ModelDescriptor {
    let convs = vec![
        ConvShape::same3x3(base, base * 2, spatial, spatial),
        ConvShape::same3x3(base * 2, base * 2, spatial, spatial),
        ConvShape::same3x3(base * 2, base * 4, spatial, spatial),
        ConvShape::same3x3(base * 4, base * 4, spatial, spatial),
    ];
    ModelDescriptor {
        name: name.into(),
        convs,
        fc: vec![(base * 4, classes)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_descriptor_is_a_chain() {
        let d = serving_descriptor("svc", 16, 8, 10);
        for pair in d.convs.windows(2) {
            assert_eq!(pair[0].output_dims(), pair[1].input_dims());
        }
        assert_eq!(d.fc, vec![(32, 10)]);
        assert_eq!(d.convs.len(), 4);
    }

    #[test]
    fn error_display_and_conversions() {
        let e: ServeError = tdc::TdcError::BadConfig { reason: "x".into() }.into();
        assert!(e.to_string().contains("planning error"));
        let e: ServeError = tdc_tensor::TensorError::NotAMatrix { rank: 3 }.into();
        assert!(e.to_string().contains("convolution error"));
        assert!(ServeError::Closed.to_string().contains("shut down"));
        assert!(ServeError::Overloaded { limit: 64 }
            .to_string()
            .contains("bound of 64"));
        assert!(ServeError::UnknownModel {
            name: "ghost".into()
        }
        .to_string()
        .contains("ghost"));
        assert!(ServeError::Disconnected
            .to_string()
            .contains("disconnected"));
        assert!(ServeError::DeadlineExceeded { waited_ms: 3.5 }
            .to_string()
            .contains("deadline exceeded"));
        assert!(ServeError::LockPoisoned {
            what: "batch queue"
        }
        .to_string()
        .contains("batch queue"));
        assert!(ServeError::Runtime {
            reason: "spawn failed".into()
        }
        .to_string()
        .contains("spawn failed"));
    }

    #[test]
    fn error_source_chains_to_the_wrapped_error() {
        use std::error::Error as _;
        let e: ServeError = tdc::TdcError::BadConfig { reason: "x".into() }.into();
        assert!(e.source().is_some());
        let e: ServeError = tdc_tensor::TensorError::NotAMatrix { rank: 3 }.into();
        let source = e.source().expect("conv error wraps the tensor error");
        // The chain continues one level deeper into the tensor error.
        assert!(source.source().is_some());
        assert!(ServeError::Closed.source().is_none());
    }

    // The joint-knob controller: `ModelRegistry::tune` driven end to end
    // through a registry, and the deadline-aware early release.

    use std::sync::Arc;
    use std::time::Duration;
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
        cfg.runtime.backend = BackendKind::SimGpu;
        cfg
    }

    fn registry_with_model(name: &str, cfg: ModelConfig) -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new(8));
        registry
            .register(name, &serving_descriptor(name, 8, 4, 4), cfg)
            .unwrap();
        registry
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
    fn a_dry_run_that_finds_better_knobs_leaves_the_ledger_alone() {
        // The 8 ms delay misses a 5 ms target, so the search moves the knobs
        // — and with `apply: false` nothing serves them, so the ledger must
        // not record an expectation for knobs nobody runs.
        let registry = registry_with_model("dry", config(8, Duration::from_millis(8)));
        let report = registry
            .tune(
                "dry",
                &TuneRequest {
                    target_p99_ms: Some(5.0),
                    apply: false,
                    max_rounds: 4,
                },
            )
            .unwrap();
        assert_ne!(report.after, report.before, "{report:?}");
        assert!(!report.applied);
        assert_eq!(report.tuning_generation, 0);
        let status = registry.controller_status();
        assert_eq!(status.tunes_total, 0);
        assert_eq!(status.models[0].tuning_generation, 0);
        assert_eq!(registry.engine("dry").unwrap().info().generation, 1);
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
    fn an_early_release_ships_at_deadline_minus_estimate_with_bit_identical_outputs() {
        // Engine with a batch-formation delay far beyond the request
        // deadline: without deadline-aware release the two requests below
        // would expire waiting for the window; with it the batch ships at
        // `deadline − estimated_exec` and completes in time. No sleeps and
        // no wall-clock assertions — the pinned facts are the early-release
        // counter, completion within deadline, and bit-parity. The sim-GPU
        // backend seeds a real (non-zero) exec estimate at build; the test
        // then pins it to a deliberately large value (as a slow deployment's
        // measured exec time would be) so the release point sits far from
        // the deadline and the outcome cannot hinge on scheduler wake-up
        // jitter.
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
