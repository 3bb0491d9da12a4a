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
//!   trait: [`CpuBackend`] runs real CPU forward passes — im2col + GEMM for
//!   kept layers, the three-stage Tucker-2 convolution for decomposed ones,
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
//!   ([`ModelRegistry::replan`]) and the substrate the `tdc-ctrl` SLO
//!   controller tunes through ([`ModelRegistry::tune`]).
//! * [`control`] — what those operations are built from and exchange: the
//!   [`EpochSwap`] primitive, [`EngineHandle`], the knob / tune / controller
//!   report types and the [`TuneDriver`] contract.
//! * [`http`] — a dependency-free HTTP/1.1 front end on
//!   `std::net::TcpListener` exposing the registry at
//!   `POST /v1/models/{name}/infer`, `GET /v1/models`, `GET /metrics` and
//!   `GET /healthz`, plus the admin routes `PUT`/`DELETE /v1/models/{name}`,
//!   `POST /v1/models/{name}/replan` and `POST /v1/models/{name}/tune`.
//!
//! The `serve_http` binary (in `tdc-ctrl`) is the HTTP daemon; the
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
    ControllerConfig, ControllerStatus, ControllerWatch, EngineHandle, EpochSwap, KnobEstimate,
    KnobSet, MeasuredSlo, ModelControllerStatus, ReplanReport, TickReport, TuneDriver, TuneProbe,
    TuneReport, TuneRequest,
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
}
