//! A dependency-free HTTP/1.1 front end over a [`ModelRegistry`].
//!
//! Consistent with the offline `crates/compat` policy, this is a minimal
//! hand-rolled server on [`std::net::TcpListener`] — no async runtime, no
//! external HTTP crate. One acceptor thread hands each connection to a
//! handler thread; requests and responses are JSON through the workspace's
//! `serde_json` stand-in. Handler threads only *submit* into the per-model
//! engines; batches execute on the process-wide executor
//! (`tdc_exec`), which schedules every model by QoS band and fair-share
//! weight. A registration body may pick the class (`"qos"`) and weight
//! (`"workers"`), and `GET /metrics` reports the executor fleet-wide
//! (`"executor"`: worker utilization, per-band queue depths)
//! and per model (each model row's `"executor"`: queued work, running
//! dispatches and executed batches).
//!
//! Connections are **persistent** (HTTP/1.1 keep-alive): a handler runs a
//! per-connection request loop, honoring the `Connection:` header
//! (`keep-alive` is the HTTP/1.1 default, `close` ends the loop; HTTP/1.0
//! defaults to `close`), with an idle timeout between requests and a bound
//! on requests served per connection. Pipelined requests — several requests
//! written before the first response is read — are handled in order from
//! the connection's read buffer.
//!
//! Routes — the data plane:
//!
//! | Method | Path                          | Response |
//! |--------|-------------------------------|----------|
//! | `POST` | `/v1/models/{name}/infer`     | run one sample (or a batch) through `{name}` |
//! | `GET`  | `/v1/models`                  | [`ModelInfo`](crate::registry::ModelInfo) list |
//! | `GET`  | `/metrics`                    | [`RegistryMetrics`](crate::registry::RegistryMetrics) snapshot |
//! | `GET`  | `/healthz`                    | readiness JSON ([`HealthReply`]): model count, table epoch, admission state |
//! | `POST` | `/admin/shutdown`             | request graceful shutdown (the daemon drains and exits) |
//!
//! …and the admin plane, backed by the live [registry](crate::registry)
//! (every operation is safe on a serving process):
//!
//! | Method   | Path                          | Response |
//! |----------|-------------------------------|----------|
//! | `PUT`    | `/v1/models/{name}`           | register from a JSON [`RegisterBody`] (descriptor + options) |
//! | `DELETE` | `/v1/models/{name}`           | graceful retire: unroute, drain, free — final counters |
//! | `POST`   | `/v1/models/{name}/replan`    | re-plan at a new budget and hot-swap ([`ReplanReport`](crate::control::ReplanReport)) |
//! | `POST`   | `/v1/models/{name}/tune`      | joint knob tune through the controller ([`TuneReport`](crate::control::TuneReport)) |
//!
//! The infer body comes in two forms:
//!
//! * single — `{"input": [f32...], "dims": [h, w, c], "deadline_ms": N}`;
//! * batched — `{"inputs": [[f32...], ...], "dims": [h, w, c],
//!   "deadline_ms": N}`: the samples are submitted atomically and ride one
//!   executor batch (when they fit `max_batch_size` on an idle queue), and
//!   the reply carries per-input outputs bit-identical to N sequential
//!   single calls.
//!
//! `dims` may be omitted when it equals the model's expected input dims;
//! `deadline_ms` overrides the model's configured default deadline for this
//! request. Errors map onto conventional status codes: unknown model or
//! route → `404`, malformed body or wrong shape → `400`, admission
//! rejection ([`ServeError::Overloaded`]) → `429`, deadline expiry
//! ([`ServeError::DeadlineExceeded`]) → `504`, engine shut down or mid-retire
//! → `503`. The shed-load responses (`429` and `503`) carry a `Retry-After`
//! header derived from the model's live queue depth times its estimated
//! batch latency ([`ServeEngine::retry_after_hint`](crate::ServeEngine)),
//! so clients back off proportionally to the actual backlog.
//!
//! Serving stays bit-exact across the wire: `f32` values are serialized
//! through the stand-in's shortest-round-trip float formatting, so an output
//! fetched over HTTP equals the in-process [`InferenceResponse`] bit for bit
//! — whether the connection is reused or closed per request.
//!
//! The connection machinery is reusable beyond the registry: any
//! [`HttpHandler`] can sit behind [`HttpServer::bind_with_handler`] — that
//! is how the `tdc-router` crate fronts a whole replica fleet with this
//! same std-only server.

use crate::arena::BufferPool;
use crate::batcher::InferenceResponse;
use crate::control::TuneRequest;
use crate::options::{BatchingOptions, PlanningOptions, RuntimeOptions};
use crate::registry::{ModelConfig, ModelRegistry};
use crate::wire::{Broken, Connection};
use crate::{Result, ServeError};
use serde::Deserialize;
use serde_json::Reader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tdc_exec::QosClass;
use tdc_gpu_sim::DeviceSpec;
use tdc_nn::models::ModelDescriptor;
use tdc_tensor::Tensor;

/// Most requests one keep-alive connection may issue before the server
/// closes it (bounds per-connection resource lifetime).
const MAX_REQUESTS_PER_CONNECTION: usize = 1024;
/// Most connection-handler threads alive at once; connections beyond the cap
/// are handled inline on the acceptor thread (natural backpressure) instead
/// of spawning without bound. Inline connections serve a single request —
/// a keep-alive loop on the acceptor would stall every other client.
const MAX_HANDLER_THREADS: usize = 64;

/// JSON body of `POST /v1/models/{name}/infer` (single-sample form).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct InferBody {
    /// Flat input sample, row-major.
    pub input: Vec<f32>,
    /// HWC dims of `input`; defaults to the model's expected input dims.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dims: Option<Vec<usize>>,
    /// Per-request deadline in milliseconds, overriding the model's default
    /// ([`BatchingOptions::default_deadline`](crate::BatchingOptions)); a
    /// request not served within the deadline answers `504`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub deadline_ms: Option<u64>,
}

/// JSON body of the batched infer form: N samples riding one submission.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchInferBody {
    /// Flat input samples, row-major, all sharing one `dims`.
    pub inputs: Vec<Vec<f32>>,
    /// HWC dims of each sample; defaults to the model's expected input dims.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dims: Option<Vec<usize>>,
    /// Per-request deadline in milliseconds shared by every sample in the
    /// group, overriding the model's default.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub deadline_ms: Option<u64>,
}

/// JSON body of `PUT /v1/models/{name}`: the model descriptor plus optional
/// planning / batching / runtime knobs (defaults match
/// [`ModelConfig::default`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RegisterBody {
    /// The network to serve (`{"name", "convs": [...], "fc": [[in, out]]}`).
    pub descriptor: ModelDescriptor,
    /// FLOPs-reduction budget for rank selection, in `[0, 1)`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub budget: Option<f64>,
    /// Rank-candidate step.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub rank_step: Option<usize>,
    /// θ skip threshold for rank selection.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub theta: Option<f64>,
    /// Planning/simulation device: `"a100"` (default) or `"rtx2080ti"`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub device: Option<String>,
    /// Maximum requests per executed batch.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_batch_size: Option<usize>,
    /// Longest the oldest queued request waits for batch-mates, ms.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_batch_delay_ms: Option<u64>,
    /// Admission bound of the model's queue.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_queue_depth: Option<usize>,
    /// Default per-request deadline, ms.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub default_deadline_ms: Option<u64>,
    /// Fair-share weight on the fleet executor (historically the size of a
    /// per-model worker pool; the executor is now shared, so this scales the
    /// model's scheduling quantum instead).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub workers: Option<usize>,
    /// QoS class on the fleet executor: `"interactive"`, `"standard"`
    /// (default) or `"batch"`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub qos: Option<String>,
    /// Seed for weight materialization.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub seed: Option<u64>,
}

impl RegisterBody {
    /// A registration body for `descriptor` with every option left at its
    /// default.
    pub fn for_descriptor(descriptor: ModelDescriptor) -> Self {
        RegisterBody {
            descriptor,
            budget: None,
            rank_step: None,
            theta: None,
            device: None,
            max_batch_size: None,
            max_batch_delay_ms: None,
            max_queue_depth: None,
            default_deadline_ms: None,
            workers: None,
            qos: None,
            seed: None,
        }
    }

    /// Resolve the body's knobs into a full [`ModelConfig`], filling gaps
    /// with the defaults. Unknown device or QoS labels are a
    /// [`ServeError::BadConfig`] (HTTP 400).
    pub fn model_config(&self) -> Result<ModelConfig> {
        let device = match self.device.as_deref() {
            None | Some("a100") => DeviceSpec::a100(),
            Some("rtx2080ti") | Some("2080ti") | Some("rtx-2080-ti") => DeviceSpec::rtx2080ti(),
            Some(other) => {
                return Err(ServeError::BadConfig {
                    reason: format!("unknown device {other:?}; use \"a100\" or \"rtx2080ti\""),
                })
            }
        };
        let planning_defaults = PlanningOptions::default();
        let batching_defaults = BatchingOptions::default();
        let runtime_defaults = RuntimeOptions::default();
        Ok(ModelConfig {
            planning: PlanningOptions {
                device,
                budget: self.budget.unwrap_or(planning_defaults.budget),
                rank_step: self.rank_step.unwrap_or(planning_defaults.rank_step),
                theta: self.theta.unwrap_or(planning_defaults.theta),
                strategy: planning_defaults.strategy,
            },
            batching: BatchingOptions {
                max_batch_size: self
                    .max_batch_size
                    .unwrap_or(batching_defaults.max_batch_size),
                max_batch_delay: self
                    .max_batch_delay_ms
                    .map(Duration::from_millis)
                    .unwrap_or(batching_defaults.max_batch_delay),
                max_queue_depth: self
                    .max_queue_depth
                    .unwrap_or(batching_defaults.max_queue_depth),
                default_deadline: self.default_deadline_ms.map(Duration::from_millis),
            },
            runtime: RuntimeOptions {
                workers: self.workers.unwrap_or(runtime_defaults.workers),
                qos: match self.qos.as_deref() {
                    None => runtime_defaults.qos,
                    Some(label) => QosClass::parse(label).ok_or_else(|| ServeError::BadConfig {
                        reason: format!(
                            "unknown qos {label:?}; use \"interactive\", \"standard\" or \"batch\""
                        ),
                    })?,
                },
                seed: self.seed.unwrap_or(runtime_defaults.seed),
            },
            backend_wrapper: None,
        })
    }
}

/// JSON body of `POST /v1/models/{name}/replan`: the new budget, plus
/// optional rank-step / θ overrides (everything else keeps the model's
/// current planning options).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplanBody {
    /// The new FLOPs-reduction budget, in `[0, 1)`.
    pub budget: f64,
    /// Optional rank-candidate step override.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub rank_step: Option<usize>,
    /// Optional θ override.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub theta: Option<f64>,
}

/// JSON body of `POST /v1/models/{name}/tune`: every field optional (an
/// empty body tunes against the model's recorded target with defaults).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TuneBody {
    /// Target p99 end-to-end latency, ms (default: the model's recorded
    /// target, or one derived from its current operating point).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub target_p99_ms: Option<f64>,
    /// Whether to hot-swap the winning knobs in (default true).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub apply: Option<bool>,
    /// Coordinate-descent round budget (default 3).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub max_rounds: Option<u64>,
}

impl TuneBody {
    /// Resolve into the registry's request, filling gaps with
    /// [`TuneRequest::default`].
    pub fn request(&self) -> TuneRequest {
        let defaults = TuneRequest::default();
        TuneRequest {
            target_p99_ms: self.target_p99_ms,
            apply: self.apply.unwrap_or(defaults.apply),
            max_rounds: self.max_rounds.unwrap_or(defaults.max_rounds),
        }
    }
}

/// JSON reply of `PUT /v1/models/{name}`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RegisterReply {
    /// The freshly routed model's description.
    pub registered: crate::registry::ModelInfo,
    /// Routing-table epoch after the registration.
    pub epoch: u64,
}

/// JSON reply of `DELETE /v1/models/{name}`: the retired engine's final
/// counters.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RetireReply {
    /// The name that was retired.
    pub model: String,
    /// Requests the engine completed over its lifetime (everything admitted
    /// before the retire was drained and answered).
    pub completed_requests: u64,
    /// Deadline expiries over the engine's lifetime.
    pub deadline_exceeded: u64,
    /// Fingerprint of the plan that was serving, hex.
    pub plan_fingerprint: String,
    /// Routing-table epoch after the retire.
    pub epoch: u64,
}

/// JSON reply of `POST /v1/models/{name}/infer` (single-sample form).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct InferReply {
    /// Registered model name that served the request.
    pub model: String,
    /// Output logits, flat.
    pub output: Vec<f32>,
    /// Dims of `output`.
    pub dims: Vec<usize>,
    /// Size of the batch the request rode in.
    pub batch_size: usize,
    /// Queue wait, ms.
    pub queue_ms: f64,
    /// Executor time for the batch, measured on the serving host, ms.
    pub exec_ms: f64,
}

/// JSON reply of the batched infer form: one entry per submitted input, in
/// submission order.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchInferReply {
    /// Registered model name that served the group.
    pub model: String,
    /// Per-input output logits, flat, in submission order — bit-identical
    /// to N sequential single-sample calls.
    pub outputs: Vec<Vec<f32>>,
    /// Dims of each entry in `outputs`.
    pub dims: Vec<usize>,
    /// Number of inputs served.
    pub count: usize,
    /// Executor batch size each input rode in (all equal to `count` when the
    /// group fit one batch).
    pub batch_sizes: Vec<usize>,
}

/// JSON body of `GET /healthz`: liveness plus the readiness detail a fleet
/// health-checker consumes. The original plain-liveness contract is kept —
/// the reply is still a `200` whose body contains `"status":"ok"` and the
/// model count — and the readiness fields ride along.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HealthReply {
    /// Liveness: always `"ok"` on a serving process.
    pub status: String,
    /// Registered model count.
    pub models: usize,
    /// Routing-table epoch (bumps on every admin mutation).
    pub epoch: u64,
    /// Total queued requests across every model.
    pub queue_depth: usize,
    /// Admission state: `"open"`, or `"saturated"` when at least one model's
    /// queue sits at its admission bound (new submits there answer `429`).
    pub admission: String,
    /// Readiness: the process accepts inference traffic.
    pub ready: bool,
}

impl HealthReply {
    /// Snapshot `registry`'s health.
    pub fn snapshot(registry: &ModelRegistry) -> HealthReply {
        let mut queue_depth = 0usize;
        let mut models = 0usize;
        let mut saturated = false;
        for name in registry.names() {
            // A model retired between names() and here simply drops out.
            let Ok(engine) = registry.engine(&name) else {
                continue;
            };
            models += 1;
            let depth = engine.queue_depth();
            queue_depth += depth;
            let bound = engine.info().max_queue_depth;
            saturated |= bound > 0 && depth >= bound;
        }
        HealthReply {
            status: "ok".to_string(),
            models,
            epoch: registry.epoch(),
            queue_depth,
            admission: if saturated { "saturated" } else { "open" }.to_string(),
            ready: true,
        }
    }
}

#[derive(serde::Serialize)]
struct ModelsReply {
    models: Vec<crate::registry::ModelInfo>,
}

#[derive(serde::Serialize)]
struct ErrorReply {
    error: String,
}

/// One routed reply: status, JSON body and (for shed-load responses) the
/// `Retry-After` value in seconds. What an [`HttpHandler`] returns and the
/// connection loop writes.
pub struct RoutedResponse {
    /// HTTP status code.
    pub status: u16,
    /// JSON response body.
    pub body: String,
    /// `Retry-After` header value in seconds, on shed-load responses.
    pub retry_after: Option<u64>,
}

impl RoutedResponse {
    /// A JSON reply at `status` (serialization failures degrade to an
    /// `error` body rather than panicking the connection handler).
    pub fn json(status: u16, body: &impl serde::Serialize) -> RoutedResponse {
        json_routed(status, body)
    }

    /// An `{"error": message}` reply at `status`.
    pub fn error(status: u16, message: impl std::fmt::Display) -> RoutedResponse {
        error_routed(status, message)
    }
}

/// What the connection loop serves: anything that maps one parsed request
/// onto a [`RoutedResponse`]. [`HttpServer::bind`] installs the registry
/// handler; [`HttpServer::bind_with_handler`] accepts any implementation —
/// the way `tdc-router` reuses this server for a replica-fleet front end.
pub trait HttpHandler: Send + Sync + 'static {
    /// Answer one request. Runs on a connection-handler thread; blocking
    /// here blocks only that connection.
    fn handle(&self, method: &str, path: &str, body: &str) -> RoutedResponse;
}

type Routed = RoutedResponse;

fn json_routed(status: u16, body: &impl serde::Serialize) -> Routed {
    Routed {
        status,
        body: serde_json::to_string(body)
            .unwrap_or_else(|e| format!("{{\"error\":\"{}\"}}", e.message)),
        retry_after: None,
    }
}

fn error_routed(status: u16, message: impl std::fmt::Display) -> Routed {
    json_routed(
        status,
        &ErrorReply {
            error: message.to_string(),
        },
    )
}

/// A one-shot, waitable shutdown request — how `POST /admin/shutdown`
/// reaches the daemon's main thread. Cloning shares the signal.
#[derive(Clone)]
pub struct ShutdownSignal {
    inner: Arc<(Mutex<bool>, Condvar)>,
}

impl ShutdownSignal {
    /// A fresh, un-requested signal.
    pub fn new() -> ShutdownSignal {
        ShutdownSignal {
            inner: Arc::new((Mutex::new(false), Condvar::new())),
        }
    }

    /// Request shutdown, waking every [`wait`](ShutdownSignal::wait)er.
    pub fn request(&self) {
        let (flag, condvar) = &*self.inner;
        let mut requested = match flag.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        *requested = true;
        condvar.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn requested(&self) -> bool {
        let (flag, _) = &*self.inner;
        match flag.lock() {
            Ok(guard) => *guard,
            Err(poisoned) => *poisoned.into_inner(),
        }
    }

    /// Block until shutdown is requested.
    pub fn wait(&self) {
        let (flag, condvar) = &*self.inner;
        let mut requested = match flag.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        while !*requested {
            requested = match condvar.wait(requested) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Block until shutdown is requested or `timeout` passes; returns
    /// whether shutdown was requested.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let (flag, condvar) = &*self.inner;
        let mut requested = match flag.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        while !*requested {
            let remaining = match deadline.checked_duration_since(Instant::now()) {
                Some(remaining) if !remaining.is_zero() => remaining,
                _ => return false,
            };
            requested = match condvar.wait_timeout(requested, remaining) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        true
    }
}

impl Default for ShutdownSignal {
    fn default() -> Self {
        ShutdownSignal::new()
    }
}

/// The registry-backed [`HttpHandler`] that [`HttpServer::bind`] installs:
/// the full route table, plus `POST /admin/shutdown`, which requests the
/// server's [`ShutdownSignal`] (the daemon's main thread waits on it and
/// runs the graceful drain) and answers before any teardown begins.
struct RegistryHandler {
    registry: Arc<ModelRegistry>,
    shutdown: ShutdownSignal,
}

impl HttpHandler for RegistryHandler {
    fn handle(&self, method: &str, path: &str, body: &str) -> RoutedResponse {
        if (method, path) == ("POST", "/admin/shutdown") {
            self.shutdown.request();
            return json_routed(200, &StatusReply::shutting_down());
        }
        route_full(&self.registry, method, path, body)
    }
}

#[derive(serde::Serialize)]
struct StatusReply {
    status: String,
}

impl StatusReply {
    fn shutting_down() -> StatusReply {
        StatusReply {
            status: "shutting-down".to_string(),
        }
    }
}

/// Map a [`ServeError`] onto its status and body; shed-load conditions
/// (admission rejection, engine mid-retire) additionally get a
/// `Retry-After` derived from the model's live queue depth × estimated
/// batch latency — or a conservative 1 s when the engine is already gone.
fn serve_error_routed(registry: &ModelRegistry, model: Option<&str>, e: &ServeError) -> Routed {
    let status = status_for(e);
    let mut routed = error_routed(status, e);
    if matches!(status, 429 | 503) {
        routed.retry_after = Some(
            model
                .and_then(|name| registry.engine(name).ok())
                .map(|handle| handle.retry_after_hint().as_secs().max(1))
                .unwrap_or(1),
        );
    }
    routed
}

fn status_for(error: &ServeError) -> u16 {
    match error {
        ServeError::UnknownModel { .. } => 404,
        ServeError::BadInput { .. }
        | ServeError::BadConfig { .. }
        | ServeError::NotAChain { .. } => 400,
        ServeError::Overloaded { .. } => 429,
        ServeError::DeadlineExceeded { .. } => 504,
        ServeError::Closed | ServeError::Disconnected => 503,
        _ => 500,
    }
}

fn bad_body(e: serde::Error) -> ServeError {
    ServeError::BadConfig {
        reason: format!("malformed infer body: {}", e.message),
    }
}

/// Serve the single-sample infer form. Takes the handle by value: the
/// submission goes through the *pinned* engine (never a second by-name
/// lookup that a concurrent replan could split from the pin), and the
/// handle is released before the blocking wait so a retire or replan only
/// waits for submissions, not for response delivery — the draining engine
/// answers in-flight work on its way out. The answered output's buffer is
/// recycled into the engine's pool after serialization — the delivery half
/// of the zero-allocation loop.
fn infer_single(
    engine: crate::control::EngineHandle,
    model: &str,
    parsed: InferBody,
) -> Result<InferReply> {
    let dims = parsed
        .dims
        .unwrap_or_else(|| engine.model().input_dims().to_vec());
    // A dims/input-length mismatch is a client error (400), not a server
    // failure: map the tensor-construction error onto BadConfig.
    let input = Tensor::from_vec(dims, parsed.input).map_err(|e| ServeError::BadConfig {
        reason: format!("bad infer body: {e}"),
    })?;
    let deadline = parsed
        .deadline_ms
        .map(Duration::from_millis)
        .or_else(|| engine.default_deadline());
    let pool = engine.buffer_pool();
    let pending = engine.submit_counted(input, deadline)?;
    drop(engine);
    let response: InferenceResponse = pending.wait()?;
    let reply = InferReply {
        model: model.to_string(),
        output: response.output.data().to_vec(),
        dims: response.output.dims().to_vec(),
        batch_size: response.batch_size,
        queue_ms: response.queue_ms,
        exec_ms: response.exec_ms,
    };
    pool.give(response.output.into_data());
    Ok(reply)
}

/// Serve the batched infer form: submit every sample atomically through the
/// pinned engine so the group rides one executor batch, release the pin,
/// then await them all (same handle discipline as [`infer_single`]).
fn infer_batch(
    engine: crate::control::EngineHandle,
    model: &str,
    value: &serde::Value,
) -> Result<BatchInferReply> {
    let parsed = BatchInferBody::from_value(value).map_err(bad_body)?;
    if parsed.inputs.is_empty() {
        return Err(ServeError::BadConfig {
            reason: "batched infer body needs at least one entry in `inputs`".into(),
        });
    }
    let dims = parsed
        .dims
        .unwrap_or_else(|| engine.model().input_dims().to_vec());
    let tensors = parsed
        .inputs
        .into_iter()
        .map(|input| {
            Tensor::from_vec(dims.clone(), input).map_err(|e| ServeError::BadConfig {
                reason: format!("bad infer body: {e}"),
            })
        })
        .collect::<Result<Vec<Tensor>>>()?;
    let deadline = parsed
        .deadline_ms
        .map(Duration::from_millis)
        .or_else(|| engine.default_deadline());
    let pool = engine.buffer_pool();
    let pending = engine.submit_many_counted(tensors, deadline)?;
    drop(engine);
    let mut outputs = Vec::with_capacity(pending.len());
    let mut batch_sizes = Vec::with_capacity(pending.len());
    let mut out_dims = Vec::new();
    for handle in pending {
        let response = handle.wait()?;
        out_dims = response.output.dims().to_vec();
        outputs.push(response.output.data().to_vec());
        batch_sizes.push(response.batch_size);
        pool.give(response.output.into_data());
    }
    Ok(BatchInferReply {
        model: model.to_string(),
        count: outputs.len(),
        outputs,
        dims: out_dims,
        batch_sizes,
    })
}

/// Read the common single-sample infer body, `{"input": [...], "dims":
/// [...], "deadline_ms": N}` in any member order, on the JSON [`Reader`]:
/// the input numbers go straight into a buffer recycled from the engine's
/// pool, with no `Value` tree; `dims` and `deadline_ms` decode as on the
/// generic path. `None` for anything else — another or a repeated member
/// (`get` is first-key-wins), a non-number element, trailing characters —
/// sends the body down the generic path for its error message.
fn parse_infer_fast(body: &str, pool: &BufferPool, expected_len: usize) -> Option<InferBody> {
    // Each member once: `Some` marks it seen, whatever its value.
    let (mut input, mut dims, mut deadline_ms) = (None, None, None);
    let mut reader = Reader::new(body);
    let parsed = reader
        .object(|reader, key| match &*key {
            "input" if input.is_none() => {
                // Every element is pushed, so skip the zero-fill.
                let mut buf = pool.take_full(expected_len);
                buf.clear();
                let buf = input.insert(buf);
                reader.array(|reader| {
                    buf.push(reader.number()? as f32);
                    Ok(())
                })
            }
            "dims" if dims.is_none() => {
                dims = Some(Deserialize::from_value(&reader.value()?)?);
                Ok(())
            }
            "deadline_ms" if deadline_ms.is_none() => {
                deadline_ms = Some(Deserialize::from_value(&reader.value()?)?);
                Ok(())
            }
            _ => Err(reader.error("not the single-sample shape")),
        })
        .and_then(|()| reader.end());
    match (parsed, input) {
        (Ok(()), Some(input)) => Some(InferBody {
            input,
            dims: dims.flatten(),
            deadline_ms: deadline_ms.flatten(),
        }),
        // A bail after `input` was scanned returns its buffer to the pool,
        // so malformed bodies do not inflate the checkout stats.
        (_, Some(buf)) => {
            pool.give(buf);
            None
        }
        (_, None) => None,
    }
}

/// Byte range of the value of the first top-level member `key` of a JSON
/// object body, keys decoded (escapes included) as the generic path's `get`
/// compares them. Other values are stepped over by bracket depth, so a large
/// `input` array costs one pass over its bytes and no number parse. `None`
/// when the body is not one well-delimited object or lacks the member. This
/// lets the router read and rewrite `deadline_ms` without parsing the sample.
pub fn top_level_value(body: &str, key: &str) -> Option<Range<usize>> {
    let mut reader = Reader::new(body);
    let mut found = None;
    reader
        .object(|reader, name| {
            let token = reader.skip_value()?;
            if name == key && found.is_none() {
                found = Some(token);
            }
            Ok(())
        })
        .and_then(|()| reader.end())
        .ok()?;
    found
}

fn infer(registry: &ModelRegistry, model: &str, body: &str) -> Result<String> {
    // Resolve the model once — shared by both body forms — so an unknown
    // name answers 404 even when the body is also malformed. Submission
    // then goes through this very handle, so the request is guaranteed to
    // ride the engine that was resolved here.
    let engine = registry.engine(model)?;
    // Fast path: read the common single-sample body straight into a pooled
    // buffer. Any other shape takes the generic `Value` tree below.
    let expected_len = engine.model().input_dims().iter().product();
    let rendered = if let Some(parsed) = parse_infer_fast(body, &engine.buffer_pool(), expected_len)
    {
        serde_json::to_string(&infer_single(engine, model, parsed)?)
    } else {
        let value = serde_json::parse_value(body).map_err(bad_body)?;
        // The body form picks the path: `inputs` is the batched contract,
        // `input` the single-sample one.
        if value.get("inputs").is_some() {
            serde_json::to_string(&infer_batch(engine, model, &value)?)
        } else {
            let parsed = InferBody::from_value(&value).map_err(bad_body)?;
            serde_json::to_string(&infer_single(engine, model, parsed)?)
        }
    };
    rendered.map_err(|e| ServeError::Runtime {
        reason: format!("cannot serialize the infer reply: {}", e.message),
    })
}

/// `/v1/models/{name}` with a non-empty, single-segment name.
fn model_path(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/models/")
        .filter(|name| !name.is_empty() && !name.contains('/'))
}

/// `/v1/models/{name}/{action}` with a non-empty, single-segment name.
/// strip_prefix + strip_suffix cannot overlap, so degenerate paths like
/// `/v1/models/infer` fall through to 404 instead of slicing out of bounds.
fn action_path<'a>(path: &'a str, action: &str) -> Option<&'a str> {
    path.strip_prefix("/v1/models/")
        .and_then(|rest| rest.strip_suffix(action))
        .filter(|model| !model.is_empty() && !model.contains('/'))
}

/// `PUT /v1/models/{name}` — register a model on the live table. The reply
/// is built from the entry and epoch this very call created (never a
/// second by-name lookup or epoch read a racing admin operation could
/// invalidate).
fn put_model(registry: &ModelRegistry, name: &str, body: &str) -> Routed {
    let registered = serde_json::from_str::<RegisterBody>(body)
        .map_err(bad_body)
        .and_then(|parsed| {
            let config = parsed.model_config()?;
            registry.register_at_epoch(name, &parsed.descriptor, config)
        });
    match registered {
        Ok((info, epoch)) => json_routed(
            200,
            &RegisterReply {
                registered: info,
                epoch,
            },
        ),
        Err(e) => serve_error_routed(registry, Some(name), &e),
    }
}

/// `DELETE /v1/models/{name}` — graceful retire.
fn delete_model(registry: &ModelRegistry, name: &str) -> Routed {
    match registry.retire_at_epoch(name) {
        Ok((report, epoch)) => json_routed(
            200,
            &RetireReply {
                model: name.to_string(),
                completed_requests: report.metrics.completed_requests,
                deadline_exceeded: report.metrics.deadline_exceeded,
                plan_fingerprint: format!("{:016x}", report.plan_fingerprint),
                epoch,
            },
        ),
        Err(e) => serve_error_routed(registry, Some(name), &e),
    }
}

/// `POST /v1/models/{name}/replan` — plan hot-swap at a new budget. The
/// body's overrides are merged onto the model's current planning options
/// *inside* the registry's writer lock, so two concurrent replans
/// compose instead of one clobbering the other from a stale snapshot.
fn replan_model(registry: &ModelRegistry, name: &str, body: &str) -> Routed {
    let parsed = match serde_json::from_str::<ReplanBody>(body).map_err(bad_body) {
        Ok(parsed) => parsed,
        Err(e) => return serve_error_routed(registry, Some(name), &e),
    };
    let replanned = registry.replan_with(name, move |mut planning| {
        planning.budget = parsed.budget;
        if let Some(rank_step) = parsed.rank_step {
            planning.rank_step = rank_step;
        }
        if let Some(theta) = parsed.theta {
            planning.theta = theta;
        }
        planning
    });
    match replanned {
        Ok(report) => json_routed(200, &report),
        Err(e) => serve_error_routed(registry, Some(name), &e),
    }
}

/// `POST /v1/models/{name}/tune` — one controller tune (the registry's joint
/// knob search). An empty body runs with defaults.
fn tune_model(registry: &ModelRegistry, name: &str, body: &str) -> Routed {
    let parsed = if body.trim().is_empty() {
        TuneBody::default()
    } else {
        match serde_json::from_str::<TuneBody>(body).map_err(bad_body) {
            Ok(parsed) => parsed,
            Err(e) => return serve_error_routed(registry, Some(name), &e),
        }
    };
    match registry.tune(name, &parsed.request()) {
        Ok(report) => json_routed(200, &report),
        Err(e) => serve_error_routed(registry, Some(name), &e),
    }
}

/// Full request router, independent of any socket: maps one parsed request
/// onto a reply with status, JSON body and optional Retry-After. Public so
/// custom [`HttpHandler`]s (a chaos harness interposing on a replica, say)
/// can delegate to the stock registry route table.
pub fn route_full(registry: &ModelRegistry, method: &str, path: &str, body: &str) -> Routed {
    match (method, path) {
        ("GET", "/healthz") => json_routed(200, &HealthReply::snapshot(registry)),
        ("GET", "/v1/models") => json_routed(
            200,
            &ModelsReply {
                models: registry.model_info(),
            },
        ),
        ("GET", "/metrics") => json_routed(200, &registry.metrics()),
        ("POST", post_path) => {
            if let Some(model) = action_path(post_path, "/infer") {
                match infer(registry, model, body) {
                    Ok(reply) => Routed {
                        status: 200,
                        body: reply,
                        retry_after: None,
                    },
                    Err(e) => serve_error_routed(registry, Some(model), &e),
                }
            } else if let Some(model) = action_path(post_path, "/replan") {
                replan_model(registry, model, body)
            } else if let Some(model) = action_path(post_path, "/tune") {
                tune_model(registry, model, body)
            } else {
                error_routed(404, format!("no route for POST {post_path}"))
            }
        }
        ("PUT", put_path) => match model_path(put_path) {
            Some(model) => put_model(registry, model, body),
            None => error_routed(404, format!("no route for PUT {put_path}")),
        },
        ("DELETE", delete_path) => match model_path(delete_path) {
            Some(model) => delete_model(registry, model),
            None => error_routed(404, format!("no route for DELETE {delete_path}")),
        },
        ("GET", _) => error_routed(404, format!("no route for {method} {path}")),
        _ => error_routed(405, format!("method {method} is not supported")),
    }
}

/// Pure request router, independent of any socket: maps one parsed request
/// onto a `(status, JSON body)` pair. Exposed for direct testing; the
/// connection handler uses the full form that additionally carries the
/// `Retry-After` header value.
pub fn route(registry: &ModelRegistry, method: &str, path: &str, body: &str) -> (u16, String) {
    let routed = route_full(registry, method, path, body);
    (routed.status, routed.body)
}

/// The per-connection request loop: parse → route → respond, until the
/// client asks to close, the request budget runs out, the connection idles
/// past the timeout, or the server stops.
fn handle_connection(
    handler: &dyn HttpHandler,
    stream: TcpStream,
    stop: &AtomicBool,
    max_requests: usize,
) {
    let Ok(mut connection) = Connection::accepted(stream) else {
        return;
    };
    let mut served = 0usize;
    loop {
        let (routed, close) = match connection.read_request(stop) {
            Ok(request) => {
                served += 1;
                let routed = handler.handle(request.method, request.path, request.body);
                let close =
                    !request.keep_alive || served >= max_requests || stop.load(Ordering::SeqCst);
                (routed, close)
            }
            // Malformed, over-limit or stalled mid-request: say so, then
            // close — the inbox can no longer be trusted to start at a
            // request boundary.
            Err(Broken::Reject(status, message)) => (error_routed(status, message), true),
            Err(Broken::TimedOut(true)) => (error_routed(408, "request timed out"), true),
            // The peer closed or idled out between requests (also the
            // shutdown nudge), or the socket failed: nothing to answer.
            Err(_) => return,
        };
        let written =
            connection.write_response(routed.status, &routed.body, close, routed.retry_after);
        if written.is_err() || close {
            return;
        }
    }
}

/// The running HTTP front end: an acceptor thread plus per-connection
/// handler threads (each running a keep-alive request loop), all routing
/// into a shared [`HttpHandler`] — usually the registry handler that
/// [`bind`](HttpServer::bind) installs, or any custom implementation via
/// [`bind_with_handler`](HttpServer::bind_with_handler).
pub struct HttpServer {
    registry: Option<Arc<ModelRegistry>>,
    shutdown_signal: Option<ShutdownSignal>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:7878"`; port `0` picks a free port) and
    /// start accepting connections against `registry` — the full route
    /// table plus `POST /admin/shutdown`, whose requests surface on
    /// [`shutdown_signal`](HttpServer::shutdown_signal).
    pub fn bind(addr: &str, registry: Arc<ModelRegistry>) -> Result<HttpServer> {
        let shutdown = ShutdownSignal::new();
        let handler = Arc::new(RegistryHandler {
            registry: Arc::clone(&registry),
            shutdown: shutdown.clone(),
        });
        let mut server = HttpServer::bind_with_handler(addr, handler)?;
        server.registry = Some(registry);
        server.shutdown_signal = Some(shutdown);
        Ok(server)
    }

    /// Bind `addr` and serve connections through an arbitrary handler. The
    /// returned server has no registry: tear it down with
    /// [`stop`](HttpServer::stop) (or drop), not
    /// [`shutdown`](HttpServer::shutdown).
    pub fn bind_with_handler(addr: &str, handler: Arc<dyn HttpHandler>) -> Result<HttpServer> {
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Runtime {
            reason: format!("cannot bind {addr}: {e}"),
        })?;
        let local_addr = listener.local_addr().map_err(|e| ServeError::Runtime {
            reason: format!("cannot resolve the bound address: {e}"),
        })?;
        let stop = Arc::new(AtomicBool::new(false));
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let handler = Arc::clone(&handler);
            let stop = Arc::clone(&stop);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("tdc-serve-http-accept".to_string())
                .spawn(move || {
                    for connection in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = connection else { continue };
                        // Reap finished handlers; if the pool is saturated
                        // (or a spawn fails), serve this connection inline —
                        // the acceptor stalls briefly, which is exactly the
                        // backpressure an unbounded thread count would hide.
                        let at_capacity = {
                            let mut handlers = match handlers.lock() {
                                Ok(guard) => guard,
                                Err(poisoned) => poisoned.into_inner(),
                            };
                            handlers.retain(|h| !h.is_finished());
                            handlers.len() >= MAX_HANDLER_THREADS
                        };
                        if at_capacity {
                            handle_connection(handler.as_ref(), stream, &stop, 1);
                            continue;
                        }
                        let conn_handler = Arc::clone(&handler);
                        let conn_stop = Arc::clone(&stop);
                        let spawned = std::thread::Builder::new()
                            .name("tdc-serve-http-conn".to_string())
                            .spawn(move || {
                                handle_connection(
                                    conn_handler.as_ref(),
                                    stream,
                                    &conn_stop,
                                    MAX_REQUESTS_PER_CONNECTION,
                                )
                            });
                        match spawned {
                            Ok(handle) => {
                                let mut handlers = match handlers.lock() {
                                    Ok(guard) => guard,
                                    Err(poisoned) => poisoned.into_inner(),
                                };
                                handlers.push(handle);
                            }
                            // The stream moved into the failed closure and
                            // is gone; nothing further to answer here.
                            Err(_) => continue,
                        }
                    }
                })
                .map_err(|e| ServeError::Runtime {
                    reason: format!("cannot spawn the HTTP acceptor: {e}"),
                })?
        };
        Ok(HttpServer {
            registry: None,
            shutdown_signal: None,
            local_addr,
            stop,
            acceptor: Some(acceptor),
            handlers,
        })
    }

    /// The address the server actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The registry this server routes into.
    ///
    /// # Panics
    ///
    /// On a handler-bound server ([`bind_with_handler`](HttpServer::bind_with_handler)),
    /// which has no registry.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        self.registry
            .as_ref()
            .expect("handler-bound HttpServer has no registry")
    }

    /// The signal `POST /admin/shutdown` requests — a registry-bound
    /// server's daemon waits on it and then runs the graceful drain.
    /// `None` on a handler-bound server (its handler owns lifecycle).
    pub fn shutdown_signal(&self) -> Option<ShutdownSignal> {
        self.shutdown_signal.clone()
    }

    fn stop_threads(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Nudge the acceptor out of its blocking `accept`. A wildcard bind
        // (0.0.0.0 / ::) is not a connectable destination everywhere, so
        // aim the nudge at loopback on the bound port.
        let mut nudge = self.local_addr;
        if nudge.ip().is_unspecified() {
            match nudge {
                SocketAddr::V4(_) => nudge.set_ip(std::net::Ipv4Addr::LOCALHOST.into()),
                SocketAddr::V6(_) => nudge.set_ip(std::net::Ipv6Addr::LOCALHOST.into()),
            }
        }
        let _ = TcpStream::connect(nudge);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Handlers notice `stop` within one read slice: in-flight requests
        // finish and answer with `Connection: close`, idle keep-alive
        // connections are abandoned.
        let handles: Vec<JoinHandle<()>> = {
            let mut handlers = match self.handlers.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            handlers.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Stop accepting connections, finish in-flight requests and return the
    /// registry (so the caller can in turn drain the engines with
    /// [`ModelRegistry::shutdown`] once it holds the only reference).
    ///
    /// # Panics
    ///
    /// On a handler-bound server, which has no registry — use
    /// [`stop`](HttpServer::stop) there.
    pub fn shutdown(mut self) -> Arc<ModelRegistry> {
        self.stop_threads();
        Arc::clone(
            self.registry
                .as_ref()
                .expect("handler-bound HttpServer has no registry; use stop()"),
        )
    }

    /// Stop accepting connections and finish in-flight requests, without
    /// touching any registry — the teardown for handler-bound servers.
    pub fn stop(mut self) {
        self.stop_threads();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// One parsed HTTP response: status, headers (lower-cased names) and body.
pub type HttpResponseParts = (u16, Vec<(String, String)>, String);

/// Minimal blocking HTTP/1.1 client for tests, examples and `router --spawn`:
/// open a fresh connection, send one `Connection: close` request, read the
/// full response, return `(status, body)`. For connection reuse, use
/// [`HttpClient`].
pub fn http_request(
    addr: &SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let (status, _, body) = http_request_with_headers(addr, method, path, body)?;
    Ok((status, body))
}

/// [`http_request`], additionally returning the response headers
/// (lower-cased names) — e.g. to assert `Retry-After` on a `429`/`503`.
pub fn http_request_with_headers(
    addr: &SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpResponseParts> {
    let mut connection = Connection::connect(addr, None)?;
    connection.write_request(addr, method, path, body.unwrap_or(""), false)?;
    connection.read_response()
}

/// Whether an I/O error is a timeout — the typed
/// [`TimedOut`](std::io::ErrorKind::TimedOut) every [`HttpClient`] and
/// [`http_request`] operation raises, or the raw
/// [`WouldBlock`](std::io::ErrorKind::WouldBlock) a socket timeout surfaces
/// as on Unix.
pub fn is_timeout(error: &std::io::Error) -> bool {
    matches!(
        error.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

/// A persistent HTTP/1.1 test client: one TCP connection serving any number
/// of sequential `Connection: keep-alive` requests, reading each response by
/// its `Content-Length`. The counterpart of the server's keep-alive loop —
/// and the way to verify that N requests really shared one connection
/// ([`HttpClient::requests_sent`]).
///
/// With [`connect_with_timeout`](HttpClient::connect_with_timeout) (or
/// [`set_request_timeout`](HttpClient::set_request_timeout)) every socket
/// operation is bounded: connecting, writing and each read return a typed
/// [`TimedOut`](std::io::ErrorKind::TimedOut) error instead of hanging on a
/// wedged peer — which is what lets a fleet health-checker probe replicas
/// without ever blocking the prober. After a timeout the connection is no
/// longer at a response boundary; drop the client and reconnect.
pub struct HttpClient {
    connection: Connection,
    addr: SocketAddr,
    requests_sent: u64,
    timeout: Option<Duration>,
}

impl HttpClient {
    /// Open one connection to `addr`.
    pub fn connect(addr: &SocketAddr) -> std::io::Result<HttpClient> {
        Ok(HttpClient {
            connection: Connection::connect(addr, None)?,
            addr: *addr,
            requests_sent: 0,
            timeout: None,
        })
    }

    /// Open one connection to `addr`, bounding the connect itself and every
    /// later socket operation by `timeout`.
    pub fn connect_with_timeout(
        addr: &SocketAddr,
        timeout: Duration,
    ) -> std::io::Result<HttpClient> {
        Ok(HttpClient {
            connection: Connection::connect(addr, Some(timeout))?,
            addr: *addr,
            requests_sent: 0,
            timeout: Some(timeout),
        })
    }

    /// Bound (or, with `None`, unbound back to the 10 s read default)
    /// every subsequent socket operation on this connection.
    pub fn set_request_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        // A pooled connection is re-armed before every request, nearly
        // always with the value it already has.
        if timeout != self.timeout {
            self.connection.set_timeout(timeout)?;
            self.timeout = timeout;
        }
        Ok(())
    }

    /// Send one keep-alive request on the shared connection and read its
    /// response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let (status, _, body) = self.request_with_headers(method, path, body)?;
        Ok((status, body))
    }

    /// [`request`](HttpClient::request), additionally returning the response
    /// headers as lower-cased `(name, value)` pairs — e.g. to read
    /// `Retry-After` off a shed-load response.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponseParts> {
        self.send(method, path, body)?;
        self.receive()
    }

    /// Write one keep-alive request without waiting for its response — the
    /// first half of [`request`](HttpClient::request), for pipelining:
    /// several `send`s, then as many [`receive`](HttpClient::receive)s.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> std::io::Result<()> {
        self.connection
            .write_request(&self.addr, method, path, body.unwrap_or(""), true)?;
        self.requests_sent += 1;
        Ok(())
    }

    /// Read the next response on the connection, in request order.
    pub fn receive(&mut self) -> std::io::Result<HttpResponseParts> {
        self.connection.read_response()
    }

    /// How many requests were sent over this single connection.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelConfig;
    use crate::serving_descriptor;
    use crate::BatchingOptions;
    use std::time::Duration;

    fn test_registry() -> Arc<ModelRegistry> {
        let registry = ModelRegistry::new(4);
        registry
            .register(
                "mini",
                &serving_descriptor("http-mini", 8, 4, 4),
                ModelConfig {
                    batching: BatchingOptions {
                        max_batch_size: 4,
                        max_batch_delay: Duration::from_millis(1),
                        ..BatchingOptions::default()
                    },
                    ..ModelConfig::default()
                },
            )
            .unwrap();
        Arc::new(registry)
    }

    fn infer_body(dims: &[usize]) -> String {
        let input = vec![0.25f32; dims.iter().product()];
        serde_json::to_string(&InferBody {
            input,
            dims: Some(dims.to_vec()),
            deadline_ms: None,
        })
        .unwrap()
    }

    /// Every body the fast path accepts must parse to the exact
    /// `InferBody` the generic serde path produces — bit-for-bit on the
    /// f32 values, including negative zero and exponent forms.
    #[test]
    fn fast_parse_agrees_with_the_generic_path() {
        let pool = BufferPool::new();
        let bodies = [
            r#"{"input": [1, 2.5, -0.0, 1e-3, 6.02e23, -1.5E-2]}"#,
            r#"{"input":[0.25,0.5],"dims":[1,1,2],"deadline_ms":250}"#,
            "{ \"deadline_ms\" : 9 ,\n\t\"input\" : [ 1 , 2 ] , \"dims\" : [ 2 ] }",
            r#"{"input": [], "dims": null, "deadline_ms": null}"#,
            r#"{"input": [3]}"#,
            r#"{"input": [1e999, -1e999]}"#,
            // Integral numbers in float spelling are integers to both.
            r#"{"input": [1], "dims": [1.0, 2e0], "deadline_ms": 1e3}"#,
            "{\"\\u0069nput\": [1]}", // escaped key
        ];
        for body in bodies {
            let fast = parse_infer_fast(body, &pool, 4)
                .unwrap_or_else(|| panic!("fast path rejected {body}"));
            let value = serde_json::parse_value(body).unwrap();
            let generic = InferBody::from_value(&value).unwrap();
            assert_eq!(
                fast.input.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                generic
                    .input
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "input mismatch on {body}"
            );
            assert_eq!(fast.dims, generic.dims, "dims mismatch on {body}");
            assert_eq!(
                fast.deadline_ms, generic.deadline_ms,
                "deadline mismatch on {body}"
            );
            pool.give(fast.input);
            pool.give(generic.input);
        }
    }

    /// Anything outside the plain single-sample shape must bail to the
    /// generic path (`None`) — and a bail after the input array was scanned
    /// returns the pooled buffer, so checkout telemetry stays flat.
    #[test]
    fn fast_parse_bails_on_anything_unusual() {
        let pool = BufferPool::new();
        let bodies = [
            r#"{"inputs": [[1]]}"#,                         // batched form
            r#"{"input": [1], "extra": 1}"#,                // unknown key
            r#"{"input": [1], "input": [2]}"#,              // duplicate key
            r#"{"input": [1], "dims": null, "dims": [1]}"#, // duplicate after null
            r#"{"input": [1e2e3]}"#,                        // malformed number
            r#"{"input": [+5]}"#,                           // leading + (JSON-invalid)
            r#"{"input": [1], "dims": "hwc"}"#,             // non-array dims
            r#"{"input": [true]}"#,                         // non-number element
            r#"{"input": [1]}x"#,                           // trailing chars
            r#"{"input": [1],}"#,                           // trailing comma
            r#"["input"]"#,                                 // not an object
            // Numbers an integer field cannot hold: the generic path they
            // fall to rejects them (400) instead of truncating.
            r#"{"input": [1], "deadline_ms": -5}"#,
            r#"{"input": [1], "deadline_ms": 2.7}"#,
            r#"{"input": [1], "deadline_ms": 1e30}"#,
            r#"{"input": [1], "dims": [1.5]}"#,
            r#"{"input": [1], "dims": [1, -1]}"#,
        ];
        for body in bodies {
            assert!(
                parse_infer_fast(body, &pool, 4).is_none(),
                "fast path must bail on {body}"
            );
        }
        // Buffers taken for bailed bodies were recycled: a fresh take is a
        // pool hit, not a new allocation.
        let before = pool.stats();
        pool.give(pool.take(4));
        assert_eq!(pool.stats().allocated_buffers, before.allocated_buffers);
    }

    /// The router runs `top_level_value` on bodies it did not choose: on
    /// any string of JSON-ish characters it must not panic, and a range it
    /// answers must slice the body at a scalar the JSON parser accepts (or
    /// a container, which the scan does not validate).
    #[test]
    fn top_level_scan_survives_arbitrary_bodies() {
        use rand::{Rng, SeedableRng};
        let alphabet: Vec<char> = "{}[]\",:\\ \n-+.0123456789eEtruefalsné".chars().collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..20_000 {
            let len = rng.gen_range(0..24);
            let mut body: String = (0..len)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                .collect();
            if rng.gen_range(0..2) == 0 {
                body.insert_str(0, "{\"deadline_ms\":");
            }
            if let Some(token) = top_level_value(&body, "deadline_ms") {
                let value = body.get(token.clone()).expect("a range inside the body");
                assert!(
                    value.starts_with(['[', '{']) || serde_json::parse_value(value).is_ok(),
                    "{value:?} of {body:?}"
                );
            }
        }
        let body = r#"{"a": {"deadline_ms": 1}, "deadline_ms": [2, "]"], "b": "x"}"#;
        let token = top_level_value(body, "deadline_ms").unwrap();
        assert_eq!(&body[token], r#"[2, "]"]"#);
    }

    /// Mutations of a valid single-sample body: members in any order, keys
    /// plain or spelled with escapes, repeated members, number spellings an
    /// integer field may or may not hold, decoys that spell `deadline_ms`
    /// inside a nested value or a string, nesting on both sides of the depth
    /// limit and long strings.
    fn mutated_infer_bodies(rng: &mut rand::rngs::StdRng, count: usize) -> Vec<String> {
        use rand::Rng;
        let numbers = [
            "1", "-0.0", "2.5", "1e-3", "6.02E23", "-1.5e+2", "1e999", "3", "0",
        ];
        let deadlines = [
            "250", "1e3", "2.7", "-5", "1e30", "0", "null", "\"soon\"", "true", "[1]",
        ];
        let dims = [
            "[4]",
            "[1, 4]",
            "[2.0, 2e0]",
            "null",
            "[1.5]",
            "[-1]",
            "\"hwc\"",
        ];
        let input_keys = [r#""input""#, r#""\u0069nput""#, r#""inp\u0075t""#];
        let deadline_keys = [r#""deadline_ms""#, r#""deadline\u005fms""#];
        let dims_keys = [r#""dims""#, r#""d\u0069ms""#];
        let decoys = [
            r#""meta": {"deadline_ms": 1}"#.to_string(),
            r#""note": "\"deadline_ms\": 5, ]}""#.to_string(),
            r#""x": [{"deadline_ms": 2}, "]"]"#.to_string(),
            format!(r#""long": "{}\n""#, "é\\\"".repeat(20_000)),
        ];
        let pick = |rng: &mut rand::rngs::StdRng, options: &[&str]| {
            options[rng.gen_range(0..options.len())].to_string()
        };
        let member = |rng: &mut rand::rngs::StdRng, kind: usize| match kind {
            0 => {
                let len = rng.gen_range(0..6);
                let mut elements: Vec<String> = (0..len).map(|_| pick(rng, &numbers)).collect();
                if rng.gen_range(0..8) == 0 {
                    // Nesting inside the sample: total depth 127..=131.
                    let depth = serde_json::MAX_DEPTH + rng.gen_range(0..5) - 3;
                    elements.push(format!("{}1{}", "[".repeat(depth), "]".repeat(depth)));
                }
                format!("{}: [{}]", pick(rng, &input_keys), elements.join(", "))
            }
            1 => format!("{}: {}", pick(rng, &deadline_keys), pick(rng, &deadlines)),
            _ => format!("{}: {}", pick(rng, &dims_keys), pick(rng, &dims)),
        };
        (0..count)
            .map(|_| {
                let mut members = vec![member(rng, 0)];
                if rng.gen_range(0..3) > 0 {
                    members.push(member(rng, 1));
                }
                if rng.gen_range(0..2) == 0 {
                    members.push(member(rng, 2));
                }
                if rng.gen_range(0..4) == 0 {
                    members.push(decoys[rng.gen_range(0..decoys.len())].clone());
                }
                // A repeat, its value drawn afresh: only the first counts.
                if rng.gen_range(0..4) == 0 {
                    let kind = rng.gen_range(0..3);
                    members.push(member(rng, kind));
                }
                for i in (1..members.len()).rev() {
                    members.swap(i, rng.gen_range(0..=i));
                }
                let gap = [" ", "", "\n\t"][rng.gen_range(0..3)];
                format!("{{{gap}{}{gap}}}", members.join(&format!(",{gap}")))
            })
            .collect()
    }

    /// Generated bodies read alike on every path: the fast path either bails
    /// or yields the generic `InferBody` bit for bit, and the router's
    /// deadline read (`top_level_value`, then a `u64` decode) agrees with
    /// the replica's value-tree decode wherever the body parses — a body
    /// that does not parse answers 400 whatever the router splices into it.
    /// The mutated bodies all parse or exceed the depth limit, so there the
    /// two must agree outright.
    #[test]
    fn generated_bodies_read_alike_on_the_fast_path_and_the_router_scan() {
        use rand::{Rng, SeedableRng};
        let alphabet: Vec<char> = "{}[]\",:\\ \n-+.0123456789eEtruefalsné".chars().collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut bodies: Vec<(String, bool)> = (0..20_000)
            .map(|_| {
                let len = rng.gen_range(0..24);
                let mut body: String = (0..len)
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                    .collect();
                if rng.gen_range(0..2) == 0 {
                    body.insert_str(0, "{\"input\":[1],\"deadline_ms\":");
                }
                (body, false)
            })
            .collect();
        bodies.extend(
            mutated_infer_bodies(&mut rng, 4_000)
                .into_iter()
                .map(|body| (body, true)),
        );
        let pool = BufferPool::new();
        let (mut fast_hits, mut deadlines) = (0, 0);
        for (body, mutated) in &bodies {
            let tree = serde_json::parse_value(body);
            if let Some(fast) = parse_infer_fast(body, &pool, 4) {
                fast_hits += 1;
                let generic = tree
                    .as_ref()
                    .ok()
                    .and_then(|value| InferBody::from_value(value).ok())
                    .unwrap_or_else(|| panic!("fast path accepted {body:?}"));
                let bits = |input: &[f32]| input.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast.input), bits(&generic.input), "{body:?}");
                assert_eq!(fast.dims, generic.dims, "{body:?}");
                assert_eq!(fast.deadline_ms, generic.deadline_ms, "{body:?}");
                pool.give(fast.input);
            }
            let scanned = top_level_value(body, "deadline_ms")
                .and_then(|token| serde_json::from_str::<u64>(&body[token]).ok());
            let decoded = tree
                .as_ref()
                .ok()
                .and_then(|value| Option::<u64>::from_value(value.get("deadline_ms")?).ok()?);
            if *mutated || tree.is_ok() {
                assert_eq!(scanned, decoded, "{body:?}");
            }
            deadlines += usize::from(decoded.is_some());
        }
        // The generator reaches both outcomes often enough to mean something.
        assert!(
            fast_hits > 500 && deadlines > 500,
            "{fast_hits} {deadlines}"
        );
    }

    /// A 40 KB body nested 20,000 deep answers 400 — the reader's depth
    /// limit, where a recursive parse once overflowed the handler thread's
    /// stack and aborted the process — and the server keeps serving.
    #[test]
    fn deeply_nested_bodies_answer_400_and_the_server_survives() {
        let server = HttpServer::bind("127.0.0.1:0", test_registry()).unwrap();
        let addr = server.local_addr();
        let body = format!(
            r#"{{"input": {}{}}}"#,
            "[".repeat(20_000),
            "]".repeat(20_000)
        );
        for path in ["/v1/models/mini/infer", "/v1/models/mini/replan"] {
            let (status, reply) = http_request(&addr, "POST", path, Some(&body)).unwrap();
            assert_eq!(status, 400, "{path}: {reply}");
            assert!(reply.contains("recursion limit"), "{path}: {reply}");
        }
        let (status, reply) = http_request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "{reply}");
        server.shutdown();
    }

    #[test]
    fn serves_the_four_routes_over_a_real_socket() {
        let server = HttpServer::bind("127.0.0.1:0", test_registry()).unwrap();
        let addr = server.local_addr();

        let (status, body) = http_request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert!(
            body.contains("\"ok\"") && body.contains("\"models\":1"),
            "{body}"
        );

        let (status, body) = http_request(&addr, "GET", "/v1/models", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"mini\""), "{body}");

        let (status, reply) = http_request(
            &addr,
            "POST",
            "/v1/models/mini/infer",
            Some(&infer_body(&[8, 8, 4])),
        )
        .unwrap();
        assert_eq!(status, 200, "{reply}");
        let reply: InferReply = serde_json::from_str(&reply).unwrap();
        assert_eq!(reply.model, "mini");
        assert_eq!(reply.dims, vec![4]);
        assert_eq!(reply.output.len(), 4);

        // The same request without explicit dims defaults to the model's.
        let body_no_dims = serde_json::to_string(&InferBody {
            input: vec![0.25f32; 8 * 8 * 4],
            dims: None,
            deadline_ms: None,
        })
        .unwrap();
        let (status, reply2) =
            http_request(&addr, "POST", "/v1/models/mini/infer", Some(&body_no_dims)).unwrap();
        assert_eq!(status, 200);
        let reply2: InferReply = serde_json::from_str(&reply2).unwrap();
        assert_eq!(reply2.output, reply.output, "same input, same logits");

        let (status, metrics) = http_request(&addr, "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        assert!(
            metrics.contains("\"total_completed_requests\":2"),
            "{metrics}"
        );

        let registry = server.shutdown();
        assert_eq!(registry.metrics().total_completed_requests, 2);
    }

    #[test]
    fn keep_alive_connection_serves_many_requests_and_honors_close() {
        let server = HttpServer::bind("127.0.0.1:0", test_registry()).unwrap();
        let addr = server.local_addr();
        let mut client = HttpClient::connect(&addr).unwrap();

        // Several sequential requests on one connection.
        for _ in 0..3 {
            let (status, body) = client.request("GET", "/healthz", None).unwrap();
            assert_eq!(status, 200, "{body}");
        }
        let (status, reply) = client
            .request(
                "POST",
                "/v1/models/mini/infer",
                Some(&infer_body(&[8, 8, 4])),
            )
            .unwrap();
        assert_eq!(status, 200, "{reply}");
        assert_eq!(client.requests_sent(), 4);

        // Two pipelined requests written in ONE write before reading either
        // response: the server must answer both, in order, from its
        // connection buffer.
        let mut raw = Connection::connect(&addr, None).unwrap();
        let one = format!(
            "GET /healthz HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n"
        );
        raw.write_raw(format!("{one}{one}").as_bytes()).unwrap();
        let (status_a, _, _) = raw.read_response().unwrap();
        let (status_b, _, _) = raw.read_response().unwrap();
        assert_eq!((status_a, status_b), (200, 200));
        // The client's own pipelining: two sends, then two receives.
        client.send("GET", "/healthz", None).unwrap();
        client.send("GET", "/v1/models", None).unwrap();
        let (status_a, _, body_a) = client.receive().unwrap();
        let (status_b, _, body_b) = client.receive().unwrap();
        assert_eq!((status_a, status_b), (200, 200));
        assert!(body_a.contains("\"ok\"") && body_b.contains("\"mini\""));

        // An explicit `Connection: close` request ends the loop: the server
        // answers, then closes, so the next read sees EOF.
        raw.write_raw(
            format!(
                "GET /healthz HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
            )
            .as_bytes(),
        )
        .unwrap();
        let (status, headers, _) = raw.read_response().unwrap();
        assert_eq!(status, 200);
        assert!(headers.contains(&("connection".to_string(), "close".to_string())));
        assert!(raw.at_eof(), "server must close after Connection: close");

        server.shutdown();
    }

    /// `curl -d @body.json` sends `Expect: 100-continue` for any body over
    /// 1 KB and holds the body back until the interim reply (or its 1 s
    /// timer) — so the server must answer the head at once.
    #[test]
    fn expect_100_continue_is_answered_before_the_body_is_read() {
        let server = HttpServer::bind("127.0.0.1:0", test_registry()).unwrap();
        let addr = server.local_addr();
        let body = infer_body(&[8, 8, 4]);
        let mut raw = Connection::connect(&addr, None).unwrap();
        raw.write_raw(
            format!(
                "POST /v1/models/mini/infer HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nExpect: 100-continue\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        let (status, headers, interim) = raw.read_response().unwrap();
        assert_eq!((status, interim.as_str()), (100, ""));
        assert!(headers.is_empty(), "{headers:?}");
        raw.write_raw(body.as_bytes()).unwrap();
        let (status, _, reply) = raw.read_response().unwrap();
        assert_eq!(status, 200, "{reply}");
        // A request that arrives whole needs no interim reply.
        raw.write_raw(
            format!(
                "POST /v1/models/mini/infer HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nExpect: 100-continue\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        let (status, _, reply) = raw.read_response().unwrap();
        assert_eq!(status, 200, "{reply}");
        server.shutdown();
    }

    /// One raw request that the framer must refuse: the status it answers,
    /// on a connection it then closes.
    fn refused(request: &str) -> (u16, String) {
        let server = HttpServer::bind("127.0.0.1:0", test_registry()).unwrap();
        let mut raw = Connection::connect(&server.local_addr(), None).unwrap();
        raw.write_raw(request.as_bytes()).unwrap();
        let (status, headers, body) = raw.read_response().unwrap();
        assert!(headers.contains(&("connection".to_string(), "close".to_string())));
        assert!(raw.at_eof(), "a refused request must close the connection");
        server.shutdown();
        (status, body)
    }

    #[test]
    fn chunked_uploads_answer_501_instead_of_desynchronising() {
        // Unframed, the chunk bytes would be parsed as the next request.
        let (status, body) = refused(
            "POST /v1/models/mini/infer HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
             2\r\n{}\r\n0\r\n\r\n",
        );
        assert_eq!(status, 501, "{body}");
        assert!(body.contains("Content-Length"), "{body}");
    }

    #[test]
    fn conflicting_content_lengths_answer_400() {
        let (status, body) = refused(
            "POST /v1/models/mini/infer HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\n{}{}",
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("conflicting"), "{body}");
        // The same length stated twice is not a conflict.
        let server = HttpServer::bind("127.0.0.1:0", test_registry()).unwrap();
        let mut raw = Connection::connect(&server.local_addr(), None).unwrap();
        raw.write_raw(b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        assert_eq!(raw.read_response().unwrap().0, 200);
        server.shutdown();
    }

    #[test]
    fn maps_errors_onto_conventional_status_codes() {
        let server = HttpServer::bind("127.0.0.1:0", test_registry()).unwrap();
        let addr = server.local_addr();

        let (status, body) = http_request(
            &addr,
            "POST",
            "/v1/models/ghost/infer",
            Some(&infer_body(&[8, 8, 4])),
        )
        .unwrap();
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("ghost"));

        let (status, _) = http_request(&addr, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        // DELETE is a real (admin) method now, so an unroutable DELETE path
        // is a 404; a method the server does not speak at all stays 405.
        let (status, _) = http_request(&addr, "DELETE", "/healthz", None).unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_request(&addr, "PATCH", "/healthz", None).unwrap();
        assert_eq!(status, 405);

        let (status, body) =
            http_request(&addr, "POST", "/v1/models/mini/infer", Some("{not json")).unwrap();
        assert_eq!(status, 400, "{body}");

        // Input length inconsistent with dims: also a client error.
        let (status, body) = http_request(
            &addr,
            "POST",
            "/v1/models/mini/infer",
            Some("{\"input\": [1.0, 2.0, 3.0], \"dims\": [2, 2]}"),
        )
        .unwrap();
        assert_eq!(status, 400, "{body}");

        // Wrong shape: parses fine, rejected by the engine's input check.
        let (status, body) = http_request(
            &addr,
            "POST",
            "/v1/models/mini/infer",
            Some(&infer_body(&[2, 2, 2])),
        )
        .unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("expected"), "{body}");

        // Batched form with no inputs: a client error too.
        let (status, body) = http_request(
            &addr,
            "POST",
            "/v1/models/mini/infer",
            Some("{\"inputs\": []}"),
        )
        .unwrap();
        assert_eq!(status, 400, "{body}");

        // A well-shaped sample under a deadline no `u64` holds is malformed
        // (400) — not "deadline 0", which would answer 504.
        let negative_deadline = infer_body(&[8, 8, 4]).replace('}', ",\"deadline_ms\":-5}");
        let (status, body) = http_request(
            &addr,
            "POST",
            "/v1/models/mini/infer",
            Some(&negative_deadline),
        )
        .unwrap();
        assert_eq!(status, 400, "{body}");

        server.shutdown();
    }

    #[test]
    fn batched_bodies_ride_one_batch_and_map_expiry_onto_504() {
        let server = HttpServer::bind("127.0.0.1:0", test_registry()).unwrap();
        let addr = server.local_addr();

        let body = serde_json::to_string(&BatchInferBody {
            inputs: vec![vec![0.25f32; 8 * 8 * 4]; 3],
            dims: None,
            deadline_ms: None,
        })
        .unwrap();
        let (status, reply) =
            http_request(&addr, "POST", "/v1/models/mini/infer", Some(&body)).unwrap();
        assert_eq!(status, 200, "{reply}");
        let reply: BatchInferReply = serde_json::from_str(&reply).unwrap();
        assert_eq!(reply.count, 3);
        assert_eq!(reply.outputs.len(), 3);
        assert_eq!(reply.dims, vec![4]);
        assert_eq!(
            reply.batch_sizes,
            vec![3, 3, 3],
            "the group must ride one executor batch"
        );
        // Identical inputs → identical logits, thrice.
        assert_eq!(reply.outputs[0], reply.outputs[1]);
        assert_eq!(reply.outputs[0], reply.outputs[2]);

        // deadline_ms: 0 expires immediately → 504 Gateway Timeout.
        let expired = serde_json::to_string(&InferBody {
            input: vec![0.25f32; 8 * 8 * 4],
            dims: None,
            deadline_ms: Some(0),
        })
        .unwrap();
        let (status, body) =
            http_request(&addr, "POST", "/v1/models/mini/infer", Some(&expired)).unwrap();
        assert_eq!(status, 504, "{body}");
        assert!(body.contains("deadline exceeded"), "{body}");

        server.shutdown();
    }

    #[test]
    fn route_rejects_nested_and_degenerate_model_paths() {
        let registry = test_registry();
        let (status, _) = route(&registry, "POST", "/v1/models//infer", "{}");
        assert_eq!(status, 404);
        let (status, _) = route(&registry, "POST", "/v1/models/a/b/infer", "{}");
        assert_eq!(status, 404);
        // The prefix and suffix overlap here; must 404, not panic.
        let (status, _) = route(&registry, "POST", "/v1/models/infer", "{}");
        assert_eq!(status, 404);
        let (status, _) = route(&registry, "POST", "/v1/models", "{}");
        assert_eq!(status, 404);
        // The admin paths reject the same degenerate forms.
        let (status, _) = route(&registry, "PUT", "/v1/models/", "{}");
        assert_eq!(status, 404);
        let (status, _) = route(&registry, "PUT", "/v1/models/a/b", "{}");
        assert_eq!(status, 404);
        let (status, _) = route(&registry, "DELETE", "/v1/models/", "");
        assert_eq!(status, 404);
        let (status, _) = route(&registry, "POST", "/v1/models//replan", "{}");
        assert_eq!(status, 404);
        // The one-knob budget search is gone (`/tune` subsumes it): its path
        // on a registered model is the ordinary typed no-route 404, and the
        // metrics snapshot carries no counter for it. (The path is spelled in
        // two halves so CI's grep guard against the deleted route holds.)
        let retired = concat!("/v1/models/mini/auto", "tune");
        let gone = route_full(&registry, "POST", retired, "{\"target_p99_ms\": 5.0}");
        assert_eq!(gone.status, 404);
        assert!(
            gone.body.contains(&format!("no route for POST {retired}")),
            "{}",
            gone.body
        );
        let (status, metrics) = route(&registry, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(!metrics.contains("autotune"), "{metrics}");
        // No watch-loop config route, on either method.
        let watch_route = concat!("/v1/contr", "oller");
        for (method, body) in [("GET", ""), ("PUT", "{\"enabled\": true}")] {
            let gone = route_full(&registry, method, watch_route, body);
            assert_eq!(gone.status, 404, "{method}: {}", gone.body);
        }
    }

    /// Registration checks a descriptor before planning: one that no
    /// convolution can run, or whose layers do not chain, answers 400
    /// instead of panicking in the planner's arithmetic (a zero stride
    /// divides by zero, a zero filter underflows). A 33×33 filter is a valid
    /// convolution that cuDNN's 32-point FFT tiles cannot hold: it
    /// registers, planned against the other families, and serves.
    #[test]
    fn registration_rejects_unrunnable_descriptors_before_planning() {
        use tdc_conv::ConvShape;
        let registry = ModelRegistry::new(4);
        let same = ConvShape::same3x3(4, 8, 8, 8);
        let wide = ConvShape::new(4, 8, 8, 8, 33, 33, 16, 1);
        let cases = [
            (
                "stride-0",
                vec![ConvShape::new(4, 8, 8, 8, 3, 3, 1, 0)],
                (8, 4),
                400,
            ),
            (
                "r-0",
                vec![ConvShape::new(4, 8, 8, 8, 0, 3, 1, 1)],
                (8, 4),
                400,
            ),
            ("c-0", vec![ConvShape::same3x3(0, 8, 8, 8)], (8, 4), 400),
            ("chain-mismatch", vec![same, same], (8, 4), 400),
            ("fc-mismatch", vec![same], (6, 4), 400),
            ("33x33", vec![wide], (8, 4), 200),
            ("3x3", vec![same], (8, 4), 200),
        ];
        for (name, convs, fc, expected) in cases {
            let body = serde_json::to_string(&RegisterBody::for_descriptor(ModelDescriptor {
                name: name.into(),
                convs,
                fc: vec![fc],
            }))
            .unwrap();
            let (status, reply) = route(&registry, "PUT", &format!("/v1/models/{name}"), &body);
            assert_eq!(status, expected, "{name}: {reply}");
        }
        assert_eq!(registry.len(), 2);
        for name in ["33x33", "3x3"] {
            let path = format!("/v1/models/{name}/infer");
            let (status, reply) = route(&registry, "POST", &path, &infer_body(&[8, 8, 4]));
            assert_eq!(status, 200, "{name}: {reply}");
            let reply: InferReply = serde_json::from_str(&reply).unwrap();
            assert_eq!(reply.output.len(), 4);
        }
    }

    /// An input value beyond `f32` range would parse to infinity and answer
    /// NaN logits that JSON renders as `null`: it answers 400 naming the
    /// value's index instead, on both parsers and in the batched form.
    #[test]
    fn non_finite_input_values_answer_400() {
        let registry = test_registry();
        let mut values = vec!["0.25".to_string(); 8 * 8 * 4];
        values[3] = "-1e39".into();
        let input = format!("[{}]", values.join(","));
        let good = format!("[{}]", vec!["0.25"; 8 * 8 * 4].join(","));
        let bodies = [
            ("fast path", format!(r#"{{"input":{input}}}"#)),
            ("generic path", format!(r#"{{"input":{input},"extra":1}}"#)),
            ("batched", format!(r#"{{"inputs":[{good},{input}]}}"#)),
        ];
        for (what, body) in &bodies {
            let (status, reply) = route(&registry, "POST", "/v1/models/mini/infer", body);
            assert_eq!(status, 400, "{what}: {reply}");
            assert!(
                reply.contains("input value 3 is not finite"),
                "{what}: {reply}"
            );
        }
        let (status, reply) = route(
            &registry,
            "POST",
            "/v1/models/mini/infer",
            &format!(r#"{{"input":{good}}}"#),
        );
        assert_eq!(status, 200, "{reply}");
        serde_json::from_str::<InferReply>(&reply).unwrap();
    }

    #[test]
    fn admin_routes_register_replan_and_retire_on_a_live_server() {
        let server = HttpServer::bind("127.0.0.1:0", test_registry()).unwrap();
        let addr = server.local_addr();

        // PUT a brand-new model on the running server.
        let body = serde_json::to_string(&RegisterBody {
            budget: Some(0.5),
            max_batch_size: Some(4),
            max_batch_delay_ms: Some(1),
            ..RegisterBody::for_descriptor(crate::serving_descriptor("http-hot", 12, 8, 10))
        })
        .unwrap();
        let (status, reply) = http_request(&addr, "PUT", "/v1/models/hot", Some(&body)).unwrap();
        assert_eq!(status, 200, "{reply}");
        let reply: RegisterReply = serde_json::from_str(&reply).unwrap();
        assert_eq!(reply.registered.name, "hot");
        assert_eq!(reply.registered.generation, 1);
        let first_fingerprint = reply.registered.plan_fingerprint.clone();

        // It serves immediately.
        let infer = serde_json::to_string(&InferBody {
            input: vec![0.25f32; 12 * 12 * 8],
            dims: None,
            deadline_ms: None,
        })
        .unwrap();
        let (status, _) =
            http_request(&addr, "POST", "/v1/models/hot/infer", Some(&infer)).unwrap();
        assert_eq!(status, 200);

        // Re-plan at a much more demanding budget: the plan hot-swaps in
        // place (0.9 forces genuinely different rank decisions on a model
        // this small).
        let (status, reply) = http_request(
            &addr,
            "POST",
            "/v1/models/hot/replan",
            Some("{\"budget\": 0.9}"),
        )
        .unwrap();
        assert_eq!(status, 200, "{reply}");
        let reply: crate::control::ReplanReport = serde_json::from_str(&reply).unwrap();
        assert_eq!(reply.old_budget, 0.5);
        assert_eq!(reply.new_budget, 0.9);
        assert_eq!(reply.generation, 2);
        assert!(reply.plan_changed);
        assert_ne!(reply.new_plan_fingerprint, first_fingerprint);
        assert_eq!(
            reply.drained_completed_requests, 1,
            "the in-flight work on the old plan was served, not dropped"
        );
        let (status, _) =
            http_request(&addr, "POST", "/v1/models/hot/infer", Some(&infer)).unwrap();
        assert_eq!(status, 200, "the new plan serves");

        // Retire it; the reply carries the drained engine's counters and
        // later infers 404.
        let (status, reply) = http_request(&addr, "DELETE", "/v1/models/hot", None).unwrap();
        assert_eq!(status, 200, "{reply}");
        let reply: RetireReply = serde_json::from_str(&reply).unwrap();
        assert_eq!(reply.completed_requests, 1);
        let (status, _) =
            http_request(&addr, "POST", "/v1/models/hot/infer", Some(&infer)).unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_request(&addr, "DELETE", "/v1/models/hot", None).unwrap();
        assert_eq!(status, 404);

        // The lifecycle counters surface in /metrics.
        let (status, metrics) = http_request(&addr, "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        assert!(metrics.contains("\"replans_total\":1"), "{metrics}");
        assert!(metrics.contains("\"models_retired_total\":1"), "{metrics}");
        assert!(metrics.contains("\"plan_cache\""), "{metrics}");

        // A plain registry tunes: nothing has to be installed first.
        let (status, reply) = http_request(
            &addr,
            "POST",
            "/v1/models/mini/tune",
            Some("{\"target_p99_ms\": 250.0}"),
        )
        .unwrap();
        assert_eq!(status, 200, "{reply}");
        let report: crate::control::TuneReport = serde_json::from_str(&reply).unwrap();
        assert_eq!(report.model, "mini");
        assert!(!report.probes.is_empty(), "{reply}");

        // Malformed admin bodies are client errors.
        let (status, _) = http_request(&addr, "PUT", "/v1/models/bad", Some("{}")).unwrap();
        assert_eq!(status, 400);
        let (status, _) =
            http_request(&addr, "POST", "/v1/models/mini/replan", Some("{}")).unwrap();
        assert_eq!(status, 400);
        server.shutdown();
    }

    #[test]
    fn overloaded_responses_carry_a_retry_after_header() {
        // One worker stuck waiting out a long batch delay + a queue bound of
        // 2: the third instant submit is a deterministic 429.
        let registry = ModelRegistry::new(2);
        registry
            .register(
                "tiny",
                &serving_descriptor("http-429", 8, 4, 4),
                ModelConfig {
                    batching: BatchingOptions {
                        max_batch_size: 16,
                        max_batch_delay: Duration::from_millis(1200),
                        max_queue_depth: 2,
                        ..BatchingOptions::default()
                    },
                    runtime: crate::RuntimeOptions {
                        workers: 1,
                        ..crate::RuntimeOptions::default()
                    },
                    ..ModelConfig::default()
                },
            )
            .unwrap();
        let server = HttpServer::bind("127.0.0.1:0", Arc::new(registry)).unwrap();
        let addr = server.local_addr();

        let fill = |n: usize| {
            (0..n)
                .map(|_| {
                    server
                        .registry()
                        .submit("tiny", tdc_tensor::Tensor::zeros(vec![8, 8, 4]))
                        .unwrap()
                })
                .collect::<Vec<_>>()
        };
        let pending = fill(2);
        let (status, headers, body) = http_request_with_headers(
            &addr,
            "POST",
            "/v1/models/tiny/infer",
            Some(&infer_body(&[8, 8, 4])),
        )
        .unwrap();
        assert_eq!(status, 429, "{body}");
        let retry_after = headers
            .iter()
            .find(|(name, _)| name == "retry-after")
            .map(|(_, value)| value.parse::<u64>().unwrap());
        assert!(
            matches!(retry_after, Some(secs) if secs >= 1),
            "429 must carry a positive Retry-After, got {headers:?}"
        );
        for p in pending {
            p.wait().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn admin_bodies_round_trip_with_and_without_optional_fields() {
        let full = RegisterBody {
            budget: Some(0.4),
            rank_step: Some(2),
            theta: Some(0.1),
            device: Some("rtx2080ti".to_string()),
            max_batch_size: Some(4),
            max_batch_delay_ms: Some(3),
            max_queue_depth: Some(64),
            default_deadline_ms: Some(250),
            workers: Some(3),
            qos: Some("batch".to_string()),
            seed: Some(42),
            ..RegisterBody::for_descriptor(crate::serving_descriptor("rt", 8, 4, 4))
        };
        let text = serde_json::to_string(&full).unwrap();
        assert_eq!(serde_json::from_str::<RegisterBody>(&text).unwrap(), full);
        let config = full.model_config().unwrap();
        assert_eq!(config.planning.budget, 0.4);
        assert_eq!(config.planning.device.name, "NVIDIA GeForce RTX 2080 Ti");
        assert_eq!(config.runtime.qos, tdc_exec::QosClass::Batch);
        assert_eq!(config.runtime.fair_share_weight(), 3);
        assert_eq!(config.batching.max_queue_depth, 64);
        assert_eq!(
            config.batching.default_deadline,
            Some(Duration::from_millis(250))
        );

        let bare = RegisterBody::for_descriptor(crate::serving_descriptor("rt", 8, 4, 4));
        let text = serde_json::to_string(&bare).unwrap();
        assert!(!text.contains("budget") && !text.contains("workers"));
        assert_eq!(serde_json::from_str::<RegisterBody>(&text).unwrap(), bare);
        // A body from before the single backend still sends `backend`: it is
        // ignored like any other unknown key.
        let legacy = text.replacen('{', r#"{"backend":"sim-gpu","#, 1);
        assert_eq!(serde_json::from_str::<RegisterBody>(&legacy).unwrap(), bare);
        assert!(serde_json::from_str::<RegisterBody>("{}").is_err());
        assert!(RegisterBody {
            device: Some("tpu".into()),
            ..bare.clone()
        }
        .model_config()
        .is_err());
        assert!(RegisterBody {
            qos: Some("urgent".into()),
            ..bare
        }
        .model_config()
        .is_err());

        let replan = ReplanBody {
            budget: 0.25,
            rank_step: None,
            theta: Some(0.05),
        };
        let text = serde_json::to_string(&replan).unwrap();
        assert_eq!(serde_json::from_str::<ReplanBody>(&text).unwrap(), replan);
        assert!(serde_json::from_str::<ReplanBody>("{}").is_err());
    }

    #[test]
    fn infer_bodies_round_trip_with_and_without_optional_fields() {
        let with = InferBody {
            input: vec![1.5, -2.25],
            dims: Some(vec![2]),
            deadline_ms: Some(250),
        };
        let text = serde_json::to_string(&with).unwrap();
        assert!(text.contains("deadline_ms"));
        assert_eq!(serde_json::from_str::<InferBody>(&text).unwrap(), with);
        let without = InferBody {
            input: vec![0.5],
            dims: None,
            deadline_ms: None,
        };
        let text = serde_json::to_string(&without).unwrap();
        assert!(!text.contains("dims") && !text.contains("deadline_ms"));
        assert_eq!(serde_json::from_str::<InferBody>(&text).unwrap(), without);
        assert!(serde_json::from_str::<InferBody>("{}").is_err());

        let batch = BatchInferBody {
            inputs: vec![vec![1.0], vec![2.0]],
            dims: Some(vec![1]),
            deadline_ms: None,
        };
        let text = serde_json::to_string(&batch).unwrap();
        assert_eq!(
            serde_json::from_str::<BatchInferBody>(&text).unwrap(),
            batch
        );
        assert!(serde_json::from_str::<BatchInferBody>("{}").is_err());
    }
}
