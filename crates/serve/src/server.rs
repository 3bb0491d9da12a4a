//! The serving engine: typed builder, planning through the cache, backend
//! materialization, batch execution on the fleet executor, and graceful
//! shutdown.
//!
//! Engines are constructed with [`ServeEngine::builder`]: three typed option
//! structs ([`PlanningOptions`], [`BatchingOptions`], [`RuntimeOptions`]) are
//! validated at [`build`](ServeEngineBuilder::build), the plan is obtained
//! through the [`PlanCache`], and execution goes through a pluggable
//! [`ExecutionBackend`] — the real CPU executor or the wave-level GPU
//! simulation. Batches are dispatched by a `tdc-exec` worker pool:
//! attach the process-wide pool with
//! [`executor`](ServeEngineBuilder::executor) (what
//! [`ModelRegistry`](crate::ModelRegistry) does for every model it
//! builds), or let the
//! engine spawn a private pool of [`RuntimeOptions::workers`] threads —
//! the legacy per-engine topology.
//!
//! Execution is zero-allocation in steady state: the engine owns a
//! [`BufferPool`] of recycled f32 buffers, every dispatch checks out a
//! [`ScratchArena`] handle and runs the batch through
//! [`ExecutionBackend::forward_batch`], and answered requests recycle
//! their input tensors back into the pool.

use crate::arena::{BufferPool, PoolStats, ScratchArena};
use crate::backend::{
    BackendKind, BackendLatencyReport, BackendWrapper, CpuBackend, ExecutionBackend, SimGpuBackend,
};
use crate::batcher::{BatchQueue, InferenceRequest, InferenceResponse, PendingResponse, TryBatch};
use crate::metrics::{MetricsRecorder, ServeMetrics};
use crate::model::CompressedModel;
use crate::options::{BatchingOptions, PlanningOptions, RuntimeOptions};
use crate::plan_cache::{CacheOutcome, PlanCache, PlanKey};
use crate::{Result, ServeError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tdc::inference::Backend;
use tdc::{CompressionPlan, TdcPipeline};
use tdc_exec::{BatchSource, Executor, ExecutorOptions, QosClass, SourceHandle, SourceState};
use tdc_nn::models::ModelDescriptor;
use tdc_tensor::Tensor;

/// Final report returned by [`ServeEngine::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Identity of the backend that executed the batches.
    pub backend: String,
    /// Aggregated metrics at shutdown.
    pub metrics: ServeMetrics,
    /// How the engine's plan was obtained.
    pub plan_outcome: CacheOutcome,
    /// Fingerprint of the plan served.
    pub plan_fingerprint: u64,
    /// The backend's per-sample (batch 1) latency breakdown.
    pub backend_latency: BackendLatencyReport,
}

/// Typed, validating constructor for [`ServeEngine`].
///
/// Obtained from [`ServeEngine::builder`]. Each option struct can be replaced
/// wholesale; unspecified groups keep their defaults. Validation runs at
/// [`build`](ServeEngineBuilder::build), before any planning work starts.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use tdc_serve::{
///     serving_descriptor, BackendKind, BatchingOptions, PlanCache, PlanningOptions,
///     ServeEngine,
/// };
///
/// let descriptor = serving_descriptor("builder-docs", 8, 4, 4);
/// let cache = PlanCache::new(2);
/// let engine = ServeEngine::builder(&descriptor)
///     .planning(PlanningOptions {
///         budget: 0.4,
///         ..PlanningOptions::default()
///     })
///     .batching(BatchingOptions {
///         max_batch_size: 4,
///         max_batch_delay: Duration::from_millis(1),
///         ..BatchingOptions::default()
///     })
///     .backend(BackendKind::SimGpu)
///     .plan_cache(&cache)
///     .build()
///     .unwrap();
/// let response = engine.infer(tdc_tensor::Tensor::zeros(vec![8, 8, 4])).unwrap();
/// assert_eq!(response.output.dims(), &[4]);
/// assert!(response.simulated_gpu_batch_ms > 0.0);
/// engine.shutdown();
/// ```
pub struct ServeEngineBuilder<'a> {
    descriptor: &'a ModelDescriptor,
    planning: PlanningOptions,
    batching: BatchingOptions,
    runtime: RuntimeOptions,
    cache: Option<&'a PlanCache>,
    executor: Option<Arc<Executor>>,
    wrapper: Option<Arc<dyn BackendWrapper>>,
}

impl<'a> ServeEngineBuilder<'a> {
    fn new(descriptor: &'a ModelDescriptor) -> Self {
        ServeEngineBuilder {
            descriptor,
            planning: PlanningOptions::default(),
            batching: BatchingOptions::default(),
            runtime: RuntimeOptions::default(),
            cache: None,
            executor: None,
            wrapper: None,
        }
    }

    /// Replace the planning options (plan identity: device, strategy, budget,
    /// rank step, θ).
    pub fn planning(mut self, planning: PlanningOptions) -> Self {
        self.planning = planning;
        self
    }

    /// Replace the batching options (batch size and delay).
    pub fn batching(mut self, batching: BatchingOptions) -> Self {
        self.batching = batching;
        self
    }

    /// Replace the runtime options (workers, QoS class, seed, backend).
    pub fn runtime(mut self, runtime: RuntimeOptions) -> Self {
        self.runtime = runtime;
        self
    }

    /// Select the execution backend, keeping the other runtime options.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.runtime.backend = backend;
        self
    }

    /// Plan through `cache` instead of a private single-entry cache, so
    /// engine restarts skip rank selection.
    pub fn plan_cache(mut self, cache: &'a PlanCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Interpose `wrapper` on the constructed backend (fault injection,
    /// call recording): the engine executes on whatever
    /// [`BackendWrapper::wrap`] returns, and the warmup probe runs through
    /// the wrapped chain. [`ModelConfig`](crate::ModelConfig) can carry a
    /// wrapper so registry rebuilds (replan, tune) re-apply it.
    pub fn wrap_backend(mut self, wrapper: Arc<dyn BackendWrapper>) -> Self {
        self.wrapper = Some(wrapper);
        self
    }

    /// Run batches on `executor` — the process-wide worker pool —
    /// instead of spawning a private per-engine pool. The engine registers
    /// as one executor source under its fair-share weight
    /// ([`RuntimeOptions::workers`]) and QoS class ([`RuntimeOptions::qos`]);
    /// the registry attaches its fleet executor here for every model.
    pub fn executor(mut self, executor: &Arc<Executor>) -> Self {
        self.executor = Some(Arc::clone(executor));
        self
    }

    /// Validate the descriptor and every option group, obtain the plan
    /// (through the cache when one was attached), materialize the backend,
    /// probe it once, and attach the engine to its executor (shared, or a
    /// freshly spawned private pool).
    pub fn build(self) -> Result<ServeEngine> {
        CompressedModel::validate(self.descriptor)?;
        self.planning.validate()?;
        self.batching.validate()?;
        self.runtime.validate()?;

        let cfg = self.planning.selection_config();
        let key = PlanKey::new(
            &self.descriptor.name,
            &self.planning.device.name,
            self.runtime.backend.label(),
            &cfg,
        );
        let compute = || {
            let pipeline = TdcPipeline::new(self.planning.device.clone(), self.planning.strategy);
            pipeline
                .plan_with_config(self.descriptor, &cfg)
                .map_err(Into::into)
        };
        let local_cache;
        let cache = match self.cache {
            Some(cache) => cache,
            None => {
                local_cache = PlanCache::new(1);
                &local_cache
            }
        };
        let (plan, plan_outcome) = cache.get_or_compute(&key, compute)?;

        let model = Arc::new(CompressedModel::materialize(
            self.descriptor,
            &plan,
            self.runtime.seed,
        )?);
        let backend: Arc<dyn ExecutionBackend> = match self.runtime.backend {
            BackendKind::Cpu => Arc::new(CpuBackend::new(
                Arc::clone(&model),
                Arc::clone(&plan),
                self.planning.device.clone(),
                self.descriptor.fc.clone(),
            )),
            BackendKind::SimGpu => Arc::new(SimGpuBackend::new(
                Arc::clone(&model),
                Arc::clone(&plan),
                self.planning.device.clone(),
                self.descriptor.fc.clone(),
            )),
        };
        // Fault injectors and other harness wrappers interpose here, before
        // the warmup probe, so the probe exercises the wrapped chain.
        let backend = match &self.wrapper {
            Some(wrapper) => wrapper.wrap(backend),
            None => backend,
        };
        // Probe the whole execution chain once, so a backend that cannot run
        // the model fails engine construction with a real error instead of
        // silently dropping every request in the workers.
        backend.warmup()?;
        let latency_report = backend.latency_report(1)?;

        // Predicted GPU latency of one sample under the paper's TDC-model
        // backend; workers scale it by batch size when reporting.
        let predicted_gpu_ms_per_sample = plan
            .report(Backend::TuckerTdcModel)
            .map(|r| r.total_ms)
            .unwrap_or(0.0);

        let core = Arc::new(EngineCore {
            queue: BatchQueue::new(
                self.batching.max_batch_size,
                self.batching.max_batch_delay,
                self.batching.max_queue_depth,
            ),
            metrics: MetricsRecorder::new(backend.name()),
            backend: Arc::clone(&backend),
            predicted_gpu_ms_per_sample,
            pool: Arc::new(BufferPool::new()),
            arenas: Mutex::new(Vec::new()),
            running: Mutex::new(0),
            idle: Condvar::new(),
        });

        // Attach to the shared executor when one was provided; otherwise
        // spawn a private pool sized by `workers` — the legacy per-engine
        // topology, preserved for standalone engines.
        let (executor, private_executor) = match self.executor {
            Some(executor) => (executor, false),
            None => {
                let pool = Executor::new(ExecutorOptions {
                    workers: self.runtime.workers,
                    ..ExecutorOptions::default()
                })
                .map_err(|e| ServeError::Runtime {
                    reason: format!("cannot spawn private engine executor: {e}"),
                })?;
                (Arc::new(pool), true)
            }
        };
        let handle = executor.register(
            &self.descriptor.name,
            self.runtime.fair_share_weight(),
            self.runtime.qos,
            Arc::clone(&core) as Arc<dyn BatchSource>,
        );

        // Estimated full-batch service time, for Retry-After hints: the
        // backend's own latency account at max batch size (memoized on
        // simulating backends, closed-form on the CPU one).
        let estimated_batch_ms = backend
            .latency_report(self.batching.max_batch_size)
            .map(|r| r.total_ms)
            .unwrap_or(latency_report.total_ms * self.batching.max_batch_size as f64);
        // Deadline-aware early release: the batcher releases a forming batch
        // at `deadline − estimated_exec_time`, so the deadline bounds the
        // *answer*, not merely the dequeue. Batch-delay tuning and deadline
        // enforcement thereby share one latency model.
        core.queue
            .set_exec_estimate(Duration::from_secs_f64((estimated_batch_ms / 1e3).max(0.0)));

        Ok(ServeEngine {
            core,
            handle,
            executor,
            private_executor,
            plan,
            plan_outcome,
            model,
            latency_report,
            next_id: AtomicU64::new(0),
            default_deadline: self.batching.default_deadline,
            max_batch_size: self.batching.max_batch_size,
            estimated_batch_ms,
        })
    }
}

/// The engine's executable heart: the batch queue, metrics and backend,
/// shared between the engine handle and the executor's dispatch tokens.
///
/// This is what an engine registers on the executor — [`BatchSource::run_one`]
/// dequeues one batch non-blockingly and runs the full dispatch path
/// (expiry, forward, record, respond). A forming under-full batch parks the
/// source on the executor's timer wheel via [`SourceState::NotReady`] instead
/// of blocking a shared worker.
struct EngineCore {
    queue: BatchQueue,
    metrics: MetricsRecorder,
    backend: Arc<dyn ExecutionBackend>,
    predicted_gpu_ms_per_sample: f64,
    /// Shared f32 buffer pool behind the zero-allocation hot path: dispatch
    /// arenas draw from it, and answered requests recycle their input (and,
    /// at the HTTP layer, output) tensors back into it.
    pool: Arc<BufferPool>,
    /// Checked-in [`ScratchArena`] handles; each dispatch pops one (or
    /// creates one on a cold start) and pushes it back when done, so the pool
    /// of handles tracks the executor's actual dispatch concurrency.
    arenas: Mutex<Vec<ScratchArena>>,
    /// Dispatches currently inside `run_one` past the dequeue point; together
    /// with an empty queue this defines "drained" for retire semantics.
    running: Mutex<usize>,
    idle: Condvar,
}

impl EngineCore {
    /// Block until the queue is empty **and** no executor worker is inside a
    /// dispatch for this engine; `deadline` bounds the wait (`None` waits
    /// without bound, mirroring the old worker-join semantics).
    fn wait_idle(&self, deadline: Option<Instant>) -> bool {
        loop {
            let drained = match deadline {
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        return self.is_idle();
                    }
                    self.queue.wait_drained(at - now)
                }
                None => self.queue.wait_drained(Duration::from_secs(3600)),
            };
            if drained {
                break;
            }
            if deadline.is_some() {
                return false;
            }
        }
        let mut running = self.running.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            // A dispatch in flight may respond, and new requests may have
            // been admitted and dequeued meanwhile; idle means both gates
            // observed empty in one pass.
            if *running == 0 && self.queue.depth() == 0 {
                return true;
            }
            match deadline {
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        return false;
                    }
                    let (guard, _) = self
                        .idle
                        .wait_timeout(running, at - now)
                        .unwrap_or_else(|e| e.into_inner());
                    running = guard;
                }
                None => {
                    running = self.idle.wait(running).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    fn is_idle(&self) -> bool {
        let running = self.running.lock().unwrap_or_else(|e| e.into_inner());
        *running == 0 && self.queue.depth() == 0
    }

    /// Run one dequeued batch end to end: expire, forward, record, respond.
    fn execute(&self, dispatch: crate::batcher::DequeuedBatch) {
        // Deadline checkpoint 1 (dequeue): requests that expired while
        // queued were split out by the batcher and never reach the backend.
        if !dispatch.expired.is_empty() {
            let now = Instant::now();
            for request in dispatch.expired {
                let input = expire_request(request, &self.metrics, now);
                self.pool.give(input.into_data());
            }
        }
        let batch = dispatch.live;
        if batch.is_empty() {
            return;
        }
        let batch_size = batch.len();
        let predicted_gpu_batch_ms = self.predicted_gpu_ms_per_sample * batch_size as f64;
        // Check out a scratch arena for the dispatch (creating one on a cold
        // start); every staging buffer the backend needs comes from it.
        let mut arena = {
            let mut arenas = self.arenas.lock().unwrap_or_else(|e| e.into_inner());
            arenas.pop()
        }
        .unwrap_or_else(|| ScratchArena::new(Arc::clone(&self.pool)));
        let exec_started = Instant::now();
        let inputs: Vec<&Tensor> = batch.iter().map(|r| &r.input).collect();
        // The backend is arbitrary trait-object code (possibly a harness
        // wrapper): a panic inside `forward_batch` must not kill a shared
        // executor worker, so it is caught here and folded into the same
        // typed-failure path an `Err` takes.
        let execution = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.backend.forward_batch(&inputs, &mut arena)
        }));
        let exec_ms = exec_started.elapsed().as_secs_f64() * 1e3;
        {
            let mut arenas = self.arenas.lock().unwrap_or_else(|e| e.into_inner());
            arenas.push(arena);
        }
        let execution = match execution {
            Ok(Ok(execution)) => execution,
            // Engine start probes the whole chain and `submit` rejects wrong
            // shapes, so a failure here is a genuine anomaly — but still an
            // *answered* one: the batch is recorded, every request in it gets
            // a typed `ExecutionFailed`, and the failure is counted. Clients
            // never observe a bare disconnect for an execution failure, and
            // no panic crosses the worker boundary.
            Ok(Err(error)) => {
                self.fail_batch(batch, batch_size, predicted_gpu_batch_ms, error.to_string());
                return;
            }
            Err(payload) => {
                let reason = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "backend panicked".to_string());
                self.fail_batch(
                    batch,
                    batch_size,
                    predicted_gpu_batch_ms,
                    format!("backend panic: {reason}"),
                );
                return;
            }
        };
        self.metrics.record_batch(
            batch_size,
            predicted_gpu_batch_ms,
            execution.simulated_gpu_ms,
        );
        let completed_at = Instant::now();
        for (request, output) in batch.into_iter().zip(execution.outputs) {
            // Deadline checkpoint 3 (delivery): execution finished past the
            // request's deadline — the client contract is "answered within
            // the deadline or a typed error", so the late output is dropped.
            if request.expired_at(completed_at) {
                let input = expire_request(request, &self.metrics, completed_at);
                self.pool.give(input.into_data());
                self.pool.give(output.into_data());
                continue;
            }
            let total_ms = completed_at
                .duration_since(request.enqueued_at)
                .as_secs_f64()
                * 1e3;
            let queue_ms = (total_ms - exec_ms).max(0.0);
            self.metrics.record_request(total_ms, queue_ms, exec_ms);
            let InferenceRequest {
                id,
                input,
                responder,
                ..
            } = request;
            // The answered request's input buffer feeds the next request's
            // parse — the other half of the zero-allocation loop.
            self.pool.give(input.into_data());
            let response = InferenceResponse {
                id,
                output,
                queue_ms,
                exec_ms,
                batch_size,
                predicted_gpu_batch_ms,
                simulated_gpu_batch_ms: execution.simulated_gpu_ms,
            };
            // The client may have given up; that is not the worker's problem.
            let _ = responder.send(Ok(response));
        }
    }

    /// Answer every request of a failed batch with a typed
    /// [`ServeError::ExecutionFailed`] and account the batch. Failures add
    /// no latency samples — like expiries, they must not skew the
    /// percentiles of the traffic that was actually served.
    fn fail_batch(
        &self,
        batch: Vec<InferenceRequest>,
        batch_size: usize,
        predicted_gpu_batch_ms: f64,
        reason: String,
    ) {
        self.metrics
            .record_batch(batch_size, predicted_gpu_batch_ms, 0.0);
        for request in batch {
            self.metrics.record_failed();
            let InferenceRequest {
                input, responder, ..
            } = request;
            self.pool.give(input.into_data());
            let _ = responder.send(Err(ServeError::ExecutionFailed {
                reason: reason.clone(),
            }));
        }
    }
}

impl BatchSource for EngineCore {
    fn run_one(&self) -> SourceState {
        // Count the dispatch as running *before* the batch leaves the queue,
        // so `wait_idle` never observes "queue empty, nothing running" while
        // a batch is actually between dequeue and response.
        {
            let mut running = self.running.lock().unwrap_or_else(|e| e.into_inner());
            *running += 1;
        }
        let state = match self.queue.try_next_batch() {
            TryBatch::Empty => SourceState::Idle,
            TryBatch::Closed => SourceState::Closed,
            TryBatch::NotReady(retry_at) => SourceState::NotReady { retry_at },
            TryBatch::Batch(dispatch) => {
                self.execute(dispatch);
                SourceState::Ran
            }
        };
        let mut running = self.running.lock().unwrap_or_else(|e| e.into_inner());
        *running -= 1;
        if *running == 0 {
            self.idle.notify_all();
        }
        drop(running);
        state
    }

    fn pending(&self) -> usize {
        self.queue.depth()
    }
}

/// A running, batched inference service for one compressed model.
pub struct ServeEngine {
    core: Arc<EngineCore>,
    handle: SourceHandle,
    executor: Arc<Executor>,
    private_executor: bool,
    plan: Arc<CompressionPlan>,
    plan_outcome: CacheOutcome,
    model: Arc<CompressedModel>,
    latency_report: BackendLatencyReport,
    next_id: AtomicU64,
    default_deadline: Option<Duration>,
    max_batch_size: usize,
    estimated_batch_ms: f64,
}

impl ServeEngine {
    /// Start building an engine for `descriptor` with default options.
    pub fn builder(descriptor: &ModelDescriptor) -> ServeEngineBuilder<'_> {
        ServeEngineBuilder::new(descriptor)
    }

    /// The compression plan this engine serves.
    pub fn plan(&self) -> &CompressionPlan {
        &self.plan
    }

    /// How the plan was obtained from the cache.
    pub fn plan_outcome(&self) -> CacheOutcome {
        self.plan_outcome
    }

    /// The materialized model shared by every backend.
    pub fn model(&self) -> &CompressedModel {
        &self.model
    }

    /// Identity of the execution backend running the batches.
    pub fn backend_name(&self) -> &str {
        self.core.backend.name()
    }

    /// The QoS class the engine is registered under on its executor.
    pub fn qos(&self) -> QosClass {
        self.handle.qos()
    }

    /// The engine's fair-share weight on its executor.
    pub fn fair_share_weight(&self) -> usize {
        self.handle.weight()
    }

    /// The engine's scheduling state on its executor: queue depth, running
    /// dispatches, batches executed.
    pub fn executor_source(&self) -> tdc_exec::SourceMetrics {
        self.handle.metrics()
    }

    /// The backend's per-sample (batch 1) latency breakdown, computed at
    /// engine start.
    pub fn backend_latency_report(&self) -> &BackendLatencyReport {
        &self.latency_report
    }

    /// The backend's latency breakdown at an arbitrary batch size.
    pub fn backend_latency_report_at(&self, batch_size: usize) -> Result<BackendLatencyReport> {
        self.core.backend.latency_report(batch_size)
    }

    /// Predicted GPU latency of a single sample on the planned device, ms.
    pub fn predicted_gpu_ms_per_sample(&self) -> f64 {
        self.core.predicted_gpu_ms_per_sample
    }

    /// The default per-request deadline configured at build
    /// ([`BatchingOptions::default_deadline`]); `None` disables enforcement.
    pub fn default_deadline(&self) -> Option<Duration> {
        self.default_deadline
    }

    fn check_input(&self, input: &Tensor) -> Result<()> {
        if input.dims() != self.core.backend.input_dims() {
            return Err(ServeError::BadInput {
                expected: self.core.backend.input_dims().to_vec(),
                actual: input.dims().to_vec(),
            });
        }
        // A JSON number beyond f32 range parses to ±inf; it would yield NaN
        // outputs, which a JSON reply cannot carry. The fold vectorises (a
        // short-circuiting search costs ~10× more per input); the index is
        // looked up only for a rejected input.
        let data = input.data();
        if !data.iter().fold(true, |finite, v| finite & v.is_finite()) {
            let i = data.iter().position(|v| !v.is_finite()).unwrap_or_default();
            return Err(ServeError::BadConfig {
                reason: format!("input value {i} is not finite: {}", data[i]),
            });
        }
        Ok(())
    }

    fn request_for(
        &self,
        input: Tensor,
        enqueued_at: Instant,
        deadline: Option<Duration>,
    ) -> (InferenceRequest, PendingResponse) {
        let (tx, rx) = mpsc::channel();
        let request = InferenceRequest {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            input,
            enqueued_at,
            deadline: deadline.map(|d| enqueued_at + d),
            responder: tx,
        };
        (request, PendingResponse::new(rx))
    }

    /// Submit one HWC input under the engine's default deadline; returns a
    /// handle to await the response.
    pub fn submit(&self, input: Tensor) -> Result<PendingResponse> {
        self.submit_with_deadline(input, self.default_deadline)
    }

    /// Submit one HWC input with an explicit per-request deadline,
    /// overriding [`BatchingOptions::default_deadline`] (`None` disables
    /// enforcement for this request). If the deadline passes before the
    /// request is served, [`PendingResponse::wait`] fails with
    /// [`ServeError::DeadlineExceeded`]; requests that expire while queued
    /// never reach the executor.
    pub fn submit_with_deadline(
        &self,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<PendingResponse> {
        self.check_input(&input)?;
        let (request, pending) = self.request_for(input, Instant::now(), deadline);
        self.core.queue.push(request)?;
        self.core.metrics.record_submitted(1);
        self.handle.notify();
        Ok(pending)
    }

    /// Submit a group of inputs atomically under one deadline: all inputs
    /// are validated first, then enqueued contiguously in a single queue
    /// operation — so a group no larger than `max_batch_size` rides one
    /// executor batch when the queue is otherwise idle. Admission is
    /// all-or-nothing: a group that would exceed the admission bound is
    /// rejected whole with [`ServeError::Overloaded`]. This is what the
    /// HTTP front end's batched `{"inputs": [[...], ...]}` POST body maps
    /// onto.
    pub fn submit_many(
        &self,
        inputs: Vec<Tensor>,
        deadline: Option<Duration>,
    ) -> Result<Vec<PendingResponse>> {
        for input in &inputs {
            self.check_input(input)?;
        }
        let enqueued_at = Instant::now();
        let (requests, handles): (Vec<_>, Vec<_>) = inputs
            .into_iter()
            .map(|input| self.request_for(input, enqueued_at, deadline))
            .unzip();
        let admitted = requests.len() as u64;
        self.core.queue.push_many(requests)?;
        self.core.metrics.record_submitted(admitted);
        self.handle.notify();
        Ok(handles)
    }

    /// Submit and block for the response.
    pub fn infer(&self, input: Tensor) -> Result<InferenceResponse> {
        self.submit(input)?.wait()
    }

    /// Submit with an explicit deadline and block for the response.
    pub fn infer_with_deadline(
        &self,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<InferenceResponse> {
        self.submit_with_deadline(input, deadline)?.wait()
    }

    /// Discard all metrics recorded so far, starting a fresh measurement
    /// window. Benchmarks call this after unmeasured warmup traffic so
    /// steady-state counters and latency percentiles are not skewed by the
    /// ramp (cold buffer pool, first-touch page faults). Buffer-pool
    /// telemetry is deliberately *not* reset — its monotonic counters let a
    /// caller diff snapshots around the measured window instead.
    pub fn reset_metrics(&self) {
        self.core.metrics.reset();
    }

    /// Metrics snapshot of the work completed so far.
    pub fn metrics(&self) -> ServeMetrics {
        let mut snapshot = self.core.metrics.snapshot();
        snapshot.early_releases = self.core.queue.early_releases();
        snapshot
    }

    /// How many batches the engine released early at
    /// `deadline − estimated_exec_time` (deadline-aware early release; see
    /// [`BatchQueue::set_exec_estimate`](crate::BatchQueue)).
    pub fn early_releases(&self) -> u64 {
        self.core.queue.early_releases()
    }

    /// Replace the execution-time estimate the deadline-aware early release
    /// subtracts from the earliest deadline, which the build seeds from the
    /// backend's latency report. Zero disables early release.
    #[cfg(test)]
    pub(crate) fn set_exec_estimate(&self, estimate: Duration) {
        self.core.queue.set_exec_estimate(estimate);
    }

    /// The execution-time estimate currently steering early release.
    pub fn exec_estimate(&self) -> Duration {
        self.core.queue.exec_estimate()
    }

    /// Cumulative telemetry of the engine's f32 buffer pool: fresh
    /// allocations, high-water checkout, and hit rate. A warm steady-state
    /// engine shows `allocated_buffers` and `high_water_f32` frozen while
    /// `hits` climbs — the zero-allocation property the benchmark's
    /// `arena.hit_rate` / `arena.fresh_allocs_per_op` metrics record.
    pub fn pool_stats(&self) -> PoolStats {
        self.core.pool.stats()
    }

    /// The engine's shared f32 buffer pool. The HTTP front end parses
    /// request bodies into pooled buffers and recycles response outputs
    /// through this handle.
    pub fn buffer_pool(&self) -> Arc<BufferPool> {
        Arc::clone(&self.core.pool)
    }

    /// Current queue depth (requests not yet dispatched to a worker).
    pub fn queue_depth(&self) -> usize {
        self.core.queue.depth()
    }

    /// The engine's configured maximum batch size.
    pub fn max_batch_size(&self) -> usize {
        self.max_batch_size
    }

    /// The backend's estimated service time for one full batch, ms (computed
    /// once at build). What the Retry-After hint is derived from.
    pub fn estimated_batch_ms(&self) -> f64 {
        self.estimated_batch_ms
    }

    /// How long a rejected or shed request should wait before retrying:
    /// the batches still ahead in the queue (`⌈depth / max_batch⌉`, at least
    /// one) times the estimated full-batch service time. Clamped to
    /// `[1 s, 1 h]` so the header is always actionable. The estimate is the
    /// backend's *modelled* latency — a heuristic hint, not a promise.
    pub fn retry_after_hint(&self) -> Duration {
        let batches_ahead = self.core.queue.depth().div_ceil(self.max_batch_size).max(1);
        let wait_ms = batches_ahead as f64 * self.estimated_batch_ms.max(0.0);
        let secs = (wait_ms / 1e3).ceil().clamp(1.0, 3600.0);
        Duration::from_secs(secs as u64)
    }

    /// Stop admitting new requests while leaving the queue's contents to
    /// drain: every already-admitted request is still dispatched and
    /// answered, while later [`submit`](ServeEngine::submit)s fail with
    /// [`ServeError::Closed`] (HTTP `503`). The first step of a graceful
    /// retire — the registry calls this after unrouting the model, then
    /// waits for the drain before freeing the engine.
    pub fn close_admission(&self) {
        self.core.queue.close();
        // Kick the executor: a dispatch token parked on the formation timer
        // must re-poll now so the closed queue's remainder drains promptly.
        self.handle.notify();
    }

    /// Block until every admitted request has been answered, or `timeout`
    /// passes; returns whether the engine fully drained. Unlike the
    /// per-engine-pool era this covers in-flight executor batches too:
    /// "drained" means the queue is empty *and* no shared-pool worker is
    /// inside a dispatch for this engine, so a retire that observes `true`
    /// can free the engine without yanking work out from under the pool.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        self.core.wait_idle(Some(Instant::now() + timeout))
    }

    /// Stop accepting requests, drain every in-flight batch, detach from the
    /// executor and return the final report.
    pub fn shutdown(self) -> ServeReport {
        self.core.queue.close();
        self.handle.notify();
        self.core.wait_idle(None);
        let report = ServeReport {
            backend: self.core.backend.name().to_string(),
            metrics: self.metrics(),
            plan_outcome: self.plan_outcome,
            plan_fingerprint: self.plan.fingerprint(),
            backend_latency: self.latency_report.clone(),
        };
        if self.private_executor {
            self.executor.shutdown();
        }
        report
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        // Belt and braces for engines dropped without `shutdown()`: close the
        // queue and drain in-flight work so responses are not lost, matching
        // the old join-the-workers drop semantics. Dropping `handle` then
        // deregisters the source from the executor; a private pool is shut
        // down explicitly so its threads are joined before the backend goes
        // away.
        self.core.queue.close();
        self.handle.notify();
        self.core.wait_idle(None);
        if self.private_executor {
            self.executor.shutdown();
        }
    }
}

/// Answer one expired request with the typed deadline error and count it.
/// No latency sample is recorded: expired requests must not skew the
/// percentiles of the traffic that was actually served. Returns the
/// request's input tensor so the caller can recycle its buffer.
fn expire_request(request: InferenceRequest, metrics: &MetricsRecorder, now: Instant) -> Tensor {
    metrics.record_deadline_exceeded();
    let waited_ms = now.duration_since(request.enqueued_at).as_secs_f64() * 1e3;
    let InferenceRequest {
        input, responder, ..
    } = request;
    // The client may have given up; that is not the worker's problem.
    let _ = responder.send(Err(ServeError::DeadlineExceeded { waited_ms }));
    input
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving_descriptor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tdc_tensor::init;

    fn test_batching() -> BatchingOptions {
        BatchingOptions {
            max_batch_size: 4,
            max_batch_delay: Duration::from_millis(2),
            ..BatchingOptions::default()
        }
    }

    fn test_engine(descriptor: &ModelDescriptor, cache: &PlanCache) -> Result<ServeEngine> {
        ServeEngine::builder(descriptor)
            .batching(test_batching())
            .plan_cache(cache)
            .build()
    }

    #[test]
    fn serves_concurrent_requests_and_batches_them() {
        let descriptor = serving_descriptor("engine-test", 10, 4, 6);
        let cache = PlanCache::new(2);
        let engine = test_engine(&descriptor, &cache).unwrap();
        assert_eq!(engine.plan_outcome(), CacheOutcome::Miss);
        assert_eq!(engine.backend_name(), "cpu");

        let mut rng = StdRng::seed_from_u64(1);
        let pending: Vec<_> = (0..16)
            .map(|_| {
                engine
                    .submit(init::uniform(vec![10, 10, 4], -1.0, 1.0, &mut rng))
                    .unwrap()
            })
            .collect();
        for p in pending {
            let response = p.wait().unwrap();
            assert_eq!(response.output.dims(), &[6]);
            assert!(response.batch_size >= 1);
            assert!(response.predicted_gpu_batch_ms > 0.0);
            assert_eq!(
                response.simulated_gpu_batch_ms, 0.0,
                "cpu does not simulate"
            );
            assert!(response.total_ms() >= response.exec_ms);
        }
        let report = engine.shutdown();
        assert_eq!(report.backend, "cpu");
        assert_eq!(report.metrics.backend, "cpu");
        assert_eq!(report.metrics.completed_requests, 16);
        assert!(report.metrics.batches <= 16);
        assert!(report.metrics.mean_batch_size >= 1.0);
        assert_eq!(report.metrics.simulated_gpu_ms_total, 0.0);
    }

    #[test]
    fn sim_gpu_engine_reports_simulated_latency_end_to_end() {
        // Large enough that the planner decomposes at least one layer.
        let descriptor = serving_descriptor("engine-sim", 12, 8, 10);
        let cache = PlanCache::new(2);
        let engine = ServeEngine::builder(&descriptor)
            .batching(test_batching())
            .backend(BackendKind::SimGpu)
            .plan_cache(&cache)
            .build()
            .unwrap();
        assert_eq!(engine.backend_name(), "sim-gpu");
        let per_sample = engine.backend_latency_report();
        assert_eq!(per_sample.batch_size, 1);
        assert!(per_sample.total_ms > 0.0);
        assert!(per_sample.per_layer.iter().any(|l| l.decomposed));

        let mut rng = StdRng::seed_from_u64(2);
        let response = engine
            .infer(init::uniform(vec![12, 12, 8], -1.0, 1.0, &mut rng))
            .unwrap();
        assert!(response.simulated_gpu_batch_ms > 0.0);

        let report = engine.shutdown();
        assert_eq!(report.backend, "sim-gpu");
        assert_eq!(report.metrics.backend, "sim-gpu");
        assert!(report.metrics.simulated_gpu_ms_total > 0.0);
        assert_eq!(report.backend_latency.backend, "sim-gpu");
    }

    #[test]
    fn second_engine_start_hits_the_plan_cache() {
        let descriptor = serving_descriptor("engine-cache", 10, 4, 6);
        let cache = PlanCache::new(2);
        let first = test_engine(&descriptor, &cache).unwrap();
        let fp = first.plan().fingerprint();
        drop(first);
        let second = test_engine(&descriptor, &cache).unwrap();
        assert_eq!(second.plan_outcome(), CacheOutcome::MemoryHit);
        assert_eq!(second.plan().fingerprint(), fp);
        assert_eq!(cache.stats().memory_hits, 1);
    }

    #[test]
    fn backend_identity_splits_the_plan_cache_key() {
        let descriptor = serving_descriptor("engine-key", 10, 4, 6);
        let cache = PlanCache::new(4);
        let cpu = test_engine(&descriptor, &cache).unwrap();
        drop(cpu);
        let sim = ServeEngine::builder(&descriptor)
            .batching(test_batching())
            .backend(BackendKind::SimGpu)
            .plan_cache(&cache)
            .build()
            .unwrap();
        assert_eq!(
            sim.plan_outcome(),
            CacheOutcome::Miss,
            "a different backend must not reuse another backend's cache entry"
        );
        drop(sim);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn builder_rejects_invalid_options() {
        let descriptor = serving_descriptor("engine-bad", 10, 4, 6);
        let cache = PlanCache::new(2);
        // Zero workers.
        let err = ServeEngine::builder(&descriptor)
            .runtime(RuntimeOptions {
                workers: 0,
                ..RuntimeOptions::default()
            })
            .plan_cache(&cache)
            .build();
        assert!(matches!(err, Err(ServeError::BadConfig { .. })));
        // Zero batch size.
        let err = ServeEngine::builder(&descriptor)
            .batching(BatchingOptions {
                max_batch_size: 0,
                ..BatchingOptions::default()
            })
            .plan_cache(&cache)
            .build();
        assert!(matches!(err, Err(ServeError::BadConfig { .. })));
        // Non-finite budget.
        let err = ServeEngine::builder(&descriptor)
            .planning(PlanningOptions {
                budget: f64::NAN,
                ..PlanningOptions::default()
            })
            .plan_cache(&cache)
            .build();
        assert!(matches!(err, Err(ServeError::BadConfig { .. })));
        // Nothing was planned for any rejected configuration.
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn impossible_deadlines_expire_without_reaching_the_executor() {
        let descriptor = serving_descriptor("engine-deadline", 10, 4, 6);
        let cache = PlanCache::new(2);
        // A generous batch delay so an under-full batch would normally idle;
        // a zero deadline, already due at enqueue, must release and expire
        // the request long before (a 1 ms one can be met by a fast build).
        let engine = ServeEngine::builder(&descriptor)
            .batching(BatchingOptions {
                max_batch_size: 8,
                max_batch_delay: Duration::from_millis(500),
                ..BatchingOptions::default()
            })
            .plan_cache(&cache)
            .build()
            .unwrap();
        let started = Instant::now();
        let err = engine
            .infer_with_deadline(Tensor::zeros(vec![10, 10, 4]), Some(Duration::ZERO))
            .unwrap_err();
        assert!(
            matches!(err, ServeError::DeadlineExceeded { .. }),
            "expected DeadlineExceeded, got {err}"
        );
        assert!(
            started.elapsed() < Duration::from_millis(400),
            "the deadline did not bound the wait"
        );
        let metrics = engine.metrics();
        assert_eq!(metrics.deadline_exceeded, 1, "exactly one expiry counted");
        assert_eq!(
            metrics.completed_requests, 0,
            "the expired request must never reach the executor"
        );
        assert_eq!(
            metrics.total_latency.count, 0,
            "expired requests must not add latency samples"
        );

        // A later live request is unaffected and still counts normally.
        let response = engine.infer(Tensor::zeros(vec![10, 10, 4])).unwrap();
        assert_eq!(response.output.dims(), &[6]);
        let metrics = engine.metrics();
        assert_eq!(metrics.completed_requests, 1);
        assert_eq!(metrics.deadline_exceeded, 1);
        engine.shutdown();
    }

    #[test]
    fn default_deadline_applies_to_plain_submits_and_can_be_overridden() {
        let descriptor = serving_descriptor("engine-default-deadline", 10, 4, 6);
        let cache = PlanCache::new(2);
        let engine = ServeEngine::builder(&descriptor)
            .batching(BatchingOptions {
                max_batch_size: 8,
                max_batch_delay: Duration::from_millis(300),
                // The shortest default the options accept (zero is
                // refused): due before the batch can even be formed.
                default_deadline: Some(Duration::from_nanos(1)),
                ..BatchingOptions::default()
            })
            .plan_cache(&cache)
            .build()
            .unwrap();
        assert_eq!(engine.default_deadline(), Some(Duration::from_nanos(1)));
        // Plain submit inherits the impossible default and expires…
        let err = engine.infer(Tensor::zeros(vec![10, 10, 4])).unwrap_err();
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }));
        // …while an explicit None override disables enforcement entirely.
        let response = engine
            .infer_with_deadline(Tensor::zeros(vec![10, 10, 4]), None)
            .unwrap();
        assert_eq!(response.output.dims(), &[6]);
        engine.shutdown();
    }

    #[test]
    fn submit_many_rides_one_executor_batch_and_matches_single_submits() {
        let descriptor = serving_descriptor("engine-group", 10, 4, 6);
        let cache = PlanCache::new(2);
        let engine = test_engine(&descriptor, &cache).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| init::uniform(vec![10, 10, 4], -1.0, 1.0, &mut rng))
            .collect();
        let expected: Vec<Tensor> = inputs
            .iter()
            .map(|x| engine.infer(x.clone()).unwrap().output)
            .collect();
        let handles = engine.submit_many(inputs, None).unwrap();
        for (handle, expected) in handles.into_iter().zip(expected) {
            let response = handle.wait().unwrap();
            assert_eq!(
                response.batch_size, 4,
                "an idle-queue group must ride a single executor batch"
            );
            assert_eq!(response.output, expected, "group output diverged");
        }
        // A group with a bad input is rejected whole before anything queues.
        let bad = engine.submit_many(
            vec![Tensor::zeros(vec![10, 10, 4]), Tensor::zeros(vec![1])],
            None,
        );
        assert!(matches!(bad, Err(ServeError::BadInput { .. })));
        assert_eq!(engine.queue_depth(), 0);
        engine.shutdown();
    }

    #[test]
    fn rejects_bad_inputs() {
        let descriptor = serving_descriptor("engine-input", 10, 4, 6);
        let cache = PlanCache::new(2);
        let engine = test_engine(&descriptor, &cache).unwrap();
        assert!(matches!(
            engine.submit(Tensor::zeros(vec![3, 3, 3])),
            Err(ServeError::BadInput { .. })
        ));
    }

    #[test]
    fn shutdown_rejects_new_requests() {
        let descriptor = serving_descriptor("engine-close", 10, 4, 6);
        let cache = PlanCache::new(2);
        let engine = test_engine(&descriptor, &cache).unwrap();
        let input = Tensor::zeros(vec![10, 10, 4]);
        engine.close_admission();
        assert!(matches!(engine.submit(input), Err(ServeError::Closed)));
    }

    #[test]
    fn builder_without_a_cache_still_builds() {
        let descriptor = serving_descriptor("engine-nocache", 10, 4, 6);
        let engine = ServeEngine::builder(&descriptor)
            .batching(test_batching())
            .build()
            .unwrap();
        assert_eq!(engine.plan_outcome(), CacheOutcome::Miss);
        drop(engine);
    }
}
