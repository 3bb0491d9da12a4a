//! The multi-model registry: N named engines behind one router.
//!
//! A production deployment rarely serves exactly one network. The registry
//! hosts any number of named models, each with its **own**
//! [`ServeEngine`]
//! (backend, dynamic batcher, worker pool, metrics) so that one model's
//! traffic cannot starve another's workers, while sharing one [`PlanCache`]
//! so models planned under the same `(model, device, budget)` key
//! skip rank selection on re-registration.
//!
//! The registry is **shareable and live**. It is the one owner of the model
//! table, an epoch-swapped ([`EpochSwap`]) name → engine map: readers take an
//! `Arc` snapshot and never wait on writer work, writers build the next table
//! off to the side and publish it with one swap. So every operation takes
//! `&self`, and a registry behind an `Arc`, with an HTTP server attached, can
//! gain, lose and re-plan models while serving:
//!
//! * **Hot lifecycle** — [`register`](ModelRegistry::register) and
//!   [`retire`](ModelRegistry::retire). Retire is graceful by construction:
//!   the model is unrouted first (new lookups 404), admission on its engine
//!   is closed (stale-snapshot submits get a typed
//!   [`ServeError::Closed`] → HTTP 503), the queue drains, and only then is
//!   the engine freed — every admitted request is answered.
//! * **Plan hot-swap** — [`replan`](ModelRegistry::replan) re-runs planning
//!   at new [`PlanningOptions`] and atomically swaps in a freshly built
//!   engine under the same route;
//!   [`reconfigure_with`](ModelRegistry::reconfigure_with) does the same over
//!   the *whole* [`ModelConfig`]. In-flight requests — including submits
//!   racing through pre-swap snapshots — complete on the old plan (admission
//!   on the old engine is *not* closed; it simply drains once the last
//!   snapshot holder lets go), new requests ride the new plan: zero dropped
//!   requests across the swap boundary, pinned by a bit-parity integration
//!   test.
//! * **The SLO controller** — built from the vocabulary in
//!   [`crate::control`]: [`estimate_knobs`](ModelRegistry::estimate_knobs)
//!   scores a [`KnobSet`] on the wave simulator,
//!   and [`tune`](ModelRegistry::tune) runs the joint-knob coordinate
//!   descent over such scores and hot-swaps the winner in. A tune runs on
//!   request only; nothing re-tunes in the background.
//!
//! Routing is by registered name. Admission control is per model: every
//! engine's queue is bounded by its
//! [`max_queue_depth`](crate::BatchingOptions::max_queue_depth), and a flood
//! against one model is shed at that model's front door with a typed
//! [`ServeError::Overloaded`] rejection — counted per model by the registry —
//! instead of queueing without bound. [`ModelRegistry::metrics`] aggregates
//! every model's [`ServeMetrics`] plus the rejection counters, the
//! lifecycle counters (table epoch, registers, retires, replans) and the
//! shared plan cache's telemetry into one
//! [`RegistryMetrics`] snapshot, which is what the HTTP front end
//! ([`crate::http`]) serializes at `GET /metrics`.
//!
//! Registered names must be URL-safe (they become `/v1/models/{name}/infer`
//! path segments); [`ModelDescriptor::slug`] produces a canonical safe name
//! from any descriptor.

use crate::arena::PoolStats;
use crate::batcher::{InferenceResponse, PendingResponse};
use crate::control::{
    ControllerLedger, ControllerStatus, EngineHandle, EpochSwap, KnobEstimate, KnobSet,
    ModelControllerStatus, ModelTable, RegisteredModel, ReplanReport, RouteTotals, TuneReport,
    TuneRequest,
};
use crate::metrics::ServeMetrics;
use crate::options::{BatchingOptions, PlanningOptions, RuntimeOptions};
use crate::plan_cache::{CacheOutcome, PlanCache, PlanCacheStats, PlanKey};
use crate::server::{ServeEngine, ServeReport};
use crate::{Result, ServeError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tdc::lowering::lower_plan_with_fc;
use tdc::TdcPipeline;
use tdc_exec::{BandMetrics, Executor, ExecutorMetrics, ExecutorOptions, QosClass};
use tdc_gpu_sim::WaveEngine;
use tdc_nn::models::ModelDescriptor;
use tdc_tensor::Tensor;

/// Everything one registered model needs: the three engine option groups.
///
/// Each model in a registry gets its own configuration — different budgets,
/// batch shapes and admission bounds can coexist behind one router.
#[derive(Clone, Default)]
pub struct ModelConfig {
    /// Plan identity: device, strategy, budget, rank step, θ.
    pub planning: PlanningOptions,
    /// Batch shape and admission bound.
    pub batching: BatchingOptions,
    /// Fair-share weight, QoS class, weight seed.
    pub runtime: RuntimeOptions,
    /// Optional backend interposer (fault injection, call recording),
    /// applied to every engine built for this model — including the rebuilt
    /// engines a replan or tune hot-swaps in, so a harness wrapper
    /// survives plan rotations. `None` (the default) serves the bare
    /// backend.
    pub backend_wrapper: Option<Arc<dyn crate::backend::BackendWrapper>>,
}

impl std::fmt::Debug for ModelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelConfig")
            .field("planning", &self.planning)
            .field("batching", &self.batching)
            .field("runtime", &self.runtime)
            .field(
                "backend_wrapper",
                &self
                    .backend_wrapper
                    .as_ref()
                    .map(|_| "<dyn BackendWrapper>"),
            )
            .finish()
    }
}

/// Static description of one registered model, as listed at
/// `GET /v1/models`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelInfo {
    /// Registered (routing) name.
    pub name: String,
    /// Device the plan was selected for.
    pub device: String,
    /// Expected HWC dims of one input sample.
    pub input_dims: Vec<usize>,
    /// Logits the model produces per sample.
    pub output_classes: usize,
    /// Convolution layers running in Tucker-decomposed form.
    pub decomposed_layers: usize,
    /// Convolution layers in the plan.
    pub conv_layers: usize,
    /// FLOPs budget the served plan was selected under (what
    /// [`replan`](ModelRegistry::replan) and the controller adjust).
    pub budget: f64,
    /// FLOPs reduction the plan achieved.
    pub achieved_flops_reduction: f64,
    /// Fingerprint of the served plan, hex.
    pub plan_fingerprint: String,
    /// Plan generation: 1 at registration, bumped once per hot-swap.
    pub generation: u64,
    /// Most requests per executed batch.
    pub max_batch_size: usize,
    /// Admission bound of this model's queue.
    pub max_queue_depth: usize,
    /// Default per-request deadline in milliseconds; `None` disables
    /// deadline enforcement for requests without an explicit override.
    pub default_deadline_ms: Option<u64>,
    /// QoS class the model was registered under (`"interactive"`,
    /// `"standard"` or `"batch"`): which executor priority band dispatches
    /// its batches.
    pub qos: String,
    /// Fair-share weight on the fleet executor: the model's deficit
    /// round-robin quantum (batches per scheduling turn) and concurrent
    /// dispatch ramp, relative to other models in the same QoS band.
    pub fair_share_weight: usize,
}

/// One model's row in a [`RegistryMetrics`] snapshot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelMetricsEntry {
    /// Registered name.
    pub model: String,
    /// Plan generation currently serving (1 = as registered).
    pub generation: u64,
    /// Requests rejected at admission with [`ServeError::Overloaded`].
    /// A route-lifetime counter: survives plan hot-swaps.
    pub rejected_requests: u64,
    /// Requests completed over the route's lifetime — the current engine's
    /// count plus everything drained engines served before their hot-swaps.
    /// Unlike `metrics.completed_requests` (which is per plan generation),
    /// this never regresses on a replan.
    pub lifetime_completed_requests: u64,
    /// Deadline expiries over the route's lifetime (same accumulation).
    pub lifetime_deadline_exceeded: u64,
    /// Requests queued but not yet dispatched at snapshot time.
    pub queue_depth: usize,
    /// The current engine's full metrics snapshot. Latency percentiles and
    /// batch statistics are per plan generation: a hot-swap starts them
    /// fresh (mixing percentile samples across different plans would
    /// misattribute tail behaviour).
    pub metrics: ServeMetrics,
    /// The model's row on the fleet executor: QoS class, fair-share weight,
    /// queued work, running dispatches and batches executed.
    pub executor: tdc_exec::SourceMetrics,
    /// The engine's scratch-arena buffer pool: allocation high-water mark
    /// and take/hit counters. Per plan generation (a hot-swap builds a
    /// fresh pool with the engine).
    pub pool: PoolStats,
}

/// Aggregated metrics across every registered model, plus the lifecycle
/// counters and the shared plan cache's telemetry.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RegistryMetrics {
    /// Per-model snapshots, in registration-name order.
    pub models: Vec<ModelMetricsEntry>,
    /// Completed requests fleet-wide: live engines plus everything served
    /// by engines drained since startup (replans and retires) — monotonic
    /// across lifecycle operations, so a monitoring delta never sees it
    /// regress when a plan hot-swaps or a model retires.
    pub total_completed_requests: u64,
    /// Sum of admission rejections across models.
    pub total_rejected_requests: u64,
    /// Deadline expiries fleet-wide, accumulated the same monotonic way as
    /// `total_completed_requests`
    /// ([`ServeMetrics::deadline_exceeded`]).
    pub total_deadline_exceeded: u64,
    /// Sum of executed batches across models.
    pub total_batches: u64,
    /// Routing-table epoch (swaps since start: registers + retires +
    /// replans).
    pub epoch: u64,
    /// Models registered over the process lifetime.
    pub models_registered_total: u64,
    /// Models retired over the process lifetime.
    pub models_retired_total: u64,
    /// Plan hot-swaps over the process lifetime.
    pub replans_total: u64,
    /// Shared plan cache counters, per-key hit counts and the evicted-key
    /// log.
    pub plan_cache: PlanCacheStats,
    /// Fleet executor snapshot: worker count and utilization,
    /// per-QoS-band queue depths and every registered source's row. All
    /// zeros (with empty bands) when the registry fell back to per-engine
    /// private pools.
    pub executor: tdc_exec::ExecutorMetrics,
    /// SLO-controller snapshot: the tune counter and per-model tuning state
    /// (generation, target, expected vs measured p99, early-release counts,
    /// current knob values).
    pub controller: ControllerStatus,
}

/// Longest a retire / replan waits — in total, across both the queue drain
/// and the wait for the old engine to become exclusively owned (i.e. for
/// every in-flight request holding a table snapshot to finish). Past the
/// bound the operation still *succeeds* (the table mutation committed
/// before the drain began) and reports a metrics snapshot instead of the
/// consumed engine's final report; the engine itself is freed gracefully
/// when its last holder drops it.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Plans computed by tune probes are memoized here, in a cache separate
/// from the serving one: a single search plans ~10 one-shot budgets, and
/// routing those through the serving cache would evict live models' plans
/// and fill the eviction telemetry with probe noise.
const PROBE_CACHE_CAPACITY: usize = 32;

fn fingerprint_hex(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

fn outcome_label(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::MemoryHit => "memory-hit",
        CacheOutcome::DiskHit => "disk-hit",
        CacheOutcome::Miss => "miss",
    }
}

/// Wait for `entry` to become exclusively owned — i.e. for every in-flight
/// request holding a pre-swap table snapshot to finish — then return it by
/// value. `None` past the timeout (the `Arc` is dropped; the engine still
/// drains and joins its workers when the last holder releases it).
fn take_exclusive(mut entry: Arc<RegisteredModel>, timeout: Duration) -> Option<RegisteredModel> {
    let deadline = Instant::now() + timeout;
    loop {
        match Arc::try_unwrap(entry) {
            Ok(inner) => return Some(inner),
            Err(shared) => {
                if Instant::now() >= deadline {
                    return None;
                }
                entry = shared;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// A `ServeReport` snapshot taken through a shared reference — the fallback
/// when a drain outlasts [`DRAIN_TIMEOUT`] and the engine cannot be consumed
/// for its final report.
fn report_snapshot(engine: &ServeEngine) -> ServeReport {
    ServeReport {
        metrics: engine.metrics(),
        plan_outcome: engine.plan_outcome(),
        plan_fingerprint: engine.plan().fingerprint(),
    }
}

/// N named serving engines behind one name-based router: the one owner of
/// the epoch-swapped model table and of every live operation over it.
///
/// All mutation goes through `&self`, so the registry can sit behind an
/// `Arc` shared with a running HTTP server and still gain, lose and re-plan
/// models. Writers serialize on an internal mutex; readers never take it.
///
/// # Examples
///
/// ```
/// use tdc_serve::{serving_descriptor, ModelConfig, ModelRegistry};
///
/// let registry = ModelRegistry::new(4);
/// registry
///     .register("small", &serving_descriptor("small", 8, 4, 4), ModelConfig::default())
///     .unwrap();
/// registry
///     .register("wide", &serving_descriptor("wide", 8, 6, 6), ModelConfig::default())
///     .unwrap();
/// assert_eq!(registry.names(), vec!["small", "wide"]);
///
/// let input = tdc_tensor::Tensor::zeros(vec![8, 8, 4]);
/// let response = registry.infer("small", input).unwrap();
/// assert_eq!(response.output.dims(), &[4]);
/// assert!(registry.infer("ghost", tdc_tensor::Tensor::zeros(vec![1])).is_err());
///
/// // Registration takes `&self`: a live, shared registry can lose models
/// // too — retire drains gracefully and frees the engine.
/// let report = registry.retire("wide").unwrap();
/// assert_eq!(report.metrics.completed_requests, 0);
///
/// let metrics = registry.metrics();
/// assert_eq!(metrics.total_completed_requests, 1);
/// assert_eq!(metrics.models_retired_total, 1);
/// registry.shutdown();
/// ```
pub struct ModelRegistry {
    cache: PlanCache,
    /// Memoizes tune probe plans, separately from the serving cache
    /// (see [`PROBE_CACHE_CAPACITY`]).
    probe_cache: PlanCache,
    /// The fleet-wide executor every registered engine runs its batches
    /// on. `None` only if the pool's worker threads could not be
    /// spawned at construction — engines then fall back to private pools,
    /// the pre-executor topology.
    executor: Option<Arc<Executor>>,
    table: EpochSwap<ModelTable>,
    /// Serializes writers (register / retire / replan / shutdown) — they
    /// build engines, planning included, under it, which keeps
    /// duplicate-name races trivially impossible. Readers never touch it.
    writer: Mutex<()>,
    registered_total: AtomicU64,
    retired_total: AtomicU64,
    replans_total: AtomicU64,
    /// Requests completed by engines that have since been drained (replans
    /// and retires), so the fleet-wide completed total in `/metrics` stays
    /// monotonic across lifecycle operations instead of dropping with every
    /// rotated engine.
    drained_completed_total: AtomicU64,
    /// Deadline expiries on since-drained engines (same role).
    drained_deadline_exceeded_total: AtomicU64,
    /// Per-model tune state and the tune counter.
    controller: Mutex<ControllerLedger>,
}

impl ModelRegistry {
    /// An empty registry whose shared plan cache holds up to
    /// `plan_capacity` plans.
    pub fn new(plan_capacity: usize) -> Self {
        Self::with_cache(PlanCache::new(plan_capacity))
    }

    /// An empty registry planning through `cache` (e.g. one configured with a
    /// spill directory, so every registered model skips rank selection after
    /// a process restart), with a fleet executor at default options (one
    /// worker per core, clamped).
    pub fn with_cache(cache: PlanCache) -> Self {
        let executor = Executor::new(ExecutorOptions::default()).ok().map(Arc::new);
        Self::with_optional_executor(cache, executor)
    }

    /// An empty registry planning through `cache` and scheduling every
    /// engine on `executor` — a pool shared with other registries in the
    /// process, or a deterministic paused pool in tests.
    pub fn with_executor(cache: PlanCache, executor: Arc<Executor>) -> Self {
        Self::with_optional_executor(cache, Some(executor))
    }

    fn with_optional_executor(cache: PlanCache, executor: Option<Arc<Executor>>) -> Self {
        ModelRegistry {
            cache,
            probe_cache: PlanCache::new(PROBE_CACHE_CAPACITY),
            executor,
            table: EpochSwap::new(ModelTable::new()),
            writer: Mutex::new(()),
            registered_total: AtomicU64::new(0),
            retired_total: AtomicU64::new(0),
            replans_total: AtomicU64::new(0),
            drained_completed_total: AtomicU64::new(0),
            drained_deadline_exceeded_total: AtomicU64::new(0),
            controller: Mutex::new(ControllerLedger::default()),
        }
    }

    /// Record a drained engine's final counters into the fleet-wide
    /// monotonic totals.
    fn note_drained(&self, metrics: &ServeMetrics) {
        self.drained_completed_total
            .fetch_add(metrics.completed_requests, Ordering::Relaxed);
        self.drained_deadline_exceeded_total
            .fetch_add(metrics.deadline_exceeded, Ordering::Relaxed);
    }

    fn writer(&self) -> MutexGuard<'_, ()> {
        match self.writer.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Telemetry snapshot of the fleet executor: workers, utilization,
    /// per-QoS-band queue depth and per-source counters. An
    /// all-zero snapshot when the fleet pool is absent.
    fn executor_metrics(&self) -> ExecutorMetrics {
        match &self.executor {
            Some(executor) => executor.metrics(),
            None => ExecutorMetrics {
                workers: 0,
                steals_total: 0,
                utilization: 0.0,
                bands: QosClass::ALL
                    .iter()
                    .map(|qos| BandMetrics {
                        qos: qos.label().to_string(),
                        queued: 0,
                        tokens: 0,
                    })
                    .collect(),
                sources: Vec::new(),
            },
        }
    }

    /// Routing-table epoch: how many times the model table has been swapped.
    pub fn epoch(&self) -> u64 {
        self.table.epoch()
    }

    /// Whether `name` can be registered: non-empty and made of URL-safe
    /// characters (`[A-Za-z0-9._-]`), so it can appear verbatim as the
    /// `/v1/models/{name}/infer` path segment.
    pub fn is_valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    }

    /// Resolve one routed model from the current table.
    pub(crate) fn lookup(&self, name: &str) -> Result<Arc<RegisteredModel>> {
        self.table
            .load()
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel {
                name: name.to_string(),
            })
    }

    /// Build the full entry for one registration: engine (through the shared
    /// plan cache) plus its static description.
    fn build_entry(
        &self,
        name: &str,
        descriptor: &ModelDescriptor,
        config: ModelConfig,
        generation: u64,
    ) -> Result<RegisteredModel> {
        let mut builder = ServeEngine::builder(descriptor)
            .planning(config.planning.clone())
            .batching(config.batching.clone())
            .runtime(config.runtime.clone())
            .plan_cache(&self.cache);
        if let Some(executor) = &self.executor {
            builder = builder.executor(executor);
        }
        if let Some(wrapper) = &config.backend_wrapper {
            builder = builder.wrap_backend(Arc::clone(wrapper));
        }
        let engine = builder.build()?;
        let info = ModelInfo {
            name: name.to_string(),
            device: config.planning.device.name.clone(),
            input_dims: engine.model().input_dims().to_vec(),
            output_classes: engine.model().output_classes(),
            decomposed_layers: engine.model().decomposed_layers(),
            conv_layers: engine.plan().decisions.len(),
            budget: config.planning.budget,
            achieved_flops_reduction: engine.plan().achieved_reduction,
            plan_fingerprint: fingerprint_hex(engine.plan().fingerprint()),
            generation,
            max_batch_size: config.batching.max_batch_size,
            max_queue_depth: config.batching.max_queue_depth,
            default_deadline_ms: config
                .batching
                .default_deadline
                .map(|d| d.as_millis() as u64),
            qos: config.runtime.qos.label().to_string(),
            fair_share_weight: config.runtime.fair_share_weight(),
        };
        Ok(RegisteredModel {
            engine,
            descriptor: descriptor.clone(),
            config,
            info,
            rejected: Arc::new(AtomicU64::new(0)),
            prior: Arc::new(RouteTotals::default()),
        })
    }

    /// Build an engine for `descriptor` under `config` and route `name` to
    /// it — on a live registry, through `&self` — returning the routed
    /// model's description. The engine (planning included) is built before
    /// the table swap, so readers only ever observe fully started models.
    /// Fails with [`ServeError::BadConfig`] on an invalid or duplicate name
    /// and propagates any engine-build failure. Planning goes through the
    /// registry's shared cache; the cache key carries the *descriptor* name,
    /// so two registrations of the same descriptor share a plan while
    /// same-shaped descriptors with different names never do.
    pub fn register(
        &self,
        name: &str,
        descriptor: &ModelDescriptor,
        config: ModelConfig,
    ) -> Result<ModelInfo> {
        self.register_at_epoch(name, descriptor, config)
            .map(|(info, _epoch)| info)
    }

    /// [`register`](ModelRegistry::register), also returning the table
    /// epoch the registration produced (the `PUT` reply carries it). Both
    /// describe the entry and swap of *this* call — no re-lookup needed (a
    /// racing retire could already have removed it, and a racing register
    /// could have moved the epoch on).
    pub(crate) fn register_at_epoch(
        &self,
        name: &str,
        descriptor: &ModelDescriptor,
        config: ModelConfig,
    ) -> Result<(ModelInfo, u64)> {
        if !Self::is_valid_name(name) {
            return Err(ServeError::BadConfig {
                reason: format!(
                    "model name {name:?} is not URL-safe; use [A-Za-z0-9._-] \
                     (ModelDescriptor::slug() produces a canonical safe name)"
                ),
            });
        }
        let _writer = self.writer();
        let current = self.table.load();
        if current.contains_key(name) {
            return Err(ServeError::BadConfig {
                reason: format!("a model named {name:?} is already registered"),
            });
        }
        let entry = self.build_entry(name, descriptor, config, 1)?;
        let info = entry.info.clone();
        let mut next = (*current).clone();
        next.insert(name.to_string(), Arc::new(entry));
        let epoch = self.table.store(Arc::new(next));
        self.registered_total.fetch_add(1, Ordering::Relaxed);
        Ok((info, epoch))
    }

    /// Gracefully retire `name`: unroute it (new lookups fail with
    /// [`ServeError::UnknownModel`] → HTTP 404 immediately), stop admission
    /// on its engine (submits racing through pre-swap snapshots get a typed
    /// [`ServeError::Closed`] → HTTP 503 with a Retry-After), drain every
    /// admitted request, free the engine and return its final report. Once
    /// the model is unrouted the retire always succeeds: if a snapshot
    /// holder outlives the 30 s drain budget, the report is a metrics
    /// snapshot of the closed, drained engine and the engine itself is
    /// freed when the last holder drops it.
    pub fn retire(&self, name: &str) -> Result<ServeReport> {
        self.retire_at_epoch(name).map(|(report, _epoch)| report)
    }

    /// [`retire`](ModelRegistry::retire), also returning the table epoch
    /// the unroute produced (the `DELETE` reply carries it).
    pub(crate) fn retire_at_epoch(&self, name: &str) -> Result<(ServeReport, u64)> {
        let (removed, epoch) = {
            let _writer = self.writer();
            let current = self.table.load();
            let Some(entry) = current.get(name).cloned() else {
                return Err(ServeError::UnknownModel {
                    name: name.to_string(),
                });
            };
            let mut next = (*current).clone();
            next.remove(name);
            let epoch = self.table.store(Arc::new(next));
            self.retired_total.fetch_add(1, Ordering::Relaxed);
            (entry, epoch)
            // The writer lock is released here: the (potentially slow) drain
            // below never blocks other lifecycle operations.
        };
        Ok((self.close_and_drain(removed), epoch))
    }

    /// Close admission on an already unrouted entry, drain every admitted
    /// request and free the engine, returning its final report. Both drain
    /// phases share one deadline, so the caller blocks for at most
    /// [`DRAIN_TIMEOUT`] in total.
    fn close_and_drain(&self, entry: Arc<RegisteredModel>) -> ServeReport {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        entry.engine.close_admission();
        entry
            .engine
            .wait_drained(deadline.saturating_duration_since(Instant::now()));
        // Snapshot first: if a holdout outlives the remaining budget, the
        // entry is still unrouted, closed and drained, so this snapshot is
        // its honest report; the engine frees itself with its last holder.
        let fallback = report_snapshot(&entry.engine);
        let report = match take_exclusive(entry, deadline.saturating_duration_since(Instant::now()))
        {
            Some(model) => model.engine.shutdown(),
            None => fallback,
        };
        // The drained engine's counts move into the fleet-wide monotonic
        // totals instead of vanishing from /metrics.
        self.note_drained(&report.metrics);
        report
    }

    /// Hot-swap the plan serving `name`: re-run planning under `planning`,
    /// build a fresh engine, atomically swap it in under the same route, and
    /// gracefully drain the old engine. Requests in flight at the swap —
    /// including submits racing through pre-swap snapshots — complete on the
    /// old plan (its admission is never closed; the engine drains naturally
    /// once the last snapshot holder lets go), so no request is dropped
    /// across the boundary.
    pub fn replan(&self, name: &str, planning: PlanningOptions) -> Result<ReplanReport> {
        self.replan_with(name, move |_| planning)
    }

    /// [`ModelRegistry::replan`], deriving the new planning options from the
    /// model's *current* ones **under the writer lock**: `update` receives
    /// the options the route is serving with at swap time. This is how
    /// partial updates (the HTTP route's budget/rank-step/θ overrides)
    /// compose with concurrent admin operations instead of clobbering them
    /// from a stale snapshot.
    pub fn replan_with(
        &self,
        name: &str,
        update: impl FnOnce(PlanningOptions) -> PlanningOptions,
    ) -> Result<ReplanReport> {
        self.reconfigure_with(name, move |mut config| {
            config.planning = update(config.planning);
            config
        })
    }

    /// The fully general zero-drop hot-swap: derive a whole replacement
    /// [`ModelConfig`] from the route's current one **under the writer
    /// lock**, build a fresh engine from it, swap it in under the same route
    /// and drain the old engine — exactly [`ModelRegistry::replan_with`], but
    /// over every option group at once. This is the controller's apply path:
    /// a tune that moves the FLOPs budget, batch size, batch delay and
    /// fair-share weight together lands them in one swap (one generation
    /// bump, one drain) instead of four.
    pub fn reconfigure_with(
        &self,
        name: &str,
        update: impl FnOnce(ModelConfig) -> ModelConfig,
    ) -> Result<ReplanReport> {
        let (old_entry, new_budget, new_fingerprint, plan_outcome, generation, epoch) = {
            let _writer = self.writer();
            let current = self.table.load();
            let Some(old) = current.get(name).cloned() else {
                return Err(ServeError::UnknownModel {
                    name: name.to_string(),
                });
            };
            let config = update(old.config.clone());
            config.planning.validate()?;
            config.batching.validate()?;
            config.runtime.validate()?;
            let generation = old.info.generation + 1;
            let mut entry = self.build_entry(name, &old.descriptor, config, generation)?;
            // The route-level telemetry belongs to the route, not the
            // engine: the replacement entry shares the old entry's counters,
            // so rejections recorded through pre-swap snapshots while the
            // old engine drains are never lost, and lifetime totals survive
            // the rotation.
            entry.rejected = Arc::clone(&old.rejected);
            entry.prior = Arc::clone(&old.prior);
            let new_budget = entry.config.planning.budget;
            let new_fingerprint = entry.info.plan_fingerprint.clone();
            let plan_outcome = outcome_label(entry.engine.plan_outcome());
            let mut next = (*current).clone();
            next.insert(name.to_string(), Arc::new(entry));
            let epoch = self.table.store(Arc::new(next));
            self.replans_total.fetch_add(1, Ordering::Relaxed);
            (
                old,
                new_budget,
                new_fingerprint,
                plan_outcome,
                generation,
                epoch,
            )
        };
        let old_budget = old_entry.config.planning.budget;
        let old_fingerprint = old_entry.info.plan_fingerprint.clone();
        let prior = Arc::clone(&old_entry.prior);
        // The swap has committed — the replan succeeds regardless of how the
        // old engine's drain goes. If a snapshot holder outlives the
        // timeout, report the old engine's current counters; it keeps
        // draining on its own and frees itself with the last holder.
        // Not `close_and_drain`: the old engine's admission is never closed.
        let fallback_metrics = old_entry.engine.metrics();
        let drained_metrics = match take_exclusive(old_entry, DRAIN_TIMEOUT) {
            Some(model) => model.engine.shutdown().metrics,
            None => fallback_metrics,
        };
        // The drained engine's counts flow into the route's lifetime totals
        // (shared with the new entry) and the fleet-wide monotonic totals.
        prior
            .completed
            .fetch_add(drained_metrics.completed_requests, Ordering::Relaxed);
        prior
            .deadline_exceeded
            .fetch_add(drained_metrics.deadline_exceeded, Ordering::Relaxed);
        self.note_drained(&drained_metrics);
        Ok(ReplanReport {
            model: name.to_string(),
            old_budget,
            new_budget,
            plan_changed: old_fingerprint != new_fingerprint,
            old_plan_fingerprint: old_fingerprint,
            new_plan_fingerprint: new_fingerprint,
            generation,
            epoch,
            plan_outcome: plan_outcome.to_string(),
            drained_completed_requests: drained_metrics.completed_requests,
        })
    }

    /// Score an arbitrary [`KnobSet`] for `name` on the wave simulator —
    /// the controller's objective function. Planning happens at
    /// `knobs.flops_budget` (through the probe cache), lowering at `knobs.max_batch_size`, and the batching-delay and
    /// fair-share-weight knobs enter the modelled p99 and throughput
    /// analytically (see [`KnobEstimate`]).
    ///
    /// The budget is the *required* FLOPs reduction: raising it shrinks the
    /// admissible rank set, and past the feasibility cliff layers fall back
    /// to dense (Algorithm 1's `NoAdmissibleRank`), so the modelled p99 is
    /// non-decreasing in `flops_budget`.
    pub fn estimate_knobs(&self, name: &str, knobs: &KnobSet) -> Result<KnobEstimate> {
        let entry = self.lookup(name)?;
        let mut planning = entry.config.planning.clone();
        planning.budget = knobs.flops_budget;
        planning.validate()?;
        if knobs.max_batch_size == 0 {
            return Err(ServeError::BadConfig {
                reason: "knob max_batch_size must be positive".into(),
            });
        }
        if knobs.fair_share_weight == 0 {
            return Err(ServeError::BadConfig {
                reason: "knob fair_share_weight must be positive".into(),
            });
        }
        let cfg = planning.selection_config();
        let key = PlanKey::new(&entry.descriptor.name, &planning.device.name, &cfg);
        let descriptor = entry.descriptor.clone();
        let device = planning.device.clone();
        let strategy = planning.strategy;
        // Probe plans are one-shot per budget: memoize them in the probe
        // cache so a search can never evict live models' plans from the
        // serving cache or drown its eviction telemetry in probe keys.
        let (plan, _) = self.probe_cache.get_or_compute(&key, || {
            TdcPipeline::new(device.clone(), strategy)
                .plan_with_config(&descriptor, &cfg)
                .map_err(Into::into)
        })?;
        let batch = knobs.max_batch_size.max(1);
        let lowered = lower_plan_with_fc(&plan, &entry.descriptor.fc, &planning.device, batch)?;
        let engine = WaveEngine::new(planning.device.clone());
        let mut exec_ms = 0.0f64;
        for layer in &lowered {
            exec_ms += engine
                .run_sequence_stats(&layer.launches)
                .map_err(tdc::TdcError::from)?
                .total_ms;
        }
        let delay_ms = knobs.max_batch_delay_us as f64 / 1e3;
        // Full-batch service time plus the maximum batching wait is the tail
        // a saturated open-loop workload converges to — what an SLO bounds.
        let p99_ms = exec_ms + delay_ms;
        // Saturated throughput: one full batch per service time, scaled by
        // the fair-share weight (the executor grants the engine that many
        // worker slots' worth of concurrent batches).
        let throughput_rps = if exec_ms > 0.0 {
            batch as f64 * knobs.fair_share_weight as f64 / exec_ms * 1e3
        } else {
            f64::INFINITY
        };
        Ok(KnobEstimate {
            exec_ms,
            p99_ms,
            throughput_rps,
        })
    }

    pub(crate) fn controller(&self) -> MutexGuard<'_, ControllerLedger> {
        match self.controller.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Run one joint-knob tune for `name`: calibrated coordinate descent
    /// over the model's [`KnobSet`], every candidate scored by
    /// [`estimate_knobs`](ModelRegistry::estimate_knobs), the winner
    /// hot-swapped in through
    /// [`reconfigure_with`](ModelRegistry::reconfigure_with) when
    /// `request.apply` is set. The ledger records the tune (tuning
    /// generation, target, expected p99) when its winning knobs are what
    /// serves on return; a dry run that found better knobs leaves the ledger
    /// alone and reports its current tuning generation.
    ///
    /// # Examples
    ///
    /// ```
    /// use tdc_serve::{serving_descriptor, ModelConfig, ModelRegistry, TuneRequest};
    ///
    /// let registry = ModelRegistry::new(4);
    /// registry
    ///     .register("demo", &serving_descriptor("ctrl-demo", 8, 4, 4), ModelConfig::default())
    ///     .unwrap();
    /// let report = registry
    ///     .tune(
    ///         "demo",
    ///         &TuneRequest {
    ///             target_p99_ms: Some(50.0),
    ///             ..TuneRequest::default()
    ///         },
    ///     )
    ///     .unwrap();
    /// assert_eq!(report.tuning_generation, 1);
    /// assert!(!report.probes.is_empty());
    /// registry.shutdown();
    /// ```
    pub fn tune(&self, name: &str, request: &TuneRequest) -> Result<TuneReport> {
        crate::control::tune(self, name, request)
    }

    /// Controller snapshot: the tune counter and per-model tune state joined
    /// against the live routing table (knob values come from the serving
    /// engines' configs).
    pub fn controller_status(&self) -> ControllerStatus {
        let table = self.table.load();
        let ledger = self.controller();
        let models = table
            .iter()
            .map(|(name, entry)| {
                let state = ledger.models.get(name).copied().unwrap_or_default();
                ModelControllerStatus {
                    model: name.clone(),
                    tuning_generation: state.tuning_generation,
                    target_p99_ms: state.target_p99_ms,
                    expected_p99_ms: state.expected_p99_ms,
                    last_measured_p99_ms: state.last_measured_p99_ms,
                    knobs: KnobSet::of(&entry.config),
                }
            })
            .collect();
        ControllerStatus {
            tunes_total: ledger.tunes_total,
            models,
        }
    }

    /// Registered model count.
    pub fn len(&self) -> usize {
        self.table.load().len()
    }

    /// Whether no model is registered.
    pub fn is_empty(&self) -> bool {
        self.table.load().is_empty()
    }

    /// Registered names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.table.load().keys().cloned().collect()
    }

    /// A read handle on the engine serving `model`, if registered. The
    /// handle pins the model's current engine: a concurrent retire or replan
    /// waits for it to drop before freeing that engine.
    pub fn engine(&self, model: &str) -> Result<EngineHandle> {
        Ok(EngineHandle {
            entry: self.lookup(model)?,
        })
    }

    /// Static descriptions of every registered model, in name order.
    pub fn model_info(&self) -> Vec<ModelInfo> {
        self.table.load().values().map(|m| m.info.clone()).collect()
    }

    /// Submit one input to `model` under the model's default deadline;
    /// returns a handle to await the response. Admission rejections
    /// ([`ServeError::Overloaded`]) are counted per model and surface in
    /// [`ModelRegistry::metrics`].
    pub fn submit(&self, model: &str, input: Tensor) -> Result<PendingResponse> {
        let entry = self.lookup(model)?;
        let deadline = entry.engine.default_deadline();
        entry.submit_counted(input, deadline)
    }

    /// Submit one input to `model` with an explicit per-request deadline
    /// (`None` disables enforcement for this request), overriding the
    /// model's configured default.
    pub fn submit_with_deadline(
        &self,
        model: &str,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<PendingResponse> {
        let entry = self.lookup(model)?;
        entry.submit_counted(input, deadline)
    }

    /// Submit a group of inputs to `model` atomically under one deadline
    /// (see [`ServeEngine::submit_many`](crate::ServeEngine::submit_many)):
    /// the group is contiguous in the model's queue, so a group no larger
    /// than the model's batch size rides one executor batch on an idle
    /// queue. An admission rejection rejects the group whole and counts one
    /// rejection per request in it.
    pub fn submit_many(
        &self,
        model: &str,
        inputs: Vec<Tensor>,
        deadline: Option<Duration>,
    ) -> Result<Vec<PendingResponse>> {
        let entry = self.lookup(model)?;
        entry.submit_many_counted(inputs, deadline)
    }

    /// Submit to `model` and block for the response.
    pub fn infer(&self, model: &str, input: Tensor) -> Result<InferenceResponse> {
        self.submit(model, input)?.wait()
    }

    /// Submit to `model` with an explicit deadline and block for the
    /// response.
    pub fn infer_with_deadline(
        &self,
        model: &str,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<InferenceResponse> {
        self.submit_with_deadline(model, input, deadline)?.wait()
    }

    /// Aggregate every model's metrics, the per-model admission rejection
    /// counters, the lifecycle counters and the plan cache's telemetry.
    pub fn metrics(&self) -> RegistryMetrics {
        let snapshot = self.table.load();
        let models: Vec<ModelMetricsEntry> = snapshot
            .iter()
            .map(|(name, m)| {
                let metrics = m.engine.metrics();
                ModelMetricsEntry {
                    model: name.clone(),
                    generation: m.info.generation,
                    rejected_requests: m.rejected.load(Ordering::Relaxed),
                    lifetime_completed_requests: m.prior.completed.load(Ordering::Relaxed)
                        + metrics.completed_requests,
                    lifetime_deadline_exceeded: m.prior.deadline_exceeded.load(Ordering::Relaxed)
                        + metrics.deadline_exceeded,
                    queue_depth: m.engine.queue_depth(),
                    metrics,
                    executor: m.engine.executor_source(),
                    pool: m.engine.pool_stats(),
                }
            })
            .collect();
        // Fleet totals stay monotonic across hot-swaps and retires: live
        // engines plus everything drained engines served before they were
        // rotated out. (Per-route `prior` totals are a subset of the
        // drained totals, so summing live engines + drained counts each
        // request exactly once.)
        let drained_completed = self.drained_completed_total.load(Ordering::Relaxed);
        let drained_deadline_exceeded =
            self.drained_deadline_exceeded_total.load(Ordering::Relaxed);
        RegistryMetrics {
            total_completed_requests: models
                .iter()
                .map(|m| m.metrics.completed_requests)
                .sum::<u64>()
                + drained_completed,
            total_rejected_requests: models.iter().map(|m| m.rejected_requests).sum(),
            total_deadline_exceeded: models
                .iter()
                .map(|m| m.metrics.deadline_exceeded)
                .sum::<u64>()
                + drained_deadline_exceeded,
            total_batches: models.iter().map(|m| m.metrics.batches).sum(),
            epoch: self.table.epoch(),
            models_registered_total: self.registered_total.load(Ordering::Relaxed),
            models_retired_total: self.retired_total.load(Ordering::Relaxed),
            replans_total: self.replans_total.load(Ordering::Relaxed),
            plan_cache: self.cache.stats(),
            executor: self.executor_metrics(),
            controller: self.controller_status(),
            models,
        }
    }

    /// Counters and telemetry of the shared plan cache.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }

    /// Shut every engine down — swap in an empty table, then drain and free
    /// each engine — and return the final reports in name order.
    pub fn shutdown(self) -> Vec<(String, ServeReport)> {
        let table = {
            let _writer = self.writer();
            let current = self.table.load();
            self.table.store(Arc::new(ModelTable::new()));
            current
        };
        let table = match Arc::try_unwrap(table) {
            Ok(map) => map,
            Err(shared) => (*shared).clone(),
        };
        table
            .into_iter()
            .map(|(name, entry)| (name, self.close_and_drain(entry)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving_descriptor;
    use crate::{CacheOutcome, ServeError};
    use std::time::Duration;

    fn quick_config() -> ModelConfig {
        ModelConfig {
            batching: BatchingOptions {
                max_batch_size: 4,
                max_batch_delay: Duration::from_millis(1),
                ..BatchingOptions::default()
            },
            ..ModelConfig::default()
        }
    }

    #[test]
    fn routes_by_name_and_rejects_unknown_models() {
        let registry = ModelRegistry::new(4);
        registry
            .register("a", &serving_descriptor("reg-a", 10, 4, 6), quick_config())
            .unwrap();
        registry
            .register("b", &serving_descriptor("reg-b", 8, 4, 4), quick_config())
            .unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), vec!["a", "b"]);
        assert_eq!(registry.epoch(), 2, "one table swap per registration");

        let ra = registry.infer("a", Tensor::zeros(vec![10, 10, 4])).unwrap();
        assert_eq!(ra.output.dims(), &[6]);
        let rb = registry.infer("b", Tensor::zeros(vec![8, 8, 4])).unwrap();
        assert_eq!(rb.output.dims(), &[4]);

        let missing = registry.infer("c", Tensor::zeros(vec![1]));
        assert!(matches!(missing, Err(ServeError::UnknownModel { name }) if name == "c"));

        let metrics = registry.metrics();
        assert_eq!(metrics.total_completed_requests, 2);
        assert_eq!(metrics.models.len(), 2);
        assert_eq!(metrics.models[0].metrics.completed_requests, 1);
        assert_eq!(metrics.models[0].generation, 1);
        assert_eq!(metrics.total_rejected_requests, 0);
        assert_eq!(metrics.models_registered_total, 2);
        assert_eq!(metrics.models_retired_total, 0);
        assert_eq!(
            metrics.plan_cache.misses, 2,
            "/metrics embeds the plan cache telemetry"
        );

        let reports = registry.shutdown();
        assert_eq!(reports.len(), 2);
        assert!(reports
            .iter()
            .all(|(_, r)| r.metrics.completed_requests == 1));
    }

    #[test]
    fn rejects_invalid_and_duplicate_names() {
        let registry = ModelRegistry::new(2);
        let descriptor = serving_descriptor("reg-names", 8, 4, 4);
        for bad in ["", "has space", "slash/y", "q?query", "p%cent"] {
            assert!(
                matches!(
                    registry.register(bad, &descriptor, quick_config()),
                    Err(ServeError::BadConfig { .. })
                ),
                "name {bad:?} must be rejected"
            );
        }
        registry
            .register("ok-1", &descriptor, quick_config())
            .unwrap();
        assert!(matches!(
            registry.register("ok-1", &descriptor, quick_config()),
            Err(ServeError::BadConfig { .. })
        ));
        // The descriptor's slug is always a valid name.
        assert!(ModelRegistry::is_valid_name(&descriptor.slug()));
    }

    #[test]
    fn same_shapes_under_different_descriptor_names_plan_separately() {
        // The plan-cache key carries the descriptor name, so two models with
        // identical shapes but different identities never share a plan entry.
        let registry = ModelRegistry::new(4);
        registry
            .register(
                "first",
                &serving_descriptor("ident-a", 10, 4, 6),
                quick_config(),
            )
            .unwrap();
        registry
            .register(
                "second",
                &serving_descriptor("ident-b", 10, 4, 6),
                quick_config(),
            )
            .unwrap();
        assert_eq!(registry.cache_stats().misses, 2);
        // Re-registering the same descriptor under a new route shares the
        // cached plan.
        registry
            .register(
                "alias",
                &serving_descriptor("ident-a", 10, 4, 6),
                quick_config(),
            )
            .unwrap();
        assert_eq!(registry.cache_stats().memory_hits, 1);
        assert_eq!(
            registry.engine("alias").unwrap().plan_outcome(),
            CacheOutcome::MemoryHit
        );
        registry.shutdown();
    }

    #[test]
    fn expiring_flood_on_one_model_does_not_inflate_a_sibling_p99() {
        let registry = ModelRegistry::new(4);
        // "expiry": a long batch delay so every impossible-deadline request
        // is released (and expired) at its own deadline instead of riding a
        // real batch; "steady": a normal low-latency sibling.
        registry
            .register(
                "expiry",
                &serving_descriptor("dl-expiry", 10, 4, 6),
                ModelConfig {
                    batching: BatchingOptions {
                        max_batch_size: 16,
                        max_batch_delay: Duration::from_millis(400),
                        ..BatchingOptions::default()
                    },
                    runtime: RuntimeOptions {
                        workers: 1,
                        ..RuntimeOptions::default()
                    },
                    ..quick_config()
                },
            )
            .unwrap();
        registry
            .register(
                "steady",
                &serving_descriptor("dl-steady", 10, 4, 6),
                quick_config(),
            )
            .unwrap();

        // Flood "expiry" with zero deadlines, already due at enqueue (a 1 ms
        // one can be met by a fast build)…
        const FLOOD: usize = 10;
        for _ in 0..FLOOD {
            let err = registry
                .infer_with_deadline(
                    "expiry",
                    Tensor::zeros(vec![10, 10, 4]),
                    Some(Duration::ZERO),
                )
                .unwrap_err();
            assert!(matches!(err, ServeError::DeadlineExceeded { .. }));
        }
        // …while "steady" keeps serving normally.
        for _ in 0..8 {
            registry
                .infer("steady", Tensor::zeros(vec![10, 10, 4]))
                .unwrap();
        }

        let metrics = registry.metrics();
        assert_eq!(metrics.total_deadline_exceeded, FLOOD as u64);
        let expiry = metrics.models.iter().find(|m| m.model == "expiry").unwrap();
        assert_eq!(expiry.metrics.deadline_exceeded, FLOOD as u64);
        assert_eq!(expiry.metrics.completed_requests, 0);
        assert_eq!(
            expiry.metrics.total_latency.count, 0,
            "expired requests must not leave latency samples behind"
        );
        let steady = metrics.models.iter().find(|m| m.model == "steady").unwrap();
        assert_eq!(steady.metrics.completed_requests, 8);
        assert_eq!(steady.metrics.deadline_exceeded, 0);
        assert!(
            steady.metrics.total_latency.p99_ms < 200.0,
            "steady p99 {:.2} ms was inflated by the sibling's expiring flood",
            steady.metrics.total_latency.p99_ms
        );
        registry.shutdown();
    }

    #[test]
    fn per_model_backends_and_metrics_stay_separate() {
        let registry = ModelRegistry::new(4);
        registry
            .register(
                "cpu",
                &serving_descriptor("mix-cpu", 10, 4, 6),
                quick_config(),
            )
            .unwrap();
        registry
            .register(
                "other",
                &serving_descriptor("mix-other", 10, 4, 6),
                quick_config(),
            )
            .unwrap();
        // Without FC layers the model answers its last convolution's
        // channels, and the listing must say so.
        let headless = ModelDescriptor {
            name: "mix-headless".into(),
            convs: vec![tdc_conv::ConvShape::same3x3(4, 8, 10, 10)],
            fc: vec![],
        };
        registry
            .register("headless", &headless, quick_config())
            .unwrap();
        let info = registry.model_info();
        assert_eq!(info[2].name, "other");
        assert_eq!(info[0].input_dims, vec![10, 10, 4]);
        assert_eq!(info[0].output_classes, 6);
        assert_eq!(info[1].name, "headless");
        assert_eq!(info[1].output_classes, 8);
        let logits = registry
            .infer("headless", Tensor::zeros(vec![10, 10, 4]))
            .unwrap();
        assert_eq!(logits.output.dims(), &[8]);
        assert_eq!(info[0].budget, 0.5);
        assert_eq!(info[0].generation, 1);

        for _ in 0..3 {
            registry
                .infer("other", Tensor::zeros(vec![10, 10, 4]))
                .unwrap();
        }
        let metrics = registry.metrics();
        let cpu = &metrics.models[0];
        let other = &metrics.models[2];
        assert_eq!(cpu.metrics.completed_requests, 0);
        assert_eq!(other.metrics.completed_requests, 3);
        assert_eq!(metrics.total_completed_requests, 3 + 1);
        registry.shutdown();
    }

    #[test]
    fn retire_unroutes_immediately_and_reports_the_drained_engine() {
        let registry = ModelRegistry::new(4);
        registry
            .register(
                "keep",
                &serving_descriptor("ret-keep", 10, 4, 6),
                quick_config(),
            )
            .unwrap();
        registry
            .register(
                "gone",
                &serving_descriptor("ret-gone", 10, 4, 6),
                quick_config(),
            )
            .unwrap();
        for _ in 0..3 {
            registry
                .infer("gone", Tensor::zeros(vec![10, 10, 4]))
                .unwrap();
        }
        let report = registry.retire("gone").unwrap();
        assert_eq!(report.metrics.completed_requests, 3);
        assert_eq!(registry.names(), vec!["keep"]);
        assert!(matches!(
            registry.infer("gone", Tensor::zeros(vec![10, 10, 4])),
            Err(ServeError::UnknownModel { .. })
        ));
        // The survivor is untouched.
        registry
            .infer("keep", Tensor::zeros(vec![10, 10, 4]))
            .unwrap();
        let metrics = registry.metrics();
        assert_eq!(metrics.models.len(), 1);
        assert_eq!(metrics.models_retired_total, 1);
        registry.shutdown();
    }
}
