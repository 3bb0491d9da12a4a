//! The live control plane: hot model lifecycle, plan hot-swap and the
//! substrate the SLO controller tunes through.
//!
//! Before this module existed the serving fleet was frozen at startup:
//! registration needed `&mut ModelRegistry`, so once the HTTP server held the
//! registry behind an `Arc` nothing could be added, removed or re-planned
//! without a process restart. The control plane unfreezes all three:
//!
//! * **Epoch-swapped model table** — [`EpochSwap`] is a small RCU-style
//!   primitive: readers take an `Arc` snapshot of the whole routing table
//!   (the critical section is one `Arc` clone — a pointer copy and a
//!   refcount bump, never a wait on planning, draining or any other writer
//!   work), writers build the next table off to the side and publish it
//!   with a single swap that bumps the table **epoch**. Requests in flight
//!   on the previous table keep serving from their snapshot; the grace
//!   period is the natural lifetime of the snapshot `Arc`s.
//! * **Hot lifecycle** — [`ControlPlane::register`] and
//!   [`ControlPlane::retire`] mutate the table through `&self`, so a live
//!   HTTP server can gain and lose models. Retire is graceful by
//!   construction: the model is unrouted first (new lookups 404), admission
//!   on its engine is closed (stale-snapshot submits get a typed
//!   [`ServeError::Closed`] → HTTP 503), the queue drains, and only then is
//!   the engine freed — every admitted request is answered.
//! * **Plan hot-swap** — [`ControlPlane::replan`] re-runs planning at new
//!   [`PlanningOptions`] and atomically swaps in a freshly built engine
//!   under the same route. In-flight requests — including submits racing
//!   through pre-swap snapshots — complete on the old plan (admission on the
//!   old engine is *not* closed; it simply drains once the last snapshot
//!   holder lets go), new requests ride the new plan: zero dropped requests
//!   across the swap boundary, pinned by a bit-parity integration test.
//! * **Controller substrate** — the multi-dimensional SLO controller
//!   (`tdc-ctrl`) plugs in here: [`ControlPlane::reconfigure_with`]
//!   generalizes the replan hot-swap to the *whole* [`ModelConfig`] (budget,
//!   batch size, batch delay, fair-share weight swap together, zero-drop),
//!   [`ControlPlane::estimate_knobs`] scores an arbitrary [`KnobSet`] on the
//!   wave simulator, and a [`TuneDriver`] installed via
//!   [`ControlPlane::set_tune_driver`] supplies the search itself
//!   (dependency-inverted so `tdc-serve` never depends on the controller
//!   crate). [`ControlPlane::watch`] runs the background watch loop on a
//!   dedicated thread: every tick compares each model's live measured p99
//!   against the controller's calibrated estimate and re-tunes through the
//!   driver when the drift leaves the configured band
//!   ([`ControllerConfig::drift_band_frac`]). Ticks are injectable
//!   ([`ControlPlane::controller_tick_with`]) so tests drive the loop with a
//!   scripted metric feed and a paused clock.
//!
//! Everything here is driven over HTTP by [`crate::http`]'s admin routes
//! (`PUT`/`DELETE /v1/models/{name}`, `POST /v1/models/{name}/replan`,
//! `POST /v1/models/{name}/tune`, `GET`/`PUT /v1/controller`) and surfaced
//! in `GET /metrics` as the table epoch plus register/retire/replan
//! counters and the controller status block.

use crate::batcher::PendingResponse;
use crate::options::PlanningOptions;
use crate::plan_cache::{CacheOutcome, PlanCache, PlanKey};
use crate::registry::{ModelConfig, ModelInfo, ModelRegistry};
use crate::server::{ServeEngine, ServeReport};
use crate::{Result, ServeError};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};
use tdc::lowering::lower_plan_with_fc;
use tdc::TdcPipeline;
use tdc_exec::{BandMetrics, Executor, ExecutorMetrics, ExecutorOptions, QosClass};
use tdc_gpu_sim::WaveEngine;
use tdc_nn::models::ModelDescriptor;
use tdc_tensor::Tensor;

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

/// An RCU-style epoch-swapped value: readers take cheap `Arc` snapshots,
/// writers publish whole replacement values.
///
/// The read path locks only long enough to clone an `Arc` — a pointer copy
/// plus a refcount increment — so readers never wait on writer *work*
/// (planning, engine builds, drains), only ever on another pointer copy.
/// Writers construct the next value entirely outside the lock and publish it
/// with [`EpochSwap::store`], which bumps a monotonically increasing
/// **epoch**. Old snapshots stay valid for as long as someone holds them:
/// the grace period of classic RCU is the `Arc` refcount reaching its
/// publisher's drop.
///
/// # Examples
///
/// ```
/// use tdc_serve::control::EpochSwap;
///
/// let table = EpochSwap::new(vec!["a"]);
/// assert_eq!(table.epoch(), 0);
/// let snapshot = table.load();
/// table.store(std::sync::Arc::new(vec!["a", "b"]));
/// assert_eq!(table.epoch(), 1);
/// // The pre-swap snapshot is still intact for whoever holds it.
/// assert_eq!(*snapshot, vec!["a"]);
/// assert_eq!(*table.load(), vec!["a", "b"]);
/// ```
pub struct EpochSwap<T> {
    current: Mutex<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> EpochSwap<T> {
    /// Wrap an initial value at epoch 0.
    pub fn new(value: T) -> Self {
        EpochSwap {
            current: Mutex::new(Arc::new(value)),
            epoch: AtomicU64::new(0),
        }
    }

    fn slot(&self) -> MutexGuard<'_, Arc<T>> {
        match self.current.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Snapshot the current value. The critical section is one `Arc` clone.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot())
    }

    /// Publish `next` as the current value and return the new epoch.
    pub fn store(&self, next: Arc<T>) -> u64 {
        let mut slot = self.slot();
        *slot = next;
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// How many times the value has been swapped since construction.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// Counters a route inherits from engines it already drained (plan
/// hot-swaps), so per-model lifetime totals survive an engine rotation.
#[derive(Default)]
pub(crate) struct RouteTotals {
    /// Requests completed by this route's previous engines.
    pub(crate) completed: AtomicU64,
    /// Deadline expiries on this route's previous engines.
    pub(crate) deadline_exceeded: AtomicU64,
}

/// One routed model: its engine plus everything needed to re-derive it
/// (descriptor and config, for replan/tune) and its admission telemetry.
pub(crate) struct RegisteredModel {
    pub(crate) engine: ServeEngine,
    pub(crate) descriptor: ModelDescriptor,
    pub(crate) config: ModelConfig,
    pub(crate) info: ModelInfo,
    /// Admission rejections. The counter belongs to the *route*, not the
    /// engine: a replan shares this very `Arc` with the replacement entry,
    /// so rejections recorded through pre-swap snapshots of the old entry
    /// keep landing on the live counter instead of dying with the old
    /// engine.
    pub(crate) rejected: Arc<AtomicU64>,
    /// Totals drained from this route's previous engines — shared across
    /// replan swaps the same way `rejected` is.
    pub(crate) prior: Arc<RouteTotals>,
}

impl RegisteredModel {
    /// Submit one input through this entry's engine, counting an admission
    /// rejection on the route's telemetry (what `/metrics` reports).
    pub(crate) fn submit_counted(
        &self,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<PendingResponse> {
        let submitted = self.engine.submit_with_deadline(input, deadline);
        if matches!(submitted, Err(ServeError::Overloaded { .. })) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        submitted
    }

    /// Submit a group atomically through this entry's engine; a whole-group
    /// admission rejection counts once per request in it.
    pub(crate) fn submit_many_counted(
        &self,
        inputs: Vec<Tensor>,
        deadline: Option<Duration>,
    ) -> Result<Vec<PendingResponse>> {
        let count = inputs.len() as u64;
        let submitted = self.engine.submit_many(inputs, deadline);
        if matches!(submitted, Err(ServeError::Overloaded { .. })) {
            self.rejected.fetch_add(count, Ordering::Relaxed);
        }
        submitted
    }
}

/// The routing table: name → model, swapped whole on every mutation.
pub(crate) type ModelTable = BTreeMap<String, Arc<RegisteredModel>>;

/// A read handle on one routed model's engine, taken from a table snapshot.
///
/// Dereferences to [`ServeEngine`], so everything the engine exposes
/// (metrics, latency reports, submits) is available through the handle. The
/// handle keeps the underlying model alive: a retire or replan waits for
/// outstanding handles to drop before freeing the old engine — which is
/// exactly what makes "drain in-flight work" automatic. Drop handles
/// promptly; do not park one across a blocking wait you do not want a
/// retire to outlast.
pub struct EngineHandle {
    entry: Arc<RegisteredModel>,
}

impl EngineHandle {
    /// The model's static description (what `GET /v1/models` lists).
    pub fn info(&self) -> &ModelInfo {
        &self.entry.info
    }

    /// Submit one input through the pinned engine, counting an admission
    /// rejection on the route's `/metrics` telemetry. Unlike resolving the
    /// model by name again, this is guaranteed to hit the same engine the
    /// handle pinned — a replan landing in between cannot split the pin and
    /// the submission across two engines.
    pub fn submit_counted(
        &self,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<PendingResponse> {
        self.entry.submit_counted(input, deadline)
    }

    /// Submit a group atomically through the pinned engine (see
    /// [`ServeEngine::submit_many`]), counting a whole-group admission
    /// rejection once per request on the route's telemetry.
    pub fn submit_many_counted(
        &self,
        inputs: Vec<Tensor>,
        deadline: Option<Duration>,
    ) -> Result<Vec<PendingResponse>> {
        self.entry.submit_many_counted(inputs, deadline)
    }

    /// The configuration the model was registered (or last re-planned) with.
    pub fn config(&self) -> &ModelConfig {
        &self.entry.config
    }

    /// The descriptor the model serves.
    pub fn descriptor(&self) -> &ModelDescriptor {
        &self.entry.descriptor
    }
}

impl Deref for EngineHandle {
    type Target = ServeEngine;

    fn deref(&self) -> &ServeEngine {
        &self.entry.engine
    }
}

/// Control-plane counter snapshot, embedded in
/// [`RegistryMetrics`](crate::registry::RegistryMetrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LifecycleCounters {
    /// Table epoch: how many times the routing table has been swapped
    /// (register + retire + replan, including controller-applied swaps).
    pub epoch: u64,
    /// Models registered over the process lifetime.
    pub models_registered_total: u64,
    /// Models retired over the process lifetime.
    pub models_retired_total: u64,
    /// Plan hot-swaps over the process lifetime (including those the
    /// controller applied).
    pub replans_total: u64,
}

/// The outcome of one plan hot-swap, serialized verbatim as the
/// `POST /v1/models/{name}/replan` reply.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplanReport {
    /// Routed model name.
    pub model: String,
    /// FLOPs budget the retired plan was selected under.
    pub old_budget: f64,
    /// FLOPs budget of the plan now serving.
    pub new_budget: f64,
    /// Fingerprint of the retired plan, hex.
    pub old_plan_fingerprint: String,
    /// Fingerprint of the plan now serving, hex.
    pub new_plan_fingerprint: String,
    /// Whether the swap actually changed the served plan (same-budget
    /// replans can be no-ops content-wise while still rotating the engine).
    pub plan_changed: bool,
    /// The model's plan generation after the swap (1 at registration,
    /// bumped once per replan).
    pub generation: u64,
    /// Table epoch after the swap.
    pub epoch: u64,
    /// How the new plan was obtained (`"memory-hit"`, `"disk-hit"`,
    /// `"miss"`).
    pub plan_outcome: String,
    /// Requests the retired engine completed over its whole lifetime —
    /// including everything that was in flight at the swap, all of which was
    /// served before the engine was freed.
    pub drained_completed_requests: u64,
}

/// The four knobs the SLO controller tunes jointly, extracted from (and
/// applicable to) a [`ModelConfig`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KnobSet {
    /// FLOPs-reduction budget the compression plan is selected under.
    pub flops_budget: f64,
    /// Dynamic batcher's maximum batch size.
    pub max_batch_size: usize,
    /// Dynamic batcher's maximum formation delay, microseconds.
    pub max_batch_delay_us: u64,
    /// Fair-share weight on the fleet executor (`RuntimeOptions::workers`).
    pub fair_share_weight: usize,
}

impl KnobSet {
    /// The knob values a config currently serves with.
    pub fn of(config: &ModelConfig) -> Self {
        KnobSet {
            flops_budget: config.planning.budget,
            max_batch_size: config.batching.max_batch_size,
            max_batch_delay_us: config.batching.max_batch_delay.as_micros() as u64,
            fair_share_weight: config.runtime.fair_share_weight(),
        }
    }

    /// `config` with these knob values written in (everything else kept).
    pub fn apply_to(&self, mut config: ModelConfig) -> ModelConfig {
        config.planning.budget = self.flops_budget;
        config.batching.max_batch_size = self.max_batch_size;
        config.batching.max_batch_delay = Duration::from_micros(self.max_batch_delay_us);
        config.runtime.workers = self.fair_share_weight;
        config
    }
}

/// Wave-simulator scoring of one [`KnobSet`] candidate.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KnobEstimate {
    /// Simulated execution time of one full batch, ms.
    pub exec_ms: f64,
    /// Modelled p99: full-batch service time plus the maximum batching wait
    /// — the tail a saturated open-loop workload converges to.
    pub p99_ms: f64,
    /// Modelled saturated throughput: `max_batch_size × weight / exec_ms`,
    /// requests per second.
    pub throughput_rps: f64,
}

/// Parameters of one controller tune ([`ControlPlane::tune`], driven by the
/// installed [`TuneDriver`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TuneRequest {
    /// The SLO: target measured p99, ms. `None` reuses the model's recorded
    /// target (or derives one from the current operating point).
    pub target_p99_ms: Option<f64>,
    /// Whether to apply the winning knobs via the zero-drop hot-swap path.
    pub apply: bool,
    /// Coordinate-descent round budget.
    pub max_rounds: u64,
}

impl Default for TuneRequest {
    fn default() -> Self {
        TuneRequest {
            target_p99_ms: None,
            apply: true,
            max_rounds: 3,
        }
    }
}

/// One knob candidate the tuner evaluated, in probe order.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TuneProbe {
    /// Coordinate-descent round (1-based).
    pub round: u64,
    /// Which knob this candidate varied.
    pub knob: String,
    /// The candidate knob values.
    pub candidate: KnobSet,
    /// Calibrated p99 estimate for the candidate, ms.
    pub estimated_p99_ms: f64,
    /// Modelled saturated throughput for the candidate, rps.
    pub estimated_throughput_rps: f64,
    /// Whether the candidate met the target SLO.
    pub feasible: bool,
    /// Whether the candidate became the incumbent.
    pub accepted: bool,
}

/// The outcome of one controller tune, serialized verbatim as the
/// `POST /v1/models/{name}/tune` reply.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TuneReport {
    /// Routed model name.
    pub model: String,
    /// The SLO the tune targeted, ms.
    pub target_p99_ms: f64,
    /// Knob values before the tune.
    pub before: KnobSet,
    /// Winning knob values.
    pub after: KnobSet,
    /// Live measured p99 that seeded the search, ms (`None` when the model
    /// had no samples yet and the search ran on the raw model).
    pub measured_p99_ms: Option<f64>,
    /// Measured/modelled scale factor applied to every estimate (1.0
    /// without measurements).
    pub calibration: f64,
    /// Calibrated p99 estimate at `after`, ms — the controller's objective
    /// value, and what the watch loop compares live p99 against.
    pub estimated_p99_ms: f64,
    /// Modelled saturated throughput at `after`, rps.
    pub estimated_throughput_rps: f64,
    /// Whether `after` meets the target SLO.
    pub converged: bool,
    /// Whether the winning knobs were applied via the hot-swap path.
    pub applied: bool,
    /// The model's plan generation after the tune (bumped iff applied).
    pub generation: u64,
    /// The model's controller tuning generation after this tune.
    pub tuning_generation: u64,
    /// Every candidate the coordinate descent evaluated, in probe order.
    pub probes: Vec<TuneProbe>,
}

/// The knob search itself, installed by the controller crate
/// ([`ControlPlane::set_tune_driver`]). Dependency-inverted: `tdc-serve`
/// defines the contract and owns the ledger; `tdc-ctrl` supplies the
/// coordinate descent. The driver receives the plane so it can score
/// candidates ([`ControlPlane::estimate_knobs`]) and apply winners
/// ([`ControlPlane::reconfigure_with`]).
pub trait TuneDriver: Send + Sync {
    /// Run one tune for `model` and return its report. Implementations must
    /// not call [`ControlPlane::tune`] (that is the caller) but may use any
    /// other plane method.
    fn tune(&self, plane: &ControlPlane, model: &str, request: &TuneRequest) -> Result<TuneReport>;
}

/// Watch-loop configuration, read live by the background thread on every
/// tick (a `PUT /v1/controller` takes effect without a restart).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ControllerConfig {
    /// Whether the watch loop acts on its ticks. A disabled loop still
    /// sleeps and polls the config, so enabling is instant.
    pub enabled: bool,
    /// Milliseconds between watch ticks.
    pub interval_ms: u64,
    /// Re-tune when `|measured_p99 − expected_p99| / expected_p99` exceeds
    /// this band.
    pub drift_band_frac: f64,
    /// Ignore models with fewer recorded latency samples than this — a
    /// freshly swapped engine must first serve enough traffic for its p99
    /// to mean anything.
    pub min_samples: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            enabled: false,
            interval_ms: 1000,
            drift_band_frac: 0.5,
            min_samples: 32,
        }
    }
}

impl ControllerConfig {
    /// Reject non-actionable values before they reach the watch loop.
    pub fn validate(&self) -> Result<()> {
        if self.interval_ms == 0 {
            return Err(ServeError::BadConfig {
                reason: "controller interval_ms must be positive".into(),
            });
        }
        if !self.drift_band_frac.is_finite() || self.drift_band_frac <= 0.0 {
            return Err(ServeError::BadConfig {
                reason: "controller drift_band_frac must be finite and positive".into(),
            });
        }
        Ok(())
    }
}

/// One model's live measurement, as fed into a controller tick — scraped
/// from the engine's own metrics on real ticks, scripted in tests.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MeasuredSlo {
    /// Measured median end-to-end latency, ms.
    pub p50_ms: f64,
    /// Measured p99 end-to-end latency, ms.
    pub p99_ms: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
}

impl MeasuredSlo {
    /// Extract the controller's view from an engine metrics snapshot.
    pub fn of(metrics: &crate::metrics::ServeMetrics) -> Self {
        MeasuredSlo {
            p50_ms: metrics.total_latency.p50_ms,
            p99_ms: metrics.total_latency.p99_ms,
            samples: metrics.total_latency.count as u64,
        }
    }
}

/// What one controller tick did — returned to tests and the watch loop.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TickReport {
    /// Models whose measurements were examined (enough samples + a tuned
    /// baseline to compare against).
    pub examined: u64,
    /// Models whose measured p99 left the drift band this tick.
    pub drifted: Vec<String>,
    /// Models the tick re-tuned through the driver (a drifted model without
    /// an installed driver records the drift but cannot re-tune).
    pub retuned: Vec<String>,
}

/// Per-model controller state, as surfaced in `GET /v1/controller` and
/// `/metrics`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelControllerStatus {
    /// Routed model name.
    pub model: String,
    /// Controller tuning generation (bumped once per recorded tune).
    pub tuning_generation: u64,
    /// The SLO the last tune targeted, ms (0 before the first tune).
    pub target_p99_ms: f64,
    /// The controller's calibrated p99 estimate for the serving config, ms
    /// — what live p99 is drift-checked against.
    pub expected_p99_ms: f64,
    /// The last tune's objective value, ms.
    pub last_objective_ms: f64,
    /// The measured p99 most recently seen by a tick or tune, ms.
    pub last_measured_p99_ms: f64,
    /// Drift-band violations recorded for this model.
    pub drift_events: u64,
    /// Deadline-aware early batch releases on the model's current engine.
    pub early_releases: u64,
    /// The knob values the model currently serves with.
    pub knobs: KnobSet,
}

/// Controller status snapshot: watch-loop config plus per-model state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ControllerStatus {
    /// The live watch-loop configuration.
    pub config: ControllerConfig,
    /// Whether a [`TuneDriver`] is installed.
    pub driver_attached: bool,
    /// Number of running watch threads (0 or 1 in practice).
    pub watchers: u64,
    /// Watch ticks executed over the process lifetime.
    pub ticks_total: u64,
    /// Controller tunes recorded over the process lifetime.
    pub tunes_total: u64,
    /// Drift-band violations recorded over the process lifetime.
    pub drift_events_total: u64,
    /// Per-model controller state, in name order.
    pub models: Vec<ModelControllerStatus>,
}

/// Ledger entry backing [`ModelControllerStatus`].
#[derive(Debug, Clone, Copy, Default)]
struct ModelControlState {
    tuning_generation: u64,
    target_p99_ms: f64,
    expected_p99_ms: f64,
    last_objective_ms: f64,
    last_measured_p99_ms: f64,
    drift_events: u64,
}

/// The controller's bookkeeping: watch config plus per-model tune state.
/// Owned by the plane (not the driver) so `/metrics` serializes it without
/// a dependency on the controller crate.
#[derive(Default)]
struct ControllerLedger {
    config: ControllerConfig,
    models: BTreeMap<String, ModelControlState>,
}

/// Handle to a running [`ControlPlane::watch`] thread. Dropping it (or
/// calling [`ControllerWatch::stop`]) signals the loop and joins the thread,
/// so the watch can never outlive its owner's scope.
pub struct ControllerWatch {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ControllerWatch {
    /// Signal the loop to exit and join its thread. Idempotent.
    pub fn stop(&mut self) {
        {
            let (lock, cvar) = &*self.stop;
            let mut stopped = match lock.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            *stopped = true;
            cvar.notify_all();
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ControllerWatch {
    fn drop(&mut self) {
        self.stop();
    }
}

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
        backend: engine.backend_name().to_string(),
        metrics: engine.metrics(),
        plan_outcome: engine.plan_outcome(),
        plan_fingerprint: engine.plan().fingerprint(),
        backend_latency: engine.backend_latency_report().clone(),
    }
}

/// The control plane: the epoch-swapped routing table plus every live
/// lifecycle operation over it.
///
/// All mutation goes through `&self`; the owner ([`ModelRegistry`]) can
/// therefore sit behind an `Arc` shared with a running HTTP server and still
/// gain, lose and re-plan models. Writers serialize on an internal mutex
/// (registrations build engines — planning included — under it, which keeps
/// duplicate-name races trivially impossible); readers never take that
/// mutex at all.
pub struct ControlPlane {
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
    /// Serializes writers (register / retire / replan / shutdown). Readers
    /// never touch it.
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
    /// The installed knob-search implementation (`tdc-ctrl`'s coordinate
    /// descent). `None` until an embedder attaches one; tune requests then
    /// fail typed (→ HTTP 400) instead of silently no-oping.
    driver: Mutex<Option<Arc<dyn TuneDriver>>>,
    /// Watch-loop config plus per-model tune state.
    controller: Mutex<ControllerLedger>,
    controller_ticks_total: AtomicU64,
    controller_tunes_total: AtomicU64,
    controller_drift_events_total: AtomicU64,
    /// Live [`ControlPlane::watch`] threads (0 or 1 in practice).
    watchers: AtomicU64,
}

impl ControlPlane {
    /// An empty control plane planning through `cache`, with a fleet
    /// executor at default options (one worker per core, clamped).
    pub fn new(cache: PlanCache) -> Self {
        let executor = Executor::new(ExecutorOptions::default()).ok().map(Arc::new);
        Self::with_optional_executor(cache, executor)
    }

    /// An empty control plane whose engines run on `executor` — used by
    /// deterministic fairness tests (paused pools) and by embedders that
    /// share one pool across several registries.
    pub fn with_executor(cache: PlanCache, executor: Arc<Executor>) -> Self {
        Self::with_optional_executor(cache, Some(executor))
    }

    fn with_optional_executor(cache: PlanCache, executor: Option<Arc<Executor>>) -> Self {
        ControlPlane {
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
            driver: Mutex::new(None),
            controller: Mutex::new(ControllerLedger::default()),
            controller_ticks_total: AtomicU64::new(0),
            controller_tunes_total: AtomicU64::new(0),
            controller_drift_events_total: AtomicU64::new(0),
            watchers: AtomicU64::new(0),
        }
    }

    /// Record a drained engine's final counters into the fleet-wide
    /// monotonic totals.
    fn note_drained(&self, metrics: &crate::metrics::ServeMetrics) {
        self.drained_completed_total
            .fetch_add(metrics.completed_requests, Ordering::Relaxed);
        self.drained_deadline_exceeded_total
            .fetch_add(metrics.deadline_exceeded, Ordering::Relaxed);
    }

    /// `(completed, deadline_exceeded)` accumulated from every engine
    /// drained so far.
    pub(crate) fn drained_totals(&self) -> (u64, u64) {
        (
            self.drained_completed_total.load(Ordering::Relaxed),
            self.drained_deadline_exceeded_total.load(Ordering::Relaxed),
        )
    }

    fn writer(&self) -> MutexGuard<'_, ()> {
        match self.writer.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The shared plan cache every registration plans through.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// The fleet executor engines are attached to (`None` only if its
    /// worker threads could not be spawned; engines then run private pools).
    pub fn executor(&self) -> Option<&Arc<Executor>> {
        self.executor.as_ref()
    }

    /// Telemetry snapshot of the fleet executor: workers, utilization,
    /// per-QoS-band queue depth and per-source counters. An
    /// all-zero snapshot when the fleet pool is absent.
    pub fn executor_metrics(&self) -> ExecutorMetrics {
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

    /// Current routing-table epoch.
    pub fn epoch(&self) -> u64 {
        self.table.epoch()
    }

    /// Lifecycle counter snapshot.
    pub fn counters(&self) -> LifecycleCounters {
        LifecycleCounters {
            epoch: self.table.epoch(),
            models_registered_total: self.registered_total.load(Ordering::Relaxed),
            models_retired_total: self.retired_total.load(Ordering::Relaxed),
            replans_total: self.replans_total.load(Ordering::Relaxed),
        }
    }

    /// Snapshot the whole routing table.
    pub(crate) fn snapshot(&self) -> Arc<ModelTable> {
        self.table.load()
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
            backend: engine.backend_name().to_string(),
            device: config.planning.device.name.clone(),
            input_dims: engine.model().input_dims().to_vec(),
            output_classes: descriptor.fc.last().map(|&(_, o)| o).unwrap_or(0),
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

    /// Register `name` on the live table and return the routed model's
    /// description plus the table epoch this registration produced. The
    /// engine (planning included) is built before the swap, so readers only
    /// ever observe fully started models. Fails with
    /// [`ServeError::BadConfig`] on an invalid or duplicate name. The
    /// returned [`ModelInfo`] and epoch describe the entry and swap of
    /// *this* call — no re-lookup needed (a racing retire could already
    /// have removed it, and a racing register could have moved the epoch
    /// on).
    pub fn register(
        &self,
        name: &str,
        descriptor: &ModelDescriptor,
        config: ModelConfig,
    ) -> Result<(ModelInfo, u64)> {
        if !ModelRegistry::is_valid_name(name) {
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
    /// admitted request, join the workers and return the final report plus
    /// the table epoch the unroute produced. Once the model is unrouted the
    /// retire always succeeds: if a snapshot holder outlives the 30 s drain
    /// budget, the report is a metrics snapshot of the closed, drained
    /// engine and the engine itself is freed when the last holder drops it.
    pub fn retire(&self, name: &str) -> Result<(ServeReport, u64)> {
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
            // below never blocks other control-plane operations.
        };
        // One deadline for both drain phases, so a retire blocks its caller
        // for at most DRAIN_TIMEOUT in total.
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        removed.engine.close_admission();
        removed
            .engine
            .wait_drained(deadline.saturating_duration_since(Instant::now()));
        // Snapshot first: if a holdout outlives the remaining budget, the
        // retire has still fully committed (unrouted, admission closed,
        // queue drained) and this snapshot is its honest report.
        let fallback = report_snapshot(&removed.engine);
        let report =
            match take_exclusive(removed, deadline.saturating_duration_since(Instant::now())) {
                Some(model) => model.engine.shutdown(),
                None => fallback,
            };
        // The drained engine's counts move into the fleet-wide monotonic
        // totals instead of vanishing from /metrics.
        self.note_drained(&report.metrics);
        Ok((report, epoch))
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

    /// [`ControlPlane::replan`], deriving the new planning options from the
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
    /// and drain the old engine — exactly [`ControlPlane::replan_with`], but
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
    /// `knobs.flops_budget` (through the probe cache, under the sim-GPU
    /// key), lowering at `knobs.max_batch_size`, and the batching-delay and
    /// fair-share-weight knobs enter the modelled p99 and throughput
    /// analytically (see [`KnobEstimate`]).
    ///
    /// The budget is the *required* FLOPs reduction: raising it shrinks the
    /// admissible rank set, and past the feasibility cliff layers fall back
    /// to dense (Algorithm 1's `NoAdmissibleRank`), so the modelled p99 is
    /// non-decreasing in `flops_budget`.
    pub fn estimate_knobs(&self, name: &str, knobs: &KnobSet) -> Result<KnobEstimate> {
        let entry = self.lookup(name)?;
        self.estimate_entry(&entry, knobs)
    }

    fn estimate_entry(&self, entry: &RegisteredModel, knobs: &KnobSet) -> Result<KnobEstimate> {
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
        let key = PlanKey::new(
            &entry.descriptor.name,
            &planning.device.name,
            // Estimates are always scored by the simulator, whatever backend
            // serves the model.
            "sim-gpu",
            &cfg,
        );
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

    fn controller(&self) -> MutexGuard<'_, ControllerLedger> {
        match self.controller.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The installed [`TuneDriver`], if any.
    pub fn tune_driver(&self) -> Option<Arc<dyn TuneDriver>> {
        match self.driver.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Install the knob search behind [`ControlPlane::tune`] (normally
    /// `tdc-ctrl`'s coordinate-descent `Controller`). Replaces any previous
    /// driver.
    pub fn set_tune_driver(&self, driver: Arc<dyn TuneDriver>) {
        let mut slot = match self.driver.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        *slot = Some(driver);
    }

    /// Run one controller tune for `name` through the installed driver and
    /// record its outcome in the ledger (tuning generation, target, expected
    /// p99). Fails typed (→ HTTP 400) when no driver is attached.
    pub fn tune(&self, name: &str, request: &TuneRequest) -> Result<TuneReport> {
        let Some(driver) = self.tune_driver() else {
            return Err(ServeError::BadConfig {
                reason: "no tune driver attached; install one with set_tune_driver \
                         (tdc-ctrl's Controller is the stock implementation)"
                    .into(),
            });
        };
        let mut report = driver.tune(self, name, request)?;
        self.note_tuned(&mut report);
        Ok(report)
    }

    /// Fold a finished tune into the ledger and stamp its tuning
    /// generation into the report.
    fn note_tuned(&self, report: &mut TuneReport) {
        {
            let mut ledger = self.controller();
            let state = ledger.models.entry(report.model.clone()).or_default();
            state.tuning_generation += 1;
            report.tuning_generation = state.tuning_generation;
            state.target_p99_ms = report.target_p99_ms;
            // The calibrated estimate at the winning knobs is what the watch
            // loop drift-checks live p99 against.
            state.expected_p99_ms = report.estimated_p99_ms;
            state.last_objective_ms = report.estimated_p99_ms;
            if let Some(measured) = report.measured_p99_ms {
                state.last_measured_p99_ms = measured;
            }
        }
        self.controller_tunes_total.fetch_add(1, Ordering::Relaxed);
    }

    /// The live watch-loop configuration.
    pub fn controller_config(&self) -> ControllerConfig {
        self.controller().config
    }

    /// Replace the watch-loop configuration; a running watch picks it up on
    /// its next tick. Returns the accepted config.
    pub fn set_controller_config(&self, config: ControllerConfig) -> Result<ControllerConfig> {
        config.validate()?;
        self.controller().config = config;
        Ok(config)
    }

    /// Controller snapshot: watch config, lifetime counters and per-model
    /// tune state joined against the live routing table (knob values and
    /// early-release counts come from the serving engines).
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
                    last_objective_ms: state.last_objective_ms,
                    last_measured_p99_ms: state.last_measured_p99_ms,
                    drift_events: state.drift_events,
                    early_releases: entry.engine.early_releases(),
                    knobs: KnobSet::of(&entry.config),
                }
            })
            .collect();
        ControllerStatus {
            config: ledger.config,
            driver_attached: self.tune_driver().is_some(),
            watchers: self.watchers.load(Ordering::Relaxed),
            ticks_total: self.controller_ticks_total.load(Ordering::Relaxed),
            tunes_total: self.controller_tunes_total.load(Ordering::Relaxed),
            drift_events_total: self.controller_drift_events_total.load(Ordering::Relaxed),
            models,
        }
    }

    /// One watch tick on live measurements: scrape every routed engine's
    /// latency metrics and hand them to
    /// [`ControlPlane::controller_tick_with`]. The scrape also calibrates
    /// each engine's deadline-aware early release: once a model has
    /// [`ControllerConfig::min_samples`] executed requests, its measured
    /// exec-latency p99 replaces the build-time simulator seed as the
    /// estimate the batcher subtracts from the earliest deadline — the
    /// fourth actuator tracks the deployment, not the model.
    pub fn controller_tick(&self) -> TickReport {
        let min_samples = self.controller_config().min_samples;
        // The table snapshot lives only for the scrape: held across the
        // re-tune below it would be the hot-swap drain's holdout, and every
        // drift re-tune would wait out `DRAIN_TIMEOUT`.
        let feed: Vec<(String, MeasuredSlo)> = self
            .table
            .load()
            .iter()
            .map(|(name, entry)| {
                let metrics = entry.engine.metrics();
                if metrics.exec_latency.count as u64 >= min_samples
                    && metrics.exec_latency.p99_ms.is_finite()
                    && metrics.exec_latency.p99_ms > 0.0
                {
                    entry.engine.set_exec_estimate(Duration::from_secs_f64(
                        metrics.exec_latency.p99_ms / 1e3,
                    ));
                }
                (name.clone(), MeasuredSlo::of(&metrics))
            })
            .collect();
        self.controller_tick_with(&feed)
    }

    /// One watch tick on an explicit measurement feed — the deterministic
    /// seam: tests script the feed and call this directly (no clock, no
    /// thread). For every tuned model with at least
    /// [`ControllerConfig::min_samples`] samples, compare measured p99
    /// against the controller's expected p99; outside the drift band, record
    /// a drift event and re-tune through the driver (the re-tune itself
    /// refreshes the expectation, closing the loop).
    pub fn controller_tick_with(&self, feed: &[(String, MeasuredSlo)]) -> TickReport {
        self.controller_ticks_total.fetch_add(1, Ordering::Relaxed);
        let mut report = TickReport::default();
        let mut retunes: Vec<(String, f64)> = Vec::new();
        {
            let mut ledger = self.controller();
            let config = ledger.config;
            for (name, slo) in feed {
                let Some(state) = ledger.models.get_mut(name) else {
                    // Never tuned: no expectation to drift from. The model
                    // enters the ledger through its first tune.
                    continue;
                };
                if slo.samples > 0 {
                    state.last_measured_p99_ms = slo.p99_ms;
                }
                if state.tuning_generation == 0 || state.expected_p99_ms <= 0.0 {
                    continue;
                }
                if slo.samples < config.min_samples {
                    // A freshly swapped engine must first serve enough
                    // traffic for its p99 to mean anything.
                    continue;
                }
                report.examined += 1;
                let drift = (slo.p99_ms - state.expected_p99_ms).abs() / state.expected_p99_ms;
                if drift > config.drift_band_frac {
                    state.drift_events += 1;
                    self.controller_drift_events_total
                        .fetch_add(1, Ordering::Relaxed);
                    report.drifted.push(name.clone());
                    retunes.push((name.clone(), state.target_p99_ms));
                }
            }
        }
        // Re-tunes run outside the ledger lock: the driver plans candidate
        // budgets and drains the old engine on apply — slow writer work that
        // must not block status reads or concurrent ticks.
        for (name, target) in retunes {
            let request = TuneRequest {
                target_p99_ms: (target > 0.0).then_some(target),
                ..TuneRequest::default()
            };
            if self.tune(&name, &request).is_ok() {
                report.retuned.push(name);
            }
        }
        report
    }

    /// Start the background watch loop on a dedicated thread: every
    /// [`ControllerConfig::interval_ms`] it re-reads the config (a
    /// `PUT /v1/controller` takes effect without a restart) and, when
    /// enabled, runs [`ControlPlane::controller_tick`]. The thread holds
    /// only a [`Weak`] registry handle, so it never keeps a torn-down
    /// registry alive; it exits on its own when the registry drops. The
    /// returned handle stops and joins the thread when dropped.
    pub fn watch(registry: &Arc<ModelRegistry>) -> ControllerWatch {
        registry.control().watchers.fetch_add(1, Ordering::Relaxed);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop_flag = Arc::clone(&stop);
        let weak: Weak<ModelRegistry> = Arc::downgrade(registry);
        let thread = std::thread::spawn(move || {
            loop {
                let interval = {
                    // Each cycle upgrades, reads the live config, and drops
                    // the strong handle again before sleeping.
                    let Some(registry) = weak.upgrade() else {
                        return;
                    };
                    Duration::from_millis(registry.control().controller_config().interval_ms.max(1))
                };
                {
                    let (lock, cvar) = &*stop_flag;
                    let stopped = match lock.lock() {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    if *stopped {
                        break;
                    }
                    let (stopped, _timeout) = match cvar.wait_timeout(stopped, interval) {
                        Ok(outcome) => outcome,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    if *stopped {
                        break;
                    }
                }
                let Some(registry) = weak.upgrade() else {
                    return;
                };
                if registry.control().controller_config().enabled {
                    registry.control().controller_tick();
                }
            }
            if let Some(registry) = weak.upgrade() {
                registry.control().watchers.fetch_sub(1, Ordering::Relaxed);
            }
        });
        ControllerWatch {
            stop,
            thread: Some(thread),
        }
    }

    /// Retire every model: swap in an empty table, then drain and free each
    /// engine, returning the final reports in name order.
    pub(crate) fn shutdown_all(&self) -> Vec<(String, ServeReport)> {
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
            .map(|(name, entry)| {
                // Same single per-engine drain budget as retire(): the two
                // phases share one deadline.
                let deadline = Instant::now() + DRAIN_TIMEOUT;
                entry.engine.close_admission();
                entry
                    .engine
                    .wait_drained(deadline.saturating_duration_since(Instant::now()));
                // Snapshot first: if a holdout reference outlives the
                // timeout below, this is still an accurate final report (the
                // queue is closed and drained), and the engine joins its
                // workers when the last holder drops it.
                let fallback = report_snapshot(&entry.engine);
                let report =
                    match take_exclusive(entry, deadline.saturating_duration_since(Instant::now()))
                    {
                        Some(model) => model.engine.shutdown(),
                        None => fallback,
                    };
                self.note_drained(&report.metrics);
                (name, report)
            })
            .collect()
    }

    /// Wrap one model lookup in a read handle.
    pub fn engine(&self, name: &str) -> Result<EngineHandle> {
        Ok(EngineHandle {
            entry: self.lookup(name)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::BatchingOptions;
    use crate::serving_descriptor;

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

    fn plane() -> ControlPlane {
        ControlPlane::new(PlanCache::new(8))
    }

    #[test]
    fn epoch_swap_snapshots_are_immutable_and_epochs_monotonic() {
        let swap = EpochSwap::new(1u32);
        assert_eq!(swap.epoch(), 0);
        let old = swap.load();
        assert_eq!(swap.store(Arc::new(2)), 1);
        assert_eq!(swap.store(Arc::new(3)), 2);
        assert_eq!(*old, 1, "pre-swap snapshots must stay intact");
        assert_eq!(*swap.load(), 3);
        assert_eq!(swap.epoch(), 2);
    }

    #[test]
    fn register_and_retire_mutate_through_a_shared_reference() {
        let plane = plane();
        let descriptor = serving_descriptor("ctl-life", 8, 4, 4);
        plane.register("life", &descriptor, quick_config()).unwrap();
        assert_eq!(plane.epoch(), 1);
        assert_eq!(plane.counters().models_registered_total, 1);

        // The handle routes, serves and reports.
        let handle = plane.engine("life").unwrap();
        assert_eq!(handle.info().name, "life");
        assert_eq!(handle.info().generation, 1);
        let response = handle
            .infer(tdc_tensor::Tensor::zeros(vec![8, 8, 4]))
            .unwrap();
        assert_eq!(response.output.dims(), &[4]);
        drop(handle);

        let report = plane.retire("life").unwrap();
        let (report, epoch) = report;
        assert_eq!(report.metrics.completed_requests, 1);
        assert_eq!(epoch, 2);
        assert_eq!(plane.epoch(), 2);
        assert_eq!(plane.counters().models_retired_total, 1);
        assert!(matches!(
            plane.engine("life"),
            Err(ServeError::UnknownModel { .. })
        ));
        assert!(matches!(
            plane.retire("life"),
            Err(ServeError::UnknownModel { .. })
        ));
    }

    #[test]
    fn replan_swaps_the_plan_and_preserves_the_rejection_counter() {
        let plane = plane();
        // Large enough that different budgets select different plans.
        let descriptor = serving_descriptor("ctl-replan", 12, 8, 10);
        plane.register("rp", &descriptor, quick_config()).unwrap();
        let before = plane.engine("rp").unwrap().info().clone();
        plane
            .lookup("rp")
            .unwrap()
            .rejected
            .store(7, Ordering::Relaxed);

        // 0.9 demands more reduction than several layers can deliver, so the
        // selection genuinely changes (0.3 vs 0.5 would pick the same
        // fastest-admissible ranks on a model this small).
        let report = plane
            .replan(
                "rp",
                PlanningOptions {
                    budget: 0.9,
                    ..PlanningOptions::default()
                },
            )
            .unwrap();
        assert_eq!(report.old_budget, 0.5);
        assert_eq!(report.new_budget, 0.9);
        assert_eq!(report.generation, 2);
        assert!(report.plan_changed, "0.5 → 0.9 must select a new plan");
        assert_ne!(report.new_plan_fingerprint, before.plan_fingerprint);

        let after = plane.engine("rp").unwrap();
        assert_eq!(after.info().generation, 2);
        assert_eq!(after.info().budget, 0.9);
        assert_eq!(
            after.entry.rejected.load(Ordering::Relaxed),
            7,
            "the rejection counter must survive the swap"
        );
        assert_eq!(plane.counters().replans_total, 1);
        drop(after);
        plane.shutdown_all();
    }

    #[test]
    fn rejections_recorded_through_pre_swap_snapshots_are_not_lost() {
        // The counter belongs to the route: a holder of the OLD entry (a
        // pre-swap table snapshot) recording a rejection while the replan
        // drains must land on the same counter the NEW entry reports.
        let plane = Arc::new(plane());
        let descriptor = serving_descriptor("ctl-rej", 12, 8, 10);
        plane.register("rj", &descriptor, quick_config()).unwrap();
        let old_entry = plane.lookup("rj").unwrap();

        let swapper = {
            let plane = Arc::clone(&plane);
            std::thread::spawn(move || {
                plane
                    .replan(
                        "rj",
                        PlanningOptions {
                            budget: 0.9,
                            ..PlanningOptions::default()
                        },
                    )
                    .unwrap()
            })
        };
        // Give the replan time to build and publish the new entry; our
        // `old_entry` Arc is now the drain's holdout.
        std::thread::sleep(Duration::from_millis(100));
        old_entry.rejected.fetch_add(3, Ordering::Relaxed);
        drop(old_entry);
        let report = swapper.join().unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(
            plane
                .engine("rj")
                .unwrap()
                .entry
                .rejected
                .load(Ordering::Relaxed),
            3,
            "a rejection recorded through the draining old entry must \
             surface on the live route counter"
        );
        plane.shutdown_all();
    }
}
