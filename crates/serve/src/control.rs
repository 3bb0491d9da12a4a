//! The control-plane vocabulary: the epoch-swap primitive, the routed-model
//! entry and the types the SLO controller speaks.
//!
//! The operations themselves — hot register / retire, plan hot-swap, knob
//! scoring, tune — are methods of [`ModelRegistry`], the one owner of the
//! model table; this module holds what they are built from and what they
//! exchange:
//!
//! * **[`EpochSwap`]** — a small RCU-style primitive: readers take an `Arc`
//!   snapshot of the whole routing table and never wait on writer work,
//!   writers publish whole replacement tables with one swap that bumps the
//!   table **epoch**.
//! * **[`EngineHandle`]** — a read handle pinning one routed model's engine;
//!   retire and replan wait for outstanding handles before freeing it.
//! * **[`KnobSet`] / [`KnobEstimate`] / [`TuneRequest`] / [`TuneReport`]** —
//!   the four jointly tuned knobs, their wave-simulator score, and one
//!   tune's parameters and outcome — plus the calibrated coordinate descent
//!   that produces them, the body of [`ModelRegistry::tune`].
//! * **[`ControllerStatus`]** — the tune ledger's snapshot: the tune
//!   counter plus each model's last target, expected and measured p99.
//!
//! The controller tunes on request only: nothing re-tunes in the
//! background. Everything here is driven over HTTP by [`crate::http`]'s
//! admin routes (`PUT`/`DELETE /v1/models/{name}`,
//! `POST /v1/models/{name}/replan`, `POST /v1/models/{name}/tune`) and
//! surfaced in `GET /metrics` as the table epoch plus
//! register/retire/replan counters and the controller status block.

use crate::batcher::PendingResponse;
use crate::registry::{ModelConfig, ModelInfo, ModelRegistry};
use crate::server::ServeEngine;
use crate::{Result, ServeError};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use tdc_nn::models::ModelDescriptor;
use tdc_tensor::Tensor;

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
    pub(crate) entry: Arc<RegisteredModel>,
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

/// Parameters of one controller tune ([`ModelRegistry::tune`]).
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
    /// value.
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

// Bounds and step sizes of the coordinate descent. They keep every
// candidate inside the ranges the serving layer validates, so a probe can
// only fail on planning itself (and such candidates are simply skipped).
/// Budget perturbations tried per round, each in both directions.
const BUDGET_STEPS: [f64; 2] = [0.05, 0.15];
const MIN_BUDGET: f64 = 0.02;
const MAX_BUDGET: f64 = 0.98;
const MAX_BATCH_SIZE: usize = 64;
/// Longest batch-formation delay a candidate may propose, µs.
const MAX_BATCH_DELAY_US: u64 = 8_000;
const MAX_FAIR_SHARE_WEIGHT: usize = 4;
/// Calibration is clamped into `[1/limit, limit]` so one absurd measurement
/// (a cold start, a stalled scrape) cannot catapult every estimate out of
/// range.
const CALIBRATION_LIMIT: f64 = 100.0;
/// Fewest measured latency samples a model needs before its p99 calibrates
/// the simulator, so a handful of warm-up requests cannot set the scale.
const MIN_SAMPLES: u64 = 32;

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

/// Budget candidates around `knobs`, quantized to 1e-3 (stable plan-cache
/// keys) and clipped to the searched range.
fn budget_candidates(knobs: &KnobSet) -> Vec<KnobSet> {
    let round3 = |b: f64| (b * 1e3).round() / 1e3;
    let mut out = Vec::new();
    for step in BUDGET_STEPS {
        for dir in [-1.0, 1.0] {
            let budget = round3((knobs.flops_budget + dir * step).clamp(MIN_BUDGET, MAX_BUDGET));
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
fn batch_candidates(knobs: &KnobSet) -> Vec<KnobSet> {
    [knobs.max_batch_size / 2, knobs.max_batch_size * 2]
        .into_iter()
        .map(|b| b.clamp(1, MAX_BATCH_SIZE))
        .filter(|&b| b != knobs.max_batch_size)
        .map(|b| KnobSet {
            max_batch_size: b,
            ..*knobs
        })
        .collect()
}

/// Delay candidates: halve and double (a zero delay steps up to 100 µs,
/// sub-100 µs delays step down to zero), capped at the searched maximum.
fn delay_candidates(knobs: &KnobSet) -> Vec<KnobSet> {
    let d = knobs.max_batch_delay_us;
    let down = if d < 100 { 0 } else { d / 2 };
    let up = if d == 0 {
        100
    } else {
        (d * 2).min(MAX_BATCH_DELAY_US)
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

/// Weight candidates: one step down and one step up, clamped to `[1, max]`.
fn weight_candidates(knobs: &KnobSet) -> Vec<KnobSet> {
    [
        knobs.fair_share_weight.saturating_sub(1).max(1),
        (knobs.fair_share_weight + 1).min(MAX_FAIR_SHARE_WEIGHT),
    ]
    .into_iter()
    .filter(|&w| w != knobs.fair_share_weight)
    .map(|w| KnobSet {
        fair_share_weight: w,
        ..*knobs
    })
    .collect()
}

/// The body of [`ModelRegistry::tune`]: calibrated coordinate descent over
/// `(flops_budget, max_batch_size, max_batch_delay_us, fair_share_weight)`,
/// every candidate scored by [`ModelRegistry::estimate_knobs`] and the winner
/// applied through [`ModelRegistry::reconfigure_with`].
///
/// **Measurement closes the loop.** The simulator does not know the host, so
/// every tune first scrapes the model's measured p99 and scales every
/// candidate's modelled p99 by `measured / modelled` at the current operating
/// point before comparing it with the target.
///
/// Objective, lexicographic: a candidate whose calibrated p99 meets the
/// target beats any that misses it; among feasible candidates the higher
/// modelled throughput wins (ties to the lower p99); among infeasible ones
/// the lower p99 wins — so an over-committed model first climbs back inside
/// its SLO, then spends the remaining headroom on throughput.
pub(crate) fn tune(
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
    let recorded_target = registry
        .controller()
        .models
        .get(model)
        .map(|m| m.target_p99_ms)
        .filter(|t| *t > 0.0);
    // Calibration anchors the simulator to the deployment.
    let calibration = match measured_p99_ms {
        Some(measured)
            if metrics.total_latency.count as u64 >= MIN_SAMPLES && base.p99_ms > 0.0 =>
        {
            (measured / base.p99_ms).clamp(1.0 / CALIBRATION_LIMIT, CALIBRATION_LIMIT)
        }
        _ => 1.0,
    };
    // Without an explicit target, fall back to the ledger's recorded one (a
    // re-tune), then to the current calibrated operating point (a cold tune
    // holds the line and optimizes throughput under it).
    let target_ms = request
        .target_p99_ms
        .or(recorded_target)
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
            ("flops_budget", budget_candidates(&incumbent.knobs)),
            ("max_batch_size", batch_candidates(&incumbent.knobs)),
            ("max_batch_delay_us", delay_candidates(&incumbent.knobs)),
            ("fair_share_weight", weight_candidates(&incumbent.knobs)),
        ];
        for (knob, candidates) in dimensions {
            for candidate in candidates {
                // A candidate the planner rejects (e.g. no admissible rank at
                // that budget) is skipped, not fatal: the search routes
                // around infeasible corners.
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

    let after = incumbent.knobs;
    let mut applied = false;
    if request.apply && after != before {
        let report = registry.reconfigure_with(model, move |config| after.apply_to(config))?;
        generation = report.generation;
        applied = true;
    }
    // The ledger records a tune only when its `after` knobs are what serves
    // now: an expectation for knobs a dry run left unapplied would describe
    // a config nobody runs.
    let tuning_generation = {
        let mut ledger = registry.controller();
        if applied || after == before {
            ledger.tunes_total += 1;
            let state = ledger.models.entry(model.to_string()).or_default();
            state.tuning_generation += 1;
            state.target_p99_ms = target_ms;
            state.expected_p99_ms = incumbent.calibrated_p99_ms;
            if let Some(measured) = measured_p99_ms {
                state.last_measured_p99_ms = measured;
            }
            state.tuning_generation
        } else {
            ledger.models.get(model).map_or(0, |m| m.tuning_generation)
        }
    };
    Ok(TuneReport {
        model: model.to_string(),
        target_p99_ms: target_ms,
        before,
        after,
        measured_p99_ms,
        calibration,
        estimated_p99_ms: incumbent.calibrated_p99_ms,
        estimated_throughput_rps: incumbent.estimate.throughput_rps,
        converged: incumbent.feasible(target_ms),
        applied,
        generation,
        tuning_generation,
        probes,
    })
}

/// Per-model controller state, as surfaced in `/metrics`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelControllerStatus {
    /// Routed model name.
    pub model: String,
    /// Controller tuning generation (bumped once per recorded tune).
    pub tuning_generation: u64,
    /// The SLO the last tune targeted, ms (0 before the first tune).
    pub target_p99_ms: f64,
    /// The last tune's calibrated p99 estimate for the serving config, ms.
    pub expected_p99_ms: f64,
    /// The measured p99 the last tune calibrated against, ms.
    pub last_measured_p99_ms: f64,
    /// The knob values the model currently serves with.
    pub knobs: KnobSet,
}

/// Controller status snapshot: the tune counter plus per-model state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ControllerStatus {
    /// Controller tunes recorded over the process lifetime.
    pub tunes_total: u64,
    /// Per-model controller state, in name order.
    pub models: Vec<ModelControllerStatus>,
}

/// Ledger entry backing [`ModelControllerStatus`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ModelControlState {
    pub(crate) tuning_generation: u64,
    pub(crate) target_p99_ms: f64,
    pub(crate) expected_p99_ms: f64,
    pub(crate) last_measured_p99_ms: f64,
}

/// The controller's bookkeeping: per-model tune state and the lifetime tune
/// counter, behind the registry's one controller lock.
#[derive(Default)]
pub(crate) struct ControllerLedger {
    pub(crate) models: BTreeMap<String, ModelControlState>,
    pub(crate) tunes_total: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{BatchingOptions, PlanningOptions};
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

    fn registry() -> ModelRegistry {
        ModelRegistry::new(8)
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
        let registry = registry();
        let descriptor = serving_descriptor("ctl-life", 8, 4, 4);
        registry
            .register("life", &descriptor, quick_config())
            .unwrap();
        assert_eq!(registry.epoch(), 1);
        assert_eq!(registry.metrics().models_registered_total, 1);

        // The handle routes, serves and reports.
        let handle = registry.engine("life").unwrap();
        assert_eq!(handle.info().name, "life");
        assert_eq!(handle.info().generation, 1);
        let response = handle
            .infer(tdc_tensor::Tensor::zeros(vec![8, 8, 4]))
            .unwrap();
        assert_eq!(response.output.dims(), &[4]);
        drop(handle);

        let (report, epoch) = registry.retire_at_epoch("life").unwrap();
        assert_eq!(report.metrics.completed_requests, 1);
        assert_eq!(epoch, 2);
        assert_eq!(registry.epoch(), 2);
        assert_eq!(registry.metrics().models_retired_total, 1);
        assert!(matches!(
            registry.engine("life"),
            Err(ServeError::UnknownModel { .. })
        ));
        assert!(matches!(
            registry.retire("life"),
            Err(ServeError::UnknownModel { .. })
        ));
    }

    #[test]
    fn replan_swaps_the_plan_and_preserves_the_rejection_counter() {
        let registry = registry();
        // Large enough that different budgets select different plans.
        let descriptor = serving_descriptor("ctl-replan", 12, 8, 10);
        registry
            .register("rp", &descriptor, quick_config())
            .unwrap();
        let before = registry.engine("rp").unwrap().info().clone();
        registry
            .lookup("rp")
            .unwrap()
            .rejected
            .store(7, Ordering::Relaxed);

        // 0.9 demands more reduction than several layers can deliver, so the
        // selection genuinely changes (0.3 vs 0.5 would pick the same
        // fastest-admissible ranks on a model this small).
        let report = registry
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

        let after = registry.engine("rp").unwrap();
        assert_eq!(after.info().generation, 2);
        assert_eq!(after.info().budget, 0.9);
        assert_eq!(
            after.entry.rejected.load(Ordering::Relaxed),
            7,
            "the rejection counter must survive the swap"
        );
        assert_eq!(registry.metrics().replans_total, 1);
        drop(after);
        registry.shutdown();
    }

    #[test]
    fn rejections_recorded_through_pre_swap_snapshots_are_not_lost() {
        // The counter belongs to the route: a holder of the OLD entry (a
        // pre-swap table snapshot) recording a rejection while the replan
        // drains must land on the same counter the NEW entry reports.
        let registry = Arc::new(registry());
        let descriptor = serving_descriptor("ctl-rej", 12, 8, 10);
        registry
            .register("rj", &descriptor, quick_config())
            .unwrap();
        let old_entry = registry.lookup("rj").unwrap();

        let swapper = {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                registry
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
            registry
                .engine("rj")
                .unwrap()
                .entry
                .rejected
                .load(Ordering::Relaxed),
            3,
            "a rejection recorded through the draining old entry must \
             surface on the live route counter"
        );
        Arc::into_inner(registry)
            .expect("the swapper thread has been joined")
            .shutdown();
    }
}
