//! Trace replay: driving a live [`ModelRegistry`] with a generated
//! [`Trace`], firing scripted faults on the trace clock, and accounting
//! for every request.
//!
//! The runner is open-loop: a dispatch pass walks the trace sleeping to
//! each event's (scaled) timestamp and submits without waiting, then a
//! collection pass waits every admitted request in submission order.
//! Request inputs are derived from the spec seed and the event index —
//! not from a shared stream — so the same trace always submits the same
//! tensors regardless of timing, and a replay after a fault run can be
//! compared bit-for-bit against a fault-free run via
//! [`ReplayReport::output_fingerprint`].
//!
//! Accounting is the harness's core invariant: every dispatched sample
//! lands in exactly one of `submitted` (admitted) or `shed`
//! (typed `Overloaded` at admission), and every admitted sample in
//! exactly one of `completed`, `expired` (typed `DeadlineExceeded`) or
//! `failed` (typed `ExecutionFailed`). Anything else a client could
//! observe is recorded in [`ReplayReport::unexpected`] — chaos scenarios
//! assert it stays empty.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tdc_serve::{
    serving_descriptor, BackendKind, BatchingOptions, LatencySummary, ModelConfig, ModelRegistry,
    PendingResponse, RuntimeOptions, ServeError,
};
use tdc_tensor::{init, Tensor};

use crate::fault::FaultInjector;
use crate::spec::{FaultAction, WorkloadSpec};
use crate::trace::{fnv1a, Fnv1a, Trace};

/// How the runner builds engines and paces the trace.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Execution backend for every model.
    pub backend: BackendKind,
    /// Fair-share weight / worker count per model.
    pub workers: usize,
    /// Maximum requests per batch.
    pub max_batch_size: usize,
    /// Longest the oldest queued request waits for batch-mates.
    pub max_batch_delay: Duration,
    /// Admission bound per model. `None` sizes the queue to the whole
    /// trace, so a conforming replay never sheds — the right setting for
    /// determinism-sensitive runs (the replay pin, bit-parity
    /// checks). Chaos scenarios set it low on purpose.
    pub max_queue_depth: Option<usize>,
    /// Trace-time multiplier: wall-clock gap = virtual gap × scale.
    /// `1.0` replays in real time; below 1 compresses the trace.
    pub time_scale: f64,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            backend: BackendKind::Cpu,
            workers: 2,
            max_batch_size: 8,
            max_batch_delay: Duration::from_millis(2),
            max_queue_depth: None,
            time_scale: 1.0,
        }
    }
}

/// A registry built from a workload spec, plus the fault-injector
/// handles the replay loop arms on the trace clock.
pub struct LabDeployment {
    /// The live registry serving the spec's model zoo.
    pub registry: ModelRegistry,
    /// One injector handle per model named by a fault in the spec.
    pub injectors: HashMap<String, FaultInjector>,
}

/// Build a registry serving `spec`'s model zoo, wiring a [`FaultInjector`]
/// into every model the spec's fault script targets.
pub fn deploy(
    spec: &WorkloadSpec,
    trace: &Trace,
    options: &ReplayOptions,
) -> Result<LabDeployment, ServeError> {
    let registry = ModelRegistry::new(spec.models.len().max(2));
    let mut injectors = HashMap::new();
    let per_model_samples = trace.per_model_samples(spec.models.len());
    for (index, model) in spec.models.iter().enumerate() {
        let needs_injector = spec
            .faults
            .iter()
            .any(|f| f.action.model() == model.name.as_str());
        let wrapper = if needs_injector {
            let injector = FaultInjector::new();
            injectors.insert(model.name.clone(), injector.clone());
            Some(Arc::new(injector) as Arc<dyn tdc_serve::BackendWrapper>)
        } else {
            None
        };
        let queue_depth = options
            .max_queue_depth
            .unwrap_or(per_model_samples[index] as usize + 16);
        let config = ModelConfig {
            batching: BatchingOptions {
                max_batch_size: options.max_batch_size,
                max_batch_delay: options.max_batch_delay,
                max_queue_depth: queue_depth.max(1),
                ..BatchingOptions::default()
            },
            runtime: RuntimeOptions {
                workers: options.workers,
                qos: model.qos.unwrap_or_default(),
                backend: options.backend,
                ..RuntimeOptions::default()
            },
            backend_wrapper: wrapper,
            ..ModelConfig::default()
        };
        let descriptor = serving_descriptor(
            &model.name,
            model.spatial,
            model.base_channels,
            model.classes,
        );
        registry.register(&model.name, &descriptor, config)?;
    }
    Ok(LabDeployment {
        registry,
        injectors,
    })
}

/// Everything one replay observed, client-side.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Trace events dispatched.
    pub events: u64,
    /// Samples dispatched (`submitted + shed`).
    pub requests: u64,
    /// Samples admitted past the queue door.
    pub submitted: u64,
    /// Samples shed at admission with typed `Overloaded`.
    pub shed: u64,
    /// Admitted samples served successfully.
    pub completed: u64,
    /// Admitted samples expired with typed `DeadlineExceeded`.
    pub expired: u64,
    /// Admitted samples failed with typed `ExecutionFailed`.
    pub failed: u64,
    /// Any client-visible outcome *outside* the typed contract — chaos
    /// scenarios assert this stays empty.
    pub unexpected: Vec<String>,
    /// FNV-1a over the completed outputs' `f32` bits in submission order
    /// (sheds/expiries/failures contribute a fixed marker, so parity
    /// comparisons also require identical outcome patterns).
    pub output_fingerprint: u64,
    /// Wall-clock seconds from first dispatch to last collected wait.
    pub elapsed_s: f64,
    /// Completed samples per wall-clock second.
    pub throughput_rps: f64,
    /// Highest per-model p99 total latency among models that completed
    /// work in this replay, ms — over this replay's responses only, not the
    /// engines' lifetime.
    pub p99_ms: f64,
    /// Median total latency of the model that completed the most samples in
    /// this replay, over this replay's responses, ms.
    pub p50_ms: f64,
}

enum SampleOutcome {
    /// Admitted for the model at this index of the spec.
    Admitted(usize, PendingResponse),
    Shed,
}

/// Replay `trace` against a deployed registry, arming `injectors` as the
/// trace clock passes each fault's `at_ms`.
pub fn replay(
    deployment: &LabDeployment,
    spec: &WorkloadSpec,
    trace: &Trace,
    options: &ReplayOptions,
) -> ReplayReport {
    let started = Instant::now();
    let mut pending: Vec<SampleOutcome> = Vec::with_capacity(trace.total_samples() as usize);
    let mut shed = 0u64;
    let mut unexpected = Vec::new();
    let mut next_fault = 0usize;

    for (index, event) in trace.events.iter().enumerate() {
        // Fire every scripted fault whose timestamp the trace clock has
        // reached.
        while next_fault < spec.faults.len()
            && spec.faults[next_fault].at_ms * 1000 <= event.timestamp_us
        {
            let fault = &spec.faults[next_fault];
            if let Some(injector) = deployment.injectors.get(fault.action.model()) {
                match &fault.action {
                    FaultAction::BackendPanic { count, .. } => injector.arm_panics(*count),
                    FaultAction::BackendError { count, .. } => injector.arm_errors(*count),
                    FaultAction::BackendDelay {
                        count, delay_ms, ..
                    } => injector.arm_delays(*count, Duration::from_millis(*delay_ms)),
                }
            }
            next_fault += 1;
        }

        // Open-loop pacing on the scaled trace clock.
        let due = Duration::from_micros((event.timestamp_us as f64 * options.time_scale) as u64);
        let now = started.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }

        let model = &spec.models[event.model];
        let inputs = event_inputs(spec, event.model, index, event.samples, model.spatial);
        let deadline = event.deadline_ms.map(Duration::from_millis);
        match deployment
            .registry
            .submit_many(&model.name, inputs, deadline)
        {
            Ok(handles) => pending.extend(
                handles
                    .into_iter()
                    .map(|handle| SampleOutcome::Admitted(event.model, handle)),
            ),
            Err(ServeError::Overloaded { .. }) => {
                shed += event.samples as u64;
                pending.extend((0..event.samples).map(|_| SampleOutcome::Shed));
            }
            Err(other) => {
                shed += event.samples as u64;
                unexpected.push(format!(
                    "event {index} ({}): untyped admission failure: {other}",
                    model.name
                ));
                pending.extend((0..event.samples).map(|_| SampleOutcome::Shed));
            }
        }
    }

    // Collection pass: wait every admitted sample in submission order and
    // fingerprint the outcome stream.
    let mut completed = 0u64;
    let mut expired = 0u64;
    let mut failed = 0u64;
    let mut submitted = 0u64;
    let mut hasher = Fnv1a::new();
    // This replay's end-to-end latencies, per model.
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); spec.models.len()];
    for (index, outcome) in pending.into_iter().enumerate() {
        match outcome {
            SampleOutcome::Shed => hasher.update(b"shed"),
            SampleOutcome::Admitted(model, handle) => {
                submitted += 1;
                match handle.wait() {
                    Ok(response) => {
                        completed += 1;
                        latencies[model].push(response.total_ms());
                        for value in response.output.data() {
                            hasher.update(&value.to_bits().to_le_bytes());
                        }
                    }
                    Err(ServeError::DeadlineExceeded { .. }) => {
                        expired += 1;
                        hasher.update(b"expired");
                    }
                    Err(ServeError::ExecutionFailed { .. }) => {
                        failed += 1;
                        hasher.update(b"failed");
                    }
                    Err(other) => {
                        failed += 1;
                        hasher.update(b"unexpected");
                        unexpected.push(format!("sample {index}: untyped failure: {other}"));
                    }
                }
            }
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64();

    let mut p99_ms = 0.0f64;
    let mut p50_ms = 0.0f64;
    let mut busiest = 0usize;
    for samples in latencies.iter().filter(|samples| !samples.is_empty()) {
        let summary = LatencySummary::from_samples(samples);
        p99_ms = p99_ms.max(summary.p99_ms);
        if summary.count >= busiest {
            busiest = summary.count;
            p50_ms = summary.p50_ms;
        }
    }

    ReplayReport {
        events: trace.events.len() as u64,
        requests: submitted + shed,
        submitted,
        shed,
        completed,
        expired,
        failed,
        unexpected,
        output_fingerprint: hasher.finish(),
        elapsed_s,
        throughput_rps: if elapsed_s > 0.0 {
            completed as f64 / elapsed_s
        } else {
            0.0
        },
        p99_ms,
        p50_ms,
    }
}

/// Deterministic inputs for one trace event: seeded by the spec seed, the
/// model index and the event index, so any replay of the same trace
/// submits bit-identical tensors — independent of wall-clock timing.
pub fn event_inputs(
    spec: &WorkloadSpec,
    model: usize,
    event_index: usize,
    samples: usize,
    spatial: usize,
) -> Vec<Tensor> {
    let mut key = [0u8; 24];
    key[..8].copy_from_slice(&spec.seed.to_le_bytes());
    key[8..16].copy_from_slice(&(model as u64).to_le_bytes());
    key[16..].copy_from_slice(&(event_index as u64).to_le_bytes());
    let mut rng = StdRng::seed_from_u64(fnv1a(&key));
    let base = spec.models[model].base_channels;
    (0..samples)
        .map(|_| init::uniform(vec![spatial, spatial, base], -1.0, 1.0, &mut rng))
        .collect()
}

/// Engine-side totals after a drain, for reconciliation against the
/// client-side [`ReplayReport`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryTotals {
    /// Requests admitted, summed over models (current generation).
    pub submitted: u64,
    /// Requests completed (current generation).
    pub completed: u64,
    /// Requests expired (current generation).
    pub expired: u64,
    /// Requests failed (current generation).
    pub failed: u64,
    /// Requests shed at admission (route lifetime).
    pub rejected: u64,
}

/// Check the engine-side accounting invariant — for every model,
/// `submitted == completed + deadline_exceeded + failed` — and return the
/// summed totals. The totals are per plan generation, so they compare
/// against the *sum* of every replay run on this deployment since the
/// last replan.
pub fn reconcile(registry: &ModelRegistry) -> Result<RegistryTotals, String> {
    let metrics = registry.metrics();
    let mut totals = RegistryTotals {
        submitted: 0,
        completed: 0,
        expired: 0,
        failed: 0,
        rejected: 0,
    };
    for entry in &metrics.models {
        let m = &entry.metrics;
        let accounted = m.completed_requests + m.deadline_exceeded + m.failed_requests;
        if m.submitted_requests != accounted {
            return Err(format!(
                "model {}: submitted {} != completed {} + expired {} + failed {}",
                entry.model,
                m.submitted_requests,
                m.completed_requests,
                m.deadline_exceeded,
                m.failed_requests
            ));
        }
        totals.submitted += m.submitted_requests;
        totals.completed += m.completed_requests;
        totals.expired += m.deadline_exceeded;
        totals.failed += m.failed_requests;
        totals.rejected += entry.rejected_requests;
    }
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use crate::trace::generate;

    fn quick_spec() -> WorkloadSpec {
        WorkloadSpec::parse(
            r#"{"name": "runner-unit", "seed": 11,
                "models": [{"name": "ru-m", "spatial": 8, "base_channels": 4, "classes": 4}],
                "size_mix": {"kind": "bounded-pareto", "alpha": 1.5, "min": 1, "max": 3},
                "phases": [{"label": "p", "duration_ms": 120,
                            "arrival": {"kind": "uniform", "rate_hz": 250}}]}"#,
        )
        .expect("spec")
    }

    #[test]
    fn fault_free_replay_reconciles_and_repeats() {
        let spec = quick_spec();
        let trace = generate(&spec);
        let options = ReplayOptions::default();
        let deployment = deploy(&spec, &trace, &options).expect("deploy");
        let first = replay(&deployment, &spec, &trace, &options);
        assert!(first.unexpected.is_empty(), "{:?}", first.unexpected);
        assert_eq!(first.shed, 0);
        assert_eq!(first.failed, 0);
        assert_eq!(first.expired, 0);
        assert_eq!(first.completed, trace.total_samples());

        let second = replay(&deployment, &spec, &trace, &options);
        assert_eq!(
            first.output_fingerprint, second.output_fingerprint,
            "same trace on the same deployment must be bit-identical"
        );

        let totals = reconcile(&deployment.registry).expect("reconcile");
        assert_eq!(totals.submitted, first.submitted + second.submitted);
        assert_eq!(totals.rejected, 0);
    }

    #[test]
    fn each_replay_reports_percentiles_over_its_own_responses() {
        // The first replay delays four batches by 250 ms; the second runs
        // the same trace clean on the same engines, whose lifetime latency
        // store still holds the delayed samples.
        const DELAY_MS: f64 = 250.0;
        let spec = WorkloadSpec::parse(
            r#"{"name": "runner-unit", "seed": 11,
                "models": [{"name": "ru-m", "spatial": 8, "base_channels": 4, "classes": 4}],
                "size_mix": {"kind": "bounded-pareto", "alpha": 1.5, "min": 1, "max": 3},
                "phases": [{"label": "p", "duration_ms": 120,
                            "arrival": {"kind": "uniform", "rate_hz": 250}}],
                "faults": [{"at_ms": 0, "kind": "backend-delay", "model": "ru-m",
                            "count": 4, "delay_ms": 250}]}"#,
        )
        .expect("spec");
        let mut clean = spec.clone();
        clean.faults.clear();
        let trace = generate(&spec);
        let options = ReplayOptions::default();
        let deployment = deploy(&spec, &trace, &options).expect("deploy");

        let delayed = replay(&deployment, &spec, &trace, &options);
        let steady = replay(&deployment, &clean, &trace, &options);
        for report in [&delayed, &steady] {
            assert!(report.unexpected.is_empty(), "{:?}", report.unexpected);
            assert_eq!(report.completed, trace.total_samples());
        }
        assert!(delayed.p99_ms >= DELAY_MS, "delayed p99 {}", delayed.p99_ms);
        let lifetime = deployment.registry.metrics().models[0]
            .metrics
            .total_latency;
        assert_eq!(lifetime.count as u64, delayed.completed + steady.completed);
        assert!(
            lifetime.p99_ms >= DELAY_MS,
            "lifetime p99 {}",
            lifetime.p99_ms
        );
        assert!(
            steady.p99_ms < DELAY_MS && steady.p50_ms <= steady.p99_ms,
            "the clean replay reported p50 {} / p99 {} ms: the delayed replay's samples leaked in",
            steady.p50_ms,
            steady.p99_ms
        );
    }

    #[test]
    fn event_inputs_are_deterministic() {
        let spec = quick_spec();
        let a = event_inputs(&spec, 0, 7, 2, 8);
        let b = event_inputs(&spec, 0, 7, 2, 8);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.data(), y.data());
        }
        let c = event_inputs(&spec, 0, 8, 2, 8);
        assert_ne!(a[0].data(), c[0].data(), "different events differ");
    }
}
