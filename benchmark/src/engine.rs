//! `engine_paced`: an open loop. Requests arrive on a fixed Poisson schedule
//! (1000 req/s, expanded by `tdc_lab::trace::generate` from the committed
//! `specs/engine_paced.json` under the run's seed) and go through
//! `ModelRegistry::submit` to two models sharing one single-worker
//! executor: `svc-small` (interactive, 70 %) and `svc-tiny` (batch, 30 %).
//!
//! At this rate the worker is far from busy, so latency is batching delay,
//! queue wait and delivery — what the batcher, the executor, QoS and the
//! metrics recorder decide — and a kernel change should barely show. The
//! op count is fixed by the schedule, never by the clock, so memory growth
//! per request shows in `rss_peak_mib` exactly.
//!
//! Threads: this thread paces and submits (sleeping, then spinning the last
//! 200 µs before each due time); one collector per model blocks on that
//! model's responses in submission order. Latency counts from the instant a
//! request was *due*, so a late generator or a stall is charged to every
//! request it delays.

use crate::bench::{
    arena_layer, ms_between, pool_totals, Bench, Fallible, Fingerprints, Layer, Window,
};
use crate::catalog::{planning, ModelDef, Workload, ENGINE_SLO_MS, LADDER_RATES_HZ};
use crate::catalog::{SVC_SMALL, SVC_TINY};
use crate::host;
use crate::inputs::{self, InputPool};
use crate::probes;
use crate::spans::Spans;
use crate::stats::{median, pct};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdc_lab::spec::{Arrival, WorkloadSpec};
use tdc_lab::trace::{self, TraceEvent};
use tdc_serve::{
    Executor, ExecutorOptions, ModelConfig, ModelRegistry, PendingResponse, PlanCache, PoolStats,
    RuntimeOptions, TuneRequest,
};
use tdc_tensor::Tensor;

/// The generator sleeps until this long before a request is due, then spins.
const SPIN_LEAD: Duration = Duration::from_micros(200);
/// A window whose generator ran later than this at the 95th percentile
/// measured the generator, not the engine.
const MAX_LATE_MS_P95: f64 = 0.5;
/// Each ladder step lasts this share of the traced window.
const LADDER_STEP_SHARE: f64 = 1.0 / 3.0;

/// One model of the zoo with its inputs and the outputs they must produce.
struct Served {
    def: ModelDef,
    pool: InputPool,
    references: Vec<Tensor>,
}

/// What the collector needs to judge one submitted request.
struct InFlight {
    pending: PendingResponse,
    due: Instant,
    submit_started: Instant,
    submit_ended: Option<Instant>,
    pool_index: usize,
    op: u64,
}

/// One collected, verified response.
struct Collected {
    latency_ms: f64,
    queue_ms: f64,
    exec_ms: f64,
    batch_size: usize,
    late_ms: f64,
}

/// What one paced stretch of the schedule produced.
#[derive(Default)]
struct Paced {
    collected: Vec<Collected>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
    cpu_ms: f64,
    /// Requests submitted but not yet collected, half-way and at the end.
    outstanding_mid: u64,
    outstanding_end: u64,
    spans: Option<Spans>,
}

/// The `engine_paced` workload.
pub struct Engine {
    registry: Arc<ModelRegistry>,
    executor: Arc<Executor>,
    executor_started: Instant,
    served: Vec<Served>,
    events: Vec<TraceEvent>,
    cursor: usize,
    base_rate_hz: f64,
    schedule_fingerprint: u64,
    traced_seconds: f64,
}

/// Counters of the registry a window is bracketed with.
struct Snapshot {
    batches: u64,
    completed: u64,
    early_releases: u64,
    steals: u64,
    busy_s: f64,
    pool: PoolStats,
}

impl Engine {
    fn snapshot(&self) -> Snapshot {
        let metrics = self.registry.metrics();
        let elapsed_s = self.executor_started.elapsed().as_secs_f64();
        Snapshot {
            batches: metrics.total_batches,
            completed: metrics.total_completed_requests,
            early_releases: metrics
                .models
                .iter()
                .map(|m| m.metrics.early_releases)
                .sum(),
            steals: metrics.executor.steals_total,
            // `utilization` is busy time over the executor's lifetime.
            busy_s: metrics.executor.utilization * elapsed_s * metrics.executor.workers as f64,
            pool: pool_totals([&metrics]),
        }
    }

    /// The books of every engine must balance once its requests are drained.
    fn books_fault(&self) -> Option<String> {
        self.registry.metrics().models.iter().find_map(|m| {
            let s = &m.metrics;
            let accounted = s.completed_requests + s.deadline_exceeded + s.failed_requests;
            (s.submitted_requests != accounted).then(|| {
                format!(
                    "{}: submitted {} != completed {} + expired {} + failed {}",
                    m.model,
                    s.submitted_requests,
                    s.completed_requests,
                    s.deadline_exceeded,
                    s.failed_requests
                )
            })
        })
    }

    /// Issue the next `count` events of the schedule at `rate_hz` (their
    /// gaps stretched or squeezed from the schedule's own rate) and collect
    /// every response.
    fn paced(&mut self, count: usize, rate_hz: f64, traced: bool) -> Fallible<Paced> {
        let slice = self
            .events
            .get(self.cursor..self.cursor + count)
            .ok_or("the arrival schedule is exhausted: shorten --seconds")?;
        let base_us = self
            .cursor
            .checked_sub(1)
            .map_or(0, |i| self.events[i].timestamp_us);
        let first_op = self.cursor as u64;
        self.cursor += count;
        let stretch = self.base_rate_hz / rate_hz;

        let registry = &self.registry;
        let served = &self.served;
        let collected_total = AtomicU64::new(0);
        let epoch = Instant::now();
        let mut paced = Paced::default();
        let cpu_before = host::process_cpu();

        std::thread::scope(|scope| -> Fallible<()> {
            let mut senders = Vec::new();
            let mut collectors = Vec::new();
            for model in served {
                let (tx, rx) = mpsc::channel::<InFlight>();
                senders.push(tx);
                let collected_total = &collected_total;
                collectors.push(scope.spawn(move || {
                    let cpu_started = host::thread_cpu();
                    let mut spans = traced.then(|| Spans::new(epoch));
                    let mut done = Vec::new();
                    let mut failed = 0u64;
                    let mut last = epoch;
                    for flight in rx {
                        let outcome = flight.pending.wait();
                        let observed = Instant::now();
                        last = observed;
                        collected_total.fetch_add(1, Ordering::Relaxed);
                        let response = match outcome {
                            Ok(r)
                                if inputs::same_bits(
                                    &r.output,
                                    &model.references[flight.pool_index],
                                ) =>
                            {
                                r
                            }
                            _ => {
                                failed += 1;
                                continue;
                            }
                        };
                        if let Some(spans) = spans.as_mut() {
                            let op = spans.record("op", flight.due, observed, None, flight.op);
                            let submitted = flight.submit_ended.unwrap_or(flight.submit_started);
                            spans.record(
                                "registry.submit",
                                flight.submit_started,
                                submitted,
                                Some(op),
                                flight.op,
                            );
                            let queued = spans.at(flight.submit_started);
                            let dequeued = queued + response.queue_ms * 1e3;
                            spans.record_us("batcher.queue", queued, dequeued, Some(op), flight.op);
                            spans.record_us(
                                "backend.exec",
                                dequeued,
                                dequeued + response.exec_ms * 1e3,
                                Some(op),
                                flight.op,
                            );
                        }
                        done.push(Collected {
                            latency_ms: ms_between(flight.due, observed),
                            queue_ms: response.queue_ms,
                            exec_ms: response.exec_ms,
                            batch_size: response.batch_size,
                            late_ms: ms_between(flight.due, flight.submit_started),
                        });
                    }
                    (done, failed, last, host::thread_cpu() - cpu_started, spans)
                }));
            }

            // This thread is the generator.
            let generator_cpu_started = host::thread_cpu();
            let started = Instant::now() + Duration::from_millis(2);
            for (offset, event) in slice.iter().enumerate() {
                let due_us = (event.timestamp_us - base_us) as f64 * stretch;
                let due = started + Duration::from_secs_f64(due_us / 1e6);
                if let Some(sleep) = due.checked_duration_since(Instant::now() + SPIN_LEAD) {
                    std::thread::sleep(sleep);
                }
                while Instant::now() < due {
                    std::hint::spin_loop();
                }
                let op = first_op + offset as u64;
                let pool_index = op as usize % inputs::POOL_SIZE;
                let model = &served[event.model];
                let input = model.pool.tensors[pool_index].clone();
                let submit_started = Instant::now();
                let submitted = registry.submit(model.def.name, input);
                let submit_ended = traced.then(Instant::now);
                paced.attempted += 1;
                match submitted {
                    Ok(pending) => senders[event.model]
                        .send(InFlight {
                            pending,
                            due,
                            submit_started,
                            submit_ended,
                            pool_index,
                            op,
                        })
                        .map_err(|_| "a collector thread died")?,
                    Err(_) => paced.failed += 1,
                }
                let outstanding = paced.attempted - collected_total.load(Ordering::Relaxed);
                if offset + 1 == count / 2 {
                    paced.outstanding_mid = outstanding;
                }
                paced.outstanding_end = outstanding;
            }
            let generator_cpu = host::thread_cpu() - generator_cpu_started;
            drop(senders);

            let mut thread_cpu = vec![generator_cpu];
            let mut finished = started;
            let mut spans = traced.then(|| Spans::new(epoch));
            for collector in collectors {
                let (done, failed, last, cpu, collector_spans) = collector
                    .join()
                    .map_err(|_| "a collector thread panicked")?;
                paced.collected.extend(done);
                paced.failed += failed;
                finished = finished.max(last);
                thread_cpu.push(cpu);
                if let (Some(all), Some(own)) = (spans.as_mut(), collector_spans) {
                    all.absorb(own);
                }
            }
            paced.spans = spans;
            paced.wall_s = finished.duration_since(started).as_secs_f64();
            paced.cpu_ms = host::program_cpu_ms(host::process_cpu() - cpu_before, &thread_cpu);
            Ok(())
        })?;
        Ok(paced)
    }
}

impl Bench for Engine {
    fn set_up(seed: u64, notes: &mut Layer) -> Fallible<Self> {
        let mut spec = WorkloadSpec::parse(include_str!("../specs/engine_paced.json"))?;
        spec.seed = seed;
        let base_rate_hz = match spec.phases.as_slice() {
            [phase] => match phase.arrival {
                Arrival::Poisson { rate_hz } => rate_hz,
                _ => return Err("engine_paced.json must describe a Poisson phase".into()),
            },
            _ => return Err("engine_paced.json must have exactly one phase".into()),
        };
        let served_pools: Vec<(ModelDef, InputPool)> = spec
            .models
            .iter()
            .map(|m| {
                let def = [SVC_SMALL, SVC_TINY]
                    .into_iter()
                    .find(|d| {
                        (d.name, d.spatial, d.base, d.classes)
                            == (m.name.as_str(), m.spatial, m.base_channels, m.classes)
                    })
                    .ok_or_else(|| format!("spec model {} is not in the catalog", m.name))?;
                Ok((def, inputs::pool(seed, &def)))
            })
            .collect::<Fallible<_>>()?;

        let started = Instant::now();
        let trace = trace::generate(&spec);
        notes.push(("lab.trace_gen_ms", ms_between(started, Instant::now())));
        notes.push(("lab.trace_events", trace.events.len() as f64));

        let executor = Arc::new(
            Executor::new(ExecutorOptions {
                workers: 1,
                ..ExecutorOptions::default()
            })
            .map_err(|e| format!("cannot start the executor: {e}"))?,
        );
        let executor_started = Instant::now();
        let registry = Arc::new(ModelRegistry::with_executor(
            PlanCache::new(4),
            Arc::clone(&executor),
        ));
        let started = Instant::now();
        for (model, (def, _)) in spec.models.iter().zip(&served_pools) {
            let config = ModelConfig {
                planning: planning(false),
                runtime: RuntimeOptions {
                    qos: model.qos.unwrap_or_default(),
                    ..RuntimeOptions::default()
                },
                ..ModelConfig::default()
            };
            registry
                .register(def.name, &def.descriptor(), config)
                .map_err(|e| format!("registering {}: {e}", def.name))?;
        }
        notes.push(("registry.register_ms", ms_between(started, Instant::now())));
        notes.push(("core.tiling_selections", tdc::tiling::cache_len() as f64));
        let cache = registry.cache_stats();
        notes.push(("plan_cache.hits", cache.hits() as f64));
        notes.push(("plan_cache.misses", cache.misses as f64));

        let served = served_pools
            .into_iter()
            .map(|(def, pool)| {
                let engine = registry.engine(def.name).map_err(|e| e.to_string())?;
                let references = pool
                    .tensors
                    .iter()
                    .map(|input| engine.model().forward(input))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("reference forward on {}: {e}", def.name))?;
                Ok(Served {
                    def,
                    pool,
                    references,
                })
            })
            .collect::<Fallible<Vec<_>>>()?;

        let mut bench = Engine {
            registry,
            executor,
            executor_started,
            served,
            events: trace.events,
            cursor: 0,
            base_rate_hz,
            schedule_fingerprint: trace.fingerprint,
            traced_seconds: 0.0,
        };
        let warmup = bench.paced(Workload::EnginePaced.warmup_ops(), base_rate_hz, false)?;
        if warmup.failed > 0 {
            return Err(format!("{} warm-up requests failed", warmup.failed));
        }
        Ok(bench)
    }

    fn window(&mut self, seconds: f64, spans: Option<&mut Spans>) -> Fallible<Window> {
        let count = (self.base_rate_hz * seconds).round() as usize;
        let Some(spans) = spans else {
            let paced = self.paced(count, self.base_rate_hz, false)?;
            return Ok(Window {
                latencies_ms: paced.collected.iter().map(|c| c.latency_ms).collect(),
                attempted: paced.attempted,
                failed: paced.failed,
                wall_s: paced.wall_s,
                cpu_ms: paced.cpu_ms,
                layer: Vec::new(),
                fault: self.books_fault(),
            });
        };

        self.traced_seconds = seconds;
        let before = self.snapshot();
        let paced = self.paced(count, self.base_rate_hz, true)?;
        let after = self.snapshot();
        let of = |f: fn(&Collected) -> f64| paced.collected.iter().map(f).collect::<Vec<f64>>();
        let latencies_ms = of(|c| c.latency_ms);
        let queue = of(|c| c.queue_ms);
        let exec = of(|c| c.exec_ms);
        let late_p95 = pct(&of(|c| c.late_ms), 95.0);
        let batches = (after.batches - before.batches) as f64;
        let own = paced.spans.expect("a traced stretch records spans");
        let mut layer: Layer = vec![
            (
                "registry.submit_us_p50",
                median(&own.durations_ms("registry.submit")) * 1e3,
            ),
            ("batcher.queue_ms_p50", median(&queue)),
            ("batcher.queue_ms_p95", pct(&queue, 95.0)),
            (
                "batcher.batch_size_mean",
                (after.completed - before.completed) as f64 / batches.max(1.0),
            ),
            ("batcher.batches", batches),
            (
                "batcher.early_releases",
                (after.early_releases - before.early_releases) as f64,
            ),
            ("backend.exec_ms_p50", median(&exec)),
            ("backend.exec_ms_p95", pct(&exec, 95.0)),
            (
                "backend.exec_per_sample_ms",
                median(&of(|c| c.exec_ms / c.batch_size.max(1) as f64)),
            ),
            // What is left of an op once submit, queue wait and execution
            // are taken out: the response hand-off and the collector's wake-up.
            ("server.deliver_ms_p50", median(&own.self_ms_of("op"))),
            (
                "exec.utilization",
                (after.busy_s - before.busy_s) / paced.wall_s,
            ),
            ("exec.steals", (after.steals - before.steals) as f64),
            ("gen.late_ms_p95", late_p95),
            ("gen.valid", f64::from(late_p95 <= MAX_LATE_MS_P95)),
        ];
        arena_layer(&before.pool, &after.pool, latencies_ms.len(), &mut layer);
        spans.absorb(own);
        Ok(Window {
            latencies_ms,
            attempted: paced.attempted,
            failed: paced.failed,
            wall_s: paced.wall_s,
            cpu_ms: paced.cpu_ms,
            layer,
            fault: self.books_fault(),
        })
    }

    /// Mean due-time latency. CPU per op cannot see what disturbs an open
    /// loop whose worker is idle two thirds of the time: while the pacing
    /// thread or the worker is descheduled, the requests that fall due cost
    /// the same CPU and wait longer. Beside a bursty neighbour, fifteen runs
    /// ranked by CPU per op read `p95_ms` from 5.0 to 71 ms; the same runs
    /// ranked by mean latency, 3.3 to 4.5 ms (README). A slice is 200
    /// requests through a batcher whose latency has one mode, so the mean
    /// does not pick a mode.
    fn disturbance(slice: &Window) -> f64 {
        slice.latencies_ms.iter().sum::<f64>() / slice.latencies_ms.len().max(1) as f64
    }

    fn probe_layers(&mut self, layer: &mut Layer) -> Fallible<()> {
        // Where p95 bends as load rises: three short steps of the same
        // schedule replayed slower and faster, due-time latency.
        let step_s = self.traced_seconds * LADDER_STEP_SHARE;
        let mut max_rate_within_slo = 0.0;
        for (rate_hz, name) in LADDER_RATES_HZ.into_iter().zip([
            "engine.p95_ms_at_500",
            "engine.p95_ms_at_1000",
            "engine.p95_ms_at_2000",
        ]) {
            let step = self.paced((rate_hz * step_s).round() as usize, rate_hz, false)?;
            let latencies: Vec<f64> = step.collected.iter().map(|c| c.latency_ms).collect();
            let p95 = pct(&latencies, 95.0);
            layer.push((name, p95));
            let backlog_grows = step.outstanding_end > 2 * step.outstanding_mid + 16;
            if p95 <= ENGINE_SLO_MS && step.failed == 0 && !backlog_grows {
                max_rate_within_slo = rate_hz;
            }
        }
        layer.push(("engine.max_rate_within_slo", max_rate_within_slo));

        let started = Instant::now();
        let metrics = self.registry.metrics();
        layer.push(("metrics.scrape_ms", ms_between(started, Instant::now())));
        layer.push((
            "metrics.samples_held",
            metrics
                .models
                .iter()
                .map(|m| m.metrics.total_latency.count as f64)
                .sum(),
        ));

        let main = &self.served[0];
        {
            let engine = self
                .registry
                .engine(main.def.name)
                .map_err(|e| e.to_string())?;
            probes::model_layers(
                &main.def,
                false,
                &engine.plan().clone(),
                engine.model(),
                &main.pool.tensors[0],
                layer,
            )?;
        }

        // Off the request path, after every window: one joint-knob tune.
        tdc_ctrl::install(&self.registry);
        let started = Instant::now();
        let report = self
            .registry
            .tune(
                main.def.name,
                &TuneRequest {
                    target_p99_ms: Some(ENGINE_SLO_MS),
                    apply: false,
                    ..TuneRequest::default()
                },
            )
            .map_err(|e| format!("tune: {e}"))?;
        layer.push(("ctrl.tune_ms", ms_between(started, Instant::now())));
        layer.push(("ctrl.tune_probes", report.probes.len() as f64));
        Ok(())
    }

    fn fingerprints(&self) -> Fingerprints {
        Fingerprints {
            inputs: self
                .served
                .iter()
                .fold(0, |acc, m| acc.rotate_left(1) ^ m.pool.fingerprint),
            schedule: self.schedule_fingerprint,
            outputs: inputs::output_fingerprint(self.served.iter().flat_map(|m| &m.references)),
        }
    }

    fn tear_down(self) {
        drop(self.served);
        if let Ok(registry) = Arc::try_unwrap(self.registry) {
            registry.shutdown();
        }
        self.executor.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::contract;

    fn schedule(seed: u64) -> trace::Trace {
        let mut spec = WorkloadSpec::parse(include_str!("../specs/engine_paced.json"))
            .expect("the committed spec parses");
        spec.seed = seed;
        trace::generate(&spec)
    }

    #[test]
    fn a_stalled_slice_is_disturbed_however_little_cpu_it_used() {
        let slice = |latencies_ms: Vec<f64>, cpu_ms: f64| Window {
            latencies_ms,
            cpu_ms,
            ..Window::default()
        };
        let calm = slice(vec![2.5; 200], 50.0);
        let mut latencies = vec![2.5; 180];
        latencies.extend([20.0; 20]);
        let stalled = slice(latencies, 40.0);
        assert!(stalled.cpu_ms_per_op() < calm.cpu_ms_per_op());
        assert!(Engine::disturbance(&stalled) > Engine::disturbance(&calm));
    }

    #[test]
    fn the_schedule_is_fixed_by_the_seed_and_long_enough() {
        let (a, b) = (schedule(5), schedule(5));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.events, b.events);
        assert_ne!(a.fingerprint, schedule(6).fingerprint);
        // A traced run is the hungriest: warm-up, 0.9 of the window at the
        // base rate, then the three ladder steps of a fifth of it each.
        let seconds = contract().run_seconds;
        let ladder: f64 = LADDER_RATES_HZ.iter().map(|r| r * seconds * 0.2).sum();
        let needed = Workload::EnginePaced.warmup_ops() as f64 + 1000.0 * seconds + ladder;
        assert!(a.events.len() as f64 >= needed, "{} events", a.events.len());
        assert!(a.events.iter().all(|e| e.samples == 1 && e.model < 2));
    }
}
