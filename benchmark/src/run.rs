//! One run of one workload: the untraced pass that yields the end-to-end
//! metrics, or the traced pass that yields the per-layer ones.

use crate::bench::{end_to_end, Bench, Fallible, Fingerprints, Layer, Window};
use crate::catalog::{contract, MetricDef, Workload};
use crate::engine::Engine;
use crate::forward::Forward;
use crate::host;
use crate::http::Http;
use crate::spans::Spans;
use crate::stats::{self, median, pct};
use serde_json::Value;
use std::process::Command;
use std::time::{Duration, Instant};

/// How often one untraced run sets the workload up: once in its own process
/// and the rest in child processes, each as cold as the first. `setup_s` is
/// the median.
pub const SETUPS_PER_RUN: usize = 3;

/// An untraced run measures back-to-back windows ("slices",
/// [`Workload::slice_seconds`] long) and takes its timing metrics over the
/// quietest of them: on a shared box the machine drifts between faster and
/// slower phases that last seconds, and a statistic over the whole window
/// mostly reports which phases a run caught.
const QUIET_SHARE: f64 = 0.1;
const QUIET_MIN_OPS: usize = 200;

/// The traced pass spends [`TRACED_SHARE`] of `--seconds` on the traced
/// window and [`REFERENCE_SHARE`] on an untraced reference window on either
/// side of it; the traced median minus the mean of the two reference medians
/// is the tracing overhead, whatever way the machine drifted meanwhile.
const REFERENCE_SHARE: f64 = 0.15;
const TRACED_SHARE: f64 = 0.6;

/// How long the spin kernel runs before and after the traced windows.
const SPIN_BUDGET: Duration = Duration::from_millis(200);

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of the inputs and the arrival schedule.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Set-ups behind `setup_s` ([`SETUPS_PER_RUN`]; the smoke test asks for one).
    pub setups: usize,
}

/// What one run found.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// What was run.
    pub args: RunArgs,
    /// Every output matched its reference and the books balanced.
    pub correct: bool,
    /// Ops issued in the measured window(s).
    pub attempted: u64,
    /// Ops that errored, were refused or returned a wrong output.
    pub failed: u64,
    /// Latency samples behind the timing statistics.
    pub samples: usize,
    /// Every contract metric of this pass, in contract order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Input, schedule and output fingerprints.
    pub fingerprints: Fingerprints,
    /// Why `correct` is false, when it is.
    pub fault: Option<String>,
}

/// Run `args.workload` in this process.
pub fn run(args: &RunArgs) -> Fallible<RunReport> {
    match args.workload {
        Workload::FwdTucker => drive::<Forward<false>>(args),
        Workload::FwdDense => drive::<Forward<true>>(args),
        Workload::EnginePaced => drive::<Engine>(args),
        Workload::HttpDoor => drive::<Http<false>>(args),
        Workload::Routed => drive::<Http<true>>(args),
    }
}

/// Set `workload` up once, cold, tear it down, and return the seconds the
/// set-up took — what the `setup` subcommand prints for its parent run.
pub fn set_up_once(workload: Workload, seed: u64) -> Fallible<f64> {
    fn timed<B: Bench>(seed: u64) -> Fallible<f64> {
        let started = Instant::now();
        let bench = B::set_up(seed, &mut Vec::new())?;
        let seconds = started.elapsed().as_secs_f64();
        bench.tear_down();
        Ok(seconds)
    }
    match workload {
        Workload::FwdTucker => timed::<Forward<false>>(seed),
        Workload::FwdDense => timed::<Forward<true>>(seed),
        Workload::EnginePaced => timed::<Engine>(seed),
        Workload::HttpDoor => timed::<Http<false>>(seed),
        Workload::Routed => timed::<Http<true>>(seed),
    }
}

/// Set the workload up in a fresh child process and return the seconds its
/// set-up took.
fn child_setup(args: &RunArgs) -> Fallible<f64> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(&exe)
        .args(["setup", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("cannot start a set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("set-up child printed no seconds: {e}"))
}

fn drive<B: Bench>(args: &RunArgs) -> Fallible<RunReport> {
    if args.trace {
        traced::<B>(args)
    } else {
        untraced::<B>(args)
    }
}

/// The slices the timing metrics are taken over: the quietest
/// [`QUIET_SHARE`] of them by `disturbance` ([`Bench::disturbance`]),
/// extended with the next quietest until they hold [`QUIET_MIN_OPS`] ops (the
/// smallest sample whose p95 has ten samples beyond it). Returns indices into
/// `slices`.
fn quiet_slices(slices: &[Window], disturbance: fn(&Window) -> f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..slices.len())
        .filter(|&i| !slices[i].latencies_ms.is_empty())
        .collect();
    order.sort_by(|&a, &b| {
        disturbance(&slices[a])
            .partial_cmp(&disturbance(&slices[b]))
            .expect("a disturbance is never NaN")
    });
    let least = (slices.len() as f64 * QUIET_SHARE).ceil() as usize;
    let mut ops = 0;
    let mut chosen = Vec::new();
    for i in order {
        if chosen.len() >= least && ops >= QUIET_MIN_OPS {
            break;
        }
        ops += slices[i].latencies_ms.len();
        chosen.push(i);
    }
    chosen
}

fn untraced<B: Bench>(args: &RunArgs) -> Fallible<RunReport> {
    let started = Instant::now();
    let mut bench = B::set_up(args.seed, &mut Vec::new())?;
    let mut setups = vec![started.elapsed().as_secs_f64()];
    // The other set-ups run in child processes between thirds of the
    // window, while this process idles: they need the time anyway, and a
    // window spread over more of the clock meets more of the machine's
    // quiet phases.
    let parts = args.setups.max(1);
    let total = ((args.seconds / args.workload.slice_seconds()).round() as usize).max(parts);
    let mut slices = Vec::with_capacity(total);
    for part in 0..parts {
        let count = total * (part + 1) / parts - slices.len();
        slices.extend(bench.measure(args.seconds * count as f64 / total as f64, count)?);
        if part + 1 < parts {
            setups.push(child_setup(args)?);
        }
    }
    let rss_peak_mib = host::rss_peak_mib();
    let fingerprints = bench.fingerprints();
    bench.tear_down();

    // Every op of every slice is verified and counted; the timing metrics
    // come from the quiet slices only — CPU per op from those quietest by
    // CPU per op on every workload, which on `engine_paced` are not the
    // ones its latency metrics come from.
    let pooled = |disturbance| {
        let mut pool = Window::default();
        for i in quiet_slices(&slices, disturbance) {
            pool.latencies_ms.extend(&slices[i].latencies_ms);
            pool.wall_s += slices[i].wall_s;
            pool.cpu_ms += slices[i].cpu_ms;
        }
        pool
    };
    let quiet = pooled(B::disturbance);
    let cheapest = pooled(Window::cpu_ms_per_op);
    let values = end_to_end(&quiet, &cheapest, rss_peak_mib, median(&setups));
    Ok(report(
        args,
        &slices.iter().collect::<Vec<_>>(),
        quiet.latencies_ms.len(),
        &contract().end_to_end,
        &values,
        fingerprints,
    ))
}

fn traced<B: Bench>(args: &RunArgs) -> Fallible<RunReport> {
    let mut spin = host::spin_samples(SPIN_BUDGET);
    let mut layer: Layer = Vec::new();
    let mut bench = B::set_up(args.seed, &mut layer)?;
    let before = bench.window(args.seconds * REFERENCE_SHARE, None)?;
    let mut spans = Spans::new(Instant::now());
    let window = bench.window(args.seconds * TRACED_SHARE, Some(&mut spans))?;
    let after = bench.window(args.seconds * REFERENCE_SHARE, None)?;
    spin.extend(host::spin_samples(SPIN_BUDGET));

    layer.extend(window.layer.iter().copied());
    layer.extend([
        ("host.spin_ms_p50", median(&spin)),
        (
            "host.spin_spread",
            (pct(&spin, 95.0) - pct(&spin, 5.0)) / median(&spin),
        ),
        (
            "trace.overhead_ms",
            median(&window.latencies_ms)
                - (median(&before.latencies_ms) + median(&after.latencies_ms)) / 2.0,
        ),
        ("trace.spans_total", spans.len() as f64),
    ]);
    bench.probe_layers(&mut layer)?;
    if let Some(&(_, forward_ms)) = layer.iter().find(|(name, _)| *name == "model.forward_ms") {
        layer.push(("model.share_of_cpu", forward_ms / window.cpu_ms_per_op()));
    }
    let fingerprints = bench.fingerprints();
    bench.tear_down();
    write_trace(args.workload, &spans);

    for (name, _) in &layer {
        assert!(
            contract().per_layer.iter().any(|m| m.name == *name),
            "`{name}` is measured but BENCHMARK.json does not list it"
        );
    }
    Ok(report(
        args,
        &[&before, &window, &after],
        window.latencies_ms.len(),
        &contract().per_layer,
        &layer,
        fingerprints,
    ))
}

/// Assemble the report: every metric of `defs`, in order; one the run did
/// not measure (a layer the workload does not have) reads 0. `samples` is
/// how many latency samples stand behind the timing statistics.
fn report(
    args: &RunArgs,
    windows: &[&Window],
    samples: usize,
    defs: &[MetricDef],
    values: &[(&'static str, f64)],
    fingerprints: Fingerprints,
) -> RunReport {
    let metrics = defs
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .rev()
                .find(|(name, _)| *name == def.name)
                .map_or(0.0, |(_, v)| *v);
            (def.clone(), value)
        })
        .collect();
    let attempted = windows.iter().map(|w| w.attempted).sum();
    let failed: u64 = windows.iter().map(|w| w.failed).sum();
    let fault = windows
        .iter()
        .find_map(|w| w.fault.clone())
        .or_else(|| (failed > 0).then(|| format!("{failed} of {attempted} ops failed")));
    RunReport {
        args: *args,
        correct: fault.is_none(),
        attempted,
        failed,
        samples,
        metrics,
        fingerprints,
        fault,
    }
}

fn write_trace(workload: Workload, spans: &Spans) {
    let path = host::out_dir().join(format!("trace-{}.json", workload.name()));
    host::write_file(
        &path,
        &serde_json::to_string(&spans.to_json()).expect("spans serialise"),
    );
}

impl RunReport {
    /// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(def, value)| {
                (
                    def.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Number(*value)),
                        ("unit".into(), Value::String(def.unit.clone())),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Number(self.attempted as f64)),
            ("failed".into(), Value::Number(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a report serialises")
    }

    /// The full record kept in `benchmark/out/`: host header, identity of
    /// the run, and the metrics.
    pub fn record(&self) -> Value {
        let hex = |v: u64| Value::String(format!("{v:016x}"));
        Value::Object(vec![
            (
                "host".into(),
                host::header(self.args.seed, self.args.seconds),
            ),
            (
                "workload".into(),
                Value::String(self.args.workload.name().into()),
            ),
            ("traced".into(), Value::Bool(self.args.trace)),
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Number(self.attempted as f64)),
            ("failed".into(), Value::Number(self.failed as f64)),
            ("samples".into(), Value::Number(self.samples as f64)),
            ("input_fingerprint".into(), hex(self.fingerprints.inputs)),
            (
                "schedule_fingerprint".into(),
                hex(self.fingerprints.schedule),
            ),
            ("output_fingerprint".into(), hex(self.fingerprints.outputs)),
            (
                "metrics".into(),
                Value::Object(
                    self.metrics
                        .iter()
                        .map(|(def, value)| (def.name.clone(), Value::Number(*value)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name with its unit, the sample count and the
    /// fingerprints, for a person to read.
    pub fn print_human(&self) {
        let args = &self.args;
        println!(
            "{} seed {} {}: {} s window, {} samples, attempted {}, failed {}, correct {}",
            args.workload.name(),
            args.seed,
            if args.trace { "traced" } else { "untraced" },
            args.seconds,
            self.samples,
            self.attempted,
            self.failed,
            self.correct
        );
        if let Some(fault) = &self.fault {
            println!("  FAULT: {fault}");
        }
        match stats::supported_tail(self.samples) {
            Some(p) if p >= 95.0 => {}
            Some(p) => {
                println!("  note: only p{p} has ten samples beyond it; p95 is under-sampled")
            }
            None => println!("  note: too few samples for any tail percentile"),
        }
        println!(
            "  fingerprints: inputs {:016x} schedule {:016x} outputs {:016x}",
            self.fingerprints.inputs, self.fingerprints.schedule, self.fingerprints.outputs
        );
        for (def, value) in &self.metrics {
            println!("  {:<32} {:>16.6} {}", def.name, value, def.unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(ops: usize, cpu_per_op: f64) -> Window {
        Window {
            latencies_ms: vec![1.0; ops],
            cpu_ms: cpu_per_op * ops as f64,
            wall_s: 0.25,
            ..Window::default()
        }
    }

    #[test]
    fn the_quiet_slices_are_the_cheapest_tenth_extended_to_200_ops() {
        // 40 slices of 300 ops: the 4 with the least CPU per op are enough.
        let mut slices: Vec<Window> = (0..40).map(|i| slice(300, 1.0 + i as f64 * 0.01)).collect();
        slices.swap(0, 17);
        let mut chosen = quiet_slices(&slices, Window::cpu_ms_per_op);
        chosen.sort_unstable();
        assert_eq!(chosen, vec![1, 2, 3, 17]);
        // 40 slices of 11 ops (an HTTP workload): extended until 200 ops.
        let slices: Vec<Window> = (0..40).map(|i| slice(11, 1.0 + i as f64 * 0.01)).collect();
        let chosen = quiet_slices(&slices, Window::cpu_ms_per_op);
        assert_eq!(chosen.len(), 19);
        assert!(chosen.iter().all(|&i| i < 19));
        // Slices without a verified op cannot be ranked and are left out.
        let slices = vec![slice(0, 0.0), slice(250, 2.0)];
        assert_eq!(quiet_slices(&slices, Window::cpu_ms_per_op), vec![1]);
    }
}
