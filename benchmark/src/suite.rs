//! Tools over whole runs: `suite` (the five workloads one after another,
//! each in a fresh process so each is as cold as a user's), `compare` (two
//! result files against the bounds of `BENCHMARK.json`) and `aa` (two
//! interleaved sets of runs of this same build, which must agree).

use crate::bench::Fallible;
use crate::catalog::{contract, MetricDef, Workload};
use crate::host;
use crate::run::RunReport;
use crate::stats;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What one child `run` printed on its last line.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Number(self.attempted as f64)),
            ("failed".into(), Value::Number(self.failed as f64)),
            (
                "metrics".into(),
                Value::Object(
                    self.metrics
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::Number(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

fn parse_contract_line(line: &str) -> Fallible<ChildRun> {
    let value = serde_json::parse_value(line).map_err(|e| format!("bad result line: {e}"))?;
    let number = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("result line lacks `{key}`"))
    };
    Ok(ChildRun {
        correct: value
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("result line lacks `correct`")?,
        attempted: number("attempted")? as u64,
        failed: number("failed")? as u64,
        metrics: value
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("result line lacks `metrics`")?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Run one workload in a fresh process of this executable; its human
/// output is passed through when `echo` is set.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setups: usize,
    echo: bool,
) -> Fallible<ChildRun> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--setups", &setups.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (human, line) = stdout.trim_end().rsplit_once('\n').ok_or_else(|| {
        format!(
            "{} printed no result (exit {})",
            workload.name(),
            out.status
        )
    })?;
    if echo {
        println!("{human}");
    }
    parse_contract_line(line)
}

/// Keep the full record of a run under `benchmark/out/` — unless the binary
/// was built without `target-cpu=native`, whose numbers must not be mistaken
/// for the repo's.
pub fn keep_record(report: &RunReport) {
    if !host::built_native() {
        eprintln!(
            "warning: built without -C target-cpu=native (run cargo from the repository root, \
             where .cargo/config.toml sets it); this run is not recorded"
        );
        return;
    }
    let args = &report.args;
    let name = format!(
        "run-{}-seed{}{}.json",
        args.workload.name(),
        args.seed,
        if args.trace { "-trace" } else { "" }
    );
    write_json(&host::out_dir().join(name), &report.record());
}

fn write_json(path: &Path, value: &Value) {
    let text = serde_json::to_string_pretty(value).expect("a record serialises");
    host::write_file(path, &(text + "\n"));
}

/// A result file: the host header and a list of suite passes.
fn write_result_file(path: &Path, runs: Vec<Value>, seed: u64, seconds: f64) {
    let file = Value::Object(vec![
        ("host".into(), host::header(seed, seconds)),
        ("runs".into(), Value::Array(runs)),
    ]);
    write_json(path, &file);
}

/// The suite passes of the result file at `path`.
fn load_runs(path: &Path) -> Fallible<Vec<Value>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_value(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .get("runs")
        .and_then(Value::as_array)
        .map(<[Value]>::to_vec)
        .ok_or_else(|| format!("{} is not a result file", path.display()))
}

/// One suite pass: every workload untraced (and traced, when asked), as
/// JSON, plus whether every output was correct.
fn suite_run(
    seed: u64,
    seconds: f64,
    trace: bool,
    setups: usize,
    echo: bool,
) -> Fallible<(Value, bool)> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    let mut paper: Vec<(String, Value)> = Vec::new();
    let mut p50 = Vec::new();
    for workload in Workload::ALL {
        let untraced = run_child(workload, seed, seconds, false, setups, echo)?;
        all_correct &= untraced.correct;
        p50.push(untraced.metric("p50_ms").unwrap_or(0.0));
        let mut entry = vec![("end_to_end".to_string(), untraced.to_json())];
        if trace {
            let traced = run_child(workload, seed, seconds, true, setups, echo)?;
            all_correct &= traced.correct;
            if workload == Workload::FwdTucker {
                let reduction = traced.metric("core.flops_reduction").unwrap_or(0.0);
                paper.push((
                    "paper.flops_ratio".into(),
                    Value::Number(1.0 / (1.0 - reduction)),
                ));
                paper.push((
                    "paper.gpu_sim_speedup".into(),
                    Value::Number(traced.metric("gpu_sim.speedup_vs_original").unwrap_or(0.0)),
                ));
            }
            entry.push(("per_layer".to_string(), traced.to_json()));
        }
        workloads.push((workload.name().to_string(), Value::Object(entry)));
    }
    // The paper's headline ratio, measured on this CPU: dense over Tucker.
    paper.insert(
        0,
        ("paper.cpu_speedup".into(), Value::Number(p50[1] / p50[0])),
    );
    let run = Value::Object(vec![
        ("seed".into(), Value::Number(seed as f64)),
        ("workloads".into(), Value::Object(workloads)),
        ("paper".into(), Value::Object(paper)),
    ]);
    Ok((run, all_correct))
}

/// `suite`: run the five workloads, print every metric, verify outputs.
/// `--quick` is a one-second smoke of correctness that records nothing.
pub fn suite(seed: u64, seconds: f64, trace: bool, quick: bool, out: String) -> Fallible<bool> {
    let (seconds, setups) = if quick {
        (1.0, 1)
    } else {
        (seconds, crate::run::SETUPS_PER_RUN)
    };
    let (run, all_correct) = suite_run(seed, seconds, trace, setups, true)?;
    if let Some(paper) = run.get("paper").and_then(Value::as_object) {
        for (name, value) in paper {
            println!("{name:<34} {:>14.4} ratio", value.as_f64().unwrap_or(0.0));
        }
    }
    println!(
        "suite seed {seed}: {}",
        if all_correct {
            "all outputs correct"
        } else {
            "INCORRECT OUTPUT"
        }
    );
    if quick {
        return Ok(all_correct);
    }
    if host::built_native() {
        let path = if out.is_empty() {
            host::out_dir().join(format!("suite-seed{seed}.json"))
        } else {
            PathBuf::from(out)
        };
        // A result file grows by one pass per suite run.
        let mut runs = if path.exists() {
            load_runs(&path)?
        } else {
            Vec::new()
        };
        runs.push(run);
        write_result_file(&path, runs, seed, seconds);
        println!("recorded in {}", path.display());
    } else {
        eprintln!("warning: built without -C target-cpu=native; suite not recorded");
    }
    Ok(all_correct)
}

/// Values of one end-to-end metric on one workload across the runs of a
/// result file.
fn series(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get("metrics")?
                .get(metric)?
                .as_f64()
        })
        .collect()
}

/// The verdict on one metric of one workload: parent values `a`, change
/// values `b`.
fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> &'static str {
    let bound = def.bound.unwrap_or(0.0);
    let (base, changed) = (stats::median(a), stats::median(b));
    // Positive when the change is worse, as a share of the parent's median.
    let worse_by = if def.higher_is_better {
        (base - changed) / base
    } else {
        (changed - base) / base
    };
    let every_run_better = a.iter().all(|x| {
        b.iter()
            .all(|y| if def.higher_is_better { y > x } else { y < x })
    });
    let parent_spread = stats::spread(a);
    if parent_spread > bound && !every_run_better {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if every_run_better || -worse_by > parent_spread.max(f64::EPSILON) {
        "better"
    } else {
        "same"
    }
}

/// Print the metric × workload table of two value sets; returns how many
/// rows read `worse`.
fn compare_table(label_a: &str, a: &[Value], label_b: &str, b: &[Value]) -> usize {
    println!(
        "| workload | metric | {label_a} median [q1, q3] | {label_b} median [q1, q3] | {label_b}/{label_a} | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|");
    let mut worse = 0;
    for workload in Workload::ALL {
        for def in &contract().end_to_end {
            let (va, vb) = (
                series(a, workload.name(), &def.name),
                series(b, workload.name(), &def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let ((a1, a2, a3), (b1, b2, b3)) = (stats::quartiles(&va), stats::quartiles(&vb));
            let row = verdict(def, &va, &vb);
            worse += usize::from(row == "worse");
            println!(
                "| {} | {} ({}) | {a2:.4} [{a1:.4}, {a3:.4}] | {b2:.4} [{b1:.4}, {b3:.4}] | {:.4} | {:.2} | {row} |",
                workload.name(),
                def.name,
                def.unit,
                b2 / a2,
                def.bound.unwrap_or(0.0),
            );
        }
    }
    worse
}

/// `compare A.json B.json`: B (the change) against A (the parent), per
/// metric × workload, under the bounds of `BENCHMARK.json`. Fails when any
/// row is worse.
pub fn compare(a: &str, b: &str) -> Fallible<bool> {
    let (runs_a, runs_b) = (load_runs(Path::new(a))?, load_runs(Path::new(b))?);
    println!(
        "A = {a} ({} runs), B = {b} ({} runs); ratios are B over A",
        runs_a.len(),
        runs_b.len()
    );
    let worse = compare_table("A", &runs_a, "B", &runs_b);
    println!("{worse} metric × workload pairs are worse than their bound allows");
    Ok(worse == 0)
}

/// `aa`: `sets` interleaved sets of `runs` suite passes of this one build.
/// Every pair of sets must agree, median against median, within each
/// metric's bound.
pub fn aa(sets: usize, runs: usize, seed: u64, seconds: f64) -> Fallible<bool> {
    if sets < 2 || runs < 1 {
        return Err("aa needs --sets >= 2 and --runs >= 1".into());
    }
    let mut results: Vec<Vec<Value>> = vec![Vec::new(); sets];
    let mut all_correct = true;
    for round in 0..runs {
        // Alternate which set goes first, so drift of the machine over the
        // session lands on both.
        let mut order: Vec<usize> = (0..sets).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for set in order {
            eprintln!("aa: round {} of {runs}, set {}", round + 1, set_label(set));
            let (run, correct) = suite_run(
                seed + round as u64,
                seconds,
                false,
                crate::run::SETUPS_PER_RUN,
                false,
            )?;
            all_correct &= correct;
            results[set].push(run);
        }
    }
    let mut disagreements = 0;
    for set in 1..sets {
        let (label_a, label_b) = (set_label(0), set_label(set));
        println!("\nsame build, {runs} runs a side, {seconds} s windows:\n");
        compare_table(&label_a, &results[0], &label_b, &results[set]);
        for workload in Workload::ALL {
            for def in &contract().end_to_end {
                let a = stats::median(&series(&results[0], workload.name(), &def.name));
                let b = stats::median(&series(&results[set], workload.name(), &def.name));
                let apart = (b - a).abs() / a;
                if apart > def.bound.unwrap_or(0.0) {
                    disagreements += 1;
                    println!(
                        "DISAGREE {} {}: {a:.4} vs {b:.4} ({:.1} % apart, bound {:.0} %)",
                        workload.name(),
                        def.name,
                        apart * 100.0,
                        def.bound.unwrap_or(0.0) * 100.0
                    );
                }
            }
        }
    }
    if host::built_native() {
        for (set, runs) in results.into_iter().enumerate() {
            let path = host::out_dir().join(format!("aa-set-{}.json", set_label(set)));
            write_result_file(&path, runs, seed, seconds);
        }
    }
    println!(
        "\n{disagreements} disagreements beyond the bounds; outputs {}",
        if all_correct {
            "all correct"
        } else {
            "INCORRECT"
        }
    );
    Ok(disagreements == 0 && all_correct)
}

fn set_label(set: usize) -> String {
    char::from(b'A' + (set % 26) as u8).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricDef {
        MetricDef {
            name: "p50_ms".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_parents_spread() {
        let def = lower(0.08);
        let steady = [10.0, 10.1, 9.9, 10.05, 9.95];
        assert_eq!(
            verdict(&def, &steady, &[10.0, 10.2, 9.9, 10.1, 10.0]),
            "same"
        );
        assert_eq!(
            verdict(&def, &steady, &[11.5, 11.6, 11.4, 11.5, 11.7]),
            "worse"
        );
        assert_eq!(verdict(&def, &steady, &[8.0, 8.1, 7.9, 8.0, 8.2]), "better");
        // A parent noisier than the bound cannot resolve a small change ...
        let noisy = [10.0, 13.0, 8.0, 12.0, 9.0];
        assert_eq!(
            verdict(&def, &noisy, &[10.5, 12.0, 9.5, 11.0, 10.0]),
            "unresolved"
        );
        // ... unless every run of the change beats every run of the parent.
        assert_eq!(verdict(&def, &noisy, &[5.0, 6.0, 5.5, 7.0, 6.5]), "better");
        let higher = MetricDef {
            higher_is_better: true,
            ..lower(0.08)
        };
        assert_eq!(
            verdict(&higher, &steady, &[9.0, 9.1, 8.9, 9.0, 9.05]),
            "worse"
        );
        assert_eq!(
            verdict(&higher, &steady, &[12.0, 12.1, 11.9, 12.0, 12.2]),
            "better"
        );
    }

    #[test]
    fn a_result_line_parses_back() {
        let run = parse_contract_line(
            r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"p50_ms":{"value":1.25,"unit":"ms"}}}"#,
        )
        .expect("valid line");
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (12, 0));
        assert_eq!(run.metric("p50_ms"), Some(1.25));
        assert!(parse_contract_line("{}").is_err());
    }
}
