//! Drives the built binary the way a person or the PR driver does.

use std::process::Command;

fn benchmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tdc-benchmark"))
}

/// One-second windows on all five workloads: every output must verify and
/// nothing is recorded.
#[test]
fn suite_quick_verifies_every_workload() {
    let out = benchmark()
        .args(["suite", "--quick", "--seed", "3"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "suite --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for workload in [
        "fwd_tucker",
        "fwd_dense",
        "engine_paced",
        "http_door",
        "routed",
    ] {
        assert!(
            stdout.contains(&format!("{workload} seed 3 untraced")),
            "no report for {workload}:\n{stdout}"
        );
    }
    assert!(stdout.contains("all outputs correct"));
    assert!(stdout.contains("paper.cpu_speedup"));
}

/// The driver's protocol: `--trace 1` prints every per-layer metric of the
/// contract on the last line, `--trace 0` every end-to-end one; a bad
/// workload name is refused without a result line.
#[test]
fn run_prints_the_contract_line_last() {
    let out = benchmark()
        .args(["run", "--workload", "fwd_tucker", "--seed", "5"])
        .args(["--seconds", "1", "--trace", "1"])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim_end().lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
    for metric in [
        "tensor.gemm_1x1_ms",
        "model.share_of_cpu",
        "trace.spans_total",
    ] {
        assert!(
            line.contains(&format!("\"{metric}\":{{\"value\":")),
            "{metric} missing"
        );
    }
    assert!(!line.contains("\"p50_ms\""));

    let refused = benchmark()
        .args(["run", "--workload", "engine_closed", "--seed", "1"])
        .output()
        .expect("the benchmark binary runs");
    assert!(!refused.status.success());
    assert!(refused.stdout.is_empty());
}
