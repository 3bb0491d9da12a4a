//! What the benchmark reads from the machine it runs on: CPU clocks of the
//! process and of single threads, peak resident memory, a spin kernel that
//! tells a slow machine from a slow program, and the host header recorded
//! with every result.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target) and both clock ids are defined by POSIX;
    // the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time (user + system) consumed by every thread of this process,
/// including threads that have already exited.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU milliseconds the program spent on a window: the process total minus
/// what the load-generator threads report having spent themselves.
pub fn program_cpu_ms(process: Duration, generators: &[Duration]) -> f64 {
    let generators: Duration = generators.iter().sum();
    process.saturating_sub(generators).as_secs_f64() * 1e3
}

/// Peak resident set size of the process so far (`VmHWM`), MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// A fixed L1-resident kernel: 4096 floats (16 KiB) swept 64 times with a
/// multiply-add whose result feeds the next sweep. Its time depends on the
/// machine only, never on the program under test.
fn spin_once(buf: &mut [f32; 4096]) -> f32 {
    let mut acc = 0.0f32;
    for _ in 0..64 {
        for x in buf.iter_mut() {
            *x = *x * 0.999_9 + 0.000_1;
            acc += *x;
        }
    }
    acc
}

/// Time the spin kernel repeatedly for `budget`; returns one duration per
/// call, ms.
pub fn spin_samples(budget: Duration) -> Vec<f64> {
    let mut buf = [1.0f32; 4096];
    let mut samples = Vec::new();
    let until = Instant::now() + budget;
    while Instant::now() < until {
        let started = Instant::now();
        std::hint::black_box(spin_once(std::hint::black_box(&mut buf)));
        samples.push(started.elapsed().as_secs_f64() * 1e3);
    }
    samples
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits in a directory of the repository")
        .to_path_buf()
}

/// Where result and trace files go (`benchmark/out/`, git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write `text` to `path`, creating its directory; a failure is a warning,
/// never the end of a run whose numbers are already printed.
pub fn write_file(path: &Path, text: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Whether this binary was compiled with `-C target-cpu=native`.
pub fn built_native() -> bool {
    env!("TDCB_TARGET_CPU_NATIVE") == "true"
}

fn git(args: &[&str]) -> Option<String> {
    let root = repo_root();
    // Only ask git when this is a checkout of its own; an exported tree must
    // not pick up whatever repository happens to sit above it.
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host header: what the numbers were measured on and built with. The
/// simulated device of the planner is never a hardware field here.
pub fn header(seed: u64, window_s: f64) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty = git(&["status", "--porcelain"]).map(|status| !status.is_empty());
    Value::Object(vec![
        ("cpu_model".into(), Value::String(cpu_model)),
        ("nproc".into(), Value::Number(nproc as f64)),
        (
            "rustc".into(),
            Value::String(env!("TDCB_RUSTC_VERSION").to_string()),
        ),
        ("target_cpu_native".into(), Value::Bool(built_native())),
        ("git_commit".into(), Value::String(commit)),
        ("git_dirty".into(), dirty.map_or(Value::Null, Value::Bool)),
        ("seed".into(), Value::Number(seed as f64)),
        ("window_s".into(), Value::Number(window_s)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_cpu_is_subtracted_from_the_process_total() {
        let process = Duration::from_millis(1000);
        let generators = [Duration::from_millis(150), Duration::from_millis(50)];
        assert!((program_cpu_ms(process, &generators) - 800.0).abs() < 1e-9);
        // A generator can never push the program's share below zero.
        assert_eq!(program_cpu_ms(process, &[Duration::from_secs(2)]), 0.0);
        assert!((program_cpu_ms(process, &[]) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn thread_cpu_counts_this_thread_and_process_cpu_counts_all() {
        let (p0, t0) = (process_cpu(), thread_cpu());
        let other = std::thread::spawn(|| {
            let t = thread_cpu();
            std::hint::black_box(spin_samples(Duration::from_millis(30)));
            thread_cpu() - t
        })
        .join()
        .expect("spin thread");
        let (p1, t1) = (process_cpu(), thread_cpu());
        assert!(
            other >= Duration::from_millis(10),
            "spinner burned {other:?}"
        );
        // The spinner's CPU shows in the process clock, not in this thread's.
        assert!(p1 - p0 >= other);
        assert!(t1 - t0 < other);
    }

    #[test]
    fn the_host_header_names_real_hardware_only() {
        let header = header(7, 1.5);
        assert_eq!(header.get("seed").and_then(Value::as_f64), Some(7.0));
        assert!(header.get("nproc").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);
        let cpu = header
            .get("cpu_model")
            .and_then(Value::as_str)
            .unwrap_or("");
        assert!(!cpu.contains("A100") && !cpu.contains("2080"));
        assert!(rss_peak_mib() > 0.0);
    }
}
