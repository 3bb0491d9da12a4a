//! The HTTP serving daemon: a multi-model registry behind the std-only
//! HTTP/1.1 front end.
//!
//! Registers `--models N` miniature models (alternating CPU and sim-GPU
//! backends so one process demonstrates both execution paths), binds the
//! front end and serves until `POST /admin/shutdown` or a kill.
//! `--default-deadline-ms D` gives every model a default per-request
//! deadline (requests not served within `D` ms answer `504`; per-request
//! `deadline_ms` in the body still overrides it).
//!
//! Usage:
//!
//! ```text
//! serve_http [--addr HOST:PORT] [--models N] [--default-deadline-ms D]
//!            [--spill-dir DIR]
//! ```
//!
//! `--spill-dir DIR` persists every planned model to `DIR` as JSON and warms
//! the plan cache from it on start — replicas sharing one directory skip
//! rank selection for plans a sibling already computed. `POST
//! /admin/shutdown` drains gracefully (stop accepting, finish in-flight
//! requests, drain the engines) and exits 0 — how a fleet router restarts
//! replicas deterministically.
//!
//! Environment fallbacks: `SERVE_HTTP_ADDR` (default `127.0.0.1:7878`),
//! `SERVE_HTTP_MODELS` (default 2), `SERVE_HTTP_SPILL_DIR`.
//!
//! A bad flag or environment value, or an address that cannot be bound,
//! prints one line to stderr and exits 2 before anything is served.
//! `crates/serve/tests/daemon.rs` drives this binary end to end.

use std::sync::Arc;
use std::time::Duration;
use tdc_serve::{
    serving_descriptor, BackendKind, BatchingOptions, HttpServer, ModelConfig, ModelRegistry,
    PlanCache, RuntimeOptions,
};

struct Flags {
    addr: String,
    models: usize,
    default_deadline: Option<Duration>,
    spill_dir: Option<String>,
}

/// Print one start-up error line and exit 2.
fn fail(message: &str) -> ! {
    eprintln!("serve_http: {message}");
    std::process::exit(2);
}

/// A model count must be a positive integer, from the flag or the
/// environment alike.
fn parse_models(value: &str, source: &str) -> usize {
    match value.parse() {
        Ok(n) if n > 0 => n,
        _ => fail(&format!("{source} needs a positive integer, got {value:?}")),
    }
}

fn parse_flags() -> Flags {
    let mut addr = std::env::var("SERVE_HTTP_ADDR").ok();
    let mut models = std::env::var("SERVE_HTTP_MODELS")
        .ok()
        .map(|v| parse_models(&v, "SERVE_HTTP_MODELS"));
    let mut default_deadline = None;
    let mut spill_dir = std::env::var("SERVE_HTTP_SPILL_DIR").ok();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let value_for = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        match args.get(*i) {
            Some(value) => value.clone(),
            None => fail(&format!("{flag} needs a value")),
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(value_for(&mut i, "--addr")),
            "--models" => models = Some(parse_models(&value_for(&mut i, "--models"), "--models")),
            "--default-deadline-ms" => {
                match value_for(&mut i, "--default-deadline-ms").parse::<u64>() {
                    Ok(ms) if ms > 0 => default_deadline = Some(Duration::from_millis(ms)),
                    _ => fail("--default-deadline-ms needs a positive integer"),
                }
            }
            "--spill-dir" => spill_dir = Some(value_for(&mut i, "--spill-dir")),
            other => fail(&format!(
                "unknown flag {other:?}; usage: serve_http [--addr HOST:PORT] [--models N] \
                 [--default-deadline-ms D] [--spill-dir DIR]"
            )),
        }
        i += 1;
    }
    Flags {
        addr: addr.unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        models: models.unwrap_or(2),
        default_deadline,
        spill_dir,
    }
}

/// Register `n` miniature models: sizes vary so the models are genuinely
/// different networks, and the backend alternates CPU / sim-GPU. With a
/// spill directory, every planned model is persisted as JSON — a later
/// replica pointed at the same directory warms its plan cache from disk
/// instead of re-running rank selection.
fn build_registry(
    n: usize,
    default_deadline: Option<Duration>,
    spill_dir: Option<&str>,
) -> ModelRegistry {
    let capacity = n.max(2) + 2;
    let registry = match spill_dir {
        Some(dir) => {
            let cache = PlanCache::new(capacity)
                .with_spill_dir(dir)
                .unwrap_or_else(|e| fail(&format!("cannot use --spill-dir {dir:?}: {e}")));
            ModelRegistry::with_cache(cache)
        }
        None => ModelRegistry::new(capacity),
    };
    for index in 0..n {
        let descriptor = serving_descriptor(&format!("svc-{index}"), 10 + 2 * index, 4, 6);
        let backend = if index % 2 == 0 {
            BackendKind::Cpu
        } else {
            BackendKind::SimGpu
        };
        let config = ModelConfig {
            batching: BatchingOptions {
                max_batch_size: 8,
                default_deadline,
                ..BatchingOptions::default()
            },
            runtime: RuntimeOptions {
                backend,
                ..RuntimeOptions::default()
            },
            ..ModelConfig::default()
        };
        let name = descriptor.slug();
        registry
            .register(&name, &descriptor, config)
            .expect("register model");
    }
    registry
}

fn main() {
    let flags = parse_flags();
    let registry = Arc::new(build_registry(
        flags.models,
        flags.default_deadline,
        flags.spill_dir.as_deref(),
    ));
    let names: Vec<String> = registry.names().iter().map(|s| s.to_string()).collect();
    let server = HttpServer::bind(&flags.addr, registry).unwrap_or_else(|e| fail(&e.to_string()));
    let addr = server.local_addr();

    println!("tdc-serve HTTP front end on http://{addr}");
    if let Some(deadline) = flags.default_deadline {
        println!("  default request deadline: {} ms", deadline.as_millis());
    }
    println!("  GET  /healthz");
    println!("  GET  /v1/models");
    println!("  GET  /metrics");
    for name in &names {
        println!("  POST /v1/models/{name}/infer");
    }

    // Serve until `POST /admin/shutdown` (or the process is killed). On the
    // admin route the drain is graceful: stop accepting, finish in-flight
    // requests, drain every engine, exit 0.
    let signal = server
        .shutdown_signal()
        .expect("registry-bound server has a shutdown signal");
    signal.wait();
    println!("tdc-serve: shutdown requested, draining");
    let registry = server.shutdown();
    let registry = Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("registry still shared"));
    let reports = registry.shutdown();
    println!(
        "tdc-serve: drained {} model(s), {} request(s) served",
        reports.len(),
        reports
            .iter()
            .map(|(_, r)| r.metrics.completed_requests)
            .sum::<u64>()
    );
}
