//! Shared test support for fleet topologies.
//!
//! Spawning a replica fleet, draining it deterministically and hammering it
//! over keep-alive connections is needed by the `tdc-lab` chaos harness, the
//! workspace's `tests/router.rs` and the `router` binary's `--spawn`, all
//! outside this crate, so this one copy ships in the library proper rather
//! than behind `cfg(test)`.
//!
//! Two families of helpers:
//!
//! * **in-process fleets** — each replica is a [`ModelRegistry`] behind its
//!   own [`HttpServer`] inside the current process
//!   ([`bind_replica`] / [`bind_fleet`] / [`drain_replica`]): cheap, fully
//!   deterministic teardown, the right shape for tests that kill a replica
//!   mid-load by draining it;
//! * **child-process fleets** — each replica is a spawned `serve_http`
//!   process ([`spawn_replica`] / [`shutdown_replica`]): real processes with
//!   real connection resets, what `router --spawn` runs.

use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{Router, RouterOptions, RoutingPolicy};
use tdc_nn::models::ModelDescriptor;
use tdc_serve::http::{http_request, InferBody};
use tdc_serve::{
    BatchingOptions, HttpClient, HttpServer, ModelConfig, ModelRegistry, RuntimeOptions,
};

/// The stock fleet-replica model configuration: small batches with a short
/// batching window (so kill-under-load tests see many small dispatch
/// boundaries) on two engine workers.
pub fn fleet_config() -> ModelConfig {
    ModelConfig {
        batching: BatchingOptions {
            max_batch_size: 4,
            max_batch_delay: Duration::from_millis(1),
            ..BatchingOptions::default()
        },
        runtime: RuntimeOptions {
            workers: 2,
            ..RuntimeOptions::default()
        },
        ..ModelConfig::default()
    }
}

/// One in-process replica: a fresh [`ModelRegistry`] serving `model` behind
/// its own HTTP front end bound on `addr` (use `"127.0.0.1:0"` for an
/// ephemeral port, or a previous replica's address to restart "on the same
/// port").
pub fn bind_replica(
    addr: &str,
    model: &str,
    descriptor: &ModelDescriptor,
    config: ModelConfig,
) -> HttpServer {
    let registry = ModelRegistry::new(2);
    registry
        .register(model, descriptor, config)
        .expect("register fleet model");
    HttpServer::bind(addr, Arc::new(registry)).expect("bind fleet replica")
}

/// Fully drain one in-process replica: stop its front end, then its engines.
/// Panics if something still holds the replica's registry.
pub fn drain_replica(server: HttpServer) {
    let registry = server.shutdown();
    let registry =
        Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("fleet registry still shared"));
    registry.shutdown();
}

/// An `n`-replica in-process fleet behind a [`Router`] front end: every
/// replica serves `model` with the same `config`, so routed outputs are
/// bit-identical regardless of placement. Returns the replica servers (in
/// replica-id order), the router, and the front-end server hosting it.
pub fn bind_fleet(
    n: usize,
    options: RouterOptions,
    model: &str,
    descriptor: &ModelDescriptor,
    config: &ModelConfig,
) -> (Vec<HttpServer>, Arc<Router>, HttpServer) {
    let servers: Vec<HttpServer> = (0..n)
        .map(|_| bind_replica("127.0.0.1:0", model, descriptor, config.clone()))
        .collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    let router = Arc::new(Router::new(&addrs, options));
    let front = HttpServer::bind_with_handler("127.0.0.1:0", Arc::clone(&router) as _)
        .expect("bind router front end");
    (servers, router, front)
}

/// Router options with the background prober disabled (`probe_interval`
/// zero): tests drive sweeps deterministically via `Router::probe_once`.
pub fn manual_probe_options(policy: RoutingPolicy) -> RouterOptions {
    RouterOptions {
        policy,
        probe_interval: Duration::ZERO,
    }
}

/// A self-spawned `serve_http` child process and the address it bound.
pub struct ChildReplica {
    /// Replica id within its fleet (stable across a kill/restart).
    pub index: usize,
    /// The child process handle.
    pub child: Child,
    /// The address the child reported binding.
    pub addr: SocketAddr,
}

/// The `serve_http` binary to spawn child replicas from:
/// `TDC_SERVE_HTTP_BIN` if set, else a sibling of the current executable.
pub fn serve_http_bin() -> std::path::PathBuf {
    if let Ok(path) = std::env::var("TDC_SERVE_HTTP_BIN") {
        return path.into();
    }
    let mut path = std::env::current_exe().expect("current executable path");
    path.set_file_name(format!("serve_http{}", std::env::consts::EXE_SUFFIX));
    path
}

/// Spawn one `serve_http` child on an ephemeral port, parse the bound
/// address from its startup line, and leave a thread draining the rest of
/// its stdout so the child never blocks on a full pipe.
pub fn spawn_replica(index: usize, spill_dir: Option<&str>) -> Result<ChildReplica, String> {
    let bin = serve_http_bin();
    let mut command = Command::new(&bin);
    command
        .args(["--addr", "127.0.0.1:0", "--models", "2"])
        .stdout(Stdio::piped())
        .stdin(Stdio::null());
    if let Some(dir) = spill_dir {
        command.arg("--spill-dir").arg(dir);
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("spawn {} failed: {e}", bin.display()))?;
    let stdout = child.stdout.take().expect("piped child stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    let bound = loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                let _ = child.kill();
                return Err(format!(
                    "replica {index} exited before printing its address"
                ));
            }
            Ok(_) => {
                if let Some(rest) = line
                    .trim()
                    .strip_prefix("tdc-serve HTTP front end on http://")
                {
                    match rest.parse() {
                        Ok(parsed) => break parsed,
                        Err(_) => {
                            let _ = child.kill();
                            return Err(format!("replica {index}: bad address line {line:?}"));
                        }
                    }
                }
            }
            Err(e) => {
                let _ = child.kill();
                return Err(format!("replica {index}: reading startup line failed: {e}"));
            }
        }
    };
    // Keep the child's pipe drained so it never blocks on a full buffer.
    std::thread::spawn(move || {
        let mut sink = String::new();
        loop {
            sink.clear();
            match reader.read_line(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    });
    Ok(ChildReplica {
        index,
        child,
        addr: bound,
    })
}

/// Gracefully drain a child replica via `POST /admin/shutdown`, falling
/// back to a kill if it has not exited within five seconds.
pub fn shutdown_replica(mut replica: ChildReplica) {
    let _ = http_request(&replica.addr, "POST", "/admin/shutdown", None);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match replica.child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(25)),
            _ => {
                eprintln!(
                    "testkit: replica {} did not drain in time, killing",
                    replica.index
                );
                let _ = replica.child.kill();
                let _ = replica.child.wait();
                return;
            }
        }
    }
}

/// Outcome of one [`hammer`] run: how many requests answered 200, and the
/// first non-200 (status, body) if any.
pub struct HammerReport {
    /// Requests answered `200 OK`.
    pub ok: u64,
    /// Client-visible failures (non-200 statuses, transport errors).
    pub failures: u64,
    /// The first failure's (status, body); status 0 for transport errors.
    pub first_failure: Option<(u16, String)>,
}

/// Fire `requests` single-sample infers at `addr` from one keep-alive
/// connection (reconnecting if the server drops it), recording any
/// client-visible failure. `progress` (when provided) is bumped once per
/// request so a coordinator can kill a replica mid-flight instead of
/// guessing with a sleep.
pub fn hammer(
    addr: SocketAddr,
    model: &str,
    input: &[f32],
    requests: u64,
    progress: Option<Arc<AtomicU64>>,
) -> HammerReport {
    let path = format!("/v1/models/{model}/infer");
    let body = serde_json::to_string(&InferBody {
        input: input.to_vec(),
        dims: None,
        deadline_ms: None,
    })
    .expect("serialize hammer body");
    let mut report = HammerReport {
        ok: 0,
        failures: 0,
        first_failure: None,
    };
    let mut client: Option<HttpClient> = None;
    for _ in 0..requests {
        if client.is_none() {
            client = HttpClient::connect(&addr).ok();
        }
        let outcome = match client.as_mut() {
            Some(live) => live.request("POST", &path, Some(&body)),
            None => http_request(&addr, "POST", &path, Some(&body)),
        };
        match outcome {
            Ok((200, _)) => report.ok += 1,
            Ok((status, reply)) => {
                report.failures += 1;
                report.first_failure.get_or_insert((status, reply));
                client = None;
            }
            Err(e) => {
                report.failures += 1;
                report
                    .first_failure
                    .get_or_insert((0, format!("transport error: {e}")));
                client = None;
            }
        }
        if let Some(counter) = &progress {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
    report
}
