//! The fleet router daemon: one process fronting N `serve_http` replicas
//! behind the identical public HTTP API.
//!
//! Replicas come from `--replicas HOST:PORT,...` (front an existing fleet)
//! or `--spawn N` (self-spawn N `serve_http` children on ephemeral ports —
//! a one-command local fleet; children are drained via `POST
//! /admin/shutdown` when the router exits). `--spill-dir DIR` is forwarded
//! to spawned children so they share one plan-spill directory: the first
//! replica to plan a model spills it, its siblings warm from disk.
//!
//! Usage:
//!
//! ```text
//! router [--addr HOST:PORT] [--replicas HOST:PORT,...] [--spawn N]
//!        [--policy hash|least-loaded] [--spill-dir DIR]
//! ```
//!
//! Environment fallbacks: `ROUTER_ADDR` (default `127.0.0.1:7979`),
//! `ROUTER_POLICY`, `TDC_SERVE_HTTP_BIN` (path to the `serve_http` binary
//! for `--spawn`; defaults to a sibling of this executable).
//!
//! A bad flag or environment value, `--spill-dir` without `--spawn`, a
//! replica that cannot be spawned or an address that cannot be bound
//! prints one line to stderr and exits 2, after draining any replica it
//! already spawned. `crates/router/tests/daemon.rs` drives this binary end
//! to end.

use std::net::SocketAddr;
use std::sync::Arc;

use tdc_router::testkit::{shutdown_replica, spawn_replica, ChildReplica};
use tdc_router::{Router, RouterOptions, RoutingPolicy};
use tdc_serve::HttpServer;

struct Flags {
    addr: String,
    replicas: Vec<SocketAddr>,
    spawn: usize,
    policy: RoutingPolicy,
    spill_dir: Option<String>,
}

/// Print one start-up error line and exit 2.
fn fail(message: &str) -> ! {
    eprintln!("router: {message}");
    std::process::exit(2);
}

/// A routing policy label, from the flag or the environment alike.
fn parse_policy(label: &str, source: &str) -> RoutingPolicy {
    RoutingPolicy::parse(label)
        .unwrap_or_else(|| fail(&format!("unknown {source} {label:?} (hash | least-loaded)")))
}

fn parse_flags() -> Flags {
    let mut addr = std::env::var("ROUTER_ADDR").ok();
    let mut replicas = Vec::new();
    let mut spawn = 0usize;
    let mut policy = std::env::var("ROUTER_POLICY")
        .ok()
        .map(|label| parse_policy(&label, "ROUTER_POLICY"));
    let mut spill_dir = None;
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
            "--replicas" => {
                for part in value_for(&mut i, "--replicas").split(',') {
                    match part.trim().parse() {
                        Ok(parsed) => replicas.push(parsed),
                        Err(_) => fail(&format!("--replicas entry {part:?} is not HOST:PORT")),
                    }
                }
            }
            "--spawn" => match value_for(&mut i, "--spawn").parse() {
                Ok(n) if n > 0 => spawn = n,
                _ => fail("--spawn needs a positive integer"),
            },
            "--policy" => policy = Some(parse_policy(&value_for(&mut i, "--policy"), "--policy")),
            "--spill-dir" => spill_dir = Some(value_for(&mut i, "--spill-dir")),
            other => fail(&format!(
                "unknown flag {other:?}; usage: \
                 router [--addr HOST:PORT] [--replicas HOST:PORT,...] [--spawn N] \
                 [--policy hash|least-loaded] [--spill-dir DIR]"
            )),
        }
        i += 1;
    }
    if replicas.is_empty() && spawn == 0 {
        fail("need --replicas or --spawn");
    }
    if spill_dir.is_some() && spawn == 0 {
        fail("--spill-dir is forwarded to spawned replicas only; it needs --spawn");
    }
    Flags {
        addr: addr.unwrap_or_else(|| "127.0.0.1:7979".to_string()),
        replicas,
        spawn,
        policy: policy.unwrap_or(RoutingPolicy::ConsistentHash),
        spill_dir,
    }
}

/// Drain the replicas spawned so far, then [`fail`].
fn drain_and_fail(children: Vec<ChildReplica>, message: &str) -> ! {
    for child in children {
        shutdown_replica(child);
    }
    fail(message)
}

fn main() {
    let flags = parse_flags();
    let mut children = Vec::new();
    for index in 0..flags.spawn {
        match spawn_replica(index, flags.spill_dir.as_deref()) {
            Ok(child) => {
                println!("router: spawned replica {index} on http://{}", child.addr);
                children.push(child);
            }
            Err(message) => drain_and_fail(children, &message),
        }
    }

    let mut addrs = flags.replicas.clone();
    addrs.extend(children.iter().map(|c| c.addr));
    let options = RouterOptions {
        policy: flags.policy,
        ..RouterOptions::default()
    };
    let router = Arc::new(Router::new(&addrs, options));
    let signal = router.shutdown_signal();
    let server = match HttpServer::bind_with_handler(&flags.addr, Arc::clone(&router) as _) {
        Ok(server) => server,
        Err(e) => drain_and_fail(children, &e.to_string()),
    };
    let addr = server.local_addr();

    println!(
        "tdc-router fleet router on http://{addr} fronting {} replica(s) [{}]",
        addrs.len(),
        flags.policy.label()
    );
    for (i, replica) in addrs.iter().enumerate() {
        println!("  replica {i}: http://{replica}");
    }

    // Serve until `POST /admin/shutdown`, then drain the fleet we spawned.
    signal.wait();
    println!("tdc-router: shutdown requested, draining the fleet");
    router.stop();
    server.stop();
    for child in children.drain(..) {
        shutdown_replica(child);
    }
    println!("tdc-router: fleet drained");
}
