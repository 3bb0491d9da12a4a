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
//! With `--smoke` the process runs the end-to-end fleet self-test CI uses:
//! spawn 3 replicas, register a model fleet-wide, verify routed inference
//! is bit-identical to a direct in-process engine, hammer the router while
//! one replica is shut down mid-load (zero client-visible failures, the
//! prober ejects it), restart the replica on the same port (the prober
//! re-admits it), run a rolling replan under the same hammer, retire the
//! model, and tear the fleet down — exiting non-zero on any failure.
//!
//! Usage:
//!
//! ```text
//! router [--addr HOST:PORT] [--replicas HOST:PORT,...] [--spawn N]
//!        [--policy hash|least-loaded] [--spill-dir DIR] [--smoke]
//! ```
//!
//! Environment fallbacks: `ROUTER_ADDR` (default `127.0.0.1:7979`;
//! `--smoke` defaults to an ephemeral port), `ROUTER_POLICY`,
//! `TDC_SERVE_HTTP_BIN` (path to the `serve_http` binary for `--spawn`;
//! defaults to a sibling of this executable).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdc_router::testkit::{
    await_metrics, hammer, router_metrics, shutdown_replica, spawn_replica, ChildReplica,
};
use tdc_router::{Router, RouterHealthReply, RouterOptions, RoutingPolicy};
use tdc_serve::http::{
    http_request, BatchInferBody, BatchInferReply, InferBody, InferReply, RegisterBody,
};
use tdc_serve::{serving_descriptor, BatchingOptions, HttpServer, PlanningOptions, ServeEngine};

struct Flags {
    addr: String,
    replicas: Vec<SocketAddr>,
    spawn: usize,
    policy: RoutingPolicy,
    spill_dir: Option<String>,
    smoke: bool,
}

fn parse_flags() -> Flags {
    let mut addr = std::env::var("ROUTER_ADDR").ok();
    let mut replicas = Vec::new();
    let mut spawn = 0usize;
    let mut policy = std::env::var("ROUTER_POLICY")
        .ok()
        .and_then(|label| RoutingPolicy::parse(&label));
    let mut spill_dir = None;
    let mut smoke = false;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let value_for = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        match args.get(*i) {
            Some(value) => value.clone(),
            None => {
                eprintln!("router: {flag} needs a value");
                std::process::exit(2);
            }
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(value_for(&mut i, "--addr")),
            "--replicas" => {
                for part in value_for(&mut i, "--replicas").split(',') {
                    match part.trim().parse() {
                        Ok(parsed) => replicas.push(parsed),
                        Err(_) => {
                            eprintln!("router: --replicas entry {part:?} is not HOST:PORT");
                            std::process::exit(2);
                        }
                    }
                }
            }
            "--spawn" => match value_for(&mut i, "--spawn").parse() {
                Ok(n) => spawn = n,
                Err(_) => {
                    eprintln!("router: --spawn needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--policy" => {
                let label = value_for(&mut i, "--policy");
                match RoutingPolicy::parse(&label) {
                    Some(parsed) => policy = Some(parsed),
                    None => {
                        eprintln!("router: unknown --policy {label:?} (hash | least-loaded)");
                        std::process::exit(2);
                    }
                }
            }
            "--spill-dir" => spill_dir = Some(value_for(&mut i, "--spill-dir")),
            "--smoke" => smoke = true,
            other => {
                eprintln!(
                    "router: unknown flag {other:?}; usage: \
                     router [--addr HOST:PORT] [--replicas HOST:PORT,...] [--spawn N] \
                     [--policy hash|least-loaded] [--spill-dir DIR] [--smoke]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    Flags {
        addr: addr.unwrap_or_else(|| {
            if smoke {
                "127.0.0.1:0".to_string()
            } else {
                "127.0.0.1:7979".to_string()
            }
        }),
        replicas,
        spawn,
        policy: policy.unwrap_or(RoutingPolicy::ConsistentHash),
        spill_dir,
        smoke,
    }
}

/// The end-to-end fleet self-test. See the module docs for the scenario.
fn smoke(
    server: &HttpServer,
    children: &mut Vec<ChildReplica>,
    spill_dir: &str,
) -> Result<(), String> {
    let addr = server.local_addr();
    let check = |expect_status: u16, method: &str, path: &str, body: Option<&str>| {
        let (status, reply) = http_request(&addr, method, path, body)
            .map_err(|e| format!("{method} {path} failed: {e}"))?;
        if status != expect_status {
            return Err(format!("{method} {path}: status {status}, body {reply}"));
        }
        Ok(reply)
    };

    // Readiness: the router reports its fleet.
    let health = check(200, "GET", "/healthz", None)?;
    let parsed: RouterHealthReply = serde_json::from_str(&health)
        .map_err(|e| format!("GET /healthz: bad body: {}", e.message))?;
    if !parsed.ready || parsed.replicas != 3 {
        return Err(format!("GET /healthz: fleet not ready: {health}"));
    }
    println!("  GET /healthz          -> 200 {health}");

    // The replica surface is proxied transparently.
    let models = check(200, "GET", "/v1/models", None)?;
    if !models.contains("svc-") {
        return Err(format!("GET /v1/models missing the stock models: {models}"));
    }
    println!(
        "  GET /v1/models        -> 200 ({} bytes, proxied)",
        models.len()
    );

    // Fleet-wide register: every replica learns the model.
    let descriptor = serving_descriptor("smoke-hot", 10, 4, 6);
    let register = serde_json::to_string(&RegisterBody {
        backend: Some("cpu".to_string()),
        max_batch_size: Some(4),
        max_batch_delay_ms: Some(1),
        ..RegisterBody::for_descriptor(descriptor.clone())
    })
    .map_err(|e| format!("serialize register body: {}", e.message))?;
    let reply = check(200, "PUT", "/v1/models/hot", Some(&register))?;
    if !reply.contains("\"ok\":true") {
        return Err(format!("fleet register not ok: {reply}"));
    }
    println!("  PUT /v1/models/hot    -> 200 (fan-out to 3 replicas)");

    // Spill warm-up: the register fan-out is sequential, so the first
    // replica plans `hot` and spills it; its siblings must warm the same
    // plan from the shared directory instead of re-running rank selection.
    let mut disk_hits = 0.0;
    for child in children.iter() {
        let (status, body) = http_request(&child.addr, "GET", "/metrics", None)
            .map_err(|e| format!("replica {} GET /metrics: {e}", child.index))?;
        if status != 200 {
            return Err(format!("replica {} GET /metrics: {status}", child.index));
        }
        let value = serde_json::parse_value(&body)
            .map_err(|e| format!("replica {} metrics: {}", child.index, e.message))?;
        disk_hits += value
            .get("plan_cache")
            .and_then(|cache| cache.get("disk_hits"))
            .and_then(|hits| hits.as_f64())
            .unwrap_or(0.0);
    }
    if disk_hits < 1.0 {
        return Err(format!(
            "expected at least one plan-spill disk hit across the fleet \
             (shared --spill-dir {spill_dir}), saw {disk_hits}"
        ));
    }
    println!("  plan spill            -> {disk_hits} disk hit(s) across the fleet");

    // Routed inference is bit-identical to a direct in-process engine.
    let input = vec![0.5f32; 10 * 10 * 4];
    let infer_body = serde_json::to_string(&InferBody {
        input: input.clone(),
        dims: None,
        deadline_ms: None,
    })
    .map_err(|e| format!("serialize infer body: {}", e.message))?;
    let reply = check(200, "POST", "/v1/models/hot/infer", Some(&infer_body))?;
    let routed: InferReply = serde_json::from_str(&reply)
        .map_err(|e| format!("routed infer: bad reply: {}", e.message))?;
    let direct = |budget: f64| -> Result<Vec<f32>, String> {
        let engine = ServeEngine::builder(&descriptor)
            .planning(PlanningOptions {
                budget,
                ..PlanningOptions::default()
            })
            .batching(BatchingOptions {
                max_batch_size: 4,
                max_batch_delay: Duration::from_millis(1),
                ..BatchingOptions::default()
            })
            .build()
            .map_err(|e| format!("direct engine: {e}"))?;
        let response = engine
            .infer(tdc_tensor::Tensor::from_vec(vec![10, 10, 4], input.clone()).unwrap())
            .map_err(|e| format!("direct infer: {e}"))?;
        Ok(response.output.data().to_vec())
    };
    if routed.output != direct(0.5)? {
        return Err("routed inference diverged from the direct engine call".to_string());
    }
    println!("  POST /v1/models/hot/infer -> 200 (bit-identical to a direct engine)");

    // The batched form rides through the router unchanged.
    let batch_body = serde_json::to_string(&BatchInferBody {
        inputs: vec![input.clone(); 3],
        dims: None,
        deadline_ms: None,
    })
    .map_err(|e| format!("serialize batch body: {}", e.message))?;
    let reply = check(200, "POST", "/v1/models/hot/infer", Some(&batch_body))?;
    let batched: BatchInferReply = serde_json::from_str(&reply)
        .map_err(|e| format!("batched routed infer: bad reply: {}", e.message))?;
    if batched.count != 3 {
        return Err(format!("batched routed infer: count {}", batched.count));
    }
    println!("  POST /v1/models/hot/infer -> 200 (batched, 3 inputs)");

    // Kill one replica mid-load: clients must see zero failures while the
    // prober ejects the dead replica.
    let victim = children.remove(0);
    let victim_addr = victim.addr;
    let progress = Arc::new(AtomicU64::new(0));
    let hammer_threads: Vec<_> = (0..4)
        .map(|_| {
            let input = input.clone();
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || hammer(addr, "hot", &input, 120, Some(progress)))
        })
        .collect();
    // Kill the victim once the hammer is demonstrably mid-flight — a fixed
    // sleep either fires after a fast hammer already drained (no failovers
    // to observe) or before it ramped. 60/480 done leaves 420 requests to
    // land on a 2-replica fleet.
    let ramp = Instant::now();
    while progress.load(Ordering::Relaxed) < 60 && ramp.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    shutdown_replica(victim);
    let mut ok = 0u64;
    for thread in hammer_threads {
        let report = thread.join().expect("hammer thread");
        ok += report.ok;
        if report.failures > 0 {
            let (status, body) = report.first_failure.unwrap_or_default();
            return Err(format!(
                "kill-under-load: {} client-visible failure(s), first: {status} {body}",
                report.failures
            ));
        }
    }
    let metrics = await_metrics(&addr, Duration::from_secs(10), |m| m.ejections_total >= 1)?;
    if metrics.failovers_total == 0 {
        return Err("kill-under-load produced no failovers".to_string());
    }
    println!(
        "  kill replica 0 mid-load -> {ok} requests, 0 failures \
         ({} failover(s), ejected after {} probe failures)",
        metrics.failovers_total,
        tdc_router::EJECT_AFTER
    );

    // Restart the replica on its old port: the prober must re-admit it.
    let revived = spawn_replica(0, &victim_addr.to_string(), Some(spill_dir))?;
    if revived.addr != victim_addr {
        return Err(format!(
            "revived replica bound {} instead of {victim_addr}",
            revived.addr
        ));
    }
    children.insert(0, revived);
    let metrics = await_metrics(&addr, Duration::from_secs(10), |m| {
        m.readmissions_total >= 1 && m.replicas.iter().all(|r| r.healthy)
    })?;
    println!(
        "  restart replica 0     -> re-admitted ({} readmission(s), fleet healthy)",
        metrics.readmissions_total
    );

    // Catch the revived replica up on fleet state: a fresh process only
    // knows its stock models, so `hot` is re-registered directly against
    // it. The shared spill directory makes this cheap — the plan comes
    // back as a disk hit instead of a fresh rank selection.
    let (status, reply) = http_request(&victim_addr, "PUT", "/v1/models/hot", Some(&register))
        .map_err(|e| format!("re-register on revived replica failed: {e}"))?;
    if status != 200 {
        return Err(format!("re-register on revived replica: {status} {reply}"));
    }
    println!("  PUT replica 0 /v1/models/hot -> 200 (caught up from the shared spill)");

    // Rolling replan under fire: one replica re-plans at a time, so the
    // hammer keeps landing on the other two with zero failures.
    let hammer_threads: Vec<_> = (0..2)
        .map(|_| {
            let input = input.clone();
            std::thread::spawn(move || hammer(addr, "hot", &input, 80, None))
        })
        .collect();
    let reply = check(
        200,
        "POST",
        "/v1/models/hot/replan",
        Some("{\"budget\": 0.9}"),
    )?;
    if !reply.contains("\"ok\":true") {
        return Err(format!("rolling replan not ok: {reply}"));
    }
    for thread in hammer_threads {
        let report = thread.join().expect("hammer thread");
        if report.failures > 0 {
            let (status, body) = report.first_failure.unwrap_or_default();
            return Err(format!(
                "rolling replan: {} client-visible failure(s), first: {status} {body}",
                report.failures
            ));
        }
    }
    // Post-replan inference matches a direct engine at the new budget.
    let reply = check(200, "POST", "/v1/models/hot/infer", Some(&infer_body))?;
    let swapped: InferReply = serde_json::from_str(&reply)
        .map_err(|e| format!("post-replan infer: bad reply: {}", e.message))?;
    if swapped.output != direct(0.9)? {
        return Err("post-replan routed output diverged from the new-budget engine".to_string());
    }
    println!("  POST /v1/models/hot/replan -> 200 (rolling, zero failures under hammer)");

    // Fleet retire: the model disappears everywhere.
    check(200, "DELETE", "/v1/models/hot", None)?;
    check(404, "POST", "/v1/models/hot/infer", Some(&infer_body)).map(|_| ())?;
    println!("  DELETE /v1/models/hot -> 200; later infers -> 404 (fleet-wide)");

    let metrics = router_metrics(&addr)?;
    if metrics.fleet_registers_total != 1
        || metrics.fleet_replans_total != 1
        || metrics.fleet_retires_total != 1
    {
        return Err(format!(
            "fleet counters off: {}",
            serde_json::to_string(&metrics).unwrap_or_default()
        ));
    }
    println!(
        "  GET /metrics          -> 200 ({} forwarded, {} failover(s), \
         {} ejection(s), {} readmission(s))",
        metrics.forwarded_total,
        metrics.failovers_total,
        metrics.ejections_total,
        metrics.readmissions_total
    );
    Ok(())
}

fn main() {
    let flags = parse_flags();
    if flags.replicas.is_empty() && flags.spawn == 0 && !flags.smoke {
        eprintln!("router: need --replicas or --spawn (or --smoke)");
        std::process::exit(2);
    }

    // Smoke always runs the canonical 3-replica topology with fast probes
    // and least-loaded routing (so the kill-under-load path must fail over).
    let spawn = if flags.smoke && flags.spawn == 0 && flags.replicas.is_empty() {
        3
    } else {
        flags.spawn
    };
    let smoke_spill;
    let spill_dir = if flags.smoke && flags.spill_dir.is_none() {
        smoke_spill = std::env::temp_dir().join(format!("tdc-router-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&smoke_spill).expect("create smoke spill dir");
        Some(smoke_spill.to_string_lossy().into_owned())
    } else {
        flags.spill_dir.clone()
    };

    let mut children = Vec::new();
    for index in 0..spawn {
        match spawn_replica(index, "127.0.0.1:0", spill_dir.as_deref()) {
            Ok(child) => {
                println!("router: spawned replica {index} on http://{}", child.addr);
                children.push(child);
            }
            Err(message) => {
                eprintln!("router: {message}");
                for child in children {
                    shutdown_replica(child);
                }
                std::process::exit(1);
            }
        }
    }

    let mut addrs = flags.replicas.clone();
    addrs.extend(children.iter().map(|c| c.addr));
    let options = if flags.smoke {
        RouterOptions {
            policy: RoutingPolicy::LeastLoaded,
            probe_interval: Duration::from_millis(100),
        }
    } else {
        RouterOptions {
            policy: flags.policy,
            ..RouterOptions::default()
        }
    };
    let policy = options.policy;
    let router = Arc::new(Router::new(&addrs, options));
    let signal = router.shutdown_signal();
    let server = HttpServer::bind_with_handler(&flags.addr, Arc::clone(&router) as _)
        .expect("bind router front end");
    let addr = server.local_addr();

    println!(
        "tdc-router fleet router on http://{addr} fronting {} replica(s) [{}]",
        addrs.len(),
        policy.label()
    );
    for (i, replica) in addrs.iter().enumerate() {
        println!("  replica {i}: http://{replica}");
    }

    if flags.smoke {
        println!("\nsmoke mode: exercising the fleet end to end");
        let spill = spill_dir.as_deref().expect("smoke always has a spill dir");
        let outcome = smoke(&server, &mut children, spill);
        router.stop();
        server.stop();
        for child in children.drain(..) {
            shutdown_replica(child);
        }
        match outcome {
            Ok(()) => println!("smoke ok: fleet routed, failed over, replanned and retired"),
            Err(message) => {
                eprintln!("smoke FAILED: {message}");
                std::process::exit(1);
            }
        }
        return;
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
