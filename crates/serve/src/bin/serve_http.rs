//! The HTTP serving daemon: a multi-model registry behind the std-only
//! HTTP/1.1 front end.
//!
//! Registers `--models N` miniature models (alternating CPU and sim-GPU
//! backends so one process demonstrates both execution paths), binds the
//! front end and serves until killed. `--default-deadline-ms D` gives every
//! model a default per-request deadline (requests not served within `D` ms
//! answer `504`; per-request `deadline_ms` in the body still overrides it).
//!
//! With `--smoke` the process instead exercises its own endpoints once —
//! `/healthz`, `/v1/models`, one `/infer` per model, two pipelined
//! keep-alive requests on a single connection, one batched `inputs` POST,
//! one past-deadline request asserting `504`, the full hot-lifecycle loop
//! (`PUT` a new model → infer against it bit-identical to a direct engine
//! call → `POST …/replan` at a new budget → infer on the new plan →
//! `DELETE` it → assert later infers `404`), a QoS fairness pass (`PUT` a
//! batch-class model, serve a mixed-class burst, assert `/metrics` labels
//! both classes and carries the fleet executor's telemetry), `/metrics`
//! (including the control-plane lifecycle counters), and a controller pass
//! (`POST /v1/models/{name}/tune` + `PUT`/`GET /v1/controller`, pinning
//! that the daemon's watch loop ticks once enabled) — and exits non-zero on
//! any failure, which is what CI runs.
//!
//! Usage:
//!
//! ```text
//! serve_http [--addr HOST:PORT] [--models N] [--default-deadline-ms D]
//!            [--spill-dir DIR] [--smoke]
//! ```
//!
//! `--spill-dir DIR` persists every planned model to `DIR` as JSON and warms
//! the plan cache from it on start — replicas sharing one directory skip
//! rank selection for plans a sibling already computed. `POST
//! /admin/shutdown` drains gracefully (stop accepting, finish in-flight
//! requests, drain the engines) and exits 0 — how a fleet router restarts
//! replicas deterministically.
//!
//! Environment fallbacks: `SERVE_HTTP_ADDR` (default `127.0.0.1:7878`;
//! `--smoke` defaults to an ephemeral port), `SERVE_HTTP_MODELS` (default
//! 2), `SERVE_HTTP_SPILL_DIR`.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tdc_serve::http::{
    http_request, BatchInferBody, BatchInferReply, InferBody, InferReply, RegisterBody,
    RegisterReply, RetireReply,
};
use tdc_serve::{
    serving_descriptor, BackendKind, BatchingOptions, HttpClient, HttpServer, ModelConfig,
    ModelRegistry, PlanCache, PlanningOptions, ReplanReport, RuntimeOptions, ServeEngine,
};

struct Flags {
    addr: String,
    models: usize,
    default_deadline: Option<Duration>,
    spill_dir: Option<String>,
    smoke: bool,
}

fn parse_flags() -> Flags {
    let mut addr = std::env::var("SERVE_HTTP_ADDR").ok();
    let mut models = std::env::var("SERVE_HTTP_MODELS")
        .ok()
        .and_then(|v| v.parse().ok());
    let mut default_deadline = None;
    let mut spill_dir = std::env::var("SERVE_HTTP_SPILL_DIR").ok();
    let mut smoke = false;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let value_for = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        match args.get(*i) {
            Some(value) => value.clone(),
            None => {
                eprintln!("serve_http: {flag} needs a value");
                std::process::exit(2);
            }
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = Some(value_for(&mut i, "--addr")),
            "--models" => match value_for(&mut i, "--models").parse() {
                Ok(n) => models = Some(n),
                Err(_) => {
                    eprintln!("serve_http: --models needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--default-deadline-ms" => {
                match value_for(&mut i, "--default-deadline-ms").parse::<u64>() {
                    Ok(ms) if ms > 0 => default_deadline = Some(Duration::from_millis(ms)),
                    _ => {
                        eprintln!("serve_http: --default-deadline-ms needs a positive integer");
                        std::process::exit(2);
                    }
                }
            }
            "--spill-dir" => spill_dir = Some(value_for(&mut i, "--spill-dir")),
            "--smoke" => smoke = true,
            other => {
                eprintln!(
                    "serve_http: unknown flag {other:?}; usage: \
                     serve_http [--addr HOST:PORT] [--models N] \
                     [--default-deadline-ms D] [--spill-dir DIR] [--smoke]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    Flags {
        // A smoke run should never collide with a port already in use.
        addr: addr.unwrap_or_else(|| {
            if smoke {
                "127.0.0.1:0".to_string()
            } else {
                "127.0.0.1:7878".to_string()
            }
        }),
        models: models.unwrap_or(2).max(1),
        default_deadline,
        spill_dir,
        smoke,
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
                .unwrap_or_else(|e| {
                    eprintln!("serve_http: cannot use --spill-dir {dir:?}: {e}");
                    std::process::exit(2);
                });
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

fn smoke(server: &HttpServer) -> Result<(), String> {
    let addr = server.local_addr();
    let check = |expect_status: u16, method: &str, path: &str, body: Option<&str>| {
        let (status, reply) = http_request(&addr, method, path, body)
            .map_err(|e| format!("{method} {path} failed: {e}"))?;
        if status != expect_status {
            return Err(format!("{method} {path}: status {status}, body {reply}"));
        }
        Ok(reply)
    };

    let health = check(200, "GET", "/healthz", None)?;
    let parsed: tdc_serve::HealthReply = serde_json::from_str(&health)
        .map_err(|e| format!("GET /healthz: bad readiness body: {}", e.message))?;
    if parsed.status != "ok" || !parsed.ready || parsed.admission != "open" {
        return Err(format!("GET /healthz: not ready: {health}"));
    }
    println!("  GET /healthz          -> 200 {health}");
    let models = check(200, "GET", "/v1/models", None)?;
    println!("  GET /v1/models        -> 200 ({} bytes)", models.len());

    let infos = server.registry().model_info();
    for info in &infos {
        let body = serde_json::to_string(&InferBody {
            input: vec![0.5f32; info.input_dims.iter().product()],
            dims: Some(info.input_dims.clone()),
            deadline_ms: None,
        })
        .map_err(|e| format!("serialize infer body: {}", e.message))?;
        let path = format!("/v1/models/{}/infer", info.name);
        let reply = check(200, "POST", &path, Some(&body))?;
        let reply: InferReply = serde_json::from_str(&reply)
            .map_err(|e| format!("POST {path}: bad reply: {}", e.message))?;
        if reply.output.len() != info.output_classes {
            return Err(format!(
                "POST {path}: expected {} logits, got {}",
                info.output_classes,
                reply.output.len()
            ));
        }
        println!(
            "  POST {path} -> 200 ({} logits via {}, batch {})",
            reply.output.len(),
            reply.backend,
            reply.batch_size
        );
    }

    check(404, "POST", "/v1/models/no-such-model/infer", Some("{}")).map(|_| ())?;
    println!("  POST /v1/models/no-such-model/infer -> 404 (as expected)");

    // Keep-alive: two pipelined requests written back-to-back on ONE
    // connection, both answered in order from the server's request loop.
    let mut client =
        HttpClient::connect(&addr).map_err(|e| format!("keep-alive connect failed: {e}"))?;
    for nth in 1..=2 {
        client
            .send("GET", "/healthz", None)
            .map_err(|e| format!("pipelined write {nth} failed: {e}"))?;
    }
    for nth in 1..=2 {
        let (status, _, reply) = client
            .receive()
            .map_err(|e| format!("pipelined response {nth} failed: {e}"))?;
        if status != 200 {
            return Err(format!("pipelined response {nth}: status {status} {reply}"));
        }
    }
    // A third request on the same connection proves it survived.
    let (status, _) = client
        .request("GET", "/healthz", None)
        .map_err(|e| format!("keep-alive follow-up failed: {e}"))?;
    if status != 200 {
        return Err(format!("keep-alive follow-up: status {status}"));
    }
    println!("  keep-alive            -> 2 pipelined + 1 sequential request on one connection");

    // A batched POST: several samples riding one executor batch.
    let info = &infos[0];
    let batch_body = serde_json::to_string(&BatchInferBody {
        inputs: vec![vec![0.5f32; info.input_dims.iter().product()]; 3],
        dims: Some(info.input_dims.clone()),
        deadline_ms: None,
    })
    .map_err(|e| format!("serialize batch body: {}", e.message))?;
    let path = format!("/v1/models/{}/infer", info.name);
    let reply = check(200, "POST", &path, Some(&batch_body))?;
    let reply: BatchInferReply = serde_json::from_str(&reply)
        .map_err(|e| format!("batched POST {path}: bad reply: {}", e.message))?;
    if reply.count != 3 || reply.outputs.len() != 3 {
        return Err(format!(
            "batched POST {path}: expected 3 outputs, got {}",
            reply.outputs.len()
        ));
    }
    println!(
        "  POST {path} -> 200 (batched: {} inputs, executor batches {:?})",
        reply.count, reply.batch_sizes
    );

    // A past-deadline request must answer 504 without reaching the executor:
    // deadline_ms far below the model's batch delay on an idle queue.
    let expired_body = serde_json::to_string(&InferBody {
        input: vec![0.5f32; info.input_dims.iter().product()],
        dims: Some(info.input_dims.clone()),
        deadline_ms: Some(0),
    })
    .map_err(|e| format!("serialize expired body: {}", e.message))?;
    let reply = check(504, "POST", &path, Some(&expired_body))?;
    if !reply.contains("deadline exceeded") {
        return Err(format!("504 reply without a deadline message: {reply}"));
    }
    println!("  POST {path} (deadline_ms=0) -> 504 (as expected)");

    // The hot-lifecycle loop: register a brand-new model on the RUNNING
    // server, infer against it (bit-identical to a direct in-process engine
    // with the same descriptor/options/seed), re-plan it at a different
    // budget, infer on the new plan, retire it, and assert 404 afterwards.
    let hot_descriptor = serving_descriptor("smoke-hot", 10, 4, 6);
    let register = serde_json::to_string(&RegisterBody {
        backend: Some("cpu".to_string()),
        max_batch_size: Some(4),
        max_batch_delay_ms: Some(1),
        ..RegisterBody::for_descriptor(hot_descriptor.clone())
    })
    .map_err(|e| format!("serialize register body: {}", e.message))?;
    let reply = check(200, "PUT", "/v1/models/hot", Some(&register))?;
    let registered: RegisterReply = serde_json::from_str(&reply)
        .map_err(|e| format!("PUT /v1/models/hot: bad reply: {}", e.message))?;
    println!(
        "  PUT /v1/models/hot    -> 200 (epoch {}, plan {})",
        registered.epoch, registered.registered.plan_fingerprint
    );

    let hot_input = vec![0.5f32; 10 * 10 * 4];
    let hot_body = serde_json::to_string(&InferBody {
        input: hot_input.clone(),
        dims: None,
        deadline_ms: None,
    })
    .map_err(|e| format!("serialize hot infer body: {}", e.message))?;
    let reply = check(200, "POST", "/v1/models/hot/infer", Some(&hot_body))?;
    let hot_reply: InferReply =
        serde_json::from_str(&reply).map_err(|e| format!("hot infer: bad reply: {}", e.message))?;
    // Bit parity: a direct engine under the same descriptor/options/seed.
    let direct = |budget: f64| -> Result<Vec<f32>, String> {
        let engine = ServeEngine::builder(&hot_descriptor)
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
            .infer(tdc_tensor::Tensor::from_vec(vec![10, 10, 4], hot_input.clone()).unwrap())
            .map_err(|e| format!("direct infer: {e}"))?;
        Ok(response.output.data().to_vec())
    };
    if hot_reply.output != direct(0.5)? {
        return Err("hot model over HTTP diverged from the direct engine call".to_string());
    }
    println!("  POST /v1/models/hot/infer -> 200 (bit-identical to a direct engine)");

    let reply = check(
        200,
        "POST",
        "/v1/models/hot/replan",
        Some("{\"budget\": 0.9}"),
    )?;
    let replanned: ReplanReport =
        serde_json::from_str(&reply).map_err(|e| format!("replan: bad reply: {}", e.message))?;
    if !replanned.plan_changed || replanned.generation != 2 {
        return Err(format!("replan did not swap the plan: {reply}"));
    }
    let reply = check(200, "POST", "/v1/models/hot/infer", Some(&hot_body))?;
    let swapped: InferReply = serde_json::from_str(&reply)
        .map_err(|e| format!("post-replan infer: bad reply: {}", e.message))?;
    if swapped.output != direct(0.9)? {
        return Err("post-replan output diverged from a direct engine at the new budget".into());
    }
    println!(
        "  POST /v1/models/hot/replan -> 200 (plan {} -> {}, generation 2, bit-parity held)",
        replanned.old_plan_fingerprint, replanned.new_plan_fingerprint
    );

    let reply = check(200, "DELETE", "/v1/models/hot", None)?;
    let retired: RetireReply =
        serde_json::from_str(&reply).map_err(|e| format!("retire: bad reply: {}", e.message))?;
    if retired.completed_requests != 1 {
        return Err(format!(
            "the replanned engine should have served exactly 1 request, saw {}",
            retired.completed_requests
        ));
    }
    check(404, "POST", "/v1/models/hot/infer", Some(&hot_body)).map(|_| ())?;
    check(404, "DELETE", "/v1/models/hot", None).map(|_| ())?;
    println!("  DELETE /v1/models/hot -> 200; later infers -> 404 (as expected)");

    // QoS fairness smoke: a batch-class model joins the shared fleet
    // executor through the admin API, a burst rides it interleaved with the
    // standard-class first model, everything completes, and /metrics labels
    // both classes plus the executor's fleet telemetry.
    let batch_descriptor = serving_descriptor("smoke-batch", 10, 4, 6);
    let register = serde_json::to_string(&RegisterBody {
        backend: Some("cpu".to_string()),
        max_batch_size: Some(4),
        max_batch_delay_ms: Some(1),
        qos: Some("batch".to_string()),
        workers: Some(1),
        ..RegisterBody::for_descriptor(batch_descriptor)
    })
    .map_err(|e| format!("serialize batch-class register body: {}", e.message))?;
    let reply = check(200, "PUT", "/v1/models/smoke-batch", Some(&register))?;
    let registered: RegisterReply = serde_json::from_str(&reply)
        .map_err(|e| format!("PUT /v1/models/smoke-batch: bad reply: {}", e.message))?;
    if registered.registered.qos != "batch" || registered.registered.fair_share_weight != 1 {
        return Err(format!(
            "batch-class registration did not carry qos/weight: {reply}"
        ));
    }
    let batch_class_body = serde_json::to_string(&InferBody {
        input: vec![0.5f32; 10 * 10 * 4],
        dims: None,
        deadline_ms: None,
    })
    .map_err(|e| format!("serialize batch-class infer body: {}", e.message))?;
    let standard_body = serde_json::to_string(&InferBody {
        input: vec![0.5f32; info.input_dims.iter().product()],
        dims: Some(info.input_dims.clone()),
        deadline_ms: None,
    })
    .map_err(|e| format!("serialize standard infer body: {}", e.message))?;
    for _ in 0..4 {
        check(
            200,
            "POST",
            "/v1/models/smoke-batch/infer",
            Some(&batch_class_body),
        )?;
        check(200, "POST", &path, Some(&standard_body))?;
    }
    println!(
        "  PUT /v1/models/smoke-batch (qos=batch) -> 200; 4+4 mixed-class \
         requests all served"
    );
    let fairness_metrics = check(200, "GET", "/metrics", None)?;
    for field in [
        "\"qos\":\"batch\"",
        "\"qos\":\"standard\"",
        "\"executor\":",
        "\"steals_total\":",
        "\"utilization\":",
        "\"bands\":",
        "\"weight\":1",
    ] {
        if !fairness_metrics.contains(field) {
            return Err(format!(
                "metrics missing the executor field {field}: {fairness_metrics}"
            ));
        }
    }
    println!("  GET /metrics          -> 200 (executor telemetry + QoS labels present)");
    let reply = check(200, "DELETE", "/v1/models/smoke-batch", None)?;
    let retired: RetireReply = serde_json::from_str(&reply)
        .map_err(|e| format!("retire smoke-batch: bad reply: {}", e.message))?;
    if retired.completed_requests != 4 {
        return Err(format!(
            "the batch-class engine should have served exactly 4 requests, saw {}",
            retired.completed_requests
        ));
    }

    let metrics = check(200, "GET", "/metrics", None)?;
    // Every model's single infer + the 3-sample batch on the first model +
    // the hot model's two lifecycle requests + the fairness smoke's 4+4
    // mixed-class requests (drained engines stay counted — the fleet total
    // is monotonic).
    let expected_completed = infos.len() + 3 + 2 + 8;
    if !metrics.contains(&format!(
        "\"total_completed_requests\":{expected_completed}"
    )) {
        return Err(format!(
            "metrics did not count the smoke requests: {metrics}"
        ));
    }
    if !metrics.contains("\"total_deadline_exceeded\":1") {
        return Err(format!(
            "metrics did not count the expired smoke request: {metrics}"
        ));
    }
    for counter in [
        "\"models_registered_total\":",
        "\"models_retired_total\":2",
        "\"replans_total\":1",
        "\"plan_cache\"",
    ] {
        if !metrics.contains(counter) {
            return Err(format!(
                "metrics missing the control-plane counter {counter}: {metrics}"
            ));
        }
    }
    println!(
        "  GET /metrics          -> 200 ({} bytes, lifecycle counters present)",
        metrics.len()
    );

    // The controller pass: the joint-knob tune and the watch-loop config
    // must both answer over plain HTTP, and enabling the loop must set the
    // daemon's watch thread ticking. (Runs after the lifecycle-counter
    // checks — an applied tune is one more replan.)
    let name = &infos[0].name;
    let reply = check(
        200,
        "POST",
        &format!("/v1/models/{name}/tune"),
        Some("{\"target_p99_ms\": 250.0}"),
    )?;
    let tuned: tdc_serve::TuneReport = serde_json::from_str(&reply)
        .map_err(|e| format!("tune {name}: bad reply: {}", e.message))?;
    if tuned.tuning_generation != 1 {
        return Err(format!("tune did not record a generation: {reply}"));
    }
    let reply = check(
        200,
        "PUT",
        "/v1/controller",
        Some("{\"enabled\": true, \"interval_ms\": 20}"),
    )?;
    let status: tdc_serve::ControllerStatus = serde_json::from_str(&reply)
        .map_err(|e| format!("PUT /v1/controller: bad reply: {}", e.message))?;
    if !status.config.enabled {
        return Err(format!(
            "PUT /v1/controller did not enable the loop: {reply}"
        ));
    }
    // The thread may still be sleeping out the default interval. The
    // smoke's models hold fewer than `min_samples` samples, so its ticks
    // examine nothing and the tune count stays at 1.
    let deadline = Instant::now() + Duration::from_secs(5);
    let (status, reply) = loop {
        let reply = check(200, "GET", "/v1/controller", None)?;
        let status: tdc_serve::ControllerStatus = serde_json::from_str(&reply)
            .map_err(|e| format!("GET /v1/controller: bad reply: {}", e.message))?;
        if status.watchers == 1 && status.ticks_total > 0 {
            break (status, reply);
        }
        if Instant::now() >= deadline {
            return Err(format!("the watch loop is not ticking: {reply}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    if status.tunes_total != 1 {
        return Err(format!("controller did not record the tune: {reply}"));
    }
    println!(
        "  POST /v1/models/{name}/tune + PUT/GET /v1/controller -> 200 (tune recorded, \
         watch loop ticking)"
    );
    Ok(())
}

fn main() {
    let flags = parse_flags();
    let registry = Arc::new(build_registry(
        flags.models,
        flags.default_deadline,
        flags.spill_dir.as_deref(),
    ));
    // One watch thread for the daemon's lifetime; `PUT /v1/controller`
    // enables it. A tick upgrades its `Weak` to a strong handle, so the
    // watch is dropped (stopped and joined) before every drain below
    // unwraps the registry.
    let watch = registry.watch();
    let names: Vec<String> = registry.names().iter().map(|s| s.to_string()).collect();
    let server = HttpServer::bind(&flags.addr, registry).expect("bind HTTP front end");
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

    if flags.smoke {
        println!("\nsmoke mode: exercising every endpoint once");
        match smoke(&server) {
            Ok(()) => {
                let registry = server.shutdown();
                drop(watch);
                let registry =
                    Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("registry still shared"));
                let reports = registry.shutdown();
                println!(
                    "smoke ok: {} model(s) served {} request(s)",
                    reports.len(),
                    reports
                        .iter()
                        .map(|(_, r)| r.metrics.completed_requests)
                        .sum::<u64>()
                );
            }
            Err(message) => {
                eprintln!("smoke FAILED: {message}");
                std::process::exit(1);
            }
        }
        return;
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
    drop(watch);
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
