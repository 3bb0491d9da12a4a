//! Minimal tour of the serving subsystem: build an engine with the typed
//! builder, serve a concurrent burst, restart warm from the plan cache and
//! print the measured full-batch execution estimate beside the plan's
//! modelled per-layer GPU latency, then host two models behind the
//! multi-model registry + HTTP front end and query them over a real socket.
//!
//! Run with: `cargo run --release --example serve_demo`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdc_repro::core::Backend;
use tdc_repro::serve::http::{
    http_request, BatchInferBody, BatchInferReply, InferBody, InferReply,
};
use tdc_repro::serve::{
    serving_descriptor, BatchingOptions, CacheOutcome, HttpClient, HttpServer, ModelConfig,
    ModelRegistry, PlanCache, PlanningOptions, ServeEngine,
};
use tdc_repro::tensor::init;

fn main() {
    // A miniature chain model: 4 convolutions, 8->32 channels on 16x16 inputs.
    let descriptor = serving_descriptor("serve-demo", 16, 8, 10);
    let planning = PlanningOptions::default();
    let batching = BatchingOptions {
        max_batch_size: 8,
        max_batch_delay: Duration::from_millis(2),
        ..BatchingOptions::default()
    };
    let cache = PlanCache::new(4);

    // Cold start: rank selection + codegen run once and are cached.
    let started = Instant::now();
    let engine = ServeEngine::builder(&descriptor)
        .planning(planning.clone())
        .batching(batching.clone())
        .plan_cache(&cache)
        .build()
        .expect("build engine");
    println!(
        "cold start in {:.1} ms: {} ({} of {} layers Tucker-decomposed, \
         {:.0}% FLOPs reduction)",
        started.elapsed().as_secs_f64() * 1e3,
        descriptor.name,
        engine.model().decomposed_layers(),
        engine.plan().decisions.len(),
        engine.plan().achieved_reduction * 100.0,
    );

    // Serve a concurrent burst of 32 requests.
    let mut rng = StdRng::seed_from_u64(42);
    let pending: Vec<_> = (0..32)
        .map(|_| {
            let input = init::uniform(vec![16, 16, 8], -1.0, 1.0, &mut rng);
            engine.submit(input).expect("submit")
        })
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        let r = p.wait().expect("response");
        if i % 8 == 0 {
            println!(
                "  request {:2}: batch of {}, queue {:.2} ms + exec {:.2} ms",
                r.id, r.batch_size, r.queue_ms, r.exec_ms
            );
        }
    }
    let report = engine.shutdown();
    let m = &report.metrics;
    println!(
        "served {} requests in {} batches (mean {:.2}/batch): p50 {:.2} ms, p99 {:.2} ms",
        m.completed_requests,
        m.batches,
        m.mean_batch_size,
        m.total_latency.p50_ms,
        m.total_latency.p99_ms
    );

    // Warm restart: the plan comes straight from the cache.
    let started = Instant::now();
    let engine = ServeEngine::builder(&descriptor)
        .planning(planning)
        .batching(batching)
        .plan_cache(&cache)
        .build()
        .expect("restart engine");
    assert_eq!(engine.plan_outcome(), CacheOutcome::MemoryHit);
    println!(
        "warm restart in {:.1} ms (plan-cache {} memory hit(s), {} miss(es))",
        started.elapsed().as_secs_f64() * 1e3,
        cache.stats().memory_hits,
        cache.stats().misses,
    );

    // What the server measured versus what the plan modelled. The engine's
    // full-batch execution estimate (behind early release and Retry-After)
    // comes from timing batches on this host; the plan's per-layer latency
    // is the planner's GPU model, used only to select ranks.
    let r = engine
        .infer(init::uniform(vec![16, 16, 8], -1.0, 1.0, &mut rng))
        .expect("response");
    println!(
        "measured here: exec {:.3} ms for a batch of {}, full-batch estimate {:.3} ms",
        r.exec_ms,
        r.batch_size,
        engine.exec_estimate().as_secs_f64() * 1e3
    );
    let modelled = engine
        .plan()
        .report(Backend::TuckerTdcModel)
        .expect("the plan carries its TDC-model report");
    println!(
        "planned on {} (modelled, not measured): {:.4} ms/sample",
        modelled.device, modelled.total_ms
    );
    for layer in &modelled.layers {
        println!(
            "  conv{} ({:6}) {:>9.4} ms",
            layer.index,
            if layer.decomposed { "tucker" } else { "dense" },
            layer.ms
        );
    }
    engine.shutdown();

    // Finally: two models behind the multi-model registry and the std-only
    // HTTP front end, queried over a real socket.
    println!("\nmulti-model registry + HTTP front end:");
    let registry = ModelRegistry::new(4);
    registry
        .register(
            "demo-a",
            &serving_descriptor("demo-a", 10, 4, 6),
            ModelConfig::default(),
        )
        .expect("register demo-a");
    registry
        .register(
            "demo-b",
            &serving_descriptor("demo-b", 8, 4, 4),
            ModelConfig::default(),
        )
        .expect("register demo-b");
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(registry)).expect("bind front end");
    let addr = server.local_addr();
    println!("  listening on http://{addr}");
    let (status, health) = http_request(&addr, "GET", "/healthz", None).expect("healthz");
    println!("  GET /healthz -> {status} {health}");
    // One keep-alive connection serves every model: HTTP/1.1 connection
    // reuse instead of one TCP handshake per request.
    let mut client = HttpClient::connect(&addr).expect("connect keep-alive client");
    for (name, dims) in [("demo-a", vec![10, 10, 4]), ("demo-b", vec![8, 8, 4])] {
        let body = serde_json::to_string(&InferBody {
            input: vec![0.5f32; dims.iter().product()],
            dims: Some(dims),
            deadline_ms: None,
        })
        .expect("serialize body");
        let (status, reply) = client
            .request("POST", &format!("/v1/models/{name}/infer"), Some(&body))
            .expect("infer over http");
        let reply: InferReply = serde_json::from_str(&reply).expect("parse reply");
        println!(
            "  POST /v1/models/{name}/infer -> {status}: {} logits, exec {:.3} ms (keep-alive)",
            reply.output.len(),
            reply.exec_ms
        );
    }

    // A batched POST body: three samples riding one executor batch, with
    // per-input outputs bit-identical to three sequential single calls.
    let batch_body = serde_json::to_string(&BatchInferBody {
        inputs: vec![vec![0.5f32; 10 * 10 * 4]; 3],
        dims: Some(vec![10, 10, 4]),
        deadline_ms: None,
    })
    .expect("serialize batch body");
    let (status, reply) = client
        .request("POST", "/v1/models/demo-a/infer", Some(&batch_body))
        .expect("batched infer over http");
    let reply: BatchInferReply = serde_json::from_str(&reply).expect("parse batch reply");
    println!(
        "  POST /v1/models/demo-a/infer (batched) -> {status}: {} inputs in executor \
         batches {:?}",
        reply.count, reply.batch_sizes
    );

    // An impossible deadline: admitted, expired while queued, answered 504
    // without ever reaching the executor.
    let expired_body = serde_json::to_string(&InferBody {
        input: vec![0.5f32; 10 * 10 * 4],
        dims: Some(vec![10, 10, 4]),
        deadline_ms: Some(0),
    })
    .expect("serialize expired body");
    let (status, _) = client
        .request("POST", "/v1/models/demo-a/infer", Some(&expired_body))
        .expect("expired infer over http");
    println!(
        "  POST /v1/models/demo-a/infer (deadline_ms=0) -> {status} Gateway Timeout \
         ({} request(s) on one keep-alive connection)",
        client.requests_sent()
    );
    drop(client);
    let registry = server.shutdown();
    let metrics = registry.metrics();
    println!(
        "  served {} request(s) over HTTP across {} model(s), {} rejected",
        metrics.total_completed_requests,
        metrics.models.len(),
        metrics.total_rejected_requests
    );
    // With the front end stopped this is the only reference left; drain the
    // engines gracefully.
    let registry = Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("registry still shared"));
    for (name, report) in registry.shutdown() {
        println!(
            "  {name}: drained with {} completed request(s)",
            report.metrics.completed_requests
        );
    }
}
