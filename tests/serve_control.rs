//! Cross-crate integration tests of the live control plane: the full
//! hot-lifecycle loop over HTTP (register → infer bit-identical to a direct
//! engine → plan hot-swap under live traffic with zero dropped requests →
//! retire → 404), latency isolation of a serving model while its siblings
//! are registered and retired underneath it, the in-flight-across-retire
//! drain guarantee, and QoS fairness on the shared fleet executor (a
//! batch-class flood pre-loaded on a paused single-worker pool must not
//! starve an interactive sibling once the pool resumes).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdc_repro::serve::http::{
    http_request, InferBody, InferReply, RegisterBody, RegisterReply, RetireReply,
};
use tdc_repro::serve::{
    serving_descriptor, BatchingOptions, Executor, ExecutorOptions, HttpClient, HttpServer,
    ModelConfig, ModelRegistry, PlanCache, PlanningOptions, QosClass, ReplanReport, RuntimeOptions,
    ServeEngine, ServeError,
};
use tdc_repro::tensor::{init, Tensor};

/// A direct in-process engine over `descriptor` at `budget`, with the same
/// batching the HTTP-registered model uses — the bit-parity reference.
fn direct_output(
    descriptor: &tdc_repro::nn::models::ModelDescriptor,
    budget: f64,
    input: &Tensor,
) -> Vec<f32> {
    let engine = ServeEngine::builder(descriptor)
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
        .unwrap();
    let output = engine.infer(input.clone()).unwrap().output.data().to_vec();
    engine.shutdown();
    output
}

#[test]
fn live_lifecycle_put_infer_replan_retire_over_http() {
    // A server that starts EMPTY: every model it ever serves arrives through
    // the admin API while it runs.
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(ModelRegistry::new(8))).unwrap();
    let addr = server.local_addr();

    let descriptor = serving_descriptor("life-hot", 12, 8, 10);
    let register = serde_json::to_string(&RegisterBody {
        max_batch_size: Some(4),
        max_batch_delay_ms: Some(1),
        ..RegisterBody::for_descriptor(descriptor.clone())
    })
    .unwrap();
    let (status, reply) = http_request(&addr, "PUT", "/v1/models/hot", Some(&register)).unwrap();
    assert_eq!(status, 200, "{reply}");
    let registered: RegisterReply = serde_json::from_str(&reply).unwrap();
    assert_eq!(registered.registered.generation, 1);

    // Infer over HTTP: bit-identical to a direct engine call at the same
    // budget and seed.
    let input = Tensor::from_vec(vec![12, 12, 8], vec![0.25f32; 12 * 12 * 8]).unwrap();
    let infer_body = serde_json::to_string(&InferBody {
        input: input.data().to_vec(),
        dims: None,
        deadline_ms: None,
    })
    .unwrap();
    let (status, reply) =
        http_request(&addr, "POST", "/v1/models/hot/infer", Some(&infer_body)).unwrap();
    assert_eq!(status, 200, "{reply}");
    let before: InferReply = serde_json::from_str(&reply).unwrap();
    assert_eq!(
        before.output,
        direct_output(&descriptor, 0.5, &input),
        "HTTP output diverged from the direct engine call"
    );

    // Replan under live traffic: a client hammers the model over one
    // keep-alive connection for the whole duration of the swap; every
    // response must be a 200 — zero dropped requests across the boundary.
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let stop = Arc::clone(&stop);
        let body = infer_body.clone();
        std::thread::spawn(move || -> (u64, Vec<u16>) {
            let mut client = HttpClient::connect(&addr).unwrap();
            let mut okay = 0u64;
            let mut bad = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let (status, _) = client
                    .request("POST", "/v1/models/hot/infer", Some(&body))
                    .unwrap();
                if status == 200 {
                    okay += 1;
                } else {
                    bad.push(status);
                }
            }
            (okay, bad)
        })
    };
    // Let the hammer establish itself, then hot-swap the plan.
    std::thread::sleep(Duration::from_millis(50));
    let (status, reply) = http_request(
        &addr,
        "POST",
        "/v1/models/hot/replan",
        Some("{\"budget\": 0.9}"),
    )
    .unwrap();
    assert_eq!(status, 200, "{reply}");
    let replanned: ReplanReport = serde_json::from_str(&reply).unwrap();
    assert!(replanned.plan_changed, "{replanned:?}");
    assert_eq!(replanned.generation, 2);
    assert!(
        replanned.drained_completed_requests >= 1,
        "the old engine served the in-flight work before it was freed"
    );
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::SeqCst);
    let (okay, bad) = hammer.join().unwrap();
    assert!(
        bad.is_empty(),
        "requests were dropped across the swap boundary: {bad:?}"
    );
    assert!(okay >= 2, "the hammer must have spanned the swap");

    // Bit parity holds on the new plan's side of the boundary too.
    let (status, reply) =
        http_request(&addr, "POST", "/v1/models/hot/infer", Some(&infer_body)).unwrap();
    assert_eq!(status, 200, "{reply}");
    let after: InferReply = serde_json::from_str(&reply).unwrap();
    assert_eq!(
        after.output,
        direct_output(&descriptor, 0.9, &input),
        "post-swap HTTP output diverged from a direct engine at the new budget"
    );
    assert_ne!(
        before.output, after.output,
        "0.5 → 0.9 selects a different plan, so the logits must differ"
    );

    // Retire: the reply carries the drained engine's counters, and the
    // route is gone — immediately and permanently.
    let (status, reply) = http_request(&addr, "DELETE", "/v1/models/hot", None).unwrap();
    assert_eq!(status, 200, "{reply}");
    let retired: RetireReply = serde_json::from_str(&reply).unwrap();
    assert!(retired.completed_requests >= 1);
    let (status, _) =
        http_request(&addr, "POST", "/v1/models/hot/infer", Some(&infer_body)).unwrap();
    assert_eq!(status, 404);

    let registry = server.shutdown();
    let metrics = registry.metrics();
    assert_eq!(metrics.models_registered_total, 1);
    assert_eq!(metrics.models_retired_total, 1);
    assert_eq!(metrics.replans_total, 1);
    assert!(metrics.models.is_empty());
}

#[test]
fn registering_and_retiring_siblings_does_not_disturb_a_loaded_model() {
    let registry = Arc::new(ModelRegistry::new(16));
    let descriptor = serving_descriptor("iso-steady", 10, 4, 6);
    registry
        .register(
            "steady",
            &descriptor,
            ModelConfig {
                batching: BatchingOptions {
                    max_batch_size: 4,
                    max_batch_delay: Duration::from_millis(1),
                    ..BatchingOptions::default()
                },
                ..ModelConfig::default()
            },
        )
        .unwrap();
    let input = Tensor::from_vec(vec![10, 10, 4], vec![0.25f32; 400]).unwrap();
    let expected = registry
        .infer("steady", input.clone())
        .unwrap()
        .output
        .data()
        .to_vec();

    // Sustained load on "steady" from two client threads…
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            let input = input.clone();
            let expected = expected.clone();
            std::thread::spawn(move || -> (u64, f64) {
                let mut served = 0u64;
                let mut worst_ms = 0.0f64;
                while !stop.load(Ordering::SeqCst) {
                    let started = Instant::now();
                    let response = registry
                        .infer("steady", input.clone())
                        .expect("steady must never fail while siblings churn");
                    worst_ms = worst_ms.max(started.elapsed().as_secs_f64() * 1e3);
                    assert_eq!(
                        response.output.data(),
                        expected.as_slice(),
                        "steady's outputs were corrupted by sibling churn"
                    );
                    served += 1;
                }
                (served, worst_ms)
            })
        })
        .collect();

    // …while the control plane churns siblings underneath it: register,
    // serve once, retire — three full lifecycles (each register runs full
    // planning on this thread).
    let mut rng = StdRng::seed_from_u64(99);
    for round in 0..3 {
        let name = format!("churn-{round}");
        let sibling = serving_descriptor(&format!("iso-churn-{round}"), 12, 8, 10);
        registry
            .register(
                &name,
                &sibling,
                ModelConfig {
                    batching: BatchingOptions {
                        max_batch_size: 4,
                        max_batch_delay: Duration::from_millis(1),
                        ..BatchingOptions::default()
                    },
                    runtime: RuntimeOptions {
                        workers: 1,
                        ..RuntimeOptions::default()
                    },
                    ..ModelConfig::default()
                },
            )
            .unwrap();
        registry
            .infer(&name, init::uniform(vec![12, 12, 8], -1.0, 1.0, &mut rng))
            .unwrap();
        let report = registry.retire(&name).unwrap();
        assert_eq!(report.metrics.completed_requests, 1);
    }
    stop.store(true, Ordering::SeqCst);
    let mut total = 0u64;
    let mut worst_ms = 0.0f64;
    for client in clients {
        let (served, worst) = client.join().unwrap();
        total += served;
        worst_ms = worst_ms.max(worst);
    }
    assert!(total > 0, "the load never ran");
    // Latency isolation: the steady model's worst observed latency stays far
    // below the seconds-scale a blocking registration (full planning pass)
    // would impose if readers waited on writers.
    assert!(
        worst_ms < 1000.0,
        "steady's worst latency {worst_ms:.1} ms was disturbed by sibling churn"
    );

    let metrics = registry.metrics();
    let steady = metrics.models.iter().find(|m| m.model == "steady").unwrap();
    assert_eq!(steady.metrics.completed_requests, total + 1);
    assert_eq!(steady.rejected_requests, 0);
    assert_eq!(steady.metrics.deadline_exceeded, 0);
    assert_eq!(metrics.models_registered_total, 4);
    assert_eq!(metrics.models_retired_total, 3);
    assert_eq!(metrics.models.len(), 1, "the churned siblings are gone");
    Arc::try_unwrap(registry)
        .unwrap_or_else(|_| panic!("registry still shared"))
        .shutdown();
}

/// The QoS fairness pin, made deterministic by controlling the executor:
/// a single-worker pool starts **paused**, a batch-class
/// model's queue is pre-loaded with a flood, an interactive sibling's two
/// requests are enqueued *after* the whole flood, and only then does the
/// pool resume. Injection-order (FIFO) scheduling would serve every flood
/// batch before the sibling; the executor's priority bands must instead
/// dispatch the interactive batches ahead of the pre-existing backlog.
#[test]
fn batch_class_flood_on_a_paused_shared_pool_does_not_starve_interactive() {
    let executor = Arc::new(
        Executor::new(ExecutorOptions {
            workers: 1,
            start_paused: true,
        })
        .unwrap(),
    );
    let registry = ModelRegistry::with_executor(PlanCache::new(4), Arc::clone(&executor));
    // One request per executed batch, so dispatch order is visible per
    // request in the latency summaries.
    let one_per_batch = BatchingOptions {
        max_batch_size: 1,
        max_batch_delay: Duration::from_millis(1),
        ..BatchingOptions::default()
    };
    registry
        .register(
            "flood",
            &serving_descriptor("qos-flood", 12, 8, 10),
            ModelConfig {
                batching: one_per_batch.clone(),
                runtime: RuntimeOptions {
                    qos: QosClass::Batch,
                    ..RuntimeOptions::default()
                },
                ..ModelConfig::default()
            },
        )
        .unwrap();
    registry
        .register(
            "vip",
            &serving_descriptor("qos-vip", 12, 8, 10),
            ModelConfig {
                batching: one_per_batch,
                runtime: RuntimeOptions {
                    qos: QosClass::Interactive,
                    ..RuntimeOptions::default()
                },
                ..ModelConfig::default()
            },
        )
        .unwrap();

    // Pre-load while the pool is paused: the entire flood first, then the
    // interactive requests — the worst possible arrival order for "vip".
    const FLOOD: usize = 8;
    let input = Tensor::zeros(vec![12, 12, 8]);
    let flood_pending: Vec<_> = (0..FLOOD)
        .map(|_| registry.submit("flood", input.clone()).unwrap())
        .collect();
    let vip_pending: Vec<_> = (0..2)
        .map(|_| registry.submit("vip", input.clone()).unwrap())
        .collect();

    executor.resume();
    for handle in vip_pending {
        handle.wait().unwrap();
    }
    // Both interactive requests are done; on one serial worker, FIFO order
    // would have forced them behind all eight flood batches.
    let mid = registry.metrics();
    let flood_done = mid
        .models
        .iter()
        .find(|m| m.model == "flood")
        .unwrap()
        .metrics
        .completed_requests;
    assert!(
        flood_done < FLOOD as u64,
        "interactive requests waited out the whole batch-class backlog \
         ({flood_done}/{FLOOD} flood requests already served)"
    );

    for handle in flood_pending {
        handle.wait().unwrap();
    }
    let metrics = registry.metrics();
    let vip = metrics.models.iter().find(|m| m.model == "vip").unwrap();
    let flood = metrics.models.iter().find(|m| m.model == "flood").unwrap();
    assert_eq!(vip.metrics.completed_requests, 2);
    assert_eq!(flood.metrics.completed_requests, FLOOD as u64);
    // The fair-share pin: scheduled in band order, the interactive model's
    // worst end-to-end latency stays below the flood's median — its p99
    // reflects its own two batches, not the sibling's backlog.
    assert!(
        vip.metrics.total_latency.p99_ms < flood.metrics.total_latency.p50_ms,
        "vip p99 {:.2} ms not isolated from the flood (flood p50 {:.2} ms)",
        vip.metrics.total_latency.p99_ms,
        flood.metrics.total_latency.p50_ms
    );
    // The telemetry names the classes and the shared pool.
    assert_eq!(vip.executor.qos, "interactive");
    assert_eq!(flood.executor.qos, "batch");
    assert_eq!(metrics.executor.workers, 1);
    assert_eq!(
        metrics.executor.bands.len(),
        3,
        "one band row per QoS class"
    );

    // Lifecycle on the shared pool: retiring the flood model drains it
    // without touching the sibling, and a hot-swap re-registers the
    // sibling's engine on the same executor.
    let report = registry.retire("flood").unwrap();
    assert_eq!(report.metrics.completed_requests, FLOOD as u64);
    let swap = registry
        .replan(
            "vip",
            PlanningOptions {
                budget: 0.9,
                ..PlanningOptions::default()
            },
        )
        .unwrap();
    assert_eq!(swap.generation, 2);
    registry.infer("vip", input).unwrap();
    let after = registry.metrics();
    let vip = after.models.iter().find(|m| m.model == "vip").unwrap();
    assert_eq!(vip.metrics.completed_requests, 1);
    assert_eq!(vip.executor.qos, "interactive");
    registry.shutdown();
    executor.shutdown();
}

#[test]
fn requests_in_flight_at_retire_are_drained_not_dropped() {
    let registry = ModelRegistry::new(4);
    // A single worker holding an under-full batch open for a long delay:
    // everything submitted below is still queued when the retire lands.
    registry
        .register(
            "draining",
            &serving_descriptor("drain-test", 10, 4, 6),
            ModelConfig {
                batching: BatchingOptions {
                    max_batch_size: 16,
                    max_batch_delay: Duration::from_millis(800),
                    ..BatchingOptions::default()
                },
                runtime: RuntimeOptions {
                    workers: 1,
                    ..RuntimeOptions::default()
                },
                ..ModelConfig::default()
            },
        )
        .unwrap();

    const IN_FLIGHT: usize = 6;
    let pending: Vec<_> = (0..IN_FLIGHT)
        .map(|_| {
            registry
                .submit("draining", Tensor::zeros(vec![10, 10, 4]))
                .unwrap()
        })
        .collect();

    // Retire while all six sit in the queue. Closing admission releases the
    // forming batch immediately, so the drain is prompt, and every admitted
    // request is answered before the engine is freed.
    let started = Instant::now();
    let report = registry.retire("draining").unwrap();
    assert_eq!(
        report.metrics.completed_requests, IN_FLIGHT as u64,
        "every in-flight request must be served by the drain"
    );
    assert!(
        started.elapsed() < Duration::from_millis(800),
        "closing admission must release the forming batch early, not wait \
         out the full delay"
    );
    for handle in pending {
        let response = handle.wait().expect("drained request was dropped");
        assert_eq!(response.output.dims(), &[6]);
    }

    // The route is gone; admission is refused with the unknown-model error.
    assert!(matches!(
        registry.submit("draining", Tensor::zeros(vec![10, 10, 4])),
        Err(ServeError::UnknownModel { .. })
    ));
    registry.shutdown();
}
