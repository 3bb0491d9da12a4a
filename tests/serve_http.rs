//! Cross-crate integration tests of the multi-model serving front door:
//! bit-identical outputs through HTTP vs. direct engine calls with two
//! models served concurrently, per-model admission control (one flooded
//! model sheds load with typed `Overloaded` rejections while its neighbour's
//! latency stays bounded), request deadlines surfacing as `504` without
//! reaching the executor, keep-alive connection reuse with bit-identical
//! outputs, and the batched POST body riding one executor batch.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdc_repro::serve::http::{
    http_request, is_timeout, BatchInferBody, BatchInferReply, InferBody, InferReply,
};
use tdc_repro::serve::{
    serving_descriptor, BatchingOptions, HealthReply, HttpClient, HttpServer, ModelConfig,
    ModelRegistry, RuntimeOptions, ServeEngine, ServeError,
};
use tdc_repro::tensor::{init, Tensor};

#[test]
fn two_models_over_http_match_direct_engine_calls_bit_for_bit() {
    let descriptors = [
        serving_descriptor("http-a", 12, 4, 8),
        serving_descriptor("http-b", 10, 4, 6),
    ];
    // Reference outputs from direct, in-process engines (same descriptor,
    // same default planning and seed, so the weights are identical).
    let mut rng = StdRng::seed_from_u64(4242);
    let mut inputs: Vec<Vec<Tensor>> = Vec::new();
    let mut expected: Vec<Vec<Tensor>> = Vec::new();
    for descriptor in &descriptors {
        let engine = ServeEngine::builder(descriptor).build().unwrap();
        let dims = engine.model().input_dims().to_vec();
        let model_inputs: Vec<Tensor> = (0..6)
            .map(|_| init::uniform(dims.clone(), -1.0, 1.0, &mut rng))
            .collect();
        expected.push(
            model_inputs
                .iter()
                .map(|x| engine.infer(x.clone()).unwrap().output)
                .collect(),
        );
        inputs.push(model_inputs);
        engine.shutdown();
    }

    // The same two models behind the HTTP front end.
    let registry = ModelRegistry::new(4);
    for descriptor in &descriptors {
        registry
            .register(&descriptor.slug(), descriptor, ModelConfig::default())
            .unwrap();
    }
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(registry)).unwrap();
    let addr = server.local_addr();

    // Both models queried concurrently, one client thread per model.
    let clients: Vec<_> = descriptors
        .iter()
        .zip(inputs)
        .map(|(descriptor, model_inputs)| {
            let name = descriptor.slug();
            std::thread::spawn(move || -> Vec<Vec<f32>> {
                model_inputs
                    .iter()
                    .map(|input| {
                        let body = serde_json::to_string(&InferBody {
                            input: input.data().to_vec(),
                            dims: Some(input.dims().to_vec()),
                            deadline_ms: None,
                        })
                        .unwrap();
                        let (status, reply) = http_request(
                            &addr,
                            "POST",
                            &format!("/v1/models/{name}/infer"),
                            Some(&body),
                        )
                        .unwrap();
                        assert_eq!(status, 200, "{reply}");
                        let reply: InferReply = serde_json::from_str(&reply).unwrap();
                        assert_eq!(reply.model, name);
                        reply.output
                    })
                    .collect()
            })
        })
        .collect();
    let via_http: Vec<Vec<Vec<f32>>> = clients
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .collect();

    // Bit-identical across the JSON wire format, for both models.
    for (model_index, (model_http, model_expected)) in
        via_http.iter().zip(expected.iter()).enumerate()
    {
        for (request_index, (http_output, direct)) in
            model_http.iter().zip(model_expected).enumerate()
        {
            assert_eq!(
                http_output.as_slice(),
                direct.data(),
                "model {model_index} request {request_index}: HTTP output diverged from the \
                 direct engine call"
            );
        }
    }

    let registry = server.shutdown();
    let metrics = registry.metrics();
    assert_eq!(metrics.total_completed_requests, 12);
    assert_eq!(metrics.total_rejected_requests, 0);
}

#[test]
fn flooding_one_model_rejects_typed_and_leaves_the_other_model_fast() {
    // "flood" holds batches open for a long delay with a small admission
    // bound, so a burst deterministically overflows it; "steady" is a
    // normal low-latency model sharing the registry.
    const FLOOD_BOUND: usize = 8;
    let flood_delay = Duration::from_millis(1500);
    let registry = ModelRegistry::new(4);
    registry
        .register(
            "flood",
            &serving_descriptor("ov-flood", 10, 4, 6),
            ModelConfig {
                batching: BatchingOptions {
                    max_batch_size: 16,
                    max_batch_delay: flood_delay,
                    max_queue_depth: FLOOD_BOUND,
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
        .register(
            "steady",
            &serving_descriptor("ov-steady", 10, 4, 6),
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
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(registry)).unwrap();
    let addr = server.local_addr();
    let registry = Arc::clone(server.registry());

    // Flood: 24 instantaneous submissions against a bound of 8. The single
    // worker is waiting out the 1.5 s batch delay, so exactly the first 8
    // are admitted and every later push is a typed rejection.
    let mut rng = StdRng::seed_from_u64(7);
    let mut admitted = Vec::new();
    let mut rejections = 0usize;
    for _ in 0..24 {
        let input = init::uniform(vec![10, 10, 4], -1.0, 1.0, &mut rng);
        match registry.submit("flood", input) {
            Ok(pending) => admitted.push(pending),
            Err(e) => {
                assert!(
                    matches!(e, ServeError::Overloaded { limit: FLOOD_BOUND }),
                    "expected a typed Overloaded rejection, got {e}"
                );
                rejections += 1;
            }
        }
    }
    assert_eq!(admitted.len(), FLOOD_BOUND);
    assert_eq!(rejections, 24 - FLOOD_BOUND);

    // The front door surfaces the same condition as 429 while the flood
    // model's queue is still full.
    let body = serde_json::to_string(&InferBody {
        input: vec![0.5f32; 10 * 10 * 4],
        dims: Some(vec![10, 10, 4]),
        deadline_ms: None,
    })
    .unwrap();
    let (status, reply) =
        http_request(&addr, "POST", "/v1/models/flood/infer", Some(&body)).unwrap();
    assert_eq!(status, 429, "{reply}");
    assert!(reply.contains("overloaded"), "{reply}");

    // Meanwhile the steady model keeps serving with bounded latency: its
    // engine, workers and queue are its own.
    for _ in 0..12 {
        let input = init::uniform(vec![10, 10, 4], -1.0, 1.0, &mut rng);
        let response = registry.infer("steady", input).unwrap();
        assert_eq!(response.output.dims(), &[6]);
    }
    let metrics = registry.metrics();
    let steady = metrics.models.iter().find(|m| m.model == "steady").unwrap();
    assert_eq!(steady.metrics.completed_requests, 12);
    assert_eq!(steady.rejected_requests, 0);
    assert!(
        steady.metrics.total_latency.p99_ms < flood_delay.as_secs_f64() * 1e3 / 2.0,
        "steady p99 {:.2} ms is not isolated from the flooded neighbour",
        steady.metrics.total_latency.p99_ms
    );
    let flood = metrics.models.iter().find(|m| m.model == "flood").unwrap();
    assert_eq!(flood.rejected_requests, (24 - FLOOD_BOUND) as u64 + 1);

    // The admitted flood requests are still served once the batch releases.
    for pending in admitted {
        let response = pending.wait().unwrap();
        assert_eq!(response.output.dims(), &[6]);
    }
    drop(registry);
    let registry = server.shutdown();
    let registry = Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("registry still shared"));
    let reports = registry.shutdown();
    assert_eq!(reports.len(), 2);
}

#[test]
fn past_deadline_request_answers_504_without_reaching_the_executor() {
    // "saturated": a single worker that would hold an under-full batch open
    // for 1.5 s. A zero deadline is already due at admission, so the forming
    // batch releases at once and the request expires at dequeue. (A short
    // positive one can now be met: the engine's measured full-batch estimate
    // pulls the release in to `deadline − estimate`, which ships at once.)
    let flood_delay = Duration::from_millis(1500);
    let registry = ModelRegistry::new(2);
    registry
        .register(
            "sat",
            &serving_descriptor("dl-sat", 10, 4, 6),
            ModelConfig {
                batching: BatchingOptions {
                    max_batch_size: 16,
                    max_batch_delay: flood_delay,
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
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(registry)).unwrap();
    let addr = server.local_addr();

    let body = serde_json::to_string(&InferBody {
        input: vec![0.5f32; 10 * 10 * 4],
        dims: Some(vec![10, 10, 4]),
        deadline_ms: Some(0),
    })
    .unwrap();
    let started = Instant::now();
    let (status, reply) = http_request(&addr, "POST", "/v1/models/sat/infer", Some(&body)).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(status, 504, "{reply}");
    assert!(reply.contains("deadline exceeded"), "{reply}");
    assert!(
        elapsed < flood_delay / 2,
        "the deadline did not bound the wait: {elapsed:?}"
    );

    // The request was admitted (not rejected) but never executed: the
    // engine counts one expiry, zero completions, zero latency samples.
    let metrics = server.registry().engine("sat").unwrap().metrics();
    assert_eq!(metrics.deadline_exceeded, 1);
    assert_eq!(
        metrics.completed_requests, 0,
        "the expired request must never reach the executor"
    );
    assert_eq!(metrics.total_latency.count, 0);

    // The registry-level snapshot (what /metrics serializes) agrees.
    let (status, metrics_json) = http_request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics_json.contains("\"total_deadline_exceeded\":1"),
        "{metrics_json}"
    );

    let registry = server.shutdown();
    let registry = Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("registry still shared"));
    registry.shutdown();
}

#[test]
fn healthz_readiness_tracks_admission_saturation() {
    // A congestible model: a single worker holds under-full batches open for
    // 1.5 s, and the admission bound is 4 — four queued requests saturate it.
    let registry = ModelRegistry::new(2);
    registry
        .register(
            "hz",
            &serving_descriptor("hz-model", 10, 4, 6),
            ModelConfig {
                batching: BatchingOptions {
                    max_batch_size: 16,
                    max_batch_delay: Duration::from_millis(1500),
                    max_queue_depth: 4,
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
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(registry)).unwrap();
    let addr = server.local_addr();
    let registry = Arc::clone(server.registry());

    // Idle fleet: alive, ready, admission open, nothing queued.
    let (status, reply) = http_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{reply}");
    let health: HealthReply = serde_json::from_str(&reply).unwrap();
    assert_eq!(health.status, "ok");
    assert_eq!(health.models, 1);
    assert_eq!(health.queue_depth, 0);
    assert_eq!(health.admission, "open");
    assert!(health.ready, "an idle serving process must be ready");

    // Fill the queue to the admission bound; the batch is still forming, so
    // every submission is queued (not dispatched) for the next 1.5 s.
    let mut rng = StdRng::seed_from_u64(99);
    let admitted: Vec<_> = (0..4)
        .map(|_| {
            let input = init::uniform(vec![10, 10, 4], -1.0, 1.0, &mut rng);
            registry.submit("hz", input).unwrap()
        })
        .collect();

    let (status, reply) = http_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{reply}");
    let health: HealthReply = serde_json::from_str(&reply).unwrap();
    assert_eq!(health.queue_depth, 4);
    assert_eq!(
        health.admission, "saturated",
        "a queue at its admission bound must flip the health report"
    );
    assert!(health.ready, "saturation is backpressure, not unreadiness");

    for pending in admitted {
        pending.wait().unwrap();
    }
    drop(registry);
    let registry = server.shutdown();
    let registry = Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("registry still shared"));
    registry.shutdown();
}

#[test]
fn admin_shutdown_surfaces_on_the_signal_and_answers_before_teardown() {
    let registry = ModelRegistry::new(2);
    registry
        .register(
            "sd",
            &serving_descriptor("sd-model", 10, 4, 6),
            ModelConfig::default(),
        )
        .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(registry)).unwrap();
    let addr = server.local_addr();
    let signal = server
        .shutdown_signal()
        .expect("a registry-bound server exposes its shutdown signal");
    assert!(!signal.requested(), "signal must start un-requested");

    let (status, reply) = http_request(&addr, "POST", "/admin/shutdown", None).unwrap();
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("shutting-down"), "{reply}");
    assert!(
        signal.wait_timeout(Duration::from_secs(2)),
        "the admin request must reach the waitable signal"
    );

    // The handler only *requests* shutdown — the daemon owns the drain — so
    // the listener keeps answering until its owner acts on the signal.
    let (status, reply) = http_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{reply}");

    let registry = server.shutdown();
    let registry = Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("registry still shared"));
    registry.shutdown();
}

/// Median of `n` timed calls, ms. A median ignores scheduling noise on a
/// busy box but not a stall every request pays.
fn median_ms(n: usize, mut call: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let started = Instant::now();
            call();
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[n / 2]
}

/// A message that leaves in several small writes has its last segment held
/// back for the peer's delayed ACK — 40 ms per round trip on Linux, against
/// ~0.1 ms healthy. Pins one write per message + `TCP_NODELAY` on both the
/// keep-alive client and the one-shot helper.
#[test]
fn loopback_round_trips_do_not_wait_out_a_delayed_ack() {
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(ModelRegistry::new(1))).unwrap();
    let addr = server.local_addr();

    let mut client = HttpClient::connect(&addr).unwrap();
    let keep_alive = median_ms(40, || {
        let (status, _) = client.request("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
    });
    assert!(
        keep_alive < 10.0,
        "keep-alive round trips stall: median {keep_alive:.2} ms"
    );

    let one_shot = median_ms(40, || {
        let (status, _) = http_request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
    });
    assert!(
        one_shot < 10.0,
        "Connection: close round trips stall: median {one_shot:.2} ms"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn client_request_timeout_is_typed_and_a_fresh_connection_recovers() {
    // A reply that cannot arrive within 150 ms: the single worker holds the
    // under-full batch open for the full 1.5 s delay.
    let registry = ModelRegistry::new(2);
    registry
        .register(
            "to",
            &serving_descriptor("to-model", 10, 4, 6),
            ModelConfig {
                batching: BatchingOptions {
                    max_batch_size: 16,
                    max_batch_delay: Duration::from_millis(1500),
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
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(registry)).unwrap();
    let addr = server.local_addr();
    let body = serde_json::to_string(&InferBody {
        input: vec![0.5f32; 10 * 10 * 4],
        dims: Some(vec![10, 10, 4]),
        deadline_ms: None,
    })
    .unwrap();

    let mut client = HttpClient::connect(&addr).unwrap();
    client
        .set_request_timeout(Some(Duration::from_millis(150)))
        .unwrap();
    let started = Instant::now();
    let err = client
        .request("POST", "/v1/models/to/infer", Some(&body))
        .expect_err("a 1.5 s reply must trip a 150 ms request timeout");
    assert!(
        is_timeout(&err),
        "the timeout must surface as a typed TimedOut/WouldBlock error, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_millis(1000),
        "the client timeout did not bound the wait"
    );

    // The slow reply is still being produced server-side; a fresh
    // connection without the aggressive timeout completes normally.
    let (status, reply) = http_request(&addr, "POST", "/v1/models/to/infer", Some(&body)).unwrap();
    assert_eq!(status, 200, "{reply}");
    let reply: InferReply = serde_json::from_str(&reply).unwrap();
    assert_eq!(reply.dims, vec![6]);

    let registry = server.shutdown();
    let registry = Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("registry still shared"));
    registry.shutdown();
}

#[test]
fn keep_alive_connection_matches_connection_close_bit_for_bit() {
    let descriptor = serving_descriptor("ka-parity", 10, 4, 6);
    let registry = ModelRegistry::new(2);
    registry
        .register("ka", &descriptor, ModelConfig::default())
        .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(registry)).unwrap();
    let addr = server.local_addr();

    let mut rng = StdRng::seed_from_u64(321);
    let bodies: Vec<String> = (0..4)
        .map(|_| {
            let input = init::uniform(vec![10, 10, 4], -1.0, 1.0, &mut rng);
            serde_json::to_string(&InferBody {
                input: input.data().to_vec(),
                dims: Some(input.dims().to_vec()),
                deadline_ms: None,
            })
            .unwrap()
        })
        .collect();

    // Reference: one fresh Connection: close request per input.
    let via_close: Vec<Vec<f32>> = bodies
        .iter()
        .map(|body| {
            let (status, reply) =
                http_request(&addr, "POST", "/v1/models/ka/infer", Some(body)).unwrap();
            assert_eq!(status, 200, "{reply}");
            serde_json::from_str::<InferReply>(&reply).unwrap().output
        })
        .collect();

    // The same inputs over ONE keep-alive connection.
    let mut client = HttpClient::connect(&addr).unwrap();
    let via_keep_alive: Vec<Vec<f32>> = bodies
        .iter()
        .map(|body| {
            let (status, reply) = client
                .request("POST", "/v1/models/ka/infer", Some(body))
                .unwrap();
            assert_eq!(status, 200, "{reply}");
            serde_json::from_str::<InferReply>(&reply).unwrap().output
        })
        .collect();
    assert!(
        client.requests_sent() >= 3,
        "the connection must have served at least 3 sequential requests"
    );
    assert_eq!(
        via_keep_alive, via_close,
        "keep-alive outputs diverged from Connection: close outputs"
    );

    let registry = server.shutdown();
    let registry = Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("registry still shared"));
    registry.shutdown();
}

#[test]
fn batched_post_body_rides_one_batch_and_matches_sequential_singles() {
    let descriptor = serving_descriptor("batch-parity", 10, 4, 6);
    let make_registry = || {
        let registry = ModelRegistry::new(2);
        registry
            .register(
                "bp",
                &descriptor,
                ModelConfig {
                    batching: BatchingOptions {
                        max_batch_size: 8,
                        ..BatchingOptions::default()
                    },
                    ..ModelConfig::default()
                },
            )
            .unwrap();
        registry
    };

    let mut rng = StdRng::seed_from_u64(654);
    let inputs: Vec<Vec<f32>> = (0..4)
        .map(|_| {
            init::uniform(vec![10, 10, 4], -1.0, 1.0, &mut rng)
                .data()
                .to_vec()
        })
        .collect();

    // Reference: N sequential single-sample calls on a fresh server.
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(make_registry())).unwrap();
    let addr = server.local_addr();
    let sequential: Vec<Vec<f32>> = inputs
        .iter()
        .map(|input| {
            let body = serde_json::to_string(&InferBody {
                input: input.clone(),
                dims: Some(vec![10, 10, 4]),
                deadline_ms: None,
            })
            .unwrap();
            let (status, reply) =
                http_request(&addr, "POST", "/v1/models/bp/infer", Some(&body)).unwrap();
            assert_eq!(status, 200, "{reply}");
            serde_json::from_str::<InferReply>(&reply).unwrap().output
        })
        .collect();
    drop(server);

    // One batched POST carrying all N inputs on another fresh server (same
    // descriptor and seed -> identical weights).
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(make_registry())).unwrap();
    let addr = server.local_addr();
    let body = serde_json::to_string(&BatchInferBody {
        inputs: inputs.clone(),
        dims: Some(vec![10, 10, 4]),
        deadline_ms: None,
    })
    .unwrap();
    let (status, reply) = http_request(&addr, "POST", "/v1/models/bp/infer", Some(&body)).unwrap();
    assert_eq!(status, 200, "{reply}");
    let reply: BatchInferReply = serde_json::from_str(&reply).unwrap();
    assert_eq!(reply.count, 4);
    assert_eq!(
        reply.batch_sizes,
        vec![4, 4, 4, 4],
        "the batched POST must ride one executor batch"
    );
    assert_eq!(
        reply.outputs, sequential,
        "batched POST outputs diverged from sequential single calls"
    );

    let registry = server.shutdown();
    let registry = Arc::try_unwrap(registry).unwrap_or_else(|_| panic!("registry still shared"));
    registry.shutdown();
}
