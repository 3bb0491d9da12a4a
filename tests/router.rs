//! Cross-crate integration tests of the replica-fleet router tier:
//! routed inference bit-identical to a direct engine call (single and
//! batched bodies), a replica killed under load masked entirely by
//! failover with deterministic ejection and readmission through the
//! prober, a rolling fleet replan that keeps serving across the boundary,
//! and the `Retry-After` path end to end — engine hint → HTTP header →
//! router backoff decision.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tdc_repro::router::testkit::{self, drain_replica, fleet_config, manual_probe_options};
use tdc_repro::router::{
    FleetReply, Router, RouterOptions, RoutingPolicy, EJECT_AFTER, READMIT_AFTER,
};
use tdc_repro::serve::http::{
    http_request, http_request_with_headers, BatchInferBody, BatchInferReply, InferBody, InferReply,
};
use tdc_repro::serve::{
    serving_descriptor, BatchingOptions, ControllerStatus, HttpClient, HttpServer, ModelConfig,
    ModelRegistry, PlanningOptions, RuntimeOptions, ServeEngine, TuneReport,
};
use tdc_repro::tensor::Tensor;

const MODEL: &str = "fleet-hot";
const DIMS: [usize; 3] = [10, 10, 4];

/// One in-process replica serving [`MODEL`] behind its own HTTP front end.
fn bind_replica(addr: &str) -> HttpServer {
    testkit::bind_replica(
        addr,
        MODEL,
        &serving_descriptor(MODEL, 10, 4, 6),
        fleet_config(),
    )
}

fn bind_fleet(n: usize, options: RouterOptions) -> (Vec<HttpServer>, Arc<Router>, HttpServer) {
    testkit::bind_fleet(
        n,
        options,
        MODEL,
        &serving_descriptor(MODEL, 10, 4, 6),
        &fleet_config(),
    )
}

fn infer_body(deadline_ms: Option<u64>) -> String {
    serde_json::to_string(&InferBody {
        input: vec![0.5f32; DIMS.iter().product()],
        dims: None,
        deadline_ms,
    })
    .unwrap()
}

#[test]
fn routed_inference_matches_a_direct_engine_bit_for_bit() {
    let (servers, router, front) =
        bind_fleet(2, manual_probe_options(RoutingPolicy::ConsistentHash));
    let addr = front.local_addr();
    let path = format!("/v1/models/{MODEL}/infer");

    // The reference: a direct in-process engine with the same descriptor,
    // planning and batching (identical seed -> identical weights).
    let config = fleet_config();
    let engine = ServeEngine::builder(&serving_descriptor(MODEL, 10, 4, 6))
        .planning(PlanningOptions::default())
        .batching(config.batching.clone())
        .runtime(config.runtime.clone())
        .build()
        .unwrap();
    let input = Tensor::from_vec(DIMS.to_vec(), vec![0.5f32; DIMS.iter().product()]).unwrap();
    let expected = engine.infer(input).unwrap().output.data().to_vec();
    engine.shutdown();

    // Single-sample body through the router.
    let (status, reply) = http_request(&addr, "POST", &path, Some(&infer_body(None))).unwrap();
    assert_eq!(status, 200, "routed infer failed: {reply}");
    let routed: InferReply = serde_json::from_str(&reply).unwrap();
    assert_eq!(
        routed.output, expected,
        "routed single diverged from direct"
    );

    // Batched body through the router: every sample identical, so every
    // output must equal the single-sample reference bit for bit.
    let batch = serde_json::to_string(&BatchInferBody {
        inputs: vec![vec![0.5f32; DIMS.iter().product()]; 3],
        dims: None,
        deadline_ms: None,
    })
    .unwrap();
    let (status, reply) = http_request(&addr, "POST", &path, Some(&batch)).unwrap();
    assert_eq!(status, 200, "routed batch failed: {reply}");
    let batched: BatchInferReply = serde_json::from_str(&reply).unwrap();
    assert_eq!(batched.count, 3);
    for output in &batched.outputs {
        assert_eq!(
            output, &expected,
            "routed batch sample diverged from direct"
        );
    }

    let metrics = router.metrics();
    assert_eq!(metrics.requests_total, 2);
    assert_eq!(metrics.forwarded_total, 2);
    assert_eq!(metrics.shed_total, 0);

    // A deadline the replica rejects answers the same status routed as
    // direct: the router must not splice its own budget over the token.
    let fractional = infer_body(Some(250)).replace("250", "2.7");
    let replica = servers[0].local_addr();
    let (direct, reply) = http_request(&replica, "POST", &path, Some(&fractional)).unwrap();
    assert_eq!(direct, 400, "{reply}");
    let (status, reply) = http_request(&addr, "POST", &path, Some(&fractional)).unwrap();
    assert_eq!(status, direct, "routed 2.7 deadline: {reply}");

    router.stop();
    front.stop();
    for server in servers {
        drain_replica(server);
    }
}

/// The routed hop must not reintroduce the delayed-ACK stall on either of
/// its sockets (front door and replica pool): 40 ms per leg when a message
/// leaves in pieces, ~0.3 ms healthy.
#[test]
fn routed_round_trips_do_not_wait_out_a_delayed_ack() {
    let (servers, router, front) = bind_fleet(2, manual_probe_options(RoutingPolicy::LeastLoaded));
    let addr = front.local_addr();
    let mut client = HttpClient::connect(&addr).unwrap();
    let mut samples: Vec<f64> = (0..40)
        .map(|_| {
            let started = Instant::now();
            // Proxied to a replica over the router's keep-alive pool.
            let (status, reply) = client.request("GET", "/v1/models", None).unwrap();
            assert_eq!(status, 200, "{reply}");
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    assert!(
        median < 10.0,
        "routed round trips stall: median {median:.2} ms"
    );

    drop(client);
    router.stop();
    front.stop();
    for server in servers {
        drain_replica(server);
    }
}

#[test]
fn killing_a_replica_under_load_is_invisible_and_ejection_readmission_observable() {
    let (mut servers, router, front) =
        bind_fleet(3, manual_probe_options(RoutingPolicy::LeastLoaded));
    let addr = front.local_addr();
    let path = format!("/v1/models/{MODEL}/infer");
    let body = infer_body(None);

    // Mark every replica's probe gauges once while all three are up.
    router.probe_once();
    assert!(router.metrics().replicas.iter().all(|r| r.healthy));

    // Hammer from three keep-alive clients while replica 0 dies mid-load.
    let hammer_threads: Vec<_> = (0..3)
        .map(|_| {
            let body = body.clone();
            let path = path.clone();
            std::thread::spawn(move || {
                let mut failures = Vec::new();
                let mut client: Option<HttpClient> = None;
                for _ in 0..60 {
                    if client.is_none() {
                        client = HttpClient::connect(&addr).ok();
                    }
                    let outcome = match client.as_mut() {
                        Some(live) => live.request("POST", &path, Some(&body)),
                        None => http_request(&addr, "POST", &path, Some(&body)),
                    };
                    match outcome {
                        Ok((200, _)) => {}
                        Ok((status, reply)) => {
                            failures.push(format!("{status} {reply}"));
                            client = None;
                        }
                        Err(e) => {
                            failures.push(format!("transport: {e}"));
                            client = None;
                        }
                    }
                }
                failures
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    let victim_addr = servers[0].local_addr();
    drain_replica(servers.remove(0));
    for thread in hammer_threads {
        let failures = thread.join().unwrap();
        assert!(
            failures.is_empty(),
            "client-visible failures while a replica died: {failures:?}"
        );
    }

    // Deterministic ejection: eject_after consecutive failed sweeps.
    for _ in 0..EJECT_AFTER {
        router.probe_once();
    }
    let metrics = router.metrics();
    assert_eq!(metrics.ejections_total, 1);
    assert!(!metrics.replicas[0].healthy, "dead replica still admitted");
    assert!(
        metrics.failovers_total >= 1,
        "requests to the dead replica never failed over"
    );

    // Restart on the old port; readmit_after successful sweeps re-admit.
    servers.insert(0, bind_replica(&victim_addr.to_string()));
    for _ in 0..READMIT_AFTER {
        router.probe_once();
    }
    let metrics = router.metrics();
    assert_eq!(metrics.readmissions_total, 1);
    assert!(
        metrics.replicas.iter().all(|r| r.healthy),
        "fleet not fully healthy after the restart"
    );

    // The healed fleet serves.
    let (status, reply) = http_request(&addr, "POST", &path, Some(&body)).unwrap();
    assert_eq!(status, 200, "post-heal infer failed: {reply}");

    router.stop();
    front.stop();
    for server in servers {
        drain_replica(server);
    }
}

#[test]
fn rolling_replan_keeps_serving_and_converges_every_replica() {
    let (servers, router, front) = bind_fleet(3, manual_probe_options(RoutingPolicy::LeastLoaded));
    let addr = front.local_addr();
    let path = format!("/v1/models/{MODEL}/infer");
    let body = infer_body(None);

    // A live hammer across the replan boundary: the rolling walk re-plans
    // one replica at a time, so >= N-1 replicas serve at every instant and
    // no client request may fail.
    let stop_flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammer_threads: Vec<_> = (0..2)
        .map(|_| {
            let body = body.clone();
            let path = path.clone();
            let stop_flag = Arc::clone(&stop_flag);
            std::thread::spawn(move || {
                let mut served = 0u64;
                let mut failures = Vec::new();
                while !stop_flag.load(std::sync::atomic::Ordering::SeqCst) {
                    match http_request(&addr, "POST", &path, Some(&body)) {
                        Ok((200, _)) => served += 1,
                        Ok((status, reply)) => failures.push(format!("{status} {reply}")),
                        Err(e) => failures.push(format!("transport: {e}")),
                    }
                }
                (served, failures)
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(30));
    let (status, reply) = http_request(
        &addr,
        "POST",
        &format!("/v1/models/{MODEL}/replan"),
        Some("{\"budget\": 0.9}"),
    )
    .unwrap();
    assert_eq!(status, 200, "rolling replan failed: {reply}");
    assert!(
        reply.contains("\"ok\":true"),
        "fleet replan not ok: {reply}"
    );
    std::thread::sleep(Duration::from_millis(30));
    stop_flag.store(true, std::sync::atomic::Ordering::SeqCst);
    let mut served = 0u64;
    for thread in hammer_threads {
        let (ok, failures) = thread.join().unwrap();
        served += ok;
        assert!(
            failures.is_empty(),
            "client-visible failures across the replan boundary: {failures:?}"
        );
    }
    assert!(served > 0, "the hammer never landed a request");

    // Every replica converged to the new plan generation.
    for server in &servers {
        let (status, metrics) =
            http_request(&server.local_addr(), "GET", "/metrics", None).unwrap();
        assert_eq!(status, 200);
        let value = serde_json::parse_value(&metrics).unwrap();
        let models = value.get("models").and_then(|m| m.as_array()).unwrap();
        let entry = models
            .iter()
            .find(|m| m.get("model").and_then(|v| v.as_str()) == Some(MODEL))
            .expect("fleet model present in replica metrics");
        assert_eq!(
            entry.get("generation").and_then(|g| g.as_f64()),
            Some(2.0),
            "replica did not converge to generation 2: {metrics}"
        );
    }
    assert_eq!(router.metrics().fleet_replans_total, 1);

    router.stop();
    front.stop();
    for server in servers {
        drain_replica(server);
    }
}

#[test]
fn a_fleet_tune_rolls_every_replica_and_controller_state_aggregates() {
    let (servers, router, front) = bind_fleet(2, manual_probe_options(RoutingPolicy::LeastLoaded));
    let addr = front.local_addr();
    let path = format!("/v1/models/{MODEL}/infer");

    // A little warm-up traffic so each tune has measured latency on hand
    // (the search calibrates against it only past min_samples, but this
    // exercises the scrape path either way).
    for _ in 0..4 {
        let (status, reply) = http_request(&addr, "POST", &path, Some(&infer_body(None))).unwrap();
        assert_eq!(status, 200, "warm-up infer failed: {reply}");
    }

    // Tune through the router: the fan-out rolls one replica at a time and
    // every row carries that replica's own TuneReport.
    let (status, reply) = http_request(
        &addr,
        "POST",
        &format!("/v1/models/{MODEL}/tune"),
        Some("{\"target_p99_ms\": 5.0}"),
    )
    .unwrap();
    assert_eq!(status, 200, "fleet tune failed: {reply}");
    let fleet: FleetReply = serde_json::from_str(&reply).unwrap();
    assert!(fleet.ok, "fleet tune not ok: {reply}");
    assert_eq!(fleet.replicas.len(), 2);
    for row in &fleet.replicas {
        assert_eq!(
            row.status, 200,
            "replica {} tune failed: {}",
            row.id, row.body
        );
        let report: TuneReport = serde_json::from_str(&row.body).unwrap();
        assert_eq!(report.model, MODEL);
        assert_eq!(
            report.tuning_generation, 1,
            "replica {} not on its first tune",
            row.id
        );
        assert!(
            report.converged,
            "replica {} missed a 5 ms target: {}",
            row.id, row.body
        );
    }

    // The controller config fans out like any other control-plane write...
    let (status, reply) = http_request(
        &addr,
        "PUT",
        "/v1/controller",
        Some("{\"enabled\": true, \"interval_ms\": 50}"),
    )
    .unwrap();
    assert_eq!(status, 200, "fleet controller update failed: {reply}");

    // ...and the status read aggregates every replica's own block, so the
    // tune and the config change are both visible per replica.
    let (status, reply) = http_request(&addr, "GET", "/v1/controller", None).unwrap();
    assert_eq!(status, 200, "fleet controller status failed: {reply}");
    let fleet: FleetReply = serde_json::from_str(&reply).unwrap();
    assert!(fleet.ok);
    assert_eq!(fleet.replicas.len(), 2);
    for row in &fleet.replicas {
        let controller: ControllerStatus = serde_json::from_str(&row.body).unwrap();
        assert!(controller.config.enabled);
        assert_eq!(controller.config.interval_ms, 50);
        assert_eq!(controller.tunes_total, 1);
        let model = controller
            .models
            .iter()
            .find(|m| m.model == MODEL)
            .expect("tuned model missing from controller status");
        assert_eq!(model.tuning_generation, 1);
    }

    let metrics = router.metrics();
    assert_eq!(metrics.fleet_tunes_total, 1);
    assert_eq!(metrics.fleet_controller_updates_total, 1);

    router.stop();
    front.stop();
    for server in servers {
        drain_replica(server);
    }
}

#[test]
fn retry_after_flows_from_engine_hint_to_router_backoff() {
    // One replica with a deliberately congestible queue: an under-full
    // batch idles for the full 400 ms delay before dispatch, so two
    // deadline-less requests pin the FIFO at the admission bound of 2 for
    // that long — every arrival in the window is shed with `Retry-After`.
    let registry = ModelRegistry::new(2);
    registry
        .register(
            MODEL,
            &serving_descriptor(MODEL, 10, 4, 6),
            ModelConfig {
                batching: BatchingOptions {
                    max_batch_size: 8,
                    max_batch_delay: Duration::from_millis(400),
                    max_queue_depth: 2,
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
    let replica = HttpServer::bind("127.0.0.1:0", Arc::new(registry)).unwrap();
    let replica_addr = replica.local_addr();

    let (_, router, front) = {
        let router = Arc::new(Router::new(
            &[replica_addr],
            manual_probe_options(RoutingPolicy::ConsistentHash),
        ));
        let front = HttpServer::bind_with_handler("127.0.0.1:0", Arc::clone(&router) as _).unwrap();
        (Vec::<HttpServer>::new(), router, front)
    };
    let addr = front.local_addr();
    let path = format!("/v1/models/{MODEL}/infer");

    // Saturate: two queued requests sit in batch formation for ~400 ms,
    // so the next arrival is shed with a Retry-After hint.
    let saturators: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                http_request(&replica_addr, "POST", &path_of(), Some(&infer_body(None)))
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(60));

    // (a) The replica itself sheds with the engine's hint as a header.
    let (status, headers, _) =
        http_request_with_headers(&replica_addr, "POST", &path, Some(&infer_body(None))).unwrap();
    assert_eq!(status, 429, "the saturated replica must shed");
    let replica_hint = retry_after_of(&headers).expect("replica 429 without Retry-After");
    assert!(replica_hint >= 1);

    // (b) Without a deadline the router gives the shed straight back to
    // the client — same status, hint propagated as a header.
    let (status, headers, _) =
        http_request_with_headers(&addr, "POST", &path, Some(&infer_body(None))).unwrap();
    assert_eq!(status, 429, "router must propagate the shed");
    let routed_hint = retry_after_of(&headers).expect("routed 429 without Retry-After");
    assert!(routed_hint >= 1);
    assert_eq!(router.metrics().retry_after_waits_total, 0);

    // (c) With a deadline the router honours the hint: it sleeps and
    // re-tries once the queue has drained, so the client sees a plain 200.
    let started = Instant::now();
    let (status, reply) =
        http_request(&addr, "POST", &path, Some(&infer_body(Some(5000)))).unwrap();
    assert_eq!(
        status, 200,
        "deadline-carrying request not retried: {reply}"
    );
    assert!(
        started.elapsed() >= Duration::from_millis(200),
        "the router cannot have waited out the hint this fast"
    );
    let metrics = router.metrics();
    assert!(
        metrics.retry_after_waits_total >= 1,
        "the router never slept on the Retry-After hint"
    );

    for thread in saturators {
        let _ = thread.join().unwrap();
    }
    router.stop();
    front.stop();
    drain_replica(replica);
}

fn path_of() -> String {
    format!("/v1/models/{MODEL}/infer")
}

fn retry_after_of(headers: &[(String, String)]) -> Option<u64> {
    headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("retry-after"))
        .and_then(|(_, value)| value.trim().parse().ok())
}
