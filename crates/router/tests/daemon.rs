//! The `router` daemon as a real process fronting the two `serve_http`
//! children it spawns (`--spawn 2 --spill-dir D`, default policy and
//! probe), and its start-up errors that exit 2 before anything is bound.
//!
//! `--spawn` runs the `serve_http` built next to `router`; a root `cargo
//! test` (or `cargo build`) builds both.

#[path = "../../serve/tests/support/mod.rs"]
mod support;

use std::net::{SocketAddr, TcpListener};

use support::{assert_start_up_error, command, disk_hits, Daemon, TempDir};
use tdc_router::{FleetReply, RouterHealthReply, RouterMetrics};
use tdc_serve::http::{http_request, InferReply, RegisterBody};
use tdc_serve::{serving_descriptor, PlanningOptions, ServeEngine};
use tdc_tensor::Tensor;

const ROUTER: &str = env!("CARGO_BIN_EXE_router");
const BANNER: &str = "tdc-router fleet router on http://";

/// Fleet register (the second replica warms from the spill), routed
/// inference bit-identical to a direct engine before and after a rolling
/// replan, fleet retire, the fleet counters, oversized descriptors
/// answering 400, and a graceful shutdown that takes both children with
/// it. Dropping the router on a failed assertion drains it, and with it
/// the children.
#[test]
fn a_spawned_fleet_registers_routes_retires_and_shuts_down_as_one() {
    let spill = TempDir::new("router-spill");
    let mut router = command(ROUTER, "--addr 127.0.0.1:0 --spawn 2");
    router.args(["--spill-dir", spill.path()]);
    let router = Daemon::start(router, BANNER);
    let reply = router.request(200, "GET", "/metrics", None);
    let metrics: RouterMetrics = serde_json::from_str(&reply).unwrap();
    let replicas: Vec<SocketAddr> = metrics
        .replicas
        .iter()
        .map(|r| r.addr.parse().unwrap())
        .collect();

    let reply = router.request(200, "GET", "/healthz", None);
    let health: RouterHealthReply = serde_json::from_str(&reply).unwrap();
    let ready = (health.ready, health.replicas, health.healthy);
    assert_eq!(ready, (true, 2, 2), "{reply}");
    let models = router.request(200, "GET", "/v1/models", None);
    assert!(models.contains("\"svc-0\""), "not proxied: {models}");

    // The fan-out walks the replicas in order: the first plans and spills
    // the model, the second reads it back from disk.
    let descriptor = serving_descriptor("daemon-hot", 10, 4, 6);
    let register = RegisterBody::for_descriptor(descriptor.clone());
    let register = serde_json::to_string(&register).unwrap();
    let before = disk_hits(&replicas[1]);
    let reply = router.request(200, "PUT", "/v1/models/hot", Some(&register));
    let fanned: FleetReply = serde_json::from_str(&reply).unwrap();
    assert!(fanned.ok && fanned.replicas.len() == 2, "{reply}");
    assert!(disk_hits(&replicas[1]) >= before + 1.0, "re-planned");

    let input = Tensor::from_vec(vec![10, 10, 4], vec![0.5; 400]).unwrap();
    let body = format!(r#"{{"input": {:?}}}"#, input.data());
    let direct = |budget: f64| {
        let planning = PlanningOptions {
            budget,
            ..PlanningOptions::default()
        };
        let engine = ServeEngine::builder(&descriptor).planning(planning).build();
        let output = engine.unwrap().infer(input.clone()).unwrap().output;
        output.data().to_vec()
    };
    let routed = || {
        let reply = router.request(200, "POST", "/v1/models/hot/infer", Some(&body));
        serde_json::from_str::<InferReply>(&reply).unwrap().output
    };
    assert_eq!(routed(), direct(PlanningOptions::default().budget));
    let replan = r#"{"budget": 0.9}"#;
    router.request(200, "POST", "/v1/models/hot/replan", Some(replan));
    assert_eq!(routed(), direct(0.9));

    router.request(200, "DELETE", "/v1/models/hot", None);
    router.request(404, "POST", "/v1/models/hot/infer", Some(&body));
    let reply = router.request(200, "GET", "/metrics", None);
    let m: RouterMetrics = serde_json::from_str(&reply).unwrap();
    let fleet = [
        m.fleet_registers_total,
        m.fleet_replans_total,
        m.fleet_retires_total,
    ];
    assert_eq!(fleet, [1, 1, 1], "{reply}");

    // Padding that overflows the shape arithmetic, weights or an activation
    // too large to materialize, or a layer of about 2^40 multiply-accumulates
    // per sample answer 400 from a replica and routed, and both replicas
    // still serve.
    let big = |c: u64, hw: u64, pad: &str| {
        format!(
            r#"{{"descriptor": {{"name": "big", "fc": [[{c}, 6]], "convs": [{{"c": {c}, "n": {c}, "h": {hw}, "w": {hw}, "r": 3, "s": 3, "pad": {pad}, "stride": 1}}]}}}}"#
        )
    };
    for body in [
        big(4, 10, "1e19"),
        big(100_000, 10, "1"),
        big(1, 100_000, "1"),
        r#"{"descriptor": {"name": "big", "fc": [[16000, 10]], "convs": [{"c": 16384, "n": 16000, "h": 64, "w": 64, "r": 1, "s": 1, "pad": 0, "stride": 1}]}}"#.to_string(),
    ] {
        for addr in [replicas[0], router.addr] {
            let (status, reply) =
                http_request(&addr, "PUT", "/v1/models/big", Some(&body)).unwrap();
            assert_eq!(status, 400, "{body} via {addr}: {reply}");
        }
    }
    for replica in &replicas {
        let (status, reply) = http_request(replica, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200, "{reply}");
    }
    // The rejected registers are not fleet registers.
    let reply = router.request(200, "GET", "/metrics", None);
    let m: RouterMetrics = serde_json::from_str(&reply).unwrap();
    let fleet = [
        m.fleet_registers_total,
        m.fleet_replans_total,
        m.fleet_retires_total,
    ];
    assert_eq!(fleet, [1, 1, 1], "{reply}");

    assert_eq!(router.shut_down(), Some(0));
    for replica in &replicas {
        let gone = http_request(replica, "GET", "/healthz", None).is_err();
        assert!(gone, "replica {replica} outlived the router");
    }
}

#[test]
fn start_up_errors_exit_2_with_one_line_and_nothing_bound() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let taken = listener.local_addr().unwrap().to_string();
    let fleet = "--replicas 127.0.0.1:9";
    let mut bad_policy = command(ROUTER, &format!("--addr 127.0.0.1:0 {fleet}"));
    bad_policy.env("ROUTER_POLICY", "bogus");
    let spill_no_spawn = command(ROUTER, &format!("{fleet} --spill-dir plans"));
    let port_taken = command(ROUTER, &format!("--addr {taken} {fleet}"));
    for (case, router) in [
        ("ROUTER_POLICY=bogus", bad_policy),
        ("--spill-dir without --spawn", spill_no_spawn),
        ("a taken port", port_taken),
    ] {
        assert_start_up_error(case, router, "router: ", BANNER);
    }
}
