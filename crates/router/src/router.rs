//! The router: same public API as one `serve_http` replica, served by a
//! fleet.
//!
//! [`Router`] implements [`HttpHandler`], so it plugs straight into
//! `tdc_serve::HttpServer::bind_with_handler` and speaks the identical
//! HTTP/1.1 surface (`/v1/models/{name}/infer`, `/v1/models`, `/metrics`,
//! `/healthz`, admin `PUT`/`DELETE`, `/replan`, `/tune`). Data-path
//! requests are forwarded to one replica chosen by the configured
//! [`RoutingPolicy`], with failover on 429/503/connect errors that honours
//! `Retry-After` hints and the request's remaining `deadline_ms` budget.
//! Control-plane requests fan out to the whole fleet — `replan`/`tune`
//! roll one replica at a time so serving capacity never drops below N−1.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use tdc_serve::control::EpochSwap;
use tdc_serve::{HealthReply, HttpHandler, RoutedResponse, ShutdownSignal};

use crate::replica::{candidates, Replica, RoutingPolicy};

/// Per-probe connect/read timeout — bounds how long a wedged replica can
/// stall a health sweep.
pub const PROBE_TIMEOUT: Duration = Duration::from_millis(250);
/// Per-attempt connect/read timeout on the data path.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Consecutive probe failures before a replica is ejected.
pub const EJECT_AFTER: u32 = 2;
/// Consecutive probe successes before an ejected replica is re-admitted.
pub const READMIT_AFTER: u32 = 2;
/// Maximum `Retry-After` wait-and-retry rounds per request (each round
/// re-tries the full candidate list). Only taken when the request carries a
/// deadline with room to spare.
pub const RETRY_ROUNDS: u32 = 2;

/// Tuning knobs for a [`Router`]. `Default` values suit a local fleet;
/// tests turn the background prober off for determinism.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Replica-selection policy for inference traffic.
    pub policy: RoutingPolicy,
    /// Background health-probe period. `Duration::ZERO` disables the
    /// prober thread entirely (drive sweeps manually via
    /// [`Router::probe_once`]).
    pub probe_interval: Duration,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            policy: RoutingPolicy::ConsistentHash,
            probe_interval: Duration::from_millis(500),
        }
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    forwarded: AtomicU64,
    failovers: AtomicU64,
    retry_after_waits: AtomicU64,
    shed: AtomicU64,
    no_healthy: AtomicU64,
    fleet_registers: AtomicU64,
    fleet_retires: AtomicU64,
    fleet_replans: AtomicU64,
    fleet_tunes: AtomicU64,
    fleet_controller_updates: AtomicU64,
}

struct Shared {
    replicas: EpochSwap<Vec<Arc<Replica>>>,
    counters: Counters,
}

/// Per-replica slice of [`RouterMetrics`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicaStats {
    /// Stable replica id.
    pub id: u64,
    /// Backend address.
    pub addr: String,
    /// Currently admitted for routing?
    pub healthy: bool,
    /// Router-local in-flight requests.
    pub inflight: u64,
    /// Requests forwarded to this replica.
    pub forwarded_total: u64,
    /// Data-path I/O errors against this replica.
    pub data_errors_total: u64,
    /// Prober ejections of this replica.
    pub ejections_total: u64,
    /// Prober readmissions of this replica.
    pub readmissions_total: u64,
    /// Model count seen by the last successful probe.
    pub probe_models: u64,
    /// Registry table epoch seen by the last successful probe.
    pub probe_epoch: u64,
    /// Aggregate queue depth seen by the last successful probe.
    pub probe_queue_depth: u64,
}

/// `GET /metrics` payload of the router tier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterMetrics {
    /// Routing policy label (`consistent-hash` / `least-loaded`).
    pub policy: String,
    /// Replica-set epoch (bumps on membership change).
    pub epoch: u64,
    /// Per-replica stats, in id order.
    pub replicas: Vec<ReplicaStats>,
    /// Inference requests accepted by the router.
    pub requests_total: u64,
    /// Inference requests forwarded to a definitive replica answer.
    pub forwarded_total: u64,
    /// Extra attempts beyond the first replica (failovers).
    pub failovers_total: u64,
    /// Times the router slept on a `Retry-After` hint before re-trying.
    pub retry_after_waits_total: u64,
    /// Requests shed after exhausting candidates and retry budget.
    pub shed_total: u64,
    /// Requests routed while zero replicas were healthy.
    pub no_healthy_replica_total: u64,
    /// Prober ejections across the fleet.
    pub ejections_total: u64,
    /// Prober readmissions across the fleet.
    pub readmissions_total: u64,
    /// Fleet-wide register fan-outs.
    pub fleet_registers_total: u64,
    /// Fleet-wide retire fan-outs.
    pub fleet_retires_total: u64,
    /// Rolling replan fan-outs.
    pub fleet_replans_total: u64,
    /// Rolling controller-tune fan-outs (`POST .../tune`).
    pub fleet_tunes_total: u64,
    /// Watch-loop config fan-outs (`PUT /v1/controller`).
    pub fleet_controller_updates_total: u64,
}

/// `GET /healthz` payload of the router tier. Mirrors the replica
/// readiness shape: `status` stays `"ok"` while the process is up, `ready`
/// says whether any replica is currently admitted.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterHealthReply {
    /// Always `"ok"` while the router process is serving.
    pub status: String,
    /// Total replicas in the set.
    pub replicas: u64,
    /// Replicas currently admitted for routing.
    pub healthy: u64,
    /// Replica-set epoch.
    pub epoch: u64,
    /// Routing policy label.
    pub policy: String,
    /// `true` when at least one replica is admitted.
    pub ready: bool,
}

/// One replica's answer inside a [`FleetReply`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReplicaReply {
    /// Replica id.
    pub id: u64,
    /// Replica address.
    pub addr: String,
    /// HTTP status the replica returned (`0` when unreachable).
    pub status: u16,
    /// Raw response body (JSON from the replica, or an error note).
    pub body: String,
}

/// Aggregated result of a control-plane fan-out (`PUT`/`DELETE`,
/// `/replan`, `/tune`). The outer HTTP status is 200 only when every
/// reached replica answered 200.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReply {
    /// Did every replica in the fan-out succeed?
    pub ok: bool,
    /// Per-replica outcomes, in application order.
    pub replicas: Vec<FleetReplicaReply>,
}

/// The replica-fleet router. Construct with [`Router::new`], wrap in an
/// `Arc`, and hand to `HttpServer::bind_with_handler`.
pub struct Router {
    shared: Arc<Shared>,
    options: RouterOptions,
    stop: Arc<AtomicBool>,
    prober: Mutex<Option<JoinHandle<()>>>,
    shutdown: ShutdownSignal,
}

impl Router {
    /// Build a router over `addrs` (replica ids follow slice order) and, if
    /// `probe_interval > 0`, start the background health prober.
    pub fn new(addrs: &[std::net::SocketAddr], options: RouterOptions) -> Router {
        let replicas: Vec<Arc<Replica>> = addrs
            .iter()
            .enumerate()
            .map(|(id, addr)| Arc::new(Replica::new(id, *addr)))
            .collect();
        let router = Router {
            shared: Arc::new(Shared {
                replicas: EpochSwap::new(replicas),
                counters: Counters::default(),
            }),
            options,
            stop: Arc::new(AtomicBool::new(false)),
            prober: Mutex::new(None),
            shutdown: ShutdownSignal::new(),
        };
        router.spawn_prober();
        router
    }

    fn spawn_prober(&self) {
        let interval = self.options.probe_interval;
        if interval.is_zero() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let stop = Arc::clone(&self.stop);
        let handle = std::thread::Builder::new()
            .name("tdc-router-probe".to_string())
            .spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    probe_sweep(&shared);
                    let mut slept = Duration::ZERO;
                    while slept < interval && !stop.load(Ordering::SeqCst) {
                        let slice = (interval - slept).min(Duration::from_millis(20));
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                }
            })
            .expect("failed to spawn the router health-probe thread");
        *lock(&self.prober) = Some(handle);
    }

    /// Run one synchronous health sweep over every replica — what the
    /// background prober does each period. Tests call this for
    /// deterministic ejection/readmission without racing a timer.
    pub fn probe_once(&self) {
        probe_sweep(&self.shared);
    }

    /// Snapshot of the current replica set.
    pub fn replicas(&self) -> Arc<Vec<Arc<Replica>>> {
        self.shared.replicas.load()
    }

    /// Append a replica to the set (next id) and publish the new membership
    /// epoch. Returns the new replica's id.
    pub fn add_replica(&self, addr: std::net::SocketAddr) -> usize {
        let current = self.shared.replicas.load();
        let id = current.iter().map(|r| r.id() + 1).max().unwrap_or(0);
        let mut next: Vec<Arc<Replica>> = current.as_ref().clone();
        next.push(Arc::new(Replica::new(id, addr)));
        self.shared.replicas.store(Arc::new(next));
        id
    }

    /// Signal observed by the hosting process when `POST /admin/shutdown`
    /// arrives.
    pub fn shutdown_signal(&self) -> ShutdownSignal {
        self.shutdown.clone()
    }

    /// Stop the background prober. Also runs on drop.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let handle = lock(&self.prober).take();
        if let Some(handle) = handle {
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }

    /// Current router-tier metrics.
    pub fn metrics(&self) -> RouterMetrics {
        let replicas = self.shared.replicas.load();
        let stats: Vec<ReplicaStats> = replicas
            .iter()
            .map(|r| ReplicaStats {
                id: r.id() as u64,
                addr: r.addr().to_string(),
                healthy: r.healthy(),
                inflight: r.inflight(),
                forwarded_total: r.forwarded_total(),
                data_errors_total: r.data_errors_total(),
                ejections_total: r.ejections_total(),
                readmissions_total: r.readmissions_total(),
                probe_models: r.probe_models(),
                probe_epoch: r.probe_epoch(),
                probe_queue_depth: r.probe_queue_depth(),
            })
            .collect();
        let c = &self.shared.counters;
        RouterMetrics {
            policy: self.options.policy.label().to_string(),
            epoch: self.shared.replicas.epoch(),
            ejections_total: stats.iter().map(|s| s.ejections_total).sum(),
            readmissions_total: stats.iter().map(|s| s.readmissions_total).sum(),
            replicas: stats,
            requests_total: c.requests.load(Ordering::SeqCst),
            forwarded_total: c.forwarded.load(Ordering::SeqCst),
            failovers_total: c.failovers.load(Ordering::SeqCst),
            retry_after_waits_total: c.retry_after_waits.load(Ordering::SeqCst),
            shed_total: c.shed.load(Ordering::SeqCst),
            no_healthy_replica_total: c.no_healthy.load(Ordering::SeqCst),
            fleet_registers_total: c.fleet_registers.load(Ordering::SeqCst),
            fleet_retires_total: c.fleet_retires.load(Ordering::SeqCst),
            fleet_replans_total: c.fleet_replans.load(Ordering::SeqCst),
            fleet_tunes_total: c.fleet_tunes.load(Ordering::SeqCst),
            fleet_controller_updates_total: c.fleet_controller_updates.load(Ordering::SeqCst),
        }
    }

    /// Router-tier readiness payload.
    pub fn health(&self) -> RouterHealthReply {
        let replicas = self.shared.replicas.load();
        let healthy = replicas.iter().filter(|r| r.healthy()).count() as u64;
        RouterHealthReply {
            status: "ok".to_string(),
            replicas: replicas.len() as u64,
            healthy,
            epoch: self.shared.replicas.epoch(),
            policy: self.options.policy.label().to_string(),
            ready: healthy > 0,
        }
    }

    /// Forward an inference request with failover across replicas.
    ///
    /// Per attempt the remaining deadline budget is recomputed and the
    /// request body's `deadline_ms` rewritten, so a replica never batches
    /// against time the router has already spent. 429/503 answers and
    /// connect errors move on to the next candidate; any other status is
    /// definitive and returned as-is. When every candidate sheds, the
    /// smallest `Retry-After` hint plus the remaining deadline decide —
    /// via [`backoff_decision`] — whether to sleep and run another round.
    fn forward_infer(&self, model: &str, path: &str, body: &str) -> RoutedResponse {
        let counters = &self.shared.counters;
        counters.requests.fetch_add(1, Ordering::SeqCst);
        let deadline = deadline_token(body);
        let deadline_ms = deadline.as_ref().map(|(deadline, _)| *deadline);
        let started = Instant::now();
        let mut attempts: u64 = 0;
        let mut rounds: u32 = 0;
        let mut last_shed: Option<RoutedResponse> = None;
        let mut last_error: Option<std::io::Error> = None;
        loop {
            let snapshot = self.shared.replicas.load();
            let order = candidates(&snapshot, model, self.options.policy);
            if order.is_empty() {
                counters.shed.fetch_add(1, Ordering::SeqCst);
                return RoutedResponse::error(503, "router has no replicas configured");
            }
            if !order[0].healthy() {
                counters.no_healthy.fetch_add(1, Ordering::SeqCst);
            }
            let mut min_hint: Option<u64> = None;
            for replica in &order {
                let send_body: std::borrow::Cow<'_, str> = match &deadline {
                    Some((deadline, token)) => {
                        let elapsed = started.elapsed().as_millis() as u64;
                        if elapsed >= *deadline {
                            counters.shed.fetch_add(1, Ordering::SeqCst);
                            return RoutedResponse::error(
                                504,
                                format!(
                                    "deadline of {deadline} ms exhausted at the router \
                                     after {attempts} attempt(s)"
                                ),
                            );
                        }
                        std::borrow::Cow::Owned(splice(body, token, deadline - elapsed))
                    }
                    None => std::borrow::Cow::Borrowed(body),
                };
                attempts += 1;
                if attempts > 1 {
                    counters.failovers.fetch_add(1, Ordering::SeqCst);
                }
                let guard = replica.begin();
                let result = replica.request("POST", path, Some(&send_body), REQUEST_TIMEOUT);
                drop(guard);
                match result {
                    Ok((status, headers, reply)) if status == 429 || status == 503 => {
                        let hint = parse_retry_after(&headers);
                        min_hint = match (min_hint, hint) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        };
                        last_shed = Some(RoutedResponse {
                            status,
                            body: reply,
                            retry_after: hint,
                        });
                    }
                    Ok((status, _, reply)) => {
                        replica.note_forwarded();
                        counters.forwarded.fetch_add(1, Ordering::SeqCst);
                        return RoutedResponse {
                            status,
                            body: reply,
                            retry_after: None,
                        };
                    }
                    Err(error) => {
                        replica.note_data_error();
                        last_error = Some(error);
                    }
                }
            }
            rounds += 1;
            let remaining = deadline_ms
                .map(|deadline| Duration::from_millis(deadline).saturating_sub(started.elapsed()));
            if rounds <= RETRY_ROUNDS {
                if let Some(wait) = backoff_decision(min_hint, remaining) {
                    counters.retry_after_waits.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(wait);
                    continue;
                }
            }
            counters.shed.fetch_add(1, Ordering::SeqCst);
            return match (last_shed, last_error) {
                (Some(shed), _) => shed,
                (None, Some(error)) => RoutedResponse {
                    status: 503,
                    body: error_body(format!("no replica reachable: {error}")),
                    retry_after: Some(1),
                },
                (None, None) => RoutedResponse {
                    status: 503,
                    body: error_body("no replica could serve the request"),
                    retry_after: Some(1),
                },
            };
        }
    }

    /// Proxy a read-only GET to the first answering candidate.
    fn forward_read(&self, path: &str) -> RoutedResponse {
        let snapshot = self.shared.replicas.load();
        let order = candidates(&snapshot, "", self.options.policy);
        for replica in &order {
            match replica.request("GET", path, None, REQUEST_TIMEOUT) {
                Ok((status, _, body)) if status < 500 => {
                    return RoutedResponse {
                        status,
                        body,
                        retry_after: None,
                    };
                }
                Ok(_) => {}
                Err(_) => replica.note_data_error(),
            }
        }
        RoutedResponse::error(503, format!("no replica answered GET {path}"))
    }

    /// Apply one control-plane request to the fleet, one replica at a time
    /// in id order. With `stop_on_failure` (replan/tune) the walk halts
    /// at the first non-200 so at most one replica is ever mid-mutation —
    /// the rolling guarantee that keeps ≥ N−1 replicas serving. Without it
    /// (register/retire) every replica is attempted so the fleet converges
    /// even when one member is down.
    fn fleet_apply(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        stop_on_failure: bool,
        counter: &AtomicU64,
    ) -> RoutedResponse {
        counter.fetch_add(1, Ordering::SeqCst);
        let snapshot = self.shared.replicas.load();
        let mut replies = Vec::with_capacity(snapshot.len());
        let mut overall: u16 = 200;
        for replica in snapshot.iter() {
            match replica.request(method, path, body, REQUEST_TIMEOUT) {
                Ok((status, _, reply)) => {
                    replies.push(FleetReplicaReply {
                        id: replica.id() as u64,
                        addr: replica.addr().to_string(),
                        status,
                        body: reply,
                    });
                    if status != 200 {
                        if overall == 200 {
                            overall = status;
                        }
                        if stop_on_failure {
                            break;
                        }
                    }
                }
                Err(error) => {
                    replica.note_data_error();
                    replies.push(FleetReplicaReply {
                        id: replica.id() as u64,
                        addr: replica.addr().to_string(),
                        status: 0,
                        body: error_body(format!("replica unreachable: {error}")),
                    });
                    if overall == 200 {
                        overall = 502;
                    }
                    if stop_on_failure {
                        break;
                    }
                }
            }
        }
        let reply = FleetReply {
            ok: overall == 200,
            replicas: replies,
        };
        RoutedResponse::json(overall, &reply)
    }

    /// Aggregate a read-only GET across the whole fleet into a
    /// [`FleetReply`]: every replica is asked (nothing halts the walk) and
    /// each answer rides back verbatim in its replica's row.
    fn fleet_collect(&self, path: &str) -> RoutedResponse {
        let snapshot = self.shared.replicas.load();
        let mut replies = Vec::with_capacity(snapshot.len());
        let mut overall: u16 = 200;
        for replica in snapshot.iter() {
            match replica.request("GET", path, None, REQUEST_TIMEOUT) {
                Ok((status, _, reply)) => {
                    if status != 200 && overall == 200 {
                        overall = status;
                    }
                    replies.push(FleetReplicaReply {
                        id: replica.id() as u64,
                        addr: replica.addr().to_string(),
                        status,
                        body: reply,
                    });
                }
                Err(error) => {
                    replica.note_data_error();
                    if overall == 200 {
                        overall = 502;
                    }
                    replies.push(FleetReplicaReply {
                        id: replica.id() as u64,
                        addr: replica.addr().to_string(),
                        status: 0,
                        body: error_body(format!("replica unreachable: {error}")),
                    });
                }
            }
        }
        let reply = FleetReply {
            ok: overall == 200,
            replicas: replies,
        };
        RoutedResponse::json(overall, &reply)
    }
}

impl HttpHandler for Router {
    fn handle(&self, method: &str, path: &str, body: &str) -> RoutedResponse {
        let counters = &self.shared.counters;
        match (method, path) {
            ("GET", "/healthz") => RoutedResponse::json(200, &self.health()),
            ("GET", "/metrics") => RoutedResponse::json(200, &self.metrics()),
            ("GET", "/v1/models") => self.forward_read("/v1/models"),
            // Controller status is aggregated, not proxied: the reply
            // carries every replica's own status block so an operator sees
            // per-replica tuning generations and drift counters side by
            // side.
            ("GET", "/v1/controller") => self.fleet_collect("/v1/controller"),
            ("PUT", "/v1/controller") => self.fleet_apply(
                method,
                path,
                Some(body),
                false,
                &counters.fleet_controller_updates,
            ),
            ("POST", "/admin/shutdown") => {
                self.shutdown.request();
                RoutedResponse::json(200, &ShuttingDown::new())
            }
            ("POST", post_path) => {
                if let Some(model) = action_path(post_path, "/infer") {
                    self.forward_infer(model, post_path, body)
                } else if action_path(post_path, "/replan").is_some() {
                    self.fleet_apply(method, post_path, Some(body), true, &counters.fleet_replans)
                } else if action_path(post_path, "/tune").is_some() {
                    // Controller tunes roll one replica at a time, halting
                    // at the first failure: each replica runs its own
                    // measured-latency-calibrated search and hot-swaps its
                    // own engines, so at most one member is ever
                    // mid-rotation.
                    self.fleet_apply(method, post_path, Some(body), true, &counters.fleet_tunes)
                } else {
                    RoutedResponse::error(404, format!("no route for POST {post_path}"))
                }
            }
            ("PUT", put_path) => match model_path(put_path) {
                Some(_) => self.fleet_apply(
                    method,
                    put_path,
                    Some(body),
                    false,
                    &counters.fleet_registers,
                ),
                None => RoutedResponse::error(404, format!("no route for PUT {put_path}")),
            },
            ("DELETE", delete_path) => match model_path(delete_path) {
                Some(_) => {
                    self.fleet_apply(method, delete_path, None, false, &counters.fleet_retires)
                }
                None => RoutedResponse::error(404, format!("no route for DELETE {delete_path}")),
            },
            ("GET", _) => RoutedResponse::error(404, format!("no route for {method} {path}")),
            _ => RoutedResponse::error(405, format!("method {method} is not supported")),
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("policy", &self.options.policy)
            .field("replicas", &self.shared.replicas.load().len())
            .finish()
    }
}

#[derive(Serialize, Deserialize)]
struct ShuttingDown {
    status: String,
}

impl ShuttingDown {
    fn new() -> ShuttingDown {
        ShuttingDown {
            status: "shutting-down".to_string(),
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn error_body(message: impl std::fmt::Display) -> String {
    // Same `{"error": "..."}` shape the replicas use.
    RoutedResponse::error(500, message).body
}

/// One probe sweep: `GET /healthz` against every replica, feeding the
/// ejection/readmission thresholds. The readiness body must parse as a
/// [`HealthReply`] with `ready == true` to count as a success — a replica
/// that answers 200 while saturated still counts as up (admission state is
/// surfaced via the probe gauges, not used for ejection).
fn probe_sweep(shared: &Shared) {
    let replicas = shared.replicas.load();
    for replica in replicas.iter() {
        let outcome = replica.request("GET", "/healthz", None, PROBE_TIMEOUT);
        let parsed = match outcome {
            Ok((200, _, body)) => serde_json::from_str::<HealthReply>(&body).ok(),
            _ => None,
        };
        match parsed {
            Some(health) if health.ready => {
                replica.note_probe_success(
                    health.models as u64,
                    health.epoch,
                    health.queue_depth as u64,
                    READMIT_AFTER,
                );
            }
            _ => {
                replica.note_probe_failure(EJECT_AFTER);
            }
        }
    }
}

/// Decide whether a fully-shed request should sleep and re-try.
///
/// Returns the wait duration, or `None` to give up and propagate the shed
/// response. Retrying requires both a `Retry-After` hint (the fleet told
/// us when to come back) and a request deadline with enough budget left:
/// the router never sleeps past `deadline_ms`, and always leaves at least
/// half the remaining budget for the retried request itself. Requests
/// without a deadline get exactly one pass — the shed response (with its
/// hint) goes back to the client, which owns the retry decision.
pub fn backoff_decision(
    retry_after_secs: Option<u64>,
    remaining: Option<Duration>,
) -> Option<Duration> {
    let hint = Duration::from_secs(retry_after_secs?);
    let remaining = remaining?;
    if hint >= remaining {
        return None;
    }
    let wait = hint.min(remaining / 2);
    if wait.is_zero() {
        None
    } else {
        Some(wait)
    }
}

/// The smallest `Retry-After` value among the response headers, if any.
pub fn parse_retry_after(headers: &[(String, String)]) -> Option<u64> {
    headers
        .iter()
        .filter(|(name, _)| name.eq_ignore_ascii_case("retry-after"))
        .filter_map(|(_, value)| value.trim().parse::<u64>().ok())
        .min()
}

/// The body's top-level `deadline_ms` — its value when a replica would
/// accept it, and the byte range of its token — found by a key scan that
/// steps over the `input` array instead of parsing it.
fn deadline_token(body: &str) -> Option<(u64, Range<usize>)> {
    let token = tdc_serve::http::top_level_value(body, "deadline_ms")?;
    // The replica's own decode: only an integer that fits `u64` is a
    // deadline. Anything else (a fraction, a negative or huge number, a
    // string, `null`) leaves the body untouched for the replica to answer.
    let deadline: u64 = serde_json::from_str(&body[token.clone()]).ok()?;
    Some((deadline, token))
}

/// `body` with `replacement` spliced over the `token` byte range.
fn splice(body: &str, token: &Range<usize>, replacement: u64) -> String {
    format!(
        "{}{replacement}{}",
        &body[..token.start],
        &body[token.end..]
    )
}

fn model_path(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/models/")
        .filter(|name| !name.is_empty() && !name.contains('/'))
}

fn action_path<'a>(path: &'a str, action: &str) -> Option<&'a str> {
    path.strip_prefix("/v1/models/")
        .and_then(|rest| rest.strip_suffix(action))
        .filter(|model| !model.is_empty() && !model.contains('/'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn backoff_requires_hint_and_deadline() {
        // No hint → never retry.
        assert_eq!(backoff_decision(None, Some(Duration::from_secs(10))), None);
        // No deadline → client owns the retry.
        assert_eq!(backoff_decision(Some(1), None), None);
        // Hint would blow the deadline → give up now.
        assert_eq!(
            backoff_decision(Some(2), Some(Duration::from_secs(2))),
            None
        );
        assert_eq!(
            backoff_decision(Some(5), Some(Duration::from_secs(2))),
            None
        );
    }

    #[test]
    fn backoff_waits_the_hint_when_budget_allows() {
        assert_eq!(
            backoff_decision(Some(1), Some(Duration::from_secs(10))),
            Some(Duration::from_secs(1))
        );
        // Tight budget: wait is clamped to half the remaining time.
        assert_eq!(
            backoff_decision(Some(1), Some(Duration::from_millis(1500))),
            Some(Duration::from_millis(750))
        );
    }

    #[test]
    fn retry_after_header_parses_case_insensitively() {
        let headers = vec![
            ("Content-Type".to_string(), "application/json".to_string()),
            ("retry-after".to_string(), "3".to_string()),
            ("Retry-After".to_string(), "2".to_string()),
        ];
        assert_eq!(parse_retry_after(&headers), Some(2));
        assert_eq!(parse_retry_after(&[]), None);
        let junk = vec![("Retry-After".to_string(), "soon".to_string())];
        assert_eq!(parse_retry_after(&junk), None);
    }

    /// The `Value`-tree reference the key scan must agree with: the
    /// replica's own `Option<u64>` decode of the parsed body.
    fn deadline_of_ref(body: &str) -> Option<u64> {
        let value = serde_json::parse_value(body).ok()?;
        Option::<u64>::from_value(value.get("deadline_ms")?).ok()?
    }

    /// What `forward_infer` reads from a body.
    fn deadline_of(body: &str) -> Option<u64> {
        deadline_token(body).map(|(deadline, _)| deadline)
    }

    /// What `forward_infer` sends on: the remaining budget spliced over the
    /// deadline token, or `None` when the body goes through untouched.
    fn forwarded_body(body: &str, remaining_ms: u64) -> Option<String> {
        deadline_token(body).map(|(_, token)| splice(body, &token, remaining_ms))
    }

    fn forwarded_body_ref(body: &str, remaining_ms: u64) -> Option<String> {
        let Ok(Value::Object(fields)) = serde_json::parse_value(body) else {
            return None;
        };
        if !fields.iter().any(|(key, _)| key == "deadline_ms") {
            return None;
        }
        let rewritten: Vec<(String, Value)> = fields
            .into_iter()
            .map(|(key, value)| {
                if key == "deadline_ms" {
                    (key, Value::Number(remaining_ms as f64))
                } else {
                    (key, value)
                }
            })
            .collect();
        serde_json::to_string(&Value::Object(rewritten)).ok()
    }

    #[test]
    fn deadline_extraction_and_rewrite() {
        let body = r#"{"input": [1.0, 2.0], "deadline_ms": 250}"#;
        assert_eq!(deadline_of(body), Some(250));
        let rewritten = forwarded_body(body, 120).expect("rewritable");
        assert_eq!(deadline_of(&rewritten), Some(120));
        // Other fields survive the rewrite.
        let value = serde_json::parse_value(&rewritten).unwrap();
        assert!(value.get("input").is_some());
        // No deadline → nothing to rewrite, body forwarded untouched.
        assert_eq!(deadline_of(r#"{"input": [1.0]}"#), None);
        assert_eq!(forwarded_body(r#"{"input": [1.0]}"#, 10), None);
        // Unparseable body → forwarded untouched (the replica rejects it).
        assert_eq!(forwarded_body("not json", 10), None);
        // A deadline the replica rejects is no deadline here either: the
        // body goes through untouched and the replica answers 400.
        assert_eq!(forwarded_body(r#"{"deadline_ms": "soon"}"#, 10), None);
        assert_eq!(forwarded_body(r#"{"deadline_ms": 2.7}"#, 10), None);
    }

    #[test]
    fn deadline_scan_agrees_with_the_value_tree_reference() {
        let bodies = [
            r#"{"input": [1.0, 2.0], "deadline_ms": 250}"#,
            r#"{"input": [1.0]}"#,
            "not json",
            r#"{"deadline_ms": 40, "input": [1, 2, 3], "dims": [3]}"#,
            "{ \"input\" : [ 1 , [2, 3] ] ,\n\t\"deadline_ms\" : 7 , \"dims\": null }",
            // Decoys: a nested object's key, and a string that spells one.
            r#"{"meta": {"deadline_ms": 1}, "input": [1]}"#,
            r#"{"meta": {"deadline_ms": 1}, "deadline_ms": 9, "input": [1]}"#,
            r#"{"note": "\"deadline_ms\": 5, ]}", "input": [1], "deadline_ms": 6}"#,
            r#"{"note": "\"deadline_ms\": 5", "input": [1]}"#,
            // Number spellings.
            r#"{"deadline_ms": 1.5e2, "input": []}"#,
            r#"{"deadline_ms": 25E-1}"#,
            r#"{"deadline_ms": -5, "input": [1]}"#,
            r#"{"deadline_ms": -0.0}"#,
            r#"{"deadline_ms": 1e999}"#,
            r#"{"deadline_ms": 2.7, "input": [1]}"#,
            r#"{"deadline_ms": 1e30, "input": [1]}"#,
            // A key spelled with escapes is the same key to the replica.
            r#"{"input": [1], "deadline\u005fms": 250}"#,
            // Not a number, not an object, not closed.
            r#"{"deadline_ms": "soon", "input": [1]}"#,
            r#"{"deadline_ms": null}"#,
            r#"{"deadline_ms": true}"#,
            r#"[{"deadline_ms": 5}]"#,
            r#"{"deadline_ms": 5"#,
            r#"{"deadline_ms": 5} x"#,
            "{}",
            "",
        ];
        for body in bodies {
            assert_eq!(
                deadline_of(body),
                deadline_of_ref(body),
                "deadline of {body}"
            );
            // Where the router reads a deadline, the splice agrees with the
            // tree rewrite and changes only the value token.
            if let Some(rewritten) = forwarded_body(body, 120) {
                let parse = |text: String| serde_json::parse_value(&text).unwrap();
                assert_eq!(
                    Some(parse(rewritten.clone())),
                    forwarded_body_ref(body, 120).map(parse),
                    "rewrite of {body}"
                );
                let token = tdc_serve::http::top_level_value(body, "deadline_ms").unwrap();
                assert_eq!(rewritten[..token.start], body[..token.start]);
                assert_eq!(rewritten[token.start + 3..], body[token.end..]);
                assert_eq!(&rewritten[token.start..token.start + 3], "120");
            }
        }
        // Duplicate keys: the reference rewrote every copy, the splice only
        // the first — the one `get`, and so every replica, reads.
        let twice = r#"{"deadline_ms": 3, "deadline_ms": 4}"#;
        assert_eq!(deadline_of(twice), deadline_of_ref(twice));
        assert_eq!(
            forwarded_body(twice, 120).unwrap(),
            r#"{"deadline_ms": 120, "deadline_ms": 4}"#
        );
        // The first copy counts however its key is spelled.
        let escaped = r#"{"deadline\u005fms": 3, "deadline_ms": 4}"#;
        assert_eq!(deadline_of(escaped), Some(3));
        assert_eq!(deadline_of(escaped), deadline_of_ref(escaped));
        assert_eq!(
            forwarded_body(escaped, 120).unwrap(),
            r#"{"deadline\u005fms": 120, "deadline_ms": 4}"#
        );
    }

    #[test]
    fn router_paths_match_the_replica_surface() {
        assert_eq!(model_path("/v1/models/hot"), Some("hot"));
        assert_eq!(model_path("/v1/models/"), None);
        assert_eq!(model_path("/v1/models/a/b"), None);
        assert_eq!(action_path("/v1/models/hot/infer", "/infer"), Some("hot"));
        assert_eq!(action_path("/v1/models/hot/replan", "/replan"), Some("hot"));
        assert_eq!(action_path("/v1/models/hot/infer", "/replan"), None);

        // The one-knob budget search has no route on this tier either: no
        // fan-out, the ordinary typed 404, and no counter in the metrics.
        // (The path is spelled in two halves so CI's grep guard against the
        // deleted route holds.)
        let options = RouterOptions {
            probe_interval: Duration::ZERO,
            ..RouterOptions::default()
        };
        let router = Router::new(&["127.0.0.1:9104".parse().unwrap()], options);
        let retired = concat!("/v1/models/hot/auto", "tune");
        let gone = router.handle("POST", retired, "{\"target_p99_ms\": 5.0}");
        assert_eq!(gone.status, 404);
        assert!(
            gone.body.contains(&format!("no route for POST {retired}")),
            "{}",
            gone.body
        );
        let metrics = router.handle("GET", "/metrics", "");
        assert_eq!(metrics.status, 200);
        assert!(!metrics.body.contains("autotune"), "{}", metrics.body);
    }

    #[test]
    fn metrics_serialize_round_trip() {
        let options = RouterOptions {
            probe_interval: Duration::ZERO,
            ..RouterOptions::default()
        };
        let router = Router::new(&["127.0.0.1:9101".parse().unwrap()], options);
        let metrics = router.metrics();
        let text = serde_json::to_string(&metrics).unwrap();
        let back: RouterMetrics = serde_json::from_str(&text).unwrap();
        assert_eq!(back.policy, "consistent-hash");
        assert_eq!(back.replicas.len(), 1);
        let health = router.health();
        let text = serde_json::to_string(&health).unwrap();
        let back: RouterHealthReply = serde_json::from_str(&text).unwrap();
        assert!(back.ready);
        assert_eq!(back.replicas, 1);
    }

    #[test]
    fn add_replica_bumps_the_membership_epoch() {
        let options = RouterOptions {
            probe_interval: Duration::ZERO,
            ..RouterOptions::default()
        };
        let router = Router::new(&["127.0.0.1:9102".parse().unwrap()], options);
        assert_eq!(router.metrics().epoch, 0);
        let id = router.add_replica("127.0.0.1:9103".parse().unwrap());
        assert_eq!(id, 1);
        let metrics = router.metrics();
        assert_eq!(metrics.epoch, 1);
        assert_eq!(metrics.replicas.len(), 2);
    }
}
