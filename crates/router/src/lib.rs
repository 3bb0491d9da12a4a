//! # tdc-router
//!
//! The horizontal scale-out tier for `tdc-serve`: a std-only HTTP/1.1
//! router process that fronts N replica `serve_http` processes and
//! presents the *exact same* public API — clients cannot tell a routed
//! fleet from a single replica. This is the ROADMAP's
//! "replicated registries behind a router" direction made concrete.
//!
//! ## Pieces
//!
//! * [`replica`] — [`Replica`] endpoints with keep-alive connection
//!   pooling, per-replica counters, and the two [`RoutingPolicy`] orders:
//!   FNV-1a consistent hashing (stable per-model placement + deterministic
//!   failover sequence) and least-loaded (router-local in-flight count).
//! * [`router`] — the [`Router`] itself. It implements
//!   `tdc_serve::HttpHandler`, so `HttpServer::bind_with_handler` hosts it
//!   on the same hand-rolled HTTP stack the replicas use. A background
//!   prober `GET /healthz`s every replica, ejecting after consecutive
//!   failures and re-admitting after consecutive successes; inference
//!   traffic fails over across replicas on 429/503/connect errors,
//!   honouring `Retry-After` hints via [`backoff_decision`] and never
//!   retrying past the request's `deadline_ms`; control-plane calls
//!   (`PUT`/`DELETE /v1/models/{name}`, `/replan`, `/tune`) fan out to
//!   the fleet and answer one [`FleetReply`], with replan/tune applied
//!   rolling — one replica at a time — so serving capacity never drops
//!   below N−1.
//! * [`testkit`] — shared fleet support: in-process replica fleets
//!   (`bind_replica` / `bind_fleet` / `drain_replica`), spawned
//!   `serve_http` children (`spawn_replica` / `shutdown_replica`) and
//!   keep-alive hammer clients, for the `tdc-lab` chaos harness,
//!   `tests/router.rs` and the `router` binary's `--spawn`.
//!
//! ## Bins
//!
//! * `router` — the router process: `--replicas a:p,b:p` to front existing
//!   replicas, `--spawn N` to self-spawn `serve_http` children on
//!   ephemeral ports (one-command local fleet); `tests/daemon.rs` drives
//!   it end to end.

pub mod replica;
pub mod router;
pub mod testkit;

pub use replica::{candidates, fnv1a, InflightGuard, Replica, RoutingPolicy};
pub use router::{
    backoff_decision, parse_retry_after, FleetReplicaReply, FleetReply, ReplicaStats, Router,
    RouterHealthReply, RouterMetrics, RouterOptions, EJECT_AFTER, PROBE_TIMEOUT, READMIT_AFTER,
    REQUEST_TIMEOUT, RETRY_ROUNDS,
};
