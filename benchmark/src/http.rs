//! `http_door` and `routed`: a closed loop of two clients, each holding one
//! keep-alive connection and posting single-input JSON infer requests for
//! `svc-small` — to the HTTP door of one registry, or to a least-loaded
//! `Router` fronting two in-process replicas of it.
//!
//! The clients are the benchmark's own and deliberately well behaved (one
//! `write_all` per request, `TCP_NODELAY`, responses read by
//! `Content-Length`), so every wait that shows up is the program's. Wire,
//! JSON codec and socket waits are nearly all of a request here: an
//! HTTP-path change must show on these two workloads and a kernel change
//! must not; `routed` minus `http_door` is the router hop.

use crate::bench::{
    arena_layer, ms_between, pool_totals, Bench, Fallible, Fingerprints, Layer, Window,
};
use crate::catalog::{planning, Workload, HTTP_CLIENTS, SVC_SMALL};
use crate::host;
use crate::inputs::{self, InputPool};
use crate::probes;
use crate::spans::Spans;
use crate::stats::{median, pct};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};
use tdc_router::{Router, RouterOptions, RoutingPolicy};
use tdc_serve::http::InferReply;
use tdc_serve::{
    Executor, ExecutorOptions, HttpClient, HttpHandler, HttpServer, ModelConfig, ModelRegistry,
    PlanCache, PoolStats, RoutedResponse,
};
use tdc_tensor::Tensor;

/// Requests the repo's own `HttpClient` sends in its probe.
const CLIENT_PROBE_REQUESTS: usize = 30;
/// A client tells the stamping front door which connection is its own by
/// requesting this path followed by its number.
const MARK_PATH: &str = "/benchmark/client/";

/// A minimal, well-behaved HTTP/1.1 client: one keep-alive connection.
struct Client {
    id: usize,
    addr: SocketAddr,
    marked: bool,
    stream: TcpStream,
    buffer: Vec<u8>,
}

/// One parsed response.
struct Response {
    status: u16,
    close: bool,
    body: String,
}

impl Client {
    fn connect(id: usize, addr: SocketAddr, marked: bool) -> Fallible<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(10))))
            .map_err(|e| format!("configure the socket: {e}"))?;
        let mut client = Client {
            id,
            addr,
            marked,
            stream,
            buffer: Vec::with_capacity(4096),
        };
        if marked {
            let mark = format!(
                "GET {MARK_PATH}{id} HTTP/1.1\r\nHost: {addr}\r\nConnection: keep-alive\r\n\r\n"
            );
            let reply = client.exchange(mark.as_bytes())?;
            if reply.status != 200 {
                return Err(format!("marking the connection answered {}", reply.status));
            }
        }
        Ok(client)
    }

    /// Send one pre-rendered request in one write and read its response.
    fn exchange(&mut self, request: &[u8]) -> Fallible<Response> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("send: {e}"))?;
        let mut chunk = [0u8; 8192];
        let head_end = loop {
            if let Some(pos) = self.buffer.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed before a response head".into()),
                Ok(n) => self.buffer.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("receive: {e}")),
            }
        };
        let head = String::from_utf8_lossy(&self.buffer[..head_end]).to_string();
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|line| line.split_whitespace().nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or("response without a status")?;
        let (mut length, mut close) = (0usize, false);
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| "bad content-length")?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let body_start = head_end + 4;
        while self.buffer.len() < body_start + length {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed mid-body".into()),
                Ok(n) => self.buffer.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        let body =
            String::from_utf8_lossy(&self.buffer[body_start..body_start + length]).to_string();
        self.buffer.drain(..body_start + length);
        Ok(Response {
            status,
            close,
            body,
        })
    }

    /// [`Client::exchange`], reconnecting afterwards when the server says it
    /// closes the connection (it does every 1024 requests).
    fn post(&mut self, request: &[u8]) -> Fallible<Response> {
        let response = self.exchange(request)?;
        if response.close {
            *self = Client::connect(self.id, self.addr, self.marked)?;
        }
        Ok(response)
    }
}

/// The router's front door with a stopwatch: while `recording`, stamps the
/// start and end of every `Router::handle` call and files it under the
/// client that owns the connection.
struct Stamped {
    router: Arc<Router>,
    recording: AtomicBool,
    owners: Mutex<HashMap<ThreadId, usize>>,
    stamps: Mutex<Vec<(usize, Instant, Instant)>>,
}

impl HttpHandler for Stamped {
    fn handle(&self, method: &str, path: &str, body: &str) -> RoutedResponse {
        if let Some(client) = path.strip_prefix(MARK_PATH) {
            return match client.parse() {
                Ok(client) => {
                    // One server thread serves one connection for its whole life.
                    let mut owners = self.owners.lock().expect("owners lock");
                    owners.insert(std::thread::current().id(), client);
                    RoutedResponse::json(200, &"marked")
                }
                Err(_) => RoutedResponse::error(400, "bad client number"),
            };
        }
        if !self.recording.load(Ordering::Relaxed) {
            return self.router.handle(method, path, body);
        }
        let started = Instant::now();
        let response = self.router.handle(method, path, body);
        let ended = Instant::now();
        let owner = self
            .owners
            .lock()
            .expect("owners lock")
            .get(&std::thread::current().id())
            .copied();
        if let Some(client) = owner {
            self.stamps
                .lock()
                .expect("stamps lock")
                .push((client, started, ended));
        }
        response
    }
}

/// The serving stack under test.
enum Stack {
    /// One registry behind its HTTP door.
    Door { server: HttpServer },
    /// A router front door over two replicas.
    Fleet {
        replicas: Vec<HttpServer>,
        front: HttpServer,
        stamped: Arc<Stamped>,
    },
}

/// One verified op as its client saw it.
struct Seen {
    client: usize,
    started: Instant,
    verified: Instant,
    queue_ms: f64,
    exec_ms: f64,
    reply_bytes: usize,
    op: u64,
    /// CPU the client's own thread had used since its loop began.
    client_cpu: Duration,
}

/// What one stretch of the closed loop produced.
struct Looped<R> {
    /// Every verified op, as its client saw it.
    seen: Vec<Seen>,
    attempted: u64,
    failed: u64,
    /// Each client thread's own CPU time.
    client_cpu: Vec<Duration>,
    /// What the closure run on the calling thread returned.
    meanwhile: R,
}

/// The HTTP workloads; `ROUTED` selects `routed`.
pub struct Http<const ROUTED: bool> {
    stack: Stack,
    executor: Arc<Executor>,
    target: SocketAddr,
    pool: InputPool,
    references: Vec<Tensor>,
    requests: Vec<Vec<u8>>,
    clients: Vec<Client>,
    next_op: u64,
}

fn registry_on(executor: &Arc<Executor>) -> Fallible<Arc<ModelRegistry>> {
    let registry = ModelRegistry::with_executor(PlanCache::new(2), Arc::clone(executor));
    let config = ModelConfig {
        planning: planning(false),
        ..ModelConfig::default()
    };
    registry
        .register(SVC_SMALL.name, &SVC_SMALL.descriptor(), config)
        .map_err(|e| format!("registering {}: {e}", SVC_SMALL.name))?;
    Ok(Arc::new(registry))
}

fn bind(registry: Arc<ModelRegistry>) -> Fallible<HttpServer> {
    HttpServer::bind("127.0.0.1:0", registry).map_err(|e| format!("bind: {e}"))
}

impl<const ROUTED: bool> Http<ROUTED> {
    fn registries(&self) -> Vec<&Arc<ModelRegistry>> {
        match &self.stack {
            Stack::Door { server } => vec![server.registry()],
            Stack::Fleet { replicas, .. } => replicas.iter().map(HttpServer::registry).collect(),
        }
    }

    fn pool_stats(&self) -> PoolStats {
        let metrics: Vec<_> = self.registries().iter().map(|r| r.metrics()).collect();
        pool_totals(&metrics)
    }

    /// Run the closed loop on every client until `stop` says so (it is
    /// asked before each op with the ops that client has finished), and
    /// `meanwhile` on this thread.
    fn closed_loop<R>(
        &mut self,
        stop: impl Fn(usize) -> bool + Sync,
        meanwhile: impl FnOnce() -> R,
    ) -> Fallible<Looped<R>> {
        let (requests, references) = (&self.requests, &self.references);
        let first_op = self.next_op;
        let stride = self.clients.len();
        let (results, meanwhile) = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let stop = &stop;
                    scope.spawn(move || -> Fallible<(Vec<Seen>, u64, u64, Duration)> {
                        let cpu_started = host::thread_cpu();
                        let (mut seen, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
                        while !stop(attempted as usize) {
                            let op = first_op + attempted * stride as u64 + client.id as u64;
                            let index = op as usize % inputs::POOL_SIZE;
                            attempted += 1;
                            let started = Instant::now();
                            let response = client.post(&requests[index])?;
                            let reply = (response.status == 200)
                                .then(|| serde_json::from_str::<InferReply>(&response.body).ok())
                                .flatten()
                                .filter(|r| {
                                    inputs::same_f32_bits(&r.output, references[index].data())
                                });
                            let verified = Instant::now();
                            match reply {
                                Some(reply) => seen.push(Seen {
                                    client: client.id,
                                    started,
                                    verified,
                                    queue_ms: reply.queue_ms,
                                    exec_ms: reply.exec_ms,
                                    reply_bytes: response.body.len(),
                                    op,
                                    client_cpu: host::thread_cpu() - cpu_started,
                                }),
                                None => failed += 1,
                            }
                        }
                        Ok((seen, attempted, failed, host::thread_cpu() - cpu_started))
                    })
                })
                .collect();
            let meanwhile = meanwhile();
            let results = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| "a client thread panicked".to_string())?
                })
                .collect::<Fallible<Vec<_>>>();
            (results, meanwhile)
        });
        let mut all = Looped {
            seen: Vec::new(),
            attempted: 0,
            failed: 0,
            client_cpu: Vec::new(),
            meanwhile,
        };
        for (seen, attempted, failed, cpu) in results? {
            all.seen.extend(seen);
            all.attempted += attempted;
            all.failed += failed;
            all.client_cpu.push(cpu);
            self.next_op = self.next_op.max(first_op + attempted * stride as u64);
        }
        Ok(all)
    }
}

impl<const ROUTED: bool> Bench for Http<ROUTED> {
    fn set_up(seed: u64, notes: &mut Layer) -> Fallible<Self> {
        let pool = inputs::pool(seed, &SVC_SMALL);
        let executor = Arc::new(
            Executor::new(ExecutorOptions {
                workers: 1,
                ..ExecutorOptions::default()
            })
            .map_err(|e| format!("cannot start the executor: {e}"))?,
        );
        let started = Instant::now();
        let first = registry_on(&executor)?;
        notes.push(("registry.register_ms", ms_between(started, Instant::now())));
        notes.push(("core.tiling_selections", tdc::tiling::cache_len() as f64));
        let cache = first.cache_stats();
        notes.push(("plan_cache.hits", cache.hits() as f64));
        notes.push(("plan_cache.misses", cache.misses as f64));

        let references = {
            let engine = first.engine(SVC_SMALL.name).map_err(|e| e.to_string())?;
            pool.tensors
                .iter()
                .map(|input| engine.model().forward(input))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("reference forward: {e}"))?
        };

        let (stack, target) = if ROUTED {
            // Both replicas share the one single-worker executor.
            let second = registry_on(&executor)?;
            let replicas = vec![bind(first)?, bind(second)?];
            let addrs: Vec<SocketAddr> = replicas.iter().map(HttpServer::local_addr).collect();
            let router = Arc::new(Router::new(
                &addrs,
                RouterOptions {
                    policy: RoutingPolicy::LeastLoaded,
                    ..RouterOptions::default()
                },
            ));
            let stamped = Arc::new(Stamped {
                router,
                recording: AtomicBool::new(false),
                owners: Mutex::new(HashMap::new()),
                stamps: Mutex::new(Vec::new()),
            });
            let front = HttpServer::bind_with_handler("127.0.0.1:0", Arc::clone(&stamped) as _)
                .map_err(|e| format!("bind the router front door: {e}"))?;
            let target = front.local_addr();
            (
                Stack::Fleet {
                    replicas,
                    front,
                    stamped,
                },
                target,
            )
        } else {
            let server = bind(first)?;
            let target = server.local_addr();
            (Stack::Door { server }, target)
        };

        let path = format!("/v1/models/{}/infer", SVC_SMALL.name);
        let requests = pool
            .tensors
            .iter()
            .map(|input| {
                let body = serde_json::to_string(&tdc_serve::http::InferBody {
                    input: input.data().to_vec(),
                    dims: None,
                    deadline_ms: None,
                })
                .expect("an infer body serialises");
                format!(
                    "POST {path} HTTP/1.1\r\nHost: {target}\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            })
            .collect();
        let clients = (0..HTTP_CLIENTS)
            .map(|id| Client::connect(id, target, ROUTED))
            .collect::<Fallible<Vec<_>>>()?;

        let mut bench = Http {
            stack,
            executor,
            target,
            pool,
            references,
            requests,
            clients,
            next_op: 0,
        };
        let workload = if ROUTED {
            Workload::Routed
        } else {
            Workload::HttpDoor
        };
        let per_client = workload.warmup_ops() / HTTP_CLIENTS;
        let warmup = bench.closed_loop(|done| done >= per_client, || ())?;
        if warmup.failed > 0 {
            return Err(format!("{} warm-up requests failed", warmup.failed));
        }
        Ok(bench)
    }

    fn window(&mut self, seconds: f64, spans: Option<&mut Spans>) -> Fallible<Window> {
        let recording = spans.is_some();
        let fleet_before = match &self.stack {
            Stack::Fleet { stamped, .. } => {
                stamped.stamps.lock().expect("stamps lock").clear();
                stamped.recording.store(recording, Ordering::Relaxed);
                Some(stamped.router.metrics())
            }
            Stack::Door { .. } => None,
        };
        let pool_before = self.pool_stats();
        let cpu_before = host::process_cpu();
        let started = Instant::now();
        let until = started + Duration::from_secs_f64(seconds);
        let Looped {
            mut seen,
            attempted,
            failed,
            client_cpu,
            ..
        } = self.closed_loop(|_| Instant::now() >= until, || ())?;
        let cpu_ms = host::program_cpu_ms(host::process_cpu() - cpu_before, &client_cpu);
        let finished = seen.iter().map(|s| s.verified).max().unwrap_or(started);
        let wall_s = finished.duration_since(started).as_secs_f64();
        seen.sort_by_key(|s| s.op);

        let latencies_ms: Vec<f64> = seen
            .iter()
            .map(|s| ms_between(s.started, s.verified))
            .collect();
        let engine_ms: Vec<f64> = seen.iter().map(|s| s.queue_ms + s.exec_ms).collect();
        let outside_ms: Vec<f64> = latencies_ms
            .iter()
            .zip(&engine_ms)
            .map(|(t, e)| t - e)
            .collect();
        let of = |f: fn(&Seen) -> f64| seen.iter().map(f).collect::<Vec<f64>>();
        let ops = latencies_ms.len().max(1) as f64;
        let mut layer: Layer = vec![
            ("http.engine_ms_p50", median(&engine_ms)),
            ("http.wire_codec_ms_p50", median(&outside_ms)),
            (
                "http.wait_share",
                1.0 - (cpu_ms / ops) / median(&latencies_ms).max(f64::MIN_POSITIVE),
            ),
            ("http.request_bytes", self.requests[0].len() as f64),
            ("http.reply_bytes", median(&of(|s| s.reply_bytes as f64))),
            ("batcher.queue_ms_p50", median(&of(|s| s.queue_ms))),
            ("batcher.queue_ms_p95", pct(&of(|s| s.queue_ms), 95.0)),
            ("backend.exec_ms_p50", median(&of(|s| s.exec_ms))),
            ("backend.exec_ms_p95", pct(&of(|s| s.exec_ms), 95.0)),
        ];
        arena_layer(&pool_before, &self.pool_stats(), seen.len(), &mut layer);

        // Span trees: op → (router.handle →) http.engine. The engine's share
        // is known only as a duration (the reply's queue_ms + exec_ms), so
        // its span is drawn ending where its parent's work ends.
        let mut handles: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.clients.len()];
        if let (Stack::Fleet { stamped, .. }, Some(before)) = (&self.stack, fleet_before) {
            stamped.recording.store(false, Ordering::Relaxed);
            for (client, start, end) in stamped.stamps.lock().expect("stamps lock").drain(..) {
                handles[client].push((start, end));
            }
            let after = stamped.router.metrics();
            let forwarded: Vec<f64> = after
                .replicas
                .iter()
                .zip(&before.replicas)
                .map(|(a, b)| (a.forwarded_total - b.forwarded_total) as f64)
                .collect();
            let total: f64 = forwarded.iter().sum();
            layer.extend([
                (
                    "router.failovers",
                    (after.failovers_total - before.failovers_total) as f64,
                ),
                (
                    "router.retry_after_waits",
                    (after.retry_after_waits_total - before.retry_after_waits_total) as f64,
                ),
                (
                    "router.forward_share_max",
                    forwarded.iter().fold(0.0, |m: f64, f| m.max(*f)) / total.max(1.0),
                ),
            ]);
        }
        if let Some(spans) = spans {
            let mut own = Spans::new(started);
            let mut nth = vec![0usize; self.clients.len()];
            for (s, engine) in seen.iter().zip(&engine_ms) {
                let op = own.record("op", s.started, s.verified, None, s.op);
                let mut parent = (op, own.at(s.verified));
                // The k-th stamped call on a client's connection is its k-th op.
                if let Some(&(start, end)) = handles[s.client].get(nth[s.client]) {
                    nth[s.client] += 1;
                    parent = (
                        own.record("router.handle", start, end, Some(op), s.op),
                        own.at(end),
                    );
                }
                own.record_us(
                    "http.engine",
                    parent.1 - engine * 1e3,
                    parent.1,
                    Some(parent.0),
                    s.op,
                );
            }
            if ROUTED {
                // Self times split an op at the stamps: in front of the
                // router's handler, inside it, and behind it in the replica.
                layer.extend([
                    (
                        "router.handle_ms_p50",
                        median(&own.durations_ms("router.handle")),
                    ),
                    ("router.front_wire_ms_p50", median(&own.self_ms_of("op"))),
                    (
                        "router.back_ms_p50",
                        median(&own.self_ms_of("router.handle")),
                    ),
                ]);
            }
            spans.absorb(own);
        }

        Ok(Window {
            latencies_ms,
            attempted,
            failed,
            wall_s,
            cpu_ms,
            layer,
            fault: None,
        })
    }

    /// One continuous closed loop cut into `slices` by the clock afterwards:
    /// stopping and restarting the two clients every fraction of a second
    /// would put them in step with each other and change what the server
    /// sees. This thread samples the process CPU clock at every slice
    /// boundary; each client stamps its own thread's CPU on every op.
    fn measure(&mut self, seconds: f64, slices: usize) -> Fallible<Vec<Window>> {
        let started = Instant::now();
        let slice = Duration::from_secs_f64(seconds / slices as f64);
        let boundary = |k: usize| started + slice * k as u32;
        let until = boundary(slices);
        let Looped {
            seen,
            attempted,
            failed,
            client_cpu: client_totals,
            meanwhile: mut process_cpu,
        } = self.closed_loop(
            |_| Instant::now() >= until,
            || {
                (0..slices)
                    .map(|k| {
                        std::thread::sleep(boundary(k).saturating_duration_since(Instant::now()));
                        host::process_cpu()
                    })
                    .collect::<Vec<Duration>>()
            },
        )?;
        // The last slice runs on until the ops in flight at `until` are back.
        process_cpu.push(host::process_cpu());
        let finished = seen.iter().map(|s| s.verified).max().unwrap_or(until);

        let mut windows: Vec<Window> = (0..slices).map(|_| Window::default()).collect();
        // Per client, the CPU its thread had used by each slice boundary:
        // the stamp of its last op verified before the boundary.
        let mut client_cpu = vec![vec![Duration::ZERO; slices + 1]; self.clients.len()];
        for s in &seen {
            let k = (s.verified.saturating_duration_since(started).as_secs_f64()
                / slice.as_secs_f64()) as usize;
            let k = k.min(slices - 1);
            windows[k]
                .latencies_ms
                .push(ms_between(s.started, s.verified));
            let stamps = &mut client_cpu[s.client];
            stamps[k + 1] = stamps[k + 1].max(s.client_cpu);
        }
        for (stamps, total) in client_cpu.iter_mut().zip(&client_totals) {
            stamps[slices] = *total;
            for k in 1..slices {
                stamps[k] = stamps[k].max(stamps[k - 1]);
            }
        }
        for (k, window) in windows.iter_mut().enumerate() {
            let end = if k + 1 == slices {
                finished
            } else {
                boundary(k + 1)
            };
            window.wall_s = end.saturating_duration_since(boundary(k)).as_secs_f64();
            let clients: Vec<Duration> = client_cpu
                .iter()
                .map(|stamps| stamps[k + 1].saturating_sub(stamps[k]))
                .collect();
            window.cpu_ms =
                host::program_cpu_ms(process_cpu[k + 1].saturating_sub(process_cpu[k]), &clients);
            window.attempted = window.latencies_ms.len() as u64;
        }
        // Failed ops have no timestamp; the totals are what is reported.
        windows[0].attempted += attempted - seen.len() as u64;
        windows[0].failed = failed;
        Ok(windows)
    }

    fn probe_layers(&mut self, layer: &mut Layer) -> Fallible<()> {
        // The repo's own keep-alive client (the one the router forwards
        // with), one connection, the same request over and over.
        let body_start = self.requests[0]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("a rendered request has a head")
            + 4;
        let body = String::from_utf8_lossy(&self.requests[0][body_start..]).to_string();
        let path = format!("/v1/models/{}/infer", SVC_SMALL.name);
        let mut client =
            HttpClient::connect(&self.target).map_err(|e| format!("HttpClient::connect: {e}"))?;
        let mut samples = Vec::new();
        for _ in 0..CLIENT_PROBE_REQUESTS {
            let started = Instant::now();
            let (status, _) = client
                .request("POST", &path, Some(&body))
                .map_err(|e| format!("HttpClient::request: {e}"))?;
            samples.push(ms_between(started, Instant::now()));
            if status != 200 {
                return Err(format!("HttpClient::request answered {status}"));
            }
        }
        layer.push(("http.client_request_ms_p50", median(&samples)));

        let registries = self.registries();
        let engine = registries[0]
            .engine(SVC_SMALL.name)
            .map_err(|e| e.to_string())?;
        probes::model_layers(
            &SVC_SMALL,
            false,
            &engine.plan().clone(),
            engine.model(),
            &self.pool.tensors[0],
            layer,
        )
    }

    fn fingerprints(&self) -> Fingerprints {
        Fingerprints {
            inputs: self.pool.fingerprint,
            schedule: 0,
            outputs: inputs::output_fingerprint(&self.references),
        }
    }

    fn tear_down(self) {
        drop(self.clients);
        let servers = match self.stack {
            Stack::Door { server } => vec![server],
            Stack::Fleet {
                replicas,
                front,
                stamped,
            } => {
                front.stop();
                stamped.router.stop();
                replicas
            }
        };
        for server in servers {
            if let Ok(registry) = Arc::try_unwrap(server.shutdown()) {
                registry.shutdown();
            }
        }
        self.executor.shutdown();
    }
}
