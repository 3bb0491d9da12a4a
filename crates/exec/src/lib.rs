//! # tdc-exec — the fleet-wide batch executor
//!
//! One worker pool shared by every serving engine in the process, replacing
//! the per-engine statically sized pools that let a hot model starve while
//! idle models held threads. Work arrives as *sources* (anything
//! implementing [`BatchSource`], e.g. one engine's batch queue); the
//! executor schedules **tokens** — lightweight dispatch rights for one
//! source — and its whole scheduling state is one plain struct behind one
//! mutex:
//!
//! * a **FIFO of tokens per QoS band** ([`QosClass::Interactive`] >
//!   [`QosClass::Standard`] > [`QosClass::Batch`]). A worker takes the head
//!   of the highest-priority non-empty band (with a periodic lowest-first
//!   sweep so `Batch` work cannot starve). A source holds at most
//!   `ceil(pending / weight)` tokens (clamped to the pool size), and a
//!   token that still has work after its quantum goes back to the *tail*
//!   of its band — deficit-round-robin between sources, so a flooded source
//!   cannot push a sibling's token arbitrarily far back;
//! * a **formation-timer heap**: sources never block a worker. A source
//!   whose next batch is still forming returns [`SourceState::NotReady`]
//!   with a poll instant, and its token parks on the heap until that
//!   instant or the source's next notify, whichever comes first;
//! * **one slot per registered source** holding its token count, parked
//!   and closed flags and counters as plain fields.
//!
//! A unit of work is a whole batch (hundreds of microseconds at least), so
//! one lock is nowhere near contended: a worker holds it to pick a token,
//! releases it to run up to `weight` batches (`weight` is the source's
//! fair-share quantum, what `RuntimeOptions::workers` became), retakes it
//! to account the outcome, and idles on a condvar *under that same lock* —
//! so a push and its wake-up can never fall between a worker's "nothing
//! queued" and its going to sleep, and a token is always in exactly one
//! place.
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//! use tdc_exec::{BatchSource, Executor, ExecutorOptions, QosClass, SourceState};
//!
//! struct Countdown(AtomicUsize);
//! impl BatchSource for Countdown {
//!     fn run_one(&self) -> SourceState {
//!         match self.0.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)) {
//!             Ok(_) => SourceState::Ran,
//!             Err(_) => SourceState::Idle,
//!         }
//!     }
//!     fn pending(&self) -> usize {
//!         self.0.load(Ordering::SeqCst)
//!     }
//! }
//!
//! let exec = Executor::new(ExecutorOptions {
//!     workers: 2,
//!     ..ExecutorOptions::default()
//! })
//! .unwrap();
//! let work = Arc::new(Countdown(AtomicUsize::new(8)));
//! let handle = exec.register("demo", 2, QosClass::Interactive, work.clone());
//! handle.notify(); // a token is queued; workers drain the source
//! while work.pending() > 0 {
//!     std::thread::sleep(std::time::Duration::from_millis(1));
//! }
//! exec.shutdown();
//! ```

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest an idle worker parks before re-checking for work; notifies and
/// due timers cut the park short.
const IDLE_PARK: Duration = Duration::from_millis(20);

/// Shortest timed park: a timer due sooner than this is waited out in full
/// rather than spun on.
const MIN_PARK: Duration = Duration::from_micros(100);

/// Every `ANTI_STARVATION_PERIOD`-th dispatch of a worker sweeps the QoS
/// bands lowest-priority-first, bounding how long `Batch` work can wait
/// behind a sustained `Interactive` flood.
const ANTI_STARVATION_PERIOD: u64 = 4;

/// Scheduling priority class of a source, chosen at registration.
///
/// Workers sweep the bands in `Interactive` → `Standard` → `Batch` order
/// (with a periodic reversed sweep for anti-starvation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QosClass {
    /// Latency-sensitive traffic; always swept first.
    Interactive,
    /// The default class.
    #[default]
    Standard,
    /// Throughput traffic that tolerates waiting behind the other classes.
    Batch,
}

impl QosClass {
    /// Every class, in band (priority) order.
    pub const ALL: [QosClass; 3] = [QosClass::Interactive, QosClass::Standard, QosClass::Batch];

    /// Index of this class's band (0 is highest priority).
    pub fn band(self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::Standard => 1,
            QosClass::Batch => 2,
        }
    }

    /// Stable wire label (`"interactive"`, `"standard"`, `"batch"`).
    pub fn label(self) -> &'static str {
        match self {
            QosClass::Interactive => "interactive",
            QosClass::Standard => "standard",
            QosClass::Batch => "batch",
        }
    }

    /// Parse a wire label back into a class.
    pub fn parse(label: &str) -> Option<QosClass> {
        match label {
            "interactive" => Some(QosClass::Interactive),
            "standard" => Some(QosClass::Standard),
            "batch" => Some(QosClass::Batch),
            _ => None,
        }
    }
}

impl std::fmt::Display for QosClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What one [`BatchSource::run_one`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceState {
    /// A batch was executed (or otherwise disposed of); the source made
    /// progress and may be polled again.
    Ran,
    /// Nothing is queued; the token is released until the next
    /// [`SourceHandle::notify`].
    Idle,
    /// Work is queued but its batch is still forming (waiting for
    /// batch-mates); poll again at `retry_at`. The executor re-arms the
    /// token on a timer instead of blocking a worker.
    NotReady {
        /// When the pending batch becomes releasable.
        retry_at: Instant,
    },
    /// The source is shut down; drop its tokens.
    Closed,
}

/// A producer of batch work the executor can drive.
///
/// `run_one` must be safe to call from any worker thread, concurrently up
/// to the source's token count, and must **never block waiting for more
/// work to arrive** — return [`SourceState::NotReady`] with a poll instant
/// instead.
pub trait BatchSource: Send + Sync {
    /// Take and execute at most one batch.
    fn run_one(&self) -> SourceState;

    /// Work items currently awaiting dispatch (for this crate's scheduling
    /// and telemetry; for a serving engine this is the request queue depth).
    ///
    /// Called with the scheduler lock held (lock order: scheduler → source
    /// queue), so it must be quick and must **not call back into the
    /// executor** — no [`SourceHandle`] or [`Executor`] method.
    fn pending(&self) -> usize;
}

/// Pool construction options.
#[derive(Debug, Clone)]
pub struct ExecutorOptions {
    /// Worker threads in the shared pool.
    pub workers: usize,
    /// Start with every worker quiesced (as if [`Executor::pause`] had been
    /// called); used by deterministic scheduling tests.
    pub start_paused: bool,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        ExecutorOptions {
            workers,
            start_paused: false,
        }
    }
}

/// Per-source telemetry snapshot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SourceMetrics {
    /// Registration label (the model name for serving engines).
    pub label: String,
    /// QoS class wire label.
    pub qos: String,
    /// Fair-share weight (batches per token dispatch).
    pub weight: usize,
    /// Work items awaiting dispatch right now.
    pub queued: usize,
    /// Token dispatches currently executing on workers.
    pub running: usize,
    /// Batches executed in total by the pool for this source.
    pub executed_batches: u64,
}

/// Per-QoS-band telemetry snapshot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BandMetrics {
    /// QoS class wire label.
    pub qos: String,
    /// Summed `pending()` of the band's sources (work items).
    pub queued: usize,
    /// Dispatch tokens currently queued in the band.
    pub tokens: usize,
}

/// Pool-wide telemetry snapshot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExecutorMetrics {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Always 0: every worker takes tokens from the same three queues, so
    /// there is nothing to steal. The field stays only because the
    /// benchmark crate still reads it; it leaves with the next benchmark
    /// change.
    pub steals_total: u64,
    /// Fraction of pool time spent dispatching since start, `0.0..=1.0`.
    pub utilization: f64,
    /// One entry per QoS band, priority order.
    pub bands: Vec<BandMetrics>,
    /// One entry per registered source.
    pub sources: Vec<SourceMetrics>,
}

/// A dispatch right for one source: the key of its [`Slot`]. Keys are never
/// reused, so a token that outlives its slot is recognisably stale.
type Token = u64;

/// One registered source's scheduling state.
struct Slot {
    label: String,
    weight: usize,
    qos: QosClass,
    source: Arc<dyn BatchSource>,
    /// Tokens in flight: queued in a band, parked on the timer, or
    /// dispatching.
    outstanding: usize,
    /// One of the outstanding tokens is parked on the formation timer; a
    /// notify or the timer firing claims it and re-queues it.
    parked: bool,
    /// The source reported [`SourceState::Closed`]: its tokens are dropped
    /// as they surface and it is never replenished.
    closed: bool,
    running: usize,
    executed: u64,
}

impl Slot {
    fn metrics(&self) -> SourceMetrics {
        SourceMetrics {
            label: self.label.clone(),
            qos: self.qos.label().to_string(),
            weight: self.weight,
            queued: self.source.pending(),
            running: self.running,
            executed_batches: self.executed,
        }
    }
}

/// What a worker needs to run one popped token with the lock released.
struct Dispatch {
    token: Token,
    source: Arc<dyn BatchSource>,
    quantum: usize,
}

impl Dispatch {
    /// Run up to `quantum` batches; returns how many ran and the state that
    /// ended the dispatch (`Ran` when the quantum was used up). Consumes the
    /// dispatch, so its hold on the source is gone before the worker retakes
    /// the lock — a source is never dropped under it.
    fn run(self) -> (u64, SourceState) {
        let mut ran = 0;
        let mut last = SourceState::Ran;
        while last == SourceState::Ran && ran < self.quantum as u64 {
            last = self.source.run_one();
            ran += u64::from(last == SourceState::Ran);
        }
        (ran, last)
    }
}

/// The whole scheduler, as plain data. Every method is an ordinary
/// `&mut self` state transition that neither blocks, spawns nor reads a
/// clock, and returns `true` when it queued a token (so the caller, which
/// holds the lock, knows to wake idle workers).
struct Sched {
    /// Queued tokens, one FIFO per QoS band.
    bands: [VecDeque<Token>; 3],
    /// Min-heap of `(poll instant, parked token)`. Entries are never
    /// removed early: one whose token a notify already claimed is stale and
    /// is skipped when it comes due.
    timers: BinaryHeap<Reverse<(Instant, Token)>>,
    slots: BTreeMap<Token, Slot>,
    next_token: Token,
    workers: usize,
    paused: bool,
    shutdown: bool,
    paused_workers: usize,
    /// Summed time workers spent dispatching.
    busy: Duration,
}

impl Sched {
    fn new(workers: usize, paused: bool) -> Sched {
        Sched {
            bands: Default::default(),
            timers: BinaryHeap::new(),
            slots: BTreeMap::new(),
            next_token: 0,
            workers,
            paused,
            shutdown: false,
            paused_workers: 0,
            busy: Duration::ZERO,
        }
    }

    fn register(
        &mut self,
        label: String,
        weight: usize,
        qos: QosClass,
        source: Arc<dyn BatchSource>,
    ) -> Token {
        let token = self.next_token;
        self.next_token += 1;
        self.slots.insert(
            token,
            Slot {
                label,
                weight,
                qos,
                source,
                outstanding: 0,
                parked: false,
                closed: false,
                running: 0,
                executed: 0,
            },
        );
        token
    }

    /// The source has (possibly) new work: claim its token off the
    /// formation timer — the forming batch may have just become full, or
    /// the queue closed — or top its token count up.
    fn notify(&mut self, token: Token) -> bool {
        let Some(slot) = self.slots.get_mut(&token) else {
            return false;
        };
        if slot.parked {
            slot.parked = false;
            self.bands[slot.qos.band()].push_back(token);
            return true;
        }
        self.replenish(token)
    }

    /// Top the source's token count up to `ceil(pending / weight)`, clamped
    /// to the pool size. New tokens join the tail of the source's own band.
    fn replenish(&mut self, token: Token) -> bool {
        let Some(slot) = self.slots.get_mut(&token) else {
            return false;
        };
        let pending = slot.source.pending();
        if pending == 0 || slot.closed {
            return false;
        }
        let target = pending.div_ceil(slot.weight).clamp(1, self.workers);
        let added = target.saturating_sub(slot.outstanding);
        slot.outstanding += added;
        self.bands[slot.qos.band()].extend(std::iter::repeat_n(token, added));
        added > 0
    }

    /// Move parked tokens whose formation timer has come due by `now` back
    /// to their band.
    fn fire_due_timers(&mut self, now: Instant) -> bool {
        let mut fired = false;
        while let Some(&Reverse((at, token))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            if let Some(slot) = self.slots.get_mut(&token).filter(|slot| slot.parked) {
                slot.parked = false;
                self.bands[slot.qos.band()].push_back(token);
                fired = true;
            }
        }
        fired
    }

    /// Take the next token for a worker that has made `dispatches`
    /// dispatches so far: the head of the highest-priority non-empty band,
    /// lowest-priority on every [`ANTI_STARVATION_PERIOD`]-th. Tokens of a
    /// removed or closed source are dropped on the way.
    fn pop(&mut self, dispatches: u64) -> Option<Dispatch> {
        let order = if dispatches % ANTI_STARVATION_PERIOD == ANTI_STARVATION_PERIOD - 1 {
            [2, 1, 0]
        } else {
            [0, 1, 2]
        };
        for band in order {
            while let Some(token) = self.bands[band].pop_front() {
                let Some(slot) = self.slots.get_mut(&token) else {
                    continue;
                };
                if slot.closed {
                    slot.outstanding -= 1;
                    continue;
                }
                slot.running += 1;
                return Some(Dispatch {
                    token,
                    source: Arc::clone(&slot.source),
                    quantum: slot.weight,
                });
            }
        }
        None
    }

    /// Account a finished dispatch — `ran` batches, then `last` ended it —
    /// and decide where its token goes: back to the band tail along with
    /// any ramp-up tokens the backlog calls for, onto the formation timer,
    /// or away.
    fn finish(&mut self, token: Token, ran: u64, last: SourceState) -> bool {
        let Some(slot) = self.slots.get_mut(&token) else {
            return false;
        };
        slot.running -= 1;
        slot.executed += ran;
        slot.closed |= last == SourceState::Closed;
        match last {
            // A forming batch needs exactly one poller: the first token to
            // see it parks on the timer, still counted in `outstanding`; a
            // sibling token that sees the same batch lets go.
            SourceState::NotReady { retry_at } if !slot.parked && !slot.closed => {
                slot.parked = true;
                self.timers.push(Reverse((retry_at, token)));
                false
            }
            SourceState::NotReady { .. } => {
                slot.outstanding -= 1;
                false
            }
            // `pending()` is read after the decrement and under the lock
            // every `notify` takes, so a push racing this dispatch is seen
            // here or by its own notify — never by neither.
            _ => {
                slot.outstanding -= 1;
                self.replenish(token)
            }
        }
    }

    fn next_timer_at(&self) -> Option<Instant> {
        self.timers.peek().map(|Reverse((at, _))| *at)
    }
}

struct Shared {
    sched: Mutex<Sched>,
    /// Workers wait here — under `sched`'s lock — for a token, a due timer,
    /// resume or shutdown.
    work: Condvar,
    /// [`Executor::pause`] waits here for every worker to quiesce.
    quiesced: Condvar,
    started_at: Instant,
}

impl Shared {
    /// A worker panicking inside a source never holds this lock (sources
    /// run with it released), so a poisoned guard still holds valid state.
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut dispatches: u64 = 0;
    let mut sched = shared.lock();
    loop {
        if sched.shutdown {
            return;
        }
        if sched.paused {
            sched.paused_workers += 1;
            shared.quiesced.notify_all();
            while sched.paused && !sched.shutdown {
                sched = shared.work.wait(sched).unwrap_or_else(|e| e.into_inner());
            }
            sched.paused_workers -= 1;
            continue;
        }
        let now = Instant::now();
        if sched.fire_due_timers(now) {
            shared.work.notify_all();
        }
        let Some(job) = sched.pop(dispatches) else {
            let timeout = sched
                .next_timer_at()
                .map_or(IDLE_PARK, |at| at.saturating_duration_since(now))
                .clamp(MIN_PARK, IDLE_PARK);
            sched = shared
                .work
                .wait_timeout(sched, timeout)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            continue;
        };
        dispatches += 1;
        drop(sched);
        let token = job.token;
        let started = Instant::now();
        let (ran, last) = job.run();
        let busy = started.elapsed();
        sched = shared.lock();
        sched.busy += busy;
        if sched.finish(token, ran, last) {
            shared.work.notify_all();
        }
    }
}

/// The shared worker pool. See the crate docs for the scheduling model.
pub struct Executor {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Executor {
    /// Spawn the pool. Fails only if a worker thread cannot be spawned.
    pub fn new(options: ExecutorOptions) -> std::io::Result<Executor> {
        let workers = options.workers.max(1);
        let executor = Executor {
            shared: Arc::new(Shared {
                sched: Mutex::new(Sched::new(workers, options.start_paused)),
                work: Condvar::new(),
                quiesced: Condvar::new(),
                started_at: Instant::now(),
            }),
            handles: Mutex::new(Vec::with_capacity(workers)),
        };
        for index in 0..workers {
            let shared = Arc::clone(&executor.shared);
            // On failure `executor` drops here, which stops and joins the
            // workers already running.
            let handle = std::thread::Builder::new()
                .name(format!("tdc-exec-worker-{index}"))
                .spawn(move || worker_loop(shared))?;
            executor
                .handles
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(handle);
        }
        Ok(executor)
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.shared.lock().workers
    }

    /// Register a source under `label` with fair-share `weight` (batches
    /// per token dispatch) and QoS class. The returned handle is the
    /// source's scheduling interface; dropping it deregisters the source.
    pub fn register(
        &self,
        label: impl Into<String>,
        weight: usize,
        qos: QosClass,
        source: Arc<dyn BatchSource>,
    ) -> SourceHandle {
        let weight = weight.max(1);
        let token = self
            .shared
            .lock()
            .register(label.into(), weight, qos, source);
        SourceHandle {
            shared: Arc::clone(&self.shared),
            token,
            qos,
            weight,
        }
    }

    /// Quiesce the pool: every worker finishes its current dispatch and
    /// parks; queued tokens stay queued. Returns once all workers are
    /// parked. Used by deterministic scheduling tests.
    pub fn pause(&self) {
        let mut sched = self.shared.lock();
        sched.paused = true;
        self.shared.work.notify_all();
        while sched.paused_workers < sched.workers && !sched.shutdown {
            sched = self
                .shared
                .quiesced
                .wait(sched)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Restart a paused pool.
    pub fn resume(&self) {
        self.shared.lock().paused = false;
        self.shared.work.notify_all();
    }

    /// Pool-wide telemetry snapshot.
    pub fn metrics(&self) -> ExecutorMetrics {
        let sched = self.shared.lock();
        let mut bands: Vec<BandMetrics> = QosClass::ALL
            .iter()
            .map(|qos| BandMetrics {
                qos: qos.label().to_string(),
                queued: 0,
                tokens: sched.bands[qos.band()].len(),
            })
            .collect();
        let sources: Vec<SourceMetrics> = sched
            .slots
            .values()
            .map(|slot| {
                let metrics = slot.metrics();
                bands[slot.qos.band()].queued += metrics.queued;
                metrics
            })
            .collect();
        let pool_secs = self.shared.started_at.elapsed().as_secs_f64() * sched.workers as f64;
        ExecutorMetrics {
            workers: sched.workers,
            steals_total: 0,
            utilization: if pool_secs > 0.0 {
                (sched.busy.as_secs_f64() / pool_secs).clamp(0.0, 1.0)
            } else {
                0.0
            },
            bands,
            sources,
        }
    }

    /// Stop and join every worker. Idempotent; sources should be drained
    /// first (any still-queued tokens are dropped).
    pub fn shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        self.shared.quiesced.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One registered source's scheduling interface: notify on new work, query
/// counters. Dropping the handle deregisters the source (its queued tokens
/// are discarded as workers encounter them).
pub struct SourceHandle {
    shared: Arc<Shared>,
    token: Token,
    qos: QosClass,
    weight: usize,
}

impl SourceHandle {
    /// Tell the pool the source has (possibly) new work: unparks a token
    /// waiting on the formation timer, or tops the token count up toward
    /// the source's backlog-proportional target. Call after every enqueue
    /// — and after closing the source's queue, so drains are dispatched
    /// promptly.
    pub fn notify(&self) {
        if self.shared.lock().notify(self.token) {
            self.shared.work.notify_all();
        }
    }

    /// QoS class the source registered under.
    pub fn qos(&self) -> QosClass {
        self.qos
    }

    /// Fair-share weight the source registered under.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// Batches executed in total.
    pub fn executed_batches(&self) -> u64 {
        self.shared.lock().slots[&self.token].executed
    }

    /// Token dispatches currently executing.
    pub fn running(&self) -> usize {
        self.shared.lock().slots[&self.token].running
    }

    /// Telemetry snapshot for this source.
    pub fn metrics(&self) -> SourceMetrics {
        self.shared.lock().slots[&self.token].metrics()
    }
}

impl Drop for SourceHandle {
    fn drop(&mut self) {
        // Bound, so the slot (and with it possibly the source) is dropped
        // after the lock is released.
        let _slot = self.shared.lock().slots.remove(&self.token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        mutex.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A source that pops closures off a queue; `NotReady`/`Closed` can be
    /// scripted by the closure return.
    struct ScriptSource {
        queue: Mutex<std::collections::VecDeque<Box<dyn FnOnce() -> SourceState + Send>>>,
        closed: AtomicBool,
    }

    impl ScriptSource {
        fn new() -> Self {
            ScriptSource {
                queue: Mutex::new(std::collections::VecDeque::new()),
                closed: AtomicBool::new(false),
            }
        }

        fn push(&self, step: impl FnOnce() -> SourceState + Send + 'static) {
            lock(&self.queue).push_back(Box::new(step));
        }
    }

    impl BatchSource for ScriptSource {
        fn run_one(&self) -> SourceState {
            if self.closed.load(Ordering::Acquire) {
                return SourceState::Closed;
            }
            match lock(&self.queue).pop_front() {
                Some(step) => step(),
                None => SourceState::Idle,
            }
        }
        fn pending(&self) -> usize {
            lock(&self.queue).len()
        }
    }

    fn wait_until(deadline_ms: u64, mut done: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_millis(deadline_ms);
        while Instant::now() < deadline {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        done()
    }

    #[test]
    fn drains_multiple_sources_completely() {
        let exec = Executor::new(ExecutorOptions {
            workers: 3,
            ..ExecutorOptions::default()
        })
        .unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        let sources: Vec<_> = (0..3)
            .map(|i| {
                let src = Arc::new(ScriptSource::new());
                for _ in 0..20 {
                    let counter = Arc::clone(&counter);
                    src.push(move || {
                        counter.fetch_add(1, Ordering::SeqCst);
                        SourceState::Ran
                    });
                }
                let handle = exec.register(
                    format!("src-{i}"),
                    1 + i,
                    QosClass::ALL[i],
                    src.clone() as Arc<dyn BatchSource>,
                );
                handle.notify();
                (src, handle)
            })
            .collect();
        assert!(
            wait_until(5000, || counter.load(Ordering::SeqCst) == 60),
            "all 60 batches must run, got {}",
            counter.load(Ordering::SeqCst)
        );
        let executed: u64 = sources.iter().map(|(_, h)| h.executed_batches()).sum();
        assert_eq!(executed, 60);
        let m = exec.metrics();
        assert_eq!(m.workers, 3);
        assert_eq!(m.sources.len(), 3);
        assert!(m.utilization >= 0.0 && m.utilization <= 1.0);
        assert!(m.bands.iter().all(|b| b.queued == 0));
        exec.shutdown();
    }

    #[test]
    fn weighted_round_robin_interleaves_a_flood_with_a_sibling() {
        // One worker, paused while the queues fill:
        // dispatch order is then purely the scheduler's, so the assertion
        // is deterministic.
        let exec = Executor::new(ExecutorOptions {
            workers: 1,
            start_paused: true,
        })
        .unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let make = |tag: char, n: usize| {
            let src = Arc::new(ScriptSource::new());
            for _ in 0..n {
                let order = Arc::clone(&order);
                src.push(move || {
                    lock(&order).push(tag);
                    SourceState::Ran
                });
            }
            src
        };
        let flood = make('a', 6);
        let sibling = make('b', 2);
        let flood_handle = exec.register(
            "flood",
            1,
            QosClass::Standard,
            flood.clone() as Arc<dyn BatchSource>,
        );
        let sibling_handle = exec.register(
            "sibling",
            1,
            QosClass::Standard,
            sibling.clone() as Arc<dyn BatchSource>,
        );
        flood_handle.notify();
        sibling_handle.notify();
        exec.resume();
        assert!(wait_until(5000, || lock(&order).len() == 8));
        let observed: String = lock(&order).iter().collect();
        // Tokens alternate off the band tail: the sibling's two batches run
        // at positions 2 and 4, not behind the whole flood.
        assert_eq!(observed, "ababaaaa");
        exec.shutdown();
    }

    #[test]
    fn qos_bands_are_swept_in_priority_order() {
        let exec = Executor::new(ExecutorOptions {
            workers: 1,
            start_paused: true,
        })
        .unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let make = |tag: char| {
            let src = Arc::new(ScriptSource::new());
            let order = Arc::clone(&order);
            src.push(move || {
                lock(&order).push(tag);
                SourceState::Ran
            });
            src
        };
        let batch = make('b');
        let interactive = make('i');
        // Batch-class work is enqueued *first*…
        let batch_handle = exec.register(
            "bulk",
            1,
            QosClass::Batch,
            batch.clone() as Arc<dyn BatchSource>,
        );
        batch_handle.notify();
        let interactive_handle = exec.register(
            "hot",
            1,
            QosClass::Interactive,
            interactive.clone() as Arc<dyn BatchSource>,
        );
        interactive_handle.notify();
        exec.resume();
        assert!(wait_until(5000, || lock(&order).len() == 2));
        // …but the interactive band is swept first.
        assert_eq!(*lock(&order), vec!['i', 'b']);
        exec.shutdown();
    }

    #[test]
    fn formation_timer_re_polls_a_not_ready_source() {
        let exec = Executor::new(ExecutorOptions {
            workers: 1,
            ..ExecutorOptions::default()
        })
        .unwrap();
        let src = Arc::new(ScriptSource::new());
        let ran = Arc::new(AtomicBool::new(false));
        {
            let ran = Arc::clone(&ran);
            src.push(move || {
                ran.store(true, Ordering::SeqCst);
                SourceState::Ran
            });
        }
        // First poll reports the batch still forming for 20 ms; the
        // executor must come back on its own, with no further notify.
        let retry_at = Instant::now() + Duration::from_millis(20);
        let not_ready_seen = Arc::new(AtomicBool::new(false));
        let handle = {
            struct Gated {
                inner: Arc<ScriptSource>,
                retry_at: Instant,
                armed: AtomicBool,
                seen: Arc<AtomicBool>,
            }
            impl BatchSource for Gated {
                fn run_one(&self) -> SourceState {
                    if self
                        .armed
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.seen.store(true, Ordering::SeqCst);
                        return SourceState::NotReady {
                            retry_at: self.retry_at,
                        };
                    }
                    self.inner.run_one()
                }
                fn pending(&self) -> usize {
                    self.inner.pending()
                }
            }
            exec.register(
                "gated",
                1,
                QosClass::Standard,
                Arc::new(Gated {
                    inner: src.clone(),
                    retry_at,
                    armed: AtomicBool::new(false),
                    seen: Arc::clone(&not_ready_seen),
                }) as Arc<dyn BatchSource>,
            )
        };
        handle.notify();
        assert!(wait_until(5000, || ran.load(Ordering::SeqCst)));
        assert!(not_ready_seen.load(Ordering::SeqCst));
        assert!(
            Instant::now() >= retry_at,
            "the batch ran only after the timer"
        );
        exec.shutdown();
    }

    #[test]
    fn dropping_the_handle_deregisters_and_discards_tokens() {
        let exec = Executor::new(ExecutorOptions {
            workers: 1,
            start_paused: true,
        })
        .unwrap();
        let src = Arc::new(ScriptSource::new());
        src.push(|| SourceState::Ran);
        let handle = exec.register(
            "gone",
            1,
            QosClass::Standard,
            src.clone() as Arc<dyn BatchSource>,
        );
        handle.notify();
        drop(handle);
        assert_eq!(exec.metrics().sources.len(), 0);
        exec.resume();
        // The queued token is discarded: the work never runs.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(src.pending(), 1);
        exec.shutdown();
    }

    #[test]
    fn pause_quiesces_until_resume() {
        let exec = Executor::new(ExecutorOptions {
            workers: 2,
            ..ExecutorOptions::default()
        })
        .unwrap();
        exec.pause();
        let src = Arc::new(ScriptSource::new());
        let ran = Arc::new(AtomicBool::new(false));
        {
            let ran = Arc::clone(&ran);
            src.push(move || {
                ran.store(true, Ordering::SeqCst);
                SourceState::Ran
            });
        }
        let handle = exec.register(
            "paused",
            1,
            QosClass::Standard,
            src.clone() as Arc<dyn BatchSource>,
        );
        handle.notify();
        std::thread::sleep(Duration::from_millis(30));
        assert!(!ran.load(Ordering::SeqCst), "paused pool must not dispatch");
        exec.resume();
        assert!(wait_until(5000, || ran.load(Ordering::SeqCst)));
        exec.shutdown();
    }

    #[test]
    fn qos_class_labels_round_trip() {
        for qos in QosClass::ALL {
            assert_eq!(QosClass::parse(qos.label()), Some(qos));
            assert_eq!(qos.to_string(), qos.label());
        }
        assert_eq!(QosClass::parse("bogus"), None);
        assert_eq!(QosClass::default(), QosClass::Standard);
        assert!(QosClass::Interactive.band() < QosClass::Batch.band());
    }

    /// A [`ScriptSource`] of `items` plain batches registered straight on a
    /// [`Sched`]: the policy tests below need no executor, threads or sleeps.
    fn backlog(
        sched: &mut Sched,
        items: usize,
        weight: usize,
        qos: QosClass,
    ) -> (Token, Arc<ScriptSource>) {
        let source = Arc::new(ScriptSource::new());
        (0..items).for_each(|_| source.push(|| SourceState::Ran));
        let token = sched.register(String::new(), weight, qos, source.clone());
        (token, source)
    }

    /// One worker's loop without the thread: pop, run, finish until nothing
    /// is queued. Returns one tag (indexed by token) per batch run.
    fn drain(sched: &mut Sched, tags: &[char]) -> String {
        let mut order = String::new();
        let mut dispatches = 0;
        while let Some(job) = sched.pop(dispatches) {
            dispatches += 1;
            let token = job.token;
            let (ran, last) = job.run();
            order.extend(std::iter::repeat_n(tags[token as usize], ran as usize));
            sched.finish(token, ran, last);
        }
        order
    }

    #[test]
    fn sched_round_robins_a_flood_with_its_sibling() {
        let mut sched = Sched::new(1, false);
        let (flood, _) = backlog(&mut sched, 6, 1, QosClass::Standard);
        let (sibling, _) = backlog(&mut sched, 2, 1, QosClass::Standard);
        assert!(sched.notify(flood));
        assert!(sched.notify(sibling));
        assert_eq!(drain(&mut sched, &['a', 'b']), "ababaaaa");
    }

    #[test]
    fn sched_sweeps_bands_highest_first_and_lowest_first_every_fourth_dispatch() {
        let mut sched = Sched::new(1, false);
        let (bulk, _) = backlog(&mut sched, 2, 1, QosClass::Batch);
        let (standard, _) = backlog(&mut sched, 2, 1, QosClass::Standard);
        let (hot, _) = backlog(&mut sched, 4, 1, QosClass::Interactive);
        // Lowest band notified first: queueing order must not matter.
        for token in [bulk, standard, hot] {
            assert!(sched.notify(token));
        }
        // Dispatches 3 and 7 are the reversed sweeps.
        assert_eq!(drain(&mut sched, &['b', 's', 'i']), "iiibissb");
    }

    #[test]
    fn sched_bounds_tokens_by_backlog_over_weight_and_by_the_pool_size() {
        let mut sched = Sched::new(3, false);
        let (token, source) = backlog(&mut sched, 7, 2, QosClass::Standard);
        // ceil(7 / 2) = 4 tokens wanted, 3 workers: 3 tokens, never more.
        assert!(sched.notify(token));
        assert!(!sched.notify(token));
        assert_eq!(sched.bands[1].len(), 3);
        // A dispatch that leaves backlog behind puts exactly its own token back.
        let job = sched.pop(0).unwrap();
        assert_eq!(job.run(), (2, SourceState::Ran));
        assert!(sched.finish(token, 2, SourceState::Ran));
        assert_eq!(sched.slots[&token].outstanding, 3);
        // As the backlog shrinks the bound follows it down to nothing.
        assert_eq!(drain(&mut sched, &['x']), "xxxxx");
        assert_eq!(source.pending(), 0);
        assert_eq!(sched.slots[&token].outstanding, 0);
    }

    #[test]
    fn sched_parks_one_poller_per_forming_batch() {
        let mut sched = Sched::new(2, false);
        let (token, _) = backlog(&mut sched, 2, 1, QosClass::Standard);
        assert!(sched.notify(token));
        let (first, second) = (sched.pop(0).unwrap(), sched.pop(0).unwrap());
        let t0 = Instant::now();
        let at = |ms| t0 + Duration::from_millis(ms);
        let not_ready = |ms| SourceState::NotReady { retry_at: at(ms) };
        // The first token to see the forming batch parks, keeping its slot…
        assert!(!sched.finish(first.token, 0, not_ready(5)));
        assert!(sched.slots[&token].parked);
        assert_eq!(sched.slots[&token].outstanding, 2);
        // …its sibling lets go.
        assert!(!sched.finish(second.token, 0, not_ready(5)));
        assert_eq!(sched.slots[&token].outstanding, 1);
        assert!(sched.bands[1].is_empty());
        // A notify claims the parked token rather than minting another…
        assert!(sched.notify(token));
        assert!(!sched.slots[&token].parked);
        assert_eq!(
            (sched.slots[&token].outstanding, sched.bands[1].len()),
            (1, 1)
        );
        // …and the heap entry it left behind is skipped when it comes due.
        assert!(!sched.fire_due_timers(at(6)));
        assert!(sched.timers.is_empty());
        assert_eq!(sched.bands[1].len(), 1);
        // Left alone, a parked token comes back exactly when its timer is due.
        let job = sched.pop(0).unwrap();
        assert!(!sched.finish(job.token, 0, not_ready(10)));
        assert!(!sched.fire_due_timers(at(9)));
        assert!(sched.bands[1].is_empty());
        assert!(sched.fire_due_timers(at(10)));
        assert_eq!(
            (sched.slots[&token].outstanding, sched.bands[1].len()),
            (1, 1)
        );
    }

    #[test]
    fn sched_queues_ramp_up_tokens_in_their_own_band_ahead_of_lower_bands() {
        let mut sched = Sched::new(2, false);
        let (hot, hot_source) = backlog(&mut sched, 1, 1, QosClass::Interactive);
        let (bulk, _) = backlog(&mut sched, 4, 1, QosClass::Batch);
        assert!(sched.notify(hot));
        assert!(sched.notify(bulk));
        let job = sched.pop(0).unwrap();
        assert_eq!((job.token, job.run()), (hot, (1, SourceState::Ran)));
        // Three more items arrived while the batch ran (their notifies are
        // still waiting for the lock this finish holds): the dispatch hands
        // back two tokens, and both outrank the queued batch-class tokens.
        (0..3).for_each(|_| hot_source.push(|| SourceState::Ran));
        assert!(sched.finish(hot, 1, SourceState::Ran));
        assert_eq!((sched.bands[0].len(), sched.bands[2].len()), (2, 2));
        let next: Vec<Token> = (1..=3).map(|d| sched.pop(d).unwrap().token).collect();
        assert_eq!(next, [hot, hot, bulk]);
    }

    #[test]
    fn sched_pop_drops_the_tokens_of_a_removed_slot() {
        let mut sched = Sched::new(2, false);
        let (gone, _) = backlog(&mut sched, 2, 1, QosClass::Standard);
        let (kept, _) = backlog(&mut sched, 1, 1, QosClass::Standard);
        assert!(sched.notify(gone));
        assert!(sched.notify(kept));
        assert_eq!(sched.bands[1].len(), 3);
        sched.slots.remove(&gone); // what dropping the handle does
        assert_eq!(sched.pop(0).unwrap().token, kept);
        assert!(sched.bands[1].is_empty());
        assert!(!sched.notify(gone), "a stale token mints nothing");
    }

    #[test]
    fn stress_every_item_runs_once_and_no_token_is_lost_leaked_or_stranded() {
        const ITEMS: usize = 10_000;
        const PRODUCERS: usize = 4;
        for round in 0..20 {
            let exec = Executor::new(ExecutorOptions {
                workers: 4,
                ..ExecutorOptions::default()
            })
            .unwrap();
            let seen: Arc<Vec<AtomicUsize>> =
                Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect());
            let sources: Vec<(Arc<ScriptSource>, SourceHandle)> = QosClass::ALL
                .iter()
                .enumerate()
                .map(|(i, &qos)| {
                    let source = Arc::new(ScriptSource::new());
                    let handle = exec.register(format!("s{i}"), 1 + i, qos, source.clone());
                    (source, handle)
                })
                .collect();
            std::thread::scope(|scope| {
                for producer in 0..PRODUCERS {
                    let (sources, seen) = (&sources, &seen);
                    scope.spawn(move || {
                        for item in (producer..ITEMS).step_by(PRODUCERS) {
                            let (source, handle) = &sources[item % sources.len()];
                            if item % 64 == 63 {
                                // A batch "still forming": the formation
                                // timer and notify-claims-the-parked-token
                                // are in the mix.
                                source.push(|| SourceState::NotReady {
                                    retry_at: Instant::now() + Duration::from_micros(200),
                                });
                            }
                            let seen = Arc::clone(seen);
                            source.push(move || {
                                seen[item].fetch_add(1, Ordering::SeqCst);
                                SourceState::Ran
                            });
                            handle.notify();
                        }
                    });
                }
            });
            // Nothing notifies from here on: whatever is still queued must
            // already have a token that reaches a worker. A lost wake-up or
            // a stranded token leaves `pending` above 0 for good; a leaked
            // one leaves `outstanding` there.
            let idle = || {
                let sched = exec.shared.lock();
                sched.bands.iter().all(|band| band.is_empty())
                    && sched.slots.values().all(|slot| {
                        slot.outstanding == 0 && slot.running == 0 && slot.source.pending() == 0
                    })
            };
            assert!(wait_until(10_000, idle), "round {round}: pool never idled");
            let ran_once = seen.iter().all(|n| n.load(Ordering::SeqCst) == 1);
            assert!(ran_once, "round {round}: an item ran twice or never");
            let executed: u64 = sources.iter().map(|(_, h)| h.executed_batches()).sum();
            assert_eq!(executed, ITEMS as u64, "round {round}");
            exec.shutdown();
        }
    }
}
