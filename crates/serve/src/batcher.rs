//! The request queue and dynamic batcher.
//!
//! Requests enter a FIFO protected by a mutex. The executor's workers poll
//! it for *batches* through [`BatchQueue::try_next_batch`] and never block
//! in here: a batch is handed out once `max_batch_size` requests are queued
//! or the **oldest** queued request has been waiting `max_batch_delay`;
//! until then the poll reports when to come back and the executor parks the
//! dispatch token on a timer. Small batches therefore cost at most the
//! configured delay in added latency, while bursts immediately fill whole
//! batches with no waiting — the standard dynamic-batching contract of
//! serving systems.
//!
//! Requests may carry a **deadline**. The batcher enforces it twice:
//!
//! * **batch assembly** — a forming batch never waits past the earliest
//!   deadline among the requests it would dispatch, so one urgent request
//!   releases the batch instead of idling out the full delay. When the
//!   engine has published an **execution-time estimate** (the backend's
//!   full-batch `latency_report`, see
//!   [`BatchQueue::set_exec_estimate`]), the release is pulled further in
//!   to `deadline − estimated_exec_time`: the batch ships while there is
//!   still time to *run* it, so a deadline bounds the answer, not merely
//!   the dequeue — deadline enforcement and batch-delay tuning share one
//!   latency model;
//! * **dequeue** — requests whose deadline has already passed are split out
//!   of the dispatched batch ([`DequeuedBatch::expired`]) before any executor
//!   work is spent on them. The worker answers them with
//!   [`ServeError::DeadlineExceeded`](crate::ServeError)
//!   and runs only the live remainder.
//!
//! (The third checkpoint — delivery — lives in the worker loop: a response
//! finishing after its request's deadline is replaced by the typed error.)
//!
//! Shutdown is graceful by construction: closing the queue stops new
//! submissions and releases whatever is queued at once, and
//! [`BatchQueue::try_next_batch`] keeps handing out queued requests until
//! the FIFO is drained; only then does it report [`TryBatch::Closed`].
//!
//! Admission is bounded: the queue holds at most `max_queue_depth` requests,
//! and a push beyond the bound fails with [`ServeError::Overloaded`] instead
//! of growing the FIFO without limit. A service under sustained overload
//! therefore sheds load at the front door with a typed, retryable rejection
//! while requests already admitted keep their bounded batching delay.

use crate::{Result, ServeError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tdc_tensor::Tensor;

/// One queued inference request.
pub struct InferenceRequest {
    /// Caller-assigned id, echoed in the response.
    pub id: u64,
    /// HWC input sample.
    pub input: Tensor,
    /// When the request entered the queue.
    pub enqueued_at: Instant,
    /// Absolute point after which the request must not be served. `None`
    /// disables deadline enforcement for this request.
    pub deadline: Option<Instant>,
    /// Where the worker sends the response (or the typed error when the
    /// deadline expired before delivery).
    pub responder: Sender<Result<InferenceResponse>>,
}

impl InferenceRequest {
    /// Whether the deadline has passed as of `now`.
    pub fn expired_at(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|deadline| now >= deadline)
    }
}

/// The answer to one request.
#[derive(Debug, Clone)]
pub struct InferenceResponse {
    /// Id echoed from the request.
    pub id: u64,
    /// Output logits.
    pub output: Tensor,
    /// Time spent waiting in the queue (including batching delay), ms.
    pub queue_ms: f64,
    /// Time spent in the executor for this request's batch, ms.
    pub exec_ms: f64,
    /// Size of the batch this request rode in.
    pub batch_size: usize,
    /// Predicted GPU latency for the whole batch on the planned device, ms
    /// (from `tdc::inference`, per-sample latency × batch size).
    pub predicted_gpu_batch_ms: f64,
    /// Simulated GPU latency for the whole batch as measured by the execution
    /// backend's simulator, ms — `0.0` on backends that do not simulate
    /// (e.g. the CPU backend).
    pub simulated_gpu_batch_ms: f64,
}

impl InferenceResponse {
    /// Queue wait plus execution — the end-to-end service latency, ms.
    pub fn total_ms(&self) -> f64 {
        self.queue_ms + self.exec_ms
    }
}

/// One dequeued dispatch: the requests to execute, plus the requests whose
/// deadline passed while they were queued. Expired requests are separated
/// *before* the executor runs so no backend work is wasted on them; the
/// worker answers each with a typed
/// [`ServeError::DeadlineExceeded`](crate::ServeError).
/// At least one of the two sets is non-empty.
pub struct DequeuedBatch {
    /// Requests still inside their deadline (or without one), in FIFO order.
    pub live: Vec<InferenceRequest>,
    /// Requests that expired while queued, in FIFO order.
    pub expired: Vec<InferenceRequest>,
}

/// Outcome of [`BatchQueue::try_next_batch`], the queue's one dequeue
/// method (executor workers must never park inside the batcher).
pub enum TryBatch {
    /// A batch was taken (live and/or expired requests).
    Batch(DequeuedBatch),
    /// Nothing is queued; come back on the next push notification.
    Empty,
    /// Nothing is queued and the queue is closed; the source is done.
    Closed,
    /// Requests are queued but the batch is still forming (under-full and
    /// inside its release window); poll again at the contained instant.
    NotReady(Instant),
}

struct QueueState {
    fifo: VecDeque<InferenceRequest>,
    closed: bool,
}

/// The shared request queue with dynamic batch formation.
pub struct BatchQueue {
    state: Mutex<QueueState>,
    /// Notified whenever a dispatch empties the FIFO — what
    /// [`BatchQueue::wait_drained`] blocks on during a graceful retire.
    drained: Condvar,
    max_batch_size: usize,
    max_batch_delay: Duration,
    max_queue_depth: usize,
    /// Estimated execution time of a full batch, nanoseconds. Zero (the
    /// default) disables deadline-aware early release and reproduces the
    /// plain release-at-deadline behavior.
    exec_estimate_ns: AtomicU64,
    /// Dispatches whose release was pulled in to `deadline − est_exec`
    /// while the delay horizon had not yet passed — deadline-aware *early*
    /// releases (plain deadline expiries are not counted).
    early_releases: AtomicU64,
}

/// The release verdict for the currently forming batch: when it must ship,
/// whether a member deadline (minus the execution estimate) pulled that
/// instant in, and the plain delay horizon it was pulled from.
struct ReleaseVerdict {
    at: Instant,
    deadline_pulled: bool,
    delay_horizon: Instant,
}

impl BatchQueue {
    /// Create a queue forming batches of up to `max_batch_size` requests,
    /// holding the oldest request at most `max_batch_delay`, and admitting at
    /// most `max_queue_depth` undispatched requests (`usize::MAX` disables
    /// the bound).
    pub fn new(max_batch_size: usize, max_batch_delay: Duration, max_queue_depth: usize) -> Self {
        BatchQueue {
            state: Mutex::new(QueueState {
                fifo: VecDeque::new(),
                closed: false,
            }),
            drained: Condvar::new(),
            max_batch_size: max_batch_size.max(1),
            max_batch_delay,
            max_queue_depth: max_queue_depth.max(1),
            exec_estimate_ns: AtomicU64::new(0),
            early_releases: AtomicU64::new(0),
        }
    }

    /// Publish the estimated execution time of a full batch (typically the
    /// backend's `latency_report` at `max_batch_size`). With an estimate in
    /// place, a forming batch with a member deadline releases at
    /// `deadline − estimate` instead of at the deadline itself, so the
    /// batch ships while there is still time to execute it.
    /// [`Duration::ZERO`] disables early release.
    pub fn set_exec_estimate(&self, estimate: Duration) {
        let ns = u64::try_from(estimate.as_nanos()).unwrap_or(u64::MAX);
        self.exec_estimate_ns.store(ns, Ordering::Relaxed);
    }

    /// The published full-batch execution estimate ([`Duration::ZERO`] when
    /// early release is disabled).
    pub fn exec_estimate(&self) -> Duration {
        Duration::from_nanos(self.exec_estimate_ns.load(Ordering::Relaxed))
    }

    /// How many dispatches were released early at `deadline − est_exec`
    /// (while the plain delay horizon had not yet passed).
    pub fn early_releases(&self) -> u64 {
        self.early_releases.load(Ordering::Relaxed)
    }

    fn state(&self) -> MutexGuard<'_, QueueState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Enqueue a request. Fails with [`ServeError::Closed`] after shutdown,
    /// with [`ServeError::Overloaded`] when the queue already holds
    /// `max_queue_depth` undispatched requests, and with
    /// [`ServeError::LockPoisoned`] if a worker panicked while holding the
    /// queue lock — the submission side reports poisoning as an error instead
    /// of panicking or silently enqueueing into a wounded engine. (The drain
    /// side deliberately keeps recovering, so shutdown still empties the
    /// queue.)
    pub fn push(&self, request: InferenceRequest) -> Result<()> {
        let mut state = self.state.lock().map_err(|_| ServeError::LockPoisoned {
            what: "batch queue",
        })?;
        if state.closed {
            return Err(ServeError::Closed);
        }
        if state.fifo.len() >= self.max_queue_depth {
            return Err(ServeError::Overloaded {
                limit: self.max_queue_depth,
            });
        }
        state.fifo.push_back(request);
        Ok(())
    }

    /// Enqueue a group of requests atomically: either every request is
    /// admitted under one lock acquisition — so the group is contiguous in
    /// the FIFO and a group no larger than `max_batch_size` rides a single
    /// executor batch when the queue is otherwise idle — or none is, with
    /// the same typed errors as [`BatchQueue::push`]. A group that would
    /// exceed the remaining admission budget is rejected whole.
    pub fn push_many(&self, requests: Vec<InferenceRequest>) -> Result<()> {
        if requests.is_empty() {
            return Ok(());
        }
        let mut state = self.state.lock().map_err(|_| ServeError::LockPoisoned {
            what: "batch queue",
        })?;
        if state.closed {
            return Err(ServeError::Closed);
        }
        if state.fifo.len() + requests.len() > self.max_queue_depth {
            return Err(ServeError::Overloaded {
                limit: self.max_queue_depth,
            });
        }
        state.fifo.extend(requests);
        Ok(())
    }

    /// Number of queued (not yet dispatched) requests.
    pub fn depth(&self) -> usize {
        self.state().fifo.len()
    }

    /// Stop accepting new requests; queued ones will still be served.
    pub fn close(&self) {
        self.state().closed = true;
    }

    /// Whether [`BatchQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state().closed
    }

    /// Block until every queued request has been handed to a worker (FIFO
    /// empty) or `timeout` passes; returns whether the queue drained. Used by
    /// a graceful retire after [`BatchQueue::close`]: once this returns
    /// `true`, no admitted request is still waiting for dispatch — only
    /// in-flight executor batches remain, and joining the workers (engine
    /// shutdown) bounds those. Note "drained" means *dispatched*, not
    /// *answered*.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state();
        loop {
            if state.fifo.is_empty() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = match self
                .drained
                .wait_timeout(state, deadline.saturating_duration_since(now))
            {
                Ok((guard, timeout)) => (guard, timeout),
                Err(poisoned) => poisoned.into_inner(),
            };
            state = guard;
        }
    }

    /// The instant at which the currently forming batch must release: the
    /// oldest request's enqueue time plus `max_batch_delay`, pulled earlier
    /// by any deadline among the requests that would be dispatched (the
    /// first `max_batch_size` in FIFO order) — a batch never waits past its
    /// earliest member's deadline. With a published execution estimate the
    /// deadline pull happens `est_exec` ahead of the deadline, so the batch
    /// ships with enough time left to actually run.
    fn release_verdict(&self, state: &QueueState) -> Option<ReleaseVerdict> {
        let oldest = state.fifo.front()?;
        let estimate = self.exec_estimate();
        let delay_horizon = oldest.enqueued_at + self.max_batch_delay;
        let mut release = delay_horizon;
        let mut deadline_pulled = false;
        for request in state.fifo.iter().take(self.max_batch_size) {
            if let Some(deadline) = request.deadline {
                let ship_by = if estimate.is_zero() {
                    deadline
                } else {
                    // An estimate larger than the deadline's distance into
                    // the monotonic clock means "ship immediately": fall
                    // back to the (already passed) enqueue instant.
                    deadline.checked_sub(estimate).unwrap_or(oldest.enqueued_at)
                };
                if ship_by < release {
                    release = ship_by;
                    deadline_pulled = !estimate.is_zero();
                }
            }
        }
        Some(ReleaseVerdict {
            at: release,
            deadline_pulled,
            delay_horizon,
        })
    }

    /// Count a dispatch as an early release when it ships an under-full
    /// batch on an open queue because a deadline (minus the execution
    /// estimate) pulled the release in ahead of the delay horizon.
    fn note_early_release(&self, state: &QueueState, take: usize, now: Instant) {
        if take >= self.max_batch_size || state.closed {
            return;
        }
        if let Some(verdict) = self.release_verdict(state) {
            if verdict.deadline_pulled && now < verdict.delay_horizon {
                self.early_releases.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Take the next batch without blocking: a pool worker must never park
    /// inside the batcher, so instead of waiting out batch formation this
    /// returns [`TryBatch::NotReady`] with the release instant and the
    /// executor re-polls on a timer. A full batch, a reached release
    /// instant, or a closed queue dispatches immediately. Never returns an
    /// empty dispatch, and requests whose deadline passed while queued come
    /// back in [`DequeuedBatch::expired`] instead of the live set.
    pub fn try_next_batch(&self) -> TryBatch {
        let mut state = self.state();
        if state.fifo.is_empty() {
            return if state.closed {
                TryBatch::Closed
            } else {
                TryBatch::Empty
            };
        }
        if state.fifo.len() < self.max_batch_size && !state.closed {
            if let Some(verdict) = self.release_verdict(&state) {
                if Instant::now() < verdict.at {
                    return TryBatch::NotReady(verdict.at);
                }
            }
        }
        let take = state.fifo.len().min(self.max_batch_size);
        let now = Instant::now();
        self.note_early_release(&state, take, now);
        let (expired, live): (Vec<_>, Vec<_>) = state
            .fifo
            .drain(..take)
            .partition(|request| request.expired_at(now));
        if state.fifo.is_empty() {
            // Wake a retire blocked in `wait_drained`: every admitted
            // request is now in some worker's hands.
            self.drained.notify_all();
        }
        TryBatch::Batch(DequeuedBatch { live, expired })
    }
}

/// A response handle for one submitted request.
pub struct PendingResponse {
    receiver: Receiver<Result<InferenceResponse>>,
}

impl PendingResponse {
    /// Wrap a receiver end.
    pub fn new(receiver: Receiver<Result<InferenceResponse>>) -> Self {
        PendingResponse { receiver }
    }

    /// Block until the response arrives. Fails with
    /// [`ServeError::DeadlineExceeded`] when the request's deadline passed
    /// before it could be served, and with [`ServeError::Disconnected`] if
    /// the worker dropped the request without answering (engine shutdown
    /// discarding it, or a failed batch) — the channel disconnect surfaces
    /// as a typed error, never a panic.
    pub fn wait(self) -> Result<InferenceResponse> {
        self.receiver.recv().map_err(|_| ServeError::Disconnected)?
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<InferenceResponse>> {
        self.receiver.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    fn request(id: u64) -> (InferenceRequest, Receiver<Result<InferenceResponse>>) {
        request_with_deadline(id, None)
    }

    fn request_with_deadline(
        id: u64,
        deadline: Option<Duration>,
    ) -> (InferenceRequest, Receiver<Result<InferenceResponse>>) {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let req = InferenceRequest {
            id,
            input: Tensor::zeros(vec![2, 2, 1]),
            enqueued_at: now,
            deadline: deadline.map(|d| now + d),
            responder: tx,
        };
        (req, rx)
    }

    /// Drive the queue the way an executor worker does, minus the executor:
    /// poll, and sleep a forming batch out until its release instant. `None`
    /// once the queue is closed and drained.
    fn next_batch(queue: &BatchQueue) -> Option<DequeuedBatch> {
        loop {
            match queue.try_next_batch() {
                TryBatch::Batch(batch) => return Some(batch),
                TryBatch::NotReady(at) => {
                    std::thread::sleep(at.saturating_duration_since(Instant::now()));
                }
                TryBatch::Empty => std::thread::yield_now(),
                TryBatch::Closed => return None,
            }
        }
    }

    #[test]
    fn full_batches_form_without_waiting_for_the_deadline() {
        let queue = BatchQueue::new(4, Duration::from_secs(60), usize::MAX);
        for id in 0..4 {
            queue.push(request(id).0).unwrap();
        }
        let started = Instant::now();
        let batch = next_batch(&queue).unwrap();
        assert_eq!(batch.live.len(), 4);
        assert!(batch.expired.is_empty());
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "must not wait out the delay"
        );
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn partial_batches_release_at_the_deadline() {
        let queue = BatchQueue::new(8, Duration::from_millis(30), usize::MAX);
        queue.push(request(1).0).unwrap();
        let started = Instant::now();
        let batch = next_batch(&queue).unwrap();
        assert_eq!(batch.live.len(), 1);
        let waited = started.elapsed();
        assert!(
            waited >= Duration::from_millis(15),
            "released too early: {waited:?}"
        );
    }

    #[test]
    fn oversized_backlog_splits_into_max_sized_batches() {
        let queue = BatchQueue::new(3, Duration::from_millis(5), usize::MAX);
        for id in 0..7 {
            queue.push(request(id).0).unwrap();
        }
        let sizes: Vec<usize> = (0..3)
            .map(|_| next_batch(&queue).unwrap().live.len())
            .collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn pushes_beyond_the_admission_bound_are_rejected() {
        let queue = BatchQueue::new(8, Duration::from_millis(5), 2);
        queue.push(request(0).0).unwrap();
        queue.push(request(1).0).unwrap();
        let rejected = queue.push(request(2).0);
        assert!(matches!(rejected, Err(ServeError::Overloaded { limit: 2 })));
        assert_eq!(queue.depth(), 2, "the rejected request was not enqueued");
        // Draining the queue re-opens admission.
        assert_eq!(next_batch(&queue).unwrap().live.len(), 2);
        queue.push(request(3).0).unwrap();
    }

    #[test]
    fn push_many_is_all_or_nothing_under_the_admission_bound() {
        let queue = BatchQueue::new(8, Duration::from_millis(5), 4);
        queue.push(request(0).0).unwrap();
        // 1 + 4 > 4: the whole group is rejected, nothing was enqueued.
        let group: Vec<InferenceRequest> = (1..5).map(|id| request(id).0).collect();
        assert!(matches!(
            queue.push_many(group),
            Err(ServeError::Overloaded { limit: 4 })
        ));
        assert_eq!(queue.depth(), 1);
        // 1 + 3 <= 4: admitted contiguously behind the existing request.
        let group: Vec<InferenceRequest> = (1..4).map(|id| request(id).0).collect();
        queue.push_many(group).unwrap();
        assert_eq!(queue.depth(), 4);
        let ids: Vec<u64> = next_batch(&queue)
            .unwrap()
            .live
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        // The empty group is a no-op even on a closed queue.
        queue.close();
        assert!(queue.push_many(Vec::new()).is_ok());
        assert!(matches!(
            queue.push_many(vec![request(9).0]),
            Err(ServeError::Closed)
        ));
    }

    #[test]
    fn expired_requests_are_dropped_at_dequeue_and_later_live_ones_still_serve() {
        let queue = BatchQueue::new(8, Duration::from_millis(5), usize::MAX);
        // An already-expired request ahead of a live one: the dequeue splits
        // them, serving the live request in the same dispatch instead of
        // letting the dead head block it.
        let (expired, _rx) = request_with_deadline(0, Some(Duration::ZERO));
        queue.push(expired).unwrap();
        let (live, _rx2) = request_with_deadline(1, Some(Duration::from_secs(60)));
        queue.push(live).unwrap();
        let batch = next_batch(&queue).unwrap();
        assert_eq!(
            batch.expired.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0]
        );
        assert_eq!(batch.live.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1]);
        assert_eq!(queue.depth(), 0);
    }

    #[test]
    fn a_batch_never_waits_past_its_earliest_member_deadline() {
        // Formation delay of 60 s, but the queued request's deadline is
        // 20 ms out: the batch must release at the deadline, not the delay,
        // and the request — expired exactly at release — comes back in the
        // expired set without any executor work.
        let queue = BatchQueue::new(8, Duration::from_secs(60), usize::MAX);
        let (req, _rx) = request_with_deadline(7, Some(Duration::from_millis(20)));
        queue.push(req).unwrap();
        let started = Instant::now();
        let batch = next_batch(&queue).unwrap();
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(5),
            "the member deadline did not release the batch: {waited:?}"
        );
        assert!(batch.live.is_empty());
        assert_eq!(batch.expired.len(), 1);
    }

    #[test]
    fn close_drains_then_terminates() {
        let queue = Arc::new(BatchQueue::new(2, Duration::from_millis(5), usize::MAX));
        for id in 0..3 {
            queue.push(request(id).0).unwrap();
        }
        queue.close();
        assert!(queue.push(request(9).0).is_err());
        assert_eq!(next_batch(&queue).unwrap().live.len(), 2);
        assert_eq!(next_batch(&queue).unwrap().live.len(), 1);
        assert!(next_batch(&queue).is_none());
    }

    #[test]
    fn wait_drained_returns_once_every_request_is_dispatched() {
        let queue = Arc::new(BatchQueue::new(2, Duration::from_millis(1), usize::MAX));
        // Empty queue: drained immediately.
        assert!(queue.wait_drained(Duration::from_millis(1)));
        for id in 0..4 {
            queue.push(request(id).0).unwrap();
        }
        // Nobody is dequeuing: the wait must time out with work still queued.
        assert!(!queue.wait_drained(Duration::from_millis(20)));
        let drainer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                while next_batch(&queue).is_some() {
                    if queue.depth() == 0 {
                        break;
                    }
                }
            })
        };
        assert!(
            queue.wait_drained(Duration::from_secs(5)),
            "the drain notification never arrived"
        );
        assert_eq!(queue.depth(), 0);
        queue.close();
        drainer.join().unwrap();
    }

    #[test]
    fn preserves_fifo_order() {
        let queue = BatchQueue::new(8, Duration::from_millis(5), usize::MAX);
        for id in 0..5 {
            queue.push(request(id).0).unwrap();
        }
        let ids: Vec<u64> = next_batch(&queue)
            .unwrap()
            .live
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn try_next_batch_never_blocks() {
        let queue = BatchQueue::new(4, Duration::from_secs(60), usize::MAX);
        // Empty and open.
        assert!(matches!(queue.try_next_batch(), TryBatch::Empty));
        // Under-full inside the release window: not ready, with the
        // release instant (here the oldest request's 60 s delay horizon).
        let (req, _rx) = request(0);
        let enqueued_at = req.enqueued_at;
        queue.push(req).unwrap();
        match queue.try_next_batch() {
            TryBatch::NotReady(release) => {
                assert_eq!(release, enqueued_at + Duration::from_secs(60));
            }
            _ => panic!("an under-full fresh batch must report NotReady"),
        }
        assert_eq!(queue.depth(), 1, "NotReady must not consume requests");
        // A full batch dispatches immediately.
        for id in 1..4 {
            queue.push(request(id).0).unwrap();
        }
        match queue.try_next_batch() {
            TryBatch::Batch(batch) => assert_eq!(batch.live.len(), 4),
            _ => panic!("a full batch must dispatch"),
        }
        // Close: queued leftovers still dispatch, then Closed.
        queue.push(request(9).0).unwrap();
        queue.close();
        match queue.try_next_batch() {
            TryBatch::Batch(batch) => assert_eq!(batch.live.len(), 1),
            _ => panic!("a closed queue dispatches its remainder immediately"),
        }
        assert!(matches!(queue.try_next_batch(), TryBatch::Closed));
    }

    #[test]
    fn release_is_pulled_to_deadline_minus_the_exec_estimate() {
        let queue = BatchQueue::new(4, Duration::from_secs(60), usize::MAX);
        queue.set_exec_estimate(Duration::from_millis(40));
        assert_eq!(queue.exec_estimate(), Duration::from_millis(40));
        let (req, _rx) = request_with_deadline(0, Some(Duration::from_secs(30)));
        let deadline = req.deadline.unwrap();
        queue.push(req).unwrap();
        match queue.try_next_batch() {
            TryBatch::NotReady(release) => {
                assert_eq!(
                    release,
                    deadline - Duration::from_millis(40),
                    "the release must be the deadline minus the execution estimate"
                );
            }
            _ => panic!("inside the pulled window the batch is still forming"),
        }
        assert_eq!(queue.early_releases(), 0, "nothing has dispatched yet");
    }

    #[test]
    fn an_early_release_ships_live_requests_and_is_counted() {
        // The estimate covers the whole distance to the deadline, so the
        // pulled release instant is already in the past: the very next poll
        // dispatches, the request is still LIVE (its deadline has not
        // passed), and the dispatch is counted as an early release — all
        // without a single sleep.
        let queue = BatchQueue::new(4, Duration::from_secs(60), usize::MAX);
        queue.set_exec_estimate(Duration::from_secs(30));
        let (req, _rx) = request_with_deadline(0, Some(Duration::from_secs(20)));
        queue.push(req).unwrap();
        match queue.try_next_batch() {
            TryBatch::Batch(batch) => {
                assert_eq!(batch.live.len(), 1, "the request must ship live");
                assert!(batch.expired.is_empty());
            }
            _ => panic!("a pulled release in the past must dispatch immediately"),
        }
        assert_eq!(queue.early_releases(), 1);
        // Without deadlines the estimate changes nothing: still NotReady at
        // the plain delay horizon.
        let (plain, _rx2) = request(1);
        let enqueued_at = plain.enqueued_at;
        queue.push(plain).unwrap();
        match queue.try_next_batch() {
            TryBatch::NotReady(release) => {
                assert_eq!(release, enqueued_at + Duration::from_secs(60));
            }
            _ => panic!("a deadline-free batch keeps the delay horizon"),
        }
        assert_eq!(queue.early_releases(), 1, "no further early release");
    }

    #[test]
    fn try_next_batch_release_follows_the_earliest_deadline() {
        let queue = BatchQueue::new(4, Duration::from_secs(60), usize::MAX);
        let (req, _rx) = request_with_deadline(0, Some(Duration::from_millis(5)));
        let deadline = req.deadline.unwrap();
        queue.push(req).unwrap();
        match queue.try_next_batch() {
            TryBatch::NotReady(release) => {
                assert_eq!(
                    release, deadline,
                    "the poll instant must be pulled in by the deadline"
                );
            }
            _ => panic!("inside the window the batch is still forming"),
        }
        // Once the deadline passes, the same poll takes the batch and
        // splits the request out as expired.
        std::thread::sleep(Duration::from_millis(10));
        match queue.try_next_batch() {
            TryBatch::Batch(batch) => {
                assert!(batch.live.is_empty());
                assert_eq!(batch.expired.len(), 1);
            }
            _ => panic!("a passed release instant must dispatch"),
        }
    }
}
