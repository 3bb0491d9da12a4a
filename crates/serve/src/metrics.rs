//! Serving metrics: counters, latency percentiles and batch statistics.
//!
//! Latency samples are kept exactly (one `f64` per completed request) and
//! percentiles computed on demand from the sorted sample set — at serving
//! benchmark scales (thousands to low millions of requests) the exact
//! sample set is cheaper than maintaining a quantile sketch, and the
//! percentiles are precise rather than bucketed approximations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Percentile summary of one latency series, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Maximum observed.
    pub max_ms: f64,
}

impl LatencySummary {
    fn empty() -> Self {
        LatencySummary {
            count: 0,
            mean_ms: 0.0,
            p50_ms: 0.0,
            p90_ms: 0.0,
            p99_ms: 0.0,
            max_ms: 0.0,
        }
    }

    /// Summarize a sample set (order irrelevant).
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::empty();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let percentile = |p: f64| {
            // Nearest-rank on the sorted set.
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        LatencySummary {
            count: sorted.len(),
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_ms: percentile(50.0),
            p90_ms: percentile(90.0),
            p99_ms: percentile(99.0),
            max_ms: *sorted.last().expect("non-empty"),
        }
    }
}

/// Aggregated metrics for one serving engine.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServeMetrics {
    /// Identity of the execution backend that produced these metrics.
    pub backend: String,
    /// Requests admitted past the queue door
    /// ([`ServeEngine::submit`](crate::ServeEngine::submit) and friends
    /// returning `Ok`). Rejected
    /// submits (bad input, overload shed, closed queue) are *not* counted —
    /// after a drain every admitted request is accounted for exactly once:
    /// `submitted == completed + deadline_exceeded + failed`.
    pub submitted_requests: u64,
    /// Requests completed.
    pub completed_requests: u64,
    /// Requests answered with a typed
    /// [`ServeError::ExecutionFailed`](crate::ServeError) because their
    /// batch's backend execution returned an error or panicked. Like
    /// expiries, failures add **no** latency samples.
    pub failed_requests: u64,
    /// Requests that expired past their deadline without being served —
    /// dropped at dequeue before executor work, or finished past the
    /// deadline at delivery. Expired requests contribute **no** latency
    /// samples, so a flood of impossible deadlines cannot inflate the
    /// percentiles of the work that was actually served.
    pub deadline_exceeded: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batches released early at `deadline − estimated_exec_time` (the
    /// batcher's deadline-aware early release). `0` until the engine's
    /// handle fills it in from the batch queue ([`MetricsRecorder`] itself
    /// does not see the batcher).
    pub early_releases: u64,
    /// Mean requests per executed batch.
    pub mean_batch_size: f64,
    /// Largest batch executed.
    pub max_batch_size: u64,
    /// End-to-end (queue + execute) latency percentiles.
    pub total_latency: LatencySummary,
    /// Queue-wait latency percentiles.
    pub queue_latency: LatencySummary,
    /// Executor-only latency percentiles.
    pub exec_latency: LatencySummary,
    /// Sum over batches of the predicted GPU latency from `tdc::inference`
    /// (what the planned device model would have spent on this workload), ms.
    pub predicted_gpu_ms_total: f64,
    /// Sum over batches of the simulated GPU latency reported by the
    /// execution backend (wave-level simulation), ms — stays `0.0` on
    /// backends that do not simulate.
    pub simulated_gpu_ms_total: f64,
}

/// Lock-light metric recorder shared by the worker pool.
pub struct MetricsRecorder {
    backend: String,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    deadline_exceeded: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
    /// (total_ms, queue_ms, exec_ms) per completed request.
    samples: Mutex<Vec<(f64, f64, f64)>>,
    /// Predicted GPU milliseconds, accumulated as integer nanoseconds so the
    /// counter can stay atomic.
    predicted_gpu_ns: AtomicU64,
    /// Simulated GPU milliseconds (same integer-nanosecond trick).
    simulated_gpu_ns: AtomicU64,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        MetricsRecorder::new("")
    }
}

impl MetricsRecorder {
    /// A recorder tagged with the execution backend feeding it.
    pub fn new(backend: impl Into<String>) -> Self {
        MetricsRecorder {
            backend: backend.into(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            samples: Mutex::new(Vec::new()),
            predicted_gpu_ns: AtomicU64::new(0),
            simulated_gpu_ns: AtomicU64::new(0),
        }
    }

    fn samples(&self) -> MutexGuard<'_, Vec<(f64, f64, f64)>> {
        match self.samples.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Record one executed batch with the predicted and (backend-)simulated
    /// GPU latencies for the whole batch.
    pub fn record_batch(
        &self,
        batch_size: usize,
        predicted_gpu_batch_ms: f64,
        simulated_gpu_batch_ms: f64,
    ) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.max_batch
            .fetch_max(batch_size as u64, Ordering::Relaxed);
        self.predicted_gpu_ns.fetch_add(
            (predicted_gpu_batch_ms * 1e6).round() as u64,
            Ordering::Relaxed,
        );
        self.simulated_gpu_ns.fetch_add(
            (simulated_gpu_batch_ms * 1e6).round() as u64,
            Ordering::Relaxed,
        );
    }

    /// Record one completed request.
    pub fn record_request(&self, total_ms: f64, queue_ms: f64, exec_ms: f64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.samples().push((total_ms, queue_ms, exec_ms));
    }

    /// Record `count` requests admitted past the queue door, so the drain
    /// invariant `submitted == completed + deadline_exceeded + failed` can
    /// be checked against the engine's own books.
    pub fn record_submitted(&self, count: u64) {
        self.submitted.fetch_add(count, Ordering::Relaxed);
    }

    /// Record one request answered with a typed execution failure. Like
    /// expiries, failures add no latency sample.
    pub fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request expired past its deadline without being served.
    /// Deliberately adds no latency sample: expired requests must not skew
    /// the percentiles of the served traffic.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Discard everything recorded so far, starting a fresh measurement
    /// window. Lets a caller run unmeasured warmup traffic (populating
    /// buffer pools, code and page caches) and then measure steady state
    /// without the ramp skewing counters or latency percentiles.
    pub fn reset(&self) {
        self.submitted.store(0, Ordering::Relaxed);
        self.completed.store(0, Ordering::Relaxed);
        self.failed.store(0, Ordering::Relaxed);
        self.deadline_exceeded.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.max_batch.store(0, Ordering::Relaxed);
        self.samples().clear();
        self.predicted_gpu_ns.store(0, Ordering::Relaxed);
        self.simulated_gpu_ns.store(0, Ordering::Relaxed);
    }

    /// Aggregate everything recorded so far.
    pub fn snapshot(&self) -> ServeMetrics {
        let samples = self.samples().clone();
        let total: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let queue: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let exec: Vec<f64> = samples.iter().map(|s| s.2).collect();
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        ServeMetrics {
            backend: self.backend.clone(),
            submitted_requests: self.submitted.load(Ordering::Relaxed),
            completed_requests: completed,
            failed_requests: self.failed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            batches,
            early_releases: 0,
            mean_batch_size: if batches > 0 {
                completed as f64 / batches as f64
            } else {
                0.0
            },
            max_batch_size: self.max_batch.load(Ordering::Relaxed),
            total_latency: LatencySummary::from_samples(&total),
            queue_latency: LatencySummary::from_samples(&queue),
            exec_latency: LatencySummary::from_samples(&exec),
            predicted_gpu_ms_total: self.predicted_gpu_ns.load(Ordering::Relaxed) as f64 / 1e6,
            simulated_gpu_ms_total: self.simulated_gpu_ns.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_follow_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p90_ms, 90.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_and_empty_sets() {
        let s = LatencySummary::from_samples(&[2.5]);
        assert_eq!((s.p50_ms, s.p99_ms, s.max_ms), (2.5, 2.5, 2.5));
        let e = LatencySummary::from_samples(&[]);
        assert_eq!(e.count, 0);
        assert_eq!(e.max_ms, 0.0);
    }

    #[test]
    fn recorder_aggregates_batches_and_requests() {
        let rec = MetricsRecorder::new("sim-gpu");
        rec.record_submitted(4);
        rec.record_submitted(2);
        rec.record_batch(3, 0.9, 1.5);
        rec.record_batch(1, 0.3, 0.5);
        for (t, q, e) in [
            (1.0, 0.4, 0.6),
            (2.0, 1.0, 1.0),
            (3.0, 1.0, 2.0),
            (4.0, 2.0, 2.0),
        ] {
            rec.record_request(t, q, e);
        }
        rec.record_deadline_exceeded();
        rec.record_failed();
        let m = rec.snapshot();
        assert_eq!(m.backend, "sim-gpu");
        assert_eq!(m.submitted_requests, 6);
        assert_eq!(m.completed_requests, 4);
        assert_eq!(m.failed_requests, 1);
        assert_eq!(m.deadline_exceeded, 1);
        assert_eq!(
            m.submitted_requests,
            m.completed_requests + m.deadline_exceeded + m.failed_requests,
            "admitted requests reconcile after a drain"
        );
        assert_eq!(
            m.total_latency.count, 4,
            "expired requests must not add latency samples"
        );
        assert_eq!(m.batches, 2);
        assert_eq!(m.mean_batch_size, 2.0);
        assert_eq!(m.max_batch_size, 3);
        assert_eq!(m.total_latency.count, 4);
        assert!((m.predicted_gpu_ms_total - 1.2).abs() < 1e-9);
        assert!((m.simulated_gpu_ms_total - 2.0).abs() < 1e-9);
        assert_eq!(m.total_latency.max_ms, 4.0);
    }
}
