//! Size-classed f32 buffer pooling for the zero-allocation serving hot path.
//!
//! A [`BufferPool`] owns recycled `Vec<f32>` buffers grouped into
//! power-of-two size classes; a [`ScratchArena`] is the thin per-worker
//! handle the execution API threads through
//! [`crate::backend::ExecutionBackend::forward_batch`]. Once a worker has
//! processed enough requests to populate its classes, every staging buffer on
//! the CPU path — zero-padded layer inputs, Tucker intermediates, pooled
//! features, output tensors, even the parsed HTTP input — is a pool hit, and
//! steady-state serving performs **zero** per-request f32 allocations. The
//! pool's telemetry ([`PoolStats`], surfaced per engine via
//! [`crate::ServeEngine::pool_stats`] and read by the benchmark's `arena.*`
//! per-layer metrics) pins that property in tests: a warm pool shows
//! stable `allocated_buffers` / `high_water_f32` across batches.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Buffers per size class retained before further returns are dropped, for
/// classes at or above [`BIN_F32_BUDGET`]`/`[`MAX_BIN_DEPTH`] capacity.
const MAX_BIN_DEPTH: usize = 64;
/// Retained-capacity budget (in f32s) that sets the depth of *small* size
/// classes: a class may hold up to `BIN_F32_BUDGET / capacity` buffers, so
/// tiny buffers (e.g. response vectors a burst of clients consumes late) get
/// deep, cheap bins while large staging buffers stay capped at
/// [`MAX_BIN_DEPTH`]. Depth never exceeds [`MAX_SMALL_BIN_DEPTH`].
const BIN_F32_BUDGET: usize = 1 << 20;
/// Hard depth cap for the smallest classes.
const MAX_SMALL_BIN_DEPTH: usize = 1024;
/// Number of power-of-two size classes (class `i` holds capacity `2^i`).
const CLASSES: usize = usize::BITS as usize;

/// Cumulative telemetry for one [`BufferPool`]. Serializable so the
/// registry can surface every engine's arena behavior in `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct PoolStats {
    /// Fresh `Vec<f32>` allocations performed by the pool (monotonic).
    pub allocated_buffers: u64,
    /// Total f32 capacity freshly allocated by the pool (monotonic).
    pub allocated_f32: u64,
    /// Maximum f32 capacity simultaneously checked out of the pool.
    pub high_water_f32: u64,
    /// Total [`BufferPool::take`] calls (monotonic).
    pub takes: u64,
    /// [`BufferPool::take`] calls satisfied by a recycled buffer (monotonic).
    pub hits: u64,
}

/// Thread-safe pool of recycled f32 buffers in power-of-two size classes.
///
/// [`BufferPool::take`] returns a **zero-filled** buffer of exactly the
/// requested length (rounded up to a power-of-two capacity), either recycled
/// or freshly allocated; [`BufferPool::give`] returns a buffer for reuse.
/// Buffers that did not originate here are accepted too — their capacity is
/// classified by its largest contained power of two.
#[derive(Debug, Default)]
pub struct BufferPool {
    bins: Mutex<Vec<Vec<Vec<f32>>>>,
    allocated_buffers: AtomicUsize,
    allocated_f32: AtomicUsize,
    outstanding_f32: AtomicUsize,
    high_water_f32: AtomicUsize,
    takes: AtomicUsize,
    hits: AtomicUsize,
}

impl BufferPool {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size class for a requested length: smallest power of two ≥ `len`.
    fn take_class(len: usize) -> usize {
        len.next_power_of_two().trailing_zeros() as usize
    }

    /// Size class a returned capacity belongs to: largest power of two ≤ it.
    fn give_class(capacity: usize) -> usize {
        (usize::BITS - 1 - capacity.leading_zeros()) as usize
    }

    /// Take a zero-filled buffer of exactly `len` elements.
    pub fn take(&self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        self.takes.fetch_add(1, Ordering::Relaxed);
        let class = Self::take_class(len);
        let recycled = {
            let mut bins = self.bins.lock().expect("buffer pool poisoned");
            bins.get_mut(class).and_then(Vec::pop)
        };
        let mut buf = match recycled {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                let capacity = 1usize << class;
                self.allocated_buffers.fetch_add(1, Ordering::Relaxed);
                self.allocated_f32.fetch_add(capacity, Ordering::Relaxed);
                Vec::with_capacity(capacity)
            }
        };
        buf.clear();
        buf.resize(len, 0.0);
        let outstanding = self
            .outstanding_f32
            .fetch_add(buf.capacity(), Ordering::Relaxed)
            + buf.capacity();
        self.high_water_f32
            .fetch_max(outstanding, Ordering::Relaxed);
        buf
    }

    /// Take a buffer of exactly `len` elements whose contents are
    /// **unspecified** (recycled buffers keep their previous values).
    ///
    /// For consumers that overwrite every element before reading any —
    /// overwrite-semantics GEMM and convolution outputs, zero-padded layer
    /// inputs, parse staging. Using it for a buffer that is *accumulated
    /// into* (or only partially written) would leak stale values into
    /// results; [`take`] is the safe default. Skipping the zero-fill matters:
    /// a layer's output alone is tens to hundreds of KB per request.
    ///
    /// [`take`]: BufferPool::take
    pub fn take_full(&self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        self.takes.fetch_add(1, Ordering::Relaxed);
        let class = Self::take_class(len);
        let recycled = {
            let mut bins = self.bins.lock().expect("buffer pool poisoned");
            bins.get_mut(class).and_then(Vec::pop)
        };
        let mut buf = match recycled {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                let capacity = 1usize << class;
                self.allocated_buffers.fetch_add(1, Ordering::Relaxed);
                self.allocated_f32.fetch_add(capacity, Ordering::Relaxed);
                Vec::with_capacity(capacity)
            }
        };
        if buf.len() > len {
            buf.truncate(len);
        } else {
            // Zero-fills only the gap past the recycled length (everything,
            // on a fresh allocation).
            buf.resize(len, 0.0);
        }
        let outstanding = self
            .outstanding_f32
            .fetch_add(buf.capacity(), Ordering::Relaxed)
            + buf.capacity();
        self.high_water_f32
            .fetch_max(outstanding, Ordering::Relaxed);
        buf
    }

    /// Return a buffer for reuse. Buffers beyond the per-class retention
    /// depth (or with zero capacity) are simply dropped.
    pub fn give(&self, buf: Vec<f32>) {
        let capacity = buf.capacity();
        if capacity == 0 {
            return;
        }
        // Saturating: foreign buffers (e.g. serde-parsed request vectors)
        // may be given without ever having been taken.
        let _ = self
            .outstanding_f32
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(capacity))
            });
        let class = Self::give_class(capacity);
        let mut bins = self.bins.lock().expect("buffer pool poisoned");
        if bins.len() <= class {
            bins.resize_with(class.min(CLASSES - 1) + 1, Vec::new);
        }
        let bin = &mut bins[class];
        let depth = (BIN_F32_BUDGET >> class).clamp(MAX_BIN_DEPTH, MAX_SMALL_BIN_DEPTH);
        if bin.len() < depth {
            bin.push(buf);
        }
    }

    /// Snapshot of the pool's cumulative telemetry.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            allocated_buffers: self.allocated_buffers.load(Ordering::Relaxed) as u64,
            allocated_f32: self.allocated_f32.load(Ordering::Relaxed) as u64,
            high_water_f32: self.high_water_f32.load(Ordering::Relaxed) as u64,
            takes: self.takes.load(Ordering::Relaxed) as u64,
            hits: self.hits.load(Ordering::Relaxed) as u64,
        }
    }
}

/// Per-worker handle over a shared [`BufferPool`] — the arena the execution
/// API threads through the backend so kernels can stage scratch data without
/// allocating.
///
/// The handle is deliberately thin: buffers taken from any arena may be given
/// back through any other arena (or the pool itself), which is exactly what
/// happens when a worker-produced output tensor is recycled by the HTTP
/// handler that serialized it.
#[derive(Debug, Clone)]
pub struct ScratchArena {
    pool: Arc<BufferPool>,
}

impl ScratchArena {
    /// Create an arena over a shared pool.
    pub fn new(pool: Arc<BufferPool>) -> Self {
        ScratchArena { pool }
    }

    /// Take a zero-filled buffer of exactly `len` elements.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        self.pool.take(len)
    }

    /// Take a buffer of exactly `len` elements with unspecified contents —
    /// only for consumers that overwrite every element; see
    /// [`BufferPool::take_full`].
    pub fn take_full(&mut self, len: usize) -> Vec<f32> {
        self.pool.take_full(len)
    }

    /// Return a buffer for reuse.
    pub fn give(&mut self, buf: Vec<f32>) {
        self.pool.give(buf);
    }

    /// The shared pool backing this arena.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zero_fills_and_rounds_capacity_up() {
        let pool = BufferPool::new();
        let buf = pool.take(5);
        assert_eq!(buf.len(), 5);
        assert_eq!(buf.capacity(), 8);
        assert!(buf.iter().all(|&v| v == 0.0));
        let empty = pool.take(0);
        assert!(empty.is_empty());
        assert_eq!(empty.capacity(), 0);
    }

    #[test]
    fn recycled_buffers_are_rezeroed() {
        let pool = BufferPool::new();
        let mut buf = pool.take(6);
        buf.iter_mut().for_each(|v| *v = 3.5);
        pool.give(buf);
        let again = pool.take(6);
        assert!(again.iter().all(|&v| v == 0.0));
        let stats = pool.stats();
        assert_eq!(stats.allocated_buffers, 1);
        assert_eq!(stats.takes, 2);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn take_full_skips_the_zero_fill_but_counts_stats() {
        let pool = BufferPool::new();
        let mut buf = pool.take(8);
        buf.iter_mut().for_each(|v| *v = 2.0);
        pool.give(buf);
        let again = pool.take_full(8);
        assert_eq!(again.len(), 8);
        // Contents are unspecified; with a same-length recycled buffer the
        // previous values survive — the zero-fill really was skipped.
        assert!(again.iter().all(|&v| v == 2.0));
        let stats = pool.stats();
        assert_eq!(stats.allocated_buffers, 1);
        assert_eq!(stats.takes, 2);
        assert_eq!(stats.hits, 1);
        // A fresh allocation still yields exactly `len` elements.
        let fresh = pool.take_full(12);
        assert_eq!(fresh.len(), 12);
        assert_eq!(fresh.capacity(), 16);
    }

    #[test]
    fn warm_pool_allocates_nothing_and_high_water_is_stable() {
        let pool = BufferPool::new();
        for _ in 0..3 {
            let a = pool.take(100);
            let b = pool.take(17);
            pool.give(a);
            pool.give(b);
        }
        let warm = pool.stats();
        for _ in 0..10 {
            let a = pool.take(100);
            let b = pool.take(17);
            pool.give(a);
            pool.give(b);
        }
        let after = pool.stats();
        assert_eq!(after.allocated_buffers, warm.allocated_buffers);
        assert_eq!(after.allocated_f32, warm.allocated_f32);
        assert_eq!(after.high_water_f32, warm.high_water_f32);
        assert_eq!(after.hits - warm.hits, 20);
    }

    #[test]
    fn different_size_classes_do_not_alias() {
        let pool = BufferPool::new();
        pool.give(vec![0.0; 64]);
        // 65 needs a 128-capacity class; the 64-capacity buffer must not be
        // returned for it.
        let buf = pool.take(65);
        assert!(buf.capacity() >= 128);
        // But a 64-element request is a hit.
        let hit = pool.take(64);
        assert_eq!(hit.capacity(), 64);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn foreign_buffers_are_classified_by_floor_power_of_two() {
        let pool = BufferPool::new();
        let mut foreign = Vec::with_capacity(100);
        foreign.resize(100, 1.0f32);
        pool.give(foreign);
        // capacity 100 floors to class 64: serves take(<=64) requests.
        let buf = pool.take(33);
        assert_eq!(pool.stats().hits, 1);
        assert!(buf.capacity() >= 64);
    }

    #[test]
    fn arena_handles_share_one_pool() {
        let pool = Arc::new(BufferPool::new());
        let mut a = ScratchArena::new(Arc::clone(&pool));
        let mut b = a.clone();
        let buf = a.take(32);
        b.give(buf);
        let again = b.take(32);
        assert_eq!(again.capacity(), 32);
        assert_eq!(pool.stats().hits, 1);
    }
}
