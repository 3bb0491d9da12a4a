//! Scripted fault injection at the execution-backend boundary.
//!
//! [`FaultInjector`] is a [`BackendWrapper`]: registered on a model's
//! `ModelConfig`, it interposes a [`FaultBackend`] between the engine and
//! the real executor. The injector itself is the *control handle* — the
//! chaos harness keeps a clone and arms faults mid-trace
//! ([`FaultInjector::arm_panics`] / [`FaultInjector::arm_errors`]); the
//! wrapped backend consumes the armed budget one batch at a time, then
//! falls back to pass-through — forwarding the dispatch's scratch arena, so
//! a fault-targeted model is served by the same arena-staged path
//! production runs. Because the wrapper rides on the model
//! config, a plan hot-swap re-applies it to the rebuilt engine and the
//! handle keeps working across replans.
//!
//! Three fault shapes, matching the ways a real executor degrades:
//!
//! * **panic** — `forward_batch` panics, exercising the engine's
//!   worker-side unwind containment;
//! * **error storm** — `forward_batch` returns typed
//!   `ServeError::ExecutionFailed`, exercising the per-request failure
//!   path;
//! * **delay** — `forward_batch` stalls for a scripted duration before
//!   delegating: the replica stays *correct* but slow, which is how
//!   brown-outs actually present. Delay faults raise measured latency
//!   without corrupting outputs, so they exercise latency-driven
//!   machinery (probe-timeout ejection) rather than the error paths.
//!
//! Either way the invariant under test is the same: clients only ever
//! see *typed* errors (or slow successes), and the engine's counters
//! still reconcile.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tdc_serve::backend::{BackendWrapper, ExecutionBackend};
use tdc_serve::{ScratchArena, ServeError};
use tdc_tensor::Tensor;

/// The armed fault budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultMode {
    /// Pass through to the real backend.
    Off,
    /// Panic for the next `n` batches.
    Panic(u32),
    /// Fail the next `n` batches with `ExecutionFailed`.
    Error(u32),
    /// Stall the next `n` batches for `delay_ms` before delegating.
    Delay(u32, u64),
}

#[derive(Debug)]
struct FaultState {
    mode: Mutex<FaultMode>,
    injected_panics: AtomicU64,
    injected_errors: AtomicU64,
    injected_delays: AtomicU64,
}

/// Control handle + [`BackendWrapper`] for scripted backend faults.
///
/// Cloning is cheap and shares the armed state, so the harness can hand
/// one clone to the registry (via `ModelConfig::backend_wrapper`) and
/// keep another to arm faults and read injection counters.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    state: Arc<FaultState>,
}

impl FaultInjector {
    /// A disarmed injector (pass-through until armed).
    pub fn new() -> Self {
        FaultInjector {
            state: Arc::new(FaultState {
                mode: Mutex::new(FaultMode::Off),
                injected_panics: AtomicU64::new(0),
                injected_errors: AtomicU64::new(0),
                injected_delays: AtomicU64::new(0),
            }),
        }
    }

    fn set_mode(&self, mode: FaultMode) {
        let mut guard = self
            .state
            .mode
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *guard = mode;
    }

    /// Arm the injector to panic inside `forward_batch` for the next
    /// `count` batches, then disarm itself.
    pub fn arm_panics(&self, count: u32) {
        self.set_mode(FaultMode::Panic(count));
    }

    /// Arm the injector to return typed `ExecutionFailed` errors for the
    /// next `count` batches, then disarm itself.
    pub fn arm_errors(&self, count: u32) {
        self.set_mode(FaultMode::Error(count));
    }

    /// Arm the injector to stall `forward_batch` for `delay` on each of
    /// the next `count` batches, then disarm itself. Outputs stay
    /// bit-correct — the batch is merely late — so this is the brown-out
    /// fault: it drives measured p99 up for latency-sensitive machinery
    /// (slow-replica ejection) without error noise.
    pub fn arm_delays(&self, count: u32, delay: std::time::Duration) {
        self.set_mode(FaultMode::Delay(count, delay.as_millis() as u64));
    }

    /// Disarm any remaining fault budget.
    pub fn disarm(&self) {
        self.set_mode(FaultMode::Off);
    }

    /// True when the armed budget is exhausted (or never armed): the
    /// system has healed and subsequent batches pass through untouched.
    pub fn is_idle(&self) -> bool {
        let guard = self
            .state
            .mode
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *guard == FaultMode::Off
    }

    /// Batches killed by injected panics so far.
    pub fn injected_panics(&self) -> u64 {
        self.state.injected_panics.load(Ordering::Relaxed)
    }

    /// Batches failed with injected typed errors so far.
    pub fn injected_errors(&self) -> u64 {
        self.state.injected_errors.load(Ordering::Relaxed)
    }

    /// Batches stalled by injected delays so far.
    pub fn injected_delays(&self) -> u64 {
        self.state.injected_delays.load(Ordering::Relaxed)
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::new()
    }
}

impl BackendWrapper for FaultInjector {
    fn wrap(&self, inner: Arc<dyn ExecutionBackend>) -> Arc<dyn ExecutionBackend> {
        Arc::new(FaultBackend {
            inner,
            state: Arc::clone(&self.state),
        })
    }
}

/// The interposed backend: consumes the injector's armed budget, then
/// delegates to the real backend.
pub struct FaultBackend {
    inner: Arc<dyn ExecutionBackend>,
    state: Arc<FaultState>,
}

impl FaultBackend {
    /// Take one fault from the armed budget, if any. Never holds the
    /// mode lock while panicking or executing.
    fn take_fault(&self) -> FaultMode {
        let mut guard = self
            .state
            .mode
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match *guard {
            FaultMode::Off => FaultMode::Off,
            FaultMode::Panic(n) => {
                *guard = if n > 1 {
                    FaultMode::Panic(n - 1)
                } else {
                    FaultMode::Off
                };
                FaultMode::Panic(n)
            }
            FaultMode::Error(n) => {
                *guard = if n > 1 {
                    FaultMode::Error(n - 1)
                } else {
                    FaultMode::Off
                };
                FaultMode::Error(n)
            }
            FaultMode::Delay(n, delay_ms) => {
                *guard = if n > 1 {
                    FaultMode::Delay(n - 1, delay_ms)
                } else {
                    FaultMode::Off
                };
                FaultMode::Delay(n, delay_ms)
            }
        }
    }
}

impl ExecutionBackend for FaultBackend {
    fn input_dims(&self) -> &[usize] {
        self.inner.input_dims()
    }

    fn warmup(&self) -> Result<(), ServeError> {
        // Warmup always passes through: faults model a backend that dies
        // *in service*, not one that fails to build.
        self.inner.warmup()
    }

    fn forward_batch(
        &self,
        inputs: &[&Tensor],
        arena: &mut ScratchArena,
    ) -> Result<Vec<Tensor>, ServeError> {
        match self.take_fault() {
            FaultMode::Off => self.inner.forward_batch(inputs, arena),
            FaultMode::Panic(_) => {
                self.state.injected_panics.fetch_add(1, Ordering::Relaxed);
                panic!("injected fault: scripted backend panic");
            }
            FaultMode::Error(_) => {
                self.state.injected_errors.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::ExecutionFailed {
                    reason: "injected fault: scripted backend error".into(),
                })
            }
            FaultMode::Delay(_, delay_ms) => {
                self.state.injected_delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                self.inner.forward_batch(inputs, arena)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdc_serve::BufferPool;

    fn arena() -> ScratchArena {
        ScratchArena::new(Arc::new(BufferPool::new()))
    }

    #[test]
    fn budget_drains_then_disarms() {
        let injector = FaultInjector::new();
        assert!(injector.is_idle());
        injector.arm_panics(2);
        assert!(!injector.is_idle());
        // Drain the budget through the internal state machine directly.
        let backend = injector.wrap(Arc::new(NullBackend));
        for _ in 0..2 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = backend.forward_batch(&[], &mut arena());
            }));
            assert!(result.is_err(), "armed panic must fire");
        }
        assert!(injector.is_idle());
        assert_eq!(injector.injected_panics(), 2);
        assert!(
            backend.forward_batch(&[], &mut arena()).is_ok(),
            "healed: pass-through"
        );
    }

    #[test]
    fn delay_budget_stalls_then_passes_through_bit_correct() {
        let injector = FaultInjector::new();
        injector.arm_delays(1, std::time::Duration::from_millis(40));
        let backend = injector.wrap(Arc::new(NullBackend));
        let input = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();

        let started = std::time::Instant::now();
        let slow = backend
            .forward_batch(&[&input], &mut arena())
            .expect("delayed batch");
        assert!(
            started.elapsed() >= std::time::Duration::from_millis(40),
            "armed delay must stall the batch"
        );
        assert_eq!(
            slow[0].data(),
            input.data(),
            "a delayed batch must still be bit-correct"
        );
        assert_eq!(injector.injected_delays(), 1);
        assert!(injector.is_idle(), "delay budget must drain");

        let started = std::time::Instant::now();
        backend
            .forward_batch(&[&input], &mut arena())
            .expect("healed batch");
        assert!(
            started.elapsed() < std::time::Duration::from_millis(40),
            "healed batches must not stall"
        );
    }

    #[test]
    fn error_budget_is_typed() {
        let injector = FaultInjector::new();
        injector.arm_errors(1);
        let backend = injector.wrap(Arc::new(NullBackend));
        match backend.forward_batch(&[], &mut arena()) {
            Err(ServeError::ExecutionFailed { reason }) => {
                assert!(reason.contains("injected fault"));
            }
            other => panic!("expected typed ExecutionFailed, got {other:?}"),
        }
        assert_eq!(injector.injected_errors(), 1);
        assert!(injector.is_idle());
    }

    /// The fault-wrapped row of `tdc-serve`'s
    /// `arena_batches_are_bit_stable_with_zero_new_allocations` table (the
    /// injector is defined in this crate): a disarmed injector forwards the
    /// arena, so the wrapped engine serves bit-equal to the reference and a
    /// warm batch allocates nothing.
    #[test]
    fn wrapped_backend_forwards_the_arena_bit_stable_with_zero_new_allocations() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use tdc_serve::{serving_descriptor, ServeEngine};

        /// Applies the injector and keeps the backend the engine will run.
        struct Capture {
            injector: FaultInjector,
            wrapped: Mutex<Option<Arc<dyn ExecutionBackend>>>,
        }
        impl BackendWrapper for Capture {
            fn wrap(&self, inner: Arc<dyn ExecutionBackend>) -> Arc<dyn ExecutionBackend> {
                let wrapped = self.injector.wrap(inner);
                *self.wrapped.lock().unwrap() = Some(Arc::clone(&wrapped));
                wrapped
            }
        }

        let capture = Arc::new(Capture {
            injector: FaultInjector::new(),
            wrapped: Mutex::new(None),
        });
        // Large enough that the planner decomposes at least one layer.
        let descriptor = serving_descriptor("fault-arena", 12, 8, 10);
        let engine = ServeEngine::builder(&descriptor)
            .wrap_backend(capture.clone())
            .build()
            .unwrap();
        assert!(engine.model().decomposed_layers() > 0);
        let backend = capture.wrapped.lock().unwrap().clone().unwrap();

        let mut rng = StdRng::seed_from_u64(29);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| tdc_tensor::init::uniform(vec![12, 12, 8], -1.0, 1.0, &mut rng))
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let reference: Vec<Tensor> = inputs
            .iter()
            .map(|x| engine.model().forward(x).unwrap())
            .collect();

        let pool = Arc::new(BufferPool::new());
        let mut arena = ScratchArena::new(Arc::clone(&pool));
        let first = backend.forward_batch(&refs, &mut arena).unwrap();
        assert_eq!(first, reference, "cold batch diverged");
        for out in first {
            arena.give(out.into_data());
        }
        let warm = pool.stats();
        let second = backend.forward_batch(&refs, &mut arena).unwrap();
        assert_eq!(second, reference, "warm batch diverged");
        let after = pool.stats();
        assert_eq!(after.allocated_buffers, warm.allocated_buffers);
        assert_eq!(after.allocated_f32, warm.allocated_f32);
        assert_eq!(after.high_water_f32, warm.high_water_f32);
        assert!(after.hits > warm.hits, "the pool was not used");
        engine.shutdown();
    }

    struct NullBackend;

    impl ExecutionBackend for NullBackend {
        fn input_dims(&self) -> &[usize] {
            &[]
        }
        fn warmup(&self) -> Result<(), ServeError> {
            Ok(())
        }
        fn forward_batch(
            &self,
            inputs: &[&Tensor],
            _arena: &mut ScratchArena,
        ) -> Result<Vec<Tensor>, ServeError> {
            Ok(inputs.iter().map(|t| (*t).clone()).collect())
        }
    }
}
