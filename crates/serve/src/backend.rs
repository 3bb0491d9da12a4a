//! The execution backend seam.
//!
//! Every way of running a batch lives behind [`ExecutionBackend`], and
//! engines are built against the trait. The crate ships one backend,
//! [`CpuBackend`]: kept layers run as an implicit GEMM that never writes the
//! im2col patch matrix, decomposed layers as the three-stage Tucker-2
//! convolution, every intermediate staged in the dispatch's
//! [`ScratchArena`]. The trait stays a seam so harnesses can interpose on
//! the backend through a [`BackendWrapper`] (fault injection, call
//! recording) without the engine knowing.

use crate::arena::ScratchArena;
use crate::model::CompressedModel;
use crate::Result;
use std::sync::Arc;
use tdc_tensor::Tensor;

/// A way of executing batches for one materialized model.
///
/// Implementations must be `Send + Sync`: one backend instance is shared by
/// the whole worker pool. The engine probes the backend once with
/// [`ExecutionBackend::warmup`] before accepting traffic, so a backend that
/// cannot execute the model fails engine construction instead of dropping
/// every request; the probe is timed and seeds the engine's execution-time
/// estimate.
///
/// [`forward_batch`](ExecutionBackend::forward_batch) is the only way an
/// engine runs a batch, and [`CpuBackend`] implements it with
/// [`CompressedModel::forward_in`]. [`CompressedModel::forward`] is the
/// allocating *reference* — what `warmup` probes with and what the
/// bit-parity tests and the benchmark compare outputs against — and is not
/// a serving path.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tdc_serve::{
///     serving_descriptor, BufferPool, CompressedModel, CpuBackend, ExecutionBackend,
///     RuntimeOptions, ScratchArena, ServeEngine,
/// };
///
/// let descriptor = serving_descriptor("backend-docs", 8, 4, 4);
/// let engine = ServeEngine::builder(&descriptor).build().unwrap();
/// let seed = RuntimeOptions::default().seed;
/// let model = CompressedModel::materialize(&descriptor, engine.plan(), seed).unwrap();
/// let backend = CpuBackend::new(Arc::new(model));
/// backend.warmup().unwrap();
///
/// let input = tdc_tensor::Tensor::zeros(vec![8, 8, 4]);
/// let mut arena = ScratchArena::new(Arc::new(BufferPool::new()));
/// let outputs = backend.forward_batch(&[&input, &input], &mut arena).unwrap();
/// assert_eq!(outputs.len(), 2);
/// assert_eq!(outputs[0], engine.model().forward(&input).unwrap());
/// ```
pub trait ExecutionBackend: Send + Sync {
    /// Expected HWC input dims of one sample.
    fn input_dims(&self) -> &[usize];

    /// Probe the whole execution chain once (called at engine start), so
    /// configuration errors surface as [`ServeError`](crate::ServeError)s
    /// before any request is accepted.
    fn warmup(&self) -> Result<()>;

    /// Execute one batch and return the outputs in submission order. Every
    /// staging buffer (padded inputs, Tucker intermediates, output tensors)
    /// comes from `arena` — the engine passes one per dispatch — so a warm
    /// batch allocates nothing; a wrapper forwards the arena to the backend
    /// it wraps.
    fn forward_batch(&self, inputs: &[&Tensor], arena: &mut ScratchArena) -> Result<Vec<Tensor>>;
}

/// A hook that interposes on the engine's backend at build time.
///
/// The builder constructs the [`CpuBackend`] internally, so harnesses that
/// need to sit between the engine and the executor — fault injectors, call
/// recorders — cannot hand the engine a backend of their own. A wrapper
/// registered via
/// [`ServeEngineBuilder::wrap_backend`](crate::ServeEngineBuilder::wrap_backend)
/// (or carried on [`ModelConfig`](crate::ModelConfig), so a plan hot-swap
/// re-applies it to the rebuilt engine) receives the freshly constructed
/// backend *before* warmup and returns the backend the engine actually runs.
pub trait BackendWrapper: Send + Sync {
    /// Wrap `inner`, returning the backend the engine will execute batches
    /// on. Runs once per engine build, before the warmup probe.
    fn wrap(&self, inner: Arc<dyn ExecutionBackend>) -> Arc<dyn ExecutionBackend>;
}

/// The CPU executor behind the [`ExecutionBackend`] trait.
pub struct CpuBackend {
    model: Arc<CompressedModel>,
}

impl CpuBackend {
    /// Wrap a materialized model.
    pub fn new(model: Arc<CompressedModel>) -> Self {
        CpuBackend { model }
    }
}

impl ExecutionBackend for CpuBackend {
    fn input_dims(&self) -> &[usize] {
        self.model.input_dims()
    }

    fn warmup(&self) -> Result<()> {
        self.model
            .forward(&Tensor::zeros(self.model.input_dims().to_vec()))
            .map(|_| ())
    }

    fn forward_batch(&self, inputs: &[&Tensor], arena: &mut ScratchArena) -> Result<Vec<Tensor>> {
        inputs
            .iter()
            .map(|x| self.model.forward_in(x, arena))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::BufferPool;
    use crate::serving_descriptor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tdc::rank_select::RankSelectionConfig;
    use tdc::tiling::TilingStrategy;
    use tdc::TdcPipeline;
    use tdc_gpu_sim::DeviceSpec;
    use tdc_tensor::init;

    fn model() -> Arc<CompressedModel> {
        // Large enough that the planner decomposes at least one layer.
        let descriptor = serving_descriptor("backend-test", 12, 8, 10);
        let cfg = RankSelectionConfig {
            budget: 0.5,
            theta: 0.0,
            strategy: TilingStrategy::Model,
            rank_step: 4,
        };
        let plan = TdcPipeline::new(DeviceSpec::a100(), TilingStrategy::Model)
            .plan_with_config(&descriptor, &cfg)
            .unwrap();
        Arc::new(CompressedModel::materialize(&descriptor, &plan, 7).unwrap())
    }

    #[test]
    fn arena_batches_are_bit_stable_with_zero_new_allocations() {
        let model = model();
        let mut rng = StdRng::seed_from_u64(29);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| init::uniform(vec![12, 12, 8], -1.0, 1.0, &mut rng))
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let reference: Vec<Tensor> = inputs.iter().map(|x| model.forward(x).unwrap()).collect();

        // The fault-wrapped row of this table lives in `tdc-lab`'s `fault`
        // tests (the injector is defined there).
        let backend = CpuBackend::new(model);
        let pool = Arc::new(BufferPool::new());
        let mut arena = ScratchArena::new(Arc::clone(&pool));
        // The first batch warms the pool; its outputs are recycled the way
        // the engine recycles answered requests.
        let first = backend.forward_batch(&refs, &mut arena).unwrap();
        assert_eq!(first, reference, "cold batch diverged");
        for out in first {
            arena.give(out.into_data());
        }
        let warm = pool.stats();

        // A second identical batch must produce identical f32 bits with zero
        // new allocations: the pool's allocation counters and high-water
        // mark must not move.
        let second = backend.forward_batch(&refs, &mut arena).unwrap();
        assert_eq!(second, reference, "warm batch diverged");
        let after = pool.stats();
        assert_eq!(after.allocated_buffers, warm.allocated_buffers);
        assert_eq!(after.allocated_f32, warm.allocated_f32);
        assert_eq!(after.high_water_f32, warm.high_water_f32);
        assert!(after.hits > warm.hits, "the pool was not used");
    }
}
