//! Pluggable execution backends.
//!
//! The serving engine no longer hard-wires execution to one CPU path: every
//! way of running a batch lives behind [`ExecutionBackend`], and engines are
//! built against the trait. Two backends ship with the crate:
//!
//! * [`CpuBackend`] — the real CPU executor: kept layers as an implicit GEMM
//!   that never writes the im2col patch matrix, decomposed layers as the
//!   three-stage Tucker-2 convolution, every intermediate staged in the
//!   dispatch's [`ScratchArena`]. Its latency report is the *predicted*
//!   per-layer GPU latency from the compression plan (the planning oracle's
//!   view).
//! * [`SimGpuBackend`] — the same numerics (outputs are bit-identical to the
//!   CPU backend for the same seed and plan) plus a *measured-in-simulation*
//!   latency account: every planned layer is lowered to its
//!   [`KernelLaunch`](tdc_gpu_sim::KernelLaunch) sequence via
//!   `tdc::lowering` and replayed through the wave-level
//!   [`WaveEngine`], so every batch reports a
//!   simulated per-layer GPU latency breakdown alongside real outputs.
//!
//! Backends are selected with [`BackendKind`] on
//! [`RuntimeOptions`](crate::options::RuntimeOptions) and their identity
//! travels end-to-end: through the plan-cache key, the per-request responses,
//! and the metrics snapshot.

use crate::arena::ScratchArena;
use crate::model::CompressedModel;
use crate::{Result, ServeError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use tdc::inference::Backend as PredictedBackend;
use tdc::lowering::{fc_gemv_launch, lower_plan_with_fc};
use tdc::CompressionPlan;
use tdc_gpu_sim::{DeviceSpec, LatencyModel, WaveEngine};
use tdc_tensor::Tensor;

/// Which execution backend an engine runs batches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum BackendKind {
    /// Real CPU execution through the `tdc-conv` / `tdc-tucker` kernels.
    Cpu,
    /// CPU numerics plus a wave-level GPU simulation of the lowered plan.
    SimGpu,
}

impl BackendKind {
    /// Stable identifier used in cache keys, metrics and bench artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Cpu => "cpu",
            BackendKind::SimGpu => "sim-gpu",
        }
    }

    /// Parse a label back into a kind (the inverse of [`BackendKind::label`]).
    pub fn parse(label: &str) -> Option<BackendKind> {
        match label {
            "cpu" => Some(BackendKind::Cpu),
            "sim-gpu" | "simgpu" | "sim_gpu" => Some(BackendKind::SimGpu),
            _ => None,
        }
    }

    /// Every backend the crate ships.
    pub fn all() -> [BackendKind; 2] {
        [BackendKind::Cpu, BackendKind::SimGpu]
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of one executed batch: real outputs plus the backend's latency
/// account for the batch.
#[derive(Debug, Clone)]
pub struct BatchExecution {
    /// One output tensor per input, in submission order.
    pub outputs: Vec<Tensor>,
    /// Simulated GPU milliseconds for the whole batch — `0.0` for backends
    /// that do not run a simulator.
    pub simulated_gpu_ms: f64,
}

/// One layer's entry in a [`BackendLatencyReport`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LayerSimLatency {
    /// Layer index (convolutions first, then FC layers).
    pub layer_index: usize,
    /// Human-readable label, e.g. `"conv2 (tucker r=8x12)"`.
    pub label: String,
    /// Whether the layer runs in Tucker-decomposed form.
    pub decomposed: bool,
    /// Kernel launches the layer executes (3 for a Tucker layer).
    pub kernels: usize,
    /// Modelled latency of the layer in milliseconds.
    pub ms: f64,
    /// Time-weighted SM utilisation over the layer's kernels — only
    /// meaningful for simulated backends; predicted reports carry `0.0`.
    pub sm_utilization: f64,
}

/// Per-layer latency breakdown reported by a backend.
///
/// For [`SimGpuBackend`] this is measured in simulation by replaying the
/// lowered plan on the wave engine; for [`CpuBackend`] it is the planning
/// oracle's closed-form prediction — the backend's own account of where the
/// time goes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BackendLatencyReport {
    /// Backend identity ([`BackendKind::label`]).
    pub backend: String,
    /// Device the latencies are modelled for.
    pub device: String,
    /// Batch size the report was computed at.
    pub batch_size: usize,
    /// Per-layer breakdown, convolutions first, then FC layers.
    pub per_layer: Vec<LayerSimLatency>,
    /// Sum of the per-layer latencies, milliseconds.
    pub total_ms: f64,
}

/// A pluggable way of executing batches for one materialized model.
///
/// Implementations must be `Send + Sync`: one backend instance is shared by
/// the whole worker pool. The engine probes the backend once with
/// [`ExecutionBackend::warmup`] before accepting traffic, so a backend that
/// cannot execute the model (e.g. a lowered kernel the simulated device
/// cannot launch) fails engine construction instead of dropping every
/// request.
///
/// [`forward_batch`](ExecutionBackend::forward_batch) is the only way an
/// engine runs a batch, and the shipped backends implement it with
/// [`CompressedModel::forward_in`]. [`CompressedModel::forward`] is the
/// allocating *reference* — what `warmup` probes with and what the
/// bit-parity tests and the benchmark compare outputs against — and is not
/// a serving path.
///
/// # Examples
///
/// Backends are usually obtained through the engine builder, which exposes
/// the running backend's identity and latency report:
///
/// ```
/// use tdc_serve::{serving_descriptor, BackendKind, ServeEngine};
///
/// let descriptor = serving_descriptor("backend-docs", 8, 4, 4);
/// let engine = ServeEngine::builder(&descriptor)
///     .backend(BackendKind::SimGpu)
///     .build()
///     .unwrap();
/// assert_eq!(engine.backend_name(), "sim-gpu");
/// let report = engine.backend_latency_report();
/// assert!(report.total_ms > 0.0);
/// assert_eq!(report.per_layer.len(), 4 + 1); // 4 convolutions + 1 FC layer
/// ```
pub trait ExecutionBackend: Send + Sync {
    /// Stable backend identity (e.g. `"cpu"`, `"sim-gpu"`).
    fn name(&self) -> &str;

    /// Expected HWC input dims of one sample.
    fn input_dims(&self) -> &[usize];

    /// Probe the whole execution chain once (called at engine start), so
    /// configuration errors surface as [`ServeError`]s before any request is
    /// accepted.
    fn warmup(&self) -> Result<()>;

    /// Execute one batch and return the outputs in submission order together
    /// with the backend's latency account for the batch. Every staging
    /// buffer (padded inputs, Tucker intermediates, output tensors) comes
    /// from `arena` — the engine passes one per dispatch — so a warm batch
    /// allocates nothing; a wrapper forwards the arena to the backend it
    /// wraps.
    fn forward_batch(&self, inputs: &[&Tensor], arena: &mut ScratchArena)
        -> Result<BatchExecution>;

    /// The backend's per-layer latency breakdown at the given batch size.
    fn latency_report(&self, batch_size: usize) -> Result<BackendLatencyReport>;
}

/// A hook that interposes on the engine's backend at build time.
///
/// The builder constructs the concrete backend ([`CpuBackend`] or
/// [`SimGpuBackend`]) internally from [`BackendKind`], so harnesses that need
/// to sit between the engine and the executor — fault injectors, call
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

/// The real CPU executor behind the [`ExecutionBackend`] trait.
pub struct CpuBackend {
    model: Arc<CompressedModel>,
    plan: Arc<CompressionPlan>,
    device: DeviceSpec,
    fc: Vec<(usize, usize)>,
}

impl CpuBackend {
    /// Wrap a materialized model, the plan it was materialized from, the
    /// device the plan's latencies were predicted for, and the descriptor's
    /// FC layers (priced as GEMVs in the latency report).
    pub fn new(
        model: Arc<CompressedModel>,
        plan: Arc<CompressionPlan>,
        device: DeviceSpec,
        fc: Vec<(usize, usize)>,
    ) -> Self {
        CpuBackend {
            model,
            plan,
            device,
            fc,
        }
    }
}

impl ExecutionBackend for CpuBackend {
    fn name(&self) -> &str {
        BackendKind::Cpu.label()
    }

    fn input_dims(&self) -> &[usize] {
        self.model.input_dims()
    }

    fn warmup(&self) -> Result<()> {
        self.model
            .forward(&Tensor::zeros(self.model.input_dims().to_vec()))
            .map(|_| ())
    }

    fn forward_batch(
        &self,
        inputs: &[&Tensor],
        arena: &mut ScratchArena,
    ) -> Result<BatchExecution> {
        Ok(BatchExecution {
            outputs: inputs
                .iter()
                .map(|x| self.model.forward_in(x, arena))
                .collect::<Result<_>>()?,
            simulated_gpu_ms: 0.0,
        })
    }

    /// The planning oracle's prediction: the plan's per-layer TDC-model
    /// latencies scaled linearly by the batch size.
    fn latency_report(&self, batch_size: usize) -> Result<BackendLatencyReport> {
        if batch_size == 0 {
            return Err(ServeError::BadConfig {
                reason: "latency report needs a batch of at least one sample".into(),
            });
        }
        let report =
            self.plan
                .report(PredictedBackend::TuckerTdcModel)
                .ok_or(ServeError::BadConfig {
                    reason: "plan carries no TDC-model latency report".into(),
                })?;
        let mut per_layer: Vec<LayerSimLatency> = report
            .layers
            .iter()
            .map(|l| LayerSimLatency {
                layer_index: l.index,
                label: format!(
                    "conv{} ({})",
                    l.index,
                    if l.decomposed { "tucker" } else { "dense" }
                ),
                decomposed: l.decomposed,
                kernels: if l.decomposed { 3 } else { 1 },
                ms: l.ms * batch_size as f64,
                sm_utilization: 0.0,
            })
            .collect();
        // FC layers are priced with the same GEMV launch the planning report
        // uses, so both backends cover the identical layer list and
        // `total_ms` stays the sum of `per_layer`.
        let latency_model = LatencyModel::new(self.device.clone());
        for (i, &(fc_in, fc_out)) in self.fc.iter().enumerate() {
            let ms = latency_model
                .kernel_latency(&fc_gemv_launch(fc_in, fc_out))
                .map(|l| l.total_ms)
                .unwrap_or(0.0);
            per_layer.push(LayerSimLatency {
                layer_index: report.layers.len() + i,
                label: format!("fc{i} ({fc_in}x{fc_out})"),
                decomposed: false,
                kernels: 1,
                ms: ms * batch_size as f64,
                sm_utilization: 0.0,
            });
        }
        let total_ms = per_layer.iter().map(|l| l.ms).sum();
        Ok(BackendLatencyReport {
            backend: self.name().to_string(),
            device: report.device.clone(),
            batch_size,
            per_layer,
            total_ms,
        })
    }
}

/// CPU numerics plus a wave-level GPU simulation of the lowered plan.
///
/// Outputs are produced by the same materialized [`CompressedModel`] the CPU
/// backend runs — for one `(descriptor, plan, seed)` triple the two backends
/// are bit-identical — while latency is *measured in simulation*: the plan is
/// lowered to per-layer kernel sequences (scaled to the batch size) and
/// replayed on [`WaveEngine`], exposing wave counts, tail effects and SM
/// utilisation that the closed-form planning prediction cannot see.
pub struct SimGpuBackend {
    /// Runs the numerics: the simulated GPU's outputs *are* the CPU's.
    cpu: CpuBackend,
    engine: WaveEngine,
    /// Reports memoized per batch size — batch sizes repeat constantly under
    /// steady load, and one report costs a full wave simulation of the plan.
    reports: Mutex<HashMap<usize, Arc<BackendLatencyReport>>>,
}

impl SimGpuBackend {
    /// Wrap a materialized model, the plan it came from, the device to
    /// simulate and the descriptor's FC layers (simulated as GEMVs).
    pub fn new(
        model: Arc<CompressedModel>,
        plan: Arc<CompressionPlan>,
        device: DeviceSpec,
        fc: Vec<(usize, usize)>,
    ) -> Self {
        SimGpuBackend {
            engine: WaveEngine::new(device.clone()),
            cpu: CpuBackend::new(model, plan, device, fc),
            reports: Mutex::new(HashMap::new()),
        }
    }

    fn report_for(&self, batch_size: usize) -> Result<Arc<BackendLatencyReport>> {
        if batch_size == 0 {
            return Err(ServeError::BadConfig {
                reason: "latency report needs a batch of at least one sample".into(),
            });
        }
        {
            let reports = match self.reports.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            if let Some(report) = reports.get(&batch_size) {
                return Ok(Arc::clone(report));
            }
        }
        let lowered = lower_plan_with_fc(
            &self.cpu.plan,
            &self.cpu.fc,
            self.engine.device(),
            batch_size,
        )?;
        let mut per_layer = Vec::with_capacity(lowered.len());
        let mut total_ms = 0.0f64;
        for layer in &lowered {
            let stats = self
                .engine
                .run_sequence_stats(&layer.launches)
                .map_err(tdc::TdcError::from)?;
            total_ms += stats.total_ms;
            per_layer.push(LayerSimLatency {
                layer_index: layer.layer_index,
                label: layer.label.clone(),
                decomposed: layer.decomposed,
                kernels: layer.kernel_count(),
                ms: stats.total_ms,
                sm_utilization: stats.mean_sm_utilization,
            });
        }
        let report = Arc::new(BackendLatencyReport {
            backend: BackendKind::SimGpu.label().to_string(),
            device: self.engine.device().name.clone(),
            batch_size,
            per_layer,
            total_ms,
        });
        let mut reports = match self.reports.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        reports.insert(batch_size, Arc::clone(&report));
        Ok(report)
    }
}

impl ExecutionBackend for SimGpuBackend {
    fn name(&self) -> &str {
        BackendKind::SimGpu.label()
    }

    fn input_dims(&self) -> &[usize] {
        self.cpu.input_dims()
    }

    fn warmup(&self) -> Result<()> {
        // Probe both halves: the numeric chain and the plan lowering, so an
        // unlaunchable lowered kernel fails engine start, not the workers.
        self.cpu.warmup()?;
        self.report_for(1).map(|_| ())
    }

    fn forward_batch(
        &self,
        inputs: &[&Tensor],
        arena: &mut ScratchArena,
    ) -> Result<BatchExecution> {
        let mut execution = self.cpu.forward_batch(inputs, arena)?;
        if !inputs.is_empty() {
            execution.simulated_gpu_ms = self.report_for(inputs.len())?.total_ms;
        }
        Ok(execution)
    }

    fn latency_report(&self, batch_size: usize) -> Result<BackendLatencyReport> {
        self.report_for(batch_size).map(|r| (*r).clone())
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
    use tdc_tensor::init;

    fn model_and_plan() -> (
        Arc<CompressedModel>,
        Arc<CompressionPlan>,
        Vec<(usize, usize)>,
    ) {
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
        let model = CompressedModel::materialize(&descriptor, &plan, 7).unwrap();
        (Arc::new(model), Arc::new(plan), descriptor.fc.clone())
    }

    #[test]
    fn backend_kind_labels_round_trip() {
        for kind in BackendKind::all() {
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(BackendKind::parse("sim_gpu"), Some(BackendKind::SimGpu));
        assert!(BackendKind::parse("tpu").is_none());
    }

    #[test]
    fn cpu_and_sim_gpu_outputs_are_bit_identical() {
        let (model, plan, fc) = model_and_plan();
        let cpu = CpuBackend::new(
            Arc::clone(&model),
            Arc::clone(&plan),
            DeviceSpec::a100(),
            fc.clone(),
        );
        let sim = SimGpuBackend::new(model, plan, DeviceSpec::a100(), fc);
        cpu.warmup().unwrap();
        sim.warmup().unwrap();

        let mut rng = StdRng::seed_from_u64(13);
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| init::uniform(vec![12, 12, 8], -1.0, 1.0, &mut rng))
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let mut arena = ScratchArena::new(Arc::new(BufferPool::new()));
        let a = cpu.forward_batch(&refs, &mut arena).unwrap();
        let b = sim.forward_batch(&refs, &mut arena).unwrap();
        assert_eq!(a.outputs, b.outputs, "backends must agree bit-for-bit");
        assert_eq!(a.simulated_gpu_ms, 0.0);
        assert!(b.simulated_gpu_ms > 0.0);
    }

    #[test]
    fn arena_batches_are_bit_stable_with_zero_new_allocations() {
        let (model, plan, fc) = model_and_plan();
        let mut rng = StdRng::seed_from_u64(29);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| init::uniform(vec![12, 12, 8], -1.0, 1.0, &mut rng))
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let reference: Vec<Tensor> = inputs.iter().map(|x| model.forward(x).unwrap()).collect();

        // The fault-wrapped row of this table lives in `tdc-lab`'s `fault`
        // tests (the injector is defined there).
        let backends: [Box<dyn ExecutionBackend>; 2] = [
            Box::new(CpuBackend::new(
                Arc::clone(&model),
                Arc::clone(&plan),
                DeviceSpec::a100(),
                fc.clone(),
            )),
            Box::new(SimGpuBackend::new(model, plan, DeviceSpec::a100(), fc)),
        ];
        for backend in backends {
            let name = backend.name();
            let pool = Arc::new(BufferPool::new());
            let mut arena = ScratchArena::new(Arc::clone(&pool));
            // The first batch warms the pool; its outputs are recycled the
            // way the engine recycles answered requests.
            let first = backend.forward_batch(&refs, &mut arena).unwrap();
            assert_eq!(first.outputs, reference, "{name}: cold batch diverged");
            for out in first.outputs {
                arena.give(out.into_data());
            }
            let warm = pool.stats();

            // A second identical batch must produce identical f32 bits with
            // zero new allocations: the pool's allocation counters and
            // high-water mark must not move.
            let second = backend.forward_batch(&refs, &mut arena).unwrap();
            assert_eq!(second.outputs, reference, "{name}: warm batch diverged");
            let after = pool.stats();
            assert_eq!(after.allocated_buffers, warm.allocated_buffers, "{name}");
            assert_eq!(after.allocated_f32, warm.allocated_f32, "{name}");
            assert_eq!(after.high_water_f32, warm.high_water_f32, "{name}");
            assert!(after.hits > warm.hits, "{name}: the pool was not used");
        }
    }

    #[test]
    fn sim_gpu_report_covers_every_layer_and_scales_sublinearly() {
        let (model, plan, fc) = model_and_plan();
        let convs = plan.decisions.len();
        let sim = SimGpuBackend::new(model, plan, DeviceSpec::a100(), fc.clone());
        let one = sim.latency_report(1).unwrap();
        assert_eq!(one.backend, "sim-gpu");
        assert_eq!(one.per_layer.len(), convs + fc.len());
        assert!(one.per_layer.iter().any(|l| l.decomposed));
        assert!(one
            .per_layer
            .iter()
            .all(|l| l.ms > 0.0 && l.sm_utilization > 0.0));
        let sum: f64 = one.per_layer.iter().map(|l| l.ms).sum();
        assert!((sum - one.total_ms).abs() < 1e-9);
        // Batching fills waves: an 8-sample batch must cost less than 8x one.
        let eight = sim.latency_report(8).unwrap();
        assert!(eight.total_ms > one.total_ms);
        assert!(eight.total_ms < one.total_ms * 8.0);
        // Memoized: the same report object is reused per batch size.
        assert_eq!(sim.latency_report(8).unwrap(), eight);
        assert!(sim.latency_report(0).is_err());
    }

    #[test]
    fn cpu_report_is_the_planning_prediction() {
        let (model, plan, fc) = model_and_plan();
        let predicted = plan
            .report(PredictedBackend::TuckerTdcModel)
            .unwrap()
            .total_ms;
        let cpu = CpuBackend::new(model, Arc::clone(&plan), DeviceSpec::a100(), fc.clone());
        let report = cpu.latency_report(4).unwrap();
        assert_eq!(report.backend, "cpu");
        // Same layer list as the sim backend: convolutions then FC layers.
        assert_eq!(report.per_layer.len(), plan.decisions.len() + fc.len());
        // total_ms is the sum of per_layer, and matches the planning
        // prediction (conv + FC) scaled by the batch size.
        let sum: f64 = report.per_layer.iter().map(|l| l.ms).sum();
        assert!((report.total_ms - sum).abs() < 1e-9);
        assert!((report.total_ms - predicted * 4.0).abs() < 1e-9);
        assert!(cpu.latency_report(0).is_err());
    }
}
