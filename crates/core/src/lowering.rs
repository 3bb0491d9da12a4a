//! Plan → kernel lowering.
//!
//! A [`CompressionPlan`] records *what* each layer should run (keep dense, or
//! decompose at some ranks with some core tiling). This module turns those
//! decisions into the concrete [`KernelLaunch`] sequences a GPU would execute,
//! so callers — `tdc-serve`'s knob scoring (`ModelRegistry::estimate_knobs`)
//! and the benchmark's replay probe — can replay an entire plan through the
//! wave-level simulator instead of treating the simulator as a closed-form
//! latency oracle:
//!
//! * a **kept** layer lowers to the library path (cuDNN `IMPLICIT_GEMM`, the
//!   same cost model the paper's end-to-end runs fix for "other layers");
//! * a **decomposed** layer lowers to the paper's three-stage Tucker pipeline:
//!   1×1 channel reduction → the specialised TDC core kernel at the decision's
//!   tiling → 1×1 channel expansion;
//! * the classifier lowers to a GEMV per FC layer via [`fc_gemv_launch`].
//!
//! Batching scales every launch with [`KernelLaunch::scaled_batch`]: the grid
//! and the traffic grow with the batch while per-block cost is unchanged,
//! which is exactly how a batched convolution fills more waves.

use crate::pipeline::CompressionPlan;
use crate::rank_select::{Decision, LayerDecision};
use crate::{Result, TdcError};
use tdc_conv::cost::{ConvCostModel, CudnnGemmCost};
use tdc_conv::ConvShape;
use tdc_gpu_sim::{DeviceSpec, KernelLaunch};

/// The kernel sequence one layer of a plan executes.
#[derive(Debug, Clone)]
pub struct LoweredLayer {
    /// Index of the layer in the plan's decision list (FC layers appended by
    /// [`lower_plan_with_fc`] continue the numbering past the convolutions).
    pub layer_index: usize,
    /// Human-readable label, e.g. `"conv3 (tucker r=8x12)"`.
    pub label: String,
    /// Whether the layer runs in Tucker-decomposed form.
    pub decomposed: bool,
    /// The dependent kernel launches of this layer, in execution order.
    pub launches: Vec<KernelLaunch>,
}

impl LoweredLayer {
    /// Total launches in this layer.
    pub fn kernel_count(&self) -> usize {
        self.launches.len()
    }
}

/// The GEMV launch of a batch-1 fully-connected layer (memory bound on the
/// weight matrix). This is the same descriptor `tdc::inference` prices FC
/// layers with.
pub fn fc_gemv_launch(in_features: usize, out_features: usize) -> KernelLaunch {
    KernelLaunch::new("fc_gemv", out_features.div_ceil(128).max(1), 128)
        .with_regs(32)
        .with_flops_per_block(2.0 * in_features as f64 * 128.0)
        .with_global_traffic(
            (in_features * out_features) as f64 * 4.0,
            out_features as f64 * 4.0,
        )
}

/// Lower one layer decision to its kernel sequence for a batch of
/// `batch_size` samples.
pub fn lower_decision(
    decision: &LayerDecision,
    device: &DeviceSpec,
    batch_size: usize,
) -> Result<LoweredLayer> {
    if batch_size == 0 {
        return Err(TdcError::BadConfig {
            reason: "cannot lower a zero-sample batch".into(),
        });
    }
    let shape = decision.shape;
    let (label, decomposed, launches) = match decision.decision {
        Decision::Keep { .. } => (
            format!("conv{} (dense)", decision.layer_index),
            false,
            CudnnGemmCost.launches(&shape, device),
        ),
        Decision::Decompose { rank, tiling, .. } => {
            let core_shape = shape.with_ranks(rank.d1, rank.d2);
            let first = ConvShape::pointwise(shape.c, rank.d1, shape.h, shape.w);
            let last = ConvShape::pointwise(rank.d2, shape.n, shape.out_h(), shape.out_w());
            let mut seq = CudnnGemmCost.launches(&first, device);
            seq.push(tiling.kernel_launch(&core_shape, device));
            seq.extend(CudnnGemmCost.launches(&last, device));
            (
                format!(
                    "conv{} (tucker r={}x{})",
                    decision.layer_index, rank.d1, rank.d2
                ),
                true,
                seq,
            )
        }
    };
    let launches = launches
        .into_iter()
        .map(|k| k.scaled_batch(batch_size))
        .collect();
    Ok(LoweredLayer {
        layer_index: decision.layer_index,
        label,
        decomposed,
        launches,
    })
}

/// Lower every convolution layer of a plan to its kernel sequence for a batch
/// of `batch_size` samples.
pub fn lower_plan(
    plan: &CompressionPlan,
    device: &DeviceSpec,
    batch_size: usize,
) -> Result<Vec<LoweredLayer>> {
    plan.decisions
        .iter()
        .map(|d| lower_decision(d, device, batch_size))
        .collect()
}

/// [`lower_plan`] plus the classifier: each `(in, out)` FC layer is appended
/// as one GEMV launch, continuing the layer numbering past the convolutions.
pub fn lower_plan_with_fc(
    plan: &CompressionPlan,
    fc: &[(usize, usize)],
    device: &DeviceSpec,
    batch_size: usize,
) -> Result<Vec<LoweredLayer>> {
    let mut layers = lower_plan(plan, device, batch_size)?;
    for (i, &(fc_in, fc_out)) in fc.iter().enumerate() {
        layers.push(LoweredLayer {
            layer_index: plan.decisions.len() + i,
            label: format!("fc{i} ({fc_in}x{fc_out})"),
            decomposed: false,
            launches: vec![fc_gemv_launch(fc_in, fc_out).scaled_batch(batch_size)],
        });
    }
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiling::TilingStrategy;
    use crate::TdcPipeline;
    use tdc_gpu_sim::WaveEngine;
    use tdc_nn::models::resnet18_descriptor;

    fn plan() -> CompressionPlan {
        TdcPipeline::new(DeviceSpec::a100(), TilingStrategy::Model)
            .plan(&resnet18_descriptor(), 0.6)
            .unwrap()
    }

    #[test]
    fn lowering_covers_every_layer_and_runs_on_the_engine() {
        let plan = plan();
        let device = DeviceSpec::a100();
        let layers = lower_plan(&plan, &device, 1).unwrap();
        assert_eq!(layers.len(), plan.decisions.len());
        let engine = WaveEngine::new(device);
        for layer in &layers {
            let d = &plan.decisions[layer.layer_index];
            match d.decision {
                Decision::Keep { .. } => {
                    assert!(!layer.decomposed);
                    assert_eq!(layer.kernel_count(), 1);
                }
                Decision::Decompose { .. } => {
                    assert!(layer.decomposed);
                    assert_eq!(layer.kernel_count(), 3, "1x1 -> core -> 1x1");
                }
            }
            // Every lowered launch must be simulatable as-is.
            let stats = engine.run_sequence_stats(&layer.launches).unwrap();
            assert!(stats.total_ms > 0.0, "{}", layer.label);
        }
        assert!(layers.iter().any(|l| l.decomposed));
    }

    #[test]
    fn batch_scaling_grows_simulated_latency_sublinearly_at_small_grids() {
        // A batch fills the machine better than repeating batch-1 launches:
        // simulated time grows with batch but by less than the batch factor
        // for layers whose batch-1 grid underfills the device.
        let plan = plan();
        let device = DeviceSpec::a100();
        let engine = WaveEngine::new(device.clone());
        let core_layer = lower_plan(&plan, &device, 1)
            .unwrap()
            .into_iter()
            .find(|l| l.decomposed)
            .unwrap();
        let one = engine.run_sequence_stats(&core_layer.launches).unwrap();
        let eight = engine
            .run_sequence_stats(
                &lower_plan(&plan, &device, 8).unwrap()[core_layer.layer_index].launches,
            )
            .unwrap();
        assert!(eight.total_ms > one.total_ms);
        assert!(eight.total_ms < one.total_ms * 8.0);
    }

    #[test]
    fn fc_layers_are_appended_with_continued_indices() {
        let plan = plan();
        let device = DeviceSpec::a100();
        let fc = [(512, 1000)];
        let layers = lower_plan_with_fc(&plan, &fc, &device, 2).unwrap();
        assert_eq!(layers.len(), plan.decisions.len() + 1);
        let fc_layer = layers.last().unwrap();
        assert_eq!(fc_layer.layer_index, plan.decisions.len());
        assert!(fc_layer.label.starts_with("fc0"));
        assert_eq!(fc_layer.kernel_count(), 1);
    }

    #[test]
    fn zero_batch_is_rejected() {
        let plan = plan();
        assert!(matches!(
            lower_plan(&plan, &DeviceSpec::a100(), 0),
            Err(TdcError::BadConfig { .. })
        ));
    }
}
