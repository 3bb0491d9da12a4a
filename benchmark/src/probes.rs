//! Layer probes of the traced pass: rebuild the operands a model's plan
//! implies (same shapes, seeded values), time each layer's public function
//! on them, and report the median, summed over the model's layers.
//!
//! The leaf probes call the slice-level functions the arena hot path itself
//! calls (`gemm_blocked_into`, `im2col_into`, `conv2d_rscn_into`), so their
//! sum can be held against `CompressedModel::forward_in` and what is left
//! over is the glue (`model.glue_share`). Every probe runs on the served
//! model of the workload, whichever workload that is.

use crate::bench::{ms_between, Fallible, Layer};
use crate::catalog::{planning, ModelDef};
use crate::stats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tdc::rank_select::Decision;
use tdc::{lower_plan_with_fc, CompressionPlan, TdcPipeline};
use tdc_conv::{direct, im2col, layout, ConvShape};
use tdc_gpu_sim::WaveEngine;
use tdc_serve::{BufferPool, CompressedModel, RuntimeOptions, ScratchArena};
use tdc_tensor::matmul::gemm_blocked_into;
use tdc_tensor::{init, Tensor};
use tdc_tucker::tkd::tucker2;
use tdc_tucker::TuckerConv;

/// Calls per probe of a fast function.
const CALLS: usize = 200;
/// Calls per probe of a slow one (decomposition, planning, lowering).
const SLOW_CALLS: usize = 5;

/// Median duration of `calls` invocations of `f` after three unmeasured
/// ones, ms.
fn time_p50(calls: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let started = Instant::now();
            f();
            ms_between(started, Instant::now())
        })
        .collect();
    stats::median(&samples)
}

fn seeded(dims: Vec<usize>, rng: &mut StdRng) -> Tensor {
    init::uniform(dims, -1.0, 1.0, rng)
}

/// A GEMM probe: `m×k · k×n` through `gemm_blocked_into`; returns its
/// median ms.
fn gemm_ms(m: usize, k: usize, n: usize, rng: &mut StdRng) -> f64 {
    let a = seeded(vec![m, k], rng);
    let b = seeded(vec![k, n], rng);
    let mut out = vec![0.0f32; m * n];
    time_p50(CALLS, || {
        gemm_blocked_into(black_box(a.data()), black_box(b.data()), &mut out, m, k, n);
        black_box(&mut out);
    })
}

fn gemm_flops(m: usize, k: usize, n: usize) -> f64 {
    2.0 * (m * k * n) as f64
}

/// Bytes one `m×k · k×n` f32 GEMM reads and writes, computed from its shape.
fn gemm_bytes(m: usize, k: usize, n: usize) -> f64 {
    4.0 * (m * k + k * n + m * n) as f64
}

/// Median leaf times of one convolution layer, ms.
struct LayerLeaves {
    /// Kept dense: `im2col_into` alone, and its GEMM.
    im2col_ms: f64,
    im2col_gemm_ms: f64,
    /// Decomposed (when the default plan decomposes the layer): the two
    /// 1×1 GEMMs together, and the rank-space core convolution.
    tucker: Option<(f64, f64)>,
}

/// Time the kernels under `model`'s four conv shapes, dense and (at the
/// default plan's ranks) Tucker-decomposed, and emit the `tensor.*`,
/// `conv.*` and `tucker.*` metrics. Returns the per-layer leaf times.
fn kernel_layers(
    descriptor_convs: &[ConvShape],
    tucker_plan: &CompressionPlan,
    layer: &mut Layer,
) -> Fallible<Vec<LayerLeaves>> {
    let mut rng = StdRng::seed_from_u64(0x7DC_B0B5);
    let mut leaves = Vec::new();
    let (mut flops_1x1, mut flops_im2col) = (0.0, 0.0);
    let (mut conv_ms, mut decompose_ms) = (0.0, 0.0);
    for (shape, decision) in descriptor_convs.iter().zip(&tucker_plan.decisions) {
        let (m, kdim) = (shape.out_h() * shape.out_w(), shape.c * shape.r * shape.s);
        let input = seeded(shape.input_dims(), &mut rng);
        let kernel = seeded(shape.kernel_dims(), &mut rng);

        let mut patches = vec![0.0f32; m * kdim];
        let im2col_ms = time_p50(CALLS, || {
            im2col::im2col_into(black_box(input.data()), &mut patches, shape);
            black_box(&mut patches);
        });
        let im2col_gemm_ms = gemm_ms(m, kdim, shape.n, &mut rng);
        flops_im2col += gemm_flops(m, kdim, shape.n);

        let tucker = match decision.decision {
            Decision::Keep { .. } => None,
            Decision::Decompose { rank, .. } => {
                let (hw, d1, d2) = (shape.h * shape.w, rank.d1, rank.d2);
                let gemm_1x1 =
                    gemm_ms(hw, shape.c, d1, &mut rng) + gemm_ms(m, d2, shape.n, &mut rng);
                flops_1x1 += gemm_flops(hw, shape.c, d1) + gemm_flops(m, d2, shape.n);

                let factors = tucker2(&kernel, d1, d2).map_err(|e| format!("tucker2: {e}"))?;
                let conv = TuckerConv::from_factors(*shape, &factors)
                    .map_err(|e| format!("TuckerConv::from_factors: {e}"))?;
                let core_shape = conv.core_shape();
                let core_rscn =
                    layout::cnrs_to_rscn(&conv.core).map_err(|e| format!("cnrs_to_rscn: {e}"))?;
                let z1 = seeded(core_shape.input_dims(), &mut rng);
                let mut z2 = vec![0.0f32; m * d2];
                let core_ms = time_p50(CALLS, || {
                    // The core convolution accumulates: it needs the zeroed
                    // output the arena's `take` hands the hot path.
                    z2.fill(0.0);
                    direct::conv2d_rscn_into(
                        black_box(z1.data()),
                        black_box(core_rscn.data()),
                        &mut z2,
                        &core_shape,
                    );
                    black_box(&mut z2);
                });
                conv_ms += time_p50(CALLS, || {
                    black_box(conv.forward(black_box(&input)).expect("probe shapes match"));
                });
                decompose_ms += time_p50(SLOW_CALLS, || {
                    black_box(tucker2(black_box(&kernel), d1, d2).expect("ranks from the plan"));
                });
                Some((gemm_1x1, core_ms))
            }
        };
        leaves.push(LayerLeaves {
            im2col_ms,
            im2col_gemm_ms,
            tucker,
        });
    }

    let gemm_1x1_ms: f64 = leaves.iter().filter_map(|l| l.tucker).map(|t| t.0).sum();
    let core_ms: f64 = leaves.iter().filter_map(|l| l.tucker).map(|t| t.1).sum();
    let gemm_im2col_ms: f64 = leaves.iter().map(|l| l.im2col_gemm_ms).sum();
    let im2col_self_ms: f64 = leaves.iter().map(|l| l.im2col_ms).sum();
    let gflops = |flops: f64, ms: f64| if ms > 0.0 { flops / (ms * 1e6) } else { 0.0 };
    layer.extend([
        ("tensor.gemm_1x1_ms", gemm_1x1_ms),
        ("tensor.gemm_1x1_gflops", gflops(flops_1x1, gemm_1x1_ms)),
        ("tensor.gemm_im2col_ms", gemm_im2col_ms),
        (
            "tensor.gemm_im2col_gflops",
            gflops(flops_im2col, gemm_im2col_ms),
        ),
        ("conv.im2col_ms", im2col_self_ms + gemm_im2col_ms),
        ("conv.im2col_self_ms", im2col_self_ms),
        ("conv.core_ms", core_ms),
        ("tucker.conv_ms", conv_ms),
        ("tucker.conv_self_ms", conv_ms - gemm_1x1_ms - core_ms),
        ("tucker.decompose_ms", decompose_ms),
    ]);
    Ok(leaves)
}

/// Bytes the GEMMs of one forward pass under `plan` move (two 1×1 GEMMs per
/// decomposed layer, one im2col GEMM per kept one) — computed from shapes,
/// not measured.
fn gemm_bytes_per_op(plan: &CompressionPlan) -> f64 {
    plan.decisions
        .iter()
        .map(|d| {
            let shape = &d.shape;
            let m = shape.out_h() * shape.out_w();
            match d.decision {
                Decision::Keep { .. } => gemm_bytes(m, shape.c * shape.r * shape.s, shape.n),
                Decision::Decompose { rank, .. } => {
                    gemm_bytes(shape.h * shape.w, shape.c, rank.d1)
                        + gemm_bytes(m, rank.d2, shape.n)
                }
            }
        })
        .sum()
}

/// Replay `plan`'s kernel launches for one image on the wave engine of the
/// planner's device model. Returns (simulated ms, kernel count, median host
/// ms to lower, median host ms to replay).
fn replay(plan: &CompressionPlan, fc: &[(usize, usize)]) -> Fallible<(f64, usize, f64, f64)> {
    let device = planning(false).device;
    let lower = || lower_plan_with_fc(plan, fc, &device, 1).map_err(|e| format!("lowering: {e}"));
    let layers = lower()?;
    let lower_ms = time_p50(SLOW_CALLS, || {
        black_box(lower().expect("lowered once already"));
    });
    let engine = WaveEngine::new(device.clone());
    let run = || -> Fallible<f64> {
        let mut total = 0.0;
        for l in &layers {
            total += engine
                .sequence_total_ms(&l.launches)
                .map_err(|e| format!("replaying {}: {e}", l.label))?;
        }
        Ok(total)
    };
    let simulated_ms = run()?;
    let replay_ms = time_p50(SLOW_CALLS, || {
        black_box(run().expect("replayed once already"));
    });
    let kernels = layers.iter().map(|l| l.kernel_count()).sum();
    Ok((simulated_ms, kernels, lower_ms, replay_ms))
}

/// Every probe of one served model: the kernels under its shapes, planning
/// (warm re-plan, lowering, simulated-GPU replay) and the whole forward pass
/// with its glue share. `plan` and `served` are what the workload runs.
pub fn model_layers(
    model: &ModelDef,
    keep_dense: bool,
    plan: &CompressionPlan,
    served: &CompressedModel,
    input: &Tensor,
    layer: &mut Layer,
) -> Fallible<()> {
    let descriptor = model.descriptor();
    let plan_with = |keep_dense: bool| {
        let options = planning(keep_dense);
        TdcPipeline::new(options.device.clone(), options.strategy)
            .plan_with_config(&descriptor, &options.selection_config())
            .map_err(|e| format!("re-planning {}: {e}", model.name))
    };
    // The process planned this model during set-up: these are warm.
    let tucker_plan = plan_with(false)?;
    let dense_plan = plan_with(true)?;
    layer.push((
        "core.plan_warm_ms",
        time_p50(SLOW_CALLS, || {
            black_box(plan_with(keep_dense).expect("planned once already"));
        }),
    ));
    let decomposed = plan.decisions.iter().filter(|d| d.rank().is_some()).count();
    layer.extend([
        ("core.decomposed_layers", decomposed as f64),
        ("core.flops_reduction", plan.achieved_reduction),
        ("tensor.gemm_bytes_per_op", gemm_bytes_per_op(plan)),
    ]);

    let (sim_ms, kernels, lower_ms, replay_ms) = replay(plan, &descriptor.fc)?;
    let (original_ms, ..) = replay(&dense_plan, &descriptor.fc)?;
    layer.extend([
        ("core.lower_ms", lower_ms),
        ("gpu_sim.replay_ms", replay_ms),
        ("gpu_sim.ms_per_image", sim_ms),
        ("gpu_sim.speedup_vs_original", original_ms / sim_ms),
        ("gpu_sim.kernels_per_image", kernels as f64),
    ]);

    let leaves = kernel_layers(&descriptor.convs, &tucker_plan, layer)?;

    let seed = RuntimeOptions::default().seed;
    layer.push((
        "model.materialize_ms",
        time_p50(SLOW_CALLS, || {
            black_box(
                CompressedModel::materialize(&descriptor, plan, seed).expect("materialised once"),
            );
        }),
    ));
    let mut arena = ScratchArena::new(Arc::new(BufferPool::new()));
    let forward_ms = time_p50(CALLS, || {
        let output = served
            .forward_in(black_box(input), &mut arena)
            .expect("the workload already forwarded this input");
        arena.give(black_box(output).into_data());
    });
    // What the served plan's layers cost as bare kernels; the rest of the
    // forward pass is glue (arena traffic, zero-fills, pooling, the FC).
    let leaf_ms: f64 = plan
        .decisions
        .iter()
        .zip(&leaves)
        .map(|(d, l)| match (d.rank(), l.tucker) {
            (Some(_), Some((gemm, core))) => gemm + core,
            _ => l.im2col_ms + l.im2col_gemm_ms,
        })
        .sum();
    layer.extend([
        ("model.forward_ms", forward_ms),
        ("model.glue_share", 1.0 - leaf_ms / forward_ms),
    ]);
    Ok(())
}
