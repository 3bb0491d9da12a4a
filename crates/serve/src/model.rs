//! The serving executor: a compressed network materialized with real weights,
//! running real CPU forward passes.
//!
//! A [`CompressedModel`] is built from a model descriptor plus the per-layer
//! decisions of a [`tdc::CompressionPlan`]:
//!
//! * layers the plan **keeps dense** execute as an implicit GEMM
//!   ([`im2col::conv2d_implicit_into`], the cuDNN `IMPLICIT_GEMM` analogue the
//!   paper keeps for "other layers") on the serving path, and as im2col + GEMM
//!   in the bit-exact reference [`CompressedModel::forward`];
//! * layers the plan **decomposes** execute the paper's three-stage Tucker-2
//!   pipeline (1×1 → R×S core → 1×1) via [`tdc_tucker::TuckerConv`], with the
//!   factors obtained by Tucker-2 decomposition of the materialized kernel.
//!
//! Weights are drawn from a seeded RNG, so a `(descriptor, plan, seed)`
//! triple always materializes the identical network — the property the
//! serving tests lean on for deterministic batched outputs.

use crate::arena::ScratchArena;
use crate::{Result, ServeError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tdc::rank_select::Decision;
use tdc::CompressionPlan;
use tdc_conv::{direct, im2col, layout, ConvShape};
use tdc_nn::models::ModelDescriptor;
use tdc_tensor::matmul::{gemm_blocked_into, matmul};
use tdc_tensor::{init, Tensor};
use tdc_tucker::tkd::tucker2;
use tdc_tucker::TuckerConv;

/// Most weights (convolution kernels plus FC matrices) a servable
/// descriptor may hold: 2^28, 1 GiB of `f32`, about 1.9× the 138 M of
/// VGG-16, the largest network in `tdc_nn::models`.
pub const MAX_MODEL_WEIGHTS: usize = 1 << 28;

/// Most elements one convolution's largest tensor may hold — its input, its
/// zero-padded input, its output or its im2col column matrix
/// (`H'·W' × C·R·S`): 2^26, 256 MiB of
/// `f32`, about 2.3× the 28.9 M-element column matrix of VGG-16's second
/// layer, the largest in `tdc_nn::models`.
pub const MAX_LAYER_ELEMS: usize = 1 << 26;

/// One executable layer of the compressed network.
enum LayerExec {
    /// Kept dense: original CNRS kernel, run as im2col + GEMM by
    /// [`CompressedModel::forward`]. The arena path runs it as an implicit
    /// GEMM against `kpack`, the kernel matrix packed into column panels
    /// ([`im2col::pack_kernel`]) once at materialization.
    Dense {
        shape: ConvShape,
        kernel: Tensor,
        kpack: Vec<f32>,
    },
    /// Decomposed: the three-stage Tucker-2 convolution. The core kernel is
    /// additionally cached in RSCN layout so the arena hot path runs the
    /// vectorised [`direct::conv2d_rscn_into`] form.
    Tucker {
        conv: Box<TuckerConv>,
        core_rscn: Tensor,
    },
}

/// A compressed network materialized for serving.
pub struct CompressedModel {
    /// Name copied from the descriptor.
    pub name: String,
    layers: Vec<LayerExec>,
    /// FC weight matrices, `in_features × out_features` each.
    fc: Vec<Tensor>,
    input_dims: Vec<usize>,
    output_classes: usize,
    decomposed_layers: usize,
}

impl CompressedModel {
    /// Check that `descriptor` is a network this executor can run: at least
    /// one convolution, every convolution a valid shape
    /// ([`ConvShape::is_valid`]) whose largest tensor fits
    /// [`MAX_LAYER_ELEMS`], each consuming the previous one's output, an FC
    /// chain that starts from the last convolution's channels, and at most
    /// [`MAX_MODEL_WEIGHTS`] weights in all.
    ///
    /// Engine construction runs this before planning, so a descriptor no
    /// convolution can execute, or one too large to materialize, fails as
    /// [`ServeError::BadConfig`] or [`ServeError::NotAChain`] instead of
    /// reaching the planner's arithmetic or the allocator.
    pub fn validate(descriptor: &ModelDescriptor) -> Result<()> {
        // Saturating: an overflowing count saturates past either bound.
        let elems = |factors: &[usize]| factors.iter().fold(1usize, |n, &f| n.saturating_mul(f));
        if descriptor.convs.is_empty() {
            return Err(ServeError::BadConfig {
                reason: "descriptor has no convolutions".into(),
            });
        }
        let mut weights = 0usize;
        for (i, shape) in descriptor.convs.iter().enumerate() {
            if !shape.is_valid() {
                return Err(ServeError::BadConfig {
                    reason: format!("layer {i} is not a valid convolution: {shape}"),
                });
            }
            let (out_h, out_w) = (shape.out_h(), shape.out_w());
            let padded = |extent: usize| extent.saturating_add(shape.pad.saturating_mul(2));
            let largest = elems(&[shape.h, shape.w, shape.c])
                .max(elems(&[padded(shape.h), padded(shape.w), shape.c]))
                .max(elems(&[out_h, out_w, shape.n]))
                .max(elems(&[out_h, out_w, shape.c, shape.r, shape.s]));
            if largest > MAX_LAYER_ELEMS {
                return Err(ServeError::BadConfig {
                    reason: format!(
                        "layer {i} needs a tensor of {largest} elements, over the \
                         {MAX_LAYER_ELEMS}-element bound: {shape}"
                    ),
                });
            }
            weights = weights.saturating_add(elems(&[shape.c, shape.n, shape.r, shape.s]));
        }
        for (i, pair) in descriptor.convs.windows(2).enumerate() {
            if pair[0].output_dims() != pair[1].input_dims() {
                return Err(ServeError::NotAChain {
                    layer_index: i + 1,
                    reason: format!(
                        "layer {} produces {:?} but layer {} consumes {:?}",
                        i,
                        pair[0].output_dims(),
                        i + 1,
                        pair[1].input_dims()
                    ),
                });
            }
        }
        let mut features = descriptor.convs[descriptor.convs.len() - 1].n;
        for (i, &(fc_in, fc_out)) in descriptor.fc.iter().enumerate() {
            if fc_in != features {
                return Err(ServeError::NotAChain {
                    layer_index: descriptor.convs.len() + i,
                    reason: format!(
                        "FC layer {i} consumes {fc_in} features but receives {features}"
                    ),
                });
            }
            features = fc_out;
            weights = weights.saturating_add(elems(&[fc_in, fc_out]));
        }
        if weights > MAX_MODEL_WEIGHTS {
            return Err(ServeError::BadConfig {
                reason: format!(
                    "descriptor holds {weights} weights, over the {MAX_MODEL_WEIGHTS}-weight bound"
                ),
            });
        }
        Ok(())
    }

    /// Materialize the network for `descriptor` following `plan`'s per-layer
    /// decisions, drawing weights from a RNG seeded with `seed`.
    ///
    /// The descriptor must pass [`CompressedModel::validate`] and the plan
    /// must have been produced for this descriptor.
    pub fn materialize(
        descriptor: &ModelDescriptor,
        plan: &CompressionPlan,
        seed: u64,
    ) -> Result<Self> {
        Self::validate(descriptor)?;
        if plan.decisions.len() != descriptor.convs.len() {
            return Err(ServeError::BadConfig {
                reason: format!(
                    "plan covers {} layers but descriptor has {}",
                    plan.decisions.len(),
                    descriptor.convs.len()
                ),
            });
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(descriptor.convs.len());
        let mut decomposed_layers = 0usize;
        for (shape, decision) in descriptor.convs.iter().zip(plan.decisions.iter()) {
            if decision.shape != *shape {
                return Err(ServeError::BadConfig {
                    reason: format!(
                        "plan decision for layer {} is for shape {} but the descriptor has {}",
                        decision.layer_index, decision.shape, shape
                    ),
                });
            }
            // Xavier-style scale keeps activations bounded through the chain.
            let fan = (shape.c * shape.r * shape.s) as f32;
            let bound = (3.0 / fan).sqrt();
            let kernel = init::uniform(shape.kernel_dims(), -bound, bound, &mut rng);
            layers.push(match decision.decision {
                Decision::Keep { .. } => LayerExec::Dense {
                    shape: *shape,
                    kpack: im2col::pack_kernel(&kernel, shape)?,
                    kernel,
                },
                Decision::Decompose { rank, .. } => {
                    let factors = tucker2(&kernel, rank.d1, rank.d2)?;
                    decomposed_layers += 1;
                    let conv = Box::new(TuckerConv::from_factors(*shape, &factors)?);
                    let core_rscn = layout::cnrs_to_rscn(&conv.core)?;
                    LayerExec::Tucker { conv, core_rscn }
                }
            });
        }

        let mut fc = Vec::with_capacity(descriptor.fc.len());
        let mut features = descriptor.convs[descriptor.convs.len() - 1].n;
        for &(fc_in, fc_out) in &descriptor.fc {
            let bound = (3.0 / fc_in as f32).sqrt();
            fc.push(init::uniform(vec![fc_in, fc_out], -bound, bound, &mut rng));
            features = fc_out;
        }

        Ok(CompressedModel {
            name: descriptor.name.clone(),
            input_dims: descriptor.convs[0].input_dims(),
            layers,
            fc,
            output_classes: features,
            decomposed_layers,
        })
    }

    /// Expected HWC input dims.
    pub fn input_dims(&self) -> &[usize] {
        &self.input_dims
    }

    /// Number of output logits.
    pub fn output_classes(&self) -> usize {
        self.output_classes
    }

    /// How many layers run in Tucker-decomposed form.
    pub fn decomposed_layers(&self) -> usize {
        self.decomposed_layers
    }

    /// Total parameter count actually held by the executor (decomposed layers
    /// store factors, not the dense kernel).
    pub fn num_params(&self) -> usize {
        let conv: usize = self
            .layers
            .iter()
            .map(|l| match l {
                LayerExec::Dense { kernel, .. } => kernel.numel(),
                LayerExec::Tucker { conv, .. } => conv.num_params(),
            })
            .sum();
        let fc: usize = self.fc.iter().map(Tensor::numel).sum();
        conv + fc
    }

    /// Run one sample (HWC) through the network: convolution chain, global
    /// average pooling, FC layers. Returns the logits.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        if input.dims() != self.input_dims.as_slice() {
            return Err(ServeError::BadInput {
                expected: self.input_dims.clone(),
                actual: input.dims().to_vec(),
            });
        }
        let mut x = input.clone();
        for layer in &self.layers {
            x = match layer {
                LayerExec::Dense { shape, kernel, .. } => im2col::conv2d(&x, kernel, shape)?,
                LayerExec::Tucker { conv, .. } => conv.forward(&x)?,
            };
        }
        // Global average pooling: HWC -> C.
        let dims = x.dims().to_vec();
        let (h, w, c) = (dims[0], dims[1], dims[2]);
        let data = x.data();
        let mut pooled = vec![0.0f32; c];
        for pos in 0..h * w {
            for (ch, p) in pooled.iter_mut().enumerate() {
                *p += data[pos * c + ch];
            }
        }
        let scale = 1.0 / (h * w) as f32;
        for p in &mut pooled {
            *p *= scale;
        }
        let mut features = Tensor::from_vec(vec![1, c], pooled)?;
        for weights in &self.fc {
            features = matmul(&features, weights)?;
        }
        features
            .reshape(vec![self.output_classes])
            .map_err(Into::into)
    }

    /// [`CompressedModel::forward`] staging every intermediate — zero-padded
    /// inputs, Tucker stage outputs, pooled features and the returned logits —
    /// in `arena` instead of allocating.
    ///
    /// Kept-dense layers run as an implicit GEMM
    /// ([`im2col::conv2d_implicit_into`]), which never writes the patch
    /// matrix, and Tucker cores as [`direct::conv2d_rscn_into`]; the 1×1
    /// stages and FC layers run [`gemm_blocked_into`]. Bit-identical to
    /// [`CompressedModel::forward`] on finite inputs: per output element each
    /// kernel performs the same f32 operations in the same order as the
    /// reference's im2col + GEMM and [`direct::conv2d`], only the loop tiling
    /// and the buffers' provenance differ. On a warm arena this path performs
    /// zero f32 allocations; the returned tensor's storage comes from the
    /// pool and is expected to be recycled by the caller once serialized.
    pub fn forward_in(&self, input: &Tensor, arena: &mut ScratchArena) -> Result<Tensor> {
        if input.dims() != self.input_dims.as_slice() {
            return Err(ServeError::BadInput {
                expected: self.input_dims.clone(),
                actual: input.dims().to_vec(),
            });
        }

        // Current activation: `None` means "still the caller's input", which
        // avoids copying the input tensor into the arena.
        let mut cur: Option<Vec<f32>> = None;
        let (mut h, mut w, mut c) = (self.input_dims[0], self.input_dims[1], self.input_dims[2]);
        for layer in &self.layers {
            let src: &[f32] = cur.as_deref().unwrap_or_else(|| input.data());
            let next = match layer {
                LayerExec::Dense { shape, kpack, .. } => {
                    // The padding copy and the implicit GEMM write every
                    // element, so neither buffer needs the zero-fill.
                    let mut out = arena.take_full(shape.out_h() * shape.out_w() * shape.n);
                    if shape.pad == 0 {
                        im2col::conv2d_implicit_into(src, kpack, &mut out, shape);
                    } else {
                        let (ph, pw) = (h + 2 * shape.pad, w + 2 * shape.pad);
                        let mut xpad = arena.take_full(ph * pw * c);
                        layout::pad_hwc_into(src, &mut xpad, shape);
                        im2col::conv2d_implicit_into(&xpad, kpack, &mut out, shape);
                        arena.give(xpad);
                    }
                    (h, w, c) = (shape.out_h(), shape.out_w(), shape.n);
                    out
                }
                LayerExec::Tucker { conv: t, core_rscn } => {
                    // Stage 1: 1×1 channel reduction, a (H·W × C)·(C × D1)
                    // GEMM — exactly what `conv1x1` lowers to.
                    let d1 = t.u1.dims()[1];
                    let mut z1 = arena.take_full(h * w * d1);
                    gemm_blocked_into(src, t.u1.data(), &mut z1, h * w, c, d1);
                    // Stage 2: R×S core convolution in the rank space, run
                    // against the RSCN copy of the core cached at
                    // materialization (same values, same accumulation order,
                    // vectorisable layout).
                    let core_shape = t.core_shape();
                    let (oh, ow, d2) = (core_shape.out_h(), core_shape.out_w(), core_shape.n);
                    // `z2` must be zero-filled: the core conv accumulates
                    // into it rather than overwriting.
                    let mut z2 = arena.take(oh * ow * d2);
                    direct::conv2d_rscn_into(&z1, core_rscn.data(), &mut z2, &core_shape);
                    arena.give(z1);
                    // Stage 3: 1×1 channel restoration.
                    let n = t.u2_t.dims()[1];
                    let mut out = arena.take_full(oh * ow * n);
                    gemm_blocked_into(&z2, t.u2_t.data(), &mut out, oh * ow, d2, n);
                    arena.give(z2);
                    (h, w, c) = (oh, ow, n);
                    out
                }
            };
            if let Some(prev) = cur.take() {
                arena.give(prev);
            }
            cur = Some(next);
        }

        // Global average pooling: HWC -> C. Same accumulation loop as
        // `forward`.
        let data: &[f32] = cur.as_deref().unwrap_or_else(|| input.data());
        // `pooled` is an accumulator — it needs the zeroing take.
        let mut pooled = arena.take(c);
        for pos in 0..h * w {
            for (ch, p) in pooled.iter_mut().enumerate() {
                *p += data[pos * c + ch];
            }
        }
        let scale = 1.0 / (h * w) as f32;
        for p in &mut pooled {
            *p *= scale;
        }
        if let Some(prev) = cur.take() {
            arena.give(prev);
        }

        let mut features = pooled;
        let mut width = c;
        for weights in &self.fc {
            let fc_out = weights.dims()[1];
            let mut out = arena.take_full(fc_out);
            gemm_blocked_into(&features, weights.data(), &mut out, 1, width, fc_out);
            arena.give(features);
            features = out;
            width = fc_out;
        }
        debug_assert_eq!(width, self.output_classes);
        Ok(Tensor::from_vec(vec![self.output_classes], features)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving_descriptor;
    use tdc::rank_select::RankSelectionConfig;
    use tdc::tiling::TilingStrategy;
    use tdc::TdcPipeline;
    use tdc_gpu_sim::DeviceSpec;

    fn small_plan(descriptor: &ModelDescriptor) -> CompressionPlan {
        let pipeline = TdcPipeline::new(DeviceSpec::a100(), TilingStrategy::Model);
        let cfg = RankSelectionConfig {
            budget: 0.5,
            theta: 0.0,
            strategy: TilingStrategy::Model,
            rank_step: 4,
        };
        pipeline.plan_with_config(descriptor, &cfg).unwrap()
    }

    #[test]
    fn materialized_model_runs_and_compresses_some_layers() {
        let descriptor = serving_descriptor("svc", 12, 8, 10);
        let plan = small_plan(&descriptor);
        let model = CompressedModel::materialize(&descriptor, &plan, 7).unwrap();
        assert!(
            model.decomposed_layers() > 0,
            "expected at least one Tucker layer"
        );
        assert_eq!(model.input_dims(), &[12, 12, 8]);
        assert_eq!(model.output_classes(), 10);

        let mut rng = StdRng::seed_from_u64(3);
        let input = init::uniform(vec![12, 12, 8], -1.0, 1.0, &mut rng);
        let logits = model.forward(&input).unwrap();
        assert_eq!(logits.dims(), &[10]);
        assert!(logits.is_finite());
    }

    #[test]
    fn same_seed_materializes_identical_outputs() {
        let descriptor = serving_descriptor("svc", 10, 4, 6);
        let plan = small_plan(&descriptor);
        let a = CompressedModel::materialize(&descriptor, &plan, 11).unwrap();
        let b = CompressedModel::materialize(&descriptor, &plan, 11).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let input = init::uniform(vec![10, 10, 4], -1.0, 1.0, &mut rng);
        assert_eq!(a.forward(&input).unwrap(), b.forward(&input).unwrap());
        // A different seed gives a genuinely different network.
        let c = CompressedModel::materialize(&descriptor, &plan, 12).unwrap();
        assert_ne!(a.forward(&input).unwrap(), c.forward(&input).unwrap());
    }

    #[test]
    fn arena_forward_is_bit_identical_to_plain_forward() {
        use crate::arena::{BufferPool, ScratchArena};
        use std::sync::Arc;

        let descriptor = serving_descriptor("svc", 12, 8, 10);
        let plan = small_plan(&descriptor);
        let model = CompressedModel::materialize(&descriptor, &plan, 7).unwrap();
        let mut arena = ScratchArena::new(Arc::new(BufferPool::new()));
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..3 {
            let input = init::uniform(vec![12, 12, 8], -1.0, 1.0, &mut rng);
            let plain = model.forward(&input).unwrap();
            let staged = model.forward_in(&input, &mut arena).unwrap();
            assert_eq!(plain, staged, "arena forward diverged bitwise");
            // Recycle the output like the production loop does.
            arena.give(staged.into_data());
        }
    }

    #[test]
    fn a_padded_input_over_the_layer_bound_is_rejected() {
        // Every other tensor of this layer is tiny, but the zero-padded input
        // the serving path stages is 10001 × 10001.
        let wide_pad = ModelDescriptor {
            name: "wide-pad".into(),
            convs: vec![ConvShape::new(1, 1, 1, 1, 1, 1, 5000, 10_000)],
            fc: vec![(1, 2)],
        };
        assert!(wide_pad.convs[0].is_valid());
        assert!(matches!(
            CompressedModel::validate(&wide_pad),
            Err(ServeError::BadConfig { reason }) if reason.contains("element bound")
        ));
    }

    #[test]
    fn tucker_params_are_fewer_than_dense() {
        let descriptor = serving_descriptor("svc", 12, 8, 10);
        let plan = small_plan(&descriptor);
        let model = CompressedModel::materialize(&descriptor, &plan, 7).unwrap();
        assert!(model.num_params() < descriptor.total_params());
    }

    #[test]
    fn bad_inputs_and_mismatched_plans_are_rejected() {
        let descriptor = serving_descriptor("svc", 10, 4, 6);
        let plan = small_plan(&descriptor);
        let model = CompressedModel::materialize(&descriptor, &plan, 1).unwrap();
        assert!(model.forward(&Tensor::zeros(vec![10, 10, 3])).is_err());

        let other = serving_descriptor("other", 12, 4, 6);
        assert!(matches!(
            CompressedModel::materialize(&other, &plan, 1),
            Err(ServeError::BadConfig { .. })
        ));

        // A non-chain descriptor is rejected up front.
        let broken = ModelDescriptor {
            name: "broken".into(),
            convs: vec![
                ConvShape::same3x3(4, 8, 10, 10),
                ConvShape::same3x3(4, 8, 10, 10),
            ],
            fc: vec![(8, 3)],
        };
        let broken_plan = small_plan(&broken);
        assert!(matches!(
            CompressedModel::materialize(&broken, &broken_plan, 1),
            Err(ServeError::NotAChain { .. })
        ));
    }
}
