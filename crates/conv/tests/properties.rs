//! Property-based tests for the convolution crate: algorithm agreement on
//! randomly drawn shapes, layout round trips and cost-model sanity, and the
//! bit-identity of the serving kernels against their references.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use tdc_conv::cost::{algorithm_latency_ms, ConvAlgorithm};
use tdc_conv::{direct, im2col, layout, tdc_scheme, tvm_scheme, ConvShape, Tiling};
use tdc_gpu_sim::DeviceSpec;
use tdc_tensor::{init, Tensor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn im2col_agrees_with_direct_for_any_small_config(
        c in 1usize..5, n in 1usize..5, h in 3usize..9, w in 3usize..9,
        r in 1usize..4, pad in 0usize..2, stride in 1usize..3, seed in 0u64..1000
    ) {
        let shape = ConvShape::new(c, n, h.max(r), w.max(r), r, r, pad, stride);
        prop_assume!(shape.is_valid());
        let mut rng = StdRng::seed_from_u64(seed);
        let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
        let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
        let a = direct::conv2d(&input, &kernel, &shape).unwrap();
        let b = im2col::conv2d(&input, &kernel, &shape).unwrap();
        prop_assert!(a.relative_error(&b).unwrap() < 1e-3);
    }

    #[test]
    fn tdc_and_tvm_schemes_agree_with_direct_for_any_tiling(
        c in 1usize..6, n in 1usize..6, hw in 5usize..10,
        th in 1usize..6, tw in 1usize..6, tc in 1usize..6, seed in 0u64..1000
    ) {
        let shape = ConvShape::same3x3(c, n, hw, hw);
        let mut rng = StdRng::seed_from_u64(seed);
        let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
        let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
        let reference = direct::conv2d(&input, &kernel, &shape).unwrap();

        let tiling = Tiling::new(th.min(shape.out_h()), tw.min(shape.out_w()), tc.min(c));
        let crsn = layout::cnrs_to_crsn(&kernel).unwrap();
        let ours = tdc_scheme::run(&input, &crsn, &shape, &tiling).unwrap();
        prop_assert!(ours.relative_error(&reference).unwrap() < 1e-3);

        let tvm_tile = tvm_scheme::TvmTile::new(th.min(shape.out_h()), tw.min(shape.out_w()));
        let tvm_out = tvm_scheme::run(&input, &kernel, &shape, &tvm_tile).unwrap();
        prop_assert!(tvm_out.relative_error(&reference).unwrap() < 1e-3);
    }

    #[test]
    fn kernel_layout_conversions_round_trip(c in 1usize..8, n in 1usize..8, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = init::uniform(vec![c, n, 3, 3], -1.0, 1.0, &mut rng);
        let crsn = layout::cnrs_to_crsn(&k).unwrap();
        prop_assert_eq!(layout::crsn_to_cnrs(&crsn).unwrap(), k);
    }

    #[test]
    fn cost_models_give_finite_positive_latencies_for_warp_multiple_shapes(
        c in 1usize..7, n in 1usize..7, hw_idx in 0usize..4
    ) {
        let hw = [7usize, 14, 28, 56][hw_idx];
        let shape = ConvShape::same3x3(c * 32, n * 32, hw, hw);
        let device = DeviceSpec::rtx2080ti();
        for alg in [
            ConvAlgorithm::CudnnGemm,
            ConvAlgorithm::CudnnWinograd,
            ConvAlgorithm::CudnnFft,
            ConvAlgorithm::Tvm,
        ] {
            let ms = algorithm_latency_ms(alg, &shape, &device);
            prop_assert!(ms.is_finite() && ms > 0.0, "{:?} gave {}", alg, ms);
        }
    }
}

/// Whether two outputs hold the same f32 bits, element for element.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The implicit-GEMM kernel, staged the way the serving path stages it,
/// against the im2col + GEMM reference.
fn implicit_matches_im2col(shape: &ConvShape, input: &Tensor, kernel: &Tensor) -> bool {
    let kpack = im2col::pack_kernel(kernel, shape).unwrap();
    let (ph, pw) = (shape.h + 2 * shape.pad, shape.w + 2 * shape.pad);
    // Stale values, as a recycled arena buffer would hold: both kernels
    // must overwrite every element.
    let mut xpad = vec![f32::NAN; ph * pw * shape.c];
    layout::pad_hwc_into(input.data(), &mut xpad, shape);
    let mut implicit = vec![f32::NAN; shape.out_h() * shape.out_w() * shape.n];
    im2col::conv2d_implicit_into(&xpad, &kpack, &mut implicit, shape);
    let reference = im2col::conv2d(input, kernel, shape).unwrap();
    same_bits(&implicit, reference.data())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn implicit_gemm_is_bit_identical_to_im2col(
        c in 1usize..40, n in 1usize..72, h in 1usize..12, w in 1usize..14,
        rs_idx in 0usize..3, pad in 0usize..3, stride in 1usize..3, seed in 0u64..1000
    ) {
        let rs = [1usize, 3, 5][rs_idx];
        let shape = ConvShape::new(c, n, h, w, rs, rs, pad, stride);
        prop_assume!(shape.is_valid());
        let mut rng = StdRng::seed_from_u64(seed);
        let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
        let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
        prop_assert!(implicit_matches_im2col(&shape, &input, &kernel), "shape {}", shape);
    }

    #[test]
    fn rscn_core_conv_is_bit_identical_to_cnrs(
        c in 1usize..7, n in 1usize..19, h in 1usize..9, w in 1usize..9,
        rs_idx in 0usize..3, pad in 0usize..3, stride in 1usize..3, seed in 0u64..1000
    ) {
        let rs = [1usize, 3, 5][rs_idx];
        let shape = ConvShape::new(c, n, h, w, rs, rs, pad, stride);
        prop_assume!(shape.is_valid());
        prop_assert!(rscn_matches_cnrs(&shape, seed), "shape {}", shape);
    }
}

/// The RSCN core convolution against the CNRS direct reference on random
/// data drawn from `seed`.
fn rscn_matches_cnrs(shape: &ConvShape, seed: u64) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
    let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
    let rscn = layout::cnrs_to_rscn(&kernel).unwrap();
    let len = shape.out_h() * shape.out_w() * shape.n;
    let (mut ours, mut reference) = (vec![0.0f32; len], vec![0.0f32; len]);
    direct::conv2d_rscn_into(input.data(), rscn.data(), &mut ours, shape);
    direct::conv2d_into(input.data(), kernel.data(), &mut reference, shape);
    same_bits(&ours, &reference)
}

#[test]
fn rscn_core_conv_is_bit_identical_through_every_interior_width() {
    // Each monomorphised rank width through the four-position interior
    // loop: a 21-wide row leaves 9 to 21 interior columns for these
    // strides, pads and filters, so every shape runs two or more whole
    // groups of four plus a remainder on the border loop.
    for n in [2usize, 4, 8, 16] {
        for (rs, pad, stride) in [(3, 0, 1), (3, 1, 1), (3, 0, 2), (3, 1, 2), (1, 0, 1)] {
            let shape = ConvShape::new(3, n, 5, 21, rs, rs, pad, stride);
            assert!(rscn_matches_cnrs(&shape, n as u64), "shape {shape}");
        }
    }
}

#[test]
fn implicit_gemm_is_bit_identical_on_tile_and_panel_edges() {
    // Each shape sits on an edge of the implicit kernel's tiling: `out_w` not
    // a multiple of the 8-position tile, `N` a multiple of the 32-channel
    // panel or leaving a part-filled last one, `C·R·S` past the blocked
    // GEMM's 256-deep K block, stride 2, and a padding wider than the
    // filter's reach.
    let shapes = [
        ConvShape::new(16, 32, 32, 32, 3, 3, 1, 1),
        ConvShape::new(32, 37, 9, 11, 3, 3, 1, 1),
        ConvShape::new(29, 12, 7, 13, 3, 3, 1, 2),
        ConvShape::new(11, 20, 6, 17, 5, 5, 2, 1),
        ConvShape::new(64, 65, 5, 6, 3, 3, 0, 1),
        ConvShape::new(3, 5, 4, 7, 5, 5, 2, 2),
        ConvShape::new(7, 3, 5, 9, 1, 1, 0, 2),
        ConvShape::new(4, 9, 3, 3, 3, 3, 2, 1),
    ];
    let mut rng = StdRng::seed_from_u64(40);
    for shape in shapes {
        let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
        let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
        assert!(
            implicit_matches_im2col(&shape, &input, &kernel),
            "shape {shape}"
        );
    }
}

#[test]
fn implicit_gemm_matches_im2col_for_non_finite_weights() {
    // No zero-skip in either kernel: a padding tap adds `0 · ∞ = NaN` in
    // both, so the outputs agree bit for bit even where they are NaN.
    let shape = ConvShape::new(3, 10, 5, 6, 3, 3, 1, 1);
    let mut rng = StdRng::seed_from_u64(41);
    let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
    let mut kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
    kernel.set(&[0, 2, 0, 0], f32::INFINITY);
    kernel.set(&[1, 7, 2, 1], f32::NEG_INFINITY);
    kernel.set(&[2, 4, 1, 1], -0.0);
    let reference = im2col::conv2d(&input, &kernel, &shape).unwrap();
    assert!(reference.data().iter().any(|v| v.is_nan()));
    assert!(implicit_matches_im2col(&shape, &input, &kernel));
}
