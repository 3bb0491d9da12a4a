//! Property-based integration tests over the core invariants of the stack:
//! convolution algorithm agreement, Tucker decomposition behaviour, the FLOPs
//! formulas and the tiling selection contract.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use tdc::tiling::{select_by_model, select_by_oracle};
use tdc_conv::{direct, im2col, layout, tdc_scheme, ConvShape, Tiling};
use tdc_gpu_sim::DeviceSpec;
use tdc_tensor::init;
use tdc_tucker::{flops, tkd};

fn small_shape() -> impl Strategy<Value = ConvShape> {
    (1usize..5, 1usize..6, 5usize..10, 5usize..10, 0usize..2)
        .prop_map(|(c, n, h, w, pad)| ConvShape::new(c, n, h, w, 3, 3, pad, 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_convolution_algorithms_agree_with_the_direct_reference(shape in small_shape(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
        let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
        let reference = direct::conv2d(&input, &kernel, &shape).unwrap();

        let im2col_out = im2col::conv2d(&input, &kernel, &shape).unwrap();
        prop_assert!(
            im2col_out.relative_error(&reference).unwrap() < 1e-3,
            "im2col disagrees with the direct reference"
        );

        let crsn = layout::cnrs_to_crsn(&kernel).unwrap();
        let tiling = Tiling::new(
            (shape.out_h() / 2).max(1),
            (shape.out_w() / 2).max(1),
            (shape.c / 2).max(1),
        );
        let tdc_out = tdc_scheme::run(&input, &crsn, &shape, &tiling).unwrap();
        prop_assert!(tdc_out.relative_error(&reference).unwrap() < 1e-3);
    }

    #[test]
    fn tucker_projection_error_is_monotone_and_full_rank_is_exact(
        c in 3usize..9, n in 3usize..9, seed in 0u64..1000
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kernel = init::uniform(vec![c, n, 3, 3], -1.0, 1.0, &mut rng);
        let mut previous = f32::INFINITY;
        for d in 1..=c.min(n) {
            let err = tkd::reconstruction_error(&kernel, d, d).unwrap();
            prop_assert!(err <= previous + 1e-3, "error grew from {previous} to {err} at rank {d}");
            previous = err;
        }
        let exact = tkd::reconstruction_error(&kernel, c, n).unwrap();
        prop_assert!(exact < 1e-3, "full-rank reconstruction error {exact}");
    }

    #[test]
    fn flops_formulas_are_consistent(
        c in 8usize..128, n in 8usize..128, hw in 7usize..56, d1 in 1usize..8, d2 in 1usize..8
    ) {
        let shape = ConvShape::same3x3(c, n, hw, hw);
        let d1 = (d1 * 8).min(c);
        let d2 = (d2 * 8).min(n);
        let gamma = flops::gamma_f(&shape, d1, d2);
        let reduction = flops::flops_reduction(&shape, d1, d2);
        prop_assert!((reduction - (1.0 - 1.0 / gamma)).abs() < 1e-9);
        // The Tucker-format FLOPs are always positive and the dense FLOPs match Eq. (6)'s numerator.
        prop_assert!(flops::tucker_flops(&shape, d1, d2) > 0.0);
        prop_assert!(flops::dense_flops(&shape) >= flops::tucker_flops(&shape, d1, d2) * 0.0);
    }

    #[test]
    fn tiling_selection_always_returns_a_launchable_tiling(
        c in 1usize..5, n in 1usize..5, hw_idx in 0usize..3
    ) {
        let hw = [7usize, 14, 28][hw_idx];
        let shape = ConvShape::same3x3(c * 32, n * 32, hw, hw);
        let device = DeviceSpec::a100();
        let model = select_by_model(&shape, &device).unwrap();
        let oracle = select_by_oracle(&shape, &device).unwrap();
        prop_assert!(model.tiling.is_launchable(&shape, &device));
        prop_assert!(oracle.tiling.is_launchable(&shape, &device));
        prop_assert!(oracle.latency_ms <= model.latency_ms + 1e-9);
        prop_assert!(model.latency_ms.is_finite() && model.latency_ms > 0.0);
    }
}
