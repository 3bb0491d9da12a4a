//! Property-based tests for the convolution crate: algorithm agreement on
//! randomly drawn shapes, layout round trips and cost-model sanity.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use tdc_conv::cost::{algorithm_latency_ms, ConvAlgorithm};
use tdc_conv::{direct, im2col, layout, tdc_scheme, tvm_scheme, ConvShape, Tiling};
use tdc_gpu_sim::DeviceSpec;
use tdc_tensor::init;

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
