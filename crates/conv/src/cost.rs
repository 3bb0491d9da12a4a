//! GPU cost models for the baseline convolution algorithms.
//!
//! Figures 6–9 of the paper compare the TDC kernel against cuDNN's three
//! algorithm families and TVM. cuDNN is closed source, so we model each family
//! by the launch geometry and traffic its algorithm class implies — a generic,
//! shape-agnostic library kernel — and evaluate it on the same simulated
//! device as the TDC kernel. The absolute milliseconds are estimates; what the
//! models need to capture (and what the tests assert) is the *relative*
//! behaviour: generic tile sizes waste most of a small Tucker-core problem,
//! FFT pays transform overhead that 3×3 filters cannot amortise, and the TVM
//! scheme loses parallelism by not splitting the channel dimension.

use crate::shapes::ConvShape;
use crate::tdc_scheme::Tiling;
use crate::tvm_scheme::TvmTile;
use serde::{Deserialize, Serialize};
use tdc_gpu_sim::{DeviceSpec, KernelLaunch, LatencyModel};

/// The convolution implementations compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConvAlgorithm {
    /// cuDNN `IMPLICIT_GEMM`.
    CudnnGemm,
    /// cuDNN `WINOGRAD`.
    CudnnWinograd,
    /// cuDNN `FFT`.
    CudnnFft,
    /// The TVM direct-convolution scheme (Listing 1), auto-tuned.
    Tvm,
    /// The TDC scheme (Listing 2) with a caller-supplied tiling.
    Tdc,
}

impl ConvAlgorithm {
    /// Human-readable name matching the labels used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            ConvAlgorithm::CudnnGemm => "cuDNN-GEMM",
            ConvAlgorithm::CudnnWinograd => "cuDNN-WINOGRAD",
            ConvAlgorithm::CudnnFft => "cuDNN-FFT",
            ConvAlgorithm::Tvm => "TVM",
            ConvAlgorithm::Tdc => "TDC",
        }
    }

    /// All cuDNN algorithm variants.
    pub fn cudnn_variants() -> [ConvAlgorithm; 3] {
        [
            ConvAlgorithm::CudnnGemm,
            ConvAlgorithm::CudnnWinograd,
            ConvAlgorithm::CudnnFft,
        ]
    }
}

/// A cost model maps a convolution shape to the kernel launches it would
/// execute on the device; latency comes from the shared simulator.
pub trait ConvCostModel {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Kernel launches executed for one forward convolution; empty when the
    /// algorithm cannot run the shape.
    fn launches(&self, shape: &ConvShape, device: &DeviceSpec) -> Vec<KernelLaunch>;

    /// Modelled latency in milliseconds on the device; infinite for a shape
    /// the algorithm cannot run, so a minimum over algorithms skips it.
    fn latency_ms(&self, shape: &ConvShape, device: &DeviceSpec) -> f64 {
        let model = LatencyModel::new(device.clone());
        let launches = self.launches(shape, device);
        if launches.is_empty() {
            return f64::INFINITY;
        }
        model.sequence_latency(&launches).unwrap_or(f64::INFINITY)
    }
}

fn evenly(total_flops: f64, grid: usize) -> f64 {
    total_flops / grid.max(1) as f64
}

/// cuDNN `IMPLICIT_GEMM`: the convolution is one big GEMM of the
/// `(H'·W') × (C·R·S)` patch matrix against the `(C·R·S) × N` filter matrix,
/// processed in fixed 64×64 output tiles by 256-thread blocks. Small `N`
/// (exactly the Tucker-core case) leaves most of each tile's work as padding.
#[derive(Debug, Clone, Copy, Default)]
pub struct CudnnGemmCost;

impl ConvCostModel for CudnnGemmCost {
    fn name(&self) -> &'static str {
        "cuDNN-GEMM"
    }

    fn launches(&self, shape: &ConvShape, _device: &DeviceSpec) -> Vec<KernelLaunch> {
        const TILE_M: usize = 64;
        const TILE_N: usize = 64;
        let m = shape.out_h() * shape.out_w();
        let n = shape.n;
        let k = shape.c * shape.r * shape.s;
        let grid = m.div_ceil(TILE_M) * n.div_ceil(TILE_N);
        // Full-tile FLOPs regardless of how much of the tile is padding: this
        // is where the generic library loses on small-channel problems.
        let flops = 2.0 * (grid * TILE_M * TILE_N) as f64 * k as f64;
        // The A panel (implicit im2col) is re-read once per N-tile column; the
        // B panel once per M-tile row; C written once.
        let read_a = n.div_ceil(TILE_N) as f64 * (m * k) as f64 * 4.0;
        let read_b = m.div_ceil(TILE_M) as f64 * (k * n) as f64 * 4.0;
        let write_c = (m * n) as f64 * 4.0;
        vec![KernelLaunch::new("cudnn_implicit_gemm", grid, 256)
            .with_shared_mem(32 * 1024)
            .with_regs(96)
            .with_flops_per_block(evenly(flops, grid))
            .with_global_traffic(read_a + read_b, write_c)
            .with_syncs(k.div_ceil(16))]
    }
}

/// cuDNN `WINOGRAD`: F(2×2, 3×3) tiles, 2.25× fewer multiplies than direct
/// convolution but extra input/kernel/output transforms. Blocks of 256 threads
/// each own a 16×16 output patch for 32 output channels.
#[derive(Debug, Clone, Copy, Default)]
pub struct CudnnWinogradCost;

impl ConvCostModel for CudnnWinogradCost {
    fn name(&self) -> &'static str {
        "cuDNN-WINOGRAD"
    }

    fn launches(&self, shape: &ConvShape, _device: &DeviceSpec) -> Vec<KernelLaunch> {
        const TILE_HW: usize = 16;
        const TILE_N: usize = 32;
        let grid = shape.out_h().div_ceil(TILE_HW)
            * shape.out_w().div_ceil(TILE_HW)
            * shape.n.div_ceil(TILE_N);
        // Effective multiplies: padded tile volume / 2.25, plus ~35% transform
        // overhead (input BtdB, kernel GgGt, output AtmA).
        let padded_outputs = (grid * TILE_HW * TILE_HW * TILE_N) as f64;
        let flops =
            2.0 * padded_outputs * shape.c as f64 * (shape.r * shape.s) as f64 / 2.25 * 1.35;
        let read_input = shape.n.div_ceil(TILE_N) as f64 * shape.input_elems() as f64 * 4.0;
        // Transformed filters (4x4 per (c, n) pair) are re-read by every spatial tile.
        let spatial_tiles =
            (shape.out_h().div_ceil(TILE_HW) * shape.out_w().div_ceil(TILE_HW)) as f64;
        let read_filters = spatial_tiles * (shape.c * shape.n * 16) as f64 * 4.0;
        let write = shape.output_elems() as f64 * 4.0;
        vec![KernelLaunch::new("cudnn_winograd", grid, 256)
            .with_shared_mem(34 * 1024)
            .with_regs(128)
            .with_flops_per_block(evenly(flops, grid))
            .with_global_traffic(read_input + read_filters, write)
            .with_syncs(shape.c.div_ceil(8))]
    }
}

/// cuDNN `FFT`: tiled 32×32 FFTs, a complex pointwise product accumulated over
/// input channels, and inverse transforms. The transforms dominate for 3×3
/// filters, which is why this is the slowest family on most shapes.
#[derive(Debug, Clone, Copy, Default)]
pub struct CudnnFftCost;

impl ConvCostModel for CudnnFftCost {
    fn name(&self) -> &'static str {
        "cuDNN-FFT"
    }

    fn launches(&self, shape: &ConvShape, _device: &DeviceSpec) -> Vec<KernelLaunch> {
        // 32x32 FFT tiles with a usable interior of 32 - (R - 1); a filter
        // wider than the tile leaves none, so the family cannot run it.
        const L: usize = 32;
        if shape.r > L || shape.s > L {
            return Vec::new();
        }
        let usable_h = L + 1 - shape.r;
        let usable_w = L + 1 - shape.s;
        let tiles = shape.out_h().div_ceil(usable_h) * shape.out_w().div_ceil(usable_w);
        let plane = (L * L) as f64;
        let fft_plane_flops = 5.0 * plane * (plane.log2());
        let (c, n) = (shape.c as f64, shape.n as f64);

        // Kernel 1: forward FFT of every (tile, channel) plane.
        let k1_grid = tiles * shape.c;
        let k1_flops = tiles as f64 * c * fft_plane_flops;
        let k1 = KernelLaunch::new("cudnn_fft_forward", k1_grid, 256)
            .with_shared_mem(2 * L * L * 8)
            .with_regs(64)
            .with_flops_per_block(evenly(k1_flops, k1_grid))
            .with_global_traffic(
                tiles as f64 * c * plane * 4.0,
                tiles as f64 * c * plane * 8.0,
            )
            .with_syncs(10);

        // Kernel 2: filter FFTs plus the complex pointwise product accumulated
        // over input channels for every (tile, output-channel) pair.
        let k2_grid = (tiles * shape.n).max(1);
        let filter_fft_flops = c * n * fft_plane_flops;
        let pointwise_flops = tiles as f64 * plane * c * n * 8.0;
        let k2_flops = filter_fft_flops + pointwise_flops;
        let k2_read =
            tiles as f64 * c * plane * 8.0 * n.min(4.0) + c * n * (shape.r * shape.s) as f64 * 4.0;
        let k2_write = tiles as f64 * n * plane * 8.0;
        let k2 = KernelLaunch::new("cudnn_fft_pointwise", k2_grid, 256)
            .with_shared_mem(2 * L * L * 8)
            .with_regs(72)
            .with_flops_per_block(evenly(k2_flops, k2_grid))
            .with_global_traffic(k2_read, k2_write)
            .with_syncs(shape.c);

        // Kernel 3: inverse FFT of every (tile, output-channel) plane and crop.
        let k3_grid = (tiles * shape.n).max(1);
        let k3_flops = tiles as f64 * n * fft_plane_flops;
        let k3 = KernelLaunch::new("cudnn_fft_inverse", k3_grid, 256)
            .with_shared_mem(2 * L * L * 8)
            .with_regs(64)
            .with_flops_per_block(evenly(k3_flops, k3_grid))
            .with_global_traffic(
                tiles as f64 * n * plane * 8.0,
                shape.output_elems() as f64 * 4.0,
            )
            .with_syncs(10);

        vec![k1, k2, k3]
    }
}

/// The TVM scheme, auto-tuned per shape (Listing 1 + exhaustive tile search).
#[derive(Debug, Clone, Copy, Default)]
pub struct TvmCost;

impl ConvCostModel for TvmCost {
    fn name(&self) -> &'static str {
        "TVM"
    }

    fn launches(&self, shape: &ConvShape, device: &DeviceSpec) -> Vec<KernelLaunch> {
        let tile = TvmTile::autotune(shape, device);
        vec![tile.kernel_launch(shape, device)]
    }
}

/// The TDC scheme with an explicit tiling (selection of the tiling lives in
/// the `tdc` crate's performance model).
#[derive(Debug, Clone, Copy)]
pub struct TdcCost {
    /// The `(TH, TW, TC)` tiling to cost.
    pub tiling: Tiling,
}

impl ConvCostModel for TdcCost {
    fn name(&self) -> &'static str {
        "TDC"
    }

    fn launches(&self, shape: &ConvShape, device: &DeviceSpec) -> Vec<KernelLaunch> {
        vec![self.tiling.kernel_launch(shape, device)]
    }
}

/// Latency of the named algorithm on a shape/device, using the default tiling
/// search for TDC (smallest modelled latency over all candidate tilings).
pub fn algorithm_latency_ms(alg: ConvAlgorithm, shape: &ConvShape, device: &DeviceSpec) -> f64 {
    match alg {
        ConvAlgorithm::CudnnGemm => CudnnGemmCost.latency_ms(shape, device),
        ConvAlgorithm::CudnnWinograd => CudnnWinogradCost.latency_ms(shape, device),
        ConvAlgorithm::CudnnFft => CudnnFftCost.latency_ms(shape, device),
        ConvAlgorithm::Tvm => TvmCost.latency_ms(shape, device),
        ConvAlgorithm::Tdc => {
            let model = LatencyModel::new(device.clone());
            Tiling::candidates(shape, device)
                .filter_map(|t| {
                    model
                        .kernel_latency(&t.kernel_launch(shape, device))
                        .ok()
                        .map(|l| l.total_ms)
                })
                .fold(f64::INFINITY, f64::min)
        }
    }
}

/// The best (lowest-latency) cuDNN algorithm for a shape — the paper fixes
/// IMPLICIT_GEMM for end-to-end runs because it wins among the cuDNN variants
/// on their hardware; this helper lets tests check the analogous choice here.
pub fn best_cudnn_latency_ms(shape: &ConvShape, device: &DeviceSpec) -> (ConvAlgorithm, f64) {
    ConvAlgorithm::cudnn_variants()
        .into_iter()
        .map(|a| (a, algorithm_latency_ms(a, shape, device)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("non-empty cuDNN variant list")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::figure6_shapes;

    #[test]
    fn all_models_produce_valid_launches() {
        let dev = DeviceSpec::a100();
        let shape = ConvShape::same3x3(64, 32, 28, 28);
        for launches in [
            CudnnGemmCost.launches(&shape, &dev),
            CudnnWinogradCost.launches(&shape, &dev),
            CudnnFftCost.launches(&shape, &dev),
            TvmCost.launches(&shape, &dev),
        ] {
            assert!(!launches.is_empty());
            for l in launches {
                l.validate(&dev).unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }

    #[test]
    fn latencies_are_finite_and_positive() {
        let dev = DeviceSpec::a100();
        let shape = ConvShape::same3x3(96, 64, 28, 28);
        for alg in [
            ConvAlgorithm::CudnnGemm,
            ConvAlgorithm::CudnnWinograd,
            ConvAlgorithm::CudnnFft,
            ConvAlgorithm::Tvm,
            ConvAlgorithm::Tdc,
        ] {
            let ms = algorithm_latency_ms(alg, &shape, &dev);
            assert!(ms.is_finite() && ms > 0.0, "{alg:?} -> {ms}");
        }
    }

    #[test]
    fn tdc_beats_every_baseline_on_typical_tucker_core_shapes() {
        // The headline claim of Figures 6/7 for the medium/small spatial shapes.
        let dev = DeviceSpec::a100();
        for shape in [
            ConvShape::same3x3(64, 32, 28, 28),
            ConvShape::same3x3(160, 96, 28, 28),
            ConvShape::same3x3(128, 96, 14, 14),
            ConvShape::same3x3(96, 64, 7, 7),
        ] {
            let tdc = algorithm_latency_ms(ConvAlgorithm::Tdc, &shape, &dev);
            for alg in [
                ConvAlgorithm::CudnnGemm,
                ConvAlgorithm::CudnnWinograd,
                ConvAlgorithm::CudnnFft,
                ConvAlgorithm::Tvm,
            ] {
                let other = algorithm_latency_ms(alg, &shape, &dev);
                assert!(
                    tdc < other,
                    "TDC ({tdc:.4} ms) should beat {alg:?} ({other:.4} ms) on {shape}"
                );
            }
        }
    }

    #[test]
    fn tdc_loses_or_ties_on_the_large_vgg_shapes() {
        // Figures 6/7 note TDC is slower than or similar to TVM/cuDNN on the
        // (64, 32, 224, 224) and (64, 32, 112, 112) shapes.
        let dev = DeviceSpec::a100();
        let shape = ConvShape::same3x3(64, 32, 224, 224);
        let tdc = algorithm_latency_ms(ConvAlgorithm::Tdc, &shape, &dev);
        let tvm = algorithm_latency_ms(ConvAlgorithm::Tvm, &shape, &dev);
        let wino = algorithm_latency_ms(ConvAlgorithm::CudnnWinograd, &shape, &dev);
        assert!(
            tdc > 0.5 * tvm.min(wino),
            "TDC should not dominate on the large VGG shape (tdc={tdc:.4}, tvm={tvm:.4}, wino={wino:.4})"
        );
    }

    #[test]
    fn fft_is_slower_than_winograd_on_small_filters() {
        let dev = DeviceSpec::rtx2080ti();
        let shape = ConvShape::same3x3(96, 64, 28, 28);
        let fft = algorithm_latency_ms(ConvAlgorithm::CudnnFft, &shape, &dev);
        let wino = algorithm_latency_ms(ConvAlgorithm::CudnnWinograd, &shape, &dev);
        assert!(
            fft > wino,
            "FFT ({fft:.4}) should lose to Winograd ({wino:.4}) on 3x3 filters"
        );
    }

    #[test]
    fn fft_cannot_run_a_filter_wider_than_its_tile() {
        let dev = DeviceSpec::a100();
        for r in [33, 40] {
            let shape = ConvShape::new(4, 8, 8, 8, r, r, 16, 1);
            assert!(CudnnFftCost.launches(&shape, &dev).is_empty());
            assert_eq!(CudnnFftCost.latency_ms(&shape, &dev), f64::INFINITY);
            let (alg, ms) = best_cudnn_latency_ms(&shape, &dev);
            assert_ne!(alg, ConvAlgorithm::CudnnFft);
            assert!(ms.is_finite(), "r = {r}");
        }
        let widest = ConvShape::new(4, 8, 8, 8, 32, 32, 16, 1);
        assert!(CudnnFftCost.latency_ms(&widest, &dev).is_finite());
    }

    #[test]
    fn best_cudnn_picks_the_minimum() {
        let dev = DeviceSpec::a100();
        let shape = ConvShape::same3x3(64, 64, 56, 56);
        let (alg, ms) = best_cudnn_latency_ms(&shape, &dev);
        for other in ConvAlgorithm::cudnn_variants() {
            assert!(ms <= algorithm_latency_ms(other, &shape, &dev) + 1e-12);
        }
        assert!(ConvAlgorithm::cudnn_variants().contains(&alg));
    }

    #[test]
    fn every_figure6_shape_is_costable_by_every_algorithm() {
        let dev = DeviceSpec::a100();
        for shape in figure6_shapes() {
            for alg in [
                ConvAlgorithm::CudnnGemm,
                ConvAlgorithm::CudnnWinograd,
                ConvAlgorithm::CudnnFft,
                ConvAlgorithm::Tvm,
            ] {
                let ms = algorithm_latency_ms(alg, &shape, &dev);
                assert!(ms.is_finite() && ms > 0.0, "{alg:?} failed on {shape}");
            }
        }
    }

    #[test]
    fn labels_match_paper_terminology() {
        assert_eq!(ConvAlgorithm::CudnnGemm.label(), "cuDNN-GEMM");
        assert_eq!(ConvAlgorithm::Tvm.label(), "TVM");
        assert_eq!(ConvAlgorithm::Tdc.label(), "TDC");
    }
}
