//! The analytical performance model of paper Sections 5.3–5.4 (Eq. 14–19).
//!
//! These are the exact closed-form quantities the paper derives for its core
//! convolution kernel; the tiling selection of Section 5.5 consumes them
//! directly. Where the full simulator (`tdc-gpu-sim`) refines the story (e.g.
//! per-thread issue limits at low occupancy), this module deliberately stays
//! with the paper's formulas so the selection procedure is reproduced as
//! published.
//!
//! The one quantity the paper leaves to the hardware, occupancy, is not
//! re-derived here: [`estimated_occupancy`] (and through it
//! [`comp_latency_ms`]) asks the simulator's
//! [`tdc_gpu_sim::occupancy::block_occupancy`], the same function behind
//! [`tdc_gpu_sim::KernelLaunch::validate`] and
//! [`tdc_gpu_sim::occupancy::occupancy`], so the model and the simulator
//! cannot disagree on which tilings launch or how many blocks an SM holds.
//! The compute-side functions are `#[inline]` because the tiling search
//! scores every candidate through [`comp_latency_ms`]; inlined, the repeated
//! block count is computed once per candidate.

use tdc_conv::{ConvShape, Tiling};
use tdc_gpu_sim::occupancy::block_occupancy;
use tdc_gpu_sim::DeviceSpec;

/// Number of thread blocks: `⌈H/TH⌉ · ⌈W/TW⌉ · ⌈C/TC⌉` (Section 5.3).
#[inline]
pub fn num_blocks(shape: &ConvShape, tiling: &Tiling) -> usize {
    tiling.grid_blocks(shape)
}

/// Total threads: one per output channel per block.
#[inline]
pub fn num_threads(shape: &ConvShape, tiling: &Tiling) -> usize {
    num_blocks(shape, tiling) * shape.n
}

/// FLOPs of one thread block (Section 5.3):
/// `2 · (TH+R−1) · (TW+S−1) · TC · N · R · S`.
#[inline]
pub fn flops_per_block(shape: &ConvShape, tiling: &Tiling) -> f64 {
    tiling.flops_per_block(shape)
}

/// Per-block compute latency in milliseconds, exactly the paper's formula
/// `comp_latency_blk = 2·(TH+R−1)·(TW+S−1)·TC·GPU_ths·R·S / GPU_peak`
/// (the per-block FLOPs divided by the block's `N / GPU_ths` share of peak).
#[inline]
pub fn comp_latency_blk_ms(shape: &ConvShape, tiling: &Tiling, device: &DeviceSpec) -> f64 {
    let blk_peak = device.peak_flops() * shape.n as f64 / device.total_threads() as f64;
    flops_per_block(shape, tiling) / blk_peak * 1e3
}

/// Occupancy of the kernel as estimated from the tiling's shared-memory,
/// register and thread requirements (the paper queries NVCC; we compute the
/// same bound analytically). The figure comes from
/// [`tdc_gpu_sim::occupancy::block_occupancy`], the simulator's own
/// per-block limits and occupancy formula, fed the tiling's
/// [`Tiling::block_resources`]: no launch descriptor is built and nothing is
/// allocated. A tiling that breaks a per-block limit, or a shape with an empty
/// grid, has occupancy 0.
#[inline]
pub fn estimated_occupancy(shape: &ConvShape, tiling: &Tiling, device: &DeviceSpec) -> f64 {
    if num_blocks(shape, tiling) == 0 {
        return 0.0;
    }
    match block_occupancy(device, &tiling.block_resources(shape)) {
        Ok(o) => o.occupancy,
        Err(_) => 0.0,
    }
}

/// Number of GPU waves (Eq. 14):
/// `⌈ Num_ths / (GPU_ths · occupancy) ⌉`.
#[inline]
pub fn comp_waves(shape: &ConvShape, tiling: &Tiling, device: &DeviceSpec) -> usize {
    let occ = estimated_occupancy(shape, tiling, device);
    if occ <= 0.0 {
        return usize::MAX;
    }
    let denom = device.total_threads() as f64 * occ;
    (num_threads(shape, tiling) as f64 / denom).ceil() as usize
}

/// Total compute latency (Eq. 15): `comp_waves · comp_latency_blk`.
#[inline]
pub fn comp_latency_ms(shape: &ConvShape, tiling: &Tiling, device: &DeviceSpec) -> f64 {
    let waves = comp_waves(shape, tiling, device);
    if waves == usize::MAX {
        return f64::INFINITY;
    }
    waves as f64 * comp_latency_blk_ms(shape, tiling, device)
}

/// Kernel-tensor data-movement volume in elements (Eq. 16):
/// `⌈H/TH⌉ · ⌈W/TW⌉ · C · N`.
pub fn volume_k(shape: &ConvShape, tiling: &Tiling) -> f64 {
    (shape.out_h().div_ceil(tiling.th) * shape.out_w().div_ceil(tiling.tw)) as f64
        * shape.c as f64
        * shape.n as f64
}

/// Input-tensor data-movement volume in elements (Eq. 17):
/// `⌈H/TH⌉ · ⌈W/TW⌉ · C · (TH+R−1) · (TW+S−1)`.
pub fn volume_x(shape: &ConvShape, tiling: &Tiling) -> f64 {
    (shape.out_h().div_ceil(tiling.th) * shape.out_w().div_ceil(tiling.tw)) as f64
        * shape.c as f64
        * ((tiling.th + shape.r - 1) * (tiling.tw + shape.s - 1)) as f64
}

/// Output-tensor data-movement volume in elements (Eq. 18):
/// `H · W · N · ⌈C/TC⌉`.
pub fn volume_y(shape: &ConvShape, tiling: &Tiling) -> f64 {
    (shape.out_h() * shape.out_w() * shape.n) as f64 * shape.c.div_ceil(tiling.tc) as f64
}

/// Total data-movement volume in elements (Eq. 19).
pub fn volume_total(shape: &ConvShape, tiling: &Tiling) -> f64 {
    volume_x(shape, tiling) + volume_k(shape, tiling) + volume_y(shape, tiling)
}

/// Memory latency in milliseconds: total volume (in bytes, fp32) over the
/// device DRAM bandwidth (Section 5.4).
pub fn memory_latency_ms(shape: &ConvShape, tiling: &Tiling, device: &DeviceSpec) -> f64 {
    volume_total(shape, tiling) * 4.0 / device.bandwidth_bytes_per_s() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::same3x3(64, 32, 28, 28)
    }

    #[test]
    fn block_and_thread_counts() {
        let t = Tiling::new(7, 7, 16);
        assert_eq!(num_blocks(&shape(), &t), 4 * 4 * 4);
        assert_eq!(num_threads(&shape(), &t), 4 * 4 * 4 * 32);
    }

    #[test]
    fn comp_latency_blk_matches_hand_computation() {
        let dev = DeviceSpec::a100();
        let t = Tiling::new(7, 7, 16);
        // 2 * 9*9 * 16 * 32 * 9 flops over (peak * 32 / total_threads).
        let flops = 2.0 * 81.0 * 16.0 * 32.0 * 9.0;
        let blk_peak = dev.peak_flops() * 32.0 / dev.total_threads() as f64;
        let expected = flops / blk_peak * 1e3;
        assert!((comp_latency_blk_ms(&shape(), &t, &dev) - expected).abs() < 1e-12);
    }

    #[test]
    fn comp_latency_blk_is_independent_of_n() {
        // The paper's formula cancels N: more output channels mean more threads
        // sharing proportionally more peak.
        let dev = DeviceSpec::a100();
        let t = Tiling::new(7, 7, 16);
        let narrow = ConvShape::same3x3(64, 32, 28, 28);
        let wide = ConvShape::same3x3(64, 256, 28, 28);
        let a = comp_latency_blk_ms(&narrow, &t, &dev);
        let b = comp_latency_blk_ms(&wide, &t, &dev);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn waves_grow_with_output_channels_in_steps() {
        // This is the mechanism behind the Figure 4 staircase: N only enters
        // through the wave count, which moves in integer steps.
        let dev = DeviceSpec::rtx2080ti();
        let t = Tiling::new(4, 4, 8);
        let mut waves: Vec<usize> = Vec::new();
        for n in (32..=256).step_by(32) {
            let s = ConvShape::same3x3(64, n, 28, 28);
            waves.push(comp_waves(&s, &t, &dev));
        }
        // Non-decreasing and not all equal (at least one step up).
        assert!(waves.windows(2).all(|w| w[1] >= w[0]), "waves {waves:?}");
        assert!(
            waves.last().unwrap() > waves.first().unwrap(),
            "waves {waves:?}"
        );
    }

    #[test]
    fn data_volumes_match_eq_16_to_18() {
        let t = Tiling::new(7, 7, 16);
        let s = shape();
        assert!((volume_k(&s, &t) - 16.0 * 64.0 * 32.0).abs() < 1e-9);
        assert!((volume_x(&s, &t) - 16.0 * 64.0 * 81.0).abs() < 1e-9);
        assert!((volume_y(&s, &t) - (28.0 * 28.0 * 32.0 * 4.0)).abs() < 1e-9);
        assert!(
            (volume_total(&s, &t) - (volume_k(&s, &t) + volume_x(&s, &t) + volume_y(&s, &t))).abs()
                < 1e-9
        );
    }

    #[test]
    fn smaller_spatial_tiles_increase_input_volume() {
        // Halo overhead: (TH+2)(TW+2)/(TH·TW) grows as tiles shrink.
        let s = shape();
        assert!(volume_x(&s, &Tiling::new(2, 2, 16)) > volume_x(&s, &Tiling::new(14, 14, 16)));
        // Smaller channel tiles increase output rewrites.
        assert!(volume_y(&s, &Tiling::new(7, 7, 4)) > volume_y(&s, &Tiling::new(7, 7, 64)));
    }

    #[test]
    fn memory_latency_scales_with_bandwidth() {
        let s = shape();
        let t = Tiling::new(7, 7, 16);
        let a100 = memory_latency_ms(&s, &t, &DeviceSpec::a100());
        let ti = memory_latency_ms(&s, &t, &DeviceSpec::rtx2080ti());
        assert!(a100 < ti);
        let ratio = ti / a100;
        let bw_ratio =
            DeviceSpec::a100().dram_bandwidth_gbs / DeviceSpec::rtx2080ti().dram_bandwidth_gbs;
        assert!((ratio - bw_ratio).abs() / bw_ratio < 1e-9);
    }

    #[test]
    fn unlaunchable_tiling_has_infinite_compute_latency() {
        // A tile so large it cannot fit shared memory reports no occupancy.
        let dev = DeviceSpec::rtx2080ti();
        let s = ConvShape::same3x3(512, 512, 56, 56);
        let t = Tiling::new(56, 56, 512);
        assert_eq!(comp_waves(&s, &t, &dev), usize::MAX);
        assert!(comp_latency_ms(&s, &t, &dev).is_infinite());
        // Neither can a shape with no input channels, whose grid is empty.
        let empty = ConvShape::new(0, 8, 8, 8, 3, 3, 1, 1);
        assert!(comp_latency_ms(&empty, &Tiling::new(1, 1, 1), &dev).is_infinite());
    }
}
