//! The TDC convolution scheme (paper Listing 2).
//!
//! The input is tiled over height, width **and input channel** with tile sizes
//! `(TH, TW, TC)`; each tile maps to one thread block with `N` threads (one
//! per output channel). A block stages its `(TH+R−1)×(TW+S−1)×TC` input cube
//! in shared memory with a single `__syncthreads`, every thread accumulates a
//! `TH×TW` output patch in registers while streaming the `CRSN`-layout weights,
//! and the partial results from the `C/TC` channel-tiles are combined with
//! `atomicAdd`.
//!
//! Two things are provided here:
//!
//! * [`run`] — a CPU emulation of that exact blocking/accumulation structure
//!   (used to show the scheme computes the same thing as the direct reference,
//!   including the cross-block atomic accumulation), and
//! * [`Tiling::kernel_launch`] — the analytical descriptor used by the
//!   simulator and by the tiling-selection model in the `tdc` crate.

use crate::layout::{check_input_hwc, pad_hwc};
use crate::shapes::ConvShape;
use crate::{ConvError, Result};
use serde::{Deserialize, Serialize};
use tdc_gpu_sim::{BlockResources, DeviceSpec, KernelLaunch};
use tdc_tensor::Tensor;

/// Tile sizes `(TH, TW, TC)` of the TDC core-convolution kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tiling {
    /// Tile height.
    pub th: usize,
    /// Tile width.
    pub tw: usize,
    /// Input-channel tile depth.
    pub tc: usize,
}

impl Tiling {
    /// Create a tiling; all components must be at least 1.
    pub fn new(th: usize, tw: usize, tc: usize) -> Self {
        Tiling {
            th: th.max(1),
            tw: tw.max(1),
            tc: tc.max(1),
        }
    }

    /// Check the tiling against a convolution shape.
    pub fn validate(&self, shape: &ConvShape) -> Result<()> {
        if self.th > shape.out_h() || self.tw > shape.out_w() {
            return Err(ConvError::BadTiling {
                reason: format!(
                    "tile {}x{} larger than output {}x{}",
                    self.th,
                    self.tw,
                    shape.out_h(),
                    shape.out_w()
                ),
            });
        }
        if self.tc > shape.c {
            return Err(ConvError::BadTiling {
                reason: format!("channel tile {} larger than C={}", self.tc, shape.c),
            });
        }
        Ok(())
    }

    /// Number of thread blocks this tiling produces for a shape:
    /// `⌈H'/TH⌉ · ⌈W'/TW⌉ · ⌈C/TC⌉`.
    #[inline]
    pub fn grid_blocks(&self, shape: &ConvShape) -> usize {
        shape.out_h().div_ceil(self.th)
            * shape.out_w().div_ceil(self.tw)
            * shape.c.div_ceil(self.tc)
    }

    /// Shared-memory bytes one block needs: the input cube
    /// `(TH+R−1)·(TW+S−1)·TC` in fp32.
    #[inline]
    pub fn shared_mem_bytes(&self, shape: &ConvShape) -> usize {
        (self.th + shape.r - 1) * (self.tw + shape.s - 1) * self.tc * 4
    }

    /// Register estimate per thread: the `TH×TW` accumulator patch plus the
    /// `R×S` staged weights plus bookkeeping.
    #[inline]
    pub fn regs_per_thread(&self, shape: &ConvShape) -> usize {
        self.th * self.tw + shape.r * shape.s + 24
    }

    /// FLOPs one block performs (paper Section 5.3):
    /// `2 · (TH+R−1) · (TW+S−1) · TC · N · R · S`.
    #[inline]
    pub fn flops_per_block(&self, shape: &ConvShape) -> f64 {
        2.0 * (self.th + shape.r - 1) as f64
            * (self.tw + shape.s - 1) as f64
            * self.tc as f64
            * shape.n as f64
            * shape.r as f64
            * shape.s as f64
    }

    /// Global-memory traffic in bytes `(input, kernel, output)` following the
    /// structure of Eq. (16)–(18). Unlike the paper's Eq. (16) we include the
    /// `R·S` factor in the kernel volume, since each block physically streams
    /// `TC·R·S·N` weights; the omission in the paper reads as a typo and the
    /// selection behaviour is unaffected.
    pub fn traffic_bytes(&self, shape: &ConvShape) -> (f64, f64, f64) {
        let tiles_hw = (shape.out_h().div_ceil(self.th) * shape.out_w().div_ceil(self.tw)) as f64;
        let halo = ((self.th + shape.r - 1) * (self.tw + shape.s - 1)) as f64;
        let input = tiles_hw * shape.c as f64 * halo * 4.0;
        let kernel = tiles_hw * shape.c as f64 * shape.n as f64 * (shape.r * shape.s) as f64 * 4.0;
        let output = (shape.out_h() * shape.out_w() * shape.n) as f64
            * shape.c.div_ceil(self.tc) as f64
            * 4.0;
        (input, kernel, output)
    }

    /// What one block asks of an SM: one thread per output channel, the
    /// staged input cube, and the register estimate capped at the 255 a
    /// thread can address.
    #[inline]
    pub fn block_resources(&self, shape: &ConvShape) -> BlockResources {
        BlockResources {
            threads: shape.n,
            shared_mem: self.shared_mem_bytes(shape),
            regs_per_thread: self.regs_per_thread(shape).min(255),
        }
    }

    /// Build the kernel-launch descriptor for this tiling on a device.
    pub fn kernel_launch(&self, shape: &ConvShape, device: &DeviceSpec) -> KernelLaunch {
        let (inp, ker, out) = self.traffic_bytes(shape);
        // Boundary threads skip taps that fall outside the tile; the wasted
        // issue slots appear as divergence. The waste fraction is the halo
        // area that contributes no output relative to the full sliding window.
        let window = ((self.th + shape.r - 1) * (self.tw + shape.s - 1)) as f64;
        let useful = (self.th * self.tw) as f64;
        let divergence = (1.0 - useful / window) * 0.5;
        let _ = device;
        let block = self.block_resources(shape);
        KernelLaunch::new("tdc_core_conv", self.grid_blocks(shape), block.threads)
            .with_shared_mem(block.shared_mem)
            .with_regs(block.regs_per_thread)
            .with_flops_per_block(self.flops_per_block(shape))
            .with_global_traffic(inp + ker, out)
            .with_syncs(1)
            .with_divergence(divergence)
    }

    /// Whether this tiling can be launched at all on the device (thread count,
    /// shared memory, registers within limits). Allocates nothing unless the
    /// tile exceeds the shape. A tile within the shape never makes an empty
    /// grid, and its divergence is always in range, so the per-block check is
    /// all that [`KernelLaunch::validate`] would add.
    pub fn is_launchable(&self, shape: &ConvShape, device: &DeviceSpec) -> bool {
        self.validate(shape).is_ok() && self.block_resources(shape).check(device).is_ok()
    }

    /// Candidate tile values used by both the oracle (exhaustive) and the
    /// analytical search. The paper searches every value in `1..=dim`; to keep
    /// the simulator-based search tractable we enumerate every value up to 32
    /// and then only divisors or powers of two beyond that, which always
    /// contains the paper's preferred configurations.
    pub fn candidate_values(dim: usize) -> Vec<usize> {
        let mut vals: Vec<usize> = (1..=dim.min(32)).collect();
        let mut v = 64;
        while v <= dim {
            vals.push(v);
            v *= 2;
        }
        for d in [48usize, 56, 112, 224] {
            if d <= dim && dim.is_multiple_of(d) {
                vals.push(d);
            }
        }
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    /// Every candidate tiling of a shape that can launch on the device, one
    /// at a time: `TH` outermost, then `TW`, then `TC`, each in
    /// [`Tiling::candidate_values`] order.
    pub fn candidates<'a>(shape: &ConvShape, device: &'a DeviceSpec) -> Candidates<'a> {
        Candidates {
            shape: *shape,
            device,
            ths: Self::candidate_values(shape.out_h()),
            tws: Self::candidate_values(shape.out_w()),
            tcs: Self::candidate_values(shape.c),
            at: [0; 3],
        }
    }
}

/// The launchable tilings of one shape, walked without collecting them (see
/// [`Tiling::candidates`]).
#[derive(Debug, Clone)]
pub struct Candidates<'a> {
    shape: ConvShape,
    device: &'a DeviceSpec,
    ths: Vec<usize>,
    tws: Vec<usize>,
    tcs: Vec<usize>,
    /// Positions in `ths`, `tws` and `tcs` of the next triple to try.
    at: [usize; 3],
}

impl Candidates<'_> {
    /// Number of `(TH, TW, TC)` triples the walk tries, launchable or not:
    /// an upper bound on how many tilings it yields.
    pub fn triples(&self) -> usize {
        self.ths.len() * self.tws.len() * self.tcs.len()
    }
}

impl Iterator for Candidates<'_> {
    type Item = Tiling;

    fn next(&mut self) -> Option<Tiling> {
        if self.tws.is_empty() || self.tcs.is_empty() {
            return None;
        }
        while let Some(&th) = self.ths.get(self.at[0]) {
            let t = Tiling::new(th, self.tws[self.at[1]], self.tcs[self.at[2]]);
            self.at[2] += 1;
            if self.at[2] == self.tcs.len() {
                self.at[2] = 0;
                self.at[1] += 1;
                if self.at[1] == self.tws.len() {
                    self.at[1] = 0;
                    self.at[0] += 1;
                }
            }
            // Candidate values never exceed their dimension, so the tile
            // always fits the shape and only the per-block limits can fail.
            if t.block_resources(&self.shape).check(self.device).is_ok() {
                return Some(t);
            }
        }
        None
    }
}

impl std::fmt::Display for Tiling {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(TH={}, TW={}, TC={})", self.th, self.tw, self.tc)
    }
}

/// CPU emulation of the TDC scheme: identical blocking, per-thread register
/// accumulation and atomic cross-block combination as Listing 2, so tests can
/// verify the scheme computes exactly what the direct reference computes.
///
/// The kernel must be supplied in `CRSN` layout
/// (see [`crate::layout::cnrs_to_crsn`]); stride must be 1.
pub fn run(
    input: &Tensor,
    kernel_crsn: &Tensor,
    shape: &ConvShape,
    tiling: &Tiling,
) -> Result<Tensor> {
    check_input_hwc(input, shape)?;
    if shape.stride != 1 {
        return Err(ConvError::Unsupported {
            algorithm: "tdc_scheme",
            reason: "the TDC core kernel targets stride-1 core convolutions".into(),
        });
    }
    let expected_kernel = vec![shape.c, shape.r, shape.s, shape.n];
    if kernel_crsn.dims() != expected_kernel.as_slice() {
        return Err(ConvError::BadKernel {
            expected: expected_kernel,
            actual: kernel_crsn.dims().to_vec(),
        });
    }
    tiling.validate(shape)?;

    let padded = pad_hwc(input, shape.pad)?;
    let pw = shape.w + 2 * shape.pad;
    let ph = shape.h + 2 * shape.pad;
    let (out_h, out_w, n, c) = (shape.out_h(), shape.out_w(), shape.n, shape.c);
    let (r, s) = (shape.r, shape.s);
    let (th, tw, tc) = (tiling.th, tiling.tw, tiling.tc);
    let tiles_h = out_h.div_ceil(th);
    let tiles_w = out_w.div_ceil(tw);
    let tiles_c = c.div_ceil(tc);

    let x = padded.data();
    let k = kernel_crsn.data();

    // Each (tile_h, tile_w) owns a disjoint output region; channel-tiles are
    // partial sums into the same region (the atomicAdd of Listing 2), run
    // sequentially inside each spatial tile — same arithmetic, deterministic
    // order.
    let mut out = vec![0.0f32; out_h * out_w * n];
    let blocks: Vec<(usize, usize)> = (0..tiles_h)
        .flat_map(|y| (0..tiles_w).map(move |x| (y, x)))
        .collect();

    let tile_results: Vec<(usize, usize, Vec<f32>)> = blocks
        .iter()
        .map(|&(ty, tx)| {
            let oy0 = ty * th;
            let ox0 = tx * tw;
            let eff_th = th.min(out_h - oy0);
            let eff_tw = tw.min(out_w - ox0);
            let mut tile_out = vec![0.0f32; th * tw * n];
            for tcb in 0..tiles_c {
                let c0 = tcb * tc;
                let c1 = (c0 + tc).min(c);
                // "shared memory": the input cube for this block.
                let cube_h = eff_th + r - 1;
                let cube_w = eff_tw + s - 1;
                let mut cube = vec![0.0f32; cube_h * cube_w * (c1 - c0)];
                for (ci, ch) in (c0..c1).enumerate() {
                    for hy in 0..cube_h {
                        for wx in 0..cube_w {
                            let gy = oy0 + hy;
                            let gx = ox0 + wx;
                            cube[(ci * cube_h + hy) * cube_w + wx] = if gy < ph && gx < pw {
                                x[(gy * pw + gx) * c + ch]
                            } else {
                                0.0
                            };
                        }
                    }
                }
                // One "thread" per output channel: scatter each input element
                // into the register accumulator exactly as Listing 2 does.
                for on in 0..n {
                    let mut temp = vec![0.0f32; th * tw];
                    for (ci, ch) in (c0..c1).enumerate() {
                        for hy in 0..cube_h {
                            for wx in 0..cube_w {
                                let v = cube[(ci * cube_h + hy) * cube_w + wx];
                                if v == 0.0 {
                                    continue;
                                }
                                for rr in 0..r {
                                    if hy < rr {
                                        continue;
                                    }
                                    let y_out = hy - rr;
                                    if y_out >= eff_th {
                                        continue;
                                    }
                                    for ss in 0..s {
                                        if wx < ss {
                                            continue;
                                        }
                                        let x_out = wx - ss;
                                        if x_out >= eff_tw {
                                            continue;
                                        }
                                        // CRSN layout: ((ch * R + rr) * S + ss) * N + on
                                        let kv = k[((ch * r + rr) * s + ss) * n + on];
                                        temp[y_out * tw + x_out] += v * kv;
                                    }
                                }
                            }
                        }
                    }
                    // atomicAdd(Y[...], temp) — accumulate the channel-tile
                    // partial sum into the block's output patch.
                    for y_out in 0..eff_th {
                        for x_out in 0..eff_tw {
                            tile_out[(y_out * tw + x_out) * n + on] += temp[y_out * tw + x_out];
                        }
                    }
                }
            }
            (ty, tx, tile_out)
        })
        .collect();

    for (ty, tx, tile_out) in tile_results {
        let oy0 = ty * th;
        let ox0 = tx * tw;
        for dy in 0..th {
            let oy = oy0 + dy;
            if oy >= out_h {
                continue;
            }
            for dx in 0..tw {
                let ox = ox0 + dx;
                if ox >= out_w {
                    continue;
                }
                for on in 0..n {
                    out[(oy * out_w + ox) * n + on] += tile_out[(dy * tw + dx) * n + on];
                }
            }
        }
    }

    Ok(Tensor::from_vec(vec![out_h, out_w, n], out)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct;
    use crate::layout::cnrs_to_crsn;
    use rand::{rngs::StdRng, SeedableRng};
    use tdc_tensor::init;

    #[test]
    fn tiling_geometry() {
        let shape = ConvShape::same3x3(64, 32, 28, 28);
        let t = Tiling::new(7, 7, 16);
        assert_eq!(t.grid_blocks(&shape), 4 * 4 * 4);
        assert_eq!(t.shared_mem_bytes(&shape), 9 * 9 * 16 * 4);
        let flops = t.flops_per_block(&shape);
        assert!((flops - 2.0 * 81.0 * 16.0 * 32.0 * 9.0).abs() < 1.0);
    }

    #[test]
    fn tiling_validation() {
        let shape = ConvShape::same3x3(64, 32, 28, 28);
        assert!(Tiling::new(7, 7, 16).validate(&shape).is_ok());
        assert!(Tiling::new(29, 7, 16).validate(&shape).is_err());
        assert!(Tiling::new(7, 7, 128).validate(&shape).is_err());
        // Zero components are clamped to 1 by the constructor.
        assert_eq!(Tiling::new(0, 0, 0), Tiling::new(1, 1, 1));
    }

    #[test]
    fn kernel_launch_respects_device_limits() {
        let shape = ConvShape::same3x3(64, 32, 28, 28);
        let dev = DeviceSpec::a100();
        let t = Tiling::new(4, 4, 8);
        assert!(t.is_launchable(&shape, &dev));
        let launch = t.kernel_launch(&shape, &dev);
        assert_eq!(launch.threads_per_block, 32);
        assert_eq!(launch.syncs_per_block, 1);
        // An absurd tile blows the register or shared-memory budget.
        let huge = Tiling::new(28, 28, 64);
        assert!(!huge.is_launchable(&shape, &dev));
    }

    #[test]
    fn traffic_matches_eqs_16_to_18_structure() {
        let shape = ConvShape::same3x3(64, 32, 28, 28);
        let t = Tiling::new(7, 7, 16);
        let (inp, ker, out) = t.traffic_bytes(&shape);
        // 16 spatial tiles, halo 9x9.
        assert!((inp - 16.0 * 64.0 * 81.0 * 4.0).abs() < 1.0);
        assert!((ker - 16.0 * 64.0 * 32.0 * 9.0 * 4.0).abs() < 1.0);
        // 4 channel tiles each rewrite the full output.
        assert!((out - (28.0 * 28.0 * 32.0) * 4.0 * 4.0).abs() < 1.0);
        // Larger TC means fewer output rewrites.
        let (_, _, out_big_tc) = Tiling::new(7, 7, 64).traffic_bytes(&shape);
        assert!(out_big_tc < out);
    }

    #[test]
    fn candidate_enumeration_is_bounded_and_launchable() {
        let shape = ConvShape::same3x3(64, 32, 28, 28);
        let dev = DeviceSpec::a100();
        let walk = Tiling::candidates(&shape, &dev);
        assert_eq!(walk.triples(), 28 * 28 * 33);
        let all: Vec<Tiling> = walk.collect();
        assert!(!all.is_empty());
        assert!(all.len() < 40_000);
        assert!(all.iter().all(|t| t.is_launchable(&shape, &dev)));
    }

    #[test]
    fn candidates_are_the_launchable_triples_in_order() {
        let dev = DeviceSpec::rtx2080ti();
        for shape in [
            ConvShape::same3x3(64, 32, 28, 28),
            ConvShape::same3x3(48, 1024, 14, 14),
            ConvShape::new(0, 0, 8, 8, 3, 3, 1, 1),
        ] {
            let mut expected = Vec::new();
            for th in Tiling::candidate_values(shape.out_h()) {
                for tw in Tiling::candidate_values(shape.out_w()) {
                    for tc in Tiling::candidate_values(shape.c) {
                        let t = Tiling::new(th, tw, tc);
                        // The launch descriptor's own validation is the
                        // reference for the allocation-free check.
                        if t.validate(&shape).is_ok()
                            && t.kernel_launch(&shape, &dev).validate(&dev).is_ok()
                        {
                            expected.push(t);
                        }
                    }
                }
            }
            let walked: Vec<Tiling> = Tiling::candidates(&shape, &dev).collect();
            assert_eq!(walked, expected, "{shape}");
        }
    }

    #[test]
    fn scheme_matches_direct_reference() {
        let mut rng = StdRng::seed_from_u64(51);
        let cases = [
            (ConvShape::core(4, 6, 10, 10), Tiling::new(3, 3, 2)),
            (ConvShape::same3x3(8, 5, 9, 9), Tiling::new(4, 5, 3)),
            (ConvShape::same3x3(6, 8, 12, 7), Tiling::new(12, 7, 6)),
            (ConvShape::core(3, 4, 8, 8), Tiling::new(1, 1, 1)),
        ];
        for (shape, tiling) in cases {
            let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
            let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
            let crsn = cnrs_to_crsn(&kernel).unwrap();
            let ours = run(&input, &crsn, &shape, &tiling).unwrap();
            let reference = direct::conv2d(&input, &kernel, &shape).unwrap();
            assert!(
                ours.relative_error(&reference).unwrap() < 1e-4,
                "mismatch for {shape} with {tiling}: {}",
                ours.relative_error(&reference).unwrap()
            );
        }
    }

    #[test]
    fn scheme_rejects_bad_inputs() {
        let shape = ConvShape::core(4, 6, 10, 10);
        let input = Tensor::zeros(shape.input_dims());
        let kernel_cnrs = Tensor::zeros(shape.kernel_dims());
        // Forgetting the CRSN conversion is an error, not silent garbage.
        assert!(run(&input, &kernel_cnrs, &shape, &Tiling::new(2, 2, 2)).is_err());
        let strided = ConvShape::new(4, 6, 10, 10, 3, 3, 0, 2);
        let crsn = Tensor::zeros(vec![4, 3, 3, 6]);
        assert!(run(&input, &crsn, &strided, &Tiling::new(2, 2, 2)).is_err());
    }

    #[test]
    fn divergence_shrinks_with_larger_tiles() {
        let shape = ConvShape::same3x3(64, 32, 28, 28);
        let dev = DeviceSpec::a100();
        let small = Tiling::new(1, 1, 8).kernel_launch(&shape, &dev);
        let large = Tiling::new(14, 14, 8).kernel_launch(&shape, &dev);
        assert!(small.divergence_waste > large.divergence_waste);
    }
}
