//! FFT-based convolution — the cuDNN `FFT` analogue.
//!
//! The convolution theorem turns spatial convolution into a pointwise product
//! in the frequency domain. For the small 3×3 filters that dominate modern
//! CNNs this is rarely the fastest choice (the transforms dominate), which is
//! exactly why cuDNN-FFT is the slowest baseline in the paper's Figures 6/7 —
//! but it is part of the comparison, so it is implemented here from scratch:
//! an iterative radix-2 Cooley–Tukey FFT, a 2-D transform built from row and
//! column passes, and a correlation wrapper that matches the direct reference.

use crate::layout::{check_input_hwc, check_kernel_cnrs, pad_hwc};
use crate::shapes::ConvShape;
use crate::{ConvError, Result};
use tdc_tensor::Tensor;

/// A dense complex matrix stored as separate real/imaginary planes.
#[derive(Debug, Clone)]
pub struct ComplexPlane {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Real parts, row-major.
    pub re: Vec<f64>,
    /// Imaginary parts, row-major.
    pub im: Vec<f64>,
}

impl ComplexPlane {
    /// All-zero plane.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        ComplexPlane {
            rows,
            cols,
            re: vec![0.0; rows * cols],
            im: vec![0.0; rows * cols],
        }
    }

    /// Pointwise complex multiply-accumulate: `self += a ⊙ b`.
    pub fn add_product(&mut self, a: &ComplexPlane, b: &ComplexPlane) {
        debug_assert_eq!(self.rows, a.rows);
        debug_assert_eq!(self.cols, b.cols);
        for i in 0..self.re.len() {
            let (ar, ai) = (a.re[i], a.im[i]);
            let (br, bi) = (b.re[i], b.im[i]);
            self.re[i] += ar * br - ai * bi;
            self.im[i] += ar * bi + ai * br;
        }
    }
}

/// Smallest power of two ≥ `n`.
pub fn next_pow2(n: usize) -> usize {
    let mut p = 1;
    while p < n {
        p <<= 1;
    }
    p
}

/// In-place iterative radix-2 FFT of a length-power-of-two complex vector.
/// `inverse = true` computes the unscaled inverse transform (caller divides by N).
fn fft_1d(re: &mut [f64], im: &mut [f64], inverse: bool) {
    let n = re.len();
    debug_assert!(n.is_power_of_two(), "fft length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cur_r, mut cur_i) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ur, ui) = (re[i + k], im[i + k]);
                let (vr, vi) = (
                    re[i + k + len / 2] * cur_r - im[i + k + len / 2] * cur_i,
                    re[i + k + len / 2] * cur_i + im[i + k + len / 2] * cur_r,
                );
                re[i + k] = ur + vr;
                im[i + k] = ui + vi;
                re[i + k + len / 2] = ur - vr;
                im[i + k + len / 2] = ui - vi;
                let next_r = cur_r * wr - cur_i * wi;
                cur_i = cur_r * wi + cur_i * wr;
                cur_r = next_r;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// 2-D FFT of a plane whose dimensions are powers of two.
pub fn fft_2d(plane: &mut ComplexPlane, inverse: bool) {
    let (rows, cols) = (plane.rows, plane.cols);
    // Row transforms.
    for r in 0..rows {
        fft_1d(
            &mut plane.re[r * cols..(r + 1) * cols],
            &mut plane.im[r * cols..(r + 1) * cols],
            inverse,
        );
    }
    // Column transforms via transpose-free strided gather.
    let mut col_re = vec![0.0f64; rows];
    let mut col_im = vec![0.0f64; rows];
    for c in 0..cols {
        for r in 0..rows {
            col_re[r] = plane.re[r * cols + c];
            col_im[r] = plane.im[r * cols + c];
        }
        fft_1d(&mut col_re, &mut col_im, inverse);
        for r in 0..rows {
            plane.re[r * cols + c] = col_re[r];
            plane.im[r * cols + c] = col_im[r];
        }
    }
    if inverse {
        let scale = 1.0 / (rows * cols) as f64;
        for v in plane.re.iter_mut() {
            *v *= scale;
        }
        for v in plane.im.iter_mut() {
            *v *= scale;
        }
    }
}

/// FFT-based convolution matching [`crate::direct::conv2d`]. Supports any
/// stride ≥ 1 (stride > 1 is handled by computing the stride-1 result and
/// subsampling, which is also how FFT libraries handle it).
// Index-symmetric numeric kernel: explicit indices mirror the math.
#[allow(clippy::needless_range_loop)]
pub fn conv2d(input: &Tensor, kernel: &Tensor, shape: &ConvShape) -> Result<Tensor> {
    check_input_hwc(input, shape)?;
    check_kernel_cnrs(kernel, shape)?;
    if !shape.is_valid() {
        return Err(ConvError::Unsupported {
            algorithm: "fft",
            reason: format!("invalid shape {shape}"),
        });
    }

    let padded = pad_hwc(input, shape.pad)?;
    let ph = shape.h + 2 * shape.pad;
    let pw = shape.w + 2 * shape.pad;
    let (c, n, r, s) = (shape.c, shape.n, shape.r, shape.s);
    let lh = next_pow2(ph + r - 1);
    let lw = next_pow2(pw + s - 1);

    // Forward transforms of each input channel.
    let x = padded.data();
    let input_spectra: Vec<ComplexPlane> = (0..c)
        .map(|ch| {
            let mut plane = ComplexPlane::zeros(lh, lw);
            for y in 0..ph {
                for xx in 0..pw {
                    plane.re[y * lw + xx] = x[(y * pw + xx) * c + ch] as f64;
                }
            }
            fft_2d(&mut plane, false);
            plane
        })
        .collect();

    // For each output channel: accumulate spectra of (flipped kernel) * input,
    // inverse-transform, and crop the "valid-correlation" window.
    let full_out_h = ph - r + 1;
    let full_out_w = pw - s + 1;
    let (out_h, out_w) = (shape.out_h(), shape.out_w());

    let per_channel: Vec<Vec<f32>> = (0..n)
        .map(|on| {
            let mut acc = ComplexPlane::zeros(lh, lw);
            for ch in 0..c {
                let mut kplane = ComplexPlane::zeros(lh, lw);
                // Flip the kernel so that linear convolution performs correlation.
                for rr in 0..r {
                    for ss in 0..s {
                        kplane.re[(r - 1 - rr) * lw + (s - 1 - ss)] =
                            kernel.get(&[ch, on, rr, ss]) as f64;
                    }
                }
                fft_2d(&mut kplane, false);
                acc.add_product(&input_spectra[ch], &kplane);
            }
            fft_2d(&mut acc, true);
            // The correlation result lives at offset (r-1, s-1) of the full
            // linear convolution.
            let mut out = vec![0.0f32; out_h * out_w];
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let fy = oy * shape.stride;
                    let fx = ox * shape.stride;
                    debug_assert!(fy < full_out_h && fx < full_out_w);
                    out[oy * out_w + ox] = acc.re[(fy + r - 1) * lw + (fx + s - 1)] as f32;
                }
            }
            out
        })
        .collect();

    let mut out = vec![0.0f32; out_h * out_w * n];
    for on in 0..n {
        for pos in 0..out_h * out_w {
            out[pos * n + on] = per_channel[on][pos];
        }
    }
    Ok(Tensor::from_vec(vec![out_h, out_w, n], out)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct;
    use rand::{rngs::StdRng, SeedableRng};
    use tdc_tensor::init;

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(17), 32);
        assert_eq!(next_pow2(64), 64);
    }

    #[test]
    fn fft_round_trip_recovers_signal() {
        let n = 16;
        let mut re: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut im = vec![0.0f64; n];
        let orig = re.clone();
        fft_1d(&mut re, &mut im, false);
        fft_1d(&mut re, &mut im, true);
        for i in 0..n {
            assert!((re[i] / n as f64 - orig[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn fft2d_of_impulse_is_flat() {
        let mut p = ComplexPlane::zeros(8, 8);
        p.re[0] = 1.0;
        fft_2d(&mut p, false);
        for i in 0..64 {
            assert!((p.re[i] - 1.0).abs() < 1e-9);
            assert!(p.im[i].abs() < 1e-9);
        }
    }

    #[test]
    fn matches_direct_convolution() {
        let mut rng = StdRng::seed_from_u64(31);
        let shapes = [
            ConvShape::core(1, 1, 6, 6),
            ConvShape::core(3, 4, 8, 8),
            ConvShape::same3x3(2, 3, 7, 9),
            ConvShape::new(2, 2, 9, 9, 5, 5, 2, 1),
        ];
        for shape in shapes {
            let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
            let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
            let fft_out = conv2d(&input, &kernel, &shape).unwrap();
            let reference = direct::conv2d(&input, &kernel, &shape).unwrap();
            assert!(
                fft_out.relative_error(&reference).unwrap() < 1e-4,
                "mismatch for {shape}: {}",
                fft_out.relative_error(&reference).unwrap()
            );
        }
    }

    #[test]
    fn strided_fft_conv_matches_direct() {
        let mut rng = StdRng::seed_from_u64(37);
        let shape = ConvShape::new(2, 3, 9, 9, 3, 3, 1, 2);
        let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
        let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
        let fft_out = conv2d(&input, &kernel, &shape).unwrap();
        let reference = direct::conv2d(&input, &kernel, &shape).unwrap();
        assert!(fft_out.relative_error(&reference).unwrap() < 1e-4);
    }

    #[test]
    fn impulse_kernel_shifts_input() {
        // Kernel with a single 1 at (0, 0): output(oy, ox) = input(oy, ox).
        let shape = ConvShape::core(1, 1, 5, 5);
        let input = Tensor::from_fn(vec![5, 5, 1], |i| (i[0] * 5 + i[1]) as f32);
        let mut kernel = Tensor::zeros(vec![1, 1, 3, 3]);
        kernel.set(&[0, 0, 0, 0], 1.0);
        let out = conv2d(&input, &kernel, &shape).unwrap();
        for oy in 0..3 {
            for ox in 0..3 {
                assert!((out.get(&[oy, ox, 0]) - input.get(&[oy, ox, 0])).abs() < 1e-4);
            }
        }
    }
}
