//! im2col + GEMM convolution, and its implicit form — the cuDNN
//! `IMPLICIT_GEMM` analogue.
//!
//! The convolution is a single matrix product: each output position is a row
//! of the patch matrix (`H'·W'` rows, `C·R·S` columns), the kernel is a
//! `C·R·S × N` matrix, and the product is the `H'·W' × N` output.
//!
//! * [`conv2d`] materialises the patch matrix ([`im2col`]) and multiplies it
//!   with [`matmul::gemm_blocked_into`]. It is the bit-exact reference, and
//!   what `CompressedModel::forward` and training run.
//! * [`conv2d_implicit_into`] never writes the patch matrix: like cuDNN's
//!   implicit-GEMM algorithm it reads each patch element straight from a
//!   zero-padded copy of the input inside a register-tiled loop. Per output
//!   element it performs the identical sequence of f32 operations as
//!   [`conv2d`], so the two agree bit for bit for any weights. The serving
//!   path runs kept-dense layers through it.

use crate::layout::{check_input_hwc, check_kernel_cnrs};
use crate::shapes::ConvShape;
use crate::Result;
use tdc_tensor::{matmul, Tensor};

/// Materialise the im2col patch matrix: `(H'·W') × (C·R·S)`.
///
/// Column ordering is `(c, r, s)` row-major, matching [`kernel_matrix`].
pub fn im2col(input: &Tensor, shape: &ConvShape) -> Result<Tensor> {
    check_input_hwc(input, shape)?;
    let (out_h, out_w) = (shape.out_h(), shape.out_w());
    let cols = shape.c * shape.r * shape.s;
    let mut out = vec![0.0f32; out_h * out_w * cols];
    im2col_into(input.data(), &mut out, shape);
    Ok(Tensor::from_vec(vec![out_h * out_w, cols], out)?)
}

/// Slice-level form of [`im2col`] writing into a caller-provided buffer of
/// exactly `(H'·W')·(C·R·S)` elements, so the serving hot path can stage the
/// patch matrix in a scratch arena instead of allocating. Every element of
/// `out` is written (padding taps store literal `0.0`), so the buffer does
/// not need to be zeroed first.
pub fn im2col_into(x: &[f32], out: &mut [f32], shape: &ConvShape) {
    let (out_h, out_w) = (shape.out_h(), shape.out_w());
    let cols = shape.c * shape.r * shape.s;
    let (h, w, c) = (shape.h as isize, shape.w as isize, shape.c);
    assert_eq!(x.len(), shape.h * shape.w * c, "input has wrong length");
    assert_eq!(out.len(), out_h * out_w * cols, "patch buffer wrong length");

    let taps = shape.r * shape.s;
    out.chunks_mut(cols).enumerate().for_each(|(pos, row)| {
        let oy = pos / out_w;
        let ox = pos % out_w;
        // Resolve each of the R·S kernel taps once per output position —
        // `None` marks a padding tap — instead of re-deriving indices and
        // bounds per element. `bases[t] + ch` then addresses the input for
        // tap `t`, and a position's row is written in `(c, r, s)`-contiguous
        // runs of `taps` elements per channel.
        let mut bases = [None::<usize>; 32];
        let bases = if taps <= bases.len() {
            &mut bases[..taps]
        } else {
            // Kernels larger than 5x5 spill the tap table; unreachable for
            // every shape the serving tree runs but kept correct.
            return im2col_row_generic(x, row, shape, oy, ox);
        };
        for rr in 0..shape.r {
            let iy = (oy * shape.stride + rr) as isize - shape.pad as isize;
            for ss in 0..shape.s {
                let ix = (ox * shape.stride + ss) as isize - shape.pad as isize;
                bases[rr * shape.s + ss] = if iy < 0 || iy >= h || ix < 0 || ix >= w {
                    None
                } else {
                    Some((iy as usize * shape.w + ix as usize) * c)
                };
            }
        }
        for (ch, run) in row.chunks_exact_mut(taps).enumerate() {
            for (slot, base) in run.iter_mut().zip(bases.iter()) {
                *slot = match base {
                    Some(b) => x[b + ch],
                    None => 0.0,
                };
            }
        }
    });
}

/// Per-element fallback for [`im2col_into`] rows whose kernel has more taps
/// than the stack table holds. Identical output to the fast path.
fn im2col_row_generic(x: &[f32], row: &mut [f32], shape: &ConvShape, oy: usize, ox: usize) {
    let (h, w, c) = (shape.h as isize, shape.w as isize, shape.c);
    for ch in 0..c {
        for rr in 0..shape.r {
            for ss in 0..shape.s {
                let iy = (oy * shape.stride + rr) as isize - shape.pad as isize;
                let ix = (ox * shape.stride + ss) as isize - shape.pad as isize;
                let col = (ch * shape.r + rr) * shape.s + ss;
                row[col] = if iy < 0 || iy >= h || ix < 0 || ix >= w {
                    0.0
                } else {
                    x[(iy as usize * shape.w + ix as usize) * c + ch]
                };
            }
        }
    }
}

/// Reshape a CNRS kernel into the `(C·R·S) × N` GEMM operand with the same
/// `(c, r, s)` row ordering as [`im2col`].
pub fn kernel_matrix(kernel: &Tensor, shape: &ConvShape) -> Result<Tensor> {
    check_kernel_cnrs(kernel, shape)?;
    let rows = shape.c * shape.r * shape.s;
    let mut out = vec![0.0f32; rows * shape.n];
    for ch in 0..shape.c {
        for on in 0..shape.n {
            for rr in 0..shape.r {
                for ss in 0..shape.s {
                    let row = (ch * shape.r + rr) * shape.s + ss;
                    out[row * shape.n + on] = kernel.get(&[ch, on, rr, ss]);
                }
            }
        }
    }
    Ok(Tensor::from_vec(vec![rows, shape.n], out)?)
}

/// Output positions (consecutive columns of one output row) per register
/// tile of [`conv2d_implicit_into`].
const IMPLICIT_MP: usize = 8;
/// Output channels per register tile of [`conv2d_implicit_into`], and the
/// width of every panel of [`pack_kernel`].
const IMPLICIT_NT: usize = 32;

/// Length of [`pack_kernel`]'s output for `shape`: `C·R·S` rows of every
/// panel.
fn packed_kernel_len(shape: &ConvShape) -> usize {
    shape.c * shape.r * shape.s * shape.n.div_ceil(IMPLICIT_NT) * IMPLICIT_NT
}

/// Pack a CNRS kernel for [`conv2d_implicit_into`]: the [`kernel_matrix`]
/// (`(c, r, s)` rows, `N` columns) cut into 32-wide column panels, each
/// stored as a contiguous `C·R·S × 32` block. The last panel's columns past
/// `N` are zero, so a channel-remainder tile runs the full-width multiply-add
/// (its dead lanes accumulate values that are never stored) instead of a
/// narrower loop.
pub fn pack_kernel(kernel: &Tensor, shape: &ConvShape) -> Result<Vec<f32>> {
    let kmat = kernel_matrix(kernel, shape)?;
    let n = shape.n;
    let mut packed = Vec::with_capacity(packed_kernel_len(shape));
    for j0 in (0..n).step_by(IMPLICIT_NT) {
        let nr = IMPLICIT_NT.min(n - j0);
        for row in kmat.data().chunks_exact(n) {
            packed.extend_from_slice(&row[j0..j0 + nr]);
            packed.resize(packed.len() + IMPLICIT_NT - nr, 0.0);
        }
    }
    Ok(packed)
}

/// Implicit-GEMM convolution on slices: `out[H'·W' × N]` from the
/// zero-padded HWC input `xpad` (`(H + 2·pad) × (W + 2·pad) × C`, see
/// [`crate::layout::pad_hwc_into`]; the input itself when `pad == 0`) and the
/// [`pack_kernel`] panels. Overwrite semantics: every element of `out` is
/// stored.
///
/// The output is computed in tiles of up to 8 consecutive positions of one
/// row × 32 channels whose accumulators stay in registers, while K walks the
/// patch in [`im2col`]'s `(c, r, s)` order.
/// Per output element that is exactly the sequence
/// [`matmul::gemm_blocked_into`] performs on the materialised patch matrix:
/// `+0.0`, then `acc += x · w` for k = 0..C·R·S. There is no zero-skip, so
/// padding taps add the same `0 · w` products as the patch matrix's literal
/// zeros, and the result is bit-identical to [`conv2d`] for any weights.
pub fn conv2d_implicit_into(xpad: &[f32], kpack: &[f32], out: &mut [f32], shape: &ConvShape) {
    let (out_h, out_w, n) = (shape.out_h(), shape.out_w(), shape.n);
    let k = shape.c * shape.r * shape.s;
    assert_eq!(
        xpad.len(),
        (shape.h + 2 * shape.pad) * (shape.w + 2 * shape.pad) * shape.c,
        "padded input has wrong length"
    );
    assert_eq!(
        kpack.len(),
        packed_kernel_len(shape),
        "packed kernel has wrong length"
    );
    assert_eq!(out.len(), out_h * out_w * n, "output has wrong length");

    for (j0, panel) in (0..n)
        .step_by(IMPLICIT_NT)
        .zip(kpack.chunks_exact(k * IMPLICIT_NT))
    {
        implicit_panel(xpad, panel, out, shape, j0, IMPLICIT_NT.min(n - j0));
    }
}

/// One kernel panel of [`conv2d_implicit_into`]: output channels
/// `j0..j0 + nr` of every position, one position tile at a time.
///
/// Kept out of line, like the blocked GEMM's row block, so the register
/// tile is compiled as a loop nest of its own.
#[inline(never)]
fn implicit_panel(
    xpad: &[f32],
    panel: &[f32],
    out: &mut [f32],
    shape: &ConvShape,
    j0: usize,
    nr: usize,
) {
    let (out_w, n) = (shape.out_w(), shape.n);
    let prow = (shape.w + 2 * shape.pad) * shape.c;
    // Input distance between horizontally neighbouring output positions.
    let step = shape.stride * shape.c;
    for (oy, orow) in out.chunks_exact_mut(out_w * n).enumerate() {
        let row_base = oy * shape.stride * prow;
        let mut ox0 = 0;
        while ox0 < out_w {
            let mp = IMPLICIT_MP.min(out_w - ox0);
            let base = row_base + ox0 * step;
            // The full tile gets `mp` as a constant, so its position loop
            // unrolls; the remainder tile runs the same loop `mp` times.
            let acc = if mp == IMPLICIT_MP {
                implicit_tile(xpad, panel, shape, base, IMPLICIT_MP)
            } else {
                implicit_tile(xpad, panel, shape, base, mp)
            };
            for (p, arow) in acc.iter().enumerate().take(mp) {
                let off = (ox0 + p) * n + j0;
                orow[off..off + nr].copy_from_slice(&arow[..nr]);
            }
            ox0 += mp;
        }
    }
}

/// The register tile of [`implicit_panel`]: `mp` positions starting at input
/// offset `base` against one panel, K in `(c, r, s)` order.
#[inline(always)]
fn implicit_tile(
    xpad: &[f32],
    panel: &[f32],
    shape: &ConvShape,
    base: usize,
    mp: usize,
) -> [[f32; IMPLICIT_NT]; IMPLICIT_MP] {
    let c = shape.c;
    let prow = (shape.w + 2 * shape.pad) * c;
    let step = shape.stride * c;
    let mut acc = [[0.0f32; IMPLICIT_NT]; IMPLICIT_MP];
    let mut brows = panel.chunks_exact(IMPLICIT_NT);
    for ch in 0..c {
        for rr in 0..shape.r {
            let tap_row = base + rr * prow + ch;
            for ss in 0..shape.s {
                let brow = brows.next().expect("panel holds C·R·S rows");
                let at = tap_row + ss * c;
                for (p, arow) in acc.iter_mut().enumerate().take(mp) {
                    let xv = xpad[at + p * step];
                    for (slot, &wv) in arow.iter_mut().zip(brow) {
                        *slot += xv * wv;
                    }
                }
            }
        }
    }
    acc
}

/// im2col + GEMM convolution. Produces the same `H'×W'×N` output as
/// [`crate::direct::conv2d`]. The product runs through the register-tiled
/// [`matmul::gemm_blocked_into`] kernel.
pub fn conv2d(input: &Tensor, kernel: &Tensor, shape: &ConvShape) -> Result<Tensor> {
    let patches = im2col(input, shape)?;
    let kmat = kernel_matrix(kernel, shape)?;
    let (m, n) = (shape.out_h() * shape.out_w(), shape.n);
    let k = shape.c * shape.r * shape.s;
    let mut flat = vec![0.0f32; m * n];
    matmul::gemm_blocked_into(patches.data(), kmat.data(), &mut flat, m, k, n);
    Ok(Tensor::from_vec(shape.output_dims(), flat)?)
}

/// Gradient of the convolution with respect to its input, computed by the
/// transposed GEMM and col2im scatter. Used by the training substrate.
pub fn conv2d_input_grad(
    grad_output: &Tensor,
    kernel: &Tensor,
    shape: &ConvShape,
) -> Result<Tensor> {
    // grad_patches = grad_out_flat (H'W' x N) * Kmat^T (N x CRS)
    let (out_h, out_w) = (shape.out_h(), shape.out_w());
    let grad_flat = grad_output.clone().reshape(vec![out_h * out_w, shape.n])?;
    let kmat = kernel_matrix(kernel, shape)?;
    let grad_patches = matmul::matmul_a_bt(&grad_flat, &kmat)?; // (H'W', CRS)

    // col2im: scatter-add each patch column back to the input location.
    let mut grad_input = Tensor::zeros(shape.input_dims());
    let (h, w, c) = (shape.h as isize, shape.w as isize, shape.c);
    for pos in 0..out_h * out_w {
        let oy = pos / out_w;
        let ox = pos % out_w;
        for ch in 0..c {
            for rr in 0..shape.r {
                for ss in 0..shape.s {
                    let iy = (oy * shape.stride + rr) as isize - shape.pad as isize;
                    let ix = (ox * shape.stride + ss) as isize - shape.pad as isize;
                    if iy < 0 || iy >= h || ix < 0 || ix >= w {
                        continue;
                    }
                    let col = (ch * shape.r + rr) * shape.s + ss;
                    let v = grad_patches.get(&[pos, col]);
                    let idx = [iy as usize, ix as usize, ch];
                    grad_input.set(&idx, grad_input.get(&idx) + v);
                }
            }
        }
    }
    Ok(grad_input)
}

/// Gradient of the convolution with respect to its kernel (CNRS layout).
pub fn conv2d_kernel_grad(
    input: &Tensor,
    grad_output: &Tensor,
    shape: &ConvShape,
) -> Result<Tensor> {
    // gradKmat = patches^T (CRS x H'W') * grad_out_flat (H'W' x N)
    let patches = im2col(input, shape)?;
    let (out_h, out_w) = (shape.out_h(), shape.out_w());
    let grad_flat = grad_output.clone().reshape(vec![out_h * out_w, shape.n])?;
    let grad_kmat = matmul::matmul_at_b(&patches, &grad_flat)?; // (CRS, N)

    // Un-reshape back to CNRS.
    let mut out = Tensor::zeros(shape.kernel_dims());
    for ch in 0..shape.c {
        for on in 0..shape.n {
            for rr in 0..shape.r {
                for ss in 0..shape.s {
                    let row = (ch * shape.r + rr) * shape.s + ss;
                    out.set(&[ch, on, rr, ss], grad_kmat.get(&[row, on]));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct;
    use rand::{rngs::StdRng, SeedableRng};
    use tdc_tensor::init;

    #[test]
    fn im2col_dimensions_and_content() {
        let shape = ConvShape::core(2, 1, 3, 3);
        let input = Tensor::from_fn(vec![3, 3, 2], |i| (i[0] * 6 + i[1] * 2 + i[2]) as f32);
        let patches = im2col(&input, &shape).unwrap();
        assert_eq!(patches.dims(), &[1, 18]);
        // First column block is channel 0 over the 3x3 window.
        assert_eq!(patches.get(&[0, 0]), input.get(&[0, 0, 0]));
        assert_eq!(patches.get(&[0, 8]), input.get(&[2, 2, 0]));
        assert_eq!(patches.get(&[0, 9]), input.get(&[0, 0, 1]));
    }

    #[test]
    fn matches_direct_convolution() {
        let mut rng = StdRng::seed_from_u64(7);
        let shapes = [
            ConvShape::core(3, 5, 8, 8),
            ConvShape::same3x3(4, 6, 9, 7),
            ConvShape::new(2, 3, 10, 12, 5, 5, 2, 2),
            ConvShape::pointwise(8, 4, 5, 5),
        ];
        for shape in shapes {
            let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
            let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
            let gemm = conv2d(&input, &kernel, &shape).unwrap();
            let reference = direct::conv2d(&input, &kernel, &shape).unwrap();
            assert!(
                gemm.relative_error(&reference).unwrap() < 1e-4,
                "shape {shape}"
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(11);
        let shape = ConvShape::same3x3(2, 3, 5, 5);
        let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
        let kernel = init::uniform(shape.kernel_dims(), -0.5, 0.5, &mut rng);
        // Loss = sum(conv output); dL/dY = ones.
        let grad_out = Tensor::ones(shape.output_dims());
        let analytic = conv2d_input_grad(&grad_out, &kernel, &shape).unwrap();

        let eps = 1e-2f32;
        for &probe in &[[0usize, 0, 0], [2, 3, 1], [4, 4, 0]] {
            let mut plus = input.clone();
            plus.set(&probe, plus.get(&probe) + eps);
            let mut minus = input.clone();
            minus.set(&probe, minus.get(&probe) - eps);
            let f_plus = direct::conv2d(&plus, &kernel, &shape).unwrap().sum();
            let f_minus = direct::conv2d(&minus, &kernel, &shape).unwrap().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let got = analytic.get(&probe);
            assert!(
                (numeric - got).abs() < 2e-2,
                "probe {probe:?}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn kernel_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(13);
        let shape = ConvShape::core(2, 2, 5, 5);
        let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
        let kernel = init::uniform(shape.kernel_dims(), -0.5, 0.5, &mut rng);
        let grad_out = Tensor::ones(shape.output_dims());
        let analytic = conv2d_kernel_grad(&input, &grad_out, &shape).unwrap();

        let eps = 1e-2f32;
        for &probe in &[[0usize, 0, 0, 0], [1, 1, 2, 2], [0, 1, 1, 0]] {
            let mut plus = kernel.clone();
            plus.set(&probe, plus.get(&probe) + eps);
            let mut minus = kernel.clone();
            minus.set(&probe, minus.get(&probe) - eps);
            let f_plus = direct::conv2d(&input, &plus, &shape).unwrap().sum();
            let f_minus = direct::conv2d(&input, &minus, &shape).unwrap().sum();
            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let got = analytic.get(&probe);
            assert!(
                (numeric - got).abs() < 2e-2,
                "probe {probe:?}: numeric {numeric} vs analytic {got}"
            );
        }
    }

    #[test]
    fn kernel_matrix_round_trips_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let shape = ConvShape::core(3, 4, 6, 6);
        let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
        let kmat = kernel_matrix(&kernel, &shape).unwrap();
        assert_eq!(kmat.dims(), &[3 * 9, 4]);
        assert_eq!(kmat.get(&[0, 0]), kernel.get(&[0, 0, 0, 0]));
        assert_eq!(
            kmat.get(&[(2 * 3 + 1) * 3 + 2, 3]),
            kernel.get(&[2, 3, 1, 2])
        );
    }
}
