//! Direct convolution — the correctness reference.
//!
//! Straightforward seven-loop cross-correlation over an HWC input and a CNRS
//! kernel, one output row at a time. Every other algorithm in the crate is
//! tested against this implementation.

use crate::layout::{check_input_hwc, check_kernel_cnrs};
use crate::shapes::ConvShape;
use crate::{ConvError, Result};
use tdc_tensor::Tensor;

/// Compute `Y(h', w', n) = Σ_{c,r,s} X(h'·stride + r − pad, w'·stride + s − pad, c) · K(c, n, r, s)`.
///
/// Input is HWC, kernel is CNRS, output is H'W'N. Out-of-bounds taps (from
/// padding) contribute zero.
pub fn conv2d(input: &Tensor, kernel: &Tensor, shape: &ConvShape) -> Result<Tensor> {
    check_input_hwc(input, shape)?;
    check_kernel_cnrs(kernel, shape)?;
    if !shape.is_valid() {
        return Err(ConvError::Unsupported {
            algorithm: "direct",
            reason: format!("invalid shape {shape}"),
        });
    }

    let (out_h, out_w, n) = (shape.out_h(), shape.out_w(), shape.n);
    let mut out = vec![0.0f32; out_h * out_w * n];
    conv2d_into(input.data(), kernel.data(), &mut out, shape);
    Ok(Tensor::from_vec(vec![out_h, out_w, n], out)?)
}

/// Slice-level form of [`conv2d`] writing into a caller-provided buffer, so
/// the serving hot path can stage outputs in a scratch arena instead of
/// allocating. `out` must be **zeroed** and exactly `H'·W'·N` long; the loop
/// structure (and therefore the f32 accumulation order) is identical to what
/// [`conv2d`] has always done, keeping results bit-stable.
pub fn conv2d_into(x: &[f32], k: &[f32], out: &mut [f32], shape: &ConvShape) {
    let (h, w, c) = (shape.h as isize, shape.w as isize, shape.c);
    let (out_h, out_w, n) = (shape.out_h(), shape.out_w(), shape.n);
    let (r, s) = (shape.r, shape.s);
    let (pad, stride) = (shape.pad as isize, shape.stride as isize);
    assert_eq!(x.len(), shape.h * shape.w * c, "input has wrong length");
    assert_eq!(k.len(), c * n * r * s, "kernel has wrong length");
    assert_eq!(out.len(), out_h * out_w * n, "output has wrong length");

    // Kernel strides for CNRS layout.
    let k_c_stride = shape.n * r * s;
    let k_n_stride = r * s;

    out.chunks_mut(out_w * n).enumerate().for_each(|(oy, row)| {
        for ox in 0..out_w {
            let acc = &mut row[ox * n..(ox + 1) * n];
            for rr in 0..r {
                let iy = oy as isize * stride + rr as isize - pad;
                if iy < 0 || iy >= h {
                    continue;
                }
                for ss in 0..s {
                    let ix = ox as isize * stride + ss as isize - pad;
                    if ix < 0 || ix >= w {
                        continue;
                    }
                    let x_base = (iy as usize * shape.w + ix as usize) * c;
                    for ch in 0..c {
                        let xv = x[x_base + ch];
                        if xv == 0.0 {
                            continue;
                        }
                        let k_base = ch * k_c_stride + rr * s + ss;
                        for on in 0..n {
                            acc[on] += xv * k[k_base + on * k_n_stride];
                        }
                    }
                }
            }
        }
    });
}

/// [`conv2d_into`] against a kernel pre-permuted to RSCN layout (see
/// [`crate::layout::cnrs_to_rscn`]): for each tap `(r, s)` the `C × N` weight
/// block is contiguous with `n` fastest, so the innermost loop is an
/// unstrided, branch-free `n`-wide multiply-add that vectorises.
///
/// Per output element the f32 additions happen in the identical
/// `(r, s, c)` order as [`conv2d_into`] — only the kernel's memory layout
/// differs — and there is deliberately no `x == 0.0` skip: on finite inputs
/// `acc += ±0.0 · w` never changes a +0.0-seeded f32 accumulator, so the
/// unconditional form is bit-identical to the skipping one (the serving
/// arena path is pinned bitwise against [`conv2d`] by test). `out` must be
/// **zeroed** and exactly `H'·W'·N` long.
pub fn conv2d_rscn_into(x: &[f32], k_rscn: &[f32], out: &mut [f32], shape: &ConvShape) {
    let (out_h, out_w) = (shape.out_h(), shape.out_w());
    assert_eq!(
        x.len(),
        shape.h * shape.w * shape.c,
        "input has wrong length"
    );
    assert_eq!(
        k_rscn.len(),
        shape.r * shape.s * shape.c * shape.n,
        "kernel has wrong length"
    );
    assert_eq!(
        out.len(),
        out_h * out_w * shape.n,
        "output has wrong length"
    );

    // Monomorphise the common rank widths so the N-wide accumulator is a
    // fixed-size register block instead of a memory-resident slice — the
    // decisive difference for the tiny `C × N` blocks of a Tucker rank-space
    // conv. Dispatching on the width cannot change results: every
    // instantiation runs the identical loop nest.
    match shape.n {
        2 => rscn_body::<2>(x, k_rscn, out, shape),
        4 => rscn_body::<4>(x, k_rscn, out, shape),
        8 => rscn_body::<8>(x, k_rscn, out, shape),
        16 => rscn_body::<16>(x, k_rscn, out, shape),
        n => rscn_body_dyn(x, k_rscn, out, shape, n),
    }
}

/// [`conv2d_rscn_into`]'s loop nest for a compile-time output width.
fn rscn_body<const N: usize>(x: &[f32], k_rscn: &[f32], out: &mut [f32], shape: &ConvShape) {
    let (h, w, c) = (shape.h as isize, shape.w as isize, shape.c);
    let out_w = shape.out_w();
    let (r, s) = (shape.r, shape.s);
    let (pad, stride) = (shape.pad as isize, shape.stride as isize);

    out.chunks_mut(out_w * N).enumerate().for_each(|(oy, row)| {
        // The valid tap ranges only depend on the output coordinate, so
        // hoist them: `rr` bounds once per row, `ss` bounds once per
        // column. Inside them every tap is in bounds and the loops run
        // branch-free; the *contributing* taps — and their order — are
        // exactly those the bounds-checked form visits.
        let rr_lo = (pad - oy as isize * stride).max(0) as usize;
        let rr_hi = (h + pad - oy as isize * stride).min(r as isize).max(0) as usize;
        for (ox, acc_out) in row.chunks_exact_mut(N).enumerate() {
            let ss_lo = (pad - ox as isize * stride).max(0) as usize;
            let ss_hi = (w + pad - ox as isize * stride).min(s as isize).max(0) as usize;
            let mut acc = [0.0f32; N];
            for rr in rr_lo..rr_hi {
                let iy = (oy as isize * stride + rr as isize - pad) as usize;
                for ss in ss_lo..ss_hi {
                    let ix = (ox as isize * stride + ss as isize - pad) as usize;
                    let x_base = (iy * shape.w + ix) * c;
                    let tap = &k_rscn[(rr * s + ss) * c * N..(rr * s + ss + 1) * c * N];
                    for ch in 0..c {
                        let xv = x[x_base + ch];
                        let wrow = &tap[ch * N..(ch + 1) * N];
                        for (a, &wv) in acc.iter_mut().zip(wrow) {
                            *a += xv * wv;
                        }
                    }
                }
            }
            acc_out.copy_from_slice(&acc);
        }
    });
}

/// [`conv2d_rscn_into`]'s loop nest for a runtime output width (uncommon
/// ranks); accumulates directly into the output row.
fn rscn_body_dyn(x: &[f32], k_rscn: &[f32], out: &mut [f32], shape: &ConvShape, n: usize) {
    let (h, w, c) = (shape.h as isize, shape.w as isize, shape.c);
    let out_w = shape.out_w();
    let (r, s) = (shape.r, shape.s);
    let (pad, stride) = (shape.pad as isize, shape.stride as isize);

    out.chunks_mut(out_w * n).enumerate().for_each(|(oy, row)| {
        let rr_lo = (pad - oy as isize * stride).max(0) as usize;
        let rr_hi = (h + pad - oy as isize * stride).min(r as isize).max(0) as usize;
        for (ox, acc) in row.chunks_exact_mut(n).enumerate() {
            let ss_lo = (pad - ox as isize * stride).max(0) as usize;
            let ss_hi = (w + pad - ox as isize * stride).min(s as isize).max(0) as usize;
            for rr in rr_lo..rr_hi {
                let iy = (oy as isize * stride + rr as isize - pad) as usize;
                for ss in ss_lo..ss_hi {
                    let ix = (ox as isize * stride + ss as isize - pad) as usize;
                    let x_base = (iy * shape.w + ix) * c;
                    let tap = &k_rscn[(rr * s + ss) * c * n..(rr * s + ss + 1) * c * n];
                    for ch in 0..c {
                        let xv = x[x_base + ch];
                        let wrow = &tap[ch * n..(ch + 1) * n];
                        for (a, &wv) in acc.iter_mut().zip(wrow) {
                            *a += xv * wv;
                        }
                    }
                }
            }
        }
    });
}

/// Scalar, non-optimised reference kept deliberately naive for
/// differential testing of [`conv2d`] itself. Gated behind `cfg(test)` / the
/// `reference` feature so it can never be picked up on the serving path.
#[cfg(any(test, feature = "reference"))]
pub fn conv2d_naive(input: &Tensor, kernel: &Tensor, shape: &ConvShape) -> Result<Tensor> {
    check_input_hwc(input, shape)?;
    check_kernel_cnrs(kernel, shape)?;
    let (out_h, out_w) = (shape.out_h(), shape.out_w());
    let mut out = Tensor::zeros(vec![out_h, out_w, shape.n]);
    for oy in 0..out_h {
        for ox in 0..out_w {
            for on in 0..shape.n {
                let mut acc = 0.0f64;
                for ch in 0..shape.c {
                    for rr in 0..shape.r {
                        for ss in 0..shape.s {
                            let iy = (oy * shape.stride + rr) as isize - shape.pad as isize;
                            let ix = (ox * shape.stride + ss) as isize - shape.pad as isize;
                            if iy < 0 || iy >= shape.h as isize || ix < 0 || ix >= shape.w as isize
                            {
                                continue;
                            }
                            acc += input.get(&[iy as usize, ix as usize, ch]) as f64
                                * kernel.get(&[ch, on, rr, ss]) as f64;
                        }
                    }
                }
                out.set(&[oy, ox, on], acc as f32);
            }
        }
    }
    Ok(out)
}

/// Pointwise (1×1) convolution specialisation: a plain `(H·W) × C` by `C × N`
/// matrix product. The two channel-mixing stages of a Tucker-format layer are
/// exactly this operation.
pub fn conv1x1(input: &Tensor, weights: &Tensor) -> Result<Tensor> {
    if input.rank() != 3 {
        return Err(ConvError::BadInput {
            expected: vec![0, 0, 0],
            actual: input.dims().to_vec(),
        });
    }
    if weights.rank() != 2 || weights.dims()[0] != input.dims()[2] {
        return Err(ConvError::BadKernel {
            expected: vec![input.dims()[2], 0],
            actual: weights.dims().to_vec(),
        });
    }
    let (h, w, c) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let n = weights.dims()[1];
    let flat = input.clone().reshape(vec![h * w, c])?;
    let out = tdc_tensor::matmul::matmul(&flat, weights)?;
    Ok(out.reshape(vec![h, w, n])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use tdc_tensor::init;

    #[test]
    fn identity_kernel_reproduces_input_channel() {
        // 1x1 kernel that copies channel 0 to the single output channel.
        let shape = ConvShape::new(2, 1, 4, 4, 1, 1, 0, 1);
        let input = Tensor::from_fn(vec![4, 4, 2], |i| {
            if i[2] == 0 {
                (i[0] * 4 + i[1]) as f32
            } else {
                99.0
            }
        });
        let mut kernel = Tensor::zeros(vec![2, 1, 1, 1]);
        kernel.set(&[0, 0, 0, 0], 1.0);
        let out = conv2d(&input, &kernel, &shape).unwrap();
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(out.get(&[y, x, 0]), (y * 4 + x) as f32);
            }
        }
    }

    #[test]
    fn hand_computed_3x3_example() {
        // 3x3 all-ones input, 3x3 all-ones kernel, valid conv -> single output = 9.
        let shape = ConvShape::core(1, 1, 3, 3);
        let input = Tensor::ones(vec![3, 3, 1]);
        let kernel = Tensor::ones(vec![1, 1, 3, 3]);
        let out = conv2d(&input, &kernel, &shape).unwrap();
        assert_eq!(out.dims(), &[1, 1, 1]);
        assert_eq!(out.get(&[0, 0, 0]), 9.0);
    }

    #[test]
    fn padding_produces_same_size_output() {
        let shape = ConvShape::same3x3(1, 1, 4, 4);
        let input = Tensor::ones(vec![4, 4, 1]);
        let kernel = Tensor::ones(vec![1, 1, 3, 3]);
        let out = conv2d(&input, &kernel, &shape).unwrap();
        assert_eq!(out.dims(), &[4, 4, 1]);
        // Corner sees a 2x2 window, edge 2x3, centre 3x3.
        assert_eq!(out.get(&[0, 0, 0]), 4.0);
        assert_eq!(out.get(&[0, 1, 0]), 6.0);
        assert_eq!(out.get(&[1, 1, 0]), 9.0);
    }

    #[test]
    fn stride_two_subsamples() {
        let shape = ConvShape::new(1, 1, 5, 5, 1, 1, 0, 2);
        let input = Tensor::from_fn(vec![5, 5, 1], |i| (i[0] * 5 + i[1]) as f32);
        let kernel = Tensor::ones(vec![1, 1, 1, 1]);
        let out = conv2d(&input, &kernel, &shape).unwrap();
        assert_eq!(out.dims(), &[3, 3, 1]);
        assert_eq!(out.get(&[0, 0, 0]), 0.0);
        assert_eq!(out.get(&[0, 1, 0]), 2.0);
        assert_eq!(out.get(&[1, 0, 0]), 10.0);
        assert_eq!(out.get(&[2, 2, 0]), 24.0);
    }

    #[test]
    fn parallel_matches_naive_on_random_shapes() {
        let mut rng = StdRng::seed_from_u64(99);
        let shapes = [
            ConvShape::core(3, 5, 9, 11),
            ConvShape::same3x3(4, 8, 7, 7),
            ConvShape::new(5, 6, 12, 10, 5, 3, 2, 2),
            ConvShape::pointwise(7, 9, 6, 6),
        ];
        for shape in shapes {
            let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
            let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
            let fast = conv2d(&input, &kernel, &shape).unwrap();
            let slow = conv2d_naive(&input, &kernel, &shape).unwrap();
            assert!(
                fast.relative_error(&slow).unwrap() < 1e-4,
                "mismatch for {shape}"
            );
        }
    }

    #[test]
    fn conv1x1_matches_direct_pointwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let shape = ConvShape::pointwise(6, 10, 8, 8);
        let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
        let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
        let full = conv2d(&input, &kernel, &shape).unwrap();
        // Express the same kernel as a C x N matrix.
        let weights = Tensor::from_fn(vec![6, 10], |i| kernel.get(&[i[0], i[1], 0, 0]));
        let fast = conv1x1(&input, &weights).unwrap();
        assert!(fast.relative_error(&full).unwrap() < 1e-5);
    }

    #[test]
    fn rejects_mismatched_tensors() {
        let shape = ConvShape::core(3, 4, 8, 8);
        let input = Tensor::zeros(vec![8, 8, 2]); // wrong channels
        let kernel = Tensor::zeros(vec![3, 4, 3, 3]);
        assert!(conv2d(&input, &kernel, &shape).is_err());
        let input = Tensor::zeros(vec![8, 8, 3]);
        let kernel = Tensor::zeros(vec![4, 3, 3, 3]); // transposed channels
        assert!(conv2d(&input, &kernel, &shape).is_err());
        let bad_weights = Tensor::zeros(vec![5, 7]);
        assert!(conv1x1(&input, &bad_weights).is_err());
    }

    #[test]
    fn linearity_in_the_input() {
        let mut rng = StdRng::seed_from_u64(13);
        let shape = ConvShape::same3x3(3, 4, 6, 6);
        let a = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
        let b = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
        let k = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
        let sum = tdc_tensor::ops::add(&a, &b).unwrap();
        let conv_sum = conv2d(&sum, &k, &shape).unwrap();
        let sum_conv = tdc_tensor::ops::add(
            &conv2d(&a, &k, &shape).unwrap(),
            &conv2d(&b, &k, &shape).unwrap(),
        )
        .unwrap();
        assert!(conv_sum.relative_error(&sum_conv).unwrap() < 1e-4);
    }
}
