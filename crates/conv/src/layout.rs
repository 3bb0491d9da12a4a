//! Kernel and activation data layouts.
//!
//! The TDC kernel's key memory optimisation (Section 5.2) is storing the
//! convolution weights in `CRSN` order so that the loads issued by the `N`
//! threads of a block — one output channel each — touch consecutive addresses
//! and fully coalesce. The conversion is done offline, once, exactly as the
//! paper describes; this module provides it together with the `RSCN` layout
//! the vectorised direct kernel streams, input padding, and the shape checks
//! the reference implementations share.

use crate::shapes::ConvShape;
use crate::{ConvError, Result};
use tdc_tensor::Tensor;

/// Validate that a kernel tensor matches the CNRS dims implied by `shape`.
pub fn check_kernel_cnrs(kernel: &Tensor, shape: &ConvShape) -> Result<()> {
    let expected = shape.kernel_dims();
    if kernel.dims() != expected.as_slice() {
        return Err(ConvError::BadKernel {
            expected,
            actual: kernel.dims().to_vec(),
        });
    }
    Ok(())
}

/// Validate that an input tensor matches the HWC dims implied by `shape`.
pub fn check_input_hwc(input: &Tensor, shape: &ConvShape) -> Result<()> {
    let expected = shape.input_dims();
    if input.dims() != expected.as_slice() {
        return Err(ConvError::BadInput {
            expected,
            actual: input.dims().to_vec(),
        });
    }
    Ok(())
}

/// Convert a CNRS kernel to CRSN layout (the offline conversion of Section 5.2).
pub fn cnrs_to_crsn(kernel: &Tensor) -> Result<Tensor> {
    if kernel.rank() != 4 {
        return Err(ConvError::BadKernel {
            expected: vec![0, 0, 0, 0],
            actual: kernel.dims().to_vec(),
        });
    }
    // (C, N, R, S) -> (C, R, S, N)
    Ok(kernel.permute(&[0, 2, 3, 1])?)
}

/// Convert a CRSN kernel back to CNRS layout.
pub fn crsn_to_cnrs(kernel: &Tensor) -> Result<Tensor> {
    if kernel.rank() != 4 {
        return Err(ConvError::BadKernel {
            expected: vec![0, 0, 0, 0],
            actual: kernel.dims().to_vec(),
        });
    }
    // (C, R, S, N) -> (C, N, R, S)
    Ok(kernel.permute(&[0, 3, 1, 2])?)
}

/// Convert a CNRS kernel to RSCN layout: for each kernel tap `(r, s)` the
/// `C × N` weight block is contiguous with `n` fastest, which is what the
/// vectorised direct-convolution kernel
/// ([`crate::direct::conv2d_rscn_into`]) streams.
pub fn cnrs_to_rscn(kernel: &Tensor) -> Result<Tensor> {
    if kernel.rank() != 4 {
        return Err(ConvError::BadKernel {
            expected: vec![0, 0, 0, 0],
            actual: kernel.dims().to_vec(),
        });
    }
    // (C, N, R, S) -> (R, S, C, N)
    Ok(kernel.permute(&[2, 3, 0, 1])?)
}

/// Slice-level zero padding of `shape`'s HWC input: writes the
/// `(H + 2·pad) × (W + 2·pad) × C` copy of `x` into `out`. Every element is
/// written (border taps store literal `0.0`), so `out` need not be zeroed
/// first — the serving path stages it in a scratch arena.
pub fn pad_hwc_into(x: &[f32], out: &mut [f32], shape: &ConvShape) {
    let row = shape.w * shape.c;
    let prow = (shape.w + 2 * shape.pad) * shape.c;
    let edge = shape.pad * shape.c;
    assert_eq!(x.len(), shape.h * row, "input has wrong length");
    assert_eq!(
        out.len(),
        (shape.h + 2 * shape.pad) * prow,
        "padded buffer has wrong length"
    );
    let (top, rest) = out.split_at_mut(shape.pad * prow);
    let (body, bottom) = rest.split_at_mut(shape.h * prow);
    top.fill(0.0);
    bottom.fill(0.0);
    for (dst, src) in body.chunks_exact_mut(prow).zip(x.chunks_exact(row)) {
        dst[..edge].fill(0.0);
        dst[edge..edge + row].copy_from_slice(src);
        dst[edge + row..].fill(0.0);
    }
}

/// Zero-pad an HWC input tensor symmetrically in both spatial dimensions.
pub fn pad_hwc(input: &Tensor, pad: usize) -> Result<Tensor> {
    if input.rank() != 3 {
        return Err(ConvError::BadInput {
            expected: vec![0, 0, 0],
            actual: input.dims().to_vec(),
        });
    }
    if pad == 0 {
        return Ok(input.clone());
    }
    let (h, w, c) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    // Only the input extents and `pad` of the shape matter to the padding.
    let shape = ConvShape::new(c, 1, h, w, 1, 1, pad, 1);
    let mut out = vec![0.0; (h + 2 * pad) * (w + 2 * pad) * c];
    pad_hwc_into(input.data(), &mut out, &shape);
    Ok(Tensor::from_vec(vec![h + 2 * pad, w + 2 * pad, c], out)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use tdc_tensor::init;

    #[test]
    fn crsn_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let k = init::uniform(vec![8, 16, 3, 3], -1.0, 1.0, &mut rng);
        let crsn = cnrs_to_crsn(&k).unwrap();
        assert_eq!(crsn.dims(), &[8, 3, 3, 16]);
        let back = crsn_to_cnrs(&crsn).unwrap();
        assert_eq!(back, k);
    }

    #[test]
    fn crsn_puts_output_channel_contiguous() {
        let k = Tensor::from_fn(vec![2, 4, 3, 3], |i| (i[1]) as f32); // value = output channel
        let crsn = cnrs_to_crsn(&k).unwrap();
        // For fixed (c, r, s) the last axis enumerates output channels — the
        // values 0..N must be adjacent in memory.
        let base = &crsn.data()[0..4];
        assert_eq!(base, &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn layout_conversions_reject_wrong_rank() {
        let bad = Tensor::zeros(vec![3, 3, 3]);
        assert!(cnrs_to_crsn(&bad).is_err());
        assert!(crsn_to_cnrs(&bad).is_err());
    }

    #[test]
    fn padding_preserves_interior_and_zeroes_border() {
        let x = Tensor::from_fn(vec![2, 2, 1], |i| (i[0] * 2 + i[1] + 1) as f32);
        let p = pad_hwc(&x, 1).unwrap();
        assert_eq!(p.dims(), &[4, 4, 1]);
        assert_eq!(p.get(&[1, 1, 0]), 1.0);
        assert_eq!(p.get(&[2, 2, 0]), 4.0);
        assert_eq!(p.get(&[0, 0, 0]), 0.0);
        assert_eq!(p.get(&[3, 3, 0]), 0.0);
        // pad = 0 is a no-op clone
        assert_eq!(pad_hwc(&x, 0).unwrap(), x);
        // The slice form writes every element, so a dirty buffer comes out
        // identical to the tensor form.
        let shape = ConvShape::new(1, 1, 2, 2, 3, 3, 1, 1);
        let mut out = vec![f32::NAN; p.numel()];
        pad_hwc_into(x.data(), &mut out, &shape);
        assert_eq!(out.as_slice(), p.data());
    }

    #[test]
    fn shape_validators() {
        let shape = ConvShape::same3x3(3, 8, 10, 10);
        let good_in = Tensor::zeros(vec![10, 10, 3]);
        let bad_in = Tensor::zeros(vec![3, 10, 10]);
        assert!(check_input_hwc(&good_in, &shape).is_ok());
        assert!(check_input_hwc(&bad_in, &shape).is_err());
        let good_k = Tensor::zeros(vec![3, 8, 3, 3]);
        let bad_k = Tensor::zeros(vec![8, 3, 3, 3]);
        assert!(check_kernel_cnrs(&good_k, &shape).is_ok());
        assert!(check_kernel_cnrs(&bad_k, &shape).is_err());
    }
}
