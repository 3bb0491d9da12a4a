//! Elementwise and axis-wise tensor operations.
//!
//! These are intentionally simple: same-shape binary ops, scalar ops and a few
//! axis reductions. They back the training substrate (`tdc-nn`) and the ADMM
//! update rules in `tdc-tucker`, where the heavy lifting is elementwise
//! (`K - K̂ + M`, L2 proximal terms, SGD updates).

use crate::tensor::Tensor;
use crate::{Result, TensorError};

fn check_same_shape(a: &Tensor, b: &Tensor, op: &'static str) -> Result<()> {
    if !a.shape().same_dims(b.shape()) {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op,
        });
    }
    Ok(())
}

fn binary_op(
    a: &Tensor,
    b: &Tensor,
    op: &'static str,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor> {
    check_same_shape(a, b, op)?;
    let mut out = vec![0.0f32; a.numel()];
    for (o, (&x, &y)) in out.iter_mut().zip(a.data().iter().zip(b.data().iter())) {
        *o = f(x, y);
    }
    Tensor::from_vec(a.dims().to_vec(), out)
}

/// Elementwise addition.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(a, b, "add", |x, y| x + y)
}

/// Elementwise subtraction.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(a, b, "sub", |x, y| x - y)
}

/// Elementwise (Hadamard) product.
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(a, b, "mul", |x, y| x * y)
}

/// Elementwise division.
pub fn div(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(a, b, "div", |x, y| x / y)
}

/// Multiply every element by a scalar.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    let mut out = a.clone();
    out.data_mut().iter_mut().for_each(|v| *v *= s);
    out
}

/// Add a scalar to every element.
pub fn add_scalar(a: &Tensor, s: f32) -> Tensor {
    let mut out = a.clone();
    out.data_mut().iter_mut().for_each(|v| *v += s);
    out
}

/// `a + alpha * b`, the AXPY primitive used in SGD and ADMM updates.
pub fn axpy(a: &Tensor, alpha: f32, b: &Tensor) -> Result<Tensor> {
    binary_op(a, b, "axpy", move |x, y| x + alpha * y)
}

/// In-place `a += alpha * b`.
pub fn axpy_inplace(a: &mut Tensor, alpha: f32, b: &Tensor) -> Result<()> {
    check_same_shape(a, b, "axpy_inplace")?;
    for (x, &y) in a.data_mut().iter_mut().zip(b.data().iter()) {
        *x += alpha * y;
    }
    Ok(())
}

/// Apply a unary function to every element.
pub fn map(a: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut out = a.clone();
    out.data_mut().iter_mut().for_each(|v| *v = f(*v));
    out
}

/// ReLU activation, `max(x, 0)`.
pub fn relu(a: &Tensor) -> Tensor {
    map(a, |x| x.max(0.0))
}

/// Gradient mask of ReLU: 1 where the forward input was positive, else 0.
pub fn relu_grad_mask(forward_input: &Tensor) -> Tensor {
    map(forward_input, |x| if x > 0.0 { 1.0 } else { 0.0 })
}

/// Dot product of two same-shaped tensors viewed as flat vectors.
pub fn dot(a: &Tensor, b: &Tensor) -> Result<f32> {
    check_same_shape(a, b, "dot")?;
    let s: f64 = a
        .data()
        .iter()
        .zip(b.data().iter())
        .map(|(&x, &y)| x as f64 * y as f64)
        .sum();
    Ok(s as f32)
}

/// Sum over the last axis of a rank-2 tensor, producing a rank-1 tensor of row sums.
// Index-symmetric numeric kernel: explicit indices mirror the math.
#[allow(clippy::needless_range_loop)]
pub fn row_sums(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::NotAMatrix { rank: a.rank() });
    }
    let (rows, cols) = (a.dims()[0], a.dims()[1]);
    let mut out = vec![0.0f32; rows];
    for r in 0..rows {
        let mut acc = 0.0f64;
        for c in 0..cols {
            acc += a.data()[r * cols + c] as f64;
        }
        out[r] = acc as f32;
    }
    Tensor::from_vec(vec![rows], out)
}

/// Column sums of a rank-2 tensor.
// Index-symmetric numeric kernel: explicit indices mirror the math.
#[allow(clippy::needless_range_loop)]
pub fn col_sums(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::NotAMatrix { rank: a.rank() });
    }
    let (rows, cols) = (a.dims()[0], a.dims()[1]);
    let mut out = vec![0.0f64; cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c] += a.data()[r * cols + c] as f64;
        }
    }
    Tensor::from_vec(vec![cols], out.into_iter().map(|v| v as f32).collect())
}

/// Numerically stable softmax along the last axis of a rank-2 tensor
/// (rows are independent distributions).
pub fn softmax_rows(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::NotAMatrix { rank: a.rank() });
    }
    let (rows, cols) = (a.dims()[0], a.dims()[1]);
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        let row = &a.data()[r * cols..(r + 1) * cols];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f64;
        for c in 0..cols {
            let e = ((row[c] - m) as f64).exp();
            out[r * cols + c] = e as f32;
            denom += e;
        }
        for c in 0..cols {
            out[r * cols + c] = (out[r * cols + c] as f64 / denom) as f32;
        }
    }
    Tensor::from_vec(vec![rows, cols], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(vec![n], v).unwrap()
    }

    #[test]
    fn elementwise_binary_ops() {
        let a = t(vec![1., 2., 3.]);
        let b = t(vec![4., 5., 6.]);
        assert_eq!(add(&a, &b).unwrap().data(), &[5., 7., 9.]);
        assert_eq!(sub(&b, &a).unwrap().data(), &[3., 3., 3.]);
        assert_eq!(mul(&a, &b).unwrap().data(), &[4., 10., 18.]);
        assert_eq!(div(&b, &a).unwrap().data(), &[4., 2.5, 2.]);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = t(vec![1., 2., 3.]);
        let b = t(vec![1., 2.]);
        assert!(add(&a, &b).is_err());
        assert!(dot(&a, &b).is_err());
    }

    #[test]
    fn scalar_ops() {
        let a = t(vec![1., 2., 3.]);
        assert_eq!(scale(&a, 2.0).data(), &[2., 4., 6.]);
        assert_eq!(add_scalar(&a, 1.0).data(), &[2., 3., 4.]);
    }

    #[test]
    fn axpy_matches_manual() {
        let a = t(vec![1., 2., 3.]);
        let b = t(vec![10., 20., 30.]);
        assert_eq!(axpy(&a, 0.5, &b).unwrap().data(), &[6., 12., 18.]);
        let mut c = a.clone();
        axpy_inplace(&mut c, -1.0, &b).unwrap();
        assert_eq!(c.data(), &[-9., -18., -27.]);
    }

    #[test]
    fn relu_and_mask() {
        let a = t(vec![-1., 0., 2.]);
        assert_eq!(relu(&a).data(), &[0., 0., 2.]);
        assert_eq!(relu_grad_mask(&a).data(), &[0., 0., 1.]);
    }

    #[test]
    fn dot_product() {
        let a = t(vec![1., 2., 3.]);
        let b = t(vec![4., 5., 6.]);
        assert_eq!(dot(&a, &b).unwrap(), 32.0);
    }

    #[test]
    fn row_and_col_sums() {
        let m = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(row_sums(&m).unwrap().data(), &[6., 15.]);
        assert_eq!(col_sums(&m).unwrap().data(), &[5., 7., 9.]);
        assert!(row_sums(&t(vec![1.0])).is_err());
    }

    #[test]
    fn softmax_rows_sums_to_one_and_is_stable() {
        let m = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 1000., 1001., 1002.]).unwrap();
        let s = softmax_rows(&m).unwrap();
        for r in 0..2 {
            let sum: f32 = (0..3).map(|c| s.get(&[r, c])).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Large logits must not produce NaN.
        assert!(s.is_finite());
        // Softmax is shift invariant, so the two rows must be (nearly) identical.
        for c in 0..3 {
            assert!((s.get(&[0, c]) - s.get(&[1, c])).abs() < 1e-5);
        }
    }

    #[test]
    fn parallel_path_matches_serial_path() {
        // A long vector against per-element and f64 references.
        let n = (1 << 14) + 17;
        let a = Tensor::from_vec(vec![n], (0..n).map(|i| i as f32 * 0.5).collect()).unwrap();
        let b = Tensor::from_vec(vec![n], (0..n).map(|i| (n - i) as f32).collect()).unwrap();
        let big = add(&a, &b).unwrap();
        for i in (0..n).step_by(997) {
            assert_eq!(big.data()[i], a.data()[i] + b.data()[i]);
        }
        let d = dot(&a, &b).unwrap();
        let mut manual = 0.0f64;
        for i in 0..n {
            manual += a.data()[i] as f64 * b.data()[i] as f64;
        }
        assert!((d as f64 - manual).abs() / manual.abs() < 1e-5);
    }
}
