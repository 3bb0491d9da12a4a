//! # tdc-tensor
//!
//! Dense tensor library underpinning the TDC reproduction.
//!
//! The crate provides exactly the numerical substrate the TDC paper relies on:
//!
//! * row-major dense tensors of `f32` with arbitrary rank ([`Tensor`]),
//! * cache-blocked, register-tiled matrix multiplication ([`matmul`]),
//! * mode-n matricization / tensorization used by the truncated-HOSVD
//!   projection in the ADMM training loop ([`matricize`]),
//! * a one-sided Jacobi SVD with truncation ([`svd`]),
//! * weight initialisers used by the training substrate ([`init`]).
//!
//! Everything is written from scratch on top of `std` and `rand`; no
//! BLAS/LAPACK bindings are used so the workspace builds fully offline.
//!
//! ## Quick example
//!
//! ```
//! use tdc_tensor::{Tensor, matmul::matmul};
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
//! let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
//! let c = matmul(&a, &b).unwrap();
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! assert!((c.get(&[0, 0]) - 58.0).abs() < 1e-6);
//! ```

pub mod init;
pub mod linalg;
pub mod matmul;
pub mod matricize;
pub mod ops;
pub mod shape;
pub mod svd;
pub mod tensor;

pub use shape::Shape;
pub use tensor::Tensor;

/// Error type shared by all fallible tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements implied by the shape does not match the data length.
    ShapeDataMismatch { expected: usize, actual: usize },
    /// Two operands have incompatible shapes for the requested operation.
    ShapeMismatch {
        lhs: Vec<usize>,
        rhs: Vec<usize>,
        op: &'static str,
    },
    /// A dimension index was out of range for the tensor's rank.
    InvalidAxis { axis: usize, rank: usize },
    /// A multi-dimensional index was out of bounds.
    IndexOutOfBounds { index: Vec<usize>, dims: Vec<usize> },
    /// Reshape target has a different number of elements.
    InvalidReshape { from: usize, to: usize },
    /// An operation requires a matrix (rank-2 tensor) but got something else.
    NotAMatrix { rank: usize },
    /// Numerical routine failed to converge.
    NoConvergence {
        routine: &'static str,
        iterations: usize,
    },
    /// A parameter was outside its legal range.
    InvalidParameter { what: &'static str },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { expected, actual } => write!(
                f,
                "shape/data mismatch: shape implies {expected} elements, data has {actual}"
            ),
            TensorError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch in {op}: lhs {lhs:?} vs rhs {rhs:?}")
            }
            TensorError::InvalidAxis { axis, rank } => {
                write!(f, "axis {axis} out of range for rank-{rank} tensor")
            }
            TensorError::IndexOutOfBounds { index, dims } => {
                write!(f, "index {index:?} out of bounds for dims {dims:?}")
            }
            TensorError::InvalidReshape { from, to } => {
                write!(f, "cannot reshape {from} elements into {to} elements")
            }
            TensorError::NotAMatrix { rank } => {
                write!(f, "expected a rank-2 tensor, got rank {rank}")
            }
            TensorError::NoConvergence {
                routine,
                iterations,
            } => {
                write!(
                    f,
                    "{routine} failed to converge after {iterations} iterations"
                )
            }
            TensorError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = TensorError::ShapeDataMismatch {
            expected: 6,
            actual: 5,
        };
        assert!(e.to_string().contains("6"));
        assert!(e.to_string().contains("5"));

        let e = TensorError::ShapeMismatch {
            lhs: vec![2, 3],
            rhs: vec![4, 5],
            op: "matmul",
        };
        assert!(e.to_string().contains("matmul"));

        let e = TensorError::NoConvergence {
            routine: "jacobi_svd",
            iterations: 100,
        };
        assert!(e.to_string().contains("jacobi_svd"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            TensorError::InvalidAxis { axis: 3, rank: 2 },
            TensorError::InvalidAxis { axis: 3, rank: 2 }
        );
        assert_ne!(
            TensorError::InvalidAxis { axis: 3, rank: 2 },
            TensorError::InvalidAxis { axis: 1, rank: 2 }
        );
    }
}
