//! # tdc-conv
//!
//! Convolution algorithms for the TDC reproduction.
//!
//! The paper compares its hand-designed Tucker-core convolution kernel against
//! cuDNN's three algorithm families (implicit GEMM, Winograd, FFT) and against
//! the scheme TVM's code generator produces (paper Listing 1). This crate
//! provides, for each of those algorithm families:
//!
//! * a **CPU reference implementation** operating on [`tdc_tensor::Tensor`]s
//!   (used for correctness testing and by the training substrate), and
//! * a **GPU cost model** that translates a convolution shape plus scheme
//!   parameters into [`tdc_gpu_sim::KernelLaunch`] descriptors so the
//!   simulator can estimate latency on the A100 / RTX 2080 Ti device models.
//!
//! Data conventions follow the paper's notation (Table 1): the input is
//! `X ∈ R^{H×W×C}` (HWC, batch size 1 — the latency-critical inference case),
//! the kernel is `K ∈ R^{C×N×R×S}` and the output is `Y ∈ R^{H'×W'×N}`.
//!
//! Modules:
//!
//! * [`shapes`] — convolution shape descriptors, FLOP/parameter counts, and
//!   the 18 evaluation shapes of Figures 6/7.
//! * [`layout`] — kernel layout conversions, in particular the `CRSN` layout
//!   the TDC kernel uses for coalesced weight loads.
//! * [`mod@dispatch`] — the single typed surface ([`dispatch::dispatch`]) through
//!   which backends select a CPU algorithm.
//! * [`direct`] — direct (row-at-a-time loop nest) convolution, the correctness
//!   reference for everything else.
//! * [`im2col`] — im2col + GEMM convolution (cuDNN IMPLICIT_GEMM analogue).
//! * [`winograd`] — Winograd F(2×2, 3×3) convolution.
//! * [`fft`] — FFT-based convolution.
//! * [`tvm_scheme`] — the TVM convolution scheme of paper Listing 1 (CPU
//!   emulation + cost model).
//! * [`tdc_scheme`] — the TDC convolution scheme of paper Listing 2 (CPU
//!   emulation + cost model), parameterised by the `(TH, TW, TC)` tiling.
//! * [`cost`] — the common cost-model trait and the cuDNN-algorithm cost
//!   models.

pub mod cost;
pub mod direct;
pub mod dispatch;
pub mod fft;
pub mod im2col;
pub mod layout;
pub mod shapes;
pub mod tdc_scheme;
pub mod tvm_scheme;
pub mod winograd;

pub use cost::{ConvAlgorithm, ConvCostModel};
pub use dispatch::{dispatch, CpuConvAlgorithm};
pub use shapes::ConvShape;
pub use tdc_scheme::Tiling;

/// Errors produced by convolution routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConvError {
    /// The input tensor's shape is inconsistent with the convolution shape.
    BadInput {
        expected: Vec<usize>,
        actual: Vec<usize>,
    },
    /// The kernel tensor's shape is inconsistent with the convolution shape.
    BadKernel {
        expected: Vec<usize>,
        actual: Vec<usize>,
    },
    /// The algorithm does not support this configuration (e.g. Winograd with
    /// stride 2).
    Unsupported {
        algorithm: &'static str,
        reason: String,
    },
    /// A tiling parameter is invalid for the shape.
    BadTiling { reason: String },
    /// An underlying tensor operation failed.
    Tensor(tdc_tensor::TensorError),
}

impl std::fmt::Display for ConvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvError::BadInput { expected, actual } => {
                write!(f, "bad input shape: expected {expected:?}, got {actual:?}")
            }
            ConvError::BadKernel { expected, actual } => {
                write!(f, "bad kernel shape: expected {expected:?}, got {actual:?}")
            }
            ConvError::Unsupported { algorithm, reason } => {
                write!(
                    f,
                    "{algorithm} does not support this configuration: {reason}"
                )
            }
            ConvError::BadTiling { reason } => write!(f, "bad tiling: {reason}"),
            ConvError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for ConvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConvError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tdc_tensor::TensorError> for ConvError {
    fn from(e: tdc_tensor::TensorError) -> Self {
        ConvError::Tensor(e)
    }
}

/// Result alias for convolution routines.
pub type Result<T> = std::result::Result<T, ConvError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = ConvError::Unsupported {
            algorithm: "winograd",
            reason: "stride 2".into(),
        };
        assert!(e.to_string().contains("winograd"));
        let e: ConvError = tdc_tensor::TensorError::NotAMatrix { rank: 3 }.into();
        assert!(e.to_string().contains("tensor error"));
    }

    #[test]
    fn error_source_chains_to_the_wrapped_error() {
        use std::error::Error as _;
        let e: ConvError = tdc_tensor::TensorError::NotAMatrix { rank: 3 }.into();
        assert!(e
            .source()
            .expect("tensor source")
            .to_string()
            .contains("rank"));
        assert!(ConvError::BadTiling { reason: "x".into() }
            .source()
            .is_none());
    }
}
