//! Convolution shape descriptors and the paper's evaluation shapes.

use serde::{Deserialize, Serialize};

/// A single 2-D convolution problem, batch size 1, following the paper's
/// notation: `C` input channels, `N` output channels, `H×W` input spatial
/// size, `R×S` filter size, plus padding and stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvShape {
    /// Input channels.
    pub c: usize,
    /// Output channels.
    pub n: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Filter height.
    pub r: usize,
    /// Filter width.
    pub s: usize,
    /// Symmetric zero padding applied to both spatial dimensions.
    pub pad: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
}

impl ConvShape {
    /// A 3×3, stride-1, unpadded ("valid") convolution — the configuration the
    /// paper's core-convolution kernels are evaluated with.
    pub fn core(c: usize, n: usize, h: usize, w: usize) -> Self {
        ConvShape {
            c,
            n,
            h,
            w,
            r: 3,
            s: 3,
            pad: 0,
            stride: 1,
        }
    }

    /// A 3×3, stride-1 convolution with "same" padding (pad = 1).
    pub fn same3x3(c: usize, n: usize, h: usize, w: usize) -> Self {
        ConvShape {
            c,
            n,
            h,
            w,
            r: 3,
            s: 3,
            pad: 1,
            stride: 1,
        }
    }

    /// A 1×1 (pointwise) convolution — the channel-mixing layers a
    /// Tucker-format convolution adds before and after the core convolution.
    pub fn pointwise(c: usize, n: usize, h: usize, w: usize) -> Self {
        ConvShape {
            c,
            n,
            h,
            w,
            r: 1,
            s: 1,
            pad: 0,
            stride: 1,
        }
    }

    /// General constructor.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        c: usize,
        n: usize,
        h: usize,
        w: usize,
        r: usize,
        s: usize,
        pad: usize,
        stride: usize,
    ) -> Self {
        ConvShape {
            c,
            n,
            h,
            w,
            r,
            s,
            pad,
            stride,
        }
    }

    /// Output height `H'`.
    #[inline]
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad).saturating_sub(self.r) / self.stride + 1
    }

    /// Output width `W'`.
    #[inline]
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad).saturating_sub(self.s) / self.stride + 1
    }

    /// Whether the shape is a runnable convolution: every extent and the
    /// stride positive, and the padded input representable and at least as
    /// large as the filter. A valid shape's [`out_h`](Self::out_h) and
    /// [`out_w`](Self::out_w) cannot overflow.
    pub fn is_valid(&self) -> bool {
        let padded = |extent: usize| {
            self.pad
                .checked_mul(2)
                .and_then(|both| both.checked_add(extent))
        };
        self.c > 0
            && self.n > 0
            && self.h > 0
            && self.w > 0
            && self.r > 0
            && self.s > 0
            && self.stride > 0
            && padded(self.h).is_some_and(|h| h >= self.r)
            && padded(self.w).is_some_and(|w| w >= self.s)
    }

    /// Number of multiply-accumulate FLOPs (counting one MAC as 2 FLOPs):
    /// `2 · H' · W' · R · S · C · N`.
    pub fn flops(&self) -> f64 {
        2.0 * self.out_h() as f64
            * self.out_w() as f64
            * self.r as f64
            * self.s as f64
            * self.c as f64
            * self.n as f64
    }

    /// Number of kernel parameters: `C · N · R · S`.
    pub fn params(&self) -> usize {
        self.c * self.n * self.r * self.s
    }

    /// Number of input elements `H · W · C`.
    pub fn input_elems(&self) -> usize {
        self.h * self.w * self.c
    }

    /// Number of output elements `H' · W' · N`.
    pub fn output_elems(&self) -> usize {
        self.out_h() * self.out_w() * self.n
    }

    /// Expected input tensor dims in HWC layout.
    pub fn input_dims(&self) -> Vec<usize> {
        vec![self.h, self.w, self.c]
    }

    /// Expected kernel tensor dims in CNRS layout.
    pub fn kernel_dims(&self) -> Vec<usize> {
        vec![self.c, self.n, self.r, self.s]
    }

    /// Expected output tensor dims in HWC layout.
    pub fn output_dims(&self) -> Vec<usize> {
        vec![self.out_h(), self.out_w(), self.n]
    }

    /// The shape of the Tucker *core* convolution obtained by replacing the
    /// channel counts with the Tucker ranks `(D1, D2)` (paper Section 6).
    pub fn with_ranks(&self, d1: usize, d2: usize) -> ConvShape {
        ConvShape {
            c: d1,
            n: d2,
            ..*self
        }
    }
}

impl std::fmt::Display for ConvShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(C={}, N={}, H={}, W={}, {}x{}, pad={}, stride={})",
            self.c, self.n, self.h, self.w, self.r, self.s, self.pad, self.stride
        )
    }
}

/// The 18 core-convolution shapes `(C, N, H, W)` evaluated in Figures 6 and 7,
/// in the order the paper plots them. All use 3×3 filters and batch size 1.
pub fn figure6_shapes() -> Vec<ConvShape> {
    const RAW: [(usize, usize, usize, usize); 18] = [
        (64, 32, 224, 224),
        (64, 32, 112, 112),
        (32, 32, 56, 56),
        (64, 32, 56, 56),
        (64, 64, 56, 56),
        (32, 32, 28, 28),
        (64, 32, 28, 28),
        (96, 64, 28, 28),
        (160, 96, 28, 28),
        (192, 96, 28, 28),
        (32, 32, 14, 14),
        (64, 32, 14, 14),
        (128, 96, 14, 14),
        (192, 96, 14, 14),
        (32, 32, 7, 7),
        (64, 32, 7, 7),
        (96, 64, 7, 7),
        (192, 160, 7, 7),
    ];
    RAW.iter()
        .map(|&(c, n, h, w)| ConvShape::same3x3(c, n, h, w))
        .collect()
}

/// The two shape families swept in Figure 4 (latency staircase): input channels
/// fixed at 64, output channels swept from 32 to 256 in steps of 32, at
/// 28×28 and 14×14 spatial sizes.
pub fn figure4_sweep() -> Vec<(ConvShape, &'static str)> {
    let mut out = Vec::new();
    for n in (32..=256).step_by(32) {
        out.push((ConvShape::same3x3(64, n, 28, 28), "28x28"));
    }
    for n in (32..=256).step_by(32) {
        out.push((ConvShape::same3x3(64, n, 14, 14), "14x14"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dims_valid_and_same_padding() {
        let valid = ConvShape::core(16, 32, 14, 14);
        assert_eq!(valid.out_h(), 12);
        assert_eq!(valid.out_w(), 12);
        let same = ConvShape::same3x3(16, 32, 14, 14);
        assert_eq!(same.out_h(), 14);
        assert_eq!(same.out_w(), 14);
    }

    #[test]
    fn strided_output_dims() {
        let s = ConvShape::new(3, 64, 224, 224, 7, 7, 3, 2);
        // (224 + 6 - 7) / 2 + 1 = 112 (ResNet stem).
        assert_eq!(s.out_h(), 112);
        assert_eq!(s.out_w(), 112);
    }

    #[test]
    fn pointwise_preserves_spatial_dims() {
        let p = ConvShape::pointwise(64, 16, 28, 28);
        assert_eq!(p.out_h(), 28);
        assert_eq!(p.out_w(), 28);
        assert_eq!(p.params(), 64 * 16);
    }

    #[test]
    fn flops_formula_matches_paper() {
        // 2 * H'W' * RS * C * N
        let s = ConvShape::same3x3(64, 32, 28, 28);
        let expected = 2.0 * 28.0 * 28.0 * 9.0 * 64.0 * 32.0;
        assert!((s.flops() - expected).abs() < 1.0);
    }

    #[test]
    fn params_formula() {
        let s = ConvShape::same3x3(64, 32, 28, 28);
        assert_eq!(s.params(), 64 * 32 * 9);
    }

    #[test]
    fn validity_checks() {
        assert!(ConvShape::core(1, 1, 3, 3).is_valid());
        assert!(!ConvShape::core(1, 1, 2, 2).is_valid()); // 3x3 filter on 2x2 input, no pad
        assert!(!ConvShape::new(0, 1, 8, 8, 3, 3, 0, 1).is_valid());
        assert!(!ConvShape::new(1, 1, 8, 8, 3, 3, 0, 0).is_valid());
        assert!(!ConvShape::new(1, 1, 0, 8, 1, 1, 1, 1).is_valid());
    }

    #[test]
    fn figure6_shape_list() {
        let shapes = figure6_shapes();
        assert_eq!(shapes.len(), 18);
        assert_eq!(shapes[0], ConvShape::same3x3(64, 32, 224, 224));
        assert_eq!(shapes[17], ConvShape::same3x3(192, 160, 7, 7));
        assert!(shapes.iter().all(|s| s.r == 3 && s.s == 3 && s.is_valid()));
    }

    #[test]
    fn figure4_sweep_covers_both_spatial_sizes() {
        let sweep = figure4_sweep();
        assert_eq!(sweep.len(), 16);
        assert!(sweep.iter().filter(|(_, label)| *label == "28x28").count() == 8);
        assert!(sweep.iter().all(|(s, _)| s.c == 64));
        assert_eq!(sweep[0].0.n, 32);
        assert_eq!(sweep[7].0.n, 256);
    }

    #[test]
    fn with_ranks_replaces_channels() {
        let s = ConvShape::same3x3(256, 512, 14, 14);
        let core = s.with_ranks(64, 96);
        assert_eq!(core.c, 64);
        assert_eq!(core.n, 96);
        assert_eq!(core.h, s.h);
        assert!(core.flops() < s.flops());
    }

    #[test]
    fn display_is_readable() {
        let s = ConvShape::same3x3(64, 32, 28, 28);
        let text = s.to_string();
        assert!(text.contains("C=64"));
        assert!(text.contains("N=32"));
    }
}
