//! Winograd F(2×2, 3×3) convolution — the cuDNN `WINOGRAD` analogue.
//!
//! For 3×3, stride-1 filters, the Winograd minimal filtering algorithm
//! computes each 2×2 output tile from a 4×4 input tile with 16 elementwise
//! multiplies instead of 36 multiply-adds, at the price of small input/kernel/
//! output transforms. This is the algorithm family cuDNN selects for most 3×3
//! layers, so the paper uses it as one of its baselines.
//!
//! The implementation follows the standard matrices
//! `B^T (4×4)`, `G (4×3)`, `A^T (2×4)` from Lavin & Gray, applied per
//! `(input-channel, output-channel)` pair and accumulated over input channels.

use crate::layout::{check_input_hwc, check_kernel_cnrs, pad_hwc};
use crate::shapes::ConvShape;
use crate::{ConvError, Result};
use tdc_tensor::Tensor;

/// Output tile size `m` of F(m×m, 3×3).
pub const TILE_OUT: usize = 2;
/// Input tile size `m + r - 1`.
pub const TILE_IN: usize = 4;

// B^T: input transform (4x4).
const BT: [[f32; 4]; 4] = [
    [1.0, 0.0, -1.0, 0.0],
    [0.0, 1.0, 1.0, 0.0],
    [0.0, -1.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, -1.0],
];

// G: kernel transform (4x3).
const G: [[f32; 3]; 4] = [
    [1.0, 0.0, 0.0],
    [0.5, 0.5, 0.5],
    [0.5, -0.5, 0.5],
    [0.0, 0.0, 1.0],
];

// A^T: output transform (2x4).
const AT: [[f32; 4]; 2] = [[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, -1.0]];

/// Transform one 3×3 kernel tile: `U = G g G^T` (4×4).
fn transform_kernel(g: &[[f32; 3]; 3]) -> [[f32; 4]; 4] {
    // tmp = G (4x3) * g (3x3) -> 4x3
    let mut tmp = [[0.0f32; 3]; 4];
    for i in 0..4 {
        for j in 0..3 {
            for k in 0..3 {
                tmp[i][j] += G[i][k] * g[k][j];
            }
        }
    }
    // U = tmp (4x3) * G^T (3x4) -> 4x4
    let mut u = [[0.0f32; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..3 {
                u[i][j] += tmp[i][k] * G[j][k];
            }
        }
    }
    u
}

/// Transform one 4×4 input tile: `V = B^T d B` (4×4).
fn transform_input(d: &[[f32; 4]; 4]) -> [[f32; 4]; 4] {
    let mut tmp = [[0.0f32; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..4 {
                tmp[i][j] += BT[i][k] * d[k][j];
            }
        }
    }
    let mut v = [[0.0f32; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            for k in 0..4 {
                v[i][j] += tmp[i][k] * BT[j][k];
            }
        }
    }
    v
}

/// Inverse transform of the elementwise product: `Y = A^T m A` (2×2).
fn transform_output(m: &[[f32; 4]; 4]) -> [[f32; 2]; 2] {
    let mut tmp = [[0.0f32; 4]; 2];
    for i in 0..2 {
        for j in 0..4 {
            for k in 0..4 {
                tmp[i][j] += AT[i][k] * m[k][j];
            }
        }
    }
    let mut y = [[0.0f32; 2]; 2];
    for i in 0..2 {
        for j in 0..2 {
            for k in 0..4 {
                y[i][j] += tmp[i][k] * AT[j][k];
            }
        }
    }
    y
}

/// Winograd F(2×2, 3×3) convolution. Requires `r = s = 3` and `stride = 1`;
/// any padding is handled by materialising the padded input first.
// Index-symmetric numeric kernel: explicit indices mirror the math.
#[allow(clippy::needless_range_loop)]
pub fn conv2d(input: &Tensor, kernel: &Tensor, shape: &ConvShape) -> Result<Tensor> {
    check_input_hwc(input, shape)?;
    check_kernel_cnrs(kernel, shape)?;
    if shape.r != 3 || shape.s != 3 {
        return Err(ConvError::Unsupported {
            algorithm: "winograd",
            reason: format!(
                "only 3x3 filters are supported, got {}x{}",
                shape.r, shape.s
            ),
        });
    }
    if shape.stride != 1 {
        return Err(ConvError::Unsupported {
            algorithm: "winograd",
            reason: format!("only stride 1 is supported, got {}", shape.stride),
        });
    }

    let padded = pad_hwc(input, shape.pad)?;
    let ph = shape.h + 2 * shape.pad;
    let pw = shape.w + 2 * shape.pad;
    let (out_h, out_w, n, c) = (shape.out_h(), shape.out_w(), shape.n, shape.c);

    // Pre-transform all kernels: U[c][n] is 4x4.
    let transformed: Vec<[[f32; 4]; 4]> = (0..c * n)
        .map(|idx| {
            let ch = idx / n;
            let on = idx % n;
            let mut g = [[0.0f32; 3]; 3];
            for rr in 0..3 {
                for ss in 0..3 {
                    g[rr][ss] = kernel.get(&[ch, on, rr, ss]);
                }
            }
            transform_kernel(&g)
        })
        .collect();

    let tiles_y = out_h.div_ceil(TILE_OUT);
    let tiles_x = out_w.div_ceil(TILE_OUT);
    let x = padded.data();

    let mut out = vec![0.0f32; out_h * out_w * n];
    // One result buffer per tile row; each covers disjoint output rows.
    let tile_rows: Vec<Vec<f32>> = (0..tiles_y)
        .map(|ty| {
            let mut local = vec![0.0f32; TILE_OUT * out_w * n];
            for tx in 0..tiles_x {
                let oy0 = ty * TILE_OUT;
                let ox0 = tx * TILE_OUT;
                for on in 0..n {
                    let mut m_acc = [[0.0f32; 4]; 4];
                    for ch in 0..c {
                        // Gather the 4x4 input tile (zero beyond the padded bounds).
                        let mut d = [[0.0f32; 4]; 4];
                        for dy in 0..TILE_IN {
                            for dx in 0..TILE_IN {
                                let iy = oy0 + dy;
                                let ix = ox0 + dx;
                                d[dy][dx] = if iy < ph && ix < pw {
                                    x[(iy * pw + ix) * c + ch]
                                } else {
                                    0.0
                                };
                            }
                        }
                        let v = transform_input(&d);
                        let u = &transformed[ch * n + on];
                        for i in 0..4 {
                            for j in 0..4 {
                                m_acc[i][j] += u[i][j] * v[i][j];
                            }
                        }
                    }
                    let y = transform_output(&m_acc);
                    for dy in 0..TILE_OUT {
                        for dx in 0..TILE_OUT {
                            let oy = oy0 + dy;
                            let ox = ox0 + dx;
                            if oy < out_h && ox < out_w {
                                local[(dy * out_w + ox) * n + on] = y[dy][dx];
                            }
                        }
                    }
                }
            }
            local
        })
        .collect();

    for (ty, local) in tile_rows.into_iter().enumerate() {
        let oy0 = ty * TILE_OUT;
        for dy in 0..TILE_OUT {
            let oy = oy0 + dy;
            if oy >= out_h {
                continue;
            }
            let dst = &mut out[oy * out_w * n..(oy + 1) * out_w * n];
            dst.copy_from_slice(&local[dy * out_w * n..(dy + 1) * out_w * n]);
        }
    }

    Ok(Tensor::from_vec(vec![out_h, out_w, n], out)?)
}

/// Multiplication count of F(2×2, 3×3) relative to direct convolution:
/// 36 multiplies per 2×2 output tile become 16, a 2.25× reduction.
pub fn flop_reduction_factor() -> f64 {
    36.0 / 16.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct;
    use rand::{rngs::StdRng, SeedableRng};
    use tdc_tensor::init;

    #[test]
    fn kernel_transform_of_identity_tap() {
        // A kernel with a single centre tap convolves as identity; its Winograd
        // transform must reproduce that behaviour end to end.
        let mut g = [[0.0f32; 3]; 3];
        g[1][1] = 1.0;
        let u = transform_kernel(&g);
        // Sanity: transform is finite and not all zeros.
        assert!(u.iter().flatten().any(|&v| v != 0.0));
    }

    #[test]
    fn matches_direct_on_even_sizes() {
        let mut rng = StdRng::seed_from_u64(21);
        for &(c, n, h, w) in &[
            (1usize, 1usize, 6usize, 6usize),
            (3, 4, 8, 8),
            (5, 2, 10, 6),
        ] {
            let shape = ConvShape::core(c, n, h, w);
            let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
            let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
            let wino = conv2d(&input, &kernel, &shape).unwrap();
            let reference = direct::conv2d(&input, &kernel, &shape).unwrap();
            assert!(
                wino.relative_error(&reference).unwrap() < 1e-4,
                "mismatch for {shape}: {}",
                wino.relative_error(&reference).unwrap()
            );
        }
    }

    #[test]
    fn matches_direct_with_same_padding_and_odd_sizes() {
        let mut rng = StdRng::seed_from_u64(22);
        for &(c, n, h, w) in &[
            (2usize, 3usize, 7usize, 7usize),
            (4, 4, 9, 11),
            (3, 2, 5, 13),
        ] {
            let shape = ConvShape::same3x3(c, n, h, w);
            let input = init::uniform(shape.input_dims(), -1.0, 1.0, &mut rng);
            let kernel = init::uniform(shape.kernel_dims(), -1.0, 1.0, &mut rng);
            let wino = conv2d(&input, &kernel, &shape).unwrap();
            let reference = direct::conv2d(&input, &kernel, &shape).unwrap();
            assert!(
                wino.relative_error(&reference).unwrap() < 1e-4,
                "mismatch for {shape}"
            );
        }
    }

    #[test]
    fn rejects_unsupported_configurations() {
        let input = Tensor::zeros(vec![8, 8, 2]);
        let k5 = Tensor::zeros(vec![2, 2, 5, 5]);
        let shape5 = ConvShape::new(2, 2, 8, 8, 5, 5, 0, 1);
        assert!(conv2d(&input, &k5, &shape5).is_err());

        let k3 = Tensor::zeros(vec![2, 2, 3, 3]);
        let strided = ConvShape::new(2, 2, 8, 8, 3, 3, 0, 2);
        assert!(conv2d(&input, &k3, &strided).is_err());
    }

    #[test]
    fn flop_reduction_is_2_25x() {
        assert!((flop_reduction_factor() - 2.25).abs() < 1e-12);
    }
}
