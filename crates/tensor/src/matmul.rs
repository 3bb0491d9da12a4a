//! Cache-blocked, register-tiled matrix multiplication.
//!
//! GEMM is the workhorse behind im2col convolution, the 1×1 convolutions of a
//! Tucker-format layer, the fully-connected layers of the training substrate
//! and the matricized products inside HOSVD. The hot kernel is
//! [`gemm_blocked_into`]: the output is tiled into [`GEMM_MR`]`×`[`GEMM_NR`]
//! register blocks, walked one `MC`-row block at a time on the calling thread,
//! while the K loop stays **innermost and strictly sequential per output
//! element**, so the f32 accumulation order — and therefore every bit-parity
//! test in the tree — is identical to the straightforward `i-k-j` loop it
//! replaced.
//!
//! # Accumulation-precision policy
//!
//! Every production kernel in this module — [`matmul`], [`matmul_at_b`],
//! [`matmul_a_bt`], [`matvec`], [`gemm_into`], [`gemm_blocked_into`] —
//! accumulates in **f32**, the element type, matching what an f32 GPU GEMM
//! without tensor-core f64 escalation does and keeping GEMV bit-consistent
//! with a GEMM against a one-column matrix (the serving layer relies on that
//! equivalence when it batches FC layers). The sole exception is
//! `matmul_naive`, the *test reference* (gated behind `cfg(test)` / the
//! `reference` feature), which deliberately accumulates in f64 so comparisons
//! against it measure the blocked kernels' rounding error instead of sharing
//! it.

use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Block size along the M (rows of A / C) dimension.
const MC: usize = 64;
/// Block size along the K (inner) dimension.
const KC: usize = 256;
/// Register-tile height of [`gemm_blocked_into`] (rows of C per microkernel).
pub const GEMM_MR: usize = 4;
/// Register-tile width of [`gemm_blocked_into`] (columns of C per microkernel).
///
/// A 4×8 tile keeps the accumulator block (4 × one 8-float vector) plus the
/// packed B row comfortably in registers and amortises each B-row load across
/// four rows of A; wider tiles measured slower here because the accumulator
/// block spills. The tile shape only decides which output elements are
/// computed together — the K loop under every element stays sequential — so
/// resizing it can never change result bits.
pub const GEMM_NR: usize = 8;

fn as_matrix_dims(t: &Tensor) -> Result<(usize, usize)> {
    if t.rank() != 2 {
        return Err(TensorError::NotAMatrix { rank: t.rank() });
    }
    Ok((t.dims()[0], t.dims()[1]))
}

/// `C = A * B` for row-major matrices.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = as_matrix_dims(a)?;
    let (kb, n) = as_matrix_dims(b)?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul",
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm_blocked_into(a.data(), b.data(), &mut out, m, ka, n);
    Tensor::from_vec(vec![m, n], out)
}

/// `C = A^T * B`.
///
/// Materialises the (cheap, pure-copy) transpose so the product itself runs
/// through the register-tiled [`gemm_blocked_into`] kernel; per output
/// element the sequence of f32 additions is identical to a direct
/// column-strided loop, so results are bit-stable across the rewrite.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ka, m) = as_matrix_dims(a)?;
    let (kb, n) = as_matrix_dims(b)?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_at_b",
        });
    }
    let at = transpose(a)?;
    let mut out = vec![0.0f32; m * n];
    gemm_blocked_into(at.data(), b.data(), &mut out, m, ka, n);
    Tensor::from_vec(vec![m, n], out)
}

/// `C = A * B^T` without materialising the transpose.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = as_matrix_dims(a)?;
    let (n, kb) = as_matrix_dims(b)?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_a_bt",
        });
    }
    let a_data = a.data();
    let b_data = b.data();
    let mut out = vec![0.0f32; m * n];
    for (i, row) in out.chunks_mut(n).enumerate() {
        let arow = &a_data[i * ka..(i + 1) * ka];
        for (j, slot) in row.iter_mut().enumerate() {
            let brow = &b_data[j * ka..(j + 1) * ka];
            let mut acc = 0.0f32;
            for k in 0..ka {
                acc += arow[k] * brow[k];
            }
            *slot = acc;
        }
    }
    Tensor::from_vec(vec![m, n], out)
}

/// Matrix-vector product `y = A x`.
///
/// Accumulates in f32 (see the module-level precision policy), so the result
/// is bit-identical to [`matmul`] against `x` reshaped to a one-column
/// matrix.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    let (m, k) = as_matrix_dims(a)?;
    if x.rank() != 1 || x.dims()[0] != k {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: x.dims().to_vec(),
            op: "matvec",
        });
    }
    let a_data = a.data();
    let x_data = x.data();
    let mut out = vec![0.0f32; m];
    out.iter_mut().enumerate().for_each(|(i, slot)| {
        let row = &a_data[i * k..(i + 1) * k];
        let mut acc = 0.0f32;
        for j in 0..k {
            acc += row[j] * x_data[j];
        }
        *slot = acc;
    });
    Tensor::from_vec(vec![m], out)
}

/// Raw blocked GEMM on slices: `c[m x n] += a[m x k] * b[k x n]`, row major.
/// `c` must be zero-initialised by the caller if a pure product is wanted.
pub fn gemm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A has wrong length");
    assert_eq!(b.len(), k * n, "B has wrong length");
    assert_eq!(c.len(), m * n, "C has wrong length");
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    for (bi, cblock) in c.chunks_mut(MC * n).enumerate() {
        let i0 = bi * MC;
        let rows = cblock.len() / n;
        let mut k0 = 0;
        while k0 < k {
            let kb = KC.min(k - k0);
            for ii in 0..rows {
                let arow = &a[(i0 + ii) * k + k0..(i0 + ii) * k + k0 + kb];
                let crow = &mut cblock[ii * n..(ii + 1) * n];
                for (kk, &aval) in arow.iter().enumerate() {
                    if aval == 0.0 {
                        continue;
                    }
                    let brow = &b[(k0 + kk) * n..(k0 + kk + 1) * n];
                    for j in 0..n {
                        crow[j] += aval * brow[j];
                    }
                }
            }
            k0 += kb;
        }
    }
}

/// Cache-blocked, register-tiled GEMM on slices: `c[m x n] = a[m x k] *
/// b[k x n]`, row major, **overwrite** semantics (every element of `c` is
/// stored, so `c` does not need to be zeroed first; with `k == 0` it is
/// zero-filled).
///
/// The output is tiled into [`GEMM_MR`]`×`[`GEMM_NR`] blocks whose
/// accumulators live in registers, one `MC`-row block after another on the
/// calling thread. The K loop is innermost and **strictly sequential per output
/// element**, so per element the sequence of f32 additions — and therefore
/// the result bits — is identical to the straightforward `i-k-j` loop into a
/// zeroed buffer (on finite inputs; see the zero-skip note in the kernel).
pub fn gemm_blocked_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A has wrong length");
    assert_eq!(b.len(), k * n, "B has wrong length");
    assert_eq!(c.len(), m * n, "C has wrong length");
    if k == 0 {
        c.fill(0.0);
        return;
    }
    if m == 0 || n == 0 {
        return;
    }

    for (bi, cblock) in c.chunks_mut(MC * n).enumerate() {
        gemm_row_block(a, b, cblock, bi * MC, k, n);
    }
}

/// One `MC`-row block of [`gemm_blocked_into`]: rows `i0..` of C against
/// every column panel and K block.
///
/// Kept out of line on measurement: inlined into its caller, this loop nest
/// cost ~20 % more CPU per op on the benchmark's `engine_paced` workload
/// (2 vCPU Intel Xeon, `target-cpu=native`).
#[inline(never)]
fn gemm_row_block(a: &[f32], b: &[f32], cblock: &mut [f32], i0: usize, k: usize, n: usize) {
    let rows = cblock.len() / n;
    // A stack-resident packed copy of the current `KC x GEMM_NR` panel of
    // B: the microkernel then streams B contiguously instead of striding
    // `n` floats between consecutive K rows.
    let mut bpack = [0.0f32; KC * GEMM_NR];
    let mut j0 = 0;
    while j0 < n {
        let nr = GEMM_NR.min(n - j0);
        let mut k0 = 0;
        while k0 < k {
            let kb = KC.min(k - k0);
            for kk in 0..kb {
                let src = (k0 + kk) * n + j0;
                bpack[kk * GEMM_NR..kk * GEMM_NR + nr].copy_from_slice(&b[src..src + nr]);
                // Zero the panel tail of a narrow (`nr < GEMM_NR`) panel:
                // the microkernel then runs its full NR-wide multiply-add
                // unconditionally — the extra lanes accumulate exact
                // zeros that are never stored — instead of falling back
                // to a scalar remainder loop. A skinny-N product (the
                // rank-4 Tucker stages are `n = 4`) vectorises exactly
                // like a full-width one.
                if nr < GEMM_NR {
                    bpack[kk * GEMM_NR + nr..(kk + 1) * GEMM_NR].fill(0.0);
                }
            }
            let first = k0 == 0;
            let mut r0 = 0;
            while r0 < rows {
                let mr = GEMM_MR.min(rows - r0);
                // The accumulator tile *resumes* from the C values the
                // previous K block stored (instead of summing per-block
                // partials and adding them afterwards), so per output
                // element the f32 additions happen in exactly the
                // sequential k = 0..k order.
                let mut acc = [[0.0f32; GEMM_NR]; GEMM_MR];
                if mr == GEMM_MR {
                    if !first {
                        for (r, arow) in acc.iter_mut().enumerate() {
                            let off = (r0 + r) * n + j0;
                            arow[..nr].copy_from_slice(&cblock[off..off + nr]);
                        }
                    }
                    // Full-height tile: fixed-extent, branch-free loops
                    // so the accumulator block stays in vector registers
                    // and each NR-wide multiply-add row vectorises (the
                    // zero-padded panel tail covers `nr < GEMM_NR`
                    // columns). There is
                    // deliberately no `aval == 0.0` skip here: on finite
                    // inputs `acc += ±0.0 * b` can never change a
                    // +0.0-seeded f32 accumulator (and a running f32 sum
                    // never becomes -0.0), so the unconditional form is
                    // bit-identical to the skipping sequential loop while
                    // keeping the inner loop free of data-dependent
                    // branches.
                    for kk in 0..kb {
                        let brow = &bpack[kk * GEMM_NR..(kk + 1) * GEMM_NR];
                        for (r, arow) in acc.iter_mut().enumerate() {
                            let aval = a[(i0 + r0 + r) * k + k0 + kk];
                            for (slot, &bv) in arow.iter_mut().zip(brow) {
                                *slot += aval * bv;
                            }
                        }
                    }
                    for (r, arow) in acc.iter().enumerate() {
                        let off = (r0 + r) * n + j0;
                        cblock[off..off + nr].copy_from_slice(&arow[..nr]);
                    }
                } else {
                    // Row-remainder tile (`mr < GEMM_MR`, bottom of C
                    // only): same full-width inner loop, fewer rows.
                    if !first {
                        for (r, arow) in acc.iter_mut().enumerate().take(mr) {
                            let off = (r0 + r) * n + j0;
                            arow[..nr].copy_from_slice(&cblock[off..off + nr]);
                        }
                    }
                    for kk in 0..kb {
                        let brow = &bpack[kk * GEMM_NR..(kk + 1) * GEMM_NR];
                        for (r, arow) in acc.iter_mut().enumerate().take(mr) {
                            let aval = a[(i0 + r0 + r) * k + k0 + kk];
                            for (slot, &bv) in arow.iter_mut().zip(brow) {
                                *slot += aval * bv;
                            }
                        }
                    }
                    for (r, arow) in acc.iter().enumerate().take(mr) {
                        let off = (r0 + r) * n + j0;
                        cblock[off..off + nr].copy_from_slice(&arow[..nr]);
                    }
                }
                r0 += mr;
            }
            k0 += kb;
        }
        j0 += nr;
    }
}

/// Naive triple-loop GEMM kept as a reference for tests. Unlike the
/// production kernels it accumulates in f64 (see the module-level precision
/// policy), so its rounding error is independent of theirs.
#[cfg(any(test, feature = "reference"))]
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, ka) = as_matrix_dims(a)?;
    let (kb, n) = as_matrix_dims(b)?;
    if ka != kb {
        return Err(TensorError::ShapeMismatch {
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
            op: "matmul_naive",
        });
    }
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for kk in 0..ka {
                acc += a.data()[i * ka + kk] as f64 * b.data()[kk * n + j] as f64;
            }
            out[i * n + j] = acc as f32;
        }
    }
    Tensor::from_vec(vec![m, n], out)
}

/// Transpose a rank-2 tensor.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    let (m, n) = as_matrix_dims(a)?;
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = a.data()[i * n + j];
        }
    }
    Tensor::from_vec(vec![n, m], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn blocked_matches_naive_on_random_sizes() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 33, 9),
            (70, 130, 65),
            (128, 257, 96),
        ] {
            let a = init::uniform(vec![m, k], -1.0, 1.0, &mut rng);
            let b = init::uniform(vec![k, n], -1.0, 1.0, &mut rng);
            let fast = matmul(&a, &b).unwrap();
            let slow = matmul_naive(&a, &b).unwrap();
            assert!(
                fast.relative_error(&slow).unwrap() < 1e-5,
                "m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = init::uniform(vec![37, 21], -1.0, 1.0, &mut rng);
        let b = init::uniform(vec![37, 19], -1.0, 1.0, &mut rng);
        // A^T * B
        let direct = matmul_at_b(&a, &b).unwrap();
        let via_transpose = matmul(&transpose(&a).unwrap(), &b).unwrap();
        assert!(direct.relative_error(&via_transpose).unwrap() < 1e-5);

        let c = init::uniform(vec![21, 19], -1.0, 1.0, &mut rng);
        let d = init::uniform(vec![33, 19], -1.0, 1.0, &mut rng);
        // C * D^T
        let direct = matmul_a_bt(&c, &d).unwrap();
        let via_transpose = matmul(&c, &transpose(&d).unwrap()).unwrap();
        assert!(direct.relative_error(&via_transpose).unwrap() < 1e-5);
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = init::uniform(vec![13, 29], -1.0, 1.0, &mut rng);
        let x = init::uniform(vec![29], -1.0, 1.0, &mut rng);
        let y = matvec(&a, &x).unwrap();
        let x_col = x.clone().reshape(vec![29, 1]).unwrap();
        let y2 = matmul(&a, &x_col).unwrap().reshape(vec![13]).unwrap();
        assert!(y.relative_error(&y2).unwrap() < 1e-5);
    }

    #[test]
    fn gemv_and_gemm_agree_bit_for_bit_on_the_same_data() {
        // The module's precision policy: every production kernel accumulates
        // in f32, so a GEMV and a one-column GEMM see the identical sequence
        // of f32 additions and must produce the identical bits — including
        // across the K blocking boundary (K > KC) and past one `MC`-row
        // block (M > MC).
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, k) in &[(1, 1), (13, 29), (64, 300), (129, 513)] {
            let a = init::uniform(vec![m, k], -1.0, 1.0, &mut rng);
            let x = init::uniform(vec![k], -1.0, 1.0, &mut rng);
            let gemv = matvec(&a, &x).unwrap();
            let x_col = x.clone().reshape(vec![k, 1]).unwrap();
            let gemm = matmul(&a, &x_col).unwrap().reshape(vec![m]).unwrap();
            assert_eq!(gemv, gemm, "GEMV != one-column GEMM for m={m} k={k}");
        }
    }

    #[test]
    fn dimension_mismatch_errors() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_at_b(&a, &b).is_err());
        assert!(matmul_a_bt(&a, &b).is_err());
        let v = Tensor::zeros(vec![5]);
        assert!(matvec(&a, &v).is_err());
        assert!(matmul(&v, &a).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = init::uniform(vec![8, 8], -1.0, 1.0, &mut rng);
        let eye = Tensor::from_fn(vec![8, 8], |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        let prod = matmul(&a, &eye).unwrap();
        assert!(prod.relative_error(&a).unwrap() < 1e-6);
        let prod = matmul(&eye, &a).unwrap();
        assert!(prod.relative_error(&a).unwrap() < 1e-6);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = init::uniform(vec![6, 11], -1.0, 1.0, &mut rng);
        let tt = transpose(&transpose(&a).unwrap()).unwrap();
        assert_eq!(tt, a);
    }

    #[test]
    fn gemm_into_accumulates() {
        let a = vec![1.0f32, 2.0];
        let b = vec![3.0f32, 4.0];
        let mut c = vec![10.0f32];
        gemm_into(&a, &b, &mut c, 1, 2, 1);
        assert_eq!(c[0], 10.0 + 1.0 * 3.0 + 2.0 * 4.0);
    }

    #[test]
    fn blocked_gemm_with_empty_k_overwrites_c_with_zeros() {
        // The overwrite contract holds when there is nothing to accumulate:
        // `c` may come from an unzeroed arena buffer.
        let mut c = vec![7.0f32; 3 * 5];
        gemm_blocked_into(&[], &[], &mut c, 3, 0, 5);
        assert_eq!(c, vec![0.0f32; 3 * 5]);
    }

    #[test]
    fn zero_dimension_is_ok() {
        let a = Tensor::zeros(vec![0, 3]);
        let b = Tensor::zeros(vec![3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[0, 2]);
        assert_eq!(c.numel(), 0);
    }
}
