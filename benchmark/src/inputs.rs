//! Seeded inputs. `--seed` drives the input pools and the arrival schedule
//! and nothing else: models, plans and weights are fixed by the catalog, and
//! the program under test only ever receives the tensors generated here.

use crate::catalog::ModelDef;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdc_lab::trace::{fnv1a, Fnv1a};
use tdc_tensor::Tensor;

/// Input tensors per model; ops cycle through the pool.
pub const POOL_SIZE: usize = 64;

/// Values lie on this grid in [−1, 1] (65 levels, like 6-bit pixels), so a
/// JSON-rendered input is a few characters per value and parses back to the
/// identical f32.
const GRID: i32 = 32;

/// A model's input pool with its content fingerprint.
pub struct InputPool {
    /// The tensors, HWC.
    pub tensors: Vec<Tensor>,
    /// FNV-1a over every value's bits, in pool order.
    pub fingerprint: u64,
}

/// The input pool of `model` under `seed`: the same seed gives the same
/// tensors, bit for bit; models get independent streams.
pub fn pool(seed: u64, model: &ModelDef) -> InputPool {
    let mut rng = StdRng::seed_from_u64(seed ^ fnv1a(model.name.as_bytes()));
    let dims = model.input_dims();
    let numel: usize = dims.iter().product();
    let mut hasher = Fnv1a::new();
    let tensors = (0..POOL_SIZE)
        .map(|_| {
            let data: Vec<f32> = (0..numel)
                .map(|_| rng.gen_range(-GRID..=GRID) as f32 / GRID as f32)
                .collect();
            for value in &data {
                hasher.update(&value.to_bits().to_le_bytes());
            }
            Tensor::from_vec(dims.clone(), data).expect("dims match the generated data")
        })
        .collect();
    InputPool {
        tensors,
        fingerprint: hasher.finish(),
    }
}

/// FNV-1a over the bits of a set of output tensors, in order.
pub fn output_fingerprint<'a>(outputs: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    let mut hasher = Fnv1a::new();
    for output in outputs {
        for value in output.data() {
            hasher.update(&value.to_bits().to_le_bytes());
        }
    }
    hasher.finish()
}

/// Whether two tensors agree bit for bit (dims and every f32's bits).
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims() && same_f32_bits(a.data(), b.data())
}

/// Bitwise equality of two f32 slices (`-0.0 != 0.0`, `NaN == NaN`).
pub fn same_f32_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{SVC_SMALL, SVC_TINY};

    #[test]
    fn same_seed_same_pool_and_another_seed_another_pool() {
        let a = pool(11, &SVC_TINY);
        let b = pool(11, &SVC_TINY);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a
            .tensors
            .iter()
            .zip(&b.tensors)
            .all(|(x, y)| same_bits(x, y)));
        assert_ne!(a.fingerprint, pool(12, &SVC_TINY).fingerprint);
        // Models draw from independent streams under one seed.
        assert_ne!(a.fingerprint, pool(11, &SVC_SMALL).fingerprint);
    }

    #[test]
    fn inputs_lie_on_the_grid_in_range_and_have_the_model_dims() {
        let p = pool(3, &SVC_TINY);
        assert_eq!(p.tensors.len(), POOL_SIZE);
        for t in &p.tensors {
            assert_eq!(t.dims(), &[16, 16, 16]);
            assert!(t
                .data()
                .iter()
                .all(|v| (-1.0..=1.0).contains(v) && (v * 32.0).fract() == 0.0));
        }
    }

    #[test]
    fn bit_equality_is_stricter_than_float_equality() {
        assert!(same_f32_bits(&[1.0, f32::NAN], &[1.0, f32::NAN]));
        assert!(!same_f32_bits(&[0.0], &[-0.0]));
        assert!(!same_f32_bits(&[1.0], &[1.0, 2.0]));
    }
}
