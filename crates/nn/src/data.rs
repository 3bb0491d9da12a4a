//! Synthetic image-classification datasets.
//!
//! The paper trains on CIFAR-10 (Table 2) and ImageNet (Table 3). Neither
//! dataset nor the compute to train on them is available in this environment,
//! so the accuracy experiments run on synthetic, *separable* datasets: each
//! class has a randomly drawn prototype image and samples are noisy copies of
//! their class prototype. The relative comparisons the paper makes (baseline
//! vs. direct Tucker compression vs. ADMM compression; aggressive budgets
//! hurting accuracy) transfer to this setting because they are statements
//! about how much task-relevant structure survives the compression, not about
//! the dataset itself. README.md's "Substitutions" section records this.

use crate::{NnError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tdc_tensor::{init, Tensor};

/// A labelled, batched synthetic dataset.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Image channels.
    pub channels: usize,
    /// Number of classes.
    pub classes: usize,
    images: Vec<Tensor>,
    labels: Vec<usize>,
}

/// Configuration for [`SyntheticDataset::generate`].
#[derive(Debug, Clone, Copy)]
pub struct SyntheticConfig {
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Image channels.
    pub channels: usize,
    /// Number of classes.
    pub classes: usize,
    /// Samples per class.
    pub samples_per_class: usize,
    /// Standard deviation of the additive noise (larger = harder task).
    pub noise: f32,
    /// RNG seed so experiments are reproducible.
    pub seed: u64,
}

impl SyntheticConfig {
    /// A small CIFAR-like configuration used by the Table 2 experiment:
    /// 16×16×3 images, 10 classes.
    pub fn cifar_like(samples_per_class: usize, seed: u64) -> Self {
        SyntheticConfig {
            height: 16,
            width: 16,
            channels: 3,
            classes: 10,
            samples_per_class,
            noise: 0.35,
            seed,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny(seed: u64) -> Self {
        SyntheticConfig {
            height: 8,
            width: 8,
            channels: 3,
            classes: 4,
            samples_per_class: 8,
            noise: 0.2,
            seed,
        }
    }
}

impl SyntheticDataset {
    /// Generate a dataset from a configuration.
    pub fn generate(cfg: SyntheticConfig) -> Result<Self> {
        if cfg.classes == 0 || cfg.samples_per_class == 0 {
            return Err(NnError::BadConfig {
                reason: "classes and samples_per_class must be > 0".into(),
            });
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let dims = vec![cfg.height, cfg.width, cfg.channels];
        let prototypes: Vec<Tensor> = (0..cfg.classes)
            .map(|_| init::uniform(dims.clone(), -1.0, 1.0, &mut rng))
            .collect();

        let mut images = Vec::with_capacity(cfg.classes * cfg.samples_per_class);
        let mut labels = Vec::with_capacity(cfg.classes * cfg.samples_per_class);
        for (label, proto) in prototypes.iter().enumerate() {
            for _ in 0..cfg.samples_per_class {
                let noise = init::normal(dims.clone(), 0.0, cfg.noise, &mut rng);
                images.push(tdc_tensor::ops::add(proto, &noise)?);
                labels.push(label);
            }
        }
        // Shuffle deterministically.
        let n = images.len();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            images.swap(i, j);
            labels.swap(i, j);
        }
        Ok(SyntheticDataset {
            height: cfg.height,
            width: cfg.width,
            channels: cfg.channels,
            classes: cfg.classes,
            images,
            labels,
        })
    }

    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Split into (train, test) by a fraction of samples assigned to train.
    pub fn split(&self, train_fraction: f32) -> (SyntheticDataset, SyntheticDataset) {
        let cut = ((self.len() as f32) * train_fraction).round() as usize;
        let cut = cut.clamp(1, self.len().saturating_sub(1).max(1));
        let mk = |imgs: &[Tensor], labs: &[usize]| SyntheticDataset {
            height: self.height,
            width: self.width,
            channels: self.channels,
            classes: self.classes,
            images: imgs.to_vec(),
            labels: labs.to_vec(),
        };
        (
            mk(&self.images[..cut], &self.labels[..cut]),
            mk(&self.images[cut..], &self.labels[cut..]),
        )
    }

    /// Iterate over mini-batches as `([b, h, w, c], labels)`.
    pub fn batches(&self, batch_size: usize) -> Vec<(Tensor, Vec<usize>)> {
        let bs = batch_size.max(1);
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.len() {
            let end = (i + bs).min(self.len());
            let count = end - i;
            let sample_len = self.height * self.width * self.channels;
            let mut data = Vec::with_capacity(count * sample_len);
            for img in &self.images[i..end] {
                data.extend_from_slice(img.data());
            }
            let batch = Tensor::from_vec(vec![count, self.height, self.width, self.channels], data)
                .expect("batch tensor");
            out.push((batch, self.labels[i..end].to_vec()));
            i = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_sized() {
        let a = SyntheticDataset::generate(SyntheticConfig::tiny(7)).unwrap();
        let b = SyntheticDataset::generate(SyntheticConfig::tiny(7)).unwrap();
        assert_eq!(a.len(), 4 * 8);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.images[0], b.images[0]);
        let c = SyntheticDataset::generate(SyntheticConfig::tiny(8)).unwrap();
        assert_ne!(a.images[0], c.images[0]);
    }

    #[test]
    fn batches_cover_everything_once() {
        let d = SyntheticDataset::generate(SyntheticConfig::tiny(1)).unwrap();
        let batches = d.batches(5);
        let total: usize = batches.iter().map(|(_, l)| l.len()).sum();
        assert_eq!(total, d.len());
        assert_eq!(batches[0].0.dims(), &[5, 8, 8, 3]);
        // Last batch is the remainder.
        assert_eq!(
            batches.last().unwrap().1.len(),
            d.len() % 5 + if d.len().is_multiple_of(5) { 5 } else { 0 }
        );
    }

    #[test]
    fn split_preserves_counts_and_metadata() {
        let d = SyntheticDataset::generate(SyntheticConfig::tiny(2)).unwrap();
        let (train, test) = d.split(0.75);
        assert_eq!(train.len() + test.len(), d.len());
        assert!(!train.is_empty() && !test.is_empty());
        assert_eq!(train.classes, d.classes);
    }

    #[test]
    fn labels_are_in_range_and_all_classes_present() {
        let d = SyntheticDataset::generate(SyntheticConfig::cifar_like(4, 3)).unwrap();
        assert!(d.labels.iter().all(|&l| l < d.classes));
        for class in 0..d.classes {
            assert!(d.labels.contains(&class));
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = SyntheticConfig::tiny(0);
        cfg.classes = 0;
        assert!(SyntheticDataset::generate(cfg).is_err());
    }
}
