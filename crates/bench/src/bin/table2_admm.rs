//! Table 2: accuracy of direct compression vs. ADMM-based compression at the
//! same FLOPs reduction, on a ResNet-20-style network.
//!
//! The paper uses ResNet-20 on CIFAR-10 (91.25% baseline, 87.41% direct,
//! 91.02% ADMM at 60% FLOPs reduction). This reproduction uses a reduced-width
//! ResNet of the same family on a synthetic separable dataset (README.md,
//! "Substitutions"); the comparison to reproduce is the *ordering*:
//! baseline ≥ ADMM > direct, with ADMM recovering most of the gap.

use rand::{rngs::StdRng, SeedableRng};
use tdc::pipeline::TdcPipeline;
use tdc::tiling::TilingStrategy;
use tdc_bench::{fmt_pct, TextTable};
use tdc_gpu_sim::DeviceSpec;
use tdc_nn::data::{SyntheticConfig, SyntheticDataset};
use tdc_nn::models::resnet_cifar;
use tdc_nn::train::{evaluate, train, TrainConfig};
use tdc_tucker::admm::AdmmConfig;

fn main() {
    println!("Table 2 — Direct training vs. ADMM-based compression (ResNet-20 family)\n");

    // Synthetic CIFAR-like task (CIFAR-10 is not available here).
    let data = SyntheticDataset::generate(SyntheticConfig::cifar_like(24, 7)).expect("dataset");
    let (train_set, test_set) = data.split(0.8);

    // A reduced-width ResNet-20-family model (3 stages x 1 residual block).
    let mut rng = StdRng::seed_from_u64(2023);
    let mut net = resnet_cifar(8, 1, 16, 16, 3, 10, &mut rng);

    eprintln!("[table2] pre-training the baseline...");
    let cfg = TrainConfig {
        epochs: 10,
        batch_size: 16,
        learning_rate: 0.05,
        ..Default::default()
    };
    train(&mut net, &train_set, &cfg).expect("baseline training");
    let baseline = evaluate(&mut net, &test_set, 16).expect("baseline eval");

    eprintln!("[table2] compressing with direct projection and with ADMM...");
    let pipeline = TdcPipeline::new(DeviceSpec::a100(), TilingStrategy::Model);
    let admm = AdmmConfig {
        epochs: 6,
        finetune_epochs: 3,
        batch_size: 16,
        ..Default::default()
    };
    let result = pipeline
        .compress_and_train(&mut net, &train_set, &test_set, 0.6, 2, admm)
        .expect("compression");

    let mut table = TextTable::new(&["Method", "Top-1 accuracy", "FLOPs reduction"]);
    table.row(&[
        "Baseline (no compression)".into(),
        fmt_pct(baseline as f64),
        "N/A".into(),
    ]);
    table.row(&[
        "Direct Compression (project, no ADMM)".into(),
        fmt_pct(result.direct_accuracy as f64),
        fmt_pct(result.achieved_reduction),
    ]);
    table.row(&[
        "ADMM-based (TDC)".into(),
        fmt_pct(result.admm_accuracy as f64),
        fmt_pct(result.achieved_reduction),
    ]);
    println!("{}", table.render());
    println!(
        "Expected shape (paper Table 2): ADMM-based compression recovers (most of)\n\
         the accuracy that direct compression loses at the same FLOPs reduction."
    );
}
