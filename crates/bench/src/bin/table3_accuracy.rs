//! Table 3: accuracy / FLOPs-reduction comparison of TDC against compression
//! baselines across model families.
//!
//! The paper's Table 3 covers five ImageNet models against published pruning /
//! CPD / TT / TKD baselines. Neither ImageNet nor those checkpoints are
//! available here, so this harness reproduces the comparisons that can be
//! computed from scratch (README.md, "Substitutions"): for each trainable model family it
//! reports the uncompressed baseline, the standard-TKD analogue (decompose the
//! pre-trained model, then retrain), and TDC's ADMM-based compression, at the
//! same FLOPs budget. The ordering to reproduce is
//! `TDC ≥ decompose-and-retrain > no-retraining`, with TDC staying close to
//! the uncompressed baseline.

use rand::{rngs::StdRng, SeedableRng};
use tdc::pipeline::TdcPipeline;
use tdc::tiling::TilingStrategy;
use tdc_bench::{fmt_pct, TextTable};
use tdc_gpu_sim::DeviceSpec;
use tdc_nn::data::{SyntheticConfig, SyntheticDataset};
use tdc_nn::layer::Network;
use tdc_nn::models::{resnet_cifar, tiny_cnn, vgg_like};
use tdc_nn::train::{evaluate, train, TrainConfig};
use tdc_tucker::admm::{direct_compress, AdmmConfig};

struct Family {
    name: &'static str,
    budget: f64,
    net: Network,
}

fn main() {
    println!("Table 3 — accuracy vs. FLOPs reduction across model families\n");
    let data = SyntheticDataset::generate(SyntheticConfig::cifar_like(20, 13)).expect("dataset");
    let (train_set, test_set) = data.split(0.8);
    let mut rng = StdRng::seed_from_u64(99);

    let families = vec![
        Family {
            name: "ResNet family (ResNet-18/50 stand-in)",
            budget: 0.6,
            net: resnet_cifar(8, 1, 16, 16, 3, 10, &mut rng),
        },
        Family {
            name: "VGG family (VGG-16 stand-in)",
            budget: 0.6,
            net: vgg_like(8, 16, 16, 3, 10, &mut rng),
        },
        Family {
            name: "DenseNet family (compact stand-in)",
            budget: 0.3,
            net: tiny_cnn(16, 16, 3, 10, 16, &mut rng),
        },
    ];

    let mut table = TextTable::new(&[
        "Model family",
        "Method",
        "Top-1 accuracy",
        "FLOPs reduction",
    ]);
    let pipeline = TdcPipeline::new(DeviceSpec::a100(), TilingStrategy::Model);
    let train_cfg = TrainConfig {
        epochs: 10,
        batch_size: 16,
        learning_rate: 0.05,
        ..Default::default()
    };

    for family in families {
        eprintln!("[table3] {}: pre-training...", family.name);
        let mut net = family.net;
        train(&mut net, &train_set, &train_cfg).expect("pre-training");
        let baseline = evaluate(&mut net, &test_set, 16).expect("baseline eval");
        table.row(&[
            family.name.into(),
            "Original (no compression)".into(),
            fmt_pct(baseline as f64),
            "N/A".into(),
        ]);

        // Std. TKD analogue: decompose the pre-trained model and retrain.
        eprintln!(
            "[table3] {}: decompose-and-retrain baseline...",
            family.name
        );
        let ranks = pipeline
            .select_ranks_for_network(&net, family.budget, 2)
            .expect("rank selection");
        let mut std_tkd = net.clone();
        direct_compress(&mut std_tkd, &ranks).expect("direct compression");
        let no_retrain_acc = evaluate(&mut std_tkd, &test_set, 16).expect("eval");
        let retrain_cfg = TrainConfig {
            epochs: 4,
            batch_size: 16,
            learning_rate: 0.01,
            ..Default::default()
        };
        train(&mut std_tkd, &train_set, &retrain_cfg).expect("retraining");
        let std_tkd_acc = evaluate(&mut std_tkd, &test_set, 16).expect("eval");

        // TDC: ADMM-based compression at the same budget.
        eprintln!("[table3] {}: TDC ADMM compression...", family.name);
        let admm = AdmmConfig {
            epochs: 6,
            finetune_epochs: 3,
            batch_size: 16,
            ..Default::default()
        };
        let mut tdc_net = net.clone();
        let result = pipeline
            .compress_and_train(&mut tdc_net, &train_set, &test_set, family.budget, 2, admm)
            .expect("TDC compression");

        table.row(&[
            family.name.into(),
            "Std. TKD (project only, no retraining)".into(),
            fmt_pct(no_retrain_acc as f64),
            fmt_pct(result.achieved_reduction),
        ]);
        table.row(&[
            family.name.into(),
            "MUSCO-style (decompose + retrain)".into(),
            fmt_pct(std_tkd_acc as f64),
            fmt_pct(result.achieved_reduction),
        ]);
        table.row(&[
            family.name.into(),
            "TDC (ADMM-based)".into(),
            fmt_pct(result.admm_accuracy as f64),
            fmt_pct(result.achieved_reduction),
        ]);
    }

    println!("{}", table.render());
    println!(
        "Expected shape (paper Table 3): TDC matches or beats the decompose-and-\n\
         retrain baseline and stays close to the uncompressed accuracy, while the\n\
         projection-only baseline loses the most."
    );
}
