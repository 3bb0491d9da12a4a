//! Shared figure/table generators used by the `src/bin/*` harness binaries.
//!
//! Each function prints the rows the corresponding paper figure plots and
//! returns the underlying numbers so tests can assert the qualitative shape
//! without re-parsing stdout.

use crate::{fmt_ms, fmt_x, geomean, TextTable};
use tdc::inference::Backend;
use tdc::pipeline::TdcPipeline;
use tdc::tiling::{select, TilingStrategy};
use tdc_conv::cost::{algorithm_latency_ms, ConvAlgorithm};
use tdc_conv::shapes::{figure4_sweep, figure6_shapes};
use tdc_conv::ConvShape;
use tdc_gpu_sim::DeviceSpec;
use tdc_nn::models::all_descriptors;

/// One row of the layer-wise comparison (Figures 6/7).
#[derive(Debug, Clone)]
pub struct LayerwiseRow {
    /// The convolution shape.
    pub shape: ConvShape,
    /// Latency per algorithm, in the column order of the figure:
    /// FFT, Winograd, GEMM, TVM, TDC-oracle, TDC-model.
    pub ms: [f64; 6],
}

/// Generate and print the Figure 6/7 layer-wise comparison for one device.
pub fn layerwise_figure(device: &DeviceSpec, figure: &str) -> Vec<LayerwiseRow> {
    println!(
        "{figure} — per-layer core convolution runtime on {}\n",
        device.name
    );
    let mut table = TextTable::new(&[
        "shape (C,N,H,W)",
        "cuDNN-FFT",
        "cuDNN-WINOGRAD",
        "cuDNN-GEMM",
        "TVM",
        "TDC-ORACLE",
        "TDC-MODELING",
    ]);
    let mut rows = Vec::new();
    for shape in figure6_shapes() {
        let fft = algorithm_latency_ms(ConvAlgorithm::CudnnFft, &shape, device);
        let wino = algorithm_latency_ms(ConvAlgorithm::CudnnWinograd, &shape, device);
        let gemm = algorithm_latency_ms(ConvAlgorithm::CudnnGemm, &shape, device);
        let tvm = algorithm_latency_ms(ConvAlgorithm::Tvm, &shape, device);
        let oracle = select(&shape, device, TilingStrategy::Oracle)
            .expect("oracle tiling")
            .latency_ms;
        let model = select(&shape, device, TilingStrategy::Model)
            .expect("model tiling")
            .latency_ms;
        table.row(&[
            format!("({},{},{},{})", shape.c, shape.n, shape.h, shape.w),
            fmt_ms(fft),
            fmt_ms(wino),
            fmt_ms(gemm),
            fmt_ms(tvm),
            fmt_ms(oracle),
            fmt_ms(model),
        ]);
        rows.push(LayerwiseRow {
            shape,
            ms: [fft, wino, gemm, tvm, oracle, model],
        });
    }
    println!("{}", table.render());

    let ratio = |idx: usize| -> f64 {
        geomean(&rows.iter().map(|r| r.ms[idx] / r.ms[4]).collect::<Vec<_>>())
    };
    println!("Geometric-mean speedup of TDC-ORACLE over:");
    println!("  cuDNN-FFT      : {}", fmt_x(ratio(0)));
    println!("  cuDNN-WINOGRAD : {}", fmt_x(ratio(1)));
    println!("  cuDNN-GEMM     : {}", fmt_x(ratio(2)));
    println!("  TVM            : {}", fmt_x(ratio(3)));
    println!(
        "TDC-MODELING vs TDC-ORACLE (geomean ratio): {:.2}",
        ratio(5)
    );
    println!(
        "\nExpected shape (paper): TDC fastest on the small/medium spatial shapes,\n\
         losing or tying only on the two large VGG shapes (224/112).\n"
    );
    rows
}

/// One row of the end-to-end comparison (Figures 8/9).
#[derive(Debug, Clone)]
pub struct EndToEndRow {
    /// Model name.
    pub model: String,
    /// Latency per backend in the order of [`Backend::all`].
    pub ms: [f64; 5],
}

/// The per-model FLOPs-reduction budgets the paper uses (Section 7.2): 65% for
/// ResNet-18, 60% for ResNet-50, 80% for VGG-16 and 10% for the DenseNets.
pub fn paper_budget(model_name: &str) -> f64 {
    if model_name.contains("DenseNet") {
        0.10
    } else if model_name.contains("ResNet-18") {
        0.65
    } else if model_name.contains("ResNet-50") {
        0.60
    } else if model_name.contains("VGG") {
        0.80
    } else {
        0.60
    }
}

/// Generate and print the Figure 8/9 end-to-end comparison for one device,
/// using the paper's per-model budgets (see [`paper_budget`]).
pub fn end_to_end_figure(device: &DeviceSpec, figure: &str) -> Vec<EndToEndRow> {
    println!(
        "{figure} — end-to-end inference latency on {} (batch 1, paper per-model budgets)\n",
        device.name,
    );
    let pipeline = TdcPipeline::new(device.clone(), TilingStrategy::Model);
    let mut table = TextTable::new(&[
        "model",
        "Original cuDNN",
        "TK cuDNN",
        "TK TVM",
        "TK TDC-ORACLE",
        "TK TDC-MODELING",
        "TDC speedup vs orig",
        "TDC speedup vs cuDNN",
        "TDC speedup vs TVM",
    ]);
    let mut rows = Vec::new();
    for descriptor in all_descriptors() {
        let budget = paper_budget(&descriptor.name);
        let plan = pipeline
            .plan(&descriptor, budget)
            .expect("compression plan");
        let ms_of = |b: Backend| plan.report(b).expect("report").total_ms;
        let ms = [
            ms_of(Backend::OriginalCudnn),
            ms_of(Backend::TuckerCudnn),
            ms_of(Backend::TuckerTvm),
            ms_of(Backend::TuckerTdcOracle),
            ms_of(Backend::TuckerTdcModel),
        ];
        table.row(&[
            descriptor.name.clone(),
            fmt_ms(ms[0]),
            fmt_ms(ms[1]),
            fmt_ms(ms[2]),
            fmt_ms(ms[3]),
            fmt_ms(ms[4]),
            fmt_x(ms[0] / ms[3]),
            fmt_x(ms[1] / ms[3]),
            fmt_x(ms[2] / ms[3]),
        ]);
        rows.push(EndToEndRow {
            model: descriptor.name.clone(),
            ms,
        });
    }
    println!("{}", table.render());
    println!(
        "Expected shape (paper): for every model, TDC-oracle <= TDC-model < TVM ≈/< \n\
         TK-cuDNN < original cuDNN; speedups over the original are largest for ResNet-18.\n"
    );
    rows
}

/// Print the Figure 4 staircase series and return (label, N, latency_ms).
pub fn staircase_figure(device: &DeviceSpec) -> Vec<(&'static str, usize, f64)> {
    let mut out = Vec::new();
    let mut table = TextTable::new(&["series", "N", "latency (ms)", "tiling"]);
    for (shape, label) in figure4_sweep() {
        let choice = select(&shape, device, TilingStrategy::Model).expect("tiling");
        table.row(&[
            label.to_string(),
            shape.n.to_string(),
            fmt_ms(choice.latency_ms),
            choice.tiling.to_string(),
        ]);
        out.push((label, shape.n, choice.latency_ms));
    }
    println!("{}", table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layerwise_rows_cover_all_shapes_with_finite_latencies() {
        let rows = layerwise_figure(&DeviceSpec::a100(), "Figure 6 (test)");
        assert_eq!(rows.len(), 18);
        assert!(rows
            .iter()
            .all(|r| r.ms.iter().all(|m| m.is_finite() && *m > 0.0)));
        // On the medium shapes TDC-oracle should be the fastest column.
        let medium = rows
            .iter()
            .find(|r| r.shape.h == 28 && r.shape.c == 160)
            .unwrap();
        let oracle = medium.ms[4];
        assert!(medium.ms[..4].iter().all(|&m| m > oracle));
    }

    #[test]
    fn staircase_trends_upward_within_each_series() {
        // The paper's staircase: latency grows with N overall, in uneven steps.
        // Because the tiling is re-selected at every N, small local dips are
        // possible; the series must still never drop by more than 10% and must
        // end clearly above where it started.
        let series = staircase_figure(&DeviceSpec::rtx2080ti());
        for label in ["28x28", "14x14"] {
            let lat: Vec<f64> = series
                .iter()
                .filter(|(l, _, _)| *l == label)
                .map(|(_, _, ms)| *ms)
                .collect();
            assert_eq!(lat.len(), 8);
            assert!(
                lat.windows(2).all(|w| w[1] >= w[0] * 0.9),
                "{label} series should not drop sharply: {lat:?}"
            );
            assert!(
                *lat.last().unwrap() > lat[0] * 1.5,
                "{label} series should grow overall: {lat:?}"
            );
        }
    }
}
