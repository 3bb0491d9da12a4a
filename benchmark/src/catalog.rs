//! What the benchmark runs: the fixed models, the five workloads with their
//! fixed warm-up counts, and the metric contract.
//!
//! `BENCHMARK.json` at the repository root is the one place metric names,
//! units, directions and regression bounds are written down; it is compiled
//! in here, so a result can never name a metric the contract does not.

use serde_json::Value;
use std::sync::OnceLock;
use tdc_nn::models::ModelDescriptor;
use tdc_serve::{serving_descriptor, PlanningOptions};

/// One fixed serving model: `serving_descriptor(name, spatial, base, classes)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelDef {
    /// Descriptor and registry name.
    pub name: &'static str,
    /// Height and width of the input.
    pub spatial: usize,
    /// Base channel count (the chain widens to four times this).
    pub base: usize,
    /// Output logits.
    pub classes: usize,
}

impl ModelDef {
    /// The executable descriptor.
    pub fn descriptor(&self) -> ModelDescriptor {
        serving_descriptor(self.name, self.spatial, self.base, self.classes)
    }

    /// HWC dims of one input.
    pub fn input_dims(&self) -> Vec<usize> {
        vec![self.spatial, self.spatial, self.base]
    }
}

/// The forward-pass model: three of its four layers decompose at the
/// default budget.
pub const SVC_MID: ModelDef = ModelDef {
    name: "svc-mid",
    spatial: 32,
    base: 16,
    classes: 10,
};
/// The model behind the engine, the HTTP door and the router.
pub const SVC_SMALL: ModelDef = ModelDef {
    name: "svc-small",
    spatial: 24,
    base: 16,
    classes: 10,
};
/// The batch-class second model of `engine_paced`.
pub const SVC_TINY: ModelDef = ModelDef {
    name: "svc-tiny",
    spatial: 16,
    base: 16,
    classes: 10,
};

/// θ that makes rank selection keep every layer dense.
pub const KEEP_DENSE_THETA: f64 = 0.999_999;

/// Planning options of a workload's model: the defaults (A100 device model,
/// budget 0.5, θ = 0), or the keep-everything-dense variant.
pub fn planning(keep_dense: bool) -> PlanningOptions {
    PlanningOptions {
        theta: if keep_dense { KEEP_DENSE_THETA } else { 0.0 },
        ..PlanningOptions::default()
    }
}

/// Latency limit of the engine's rate ladder, ms.
pub const ENGINE_SLO_MS: f64 = 10.0;
/// Rates of the traced rate ladder, requests per second.
pub const LADDER_RATES_HZ: [f64; 3] = [500.0, 1000.0, 2000.0];
/// Clients (threads, each with one keep-alive connection) of the two HTTP workloads.
pub const HTTP_CLIENTS: usize = 2;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one thread: `forward_in` on `svc-mid`, Tucker-compressed.
    FwdTucker,
    /// The same descriptor with every layer kept dense.
    FwdDense,
    /// Open loop at a fixed Poisson schedule through `ModelRegistry::submit`.
    EnginePaced,
    /// Closed loop over two keep-alive connections to the HTTP door.
    HttpDoor,
    /// The same requests through the router and two replicas.
    Routed,
}

impl Workload {
    /// Every workload, in suite order.
    pub const ALL: [Workload; 5] = [
        Workload::FwdTucker,
        Workload::FwdDense,
        Workload::EnginePaced,
        Workload::HttpDoor,
        Workload::Routed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FwdTucker => "fwd_tucker",
            Workload::FwdDense => "fwd_dense",
            Workload::EnginePaced => "engine_paced",
            Workload::HttpDoor => "http_door",
            Workload::Routed => "routed",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Verified warm-up ops run as the last step of set-up. Fixed per
    /// workload — never derived from a clock — so set-up does the same work
    /// on every run and lasts at least two seconds on the reference box.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::FwdTucker => 1000,
            Workload::FwdDense => 200,
            Workload::EnginePaced => 2000,
            Workload::HttpDoor | Workload::Routed => 60,
        }
    }

    /// Length of the slices an untraced run cuts its window into, s: short
    /// enough to fall inside one of the machine's speed states, long enough
    /// that a slice's CPU per op or mean latency describes the machine and
    /// not a handful of ops. `fwd_tucker` fits 60 ops into 0.05 s; cut that
    /// fine, its `p95_ms` spread 13 % over ten disturbed runs that spread
    /// 20 % when cut into 0.2 s (README). The others hold 20 ops
    /// (`fwd_dense`), 200 (`engine_paced`) or 9 (HTTP) in 0.2 s and gain
    /// nothing from shorter slices.
    pub fn slice_seconds(self) -> f64 {
        match self {
            Workload::FwdTucker => 0.05,
            _ => 0.2,
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit printed with every value.
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDef>,
    /// Seconds one run measures.
    pub run_seconds: f64,
}

fn metric_defs(value: &Value, key: &str) -> Vec<MetricDef> {
    value
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let text = |field: &str| {
                m.get(field)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json {key} entry lacks `{field}`"))
                    .to_string()
            };
            MetricDef {
                name: text("name"),
                unit: text("unit"),
                higher_is_better: text("better") == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            }
        })
        .collect()
}

/// The metric contract, parsed once from the compiled-in `BENCHMARK.json`.
pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        let value = serde_json::parse_value(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json is not valid JSON: {e}"));
        Contract {
            workloads: value
                .get("workloads")
                .and_then(Value::as_array)
                .expect("BENCHMARK.json lists workloads")
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str))
                .map(str::to_string)
                .collect(),
            end_to_end: metric_defs(&value, "end_to_end"),
            per_layer: metric_defs(&value, "per_layer"),
            run_seconds: value
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json gives run_seconds"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_names_exactly_the_catalogued_workloads_and_metrics() {
        let contract = contract();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(contract.workloads, names);
        let e2e: Vec<&str> = contract
            .end_to_end
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(
            e2e,
            [
                "ops_per_s",
                "p50_ms",
                "p95_ms",
                "cpu_ms_per_op",
                "rss_peak_mib",
                "setup_s"
            ]
        );
        for metric in &contract.end_to_end {
            let bound = metric.bound.expect("every end-to-end metric is bounded");
            assert!(
                bound > 0.0 && bound <= 0.25,
                "{} bound {bound}",
                metric.name
            );
            assert_eq!(metric.higher_is_better, metric.name == "ops_per_s");
        }
        let setup = contract.end_to_end.last().expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.bound), ("s", Some(0.25)));
        assert!(contract.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1..=128).contains(&contract.per_layer.len()));
        assert!((1.0..=60.0).contains(&contract.run_seconds));
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("engine_closed"), None);
    }
}
