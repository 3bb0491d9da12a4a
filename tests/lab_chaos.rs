//! End-to-end lab drill through the umbrella crate: a seeded square-wave
//! burst trace over a two-model registry with a worker panic scripted
//! mid-trace. The contract under fire:
//!
//! * clients only ever see **typed** errors (`ExecutionFailed` from the
//!   engine's unwind containment — never a poisoned lock, a hung
//!   channel, or a transport-level surprise);
//! * the engine's books reconcile — every submitted request is
//!   accounted as completed, expired, or failed;
//! * after the fault budget drains, a replay on the **same** deployment
//!   produces outputs bit-identical to a never-faulted run.
//!
//! A second drill covers the wrapper across a tune: the engine a tune swaps
//! in keeps the model's fault injector, so a brown-out armed afterwards
//! still lands on the serving engine.

use std::sync::Arc;
use std::time::Duration;

use tdc_repro::lab::FaultInjector;
use tdc_repro::serve::{
    serving_descriptor, BackendKind, BackendWrapper, BatchingOptions, ModelConfig, ModelRegistry,
    RuntimeOptions, TuneRequest,
};
use tdc_repro::tensor::Tensor;

use tdc_repro::lab::runner::{deploy, reconcile, replay, ReplayOptions};
use tdc_repro::lab::spec::WorkloadSpec;
use tdc_repro::lab::trace::generate;

const SPEC: &str = r#"{
  "name": "burst-panic-drill",
  "seed": 90,
  "models": [
    {"name": "drill-hot", "spatial": 8, "base_channels": 4, "classes": 4},
    {"name": "drill-bulk", "spatial": 10, "base_channels": 4, "classes": 6}
  ],
  "model_mix": [0.7, 0.3],
  "size_mix": {"kind": "bounded-pareto", "alpha": 1.5, "min": 1, "max": 4},
  "phases": [
    {"label": "burst", "duration_ms": 260,
     "arrival": {"kind": "square", "low_hz": 80, "high_hz": 380, "period_ms": 130}}
  ],
  "faults": [
    {"at_ms": 90, "kind": "backend-panic", "model": "drill-hot", "count": 2}
  ]
}"#;

#[test]
fn burst_trace_with_mid_trace_worker_panic_heals_bit_identically() {
    let spec = WorkloadSpec::parse(SPEC).expect("drill spec");
    let trace = generate(&spec);
    assert!(trace.events.len() > 20, "burst trace too small to drill");
    let options = ReplayOptions::default();

    // Reference: same trace, no fault script — the clean fingerprint.
    let clean_spec = WorkloadSpec {
        faults: vec![],
        ..spec.clone()
    };
    let reference = deploy(&clean_spec, &trace, &options).expect("deploy reference");
    let clean = replay(&reference, &clean_spec, &trace, &options);
    assert!(clean.unexpected.is_empty() && clean.failed == 0 && clean.shed == 0);
    drop(reference.registry.shutdown());

    // Drill: the injector panics `forward_batch` twice starting at 90ms.
    let deployment = deploy(&spec, &trace, &options).expect("deploy drill");
    let drill = replay(&deployment, &spec, &trace, &options);
    assert!(
        drill.unexpected.is_empty(),
        "untyped failures leaked to clients: {:?}",
        drill.unexpected
    );
    assert!(drill.failed > 0, "the scripted panic never fired");
    assert_eq!(
        drill.shed, 0,
        "queues are sized to the trace; nothing sheds"
    );
    let injector = &deployment.injectors["drill-hot"];
    assert!(injector.is_idle(), "panic budget must be spent");
    assert!(injector.injected_panics() > 0);
    assert_eq!(injector.injected_errors(), 0);

    // Heal: same deployment, fault-free spec — bit-parity with reference.
    let healed = replay(&deployment, &clean_spec, &trace, &options);
    assert!(healed.unexpected.is_empty() && healed.failed == 0);
    assert_eq!(
        healed.output_fingerprint, clean.output_fingerprint,
        "post-heal outputs drifted from the fault-free reference"
    );

    // Books balance across the drill and the heal on this deployment.
    let totals = reconcile(&deployment.registry).expect("metrics reconcile");
    assert_eq!(totals.submitted, drill.submitted + healed.submitted);
    assert_eq!(
        totals.completed + totals.expired + totals.failed,
        drill.completed + drill.expired + drill.failed + healed.completed
    );
    assert_eq!(totals.rejected, 0);
}

#[test]
fn a_tune_keeps_the_fault_injector_on_the_swapped_engine() {
    let registry = ModelRegistry::new(2);
    let injector = FaultInjector::new();
    let config = ModelConfig {
        batching: BatchingOptions {
            max_batch_size: 8,
            // Sluggish on purpose: closed-loop traffic never fills a batch,
            // so every request eats the whole window and the tune has
            // latency to claw back.
            max_batch_delay: Duration::from_millis(12),
            ..BatchingOptions::default()
        },
        runtime: RuntimeOptions {
            backend: BackendKind::SimGpu,
            ..RuntimeOptions::default()
        },
        backend_wrapper: Some(Arc::new(injector.clone()) as Arc<dyn BackendWrapper>),
        ..ModelConfig::default()
    };
    registry
        .register(
            "brown",
            &serving_descriptor("drill-brown", 12, 8, 10),
            config,
        )
        .expect("register");
    let serve = |requests: usize| {
        for _ in 0..requests {
            registry
                .infer("brown", Tensor::zeros(vec![12, 12, 8]))
                .expect("closed-loop inference");
        }
    };

    // Tune against half the 12 ms window: reachable only by moving knobs.
    // The 32 untuned samples (the calibration floor) calibrate the search.
    serve(32);
    let tuned = registry
        .tune(
            "brown",
            &TuneRequest {
                target_p99_ms: Some(6.0),
                ..TuneRequest::default()
            },
        )
        .expect("tune");
    assert!(tuned.applied, "{tuned:?}");
    assert!(
        tuned.after.max_batch_delay_us < 12_000,
        "the delay knob must move: {tuned:?}"
    );

    // A brown-out armed after the swap stalls the tuned engine's batches:
    // the wrapper rode the hot-swap.
    let before = injector.injected_delays();
    injector.arm_delays(10_000, Duration::from_millis(2));
    serve(4);
    assert!(injector.injected_delays() >= before + 4);
    injector.disarm();
    serve(1);
    registry.shutdown();
}
