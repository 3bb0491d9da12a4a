//! The replay pin: the machine-independent fields of replaying the
//! committed `examples/traces/diurnal_burst.json` spec, compared exactly.
//!
//! Same spec + seed ⇒ same trace, same per-event inputs and — because
//! serving is bit-exact whatever the batch composition — the same output
//! bits on any machine. A change to trace generation, input derivation,
//! planning at the default options, weight seeding or a kernel's f32
//! operation order moves one of these values; a dropped or double-counted
//! request breaks the books. Re-baselining any of them is a deliberate,
//! reviewed edit to this file.

use std::path::Path;

use tdc_lab::{deploy, generate, reconcile, replay, ReplayOptions, WorkloadSpec};

#[test]
fn diurnal_burst_replay_reproduces_the_committed_fingerprints_and_books() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/traces/diurnal_burst.json");
    let spec = WorkloadSpec::load(&path).expect("load the committed spec");
    let trace = generate(&spec);

    assert_eq!(format!("{:016x}", trace.fingerprint), "229f84d1fb6decbc");
    assert_eq!(trace.events.len(), 243);
    assert_eq!(trace.total_samples(), 418);
    assert_eq!(
        trace.per_phase_events(spec.phases.len()),
        vec![36, 95, 69, 43]
    );
    assert_eq!(trace.per_model_samples(spec.models.len()), vec![309, 109]);

    let options = ReplayOptions::default();
    let deployment = deploy(&spec, &trace, &options).expect("deploy the spec's zoo");
    let report = replay(&deployment, &spec, &trace, &options);
    assert!(report.unexpected.is_empty(), "{:?}", report.unexpected);
    assert_eq!(report.events, 243);
    assert_eq!(
        (report.requests, report.submitted, report.completed),
        (418, 418, 418)
    );
    assert_eq!((report.shed, report.expired, report.failed), (0, 0, 0));
    assert_eq!(
        format!("{:016x}", report.output_fingerprint),
        "9e474b12ee7d0a90"
    );

    // The engine's books agree with the client's, model by model.
    let totals = reconcile(&deployment.registry).expect("books reconcile");
    assert_eq!(
        (totals.submitted, totals.completed, totals.expired),
        (418, 418, 0)
    );
    assert_eq!((totals.failed, totals.rejected), (0, 0));
    let metrics = deployment.registry.metrics();
    for (name, samples) in [("lab-hot", 309), ("lab-bulk", 109)] {
        let entry = metrics
            .models
            .iter()
            .find(|m| m.model == name)
            .expect("model metrics");
        assert_eq!(entry.metrics.completed_requests, samples, "{name}");
    }
    drop(deployment.registry.shutdown());
}
