//! Property tests for the lab's trace engine: the reproducibility and
//! shape guarantees every other lab piece (the replay runner, the chaos
//! scenarios, the replay pin) builds on.
//!
//! * same seed + same spec ⇒ byte-identical canonical trace and equal
//!   fingerprint, across independent `generate` calls;
//! * timestamps are strictly monotone (the runner replays in order, the
//!   per-phase counts depend on it);
//! * every drawn request size respects the declared size-mix bounds and
//!   every model index points into the zoo;
//! * the fingerprint commits to the seed — two seeds never collide on
//!   the same fingerprint even when they happen to emit similar events.

use proptest::prelude::*;
use tdc_lab::spec::{Arrival, ModelSpec, PhaseSpec, SizeMix, WorkloadSpec};
use tdc_lab::trace::generate;

/// A compact two-model spec exercising all four arrival processes.
fn spec(
    seed: u64,
    rate_hz: f64,
    alpha: f64,
    min: usize,
    span: usize,
    duration_ms: u64,
) -> WorkloadSpec {
    WorkloadSpec {
        name: "prop-workload".to_string(),
        seed,
        models: vec![
            ModelSpec {
                name: "prop-a".to_string(),
                spatial: 8,
                base_channels: 4,
                classes: 4,
                qos: None,
                deadline_ms: None,
            },
            ModelSpec {
                name: "prop-b".to_string(),
                spatial: 10,
                base_channels: 4,
                classes: 6,
                qos: None,
                deadline_ms: Some(250),
            },
        ],
        model_mix: vec![0.6, 0.4],
        size_mix: SizeMix::BoundedPareto {
            alpha,
            min,
            max: min + span,
        },
        phases: vec![
            PhaseSpec {
                label: "uniform".to_string(),
                duration_ms,
                arrival: Arrival::Uniform { rate_hz },
            },
            PhaseSpec {
                label: "poisson".to_string(),
                duration_ms,
                arrival: Arrival::Poisson { rate_hz },
            },
            PhaseSpec {
                label: "sine".to_string(),
                duration_ms,
                arrival: Arrival::Sine {
                    base_hz: rate_hz,
                    amplitude_hz: rate_hz * 0.5,
                    period_ms: duration_ms.max(2) / 2,
                },
            },
            PhaseSpec {
                label: "square".to_string(),
                duration_ms,
                arrival: Arrival::Square {
                    low_hz: rate_hz * 0.5,
                    high_hz: rate_hz * 2.0,
                    period_ms: duration_ms.max(2) / 2,
                },
            },
        ],
        faults: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn identical_seed_and_spec_produce_byte_identical_traces(
        seed in 0u64..10_000,
        rate_hz in 50.0f64..400.0,
        alpha in 0.8f64..2.5,
        min in 1usize..4,
        span in 0usize..8,
        duration_ms in 20u64..120,
    ) {
        let workload = spec(seed, rate_hz, alpha, min, span, duration_ms);
        let first = generate(&workload);
        let second = generate(&workload.clone());
        prop_assert_eq!(first.canonical_bytes(), second.canonical_bytes());
        prop_assert_eq!(first.fingerprint, second.fingerprint);
        prop_assert_eq!(first.events.len(), second.events.len());
    }

    #[test]
    fn timestamps_are_strictly_monotone_and_phases_ordered(
        seed in 0u64..10_000,
        rate_hz in 50.0f64..400.0,
        duration_ms in 20u64..120,
    ) {
        let workload = spec(seed, rate_hz, 1.5, 1, 4, duration_ms);
        let trace = generate(&workload);
        let mut last_ts = 0u64;
        let mut last_phase = 0usize;
        for (i, event) in trace.events.iter().enumerate() {
            if i > 0 {
                prop_assert!(event.timestamp_us > last_ts,
                    "event {} at {}us does not advance past {}us", i, event.timestamp_us, last_ts);
            }
            prop_assert!(event.phase >= last_phase, "phase index went backwards");
            prop_assert!(event.phase < workload.phases.len());
            last_ts = event.timestamp_us;
            last_phase = event.phase;
        }
        let total_us = workload.duration_ms() * 1_000;
        prop_assert!(last_ts < total_us, "last event {}us beyond workload span {}us", last_ts, total_us);
    }

    #[test]
    fn request_sizes_respect_the_size_mix_bounds(
        seed in 0u64..10_000,
        alpha in 0.8f64..2.5,
        min in 1usize..4,
        span in 0usize..8,
    ) {
        let workload = spec(seed, 200.0, alpha, min, span, 60);
        let trace = generate(&workload);
        prop_assert!(!trace.events.is_empty());
        for event in &trace.events {
            prop_assert!(event.samples >= min && event.samples <= min + span,
                "sample count {} outside [{}, {}]", event.samples, min, min + span);
            prop_assert!(event.model < workload.models.len());
            let deadline = workload.models[event.model].deadline_ms;
            prop_assert_eq!(event.deadline_ms, deadline);
        }
    }

    #[test]
    fn fingerprint_commits_to_the_seed(
        seed in 0u64..10_000,
        bump in 1u64..100,
    ) {
        let base = generate(&spec(seed, 200.0, 1.5, 1, 4, 40));
        let other = generate(&spec(seed + bump, 200.0, 1.5, 1, 4, 40));
        prop_assert!(base.fingerprint != other.fingerprint,
            "fingerprints collide across seeds {} and {}", seed, seed + bump);
    }
}
