//! Trace generation: expanding a [`WorkloadSpec`] into a concrete,
//! byte-reproducible sequence of timestamped request events.
//!
//! The generator draws every random quantity from one `StdRng` seeded
//! with the spec's seed, in a fixed order (inter-arrival gap, then model,
//! then request size, per event), so the same spec + seed always yields
//! the same [`Trace`] — the foundation both for the replay pin
//! (`tests/replay_pin.rs`: the committed fingerprints and a fresh run
//! describe the *same* request stream) and for the chaos harness's
//! bit-parity checks (a post-heal replay re-issues exactly the fault run's
//! requests).
//!
//! Timestamps are virtual microseconds from trace start and strictly
//! increasing: every gap is clamped to at least 1 µs, so event order is
//! total and replay dispatch is unambiguous.

use crate::spec::{Arrival, SizeMix, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request event in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the request, microseconds from trace start.
    pub timestamp_us: u64,
    /// Index into the spec's model zoo.
    pub model: usize,
    /// Samples carried by the request (each becomes one engine request).
    pub samples: usize,
    /// Deadline applied to the request, from the model spec.
    pub deadline_ms: Option<u64>,
    /// Index of the phase that emitted the event.
    pub phase: usize,
}

/// A fully expanded workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Events in strictly increasing timestamp order.
    pub events: Vec<TraceEvent>,
    /// FNV-1a fingerprint of [`Trace::canonical_bytes`]; two traces with
    /// the same fingerprint describe the same request stream.
    pub fingerprint: u64,
}

/// FNV-1a 64-bit hash — the workspace's stock content fingerprint (the
/// router uses the same construction for placement hashing).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Streaming FNV-1a accumulator for fingerprints built out of several
/// pieces (request outputs, event records) without concatenating buffers.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh accumulator at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

fn gap_us(arrival: &Arrival, local_us: u64, rng: &mut StdRng) -> u64 {
    let gap_s = match arrival {
        Arrival::Uniform { rate_hz } => 1.0 / rate_hz,
        Arrival::Poisson { rate_hz } => {
            let u: f64 = rng.gen_range(0.0..1.0);
            -(1.0 - u).ln() / rate_hz
        }
        Arrival::Sine {
            base_hz,
            amplitude_hz,
            period_ms,
        } => {
            let t_ms = local_us as f64 / 1000.0;
            let rate = base_hz
                + amplitude_hz * (2.0 * std::f64::consts::PI * t_ms / *period_ms as f64).sin();
            1.0 / rate
        }
        Arrival::Square {
            low_hz,
            high_hz,
            period_ms,
        } => {
            let in_period_ms = (local_us / 1000) % period_ms;
            let rate = if in_period_ms < period_ms / 2 {
                *high_hz
            } else {
                *low_hz
            };
            1.0 / rate
        }
    };
    ((gap_s * 1e6).round() as u64).max(1)
}

fn pick_model(mix: &[f64], total: f64, rng: &mut StdRng) -> usize {
    let draw: f64 = rng.gen_range(0.0..total);
    let mut acc = 0.0;
    for (i, w) in mix.iter().enumerate() {
        acc += w;
        if draw < acc {
            return i;
        }
    }
    mix.len() - 1
}

fn sample_size(mix: &SizeMix, rng: &mut StdRng) -> usize {
    match mix {
        SizeMix::Fixed { samples } => *samples,
        SizeMix::BoundedPareto { alpha, min, max } => {
            if min == max {
                return *min;
            }
            // Inverse-CDF sampling of the bounded Pareto on [min, max+1):
            // x = L / (1 - u (1 - (L/H)^α))^(1/α).
            let l = *min as f64;
            let h = (*max + 1) as f64;
            let u: f64 = rng.gen_range(0.0..1.0);
            let ratio = (l / h).powf(*alpha);
            let x = l / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
            (x.floor() as usize).clamp(*min, *max)
        }
    }
}

/// Expand `spec` into its trace. Deterministic: same spec + seed ⇒
/// identical events and fingerprint, byte for byte.
pub fn generate(spec: &WorkloadSpec) -> Trace {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mix_total: f64 = spec.model_mix.iter().sum();
    let mut events = Vec::new();
    let mut phase_start_us = 0u64;
    for (phase, phase_spec) in spec.phases.iter().enumerate() {
        let duration_us = phase_spec.duration_ms * 1000;
        let mut local_us = 0u64;
        loop {
            local_us = local_us.saturating_add(gap_us(&phase_spec.arrival, local_us, &mut rng));
            if local_us >= duration_us {
                break;
            }
            let model = pick_model(&spec.model_mix, mix_total, &mut rng);
            let samples = sample_size(&spec.size_mix, &mut rng);
            events.push(TraceEvent {
                timestamp_us: phase_start_us + local_us,
                model,
                samples,
                deadline_ms: spec.models[model].deadline_ms,
                phase,
            });
        }
        phase_start_us += duration_us;
    }
    let mut trace = Trace {
        events,
        fingerprint: 0,
    };
    trace.fingerprint = fnv1a(&trace.canonical_bytes_with_header(&spec.name, spec.seed));
    trace
}

impl Trace {
    /// Canonical little-endian byte encoding of the event stream, used
    /// for the fingerprint and for byte-level reproducibility checks.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.events.len() * 28);
        for event in &self.events {
            bytes.extend_from_slice(&event.timestamp_us.to_le_bytes());
            bytes.extend_from_slice(&(event.model as u32).to_le_bytes());
            bytes.extend_from_slice(&(event.samples as u32).to_le_bytes());
            bytes.extend_from_slice(&event.deadline_ms.unwrap_or(u64::MAX).to_le_bytes());
            bytes.extend_from_slice(&(event.phase as u32).to_le_bytes());
        }
        bytes
    }

    fn canonical_bytes_with_header(&self, name: &str, seed: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&seed.to_le_bytes());
        bytes.extend_from_slice(&self.canonical_bytes());
        bytes
    }

    /// Total samples (engine-level requests) across all events.
    pub fn total_samples(&self) -> u64 {
        self.events.iter().map(|e| e.samples as u64).sum()
    }

    /// Event count per phase index (length `phases`).
    pub fn per_phase_events(&self, phases: usize) -> Vec<u64> {
        let mut counts = vec![0u64; phases];
        for event in &self.events {
            if event.phase < phases {
                counts[event.phase] += 1;
            }
        }
        counts
    }

    /// Samples per model index (length `models`).
    pub fn per_model_samples(&self, models: usize) -> Vec<u64> {
        let mut counts = vec![0u64; models];
        for event in &self.events {
            if event.model < models {
                counts[event.model] += event.samples as u64;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ModelSpec, PhaseSpec};

    fn two_model_spec(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            name: "trace-unit".into(),
            seed,
            models: vec![
                ModelSpec {
                    name: "a".into(),
                    spatial: 8,
                    base_channels: 4,
                    classes: 4,
                    qos: None,
                    deadline_ms: Some(500),
                },
                ModelSpec {
                    name: "b".into(),
                    spatial: 8,
                    base_channels: 4,
                    classes: 4,
                    qos: None,
                    deadline_ms: None,
                },
            ],
            model_mix: vec![0.5, 0.5],
            size_mix: SizeMix::BoundedPareto {
                alpha: 1.2,
                min: 1,
                max: 5,
            },
            phases: vec![
                PhaseSpec {
                    label: "wave".into(),
                    duration_ms: 250,
                    arrival: Arrival::Sine {
                        base_hz: 200.0,
                        amplitude_hz: 150.0,
                        period_ms: 100,
                    },
                },
                PhaseSpec {
                    label: "burst".into(),
                    duration_ms: 250,
                    arrival: Arrival::Square {
                        low_hz: 50.0,
                        high_hz: 400.0,
                        period_ms: 100,
                    },
                },
            ],
            faults: vec![],
        }
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let spec = two_model_spec(9);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(!a.events.is_empty());
    }

    #[test]
    fn different_seed_diverges() {
        let a = generate(&two_model_spec(9));
        let b = generate(&two_model_spec(10));
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn timestamps_strictly_increase_and_stay_in_range() {
        let spec = two_model_spec(3);
        let trace = generate(&spec);
        let mut last = 0u64;
        for event in &trace.events {
            assert!(event.timestamp_us > last);
            assert!(event.timestamp_us < spec.duration_ms() * 1000);
            assert!(event.samples >= 1 && event.samples <= 5);
            assert!(event.model < 2);
            last = event.timestamp_us;
        }
        let per_phase = trace.per_phase_events(2);
        assert_eq!(
            per_phase.iter().sum::<u64>(),
            trace.events.len() as u64,
            "every event belongs to a phase"
        );
        assert!(per_phase.iter().all(|&c| c > 0));
    }

    #[test]
    fn burst_phase_is_front_loaded() {
        // Square wave 400 Hz then 50 Hz per 100 ms period: the first half
        // of each period must carry the bulk of the arrivals.
        let spec = WorkloadSpec {
            phases: vec![PhaseSpec {
                label: "burst".into(),
                duration_ms: 100,
                arrival: Arrival::Square {
                    low_hz: 50.0,
                    high_hz: 400.0,
                    period_ms: 100,
                },
            }],
            ..two_model_spec(5)
        };
        let trace = generate(&spec);
        let first_half = trace
            .events
            .iter()
            .filter(|e| e.timestamp_us < 50_000)
            .count();
        let second_half = trace.events.len() - first_half;
        assert!(
            first_half >= 4 * second_half.max(1),
            "burst half should dominate: {first_half} vs {second_half}"
        );
    }
}
