//! # tdc-lab
//!
//! The serving stack's laboratory tier: reproducible trace-driven
//! workloads and scripted chaos with invariant checks.
//!
//! ## Pieces
//!
//! * [`spec`] — the JSON [`WorkloadSpec`] format:
//!   phases of arrival processes (uniform / Poisson / diurnal sine /
//!   square-wave burst), heavy-tailed request-size mixes, multi-model
//!   zoos with per-model QoS and deadlines, and scripted fault events.
//! * [`trace`] — [`generate`] expands a spec into a
//!   [`Trace`]: a byte-reproducible, strictly-ordered
//!   stream of timestamped request events with an FNV-1a fingerprint.
//!   Same spec + seed ⇒ identical trace, on any machine.
//! * [`fault`] — [`FaultInjector`], a
//!   [`BackendWrapper`](tdc_serve::BackendWrapper) that panics or
//!   fails `forward_batch` on command; the chaos harness's scalpel.
//! * [`runner`] — [`deploy`] builds a registry from a
//!   spec and [`replay`] drives it open-loop on the
//!   trace clock, arming faults at their scripted timestamps and
//!   accounting for every sample
//!   (`submitted == completed + expired + failed`, plus typed sheds).
//! * [`chaos`] — the scenario catalog: worker panic inside
//!   `forward_batch`, backend error storms, replica kill/restart under
//!   load, plan spill-dir loss, admission-queue saturation — each
//!   asserting the same contract: *clients only ever see typed errors,
//!   counters reconcile, and after the fault heals, outputs are
//!   bit-identical to a fault-free run*.

pub mod chaos;
pub mod fault;
pub mod runner;
pub mod spec;
pub mod trace;

pub use fault::FaultInjector;
pub use runner::{deploy, reconcile, replay, LabDeployment, ReplayOptions, ReplayReport};
pub use spec::{Arrival, FaultAction, FaultSpec, ModelSpec, PhaseSpec, SizeMix, WorkloadSpec};
pub use trace::{fnv1a, generate, Fnv1a, Trace, TraceEvent};
