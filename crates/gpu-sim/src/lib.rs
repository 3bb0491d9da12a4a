//! # tdc-gpu-sim
//!
//! An analytical + wave-level GPU execution simulator.
//!
//! The TDC paper evaluates its kernels on real NVIDIA A100 and RTX 2080 Ti
//! GPUs. This reproduction cannot assume CUDA hardware, so the entire latency
//! side of the evaluation runs against this simulator instead. The simulator
//! is deliberately built from the *same* analytical quantities the paper's own
//! performance model uses (Section 5.3–5.5):
//!
//! * device specifications — SM count, maximum resident threads, shared memory
//!   and register files, peak FP32 throughput, DRAM bandwidth
//!   ([`device::DeviceSpec`]),
//! * an occupancy calculator that limits resident blocks per SM by threads,
//!   shared memory and registers ([`occupancy`]),
//! * a wave model: a kernel with more blocks than the device can hold executes
//!   in ⌈blocks / (blocks-per-wave)⌉ waves (Eq. 14),
//! * a memory model: global-memory traffic divided by achievable bandwidth
//!   with a coalescing-efficiency factor ([`memory`]),
//! * a wave-level engine that schedules blocks round-robin over SMs and
//!   reports per-SM utilisation and the resulting tail effect
//!   ([`engine::WaveEngine`]).
//!
//! The absolute times it reports are estimates, but the *relative* behaviour —
//! which scheme wins for which convolution shape, where latency staircases
//! appear as the wave count changes, when a kernel is compute- versus
//! memory-bound — follows the same equations the paper derives, which is what
//! the reproduced figures need.

pub mod device;
pub mod engine;
pub mod kernel;
pub mod latency;
pub mod memory;
pub mod occupancy;

pub use device::DeviceSpec;
pub use engine::{ExecStats, SequenceStats, WaveEngine};
pub use kernel::{BlockLimit, BlockResources, KernelLaunch};
pub use latency::{LatencyBreakdown, LatencyModel};
pub use occupancy::OccupancyResult;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A launch parameter is invalid for the target device.
    InvalidLaunch { reason: String },
    /// A device parameter is inconsistent (e.g. zero SMs).
    InvalidDevice { reason: String },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidLaunch { reason } => write!(f, "invalid kernel launch: {reason}"),
            SimError::InvalidDevice { reason } => write!(f, "invalid device spec: {reason}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        // Both variants are leaves; none wraps another error.
        None
    }
}

/// Result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SimError::InvalidLaunch {
            reason: "zero blocks".into(),
        };
        assert!(e.to_string().contains("zero blocks"));
        let e = SimError::InvalidDevice {
            reason: "no SMs".into(),
        };
        assert!(e.to_string().contains("no SMs"));
    }
}
