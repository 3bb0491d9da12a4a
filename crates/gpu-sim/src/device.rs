//! GPU device specifications.
//!
//! The two devices used by the paper's evaluation — NVIDIA A100 (Ampere,
//! enterprise) and NVIDIA GeForce RTX 2080 Ti (Turing, consumer) — are
//! modelled by their published hardware limits. These numbers feed the
//! occupancy calculator, the wave model of Eq. (14) and the bandwidth model.

use crate::{Result, SimError};
use serde::{Deserialize, Serialize};

/// Static description of a GPU.
///
/// All capacities are per-device unless the name says otherwise. Only the
/// quantities the paper's analytical model actually consumes are included;
/// this is not a full micro-architectural model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: usize,
    /// Maximum threads in a single thread block.
    pub max_threads_per_block: usize,
    /// Threads per warp (32 on every CUDA GPU).
    pub warp_size: usize,
    /// Shared memory available per SM, in bytes.
    pub shared_mem_per_sm: usize,
    /// Maximum shared memory a single block may request, in bytes.
    pub shared_mem_per_block: usize,
    /// 32-bit registers per SM.
    pub registers_per_sm: usize,
    /// Maximum resident blocks per SM (hardware scheduler limit).
    pub max_blocks_per_sm: usize,
    /// FP32 execution lanes (CUDA cores) per SM. Together with the peak
    /// throughput this bounds how fast a *single* thread can possibly issue
    /// FLOPs, which matters for modelling under-occupied kernels.
    pub fp32_lanes_per_sm: usize,
    /// Peak single-precision throughput in GFLOP/s.
    pub peak_fp32_gflops: f64,
    /// DRAM bandwidth in GB/s.
    pub dram_bandwidth_gbs: f64,
    /// L2 cache size in bytes (used only for reporting).
    pub l2_cache_bytes: usize,
    /// Fixed kernel launch overhead in microseconds. This matters for the
    /// paper's θ-threshold: Tucker decomposition adds two extra 1×1 kernels
    /// whose launch cost can cancel the FLOP savings on tiny layers.
    pub kernel_launch_overhead_us: f64,
}

impl DeviceSpec {
    /// NVIDIA A100-SXM4-80GB (Ampere, GA100): 108 SMs, 2048 threads/SM,
    /// 164 KB shared memory/SM, 19.5 TFLOP/s FP32, ~2039 GB/s HBM2e.
    pub fn a100() -> Self {
        DeviceSpec {
            name: "NVIDIA A100 80GB".to_string(),
            sm_count: 108,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            warp_size: 32,
            shared_mem_per_sm: 164 * 1024,
            shared_mem_per_block: 163 * 1024,
            registers_per_sm: 65_536,
            max_blocks_per_sm: 32,
            fp32_lanes_per_sm: 64,
            peak_fp32_gflops: 19_500.0,
            dram_bandwidth_gbs: 2039.0,
            l2_cache_bytes: 40 * 1024 * 1024,
            kernel_launch_overhead_us: 3.0,
        }
    }

    /// NVIDIA GeForce RTX 2080 Ti (Turing, TU102): 68 SMs, 1024 threads/SM,
    /// 64 KB shared memory/SM, 13.45 TFLOP/s FP32, 616 GB/s GDDR6.
    pub fn rtx2080ti() -> Self {
        DeviceSpec {
            name: "NVIDIA GeForce RTX 2080 Ti".to_string(),
            sm_count: 68,
            max_threads_per_sm: 1024,
            max_threads_per_block: 1024,
            warp_size: 32,
            shared_mem_per_sm: 64 * 1024,
            shared_mem_per_block: 48 * 1024,
            registers_per_sm: 65_536,
            max_blocks_per_sm: 16,
            fp32_lanes_per_sm: 64,
            peak_fp32_gflops: 13_450.0,
            dram_bandwidth_gbs: 616.0,
            l2_cache_bytes: 5_632 * 1024,
            kernel_launch_overhead_us: 5.0,
        }
    }

    /// Total resident threads the whole device can hold
    /// (`GPU_ths` in the paper's Eq. 14).
    #[inline]
    pub fn total_threads(&self) -> usize {
        self.sm_count * self.max_threads_per_sm
    }

    /// Peak FLOP/s of the whole device, as f64 FLOPs per second.
    #[inline]
    pub fn peak_flops(&self) -> f64 {
        self.peak_fp32_gflops * 1e9
    }

    /// DRAM bandwidth in bytes per second.
    pub fn bandwidth_bytes_per_s(&self) -> f64 {
        self.dram_bandwidth_gbs * 1e9
    }

    /// Peak FLOP/s of one SM.
    pub fn sm_peak_flops(&self) -> f64 {
        self.peak_flops() / self.sm_count as f64
    }

    /// Maximum FLOP/s a single thread can issue (one FMA per lane per cycle):
    /// `peak / (sm_count · fp32_lanes_per_sm)`. This caps the benefit a
    /// low-occupancy kernel can extract from an otherwise idle SM.
    pub fn per_thread_peak_flops(&self) -> f64 {
        self.peak_flops() / (self.sm_count * self.fp32_lanes_per_sm.max(1)) as f64
    }

    /// Kernel launch overhead in milliseconds.
    pub fn launch_overhead_ms(&self) -> f64 {
        self.kernel_launch_overhead_us / 1000.0
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.sm_count == 0 {
            return Err(SimError::InvalidDevice {
                reason: "sm_count must be > 0".into(),
            });
        }
        if self.warp_size == 0 || !self.max_threads_per_block.is_multiple_of(self.warp_size) {
            return Err(SimError::InvalidDevice {
                reason: "max_threads_per_block must be a positive multiple of warp_size".into(),
            });
        }
        if self.max_threads_per_sm < self.max_threads_per_block {
            return Err(SimError::InvalidDevice {
                reason: "an SM must be able to hold at least one maximal block".into(),
            });
        }
        if self.shared_mem_per_block > self.shared_mem_per_sm {
            return Err(SimError::InvalidDevice {
                reason: "per-block shared memory cannot exceed per-SM shared memory".into(),
            });
        }
        if self.peak_fp32_gflops <= 0.0 || self.dram_bandwidth_gbs <= 0.0 {
            return Err(SimError::InvalidDevice {
                reason: "throughput figures must be positive".into(),
            });
        }
        if self.fp32_lanes_per_sm == 0 {
            return Err(SimError::InvalidDevice {
                reason: "fp32_lanes_per_sm must be > 0".into(),
            });
        }
        Ok(())
    }

    /// Machine balance in FLOPs per byte: the arithmetic intensity above which
    /// a kernel on this device is compute bound (roofline knee).
    pub fn machine_balance(&self) -> f64 {
        self.peak_flops() / self.bandwidth_bytes_per_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_devices_are_valid() {
        DeviceSpec::a100().validate().unwrap();
        DeviceSpec::rtx2080ti().validate().unwrap();
    }

    #[test]
    fn a100_headline_numbers() {
        let d = DeviceSpec::a100();
        assert_eq!(d.sm_count, 108);
        assert_eq!(d.total_threads(), 108 * 2048);
        assert!((d.peak_flops() - 19.5e12).abs() < 1e9);
        assert!(d.machine_balance() > 5.0); // A100 is strongly compute-rich
    }

    #[test]
    fn rtx2080ti_headline_numbers() {
        let d = DeviceSpec::rtx2080ti();
        assert_eq!(d.sm_count, 68);
        assert_eq!(d.total_threads(), 68 * 1024);
        assert!(d.dram_bandwidth_gbs < DeviceSpec::a100().dram_bandwidth_gbs);
        assert!(d.peak_fp32_gflops < DeviceSpec::a100().peak_fp32_gflops);
    }

    #[test]
    fn a100_has_more_parallelism_than_2080ti() {
        // The paper's whole co-design premise: the enterprise GPU has far more
        // resident-thread capacity, so the same problem needs fewer waves.
        assert!(DeviceSpec::a100().total_threads() > 3 * DeviceSpec::rtx2080ti().total_threads());
    }

    #[test]
    fn validate_catches_inconsistencies() {
        let mut d = DeviceSpec::a100();
        d.sm_count = 0;
        assert!(d.validate().is_err());

        let mut d = DeviceSpec::a100();
        d.max_threads_per_block = 33;
        assert!(d.validate().is_err());

        let mut d = DeviceSpec::a100();
        d.shared_mem_per_block = d.shared_mem_per_sm + 1;
        assert!(d.validate().is_err());

        let mut d = DeviceSpec::a100();
        d.peak_fp32_gflops = 0.0;
        assert!(d.validate().is_err());

        let mut d = DeviceSpec::a100();
        d.max_threads_per_sm = 512;
        assert!(d.validate().is_err());
    }

    #[test]
    fn per_thread_peak_is_reasonable() {
        // One thread can issue at most one FMA per cycle: ~2.8 GFLOP/s on A100.
        let d = DeviceSpec::a100();
        let pt = d.per_thread_peak_flops();
        assert!(pt > 2.0e9 && pt < 4.0e9, "per-thread peak {pt}");
        // Full residency brings the per-thread share far below the issue cap.
        assert!(d.peak_flops() / d.total_threads() as f64 * 10.0 < pt);
        assert!((d.sm_peak_flops() * d.sm_count as f64 - d.peak_flops()).abs() < 1.0);
    }

    #[test]
    fn launch_overhead_conversion() {
        let d = DeviceSpec::a100();
        assert!((d.launch_overhead_ms() - 0.003).abs() < 1e-9);
    }

    #[test]
    fn clone_and_eq() {
        let d = DeviceSpec::a100();
        let d2 = d.clone();
        assert_eq!(d, d2);
        assert_ne!(d, DeviceSpec::rtx2080ti());
    }
}
