//! Wave-level execution engine.
//!
//! [`LatencyModel`] answers "how long does this
//! launch take" with a closed-form estimate. `WaveEngine` goes one level
//! deeper: it actually schedules every block of the grid onto simulated SMs,
//! wave by wave, and measures the resulting per-SM load. That exposes the
//! *tail effect* — a final partial wave where most SMs idle — which is exactly
//! the under-utilisation the paper blames for Tucker-format convolutions being
//! slow under generic libraries (small grids → a fraction of one wave → most
//! of the GPU idle). Blocks resident in the same wave run concurrently, each
//! at its thread-share of peak throughput; a wave completes when its slowest
//! block does.

use crate::device::DeviceSpec;
use crate::kernel::KernelLaunch;
use crate::latency::LatencyModel;
use crate::occupancy::occupancy;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Execution statistics produced by [`WaveEngine::run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Kernel name.
    pub kernel: String,
    /// Number of scheduling waves executed.
    pub waves: usize,
    /// Blocks resident per SM in a full wave.
    pub blocks_per_sm: usize,
    /// Total simulated kernel time in milliseconds (excludes launch overhead).
    pub kernel_ms: f64,
    /// Kernel time plus launch overhead, in milliseconds.
    pub total_ms: f64,
    /// Average fraction of SMs doing useful work over the kernel's lifetime.
    pub sm_utilization: f64,
    /// Fraction of the last wave's SM slots that were actually filled —
    /// 1.0 means a perfectly full final wave, small values mean a bad tail.
    pub tail_efficiency: f64,
    /// Total useful FLOPs executed.
    pub total_flops: f64,
    /// Achieved FLOP/s as a fraction of device peak.
    pub achieved_peak_fraction: f64,
}

/// Aggregate view of a dependent kernel sequence produced by
/// [`WaveEngine::run_sequence_stats`] — the per-kernel stats plus the totals
/// an execution backend reports per batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequenceStats {
    /// Per-kernel execution statistics, in launch order.
    pub per_kernel: Vec<ExecStats>,
    /// Sum of every kernel's `total_ms` (kernel time + launch overhead).
    pub total_ms: f64,
    /// Sum of every kernel's `kernel_ms` (launch overhead excluded).
    pub kernel_ms: f64,
    /// Time-weighted mean SM utilisation across the sequence.
    pub mean_sm_utilization: f64,
}

/// Block-granular wave simulator for a single device.
#[derive(Debug, Clone)]
pub struct WaveEngine {
    device: DeviceSpec,
    model: LatencyModel,
}

impl WaveEngine {
    /// Create an engine for the given device.
    pub fn new(device: DeviceSpec) -> Self {
        let model = LatencyModel::new(device.clone());
        WaveEngine { device, model }
    }

    /// The underlying closed-form latency model.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// The simulated device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Simulate one kernel launch block-by-block.
    pub fn run(&self, kernel: &KernelLaunch) -> Result<ExecStats> {
        let occ = occupancy(&self.device, kernel)?;
        let slots_per_wave = occ.blocks_per_wave;
        let waves = kernel.grid_blocks.div_ceil(slots_per_wave);

        // Cost of one block on the compute side. Every block of a launch is
        // identical, so every wave — full or tail — costs exactly this.
        let block_ms = self.model.block_compute_latency_ms(kernel, &occ)
            + kernel.syncs_per_block as f64 * crate::latency::SYNC_STALL_US / 1000.0;

        // Schedule blocks onto resident slots, wave by wave. Blocks resident in
        // the same wave execute concurrently, each progressing at its
        // thread-share of the machine (the paper's blk_peak = GPU_peak *
        // N / GPU_ths), so a wave finishes when its slowest block finishes.
        let mut compute_ms = 0.0f64;
        let mut weighted_resident = 0.0f64;
        let mut last_wave_fill = 1.0f64;
        for wave in 0..waves {
            let start = wave * slots_per_wave;
            let end = ((wave + 1) * slots_per_wave).min(kernel.grid_blocks);
            let wave_blocks = end - start;
            compute_ms += block_ms;
            let resident_fraction = ((wave_blocks * kernel.threads_per_block) as f64
                / self.device.total_threads() as f64)
                .min(1.0);
            weighted_resident += block_ms * resident_fraction;
            if wave + 1 == waves {
                last_wave_fill = wave_blocks as f64 / slots_per_wave as f64;
            }
        }

        // Memory side and overlap identical to the closed-form model.
        let memory_ms = kernel.total_traffic_bytes() / self.device.bandwidth_bytes_per_s() * 1e3;
        let longer = compute_ms.max(memory_ms);
        let shorter = compute_ms.min(memory_ms);
        let kernel_ms = longer + crate::latency::DEFAULT_OVERLAP_PENALTY * shorter;
        let total_ms = kernel_ms + self.device.launch_overhead_ms();

        let sm_utilization = if compute_ms > 0.0 {
            (weighted_resident / compute_ms).min(1.0)
        } else {
            0.0
        };
        let total_flops = kernel.total_flops();
        let achieved = if kernel_ms > 0.0 {
            (total_flops / (kernel_ms / 1e3)) / self.device.peak_flops()
        } else {
            0.0
        };

        Ok(ExecStats {
            kernel: kernel.name.clone(),
            waves,
            blocks_per_sm: occ.blocks_per_sm,
            kernel_ms,
            total_ms,
            sm_utilization,
            tail_efficiency: last_wave_fill,
            total_flops,
            achieved_peak_fraction: achieved.min(1.0),
        })
    }

    /// Simulate a sequence of dependent kernel launches (single stream).
    pub fn run_sequence(&self, kernels: &[KernelLaunch]) -> Result<Vec<ExecStats>> {
        kernels.iter().map(|k| self.run(k)).collect()
    }

    /// Total time of a dependent kernel sequence in milliseconds.
    pub fn sequence_total_ms(&self, kernels: &[KernelLaunch]) -> Result<f64> {
        Ok(self.run_sequence(kernels)?.iter().map(|s| s.total_ms).sum())
    }

    /// Simulate a dependent kernel sequence and aggregate it into
    /// [`SequenceStats`].
    pub fn run_sequence_stats(&self, kernels: &[KernelLaunch]) -> Result<SequenceStats> {
        let per_kernel = self.run_sequence(kernels)?;
        let total_ms: f64 = per_kernel.iter().map(|s| s.total_ms).sum();
        let kernel_ms: f64 = per_kernel.iter().map(|s| s.kernel_ms).sum();
        let weighted_util: f64 = per_kernel
            .iter()
            .map(|s| s.sm_utilization * s.kernel_ms)
            .sum();
        Ok(SequenceStats {
            per_kernel,
            total_ms,
            kernel_ms,
            mean_sm_utilization: if kernel_ms > 0.0 {
                weighted_util / kernel_ms
            } else {
                0.0
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(blocks: usize, threads: usize, flops: f64) -> KernelLaunch {
        KernelLaunch::new("k", blocks, threads)
            .with_regs(32)
            .with_flops_per_block(flops)
            .with_global_traffic(1e6, 1e5)
    }

    #[test]
    fn engine_agrees_with_model_on_wave_count() {
        let dev = DeviceSpec::a100();
        let engine = WaveEngine::new(dev.clone());
        let model = LatencyModel::new(dev);
        for &blocks in &[1usize, 100, 1000, 5000] {
            let k = kernel(blocks, 256, 1e6);
            let stats = engine.run(&k).unwrap();
            let breakdown = model.kernel_latency(&k).unwrap();
            assert_eq!(stats.waves, breakdown.waves, "blocks={blocks}");
        }
    }

    #[test]
    fn small_grids_underutilize_the_gpu() {
        // The paper's motivation: a Tucker-core conv with a small grid leaves
        // most SMs idle. 10 blocks on a 108-SM A100 => low utilisation.
        let engine = WaveEngine::new(DeviceSpec::a100());
        let small = engine.run(&kernel(10, 256, 1e7)).unwrap();
        let large = engine.run(&kernel(5000, 256, 1e7)).unwrap();
        assert!(small.sm_utilization < 0.15);
        assert!(large.sm_utilization > 0.8);
        assert!(small.achieved_peak_fraction < large.achieved_peak_fraction);
    }

    #[test]
    fn tail_efficiency_reflects_partial_last_wave() {
        let dev = DeviceSpec::a100();
        let engine = WaveEngine::new(dev.clone());
        let occ = occupancy(&dev, &kernel(1, 256, 1e6)).unwrap();
        let full = engine.run(&kernel(occ.blocks_per_wave, 256, 1e6)).unwrap();
        assert!((full.tail_efficiency - 1.0).abs() < 1e-9);
        let ragged = engine
            .run(&kernel(occ.blocks_per_wave + 1, 256, 1e6))
            .unwrap();
        assert!(ragged.tail_efficiency < 0.01);
    }

    #[test]
    fn total_includes_launch_overhead() {
        let engine = WaveEngine::new(DeviceSpec::rtx2080ti());
        let stats = engine.run(&kernel(10, 64, 1e5)).unwrap();
        assert!(stats.total_ms > stats.kernel_ms);
        assert!(
            (stats.total_ms - stats.kernel_ms - DeviceSpec::rtx2080ti().launch_overhead_ms()).abs()
                < 1e-12
        );
    }

    #[test]
    fn sequence_accumulates() {
        let engine = WaveEngine::new(DeviceSpec::a100());
        let ks = vec![
            kernel(10, 64, 1e5),
            kernel(20, 64, 1e5),
            kernel(30, 64, 1e5),
        ];
        let seq = engine.run_sequence(&ks).unwrap();
        assert_eq!(seq.len(), 3);
        let total = engine.sequence_total_ms(&ks).unwrap();
        let sum: f64 = seq.iter().map(|s| s.total_ms).sum();
        assert!((total - sum).abs() < 1e-12);
    }

    #[test]
    fn sequence_stats_aggregate_the_per_kernel_runs() {
        let engine = WaveEngine::new(DeviceSpec::a100());
        let ks = vec![kernel(10, 64, 1e5), kernel(5000, 256, 1e6)];
        let stats = engine.run_sequence_stats(&ks).unwrap();
        assert_eq!(stats.per_kernel.len(), 2);
        let total: f64 = stats.per_kernel.iter().map(|s| s.total_ms).sum();
        assert!((stats.total_ms - total).abs() < 1e-12);
        assert!(
            stats.kernel_ms < stats.total_ms,
            "overhead must be excluded"
        );
        // The time-weighted utilisation sits between the two kernels' own.
        let (lo, hi) = (
            stats
                .per_kernel
                .iter()
                .map(|s| s.sm_utilization)
                .fold(f64::INFINITY, f64::min),
            stats
                .per_kernel
                .iter()
                .map(|s| s.sm_utilization)
                .fold(0.0, f64::max),
        );
        assert!(stats.mean_sm_utilization >= lo && stats.mean_sm_utilization <= hi);
        // A batch-scaled grid takes longer but uses the machine at least as well.
        let batched = engine
            .run_sequence_stats(&[ks[0].scaled_batch(8), ks[1].scaled_batch(8)])
            .unwrap();
        assert!(batched.total_ms > stats.total_ms);
        let empty = engine.run_sequence_stats(&[]).unwrap();
        assert_eq!(empty.total_ms, 0.0);
        assert_eq!(empty.mean_sm_utilization, 0.0);
    }

    #[test]
    fn engine_and_closed_form_are_close_for_uniform_blocks() {
        // For a dense kernel with identical blocks the engine's max-over-SMs
        // computation collapses to the closed-form waves * block_cost.
        let dev = DeviceSpec::a100();
        let engine = WaveEngine::new(dev.clone());
        let model = LatencyModel::new(dev);
        let k = kernel(3000, 256, 5e6);
        let stats = engine.run(&k).unwrap();
        let breakdown = model.kernel_latency(&k).unwrap();
        let rel = (stats.total_ms - breakdown.total_ms).abs() / breakdown.total_ms;
        assert!(
            rel < 0.25,
            "engine {} vs model {}",
            stats.total_ms,
            breakdown.total_ms
        );
    }

    #[test]
    fn invalid_launch_errors() {
        let engine = WaveEngine::new(DeviceSpec::a100());
        assert!(engine.run(&KernelLaunch::new("bad", 0, 64)).is_err());
    }
}
