//! Kernel launch descriptors.
//!
//! A [`KernelLaunch`] captures everything the latency model needs to know
//! about a GPU kernel: how many blocks, how many threads per block, how much
//! shared memory and how many registers each block consumes, how much
//! arithmetic each block performs, and how much global-memory traffic the
//! whole kernel generates. Convolution schemes in `tdc-conv` translate a
//! convolution shape plus tiling parameters into one of these descriptors.

use crate::device::DeviceSpec;
use crate::{Result, SimError};
use serde::{Deserialize, Serialize};

/// The resources one thread block asks of an SM: everything that decides
/// whether a block can launch at all and how many blocks an SM holds at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockResources {
    /// Threads per block.
    pub threads: usize,
    /// Shared memory per block, in bytes.
    pub shared_mem: usize,
    /// Registers per thread.
    pub regs_per_thread: usize,
}

/// The per-block hardware limit a block breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockLimit {
    /// The block has no threads.
    NoThreads,
    /// More threads than one block may have.
    Threads,
    /// More shared memory than one block may request.
    SharedMemory,
    /// More registers than one SM holds.
    Registers,
}

impl BlockResources {
    /// Registers the whole block needs.
    #[inline]
    pub fn regs_per_block(&self) -> usize {
        self.regs_per_thread * self.threads
    }

    /// Check the block against the device's per-block limits. Allocates
    /// nothing, so a search can call it once per candidate.
    #[inline]
    pub fn check(&self, device: &DeviceSpec) -> std::result::Result<(), BlockLimit> {
        if self.threads == 0 {
            Err(BlockLimit::NoThreads)
        } else if self.threads > device.max_threads_per_block {
            Err(BlockLimit::Threads)
        } else if self.shared_mem > device.shared_mem_per_block {
            Err(BlockLimit::SharedMemory)
        } else if self.regs_per_block() > device.registers_per_sm {
            Err(BlockLimit::Registers)
        } else {
            Ok(())
        }
    }
}

/// A single kernel launch, described analytically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelLaunch {
    /// Identifier used in reports (e.g. `"tdc_core_conv"`).
    pub name: String,
    /// Total number of thread blocks in the grid.
    pub grid_blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Dynamic + static shared memory requested per block, in bytes.
    pub shared_mem_per_block: usize,
    /// Registers per thread (estimate; used for the occupancy limit).
    pub regs_per_thread: usize,
    /// Useful floating-point operations performed by one block.
    pub flops_per_block: f64,
    /// Bytes read from global memory over the whole kernel (after coalescing
    /// accounting — i.e. bytes actually transferred).
    pub global_read_bytes: f64,
    /// Bytes written to global memory over the whole kernel.
    pub global_write_bytes: f64,
    /// Number of block-wide synchronisations (`__syncthreads`) executed per
    /// block. Each one stalls the block; the TVM scheme's inner-loop syncs
    /// versus the TDC scheme's single sync is one of the paper's key points.
    pub syncs_per_block: usize,
    /// Fraction of issued work lost to warp divergence / idle lanes in
    /// `[0, 1)`; 0 means perfectly converged warps.
    pub divergence_waste: f64,
}

impl KernelLaunch {
    /// Create a launch with the mandatory geometry; cost fields start at zero
    /// and can be filled in with the builder-style methods.
    pub fn new(name: impl Into<String>, grid_blocks: usize, threads_per_block: usize) -> Self {
        KernelLaunch {
            name: name.into(),
            grid_blocks,
            threads_per_block,
            shared_mem_per_block: 0,
            regs_per_thread: 32,
            flops_per_block: 0.0,
            global_read_bytes: 0.0,
            global_write_bytes: 0.0,
            syncs_per_block: 0,
            divergence_waste: 0.0,
        }
    }

    /// Set shared memory per block (bytes).
    pub fn with_shared_mem(mut self, bytes: usize) -> Self {
        self.shared_mem_per_block = bytes;
        self
    }

    /// Set estimated registers per thread.
    pub fn with_regs(mut self, regs: usize) -> Self {
        self.regs_per_thread = regs;
        self
    }

    /// Set per-block FLOPs.
    pub fn with_flops_per_block(mut self, flops: f64) -> Self {
        self.flops_per_block = flops;
        self
    }

    /// Set total global read/write traffic (bytes).
    pub fn with_global_traffic(mut self, read: f64, write: f64) -> Self {
        self.global_read_bytes = read;
        self.global_write_bytes = write;
        self
    }

    /// Set the number of block-wide synchronisations per block.
    pub fn with_syncs(mut self, syncs: usize) -> Self {
        self.syncs_per_block = syncs;
        self
    }

    /// Set the divergence waste fraction.
    pub fn with_divergence(mut self, waste: f64) -> Self {
        self.divergence_waste = waste.clamp(0.0, 0.99);
        self
    }

    /// This launch scaled to a batch of `batch` independent samples: the grid
    /// and the global-memory traffic grow `batch`-fold while the per-block
    /// cost is unchanged (every block still owns one tile of one sample).
    /// Execution layers use this to replay a per-sample kernel plan for a
    /// whole serving batch.
    pub fn scaled_batch(&self, batch: usize) -> KernelLaunch {
        let batch = batch.max(1);
        KernelLaunch {
            grid_blocks: self.grid_blocks * batch,
            global_read_bytes: self.global_read_bytes * batch as f64,
            global_write_bytes: self.global_write_bytes * batch as f64,
            ..self.clone()
        }
    }

    /// Total threads launched.
    pub fn total_threads(&self) -> usize {
        self.grid_blocks * self.threads_per_block
    }

    /// Total useful FLOPs over the whole grid.
    pub fn total_flops(&self) -> f64 {
        self.flops_per_block * self.grid_blocks as f64
    }

    /// Total global memory traffic (read + write) in bytes.
    pub fn total_traffic_bytes(&self) -> f64 {
        self.global_read_bytes + self.global_write_bytes
    }

    /// Arithmetic intensity: FLOPs per byte of global traffic.
    /// Returns infinity for a kernel with no global traffic.
    pub fn arithmetic_intensity(&self) -> f64 {
        let traffic = self.total_traffic_bytes();
        if traffic <= 0.0 {
            f64::INFINITY
        } else {
            self.total_flops() / traffic
        }
    }

    /// What one block of this launch asks of an SM.
    pub fn block_resources(&self) -> BlockResources {
        BlockResources {
            threads: self.threads_per_block,
            shared_mem: self.shared_mem_per_block,
            regs_per_thread: self.regs_per_thread,
        }
    }

    /// Validate this launch against a device's hard limits.
    pub fn validate(&self, device: &DeviceSpec) -> Result<()> {
        if self.grid_blocks == 0 {
            return Err(SimError::InvalidLaunch {
                reason: format!("{}: zero blocks", self.name),
            });
        }
        let block = self.block_resources();
        if let Err(limit) = block.check(device) {
            let reason = match limit {
                BlockLimit::NoThreads => format!("{}: zero threads per block", self.name),
                BlockLimit::Threads => format!(
                    "{}: {} threads per block exceeds device limit {}",
                    self.name, self.threads_per_block, device.max_threads_per_block
                ),
                BlockLimit::SharedMemory => format!(
                    "{}: {} B shared memory per block exceeds device limit {} B",
                    self.name, self.shared_mem_per_block, device.shared_mem_per_block
                ),
                BlockLimit::Registers => format!(
                    "{}: {} registers per block exceeds the {} available per SM",
                    self.name,
                    block.regs_per_block(),
                    device.registers_per_sm
                ),
            };
            return Err(SimError::InvalidLaunch { reason });
        }
        if !(0.0..1.0).contains(&self.divergence_waste) {
            return Err(SimError::InvalidLaunch {
                reason: format!("{}: divergence_waste must be in [0, 1)", self.name),
            });
        }
        Ok(())
    }

    /// Number of warps per block (rounded up to whole warps, since partially
    /// filled warps still occupy a scheduler slot).
    pub fn warps_per_block(&self, device: &DeviceSpec) -> usize {
        self.threads_per_block.div_ceil(device.warp_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let k = KernelLaunch::new("k", 10, 64)
            .with_shared_mem(4096)
            .with_regs(48)
            .with_flops_per_block(1e6)
            .with_global_traffic(1e7, 2e6)
            .with_syncs(2)
            .with_divergence(0.25);
        assert_eq!(k.grid_blocks, 10);
        assert_eq!(k.threads_per_block, 64);
        assert_eq!(k.shared_mem_per_block, 4096);
        assert_eq!(k.regs_per_thread, 48);
        assert_eq!(k.syncs_per_block, 2);
        assert!((k.total_flops() - 1e7).abs() < 1.0);
        assert!((k.total_traffic_bytes() - 1.2e7).abs() < 1.0);
        assert_eq!(k.total_threads(), 640);
    }

    #[test]
    fn batch_scaling_grows_grid_and_traffic_only() {
        let k = KernelLaunch::new("k", 10, 64)
            .with_flops_per_block(1e6)
            .with_global_traffic(1e7, 2e6);
        let b = k.scaled_batch(4);
        assert_eq!(b.grid_blocks, 40);
        assert_eq!(b.threads_per_block, 64);
        assert!((b.flops_per_block - 1e6).abs() < 1.0);
        assert!((b.total_traffic_bytes() - 4.0 * 1.2e7).abs() < 1.0);
        // Degenerate batch sizes are clamped to one sample.
        assert_eq!(k.scaled_batch(0).grid_blocks, 10);
    }

    #[test]
    fn divergence_is_clamped() {
        let k = KernelLaunch::new("k", 1, 32).with_divergence(7.0);
        assert!(k.divergence_waste < 1.0);
        let k = KernelLaunch::new("k", 1, 32).with_divergence(-1.0);
        assert_eq!(k.divergence_waste, 0.0);
    }

    #[test]
    fn arithmetic_intensity() {
        let k = KernelLaunch::new("k", 2, 32)
            .with_flops_per_block(100.0)
            .with_global_traffic(40.0, 10.0);
        assert!((k.arithmetic_intensity() - 4.0).abs() < 1e-12);
        let no_traffic = KernelLaunch::new("k", 2, 32).with_flops_per_block(100.0);
        assert!(no_traffic.arithmetic_intensity().is_infinite());
    }

    #[test]
    fn validate_against_device_limits() {
        let dev = DeviceSpec::rtx2080ti();
        assert!(KernelLaunch::new("ok", 100, 256).validate(&dev).is_ok());
        assert!(KernelLaunch::new("zero blocks", 0, 256)
            .validate(&dev)
            .is_err());
        assert!(KernelLaunch::new("zero threads", 10, 0)
            .validate(&dev)
            .is_err());
        assert!(KernelLaunch::new("too many threads", 10, 2048)
            .validate(&dev)
            .is_err());
        assert!(KernelLaunch::new("too much smem", 10, 256)
            .with_shared_mem(1 << 20)
            .validate(&dev)
            .is_err());
        assert!(KernelLaunch::new("too many regs", 10, 1024)
            .with_regs(255)
            .validate(&dev)
            .is_err());
    }

    #[test]
    fn warps_round_up() {
        let dev = DeviceSpec::a100();
        assert_eq!(KernelLaunch::new("k", 1, 32).warps_per_block(&dev), 1);
        assert_eq!(KernelLaunch::new("k", 1, 33).warps_per_block(&dev), 2);
        assert_eq!(KernelLaunch::new("k", 1, 96).warps_per_block(&dev), 3);
    }
}
