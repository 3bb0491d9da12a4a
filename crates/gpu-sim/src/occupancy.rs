//! Occupancy calculation.
//!
//! The paper's Eq. (14) scales the device's resident-thread capacity by an
//! occupancy factor that "can be estimated by the hardware metrics such as
//! shared memory size, register file size along with the given tiling sizes".
//! This module implements exactly that estimate: the number of blocks an SM
//! can hold simultaneously is the minimum over the thread limit, the shared
//! memory limit, the register-file limit and the hardware block-slot limit;
//! occupancy is the resulting resident-thread fraction.

use crate::device::DeviceSpec;
use crate::kernel::{BlockLimit, BlockResources, KernelLaunch};
use crate::Result;
use serde::{Deserialize, Serialize};

/// The resource that ends up limiting how many blocks fit on one SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LimitingResource {
    /// Resident-thread limit per SM.
    Threads,
    /// Shared-memory capacity per SM.
    SharedMemory,
    /// Register-file capacity per SM.
    Registers,
    /// Hardware cap on resident blocks per SM.
    BlockSlots,
}

/// Result of an occupancy query for one kernel on one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OccupancyResult {
    /// Blocks that can be resident on a single SM at once.
    pub blocks_per_sm: usize,
    /// Resident threads per SM implied by `blocks_per_sm`.
    pub active_threads_per_sm: usize,
    /// `active_threads_per_sm / max_threads_per_sm`, in (0, 1].
    pub occupancy: f64,
    /// Which resource was the binding constraint.
    pub limited_by: LimitingResource,
    /// Blocks the whole device can execute concurrently (one "wave").
    pub blocks_per_wave: usize,
}

/// Compute the achievable occupancy of `kernel` on `device`.
///
/// Returns an error if the kernel cannot be launched at all (a single block
/// exceeds a per-block hardware limit).
pub fn occupancy(device: &DeviceSpec, kernel: &KernelLaunch) -> Result<OccupancyResult> {
    kernel.validate(device)?;
    Ok(block_occupancy(device, &kernel.block_resources())
        .expect("a validated launch is within every per-block limit"))
}

/// Occupancy of blocks asking `block` of each SM, or the per-block limit they
/// break. The grid size plays no part, and nothing is allocated: the tiling
/// search scores every candidate through this one function.
#[inline]
pub fn block_occupancy(
    device: &DeviceSpec,
    block: &BlockResources,
) -> std::result::Result<OccupancyResult, BlockLimit> {
    block.check(device)?;

    // Limit 1: resident threads.
    let by_threads = device.max_threads_per_sm / block.threads;

    // Limit 2: shared memory. A kernel using no shared memory is unconstrained.
    let by_smem = device
        .shared_mem_per_sm
        .checked_div(block.shared_mem)
        .unwrap_or(usize::MAX);

    // Limit 3: registers.
    let by_regs = device
        .registers_per_sm
        .checked_div(block.regs_per_block())
        .unwrap_or(usize::MAX);

    // Limit 4: hardware block slots.
    let by_slots = device.max_blocks_per_sm;

    let blocks_per_sm = by_threads.min(by_smem).min(by_regs).min(by_slots).max(1);

    // Record the binding constraint (ties resolved in the order the hardware
    // documentation lists them: threads, shared memory, registers, slots).
    let limited_by = if blocks_per_sm == by_threads {
        LimitingResource::Threads
    } else if blocks_per_sm == by_smem {
        LimitingResource::SharedMemory
    } else if blocks_per_sm == by_regs {
        LimitingResource::Registers
    } else {
        LimitingResource::BlockSlots
    };

    let active_threads_per_sm = (blocks_per_sm * block.threads).min(device.max_threads_per_sm);
    let occupancy = active_threads_per_sm as f64 / device.max_threads_per_sm as f64;
    let blocks_per_wave = blocks_per_sm * device.sm_count;

    Ok(OccupancyResult {
        blocks_per_sm,
        active_threads_per_sm,
        occupancy,
        limited_by,
        blocks_per_wave,
    })
}

/// Number of waves needed to run the whole grid: ⌈grid_blocks / blocks_per_wave⌉.
/// This is the `comp_waves` quantity of Eq. (14).
pub fn waves(device: &DeviceSpec, kernel: &KernelLaunch) -> Result<usize> {
    let occ = occupancy(device, kernel)?;
    Ok(kernel.grid_blocks.div_ceil(occ.blocks_per_wave))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_blocks_hit_the_slot_or_thread_limit() {
        let dev = DeviceSpec::a100();
        // 64-thread blocks, no smem: thread limit allows 32, slot limit is 32.
        let k = KernelLaunch::new("k", 1000, 64).with_regs(16);
        let occ = occupancy(&dev, &k).unwrap();
        assert_eq!(occ.blocks_per_sm, 32);
        assert_eq!(occ.active_threads_per_sm, 2048);
        assert!((occ.occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_memory_limits_occupancy() {
        let dev = DeviceSpec::rtx2080ti(); // 64 KB per SM
        let k = KernelLaunch::new("k", 1000, 128)
            .with_shared_mem(40 * 1024)
            .with_regs(16);
        let occ = occupancy(&dev, &k).unwrap();
        // Only one 40 KB block fits in 64 KB.
        assert_eq!(occ.blocks_per_sm, 1);
        assert_eq!(occ.limited_by, LimitingResource::SharedMemory);
        assert!(occ.occupancy < 0.2);
    }

    #[test]
    fn registers_limit_occupancy() {
        let dev = DeviceSpec::a100();
        // 1024 threads * 64 regs = 65536 regs: exactly one block per SM.
        let k = KernelLaunch::new("k", 10, 1024).with_regs(64);
        let occ = occupancy(&dev, &k).unwrap();
        assert_eq!(occ.blocks_per_sm, 1);
        // Thread limit would also allow 2 blocks, so registers are binding.
        assert_eq!(occ.limited_by, LimitingResource::Registers);
    }

    #[test]
    fn thread_limit_binds_for_large_blocks() {
        let dev = DeviceSpec::a100();
        let k = KernelLaunch::new("k", 10, 1024).with_regs(16);
        let occ = occupancy(&dev, &k).unwrap();
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limited_by, LimitingResource::Threads);
        assert!((occ.occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn waves_follow_eq14() {
        let dev = DeviceSpec::a100();
        let k = KernelLaunch::new("k", 1, 256).with_regs(16);
        assert_eq!(waves(&dev, &k).unwrap(), 1);

        // blocks_per_sm = min(2048/256=8, slots=32) = 8 -> 864 blocks per wave.
        let occ = occupancy(&dev, &KernelLaunch::new("k", 1, 256).with_regs(16)).unwrap();
        assert_eq!(occ.blocks_per_wave, 8 * 108);

        let k = KernelLaunch::new("k", 8 * 108, 256).with_regs(16);
        assert_eq!(waves(&dev, &k).unwrap(), 1);
        let k = KernelLaunch::new("k", 8 * 108 + 1, 256).with_regs(16);
        assert_eq!(waves(&dev, &k).unwrap(), 2);
        let k = KernelLaunch::new("k", 3 * 8 * 108, 256).with_regs(16);
        assert_eq!(waves(&dev, &k).unwrap(), 3);
    }

    #[test]
    fn occupancy_always_at_least_one_block() {
        // A block that uses almost all shared memory still runs (one at a time).
        let dev = DeviceSpec::rtx2080ti();
        let k = KernelLaunch::new("k", 5, 1024)
            .with_shared_mem(48 * 1024)
            .with_regs(32);
        let occ = occupancy(&dev, &k).unwrap();
        assert_eq!(occ.blocks_per_sm, 1);
    }

    #[test]
    fn block_occupancy_is_the_launch_occupancy_and_names_the_broken_limit() {
        let dev = DeviceSpec::rtx2080ti();
        for k in [
            KernelLaunch::new("k", 100, 128).with_shared_mem(8 * 1024),
            KernelLaunch::new("k", 7, 1024).with_regs(64),
            KernelLaunch::new("k", 1, 33).with_shared_mem(40 * 1024),
        ] {
            assert_eq!(
                block_occupancy(&dev, &k.block_resources()),
                Ok(occupancy(&dev, &k).unwrap())
            );
        }
        for (k, limit) in [
            (KernelLaunch::new("k", 1, 0), BlockLimit::NoThreads),
            (KernelLaunch::new("k", 1, 2048), BlockLimit::Threads),
            (
                KernelLaunch::new("k", 1, 64).with_shared_mem(1 << 20),
                BlockLimit::SharedMemory,
            ),
            (
                KernelLaunch::new("k", 1, 1024).with_regs(255),
                BlockLimit::Registers,
            ),
        ] {
            assert_eq!(block_occupancy(&dev, &k.block_resources()), Err(limit));
            assert!(occupancy(&dev, &k).is_err());
        }
    }

    #[test]
    fn invalid_launch_is_rejected() {
        let dev = DeviceSpec::a100();
        let k = KernelLaunch::new("k", 0, 256);
        assert!(occupancy(&dev, &k).is_err());
    }

    #[test]
    fn smaller_tiles_raise_occupancy() {
        // The co-design story: shrinking the shared-memory tile raises occupancy.
        let dev = DeviceSpec::rtx2080ti();
        let big = KernelLaunch::new("big", 100, 128)
            .with_shared_mem(32 * 1024)
            .with_regs(16);
        let small = KernelLaunch::new("small", 100, 128)
            .with_shared_mem(8 * 1024)
            .with_regs(16);
        let occ_big = occupancy(&dev, &big).unwrap();
        let occ_small = occupancy(&dev, &small).unwrap();
        assert!(occ_small.occupancy > occ_big.occupancy);
    }
}
