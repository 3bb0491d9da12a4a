//! What every workload has in common: the shape of one measured window, the
//! interface the runner drives, and the end-to-end metrics taken from a
//! window.

use crate::spans::Spans;
use crate::stats;
use std::time::Instant;
use tdc_serve::{PoolStats, RegistryMetrics};

/// Errors are reported to the terminal and end the run; a message is enough.
pub type Fallible<T> = Result<T, String>;

/// Per-layer values by metric name, in the order they were measured.
pub type Layer = Vec<(&'static str, f64)>;

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of every verified op that completed in the window, ms.
    pub latencies_ms: Vec<f64>,
    /// Ops issued in the window.
    pub attempted: u64,
    /// Ops that errored, were refused or returned a wrong output.
    pub failed: u64,
    /// Wall time of the window, s.
    pub wall_s: f64,
    /// CPU the program spent on the window (process total minus the load
    /// generators' own), ms.
    pub cpu_ms: f64,
    /// Per-layer values observed in this window.
    pub layer: Layer,
    /// A broken invariant (unbalanced books, a dead server), if any.
    pub fault: Option<String>,
}

impl Window {
    /// Program CPU per verified op, ms.
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_ms / self.latencies_ms.len().max(1) as f64
    }
}

/// The six end-to-end metrics of one run, in contract order: the latency
/// metrics over `quiet`, CPU per op over `cheapest`.
pub fn end_to_end(
    quiet: &Window,
    cheapest: &Window,
    rss_peak_mib: f64,
    setup_s: f64,
) -> Vec<(&'static str, f64)> {
    let sorted = stats::sorted(quiet.latencies_ms.clone());
    vec![
        ("ops_per_s", sorted.len() as f64 / quiet.wall_s),
        ("p50_ms", stats::percentile(&sorted, 50.0)),
        ("p95_ms", stats::percentile(&sorted, 95.0)),
        ("cpu_ms_per_op", cheapest.cpu_ms_per_op()),
        ("rss_peak_mib", rss_peak_mib),
        ("setup_s", setup_s),
    ]
}

/// Identity of what a run fed the program and what came back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprints {
    /// FNV-1a over the generated input pools.
    pub inputs: u64,
    /// FNV-1a over the arrival schedule (0 for closed loops, which have none).
    pub schedule: u64,
    /// FNV-1a over the reference outputs every op was compared against.
    pub outputs: u64,
}

/// One workload, from cold process to torn down.
pub trait Bench: Sized {
    /// Everything between "inputs generated" and "first measured op
    /// issued": plan, decompose, materialise, bring the serving stack up,
    /// connect, compute reference outputs, and run the workload's fixed,
    /// verified warm-up. Notes what it measured on the way into `notes`.
    fn set_up(seed: u64, notes: &mut Layer) -> Fallible<Self>;

    /// Measure for `seconds`; with `spans`, record one span tree per op.
    fn window(&mut self, seconds: f64, spans: Option<&mut Spans>) -> Fallible<Window>;

    /// Measure `seconds` and return them as `slices` consecutive windows.
    /// By default that is `slices` windows run back to back; a workload
    /// whose clients must not be stopped and restarted in between cuts one
    /// continuous window up afterwards instead.
    fn measure(&mut self, seconds: f64, slices: usize) -> Fallible<Vec<Window>> {
        (0..slices)
            .map(|_| self.window(seconds / slices as f64, None))
            .collect()
    }

    /// How much the machine disturbed a slice — what the runner ranks slices
    /// by to find the quiet ones; smaller is quieter. Program CPU per
    /// verified op unless a workload knows better: it rises with a busy
    /// neighbour, and it keeps the program's own latency distribution (the
    /// router's 48 / 92 ms modes) out of the choice.
    fn disturbance(slice: &Window) -> f64 {
        slice.cpu_ms_per_op()
    }

    /// Traced pass only: layer measurements taken outside the window.
    fn probe_layers(&mut self, _layer: &mut Layer) -> Fallible<()> {
        Ok(())
    }

    /// What this run fed the program and compared its outputs against.
    fn fingerprints(&self) -> Fingerprints;

    /// Stop every thread and server the set-up started.
    fn tear_down(self) {}
}

/// Milliseconds between two instants.
pub fn ms_between(start: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(start).as_secs_f64() * 1e3
}

/// The scratch-arena counters of every model of a registry, summed.
pub fn pool_totals<'a>(registries: impl IntoIterator<Item = &'a RegistryMetrics>) -> PoolStats {
    let mut total = PoolStats::default();
    for m in registries.into_iter().flat_map(|r| &r.models) {
        total.allocated_buffers += m.pool.allocated_buffers;
        total.takes += m.pool.takes;
        total.hits += m.pool.hits;
        total.high_water_f32 += m.pool.high_water_f32;
    }
    total
}

/// Arena counters over a window, from two `PoolStats` snapshots.
pub fn arena_layer(before: &PoolStats, after: &PoolStats, ops: usize, layer: &mut Layer) {
    let takes = (after.takes - before.takes) as f64;
    let hits = (after.hits - before.hits) as f64;
    let fresh = (after.allocated_buffers - before.allocated_buffers) as f64;
    layer.push((
        "arena.hit_rate",
        if takes > 0.0 { hits / takes } else { 0.0 },
    ));
    layer.push(("arena.fresh_allocs_per_op", fresh / ops.max(1) as f64));
    layer.push((
        "arena.high_water_mib",
        after.high_water_f32 as f64 * 4.0 / (1024.0 * 1024.0),
    ));
}
