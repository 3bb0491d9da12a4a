//! The compression-plan cache.
//!
//! Planning is the expensive, offline half of serving: rank selection walks
//! every decomposable layer's latency table and tiling space. A serving
//! fleet re-plans the same `(model, device, budget)` triple on every engine
//! start, so plans are memoized here behind that key:
//!
//! * **in-memory LRU** — plans are shared as `Arc`s; the least recently used
//!   entry is evicted once `capacity` distinct keys are resident;
//! * **optional JSON spill** — with a spill directory configured, misses
//!   check the directory before recomputing (a "disk hit") and every freshly
//!   computed plan is written through, so a restarted process skips planning
//!   even with a cold in-memory cache. The spill format is the
//!   [`CompressionPlan::to_json`] form (generated kernels excluded; they are
//!   rebuilt from the decisions on demand).

use crate::{Result, ServeError};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tdc::rank_select::RankSelectionConfig;
use tdc::tiling::TilingStrategy;
use tdc::CompressionPlan;

/// The identity of a cached plan: the model, the device, and **every**
/// rank-selection input that can change the plan. Omitting any of these would let an engine started under
/// a different configuration silently serve a stale plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Model name (descriptor `name`).
    pub model: String,
    /// Device name (`DeviceSpec::name`).
    pub device: String,
    /// FLOPs-reduction budget in micro-units (`round(budget · 1e6)`), so the
    /// key is hashable and immune to float-formatting noise.
    pub budget_micro: u64,
    /// Tiling strategy the plan was selected under.
    pub strategy: TilingStrategy,
    /// θ skip threshold in micro-units.
    pub theta_micro: u64,
    /// Rank-candidate step.
    pub rank_step: usize,
}

impl PlanKey {
    /// Build a key from the planning inputs.
    pub fn new(
        model: impl Into<String>,
        device: impl Into<String>,
        cfg: &RankSelectionConfig,
    ) -> Self {
        PlanKey {
            model: model.into(),
            device: device.into(),
            budget_micro: (cfg.budget * 1e6).round() as u64,
            strategy: cfg.strategy,
            theta_micro: (cfg.theta * 1e6).round() as u64,
            rank_step: cfg.rank_step,
        }
    }

    /// The budget as the fraction the planner consumes.
    pub fn budget(&self) -> f64 {
        self.budget_micro as f64 / 1e6
    }

    /// A stable file stem for the spill file of this key.
    fn spill_stem(&self) -> String {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.model.as_bytes());
        eat(self.device.as_bytes());
        eat(self.strategy.label().as_bytes());
        eat(&self.budget_micro.to_le_bytes());
        eat(&self.theta_micro.to_le_bytes());
        eat(&(self.rank_step as u64).to_le_bytes());
        format!("plan-{hash:016x}")
    }
}

impl std::fmt::Display for PlanKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} @ {} (budget {:.2}, {}, theta {:.2}, step {})",
            self.model,
            self.device,
            self.budget(),
            self.strategy.label(),
            self.theta_micro as f64 / 1e6,
            self.rank_step
        )
    }
}

/// Where a served plan came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Found in the in-memory LRU.
    MemoryHit,
    /// Loaded from the JSON spill directory.
    DiskHit,
    /// Computed fresh.
    Miss,
}

/// One key's telemetry row: the key's display form and how many in-memory
/// hits it has absorbed. Appears twice in [`PlanCacheStats`]: once per
/// resident key, and once per evicted key (frozen at eviction time).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PlanKeyHits {
    /// The plan key, rendered via its `Display` form.
    pub key: String,
    /// In-memory hits this key absorbed (at snapshot or at eviction).
    pub hits: u64,
}

/// Counters and per-key telemetry describing cache behaviour.
///
/// Beyond the monotonic totals, the snapshot carries *which* keys are hot:
/// `per_key` lists every resident plan with its in-memory hit count, and
/// `evicted` logs the keys the LRU pushed out together with the hits they had
/// absorbed. An operator reading `GET /metrics` can tell the two failure
/// modes of a many-model fleet apart: hot keys being evicted (`evicted`
/// entries with high hit counts → the LRU capacity is the binding
/// constraint) versus cold recomputation after restarts (`misses` with an
/// empty eviction log → the spill directory is what needs attention).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PlanCacheStats {
    /// In-memory hits.
    pub memory_hits: u64,
    /// Spill-directory hits.
    pub disk_hits: u64,
    /// Full recomputations.
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Every resident key with its in-memory hit count, hottest first.
    pub per_key: Vec<PlanKeyHits>,
    /// The most recent evictions (key + hits at eviction), oldest first,
    /// bounded at [`EVICTION_LOG_CAPACITY`] entries.
    pub evicted: Vec<PlanKeyHits>,
}

/// Most evicted-key rows retained in [`PlanCacheStats::evicted`]; older
/// entries roll off so an eviction-thrashing fleet cannot grow the metrics
/// payload without bound.
pub const EVICTION_LOG_CAPACITY: usize = 64;

impl PlanCacheStats {
    /// Hits of either kind.
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }
}

struct LruEntry {
    plan: Arc<CompressionPlan>,
    last_used: u64,
    /// In-memory hits this entry has absorbed since insertion.
    hits: u64,
}

struct LruState {
    entries: HashMap<PlanKey, LruEntry>,
    tick: u64,
    /// Rolling log of `(key, hits at eviction)`, oldest first, bounded at
    /// [`EVICTION_LOG_CAPACITY`].
    evicted: Vec<PlanKeyHits>,
}

/// A thread-safe LRU of compression plans with optional disk spill.
pub struct PlanCache {
    state: Mutex<LruState>,
    capacity: usize,
    spill_dir: Option<PathBuf>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// An in-memory cache holding up to `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            state: Mutex::new(LruState {
                entries: HashMap::new(),
                tick: 0,
                evicted: Vec::new(),
            }),
            capacity: capacity.max(1),
            spill_dir: None,
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Add a JSON spill directory (created if missing).
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| ServeError::Spill {
            reason: format!("cannot create spill directory {}: {e}", dir.display()),
        })?;
        self.spill_dir = Some(dir);
        Ok(self)
    }

    fn state(&self) -> MutexGuard<'_, LruState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Resident plan count.
    pub fn len(&self) -> usize {
        self.state().entries.len()
    }

    /// Whether the in-memory cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter and per-key telemetry snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        let (per_key, evicted) = {
            let state = self.state();
            let mut per_key: Vec<PlanKeyHits> = state
                .entries
                .iter()
                .map(|(key, entry)| PlanKeyHits {
                    key: key.to_string(),
                    hits: entry.hits,
                })
                .collect();
            // Hottest first; ties broken by key so the snapshot is stable.
            per_key.sort_by(|a, b| b.hits.cmp(&a.hits).then_with(|| a.key.cmp(&b.key)));
            (per_key, state.evicted.clone())
        };
        PlanCacheStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            per_key,
            evicted,
        }
    }

    /// Drop every in-memory entry (spill files are kept).
    pub fn clear_memory(&self) {
        self.state().entries.clear();
    }

    fn spill_path(&self, key: &PlanKey) -> Option<PathBuf> {
        self.spill_dir
            .as_ref()
            .map(|d| d.join(format!("{}.json", key.spill_stem())))
    }

    fn load_spill(&self, key: &PlanKey) -> Option<CompressionPlan> {
        let path = self.spill_path(key)?;
        let text = std::fs::read_to_string(&path).ok()?;
        match CompressionPlan::from_json(&text) {
            Ok(plan) if plan.model == key.model && plan.device == key.device => Some(plan),
            // Corrupt or mismatched spill: ignore it and recompute.
            _ => None,
        }
    }

    fn write_spill(&self, key: &PlanKey, plan: &CompressionPlan) -> Result<()> {
        let Some(path) = self.spill_path(key) else {
            return Ok(());
        };
        std::fs::write(&path, plan.to_json()).map_err(|e| ServeError::Spill {
            reason: format!("cannot write {}: {e}", path.display()),
        })
    }

    fn insert(&self, key: PlanKey, plan: Arc<CompressionPlan>) {
        let mut state = self.state();
        state.tick += 1;
        let tick = state.tick;
        if state.entries.len() >= self.capacity && !state.entries.contains_key(&key) {
            if let Some(oldest) = state
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                if let Some(entry) = state.entries.remove(&oldest) {
                    // Log what was lost and how hot it was, so an operator
                    // can tell capacity pressure from cold-start misses.
                    if state.evicted.len() >= EVICTION_LOG_CAPACITY {
                        state.evicted.remove(0);
                    }
                    state.evicted.push(PlanKeyHits {
                        key: oldest.to_string(),
                        hits: entry.hits,
                    });
                }
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        state.entries.insert(
            key,
            LruEntry {
                plan,
                last_used: tick,
                hits: 0,
            },
        );
    }

    /// Look up `key`, consulting memory then the spill directory, and
    /// compute the plan with `compute` on a full miss. Freshly computed plans
    /// are written through to the spill directory; a spill-write failure
    /// (full disk, revoked permissions) degrades the cache to memory-only
    /// for that plan rather than failing the lookup — the plan itself is
    /// valid and serving must not depend on spill-disk health.
    pub fn get_or_compute<F>(
        &self,
        key: &PlanKey,
        compute: F,
    ) -> Result<(Arc<CompressionPlan>, CacheOutcome)>
    where
        F: FnOnce() -> Result<CompressionPlan>,
    {
        {
            let mut state = self.state();
            state.tick += 1;
            let tick = state.tick;
            if let Some(entry) = state.entries.get_mut(key) {
                entry.last_used = tick;
                entry.hits += 1;
                self.memory_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(&entry.plan), CacheOutcome::MemoryHit));
            }
        }
        if let Some(plan) = self.load_spill(key) {
            let plan = Arc::new(plan);
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.insert(key.clone(), Arc::clone(&plan));
            return Ok((plan, CacheOutcome::DiskHit));
        }
        let plan = Arc::new(compute()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.write_spill(key, &plan) {
            eprintln!("tdc-serve: {e}; continuing with memory-only caching for {key}");
        }
        self.insert(key.clone(), Arc::clone(&plan));
        Ok((plan, CacheOutcome::Miss))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving_descriptor;
    use tdc::rank_select::RankSelectionConfig;
    use tdc::tiling::TilingStrategy;
    use tdc::TdcPipeline;
    use tdc_gpu_sim::DeviceSpec;

    fn selection(budget: f64) -> RankSelectionConfig {
        RankSelectionConfig {
            budget,
            theta: 0.0,
            strategy: TilingStrategy::Model,
            rank_step: 4,
        }
    }

    fn compute_plan(budget: f64) -> Result<CompressionPlan> {
        let descriptor = serving_descriptor("cache-test", 10, 4, 6);
        let pipeline = TdcPipeline::new(DeviceSpec::a100(), TilingStrategy::Model);
        pipeline
            .plan_with_config(&descriptor, &selection(budget))
            .map_err(Into::into)
    }

    #[test]
    fn memory_hit_after_miss() {
        let cache = PlanCache::new(4);
        let key = PlanKey::new("cache-test", "NVIDIA A100 80GB", &selection(0.5));
        let (first, outcome) = cache.get_or_compute(&key, || compute_plan(0.5)).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let (second, outcome) = cache
            .get_or_compute(&key, || panic!("must not recompute on a hit"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::MemoryHit);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!(
            (stats.memory_hits, stats.disk_hits, stats.misses),
            (1, 0, 1)
        );
    }

    #[test]
    fn distinct_budgets_are_distinct_keys() {
        let cache = PlanCache::new(4);
        let a = PlanKey::new("cache-test", "dev", &selection(0.5));
        let b = PlanKey::new("cache-test", "dev", &selection(0.4));
        assert_ne!(a, b);
        cache.get_or_compute(&a, || compute_plan(0.5)).unwrap();
        let (_, outcome) = cache.get_or_compute(&b, || compute_plan(0.4)).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let cache = PlanCache::new(2);
        let k1 = PlanKey::new("m", "d", &selection(0.3));
        let k2 = PlanKey::new("m", "d", &selection(0.4));
        let k3 = PlanKey::new("m", "d", &selection(0.5));
        cache.get_or_compute(&k1, || compute_plan(0.3)).unwrap();
        cache.get_or_compute(&k2, || compute_plan(0.4)).unwrap();
        // Touch k1 so k2 becomes the eviction candidate.
        cache
            .get_or_compute(&k1, || panic!("hit expected"))
            .unwrap();
        cache.get_or_compute(&k3, || compute_plan(0.5)).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // k2 must recompute, k1 must still hit.
        let (_, outcome) = cache
            .get_or_compute(&k1, || panic!("hit expected"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::MemoryHit);
        let (_, outcome) = cache.get_or_compute(&k2, || compute_plan(0.4)).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
    }

    #[test]
    fn per_key_hit_counts_and_eviction_log_name_what_was_lost() {
        let cache = PlanCache::new(2);
        let hot = PlanKey::new("m", "d", &selection(0.3));
        let cold = PlanKey::new("m", "d", &selection(0.4));
        let newcomer = PlanKey::new("m", "d", &selection(0.5));
        cache.get_or_compute(&cold, || compute_plan(0.4)).unwrap();
        cache.get_or_compute(&hot, || compute_plan(0.3)).unwrap();
        for _ in 0..3 {
            cache
                .get_or_compute(&hot, || panic!("hit expected"))
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.per_key.len(), 2);
        assert_eq!(stats.per_key[0].key, hot.to_string(), "hottest key first");
        assert_eq!(stats.per_key[0].hits, 3);
        assert_eq!(stats.per_key[1].hits, 0);
        assert!(stats.evicted.is_empty());

        // A third key evicts "cold" (LRU) and the log records it with the
        // hits it had absorbed.
        cache
            .get_or_compute(&newcomer, || compute_plan(0.5))
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.evicted.len(), 1);
        assert_eq!(stats.evicted[0].key, cold.to_string());
        assert_eq!(stats.evicted[0].hits, 0);
        assert_eq!(stats.per_key.len(), 2);
        assert!(stats.per_key.iter().all(|k| k.key != cold.to_string()));

        // The snapshot serializes (what GET /metrics embeds).
        let json = serde_json::to_string(&stats).unwrap();
        assert!(
            json.contains("\"per_key\"") && json.contains("\"evicted\""),
            "{json}"
        );
        assert_eq!(
            serde_json::from_str::<PlanCacheStats>(&json).unwrap(),
            stats
        );
    }

    #[test]
    fn disk_spill_survives_a_cold_memory_cache() {
        let dir = std::env::temp_dir().join(format!("tdc-serve-spill-{}", std::process::id()));
        let cache = PlanCache::new(4).with_spill_dir(&dir).unwrap();
        let key = PlanKey::new("cache-test", "NVIDIA A100 80GB", &selection(0.5));
        let (original, outcome) = cache.get_or_compute(&key, || compute_plan(0.5)).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);

        // Simulate a restart: memory gone, spill directory intact.
        cache.clear_memory();
        let (reloaded, outcome) = cache
            .get_or_compute(&key, || panic!("must load from disk, not recompute"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::DiskHit);
        assert_eq!(reloaded.decisions, original.decisions);
        assert_eq!(reloaded.fingerprint(), original.fingerprint());
        // Kernels are not spilled.
        assert!(reloaded.kernels.is_empty());
        assert_eq!(cache.stats().disk_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
