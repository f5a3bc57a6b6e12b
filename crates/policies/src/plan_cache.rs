//! Shared, sharded caches for the DP planners.
//!
//! A study batch runs the same `(distribution, job spec)` cell over dozens
//! of traces and several policies; before this module every
//! [`DpNextFailure`](crate::DpNextFailure) instance owned a private plan
//! memo, so each trace re-solved the identical `O(x_max²)` DP from
//! scratch. [`DpCaches`] lifts two memo layers into process-shared state:
//!
//! * **plans** — the chunk schedule for one quantised planning state,
//!   keyed by [`PlanKey`] (distribution identity, exact quantum and
//!   checkpoint bits, work truncation, and the geometric age buckets).
//!   A plan is a pure function of its key, so any instance on any thread
//!   may reuse any cached plan.
//! * **kernel rows** — per-age-bucket log-survival rows on the DP's
//!   `(a, m)` triangle, keyed by [`KernelRowKey`]. Rows are exact `ln S`
//!   samples (no interpolation), so sharing and eviction can never change
//!   a solve's result; they turn the grid fill from
//!   `O(cells × near ages)` `powf` calls into one cached row per bucket
//!   plus contiguous multiply-adds.
//!
//! Distribution identity comes from
//! [`FailureDistribution::fingerprint`](ckpt_dist::FailureDistribution::fingerprint):
//! value-identical distributions share cache entries across instances,
//! while unfingerprintable families fall back to a per-instance id —
//! still cached, never shared, never wrong.
//!
//! Each planning state fills at most one layer, chosen by its shape (see
//! [`DpNextFailure::plan`](crate::DpNextFailure::plan)). A **one-age**
//! state (at most one age bucket) memoises its plan and builds its row
//! inline; its plan key fixes its only row key, so a cached row could
//! never be read. Every sequential cell's states are one-age, and so is
//! every state of a law that
//! [is memoryless](ckpt_dist::FailureDistribution::is_memoryless), by
//! construction: its key is the platform size alone, `p` processors in
//! bucket 0, whatever the ages. A **multi-age** state (every state of the
//! other parallel cells, whose platforms start with failed units)
//! memoises no plan: whole multi-age states practically never recur,
//! while their buckets do, so it reads and fills kernel rows. Every state
//! still looks its plan up, so the plan layer's miss count is the DP
//! solve count.
//!
//! Both caches use FIFO eviction with per-shard caps (replacing the old
//! silent `len() < 100_000` insert drop) and export hit/miss/eviction
//! counters that the experiment pipeline surfaces in its perf summary.
//! A study drops a distribution's entries ([`DpCaches::release`]) once
//! none of its cells with a pending item plans on that distribution.

use ckpt_dist::FailureDistribution;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Identity of a distribution for cache keying.
///
/// `Shared` ids come from [`FailureDistribution::fingerprint`] and are
/// equal exactly when `log_survival` is guaranteed bit-identical, so
/// entries may be shared across policy instances (and across the whole
/// process). `Instance` ids are unique per policy instance — correct for
/// any distribution, shared with none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistId {
    /// Value fingerprint: safe to share across instances.
    Shared(u64),
    /// Per-instance fallback for unfingerprintable distributions.
    Instance(u64),
}

impl DistId {
    /// Identity for `dist`: fingerprint when available, else a fresh
    /// process-unique instance id.
    pub fn of(dist: &dyn FailureDistribution) -> Self {
        static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(0);
        match dist.fingerprint() {
            Some(fp) => DistId::Shared(fp),
            None => DistId::Instance(NEXT_INSTANCE.fetch_add(1, Relaxed)),
        }
    }
}

/// Cache key of one memoised DP plan (see
/// [`DpNextFailure::plan`](crate::DpNextFailure::plan)).
///
/// The quantum and checkpoint enter by exact bit pattern: two states
/// produce the same key only when the solve they would trigger is the
/// same pure computation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Distribution identity.
    pub dist: DistId,
    /// Exact bits of the quantum `u = w_trunc / x_max`.
    pub u_bits: u64,
    /// Exact bits of the checkpoint cost.
    pub checkpoint_bits: u64,
    /// Quantum count of the DP.
    pub x_max: u32,
    /// Whether the planning window truncated the remaining work (a
    /// truncated plan keeps only its first half, so it must split the
    /// key).
    pub truncated: bool,
    /// Quantised age state: `(geometric bucket id, processor count)`.
    /// A memoryless law's state is one-age by construction: the whole
    /// platform in bucket 0, whose representative age is 0.
    pub buckets: Vec<(u64, u64)>,
}

/// Cache key of one log-survival kernel row: the exact values
/// `ln S(τ_bucket + a·u + m·C)` over the DP triangle for a single age
/// bucket. Everything that shapes the row is in the key, so a cached row
/// is bit-identical to a recomputed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelRowKey {
    /// Distribution identity.
    pub dist: DistId,
    /// Exact bits of the quantum.
    pub u_bits: u64,
    /// Exact bits of the checkpoint cost.
    pub checkpoint_bits: u64,
    /// Quantum count (fixes the triangle extent).
    pub x_max: u32,
    /// Geometric age bucket id.
    pub bucket: u64,
}

/// Counter snapshot of one [`ShardedCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries dropped by FIFO eviction.
    pub evictions: u64,
    /// Entries resident at snapshot time.
    pub entries: u64,
}

impl CacheStats {
    /// Counters accumulated since `earlier` (entries stays absolute — it
    /// is a level, not a flow).
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            entries: self.entries,
        }
    }
}

struct Shard<K, V> {
    map: HashMap<K, V>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<K>,
}

/// A concurrent map split into lock-sharded FIFO segments.
///
/// Lookups take one shard read lock; inserts take one shard write lock
/// and evict the shard's oldest entries beyond `cap_per_shard`. Values
/// are cheap clones (the callers store `Arc` slices). Hit/miss/eviction
/// counters are relaxed atomics — diagnostics, not synchronisation.
pub struct ShardedCache<K, V> {
    shards: Vec<RwLock<Shard<K, V>>>,
    hasher: RandomState,
    cap_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K, V> std::fmt::Debug for ShardedCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("cap_per_shard", &self.cap_per_shard)
            .field("hits", &self.hits.load(Relaxed))
            .field("misses", &self.misses.load(Relaxed))
            .field("evictions", &self.evictions.load(Relaxed))
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// `shards` lock-sharded segments of at most `cap_per_shard` entries.
    pub fn new(shards: usize, cap_per_shard: usize) -> Self {
        assert!(shards >= 1 && cap_per_shard >= 1);
        Self {
            shards: (0..shards)
                .map(|_| {
                    RwLock::new(Shard { map: HashMap::new(), order: VecDeque::new() })
                })
                .collect(),
            hasher: RandomState::new(),
            cap_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &K) -> &RwLock<Shard<K, V>> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h % self.shards.len()]
    }

    /// Clone of the cached value, counting the hit or miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = {
            let shard = self.shard_of(key).read().unwrap_or_else(PoisonError::into_inner);
            shard.map.get(key).cloned()
        };
        match found {
            Some(_) => self.hits.fetch_add(1, Relaxed),
            None => self.misses.fetch_add(1, Relaxed),
        };
        found
    }

    /// Insert, evicting the shard's oldest entries beyond its cap.
    pub fn insert(&self, key: K, value: V) {
        let shard_lock = self.shard_of(&key);
        let mut shard = shard_lock.write().unwrap_or_else(PoisonError::into_inner);
        if shard.map.insert(key.clone(), value).is_none() {
            shard.order.push_back(key);
            while shard.map.len() > self.cap_per_shard {
                match shard.order.pop_front() {
                    Some(oldest) => {
                        shard.map.remove(&oldest);
                        self.evictions.fetch_add(1, Relaxed);
                    }
                    None => break,
                }
            }
        }
    }

    /// Cached value, or `compute()` inserted under `key`. The computation
    /// runs outside any lock; racing threads may compute the same value
    /// twice, which is harmless because cached values are pure functions
    /// of their key.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let v = compute();
        self.insert(key, v.clone());
        v
    }

    /// Drop every resident entry whose key is `stale`; the counters
    /// keep counting.
    pub fn remove_where(&self, stale: impl Fn(&K) -> bool) {
        for shard in &self.shards {
            let mut guard = shard.write().unwrap_or_else(PoisonError::into_inner);
            let Shard { map, order } = &mut *guard;
            order.retain(|k| {
                let keep = !stale(k);
                if !keep {
                    map.remove(k);
                }
                keep
            });
        }
    }

    /// Total resident entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap_or_else(PoisonError::into_inner).map.len()).sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot (entries is measured now, not accumulated).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            entries: self.len() as u64,
        }
    }
}

/// Shards per cache: enough to keep 8–16 executor workers off each other's
/// locks without bloating the struct.
const CACHE_SHARDS: usize = 16;
/// Plans are short `Arc<[f64]>` schedules (tens of bytes): keep many.
const PLAN_SHARD_CAP: usize = 4096;
/// Kernel rows span the whole DP triangle (25,025 cells, ~200 kB at
/// `x_max = 256`): cap the resident set at ~1k rows. Only multi-age
/// states fill the layer (the Weibull and log-based parallel cells);
/// memoryless states are one-age and build their one row inline, so the
/// Exponential cells, whose 881 rows once held 73.8 MB of
/// `exa-exp-study`'s 91.9 MB peak, fill none.
const ROW_SHARD_CAP: usize = 64;

/// The two shared memo layers of the DP planners. Cheap to clone (both
/// layers are `Arc`ed); policies hold a clone, the pipeline snapshots
/// [`stats`](DpCaches::stats) around its stages.
#[derive(Debug, Clone)]
pub struct DpCaches {
    /// Memoised chunk schedules.
    pub plans: Arc<ShardedCache<PlanKey, Arc<[f64]>>>,
    /// Memoised log-survival triangle rows.
    pub kernel_rows: Arc<ShardedCache<KernelRowKey, Arc<[f64]>>>,
}

impl DpCaches {
    /// The process-wide shared caches — what production policies use.
    pub fn global() -> &'static DpCaches {
        static GLOBAL: OnceLock<DpCaches> = OnceLock::new();
        GLOBAL.get_or_init(DpCaches::private)
    }

    /// A fresh, unshared cache pair (tests and isolation studies).
    pub fn private() -> DpCaches {
        DpCaches {
            plans: Arc::new(ShardedCache::new(CACHE_SHARDS, PLAN_SHARD_CAP)),
            kernel_rows: Arc::new(ShardedCache::new(CACHE_SHARDS, ROW_SHARD_CAP)),
        }
    }

    /// Drop every memoised plan and kernel row of `dist` (frees a
    /// finished distribution's memos; a later solve recomputes the same
    /// values).
    pub fn release(&self, dist: DistId) {
        self.plans.remove_where(|k| k.dist == dist);
        self.kernel_rows.remove_where(|k| k.dist == dist);
    }

    /// Snapshot of both layers' counters.
    pub fn stats(&self) -> DpCacheStats {
        DpCacheStats { plans: self.plans.stats(), kernel_rows: self.kernel_rows.stats() }
    }
}

/// Paired counter snapshot of [`DpCaches`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpCacheStats {
    /// Plan-layer counters.
    pub plans: CacheStats,
    /// Kernel-row-layer counters.
    pub kernel_rows: CacheStats,
}

impl DpCacheStats {
    /// Counters accumulated since `earlier` (entry counts stay absolute).
    pub fn delta_since(&self, earlier: &DpCacheStats) -> DpCacheStats {
        DpCacheStats {
            plans: self.plans.delta_since(&earlier.plans),
            kernel_rows: self.kernel_rows.delta_since(&earlier.kernel_rows),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn get_counts_hits_and_misses() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(4, 8);
        assert_eq!(c.get(&1), None);
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&2), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 1));
    }

    #[test]
    fn fifo_eviction_is_bounded_and_counted() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(1, 4);
        for k in 0..10 {
            c.insert(k, k);
        }
        let s = c.stats();
        assert_eq!(s.entries, 4, "cap enforced");
        assert_eq!(s.evictions, 6, "evictions counted");
        // The newest entries survive.
        assert_eq!(c.get(&9), Some(9));
        assert_eq!(c.get(&0), None);
    }

    #[test]
    fn reinsert_replaces_without_duplicating_order() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(1, 2);
        c.insert(1, 10);
        c.insert(1, 11);
        c.insert(2, 20);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn remove_where_drops_matching_entries_and_keeps_fifo_order() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(1, 4);
        for k in 0..4 {
            c.insert(k, k);
        }
        c.remove_where(|k| k % 2 == 0);
        assert_eq!((c.len(), c.get(&0), c.get(&1)), (2, None, Some(1)));
        // The survivors keep their FIFO places: the third insert past
        // them evicts key 1, the oldest.
        for k in 4..7 {
            c.insert(k, k);
        }
        assert_eq!((c.get(&1), c.get(&3), c.stats().evictions), (None, Some(3), 1));
    }

    #[test]
    fn get_or_insert_with_computes_only_on_miss() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(2, 8);
        let mut calls = 0;
        let v = c.get_or_insert_with(7, || {
            calls += 1;
            70
        });
        assert_eq!((v, calls), (70, 1));
        let v = c.get_or_insert_with(7, || {
            calls += 1;
            71
        });
        assert_eq!((v, calls), (70, 1), "second call must hit");
    }

    #[test]
    fn stats_delta_subtracts_flows_keeps_levels() {
        let c: ShardedCache<u64, u64> = ShardedCache::new(2, 8);
        c.insert(1, 1);
        let before = c.stats();
        let _ = c.get(&1);
        let _ = c.get(&2);
        let d = c.stats().delta_since(&before);
        assert_eq!((d.hits, d.misses), (1, 1));
        assert_eq!(d.entries, 1, "entries is a level");
    }

    #[test]
    fn dist_ids_share_by_fingerprint_only() {
        use ckpt_dist::{Exponential, Mixture, Weibull};
        let a = Weibull::from_mtbf(0.7, 1000.0);
        let b = Weibull::from_mtbf(0.7, 1000.0);
        assert_eq!(DistId::of(&a), DistId::of(&b));
        // A Mixture has no fingerprint: every query mints a fresh id.
        let l = Mixture::new(vec![
            (0.5, Box::new(Exponential::from_mtbf(500.0)) as Box<dyn FailureDistribution>),
            (0.5, Box::new(Weibull::from_mtbf(0.7, 1500.0))),
        ]);
        assert_ne!(DistId::of(&l), DistId::of(&l));
        assert!(matches!(DistId::of(&l), DistId::Instance(_)));
    }

    #[test]
    fn dp_stats_delta_applies_to_each_layer() {
        let caches = DpCaches::private();
        caches.plans.insert(plan_key(1), Arc::from(vec![1.0]));
        let before = caches.stats();
        let _ = caches.plans.get(&plan_key(1));
        let _ = caches.plans.get(&plan_key(2));
        let _ = caches.kernel_rows.get(&row_key(3));
        caches.kernel_rows.insert(row_key(3), Arc::from(vec![0.0, -1.0]));
        let d = caches.stats().delta_since(&before);
        assert_eq!((d.plans.hits, d.plans.misses, d.plans.entries), (1, 1, 1));
        assert_eq!((d.kernel_rows.hits, d.kernel_rows.misses, d.kernel_rows.entries), (0, 1, 1));
    }

    #[test]
    fn private_caches_share_nothing() {
        let a = DpCaches::private();
        let b = DpCaches::private();
        a.plans.insert(plan_key(1), Arc::from(vec![1.0]));
        assert_eq!(b.plans.get(&plan_key(1)), None);
        assert_eq!(a.stats().plans, CacheStats { hits: 0, misses: 0, evictions: 0, entries: 1 });
        assert_eq!(b.stats().plans, CacheStats { hits: 0, misses: 1, evictions: 0, entries: 0 });
        assert!(b.kernel_rows.is_empty());
    }

    fn plan_key(bucket: u64) -> PlanKey {
        PlanKey {
            dist: DistId::Shared(7),
            u_bits: 1.0f64.to_bits(),
            checkpoint_bits: 2.0f64.to_bits(),
            x_max: 8,
            truncated: false,
            buckets: vec![(bucket, 1)],
        }
    }

    fn row_key(bucket: u64) -> KernelRowKey {
        KernelRowKey {
            dist: DistId::Shared(7),
            u_bits: 1.0f64.to_bits(),
            checkpoint_bits: 2.0f64.to_bits(),
            x_max: 8,
            bucket,
        }
    }

    #[test]
    fn global_caches_are_one_instance() {
        let a = DpCaches::global();
        let b = DpCaches::global();
        assert!(Arc::ptr_eq(&a.plans, &b.plans));
        assert!(Arc::ptr_eq(&a.kernel_rows, &b.kernel_rows));
    }
}
