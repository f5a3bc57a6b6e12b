//! Shared trace/event cache.
//!
//! Trace generation is deterministic in `(scenario label, horizon, start
//! time, trace index)` and prefix-stable in the unit count (§4.3): the
//! first `p` units of a `b`-unit set are the `p`-unit set. So the cache
//! keeps one stream per `(label, horizon, start, index)`, the widest any
//! cell has asked for, with its merged `PlatformEvents`, behind `Arc`s:
//!
//! * a request of the same width shares the allocation;
//! * a narrower request copies the prefix of the traces and re-merges
//!   its events (O(f log f) in the prefix's f failures, no sampling);
//!   the narrowed result is not cached, so each such request gets its
//!   own allocation;
//! * a wider one samples only the units the stream lacks, re-merges the
//!   events of the widened set, and replaces the entry.
//!
//! So the Exascale cells at 2^16, 2^18 and 2^20 processors sample each
//! unit once, and a later cell of the study on the same traces
//! generates nothing. A study releases a `(label, horizon, start)` stream once no
//! cell of it that reads the stream has a pending item.

use crate::scenario::{BuiltDist, Scenario};
use ckpt_platform::{PlatformEvents, TraceSet};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// One generated trace set with its pre-merged platform event stream.
#[derive(Debug)]
pub struct CachedTrace {
    /// The per-unit failure traces.
    pub traces: Arc<TraceSet>,
    /// The merged, time-ordered platform event stream.
    pub events: Arc<PlatformEvents>,
}

impl CachedTrace {
    /// Processors per failure unit (node granularity).
    pub fn procs_per_unit(&self) -> u32 {
        self.traces.topology.procs_per_unit() as u32
    }

    /// The first `units` units of this trace with their events.
    fn prefix(&self, units: usize) -> Self {
        let traces = self.traces.prefix(units);
        Self { events: Arc::new(traces.platform_events()), traces: Arc::new(traces) }
    }
}

/// Everything trace generation depends on, bit-exact, except the unit
/// count (prefix-stable) and the trace index.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct StreamKey {
    label: String,
    horizon_bits: u64,
    start_bits: u64,
}

impl StreamKey {
    /// The stream `scenario` reads its traces from.
    pub(crate) fn of(scenario: &Scenario) -> Self {
        Self {
            label: scenario.label.clone(),
            horizon_bits: scenario.horizon.to_bits(),
            start_bits: scenario.start_time.to_bits(),
        }
    }
}

/// Per stream, the widest trace set of each index.
type Streams = BTreeMap<StreamKey, BTreeMap<usize, Arc<CachedTrace>>>;

/// Process-wide memo of generated traces.
#[derive(Default)]
pub struct TraceCache {
    map: Mutex<Streams>,
}

impl TraceCache {
    /// The process-wide cache instance.
    pub fn global() -> &'static TraceCache {
        static CACHE: OnceLock<TraceCache> = OnceLock::new();
        CACHE.get_or_init(TraceCache::default)
    }

    fn lock(&self) -> MutexGuard<'_, Streams> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The `index`-th trace set of `scenario`, each unit sampled at most
    /// once per process (while its stream is cached).
    pub fn get_or_generate(
        &self,
        scenario: &Scenario,
        built: &BuiltDist,
        index: usize,
    ) -> Arc<CachedTrace> {
        let units = built.topology.units_for_procs(scenario.procs);
        let key = StreamKey::of(scenario);
        let widest = self.lock().get(&key).and_then(|s| s.get(&index)).cloned();
        if let Some(hit) = widest.as_ref().filter(|w| w.traces.unit_count() >= units) {
            return if hit.traces.unit_count() == units {
                Arc::clone(hit)
            } else {
                Arc::new(hit.prefix(units))
            };
        }
        // Generate outside the lock: generation is deterministic, so a
        // racing thread computing the same key produces the same value.
        let traces = match widest {
            Some(narrow) => scenario.widen_traces(built, index, &narrow.traces),
            None => scenario.generate_traces(built, index),
        };
        let entry = Arc::new(CachedTrace {
            events: Arc::new(traces.platform_events()),
            traces: Arc::new(traces),
        });
        let mut map = self.lock();
        let widest = map.entry(key).or_default().entry(index).or_insert_with(|| Arc::clone(&entry));
        if widest.traces.unit_count() < units {
            *widest = Arc::clone(&entry);
        }
        // First insert of a width wins, which keeps sharing maximal.
        if widest.traces.unit_count() == units {
            Arc::clone(widest)
        } else {
            entry
        }
    }

    /// Drop every cached trace set of `stream` (a later request
    /// regenerates the same bytes).
    pub(crate) fn release(&self, stream: &StreamKey) {
        self.lock().remove(stream);
    }

    /// Number of cached trace sets of `label`, over every horizon, start
    /// and index.
    pub fn streams_of(&self, label: &str) -> usize {
        self.lock().iter().filter(|(k, _)| k.label == label).map(|(_, s)| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DistSpec;

    fn tiny() -> (Scenario, BuiltDist) {
        let dist = DistSpec::Exponential { mtbf: 3_600.0 };
        let mut s = Scenario::single_processor(dist.clone(), 2);
        s.label = "cache-test-cell".into();
        s.horizon = 100_000.0;
        let b = dist.build();
        (s, b)
    }

    #[test]
    fn same_key_shares_the_allocation() {
        let cache = TraceCache::default();
        let (s, b) = tiny();
        let a = cache.get_or_generate(&s, &b, 0);
        let c = cache.get_or_generate(&s, &b, 0);
        assert!(Arc::ptr_eq(&a, &c), "second lookup must be a cache hit");
        assert_eq!(cache.streams_of("cache-test-cell"), 1);
    }

    #[test]
    fn distinct_indices_and_cells_do_not_collide() {
        let cache = TraceCache::default();
        let (s, b) = tiny();
        let a = cache.get_or_generate(&s, &b, 0);
        let c = cache.get_or_generate(&s, &b, 1);
        assert!(!Arc::ptr_eq(&a, &c));
        let mut s2 = s.clone();
        s2.horizon *= 2.0;
        let d = cache.get_or_generate(&s2, &b, 0);
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(cache.streams_of("cache-test-cell"), 3);
        cache.release(&StreamKey::of(&s));
        assert_eq!(cache.streams_of("cache-test-cell"), 1, "the other horizon stays");
        cache.release(&StreamKey::of(&s2));
        assert_eq!(cache.streams_of("cache-test-cell"), 0);
    }

    #[test]
    fn cached_traces_match_direct_generation() {
        let (s, b) = tiny();
        let direct = s.generate_traces(&b, 0);
        let cached = TraceCache::default().get_or_generate(&s, &b, 0);
        assert_eq!(direct.units, cached.traces.units);
        assert_eq!(direct.platform_events(), *cached.events);
    }

    /// One label at 2^4, 2^8 and 2^6 units from a fresh cache: every
    /// order of widening and narrowing must give each width exactly the
    /// stream generated directly at that width.
    #[test]
    fn widening_and_narrowing_match_direct_generation_in_any_order() {
        let dist = DistSpec::Weibull { shape: 0.7, mtbf: 400_000.0 };
        let built = dist.build();
        let at = |procs: u64| {
            let mut s = Scenario::single_processor(dist.clone(), 2);
            s.label = "cache-widen-cell".into();
            s.horizon = 100_000.0;
            s.procs = procs;
            s
        };
        for order in [[16, 64, 256], [256, 64, 16], [16, 256, 64]] {
            let cache = TraceCache::default();
            for procs in order {
                for index in 0..2 {
                    let sc = at(procs);
                    let got = cache.get_or_generate(&sc, &built, index);
                    let direct = sc.generate_traces(&built, index);
                    let want = direct.platform_events();
                    assert_eq!(got.traces.units, direct.units, "order {order:?} procs {procs}");
                    assert_eq!(got.events.times(), want.times(), "order {order:?} procs {procs}");
                    assert_eq!(got.events.units(), want.units(), "order {order:?} procs {procs}");
                    assert_eq!(got.events.slots(), want.slots(), "order {order:?} procs {procs}");
                    assert_eq!(got.events.slot_count(), want.slot_count());
                }
            }
            assert_eq!(cache.streams_of("cache-widen-cell"), 2, "one stream per index, whatever the widths");
        }
        let sparse = at(256).generate_traces(&built, 0);
        assert!(
            (1..256).contains(&sparse.units.failing_count()),
            "want failing and never-failing units mixed"
        );
    }
}
