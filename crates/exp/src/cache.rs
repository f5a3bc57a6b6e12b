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
//! Requests come by *block* of trace indices
//! ([`TraceCache::get_or_generate_blocks`]; one index is a block of
//! one): the sets a block lacks are sampled together, one pass of
//! [`UnitTraces::sample_block`] over the new units for all of them. The
//! blocks' sampling is cut into parts, a block's sets over a range of
//! its new units (or, at a handful of units, a share of its sets), so
//! that a cell with fewer blocks than workers still keeps every worker
//! busy. The parts of a set are joined in unit order, and a second
//! wave merges each grown set's events and publishes it, which frees
//! the narrower entry it replaces before the next set is merged.
//!
//! So the Exascale cells at 2^16, 2^18 and 2^20 processors sample each
//! unit once, and a later cell of the study on the same traces
//! generates nothing. A study releases a `(label, horizon, start)` stream once no
//! cell of it that reads the stream has a pending item.

use crate::scenario::{BuiltDist, Scenario};
use crate::steal;
use ckpt_math::SeedSequence;
use ckpt_platform::{PlatformEvents, TraceSet, UnitTraces};
use std::collections::BTreeMap;
use std::ops::Range;
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
    /// `traces` with its events merged.
    fn merged(traces: Arc<TraceSet>) -> Arc<Self> {
        Arc::new(Self { events: Arc::new(traces.platform_events()), traces })
    }

    /// Processors per failure unit (node granularity).
    pub fn procs_per_unit(&self) -> u32 {
        self.traces.topology.procs_per_unit() as u32
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

/// The sets one block lacks at the requested width.
struct Fill {
    /// Position in the request of each set to grow.
    at: Vec<usize>,
    /// Each set's seeds.
    seeds: Vec<SeedSequence>,
    /// Each set's widest cached trace set, if any.
    narrow: Vec<Option<Arc<TraceSet>>>,
    /// The first unit some set lacks.
    from: usize,
}

/// A share of one fill's sampling: some of its sets over some of its new
/// units.
struct Part {
    fill: usize,
    sets: Range<usize>,
    units: Range<usize>,
}

impl Fill {
    /// `share` parts of this fill, numbered `fill`: its new units cut
    /// into up to `share` ranges, and its sets into groups when there
    /// are fewer new units than that.
    fn parts(&self, fill: usize, units: usize, share: usize) -> impl Iterator<Item = Part> + '_ {
        let ranges = share.min(units - self.from).max(1);
        let groups = share.div_ceil(ranges).min(self.at.len());
        let from = self.from;
        split(0..self.at.len(), groups).flat_map(move |sets| {
            split(from..units, ranges).map(move |units| Part { fill, sets: sets.clone(), units })
        })
    }

    /// Sample one part: a piece per set, the first range grown from the
    /// set's cached units, a later one begun at the range's start.
    fn sample(&self, part: &Part, built: &BuiltDist, horizon: f64) -> Vec<UnitTraces> {
        let mut pieces: Vec<UnitTraces> = part
            .sets
            .clone()
            .map(|set| {
                let narrow = self.narrow[set].as_deref();
                if part.units.start > self.from {
                    UnitTraces::never_failing(part.units.start.max(narrow.map_or(0, TraceSet::unit_count)))
                } else {
                    narrow.map_or_else(UnitTraces::default, |n| n.units.clone())
                }
            })
            .collect();
        let seeds = &self.seeds[part.sets.clone()];
        UnitTraces::sample_block(&mut pieces, seeds, built.dist.as_ref(), horizon, part.units.end);
        pieces
    }
}

/// `range` cut into `n` contiguous ranges of near-equal length.
fn split(range: Range<usize>, n: usize) -> impl Iterator<Item = Range<usize>> {
    let (lo, len) = (range.start, range.len());
    (0..n).map(move |k| lo + len * k / n..lo + len * (k + 1) / n)
}

/// A requested set once its units are sampled; the event wave turns
/// each into its cache entry.
enum Slot {
    /// Cached at the width asked for.
    Hit(Arc<CachedTrace>),
    /// Cached wider: the prefix is copied, not cached.
    Wider(Arc<CachedTrace>),
    /// Grown by this request: the stream's new widest set.
    Grown(Arc<TraceSet>),
}

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

    /// The `index`-th trace set of `scenario`: a block of one.
    pub fn get_or_generate(
        &self,
        scenario: &Scenario,
        built: &BuiltDist,
        index: usize,
    ) -> Arc<CachedTrace> {
        let block = index..index + 1;
        let mut sets = self.get_or_generate_blocks(scenario, built, std::slice::from_ref(&block), 1);
        sets.swap_remove(0)
    }

    /// The trace sets of `blocks` of `scenario`'s trace indices, in
    /// request order, each unit sampled at most once per process (while
    /// its stream is cached). The sampling and then the event merges run
    /// as two waves over `workers`; the sets are the same at any count.
    /// Blocks of more than one index sample faster per set: the units'
    /// index terms are mixed once for the whole block.
    pub fn get_or_generate_blocks(
        &self,
        scenario: &Scenario,
        built: &BuiltDist,
        blocks: &[Range<usize>],
        workers: usize,
    ) -> Vec<Arc<CachedTrace>> {
        let units = built.topology.units_for_procs(scenario.procs);
        let key = StreamKey::of(scenario);
        let indices: Vec<usize> = blocks.iter().flat_map(Range::clone).collect();
        let widest: Vec<Option<Arc<CachedTrace>>> = {
            let map = self.lock();
            let stream = map.get(&key);
            indices.iter().map(|i| stream.and_then(|s| s.get(i)).cloned()).collect()
        };
        // Generate outside the lock: generation is deterministic, so a
        // racing thread computing the same key produces the same value.
        let mut fills = Vec::new();
        let mut at = 0;
        for block in blocks {
            let lacking: Vec<usize> = (at..at + block.len())
                .filter(|&k| widest[k].as_ref().is_none_or(|w| w.traces.unit_count() < units))
                .collect();
            at += block.len();
            if lacking.is_empty() {
                continue;
            }
            let narrow: Vec<Option<Arc<TraceSet>>> =
                lacking.iter().map(|&k| widest[k].as_ref().map(|w| Arc::clone(&w.traces))).collect();
            fills.push(Fill {
                seeds: lacking.iter().map(|&k| scenario.trace_seeds(indices[k])).collect(),
                from: narrow.iter().map(|n| n.as_deref().map_or(0, TraceSet::unit_count)).min().unwrap_or(0),
                narrow,
                at: lacking,
            });
        }
        let share = workers.div_ceil(fills.len().max(1));
        let parts: Vec<Part> =
            fills.iter().enumerate().flat_map(|(f, fill)| fill.parts(f, units, share)).collect();
        let (pieces, _) = steal::run_wave(&parts, workers, |_| false, |_, part| {
            fills[part.fill].sample(part, built, scenario.horizon)
        });

        let mut grown: Vec<Option<UnitTraces>> = (0..indices.len()).map(|_| None).collect();
        for (part, pieces) in parts.iter().zip(pieces) {
            for (set, piece) in part.sets.clone().zip(pieces) {
                match &mut grown[fills[part.fill].at[set]] {
                    Some(store) => store.append(piece),
                    slot => *slot = Some(piece),
                }
            }
        }
        // Let go of the narrow sets: each is freed once the set grown from
        // it replaces it in the cache.
        drop(fills);
        let slots: Vec<Slot> = widest
            .into_iter()
            .zip(grown)
            .map(|(widest, grown)| match (widest, grown) {
                (_, Some(units)) => Slot::Grown(Arc::new(TraceSet {
                    units,
                    topology: built.topology,
                    horizon: scenario.horizon,
                    start_time: scenario.start_time,
                })),
                (Some(hit), None) if hit.traces.unit_count() == units => Slot::Hit(hit),
                (Some(wide), None) => Slot::Wider(wide),
                (None, None) => unreachable!("a set the cache lacks is sampled"),
            })
            .collect();
        let (sets, _) = steal::run_wave(&slots, workers, |_| false, |k, slot| match slot {
            Slot::Hit(hit) => Arc::clone(hit),
            Slot::Wider(wide) => CachedTrace::merged(Arc::new(wide.traces.prefix(units))),
            Slot::Grown(set) => self.publish(&key, indices[k], CachedTrace::merged(Arc::clone(set))),
        });
        sets
    }

    /// Make `entry` the widest set of `index` in `stream`, unless one at
    /// least as wide is cached, and return the cached entry of its width
    /// if there is one: the first insert of a width wins, which keeps
    /// sharing maximal.
    fn publish(&self, stream: &StreamKey, index: usize, entry: Arc<CachedTrace>) -> Arc<CachedTrace> {
        let units = entry.traces.unit_count();
        let mut map = self.lock();
        let widest = map.entry(stream.clone()).or_default().entry(index).or_insert_with(|| Arc::clone(&entry));
        if widest.traces.unit_count() < units {
            *widest = Arc::clone(&entry);
        }
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

    /// The block entry over sets cached at mixed widths (none, narrower,
    /// as wide, wider) at several worker counts: every set is the one
    /// generated directly, and a grown set becomes its index's entry.
    #[test]
    fn blocks_of_mixed_widths_match_direct_generation() {
        let dist = DistSpec::Weibull { shape: 0.7, mtbf: 400_000.0 };
        let built = dist.build();
        let at = |procs: u64| {
            let mut s = Scenario::single_processor(dist.clone(), 7);
            s.label = "cache-block-cell".into();
            s.horizon = 100_000.0;
            s.procs = procs;
            s
        };
        let sc = at(100);
        for workers in [1, 2, 3, 8] {
            let cache = TraceCache::default();
            for (index, procs) in [(0, 40), (1, 300), (2, 100), (4, 99)] {
                cache.get_or_generate(&at(procs), &built, index);
            }
            let got = cache.get_or_generate_blocks(&sc, &built, &[0..4, 4..7], workers);
            assert_eq!(got.len(), 7);
            for (index, set) in got.iter().enumerate() {
                let what = format!("trace {index} at {workers} workers");
                let direct = sc.generate_traces(&built, index);
                assert_eq!(set.traces.units, direct.units, "{what}");
                assert_eq!(*set.events, direct.platform_events(), "{what}");
                let again = cache.get_or_generate(&sc, &built, index);
                assert_eq!(Arc::ptr_eq(set, &again), index != 1, "{what}: only the wider set is a copy");
            }
        }
    }
}
