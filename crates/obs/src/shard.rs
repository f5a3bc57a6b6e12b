//! Per-thread sharded collection (the live side of the `obs` feature).
//!
//! Each recording thread owns one shard: a small struct behind a mutex
//! that only that thread locks during recording (the merge at session
//! end is the one cross-thread access, after recording stops), so
//! recording never contends. Shards survive thread reuse across
//! sessions via a generation stamp: a shard that notices the global
//! generation moved resets itself before accepting the next record.

use crate::export::{FlightEvent, SpanRecord, SpanRow, FLIGHT_RING_CAP};
use crate::metrics::Histogram;
use crate::{ObsData, Recorder, NO_TASK};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Recording is on (an [`crate::ObsSession`] is open).
pub(crate) static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Session generation; shards stamped with an older generation reset
/// lazily on their next record.
static GENERATION: AtomicU64 = AtomicU64::new(0);

struct ShardData {
    generation: u64,
    tid: u64,
    seq: u64,
    counters: BTreeMap<(&'static str, String), u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: Vec<SpanRow>,
    /// Flight recorder: a bounded ring of this shard's most recent span
    /// closures and counter deltas, dumped on demand (poisoned task,
    /// checkpoint commit) so a killed run leaves a last-N-events record.
    flight_seq: u64,
    flight: VecDeque<FlightEvent>,
}

impl ShardData {
    fn fresh(generation: u64, tid: u64) -> Self {
        Self {
            generation,
            tid,
            seq: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            spans: Vec::new(),
            flight_seq: 0,
            flight: VecDeque::with_capacity(FLIGHT_RING_CAP),
        }
    }

    fn reset(&mut self, generation: u64) {
        let tid = self.tid;
        *self = Self::fresh(generation, tid);
    }

    /// Push onto the flight ring, evicting the oldest event at capacity.
    fn flight_push(
        &mut self,
        at_us: u64,
        kind: &'static str,
        name: &'static str,
        task: u64,
        value: u64,
        label: String,
    ) {
        if self.flight.len() >= FLIGHT_RING_CAP {
            self.flight.pop_front();
        }
        let seq = self.flight_seq;
        self.flight_seq += 1;
        self.flight.push_back(FlightEvent {
            at_us,
            tid: self.tid,
            seq,
            kind,
            name,
            task,
            value,
            label,
        });
    }
}

/// All shards ever registered: one per thread that ever recorded.
static REGISTRY: Mutex<Vec<Arc<Mutex<ShardData>>>> = Mutex::new(Vec::new());

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    // Diagnostic state: a panicking recorder thread must not take the
    // whole observability layer down with it.
    r.unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static SHARD: OnceLock<Arc<Mutex<ShardData>>> = const { OnceLock::new() };
}

/// Run `f` on this thread's shard, creating/resetting it as needed.
fn with_shard<R>(f: impl FnOnce(&mut ShardData) -> R) -> R {
    SHARD.with(|cell| {
        let arc = cell.get_or_init(|| {
            let mut registry = relock(REGISTRY.lock());
            let tid = registry.len() as u64;
            let arc = Arc::new(Mutex::new(ShardData::fresh(
                GENERATION.load(Ordering::Acquire),
                tid,
            )));
            registry.push(Arc::clone(&arc));
            arc
        });
        let mut shard = relock(arc.lock());
        let generation = GENERATION.load(Ordering::Acquire);
        if shard.generation != generation {
            shard.reset(generation);
        }
        f(&mut shard)
    })
}

/// Begin a new session generation. Returns `false` when a session is
/// already active.
pub(crate) fn session_begin() -> bool {
    if ACTIVE
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return false;
    }
    GENERATION.fetch_add(1, Ordering::AcqRel);
    true
}

/// Stop recording and merge every current-generation shard.
pub(crate) fn session_finish() -> ObsData {
    ACTIVE.store(false, Ordering::Release);
    merge(true)
}

/// Merge shard contents without stopping the session (`ObsPerf` deltas).
pub(crate) fn snapshot() -> ObsData {
    merge(false)
}

/// Fold all current-generation shards into one [`ObsData`], in
/// registration (tid) order — a deterministic fold order, and the
/// commutative per-key operations make the *content* independent even
/// of that. Spans are then sorted by `(task, seq, name)`.
fn merge(drain: bool) -> ObsData {
    let generation = GENERATION.load(Ordering::Acquire);
    let mut out = ObsData::default();
    let registry = relock(REGISTRY.lock());
    for arc in registry.iter() {
        let mut shard = relock(arc.lock());
        if shard.generation != generation {
            continue;
        }
        for ((name, label), value) in &shard.counters {
            *out.counters.0.entry(((*name).to_string(), label.clone())).or_insert(0) +=
                value;
        }
        for (&name, &value) in &shard.gauges {
            let g = out.gauges.entry(name).or_insert(0);
            *g = (*g).max(value);
        }
        for (&name, h) in &shard.histograms {
            out.histograms.entry(name).or_insert_with(Histogram::new).merge(h);
        }
        if drain {
            out.spans.append(&mut shard.spans);
            shard.reset(0); // stamp 0: dead until the next generation touch
        } else {
            out.spans.extend(shard.spans.iter().cloned());
        }
    }
    drop(registry);
    out.spans.sort_by(|a, b| {
        (a.task, a.seq, a.name).cmp(&(b.task, b.seq, b.name))
    });
    out
}

/// The live recorder: routes every record onto the calling thread's
/// shard.
pub(crate) struct ShardedRecorder;

pub(crate) static SHARDED: ShardedRecorder = ShardedRecorder;

impl Recorder for ShardedRecorder {
    fn counter_add(&self, name: &'static str, label: Option<&str>, delta: u64) {
        let at_us = crate::clock::now_micros();
        with_shard(|s| {
            let label = label.unwrap_or("").to_string();
            *s.counters.entry((name, label.clone())).or_insert(0) += delta;
            s.flight_push(at_us, "counter", name, NO_TASK, delta, label);
        });
    }

    fn gauge_max(&self, name: &'static str, value: u64) {
        with_shard(|s| {
            let g = s.gauges.entry(name).or_insert(0);
            *g = (*g).max(value);
        });
    }

    fn histogram_record(&self, name: &'static str, value: f64) {
        with_shard(|s| {
            s.histograms.entry(name).or_insert_with(Histogram::new).record(value);
        });
    }

    fn span_record(&self, span: SpanRecord) {
        with_shard(|s| {
            let seq = s.seq;
            s.seq += 1;
            let dur_us = span.end_us.saturating_sub(span.start_us);
            s.flight_push(span.end_us, "span", span.name, span.task, dur_us, String::new());
            s.spans.push(SpanRow {
                name: span.name,
                task: span.task,
                tid: s.tid,
                seq,
                start_us: span.start_us,
                dur_us,
                labels: span.labels,
            });
        });
    }
}

/// Collect every current-generation shard's flight ring, merged into one
/// chronological record (`(at_us, tid, seq)` order — `seq` breaks the
/// microsecond ties a single shard can produce). Safe to call from any
/// thread mid-session: each ring is copied under its shard lock, exactly
/// like the `snapshot` merge.
pub(crate) fn flight_events() -> Vec<FlightEvent> {
    let generation = GENERATION.load(Ordering::Acquire);
    let mut out = Vec::new();
    let registry = relock(REGISTRY.lock());
    for arc in registry.iter() {
        let shard = relock(arc.lock());
        if shard.generation != generation {
            continue;
        }
        out.extend(shard.flight.iter().cloned());
    }
    drop(registry);
    out.sort_by_key(|e| (e.at_us, e.tid, e.seq));
    out
}
