//! `ckpt-obs` — deterministic tracing & metrics for the checkpointing
//! pipeline.
//!
//! The pipeline's correctness contract is *bit-identical results at any
//! thread count*, so instrumentation must never feed timing back into
//! control flow. This crate enforces that split structurally:
//!
//! - **Recording is opt-in twice.** The `obs` cargo feature compiles
//!   the live recorder in; without it every facade call is an inlined
//!   empty stub and [`active`] is `const false`, so instrumented crates
//!   pay nothing and never link a clock. With the feature, recording
//!   still only happens while an [`ObsSession`] is open.
//! - **One clock site.** Wall-clock reads live in `clock.rs` alone; the
//!   workspace `clippy.toml` bans `Instant::now` and `now_micros`
//!   everywhere, and this crate's one `#![expect]` covers its own stamps.
//!   The module is public so the other sanctioned consumers — the study
//!   checkpointer's `interval_seconds` trigger and the progress
//!   reporter — route their reads through here instead of opening a
//!   second clock site (each call site carries an `#[expect]`).
//! - **Deterministic merge.** Each thread records into its own shard;
//!   [`ObsSession::finish`] folds shards with commutative per-key
//!   operations (sum, max, bucket-count merge) and sorts spans by
//!   `(task, seq, name)` — so the merged *content* is independent of
//!   thread scheduling whenever the instrumented run is.
//!
//! Exporters: [`ObsData::chrome_trace_json`] (chrome://tracing /
//! Perfetto timeline of the exec drain), [`ObsData::perf_report`]
//! (text summary). Alongside the post-hoc exporters, each shard keeps a
//! bounded **flight recorder** ring of its most recent span closures
//! and counter deltas; [`flight_dump_json`] serialises the merged rings
//! at any moment mid-session, so a poisoned task or a SIGKILL'd study
//! leaves a readable last-N-events record (see `ckpt-exp`'s executor and
//! checkpoint layers for the dump sites).
//!
//! ```
//! let session = ckpt_obs::ObsSession::start(); // None unless `obs` is on
//! {
//!     let mut span = ckpt_obs::task_span("task.demo", 7);
//!     span.label("policy", "DPNextFailure");
//!     ckpt_obs::counter_add("demo.widgets", 3);
//! }
//! if let Some(session) = session {
//!     let data = session.finish();
//!     assert_eq!(data.counter("demo.widgets"), 3);
//! }
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![expect(
    clippy::disallowed_methods,
    reason = "the recorder's clock: clock.rs is the one wall-clock read, and span and flight-event stamps are profile data that never feed results"
)]

pub mod export;
pub mod metrics;

pub mod clock;
#[cfg(feature = "obs")]
mod shard;

pub use export::{FlightEvent, ObsData, SpanRecord, SpanRow, FLIGHT_RING_CAP};
pub use metrics::{bucket_lo, bucket_of, CounterSnapshot, Histogram};

/// Task id for spans not owned by any pipeline task (stage/coordinator
/// spans). Sorts after every real task in the merged span order.
pub const NO_TASK: u64 = u64::MAX;

/// A metrics/span sink. The facade routes through a `&'static dyn
/// Recorder`: [`NoopRecorder`] when recording is off, the sharded live
/// recorder while a session is open (feature `obs`).
pub trait Recorder: Send + Sync {
    /// Add `delta` to counter `name` (one cell per distinct label).
    fn counter_add(&self, name: &'static str, label: Option<&str>, delta: u64);
    /// Fold `value` into gauge `name` with `max`.
    fn gauge_max(&self, name: &'static str, value: u64);
    /// Record `value` into the log-scale histogram `name`.
    fn histogram_record(&self, name: &'static str, value: f64);
    /// Record a finished span.
    fn span_record(&self, span: SpanRecord);
}

/// The do-nothing sink.
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn counter_add(&self, _name: &'static str, _label: Option<&str>, _delta: u64) {}
    fn gauge_max(&self, _name: &'static str, _value: u64) {}
    fn histogram_record(&self, _name: &'static str, _value: f64) {}
    fn span_record(&self, _span: SpanRecord) {}
}

static NOOP: NoopRecorder = NoopRecorder;

/// Whether a recording session is currently open. `const false` without
/// the `obs` feature, so `if ckpt_obs::active() { ... }` blocks (label
/// formatting, local counter flushes) fold away entirely.
#[cfg(feature = "obs")]
pub fn active() -> bool {
    shard::ACTIVE.load(std::sync::atomic::Ordering::Relaxed)
}

/// Whether a recording session is currently open (feature off: never).
#[cfg(not(feature = "obs"))]
pub const fn active() -> bool {
    false
}

/// The current sink: the live sharded recorder while a session is open,
/// [`NoopRecorder`] otherwise.
pub fn recorder() -> &'static dyn Recorder {
    #[cfg(feature = "obs")]
    if active() {
        return &shard::SHARDED;
    }
    &NOOP
}

/// Add `delta` to counter `name`.
pub fn counter_add(name: &'static str, delta: u64) {
    if active() {
        recorder().counter_add(name, None, delta);
    }
}

/// Add `delta` to the `(name, label)` counter cell (e.g. per
/// distribution fingerprint).
pub fn counter_add_labeled(name: &'static str, label: &str, delta: u64) {
    if active() {
        recorder().counter_add(name, Some(label), delta);
    }
}

/// Fold `value` into gauge `name` with `max`.
pub fn gauge_max(name: &'static str, value: u64) {
    if active() {
        recorder().gauge_max(name, value);
    }
}

/// Record `value` into the log-scale histogram `name`.
pub fn histogram_record(name: &'static str, value: f64) {
    if active() {
        recorder().histogram_record(name, value);
    }
}

#[cfg(feature = "obs")]
struct OpenSpan {
    name: &'static str,
    task: u64,
    start_us: u64,
    labels: Vec<(&'static str, String)>,
}

/// An open span; records itself on drop. Inert when recording is off —
/// spans opened before a session never leak into it.
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    #[cfg(feature = "obs")]
    open: Option<OpenSpan>,
}

impl SpanGuard {
    /// Attach a label (no-op when the span is inert).
    pub fn label(&mut self, key: &'static str, value: impl Into<String>) {
        #[cfg(feature = "obs")]
        if let Some(open) = &mut self.open {
            open.labels.push((key, value.into()));
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = key;
            let _ = value;
        }
    }
}

#[cfg(feature = "obs")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            recorder().span_record(SpanRecord {
                name: open.name,
                task: open.task,
                start_us: open.start_us,
                end_us: clock::now_micros(),
                labels: open.labels,
            });
        }
    }
}

/// Open a coordinator-side span (stage timings, waves).
pub fn span(name: &'static str) -> SpanGuard {
    task_span(name, NO_TASK)
}

/// Open a span owned by pipeline task `task` (its merge-order key).
pub fn task_span(name: &'static str, task: u64) -> SpanGuard {
    #[cfg(feature = "obs")]
    {
        let open = active().then(|| OpenSpan {
            name,
            task,
            start_us: clock::now_micros(),
            labels: Vec::new(),
        });
        SpanGuard { open }
    }
    #[cfg(not(feature = "obs"))]
    {
        let _ = (name, task);
        SpanGuard {}
    }
}

/// Serialise the flight recorder — every shard's bounded ring of recent
/// span closures and counter deltas — to its `flightrec.json` document.
/// Always returns a valid document: without the `obs` feature (or with
/// no session open) the event list is empty and `"recording": false`
/// says why, so dump sites can write unconditionally.
pub fn flight_dump_json() -> String {
    #[cfg(feature = "obs")]
    if active() {
        return export::flight_json(&shard::flight_events(), true);
    }
    export::flight_json(&[], false)
}

/// A live snapshot of every counter recorded so far in the open session
/// (empty when recording is off). Cheap enough to bracket a pipeline
/// stage for attribution deltas.
pub fn counters_snapshot() -> CounterSnapshot {
    #[cfg(feature = "obs")]
    if active() {
        return shard::snapshot().counters;
    }
    CounterSnapshot::default()
}

/// One recording window: open with [`ObsSession::start`], instrument,
/// then [`ObsSession::finish`] to stop recording and take the merged
/// [`ObsData`]. Only one session can be open at a time; a dropped
/// session closes itself (discarding its data).
pub struct ObsSession {
    #[cfg(feature = "obs")]
    start_us: u64,
    #[cfg(feature = "obs")]
    open: bool,
}

impl ObsSession {
    /// Begin recording. `None` without the `obs` feature, or when a
    /// session is already open.
    #[cfg(feature = "obs")]
    pub fn start() -> Option<Self> {
        shard::session_begin().then(|| Self { start_us: clock::now_micros(), open: true })
    }

    /// Begin recording (feature off: always `None`).
    #[cfg(not(feature = "obs"))]
    pub fn start() -> Option<Self> {
        None
    }

    /// Stop recording and merge every shard's data.
    #[cfg(feature = "obs")]
    pub fn finish(mut self) -> ObsData {
        self.open = false;
        let mut data = shard::session_finish();
        data.wall_us = clock::now_micros().saturating_sub(self.start_us);
        data
    }

    /// Stop recording (feature off: empty data; unreachable in practice
    /// because [`ObsSession::start`] returned `None`).
    #[cfg(not(feature = "obs"))]
    pub fn finish(self) -> ObsData {
        ObsData::default()
    }
}

#[cfg(feature = "obs")]
impl Drop for ObsSession {
    fn drop(&mut self) {
        if self.open {
            let _ = shard::session_finish();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_is_inert() {
        // Holds under both features: before any session (or without the
        // feature at all), nothing records and nothing panics.
        assert!(!active());
        counter_add("t.counter", 5);
        gauge_max("t.gauge", 5);
        histogram_record("t.hist", 5.0);
        let mut g = task_span("t.span", 1);
        g.label("k", "v");
        drop(g);
        assert_eq!(counters_snapshot(), CounterSnapshot::default());
        // The flight dump degrades to a valid empty document.
        let dump = flight_dump_json();
        assert!(dump.contains("\"recording\": false"), "{dump}");
        assert!(dump.contains("\"events\": [\n  ]"), "{dump}");
        #[cfg(not(feature = "obs"))]
        assert!(ObsSession::start().is_none());
    }

    #[cfg(feature = "obs")]
    mod live {
        use super::super::*;
        use std::sync::Mutex;

        /// Sessions are process-global; serialize the tests that open one.
        static SESSION_TESTS: Mutex<()> = Mutex::new(());

        fn lock() -> std::sync::MutexGuard<'static, ()> {
            SESSION_TESTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        #[test]
        fn session_collects_and_clears() {
            let _serial = lock();
            let session = ObsSession::start().expect("no session open");
            assert!(active());
            assert!(ObsSession::start().is_none(), "sessions are exclusive");
            counter_add("s.counter", 2);
            counter_add("s.counter", 3);
            counter_add_labeled("s.counter", "lbl", 7);
            gauge_max("s.gauge", 4);
            gauge_max("s.gauge", 9);
            gauge_max("s.gauge", 1);
            histogram_record("s.hist", 2.0);
            {
                let mut span = task_span("s.span", 42);
                span.label("policy", "Young");
            }
            let data = session.finish();
            assert!(!active());
            assert_eq!(data.counter("s.counter"), 12);
            assert_eq!(data.counters.labeled("s.counter", "lbl"), 7);
            assert_eq!(data.gauges.get("s.gauge"), Some(&9));
            assert_eq!(data.histograms.get("s.hist").map(|h| h.count), Some(1));
            assert_eq!(data.spans.len(), 1);
            assert_eq!(data.spans[0].task, 42);
            assert_eq!(data.spans[0].labels, vec![("policy", "Young".to_string())]);

            // A fresh session starts empty: old shard data is gone.
            let session = ObsSession::start().expect("no session open");
            let data = session.finish();
            assert_eq!(data.counter("s.counter"), 0);
            assert!(data.spans.is_empty());
        }

        #[test]
        fn merge_is_deterministic_across_racing_threads() {
            let _serial = lock();
            // Two passes of the same logical work under different thread
            // interleavings must merge to identical counters/histograms
            // and identical span order.
            let run_once = || {
                let session = ObsSession::start().expect("no session open");
                let handles: Vec<_> = (0..8u64)
                    .map(|t| {
                        std::thread::spawn(move || {
                            for i in 0..50u64 {
                                let task = t * 100 + i;
                                let _span = task_span("m.task", task);
                                counter_add("m.counter", 1);
                                counter_add_labeled("m.counter", "odd", task % 2);
                                histogram_record("m.hist", (task % 7 + 1) as f64);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("recording thread");
                }
                session.finish()
            };
            let a = run_once();
            let b = run_once();
            assert_eq!(a.counters, b.counters, "counter merge must not depend on scheduling");
            assert_eq!(a.histograms, b.histograms);
            // 400 unlabeled adds plus 200 into the "odd" cell; `counter`
            // sums across labels.
            assert_eq!(a.counters.labeled("m.counter", ""), 400);
            assert_eq!(a.counters.labeled("m.counter", "odd"), 200);
            assert_eq!(a.counter("m.counter"), 600);
            assert_eq!(a.spans.len(), 400);
            let tasks_a: Vec<u64> = a.spans.iter().map(|s| s.task).collect();
            let tasks_b: Vec<u64> = b.spans.iter().map(|s| s.task).collect();
            assert_eq!(tasks_a, tasks_b, "span order must be task-id order, not arrival");
            let mut sorted = tasks_a.clone();
            sorted.sort_unstable();
            assert_eq!(tasks_a, sorted);
        }

        #[test]
        fn flight_ring_records_recent_events_and_stays_bounded() {
            let _serial = lock();
            let session = ObsSession::start().expect("no session open");
            // Overflow one shard's ring: only the newest FLIGHT_RING_CAP
            // survive, so the oldest label must be gone and the newest
            // present.
            for i in 0..(FLIGHT_RING_CAP as u64 + 8) {
                counter_add_labeled("f.counter", &format!("evt{i:04}"), 1);
            }
            {
                let _span = task_span("f.span", 9);
            }
            let dump = flight_dump_json();
            assert!(dump.contains("\"recording\": true"), "{dump}");
            assert!(!dump.contains("\"label\": \"evt0000\""), "oldest events must be evicted");
            let newest = format!("evt{:04}", FLIGHT_RING_CAP as u64 + 7);
            assert!(dump.contains(&newest), "{dump}");
            assert!(dump.contains("\"kind\": \"span\""), "{dump}");
            assert!(dump.contains("\"name\": \"f.span\", \"task\": 9"), "{dump}");
            // This thread's ring holds exactly its capacity: the span
            // plus the newest CAP-1 counters (count only this test's
            // labels — other tests may record on their own shards).
            assert_eq!(dump.matches("\"label\": \"evt").count(), FLIGHT_RING_CAP - 1);
            // After finish the generation closes: dumps go empty again.
            let data = session.finish();
            assert!(data.counter("f.counter") >= FLIGHT_RING_CAP as u64);
            assert!(flight_dump_json().contains("\"recording\": false"));
        }

        #[test]
        fn dropped_session_reopens_cleanly() {
            let _serial = lock();
            {
                let _session = ObsSession::start().expect("no session open");
                counter_add("d.counter", 1);
                // Dropped without finish: data discarded, lock released.
            }
            assert!(!active());
            let session = ObsSession::start().expect("drop must release the session");
            let data = session.finish();
            assert_eq!(data.counter("d.counter"), 0);
        }
    }
}
