//! Merged session data and its two exporters: chrome://tracing JSON and
//! a `perf report`-style text summary.
//!
//! Pure data transforms — no clock, no globals — compiled with or
//! without the `obs` feature.

use crate::metrics::{CounterSnapshot, Histogram};
use crate::NO_TASK;
use serde_json::escape_str;
use std::collections::BTreeMap;

/// One finished span as handed to a recorder.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Dotted span name (`stage.policy_sims`, `task.policy_sim`, ...).
    pub name: &'static str,
    /// Owning task id, or [`NO_TASK`] for coordinator-side spans.
    pub task: u64,
    /// Start, microseconds since the session clock origin.
    pub start_us: u64,
    /// End, microseconds since the session clock origin.
    pub end_us: u64,
    /// Free-form labels attached while the span was open.
    pub labels: Vec<(&'static str, String)>,
}

/// One span in the merged, deterministically ordered session data.
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// Dotted span name.
    pub name: &'static str,
    /// Owning task id, or [`NO_TASK`].
    pub task: u64,
    /// Recording shard (≈ thread) index — display lane only.
    pub tid: u64,
    /// Per-shard record sequence; with `task` it defines merge order.
    pub seq: u64,
    /// Start, microseconds since the session clock origin.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Labels attached while the span was open.
    pub labels: Vec<(&'static str, String)>,
}

/// Events each recording shard's flight ring retains. Small enough that
/// a ring never grows past a few KiB, large enough that the dump around
/// a poisoned task shows the work leading up to it.
pub const FLIGHT_RING_CAP: usize = 64;

/// One entry of the flight recorder: a recent span closure or counter
/// delta, kept in a bounded per-shard ring so a killed or panicking run
/// leaves a readable last-N-events record. Pure data — the ring lives
/// in the feature-gated shard layer, but dumps must serialise (to an
/// empty document) without the feature too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Event time, microseconds since the session clock origin (span
    /// closure time for spans). Diagnostic only — never feeds results.
    pub at_us: u64,
    /// Recording shard (≈ thread) index.
    pub tid: u64,
    /// Per-shard flight sequence; with `at_us` and `tid` it orders the
    /// merged dump.
    pub seq: u64,
    /// `"span"` or `"counter"`.
    pub kind: &'static str,
    /// Span or counter name.
    pub name: &'static str,
    /// Owning task id for spans ([`NO_TASK`] for coordinator spans and
    /// all counters).
    pub task: u64,
    /// Span duration in microseconds, or the counter delta.
    pub value: u64,
    /// Counter label (empty when unlabeled; empty for spans).
    pub label: String,
}

/// Serialise flight events to the `flightrec.json` document. `recording`
/// says whether a live session fed the ring — `false` means the events
/// list is empty by construction (feature off, or no session open), and
/// the document says so instead of looking like a silent loss.
pub fn flight_json(events: &[FlightEvent], recording: bool) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n");
    out.push_str(&format!("  \"recording\": {recording},\n"));
    out.push_str(&format!("  \"ring_capacity_per_shard\": {FLIGHT_RING_CAP},\n"));
    out.push_str("  \"events\": [\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"at_us\": {}, \"tid\": {}, \"seq\": {}, \"kind\": \"{}\", \
             \"name\": \"{}\"",
            e.at_us,
            e.tid,
            e.seq,
            escape_str(e.kind),
            escape_str(e.name)
        ));
        if e.task != NO_TASK {
            out.push_str(&format!(", \"task\": {}", e.task));
        }
        out.push_str(&format!(", \"value\": {}", e.value));
        if !e.label.is_empty() {
            out.push_str(&format!(", \"label\": \"{}\"", escape_str(&e.label)));
        }
        out.push('}');
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Everything one [`ObsSession`](crate::ObsSession) recorded, merged
/// across shards.
///
/// Merge determinism: counters / gauges / histograms are keyed maps
/// folded with commutative operations (sum, max), so their content is
/// independent of thread scheduling; spans are sorted by
/// `(task, seq, name)`, which is reproducible whenever the underlying
/// run is (each task runs on one thread, so its `seq`s are ordered).
/// Timestamps inside spans are wall-clock and vary run to run — they
/// are profile data, not goldens.
#[derive(Debug, Clone, Default)]
pub struct ObsData {
    /// Session wall time, microseconds.
    pub wall_us: u64,
    /// All counters, keyed `(name, label)`.
    pub counters: CounterSnapshot,
    /// Max-folded gauges by name.
    pub gauges: BTreeMap<&'static str, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Spans in `(task, seq, name)` order.
    pub spans: Vec<SpanRow>,
}

impl ObsData {
    /// Sum of counter `name` across labels.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.total(name)
    }

    /// Total seconds across all spans named exactly `name`.
    pub fn span_total_seconds(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_us as f64).sum::<f64>()
            / 1e6
    }

    /// chrome://tracing JSON ("trace event format", `X` complete
    /// events). Load via `chrome://tracing` or <https://ui.perfetto.dev>.
    /// One lane (`tid`) per recording shard, so the heavy-first drain
    /// and shard contention are visible directly.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let cat = s.name.split('.').next().unwrap_or("obs");
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 0, \
                 \"tid\": {}, \"ts\": {}, \"dur\": {}",
                escape_str(s.name),
                escape_str(cat),
                s.tid,
                s.start_us,
                s.dur_us
            ));
            if s.task != NO_TASK || !s.labels.is_empty() {
                out.push_str(", \"args\": {");
                let mut first = true;
                if s.task != NO_TASK {
                    out.push_str(&format!("\"task\": {}", s.task));
                    first = false;
                }
                for (k, v) in &s.labels {
                    if !first {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\": \"{}\"", escape_str(k), escape_str(v)));
                    first = false;
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// A `perf report`-style text summary: span totals by name, then
    /// counters, gauges, and histograms. Deterministic given identical
    /// counter/histogram content (timings obviously vary).
    pub fn perf_report(&self) -> String {
        let mut out = String::new();
        let shards = self.spans.iter().map(|s| s.tid).collect::<std::collections::BTreeSet<_>>();
        out.push_str(&format!(
            "# perf report — wall {:.3} s, {} recording shard(s), {} span(s)\n",
            self.wall_us as f64 / 1e6,
            shards.len(),
            self.spans.len()
        ));

        // Span totals by name, heaviest first (name-tiebreak keeps the
        // listing deterministic when totals tie).
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.dur_us;
        }
        let mut ranked: Vec<_> = by_name.into_iter().collect();
        ranked.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
        if !ranked.is_empty() {
            out.push_str("\n## spans (totals by name, heaviest first)\n");
            out.push_str(&format!(
                "{:<42} {:>8} {:>12} {:>12}\n",
                "name", "count", "total s", "mean ms"
            ));
            for (name, (count, total_us)) in ranked {
                out.push_str(&format!(
                    "{:<42} {:>8} {:>12.3} {:>12.3}\n",
                    name,
                    count,
                    total_us as f64 / 1e6,
                    total_us as f64 / 1e3 / count as f64
                ));
            }
        }

        if !self.counters.0.is_empty() {
            out.push_str("\n## counters\n");
            for ((name, label), value) in &self.counters.0 {
                if label.is_empty() {
                    out.push_str(&format!("{name:<58} {value:>12}\n"));
                } else {
                    out.push_str(&format!(
                        "{:<58} {:>12}\n",
                        format!("{name} [{label}]"),
                        value
                    ));
                }
            }
        }

        if !self.gauges.is_empty() {
            out.push_str("\n## gauges (max)\n");
            for (name, value) in &self.gauges {
                out.push_str(&format!("{name:<58} {value:>12}\n"));
            }
        }

        if !self.histograms.is_empty() {
            out.push_str("\n## histograms\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "{:<42} count={} min={:.3} p50≈{:.3} p90≈{:.3} max={:.3} mean={:.3}\n",
                    name,
                    h.count,
                    if h.count == 0 { 0.0 } else { h.min },
                    h.quantile(0.5),
                    h.quantile(0.9),
                    if h.count == 0 { 0.0 } else { h.max },
                    h.mean()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample() -> ObsData {
        let mut d = ObsData { wall_us: 2_000_000, ..Default::default() };
        d.counters.0.insert(("dp.sweeps".into(), String::new()), 42);
        d.counters.0.insert(("plans.hit".into(), "weibull".into()), 7);
        d.gauges.insert("wave.width", 8);
        let mut h = Histogram::new();
        h.record(3.0);
        h.record(5.0);
        d.histograms.insert("sim.decisions", h);
        d.spans.push(SpanRow {
            name: "stage.policy_sims",
            task: NO_TASK,
            tid: 0,
            seq: 0,
            start_us: 10,
            dur_us: 1_500_000,
            labels: vec![],
        });
        d.spans.push(SpanRow {
            name: "task.policy_sim",
            task: 3,
            tid: 1,
            seq: 0,
            start_us: 20,
            dur_us: 900_000,
            labels: vec![("policy", "DPNextFailure".into())],
        });
        d
    }

    #[test]
    fn chrome_trace_is_structurally_sound() {
        let j = sample().chrome_trace_json();
        assert!(j.contains("\"traceEvents\""));
        assert!(j.contains("\"name\": \"stage.policy_sims\""));
        assert!(j.contains("\"cat\": \"stage\""));
        assert!(j.contains("\"args\": {\"task\": 3, \"policy\": \"DPNextFailure\"}"));
        // Coordinator span has no args block at all (no task, no labels).
        assert!(!j.contains("\"task\": 18446744073709551615"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn perf_report_lists_everything() {
        let r = sample().perf_report();
        assert!(r.contains("wall 2.000 s"));
        assert!(r.contains("stage.policy_sims"));
        assert!(r.contains("dp.sweeps"));
        assert!(r.contains("plans.hit [weibull]"));
        assert!(r.contains("wave.width"));
        assert!(r.contains("sim.decisions"));
        // Heaviest span first.
        let stage = r.find("stage.policy_sims").unwrap();
        let task = r.find("task.policy_sim").unwrap();
        assert!(stage < task);
    }

    #[test]
    fn span_totals_sum_by_exact_name() {
        let d = sample();
        assert!((d.span_total_seconds("stage.policy_sims") - 1.5).abs() < 1e-9);
        assert_eq!(d.span_total_seconds("stage.nope"), 0.0);
    }

    #[test]
    fn flight_json_emits_events_and_degrades_empty() {
        let events = vec![
            FlightEvent {
                at_us: 10,
                tid: 0,
                seq: 0,
                kind: "counter",
                name: "exec.task_poisoned",
                task: NO_TASK,
                value: 1,
                label: "7".into(),
            },
            FlightEvent {
                at_us: 25,
                tid: 1,
                seq: 0,
                kind: "span",
                name: "study.item",
                task: 7,
                value: 900,
                label: String::new(),
            },
        ];
        let j = flight_json(&events, true);
        assert!(j.contains("\"recording\": true"));
        assert!(j.contains("\"name\": \"exec.task_poisoned\""));
        assert!(j.contains("\"label\": \"7\""));
        assert!(j.contains("\"task\": 7"));
        // Counters carry no task key; NO_TASK never leaks into the JSON.
        assert!(!j.contains("18446744073709551615"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());

        let empty = flight_json(&[], false);
        assert!(empty.contains("\"recording\": false"));
        assert!(empty.contains("\"events\": [\n  ]"));
        assert_eq!(empty.matches('{').count(), empty.matches('}').count());
    }
}
