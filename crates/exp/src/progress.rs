//! Live study progress: total/completed/in-flight item counts per
//! [`WorkItem`](crate::checkpoint::WorkItem) kind, derived from the
//! study's items plus the commit layer, with rates and ETA read through the
//! crate's one telemetry clock ([`crate::perf::clock_seconds`]).
//!
//! Two outputs, one determinism rule:
//!
//! * **`progress.json`** in the study store, rewritten atomically at
//!   chunk boundaries and checkpoint commits. Every field is
//!   byte-deterministic at any worker count *except* the ones
//!   quarantined under the clearly-marked
//!   `wall_clock_nondeterministic` object (elapsed, rate, ETA).
//! * **Console lines** on stderr (opt-in via `run --study … --progress`),
//!   rate-limited to roughly one per second.
//!
//! Nothing here feeds results: the reporter observes the run loop, and
//! the run loop never reads it back.

use crate::checkpoint::WorkItem;
use crate::error::Error;
use crate::jsonio::{escape_str, format_f64};
use crate::perf::clock_seconds;
use std::path::Path;

/// Fixed kind order of the `kinds` array (and the console breakdown).
const KIND_NAMES: [&str; 4] = ["policy", "lower_bound", "coarse", "refine"];

/// Minimum seconds between unforced console lines.
const CONSOLE_PERIOD_SECONDS: f64 = 1.0;

/// Map an item kind onto its [`KIND_NAMES`] slot.
fn kind_slot(item: &WorkItem) -> usize {
    use crate::checkpoint::ItemKind;
    match item.kind {
        ItemKind::Policy { .. } => 0,
        ItemKind::LowerBound => 1,
        ItemKind::Coarse { .. } => 2,
        ItemKind::Refine => 3,
    }
}

/// The live progress tracker the study run loop drives.
#[derive(Debug)]
pub struct StudyProgress {
    study: String,
    total: u64,
    resumed: u64,
    completed: u64,
    in_flight: u64,
    kind_total: [u64; 4],
    kind_completed: [u64; 4],
    kind_in_flight: [u64; 4],
    start_seconds: f64,
    last_console: f64,
    console: bool,
}

impl StudyProgress {
    /// Seed the tracker from a study's items; `is_done` marks the
    /// items restored from a resumed snapshot. `console` enables the
    /// stderr lines (`--progress`).
    pub fn new<'a>(
        study: &str,
        items: impl IntoIterator<Item = &'a WorkItem>,
        is_done: impl Fn(u64) -> bool,
        console: bool,
    ) -> Self {
        let mut p = Self {
            study: study.to_string(),
            total: 0,
            resumed: 0,
            completed: 0,
            in_flight: 0,
            kind_total: [0; 4],
            kind_completed: [0; 4],
            kind_in_flight: [0; 4],
            start_seconds: 0.0,
            last_console: 0.0,
            console,
        };
        for item in items {
            let k = kind_slot(item);
            p.total += 1;
            p.kind_total[k] += 1;
            if is_done(item.id) {
                p.resumed += 1;
                p.completed += 1;
                p.kind_completed[k] += 1;
            }
        }
        let now = clock_seconds();
        p.start_seconds = now;
        // Make the very first tick print immediately.
        p.last_console = now - CONSOLE_PERIOD_SECONDS;
        p
    }

    /// A chunk enters the executor: its items are now in flight.
    pub fn begin_chunk(&mut self, chunk: &[WorkItem]) {
        for item in chunk {
            self.in_flight += 1;
            self.kind_in_flight[kind_slot(item)] += 1;
        }
    }

    /// A chunk's results committed: in-flight items became completed.
    pub fn finish_chunk(&mut self, chunk: &[WorkItem]) {
        for item in chunk {
            self.in_flight = self.in_flight.saturating_sub(1);
            let k = kind_slot(item);
            self.kind_in_flight[k] = self.kind_in_flight[k].saturating_sub(1);
            self.completed += 1;
            self.kind_completed[k] += 1;
        }
    }

    /// Items completed so far (resumed + executed).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// `(items_per_second, eta_seconds)` over the items *this process*
    /// executed; `None` before the first completion (no basis for a
    /// rate yet).
    fn rate_eta(&self, now: f64) -> Option<(f64, f64)> {
        let executed = self.completed.saturating_sub(self.resumed);
        let elapsed = now - self.start_seconds;
        if executed == 0 || elapsed <= 0.0 {
            return None;
        }
        let rate = executed as f64 / elapsed;
        let eta = (self.total - self.completed) as f64 / rate;
        Some((rate, eta))
    }

    /// Render the `progress.json` document. Deterministic fields first;
    /// wall-clock-derived values are quarantined under
    /// `wall_clock_nondeterministic` (and are the *only* fields that
    /// may differ between byte-identical runs).
    pub fn snapshot_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"study\": \"{}\",\n", escape_str(&self.study)));
        out.push_str(&format!("  \"total\": {},\n", self.total));
        out.push_str(&format!("  \"completed\": {},\n", self.completed));
        out.push_str(&format!("  \"in_flight\": {},\n", self.in_flight));
        out.push_str(&format!("  \"resumed\": {},\n", self.resumed));
        out.push_str("  \"kinds\": [\n");
        for (k, name) in KIND_NAMES.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"kind\": \"{name}\", \"total\": {}, \"completed\": {}, \"in_flight\": {}}}{}\n",
                self.kind_total[k],
                self.kind_completed[k],
                self.kind_in_flight[k],
                if k + 1 < KIND_NAMES.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        let now = clock_seconds();
        let (rate, eta) = match self.rate_eta(now) {
            Some((r, e)) => (format_f64(r), format_f64(e)),
            None => ("null".to_string(), "null".to_string()),
        };
        out.push_str("  \"wall_clock_nondeterministic\": {\n");
        out.push_str(
            "    \"note\": \"quarantined timestamps: every field outside this object is byte-deterministic at any worker count\",\n",
        );
        out.push_str(&format!(
            "    \"elapsed_seconds\": {},\n",
            format_f64(now - self.start_seconds)
        ));
        out.push_str(&format!("    \"items_per_second\": {rate},\n"));
        out.push_str(&format!("    \"eta_seconds\": {eta}\n"));
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }

    /// Atomically (re)write `<dir>/progress.json`.
    ///
    /// # Errors
    /// [`Error::Checkpoint`] when the write or rename fails.
    pub fn write(&self, dir: &Path) -> Result<(), Error> {
        crate::checkpoint::write_atomic(&dir.join("progress.json"), &self.snapshot_json())
    }

    /// Print one stderr progress line, rate-limited to one per
    /// [`CONSOLE_PERIOD_SECONDS`] unless `force`. No-op when console
    /// output was not requested.
    pub fn console_tick(&mut self, force: bool) {
        if !self.console {
            return;
        }
        let now = clock_seconds();
        if !force && now - self.last_console < CONSOLE_PERIOD_SECONDS {
            return;
        }
        self.last_console = now;
        let pct = if self.total > 0 {
            100.0 * self.completed as f64 / self.total as f64
        } else {
            100.0
        };
        let pace = match self.rate_eta(now) {
            Some((rate, eta)) => format!("{rate:.1} items/s, eta {eta:.0}s"),
            None => "rate pending".to_string(),
        };
        eprintln!(
            "study {}: {}/{} items ({pct:.0}%), {} in flight, {pace}",
            self.study, self.completed, self.total, self.in_flight
        );
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "a quiet tick must leave the console clock reading untouched, bit for bit")]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::checkpoint::ItemKind;

    fn item(id: u64, kind: ItemKind) -> WorkItem {
        WorkItem { id, cell: 0, kind, trace_lo: 0, trace_hi: 1 }
    }

    fn items() -> Vec<WorkItem> {
        vec![
            item(0, ItemKind::Policy { policy: 0 }),
            item(1, ItemKind::Policy { policy: 1 }),
            item(2, ItemKind::LowerBound),
            item(3, ItemKind::Coarse { candidate: 0 }),
            item(4, ItemKind::Coarse { candidate: 1 }),
            item(5, ItemKind::Refine),
        ]
    }

    #[test]
    fn seeds_totals_per_kind_and_counts_resumed_as_completed() {
        let p = StudyProgress::new("s", &items(), |id| id < 2, false);
        assert_eq!(p.total, 6);
        assert_eq!(p.resumed, 2);
        assert_eq!(p.completed, 2);
        assert_eq!(p.kind_total, [2, 1, 2, 1]);
        assert_eq!(p.kind_completed, [2, 0, 0, 0]);
        assert_eq!(p.in_flight, 0);
    }

    #[test]
    fn chunk_transitions_move_items_in_flight_then_completed() {
        let all = items();
        let mut p = StudyProgress::new("s", &all, |_| false, false);
        p.begin_chunk(&all[0..3]);
        assert_eq!(p.in_flight, 3);
        assert_eq!(p.kind_in_flight, [2, 1, 0, 0]);
        assert_eq!(p.completed, 0);
        p.finish_chunk(&all[0..3]);
        assert_eq!(p.in_flight, 0);
        assert_eq!(p.completed, 3);
        assert_eq!(p.kind_completed, [2, 1, 0, 0]);
    }

    #[test]
    fn snapshot_json_quarantines_wall_clock_fields() {
        let all = items();
        let mut p = StudyProgress::new("s", &all, |id| id == 0, false);
        p.begin_chunk(&all[1..3]);
        let doc = p.snapshot_json();
        // Deterministic head...
        assert!(doc.contains("\"study\": \"s\""), "{doc}");
        assert!(doc.contains("\"total\": 6,"), "{doc}");
        assert!(doc.contains("\"completed\": 1,"), "{doc}");
        assert!(doc.contains("\"in_flight\": 2,"), "{doc}");
        assert!(doc.contains("\"resumed\": 1,"), "{doc}");
        assert!(doc.contains(
            "{\"kind\": \"policy\", \"total\": 2, \"completed\": 1, \"in_flight\": 1}"
        ), "{doc}");
        // ... and a clearly-marked quarantine for everything clocked.
        assert!(doc.contains("\"wall_clock_nondeterministic\""), "{doc}");
        assert!(doc.contains("\"elapsed_seconds\""), "{doc}");
        // Nothing executed yet in this process: no rate, no ETA.
        assert!(doc.contains("\"items_per_second\": null"), "{doc}");
        assert!(doc.contains("\"eta_seconds\": null"), "{doc}");
        // The doc parses as JSON.
        crate::jsonio::parse(&doc).expect("progress.json must parse");
    }

    #[test]
    fn rate_and_eta_appear_once_items_execute() {
        let all = items();
        let mut p = StudyProgress::new("s", &all, |_| false, false);
        p.begin_chunk(&all);
        p.finish_chunk(&all[0..4]);
        let (rate, eta) = p
            .rate_eta(p.start_seconds + 2.0)
            .expect("executed items must yield a rate");
        assert!((rate - 2.0).abs() < 1e-12, "{rate}");
        assert!((eta - 1.0).abs() < 1e-12, "{eta}");
        let doc = p.snapshot_json();
        assert!(!doc.contains("\"items_per_second\": null"), "{doc}");
    }

    #[test]
    fn write_creates_progress_json_atomically() {
        let dir = std::env::temp_dir().join(format!(
            "ckpt-progress-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let p = StudyProgress::new("s", &items(), |_| false, false);
        p.write(&dir).unwrap();
        let src = std::fs::read_to_string(dir.join("progress.json")).unwrap();
        crate::jsonio::parse(&src).expect("written progress.json must parse");
        assert!(!dir.join("progress.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kinds_array_lists_every_kind_once_in_fixed_order() {
        let all = items();
        let mut p = StudyProgress::new("s", &all, |_| false, false);
        p.begin_chunk(&all[5..]);
        let doc = p.snapshot_json();
        let rows = [
            "{\"kind\": \"policy\", \"total\": 2, \"completed\": 0, \"in_flight\": 0},",
            "{\"kind\": \"lower_bound\", \"total\": 1, \"completed\": 0, \"in_flight\": 0},",
            "{\"kind\": \"coarse\", \"total\": 2, \"completed\": 0, \"in_flight\": 0},",
            "{\"kind\": \"refine\", \"total\": 1, \"completed\": 0, \"in_flight\": 1}\n",
        ];
        let at: Vec<usize> =
            rows.iter().map(|r| doc.find(r).unwrap_or_else(|| panic!("{r} in {doc}"))).collect();
        assert!(at.windows(2).all(|w| w[0] < w[1]), "kinds out of order: {doc}");
    }

    #[test]
    fn finishing_a_chunk_never_begun_saturates_in_flight_at_zero() {
        let all = items();
        let mut p = StudyProgress::new("s", &all, |_| false, false);
        p.finish_chunk(&all[0..2]);
        assert_eq!(p.in_flight, 0);
        assert_eq!(p.kind_in_flight, [0; 4]);
        assert_eq!(p.completed(), 2);
        assert_eq!(p.kind_completed, [2, 0, 0, 0]);
    }

    #[test]
    fn rate_counts_only_the_items_this_process_executed() {
        let all = items();
        let mut p = StudyProgress::new("s", &all, |id| id < 2, false);
        assert!(p.rate_eta(p.start_seconds + 5.0).is_none(), "resumed items are no basis for a rate");
        p.begin_chunk(&all[2..4]);
        p.finish_chunk(&all[2..4]);
        assert!(p.rate_eta(p.start_seconds).is_none(), "no elapsed time, no rate");
        let (rate, eta) = p.rate_eta(p.start_seconds + 4.0).expect("two items executed");
        assert!((rate - 0.5).abs() < 1e-12, "{rate}");
        assert!((eta - 4.0).abs() < 1e-12, "{eta}");
    }

    #[test]
    fn console_lines_are_rate_limited_unless_forced() {
        let mut quiet = StudyProgress::new("s", &items(), |_| false, false);
        let before = quiet.last_console;
        quiet.console_tick(true);
        assert_eq!(quiet.last_console, before, "no console requested, no line");

        let mut p = StudyProgress::new("s", &items(), |_| false, true);
        p.console_tick(false);
        let first = p.last_console;
        assert!(first >= p.start_seconds, "the first tick prints at once");
        p.last_console = clock_seconds() + 60.0;
        let held = p.last_console;
        p.console_tick(false);
        assert_eq!(p.last_console, held, "a tick inside the period stays quiet");
        p.console_tick(true);
        assert!(p.last_console < held, "a forced tick prints regardless");
    }

    #[test]
    fn study_names_are_escaped_in_progress_json() {
        let p = StudyProgress::new("a \"quoted\"\\name", &items(), |_| false, false);
        let doc = p.snapshot_json();
        assert!(doc.contains(r#""study": "a \"quoted\"\\name","#), "{doc}");
        let parsed = crate::jsonio::parse(&doc).expect("escaped progress.json must parse");
        assert_eq!(
            parsed.get("study").and_then(crate::jsonio::Json::as_str),
            Some("a \"quoted\"\\name")
        );
    }

    /// A study's items arrive cell by cell, as one chained iterator.
    #[test]
    fn seeds_from_the_items_of_several_cells() {
        let first = items();
        let second = [item(6, ItemKind::Policy { policy: 0 }), item(7, ItemKind::LowerBound)];
        let p = StudyProgress::new("s", first.iter().chain(&second), |id| id >= 6, false);
        assert_eq!(p.total, 8);
        assert_eq!(p.resumed, 2);
        assert_eq!(p.kind_total, [3, 2, 2, 1]);
        assert_eq!(p.kind_completed, [1, 1, 0, 0]);
    }
}
