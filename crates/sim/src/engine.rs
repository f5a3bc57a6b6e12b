//! Trace-driven execution engine (failed-only rejuvenation — the paper's
//! main model).
//!
//! Unit state costs O(failing units), not O(processors): it is indexed by
//! each event's *slot* (its unit's rank among the units that ever fail,
//! [`PlatformEvents::slots`]) and holds a last-failure date per slot
//! (sentinel `NEG_INFINITY` = not failed yet) plus a move-to-front list
//! of the failed slots, most recent first. A failure updates the list in
//! O(1), and since failures arrive in time order the list is the dates
//! descending, which yields the policy's age snapshot in O(f) without
//! sorting. The event stream is consumed through the structure-of-arrays
//! [`PlatformEvents`] so the hot scan for the next failure only touches
//! the packed date array.

use ckpt_platform::{AgeView, PlatformEvents, TraceSet};
use ckpt_policies::PolicySession;
use ckpt_workload::JobSpec;

use crate::events::{EventKind, EventLog};
use crate::stats::RunStats;

/// Engine options.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Safety cap on decision points; exceeded only by a pathological
    /// policy (e.g. returning the minimum chunk forever).
    pub max_decisions: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self { max_decisions: 50_000_000 }
    }
}

/// Execute a job under `session` against a pre-merged platform event
/// stream.
///
/// * `spec.procs` must be covered by the trace set that produced `events`;
/// * `procs_per_unit`/`start_time`/`horizon` come from the [`TraceSet`].
///
/// Prefer [`simulate_traceset`] unless you are re-using one merged stream
/// across many policies (as `PeriodLB` does).
pub fn simulate(
    spec: &JobSpec,
    session: &mut dyn PolicySession,
    events: &PlatformEvents,
    procs_per_unit: u32,
    start_time: f64,
    horizon: f64,
    options: SimOptions,
) -> RunStats {
    let mut log = EventLog::new(false);
    simulate_impl(spec, session, events, procs_per_unit, start_time, horizon, options, &mut log)
}

/// As [`simulate`], additionally returning the full event log.
#[allow(clippy::too_many_arguments)]
pub fn simulate_logged(
    spec: &JobSpec,
    session: &mut dyn PolicySession,
    events: &PlatformEvents,
    procs_per_unit: u32,
    start_time: f64,
    horizon: f64,
    options: SimOptions,
) -> (RunStats, Vec<crate::events::Event>) {
    let mut log = EventLog::new(true);
    let stats = simulate_impl(
        spec, session, events, procs_per_unit, start_time, horizon, options, &mut log,
    );
    (stats, log.into_events())
}

/// End-of-list marker of the recency list.
const NIL: u32 = u32::MAX;

/// Failure state of the units that fail in the stream, indexed by slot
/// ([`PlatformEvents::slots`]), so it costs O(failing units) whatever the
/// processor count: the last-failure date per slot (sentinel
/// `NEG_INFINITY` = not failed yet) and a move-to-front list of the
/// failed slots, most recent failure first. Failures arrive in time
/// order, so the list is the failed units' dates descending and the age
/// snapshot is a walk of it rather than a sort.
struct UnitState {
    last_failure: Vec<f64>,
    /// Neighbours of each slot in the recency list (`NIL` at the ends).
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Most recently failed slot.
    head: u32,
    /// Number of slots in the list.
    failed: u64,
}

impl UnitState {
    /// State after the failures before `cursor` (pre-start history).
    fn preload(events: &PlatformEvents, cursor: usize) -> Self {
        let n = events.slot_count();
        let mut state = Self {
            last_failure: vec![f64::NEG_INFINITY; n],
            prev: vec![NIL; n],
            next: vec![NIL; n],
            head: NIL,
            failed: 0,
        };
        for (&t, &slot) in events.times()[..cursor].iter().zip(&events.slots()[..cursor]) {
            state.note_failure(slot, t);
        }
        state
    }

    /// Whether the event `(t, slot)` falls inside the unit's own downtime
    /// (the paper forbids failures during a downtime).
    #[inline]
    fn shadowed(&self, t: f64, slot: u32, downtime: f64) -> bool {
        // Never-failed units have `t − (−∞) = ∞`, which is not shadowed.
        t - self.last_failure[slot as usize] < downtime
    }

    /// Record a counted failure of the unit in `slot` at time `t`: O(1).
    /// Failures are consumed in time order, so `t` is (weakly) the latest
    /// date in the list and the slot moves to its front.
    fn note_failure(&mut self, slot: u32, t: f64) {
        let s = slot as usize;
        let old = std::mem::replace(&mut self.last_failure[s], t);
        if old.is_finite() {
            if self.head == slot {
                return;
            }
            // Unlink (rare: repeat failures). Not the head, so it has a prev.
            let (p, n) = (self.prev[s], self.next[s]);
            self.next[p as usize] = n;
            if n != NIL {
                self.prev[n as usize] = p;
            }
        } else {
            self.failed += 1;
        }
        self.prev[s] = NIL;
        self.next[s] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
    }

    /// Build the age snapshot without sorting (the list is descending in
    /// date, so ages come out ascending as [`AgeView`] requires). `buf` is
    /// a recycled backing vector — the decision loop reclaims it from the
    /// previous snapshot via [`AgeView::into_failed`], so steady-state
    /// simulation allocates no per-decision memory.
    fn ages_into(
        &self,
        procs: u64,
        procs_per_unit: u32,
        now: f64,
        mut buf: Vec<(f64, u32)>,
    ) -> AgeView {
        buf.clear();
        let mut s = self.head;
        while s != NIL {
            buf.push((now - self.last_failure[s as usize], procs_per_unit));
            s = self.next[s as usize];
        }
        let pristine = procs.saturating_sub(self.failed * u64::from(procs_per_unit));
        AgeView::from_sorted(buf, pristine, now)
    }
}

/// The event at `cursor`: its date, unit and slot.
#[inline]
fn event(events: &PlatformEvents, cursor: usize) -> (f64, u32, u32) {
    (events.times()[cursor], events.units()[cursor], events.slots()[cursor])
}

/// Pop the next event at or after the cursor, skipping events shadowed
/// by their own unit's downtime. The cursor is left on the popped event.
fn pop_next(
    events: &PlatformEvents,
    cursor: &mut usize,
    state: &UnitState,
    downtime: f64,
) -> Option<(f64, u32, u32)> {
    while *cursor < events.len() {
        let (t, u, slot) = event(events, *cursor);
        if state.shadowed(t, slot, downtime) {
            *cursor += 1;
        } else {
            return Some((t, u, slot));
        }
    }
    None
}

#[allow(clippy::too_many_arguments)]
fn simulate_impl(
    spec: &JobSpec,
    session: &mut dyn PolicySession,
    events: &PlatformEvents,
    procs_per_unit: u32,
    start_time: f64,
    horizon: f64,
    options: SimOptions,
    log: &mut EventLog,
) -> RunStats {
    let mut stats = RunStats::new();
    let mut now = start_time;
    let mut remaining = spec.work;
    let mut cursor = events.first_at_or_after(now);
    let mut state = UnitState::preload(events, cursor);
    let mut decisions = 0u64;
    // Smallest work slice the engine tracks; below this the job is done.
    let eps = spec.work * 1e-12;
    // Recycled backing storage for the per-decision age snapshot.
    let mut age_buf: Vec<(f64, u32)> = Vec::new();

    while remaining > eps {
        decisions += 1;
        assert!(
            decisions <= options.max_decisions,
            "simulate: exceeded {} decisions — policy is not making progress",
            options.max_decisions
        );
        let snapshot = session.wants_ages();
        let ages = if snapshot {
            state.ages_into(spec.procs, procs_per_unit, now, std::mem::take(&mut age_buf))
        } else {
            AgeView::all_pristine(spec.procs, now)
        };
        let chunk = sanitize_chunk(session.next_chunk(remaining, &ages, now - start_time), remaining);
        if snapshot {
            age_buf = ages.into_failed();
        }
        stats.observe_chunk(chunk);
        let attempt = chunk + spec.checkpoint;
        log.push(now, EventKind::ChunkStart { work: chunk });
        match pop_next(events, &mut cursor, &state, spec.downtime) {
            Some((tf, unit, slot)) if tf < now + attempt => {
                // Failure during compute or checkpoint.
                stats.failures += 1;
                stats.lost_time += tf - now;
                cursor += 1;
                state.note_failure(slot, tf);
                session.on_failure();
                log.push(tf, EventKind::Failure { unit });
                now = tf;
                now = settle_downtime(spec, &mut stats, &mut cursor, &mut state, events, now);
                log.push(now, EventKind::PlatformReady);
                now = run_recovery(spec, &mut stats, &mut cursor, &mut state, events, now);
                log.push(now, EventKind::RecoveryDone);
            }
            _ => {
                // Success: chunk computed and checkpointed.
                now += attempt;
                remaining -= chunk;
                stats.work_time += chunk;
                stats.checkpoint_time += spec.checkpoint;
                stats.chunks_completed += 1;
                log.push(now, EventKind::ChunkCommitted { work: chunk });
            }
        }
    }
    log.push(now, EventKind::JobDone);
    stats.decisions = decisions;
    stats.makespan = now - start_time;
    stats.past_horizon = now > horizon;
    stats
}

/// Convenience wrapper over a [`TraceSet`].
pub fn simulate_traceset(
    spec: &JobSpec,
    session: &mut dyn PolicySession,
    traces: &TraceSet,
    options: SimOptions,
) -> RunStats {
    let events = traces.platform_events();
    simulate(
        spec,
        session,
        &events,
        traces.topology.procs_per_unit() as u32,
        traces.start_time,
        traces.horizon,
        options,
    )
}

/// A policy's proposal clamped into `(0, remaining]`: a non-finite or
/// non-positive one runs the whole remainder.
pub(crate) fn sanitize_chunk(chunk: f64, remaining: f64) -> f64 {
    if !chunk.is_finite() || chunk <= 0.0 {
        remaining
    } else {
        chunk.min(remaining)
    }
}

/// Absorb the downtime of the failure at `now` plus any cascading failures
/// on other units that strike before the platform is whole again. Returns
/// the time at which all processors are up.
fn settle_downtime(
    spec: &JobSpec,
    stats: &mut RunStats,
    cursor: &mut usize,
    state: &mut UnitState,
    events: &PlatformEvents,
    now: f64,
) -> f64 {
    let mut ready = now + spec.downtime;
    while *cursor < events.len() && events.times()[*cursor] < ready {
        let (t, _, slot) = event(events, *cursor);
        *cursor += 1;
        if state.shadowed(t, slot, spec.downtime) {
            continue; // own downtime
        }
        stats.failures += 1;
        state.note_failure(slot, t);
        ready = ready.max(t + spec.downtime);
    }
    stats.downtime_time += ready - now;
    ready
}

/// Attempt recoveries (duration `R`, fault-prone) until one completes.
fn run_recovery(
    spec: &JobSpec,
    stats: &mut RunStats,
    cursor: &mut usize,
    state: &mut UnitState,
    events: &PlatformEvents,
    mut now: f64,
) -> f64 {
    loop {
        match pop_next(events, cursor, state, spec.downtime) {
            Some((tf, _, slot)) if tf < now + spec.recovery => {
                // Failure during recovery: abort, downtime, retry.
                stats.failures += 1;
                stats.recovery_time += tf - now;
                *cursor += 1;
                state.note_failure(slot, tf);
                now = settle_downtime(spec, stats, cursor, state, events, tf);
            }
            _ => {
                stats.recovery_time += spec.recovery;
                return now + spec.recovery;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_math::SeedSequence;
    use ckpt_dist::Exponential;
    use ckpt_platform::{FailureTrace, Topology};
    use ckpt_policies::{FixedPeriod, Policy};

    fn manual_traces(failures: Vec<Vec<f64>>, horizon: f64) -> TraceSet {
        TraceSet {
            units: failures.into_iter().map(|f| FailureTrace { failures: f }).collect(),
            topology: Topology::per_processor(),
            horizon,
            start_time: 0.0,
        }
    }

    #[test]
    fn failure_free_run_is_exact() {
        // W = 1000, C = 10, period 250 → 4 chunks → makespan 1040.
        let spec = JobSpec::sequential(1000.0, 10.0, 20.0, 5.0);
        let traces = manual_traces(vec![vec![]], 1e9);
        let policy = FixedPeriod::new("p", 250.0);
        let mut s = policy.session();
        let st = simulate_traceset(&spec, &mut *s, &traces, SimOptions::default());
        assert!((st.makespan - 1040.0).abs() < 1e-9);
        assert_eq!(st.failures, 0);
        assert_eq!(st.chunks_completed, 4);
        assert!((st.work_time - 1000.0).abs() < 1e-9);
        assert!((st.checkpoint_time - 40.0).abs() < 1e-9);
    }

    #[test]
    fn single_failure_replays_chunk() {
        // One failure at t = 100 during the first chunk (0..250+10).
        // Timeline: lose 100, downtime 5 → 105, recovery 20 → 125,
        // then 4 chunks of 260 each → 125 + 1040 = 1165.
        let spec = JobSpec::sequential(1000.0, 10.0, 20.0, 5.0);
        let traces = manual_traces(vec![vec![100.0]], 1e9);
        let policy = FixedPeriod::new("p", 250.0);
        let mut s = policy.session();
        let st = simulate_traceset(&spec, &mut *s, &traces, SimOptions::default());
        assert!((st.makespan - 1165.0).abs() < 1e-9, "makespan {}", st.makespan);
        assert_eq!(st.failures, 1);
        assert!((st.lost_time - 100.0).abs() < 1e-9);
        assert!((st.downtime_time - 5.0).abs() < 1e-9);
        assert!((st.recovery_time - 20.0).abs() < 1e-9);
    }

    #[test]
    fn failure_during_checkpoint_counts() {
        // Failure at t = 255, inside the checkpoint (250..260).
        let spec = JobSpec::sequential(1000.0, 10.0, 20.0, 5.0);
        let traces = manual_traces(vec![vec![255.0]], 1e9);
        let policy = FixedPeriod::new("p", 250.0);
        let mut s = policy.session();
        let st = simulate_traceset(&spec, &mut *s, &traces, SimOptions::default());
        // 255 lost + 5 D + 20 R + full 1040 = 1320.
        assert!((st.makespan - 1320.0).abs() < 1e-9, "makespan {}", st.makespan);
        assert_eq!(st.chunks_completed, 4);
    }

    #[test]
    fn failure_during_recovery_cascades() {
        // Failure at 100; recovery 105..125 is hit again at 110.
        let spec = JobSpec::sequential(1000.0, 10.0, 20.0, 5.0);
        let traces = manual_traces(vec![vec![100.0, 110.0]], 1e9);
        let policy = FixedPeriod::new("p", 250.0);
        let mut s = policy.session();
        let st = simulate_traceset(&spec, &mut *s, &traces, SimOptions::default());
        // 100 lost + D(5) → 105; recovery aborted at 110 (5 s) + D → 115;
        // recovery 20 → 135; + 1040 = 1175.
        assert!((st.makespan - 1175.0).abs() < 1e-9, "makespan {}", st.makespan);
        assert_eq!(st.failures, 2);
    }

    #[test]
    fn own_downtime_shadows_second_failure() {
        // Second failure of the same unit 2 s after the first (within
        // D = 5): must be ignored entirely.
        let spec = JobSpec::sequential(1000.0, 10.0, 20.0, 5.0);
        let traces = manual_traces(vec![vec![100.0, 102.0]], 1e9);
        let policy = FixedPeriod::new("p", 250.0);
        let mut s = policy.session();
        let st = simulate_traceset(&spec, &mut *s, &traces, SimOptions::default());
        assert_eq!(st.failures, 1);
        assert!((st.makespan - 1165.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_downtimes_cascade() {
        // Two units fail 2 s apart: platform is whole again at the later
        // failure + D.
        let spec = JobSpec { procs: 2, ..JobSpec::sequential(1000.0, 10.0, 20.0, 5.0) };
        let traces = manual_traces(vec![vec![100.0], vec![102.0]], 1e9);
        let policy = FixedPeriod::new("p", 250.0);
        let mut s = policy.session();
        let st = simulate_traceset(&spec, &mut *s, &traces, SimOptions::default());
        assert_eq!(st.failures, 2);
        // lost 100, blocked until 102 + 5 = 107, recovery → 127, + 1040.
        assert!((st.makespan - 1167.0).abs() < 1e-9, "makespan {}", st.makespan);
    }

    #[test]
    fn ages_reflect_failures() {
        // Probe the ages the engine hands to the policy.
        struct Probe {
            snapshots: Vec<(u64, f64)>,
        }
        impl PolicySession for Probe {
            fn next_chunk(&mut self, remaining: f64, ages: &AgeView, _now: f64) -> f64 {
                let (pristine, _) = ages.pristine();
                self.snapshots.push((pristine, ages.min_age()));
                remaining.min(250.0)
            }
        }
        let spec = JobSpec { procs: 3, ..JobSpec::sequential(500.0, 10.0, 20.0, 5.0) };
        let traces = manual_traces(vec![vec![100.0], vec![], vec![]], 1e9);
        let mut probe = Probe { snapshots: vec![] };
        simulate_traceset(&spec, &mut probe, &traces, SimOptions::default());
        // First decision: all pristine.
        assert_eq!(probe.snapshots[0].0, 3);
        // After the failure at 100: 2 pristine, failed unit age = 25
        // (D + R elapsed since the failure).
        assert_eq!(probe.snapshots[1].0, 2);
        assert!((probe.snapshots[1].1 - 25.0).abs() < 1e-9);
    }

    #[test]
    fn accounting_adds_up_to_makespan() {
        let spec = JobSpec::sequential(20_000.0, 30.0, 60.0, 10.0);
        let dist = Exponential::from_mtbf(2_000.0);
        let traces = TraceSet::generate(
            &dist,
            1,
            Topology::per_processor(),
            1e7,
            0.0,
            SeedSequence::from_label("engine-accounting"),
        );
        let policy = FixedPeriod::new("p", 400.0);
        let mut s = policy.session();
        let st = simulate_traceset(&spec, &mut *s, &traces, SimOptions::default());
        assert!(st.failures > 0, "want at least one failure for this test");
        assert!(
            (st.accounted() - st.makespan).abs() < 1e-6 * st.makespan,
            "accounted {} vs makespan {}",
            st.accounted(),
            st.makespan
        );
    }

    #[test]
    fn more_failures_longer_makespan() {
        let spec = JobSpec::sequential(100_000.0, 60.0, 60.0, 10.0);
        let policy = FixedPeriod::new("p", 3_000.0);
        let mk = |mtbf: f64| {
            let dist = Exponential::from_mtbf(mtbf);
            let traces = TraceSet::generate(
                &dist,
                1,
                Topology::per_processor(),
                1e8,
                0.0,
                SeedSequence::from_label("engine-mtbf"),
            );
            let mut s = policy.session();
            simulate_traceset(&spec, &mut *s, &traces, SimOptions::default()).makespan
        };
        assert!(mk(5_000.0) > mk(500_000.0));
    }

    #[test]
    fn event_log_records_the_run() {
        let spec = JobSpec::sequential(500.0, 10.0, 20.0, 5.0);
        let traces = manual_traces(vec![vec![100.0]], 1e9);
        let events = traces.platform_events();
        let policy = FixedPeriod::new("p", 250.0);
        let mut s = policy.session();
        let (stats, log) = crate::engine::simulate_logged(
            &spec,
            &mut *s,
            &events,
            1,
            0.0,
            1e9,
            SimOptions::default(),
        );
        use crate::events::EventKind;
        // One failure, two committed chunks, one job-done marker.
        let failures = log.iter().filter(|e| matches!(e.kind, EventKind::Failure { .. })).count();
        let commits = log
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ChunkCommitted { .. }))
            .count();
        assert_eq!(failures as u64, stats.failures);
        assert_eq!(commits as u64, stats.chunks_completed);
        assert!(matches!(log.last().expect("non-empty").kind, EventKind::JobDone));
        // Time-ordered.
        for w in log.windows(2) {
            assert!(w[0].time <= w[1].time + 1e-9);
        }
        // Committed work sums to the job's work.
        let committed: f64 = log
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ChunkCommitted { work } => Some(work),
                _ => None,
            })
            .sum();
        assert!((committed - spec.work).abs() < 1e-9);
    }

    #[test]
    fn node_granularity_fails_whole_node() {
        // 4-proc nodes: one unit failure must leave p−4 pristine procs.
        struct Probe(Vec<u64>);
        impl PolicySession for Probe {
            fn next_chunk(&mut self, remaining: f64, ages: &AgeView, _now: f64) -> f64 {
                self.0.push(ages.pristine().0);
                remaining.min(300.0)
            }
        }
        let spec = JobSpec { procs: 8, ..JobSpec::sequential(600.0, 10.0, 20.0, 5.0) };
        let traces = TraceSet {
            units: vec![
                FailureTrace { failures: vec![50.0] },
                FailureTrace { failures: vec![] },
            ]
            .into(),
            topology: Topology::nodes_of(4),
            horizon: 1e9,
            start_time: 0.0,
        };
        let mut probe = Probe(vec![]);
        simulate_traceset(&spec, &mut probe, &traces, SimOptions::default());
        assert_eq!(probe.0[0], 8);
        assert_eq!(probe.0[1], 4);
    }
}
