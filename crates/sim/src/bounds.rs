//! `LowerBound` — the omniscient algorithm of §4.1.
//!
//! Knowing every failure date in advance, it computes until exactly
//! `C(p)` before each unavoidable failure, checkpoints just in time (losing
//! no work, ever), then pays the downtime/recovery chain and resumes. Its
//! makespan is an absolute lower bound on any policy's makespan for the
//! same trace; it is unattainable in practice.

use ckpt_platform::{PlatformEvents, TraceSet};
use ckpt_workload::JobSpec;

use crate::stats::RunStats;

/// Omniscient lower bound on the makespan achievable on this trace.
pub fn lower_bound_makespan(spec: &JobSpec, traces: &TraceSet) -> RunStats {
    lower_bound_on_events(spec, &traces.platform_events(), traces.start_time, traces.horizon)
}

/// [`lower_bound_makespan`] on a pre-merged event stream, for callers that
/// already hold one (the trace cache does).
pub fn lower_bound_on_events(
    spec: &JobSpec,
    events: &PlatformEvents,
    start_time: f64,
    horizon: f64,
) -> RunStats {
    let mut stats = RunStats::new();
    let mut now = start_time;
    let mut remaining = spec.work;
    let mut cursor = events.first_at_or_after(now);
    // Per-slot last failures, only to honour the no-failure-during-own-
    // downtime rule (sentinel `NEG_INFINITY` = not failed yet).
    let mut last_failure = vec![f64::NEG_INFINITY; events.slot_count()];
    let (times, slots) = (events.times(), events.slots());
    let shadowed = |last: &[f64], i: usize| times[i] - last[slots[i] as usize] < spec.downtime;
    let eps = spec.work * 1e-12;

    while remaining > eps {
        // Next effective failure.
        while cursor < times.len() && shadowed(&last_failure, cursor) {
            cursor += 1;
        }
        match times.get(cursor) {
            // Everything fits before the next failure (one final
            // just-in-time checkpoint included).
            Some(&tf) if now + remaining + spec.checkpoint > tf => {
                // Compute until C before the failure, checkpoint, lose
                // nothing.
                let window = (tf - now - spec.checkpoint).max(0.0);
                let work = window.min(remaining);
                remaining -= work;
                stats.work_time += work;
                if work > 0.0 {
                    stats.checkpoint_time += spec.checkpoint;
                    stats.chunks_completed += 1;
                }
                stats.failures += 1;
                last_failure[slots[cursor] as usize] = tf;
                cursor += 1;
                // Downtime (with cascades) then one recovery; the oracle
                // also foresees recovery failures and absorbs them.
                now = tf;
                let mut ready = now + spec.downtime;
                while cursor < times.len() && times[cursor] < ready + spec.recovery {
                    let (t, i) = (times[cursor], cursor);
                    cursor += 1;
                    if shadowed(&last_failure, i) {
                        continue;
                    }
                    stats.failures += 1;
                    last_failure[slots[i] as usize] = t;
                    if t < ready {
                        // Cascaded downtime.
                        ready = ready.max(t + spec.downtime);
                    } else {
                        // Failure during recovery: abort, extend.
                        stats.recovery_time += t - ready;
                        ready = t + spec.downtime;
                    }
                }
                stats.downtime_time += ready - now;
                stats.recovery_time += spec.recovery;
                now = ready + spec.recovery;
            }
            _ => {
                // Failure-free to the end: finish with one checkpoint.
                now += remaining + spec.checkpoint;
                stats.work_time += remaining;
                stats.checkpoint_time += spec.checkpoint;
                stats.chunks_completed += 1;
                remaining = 0.0;
            }
        }
    }
    stats.makespan = now - start_time;
    stats.past_horizon = now > horizon;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_math::SeedSequence;
    use ckpt_dist::Exponential;
    use ckpt_platform::{FailureTrace, Topology};
    use ckpt_policies::{FixedPeriod, Policy};

    fn manual(failures: Vec<Vec<f64>>) -> TraceSet {
        TraceSet {
            units: failures.into_iter().map(|f| FailureTrace { failures: f }).collect(),
            topology: Topology::per_processor(),
            horizon: 1e12,
            start_time: 0.0,
        }
    }

    #[test]
    fn failure_free_bound_is_w_plus_c() {
        let spec = JobSpec::sequential(1000.0, 10.0, 20.0, 5.0);
        let st = lower_bound_makespan(&spec, &manual(vec![vec![]]));
        assert!((st.makespan - 1010.0).abs() < 1e-9);
        assert_eq!(st.failures, 0);
    }

    #[test]
    fn one_failure_loses_nothing() {
        // Failure at 400: work 390 + C 10 checkpointed just in time, then
        // D 5 + R 20 (→ 425), then remaining 610 + C 10: total 1045.
        let spec = JobSpec::sequential(1000.0, 10.0, 20.0, 5.0);
        let st = lower_bound_makespan(&spec, &manual(vec![vec![400.0]]));
        assert!((st.makespan - 1045.0).abs() < 1e-9, "got {}", st.makespan);
        assert!((st.work_time - 1000.0).abs() < 1e-9);
        assert_eq!(st.failures, 1);
    }

    #[test]
    fn bound_never_exceeds_any_policy() {
        let spec = JobSpec::sequential(50_000.0, 60.0, 60.0, 10.0);
        let dist = Exponential::from_mtbf(3_000.0);
        for seed in 0..20u64 {
            let traces = ckpt_platform::TraceSet::generate(
                &dist,
                1,
                Topology::per_processor(),
                1e8,
                0.0,
                SeedSequence::new(seed),
            );
            let lb = lower_bound_makespan(&spec, &traces).makespan;
            for period in [500.0, 1_000.0, 2_000.0, 8_000.0] {
                let policy = FixedPeriod::new("p", period);
                let mut s = policy.session();
                let st = crate::engine::simulate_traceset(
                    &spec,
                    &mut *s,
                    &traces,
                    crate::SimOptions::default(),
                );
                assert!(
                    lb <= st.makespan + 1e-6,
                    "seed {seed} period {period}: LB {lb} > policy {}",
                    st.makespan
                );
            }
        }
    }

    #[test]
    fn dense_failures_still_terminate() {
        // Failures every 50 s for a while, then quiet.
        let fails: Vec<f64> = (1..200).map(|i| i as f64 * 50.0).collect();
        let spec = JobSpec::sequential(5_000.0, 10.0, 20.0, 5.0);
        let st = lower_bound_makespan(&spec, &manual(vec![fails]));
        assert!(st.makespan.is_finite());
        assert!((st.work_time - 5_000.0).abs() < 1e-6);
    }
}
