//! The flat-state engine must be observationally identical to the seed
//! engine it replaced.
//!
//! The seed engine kept per-unit failure state in a `HashMap<u32, f64>`
//! and rebuilt the age snapshot by sorting at every decision point. The
//! production engine now keeps a dense `Vec<f64>` plus an incrementally
//! maintained recency list. This test re-implements the seed semantics
//! (hash map, sort-per-decision) as an independent oracle and checks that
//! both produce bit-identical [`RunStats`] on randomized small traces.
//! The sparse cases scatter a few failing units among far more
//! processors, the Exascale shape the slot-indexed state is built for.

use ckpt_platform::{AgeView, FailureTrace, Topology, TraceSet};
use ckpt_policies::{FixedPeriod, Policy, PolicySession};
use ckpt_sim::engine::simulate_traceset;
use ckpt_sim::{RunStats, SimOptions};
use ckpt_workload::JobSpec;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// Seed-engine re-implementation: `HashMap` unit state, snapshot sorted
/// from scratch at each decision. Mirrors the pre-refactor control flow
/// (downtime cascades, fault-prone recoveries, own-downtime shadowing).
fn reference_simulate(
    spec: &JobSpec,
    session: &mut dyn PolicySession,
    traces: &TraceSet,
) -> RunStats {
    let mut events: Vec<(f64, u32)> = traces
        .units
        .iter()
        .enumerate()
        .flat_map(|(u, tr)| tr.failures.iter().map(move |&t| (t, u as u32)))
        .collect();
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
    let ppu = traces.topology.procs_per_unit() as u32;
    let start = traces.start_time;

    let mut stats = RunStats {
        makespan: 0.0,
        failures: 0,
        work_time: 0.0,
        checkpoint_time: 0.0,
        lost_time: 0.0,
        downtime_time: 0.0,
        recovery_time: 0.0,
        chunks_completed: 0,
        decisions: 0,
        chunk_min: f64::INFINITY,
        chunk_max: 0.0,
        past_horizon: false,
    };
    let mut now = start;
    let mut remaining = spec.work;
    let mut cursor = events.partition_point(|&(t, _)| t < now);
    let mut last_failure: HashMap<u32, f64> = HashMap::new();
    for &(t, u) in &events[..cursor] {
        last_failure.insert(u, t);
    }
    let eps = spec.work * 1e-12;

    let shadowed = |lf: &HashMap<u32, f64>, t: f64, u: u32| match lf.get(&u) {
        Some(&prev) => t - prev < spec.downtime,
        None => false,
    };
    let ages_of = |lf: &HashMap<u32, f64>, now: f64| -> AgeView {
        let failed: Vec<(f64, u32)> = lf.values().map(|&t| (now - t, ppu)).collect();
        let pristine = spec.procs.saturating_sub(failed.len() as u64 * u64::from(ppu));
        AgeView::new(failed, pristine, now)
    };
    // Absorb the downtime starting at `now` plus cascading failures.
    let settle = |stats: &mut RunStats,
                  cursor: &mut usize,
                  lf: &mut HashMap<u32, f64>,
                  now: f64|
     -> f64 {
        let mut ready = now + spec.downtime;
        while *cursor < events.len() && events[*cursor].0 < ready {
            let (t, u) = events[*cursor];
            *cursor += 1;
            if shadowed(lf, t, u) {
                continue;
            }
            stats.failures += 1;
            lf.insert(u, t);
            ready = ready.max(t + spec.downtime);
        }
        stats.downtime_time += ready - now;
        ready
    };
    let pop_next = |cursor: &mut usize, lf: &HashMap<u32, f64>| -> Option<(f64, u32)> {
        while *cursor < events.len() {
            let (t, u) = events[*cursor];
            if shadowed(lf, t, u) {
                *cursor += 1;
            } else {
                return Some((t, u));
            }
        }
        None
    };

    while remaining > eps {
        stats.decisions += 1;
        assert!(stats.decisions < 1_000_000, "reference engine runaway");
        let ages = if session.wants_ages() {
            ages_of(&last_failure, now)
        } else {
            AgeView::all_pristine(spec.procs, now)
        };
        let proposed = session.next_chunk(remaining, &ages, now - start);
        let chunk = if !proposed.is_finite() || proposed <= 0.0 {
            remaining
        } else {
            proposed.min(remaining)
        };
        stats.chunk_min = stats.chunk_min.min(chunk);
        stats.chunk_max = stats.chunk_max.max(chunk);
        let attempt = chunk + spec.checkpoint;
        match pop_next(&mut cursor, &last_failure) {
            Some((tf, unit)) if tf < now + attempt => {
                stats.failures += 1;
                stats.lost_time += tf - now;
                cursor += 1;
                last_failure.insert(unit, tf);
                session.on_failure();
                now = settle(&mut stats, &mut cursor, &mut last_failure, tf);
                // Fault-prone recovery attempts.
                loop {
                    match pop_next(&mut cursor, &last_failure) {
                        Some((t2, u2)) if t2 < now + spec.recovery => {
                            stats.failures += 1;
                            stats.recovery_time += t2 - now;
                            cursor += 1;
                            last_failure.insert(u2, t2);
                            now = settle(&mut stats, &mut cursor, &mut last_failure, t2);
                        }
                        _ => {
                            stats.recovery_time += spec.recovery;
                            now += spec.recovery;
                            break;
                        }
                    }
                }
            }
            _ => {
                now += attempt;
                remaining -= chunk;
                stats.work_time += chunk;
                stats.checkpoint_time += spec.checkpoint;
                stats.chunks_completed += 1;
            }
        }
    }
    stats.makespan = now - start;
    stats.past_horizon = now > traces.horizon;
    stats
}

/// A session whose chunk size depends on the age snapshot, so the test
/// exercises the incrementally maintained ages, not just the event flow.
struct AgeSensitive {
    base: f64,
}

impl PolicySession for AgeSensitive {
    fn next_chunk(&mut self, remaining: f64, ages: &AgeView, _now: f64) -> f64 {
        let (pristine, _) = ages.pristine();
        let chunk = self.base + 0.01 * ages.min_age() + 0.5 * pristine as f64;
        chunk.max(1.0).min(remaining)
    }
}

fn traces_from_gaps(gaps: Vec<Vec<f64>>, horizon: f64) -> TraceSet {
    let units = gaps
        .into_iter()
        .map(|gs| {
            let mut t = 0.0;
            let mut failures = Vec::with_capacity(gs.len());
            for g in gs {
                t += g;
                failures.push(t);
            }
            FailureTrace { failures }
        })
        .collect();
    TraceSet { units, topology: Topology::per_processor(), horizon, start_time: 0.0 }
}

/// A session whose chunk size depends on how many units have failed and
/// on the youngest age, for platforms where the pristine count dwarfs
/// both.
struct FailedCountSensitive {
    base: f64,
}

impl PolicySession for FailedCountSensitive {
    fn next_chunk(&mut self, remaining: f64, ages: &AgeView, _now: f64) -> f64 {
        let chunk = self.base + 0.01 * ages.min_age() + 9.0 * ages.failed_ages().len() as f64;
        chunk.max(1.0).min(remaining)
    }
}

/// `procs` per-processor units, of which only those picked by `picks`
/// (a position in `[0, 1)` and inter-failure gaps each) ever fail.
fn sparse_traces(procs: u64, picks: Vec<(f64, Vec<f64>)>, horizon: f64) -> TraceSet {
    let mut failing: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (at, gs) in picks {
        let unit = ((at * procs as f64) as u64).min(procs - 1);
        failing.entry(unit).or_insert(gs);
    }
    let units = (0..procs)
        .map(|u| {
            let mut t = 0.0;
            let failures = failing
                .get(&u)
                .map(|gs| {
                    gs.iter()
                        .map(|g| {
                            t += g;
                            t
                        })
                        .collect()
                })
                .unwrap_or_default();
            FailureTrace { failures }
        })
        .collect();
    TraceSet { units, topology: Topology::per_processor(), horizon, start_time: 0.0 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_engine_matches_reference_fixed_period(
        gaps in proptest::collection::vec(
            proptest::collection::vec(20.0..600.0f64, 0..10), 1..4),
        work in 500.0..4_000.0f64,
        period in 60.0..900.0f64,
        checkpoint in 5.0..40.0f64,
    ) {
        let procs = gaps.len() as u64;
        let spec = JobSpec { procs, ..JobSpec::sequential(work, checkpoint, 25.0, 8.0) };
        let traces = traces_from_gaps(gaps, 1e9);
        let policy = FixedPeriod::new("p", period);
        let mut s1 = policy.session();
        let fast = simulate_traceset(&spec, &mut *s1, &traces, SimOptions::default());
        let mut s2 = policy.session();
        let slow = reference_simulate(&spec, &mut *s2, &traces);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn flat_engine_matches_reference_age_sensitive(
        gaps in proptest::collection::vec(
            proptest::collection::vec(15.0..500.0f64, 0..12), 1..5),
        work in 400.0..3_000.0f64,
        base in 40.0..400.0f64,
    ) {
        let procs = gaps.len() as u64;
        let spec = JobSpec { procs, ..JobSpec::sequential(work, 12.0, 30.0, 6.0) };
        let traces = traces_from_gaps(gaps, 1e9);
        let mut s1 = AgeSensitive { base };
        let fast = simulate_traceset(&spec, &mut s1, &traces, SimOptions::default());
        let mut s2 = AgeSensitive { base };
        let slow = reference_simulate(&spec, &mut s2, &traces);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn sparse_failing_units_match_reference_fixed_period(
        procs in 500u64..40_000u64,
        picks in proptest::collection::vec(
            (0.0..1.0f64, proptest::collection::vec(3.0..700.0f64, 1..6)), 1..5),
        work in 500.0..4_000.0f64,
        period in 60.0..900.0f64,
    ) {
        let spec = JobSpec { procs, ..JobSpec::sequential(work, 15.0, 25.0, 8.0) };
        let traces = sparse_traces(procs, picks, 1e9);
        let policy = FixedPeriod::new("p", period);
        let mut s1 = policy.session();
        let fast = simulate_traceset(&spec, &mut *s1, &traces, SimOptions::default());
        let mut s2 = policy.session();
        let slow = reference_simulate(&spec, &mut *s2, &traces);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn sparse_failing_units_match_reference_age_sensitive(
        procs in 500u64..40_000u64,
        picks in proptest::collection::vec(
            (0.0..1.0f64, proptest::collection::vec(3.0..500.0f64, 1..6)), 1..5),
        work in 400.0..3_000.0f64,
        base in 40.0..400.0f64,
    ) {
        let spec = JobSpec { procs, ..JobSpec::sequential(work, 12.0, 30.0, 6.0) };
        let traces = sparse_traces(procs, picks, 1e9);
        let mut s1 = FailedCountSensitive { base };
        let fast = simulate_traceset(&spec, &mut s1, &traces, SimOptions::default());
        let mut s2 = FailedCountSensitive { base };
        let slow = reference_simulate(&spec, &mut s2, &traces);
        prop_assert_eq!(fast, slow);
    }
}

/// The engine's state is per failing unit: a job on 2^40 processors with
/// three failures simulates without touching a per-processor array.
#[test]
fn simulate_with_two_to_the_forty_procs_and_three_failures_completes() {
    let spec = JobSpec { procs: 1 << 40, ..JobSpec::sequential(2_000.0, 10.0, 20.0, 5.0) };
    let picks = vec![(0.0, vec![100.0]), (0.5, vec![700.0]), (0.9, vec![1_300.0])];
    let traces = sparse_traces(3, picks, 1e9);
    let events = traces.platform_events();
    assert_eq!((events.len(), events.slot_count()), (3, 3));
    let policy = FixedPeriod::new("p", 250.0);
    let mut fixed = policy.session();
    let st = ckpt_sim::simulate(&spec, &mut *fixed, &events, 1, 0.0, 1e9, SimOptions::default());
    assert_eq!(st.failures, 3);
    assert!((st.work_time - 2_000.0).abs() < 1e-9);
    let mut aged = FailedCountSensitive { base: 200.0 };
    let st = ckpt_sim::simulate(&spec, &mut aged, &events, 1, 0.0, 1e9, SimOptions::default());
    assert_eq!(st.failures, 3);
}
