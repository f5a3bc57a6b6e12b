//! Cross-crate check of the event log against the engine's phase
//! accounting.

use checkpointing_strategies::prelude::*;
use checkpointing_strategies::sim::{simulate_logged, EventKind};

fn run_logged(
    spec: &JobSpec,
    traces: &TraceSet,
    period: f64,
) -> (RunStats, Vec<checkpointing_strategies::sim::Event>) {
    let policy = FixedPeriod::new("p", period);
    let mut s = policy.session();
    simulate_logged(
        spec,
        &mut *s,
        &traces.platform_events(),
        traces.topology.procs_per_unit() as u32,
        traces.start_time,
        traces.horizon,
        SimOptions::default(),
    )
}

fn sample_run() -> (JobSpec, RunStats, Vec<checkpointing_strategies::sim::Event>) {
    let spec = JobSpec::sequential(30_000.0, 50.0, 100.0, 10.0);
    let dist = Exponential::from_mtbf(2_500.0);
    let traces = TraceSet::generate(
        &dist,
        1,
        Topology::per_processor(),
        1e8,
        0.0,
        SeedSequence::from_label("energy-events"),
    );
    let (stats, log) = run_logged(&spec, &traces, 700.0);
    (spec, stats, log)
}

#[test]
fn event_log_is_consistent_with_stats() {
    let (spec, stats, log) = sample_run();
    assert!(stats.failures > 0, "want failures in this configuration");
    let failures = log.iter().filter(|e| matches!(e.kind, EventKind::Failure { .. })).count();
    let commits: f64 = log
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::ChunkCommitted { work } => Some(work),
            _ => None,
        })
        .sum();
    assert_eq!(failures as u64, stats.failures);
    assert!((commits - spec.work).abs() < 1e-6);
    // Every failure is followed by a PlatformReady and a RecoveryDone.
    let readies = log.iter().filter(|e| matches!(e.kind, EventKind::PlatformReady)).count();
    let recoveries = log.iter().filter(|e| matches!(e.kind, EventKind::RecoveryDone)).count();
    assert!(readies >= 1 && recoveries >= 1);
    assert!(readies <= failures);
}

#[test]
fn event_log_is_time_ordered_and_ends_at_the_makespan() {
    let (_, stats, log) = sample_run();
    for w in log.windows(2) {
        assert!(w[0].time <= w[1].time, "{:?} logged after {:?}", w[1], w[0]);
    }
    let last = log.last().expect("a run logs at least JobDone");
    assert_eq!(last.kind, EventKind::JobDone);
    assert!((last.time - stats.makespan).abs() < 1e-6, "start time is 0");
    assert_eq!(log.iter().filter(|e| e.kind == EventKind::JobDone).count(), 1);
}

#[test]
fn each_attempt_ends_in_a_commit_or_a_recovery() {
    let (_, stats, log) = sample_run();
    let count = |f: fn(&EventKind) -> bool| log.iter().filter(|e| f(&e.kind)).count() as u64;
    let starts = count(|k| matches!(k, EventKind::ChunkStart { .. }));
    let commits = count(|k| matches!(k, EventKind::ChunkCommitted { .. }));
    let struck = count(|k| matches!(k, EventKind::Failure { .. }));
    assert_eq!(starts, stats.decisions);
    assert_eq!(commits, stats.chunks_completed);
    assert_eq!(starts, commits + struck);
    assert_eq!(count(|k| matches!(k, EventKind::PlatformReady)), struck);
    assert_eq!(count(|k| matches!(k, EventKind::RecoveryDone)), struck);
}

#[test]
fn logging_leaves_the_run_unchanged() {
    let spec = JobSpec::sequential(30_000.0, 50.0, 100.0, 10.0);
    let traces = TraceSet::generate(
        &Exponential::from_mtbf(2_500.0),
        1,
        Topology::per_processor(),
        1e8,
        0.0,
        SeedSequence::from_label("energy-events"),
    );
    let (logged, _) = run_logged(&spec, &traces, 700.0);
    let policy = FixedPeriod::new("p", 700.0);
    let plain = simulate(
        &spec,
        &mut *policy.session(),
        &traces.platform_events(),
        1,
        0.0,
        traces.horizon,
        SimOptions::default(),
    );
    assert_eq!(logged, plain);
}

#[test]
fn failure_free_run_logs_start_commit_pairs() {
    let spec = JobSpec::sequential(30_000.0, 50.0, 100.0, 10.0);
    let traces = TraceSet {
        units: vec![checkpointing_strategies::platform::FailureTrace { failures: vec![] }].into(),
        topology: Topology::per_processor(),
        horizon: 1e8,
        start_time: 0.0,
    };
    let (stats, log) = run_logged(&spec, &traces, 700.0);
    // 42 chunks of 700 s and a last one of 600 s, each with a 50 s checkpoint.
    assert_eq!(stats.chunks_completed, 43);
    assert!((stats.makespan - (30_000.0 + 43.0 * 50.0)).abs() < 1e-6);
    assert_eq!(log.len(), 2 * 43 + 1);
    for pair in log[..86].chunks(2) {
        let (EventKind::ChunkStart { work: a }, EventKind::ChunkCommitted { work: b }) =
            (&pair[0].kind, &pair[1].kind)
        else {
            panic!("unexpected pair {pair:?}");
        };
        assert_eq!(a.to_bits(), b.to_bits());
        assert!((pair[1].time - pair[0].time - (a + 50.0)).abs() < 1e-9);
    }
}
