//! Property-based cross-crate tests: invariants of the execution engine,
//! the bounds, and the policies under randomised specs and traces.

use checkpointing_strategies::prelude::*;
use proptest::prelude::*;

/// Random but sane sequential job specs.
fn spec_strategy() -> impl Strategy<Value = JobSpec> {
    (
        1_000.0..200_000.0f64, // work
        1.0..500.0f64,         // checkpoint
        1.0..500.0f64,         // recovery
        0.0..100.0f64,         // downtime
    )
        .prop_map(|(w, c, r, d)| JobSpec::sequential(w, c, r, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn makespan_at_least_failure_free_time(
        spec in spec_strategy(),
        period in 100.0..50_000.0f64,
        seed in 0u64..1_000,
        mtbf in 500.0..1_000_000.0f64,
    ) {
        let dist = Exponential::from_mtbf(mtbf);
        let traces = TraceSet::generate(
            &dist, 1, Topology::per_processor(), 1e9, 0.0,
            SeedSequence::new(seed),
        );
        let policy = FixedPeriod::new("p", period);
        let mut s = policy.session();
        let st = simulate(
            &spec, &mut *s, &traces.platform_events(), 1, 0.0, 1e9,
            SimOptions::default(),
        );
        // At least the work plus one checkpoint.
        prop_assert!(st.makespan >= spec.work + spec.checkpoint - 1e-6);
        // Work conservation: exactly the job's work was retired.
        prop_assert!((st.work_time - spec.work).abs() < 1e-6 * spec.work);
        // Accounting identity.
        prop_assert!((st.accounted() - st.makespan).abs() < 1e-6 * st.makespan.max(1.0));
    }

    #[test]
    fn lower_bound_never_exceeds_policy(
        spec in spec_strategy(),
        period in 100.0..50_000.0f64,
        seed in 0u64..1_000,
        mtbf in 500.0..100_000.0f64,
    ) {
        let dist = Weibull::from_mtbf(0.7, mtbf);
        let traces = TraceSet::generate(
            &dist, 1, Topology::per_processor(), 1e9, 0.0,
            SeedSequence::new(seed),
        );
        let lb = lower_bound_makespan(&spec, &traces);
        let policy = FixedPeriod::new("p", period);
        let mut s = policy.session();
        let st = simulate(
            &spec, &mut *s, &traces.platform_events(), 1, 0.0, 1e9,
            SimOptions::default(),
        );
        prop_assert!(lb.makespan <= st.makespan + 1e-6,
            "LB {} > policy {}", lb.makespan, st.makespan);
        // The bound also conserves work.
        prop_assert!((lb.work_time - spec.work).abs() < 1e-6 * spec.work);
    }

    #[test]
    fn psuc_is_probability_and_monotone(
        x in 0.0..1e7f64,
        tau in 0.0..1e7f64,
        shape in 0.2..2.0f64,
        mtbf in 10.0..1e8f64,
    ) {
        let d = Weibull::from_mtbf(shape, mtbf);
        let p = d.psuc(x, tau);
        prop_assert!((0.0..=1.0).contains(&p));
        // Longer windows are never safer.
        let p2 = d.psuc(x * 2.0 + 1.0, tau);
        prop_assert!(p2 <= p + 1e-12);
    }

    #[test]
    fn expected_loss_bounded_by_window(
        x in 1.0..1e6f64,
        tau in 0.0..1e6f64,
        shape in 0.2..2.0f64,
        mtbf in 10.0..1e7f64,
    ) {
        let d = Weibull::from_mtbf(shape, mtbf);
        let e = d.expected_loss(x, tau);
        prop_assert!((0.0..=x).contains(&e), "loss {e} outside [0, {x}]");
    }

    #[test]
    fn optexp_chunk_count_is_stationary_point(
        work in 10_000.0..1e7f64,
        checkpoint in 10.0..2_000.0f64,
        mtbf in 1_000.0..1e6f64,
    ) {
        let lambda = 1.0 / mtbf;
        let k = checkpointing_strategies::policies::optexp::optimal_chunk_count(work, checkpoint, lambda);
        let spec = JobSpec::sequential(work, checkpoint, checkpoint, 10.0);
        let at = |kk: u64| checkpointing_strategies::policies::optexp::expected_makespan_k_chunks(
            &spec, lambda, kk);
        prop_assert!(at(k) <= at(k + 1) + 1e-9 * at(k).abs());
        if k > 1 {
            prop_assert!(at(k) <= at(k - 1) + 1e-9 * at(k).abs());
        }
    }
}
