//! Cross-crate validation of the §3.1 rejuvenation analysis: the analytic
//! Figure 1 formulas against the two simulation drivers.

use checkpointing_strategies::prelude::*;

const DOWNTIME: f64 = 60.0;

/// Empirical platform MTBF under failed-only rejuvenation from traces.
fn empirical_failed_only_mtbf(dist: &dyn FailureDistribution, p: usize, runs: u64) -> f64 {
    let horizon = 50.0 * dist.mean() / p as f64;
    let mut failures = 0usize;
    let mut span = 0.0;
    for i in 0..runs {
        let ts = TraceSet::generate(
            dist,
            p,
            Topology::per_processor(),
            horizon,
            0.0,
            SeedSequence::from_label("rejuv-models").child(i),
        );
        failures += ts.platform_events().len();
        span += horizon;
    }
    span / failures.max(1) as f64
}

#[test]
fn failed_only_traces_match_renewal_formula_exponential() {
    // For Exponential units the trace-driven platform MTBF must equal
    // μ/p (the traces carry no downtime, so compare against μ/p, not
    // (μ+D)/p).
    let p = 64usize;
    let mtbf = 10_000.0;
    let d = Exponential::from_mtbf(mtbf);
    let measured = empirical_failed_only_mtbf(&d, p, 40);
    let expected = mtbf / p as f64;
    let rel = (measured - expected).abs() / expected;
    assert!(rel < 0.05, "measured {measured}, expected {expected}");
}

#[test]
fn weibull_trace_platform_rate_between_bounds() {
    // Sub-exponential Weibull front-loads failures, so over a finite
    // horizon the empirical platform MTBF sits at or below the asymptotic
    // μ/p.
    let p = 64usize;
    let mtbf = 10_000.0;
    let d = Weibull::from_mtbf(0.7, mtbf);
    let measured = empirical_failed_only_mtbf(&d, p, 40);
    let asymptotic = mtbf / p as f64;
    assert!(
        measured < asymptotic * 1.10,
        "measured {measured} ≫ asymptotic {asymptotic}"
    );
    assert!(measured > asymptotic * 0.3, "measured {measured} implausibly low");
}

#[test]
fn rejuvenate_all_driver_matches_min_distribution() {
    // The rejuvenate-all driver's failure count over a fixed job must be
    // consistent with the min-of-p Weibull MTBF.
    let p = 256u64;
    let proc = Weibull::from_mtbf(0.7, 125.0 * YEAR);
    let plat = proc.min_of(p);
    let plat_mtbf = plat.mean();
    let spec = JobSpec {
        procs: p,
        ..JobSpec::sequential(40.0 * plat_mtbf, 600.0, 600.0, DOWNTIME)
    };
    let policy = young(&spec, plat_mtbf * p as f64);
    let runs = 12u64;
    let mut failures = 0u64;
    let mut span = 0.0;
    for i in 0..runs {
        let mut s = policy.session();
        let st = simulate_rejuvenate_all(&spec, &mut *s, &plat, i, SimOptions::default());
        failures += st.failures;
        span += st.makespan - st.downtime_time; // failures pause during downtime
    }
    let measured = span / failures.max(1) as f64;
    let rel = (measured - plat_mtbf).abs() / plat_mtbf;
    assert!(
        rel < 0.25,
        "measured platform MTBF {measured}, analytic {plat_mtbf}"
    );
}

#[test]
fn figure1_crossover_direction() {
    // At tiny p rejuvenate-all can win (k = 1 always, k < 1 at p = 1);
    // at scale failed-only always wins for k < 1.
    let w = Weibull::from_mtbf(0.7, 125.0 * YEAR);
    let small_all = checkpointing_strategies::platform::platform_mtbf_rejuvenate_all(&w, DOWNTIME, 1);
    let small_failed = checkpointing_strategies::platform::platform_mtbf_failed_only(w.mean(), DOWNTIME, 1);
    // p = 1: the two models coincide up to the downtime bookkeeping.
    assert!((small_all - small_failed).abs() < DOWNTIME + 1.0);
    let big_all = checkpointing_strategies::platform::platform_mtbf_rejuvenate_all(&w, DOWNTIME, 1 << 16);
    let big_failed = checkpointing_strategies::platform::platform_mtbf_failed_only(w.mean(), DOWNTIME, 1 << 16);
    assert!(big_failed > 3.0 * big_all);
}
