//! Cross-crate validation of Theorem 1: the analytic optimum against the
//! discrete-event simulator.

use checkpointing_strategies::prelude::*;

const TRACES: u64 = 150;

/// Mean simulated makespan of a fixed-period policy over Exponential
/// traces.
fn mean_makespan(spec: &JobSpec, mtbf: f64, period: f64, label: &str) -> f64 {
    let dist = Exponential::from_mtbf(mtbf);
    let policy = FixedPeriod::new("p", period);
    let mut total = 0.0;
    for i in 0..TRACES {
        let traces = TraceSet::generate(
            &dist,
            1,
            Topology::per_processor(),
            20.0 * YEAR,
            0.0,
            SeedSequence::from_label(label).child(i),
        );
        let mut s = policy.session();
        let st = simulate(
            &spec.clone(),
            &mut *s,
            &traces.platform_events(),
            1,
            0.0,
            traces.horizon,
            SimOptions::default(),
        );
        total += st.makespan;
    }
    total / TRACES as f64
}

#[test]
fn simulated_makespan_matches_theorem1_expectation() {
    // E[T*] from Theorem 1 vs the simulator, MTBF = 1 day.
    let spec = JobSpec::table1_single_processor();
    let mtbf = DAY;
    let opt = OptExp::from_mtbf(&spec, mtbf);
    let analytic = checkpointing_strategies::quick::expected_makespan(&spec, mtbf);
    let simulated = mean_makespan(&spec, mtbf, opt.period(), "thm1-match");
    let rel = (simulated - analytic).abs() / analytic;
    assert!(
        rel < 0.05,
        "simulated {simulated} vs analytic {analytic} (rel {rel})"
    );
}

#[test]
fn optexp_period_beats_perturbed_periods() {
    // The Theorem-1 period must (statistically) dominate 4× longer and 4×
    // shorter periods.
    let spec = JobSpec::table1_single_processor();
    let mtbf = 6.0 * HOUR;
    let opt = OptExp::from_mtbf(&spec, mtbf).period();
    let at_opt = mean_makespan(&spec, mtbf, opt, "thm1-perturb");
    let short = mean_makespan(&spec, mtbf, opt / 4.0, "thm1-perturb");
    let long = mean_makespan(&spec, mtbf, opt * 4.0, "thm1-perturb");
    assert!(at_opt < short, "opt {at_opt} vs short {short}");
    assert!(at_opt < long, "opt {at_opt} vs long {long}");
}

#[test]
fn analytic_k_star_attains_the_simulated_minimum() {
    // The makespan-vs-K curve is very flat near the optimum (§5.1.1), so
    // the sampled argmin wanders; the meaningful check is that K*'s
    // simulated makespan matches the swept minimum to within noise, while
    // far-off K values are clearly worse.
    let spec = JobSpec::sequential(2.0 * DAY, 600.0, 600.0, 60.0);
    let mtbf = 6.0 * HOUR;
    let lambda = 1.0 / mtbf;
    let k_star =
        checkpointing_strategies::policies::optexp::optimal_chunk_count(spec.work, spec.checkpoint, lambda);
    let mut best_v = f64::INFINITY;
    for k in (1..=(2 * k_star + 4)).step_by(3) {
        let v = mean_makespan(&spec, mtbf, spec.work / k as f64, "thm1-ksweep");
        best_v = best_v.min(v);
    }
    let at_star = mean_makespan(&spec, mtbf, spec.work / k_star as f64, "thm1-ksweep");
    // 1.5 % band: with 150 traces the paired sampling noise of the mean
    // is ~1 % on this flat optimum.
    assert!(
        at_star <= best_v * 1.015,
        "K* = {k_star} simulates to {at_star}, swept minimum {best_v}"
    );
    // Sanity: extreme K values are measurably worse.
    let at_one = mean_makespan(&spec, mtbf, spec.work, "thm1-ksweep");
    assert!(at_one > best_v * 1.05, "K = 1 ({at_one}) should be clearly worse");
}

#[test]
fn proposition5_parallel_optimum() {
    // Parallel OptExp on p processors equals sequential Theorem 1 with
    // rate pλ — verified through the public API.
    let p = 64u64;
    let year = YEAR;
    let spec = JobSpec::table1_petascale(p);
    let opt = OptExp::from_mtbf(&spec, 125.0 * year);
    assert!((opt.platform_rate() - p as f64 / (125.0 * year)).abs() < 1e-18);
    assert!(opt.period() > 0.0 && opt.period() <= spec.work);
}

#[test]
fn k_chunk_closed_form_matches_simulation_over_lambda_and_k() {
    // The proof of Theorem 1 gives E[T] for any K equal chunks; the
    // simulated mean must sit within 4 standard errors of it for every
    // (λ, K) cell, on K*'s neighbours and far from the optimum alike.
    // Every run must finish inside the trace horizon: a truncated run
    // would bias the mean low and let the oracle pass vacuously.
    const RUNS: u64 = 300;
    let spec = JobSpec::sequential(2.0 * DAY, 600.0, 600.0, 60.0);
    for mtbf in [12.0 * HOUR, DAY, 2.0 * DAY] {
        let lambda = 1.0 / mtbf;
        let k_star =
            checkpointing_strategies::policies::optexp::optimal_chunk_count(spec.work, spec.checkpoint, lambda);
        let ks = [1, k_star - 1, k_star, k_star + 1, 4 * k_star];
        let dist = Exponential::from_mtbf(mtbf);
        let mut samples = vec![Vec::with_capacity(RUNS as usize); ks.len()];
        for i in 0..RUNS {
            let traces = TraceSet::generate(
                &dist,
                1,
                Topology::per_processor(),
                20.0 * YEAR,
                0.0,
                SeedSequence::from_label("thm1-k-oracle").child(i),
            );
            let events = traces.platform_events();
            for (&k, out) in ks.iter().zip(&mut samples) {
                let policy = FixedPeriod::new("p", spec.work / k as f64);
                let mut s = policy.session();
                let st =
                    simulate(&spec, &mut *s, &events, 1, 0.0, traces.horizon, SimOptions::default());
                assert!(!st.past_horizon, "MTBF {mtbf}, K = {k}: run {i} hit the horizon");
                out.push(st.makespan);
            }
        }
        for (&k, sample) in ks.iter().zip(&samples) {
            let sim = Summary::from_samples(sample);
            let se = sim.std_dev() / (RUNS as f64).sqrt();
            let analytic =
                checkpointing_strategies::policies::optexp::expected_makespan_k_chunks(&spec, lambda, k);
            let z = (sim.mean() - analytic) / se;
            assert!(
                z.abs() < 4.0,
                "MTBF {mtbf}, K = {k}: simulated {} vs closed form {analytic} (z = {z:.2})",
                sim.mean()
            );
        }
    }
}
