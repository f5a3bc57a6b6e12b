//! Cross-crate ordering properties: the paper's qualitative results must
//! hold in simulation — who wins, and where.
//!
//! Scales are chosen so the whole file runs in a couple of minutes on a
//! single core; the full-scale sweeps live in the `ckpt-exp` binary.

use checkpointing_strategies::exp::ScenarioResult;
use checkpointing_strategies::prelude::*;

/// A small but failure-heavy Weibull platform cell.
fn weibull_cell(procs: u64, traces: usize) -> Scenario {
    let mut sc = Scenario::petascale(
        DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * YEAR },
        procs,
        traces,
    );
    // Keep runtimes test-friendly.
    sc.label = format!("test-{}", sc.label);
    sc
}

/// Runner options with a slim PeriodLB grid (tests don't need the paper's
/// 481-candidate search).
fn test_options() -> RunnerOptions {
    RunnerOptions {
        period_lb: Some(vec![0.25, 0.5, 1.0, 2.0, 4.0]),
        ..Default::default()
    }
}

/// One cell through a one-cell study.
fn run(sc: &Scenario, kinds: &[PolicyKind], options: &RunnerOptions) -> ScenarioResult {
    let study = Study::new().with_kinds(kinds).with_options(options.clone());
    study.run_all(std::slice::from_ref(sc)).remove(0).expect("well-formed cell")
}

fn dp(quanta: usize) -> PolicyKind {
    PolicyKind::DpNextFailure(DpNextFailureConfig { quanta: Some(quanta) })
}

#[test]
fn lower_bound_below_every_policy() {
    let sc = weibull_cell(1 << 10, 5);
    let kinds = [
        PolicyKind::Young,
        PolicyKind::DalyLow,
        PolicyKind::DalyHigh,
        PolicyKind::OptExp,
        PolicyKind::Bouguerra,
        PolicyKind::Liu,
        dp(60),
    ];
    let r = run(&sc, &kinds, &test_options());
    let lb = r.get("LowerBound").expect("row").avg_degradation.expect("ran");
    for o in &r.outcomes {
        if o.name == "LowerBound" {
            continue;
        }
        if let Some(d) = o.avg_degradation {
            assert!(lb <= d + 1e-12, "LowerBound {lb} above {} = {d}", o.name);
        }
    }
}

#[test]
fn all_heuristic_degradations_at_least_one() {
    let sc = weibull_cell(1 << 10, 4);
    let r = run(
        &sc,
        &[PolicyKind::Young, PolicyKind::OptExp, dp(60)],
        &test_options(),
    );
    for o in &r.outcomes {
        if o.name == "LowerBound" {
            continue;
        }
        if let Some(d) = o.avg_degradation {
            assert!(d >= 1.0 - 1e-12, "{}: degradation {d} < 1", o.name);
        }
    }
}

#[test]
fn dp_next_failure_competitive_on_weibull_platform() {
    // Figure 4's shape: at scale, DPNextFailure must be at least as good
    // as the Exponential-minded heuristics under Weibull failures.
    let sc = weibull_cell(1 << 12, 8);
    let kinds = [
        PolicyKind::Young,
        PolicyKind::DalyLow,
        PolicyKind::DalyHigh,
        PolicyKind::OptExp,
        dp(100),
    ];
    let r = run(
        &sc,
        &kinds,
        &RunnerOptions { period_lb: None, lower_bound: false, ..Default::default() },
    );
    let dpv = r.get("DPNextFailure").expect("row").avg_degradation.expect("ran");
    for name in ["Young", "DalyLow", "DalyHigh", "OptExp"] {
        let h = r.get(name).expect(name).avg_degradation.expect("ran");
        assert!(
            dpv <= h + 0.02,
            "DPNextFailure {dpv} clearly worse than {name} {h}"
        );
    }
}

#[test]
fn bouguerra_suffers_from_rejuvenation_assumption() {
    // Figure 4: Bouguerra's rejuvenation assumption costs it dearly on
    // Weibull platforms relative to OptExp.
    let sc = weibull_cell(1 << 12, 6);
    let kinds = [PolicyKind::OptExp, PolicyKind::Bouguerra];
    let r = run(
        &sc,
        &kinds,
        &RunnerOptions { period_lb: None, lower_bound: false, ..Default::default() },
    );
    let opt = r.get("OptExp").expect("row").avg_degradation.expect("ran");
    let bou = r.get("Bouguerra").expect("row").avg_degradation.expect("ran");
    assert!(
        bou >= opt - 0.01,
        "Bouguerra {bou} unexpectedly beats OptExp {opt}"
    );
}

#[test]
fn exponential_heuristics_all_near_optimal() {
    // Figure 2's message: with Exponential failures every reasonable
    // periodic policy is within a few percent of the best.
    let mut sc = Scenario::petascale(
        DistSpec::Exponential { mtbf: 125.0 * YEAR },
        1 << 12,
        6,
    );
    sc.label = format!("test-{}", sc.label);
    let kinds = [
        PolicyKind::Young,
        PolicyKind::DalyLow,
        PolicyKind::DalyHigh,
        PolicyKind::OptExp,
    ];
    let r = run(&sc, &kinds, &test_options());
    for o in &r.outcomes {
        if o.name == "LowerBound" {
            continue;
        }
        let d = o.avg_degradation.expect("ran");
        assert!(d < 1.10, "{}: degradation {d} too high for Exponential", o.name);
    }
}

#[test]
fn log_based_roster_runs_end_to_end() {
    let mut sc = Scenario::petascale(DistSpec::LanlLog { cluster: 19 }, 1 << 12, 3);
    // Shrink the job so the failure count (≈ W(p)/platform-MTBF) stays
    // test-sized.
    sc.total_work /= 20.0;
    sc.label = format!("test-{}", sc.label);
    let kinds = [
        PolicyKind::Young,
        PolicyKind::DalyHigh,
        PolicyKind::OptExp,
        dp(60),
    ];
    let r = run(
        &sc,
        &kinds,
        &RunnerOptions { period_lb: Some(vec![0.5, 1.0, 2.0]), ..Default::default() },
    );
    let dprow = r.get("DPNextFailure").expect("row");
    assert!(dprow.avg_degradation.is_some(), "DPNextFailure must run on logs");
    // The platform is failure-dense (§6: MTBF ≈ 1,297 s at full scale);
    // expect real failure counts.
    assert!(dprow.mean_failures.expect("ran") > 0.0);
}
