//! What the process-wide caches buy, read off each run's
//! `perf.plan_cache` deltas: the first run of a cell misses its DP plans
//! and generates its traces; a repeat run of the same cell replays the
//! same lookups, so it misses nothing, generates nothing, and commits
//! the same bytes.
//!
//! Both caches (`DpCaches::global`, `TraceCache::global`) are
//! process-global, so a run's delta also counts any concurrent run's
//! traffic: every test in this binary takes the one lock below.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ckpt_exp::golden::golden_json;
use ckpt_exp::runner::{run_scenario, PeriodSearch, RunnerOptions};
use ckpt_exp::{DistSpec, PolicyKind, Scenario, TraceCache};
use ckpt_sim::SimOptions;
use std::sync::Mutex;

static CACHE_TESTS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CACHE_TESTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn fast_options() -> RunnerOptions {
    RunnerOptions {
        lower_bound: true,
        period_lb: Some(vec![0.5, 1.0, 2.0]),
        period_search: PeriodSearch::Full,
        sim: SimOptions::default(),
    }
}

/// A single-processor Weibull cell whose MTBF (in hours) no other test
/// in this binary uses, so its DP plans and traces start cold.
fn dp_cell(label: &str, mtbf_hours: f64, traces: usize) -> Scenario {
    let dist = DistSpec::Weibull { shape: 0.7, mtbf: mtbf_hours * 3_600.0 };
    let mut sc = Scenario::single_processor(dist, traces);
    sc.total_work = 12.0 * 3_600.0;
    sc.label = label.into();
    sc
}

fn kinds() -> [PolicyKind; 2] {
    [PolicyKind::DpNextFailure(Default::default()), PolicyKind::OptExp]
}

#[test]
fn repeat_run_of_a_cell_is_served_by_the_shared_caches() {
    let _serial = lock();
    let sc = dp_cell("repeat-cell", 23_417.0, 4);

    let cold = run_scenario(&sc, &kinds(), &fast_options());
    assert!(cold.perf.plan_cache.plans.misses > 0, "a cold cell must solve its DP plans");

    let traces_before = TraceCache::global().len();
    let warm = run_scenario(&sc, &kinds(), &fast_options());
    let plans = warm.perf.plan_cache.plans;
    assert!(plans.hits > 0, "the repeat run looks its plans up");
    assert_eq!(plans.misses, 0, "the repeat run must find every plan in the shared cache");
    assert_eq!(warm.perf.plan_cache.kernel_rows.misses, 0, "no DP solve, so no row build");
    assert_eq!(TraceCache::global().len(), traces_before, "the repeat run generates no trace");
    // Caches serve a pure function of their key: same bytes.
    assert_eq!(golden_json(&cold), golden_json(&warm));
}

/// `perf.plan_cache` is the run's own traffic, not the process total:
/// a second cell run after a first reports exactly the lookups it makes
/// again when repeated, with another cell's run in between.
#[test]
fn plan_cache_perf_is_a_per_run_delta() {
    let _serial = lock();
    let first = dp_cell("delta-first-cell", 29_311.0, 3);
    let second = dp_cell("delta-second-cell", 31_873.0, 3);

    let a = run_scenario(&first, &kinds(), &fast_options()).perf.plan_cache.plans;
    assert!(a.hits + a.misses > 0, "the first cell makes plan lookups");
    let b_cold = run_scenario(&second, &kinds(), &fast_options()).perf.plan_cache.plans;
    run_scenario(&first, &kinds(), &fast_options());
    let b_warm = run_scenario(&second, &kinds(), &fast_options()).perf.plan_cache.plans;

    assert!(b_cold.misses > 0, "the second cell starts cold");
    assert_eq!(b_warm.misses, 0);
    assert_eq!(
        b_cold.hits + b_cold.misses,
        b_warm.hits + b_warm.misses,
        "each run of the second cell counts only its own lookups"
    );
}

/// The caches change what a run computes, never what it simulates: a
/// warm repeat runs the same simulations over the same decisions and
/// failures as the cold run.
#[test]
fn warm_run_simulates_exactly_what_the_cold_run_did() {
    let _serial = lock();
    let sc = dp_cell("counters-cell", 37_591.0, 3);
    let cold = run_scenario(&sc, &kinds(), &fast_options()).perf;
    let warm = run_scenario(&sc, &kinds(), &fast_options()).perf;
    let counters = |p: &ckpt_exp::PipelinePerf| {
        (p.policy_sims, p.candidate_sims, p.candidate_grid_size, p.decisions, p.failures)
    };
    assert!(cold.decisions > 0 && cold.policy_sims > 0, "the cell simulates something");
    assert_eq!(counters(&cold), counters(&warm));
}
