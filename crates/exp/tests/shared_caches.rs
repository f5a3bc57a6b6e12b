//! What the process-wide caches buy, read off each run's
//! `perf.plan_cache` deltas: the first run of a cell misses its DP plans
//! and generates its traces; a repeat run of the same cell replays the
//! same lookups, so it misses nothing, generates nothing, and commits
//! the same bytes. A sequential cell's one-age solves never build a
//! kernel row, nor does a parallel Exponential cell, whose memoryless
//! states are one-age too; a parallel Weibull cell's multi-age solves
//! do, and read them back.
//!
//! A study is different: it cannot be repeated mid-run, so once no
//! cell of it that reads a trace stream has a pending item, the stream
//! is released.
//!
//! Both caches (`DpCaches::global`, `TraceCache::global`) are
//! process-global, so a run's delta also counts any concurrent run's
//! traffic: every test in this binary takes the one lock below.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ckpt_exp::golden::golden_json;
use ckpt_exp::runner::{run_scenario, RunnerOptions};
use ckpt_exp::{run_in_memory, DistSpec, PolicyKind, Scenario, StudyDef, TraceCache};
use ckpt_policies::DpCaches;
use ckpt_sim::SimOptions;
use ckpt_workload::YEAR;
use std::sync::Mutex;

static CACHE_TESTS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CACHE_TESTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn fast_options() -> RunnerOptions {
    RunnerOptions {
        lower_bound: true,
        period_lb: Some(vec![0.5, 1.0, 2.0]),
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

    let traces_before = TraceCache::global().streams_of("repeat-cell");
    let warm = run_scenario(&sc, &kinds(), &fast_options());
    let plans = warm.perf.plan_cache.plans;
    assert!(plans.hits > 0, "the repeat run looks its plans up");
    assert_eq!(plans.misses, 0, "the repeat run must find every plan in the shared cache");
    assert_eq!(warm.perf.plan_cache.kernel_rows.misses, 0, "no DP solve, so no row build");
    assert_eq!(traces_before, 4, "run_scenario keeps its streams cached");
    assert_eq!(TraceCache::global().streams_of("repeat-cell"), 4, "the repeat run generates no trace");
    // Caches serve a pure function of their key: same bytes.
    assert_eq!(golden_json(&cold), golden_json(&warm));
}

/// A sequential cell plans over one processor age, so every DP solve is
/// a one-age state: it memoises its plan and never touches the
/// kernel-row layer, whose rows it could never read back.
#[test]
fn cold_sequential_cell_builds_no_kernel_row() {
    let _serial = lock();
    let sc = dp_cell("one-age-cell", 41_113.0, 3);
    let cold = run_scenario(&sc, &kinds(), &fast_options()).perf.plan_cache;
    assert!(cold.plans.misses > 0, "a cold cell must solve its DP plans");
    assert_eq!(cold.kernel_rows.misses, 0, "a one-age solve builds no cached row");
    assert_eq!(cold.kernel_rows.hits, 0, "a one-age solve reads no cached row");
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

/// Which parallel cells use the kernel-row layer is a property of the
/// failure law: an Exascale Exponential cell plans on the platform size
/// alone, so its states are one-age, recur as plan hits and never touch
/// the row layer, while a Petascale Weibull cell's multi-age solves fill
/// rows and read them back across states.
#[test]
fn only_age_dependent_parallel_cells_use_kernel_rows() {
    let _serial = lock();
    let dp_only = [PolicyKind::DpNextFailure(Default::default())];
    let options = RunnerOptions { lower_bound: false, period_lb: None, ..fast_options() };

    let mut exp = Scenario::exascale(DistSpec::Exponential { mtbf: 1_171.0 * YEAR }, 1 << 16, 2);
    exp.label = "rows-exa-exp-cell".into();
    let exp = run_scenario(&exp, &dp_only, &options).perf.plan_cache;
    assert!(exp.plans.misses > 0, "the Exponential cell solves its DP plans");
    assert!(exp.plans.hits > 0, "a memoryless state's plan recurs");
    let rows = exp.kernel_rows;
    assert_eq!((rows.hits, rows.misses), (0, 0), "a memoryless solve uses no kernel row");

    let weibull = DistSpec::Weibull { shape: 0.7, mtbf: 119.0 * YEAR };
    let mut peta = Scenario::petascale(weibull, 1 << 12, 2);
    peta.label = "rows-peta-weibull-cell".into();
    let rows = run_scenario(&peta, &dp_only, &options).perf.plan_cache.kernel_rows;
    assert!(rows.misses > 0, "a Weibull multi-age solve builds kernel rows");
    assert!(rows.hits > 0, "later Weibull solves read the rows back");
}

/// A store-less study releases every trace stream once its last reader
/// ran: two cells of one label at different platform sizes (which share
/// one stream, widened) and a cell of another label leave nothing of
/// either label in the shared cache, while their results are whole. The
/// DP plans of the third cell's distribution go with it.
#[test]
fn store_less_study_releases_each_stream_after_its_last_reader() {
    let _serial = lock();
    let options = RunnerOptions { lower_bound: false, period_lb: None, ..fast_options() };
    let dist = DistSpec::Exponential { mtbf: 97.0 * YEAR };
    let shared = |procs| {
        let mut sc = Scenario::petascale(dist.clone(), procs, 2);
        sc.label = "release-shared-cell".into();
        (sc, vec![PolicyKind::Young], options.clone())
    };
    let other = (dp_cell("release-other-cell", 43_691.0, 2), kinds().to_vec(), options.clone());
    let def = StudyDef::new("release", [shared(1 << 10), shared(1 << 11), other]);

    let plans_before = DpCaches::global().stats().plans;
    for result in run_in_memory(&def) {
        let result = result.expect("every cell runs");
        assert!(result.outcomes.iter().all(|o| o.avg_degradation.is_some()), "{}", result.label);
    }
    for label in ["release-shared-cell", "release-other-cell"] {
        assert_eq!(TraceCache::global().streams_of(label), 0, "{label} is still cached");
    }
    let plans = DpCaches::global().stats().plans;
    assert!(plans.misses > plans_before.misses, "the third cell solves DP plans");
    assert_eq!(plans.entries, plans_before.entries, "its plans outlived the study");
}
