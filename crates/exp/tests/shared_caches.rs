//! What the process-wide caches buy, read as perfbench reads them: the
//! `DpCaches::global().stats().delta_since(..)` traffic around a run.
//! The first copy of a cell in a study misses its DP plans; a second
//! copy of the same cell replays the same lookups, so it misses
//! nothing and commits the same bytes. A sequential cell's one-age
//! solves never build a kernel row, nor does a parallel Exponential
//! cell, whose memoryless states are one-age too; a parallel Weibull
//! cell's multi-age solves do, and read them back.
//!
//! Once no cell of a study that reads a trace stream or a
//! distribution's plans has a pending item, they are released.
//!
//! Both caches (`DpCaches::global`, `TraceCache::global`) are
//! process-global, so a run's delta also counts any concurrent run's
//! traffic: every test in this binary takes the one lock below.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ckpt_exp::golden::golden_json;
use ckpt_exp::{run_in_memory, DistSpec, PolicyKind, RunnerOptions, Scenario, Study, StudyDef};
use ckpt_exp::TraceCache;
use ckpt_policies::{DpCacheStats, DpCaches};
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

/// The shared DP caches' traffic while `run` runs.
fn traffic<R>(run: impl FnOnce() -> R) -> (DpCacheStats, R) {
    let before = DpCaches::global().stats();
    let out = run();
    (DpCaches::global().stats().delta_since(&before), out)
}

/// `cells` through a study of the DP roster, each result unwrapped.
fn run_dp(cells: &[Scenario], options: RunnerOptions) -> Vec<ckpt_exp::ScenarioResult> {
    let study = Study::new().with_kinds(kinds()).with_options(options);
    study.run_all(cells).into_iter().map(|r| r.expect("cell runs")).collect()
}

/// A study that holds a cell twice solves each of its plans once: the
/// second copy finds every plan the first solved, so the study misses
/// no more than a study of the cell alone, and both copies commit the
/// same bytes.
#[test]
fn repeat_run_of_a_cell_is_served_by_the_shared_caches() {
    let _serial = lock();
    let sc = dp_cell("repeat-cell", 23_417.0, 4);

    let (once, alone) = traffic(|| run_dp(std::slice::from_ref(&sc), fast_options()));
    assert!(once.plans.misses > 0, "a cold cell must solve its DP plans");
    let (twice, copies) = traffic(|| run_dp(&[sc.clone(), sc.clone()], fast_options()));
    assert_eq!(twice.plans.misses, once.plans.misses, "the second copy solves no plan");
    assert!(twice.plans.hits > once.plans.hits, "the second copy looks its plans up");
    assert_eq!(twice.kernel_rows.misses, 0, "no DP solve builds a row");
    assert_eq!(TraceCache::global().streams_of("repeat-cell"), 0, "the study released its stream");
    // Caches serve a pure function of their key: same bytes.
    assert_eq!(golden_json(&copies[0]), golden_json(&alone[0]));
    assert_eq!(golden_json(&copies[1]), golden_json(&alone[0]));
}

/// A sequential cell plans over one processor age, so every DP solve is
/// a one-age state: it memoises its plan and never touches the
/// kernel-row layer, whose rows it could never read back.
#[test]
fn cold_sequential_cell_builds_no_kernel_row() {
    let _serial = lock();
    let sc = dp_cell("one-age-cell", 41_113.0, 3);
    let (cold, _) = traffic(|| run_dp(&[sc], fast_options()));
    assert!(cold.plans.misses > 0, "a cold cell must solve its DP plans");
    assert_eq!(cold.kernel_rows.misses, 0, "a one-age solve builds no cached row");
    assert_eq!(cold.kernel_rows.hits, 0, "a one-age solve reads no cached row");
}

/// The caches change what a run computes, never what it simulates: the
/// warm second copy of a cell runs the same simulations over the same
/// decisions and failures as the cold first copy.
#[test]
fn warm_run_simulates_exactly_what_the_cold_run_did() {
    let _serial = lock();
    let sc = dp_cell("counters-cell", 37_591.0, 3);
    let copies = run_dp(&[sc.clone(), sc], fast_options());
    let counters = |p: &ckpt_exp::PipelinePerf| {
        (p.policy_sims, p.candidate_sims, p.candidate_grid_size, p.decisions, p.failures)
    };
    let (cold, warm) = (&copies[0].perf, &copies[1].perf);
    assert!(cold.decisions > 0 && cold.policy_sims > 0, "the cell simulates something");
    assert_eq!(counters(cold), counters(warm));
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

    let study = Study::new().with_kinds(dp_only).with_options(options);
    let run = |sc: Scenario| traffic(|| study.run_all(&[sc]).remove(0).expect("cell runs")).0;

    let mut exp = Scenario::exascale(DistSpec::Exponential { mtbf: 1_171.0 * YEAR }, 1 << 16, 2);
    exp.label = "rows-exa-exp-cell".into();
    let exp = run(exp);
    assert!(exp.plans.misses > 0, "the Exponential cell solves its DP plans");
    assert!(exp.plans.hits > 0, "a memoryless state's plan recurs");
    let rows = exp.kernel_rows;
    assert_eq!((rows.hits, rows.misses), (0, 0), "a memoryless solve uses no kernel row");

    let weibull = DistSpec::Weibull { shape: 0.7, mtbf: 119.0 * YEAR };
    let mut peta = Scenario::petascale(weibull, 1 << 12, 2);
    peta.label = "rows-peta-weibull-cell".into();
    let rows = run(peta).kernel_rows;
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
