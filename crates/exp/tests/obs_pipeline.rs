//! Observability must attach to the whole pipeline without perturbing
//! it: an open `ckpt-obs` session collects stage/task spans, the
//! per-fingerprint cache counters, and the `perf.obs` breakdown, while
//! the pipeline's *results* stay byte-identical with recording on or
//! off, at any executor worker count.
//!
//! Without the `obs` feature sessions cannot open, so each test
//! degrades to its recording-off half (the golden check still runs);
//! `scripts/check.sh` runs this crate's tests with the feature on so
//! the live paths are exercised in CI.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ckpt_exp::golden::{golden_cells, golden_json};
use ckpt_exp::runner::{run_scenario, PeriodSearch, RunnerOptions};
use ckpt_exp::steal::set_workers;
use ckpt_exp::{DistSpec, PolicyKind, Scenario};
use ckpt_sim::SimOptions;
use std::path::PathBuf;
use std::sync::Mutex;

/// Obs sessions are process-global and exclusive, and so is the
/// `set_workers` knob; every test here records (or must observe a quiet
/// registry), so they serialize.
static SESSION_TESTS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SESSION_TESTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn fast_options() -> RunnerOptions {
    RunnerOptions {
        lower_bound: true,
        period_lb: Some(vec![0.5, 1.0, 2.0]),
        period_search: PeriodSearch::Full,
        sim: SimOptions::default(),
    }
}

/// The obs label of `dist`'s shared plan-cache identity (`fp:…`). The
/// per-fingerprint counter cells make assertions pollution-proof: only
/// this test's distribution lands under this label.
fn fp_label(dist: &DistSpec) -> String {
    ckpt_policies::DistId::of(dist.build().dist.as_ref()).obs_label()
}

#[test]
fn session_collects_stage_spans_and_obs_breakdown() {
    let _serial = lock();
    let Some(session) = ckpt_obs::ObsSession::start() else { return };

    // Unique MTBF → unique fingerprint → this cell's DP plans are cold.
    let dist = DistSpec::Weibull { shape: 0.7, mtbf: 19_751.0 * 3_600.0 };
    let mut sc = Scenario::single_processor(dist, 3);
    sc.total_work = 12.0 * 3_600.0;
    sc.label = "obs-span-cell".into();
    let kinds = [PolicyKind::DpNextFailure(Default::default()), PolicyKind::Young];
    let r = run_scenario(&sc, &kinds, &fast_options());
    let data = session.finish();

    // Every pipeline stage and the scenario wrapper left a span.
    for name in [
        "scenario.run",
        "stage.trace_gen",
        "stage.policy_sims",
        "stage.period_search",
        "stage.aggregate",
    ] {
        assert!(data.spans.iter().any(|s| s.name == name), "missing span {name}");
    }
    // Task spans carry the policy/dist/p labels.
    let task = data
        .spans
        .iter()
        .find(|s| {
            s.name == "task.policy_sim"
                && s.labels.iter().any(|(k, v)| *k == "policy" && v == "DPNextFailure")
        })
        .expect("a DPNextFailure task span");
    assert!(task.labels.iter().any(|(k, v)| *k == "dist" && v == "obs-span-cell"));
    assert!(task.labels.iter().any(|(k, v)| *k == "p" && v == "1"));
    assert!(data.spans.iter().any(|s| s.name == "task.candidate_sim"));
    assert!(data.spans.iter().any(|s| s.name == "task.lower_bound"));

    // The run attached the counter-delta breakdown, and it is populated.
    let obs = r.perf.obs.expect("session open → perf.obs attached");
    assert!(obs.sim_runs > 0, "engine runs counted");
    assert!(obs.dp_solves > 0, "cold fingerprint → DP solved at least once");
    assert!(obs.dp_near_row_sweeps > 0);
    assert!(obs.sim_decisions > 0);
    assert_eq!(obs.trace_cache_misses, sc.traces as u64, "each trace generated once");

    // Both exporters render the session.
    let trace = data.chrome_trace_json();
    assert!(trace.contains("\"task.policy_sim\""));
    assert!(trace.contains("\"stage.policy_sims\""));
    let report = data.perf_report();
    assert!(report.contains("stage.policy_sims"));
    assert!(report.contains("dp.solves"));

    // Without a session the breakdown stays absent (and its JSON field
    // is omitted — the byte-compat contract).
    let quiet = run_scenario(&sc, &kinds, &fast_options());
    assert!(quiet.perf.obs.is_none());
    assert!(!quiet.perf.to_json().contains("\"obs\""));
}

/// What the shared caches buy, read off the cold-run counters: the
/// first run of a cell misses its DP plans and generates its traces; a
/// repeat run of the same cell in the same process replays exactly the
/// same lookups, so it misses nothing and solves nothing.
#[test]
fn repeat_run_of_a_cell_is_served_by_the_shared_caches() {
    let _serial = lock();

    // Unique MTBF again: the labeled counters below see only this cell.
    let dist = DistSpec::Weibull { shape: 0.7, mtbf: 23_417.0 * 3_600.0 };
    let mut sc = Scenario::single_processor(dist, 4);
    sc.total_work = 12.0 * 3_600.0;
    sc.label = "obs-repeat-cell".into();
    let kinds = [PolicyKind::DpNextFailure(Default::default()), PolicyKind::OptExp];
    let label = fp_label(&sc.dist);

    let Some(session) = ckpt_obs::ObsSession::start() else { return };
    let cold = run_scenario(&sc, &kinds, &fast_options());
    let cold_data = session.finish();
    assert!(cold_data.counters.labeled("plan_cache.plans.misses", &label) > 0);
    assert!(cold_data.counter("trace_cache.misses") >= sc.traces as u64);

    let Some(session) = ckpt_obs::ObsSession::start() else { return };
    let warm = run_scenario(&sc, &kinds, &fast_options());
    let data = session.finish();
    assert!(data.counters.labeled("plan_cache.plans.hits", &label) > 0);
    assert_eq!(
        data.counters.labeled("plan_cache.plans.misses", &label),
        0,
        "the repeat run must find every plan in the shared cache"
    );
    assert_eq!(data.counters.labeled("plan_cache.kernel_rows.misses", &label), 0);
    assert!(data.counter("trace_cache.hits") >= sc.traces as u64);
    assert_eq!(data.counter("trace_cache.misses"), 0);
    let obs = warm.perf.obs.as_ref().expect("session open → perf.obs attached");
    assert_eq!(obs.dp_solves, 0, "no cold solves on the repeat run");
    // Caches serve the pure function of their key: same bytes.
    assert_eq!(golden_json(&cold), golden_json(&warm));
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/golden")
}

/// Re-run every golden cell and byte-compare against the committed
/// files — the same contract as `golden_pipeline.rs`, here exercised
/// while a recording session is open.
fn check_all_cells_against_disk() {
    for (stem, scenario, kinds, options) in golden_cells() {
        let path = golden_dir().join(format!("{stem}.json"));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let actual = golden_json(&run_scenario(&scenario, &kinds, &options));
        assert_eq!(
            actual, expected,
            "recording session perturbed {} at {} workers — obs must be result-invisible",
            path.display(),
            ckpt_exp::steal::workers()
        );
    }
}

#[test]
fn goldens_stay_byte_identical_while_recording() {
    let _serial = lock();
    for workers in [1, 2, 8] {
        set_workers(workers);
        let session = ckpt_obs::ObsSession::start();
        check_all_cells_against_disk();
        if let Some(session) = session {
            let data = session.finish();
            assert!(data.counter("sim.runs") > 0, "session must actually have recorded");
        }
    }
    set_workers(0);
}
