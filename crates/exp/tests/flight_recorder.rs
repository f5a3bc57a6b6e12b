//! Flight-recorder pinning: a poisoned wave leaves a dump naming the
//! failing task, a study run leaves `flightrec.json` and
//! `progress.json` in its store, and — the contract everything above
//! rests on — results stay byte-identical with the recorder active at
//! 1 and 8 workers.
//!
//! Without the `obs` feature sessions cannot open, so each test
//! degrades to its recording-off half: the dumps must still be valid
//! (`"recording": false`, empty events) and the byte-identity halves
//! still compare. `scripts/check.sh` runs this crate's tests with the
//! feature on so the live paths are exercised in CI.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ckpt_exp::checkpoint::{run_study, CheckpointConfig, StudyDef, StudyOutcome};
use ckpt_exp::golden::golden_json;
use ckpt_exp::jsonio;
use ckpt_exp::runner::{run_scenario, PeriodSearch, RunnerOptions};
use ckpt_exp::steal::{run_wave, set_flight_dump, set_workers};
use ckpt_exp::{DistSpec, PolicyKind, Scenario};
use ckpt_sim::SimOptions;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

/// Obs sessions are process-global and exclusive, and `set_workers` /
/// `set_flight_dump` are process-global knobs: every test here
/// serializes.
static SESSION_TESTS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SESSION_TESTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ckpt-flightrec-{}-{tag}", std::process::id()))
}

fn fast_options() -> RunnerOptions {
    RunnerOptions {
        lower_bound: true,
        period_lb: Some(vec![0.5, 1.0, 2.0]),
        period_search: PeriodSearch::Full,
        sim: SimOptions::default(),
    }
}

fn small_cell(label: &str) -> Scenario {
    let mut sc =
        Scenario::single_processor(DistSpec::Exponential { mtbf: 6.0 * 3_600.0 }, 4);
    sc.total_work = 12.0 * 3_600.0;
    sc.label = label.into();
    sc
}

/// Drive a poisoned wave at `workers` and return the parsed dump.
fn poisoned_wave_dump(workers: usize, poison_id: usize, tag: &str) -> jsonio::Json {
    let path = tmp_path(tag);
    let _ = std::fs::remove_file(&path);
    set_flight_dump(Some(path.clone()));
    let tasks: Vec<u64> = (0..12).collect();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        run_wave(&tasks, workers, |_| false, |i, &t| {
            assert!(i != poison_id, "poisoned task {i}");
            t
        })
    }));
    set_flight_dump(None);
    caught.expect_err("the poisoned wave must re-raise");
    let src = std::fs::read_to_string(&path)
        .expect("poisoned wave must write the flight dump");
    let _ = std::fs::remove_file(&path);
    jsonio::parse(&src).expect("flight dump must be valid JSON")
}

fn events<'a>(dump: &'a jsonio::Json) -> &'a [jsonio::Json] {
    dump.get("events").and_then(jsonio::Json::as_arr).expect("events array")
}

/// The dump of a poisoned wave names the failing task — at one worker
/// and at four alike — and degrades to a valid empty document without
/// the feature.
#[test]
fn poisoned_wave_dump_names_the_failing_task() {
    let _serial = lock();
    for (workers, poison_id, tag) in [(4usize, 7usize, "w4"), (1, 3, "w1")] {
        let session = ckpt_obs::ObsSession::start();
        let recording = session.is_some();
        let dump = poisoned_wave_dump(workers, poison_id, tag);
        if let Some(s) = session {
            let _ = s.finish();
        }
        assert_eq!(
            dump.get("recording").and_then(jsonio::Json::as_bool),
            Some(recording),
            "dump recording flag at {workers} workers"
        );
        if recording {
            let poison = events(&dump)
                .iter()
                .find(|e| {
                    e.get("name").and_then(jsonio::Json::as_str)
                        == Some("exec.task_poisoned")
                })
                .unwrap_or_else(|| {
                    panic!("poison event missing from dump at {workers} workers")
                });
            assert_eq!(
                poison.get("label").and_then(jsonio::Json::as_str),
                Some(format!("task{poison_id:06}").as_str()),
                "the poison event must name task {poison_id}"
            );
            assert_eq!(
                poison.get("kind").and_then(jsonio::Json::as_str),
                Some("counter")
            );
        } else {
            assert!(events(&dump).is_empty(), "no session ⇒ empty events");
        }
    }
}

/// Results are byte-identical with the flight recorder active at 1 and
/// 8 workers — the recorder observes the pipeline, never steers it.
#[test]
fn recorder_active_results_are_byte_identical_at_1_and_8_workers() {
    let _serial = lock();
    let sc = small_cell("flightrec-identity-cell");
    let kinds = [PolicyKind::Young, PolicyKind::OptExp];
    let options = fast_options();

    let baseline = golden_json(&run_scenario(&sc, &kinds, &options));
    for workers in [1usize, 8] {
        set_workers(workers);
        let session = ckpt_obs::ObsSession::start();
        let doc = golden_json(&run_scenario(&sc, &kinds, &options));
        if let Some(s) = session {
            let data = s.finish();
            // The recorder really was live: the run left span rows.
            assert!(!data.spans.is_empty(), "no spans at {workers} workers");
        }
        assert_eq!(
            doc, baseline,
            "recorder-on results diverged at {workers} workers"
        );
    }
    set_workers(0);
}

/// A completed study leaves `flightrec.json` and `progress.json` in its
/// store, both valid, with the progress snapshot fully accounted.
#[test]
fn run_study_leaves_flightrec_and_progress_in_the_store() {
    let _serial = lock();
    let session = ckpt_obs::ObsSession::start();
    let root = tmp_path("store");
    let _ = std::fs::remove_dir_all(&root);
    let mut cell = small_cell("flightrec-store-cell");
    cell.traces = 8;
    let def = StudyDef::new("flightrec", [(cell, vec![PolicyKind::Young], fast_options())]);
    let config = CheckpointConfig {
        root: root.clone(),
        interval_items: 2, // force mid-run checkpoint commits
        interval_seconds: 1e9,
        ..CheckpointConfig::default()
    };
    let report = match run_study(&def, &config, false).expect("study runs") {
        StudyOutcome::Complete(r) => r,
        StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
    };
    assert!(report.checkpoints_written > 0);
    if let Some(s) = session {
        let _ = s.finish();
    }

    let dir = root.join("flightrec");
    let flight = std::fs::read_to_string(dir.join("flightrec.json"))
        .expect("study store must contain flightrec.json");
    jsonio::parse(&flight).expect("flightrec.json must parse");

    let progress = std::fs::read_to_string(dir.join("progress.json"))
        .expect("study store must contain progress.json");
    let doc = jsonio::parse(&progress).expect("progress.json must parse");
    let total = doc.get("total").and_then(jsonio::Json::as_u64).expect("total");
    assert_eq!(total, report.items_total);
    assert_eq!(
        doc.get("completed").and_then(jsonio::Json::as_u64),
        Some(report.items_total),
        "final snapshot must show every item completed"
    );
    assert_eq!(doc.get("in_flight").and_then(jsonio::Json::as_u64), Some(0));
    assert!(progress.contains("wall_clock_nondeterministic"));
    let _ = std::fs::remove_dir_all(&root);
}
