//! Kill-safe resume pinning: a study stopped mid-wave (the
//! `stop_after_items` hook emulates a SIGKILL landing *between*
//! checkpoints — the final chunk's results are lost, the store is left
//! exactly as the last snapshot wrote it) and then resumed must commit
//! aggregates **byte-identical** to an uninterrupted run of the same
//! definition — at 1, 2 and 8 executor workers, with the interruption
//! landing both early (policy wave) and late (the refine item resumes
//! against coarse payloads read back from disk).
//!
//! Also pins the staleness contract: a resume whose rebuilt manifest
//! fingerprint differs from the on-disk one is rejected, never
//! silently reused.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ckpt_exp::checkpoint::{build_manifest, run_study, CheckpointConfig, StudyDef, StudyOutcome};
use ckpt_exp::{DistSpec, PeriodSearch, PolicyKind, RunnerOptions, Scenario};
use ckpt_sim::SimOptions;
use ckpt_exp::steal::set_workers;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// `set_workers` is process-global and tests run concurrently: every
/// test that pins a worker count holds this lock while it runs.
static WORKER_TESTS: Mutex<()> = Mutex::new(());

/// Run `f` with the executor pinned to `workers`, then reset the knob.
fn at_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    let _serial = WORKER_TESTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    set_workers(workers);
    let out = f();
    set_workers(0);
    out
}

/// Two cells: an exhaustive-search cell and a coarse-to-fine cell whose
/// refine item folds coarse payloads — the two commit paths a kill can
/// split.
fn two_cell_def(id: &str) -> StudyDef {
    let mut a = Scenario::single_processor(DistSpec::Exponential { mtbf: 6.0 * 3_600.0 }, 4);
    a.total_work = 12.0 * 3_600.0;
    let full = RunnerOptions {
        lower_bound: true,
        period_lb: Some(vec![0.5, 1.0, 2.0]),
        period_search: PeriodSearch::Full,
        sim: SimOptions::default(),
    };

    let mut b = Scenario::single_processor(DistSpec::Exponential { mtbf: 3.0 * 3_600.0 }, 4);
    b.total_work = 12.0 * 3_600.0;
    let coarse_fine = RunnerOptions {
        lower_bound: true,
        // 25 factors in [0.4, 2.8]: big enough that CoarseToFine keeps a
        // refine wave (grid_len > min_full) instead of degrading to Full.
        period_lb: Some((1..=25).map(|i| 0.3 + 0.1 * f64::from(i)).collect()),
        period_search: PeriodSearch::CoarseToFine { coarse_step: 4, min_full: 8 },
        sim: SimOptions::default(),
    };

    StudyDef::new(
        id,
        [
            (a, vec![PolicyKind::Young, PolicyKind::OptExp], full),
            (b, vec![PolicyKind::Young, PolicyKind::OptExp], coarse_fine),
        ],
    )
}

fn store_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir()
        .join(format!("ckpt-study-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn config(root: &Path) -> CheckpointConfig {
    CheckpointConfig {
        root: root.to_path_buf(),
        // A snapshot after every chunk, so the emulated kill always has
        // a recent checkpoint to fall back to…
        interval_items: 2,
        // …and the time trigger never fires (kept deterministic).
        interval_seconds: 1e9,
        trace_block: 2,
        ..CheckpointConfig::default()
    }
}

fn read_aggregates(root: &Path, id: &str, def: &StudyDef) -> Vec<(String, String)> {
    def.cells
        .iter()
        .map(|cell| {
            let path = root.join(id).join("aggregate").join(format!("{}.json", cell.stem));
            let bytes = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            (cell.stem.clone(), bytes)
        })
        .collect()
}

/// Stop a run after `stop` executed items, resume it, and require the
/// committed aggregates to match an uninterrupted run byte for byte.
fn check_kill_and_resume(root: &Path, stop: u64) {
    let interrupted = two_cell_def("interrupted");
    let stop_cfg =
        CheckpointConfig { stop_after_items: Some(stop), ..config(root) };
    let total = build_manifest(&interrupted, &stop_cfg).items.len() as u64;
    assert!(stop < total, "stop hook must land mid-study ({stop} < {total})");

    match run_study(&interrupted, &stop_cfg, false).expect("interrupted run starts") {
        StudyOutcome::Stopped { completed, total: t } => {
            assert!(completed >= stop, "stop fires only after `stop` items");
            assert!(completed < t, "stop must leave pending items");
        }
        StudyOutcome::Complete(_) => panic!("stop hook must fire before completion"),
    }
    // A stopped run commits nothing: no aggregates until the resume.
    assert!(
        !root.join("interrupted/aggregate").exists(),
        "aggregates must only exist after completion"
    );

    let resume_cfg = config(root);
    let report = match run_study(&interrupted, &resume_cfg, true).expect("resume runs") {
        StudyOutcome::Complete(report) => report,
        StudyOutcome::Stopped { .. } => panic!("no stop hook on the resume"),
    };
    assert!(report.items_resumed > 0, "resume must restore snapshot items");
    assert!(
        report.items_resumed < report.items_total,
        "the final pre-kill chunk was never snapshotted, so some items re-execute"
    );
    assert_eq!(
        report.items_resumed + report.items_executed,
        report.items_total,
        "resume replays exactly the non-snapshotted items"
    );
    for (stem, result) in &report.results {
        assert!(result.is_ok(), "cell {stem} failed: {result:?}");
    }

    let uninterrupted = two_cell_def("uninterrupted");
    match run_study(&uninterrupted, &config(root), false).expect("uninterrupted run") {
        StudyOutcome::Complete(report) => {
            for (stem, result) in &report.results {
                assert!(result.is_ok(), "cell {stem} failed: {result:?}");
            }
        }
        StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
    }

    let resumed = read_aggregates(root, "interrupted", &interrupted);
    let clean = read_aggregates(root, "uninterrupted", &uninterrupted);
    for ((stem_a, bytes_a), (stem_b, bytes_b)) in resumed.iter().zip(&clean) {
        assert_eq!(stem_a, stem_b);
        assert_eq!(
            bytes_a, bytes_b,
            "killed-and-resumed aggregate {stem_a} diverged from the uninterrupted run"
        );
    }
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn kill_mid_wave_then_resume_is_bit_identical_single_threaded() {
    let root = store_root("1worker");
    at_workers(1, || check_kill_and_resume(&root, 16));
}

#[test]
fn kill_mid_wave_then_resume_is_bit_identical_two_workers() {
    let root = store_root("2workers");
    at_workers(2, || check_kill_and_resume(&root, 16));
}

#[test]
fn kill_mid_wave_then_resume_is_bit_identical_eight_threads() {
    let root = store_root("8workers");
    at_workers(8, || check_kill_and_resume(&root, 16));
}

#[test]
fn kill_just_before_refine_resumes_coarse_payloads_from_disk() {
    // Stop one item short of the end: the refine item (always the
    // cell's last) runs in the resume process, assembling its coarse
    // columns from payloads that crossed a process boundary.
    let root = store_root("late");
    let total =
        build_manifest(&two_cell_def("interrupted"), &config(&root)).items.len() as u64;
    at_workers(8, || check_kill_and_resume(&root, total - 1));
}

#[test]
fn stale_manifest_fingerprint_refuses_to_resume() {
    let root = store_root("stale");
    let def = two_cell_def("stale");
    let stop_cfg = CheckpointConfig { stop_after_items: Some(8), ..config(&root) };
    match run_study(&def, &stop_cfg, false).expect("interrupted run starts") {
        StudyOutcome::Stopped { .. } => {}
        StudyOutcome::Complete(_) => panic!("stop hook must fire"),
    }

    // The same id now describes different work: the roster changed, so
    // the rebuilt fingerprint diverges from the persisted manifest.
    let mut altered = def;
    altered.cells[0].kinds.pop();
    let err = run_study(&altered, &config(&root), true)
        .expect_err("stale checkpoints must be rejected, not silently reused");
    let msg = err.to_string();
    assert!(msg.contains("refusing to resume"), "{msg}");
    assert!(msg.contains("fingerprint"), "{msg}");
    let _ = std::fs::remove_dir_all(&root);
}
