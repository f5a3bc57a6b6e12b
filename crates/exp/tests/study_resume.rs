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
//! silently reused; and the shape contract: a snapshot whose payloads
//! do not fit their manifest items (under a still-valid fingerprint) is
//! skipped for the previous one, never folded into an aggregate; and the
//! failed-cell contract: a cell whose distribution cannot be built gets
//! no items and commits to its typed, labelled build error, while its
//! neighbours commit as if it were absent; and the release contract: a
//! resume releases a trace stream once its pending readers ran, even
//! when another reader of it committed before the kill.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ckpt_exp::checkpoint::{
    build_manifest, checkpoint_json, parse_checkpoint, run_in_memory, run_study,
    CheckpointConfig, ItemPayload, StudyDef, StudyOutcome,
};
use ckpt_exp::golden::golden_json;
use ckpt_exp::{DistSpec, Error, PolicyKind, RunnerOptions, Scenario, TraceCache};
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
    let (a, b) = two_cells();
    StudyDef::new(id, [a, b])
}

/// One cell of a study: its scenario, roster and runner options.
type Cell = (Scenario, Vec<PolicyKind>, RunnerOptions);

fn two_cells() -> (Cell, Cell) {
    let mut a = Scenario::single_processor(DistSpec::Exponential { mtbf: 6.0 * 3_600.0 }, 8);
    a.total_work = 12.0 * 3_600.0;
    let full = RunnerOptions {
        lower_bound: true,
        period_lb: Some(vec![0.5, 1.0, 2.0]),
        sim: SimOptions::default(),
    };

    let mut b = Scenario::single_processor(DistSpec::Exponential { mtbf: 3.0 * 3_600.0 }, 8);
    b.total_work = 12.0 * 3_600.0;
    let coarse_fine = RunnerOptions {
        lower_bound: true,
        // 25 factors in [0.4, 2.8]: one past the largest grid searched
        // whole, so the cell keeps a refine wave.
        period_lb: Some((1..=25).map(|i| 0.3 + 0.1 * f64::from(i)).collect()),
        sim: SimOptions::default(),
    };

    (
        (a, vec![PolicyKind::Young, PolicyKind::OptExp], full),
        (b, vec![PolicyKind::Young, PolicyKind::OptExp], coarse_fine),
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
    let total = build_manifest(&interrupted, &stop_cfg).items;
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
        build_manifest(&two_cell_def("interrupted"), &config(&root)).items;
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

/// Run `two_cell_def` to completion, damage one payload of the newest
/// snapshot with `damage` (the fingerprint stays valid), and resume:
/// the resume must fall back to the previous snapshot, re-execute what
/// it lacks, and rewrite byte-identical aggregates.
fn damaged_newest_snapshot_falls_back(tag: &str, damage: impl Fn(&mut ItemPayload) -> bool) {
    let root = store_root(tag);
    let def = two_cell_def("damaged");
    at_workers(2, || {
        match run_study(&def, &config(&root), false).expect("clean run") {
            StudyOutcome::Complete(_) => {}
            StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
        }
        let clean = read_aggregates(&root, "damaged", &def);

        let dir = root.join("damaged");
        let newest = std::fs::read_dir(&dir)
            .expect("store dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("ckpt-")))
            .max()
            .expect("a snapshot");
        let mut snap = parse_checkpoint(&std::fs::read_to_string(&newest).expect("read"))
            .expect("parses");
        assert!(
            snap.completed.values_mut().any(&damage),
            "the newest snapshot holds a payload of the damaged kind"
        );
        std::fs::write(
            &newest,
            checkpoint_json(&snap.study, &snap.fingerprint, snap.seq, &snap.completed),
        )
        .expect("write damaged snapshot");

        match run_study(&def, &config(&root), true) {
            Ok(StudyOutcome::Complete(report)) => {
                assert!(
                    report.items_executed > 0,
                    "the damaged snapshot must be skipped, not resumed from"
                );
                assert_eq!(
                    read_aggregates(&root, "damaged", &def),
                    clean,
                    "a damaged snapshot changed an aggregate"
                );
            }
            Ok(StudyOutcome::Stopped { .. }) => panic!("no stop hook configured"),
            Err(e) => assert!(
                matches!(e, ckpt_exp::Error::Checkpoint { .. }),
                "a damaged store fails with a typed checkpoint error, got {e}"
            ),
        }
    });
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn truncated_lower_bound_payload_falls_back_to_the_previous_snapshot() {
    damaged_newest_snapshot_falls_back("short-lb", |p| match p {
        ItemPayload::LowerBound { makespans } => makespans.pop().is_some(),
        _ => false,
    });
}

#[test]
fn over_long_coarse_payload_falls_back_to_the_previous_snapshot() {
    damaged_newest_snapshot_falls_back("long-coarse", |p| match p {
        ItemPayload::Coarse { stats } => {
            let extra = *stats.last().expect("a coarse block is never empty");
            stats.push(extra);
            true
        }
        _ => false,
    });
}

#[test]
fn out_of_range_refine_candidate_falls_back_to_the_previous_snapshot() {
    damaged_newest_snapshot_falls_back("refine-range", |p| match p {
        ItemPayload::Refine { columns } => match columns.last_mut() {
            Some(col) => {
                col.candidate = 1_000;
                true
            }
            None => false,
        },
        _ => false,
    });
}

/// An unbuildable cell (LANL cluster 99 is not modelled) next to the
/// coarse-to-fine cell: no items for it in the manifest, a labelled
/// `Error::Cell` and no aggregate file from the commit, and the good
/// cell's aggregate byte-identical to the cell run alone — uninterrupted
/// and across a stop and a resume.
#[test]
fn unbuildable_cell_commits_its_build_error_and_spares_its_neighbour() {
    let root = store_root("unbuildable");
    let (_, good) = two_cells();
    let mut bad = good.0.clone();
    bad.dist = DistSpec::LanlLog { cluster: 99 };
    bad.label = "study-unbuildable-cell".into();
    let def = |id: &str| {
        StudyDef::new(id, [(bad.clone(), good.1.clone(), good.2.clone()), good.clone()])
    };
    let (bad_stem, good_stem) = {
        let d = def("stems");
        (d.cells[0].stem.clone(), d.cells[1].stem.clone())
    };
    let alone_def = StudyDef::new("alone", [good.clone()]);
    let expected = golden_json(&run_in_memory(&alone_def).remove(0).expect("the good cell runs"));

    let total = build_manifest(&def("clean"), &config(&root)).items;
    let alone = build_manifest(&alone_def, &config(&root)).items;
    assert!(total > 0);
    assert_eq!(total, alone, "the unbuildable cell has no items");

    let check = |id: &str, report: &ckpt_exp::checkpoint::StudyReport| {
        let (stem, result) = &report.results[0];
        assert_eq!(stem, &bad_stem);
        assert!(
            matches!(result, Err(Error::Cell { label, .. }) if label == "study-unbuildable-cell"),
            "{result:?}"
        );
        assert!(report.results[1].1.is_ok(), "{:?}", report.results[1].1);
        let agg = root.join(id).join("aggregate");
        assert!(!agg.join(format!("{bad_stem}.json")).exists(), "no aggregate for a failed cell");
        let bytes = std::fs::read_to_string(agg.join(format!("{good_stem}.json"))).expect("read");
        assert_eq!(bytes, expected, "the good cell's aggregate diverged from the cell run alone");
    };

    at_workers(2, || {
        match run_study(&def("clean"), &config(&root), false).expect("runs") {
            StudyOutcome::Complete(report) => check("clean", &report),
            StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
        }

        // Past the first 8-item wave, so a snapshot precedes the stop
        // and the resume has committed items to read.
        let stop = total / 2 + 1;
        assert!(stop > 8 && stop < total);
        let stop_cfg = CheckpointConfig { stop_after_items: Some(stop), ..config(&root) };
        match run_study(&def("resumed"), &stop_cfg, false).expect("interrupted run starts") {
            StudyOutcome::Stopped { completed, total: t } => {
                assert!(completed >= stop && completed < t);
            }
            StudyOutcome::Complete(_) => panic!("stop hook must fire before completion"),
        }
        match run_study(&def("resumed"), &config(&root), true).expect("resume runs") {
            StudyOutcome::Complete(report) => {
                assert!(report.items_resumed > 0 && report.items_executed > 0);
                check("resumed", &report);
            }
            StudyOutcome::Stopped { .. } => panic!("no stop hook on the resume"),
        }
    });
    let _ = std::fs::remove_dir_all(&root);
}

/// A completed study leaves a valid `progress.json` in its store, fully
/// accounted, and no `flightrec.json`.
#[test]
fn run_study_leaves_progress_in_the_store() {
    let root = store_root("progress");
    let (mut cell, _) = two_cells();
    cell.1 = vec![PolicyKind::Young];
    let def = StudyDef::new("progress", [cell]);
    let report = match run_study(&def, &config(&root), false).expect("study runs") {
        StudyOutcome::Complete(r) => r,
        StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
    };
    assert!(report.checkpoints_written > 0);

    let dir = root.join("progress");
    let progress = std::fs::read_to_string(dir.join("progress.json"))
        .expect("study store must contain progress.json");
    let doc = ckpt_exp::jsonio::parse(&progress).expect("progress.json must parse");
    let field = |name: &str| doc.get(name).and_then(ckpt_exp::jsonio::Json::as_u64);
    assert_eq!(field("total"), Some(report.items_total));
    assert_eq!(
        field("completed"),
        Some(report.items_total),
        "final snapshot must show every item completed"
    );
    assert_eq!(field("in_flight"), Some(0));
    assert!(progress.contains("wall_clock_nondeterministic"));
    assert!(!dir.join("flightrec.json").exists(), "a study store holds no flight dump");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn completed_store_holds_only_manifest_snapshots_status_progress_and_aggregates() {
    let root = store_root("layout");
    let (mut cell, _) = two_cells();
    cell.1 = vec![PolicyKind::Young];
    let def = StudyDef::new("layout", [cell]);
    let cfg = config(&root);
    assert!(matches!(run_study(&def, &cfg, false), Ok(StudyOutcome::Complete(_))));

    let dir = root.join("layout");
    let mut snapshots = 0;
    for entry in std::fs::read_dir(&dir).expect("study store exists") {
        let name = entry.expect("readable entry").file_name().into_string().expect("utf-8 name");
        match name.as_str() {
            "manifest.json" | "status" | "progress.json" | "aggregate" => {}
            n if n.starts_with("ckpt-") && n.ends_with(".json") => snapshots += 1,
            other => panic!("unexpected file `{other}` in a completed study store"),
        }
    }
    assert!((1..=cfg.max_checkpoints).contains(&snapshots), "{snapshots} snapshots kept");
    for entry in std::fs::read_dir(dir.join("aggregate")).expect("aggregate dir exists") {
        let path = entry.expect("readable entry").path();
        assert_eq!(path.extension().and_then(|e| e.to_str()), Some("json"), "{}", path.display());
    }
    let status = std::fs::read_to_string(dir.join("status")).expect("status");
    assert!(status.starts_with("done "), "{status}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Cells A and C read one trace stream, B another. Kill the study
/// after B, the last reader of its stream, committed and A committed,
/// with C pending: the killed run has released B's stream but holds the
/// shared one. The resume counts C as the shared stream's only pending
/// reader and releases it once C ran.
#[test]
fn resume_releases_a_stream_whose_other_reader_committed_before_the_kill() {
    let root = store_root("release");
    let options = RunnerOptions { period_lb: None, ..RunnerOptions::default() };
    let cell = |label: &str, procs: u64, traces: usize| {
        let dist = DistSpec::Exponential { mtbf: 89.0 * 365.25 * 86_400.0 };
        let mut sc = Scenario::petascale(dist, procs, traces);
        sc.label = label.into();
        (sc, vec![PolicyKind::Young], options.clone())
    };
    let (shared, other) = ("resume-release-shared-cell", "resume-release-other-cell");
    let (a, b) = (cell(shared, 1 << 10, 2), cell(other, 1 << 10, 2));
    let before_c = build_manifest(&StudyDef::new("ab", [a.clone(), b.clone()]), &config(&root)).items;
    let def = StudyDef::new("release", [a, b, cell(shared, 1 << 11, 20)]);
    // A snapshot after every wave, and a stop in C's first wave: A and
    // B are on disk, C is not.
    let snap_every_wave = CheckpointConfig { interval_items: 1, ..config(&root) };
    let stop_cfg = CheckpointConfig { stop_after_items: Some(before_c + 1), ..snap_every_wave.clone() };
    match run_study(&def, &stop_cfg, false).expect("interrupted run starts") {
        StudyOutcome::Stopped { completed, total } => assert!(completed < total),
        StudyOutcome::Complete(_) => panic!("stop hook must fire before completion"),
    }
    assert_eq!(TraceCache::global().streams_of(other), 0, "B's stream outlived its reader");
    assert!(TraceCache::global().streams_of(shared) > 0, "C is pending on the shared stream");

    match run_study(&def, &snap_every_wave, true).expect("resume runs") {
        StudyOutcome::Complete(report) => {
            assert_eq!(report.items_resumed, before_c, "A and B come back from the snapshot");
            assert!(report.results.iter().all(|(_, r)| r.is_ok()), "{:?}", report.results);
        }
        StudyOutcome::Stopped { .. } => panic!("no stop hook on the resume"),
    }
    assert_eq!(TraceCache::global().streams_of(shared), 0, "the resume kept the shared stream");
    let _ = std::fs::remove_dir_all(&root);
}
