//! Golden-result pinning: the plan → execute → reduce pipeline must
//! reproduce the committed `results/golden/*.json` files **byte for
//! byte**, at any executor worker count.
//!
//! The files were generated from the pre-refactor monolithic runner, so
//! this test is the refactor's bit-identity contract: same seeds, same
//! simulations, same reduction order, same shortest-roundtrip float
//! serialisation. If a change is *supposed* to move the numbers,
//! regenerate them from the `golden` study and commit the diff:
//!
//! ```text
//! ckpt-exp run --study golden --id regen --study-root DIR
//! cp DIR/regen/aggregate/*.json results/golden/
//! ```
//!
//! Anything else that trips this test is a regression.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ckpt_exp::golden::{golden_cells, golden_json};
use ckpt_exp::steal::set_workers;
use ckpt_exp::{run_in_memory, StudyDef};
use std::path::PathBuf;
use std::sync::Mutex;

/// `set_workers` is process-global and tests in one binary run
/// concurrently: every test here holds this lock while it pins a count.
static WORKER_TESTS: Mutex<()> = Mutex::new(());

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/golden")
}

/// Check every golden cell with the executor pinned to `workers`, then
/// reset the knob.
fn check_all_cells_at(workers: usize) {
    let _serial = WORKER_TESTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    set_workers(workers);
    check_all_cells();
    set_workers(0);
}

/// The golden cells carry their own rosters and options, so they run as
/// one in-memory study.
fn check_all_cells() {
    let cells = golden_cells();
    let def = StudyDef::new(
        "golden",
        cells.iter().map(|(_, scenario, kinds, options)| {
            (scenario.clone(), kinds.clone(), options.clone())
        }),
    );
    for ((stem, ..), result) in cells.iter().zip(run_in_memory(&def)) {
        let path = golden_dir().join(format!("{stem}.json"));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let actual = golden_json(&result.expect("golden cells are well-formed"));
        assert_eq!(
            actual, expected,
            "pipeline output diverged from {} at {} workers — bit-identity broken",
            path.display(),
            ckpt_exp::steal::workers()
        );
    }
}

#[test]
fn pipeline_reproduces_golden_results_single_threaded() {
    check_all_cells_at(1);
}

#[test]
fn pipeline_reproduces_golden_results_two_workers() {
    check_all_cells_at(2);
}

#[test]
fn pipeline_reproduces_golden_results_eight_threads() {
    check_all_cells_at(8);
}
