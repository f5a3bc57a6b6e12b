//! One engine, one study loop, three entry points: a cell run alone
//! through `run_scenario`, the same cells run as a study through
//! `run_in_memory`, and through `run_study` with a checkpoint store,
//! must serialise to byte-identical golden JSON — and the store's
//! aggregate file must hold those same bytes — at 1 and 2 executor
//! workers.
//!
//! The cells cover the paths a divergence would hide in: the
//! age-dependent DPMakespan golden cell, and a coarse-to-fine
//! `PeriodLB` cell (so a refine item folds coarse payloads) with a Liu
//! row that cannot be built for the cell (a failure carried as a value
//! through the payloads).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ckpt_exp::checkpoint::{
    run_in_memory, run_study, CheckpointConfig, ItemKind, StudyCell, StudyDef, StudyOutcome,
};
use ckpt_exp::golden::{golden_cells, golden_json};
use ckpt_exp::runner::run_scenario;
use ckpt_exp::steal::set_workers;
use ckpt_exp::{plan_scenario, DistSpec, PolicyKind, RunnerOptions, Scenario};
use ckpt_workload::YEAR;
use std::sync::Mutex;

/// `set_workers` is process-global and tests in one binary run
/// concurrently: every test here holds this lock while it pins a count.
static WORKER_TESTS: Mutex<()> = Mutex::new(());

fn cells() -> Vec<(Scenario, Vec<PolicyKind>, RunnerOptions)> {
    let aged = golden_cells()
        .into_iter()
        .find(|(stem, ..)| stem == "1proc-weibull000p7000-000000086400")
        .map(|(_, sc, kinds, options)| (sc, kinds, options))
        .expect("the age-dependent DPMakespan golden cell");
    let liu_gap =
        Scenario::petascale(DistSpec::Weibull { shape: 0.3, mtbf: 125.0 * YEAR }, 4_096, 4);
    // The default options search the default grid coarse to fine.
    vec![aged, (liu_gap, vec![PolicyKind::Liu, PolicyKind::Young], RunnerOptions::default())]
}

fn check_entry_points_agree(workers: usize) {
    let _serial = WORKER_TESTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    set_workers(workers);
    let cells = cells();
    let in_memory: Vec<String> = cells
        .iter()
        .map(|(sc, kinds, options)| golden_json(&run_scenario(sc, kinds, options)))
        .collect();
    assert!(in_memory[1].contains("Liu"), "the Liu row is reported as a gap");

    let root = std::env::temp_dir()
        .join(format!("ckpt-entry-points-{}-{workers}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let def = StudyDef::new("entry", cells);
    let config = CheckpointConfig { root: root.clone(), ..CheckpointConfig::default() };
    let refines = |c: &StudyCell| {
        let items = plan_scenario(&c.scenario, &c.kinds, &c.options).items(0, 0);
        items.iter().any(|i| i.kind == ItemKind::Refine)
    };
    assert!(def.cells.iter().any(refines), "the coarse-to-fine cell has a refine item");
    let store_less = run_in_memory(&def);
    let report = match run_study(&def, &config, false).expect("study runs") {
        StudyOutcome::Complete(report) => report,
        StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
    };
    set_workers(0);

    for ((((stem, result), store_less), cell), expected) in
        report.results.iter().zip(&store_less).zip(&def.cells).zip(&in_memory)
    {
        let via_study = golden_json(result.as_ref().expect("cell commits"));
        assert_eq!(
            &via_study, expected,
            "run_study diverged from run_scenario on {stem} at {workers} workers"
        );
        let via_memory = golden_json(store_less.as_ref().expect("cell commits"));
        assert_eq!(
            &via_memory, expected,
            "run_in_memory diverged from run_scenario on {stem} at {workers} workers"
        );
        let on_disk = std::fs::read_to_string(
            root.join("entry/aggregate").join(format!("{}.json", cell.stem)),
        )
        .expect("aggregate written");
        assert_eq!(&on_disk, expected, "aggregate file of {stem} differs at {workers} workers");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn run_scenario_and_run_study_agree_single_threaded() {
    check_entry_points_agree(1);
}

#[test]
fn run_scenario_and_run_study_agree_two_workers() {
    check_entry_points_agree(2);
}
