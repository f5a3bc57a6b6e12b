//! One engine, one study loop, four ways in: each cell alone as a
//! one-cell `Study::run_all`, the cells together as one `run_in_memory`
//! study, the same study through `run_study` with a checkpoint store,
//! and the plan → `exec::execute` → `reduce::reduce` pipeline that
//! perfbench's `pipeline` mode times. All four must serialise to
//! byte-identical golden JSON — and the store's aggregate file must
//! hold those same bytes — at 1 and 2 executor workers.
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
use ckpt_exp::perf::PipelinePerf;
use ckpt_exp::steal::set_workers;
use ckpt_exp::{plan_scenario, DistSpec, PolicyKind, RunnerOptions, Scenario, Study};
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

/// One cell through plan → execute → reduce, with no study around it.
fn pipeline(sc: &Scenario, kinds: &[PolicyKind], options: &RunnerOptions) -> String {
    let built = sc.dist.try_build().expect("the cell's distribution builds");
    let plan = plan_scenario(sc, kinds, options);
    let mut perf = PipelinePerf::default();
    let out = ckpt_exp::exec::execute(sc, &built, &plan, &mut perf);
    let mut result = ckpt_exp::reduce::reduce(sc, &plan, &out, &mut perf);
    // The work counters are serialised too; the caller moves them in.
    result.perf = perf;
    golden_json(&result)
}

fn check_entry_points_agree(workers: usize) {
    let _serial = WORKER_TESTS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    set_workers(workers);
    let cells = cells();
    let alone: Vec<String> = cells
        .iter()
        .map(|(sc, kinds, options)| {
            let study = Study::new().with_kinds(kinds.clone()).with_options(options.clone());
            golden_json(&study.run_all(std::slice::from_ref(sc)).remove(0).expect("cell runs"))
        })
        .collect();
    assert!(alone[1].contains("Liu"), "the Liu row is reported as a gap");
    let piped: Vec<String> =
        cells.iter().map(|(sc, kinds, options)| pipeline(sc, kinds, options)).collect();

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

    for (((((stem, result), store_less), cell), expected), piped) in
        report.results.iter().zip(&store_less).zip(&def.cells).zip(&alone).zip(&piped)
    {
        let via_study = golden_json(result.as_ref().expect("cell commits"));
        assert_eq!(
            &via_study, expected,
            "run_study diverged from a one-cell Study::run_all on {stem} at {workers} workers"
        );
        let via_memory = golden_json(store_less.as_ref().expect("cell commits"));
        assert_eq!(
            &via_memory, expected,
            "run_in_memory diverged from a one-cell Study::run_all on {stem} at {workers} workers"
        );
        assert_eq!(
            piped, expected,
            "execute → reduce diverged from a one-cell Study::run_all on {stem} at {workers} workers"
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
fn studies_and_execute_reduce_serialise_alike_single_threaded() {
    check_entry_points_agree(1);
}

#[test]
fn studies_and_execute_reduce_serialise_alike_two_workers() {
    check_entry_points_agree(2);
}
