//! End-to-end smoke tests: the registry's studies at miniature scale,
//! plus the output emitters.

use checkpointing_strategies::exp::catalog::{self, Artefact, File, Params};
use checkpointing_strategies::exp::output::{csv_series, markdown_table, CSV_HEADER};
use checkpointing_strategies::exp::{run_in_memory, DistSpec, Scenario, ScenarioResult, StudyDef};
use checkpointing_strategies::prelude::*;

fn study(name: &str) -> &'static Artefact {
    catalog::lookup(name).expect("registered")[0]
}

fn traces(n: usize) -> Params {
    Params { traces: Some(n), ..Params::default() }
}

/// Run the cells of `name` that `keep` selects, in memory.
fn run_some(name: &str, params: &Params, keep: impl Fn(&Scenario) -> bool) -> Vec<ScenarioResult> {
    let cells = study(name).cells(params).into_iter().filter(|c| keep(&c.scenario)).collect();
    let def = StudyDef { id: name.into(), cells };
    run_in_memory(&def).into_iter().map(|r| r.expect("cell runs")).collect()
}

/// Run every cell of `name` in memory and render its files.
fn run_files(name: &str, params: &Params) -> Vec<File> {
    study(name).render(&run_some(name, params, |_| true))
}

fn file<'a>(files: &'a [File], name: &str) -> &'a str {
    &files.iter().find(|(n, _)| n == name).expect("file rendered").1
}

#[test]
fn fig1_rows_render() {
    let files = run_files("fig1", &Params::default());
    let rows: Vec<(f64, f64)> = file(&files, "fig1.csv")
        .lines()
        .skip(1)
        .map(|l| {
            let v: Vec<f64> = l.split(',').map(|x| x.parse().expect("number")).collect();
            (v[1], v[2])
        })
        .collect();
    assert_eq!(rows.len(), 19);
    // Monotone in p on both options.
    for w in rows.windows(2) {
        assert!(w[0].0 > w[1].0 && w[0].1 > w[1].1);
    }
}

#[test]
fn table23_and_outputs() {
    let rows = run_some("table2", &traces(2), |_| true);
    assert_eq!(rows.len(), 3);
    for r in &rows {
        let md = markdown_table(r);
        assert!(md.contains("OptExp"), "{}: table must list OptExp", r.label);
        assert!(md.contains("LowerBound"));
        let csv = format!("{CSV_HEADER}{}", csv_series(1.0, r));
        assert!(csv.lines().count() > 5);
    }
    let md = file(&study("table2").render(&rows), "table2.md").to_string();
    for mtbf in ["1 hour", "1 day", "1 week"] {
        assert!(md.contains(&format!("## MTBF = {mtbf}\n")), "{md}");
    }
}

#[test]
fn synthetic_scaling_mini() {
    // Two processor counts of Figure 4 (Weibull Petascale).
    let rows = run_some("fig4", &traces(2), |sc| sc.procs <= 1 << 11);
    assert_eq!(rows.len(), 2);
    for r in &rows {
        assert!(r.get("DPNextFailure").is_some());
    }
}

#[test]
fn fig5_mini_shape_sweep() {
    let is_k04 = |sc: &Scenario| matches!(sc.dist, DistSpec::Weibull { shape, .. } if (shape - 0.4).abs() < 1e-12);
    let rows = run_some("fig5", &traces(2), is_k04);
    assert_eq!(rows.len(), 1);
    let r = &rows[0];
    // Liu is absent at p = 45,208 for small shapes (footnote 2).
    assert!(r.get("Liu").expect("row").error.is_some());
    assert!(r.get("DPNextFailure").expect("row").avg_degradation.is_some());
}

#[test]
fn logbased_mini() {
    // A shrunk §6 cell: 1/20 of the Petascale work keeps the failure
    // count (and hence DP replans) test-sized while exercising the full
    // log-based pipeline.
    let mut sc = Scenario::petascale(DistSpec::LanlLog { cluster: 19 }, 1 << 12, 2);
    sc.total_work /= 20.0;
    sc.label = format!("mini-{}", sc.label);
    let kinds = checkpointing_strategies::exp::PolicyKind::log_based_roster();
    let opts = checkpointing_strategies::exp::RunnerOptions {
        period_lb: Some(vec![0.5, 1.0, 2.0]),
        ..Default::default()
    };
    let r = checkpointing_strategies::exp::run_scenario(&sc, &kinds, &opts);
    assert!(r.get("DPNextFailure").expect("row").avg_degradation.is_some());
    assert!(r.get("Young").expect("row").avg_degradation.is_some());
    assert!(r.get("LowerBound").expect("row").avg_degradation.is_some());
}

#[test]
fn fig89_mini_period_sweep() {
    let rows = run_some("fig8", &traces(2), |_| true);
    assert_eq!(rows.len(), 1);
    // The sweep adds 17 scaled-OptExp rows on top of the roster.
    let scaled = rows[0].outcomes.iter().filter(|o| o.name.starts_with("OptExp*")).count();
    assert_eq!(scaled, 17);
}

#[test]
fn matrix_cell_mini() {
    let params = Params {
        weibull: true,
        parallelism: ParallelismModel::NumericalKernel { gamma: 1.0 },
        proportional_overhead: true,
        procs: 1 << 10,
        ..traces(2)
    };
    let rows = run_some("matrix", &params, |_| true);
    let r = &rows[0];
    assert!(r.label.contains("kernel-1"));
    assert!(r.label.contains("prop"));
    assert!(r.get("OptExp").expect("row").avg_degradation.is_some());
}

#[test]
fn fig9899_mini_profiles() {
    // Figure 98 profiles OptExp by default.
    let files = run_files("fig98", &traces(1));
    let points: Vec<(String, f64)> = file(&files, "fig98.csv")
        .lines()
        .skip(1)
        .map(|l| {
            let v: Vec<&str> = l.split(',').collect();
            (v[0].to_string(), v[2].parse().expect("days"))
        })
        .collect();
    let mut models: Vec<&str> = points.iter().map(|(m, _)| m.as_str()).collect();
    models.dedup();
    assert_eq!(models.len(), 6);
    // EP scales down with p; heavy-communication kernel eventually rises.
    let ep: Vec<f64> = points.iter().filter(|(m, _)| m == "ep").map(|&(_, d)| d).collect();
    assert!(ep.first().expect("points") > ep.last().expect("points"));
}
