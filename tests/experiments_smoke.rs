//! End-to-end smoke tests: every experiment entry point at miniature
//! scale, plus the output emitters.

use ckpt_core::exp::experiments as ex;
use ckpt_core::exp::output::{csv_series, markdown_table, CSV_HEADER};
use ckpt_core::exp::{DistSpec, PolicyKind, Scenario};
use ckpt_core::prelude::*;

#[test]
fn fig1_rows_render() {
    let rows = ex::fig1();
    assert_eq!(rows.len(), 19);
    // Monotone in p on both options.
    for w in rows.windows(2) {
        assert!(w[0].1 > w[1].1 && w[0].2 > w[1].2);
    }
}

#[test]
fn table23_and_outputs() {
    let rows = ex::table23(false, 2);
    assert_eq!(rows.len(), 3);
    for (label, r) in &rows {
        let md = markdown_table(r);
        assert!(md.contains("OptExp"), "{label}: table must list OptExp");
        assert!(md.contains("LowerBound"));
        let csv = format!("{CSV_HEADER}{}", csv_series(1.0, r));
        assert!(csv.lines().count() > 5);
    }
}

#[test]
fn synthetic_scaling_mini() {
    // Two processor counts, Weibull Petascale.
    let mtbf_years = 125.0;
    let rows: Vec<(u64, _)> = ex::fig_synthetic_scaling(true, false, mtbf_years, 2)
        .into_iter()
        .filter(|(p, _)| *p <= 1 << 11)
        .collect();
    assert!(!rows.is_empty());
    for (_, r) in &rows {
        assert!(r.get("DPNextFailure").is_some());
    }
}

#[test]
fn fig5_mini_shape_sweep() {
    let rows = ex::fig5(&[0.4], 2);
    assert_eq!(rows.len(), 1);
    let (_, r) = &rows[0];
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
    let kinds = ckpt_core::exp::PolicyKind::log_based_roster();
    let opts = ckpt_core::exp::RunnerOptions {
        period_lb: Some(vec![0.5, 1.0, 2.0]),
        ..Default::default()
    };
    let r = ckpt_core::exp::run_scenario(&sc, &kinds, &opts);
    assert!(r.get("DPNextFailure").expect("row").avg_degradation.is_some());
    assert!(r.get("Young").expect("row").avg_degradation.is_some());
    assert!(r.get("LowerBound").expect("row").avg_degradation.is_some());
}

#[test]
fn fig89_mini_period_sweep() {
    let r = ex::fig89(false, DAY, 2);
    // The sweep adds 17 scaled-OptExp rows on top of the roster.
    let scaled = r.outcomes.iter().filter(|o| o.name.starts_with("OptExp*")).count();
    assert_eq!(scaled, 17);
}

#[test]
fn matrix_cell_mini() {
    let r = ex::matrix_cell(
        true,
        false,
        ParallelismModel::NumericalKernel { gamma: 1.0 },
        true,
        125.0,
        1 << 10,
        2,
    );
    assert!(r.label.contains("kernel-1"));
    assert!(r.label.contains("prop"));
    assert!(r.get("OptExp").expect("row").avg_degradation.is_some());
}

#[test]
fn fig9899_mini_profiles() {
    let series = ex::fig9899(&PolicyKind::OptExp, false, 1);
    assert_eq!(series.len(), 6);
    // EP scales down with p; heavy-communication kernel eventually rises.
    let ep = &series.iter().find(|(m, _)| m == "ep").expect("ep").1;
    assert!(ep.first().expect("points").1 > ep.last().expect("points").1);
}
