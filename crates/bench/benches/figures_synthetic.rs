//! Benches regenerating the synthetic-failure figures (2–6, 8/9, 98/99)
//! at reduced scale: one representative platform size per figure, a few
//! traces — enough to reproduce each figure's *shape* (who wins, roughly
//! by how much) while keeping `cargo bench` tractable. The cells are the
//! registry's (`ckpt_exp::catalog`), cut down to a few platform sizes.

use ckpt_core::exp::catalog::{self, Params};
use ckpt_core::exp::output::{csv_series, markdown_table, CSV_HEADER};
use ckpt_core::exp::study::run_cells;
use ckpt_core::exp::{run_scenario, DistSpec, PolicyKind, RunnerOptions, Scenario, ScenarioResult};
use ckpt_core::prelude::YEAR;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use std::sync::Once;

const TRACES: usize = 3;

fn params(traces: usize) -> Params {
    Params { traces: Some(traces), ..Params::default() }
}

/// Run a registered study in memory and return its rendered files.
fn run(name: &str, traces: usize) -> Vec<(String, String)> {
    catalog::lookup(name).expect("registered")[0].run(&params(traces)).expect("cells run")
}

/// The cells of a registered study that `keep` selects, run in memory,
/// each with its scenario.
fn run_some(name: &str, traces: usize, keep: impl Fn(&Scenario) -> bool) -> Vec<(Scenario, ScenarioResult)> {
    let cells: Vec<_> = catalog::lookup(name).expect("registered")[0]
        .cells(&params(traces))
        .into_iter()
        .filter(|c| keep(&c.scenario))
        .collect();
    let results = run_cells(&cells).into_iter().map(|r| r.expect("cell runs"));
    cells.into_iter().map(|c| c.scenario).zip(results).collect()
}

/// A degradation CSV of the selected cells, `x = p`.
fn series(rows: &[(Scenario, ScenarioResult)]) -> String {
    let mut csv = String::from(CSV_HEADER);
    for (sc, r) in rows {
        csv.push_str(&csv_series(sc.procs as f64, r));
    }
    csv
}

fn fig2_peta_exp(c: &mut Criterion) {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let rows = run_some("fig2", TRACES, |sc| [1 << 10, 1 << 12].contains(&sc.procs));
        println!("Figure 2 series (Exponential, Petascale):\n{}", series(&rows));
    });
    c.bench_function("fig2_peta_exp_cell", |b| {
        b.iter(|| std::hint::black_box(run_some("fig2", 1, |sc| sc.procs == 1 << 11).len()))
    });
}

fn fig4_peta_weibull(c: &mut Criterion) {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let rows = run_some("fig4", TRACES, |sc| [1 << 10, 1 << 12].contains(&sc.procs));
        println!("Figure 4 series (Weibull, Petascale):\n{}", series(&rows));
    });
    c.bench_function("fig4_peta_weibull_cell", |b| {
        b.iter(|| std::hint::black_box(run_some("fig4", 1, |sc| sc.procs == 1 << 11).len()))
    });
}

fn fig3_fig6_exascale(c: &mut Criterion) {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        // One Exascale cell each for the Exponential (fig 3) and Weibull
        // (fig 6) variants.
        for name in ["fig3", "fig6"] {
            for (_, r) in run_some(name, 1, |sc| sc.procs == 1 << 15) {
                println!("{name} cell (p = 2^15):\n{}", markdown_table(&r));
            }
        }
    });
    c.bench_function("fig6_exa_weibull_cell", |b| {
        b.iter(|| {
            let sc = Scenario::exascale(
                DistSpec::Weibull { shape: 0.7, mtbf: 1_250.0 * YEAR },
                1 << 14,
                1,
            );
            let r = run_scenario(
                &sc,
                &[PolicyKind::Young, PolicyKind::DpNextFailure(Default::default())],
                &RunnerOptions { period_lb: None, ..Default::default() },
            );
            std::hint::black_box(r.outcomes.len())
        })
    });
}

/// Whether `sc` is a Weibull cell of one of `shapes`.
fn shape_in(sc: &Scenario, shapes: &[f64]) -> bool {
    matches!(sc.dist, DistSpec::Weibull { shape, .. } if shapes.contains(&shape))
}

fn fig5_shape_sweep(c: &mut Criterion) {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let mut csv = String::from(CSV_HEADER);
        for (sc, r) in run_some("fig5", 1, |sc| shape_in(sc, &[0.3, 0.7])) {
            let DistSpec::Weibull { shape, .. } = sc.dist else { unreachable!("Weibull cells") };
            csv.push_str(&csv_series(shape, &r));
        }
        println!("Figure 5 series (shape sweep, p = 45,208):\n{csv}");
    });
    c.bench_function("fig5_shape_cell", |b| {
        b.iter(|| std::hint::black_box(run_some("fig5", 1, |sc| shape_in(sc, &[0.7])).len()))
    });
}

fn fig8_period_sweep_seq(c: &mut Criterion) {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        for name in ["fig8", "fig9"] {
            for (file, content) in run(name, TRACES) {
                println!("{file} (1-proc period sweep):\n{content}");
            }
        }
    });
    c.bench_function("fig8_period_sweep_seq", |b| {
        b.iter(|| std::hint::black_box(run("fig8", 1).len()))
    });
}

fn fig98_makespan_profiles(c: &mut Criterion) {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        for (file, content) in run("fig98", 2) {
            println!("{file} (mean makespan by application profile, OptExp):\n{content}");
        }
    });
    c.bench_function("fig98_makespan_profiles", |b| {
        b.iter(|| std::hint::black_box(run("fig98", 1).len()))
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    targets = fig2_peta_exp, fig4_peta_weibull, fig3_fig6_exascale, fig5_shape_sweep,
              fig8_period_sweep_seq, fig98_makespan_profiles
}
criterion_main!(figures);
