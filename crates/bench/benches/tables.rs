//! Benches regenerating the paper's tables (reduced trace counts).
//!
//! Each bench runs one full degradation-from-best comparison and prints
//! the resulting rows once, so `cargo bench` both measures the harness
//! and reproduces the table shapes.

use ckpt_core::exp::catalog::{self, Params};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use std::sync::Once;

const TRACES: usize = 4;
/// Per-iteration trace count (the measured body).
const ITER_TRACES: usize = 2;

/// Run a registered study in memory at `traces` traces per cell and
/// return its rendered files.
fn run(name: &str, traces: usize) -> Vec<(String, String)> {
    let params = Params { traces: Some(traces), ..Params::default() };
    catalog::lookup(name).expect("registered")[0].run(&params).expect("cells run")
}

/// Print a study's rendered files once.
fn show(name: &str, traces: usize) {
    for (file, content) in run(name, traces) {
        println!("{file} ({traces} traces):\n{content}");
    }
}

fn table2_seq_exp(c: &mut Criterion) {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| show("table2", TRACES));
    c.bench_function("table2_seq_exp", |b| {
        b.iter(|| std::hint::black_box(run("table2", ITER_TRACES).len()))
    });
}

fn table3_seq_weibull(c: &mut Criterion) {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| show("table3", TRACES));
    c.bench_function("table3_seq_weibull", |b| {
        b.iter(|| std::hint::black_box(run("table3", ITER_TRACES).len()))
    });
}

fn table4_peta_weibull(c: &mut Criterion) {
    // Full-Jaguar cell at a bench-friendly trace count.
    static ONCE: Once = Once::new();
    ONCE.call_once(|| show("table4", 3));
    c.bench_function("table4_peta_weibull", |b| {
        b.iter(|| std::hint::black_box(run("table4", 1).len()))
    });
}

criterion_group! {
    name = tables;
    config = Criterion::default().sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    targets = table2_seq_exp, table3_seq_weibull, table4_peta_weibull
}
criterion_main!(tables);
