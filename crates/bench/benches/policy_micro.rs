//! Micro-benches of the numerical and algorithmic hot paths.

use ckpt_core::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn lambert_w(c: &mut Criterion) {
    c.bench_function("lambert_w0_theorem1_arg", |b| {
        let z = -(-1e-4f64 - 1.0).exp();
        b.iter(|| std::hint::black_box(ckpt_core::math::lambert_w0(std::hint::black_box(z))))
    });
}

fn optexp_construction(c: &mut Criterion) {
    let spec = JobSpec::table1_petascale(45_208);
    c.bench_function("optexp_period_jaguar", |b| {
        b.iter(|| std::hint::black_box(OptExp::from_mtbf(&spec, 125.0 * YEAR).period()))
    });
}

fn weibull_expected_loss(c: &mut Criterion) {
    let d = Weibull::from_mtbf(0.7, 125.0 * YEAR);
    c.bench_function("weibull_expected_loss_quadrature", |b| {
        b.iter(|| std::hint::black_box(d.expected_loss(3_600.0, 50_000.0)))
    });
}

fn registry_policy_build(c: &mut Criterion) {
    // End-to-end policy instantiation through the experiment registry —
    // the same path the runner and CLI take per scenario.
    let sc = ckpt_bench::bench_scenario_peta_weibull();
    c.bench_function("registry_build_optexp_peta", |b| {
        b.iter(|| std::hint::black_box(ckpt_bench::bench_policy("OptExp", &sc).name().len()))
    });
}

fn dp_next_failure_plan(c: &mut Criterion) {
    let spec = JobSpec::table1_petascale(1 << 12);
    let mtbf = 125.0 * YEAR;
    let dp = DpNextFailure::new(
        &spec,
        Box::new(Weibull::from_mtbf(0.7, mtbf)),
        mtbf,
        DpNextFailureConfig { quanta: Some(120), ..Default::default() },
    );
    c.bench_function("dp_next_failure_plan_120q", |b| {
        b.iter(|| {
            // Vary the age to defeat the plan cache — we measure the solve.
            static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let k = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let ages = AgeView::all_pristine(spec.procs, 60.0 + k as f64 * 4_099.0);
            std::hint::black_box(dp.plan(spec.work, &ages).len())
        })
    });
}

fn dp_next_failure_plan_cache_hit(c: &mut Criterion) {
    // Counterpart of `dp_next_failure_plan_120q`: same solve, but the
    // age snapshot is fixed so every call after the first is served by
    // the shared plan cache. The gap between the two benches is the
    // per-decision saving the shared cache buys inside a trace wave.
    let spec = JobSpec::table1_petascale(1 << 12);
    let mtbf = 125.0 * YEAR;
    let dp = DpNextFailure::new(
        &spec,
        Box::new(Weibull::from_mtbf(0.7, mtbf)),
        mtbf,
        DpNextFailureConfig { quanta: Some(120), ..Default::default() },
    );
    let ages = AgeView::all_pristine(spec.procs, 60.0);
    let _ = dp.plan(spec.work, &ages); // warm the cache
    c.bench_function("dp_next_failure_plan_120q_cache_hit", |b| {
        b.iter(|| std::hint::black_box(dp.plan(spec.work, &ages).len()))
    });
}

fn kernel_table_vs_direct(c: &mut Criterion) {
    // The DP inner loops used to call `Weibull::log_survival` (a powf)
    // per grid point; they now read a precomputed kernel table. Keep both
    // costs visible so regressions in either path show up.
    let d = Weibull::from_mtbf(0.7, 125.0 * YEAR);
    let horizon = 2.0e9;
    let table = KernelTable::build(Box::new(d), horizon, 40_000.0);
    let queries: Vec<f64> = (0..64).map(|i| 1.0e4 + i as f64 * 2.7e7).collect();
    c.bench_function("kernel_table_log_survival_64pts", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &t in &queries {
                acc += table.log_survival(std::hint::black_box(t));
            }
            std::hint::black_box(acc)
        })
    });
    let d = Weibull::from_mtbf(0.7, 125.0 * YEAR);
    c.bench_function("weibull_log_survival_direct_64pts", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &t in &queries {
                acc += d.log_survival(std::hint::black_box(t));
            }
            std::hint::black_box(acc)
        })
    });
}

fn cold_row_batched_vs_scalar(c: &mut Criterion) {
    // A cold kernel row is one `log_survival` per grid point. Two ways
    // to fill it: the trait-default scalar loop (glibc `powf` per
    // element — what `Weibull` ships) and the batched ln→exp
    // composition in `ckpt_math::simd::weibull_log_survival`. On the
    // SSE2 baseline the scalar `powf` wins (~14 vs ~20 ns/element),
    // which is why `Weibull` has no `log_survival_batch` override; this
    // pair keeps that trade-off measured so the call can be revisited
    // on wider targets.
    let d = Weibull::from_mtbf(0.7, 125.0 * YEAR);
    let (shape, scale) = (d.shape(), d.scale());
    let ts: Vec<f64> = (0..256).map(|i| 1.0e4 + i as f64 * 2.7e7).collect();
    let mut out = vec![0.0f64; ts.len()];
    c.bench_function("cold_row_scalar_powf_256pts", |b| {
        b.iter(|| {
            d.log_survival_batch(std::hint::black_box(&ts), &mut out);
            std::hint::black_box(out[0])
        })
    });
    c.bench_function("cold_row_batched_ln_exp_256pts", |b| {
        b.iter(|| {
            ckpt_core::math::simd::weibull_log_survival(
                std::hint::black_box(&ts),
                shape,
                scale,
                &mut out,
            );
            std::hint::black_box(out[0])
        })
    });
}

fn dp_makespan_build(c: &mut Criterion) {
    let spec = JobSpec::table1_single_processor();
    c.bench_function("dp_makespan_build_60q_weibull", |b| {
        b.iter(|| {
            let dp = DpMakespan::new(
                &spec,
                Box::new(Weibull::from_mtbf(0.7, DAY)),
                DpMakespanConfig { quanta: Some(60), assume_memoryless: false },
            );
            std::hint::black_box(dp.value(60, 0.0))
        })
    });
    // The Table 3 1-week cell at its auto-sized quanta (385): the size
    // at which the O(n³) Bellman fill, not the ladders, sets the cost.
    c.bench_function("dp_makespan_build_auto_weibull_week", |b| {
        b.iter(|| {
            let dp = DpMakespan::new(
                &spec,
                Box::new(Weibull::from_mtbf(0.7, WEEK)),
                DpMakespanConfig { quanta: None, assume_memoryless: false },
            );
            std::hint::black_box(dp.value(dp.quanta(), 0.0))
        })
    });
}

fn engine_throughput(c: &mut Criterion) {
    let spec = JobSpec::table1_single_processor();
    let dist = Exponential::from_mtbf(6.0 * HOUR);
    let traces = TraceSet::generate(
        &dist,
        1,
        Topology::per_processor(),
        2.0 * YEAR,
        0.0,
        SeedSequence::from_label("micro-engine"),
    );
    let events = traces.platform_events();
    let policy = young(&spec, 6.0 * HOUR);
    c.bench_function("engine_one_trace_seq", |b| {
        b.iter(|| {
            let mut s = policy.session();
            std::hint::black_box(
                simulate(&spec, &mut *s, &events, 1, 0.0, traces.horizon, SimOptions::default())
                    .makespan,
            )
        })
    });
}

fn trace_generation(c: &mut Criterion) {
    let dist = Weibull::from_mtbf(0.7, 125.0 * YEAR);
    c.bench_function("trace_generation_4096_procs", |b| {
        b.iter(|| {
            let t = TraceSet::generate(
                &dist,
                4_096,
                Topology::per_processor(),
                11.0 * YEAR,
                YEAR,
                SeedSequence::from_label("micro-gen"),
            );
            std::hint::black_box(t.platform_events().len())
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3));
    targets = lambert_w, optexp_construction, weibull_expected_loss,
              registry_policy_build, dp_next_failure_plan,
              dp_next_failure_plan_cache_hit, kernel_table_vs_direct,
              cold_row_batched_vs_scalar, dp_makespan_build,
              engine_throughput, trace_generation
}
criterion_main!(micro);
