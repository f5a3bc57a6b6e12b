//! Quick per-policy wall-clock profile on the bench cell (dev tool).

use ckpt_exp::cache::TraceCache;
use ckpt_exp::policies_spec::PolicyKind;
use ckpt_exp::scenario::{DistSpec, Scenario};
use ckpt_sim::SimOptions;
use std::time::Instant;

const YEAR: f64 = 365.25 * 86_400.0;

fn main() {
    let traces: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(2);
    let scenario = Scenario::petascale(
        DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * YEAR },
        1 << 12,
        traces,
    );
    let built = scenario.dist.build();
    let spec = scenario.job_spec();
    let cache = TraceCache::global();
    let cached: Vec<_> = (0..traces).map(|i| cache.get_or_generate(&scenario, &built, i)).collect();
    for kind in PolicyKind::paper_roster(false) {
        let name = kind.name();
        let policy = match kind.build(&scenario, &built) {
            Ok(p) => p,
            Err(e) => {
                println!("{name:<14} SKIP: {e}");
                continue;
            }
        };
        let t0 = Instant::now();
        let mut decisions = 0u64;
        for ct in &cached {
            let mut s = policy.session();
            let st = ckpt_sim::simulate(
                &spec,
                &mut *s,
                &ct.events,
                ct.procs_per_unit(),
                ct.traces.start_time,
                ct.traces.horizon,
                SimOptions::default(),
            );
            decisions += st.decisions;
        }
        println!("{name:<14} {:>8.3}s  {decisions} decisions", t0.elapsed().as_secs_f64());
    }

    // Omniscient lower bound (runs in the same roster wave as the
    // policies, so its cost lands in the policy_sims stage).
    let t0 = Instant::now();
    for ct in &cached {
        let (start, horizon) = (ct.traces.start_time, ct.traces.horizon);
        let stats = ckpt_sim::lower_bound_on_events(&spec, &ct.events, start, horizon);
        std::hint::black_box(stats.makespan);
    }
    println!("{:<14} {:>8.3}s", "LowerBound", t0.elapsed().as_secs_f64());

    // Direct DP run with plan-cache statistics.
    let dp = ckpt_policies::DpNextFailure::new(
        &spec,
        built.dist.clone_box(),
        built.proc_mtbf,
        ckpt_policies::DpNextFailureConfig::default(),
    );
    let t0 = Instant::now();
    for ct in &cached {
        let mut s = ckpt_policies::Policy::session(&dp);
        let st = ckpt_sim::simulate(
            &spec,
            &mut *s,
            &ct.events,
            ct.procs_per_unit(),
            ct.traces.start_time,
            ct.traces.horizon,
            SimOptions::default(),
        );
        std::hint::black_box(st);
    }
    let (total_plans, cold_plans) = dp.plan_stats();
    println!(
        "dp direct: {:.3}s, {total_plans} plans ({cold_plans} cold)",
        t0.elapsed().as_secs_f64()
    );
    println!("dp quanta = {}", dp.quanta());
    let t0 = Instant::now();
    let n_plans = 40;
    for i in 0..n_plans {
        let ages = ckpt_platform::AgeView::new(
            vec![(1_000.0 + 777.0 * i as f64, 1), (50_000.0 + 33_333.0 * i as f64, 1)],
            4_094,
            YEAR + 300_000.0 * i as f64,
        );
        let plan = dp.plan(spec.work / spec.procs as f64, &ages);
        std::hint::black_box(plan);
    }
    println!(
        "cold plan avg: {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3 / n_plans as f64
    );
}
