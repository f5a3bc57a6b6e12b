//! Figure 1 and the §3.1 rejuvenation argument, analytically and by
//! simulation.
//!
//! ```text
//! cargo run --release --example rejuvenation_tradeoff
//! ```
//!
//! For Weibull failures with shape k < 1 (all published fits of real
//! systems), rejuvenating every processor after each failure *destroys*
//! the platform MTBF (`D + μ/p^{1/k}` vs `(D + μ)/p`), because a renewed
//! platform re-enters its high-hazard infancy. The example prints the
//! analytic Figure 1 curves and then demonstrates the effect end-to-end by
//! simulating the same job under both models.

use checkpointing_strategies::prelude::*;

fn main() {
    let proc = Weibull::from_mtbf(0.7, 125.0 * YEAR);
    let downtime = 60.0;

    println!("Figure 1 — platform MTBF (hours), Weibull k = 0.7, proc MTBF 125 y:");
    println!("{:>10}  {:>18}  {:>18}", "p", "rejuvenate all", "failed only");
    for e in [4u32, 8, 12, 16, 20, 22] {
        let p = 1u64 << e;
        let all = checkpointing_strategies::platform::platform_mtbf_rejuvenate_all(&proc, downtime, p);
        let failed = checkpointing_strategies::platform::platform_mtbf_failed_only(proc.mean(), downtime, p);
        println!(
            "{:>10}  {:>18.2}  {:>18.2}",
            p,
            all / HOUR,
            failed / HOUR
        );
    }

    // End-to-end: same job, same per-processor Weibull, both models.
    let p = 1u64 << 12;
    let spec = JobSpec {
        procs: p,
        ..JobSpec::sequential(30.0 * DAY, 600.0, 600.0, downtime)
    };
    let policy = young(&spec, 125.0 * YEAR);
    let runs = 20;

    // Failed-only: trace-driven.
    let mut failed_only = (0.0, 0u64);
    for i in 0..runs {
        let traces = TraceSet::generate(
            &proc,
            p as usize,
            Topology::per_processor(),
            2.0 * YEAR,
            0.5 * YEAR,
            SeedSequence::from_label("rejuv-example").child(i),
        );
        let mut s = policy.session();
        let st = simulate(
            &spec,
            &mut *s,
            &traces.platform_events(),
            1,
            traces.start_time,
            traces.horizon,
            SimOptions::default(),
        );
        failed_only.0 += st.makespan;
        failed_only.1 += st.failures;
    }

    // Rejuvenate-all: min-of-p sampling.
    let plat = proc.min_of(p);
    let mut rejuv_all = (0.0, 0u64);
    for i in 0..runs {
        let mut s = policy.session();
        let st = simulate_rejuvenate_all(&spec, &mut *s, &plat, 1_000 + i, SimOptions::default());
        rejuv_all.0 += st.makespan;
        rejuv_all.1 += st.failures;
    }

    println!("\nSame 30-day job on p = {p}, Young policy, {runs} runs each:");
    println!(
        "  failed-only rejuvenation : mean makespan {:.2} days, {:.1} failures/run",
        failed_only.0 / runs as f64 / DAY,
        failed_only.1 as f64 / runs as f64
    );
    println!(
        "  rejuvenate-all           : mean makespan {:.2} days, {:.1} failures/run",
        rejuv_all.0 / runs as f64 / DAY,
        rejuv_all.1 as f64 / runs as f64
    );
    println!("\nRejuvenate-all suffers far more failures — the paper's case for the");
    println!("single-processor-rejuvenation model (§3.1).");
}
