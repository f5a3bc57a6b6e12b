//! The paper's headline experiment in miniature (Figure 4 / Table 4):
//! on a Petascale platform with Weibull failures, the dynamic-programming
//! policy `DPNextFailure` beats every previously proposed heuristic.
//!
//! ```text
//! cargo run --release --example petascale_weibull [-- <procs> <traces>]
//! ```
//!
//! Defaults to 4,096 processors and 12 traces; pass `45208 600` to
//! reproduce the full Table 4 cell (which takes correspondingly longer).

use checkpointing_strategies::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let procs: u64 = args.next().map(|s| s.parse().expect("procs")).unwrap_or(1 << 12);
    let traces: usize = args.next().map(|s| s.parse().expect("traces")).unwrap_or(12);

    let scenario = Scenario::petascale(
        DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * YEAR },
        procs,
        traces,
    );
    let spec = scenario.job_spec();
    println!(
        "Petascale Weibull cell: p = {procs}, W(p) = {:.1} days, C = R = {:.0} s, {traces} traces",
        spec.work / DAY,
        spec.checkpoint
    );
    println!("(shape k = 0.7, processor MTBF = 125 years — §5.2.2)\n");

    let result = checkpointing_strategies::quick::degradation_table(&scenario);
    println!("{}", checkpointing_strategies::exp::output::markdown_table(&result));

    let dp = result.get("DPNextFailure").expect("DPNextFailure row");
    if let (Some(d), Some((lo, hi))) = (dp.avg_degradation, dp.chunk_range) {
        println!("DPNextFailure degradation: {d:.4}");
        println!(
            "DPNextFailure adapted its inter-checkpoint intervals between {lo:.0} s and {hi:.0} s"
        );
        println!("(the paper reports 2,984 s … 6,108 s at p = 45,208 — non-periodicity is the point)");
    }
    if let Some(f) = dp.max_failures {
        println!("max failures in any run: {f} → sparing guidance (§5.2.2)");
    }
}
