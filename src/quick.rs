//! High-level one-call helpers.

use ckpt_policies::OptExp;
use ckpt_workload::JobSpec;

pub use ckpt_exp::Study;

/// The Theorem-1 optimal checkpoint period (seconds of work between
/// checkpoints) for Exponential failures with the given per-processor
/// MTBF.
pub fn optimal_period(spec: &JobSpec, proc_mtbf: f64) -> f64 {
    OptExp::from_mtbf(spec, proc_mtbf).period()
}

/// The Theorem-1 optimal expected makespan for a sequential job, seconds.
///
/// # Panics
/// Panics when `spec.procs != 1` (the closed form is sequential; parallel
/// expectations need simulation, §3.2).
pub fn expected_makespan(spec: &JobSpec, mtbf: f64) -> f64 {
    ckpt_policies::optexp::optimal_expected_makespan_sequential(spec, 1.0 / mtbf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_period_positive_and_bounded() {
        let spec = JobSpec::table1_single_processor();
        let p = optimal_period(&spec, 86_400.0);
        assert!(p > 0.0 && p <= spec.work);
    }

    #[test]
    fn expected_makespan_exceeds_work() {
        let spec = JobSpec::table1_single_processor();
        let m = expected_makespan(&spec, 7.0 * 86_400.0);
        assert!(m > spec.work);
    }

    #[test]
    #[should_panic]
    fn expected_makespan_rejects_parallel() {
        let spec = JobSpec::table1_petascale(1024);
        expected_makespan(&spec, 1e9);
    }
}
