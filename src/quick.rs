//! High-level one-call helpers.

use ckpt_exp::{Scenario, ScenarioResult};
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

/// Run a full degradation-from-best comparison (the paper's table format)
/// on one scenario with the standard §4.1 roster ([`Study::new`]).
///
/// # Panics
/// When the scenario itself is malformed (its distribution cannot be
/// built). For batches of cells — or to handle malformed scenarios as
/// values instead of panics — use [`Study`] and its `run_all`.
pub fn degradation_table(scenario: &Scenario) -> ScenarioResult {
    match Study::new().run(scenario) {
        Ok(r) => r,
        Err(e) => panic!("scenario {}: {e}", scenario.label),
    }
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

    #[test]
    fn study_run_all_matches_degradation_table() {
        let mut sc = Scenario::single_processor(
            ckpt_exp::DistSpec::Exponential { mtbf: 6.0 * 3_600.0 },
            3,
        );
        sc.total_work = 12.0 * 3_600.0;
        let table = degradation_table(&sc);
        let batch = Study::new().run_all(std::slice::from_ref(&sc));
        let r = batch[0].as_ref().expect("well-formed cell");
        // Same default roster, same options → bit-identical rows.
        assert_eq!(r.outcomes.len(), table.outcomes.len());
        for (a, b) in r.outcomes.iter().zip(&table.outcomes) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.mean_makespan, b.mean_makespan, "{}", a.name);
        }
    }
}
