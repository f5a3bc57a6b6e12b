//! Batch experiment API: run many scenarios with one roster and one set
//! of options.
//!
//! A [`Study`] is the in-memory front door to the study loop: configure
//! the roster and runner options once, then [`Study::run_all`] a batch
//! of one or more cells. Scenario-level failures come back as values
//! (`Result` per cell), so one malformed cell cannot abort a sweep;
//! per-policy failures stay inside each [`ScenarioResult`] as error
//! rows. [`Study::to_def`] lowers the same batch for
//! [`run_study`](crate::checkpoint::run_study), which runs it with the
//! checkpoint store attached.
//!
//! **Where the parallelism lives.** [`Study::run_all`] is
//! [`run_in_memory`]: every cell's work items, in cell order, through
//! the crate's one wave loop (`exec::run_waves`). A wave ends
//! at each cell boundary and at each refine item, and fans its items out
//! over the shared-cursor executor ([`crate::steal`]); a cell's waves
//! already saturate the worker pool, so waves never span cells. Results
//! are worker-count-invariant (the executor commits in task-ID order),
//! so only the scheduling counters, never the aggregates, depend on
//! `--threads`. A cell's traces and roster are dropped when its last
//! item ran, and a trace stream when its last reading cell did.
//!
//! ```no_run
//! use ckpt_exp::{DistSpec, Scenario, Study};
//!
//! let year = 365.25 * 86_400.0;
//! let cells: Vec<Scenario> = (8..=12)
//!     .map(|e| {
//!         Scenario::petascale(
//!             DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * year },
//!             1 << e,
//!             100,
//!         )
//!     })
//!     .collect();
//! for result in Study::new().run_all(&cells).into_iter().flatten() {
//!     println!("{}: {:?}", result.label, result.period_lb_factor);
//! }
//! ```

use crate::checkpoint::{run_in_memory, StudyDef};
use crate::error::Error;
use crate::policies_spec::PolicyKind;
use crate::runner::{RunnerOptions, ScenarioResult};
use crate::scenario::{DistSpec, Scenario};

/// A configured batch of scenario runs. The default study runs the
/// paper's §4.1 roster, with `DPMakespan` included only where its
/// makespan table is exact (sequential jobs or Exponential failures).
#[derive(Debug, Clone, Default)]
pub struct Study {
    kinds: Option<Vec<PolicyKind>>,
    options: RunnerOptions,
}

impl Study {
    /// A study with the default roster and default runner options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the per-scenario default roster with a fixed one.
    #[must_use]
    pub fn with_kinds(mut self, kinds: impl Into<Vec<PolicyKind>>) -> Self {
        self.kinds = Some(kinds.into());
        self
    }

    /// Replace the runner options (period grid, lower-bound row, engine
    /// options).
    #[must_use]
    pub fn with_options(mut self, options: RunnerOptions) -> Self {
        self.options = options;
        self
    }

    /// The roster this study runs on `scenario`: the configured one, or
    /// the paper's §4.1 roster with `DPMakespan` only where exact.
    pub fn roster_for(&self, scenario: &Scenario) -> Vec<PolicyKind> {
        match &self.kinds {
            Some(kinds) => kinds.clone(),
            None => {
                let include_dp_makespan = scenario.procs == 1
                    || matches!(scenario.dist, DistSpec::Exponential { .. });
                PolicyKind::paper_roster(include_dp_makespan)
            }
        }
    }

    /// Run every scenario through [`run_in_memory`], one result per cell
    /// in input order. Failures are per-cell values: a malformed cell
    /// yields its `Err` — wrapped as [`Error::Cell`] with the scenario's
    /// label, so a failure in a 100-cell sweep is attributable from the
    /// error value alone — without aborting the rest of the batch.
    pub fn run_all(&self, scenarios: &[Scenario]) -> Vec<Result<ScenarioResult, Error>> {
        run_in_memory(&self.to_def("", scenarios))
    }

    /// Lower this study over `scenarios` into a [`StudyDef`] for either
    /// study entry ([`run_in_memory`], or
    /// [`run_study`](crate::checkpoint::run_study) with a store): same
    /// per-scenario roster, same options, one cell per scenario in input
    /// order.
    pub fn to_def(&self, id: impl Into<String>, scenarios: &[Scenario]) -> StudyDef {
        StudyDef::new(
            id,
            scenarios
                .iter()
                .map(|sc| (sc.clone(), self.roster_for(sc), self.options.clone())),
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ckpt_sim::SimOptions;

    fn fast_options() -> RunnerOptions {
        RunnerOptions {
            lower_bound: true,
            period_lb: Some(vec![0.5, 1.0, 2.0]),
            sim: SimOptions::default(),
        }
    }

    fn tiny(mtbf: f64) -> Scenario {
        let mut s = Scenario::single_processor(DistSpec::Exponential { mtbf }, 4);
        s.total_work = 12.0 * 3_600.0;
        s
    }

    #[test]
    fn run_all_returns_one_result_per_cell_in_order() {
        let study = Study::new()
            .with_kinds([PolicyKind::Young, PolicyKind::OptExp])
            .with_options(fast_options());
        let cells = [tiny(6.0 * 3_600.0), tiny(12.0 * 3_600.0)];
        let results = study.run_all(&cells);
        assert_eq!(results.len(), 2);
        for (r, sc) in results.iter().zip(&cells) {
            let r = r.as_ref().expect("well-formed cells");
            assert_eq!(r.label, sc.label);
            assert!(r.get("Young").is_some());
        }
        // Longer MTBF ⇒ shorter makespan, so order is observable.
        let a = results[0].as_ref().unwrap().get("Young").unwrap().mean_makespan.unwrap();
        let b = results[1].as_ref().unwrap().get("Young").unwrap().mean_makespan.unwrap();
        assert!(b < a);
    }

    #[test]
    fn batch_matches_single_runs_bitwise() {
        let study = Study::new()
            .with_kinds([PolicyKind::Young])
            .with_options(fast_options());
        let cells = [tiny(6.0 * 3_600.0), tiny(12.0 * 3_600.0)];
        let batch = study.run_all(&cells);
        for (batched, cell) in batch.iter().zip(&cells) {
            let single = study.run_all(std::slice::from_ref(cell)).remove(0).expect("runs");
            assert_eq!(
                crate::golden::golden_json(batched.as_ref().expect("runs")),
                crate::golden::golden_json(&single)
            );
        }
    }

    #[test]
    fn study_results_are_bit_identical_across_worker_counts() {
        // The study-level half of the worker-invariance contract: the
        // same batch at 1 and at 8 workers produces bitwise-equal rows.
        // (check.sh proves the same property over the full golden study
        // through the CLI; this pins it in-process for `cargo test`.)
        let study = Study::new()
            .with_kinds([PolicyKind::Young, PolicyKind::OptExp])
            .with_options(fast_options());
        let cells = [tiny(6.0 * 3_600.0), tiny(12.0 * 3_600.0)];
        let run_at = |workers: usize| crate::steal::tests::at_workers(workers, || study.run_all(&cells));
        let seq = run_at(1);
        let par = run_at(8);
        for (a, b) in seq.iter().zip(&par) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.label, b.label);
            for (ra, rb) in a.outcomes.iter().zip(&b.outcomes) {
                assert_eq!(ra.name, rb.name);
                assert_eq!(
                    ra.mean_makespan.map(f64::to_bits),
                    rb.mean_makespan.map(f64::to_bits),
                    "{}",
                    ra.name
                );
                assert_eq!(
                    ra.avg_degradation.map(f64::to_bits),
                    rb.avg_degradation.map(f64::to_bits),
                    "{}",
                    ra.name
                );
            }
            assert_eq!(
                a.period_lb_factor.map(f64::to_bits),
                b.period_lb_factor.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn run_all_errors_carry_the_scenario_label() {
        let mut bad = tiny(6.0 * 3_600.0);
        bad.dist = DistSpec::LanlLog { cluster: 99 };
        bad.label = "study-bad-cell".into();
        let study = Study::new()
            .with_kinds([PolicyKind::Young])
            .with_options(fast_options());
        let results = study.run_all(std::slice::from_ref(&bad));
        let err = results[0].as_ref().expect_err("cluster 99 is unmodelled");
        // The failing cell is attributable from the error value alone.
        assert!(
            matches!(err, Error::Cell { label, .. } if label == "study-bad-cell"),
            "{err:?}"
        );
        assert!(err.to_string().starts_with("cell study-bad-cell: "), "{err}");
    }

    #[test]
    fn with_kinds_replaces_the_default_roster_on_every_cell() {
        let study = Study::new()
            .with_kinds([PolicyKind::OptExp, PolicyKind::Young])
            .with_options(fast_options());
        let year = 365.25 * 86_400.0;
        let peta = Scenario::petascale(
            DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * year },
            1 << 10,
            2,
        );
        for sc in [tiny(6.0 * 3_600.0), peta] {
            assert_eq!(study.roster_for(&sc), [PolicyKind::OptExp, PolicyKind::Young]);
        }
        let r = study.run_all(&[tiny(6.0 * 3_600.0)]).remove(0).expect("runs");
        let names: Vec<&str> = r.outcomes.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["LowerBound", "PeriodLB", "OptExp", "Young"]);
    }

    #[test]
    fn to_def_lowers_roster_and_options_per_cell() {
        let study = Study::new()
            .with_kinds([PolicyKind::Young, PolicyKind::OptExp])
            .with_options(fast_options());
        let cells = [tiny(6.0 * 3_600.0), tiny(12.0 * 3_600.0)];
        let def = study.to_def("lowered", &cells);
        assert_eq!(def.id, "lowered");
        assert_eq!(def.cells.len(), 2);
        for (cell, sc) in def.cells.iter().zip(&cells) {
            assert_eq!(cell.scenario.label, sc.label);
            assert_eq!(cell.kinds, study.roster_for(sc));
        }
    }

    #[test]
    fn default_roster_mirrors_degradation_table_rule() {
        let study = Study::new();
        let seq = tiny(6.0 * 3_600.0);
        assert!(study
            .roster_for(&seq)
            .iter()
            .any(|k| matches!(k, PolicyKind::DpMakespan(_))));
        let year = 365.25 * 86_400.0;
        let peta = Scenario::petascale(
            DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * year },
            1 << 10,
            2,
        );
        assert!(!study
            .roster_for(&peta)
            .iter()
            .any(|k| matches!(k, PolicyKind::DpMakespan(_))));
    }
}
