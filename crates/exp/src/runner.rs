//! The user-facing types of a scenario run: [`RunnerOptions`] in,
//! [`ScenarioResult`] of [`PolicyOutcome`] rows out, and the period
//! factor grids (re-exported from [`crate::plan`]). A cell runs through
//! the study loop: [`Study::run_all`](crate::Study::run_all), or
//! [`run_in_memory`](crate::run_in_memory) and
//! [`run_study`](crate::run_study) for cells that carry their own
//! rosters.

use crate::error::Error;
use crate::perf::PipelinePerf;
use ckpt_sim::SimOptions;

pub use crate::plan::{default_period_grid, paper_period_grid};

/// Runner knobs.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Include the omniscient `LowerBound` row.
    pub lower_bound: bool,
    /// Include the `PeriodLB` numeric search; the value is the period
    /// factor grid applied to the OptExp period, searched coarse to fine
    /// ([`crate::plan::SimPlan::coarse`]).
    pub period_lb: Option<Vec<f64>>,
    /// Engine safety options.
    pub sim: SimOptions,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        Self {
            lower_bound: true,
            period_lb: Some(default_period_grid()),
            sim: SimOptions::default(),
        }
    }
}

impl RunnerOptions {
    /// Defaults, but with the paper's §4.1 period grid.
    pub fn default_with_paper_grid() -> Self {
        Self { period_lb: Some(paper_period_grid()), ..Self::default() }
    }
}

/// Result row for one policy in one scenario.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// Display name.
    pub name: String,
    /// Average degradation from best (§4.1) — `None` when the policy could
    /// not run (Liu's nonsensical placements).
    pub avg_degradation: Option<f64>,
    /// Standard deviation of the degradation.
    pub std_degradation: Option<f64>,
    /// Mean makespan, seconds.
    pub mean_makespan: Option<f64>,
    /// Mean number of failures per run.
    pub mean_failures: Option<f64>,
    /// Maximum failures over all runs (spare-processor sizing, §5.2.2).
    pub max_failures: Option<u64>,
    /// Smallest / largest chunk attempted across all runs.
    pub chunk_range: Option<(f64, f64)>,
    /// For `PeriodLB`: the winning factor over the OptExp period.
    pub period_factor: Option<f64>,
    /// Why the policy is absent, when it is.
    pub error: Option<String>,
}

impl PolicyOutcome {
    pub(crate) fn absent(name: &str, error: String) -> Self {
        Self {
            name: name.to_string(),
            avg_degradation: None,
            std_degradation: None,
            mean_makespan: None,
            mean_failures: None,
            max_failures: None,
            chunk_range: None,
            period_factor: None,
            error: Some(error),
        }
    }
}

/// All rows of one scenario plus metadata.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario's label.
    pub label: String,
    /// Processor count.
    pub procs: u64,
    /// Trace count actually simulated.
    pub traces: usize,
    /// Policy rows, `LowerBound` first when present.
    pub outcomes: Vec<PolicyOutcome>,
    /// The `PeriodLB` winning factor (over the OptExp period), if searched.
    pub period_lb_factor: Option<f64>,
    /// Work counters folded from the cell's payloads, and the stages
    /// timed on the way (`aggregate`; [`crate::exec::execute`] adds its
    /// own).
    pub perf: PipelinePerf,
}

impl ScenarioResult {
    /// Look up a row by name, case-insensitively (row names are unique
    /// up to case: `LowerBound`, `PeriodLB`, and the registry names).
    pub fn get(&self, name: &str) -> Option<&PolicyOutcome> {
        self.outcomes.iter().find(|o| o.name.eq_ignore_ascii_case(name))
    }

    /// Like [`Self::get`], but a miss names every row this result holds.
    ///
    /// # Errors
    /// [`Error::UnknownPolicy`] listing the available row names.
    pub fn lookup(&self, name: &str) -> Result<&PolicyOutcome, Error> {
        self.get(name).ok_or_else(|| Error::UnknownPolicy {
            requested: name.to_string(),
            known: self.outcomes.iter().map(|o| o.name.clone()).collect(),
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::policies_spec::PolicyKind;
    use crate::scenario::{DistSpec, Scenario};
    use crate::study::Study;

    fn tiny_scenario() -> Scenario {
        // Small, fast cell: sequential job, hour-scale MTBF.
        let mut s = Scenario::single_processor(
            DistSpec::Exponential { mtbf: 6.0 * 3_600.0 },
            12,
        );
        s.total_work = 12.0 * 3_600.0;
        s
    }

    fn fast_options() -> RunnerOptions {
        RunnerOptions {
            lower_bound: true,
            period_lb: Some(vec![0.5, 1.0, 2.0]),
            sim: SimOptions::default(),
        }
    }

    /// One well-formed cell through the study loop.
    fn run(sc: &Scenario, kinds: &[PolicyKind], options: &RunnerOptions) -> ScenarioResult {
        let study = Study::new().with_kinds(kinds).with_options(options.clone());
        study.run_all(std::slice::from_ref(sc)).remove(0).expect("well-formed cell")
    }

    #[test]
    fn degradation_structure() {
        let sc = tiny_scenario();
        let kinds = [PolicyKind::Young, PolicyKind::OptExp];
        let r = run(&sc, &kinds, &fast_options());
        assert_eq!(r.traces, 12);
        // LowerBound + PeriodLB + 2 heuristics.
        assert_eq!(r.outcomes.len(), 4);
        let lb = r.get("LowerBound").expect("lower bound row");
        // LowerBound is ≤ best heuristic on every trace → avg ≤ 1.
        assert!(lb.avg_degradation.expect("ran") <= 1.0 + 1e-12);
        for name in ["Young", "OptExp", "PeriodLB"] {
            let o = r.get(name).expect(name);
            assert!(o.avg_degradation.expect("ran") >= 1.0 - 1e-12, "{name}");
        }
    }

    /// `Study::run_all` is the checked form: a cell that cannot run is
    /// its `Err` beside the others' `Ok`, and an `Ok` is the result the
    /// plan → execute → reduce pipeline gives the cell, counters too.
    #[test]
    fn checked_form_returns_ok_and_matches() {
        let sc = tiny_scenario();
        let (kinds, options) = ([PolicyKind::Young], fast_options());
        let mut bad = sc.clone();
        bad.dist = DistSpec::LanlLog { cluster: 99 };
        let study = Study::new().with_kinds(kinds.clone()).with_options(options.clone());
        let results = study.run_all(&[bad, sc.clone()]);
        assert!(matches!(results[0], Err(Error::Cell { .. })), "{:?}", results[0]);
        let checked = results[1].as_ref().expect("well-formed cell");

        let plan = crate::plan::plan_scenario(&sc, &kinds, &options);
        let mut perf = PipelinePerf::default();
        let out = crate::exec::execute(&sc, &sc.dist.build(), &plan, &mut perf);
        let mut piped = crate::reduce::reduce(&sc, &plan, &out, &mut perf);
        piped.perf = perf;
        assert_eq!(crate::golden::golden_json(checked), crate::golden::golden_json(&piped));
    }

    #[test]
    fn get_is_case_insensitive_and_lookup_names_rows() {
        let sc = tiny_scenario();
        let r = run(&sc, &[PolicyKind::Young], &fast_options());
        assert!(r.get("young").is_some());
        assert!(r.get("PERIODLB").is_some());
        assert_eq!(
            r.lookup("lowerbound").expect("row").name,
            "LowerBound"
        );
        let Err(Error::UnknownPolicy { requested, known }) = r.lookup("Daly") else {
            panic!("miss must list known rows");
        };
        assert_eq!(requested, "Daly");
        assert_eq!(known, ["LowerBound", "PeriodLB", "Young"]);
    }

    #[test]
    fn period_lb_at_least_as_good_as_optexp_on_average() {
        let sc = tiny_scenario();
        // Grid contains factor 1.0 = OptExp itself, so PeriodLB's mean
        // makespan can never exceed OptExp's.
        let r = run(&sc, &[PolicyKind::OptExp], &fast_options());
        let plb = r.get("PeriodLB").expect("row").mean_makespan.expect("ran");
        let opt = r.get("OptExp").expect("row").mean_makespan.expect("ran");
        assert!(plb <= opt + 1e-6, "PeriodLB {plb} > OptExp {opt}");
    }

    #[test]
    fn period_lb_row_reports_winning_factor() {
        let sc = tiny_scenario();
        let r = run(&sc, &[PolicyKind::OptExp], &fast_options());
        let row_factor = r.get("PeriodLB").expect("row").period_factor;
        assert_eq!(row_factor, r.period_lb_factor);
        let f = row_factor.expect("searched");
        assert!([0.5, 1.0, 2.0].contains(&f), "factor {f} from the grid");
    }

    #[test]
    fn failed_policy_reports_error_row() {
        // Liu's nonsensical-interval case: large platform, small shape.
        let year = 365.25 * 86_400.0;
        let mut sc = Scenario::petascale(
            DistSpec::Weibull { shape: 0.3, mtbf: 125.0 * year },
            4_096,
            3,
        );
        sc.label = "tiny-weibull".into();
        let r = run(
            &sc,
            &[PolicyKind::Liu, PolicyKind::Young],
            &RunnerOptions { period_lb: None, ..fast_options() },
        );
        let liu = r.get("Liu").expect("row");
        assert!(liu.error.is_some());
        assert!(liu.avg_degradation.is_none());
        assert!(r.get("Young").expect("row").avg_degradation.is_some());
    }

    #[test]
    fn all_policies_failing_yields_error_rows_not_panic() {
        // Only Liu, which cannot build at this shape/scale: every trace
        // has no baseline, and every row (incl. LowerBound) must report
        // an error instead of panicking.
        let year = 365.25 * 86_400.0;
        let mut sc = Scenario::petascale(
            DistSpec::Weibull { shape: 0.3, mtbf: 125.0 * year },
            4_096,
            2,
        );
        sc.label = "all-fail-weibull".into();
        let r = run(&sc, &[PolicyKind::Liu], &RunnerOptions {
            period_lb: None,
            ..fast_options()
        });
        assert_eq!(r.outcomes.len(), 2); // LowerBound + Liu
        let lb = r.get("LowerBound").expect("row");
        assert!(lb.error.is_some(), "LowerBound must degrade gracefully");
        assert!(lb.avg_degradation.is_none());
        assert!(r.get("Liu").expect("row").error.is_some());
    }

    #[test]
    fn results_are_deterministic() {
        let sc = tiny_scenario();
        let kinds = [PolicyKind::Young];
        let a = run(&sc, &kinds, &fast_options());
        let b = run(&sc, &kinds, &fast_options());
        assert_eq!(
            a.get("Young").expect("row").mean_makespan,
            b.get("Young").expect("row").mean_makespan
        );
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // The pipeline must be bit-identical regardless of executor
        // parallelism: per-task work is independent and the wave
        // executor commits every wave in task-ID order (trace index,
        // candidate index), whatever worker claimed what.
        let sc = tiny_scenario();
        let kinds = [PolicyKind::Young, PolicyKind::OptExp];
        let run_with = |threads: usize| {
            crate::steal::tests::at_workers(threads, || run(&sc, &kinds, &fast_options()))
        };
        let one = run_with(1);
        let many = run_with(4);
        assert_eq!(one.period_lb_factor, many.period_lb_factor);
        for (a, b) in one.outcomes.iter().zip(&many.outcomes) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.mean_makespan, b.mean_makespan, "{}", a.name);
            assert_eq!(a.avg_degradation, b.avg_degradation, "{}", a.name);
        }
    }

    #[test]
    fn coarse_to_fine_matches_full_search_and_cuts_sims() {
        let sc = tiny_scenario();
        let grid = paper_period_grid();
        // The exhaustive oracle: every factor of the grid as a roster row
        // (the same scaled OptExp a candidate simulates), best mean wins.
        let rows: Vec<PolicyKind> = grid.iter().map(|&f| PolicyKind::OptExpScaled(f)).collect();
        let full = run(&sc, &rows, &RunnerOptions {
            lower_bound: false,
            period_lb: None,
            sim: SimOptions::default(),
        });
        let full_sims = full.perf.policy_sims;
        assert_eq!(full_sims, (grid.len() * sc.traces) as u64);
        let full_mean = full
            .outcomes
            .iter()
            .map(|o| o.mean_makespan.expect("ran"))
            .fold(f64::INFINITY, f64::min);
        let coarse = run(&sc, &[], &RunnerOptions {
            lower_bound: false,
            period_lb: Some(grid.clone()),
            sim: SimOptions::default(),
        });
        let coarse_sims = coarse.perf.candidate_sims;
        assert!(
            coarse_sims * 5 <= full_sims,
            "coarse-to-fine used {coarse_sims} of {full_sims} sims (> 1/5)"
        );
        let coarse_mean = coarse.get("PeriodLB").expect("row").mean_makespan.expect("ran");
        assert!(
            (coarse_mean - full_mean).abs() <= 1e-3 * full_mean,
            "coarse-to-fine mean {coarse_mean} deviates from full-grid {full_mean}"
        );
    }

    /// The plan → execute → reduce path times its stages and counts the
    /// simulations it ran.
    #[test]
    fn perf_counters_are_populated() {
        let sc = tiny_scenario();
        let plan = crate::plan::plan_scenario(&sc, &[PolicyKind::Young], &fast_options());
        let mut perf = PipelinePerf::default();
        let out = crate::exec::execute(&sc, &sc.dist.build(), &plan, &mut perf);
        crate::reduce::reduce(&sc, &plan, &out, &mut perf);
        let names: Vec<&str> = perf.stages.iter().map(|s| s.name.as_str()).collect();
        // A 3-factor grid is searched exhaustively: no refine item, so no
        // `period_search` wave.
        assert_eq!(names, ["trace_gen", "policy_sims", "aggregate"]);
        assert_eq!(perf.policy_sims, sc.traces as u64);
        assert_eq!(perf.candidate_sims, (3 * sc.traces) as u64);
        assert_eq!(perf.candidate_grid_size, 3);
        assert!(perf.decisions > 0);
    }
}
