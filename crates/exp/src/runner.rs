//! Scenario runner: the thin orchestrator of the plan → execute →
//! reduce pipeline.
//!
//! [`run_scenario_checked`] is three calls:
//!
//! 1. [`crate::plan::plan_scenario`] — pure `Scenario → SimPlan`
//!    (which sims run, on which traces);
//! 2. [`crate::exec::execute`] — the plan's work items drained against
//!    cached traces with no store attached, then folded, with
//!    policy-build failures as values;
//! 3. [`crate::reduce::reduce`] — fold into the §4.1 degradation rows.
//!
//! This module keeps the user-facing types: [`RunnerOptions`],
//! [`PeriodSearch`], [`PolicyOutcome`], [`ScenarioResult`], and the
//! period factor grids (re-exported from [`crate::plan`]).

use crate::error::Error;
use crate::perf::{clock_seconds, PipelinePerf};
use crate::policies_spec::PolicyKind;
use crate::scenario::Scenario;
use ckpt_sim::SimOptions;
use serde::Serialize;

pub use crate::plan::{default_period_grid, paper_period_grid};

/// How `PeriodLB` explores its candidate factor grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PeriodSearch {
    /// Simulate every candidate on every trace (the paper's exhaustive
    /// sweep).
    Full,
    /// Coarse-to-fine: simulate every `coarse_step`-th candidate of the
    /// sorted grid (plus the factor nearest 1.0 and both endpoints),
    /// then refine exhaustively between the coarse neighbours of the
    /// incumbent. Cuts candidate simulations ~5–8× on the paper's
    /// 481-factor grid; exact whenever the mean-makespan profile is
    /// unimodal at the coarse resolution.
    CoarseToFine {
        /// Stride of the coarse pass over the sorted grid (≥ 2).
        coarse_step: usize,
        /// Grids up to this size are searched exhaustively.
        min_full: usize,
    },
}

impl Default for PeriodSearch {
    fn default() -> Self {
        Self::CoarseToFine { coarse_step: 8, min_full: 24 }
    }
}

/// Runner knobs.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Include the omniscient `LowerBound` row.
    pub lower_bound: bool,
    /// Include the `PeriodLB` numeric search; the value is the period
    /// factor grid applied to the OptExp period.
    pub period_lb: Option<Vec<f64>>,
    /// Grid exploration strategy for `PeriodLB`.
    pub period_search: PeriodSearch,
    /// Engine safety options.
    pub sim: SimOptions,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        Self {
            lower_bound: true,
            period_lb: Some(default_period_grid()),
            period_search: PeriodSearch::default(),
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
#[derive(Debug, Clone, Serialize)]
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
#[derive(Debug, Clone, Serialize)]
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
    /// Pipeline instrumentation for this call.
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

/// Run `kinds` (plus optional LowerBound / PeriodLB) on a scenario.
///
/// Degradation from best (§4.1): for each trace `i`,
/// `v(i,j) = res(i,j) / min_{j' ≠ LowerBound} res(i,j')`, averaged over
/// traces. `PeriodLB` participates in the minimum; `LowerBound` does not.
/// Traces where *no* policy produced a makespan are excluded from the
/// averages; if that leaves nothing, each row reports an error instead
/// of panicking.
///
/// # Panics
/// When the scenario itself is malformed (its distribution cannot be
/// built) — use [`run_scenario_checked`] to handle that as a value.
/// Per-policy failures never panic; they become error rows.
pub fn run_scenario(
    scenario: &Scenario,
    kinds: &[PolicyKind],
    options: &RunnerOptions,
) -> ScenarioResult {
    match run_scenario_checked(scenario, kinds, options) {
        Ok(r) => r,
        Err(e) => panic!("scenario {}: {e}", scenario.label),
    }
}

/// [`run_scenario`] with scenario-level failures as values.
///
/// # Errors
/// Anything that prevents the cell from running at all — a distribution
/// that cannot be built ([`Error::Dist`], [`Error::Trace`]). Per-policy
/// failures are *not* errors; they surface as rows with
/// [`PolicyOutcome::error`] set.
pub fn run_scenario_checked(
    scenario: &Scenario,
    kinds: &[PolicyKind],
    options: &RunnerOptions,
) -> Result<ScenarioResult, Error> {
    let t_total = clock_seconds();
    let mut perf = PipelinePerf::default();
    let built = scenario.dist.try_build()?;
    let sim_plan = crate::plan::plan_scenario(scenario, kinds, options);
    let out = crate::exec::execute(scenario, &built, &sim_plan, &mut perf);
    let mut result = crate::reduce::reduce(scenario, &sim_plan, &out, &mut perf);
    perf.total_seconds = clock_seconds() - t_total;
    result.perf = perf;
    Ok(result)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::scenario::DistSpec;

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
            period_search: PeriodSearch::Full,
            sim: SimOptions::default(),
        }
    }

    #[test]
    fn degradation_structure() {
        let sc = tiny_scenario();
        let kinds = [PolicyKind::Young, PolicyKind::OptExp];
        let r = run_scenario(&sc, &kinds, &fast_options());
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

    #[test]
    fn checked_form_returns_ok_and_matches() {
        let sc = tiny_scenario();
        let kinds = [PolicyKind::Young];
        let a = run_scenario(&sc, &kinds, &fast_options());
        let b = run_scenario_checked(&sc, &kinds, &fast_options()).expect("well-formed cell");
        assert_eq!(
            a.get("Young").expect("row").mean_makespan,
            b.get("Young").expect("row").mean_makespan
        );
    }

    #[test]
    fn get_is_case_insensitive_and_lookup_names_rows() {
        let sc = tiny_scenario();
        let r = run_scenario(&sc, &[PolicyKind::Young], &fast_options());
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
        let r = run_scenario(&sc, &[PolicyKind::OptExp], &fast_options());
        let plb = r.get("PeriodLB").expect("row").mean_makespan.expect("ran");
        let opt = r.get("OptExp").expect("row").mean_makespan.expect("ran");
        assert!(plb <= opt + 1e-6, "PeriodLB {plb} > OptExp {opt}");
    }

    #[test]
    fn period_lb_row_reports_winning_factor() {
        let sc = tiny_scenario();
        let r = run_scenario(&sc, &[PolicyKind::OptExp], &fast_options());
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
        let r = run_scenario(
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
        let r = run_scenario(&sc, &[PolicyKind::Liu], &RunnerOptions {
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
        let a = run_scenario(&sc, &kinds, &fast_options());
        let b = run_scenario(&sc, &kinds, &fast_options());
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
            crate::steal::set_workers(threads);
            let out = run_scenario(&sc, &kinds, &fast_options());
            crate::steal::set_workers(0);
            out
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
        let full = run_scenario(&sc, &[], &RunnerOptions {
            lower_bound: false,
            period_lb: Some(grid.clone()),
            period_search: PeriodSearch::Full,
            sim: SimOptions::default(),
        });
        let coarse = run_scenario(&sc, &[], &RunnerOptions {
            lower_bound: false,
            period_lb: Some(grid.clone()),
            period_search: PeriodSearch::default(),
            sim: SimOptions::default(),
        });
        let full_sims = full.perf.candidate_sims;
        let coarse_sims = coarse.perf.candidate_sims;
        assert_eq!(full_sims, (grid.len() * sc.traces) as u64);
        assert!(
            coarse_sims * 5 <= full_sims,
            "coarse-to-fine used {coarse_sims} of {full_sims} sims (> 1/5)"
        );
        let full_mean = full.get("PeriodLB").expect("row").mean_makespan.expect("ran");
        let coarse_mean = coarse.get("PeriodLB").expect("row").mean_makespan.expect("ran");
        assert!(
            (coarse_mean - full_mean).abs() <= 1e-3 * full_mean,
            "coarse-to-fine mean {coarse_mean} deviates from full-grid {full_mean}"
        );
    }

    #[test]
    fn perf_counters_are_populated() {
        let sc = tiny_scenario();
        let r = run_scenario(&sc, &[PolicyKind::Young], &fast_options());
        assert!(r.perf.total_seconds > 0.0);
        let names: Vec<&str> = r.perf.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["trace_gen", "policy_sims", "period_search", "aggregate"]);
        assert_eq!(r.perf.policy_sims, sc.traces as u64);
        assert_eq!(r.perf.candidate_sims, (3 * sc.traces) as u64);
        assert_eq!(r.perf.candidate_grid_size, 3);
        assert!(r.perf.decisions > 0);
    }
}
