//! Reduction layer: fold item payloads into executor output, and that
//! into a [`ScenarioResult`].
//!
//! `fold` is the only route from results to an [`ExecOutput`]: it
//! restores one cell's [`ItemPayload`]s in item-ID order into the
//! per-policy cells, lower bounds and `PeriodLB` columns, plus the work
//! counters on [`PipelinePerf`]. `CellFold::search_winner` picks the search
//! winner — column means summed in trace order, then [`plan::winner`] —
//! for the refine item's incumbent and for the final result alike.
//! [`crate::exec::execute`] is items → wave loop → fold; [`commit`] (a
//! study's per-cell step, with or without a store) is fold → [`reduce`].
//!
//! Implements the paper's §4.1 *average makespan degradation*: for each
//! trace `i`, `v(i,j) = res(i,j) / min_{j'} res(i,j')` where the minimum
//! runs over every heuristic (including `PeriodLB`, excluding the
//! omniscient `LowerBound`), averaged over traces. Traces where no
//! policy produced a makespan are excluded; if that leaves nothing,
//! every row reports an error instead of panicking.
//!
//! This layer is pure arithmetic — no simulation, no I/O — so
//! [`reduce`]'s cost shows up as the `aggregate` perf stage and its
//! output is a deterministic function of the executor's (already
//! thread-count-independent) results.

use crate::checkpoint::{ItemKind, ItemPayload, TraceStatsBits, WorkItem};
use crate::error::Error;
use crate::exec::{ExecOutput, PolicyCell, SearchOutput};
use crate::perf::{clock_seconds, PipelinePerf};
use crate::plan::{self, SimPlan};
use crate::runner::{PolicyOutcome, ScenarioResult};
use crate::scenario::Scenario;
use ckpt_math::Summary;
use std::collections::BTreeMap;

/// Degradation + makespan summary over `(makespan, best)` sample pairs.
fn degradation_row(
    name: &str,
    samples: &[(f64, f64)],
    period_factor: Option<f64>,
) -> PolicyOutcome {
    let degr: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let mks: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let s = Summary::from_samples(&degr);
    PolicyOutcome {
        name: name.to_string(),
        avg_degradation: Some(s.mean()),
        std_degradation: Some(s.std_dev()),
        mean_makespan: Some(Summary::from_samples(&mks).mean()),
        mean_failures: None,
        max_failures: None,
        chunk_range: None,
        period_factor,
        error: None,
    }
}

/// Aggregate executor output into the scenario's result rows. Pushes
/// the `aggregate` perf stage; the caller moves `perf` into the result.
pub fn reduce(
    scenario: &Scenario,
    sim_plan: &SimPlan,
    out: &ExecOutput,
    perf: &mut PipelinePerf,
) -> ScenarioResult {
    let t_stage = clock_seconds();

    // Per-trace best heuristic (incl. PeriodLB, excl. LowerBound).
    let trace_best: Vec<Option<f64>> = (0..sim_plan.traces)
        .map(|i| {
            let mut best = f64::INFINITY;
            for cells in &out.cells {
                if let Some(c) = &cells[i] {
                    best = best.min(c.makespan);
                }
            }
            if let Some(s) = &out.search {
                best = best.min(s.column[i]);
            }
            best.is_finite().then_some(best)
        })
        .collect();

    let mut outcomes = Vec::new();
    if let Some(lower_bounds) = &out.lower_bounds {
        let samples: Vec<(f64, f64)> = lower_bounds
            .iter()
            .zip(&trace_best)
            .filter_map(|(&lb, b)| b.map(|b| (lb, lb / b)))
            .collect();
        if samples.is_empty() {
            outcomes.push(PolicyOutcome::absent("LowerBound", Error::NoBaseline.to_string()));
        } else {
            outcomes.push(degradation_row("LowerBound", &samples, None));
        }
    }
    let period_lb_factor = out.search.as_ref().map(|s| s.factor);
    if let Some(sr) = &out.search {
        let samples: Vec<(f64, f64)> = sr
            .column
            .iter()
            .zip(&trace_best)
            .filter_map(|(&m, b)| b.map(|b| (m, m / b)))
            .collect();
        if samples.is_empty() {
            outcomes.push(PolicyOutcome::absent("PeriodLB", Error::NoBaseline.to_string()));
        } else {
            outcomes.push(degradation_row("PeriodLB", &samples, Some(sr.factor)));
        }
    }
    for (j, name) in sim_plan.policy_names.iter().enumerate() {
        match &out.policy_build[j] {
            Ok(()) => {
                let per_trace: Vec<PolicyCell> =
                    out.cells[j].iter().flatten().copied().collect();
                let samples: Vec<(f64, f64)> = out.cells[j]
                    .iter()
                    .zip(&trace_best)
                    .filter_map(|(c, b)| match (c, b) {
                        (Some(c), Some(b)) => Some((c.makespan, c.makespan / b)),
                        _ => None,
                    })
                    .collect();
                if samples.is_empty() {
                    outcomes.push(PolicyOutcome::absent(name, Error::NoBaseline.to_string()));
                    continue;
                }
                let fails: Vec<f64> = per_trace.iter().map(|c| c.failures as f64).collect();
                let cmin = per_trace.iter().map(|c| c.chunk_min).fold(f64::INFINITY, f64::min);
                let cmax = per_trace.iter().map(|c| c.chunk_max).fold(0.0f64, f64::max);
                let mut row = degradation_row(name, &samples, None);
                row.mean_failures = Some(Summary::from_samples(&fails).mean());
                row.max_failures = per_trace.iter().map(|c| c.failures).max();
                row.chunk_range = Some((cmin, cmax));
                outcomes.push(row);
            }
            Err(e) => outcomes.push(PolicyOutcome::absent(name, e.to_string())),
        }
    }
    perf.push_stage("aggregate", t_stage);

    ScenarioResult {
        label: scenario.label.clone(),
        procs: scenario.procs,
        traces: sim_plan.traces,
        outcomes,
        period_lb_factor,
        perf: PipelinePerf::default(),
    }
}

/// One cell's payloads folded in item order: the executor output being
/// assembled, the `PeriodLB` columns, and the work counters.
pub(crate) struct CellFold<'p> {
    plan: &'p SimPlan,
    out: ExecOutput,
    /// `columns[candidate]` = per-trace makespans (coarse and refine
    /// items both land here).
    columns: Vec<Option<Vec<f64>>>,
    /// Decisions, failures and candidate sims of the folded payloads.
    perf: PipelinePerf,
}

impl<'p> CellFold<'p> {
    pub(crate) fn new(plan: &'p SimPlan) -> Self {
        let out = ExecOutput {
            policy_build: (0..plan.kinds.len()).map(|_| Ok(())).collect(),
            cells: vec![vec![None; plan.traces]; plan.kinds.len()],
            lower_bounds: plan.lower_bound.then(|| vec![0.0f64; plan.traces]),
            search: None,
        };
        Self { plan, out, columns: vec![None; plan.grid.len()], perf: PipelinePerf::default() }
    }

    /// Fold one item's payload.
    ///
    /// # Errors
    /// [`Error::Checkpoint`] when the payload is missing or does not fit
    /// its item — a fold never guesses.
    pub(crate) fn fold_payload(
        &mut self,
        item: &WorkItem,
        payload: Option<&ItemPayload>,
    ) -> Result<(), Error> {
        let payload = payload.ok_or_else(|| Error::Checkpoint {
            reason: format!("incomplete study: {:?} item {} has no payload", item.kind, item.id),
        })?;
        payload.check_fits(item, self.plan.traces, self.plan.grid.len())?;
        let (plan, perf) = (self.plan, &mut self.perf);
        let mut tally = |st: &TraceStatsBits| {
            perf.decisions += st.decisions;
            perf.failures += st.failures;
        };
        match (item.kind, payload) {
            (ItemKind::Policy { policy }, ItemPayload::Policy { built: true, stats, .. }) => {
                for (k, st) in stats.iter().enumerate() {
                    self.out.cells[policy][item.trace_lo + k] = Some(PolicyCell {
                        makespan: st.makespan_f64(),
                        failures: st.failures,
                        chunk_min: f64::from_bits(st.chunk_min),
                        chunk_max: f64::from_bits(st.chunk_max),
                    });
                    tally(st);
                }
            }
            (ItemKind::Policy { policy }, ItemPayload::Policy { reason, .. }) => {
                // The registry's failure is deterministic, so every block
                // of this policy carries the same reason; the row only
                // needs its Display (reduce stringifies).
                self.out.policy_build[policy] = Err(Error::Policy {
                    name: plan.policy_names[policy].clone(),
                    reason: reason.clone(),
                });
            }
            (ItemKind::LowerBound, ItemPayload::LowerBound { makespans }) => {
                if let Some(lb) = &mut self.out.lower_bounds {
                    for (k, &bits) in makespans.iter().enumerate() {
                        lb[item.trace_lo + k] = f64::from_bits(bits);
                    }
                }
            }
            (ItemKind::Coarse { candidate }, ItemPayload::Coarse { stats }) => {
                let col = self.columns[candidate].get_or_insert_with(|| vec![0.0; plan.traces]);
                for (k, st) in stats.iter().enumerate() {
                    col[item.trace_lo + k] = st.makespan_f64();
                    tally(st);
                }
                perf.candidate_sims += stats.len() as u64;
            }
            (ItemKind::Refine, ItemPayload::Refine { columns }) => {
                for rc in columns {
                    let col =
                        self.columns[rc.candidate].get_or_insert_with(|| vec![0.0; plan.traces]);
                    for (t, st) in rc.stats.iter().enumerate() {
                        col[t] = st.makespan_f64();
                        tally(st);
                    }
                    perf.candidate_sims += rc.stats.len() as u64;
                }
            }
            _ => {
                return Err(Error::Checkpoint {
                    reason: format!("item {} has a payload of another kind", item.id),
                })
            }
        }
        Ok(())
    }

    /// The search winner among the evaluated columns: smallest mean
    /// makespan (each mean summed in trace order), ties toward the
    /// smaller factor.
    pub(crate) fn search_winner(&self) -> Option<usize> {
        let means: Vec<Option<f64>> = self
            .columns
            .iter()
            .map(|c| c.as_ref().map(|col| col.iter().sum::<f64>() / col.len().max(1) as f64))
            .collect();
        plan::winner(&means)
    }

    /// The executor output, with the work counters added to `perf`.
    fn into_output(mut self, perf: &mut PipelinePerf) -> ExecOutput {
        perf.decisions += self.perf.decisions;
        perf.failures += self.perf.failures;
        perf.candidate_sims += self.perf.candidate_sims;
        perf.policy_sims = self.out.policy_build.iter().filter(|b| b.is_ok()).count() as u64
            * self.plan.traces as u64;
        if !self.plan.grid.is_empty() {
            perf.candidate_grid_size = self.plan.grid.len() as u64;
            self.out.search = self.search_winner().and_then(|w| {
                let column = self.columns[w].take()?;
                Some(SearchOutput { factor: self.plan.grid[w], column })
            });
        }
        self.out
    }
}

/// Fold one cell's payloads, in item-ID order, into the [`ExecOutput`]
/// of its plan, adding the work counters (sims, decisions, failures) to
/// `perf`. Every per-trace float is restored from its exact bit
/// pattern, so the output is the same whichever process, worker count
/// or resume produced the payloads.
///
/// # Errors
/// [`Error::Checkpoint`] when a payload is missing or does not fit its
/// item.
pub(crate) fn fold(
    sim_plan: &SimPlan,
    items: &[WorkItem],
    completed: &BTreeMap<u64, ItemPayload>,
    perf: &mut PipelinePerf,
) -> Result<ExecOutput, Error> {
    let mut acc = CellFold::new(sim_plan);
    for item in items {
        acc.fold_payload(item, completed.get(&item.id))?;
    }
    Ok(acc.into_output(perf))
}

/// Commit one cell of a checkpointed study: `fold` its persisted
/// payloads, then [`reduce`]. The result serialises byte-identically to
/// an in-memory run of the same cell, which folds the same way.
///
/// # Errors
/// [`Error::Checkpoint`] when a required item payload is missing or has
/// the wrong shape — a commit must never guess.
pub fn commit(
    scenario: &Scenario,
    sim_plan: &SimPlan,
    cell_items: &[WorkItem],
    completed: &BTreeMap<u64, ItemPayload>,
) -> Result<ScenarioResult, Error> {
    let mut perf = PipelinePerf::default();
    let out = fold(sim_plan, cell_items, completed, &mut perf)?;
    let mut result = reduce(scenario, sim_plan, &out, &mut perf);
    result.perf = perf;
    Ok(result)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::exec::SearchOutput;
    use crate::plan::plan_scenario;
    use crate::runner::RunnerOptions;
    use crate::scenario::DistSpec;

    fn cell(makespan: f64) -> Option<PolicyCell> {
        Some(PolicyCell { makespan, failures: 1, chunk_min: 10.0, chunk_max: 20.0 })
    }

    #[test]
    fn reduce_is_pure_arithmetic_over_exec_output() {
        let sc = Scenario::single_processor(
            DistSpec::Exponential { mtbf: 6.0 * 3_600.0 },
            2,
        );
        let sim_plan = plan_scenario(
            &sc,
            &[crate::policies_spec::PolicyKind::Young],
            &RunnerOptions {
                period_lb: Some(vec![1.0]),
                ..RunnerOptions::default()
            },
        );
        let out = ExecOutput {
            policy_build: vec![Ok(())],
            cells: vec![vec![cell(100.0), cell(200.0)]],
            lower_bounds: Some(vec![50.0, 100.0]),
            search: Some(SearchOutput { factor: 1.0, column: vec![110.0, 180.0] }),
        };
        let mut perf = PipelinePerf::default();
        let r = reduce(&sc, &sim_plan, &out, &mut perf);
        // Rows in report order: LowerBound, PeriodLB, Young.
        let names: Vec<&str> = r.outcomes.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["LowerBound", "PeriodLB", "Young"]);
        // Best per trace: min(100, 110) = 100 and min(200, 180) = 180.
        let lb = &r.outcomes[0];
        assert!((lb.avg_degradation.unwrap() - (0.5 / 2.0 + (100.0 / 180.0) / 2.0)).abs() < 1e-12);
        let young = &r.outcomes[2];
        assert_eq!(young.mean_failures, Some(1.0));
        assert_eq!(young.max_failures, Some(1));
        assert_eq!(young.chunk_range, Some((10.0, 20.0)));
        assert_eq!(r.period_lb_factor, Some(1.0));
        assert_eq!(perf.stages.len(), 1);
        assert_eq!(perf.stages[0].name, "aggregate");
    }

    #[test]
    fn all_absent_rows_degrade_gracefully() {
        let sc = Scenario::single_processor(
            DistSpec::Exponential { mtbf: 6.0 * 3_600.0 },
            2,
        );
        let sim_plan = plan_scenario(
            &sc,
            &[crate::policies_spec::PolicyKind::Liu],
            &RunnerOptions { period_lb: None, ..RunnerOptions::default() },
        );
        let out = ExecOutput {
            policy_build: vec![Err(crate::error::Error::Policy {
                name: "Liu".into(),
                reason: "Liu requires a Weibull (or Exponential) fit".into(),
            })],
            cells: vec![vec![None, None]],
            lower_bounds: Some(vec![50.0, 100.0]),
            search: None,
        };
        let mut perf = PipelinePerf::default();
        let r = reduce(&sc, &sim_plan, &out, &mut perf);
        assert_eq!(r.outcomes.len(), 2);
        assert!(r.outcomes[0].error.as_deref().unwrap().contains("degradation undefined"));
        assert_eq!(
            r.outcomes[1].error.as_deref(),
            Some("Liu requires a Weibull (or Exponential) fit")
        );
    }

    /// A committed result carries the work counters its fold read off
    /// the payloads, and the `aggregate` stage; the wave loop's stage
    /// timers stay with the loop.
    #[test]
    fn commit_moves_the_fold_counters_into_the_result() {
        let sc = Scenario::single_processor(DistSpec::Exponential { mtbf: 6.0 * 3_600.0 }, 2);
        let sim_plan = plan_scenario(
            &sc,
            &[crate::policies_spec::PolicyKind::Young],
            &RunnerOptions { period_lb: None, lower_bound: false, ..RunnerOptions::default() },
        );
        let items = sim_plan.items(0, 0);
        let st = TraceStatsBits {
            makespan: 2.0f64.to_bits(),
            failures: 3,
            decisions: 5,
            chunk_min: 0,
            chunk_max: 0,
        };
        let payload =
            ItemPayload::Policy { built: true, reason: String::new(), stats: vec![st; 2] };
        let completed = BTreeMap::from([(items[0].id, payload)]);
        let r = commit(&sc, &sim_plan, &items, &completed).expect("the payload fits");
        let names: Vec<&str> = r.perf.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["aggregate"]);
        let p = &r.perf;
        assert_eq!((p.policy_sims, p.candidate_sims, p.decisions, p.failures), (2, 0, 10, 6));
    }

    #[test]
    fn commit_refuses_missing_and_misshapen_payloads() {
        let sc = Scenario::single_processor(
            DistSpec::Exponential { mtbf: 6.0 * 3_600.0 },
            2,
        );
        let sim_plan = plan_scenario(
            &sc,
            &[crate::policies_spec::PolicyKind::Young],
            &RunnerOptions { period_lb: None, lower_bound: false, ..RunnerOptions::default() },
        );
        let items = sim_plan.items(0, 0);
        let mut completed = BTreeMap::new();
        let err = commit(&sc, &sim_plan, &items, &completed).expect_err("nothing completed");
        assert!(err.to_string().contains("incomplete study"), "{err}");

        // One stats entry per trace of the block: a short list is never
        // folded as 0.0, a long one never written out of range, and a
        // payload of another kind never folded at all.
        let bits = 1.0f64.to_bits();
        let st =
            TraceStatsBits { makespan: bits, failures: 0, decisions: 1, chunk_min: 0, chunk_max: 0 };
        let policy =
            |n| ItemPayload::Policy { built: true, reason: String::new(), stats: vec![st; n] };
        completed.insert(0, policy(2));
        assert!(commit(&sc, &sim_plan, &items, &completed).is_ok());
        for bad in [policy(1), policy(3), ItemPayload::Coarse { stats: vec![st; 2] }] {
            completed.insert(0, bad);
            let err = commit(&sc, &sim_plan, &items, &completed).expect_err("misshapen payload");
            assert!(matches!(err, Error::Checkpoint { .. }), "{err}");
        }
    }
}
