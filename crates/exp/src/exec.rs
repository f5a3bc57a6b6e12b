//! Execution layer: the one engine. Both entry points run their
//! [`WorkItem`]s through one cell context, one item body and one drain.
//!
//! * [`CellCtx`] holds what a cell's items need — plan, built
//!   distribution, [`JobSpec`], the `OptExp` base of the `PeriodLB`
//!   search, the roster (built once per cell per process) and the
//!   cell's traces, fetched from the shared [`TraceCache`] in one wave
//!   before its first pending item runs.
//! * [`CellCtx::run_item`] runs one item and returns its
//!   [`ItemPayload`]; it is the only code in the crate that simulates.
//! * [`drain`] runs one wave of items through [`steal::run_wave`] (DP
//!   policy items claimed first) and records the payloads under their
//!   item ids, so the output is bit-identical at any worker count.
//!
//! [`execute`] drains one cell's items in memory, with no store
//! attached, and folds them ([`crate::reduce::fold`]);
//! [`crate::checkpoint::run_study`] drains a whole manifest through the
//! same [`drain`] with the store attached. A policy that cannot be
//! built for the cell (Liu's footnote-2 cases) is a value — an unbuilt
//! payload, then an [`Error`] in [`ExecOutput::policy_build`] — never a
//! panic; a cell whose distribution cannot be built has no items.

// Workers share nothing but the claim cursor and commit in task-ID
// order; any other lock, atomic or cell here is a new coordination
// channel (the banned types are listed in clippy.toml).
#![deny(clippy::disallowed_types)]

use crate::cache::{CachedTrace, TraceCache};
use crate::checkpoint::{ItemPayload, RefineColumn, TraceStatsBits};
use crate::error::Error;
use crate::perf::PipelinePerf;
use crate::plan::{ItemKind, SimPlan, WorkItem};
use crate::policies_spec::PolicyKind;
use crate::scenario::{BuiltDist, Scenario};
use crate::steal;
use ckpt_policies::{OptExp, Policy};
use ckpt_sim::lower_bound_on_events;
use ckpt_workload::JobSpec;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One roster-policy simulation result on one trace.
#[derive(Debug, Clone, Copy)]
pub struct PolicyCell {
    /// Makespan, seconds.
    pub makespan: f64,
    /// Failures hit during the run.
    pub failures: u64,
    /// Smallest chunk attempted.
    pub chunk_min: f64,
    /// Largest chunk attempted.
    pub chunk_max: f64,
}

/// Outcome of the `PeriodLB` candidate search.
#[derive(Debug, Clone)]
pub struct SearchOutput {
    /// Winning factor.
    pub factor: f64,
    /// Winning candidate's per-trace makespans, in trace order.
    pub column: Vec<f64>,
}

/// Everything the executor measured, keyed back to plan indices.
pub struct ExecOutput {
    /// Per roster entry: `Err` ⇒ the policy could not be instantiated
    /// for this cell (failure as a value, reported as an absent row).
    pub policy_build: Vec<Result<(), Error>>,
    /// `cells[policy][trace]`; `None` for unbuildable policies.
    pub cells: Vec<Vec<Option<PolicyCell>>>,
    /// Lower-bound makespans in trace order, when the plan enables them.
    pub lower_bounds: Option<Vec<f64>>,
    /// `PeriodLB` search outcome, when the plan has a candidate grid.
    pub search: Option<SearchOutput>,
}

/// What a prepared cell holds beyond its plan: the per-process effects
/// its items share.
struct Ready {
    spec: JobSpec,
    /// The `OptExp` instance whose period the `PeriodLB` candidates scale.
    base: OptExp,
    /// The roster, built once; sessions are per simulation.
    roster: Vec<Result<Box<dyn Policy>, Error>>,
    /// The cell's traces, in trace order.
    traces: Vec<Arc<CachedTrace>>,
}

/// One cell's execution context: its scenario, plan, built distribution
/// (`None` for a cell that could not be built, which has no items) and
/// manifest items, plus (once [`CellCtx::prepare`]d) its traces and
/// roster.
pub(crate) struct CellCtx<'a> {
    scenario: &'a Scenario,
    plan: &'a SimPlan,
    built: Option<&'a BuiltDist>,
    /// The cell's items (the refine item folds the coarse ones).
    items: &'a [WorkItem],
    ready: Option<Ready>,
}

impl<'a> CellCtx<'a> {
    pub(crate) fn new(
        scenario: &'a Scenario,
        plan: &'a SimPlan,
        built: Option<&'a BuiltDist>,
        items: &'a [WorkItem],
    ) -> Self {
        Self { scenario, plan, built, items, ready: None }
    }

    /// Generate the cell's traces in one wave (the `trace_gen` stage),
    /// then build the roster. Idempotent; a cell whose distribution
    /// failed to build has nothing to prepare.
    fn prepare(&mut self, perf: &mut PipelinePerf) {
        let Some(built) = self.built else { return };
        if self.ready.is_some() {
            return;
        }
        let (scenario, plan) = (self.scenario, self.plan);
        #[expect(clippy::disallowed_methods, reason = "stage timer feeds PipelinePerf only, never result rows")]
        let t_stage = Instant::now();
        let stage_span = ckpt_obs::span("stage.trace_gen");
        let cache = TraceCache::global();
        let indices: Vec<usize> = (0..plan.traces).collect();
        let (traces, stats) = steal::run_wave(&indices, steal::workers(), |_| false, |_, &i| {
            cache.get_or_generate(scenario, built, i)
        });
        perf.exec.get_or_insert_with(Default::default).absorb(&stats);
        drop(stage_span);
        perf.push_stage("trace_gen", t_stage, plan.traces as u64);

        let spec = scenario.job_spec();
        self.ready = Some(Ready {
            base: crate::registry::optexp_base(&spec, built.proc_mtbf),
            roster: plan
                .kinds
                .iter()
                .map(|k| crate::registry::build_policy(k, scenario, built))
                .collect(),
            spec,
            traces,
        });
    }

    /// DP policy items are a wave's long poles: claimed first, so they
    /// overlap the cheap items instead of trailing them.
    fn is_heavy_item(&self, item: &WorkItem) -> bool {
        let ItemKind::Policy { policy } = item.kind else { return false };
        matches!(self.plan.kinds[policy], PolicyKind::DpNextFailure(_) | PolicyKind::DpMakespan(_))
    }

    /// The item body. Pure in the payload: it depends only on the item
    /// and (for `Refine`) on the cell's coarse payloads in `done`, never
    /// on wall-clock, worker count, or process history.
    fn run_item(&self, item: &WorkItem, done: &BTreeMap<u64, ItemPayload>) -> ItemPayload {
        // An unbuilt cell has no items, so every item finds its cell ready.
        let Some(r) = &self.ready else {
            unreachable!("the drain prepares a cell before its first item runs")
        };
        let traces = item.trace_lo..item.trace_hi;
        match item.kind {
            ItemKind::Policy { policy } => match &r.roster[policy] {
                Ok(p) => ItemPayload::Policy {
                    built: true,
                    reason: String::new(),
                    stats: traces.map(|t| self.policy_sim(r, policy, p.as_ref(), t)).collect(),
                },
                Err(e) => {
                    ItemPayload::Policy { built: false, reason: e.to_string(), stats: Vec::new() }
                }
            },
            ItemKind::LowerBound => ItemPayload::LowerBound {
                makespans: traces
                    .map(|t| {
                        let _span = ckpt_obs::task_span(
                            "task.lower_bound",
                            (self.plan.kinds.len() * self.plan.traces + t) as u64,
                        );
                        let ct = &r.traces[t];
                        let (start, horizon) = (ct.traces.start_time, ct.traces.horizon);
                        let stats = lower_bound_on_events(&r.spec, &ct.events, start, horizon);
                        stats.makespan.to_bits()
                    })
                    .collect(),
            },
            ItemKind::Coarse { candidate } => {
                ckpt_obs::counter_add_labeled(
                    "period_search.candidate_sims",
                    "coarse",
                    traces.len() as u64,
                );
                ItemPayload::Coarse {
                    stats: traces.map(|t| self.candidate_sim(r, "coarse", candidate, t)).collect(),
                }
            }
            ItemKind::Refine => self.run_refine(r, done),
        }
    }

    /// The refine item: the incumbent of the cell's coarse columns picks
    /// the window, and every candidate in it the coarse pass did not
    /// evaluate is simulated on every trace, fanned out over the workers.
    fn run_refine(&self, r: &Ready, done: &BTreeMap<u64, ItemPayload>) -> ItemPayload {
        let mut coarse = crate::reduce::CellFold::new(self.plan);
        for item in self.items.iter().filter(|i| matches!(i.kind, ItemKind::Coarse { .. })) {
            // Coarse payloads come from earlier waves or a validated
            // snapshot; one that does not fold also fails the commit, so
            // an empty refine never reaches an aggregate.
            if coarse.fold_payload(item, done.get(&item.id)).is_err() {
                return ItemPayload::Refine { columns: Vec::new() };
            }
        }
        let Some(incumbent) = coarse.search_winner() else {
            return ItemPayload::Refine { columns: Vec::new() };
        };
        let fresh: Vec<usize> =
            self.plan.refine_window(incumbent).filter(|i| !self.plan.coarse.contains(i)).collect();
        let traces = self.plan.traces;
        let pairs: Vec<(usize, usize)> =
            fresh.iter().flat_map(|&c| (0..traces).map(move |t| (c, t))).collect();
        ckpt_obs::counter_add_labeled("period_search.candidate_sims", "refine", pairs.len() as u64);
        let (flat, _) = steal::run_wave(&pairs, steal::workers(), |_| false, |_, &(c, t)| {
            self.candidate_sim(r, "refine", c, t)
        });
        let columns = fresh
            .iter()
            .enumerate()
            .map(|(k, &candidate)| RefineColumn {
                candidate,
                stats: flat[k * traces..(k + 1) * traces].to_vec(),
            })
            .collect();
        ItemPayload::Refine { columns }
    }

    /// One roster policy on one trace. The task id is the sim's plan
    /// position, so the merged span order is identical at any worker
    /// count.
    fn policy_sim(&self, r: &Ready, policy: usize, p: &dyn Policy, trace: usize) -> TraceStatsBits {
        let mut span =
            ckpt_obs::task_span("task.policy_sim", (policy * self.plan.traces + trace) as u64);
        if ckpt_obs::active() {
            span.label("policy", p.name().to_string());
            span.label("dist", self.scenario.label.clone());
            span.label("p", self.scenario.procs.to_string());
        }
        TraceStatsBits::of(&simulate_on(&r.spec, p, &r.traces[trace], self.plan.sim))
    }

    /// One `PeriodLB` candidate on one trace (ids above the roster's and
    /// lower bound's id ranges).
    fn candidate_sim(
        &self,
        r: &Ready,
        wave: &'static str,
        candidate: usize,
        trace: usize,
    ) -> TraceStatsBits {
        let factor = self.plan.grid[candidate];
        let mut span = ckpt_obs::task_span(
            "task.candidate_sim",
            ((self.plan.kinds.len() + 1 + candidate) * self.plan.traces + trace) as u64,
        );
        if ckpt_obs::active() {
            span.label("wave", wave);
            span.label("factor", format!("{factor}"));
        }
        let policy = r.base.as_fixed_period().scaled(factor);
        TraceStatsBits::of(&simulate_on(&r.spec, &policy, &r.traces[trace], self.plan.sim))
    }
}

/// Run one policy session on one cached trace.
fn simulate_on(
    spec: &JobSpec,
    policy: &dyn Policy,
    ct: &CachedTrace,
    sim: ckpt_sim::SimOptions,
) -> ckpt_sim::RunStats {
    let mut session = policy.session();
    ckpt_sim::simulate(
        spec,
        &mut *session,
        &ct.events,
        ct.procs_per_unit(),
        ct.traces.start_time,
        ct.traces.horizon,
        sim,
    )
}

/// Drain one wave of items: prepare every cell the wave touches, run the
/// items through the shared-cursor executor (DP policy items claimed
/// first), and record each payload under its item id. The items of one
/// wave must be independent: a refine item needs its cell's coarse items
/// drained in an earlier wave.
pub(crate) fn drain(
    cells: &mut [CellCtx<'_>],
    wave: &[WorkItem],
    completed: &mut BTreeMap<u64, ItemPayload>,
    perf: &mut PipelinePerf,
) {
    if wave.is_empty() {
        return;
    }
    for item in wave {
        cells[item.cell].prepare(perf);
    }
    let (cells, done) = (&*cells, &*completed);
    let (payloads, stats) = steal::run_wave(
        wave,
        steal::workers(),
        |item| cells[item.cell].is_heavy_item(item),
        |_, item| cells[item.cell].run_item(item, done),
    );
    perf.exec.get_or_insert_with(Default::default).absorb(&stats);
    completed.extend(wave.iter().map(|i| i.id).zip(payloads));
}

/// Execute one cell in memory: its plan's items, drained with no store
/// attached, then folded. The roster, lower-bound and coarse items form
/// one wave (the `policy_sims` stage); the refine item, which depends on
/// the coarse columns, is the second (the `period_search` stage).
/// Pushes the `trace_gen`, `policy_sims` and `period_search` stages
/// onto `perf`, plus the fold's work counters.
pub fn execute(
    scenario: &Scenario,
    built: &BuiltDist,
    sim_plan: &SimPlan,
    perf: &mut PipelinePerf,
) -> ExecOutput {
    let items = sim_plan.items(0, 0);
    let mut cell = CellCtx::new(scenario, sim_plan, Some(built), &items);
    cell.prepare(perf);
    // The shared plan/kernel-row caches are snapshotted around the drain
    // so the perf report attributes exactly this run's hits/misses.
    let caches_before = ckpt_policies::DpCaches::global().stats();
    let split = items.iter().position(|i| i.kind == ItemKind::Refine).unwrap_or(items.len());
    let mut completed = BTreeMap::new();
    for (stage, span, wave) in [
        ("policy_sims", "stage.policy_sims", &items[..split]),
        ("period_search", "stage.period_search", &items[split..]),
    ] {
        #[expect(clippy::disallowed_methods, reason = "stage timer feeds PipelinePerf only, never result rows")]
        let t_stage = Instant::now();
        let stage_span = ckpt_obs::span(span);
        drain(std::slice::from_mut(&mut cell), wave, &mut completed, perf);
        drop(stage_span);
        perf.push_stage(stage, t_stage, wave.len() as u64);
    }
    perf.plan_cache =
        ckpt_policies::DpCaches::global().stats().delta_since(&caches_before).into();
    match crate::reduce::fold(sim_plan, &items, &completed, perf) {
        Ok(out) => out,
        Err(e) => unreachable!("every item ran in this process, so its payload fits: {e}"),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::plan::plan_scenario;
    use crate::policies_spec::PolicyKind;
    use crate::runner::{PeriodSearch, RunnerOptions};
    use crate::scenario::DistSpec;
    use ckpt_sim::SimOptions;

    fn tiny() -> Scenario {
        let mut s = Scenario::single_processor(
            DistSpec::Exponential { mtbf: 6.0 * 3_600.0 },
            4,
        );
        s.total_work = 12.0 * 3_600.0;
        s
    }

    #[test]
    fn execute_fills_every_built_policy_cell() {
        let sc = tiny();
        let opts = RunnerOptions {
            period_lb: Some(vec![0.5, 1.0, 2.0]),
            period_search: PeriodSearch::Full,
            lower_bound: true,
            sim: SimOptions::default(),
        };
        let sim_plan = plan_scenario(&sc, &[PolicyKind::Young], &opts);
        let built = sc.dist.build();
        let mut perf = PipelinePerf::default();
        let out = execute(&sc, &built, &sim_plan, &mut perf);
        assert!(out.policy_build[0].is_ok());
        assert!(out.cells[0].iter().all(Option::is_some));
        assert_eq!(out.lower_bounds.as_ref().map(Vec::len), Some(4));
        let s = out.search.expect("grid present");
        assert_eq!(s.column.len(), 4);
        assert!([0.5, 1.0, 2.0].contains(&s.factor));
        assert_eq!(perf.policy_sims, 4);
        assert_eq!(perf.candidate_sims, 12);
    }

    #[test]
    fn unbuildable_policy_is_a_value_not_a_panic() {
        let year = 365.25 * 86_400.0;
        let sc = Scenario::petascale(
            DistSpec::Weibull { shape: 0.3, mtbf: 125.0 * year },
            4_096,
            2,
        );
        let opts = RunnerOptions { period_lb: None, lower_bound: false, ..Default::default() };
        let sim_plan = plan_scenario(&sc, &[PolicyKind::Liu], &opts);
        let built = sc.dist.build();
        let mut perf = PipelinePerf::default();
        let out = execute(&sc, &built, &sim_plan, &mut perf);
        assert!(out.policy_build[0].is_err());
        assert!(out.cells[0].iter().all(Option::is_none));
        assert_eq!(perf.policy_sims, 0);
        assert!(out.search.is_none());
    }

    /// Failure-as-value must survive the threaded drain: an unbuildable
    /// policy at 8 workers yields the same absent column, no panic, no
    /// hang, and the buildable sibling policy still fills every cell.
    #[test]
    fn unbuildable_policy_stays_a_value_under_many_workers() {
        let year = 365.25 * 86_400.0;
        let sc = Scenario::petascale(
            DistSpec::Weibull { shape: 0.3, mtbf: 125.0 * year },
            4_096,
            4,
        );
        let opts = RunnerOptions { period_lb: None, lower_bound: false, ..Default::default() };
        let sim_plan = plan_scenario(&sc, &[PolicyKind::Liu, PolicyKind::Young], &opts);
        let built = sc.dist.build();
        crate::steal::set_workers(8);
        let mut perf = PipelinePerf::default();
        let out = execute(&sc, &built, &sim_plan, &mut perf);
        crate::steal::set_workers(0);
        assert!(out.policy_build[0].is_err());
        assert!(out.cells[0].iter().all(Option::is_none));
        assert!(out.policy_build[1].is_ok());
        assert!(out.cells[1].iter().all(Option::is_some));
        assert_eq!(perf.policy_sims, 4);
    }

    /// The core contract of the steal executor: `execute` output is
    /// bit-identical at 1 and 8 workers (cells, lower bounds, search
    /// column and the deterministic perf counters alike).
    #[test]
    fn execute_is_bit_identical_across_worker_counts() {
        let mut sc = tiny();
        sc.traces = 8;
        let opts = RunnerOptions {
            period_lb: Some(vec![0.5, 1.0, 2.0]),
            period_search: PeriodSearch::Full,
            lower_bound: true,
            sim: SimOptions::default(),
        };
        let kinds = [PolicyKind::Young, PolicyKind::OptExp];
        let sim_plan = plan_scenario(&sc, &kinds, &opts);
        let built = sc.dist.build();

        let run_at = |workers: usize| {
            crate::steal::set_workers(workers);
            let mut perf = PipelinePerf::default();
            let out = execute(&sc, &built, &sim_plan, &mut perf);
            crate::steal::set_workers(0);
            (out, perf)
        };
        let (seq, perf_seq) = run_at(1);
        let (par, perf_par) = run_at(8);

        for (a, b) in seq.cells.iter().zip(&par.cells) {
            for (ca, cb) in a.iter().zip(b) {
                match (ca, cb) {
                    (Some(ca), Some(cb)) => {
                        assert_eq!(ca.makespan.to_bits(), cb.makespan.to_bits());
                        assert_eq!(ca.failures, cb.failures);
                    }
                    (None, None) => {}
                    _ => panic!("cell presence differs across worker counts"),
                }
            }
        }
        assert_eq!(
            seq.lower_bounds.as_ref().map(|l| l.iter().map(|m| m.to_bits()).collect::<Vec<_>>()),
            par.lower_bounds.as_ref().map(|l| l.iter().map(|m| m.to_bits()).collect::<Vec<_>>()),
        );
        let (sa, sb) = (seq.search.expect("grid"), par.search.expect("grid"));
        assert_eq!(sa.factor.to_bits(), sb.factor.to_bits());
        assert_eq!(
            sa.column.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
            sb.column.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
        );
        // Work counters are schedule-independent; only perf.exec varies.
        assert_eq!(perf_seq.policy_sims, perf_par.policy_sims);
        assert_eq!(perf_seq.candidate_sims, perf_par.candidate_sims);
        assert_eq!(perf_seq.decisions, perf_par.decisions);
        assert_eq!(perf_seq.failures, perf_par.failures);
    }
}
