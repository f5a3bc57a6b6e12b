//! Execution layer: drains a [`SimPlan`] through the shared-cursor
//! wave executor ([`crate::steal`]).
//!
//! [`execute`] is the only place the pipeline touches the engine: it
//! fetches traces through the shared [`TraceCache`] (`Arc`-shared with
//! every worker), instantiates the roster through the policy
//! [`registry`](crate::registry), and drains the plan's task waves with
//! `drain_wave` — [`steal::run_wave`] under the plan's task numbering,
//! with DP sims marked heavy so they are claimed first. Results are committed in task-ID order, so every
//! reduction downstream sees results in plan order and the output is
//! bit-identical at any worker count ([`steal::workers`], settable via
//! the CLI `--threads`).
//!
//! Failures are values here: a policy that cannot be instantiated for
//! the cell (Liu's footnote-2 cases) becomes an [`Error`] stored in
//! [`ExecOutput::policy_build`] and a column of absent cells — never a
//! panic, never an aborted scenario. Per-stage wall-clock and work
//! counters (including the wave scheduling counters on
//! [`PipelinePerf::exec`]) feed the caller's [`PipelinePerf`].

use crate::cache::{CachedTrace, TraceCache};
use crate::error::Error;
use crate::perf::PipelinePerf;
use crate::plan::{self, SimPlan, SimTask};
use crate::scenario::{BuiltDist, Scenario};
use crate::steal;
use ckpt_policies::Policy;
use ckpt_sim::lower_bound_makespan;
use ckpt_workload::JobSpec;
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

/// Is this policy kind a wave long pole (a DP sim)? Shared with the
/// checkpointed study runner so both drains claim the same task
/// classes first.
pub(crate) fn heavy_policy_kind(k: &crate::policies_spec::PolicyKind) -> bool {
    matches!(
        k,
        crate::policies_spec::PolicyKind::DpNextFailure(_)
            | crate::policies_spec::PolicyKind::DpMakespan(_)
    )
}

/// Drain one wave through the shared-cursor executor. Heavy tasks are
/// claimed first (so a long pole starts early instead of trailing the
/// wave), then the cheap bulk. Results are committed in task
/// order, which is what makes downstream reductions independent of
/// worker count and scheduling; the wave's scheduling counters
/// accumulate on `perf.exec`.
fn drain_wave<T, F, H>(tasks: &[SimTask], perf: &mut PipelinePerf, is_heavy: H, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(SimTask) -> T + Sync,
    H: Fn(&SimTask) -> bool,
{
    let (out, stats) = steal::run_wave(tasks, steal::workers(), is_heavy, |_, &t| run(t));
    perf.exec.get_or_insert_with(Default::default).absorb(&stats);
    out
}

/// Per-task output of the roster wave.
enum RosterOutput {
    Policy { cell: Option<PolicyCell>, decisions: u64, failures: u64 },
    LowerBound { makespan: f64 },
}

/// Run one policy session on one cached trace. Shared with the
/// checkpointed study runner ([`crate::checkpoint`]), whose item
/// executors must perform bit-identical sims to this executor's waves.
pub(crate) fn simulate_on(
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

/// Execute a plan against a scenario: fetch traces, build the roster,
/// drain the roster wave, then the candidate waves. Pushes the
/// `trace_gen`, `policy_sims` and `period_search` stages onto `perf`.
pub fn execute(
    scenario: &Scenario,
    built: &BuiltDist,
    sim_plan: &SimPlan,
    perf: &mut PipelinePerf,
) -> ExecOutput {
    let spec = scenario.job_spec();

    // Stage 1: trace generation (process-wide cache, shared via Arc).
    // lint: allow(transitive-nondeterminism) — stage timer feeds PipelinePerf only, never result rows
    let t_stage = Instant::now();
    let stage_span = ckpt_obs::span("stage.trace_gen");
    let cache = TraceCache::global();
    let trace_tasks: Vec<usize> = (0..sim_plan.traces).collect();
    let (cached, trace_stats) = steal::run_wave(
        &trace_tasks,
        steal::workers(),
        |_| false,
        |_, &idx| cache.get_or_generate(scenario, built, idx),
    );
    let cached: Vec<Arc<CachedTrace>> = cached;
    perf.exec.get_or_insert_with(Default::default).absorb(&trace_stats);
    drop(stage_span);
    perf.push_stage("trace_gen", t_stage, sim_plan.traces as u64);

    // Instantiate the roster once through the registry; sessions are
    // per-task. Build failures become values.
    let policies: Vec<Result<Box<dyn Policy>, Error>> = sim_plan
        .kinds
        .iter()
        .map(|k| crate::registry::build_policy(k, scenario, built))
        .collect();

    // Stage 2: the roster wave (policy sims plus lower bounds). DP sims
    // are the wave's long poles — schedule them first so they overlap the
    // cheap periodic sims instead of trailing them. The shared plan/
    // kernel-row caches are snapshotted around the wave so the perf
    // report attributes exactly this run's hits/misses/evictions.
    // lint: allow(transitive-nondeterminism) — stage timer feeds PipelinePerf only, never result rows
    let t_stage = Instant::now();
    let stage_span = ckpt_obs::span("stage.policy_sims");
    let caches_before = ckpt_policies::DpCaches::global().stats();
    let tasks = sim_plan.roster_wave();
    let is_heavy = |task: &SimTask| match task {
        SimTask::Policy { policy, .. } => heavy_policy_kind(&sim_plan.kinds[*policy]),
        _ => false,
    };
    ckpt_obs::gauge_max("wave.roster_tasks", tasks.len() as u64);
    let outputs = drain_wave(&tasks, perf, is_heavy, |task| match task {
        SimTask::Policy { policy, trace } => match &policies[policy] {
            Ok(p) => {
                // Task id = plan position: deterministic, so the merged
                // span order is identical at any thread count.
                let mut span = ckpt_obs::task_span(
                    "task.policy_sim",
                    (policy * sim_plan.traces + trace) as u64,
                );
                if ckpt_obs::active() {
                    span.label("policy", p.name().to_string());
                    span.label("dist", scenario.label.clone());
                    span.label("p", scenario.procs.to_string());
                }
                let st = simulate_on(&spec, p.as_ref(), &cached[trace], sim_plan.sim);
                RosterOutput::Policy {
                    cell: Some(PolicyCell {
                        makespan: st.makespan,
                        failures: st.failures,
                        chunk_min: st.chunk_min,
                        chunk_max: st.chunk_max,
                    }),
                    decisions: st.decisions,
                    failures: st.failures,
                }
            }
            Err(_) => RosterOutput::Policy { cell: None, decisions: 0, failures: 0 },
        },
        SimTask::LowerBound { trace } => {
            let _span = ckpt_obs::task_span(
                "task.lower_bound",
                (sim_plan.kinds.len() * sim_plan.traces + trace) as u64,
            );
            RosterOutput::LowerBound {
                makespan: lower_bound_makespan(&spec, &cached[trace].traces).makespan,
            }
        }
        SimTask::Candidate { .. } => {
            unreachable!("candidate tasks are drained in the search waves")
        }
    });
    // Scatter task outputs into [policy][trace] matrices (plan order is
    // preserved by drain_wave, so this is a deterministic transpose).
    let mut cells: Vec<Vec<Option<PolicyCell>>> =
        vec![vec![None; sim_plan.traces]; sim_plan.kinds.len()];
    let mut lower_bounds =
        sim_plan.lower_bound.then(|| vec![0.0f64; sim_plan.traces]);
    for (task, out) in tasks.iter().zip(outputs) {
        match (task, out) {
            (SimTask::Policy { policy, trace }, RosterOutput::Policy { cell, decisions, failures }) => {
                cells[*policy][*trace] = cell;
                perf.decisions += decisions;
                perf.failures += failures;
            }
            (SimTask::LowerBound { trace }, RosterOutput::LowerBound { makespan }) => {
                if let Some(lb) = &mut lower_bounds {
                    lb[*trace] = makespan;
                }
            }
            _ => unreachable!("wave outputs align with their tasks"),
        }
    }
    let ran_policies = policies.iter().filter(|b| b.is_ok()).count() as u64;
    perf.policy_sims = ran_policies * sim_plan.traces as u64;
    perf.plan_cache =
        ckpt_policies::DpCaches::global().stats().delta_since(&caches_before).into();
    drop(stage_span);
    perf.push_stage("policy_sims", t_stage, perf.policy_sims);

    // Stage 3: PeriodLB candidate waves (coarse, then refine).
    // lint: allow(transitive-nondeterminism) — stage timer feeds PipelinePerf only, never result rows
    let t_stage = Instant::now();
    let stage_span = ckpt_obs::span("stage.period_search");
    let search = search_candidates(&spec, built, sim_plan, &cached, perf);
    drop(stage_span);
    perf.push_stage("period_search", t_stage, perf.candidate_sims);

    ExecOutput {
        policy_build: policies.into_iter().map(|r| r.map(|_| ())).collect(),
        cells,
        lower_bounds,
        search,
    }
}

/// Drain the candidate waves: evaluate the plan's coarse indices, pick
/// the incumbent, evaluate the refine window, and return the winner by
/// mean makespan (ties toward the smaller factor).
fn search_candidates(
    spec: &JobSpec,
    built: &BuiltDist,
    sim_plan: &SimPlan,
    cached: &[Arc<CachedTrace>],
    perf: &mut PipelinePerf,
) -> Option<SearchOutput> {
    if sim_plan.grid.is_empty() {
        return None;
    }
    perf.candidate_grid_size = sim_plan.grid.len() as u64;
    let base = crate::registry::optexp_base(spec, built.proc_mtbf);
    // columns[candidate] = (per-trace makespans, mean).
    let mut columns: Vec<Option<(Vec<f64>, f64)>> = vec![None; sim_plan.grid.len()];

    let mut evaluate_wave = |wave: &'static str,
                             indices: &[usize],
                             columns: &mut Vec<Option<(Vec<f64>, f64)>>| {
        let fresh: Vec<usize> =
            indices.iter().copied().filter(|&i| columns[i].is_none()).collect();
        let tasks = sim_plan.candidate_wave(&fresh);
        ckpt_obs::gauge_max("wave.candidate_tasks", tasks.len() as u64);
        let outputs = drain_wave(&tasks, perf, |_| false, |task| {
            let SimTask::Candidate { candidate, trace } = task else {
                unreachable!("candidate waves contain only candidate tasks")
            };
            // Candidate ids live above the roster wave's id range.
            let mut span = ckpt_obs::task_span(
                "task.candidate_sim",
                ((sim_plan.kinds.len() + 1 + candidate) * sim_plan.traces + trace) as u64,
            );
            if ckpt_obs::active() {
                span.label("wave", wave);
                span.label("factor", format!("{}", sim_plan.grid[candidate]));
            }
            let policy = base.as_fixed_period().scaled(sim_plan.grid[candidate]);
            let st = simulate_on(spec, &policy, &cached[trace], sim_plan.sim);
            (st.makespan, st.decisions, st.failures)
        });
        ckpt_obs::counter_add_labeled("period_search.candidate_sims", wave, tasks.len() as u64);
        perf.candidate_sims += tasks.len() as u64;
        for (task, (makespan, decisions, failures)) in tasks.iter().zip(&outputs) {
            let SimTask::Candidate { candidate, trace } = task else {
                unreachable!("candidate waves contain only candidate tasks")
            };
            let col = &mut columns[*candidate]
                .get_or_insert_with(|| (vec![0.0; sim_plan.traces], 0.0))
                .0;
            col[*trace] = *makespan;
            perf.decisions += decisions;
            perf.failures += failures;
        }
        // Means in candidate order, summed in trace order: the exact
        // reduction the monolith performed.
        for &i in &fresh {
            if let Some((col, mean)) = &mut columns[i] {
                *mean = col.iter().sum::<f64>() / col.len().max(1) as f64;
            }
        }
    };

    evaluate_wave("coarse", &sim_plan.coarse, &mut columns);
    if sim_plan.refine_step.is_some() {
        let means: Vec<Option<f64>> =
            columns.iter().map(|c| c.as_ref().map(|(_, m)| *m)).collect();
        if let Some(incumbent) = plan::winner(&means) {
            let window: Vec<usize> = sim_plan.refine_window(incumbent).collect();
            evaluate_wave("refine", &window, &mut columns);
        }
    }

    let means: Vec<Option<f64>> =
        columns.iter().map(|c| c.as_ref().map(|(_, m)| *m)).collect();
    let winner = plan::winner(&means)?;
    let (column, _) = columns[winner].take()?;
    Some(SearchOutput { factor: sim_plan.grid[winner], column })
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
