//! The traced run: the in-memory pipeline rebuilt from the library's
//! public layer functions, with every call into a layer timed from here.
//!
//! `run_cell` performs the same work as `plan → exec::execute → reduce`
//! — the same waves, the same task order, the same reductions — so its
//! result must serialise to the same golden digest as an untraced run.
//! The timing sits only in this file: a `PolicySession` wrapper, timed
//! `steal::run_wave` task closures, and timed `build_policy` and
//! `TraceCache::get_or_generate` calls.

use crate::Metrics;
use ckpt_exp::cache::{CachedTrace, TraceCache};
use ckpt_exp::exec::{ExecOutput, PolicyCell, SearchOutput};
use ckpt_exp::perf::PipelinePerf;
use ckpt_exp::plan::{self, plan_scenario, SimTask};
use ckpt_exp::policies_spec::PolicyKind;
use ckpt_exp::registry::{build_policy, optexp_base};
use ckpt_exp::runner::{RunnerOptions, ScenarioResult};
use ckpt_exp::scenario::{BuiltDist, Scenario};
use ckpt_exp::{steal, Error};
use ckpt_platform::{AgeView, FailureTrace};
use ckpt_policies::{DpCacheStats, DpCaches, Policy, PolicySession};
use ckpt_sim::{lower_bound_makespan, RunStats, SimOptions};
use ckpt_workload::JobSpec;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every roster kind, for the per-kind build-time breakdown.
pub const KINDS: [&str; 8] = [
    "Young",
    "DalyLow",
    "DalyHigh",
    "Liu",
    "Bouguerra",
    "OptExp",
    "DPNextFailure",
    "DPMakespan",
];

/// A session that times every call into the policy.
struct TimedSession<'a> {
    inner: Box<dyn PolicySession + 'a>,
    decide: Duration,
    decisions: u64,
}

impl PolicySession for TimedSession<'_> {
    fn next_chunk(&mut self, remaining: f64, ages: &AgeView, now: f64) -> f64 {
        let t = Instant::now();
        let chunk = self.inner.next_chunk(remaining, ages, now);
        self.decide += t.elapsed();
        self.decisions += 1;
        chunk
    }

    fn on_failure(&mut self) {
        let t = Instant::now();
        self.inner.on_failure();
        self.decide += t.elapsed();
    }

    fn wants_ages(&self) -> bool {
        self.inner.wants_ages()
    }
}

/// One timed simulation: the engine's stats plus where its time went.
struct Sim {
    stats: RunStats,
    total: Duration,
    decide: Duration,
    decisions: u64,
}

fn simulate(spec: &JobSpec, policy: &dyn Policy, ct: &CachedTrace, sim: SimOptions) -> Sim {
    let mut session = TimedSession {
        inner: policy.session(),
        decide: Duration::ZERO,
        decisions: 0,
    };
    let t = Instant::now();
    let stats = ckpt_sim::simulate(
        spec,
        &mut session,
        &ct.events,
        ct.procs_per_unit(),
        ct.traces.start_time,
        ct.traces.horizon,
        sim,
    );
    Sim {
        stats,
        total: t.elapsed(),
        decide: session.decide,
        decisions: session.decisions,
    }
}

/// Per-layer totals over every cell of the run.
#[derive(Default)]
pub struct Layers {
    traces: u64,
    trace_gen: Duration,
    events: u64,
    trace_bytes: u64,
    build: BTreeMap<String, Duration>,
    decisions: u64,
    decide: Duration,
    sim_runs: u64,
    sim_decisions: u64,
    sim_failures: u64,
    sim_total: Duration,
    lower_bound: Duration,
    tasks: u64,
    waves: u64,
    local_claims: u64,
    steals: u64,
    failed_probes: u64,
    idle: f64,
    caches: DpCacheStats,
}

impl Layers {
    /// Drain one wave through `steal::run_wave`, timing every task.
    fn wave<T, R, H, F>(&mut self, tasks: &[T], workers: usize, is_heavy: H, run: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        H: Fn(&T) -> bool,
        F: Fn(&T) -> R + Sync,
    {
        let t = Instant::now();
        let (out, stats) = steal::run_wave(tasks, workers, is_heavy, |_, task| {
            let t = Instant::now();
            let r = run(task);
            (r, t.elapsed())
        });
        let wall = t.elapsed().as_secs_f64();
        let busy: f64 = out.iter().map(|(_, d)| d.as_secs_f64()).sum();
        self.idle += stats.workers as f64 * wall - busy;
        self.tasks += tasks.len() as u64;
        self.waves += 1;
        self.local_claims += stats.local_claims;
        self.steals += stats.steals;
        self.failed_probes += stats.failed_probes;
        out.into_iter().map(|(r, _)| r).collect()
    }

    fn add_sim(&mut self, sim: &Sim) {
        self.decisions += sim.decisions;
        self.decide += sim.decide;
        self.sim_runs += 1;
        self.sim_decisions += sim.stats.decisions;
        self.sim_failures += sim.stats.failures;
        self.sim_total += sim.total;
    }

    /// Run every cell, as `Study::run_all` would, and record the layers.
    pub fn run_all(
        &mut self,
        cells: &[Scenario],
        roster: impl Fn(&Scenario) -> Vec<PolicyKind>,
        options: &RunnerOptions,
        workers: usize,
    ) -> Vec<Result<ScenarioResult, Error>> {
        let before = DpCaches::global().stats();
        let results = cells
            .iter()
            .map(|sc| {
                let built = sc.dist.try_build()?;
                Ok(self.run_cell(sc, &built, &roster(sc), options, workers))
            })
            .collect();
        self.caches = DpCaches::global().stats().delta_since(&before);
        results
    }

    /// One cell: plan, traces, roster wave, `PeriodLB` waves, reduce.
    fn run_cell(
        &mut self,
        sc: &Scenario,
        built: &BuiltDist,
        kinds: &[PolicyKind],
        options: &RunnerOptions,
        workers: usize,
    ) -> ScenarioResult {
        let sim_plan = plan_scenario(sc, kinds, options);
        let spec = sc.job_spec();
        let mut perf = PipelinePerf::default();

        let indices: Vec<usize> = (0..sim_plan.traces).collect();
        let cached: Vec<(Arc<CachedTrace>, Duration)> = self.wave(
            &indices,
            workers,
            |_| false,
            |&i| {
                let t = Instant::now();
                let ct = TraceCache::global().get_or_generate(sc, built, i);
                (ct, t.elapsed())
            },
        );
        for (ct, d) in &cached {
            self.traces += 1;
            self.trace_gen += *d;
            self.events += ct.events.len() as u64;
            // Per unit: the trace's `Vec` header plus its failure dates;
            // per platform event: one date and one unit id.
            let units = &ct.traces.units;
            let dates: usize = units.iter().map(|u| u.failures.len()).sum();
            self.trace_bytes += (units.len() * std::mem::size_of::<FailureTrace>()
                + dates * 8
                + ct.events.len() * 12) as u64;
        }
        let cached: Vec<Arc<CachedTrace>> = cached.into_iter().map(|(ct, _)| ct).collect();

        let policies: Vec<Result<Box<dyn Policy>, Error>> = kinds
            .iter()
            .map(|k| {
                let t = Instant::now();
                let p = build_policy(k, sc, built);
                *self.build.entry(k.name()).or_default() += t.elapsed();
                p
            })
            .collect();

        // The roster wave, DP sims seeded first as `exec::execute` does.
        enum Out {
            Sim(Sim),
            Absent,
            LowerBound(f64, Duration),
        }
        let tasks = sim_plan.roster_wave();
        let heavy = |task: &SimTask| match task {
            SimTask::Policy { policy, .. } => matches!(
                kinds[*policy],
                PolicyKind::DpNextFailure(_) | PolicyKind::DpMakespan(_)
            ),
            _ => false,
        };
        let outs = self.wave(&tasks, workers, heavy, |task| match *task {
            SimTask::Policy { policy, trace } => match &policies[policy] {
                Ok(p) => Out::Sim(simulate(&spec, p.as_ref(), &cached[trace], sim_plan.sim)),
                Err(_) => Out::Absent,
            },
            SimTask::LowerBound { trace } => {
                let t = Instant::now();
                let m = lower_bound_makespan(&spec, &cached[trace].traces).makespan;
                Out::LowerBound(m, t.elapsed())
            }
            SimTask::Candidate { .. } => unreachable!("the roster wave has no candidates"),
        });
        let mut cells = vec![vec![None; sim_plan.traces]; kinds.len()];
        let mut lower_bounds = sim_plan.lower_bound.then(|| vec![0.0; sim_plan.traces]);
        for (task, out) in tasks.iter().zip(outs) {
            match (task, out) {
                (SimTask::Policy { policy, trace }, Out::Sim(sim)) => {
                    cells[*policy][*trace] = Some(PolicyCell {
                        makespan: sim.stats.makespan,
                        failures: sim.stats.failures,
                        chunk_min: sim.stats.chunk_min,
                        chunk_max: sim.stats.chunk_max,
                    });
                    perf.decisions += sim.stats.decisions;
                    perf.failures += sim.stats.failures;
                    self.add_sim(&sim);
                }
                (SimTask::LowerBound { trace }, Out::LowerBound(m, d)) => {
                    if let Some(lb) = &mut lower_bounds {
                        lb[*trace] = m;
                    }
                    self.lower_bound += d;
                }
                _ => {}
            }
        }
        let built_count = policies.iter().filter(|p| p.is_ok()).count();
        perf.policy_sims = (built_count * sim_plan.traces) as u64;

        let search = self.search(&spec, built, &sim_plan, &cached, &mut perf, workers);
        let out = ExecOutput {
            policy_build: policies.into_iter().map(|r| r.map(|_| ())).collect(),
            cells,
            lower_bounds,
            search,
        };
        let mut result = ckpt_exp::reduce::reduce(sc, &sim_plan, &out, &mut perf);
        result.perf = perf;
        result
    }

    /// The `PeriodLB` coarse and refine waves, as `exec::execute` runs
    /// them: means summed in trace order, ties to the smaller factor.
    fn search(
        &mut self,
        spec: &JobSpec,
        built: &BuiltDist,
        sim_plan: &plan::SimPlan,
        cached: &[Arc<CachedTrace>],
        perf: &mut PipelinePerf,
        workers: usize,
    ) -> Option<SearchOutput> {
        if sim_plan.grid.is_empty() {
            return None;
        }
        perf.candidate_grid_size = sim_plan.grid.len() as u64;
        let base = optexp_base(spec, built.proc_mtbf);
        let mut columns: Vec<Option<(Vec<f64>, f64)>> = vec![None; sim_plan.grid.len()];
        let mut evaluate =
            |this: &mut Self, indices: &[usize], columns: &mut Vec<Option<(Vec<f64>, f64)>>| {
                let fresh: Vec<usize> = indices
                    .iter()
                    .copied()
                    .filter(|&i| columns[i].is_none())
                    .collect();
                let tasks = sim_plan.candidate_wave(&fresh);
                let outs = this.wave(
                    &tasks,
                    workers,
                    |_| false,
                    |task| {
                        let SimTask::Candidate { candidate, trace } = *task else {
                            unreachable!("candidate waves hold candidates only")
                        };
                        let policy = base.as_fixed_period().scaled(sim_plan.grid[candidate]);
                        simulate(spec, &policy, &cached[trace], sim_plan.sim)
                    },
                );
                perf.candidate_sims += tasks.len() as u64;
                for (task, sim) in tasks.iter().zip(&outs) {
                    let SimTask::Candidate { candidate, trace } = *task else {
                        continue;
                    };
                    let col = &mut columns[candidate]
                        .get_or_insert_with(|| (vec![0.0; sim_plan.traces], 0.0))
                        .0;
                    col[trace] = sim.stats.makespan;
                    perf.decisions += sim.stats.decisions;
                    perf.failures += sim.stats.failures;
                    this.add_sim(sim);
                }
                for &i in &fresh {
                    if let Some((col, mean)) = &mut columns[i] {
                        *mean = col.iter().sum::<f64>() / col.len().max(1) as f64;
                    }
                }
            };
        evaluate(self, &sim_plan.coarse, &mut columns);
        let means = |columns: &[Option<(Vec<f64>, f64)>]| -> Vec<Option<f64>> {
            columns
                .iter()
                .map(|c| c.as_ref().map(|(_, m)| *m))
                .collect()
        };
        if sim_plan.refine_step.is_some() {
            if let Some(incumbent) = plan::winner(&means(&columns)) {
                let window: Vec<usize> = sim_plan.refine_window(incumbent).collect();
                evaluate(self, &window, &mut columns);
            }
        }
        let winner = plan::winner(&means(&columns))?;
        let (column, _) = columns[winner].take()?;
        Some(SearchOutput {
            factor: sim_plan.grid[winner],
            column,
        })
    }

    /// The per-layer metrics of this run.
    pub fn metrics(&self, m: &mut Metrics) {
        let secs = Duration::as_secs_f64;
        let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };

        m.insert("scenario.trace_gen_s", secs(&self.trace_gen));
        m.insert(
            "scenario.ms_per_trace",
            per(secs(&self.trace_gen) * 1e3, self.traces),
        );
        m.insert("scenario.events", self.events as f64);
        m.insert(
            "scenario.trace_mb",
            self.trace_bytes as f64 / (1024.0 * 1024.0),
        );

        let build: Duration = self.build.values().sum();
        m.insert("policies.build_s", secs(&build));
        for kind in KINDS {
            let d = self.build.get(kind).copied().unwrap_or_default();
            m.insert(&format!("policies.build_s.{kind}"), secs(&d));
        }
        m.insert("policies.decisions", self.decisions as f64);
        m.insert("policies.decide_s", secs(&self.decide));
        m.insert(
            "policies.decide_ns",
            per(secs(&self.decide) * 1e9, self.decisions),
        );
        let (plans, rows) = (self.caches.plans, self.caches.kernel_rows);
        m.insert("policies.plan_cache.hits", plans.hits as f64);
        m.insert("policies.plan_cache.misses", plans.misses as f64);
        m.insert(
            "policies.plan_cache.hit_ratio",
            per(plans.hits as f64, plans.hits + plans.misses),
        );
        m.insert("policies.kernel_rows.hits", rows.hits as f64);
        m.insert("policies.kernel_rows.misses", rows.misses as f64);
        m.insert("policies.kernel_rows.evictions", rows.evictions as f64);
        m.insert(
            "policies.kernel_rows.hit_ratio",
            per(rows.hits as f64, rows.hits + rows.misses),
        );

        let engine = secs(&self.sim_total) - secs(&self.decide);
        m.insert("sim.runs", self.sim_runs as f64);
        m.insert("sim.decisions", self.sim_decisions as f64);
        m.insert("sim.failures", self.sim_failures as f64);
        m.insert("sim.engine_s", engine);
        m.insert(
            "sim.engine_ns_per_decision",
            per(engine * 1e9, self.sim_decisions),
        );
        m.insert("sim.lower_bound_s", secs(&self.lower_bound));

        m.insert("steal.tasks", self.tasks as f64);
        m.insert("steal.waves", self.waves as f64);
        m.insert("steal.local_claims", self.local_claims as f64);
        m.insert("steal.steals", self.steals as f64);
        m.insert("steal.failed_probes", self.failed_probes as f64);
        m.insert("steal.idle_s", self.idle);
        m.insert("steal.ns_per_task", per(self.idle * 1e9, self.tasks));
    }
}
