//! Execution layer: the one engine. Every run drains its
//! [`WorkItem`]s through one cell context, one item body and one wave
//! loop.
//!
//! * `CellCtx` holds what a cell's items need — plan, built
//!   distribution, [`JobSpec`], the `OptExp` base of the `PeriodLB`
//!   search, the roster (built once per cell per process) and the
//!   cell's traces, fetched from the shared [`TraceCache`] by trace
//!   block before its first pending item runs.
//! * `CellCtx::run_item` runs one item and returns its
//!   [`ItemPayload`]; it is the only code in the crate that simulates.
//! * `run_waves` cuts the pending items into waves (`waves`) and
//!   drains each through [`steal::run_wave`] (DP policy items claimed
//!   first), recording the payloads under their item ids, so the output
//!   is bit-identical at any worker count. A study's traces and DP memos
//!   are freed after their last pending reader.
//!
//! Both study entries ([`crate::checkpoint`]) drain their manifest
//! through `run_waves`; [`execute`] is the same loop over one cell,
//! then the fold (`reduce::fold`). A policy that cannot be
//! built for the cell (Liu's footnote-2 cases) is a value — an unbuilt
//! payload, then an [`Error`] in [`ExecOutput::policy_build`] — never a
//! panic; a cell whose distribution cannot be built has no items.

// Workers share nothing but the claim cursor and commit in task-ID
// order; any other lock, atomic or cell here is a new coordination
// channel (the banned types are listed in clippy.toml).
#![deny(clippy::disallowed_types)]

use crate::cache::{CachedTrace, StreamKey, TraceCache};
use crate::checkpoint::{ItemPayload, RefineColumn, Store, TraceStatsBits};
use crate::error::Error;
use crate::perf::{clock_seconds, PipelinePerf};
use crate::plan::{ItemKind, SimPlan, WorkItem};
use crate::policies_spec::PolicyKind;
use crate::scenario::{BuiltDist, Scenario};
use crate::steal;
use ckpt_policies::{DistId, DpCaches, OptExp, Policy};
use ckpt_sim::lower_bound_on_events;
use ckpt_workload::JobSpec;
use std::collections::BTreeMap;
use std::sync::Arc;

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

    /// Fetch the cell's traces by block (the `trace_gen` stage: the
    /// blocks' missing units sampled over every worker, then their
    /// events merged), then build the roster. Idempotent; a cell whose distribution
    /// failed to build has nothing to prepare.
    fn prepare(&mut self, perf: &mut PipelinePerf) {
        let Some(built) = self.built else { return };
        if self.ready.is_some() {
            return;
        }
        let (scenario, plan) = (self.scenario, self.plan);
        let t_stage = clock_seconds();
        let blocks: Vec<_> = plan.trace_blocks().collect();
        let traces =
            TraceCache::global().get_or_generate_blocks(scenario, built, &blocks, steal::workers());
        perf.push_stage("trace_gen", t_stage);

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
                    stats: traces.map(|t| self.policy_sim(r, p.as_ref(), t)).collect(),
                },
                Err(e) => {
                    ItemPayload::Policy { built: false, reason: e.to_string(), stats: Vec::new() }
                }
            },
            ItemKind::LowerBound => ItemPayload::LowerBound {
                makespans: traces
                    .map(|t| {
                        let ct = &r.traces[t];
                        let (start, horizon) = (ct.traces.start_time, ct.traces.horizon);
                        let stats = lower_bound_on_events(&r.spec, &ct.events, start, horizon);
                        stats.makespan.to_bits()
                    })
                    .collect(),
            },
            ItemKind::Coarse { candidate } => ItemPayload::Coarse {
                stats: traces.map(|t| self.candidate_sim(r, candidate, t)).collect(),
            },
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
        let (flat, _) = steal::run_wave(&pairs, steal::workers(), |_| false, |_, &(c, t)| {
            self.candidate_sim(r, c, t)
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

    /// One roster policy on one trace.
    fn policy_sim(&self, r: &Ready, p: &dyn Policy, trace: usize) -> TraceStatsBits {
        TraceStatsBits::of(&simulate_on(&r.spec, p, &r.traces[trace], self.plan.sim))
    }

    /// One `PeriodLB` candidate on one trace.
    fn candidate_sim(&self, r: &Ready, candidate: usize, trace: usize) -> TraceStatsBits {
        let policy = r.base.as_fixed_period().scaled(self.plan.grid[candidate]);
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

/// Items per wave of a run with a checkpoint store attached: a
/// snapshot, a kill or a progress line can land between any two waves.
pub(crate) const CHUNK_ITEMS: usize = 8;

/// Cut `pending` (in id order) into waves, one rule for every run: a
/// wave ends at each cell boundary, each refine item is a wave of its
/// own (so its cell's coarse payloads are in before it runs), and with
/// a store attached a wave also ends every [`CHUNK_ITEMS`] items.
pub(crate) fn waves(pending: &[WorkItem], store: bool) -> impl Iterator<Item = &[WorkItem]> {
    let chunk = if store { CHUNK_ITEMS } else { usize::MAX };
    let refine = |i: &WorkItem| i.kind == ItemKind::Refine;
    pending
        .chunk_by(move |a, b| a.cell == b.cell && !refine(a) && !refine(b))
        .flat_map(move |run| run.chunks(chunk))
}

/// Drain one wave of items (all of one cell): prepare the cell, run the
/// items through the shared-cursor executor (DP policy items claimed
/// first), and record each payload under its item id. Pushes the wave's
/// stage (`period_search` for a refine item, else `policy_sims`) onto
/// `perf`, the cell's.
fn drain(
    cells: &mut [CellCtx<'_>],
    wave: &[WorkItem],
    completed: &mut BTreeMap<u64, ItemPayload>,
    perf: &mut PipelinePerf,
) {
    cells[wave[0].cell].prepare(perf);
    let t_stage = clock_seconds();
    let (cells, done) = (&*cells, &*completed);
    let (payloads, _) = steal::run_wave(
        wave,
        steal::workers(),
        |item| cells[item.cell].is_heavy_item(item),
        |_, item| cells[item.cell].run_item(item, done),
    );
    completed.extend(wave.iter().map(|i| i.id).zip(payloads));
    let refine = wave.iter().any(|i| i.kind == ItemKind::Refine);
    perf.push_stage(if refine { "period_search" } else { "policy_sims" }, t_stage);
}

/// The crate's one wave loop: drain `pending` (the items of `cells` not
/// yet in `completed`, in id order) wave by wave, with `store` writing
/// between waves when attached. Each wave's stages land on the perf of
/// the cell it ran (`perfs[cell]`). A cell drops its traces and roster
/// once it has no pending item; with `release`, so do the shared caches
/// ([`release_unread`]). `Ok(false)`: the stop hook fired.
///
/// # Errors
/// The store's write failures; a run without a store never fails.
pub(crate) fn run_waves(
    cells: &mut [CellCtx<'_>],
    pending: &[WorkItem],
    completed: &mut BTreeMap<u64, ItemPayload>,
    mut store: Option<&mut Store<'_>>,
    release: bool,
    perfs: &mut [PipelinePerf],
) -> Result<bool, Error> {
    let mut left = vec![0usize; cells.len()];
    for item in pending {
        left[item.cell] += 1;
    }
    let dists: Vec<Option<DistId>> =
        cells.iter().map(|c| c.built.map(|b| DistId::of(b.dist.as_ref()))).collect();
    for wave in waves(pending, store.is_some()) {
        if let Some(store) = store.as_deref_mut() {
            store.begin_wave(wave);
        }
        drain(cells, wave, completed, &mut perfs[wave[0].cell]);
        for item in wave {
            left[item.cell] -= 1;
            if left[item.cell] == 0 {
                cells[item.cell].ready = None;
                if release {
                    release_unread(cells, &left, &dists, item.cell);
                }
            }
        }
        if let Some(store) = store.as_deref_mut() {
            if !store.end_wave(wave, completed)? {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Cell `done` has no pending item: drop its trace stream from the
/// [`TraceCache`], and its distribution's plans and kernel rows from the
/// [`DpCaches`], unless a cell with a pending item reads them. Pending
/// readers are counted, not cell positions, so a resume whose other
/// readers committed before the kill releases too.
fn release_unread(cells: &[CellCtx<'_>], left: &[usize], dists: &[Option<DistId>], done: usize) {
    let pending = || (0..cells.len()).filter(|&c| left[c] > 0);
    let stream = StreamKey::of(cells[done].scenario);
    if !pending().any(|c| StreamKey::of(cells[c].scenario) == stream) {
        TraceCache::global().release(&stream);
    }
    if let Some(dist) = dists[done].filter(|&d| !pending().any(|c| dists[c] == Some(d))) {
        DpCaches::global().release(dist);
    }
}

/// Execute one cell in memory: `run_waves` over its plan's items with
/// no store attached, then the fold. The roster, lower-bound and coarse
/// items form one wave (the `policy_sims` stage); the refine item, which
/// depends on the coarse columns, is the second (the `period_search`
/// stage). Pushes those stages and `trace_gen` onto `perf`, plus the
/// fold's work counters. The cell's traces stay cached for a later call.
pub fn execute(
    scenario: &Scenario,
    built: &BuiltDist,
    sim_plan: &SimPlan,
    perf: &mut PipelinePerf,
) -> ExecOutput {
    let items = sim_plan.items(0, 0);
    let mut cells = [CellCtx::new(scenario, sim_plan, Some(built), &items)];
    let mut completed = BTreeMap::new();
    let perfs = std::slice::from_mut(perf);
    if let Err(e) = run_waves(&mut cells, &items, &mut completed, None, false, perfs) {
        unreachable!("a run without a store has nothing to fail: {e}");
    }
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
    use crate::runner::RunnerOptions;
    use crate::scenario::DistSpec;
    use crate::steal::tests::at_workers;
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
        let mut perf = PipelinePerf::default();
        let out = at_workers(8, || execute(&sc, &built, &sim_plan, &mut perf));
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
            lower_bound: true,
            sim: SimOptions::default(),
        };
        let kinds = [PolicyKind::Young, PolicyKind::OptExp];
        let sim_plan = plan_scenario(&sc, &kinds, &opts);
        let built = sc.dist.build();

        let run_at = |workers: usize| {
            at_workers(workers, || {
                let mut perf = PipelinePerf::default();
                let out = execute(&sc, &built, &sim_plan, &mut perf);
                (out, perf)
            })
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
        // Work counters are schedule-independent.
        assert_eq!(perf_seq.policy_sims, perf_par.policy_sims);
        assert_eq!(perf_seq.candidate_sims, perf_par.candidate_sims);
        assert_eq!(perf_seq.decisions, perf_par.decisions);
        assert_eq!(perf_seq.failures, perf_par.failures);
    }

    /// `execute` drains without releasing: the cell's trace streams
    /// stay in the shared cache after each call, for a later one.
    #[test]
    fn execute_leaves_the_cells_traces_cached() {
        let mut sc = tiny();
        sc.label = "execute-keeps-traces-cell".into();
        let opts = RunnerOptions { period_lb: None, lower_bound: false, ..Default::default() };
        let sim_plan = plan_scenario(&sc, &[PolicyKind::Young], &opts);
        let built = sc.dist.build();
        let cache = TraceCache::global();
        for _ in 0..2 {
            execute(&sc, &built, &sim_plan, &mut PipelinePerf::default());
            assert_eq!(cache.streams_of(&sc.label), sc.traces, "one stream per trace");
        }
        cache.release(&StreamKey::of(&sc));
        assert_eq!(cache.streams_of(&sc.label), 0);
    }

    #[test]
    fn waves_end_at_cells_and_refine_items_and_at_chunks_only_with_a_store() {
        let mk = |id: u64, cell, kind| WorkItem { id, cell, kind, trace_lo: 0, trace_hi: 1 };
        // Cell 0: nine coarse items then its refine item; cell 1: three
        // coarse items then its refine item.
        let items: Vec<WorkItem> = (0..14u64)
            .map(|i| match i {
                9 | 13 => mk(i, usize::from(i == 13), ItemKind::Refine),
                _ => mk(i, usize::from(i > 9), ItemKind::Coarse { candidate: i as usize }),
            })
            .collect();
        let ids = |store| -> Vec<Vec<u64>> {
            waves(&items, store).map(|w| w.iter().map(|i| i.id).collect()).collect()
        };
        assert_eq!(ids(false), [(0..9).collect(), vec![9], vec![10, 11, 12], vec![13]]);
        assert_eq!(ids(true), [(0..8).collect(), vec![8], vec![9], vec![10, 11, 12], vec![13]]);
        // A resume's pending items skip ids; a wave still stays in one cell.
        let pending = [items[3], items[11], items[13]];
        let cut: Vec<usize> = waves(&pending, true).map(<[WorkItem]>::len).collect();
        assert_eq!(cut, [1, 1, 1]);
        assert_eq!(waves(&[], false).count(), 0);
    }
}
