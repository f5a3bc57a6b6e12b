//! Planning layer: a pure `Scenario → SimPlan` function, and the
//! plan's decomposition into [`WorkItem`]s, the only unit of work.
//!
//! A [`SimPlan`] is the complete, typed description of the simulation
//! work one scenario requires — which policies run on which traces,
//! whether the omniscient lower bound is evaluated, and which `PeriodLB`
//! candidates the coarse and refine waves cover. [`SimPlan::items`] cuts it
//! into policy × trace-block items, lower-bound and coarse-candidate
//! blocks, and one refine item; the one wave loop drains them
//! ([`crate::exec`]). Nothing in this module generates traces, builds
//! policies, or simulates. Because every item is identified by stable
//! indices and trace seeds derive from the scenario label and trace
//! index alone, a plan is **seed-stable**: executing it with any worker
//! count, in any item order, yields bit-identical results. The one
//! dependency is the refine item: its window is a pure function of the
//! coarse incumbent ([`SimPlan::refine_window`]).
//!
//! [`SimTask`], [`SimPlan::roster_wave`] and [`SimPlan::candidate_wave`]
//! are the older per-simulation decomposition, kept for external
//! callers.

use crate::policies_spec::PolicyKind;
use crate::runner::RunnerOptions;
use crate::scenario::Scenario;
use ckpt_sim::SimOptions;

/// One deterministic unit of simulation work. All variants are
/// identified by indices into the owning [`SimPlan`], so tasks are
/// `Copy` and trivially shippable across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimTask {
    /// Run roster policy `policy` on trace `trace`.
    Policy {
        /// Index into [`SimPlan::kinds`].
        policy: usize,
        /// Trace index (also the seed-sequence child index).
        trace: usize,
    },
    /// Evaluate the omniscient lower bound on trace `trace`.
    LowerBound {
        /// Trace index.
        trace: usize,
    },
    /// Run `PeriodLB` candidate `candidate` on trace `trace`.
    Candidate {
        /// Index into [`SimPlan::grid`].
        candidate: usize,
        /// Trace index.
        trace: usize,
    },
}

/// Traces per policy, lower-bound and coarse work item, in memory and
/// in every study manifest alike.
pub const TRACE_BLOCK: usize = 4;

/// Stride of `PeriodLB`'s coarse wave over the sorted factor grid.
const COARSE_STEP: usize = 8;

/// Grids up to this size are searched exhaustively in the coarse wave.
const MIN_FULL: usize = 24;

/// One deterministic unit of work, identified entirely by indices (so a
/// persisted payload rebinds to its item across processes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Global item id; items are numbered in plan order.
    pub id: u64,
    /// Index of the item's cell (0 for a single-cell run).
    pub cell: usize,
    /// What the item simulates.
    pub kind: ItemKind,
    /// First trace index covered (inclusive).
    pub trace_lo: usize,
    /// Last trace index covered (exclusive).
    pub trace_hi: usize,
}

/// The simulation kind of a [`WorkItem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// Roster policy `policy` over the item's trace block.
    Policy {
        /// Index into the cell's roster.
        policy: usize,
    },
    /// Omniscient lower bound over the trace block.
    LowerBound,
    /// `PeriodLB` coarse candidate `candidate` over the trace block.
    Coarse {
        /// Index into the cell's factor grid.
        candidate: usize,
    },
    /// The refine wave: depends on every `Coarse` item of its cell
    /// (smaller ids, drained in an earlier wave), fans out over (fresh
    /// candidate × trace) internally.
    Refine,
}

/// The typed, executable description of one scenario's simulation work.
#[derive(Debug, Clone)]
pub struct SimPlan {
    /// Roster policies, in report order.
    pub kinds: Vec<PolicyKind>,
    /// Display names, aligned with `kinds`.
    pub policy_names: Vec<String>,
    /// Number of traces (tasks exist for indices `0..traces`).
    pub traces: usize,
    /// Whether [`SimTask::LowerBound`] tasks are part of the roster wave.
    pub lower_bound: bool,
    /// The `PeriodLB` candidate factor grid, sorted ascending and
    /// deduplicated. Empty ⇒ no period search.
    pub grid: Vec<f64>,
    /// Grid indices of the first candidate wave: the whole grid up to 24
    /// factors; beyond, every 8th factor plus the last one and the one
    /// nearest 1.0. Coarse-to-fine cuts
    /// candidate simulations ~5–8× on the paper's 479-factor grid and is
    /// exact whenever the mean-makespan profile is unimodal at the
    /// coarse resolution.
    pub coarse: Vec<usize>,
    /// `Some(step)` ⇒ a refine wave follows the coarse wave, covering
    /// [`Self::refine_window`] around the coarse incumbent. `None` ⇒ the
    /// coarse wave already covers the whole grid.
    pub refine_step: Option<usize>,
    /// Engine safety options applied to every simulation.
    pub sim: SimOptions,
}

/// Build the [`SimPlan`] for a scenario. Pure: no traces are generated,
/// no policies are instantiated, nothing is simulated.
pub fn plan_scenario(
    scenario: &Scenario,
    kinds: &[PolicyKind],
    options: &RunnerOptions,
) -> SimPlan {
    let grid = options
        .period_lb
        .as_ref()
        .map(|g| dedupe_sorted(g.clone()))
        .unwrap_or_default();
    let (coarse, refine_step) = candidate_waves(&grid);
    SimPlan {
        kinds: kinds.to_vec(),
        policy_names: kinds.iter().map(PolicyKind::name).collect(),
        traces: scenario.traces,
        lower_bound: options.lower_bound,
        grid,
        coarse,
        refine_step,
        sim: options.sim,
    }
}

impl SimPlan {
    /// The plan's work items for cell `cell`, numbered from `first_id`:
    /// each roster policy over every [`TRACE_BLOCK`] of traces, the
    /// lower-bound blocks, each coarse candidate over every block, then
    /// (with a refine wave) one refine item over all traces.
    pub fn items(&self, cell: usize, first_id: u64) -> Vec<WorkItem> {
        let blocks: Vec<(usize, usize)> = (0..self.traces)
            .step_by(TRACE_BLOCK)
            .map(|lo| (lo, (lo + TRACE_BLOCK).min(self.traces)))
            .collect();
        let mut kinds: Vec<ItemKind> =
            (0..self.kinds.len()).map(|policy| ItemKind::Policy { policy }).collect();
        if self.lower_bound {
            kinds.push(ItemKind::LowerBound);
        }
        kinds.extend(self.coarse.iter().map(|&candidate| ItemKind::Coarse { candidate }));
        let mut ranges: Vec<(ItemKind, usize, usize)> = kinds
            .into_iter()
            .flat_map(|kind| blocks.iter().map(move |&(lo, hi)| (kind, lo, hi)))
            .collect();
        if self.refine_step.is_some() && !self.grid.is_empty() {
            ranges.push((ItemKind::Refine, 0, self.traces));
        }
        (first_id..)
            .zip(ranges)
            .map(|(id, (kind, trace_lo, trace_hi))| WorkItem { id, cell, kind, trace_lo, trace_hi })
            .collect()
    }

    /// The first wave: every roster policy sim plus (when enabled) the
    /// lower-bound evals. No prerequisites; tasks are independent.
    pub fn roster_wave(&self) -> Vec<SimTask> {
        let mut tasks =
            Vec::with_capacity(self.traces * (self.kinds.len() + usize::from(self.lower_bound)));
        for trace in 0..self.traces {
            for policy in 0..self.kinds.len() {
                tasks.push(SimTask::Policy { policy, trace });
            }
            if self.lower_bound {
                tasks.push(SimTask::LowerBound { trace });
            }
        }
        tasks
    }

    /// Candidate tasks for a set of grid indices (one per trace).
    pub fn candidate_wave(&self, indices: &[usize]) -> Vec<SimTask> {
        indices
            .iter()
            .flat_map(|&candidate| {
                (0..self.traces).map(move |trace| SimTask::Candidate { candidate, trace })
            })
            .collect()
    }

    /// Grid indices of the refine wave, given the coarse incumbent.
    /// This is the plan's only inter-wave dependency: the window is a
    /// pure function of which coarse candidate won. Returns an empty
    /// range when the plan has no refine wave.
    pub fn refine_window(&self, incumbent: usize) -> std::ops::Range<usize> {
        match self.refine_step {
            None => 0..0,
            Some(step) => {
                // The coarse neighbours bracket the optimum when the mean
                // profile is unimodal at coarse resolution.
                incumbent.saturating_sub(step - 1)..(incumbent + step).min(self.grid.len())
            }
        }
    }
}

/// Coarse-wave indices and refine step for a (sorted, deduped) grid.
/// Pure.
fn candidate_waves(grid: &[f64]) -> (Vec<usize>, Option<usize>) {
    let len = grid.len();
    if len <= MIN_FULL {
        return ((0..len).collect(), None);
    }
    let mut idx: Vec<usize> = (0..len).step_by(COARSE_STEP).collect();
    idx.push(len - 1);
    // Always anchor at the factor nearest 1.0 (OptExp itself).
    if let Some(anchor) = anchor_index(grid) {
        idx.push(anchor);
    }
    idx.sort_unstable();
    idx.dedup();
    (idx, Some(COARSE_STEP))
}

/// Index of the factor nearest 1.0 (OptExp itself) — the coarse wave is
/// always anchored there. Exposed separately because it needs the
/// factor values, not just the grid length.
pub fn anchor_index(grid: &[f64]) -> Option<usize> {
    (0..grid.len()).min_by(|&a, &b| (grid[a] - 1.0).abs().total_cmp(&(grid[b] - 1.0).abs()))
}

/// The winner among evaluated candidates: smallest mean makespan, ties
/// broken toward the smaller factor (deterministic regardless of
/// exploration order). `means[i]` is `None` for unevaluated candidates.
pub fn winner(means: &[Option<f64>]) -> Option<usize> {
    let mut best = None;
    let mut best_mean = f64::INFINITY;
    for (i, mean) in means.iter().enumerate() {
        if let Some(m) = mean {
            if *m < best_mean {
                best_mean = *m;
                best = Some(i);
            }
        }
    }
    best
}

/// Sort ascending and drop duplicates (relative tolerance 1e-9 — the
/// paper's grid reaches the same factor along both of its arms, e.g.
/// `1.1 = 1 + 0.05·2`).
pub(crate) fn dedupe_sorted(mut grid: Vec<f64>) -> Vec<f64> {
    grid.retain(|f| f.is_finite() && *f > 0.0);
    grid.sort_by(f64::total_cmp);
    grid.dedup_by(|a, b| (*a - *b).abs() <= 1e-9 * b.abs());
    grid
}

/// The default `PeriodLB` candidate grid: factors `2^{j/8}` for
/// `j ∈ [−24, 24]` — a coarser but equally wide net than the paper's
/// `(1 ± 0.05i, 1.1^j)` grid (which [`paper_period_grid`] reproduces).
/// Sorted ascending, duplicate-free.
pub fn default_period_grid() -> Vec<f64> {
    dedupe_sorted((-24..=24).map(|j| 2f64.powf(j as f64 / 8.0)).collect())
}

/// The paper's §4.1 grid: `×/÷ (1 + 0.05·i)` for `i ∈ 1..=180` and
/// `×/÷ 1.1^j` for `j ∈ 1..=60`, plus the identity. Sorted ascending
/// with the overlapping factors deduplicated (479 candidates; the raw
/// union counts 481 with `1.1 = 1 + 0.05·2` twice on both arms).
pub fn paper_period_grid() -> Vec<f64> {
    let mut g = vec![1.0];
    for i in 1..=180 {
        let f = 1.0 + 0.05 * i as f64;
        g.push(f);
        g.push(1.0 / f);
    }
    for j in 1..=60 {
        let f = 1.1f64.powi(j);
        g.push(f);
        g.push(1.0 / f);
    }
    dedupe_sorted(g)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::scenario::DistSpec;

    fn tiny() -> Scenario {
        Scenario::single_processor(DistSpec::Exponential { mtbf: 6.0 * 3_600.0 }, 3)
    }

    #[test]
    fn plan_is_pure_and_typed() {
        let sc = tiny();
        let kinds = [PolicyKind::Young, PolicyKind::OptExp];
        let plan = plan_scenario(&sc, &kinds, &RunnerOptions::default());
        assert_eq!(plan.policy_names, ["Young", "OptExp"]);
        assert_eq!(plan.traces, 3);
        // Default grid: 49 factors, coarse-to-fine with step 8.
        assert_eq!(plan.grid.len(), 49);
        assert_eq!(plan.refine_step, Some(8));
        // Roster wave: 2 policies × 3 traces + 3 lower bounds.
        let wave = plan.roster_wave();
        assert_eq!(wave.len(), 9);
        assert_eq!(wave[0], SimTask::Policy { policy: 0, trace: 0 });
        assert_eq!(wave[2], SimTask::LowerBound { trace: 0 });
    }

    #[test]
    fn small_grids_are_searched_exhaustively_under_coarse_to_fine() {
        let sc = tiny();
        let opts = RunnerOptions {
            period_lb: Some(vec![0.5, 1.0, 2.0]),
            ..RunnerOptions::default()
        };
        let plan = plan_scenario(&sc, &[], &opts);
        assert_eq!(plan.coarse, [0, 1, 2]);
        assert_eq!(plan.refine_step, None);
        assert_eq!(plan.refine_window(1), 0..0);
    }

    #[test]
    fn grids_past_24_factors_get_a_refine_wave() {
        let sc = tiny();
        let with_grid = |n: u32| {
            let period_lb = Some((1..=n).map(f64::from).collect());
            plan_scenario(&sc, &[], &RunnerOptions { period_lb, ..RunnerOptions::default() })
        };
        let whole = with_grid(24);
        assert_eq!((whole.coarse.len(), whole.refine_step), (24, None));
        let split = with_grid(25);
        assert_eq!(split.refine_step, Some(8));
        // Every 8th factor, the last one, and 1.0 (index 0) among them.
        assert_eq!(split.coarse, [0, 8, 16, 24]);
    }

    #[test]
    fn coarse_wave_strides_and_includes_last() {
        let sc = tiny();
        let opts = RunnerOptions {
            period_lb: Some(paper_period_grid()),
            ..RunnerOptions::default()
        };
        let plan = plan_scenario(&sc, &[], &opts);
        assert_eq!(plan.grid.len(), 479);
        assert_eq!(plan.coarse.first(), Some(&0));
        assert_eq!(plan.coarse.last(), Some(&478));
        assert!(plan.coarse.len() < 70);
        // Refine window brackets the incumbent between coarse neighbours.
        assert_eq!(plan.refine_window(16), 9..24);
        assert_eq!(plan.refine_window(0), 0..8);
        assert_eq!(plan.refine_window(478), 471..479);
    }

    #[test]
    fn winner_prefers_smallest_mean_then_smallest_index() {
        assert_eq!(winner(&[None, Some(2.0), Some(1.0), Some(1.0)]), Some(2));
        assert_eq!(winner(&[None, None]), None);
        assert_eq!(winner(&[]), None);
    }

    #[test]
    fn anchor_is_nearest_one() {
        assert_eq!(anchor_index(&[0.25, 0.9, 1.2, 4.0]), Some(1));
        assert_eq!(anchor_index(&[]), None);
    }

    #[test]
    fn grids_are_sorted_and_deduped() {
        for grid in [default_period_grid(), paper_period_grid()] {
            for w in grid.windows(2) {
                assert!(w[0] < w[1], "sorted strictly: {} vs {}", w[0], w[1]);
            }
        }
        assert_eq!(paper_period_grid().len(), 479);
        assert!(paper_period_grid().contains(&1.0));
    }

    /// The decomposition the store fingerprints: ids dense from
    /// `first_id`, every kind's blocks tiling `0..traces` in order with
    /// a short last block, and the refine item last over all traces.
    #[test]
    fn items_tile_each_kind_over_the_traces_with_dense_ids() {
        let mut sc = tiny();
        sc.traces = 2 * TRACE_BLOCK + 3;
        let opts = RunnerOptions { lower_bound: true, ..RunnerOptions::default() };
        let plan = plan_scenario(&sc, &[PolicyKind::Young, PolicyKind::OptExp], &opts);
        let items = plan.items(5, 100);
        assert!(items.iter().all(|i| i.cell == 5));
        for (k, item) in items.iter().enumerate() {
            assert_eq!(item.id, 100 + k as u64);
        }
        let last = items.last().expect("items");
        assert_eq!((last.kind, last.trace_lo, last.trace_hi), (ItemKind::Refine, 0, sc.traces));
        let blocked = &items[..items.len() - 1];
        assert_eq!(blocked.len(), (2 + 1 + plan.coarse.len()) * 3, "three blocks per kind");
        for kind in blocked.chunks(3) {
            assert!(kind.iter().all(|i| i.kind == kind[0].kind), "{kind:?}");
            assert_eq!(kind[0].trace_lo, 0);
            assert!(kind.windows(2).all(|w| w[0].trace_hi == w[1].trace_lo), "{kind:?}");
            assert_eq!(kind[2].trace_hi - kind[2].trace_lo, 3);
            assert_eq!(kind[2].trace_hi, sc.traces);
        }
    }
}
