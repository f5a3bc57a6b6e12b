//! The benchmark's workloads: fixed paper cells whose trace seed root
//! (the scenario label) is mixed with the run's `--seed`.

use ckpt_exp::checkpoint::StudyDef;
use ckpt_exp::policies_spec::PolicyKind;
use ckpt_exp::runner::RunnerOptions;
use ckpt_exp::scenario::{DistSpec, Scenario};
use ckpt_exp::Study;
use ckpt_workload::{WEEK, YEAR};

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["peta-weibull", "seq-weibull", "exa-exp-study"];

/// One workload, fully built: the cells, the study that runs them and
/// how (worker count, in memory or through the checkpoint store).
pub struct Workload {
    pub name: String,
    /// Executor workers (`steal::set_workers`).
    pub workers: usize,
    pub cells: Vec<Scenario>,
    pub options: RunnerOptions,
    pub study: Study,
    /// `true`: run through `run_study` with a fresh store;
    /// `false`: in memory through `Study::run_all`.
    pub store: bool,
}

impl Workload {
    /// Build the workload `name` at `seed`.
    pub fn build(name: &str, seed: u64) -> Result<Self, String> {
        let (workers, store, kinds, options, mut cells) = match name {
            // Figure 4 cells: Petascale, Weibull k = 0.7, MTBF 125 y.
            "peta-weibull" => {
                let dist = DistSpec::Weibull {
                    shape: 0.7,
                    mtbf: 125.0 * YEAR,
                };
                let cells = [1u64 << 12, 1 << 15, 45_208]
                    .map(|p| Scenario::petascale(dist.clone(), p, 24))
                    .to_vec();
                let kinds = Some(PolicyKind::paper_roster(false));
                (
                    1,
                    false,
                    kinds,
                    RunnerOptions::default_with_paper_grid(),
                    cells,
                )
            }
            // The 1-week cell of Table 3: one processor, Weibull k = 0.7.
            "seq-weibull" => {
                let dist = DistSpec::Weibull {
                    shape: 0.7,
                    mtbf: WEEK,
                };
                let cells = vec![Scenario::single_processor(dist, 600)];
                let kinds = Some(PolicyKind::paper_roster(true));
                (2, false, kinds, RunnerOptions::default(), cells)
            }
            // Figure 3 cells: Exascale, Exponential, MTBF 1250 y, with the
            // default study roster (memoryless DPMakespan included).
            "exa-exp-study" => {
                let dist = DistSpec::Exponential {
                    mtbf: 1_250.0 * YEAR,
                };
                let cells = [1u64 << 16, 1 << 18, 1 << 20]
                    .map(|p| Scenario::exascale(dist.clone(), p, 24))
                    .to_vec();
                (2, true, None, RunnerOptions::default(), cells)
            }
            other => {
                return Err(format!(
                    "unknown workload {other:?}; known: {}",
                    NAMES.join(", ")
                ))
            }
        };
        for sc in &mut cells {
            // The label is the trace seed root; it never encodes `p`,
            // so the cells of one run keep sharing trace prefixes.
            sc.label = format!("{}-seed{seed}", sc.label);
        }
        let mut study = Study::new().with_options(options.clone());
        if let Some(kinds) = kinds {
            study = study.with_kinds(kinds);
        }
        Ok(Self {
            name: name.to_string(),
            workers,
            cells,
            options,
            study,
            store,
        })
    }

    /// The study definition `run_study` takes (one cell per scenario).
    pub fn def(&self) -> StudyDef {
        self.study.to_def(self.name.clone(), &self.cells)
    }

    /// Row names each cell must report: `LowerBound`, `PeriodLB` and the
    /// roster, in the runner's order.
    pub fn expected_rows(&self, cell: &Scenario) -> Vec<String> {
        let mut rows = Vec::new();
        if self.options.lower_bound {
            rows.push("LowerBound".to_string());
        }
        if self
            .options
            .period_lb
            .as_ref()
            .is_some_and(|g| !g.is_empty())
        {
            rows.push("PeriodLB".to_string());
        }
        rows.extend(self.study.roster_for(cell).iter().map(PolicyKind::name));
        rows
    }

    /// Policy×trace evaluations the input asks for: cells × traces ×
    /// rows. Internal candidate sims of the `PeriodLB` search are not
    /// counted.
    pub fn evals(&self) -> u64 {
        self.cells
            .iter()
            .map(|sc| (sc.traces * self.expected_rows(sc).len()) as u64)
            .sum()
    }
}
