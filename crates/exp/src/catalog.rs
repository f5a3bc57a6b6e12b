//! The registry of named studies: one entry per table and figure of the
//! paper, plus the pinned `golden` cells and the `bench` cell.
//!
//! Each [`Artefact`] holds the cells it simulates, as [`StudyCell`]s
//! with stems unique within the study, and a renderer that turns their
//! results, in cell order, into the files the paper presents: markdown
//! tables, CSV series and gnuplot scripts. [`def`] joins the cells of
//! one or more artefacts into one [`StudyDef`], which either study entry
//! runs — [`run_in_memory`](crate::checkpoint::run_in_memory), or
//! [`run_study`](crate::checkpoint::run_study) with the checkpoint store
//! attached — through the same loop and fold; [`render`] turns the
//! results back into each artefact's files, the same bytes either way.
//! `paper` is the union of the paper's artefacts.

use crate::checkpoint::{StudyCell, StudyDef};
use crate::output::{csv_series, markdown_table, CSV_HEADER};
use crate::plot::{degradation_figure_script, fig1_script};
use crate::policies_spec::PolicyKind;
use crate::runner::{RunnerOptions, ScenarioResult};
use crate::scenario::{DistSpec, Scenario};
use ckpt_dist::Weibull;
use ckpt_workload::{OverheadModel, ParallelismModel, DAY, HOUR, JAGUAR_PROCS, WEEK, YEAR};

/// A rendered output file: `(file name, contents)`.
pub type File = (String, String);

/// What an invocation may vary. Only `traces` reaches every study; the
/// rest are the flags of `fig2`/`fig4`, `matrix` and `fig98`/`fig99`.
#[derive(Debug, Clone)]
pub struct Params {
    /// Traces per cell; `None` keeps the study's own count (600, the
    /// paper's, for its artefacts; 12 for `bench`). The golden cells pin
    /// their own counts.
    pub traces: Option<usize>,
    /// Per-processor MTBF in years of `fig2`, `fig4` and `matrix`.
    pub mtbf_years: f64,
    /// `matrix`: the application profile.
    pub parallelism: ParallelismModel,
    /// `matrix`: checkpoint cost `600 s · ptotal / p` instead of 600 s.
    pub proportional_overhead: bool,
    /// `matrix`: Weibull (k = 0.7) instead of Exponential failures.
    pub weibull: bool,
    /// `matrix`: the Exascale platform instead of Petascale.
    pub exa: bool,
    /// `matrix`: enrolled processors.
    pub procs: u64,
    /// `fig98`/`fig99`: the profiled policy (default OptExp for
    /// `fig98`, DPNextFailure for `fig99`).
    pub policy: Option<PolicyKind>,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            traces: None,
            mtbf_years: 125.0,
            parallelism: ParallelismModel::EmbarrassinglyParallel,
            proportional_overhead: false,
            weibull: false,
            exa: false,
            procs: JAGUAR_PROCS,
            policy: None,
        }
    }
}

impl Params {
    /// Traces per cell of a paper artefact.
    fn paper_traces(&self) -> usize {
        self.traces.unwrap_or(600)
    }
}

/// One named study: its cells and the renderer of their results.
pub struct Artefact {
    /// The study's name, as `ckpt-exp <name>` and `run --study <name>`
    /// take it.
    pub name: &'static str,
    /// One line for the usage text.
    pub about: &'static str,
    /// Part of `paper`, the union of the paper's artefacts.
    pub in_paper: bool,
    cells: Cells,
    render: Render,
}

impl Artefact {
    /// The cells this study simulates, in commit order.
    pub fn cells(&self, params: &Params) -> Vec<StudyCell> {
        (self.cells)(self.name, params)
    }

    /// Render this study's results, one per cell in cell order.
    pub fn render(&self, results: &[ScenarioResult]) -> Vec<File> {
        (self.render)(self.name, results)
    }
}

type Cells = fn(&str, &Params) -> Vec<StudyCell>;
type Render = fn(&str, &[ScenarioResult]) -> Vec<File>;

/// An artefact of the paper, part of `paper`.
const fn paper(name: &'static str, about: &'static str, cells: Cells, render: Render) -> Artefact {
    Artefact { name, about, in_paper: true, cells, render }
}

/// A study outside `paper`.
const fn extra(name: &'static str, about: &'static str, cells: Cells, render: Render) -> Artefact {
    Artefact { name, about, in_paper: false, cells, render }
}

/// Every named study but `paper`, in usage order.
pub const STUDIES: &[Artefact] = &[
    paper("fig1", "platform MTBF vs p, both rejuvenation options (analytic)",
        |_, _| Vec::new(), render_fig1),
    paper("table2", "1 proc, Exponential, MTBF 1 h / 1 d / 1 w",
        |n, p| single_processor_cells(n, false, p), render_table23),
    paper("table3", "1 proc, Weibull k=0.7, MTBF 1 h / 1 d / 1 w",
        |n, p| single_processor_cells(n, true, p), render_table23),
    paper("table4", "Jaguar (p=45208) Weibull cell with std",
        |n, p| vec![jaguar_cell(n, 0.7, p)], render_table),
    paper("fig2", "Petascale Exponential, degradation vs p",
        |n, p| scaling_cells(n, false, false, p), render_scaling),
    paper("fig3", "Exascale Exponential, degradation vs p",
        |n, p| scaling_cells(n, false, true, p), render_scaling),
    paper("fig4", "Petascale Weibull, degradation vs p",
        |n, p| scaling_cells(n, true, false, p), render_scaling),
    paper("fig5", "Weibull shape sweep k = 0.1..1 at p=45208",
        |n, p| fig5_shapes().map(|k| jaguar_cell(n, k, p)).collect(), render_fig5),
    paper("fig6", "Exascale Weibull, degradation vs p",
        |n, p| scaling_cells(n, true, true, p), render_scaling),
    paper("fig7", "log-based failures, LANL cluster 19",
        |n, p| logbased_cells(n, &[19], p), render_scaling),
    paper("fig8", "1 proc period sweep, Exponential",
        |n, p| period_sweep_cells(n, false, p), render_table),
    paper("fig9", "1 proc period sweep, Weibull",
        |n, p| period_sweep_cells(n, true, p), render_table),
    paper("fig98", "makespan per application profile, OptExp (--policy NAME)",
        |n, p| profile_cells(n, false, p), render_profiles),
    paper("fig99", "makespan per application profile, DPNextFailure (--policy NAME)",
        |n, p| profile_cells(n, true, p), render_profiles),
    paper("fig100", "log-based failures, LANL clusters 18 and 19",
        |n, p| logbased_cells(n, &[18, 19], p), render_fig100),
    extra("matrix", "one Appendix-B cell (matrix flags)", matrix_cells, render_table),
    extra("golden", "the cells pinned by results/golden/ (renders nothing)",
        golden_cells, |_, _| Vec::new()),
    extra("bench", "the Petascale bench cell, 12 traces by default (renders nothing)",
        bench_cells, |_, _| Vec::new()),
];

/// The name of the union of every artefact with [`Artefact::in_paper`].
pub const PAPER: &str = "paper";

/// Every registered name with its usage line, `paper` last.
pub fn entries() -> impl Iterator<Item = (&'static str, &'static str)> {
    let paper = (PAPER, "every table and figure above, one at a time");
    STUDIES.iter().map(|a| (a.name, a.about)).chain([paper])
}

/// Every registered name, `paper` last.
pub fn names() -> impl Iterator<Item = &'static str> {
    entries().map(|(name, _)| name)
}

/// The artefacts a name stands for: one, or every paper artefact for
/// `paper`.
///
/// # Errors
/// An unknown name, with every registered name listed.
pub fn lookup(name: &str) -> Result<Vec<&'static Artefact>, String> {
    if name == PAPER {
        return Ok(STUDIES.iter().filter(|a| a.in_paper).collect());
    }
    match STUDIES.iter().find(|a| a.name == name) {
        Some(a) => Ok(vec![a]),
        None => Err(format!(
            "unknown study `{name}`; known: {}",
            names().collect::<Vec<_>>().join(", ")
        )),
    }
}

/// The durable study of `parts`: their cells, concatenated in order.
pub fn def(id: impl Into<String>, parts: &[&Artefact], params: &Params) -> StudyDef {
    StudyDef { id: id.into(), cells: parts.iter().flat_map(|a| a.cells(params)).collect() }
}

/// Render the results of [`def`]`(_, parts, params)`, one per cell in
/// cell order, part by part.
pub fn render(parts: &[&Artefact], params: &Params, results: &[ScenarioResult]) -> Vec<File> {
    let mut rest = results;
    let mut files = Vec::new();
    for a in parts {
        let (mine, tail) = rest.split_at(a.cells(params).len());
        files.extend(a.render(mine));
        rest = tail;
    }
    files
}

// ---------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------

/// Petascale processor counts of Figures 2/4 and 98/99: powers of two
/// from 2^10 plus the full Jaguar platform.
const PETASCALE_PROCS: [u64; 7] = [1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, JAGUAR_PROCS];

/// Log-based processor counts of Figures 7/100.
const LOGBASED_PROCS: [u64; 4] = [1 << 12, 1 << 13, 1 << 14, 1 << 15];

/// Single-processor MTBFs of Tables 2/3, with their headings.
const SINGLE_PROCESSOR_MTBFS: [(&str, f64); 3] = [("1 hour", HOUR), ("1 day", DAY), ("1 week", WEEK)];

/// Weibull shapes of Figure 5: 0.1, 0.2, …, 1.0.
fn fig5_shapes() -> impl Iterator<Item = f64> {
    (1..=10).map(|i| f64::from(i) / 10.0)
}

/// Exponential, or Weibull with the paper's shape 0.7.
fn failures(weibull: bool, mtbf: f64) -> DistSpec {
    if weibull {
        DistSpec::Weibull { shape: 0.7, mtbf }
    } else {
        DistSpec::Exponential { mtbf }
    }
}

/// A cell of artefact `name` under default runner options. The stem
/// carries the artefact's name, the scenario label (the seed root, which
/// omits `p`) and `p`, so it is unique within the artefact and across
/// `paper`.
fn cell(name: &str, scenario: Scenario, kinds: Vec<PolicyKind>) -> StudyCell {
    let stem = format!("{name}-{}-p{}", scenario.label, scenario.procs);
    StudyCell { stem, scenario, kinds, options: RunnerOptions::default() }
}

/// A Petascale or (`exa`) Exascale cell.
fn platform(exa: bool, dist: DistSpec, procs: u64, traces: usize) -> Scenario {
    if exa {
        Scenario::exascale(dist, procs, traces)
    } else {
        Scenario::petascale(dist, procs, traces)
    }
}

/// Tables 2/3: one processor, three MTBFs.
fn single_processor_cells(name: &str, weibull: bool, p: &Params) -> Vec<StudyCell> {
    SINGLE_PROCESSOR_MTBFS
        .iter()
        .map(|&(_, mtbf)| {
            let sc = Scenario::single_processor(failures(weibull, mtbf), p.paper_traces());
            cell(name, sc, PolicyKind::paper_roster(true))
        })
        .collect()
}

/// Figures 2/3 (Exponential) and 4/6 (Weibull): degradation vs `p`. The
/// Exascale platform has MTBF 1250 y and W = 10 000 y. DPMakespan runs
/// for Exponential failures only, as in the paper.
fn scaling_cells(name: &str, weibull: bool, exa: bool, p: &Params) -> Vec<StudyCell> {
    let procs: Vec<u64> = if exa { (14..=20).map(|e| 1 << e).collect() } else { PETASCALE_PROCS.to_vec() };
    let years = if exa { 1_250.0 } else { p.mtbf_years };
    procs
        .into_iter()
        .map(|procs| {
            let sc = platform(exa, failures(weibull, years * YEAR), procs, p.paper_traces());
            cell(name, sc, PolicyKind::paper_roster(!weibull))
        })
        .collect()
}

/// The full Jaguar platform under Weibull failures of shape `k` (Table 4,
/// Figure 5).
fn jaguar_cell(name: &str, k: f64, p: &Params) -> StudyCell {
    let dist = DistSpec::Weibull { shape: k, mtbf: 125.0 * YEAR };
    let sc = Scenario::petascale(dist, JAGUAR_PROCS, p.paper_traces());
    cell(name, sc, PolicyKind::paper_roster(false))
}

/// Figures 7/100: log-based failures from the synthetic LANL clusters.
fn logbased_cells(name: &str, clusters: &[u32], p: &Params) -> Vec<StudyCell> {
    clusters
        .iter()
        .flat_map(|&cluster| {
            LOGBASED_PROCS.map(|procs| {
                let sc = Scenario::petascale(DistSpec::LanlLog { cluster }, procs, p.paper_traces());
                cell(name, sc, PolicyKind::log_based_roster())
            })
        })
        .collect()
}

/// Figures 8/9 (Appendix A): one processor at MTBF 1 day, the roster
/// plus `OptExp × 2^(j/2)` for `j ∈ [−8, 8]`.
fn period_sweep_cells(name: &str, weibull: bool, p: &Params) -> Vec<StudyCell> {
    let sc = Scenario::single_processor(failures(weibull, DAY), p.paper_traces());
    let mut kinds = PolicyKind::paper_roster(true);
    kinds.extend((-8..=8).map(|j| PolicyKind::OptExpScaled(2f64.powf(f64::from(j) / 2.0))));
    vec![cell(name, sc, kinds)]
}

/// Figures 98/99 (Appendix D): mean makespan vs `p` per application
/// profile for one policy, without LowerBound or PeriodLB.
fn profile_cells(name: &str, weibull: bool, p: &Params) -> Vec<StudyCell> {
    let kind = p.policy.clone().unwrap_or_else(|| {
        if weibull {
            PolicyKind::DpNextFailure(Default::default())
        } else {
            PolicyKind::OptExp
        }
    });
    let mtbf = if weibull { 1_250.0 * YEAR } else { 125.0 * YEAR };
    let options = RunnerOptions { lower_bound: false, period_lb: None, ..Default::default() };
    ParallelismModel::paper_suite()
        .into_iter()
        .flat_map(|model| PETASCALE_PROCS.map(move |procs| (model, procs)))
        .map(|(model, procs)| {
            let mut sc = Scenario::petascale(failures(weibull, mtbf), procs, p.paper_traces());
            sc.parallelism = model;
            sc.label = format!("{}-{}", sc.label, model.label());
            StudyCell { options: options.clone(), ..cell(name, sc, vec![kind.clone()]) }
        })
        .collect()
}

/// Appendix B/C: one cell of `{parallelism} × {overhead} × {MTBF}` on
/// the chosen platform.
fn matrix_cells(name: &str, p: &Params) -> Vec<StudyCell> {
    let mut sc = platform(p.exa, failures(p.weibull, p.mtbf_years * YEAR), p.procs, p.paper_traces());
    sc.parallelism = p.parallelism;
    if p.proportional_overhead {
        let ptotal = if p.exa { 1 << 20 } else { JAGUAR_PROCS };
        sc.overhead = OverheadModel::Proportional { seconds_at_full: 600.0, ptotal };
    }
    sc.label = format!("{}-{}-{}", sc.label, sc.parallelism.label(), sc.overhead.label());
    vec![cell(name, sc, PolicyKind::paper_roster(!p.weibull))]
}

/// The golden cells, stemmed by label as `results/golden/` names them.
fn golden_cells(_: &str, _: &Params) -> Vec<StudyCell> {
    let cells = crate::golden::golden_cells().into_iter();
    cells.map(|(stem, scenario, kinds, options)| StudyCell { stem, scenario, kinds, options }).collect()
}

/// A 256-processor Petascale Weibull cell.
fn bench_cells(name: &str, p: &Params) -> Vec<StudyCell> {
    let dist = DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * YEAR };
    let sc = Scenario::petascale(dist, 1 << 8, p.traces.unwrap_or(12));
    StudyDef::new(name, [(sc, PolicyKind::paper_roster(false), RunnerOptions::default())]).cells
}

// ---------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------

fn render_fig1(_: &str, _: &[ScenarioResult]) -> Vec<File> {
    let w = Weibull::from_mtbf(0.7, 125.0 * YEAR);
    let mut csv = String::from("p,mtbf_rejuvenate_all_s,mtbf_failed_only_s\n");
    for (p, all, failed) in ckpt_platform::mtbf::figure1_series(&w, 60.0, 4, 22) {
        csv.push_str(&format!("{p},{all:.3},{failed:.3}\n"));
    }
    vec![("fig1.csv".into(), csv), ("fig1.gp".into(), fig1_script("fig1.csv", "fig1.png"))]
}

/// Tables 2/3: one markdown table per MTBF under its heading.
fn render_table23(name: &str, results: &[ScenarioResult]) -> Vec<File> {
    let mut md = String::new();
    for ((label, _), r) in SINGLE_PROCESSOR_MTBFS.iter().zip(results) {
        md.push_str(&format!("## MTBF = {label}\n\n{}\n", markdown_table(r)));
    }
    vec![(format!("{name}.md"), md)]
}

/// Table 4, Figures 8/9 and the matrix cell: one markdown table.
fn render_table(name: &str, results: &[ScenarioResult]) -> Vec<File> {
    results.iter().map(|r| (format!("{name}.md"), markdown_table(r))).collect()
}

/// A degradation CSV with `x = p`.
fn series_csv(results: &[ScenarioResult]) -> String {
    let mut csv = String::from(CSV_HEADER);
    for r in results {
        csv.push_str(&csv_series(r.procs as f64, r));
    }
    csv
}

/// Figures 2/3/4/6/7: the degradation CSV and its gnuplot script.
fn render_scaling(name: &str, results: &[ScenarioResult]) -> Vec<File> {
    let title = match name {
        "fig7" => "Figure 7 — log-based failures (LANL 19)".to_string(),
        _ => format!("Figure {} — degradation vs processors", &name[3..]),
    };
    let (csv, png) = (format!("{name}.csv"), format!("{name}.png"));
    let gp = degradation_figure_script(&title, "number of processors", &csv, &png, true);
    vec![(csv, series_csv(results)), (format!("{name}.gp"), gp)]
}

/// Figure 5: the degradation CSV with `x = k`.
fn render_fig5(_: &str, results: &[ScenarioResult]) -> Vec<File> {
    let mut csv = String::from(CSV_HEADER);
    for (k, r) in fig5_shapes().zip(results) {
        csv.push_str(&csv_series(k, r));
    }
    vec![("fig5.csv".into(), csv)]
}

/// Figure 100: one degradation CSV per cluster.
fn render_fig100(_: &str, results: &[ScenarioResult]) -> Vec<File> {
    [18, 19]
        .iter()
        .zip(results.chunks(LOGBASED_PROCS.len()))
        .map(|(cluster, rows)| (format!("fig100-cluster{cluster}.csv"), series_csv(rows)))
        .collect()
}

/// Figures 98/99: mean makespan in days per profile and `p`.
fn render_profiles(name: &str, results: &[ScenarioResult]) -> Vec<File> {
    let mut csv = String::from("model,p,mean_makespan_days\n");
    let points = ParallelismModel::paper_suite()
        .into_iter()
        .flat_map(|model| PETASCALE_PROCS.map(move |procs| (model, procs)));
    for ((model, procs), r) in points.zip(results) {
        let mk = r.outcomes.first().and_then(|o| o.mean_makespan).unwrap_or(f64::NAN);
        csv.push_str(&format!("{},{procs},{:.3}\n", model.label(), mk / DAY));
    }
    vec![(format!("{name}.csv"), csv)]
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn every_study() -> impl Iterator<Item = (&'static str, Vec<&'static Artefact>)> {
        names().map(|name| (name, lookup(name).expect("registered")))
    }

    #[test]
    fn every_study_has_unique_stems() {
        for (name, parts) in every_study() {
            let mut stems: Vec<String> = def(name, &parts, &Params::default()).cells.into_iter().map(|c| c.stem).collect();
            let total = stems.len();
            stems.sort_unstable();
            stems.dedup();
            assert_eq!(stems.len(), total, "{name} repeats a stem");
        }
    }

    #[test]
    fn renderers_write_the_commands_file_sets() {
        let expected = |name: &str| -> Vec<String> {
            let files: &[&str] = match name {
                "fig1" | "fig2" | "fig3" | "fig4" | "fig6" | "fig7" => &[".csv", ".gp"],
                "fig5" | "fig98" | "fig99" => &[".csv"],
                "fig100" => &["-cluster18.csv", "-cluster19.csv"],
                "table2" | "table3" | "table4" | "fig8" | "fig9" | "matrix" => &[".md"],
                "golden" | "bench" => &[],
                other => panic!("no expected file set for {other}"),
            };
            files.iter().map(|f| format!("{name}{f}")).collect()
        };
        let params = Params { traces: Some(2), ..Params::default() };
        for (name, parts) in every_study() {
            // Renderers only lay results out: one placeholder per cell.
            let results: Vec<ScenarioResult> = def(name, &parts, &params)
                .cells
                .iter()
                .map(|c| ScenarioResult {
                    label: c.scenario.label.clone(),
                    procs: c.scenario.procs,
                    traces: c.scenario.traces,
                    outcomes: Vec::new(),
                    period_lb_factor: None,
                    perf: crate::perf::PipelinePerf::default(),
                })
                .collect();
            let files: Vec<String> = render(&parts, &params, &results).into_iter().map(|(f, _)| f).collect();
            assert_eq!(files, parts.iter().flat_map(|a| expected(a.name)).collect::<Vec<_>>(), "{name}");
        }
    }

    #[test]
    fn paper_is_the_union_of_the_tables_and_figures() {
        let paper: Vec<&str> = lookup(PAPER).unwrap().iter().map(|a| a.name).collect();
        assert_eq!(paper.len(), 15);
        for name in ["fig1", "table2", "table3", "table4", "fig5", "fig99", "fig100"] {
            assert!(paper.contains(&name), "{name}");
        }
        for name in ["matrix", "golden", "bench"] {
            assert!(!paper.contains(&name), "{name}");
        }
        let params = Params { traces: Some(1), ..Params::default() };
        let union = def("paper", &lookup(PAPER).unwrap(), &params).cells.len();
        let parts: usize = paper.iter().map(|n| lookup(n).unwrap()[0].cells(&params).len()).sum();
        assert_eq!(union, parts);
    }

    #[test]
    fn lookup_refuses_unknown_names_listing_every_registered_one() {
        let err = lookup("report").err().expect("report is gone");
        let known = names().collect::<Vec<_>>().join(", ");
        assert_eq!(err, format!("unknown study `report`; known: {known}"));
        assert!(known.ends_with("bench, paper"), "{known}");
    }

    #[test]
    fn traces_reach_every_paper_cell_and_default_to_the_papers_600() {
        for a in STUDIES.iter().filter(|a| a.in_paper) {
            for (traces, want) in [(None, 600), (Some(3), 3)] {
                let params = Params { traces, ..Params::default() };
                assert!(a.cells(&params).iter().all(|c| c.scenario.traces == want), "{}", a.name);
            }
        }
        let bench = |traces| lookup("bench").unwrap()[0].cells(&Params { traces, ..Params::default() });
        assert_eq!(bench(None)[0].scenario.traces, 12);
        assert_eq!(bench(Some(5))[0].scenario.traces, 5);
    }

    #[test]
    fn golden_study_stems_name_the_committed_golden_files() {
        // `run --study golden` writes `aggregate/<stem>.json`, which
        // check.sh byte-compares with `results/golden/<stem>.json`.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden");
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        let mut stems: Vec<String> =
            lookup("golden").unwrap()[0].cells(&Params::default()).into_iter().map(|c| c.stem + ".json").collect();
        stems.sort();
        assert_eq!(stems, files);
    }
}
