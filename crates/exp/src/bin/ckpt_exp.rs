//! `ckpt-exp` — regenerate any table or figure of the paper.
//!
//! ```text
//! ckpt-exp <experiment> [--traces N] [--out results/] [--threads N]
//!
//! experiments:
//!   fig1      platform MTBF vs p, both rejuvenation options
//!   table2    1 proc, Exponential          table3  1 proc, Weibull k=0.7
//!   fig2      Petascale Exponential        fig3    Exascale Exponential
//!   fig4      Petascale Weibull            fig6    Exascale Weibull
//!   fig5      shape sweep at p=45208       table4  Jaguar Weibull cell
//!   fig7      LANL cluster 19 log          fig100  both LANL clusters
//!   fig8      1-proc period sweep (Exp)    fig9    1-proc period sweep (Weibull)
//!   fig98     makespan profiles, OptExp    fig99   makespan profiles, DPNextFailure
//!             (both accept --policy NAME to profile any policy, case-insensitive)
//!   matrix    one Appendix-B cell: --model ep|amdahl-1e-4|amdahl-1e-6|
//!             kernel-0.1|kernel-1|kernel-10 --overhead const|prop
//!             [--mtbf-years Y] [--weibull] [--exa] [--procs P]
//!   report    quick reproduction report (markdown)
//!   all       every table & figure at the given trace count
//! ```
//!
//! No argument, `help`, `--help` or `-h` prints the usage and exits 0;
//! an unknown experiment, a stray argument or a missing or unparsable
//! flag value prints the error and the usage on stderr and exits 2.
//!
//! Durable studies (checkpointed, kill-safe, resumable):
//!
//! ```text
//! ckpt-exp run --study golden|bench [--id ID] [--resume ID]
//!              [--traces N] [--study-root DIR] [--checkpoint-items N]
//!              [--checkpoint-secs S] [--max-checkpoints N] [--kill-at FRAC]
//!              [--threads N] [--progress]
//! ckpt-exp study ls [--study-root DIR]
//! ckpt-exp study gc [--study-root DIR] [--max-checkpoints N] [--purge ID]
//! ```
//!
//! `run` executes a study through the checkpoint store under
//! `<study-root>/<id>/`, writing a durable manifest plus periodic
//! snapshots; `--resume ID` continues a killed run from its newest
//! snapshot (stale stores are rejected by fingerprint). `--kill-at FRAC`
//! (`0 < FRAC < 1`) stops the run once this process has executed
//! `ceil(FRAC × manifest items)` items, before the snapshot that would
//! cover them, and SIGKILLs the process (for testing the resume path).
//! `--progress` prints live per-kind completion lines on stderr (the
//! store's `progress.json` is written either way). Exit codes: 0 on
//! success, 1 when any cell failed, 2 on bad arguments or store errors
//! (stale fingerprint, bad id), 137 after `--kill-at`.

use ckpt_exp::experiments as ex;
use ckpt_exp::output::{csv_series, markdown_table, CSV_HEADER};
use ckpt_exp::PolicyKind;
use ckpt_workload::{ParallelismModel, DAY, JAGUAR_PROCS};
use std::io::Write as _;
use std::path::PathBuf;

struct Args {
    experiment: String,
    traces: usize,
    out: Option<PathBuf>,
    model: String,
    overhead: String,
    mtbf_years: f64,
    weibull: bool,
    exa: bool,
    procs: u64,
    policy: Option<String>,
    threads: Option<usize>,
}

const USAGE: &str = "usage: ckpt-exp \
<fig1|table2|table3|table4|fig2..fig9|fig98|fig99|fig100|matrix|report|all> \
[--traces N] [--out DIR] [--threads N] [--policy NAME] [matrix flags]
       ckpt-exp run --help
       ckpt-exp study <ls|gc> [--study-root DIR] [--max-checkpoints N] [--purge ID]";

const STUDY_USAGE: &str =
    "usage: ckpt-exp study <ls|gc> [--study-root DIR] [--max-checkpoints N] [--purge ID]";

/// The value following `flag`.
fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<String, String> {
    it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
}

/// The number following `flag`.
fn number<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, String> {
    let v = value(it, flag)?;
    v.parse().map_err(|_| format!("{flag} needs a number, got `{v}`"))
}

/// Parse an experiment's flags; `Ok(None)` when the usage is asked for.
fn parse_args(raw: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        experiment: String::new(),
        traces: 600,
        out: None,
        model: "ep".into(),
        overhead: "const".into(),
        mtbf_years: 125.0,
        weibull: false,
        exa: false,
        procs: JAGUAR_PROCS,
        policy: None,
        threads: None,
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--traces" => args.traces = number(&mut it, "--traces")?,
            "--out" => args.out = Some(PathBuf::from(value(&mut it, "--out")?)),
            "--model" => args.model = value(&mut it, "--model")?,
            "--overhead" => args.overhead = value(&mut it, "--overhead")?,
            "--mtbf-years" => args.mtbf_years = number(&mut it, "--mtbf-years")?,
            "--policy" => args.policy = Some(value(&mut it, "--policy")?),
            "--threads" => args.threads = Some(number(&mut it, "--threads")?),
            "--weibull" => args.weibull = true,
            "--exa" => args.exa = true,
            "--procs" => args.procs = number(&mut it, "--procs")?,
            "help" | "--help" | "-h" => return Ok(None),
            other if other.starts_with('-') => return Err(format!("unknown argument {other}")),
            other if args.experiment.is_empty() => args.experiment = other.to_string(),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if args.experiment.is_empty() {
        return Ok(None);
    }
    Ok(Some(args))
}

fn emit(out: &Option<PathBuf>, name: &str, content: &str) {
    println!("{content}");
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).expect("create output dir");
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path).expect("create output file");
        f.write_all(content.as_bytes()).expect("write output");
        eprintln!("wrote {}", path.display());
    }
}

fn series_output(rows: &[(u64, ckpt_exp::ScenarioResult)]) -> String {
    let mut csv = String::from(CSV_HEADER);
    for (p, r) in rows {
        csv.push_str(&csv_series(*p as f64, r));
    }
    csv
}

fn parallelism_from(label: &str) -> Result<ParallelismModel, String> {
    Ok(match label {
        "ep" => ParallelismModel::EmbarrassinglyParallel,
        "amdahl-1e-4" => ParallelismModel::Amdahl { gamma: 1e-4 },
        "amdahl-1e-6" => ParallelismModel::Amdahl { gamma: 1e-6 },
        "kernel-0.1" => ParallelismModel::NumericalKernel { gamma: 0.1 },
        "kernel-1" => ParallelismModel::NumericalKernel { gamma: 1.0 },
        "kernel-10" => ParallelismModel::NumericalKernel { gamma: 10.0 },
        other => return Err(format!("unknown parallelism model {other}")),
    })
}

/// Arguments of the `run` subcommand (durable studies).
struct RunArgs {
    study: String,
    id: Option<String>,
    resume: Option<String>,
    traces: Option<usize>,
    root: PathBuf,
    checkpoint_items: u64,
    checkpoint_secs: f64,
    max_checkpoints: usize,
    kill_at: Option<f64>,
    threads: Option<usize>,
    progress: bool,
}

/// Parse `--kill-at FRAC`: a fraction strictly between 0 and 1.
fn parse_kill_at(value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(frac) if frac > 0.0 && frac < 1.0 => Ok(frac),
        _ => Err(format!("--kill-at FRAC needs 0 < FRAC < 1, got `{value}`")),
    }
}

/// Items this process executes before `--kill-at FRAC` fires.
fn kill_after_items(frac: f64, total: usize) -> u64 {
    (frac * total as f64).ceil() as u64
}

/// SIGKILL our own process: the real thing, so no destructor, no flush,
/// no final checkpoint runs — exactly the failure the resume path
/// claims to survive.
fn kill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill").args(["-9", &pid]).status();
    // SIGKILL cannot be handled; reaching here means `kill` was
    // unavailable. Abort still skips destructors and exit handlers.
    std::process::abort();
}

const RUN_USAGE: &str = "usage: ckpt-exp run [--study golden|bench] [--id ID | --resume ID] \
[--traces N] [--study-root DIR] [--checkpoint-items N] [--checkpoint-secs S] \
[--max-checkpoints N] [--kill-at FRAC] [--threads N] [--progress]";

/// Parse `run`'s flags; `Ok(None)` when `--help` asks for the usage.
fn parse_run_args(rest: &[String]) -> Result<Option<RunArgs>, String> {
    let mut args = RunArgs {
        study: "golden".into(),
        id: None,
        resume: None,
        traces: None,
        root: PathBuf::from("results/study"),
        checkpoint_items: 64,
        checkpoint_secs: 30.0,
        max_checkpoints: 3,
        kill_at: None,
        threads: None,
        progress: false,
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--study" => args.study = value(&mut it, "--study")?,
            "--id" => args.id = Some(value(&mut it, "--id")?),
            "--resume" => args.resume = Some(value(&mut it, "--resume")?),
            "--traces" => args.traces = Some(number(&mut it, "--traces")?),
            "--study-root" => args.root = PathBuf::from(value(&mut it, "--study-root")?),
            "--checkpoint-items" => args.checkpoint_items = number(&mut it, "--checkpoint-items")?,
            "--checkpoint-secs" => args.checkpoint_secs = number(&mut it, "--checkpoint-secs")?,
            "--max-checkpoints" => args.max_checkpoints = number(&mut it, "--max-checkpoints")?,
            "--kill-at" => args.kill_at = Some(parse_kill_at(&value(&mut it, "--kill-at")?)?),
            "--progress" => args.progress = true,
            "--threads" => args.threads = Some(number(&mut it, "--threads")?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown `run` argument {other}")),
        }
    }
    Ok(Some(args))
}

/// The named studies `run` knows how to build. `golden` is the pinned
/// golden-cell set (fixed trace counts, byte-comparable against
/// `results/golden/`); `bench` is the Petascale bench cell at a chosen
/// trace count.
fn study_def(name: &str, id: &str, traces: Option<usize>) -> ckpt_exp::StudyDef {
    match name {
        "golden" => ckpt_exp::StudyDef::new(
            id,
            ckpt_exp::golden::golden_cells()
                .into_iter()
                .map(|(_, sc, kinds, options)| (sc, kinds, options)),
        ),
        "bench" => {
            let year = 365.25 * 86_400.0;
            let sc = ckpt_exp::Scenario::petascale(
                ckpt_exp::DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * year },
                1 << 8,
                traces.unwrap_or(12),
            );
            let kinds = PolicyKind::paper_roster(false);
            ckpt_exp::StudyDef::new(id, [(sc, kinds, ckpt_exp::RunnerOptions::default())])
        }
        other => {
            eprintln!("unknown study `{other}`; known: golden, bench");
            std::process::exit(2);
        }
    }
}

fn cmd_run(rest: &[String]) -> i32 {
    let args = match parse_run_args(rest) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{RUN_USAGE}");
            return 0;
        }
        Err(e) => {
            eprintln!("{e}\n{RUN_USAGE}");
            return 2;
        }
    };
    if let Some(n) = args.threads {
        ckpt_exp::steal::set_workers(n);
    }
    // Under the `obs` build, record the whole run so the flight
    // recorder has events to dump next to the checkpoint store (a
    // no-op `None` otherwise; results are byte-identical either way).
    let _obs = ckpt_obs::ObsSession::start();
    let id = args
        .resume
        .clone()
        .or_else(|| args.id.clone())
        .unwrap_or_else(|| args.study.clone());
    let def = study_def(&args.study, &id, args.traces);

    let mut config = ckpt_exp::CheckpointConfig {
        root: args.root.clone(),
        interval_items: args.checkpoint_items,
        interval_seconds: args.checkpoint_secs,
        max_checkpoints: args.max_checkpoints,
        golden_dir: Some(PathBuf::from("results/golden")),
        stop_after_items: None,
        progress: args.progress,
    };
    if let Some(frac) = args.kill_at {
        let total = ckpt_exp::checkpoint::build_manifest(&def, &config).items.len();
        config.stop_after_items = Some(kill_after_items(frac, total));
    }
    match ckpt_exp::run_study(&def, &config, args.resume.is_some()) {
        Ok(ckpt_exp::StudyOutcome::Complete(report)) => {
            eprintln!(
                "study {}: {} items ({} resumed, {} executed), {} checkpoint(s)",
                report.id,
                report.items_total,
                report.items_resumed,
                report.items_executed,
                report.checkpoints_written
            );
            let mut exit = 0;
            for (stem, result) in &report.results {
                match result {
                    Ok(r) => println!("{stem}: ok ({} rows)", r.outcomes.len()),
                    Err(e) => {
                        eprintln!("{stem}: {e}");
                        exit = 1;
                    }
                }
            }
            exit
        }
        Ok(ckpt_exp::StudyOutcome::Stopped { completed, total }) => {
            eprintln!("study stopped at {completed}/{total} items; killing the process");
            kill_self()
        }
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

/// Arguments of the `study` subcommand (store maintenance).
struct StudyArgs {
    action: String,
    root: PathBuf,
    max_checkpoints: usize,
    purge: Option<String>,
}

fn parse_study_args(rest: &[String]) -> Result<StudyArgs, String> {
    let mut args = StudyArgs {
        action: match rest.first().map(String::as_str) {
            Some(a @ ("ls" | "gc")) => a.to_string(),
            Some(other) => return Err(format!("unknown `study` action {other}")),
            None => return Err("`study` needs an action".into()),
        },
        root: PathBuf::from("results/study"),
        max_checkpoints: 3,
        purge: None,
    };
    let mut it = rest[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--study-root" => args.root = PathBuf::from(value(&mut it, "--study-root")?),
            "--max-checkpoints" => args.max_checkpoints = number(&mut it, "--max-checkpoints")?,
            "--purge" => args.purge = Some(value(&mut it, "--purge")?),
            other => return Err(format!("unknown `study` argument {other}")),
        }
    }
    Ok(args)
}

fn cmd_study(rest: &[String]) -> i32 {
    let StudyArgs { action, root, max_checkpoints, purge } = match parse_study_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{STUDY_USAGE}");
            return 2;
        }
    };
    match action.as_str() {
        "ls" => {
            let studies = ckpt_exp::checkpoint::list_studies(&root);
            if studies.is_empty() {
                println!("no studies under {}", root.display());
                return 0;
            }
            println!("{:<24} {:>8} {:>12} {:>12} status", "id", "items", "checkpoints", "aggregates");
            for s in studies {
                println!(
                    "{:<24} {:>8} {:>12} {:>12} {}",
                    s.id, s.items, s.checkpoints, s.aggregates, s.status
                );
            }
            0
        }
        _ => match ckpt_exp::checkpoint::gc_studies(&root, max_checkpoints, purge.as_deref()) {
            Ok(actions) => {
                if actions.is_empty() {
                    println!("nothing to do");
                } else {
                    for a in actions {
                        println!("{a}");
                    }
                }
                0
            }
            Err(e) => {
                eprintln!("{e}");
                2
            }
        },
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match raw.first().map(String::as_str) {
        Some("run") => cmd_run(&raw[1..]),
        Some("study") => cmd_study(&raw[1..]),
        _ => match parse_args(&raw) {
            Ok(Some(args)) => match cmd_experiment(&args) {
                Ok(()) => 0,
                Err(e) => usage_error(&e),
            },
            Ok(None) => {
                println!("{USAGE}");
                0
            }
            Err(e) => usage_error(&e),
        },
    });
}

/// Report a bad invocation: the error and the usage on stderr, exit 2.
fn usage_error(e: &str) -> i32 {
    eprintln!("{e}\n{USAGE}");
    2
}

/// Run one named experiment; `Err` names an unknown experiment or a bad
/// flag value before any work starts.
fn cmd_experiment(args: &Args) -> Result<(), String> {
    if let Some(n) = args.threads {
        ckpt_exp::steal::set_workers(n);
    }
    let t = args.traces;
    match args.experiment.as_str() {
        "fig1" => {
            let mut s = String::from("p,mtbf_rejuvenate_all_s,mtbf_failed_only_s\n");
            for (p, all, failed) in ex::fig1() {
                s.push_str(&format!("{p},{all:.3},{failed:.3}\n"));
            }
            emit(&args.out, "fig1.csv", &s);
            emit(
                &args.out,
                "fig1.gp",
                &ckpt_exp::plot::fig1_script("fig1.csv", "fig1.png"),
            );
        }
        "table2" | "table3" => {
            let weibull = args.experiment == "table3";
            let mut md = String::new();
            for (label, r) in ex::table23(weibull, t) {
                md.push_str(&format!("## MTBF = {label}\n\n{}\n", markdown_table(&r)));
            }
            emit(&args.out, &format!("{}.md", args.experiment), &md);
        }
        "fig2" | "fig3" | "fig4" | "fig6" => {
            let weibull = matches!(args.experiment.as_str(), "fig4" | "fig6");
            let exa = matches!(args.experiment.as_str(), "fig3" | "fig6");
            let years = if exa { 1_250.0 } else { args.mtbf_years };
            let rows = ex::fig_synthetic_scaling(weibull, exa, years, t);
            let name = &args.experiment;
            emit(&args.out, &format!("{name}.csv"), &series_output(&rows));
            emit(
                &args.out,
                &format!("{name}.gp"),
                &ckpt_exp::plot::degradation_figure_script(
                    &format!("Figure {} — degradation vs processors", &name[3..]),
                    "number of processors",
                    &format!("{name}.csv"),
                    &format!("{name}.png"),
                    true,
                ),
            );
        }
        "fig5" => {
            let shapes: Vec<f64> = (1..=10).map(|i| f64::from(i) / 10.0).collect();
            let rows = ex::fig5(&shapes, t);
            let mut csv = String::from(CSV_HEADER);
            for (k, r) in &rows {
                csv.push_str(&csv_series(*k, r));
            }
            emit(&args.out, "fig5.csv", &csv);
        }
        "table4" => {
            let r = ex::table4(t);
            emit(&args.out, "table4.md", &markdown_table(&r));
        }
        "fig7" => {
            let rows = ex::fig_logbased(19, t);
            emit(&args.out, "fig7.csv", &series_output(&rows));
            emit(
                &args.out,
                "fig7.gp",
                &ckpt_exp::plot::degradation_figure_script(
                    "Figure 7 — log-based failures (LANL 19)",
                    "number of processors",
                    "fig7.csv",
                    "fig7.png",
                    true,
                ),
            );
        }
        "fig100" => {
            for cluster in [18u32, 19] {
                let rows = ex::fig_logbased(cluster, t);
                emit(
                    &args.out,
                    &format!("fig100-cluster{cluster}.csv"),
                    &series_output(&rows),
                );
            }
        }
        "fig8" | "fig9" => {
            let weibull = args.experiment == "fig9";
            let r = ex::fig89(weibull, DAY, t);
            emit(&args.out, &format!("{}.md", args.experiment), &markdown_table(&r));
        }
        "fig98" | "fig99" => {
            // `--policy NAME` picks any registry policy (case-insensitive);
            // the default matches the figure's subject.
            let kind = match &args.policy {
                Some(name) => ckpt_exp::parse_kind(name).map_err(|e| e.to_string())?,
                None if args.experiment == "fig98" => PolicyKind::OptExp,
                None => PolicyKind::DpNextFailure(Default::default()),
            };
            let weibull = args.experiment == "fig99";
            let mut csv = String::from("model,p,mean_makespan_days\n");
            for (model, series) in ex::fig9899(&kind, weibull, t) {
                for (p, mk) in series {
                    csv.push_str(&format!("{model},{p},{:.3}\n", mk / DAY));
                }
            }
            emit(&args.out, &format!("{}.csv", args.experiment), &csv);
        }
        "matrix" => {
            let r = ex::matrix_cell(
                args.weibull,
                args.exa,
                parallelism_from(&args.model)?,
                match args.overhead.as_str() {
                    "const" => false,
                    "prop" => true,
                    other => return Err(format!("unknown overhead model {other}")),
                },
                args.mtbf_years,
                args.procs,
                t,
            );
            emit(&args.out, "matrix.md", &markdown_table(&r));
        }
        "report" => {
            let cfg = ckpt_exp::report::ReportConfig::quick(t);
            let md = ckpt_exp::report::generate(&cfg);
            emit(&args.out, "report.md", &md);
        }
        "all" => run_all(args),
        other => return Err(format!("unknown experiment {other}")),
    }
    Ok(())
}

fn run_all(args: &Args) {
    for exp in [
        "fig1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "table4", "fig7",
        "fig100", "fig8", "fig9", "fig98", "fig99",
    ] {
        eprintln!("=== {exp} (traces = {}) ===", args.traces);
        let status = std::process::Command::new(std::env::current_exe().expect("self"))
            .arg(exp)
            .args(["--traces", &args.traces.to_string()])
            .args(
                args.out
                    .as_ref()
                    .map(|o| vec!["--out".to_string(), o.display().to_string()])
                    .unwrap_or_default(),
            )
            .status()
            .expect("spawn self");
        assert!(status.success(), "{exp} failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_at_accepts_only_open_unit_fractions() {
        assert_eq!(parse_kill_at("0.5"), Ok(0.5));
        for bad in ["0", "1", "1.5", "-0.2", "nan", "half"] {
            assert!(parse_kill_at(bad).is_err(), "--kill-at {bad} must be refused");
        }
        let args: Vec<String> = ["--kill-at", "1.5"].map(String::from).to_vec();
        assert!(parse_run_args(&args).is_err());
    }

    #[test]
    fn kill_at_stops_after_the_ceiling_of_its_share() {
        assert_eq!(kill_after_items(0.5, 10), 5);
        assert_eq!(kill_after_items(0.5, 11), 6);
        assert_eq!(kill_after_items(0.01, 10), 1);
    }
}
