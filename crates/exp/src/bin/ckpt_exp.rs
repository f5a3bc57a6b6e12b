//! `ckpt-exp` — regenerate any table or figure of the paper.
//!
//! ```text
//! ckpt-exp <study> [--traces N] [--out DIR] [--threads N] [--policy NAME]
//!          [--mtbf-years Y] [--model M] [--overhead const|prop]
//!          [--weibull] [--exa] [--procs P]
//! ckpt-exp run [--study <study>] [--id ID] [--resume ID]
//!              [--traces N] [--study-root DIR] [--checkpoint-items N]
//!              [--checkpoint-secs S] [--max-checkpoints N] [--kill-at FRAC]
//!              [--threads N] [--progress]
//! ckpt-exp study ls|gc [--study-root DIR] [--max-checkpoints N] [--purge ID]
//! ```
//!
//! The studies are [`ckpt_exp::catalog::STUDIES`] plus `paper`, their
//! union; `--help` lists them. `ckpt-exp <study>` runs all the study's
//! cells in memory as one study, then prints each rendered file, also
//! writing it into `--out DIR` (created and proven writable before any
//! cell runs). `--policy` picks the `fig98`/`fig99` policy,
//! `--mtbf-years` the per-processor MTBF of `fig2`, `fig4` and `matrix`,
//! and the other flags the `matrix` cell.
//!
//! `run` executes the same cells through the checkpoint store under
//! `<study-root>/<id>/` (default study `golden`): a durable manifest,
//! periodic snapshots, and at the end the aggregates under `aggregate/`
//! with the rendered files next to them. `--resume ID` continues a
//! killed run from its newest snapshot (stale stores are rejected by
//! fingerprint). `--kill-at FRAC` (`0 < FRAC < 1`) stops the run once
//! this process has executed `ceil(FRAC × manifest items)` items, before
//! the snapshot that would cover them, and SIGKILLs the process (for
//! testing the resume path). `--progress` prints live per-kind
//! completion lines on stderr (`progress.json` is written either way).
//!
//! Exit codes: 0 on success (no argument, `help`, `--help` or `-h`
//! prints the usage); 1 when a cell failed; 2 on bad arguments (an
//! unknown study, a stray argument, a missing or unparsable flag value,
//! an unusable `--out`: the error and the usage go to stderr) or store
//! errors (stale fingerprint, bad id); 137 after `--kill-at`.

use ckpt_exp::catalog::{self, Artefact, File, Params};
use ckpt_exp::{Error, ScenarioResult, StudyDef};
use ckpt_workload::ParallelismModel;
use std::path::{Path, PathBuf};

/// Arguments of an in-memory study run.
struct Args {
    parts: Vec<&'static Artefact>,
    params: Params,
    out: Option<PathBuf>,
    threads: Option<usize>,
}

/// The top-level usage, with every registered study.
fn usage() -> String {
    let models: Vec<String> = ParallelismModel::paper_suite().iter().map(ParallelismModel::label).collect();
    let mut s = String::from(
        "usage: ckpt-exp <study> [--traces N] [--out DIR] [--threads N] [--policy NAME] \
[--mtbf-years Y] [matrix flags]
       ckpt-exp run --help
       ckpt-exp study <ls|gc> [--study-root DIR] [--max-checkpoints N] [--purge ID]

studies:
",
    );
    for (name, about) in catalog::entries() {
        s.push_str(&format!("  {name:<8}{about}\n"));
    }
    s.push_str(&format!(
        "\nmatrix flags: --model {} --overhead const|prop [--weibull] [--exa] [--procs P]",
        models.join("|")
    ));
    s
}

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

/// The trace count following `--traces`: at least one trace, since a
/// cell with none has no degradation to average.
fn trace_count<'a>(it: &mut impl Iterator<Item = &'a String>) -> Result<usize, String> {
    match number(it, "--traces")? {
        0 => Err("--traces N needs N ≥ 1, got `0`".into()),
        n => Ok(n),
    }
}

/// The application profile a `--model` label names.
fn parallelism_from(label: &str) -> Result<ParallelismModel, String> {
    ParallelismModel::paper_suite()
        .into_iter()
        .find(|m| m.label() == label)
        .ok_or_else(|| format!("unknown parallelism model {label}"))
}

/// Parse a study run's flags; `Ok(None)` when the usage is asked for.
fn parse_args(raw: &[String]) -> Result<Option<Args>, String> {
    let mut name = None;
    let mut params = Params::default();
    let (mut out, mut threads) = (None, None);
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--traces" => params.traces = Some(trace_count(&mut it)?),
            "--out" => out = Some(PathBuf::from(value(&mut it, "--out")?)),
            "--model" => params.parallelism = parallelism_from(&value(&mut it, "--model")?)?,
            "--overhead" => {
                params.proportional_overhead = match value(&mut it, "--overhead")?.as_str() {
                    "const" => false,
                    "prop" => true,
                    other => return Err(format!("unknown overhead model {other}")),
                }
            }
            "--mtbf-years" => params.mtbf_years = number(&mut it, "--mtbf-years")?,
            "--policy" => {
                let policy = ckpt_exp::parse_kind(&value(&mut it, "--policy")?);
                params.policy = Some(policy.map_err(|e| e.to_string())?);
            }
            "--threads" => threads = Some(number(&mut it, "--threads")?),
            "--weibull" => params.weibull = true,
            "--exa" => params.exa = true,
            "--procs" => params.procs = number(&mut it, "--procs")?,
            "help" | "--help" | "-h" => return Ok(None),
            other if other.starts_with('-') => return Err(format!("unknown argument {other}")),
            other if name.is_none() => name = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    let Some(name) = name else { return Ok(None) };
    Ok(Some(Args { parts: catalog::lookup(&name)?, params, out, threads }))
}

/// Create `dir` and prove it takes a file, before any cell runs.
fn prepare_out(dir: &Path) -> Result<(), String> {
    let probe = dir.join(".ckpt-exp-probe");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&probe, ""))
        .and_then(|()| std::fs::remove_file(&probe))
        .map_err(|e| format!("--out {}: {e}", dir.display()))
}

/// Write rendered files into `dir`.
fn write_files(dir: &Path, files: &[File]) -> Result<(), String> {
    for (name, content) in files {
        let path = dir.join(name);
        std::fs::write(&path, content).map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
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

/// Parse `--checkpoint-secs S`: a finite, non-negative interval (NaN
/// would silently disable the time trigger, a negative one would fire
/// it after every chunk).
fn parse_checkpoint_secs(value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(secs) if secs.is_finite() && secs >= 0.0 => Ok(secs),
        _ => Err(format!("--checkpoint-secs S needs a finite S ≥ 0, got `{value}`")),
    }
}

/// Items this process executes before `--kill-at FRAC` fires.
fn kill_after_items(frac: f64, total: u64) -> u64 {
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

/// The usage of `run`, with every registered study.
fn run_usage() -> String {
    format!(
        "usage: ckpt-exp run [--study {}] [--id ID | --resume ID] \
[--traces N] [--study-root DIR] [--checkpoint-items N] [--checkpoint-secs S] \
[--max-checkpoints N] [--kill-at FRAC] [--threads N] [--progress]",
        catalog::names().collect::<Vec<_>>().join("|")
    )
}

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
            "--traces" => args.traces = Some(trace_count(&mut it)?),
            "--study-root" => args.root = PathBuf::from(value(&mut it, "--study-root")?),
            "--checkpoint-items" => args.checkpoint_items = number(&mut it, "--checkpoint-items")?,
            "--checkpoint-secs" => {
                args.checkpoint_secs = parse_checkpoint_secs(&value(&mut it, "--checkpoint-secs")?)?;
            }
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

fn cmd_run(rest: &[String]) -> i32 {
    let args = match parse_run_args(rest) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", run_usage());
            return 0;
        }
        Err(e) => return usage_error(&e, &run_usage()),
    };
    if let Some(n) = args.threads {
        ckpt_exp::steal::set_workers(n);
    }
    let id = args
        .resume
        .clone()
        .or_else(|| args.id.clone())
        .unwrap_or_else(|| args.study.clone());
    let parts = match catalog::lookup(&args.study) {
        Ok(parts) => parts,
        Err(e) => return usage_error(&e, &run_usage()),
    };
    let params = Params { traces: args.traces, ..Params::default() };
    let def = catalog::def(&id, &parts, &params);

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
        let total = ckpt_exp::checkpoint::build_manifest(&def, &config).items;
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
            let results = report
                .results
                .into_iter()
                .map(|(stem, result)| {
                    if let Ok(r) = &result {
                        println!("{stem}: ok ({} rows)", r.outcomes.len());
                    }
                    result
                })
                .collect();
            render_and_write(&parts, &params, &def, results, false, Some(&args.root.join(&id)))
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
        Err(e) => return usage_error(&e, STUDY_USAGE),
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
            Ok(Some(args)) => cmd_experiment(&args),
            Ok(None) => {
                println!("{}", usage());
                0
            }
            Err(e) => usage_error(&e, &usage()),
        },
    });
}

/// Report a bad invocation: the error and the usage on stderr, exit 2.
fn usage_error(e: &str, usage: &str) -> i32 {
    eprintln!("{e}\n{usage}");
    2
}

/// Run a study in memory: one study over all its parts, then the
/// rendered files printed, and written into `--out` when given.
fn cmd_experiment(args: &Args) -> i32 {
    if let Some(n) = args.threads {
        ckpt_exp::steal::set_workers(n);
    }
    if let Some(dir) = &args.out {
        if let Err(e) = prepare_out(dir) {
            return usage_error(&e, &usage());
        }
    }
    let def = catalog::def("", &args.parts, &args.params);
    let results = ckpt_exp::run_in_memory(&def);
    render_and_write(&args.parts, &args.params, &def, results, true, args.out.as_deref())
}

/// The tail both study commands share: report each failed cell, render
/// the results, print the files when `print`, and write them into `dir`
/// when given. Exits 0, 1 when a cell failed (nothing is rendered) or 2
/// when a file cannot be written.
fn render_and_write(
    parts: &[&Artefact],
    params: &Params,
    def: &StudyDef,
    results: Vec<Result<ScenarioResult, Error>>,
    print: bool,
    dir: Option<&Path>,
) -> i32 {
    let mut ok = Vec::with_capacity(results.len());
    for (cell, result) in def.cells.iter().zip(results) {
        match result {
            Ok(r) => ok.push(r),
            Err(e) => eprintln!("{}: {e}", cell.stem),
        }
    }
    if ok.len() < def.cells.len() {
        return 1;
    }
    let files = catalog::render(parts, params, &ok);
    if print {
        for (_, content) in &files {
            println!("{content}");
        }
    }
    match dir.map_or(Ok(()), |dir| write_files(dir, &files)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "parsed flag values must equal their literals exactly")]
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
    fn checkpoint_secs_accepts_only_finite_non_negative_intervals() {
        assert_eq!(parse_checkpoint_secs("0"), Ok(0.0));
        assert_eq!(parse_checkpoint_secs("2.5"), Ok(2.5));
        for bad in ["-5", "nan", "inf", "-inf", "soon"] {
            assert!(parse_checkpoint_secs(bad).is_err(), "--checkpoint-secs {bad} must be refused");
        }
    }

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn trace_counts_must_be_positive_in_every_command() {
        let exp = |raw: &[&str]| {
            parse_args(&strings(raw)).map(|a| a.map(|a| a.parts[0].cells(&a.params)[0].scenario.traces))
        };
        assert_eq!(exp(&["table2", "--traces", "3"]), Ok(Some(3)));
        assert_eq!(exp(&["table2"]), Ok(Some(600)), "the paper's 600 traces by default");
        assert!(exp(&["table2", "--traces", "0"]).is_err());
        let run = |raw: &[&str]| parse_run_args(&strings(raw)).map(|a| a.map(|a| a.traces));
        assert_eq!(run(&["--traces", "1"]), Ok(Some(Some(1))));
        assert_eq!(run(&[]), Ok(Some(None)), "each study keeps its own default");
        assert!(run(&["--study", "bench", "--traces", "0"]).is_err());
    }

    #[test]
    fn run_defaults_match_the_documented_store_settings() {
        let a = parse_run_args(&[]).expect("no flags parse").expect("not a help request");
        assert_eq!(a.study, "golden");
        assert_eq!((a.id, a.resume), (None, None));
        assert_eq!(a.root, PathBuf::from("results/study"));
        assert_eq!((a.checkpoint_items, a.max_checkpoints), (64, 3));
        assert_eq!(a.checkpoint_secs, 30.0);
        assert_eq!((a.kill_at, a.threads, a.progress), (None, None, false));
    }

    #[test]
    fn run_flags_land_in_their_fields() {
        let raw = strings(&[
            "--study", "bench", "--resume", "r1", "--traces", "6", "--study-root", "/tmp/st",
            "--checkpoint-items", "4", "--checkpoint-secs", "0", "--max-checkpoints", "2",
            "--kill-at", "0.25", "--threads", "8", "--progress",
        ]);
        let a = parse_run_args(&raw).expect("valid flags").expect("not a help request");
        assert_eq!((a.study.as_str(), a.resume.as_deref(), a.traces), ("bench", Some("r1"), Some(6)));
        assert_eq!(a.root, PathBuf::from("/tmp/st"));
        assert_eq!((a.checkpoint_items, a.max_checkpoints), (4, 2));
        assert_eq!(a.checkpoint_secs, 0.0);
        assert_eq!((a.kill_at, a.threads, a.progress), (Some(0.25), Some(8), true));
    }

    #[test]
    fn experiment_args_without_a_name_ask_for_usage() {
        assert!(matches!(parse_args(&[]), Ok(None)));
        assert!(matches!(parse_args(&strings(&["--traces", "5"])), Ok(None)));
        assert!(matches!(parse_args(&strings(&["table3", "--help"])), Ok(None)));
        let a = parse_args(&strings(&["matrix", "--weibull", "--exa", "--procs", "1024"]))
            .expect("valid flags")
            .expect("an experiment was named");
        let p = &a.params;
        assert_eq!((a.parts[0].name, p.weibull, p.exa, p.procs), ("matrix", true, true, 1024));
    }

    #[test]
    fn kill_at_stops_after_the_ceiling_of_its_share() {
        assert_eq!(kill_after_items(0.5, 10), 5);
        assert_eq!(kill_after_items(0.5, 11), 6);
        assert_eq!(kill_after_items(0.01, 10), 1);
    }
}
