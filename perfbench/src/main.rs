//! One measured process of the benchmark: runs one workload once, from
//! cold process-wide caches, and prints one JSON line on stdout.
//!
//! ```text
//! perfbench --workload NAME --seed N --mode run|pipeline|layers [--store DIR]
//! ```
//!
//! * `run` — the path users run: `Study::run_all` in memory, or
//!   `run_study` with a fresh checkpoint store under `--store`. Reports
//!   the end-to-end metrics and, on store runs, the `checkpoint.*` layer
//!   metrics, measured after the timed region.
//! * `pipeline` — `plan_scenario → exec::execute → reduce` per cell,
//!   reporting the plan and the `PipelinePerf` stage times.
//! * `layers` — the same pipeline rebuilt with every layer call timed
//!   (see `layers.rs`).
//!
//! `run.py` drives these processes, compares the digests against the
//! committed ones and aggregates the medians.

mod check;
mod layers;
mod workload;

use check::CellCheck;
use ckpt_exp::checkpoint::{self, CheckpointConfig, StudyOutcome};
use ckpt_exp::perf::PipelinePerf;
use ckpt_exp::runner::ScenarioResult;
use ckpt_exp::Error;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::Workload;

/// Repetitions of each checkpoint encode/parse probe (odd); the median counts.
const PROBE_REPEATS: usize = 5;
/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, 100 on Linux).
const CLOCK_TICKS: f64 = 100.0;

/// Metric name → value, serialised in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn insert(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", ckpt_exp::perf::format_f64(*v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

struct Args {
    workload: String,
    seed: u64,
    mode: String,
    store: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        mode: "run".into(),
        store: PathBuf::from(format!(
            ".bench_build/perfbench-store/{}",
            std::process::id()
        )),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--mode" => args.mode = value()?,
            "--store" => args.store = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// User+system CPU seconds of this process, all threads included.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    ticks.iter().sum::<f64>() / CLOCK_TICKS
}

/// Peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time `f` `PROBE_REPEATS` times; the median seconds and the last value.
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..PROBE_REPEATS {
        let t = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    (times[PROBE_REPEATS / 2], last.expect("PROBE_REPEATS > 0"))
}

/// The set-up a user's run does before any simulation: build the cells,
/// the study and its definition, and create the store directory.
fn set_up(args: &Args, store: &Path) -> Result<(Workload, checkpoint::StudyDef), String> {
    let wl = Workload::build(&args.workload, args.seed)?;
    let def = wl.def();
    if wl.store {
        std::fs::create_dir_all(store).map_err(|e| format!("create {}: {e}", store.display()))?;
    }
    Ok((wl, def))
}

fn check_all(wl: &Workload, results: &[Result<ScenarioResult, Error>]) -> Vec<CellCheck> {
    wl.cells
        .iter()
        .zip(results)
        .map(|(sc, r)| check::check_cell(&sc.label, &wl.expected_rows(sc), r))
        .collect()
}

fn cells_json(checks: &[CellCheck]) -> String {
    let opt = |d: &Option<String>| {
        d.as_ref()
            .map_or("null".to_string(), |d| format!("\"{d}\""))
    };
    let cells: Vec<String> = checks
        .iter()
        .map(|c| {
            let problems: Vec<String> = c
                .problems
                .iter()
                .map(|p| format!("\"{}\"", serde_json::escape_str(p)))
                .collect();
            format!(
                "{{\"label\": \"{}\", \"rows\": {}, \"failed_rows\": {}, \"golden\": {}, \
                 \"aggregate\": {}, \"problems\": [{}]}}",
                serde_json::escape_str(&c.label),
                c.rows,
                c.failed_rows,
                opt(&c.golden),
                opt(&c.aggregate),
                problems.join(", ")
            )
        })
        .collect();
    format!("[{}]", cells.join(", "))
}

/// `run`: the user-facing path, timed end to end. `setup_s` runs from
/// `process_start` to the start of the timed region.
fn run_mode(
    args: &Args,
    process_start: Instant,
    out: &mut Metrics,
) -> Result<Vec<CellCheck>, String> {
    let (wl, def) = set_up(args, &args.store)?;
    ckpt_exp::steal::set_workers(wl.workers);
    let setup_s = process_start.elapsed().as_secs_f64();

    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let config = CheckpointConfig {
        root: args.store.clone(),
        ..CheckpointConfig::default()
    };
    let (results, report) = if wl.store {
        match checkpoint::run_study(&def, &config, false).map_err(|e| e.to_string())? {
            StudyOutcome::Complete(mut report) => {
                let results = report.results.drain(..).map(|(_, r)| r).collect();
                (results, Some(report))
            }
            StudyOutcome::Stopped { .. } => return Err("study stopped early".into()),
        }
    } else {
        (wl.study.run_all(&wl.cells), None)
    };
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;

    let mut checks = check_all(&wl, &results);
    if let Some(report) = &report {
        let dir = args.store.join(&def.id);
        for (check, cell) in checks.iter_mut().zip(&def.cells) {
            let path = dir.join("aggregate").join(format!("{}.json", cell.stem));
            match std::fs::read(&path) {
                Ok(bytes) => check.aggregate = Some(check::digest(&bytes)),
                Err(e) => {
                    check.failed_rows = check.rows;
                    check
                        .problems
                        .push(format!("aggregate {}: {e}", path.display()));
                }
            }
        }
        probe_store(&dir, &def, &config, report, out)?;
    }
    out.insert("wall_s", wall);
    out.insert("cpu_s", cpu);
    out.insert("peak_rss_mb", peak_rss_mb());
    out.insert("setup_s", setup_s);
    out.insert("evals", wl.evals() as f64);
    Ok(checks)
}

/// The `checkpoint.*` metrics of a finished study store.
fn probe_store(
    dir: &Path,
    def: &checkpoint::StudyDef,
    config: &CheckpointConfig,
    report: &checkpoint::StudyReport,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut snapshots: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("ckpt-"))
        })
        .collect();
    snapshots.sort();
    let last = snapshots
        .last()
        .ok_or("no checkpoint snapshot in the store")?;
    let src = std::fs::read_to_string(last).map_err(|e| format!("read {}: {e}", last.display()))?;
    let (parse_s, parsed) = timed(|| checkpoint::parse_checkpoint(&src));
    let parsed = parsed.map_err(|e| format!("parse {}: {e}", last.display()))?;
    let (encode_s, encoded) = timed(|| {
        checkpoint::checkpoint_json(
            &parsed.study,
            &parsed.fingerprint,
            parsed.seq,
            &parsed.completed,
        )
    });
    if encoded != src {
        return Err(format!(
            "re-encoding {} does not reproduce it",
            last.display()
        ));
    }
    let (manifest_s, _) =
        timed(|| checkpoint::manifest_json(&checkpoint::build_manifest(def, config)));
    let items = parsed.completed.len().max(1) as f64;
    out.insert("checkpoint.items", report.items_total as f64);
    out.insert("checkpoint.writes", report.checkpoints_written as f64);
    out.insert("checkpoint.final_bytes", src.len() as f64);
    out.insert("checkpoint.bytes_per_item", src.len() as f64 / items);
    out.insert("checkpoint.encode_us_per_item", encode_s * 1e6 / items);
    out.insert("checkpoint.parse_us_per_item", parse_s * 1e6 / items);
    out.insert("checkpoint.manifest_s", manifest_s);
    Ok(())
}

/// `pipeline`: plan → execute → reduce per cell, with the stage times
/// `exec::execute` reports.
fn pipeline_mode(args: &Args, out: &mut Metrics) -> Result<Vec<CellCheck>, String> {
    let wl = Workload::build(&args.workload, args.seed)?;
    ckpt_exp::steal::set_workers(wl.workers);
    const STAGES: [&str; 3] = ["trace_gen", "policy_sims", "period_search"];
    let (mut tasks, mut candidate_sims, mut exec_s) = (0usize, 0u64, 0.0);
    let mut stage_s = [0.0; STAGES.len()];
    let t0 = Instant::now();
    let results: Vec<Result<ScenarioResult, Error>> = wl
        .cells
        .iter()
        .map(|sc| {
            let built = sc.dist.try_build()?;
            let plan = ckpt_exp::plan_scenario(sc, &wl.study.roster_for(sc), &wl.options);
            tasks += plan.roster_wave().len() + plan.candidate_wave(&plan.coarse).len();
            let mut perf = PipelinePerf::default();
            let t = Instant::now();
            let exec = ckpt_exp::exec::execute(sc, &built, &plan, &mut perf);
            exec_s += t.elapsed().as_secs_f64();
            for (s, name) in stage_s.iter_mut().zip(STAGES) {
                *s += perf.stage_seconds(name);
            }
            candidate_sims += perf.candidate_sims;
            let mut result = ckpt_exp::reduce::reduce(sc, &plan, &exec, &mut perf);
            result.perf = perf;
            Ok(result)
        })
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    for (s, name) in stage_s.iter().zip(STAGES) {
        out.insert(&format!("exec.{name}_s"), *s);
    }
    out.insert("plan.tasks", tasks as f64);
    out.insert("exec.candidate_sims", candidate_sims as f64);
    out.insert("exec.unstaged_s", exec_s - stage_s.iter().sum::<f64>());
    out.insert("wall_s", wall);
    Ok(check_all(&wl, &results))
}

/// `layers`: the traced rebuild of the pipeline.
fn layers_mode(args: &Args, out: &mut Metrics) -> Result<Vec<CellCheck>, String> {
    let wl = Workload::build(&args.workload, args.seed)?;
    ckpt_exp::steal::set_workers(wl.workers);
    let mut layers = layers::Layers::default();
    let t0 = Instant::now();
    let results = layers.run_all(
        &wl.cells,
        |sc| wl.study.roster_for(sc),
        &wl.options,
        wl.workers,
    );
    out.insert("wall_s", t0.elapsed().as_secs_f64());
    layers.metrics(out);
    Ok(check_all(&wl, &results))
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut metrics = Metrics::default();
    let checks = match args.mode.as_str() {
        "run" => run_mode(&args, process_start, &mut metrics),
        "pipeline" => pipeline_mode(&args, &mut metrics),
        "layers" => layers_mode(&args, &mut metrics),
        other => Err(format!("unknown mode {other:?} (run|pipeline|layers)")),
    };
    // The store root is this process's alone; remove it either way.
    let _ = std::fs::remove_dir_all(&args.store);
    match checks {
        Ok(checks) => println!(
            "{{\"mode\": \"{}\", \"metrics\": {}, \"cells\": {}}}",
            args.mode,
            metrics.json(),
            cells_json(&checks)
        ),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
