//! End-to-end pipeline benchmark: the fixed Petascale Weibull cell used
//! by `scripts/bench_pipeline.sh` to produce `BENCH_pipeline.json`.
//!
//! Usage: `bench_pipeline [--traces N] [--label NAME] [--out PATH]
//! [--search full|coarse] [--trace-out PATH] [--report-out PATH]
//! [--threads N] [--cell bench|lanl18|lanl19] [--history PATH|none]
//! [--flight-out PATH]`
//!
//! Every run appends one JSONL record — git sha, host CPUs, lane
//! width, stage timings, key obs counter deltas — to the bench history
//! (`--history`, default `results/BENCH_history.jsonl`, `none`
//! disables), the series `ckpt-bench regress` judges. `--flight-out`
//! dumps the live flight-recorder ring (it needs `--features obs` to
//! carry data; without it it writes a valid empty document).
//!
//! `--threads N` pins the executor's worker count (the effective count
//! and claim counters land in the JSON's
//! `pipeline.exec` block); `--cell` selects the scaling cells used by
//! `scripts/bench_exec_scaling.sh` (`lanl18`/`lanl19` are the LANL
//! log-based clusters at the same p = 4096).
//!
//! Runs the full scenario pipeline (trace generation → policy sims →
//! PeriodLB search → aggregation) once, prints a human summary, and
//! writes a JSON document with the per-stage timings and counters.
//!
//! Built with `--features obs`, the run records into a `ckpt-obs`
//! session: `--trace-out` then emits a chrome://tracing timeline and
//! `--report-out` a `perf report`-style text summary, and the binary
//! *verifies* that the obs span totals agree with the `PipelinePerf`
//! stage timings within 5% (the two measure the same bracketed regions
//! through independent code paths). Without the feature those flags are
//! accepted but skipped.

#![expect(
    clippy::disallowed_methods,
    reason = "a timing tool: the clock measures the pipeline from outside and stamps history records"
)]

use ckpt_exp::perf::format_f64;
use ckpt_exp::policies_spec::PolicyKind;
use ckpt_exp::runner::{run_scenario, PeriodSearch, RunnerOptions};
use ckpt_exp::scenario::{DistSpec, Scenario};
use std::io::Write as _;
use std::time::Instant;

const YEAR: f64 = 365.25 * 86_400.0;

/// The fixed bench cell: Table 1 Petascale, Weibull(k = 0.7, μ = 125 y),
/// 4096 processors — the same platform as the `policy_micro` benches.
/// `lanl18`/`lanl19` swap in the LANL log-based failure models at the
/// same platform size (the `fig7`/`fig100` distributions).
fn bench_scenario(cell: &str, traces: usize) -> Scenario {
    let dist = match cell {
        "bench" => DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * YEAR },
        "lanl18" => DistSpec::LanlLog { cluster: 18 },
        "lanl19" => DistSpec::LanlLog { cluster: 19 },
        other => panic!("--cell bench|lanl18|lanl19, got {other:?}"),
    };
    Scenario::petascale(dist, 1 << 12, traces)
}

fn main() {
    let mut traces = 24usize;
    let mut cell = "bench".to_string();
    let mut label = "run".to_string();
    let mut out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut report_out: Option<String> = None;
    let mut history = "results/BENCH_history.jsonl".to_string();
    let mut flight_out: Option<String> = None;
    let mut search = PeriodSearch::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--traces" => {
                traces = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--traces N");
            }
            "--label" => label = args.next().expect("--label NAME"),
            "--cell" => cell = args.next().expect("--cell bench|lanl18|lanl19"),
            "--threads" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads N");
                ckpt_exp::steal::set_workers(n);
            }
            "--out" => out = Some(args.next().expect("--out PATH")),
            "--trace-out" => trace_out = Some(args.next().expect("--trace-out PATH")),
            "--report-out" => report_out = Some(args.next().expect("--report-out PATH")),
            "--history" => history = args.next().expect("--history PATH|none"),
            "--flight-out" => flight_out = Some(args.next().expect("--flight-out PATH")),
            "--search" => {
                search = match args.next().as_deref() {
                    Some("full") => PeriodSearch::Full,
                    Some("coarse") => PeriodSearch::default(),
                    other => panic!("--search full|coarse, got {other:?}"),
                };
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let scenario = bench_scenario(&cell, traces);
    let kinds = if cell == "bench" {
        PolicyKind::paper_roster(false)
    } else {
        PolicyKind::log_based_roster()
    };
    let mut options = RunnerOptions::default_with_paper_grid();
    options.period_search = search;

    eprintln!(
        "bench_pipeline[{label}]: cell {cell}, {} procs, {} traces, {} policies, \
         {} period candidates, {} workers",
        scenario.procs,
        scenario.traces,
        kinds.len(),
        options.period_lb.as_ref().map_or(0, Vec::len),
        ckpt_exp::steal::workers(),
    );

    let session = ckpt_obs::ObsSession::start();
    if session.is_none() {
        eprintln!(
            "bench_pipeline[{label}]: recording off (build with --features obs for \
             the chrome trace / perf report)"
        );
    }
    let t0 = Instant::now();
    let result = run_scenario(&scenario, &kinds, &options);
    let total = t0.elapsed().as_secs_f64();
    if let Some(path) = &flight_out {
        // Must precede `finish`: finishing the session drains the
        // shards, and the flight ring dies with them.
        std::fs::write(path, ckpt_obs::flight_dump_json())
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("bench_pipeline[{label}]: wrote flight dump {path}");
    }
    let obs_data = session.map(ckpt_obs::ObsSession::finish);

    eprintln!("bench_pipeline[{label}]: total {total:.3}s");
    let perf = &result.perf;
    for st in &perf.stages {
        eprintln!("  stage {:<14} {:>9.3}s  ({} items)", st.name, st.seconds, st.items);
    }
    eprintln!(
        "  sims: {} policy + {} candidate (grid {}), {} decisions, {} failures",
        perf.policy_sims,
        perf.candidate_sims,
        perf.candidate_grid_size,
        perf.decisions,
        perf.failures
    );
    if let Some(e) = &perf.exec {
        eprintln!(
            "  exec: {} workers, {} waves, claims {} heavy + {} other",
            e.workers, e.waves, e.local_claims, e.injector_claims
        );
    }

    if let Some(data) = &obs_data {
        // The obs spans and the `PipelinePerf` stage timings bracket the
        // same regions through independent code paths; if they disagree
        // beyond tolerance, one of the two is lying — fail the bench.
        for st in &perf.stages {
            let span_s = data.span_total_seconds(&format!("stage.{}", st.name));
            // 5%, with a small absolute floor so microsecond-scale
            // stages don't trip on scheduling noise.
            let tol = (0.05 * st.seconds).max(0.005);
            let diff = (span_s - st.seconds).abs();
            eprintln!(
                "  agree {:<14} span {:>9.3}s vs perf {:>9.3}s  (|Δ| {:.4}s)",
                st.name, span_s, st.seconds, diff
            );
            assert!(
                diff <= tol,
                "stage {} disagrees: obs span total {span_s:.4}s vs perf {:.4}s (tol {tol:.4}s)",
                st.name,
                st.seconds
            );
        }
        if let Some(path) = &trace_out {
            std::fs::write(path, data.chrome_trace_json())
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("bench_pipeline[{label}]: wrote chrome trace {path}");
        }
        if let Some(path) = &report_out {
            std::fs::write(path, data.perf_report())
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("bench_pipeline[{label}]: wrote perf report {path}");
        }
    }

    // JSON document: run metadata + measured pipeline perf.
    let mut doc = String::from("{\n");
    doc.push_str(&format!("  \"label\": \"{}\",\n", serde_json::escape_str(&label)));
    doc.push_str(&format!(
        "  \"cell\": {{\"scenario\": \"{}\", \"procs\": {}, \"traces\": {}, \"policies\": {}, \"period_grid\": {}}},\n",
        serde_json::escape_str(&scenario.label),
        scenario.procs,
        scenario.traces,
        kinds.len(),
        options.period_lb.as_ref().map_or(0, Vec::len),
    ));
    doc.push_str(&format!("  \"total_seconds\": {},\n", format_f64(total)));
    doc.push_str(&format!("  \"pipeline\": {}\n", perf.to_json()));
    doc.push_str("}\n");

    match out {
        Some(path) => {
            std::fs::write(&path, &doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("bench_pipeline[{label}]: wrote {path}");
        }
        None => println!("{doc}"),
    }

    // Bench history: append one JSONL record per run (never stdout —
    // callers pipe the document above to jq).
    if history != "none" {
        let record = history_record(
            &label,
            &scenario,
            kinds.len(),
            options.period_lb.as_ref().map_or(0, Vec::len),
            total,
            perf,
        );
        append_history(&history, &record);
        eprintln!("bench_pipeline[{label}]: appended history record to {history}");
    }
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a work tree.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Wall-clock record stamp (bench provenance only: history records are
/// measurements *about* the machine, never simulation inputs).
fn unix_seconds() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// One `BENCH_history.jsonl` record (see DESIGN.md for the schema):
/// run identity (git sha, host CPUs, lane width, worker threads, cell)
/// plus the stage timings and key obs counter deltas that `ckpt-bench
/// regress` judges.
fn history_record(
    label: &str,
    scenario: &Scenario,
    policies: usize,
    period_grid: usize,
    total: f64,
    perf: &ckpt_exp::perf::PipelinePerf,
) -> String {
    let mut rec = String::from("{\"schema\": 1, \"kind\": \"pipeline\"");
    rec.push_str(&format!(", \"label\": \"{}\"", serde_json::escape_str(label)));
    rec.push_str(&format!(", \"git_sha\": \"{}\"", serde_json::escape_str(&git_sha())));
    rec.push_str(&format!(", \"recorded_unix\": {}", unix_seconds()));
    rec.push_str(&format!(
        ", \"host_cpus\": {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    ));
    rec.push_str(&format!(", \"lanes\": {}", ckpt_math::simd::LANES));
    rec.push_str(&format!(", \"threads\": {}", ckpt_exp::steal::workers()));
    rec.push_str(&format!(
        ", \"cell\": {{\"scenario\": \"{}\", \"procs\": {}, \"traces\": {}, \"policies\": {}, \"period_grid\": {}}}",
        serde_json::escape_str(&scenario.label),
        scenario.procs,
        scenario.traces,
        policies,
        period_grid,
    ));
    rec.push_str(&format!(", \"total_seconds\": {}", format_f64(total)));
    rec.push_str(", \"stages\": [");
    for (i, st) in perf.stages.iter().enumerate() {
        if i > 0 {
            rec.push_str(", ");
        }
        rec.push_str(&format!(
            "{{\"name\": \"{}\", \"seconds\": {}, \"items\": {}}}",
            serde_json::escape_str(&st.name),
            format_f64(st.seconds),
            st.items,
        ));
    }
    rec.push_str("], \"counters\": {");
    if let Some(o) = &perf.obs {
        rec.push_str(&format!(
            "\"dp_solves\": {}, \"dp_near_row_sweeps\": {}, \"dp_far_fits\": {}, \
             \"dp_hull_lines\": {}, \"dp_hull_advances\": {}, \"dp_log_domain_states\": {}, \
             \"dp_scratch_reuses\": {}, \"kernel_interp_hits\": {}, \
             \"kernel_exact_fallbacks\": {}, \"trace_cache_hits\": {}, \
             \"trace_cache_misses\": {}, \"sim_runs\": {}, \"sim_decisions\": {}",
            o.dp_solves,
            o.dp_near_row_sweeps,
            o.dp_far_fits,
            o.dp_hull_lines,
            o.dp_hull_advances,
            o.dp_log_domain_states,
            o.dp_scratch_reuses,
            o.kernel_interp_hits,
            o.kernel_exact_fallbacks,
            o.trace_cache_hits,
            o.trace_cache_misses,
            o.sim_runs,
            o.sim_decisions,
        ));
    }
    rec.push_str("}}");
    rec
}

/// Append one record line, creating the file (and parents) on first use.
fn append_history(path: &str, record: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| panic!("open {path}: {e}"));
    writeln!(f, "{record}").unwrap_or_else(|e| panic!("append {path}: {e}"));
}
