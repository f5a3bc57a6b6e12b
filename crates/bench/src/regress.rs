//! Bench-history parsing and the regression sentinel behind
//! `ckpt-bench regress`.
//!
//! `results/BENCH_history.jsonl` is a frozen ledger: one record per run
//! of the since-removed pipeline and scaling benches, oldest first, and
//! nothing appends to it any more (perfbench is the live benchmark).
//! The sentinel still validates and judges it. Records group into
//! **series** by everything that legitimately changes the cost of a
//! run — record kind, cell (scenario, processors, traces, roster size,
//! period grid) and worker threads — so a 1-thread smoke run is never
//! judged against an 8-thread sweep.
//!
//! The sentinel judges only the **latest** record of the latest
//! record's series: its `total_seconds` against the rolling median of
//! up to [`WINDOW`] prior same-series records, with a noise-aware
//! threshold of `max(base, NOISE_MADS · MAD/median)` — a stable
//! history flags a 20% slowdown at the default 10% base, while a noisy
//! one widens its own gate instead of crying wolf. Fewer than
//! [`MIN_PRIOR`] priors is a pass with a note: two points are not a
//! baseline. Per-stage deltas are reported as context, never judged
//! (stage noise is higher and the total already contains them).

use ckpt_core::exp::jsonio::{self, Json};

/// Maximum prior same-series records the rolling median sees.
pub const WINDOW: usize = 8;

/// Prior same-series records required before judging.
pub const MIN_PRIOR: usize = 2;

/// Default base regression threshold (fraction over the median).
pub const BASE_THRESHOLD: f64 = 0.10;

/// MAD multiplier of the noise-aware threshold widening.
pub const NOISE_MADS: f64 = 4.0;

/// One parsed history record (the fields the sentinel needs).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Record kind (`pipeline`).
    pub kind: String,
    /// Free-form run label.
    pub label: String,
    /// Git revision the run was built from.
    pub git_sha: String,
    /// Series identity: scenario label.
    pub scenario: String,
    /// Series identity: processor count.
    pub procs: u64,
    /// Series identity: traces per run.
    pub traces: u64,
    /// Series identity: roster size.
    pub policies: u64,
    /// Series identity: period-search grid size.
    pub period_grid: u64,
    /// Series identity: executor worker threads (0 when the record
    /// predates the field).
    pub threads: u64,
    /// The judged quantity.
    pub total_seconds: f64,
    /// `(name, seconds)` per stage, reported as context.
    pub stages: Vec<(String, f64)>,
}

impl Record {
    /// The series key: everything that legitimately changes run cost.
    pub fn series_key(&self) -> String {
        format!(
            "{}|{}|p{}|t{}|pol{}|grid{}|th{}",
            self.kind,
            self.scenario,
            self.procs,
            self.traces,
            self.policies,
            self.period_grid,
            self.threads
        )
    }
}

fn field<'a>(v: &'a Json, key: &str, line: usize) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("history line {line}: missing `{key}`"))
}

fn str_field(v: &Json, key: &str, line: usize) -> Result<String, String> {
    field(v, key, line)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("history line {line}: `{key}` is not a string"))
}

fn u64_field(v: &Json, key: &str, line: usize) -> Result<u64, String> {
    field(v, key, line)?
        .as_u64()
        .ok_or_else(|| format!("history line {line}: `{key}` is not an unsigned integer"))
}

fn f64_field(v: &Json, key: &str, line: usize) -> Result<f64, String> {
    let x = field(v, key, line)?
        .as_f64()
        .ok_or_else(|| format!("history line {line}: `{key}` is not a number"))?;
    if !x.is_finite() {
        return Err(format!("history line {line}: `{key}` is not finite"));
    }
    Ok(x)
}

/// Parse one history line (`line` is 1-based, for error messages).
///
/// # Errors
/// A human-readable message naming the line and the offending field.
pub fn parse_record(src: &str, line: usize) -> Result<Record, String> {
    let v = jsonio::parse(src).map_err(|e| format!("history line {line}: {e}"))?;
    let schema = u64_field(&v, "schema", line)?;
    if schema != 1 {
        return Err(format!("history line {line}: unsupported schema {schema}"));
    }
    let cell = field(&v, "cell", line)?;
    let mut stages = Vec::new();
    let stage_rows = field(&v, "stages", line)?
        .as_arr()
        .ok_or_else(|| format!("history line {line}: `stages` is not an array"))?;
    for row in stage_rows {
        stages.push((str_field(row, "name", line)?, f64_field(row, "seconds", line)?));
    }
    let total_seconds = f64_field(&v, "total_seconds", line)?;
    if total_seconds <= 0.0 {
        return Err(format!("history line {line}: `total_seconds` must be positive"));
    }
    Ok(Record {
        kind: str_field(&v, "kind", line)?,
        label: str_field(&v, "label", line)?,
        git_sha: str_field(&v, "git_sha", line)?,
        scenario: str_field(cell, "scenario", line)?,
        procs: u64_field(cell, "procs", line)?,
        traces: u64_field(cell, "traces", line)?,
        policies: u64_field(cell, "policies", line)?,
        period_grid: u64_field(cell, "period_grid", line)?,
        // Optional: early records predate the field.
        threads: v.get("threads").and_then(Json::as_u64).unwrap_or(0),
        total_seconds,
        stages,
    })
}

/// Parse a whole history file (blank lines skipped), oldest first.
///
/// # Errors
/// The first malformed line's message.
pub fn parse_history(src: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_record(line, i + 1)?);
    }
    Ok(out)
}

/// Median of a non-empty sample (mean of the middle pair when even).
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The verdict on the latest record of its series.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The judged (latest) record.
    pub latest: Record,
    /// Prior same-series records in the window, oldest first.
    pub prior: Vec<Record>,
    /// Rolling median of the priors' totals (`None` below [`MIN_PRIOR`]).
    pub median_seconds: Option<f64>,
    /// The effective threshold fraction actually applied.
    pub threshold: f64,
    /// Latest total over the median, minus one (`None` below
    /// [`MIN_PRIOR`]). Positive means slower.
    pub delta_frac: Option<f64>,
    /// `true` when the latest total breaches the threshold.
    pub regressed: bool,
}

/// Judge the latest record of `history` against its series.
///
/// # Errors
/// When the history is empty.
pub fn analyze(history: &[Record], base_threshold: f64, window: usize) -> Result<Verdict, String> {
    let latest = history.last().ok_or("history is empty: nothing to judge")?.clone();
    let key = latest.series_key();
    let prior: Vec<Record> = history[..history.len() - 1]
        .iter()
        .filter(|r| r.series_key() == key)
        .cloned()
        .collect();
    let prior: Vec<Record> =
        prior.iter().rev().take(window.max(1)).rev().cloned().collect();

    if prior.len() < MIN_PRIOR {
        return Ok(Verdict {
            latest,
            prior,
            median_seconds: None,
            threshold: base_threshold,
            delta_frac: None,
            regressed: false,
        });
    }

    let mut totals: Vec<f64> = prior.iter().map(|r| r.total_seconds).collect();
    totals.sort_by(f64::total_cmp);
    let med = median(&totals);
    // Median absolute deviation: the robust spread of the window.
    let mut devs: Vec<f64> = totals.iter().map(|t| (t - med).abs()).collect();
    devs.sort_by(f64::total_cmp);
    let mad = median(&devs);
    let threshold = base_threshold.max(NOISE_MADS * mad / med);
    let delta = latest.total_seconds / med - 1.0;
    Ok(Verdict {
        latest,
        prior,
        median_seconds: Some(med),
        threshold,
        delta_frac: Some(delta),
        regressed: delta > threshold,
    })
}

/// Render the `BENCH_regress.txt` report.
pub fn report(v: &Verdict) -> String {
    let mut out = String::new();
    out.push_str("ckpt-bench regress report\n");
    out.push_str("=========================\n");
    out.push_str(&format!(
        "series:  {}\nlatest:  label `{}`, git {}, total {:.6}s\n",
        v.latest.series_key(),
        v.latest.label,
        v.latest.git_sha,
        v.latest.total_seconds
    ));
    match (v.median_seconds, v.delta_frac) {
        (Some(med), Some(delta)) => {
            out.push_str(&format!(
                "window:  {} prior record(s), rolling median {med:.6}s\n",
                v.prior.len()
            ));
            out.push_str(&format!(
                "delta:   {:+.1}% vs median (threshold {:.1}%)\n",
                100.0 * delta,
                100.0 * v.threshold
            ));
            // Stage context against the newest prior record: where the
            // time moved, not a judgement.
            if let Some(base) = v.prior.last() {
                for (name, seconds) in &v.latest.stages {
                    if let Some((_, b)) =
                        base.stages.iter().find(|(n, _)| n == name)
                    {
                        if *b > 0.0 {
                            out.push_str(&format!(
                                "stage:   {name:<14} {seconds:>10.6}s vs {b:>10.6}s ({:+.1}%)\n",
                                100.0 * (seconds / b - 1.0)
                            ));
                        }
                    }
                }
            }
            out.push_str(if v.regressed {
                "verdict: REGRESSION\n"
            } else {
                "verdict: pass\n"
            });
        }
        _ => {
            out.push_str(&format!(
                "window:  {} prior record(s) — fewer than {MIN_PRIOR}, not judged\n",
                v.prior.len()
            ));
            out.push_str("verdict: pass (insufficient history)\n");
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn line(total: f64, threads: u64) -> String {
        format!(
            "{{\"schema\": 1, \"kind\": \"pipeline\", \"label\": \"t\", \"git_sha\": \"abc\", \
             \"recorded_unix\": 1, \"host_cpus\": 4, \"lanes\": 4, \"threads\": {threads}, \
             \"cell\": {{\"scenario\": \"s\", \"procs\": 4096, \"traces\": 24, \
             \"policies\": 7, \"period_grid\": 479}}, \"total_seconds\": {total}, \
             \"stages\": [{{\"name\": \"policy_sims\", \"seconds\": {}, \"items\": 168}}], \
             \"counters\": {{}}}}",
            total * 0.9
        )
    }

    fn history(totals: &[f64]) -> Vec<Record> {
        let src: Vec<String> = totals.iter().map(|&t| line(t, 1)).collect();
        parse_history(&src.join("\n")).unwrap()
    }

    #[test]
    fn parses_a_valid_record() {
        let r = parse_record(&line(10.0, 2), 1).unwrap();
        assert_eq!(r.kind, "pipeline");
        assert_eq!(r.procs, 4096);
        assert_eq!(r.threads, 2);
        assert!((r.total_seconds - 10.0).abs() < 1e-12);
        assert_eq!(r.stages.len(), 1);
        assert_eq!(r.series_key(), "pipeline|s|p4096|t24|pol7|grid479|th2");
    }

    #[test]
    fn rejects_malformed_records_with_line_numbers() {
        let missing = line(10.0, 1).replace("\"total_seconds\": 10,", "");
        let err = parse_history(&format!("{}\n{missing}", line(9.0, 1))).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let bad_schema = line(10.0, 1).replace("\"schema\": 1", "\"schema\": 9");
        assert!(parse_record(&bad_schema, 3).unwrap_err().contains("schema 9"));
        assert!(parse_record("not json", 1).is_err());
    }

    #[test]
    fn threads_field_is_optional_for_pre_sentinel_records() {
        let legacy = line(10.0, 1).replace("\"threads\": 1, ", "");
        let r = parse_record(&legacy, 1).unwrap();
        assert_eq!(r.threads, 0);
    }

    #[test]
    fn twenty_percent_slowdown_is_flagged() {
        let v = analyze(&history(&[10.0, 10.2, 9.9, 12.2]), BASE_THRESHOLD, WINDOW).unwrap();
        assert!(v.regressed, "{v:?}");
        assert!(v.delta_frac.unwrap() > 0.19, "{v:?}");
        assert!(report(&v).contains("verdict: REGRESSION"));
    }

    #[test]
    fn stable_and_improving_histories_pass() {
        let v = analyze(&history(&[10.0, 10.2, 9.9, 10.1]), BASE_THRESHOLD, WINDOW).unwrap();
        assert!(!v.regressed, "{v:?}");
        let v = analyze(&history(&[10.0, 10.2, 9.9, 3.0]), BASE_THRESHOLD, WINDOW).unwrap();
        assert!(!v.regressed, "{v:?}");
        assert!(report(&v).contains("verdict: pass"));
    }

    #[test]
    fn insufficient_history_passes_with_a_note() {
        let v = analyze(&history(&[10.0, 12.2]), BASE_THRESHOLD, WINDOW).unwrap();
        assert!(!v.regressed);
        assert!(v.median_seconds.is_none());
        assert!(report(&v).contains("insufficient history"));
        assert!(analyze(&[], BASE_THRESHOLD, WINDOW).is_err());
    }

    #[test]
    fn noisy_history_widens_its_own_threshold() {
        // Spread ~±30%: a 20% excursion is within the series' own noise.
        let v = analyze(&history(&[7.0, 13.0, 10.0, 7.5, 12.5, 12.0]), BASE_THRESHOLD, WINDOW)
            .unwrap();
        assert!(v.threshold > BASE_THRESHOLD, "{v:?}");
        assert!(!v.regressed, "{v:?}");
    }

    #[test]
    fn different_series_never_mix() {
        // Same cell at other thread counts must not enter the window.
        let mut src: Vec<String> = [10.0, 10.1, 9.9].iter().map(|&t| line(t, 8)).collect();
        src.push(line(30.0, 1)); // a 1-thread run is slower by design
        let hist = parse_history(&src.join("\n")).unwrap();
        let v = analyze(&hist, BASE_THRESHOLD, WINDOW).unwrap();
        assert!(v.prior.is_empty());
        assert!(!v.regressed);
    }

    #[test]
    fn window_keeps_only_the_newest_priors() {
        // 12 priors; with WINDOW=8 the old slow era must age out.
        let mut totals = vec![20.0, 20.0, 20.0, 20.0];
        totals.extend_from_slice(&[10.0; 8]);
        totals.push(10.1);
        let v = analyze(&history(&totals), BASE_THRESHOLD, WINDOW).unwrap();
        assert_eq!(v.prior.len(), WINDOW);
        assert!((v.median_seconds.unwrap() - 10.0).abs() < 1e-9, "{v:?}");
        assert!(!v.regressed);
    }
}
