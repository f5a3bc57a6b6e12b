//! Canonical JSON emitter for golden-result tests.
//!
//! Serialises the *deterministic* portion of a [`ScenarioResult`] — every
//! `PolicyOutcome` field plus the deterministic pipeline counters, but no
//! wall-clock timings — with shortest-roundtrip float formatting
//! ([`crate::perf::format_f64`]), which is injective on finite `f64`s.
//! Two results serialise to the same bytes **iff** every number is
//! bit-identical, so the integration test under `tests/` can byte-compare
//! a fresh run against the committed files in `results/golden/` to prove
//! the plan → execute → reduce pipeline reproduces the pre-refactor
//! monolith exactly, at any rayon thread count.

use crate::perf::format_f64;
use crate::policies_spec::PolicyKind;
use crate::runner::{PeriodSearch, PolicyOutcome, RunnerOptions, ScenarioResult};
use crate::scenario::{DistSpec, Scenario};
use ckpt_policies::DpMakespanConfig;
use ckpt_workload::YEAR;

/// The cells pinned by the golden test, as `(file stem, scenario, roster,
/// options)`. Shared by the `gen_golden` binary (which writes
/// `results/golden/<stem>.json`) and the `golden_pipeline` integration
/// test (which re-runs them and byte-compares).
///
/// Coverage: a small Petascale-Weibull cell through the default
/// coarse-to-fine `PeriodLB` search, a sequential Exponential cell through
/// the exhaustive search, a cell whose `Liu` row fails to build
/// (footnote-2 behaviour) so error rows are pinned too, a sequential
/// Exponential `DPMakespan` cell so the Algorithm-1 value recursion has a
/// pinned row (`registry-exhaustive` in ckpt-lint requires every
/// `PolicyKind` label to appear in some golden file), and a sequential
/// Weibull `DPMakespan` cell that pins the age-dependent table (the
/// memoryless cell never leaves the flat fast path).
pub fn golden_cells() -> Vec<(String, Scenario, Vec<PolicyKind>, RunnerOptions)> {
    let peta = Scenario::petascale(
        DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * YEAR },
        1 << 8,
        12,
    );
    let mut seq = Scenario::single_processor(
        DistSpec::Exponential { mtbf: 6.0 * 3_600.0 },
        10,
    );
    seq.total_work = 12.0 * 3_600.0;
    let liu_gap = Scenario::petascale(
        DistSpec::Weibull { shape: 0.3, mtbf: 125.0 * YEAR },
        1 << 12,
        4,
    );
    let mut dp_mk = Scenario::single_processor(
        DistSpec::Exponential { mtbf: 4.0 * 3_600.0 },
        8,
    );
    dp_mk.total_work = 8.0 * 3_600.0;
    let dp_mk_cfg = DpMakespanConfig { quanta: Some(24), assume_memoryless: true };
    let mut dp_mk_aged = Scenario::single_processor(
        DistSpec::Weibull { shape: 0.7, mtbf: 86_400.0 },
        8,
    );
    dp_mk_aged.total_work = 2.0 * 86_400.0;
    let dp_mk_aged_cfg = DpMakespanConfig { quanta: Some(40), assume_memoryless: false };
    vec![
        (
            peta.label.clone(),
            peta,
            PolicyKind::paper_roster(false),
            RunnerOptions::default(),
        ),
        (
            seq.label.clone(),
            seq,
            vec![PolicyKind::Young, PolicyKind::OptExp, PolicyKind::Liu],
            RunnerOptions {
                period_lb: Some(vec![0.5, 1.0, 2.0]),
                period_search: PeriodSearch::Full,
                ..RunnerOptions::default()
            },
        ),
        (
            liu_gap.label.clone(),
            liu_gap,
            vec![PolicyKind::Liu, PolicyKind::Young],
            RunnerOptions { period_lb: None, ..RunnerOptions::default() },
        ),
        (
            dp_mk.label.clone(),
            dp_mk,
            vec![PolicyKind::Young, PolicyKind::DpMakespan(dp_mk_cfg)],
            RunnerOptions { period_lb: None, ..RunnerOptions::default() },
        ),
        (
            dp_mk_aged.label.clone(),
            dp_mk_aged,
            vec![PolicyKind::Young, PolicyKind::DpMakespan(dp_mk_aged_cfg)],
            RunnerOptions { period_lb: None, ..RunnerOptions::default() },
        ),
    ]
}

fn opt_f64(x: Option<f64>) -> String {
    x.map_or_else(|| "null".into(), format_f64)
}

fn opt_u64(x: Option<u64>) -> String {
    x.map_or_else(|| "null".into(), |v| v.to_string())
}

fn opt_str(x: Option<&str>) -> String {
    x.map_or_else(|| "null".into(), |s| format!("\"{}\"", serde_json::escape_str(s)))
}

fn outcome_json(o: &PolicyOutcome) -> String {
    let chunk_range = o.chunk_range.map_or_else(
        || "null".into(),
        |(lo, hi)| format!("[{}, {}]", format_f64(lo), format_f64(hi)),
    );
    format!(
        concat!(
            "{{\"name\": \"{}\", \"avg_degradation\": {}, \"std_degradation\": {}, ",
            "\"mean_makespan\": {}, \"mean_failures\": {}, \"max_failures\": {}, ",
            "\"chunk_range\": {}, \"period_factor\": {}, \"error\": {}}}"
        ),
        serde_json::escape_str(&o.name),
        opt_f64(o.avg_degradation),
        opt_f64(o.std_degradation),
        opt_f64(o.mean_makespan),
        opt_f64(o.mean_failures),
        opt_u64(o.max_failures),
        chunk_range,
        opt_f64(o.period_factor),
        opt_str(o.error.as_deref()),
    )
}

/// Canonical JSON for the deterministic portion of a scenario result.
/// One outcome per line, trailing newline, stable key order.
pub fn golden_json(r: &ScenarioResult) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"label\": \"{}\",\n", serde_json::escape_str(&r.label)));
    s.push_str(&format!("  \"procs\": {},\n", r.procs));
    s.push_str(&format!("  \"traces\": {},\n", r.traces));
    s.push_str(&format!("  \"period_lb_factor\": {},\n", opt_f64(r.period_lb_factor)));
    s.push_str(&format!("  \"policy_sims\": {},\n", r.perf.policy_sims));
    s.push_str(&format!("  \"candidate_sims\": {},\n", r.perf.candidate_sims));
    s.push_str(&format!("  \"candidate_grid_size\": {},\n", r.perf.candidate_grid_size));
    s.push_str(&format!("  \"decisions\": {},\n", r.perf.decisions));
    s.push_str(&format!("  \"failures\": {},\n", r.perf.failures));
    s.push_str("  \"outcomes\": [\n");
    for (i, o) in r.outcomes.iter().enumerate() {
        s.push_str("    ");
        s.push_str(&outcome_json(o));
        s.push_str(if i + 1 < r.outcomes.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::perf::PipelinePerf;

    fn row(name: &str, mk: Option<f64>) -> PolicyOutcome {
        PolicyOutcome {
            name: name.into(),
            avg_degradation: mk.map(|_| 1.0),
            std_degradation: mk.map(|_| 0.1),
            mean_makespan: mk,
            mean_failures: mk.map(|_| 2.5),
            max_failures: mk.map(|_| 4),
            chunk_range: mk.map(|m| (12.25, m)),
            period_factor: None,
            error: mk.is_none().then(|| "did not \"run\"".into()),
        }
    }

    fn result() -> ScenarioResult {
        ScenarioResult {
            label: "cell".into(),
            procs: 8,
            traces: 2,
            outcomes: vec![row("A", Some(123.456)), row("B", None)],
            period_lb_factor: Some(1.0),
            perf: PipelinePerf::default(),
        }
    }

    #[test]
    fn emits_every_outcome_field() {
        let j = golden_json(&result());
        for key in [
            "avg_degradation",
            "std_degradation",
            "mean_makespan",
            "mean_failures",
            "max_failures",
            "chunk_range",
            "period_factor",
            "error",
        ] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key} in {j}");
        }
        assert!(j.contains("\"mean_makespan\": 123.456"));
        assert!(j.contains("\"chunk_range\": [12.25, 123.456]"));
        assert!(j.contains("did not \\\"run\\\""), "error strings must be escaped");
        assert!(j.ends_with("}\n"));
    }

    #[test]
    fn serialisation_separates_bitwise_different_floats() {
        let mut a = result();
        let mut b = result();
        assert_eq!(golden_json(&a), golden_json(&b));
        b.outcomes[0].mean_makespan = Some(123.456 + 1e-10);
        assert_ne!(golden_json(&a), golden_json(&b));
        // Sign of zero is a bit difference format_f64 preserves.
        a.outcomes[0].period_factor = Some(0.0);
        b.outcomes[0].mean_makespan = Some(123.456);
        b.outcomes[0].period_factor = Some(-0.0);
        assert_ne!(golden_json(&a), golden_json(&b));
    }
}
