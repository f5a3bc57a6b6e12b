//! Markdown / CSV emitters mirroring the paper's presentation.

use crate::runner::ScenarioResult;

/// Render one scenario as a markdown table in the format of Tables 2–4
/// ("Degradation from best": avg and std per heuristic).
pub fn markdown_table(result: &ScenarioResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "### {} — p = {}, {} traces\n\n",
        result.label, result.procs, result.traces
    ));
    out.push_str("| Heuristic | avg degradation | std | mean makespan (h) | mean failures |\n");
    out.push_str("|---|---|---|---|---|\n");
    for o in &result.outcomes {
        match (o.avg_degradation, o.std_degradation) {
            (Some(avg), Some(std)) => {
                let mk = o
                    .mean_makespan
                    .map(|m| format!("{:.2}", m / 3_600.0))
                    .unwrap_or_else(|| "—".into());
                let mf = o
                    .mean_failures
                    .map(|f| format!("{f:.1}"))
                    .unwrap_or_else(|| "—".into());
                out.push_str(&format!(
                    "| {} | {avg:.5} | {std:.5} | {mk} | {mf} |\n",
                    o.name
                ));
            }
            _ => {
                let why = o.error.as_deref().unwrap_or("n/a");
                out.push_str(&format!("| {} | — | — | — | — ({why}) |\n", o.name));
            }
        }
    }
    out
}

/// One CSV line per `(scenario, policy)` for a figure series:
/// `x,policy,avg_degradation,std`.
pub fn csv_series(x: f64, result: &ScenarioResult) -> String {
    let mut out = String::new();
    for o in &result.outcomes {
        let (avg, std) = match (o.avg_degradation, o.std_degradation) {
            (Some(a), Some(s)) => (format!("{a:.6}"), format!("{s:.6}")),
            _ => ("".into(), "".into()),
        };
        out.push_str(&format!("{x},{},{avg},{std}\n", o.name));
    }
    out
}

/// CSV header matching [`csv_series`].
pub const CSV_HEADER: &str = "x,policy,avg_degradation,std_degradation\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::PolicyOutcome;

    fn result() -> ScenarioResult {
        ScenarioResult {
            label: "demo".into(),
            procs: 4,
            traces: 10,
            outcomes: vec![
                PolicyOutcome {
                    name: "Young".into(),
                    avg_degradation: Some(1.0123),
                    std_degradation: Some(0.01),
                    mean_makespan: Some(7_200.0),
                    mean_failures: Some(3.4),
                    max_failures: Some(7),
                    chunk_range: Some((100.0, 200.0)),
                    period_factor: None,
                    error: None,
                },
                PolicyOutcome {
                    name: "Liu".into(),
                    avg_degradation: None,
                    std_degradation: None,
                    mean_makespan: None,
                    mean_failures: None,
                    max_failures: None,
                    chunk_range: None,
                    period_factor: None,
                    error: Some("interval < C".into()),
                },
            ],
            period_lb_factor: None,
            perf: crate::perf::PipelinePerf::default(),
        }
    }

    #[test]
    fn markdown_contains_rows_and_errors() {
        let md = markdown_table(&result());
        assert!(md.contains("| Young | 1.01230 | 0.01000 | 2.00 | 3.4 |"));
        assert!(md.contains("interval < C"));
    }

    #[test]
    fn csv_has_one_line_per_policy() {
        let csv = csv_series(1024.0, &result());
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("1024,Young,1.012300,0.010000"));
    }

    #[test]
    fn markdown_heading_names_the_scenario() {
        let md = markdown_table(&result());
        assert!(md.starts_with("### demo — p = 4, 10 traces\n\n"), "{md}");
        // Heading, blank line, header, rule, one row per policy.
        assert_eq!(md.lines().count(), 6);
    }

    #[test]
    fn markdown_dashes_missing_makespan_and_failures() {
        let mut r = result();
        r.outcomes[0].mean_makespan = None;
        r.outcomes[0].mean_failures = None;
        assert!(markdown_table(&r).contains("| Young | 1.01230 | 0.01000 | — | — |"));
    }

    #[test]
    fn csv_leaves_failed_policy_fields_empty() {
        let csv = csv_series(2.5, &result());
        assert_eq!(csv.lines().nth(1), Some("2.5,Liu,,"));
    }

    #[test]
    fn csv_rows_have_the_header_columns() {
        let columns = CSV_HEADER.trim_end().split(',').count();
        assert_eq!(columns, 4);
        for line in csv_series(1024.0, &result()).lines() {
            assert_eq!(line.split(',').count(), columns, "{line}");
        }
    }
}
