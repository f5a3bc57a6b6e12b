//! Output check: per-cell digests (compared against the committed ones
//! by `run.py`) and the invariants every seed must satisfy.

use ckpt_exp::runner::ScenarioResult;
use ckpt_exp::Error;

/// Liu's footnote-2 gap: the paper's own absent row.
const LIU_GAP: &str = "is smaller than the checkpoint duration";

/// Tolerance of the ≤ 1 / ≥ 1 degradation invariants.
const EPS: f64 = 1e-12;

/// The check of one cell.
pub struct CellCheck {
    pub label: String,
    /// Rows attempted (expected rows of the cell).
    pub rows: usize,
    /// Rows that failed an invariant, went missing, or belong to an
    /// errored cell.
    pub failed_rows: usize,
    pub problems: Vec<String>,
    /// FNV-1a 64 of `golden::golden_json` of the result (hex).
    pub golden: Option<String>,
    /// FNV-1a 64 of the on-disk `aggregate/<stem>.json` (store runs).
    pub aggregate: Option<String>,
}

/// FNV-1a 64, as hex: the digest committed under `golden/`.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn finite(x: Option<f64>) -> bool {
    x.is_none_or(f64::is_finite)
}

/// Check one cell's result against the rows it must report.
pub fn check_cell(
    label: &str,
    expected: &[String],
    result: &Result<ScenarioResult, Error>,
) -> CellCheck {
    let mut check = CellCheck {
        label: label.to_string(),
        rows: expected.len(),
        failed_rows: 0,
        problems: Vec::new(),
        golden: None,
        aggregate: None,
    };
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            check.failed_rows = expected.len();
            check.problems.push(format!("cell failed: {e}"));
            return check;
        }
    };
    check.golden = Some(digest(ckpt_exp::golden::golden_json(r).as_bytes()));
    let mean = |name: &str| r.get(name).and_then(|o| o.mean_makespan);
    for name in expected {
        let problem = match r.get(name) {
            None => Some("row missing".to_string()),
            Some(o) => match &o.error {
                Some(e) if name == "Liu" && e.contains(LIU_GAP) => None,
                Some(e) => Some(format!("absent: {e}")),
                None => {
                    let avg = o.avg_degradation.unwrap_or(f64::NAN);
                    let values_finite = [o.avg_degradation, o.std_degradation, o.mean_makespan]
                        .iter()
                        .all(|v| v.is_some_and(f64::is_finite))
                        && finite(o.mean_failures)
                        && finite(o.period_factor)
                        && o.chunk_range
                            .is_none_or(|(lo, hi)| lo.is_finite() && hi.is_finite());
                    if !values_finite {
                        Some("non-finite value".to_string())
                    } else if name == "LowerBound" && avg > 1.0 + EPS {
                        Some(format!("average degradation {avg} > 1"))
                    } else if name != "LowerBound" && avg < 1.0 - EPS {
                        Some(format!("average degradation {avg} < 1"))
                    } else if name == "PeriodLB" {
                        match (mean("PeriodLB"), mean("OptExp")) {
                            (Some(plb), Some(opt)) if plb > opt * (1.0 + EPS) => {
                                Some(format!("mean makespan {plb} > OptExp's {opt}"))
                            }
                            _ => None,
                        }
                    } else {
                        None
                    }
                }
            },
        };
        if let Some(p) = problem {
            check.failed_rows += 1;
            check.problems.push(format!("{name}: {p}"));
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_exp::runner::PolicyOutcome;

    fn row(name: &str, avg: f64, mean: f64) -> PolicyOutcome {
        PolicyOutcome {
            name: name.into(),
            avg_degradation: Some(avg),
            std_degradation: Some(0.0),
            mean_makespan: Some(mean),
            mean_failures: None,
            max_failures: None,
            chunk_range: None,
            period_factor: None,
            error: None,
        }
    }

    fn result(outcomes: Vec<PolicyOutcome>) -> Result<ScenarioResult, Error> {
        Ok(ScenarioResult {
            label: "cell".into(),
            procs: 1,
            traces: 1,
            outcomes,
            period_lb_factor: None,
            perf: Default::default(),
        })
    }

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn valid_cell_passes() {
        let r = result(vec![
            row("LowerBound", 0.9, 90.0),
            row("PeriodLB", 1.0, 100.0),
            row("OptExp", 1.01, 101.0),
        ]);
        let c = check_cell("cell", &names(&["LowerBound", "PeriodLB", "OptExp"]), &r);
        assert_eq!((c.rows, c.failed_rows), (3, 0), "{:?}", c.problems);
        assert!(c.golden.is_some());
    }

    #[test]
    fn each_invariant_fails_its_row() {
        let mut liu = row("Liu", 1.0, 1.0);
        liu.error = Some("boom".into());
        let mut nan = row("Young", f64::NAN, 1.0);
        nan.std_degradation = Some(f64::NAN);
        let r = result(vec![
            row("LowerBound", 1.5, 90.0),
            row("PeriodLB", 1.0, 102.0),
            row("OptExp", 0.5, 101.0),
            liu,
            nan,
        ]);
        let expected = names(&["LowerBound", "PeriodLB", "OptExp", "Liu", "Young", "Daly"]);
        let c = check_cell("cell", &expected, &r);
        assert_eq!(c.failed_rows, 6, "{:?}", c.problems);
    }

    #[test]
    fn liu_gap_is_not_a_failure() {
        let mut liu = row("Liu", 1.0, 1.0);
        liu.error = Some(format!("Liu interval 1 = 5.0s {LIU_GAP} C = 600.0s"));
        let c = check_cell("cell", &names(&["Liu"]), &result(vec![liu]));
        assert_eq!(c.failed_rows, 0);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}
