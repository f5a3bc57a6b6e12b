//! The single `PolicyKind → Box<dyn Policy>` construction site.
//!
//! Every consumer — the scenario runner, the `ckpt-exp` CLI, the bench
//! crate — instantiates policies through [`build_policy`], so the
//! scenario-specific wiring (Bouguerra's rejuvenated-platform
//! distribution, DPMakespan's "false assumption" macro-processor,
//! Liu's Weibull-fit requirement) lives in exactly one place.
//! [`parse_kind`] maps user-facing names (case-insensitive) onto kinds
//! for the CLI, and [`optexp_base`] is the `OptExp` instance the
//! `PeriodLB` search scales.

use crate::error::Error;
use crate::policies_spec::PolicyKind;
use crate::scenario::{BuiltDist, Scenario};
use ckpt_dist::{Exponential, FailureDistribution, MinOf, Weibull};
use ckpt_policies::{
    daly_high, daly_low, young, Bouguerra, DpMakespan, DpNextFailure, Liu, OptExp, Policy,
};
use ckpt_workload::JobSpec;

/// The `OptExp` instance whose period `PeriodLB` candidates scale
/// (Theorem 1 at the scenario's effective per-processor MTBF).
pub fn optexp_base(spec: &JobSpec, proc_mtbf: f64) -> OptExp {
    OptExp::from_mtbf(spec, proc_mtbf)
}

/// Instantiate `kind` for a scenario.
///
/// # Errors
/// [`Error::Policy`] when the policy cannot produce a meaningful schedule
/// for this cell — Liu without a Weibull/Exponential fit, or Liu's
/// footnote-2 nonsensical placements. The error's `Display` is the bare
/// reason, reported as a gap exactly like the paper's incomplete curves.
pub fn build_policy(
    kind: &PolicyKind,
    scenario: &Scenario,
    built: &BuiltDist,
) -> Result<Box<dyn Policy>, Error> {
    let spec = scenario.job_spec();
    let proc_mtbf = built.proc_mtbf;
    match kind {
        PolicyKind::Young => Ok(Box::new(young(&spec, proc_mtbf))),
        PolicyKind::DalyLow => Ok(Box::new(daly_low(&spec, proc_mtbf))),
        PolicyKind::DalyHigh => Ok(Box::new(daly_high(&spec, proc_mtbf))),
        PolicyKind::OptExp => Ok(Box::new(optexp_base(&spec, proc_mtbf))),
        PolicyKind::OptExpScaled(f) => Ok(Box::new(
            optexp_base(&spec, proc_mtbf).as_fixed_period().scaled(*f),
        )),
        PolicyKind::Bouguerra => {
            // The rejuvenated-platform distribution: minimum over all
            // enrolled processors (units scaled accordingly).
            let units = built.topology.units_for_procs(scenario.procs) as u64;
            let plat = MinOf::new(built.dist.clone_box(), units.max(1));
            Ok(Box::new(Bouguerra::new(&spec, &plat)))
        }
        PolicyKind::Liu => {
            let Some(shape) = built.weibull_shape else {
                return Err(Error::Policy {
                    name: "Liu".into(),
                    reason: "Liu requires a Weibull (or Exponential) fit".into(),
                });
            };
            let proc = Weibull::from_mtbf(shape, proc_mtbf);
            Liu::new(&spec, &proc)
                .map(|l| Box::new(l) as Box<dyn Policy>)
                .map_err(|reason| Error::Policy { name: "Liu".into(), reason })
        }
        PolicyKind::DpNextFailure(cfg) => Ok(Box::new(DpNextFailure::new(
            &spec,
            built.dist.clone_box(),
            proc_mtbf,
            *cfg,
        ))),
        PolicyKind::DpMakespan(cfg) => {
            Ok(Box::new(DpMakespan::new(&spec, dp_makespan_law(scenario, built), *cfg)))
        }
    }
}

/// The failure law `DPMakespan` plans on. p = 1: the true distribution.
/// p > 1: the paper's "false assumption" — the rejuvenated platform
/// distribution (macro-processor pλ for Exponential, min-of-p
/// otherwise). `DPMakespan` collapses its age dimension exactly when
/// this law [is memoryless](FailureDistribution::is_memoryless).
pub fn dp_makespan_law(scenario: &Scenario, built: &BuiltDist) -> Box<dyn FailureDistribution> {
    let units = built.topology.units_for_procs(scenario.procs) as u64;
    if units <= 1 {
        built.dist.clone_box()
    } else if built.weibull_shape == Some(1.0) {
        Box::new(Exponential::from_mtbf(built.proc_mtbf / scenario.procs as f64))
    } else {
        Box::new(MinOf::new(built.dist.clone_box(), units))
    }
}

/// Every name [`parse_kind`] accepts, in canonical spelling.
pub fn known_policy_names() -> Vec<String> {
    [
        "Young",
        "DalyLow",
        "DalyHigh",
        "OptExp",
        "Bouguerra",
        "Liu",
        "DPNextFailure",
        "DPMakespan",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect()
}

/// Map a user-facing policy name (case-insensitive, e.g. from the CLI)
/// onto its kind with default configuration.
///
/// # Errors
/// [`Error::UnknownPolicy`] listing every known name.
pub fn parse_kind(name: &str) -> Result<PolicyKind, Error> {
    match name.to_ascii_lowercase().as_str() {
        "young" => Ok(PolicyKind::Young),
        "dalylow" => Ok(PolicyKind::DalyLow),
        "dalyhigh" => Ok(PolicyKind::DalyHigh),
        "optexp" => Ok(PolicyKind::OptExp),
        "bouguerra" => Ok(PolicyKind::Bouguerra),
        "liu" => Ok(PolicyKind::Liu),
        "dpnextfailure" => Ok(PolicyKind::DpNextFailure(Default::default())),
        "dpmakespan" => Ok(PolicyKind::DpMakespan(Default::default())),
        _ => Err(Error::UnknownPolicy {
            requested: name.to_string(),
            known: known_policy_names(),
        }),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::scenario::DistSpec;
    use ckpt_workload::YEAR;

    #[test]
    fn parse_kind_is_case_insensitive() {
        assert_eq!(parse_kind("dpnextfailure").unwrap().name(), "DPNextFailure");
        assert_eq!(parse_kind("DPNEXTFAILURE").unwrap().name(), "DPNextFailure");
        assert_eq!(parse_kind("Young").unwrap(), PolicyKind::Young);
    }

    #[test]
    fn parse_kind_unknown_lists_names() {
        let e = parse_kind("noexist").unwrap_err();
        let Error::UnknownPolicy { requested, known } = e else {
            panic!("wrong variant: {e:?}");
        };
        assert_eq!(requested, "noexist");
        assert_eq!(known.len(), 8);
    }

    #[test]
    fn registry_and_kind_name_agree() {
        // Exhaustive on purpose: a new variant does not compile here until
        // it joins the paper roster (and so `parse_kind`, the CLI names
        // and a golden row below) or is declared calibration-only.
        let in_roster = |kind: &PolicyKind| match kind {
            PolicyKind::Young
            | PolicyKind::DalyLow
            | PolicyKind::DalyHigh
            | PolicyKind::OptExp
            | PolicyKind::Bouguerra
            | PolicyKind::Liu
            | PolicyKind::DpNextFailure(_)
            | PolicyKind::DpMakespan(_) => true,
            PolicyKind::OptExpScaled(_) => false,
        };
        let roster = PolicyKind::paper_roster(true);
        assert!(roster.iter().all(in_roster));
        let mut roster_names: Vec<String> = roster.iter().map(PolicyKind::name).collect();
        let mut known = known_policy_names();
        roster_names.sort();
        known.sort();
        assert_eq!(known, roster_names);

        let golden_dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden");
        let mut golden_rows = std::collections::BTreeSet::new();
        for entry in std::fs::read_dir(&golden_dir).expect("results/golden is readable") {
            let path = entry.expect("golden entry").path();
            let doc = crate::jsonio::parse(&std::fs::read_to_string(&path).expect("golden file"))
                .expect("golden JSON parses");
            for row in doc.get("outcomes").and_then(|o| o.as_arr()).expect("outcomes array") {
                let name = row.get("name").and_then(|n| n.as_str()).expect("row name");
                golden_rows.insert(name.to_string());
            }
        }
        for name in &known {
            assert_eq!(&parse_kind(name).expect("canonical names parse").name(), name);
            assert!(golden_rows.contains(name), "{name} has no row in results/golden/");
        }

        let dist = DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * YEAR };
        let s = crate::scenario::Scenario::petascale(dist.clone(), 1 << 10, 1);
        let b = dist.build();
        for name in known_policy_names() {
            let mut kind = parse_kind(&name).expect("canonical names parse");
            // Cap the DP table resolutions — this test checks wiring, not
            // full-resolution planning cost.
            match &mut kind {
                PolicyKind::DpMakespan(cfg) => cfg.quanta = Some(20),
                PolicyKind::DpNextFailure(cfg) => cfg.quanta = Some(64),
                _ => {}
            }
            let policy = build_policy(&kind, &s, &b).expect("builds at this cell");
            assert_eq!(policy.name(), kind.name(), "{name}");
        }
    }

    /// Every `DPMakespan` row of the `paper` and `golden` studies plans on
    /// a memoryless law exactly where the cell's failures are Exponential
    /// or Weibull k = 1 (`weibull_shape == Some(1.0)`): on the cells the
    /// studies run, reading memorylessness from the law and the shape
    /// rule pick the same table.
    #[test]
    fn dp_makespan_law_is_memoryless_exactly_at_shape_one() {
        let params = crate::catalog::Params { traces: Some(1), ..Default::default() };
        let mut parts = crate::catalog::lookup(crate::catalog::PAPER).expect("paper study");
        parts.extend(crate::catalog::lookup("golden").expect("golden study"));
        let mut checked = 0;
        for cell in crate::catalog::def("law-check", &parts, &params).cells {
            if !cell.kinds.iter().any(|k| matches!(k, PolicyKind::DpMakespan(_))) {
                continue;
            }
            let built = cell.scenario.dist.build();
            let law = dp_makespan_law(&cell.scenario, &built);
            assert_eq!(
                law.is_memoryless(),
                built.weibull_shape == Some(1.0),
                "{} (p = {})",
                cell.stem,
                cell.scenario.procs
            );
            checked += 1;
        }
        assert!(checked >= 10, "only {checked} DPMakespan cells");
    }

    #[test]
    fn liu_error_is_policy_variant_with_bare_reason() {
        let dist = DistSpec::LanlLog { cluster: 19 };
        let s = crate::scenario::Scenario::petascale(dist.clone(), 4_096, 1);
        let b = dist.build();
        let Err(e) = build_policy(&PolicyKind::Liu, &s, &b) else {
            panic!("Liu must not build without a Weibull fit");
        };
        assert_eq!(e.to_string(), "Liu requires a Weibull (or Exponential) fit");
    }
}
