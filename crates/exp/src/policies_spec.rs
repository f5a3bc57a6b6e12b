//! Declarative policy lists, instantiated per scenario.

use crate::error::Error;
use crate::scenario::{BuiltDist, Scenario};
use ckpt_policies::{DpMakespanConfig, DpNextFailureConfig, Policy};

/// Which policy to instantiate for a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyKind {
    /// Young 1974.
    Young,
    /// Daly 2004 lower-order.
    DalyLow,
    /// Daly 2004 higher-order.
    DalyHigh,
    /// Theorem 1 / Proposition 5.
    OptExp,
    /// Bouguerra et al. (rejuvenation assumption).
    Bouguerra,
    /// Liu et al. hazard-frequency placement.
    Liu,
    /// Algorithm 2 + §3.3.
    DpNextFailure(DpNextFailureConfig),
    /// Algorithm 1 (on the rejuvenated platform distribution when p > 1).
    DpMakespan(DpMakespanConfig),
    /// OptExp's period scaled by a factor (`PeriodVariation`).
    OptExpScaled(f64),
}

impl PolicyKind {
    /// The §4.1 roster for synthetic-failure experiments. `DPMakespan` is
    /// included only when the distribution supports it the way the paper
    /// uses it (Exponential, or 1-processor / rejuvenated Weibull).
    pub fn paper_roster(include_dp_makespan: bool) -> Vec<Self> {
        let mut v = vec![
            Self::Young,
            Self::DalyLow,
            Self::DalyHigh,
            Self::Liu,
            Self::Bouguerra,
            Self::OptExp,
            Self::DpNextFailure(DpNextFailureConfig::default()),
        ];
        if include_dp_makespan {
            v.push(Self::DpMakespan(DpMakespanConfig::default()));
        }
        v
    }

    /// The §6 roster for log-based experiments (Liu, Bouguerra and
    /// DPMakespan cannot be adapted, as the paper notes).
    pub fn log_based_roster() -> Vec<Self> {
        vec![
            Self::Young,
            Self::DalyLow,
            Self::DalyHigh,
            Self::OptExp,
            Self::DpNextFailure(DpNextFailureConfig::default()),
        ]
    }

    /// Instantiate for a scenario — a thin forwarder to the single
    /// construction site, [`crate::registry::build_policy`]. `Err` carries
    /// the reason a policy cannot produce a meaningful schedule (Liu's
    /// `interval < C` case), reported as a gap exactly like the paper's
    /// incomplete curves.
    pub fn build(
        &self,
        scenario: &Scenario,
        built: &BuiltDist,
    ) -> Result<Box<dyn Policy>, Error> {
        crate::registry::build_policy(self, scenario, built)
    }

    /// Display name (matches the paper's legends).
    pub fn name(&self) -> String {
        match self {
            Self::Young => "Young".into(),
            Self::DalyLow => "DalyLow".into(),
            Self::DalyHigh => "DalyHigh".into(),
            Self::OptExp => "OptExp".into(),
            Self::Bouguerra => "Bouguerra".into(),
            Self::Liu => "Liu".into(),
            Self::DpNextFailure(_) => "DPNextFailure".into(),
            Self::DpMakespan(_) => "DPMakespan".into(),
            Self::OptExpScaled(f) => format!("OptExp*{f:.4}"),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::scenario::DistSpec;
    use ckpt_workload::YEAR;

    fn weibull_cell(p: u64) -> (Scenario, BuiltDist) {
        let dist = DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * YEAR };
        let s = Scenario::petascale(dist.clone(), p, 1);
        let b = dist.build();
        (s, b)
    }

    #[test]
    fn roster_sizes() {
        assert_eq!(PolicyKind::paper_roster(true).len(), 8);
        assert_eq!(PolicyKind::paper_roster(false).len(), 7);
        assert_eq!(PolicyKind::log_based_roster().len(), 5);
    }

    #[test]
    fn periodic_policies_build() {
        let (s, b) = weibull_cell(4_096);
        for kind in [PolicyKind::Young, PolicyKind::DalyLow, PolicyKind::DalyHigh, PolicyKind::OptExp]
        {
            let p = kind.build(&s, &b).expect("periodic policies always build");
            assert_eq!(p.name(), kind.name());
        }
    }

    #[test]
    fn liu_fails_at_petascale_small_shape() {
        // Footnote-2 behaviour: nonsensical intervals on big platforms
        // with small Weibull shapes.
        let dist = DistSpec::Weibull { shape: 0.5, mtbf: 125.0 * YEAR };
        let s = Scenario::petascale(dist.clone(), 45_208, 1);
        let b = dist.build();
        let e = PolicyKind::Liu.build(&s, &b);
        assert!(e.is_err(), "footnote-2 behaviour expected");
    }

    #[test]
    fn liu_fails_at_exascale_paper_shape() {
        let dist = DistSpec::Weibull { shape: 0.7, mtbf: 1_250.0 * YEAR };
        let s = Scenario::exascale(dist.clone(), 1 << 20, 1);
        let b = dist.build();
        assert!(PolicyKind::Liu.build(&s, &b).is_err());
    }

    #[test]
    fn liu_unavailable_for_log_based() {
        let dist = DistSpec::LanlLog { cluster: 19 };
        let s = Scenario::petascale(dist.clone(), 4_096, 1);
        let b = dist.build();
        assert!(PolicyKind::Liu.build(&s, &b).is_err());
    }

    #[test]
    fn scaled_optexp_scales() {
        let (s, b) = weibull_cell(4_096);
        let base = PolicyKind::OptExp.build(&s, &b).unwrap();
        let scaled = PolicyKind::OptExpScaled(2.0).build(&s, &b).unwrap();
        // Compare first chunks through sessions.
        let ages = ckpt_platform::AgeView::all_pristine(4_096, 0.0);
        let w = s.job_spec().work;
        let c0 = base.session().next_chunk(w, &ages, 0.0);
        let c1 = scaled.session().next_chunk(w, &ages, 0.0);
        assert!((c1 / c0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dp_policies_build_for_weibull_parallel() {
        let (s, b) = weibull_cell(1_024);
        assert!(PolicyKind::DpNextFailure(Default::default()).build(&s, &b).is_ok());
        // Parallel Weibull DPMakespan builds on the min-of distribution.
        let cfg = ckpt_policies::DpMakespanConfig { quanta: Some(20) };
        assert!(PolicyKind::DpMakespan(cfg).build(&s, &b).is_ok());
    }
}
