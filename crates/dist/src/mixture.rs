//! Finite mixtures of failure distributions.
//!
//! The synthetic LANL-like logs (`ckpt-traces`) are drawn from a mixture of
//! a short-interval Weibull spike and a heavy long-interval component,
//! mirroring the bimodal availability-duration histograms reported for
//! production clusters.

use crate::FailureDistribution;
use rand::RngCore;

/// A weighted mixture `Σ wᵢ · Dᵢ` of failure distributions.
#[derive(Debug, Clone)]
pub struct Mixture {
    components: Vec<(f64, Box<dyn FailureDistribution>)>,
}

impl Mixture {
    /// Build from `(weight, distribution)` pairs; weights are normalised.
    ///
    /// # Panics
    /// Panics if empty or any weight is non-positive.
    pub fn new(components: Vec<(f64, Box<dyn FailureDistribution>)>) -> Self {
        assert!(!components.is_empty(), "Mixture: no components");
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(
            components.iter().all(|(w, _)| *w > 0.0) && total > 0.0,
            "Mixture: weights must be positive"
        );
        let components = components
            .into_iter()
            .map(|(w, d)| (w / total, d))
            .collect();
        Self { components }
    }

    /// Component count.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the mixture has no components (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

impl FailureDistribution for Mixture {
    fn log_survival(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        // log Σ wᵢ e^{lsᵢ} via log-sum-exp.
        let terms: Vec<f64> = self
            .components
            .iter()
            .map(|(w, d)| w.ln() + d.log_survival(t))
            .collect();
        let m = terms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if m == f64::NEG_INFINITY { // -inf log-survival sentinel is an exact bit pattern
            return f64::NEG_INFINITY;
        }
        m + terms.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
    }

    fn mean(&self) -> f64 {
        self.components.iter().map(|(w, d)| w * d.mean()).sum()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        use rand::Rng;
        let mut u: f64 = rng.gen();
        // Rounding fallthrough lands on the last component (construction
        // guarantees at least one).
        let mut pick = self.components.len() - 1;
        for (i, (w, _)) in self.components.iter().enumerate() {
            if u < *w {
                pick = i;
                break;
            }
            u -= w;
        }
        self.components[pick].1.sample(rng)
    }

    fn clone_box(&self) -> Box<dyn FailureDistribution> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "a one-component mixture is its component bit for bit, and 0 past the support")]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{Exponential, Weibull};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_component() -> Mixture {
        Mixture::new(vec![
            (0.3, Box::new(Exponential::new(0.1)) as Box<dyn FailureDistribution>),
            (0.7, Box::new(Exponential::new(0.001))),
        ])
    }

    #[test]
    fn mean_is_weighted() {
        let m = two_component();
        assert!((m.mean() - (0.3 * 10.0 + 0.7 * 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn survival_is_weighted() {
        let m = two_component();
        let t = 100.0;
        let expect = 0.3 * (-10.0f64).exp() + 0.7 * (-0.1f64).exp();
        assert!((m.survival(t) - expect).abs() < 1e-12);
    }

    #[test]
    fn weights_normalise() {
        let m = Mixture::new(vec![
            (3.0, Box::new(Exponential::new(1.0)) as Box<dyn FailureDistribution>),
            (1.0, Box::new(Exponential::new(1.0))),
        ]);
        // Identical components: behaves like a single Exponential(1).
        assert!((m.mean() - 1.0).abs() < 1e-12);
        assert!((m.survival(1.0) - (-1.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn sample_mean_converges() {
        let m = two_component();
        let mut rng = StdRng::seed_from_u64(19);
        let n = 400_000;
        let mean: f64 = (0..n).map(|_| m.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - m.mean()).abs() < 0.01 * m.mean(), "got {mean}");
    }

    #[test]
    fn weibull_spike_plus_tail_has_decreasing_conditional_hazard() {
        let m = Mixture::new(vec![
            (0.5, Box::new(Weibull::from_mtbf(0.6, 60.0)) as Box<dyn FailureDistribution>),
            (0.5, Box::new(Weibull::from_mtbf(0.6, 50_000.0))),
        ]);
        // Survivors of the spike are mostly long-interval draws.
        assert!(m.psuc(100.0, 5_000.0) > m.psuc(100.0, 0.0));
    }

    #[test]
    #[should_panic]
    fn rejects_empty() {
        Mixture::new(vec![]);
    }

    #[test]
    fn single_component_is_that_component() {
        // The weight normalises to 1, so ln w = 0 and log-sum-exp is the identity.
        let w = Weibull::from_mtbf(0.7, 1_000.0);
        let m = Mixture::new(vec![(3.0, Box::new(w) as Box<dyn FailureDistribution>)]);
        assert_eq!(m.len(), 1);
        for &t in &[0.5, 10.0, 1_000.0, 1e6] {
            assert_eq!(m.log_survival(t), w.log_survival(t), "t = {t}");
        }
    }

    #[test]
    fn bounded_components_reach_zero_survival_together() {
        let short = crate::Empirical::from_durations(vec![1.0, 2.0]);
        let long = crate::Empirical::from_durations(vec![10.0, 20.0]);
        let m = Mixture::new(vec![
            (0.5, Box::new(short) as Box<dyn FailureDistribution>),
            (0.5, Box::new(long)),
        ]);
        // Past the short support only the long half survives; past both, nothing does.
        assert!((m.survival(5.0) - 0.5).abs() < 1e-12);
        assert_eq!(m.log_survival(25.0), f64::NEG_INFINITY);
        assert_eq!(m.psuc(1.0, 25.0), 0.0);
    }

    #[test]
    fn has_no_fingerprint() {
        assert_eq!(two_component().fingerprint(), None);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_weight() {
        Mixture::new(vec![
            (1.0, Box::new(Exponential::new(1.0)) as Box<dyn FailureDistribution>),
            (0.0, Box::new(Exponential::new(2.0))),
        ]);
    }
}
