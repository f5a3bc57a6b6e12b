//! Minimum-of-`n` wrapper: the platform failure distribution under the
//! all-rejuvenation model, for *any* per-processor distribution.
//!
//! `P(min of n iid X ≥ t) = S(t)ⁿ`, i.e. log-survival scales by `n`. For
//! Weibull this has the closed form `Weibull(λ/n^{1/k}, k)`
//! ([`crate::Weibull::min_of`]); this wrapper covers every other family so
//! that rejuvenation-assuming policies (Bouguerra, parallel DPMakespan)
//! stay distribution-agnostic.

use crate::FailureDistribution;
use rand::RngCore;

/// The distribution of the minimum of `n` iid copies of `inner`.
#[derive(Debug, Clone)]
pub struct MinOf {
    inner: Box<dyn FailureDistribution>,
    n: f64,
}

impl MinOf {
    /// Wrap `inner` as a minimum over `n ≥ 1` copies.
    pub fn new(inner: Box<dyn FailureDistribution>, n: u64) -> Self {
        assert!(n >= 1);
        Self { inner, n: n as f64 }
    }

    /// Number of copies.
    pub fn copies(&self) -> f64 {
        self.n
    }
}

impl FailureDistribution for MinOf {
    fn log_survival(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            self.n * self.inner.log_survival(t)
        }
    }

    fn log_survival_batch(&self, ts: &[f64], out: &mut [f64]) {
        // Delegate the batch to the inner family (Weibull's log-domain
        // pass, Empirical's indexed counting), then apply the `n×`
        // scaling — the same multiply the scalar path performs, so this
        // wrapper adds no FP divergence of its own. `t ≤ 0` entries come
        // back 0 from the inner batch and stay 0 under the scale.
        self.inner.log_survival_batch(ts, out);
        for v in out.iter_mut() {
            *v *= self.n;
        }
    }

    fn mean(&self) -> f64 {
        // E[min] = ∫₀^∞ S(t)ⁿ dt; truncate where S(t)ⁿ < 1e−14.
        let tail = (1e-14f64).ln() / self.n; // target inner log-survival
        let upper = self.inner.inverse_survival(tail.exp().max(f64::MIN_POSITIVE));
        ckpt_math::adaptive_simpson(
            |t| (self.n * self.inner.log_survival(t)).exp(),
            0.0,
            upper.max(1e-12),
            1e-10 * upper.max(1.0),
        )
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        use rand::Rng;
        // S(t)ⁿ = u  ⇔  ln S(t) = ln u / n.
        let u: f64 = 1.0 - rng.gen::<f64>();
        self.inner.inverse_survival((u.ln() / self.n).exp())
    }

    fn inverse_survival(&self, s: f64) -> f64 {
        assert!(s > 0.0 && s <= 1.0);
        self.inner.inverse_survival((s.ln() / self.n).exp())
    }

    fn clone_box(&self) -> Box<dyn FailureDistribution> {
        Box::new(self.clone())
    }

    fn fingerprint(&self) -> Option<u64> {
        // Pure scaling of the inner log-survival: fingerprintable exactly
        // when the inner distribution is.
        self.inner
            .fingerprint()
            .map(|inner| crate::combine_fingerprint(3, &[inner, self.n.to_bits()]))
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the copy count is an integer held in an f64")]
mod tests {
    use super::*;
    use crate::{Exponential, Mixture, Weibull};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_min_is_rate_scaled() {
        let m = MinOf::new(Box::new(Exponential::new(0.001)), 50);
        let e = Exponential::new(0.05);
        for &t in &[1.0, 10.0, 100.0] {
            assert!((m.log_survival(t) - e.log_survival(t)).abs() < 1e-12);
        }
        assert!((m.mean() - 20.0).abs() < 1e-6, "mean {}", m.mean());
    }

    #[test]
    fn weibull_min_matches_closed_form() {
        let w = Weibull::from_mtbf(0.7, 1_000.0);
        let closed = w.min_of(64);
        let generic = MinOf::new(Box::new(w), 64);
        for &t in &[0.1, 1.0, 10.0, 100.0] {
            assert!(
                (generic.log_survival(t) - closed.log_survival(t)).abs() < 1e-9,
                "t = {t}"
            );
        }
        let rel = (generic.mean() - closed.mean()).abs() / closed.mean();
        assert!(rel < 1e-4, "means {} vs {}", generic.mean(), closed.mean());
    }

    #[test]
    fn sampling_matches_survival() {
        let mix = Mixture::new(vec![
            (0.3, Box::new(Exponential::from_mtbf(200.0)) as Box<dyn FailureDistribution>),
            (0.7, Box::new(Weibull::from_mtbf(0.7, 1_500.0))),
        ]);
        let m = MinOf::new(Box::new(mix), 16);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let t0 = m.inverse_survival(0.5);
        let frac = (0..n).filter(|_| m.sample(&mut rng) >= t0).count() as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn more_copies_smaller_mean() {
        let base: Box<dyn FailureDistribution> = Box::new(Weibull::from_mtbf(0.7, 1_000.0));
        let m4 = MinOf::new(base.clone(), 4).mean();
        let m64 = MinOf::new(base, 64).mean();
        assert!(m4 > m64);
    }

    #[test]
    fn single_copy_is_identity() {
        let w = Weibull::from_mtbf(0.7, 500.0);
        let m = MinOf::new(Box::new(w), 1);
        assert!((m.mean() - 500.0).abs() < 0.5);
    }

    #[test]
    fn non_fingerprintable_inner_has_no_fingerprint() {
        let mix = Mixture::new(vec![
            (0.5, Box::new(Exponential::from_mtbf(10.0)) as Box<dyn FailureDistribution>),
            (0.5, Box::new(Exponential::from_mtbf(100.0))),
        ]);
        assert_eq!(MinOf::new(Box::new(mix), 8).fingerprint(), None);
        assert!(MinOf::new(Box::new(Exponential::from_mtbf(10.0)), 8).fingerprint().is_some());
    }

    #[test]
    fn batch_matches_scalar_log_survival() {
        let m = MinOf::new(Box::new(Weibull::from_mtbf(0.7, 1_000.0)), 64);
        let ts = [-1.0, 0.0, 0.1, 3.0, 50.0, 800.0, 1e5];
        let mut out = [0.0; 7];
        m.log_survival_batch(&ts, &mut out);
        for (&t, &b) in ts.iter().zip(&out) {
            let s = m.log_survival(t);
            assert!((b - s).abs() <= 1e-12 * s.abs(), "t = {t}: batch {b} vs scalar {s}");
        }
    }

    #[test]
    fn inverse_survival_round_trips() {
        let m = MinOf::new(Box::new(Weibull::from_mtbf(0.5, 2_000.0)), 10);
        for &s in &[0.9, 0.5, 0.1, 1e-3] {
            let got = m.survival(m.inverse_survival(s));
            assert!((got - s).abs() < 1e-6 * s.max(1e-3), "s = {s}: got {got}");
        }
        assert_eq!(m.copies(), 10.0);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_copies() {
        MinOf::new(Box::new(Exponential::new(1.0)), 0);
    }
}
