//! Exponential distribution — the memoryless baseline of §2.3.1.

use crate::FailureDistribution;
use rand::RngCore;

/// Exponential failure inter-arrival times with rate `λ` (density
/// `λ e^{−λt}`), i.e. mean `1/λ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// From rate `λ > 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "λ must be positive");
        Self { lambda }
    }

    /// From mean time between failures (`λ = 1/MTBF`).
    pub fn from_mtbf(mtbf: f64) -> Self {
        assert!(mtbf > 0.0 && mtbf.is_finite(), "MTBF must be positive");
        Self::new(1.0 / mtbf)
    }

    /// Rate parameter `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Lemma 1 closed form: `E[Tlost(ω)] = 1/λ − ω/(e^{λω} − 1)`.
    pub fn expected_loss_closed_form(&self, x: f64) -> f64 {
        assert!(x >= 0.0);
        if x == 0.0 { // exact zero fast path, not a tolerance check
            return 0.0;
        }
        let lx = self.lambda * x;
        if lx < 1e-8 {
            // Series: 1/λ − ω/(λω + (λω)²/2 + …) → ω/2 − λω²/12 + …
            return 0.5 * x - lx * x / 12.0;
        }
        1.0 / self.lambda - x / lx.exp_m1()
    }
}

impl FailureDistribution for Exponential {
    fn log_survival(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            -self.lambda * t
        }
    }

    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.inverse_survival(crate::survival_draw(rng))
    }

    fn first_draw_cutoff(&self, horizon: f64) -> Option<f64> {
        Some(crate::inversion_cutoff(self.log_survival(horizon)))
    }

    fn inverse_survival(&self, s: f64) -> f64 {
        assert!(s > 0.0 && s <= 1.0);
        -s.ln() / self.lambda
    }

    fn expected_loss(&self, x: f64, _tau: f64) -> f64 {
        // Memoryless: age is irrelevant; use Lemma 1.
        self.expected_loss_closed_form(x)
    }

    fn clone_box(&self) -> Box<dyn FailureDistribution> {
        Box::new(*self)
    }

    fn fingerprint(&self) -> Option<u64> {
        // log_survival is a pure function of the rate bits.
        Some(crate::combine_fingerprint(2, &[self.lambda.to_bits()]))
    }

    fn is_memoryless(&self) -> bool {
        true
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "boundary values are exact: S(t < 0) = 1, F^-1(1) = 0")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn survival_closed_form() {
        let d = Exponential::new(0.5);
        assert!((d.survival(2.0) - (-1.0f64).exp()).abs() < 1e-15);
        assert_eq!(d.survival(-1.0), 1.0);
    }

    #[test]
    fn memoryless_psuc() {
        let d = Exponential::new(1e-3);
        for &tau in &[0.0, 100.0, 1e6] {
            let p = d.psuc(500.0, tau);
            assert!((p - (-0.5f64).exp()).abs() < 1e-12, "τ = {tau}");
        }
    }

    #[test]
    fn inverse_survival_closed_form() {
        let d = Exponential::new(2.0);
        assert!((d.inverse_survival(0.5) - 0.5f64.ln().abs() / 2.0).abs() < 1e-12);
        assert_eq!(d.inverse_survival(1.0), 0.0);
    }

    #[test]
    fn sample_mean_converges() {
        let d = Exponential::from_mtbf(250.0);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 250.0).abs() < 3.0, "sample mean {mean}");
    }

    #[test]
    fn loss_closed_form_small_argument_series() {
        let d = Exponential::new(1e-9);
        // λx = 1e-7: naive formula cancels; the series path must give ≈ x/2.
        let e = d.expected_loss_closed_form(100.0);
        assert!((e - 50.0).abs() < 1e-4, "got {e}");
    }

    #[test]
    fn loss_saturates_at_mean() {
        let d = Exponential::new(0.01);
        // As the window → ∞, E[Tlost] → 1/λ.
        let e = d.expected_loss(1e6, 0.0);
        assert!((e - 100.0).abs() < 1e-6, "got {e}");
    }

    #[test]
    fn samples_are_positive_and_finite() {
        let d = Exponential::new(1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!(x > 0.0 && x.is_finite());
        }
    }

    #[test]
    fn log_survival_is_linear_in_time() {
        // A constant hazard λ: ln S(t) = −λ·t, with equal steps for equal
        // increments of t.
        let d = Exponential::new(0.25);
        for &t in &[0.5, 1.0, 8.0, 1e3] {
            assert!((d.log_survival(t) + 0.25 * t).abs() <= 1e-15 * t, "t = {t}");
            let step = d.log_survival(t + 1.0) - d.log_survival(t);
            assert!((step + 0.25).abs() < 1e-12, "t = {t}: step {step}");
        }
    }

    #[test]
    fn fingerprint_tracks_the_rate() {
        let a = Exponential::from_mtbf(3_600.0).fingerprint();
        assert!(a.is_some());
        assert_eq!(a, Exponential::from_mtbf(3_600.0).fingerprint());
        assert_ne!(a, Exponential::from_mtbf(3_601.0).fingerprint());
    }
}
