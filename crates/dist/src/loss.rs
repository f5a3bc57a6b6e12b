//! Conditional expected-loss quadrature (`E[Tlost(x|τ)]`, §2.3).
//!
//! For a failure that strikes while a chunk of duration `x` is running on a
//! processor of age `τ`, the expected amount of time already spent is
//!
//! ```text
//! E[X − τ | τ ≤ X < τ+x] = ∫₀ˣ (S(τ+s) − S(τ+x)) ds / (S(τ) − S(τ+x)).
//! ```
//!
//! With MTBFs of centuries and chunks of minutes both numerator and
//! denominator are differences of numbers within 1e−10 of each other, so we
//! rewrite them with `expm1` of log-survival differences:
//!
//! ```text
//! S(τ+s) − S(τ+x) = S(τ+x) · expm1(lsΔ(s)),   lsΔ(s) = lnS(τ+s) − lnS(τ+x) ≥ 0
//! S(τ)   − S(τ+x) = S(τ)   · (−expm1(Δ)),     Δ     = lnS(τ+x) − lnS(τ)   ≤ 0
//! ```
//!
//! giving `E = e^Δ · ∫₀ˣ expm1(lsΔ(s)) ds / (−expm1(Δ))`, every factor of
//! which is well-scaled.

use crate::FailureDistribution;

/// Generic well-conditioned evaluation of `E[Tlost(x|τ)]`.
///
/// Falls back to `x/2` when the conditioning event (a failure within `x`)
/// has vanishing probability — the value is then irrelevant to any policy
/// because it is always multiplied by that probability.
pub fn expected_loss<D: FailureDistribution + ?Sized>(dist: &D, x: f64, tau: f64) -> f64 {
    assert!(x >= 0.0, "expected_loss: x must be non-negative");
    if x == 0.0 { // exact zero fast path, not a tolerance check
        return 0.0;
    }
    let tau = tau.max(0.0);
    let ls_tau = dist.log_survival(tau);
    let ls_end = dist.log_survival(tau + x);
    if ls_tau == f64::NEG_INFINITY { // -inf log-survival sentinel is an exact bit pattern
        // Already past the support: the "loss" is immaterial.
        return 0.0;
    }
    let delta = ls_end - ls_tau; // ≤ 0
    let fail_prob = -delta.exp_m1(); // P(fail within x | age τ)
    if fail_prob < 1e-300 {
        return 0.5 * x;
    }
    if ls_end == f64::NEG_INFINITY || delta < -0.5 { // -inf log-survival sentinel is an exact bit pattern
        // Failure is (nearly) certain within x. Use the direct form
        //   E = ∫₀ˣ (S(τ+s) − S(τ+x)) / S(τ) ds / fail_prob:
        // the integrand lies in [0, 1], so the quadrature never chases the
        // astronomically peaked expm1 form that arises when −Δ is large.
        let s_end_rel = delta.exp(); // S(τ+x)/S(τ), may be 0
        let integral = ckpt_math::adaptive_simpson(
            |s| (dist.log_survival(tau + s) - ls_tau).exp() - s_end_rel,
            0.0,
            x,
            1e-9 * x,
        );
        return (integral / fail_prob).clamp(0.0, x);
    }
    // Rare-failure regime (|Δ| small): the expm1 form keeps full relative
    // precision where the direct form would cancel:
    //   E = e^Δ · ∫₀ˣ expm1(lnS(τ+s) − lnS(τ+x)) ds / (−expm1(Δ)).
    // The integrand is bounded by e^{−Δ} − 1 ≤ e^{0.5} − 1 here.
    let integral = ckpt_math::adaptive_simpson(
        |s| (dist.log_survival(tau + s) - ls_end).exp_m1(),
        0.0,
        x,
        1e-10 * x.max(1.0),
    );
    let e = delta.exp() * integral / fail_prob;
    e.clamp(0.0, x)
}

/// Tabulated evaluation of `E[Tlost(x|τ)]` from a precomputed cumulative
/// survival integral `I(t) = ∫₀ᵗ S(s) ds`:
///
/// ```text
/// E[Tlost(x|τ)] = (I(τ+x) − I(τ) − x·S(τ+x)) / (S(τ) − S(τ+x)),
/// ```
///
/// with the survival endpoints evaluated exactly (the caller passes the
/// distribution's own `survival`) so only the integral is interpolated.
/// This is the O(1) replacement for the per-query quadrature of
/// [`expected_loss`] inside the DP inner loops; it falls back to the
/// half-window `x/2` when the conditioning probability vanishes, exactly
/// like the quadrature form.
pub fn expected_loss_from_integral(
    integral: impl Fn(f64) -> f64,
    survival: impl Fn(f64) -> f64,
    x: f64,
    tau: f64,
) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    let (s_tau, i_tau) = (survival(tau), integral(tau));
    expected_loss_from_integral_at(integral, survival, x, tau, s_tau, i_tau)
}

/// [`expected_loss_from_integral`] given the age's own `S(τ)` and `I(τ)`,
/// for a caller that asks one age at many lengths `x`.
pub fn expected_loss_from_integral_at(
    integral: impl Fn(f64) -> f64,
    survival: impl Fn(f64) -> f64,
    x: f64,
    tau: f64,
    s_tau: f64,
    i_tau: f64,
) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    let s_end = survival(tau + x);
    let denom = s_tau - s_end;
    if denom <= 1e-12 * s_tau.max(1e-300) {
        return 0.5 * x;
    }
    let num = integral(tau + x) - i_tau - x * s_end;
    (num / denom).clamp(0.0, x)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the loss over an empty interval is exactly 0")]
mod tests {
    use super::*;
    use crate::{Exponential, Weibull};

    #[test]
    fn matches_exponential_closed_form() {
        // Lemma 1: E[Tlost(ω)] = 1/λ − ω/(e^{λω} − 1).
        let lambda = 1.0 / 3600.0;
        let d = Exponential::new(lambda);
        for &x in &[60.0, 600.0, 3600.0, 36_000.0] {
            let closed = 1.0 / lambda - x / ((lambda * x).exp_m1());
            let generic = expected_loss(&d, x, 0.0);
            assert!(
                (generic - closed).abs() < 1e-6 * closed,
                "x = {x}: generic {generic} vs closed {closed}"
            );
        }
    }

    #[test]
    fn memoryless_age_invariance() {
        let d = Exponential::new(1e-4);
        let a = expected_loss(&d, 500.0, 0.0);
        let b = expected_loss(&d, 500.0, 123_456.0);
        assert!((a - b).abs() < 1e-6 * a);
    }

    #[test]
    fn tiny_failure_probability_is_half_window() {
        // MTBF of 125 years, 10-minute chunk: loss ≈ x/2 (near-uniform
        // conditional density), and must not blow up numerically.
        let mtbf = 125.0 * 365.25 * 86_400.0;
        let d = Exponential::new(1.0 / mtbf);
        let e = expected_loss(&d, 600.0, 0.0);
        assert!((e - 300.0).abs() < 0.1, "got {e}");
    }

    #[test]
    fn weibull_decreasing_hazard_biases_early() {
        // k < 1: failures concentrate early in the window when age is 0, so
        // the expected loss is below x/2.
        let d = Weibull::from_mtbf(0.7, 1000.0);
        let e = expected_loss(&d, 800.0, 0.0);
        assert!(e < 400.0, "expected below half-window, got {e}");
    }

    #[test]
    fn weibull_old_processor_loss_near_uniform() {
        // For an old processor (age ≫ window) with k < 1 the hazard is
        // locally flat, so the conditional loss approaches x/2 from below.
        let d = Weibull::from_mtbf(0.7, 1000.0);
        let e = expected_loss(&d, 10.0, 50_000.0);
        assert!((e - 5.0).abs() < 0.5, "got {e}");
    }

    #[test]
    fn bounded_by_window() {
        let d = Weibull::from_mtbf(0.5, 100.0);
        for &x in &[1.0, 10.0, 1000.0, 100_000.0] {
            let e = expected_loss(&d, x, 0.0);
            assert!((0.0..=x).contains(&e), "x = {x}: loss {e} out of range");
        }
    }

    #[test]
    fn zero_window_zero_loss() {
        let d = Exponential::new(1.0);
        assert_eq!(expected_loss(&d, 0.0, 5.0), 0.0);
    }
}
