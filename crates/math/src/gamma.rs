//! Gamma function via the Lanczos approximation.
//!
//! The workspace needs `Γ(1 + 1/k)` to convert a target processor MTBF into
//! the Weibull scale parameter (§4.3 of the paper: `λ = MTBF / Γ(1 + 1/k)`);
//! `Γ` is evaluated as `exp(ln Γ)` so large arguments do not overflow.

/// Lanczos coefficients (g = 7, n = 9), giving ~15 significant digits.
/// Kept at published precision even where it exceeds f64 (rounding is the
/// compiler's job, not the transcriber's).
const LANCZOS_G: f64 = 7.0;
#[allow(clippy::excessive_precision)]
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_13,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the Gamma function for `x > 0`.
///
/// # Panics
/// Panics if `x ≤ 0` or `x` is NaN.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0 && !x.is_nan(), "ln_gamma: x must be positive, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The Gamma function for `x > 0`.
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_factorials() {
        for n in 1u32..=15 {
            let fact: f64 = (1..n).map(f64::from).product();
            let g = gamma(f64::from(n));
            assert!(
                (g - fact).abs() <= 1e-10 * fact,
                "Γ({n}) = {g}, expected {fact}"
            );
        }
    }

    #[test]
    fn half_integer() {
        // Γ(1/2) = √π.
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!((gamma(0.5) - sqrt_pi).abs() < 1e-12);
        // Γ(3/2) = √π / 2.
        assert!((gamma(1.5) - sqrt_pi / 2.0).abs() < 1e-12);
    }

    #[test]
    fn recurrence_holds() {
        for &x in &[0.1, 0.25, 0.7, 1.3, 2.5, 7.9, 20.0] {
            let lhs = gamma(x + 1.0);
            let rhs = x * gamma(x);
            assert!(
                (lhs - rhs).abs() <= 1e-11 * rhs.abs().max(1.0),
                "Γ(x+1) = xΓ(x) violated at x = {x}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn weibull_mean_factors() {
        // Values the experiments rely on: Γ(1 + 1/k) for the paper's shapes.
        // Γ(1 + 1/0.7) = Γ(2.428571…) ≈ 1.2658235060572833.
        assert!((gamma(1.0 + 1.0 / 0.7) - 1.265_823_506_057_283_3).abs() < 1e-10);
        // k = 1 (Exponential): Γ(2) = 1.
        assert!((gamma(2.0) - 1.0).abs() < 1e-12);
        // k = 0.5: Γ(3) = 2.
        assert!((gamma(3.0) - 2.0).abs() < 1e-11);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn reflection_branch_below_one_half() {
        // Γ(1/4) and Γ(1/10) go through Γ(x)Γ(1−x) = π / sin(πx).
        for &(x, want) in &[(0.25, 3.625_609_908_221_908), (0.1, 9.513_507_698_668_732)] {
            let g = gamma(x);
            assert!((g - want).abs() <= 1e-10 * want, "Γ({x}) = {g}, expected {want}");
        }
    }

    #[test]
    fn log_space_survives_where_gamma_overflows() {
        // Γ(200) = 199! overflows f64; ln Γ(200) = Σ ln k for k < 200 does not.
        let want: f64 = (1..200).map(|k| f64::from(k).ln()).sum();
        let got = ln_gamma(200.0);
        assert!((got - want).abs() <= 1e-10 * want, "ln Γ(200) = {got}, expected {want}");
        assert!(gamma(200.0).is_infinite());
    }

    #[test]
    #[should_panic]
    fn rejects_nan() {
        ln_gamma(f64::NAN);
    }
}
