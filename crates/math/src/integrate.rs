//! Adaptive Simpson quadrature.
//!
//! Used to evaluate `∫ S(t) dt` terms in the generic conditional expected
//! loss `E[Tlost(x|τ)]` (survival functions are smooth and monotone, a
//! friendly target for Simpson with local error control).

/// Integrate `f` over `[a, b]` with absolute tolerance `tol`.
///
/// Handles `a > b` by sign flip and `a == b` as zero. Recursion depth is
/// bounded; on hitting the bound the current (already quite refined)
/// estimate is accepted, which keeps the routine total even for slightly
/// kinked integrands like empirical survival curves.
pub fn adaptive_simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, tol: f64) -> f64 {
    assert!(a.is_finite() && b.is_finite(), "integration bounds must be finite");
    assert!(tol > 0.0, "tolerance must be positive");
    #[expect(clippy::float_cmp, reason = "empty interval: equal bounds integrate to exactly zero")]
    if a == b {
        return 0.0;
    }
    if a > b {
        return -adaptive_simpson(f, b, a, tol);
    }
    let m = 0.5 * (a + b);
    let fa = f(a);
    let fm = f(m);
    let fb = f(b);
    let whole = simpson(a, b, fa, fm, fb);
    // Depth 30 bounds worst-case work while leaving ample refinement for
    // smooth survival-curve integrands (interval width shrinks by 2^30).
    recurse(&f, a, b, fa, fm, fb, whole, tol, 30)
}

fn simpson(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn recurse<F: Fn(f64) -> f64>(
    f: &F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson(a, m, fa, flm, fm);
    let right = simpson(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * tol {
        // Richardson extrapolation term.
        return left + right + delta / 15.0;
    }
    recurse(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
        + recurse(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "an integral over an empty interval is exactly 0")]
mod tests {
    use super::*;

    #[test]
    fn polynomial_is_exact() {
        // Simpson is exact for cubics.
        let v = adaptive_simpson(|x| x * x * x - 2.0 * x + 1.0, 0.0, 2.0, 1e-12);
        // ∫ = x⁴/4 − x² + x over [0,2] = 4 − 4 + 2 = 2.
        assert!((v - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_survival() {
        // ∫₀^∞-ish e^{−t} over [0, 50] ≈ 1.
        let v = adaptive_simpson(|t| (-t).exp(), 0.0, 50.0, 1e-10);
        assert!((v - 1.0).abs() < 1e-8, "got {v}");
    }

    #[test]
    fn weibull_survival_mean() {
        // For Weibull(λ=1, k=0.7), ∫₀^∞ S(t)dt = Γ(1 + 1/0.7) ≈ 1.2658219.
        let k = 0.7;
        let v = adaptive_simpson(|t: f64| (-(t.powf(k))).exp(), 0.0, 2000.0, 1e-9);
        assert!((v - 1.265_821_889_8).abs() < 1e-5, "got {v}");
    }

    #[test]
    fn reversed_bounds_negate() {
        let a = adaptive_simpson(|x| x.sin(), 0.0, 1.0, 1e-12);
        let b = adaptive_simpson(|x| x.sin(), 1.0, 0.0, 1e-12);
        assert!((a + b).abs() < 1e-14);
    }

    #[test]
    fn empty_interval_is_zero() {
        assert_eq!(adaptive_simpson(|x| x, 3.0, 3.0, 1e-9), 0.0);
    }

    #[test]
    fn kinked_integrand_converges() {
        // ∫₀¹ |x − 1/3| dx = 1/18 + 4/18 = 5/18; the kink sits off every dyadic point.
        let v = adaptive_simpson(|x: f64| (x - 1.0 / 3.0).abs(), 0.0, 1.0, 1e-12);
        assert!((v - 5.0 / 18.0).abs() < 1e-9, "got {v}");
    }

    #[test]
    #[should_panic]
    fn rejects_infinite_bound() {
        adaptive_simpson(|x| x, 0.0, f64::INFINITY, 1e-9);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_tolerance() {
        adaptive_simpson(|x| x, 0.0, 1.0, 0.0);
    }
}
