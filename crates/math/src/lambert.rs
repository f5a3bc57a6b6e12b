//! The principal real branch of the Lambert W function, `W(z) e^{W(z)} = z`.
//!
//! Theorem 1 of the paper needs `W0(−e^{−λC−1})`. The argument always lies
//! in `(−1/e, 0)`, where both real branches exist; the theorem's derivation
//! (`y = λW/K0 − 1` with `y ∈ (−1, 0)`) selects the principal branch `W0`.

/// `1/e`, the branch point abscissa of the Lambert W function is at `−1/e`.
const INV_E: f64 = 1.0 / std::f64::consts::E;

/// Principal branch `W0(z)` for `z ≥ −1/e`.
///
/// Accurate to near machine precision via Halley iteration from a
/// branch-aware initial guess.
///
/// # Panics
/// Panics if `z < −1/e` (no real solution) or `z` is NaN.
pub fn lambert_w0(z: f64) -> f64 {
    assert!(!z.is_nan(), "lambert_w0: NaN argument");
    assert!(
        z >= -INV_E - 1e-12,
        "lambert_w0: argument {z} below branch point -1/e"
    );
    if z == 0.0 { // exact zero fast path, not a tolerance check
        return 0.0;
    }
    // Clamp tiny numerical undershoot of the branch point.
    let z = z.max(-INV_E);
    let w0 = initial_guess_w0(z);
    halley(z, w0)
}

fn initial_guess_w0(z: f64) -> f64 {
    if z < -0.25 {
        // Series about the branch point: W0 ≈ −1 + p − p²/3 + 11p³/72,
        // p = +sqrt(2(1 + e·z)).
        let p = (2.0 * (1.0 + std::f64::consts::E * z)).sqrt();
        -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p * p * p
    } else {
        // ln(1 + z) tracks W0 well enough over [−1/4, ∞) for Halley to
        // converge quadratically (exact at z = 0, right asymptotic slope).
        z.ln_1p()
    }
}

/// Halley iteration on `f(w) = w e^w − z`.
fn halley(z: f64, mut w: f64) -> f64 {
    for _ in 0..64 {
        let ew = w.exp();
        let f = w * ew - z;
        if f == 0.0 { // exact-root early exit
            break;
        }
        let wp1 = w + 1.0;
        let denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1);
        let dw = f / denom;
        w -= dw;
        if dw.abs() <= 1e-15 * (1.0 + w.abs()) {
            break;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_inverse(w: f64, z: f64) {
        let back = w * w.exp();
        assert!(
            (back - z).abs() <= 1e-12 * (1.0 + z.abs()),
            "w e^w = {back}, expected {z} (w = {w})"
        );
    }

    #[test]
    fn w0_known_values() {
        assert!((lambert_w0(0.0)).abs() < 1e-15);
        // W0(e) = 1.
        assert!((lambert_w0(std::f64::consts::E) - 1.0).abs() < 1e-12);
        // W0(1) = Ω ≈ 0.5671432904097838.
        assert!((lambert_w0(1.0) - 0.567_143_290_409_783_8).abs() < 1e-12);
    }

    #[test]
    fn w0_round_trips_across_domain() {
        for &z in &[-0.367, -0.3, -0.1, -1e-6, 1e-6, 0.5, 1.0, 10.0, 1e6] {
            check_inverse(lambert_w0(z), z);
        }
    }

    #[test]
    fn w0_at_branch_point() {
        let w = lambert_w0(-INV_E);
        assert!((w + 1.0).abs() < 1e-6, "W0(-1/e) = {w}, expected -1");
    }

    #[test]
    fn theorem1_argument_range() {
        // For any λ, C > 0 the Theorem-1 argument −e^{−λC−1} ∈ (−1/e, 0):
        // W0 of it must lie in (−1, 0).
        for &lc in &[1e-6, 1e-3, 0.1, 1.0, 10.0] {
            let z = -(-lc - 1.0f64).exp();
            let w = lambert_w0(z);
            assert!(w > -1.0 && w < 0.0, "W0({z}) = {w} out of (-1, 0)");
        }
    }

    #[test]
    #[should_panic]
    fn w0_rejects_below_branch_point() {
        lambert_w0(-0.5);
    }

    #[test]
    fn w0_is_increasing_over_its_domain() {
        let zs = [-INV_E, -0.36, -0.3, -0.2, -0.1, -1e-3, 0.0, 1e-3, 0.1, 1.0, 2.0, 10.0, 1e3, 1e6];
        let ws: Vec<f64> = zs.iter().map(|&z| lambert_w0(z)).collect();
        for (pair, z) in ws.windows(2).zip(zs.windows(2)) {
            assert!(pair[0] < pair[1], "W0({}) = {} ≥ W0({}) = {}", z[0], pair[0], z[1], pair[1]);
        }
    }

    #[test]
    fn w0_matches_its_series_near_zero() {
        // W0(z) = z − z² + 3z³/2 − 8z⁴/3 + …
        for &z in &[-1e-3, -1e-4, 1e-4, 1e-3] {
            let series = z - z * z + 1.5 * z * z * z;
            let w = lambert_w0(z);
            assert!((w - series).abs() <= 3.0 * z.powi(4), "W0({z}) = {w}, series {series}");
        }
    }

    #[test]
    fn w0_round_trips_at_extreme_magnitudes() {
        for &z in &[1e-300, 1e-12, 1e12, 1e100, 1e300] {
            let w = lambert_w0(z);
            let back = w * w.exp();
            assert!((back - z).abs() <= 1e-12 * z, "W0({z}) = {w}: w e^w = {back}");
        }
    }

    #[test]
    fn w0_lies_between_its_logarithmic_bounds() {
        // For z ≥ e: ln z − ln ln z ≤ W0(z) ≤ ln z − ½ ln ln z.
        for &z in &[std::f64::consts::E, 10.0, 1e3, 1e9, 1e200] {
            let (l1, l2) = (z.ln(), z.ln().ln());
            let w = lambert_w0(z);
            assert!(w >= l1 - l2 - 1e-12 && w <= l1 - 0.5 * l2 + 1e-12, "W0({z}) = {w}");
        }
    }

    #[test]
    fn w0_clamps_a_rounding_undershoot_of_the_branch_point() {
        let w = lambert_w0(-INV_E - 1e-13);
        assert!((w + 1.0).abs() < 1e-6, "W0(-1/e - 1e-13) = {w}");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn w0_rejects_nan() {
        lambert_w0(f64::NAN);
    }
}
