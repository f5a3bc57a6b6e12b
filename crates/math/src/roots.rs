//! Scalar root finding: Brent's method.
//!
//! Used for numeric quantiles (`P(X ≥ q) = s` for distributions without
//! closed-form inverses) and for locating period-sweep optima.

/// Brent's method: bisection safety with inverse-quadratic acceleration.
///
/// Requires `f(a)` and `f(b)` to have opposite signs (a zero endpoint is
/// returned immediately). Runs until the bracket is narrower than `tol` or
/// 200 iterations elapse; converges superlinearly on smooth functions.
pub fn brent<F: Fn(f64) -> f64>(f: F, a0: f64, b0: f64, tol: f64) -> f64 {
    let (mut a, mut b) = (a0, b0);
    let (mut fa, mut fb) = (f(a), f(b));
    if fa == 0.0 { // exact-root early exit
        return a;
    }
    if fb == 0.0 { // exact-root early exit
        return b;
    }
    assert!(
        fa.signum() != fb.signum(),
        "brent: f(a) and f(b) must bracket a root"
    );
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let (mut c, mut fc) = (a, fa);
    let mut d = b - a;
    let mut mflag = true;
    for _ in 0..200 {
        if fb == 0.0 || (b - a).abs() < tol { // exact-root early exit
            return b;
        }
        #[expect(clippy::float_cmp, reason = "inverse quadratic interpolation needs three distinct ordinates, an exact-bits test")]
        let s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };
        let between = {
            let lo = (3.0 * a + b) / 4.0;
            let (lo, hi) = if lo < b { (lo, b) } else { (b, lo) };
            s > lo && s < hi
        };
        let use_bisection = !between
            || (mflag && (s - b).abs() >= (b - c).abs() / 2.0)
            || (!mflag && (s - b).abs() >= (c - d).abs() / 2.0)
            || (mflag && (b - c).abs() < tol)
            || (!mflag && (c - d).abs() < tol);
        let s = if use_bisection { 0.5 * (a + b) } else { s };
        mflag = use_bisection;
        let fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    b
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "a root at a bracket end is returned exactly")]
mod tests {
    use super::*;

    #[test]
    fn brent_sqrt2() {
        let r = brent(|x| x * x - 2.0, 0.0, 2.0, 1e-14);
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn brent_transcendental() {
        // Root of cos(x) − x ≈ 0.7390851332151607.
        let r = brent(|x| x.cos() - x, 0.0, 1.0, 1e-14);
        assert!((r - 0.739_085_133_215_160_7).abs() < 1e-12);
    }

    #[test]
    fn endpoint_root_short_circuits() {
        assert_eq!(brent(|x| x, 0.0, 1.0, 1e-12), 0.0);
        assert_eq!(brent(|x| x - 1.0, 0.0, 1.0, 1e-12), 1.0);
    }

    #[test]
    fn brent_weibull_quantile_shape() {
        // P(X ≥ q) = 0.5 for Weibull(λ=100, k=0.7): q = 100·(ln 2)^{1/0.7}.
        let k: f64 = 0.7;
        let lam = 100.0;
        let target = 0.5f64;
        let f = |q: f64| (-(q / lam).powf(k)).exp() - target;
        let r = brent(f, 1e-9, 1e6, 1e-9);
        let expect = lam * (2.0f64.ln()).powf(1.0 / k);
        assert!((r - expect).abs() < 1e-4 * expect);
    }

    #[test]
    fn brent_solves_a_decreasing_function() {
        // A survival-style target: e^{−t/50} = 0.3 at t = −50 ln 0.3.
        let f = |t: f64| (-t / 50.0).exp() - 0.3;
        let want = -50.0 * 0.3f64.ln();
        assert!((brent(f, 0.0, 1e3, 1e-12) - want).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn brent_rejects_unbracketed() {
        brent(|x| x * x + 1.0, -1.0, 1.0, 1e-9);
    }

    #[test]
    fn brent_meets_its_tolerance() {
        // The bracket closes below `tol` around the true root √2.
        for tol in [1e-3, 1e-6, 1e-9, 1e-12] {
            let r = brent(|x| x * x - 2.0, 0.0, 2.0, tol);
            assert!((r - std::f64::consts::SQRT_2).abs() <= tol, "tol = {tol}: {r}");
        }
    }

    #[test]
    fn brent_accepts_a_reversed_bracket() {
        let r = brent(|x| x * x - 2.0, 2.0, 0.0, 1e-14);
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-12, "{r}");
    }

    #[test]
    fn brent_converges_on_a_flat_triple_root() {
        // (x − 0.3)³ has zero slope at its root, where the interpolation
        // steps stall and the bisection safeguard must carry the search.
        let r = brent(|x| (x - 0.3f64).powi(3), -1.0, 2.0, 1e-12);
        assert!((r - 0.3).abs() < 1e-9, "{r}");
    }

    #[test]
    fn brent_keeps_to_its_bracket() {
        // sin has roots at 0, π and 2π; only π lies in [3, 4].
        let r = brent(f64::sin, 3.0, 4.0, 1e-14);
        assert!((r - std::f64::consts::PI).abs() < 1e-12, "{r}");
    }
}
