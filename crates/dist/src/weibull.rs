//! Weibull distribution — the paper's model of real-world failures.
//!
//! Cumulative distribution `F(t) = 1 − e^{−(t/λ)^k}` with scale `λ` and
//! shape `k`; mean `μ = λ Γ(1 + 1/k)`. Field studies cited by the paper
//! measure shapes well below 1 (0.7/0.78 in Heath et al., 0.51 in Liu et
//! al., 0.33–0.49 in Schroeder & Gibson), i.e. *decreasing hazard*: a
//! processor is less likely to fail the longer it has been up — the
//! property that makes rejuvenate-all harmful (Figure 1) and periodic
//! policies suboptimal (Figure 4).

use crate::FailureDistribution;
use rand::RngCore;

/// Weibull failure inter-arrival times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// From shape `k > 0` and scale `λ > 0`.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && shape.is_finite(), "shape must be positive");
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        Self { shape, scale }
    }

    /// From shape `k` and a target mean: `λ = MTBF / Γ(1 + 1/k)` (§4.3).
    pub fn from_mtbf(shape: f64, mtbf: f64) -> Self {
        assert!(mtbf > 0.0, "MTBF must be positive");
        let scale = mtbf / ckpt_math::gamma(1.0 + 1.0 / shape);
        Self::new(shape, scale)
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The distribution of the *minimum* of `p` iid copies — platform
    /// failures under the rejuvenate-all model (§3.1): Weibull with scale
    /// `λ / p^{1/k}` and the same shape.
    pub fn min_of(&self, p: u64) -> Self {
        assert!(p >= 1);
        Self::new(self.shape, self.scale / (p as f64).powf(1.0 / self.shape))
    }
}

impl FailureDistribution for Weibull {
    fn log_survival(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            -(t / self.scale).powf(self.shape)
        }
    }

    // `log_survival_batch` deliberately stays on the trait default (one
    // scalar `powf` per element, bit-identical to `log_survival`). A
    // batched composition, libm `ln` then the `ckpt_math::simd` lanes'
    // `exp`, measured 17.6 against `powf`'s 19.4 ns/element (medians
    // of 10 runs, 2.1 GHz Xeon, SSE2 baseline), inside each other's
    // quartiles; it would also move every Weibull row's bits, so the
    // hot cold-row path keeps the divergence-free form.

    fn mean(&self) -> f64 {
        self.scale * ckpt_math::gamma(1.0 + 1.0 / self.shape)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.inverse_survival(crate::survival_draw(rng))
    }

    fn first_draw_cutoff(&self, horizon: f64) -> Option<f64> {
        Some(crate::inversion_cutoff(self.log_survival(horizon)))
    }

    fn inverse_survival(&self, s: f64) -> f64 {
        assert!(s > 0.0 && s <= 1.0);
        self.scale * (-s.ln()).powf(1.0 / self.shape)
    }

    fn clone_box(&self) -> Box<dyn FailureDistribution> {
        Box::new(*self)
    }

    fn fingerprint(&self) -> Option<u64> {
        // log_survival is a pure function of (shape, scale) bits.
        Some(crate::combine_fingerprint(
            1,
            &[self.shape.to_bits(), self.scale.to_bits()],
        ))
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "a batch value matches its scalar one within 1e-12 or, at the sentinels, exactly")]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shape_one_is_exponential() {
        let w = Weibull::new(1.0, 100.0);
        let e = crate::Exponential::new(0.01);
        for &t in &[0.0, 1.0, 50.0, 500.0] {
            assert!((w.log_survival(t) - e.log_survival(t)).abs() < 1e-12);
        }
        assert!((w.mean() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn from_mtbf_hits_target_mean() {
        for &k in &[0.33, 0.5, 0.7, 1.0, 1.5] {
            let w = Weibull::from_mtbf(k, 125.0 * 365.25 * 86_400.0);
            let target = 125.0 * 365.25 * 86_400.0;
            assert!(
                (w.mean() - target).abs() < 1e-3 * target,
                "k = {k}: mean {}",
                w.mean()
            );
        }
    }

    #[test]
    fn conditional_survival_improves_with_age_when_k_below_one() {
        // §3.1: P(X > t+x | X > t) strictly increases with t for k < 1.
        let w = Weibull::from_mtbf(0.7, 1000.0);
        let p0 = w.psuc(100.0, 0.0);
        let p1 = w.psuc(100.0, 1000.0);
        let p2 = w.psuc(100.0, 100_000.0);
        assert!(p0 < p1 && p1 < p2, "{p0} {p1} {p2}");
    }

    #[test]
    fn conditional_survival_constant_at_k_one() {
        let w = Weibull::new(1.0, 1000.0);
        let p0 = w.psuc(100.0, 0.0);
        let p1 = w.psuc(100.0, 99_999.0);
        assert!((p0 - p1).abs() < 1e-12);
    }

    #[test]
    fn min_of_platform_scaling() {
        // Scale divides by p^{1/k}; mean divides likewise.
        let w = Weibull::from_mtbf(0.7, 125.0);
        let plat = w.min_of(45_208);
        let expect = 125.0 / (45_208f64).powf(1.0 / 0.7);
        assert!((plat.mean() - expect).abs() < 1e-9 * expect);
    }

    #[test]
    fn min_of_is_distribution_of_minimum() {
        // P(min of p ≥ t) = S(t)^p must equal the min_of survival.
        let w = Weibull::new(0.7, 500.0);
        let p = 16u64;
        let m = w.min_of(p);
        for &t in &[1.0, 10.0, 100.0, 1000.0] {
            let lhs = p as f64 * w.log_survival(t);
            let rhs = m.log_survival(t);
            assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
        }
    }

    #[test]
    fn batch_log_survival_is_bit_identical_to_scalar() {
        // The shipped batch is the trait default: one scalar `powf` per
        // element, so no lane split or `t ≤ 0` patch may move a bit.
        let ts = [
            -1.0e-3,
            0.0,
            f64::MIN_POSITIVE / 4.0,
            1.0,
            15_000.0,
            87_000.0,
            1.5 * 365.25 * 86_400.0,
            1.0e12,
        ];
        for &(shape, scale) in &[(0.3, 1.0), (0.7, 1.0e8), (1.0, 3.0e4), (1.5, 42.0)] {
            let w = Weibull::new(shape, scale);
            for len in 0..=ts.len() {
                let mut out = vec![f64::NAN; len];
                w.log_survival_batch(&ts[..len], &mut out);
                for (o, &t) in out.iter().zip(&ts) {
                    assert_eq!(o.to_bits(), w.log_survival(t).to_bits(), "k {shape} t {t}");
                }
            }
        }
    }

    #[test]
    fn batch_log_survival_tracks_scalar_within_1e12() {
        // The bound a batched override would have to meet against
        // scalar `powf`, across remainder-lane lengths and the t ≤ 0
        // early return.
        for &(shape, mtbf) in &[(0.5, 1_000.0), (0.7, 125.0 * 365.25 * 86_400.0), (1.3, 50.0)] {
            let w = Weibull::from_mtbf(shape, mtbf);
            for len in [1usize, 3, 4, 7, 256] {
                let ts: Vec<f64> =
                    (0..len).map(|i| (i as f64 - 1.0) * mtbf / 17.0).collect();
                let mut out = vec![f64::NAN; len];
                w.log_survival_batch(&ts, &mut out);
                for (i, &t) in ts.iter().enumerate() {
                    let exact = w.log_survival(t);
                    let err = (out[i] - exact).abs() / exact.abs().max(1e-300);
                    assert!(
                        err <= 1e-12 || out[i] == exact,
                        "shape {shape} len {len} t {t}: batch {} vs scalar {exact}",
                        out[i]
                    );
                }
            }
        }
    }

    #[test]
    fn inverse_survival_round_trip() {
        let w = Weibull::from_mtbf(0.5, 333.0);
        for &s in &[0.999, 0.9, 0.5, 0.1, 1e-3] {
            let t = w.inverse_survival(s);
            assert!((w.survival(t) - s).abs() < 1e-10, "s = {s}");
        }
    }

    #[test]
    fn sample_mean_converges() {
        let w = Weibull::from_mtbf(0.7, 200.0);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 400_000;
        let mean: f64 = (0..n).map(|_| w.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 200.0).abs() < 3.0, "sample mean {mean}");
    }

    #[test]
    fn sample_survival_matches_analytic() {
        let w = Weibull::from_mtbf(0.7, 100.0);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let t0 = 50.0;
        let frac = (0..n).filter(|_| w.sample(&mut rng) >= t0).count() as f64 / n as f64;
        assert!((frac - w.survival(t0)).abs() < 5e-3);
    }

    #[test]
    fn conditional_survival_worsens_with_age_when_k_above_one() {
        // An increasing hazard: P(X > t+x | X > t) strictly falls with t.
        let w = Weibull::from_mtbf(1.5, 1000.0);
        let p0 = w.psuc(100.0, 0.0);
        let p1 = w.psuc(100.0, 1000.0);
        let p2 = w.psuc(100.0, 3000.0);
        assert!(p0 > p1 && p1 > p2, "{p0} {p1} {p2}");
    }

    #[test]
    fn log_survival_is_a_power_of_time() {
        // ln S(t) = −(t/λ)^k, so doubling t multiplies it by 2^k.
        for &k in &[0.5, 0.7, 1.5] {
            let w = Weibull::new(k, 250.0);
            assert!((w.log_survival(250.0) + 1.0).abs() < 1e-12, "k = {k}");
            for &t in &[1.0, 40.0, 900.0] {
                let ratio = w.log_survival(2.0 * t) / w.log_survival(t);
                assert!((ratio - 2f64.powf(k)).abs() < 1e-12, "k = {k}, t = {t}: {ratio}");
            }
        }
    }

    #[test]
    fn fingerprint_tracks_shape_and_scale() {
        let a = Weibull::new(0.7, 100.0).fingerprint();
        assert!(a.is_some());
        assert_eq!(a, Weibull::new(0.7, 100.0).fingerprint());
        assert_ne!(a, Weibull::new(0.71, 100.0).fingerprint());
        assert_ne!(a, Weibull::new(0.7, 101.0).fingerprint());
        // Shape 1 has the Exponential's values but not its identity.
        assert_ne!(Weibull::new(1.0, 100.0).fingerprint(), crate::Exponential::new(0.01).fingerprint());
    }
}
