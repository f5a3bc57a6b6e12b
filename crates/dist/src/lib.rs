//! Failure inter-arrival time distributions.
//!
//! Every checkpointing policy in the paper consumes failures through a small
//! probabilistic interface:
//!
//! * `Psuc(x|τ) = P(X ≥ τ+x | X ≥ τ)` — probability of surviving the next
//!   `x` seconds given the last failure was `τ` seconds ago (§2.2);
//! * `E[Tlost(x|τ)]` — expected compute time lost to a failure that strikes
//!   within the next `x` seconds (§2.3);
//! * quantiles — the reference ages of the compressed parallel
//!   `DPNextFailure` state (§3.3);
//! * sampling — synthetic trace generation (§4.3).
//!
//! The primitive everything is derived from is **log-survival**
//! `ln S(t) = ln P(X ≥ t)`. The paper's platforms have processor MTBFs of
//! 125–1250 *years* while chunks last minutes, so the failure probability of
//! a chunk is ~1e−6; computing it as `S(τ) − S(τ+x)` in linear space loses
//! all precision. Working with `exp`/`expm1` of log-survival differences
//! keeps every quantity fully conditioned (see [`loss`]).

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod empirical;
pub mod error;
pub mod exponential;
pub mod kernel;
pub mod loss;
pub mod min_of;
pub mod mixture;
pub mod weibull;

pub use empirical::Empirical;
pub use error::DistError;
pub use exponential::Exponential;
pub use kernel::{AgeKernel, KernelTable};
pub use min_of::MinOf;
pub use mixture::Mixture;
pub use weibull::Weibull;

use rand::RngCore;

/// A failure inter-arrival time distribution.
///
/// Implementors provide [`log_survival`](FailureDistribution::log_survival),
/// [`mean`](FailureDistribution::mean) and
/// [`sample`](FailureDistribution::sample); everything else has accurate
/// defaults that may be overridden with closed forms.
pub trait FailureDistribution: Send + Sync + std::fmt::Debug {
    /// `ln P(X ≥ t)`. Must be 0 at `t ≤ 0`, non-increasing, and may reach
    /// `−∞` (a bounded support, e.g. empirical distributions).
    fn log_survival(&self, t: f64) -> f64;

    /// Batch `ln P(X ≥ tᵢ)` — the DP kernel-row and table-build shape.
    ///
    /// The default is the scalar loop, bit-identical to per-element
    /// [`log_survival`](Self::log_survival) calls. Families with a
    /// cheaper batched evaluation (Weibull's single-`ln`/single-`exp`
    /// log-domain pass, Empirical's indexed counting) override it; an
    /// override may differ from the scalar path at the ~ulp level (the
    /// trait contract is ≤1e−12 relative agreement, pinned per family
    /// by tests), and any such family must say so in its
    /// [`fingerprint`](Self::fingerprint) docs since cached rows mix
    /// the two paths' outputs.
    fn log_survival_batch(&self, ts: &[f64], out: &mut [f64]) {
        assert_eq!(ts.len(), out.len(), "log_survival_batch: length mismatch");
        for (o, &t) in out.iter_mut().zip(ts) {
            *o = self.log_survival(t);
        }
    }

    /// Mean inter-arrival time `E[X]`.
    fn mean(&self) -> f64;

    /// Draw one inter-arrival time.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Screen for trace generation: `Some(c)` promises that a `sample`
    /// whose first [`survival_draw`] is below `c` returns at least
    /// `horizon`, so a unit drawing it never fails within the horizon.
    ///
    /// The default, `None`, promises nothing. Families that sample by
    /// inverting their first draw, `sample(rng) ==
    /// inverse_survival(survival_draw(rng))`, override it with
    /// `S(horizon)` less a safety margin (`inversion_cutoff`).
    fn first_draw_cutoff(&self, _horizon: f64) -> Option<f64> {
        None
    }

    /// Survival function `P(X ≥ t)`.
    fn survival(&self, t: f64) -> f64 {
        self.log_survival(t).exp()
    }

    /// Conditional survival `Psuc(x|τ) = P(X ≥ τ+x | X ≥ τ)` (§2.2).
    ///
    /// Computed as `exp(ln S(τ+x) − ln S(τ))`, exact even when both
    /// survivals are within 1e−12 of 1.
    fn psuc(&self, x: f64, tau: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        let ls_tau = self.log_survival(tau.max(0.0));
        if ls_tau == f64::NEG_INFINITY { // -inf log-survival sentinel is an exact bit pattern
            // Conditioning on a zero-probability event: treat as immediate
            // failure, the conservative choice for a policy.
            return 0.0;
        }
        (self.log_survival(tau.max(0.0) + x) - ls_tau).exp()
    }

    /// Inverse survival: smallest `t` with `P(X ≥ t) ≤ s`, for `s ∈ (0, 1]`.
    ///
    /// This is the `quantile(X, ·)` of §3.3 used to build the reference ages
    /// of the compressed parallel state.
    fn inverse_survival(&self, s: f64) -> f64 {
        assert!(s > 0.0 && s <= 1.0, "inverse_survival: s ∈ (0,1], got {s}");
        if s >= 1.0 {
            return 0.0;
        }
        let target = s.ln();
        // Bracket by doubling from the mean.
        let mut hi = self.mean().max(1e-9);
        let mut lo = 0.0;
        for _ in 0..1100 {
            if self.log_survival(hi) <= target {
                break;
            }
            lo = hi;
            hi *= 2.0;
        }
        ckpt_math::brent(
            |t| self.log_survival(t) - target,
            lo,
            hi,
            1e-9 * hi.max(1.0),
        )
    }

    /// Expected time computed before an interrupting failure:
    /// `E[X − τ | τ ≤ X < τ + x]` (the `E[Tlost(x|τ)]` of §2.3).
    ///
    /// Default is the well-conditioned quadrature of [`loss::expected_loss`];
    /// the Exponential overrides it with Lemma 1's closed form.
    fn expected_loss(&self, x: f64, tau: f64) -> f64 {
        loss::expected_loss(self, x, tau)
    }

    /// Clone into a boxed trait object.
    fn clone_box(&self) -> Box<dyn FailureDistribution>;

    /// A stable 64-bit identity of this distribution's *values*: two
    /// instances with the same fingerprint are guaranteed to return
    /// bit-identical `log_survival` everywhere, so cross-instance caches
    /// (the shared DP plan cache) may pool their results. `None` (the
    /// default) means "no such guarantee" — callers must fall back to
    /// per-instance identity. Implemented for the closed-form families
    /// whose log-survival is a pure function of their parameter bits.
    fn fingerprint(&self) -> Option<u64> {
        None
    }

    /// Whether the law is memoryless: `ln S(t)` is `−λ·t`, one multiply
    /// per evaluation, so a row of log-survival values costs about as
    /// much to rebuild as to read back from a cache. The DP planner
    /// memoises no kernel row for such a law. Only
    /// [`Exponential`] says `true`; the default is `false`.
    fn is_memoryless(&self) -> bool {
        false
    }
}

/// The first draw of an inversion sampler: `u = 1 − U` with `U` uniform
/// on `[0, 1)`, so `u ∈ [2⁻⁵³, 1]` and `ln u` is finite.
pub fn survival_draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    use rand::Rng;
    1.0 - rng.gen::<f64>()
}

/// Relative margin of [`inversion_cutoff`] below `S(horizon)`.
const CUTOFF_MARGIN: f64 = 1e-9;

/// The [`FailureDistribution::first_draw_cutoff`] of a family that samples
/// `inverse_survival(u)`, strictly decreasing in `u`: `S(horizon)` less a
/// relative margin of 1e-9.
///
/// Exact, not approximate: a draw `u` below the cutoff has, in exact
/// arithmetic, `−ln u > −ln S(horizon) + 1e-9`. The cutoff only screens
/// when it exceeds the smallest draw 2⁻⁵³, so `−ln S(horizon) < 37` and
/// the sample clears the horizon by a relative `2.7e-11 / k` or more (`k`
/// the Weibull shape, 1 for the Exponential): over 100 ulps for any
/// shape below 1,000, far above the few-ulp rounding of `ln`, `powf` and
/// `exp`. When `S(horizon)` underflows the cutoff is 0 and screens
/// nothing.
pub(crate) fn inversion_cutoff(log_survival_at_horizon: f64) -> f64 {
    log_survival_at_horizon.exp() * (1.0 - CUTOFF_MARGIN)
}

/// Chain parameter bits into a family-tagged fingerprint (SplitMix64
/// mixing — the same primitive as the deterministic seed hierarchy).
pub fn combine_fingerprint(family_tag: u64, parts: &[u64]) -> u64 {
    let mut h = ckpt_math::mix_seed(family_tag ^ 0xF1_6E_12);
    for &p in parts {
        h = ckpt_math::mix_seed(h ^ p);
    }
    h
}

impl Clone for Box<dyn FailureDistribution> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "boundary values of a distribution are exact")]
mod trait_tests {
    use super::*;

    /// A minimal distribution exercising only the trait defaults:
    /// uniform on [0, 2].
    #[derive(Debug, Clone)]
    struct Uniform2;

    impl FailureDistribution for Uniform2 {
        fn log_survival(&self, t: f64) -> f64 {
            if t <= 0.0 {
                0.0
            } else if t >= 2.0 {
                f64::NEG_INFINITY
            } else {
                (1.0 - t / 2.0).ln()
            }
        }
        fn mean(&self) -> f64 {
            1.0
        }
        fn sample(&self, rng: &mut dyn RngCore) -> f64 {
            use rand::Rng;
            rng.gen_range(0.0..2.0)
        }
        fn clone_box(&self) -> Box<dyn FailureDistribution> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn default_psuc_uniform() {
        let d = Uniform2;
        // P(X ≥ 1.5 | X ≥ 1) = S(1.5)/S(1) = 0.25/0.5 = 0.5.
        assert!((d.psuc(0.5, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(d.psuc(0.0, 1.0), 1.0);
        // Beyond the support survival is 0.
        assert_eq!(d.psuc(3.0, 0.0), 0.0);
    }

    #[test]
    fn default_inverse_survival_uniform() {
        let d = Uniform2;
        // S(t) = 1 − t/2 → S⁻¹(0.25) = 1.5.
        assert!((d.inverse_survival(0.25) - 1.5).abs() < 1e-6);
        assert_eq!(d.inverse_survival(1.0), 0.0);
    }

    #[test]
    fn default_expected_loss_uniform() {
        let d = Uniform2;
        // X | 0 ≤ X < 2 is Uniform(0,2): E = 1.
        assert!((d.expected_loss(2.0, 0.0) - 1.0).abs() < 1e-6);
        // X | 0 ≤ X < 1 is Uniform(0,1): E = 0.5.
        assert!((d.expected_loss(1.0, 0.0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn boxed_clone_works() {
        let d: Box<dyn FailureDistribution> = Box::new(Uniform2);
        let d2 = d.clone();
        assert_eq!(d2.mean(), 1.0);
    }

    #[test]
    fn default_survival_is_exp_of_log_survival() {
        let d = Uniform2;
        assert_eq!(d.survival(-1.0), 1.0);
        assert!((d.survival(0.5) - 0.75).abs() < 1e-15);
        assert_eq!(d.survival(2.0), 0.0);
        assert_eq!(d.survival(5.0), 0.0);
    }

    #[test]
    fn default_batch_is_the_scalar_loop() {
        let d = Uniform2;
        let ts = [-1.0, 0.0, 0.3, 1.0, 1.999, 2.0, 7.0];
        let mut out = [0.0; 7];
        d.log_survival_batch(&ts, &mut out);
        for (&t, &o) in ts.iter().zip(&out) {
            assert_eq!(o.to_bits(), d.log_survival(t).to_bits(), "t = {t}");
        }
    }

    #[test]
    fn defaults_promise_nothing_beyond_the_values() {
        let d = Uniform2;
        assert_eq!(d.fingerprint(), None);
        assert_eq!(d.first_draw_cutoff(1.0), None);
        assert!(!d.is_memoryless());
    }
}
