//! Property-based invariants every failure distribution must satisfy.

use ckpt_dist::{Empirical, Exponential, FailureDistribution, MinOf, Mixture, Weibull};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// All families at a parameter point derived from the inputs.
fn zoo(mean: f64, shape: f64) -> Vec<Box<dyn FailureDistribution>> {
    vec![
        Box::new(Exponential::from_mtbf(mean)),
        Box::new(Weibull::from_mtbf(shape, mean)),
        Box::new(Mixture::new(vec![
            (0.4, Box::new(Exponential::from_mtbf(mean * 0.2)) as Box<dyn FailureDistribution>),
            (0.6, Box::new(Weibull::from_mtbf(shape, mean * 1.5))),
        ])),
        Box::new(MinOf::new(Box::new(Weibull::from_mtbf(shape, mean * 64.0)), 64)),
        Box::new(Empirical::from_durations(vec![
            mean * 0.1,
            mean * 0.5,
            mean,
            mean * 1.5,
            mean * 3.0,
        ])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn log_survival_contract(
        mean in 10.0..1e7f64,
        shape in 0.3..2.0f64,
        t in 0.0..1e7f64,
    ) {
        for d in zoo(mean, shape) {
            let ls = d.log_survival(t);
            prop_assert!(ls <= 1e-12, "{d:?}: ln S({t}) = {ls} > 0");
            prop_assert!(d.log_survival(0.0) == 0.0, "{d:?}: ln S(0) ≠ 0");
            prop_assert!(d.log_survival(-1.0) == 0.0, "{d:?}: ln S(-1) ≠ 0");
            // Monotone non-increasing.
            let ls2 = d.log_survival(t * 1.5 + 1.0);
            prop_assert!(ls2 <= ls + 1e-12, "{d:?}: survival increased");
        }
    }

    #[test]
    fn psuc_chains_multiplicatively(
        mean in 100.0..1e6f64,
        shape in 0.3..2.0f64,
        tau in 0.0..1e5f64,
        x1 in 1.0..1e5f64,
        x2 in 1.0..1e5f64,
    ) {
        // P(survive x1+x2 | τ) = P(x1 | τ) · P(x2 | τ+x1).
        for d in zoo(mean, shape) {
            let joint = d.psuc(x1 + x2, tau);
            let chained = d.psuc(x1, tau) * d.psuc(x2, tau + x1);
            prop_assert!(
                (joint - chained).abs() <= 1e-9 * joint.max(1e-12),
                "{d:?}: chain rule broken ({joint} vs {chained})"
            );
        }
    }

    #[test]
    fn inverse_survival_round_trip(
        mean in 100.0..1e6f64,
        shape in 0.3..2.0f64,
        s in 0.25..0.95f64,
    ) {
        // s stays above 1/n for the 5-point Empirical member, whose
        // smallest achievable survival is 0.2.
        for d in zoo(mean, shape) {
            let t = d.inverse_survival(s);
            prop_assert!(t >= 0.0 && t.is_finite(), "{d:?}: quantile {t}");
            // Survival at t is ≤ s (right-continuous step for Empirical).
            prop_assert!(
                d.survival(t) <= s + 1e-6,
                "{d:?}: S({t}) = {} > {s}", d.survival(t)
            );
        }
    }

    #[test]
    fn survival_stays_in_the_unit_interval(
        mean in 10.0..1e7f64,
        shape in 0.3..2.0f64,
        t in -10.0..1e8f64,
    ) {
        for d in zoo(mean, shape) {
            let s = d.survival(t);
            prop_assert!((0.0..=1.0).contains(&s), "{d:?}: S({t}) = {s}");
            let p = d.psuc(t.abs(), mean);
            prop_assert!((0.0..=1.0).contains(&p), "{d:?}: Psuc({} | {mean}) = {p}", t.abs());
        }
    }

    #[test]
    fn an_empty_window_always_succeeds(
        mean in 10.0..1e7f64,
        shape in 0.3..2.0f64,
        tau in 0.0..1e8f64,
    ) {
        // Psuc(0 | τ) = 1 at every age, even past a bounded support.
        for d in zoo(mean, shape) {
            let p = d.psuc(0.0, tau);
            prop_assert!(p.to_bits() == 1.0f64.to_bits(), "{d:?}: Psuc(0 | {tau}) = {p}");
        }
    }

    #[test]
    fn samples_respect_survival(
        mean in 100.0..10_000.0f64,
        shape in 0.4..1.5f64,
        seed in 0u64..100,
    ) {
        // Kolmogorov-style single-point check at the median.
        for d in zoo(mean, shape) {
            let med = d.inverse_survival(0.5);
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 4_000;
            let above = (0..n).filter(|_| d.sample(&mut rng) >= med).count() as f64 / n as f64;
            let expect = d.survival(med);
            prop_assert!(
                (above - expect).abs() < 0.05,
                "{d:?}: {above} of samples above the median point, expected {expect}"
            );
        }
    }

    #[test]
    fn expected_loss_consistent_with_mean_at_full_support(
        mean in 100.0..100_000.0f64,
        shape in 0.5..1.5f64,
    ) {
        // Conditioning on failure within a huge window ≈ unconditional:
        // E[Tlost] → E[X] for distributions with finite support coverage.
        let d = Weibull::from_mtbf(shape, mean);
        let e = d.expected_loss(mean * 200.0, 0.0);
        prop_assert!(
            (e - mean).abs() < 0.05 * mean,
            "loss {e} vs mean {mean}"
        );
    }
}

/// Only the Exponential declares itself memoryless: a Weibull of shape 1
/// has the same survival values but keeps the default, and so do the
/// composite and empirical families.
#[test]
fn only_the_exponential_is_memoryless() {
    assert!(Exponential::from_mtbf(1_000.0).is_memoryless());
    for shape in [0.7, 1.0, 1.5] {
        assert!(!Weibull::from_mtbf(shape, 1_000.0).is_memoryless(), "Weibull k = {shape}");
    }
    let others: Vec<Box<dyn FailureDistribution>> = vec![
        Box::new(Empirical::from_durations(vec![100.0, 500.0, 1_000.0])),
        Box::new(Mixture::new(vec![
            (0.5, Box::new(Exponential::from_mtbf(500.0)) as Box<dyn FailureDistribution>),
            (0.5, Box::new(Exponential::from_mtbf(1_500.0))),
        ])),
        Box::new(MinOf::new(Box::new(Weibull::from_mtbf(0.7, 64_000.0)), 64)),
    ];
    for d in others {
        assert!(!d.is_memoryless(), "{d:?}");
    }
}
