//! Property-based tests over the policy implementations.

use ckpt_platform::AgeView;
use ckpt_policies::{
    daly_high, daly_low, young, Bouguerra, DpMakespan, DpMakespanConfig, DpNextFailure,
    DpNextFailureConfig, FixedPeriod, Liu, OptExp, Policy, StateCompression,
};
use ckpt_dist::{Exponential, Weibull};
use ckpt_workload::JobSpec;
use proptest::prelude::*;

fn spec_strategy() -> impl Strategy<Value = JobSpec> {
    (
        10_000.0..5_000_000.0f64,
        10.0..2_000.0f64,
        10.0..2_000.0f64,
        0.0..200.0f64,
    )
        .prop_map(|(w, c, r, d)| JobSpec::sequential(w, c, r, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn periodic_sessions_stay_in_bounds(
        spec in spec_strategy(),
        period in 1.0..1e6f64,
        remaining in 1.0..5e6f64,
    ) {
        let _ = &spec;
        let p = FixedPeriod::new("p", period);
        let mut s = p.session();
        let chunk = s.next_chunk(remaining, &AgeView::single(0.0), 0.0);
        prop_assert!(chunk > 0.0 && chunk <= remaining);
    }

    #[test]
    fn young_daly_ordering(spec in spec_strategy(), mtbf in 1_000.0..1e9f64) {
        // DalyLow's period strictly exceeds Young's (it adds D + R under
        // the square root).
        let y = young(&spec, mtbf).period();
        let dl = daly_low(&spec, mtbf).period();
        prop_assert!(dl > y);
        // DalyHigh stays within sane bounds of Young.
        let dh = daly_high(&spec, mtbf).period();
        prop_assert!(dh > 0.0 && dh < 4.0 * y + mtbf);
    }

    #[test]
    fn optexp_chunks_tile_the_work(spec in spec_strategy(), mtbf in 1_000.0..1e8f64) {
        let opt = OptExp::from_mtbf(&spec, mtbf);
        let k = opt.chunk_count();
        prop_assert!(k >= 1);
        prop_assert!((opt.period() * k as f64 - spec.work).abs() < 1e-6 * spec.work);
    }

    #[test]
    fn optexp_more_failures_shorter_period(spec in spec_strategy()) {
        let fast = OptExp::from_mtbf(&spec, 3_600.0).period();
        let slow = OptExp::from_mtbf(&spec, 3_600_000.0).period();
        prop_assert!(fast <= slow + 1e-9);
    }

    #[test]
    fn bouguerra_period_in_bounds(
        spec in spec_strategy(),
        mtbf in 1_000.0..1e7f64,
        shape in 0.3..1.5f64,
    ) {
        let plat = Weibull::from_mtbf(shape, mtbf);
        let b = Bouguerra::new(&spec, &plat);
        prop_assert!(b.period() >= spec.checkpoint.max(1.0) * 0.99);
        prop_assert!(b.period() <= spec.work * 1.01);
    }

    #[test]
    fn liu_valid_schedules_respect_constraints(
        spec in spec_strategy(),
        mtbf in 10_000.0..1e8f64,
        shape in 0.5..1.2f64,
    ) {
        let plat = Weibull::from_mtbf(shape, mtbf);
        match Liu::new(&spec, &plat) {
            Ok(liu) => {
                let total: f64 = liu.intervals().iter().sum();
                prop_assert!(total >= spec.work);
                for &iv in liu.intervals() {
                    prop_assert!(iv >= spec.checkpoint);
                }
            }
            Err(msg) => prop_assert!(!msg.is_empty()),
        }
    }

    #[test]
    fn dp_makespan_chunk_within_remaining(
        remaining_frac in 0.05..1.0f64,
        tau in 0.0..1e6f64,
    ) {
        let spec = JobSpec::sequential(500_000.0, 300.0, 300.0, 30.0);
        let dp = DpMakespan::new(
            &spec,
            Box::new(Weibull::from_mtbf(0.7, 50_000.0)),
            DpMakespanConfig { quanta: Some(25), assume_memoryless: false },
        );
        let remaining = spec.work * remaining_frac;
        let chunk = dp.chunk_for(remaining, tau);
        prop_assert!(chunk > 0.0 && chunk <= remaining + 1e-9);
    }

    #[test]
    fn dp_next_failure_monotone_value(
        mtbf in 5_000.0..500_000.0f64,
    ) {
        // More work to schedule can only increase the expected work
        // completed before the next failure.
        let spec = JobSpec::sequential(1_000_000.0, 300.0, 300.0, 30.0);
        let dist = Exponential::from_mtbf(mtbf);
        let dp = DpNextFailure::new(
            &spec,
            Box::new(dist),
            mtbf,
            DpNextFailureConfig {
                quanta: Some(30),
                use_half_schedule: false,
                ..Default::default()
            },
        );
        let ages = AgeView::single(0.0);
        let small = dp.plan(mtbf * 0.5, &ages);
        let large = dp.plan(mtbf * 2.0, &ages);
        let val = |plan: &[f64]| {
            ckpt_policies::dp_next_failure::expected_work_of_schedule(
                &Exponential::from_mtbf(mtbf),
                &[(0.0, 1.0)],
                plan,
                spec.checkpoint,
            )
        };
        prop_assert!(val(&large) >= val(&small) - 1e-9);
    }

    #[test]
    fn compress_ages_invariant_under_permutation(
        raw in proptest::collection::vec((1.0..5e6f64, 1u32..60), 1..40),
        pristine in 0u64..5_000,
        rotate in 0usize..40,
        shape in 0.5..1.2f64,
    ) {
        // The (10, 100) compression must depend only on the age
        // *multiset*, not on how the input pairs are ordered or grouped.
        let dist = Weibull::from_mtbf(shape, 100_000.0);
        let mode = StateCompression::Approximate { n_exact: 10, n_approx: 100 };
        let now = 1e7;
        let view = AgeView::new(raw.clone(), pristine, now);
        let base = ckpt_policies::dp_next_failure::compress_ages(&view, &dist, mode);

        // Same multiset, re-expressed: rotate the pair list and split
        // every multi-processor entry into two pieces.
        let mut alt: Vec<(f64, u32)> = Vec::new();
        let k = rotate % raw.len();
        for &(a, n) in raw[k..].iter().chain(raw[..k].iter()).rev() {
            if n >= 2 {
                alt.push((a, n - 1));
                alt.push((a, 1));
            } else {
                alt.push((a, n));
            }
        }
        let view2 = AgeView::new(alt, pristine, now);
        let other = ckpt_policies::dp_next_failure::compress_ages(&view2, &dist, mode);

        // Compare as canonical (age → total count) maps: grouping may
        // legitimately differ, the weighted multiset may not.
        let canon = |pairs: &[(f64, f64)]| -> Vec<(f64, f64)> {
            let mut merged: Vec<(f64, f64)> = Vec::new();
            for &(a, c) in pairs {
                match merged.last_mut() {
                    Some(last) if last.0.to_bits() == a.to_bits() => last.1 += c,
                    _ => merged.push((a, c)),
                }
            }
            merged
        };
        let (ca, cb) = (canon(&base), canon(&other));
        prop_assert_eq!(ca.len(), cb.len());
        for (&(a1, c1), &(a2, c2)) in ca.iter().zip(cb.iter()) {
            prop_assert!((a1 - a2).abs() <= 1e-9 * a1.abs().max(1.0), "ages {a1} vs {a2}");
            prop_assert!((c1 - c2).abs() <= 1e-9 * c1.max(1.0), "counts {c1} vs {c2}");
        }
    }
}
