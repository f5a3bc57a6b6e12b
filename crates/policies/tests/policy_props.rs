//! Property-based tests over the policy implementations.

use ckpt_platform::AgeView;
use ckpt_policies::{
    daly_high, daly_low, young, Bouguerra, DpMakespan, DpMakespanConfig, FixedPeriod, Liu,
    OptExp, Policy,
};
use ckpt_dist::Weibull;
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
            DpMakespanConfig { quanta: Some(25) },
        );
        let remaining = spec.work * remaining_frac;
        let chunk = dp.chunk_for(remaining, tau);
        prop_assert!(chunk > 0.0 && chunk <= remaining + 1e-9);
    }
}
