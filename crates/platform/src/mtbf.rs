//! Analytic platform MTBF under the two rejuvenation options — the math
//! behind Figure 1 and the §3.1 "important remark on rejuvenation".
//!
//! Take `p` processors with iid Weibull(λ, k) inter-arrival times of mean
//! `μ = λ Γ(1 + 1/k)` and a downtime `D` per failure.
//!
//! * **Rejuvenate all**: after every failure the whole platform restarts a
//!   fresh lifetime, so platform failures are iid minima of `p` Weibulls —
//!   again Weibull, with scale `λ/p^{1/k}` — and the platform MTBF is
//!   `D + μ/p^{1/k}`.
//! * **Rejuvenate failed only**: each processor renews independently every
//!   `D + μ` on average, so the platform sees `p/(D+μ)` failures per unit
//!   time: MTBF `(D + μ)/p`.
//!
//! For `k < 1` (all real-world fits), `p^{1/k} ≫ p`, so rejuvenating
//! everything *destroys* the platform MTBF — the paper's argument for the
//! failed-only model.

use ckpt_dist::{FailureDistribution, Weibull};

/// Platform MTBF when **all** processors are rejuvenated after each
/// failure: `D + μ / p^{1/k}`.
pub fn platform_mtbf_rejuvenate_all(weibull: &Weibull, downtime: f64, p: u64) -> f64 {
    assert!(p >= 1 && downtime >= 0.0);
    downtime + weibull.min_of(p).mean()
}

/// Platform MTBF when **only the failed** processor is rejuvenated:
/// `(D + μ) / p`. Valid for any inter-arrival distribution of mean `μ`.
pub fn platform_mtbf_failed_only(proc_mean: f64, downtime: f64, p: u64) -> f64 {
    assert!(p >= 1 && downtime >= 0.0 && proc_mean > 0.0);
    (downtime + proc_mean) / p as f64
}

/// One row of Figure 1: `(p, MTBF_all, MTBF_failed_only)` in seconds.
pub fn figure1_row(weibull: &Weibull, downtime: f64, p: u64) -> (u64, f64, f64) {
    (
        p,
        platform_mtbf_rejuvenate_all(weibull, downtime, p),
        platform_mtbf_failed_only(weibull.mean(), downtime, p),
    )
}

/// The full Figure 1 series over powers of two `2^lo ..= 2^hi`.
pub fn figure1_series(
    weibull: &Weibull,
    downtime: f64,
    lo: u32,
    hi: u32,
) -> Vec<(u64, f64, f64)> {
    assert!(lo <= hi && hi < 63);
    (lo..=hi).map(|e| figure1_row(weibull, downtime, 1u64 << e)).collect()
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the series must equal the closed forms it is built from, bit for bit")]
mod tests {
    use super::*;

    const YEAR: f64 = 365.25 * 86_400.0;

    fn paper_weibull() -> Weibull {
        // Figure 1 configuration: shape 0.70, processor MTBF 125 years.
        Weibull::from_mtbf(0.7, 125.0 * YEAR)
    }

    #[test]
    fn exponential_case_prefers_rejuvenate_all() {
        // §3.1: for k = 1 rejuvenating all gives a higher platform MTBF
        // (μ/p + D vs (μ + D)/p — the downtime isn't divided by p).
        let w = Weibull::from_mtbf(1.0, 125.0 * YEAR);
        let d = 60.0;
        for &p in &[16u64, 1024, 45_208] {
            let all = platform_mtbf_rejuvenate_all(&w, d, p);
            let failed = platform_mtbf_failed_only(w.mean(), d, p);
            assert!(all > failed, "p = {p}: all {all} failed {failed}");
        }
    }

    #[test]
    fn weibull_sub_one_prefers_failed_only_at_scale() {
        // The crossover behaviour of Figure 1: for k = 0.7 and large p,
        // failed-only wins by orders of magnitude.
        let w = paper_weibull();
        let d = 60.0;
        let all = platform_mtbf_rejuvenate_all(&w, d, 1 << 18);
        let failed = platform_mtbf_failed_only(w.mean(), d, 1 << 18);
        assert!(
            failed > 4.0 * all,
            "failed-only {failed} should dominate rejuvenate-all {all}"
        );
    }

    #[test]
    fn figure1_series_is_monotone_decreasing() {
        let w = paper_weibull();
        let rows = figure1_series(&w, 60.0, 4, 22);
        assert_eq!(rows.len(), 19);
        for pair in rows.windows(2) {
            assert!(pair[0].1 > pair[1].1, "rejuvenate-all not decreasing");
            assert!(pair[0].2 > pair[1].2, "failed-only not decreasing");
        }
    }

    #[test]
    fn failed_only_scales_exactly_inverse_p() {
        let m1 = platform_mtbf_failed_only(1000.0, 60.0, 1);
        let m10 = platform_mtbf_failed_only(1000.0, 60.0, 10);
        assert!((m1 / m10 - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rejuvenate_all_scales_inverse_p_to_one_over_k() {
        let w = paper_weibull();
        // Without downtime, MTBF_all(p) = μ / p^{1/k} exactly.
        let m1 = platform_mtbf_rejuvenate_all(&w, 0.0, 1);
        let m1024 = platform_mtbf_rejuvenate_all(&w, 0.0, 1024);
        let expect = 1024f64.powf(1.0 / 0.7);
        assert!(((m1 / m1024) / expect - 1.0).abs() < 1e-9);
    }

    #[test]
    fn jaguar_failure_per_day_consistency() {
        // §4.3: a 45,208-proc platform at 125 y per-proc MTBF experiences
        // ≈ 1 failure per day under failed-only renewal.
        let mtbf = platform_mtbf_failed_only(125.0 * YEAR, 60.0, 45_208);
        let per_day = 86_400.0 / mtbf;
        assert!(
            (0.9..1.2).contains(&per_day),
            "failures/day = {per_day}"
        );
    }

    #[test]
    fn one_processor_makes_both_models_agree() {
        // With p = 1 both models renew the one processor: MTBF = D + μ.
        let w = paper_weibull();
        let all = platform_mtbf_rejuvenate_all(&w, 60.0, 1);
        let failed = platform_mtbf_failed_only(w.mean(), 60.0, 1);
        assert!((all / (60.0 + w.mean()) - 1.0).abs() < 1e-12);
        assert!((failed / (60.0 + w.mean()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn figure1_rows_pair_both_models_at_powers_of_two() {
        let w = paper_weibull();
        let rows = figure1_series(&w, 60.0, 3, 6);
        let ps: Vec<u64> = rows.iter().map(|r| r.0).collect();
        assert_eq!(ps, [8, 16, 32, 64]);
        for &(p, all, failed) in &rows {
            assert_eq!(all, platform_mtbf_rejuvenate_all(&w, 60.0, p));
            assert_eq!(failed, platform_mtbf_failed_only(w.mean(), 60.0, p));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_zero_processors() {
        platform_mtbf_failed_only(1000.0, 60.0, 0);
    }
}
