//! Compressed processor-age view.
//!
//! A policy asking "how likely is the platform to survive the next `x`
//! seconds?" needs the multiset `{τ₁, …, τ_p}` of times since each
//! processor's last failure. Materialising that is `O(p)` per decision —
//! prohibitive at `p = 2^20`. But under failed-only rejuvenation almost all
//! processors have *never* failed, and those all share the same age
//! (time since the trace origin). [`AgeView`] therefore stores only the
//! ages of ever-failed units plus a bulk count, making every policy-side
//! operation `O(#failures so far)`.

/// Snapshot of processor ages at a decision point.
#[derive(Debug, Clone, PartialEq)]
pub struct AgeView {
    /// Ages (seconds since own last failure) of units that failed at least
    /// once, in ascending order. Each entry is `(age, procs_in_unit)`.
    failed: Vec<(f64, u32)>,
    /// Number of processors that never failed.
    pristine_procs: u64,
    /// Common age of the never-failed processors (time since trace origin).
    pristine_age: f64,
}

impl AgeView {
    /// Build a view. `failed_ages` holds `(age, processor-count)` pairs for
    /// ever-failed units in any order.
    pub fn new(mut failed_ages: Vec<(f64, u32)>, pristine_procs: u64, pristine_age: f64) -> Self {
        assert!(pristine_age >= 0.0);
        assert!(
            failed_ages.iter().all(|&(a, n)| a >= 0.0 && n >= 1),
            "ages must be non-negative with positive multiplicity"
        );
        failed_ages.sort_by(|a, b| a.0.total_cmp(&b.0));
        Self { failed: failed_ages, pristine_procs, pristine_age }
    }

    /// Build from ages already sorted ascending — skips the sort, which
    /// matters when the simulator constructs a view at every decision
    /// point of a failure-dense run.
    pub fn from_sorted(failed_ages: Vec<(f64, u32)>, pristine_procs: u64, pristine_age: f64) -> Self {
        debug_assert!(
            failed_ages.windows(2).all(|w| w[0].0 <= w[1].0),
            "from_sorted: ages must be ascending"
        );
        debug_assert!(failed_ages.iter().all(|&(a, n)| a >= 0.0 && n >= 1));
        Self { failed: failed_ages, pristine_procs, pristine_age }
    }

    /// A platform where no processor has failed yet.
    pub fn all_pristine(procs: u64, age: f64) -> Self {
        Self::new(Vec::new(), procs, age)
    }

    /// A single processor of the given age (the sequential case).
    pub fn single(age: f64) -> Self {
        Self::new(vec![(age, 1)], 0, 0.0)
    }

    /// Total processor count.
    pub fn proc_count(&self) -> u64 {
        self.pristine_procs + self.failed.iter().map(|&(_, n)| u64::from(n)).sum::<u64>()
    }

    /// Ages of ever-failed units, ascending, with processor multiplicity.
    pub fn failed_ages(&self) -> &[(f64, u32)] {
        &self.failed
    }

    /// `(count, age)` of the never-failed processors.
    pub fn pristine(&self) -> (u64, f64) {
        (self.pristine_procs, self.pristine_age)
    }

    /// Recover the failed-ages vector, surrendering the view. Lets a
    /// simulation loop recycle one buffer across decision points instead
    /// of allocating a fresh snapshot per decision.
    pub fn into_failed(self) -> Vec<(f64, u32)> {
        self.failed
    }

    /// Smallest age across the platform.
    pub fn min_age(&self) -> f64 {
        match self.failed.first() {
            Some(&(a, _)) if self.pristine_procs == 0 || a <= self.pristine_age => a,
            _ if self.pristine_procs > 0 => self.pristine_age,
            Some(&(a, _)) => a,
            None => self.pristine_age,
        }
    }
}

/// Direct platform-survival forms over the view. The planners fold ages
/// into their own grids; the tests check the view against these.
#[cfg(test)]
impl AgeView {
    /// Platform-wide log-survival of the next `x` seconds:
    /// `Σᵢ nᵢ · (lnS(τᵢ + x) − lnS(τᵢ))` — the log of §3.3's
    /// `Psuc(x | τ₁…τ_p) = Π P(X ≥ x + τᵢ | X ≥ τᵢ)`.
    pub fn log_psuc(&self, dist: &dyn ckpt_dist::FailureDistribution, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for &(age, n) in &self.failed {
            acc += f64::from(n) * (dist.log_survival(age + x) - dist.log_survival(age));
        }
        if self.pristine_procs > 0 {
            acc += self.pristine_procs as f64
                * (dist.log_survival(self.pristine_age + x)
                    - dist.log_survival(self.pristine_age));
        }
        acc
    }

    /// Platform-wide success probability over the next `x` seconds.
    pub fn psuc(&self, dist: &dyn ckpt_dist::FailureDistribution, x: f64) -> f64 {
        self.log_psuc(dist, x).exp()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "ages are copied, not computed, and psuc over no time is exactly 1")]
mod tests {
    use super::*;
    use ckpt_dist::{Exponential, FailureDistribution, Weibull};
    use proptest::prelude::*;

    #[test]
    fn proc_count_sums_multiplicities() {
        let v = AgeView::new(vec![(10.0, 4), (20.0, 4)], 92, 1000.0);
        assert_eq!(v.proc_count(), 100);
    }

    #[test]
    fn min_age_considers_both_sides() {
        let v = AgeView::new(vec![(10.0, 1)], 5, 1000.0);
        assert_eq!(v.min_age(), 10.0);
        let v2 = AgeView::new(vec![(10.0, 1)], 5, 2.0);
        assert_eq!(v2.min_age(), 2.0);
        let v3 = AgeView::all_pristine(8, 7.0);
        assert_eq!(v3.min_age(), 7.0);
    }

    #[test]
    fn exponential_psuc_is_product_form() {
        // Memoryless: platform psuc = e^{−pλx} regardless of ages.
        let d = Exponential::new(1e-4);
        let v = AgeView::new(vec![(5.0, 2), (500.0, 3)], 5, 99.0);
        let p = v.psuc(&d, 1000.0);
        let expect = (-10.0f64 * 1e-4 * 1000.0).exp();
        assert!((p - expect).abs() < 1e-12, "{p} vs {expect}");
    }

    #[test]
    fn weibull_psuc_matches_bruteforce_product() {
        let d = Weibull::from_mtbf(0.7, 5000.0);
        let v = AgeView::new(vec![(3.0, 2), (70.0, 1)], 4, 400.0);
        let x = 120.0;
        let brute: f64 = [3.0, 3.0, 70.0, 400.0, 400.0, 400.0, 400.0]
            .iter()
            .map(|&tau| d.psuc(x, tau))
            .product();
        assert!((v.psuc(&d, x) - brute).abs() < 1e-12);
    }

    #[test]
    fn older_platform_survives_better_for_sub_one_shape() {
        let d = Weibull::from_mtbf(0.7, 5000.0);
        let young = AgeView::all_pristine(100, 1.0);
        let old = AgeView::all_pristine(100, 100_000.0);
        assert!(old.psuc(&d, 50.0) > young.psuc(&d, 50.0));
    }

    #[test]
    fn zero_window_certain_success() {
        let d = Weibull::from_mtbf(0.5, 10.0);
        let v = AgeView::all_pristine(1000, 0.0);
        assert_eq!(v.psuc(&d, 0.0), 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn age_view_psuc_equals_bruteforce(
            ages in proptest::collection::vec((0.0..1e6f64, 1u32..5), 1..6),
            pristine in 0u64..50,
            pristine_age in 0.0..1e6f64,
            x in 1.0..50_000.0f64,
        ) {
            let d = Weibull::from_mtbf(0.7, 500_000.0);
            let view = AgeView::new(ages.clone(), pristine, pristine_age);
            let mut brute = 1.0f64;
            for (a, n) in &ages {
                for _ in 0..*n {
                    brute *= d.psuc(x, *a);
                }
            }
            for _ in 0..pristine {
                brute *= d.psuc(x, pristine_age);
            }
            let fast = view.psuc(&d, x);
            prop_assert!((fast - brute).abs() < 1e-9 * brute.max(1e-12),
                "fast {fast} vs brute {brute}");
        }
    }

    #[test]
    fn single_age_view_equals_scalar_psuc() {
        let d = Weibull::from_mtbf(0.7, 100.0);
        let v = AgeView::single(42.0);
        assert!((v.psuc(&d, 10.0) - d.psuc(10.0, 42.0)).abs() < 1e-15);
    }
}
