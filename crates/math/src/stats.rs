//! Compensated summation and summary statistics.
//!
//! The degradation tables (Tables 2–4) report averages and standard
//! deviations over 600 per-trace ratios; Kahan compensation keeps those
//! stable when the harness fans out to hundreds of thousands of samples.

/// Kahan–Babuška compensated accumulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct KahanSum {
    sum: f64,
    comp: f64,
}

impl KahanSum {
    /// Fresh accumulator at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one value.
    pub fn add(&mut self, v: f64) {
        let t = self.sum + v;
        if self.sum.abs() >= v.abs() {
            self.comp += (self.sum - t) + v;
        } else {
            self.comp += (v - t) + self.sum;
        }
        self.sum = t;
    }

    /// Current compensated total.
    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }
}

impl std::iter::FromIterator<f64> for KahanSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        for v in iter {
            s.add(v);
        }
        s
    }
}

/// Summary statistics over a sample: count, mean, standard deviation,
/// min/max, and arbitrary percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
    std_dev: f64,
}

impl Summary {
    /// Build from a sample (NaNs are rejected).
    ///
    /// # Panics
    /// Panics on an empty sample or any NaN.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "Summary: empty sample");
        assert!(
            samples.iter().all(|v| !v.is_nan()),
            "Summary: NaN in sample"
        );
        let n = samples.len() as f64;
        let mean = samples.iter().copied().collect::<KahanSum>().value() / n;
        let var = samples
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .collect::<KahanSum>()
            .value()
            / n;
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Self { sorted, mean, std_dev: var.max(0.0).sqrt() }
    }

    /// Sample size.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation (as the paper's tables report).
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Minimum.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Linear-interpolated percentile, `q ∈ [0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "percentile: q ∈ [0,1]");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "sums and order statistics of small integers are exact")]
mod tests {
    use super::*;

    #[test]
    fn kahan_beats_naive_on_pathological_sum() {
        let mut k = KahanSum::new();
        k.add(1e16);
        for _ in 0..10_000 {
            k.add(1.0);
        }
        k.add(-1e16);
        assert_eq!(k.value(), 10_000.0);
    }

    #[test]
    fn summary_basics() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-15);
        assert!((s.std_dev() - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.median() - 2.5).abs() < 1e-15);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::from_samples(&[0.0, 10.0]);
        assert!((s.percentile(0.25) - 2.5).abs() < 1e-12);
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.percentile(1.0), 10.0);
    }

    #[test]
    fn single_sample() {
        let s = Summary::from_samples(&[7.0]);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.percentile(0.3), 7.0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty() {
        Summary::from_samples(&[]);
    }

    #[test]
    #[should_panic]
    fn rejects_nan() {
        Summary::from_samples(&[1.0, f64::NAN]);
    }

    #[test]
    fn collecting_into_kahan_matches_repeated_add() {
        let vals = [0.1, 1e10, -3.7, 2.2e-8, 42.0];
        let mut k = KahanSum::new();
        for &v in &vals {
            k.add(v);
        }
        let collected: KahanSum = vals.iter().copied().collect();
        assert_eq!(collected.value(), k.value());
    }

    #[test]
    fn std_dev_is_the_population_form() {
        // Deviations² sum to 32 over 8 samples: population σ = 2 (sample σ would be √(32/7)).
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.std_dev() - 2.0).abs() < 1e-15);
        assert!((s.mean() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn summary_ignores_input_order() {
        let a = Summary::from_samples(&[9.0, -1.0, 3.5, 0.0, 2.0]);
        let b = Summary::from_samples(&[0.0, 2.0, 9.0, 3.5, -1.0]);
        assert_eq!(a, b);
        assert_eq!(a.median(), 2.0);
        assert_eq!(a.min(), -1.0);
        assert_eq!(a.max(), 9.0);
    }

    #[test]
    #[should_panic]
    fn percentile_rejects_q_above_one() {
        Summary::from_samples(&[1.0, 2.0]).percentile(1.5);
    }
}
