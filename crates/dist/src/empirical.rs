//! Empirical distribution built from logged availability intervals (§4.3).
//!
//! The paper constructs the log-based failure model as: *"the conditional
//! probability `P(X ≥ t | X ≥ τ)` that a node stays up for a duration `t`,
//! knowing that it had been up for a duration `τ`, is set equal to the ratio
//! of the number of availability durations in S greater than or equal to
//! `t`, over the number of availability durations in S greater than or
//! equal to `τ`."* That is exactly the survival-ratio definition the
//! [`FailureDistribution`] trait derives from `log_survival`, so this type
//! only needs to expose the counting survival function over the sorted
//! sample — plus the precomputed index structures that make the DP
//! kernels cheap:
//!
//! * `log_tail[i] = ln((n−i)/n)` — log-survival by sorted index, so a
//!   query is one rank lookup instead of a `ln` call;
//! * `prefix[i] = Σ_{k<i} dₖ` — exact survival integral
//!   `I(t) = ∫₀ᵗ S = (prefix[rank] + (n−rank)·t)/n`, giving
//!   `E[Tlost(x|τ)]` in O(log n) instead of adaptive quadrature;
//! * a uniform value-grid of rank *anchors* narrowing each rank search
//!   to a couple of bisection steps in the common case;
//! * a stored value fingerprint (over the sorted duration bits), so the
//!   shared DP plan/kernel-row caches pool results across every
//!   instance built from the same log.

use crate::{loss, DistError, FailureDistribution};
use rand::RngCore;

/// Anchor buckets per logged duration — the value grid is `2n` cells.
const ANCHORS_PER_DURATION: usize = 2;

/// Discrete empirical failure distribution over a log's availability
/// durations.
#[derive(Debug, Clone)]
pub struct Empirical {
    /// Sorted ascending availability durations.
    durations: Vec<f64>,
    mean: f64,
    /// `ln((n−i)/n)` for `i = 0..n`; `rank = n` is the −∞ sentinel.
    log_tail: Vec<f64>,
    /// `prefix[i] = Σ_{k<i} durations[k]` (length `n + 1`).
    prefix: Vec<f64>,
    /// `anchors[j] = rank(d₀ + j·anchor_step)`: rank bounds per value
    /// cell, so a rank query bisects a short slice instead of the log.
    anchors: Vec<u32>,
    /// Reciprocal of the anchor cell width (0 for a degenerate support).
    anchor_inv_step: f64,
    /// Value identity over the sorted duration bits.
    fingerprint: u64,
}

impl Empirical {
    /// Build from a set of availability durations (seconds).
    ///
    /// # Panics
    /// Panics on an empty set or non-finite/negative durations; the
    /// fallible form is [`Empirical::try_from_durations`].
    pub fn from_durations(durations: Vec<f64>) -> Self {
        match Self::try_from_durations(durations) {
            Ok(e) => e,
            Err(e) => panic!("Empirical: {e}"),
        }
    }

    /// Build from a set of availability durations (seconds), reporting a
    /// typed [`DistError`] on an empty set or a non-finite/non-positive
    /// duration.
    pub fn try_from_durations(mut durations: Vec<f64>) -> Result<Self, DistError> {
        if durations.is_empty() {
            return Err(DistError::EmptySample);
        }
        if let Some((index, &value)) =
            durations.iter().enumerate().find(|(_, d)| !(d.is_finite() && **d > 0.0))
        {
            return Err(DistError::InvalidDuration { index, value });
        }
        // All finite by the check above, so total order == partial order.
        durations.sort_by(|a, b| a.total_cmp(b));
        let n = durations.len();
        let mean = durations.iter().copied().collect::<ckpt_math::KahanSum>().value()
            / n as f64;
        // log_tail[i] must reproduce the historical `(c/n).ln()` bits so
        // precomputing it is invisible to every cached result.
        let log_tail: Vec<f64> =
            (0..n).map(|i| ((n - i) as f64 / n as f64).ln()).collect();
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0.0);
        let mut acc = 0.0f64;
        for &d in &durations {
            acc += d;
            prefix.push(acc);
        }
        let lo = durations[0];
        let hi = durations[n - 1];
        let cells = n * ANCHORS_PER_DURATION;
        let (anchors, anchor_inv_step) = if hi > lo {
            let step = (hi - lo) / cells as f64;
            let mut anchors: Vec<u32> = (0..=cells as u64)
                .map(|j| {
                    let threshold = lo + j as f64 * step;
                    durations.partition_point(|&d| d < threshold) as u32
                })
                .collect();
            // The last threshold may round below `hi`; `n` is the one
            // always-safe upper bound for the final cell.
            anchors[cells] = n as u32;
            (anchors, 1.0 / step)
        } else {
            (vec![0, n as u32], 0.0)
        };
        let bits: Vec<u64> = durations.iter().map(|d| d.to_bits()).collect();
        let fingerprint = crate::combine_fingerprint(4, &bits);
        Ok(Self { durations, mean, log_tail, prefix, anchors, anchor_inv_step, fingerprint })
    }

    /// Number of logged durations.
    pub fn len(&self) -> usize {
        self.durations.len()
    }

    /// True when the log holds no durations (never after construction).
    pub fn is_empty(&self) -> bool {
        self.durations.is_empty()
    }

    /// Rank of `t`: number of logged durations `< t` (the
    /// `partition_point` the survival count is defined by), answered
    /// through the anchor grid. The anchors only *narrow* the bisection
    /// range — widened one cell each way to absorb the float rounding in
    /// the cell computation — so the result is exactly the full
    /// `partition_point`.
    #[inline]
    fn rank(&self, t: f64) -> usize {
        let n = self.durations.len();
        if t <= self.durations[0] {
            return 0;
        }
        if t > self.durations[n - 1] {
            return n;
        }
        let cells = self.anchors.len() - 1;
        let j = ((t - self.durations[0]) * self.anchor_inv_step) as usize;
        let lo = self.anchors[j.saturating_sub(1).min(cells)] as usize;
        let hi = self.anchors[(j + 2).min(cells)] as usize;
        debug_assert!(
            {
                let exact = self.durations.partition_point(|&d| d < t);
                (lo..=hi).contains(&exact)
            },
            "anchor cell misses the true rank"
        );
        lo + self.durations[lo..hi].partition_point(|&d| d < t)
    }

    /// Count of durations `≥ t` (the numerator/denominator of §4.3).
    pub fn count_at_least(&self, t: f64) -> usize {
        self.durations.len() - self.rank(t)
    }

    /// Largest logged duration — the support's upper edge. Test-only: the
    /// kernel-table tests probe past it.
    #[cfg(test)]
    pub fn max_duration(&self) -> f64 {
        // Construction guarantees at least one duration.
        self.durations[self.durations.len() - 1]
    }

    /// Exact survival integral `I(t) = ∫₀ᵗ S(s) ds = E[min(D, t)]`:
    /// `(Σ_{d<t} d + #{d ≥ t}·t) / n` straight off the prefix sums.
    pub fn survival_integral(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let n = self.durations.len();
        let r = self.rank(t);
        (self.prefix[r] + (n - r) as f64 * t) / n as f64
    }
}

impl FailureDistribution for Empirical {
    fn log_survival(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let r = self.rank(t);
        if r == self.durations.len() {
            f64::NEG_INFINITY
        } else {
            self.log_tail[r]
        }
    }

    fn log_survival_batch(&self, ts: &[f64], out: &mut [f64]) {
        assert_eq!(ts.len(), out.len(), "log_survival_batch: length mismatch");
        let n = self.durations.len();
        for (o, &t) in out.iter_mut().zip(ts) {
            *o = if t <= 0.0 {
                0.0
            } else {
                let r = self.rank(t);
                if r == n { f64::NEG_INFINITY } else { self.log_tail[r] }
            };
        }
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        use rand::Rng;
        self.durations[rng.gen_range(0..self.durations.len())]
    }

    fn inverse_survival(&self, s: f64) -> f64 {
        assert!(s > 0.0 && s <= 1.0);
        // Smallest t with count_at_least(t)/n ≤ s: step to the next order
        // statistic. Survival at the i-th sorted value (0-based) is
        // (n − i)/n, so we need i ≥ n(1 − s).
        let n = self.durations.len();
        let i = ((n as f64) * (1.0 - s)).ceil() as usize;
        self.durations[i.min(n - 1)]
    }

    fn expected_loss(&self, x: f64, tau: f64) -> f64 {
        // Closed form over the prefix sums — replaces the generic
        // adaptive quadrature (which pays a rank search per integrand
        // evaluation) with two rank searches total.
        loss::expected_loss_from_integral(
            |t| self.survival_integral(t),
            |t| self.survival(t),
            x,
            tau.max(0.0),
        )
    }

    fn clone_box(&self) -> Box<dyn FailureDistribution> {
        Box::new(self.clone())
    }

    fn fingerprint(&self) -> Option<u64> {
        // log_survival is a pure function of the sorted duration bits;
        // precomputed at construction (hashing the log once), so the
        // shared DP caches pool plans across instances of the same log.
        Some(self.fingerprint)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "a step distribution returns its recorded values and sums of them exactly")]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_log() -> Empirical {
        Empirical::from_durations(vec![10.0, 20.0, 30.0, 40.0, 50.0])
    }

    #[test]
    fn counting_survival() {
        let e = sample_log();
        assert_eq!(e.count_at_least(0.0), 5);
        assert_eq!(e.count_at_least(10.0), 5);
        assert_eq!(e.count_at_least(10.1), 4);
        assert_eq!(e.count_at_least(50.0), 1);
        assert_eq!(e.count_at_least(50.1), 0);
        assert!((e.survival(25.0) - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn anchored_rank_matches_partition_point_everywhere() {
        // Clustered + outlier values stress the uniform value grid: most
        // anchors collapse onto the dense region and the widened cell
        // lookup must still reproduce the exact rank.
        let mut durations: Vec<f64> = (0..400).map(|i| 100.0 + (i % 37) as f64 * 0.25).collect();
        durations.extend([1e6, 2e6, 5e7]);
        let e = Empirical::from_durations(durations.clone());
        durations.sort_by(|a, b| a.total_cmp(b));
        let mut probes: Vec<f64> = durations.clone();
        probes.extend(durations.iter().map(|d| d + 1e-9));
        probes.extend(durations.iter().map(|d| d - 1e-9));
        probes.extend([0.0, 99.0, 1e8, 3.3e6]);
        for t in probes {
            let got = e.count_at_least(t);
            let want = durations.iter().filter(|&&d| d >= t).count();
            assert_eq!(got, want, "t = {t}");
        }
    }

    #[test]
    fn log_survival_batch_matches_scalar_bits() {
        let e = sample_log();
        let ts: Vec<f64> = vec![-5.0, 0.0, 5.0, 10.0, 25.0, 50.0, 51.0, 1e9];
        let mut out = vec![f64::NAN; ts.len()];
        e.log_survival_batch(&ts, &mut out);
        for (i, &t) in ts.iter().enumerate() {
            assert_eq!(out[i].to_bits(), e.log_survival(t).to_bits(), "t = {t}");
        }
    }

    #[test]
    fn paper_conditional_ratio() {
        // §4.3: P(X ≥ t | X ≥ τ) = #{d ≥ t} / #{d ≥ τ}.
        let e = sample_log();
        // P(X ≥ 40 | X ≥ 20) = 2/4.
        assert!((e.psuc(20.0, 20.0) - 0.5).abs() < 1e-12);
        // P(X ≥ 45 | X ≥ 15) = 1/4.
        assert!((e.psuc(30.0, 15.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn beyond_support_survival_zero() {
        let e = sample_log();
        assert_eq!(e.survival(60.0), 0.0);
        assert_eq!(e.psuc(100.0, 0.0), 0.0);
        // Conditioning past the support: conservative 0.
        assert_eq!(e.psuc(1.0, 60.0), 0.0);
    }

    #[test]
    fn mean_is_sample_mean() {
        let e = sample_log();
        assert!((e.mean() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_draws_logged_values() {
        let e = sample_log();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            let v = e.sample(&mut rng);
            assert!([10.0, 20.0, 30.0, 40.0, 50.0].contains(&v));
        }
    }

    #[test]
    fn sampling_is_uniform_over_log() {
        let e = sample_log();
        let mut rng = StdRng::seed_from_u64(8);
        let n = 100_000;
        let tens = (0..n).filter(|_| e.sample(&mut rng) == 10.0).count();
        let frac = tens as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn inverse_survival_steps_through_order_statistics() {
        let e = sample_log();
        assert_eq!(e.inverse_survival(1.0), 10.0);
        // Survival(30) = 3/5 = 0.6 → inverse at 0.6 is 30.
        assert_eq!(e.inverse_survival(0.6), 30.0);
        assert_eq!(e.inverse_survival(0.2), 50.0);
        // Below the smallest achievable survival: max duration.
        assert_eq!(e.inverse_survival(0.05), 50.0);
    }

    #[test]
    fn survival_integral_is_expected_min() {
        let e = sample_log();
        // I(t) = E[min(D, t)]: exact piecewise values.
        assert_eq!(e.survival_integral(0.0), 0.0);
        assert_eq!(e.survival_integral(10.0), 10.0); // all d ≥ 10
        // t = 25: d<25 → {10, 20}, 3 at least: (30 + 3·25)/5 = 21.
        assert!((e.survival_integral(25.0) - 21.0).abs() < 1e-12);
        // Past the support: E[D] = mean.
        assert!((e.survival_integral(1e9) - e.mean()).abs() < 1e-9);
    }

    #[test]
    fn expected_loss_within_window() {
        let e = sample_log();
        let loss = e.expected_loss(35.0, 0.0);
        assert!(loss > 0.0 && loss < 35.0, "got {loss}");
    }

    #[test]
    fn expected_loss_matches_discrete_mean() {
        // E[X − τ | τ ≤ X < τ+x] over a discrete sample is the plain mean
        // of (d − τ) across the logged durations inside the window — the
        // prefix-sum closed form must reproduce it exactly. (The generic
        // quadrature is NOT the oracle here: adaptive Simpson can place a
        // step discontinuity a whole cell off, several percent of x on
        // a sparse window.)
        let durs: Vec<f64> = (1..200).map(|i| (i as f64 * 13.7) % 977.0 + 1.0).collect();
        let e = Empirical::from_durations(durs.clone());
        for &(x, tau) in &[(50.0, 0.0), (200.0, 100.0), (900.0, 30.0), (30.0, 800.0)] {
            let fast = e.expected_loss(x, tau);
            let window: Vec<f64> =
                durs.iter().copied().filter(|&d| d >= tau && d < tau + x).collect();
            let exact = if window.is_empty() {
                0.5 * x
            } else {
                window.iter().map(|d| d - tau).sum::<f64>() / window.len() as f64
            };
            assert!(
                (fast - exact).abs() <= 1e-9 * x,
                "x={x} τ={tau}: closed {fast} vs discrete mean {exact}"
            );
        }
    }

    #[test]
    fn fingerprint_pools_same_log_instances() {
        let a = sample_log();
        let b = sample_log();
        let c = Empirical::from_durations(vec![10.0, 20.0, 30.0, 40.0, 50.5]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert!(a.fingerprint().is_some());
    }

    #[test]
    #[should_panic]
    fn rejects_empty() {
        Empirical::from_durations(vec![]);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive() {
        Empirical::from_durations(vec![1.0, 0.0]);
    }

    #[test]
    fn try_constructor_reports_typed_errors() {
        use crate::DistError;
        assert!(matches!(
            Empirical::try_from_durations(vec![]),
            Err(DistError::EmptySample)
        ));
        match Empirical::try_from_durations(vec![1.0, f64::NAN, 2.0]) {
            Err(DistError::InvalidDuration { index: 1, value }) => assert!(value.is_nan()),
            other => panic!("expected InvalidDuration at #1, got {other:?}"),
        }
        assert!(Empirical::try_from_durations(vec![3.0, 1.0]).is_ok());
    }
}
