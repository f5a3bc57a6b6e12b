//! Liu et al. 2008 — non-periodic checkpoint placement from a
//! checkpointing-frequency function (§4.1's `Liu` heuristic).
//!
//! Liu's model (following the variational-calculus line of Ling et al.)
//! places checkpoints with instantaneous frequency proportional to the
//! square root of the failure hazard rate. On a platform of `p`
//! processors with iid per-processor hazard `h(t)`, the aggregate hazard
//! is `p·h(t)`:
//!
//! ```text
//! n(t) = √(p·h(t) / 2C),     N(t) = ∫₀ᵗ n(s) ds,     dates: N(t_j) = j.
//! ```
//!
//! For a Weibull hazard `h(t) = (k/λ)(t/λ)^{k−1}` the cumulative count has
//! a closed form, so the j-th checkpoint date is
//!
//! ```text
//! t_j = [ j · (k+1)/2 · √(2C/(p·k)) · λ^{k/2} ]^{2/(k+1)}.
//! ```
//!
//! For `k < 1` the hazard diverges at `t → 0`, making the first intervals
//! arbitrarily small — smaller than the checkpoint duration `C` itself on
//! large platforms. The paper flags those placements as nonsensical and
//! plots no result (footnote 2); we reproduce that behaviour by returning
//! an error from the constructor. (The exact validity boundary depends on
//! constant conventions in \[17\], which the paper itself suspects of an
//! error; this re-derivation fails for small shapes and large platforms,
//! matching the reported shape up to a boundary shift — see DESIGN.md.)

use crate::{clamp_chunk, AgeView, Policy, PolicySession};
use ckpt_dist::Weibull;
use ckpt_workload::JobSpec;

/// Liu's non-periodic policy. Holds the precomputed sequence of
/// inter-checkpoint intervals (work seconds), restarted from the top of
/// the schedule after each failure (the hazard clock resets with the
/// platform's renewal).
#[derive(Debug, Clone)]
pub struct Liu {
    intervals: Vec<f64>,
}

impl Liu {
    /// Build Liu's schedule for a job and the per-processor Weibull fit,
    /// aggregated over `spec.procs` processors.
    ///
    /// # Errors
    /// Returns the offending interval when any inter-checkpoint interval is
    /// smaller than the checkpoint duration `C` (the paper's nonsensical
    /// case) or when the schedule fails to make progress.
    pub fn new(spec: &JobSpec, proc_weibull: &Weibull) -> Result<Self, String> {
        let k = proc_weibull.shape();
        let lam = proc_weibull.scale();
        let p = spec.procs as f64;
        let c = spec.checkpoint;
        assert!(c > 0.0, "Liu needs a positive checkpoint cost");

        // t_j = [ j · (k+1)/2 · √(2C/(p·k)) · λ^{k/2} ]^{2/(k+1)}
        let base = (k + 1.0) / 2.0 * (2.0 * c / (p * k)).sqrt() * lam.powf(k / 2.0);
        let date = |j: f64| (j * base).powf(2.0 / (k + 1.0));

        let mut intervals = Vec::new();
        let mut covered = 0.0;
        let mut j = 1u64;
        let mut prev = 0.0;
        while covered < spec.work {
            let t = date(j as f64);
            let interval = t - prev;
            if interval < c {
                return Err(format!(
                    "Liu interval {j} = {interval:.1}s is smaller than the checkpoint \
                     duration C = {c:.1}s (nonsensical placement)"
                ));
            }
            if !interval.is_finite() || interval <= 0.0 {
                return Err(format!("Liu schedule does not progress at j = {j}"));
            }
            intervals.push(interval);
            covered += interval;
            prev = t;
            j += 1;
            if j > 10_000_000 {
                return Err("Liu schedule needs more than 1e7 checkpoints".to_string());
            }
        }
        Ok(Self { intervals })
    }

    /// The inter-checkpoint intervals (work seconds) in schedule order.
    pub fn intervals(&self) -> &[f64] {
        &self.intervals
    }
}

impl Policy for Liu {
    fn name(&self) -> &str {
        "Liu"
    }

    fn session(&self) -> Box<dyn PolicySession + '_> {
        Box::new(LiuSession { intervals: &self.intervals, pos: 0 })
    }
}

struct LiuSession<'a> {
    intervals: &'a [f64],
    pos: usize,
}

impl PolicySession for LiuSession<'_> {
    fn next_chunk(&mut self, remaining: f64, _ages: &AgeView, _now: f64) -> f64 {
        let interval = self
            .intervals
            .get(self.pos)
            .copied()
            .unwrap_or_else(|| *self.intervals.last().expect("non-empty schedule"));
        self.pos += 1;
        clamp_chunk(interval, remaining)
    }

    fn on_failure(&mut self) {
        // The hazard clock renews at a failure: restart the schedule.
        self.pos = 0;
    }

    fn wants_ages(&self) -> bool {
        false
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "a replayed session must reproduce its first run bit for bit")]
mod tests {
    use super::*;

    const DAY: f64 = 86_400.0;
    const YEAR: f64 = 365.25 * DAY;

    #[test]
    fn intervals_increase_for_sub_one_shape() {
        // Decreasing hazard → stretching intervals.
        let spec = JobSpec::table1_single_processor();
        let w = Weibull::from_mtbf(0.7, 7.0 * DAY);
        let liu = Liu::new(&spec, &w).expect("valid for large MTBF");
        let iv = liu.intervals();
        assert!(iv.len() > 2);
        for pair in iv.windows(2) {
            assert!(pair[0] < pair[1], "intervals must increase: {pair:?}");
        }
    }

    #[test]
    fn shape_one_is_periodic_young_like() {
        // k = 1: constant hazard h = 1/λ, so n(t) = √(1/(2Cλ)) constant and
        // the intervals equal √(2Cλ) — Young's period.
        let spec = JobSpec::table1_single_processor();
        let w = Weibull::from_mtbf(1.0, DAY);
        let liu = Liu::new(&spec, &w).unwrap();
        let iv = liu.intervals();
        let young = (2.0f64 * 600.0 * DAY).sqrt();
        for &i in &iv[..iv.len() - 1] {
            assert!((i - young).abs() < 1e-6 * young, "interval {i} vs {young}");
        }
    }

    #[test]
    fn large_platform_small_shape_rejected_as_in_footnote2() {
        // At Petascale with k = 0.5 the first Liu interval falls below
        // C = 600 s → must be rejected (the paper's nonsensical case).
        let spec = JobSpec::table1_petascale(45_208);
        let w = Weibull::from_mtbf(0.5, 125.0 * YEAR);
        let r = Liu::new(&spec, &w);
        assert!(r.is_err(), "expected nonsensical-placement error");
    }

    #[test]
    fn exascale_rejected_even_at_paper_shape() {
        // 2^20 processors, k = 0.7, 1250-year MTBF: first interval < C.
        let spec = JobSpec::table1_exascale(1 << 20);
        let w = Weibull::from_mtbf(0.7, 1_250.0 * YEAR);
        assert!(Liu::new(&spec, &w).is_err());
    }

    #[test]
    fn small_shape_rejected_at_moderate_scale() {
        // Figure 5's mechanism: the smaller k, the earlier the hazard
        // spike, the smaller the first interval.
        let spec = JobSpec::table1_petascale(4_096);
        let w = Weibull::from_mtbf(0.3, 125.0 * YEAR);
        assert!(Liu::new(&spec, &w).is_err());
    }

    #[test]
    fn schedule_covers_the_work() {
        let spec = JobSpec::table1_single_processor();
        let w = Weibull::from_mtbf(0.7, DAY);
        let liu = Liu::new(&spec, &w).unwrap();
        let total: f64 = liu.intervals().iter().sum();
        assert!(total >= spec.work);
    }

    #[test]
    fn session_replays_from_start_after_failure() {
        let spec = JobSpec::table1_single_processor();
        let w = Weibull::from_mtbf(0.7, DAY);
        let liu = Liu::new(&spec, &w).unwrap();
        let ages = AgeView::single(0.0);
        let mut s = liu.session();
        let first = s.next_chunk(spec.work, &ages, 0.0);
        let second = s.next_chunk(spec.work, &ages, 0.0);
        assert!(second > first);
        s.on_failure();
        let replay = s.next_chunk(spec.work, &ages, 0.0);
        assert_eq!(replay, first);
    }

    #[test]
    fn session_past_schedule_end_repeats_last_interval() {
        let spec = JobSpec::sequential(1000.0, 10.0, 10.0, 1.0);
        let w = Weibull::from_mtbf(0.9, 100_000.0);
        let liu = Liu::new(&spec, &w).unwrap();
        let ages = AgeView::single(0.0);
        let mut s = liu.session();
        for _ in 0..liu.intervals().len() + 3 {
            let c = s.next_chunk(1000.0, &ages, 0.0);
            assert!(c > 0.0);
        }
    }
}
