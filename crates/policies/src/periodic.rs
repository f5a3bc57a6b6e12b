//! Periodic checkpointing: equal-size chunks of a fixed period.
//!
//! All the closed-form heuristics (Young, Daly, OptExp, Bouguerra) reduce
//! to this once their period is computed; `PeriodVariation` /`PeriodLB`
//! scale the period of an existing policy by a factor (Appendix A/B
//! sweeps, §4.1 numeric lower bound).

use crate::{clamp_chunk, AgeView, Policy, PolicySession};

/// Checkpoint every `period` seconds of work.
#[derive(Debug, Clone)]
pub struct FixedPeriod {
    name: String,
    period: f64,
}

impl FixedPeriod {
    /// A named fixed-period policy.
    ///
    /// # Panics
    /// Panics unless `period` is positive and finite.
    pub fn new(name: impl Into<String>, period: f64) -> Self {
        assert!(
            period.is_finite() && period > 0.0,
            "period must be positive and finite, got {period}"
        );
        Self { name: name.into(), period }
    }

    /// The work period between checkpoints, seconds.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// The same policy with its period multiplied by `factor` — the
    /// `PeriodVariation` construction of Appendix A/B and the candidate
    /// generator of `PeriodLB` (§4.1).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0);
        Self {
            name: format!("{}*{factor:.4}", self.name),
            period: self.period * factor,
        }
    }
}

impl Policy for FixedPeriod {
    fn name(&self) -> &str {
        &self.name
    }

    fn session(&self) -> Box<dyn PolicySession + '_> {
        Box::new(FixedPeriodSession { period: self.period })
    }
}

struct FixedPeriodSession {
    period: f64,
}

impl PolicySession for FixedPeriodSession {
    fn next_chunk(&mut self, remaining: f64, _ages: &AgeView, _now: f64) -> f64 {
        clamp_chunk(self.period, remaining)
    }

    fn wants_ages(&self) -> bool {
        false
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "a chunk is the configured period or the remaining work, unchanged")]
mod tests {
    use super::*;

    #[test]
    fn yields_period_until_tail() {
        let p = FixedPeriod::new("p", 100.0);
        let mut s = p.session();
        let ages = AgeView::single(0.0);
        assert_eq!(s.next_chunk(1000.0, &ages, 0.0), 100.0);
        assert_eq!(s.next_chunk(250.0, &ages, 0.0), 100.0);
        // Tail chunk shrinks to the remaining work.
        assert_eq!(s.next_chunk(40.0, &ages, 0.0), 40.0);
    }

    #[test]
    fn scaling_multiplies_period() {
        let p = FixedPeriod::new("p", 100.0).scaled(1.5);
        assert!((p.period() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn sessions_are_independent() {
        let p = FixedPeriod::new("p", 10.0);
        let mut a = p.session();
        let mut b = p.session();
        let ages = AgeView::single(0.0);
        assert_eq!(a.next_chunk(100.0, &ages, 0.0), 10.0);
        assert_eq!(b.next_chunk(5.0, &ages, 0.0), 5.0);
        assert_eq!(a.next_chunk(100.0, &ages, 0.0), 10.0);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_period() {
        FixedPeriod::new("bad", 0.0);
    }

    #[test]
    fn scaled_copy_is_renamed_and_leaves_the_original() {
        let p = FixedPeriod::new("Young", 100.0);
        let q = p.scaled(1.5);
        assert_eq!(q.name(), "Young*1.5000");
        assert_eq!((p.name(), p.period()), ("Young", 100.0));
        assert!(!q.session().wants_ages(), "a fixed period ignores processor ages");
    }

    #[test]
    #[should_panic]
    fn rejects_infinite_period() {
        FixedPeriod::new("bad", f64::INFINITY);
    }
}
