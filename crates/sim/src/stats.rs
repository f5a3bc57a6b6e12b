//! Per-run accounting.

/// Outcome of one simulated job execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Wall-clock from job start to completion, seconds.
    pub makespan: f64,
    /// Number of failures that struck during the execution (including
    /// failures during recoveries and cascaded downtimes).
    pub failures: u64,
    /// Productive compute time (work that ended up checkpointed), seconds.
    pub work_time: f64,
    /// Time spent writing checkpoints that completed, seconds.
    pub checkpoint_time: f64,
    /// Compute/checkpoint time thrown away by failures, seconds.
    pub lost_time: f64,
    /// Time blocked on downtimes (including cascades), seconds.
    pub downtime_time: f64,
    /// Time spent in recovery attempts (successful and aborted), seconds.
    pub recovery_time: f64,
    /// Number of chunks successfully executed and checkpointed.
    pub chunks_completed: u64,
    /// Decision points: chunks attempted, i.e. policy consultations
    /// (each either commits or is cut short by a failure).
    pub decisions: u64,
    /// Smallest and largest chunk the policy attempted, seconds.
    pub chunk_min: f64,
    /// Largest chunk attempted, seconds.
    pub chunk_max: f64,
    /// True when the execution ran past the trace horizon (no failure data
    /// beyond it; the engine treats the remainder as failure-free).
    pub past_horizon: bool,
}

impl RunStats {
    pub(crate) fn new() -> Self {
        Self {
            makespan: 0.0,
            failures: 0,
            work_time: 0.0,
            checkpoint_time: 0.0,
            lost_time: 0.0,
            downtime_time: 0.0,
            recovery_time: 0.0,
            chunks_completed: 0,
            decisions: 0,
            chunk_min: f64::INFINITY,
            chunk_max: 0.0,
            past_horizon: false,
        }
    }

    /// Total accounted time; equals the makespan up to floating error.
    pub fn accounted(&self) -> f64 {
        self.work_time
            + self.checkpoint_time
            + self.lost_time
            + self.downtime_time
            + self.recovery_time
    }

    pub(crate) fn observe_chunk(&mut self, chunk: f64) {
        self.chunk_min = self.chunk_min.min(chunk);
        self.chunk_max = self.chunk_max.max(chunk);
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "sums, minima and maxima of small integers are exact")]
mod tests {
    use super::*;

    #[test]
    fn accounted_sums_categories() {
        let mut s = RunStats::new();
        s.work_time = 10.0;
        s.checkpoint_time = 2.0;
        s.lost_time = 3.0;
        s.downtime_time = 1.0;
        s.recovery_time = 4.0;
        assert_eq!(s.accounted(), 20.0);
    }

    #[test]
    fn chunk_extremes_track() {
        let mut s = RunStats::new();
        s.observe_chunk(5.0);
        s.observe_chunk(2.0);
        s.observe_chunk(9.0);
        assert_eq!(s.chunk_min, 2.0);
        assert_eq!(s.chunk_max, 9.0);
    }

    #[test]
    fn fresh_stats_account_nothing_and_have_an_empty_chunk_range() {
        let s = RunStats::new();
        assert_eq!(s.accounted(), 0.0);
        assert_eq!((s.failures, s.decisions, s.chunks_completed), (0, 0, 0));
        // The empty range is [∞, 0], so the first observed chunk sets both ends.
        assert!(s.chunk_min > s.chunk_max);
        let mut s = s;
        s.observe_chunk(3.0);
        assert_eq!((s.chunk_min, s.chunk_max), (3.0, 3.0));
        assert!(!s.past_horizon);
    }
}
