//! Availability logs and the §4.3 empirical distribution construction.

use crate::error::TraceError;
use ckpt_dist::Empirical;

/// A cluster availability log: for each node, the sequence of availability
/// interval durations (uptime between consecutive failures), seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityLog {
    /// Per-node availability durations.
    pub nodes: Vec<Vec<f64>>,
    /// Processors per node (LANL clusters 18/19: 4).
    pub procs_per_node: u32,
    /// Human-readable origin label.
    pub label: String,
}

impl AvailabilityLog {
    /// Number of nodes in the log.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of logged availability intervals (the set `S`).
    pub fn interval_count(&self) -> usize {
        self.nodes.iter().map(Vec::len).sum()
    }

    /// Pool every node's availability durations into the paper's set `S`
    /// and build the discrete conditional distribution from it.
    ///
    /// # Panics
    /// Panics if the log holds no (valid) intervals; the fallible form is
    /// [`AvailabilityLog::try_empirical_distribution`].
    pub fn empirical_distribution(&self) -> Empirical {
        match self.try_empirical_distribution() {
            Ok(d) => d,
            Err(e) => panic!("empirical_distribution: {e}"),
        }
    }

    /// Fallible form of
    /// [`empirical_distribution`](AvailabilityLog::empirical_distribution):
    /// reports an empty log or invalid durations as a typed error instead
    /// of panicking.
    pub fn try_empirical_distribution(&self) -> Result<Empirical, TraceError> {
        let durations: Vec<f64> = self.nodes.iter().flatten().copied().collect();
        if durations.is_empty() {
            return Err(TraceError::EmptyLog);
        }
        Ok(Empirical::try_from_durations(durations)?)
    }

    /// Mean availability duration across the log (the node-level MTBF the
    /// periodic heuristics are fed in §6, where they "pretend the
    /// underlying distribution is Exponential with the same MTBF").
    pub fn empirical_mtbf(&self) -> f64 {
        let (sum, n) = self
            .nodes
            .iter()
            .flatten()
            .fold((0.0f64, 0usize), |(s, n), &d| (s + d, n + 1));
        assert!(n > 0, "availability log is empty");
        sum / n as f64
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "regrouping a log must not change one bit of its statistics")]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ckpt_dist::FailureDistribution;

    fn toy_log() -> AvailabilityLog {
        AvailabilityLog {
            nodes: vec![vec![100.0, 300.0], vec![200.0], vec![400.0, 500.0]],
            procs_per_node: 4,
            label: "toy".into(),
        }
    }

    #[test]
    fn counts() {
        let log = toy_log();
        assert_eq!(log.node_count(), 3);
        assert_eq!(log.interval_count(), 5);
    }

    #[test]
    fn empirical_mtbf_is_pooled_mean() {
        let log = toy_log();
        assert!((log.empirical_mtbf() - 300.0).abs() < 1e-12);
    }

    #[test]
    fn distribution_pools_all_nodes() {
        let log = toy_log();
        let d = log.empirical_distribution();
        assert_eq!(d.len(), 5);
        // Survival at 250 s: 3 of 5 durations are ≥ 250.
        assert!((d.survival(250.0) - 0.6).abs() < 1e-12);
        assert!((d.mean() - 300.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_log_panics() {
        AvailabilityLog { nodes: vec![vec![]], procs_per_node: 4, label: "e".into() }
            .empirical_distribution();
    }

    #[test]
    fn try_form_reports_typed_errors() {
        let empty = AvailabilityLog { nodes: vec![vec![]], procs_per_node: 4, label: "e".into() };
        assert_eq!(empty.try_empirical_distribution().err(), Some(TraceError::EmptyLog));
        let bad = AvailabilityLog {
            nodes: vec![vec![100.0, -5.0]],
            procs_per_node: 4,
            label: "b".into(),
        };
        assert!(matches!(
            bad.try_empirical_distribution(),
            Err(TraceError::Dist(ckpt_dist::DistError::InvalidDuration { index: 1, .. }))
        ));
        assert!(toy_log().try_empirical_distribution().is_ok());
    }

    #[test]
    #[should_panic]
    fn empirical_mtbf_panics_on_empty_log() {
        AvailabilityLog { nodes: vec![vec![], vec![]], procs_per_node: 4, label: "e".into() }
            .empirical_mtbf();
    }

    #[test]
    fn node_grouping_does_not_change_the_pool() {
        // The set S pools every node: regrouping the same durations gives the same distribution.
        let regrouped = AvailabilityLog {
            nodes: vec![vec![500.0], vec![300.0, 200.0, 100.0], vec![], vec![400.0]],
            procs_per_node: 4,
            label: "regrouped".into(),
        };
        let (a, b) = (toy_log().empirical_distribution(), regrouped.empirical_distribution());
        for &t in &[0.0, 50.0, 150.0, 250.0, 350.0, 450.0, 550.0] {
            assert_eq!(a.survival(t), b.survival(t), "t = {t}");
        }
        assert_eq!(toy_log().empirical_mtbf(), regrouped.empirical_mtbf());
    }
}
