//! Synthetic LANL-like availability logs.
//!
//! Substitution for the (non-redistributable) LANL Failure Trace Archive
//! logs of clusters 18 and 19. Published characterisations of those
//! systems (Schroeder & Gibson 2006; §4.3/§6 of the paper) pin down:
//!
//! * >1000 four-processor nodes, multi-year observation spans;
//! * availability durations well fitted by Weibull with shape 0.33–0.49,
//!   plus a pronounced short-interval mode (repeated quick failures of
//!   flaky nodes after repair);
//! * a platform MTBF around 1,297 s when scaled to 45,208 processors
//!   (§6 quotes exactly that figure for cluster 19), i.e. a node-level
//!   mean availability around 1.5·10⁷ s.
//!
//! Each node's availability intervals are drawn iid from a two-component
//! mixture (short-interval Weibull spike + heavy Weibull bulk) until the
//! observation span is covered. The resulting `AvailabilityLog` is then
//! consumed through exactly the code path the paper uses for the real
//! logs.

use crate::error::TraceError;
use crate::log::AvailabilityLog;
use ckpt_math::SeedSequence;
use ckpt_dist::{FailureDistribution, Mixture, Weibull};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of a synthetic LANL-like cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct LanlClusterModel {
    /// Log label (e.g. "lanl-19").
    pub label: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Processors per node.
    pub procs_per_node: u32,
    /// Weibull shape of the bulk availability component.
    pub bulk_shape: f64,
    /// Mean of the bulk component, seconds.
    pub bulk_mean: f64,
    /// Mixture weight of the short-interval spike.
    pub spike_weight: f64,
    /// Mean of the spike component, seconds.
    pub spike_mean: f64,
    /// Observation span per node, seconds.
    pub span: f64,
}

impl LanlClusterModel {
    /// Model of LANL cluster 18 (system 7 in Schroeder & Gibson):
    /// slightly smaller shape, slightly flakier.
    pub fn cluster18() -> Self {
        Self {
            label: "lanl-18".into(),
            nodes: 1_024,
            procs_per_node: 4,
            bulk_shape: 0.40,
            bulk_mean: 1.3e7,
            spike_weight: 0.12,
            spike_mean: 900.0,
            span: 5.0 * 365.25 * 86_400.0,
        }
    }

    /// Model of LANL cluster 19 (system 8 in Schroeder & Gibson): the one
    /// behind Figure 7, with §6's ≈1,297 s platform MTBF at 45,208 procs.
    pub fn cluster19() -> Self {
        Self {
            label: "lanl-19".into(),
            nodes: 1_024,
            procs_per_node: 4,
            bulk_shape: 0.45,
            bulk_mean: 1.65e7,
            spike_weight: 0.10,
            spike_mean: 1_200.0,
            span: 5.0 * 365.25 * 86_400.0,
        }
    }

    /// The mixture the availability durations are drawn from.
    pub fn duration_distribution(&self) -> Mixture {
        Mixture::new(vec![
            (
                self.spike_weight,
                Box::new(Weibull::from_mtbf(0.6, self.spike_mean))
                    as Box<dyn FailureDistribution>,
            ),
            (
                1.0 - self.spike_weight,
                Box::new(Weibull::from_mtbf(self.bulk_shape, self.bulk_mean)),
            ),
        ])
    }

    /// Generate the availability log.
    pub fn generate(&self, seeds: SeedSequence) -> AvailabilityLog {
        let dist = self.duration_distribution();
        let nodes = (0..self.nodes)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(seeds.child(i as u64).seed());
                let mut durations = Vec::new();
                let mut t = 0.0;
                while t < self.span {
                    let d = dist.sample(&mut rng).max(1.0);
                    durations.push(d);
                    t += d;
                }
                durations
            })
            .collect();
        AvailabilityLog {
            nodes,
            procs_per_node: self.procs_per_node,
            label: self.label.clone(),
        }
    }
}

/// Generate the synthetic stand-in for LANL cluster `id` (18 or 19).
///
/// # Panics
/// Panics for any id other than 18 or 19; the fallible form is
/// [`try_synthetic_lanl_cluster`].
pub fn synthetic_lanl_cluster(id: u32, seeds: SeedSequence) -> AvailabilityLog {
    match try_synthetic_lanl_cluster(id, seeds) {
        Ok(log) => log,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`synthetic_lanl_cluster`]: reports an unmodelled
/// cluster id as [`TraceError::UnknownCluster`] instead of panicking.
pub fn try_synthetic_lanl_cluster(
    id: u32,
    seeds: SeedSequence,
) -> Result<AvailabilityLog, TraceError> {
    let model = match id {
        18 => LanlClusterModel::cluster18(),
        19 => LanlClusterModel::cluster19(),
        other => return Err(TraceError::UnknownCluster { id: other }),
    };
    Ok(model.generate(seeds))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ckpt_dist::FailureDistribution;

    fn small19() -> LanlClusterModel {
        LanlClusterModel { nodes: 64, span: 2.0e8, ..LanlClusterModel::cluster19() }
    }

    #[test]
    fn log_shape_matches_model() {
        let log = small19().generate(SeedSequence::from_label("t"));
        assert_eq!(log.node_count(), 64);
        assert_eq!(log.procs_per_node, 4);
        assert!(log.interval_count() > 64, "every node logs at least one interval");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small19().generate(SeedSequence::from_label("same"));
        let b = small19().generate(SeedSequence::from_label("same"));
        assert_eq!(a, b);
    }

    #[test]
    fn node_mtbf_near_target() {
        // Pooled mean should land near the mixture mean.
        let model = small19();
        let log = model.generate(SeedSequence::from_label("mtbf"));
        let want = model.duration_distribution().mean();
        let got = log.empirical_mtbf();
        // Span truncation biases the mean down for heavy tails; allow a
        // generous band.
        assert!(
            (0.3 * want..1.5 * want).contains(&got),
            "pooled mean {got} vs mixture mean {want}"
        );
    }

    #[test]
    fn empirical_distribution_has_decreasing_conditional_hazard() {
        // The property that makes DPNextFailure shine on real logs:
        // surviving nodes keep getting safer.
        let log = small19().generate(SeedSequence::from_label("hazard"));
        let d = log.empirical_distribution();
        let young = d.psuc(3_600.0, 600.0);
        let old = d.psuc(3_600.0, 1.0e6);
        assert!(old > young, "old {old} young {young}");
    }

    #[test]
    fn spike_produces_short_intervals() {
        let log = small19().generate(SeedSequence::from_label("spike"));
        let d = log.empirical_distribution();
        // A visible mass of sub-hour intervals.
        let short_frac = 1.0 - d.survival(3_600.0);
        assert!(short_frac > 0.05, "short-interval mass {short_frac}");
    }

    #[test]
    fn full_cluster19_platform_mtbf_order_of_magnitude() {
        // §6: platform MTBF ≈ 1,297 s at 45,208 processors (11,302 nodes).
        // Node-level MTBF / 11,302 should land within a factor ~3.
        let model = LanlClusterModel { nodes: 128, ..LanlClusterModel::cluster19() };
        let log = model.generate(SeedSequence::from_label("platmtbf"));
        let plat = log.empirical_mtbf() / 11_302.0;
        assert!(
            (400.0..4_000.0).contains(&plat),
            "platform MTBF {plat} s, paper reports ≈1,297 s"
        );
    }

    #[test]
    #[should_panic]
    fn unknown_cluster_rejected() {
        synthetic_lanl_cluster(7, SeedSequence::from_label("x"));
    }

    #[test]
    fn unknown_cluster_typed_error() {
        assert_eq!(
            try_synthetic_lanl_cluster(7, SeedSequence::from_label("x")).err(),
            Some(TraceError::UnknownCluster { id: 7 })
        );
        assert!(try_synthetic_lanl_cluster(19, SeedSequence::from_label("x")).is_ok());
    }

    #[test]
    fn every_node_log_just_covers_the_span() {
        let model = small19();
        let log = model.generate(SeedSequence::from_label("span"));
        for (i, node) in log.nodes.iter().enumerate() {
            let total: f64 = node.iter().sum();
            let last = node.last().copied().unwrap();
            assert!(total >= model.span, "node {i} stops short: {total}");
            assert!(total - last < model.span, "node {i} drew past the span");
            assert!(node.iter().all(|&d| d >= 1.0), "node {i} has a sub-second interval");
        }
    }

    #[test]
    fn seeds_change_the_log() {
        let a = small19().generate(SeedSequence::from_label("one"));
        let b = small19().generate(SeedSequence::from_label("two"));
        assert_ne!(a.nodes, b.nodes);
    }

    #[test]
    fn duration_mixture_mean_weights_its_components() {
        for model in [LanlClusterModel::cluster18(), LanlClusterModel::cluster19()] {
            let want =
                model.spike_weight * model.spike_mean + (1.0 - model.spike_weight) * model.bulk_mean;
            let got = model.duration_distribution().mean();
            assert!((got - want).abs() <= 1e-9 * want, "{}: {got} vs {want}", model.label);
        }
    }

    #[test]
    fn cluster_ids_select_their_models() {
        let (m18, m19) = (LanlClusterModel::cluster18(), LanlClusterModel::cluster19());
        // Cluster 18 is the flakier one: heavier spike, smaller bulk shape.
        assert!(m18.spike_weight > m19.spike_weight);
        assert!(m18.bulk_shape < m19.bulk_shape);
        let log = synthetic_lanl_cluster(18, SeedSequence::from_label("id"));
        assert_eq!(log.label, "lanl-18");
        assert_eq!(log.node_count(), m18.nodes);
        assert_eq!(log.procs_per_node, m18.procs_per_node);
    }
}
