//! Experimental cells and their (prefix-stable) trace generation.

use crate::error::Error;
use ckpt_math::SeedSequence;
use ckpt_dist::{Exponential, FailureDistribution, Weibull};
use ckpt_platform::{Topology, TraceSet};
use ckpt_traces::try_synthetic_lanl_cluster;
use ckpt_workload::{JobSpec, OverheadModel, ParallelismModel, DAY, YEAR};
use std::sync::Arc;

/// The failure model of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum DistSpec {
    /// Exponential with per-processor MTBF (seconds).
    Exponential {
        /// Per-processor MTBF, seconds.
        mtbf: f64,
    },
    /// Weibull with shape `k` and per-processor MTBF.
    Weibull {
        /// Shape parameter `k`.
        shape: f64,
        /// Per-processor MTBF, seconds.
        mtbf: f64,
    },
    /// Empirical distribution from the synthetic LANL-like log of the
    /// given cluster (18 or 19); failures strike 4-processor nodes.
    LanlLog {
        /// Cluster id (18 or 19).
        cluster: u32,
    },
}

/// Render a shape-like parameter as a fixed-width, filename-safe token:
/// four decimals, zero-padded to eight characters, decimal point as `p`
/// (`0.7` → `000p7000`). Fixed width makes labels sort lexicographically
/// and kills the `1` vs `1.0` spelling collision of raw `{}` interpolation.
fn shape_token(x: f64) -> String {
    format!("{x:08.4}").replace('.', "p")
}

/// Render an MTBF-like parameter (seconds, effectively integral) as a
/// twelve-digit zero-padded token so labels sort numerically.
fn mtbf_token(x: f64) -> String {
    format!("{x:012.0}")
}

impl DistSpec {
    /// Short label for file names and seeds: filename-safe (no `.`),
    /// fixed-width (labels sort lexicographically = numerically), and
    /// collision-free across parameter spellings.
    ///
    /// **This label seeds trace generation** — changing the format changes
    /// every downstream number, so it is covered by the golden test.
    pub fn label(&self) -> String {
        match self {
            Self::Exponential { mtbf } => format!("exp-{}", mtbf_token(*mtbf)),
            Self::Weibull { shape, mtbf } => {
                format!("weibull{}-{}", shape_token(*shape), mtbf_token(*mtbf))
            }
            Self::LanlLog { cluster } => format!("lanl{cluster:02}"),
        }
    }
}

/// A built failure model: the sampling/conditioning distribution, the
/// failure-unit topology, and the *effective per-processor MTBF* the
/// MTBF-only heuristics are fed (§4.1; for log-based models this is the
/// empirical node MTBF scaled to processor granularity, the paper's
/// "pretending the underlying distribution is Exponential with the same
/// MTBF").
#[derive(Clone)]
pub struct BuiltDist {
    /// The per-unit failure inter-arrival distribution.
    pub dist: Arc<dyn FailureDistribution>,
    /// Unit → processor mapping.
    pub topology: Topology,
    /// Effective per-processor MTBF, seconds.
    pub proc_mtbf: f64,
    /// Weibull shape when the model is Weibull (Liu needs it).
    pub weibull_shape: Option<f64>,
}

impl DistSpec {
    /// Materialise the distribution (generating the synthetic log for
    /// `LanlLog`, deterministic per cluster id).
    ///
    /// # Panics
    /// Panics when the model cannot be materialised (unknown LANL cluster
    /// id); the fallible form is [`DistSpec::try_build`].
    pub fn build(&self) -> BuiltDist {
        match self.try_build() {
            Ok(b) => b,
            Err(e) => panic!("DistSpec::build: {e}"),
        }
    }

    /// Fallible form of [`DistSpec::build`], reporting an unmodelled LANL
    /// cluster or a degenerate log as a typed [`Error`].
    pub fn try_build(&self) -> Result<BuiltDist, Error> {
        Ok(match *self {
            Self::Exponential { mtbf } => BuiltDist {
                dist: Arc::new(Exponential::from_mtbf(mtbf)),
                topology: Topology::per_processor(),
                proc_mtbf: mtbf,
                weibull_shape: Some(1.0),
            },
            Self::Weibull { shape, mtbf } => BuiltDist {
                dist: Arc::new(Weibull::from_mtbf(shape, mtbf)),
                topology: Topology::per_processor(),
                proc_mtbf: mtbf,
                weibull_shape: Some(shape),
            },
            Self::LanlLog { cluster } => {
                let log = try_synthetic_lanl_cluster(
                    cluster,
                    SeedSequence::from_label(&format!("lanl-log-{cluster}")),
                )?;
                let node_mtbf = log.empirical_mtbf();
                let procs_per_node = log.procs_per_node;
                BuiltDist {
                    dist: Arc::new(log.try_empirical_distribution()?),
                    topology: Topology::nodes_of(procs_per_node),
                    // A node failure takes down `procs_per_node`
                    // processors at once, so the platform failure rate is
                    // (p / n_per_node) / node_mtbf; the per-processor MTBF
                    // that reproduces it is node_mtbf · n_per_node.
                    proc_mtbf: node_mtbf * f64::from(procs_per_node),
                    weibull_shape: None,
                }
            }
        })
    }
}

/// One experimental cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Label — also the seed root, so it must NOT encode the processor
    /// count (trace prefixes must match across `p`, §4.3).
    pub label: String,
    /// Failure model.
    pub dist: DistSpec,
    /// Enrolled processors.
    pub procs: u64,
    /// Total sequential work, seconds.
    pub total_work: f64,
    /// Parallelism law.
    pub parallelism: ParallelismModel,
    /// Checkpoint-cost law.
    pub overhead: OverheadModel,
    /// Downtime `D`, seconds.
    pub downtime: f64,
    /// Trace horizon, seconds.
    pub horizon: f64,
    /// Job start within the horizon, seconds.
    pub start_time: f64,
    /// Number of traces (the paper uses 600).
    pub traces: usize,
}

impl Scenario {
    /// Table 1 single-processor cell.
    pub fn single_processor(dist: DistSpec, traces: usize) -> Self {
        Self {
            label: format!("1proc-{}", dist.label()),
            dist,
            procs: 1,
            total_work: 20.0 * DAY,
            parallelism: ParallelismModel::EmbarrassinglyParallel,
            overhead: OverheadModel::Constant { seconds: 600.0 },
            downtime: 60.0,
            horizon: 2.0 * YEAR,
            start_time: 0.0,
            traces,
        }
    }

    /// Table 1 Petascale cell (W = 1000 y, default EP + constant C).
    pub fn petascale(dist: DistSpec, procs: u64, traces: usize) -> Self {
        Self {
            label: format!("peta-{}", dist.label()),
            dist,
            procs,
            total_work: 1_000.0 * YEAR,
            parallelism: ParallelismModel::EmbarrassinglyParallel,
            overhead: OverheadModel::Constant { seconds: 600.0 },
            downtime: 60.0,
            horizon: 11.0 * YEAR,
            start_time: YEAR,
            traces,
        }
    }

    /// Table 1 Exascale cell (W = 10 000 y).
    pub fn exascale(dist: DistSpec, procs: u64, traces: usize) -> Self {
        Self {
            label: format!("exa-{}", dist.label()),
            dist,
            procs,
            total_work: 10_000.0 * YEAR,
            parallelism: ParallelismModel::EmbarrassinglyParallel,
            overhead: OverheadModel::Constant { seconds: 600.0 },
            downtime: 60.0,
            horizon: 11.0 * YEAR,
            start_time: YEAR,
            traces,
        }
    }

    /// The job spec of this cell.
    pub fn job_spec(&self) -> JobSpec {
        JobSpec::from_models(
            self.total_work,
            self.procs,
            self.parallelism,
            self.overhead,
            self.downtime,
        )
    }

    /// Generate the `index`-th trace set (deterministic; prefix-stable
    /// across processor counts for a fixed label).
    ///
    /// # Panics
    /// Panics on a degenerate cell (zero units, non-finite horizon);
    /// the fallible form is [`Scenario::try_generate_traces`].
    pub fn generate_traces(&self, built: &BuiltDist, index: usize) -> TraceSet {
        match self.try_generate_traces(built, index) {
            Ok(set) => set,
            Err(e) => panic!("generate_traces: {e}"),
        }
    }

    /// Fallible form of [`Scenario::generate_traces`], reporting a
    /// degenerate cell as a typed [`Error`].
    pub fn try_generate_traces(
        &self,
        built: &BuiltDist,
        index: usize,
    ) -> Result<TraceSet, Error> {
        let units = built.topology.units_for_procs(self.procs);
        Ok(TraceSet::try_generate(
            built.dist.as_ref(),
            units,
            built.topology,
            self.horizon,
            self.start_time,
            self.trace_seeds(index),
        )?)
    }

    /// Seeds of the `index`-th trace set: a function of the label only.
    pub(crate) fn trace_seeds(&self, index: usize) -> SeedSequence {
        SeedSequence::from_label(&self.label).child(index as u64)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "configured constants pass through unchanged")]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_per_dist() {
        let a = DistSpec::Exponential { mtbf: 100.0 }.label();
        let b = DistSpec::Weibull { shape: 0.7, mtbf: 100.0 }.label();
        assert_ne!(a, b);
    }

    #[test]
    fn labels_are_filename_safe_and_sortable() {
        let l = DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * YEAR }.label();
        assert_eq!(l, "weibull000p7000-003944700000");
        assert!(!l.contains('.') && !l.contains(' ') && !l.contains('/'));
        // Equal floats → equal labels, regardless of source spelling.
        assert_eq!(
            DistSpec::Weibull { shape: 1.0, mtbf: 100.0 }.label(),
            DistSpec::Weibull { shape: 1.0f32 as f64, mtbf: 100.0 }.label(),
        );
        // Fixed width: lexicographic order matches numeric order.
        let mtbfs = [9.0 * DAY, 100.0 * DAY, 2.0 * YEAR];
        let labels: Vec<String> =
            mtbfs.iter().map(|&m| DistSpec::Exponential { mtbf: m }.label()).collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(labels, sorted, "labels must sort numerically");
        // Distinct shapes never collide once zero-padded.
        assert_ne!(
            DistSpec::Weibull { shape: 1.0, mtbf: 100.0 }.label(),
            DistSpec::Weibull { shape: 10.0, mtbf: 100.0 }.label(),
        );
    }

    #[test]
    fn build_exponential() {
        let b = DistSpec::Exponential { mtbf: 1_000.0 }.build();
        assert_eq!(b.proc_mtbf, 1_000.0);
        assert!((b.dist.mean() - 1_000.0).abs() < 1e-9);
        assert_eq!(b.topology.procs_per_unit(), 1);
    }

    #[test]
    fn build_weibull_has_shape() {
        let b = DistSpec::Weibull { shape: 0.7, mtbf: 500.0 }.build();
        assert_eq!(b.weibull_shape, Some(0.7));
        assert!((b.dist.mean() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn petascale_cell_spec() {
        let s = Scenario::petascale(
            DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * YEAR },
            45_208,
            600,
        );
        let spec = s.job_spec();
        assert_eq!(spec.procs, 45_208);
        assert!((spec.work / DAY - 8.07).abs() < 0.1);
        assert_eq!(spec.checkpoint, 600.0);
    }

    #[test]
    fn traces_prefix_stable_across_p() {
        let dist = DistSpec::Weibull { shape: 0.7, mtbf: 50_000.0 };
        let built = dist.build();
        let mut small = Scenario::petascale(dist.clone(), 8, 1);
        let mut large = Scenario::petascale(dist, 32, 1);
        // Same label (processor count must not leak into it).
        small.horizon = 1e6;
        large.horizon = 1e6;
        small.start_time = 0.0;
        large.start_time = 0.0;
        assert_eq!(small.label, large.label);
        let ts = small.generate_traces(&built, 3);
        let tl = large.generate_traces(&built, 3);
        assert_eq!(tl.units.prefix(8), ts.units);
        let wide = TraceSet::widen(&[&ts], built.dist.as_ref(), 32, &[large.trace_seeds(3)]);
        assert_eq!(wide[0].units, tl.units);
    }

    #[test]
    fn lanl_build_uses_node_topology() {
        let b = DistSpec::LanlLog { cluster: 19 }.build();
        assert_eq!(b.topology.procs_per_unit(), 4);
        assert!(b.proc_mtbf > 0.0);
        // Platform MTBF at 45,208 procs should be around §6's 1,297 s
        // (generous band — synthetic log).
        let plat = b.proc_mtbf / 45_208.0;
        assert!((300.0..6_000.0).contains(&plat), "platform MTBF {plat}");
    }
}
