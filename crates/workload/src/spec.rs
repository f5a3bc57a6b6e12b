//! Job specifications and Table 1 presets.

use crate::models::{OverheadModel, ParallelismModel};

/// The paper's three platform rows (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformClass {
    /// Single processor, small MTBF, W = 20 days.
    SingleProcessor,
    /// Jaguar-like, 45 208 processors, proc MTBF 125 y, W = 1000 y.
    Petascale,
    /// 2^20 processors, proc MTBF 1250 y, W = 10 000 y.
    Exascale,
}

/// Everything a policy and the simulator need to know about one job run:
/// the per-processor parallel workload `W(p)`, checkpoint cost `C(p)`,
/// recovery cost `R(p)`, downtime `D`, and processor count `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Number of processors enrolled.
    pub procs: u64,
    /// Per-processor work to complete, seconds of unit-speed compute
    /// (`W(p)` after applying the parallelism model).
    pub work: f64,
    /// Checkpoint duration `C(p)`, seconds.
    pub checkpoint: f64,
    /// Recovery duration `R(p)`, seconds.
    pub recovery: f64,
    /// Downtime after a failure `D`, seconds (independent of `p`).
    pub downtime: f64,
}

impl JobSpec {
    /// Assemble a spec from total sequential work plus the two model laws.
    pub fn from_models(
        total_work: f64,
        procs: u64,
        parallelism: ParallelismModel,
        overhead: OverheadModel,
        downtime: f64,
    ) -> Self {
        assert!(total_work > 0.0, "work must be positive");
        assert!(downtime >= 0.0, "downtime must be non-negative");
        let cost = overhead.cost(procs);
        Self {
            procs,
            work: parallelism.parallel_work(total_work, procs),
            checkpoint: cost,
            recovery: cost,
            downtime,
        }
    }

    /// Direct construction for sequential jobs (§2): `p = 1`.
    pub fn sequential(work: f64, checkpoint: f64, recovery: f64, downtime: f64) -> Self {
        assert!(work > 0.0 && checkpoint >= 0.0 && recovery >= 0.0 && downtime >= 0.0);
        Self { procs: 1, work, checkpoint, recovery, downtime }
    }

    /// Table 1 single-processor preset: `W = 20 d`, `C = R = 600 s`,
    /// `D = 60 s`.
    pub fn table1_single_processor() -> Self {
        Self::sequential(20.0 * crate::DAY, 600.0, 600.0, 60.0)
    }

    /// Table 1 Petascale preset for `p` processors, embarrassingly parallel
    /// work and constant overhead (the main-text configuration):
    /// `W = 1000 y`, `C = R = 600 s`, `D = 60 s`.
    pub fn table1_petascale(p: u64) -> Self {
        Self::from_models(
            1000.0 * crate::YEAR,
            p,
            ParallelismModel::EmbarrassinglyParallel,
            OverheadModel::Constant { seconds: 600.0 },
            60.0,
        )
    }

    /// Table 1 Exascale preset: `W = 10 000 y`, `C = R = 600 s`, `D = 60 s`.
    pub fn table1_exascale(p: u64) -> Self {
        Self::from_models(
            10_000.0 * crate::YEAR,
            p,
            ParallelismModel::EmbarrassinglyParallel,
            OverheadModel::Constant { seconds: 600.0 },
            60.0,
        )
    }

    /// Total wall-clock of one successful chunk attempt of size `ω`.
    /// Test-only: the engine adds the checkpoint itself.
    #[cfg(test)]
    pub fn attempt_duration(&self, chunk: f64) -> f64 {
        chunk + self.checkpoint
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "configured constants and integer sums pass through exactly")]
mod tests {
    use super::*;
    use crate::{DAY, JAGUAR_PROCS, YEAR};

    #[test]
    fn single_processor_preset() {
        let s = JobSpec::table1_single_processor();
        assert_eq!(s.procs, 1);
        assert_eq!(s.work, 20.0 * DAY);
        assert_eq!(s.checkpoint, 600.0);
        assert_eq!(s.recovery, 600.0);
        assert_eq!(s.downtime, 60.0);
    }

    #[test]
    fn petascale_full_platform_runs_about_eight_days() {
        // §4.2: a full-platform job should take ≈ 8 days failure-free.
        let s = JobSpec::table1_petascale(JAGUAR_PROCS);
        let days = s.work / DAY;
        assert!(
            (7.0..9.5).contains(&days),
            "full-platform Petascale job = {days} days"
        );
    }

    #[test]
    fn exascale_full_platform_runs_about_three_and_half_days() {
        let s = JobSpec::table1_exascale(1 << 20);
        let days = s.work / DAY;
        assert!(
            (3.0..4.0).contains(&days),
            "full-platform Exascale job = {days} days"
        );
    }

    #[test]
    fn proportional_overhead_feeds_into_spec() {
        let s = JobSpec::from_models(
            1000.0 * YEAR,
            1_024,
            ParallelismModel::EmbarrassinglyParallel,
            OverheadModel::Proportional { seconds_at_full: 600.0, ptotal: JAGUAR_PROCS },
            60.0,
        );
        assert!((s.checkpoint - 600.0 * 45_208.0 / 1_024.0).abs() < 1e-9);
        assert_eq!(s.checkpoint, s.recovery);
    }

    #[test]
    fn attempt_duration_adds_checkpoint() {
        let s = JobSpec::sequential(100.0, 7.0, 7.0, 1.0);
        assert_eq!(s.attempt_duration(50.0), 57.0);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_work() {
        JobSpec::sequential(0.0, 1.0, 1.0, 1.0);
    }

    #[test]
    fn presets_split_their_work_evenly_across_processors() {
        for (spec, total) in [
            (JobSpec::table1_petascale(45_208), 1000.0 * crate::YEAR),
            (JobSpec::table1_exascale(1 << 20), 10_000.0 * crate::YEAR),
        ] {
            let rel = spec.work * spec.procs as f64 / total - 1.0;
            assert!(rel.abs() < 1e-12, "{spec:?}");
            assert_eq!((spec.checkpoint, spec.recovery, spec.downtime), (600.0, 600.0, 60.0));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_negative_downtime() {
        JobSpec::from_models(
            1e6,
            4,
            ParallelismModel::EmbarrassinglyParallel,
            OverheadModel::Constant { seconds: 600.0 },
            -1.0,
        );
    }

    #[test]
    #[should_panic]
    fn sequential_rejects_negative_checkpoint() {
        JobSpec::sequential(1e6, -1.0, 600.0, 60.0);
    }
}
