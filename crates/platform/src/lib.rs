//! Platform substrate: processors, nodes, failure traces, rejuvenation.
//!
//! The paper's experiments drive a simulated platform of `p` individually
//! scheduled processors, each with iid failure inter-arrival times. This
//! crate provides:
//!
//! * [`trace`] — per-unit failure traces sampled to a fixed horizon, with
//!   the §4.3 prefix-stability guarantee (experiments with `p ≤ b`
//!   processors reuse the first `p` traces of the `b`-processor set) and a
//!   merged platform event stream for the simulator;
//! * [`topology`] — node granularity (the LANL logs tag failures by
//!   4-processor *node*, so a node failure takes down all its processors);
//! * [`mtbf`] — the analytic platform-MTBF formulas behind Figure 1
//!   (rejuvenate-all vs rejuvenate-failed-only under Weibull failures);
//! * [`ages`] — the compressed processor-age view handed to policies
//!   (ages of ever-failed processors plus a bulk count of never-failed
//!   ones, which keeps parallel `DPNextFailure` state-building `O(f)` in
//!   the number of failures rather than `O(p)`).

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod ages;
pub mod error;
pub mod mtbf;
pub mod renewal;
pub mod topology;
pub mod trace;

pub use ages::AgeView;
pub use error::PlatformError;
pub use mtbf::{platform_mtbf_failed_only, platform_mtbf_rejuvenate_all};
pub use renewal::{
    expected_failures, platform_failure_rate, poisson_quantile, spares_for_quantile,
    spares_for_quantile_renewal,
};
pub use topology::Topology;
pub use trace::{FailureTrace, PlatformEvents, TraceSet, UnitTrace, UnitTraces};

/// Which processors get rejuvenated (rebooted / replaced) after a failure
/// (§3.1's "important remark on rejuvenation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RejuvenationModel {
    /// Only the processor that failed restarts its lifetime — the model the
    /// paper argues is the realistic one for hardware failures and the one
    /// used throughout its main results.
    FailedOnly,
    /// Every processor restarts its lifetime after any failure — the
    /// assumption underlying Bouguerra's and the original DPMakespan
    /// analyses, harmful for Weibull shapes `k < 1`.
    All,
}
