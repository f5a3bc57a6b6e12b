//! Root crate of the checkpointing-strategies workspace.
//!
//! Re-exports every sub-crate under a stable module layout plus a small
//! high-level API ([`quick`]) for the common "which policy, what period,
//! what makespan" questions, so downstream users depend on one crate. It
//! also hosts the runnable `examples/` and the cross-crate integration
//! tests in `tests/`:
//!
//! ```
//! use checkpointing_strategies::prelude::*;
//!
//! // The paper's headline sequential result (Theorem 1): the optimal
//! // period for a 20-day job, 600 s checkpoints, 1-day MTBF.
//! let spec = JobSpec::table1_single_processor();
//! let opt = OptExp::from_mtbf(&spec, 86_400.0);
//! assert!(opt.chunk_count() > 1);
//! ```

pub use ckpt_dist as dist;
pub use ckpt_exp as exp;
pub use ckpt_math as math;
pub use ckpt_platform as platform;
pub use ckpt_policies as policies;
pub use ckpt_sim as sim;
pub use ckpt_traces as traces;
pub use ckpt_workload as workload;

pub mod quick;

/// One-import convenience module.
pub mod prelude {
    pub use crate::quick::{expected_makespan, optimal_period, Study};
    pub use ckpt_dist::{
        Empirical, Exponential, FailureDistribution, KernelTable, MinOf, Mixture, Weibull,
    };
    pub use ckpt_exp::{DistSpec, PolicyKind, RunnerOptions, Scenario};
    pub use ckpt_math::{SeedSequence, Summary};
    pub use ckpt_platform::{AgeView, RejuvenationModel, Topology, TraceSet};
    pub use ckpt_policies::{
        daly_high, daly_low, young, Bouguerra, DpCaches, DpMakespan, DpMakespanConfig,
        DpNextFailure, DpNextFailureConfig, FixedPeriod, Liu, OptExp, Policy,
        PolicySession,
    };
    pub use ckpt_sim::{
        lower_bound_makespan, simulate, simulate_rejuvenate_all, RunStats, SimOptions,
    };
    pub use ckpt_traces::{synthetic_lanl_cluster, AvailabilityLog, LanlClusterModel};
    pub use ckpt_workload::{
        JobSpec, OverheadModel, ParallelismModel, DAY, EXASCALE_PROCS, HOUR, JAGUAR_PROCS,
        WEEK, YEAR,
    };
}
