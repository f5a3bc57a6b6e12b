//! Discrete-event execution engine for checkpointed jobs.
//!
//! The engine executes a tightly-coupled job chunk by chunk against a
//! failure trace (§2.1/§3.1 semantics):
//!
//! * a chunk attempt occupies `ω + C(p)` seconds on all processors;
//! * a failure during compute, checkpoint, or recovery aborts the attempt;
//! * the failed processor serves a downtime `D` (failures cannot strike a
//!   processor during its own downtime, but *other* processors may fail,
//!   cascading the blockage — the effect that makes parallel `E[Trec]`
//!   intractable analytically, §3.2);
//! * recovery takes `R(p)` on all processors and is itself fault-prone;
//! * after a successful recovery the whole remaining chunk is retried.
//!
//! Two drivers share the accounting:
//!
//! * [`engine::simulate`] — trace-driven, failed-only rejuvenation (the
//!   paper's main model);
//! * [`rejuvenate::simulate_rejuvenate_all`] — the all-rejuvenation model
//!   (Appendix B comparison), where the platform renews wholesale after
//!   every failure and so is driven by sampled minima instead of traces.
//!
//! [`bounds::lower_bound_makespan`] implements the omniscient
//! `LowerBound` of §4.1: it knows every failure date in advance and
//! checkpoints exactly `C(p)` before each failure it cannot avoid.

pub mod bounds;
pub mod energy;
pub mod events;
pub mod engine;
pub mod rejuvenate;
pub mod replication;
pub mod stats;

pub use bounds::{lower_bound_makespan, lower_bound_on_events};
pub use energy::PowerModel;
pub use engine::{simulate, simulate_logged, SimOptions};
pub use events::{Event, EventKind};
pub use rejuvenate::simulate_rejuvenate_all;
pub use replication::{
    simulate_replicated_independent, simulate_replicated_synchronized, ReplicationStats,
};
pub use stats::RunStats;
