//! Checkpointing strategies — the paper's contribution and every comparator.
//!
//! A policy answers one question, at every decision point (job start, after
//! each checkpoint, after each recovery): *how much work should the next
//! chunk contain before we checkpoint again?*
//!
//! | Policy | Kind | Source |
//! |---|---|---|
//! | [`young`] | periodic | Young 1974 first-order approximation |
//! | [`daly_low`] | periodic | Daly 2004 lower-order estimate |
//! | [`daly_high`] | periodic | Daly 2004 higher-order estimate |
//! | [`OptExp`] | periodic | **Theorem 1 / Proposition 5** (optimal for Exponential) |
//! | [`Bouguerra`] | periodic | Bouguerra et al. 2010 (all-rejuvenation assumption) |
//! | [`Liu`] | non-periodic | Liu et al. 2008 hazard-frequency placement |
//! | [`DpMakespan`] | dynamic | **Algorithm 1** (quantised optimal Makespan) |
//! | [`DpNextFailure`] | dynamic | **Algorithm 2 + §3.3** (maximise work before next failure) |
//!
//! The omniscient `LowerBound` and the searched `PeriodLB` are not policies
//! in this sense — they need the whole failure trace — and live in
//! `ckpt-sim` / `ckpt-exp` respectively.

pub mod bouguerra;
pub mod daly;
pub mod dp_makespan;
pub mod dp_next_failure;
pub mod liu;
pub mod optexp;
pub mod periodic;
pub mod plan_cache;

pub use bouguerra::Bouguerra;
pub use daly::{daly_high, daly_low, young};
pub use dp_makespan::{DpMakespan, DpMakespanConfig};
pub use dp_next_failure::{DpNextFailure, DpNextFailureConfig};
pub use plan_cache::{CacheStats, DistId, DpCacheStats, DpCaches, PlanSlot, ShardedCache};
pub use liu::Liu;
pub use optexp::OptExp;
pub use periodic::FixedPeriod;

use ckpt_platform::AgeView;

/// A checkpointing strategy. Thread-safe and reusable: each simulated trace
/// gets its own [`PolicySession`] so traces can run in parallel.
pub trait Policy: Send + Sync {
    /// Display name used in tables and figures.
    fn name(&self) -> &str;

    /// Start a fresh per-run session.
    fn session(&self) -> Box<dyn PolicySession + '_>;
}

/// Per-run mutable state of a policy.
pub trait PolicySession {
    /// Size (seconds of work) of the next chunk to execute before
    /// checkpointing, given `remaining` work, the processor-age snapshot
    /// and the elapsed time since job start. Must return a value in
    /// `(0, remaining]`; the simulator clamps defensively.
    fn next_chunk(&mut self, remaining: f64, ages: &AgeView, now: f64) -> f64;

    /// Called when a failure interrupted the current chunk (before the
    /// next `next_chunk` call) so schedule-holding sessions can replan.
    fn on_failure(&mut self) {}

    /// Whether the next [`next_chunk`](Self::next_chunk) call reads the
    /// [`AgeView`], asked before every decision. Periodic policies always
    /// return `false` and a schedule-holding session `false` while it
    /// walks its plan, letting the simulator skip building the snapshot —
    /// a measurable saving on failure-dense runs.
    fn wants_ages(&self) -> bool {
        true
    }
}

/// Smallest chunk any policy is allowed to schedule, seconds. Guards
/// against degenerate zero-size chunks that would live-lock the simulator.
pub const MIN_CHUNK: f64 = 1e-6;

/// Clamp a proposed chunk into `(0, remaining]`.
pub(crate) fn clamp_chunk(chunk: f64, remaining: f64) -> f64 {
    if !chunk.is_finite() || chunk <= 0.0 {
        remaining.min(MIN_CHUNK.max(remaining))
    } else {
        chunk.min(remaining).max(MIN_CHUNK.min(remaining))
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "clamping returns one of its inputs unchanged")]
mod tests {
    use super::*;

    #[test]
    fn clamp_rejects_nonsense() {
        assert_eq!(clamp_chunk(f64::NAN, 100.0), 100.0);
        assert_eq!(clamp_chunk(-5.0, 100.0), 100.0);
        assert_eq!(clamp_chunk(0.0, 100.0), 100.0);
    }

    #[test]
    fn clamp_caps_at_remaining() {
        assert_eq!(clamp_chunk(500.0, 100.0), 100.0);
        assert_eq!(clamp_chunk(50.0, 100.0), 50.0);
    }

    #[test]
    fn clamp_floors_tiny_chunks() {
        assert_eq!(clamp_chunk(1e-12, 100.0), MIN_CHUNK);
        // But never above remaining.
        assert_eq!(clamp_chunk(1e-12, 1e-9), 1e-9);
    }
}
