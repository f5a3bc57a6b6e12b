//! Lightweight pipeline instrumentation: per-stage wall-clock and
//! decision/event counters for the scenario runner, and the crate's one
//! telemetry clock.
//!
//! The counters are plain `u64`s accumulated single-threadedly per trace
//! row and summed at aggregation time, so instrumentation adds no
//! synchronisation to the hot path.

use serde::Serialize;
use std::sync::OnceLock;
use std::time::Instant;

/// Seconds since a process-wide origin (first call wins): the crate's
/// one wall-clock read, behind the [`PipelinePerf`] stage timers, the
/// checkpoint store's `interval_seconds` trigger and the progress
/// reporter's rates, ETA and console rate limit. Telemetry only: it
/// decides *when* a snapshot or a progress line is written and how long
/// a stage took, never what an aggregate contains, and every
/// `progress.json` field it feeds sits under
/// `wall_clock_nondeterministic`.
#[expect(
    clippy::disallowed_methods,
    reason = "the crate's one telemetry clock; no aggregate reads it"
)]
pub fn clock_seconds() -> f64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Wall-clock and volume of one pipeline stage.
#[derive(Debug, Clone, Serialize)]
pub struct StagePerf {
    /// Stage name (`trace_gen`, `policy_sims`, `period_search`, `aggregate`).
    pub name: String,
    /// Wall-clock seconds spent in the stage.
    pub seconds: f64,
    /// Stage-specific volume: traces generated, work items drained, rows
    /// aggregated.
    pub items: u64,
}

/// Flow counters of one shared DP cache layer attributed to a run.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct CachePerf {
    /// Lookups served from the cache during the run.
    pub hits: u64,
    /// Lookups that had to compute during the run.
    pub misses: u64,
    /// Entries dropped by bounded eviction during the run.
    pub evictions: u64,
    /// Entries resident when the run finished (a level, not a flow).
    pub entries: u64,
}

impl From<ckpt_policies::CacheStats> for CachePerf {
    fn from(s: ckpt_policies::CacheStats) -> Self {
        Self { hits: s.hits, misses: s.misses, evictions: s.evictions, entries: s.entries }
    }
}

/// Shared DP plan/kernel-row cache activity attributed to one run.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct PlanCachePerf {
    /// Whole-plan layer (`PlanKey` → chunk schedule).
    pub plans: CachePerf,
    /// Per-age log-survival row layer (`KernelRowKey` → triangle row).
    pub kernel_rows: CachePerf,
}

impl From<ckpt_policies::DpCacheStats> for PlanCachePerf {
    fn from(s: ckpt_policies::DpCacheStats) -> Self {
        Self { plans: s.plans.into(), kernel_rows: s.kernel_rows.into() }
    }
}

/// Instrumentation for one `run_scenario` call.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PipelinePerf {
    /// End-to-end seconds for the scenario.
    pub total_seconds: f64,
    /// Per-stage breakdown, in execution order.
    pub stages: Vec<StagePerf>,
    /// Simulations run for the policy roster.
    pub policy_sims: u64,
    /// Simulations run for PeriodLB period candidates.
    pub candidate_sims: u64,
    /// Size of the full candidate grid (so `candidate_sims` can be read
    /// as a fraction of `grid × traces`).
    pub candidate_grid_size: u64,
    /// Decision points across all simulations (chunks attempted).
    pub decisions: u64,
    /// Failures struck across all simulations.
    pub failures: u64,
    /// Shared DP cache counters accumulated over the item drain (the
    /// executor snapshots the global caches around it).
    pub plan_cache: PlanCachePerf,
}

impl PipelinePerf {
    /// Record a stage that began at `started` ([`clock_seconds`]) and
    /// processed `items`.
    pub fn push_stage(&mut self, name: &str, started: f64, items: u64) {
        self.stages.push(StagePerf {
            name: name.to_string(),
            seconds: clock_seconds() - started,
            items,
        });
    }

    /// Seconds spent in a named stage (0 when absent).
    pub fn stage_seconds(&self, name: &str) -> f64 {
        self.stages.iter().filter(|s| s.name == name).map(|s| s.seconds).sum()
    }
}

// JSON-safe float formatting lives with the writer; re-exported so the
// goldens, `progress.json` and perfbench keep one shared float format.
pub use serde_json::format_f64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_are_json_safe() {
        assert_eq!(format_f64(2.0), "2.0");
        assert_eq!(format_f64(f64::INFINITY), "null");
        assert_eq!(format_f64(0.25), "0.25");
        assert_eq!(format_f64(f64::NAN), "null");
    }

    #[test]
    fn stage_seconds_sums_by_name() {
        let mut p = PipelinePerf::default();
        let t = clock_seconds();
        p.push_stage("a", t, 1);
        p.push_stage("a", t, 1);
        p.push_stage("b", t, 1);
        assert!(p.stage_seconds("a") >= 0.0);
        assert_eq!(p.stage_seconds("missing"), 0.0);
        assert_eq!(p.stages.len(), 3);
    }

    #[test]
    fn clock_is_monotone_and_non_negative() {
        let mut last = clock_seconds();
        assert!(last >= 0.0, "{last}");
        for _ in 0..1_000 {
            let now = clock_seconds();
            assert!(now >= last, "clock went back: {now} < {last}");
            last = now;
        }
    }

    #[test]
    fn push_stage_measures_from_the_given_start_and_keeps_order() {
        let mut p = PipelinePerf::default();
        p.push_stage("trace_gen", clock_seconds() - 0.5, 7);
        p.push_stage("aggregate", clock_seconds(), 3);
        let names: Vec<&str> = p.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["trace_gen", "aggregate"]);
        assert!(p.stages[0].seconds >= 0.5, "{}", p.stages[0].seconds);
        assert_eq!((p.stages[0].items, p.stages[1].items), (7, 3));
    }

    #[test]
    fn stage_seconds_adds_every_stage_of_the_name() {
        let stage = |name: &str, seconds: f64| StagePerf { name: name.into(), seconds, items: 1 };
        let p = PipelinePerf {
            stages: vec![stage("policy_sims", 0.25), stage("aggregate", 4.0), stage("policy_sims", 0.5)],
            ..PipelinePerf::default()
        };
        assert_eq!(p.stage_seconds("policy_sims"), 0.75);
        assert_eq!(p.stage_seconds("aggregate"), 4.0);
        assert_eq!(p.stage_seconds("Policy_sims"), 0.0, "names match exactly");
    }

    #[test]
    fn cache_perf_carries_each_layer_and_counter_over() {
        use ckpt_policies::{CacheStats, DpCacheStats};
        let plans = CacheStats { hits: 1, misses: 2, evictions: 3, entries: 4 };
        let kernel_rows = CacheStats { hits: 5, misses: 6, evictions: 7, entries: 8 };
        let p = PlanCachePerf::from(DpCacheStats { plans, kernel_rows });
        let flat = |c: CachePerf| (c.hits, c.misses, c.evictions, c.entries);
        assert_eq!(flat(p.plans), (1, 2, 3, 4));
        assert_eq!(flat(p.kernel_rows), (5, 6, 7, 8));
    }
}
