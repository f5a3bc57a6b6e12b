//! Lightweight pipeline instrumentation: per-stage wall-clock and
//! decision/event counters for the scenario runner, plus the JSON
//! emitter behind `scripts/bench_pipeline.sh` / `BENCH_pipeline.json`.
//!
//! The counters are plain `u64`s accumulated single-threadedly per trace
//! row and summed at aggregation time, so instrumentation adds no
//! synchronisation to the hot path.

use serde::Serialize;
use std::time::Instant;

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

/// Deterministic counters harvested from the `ckpt-obs` registry over
/// one `run_scenario` call — the richer breakdown `BENCH_pipeline.json`
/// gains when a recording session is open. Every field is a counter
/// delta, so the values are reproducible run to run (unlike the
/// wall-clock stage seconds).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ObsPerf {
    /// Cold `DPNextFailure` solves (plan-cache misses that ran the DP).
    pub dp_solves: u64,
    /// Near-age kernel rows accumulated across solves.
    pub dp_near_row_sweeps: u64,
    /// Solves that folded far ages into a Chebyshev interpolant.
    pub dp_far_fits: u64,
    /// Hull lines pushed across all DP inner loops.
    pub dp_hull_lines: u64,
    /// Monotone hull pointer advances (the amortised-O(1) query walk).
    pub dp_hull_advances: u64,
    /// States that fell back to the exact log-domain loop (underflow).
    pub dp_log_domain_states: u64,
    /// Solves that reused a warm per-thread scratch allocation.
    pub dp_scratch_reuses: u64,
    /// `KernelTable` queries answered by grid interpolation.
    pub kernel_interp_hits: u64,
    /// `KernelTable` queries past the horizon (exact fallback).
    pub kernel_exact_fallbacks: u64,
    /// Trace sets served from the process-wide cache.
    pub trace_cache_hits: u64,
    /// Trace sets generated on a cache miss.
    pub trace_cache_misses: u64,
    /// Engine runs completed.
    pub sim_runs: u64,
    /// Decision points across all engine runs.
    pub sim_decisions: u64,
}

impl ObsPerf {
    /// Harvest from a counter delta (see `ckpt_obs::counters_snapshot`).
    pub fn from_counters(c: &ckpt_obs::CounterSnapshot) -> Self {
        Self {
            dp_solves: c.total("dp.solves"),
            dp_near_row_sweeps: c.total("dp.near_row_sweeps"),
            dp_far_fits: c.total("dp.far_fits"),
            dp_hull_lines: c.total("dp.hull_lines"),
            dp_hull_advances: c.total("dp.hull_advances"),
            dp_log_domain_states: c.total("dp.log_domain_states"),
            dp_scratch_reuses: c.total("dp.scratch_reuses"),
            kernel_interp_hits: c.total("kernel_table.interp_hits"),
            kernel_exact_fallbacks: c.total("kernel_table.exact_fallbacks"),
            trace_cache_hits: c.total("trace_cache.hits"),
            trace_cache_misses: c.total("trace_cache.misses"),
            sim_runs: c.total("sim.runs"),
            sim_decisions: c.total("sim.decisions"),
        }
    }
}

/// Wave-executor scheduling counters accumulated over one run: how the
/// shared-cursor drain ([`crate::steal`]) distributed the task waves.
/// These describe scheduling only — results are bit-identical at any
/// worker count — so they are reported, never golden-pinned.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ExecPerf {
    /// Effective worker count (the largest any wave ran with).
    pub workers: u64,
    /// Waves drained.
    pub waves: u64,
    /// Claims of heavy tasks (claimed first in every wave).
    pub local_claims: u64,
    /// Claims of every other task.
    pub injector_claims: u64,
}

impl ExecPerf {
    /// Fold one wave's scheduling counters into the run totals.
    pub fn absorb(&mut self, s: &crate::steal::WaveStats) {
        self.workers = self.workers.max(s.workers as u64);
        self.waves += 1;
        self.local_claims += s.local_claims;
        self.injector_claims += s.injector_claims;
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
    /// Wave-executor scheduling counters (worker count, heavy/other
    /// claim mix). `Some` once any wave has drained; `None` is omitted from
    /// the JSON so pre-executor documents keep their exact bytes.
    pub exec: Option<ExecPerf>,
    /// Obs-registry counter deltas for this run. Present only while a
    /// `ckpt-obs` session records; `None` is omitted from the JSON, so
    /// the emitted bytes without a session are identical to the
    /// pre-observability format (the byte-compat test relies on this
    /// being the last field).
    pub obs: Option<ObsPerf>,
}

impl PipelinePerf {
    /// Record a stage's duration and volume.
    pub fn push_stage(&mut self, name: &str, started: Instant, items: u64) {
        self.stages.push(StagePerf {
            name: name.to_string(),
            seconds: started.elapsed().as_secs_f64(),
            items,
        });
    }

    /// Seconds spent in a named stage (0 when absent).
    pub fn stage_seconds(&self, name: &str) -> f64 {
        self.stages.iter().filter(|s| s.name == name).map(|s| s.seconds).sum()
    }

    /// The JSON object body (no surrounding document) for this run.
    ///
    /// This is serde-derived field order; the vendored `serde_json`
    /// writer reproduces the original hand-rolled emitter byte for byte
    /// (`", "`/`": "` separators, `format_f64` floats, `None` fields
    /// omitted), which the `json_byte_compat_with_legacy_emitter` test
    /// pins.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self)
    }
}

// JSON-safe float formatting lives with the writer now; re-exported so
// the goldens and the bench binary keep one shared float format.
pub use serde_json::format_f64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_valid_enough() {
        let mut p = PipelinePerf::default();
        let t = Instant::now();
        p.push_stage("trace_gen", t, 6);
        p.total_seconds = 1.5;
        p.policy_sims = 42;
        p.plan_cache.plans.hits = 7;
        let j = p.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"total_seconds\": 1.5"));
        assert!(j.contains("\"name\": \"trace_gen\""));
        assert!(j.contains("\"policy_sims\": 42"));
        assert!(j.contains("\"plan_cache\": {\"plans\": {\"hits\": 7"));
        assert!(j.contains("\"kernel_rows\": {\"hits\": 0"));
        // Balanced braces/brackets (cheap structural check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn floats_are_json_safe() {
        assert_eq!(format_f64(2.0), "2.0");
        assert_eq!(format_f64(f64::INFINITY), "null");
        assert_eq!(format_f64(0.25), "0.25");
    }

    /// The serde path must reproduce the retired hand-rolled emitter
    /// byte for byte, so historical `BENCH_pipeline.json` diffs stay
    /// clean. The expected string below is the old emitter's exact
    /// output for this struct.
    #[test]
    fn json_byte_compat_with_legacy_emitter() {
        let mut p = PipelinePerf {
            total_seconds: 1.5,
            policy_sims: 42,
            candidate_sims: 7,
            candidate_grid_size: 220,
            decisions: 9001,
            failures: 13,
            ..Default::default()
        };
        p.stages.push(StagePerf { name: "trace_gen".into(), seconds: 0.25, items: 6 });
        p.stages.push(StagePerf { name: "policy_sims".into(), seconds: 1.0, items: 42 });
        p.plan_cache.plans = CachePerf { hits: 7, misses: 2, evictions: 1, entries: 4 };
        p.plan_cache.kernel_rows = CachePerf { hits: 100, misses: 3, evictions: 0, entries: 3 };
        assert_eq!(
            p.to_json(),
            "{\"total_seconds\": 1.5, \"stages\": [\
             {\"name\": \"trace_gen\", \"seconds\": 0.25, \"items\": 6}, \
             {\"name\": \"policy_sims\", \"seconds\": 1.0, \"items\": 42}\
             ], \"policy_sims\": 42, \"candidate_sims\": 7, \
             \"candidate_grid_size\": 220, \"decisions\": 9001, \"failures\": 13, \
             \"plan_cache\": {\
             \"plans\": {\"hits\": 7, \"misses\": 2, \"evictions\": 1, \"entries\": 4}, \
             \"kernel_rows\": {\"hits\": 100, \"misses\": 3, \"evictions\": 0, \"entries\": 3}\
             }}"
        );
    }

    /// Non-finite floats must round-trip through the serde path exactly
    /// as the legacy `format_f64` wrote them: `null`.
    #[test]
    fn non_finite_floats_serialize_as_null() {
        let p = PipelinePerf { total_seconds: f64::NAN, ..Default::default() };
        assert!(p.to_json().starts_with("{\"total_seconds\": null, "));
        let p = PipelinePerf { total_seconds: f64::INFINITY, ..Default::default() };
        assert!(p.to_json().starts_with("{\"total_seconds\": null, "));
        let p = PipelinePerf { total_seconds: f64::NEG_INFINITY, ..Default::default() };
        assert!(p.to_json().starts_with("{\"total_seconds\": null, "));
        assert_eq!(format_f64(f64::NAN), "null");
    }

    /// The wave-executor block appears only once a wave ran (`Some`),
    /// keyed `exec`, between `plan_cache` and `obs`; `None` is omitted
    /// (the byte-compat test above pins the omitted form).
    #[test]
    fn exec_block_is_optional_and_ordered() {
        let mut p = PipelinePerf::default();
        assert!(!p.to_json().contains("\"exec\""));
        p.exec = Some(ExecPerf { workers: 8, waves: 3, local_claims: 5, injector_claims: 90 });
        let j = p.to_json();
        assert!(j.contains(
            "\"exec\": {\"workers\": 8, \"waves\": 3, \"local_claims\": 5, \
             \"injector_claims\": 90}"
        ), "{j}");
        let plan_cache = j.find("\"plan_cache\"").expect("plan_cache present");
        let exec = j.find("\"exec\"").expect("exec present");
        assert!(plan_cache < exec);
    }

    #[test]
    fn stage_seconds_sums_by_name() {
        let mut p = PipelinePerf::default();
        let t = Instant::now();
        p.push_stage("a", t, 1);
        p.push_stage("a", t, 1);
        p.push_stage("b", t, 1);
        assert!(p.stage_seconds("a") >= 0.0);
        assert_eq!(p.stage_seconds("missing"), 0.0);
        assert_eq!(p.stages.len(), 3);
    }
}
