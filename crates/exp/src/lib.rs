//! Experiment harness: regenerates every table and figure of the paper.
//!
//! The scenario pipeline is one engine with two entry points —
//! `Scenario → SimPlan → WorkItems → payloads → ExecOutput →
//! ScenarioResult`. An in-memory run ([`run_scenario`]) and a
//! checkpointed study ([`run_study`]) drain the same work items through
//! the same item body and fold them the same way; the study only
//! attaches a store:
//!
//! * [`scenario`] — a fully-specified experimental cell (failure model,
//!   platform size, job/overhead models, trace count) and its trace
//!   generation (prefix-stable across platform sizes, §4.3);
//! * [`plan`] — pure planning: which sims run (roster policies,
//!   lower-bound evals, `PeriodLB` candidates), cut into typed
//!   seed-stable [`WorkItem`](plan::WorkItem)s, the only unit of work;
//! * [`exec`] — the one engine: a per-cell context (plan, distribution,
//!   roster, traces from the shared [`cache`]), the item body that is
//!   the crate's only simulating code, and the wave drain, with
//!   policy-build failures as values;
//! * [`steal`] — the wave executor itself: workers claim tasks (heavy
//!   ones first) from one shared cursor, and results are committed in
//!   task-ID order so output is bit-identical at any worker count;
//! * [`reduce`] — the fold from item payloads to executor output, and
//!   pure aggregation into the §4.1 *average makespan degradation* rows;
//! * [`runner`] — [`run_scenario`] / [`run_scenario_checked`] wiring the
//!   layers together, plus the user-facing option/result types;
//! * [`registry`] — the single `PolicyKind → Box<dyn Policy>`
//!   construction site (runner, CLI and benches all build here);
//! * [`policies_spec`] — declarative policy lists instantiated per
//!   scenario (so e.g. `OptExp` picks up each cell's `p` and `C(p)`);
//! * [`study`] — the batch API: one roster + options, many scenarios,
//!   per-cell `Result`s, over the crate's one in-memory cell loop;
//! * [`checkpoint`] — the store a study run attaches: persisted
//!   work-item manifests with content fingerprints, kill-safe
//!   checkpoint/resume under `results/study/<id>/`, and aggregates
//!   byte-identical to an in-memory run via the same [`reduce`] fold;
//! * [`jsonio`] — the checkpoint store's JSON: the string and float
//!   formatting every emitter shares, and the minimal reader behind
//!   resume;
//! * [`error`] — the experiment-level [`Error`] type (`From`-chained
//!   over the dist/platform/trace errors);
//! * [`catalog`] — the registry of named studies: every table and
//!   figure of the paper (`table2`, `fig4`, …, and `paper`, their
//!   union) as cells plus a renderer, run in memory or through the store;
//! * [`output`] and [`plot`] — the markdown, CSV and gnuplot writers the
//!   renderers use;
//! * [`golden`] — canonical serialisation and the cells pinned by the
//!   byte-identical golden-result tests under `results/golden/`.
//!
//! The `ckpt-exp` binary runs any named study, in memory or resumably
//! through the store:
//!
//! ```text
//! ckpt-exp table2 --traces 600 --out results
//! ckpt-exp matrix --weibull --overhead prop --model amdahl-1e-4
//! ckpt-exp run --study paper --traces 600
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod catalog;
pub mod checkpoint;
pub mod error;
pub mod exec;
pub mod golden;
pub mod jsonio;
pub mod output;
pub mod perf;
pub mod plan;
pub mod plot;
pub mod policies_spec;
pub mod progress;
pub mod reduce;
pub mod registry;
pub mod runner;
pub mod scenario;
pub mod steal;
pub mod study;

pub use cache::TraceCache;
pub use checkpoint::{
    run_study, CheckpointConfig, StudyDef, StudyOutcome, StudyReport,
};
pub use error::Error;
pub use perf::PipelinePerf;
pub use plan::{plan_scenario, SimPlan, SimTask};
pub use policies_spec::PolicyKind;
pub use registry::{build_policy, parse_kind};
pub use runner::{
    run_scenario, run_scenario_checked, PeriodSearch, PolicyOutcome, RunnerOptions,
    ScenarioResult,
};
pub use scenario::{DistSpec, Scenario};
pub use study::Study;
