//! Experiment harness: regenerates every table and figure of the paper.
//!
//! The scenario pipeline is one engine with one study loop —
//! `Scenario → SimPlan → WorkItems → payloads → ExecOutput →
//! ScenarioResult`. A study drains every cell's work items through the
//! one wave loop and folds them the same way whether it runs in memory
//! ([`Study::run_all`], or [`run_in_memory`] for cells that carry their
//! own rosters) or with the checkpoint store attached ([`run_study`]);
//! one cell is a one-cell study:
//!
//! * [`scenario`] — a fully-specified experimental cell (failure model,
//!   platform size, job/overhead models, trace count) and its trace
//!   generation (prefix-stable across platform sizes, §4.3);
//! * [`plan`] — pure planning: which sims run (roster policies,
//!   lower-bound evals, `PeriodLB` candidates), cut into typed
//!   seed-stable [`WorkItem`](plan::WorkItem)s, the only unit of work;
//! * [`exec`] — the one engine: a per-cell context (plan, distribution,
//!   roster, traces from the shared [`cache`]), the item body that is
//!   the crate's only simulating code, and the one wave loop, which
//!   frees each cell's traces after their last reader, with
//!   policy-build failures as values;
//! * [`steal`] — the wave executor itself: workers claim tasks (heavy
//!   ones first) from one shared cursor, and results are committed in
//!   task-ID order so output is bit-identical at any worker count;
//! * [`reduce`] — the fold from item payloads to executor output, and
//!   pure aggregation into the §4.1 *average makespan degradation* rows;
//! * [`runner`] — the user-facing option and result types;
//! * [`registry`] — the single `PolicyKind → Box<dyn Policy>`
//!   construction site (runner, CLI and benches all build here);
//! * [`policies_spec`] — declarative policy lists instantiated per
//!   scenario (so e.g. `OptExp` picks up each cell's `p` and `C(p)`);
//! * [`study`] — the batch API: one roster + options, many scenarios,
//!   per-cell `Result`s, through [`run_in_memory`];
//! * [`checkpoint`] — the two study entries, [`run_in_memory`] and
//!   [`run_study`], and the store the latter attaches: persisted
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
//!   union) as cells plus a renderer, one study definition for either
//!   entry;
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
    run_in_memory, run_study, CheckpointConfig, StudyDef, StudyOutcome, StudyReport,
};
pub use error::Error;
pub use perf::PipelinePerf;
pub use plan::{plan_scenario, SimPlan, SimTask};
pub use policies_spec::PolicyKind;
pub use registry::{build_policy, parse_kind};
pub use runner::{PolicyOutcome, RunnerOptions, ScenarioResult};
pub use scenario::{DistSpec, Scenario};
pub use study::Study;
