//! Durable, resumable study execution, and the study loop's in-memory
//! entry.
//!
//! A study decomposes into typed [`WorkItem`]s (cell × policy ×
//! trace-block, plus lower-bound, candidate and refine items), numbered
//! densely in cell order, drains them in id order through the crate's
//! one wave loop (`exec::run_waves`), then commits each cell
//! with the one fold ([`crate::reduce::commit`]). [`run_in_memory`]
//! does only that; [`run_study`] attaches the checkpoint store, which
//! adds:
//!
//! * a **manifest** — the study's identity, written once per study:
//!   a header (version, study id, lane width, trace block, golden
//!   hash), one identity row per cell (scenario label, stem,
//!   [`DistId`], roster, runner options, grid
//!   and search shape) and the item *count*. The items themselves are
//!   rebuilt from the [`StudyDef`] and never written; the content
//!   **fingerprint** hashes the identity document and then every
//!   item, so a resume whose rebuilt fingerprint differs — a changed
//!   cell, or a decomposition reordered or re-cut by a code change —
//!   is *rejected*, never silently reused. The store reads back only
//!   the `fingerprint` (resume; a damaged file is an
//!   [`Error::Checkpoint`]) and the count (`study ls`);
//! * a **checkpoint store** — versioned JSON snapshots under
//!   `<root>/<id>/ckpt-NNNNNN.json`, each holding every completed
//!   item's payload (floats as exact `u64` bit patterns). Written every
//!   `interval_items` completed items *or* `interval_seconds` seconds —
//!   the latter read through the crate's one telemetry clock,
//!   [`crate::perf::clock_seconds`] — keeping the newest `max_checkpoints`; the
//!   final snapshot always outlives completion. Snapshots are
//!   full-state, so "move in-progress items back to pending" is
//!   implicit: pending = items − snapshot. A snapshot whose payloads
//!   do not fit their items is skipped like a corrupt one;
//! * **shorter waves**: the loop also ends a wave every
//!   `exec::CHUNK_ITEMS` items, so a checkpoint, a
//!   kill or a progress line can land between any two of them.
//!
//! A cell whose distribution cannot be built gets no work items: it
//! commits to the typed build error ([`Error::Cell`]) on either entry.
//!
//! The fold restores every per-trace float from its exact bit pattern
//! in item-ID order — regardless of the order items completed in,
//! before or after any number of kills — so a SIGKILL'd-and-resumed
//! study writes aggregates byte-identical to an uninterrupted run, to
//! [`run_in_memory`] and to [`crate::exec::execute`], at any worker count
//! (`tests/study_resume.rs` and `tests/entry_points.rs` pin this).
//!
//! Nothing in this module ever stores a wall-clock timestamp: the clock
//! gates *when* a snapshot is written, never *what* is written.

use crate::error::Error;
use crate::exec::CellCtx;
use crate::perf::{clock_seconds, PipelinePerf};
use crate::progress::StudyProgress;
use crate::plan::{plan_scenario, SimPlan, TRACE_BLOCK};
use crate::policies_spec::PolicyKind;
use crate::runner::{RunnerOptions, ScenarioResult};
use crate::scenario::{BuiltDist, Scenario};
use crate::{jsonio, jsonio::Json};
use ckpt_policies::DistId;
use ckpt_sim::RunStats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use crate::plan::{ItemKind, WorkItem};

/// On-disk format version of manifests and checkpoints. A snapshot from
/// any other version is rejected on resume.
pub const STORE_VERSION: u64 = 1;

/// Knobs of the checkpoint store and run loop.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Store root; each study lives under `<root>/<id>/`.
    pub root: PathBuf,
    /// Write a checkpoint after this many newly completed items.
    pub interval_items: u64,
    /// … or after this many seconds since the last write, whichever
    /// comes first (read through the crate's one telemetry clock).
    pub interval_seconds: f64,
    /// Keep at most this many checkpoint files (newest win).
    pub max_checkpoints: usize,
    /// Directory of committed golden files to fold into the manifest
    /// fingerprint (`None` ⇒ a zero golden hash).
    pub golden_dir: Option<PathBuf>,
    /// Stop hook: return [`StudyOutcome::Stopped`] once this process
    /// executed this many items, *before* the snapshot that would cover
    /// them — the store is left as a kill between snapshots leaves it
    /// (the CLI's `--kill-at` SIGKILLs itself on that outcome).
    pub stop_after_items: Option<u64>,
    /// Emit live progress lines on stderr (`run --study … --progress`).
    /// `progress.json` snapshots are written to the store regardless.
    pub progress: bool,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self {
            root: PathBuf::from("results/study"),
            interval_items: 64,
            interval_seconds: 30.0,
            max_checkpoints: 3,
            golden_dir: None,
            stop_after_items: None,
            progress: false,
        }
    }
}

/// One cell of a study: a scenario with its roster and runner options,
/// plus the (unique) stem its aggregate file is written under.
#[derive(Debug, Clone)]
pub struct StudyCell {
    /// Aggregate file stem (`aggregate/<stem>.json`), unique per study.
    pub stem: String,
    /// The experimental cell.
    pub scenario: Scenario,
    /// Roster to run on it.
    pub kinds: Vec<PolicyKind>,
    /// Runner options (grid, search strategy, lower bound, engine).
    pub options: RunnerOptions,
}

/// A named, fully-specified batch of cells — the unit of durability.
#[derive(Debug, Clone)]
pub struct StudyDef {
    /// Study id: the directory name under the store root.
    pub id: String,
    /// The cells, in commit order.
    pub cells: Vec<StudyCell>,
}

impl StudyDef {
    /// Build a definition from `(scenario, roster, options)` triples.
    /// Stems default to the scenario labels; colliding labels get the
    /// processor count and then an index appended, so every cell owns a
    /// distinct aggregate file.
    pub fn new(
        id: impl Into<String>,
        cells: impl IntoIterator<Item = (Scenario, Vec<PolicyKind>, RunnerOptions)>,
    ) -> Self {
        let mut out = Vec::new();
        let mut stems: Vec<String> = Vec::new();
        for (scenario, kinds, options) in cells {
            let mut stem = scenario.label.clone();
            if stems.iter().any(|s| s == &stem) {
                stem = format!("{stem}-p{}", scenario.procs);
            }
            let mut n = 2usize;
            while stems.iter().any(|s| s == &stem) {
                stem = format!("{}-{}", scenario.label, n);
                n += 1;
            }
            stems.push(stem.clone());
            out.push(StudyCell { stem, scenario, kinds, options });
        }
        Self { id: id.into(), cells: out }
    }
}

/// One simulation's stats, floats as exact bit patterns. Makespans must
/// decode finite (the store's NaN/Inf-free invariant); `chunk_min` is
/// legitimately `+∞` when a run made no decisions, so chunk bounds are
/// exempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStatsBits {
    /// `RunStats::makespan` bits.
    pub makespan: u64,
    /// Failures hit.
    pub failures: u64,
    /// Decision points.
    pub decisions: u64,
    /// `RunStats::chunk_min` bits.
    pub chunk_min: u64,
    /// `RunStats::chunk_max` bits.
    pub chunk_max: u64,
}

impl TraceStatsBits {
    pub(crate) fn of(st: &RunStats) -> Self {
        Self {
            makespan: st.makespan.to_bits(),
            failures: st.failures,
            decisions: st.decisions,
            chunk_min: st.chunk_min.to_bits(),
            chunk_max: st.chunk_max.to_bits(),
        }
    }

    /// The makespan as a float.
    pub fn makespan_f64(&self) -> f64 {
        f64::from_bits(self.makespan)
    }
}

/// One refine-wave column: a fresh candidate's stats over all traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefineColumn {
    /// Grid index of the candidate.
    pub candidate: usize,
    /// Stats in trace order, one per trace.
    pub stats: Vec<TraceStatsBits>,
}

/// The persisted result of one completed [`WorkItem`].
#[derive(Debug, Clone, PartialEq)]
pub enum ItemPayload {
    /// A roster-policy block: build outcome plus per-trace stats
    /// (empty when the policy could not be built for the cell).
    Policy {
        /// Whether the registry built the policy.
        built: bool,
        /// The build-failure reason (empty when `built`).
        reason: String,
        /// Stats in trace order over the item's block.
        stats: Vec<TraceStatsBits>,
    },
    /// Lower-bound makespans (bits) in trace order over the block.
    LowerBound {
        /// Makespan bit patterns.
        makespans: Vec<u64>,
    },
    /// A coarse candidate block.
    Coarse {
        /// Stats in trace order over the item's block.
        stats: Vec<TraceStatsBits>,
    },
    /// The refine wave's fresh columns (possibly empty when the window
    /// only contains already-evaluated coarse candidates).
    Refine {
        /// One column per fresh candidate, in grid order.
        columns: Vec<RefineColumn>,
    },
}

impl ItemPayload {
    /// Check that this payload has the shape its item promises:
    /// the matching kind, one stats entry (or makespan) per trace of the
    /// block (none for an unbuilt policy), and refine columns in strictly
    /// increasing grid order, each inside the grid and covering all
    /// `traces`.
    ///
    /// # Errors
    /// [`Error::Checkpoint`] naming the item when the shape is off.
    pub(crate) fn check_fits(&self, item: &WorkItem, traces: usize, grid_len: usize) -> Result<(), Error> {
        let block = item.trace_hi.saturating_sub(item.trace_lo);
        let fits = match (item.kind, self) {
            (ItemKind::Policy { .. }, Self::Policy { built, stats, .. }) => {
                stats.len() == if *built { block } else { 0 }
            }
            (ItemKind::LowerBound, Self::LowerBound { makespans }) => makespans.len() == block,
            (ItemKind::Coarse { .. }, Self::Coarse { stats }) => stats.len() == block,
            (ItemKind::Refine, Self::Refine { columns }) => {
                columns.windows(2).all(|w| w[0].candidate < w[1].candidate)
                    && columns.iter().all(|c| c.candidate < grid_len && c.stats.len() == traces)
            }
            _ => false,
        };
        if fits {
            Ok(())
        } else {
            Err(bad(format!(
                "item {} ({:?}, traces {}..{}) has a payload of the wrong shape",
                item.id, item.kind, item.trace_lo, item.trace_hi
            )))
        }
    }
}

/// A study's identity as `manifest.json` records it: the header, one
/// identity row per cell and the item count. The items themselves are
/// never written; the fingerprint hashes them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyManifest {
    /// Format version ([`STORE_VERSION`]).
    pub version: u64,
    /// Study id.
    pub study: String,
    /// FNV-1a 64 over the manifest serialised with this field empty,
    /// then over every work item, as 16 hex digits.
    pub fingerprint: String,
    /// SIMD lane width the kernels were compiled for.
    pub lanes: usize,
    /// Traces per work item ([`TRACE_BLOCK`]).
    pub trace_block: usize,
    /// FNV-1a 64 over the committed golden files (16 hex digits;
    /// all-zero when no golden directory was configured).
    pub golden_hash: String,
    /// Per-cell identity rows, rendered as JSON objects: everything a
    /// cell's numbers depend on (label, stem, processors, traces,
    /// distribution identity, roster, runner options, grid length,
    /// coarse indices, refine stride, lower bound), kept for a cell
    /// that cannot be built.
    pub cells: Vec<String>,
    /// Work items of the study; their ids are `0..items`.
    pub items: u64,
}

/// What a completed (sub)study reports back.
#[derive(Debug)]
pub struct StudyReport {
    /// Study id.
    pub id: String,
    /// `(stem, result)` per cell, in definition order.
    pub results: Vec<(String, Result<ScenarioResult, Error>)>,
    /// Items in the manifest.
    pub items_total: u64,
    /// Items restored from the resumed checkpoint.
    pub items_resumed: u64,
    /// Items executed by this process.
    pub items_executed: u64,
    /// Checkpoints written by this process.
    pub checkpoints_written: u64,
}

/// Outcome of [`run_study`].
#[derive(Debug)]
pub enum StudyOutcome {
    /// Ran to completion; aggregates are on disk.
    Complete(StudyReport),
    /// The `stop_after_items` hook fired (a kill between checkpoints:
    /// nothing was written for the final chunk).
    Stopped {
        /// Completed items at the stop, including resumed ones.
        completed: u64,
        /// Total items in the manifest.
        total: u64,
    },
}

// ---------------------------------------------------------------------
// Fingerprints and the sanctioned clock
// ---------------------------------------------------------------------

/// FNV-1a 64 (no dependencies, stable across platforms), fed in pieces.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-1a over the golden directory (file names + contents, sorted by
/// name), or 0 when unset/unreadable — a pipeline-identity component of
/// the manifest fingerprint: when the committed goldens change, every
/// older checkpoint store is stale by definition.
fn golden_hash(dir: Option<&Path>) -> u64 {
    let Some(dir) = dir else { return 0 };
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut names: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    let mut h = Fnv1a::new();
    for p in names {
        if let Some(name) = p.file_name() {
            h.write(name.to_string_lossy().as_bytes());
        }
        h.write(&[0]);
        if let Ok(content) = std::fs::read(&p) {
            h.write(&content);
        }
        h.write(&[0]);
    }
    h.0
}

/// The manifest fingerprint: FNV-1a 64 over `identity` (the manifest
/// serialised with an empty fingerprint), then over every item's
/// `(id, cell, kind, index, trace_lo, trace_hi)` as little-endian
/// words, streamed rather than rendered. A decomposition that is
/// reordered or re-cut under unchanged cell rows still changes it.
fn fingerprint<'a>(identity: &str, items: impl IntoIterator<Item = &'a WorkItem>) -> u64 {
    let mut h = Fnv1a::new();
    h.write(identity.as_bytes());
    for it in items {
        let (kind, index) = match it.kind {
            ItemKind::Policy { policy } => (0, policy as u64),
            ItemKind::LowerBound => (1, u64::MAX),
            ItemKind::Coarse { candidate } => (2, candidate as u64),
            ItemKind::Refine => (3, u64::MAX),
        };
        for word in [it.id, it.cell as u64, kind, index, it.trace_lo as u64, it.trace_hi as u64] {
            h.write(&word.to_le_bytes());
        }
    }
    h.0
}

// ---------------------------------------------------------------------
// Manifest construction
// ---------------------------------------------------------------------

/// Stable persistent distribution identity: the value fingerprint when
/// the distribution has one, else the spec label (never the
/// process-local instance id, which would poison resume).
fn dist_identity(scenario: &Scenario, built: &Result<BuiltDist, Error>) -> String {
    match built {
        Ok(built) => match DistId::of(built.dist.as_ref()) {
            DistId::Shared(fp) => format!("fp:{fp:016x}"),
            DistId::Instance(_) => format!("label:{}", scenario.dist.label()),
        },
        Err(e) => format!("unbuildable:{e}"),
    }
}

/// One cell as a study decomposes it: its plan, its distribution (built
/// once) and its work items (none when the distribution cannot be
/// built).
struct CellPlan {
    plan: SimPlan,
    built: Result<BuiltDist, Error>,
    items: Vec<WorkItem>,
}

/// Decompose a study into its cells' plans and items, numbered densely
/// in cell order.
fn plan_cells(def: &StudyDef) -> Vec<CellPlan> {
    let mut next_id = 0u64;
    let mut plans = Vec::with_capacity(def.cells.len());
    for (c, cell) in def.cells.iter().enumerate() {
        let plan = plan_scenario(&cell.scenario, &cell.kinds, &cell.options);
        let built = cell.scenario.dist.try_build();
        let items = if built.is_ok() { plan.items(c, next_id) } else { Vec::new() };
        next_id += items.len() as u64;
        plans.push(CellPlan { plan, built, items });
    }
    plans
}

/// One cell's identity row: everything its numbers depend on, rendered
/// to stable strings for the fingerprint.
fn cell_row(cell: &StudyCell, p: &CellPlan) -> String {
    let roster: Vec<String> = cell.kinds.iter().map(|k| json_str(&format!("{k:?}"))).collect();
    let coarse: Vec<String> = p.plan.coarse.iter().map(usize::to_string).collect();
    format!(
        "{{\"label\": {}, \"stem\": {}, \"procs\": {}, \"traces\": {}, \
         \"dist_id\": {}, \"roster\": [{}], \"options\": {}, \"grid_len\": {}, \
         \"coarse\": [{}], \"refine_step\": {}, \"lower_bound\": {}}}",
        json_str(&cell.scenario.label),
        json_str(&cell.stem),
        cell.scenario.procs,
        p.plan.traces,
        json_str(&dist_identity(&cell.scenario, &p.built)),
        roster.join(", "),
        json_str(&format!("{:?}", cell.options)),
        p.plan.grid.len(),
        coarse.join(", "),
        p.plan.refine_step.unwrap_or(0),
        p.plan.lower_bound,
    )
}

/// The manifest of a decomposed study: one identity row per cell (kept
/// for a cell that cannot be built), the item count and the
/// fingerprint over both and every item.
fn manifest_of(def: &StudyDef, config: &CheckpointConfig, plans: &[CellPlan]) -> StudyManifest {
    let mut manifest = StudyManifest {
        version: STORE_VERSION,
        study: def.id.clone(),
        fingerprint: String::new(),
        lanes: ckpt_math::simd::LANES,
        trace_block: TRACE_BLOCK,
        golden_hash: format!("{:016x}", golden_hash(config.golden_dir.as_deref())),
        cells: def.cells.iter().zip(plans).map(|(cell, p)| cell_row(cell, p)).collect(),
        items: plans.iter().map(|p| p.items.len() as u64).sum(),
    };
    let items = plans.iter().flat_map(|p| &p.items);
    manifest.fingerprint = format!("{:016x}", fingerprint(&manifest_json(&manifest), items));
    manifest
}

/// Decompose a study into its manifest (identity, item count and
/// fingerprint).
pub fn build_manifest(def: &StudyDef, config: &CheckpointConfig) -> StudyManifest {
    manifest_of(def, config, &plan_cells(def))
}

// ---------------------------------------------------------------------
// JSON emission (read back by `jsonio`)
// ---------------------------------------------------------------------

fn json_str(s: &str) -> String {
    format!("\"{}\"", jsonio::escape_str(s))
}

fn stats_json(st: &TraceStatsBits) -> String {
    format!(
        "{{\"makespan\": {}, \"failures\": {}, \"decisions\": {}, \
         \"chunk_min\": {}, \"chunk_max\": {}}}",
        st.makespan, st.failures, st.decisions, st.chunk_min, st.chunk_max
    )
}

fn stats_list_json(stats: &[TraceStatsBits]) -> String {
    let inner: Vec<String> = stats.iter().map(stats_json).collect();
    format!("[{}]", inner.join(", "))
}

fn payload_json(p: &ItemPayload) -> String {
    match p {
        ItemPayload::Policy { built, reason, stats } => format!(
            "{{\"kind\": \"policy\", \"built\": {built}, \"reason\": {}, \"stats\": {}}}",
            json_str(reason),
            stats_list_json(stats)
        ),
        ItemPayload::LowerBound { makespans } => {
            let inner: Vec<String> = makespans.iter().map(u64::to_string).collect();
            format!("{{\"kind\": \"lower_bound\", \"makespans\": [{}]}}", inner.join(", "))
        }
        ItemPayload::Coarse { stats } => {
            format!("{{\"kind\": \"coarse\", \"stats\": {}}}", stats_list_json(stats))
        }
        ItemPayload::Refine { columns } => {
            let cols: Vec<String> = columns
                .iter()
                .map(|c| {
                    format!(
                        "{{\"candidate\": {}, \"stats\": {}}}",
                        c.candidate,
                        stats_list_json(&c.stats)
                    )
                })
                .collect();
            format!("{{\"kind\": \"refine\", \"columns\": [{}]}}", cols.join(", "))
        }
    }
}

/// Serialise a manifest. With `fingerprint` emptied this is the head of
/// the fingerprint's hash input; the items follow it there, never here.
pub fn manifest_json(m: &StudyManifest) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"version\": {},\n", m.version));
    s.push_str(&format!("  \"study\": {},\n", json_str(&m.study)));
    s.push_str(&format!("  \"fingerprint\": {},\n", json_str(&m.fingerprint)));
    s.push_str(&format!("  \"lanes\": {},\n", m.lanes));
    s.push_str(&format!("  \"trace_block\": {},\n", m.trace_block));
    s.push_str(&format!("  \"golden_hash\": {},\n", json_str(&m.golden_hash)));
    s.push_str("  \"cells\": [\n");
    for (i, row) in m.cells.iter().enumerate() {
        s.push_str("    ");
        s.push_str(row);
        s.push_str(if i + 1 < m.cells.len() { ",\n" } else { "\n" });
    }
    s.push_str(&format!("  ],\n  \"items\": {}\n}}\n", m.items));
    s
}

/// Serialise one checkpoint snapshot (full completed state).
pub fn checkpoint_json(
    study: &str,
    fingerprint: &str,
    seq: u64,
    completed: &BTreeMap<u64, ItemPayload>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"version\": {STORE_VERSION},\n"));
    s.push_str(&format!("  \"study\": {},\n", json_str(study)));
    s.push_str(&format!("  \"fingerprint\": {},\n", json_str(fingerprint)));
    s.push_str(&format!("  \"seq\": {seq},\n"));
    s.push_str("  \"completed\": [\n");
    let n = completed.len();
    for (i, (id, payload)) in completed.iter().enumerate() {
        s.push_str(&format!("    {{\"id\": {id}, \"payload\": {}}}", payload_json(payload)));
        s.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

// ---------------------------------------------------------------------
// JSON parsing (via `jsonio`)
// ---------------------------------------------------------------------

fn bad(reason: impl Into<String>) -> Error {
    Error::Checkpoint { reason: reason.into() }
}

fn get_u64(v: &Json, key: &str) -> Result<u64, Error> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| bad(format!("missing u64 `{key}`")))
}

fn get_usize(v: &Json, key: &str) -> Result<usize, Error> {
    usize::try_from(get_u64(v, key)?).map_err(|_| bad(format!("`{key}` out of range")))
}

fn get_str(v: &Json, key: &str) -> Result<String, Error> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(format!("missing string `{key}`")))
}

fn get_bool(v: &Json, key: &str) -> Result<bool, Error> {
    v.get(key).and_then(Json::as_bool).ok_or_else(|| bad(format!("missing bool `{key}`")))
}

fn get_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], Error> {
    v.get(key).and_then(Json::as_arr).ok_or_else(|| bad(format!("missing array `{key}`")))
}

/// The finite-makespan invariant: a persisted makespan bit pattern must
/// decode to a finite float (NaN/Inf would silently poison downstream
/// means and golden bytes; chunk bounds are exempt — `chunk_min` is
/// `+∞` on decision-free runs by construction).
fn check_finite_makespan(bits: u64) -> Result<u64, Error> {
    if f64::from_bits(bits).is_finite() {
        Ok(bits)
    } else {
        Err(bad(format!("non-finite makespan bits {bits:#018x}")))
    }
}

fn parse_stats(v: &Json) -> Result<TraceStatsBits, Error> {
    Ok(TraceStatsBits {
        makespan: check_finite_makespan(get_u64(v, "makespan")?)?,
        failures: get_u64(v, "failures")?,
        decisions: get_u64(v, "decisions")?,
        chunk_min: get_u64(v, "chunk_min")?,
        chunk_max: get_u64(v, "chunk_max")?,
    })
}

fn parse_stats_list(v: &Json, key: &str) -> Result<Vec<TraceStatsBits>, Error> {
    get_arr(v, key)?.iter().map(parse_stats).collect()
}

fn parse_payload(v: &Json) -> Result<ItemPayload, Error> {
    match get_str(v, "kind")?.as_str() {
        "policy" => Ok(ItemPayload::Policy {
            built: get_bool(v, "built")?,
            reason: get_str(v, "reason")?,
            stats: parse_stats_list(v, "stats")?,
        }),
        "lower_bound" => Ok(ItemPayload::LowerBound {
            makespans: get_arr(v, "makespans")?
                .iter()
                .map(|m| {
                    m.as_u64()
                        .ok_or_else(|| bad("bad lower-bound bits"))
                        .and_then(check_finite_makespan)
                })
                .collect::<Result<_, _>>()?,
        }),
        "coarse" => Ok(ItemPayload::Coarse { stats: parse_stats_list(v, "stats")? }),
        "refine" => Ok(ItemPayload::Refine {
            columns: get_arr(v, "columns")?
                .iter()
                .map(|c| {
                    Ok(RefineColumn {
                        candidate: get_usize(c, "candidate")?,
                        stats: parse_stats_list(c, "stats")?,
                    })
                })
                .collect::<Result<_, Error>>()?,
        }),
        other => Err(bad(format!("unknown payload kind `{other}`"))),
    }
}

/// A parsed checkpoint snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFile {
    /// Format version.
    pub version: u64,
    /// Owning study id.
    pub study: String,
    /// Manifest fingerprint the snapshot was written against.
    pub fingerprint: String,
    /// Monotonic snapshot sequence number.
    pub seq: u64,
    /// Completed payloads by item id.
    pub completed: BTreeMap<u64, ItemPayload>,
}

/// Parse a checkpoint document, enforcing the finite-makespan invariant.
///
/// # Errors
/// [`Error::Checkpoint`] on malformed JSON, missing fields, or a
/// non-finite persisted makespan.
pub fn parse_checkpoint(src: &str) -> Result<CheckpointFile, Error> {
    let v = jsonio::parse(src).map_err(|e| bad(format!("checkpoint: {e}")))?;
    let mut completed = BTreeMap::new();
    for entry in get_arr(&v, "completed")? {
        let id = get_u64(entry, "id")?;
        let payload = entry.get("payload").ok_or_else(|| bad("missing payload"))?;
        completed.insert(id, parse_payload(payload)?);
    }
    Ok(CheckpointFile {
        version: get_u64(&v, "version")?,
        study: get_str(&v, "study")?,
        fingerprint: get_str(&v, "fingerprint")?,
        seq: get_u64(&v, "seq")?,
        completed,
    })
}

// ---------------------------------------------------------------------
// Store layout and atomic I/O
// ---------------------------------------------------------------------

fn study_dir(config: &CheckpointConfig, id: &str) -> PathBuf {
    config.root.join(id)
}

fn ckpt_name(seq: u64) -> String {
    format!("ckpt-{seq:06}.json")
}

/// Parse `ckpt-NNNNNN.json` back to its sequence number.
fn ckpt_seq(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?.strip_suffix(".json")?.parse().ok()
}

/// Write-then-rename so readers (and kills) never observe a torn file.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> Result<(), Error> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, contents)
        .map_err(|e| bad(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| bad(format!("rename {}: {e}", path.display())))
}

/// Checkpoint files of a study dir as `(seq, path)`, ascending.
fn list_checkpoints(dir: &Path) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut out: Vec<(u64, PathBuf)> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            let seq = ckpt_seq(path.file_name()?.to_str()?)?;
            Some((seq, path))
        })
        .collect();
    out.sort();
    out
}

/// Drop all but the newest `keep` checkpoint files.
fn prune_checkpoints(dir: &Path, keep: usize) {
    let files = list_checkpoints(dir);
    let excess = files.len().saturating_sub(keep.max(1));
    for (_, path) in files.into_iter().take(excess) {
        let _ = std::fs::remove_file(path);
    }
}

fn write_status(dir: &Path, status: &str) -> Result<(), Error> {
    write_atomic(&dir.join("status"), &format!("{status}\n"))
}

// ---------------------------------------------------------------------
// The run loop
// ---------------------------------------------------------------------

/// The `fingerprint` of the manifest at `path`, the one field resume
/// reads back; `None` when no manifest was written (a kill between the
/// study directory and its manifest).
///
/// # Errors
/// [`Error::Checkpoint`] when the file is unreadable, truncated, not
/// JSON or has no string `fingerprint`.
fn stored_fingerprint(path: &Path) -> Result<Option<String>, Error> {
    let src = match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(bad(format!("read {}: {e}", path.display()))),
    };
    let doc = jsonio::parse(&src).map_err(|e| bad(format!("{}: {e}", path.display())))?;
    let fingerprint = doc.get("fingerprint").and_then(Json::as_str);
    let fingerprint =
        fingerprint.ok_or_else(|| bad(format!("{}: no string `fingerprint`", path.display())))?;
    Ok(Some(fingerprint.to_string()))
}

/// Load the newest usable snapshot of `dir`. Corrupt, version-skewed
/// or shape-damaged files (a payload that does not fit its item in
/// `plans`) are skipped, falling back to the previous snapshot; a
/// *fingerprint* mismatch is a hard error — the store describes
/// different numbers than `manifest` and must not be silently reused.
fn load_latest(
    dir: &Path,
    manifest: &StudyManifest,
    plans: &[CellPlan],
) -> Result<Option<CheckpointFile>, Error> {
    let (study, expect) = (&manifest.study, &manifest.fingerprint);
    let mut files = list_checkpoints(dir);
    files.reverse();
    for (_, path) in files {
        let Some(ckpt) = std::fs::read_to_string(&path)
            .ok()
            .and_then(|src| parse_checkpoint(&src).ok())
            .filter(|c| c.version == STORE_VERSION && &c.study == study)
        else {
            continue;
        };
        if &ckpt.fingerprint != expect {
            return Err(bad(format!(
                "stale checkpoint store for study `{study}`: snapshot fingerprint {} \
                 does not match the rebuilt manifest fingerprint {expect} \
                 ({}) — refusing to resume",
                ckpt.fingerprint,
                path.display()
            )));
        }
        if payloads_fit(&ckpt.completed, plans).is_err() {
            continue;
        }
        return Ok(Some(ckpt));
    }
    Ok(None)
}

/// Every payload of a snapshot against its item (ids the study does
/// not know are dropped by the caller, never folded).
fn payloads_fit(completed: &BTreeMap<u64, ItemPayload>, plans: &[CellPlan]) -> Result<(), Error> {
    for p in plans {
        for item in &p.items {
            if let Some(payload) = completed.get(&item.id) {
                payload.check_fits(item, p.plan.traces, p.plan.grid.len())?;
            }
        }
    }
    Ok(())
}

/// The checkpoint store attached to a study run: between waves it keeps
/// the progress snapshot (rewritten at each commit, and as a wave starts
/// at most once per console period), fires the stop hook and writes the
/// periodic snapshots.
pub(crate) struct Store<'a> {
    config: &'a CheckpointConfig,
    manifest: &'a StudyManifest,
    dir: PathBuf,
    next_seq: u64,
    executed: u64,
    since_snapshot: u64,
    last_snapshot: f64,
    snapshots_written: u64,
    progress: StudyProgress,
}

impl Store<'_> {
    /// A wave enters the executor: its items are in flight.
    pub(crate) fn begin_wave(&mut self, wave: &[WorkItem]) {
        self.progress.begin_chunk(wave);
        self.progress.console_tick(false);
        let _ = self.progress.write_if_due(&self.dir);
    }

    /// A wave's payloads are in `completed`: stop here when the stop
    /// hook is due (`Ok(false)`, writing nothing — a kill between
    /// snapshots), else write a snapshot when one is due.
    ///
    /// # Errors
    /// A snapshot, status or progress write failed.
    pub(crate) fn end_wave(
        &mut self,
        wave: &[WorkItem],
        completed: &BTreeMap<u64, ItemPayload>,
    ) -> Result<bool, Error> {
        self.executed += wave.len() as u64;
        self.since_snapshot += wave.len() as u64;
        self.progress.finish_chunk(wave);
        if self.config.stop_after_items.is_some_and(|stop| self.executed >= stop) {
            return Ok(false);
        }
        let due_items = self.since_snapshot >= self.config.interval_items.max(1);
        let due_time = clock_seconds() - self.last_snapshot >= self.config.interval_seconds;
        if due_items || due_time {
            self.snapshot(completed)?;
            write_status(&self.dir, &format!("running {}/{}", completed.len(), self.manifest.items))?;
            // The checkpoint writer committed: refresh the progress
            // snapshot next to it.
            self.progress.write(&self.dir)?;
        }
        Ok(true)
    }

    /// Write the full completed state as the next snapshot, keeping the
    /// newest `max_checkpoints`.
    fn snapshot(&mut self, completed: &BTreeMap<u64, ItemPayload>) -> Result<(), Error> {
        write_atomic(
            &self.dir.join(ckpt_name(self.next_seq)),
            &checkpoint_json(&self.manifest.study, &self.manifest.fingerprint, self.next_seq, completed),
        )?;
        self.next_seq += 1;
        self.snapshots_written += 1;
        self.since_snapshot = 0;
        self.last_snapshot = clock_seconds();
        prune_checkpoints(&self.dir, self.config.max_checkpoints);
        Ok(())
    }
}

/// Drain every item of `plans` not yet in `completed` through the one
/// wave loop, with `store` attached when given, then commit every cell
/// in definition order: its fold, or its build error wrapped as
/// [`Error::Cell`] with the scenario's label. `Ok(None)` when the stop
/// hook fired.
fn drain_and_commit(
    def: &StudyDef,
    plans: &[CellPlan],
    completed: &mut BTreeMap<u64, ItemPayload>,
    store: Option<&mut Store<'_>>,
) -> Result<Option<Vec<Result<ScenarioResult, Error>>>, Error> {
    let pending: Vec<WorkItem> = plans
        .iter()
        .flat_map(|p| &p.items)
        .filter(|i| !completed.contains_key(&i.id))
        .copied()
        .collect();
    let mut cells: Vec<CellCtx> = def
        .cells
        .iter()
        .zip(plans)
        .map(|(cell, p)| CellCtx::new(&cell.scenario, &p.plan, p.built.as_ref().ok(), &p.items))
        .collect();
    let mut perfs: Vec<PipelinePerf> = plans.iter().map(|_| PipelinePerf::default()).collect();
    if !crate::exec::run_waves(&mut cells, &pending, completed, store, true, &mut perfs)? {
        return Ok(None);
    }
    Ok(Some(
        def.cells
            .iter()
            .zip(plans)
            .zip(perfs)
            .map(|((cell, p), perf)| match &p.built {
                Ok(_) => crate::reduce::commit(&cell.scenario, &p.plan, &p.items, completed, perf),
                Err(e) => Err(Error::for_cell(&cell.scenario.label, e.clone())),
            })
            .collect(),
    ))
}

/// Run a study in memory: the loop and commit of [`run_study`] with no
/// store attached (no manifest, fingerprint or snapshot), one result
/// per cell in definition order. A cell that cannot run at all yields
/// its `Err`, wrapped as [`Error::Cell`] with the scenario's label, and
/// the rest still run.
pub fn run_in_memory(def: &StudyDef) -> Vec<Result<ScenarioResult, Error>> {
    match drain_and_commit(def, &plan_cells(def), &mut BTreeMap::new(), None) {
        Ok(Some(results)) => results,
        _ => unreachable!("a run without a store neither fails nor stops"),
    }
}

/// Run (or resume) a study through the checkpoint store.
///
/// Fresh runs (`resume == false`) refuse to overwrite an existing study
/// directory. Resumes (`resume == true`) require the directory, rebuild
/// the manifest from `def`, validate fingerprints, restore the newest
/// snapshot's completed set, and execute only what is missing —
/// in-progress work of the killed process is implicitly back in
/// pending, completed work is replayed by payload, never re-simulated.
///
/// # Errors
/// [`Error::Checkpoint`] for store-level failures (I/O, corrupt or
/// stale snapshots, id collisions). Cell-level failures are values in
/// the returned report, as in [`run_in_memory`].
pub fn run_study(
    def: &StudyDef,
    config: &CheckpointConfig,
    resume: bool,
) -> Result<StudyOutcome, Error> {
    let plans = plan_cells(def);
    let manifest = manifest_of(def, config, &plans);
    let dir = study_dir(config, &def.id);
    let mut completed: BTreeMap<u64, ItemPayload> = BTreeMap::new();
    let mut next_seq: u64 = 0;

    if resume {
        if !dir.is_dir() {
            return Err(bad(format!("no study `{}` under {}", def.id, config.root.display())));
        }
        let stored = stored_fingerprint(&dir.join("manifest.json"))?;
        if let Some(on_disk) = &stored {
            if *on_disk != manifest.fingerprint {
                return Err(bad(format!(
                    "stale manifest for study `{}`: on-disk fingerprint {on_disk} does not \
                     match the rebuilt fingerprint {} — the store describes a \
                     different study; refusing to resume",
                    def.id, manifest.fingerprint
                )));
            }
        }
        if let Some(ckpt) = load_latest(&dir, &manifest, &plans)? {
            next_seq = ckpt.seq + 1;
            completed = ckpt.completed;
        }
        if stored.is_none() {
            // A kill between `create_dir_all` and the manifest write
            // leaves none; the snapshots' fingerprints were checked
            // above, so the rebuilt manifest describes this store.
            write_atomic(&dir.join("manifest.json"), &manifest_json(&manifest))?;
        }
        // Payloads for ids the study does not have are dropped rather
        // than trusted (defensive; fingerprint equality already implies
        // the same item set). Ids are dense: `0..items`.
        completed.retain(|&id, _| id < manifest.items);
    } else {
        if dir.join("manifest.json").exists() {
            return Err(bad(format!(
                "study `{}` already exists under {} — resume it or pick a new id",
                def.id,
                config.root.display()
            )));
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| bad(format!("create {}: {e}", dir.display())))?;
        write_atomic(&dir.join("manifest.json"), &manifest_json(&manifest))?;
    }

    let items_total = manifest.items;
    let items_resumed = completed.len() as u64;
    write_status(&dir, &format!("running {items_resumed}/{items_total}"))?;
    let all_items = plans.iter().flat_map(|p| &p.items);
    let mut progress =
        StudyProgress::new(&def.id, all_items, |id| completed.contains_key(&id), config.progress);
    progress.write(&dir)?;
    let last_snapshot = clock_seconds();
    let mut store = Store { config, manifest: &manifest, dir, next_seq, executed: 0, since_snapshot: 0, last_snapshot, snapshots_written: 0, progress };
    let Some(results) = drain_and_commit(def, &plans, &mut completed, Some(&mut store))? else {
        // Emulated kill between snapshots: the store stays exactly as
        // the last snapshot wrote it.
        return Ok(StudyOutcome::Stopped { completed: completed.len() as u64, total: items_total });
    };

    // Completion: final snapshot first (a crash between here and the
    // aggregates resumes into an all-complete study and just re-commits),
    // then every committed cell's aggregate, in definition order.
    store.snapshot(&completed)?;
    store.progress.write(&store.dir)?;
    store.progress.console_tick(true);

    let agg_dir = store.dir.join("aggregate");
    std::fs::create_dir_all(&agg_dir)
        .map_err(|e| bad(format!("create {}: {e}", agg_dir.display())))?;
    for (cell, result) in def.cells.iter().zip(&results) {
        if let Ok(r) = result {
            write_atomic(&agg_dir.join(format!("{}.json", cell.stem)), &crate::golden::golden_json(r))?;
        }
    }
    let results = def.cells.iter().map(|c| c.stem.clone()).zip(results).collect();

    write_status(&store.dir, &format!("done {items_total}/{items_total}"))?;

    Ok(StudyOutcome::Complete(StudyReport {
        id: def.id.clone(),
        results,
        items_total,
        items_resumed,
        items_executed: store.executed,
        checkpoints_written: store.snapshots_written,
    }))
}

// ---------------------------------------------------------------------
// `study ls` / `study gc`
// ---------------------------------------------------------------------

/// One row of `study ls`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudySummary {
    /// Study id (directory name).
    pub id: String,
    /// Contents of the status file (`running N/M`, `done N/N`), or
    /// `"unknown"`.
    pub status: String,
    /// Checkpoint files on disk.
    pub checkpoints: usize,
    /// Aggregate files on disk (`aggregate/*.json`; a `*.json.tmp` left
    /// by a kill inside `write_atomic` is not an aggregate).
    pub aggregates: usize,
    /// The manifest's item count (0 when unreadable).
    pub items: u64,
}

/// Enumerate the studies under `root`, sorted by id.
///
/// # Errors
/// Never fails on per-study damage (damaged studies list as
/// `"unknown"`); an unreadable root yields an empty list.
pub fn list_studies(root: &Path) -> Vec<StudySummary> {
    let Ok(entries) = std::fs::read_dir(root) else { return Vec::new() };
    let mut out: Vec<StudySummary> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            if !path.is_dir() {
                return None;
            }
            let id = path.file_name()?.to_str()?.to_string();
            let status = std::fs::read_to_string(path.join("status"))
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string());
            let items = std::fs::read_to_string(path.join("manifest.json"))
                .ok()
                .and_then(|s| jsonio::parse(&s).ok())
                .and_then(|v| v.get("items").and_then(Json::as_u64))
                .unwrap_or(0);
            let aggregates = files_with_extension(&path.join("aggregate"), "json").len();
            Some(StudySummary {
                id,
                status,
                checkpoints: list_checkpoints(&path).len(),
                aggregates,
                items,
            })
        })
        .collect();
    out.sort_by(|a, b| a.id.cmp(&b.id));
    out
}

/// Files of `dir` whose extension is `ext` (empty when unreadable).
fn files_with_extension(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == ext))
        .collect()
}

/// Garbage-collect the store: prune every study to `max_checkpoints`
/// snapshots and delete the `*.tmp` files a kill inside `write_atomic`
/// left in its directory or `aggregate/`; `purge` removes one study
/// directory entirely. Run it on stores no process is writing. Returns a
/// human-readable action log.
///
/// # Errors
/// [`Error::Checkpoint`] when the purge target cannot be removed.
pub fn gc_studies(
    root: &Path,
    max_checkpoints: usize,
    purge: Option<&str>,
) -> Result<Vec<String>, Error> {
    let mut actions = Vec::new();
    if let Some(id) = purge {
        let dir = root.join(id);
        if dir.is_dir() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| bad(format!("purge {}: {e}", dir.display())))?;
            actions.push(format!("purged {id}"));
        } else {
            actions.push(format!("no study `{id}` to purge"));
        }
    }
    for summary in list_studies(root) {
        if Some(summary.id.as_str()) == purge {
            continue;
        }
        let dir = root.join(&summary.id);
        let before = summary.checkpoints;
        prune_checkpoints(&dir, max_checkpoints);
        let after = list_checkpoints(&dir).len();
        if after < before {
            actions.push(format!("{}: pruned {} checkpoint(s)", summary.id, before - after));
        }
        let mut stray = files_with_extension(&dir, "tmp");
        stray.extend(files_with_extension(&dir.join("aggregate"), "tmp"));
        let removed = stray.iter().filter(|p| std::fs::remove_file(p).is_ok()).count();
        if removed > 0 {
            actions.push(format!("{}: removed {removed} stray temp file(s)", summary.id));
        }
    }
    Ok(actions)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::scenario::DistSpec;
    use ckpt_sim::SimOptions;

    fn tiny_def(id: &str) -> StudyDef {
        let mut s =
            Scenario::single_processor(DistSpec::Exponential { mtbf: 6.0 * 3_600.0 }, 4);
        s.total_work = 12.0 * 3_600.0;
        let options = RunnerOptions {
            lower_bound: true,
            period_lb: Some(vec![0.5, 1.0, 2.0]),
            sim: SimOptions::default(),
        };
        StudyDef::new(id, [(s, vec![PolicyKind::Young, PolicyKind::OptExp], options)])
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.0
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Reference values of FNV-1a 64.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        // Fed in pieces, it hashes their concatenation.
        let mut h = Fnv1a::new();
        h.write(b"ab");
        h.write(b"c");
        assert_eq!(h.0, fnv1a(b"abc"));
    }

    #[test]
    fn manifest_decomposes_and_fingerprint_is_stable() {
        let mut def = tiny_def("t");
        def.cells[0].scenario.traces = 2 * TRACE_BLOCK;
        let config = CheckpointConfig::default();
        let a = build_manifest(&def, &config);
        let b = build_manifest(&def, &config);
        assert_eq!(a, b, "manifest build must be deterministic");
        // 2 policies × 2 blocks + 2 LB blocks + 3 candidates × 2 blocks,
        // full search ⇒ no refine item.
        assert_eq!(a.items, 2 * 2 + 2 + 3 * 2);
        let plans = plan_cells(&def);
        assert!(plans[0].items.iter().all(|i| !matches!(i.kind, ItemKind::Refine)));
        assert_eq!(a.trace_block, TRACE_BLOCK);
        assert_eq!(a.lanes, ckpt_math::simd::LANES);
        // Ids are dense and ordered.
        for (k, item) in plans[0].items.iter().enumerate() {
            assert_eq!(item.id, k as u64);
        }
    }

    /// The manifest holds the header, the cell rows and an item count;
    /// the fingerprint still covers every item: swapping two items or
    /// re-cutting a block boundary changes it under the same rows.
    #[test]
    fn fingerprint_covers_the_item_decomposition() {
        let mut def = tiny_def("t");
        def.cells[0].scenario.traces = 2 * TRACE_BLOCK;
        let config = CheckpointConfig::default();
        let m = build_manifest(&def, &config);
        let json = manifest_json(&m);
        assert!(json.contains(&format!("\"items\": {}\n}}", m.items)), "{json}");
        assert!(!json.contains("trace_lo"), "the manifest lists no items: {json}");

        let identity = manifest_json(&StudyManifest { fingerprint: String::new(), ..m.clone() });
        let items = plan_cells(&def).swap_remove(0).items;
        let fp = |items: &[WorkItem]| format!("{:016x}", fingerprint(&identity, items));
        assert_eq!(fp(&items), m.fingerprint, "the fingerprint is identity then items");

        let mut swapped = items.clone();
        swapped.swap(0, 1);
        assert_ne!(fp(&swapped), m.fingerprint, "two items swapped");
        (swapped[0].id, swapped[1].id) = (0, 1);
        assert_ne!(fp(&swapped), m.fingerprint, "two items swapped, ids kept dense");
        let mut recut = items.clone();
        let (a, b) = (recut[0], recut[1]);
        assert_eq!((a.kind, a.trace_hi), (b.kind, b.trace_lo), "two blocks of one policy");
        recut[0].trace_hi -= 1;
        recut[1].trace_lo -= 1;
        assert_ne!(fp(&recut), m.fingerprint, "a re-cut block boundary");
    }

    #[test]
    fn fingerprint_tracks_content() {
        let config = CheckpointConfig::default();
        let a = build_manifest(&tiny_def("t"), &config);
        // Different roster ⇒ different fingerprint.
        let mut def = tiny_def("t");
        def.cells[0].kinds.pop();
        let b = build_manifest(&def, &config);
        assert_ne!(a.fingerprint, b.fingerprint);
        // Different trace count ⇒ different fingerprint.
        let mut def = tiny_def("t");
        def.cells[0].scenario.traces += 1;
        let c = build_manifest(&def, &config);
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    /// Resume reads one field of the manifest. A truncated, garbage or
    /// fingerprint-less file is a typed store error raised before
    /// anything runs or is written, and a manifest in the pre-count
    /// format (every item listed, its fingerprint over that rendering)
    /// is refused as stale.
    #[test]
    fn damaged_or_pre_count_manifest_refuses_to_resume() {
        let root = std::env::temp_dir()
            .join(format!("ckpt-store-bad-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let def = tiny_def("bad");
        let config = CheckpointConfig {
            root: root.clone(),
            interval_seconds: 1e9,
            ..CheckpointConfig::default()
        };
        let stop = CheckpointConfig { stop_after_items: Some(1), ..config.clone() };
        assert!(matches!(run_study(&def, &stop, false), Ok(StudyOutcome::Stopped { .. })));
        let dir = root.join("bad");
        let path = dir.join("manifest.json");
        let good = std::fs::read_to_string(&path).expect("manifest written");
        let store = |dir: &Path| -> Vec<(std::ffi::OsString, Vec<u8>)> {
            let mut files: Vec<_> = std::fs::read_dir(dir)
                .expect("store")
                .map(|e| e.expect("entry").path())
                .filter(|p| p.file_name().is_some_and(|n| n != "manifest.json"))
                .map(|p| (p.file_name().expect("name").to_owned(), std::fs::read(&p).expect("read")))
                .collect();
            files.sort();
            files
        };
        let before = store(&dir);

        let damaged: [&[u8]; 5] = [
            &good.as_bytes()[..good.len() / 2],
            b"\x00 not json",
            &[0xff, 0xfe, 0x7b],
            b"{\"version\": 1, \"items\": 3}",
            b"{\"fingerprint\": 7}",
        ];
        for bytes in damaged {
            std::fs::write(&path, bytes).expect("damage the manifest");
            let err = run_study(&def, &config, true).expect_err("a damaged manifest must refuse");
            assert!(matches!(err, Error::Checkpoint { .. }), "{err:?}");
            assert!(err.to_string().contains("manifest.json"), "{err}");
            assert_eq!(store(&dir), before, "a refused resume wrote into the store");
        }

        // The pre-count format: every item rendered into the document,
        // which its fingerprint hashed with the fingerprint field empty.
        let items: Vec<String> = plan_cells(&def)
            .iter()
            .flat_map(|p| &p.items)
            .map(|it| {
                let (kind, index) = match it.kind {
                    ItemKind::Policy { policy } => ("policy", policy as i64),
                    ItemKind::LowerBound => ("lower_bound", -1),
                    ItemKind::Coarse { candidate } => ("coarse", candidate as i64),
                    ItemKind::Refine => ("refine", -1),
                };
                format!(
                    "    {{\"id\": {}, \"cell\": {}, \"kind\": \"{kind}\", \"index\": {index}, \
                     \"trace_lo\": {}, \"trace_hi\": {}}}",
                    it.id, it.cell, it.trace_lo, it.trace_hi
                )
            })
            .collect();
        let m = build_manifest(&def, &config);
        let count = format!("\"items\": {}\n}}\n", m.items);
        let listed = format!("\"items\": [\n{}\n  ]\n}}\n", items.join(",\n"));
        let unsigned =
            manifest_json(&StudyManifest { fingerprint: String::new(), ..m.clone() }).replace(&count, &listed);
        let old_fp = format!("{:016x}", fnv1a(unsigned.as_bytes()));
        let old = unsigned.replace("\"fingerprint\": \"\"", &format!("\"fingerprint\": \"{old_fp}\""));
        assert!(old.contains("\"trace_lo\"") && old.contains(&old_fp), "{old}");
        std::fs::write(&path, old).expect("write a pre-count manifest");
        let err = run_study(&def, &config, true).expect_err("a pre-count store is stale");
        assert!(matches!(err, Error::Checkpoint { .. }), "{err:?}");
        assert!(err.to_string().contains("stale manifest"), "{err}");
        assert_eq!(store(&dir), before, "a refused resume wrote into the store");
        assert_eq!(list_studies(&root)[0].items, 0, "`study ls` reads no count from a list");

        // The intact manifest resumes.
        std::fs::write(&path, good).expect("restore the manifest");
        assert!(matches!(run_study(&def, &config, true), Ok(StudyOutcome::Complete(_))));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stems_deduplicate() {
        let mut s =
            Scenario::single_processor(DistSpec::Exponential { mtbf: 3_600.0 }, 2);
        s.total_work = 3_600.0;
        let mut s2 = s.clone();
        s2.procs = 2;
        let s3 = s.clone();
        let opts = RunnerOptions { period_lb: None, ..RunnerOptions::default() };
        let def = StudyDef::new(
            "d",
            [
                (s, vec![PolicyKind::Young], opts.clone()),
                (s2, vec![PolicyKind::Young], opts.clone()),
                (s3, vec![PolicyKind::Young], opts),
            ],
        );
        let stems: Vec<&str> = def.cells.iter().map(|c| c.stem.as_str()).collect();
        assert_eq!(stems.len(), 3);
        assert!(stems[1].ends_with("-p2"));
        for (i, a) in stems.iter().enumerate() {
            for b in &stems[i + 1..] {
                assert_ne!(a, b, "stems must be unique");
            }
        }
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_non_finite() {
        let mut completed = BTreeMap::new();
        completed.insert(
            3,
            ItemPayload::Policy {
                built: true,
                reason: String::new(),
                stats: vec![TraceStatsBits {
                    makespan: 1234.5f64.to_bits(),
                    failures: 2,
                    decisions: 7,
                    chunk_min: f64::INFINITY.to_bits(),
                    chunk_max: 0.0f64.to_bits(),
                }],
            },
        );
        completed.insert(4, ItemPayload::LowerBound { makespans: vec![99.25f64.to_bits()] });
        completed.insert(
            5,
            ItemPayload::Refine {
                columns: vec![RefineColumn {
                    candidate: 2,
                    stats: vec![TraceStatsBits {
                        makespan: 1.0f64.to_bits(),
                        failures: 0,
                        decisions: 1,
                        chunk_min: 1.0f64.to_bits(),
                        chunk_max: 1.0f64.to_bits(),
                    }],
                }],
            },
        );
        let src = checkpoint_json("s", "00ff", 7, &completed);
        let parsed = parse_checkpoint(&src).expect("parses");
        assert_eq!(parsed.seq, 7);
        assert_eq!(parsed.completed, completed);

        // A NaN makespan violates the store invariant (chunk_min may be
        // +inf — it round-tripped above).
        completed.insert(
            7,
            ItemPayload::LowerBound { makespans: vec![f64::NAN.to_bits()] },
        );
        let bad_src = checkpoint_json("s", "00ff", 8, &completed);
        let err = parse_checkpoint(&bad_src).expect_err("NaN must be rejected");
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn ckpt_names_round_trip_and_retention_prunes() {
        assert_eq!(ckpt_seq(&ckpt_name(42)), Some(42));
        assert_eq!(ckpt_seq("manifest.json"), None);
        let dir = std::env::temp_dir()
            .join(format!("ckpt-retention-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for seq in 0..5 {
            std::fs::write(dir.join(ckpt_name(seq)), "{}").unwrap();
        }
        prune_checkpoints(&dir, 2);
        let left: Vec<u64> = list_checkpoints(&dir).into_iter().map(|(s, _)| s).collect();
        assert_eq!(left, [3, 4], "newest snapshots survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_run_refuses_existing_study_and_resume_requires_one() {
        let root = std::env::temp_dir()
            .join(format!("ckpt-store-guard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let def = tiny_def("guard");
        let config = CheckpointConfig {
            root: root.clone(),
            interval_seconds: 1e9,
            ..CheckpointConfig::default()
        };
        let missing = run_study(&def, &config, true).expect_err("nothing to resume");
        assert!(missing.to_string().contains("no study"), "{missing}");
        match run_study(&def, &config, false).expect("fresh run") {
            StudyOutcome::Complete(report) => {
                assert_eq!(report.items_resumed, 0);
                assert_eq!(report.items_executed, report.items_total);
                assert!(report.results[0].1.is_ok());
            }
            StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
        }
        let again = run_study(&def, &config, false).expect_err("id collision");
        assert!(again.to_string().contains("already exists"), "{again}");
        // Resuming a completed study replays everything from the final
        // snapshot and re-commits identical aggregates.
        let agg = root.join("guard/aggregate").join(format!("{}.json", def.cells[0].stem));
        let before = std::fs::read_to_string(&agg).expect("aggregate written");
        match run_study(&def, &config, true).expect("resume complete study") {
            StudyOutcome::Complete(report) => {
                assert_eq!(report.items_resumed, report.items_total);
                assert_eq!(report.items_executed, 0);
            }
            StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
        }
        assert_eq!(std::fs::read_to_string(&agg).expect("rewritten"), before);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn ls_and_gc_report_and_prune() {
        let root = std::env::temp_dir()
            .join(format!("ckpt-store-lsgc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let def = tiny_def("lsgc");
        let config = CheckpointConfig {
            root: root.clone(),
            interval_items: 1,
            interval_seconds: 1e9,
            max_checkpoints: 10,
            ..CheckpointConfig::default()
        };
        run_study(&def, &config, false).expect("runs");
        let ls = list_studies(&root);
        assert_eq!(ls.len(), 1);
        assert_eq!(ls[0].id, "lsgc");
        assert!(ls[0].status.starts_with("done"), "{}", ls[0].status);
        assert!(ls[0].checkpoints > 1);
        assert_eq!(ls[0].aggregates, 1);
        assert!(ls[0].items > 0);
        let actions = gc_studies(&root, 1, None).expect("gc");
        assert_eq!(actions.len(), 1, "{actions:?}");
        assert_eq!(list_checkpoints(&root.join("lsgc")).len(), 1);
        let actions = gc_studies(&root, 1, Some("lsgc")).expect("purge");
        assert!(actions[0].contains("purged"), "{actions:?}");
        assert!(list_studies(&root).is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A kill between `write_atomic`'s write and its rename leaves a
    /// `*.json.tmp` behind: `ls` must not count it as an aggregate, and
    /// `gc` must delete it (in the study dir and in `aggregate/`).
    #[test]
    fn ls_ignores_and_gc_removes_stray_temp_files() {
        let root = std::env::temp_dir()
            .join(format!("ckpt-store-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let def = tiny_def("tmp");
        let config = CheckpointConfig {
            root: root.clone(),
            interval_seconds: 1e9,
            ..CheckpointConfig::default()
        };
        run_study(&def, &config, false).expect("runs");
        let dir = root.join("tmp");
        let strays = [
            dir.join("aggregate/other-cell.json.tmp"),
            dir.join(format!("{}.tmp", ckpt_name(99))),
        ];
        for path in &strays {
            std::fs::write(path, "{").unwrap();
        }
        let ls = list_studies(&root);
        assert_eq!(ls[0].aggregates, 1, "a temp file is not an aggregate");
        assert_eq!(ls[0].checkpoints, 1, "a temp file is not a checkpoint");

        let actions = gc_studies(&root, 3, None).expect("gc");
        assert_eq!(actions, ["tmp: removed 2 stray temp file(s)"]);
        for path in &strays {
            assert!(!path.exists(), "{} survived gc", path.display());
        }
        // Only the strays went: the study still lists whole.
        let ls = list_studies(&root);
        assert_eq!((ls[0].aggregates, ls[0].checkpoints), (1, 1));
        assert!(dir.join("manifest.json").is_file());
        assert!(gc_studies(&root, 3, None).expect("gc").is_empty(), "gc is idempotent");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The manifest reads back through the store's JSON reader: every
    /// header field, the item count and one row per cell.
    #[test]
    fn manifest_round_trips_through_json() {
        let def = tiny_def("round \"trip\"");
        let m = build_manifest(&def, &CheckpointConfig::default());
        let doc = jsonio::parse(&manifest_json(&m)).expect("the manifest is JSON");
        assert_eq!(get_u64(&doc, "version").unwrap(), m.version);
        assert_eq!(get_str(&doc, "study").unwrap(), m.study);
        assert_eq!(get_str(&doc, "fingerprint").unwrap(), m.fingerprint);
        assert_eq!(get_usize(&doc, "lanes").unwrap(), m.lanes);
        assert_eq!(get_usize(&doc, "trace_block").unwrap(), m.trace_block);
        assert_eq!(get_str(&doc, "golden_hash").unwrap(), m.golden_hash);
        assert_eq!(get_u64(&doc, "items").unwrap(), m.items);
        let rows = get_arr(&doc, "cells").unwrap();
        assert_eq!(rows.len(), def.cells.len());
        assert_eq!(get_str(&rows[0], "label").unwrap(), def.cells[0].scenario.label);
        assert_eq!(get_str(&rows[0], "stem").unwrap(), def.cells[0].stem);
        assert_eq!(get_usize(&rows[0], "traces").unwrap(), def.cells[0].scenario.traces);
    }

    /// The manifest's size does not grow with the item count: 64 times
    /// the traces add only the digits of the new counts.
    #[test]
    fn manifest_stays_small_as_the_traces_grow() {
        let config = CheckpointConfig::default();
        let mut def = tiny_def("t");
        def.cells[0].scenario.traces = TRACE_BLOCK;
        let small = build_manifest(&def, &config);
        def.cells[0].scenario.traces = 64 * TRACE_BLOCK;
        let large = build_manifest(&def, &config);
        assert!(large.items >= 32 * small.items, "{} vs {}", large.items, small.items);
        let (a, b) = (manifest_json(&small).len(), manifest_json(&large).len());
        assert!(b <= a + 8, "manifest grew from {a} to {b} bytes");
    }

    /// The committed goldens are part of the identity: their names and
    /// contents move the fingerprint, other files in their directory do
    /// not.
    #[test]
    fn fingerprint_depends_on_the_golden_files() {
        let dir = std::env::temp_dir().join(format!("ckpt-golden-hash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let def = tiny_def("g");
        let none = build_manifest(&def, &CheckpointConfig::default());
        assert_eq!(none.golden_hash, "0000000000000000");
        let config = CheckpointConfig { golden_dir: Some(dir.clone()), ..CheckpointConfig::default() };
        let mut seen = vec![none];
        std::fs::write(dir.join("a.json"), "{}").unwrap();
        seen.push(build_manifest(&def, &config));
        std::fs::write(dir.join("a.json"), "{ }").unwrap();
        seen.push(build_manifest(&def, &config));
        std::fs::rename(dir.join("a.json"), dir.join("b.json")).unwrap();
        seen.push(build_manifest(&def, &config));
        for (i, a) in seen.iter().enumerate() {
            for b in &seen[i + 1..] {
                assert_ne!((&a.golden_hash, &a.fingerprint), (&b.golden_hash, &b.fingerprint));
            }
        }
        std::fs::write(dir.join("notes.txt"), "not a golden").unwrap();
        assert_eq!(build_manifest(&def, &config), seen[3], "only *.json files are hashed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Where the store lives, how often it snapshots and whether it
    /// prints progress change no number, so they stay out of the
    /// manifest: a study may be resumed under other store settings.
    #[test]
    fn fingerprint_ignores_the_store_settings() {
        let def = tiny_def("knobs");
        let base = build_manifest(&def, &CheckpointConfig::default());
        let other = CheckpointConfig {
            root: PathBuf::from("elsewhere"),
            interval_items: 1,
            interval_seconds: 0.0,
            max_checkpoints: 9,
            golden_dir: None,
            stop_after_items: Some(3),
            progress: true,
        };
        assert_eq!(build_manifest(&def, &other), base);
    }

    #[test]
    fn stored_fingerprint_reads_the_written_manifest() {
        let root = std::env::temp_dir().join(format!("ckpt-store-fp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let path = root.join("fp").join("manifest.json");
        assert_eq!(stored_fingerprint(&path).unwrap(), None, "no manifest yet");
        let def = tiny_def("fp");
        let config = CheckpointConfig { root: root.clone(), ..CheckpointConfig::default() };
        run_study(&def, &config, false).expect("runs");
        let expect = build_manifest(&def, &config).fingerprint;
        assert_eq!(stored_fingerprint(&path).unwrap(), Some(expect));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Ids are dense, so a snapshot payload at an id past the item
    /// count belongs to no item: resume drops it instead of counting or
    /// folding it.
    #[test]
    fn resume_drops_snapshot_ids_past_the_item_count() {
        let root = std::env::temp_dir().join(format!("ckpt-store-extra-id-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let def = tiny_def("extra");
        let config = CheckpointConfig {
            root: root.clone(),
            interval_seconds: 1e9,
            ..CheckpointConfig::default()
        };
        let total = match run_study(&def, &config, false).expect("runs") {
            StudyOutcome::Complete(report) => report.items_total,
            StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
        };
        let dir = root.join("extra");
        let agg = dir.join("aggregate").join(format!("{}.json", def.cells[0].stem));
        let before = std::fs::read_to_string(&agg).unwrap();
        let (seq, newest) = list_checkpoints(&dir).pop().expect("final snapshot");
        let mut ckpt = parse_checkpoint(&std::fs::read_to_string(newest).unwrap()).unwrap();
        assert_eq!(ckpt.completed.len() as u64, total);
        ckpt.completed.insert(total, ItemPayload::LowerBound { makespans: vec![1.0f64.to_bits()] });
        let src = checkpoint_json(&ckpt.study, &ckpt.fingerprint, seq + 1, &ckpt.completed);
        std::fs::write(dir.join(ckpt_name(seq + 1)), src).unwrap();
        match run_study(&def, &config, true).expect("resumes") {
            StudyOutcome::Complete(report) => {
                assert_eq!(report.items_resumed, total, "the foreign id was counted");
                assert_eq!(report.items_executed, 0);
            }
            StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
        }
        assert_eq!(std::fs::read_to_string(&agg).unwrap(), before);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A cell whose distribution cannot be built keeps its identity row,
    /// so a change to it still moves the fingerprint, but adds no item.
    #[test]
    fn unbuildable_cell_keeps_its_row_and_adds_no_item() {
        let mut def = tiny_def("u");
        def.cells[0].scenario.dist = DistSpec::LanlLog { cluster: 99 };
        let m = build_manifest(&def, &CheckpointConfig::default());
        assert_eq!(m.items, 0);
        assert_eq!(m.cells.len(), 1);
        assert!(m.cells[0].contains("unbuildable:"), "{}", m.cells[0]);
        def.cells[0].scenario.traces += 1;
        assert_ne!(build_manifest(&def, &CheckpointConfig::default()).fingerprint, m.fingerprint);
    }

    /// A study stopped before its first snapshot lists as running, with
    /// its count from the manifest and no checkpoint or aggregate.
    #[test]
    fn a_stopped_study_lists_as_running_with_its_count() {
        let root = std::env::temp_dir().join(format!("ckpt-store-running-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let def = tiny_def("half");
        let config = CheckpointConfig {
            root: root.clone(),
            interval_seconds: 1e9,
            stop_after_items: Some(1),
            ..CheckpointConfig::default()
        };
        assert!(matches!(run_study(&def, &config, false), Ok(StudyOutcome::Stopped { .. })));
        let total = build_manifest(&def, &config).items;
        let ls = list_studies(&root);
        assert_eq!(ls.len(), 1);
        assert_eq!(ls[0].status, format!("running 0/{total}"));
        assert_eq!((ls[0].items, ls[0].checkpoints, ls[0].aggregates), (total, 0, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn ls_sorts_study_directories_and_skips_plain_files() {
        let root = std::env::temp_dir().join(format!("ckpt-store-ls-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        assert!(list_studies(&root).is_empty(), "a missing root lists nothing");
        for id in ["b", "a"] {
            std::fs::create_dir_all(root.join(id)).unwrap();
        }
        std::fs::write(root.join("c"), "a file, not a study").unwrap();
        let ls = list_studies(&root);
        let ids: Vec<&str> = ls.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids, ["a", "b"]);
        for s in &ls {
            assert_eq!((s.status.as_str(), s.items, s.checkpoints, s.aggregates), ("unknown", 0, 0, 0));
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_reports_a_missing_purge_target() {
        let root = std::env::temp_dir().join(format!("ckpt-store-purge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("kept")).unwrap();
        let actions = gc_studies(&root, 3, Some("gone")).expect("gc");
        assert_eq!(actions, ["no study `gone` to purge"]);
        assert!(root.join("kept").is_dir(), "gc removed a study it was not asked to");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// While a study runs, only the newest `max_checkpoints` snapshots
    /// stay on disk, and the final one is among them.
    #[test]
    fn a_run_keeps_only_its_newest_snapshots() {
        let root = std::env::temp_dir().join(format!("ckpt-store-keep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut def = tiny_def("keep");
        def.cells[0].scenario.traces = 4 * TRACE_BLOCK;
        let config = CheckpointConfig {
            root: root.clone(),
            interval_items: 1,
            interval_seconds: 1e9,
            max_checkpoints: 2,
            ..CheckpointConfig::default()
        };
        let written = match run_study(&def, &config, false).expect("runs") {
            StudyOutcome::Complete(report) => report.checkpoints_written,
            StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
        };
        assert!(written > 2, "{written} snapshots");
        let seqs: Vec<u64> = list_checkpoints(&root.join("keep")).into_iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, [written - 2, written - 1]);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The goldens are part of the study's identity: a store begun
    /// before they changed is stale.
    #[test]
    fn a_changed_golden_set_makes_the_store_stale() {
        let root = std::env::temp_dir().join(format!("ckpt-store-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let golden = root.join("golden");
        std::fs::create_dir_all(&golden).unwrap();
        std::fs::write(golden.join("cell.json"), "{}").unwrap();
        let def = tiny_def("gold");
        let config = CheckpointConfig {
            root: root.join("store"),
            interval_seconds: 1e9,
            golden_dir: Some(golden.clone()),
            ..CheckpointConfig::default()
        };
        let stop = CheckpointConfig { stop_after_items: Some(1), ..config.clone() };
        assert!(matches!(run_study(&def, &stop, false), Ok(StudyOutcome::Stopped { .. })));
        std::fs::write(golden.join("cell.json"), "{\"moved\": 1}").unwrap();
        let err = run_study(&def, &config, true).expect_err("the goldens moved");
        assert!(err.to_string().contains("stale manifest"), "{err}");
        std::fs::write(golden.join("cell.json"), "{}").unwrap();
        assert!(matches!(run_study(&def, &config, true), Ok(StudyOutcome::Complete(_))));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The file a fresh run writes is the manifest the resume rebuilds,
    /// byte for byte.
    #[test]
    fn fresh_run_writes_the_manifest_it_fingerprints() {
        let root = std::env::temp_dir().join(format!("ckpt-store-written-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let def = tiny_def("written");
        let config = CheckpointConfig { root: root.clone(), ..CheckpointConfig::default() };
        run_study(&def, &config, false).expect("runs");
        let on_disk = std::fs::read_to_string(root.join("written").join("manifest.json")).unwrap();
        assert_eq!(on_disk, manifest_json(&build_manifest(&def, &config)));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A store whose `manifest.json` is gone (a kill before the fresh
    /// run wrote it) gets the rebuilt manifest on resume: the same bytes
    /// a fresh run writes, so `study ls` counts its items again.
    #[test]
    fn resume_writes_a_missing_manifest() {
        let root = std::env::temp_dir().join(format!("ckpt-store-nomanifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut def = tiny_def("nomanifest");
        // Three trace blocks: more than one wave, so a snapshot lands
        // before the stop.
        def.cells[0].scenario.traces = 3 * crate::plan::TRACE_BLOCK;
        let config = CheckpointConfig {
            root: root.clone(),
            interval_items: 1,
            ..CheckpointConfig::default()
        };
        let stop = CheckpointConfig {
            stop_after_items: Some(crate::exec::CHUNK_ITEMS as u64 + 1),
            ..config.clone()
        };
        assert!(matches!(run_study(&def, &stop, false), Ok(StudyOutcome::Stopped { .. })));
        let path = root.join("nomanifest").join("manifest.json");
        std::fs::remove_file(&path).unwrap();
        assert!(!list_checkpoints(&root.join("nomanifest")).is_empty(), "a snapshot to check");
        assert_eq!(list_studies(&root)[0].items, 0, "no manifest, no count");
        let report = match run_study(&def, &config, true).expect("resumes") {
            StudyOutcome::Complete(report) => report,
            StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
        };
        assert!(report.items_resumed > 0, "the resume replays the snapshot");
        let manifest = build_manifest(&def, &config);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), manifest_json(&manifest));
        let ls = list_studies(&root);
        assert_eq!((ls[0].items, report.items_total), (manifest.items, manifest.items));
        assert_eq!(ls[0].status, format!("done {0}/{0}", manifest.items));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A store killed before its first snapshot holds no payload: the
    /// resume runs every item and commits what a clean run commits.
    #[test]
    fn resume_without_a_snapshot_runs_every_item() {
        let root = std::env::temp_dir().join(format!("ckpt-store-nosnap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let def = tiny_def("nosnap");
        let config = CheckpointConfig {
            root: root.clone(),
            interval_seconds: 1e9,
            ..CheckpointConfig::default()
        };
        let stop = CheckpointConfig { stop_after_items: Some(1), ..config.clone() };
        assert!(matches!(run_study(&def, &stop, false), Ok(StudyOutcome::Stopped { .. })));
        assert!(list_checkpoints(&root.join("nosnap")).is_empty(), "stopped before any snapshot");
        let report = match run_study(&def, &config, true).expect("resumes") {
            StudyOutcome::Complete(report) => report,
            StudyOutcome::Stopped { .. } => panic!("no stop hook configured"),
        };
        assert_eq!((report.items_resumed, report.items_executed), (0, report.items_total));
        let clean = run_in_memory(&def);
        let agg = root.join("nosnap/aggregate").join(format!("{}.json", def.cells[0].stem));
        let expect = crate::golden::golden_json(clean[0].as_ref().expect("the cell runs"));
        assert_eq!(std::fs::read_to_string(agg).unwrap(), expect);
        let _ = std::fs::remove_dir_all(&root);
    }
}
