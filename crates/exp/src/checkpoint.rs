//! Durable, resumable study execution: the whole-study form of the one
//! engine, with a checkpoint store attached.
//!
//! [`run_study`] drains the same [`WorkItem`]s, through the same item
//! body and drain ([`crate::exec`]), and folds them with the same fold
//! ([`crate::reduce::commit`]) as an in-memory
//! [`execute`](crate::exec::execute). What the store adds:
//!
//! * a **manifest** — the full study decomposed into typed
//!   [`WorkItem`]s (cell × policy × trace-block, plus lower-bound,
//!   candidate and refine items), persisted once per study with a
//!   content **fingerprint** over everything the numbers depend on
//!   (scenario labels, [`DistId`](ckpt_policies::DistId)s, rosters,
//!   runner options, the SIMD lane width, the committed golden hash).
//!   A resume whose rebuilt fingerprint differs is *rejected*, never
//!   silently reused;
//! * a **checkpoint store** — versioned JSON snapshots under
//!   `<root>/<id>/ckpt-NNNNNN.json`, each holding every completed
//!   item's payload (floats as exact `u64` bit patterns). Written every
//!   `interval_items` completed items *or* `interval_seconds` seconds —
//!   the latter read through the crate's one telemetry clock,
//!   [`crate::perf::clock_seconds`] — keeping the newest `max_checkpoints`; the
//!   final snapshot always outlives completion. Snapshots are
//!   full-state, so "move in-progress items back to pending" is
//!   implicit: pending = manifest − snapshot. A snapshot whose payloads
//!   do not fit their manifest items is skipped like a corrupt one;
//! * **waves cut for the store**: besides the cut at each refine item,
//!   a wave ends every [`CHUNK_ITEMS`] items, so a checkpoint, a kill
//!   or a progress line can land between any two chunks.
//!
//! A cell whose distribution cannot be built gets no work items: it
//! commits to the typed build error ([`Error::Cell`]), exactly as
//! [`Study::run_all`](crate::study::Study::run_all) reports it.
//!
//! The fold restores every per-trace float from its exact bit pattern
//! in item-ID order — regardless of the order items completed in,
//! before or after any number of kills — so a SIGKILL'd-and-resumed
//! study writes aggregates byte-identical to an uninterrupted run and
//! to `run_scenario`, at any worker count (`tests/study_resume.rs` and
//! `tests/entry_points.rs` pin this).
//!
//! Nothing in this module ever stores a wall-clock timestamp: the clock
//! gates *when* a snapshot is written, never *what* is written.

use crate::error::Error;
use crate::exec::CellCtx;
use crate::perf::{clock_seconds, PipelinePerf};
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

/// Items per executor chunk of the run loop. Chunks execute strictly in
/// item-id order; a checkpoint can be cut after any chunk.
const CHUNK_ITEMS: usize = 8;

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
    /// Check that this payload has the shape its manifest item promises:
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

/// One cell's identity row in the manifest — everything its numbers
/// depend on, rendered to stable strings for fingerprinting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestCell {
    /// Scenario label (the seed root).
    pub label: String,
    /// Aggregate file stem.
    pub stem: String,
    /// Processor count.
    pub procs: u64,
    /// Trace count.
    pub traces: usize,
    /// Distribution identity: `fp:…` fingerprint when the distribution
    /// is fingerprintable, else the spec label (process-local instance
    /// ids must never be persisted).
    pub dist_id: String,
    /// Roster, as `Debug` strings (config fields included).
    pub roster: Vec<String>,
    /// Runner options, as a `Debug` string (grid floats included).
    pub options: String,
    /// Candidate grid length after dedup.
    pub grid_len: usize,
    /// Coarse-wave grid indices.
    pub coarse: Vec<usize>,
    /// Refine stride; `0` ⇒ no refine wave.
    pub refine_step: usize,
    /// Whether lower-bound items exist.
    pub lower_bound: bool,
}

/// The persisted decomposition of a study, with its content fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyManifest {
    /// Format version ([`STORE_VERSION`]).
    pub version: u64,
    /// Study id.
    pub study: String,
    /// FNV-1a 64 over the manifest serialised with this field empty,
    /// as 16 hex digits.
    pub fingerprint: String,
    /// SIMD lane width the kernels were compiled for.
    pub lanes: usize,
    /// Traces per work item ([`TRACE_BLOCK`]).
    pub trace_block: usize,
    /// FNV-1a 64 over the committed golden files (16 hex digits;
    /// all-zero when no golden directory was configured).
    pub golden_hash: String,
    /// Per-cell identity rows.
    pub cells: Vec<ManifestCell>,
    /// Every work item, in execution (id) order.
    pub items: Vec<WorkItem>,
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

/// FNV-1a 64 (no dependencies, stable across platforms).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    let mut bytes = Vec::new();
    for p in names {
        if let Some(name) = p.file_name() {
            bytes.extend_from_slice(name.to_string_lossy().as_bytes());
        }
        bytes.push(0);
        if let Ok(content) = std::fs::read(&p) {
            bytes.extend_from_slice(&content);
        }
        bytes.push(0);
    }
    fnv1a(&bytes)
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

/// One cell as the manifest decomposed it: its plan and its
/// distribution, built once.
type CellPlan = (SimPlan, Result<BuiltDist, Error>);

/// Decompose a study into its manifest and each cell's plan and built
/// distribution. A cell whose distribution cannot be built keeps its
/// identity row but gets no work items.
fn decompose(def: &StudyDef, config: &CheckpointConfig) -> (StudyManifest, Vec<CellPlan>) {
    let mut cells = Vec::with_capacity(def.cells.len());
    let mut plans = Vec::with_capacity(def.cells.len());
    let mut items: Vec<WorkItem> = Vec::new();
    for (c, cell) in def.cells.iter().enumerate() {
        let sim_plan = plan_scenario(&cell.scenario, &cell.kinds, &cell.options);
        let built = cell.scenario.dist.try_build();
        if built.is_ok() {
            items.extend(sim_plan.items(c, items.len() as u64));
        }
        cells.push(ManifestCell {
            label: cell.scenario.label.clone(),
            stem: cell.stem.clone(),
            procs: cell.scenario.procs,
            traces: sim_plan.traces,
            dist_id: dist_identity(&cell.scenario, &built),
            roster: cell.kinds.iter().map(|k| format!("{k:?}")).collect(),
            options: format!("{:?}", cell.options),
            grid_len: sim_plan.grid.len(),
            coarse: sim_plan.coarse.clone(),
            refine_step: sim_plan.refine_step.unwrap_or(0),
            lower_bound: sim_plan.lower_bound,
        });
        plans.push((sim_plan, built));
    }
    let mut manifest = StudyManifest {
        version: STORE_VERSION,
        study: def.id.clone(),
        fingerprint: String::new(),
        lanes: ckpt_math::simd::LANES,
        trace_block: TRACE_BLOCK,
        golden_hash: format!("{:016x}", golden_hash(config.golden_dir.as_deref())),
        cells,
        items,
    };
    manifest.fingerprint = format!("{:016x}", fnv1a(manifest_json(&manifest).as_bytes()));
    (manifest, plans)
}

/// Decompose a study into its manifest (typed items + fingerprint).
pub fn build_manifest(def: &StudyDef, config: &CheckpointConfig) -> StudyManifest {
    decompose(def, config).0
}

// ---------------------------------------------------------------------
// JSON emission (read back by `jsonio`)
// ---------------------------------------------------------------------

fn json_str(s: &str) -> String {
    format!("\"{}\"", serde_json::escape_str(s))
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

fn item_json(it: &WorkItem) -> String {
    let (kind, index) = match it.kind {
        ItemKind::Policy { policy } => ("policy", policy as i64),
        ItemKind::LowerBound => ("lower_bound", -1),
        ItemKind::Coarse { candidate } => ("coarse", candidate as i64),
        ItemKind::Refine => ("refine", -1),
    };
    format!(
        "{{\"id\": {}, \"cell\": {}, \"kind\": \"{kind}\", \"index\": {index}, \
         \"trace_lo\": {}, \"trace_hi\": {}}}",
        it.id, it.cell, it.trace_lo, it.trace_hi
    )
}

/// Serialise a manifest. With `fingerprint` emptied this is also the
/// fingerprint's hash input, so the serialisation *is* the identity.
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
    for (i, c) in m.cells.iter().enumerate() {
        let roster: Vec<String> = c.roster.iter().map(|r| json_str(r)).collect();
        let coarse: Vec<String> = c.coarse.iter().map(usize::to_string).collect();
        s.push_str(&format!(
            "    {{\"label\": {}, \"stem\": {}, \"procs\": {}, \"traces\": {}, \
             \"dist_id\": {}, \"roster\": [{}], \"options\": {}, \"grid_len\": {}, \
             \"coarse\": [{}], \"refine_step\": {}, \"lower_bound\": {}}}",
            json_str(&c.label),
            json_str(&c.stem),
            c.procs,
            c.traces,
            json_str(&c.dist_id),
            roster.join(", "),
            json_str(&c.options),
            c.grid_len,
            coarse.join(", "),
            c.refine_step,
            c.lower_bound,
        ));
        s.push_str(if i + 1 < m.cells.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"items\": [\n");
    for (i, it) in m.items.iter().enumerate() {
        s.push_str("    ");
        s.push_str(&item_json(it));
        s.push_str(if i + 1 < m.items.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
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

fn parse_item(v: &Json) -> Result<WorkItem, Error> {
    let kind = match get_str(v, "kind")?.as_str() {
        "policy" => ItemKind::Policy { policy: get_usize(v, "index")? },
        "lower_bound" => ItemKind::LowerBound,
        "coarse" => ItemKind::Coarse { candidate: get_usize(v, "index")? },
        "refine" => ItemKind::Refine,
        other => return Err(bad(format!("unknown item kind `{other}`"))),
    };
    Ok(WorkItem {
        id: get_u64(v, "id")?,
        cell: get_usize(v, "cell")?,
        kind,
        trace_lo: get_usize(v, "trace_lo")?,
        trace_hi: get_usize(v, "trace_hi")?,
    })
}

/// Parse a manifest document back to its typed form.
///
/// # Errors
/// [`Error::Checkpoint`] on malformed JSON or missing fields.
pub fn parse_manifest(src: &str) -> Result<StudyManifest, Error> {
    let v = jsonio::parse(src).map_err(|e| bad(format!("manifest: {e}")))?;
    Ok(StudyManifest {
        version: get_u64(&v, "version")?,
        study: get_str(&v, "study")?,
        fingerprint: get_str(&v, "fingerprint")?,
        lanes: get_usize(&v, "lanes")?,
        trace_block: get_usize(&v, "trace_block")?,
        golden_hash: get_str(&v, "golden_hash")?,
        cells: get_arr(&v, "cells")?
            .iter()
            .map(|c| {
                Ok(ManifestCell {
                    label: get_str(c, "label")?,
                    stem: get_str(c, "stem")?,
                    procs: get_u64(c, "procs")?,
                    traces: get_usize(c, "traces")?,
                    dist_id: get_str(c, "dist_id")?,
                    roster: get_arr(c, "roster")?
                        .iter()
                        .map(|r| {
                            r.as_str().map(str::to_string).ok_or_else(|| bad("bad roster"))
                        })
                        .collect::<Result<_, _>>()?,
                    options: get_str(c, "options")?,
                    grid_len: get_usize(c, "grid_len")?,
                    coarse: get_arr(c, "coarse")?
                        .iter()
                        .map(|x| {
                            x.as_u64()
                                .and_then(|u| usize::try_from(u).ok())
                                .ok_or_else(|| bad("bad coarse index"))
                        })
                        .collect::<Result<_, _>>()?,
                    refine_step: get_usize(c, "refine_step")?,
                    lower_bound: get_bool(c, "lower_bound")?,
                })
            })
            .collect::<Result<_, Error>>()?,
        items: get_arr(&v, "items")?.iter().map(parse_item).collect::<Result<_, _>>()?,
    })
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

/// Group pending items into execution chunks: consecutive runs of up to
/// [`CHUNK_ITEMS`] independent items, with every `Refine` item alone in
/// its chunk (the chunk boundary is the barrier that guarantees its
/// cell's coarse items are merged before it runs).
fn chunk_pending(pending: &[WorkItem]) -> Vec<Vec<WorkItem>> {
    let mut chunks: Vec<Vec<WorkItem>> = Vec::new();
    let mut current: Vec<WorkItem> = Vec::new();
    for &item in pending {
        if matches!(item.kind, ItemKind::Refine) {
            if !current.is_empty() {
                chunks.push(std::mem::take(&mut current));
            }
            chunks.push(vec![item]);
            continue;
        }
        current.push(item);
        if current.len() >= CHUNK_ITEMS {
            chunks.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

/// Load the newest usable snapshot of `dir`. Corrupt, version-skewed
/// or shape-damaged files (a payload that does not fit its manifest
/// item) are skipped and counted as rejected, falling back to the
/// previous snapshot; a *fingerprint* mismatch is a hard error — the
/// store describes different numbers than `manifest` and must not be
/// silently reused.
fn load_latest(dir: &Path, manifest: &StudyManifest) -> Result<Option<CheckpointFile>, Error> {
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
        if payloads_fit(&ckpt.completed, manifest).is_err() {
            continue;
        }
        return Ok(Some(ckpt));
    }
    Ok(None)
}

/// Every payload of a snapshot against its manifest item (ids the
/// manifest does not know are dropped by the caller, never folded).
fn payloads_fit(
    completed: &BTreeMap<u64, ItemPayload>,
    manifest: &StudyManifest,
) -> Result<(), Error> {
    for (&id, payload) in completed {
        // Manifest ids are dense: item `id` sits at index `id`.
        let item = usize::try_from(id).ok().and_then(|i| manifest.items.get(i));
        let Some(item) = item.filter(|i| i.id == id) else { continue };
        let cell = manifest.cells.get(item.cell).ok_or_else(|| bad("item cell out of range"))?;
        payload.check_fits(item, cell.traces, cell.grid_len)?;
    }
    Ok(())
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
/// the returned report, mirroring [`Study::run_all`](crate::study::Study::run_all).
pub fn run_study(
    def: &StudyDef,
    config: &CheckpointConfig,
    resume: bool,
) -> Result<StudyOutcome, Error> {
    let (manifest, plans) = decompose(def, config);
    let dir = study_dir(config, &def.id);
    let mut completed: BTreeMap<u64, ItemPayload> = BTreeMap::new();
    let mut next_seq: u64 = 0;

    if resume {
        if !dir.is_dir() {
            return Err(bad(format!("no study `{}` under {}", def.id, config.root.display())));
        }
        if let Ok(src) = std::fs::read_to_string(dir.join("manifest.json")) {
            let on_disk = parse_manifest(&src)?;
            if on_disk.fingerprint != manifest.fingerprint {
                    return Err(bad(format!(
                    "stale manifest for study `{}`: on-disk fingerprint {} does not \
                     match the rebuilt fingerprint {} — the store describes a \
                     different study; refusing to resume",
                    def.id, on_disk.fingerprint, manifest.fingerprint
                )));
            }
        }
        if let Some(ckpt) = load_latest(&dir, &manifest)? {
            next_seq = ckpt.seq + 1;
            completed = ckpt.completed;
        }
        // Payloads for items the manifest does not know are dropped
        // rather than trusted (defensive; fingerprint equality already
        // implies the same item set).
        let known: std::collections::BTreeSet<u64> =
            manifest.items.iter().map(|i| i.id).collect();
        completed.retain(|id, _| known.contains(id));
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

    let items_total = manifest.items.len() as u64;
    let items_resumed = completed.len() as u64;

    let mut cell_items: Vec<Vec<WorkItem>> = vec![Vec::new(); def.cells.len()];
    for item in &manifest.items {
        cell_items[item.cell].push(*item);
    }
    let mut cells: Vec<CellCtx> = def
        .cells
        .iter()
        .zip(&plans)
        .zip(&cell_items)
        .map(|((cell, (plan, built)), items)| {
            CellCtx::new(&cell.scenario, plan, built.as_ref().ok(), items)
        })
        .collect();
    let pending: Vec<WorkItem> = manifest
        .items
        .iter()
        .filter(|i| !completed.contains_key(&i.id))
        .copied()
        .collect();

    let mut executed: u64 = 0;
    let mut checkpoints_written: u64 = 0;
    let mut since_ckpt: u64 = 0;
    let mut last_ckpt = clock_seconds();
    write_status(&dir, &format!("running {}/{items_total}", completed.len()))?;
    let mut progress = crate::progress::StudyProgress::new(
        &def.id,
        &manifest.items,
        |id| completed.contains_key(&id),
        config.progress,
    );
    progress.write(&dir)?;

    // Scheduling counters only: each cell's result carries the perf its
    // commit folds.
    let mut drain_perf = PipelinePerf::default();
    for chunk in chunk_pending(&pending) {
        progress.begin_chunk(&chunk);
        progress.console_tick(false);
        let _ = progress.write(&dir);
        crate::exec::drain(&mut cells, &chunk, &mut completed, &mut drain_perf);
        executed += chunk.len() as u64;
        since_ckpt += chunk.len() as u64;
        progress.finish_chunk(&chunk);

        if let Some(stop) = config.stop_after_items {
            if executed >= stop {
                // Emulated kill between snapshots: leave the store
                // exactly as the last checkpoint wrote it.
                return Ok(StudyOutcome::Stopped {
                    completed: completed.len() as u64,
                    total: items_total,
                });
            }
        }
        let due_items = since_ckpt >= config.interval_items.max(1);
        let due_time = clock_seconds() - last_ckpt >= config.interval_seconds;
        if due_items || due_time {
            write_atomic(
                &dir.join(ckpt_name(next_seq)),
                &checkpoint_json(&def.id, &manifest.fingerprint, next_seq, &completed),
            )?;
            next_seq += 1;
            checkpoints_written += 1;
            since_ckpt = 0;
            last_ckpt = clock_seconds();
            prune_checkpoints(&dir, config.max_checkpoints);
            write_status(&dir, &format!("running {}/{items_total}", completed.len()))?;
            // The checkpoint writer committed: refresh the progress
            // snapshot next to it.
            progress.write(&dir)?;
        }
    }

    // Completion: final snapshot first (a crash between here and the
    // aggregates resumes into an all-complete study and just re-commits),
    // then the deterministic commit of every cell in definition order.
    {
        write_atomic(
            &dir.join(ckpt_name(next_seq)),
            &checkpoint_json(&def.id, &manifest.fingerprint, next_seq, &completed),
        )?;
        checkpoints_written += 1;
        prune_checkpoints(&dir, config.max_checkpoints);
        progress.write(&dir)?;
        progress.console_tick(true);
    }

    let agg_dir = dir.join("aggregate");
    std::fs::create_dir_all(&agg_dir)
        .map_err(|e| bad(format!("create {}: {e}", agg_dir.display())))?;
    let mut results = Vec::with_capacity(def.cells.len());
    for ((cell, (plan, built)), items) in def.cells.iter().zip(&plans).zip(&cell_items) {
        let result = match built {
            Ok(_) => crate::reduce::commit(&cell.scenario, plan, items, &completed),
            Err(e) => Err(Error::for_cell(&cell.scenario.label, e.clone())),
        };
        if let Ok(r) = &result {
            write_atomic(&agg_dir.join(format!("{}.json", cell.stem)), &crate::golden::golden_json(r))?;
        }
        results.push((cell.stem.clone(), result));
    }

    write_status(&dir, &format!("done {items_total}/{items_total}"))?;

    Ok(StudyOutcome::Complete(StudyReport {
        id: def.id.clone(),
        results,
        items_total,
        items_resumed,
        items_executed: executed,
        checkpoints_written,
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
    /// by a kill inside [`write_atomic`] is not an aggregate).
    pub aggregates: usize,
    /// Items in the manifest (0 when unreadable).
    pub items: usize,
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
                .and_then(|s| parse_manifest(&s).ok())
                .map_or(0, |m| m.items.len());
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
/// snapshots and delete the `*.tmp` files a kill inside [`write_atomic`]
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
    use crate::runner::PeriodSearch;
    use crate::scenario::DistSpec;
    use ckpt_sim::SimOptions;

    fn tiny_def(id: &str) -> StudyDef {
        let mut s =
            Scenario::single_processor(DistSpec::Exponential { mtbf: 6.0 * 3_600.0 }, 4);
        s.total_work = 12.0 * 3_600.0;
        let options = RunnerOptions {
            lower_bound: true,
            period_lb: Some(vec![0.5, 1.0, 2.0]),
            period_search: PeriodSearch::Full,
            sim: SimOptions::default(),
        };
        StudyDef::new(id, [(s, vec![PolicyKind::Young, PolicyKind::OptExp], options)])
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Reference values of FNV-1a 64.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
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
        assert_eq!(a.items.len(), 2 * 2 + 2 + 3 * 2);
        assert!(a.items.iter().all(|i| !matches!(i.kind, ItemKind::Refine)));
        assert_eq!(a.trace_block, TRACE_BLOCK);
        assert_eq!(a.lanes, ckpt_math::simd::LANES);
        // Ids are dense and ordered.
        for (k, item) in a.items.iter().enumerate() {
            assert_eq!(item.id, k as u64);
        }
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
    fn manifest_round_trips_through_json() {
        let def = tiny_def("rt");
        let m = build_manifest(&def, &CheckpointConfig::default());
        let parsed = parse_manifest(&manifest_json(&m)).expect("parses");
        assert_eq!(parsed, m);
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
    fn chunks_isolate_refine_items() {
        let mk = |id, kind| WorkItem { id, cell: 0, kind, trace_lo: 0, trace_hi: 1 };
        let items: Vec<WorkItem> = (0..20)
            .map(|i| {
                if i == 9 || i == 19 {
                    mk(i, ItemKind::Refine)
                } else {
                    mk(i, ItemKind::Coarse { candidate: i as usize })
                }
            })
            .collect();
        let chunks = chunk_pending(&items);
        let mut seen = 0u64;
        for chunk in &chunks {
            assert!(chunk.len() <= CHUNK_ITEMS);
            if chunk.iter().any(|i| matches!(i.kind, ItemKind::Refine)) {
                assert_eq!(chunk.len(), 1, "refine items run alone");
            }
            for item in chunk {
                assert_eq!(item.id, seen, "chunks preserve id order");
                seen += 1;
            }
        }
        assert_eq!(seen, 20);
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
}
