//! `DPMakespan` — Algorithm 1: quantised dynamic programming for the
//! `Makespan` problem under arbitrary failure distributions.
//!
//! With a time quantum `u` and `x` remaining work quanta, the expected
//! optimal makespan from processor age `τ` satisfies (Proposition 1):
//!
//! ```text
//! V(x, τ) = min_{1 ≤ i ≤ x} [ Psuc(iu+C|τ)·(iu + C + V(x−i, τ+iu+C))
//!            + (1 − Psuc(iu+C|τ))·(E[Tlost(iu+C|τ)] + E[Trec] + V(x, R)) ]
//! ```
//!
//! The failure branch re-enters the *post-failure state* `(x, R)` — at that
//! state the equation is self-referential. Each candidate chunk `i` there
//! gives an affine one-step equation `V = aᵢ + bᵢ·V` with `bᵢ = 1 − Psucᵢ ∈
//! (0,1)`, whose optimal fixed point is `V = minᵢ aᵢ/(1 − bᵢ)` (the
//! standard single-self-loop MDP solution).
//!
//! Every other state quantises `τ` to an age key `k = round(τ/u)` and is
//! evaluated at the key's age `k·u`. A state at `x` reads states at
//! smaller `x` and the backbone at `x`, so the table fills bottom-up in
//! levels of `x`: the backbone `V(x, R)` first, then the level's state
//! of every row that needs one. One row per key holds the
//! `Psuc`/`E[Tlost] + E[Trec]`/successor ladders (which depend on the
//! chunk `i` but never on `x`) and the chunks of its filled prefix of
//! states. Values live on diagonals of constant `k + x`: a successful
//! chunk of `i` quanta from key `k` lands on key `k + i + round(C/u)`,
//! so the `x − 1` successor values of a state are one contiguous run of
//! one diagonal, and the Bellman minimum streams arrays only. Rows whose
//! rounding or an exact recovery age breaks that pattern gather their
//! successors by index instead.
//!
//! `E[Trec]` comes from Proposition 1:
//! `E[Trec] = D + R + (1−Psuc(R|0))/Psuc(R|0) · (D + E[Tlost(R|0)])`.
//!
//! For **parallel** jobs the paper notes the exact extension is
//! exponential in `p`; `DPMakespan` is then run on the *rejuvenated
//! platform* distribution (the "false assumption that all processors are
//! rejuvenated after each failure", §4.1) — pass `weibull.min_of(p)` or the
//! `pλ` Exponential as `dist`.

use crate::{clamp_chunk, AgeView, Policy, PolicySession};
use ckpt_dist::{AgeKernel, FailureDistribution, KernelTable};
use ckpt_workload::JobSpec;
use std::cmp::Ordering;
use std::sync::{Mutex, MutexGuard};

/// Tunables of the Makespan DP.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DpMakespanConfig {
    /// Number of quanta the job's work is divided into (`u = W / quanta`).
    /// `None` sizes the quantum from the distribution's mean so the
    /// expected optimal chunk `√(2CM)` spans several quanta — see
    /// [`auto_makespan_quanta`].
    pub quanta: Option<usize>,
}

/// Auto-sized quantum count for the Makespan DP: `≈ 6·W/√(2CM)` (six
/// quanta per expected optimal chunk), clamped to `[100, 4000]` for
/// memoryless distributions (whose age dimension collapses, keeping the
/// table linear in the count) and `[100, 1200]` otherwise (the general
/// table is quadratic in the count). Near the flat optimum even 1–2
/// quanta per chunk costs little; what must never happen is a quantum
/// several times the MTBF.
pub fn auto_makespan_quanta(work: f64, checkpoint: f64, mean: f64, memoryless: bool) -> usize {
    let chunk_est = (2.0 * checkpoint.max(1.0) * mean).sqrt();
    let q = (6.0 * work / chunk_est).ceil() as usize; // once per policy build
    if memoryless {
        q.clamp(100, 4000)
    } else {
        q.clamp(100, 1200)
    }
}

/// The `DPMakespan` policy.
pub struct DpMakespan {
    dist: Box<dyn FailureDistribution>,
    spec: JobSpec,
    config: DpMakespanConfig,
    /// [`FailureDistribution::is_memoryless`] of `dist`: the age
    /// dimension collapses (`Psuc` and `E[Tlost]` ignore `τ`).
    memoryless: bool,
    u: f64,
    e_rec: f64,
    /// Tabulated log-survival / survival-integral kernels (`ckpt-dist`):
    /// `Psuc` and `E[Tlost]` in the DP's inner loops are table lookups
    /// with exact off-grid fallback instead of per-point `powf` calls.
    kernel: KernelTable,
    /// `i·u + C`, the length of an attempt of `i` quanta (slot 0 unused).
    attempts: Vec<f64>,
    /// Post-failure backbone `V(x, R)` and its chunk choice, indexed by x.
    backbone: Column,
    /// Memoryless fast path: with the age dimension collapsed, `V` depends
    /// on `x` alone, so the whole table is one dense column filled
    /// bottom-up at construction — no mutex, no lookup per decision.
    flat: Column,
    /// General (age-dependent) states, one row per age key `τ/u rounded`;
    /// locked once per top-level query.
    table: Mutex<AgeTable>,
}

/// `V(x)` and its optimal chunk for `x = 0, 1, …` (slot 0: the empty
/// job, `(0, 0)`).
#[derive(Debug, Default)]
struct Column {
    vals: Vec<f64>,
    chunks: Vec<u32>,
}

impl Column {
    fn with_capacity(n: usize) -> Self {
        let mut col = Self { vals: Vec::with_capacity(n), chunks: Vec::with_capacity(n) };
        col.push((0.0, 0));
        col
    }

    fn push(&mut self, (v, chunk): (f64, u32)) {
        self.vals.push(v);
        self.chunks.push(chunk);
    }

    fn get(&self, x: usize) -> Option<(f64, u32)> {
        Some((*self.vals.get(x)?, self.chunks[x]))
    }
}

/// `next` entry of a successor that sits exactly at the post-recovery
/// age `R`: its value is the backbone's.
const BACKBONE: u32 = u32::MAX;

/// What a Bellman step from one age reads for a chunk of `i` quanta:
/// every vector is indexed by `i` (slot 0 unused) and holds exactly
/// `1 +` the largest `x` asked of the age so far.
#[derive(Debug, Default)]
struct Ladder {
    /// `Psuc(i·u + C | τ)`.
    psuc: Vec<f64>,
    /// `E[Tlost(i·u + C | τ)] + E[Trec]`: the failure branch's cost
    /// before it re-enters `(x, R)`.
    loss: Vec<f64>,
    /// Row of the age `τ + i·u + C` a successful chunk reaches, or
    /// [`BACKBONE`].
    next: Vec<u32>,
    /// `Some(b)` while `next[i]` is the row of key `b + i` for every
    /// `i`: the successors of the state at `x` then sit on diagonal
    /// `b + x`, one contiguous run.
    diagonal: Option<u64>,
}

impl Ladder {
    /// The largest `x` the ladder serves.
    fn reach(&self) -> usize {
        self.psuc.len().saturating_sub(1)
    }
}

/// The states at one age key `k`, all evaluated at the key's
/// representative age `k·u`.
#[derive(Debug, Default)]
struct AgeRow {
    key: u64,
    ladder: Ladder,
    /// Optimal chunk of each filled state `x = 1..=filled` (slot 0
    /// unused); the values sit on the diagonals `k + x`.
    chunks: Vec<u32>,
}

impl AgeRow {
    /// The filled prefix: states `1..=filled()` are evaluated.
    fn filled(&self) -> usize {
        self.chunks.len().saturating_sub(1)
    }
}

/// Age rows, found by key through `index` (`(key, row)` pairs sorted by
/// key); rows exist only for keys some query or ladder has reached.
/// Their values are stored by diagonal: slot `x − 1` of diagonal `d`
/// holds `V(x, (d − x)·u)`. A state's successors sit at larger keys and
/// smaller slots and fill first, so a diagonal grows at its back.
#[derive(Debug, Default)]
struct AgeTable {
    index: Vec<(u64, u32)>,
    rows: Vec<AgeRow>,
    /// `(d, diagonal)` pairs sorted by `d`.
    diagonal_index: Vec<(u128, u32)>,
    diagonals: Vec<Vec<f64>>,
}

impl AgeTable {
    fn row_of(&mut self, key: u64) -> u32 {
        match self.index.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(at) => self.index[at].1,
            Err(at) => {
                let row = self.rows.len() as u32;
                self.rows.push(AgeRow { key, ..AgeRow::default() });
                self.index.insert(at, (key, row));
                row
            }
        }
    }

    fn diagonal(&self, d: u128) -> &[f64] {
        match self.diagonal_index.binary_search_by_key(&d, |&(k, _)| k) {
            Ok(at) => &self.diagonals[self.diagonal_index[at].1 as usize],
            Err(_) => &[],
        }
    }

    /// Diagonal `d`, grown to hold the state at `x` (unevaluated slots
    /// hold NaN).
    fn diagonal_mut(&mut self, d: u128, x: usize) -> &mut Vec<f64> {
        let at = match self.diagonal_index.binary_search_by_key(&d, |&(k, _)| k) {
            Ok(at) => self.diagonal_index[at].1 as usize,
            Err(at) => {
                self.diagonal_index.insert(at, (d, self.diagonals.len() as u32));
                self.diagonals.push(Vec::new());
                self.diagonals.len() - 1
            }
        };
        let diag = &mut self.diagonals[at];
        if diag.len() < x {
            diag.reserve_exact(x - diag.len());
            diag.resize(x, f64::NAN);
        }
        diag
    }

    /// `V(x, k·u)` of a filled state of `row`.
    fn value(&self, row: u32, x: usize) -> f64 {
        self.diagonal(diagonal(self.rows[row as usize].key, x))[x - 1]
    }

    /// The successor values of the state at `x` from `ladder`, in
    /// descending `i` (`V(next[i], x − i)` at slot `x − 1 − i`): a run of
    /// a diagonal, or gathered into `scratch` for an irregular ladder.
    fn successors<'a>(
        &'a self,
        ladder: &Ladder,
        x: usize,
        backbone: &[f64],
        scratch: &'a mut Vec<f64>,
    ) -> &'a [f64] {
        match ladder.diagonal {
            Some(b) if x > 1 => &self.diagonal(diagonal(b, x))[..x - 1],
            _ => {
                // Rounding noise puts an irregular ladder's successors on
                // two diagonals or so: keep the last two found.
                let mut found: [(u128, &[f64]); 2] = [(u128::MAX, &[]); 2];
                scratch.clear();
                scratch.extend((1..x).map(|y| match ladder.next[x - y] {
                    BACKBONE => backbone[y],
                    next => {
                        let d = diagonal(self.rows[next as usize].key, y);
                        if found[0].0 != d {
                            if found[1].0 == d {
                                found.swap(0, 1);
                            } else {
                                found = [(d, self.diagonal(d)), found[0]];
                            }
                        }
                        found[0].1[y - 1]
                    }
                }));
                scratch
            }
        }
    }
}

/// The diagonal of the state at `x` from key `key`, wide enough that
/// the last key (every age past `u64::MAX` quanta) does not overflow it.
fn diagonal(key: u64, x: usize) -> u128 {
    u128::from(key) + x as u128
}

/// The Bellman minimum of every DP state: over chunks `i = 1..=x`
/// (`attempt`, `psuc` and `loss` hold `i = 1..=x`, `succ` the successor
/// values of `i = x − 1, …, 1`; the chunk `i = x` ends the job), of
/// `Psuc·(attempt + V_succ) + (1 − Psuc)·(loss + fail_v)`. With
/// `FIXED_POINT` (the backbone's self-loop) the term is instead
/// `(Psuc·(attempt + V_succ) + (1 − Psuc)·loss) / Psuc`, and chunks that
/// can never succeed are skipped. Returns `(V, i)`; `(∞, 1)` when no
/// term is below `+∞`.
fn bellman<const FIXED_POINT: bool>(
    attempt: &[f64],
    psuc: &[f64],
    loss: &[f64],
    succ: &[f64],
    fail_v: f64,
) -> (f64, u32) {
    /// Terms evaluated per block before its minimum is taken.
    const BLOCK: usize = 256;
    let m = succ.len();
    let term = |a: f64, p: f64, l: f64, s: f64| {
        if FIXED_POINT {
            let v = p * (a + s) + (1.0 - p) * l;
            if p <= 0.0 {
                f64::INFINITY
            } else {
                v / p // fixed point of V = v + (1−psuc)·V
            }
        } else {
            p * (a + s) + (1.0 - p) * (l + fail_v)
        }
    };
    let (mut best, mut at) = (f64::INFINITY, 1);
    let mut terms = [0.0f64; BLOCK];
    let blocks = attempt[..m]
        .chunks(BLOCK)
        .zip(psuc[..m].chunks(BLOCK))
        .zip(loss[..m].chunks(BLOCK).zip(succ.rchunks(BLOCK)));
    for (b, ((a, p), (l, s))) in blocks.enumerate() {
        let terms = &mut terms[..a.len()];
        let inputs = a.iter().zip(p).zip(l).zip(s.iter().rev());
        for (t, (((&a, &p), &l), &s)) in terms.iter_mut().zip(inputs) {
            *t = term(a, p, l, s);
        }
        // Strict `<`: an earlier block keeps a tie.
        let (v, k) = first_min(terms);
        if v < best {
            (best, at) = (v, (b * BLOCK) as u32 + k);
        }
    }
    let last = term(attempt[m], psuc[m], loss[m], 0.0);
    if last < best {
        (last, m as u32 + 1)
    } else {
        (best, at)
    }
}

/// The first minimum of `terms` under strict `<`, as `(value, k + 1)`
/// for the index `k` it sits at; `(∞, 1)` when no term is below `+∞`.
/// The value and index of the sequential `if t < best` scan, without
/// its serial dependency: four lanes find the smallest value (NaN never
/// wins), then the first term equal to it is the scan's pick, bits
/// included (`−0.0` ties `+0.0`, and the scan keeps the first).
fn first_min(terms: &[f64]) -> (f64, u32) {
    const LANES: usize = 4;
    let mut lanes = [f64::INFINITY; LANES];
    let four = terms.chunks_exact(LANES);
    let tail = four.remainder();
    for four in four {
        for (lane, &t) in lanes.iter_mut().zip(four) {
            if t < *lane {
                *lane = t;
            }
        }
    }
    let min = lanes.iter().chain(tail).fold(f64::INFINITY, |min, &t| if t < min { t } else { min });
    match terms.iter().position(|t| t.partial_cmp(&min) == Some(Ordering::Equal)) {
        Some(k) if min < f64::INFINITY => (terms[k], k as u32 + 1),
        _ => (f64::INFINITY, 1),
    }
}

impl std::fmt::Debug for DpMakespan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpMakespan")
            .field("spec", &self.spec)
            .field("config", &self.config)
            .field("u", &self.u)
            .field("e_rec", &self.e_rec)
            .finish_non_exhaustive()
    }
}

impl DpMakespan {
    /// Build for a job spec and the **platform-level** failure distribution
    /// (the per-processor distribution itself when `spec.procs == 1`).
    pub fn new(
        spec: &JobSpec,
        dist: Box<dyn FailureDistribution>,
        config: DpMakespanConfig,
    ) -> Self {
        let memoryless = dist.is_memoryless();
        let quanta = match config.quanta {
            Some(q) => {
                assert!(q >= 2);
                q
            }
            None => auto_makespan_quanta(spec.work, spec.checkpoint, dist.mean(), memoryless),
        };
        let config = DpMakespanConfig { quanta: Some(quanta) };
        let u = spec.work / quanta as f64;
        // Horizon the loss table must cover: full job + all checkpoints +
        // recovery, with margin. The grid must resolve the *smallest*
        // window the DP will query — one quantum, one checkpoint, or the
        // recovery duration, whichever is least.
        let horizon = spec.work + (quanta as f64 + 2.0) * spec.checkpoint + spec.recovery;
        let resolution = u
            .min(spec.recovery.max(1.0))
            .min(spec.checkpoint.max(1.0));
        let kernel = KernelTable::build(
            dist.clone_box(),
            horizon.max(spec.recovery * 4.0),
            resolution,
        );
        // E[Trec] via Proposition 1. For memoryless distributions the
        // trait's closed-form expected loss (Lemma 1) is exact; otherwise
        // the kernel's interpolation is accurate at `resolution` scale.
        let psuc_r = dist.psuc(spec.recovery, 0.0);
        let lost_r = if memoryless {
            dist.expected_loss(spec.recovery, 0.0)
        } else {
            kernel.expected_loss(spec.recovery, 0.0)
        };
        let e_rec = if psuc_r <= 0.0 {
            // Recovery can never succeed — pathological spec; make the
            // penalty enormous but finite so the DP stays well-defined.
            f64::MAX / 1e6
        } else {
            spec.downtime + spec.recovery + (1.0 - psuc_r) / psuc_r * (spec.downtime + lost_r)
        };
        let mut this = Self {
            dist,
            spec: *spec,
            config,
            memoryless,
            u,
            e_rec,
            kernel,
            attempts: (0..=quanta).map(|i| i as f64 * u + spec.checkpoint).collect(),
            backbone: Column::default(),
            flat: Column::default(),
            table: Mutex::new(AgeTable::default()),
        };
        this.compute_backbone();
        this
    }

    /// The work quantum `u`, seconds.
    pub fn quantum(&self) -> f64 {
        self.u
    }

    /// The quantum count in effect (after auto-selection).
    pub fn quanta(&self) -> usize {
        self.config.quanta.expect("resolved at construction")
    }

    /// `E[Trec]` (Proposition 1), seconds.
    pub fn expected_recovery(&self) -> f64 {
        self.e_rec
    }

    /// Post-failure backbone `V(·, R)`, the fixed point of each `x`
    /// ascending. Memoryless: the successors are the flat column, which
    /// fills in the same pass (its step at `x` reads `flat[< x]` and the
    /// backbone at `x`). Otherwise the backbone is the level step of the
    /// age table's first fill, whose rows are the successors it reads.
    fn compute_backbone(&mut self) {
        let n = self.quanta();
        let r = self.spec.recovery;
        let mut table = AgeTable::default();
        let mut ladder = Ladder::default();
        self.extend(&mut table, &mut ladder, r, n);
        let mut backbone = Column::with_capacity(n + 1);
        if self.memoryless {
            let mut flat = Column::with_capacity(n + 1);
            for x in 1..=n {
                let (att, psuc, loss) = (&self.attempts[1..], &ladder.psuc[1..], &ladder.loss[1..]);
                let succ = &flat.vals[1..x];
                let b = bellman::<true>(att, psuc, loss, succ, 0.0);
                backbone.push(b);
                flat.push(bellman::<false>(att, psuc, loss, succ, b.0));
            }
            self.flat = flat;
        } else {
            let roots: Vec<(u32, usize)> = (1..n)
                .filter(|&i| ladder.next[i] != BACKBONE)
                .map(|i| (ladder.next[i], n - i))
                .collect();
            self.fill(&mut table, &roots, Some((&ladder, &mut backbone)));
        }
        self.backbone = backbone;
        *self.table.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner) = table;
    }

    /// `Psuc(x|τ)` and `E[Tlost(x|τ)]` at the age of `age`: exact
    /// (typically closed-form) for memoryless distributions, the
    /// tabulated kernels otherwise.
    fn attempt_odds(&self, age: &AgeKernel<'_>, x: f64) -> (f64, f64) {
        if self.memoryless {
            (self.dist.psuc(x, 0.0), self.dist.expected_loss(x, 0.0))
        } else {
            (age.psuc(x), age.expected_loss(x))
        }
    }

    /// Memoised `V(x, τ)`; the failure branch uses the precomputed
    /// backbone, so every state reads only states at smaller `x`.
    pub fn value(&self, x: usize, tau: f64) -> f64 {
        self.state(x, tau).0
    }

    /// Optimal chunk (in quanta) at `(x, τ)`.
    pub fn chunk_quanta(&self, x: usize, tau: f64) -> u32 {
        self.state(x, tau).1
    }

    fn tau_key(&self, tau: f64) -> u64 {
        (tau / self.u).round() as u64 // one per decision or ladder entry, beside the entry's kernel `exp`s
    }

    /// Post-failure states hit the backbone exactly.
    fn at_recovery(&self, tau: f64) -> bool {
        (tau - self.spec.recovery).abs() < 1e-9
    }

    /// The age table, emptied if a panic poisoned it mid-fill: its rows
    /// are a cache of the backbone, and a fill cut short leaves planned
    /// states that no later fill would evaluate.
    fn lock(&self) -> MutexGuard<'_, AgeTable> {
        self.table.lock().unwrap_or_else(|poisoned| {
            let mut table = poisoned.into_inner();
            *table = AgeTable::default();
            self.table.clear_poison();
            table
        })
    }

    fn state(&self, x: usize, tau: f64) -> (f64, u32) {
        if x == 0 {
            return (0.0, 0);
        }
        // Memoryless: the dense bottom-up table answers directly.
        if let Some(s) = self.flat.get(x) {
            return s;
        }
        if self.at_recovery(tau) {
            return (self.backbone.vals[x], self.backbone.chunks[x]);
        }
        let mut table = self.lock();
        let row = table.row_of(self.tau_key(tau));
        if table.rows[row as usize].filled() < x {
            self.fill(&mut table, &[(row, x)], None);
        }
        (table.value(row, x), table.rows[row as usize].chunks[x])
    }

    /// Grow `ladder`, the ladder of age `tau`, to serve `x`. Each entry
    /// is a pure function of the age and `i`, so growing in steps builds
    /// the same bits as one full-length build.
    fn extend(&self, table: &mut AgeTable, ladder: &mut Ladder, tau: f64, x: usize) {
        let len = ladder.psuc.len();
        if len > x {
            return;
        }
        let extra = x + 1 - len;
        ladder.psuc.reserve_exact(extra);
        ladder.loss.reserve_exact(extra);
        ladder.next.reserve_exact(extra);
        if len == 0 {
            ladder.psuc.push(0.0);
            ladder.loss.push(0.0);
            ladder.next.push(BACKBONE);
        }
        let age = self.kernel.at_age(tau);
        for i in len.max(1)..=x {
            let attempt = self.attempts[i];
            let (next, key) = if self.memoryless || self.at_recovery(tau + attempt) {
                (BACKBONE, None)
            } else {
                let key = self.tau_key(tau + attempt);
                (table.row_of(key), Some(key))
            };
            let base = key.and_then(|k| k.checked_sub(i as u64));
            ladder.diagonal =
                if i == 1 { base } else { ladder.diagonal.filter(|&b| Some(b) == base) };
            let (psuc, lost) = self.attempt_odds(&age, attempt);
            ladder.psuc.push(psuc);
            ladder.loss.push(lost + self.e_rec);
            ladder.next.push(next);
        }
    }

    /// Raise `row` to serve `x`: its ladder and the diagonal slots of its
    /// new states, then every successor `next[i]` to `x − i`. A row raised
    /// past its filled prefix joins `work` once.
    fn plan(&self, table: &mut AgeTable, row: u32, x: usize, work: &mut Vec<u32>) {
        let r = &mut table.rows[row as usize];
        let reach = r.ladder.reach();
        if reach >= x {
            return;
        }
        if reach == r.filled() {
            work.push(row);
        }
        if r.chunks.is_empty() {
            r.chunks.push(0);
        }
        r.chunks.reserve_exact(x + 1 - r.chunks.len());
        let (key, mut ladder) = (r.key, std::mem::take(&mut r.ladder));
        // The key's *representative* age, not any incoming exact one:
        // every value in the row is then a pure function of `(x, key)`,
        // so concurrent sessions agree on it no matter which thread
        // fills it first.
        self.extend(table, &mut ladder, key as f64 * self.u, x);
        table.rows[row as usize].ladder = ladder;
        for y in reach + 1..=x {
            table.diagonal_mut(diagonal(key, y), y);
        }
        for i in 1..x {
            let next = table.rows[row as usize].ladder.next[i];
            if next != BACKBONE {
                self.plan(table, next, x - i, work);
            }
        }
    }

    /// Fill the states `roots` name (`(row, x)`) and every state they
    /// read, bottom-up: plan the rows first, then sweep the levels `x`
    /// ascending, evaluating each planned row's state at the level. A
    /// state reads only lower levels and the backbone at its own, so a
    /// level's states are independent. `build` is the backbone under
    /// construction (its ladder and column): its level step runs before
    /// the rows', for every level up to its ladder's reach. One routine
    /// for construction and for every later miss.
    fn fill(
        &self,
        table: &mut AgeTable,
        roots: &[(u32, usize)],
        mut build: Option<(&Ladder, &mut Column)>,
    ) {
        let mut work = Vec::new();
        for &(row, x) in roots {
            self.plan(table, row, x, &mut work);
        }
        let (mut lo, mut hi) = match &build {
            Some((ladder, _)) => (1, ladder.reach()),
            None => (usize::MAX, 0),
        };
        for &row in &work {
            let r = &table.rows[row as usize];
            lo = lo.min(r.filled() + 1);
            hi = hi.max(r.ladder.reach());
        }
        let att = &self.attempts[1..];
        let mut scratch = Vec::new();
        for x in lo..=hi {
            if let Some((ladder, backbone)) = build.as_mut() {
                let succ = table.successors(ladder, x, &backbone.vals, &mut scratch);
                let b = bellman::<true>(att, &ladder.psuc[1..], &ladder.loss[1..], succ, 0.0);
                backbone.push(b);
            }
            let backbone = build.as_ref().map_or(&self.backbone.vals, |(_, b)| &b.vals);
            let fail_v = backbone[x];
            for &row in &work {
                let r = &table.rows[row as usize];
                if r.filled() + 1 != x || r.ladder.reach() < x {
                    continue;
                }
                let succ = table.successors(&r.ladder, x, backbone, &mut scratch);
                let (v, chunk) =
                    bellman::<false>(att, &r.ladder.psuc[1..], &r.ladder.loss[1..], succ, fail_v);
                let key = r.key;
                table.rows[row as usize].chunks.push(chunk);
                table.diagonal_mut(diagonal(key, x), x)[x - 1] = v;
            }
        }
    }

    /// The policy function `f(ω|τ)`: chunk size in seconds.
    pub fn chunk_for(&self, remaining: f64, tau: f64) -> f64 {
        let x = ((remaining / self.u).round() as usize).clamp(1, self.quanta()); // once per decision
        let i = self.chunk_quanta(x, tau);
        (f64::from(i) * self.u).min(remaining)
    }
}

impl Policy for DpMakespan {
    fn name(&self) -> &str {
        "DPMakespan"
    }

    fn session(&self) -> Box<dyn PolicySession + '_> {
        Box::new(DpMsSession { policy: self })
    }
}

struct DpMsSession<'a> {
    policy: &'a DpMakespan,
}

impl PolicySession for DpMsSession<'_> {
    fn next_chunk(&mut self, remaining: f64, ages: &AgeView, _now: f64) -> f64 {
        // DPMakespan tracks a single (macro-)processor age: under the
        // rejuvenation assumption all processors share it; sequentially it
        // is the true age.
        let tau = ages.min_age();
        clamp_chunk(self.policy.chunk_for(remaining, tau), remaining)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the memoryless table ignores the age: the same entry, bit for bit")]
mod tests {
    use super::*;
    use ckpt_dist::{Exponential, Weibull};
    use std::collections::HashMap;
    use std::sync::PoisonError;

    const DAY: f64 = 86_400.0;
    const HOUR: f64 = 3_600.0;

    fn exp_dp(mtbf: f64, quanta: usize) -> (JobSpec, DpMakespan) {
        let spec = JobSpec::table1_single_processor();
        let dp = DpMakespan::new(
            &spec,
            Box::new(Exponential::from_mtbf(mtbf)),
            DpMakespanConfig { quanta: Some(quanta) },
        );
        (spec, dp)
    }

    #[test]
    fn expected_recovery_matches_lemma1_closed_form() {
        let (spec, dp) = exp_dp(HOUR, 20);
        let lambda = 1.0 / HOUR;
        let e_lost_r = 1.0 / lambda - spec.recovery / (lambda * spec.recovery).exp_m1();
        let expect = spec.downtime
            + spec.recovery
            + (lambda * spec.recovery).exp_m1() * (spec.downtime + e_lost_r);
        let rel = (dp.expected_recovery() - expect).abs() / expect;
        assert!(rel < 1e-3, "E[Trec] {} vs closed form {expect}", dp.expected_recovery());
    }

    #[test]
    fn exponential_dp_value_matches_theorem1() {
        // The DP's root value must approach Theorem 1's optimal expected
        // makespan as the quantum shrinks. The quantum must resolve the
        // optimal chunk (K* ≈ 177 at a 1-day MTBF → ~4 quanta per chunk
        // at 700 quanta).
        let mtbf = DAY;
        let (spec, dp) = exp_dp(mtbf, 700);
        let dp_value = dp.value(700, 0.0);
        let opt = crate::optexp::optimal_expected_makespan_sequential(&spec, 1.0 / mtbf);
        let rel = (dp_value - opt).abs() / opt;
        assert!(rel < 0.03, "DP {dp_value} vs Theorem-1 {opt} (rel {rel})");
        // And the DP can never beat the true optimum by more than
        // quantisation noise.
        assert!(dp_value > 0.95 * opt);
    }

    #[test]
    fn exponential_dp_chunk_matches_optexp_period() {
        let mtbf = DAY;
        let (spec, dp) = exp_dp(mtbf, 700);
        let chunk = dp.chunk_for(spec.work, 0.0);
        let period = crate::OptExp::new(&spec, 1.0 / mtbf).period();
        let rel = (chunk - period).abs() / period;
        assert!(rel < 0.15, "DP chunk {chunk} vs OptExp {period}");
    }

    #[test]
    fn backbone_is_monotone_in_work() {
        let (_, dp) = exp_dp(HOUR, 60);
        for x in 1..60 {
            assert!(
                dp.backbone.vals[x] < dp.backbone.vals[x + 1],
                "V({x}, R) ≥ V({}, R)",
                x + 1
            );
        }
    }

    #[test]
    fn memoryless_flat_table_is_self_consistent() {
        // Under memorylessness the post-failure state and the fresh state
        // coincide, so the dense table must agree with the backbone's
        // per-chunk fixed points at every x.
        let (_, dp) = exp_dp(HOUR, 80);
        assert_eq!(dp.flat.vals.len(), 81);
        for x in 1..=80 {
            let (v, i) = (dp.flat.vals[x], dp.flat.chunks[x]);
            let b = dp.backbone.vals[x];
            assert!(
                (v - b).abs() <= 1e-9 * b,
                "x={x}: flat {v} vs backbone {b}"
            );
            assert!(i >= 1 && i as usize <= x);
        }
        // And the public accessors route through it regardless of τ.
        assert_eq!(dp.value(40, 0.0), dp.flat.vals[40]);
        assert_eq!(dp.value(40, 12345.0), dp.flat.vals[40]);
    }

    #[test]
    fn memorylessness_comes_from_the_law() {
        let spec = JobSpec::table1_single_processor();
        let build = |dist: Box<dyn FailureDistribution>| {
            DpMakespan::new(&spec, dist, DpMakespanConfig { quanta: Some(30) })
        };
        // Exponential: the dense table, filled at construction.
        assert_eq!(build(Box::new(Exponential::from_mtbf(DAY))).flat.vals.len(), 31);
        // Weibull, k = 1 included (it does not report itself memoryless):
        // the age-dependent table.
        for shape in [0.7, 1.0] {
            let dp = build(Box::new(Weibull::from_mtbf(shape, DAY)));
            assert!(dp.flat.vals.is_empty(), "Weibull k = {shape}");
            assert!(dp.value(30, 0.0).is_finite());
        }
    }

    #[test]
    fn value_exceeds_failure_free_time() {
        let (_, dp) = exp_dp(HOUR, 40);
        // Expected makespan ≥ work + minimum checkpointing time.
        let v = dp.value(40, 0.0);
        let w = 40.0 * dp.quantum();
        assert!(v > w, "V = {v} ≤ failure-free work {w}");
    }

    #[test]
    fn weibull_dp_age_sensitivity() {
        // k < 1: an old processor is safer, so the DP schedules a larger
        // (or equal) first chunk from an old age than right after recovery.
        let spec = JobSpec::table1_single_processor();
        let dp = DpMakespan::new(
            &spec,
            Box::new(Weibull::from_mtbf(0.7, DAY)),
            DpMakespanConfig { quanta: Some(80) },
        );
        let young_chunk = dp.chunk_for(spec.work, spec.recovery);
        let old_chunk = dp.chunk_for(spec.work, 10.0 * DAY);
        assert!(
            old_chunk >= young_chunk,
            "old {old_chunk} < young {young_chunk}"
        );
    }

    #[test]
    fn weibull_value_finite_and_positive() {
        let spec = JobSpec::table1_single_processor();
        let dp = DpMakespan::new(
            &spec,
            Box::new(Weibull::from_mtbf(0.7, HOUR)),
            DpMakespanConfig { quanta: Some(50) },
        );
        let v = dp.value(50, 0.0);
        assert!(v.is_finite() && v > spec.work);
    }

    #[test]
    fn session_returns_valid_chunks() {
        let (spec, dp) = exp_dp(DAY, 60);
        let mut s = dp.session();
        let ages = AgeView::single(0.0);
        let mut remaining = spec.work;
        for _ in 0..5 {
            let c = s.next_chunk(remaining, &ages, 0.0);
            assert!(c > 0.0 && c <= remaining + 1e-9);
            remaining -= c;
        }
    }

    /// `Psuc(x|τ)` through the distribution's own path: the closed form
    /// for memoryless laws, the kernel table's one-query form otherwise.
    fn oracle_psuc(dp: &DpMakespan, x: f64, tau: f64) -> f64 {
        if dp.memoryless { dp.dist.psuc(x, 0.0) } else { dp.kernel.psuc(x, tau) }
    }

    /// `E[Tlost(x|τ)]`, as [`oracle_psuc`].
    fn oracle_tlost(dp: &DpMakespan, x: f64, tau: f64) -> f64 {
        if dp.memoryless { dp.dist.expected_loss(x, 0.0) } else { dp.kernel.expected_loss(x, tau) }
    }

    /// The general table as a lazy `(x, τ-key)` hash memo with its own
    /// backbone — the pre-row formulation, kept as the reference the
    /// per-age rows must reproduce bit for bit.
    struct Reference<'a> {
        dp: &'a DpMakespan,
        backbone: Vec<(f64, u32)>,
        memo: HashMap<(u32, u64), (f64, u32)>,
    }

    impl<'a> Reference<'a> {
        fn new(dp: &'a DpMakespan) -> Self {
            let mut me = Self { dp, backbone: vec![(0.0, 0)], memo: HashMap::new() };
            let (r, c) = (dp.spec.recovery, dp.spec.checkpoint);
            for x in 1..=dp.quanta() {
                let mut best = f64::INFINITY;
                let mut best_i = 1u32;
                for i in 1..=x {
                    let attempt = i as f64 * dp.u + c;
                    let psuc = oracle_psuc(dp, attempt, r);
                    if psuc <= 0.0 {
                        continue;
                    }
                    let succ = if x - i == 0 { 0.0 } else { me.state(x - i, r + attempt).0 };
                    let lost = oracle_tlost(dp, attempt, r);
                    let a_i = psuc * (attempt + succ) + (1.0 - psuc) * (lost + dp.e_rec);
                    let cand = a_i / psuc;
                    if cand < best {
                        best = cand;
                        best_i = i as u32;
                    }
                }
                me.backbone.push((best, best_i));
            }
            me
        }

        fn state(&mut self, x: usize, tau: f64) -> (f64, u32) {
            let dp = self.dp;
            if x == 0 {
                return (0.0, 0);
            }
            if (tau - dp.spec.recovery).abs() < 1e-9 {
                return self.backbone[x];
            }
            let key = (x as u32, (tau / dp.u).round() as u64);
            if let Some(&v) = self.memo.get(&key) {
                return v;
            }
            let tau_rep = key.1 as f64 * dp.u;
            let fail_v = self.backbone[x].0;
            let mut best = f64::INFINITY;
            let mut best_i = 1u32;
            for i in 1..=x {
                let attempt = i as f64 * dp.u + dp.spec.checkpoint;
                let psuc = oracle_psuc(dp, attempt, tau_rep);
                let succ = if x - i == 0 { 0.0 } else { self.state(x - i, tau_rep + attempt).0 };
                let lost = oracle_tlost(dp, attempt, tau_rep);
                let cur = psuc * (attempt + succ) + (1.0 - psuc) * (lost + dp.e_rec + fail_v);
                if cur < best {
                    best = cur;
                    best_i = i as u32;
                }
            }
            self.memo.insert(key, (best, best_i));
            (best, best_i)
        }
    }

    fn assert_matches_reference(dp: &DpMakespan, reference: &mut Reference<'_>, tau: f64) {
        for x in 1..=dp.quanta() {
            let (v, i) = reference.state(x, tau);
            assert_eq!(dp.value(x, tau).to_bits(), v.to_bits(), "V({x}, {tau})");
            assert_eq!(dp.chunk_quanta(x, tau), i, "chunk at ({x}, {tau})");
        }
    }

    fn assert_backbone_matches(dp: &DpMakespan, reference: &Reference<'_>) {
        assert_eq!(dp.backbone.vals.len(), reference.backbone.len());
        for (x, want) in reference.backbone.iter().enumerate() {
            assert_eq!(dp.backbone.vals[x].to_bits(), want.0.to_bits(), "V({x}, R)");
            assert_eq!(dp.backbone.chunks[x], want.1, "chunk at ({x}, R)");
        }
    }

    /// Rows whose successors do not lie on one diagonal (they gather
    /// their successor values by index).
    fn irregular_rows(dp: &DpMakespan) -> usize {
        let table = dp.lock();
        table.rows.iter().filter(|r| r.ladder.reach() > 1 && r.ladder.diagonal.is_none()).count()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn age_rows_match_the_hash_memo_reference(
            shape in 0.5..1.5f64,
            mtbf in 3_600.0..30.0 * DAY,
            // 1: the rejuvenated-platform minimum over `procs` processors
            // (the parallel DPMakespan input); 0: the Weibull itself.
            min_of in 0u8..2,
            procs in 2u64..64,
            quanta in 10usize..=120,
            work_days in 0.5..20.0f64,
            checkpoint in 10.0..2_000.0f64,
            recovery in 10.0..2_000.0f64,
            tau_frac in 0.0..1.0f64,
            // 0: as drawn; 1: `C/u` a hair off a half, so rounded
            // successor keys skip or repeat; 2: `R = C + m·u`, so a chunk
            // from age 0 lands exactly on the recovery age; 3: a tiny
            // MTBF, so `Psuc` of long chunks underflows to 0.
            layout in (0u8..4, 2usize..10),
        ) {
            let (layout, m) = layout;
            let u = work_days * DAY / quanta as f64;
            let (checkpoint, recovery, shape, mtbf) = match layout {
                1 => {
                    let nudge = 1.0 + (m as f64 - 6.0) * 1e-15;
                    ((m % 3) as f64 * u + 0.5 * u * nudge, recovery, shape, mtbf)
                }
                2 => (checkpoint, checkpoint + m as f64 * u, shape, mtbf),
                3 => (checkpoint, recovery, 1.0 + shape / 3.0, mtbf / 3_600.0 * 100.0),
                _ => (checkpoint, recovery, shape, mtbf),
            };
            let spec = JobSpec::sequential(work_days * DAY, checkpoint, recovery, 60.0);
            let weibull = Weibull::from_mtbf(shape, mtbf);
            let dist: Box<dyn FailureDistribution> = if min_of == 1 {
                Box::new(ckpt_dist::MinOf::new(Box::new(weibull), procs))
            } else {
                Box::new(weibull)
            };
            let dp = DpMakespan::new(
                &spec,
                dist,
                DpMakespanConfig { quanta: Some(quanta) },
            );
            let mut reference = Reference::new(&dp);
            assert_backbone_matches(&dp, &reference);
            let horizon = dp.kernel.horizon();
            for tau in [0.0, spec.recovery, tau_frac * horizon, 3.0 * horizon] {
                assert_matches_reference(&dp, &mut reference, tau);
            }
        }
    }

    /// `C/u` at a half, give or take rounding: the successor keys of
    /// some rows skip or repeat, those rows gather by index, and every
    /// state still matches the reference.
    #[test]
    fn rows_off_the_diagonal_match_the_reference() {
        let work = 2.0 * DAY;
        let cases = [(61usize, 0.0), (97, 0.0), (60, -1e-15), (77, 1e-14), (77, -1e-14)];
        for (quanta, nudge) in cases {
            let u = work / quanta as f64;
            let spec = JobSpec::sequential(work, u * (0.5 + nudge), 600.0, 60.0);
            let dp = DpMakespan::new(
                &spec,
                Box::new(Weibull::from_mtbf(0.7, DAY)),
                DpMakespanConfig { quanta: Some(quanta) },
            );
            let mut reference = Reference::new(&dp);
            assert_backbone_matches(&dp, &reference);
            for tau in [0.0, 0.37 * DAY, 5.0 * DAY] {
                assert_matches_reference(&dp, &mut reference, tau);
            }
            assert!(irregular_rows(&dp) > 0, "{quanta} quanta: every row on one diagonal");
        }
    }

    /// `(rows with a ladder, ladder entries, filled states, diagonal
    /// slots)` of the age table.
    fn footprint(dp: &DpMakespan) -> (usize, usize, usize, usize) {
        let table = dp.lock();
        (
            table.rows.iter().filter(|r| r.ladder.reach() > 0).count(),
            table.rows.iter().map(|r| r.ladder.psuc.len()).sum(),
            table.rows.iter().map(AgeRow::filled).sum(),
            table.diagonals.iter().map(Vec::len).sum(),
        )
    }

    /// Ladder reach of the row at age `tau`, if the table has one.
    fn ladder_reach(dp: &DpMakespan, tau: f64) -> Option<usize> {
        let table = dp.table.lock().unwrap_or_else(PoisonError::into_inner);
        let at = table.index.binary_search_by_key(&dp.tau_key(tau), |&(k, _)| k).ok()?;
        Some(table.rows[table.index[at].1 as usize].ladder.reach())
    }

    fn table3_week() -> (JobSpec, DpMakespan) {
        let spec = JobSpec::table1_single_processor();
        let dp = DpMakespan::new(
            &spec,
            Box::new(Weibull::from_mtbf(0.7, 7.0 * DAY)),
            DpMakespanConfig::default(),
        );
        assert_eq!(dp.quanta(), 385, "the Table 3 1-week cell's quantum count");
        (spec, dp)
    }

    /// The Table 3 1-week cell's table after construction is the
    /// backbone's triangle: row `i` past recovery holds its ladders and
    /// states up to `x = n − i` and no further. A square layout, or
    /// ladders built to full length, fails here before it shows in a
    /// peak-RSS gate.
    #[test]
    fn table3_week_table_stays_triangular() {
        let (_, dp) = table3_week();
        assert_eq!(footprint(&dp), (384, 74_304, 73_920, 73_920));
        assert_eq!(irregular_rows(&dp), 0, "C/u = 0.13: every row on one diagonal");
    }

    /// Table 3's 1-week cell (n = 385 quanta): after construction the
    /// backbone's successor rows hold only the states it read (`x ≤ n −
    /// i` for the row `i` quanta past recovery); queries at larger `x`
    /// grow those rows' ladders and filled prefixes, and every state must
    /// still match the hash-memo reference bit for bit.
    #[test]
    fn rows_grown_past_the_backbone_triangle_match_the_reference() {
        let (spec, dp) = table3_week();
        let n = dp.quanta();
        let mut reference = Reference::new(&dp);
        assert_backbone_matches(&dp, &reference);
        let i = n / 2;
        let tau = spec.recovery + i as f64 * dp.u + spec.checkpoint;
        let built = ladder_reach(&dp, tau).expect("the backbone reaches this row");
        assert!(built <= n - i, "row {i} past recovery reaches {built}");
        assert_matches_reference(&dp, &mut reference, tau);
        assert_eq!(ladder_reach(&dp, tau), Some(n), "grown to the largest x asked");
        assert_matches_reference(&dp, &mut reference, 0.0);
    }

    #[test]
    fn far_age_query_allocates_only_reachable_rows() {
        let spec = JobSpec::table1_single_processor();
        let dp = DpMakespan::new(
            &spec,
            Box::new(Weibull::from_mtbf(0.7, DAY)),
            DpMakespanConfig { quanta: Some(40) },
        );
        let before = dp.lock().rows.len();
        let mut reference = Reference::new(&dp);
        assert_matches_reference(&dp, &mut reference, 1e12);
        // Rows reachable from one age span ~x·(1 + C/u) keys, plus the
        // unevaluated successor keys their ladders name — never ~τ/u.
        let added = dp.lock().rows.len() - before;
        assert!(added < 4 * 40, "{added} rows for one far-age query");
        // Past 2^64 steps of the kernel tables, the exact law answers.
        assert_matches_reference(&dp, &mut reference, 1e300);
    }

    /// The memoryless backbone and flat column against the scalar
    /// ascending loop they replace: the same bits and chunks.
    #[test]
    fn memoryless_columns_match_a_scalar_loop() {
        for (mtbf, quanta) in [(HOUR, 200), (DAY, 700), (30.0 * DAY, 100)] {
            let (spec, dp) = exp_dp(mtbf, quanta);
            let (r, c) = (spec.recovery, spec.checkpoint);
            let mut backbone = vec![(0.0, 0u32)];
            let mut flat = vec![(0.0, 0u32)];
            for x in 1..=quanta {
                let (mut best, mut best_i) = (f64::INFINITY, 1u32);
                let (mut bv, mut bi) = (f64::INFINITY, 1u32);
                for pass in 0..2 {
                    for i in 1..=x {
                        let attempt = i as f64 * dp.u + c;
                        let psuc = oracle_psuc(&dp, attempt, r);
                        let lost = oracle_tlost(&dp, attempt, r);
                        let succ = if x == i { 0.0 } else { flat[x - i].0 };
                        if pass == 0 {
                            if psuc <= 0.0 {
                                continue;
                            }
                            let a = psuc * (attempt + succ) + (1.0 - psuc) * (lost + dp.e_rec);
                            let cand = a / psuc;
                            if cand < best {
                                (best, best_i) = (cand, i as u32);
                            }
                        } else {
                            let cur = psuc * (attempt + succ)
                                + (1.0 - psuc) * (lost + dp.e_rec + best);
                            if cur < bv {
                                (bv, bi) = (cur, i as u32);
                            }
                        }
                    }
                }
                backbone.push((best, best_i));
                flat.push((bv, bi));
            }
            for x in 0..=quanta {
                assert_eq!(dp.backbone.vals[x].to_bits(), backbone[x].0.to_bits(), "V({x}, R)");
                assert_eq!(dp.backbone.chunks[x], backbone[x].1, "chunk at ({x}, R)");
                assert_eq!(dp.flat.vals[x].to_bits(), flat[x].0.to_bits(), "V({x})");
                assert_eq!(dp.flat.chunks[x], flat[x].1, "chunk at {x}");
            }
        }
    }

    /// The sequential strict-`<` scan `first_min` splits into lanes.
    fn sequential_first_min(v: &[f64]) -> (f64, u32) {
        let (mut best, mut at) = (f64::INFINITY, 1u32);
        for (k, &t) in v.iter().enumerate() {
            if t < best {
                (best, at) = (t, k as u32 + 1);
            }
        }
        (best, at)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn lane_split_minimum_is_the_sequential_scan(
            codes in proptest::collection::vec(0u8..12, 0..40),
        ) {
            const PALETTE: [f64; 12] = [
                f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 1.0, 1.0, 2.0, -1.0, 3.5,
                1e300, -1e-300,
            ];
            let v: Vec<f64> = codes.iter().map(|&c| PALETTE[c as usize]).collect();
            let (got, got_at) = first_min(&v);
            let (want, want_at) = sequential_first_min(&v);
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?}", v);
            proptest::prop_assert_eq!(got_at, want_at, "{:?}", v);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The kernel against the scalar ascending loop it replaces, over
        /// states long enough to span several blocks, with coarse values
        /// so terms tie within and across blocks, and dead chunks.
        #[test]
        fn bellman_is_the_scalar_loop(
            entries in proptest::collection::vec(
                (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
                1..700,
            ),
            fail_v in 0.0..4.0f64,
        ) {
            let coarse = |v: f64| (v * 4.0).round() / 4.0;
            let x = entries.len();
            let attempt: Vec<f64> = entries.iter().map(|e| 1.0 + coarse(e.0)).collect();
            let psuc: Vec<f64> = entries.iter().map(|e| coarse(e.1)).collect();
            let loss: Vec<f64> = entries.iter().map(|e| 1.0 + coarse(e.2)).collect();
            let succ: Vec<f64> = entries[1..].iter().map(|e| coarse(e.3) * 8.0).collect();
            let (mut want, mut want_fp) = ((f64::INFINITY, 1u32), (f64::INFINITY, 1u32));
            for i in 1..=x {
                let (a, p, l) = (attempt[i - 1], psuc[i - 1], loss[i - 1]);
                let s = if i == x { 0.0 } else { succ[x - 1 - i] };
                let cur = p * (a + s) + (1.0 - p) * (l + fail_v);
                if cur < want.0 {
                    want = (cur, i as u32);
                }
                if p > 0.0 {
                    let cand = (p * (a + s) + (1.0 - p) * l) / p;
                    if cand < want_fp.0 {
                        want_fp = (cand, i as u32);
                    }
                }
            }
            let got = bellman::<false>(&attempt, &psuc, &loss, &succ, fail_v);
            let got_fp = bellman::<true>(&attempt, &psuc, &loss, &succ, 0.0);
            let bits = |(v, i): (f64, u32)| (v.to_bits(), i);
            proptest::prop_assert_eq!(bits(got), bits(want));
            proptest::prop_assert_eq!(bits(got_fp), bits(want_fp));
        }
    }

    #[test]
    fn lane_split_minimum_of_nothing_below_infinity_is_infinity_at_one() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        for v in [vec![], vec![nan; 9], vec![inf, nan, inf, inf, nan]] {
            let (best, at) = first_min(&v);
            assert_eq!((best.to_bits(), at), (f64::INFINITY.to_bits(), 1), "{v:?}");
        }
    }

    #[test]
    fn kernel_loss_matches_exponential_closed_form() {
        // The DP's tlost path (kernel expected_loss) against Lemma 1.
        let d = Exponential::from_mtbf(1000.0);
        let table = KernelTable::build(Box::new(d), 20_000.0, 400.0);
        for &(x, tau) in &[(100.0, 0.0), (500.0, 200.0), (2_000.0, 0.0)] {
            let got = table.expected_loss(x, tau);
            let expect = d.expected_loss(x, tau);
            assert!(
                (got - expect).abs() < 0.02 * expect.max(1.0),
                "x={x} τ={tau}: table {got} vs closed {expect}"
            );
        }
    }
}
