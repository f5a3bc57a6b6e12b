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
//! standard single-self-loop MDP solution). We therefore compute the
//! post-failure backbone `V(·, R)` bottom-up in `x` first, then fill all
//! other `(x, τ)` states lazily with `τ` quantised to the grid: one
//! row per age key, holding its `Psuc`/`E[Tlost]`/successor ladders
//! (which depend on the chunk `i` but never on `x`) and a dense value
//! column, so the O(x) Bellman step reads arrays only.
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
use ckpt_dist::{FailureDistribution, KernelTable};
use ckpt_workload::JobSpec;
use std::sync::{Mutex, PoisonError};

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
    /// Post-failure backbone `V(x, R)` and its chunk choice, indexed by x.
    backbone: Vec<(f64, u32)>,
    /// Memoryless fast path: with the age dimension collapsed, `V` depends
    /// on `x` alone, so the whole table is one dense vector filled
    /// bottom-up at construction — no mutex, no hashing per decision.
    flat: Vec<(f64, u32)>,
    /// General (age-dependent) states, one row per age key `τ/u rounded`;
    /// locked once per top-level query.
    table: Mutex<AgeTable>,
}

/// `next` entry of a successor that sits exactly at the post-recovery
/// age `R`: its value is the backbone's.
const BACKBONE: u32 = u32::MAX;

/// The general table's states at one age key `k`, all evaluated at the
/// key's representative age `k·u`. Every vector is indexed by `x` (the
/// ladders by the chunk `i ≤ x`) and holds exactly `1 +` the largest
/// `x` asked of the row so far: row `k` of the backbone's reach is read
/// only up to `x ≈ n − k`, so full-length ladders would mostly go unread.
#[derive(Debug, Default)]
struct AgeRow {
    key: u64,
    /// `Psuc(i·u + C | k·u)` for a chunk of `i` quanta (slot 0 unused).
    psuc: Vec<f64>,
    /// `E[Tlost(i·u + C | k·u)]`.
    lost: Vec<f64>,
    /// Row of the age `k·u + i·u + C` a successful chunk reaches, or
    /// [`BACKBONE`].
    next: Vec<u32>,
    /// `V(x, k·u)`.
    vals: Vec<f64>,
    /// Optimal chunk at `x`; 0 marks a state not yet evaluated.
    chunk: Vec<u32>,
}

impl AgeRow {
    fn has(&self, x: usize) -> bool {
        self.chunk.get(x).is_some_and(|&c| c != 0)
    }
}

/// Age rows, found by key through `index` (`(key, row)` pairs sorted by
/// key); rows exist only for keys some query or ladder has reached.
#[derive(Debug, Default)]
struct AgeTable {
    index: Vec<(u64, u32)>,
    rows: Vec<AgeRow>,
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
            backbone: Vec::new(),
            flat: Vec::new(),
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

    /// Post-failure backbone `V(·, R)`: solve the affine self-loop fixed
    /// point for each `x` ascending, pushing each entry before computing
    /// the next — the successor values `V(x−i, R+attempt)` are evaluated
    /// through the general table, whose own failure branches only consult
    /// backbone entries at indices `< x`, which are already in place.
    fn compute_backbone(&mut self) {
        let n = self.quanta();
        let r = self.spec.recovery;
        let c = self.spec.checkpoint;
        let memoryless = self.memoryless;
        // `Psuc` and `E[Tlost]` of an attempt depend on its length and the
        // fixed post-recovery age alone, never on `x` — hoist them into
        // O(n) ladders instead of querying the distribution O(n²) times
        // inside the Bellman loops. (Memoryless mode forces τ = 0
        // everywhere, so the same ladders serve the flat-table pass too —
        // the values the old inner loops recomputed were identical.)
        let mut psuc_r = vec![0.0f64; n + 1];
        let mut lost_r = vec![0.0f64; n + 1];
        let mut table = AgeTable::default();
        let mut next_r = vec![BACKBONE; n + 1];
        for i in 1..=n {
            let attempt = i as f64 * self.u + c;
            psuc_r[i] = self.psuc(attempt, r);
            lost_r[i] = self.tlost(attempt, r);
            if !memoryless {
                next_r[i] = self.next_row(&mut table, r + attempt);
            }
        }
        self.backbone.push((0.0, 0));
        if memoryless {
            self.flat.push((0.0, 0));
        }
        for x in 1..=n {
            let mut best = f64::INFINITY;
            let mut best_i = 1u32;
            for i in 1..=x {
                let attempt = i as f64 * self.u + c;
                let psuc = psuc_r[i];
                if psuc <= 0.0 {
                    continue;
                }
                let succ = if x - i == 0 {
                    0.0
                } else if memoryless {
                    self.flat[x - i].0
                } else if next_r[i] == BACKBONE {
                    self.backbone[x - i].0
                } else {
                    self.fill(&mut table, next_r[i], x - i).0
                };
                let lost = lost_r[i];
                let a_i = psuc * (attempt + succ) + (1.0 - psuc) * (lost + self.e_rec);
                let cand = a_i / psuc; // fixed point of V = a + (1−psuc)·V
                if cand < best {
                    best = cand;
                    best_i = i as u32;
                }
            }
            self.backbone.push((best, best_i));
            if memoryless {
                // With age collapsed, the general Bellman step at `x` reads
                // only `flat[< x]` and `backbone[x]` — both in place, so the
                // dense table fills in the same ascending pass.
                let fail_v = best;
                let mut bv = f64::INFINITY;
                let mut bi = 1u32;
                for i in 1..=x {
                    let attempt = i as f64 * self.u + c;
                    let psuc = psuc_r[i];
                    let succ = if x - i == 0 { 0.0 } else { self.flat[x - i].0 };
                    let lost = lost_r[i];
                    let cur = psuc * (attempt + succ) + (1.0 - psuc) * (lost + self.e_rec + fail_v);
                    if cur < bv {
                        bv = cur;
                        bi = i as u32;
                    }
                }
                self.flat.push((bv, bi));
            }
        }
        *self.table.get_mut().unwrap_or_else(PoisonError::into_inner) = table;
    }

    /// `Psuc(x|τ)`: exact (typically closed-form) for memoryless
    /// distributions, tabulated log-survival otherwise.
    fn psuc(&self, x: f64, tau: f64) -> f64 {
        if self.memoryless {
            self.dist.psuc(x, 0.0)
        } else {
            self.kernel.psuc(x, tau)
        }
    }

    /// `E[Tlost(x|τ)]`: closed form for memoryless distributions, kernel
    /// interpolation otherwise.
    fn tlost(&self, x: f64, tau: f64) -> f64 {
        if self.memoryless {
            self.dist.expected_loss(x, 0.0)
        } else {
            self.kernel.expected_loss(x, tau)
        }
    }

    /// Memoised `V(x, τ)`; the failure branch uses the precomputed
    /// backbone, so recursion strictly decreases `x` and terminates.
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

    /// Row of the state at age `tau`, or [`BACKBONE`] for the
    /// post-failure age.
    fn next_row(&self, table: &mut AgeTable, tau: f64) -> u32 {
        if self.at_recovery(tau) {
            BACKBONE
        } else {
            table.row_of(self.tau_key(tau))
        }
    }

    fn state(&self, x: usize, tau: f64) -> (f64, u32) {
        if x == 0 {
            return (0.0, 0);
        }
        // Memoryless: the dense bottom-up table answers directly.
        if let Some(&s) = self.flat.get(x) {
            return s;
        }
        if self.at_recovery(tau) {
            return self.backbone[x];
        }
        let mut table = self.table.lock().unwrap_or_else(PoisonError::into_inner);
        let row = table.row_of(self.tau_key(tau));
        self.fill(&mut table, row, x)
    }

    /// Grow a row to cover the states `≤ x`, exactly: its ladders
    /// (every Bellman step of the row reads the same `Psuc`, `E[Tlost]`
    /// and successor age for a chunk of `i` quanta, whatever its `x`) and
    /// its unevaluated value slots. Each ladder entry is a pure function
    /// of the key and `i`, so growing in steps builds the same bits as
    /// one full-length build.
    fn grow(&self, table: &mut AgeTable, row: u32, x: usize) {
        let ri = row as usize;
        let len = table.rows[ri].psuc.len();
        if len > x {
            return;
        }
        let c = self.spec.checkpoint;
        // The key's *representative* age, not any incoming exact one:
        // every value in the row is then a pure function of `(x, key)`,
        // so concurrent sessions agree on it no matter which thread
        // fills it first.
        let tau_rep = table.rows[ri].key as f64 * self.u;
        let extra = x + 1 - len;
        let r = &mut table.rows[ri];
        r.psuc.reserve_exact(extra);
        r.lost.reserve_exact(extra);
        r.next.reserve_exact(extra);
        r.vals.reserve_exact(extra);
        r.chunk.reserve_exact(extra);
        r.vals.resize(x + 1, 0.0);
        r.chunk.resize(x + 1, 0);
        if len == 0 {
            r.psuc.push(0.0);
            r.lost.push(0.0);
            r.next.push(BACKBONE);
        }
        for i in len.max(1)..=x {
            let attempt = i as f64 * self.u + c;
            let next = self.next_row(table, tau_rep + attempt);
            let r = &mut table.rows[ri];
            r.psuc.push(self.psuc(attempt, tau_rep));
            r.lost.push(self.tlost(attempt, tau_rep));
            r.next.push(next);
        }
    }

    /// `V(x, k·u)` of `row`, evaluating it (and, first, every successor
    /// state it reads) on a miss.
    fn fill(&self, table: &mut AgeTable, row: u32, x: usize) -> (f64, u32) {
        let ri = row as usize;
        if table.rows[ri].has(x) {
            return (table.rows[ri].vals[x], table.rows[ri].chunk[x]);
        }
        self.grow(table, row, x);
        for i in 1..x {
            let next = table.rows[ri].next[i];
            if next != BACKBONE && !table.rows[next as usize].has(x - i) {
                self.fill(table, next, x - i);
            }
        }
        let r = &table.rows[ri];
        let c = self.spec.checkpoint;
        let fail_v = self.backbone[x].0;
        let mut best = f64::INFINITY;
        let mut best_i = 1u32;
        for i in 1..=x {
            let attempt = i as f64 * self.u + c;
            let psuc = r.psuc[i];
            let succ = match r.next[i] {
                _ if x - i == 0 => 0.0,
                BACKBONE => self.backbone[x - i].0,
                next => table.rows[next as usize].vals[x - i],
            };
            let lost = r.lost[i];
            let cur = psuc * (attempt + succ) + (1.0 - psuc) * (lost + self.e_rec + fail_v);
            if cur < best {
                best = cur;
                best_i = i as u32;
            }
        }
        let r = &mut table.rows[ri];
        r.vals[x] = best;
        r.chunk[x] = best_i;
        (best, best_i)
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
                dp.backbone[x].0 < dp.backbone[x + 1].0,
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
        assert_eq!(dp.flat.len(), 81);
        for x in 1..=80 {
            let (v, i) = dp.flat[x];
            let b = dp.backbone[x].0;
            assert!(
                (v - b).abs() <= 1e-9 * b,
                "x={x}: flat {v} vs backbone {b}"
            );
            assert!(i >= 1 && i as usize <= x);
        }
        // And the public accessors route through it regardless of τ.
        assert_eq!(dp.value(40, 0.0), dp.flat[40].0);
        assert_eq!(dp.value(40, 12345.0), dp.flat[40].0);
    }

    #[test]
    fn memorylessness_comes_from_the_law() {
        let spec = JobSpec::table1_single_processor();
        let build = |dist: Box<dyn FailureDistribution>| {
            DpMakespan::new(&spec, dist, DpMakespanConfig { quanta: Some(30) })
        };
        // Exponential: the dense table, filled at construction.
        assert_eq!(build(Box::new(Exponential::from_mtbf(DAY))).flat.len(), 31);
        // Weibull, k = 1 included (it does not report itself memoryless):
        // the age-dependent table.
        for shape in [0.7, 1.0] {
            let dp = build(Box::new(Weibull::from_mtbf(shape, DAY)));
            assert!(dp.flat.is_empty(), "Weibull k = {shape}");
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
                    let psuc = dp.psuc(attempt, r);
                    if psuc <= 0.0 {
                        continue;
                    }
                    let succ = if x - i == 0 { 0.0 } else { me.state(x - i, r + attempt).0 };
                    let lost = dp.tlost(attempt, r);
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
                let psuc = dp.psuc(attempt, tau_rep);
                let succ = if x - i == 0 { 0.0 } else { self.state(x - i, tau_rep + attempt).0 };
                let lost = dp.tlost(attempt, tau_rep);
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

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
        ) {
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
            for (x, (got, want)) in dp.backbone.iter().zip(&reference.backbone).enumerate() {
                proptest::prop_assert_eq!(got.0.to_bits(), want.0.to_bits(), "V({}, R)", x);
                proptest::prop_assert_eq!(got.1, want.1, "chunk at ({}, R)", x);
            }
            let horizon = dp.kernel.horizon();
            for tau in [0.0, spec.recovery, tau_frac * horizon, 3.0 * horizon] {
                assert_matches_reference(&dp, &mut reference, tau);
            }
        }
    }

    /// Ladder length of the row at age `tau`, if the table has one.
    fn ladder_len(dp: &DpMakespan, tau: f64) -> Option<usize> {
        let table = dp.table.lock().unwrap_or_else(PoisonError::into_inner);
        let at = table.index.binary_search_by_key(&dp.tau_key(tau), |&(k, _)| k).ok()?;
        Some(table.rows[table.index[at].1 as usize].psuc.len())
    }

    /// Table 3's 1-week cell (n = 385 quanta): after construction the
    /// backbone's successor rows hold only the states it read (`x ≤ n −
    /// i` for the row `i` quanta past recovery); queries at larger `x`
    /// grow those rows' ladders and value slots, and every state must
    /// still match the hash-memo reference bit for bit.
    #[test]
    fn rows_grown_past_the_backbone_triangle_match_the_reference() {
        let spec = JobSpec::table1_single_processor();
        let dp = DpMakespan::new(
            &spec,
            Box::new(Weibull::from_mtbf(0.7, 7.0 * DAY)),
            DpMakespanConfig::default(),
        );
        let n = dp.quanta();
        assert_eq!(n, 385, "the Table 3 1-week cell's quantum count");
        let mut reference = Reference::new(&dp);
        for (x, (got, want)) in dp.backbone.iter().zip(&reference.backbone).enumerate() {
            assert_eq!(got.0.to_bits(), want.0.to_bits(), "V({x}, R)");
            assert_eq!(got.1, want.1, "chunk at ({x}, R)");
        }
        let i = n / 2;
        let tau = spec.recovery + i as f64 * dp.u + spec.checkpoint;
        let built = ladder_len(&dp, tau).expect("the backbone reaches this row");
        assert!(built <= n + 1 - i, "row {i} past recovery holds {built} ladder entries");
        assert_matches_reference(&dp, &mut reference, tau);
        assert_eq!(ladder_len(&dp, tau), Some(n + 1), "grown to the largest x asked");
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
        let before = dp.table.lock().unwrap_or_else(PoisonError::into_inner).rows.len();
        let mut reference = Reference::new(&dp);
        assert_matches_reference(&dp, &mut reference, 1e12);
        // Rows reachable from one age span ~x·(1 + C/u) keys, plus the
        // unevaluated successor keys their ladders name — never ~τ/u.
        let added = dp.table.lock().unwrap_or_else(PoisonError::into_inner).rows.len() - before;
        assert!(added < 4 * 40, "{added} rows for one far-age query");
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
