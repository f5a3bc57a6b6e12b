//! `DPNextFailure` — Algorithm 2 and its §3.3 parallel extension.
//!
//! The policy maximises the expected amount of work completed before the
//! next platform failure (Proposition 3):
//!
//! ```text
//! E[W] = Σᵢ ωᵢ · Πⱼ≤ᵢ Psuc(ωⱼ + C | tⱼ),   tⱼ = elapsed age when chunk j starts.
//! ```
//!
//! With a time quantum `u` the value function over states `(x, n)` —
//! `x` remaining quanta, `n` chunks already completed since planning —
//! satisfies
//!
//! ```text
//! V(x, n) = max_{1 ≤ i ≤ x}  Psuc(iu + C | δ(x, n)) · (iu + V(x − i, n + 1)),
//! δ(x, n) = (x_max − x)·u + n·C          (elapsed time since planning),
//! ```
//!
//! which we solve bottom-up in `O(x_max² · avg i)` after precomputing the
//! platform log-survival `G(a, m) = Σⱼ ln S(τⱼ + a·u + m·C)` on the
//! `(a, m)` grid, so each transition's `ln Psuc = G(a', m') − G(a, m)` is
//! O(1). The per-processor ages `τⱼ` enter only through `G`.
//!
//! The two §3.3 scalability devices are implemented faithfully:
//!
//! * **work truncation** — the DP is invoked on
//!   `min(ω, 2 × MTBF/p)` work and only the first **half** of the produced
//!   chunk schedule is used before replanning;
//! * **state compression** — optionally approximate all but the `n_exact`
//!   smallest processor ages by `n_approx` reference quantiles
//!   ([`StateCompression::Approximate`]); our [`AgeView`] already collapses
//!   never-failed processors, so [`StateCompression::Exact`] is itself
//!   cheap and serves as the precision baseline of the paper's ≤0.2 %
//!   error study (reproduced in the `ablation_state_compression` bench).

use crate::plan_cache::{DistId, DpCaches, KernelRowKey, PlanKey};
use crate::{clamp_chunk, AgeView, Policy, PolicySession};
use ckpt_dist::FailureDistribution;
use ckpt_workload::JobSpec;
use std::sync::Arc;

/// How the processor-age multiset is summarised before planning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StateCompression {
    /// Exact ages while the distinct-age set stays small (≤ 128 entries),
    /// the paper's (10, 100) scheme beyond — failure-dense platforms
    /// (the log-based runs of §6) would otherwise pay O(#failures) per
    /// grid point.
    Auto,
    /// Use every distinct age with its exact multiplicity.
    Exact,
    /// §3.3's scheme: keep the `n_exact` smallest ages exact, map the rest
    /// onto `n_approx` survival-quantile reference values.
    Approximate {
        /// Number of smallest ages kept exactly (paper: 10).
        n_exact: usize,
        /// Number of reference values (paper: 100).
        n_approx: usize,
    },
}

impl StateCompression {
    /// The paper's configuration: `n_exact = 10`, `n_approx = 100`.
    pub fn paper() -> Self {
        Self::Approximate { n_exact: 10, n_approx: 100 }
    }
}

/// Tunables of the DP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpNextFailureConfig {
    /// Number of quanta the (truncated) work is divided into; the quantum
    /// is `u = W_trunc / quanta`. More quanta = finer chunks, higher cost.
    /// `None` picks a resolution automatically so that the expected
    /// optimal chunk (Young's order of magnitude, `√(2CM)`) spans
    /// [`QUANTA_PER_CHUNK`] quanta — see [`auto_quanta`].
    pub quanta: Option<usize>,
    /// Work truncation in platform-MTBF multiples (paper: 2).
    pub truncation_mtbf_multiple: f64,
    /// Use only the first half of each planned schedule (paper: yes).
    pub use_half_schedule: bool,
    /// Age-state compression mode.
    pub compression: StateCompression,
}

impl Default for DpNextFailureConfig {
    fn default() -> Self {
        Self {
            quanta: None,
            truncation_mtbf_multiple: 2.0,
            use_half_schedule: true,
            compression: StateCompression::Auto,
        }
    }
}

/// Maximum chunks a single plan looks ahead. Beyond ~32 chunks the tail
/// of a schedule is almost never reached before a failure or a replan, so
/// the planning window is capped at `32·√(2CM)` even when `2M` (the
/// paper's truncation) is larger — this keeps the quantum fine relative
/// to the chunk size on small platforms whose MTBF is enormous.
pub const MAX_PLAN_CHUNKS: f64 = 32.0;

/// Quanta per estimated chunk in the auto configuration.
pub const QUANTA_PER_CHUNK: f64 = 8.0;

/// Planning window for one DP invocation: `min(k·M, 32·√(2CM))`.
pub fn planning_window(checkpoint: f64, platform_mtbf: f64, mtbf_multiple: f64) -> f64 {
    let c = checkpoint.max(1.0);
    let chunk_est = (2.0 * c * platform_mtbf).sqrt();
    (mtbf_multiple * platform_mtbf).min(MAX_PLAN_CHUNKS * chunk_est)
}

/// Auto-sized quantum count: ~8 quanta per estimated chunk `√(2CM)`
/// across the planning window, clamped to `[40, 256]` (DP cost grows
/// cubically in the count).
pub fn auto_quanta(checkpoint: f64, platform_mtbf: f64) -> usize {
    let c = checkpoint.max(1.0);
    let chunk_est = (2.0 * c * platform_mtbf).sqrt();
    let window = planning_window(checkpoint, platform_mtbf, 2.0);
    let q = QUANTA_PER_CHUNK * window / chunk_est;
    (q as usize).clamp(40, 256)
}

/// The `DPNextFailure` policy.
pub struct DpNextFailure {
    dist: Box<dyn FailureDistribution>,
    dist_id: DistId,
    spec: JobSpec,
    platform_mtbf: f64,
    config: DpNextFailureConfig,
    x_max: usize,
    /// Shared plan/kernel-row memo layers (see [`crate::plan_cache`]).
    /// Plans are keyed by the full quantised planning state — distribution
    /// identity, exact quantum bits, truncation, age buckets — so every
    /// instance with the same state reuses the same solve; post-failure
    /// states recur with identical keys (the age is `D + R` plus small
    /// cascades), so the hit rate is high even for age-dependent
    /// distributions, and a Study batch shares solves across all its
    /// traces and cells.
    caches: DpCaches,
    plans_total: std::sync::atomic::AtomicU64,
    plans_cold: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for DpNextFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpNextFailure")
            .field("spec", &self.spec)
            .field("config", &self.config)
            .field("x_max", &self.x_max)
            .finish_non_exhaustive()
    }
}

impl DpNextFailure {
    /// Build for a job spec, the per-processor failure distribution, and
    /// the per-processor MTBF (used for work truncation; the paper's
    /// `min(ω, 2·MTBF/p)`). Plans and kernel rows are memoised in the
    /// process-wide [`DpCaches::global`] pair.
    pub fn new(
        spec: &JobSpec,
        dist: Box<dyn FailureDistribution>,
        proc_mtbf: f64,
        config: DpNextFailureConfig,
    ) -> Self {
        Self::with_caches(spec, dist, proc_mtbf, config, DpCaches::global().clone())
    }

    /// [`new`](Self::new) with an explicit cache pair — isolation for
    /// tests and cache-sensitivity studies.
    pub fn with_caches(
        spec: &JobSpec,
        dist: Box<dyn FailureDistribution>,
        proc_mtbf: f64,
        config: DpNextFailureConfig,
        caches: DpCaches,
    ) -> Self {
        assert!(proc_mtbf > 0.0);
        assert!(config.truncation_mtbf_multiple > 0.0);
        let platform_mtbf = proc_mtbf / spec.procs as f64;
        let x_max = match config.quanta {
            Some(q) => {
                assert!(q >= 2, "need at least 2 quanta");
                q
            }
            None => auto_quanta(spec.checkpoint, platform_mtbf),
        };
        let dist_id = DistId::of(dist.as_ref());
        Self {
            dist,
            dist_id,
            spec: *spec,
            platform_mtbf,
            config,
            x_max,
            caches,
            plans_total: std::sync::atomic::AtomicU64::new(0),
            plans_cold: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The quantum count in effect (after auto-selection).
    pub fn quanta(&self) -> usize {
        self.x_max
    }

    /// `(total plan calls, cache misses)` since construction — cheap
    /// relaxed counters for perf diagnostics.
    pub fn plan_stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering::Relaxed;
        (self.plans_total.load(Relaxed), self.plans_cold.load(Relaxed))
    }

    /// Plan a chunk schedule for `remaining` work given the age snapshot.
    /// Public so the solver can be unit-tested and benchmarked directly.
    ///
    /// The plan is computed from the *quantised* state (ages mapped onto a
    /// geometric bucket grid, [`quantise_age`]) and memoised under that
    /// key in the shared [`DpCaches`] plan layer, so any execution order —
    /// and any other policy instance with the same distribution identity —
    /// reproduces the identical plan for the same key; replans after a
    /// failure or at schedule exhaustion mostly hit the cache instead of
    /// re-running the `O(x_max²)` solve. The returned `Arc` slice is
    /// shared with the cache: consuming a plan allocates nothing.
    pub fn plan(&self, remaining: f64, ages: &AgeView) -> Arc<[f64]> {
        let window = planning_window(
            self.spec.checkpoint,
            self.platform_mtbf,
            self.config.truncation_mtbf_multiple,
        );
        let w_full = remaining.min(window);
        let truncated = w_full < remaining - 1e-9;
        let x_max = self.x_max;
        let u = w_full / x_max as f64;
        let compressed = compress_ages(ages, self.dist.as_ref(), self.config.compression);
        // Quantised state: bucket ids on the geometric age grid, counts
        // merged per bucket. The exact quantum bits key the truncated work
        // (`window/x_max` when the full window applies, proportionally
        // smaller in the endgame) so unequal-work states can never
        // collide.
        let mut buckets: Vec<(u64, u64)> = Vec::with_capacity(compressed.len());
        for &(age, count) in &compressed {
            let id = quantise_age(age, u);
            let count = count.round() as u64;
            if count == 0 {
                continue;
            }
            match buckets.last_mut() {
                Some(last) if last.0 == id => last.1 += count,
                _ => buckets.push((id, count)),
            }
        }
        let key = PlanKey {
            dist: self.dist_id,
            u_bits: u.to_bits(),
            checkpoint_bits: self.spec.checkpoint.to_bits(),
            x_max: x_max as u32,
            truncated,
            half_schedule: self.config.use_half_schedule,
            lanes: ckpt_math::simd::LANES as u32,
            buckets,
        };
        self.plans_total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if let Some(hit) = self.caches.plans.get(&key) {
            return hit;
        }
        self.plans_cold.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Solve on the representative state reconstructed from the key —
        // a pure function of the key, so concurrent sessions agree on the
        // cached plan no matter which one computes it first. The kernel
        // rows (exact per-bucket log-survival over the DP triangle) come
        // from the shared row layer: a bucket seen by any earlier solve on
        // the same grid costs one memoised lookup instead of a triangle of
        // `powf` calls.
        let representative: Vec<(f64, f64)> = key
            .buckets
            .iter()
            .map(|&(id, count)| (representative_age(id, u), count as f64))
            .collect();
        let checkpoint = self.spec.checkpoint;
        let row_for = |age_index: usize| -> Arc<[f64]> {
            let (bucket, _) = key.buckets[age_index];
            let row_key = KernelRowKey {
                dist: self.dist_id,
                u_bits: key.u_bits,
                checkpoint_bits: key.checkpoint_bits,
                x_max: key.x_max,
                lanes: ckpt_math::simd::LANES as u32,
                bucket,
            };
            self.caches.kernel_rows.get_or_insert_with(row_key, || {
                compute_row(
                    self.dist.as_ref(),
                    representative_age(bucket, u),
                    x_max,
                    u,
                    checkpoint,
                )
            })
        };
        let chunks = solve_with_rows(
            self.dist.as_ref(),
            &representative,
            x_max,
            u,
            checkpoint,
            Some(&row_for),
        );
        // §3.3: when the work was truncated, keep only the first half of
        // the chunks to avoid end-of-horizon artefacts.
        let chunks: Arc<[f64]> = if self.config.use_half_schedule && truncated && chunks.len() > 1
        {
            let keep = chunks.len().div_ceil(2);
            chunks[..keep].into()
        } else {
            chunks.into()
        };
        self.caches.plans.insert(key, chunks.clone());
        chunks
    }
}

/// Buckets per doubling of `1 + age/u` on the geometric age grid.
const AGE_BUCKETS_PER_OCTAVE: f64 = 16.0;

/// Map an age onto the geometric bucket grid: sub-quantum ages resolve at
/// ~`u/16` (the post-failure states the hazard is most sensitive to),
/// ages of many quanta at ~4% relative — still comfortably inside the
/// fidelity band of the §3.3 reference-value compression (100 quantile
/// reps over the whole age distribution), while halving the distinct
/// kernel rows a study builds and sweeps relative to the previous
/// 32-per-octave grid.
fn quantise_age(age: f64, u: f64) -> u64 {
    (AGE_BUCKETS_PER_OCTAVE * (1.0 + age / u).log2()).round() as u64 // per-plan age-bucket mapping, not a row build
}

/// Centre age of a bucket — the representative the plan is computed from.
fn representative_age(id: u64, u: f64) -> f64 {
    u * ((id as f64 / AGE_BUCKETS_PER_OCTAVE).exp2() - 1.0) // per-plan age-bucket mapping, not a row build
}

impl Policy for DpNextFailure {
    fn name(&self) -> &str {
        "DPNextFailure"
    }

    fn session(&self) -> Box<dyn PolicySession + '_> {
        Box::new(DpNfSession { policy: self, plan: Vec::new().into(), pos: 0 })
    }
}

/// Walks a cached plan by index — the session shares the `Arc` slice with
/// the plan cache, so consuming a schedule performs no per-decision
/// allocation (the old `VecDeque` clone-and-drain did one clone per plan).
struct DpNfSession<'a> {
    policy: &'a DpNextFailure,
    plan: Arc<[f64]>,
    pos: usize,
}

impl PolicySession for DpNfSession<'_> {
    fn next_chunk(&mut self, remaining: f64, ages: &AgeView, _now: f64) -> f64 {
        if self.pos >= self.plan.len() {
            self.plan = self.policy.plan(remaining, ages);
            self.pos = 0;
        }
        let chunk = match self.plan.get(self.pos) {
            Some(&c) => {
                self.pos += 1;
                c
            }
            None => remaining,
        };
        clamp_chunk(chunk, remaining)
    }

    fn on_failure(&mut self) {
        // Invalidate the walked plan; the next decision replans (and
        // usually re-hits the cache for the recurring post-failure state).
        self.pos = self.plan.len();
    }
}

/// Collapse an [`AgeView`] into `(age, processor-count)` pairs according to
/// the compression mode. Counts are `f64` so reference buckets can hold
/// large populations.
pub fn compress_ages(
    ages: &AgeView,
    dist: &dyn FailureDistribution,
    mode: StateCompression,
) -> Vec<(f64, f64)> {
    let mut exact: Vec<(f64, f64)> = ages
        .failed_ages()
        .iter()
        .map(|&(a, n)| (a, f64::from(n)))
        .collect();
    let (pristine_n, pristine_age) = ages.pristine();
    if pristine_n > 0 {
        exact.push((pristine_age, pristine_n as f64));
    }
    exact.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));

    let (n_exact, n_approx) = match mode {
        StateCompression::Exact => return exact,
        StateCompression::Auto => {
            if exact.len() <= 128 {
                return exact;
            }
            let StateCompression::Approximate { n_exact, n_approx } = StateCompression::paper()
            else {
                unreachable!("paper() is Approximate")
            };
            (n_exact, n_approx)
        }
        StateCompression::Approximate { n_exact, n_approx } => (n_exact, n_approx),
    };

    // Split off the n_exact smallest individual processor ages.
    let mut kept: Vec<(f64, f64)> = Vec::new();
    let mut rest: Vec<(f64, f64)> = Vec::new();
    let mut budget = n_exact as f64;
    for (age, count) in exact {
        if budget > 0.0 {
            let take = count.min(budget);
            kept.push((age, take));
            budget -= take;
            if count > take {
                rest.push((age, count - take));
            }
        } else {
            rest.push((age, count));
        }
    }
    if rest.is_empty() {
        return kept;
    }
    let lo = rest.first().expect("non-empty").0;
    let hi = rest.last().expect("non-empty").0;
    let n_approx = n_approx.max(2);
    if hi - lo < 1e-9 || n_approx <= 2 {
        // Degenerate spread: everything lands on the endpoints.
        kept.extend(bucket_onto(&rest, &[lo, hi]));
        return kept;
    }
    // Reference values: endpoints are the extreme remaining ages; interior
    // values are survival-interpolated quantiles (§3.3).
    let s_lo = dist.survival(lo);
    let s_hi = dist.survival(hi);
    let mut refs = Vec::with_capacity(n_approx);
    refs.push(lo);
    for i in 2..n_approx {
        let w_hi = (i - 1) as f64 / (n_approx - 1) as f64;
        let s = (1.0 - w_hi) * s_lo + w_hi * s_hi;
        let s = s.clamp(f64::MIN_POSITIVE, 1.0);
        refs.push(dist.inverse_survival(s));
    }
    refs.push(hi);
    refs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    kept.extend(bucket_onto(&rest, &refs));
    kept.retain(|&(_, c)| c > 0.0);
    kept
}

/// Assign each `(age, count)` to the nearest reference value.
fn bucket_onto(ages: &[(f64, f64)], refs: &[f64]) -> Vec<(f64, f64)> {
    let mut counts = vec![0.0f64; refs.len()];
    for &(age, count) in ages {
        let idx = match refs.binary_search_by(|r| r.partial_cmp(&age).expect("no NaN")) {
            Ok(i) => i,
            Err(i) => {
                if i == 0 {
                    0
                } else if i >= refs.len() {
                    refs.len() - 1
                } else if (refs[i] - age).abs() < (age - refs[i - 1]).abs() {
                    i
                } else {
                    i - 1
                }
            }
        };
        counts[idx] += count;
    }
    refs.iter().copied().zip(counts).filter(|&(_, c)| c > 0.0).collect()
}

/// Ages at least this many grid time-spans old are folded into the
/// combined Chebyshev interpolant instead of being evaluated exactly at
/// every grid cell — see [`FarFit`].
const FAR_AGE_SPANS: f64 = 2.0;

/// Chebyshev-Gauss interpolation points (degree `CHEB_POINTS − 1`).
const CHEB_POINTS: usize = 8;

/// Combined log-survival of all "far" age groups, `Σⱼ cⱼ·ln S(τⱼ + t)`,
/// as one degree-7 Chebyshev interpolant over `t ∈ [0, t_span]`.
///
/// For `τ ≥ 2·t_span` the nearest singularity of `ln S(τ + ·)` (at
/// `t = −τ`) maps to `s ≤ −5` on the fit's `[−1, 1]` axis, a Bernstein
/// radius `ρ = 5 + √24 ≈ 9.9`, so the degree-7 interpolation error is
/// ~`ρ⁻⁸ ≈ 1e-8` of the per-processor log-survival — orders of
/// magnitude under the §3.3 state-compression error the policy already
/// tolerates. For Exponential failures `ln S` is linear in `t` and the
/// fit is exact. Summing the node values *before* taking coefficients
/// collapses any number of far groups into a single polynomial, making
/// the grid fill O(near ages + 1) per cell.
struct FarFit {
    coef: [f64; CHEB_POINTS],
    t_span: f64,
}

impl FarFit {
    /// Fit the combined far-age log-survival. Returns `None` when no age
    /// qualifies (all near, or a node value is non-finite). `near`
    /// receives the entries that must stay exact, tagged with their index
    /// into `ages` so the caller can fetch each one's cached kernel row.
    fn build(
        dist: &dyn FailureDistribution,
        ages: &[(f64, f64)],
        t_span: f64,
        near: &mut Vec<(usize, f64, f64)>,
    ) -> Option<FarFit> {
        let n = CHEB_POINTS;
        // Chebyshev-Gauss nodes mapped onto [0, t_span].
        let mut nodes = [0.0f64; CHEB_POINTS];
        for (k, node) in nodes.iter_mut().enumerate() {
            let theta = std::f64::consts::PI * (k as f64 + 0.5) / n as f64;
            *node = 0.5 * t_span * (1.0 + theta.cos());
        }
        let mut sums = [0.0f64; CHEB_POINTS];
        let mut have_far = false;
        for (idx, &(tau, c)) in ages.iter().enumerate() {
            if tau < FAR_AGE_SPANS * t_span {
                near.push((idx, tau, c));
                continue;
            }
            let mut vals = [0.0f64; CHEB_POINTS];
            let mut finite = true;
            for (v, &t) in vals.iter_mut().zip(&nodes) {
                *v = dist.log_survival(tau + t);
                finite &= v.is_finite();
            }
            if !finite {
                near.push((idx, tau, c));
                continue;
            }
            for (s, v) in sums.iter_mut().zip(&vals) {
                *s += c * v;
            }
            have_far = true;
        }
        if !have_far {
            return None;
        }
        // coef[j] = (2 − δⱼ₀)/n · Σₖ f(tₖ)·cos(j·θₖ).
        let mut coef = [0.0f64; CHEB_POINTS];
        for (j, cj) in coef.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (k, &fk) in sums.iter().enumerate() {
                let theta = std::f64::consts::PI * (k as f64 + 0.5) / n as f64;
                acc += fk * (j as f64 * theta).cos();
            }
            *cj = acc * if j == 0 { 1.0 } else { 2.0 } / n as f64;
        }
        Some(FarFit { coef, t_span })
    }

    /// Lane-wise Clenshaw: four grid cells per call, each lane running
    /// exactly the scalar [`eval`](Self::eval) operation sequence (no
    /// cross-lane reassociation), so the chunked triangle fill below is
    /// bit-identical to a cell-at-a-time loop while the recurrence runs
    /// 4-wide.
    #[inline]
    fn eval4(&self, t: ckpt_math::simd::F64x4) -> ckpt_math::simd::F64x4 {
        use ckpt_math::simd::F64x4;
        // Same per-lane expression as `eval`: `(2·t)/span − 1`, not a
        // reciprocal multiply — the bits must match the scalar tail.
        let s = F64x4([
            2.0 * t.0[0] / self.t_span - 1.0,
            2.0 * t.0[1] / self.t_span - 1.0,
            2.0 * t.0[2] / self.t_span - 1.0,
            2.0 * t.0[3] / self.t_span - 1.0,
        ]);
        let s2 = F64x4::splat(2.0) * s;
        let mut b1 = F64x4::splat(0.0);
        let mut b2 = F64x4::splat(0.0);
        for j in (1..CHEB_POINTS).rev() {
            let b0 = F64x4::splat(self.coef[j]) + s2 * b1 - b2;
            b2 = b1;
            b1 = b0;
        }
        F64x4::splat(self.coef[0]) + s * b1 - b2
    }

    /// Clenshaw evaluation at `t ∈ [0, t_span]`.
    #[inline]
    fn eval(&self, t: f64) -> f64 {
        let s = 2.0 * t / self.t_span - 1.0;
        let s2 = 2.0 * s;
        let mut b1 = 0.0f64;
        let mut b2 = 0.0f64;
        for j in (1..CHEB_POINTS).rev() {
            let b0 = self.coef[j] + s2 * b1 - b2;
            b2 = b1;
            b1 = b0;
        }
        self.coef[0] + s * b1 - b2
    }
}

/// Chunk-depth cap of the value recursion: `V(·, n) ≡ 0` for
/// `n ≥ value_chunk_cap(x_max)`, and the `G`/`E` triangles stop at
/// `m = value_chunk_cap`. The quantum is sized so optimal chunks span
/// ~[`QUANTA_PER_CHUNK`] quanta, and measured plan depths stay below
/// `0.4·x_max` across the repo's cells (Weibull petascale: ≤ 78 chunks
/// at `x_max = 256`; LANL log-based: ≤ 21 at `x_max = 55`), so `max(x_max/2, 32)` keeps ≥ 1.5×
/// headroom while cutting the triangle, the kernel rows, the `E` grid,
/// and the DP table by ~25% on large windows. A plan that would walk
/// past the cap flushes its remaining quanta as one final chunk (no
/// cell we run gets there).
fn value_chunk_cap(x_max: usize) -> usize {
    (x_max / 2).max(32)
}

/// Length of the packed `(a, m)` triangle for a given `x_max`: row `a`
/// holds `m = 0..=min(a+1, cap)`, rows concatenated in ascending `a`,
/// with `cap = value_chunk_cap(x_max)`.
fn triangle_len(x_max: usize) -> usize {
    let cap = value_chunk_cap(x_max);
    if x_max < cap {
        (x_max + 1) * (x_max + 4) / 2
    } else {
        // Rows `a < cap` are full (`a + 2` cells); rows `a ≥ cap` hold
        // `cap + 1` cells each.
        cap * (cap + 3) / 2 + (x_max + 1 - cap) * (cap + 1)
    }
}

/// Start offset of packed-triangle row `a` (see [`triangle_len`]).
#[inline]
fn tri_row_start(a: usize, cap: usize) -> usize {
    if a <= cap {
        a * (a + 3) / 2
    } else {
        cap * (cap + 3) / 2 + (a - cap) * (cap + 1)
    }
}

/// One age bucket's exact log-survival over the DP triangle, in packed
/// triangle order: `row[·] = ln S(τ + a·u + m·C)` for `a = 0..=x_max`,
/// `m = 0..=min(a+1, cap)`. The arithmetic (`t = a·u + m·C` first, then
/// `τ + t`) matches the inline grid fill exactly, and both paths evaluate
/// through [`FailureDistribution::log_survival_batch`], so accumulating
/// cached rows is bit-identical to evaluating in place.
fn compute_row(
    dist: &dyn FailureDistribution,
    tau: f64,
    x_max: usize,
    u: f64,
    checkpoint: f64,
) -> Arc<[f64]> {
    let len = triangle_len(x_max);
    let mut ts = Vec::with_capacity(len);
    fill_triangle_times(&mut ts, tau, x_max, u, checkpoint);
    let mut row = vec![0.0f64; len];
    dist.log_survival_batch(&ts, &mut row);
    row.into()
}

/// Fill `ts` with the triangle's absolute query times `τ + a·u + m·C` in
/// packed order — the one shared construction both the cached row build
/// and the inline sweep use, so their inputs are the same bits.
fn fill_triangle_times(ts: &mut Vec<f64>, tau: f64, x_max: usize, u: f64, checkpoint: f64) {
    let cap = value_chunk_cap(x_max);
    ts.clear();
    ts.reserve(triangle_len(x_max));
    for a in 0..=x_max {
        let au = a as f64 * u;
        for m in 0..=(a + 1).min(cap) {
            let t = au + m as f64 * checkpoint;
            ts.push(tau + t);
        }
    }
}

/// Bottom-up DP solve. Returns the chunk sizes (work seconds) in execution
/// order for the full truncated work `x_max · u`.
#[cfg_attr(not(test), allow(dead_code))]
fn solve(
    dist: &dyn FailureDistribution,
    ages: &[(f64, f64)],
    x_max: usize,
    u: f64,
    checkpoint: f64,
) -> Vec<f64> {
    solve_with_rows(dist, ages, x_max, u, checkpoint, None)
}

/// [`solve`] with an optional kernel-row source: `rows(i)` returns the
/// packed-triangle log-survival row of `ages[i]` (see [`compute_row`]).
/// Supplied rows must be exact — the cached-path and inline-path cell
/// arithmetic is identical, so both produce the same bits.
// Every `[]` below is affine in loop bounds sized from `x_max` and
// `ages.len()`; an out-of-bounds edit panics in the DP tests.
fn solve_with_rows(
    dist: &dyn FailureDistribution,
    ages: &[(f64, f64)],
    x_max: usize,
    u: f64,
    checkpoint: f64,
    rows: Option<&dyn Fn(usize) -> Arc<[f64]>>,
) -> Vec<f64> {
    assert!(u > 0.0, "quantum must be positive");
    // G(a, m) = Σⱼ countⱼ · ln S(τⱼ + a·u + m·C); m ranges one past x_max
    // because the final chunk still pays its checkpoint. Reachable states
    // have n ≤ x_max − x = a and transitions read (a, n) and (a+i, n+1)
    // with i ≥ 1, so only the triangular region m ≤ a + 1 is ever
    // consulted — the upper half of the grid is never filled — and the
    // value recursion is truncated at `m_cap` chunks (see
    // [`value_chunk_cap`]), bounding `m` at `m_cap` too.
    // Both grids are stored m-major (`[m][a]`) so the DP inner loop below,
    // which scans `i` at fixed `n`, touches consecutive memory instead of
    // striding a cache line per iteration.
    let m_cap = value_chunk_cap(x_max);
    let m_top = (x_max + 1).min(m_cap);
    let t_span = x_max as f64 * u + (m_top + 1) as f64 * checkpoint;
    let mut near: Vec<(usize, f64, f64)> = Vec::with_capacity(ages.len());
    let far = FarFit::build(dist, ages, t_span, &mut near);
    // The triangle is accumulated in a packed scratch first — far-fit
    // values, then one contiguous multiply-add pass per near age (cached
    // row when available, in-place evaluation otherwise) — and scattered
    // into the m-major grids at the end. Per cell this performs the same
    // float operations in the same order as a cell-at-a-time fill.
    SOLVE_SCRATCH.with(|cell| {
    let mut scratch = cell.borrow_mut();
    let SolveScratch { tri, etri, ts, row, egrid, value, choice, hull } = &mut *scratch;
    tri.clear();
    tri.resize(triangle_len(x_max), 0.0);
    if let Some(fit) = &far {
        // 4 cells per Clenshaw call ([`FarFit::eval4`]); the tail of each
        // triangle row falls back to the scalar `eval`, whose per-element
        // operations the lane version reproduces exactly.
        const LANES: usize = ckpt_math::simd::LANES;
        let mut i = 0usize;
        for a in 0..=x_max {
            let au = a as f64 * u;
            let len = (a + 2).min(m_cap + 1);
            let mut m = 0usize;
            while m + LANES <= len {
                let t = ckpt_math::simd::F64x4([
                    au + m as f64 * checkpoint,
                    au + (m + 1) as f64 * checkpoint,
                    au + (m + 2) as f64 * checkpoint,
                    au + (m + 3) as f64 * checkpoint,
                ]);
                fit.eval4(t).write_to(&mut tri[i..]);
                m += LANES;
                i += LANES;
            }
            while m < len {
                tri[i] = fit.eval(au + m as f64 * checkpoint);
                m += 1;
                i += 1;
            }
        }
    }
    match rows {
        Some(rows) => {
            // Fused lane-width groups: one read-modify-write sweep of the
            // triangle covers up to LANES cached rows through the
            // explicit `f64x4` kernel. Per element the additions happen
            // in row-index order — the same order as sequential
            // single-row passes, so grouping is bit-invariant — but the
            // triangle's memory traffic drops by the group width, which
            // is what bounds this loop (rows and triangle far exceed L2).
            const LANES: usize = ckpt_math::simd::LANES;
            let mut k = 0usize;
            while k < near.len() {
                let g = (near.len() - k).min(LANES);
                let mut held: [Option<Arc<[f64]>>; LANES] = [const { None }; LANES];
                for (slot, h) in held.iter_mut().enumerate().take(g) {
                    *h = Some(rows(near[k + slot].0));
                }
                let mut group: [(&[f64], f64); LANES] = [(&[], 0.0); LANES];
                for (slot, entry) in group.iter_mut().enumerate().take(g) {
                    let row: &[f64] = held[slot].as_deref().unwrap_or(&[]);
                    debug_assert_eq!(row.len(), tri.len(), "row/triangle shape mismatch");
                    *entry = (row, near[k + slot].2);
                }
                ckpt_math::simd::accumulate_scaled_rows(tri, &group[..g]);
                k += g;
            }
        }
        None => {
            // Inline build: materialise each near row with the same
            // batched evaluation the cached path uses (same query times,
            // same family batch kernel), then accumulate through the same
            // sweep kernel — so supplying cached rows or none produces
            // identical bits.
            for &(_, tau, c) in &near {
                fill_triangle_times(ts, tau, x_max, u, checkpoint);
                row.resize(ts.len(), 0.0);
                dist.log_survival_batch(ts, row);
                ckpt_math::simd::accumulate_scaled_rows(tri, &[(row, c)]);
            }
        }
    }
    // `G` stays in the packed triangle (`gg` below indexes it directly);
    // only the exponentials get the m-major layout the DP scans. Cells
    // outside the triangle are never read, so stale scratch is harmless.
    //
    // The exponentials are taken relative to `G(0, 0) = tri[0]`, the
    // triangle's maximum (`ln S` is non-increasing and counts are
    // positive): `E = exp(G − G(0,0))`. The DP only ever consumes ratios
    // `E(a', m')/E(a, m)` — one transposed-row read over one division —
    // so the common factor cancels, while the offset keeps `E` in
    // (0, 1] even when `exp(G)` itself underflows. Massively-parallel
    // platforms (p ≈ 4096 LANL cells: G ≈ −8000 nats) previously
    // underflowed *every* state into the scalar log-domain fallback;
    // with the offset they ride the hull path. The fallback remains for
    // windows whose G drops more than ~745 nats below G(0,0).
    let g_off = if tri[0].is_finite() { tri[0] } else { 0.0 };
    egrid.resize((m_top + 1) * (x_max + 1), 0.0);
    etri.resize(tri.len(), 0.0);
    ckpt_math::simd::exp_shifted(tri, g_off, etri);
    {
        let mut i = 0usize;
        for a in 0..=x_max {
            for m in 0..=(a + 1).min(m_cap) {
                egrid[m * (x_max + 1) + a] = etri[i];
                i += 1;
            }
        }
    }
    // Packed-triangle row `a` starts at [`tri_row_start`].
    let gg = |a: usize, m: usize| {
        debug_assert!(m <= (a + 1).min(m_cap), "G({a}, {m}) outside the filled triangle");
        tri[tri_row_start(a, m_cap) + m]
    };
    let ee = |a: usize, m: usize| {
        debug_assert!(m <= (a + 1).min(m_cap), "E({a}, {m}) outside the filled triangle");
        egrid[m * (x_max + 1) + a]
    };

    // value[x][n] for n ≤ x_max − x (each chunk consumes ≥ 1 quantum).
    //
    // The transition value is `exp(G(a+i, n+1) − G(a, n)) · (i·u + succ)`.
    // The denominator `exp(G(a, n))` is constant across the inner loop, so
    // the argmax equals that of `T(i) = E(a+i, n+1)·(i·u + succ)` — no
    // exponentials inside the loop, one division per state; the common
    // `exp(−G(0,0))` offset factor in `E` cancels in the division. When
    // `E(a, n)` still underflows (the state's G more than ~745 nats
    // below G(0,0)) the ratio form stays meaningful, so a log-domain
    // fallback loop handles those states exactly from the unoffset
    // triangle.
    // `value`/`choice` are n-major (`[n][x]`) for the same contiguity
    // reason: the hull below reads `value[n+1][j]` with ascending `j`.
    //
    // Inner maximisation via the monotone convex-hull trick: substituting
    // `j = x − i` (quanta left after the chunk) the transition value is
    //
    //   E(x_max−j, n+1)·((x−j)·u + V(j, n+1)) = Q(j) + R(j)·z,
    //   R(j) = E(x_max−j, n+1),  Q(j) = R(j)·(V(j, n+1) − j·u),  z = x·u.
    //
    // Within a column `n` the lines depend only on column n+1 and slopes
    // `R(j)` increase with `j` (an older platform survives less), so an
    // incremental upper hull answers every state cheaply — the DP drops
    // from O(x_max³) to ~O(x_max²). Ties prefer the earlier hull line
    // (smaller `j` = bigger chunk), matching the direct loop's
    // tie-to-larger-`i` rule.
    let stride = x_max + 1;
    // Chunk depths `n ≥ n_cap` are truncated: the deepest computed
    // column reads `V(·, n_cap) = 0`, which the zeroed resize provides.
    let n_cap = x_max.min(m_cap);
    // Column 0 of every row is the V(0, ·) = 0 base case and the row at
    // `n_cap` is read before any write reaches it, so the whole buffer
    // is re-zeroed on reuse. `choice` is only ever read at states the
    // backward pass wrote this solve, so its stale contents don't
    // matter.
    value.clear();
    value.resize((n_cap + 1) * stride, 0.0);
    choice.resize((n_cap + 1) * stride, 0);
    // (slope, intercept, j) lines of the current column's hull.
    hull.clear();
    for n in (0..n_cap).rev() {
        let x_hi = x_max - n;
        let erow = &egrid[(n + 1) * stride..(n + 2) * stride];
        // Rows n (written) and n+1 (read) are disjoint.
        let (vcur, vnext) = value.split_at_mut((n + 1) * stride);
        let vrow = &vnext[..stride];
        hull.clear();
        // Within a column the query point `z = x·u` increases with `x`
        // and hull slopes increase with insertion order, so the winning
        // line's index never moves left: a pointer that only advances
        // (clamped when pops shorten the hull) lands on the same earliest
        // peak the binary search found, in amortised O(1).
        let mut best = 0usize;
        for x in 1..=x_hi {
            // Line j = x − 1 becomes a valid transition target at this x.
            let j = x - 1;
            let r = erow[x_max - j];
            let q = r * (vrow[j] - j as f64 * u);
            // Equal slopes: keep the better intercept; ties keep the
            // earlier (smaller-j) line.
            let mut push = true;
            if let Some(&(tr, tq, _)) = hull.last() {
                #[expect(clippy::float_cmp, reason = "equal slopes are exact bits: both are read from the same `erow` array")]
                if r == tr {
                    if q > tq {
                        hull.pop();
                    } else {
                        push = false;
                    }
                }
            }
            if push {
                // Pop lines that never win once the new one exists: with
                // A below B on the stack and C new, B is useless when C
                // overtakes B no later than B overtakes A.
                while hull.len() >= 2 {
                    let (ar, aq, _) = hull[hull.len() - 2];
                    let (br, bq, _) = hull[hull.len() - 1];
                    // z_BC ≤ z_AB ⟺ (bq − q)(br − ar) ≤ (aq − bq)(r − br)
                    if (bq - q) * (br - ar) <= (aq - bq) * (r - br) {
                        hull.pop();
                    } else {
                        break;
                    }
                }
                hull.push((r, q, j as u32));
            }
            let z = x as f64 * u;
            let a = x_max - x;
            let e_base = ee(a, n);
            if e_base > 0.0 {
                // Hull values at fixed `z` rise to a single peak and then
                // fall (consecutive differences change sign once); strict
                // `>` lands on the earliest peak line on exact ties.
                if best >= hull.len() {
                    best = hull.len() - 1;
                }
                while best + 1 < hull.len() {
                    let (r0, q0, _) = hull[best];
                    let (r1, q1, _) = hull[best + 1];
                    if q1 + r1 * z > q0 + r0 * z {
                        best += 1;
                    } else {
                        break;
                    }
                }
                let (r0, q0, j0) = hull[best];
                vcur[n * stride + x] = (q0 + r0 * z) / e_base;
                choice[n * stride + x] = x as u32 - j0;
            } else {
                // exp(G(a, n) − G(0,0)) underflowed (state survival more
                // than ~745 nats below the window's start): fall back to
                // the exact log-domain ratio form on the unoffset G.
                let base = gg(a, n);
                let mut best = f64::NEG_INFINITY;
                let mut best_i = x as u32;
                for i in 1..=x {
                    // ln Psuc of executing i quanta + checkpoint.
                    let lp = gg(a + i, n + 1) - base;
                    let succ = if x - i >= 1 { vrow[x - i] } else { 0.0 };
                    let cur = lp.exp() * (i as f64 * u + succ); // audited log→linear conversion of an exact G row
                    // `>=` so ties (all-zero survival) prefer big chunks.
                    if cur >= best {
                        best = cur;
                        best_i = i as u32;
                    }
                }
                vcur[n * stride + x] = best;
                choice[n * stride + x] = best_i;
            }
        }
    }

    // Walk the optimal schedule from (x_max, 0).
    let mut chunks = Vec::new();
    let mut x = x_max;
    let mut n = 0usize;
    while x > 0 {
        if n >= n_cap {
            // Past the truncated value recursion (no plan on our cells
            // gets here — the cap keeps ≥1.5× headroom over measured
            // depths): flush the remainder as one final chunk.
            chunks.push(x as f64 * u);
            break;
        }
        let i = choice[n * stride + x] as usize;
        chunks.push(i as f64 * u);
        x -= i;
        n += 1;
    }
    chunks
    })
}

/// Reusable backing storage for [`solve_with_rows`]. One solve touches a
/// few MB of triangle/grid/DP-table scratch; allocating (and kernel-
/// zeroing) that per solve dominated the solve's own arithmetic, so each
/// thread keeps one set of buffers warm across solves.
#[derive(Default)]
struct SolveScratch {
    tri: Vec<f64>,
    /// `exp(tri − G(0,0))` in packed triangle order, before the m-major
    /// scatter.
    etri: Vec<f64>,
    /// Triangle query times of the inline (row-less) build.
    ts: Vec<f64>,
    /// One materialised log-survival row of the inline build.
    row: Vec<f64>,
    egrid: Vec<f64>,
    value: Vec<f64>,
    choice: Vec<u32>,
    hull: Vec<(f64, f64, u32)>,
}

thread_local! {
    static SOLVE_SCRATCH: std::cell::RefCell<SolveScratch> =
        std::cell::RefCell::new(SolveScratch::default());
}

/// The expected work completed by a given schedule (Proposition 3's
/// objective) — exposed for tests and the ablation benches.
pub fn expected_work_of_schedule(
    dist: &dyn FailureDistribution,
    ages: &[(f64, f64)],
    schedule: &[f64],
    checkpoint: f64,
) -> f64 {
    let mut elapsed = 0.0;
    let mut total = 0.0;
    let g = |t: f64| -> f64 {
        ages.iter().map(|&(tau, c)| c * dist.log_survival(tau + t)).sum::<f64>()
    };
    let g0 = g(0.0);
    for &w in schedule {
        elapsed += w + checkpoint;
        let log_p = g(elapsed) - g0;
        total += w * log_p.exp(); // audited log→linear conversion of an exact G row
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_dist::{Exponential, Weibull};

    const DAY: f64 = 86_400.0;
    const YEAR: f64 = 365.25 * DAY;

    fn small_config(quanta: usize) -> DpNextFailureConfig {
        DpNextFailureConfig { quanta: Some(quanta), ..Default::default() }
    }

    #[test]
    fn auto_quanta_scales_with_mtbf_over_checkpoint() {
        assert!(auto_quanta(600.0, 3_600.0) < auto_quanta(600.0, 7.0 * 86_400.0));
        // Clamped to the [40, 256] band.
        assert_eq!(auto_quanta(600.0, 1.0), 40);
        assert_eq!(auto_quanta(1.0, 1e12), 256);
    }

    #[test]
    fn plan_cache_hits_identical_states() {
        let spec = JobSpec::table1_single_processor();
        let dp = DpNextFailure::new(
            &spec,
            Box::new(Weibull::from_mtbf(0.7, DAY)),
            DAY,
            small_config(50),
        );
        let ages = AgeView::single(660.0);
        let a = dp.plan(spec.work, &ages);
        let b = dp.plan(spec.work, &ages);
        assert_eq!(a, b);
    }

    #[test]
    fn schedule_covers_truncated_work() {
        let spec = JobSpec::table1_single_processor();
        let dp = DpNextFailure::new(
            &spec,
            Box::new(Exponential::from_mtbf(DAY)),
            DAY,
            DpNextFailureConfig { use_half_schedule: false, ..small_config(60) },
        );
        let ages = AgeView::single(0.0);
        let plan = dp.plan(spec.work, &ages);
        let total: f64 = plan.iter().sum();
        let expect = (2.0 * DAY).min(spec.work);
        assert!((total - expect).abs() < 1e-6, "planned {total}, expected {expect}");
    }

    #[test]
    fn half_schedule_keeps_half_when_truncated() {
        let spec = JobSpec::table1_single_processor();
        let full = DpNextFailure::new(
            &spec,
            Box::new(Exponential::from_mtbf(DAY)),
            DAY,
            DpNextFailureConfig { use_half_schedule: false, ..small_config(60) },
        );
        let half = DpNextFailure::new(
            &spec,
            Box::new(Exponential::from_mtbf(DAY)),
            DAY,
            small_config(60),
        );
        let ages = AgeView::single(0.0);
        let f = full.plan(spec.work, &ages);
        let h = half.plan(spec.work, &ages);
        assert_eq!(h.len(), f.len().div_ceil(2));
        assert_eq!(&f[..h.len()], &h[..]);
    }

    #[test]
    fn exponential_chunks_near_optexp_period() {
        // For Exponential failures the retained (half-schedule) chunks sit
        // near the Theorem-1 period. (The full NextFailure schedule tapers
        // towards the window end — locking in small wins costs nothing in
        // that objective — which is exactly why the paper discards the
        // second half, §3.3.)
        let spec = JobSpec::table1_single_processor();
        let mtbf = DAY;
        let dp = DpNextFailure::new(
            &spec,
            Box::new(Exponential::from_mtbf(mtbf)),
            mtbf,
            small_config(120),
        );
        let ages = AgeView::single(0.0);
        let plan = dp.plan(spec.work, &ages);
        let opt = crate::OptExp::new(&spec, 1.0 / mtbf).period();
        for &c in plan.iter() {
            assert!(
                (0.5 * opt..2.0 * opt).contains(&c),
                "chunk {c} far from OptExp period {opt}"
            );
        }
    }

    #[test]
    fn full_schedule_tapers_half_schedule_does_not() {
        let spec = JobSpec::table1_single_processor();
        let mtbf = DAY;
        let mk = |half: bool| {
            let dp = DpNextFailure::new(
                &spec,
                Box::new(Exponential::from_mtbf(mtbf)),
                mtbf,
                DpNextFailureConfig { use_half_schedule: half, ..small_config(120) },
            );
            dp.plan(spec.work, &AgeView::single(0.0))
        };
        let full = mk(false);
        let half = mk(true);
        // The discarded tail contains the smallest chunks.
        let min_full = full.iter().copied().fold(f64::INFINITY, f64::min);
        let min_half = half.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(min_half > min_full, "half {min_half} vs full {min_full}");
    }

    #[test]
    fn weibull_young_platform_schedules_growing_chunks() {
        // Fresh platform, k < 1: hazard decays, so later chunks can be
        // longer — §5.2.2 reports DPNextFailure growing its intervals.
        let spec = JobSpec::table1_petascale(45_208);
        let proc = Weibull::from_mtbf(0.7, 125.0 * YEAR);
        let dp = DpNextFailure::new(
            &spec,
            Box::new(proc),
            125.0 * YEAR,
            DpNextFailureConfig { use_half_schedule: false, ..small_config(120) },
        );
        let ages = AgeView::all_pristine(45_208, 60.0);
        let plan = dp.plan(spec.work, &ages);
        assert!(plan.len() >= 3, "plan too short: {plan:?}");
        let first = plan[0];
        let last = plan[plan.len() - 2];
        assert!(last >= first, "chunks should not shrink: {first} → {last}");
    }

    #[test]
    fn dp_beats_fixed_period_on_objective() {
        // The DP schedule's expected-work must dominate any equal-chunk
        // schedule of the same total (it is optimal up to quantisation).
        let spec = JobSpec::table1_single_processor();
        let mtbf = 6.0 * 3_600.0;
        let dist = Weibull::from_mtbf(0.7, mtbf);
        let dp = DpNextFailure::new(
            &spec,
            Box::new(dist),
            mtbf,
            DpNextFailureConfig { use_half_schedule: false, ..small_config(100) },
        );
        let ages = AgeView::single(0.0);
        let plan = dp.plan(spec.work, &ages);
        let total: f64 = plan.iter().sum();
        let aged = compress_ages(&ages, &dist, StateCompression::Exact);
        let dp_value = expected_work_of_schedule(&dist, &aged, &plan, spec.checkpoint);
        for k in [2usize, 5, 10, 20, 50] {
            let uniform: Vec<f64> = vec![total / k as f64; k];
            let v = expected_work_of_schedule(&dist, &aged, &uniform, spec.checkpoint);
            assert!(
                dp_value >= v - 1e-9 * dp_value.abs().max(1.0),
                "uniform K={k} schedule beats DP: {v} > {dp_value}"
            );
        }
    }

    #[test]
    fn session_replans_after_failure() {
        let spec = JobSpec::table1_single_processor();
        let dp = DpNextFailure::new(
            &spec,
            Box::new(Weibull::from_mtbf(0.7, DAY)),
            DAY,
            small_config(40),
        );
        let mut s = dp.session();
        let fresh = AgeView::single(0.0);
        let c1 = s.next_chunk(spec.work, &fresh, 0.0);
        assert!(c1 > 0.0);
        s.on_failure();
        // After a failure the age is small again; a fresh plan is made
        // (exercise the path; exact equality is not required).
        let after = AgeView::single(spec.recovery);
        let c2 = s.next_chunk(spec.work - c1, &after, 5_000.0);
        assert!(c2 > 0.0);
    }

    #[test]
    fn compression_exact_round_trips_ageview() {
        let dist = Weibull::from_mtbf(0.7, 1000.0);
        let view = AgeView::new(vec![(5.0, 2), (80.0, 1)], 7, 500.0);
        let c = compress_ages(&view, &dist, StateCompression::Exact);
        let total: f64 = c.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 10.0);
        assert_eq!(c[0], (5.0, 2.0));
        assert_eq!(c.last().copied(), Some((500.0, 7.0)));
    }

    #[test]
    fn compression_keeps_smallest_exact() {
        let dist = Weibull::from_mtbf(0.7, 1000.0);
        let failed: Vec<(f64, u32)> = (0..50).map(|i| (10.0 + i as f64 * 7.0, 1)).collect();
        let view = AgeView::new(failed, 1000, 5_000.0);
        let c = compress_ages(
            &view,
            &dist,
            StateCompression::Approximate { n_exact: 10, n_approx: 20 },
        );
        // The ten smallest ages survive exactly.
        for i in 0..10 {
            assert!(c.iter().any(|&(a, _)| (a - (10.0 + i as f64 * 7.0)).abs() < 1e-9));
        }
        // Total processor count is conserved.
        let total: f64 = c.iter().map(|&(_, n)| n).sum();
        assert!((total - 1050.0).abs() < 1e-9);
        // And the state is genuinely compressed.
        assert!(c.len() <= 10 + 20);
    }

    #[test]
    fn compression_error_is_small_paper_claim() {
        // §3.3: worst relative error of the approximated success
        // probability below 0.2 % for chunks up to the platform MTBF.
        let proc_mtbf = 125.0 * YEAR;
        let dist = Weibull::from_mtbf(0.7, proc_mtbf);
        let p = 45_208u64;
        // A plausible mid-execution state: 40 failed processors.
        let failed: Vec<(f64, u32)> =
            (0..40).map(|i| ((i as f64 + 1.0) * 20_000.0, 1)).collect();
        let view = AgeView::new(failed, p - 40, 2.0 * YEAR);
        let exact = compress_ages(&view, &dist, StateCompression::Exact);
        let approx = compress_ages(&view, &dist, StateCompression::paper());
        let platform_mtbf = proc_mtbf / p as f64;
        for i in 0..=6u32 {
            let x = platform_mtbf / f64::from(1u32 << i);
            let lp = |ages: &[(f64, f64)]| -> f64 {
                ages.iter()
                    .map(|&(tau, c)| {
                        c * (dist.log_survival(tau + x) - dist.log_survival(tau))
                    })
                    .sum()
            };
            let pe = lp(&exact).exp();
            let pa = lp(&approx).exp();
            let rel = (pa - pe).abs() / pe;
            assert!(rel < 2e-3, "chunk MTBF/2^{i}: rel error {rel}");
        }
    }

    /// Direct O(x_max³) log-domain reference of the DP recurrence, kept
    /// deliberately naive: no grid transposition, no hull trick, no
    /// far-age interpolant.
    fn solve_reference(
        dist: &dyn FailureDistribution,
        ages: &[(f64, f64)],
        x_max: usize,
        u: f64,
        checkpoint: f64,
    ) -> Vec<f64> {
        let g = |a: usize, m: usize| -> f64 {
            let t = a as f64 * u + m as f64 * checkpoint;
            ages.iter().map(|&(tau, c)| c * dist.log_survival(tau + t)).sum()
        };
        let stride = x_max + 1;
        let mut value = vec![0.0f64; stride * stride];
        let mut choice = vec![0u32; stride * stride];
        for x in 1..=x_max {
            for n in 0..=(x_max - x) {
                let a = x_max - x;
                let base = g(a, n);
                let mut best = f64::NEG_INFINITY;
                let mut best_i = x as u32;
                for i in 1..=x {
                    let lp = g(a + i, n + 1) - base;
                    let succ = if x - i >= 1 { value[(x - i) * stride + n + 1] } else { 0.0 };
                    let cur = lp.exp() * (i as f64 * u + succ);
                    if cur >= best {
                        best = cur;
                        best_i = i as u32;
                    }
                }
                value[x * stride + n] = best;
                choice[x * stride + n] = best_i;
            }
        }
        let mut chunks = Vec::new();
        let (mut x, mut n) = (x_max, 0usize);
        while x > 0 {
            let i = choice[x * stride + n] as usize;
            chunks.push(i as f64 * u);
            x -= i;
            n += 1;
        }
        chunks
    }

    #[test]
    fn hull_solver_matches_direct_reference() {
        // The optimised solver (hull trick + far-age interpolant +
        // transposed grids) must produce schedules of the same objective
        // value as the naive recurrence, across shapes and age states.
        for &shape in &[0.5, 0.7, 1.0, 1.3] {
            for &mtbf in &[20_000.0, 200_000.0] {
                let dist = Weibull::from_mtbf(shape, mtbf);
                let age_sets: Vec<Vec<(f64, f64)>> = vec![
                    vec![(0.0, 1.0)],
                    vec![(500.0, 2.0), (90_000.0, 5.0)],
                    // Mix of near and far ages relative to the window.
                    vec![(100.0, 1.0), (5.0e6, 30.0), (9.0e7, 100.0)],
                ];
                for ages in &age_sets {
                    for &x_max in &[12usize, 25, 40] {
                        let u = 40_000.0 / x_max as f64;
                        let fast = solve(&dist, ages, x_max, u, 600.0);
                        let slow = solve_reference(&dist, ages, x_max, u, 600.0);
                        let vf = expected_work_of_schedule(&dist, ages, &fast, 600.0);
                        let vs = expected_work_of_schedule(&dist, ages, &slow, 600.0);
                        assert!(
                            (vf - vs).abs() <= 1e-9 * vs.abs().max(1.0),
                            "shape {shape} mtbf {mtbf} x_max {x_max} ages {ages:?}: \
                             fast {vf} vs reference {vs}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn expected_work_monotone_in_success() {
        // Sanity of the objective helper: a schedule with zero checkpoint
        // cost completes more expected work than with a large one.
        let dist = Exponential::from_mtbf(1000.0);
        let ages = [(0.0, 1.0)];
        let sched = [100.0, 100.0, 100.0];
        let cheap = expected_work_of_schedule(&dist, &ages, &sched, 0.0);
        let costly = expected_work_of_schedule(&dist, &ages, &sched, 300.0);
        assert!(cheap > costly);
    }
}
