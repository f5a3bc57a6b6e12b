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
//! * **state compression** — once the distinct-age set passes 128
//!   entries, all but the `n_exact = 10` smallest processor ages are
//!   approximated by `n_approx = 100` reference quantiles
//!   ([`compress_ages`]). Our [`AgeView`] already collapses never-failed
//!   processors, so the exact set is usually small and is itself the
//!   precision baseline of the paper's ≤0.2 % error study (pinned by the
//!   `compression_error_stays_within_paper_bound_as_failures_accumulate`
//!   test below).

use crate::plan_cache::{DistId, DpCaches, KernelRowKey, PlanKey};
use crate::{clamp_chunk, AgeView, Policy, PolicySession};
use ckpt_dist::FailureDistribution;
use ckpt_workload::JobSpec;
use std::sync::Arc;

/// Tunables of the DP.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DpNextFailureConfig {
    /// Number of quanta the (truncated) work is divided into; the quantum
    /// is `u = W_trunc / quanta`. More quanta = finer chunks, higher cost.
    /// `None` picks a resolution automatically so that the expected
    /// optimal chunk (Young's order of magnitude, `√(2CM)`) spans
    /// [`QUANTA_PER_CHUNK`] quanta — see [`auto_quanta`].
    pub quanta: Option<usize>,
}

/// §3.3's work truncation, in platform-MTBF multiples: each plan covers
/// at most `2·MTBF/p` of work, and only the first half of a truncated
/// plan is executed before replanning.
pub const TRUNCATION_MTBF_MULTIPLE: f64 = 2.0;

/// Distinct `(age, count)` entries kept exact before §3.3's compression
/// engages — failure-dense platforms (the log-based runs of §6) would
/// otherwise pay O(#failures) per grid point.
const EXACT_AGES_MAX: usize = 128;

/// §3.3: the number of smallest processor ages kept exact.
const N_EXACT: usize = 10;

/// §3.3: the number of survival-quantile reference ages the rest map onto.
const N_APPROX: usize = 100;

/// Maximum chunks a single plan looks ahead. Beyond ~32 chunks the tail
/// of a schedule is almost never reached before a failure or a replan, so
/// the planning window is capped at `32·√(2CM)` even when `2M` (the
/// paper's truncation) is larger — this keeps the quantum fine relative
/// to the chunk size on small platforms whose MTBF is enormous.
pub const MAX_PLAN_CHUNKS: f64 = 32.0;

/// Quanta per estimated chunk in the auto configuration.
pub const QUANTA_PER_CHUNK: f64 = 8.0;

/// Planning window for one DP invocation: `min(2·M, 32·√(2CM))`.
pub fn planning_window(checkpoint: f64, platform_mtbf: f64) -> f64 {
    let c = checkpoint.max(1.0);
    let chunk_est = (2.0 * c * platform_mtbf).sqrt();
    (TRUNCATION_MTBF_MULTIPLE * platform_mtbf).min(MAX_PLAN_CHUNKS * chunk_est)
}

/// Auto-sized quantum count: ~8 quanta per estimated chunk `√(2CM)`
/// across the planning window, clamped to `[40, 256]` (DP cost grows
/// cubically in the count).
pub fn auto_quanta(checkpoint: f64, platform_mtbf: f64) -> usize {
    let c = checkpoint.max(1.0);
    let chunk_est = (2.0 * c * platform_mtbf).sqrt();
    let window = planning_window(checkpoint, platform_mtbf);
    let q = QUANTA_PER_CHUNK * window / chunk_est;
    (q as usize).clamp(40, 256)
}

/// The `DPNextFailure` policy.
pub struct DpNextFailure {
    dist: Box<dyn FailureDistribution>,
    dist_id: DistId,
    spec: JobSpec,
    platform_mtbf: f64,
    x_max: usize,
    /// Shared plan/kernel-row memo layers (see [`crate::plan_cache`]).
    /// Plans are keyed by the full quantised planning state — distribution
    /// identity, exact quantum bits, truncation, age buckets — so every
    /// instance with the same state reuses the same solve. One-age states
    /// recur with identical keys (after a failure the age is `D + R` plus
    /// small cascades), so their plans hit often even for age-dependent
    /// distributions; multi-age states practically never recur whole, so
    /// only their per-bucket kernel rows are memoised (see
    /// [`plan`](Self::plan)).
    caches: DpCaches,
    /// [`FailureDistribution::is_memoryless`] of `dist`: the planning
    /// state is the platform size alone, so the ages are never read.
    memoryless: bool,
}

impl std::fmt::Debug for DpNextFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpNextFailure")
            .field("spec", &self.spec)
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
        let platform_mtbf = proc_mtbf / spec.procs as f64;
        let x_max = match config.quanta {
            Some(q) => {
                assert!(q >= 2, "need at least 2 quanta");
                q
            }
            None => auto_quanta(spec.checkpoint, platform_mtbf),
        };
        let dist_id = DistId::of(dist.as_ref());
        let memoryless = dist.is_memoryless();
        Self {
            dist,
            dist_id,
            spec: *spec,
            platform_mtbf,
            x_max,
            caches,
            memoryless,
        }
    }

    /// The quantum count in effect (after auto-selection).
    pub fn quanta(&self) -> usize {
        self.x_max
    }

    /// Plan a chunk schedule for `remaining` work given the age snapshot.
    /// Public so the solver can be unit-tested and benchmarked directly.
    ///
    /// The plan is computed from the *quantised* state (ages mapped onto a
    /// geometric bucket grid, [`quantise_age`]), a pure function of its
    /// [`PlanKey`], so any execution order — and any other policy instance
    /// with the same distribution identity — reproduces the identical
    /// plan for the same key. Every state is looked up in the shared
    /// [`DpCaches`] plan layer (so its miss count is the solve count), and
    /// the state's shape and failure law pick the memo layer that can pay
    /// off:
    ///
    /// * a **one-age** state (at most one bucket) memoises its plan and
    ///   solves inline. Its plan key fixes its only kernel-row key, so the
    ///   plan layer always answers before a cached row could be read.
    ///   Every state of a [memoryless](FailureDistribution::is_memoryless)
    ///   law is one-age by construction (see [`plan_key`](Self::plan_key)),
    ///   so its plans recur across decisions and traces.
    /// * a **multi-age** state memoises no plan: whole multi-age states
    ///   practically never recur, while their per-bucket rows do, across
    ///   states and traces. It reads and fills the shared kernel rows.
    ///
    /// Both paths build each row through [`fill_triangle_times`] and
    /// `log_survival_batch`, so the choice never changes a plan's bits.
    /// The returned `Arc` slice is shared with the cache: consuming a
    /// plan allocates nothing.
    pub fn plan(&self, remaining: f64, ages: &AgeView) -> Arc<[f64]> {
        let key = self.plan_key(remaining, ages);
        if let Some(hit) = self.caches.plans.get(&key) {
            return hit;
        }
        let one_age = key.buckets.len() <= 1;
        let chunks = self.solve_key(&key, !one_age);
        if one_age {
            self.caches.plans.insert(key, chunks.clone());
        }
        chunks
    }

    /// The quantised planning state of [`plan`](Self::plan). The exact
    /// quantum bits key the truncated work (`window/x_max` when the full
    /// window applies, proportionally smaller in the endgame) so
    /// unequal-work states can never collide.
    ///
    /// A law that [is memoryless](FailureDistribution::is_memoryless) is
    /// keyed on the platform size alone: `ln S(τ + t) − ln S(τ) = −λ·t`
    /// for every age `τ`, so in exact arithmetic every age state has the
    /// same `G(a, m) − G(0, 0) = −p·λ·(a·u + m·C)`, and the state is `p`
    /// processors in bucket 0 (representative age 0). That skips the
    /// O(failures) compression and quantisation per decision. The two
    /// `G` triangles differ by rounding, so the plans' equality is
    /// checked (`memoryless_plan_ignores_ages_bit_for_bit`, the goldens),
    /// not proven. Every other law is keyed on its
    /// [age buckets](Self::age_buckets).
    fn plan_key(&self, remaining: f64, ages: &AgeView) -> PlanKey {
        let window = planning_window(self.spec.checkpoint, self.platform_mtbf);
        let w_full = remaining.min(window);
        let truncated = w_full < remaining - 1e-9;
        let u = w_full / self.x_max as f64;
        let buckets = if self.memoryless {
            vec![(0, ages.proc_count())]
        } else {
            self.age_buckets(ages, u)
        };
        PlanKey {
            dist: self.dist_id,
            u_bits: u.to_bits(),
            checkpoint_bits: self.spec.checkpoint.to_bits(),
            x_max: self.x_max as u32,
            truncated,
            buckets,
        }
    }

    /// The age state on quantum `u`: ages compressed ([`compress_ages`]),
    /// mapped onto the geometric age grid ([`quantise_age`]) and counts
    /// merged per bucket.
    fn age_buckets(&self, ages: &AgeView, u: f64) -> Vec<(u64, u64)> {
        let compressed = compress_ages(ages, self.dist.as_ref());
        let mut buckets: Vec<(u64, u64)> = Vec::with_capacity(compressed.len());
        for &(age, count) in &compressed {
            let id = quantise_age(age, u);
            let count = count.round() as u64; // per-plan count merge, one per age group
            if count == 0 {
                continue;
            }
            match buckets.last_mut() {
                Some(last) if last.0 == id => last.1 += count,
                _ => buckets.push((id, count)),
            }
        }
        buckets
    }

    /// Solve the state `key` on its representative ages — a pure function
    /// of the key, so concurrent sessions agree on a plan no matter which
    /// one computes it first. With `cached_rows` the kernel rows (exact
    /// per-bucket log-survival over the DP triangle) come from the shared
    /// row layer: a bucket seen by any earlier solve on the same grid
    /// costs one memoised lookup instead of a triangle of `powf` calls.
    fn solve_key(&self, key: &PlanKey, cached_rows: bool) -> Arc<[f64]> {
        let x_max = self.x_max;
        let u = f64::from_bits(key.u_bits);
        let checkpoint = self.spec.checkpoint;
        let representative: Vec<(f64, f64)> = key
            .buckets
            .iter()
            .map(|&(id, count)| (representative_age(id, u), count as f64))
            .collect();
        let row_for = |age_index: usize| -> Arc<[f64]> {
            let (bucket, _) = key.buckets[age_index];
            let row_key = KernelRowKey {
                dist: self.dist_id,
                u_bits: key.u_bits,
                checkpoint_bits: key.checkpoint_bits,
                x_max: key.x_max,
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
        let rows: Option<&dyn Fn(usize) -> Arc<[f64]>> =
            if cached_rows { Some(&row_for) } else { None };
        let chunks =
            solve_with_rows(self.dist.as_ref(), &representative, x_max, u, checkpoint, rows);
        // §3.3: when the work was truncated, keep only the first half of
        // the chunks to avoid end-of-horizon artefacts.
        if key.truncated && chunks.len() > 1 {
            let keep = chunks.len().div_ceil(2);
            chunks[..keep].into()
        } else {
            chunks.into()
        }
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
    /// A memoryless law plans on the processor count alone, which the
    /// simulator's all-pristine view carries without an O(failures)
    /// snapshot.
    fn wants_ages(&self) -> bool {
        !self.policy.memoryless
    }

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

/// Collapse an [`AgeView`] into ascending `(age, processor-count)` pairs:
/// every distinct age with its exact multiplicity while there are at most
/// 128 of them, §3.3's (10, 100) scheme beyond.
/// Counts are `f64` so reference buckets can hold large populations.
pub fn compress_ages(ages: &AgeView, dist: &dyn FailureDistribution) -> Vec<(f64, f64)> {
    let exact = exact_ages(ages);
    if exact.len() <= EXACT_AGES_MAX {
        exact
    } else {
        approximate_ages(exact, dist)
    }
}

/// Every distinct age of `ages` with its multiplicity, ascending.
fn exact_ages(ages: &AgeView) -> Vec<(f64, f64)> {
    let failed = ages.failed_ages();
    let mut exact: Vec<(f64, f64)> = Vec::with_capacity(failed.len() + 1);
    exact.extend(failed.iter().map(|&(a, n)| (a, f64::from(n))));
    let (pristine_n, pristine_age) = ages.pristine();
    if pristine_n > 0 {
        // The failed ages are ascending: merge the pristine entry in after
        // any equal failed age, where a stable sort would place it.
        let at = exact.partition_point(|e| e.0 <= pristine_age);
        exact.insert(at, (pristine_age, pristine_n as f64));
    }
    exact
}

/// §3.3's scheme on an ascending `(age, count)` list: keep the
/// [`N_EXACT`] smallest processor ages exact and map the rest onto
/// [`N_APPROX`] survival-quantile reference values.
fn approximate_ages(exact: Vec<(f64, f64)>, dist: &dyn FailureDistribution) -> Vec<(f64, f64)> {
    // Split off the N_EXACT smallest individual processor ages.
    let mut kept: Vec<(f64, f64)> = Vec::new();
    let mut rest: Vec<(f64, f64)> = Vec::new();
    let mut budget = N_EXACT as f64;
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
    if hi - lo < 1e-9 {
        // Degenerate spread: everything lands on the endpoints.
        kept.extend(bucket_onto(&rest, &[lo, hi]));
        return kept;
    }
    // Reference values: endpoints are the extreme remaining ages; interior
    // values are survival-interpolated quantiles (§3.3).
    let s_lo = dist.survival(lo);
    let s_hi = dist.survival(hi);
    let mut refs = Vec::with_capacity(N_APPROX);
    refs.push(lo);
    for i in 2..N_APPROX {
        let w_hi = (i - 1) as f64 / (N_APPROX - 1) as f64;
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

/// The `(a, m)` cells the DP reads — `m ≤ min(a + 1, cap)` for
/// `a = 0..=x_max`, with `cap = value_chunk_cap(x_max)` — packed column
/// by column: column `m` holds `a = max(m, 1) − 1 ..= x_max`, ascending.
/// The value recursion scans `a` at fixed `m`, so `G`, its exponential
/// grid and every kernel row share this one layout and the DP reads
/// them contiguously.
#[derive(Debug, Clone, Copy)]
struct Triangle {
    x_max: usize,
    /// Last column: `min(x_max + 1, cap)`.
    m_top: usize,
}

impl Triangle {
    fn new(x_max: usize) -> Self {
        Self { x_max, m_top: (x_max + 1).min(value_chunk_cap(x_max)) }
    }

    /// Cell count.
    fn len(self) -> usize {
        self.col_start(self.m_top + 1)
    }

    /// Smallest `a` of column `m`.
    fn a_lo(m: usize) -> usize {
        m.saturating_sub(1)
    }

    /// Offset of column `m`: column 0 holds `x_max + 1` cells, column
    /// `m ≥ 1` holds `x_max + 2 − m`.
    fn col_start(self, m: usize) -> usize {
        match m {
            0 => 0,
            m => (self.x_max + 1) + (m - 1) * (self.x_max + 2) - (m - 1) * m / 2,
        }
    }

    /// Offset of cell `(a, m)`.
    #[inline]
    fn at(self, a: usize, m: usize) -> usize {
        debug_assert!(m <= (a + 1).min(self.m_top), "({a}, {m}) outside the triangle");
        self.col_start(m) + a - Self::a_lo(m)
    }
}

/// Cells per batched log-survival evaluation of [`log_survival_chunks`].
const ROW_CHUNK: usize = 64;

/// Evaluate one age's log-survival over the triangle in fixed-size
/// chunks: `ln S(τ + (a·u + m·C))` for each cell, through
/// [`FailureDistribution::log_survival_batch`] on at most [`ROW_CHUNK`]
/// cells of one column at a time, handing `f` each chunk's packed
/// offset and values. The cached row build and the inline solve both
/// evaluate through here, so they see the same query times and the same
/// batch kernel — the same bits — without materialising the times or a
/// whole row. `a` is counted as an `i32` (the same `a as f64` value):
/// free of the unsigned conversion, the time fill vectorises.
fn log_survival_chunks(
    dist: &dyn FailureDistribution,
    tau: f64,
    shape: Triangle,
    u: f64,
    checkpoint: f64,
    mut f: impl FnMut(usize, &[f64]),
) {
    let mut ts = [0.0f64; ROW_CHUNK];
    let mut vals = [0.0f64; ROW_CHUNK];
    for m in 0..=shape.m_top {
        let mc = m as f64 * checkpoint;
        let mut at = shape.col_start(m);
        let mut a = Triangle::a_lo(m);
        while a <= shape.x_max {
            let k = (shape.x_max + 1 - a).min(ROW_CHUNK);
            for (t, ai) in ts[..k].iter_mut().zip(a as i32..) {
                *t = tau + (f64::from(ai) * u + mc);
            }
            dist.log_survival_batch(&ts[..k], &mut vals[..k]);
            f(at, &vals[..k]);
            at += k;
            a += k;
        }
    }
}

/// One age bucket's exact log-survival over the DP triangle, in
/// [`Triangle`] order: `row[·] = ln S(τ + a·u + m·C)`. Built through
/// [`log_survival_chunks`] like the inline solve, so accumulating cached
/// rows is bit-identical to evaluating in place.
fn compute_row(
    dist: &dyn FailureDistribution,
    tau: f64,
    x_max: usize,
    u: f64,
    checkpoint: f64,
) -> Arc<[f64]> {
    let shape = Triangle::new(x_max);
    let mut row = vec![0.0f64; shape.len()];
    log_survival_chunks(dist, tau, shape, u, checkpoint, |at, vals| {
        row[at..at + vals.len()].copy_from_slice(vals);
    });
    row.into()
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
/// [`Triangle`]-packed log-survival row of `ages[i]` (see
/// [`compute_row`]). Supplied rows must be exact — the cached-path and
/// inline-path cell arithmetic is identical, so both produce the same
/// bits.
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
    // [`value_chunk_cap`]), bounding `m` at `m_cap` too. `G` and its
    // exponentials are stored column by column ([`Triangle`]) so the DP
    // inner loop below, which scans `i` at fixed `n`, touches consecutive
    // memory.
    let m_cap = value_chunk_cap(x_max);
    let shape = Triangle::new(x_max);
    let t_span = x_max as f64 * u + (shape.m_top + 1) as f64 * checkpoint;
    let mut near: Vec<(usize, f64, f64)> = Vec::with_capacity(ages.len());
    let far = FarFit::build(dist, ages, t_span, &mut near);
    // The triangle is accumulated in place — far-fit values, then one
    // multiply-add pass per near age (cached row when available, chunked
    // in-place evaluation otherwise). Per cell this performs the same
    // float operations in the same order as a cell-at-a-time fill.
    SOLVE_SCRATCH.with(|cell| {
    let mut scratch = cell.borrow_mut();
    let SolveScratch { tri, egrid, value, choice, hull } = &mut *scratch;
    tri.clear();
    tri.resize(shape.len(), 0.0);
    if let Some(fit) = &far {
        // 4 cells per Clenshaw call ([`FarFit::eval4`]); the tail of each
        // column falls back to the scalar `eval`, whose per-element
        // operations the lane version reproduces exactly.
        const LANES: usize = ckpt_math::simd::LANES;
        for m in 0..=shape.m_top {
            let mc = m as f64 * checkpoint;
            let mut a = Triangle::a_lo(m);
            let mut cells = tri[shape.col_start(m)..shape.col_start(m + 1)].chunks_exact_mut(LANES);
            for lanes in &mut cells {
                let t = ckpt_math::simd::F64x4([
                    a as f64 * u + mc,
                    (a + 1) as f64 * u + mc,
                    (a + 2) as f64 * u + mc,
                    (a + 3) as f64 * u + mc,
                ]);
                fit.eval4(t).write_to(lanes);
                a += LANES;
            }
            for g in cells.into_remainder() {
                *g = fit.eval(a as f64 * u + mc);
                a += 1;
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
            // Inline build (in production a one-age state: one near age
            // at most): evaluate each near age chunk by chunk, exactly as
            // the cached rows are built, and accumulate each chunk
            // through the same sweep kernel — so supplying cached rows or
            // none produces identical bits.
            for &(_, tau, c) in &near {
                log_survival_chunks(dist, tau, shape, u, checkpoint, |at, vals| {
                    let acc = &mut tri[at..at + vals.len()];
                    ckpt_math::simd::accumulate_scaled_rows(acc, &[(vals, c)]);
                });
            }
        }
    }
    // The exponentials are taken relative to `G(0, 0) = tri[0]`, the
    // triangle's maximum (`ln S` is non-increasing and counts are
    // positive): `E = exp(G − G(0,0))`, in the triangle's own layout.
    // The DP only ever consumes ratios `E(a', m')/E(a, m)` — one column
    // read over one division — so the common factor cancels, while the
    // offset keeps `E` in (0, 1] even when `exp(G)` itself underflows.
    // Massively-parallel platforms (p ≈ 4096 LANL cells: G ≈ −8000 nats)
    // previously underflowed *every* state into the scalar log-domain
    // fallback; with the offset they ride the hull path. The fallback
    // remains for windows whose G drops more than ~745 nats below
    // G(0,0).
    let g_off = if tri[0].is_finite() { tri[0] } else { 0.0 };
    egrid.resize(tri.len(), 0.0);
    ckpt_math::simd::exp_shifted(tri, g_off, egrid);
    let gg = |a: usize, m: usize| tri[shape.at(a, m)];

    // value[n][x] for x ≤ x_max − n (each chunk consumes ≥ 1 quantum).
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
    // `value`/`choice` are n-major and packed: column `n` holds
    // `x = 0..=x_max − n` from `v_start(n)`, the states the recursion
    // touches, and the hull below reads column n+1 with ascending `j`.
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
    let v_start = |n: usize| n * (x_max + 1) - n * n.saturating_sub(1) / 2;
    // Chunk depths `n ≥ n_cap` are truncated: the deepest computed
    // column reads `V(·, n_cap) = 0`, which the zeroed resize provides.
    let n_cap = x_max.min(m_cap);
    // Every column's x = 0 entry is the V(0, ·) = 0 base case and column
    // `n_cap` is read before any write reaches it, so the whole buffer
    // is re-zeroed on reuse. `choice` is only ever read at states the
    // backward pass wrote this solve, so its stale contents don't
    // matter.
    value.clear();
    value.resize(v_start(n_cap + 1), 0.0);
    choice.resize(v_start(n_cap + 1), 0);
    // (slope, intercept, j) lines of the current column's hull.
    hull.clear();
    for n in (0..n_cap).rev() {
        let x_hi = x_max - n;
        // Column n+1 of E starts at a = n.
        let ecol = &egrid[shape.col_start(n + 1)..shape.col_start(n + 2)];
        // Columns n (written) and n+1 (read) are disjoint.
        let (vcur, vnext) = value.split_at_mut(v_start(n + 1));
        let vcol = &mut vcur[v_start(n)..];
        let vnext = &vnext[..x_hi];
        let ccol = &mut choice[v_start(n)..v_start(n + 1)];
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
            let r = ecol[x_hi - j];
            let q = r * (vnext[j] - j as f64 * u);
            // Equal slopes: keep the better intercept; ties keep the
            // earlier (smaller-j) line.
            let mut push = true;
            if let Some(&(tr, tq, _)) = hull.last() {
                #[expect(clippy::float_cmp, reason = "equal slopes are exact bits: both are read from the same `ecol` array")]
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
            let e_base = egrid[shape.at(a, n)];
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
                vcol[x] = (q0 + r0 * z) / e_base;
                ccol[x] = x as u32 - j0;
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
                    let succ = if x - i >= 1 { vnext[x - i] } else { 0.0 };
                    let cur = lp.exp() * (i as f64 * u + succ); // audited log→linear conversion of an exact G row
                    // `>=` so ties (all-zero survival) prefer big chunks.
                    if cur >= best {
                        best = cur;
                        best_i = i as u32;
                    }
                }
                vcol[x] = best;
                ccol[x] = best_i;
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
        let i = choice[v_start(n) + x] as usize;
        chunks.push(i as f64 * u);
        x -= i;
        n += 1;
    }
    chunks
    })
}

/// Reusable backing storage for [`solve_with_rows`]: the `G` triangle,
/// its exponentials in the same layout, and the packed value/choice
/// tables. Allocating (and kernel-zeroing) them per solve dominated the
/// solve's own arithmetic, so each thread keeps one set of buffers warm
/// across solves — ~0.7 MB at `x_max = 256`.
#[derive(Default)]
struct SolveScratch {
    tri: Vec<f64>,
    egrid: Vec<f64>,
    value: Vec<f64>,
    choice: Vec<u32>,
    hull: Vec<(f64, f64, u32)>,
}

thread_local! {
    static SOLVE_SCRATCH: std::cell::RefCell<SolveScratch> =
        std::cell::RefCell::new(SolveScratch::default());
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact compression copies ages and sums integer counts")]
mod tests {
    use super::*;
    use ckpt_dist::{Exponential, Weibull};
    use proptest::prelude::*;

    const DAY: f64 = 86_400.0;
    const YEAR: f64 = 365.25 * DAY;

    /// The expected work completed by a given schedule (Proposition 3's
    /// objective), the reference the DP's value is checked against.
    fn expected_work_of_schedule(
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

    fn small_config(quanta: usize) -> DpNextFailureConfig {
        DpNextFailureConfig { quanta: Some(quanta) }
    }

    #[test]
    fn auto_quanta_scales_with_mtbf_over_checkpoint() {
        assert!(auto_quanta(600.0, 3_600.0) < auto_quanta(600.0, 7.0 * 86_400.0));
        // Clamped to the [40, 256] band.
        assert_eq!(auto_quanta(600.0, 1.0), 40);
        assert_eq!(auto_quanta(1.0, 1e12), 256);
    }

    #[test]
    fn planning_window_truncates_at_two_platform_mtbfs() {
        // C = 600 s: 2·M is the smaller bound up to M = 32²·C/2.
        assert_eq!(planning_window(600.0, DAY), 2.0 * DAY);
        let m = 1_000.0 * DAY;
        let capped = MAX_PLAN_CHUNKS * (2.0 * 600.0 * m).sqrt();
        assert_eq!(planning_window(600.0, m), capped);
        assert!(capped < TRUNCATION_MTBF_MULTIPLE * m);
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
    fn one_age_state_memoises_its_plan_and_builds_no_row() {
        let spec = JobSpec::table1_single_processor();
        let caches = DpCaches::private();
        let dp = DpNextFailure::with_caches(
            &spec,
            Box::new(Weibull::from_mtbf(0.7, DAY)),
            DAY,
            small_config(50),
            caches.clone(),
        );
        let ages = AgeView::single(660.0);
        let first = dp.plan(spec.work, &ages);
        let s = caches.stats();
        assert_eq!((s.plans.misses, s.plans.entries), (1, 1));
        let rows = s.kernel_rows;
        assert_eq!((rows.hits + rows.misses, rows.entries), (0, 0), "no row lookup");
        let again = dp.plan(spec.work, &ages);
        assert!(Arc::ptr_eq(&first, &again), "the repeat is served from the plan layer");
        assert_eq!(caches.stats().plans.hits, 1);
    }

    #[test]
    fn multi_age_state_fills_rows_but_memoises_no_plan() {
        let spec = JobSpec::table1_petascale(45_208);
        let caches = DpCaches::private();
        let dp = DpNextFailure::with_caches(
            &spec,
            Box::new(Weibull::from_mtbf(0.7, 125.0 * YEAR)),
            125.0 * YEAR,
            small_config(40),
            caches.clone(),
        );
        let ages = AgeView::new(vec![(600.0, 1), (50_000.0, 2)], 45_205, YEAR);
        let first = dp.plan(spec.work, &ages);
        let s = caches.stats();
        assert_eq!((s.plans.misses, s.plans.entries), (1, 0), "no plan is memoised");
        assert!(s.kernel_rows.entries > 0, "the near buckets' rows are cached");
        assert_eq!(s.kernel_rows.misses, s.kernel_rows.entries);
        // The repeat solves again, now from the cached rows.
        let again = dp.plan(spec.work, &ages);
        assert_eq!(first, again);
        let s2 = caches.stats();
        assert_eq!(s2.plans.misses, 2);
        assert_eq!(s2.kernel_rows.hits, s.kernel_rows.entries);
        assert_eq!(s2.kernel_rows.misses, s.kernel_rows.misses);
    }

    #[test]
    fn only_a_memoryless_session_skips_the_age_snapshot() {
        let spec = JobSpec::table1_petascale(45_208);
        let mtbf = 125.0 * YEAR;
        let wants = |dist: Box<dyn FailureDistribution>| {
            DpNextFailure::new(&spec, dist, mtbf, small_config(40)).session().wants_ages()
        };
        assert!(!wants(Box::new(Exponential::from_mtbf(mtbf))));
        for shape in [0.5, 0.7, 1.0] {
            assert!(wants(Box::new(Weibull::from_mtbf(shape, mtbf))), "Weibull k = {shape}");
        }
    }

    proptest! {
        // Each case is a few ms; the failure-dense draw makes every
        // sixth case a state past the 128-entry compression threshold.
        #![proptest_config(ProptestConfig::with_cases(240))]

        /// An Exponential state is planned on its processor count alone:
        /// `plan()` solves the one-bucket key without touching the
        /// kernel-row layer, its plan is bit-identical to the age-aware
        /// solve of the same ages (rows inline and rows cached), and a
        /// state with other ages and the same remaining work is a plan
        /// hit. Ages come in 2–6 groups or, past the 128-entry
        /// threshold, in 200 (§3.3's compression), in truncated and
        /// endgame windows.
        #[test]
        fn memoryless_plan_ignores_ages_bit_for_bit(
            log2_procs in 10u32..=20,
            mtbf_years in 1.0..1_250.0f64,
            groups_draw in 2usize..=7,
            base in 0.01..0.05f64,
            pristine_frac in 20.0..40.0f64,
            endgame in 0u8..2,
            work_frac in 0.0005..0.98f64,
        ) {
            let endgame = endgame == 1;
            // Draw 7 stands for a failure-dense state.
            let groups = if groups_draw == 7 { 200 } else { groups_draw };
            let procs = 1u64 << log2_procs;
            let spec = JobSpec::table1_exascale(procs);
            let proc_mtbf = mtbf_years * YEAR;
            let caches = DpCaches::private();
            let dp = DpNextFailure::with_caches(
                &spec,
                Box::new(Exponential::from_mtbf(proc_mtbf)),
                proc_mtbf,
                DpNextFailureConfig::default(),
                caches.clone(),
            );
            let window = planning_window(spec.checkpoint, proc_mtbf / procs as f64);
            let remaining = if endgame { work_frac * window } else { (1.0 + work_frac) * window };
            let w_full = remaining.min(window);
            // Failed ages spread from `base` windows (young enough to need
            // an exact row) up to the pristine age.
            let view = |shift: f64| {
                let step = (pristine_frac - base) / groups as f64;
                let failed: Vec<(f64, u32)> = (0..groups - 1)
                    .map(|i| ((base + shift + i as f64 * step) * w_full, 1 + i as u32 % 3))
                    .collect();
                let failed_procs: u64 = failed.iter().map(|&(_, n)| u64::from(n)).sum();
                AgeView::new(failed, procs - failed_procs, pristine_frac * w_full)
            };
            let ages = view(0.0);
            let key = dp.plan_key(remaining, &ages);
            prop_assert_eq!(&key.buckets, &vec![(0, procs)]);
            prop_assert_eq!(key.truncated, !endgame);
            let u = f64::from_bits(key.u_bits);
            let aware = PlanKey { buckets: dp.age_buckets(&ages, u), ..key.clone() };
            prop_assert!(aware.buckets.len() >= 2, "the ages span several buckets");

            let planned = dp.plan(remaining, &ages);
            let s = caches.stats();
            prop_assert_eq!((s.plans.misses, s.plans.entries), (1, 1));
            let other = dp.plan(remaining, &view(0.5 * base));
            prop_assert!(Arc::ptr_eq(&planned, &other), "other ages, same plan");
            prop_assert_eq!(caches.stats().plans.hits, 1);
            let rows = caches.stats().kernel_rows;
            prop_assert_eq!((rows.hits, rows.misses, rows.entries), (0, 0, 0));

            let bits = |p: &[f64]| p.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            let inline = dp.solve_key(&aware, false);
            prop_assert_eq!(bits(&planned), bits(&inline));
            let from_rows = dp.solve_key(&aware, true);
            prop_assert!(caches.stats().kernel_rows.misses >= 1, "the near age builds a row");
            prop_assert_eq!(bits(&planned), bits(&from_rows));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A one-age plan solved inline is bit-identical to the same state
        /// solved from cached `compute_row` rows, in the truncated window
        /// and in the endgame alike.
        #[test]
        fn one_age_inline_plan_matches_cached_row_solve_bit_for_bit(
            shape in 0.5..1.5f64,
            mtbf in 3_600.0..30.0 * DAY,
            age_frac in 0.0..3.0f64,
            endgame in 0u8..2,
            work_frac in 0.02..0.98f64,
        ) {
            let endgame = endgame == 1;
            let spec = JobSpec::table1_single_processor();
            let caches = DpCaches::private();
            let dp = DpNextFailure::with_caches(
                &spec,
                Box::new(Weibull::from_mtbf(shape, mtbf)),
                mtbf,
                DpNextFailureConfig::default(),
                caches.clone(),
            );
            let window = planning_window(spec.checkpoint, mtbf);
            let remaining = if endgame { work_frac * window } else { (1.0 + work_frac) * window };
            let ages = AgeView::single(age_frac * window);
            let key = dp.plan_key(remaining, &ages);
            prop_assert_eq!(key.buckets.len(), 1);
            prop_assert_eq!(key.truncated, !endgame);

            let inline = dp.plan(remaining, &ages);
            prop_assert_eq!(caches.stats().kernel_rows.misses, 0);
            let from_rows = dp.solve_key(&key, true);
            // One row, or none when the age is old enough for the far fit.
            prop_assert!(caches.stats().kernel_rows.misses <= 1);
            let bits = |p: &[f64]| p.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&inline), bits(&from_rows));
        }

        /// Merging the pristine entry into the ascending failed ages gives
        /// the same exact list, bit for bit, as the copy-and-sort it
        /// replaced — including ties between the pristine and failed ages
        /// and views with no pristine processor — and so the same
        /// compressed state, on both sides of the 128-entry threshold and
        /// under §3.3's scheme alike.
        #[test]
        fn compress_ages_merge_matches_copy_and_sort(
            failed in proptest::collection::vec((0u32..40, 1u32..4), 0..200),
            pristine_n in 0u64..3,
            pristine_slot in 0u32..40,
        ) {
            let dist = Weibull::from_mtbf(0.7, 50_000.0);
            let failed: Vec<(f64, u32)> =
                failed.into_iter().map(|(slot, n)| (f64::from(slot) * 250.0, n)).collect();
            let view = AgeView::new(failed, pristine_n, f64::from(pristine_slot) * 250.0);
            let mut sorted: Vec<(f64, f64)> =
                view.failed_ages().iter().map(|&(a, n)| (a, f64::from(n))).collect();
            if pristine_n > 0 {
                sorted.push((view.pristine().1, pristine_n as f64));
            }
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
            let bits = |v: &[(f64, f64)]| {
                v.iter().map(|&(a, c)| (a.to_bits(), c.to_bits())).collect::<Vec<_>>()
            };
            prop_assert_eq!(bits(&exact_ages(&view)), bits(&sorted));
            let approximate = approximate_ages(sorted.clone(), &dist);
            prop_assert_eq!(
                bits(&approximate_ages(exact_ages(&view), &dist)),
                bits(&approximate)
            );
            let compressed = if sorted.len() <= EXACT_AGES_MAX { sorted } else { approximate };
            prop_assert_eq!(bits(&compress_ages(&view, &dist)), bits(&compressed));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// More work to schedule can only increase the expected work
        /// completed before the next failure.
        #[test]
        fn dp_next_failure_monotone_value(mtbf in 5_000.0..500_000.0f64) {
            let spec = JobSpec::sequential(1_000_000.0, 300.0, 300.0, 30.0);
            let dist = Exponential::from_mtbf(mtbf);
            let dp = DpNextFailure::new(&spec, Box::new(dist), mtbf, small_config(30));
            let ages = AgeView::single(0.0);
            let small = full_schedule(&dp, mtbf * 0.5, &ages);
            let large = full_schedule(&dp, mtbf * 2.0, &ages);
            let val = |plan: &[f64]| {
                expected_work_of_schedule(&dist, &[(0.0, 1.0)], plan, spec.checkpoint)
            };
            prop_assert!(val(&large) >= val(&small) - 1e-9);
        }

        /// The un-halved schedule of a one-age state covers the requested
        /// work up to the `2·MTBF` truncation, in positive chunks.
        #[test]
        fn dp_next_failure_plans_cover_requested_work(
            mtbf in 2_000.0..200_000.0f64,
            shape in 0.4..1.0f64,
            age in 0.0..100_000.0f64,
        ) {
            let spec = JobSpec::sequential(50_000.0, 120.0, 120.0, 10.0);
            let dp = DpNextFailure::new(
                &spec,
                Box::new(Weibull::from_mtbf(shape, mtbf)),
                mtbf,
                small_config(40),
            );
            let plan = full_schedule(&dp, spec.work, &AgeView::single(age));
            let total: f64 = plan.iter().sum();
            let expect = spec.work.min(2.0 * mtbf);
            prop_assert!((total - expect).abs() < 1e-6 * expect,
                "plan covers {total}, expected {expect}");
            prop_assert!(plan.iter().all(|&c| c > 0.0));
        }

        /// §3.3's compression depends only on the age *multiset*, not on
        /// how the input pairs are ordered or grouped.
        #[test]
        fn compress_ages_invariant_under_permutation(
            raw in proptest::collection::vec((1.0..5e6f64, 1u32..60), 1..40),
            pristine in 0u64..5_000,
            rotate in 0usize..40,
            shape in 0.5..1.2f64,
        ) {
            let dist = Weibull::from_mtbf(shape, 100_000.0);
            let now = 1e7;
            let compress = |view: &AgeView| approximate_ages(exact_ages(view), &dist);
            let base = compress(&AgeView::new(raw.clone(), pristine, now));

            // Same multiset, re-expressed: rotate the pair list and split
            // every multi-processor entry into two pieces.
            let mut alt: Vec<(f64, u32)> = Vec::new();
            let k = rotate % raw.len();
            for &(a, n) in raw[k..].iter().chain(raw[..k].iter()).rev() {
                if n >= 2 {
                    alt.push((a, n - 1));
                    alt.push((a, 1));
                } else {
                    alt.push((a, n));
                }
            }
            let other = compress(&AgeView::new(alt, pristine, now));

            // Compare as canonical (age → total count) maps: grouping may
            // legitimately differ, the weighted multiset may not.
            let canon = |pairs: &[(f64, f64)]| -> Vec<(f64, f64)> {
                let mut merged: Vec<(f64, f64)> = Vec::new();
                for &(a, c) in pairs {
                    match merged.last_mut() {
                        Some(last) if last.0.to_bits() == a.to_bits() => last.1 += c,
                        _ => merged.push((a, c)),
                    }
                }
                merged
            };
            let (ca, cb) = (canon(&base), canon(&other));
            prop_assert_eq!(ca.len(), cb.len());
            for (&(a1, c1), &(a2, c2)) in ca.iter().zip(cb.iter()) {
                prop_assert!((a1 - a2).abs() <= 1e-9 * a1.abs().max(1.0), "ages {a1} vs {a2}");
                prop_assert!((c1 - c2).abs() <= 1e-9 * c1.max(1.0), "counts {c1} vs {c2}");
            }
        }
    }

    /// The schedule [`DpNextFailure::plan`] halves on a truncated window:
    /// the whole solve of its planning state.
    fn full_schedule(dp: &DpNextFailure, remaining: f64, ages: &AgeView) -> Vec<f64> {
        let key = dp.plan_key(remaining, ages);
        let u = f64::from_bits(key.u_bits);
        let representative: Vec<(f64, f64)> = key
            .buckets
            .iter()
            .map(|&(id, count)| (representative_age(id, u), count as f64))
            .collect();
        solve(dp.dist.as_ref(), &representative, dp.x_max, u, dp.spec.checkpoint)
    }

    #[test]
    fn schedule_covers_truncated_work() {
        let spec = JobSpec::table1_single_processor();
        let dp = DpNextFailure::new(
            &spec,
            Box::new(Exponential::from_mtbf(DAY)),
            DAY,
            small_config(60),
        );
        let plan = full_schedule(&dp, spec.work, &AgeView::single(0.0));
        let total: f64 = plan.iter().sum();
        let expect = (2.0 * DAY).min(spec.work);
        assert!((total - expect).abs() < 1e-6, "planned {total}, expected {expect}");
    }

    #[test]
    fn half_schedule_keeps_half_when_truncated() {
        let spec = JobSpec::table1_single_processor();
        let dp = DpNextFailure::new(
            &spec,
            Box::new(Exponential::from_mtbf(DAY)),
            DAY,
            small_config(60),
        );
        let ages = AgeView::single(0.0);
        let f = full_schedule(&dp, spec.work, &ages);
        let h = dp.plan(spec.work, &ages);
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
        let dp = DpNextFailure::new(
            &spec,
            Box::new(Exponential::from_mtbf(mtbf)),
            mtbf,
            small_config(120),
        );
        let ages = AgeView::single(0.0);
        let full = full_schedule(&dp, spec.work, &ages);
        let half = dp.plan(spec.work, &ages);
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
            small_config(120),
        );
        let plan = full_schedule(&dp, spec.work, &AgeView::all_pristine(45_208, 60.0));
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
            small_config(100),
        );
        let ages = AgeView::single(0.0);
        let plan = full_schedule(&dp, spec.work, &ages);
        let total: f64 = plan.iter().sum();
        let aged = exact_ages(&ages);
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
        let c = compress_ages(&view, &dist);
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
        let c = approximate_ages(exact_ages(&view), &dist);
        // The ten smallest ages survive exactly.
        for i in 0..10 {
            assert!(c.iter().any(|&(a, _)| (a - (10.0 + i as f64 * 7.0)).abs() < 1e-9));
        }
        // Total processor count is conserved.
        let total: f64 = c.iter().map(|&(_, n)| n).sum();
        assert!((total - 1050.0).abs() < 1e-9);
        // And the state is genuinely compressed.
        assert!(c.len() < 51, "{} entries", c.len());
    }

    /// Worst relative error of the §3.3-compressed platform success
    /// probability against the exact age multiset, over chunks
    /// `longest / 2^i`, i = 0..6. Fails if compression merges nothing.
    fn worst_compression_error(dist: &Weibull, view: &AgeView, longest: f64) -> f64 {
        let exact = exact_ages(view);
        let approx = approximate_ages(exact.clone(), dist);
        assert!(approx.len() < exact.len(), "compression must merge some ages");
        let psuc = |ages: &[(f64, f64)], x: f64| -> f64 {
            ages.iter()
                .map(|&(tau, c)| c * (dist.log_survival(tau + x) - dist.log_survival(tau)))
                .sum::<f64>()
                .exp()
        };
        (0..=6u32)
            .map(|i| {
                let x = longest / f64::from(1u32 << i);
                let pe = psuc(&exact, x);
                (psuc(&approx, x) - pe).abs() / pe
            })
            .fold(0.0, f64::max)
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
        let rel = worst_compression_error(&dist, &view, proc_mtbf / p as f64);
        assert!(rel < 2e-3, "rel error {rel}");
    }

    #[test]
    fn compression_error_stays_within_paper_bound_as_failures_accumulate() {
        // The same ≤ 0.2 % claim on a p = 4,096 platform whose failed
        // population grows from 48 to 1,000 units, each at age
        // (i+1)·15,000 s, with the never-failed units 1.5 y old; chunks
        // from 87,000 s down by halves.
        let dist = Weibull::from_mtbf(0.7, 125.0 * YEAR);
        let p = 4_096u64;
        for n_failed in [48u64, 200, 1_000] {
            let failed: Vec<(f64, u32)> =
                (0..n_failed).map(|i| ((i as f64 + 1.0) * 15_000.0, 1)).collect();
            let view = AgeView::new(failed, p - n_failed, 1.5 * YEAR);
            let rel = worst_compression_error(&dist, &view, 87_000.0);
            assert!(rel <= 2e-3, "{n_failed} failed: rel error {rel}");
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
