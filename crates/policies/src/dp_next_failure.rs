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
//! The recursion is truncated at a chunk-depth ceiling
//! (`value_chunk_cap`), but a solve first runs it only to a shallow depth
//! `D` (`start_depth`), filling only the first `D + 1` columns of `G`,
//! with the states at depth `D` seeded by an upper bound on any
//! continuation (`continuation_bound`) instead of `V = 0`. A plan that
//! ends before `D` is then certified: it is the ceiling-depth plan bit
//! for bit, because its own states are computed from the same cells by
//! the same operations while every competitor could only look better.
//! Otherwise the solve doubles `D` in place, up to the ceiling, filling
//! only the new columns: `G` is packed column by column, so a shallow grid
//! is a prefix of a deeper one (see `solve_with_rows`).
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
    /// Both paths build each row through [`log_survival_chunks`] (the
    /// law's `log_survival_batch`), so the choice never changes a plan's
    /// bits.
    /// The returned `Arc` slice is shared with the cache: consuming a
    /// plan allocates nothing.
    pub fn plan(&self, remaining: f64, ages: &AgeView) -> Arc<[f64]> {
        self.plan_from(remaining, ages, &mut start_depth(self.x_max))
    }

    /// [`plan`](Self::plan) whose solve, if any, runs its first value
    /// recursion at `depth` (see [`solve_with_rows`]) and leaves in it
    /// the [`next_depth`] for a plan as deep as the solved one. The depth
    /// changes the solve's cost, never its plan.
    fn plan_from(&self, remaining: f64, ages: &AgeView, depth: &mut usize) -> Arc<[f64]> {
        let key = self.plan_key(remaining, ages);
        if let Some(hit) = self.caches.plans.get(&key) {
            return hit;
        }
        let one_age = key.buckets.len() <= 1;
        let chunks = self.solve_key(&key, !one_age, depth);
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
        for (age, count) in compressed {
            let id = quantise_age(age, u);
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
    fn solve_key(&self, key: &PlanKey, cached_rows: bool, depth: &mut usize) -> Arc<[f64]> {
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
        let chunks = solve_with_rows(
            self.dist.as_ref(),
            &representative,
            x_max,
            u,
            checkpoint,
            rows,
            depth,
        );
        *depth = next_depth(x_max, *depth, chunks.len());
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
        let depth = start_depth(self.x_max);
        Box::new(DpNfSession { policy: self, plan: Vec::new().into(), pos: 0, depth })
    }
}

/// Walks a cached plan by index — the session shares the `Arc` slice with
/// the plan cache, so consuming a schedule performs no per-decision
/// allocation (the old `VecDeque` clone-and-drain did one clone per plan).
struct DpNfSession<'a> {
    policy: &'a DpNextFailure,
    plan: Arc<[f64]>,
    pos: usize,
    /// First depth of the session's next solve ([`next_depth`]).
    depth: usize,
}

impl PolicySession for DpNfSession<'_> {
    /// Only a replan reads the ages, and a memoryless law plans on the
    /// processor count alone, which the simulator's all-pristine view
    /// carries without an O(failures) snapshot.
    fn wants_ages(&self) -> bool {
        !self.policy.memoryless && self.pos >= self.plan.len()
    }

    fn next_chunk(&mut self, remaining: f64, ages: &AgeView, _now: f64) -> f64 {
        if self.pos >= self.plan.len() {
            self.plan = self.policy.plan_from(remaining, ages, &mut self.depth);
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
/// 128 of them, §3.3's (10, 100) scheme beyond. Both read the view in
/// place, in one pass.
pub fn compress_ages(ages: &AgeView, dist: &dyn FailureDistribution) -> Vec<(f64, u64)> {
    let entries = age_entries(ages);
    if ages.failed_ages().len() + usize::from(ages.pristine().0 > 0) <= EXACT_AGES_MAX {
        entries.collect()
    } else {
        approximate(entries, dist)
    }
}

/// Every `(age, processor-count)` entry of `ages`, ascending, read in
/// place: the failed ages with the pristine entry merged in after any
/// equal failed age, where a stable sort would place it.
fn age_entries(ages: &AgeView) -> impl DoubleEndedIterator<Item = (f64, u64)> + Clone + '_ {
    let failed = ages.failed_ages();
    let (pristine_n, pristine_age) = ages.pristine();
    let at = failed.partition_point(|e| e.0 <= pristine_age);
    let widen = |&(age, n): &(f64, u32)| (age, u64::from(n));
    let pristine = (pristine_n > 0).then_some((pristine_age, pristine_n));
    failed[..at].iter().map(widen).chain(pristine).chain(failed[at..].iter().map(widen))
}

/// §3.3's scheme on ascending `entries`: emit the [`N_EXACT`] smallest
/// processor ages as they are read (an entry the budget splits leaves
/// its remainder to the rest), then count the rest onto
/// [`reference_ages`] in one ascending sweep.
fn approximate(
    mut entries: impl DoubleEndedIterator<Item = (f64, u64)> + Clone,
    dist: &dyn FailureDistribution,
) -> Vec<(f64, u64)> {
    let Some((hi, _)) = entries.clone().next_back() else { return Vec::new() };
    let mut out: Vec<(f64, u64)> = Vec::with_capacity(N_EXACT + N_APPROX);
    let mut budget = N_EXACT as u64;
    let mut split = None;
    while budget > 0 {
        let Some((age, count)) = entries.next() else { return out };
        let take = count.min(budget);
        out.push((age, take));
        budget -= take;
        if count > take {
            split = Some((age, count - take));
        }
    }
    let rest = split.into_iter().chain(entries);
    let Some((lo, _)) = rest.clone().next() else { return out };
    let refs = reference_ages(lo, hi, dist);
    // Each age goes to its nearest reference, ties to the lower one.
    // `j` is the last reference at or below the age (0 while there is
    // none), so equal neighbours are stepped past and `refs[j + 1]` is
    // above the age.
    let mut counts = vec![0u64; refs.len()];
    let mut j = 0;
    for (age, count) in rest {
        while j + 1 < refs.len() && refs[j + 1] <= age {
            j += 1;
        }
        let up = j + 1 < refs.len() && refs[j + 1] - age < age - refs[j];
        counts[j + usize::from(up)] += count;
    }
    out.extend(refs.into_iter().zip(counts).filter(|&(_, c)| c > 0));
    out
}

/// §3.3's reference ages for remaining ages spanning `[lo, hi]`,
/// ascending: the endpoints, and survival-interpolated quantiles between.
fn reference_ages(lo: f64, hi: f64, dist: &dyn FailureDistribution) -> Vec<f64> {
    if hi - lo < 1e-9 {
        // Degenerate spread: everything lands on the endpoints.
        return vec![lo, hi];
    }
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
    refs
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

/// Chunk-depth ceiling of the value recursion: `V(·, n) ≡ 0` for
/// `n ≥ value_chunk_cap(x_max)`, and the `G`/`E` triangles stop at
/// `m = value_chunk_cap`. A plan that would walk past the ceiling
/// flushes its remaining quanta as one final chunk. The quantum is sized
/// so optimal chunks span ~[`QUANTA_PER_CHUNK`] quanta, and most cells'
/// plans end inside `max(x_max/2, 32)` (Table 3's 1-week cell: ≤ 60
/// chunks at `x_max = 256`; Figure 4's Weibull Petascale cells: ≤ 92 at
/// `x_max = 256`; LANL log-based: ≤ 21 at `x_max = 55`), but Figure 5's
/// small shapes reach it. At `fig5 --traces 1` (p = 45,208, `x_max =
/// 136`, ceiling 68) 10,107 of the 10,537 plans at k = 0.1 flush, 879 of
/// 1,044 at k = 0.2 and 264 of 347 at k = 0.3, and the deepest plans at
/// k = 0.4 and 0.5 end on the ceiling column. The window is sized from
/// the unconditional MTBF, so at small k a plan wants more, finer chunks
/// than the ceiling allows; ROADMAP item 1's state-sized window should
/// move these plans off it (`small_k_jaguar_plans_reach_the_chunk_cap`).
fn value_chunk_cap(x_max: usize) -> usize {
    (x_max / 2).max(32)
}

/// Depth of a solve's first value recursion: `max(x_max/4, 32)`, half the
/// ceiling on large windows. [`solve_with_rows`] certifies every plan that
/// ends before it without filling a deeper column, and grows the rest.
fn start_depth(x_max: usize) -> usize {
    (x_max / 4).max(32)
}

/// First depth of a session's solve after one that certified its plan of
/// `len` chunks at depth `certified`: that depth again, or the
/// [`start_depth`] once a plan used at most half of it. A trace's
/// consecutive replans plan alike, so one whose plans run deep skips the
/// shallow recursion it would throw away: from the start depth alone,
/// 10,378 of Figure 5's 10,537 solves at k = 0.1 grew, and their
/// discarded recursions took ~4 % of `fig5`'s time.
fn next_depth(x_max: usize, certified: usize, len: usize) -> usize {
    let start = start_depth(x_max);
    if len <= start / 2 { start } else { certified }
}

/// The `(a, m)` cells the DP reads up to column `m_top` — `m ≤ min(a + 1,
/// m_top)` for `a = 0..=x_max` — packed column by column: column `m`
/// holds `a = max(m, 1) − 1 ..= x_max`, ascending. The value recursion
/// scans `a` at fixed `m`, so `G`, its exponential grid and every kernel
/// row share this one layout and the DP reads them contiguously. A
/// column's offset does not depend on `m_top`, so a shallow triangle is a
/// prefix of a deeper one: a solve grows its grids in place, and reads
/// the ceiling-sized kernel rows as prefixes.
#[derive(Debug, Clone, Copy)]
struct Triangle {
    x_max: usize,
    /// Last column.
    m_top: usize,
}

impl Triangle {
    /// The ceiling triangle, up to column `min(x_max + 1, cap)` with
    /// `cap = value_chunk_cap(x_max)`.
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

/// Evaluate one age's log-survival over the columns `cols` of the
/// triangle in fixed-size chunks: `ln S(τ + (a·u + m·C))` for each cell,
/// through [`FailureDistribution::log_survival_batch`] on at most
/// [`ROW_CHUNK`] cells of one column at a time, handing `f` each chunk's
/// packed offset and values. The cached row build and the inline solve
/// both evaluate through here, so they see the same query times and the
/// same batch kernel — the same bits — without materialising the times
/// or a whole row; chunks never straddle a column, so filling a column
/// range gives each cell the bits of a whole-triangle pass. `a` is
/// counted as an `i32` (the same `a as f64` value): free of the unsigned
/// conversion, the time fill vectorises.
fn log_survival_chunks(
    dist: &dyn FailureDistribution,
    tau: f64,
    shape: Triangle,
    cols: std::ops::RangeInclusive<usize>,
    u: f64,
    checkpoint: f64,
    mut f: impl FnMut(usize, &[f64]),
) {
    let mut ts = [0.0f64; ROW_CHUNK];
    let mut vals = [0.0f64; ROW_CHUNK];
    for m in cols {
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

/// One age bucket's exact log-survival over the ceiling triangle, in
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
    log_survival_chunks(dist, tau, shape, 0..=shape.m_top, u, checkpoint, |at, vals| {
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
    solve_with_rows(dist, ages, x_max, u, checkpoint, None, &mut start_depth(x_max))
}

/// Slack of [`continuation_bound`] over the exact Riemann sum: room for
/// the rounding of the value recursion (~1e-13 relative over 128
/// columns) and for ulp-level dents in the monotonicity of the computed
/// `E` grid.
const BOUND_SLACK: f64 = 1e-9;

/// Seed column `D` of a shallow value recursion with an upper bound on
/// every continuation from it. `ecol` is column `D` of `E` (`a = D − 1
/// ..= x_max`), `seed` the states `j = 0..=x_max − D` of column `D`.
///
/// From `(j, D)` at `a = x_max − j`, chunks of `i₁, i₂, …` quanta
/// ending at offsets `s₁ < s₂ < … ≤ j` earn `u·Σₖ iₖ·E(a + sₖ, D + k) /
/// E(a, D)`. `E` does not rise along `a` or `m` (`ln S` is non-increasing
/// and the counts are positive), so each term is at most `u·Σ` of
/// `E(a + l, D)/E(a, D)` over the chunk's own quanta `l ∈ [sₖ₋₁, sₖ)`,
/// and any schedule earns at most the left Riemann sum
///
/// ```text
/// B(j) = u · Σ_{l<j} E(x_max − j + l, D) / E(x_max − j, D) · (1 + BOUND_SLACK),
/// ```
///
/// or `u·j·(1 + BOUND_SLACK)` (all the work, surely) where `E(x_max − j,
/// D)` underflows. `B(0) = 0`, as the ceiling's seed.
fn continuation_bound(ecol: &[f64], u: f64, seed: &mut [f64]) {
    let mut sum = 0.0;
    // `ecol` reversed is E(x_max − j, D) for j = 0, 1, …
    for (j, (b, &e)) in seed.iter_mut().zip(ecol.iter().rev()).enumerate() {
        if j > 0 {
            sum += e;
        }
        let quanta = if e > 0.0 { sum / e } else { j as f64 };
        *b = u * quanta * (1.0 + BOUND_SLACK);
    }
}

/// Offset of column `n` of the packed value and choice tables: column
/// `n` holds `x = 0..=x_max − n`, the states the recursion touches.
fn v_start(x_max: usize, n: usize) -> usize {
    n * (x_max + 1) - n * n.saturating_sub(1) / 2
}

/// Where a solve's `G` comes from: the far-age fit and the near ages,
/// the latter from cached kernel rows when the solve was handed them,
/// evaluated in place otherwise.
struct LogSurvivalSum<'a> {
    dist: &'a dyn FailureDistribution,
    far: Option<FarFit>,
    /// `(index into ages, age, count)`.
    near: Vec<(usize, f64, f64)>,
    /// One ceiling-sized row per `near` entry, or `None` for inline.
    rows: Option<Vec<Arc<[f64]>>>,
    u: f64,
    checkpoint: f64,
}

impl LogSurvivalSum<'_> {
    /// Accumulate `G` into the zeroed columns `cols` of `tri`, laid out
    /// as `shape` — far-fit values, then one multiply-add pass per near
    /// age. Per cell this performs the same float operations in the same
    /// order as a cell-at-a-time fill, whichever columns a call covers.
    fn fill(&self, tri: &mut [f64], shape: Triangle, cols: std::ops::RangeInclusive<usize>) {
        const LANES: usize = ckpt_math::simd::LANES;
        let (u, checkpoint) = (self.u, self.checkpoint);
        let span = shape.col_start(*cols.start())..shape.col_start(cols.end() + 1);
        if let Some(fit) = &self.far {
            // 4 cells per Clenshaw call ([`FarFit::eval4`]); the tail of each
            // column falls back to the scalar `eval`, whose per-element
            // operations the lane version reproduces exactly.
            for m in cols.clone() {
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
        match &self.rows {
            Some(rows) => {
                // Fused lane-width groups: one read-modify-write sweep of the
                // triangle covers up to LANES cached rows through the
                // explicit `f64x4` kernel. Per element the additions happen
                // in row-index order — the same order as sequential
                // single-row passes, so grouping is bit-invariant — but the
                // triangle's memory traffic drops by the group width, which
                // is what bounds this loop (rows and triangle far exceed L2).
                let acc = &mut tri[span.clone()];
                for (group, entries) in rows.chunks(LANES).zip(self.near.chunks(LANES)) {
                    let mut scaled: [(&[f64], f64); LANES] = [(&[], 0.0); LANES];
                    for ((slot, row), entry) in scaled.iter_mut().zip(group).zip(entries) {
                        *slot = (&row[span.clone()], entry.2);
                    }
                    ckpt_math::simd::accumulate_scaled_rows(acc, &scaled[..group.len()]);
                }
            }
            None => {
                // Inline build (in production a one-age state: one near age
                // at most): evaluate each near age chunk by chunk, exactly as
                // the cached rows are built, and accumulate each chunk
                // through the same sweep kernel — so supplying cached rows or
                // none produces identical bits.
                for &(_, tau, c) in &self.near {
                    log_survival_chunks(self.dist, tau, shape, cols.clone(), u, checkpoint, |at, vals| {
                        let acc = &mut tri[at..at + vals.len()];
                        ckpt_math::simd::accumulate_scaled_rows(acc, &[(vals, c)]);
                    });
                }
            }
        }
    }
}

/// [`solve`] with an optional kernel-row source and a first depth: `rows(i)`
/// returns the ceiling-[`Triangle`]-packed log-survival row of `ages[i]`
/// (see [`compute_row`]). Supplied rows must be exact — the cached-path
/// and inline-path cell arithmetic is identical, so both produce the same
/// bits. `depth` holds the first depth on entry (a session's
/// [`next_depth`], else [`start_depth`]) and the depth that certified the
/// plan on return.
///
/// The value recursion runs first to column `D = depth`, on the
/// triangle's first `D + 1` columns,
/// with column `D` seeded by [`continuation_bound`] instead of the
/// ceiling's `V = 0`. If the walked plan ends at or before column `D` it
/// is the ceiling-depth plan, bit for bit: every state on its path is
/// computed from the same `E` cells by the same operations, back from
/// `V(0, ·) = 0`, while every state off it can only look better than at
/// the ceiling, since its seeded tail bounds the true one from above —
/// so no competitor the path beat could win at the ceiling, and ties
/// resolve by the same rule. (That is exact for the maximum; the hull's
/// pops compare rounded products, so the tests pin it as computed:
/// `continuation_bound_is_above_the_ceiling_values` and
/// `grown_solve_matches_the_ceiling_solve_bit_for_bit`.) If the plan
/// reaches column `D`, the solve
/// grows `D` to `min(2D, ceiling)` in place: it fills and exponentiates
/// only the new columns (a column's cells do not depend on the depth:
/// the far fit spans the ceiling triangle whatever the depth) and reruns
/// the value recursion. At the ceiling, column `value_chunk_cap` is
/// `V = 0` and a plan that reaches it flushes, exactly as a solve that
/// starts there.
// Every `[]` below is affine in loop bounds sized from `x_max` and
// `ages.len()`; an out-of-bounds edit panics in the DP tests.
fn solve_with_rows(
    dist: &dyn FailureDistribution,
    ages: &[(f64, f64)],
    x_max: usize,
    u: f64,
    checkpoint: f64,
    rows: Option<&dyn Fn(usize) -> Arc<[f64]>>,
    depth: &mut usize,
) -> Vec<f64> {
    assert!(u > 0.0, "quantum must be positive");
    // G(a, m) = Σⱼ countⱼ · ln S(τⱼ + a·u + m·C); m ranges one past x_max
    // because the final chunk still pays its checkpoint. Reachable states
    // have n ≤ x_max − x = a and transitions read (a, n) and (a+i, n+1)
    // with i ≥ 1, so only the triangular region m ≤ a + 1 is ever
    // consulted — the upper half of the grid is never filled — and the
    // value recursion is truncated at `n_cap` chunks (see
    // [`value_chunk_cap`]), bounding `m` at the cap too. `G` and its
    // exponentials are stored column by column ([`Triangle`]) so the DP
    // inner loop, which scans `i` at fixed `n`, touches consecutive
    // memory.
    let ceiling = Triangle::new(x_max);
    let n_cap = x_max.min(value_chunk_cap(x_max));
    let t_span = x_max as f64 * u + (ceiling.m_top + 1) as f64 * checkpoint;
    let mut near: Vec<(usize, f64, f64)> = Vec::with_capacity(ages.len());
    let far = FarFit::build(dist, ages, t_span, &mut near);
    let rows = rows.map(|rows| near.iter().map(|&(idx, _, _)| rows(idx)).collect());
    let sum = LogSurvivalSum { dist, far, near, rows, u, checkpoint };
    SOLVE_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.tri.clear();
        scratch.value.clear();
        *depth = (*depth).clamp(1, n_cap);
        let mut next_col = 0;
        loop {
            let at_ceiling = *depth == n_cap;
            let shape = if at_ceiling { ceiling } else { Triangle { x_max, m_top: *depth } };
            scratch.extend(&sum, shape, next_col);
            next_col = shape.m_top + 1;
            scratch.recurse(shape, *depth, at_ceiling, u);
            if let Some(chunks) = scratch.walk(x_max, *depth, at_ceiling, u) {
                return chunks;
            }
            *depth = (2 * *depth).min(n_cap);
        }
    })
}

/// Reusable backing storage for [`solve_with_rows`]: the `G` triangle,
/// its exponentials in the same layout, and the packed value/choice
/// tables. Allocating (and kernel-zeroing) them per solve dominated the
/// solve's own arithmetic, so each thread keeps one set of buffers warm
/// across solves. They are sized to the depth a solve reaches: ~0.4 MB
/// at `x_max = 256` for a plan certified at the start depth 64, ~0.7 MB
/// at the ceiling 128.
#[derive(Default)]
struct SolveScratch {
    tri: Vec<f64>,
    egrid: Vec<f64>,
    value: Vec<f64>,
    choice: Vec<u32>,
    hull: Vec<(f64, f64, u32)>,
}

impl SolveScratch {
    /// Grow `G` and `E` to `shape` from its column `m_lo`, where the
    /// grids held so far end: fill and exponentiate only the new
    /// columns, since a deeper shape never changes the held ones.
    fn extend(&mut self, sum: &LogSurvivalSum<'_>, shape: Triangle, m_lo: usize) {
        let from = shape.col_start(m_lo);
        debug_assert_eq!(from, self.tri.len(), "the grids end at column {m_lo}");
        self.tri.resize(shape.len(), 0.0);
        sum.fill(&mut self.tri, shape, m_lo..=shape.m_top);
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
        // G(0,0). `exp_shifted` is element-wise, so exponentiating a
        // column range gives the bits of a whole-grid pass.
        let g_off = if self.tri[0].is_finite() { self.tri[0] } else { 0.0 };
        self.egrid.resize(self.tri.len(), 0.0);
        ckpt_math::simd::exp_shifted(&self.tri[from..], g_off, &mut self.egrid[from..]);
    }

    /// The value recursion over columns `depth − 1` down to 0 of `shape`,
    /// from column `depth`: `V = 0` at the ceiling, else
    /// [`continuation_bound`].
    fn recurse(&mut self, shape: Triangle, depth: usize, at_ceiling: bool, u: f64) {
        let x_max = shape.x_max;
        let SolveScratch { tri, egrid, value, choice, hull } = self;
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
        // `value`/`choice` are n-major and packed ([`v_start`]), and the
        // hull below reads column n+1 with ascending `j`.
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
        //
        // Every column's x = 0 entry is the V(0, ·) = 0 base case. The
        // buffer is zeroed when a solve begins and only grows with the
        // depth, so a ceiling column `depth` reads the zeros `V = 0`
        // needs, and a shallow one is seeded here. `choice` is only ever
        // read at states the backward pass wrote this recursion, so its
        // stale contents don't matter.
        value.resize(v_start(x_max, depth + 1), 0.0);
        choice.resize(v_start(x_max, depth + 1), 0);
        if !at_ceiling {
            let ecol = &egrid[shape.col_start(depth)..shape.col_start(depth + 1)];
            continuation_bound(ecol, u, &mut value[v_start(x_max, depth)..]);
        }
        for n in (0..depth).rev() {
            let x_hi = x_max - n;
            // Column n+1 of E starts at a = n.
            let ecol = &egrid[shape.col_start(n + 1)..shape.col_start(n + 2)];
            // Columns n (written) and n+1 (read) are disjoint.
            let (vcur, vnext) = value.split_at_mut(v_start(x_max, n + 1));
            let vcol = &mut vcur[v_start(x_max, n)..];
            let vnext = &vnext[..x_hi];
            let ccol = &mut choice[v_start(x_max, n)..v_start(x_max, n + 1)];
            // (slope, intercept, j) lines of the current column's hull.
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
    }

    /// Walk the optimal schedule from `(x_max, 0)`. A plan that reaches
    /// column `depth` with work left flushes it as one final chunk at the
    /// ceiling, and is not certified (`None`) below it.
    fn walk(&self, x_max: usize, depth: usize, at_ceiling: bool, u: f64) -> Option<Vec<f64>> {
        let mut chunks = Vec::new();
        let mut x = x_max;
        let mut n = 0usize;
        while x > 0 {
            if n >= depth {
                if !at_ceiling {
                    return None;
                }
                chunks.push(x as f64 * u);
                break;
            }
            let i = self.choice[v_start(x_max, n) + x] as usize;
            chunks.push(i as f64 * u);
            x -= i;
            n += 1;
        }
        Some(chunks)
    }
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

    /// Oracle: every distinct age of `ages` with its multiplicity,
    /// ascending, as a copy with `f64` counts.
    fn exact_ages(ages: &AgeView) -> Vec<(f64, f64)> {
        let failed = ages.failed_ages();
        let mut exact: Vec<(f64, f64)> = Vec::with_capacity(failed.len() + 1);
        exact.extend(failed.iter().map(|&(a, n)| (a, f64::from(n))));
        let (pristine_n, pristine_age) = ages.pristine();
        if pristine_n > 0 {
            let at = exact.partition_point(|e| e.0 <= pristine_age);
            exact.insert(at, (pristine_age, pristine_n as f64));
        }
        exact
    }

    /// Oracle: §3.3's scheme on a copied ascending list, split into kept
    /// and rest vectors, the rest bucketed one binary search per age.
    fn approximate_ages(exact: Vec<(f64, f64)>, dist: &dyn FailureDistribution) -> Vec<(f64, f64)> {
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
        let (Some(&(lo, _)), Some(&(hi, _))) = (rest.first(), rest.last()) else { return kept };
        kept.extend(bucket_onto(&rest, &reference_ages(lo, hi, dist)));
        kept
    }

    /// Oracle: assign each `(age, count)` to the nearest reference value.
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

    /// Oracle: [`compress_ages`] through the copies above.
    fn oracle_compress(ages: &AgeView, dist: &dyn FailureDistribution) -> Vec<(f64, f64)> {
        let exact = exact_ages(ages);
        if exact.len() <= EXACT_AGES_MAX {
            exact
        } else {
            approximate_ages(exact, dist)
        }
    }

    /// A compressed state as `(age bits, count)`, equal adjacent ages
    /// merged: an age on a repeated reference may land on either copy.
    fn merged<C: Copy>(pairs: &[(f64, C)], count: impl Fn(C) -> u64) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for &(age, c) in pairs {
            match out.last_mut() {
                Some(last) if last.0 == age.to_bits() => last.1 += count(c),
                _ => out.push((age.to_bits(), count(c))),
            }
        }
        out
    }

    /// An oracle count, which is integral.
    fn whole(c: f64) -> u64 {
        assert_eq!(c.fract(), 0.0, "count {c}");
        c as u64
    }

    /// `(age, count)` pairs with `f64` counts, for the objective helpers.
    fn as_f64(pairs: &[(f64, u64)]) -> Vec<(f64, f64)> {
        pairs.iter().map(|&(a, c)| (a, c as f64)).collect()
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

    #[test]
    fn wants_ages_only_when_the_next_decision_replans() {
        let spec = JobSpec::table1_single_processor();
        let dp = DpNextFailure::new(
            &spec,
            Box::new(Weibull::from_mtbf(0.7, DAY)),
            DAY,
            small_config(40),
        );
        let ages = AgeView::single(0.0);
        let plan_len = dp.plan(spec.work, &ages).len();
        assert!(plan_len > 1, "the plan has a middle to walk");
        let mut s = dp.session();
        assert!(s.wants_ages(), "a fresh session plans");
        let mut remaining = spec.work;
        for taken in 1..=plan_len {
            remaining -= s.next_chunk(remaining, &ages, 0.0);
            // Mid-plan decisions read no ages; a walked plan replans.
            assert_eq!(s.wants_ages(), taken == plan_len, "after {taken} of {plan_len} chunks");
        }
        let mut s = dp.session();
        s.next_chunk(spec.work, &ages, 0.0);
        assert!(!s.wants_ages(), "mid-plan");
        s.on_failure();
        assert!(s.wants_ages(), "a failure invalidates the plan");
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
            let inline = dp.solve_key(&aware, false, &mut start_depth(dp.x_max));
            prop_assert_eq!(bits(&planned), bits(&inline));
            let from_rows = dp.solve_key(&aware, true, &mut start_depth(dp.x_max));
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
            let from_rows = dp.solve_key(&key, true, &mut start_depth(dp.x_max));
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
        /// under §3.3's scheme alike, whether the scheme reads the view
        /// in place or the sorted copy.
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
            let oracle = approximate_ages(sorted.clone(), &dist);
            prop_assert_eq!(
                merged(&approximate(age_entries(&view), &dist), |c| c),
                merged(&oracle, whole)
            );
            let compressed = if sorted.len() <= EXACT_AGES_MAX { sorted } else { oracle };
            prop_assert_eq!(
                merged(&compress_ages(&view, &dist), |c| c),
                merged(&compressed, whole)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass compression equals the copy-and-bucket oracle bit
        /// for bit, and so does the plan key built on it, over random
        /// failure histories of 1- and 4-processor units on both sides of
        /// the 128-entry switch. `grid` histories put last failures on 64
        /// dates, so units fail simultaneously and the pristine age ties
        /// failed ones; the others put every age past the exact ones on a
        /// §3.3 reference or halfway between two, the pristine entry too.
        #[test]
        fn compress_ages_matches_the_copy_and_bucket_oracle(
            grid in 0u8..2,
            units in 1usize..=300,
            four in 0u8..2,
            draws in proptest::collection::vec((0usize..64, 0usize..200, 0u8..2), 300),
            pristine_n in 0u64..6,
            pristine_draw in 0usize..200,
            shape in 0.5..1.5f64,
            spread in 1.0..1e4f64,
        ) {
            let dist = Weibull::from_mtbf(shape, 30.0 * DAY);
            let (grid, per_unit) = (grid == 1, if four == 1 { 4 } else { 1 });
            let (lo, hi) = (600.0, 600.0 * (1.0 + spread));
            let refs = reference_ages(lo, hi, &dist);
            // Ages past the exact ones: on a reference or a midpoint,
            // held inside [lo, hi] so lo and hi stay the rest's extremes.
            let on_refs = |k: usize, mid: bool| -> f64 {
                let k = k % refs.len();
                let a = if mid && k + 1 < refs.len() { 0.5 * (refs[k] + refs[k + 1]) } else { refs[k] };
                a.clamp(lo, hi)
            };
            let now = 1e7;
            let failed: Vec<(f64, u32)> = draws[..units]
                .iter()
                .enumerate()
                .map(|(i, &(slot, k, mid))| {
                    let age = if grid {
                        now - 250.0 * slot as f64
                    } else {
                        // The first units hold the N_EXACT processors below lo
                        // (a 4-processor unit at lo splits), then lo and hi.
                        let young = N_EXACT / per_unit as usize;
                        match i.checked_sub(young) {
                            None => 10.0 * (i + 1) as f64,
                            Some(0) => lo,
                            Some(1) => hi,
                            Some(_) => on_refs(k, mid == 1),
                        }
                    };
                    (age, per_unit)
                })
                .collect();
            let pristine_age = if grid {
                now - 250.0 * (pristine_draw % 64) as f64
            } else {
                on_refs(pristine_draw, pristine_draw % 2 == 1)
            };
            let view = AgeView::new(failed, pristine_n, pristine_age);

            let compressed = compress_ages(&view, &dist);
            let oracle = oracle_compress(&view, &dist);
            if oracle.len() <= EXACT_AGES_MAX {
                let exact: Vec<(f64, u64)> = oracle.iter().map(|&(a, c)| (a, whole(c))).collect();
                prop_assert_eq!(merged(&compressed, |c| c), merged(&exact, |c| c));
                prop_assert_eq!(compressed, exact);
            } else {
                prop_assert_eq!(merged(&compressed, |c| c), merged(&oracle, whole));
            }

            let spec = JobSpec::table1_petascale(view.proc_count());
            let dp = DpNextFailure::with_caches(
                &spec, Box::new(dist), 30.0 * DAY, small_config(40), DpCaches::private(),
            );
            let key = dp.plan_key(spec.work, &view);
            let u = f64::from_bits(key.u_bits);
            let mut buckets: Vec<(u64, u64)> = Vec::new();
            for &(age, count) in &oracle {
                let id = quantise_age(age, u);
                match buckets.last_mut() {
                    Some(last) if last.0 == id => last.1 += whole(count),
                    _ => buckets.push((id, whole(count))),
                }
            }
            prop_assert_eq!(key.buckets, buckets);
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
        /// how the input pairs are ordered or grouped (past the 128-entry
        /// threshold, where it merges ages).
        #[test]
        fn compress_ages_invariant_under_permutation(
            raw in proptest::collection::vec((1.0..5e6f64, 1u32..60), 129..200),
            pristine in 0u64..5_000,
            rotate in 0usize..40,
            shape in 0.5..1.2f64,
        ) {
            let dist = Weibull::from_mtbf(shape, 100_000.0);
            let now = 1e7;
            let compress = |view: &AgeView| as_f64(&compress_ages(view, &dist));
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
        let (representative, u) = planning_state(dp, remaining, ages);
        solve(dp.dist.as_ref(), &representative, dp.x_max, u, dp.spec.checkpoint)
    }

    /// The representative ages and the quantum [`DpNextFailure::plan`]
    /// solves for `ages`.
    fn planning_state(dp: &DpNextFailure, remaining: f64, ages: &AgeView) -> (Vec<(f64, f64)>, f64) {
        let key = dp.plan_key(remaining, ages);
        let u = f64::from_bits(key.u_bits);
        let representative = key
            .buckets
            .iter()
            .map(|&(id, count)| (representative_age(id, u), count as f64))
            .collect();
        (representative, u)
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
        let total: u64 = c.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 10);
        assert_eq!(c[0], (5.0, 2));
        assert_eq!(c.last().copied(), Some((500.0, 7)));
    }

    #[test]
    fn compression_keeps_smallest_exact() {
        let dist = Weibull::from_mtbf(0.7, 1000.0);
        let failed: Vec<(f64, u32)> = (0..200).map(|i| (10.0 + i as f64 * 7.0, 1)).collect();
        let view = AgeView::new(failed, 1000, 5_000.0);
        let c = compress_ages(&view, &dist);
        // The ten smallest ages survive exactly.
        for i in 0..10 {
            assert!(c.iter().any(|&(a, _)| (a - (10.0 + i as f64 * 7.0)).abs() < 1e-9));
        }
        // Total processor count is conserved.
        let total: u64 = c.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 1200);
        // And the state is genuinely compressed.
        assert!(c.len() < 201, "{} entries", c.len());
    }

    /// Worst relative error of the §3.3-compressed platform success
    /// probability against the exact age multiset, over chunks
    /// `longest / 2^i`, i = 0..6. Fails if compression merges nothing.
    fn worst_compression_error(dist: &Weibull, view: &AgeView, longest: f64) -> f64 {
        let exact = exact_ages(view);
        let approx = as_f64(&approximate(age_entries(view), dist));
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

    /// Oracle: the solve at the ceiling depth, with no shallow start.
    fn solve_at_ceiling(
        dist: &dyn FailureDistribution,
        ages: &[(f64, f64)],
        x_max: usize,
        u: f64,
        checkpoint: f64,
        rows: Option<&dyn Fn(usize) -> Arc<[f64]>>,
    ) -> Vec<f64> {
        let mut depth = usize::MAX;
        solve_with_rows(dist, ages, x_max, u, checkpoint, rows, &mut depth)
    }

    fn bits(plan: &[f64]) -> Vec<u64> {
        plan.iter().map(|c| c.to_bits()).collect()
    }

    /// Figure 5's small shapes reach the chunk cap. At p = 45,208 and
    /// k = 0.1 a platform a year old plans `value_chunk_cap` chunks, all
    /// but the last of one quantum (the quantum is coarser than the
    /// optimal chunk), and flushes the rest of the window as one more; a
    /// fresh platform at k = 0.5 flushes too, and so do both with 20
    /// young failed units.
    /// The solve grown from the start depth, or from depth 1, reproduces
    /// the ceiling's plan bit for bit. ROADMAP item 1's state-sized
    /// window is meant to move these plans off the cap: this test pins
    /// the flush so that the move is made on purpose.
    #[test]
    fn small_k_jaguar_plans_reach_the_chunk_cap() {
        let spec = JobSpec::table1_petascale(45_208);
        let mtbf = 125.0 * YEAR;
        let young: Vec<(f64, u32)> = (0..20).map(|i| (600.0 + 4_000.0 * f64::from(i), 1)).collect();
        for (k, pristine_age) in [(0.1, YEAR), (0.5, 0.0)] {
            let dp = DpNextFailure::new(
                &spec,
                Box::new(Weibull::from_mtbf(k, mtbf)),
                mtbf,
                DpNextFailureConfig::default(),
            );
            let cap = value_chunk_cap(dp.x_max);
            assert_eq!((dp.x_max, cap), (136, 68));
            for view in [
                AgeView::all_pristine(45_208, pristine_age),
                AgeView::new(young.clone(), 45_188, pristine_age),
            ] {
                let (ages, u) = planning_state(&dp, spec.work, &view);
                let plan = full_schedule(&dp, spec.work, &view);
                assert_eq!(plan.len(), cap + 1, "k = {k}: {cap} chunks, then the flush");
                let planned: f64 = plan[..cap].iter().sum();
                assert_eq!(plan[cap], (dp.x_max as f64 - planned / u).round() * u, "the flush is the rest");
                if k < 0.2 {
                    assert!(plan[..cap - 1].iter().all(|&c| c == u), "one quantum a chunk");
                }
                let oracle = solve_at_ceiling(dp.dist.as_ref(), &ages, dp.x_max, u, spec.checkpoint, None);
                assert_eq!(bits(&plan), bits(&oracle));
                let mut depth = 1;
                let grown = solve_with_rows(dp.dist.as_ref(), &ages, dp.x_max, u, spec.checkpoint, None, &mut depth);
                assert_eq!(bits(&grown), bits(&oracle));
                assert_eq!(depth, cap, "certified at the ceiling");
            }
        }
    }

    /// The law of a depth-test draw: Exponential, or Weibull of shape
    /// 0.1, 0.3, 0.7, 1 or 1.5.
    fn depth_law(draw: usize, mtbf: f64) -> Box<dyn FailureDistribution> {
        match [None, Some(0.1), Some(0.3), Some(0.7), Some(1.0), Some(1.5)][draw % 6] {
            None => Box::new(Exponential::from_mtbf(mtbf)),
            Some(k) => Box::new(Weibull::from_mtbf(k, mtbf)),
        }
    }

    /// A drawn planning state for the depth tests: the policy at `x_max`
    /// quanta, and the representative ages and quantum of the view with
    /// one age group per entry of `ages`, in multiples of the far fit's
    /// span `t_span` (the first group holds the pristine processors, the
    /// others one failed processor each). Ages go through the age-aware
    /// key whatever the law, as a memoryless key would drop them. Returns
    /// whether the solve folds an age into a [`FarFit`].
    fn depth_state(
        law: usize,
        procs: u64,
        platform_mtbf: f64,
        x_max: usize,
        endgame: bool,
        work_frac: f64,
        ages: &[f64],
    ) -> (DpNextFailure, Vec<(f64, f64)>, f64, bool) {
        let spec = JobSpec::table1_petascale(procs);
        let proc_mtbf = platform_mtbf * procs as f64;
        let dp = DpNextFailure::with_caches(
            &spec,
            depth_law(law, proc_mtbf),
            proc_mtbf,
            small_config(x_max),
            DpCaches::private(),
        );
        let window = planning_window(spec.checkpoint, platform_mtbf);
        let remaining = if endgame { work_frac * window } else { (1.0 + work_frac) * window };
        let u = remaining.min(window) / x_max as f64;
        let t_span = x_max as f64 * u + (Triangle::new(x_max).m_top + 1) as f64 * spec.checkpoint;
        let failed: Vec<(f64, u32)> = ages[1..].iter().map(|&f| (f * t_span, 1)).collect();
        let view = AgeView::new(failed, procs - (ages.len() as u64 - 1), ages[0] * t_span);
        let representative: Vec<(f64, f64)> = dp
            .age_buckets(&view, u)
            .into_iter()
            .map(|(id, count)| (representative_age(id, u), count as f64))
            .collect();
        let far = FarFit::build(dp.dist.as_ref(), &representative, t_span, &mut Vec::new()).is_some();
        (dp, representative, u, far)
    }

    /// The age groups and processor count of a depth-test draw: one group
    /// (the first far age if any, else the first near one) on 1 or
    /// 45,208 processors, or every group on 64 or 45,208.
    fn depth_groups(one_age: bool, wide: bool, near: &[f64], far: &[f64]) -> (Vec<f64>, u64) {
        let ages = if one_age {
            vec![far.first().copied().unwrap_or(near[0])]
        } else {
            near.iter().chain(far).copied().collect()
        };
        let procs = match (wide, one_age) {
            (true, _) => 45_208,
            (false, true) => 1,
            (false, false) => 64,
        };
        (ages, procs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// [`continuation_bound`] bounds every value of the ceiling solve
        /// from above: `V(j, D) ≤ B(j)` for all `j` at `D ∈ {32, 64}`,
        /// with `B` built from the ceiling's own `E` column (a shallow
        /// triangle's is the same prefix). States are one-age (one
        /// processor, or 45,208 of one age) or multi-age (64 or 45,208
        /// processors in up to five groups), with and without ages past
        /// twice the span (a [`FarFit`]), under Exponential and Weibull
        /// laws, in truncated and endgame windows.
        #[test]
        fn continuation_bound_is_above_the_ceiling_values(
            law in 0usize..6,
            one_age in 0u8..2,
            wide in 0u8..2,
            mtbf_hours in 1.0..240.0f64,
            x_max in 130usize..=256,
            endgame in 0u8..2,
            work_frac in 0.01..0.99f64,
            near in proptest::collection::vec(0.0..1.5f64, 1..4),
            far_ages in proptest::collection::vec(2.5..40.0f64, 0..3),
        ) {
            let (ages, procs) = depth_groups(one_age == 1, wide == 1, &near, &far_ages);
            let (dp, representative, u, far) =
                depth_state(law, procs, mtbf_hours * 3_600.0, x_max, endgame == 1, work_frac, &ages);
            prop_assert_eq!(far, !far_ages.is_empty(), "far ages, and only they, build a fit");
            let checkpoint = dp.spec.checkpoint;
            solve_at_ceiling(dp.dist.as_ref(), &representative, x_max, u, checkpoint, None);
            SOLVE_SCRATCH.with(|cell| {
                let scratch = cell.borrow();
                let shape = Triangle::new(x_max);
                for d in [32, 64] {
                    let ecol = &scratch.egrid[shape.col_start(d)..shape.col_start(d + 1)];
                    let values = &scratch.value[v_start(x_max, d)..v_start(x_max, d + 1)];
                    let mut bound = vec![f64::NAN; values.len()];
                    continuation_bound(ecol, u, &mut bound);
                    for (j, (&v, &b)) in values.iter().zip(&bound).enumerate() {
                        prop_assert!(v <= b, "D = {d}, j = {j}: V = {v} above B = {b}");
                    }
                }
            });
        }

        /// A solve grown from any first depth returns the ceiling solve's
        /// plan bit for bit, with rows inline or cached, over the draws of
        /// the bound test on windows of 40–256 quanta. First depths of
        /// 1–8 make deep plans grow several times; the small-shape draws
        /// include plans that flush at the cap (pinned by
        /// `small_k_jaguar_plans_reach_the_chunk_cap`). The depth the
        /// solve reports certified the plan: it holds the plan's chunks,
        /// bar the flush.
        #[test]
        fn grown_solve_matches_the_ceiling_solve_bit_for_bit(
            law in 0usize..6,
            one_age in 0u8..2,
            wide in 0u8..2,
            mtbf_hours in 1.0..240.0f64,
            x_max in 40usize..=256,
            endgame in 0u8..2,
            work_frac in 0.01..0.99f64,
            near in proptest::collection::vec(0.0..1.5f64, 1..4),
            far_ages in proptest::collection::vec(2.5..40.0f64, 0..3),
            first in 1usize..=9,
        ) {
            let (ages, procs) = depth_groups(one_age == 1, wide == 1, &near, &far_ages);
            let (dp, representative, u, _) =
                depth_state(law, procs, mtbf_hours * 3_600.0, x_max, endgame == 1, work_frac, &ages);
            let (dist, checkpoint) = (dp.dist.as_ref(), dp.spec.checkpoint);
            let oracle = solve_at_ceiling(dist, &representative, x_max, u, checkpoint, None);
            // Draw 9 stands for the production start depth.
            let first = if first == 9 { start_depth(x_max) } else { first };
            let row = |i: usize| compute_row(dist, representative[i].0, x_max, u, checkpoint);
            for rows in [None, Some(&row as &dyn Fn(usize) -> Arc<[f64]>)] {
                let mut depth = first;
                let grown = solve_with_rows(dist, &representative, x_max, u, checkpoint, rows, &mut depth);
                prop_assert_eq!(bits(&grown), bits(&oracle));
                let n_cap = x_max.min(value_chunk_cap(x_max));
                prop_assert!(depth >= first.min(n_cap) && depth <= n_cap);
                prop_assert!(grown.len() <= depth || (depth == n_cap && grown.len() == n_cap + 1));
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
