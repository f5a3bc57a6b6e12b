//! `OptExp` — the provably optimal periodic policy for Exponential
//! failures (Theorem 1, extended to parallel jobs by Proposition 5).
//!
//! For `p` processors with iid Exponential(λ) failures, the macro-processor
//! argument gives a platform rate `λ' = pλ`; the optimal strategy splits
//! the parallel work `W(p)` into
//!
//! ```text
//! K* ∈ {max(1, ⌊K0⌋), ⌈K0⌉},   K0 = λ'W(p) / (1 + W0(−e^{−λ'C(p)−1}))
//! ```
//!
//! equal chunks, whichever minimises `ψ(K) = K(e^{λ'(W(p)/K + C(p))} − 1)`,
//! and the optimal expected makespan (sequential closed form) is
//! `E[T*] = K*·e^{λR}(1/λ + D)·(e^{λ(W/K* + C)} − 1)`.

use crate::periodic::FixedPeriod;
use ckpt_math::lambert_w0;
use ckpt_workload::JobSpec;

/// Theorem 1 / Proposition 5 machinery plus the resulting periodic policy.
#[derive(Debug, Clone)]
pub struct OptExp {
    policy: FixedPeriod,
    chunks: u64,
    platform_rate: f64,
}

impl OptExp {
    /// Build for a job spec and per-processor failure rate `λ`.
    pub fn new(spec: &JobSpec, lambda_proc: f64) -> Self {
        assert!(lambda_proc > 0.0 && lambda_proc.is_finite());
        let lambda = lambda_proc * spec.procs as f64;
        let k = optimal_chunk_count(spec.work, spec.checkpoint, lambda);
        let mut policy = FixedPeriod::new("OptExp", spec.work / k as f64);
        // Rename without the factor suffix machinery.
        policy = FixedPeriod::new("OptExp", policy.period());
        Self { policy, chunks: k, platform_rate: lambda }
    }

    /// Convenience: from a per-processor MTBF instead of a rate.
    pub fn from_mtbf(spec: &JobSpec, proc_mtbf: f64) -> Self {
        Self::new(spec, 1.0 / proc_mtbf)
    }

    /// The optimal number of equal chunks `K*`.
    pub fn chunk_count(&self) -> u64 {
        self.chunks
    }

    /// The chunk size `W(p)/K*` (the policy's period).
    pub fn period(&self) -> f64 {
        self.policy.period()
    }

    /// The aggregated platform failure rate `λ' = pλ`.
    pub fn platform_rate(&self) -> f64 {
        self.platform_rate
    }

    /// The underlying periodic policy (e.g. to scale for `PeriodLB`).
    pub fn as_fixed_period(&self) -> &FixedPeriod {
        &self.policy
    }
}

impl crate::Policy for OptExp {
    fn name(&self) -> &str {
        "OptExp"
    }

    fn session(&self) -> Box<dyn crate::PolicySession + '_> {
        self.policy.session()
    }
}

/// `ln ψ(K)` where `ψ(K) = K(e^{λ(W/K + C)} − 1)`, computed in log space so
/// that enormous exponents (tiny K) compare correctly instead of both
/// overflowing to `+∞`.
fn ln_psi(k: f64, work: f64, checkpoint: f64, lambda: f64) -> f64 {
    let expo = lambda * (work / k + checkpoint);
    if expo > 30.0 {
        // e^x − 1 ≈ e^x: ln ψ = ln K + x.
        k.ln() + expo
    } else {
        k.ln() + expo.exp_m1().ln()
    }
}

/// The continuous optimum `K0 = λW / (1 + W0(−e^{−λC−1}))` of Theorem 1.
pub fn continuous_chunk_count(work: f64, checkpoint: f64, lambda: f64) -> f64 {
    assert!(work > 0.0 && checkpoint >= 0.0 && lambda > 0.0);
    // Argument −e^{−λC−1} ∈ (−1/e, 0); W0 of it ∈ (−1, 0).
    let z = -(-lambda * checkpoint - 1.0).exp();
    lambda * work / (1.0 + lambert_w0(z))
}

/// The integer optimum `K*` of Theorem 1: the better of `⌊K0⌋` and `⌈K0⌉`
/// (floored at one chunk).
pub fn optimal_chunk_count(work: f64, checkpoint: f64, lambda: f64) -> u64 {
    let k0 = continuous_chunk_count(work, checkpoint, lambda);
    let lo = (k0.floor().max(1.0)) as u64;
    let hi = (k0.ceil().max(1.0)) as u64;
    if lo == hi {
        return lo;
    }
    let psi_lo = ln_psi(lo as f64, work, checkpoint, lambda);
    let psi_hi = ln_psi(hi as f64, work, checkpoint, lambda);
    if psi_lo <= psi_hi {
        lo
    } else {
        hi
    }
}

/// Theorem 1's optimal expected makespan for a **sequential** job:
/// `E[T*] = K*·e^{λR}(1/λ + D)·(e^{λ(W/K* + C)} − 1)`.
pub fn optimal_expected_makespan_sequential(spec: &JobSpec, lambda: f64) -> f64 {
    assert_eq!(spec.procs, 1, "closed form is for sequential jobs");
    let k = optimal_chunk_count(spec.work, spec.checkpoint, lambda) as f64;
    k * (lambda * spec.recovery).exp()
        * (1.0 / lambda + spec.downtime)
        * (lambda * (spec.work / k + spec.checkpoint)).exp_m1()
}

/// Expected makespan of an arbitrary `K`-equal-chunk periodic strategy on a
/// sequential job (the `ρ* = (1/λ + E[Trec]) Σ (e^{λ(ωᵢ+C)} − 1)` form from
/// the proof of Theorem 1) — used to verify K* beats its neighbours.
pub fn expected_makespan_k_chunks(spec: &JobSpec, lambda: f64, k: u64) -> f64 {
    assert_eq!(spec.procs, 1);
    assert!(k >= 1);
    let kf = k as f64;
    // E[Trec] = D + R + (1 − e^{−λR})/e^{−λR} · (D + E[Tlost(R)]),
    // E[Tlost(R)] = 1/λ − R/(e^{λR} − 1) (Lemma 1).
    let e_lost_r = 1.0 / lambda - spec.recovery / (lambda * spec.recovery).exp_m1();
    let e_rec = spec.downtime
        + spec.recovery
        + (lambda * spec.recovery).exp_m1() * (spec.downtime + e_lost_r);
    (1.0 / lambda + e_rec) * kf * (lambda * (spec.work / kf + spec.checkpoint)).exp_m1()
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the period clamps to the work itself")]
mod tests {
    use super::*;
    use crate::Policy;

    const DAY: f64 = 86_400.0;

    #[test]
    fn k0_matches_stationarity_condition() {
        // ψ'(K0) = e^{λ(W/K0 + C)}(1 − λW/K0) − 1 = 0 (Equation 4).
        let (w, c, lambda) = (20.0 * DAY, 600.0, 1.0 / DAY);
        let k0 = continuous_chunk_count(w, c, lambda);
        let resid = (lambda * (w / k0 + c)).exp() * (1.0 - lambda * w / k0) - 1.0;
        assert!(resid.abs() < 1e-9, "ψ'(K0) = {resid}");
    }

    #[test]
    fn integer_optimum_beats_neighbours() {
        let (w, c, lambda) = (20.0 * DAY, 600.0, 1.0 / (6.0 * 3_600.0));
        let k = optimal_chunk_count(w, c, lambda);
        let spec = JobSpec::sequential(w, c, 600.0, 60.0);
        let at = |kk: u64| expected_makespan_k_chunks(&spec, lambda, kk);
        assert!(at(k) <= at(k + 1) + 1e-9);
        if k > 1 {
            assert!(at(k) <= at(k - 1) + 1e-9);
        }
    }

    #[test]
    fn closed_form_agrees_with_rho_star() {
        // Theorem 1's E[T*] expression equals the ρ* form at K = K*.
        let lambda = 1.0 / DAY;
        let spec = JobSpec::table1_single_processor();
        let k = optimal_chunk_count(spec.work, spec.checkpoint, lambda);
        let a = optimal_expected_makespan_sequential(&spec, lambda);
        let b = expected_makespan_k_chunks(&spec, lambda, k);
        // They differ only in E[Trec] algebra: e^{λR}(1/λ + D) vs
        // 1/λ + E[Trec]; check identity numerically.
        assert!(
            (a - b).abs() < 1e-6 * a,
            "closed form {a} vs ρ* {b}"
        );
    }

    #[test]
    fn period_approaches_young_for_rare_failures() {
        // λ(W/K + C) small → optimal period ≈ √(2C/λ) (Young's regime).
        let year = 365.25 * DAY;
        let spec = JobSpec::table1_petascale(45_208);
        let opt = OptExp::from_mtbf(&spec, 125.0 * year);
        let lambda_plat = 45_208.0 / (125.0 * year);
        let yg = (2.0 * spec.checkpoint / lambda_plat).sqrt();
        let rel = (opt.period() - yg).abs() / yg;
        assert!(rel < 0.1, "OptExp {} vs Young-limit {yg}", opt.period());
    }

    #[test]
    fn single_chunk_when_checkpoint_dominates() {
        // Tiny work, huge checkpoint cost, rare failures → one chunk.
        let spec = JobSpec::sequential(100.0, 10_000.0, 10.0, 1.0);
        let opt = OptExp::new(&spec, 1e-9);
        assert_eq!(opt.chunk_count(), 1);
        assert_eq!(opt.period(), spec.work);
    }

    #[test]
    fn more_failures_mean_more_chunks() {
        let spec = JobSpec::table1_single_processor();
        let k_hour = OptExp::new(&spec, 1.0 / 3_600.0).chunk_count();
        let k_day = OptExp::new(&spec, 1.0 / DAY).chunk_count();
        let k_week = OptExp::new(&spec, 1.0 / (7.0 * DAY)).chunk_count();
        assert!(k_hour > k_day && k_day > k_week, "{k_hour} {k_day} {k_week}");
    }

    #[test]
    fn proposition5_macro_processor_scaling() {
        // p processors at rate λ behave as one at pλ: OptExp on the
        // parallel spec equals Theorem 1 on the macro spec.
        let year = 365.25 * DAY;
        let p = 1 << 12;
        let spec = JobSpec::table1_petascale(p);
        let opt_parallel = OptExp::from_mtbf(&spec, 125.0 * year);
        let macro_spec = JobSpec::sequential(spec.work, spec.checkpoint, spec.recovery, spec.downtime);
        let opt_macro = OptExp::new(&macro_spec, p as f64 / (125.0 * year));
        assert_eq!(opt_parallel.chunk_count(), opt_macro.chunk_count());
    }

    #[test]
    fn ln_psi_handles_huge_exponents() {
        // K = 1 with large λW must not overflow to ∞ == ∞ comparisons.
        let a = ln_psi(1.0, 1e9, 600.0, 1e-3);
        let b = ln_psi(2.0, 1e9, 600.0, 1e-3);
        assert!(a.is_finite() && b.is_finite() && a > b);
    }

    #[test]
    fn policy_interface_yields_period() {
        let spec = JobSpec::table1_single_processor();
        let opt = OptExp::new(&spec, 1.0 / DAY);
        let mut s = opt.session();
        let ages = ckpt_platform::AgeView::single(0.0);
        let chunk = s.next_chunk(spec.work, &ages, 0.0);
        assert!((chunk - opt.period()).abs() < 1e-9);
    }
}
