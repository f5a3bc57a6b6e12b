//! Tabulated distribution kernels for the DP inner loops.
//!
//! The quantised DPs (`DPMakespan`, `DPNextFailure`) evaluate the same
//! distribution millions of times on a fixed time grid. A [`KernelTable`]
//! precomputes, once per `(distribution, grid)`:
//!
//! * `ln S(t)` on a uniform grid — answering interior queries by linear
//!   interpolation and **falling back to the exact distribution off the
//!   grid**, so no query is ever extrapolated;
//! * the cumulative survival integral `I(t) = ∫₀ᵗ S(s) ds` — giving the
//!   conditional expected loss `E[Tlost(x|τ)]` in O(1) via
//!   [`loss::expected_loss_from_integral`] instead of a per-query
//!   adaptive quadrature.
//!
//! Accuracy: grid points store exact samples (≤ 1e−9 relative trivially —
//! they are the same bits); between grid points the linear-interpolation
//! error is bounded by `step²·max|∂²ₜ ln S|/8`. For Exponential failures
//! `ln S` is linear and the table is exact everywhere in range; for the
//! paper's Weibull shapes the `kernel_interpolation_error_bound` test
//! pins the measured mid-cell error.

use crate::loss;
use crate::FailureDistribution;
use ckpt_math::UniformTable;

/// Precomputed log-survival and survival-integral tables for one
/// distribution on one uniform grid.
#[derive(Debug)]
pub struct KernelTable {
    dist: Box<dyn FailureDistribution>,
    log_surv: UniformTable,
    integral: UniformTable,
}

impl KernelTable {
    /// Build for `dist` over `[0, horizon]`. `resolution` is the smallest
    /// window the caller will query; the grid step is `resolution/8`,
    /// floored so the table never exceeds ~200k samples (the loss-table
    /// convention the `DPMakespan` tables have always used).
    pub fn build(dist: Box<dyn FailureDistribution>, horizon: f64, resolution: f64) -> Self {
        assert!(horizon > 0.0, "horizon must be positive");
        assert!(resolution > 0.0, "resolution must be positive");
        let step = (resolution / 8.0).max(horizon / 200_000.0);
        // Cold build path: one batched log-survival pass over the whole
        // grid (the family's vectorised override where one exists — a
        // single ln/exp sweep for Weibull, indexed counting for
        // Empirical) instead of a scalar transcendental per grid point.
        // The grid times are exactly the `k·step` points
        // `UniformTable::sample` would have used.
        let n = (horizon / step).ceil() as usize + 2; // once per table build
        let ts: Vec<f64> = (0..n).map(|k| k as f64 * step).collect();
        let mut logs = vec![0.0f64; n];
        dist.log_survival_batch(&ts, &mut logs);
        let log_surv = UniformTable::from_parts(step, logs);
        // exp of the sampled log-survival is `dist.survival` at the same
        // points, evaluated through the shared vectorised exp kernel
        // (`−∞` sentinels flush to survival 0 exactly).
        let mut surv_vals = vec![0.0f64; n];
        ckpt_math::simd::exp_shifted(log_surv.values(), 0.0, &mut surv_vals);
        let surv = UniformTable::from_parts(step, surv_vals);
        let integral = UniformTable::cumulative_trapezoid(&surv);
        Self { dist, log_surv, integral }
    }

    /// The wrapped distribution (exact fallback target).
    pub fn dist(&self) -> &dyn FailureDistribution {
        self.dist.as_ref()
    }

    /// Grid step in seconds.
    pub fn step(&self) -> f64 {
        self.log_surv.step()
    }

    /// Largest `t` served from the table.
    pub fn horizon(&self) -> f64 {
        self.log_surv.horizon()
    }

    /// `ln S(t)`: interpolated in range, exact off-grid.
    #[inline]
    pub fn log_survival(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        match self.log_surv.interp_checked(t) {
            Some(v) => v,
            None => self.dist.log_survival(t),
        }
    }

    /// `S(t)` through the tabulated log-survival.
    #[inline]
    pub fn survival(&self, t: f64) -> f64 {
        self.log_survival(t).exp() // exp of the tabulated log-survival is the table's sanctioned exit to linear domain
    }

    /// Conditional survival `Psuc(x|τ)` through the table (the trait's
    /// `exp(ln S(τ+x) − ln S(τ))` form, with tabulated log-survival).
    #[inline]
    pub fn psuc(&self, x: f64, tau: f64) -> f64 {
        let tau = tau.max(0.0);
        self.psuc_from(x, tau, self.log_survival(tau))
    }

    /// [`Self::psuc`] at an age `tau ≥ 0` whose `ln S(τ)` is `ls_tau`.
    #[inline]
    fn psuc_from(&self, x: f64, tau: f64, ls_tau: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        if ls_tau == f64::NEG_INFINITY { // -inf log-survival sentinel is an exact bit pattern
            return 0.0;
        }
        (self.log_survival(tau + x) - ls_tau).exp() // exp of a tabulated log-survival difference; the trait's canonical Psuc form
    }

    /// The table at one age `τ`: its own terms `ln S(τ)`, `S(τ)` and
    /// `I(τ)` taken once, for a caller (a DP ladder) that asks `Psuc` and
    /// `E[Tlost]` of one age at many lengths.
    pub fn at_age(&self, tau: f64) -> AgeKernel<'_> {
        AgeKernel {
            table: self,
            tau,
            ls_tau: self.log_survival(tau.max(0.0)),
            s_tau: self.dist.survival(tau),
            i_tau: self.survival_integral(tau),
        }
    }

    /// Cumulative survival integral `I(t)`, saturating past the horizon
    /// (the correct limit of the converging integral).
    #[inline]
    pub fn survival_integral(&self, t: f64) -> f64 {
        self.integral.interp_clamped(t)
    }

    /// `E[Tlost(x|τ)]` in O(1): interpolated integral, exact survival
    /// endpoints (see [`loss::expected_loss_from_integral`]).
    pub fn expected_loss(&self, x: f64, tau: f64) -> f64 {
        loss::expected_loss_from_integral(
            |t| self.survival_integral(t),
            |t| self.dist.survival(t),
            x,
            tau,
        )
    }
}

/// [`KernelTable::psuc`] and [`KernelTable::expected_loss`] at one age
/// ([`KernelTable::at_age`]), bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct AgeKernel<'a> {
    table: &'a KernelTable,
    tau: f64,
    ls_tau: f64,
    s_tau: f64,
    i_tau: f64,
}

impl AgeKernel<'_> {
    /// `Psuc(x|τ)`.
    #[inline]
    pub fn psuc(&self, x: f64) -> f64 {
        self.table.psuc_from(x, self.tau.max(0.0), self.ls_tau)
    }

    /// `E[Tlost(x|τ)]`.
    pub fn expected_loss(&self, x: f64) -> f64 {
        let table = self.table;
        loss::expected_loss_from_integral_at(
            |t| table.survival_integral(t),
            |t| table.dist.survival(t),
            x,
            self.tau,
            self.s_tau,
            self.i_tau,
        )
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact fallbacks and sentinels must return the closed form bit for bit")]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{Exponential, Weibull};

    fn weibull_kernel() -> (Weibull, KernelTable) {
        let d = Weibull::from_mtbf(0.7, 100_000.0);
        let k = KernelTable::build(Box::new(d), 500_000.0, 800.0);
        (d, k)
    }

    #[test]
    fn on_grid_queries_are_exact_within_1e9_relative() {
        let (d, k) = weibull_kernel();
        let step = k.step();
        for i in [1usize, 7, 100, 1000, 4000] {
            let t = i as f64 * step;
            let exact = d.log_survival(t);
            let table = k.log_survival(t);
            let rel = (table - exact).abs() / exact.abs().max(1e-300);
            assert!(rel <= 1e-9, "t = {t}: table {table} vs exact {exact} (rel {rel})");
        }
    }

    #[test]
    fn kernel_interpolation_error_bound() {
        // Off-grid (mid-cell) error: bounded by step²·max|∂²ₜ ln S|/8.
        // For Weibull(k, λ), ∂²ₜ ln S = −k(k−1)t^{k−2}/λ^k, monotone for
        // k < 1, so the bound at the cell's left edge dominates the cell.
        let (d, k) = weibull_kernel();
        let step = k.step();
        let shape = d.shape();
        let scale = d.scale();
        for i in [1usize, 5, 50, 500, 2500] {
            let t_left = i as f64 * step;
            let t = t_left + 0.5 * step;
            let err = (k.log_survival(t) - d.log_survival(t)).abs();
            let curv = (shape * (shape - 1.0)).abs() * t_left.powf(shape - 2.0)
                / scale.powf(shape);
            let bound = step * step * curv / 8.0;
            assert!(
                err <= bound * 1.0001 + 1e-15,
                "cell {i}: err {err} vs bound {bound}"
            );
        }
    }

    #[test]
    fn off_grid_falls_back_to_exact() {
        let (d, k) = weibull_kernel();
        let t = k.horizon() * 3.0;
        assert_eq!(k.log_survival(t), d.log_survival(t));
    }

    #[test]
    fn exponential_table_is_exact_in_range() {
        // ln S is linear: linear interpolation reproduces it to rounding.
        let d = Exponential::from_mtbf(5_000.0);
        let k = KernelTable::build(Box::new(d), 100_000.0, 100.0);
        for &t in &[13.7, 999.1, 54_321.0, 99_000.5] {
            let rel = (k.log_survival(t) - d.log_survival(t)).abs()
                / d.log_survival(t).abs();
            assert!(rel < 1e-12, "t = {t}");
        }
    }

    #[test]
    fn expected_loss_matches_closed_form_exponential() {
        let d = Exponential::from_mtbf(1_000.0);
        let k = KernelTable::build(Box::new(d), 20_000.0, 400.0);
        for &(x, tau) in &[(100.0, 0.0), (500.0, 200.0), (2_000.0, 0.0)] {
            let got = k.expected_loss(x, tau);
            let expect = d.expected_loss(x, tau);
            assert!(
                (got - expect).abs() < 0.02 * expect.max(1.0),
                "x={x} τ={tau}: table {got} vs closed {expect}"
            );
        }
    }

    #[test]
    fn psuc_tracks_trait_default() {
        let (d, k) = weibull_kernel();
        for &(x, tau) in &[(600.0, 0.0), (3_000.0, 10_000.0), (50.0, 400_000.0)] {
            let got = k.psuc(x, tau);
            let expect = d.psuc(x, tau);
            assert!(
                (got - expect).abs() < 1e-6,
                "x={x} τ={tau}: table {got} vs exact {expect}"
            );
        }
    }

    /// One age's kernel answers what the two-argument queries answer,
    /// bit for bit: on and off the grid, past the horizon, at age 0 and
    /// for empty windows.
    #[test]
    fn age_kernel_is_the_two_argument_queries() {
        let (_, k) = weibull_kernel();
        let h = k.horizon();
        for tau in [0.0, 100.0, 12_345.6, 0.5 * h, h - 1.0, 2.0 * h] {
            let age = k.at_age(tau);
            for x in [0.0, -5.0, 1.0, 600.0, 7_777.7, 0.75 * h, 3.0 * h] {
                assert_eq!(age.psuc(x).to_bits(), k.psuc(x, tau).to_bits(), "Psuc({x}|{tau})");
                assert_eq!(
                    age.expected_loss(x).to_bits(),
                    k.expected_loss(x, tau).to_bits(),
                    "E[Tlost({x}|{tau})]"
                );
            }
        }
    }

    fn empirical_kernel() -> (crate::Empirical, KernelTable) {
        // A synthetic availability log shaped like the LANL traces:
        // sub-hour to multi-week uptimes, heavy low-end mass.
        let durs: Vec<f64> =
            (1..=500).map(|i| 600.0 + (i as f64 * 7919.0) % 1_209_600.0).collect();
        let e = crate::Empirical::from_durations(durs);
        let k = KernelTable::build(Box::new(e.clone()), 2_000_000.0, 3_600.0);
        (e, k)
    }

    #[test]
    fn empirical_on_grid_queries_are_exact_within_1e9_relative() {
        // The Empirical batch path is bit-identical to its scalar
        // log-survival, so grid points hold the exact step-function
        // values and on-grid queries reproduce them.
        let (e, k) = empirical_kernel();
        let step = k.step();
        for i in [1usize, 7, 100, 1000, 4000] {
            let t = i as f64 * step;
            let exact = e.log_survival(t);
            let table = k.log_survival(t);
            if exact == f64::NEG_INFINITY {
                assert_eq!(table, f64::NEG_INFINITY, "t = {t}");
            } else {
                let rel = (table - exact).abs() / exact.abs().max(1e-300);
                assert!(rel <= 1e-9, "t = {t}: table {table} vs exact {exact} (rel {rel})");
            }
        }
    }

    #[test]
    fn empirical_off_grid_falls_back_to_exact() {
        let (e, k) = empirical_kernel();
        let t = k.horizon() * 3.0;
        assert_eq!(k.log_survival(t), e.log_survival(t));
        // Past the support both are the −∞ sentinel; inside the horizon
        // but past the largest duration the table interpolates into −∞
        // and survival flushes to exactly 0.
        let past_support = e.max_duration() + 2.0 * k.step();
        assert!(past_support < k.horizon());
        assert_eq!(k.log_survival(past_support), f64::NEG_INFINITY);
        assert_eq!(k.survival(past_support), 0.0);
    }

    #[test]
    fn empirical_expected_loss_tracks_closed_form() {
        // The table's trapezoid integral approximates the exact
        // prefix-sum form within the grid-resolution error.
        let (e, k) = empirical_kernel();
        for &(x, tau) in &[(3_600.0, 0.0), (86_400.0, 7_200.0), (604_800.0, 86_400.0)] {
            let got = k.expected_loss(x, tau);
            let expect = e.expected_loss(x, tau);
            assert!(
                (got - expect).abs() < 0.02 * expect.max(1.0) + k.step(),
                "x={x} τ={tau}: table {got} vs closed {expect}"
            );
        }
    }

    #[test]
    fn fingerprints_identify_value_identical_instances() {
        let a = Weibull::from_mtbf(0.7, 1_000.0);
        let b = Weibull::from_mtbf(0.7, 1_000.0);
        let c = Weibull::from_mtbf(0.5, 1_000.0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        let e = Exponential::from_mtbf(1_000.0);
        assert_ne!(a.fingerprint(), e.fingerprint());
        // MinOf composes; non-fingerprintable inners poison the chain.
        let m1 = crate::MinOf::new(Box::new(a), 64);
        let m2 = crate::MinOf::new(Box::new(b), 64);
        let m3 = crate::MinOf::new(Box::new(b), 32);
        assert_eq!(m1.fingerprint(), m2.fingerprint());
        assert_ne!(m1.fingerprint(), m3.fingerprint());
    }
}
