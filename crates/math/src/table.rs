//! Uniform-grid function tables: the shared substrate of the tabulated
//! distribution kernels (`ckpt-dist::kernel`).
//!
//! A [`UniformTable`] stores `f(k·step)` for `k = 0..n` and answers
//! interior queries by linear interpolation. Two query flavours cover the
//! two callers the DP kernels need:
//!
//! * [`interp_checked`](UniformTable::interp_checked) returns `None`
//!   beyond the sampled horizon so the caller can fall back to the exact
//!   function — the "exactness fallback for off-grid queries" contract;
//! * [`interp_clamped`](UniformTable::interp_clamped) saturates at the
//!   table ends — the cumulative-integral convention inherited from the
//!   `DPMakespan` loss table, where saturation is the correct limit.
//!
//! The linear-interpolation error on a C² function is bounded by
//! `step²·max|f''|/8` over the sampled range; on the grid points the
//! stored values are the exact samples, so on-grid queries are exact up
//! to one rounding in the `frac == 0` blend.

/// Samples of a scalar function on a uniform grid `t = k·step`.
#[derive(Debug, Clone)]
pub struct UniformTable {
    step: f64,
    values: Vec<f64>,
}

impl UniformTable {
    /// Sample `f` on `[0, horizon]` at spacing `step` (two extra points of
    /// head-room past the horizon, mirroring the loss-table convention).
    pub fn sample(f: impl Fn(f64) -> f64, horizon: f64, step: f64) -> Self {
        assert!(step > 0.0 && step.is_finite(), "step must be positive");
        assert!(horizon > 0.0, "horizon must be positive");
        let n = (horizon / step).ceil() as usize + 2;
        let mut values = Vec::with_capacity(n);
        for k in 0..n {
            values.push(f(k as f64 * step));
        }
        Self { step, values }
    }

    /// Wrap precomputed samples (spacing `step`, `values[k] = f(k·step)`).
    pub fn from_parts(step: f64, values: Vec<f64>) -> Self {
        assert!(step > 0.0 && step.is_finite(), "step must be positive");
        assert!(!values.is_empty(), "need at least one sample");
        Self { step, values }
    }

    /// Running trapezoid integral of `of`: `I(k·step) = ∫₀^{k·step} f`,
    /// accumulated incrementally (`I₀ = 0`,
    /// `Iₖ = Iₖ₋₁ + (fₖ₋₁ + fₖ)·step/2`).
    pub fn cumulative_trapezoid(of: &UniformTable) -> Self {
        let mut values = Vec::with_capacity(of.values.len());
        values.push(0.0);
        let mut acc = 0.0;
        for pair in of.values.windows(2) {
            acc += 0.5 * (pair[0] + pair[1]) * of.step;
            values.push(acc);
        }
        Self { step: of.step, values }
    }

    /// Grid spacing.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table holds no samples (never true for a built table).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Largest `t` answerable without extrapolation.
    pub fn horizon(&self) -> f64 {
        (self.values.len() - 1) as f64 * self.step
    }

    /// The raw samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The grid cell of a query at `t > 0`: `(k, frac)` with
    /// `t = (k + frac)·step` and a sample right of `k`. `None` from the
    /// last sample on, and for NaN, which no comparison places: a
    /// query past `2^64` steps takes this branch before the `usize` cast
    /// could saturate.
    #[inline]
    fn cell(&self, t: f64) -> Option<(usize, f64)> {
        let pos = t / self.step;
        if pos.is_nan() || pos >= (self.values.len() - 1) as f64 {
            return None;
        }
        let k = pos.floor() as usize;
        Some((k, pos - k as f64))
    }

    /// Linear interpolation; `None` when `t` lies past the last sample
    /// (the caller falls back to the exact function). `t ≤ 0` returns the
    /// first sample.
    #[inline]
    pub fn interp_checked(&self, t: f64) -> Option<f64> {
        if t <= 0.0 {
            return Some(self.values[0]);
        }
        let (k, frac) = self.cell(t)?;
        if frac == 0.0 { // exact on-grid hit; the blend below would turn a −∞ right-neighbour into NaN via −∞·0
            return Some(self.values[k]);
        }
        Some(self.values[k] * (1.0 - frac) + self.values[k + 1] * frac)
    }

    /// Linear interpolation saturating at the table ends (the cumulative
    /// integral convention: beyond the horizon the last value is the
    /// correct limit of a converging integral).
    #[inline]
    pub fn interp_clamped(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return self.values[0];
        }
        let Some((k, frac)) = self.cell(t) else {
            return *self.values.last().unwrap_or(&0.0);
        };
        if frac == 0.0 { // exact on-grid hit; the blend below would turn a −∞ right-neighbour into NaN via −∞·0
            return self.values[k];
        }
        self.values[k] * (1.0 - frac) + self.values[k + 1] * frac
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "knots and clamped ends return the stored values exactly")]
mod tests {
    use super::*;

    #[test]
    fn on_grid_points_are_exact_samples() {
        let t = UniformTable::sample(|x| x * x, 10.0, 0.5);
        // the final sample has no right neighbour, so it is served by the
        // exactness fallback rather than the interpolant
        for k in 0..t.len() - 1 {
            let x = k as f64 * 0.5;
            let got = t.interp_checked(x).expect("on grid");
            assert_eq!(got, x * x, "k = {k}");
        }
    }

    #[test]
    fn linear_functions_interpolate_exactly() {
        let t = UniformTable::sample(|x| 3.0 * x - 1.0, 5.0, 0.25);
        for &x in &[0.1, 0.33, 1.7, 4.99] {
            let got = t.interp_checked(x).expect("in range");
            assert!((got - (3.0 * x - 1.0)).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn quadratic_error_matches_second_order_bound() {
        // |err| ≤ step²·max|f''|/8 = 0.01·2/8 for f = x².
        let t = UniformTable::sample(|x| x * x, 4.0, 0.1);
        for &x in &[0.05, 1.15, 2.55, 3.95] {
            let err = (t.interp_checked(x).expect("in range") - x * x).abs();
            assert!(err <= 0.1f64.powi(2) * 2.0 / 8.0 + 1e-12, "x = {x}: {err}");
        }
    }

    #[test]
    fn off_grid_is_none_clamped_saturates() {
        let t = UniformTable::sample(|x| x, 1.0, 0.5);
        let horizon = t.horizon();
        assert!(t.interp_checked(horizon + 1.0).is_none());
        assert_eq!(t.interp_clamped(horizon + 1.0), *t.values().last().expect("non-empty"));
        assert_eq!(t.interp_checked(-3.0), Some(0.0));
    }

    #[test]
    fn far_and_nan_queries_take_the_out_of_range_branch() {
        // `t/step` past 2^64 once saturated the index cast; NaN must not
        // reach it either.
        let t = UniformTable::sample(|x| x, 10.0, 0.5);
        let last = *t.values().last().expect("non-empty");
        for x in [1e300, f64::MAX, f64::INFINITY, f64::NAN, 2.0f64.powi(64) * 0.5] {
            assert_eq!(t.interp_checked(x), None, "x = {x}");
            assert_eq!(t.interp_clamped(x), last, "x = {x}");
        }
        // The first position past the last interior cell is out too.
        assert_eq!(t.interp_checked(t.horizon()), None);
        assert!(t.interp_checked(t.horizon().next_down()).is_some());
    }

    #[test]
    fn cumulative_trapezoid_integrates_linear_exactly() {
        // ∫₀ᵗ 2x dx = t²; trapezoid is exact on linear integrands.
        let f = UniformTable::sample(|x| 2.0 * x, 3.0, 0.25);
        let i = UniformTable::cumulative_trapezoid(&f);
        for k in 0..i.len() {
            let x = k as f64 * 0.25;
            assert!((i.values()[k] - x * x).abs() < 1e-12, "k = {k}");
        }
    }

    #[test]
    fn on_grid_hit_with_neg_infinite_neighbour_is_exact() {
        // Empirical log-survival tables carry −∞ past the support's edge;
        // an on-grid query one cell to the left must not synthesise NaN
        // out of the −∞·0 blend term.
        let t = UniformTable::from_parts(1.0, vec![0.0, -1.0, f64::NEG_INFINITY]);
        assert_eq!(t.interp_checked(1.0), Some(-1.0));
        assert_eq!(t.interp_clamped(1.0), -1.0);
        // Strictly between, saturating at −∞ is the correct limit.
        assert_eq!(t.interp_checked(1.5), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn sample_covers_the_horizon_with_two_points_of_headroom() {
        let t = UniformTable::sample(|x| x, 10.0, 0.5);
        assert_eq!(t.len(), 22, "ceil(10 / 0.5) + 2 samples");
        assert_eq!(t.step(), 0.5);
        assert_eq!(t.horizon(), 10.5);
        assert!(!t.is_empty());
    }

    #[test]
    fn checked_and_clamped_agree_inside_the_horizon() {
        let t = UniformTable::sample(f64::sin, 3.0, 0.125);
        let mut x = -0.5;
        while x < t.horizon() {
            assert_eq!(t.interp_checked(x), Some(t.interp_clamped(x)), "x = {x}");
            x += 0.0371;
        }
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_is_rejected() {
        let _ = UniformTable::from_parts(0.0, vec![1.0]);
    }
}
