//! Hand-rolled 4-lane f64 kernels for the DP hot loops.
//!
//! The workspace is dependency-lean, so instead of `wide`/`std::simd`
//! this module carries its own [`F64x4`] — a `#[repr(align(32))]`
//! wrapper over `[f64; 4]` whose lane-wise arithmetic is written as
//! branch-free straight-line code for LLVM to lower to vector
//! instructions (and to plain scalar code where it does not, with
//! identical results). Lowering is not automatic: one libm call in a
//! lane body (`f64::round`, `floor`, `ceil` and `trunc` are calls on
//! the x86-64 baseline, which lacks SSE4.1's `roundpd`) splits the body
//! into per-lane scalar code around the call. So the kernels call no
//! libm, which `tests/source_rules.rs` enforces; on x86-64 `exp_shifted`
//! compiles to packed `mulpd`/`addpd` with no call in its loop.
//!
//! Three guarantees every caller leans on:
//!
//! * **Lane/scalar bit-identity** — [`exp4`] applies the *same* core
//!   polynomial per lane as the scalar [`exp1`], so a vectorised pass
//!   over `len/4` lanes plus a scalar tail produces the same bits as an
//!   all-scalar loop. The slice helpers below are structured exactly
//!   that way, and a proptest pins it.
//! * **No FMA contraction** — all arithmetic is plain `*`/`+`; Rust
//!   never fuses those into `mul_add`, so results do not depend on the
//!   host's FMA units. (Do not "optimise" these kernels with
//!   `f64::mul_add`: it would change bits per-target.)
//! * **IEEE specials survive** — `exp(−∞) = 0`, `exp(+∞) = ∞`, NaNs
//!   propagate, and ±0/subnormal inputs take the same value paths in
//!   vector and scalar form.
//!
//! Accuracy: [`exp1`] is within ~2 ulp of the correctly-rounded result
//! (Cody–Waite reduction + a Horner polynomial), far inside every
//! tolerance the kernels are consumed under. It is *not* bit-identical
//! to libm's `exp` — switching a call site onto this module is an
//! FP-order change and rides the sanctioned re-golden path (ROADMAP
//! "determinism & goldens").

/// Lane width every batched kernel in this workspace commits to. Cache
/// keys that memoise batched results include this constant so a future
/// width change can never alias entries computed under a different
/// evaluation order.
pub const LANES: usize = 4;

/// Four f64 lanes. Plain `[f64; 4]` arithmetic, aligned for vector loads.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(32))]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All lanes equal to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self([v; 4])
    }

    /// Load lanes from the first four elements of `s`.
    #[inline(always)]
    pub fn from_slice(s: &[f64]) -> Self {
        Self([s[0], s[1], s[2], s[3]])
    }

    /// Store lanes into the first four elements of `s`.
    #[inline(always)]
    pub fn write_to(self, s: &mut [f64]) {
        s[0] = self.0[0];
        s[1] = self.0[1];
        s[2] = self.0[2];
        s[3] = self.0[3];
    }

    /// Lane-wise map — the building block of [`exp4`]; kept
    /// `inline(always)` so the closure fuses into one vector body.
    #[inline(always)]
    fn map(self, f: impl Fn(f64) -> f64) -> Self {
        Self([f(self.0[0]), f(self.0[1]), f(self.0[2]), f(self.0[3])])
    }
}

impl std::ops::Add for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
            self.0[3] + rhs.0[3],
        ])
    }
}

impl std::ops::Sub for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self([
            self.0[0] - rhs.0[0],
            self.0[1] - rhs.0[1],
            self.0[2] - rhs.0[2],
            self.0[3] - rhs.0[3],
        ])
    }
}

impl std::ops::Mul for F64x4 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self([
            self.0[0] * rhs.0[0],
            self.0[1] * rhs.0[1],
            self.0[2] * rhs.0[2],
            self.0[3] * rhs.0[3],
        ])
    }
}

// ---------------------------------------------------------------------
// exp
// ---------------------------------------------------------------------

/// `ln 2` split so `n·LN2_HI` is exact for |n| < 2^26 (Cody–Waite).
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Below this `exp` underflows to +0 even through the subnormal range.
const EXP_UNDERFLOW: f64 = -745.2;
/// Above this `exp` overflows to +∞.
const EXP_OVERFLOW: f64 = 709.8;

/// `1.5·2⁵²`: adding it to a double of magnitude below 2⁵¹ rounds the
/// sum to an integer (ties to even, the FPU's default mode), which then
/// sits in the low mantissa bits — a `round` without the libm call that
/// `f64::round` is on the x86-64 baseline.
const SHIFTER: f64 = 6_755_399_441_055_744.0;

/// Shared per-lane body of [`exp1`]/[`exp4`]: Cody–Waite reduction
/// `x = n·ln2 + r`, |r| ≤ ln2/2, a degree-13 Taylor/Horner evaluation of
/// `e^r`, and two-step `2^n` bit scaling (so the subnormal range is
/// reached without the single-shift trick overflowing its exponent
/// field). Straight-line and branch-poor on purpose: every `if` below
/// is a lane-local select LLVM if-converts, and nothing calls libm, so
/// the 4-wide caller compiles to packed arithmetic.
#[inline(always)]
fn exp_core(x: f64) -> f64 {
    // Clamp only feeds the reduction; the true argument decides the
    // overflow/underflow patches below, and NaN propagates through
    // `clamp` and the polynomial untouched.
    let xx = x.clamp(EXP_UNDERFLOW - 1.0, EXP_OVERFLOW + 1.0);
    let y = xx * std::f64::consts::LOG2_E;
    // `n = round(y)`, ties away from zero: the shifter rounds ties to
    // even, so a tie it sent toward zero (`y − n` is ±½ with the sign
    // of `y`; the difference is exact) moves one step out. Adjusting
    // the shifted sum keeps `n` readable from its bits.
    let mut shifted = y + SHIFTER;
    let d = y - (shifted - SHIFTER);
    #[expect(clippy::float_cmp, reason = "a tie is `y − n = ±½` exactly, and the difference is exact")]
    let (up, down) = ((d == 0.5) & (y > 0.0), (d == -0.5) & (y < 0.0));
    shifted += if up { 1.0 } else { 0.0 };
    shifted -= if down { 1.0 } else { 0.0 };
    let n = shifted - SHIFTER;
    let r = (xx - n * LN2_HI) - n * LN2_LO;
    // e^r = Σ rᵏ/k!, k ≤ 13: truncation < 2^-53 for |r| ≤ ln2/2.
    let mut p = 1.0 / 6_227_020_800.0; // 1/13!
    p = p * r + 1.0 / 479_001_600.0; // 1/12!
    p = p * r + 1.0 / 39_916_800.0; // 1/11!
    p = p * r + 1.0 / 3_628_800.0; // 1/10!
    p = p * r + 1.0 / 362_880.0; // 1/9!
    p = p * r + 1.0 / 40_320.0; // 1/8!
    p = p * r + 1.0 / 5_040.0; // 1/7!
    p = p * r + 1.0 / 720.0; // 1/6!
    p = p * r + 1.0 / 120.0; // 1/5!
    p = p * r + 1.0 / 24.0; // 1/4!
    p = p * r + 1.0 / 6.0; // 1/3!
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // 2^n in two factors so n down to −1074 stays in normal exponents.
    // The integer `n` is the shifted sum's bits less the shifter's (no
    // float→int conversion); NaN leaves `p` NaN, whatever the factors.
    let n = (shifted.to_bits() as i64).wrapping_sub(SHIFTER.to_bits() as i64);
    let n1 = n / 2;
    let n2 = n.wrapping_sub(n1);
    let s1 = f64::from_bits((n1.wrapping_add(1023) << 52) as u64);
    let s2 = f64::from_bits((n2.wrapping_add(1023) << 52) as u64);
    let mut y = p * s1 * s2;
    y = if x < EXP_UNDERFLOW { 0.0 } else { y };
    y = if x > EXP_OVERFLOW { f64::INFINITY } else { y };
    y
}

/// Scalar `e^x` with this module's evaluation order — the tail-loop twin
/// of [`exp4`]; bit-identical per element by construction.
#[inline(always)]
pub fn exp1(x: f64) -> f64 {
    exp_core(x)
}

/// Lane-wise `e^x`.
#[inline(always)]
pub fn exp4(x: F64x4) -> F64x4 {
    x.map(exp_core)
}

// ---------------------------------------------------------------------
// Slice kernels
// ---------------------------------------------------------------------

/// `dst[i] = exp(src[i] − shift)` — the log→linear grid conversion of
/// the DP solver, with the numerically load-bearing offset applied in
/// the same pass. Vector body + scalar tail share [`exp_core`], so the
/// result is independent of where the 4-lane boundary falls.
pub fn exp_shifted(src: &[f64], shift: f64, dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "exp_shifted: length mismatch");
    let k = F64x4::splat(shift);
    let lanes = src.len() / LANES * LANES;
    let mut i = 0;
    while i < lanes {
        let v = exp4(F64x4::from_slice(&src[i..]) - k);
        v.write_to(&mut dst[i..]);
        i += LANES;
    }
    for j in lanes..src.len() {
        dst[j] = exp_core(src[j] - shift);
    }
}

/// Fused multiply-accumulate sweep: `acc[i] += Σⱼ coef(j)·row(j)[i]`,
/// rows added in index order per element — the same per-element
/// addition sequence as one scalar pass per row, so widening the fusion
/// (pairs → quads) never changes bits. Up to four rows per call; the DP
/// solver feeds it row quadruples so one read-modify-write sweep of the
/// accumulator covers four kernel rows.
///
/// Panics if any row's length differs from `acc`'s or `rows` is empty
/// or longer than [`LANES`].
pub fn accumulate_scaled_rows(acc: &mut [f64], rows: &[(&[f64], f64)]) {
    assert!(!rows.is_empty() && rows.len() <= LANES, "1..=LANES rows per sweep");
    for (row, _) in rows {
        assert_eq!(row.len(), acc.len(), "row/accumulator shape mismatch");
    }
    let n = acc.len();
    let lanes = n / LANES * LANES;
    macro_rules! sweep {
        ($($idx:literal),+) => {{
            let mut i = 0;
            while i < lanes {
                let mut g = F64x4::from_slice(&acc[i..]);
                $(
                    g = g + F64x4::splat(rows[$idx].1) * F64x4::from_slice(&rows[$idx].0[i..]);
                )+
                g.write_to(&mut acc[i..]);
                i += LANES;
            }
            for j in lanes..n {
                let mut g = acc[j];
                $(
                    g += rows[$idx].1 * rows[$idx].0[j];
                )+
                acc[j] = g;
            }
        }};
    }
    match rows.len() {
        1 => sweep!(0),
        2 => sweep!(0, 1),
        3 => sweep!(0, 1, 2),
        _ => sweep!(0, 1, 2, 3),
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the vector kernels must match the scalar ones bit for bit, and IEEE special values are exact")]
mod tests {
    use super::*;

    fn ulp_diff(a: f64, b: f64) -> u64 {
        if a == b {
            return 0;
        }
        (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
    }

    #[test]
    fn exp_matches_libm_to_a_few_ulp() {
        let mut worst = 0u64;
        for i in -4000..4000 {
            let x = i as f64 * 0.173;
            let got = exp1(x);
            let want = x.exp();
            if want.is_finite() && want > 0.0 && !want.is_subnormal() {
                worst = worst.max(ulp_diff(got, want));
            }
        }
        assert!(worst <= 4, "worst exp ulp error {worst}");
    }

    #[test]
    fn exp_specials() {
        assert_eq!(exp1(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp1(f64::INFINITY), f64::INFINITY);
        assert!(exp1(f64::NAN).is_nan());
        assert_eq!(exp1(0.0), 1.0);
        assert_eq!(exp1(-1000.0), 0.0);
        assert_eq!(exp1(1000.0), f64::INFINITY);
        // Subnormal results keep a meaningful value.
        let sub = exp1(-720.0);
        assert!(sub > 0.0 && sub.is_subnormal(), "exp(-720) = {sub:e}");
    }

    /// The `f64::round` formulation `exp_core` replaced, kept as its
    /// bit-for-bit oracle: the same reduction, polynomial and scaling,
    /// with `n` from `round` (ties away from zero) and a saturating cast.
    fn exp_round_oracle(x: f64) -> f64 {
        let xx = x.clamp(EXP_UNDERFLOW - 1.0, EXP_OVERFLOW + 1.0);
        let n = (xx * std::f64::consts::LOG2_E).round();
        let r = (xx - n * LN2_HI) - n * LN2_LO;
        let mut p = 1.0 / 6_227_020_800.0;
        for c in [
            1.0 / 479_001_600.0,
            1.0 / 39_916_800.0,
            1.0 / 3_628_800.0,
            1.0 / 362_880.0,
            1.0 / 40_320.0,
            1.0 / 5_040.0,
            1.0 / 720.0,
            1.0 / 120.0,
            1.0 / 24.0,
            1.0 / 6.0,
            0.5,
            1.0,
            1.0,
        ] {
            p = p * r + c;
        }
        let n = n as i64;
        let n1 = n / 2;
        let n2 = n - n1;
        let s1 = f64::from_bits(((n1 + 1023) << 52) as u64);
        let s2 = f64::from_bits(((n2 + 1023) << 52) as u64);
        let mut y = p * s1 * s2;
        y = if x < EXP_UNDERFLOW { 0.0 } else { y };
        y = if x > EXP_OVERFLOW { f64::INFINITY } else { y };
        y
    }

    fn assert_matches_oracle(x: f64) {
        let (got, want) = (exp1(x), exp_round_oracle(x));
        assert_eq!(got.to_bits(), want.to_bits(), "exp({x:e}) = {got:e}, oracle {want:e}");
    }

    /// `x`, stepped `k` representable doubles up (`k < 0`: down).
    fn ulps_from(x: f64, k: i64) -> f64 {
        let b = x.to_bits() as i64;
        f64::from_bits(if x >= 0.0 { b + k } else { b - k } as u64)
    }

    #[test]
    fn shifter_rounding_matches_the_round_oracle_on_random_arguments() {
        // SplitMix64 over [−800, 720]: past both clamp bounds.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..1_000_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
            assert_matches_oracle(-800.0 + 1_520.0 * unit);
        }
    }

    #[test]
    fn shifter_rounding_breaks_half_integer_ties_away_from_zero() {
        // Every double `x` whose product `x·log₂e` is exactly `h + ½`,
        // over the clamp range of both signs: the product is monotone in
        // `x`, so all preimages of a half-integer lie within a few ulps
        // of `(h + ½)/log₂e`.
        let mut ties = [0usize; 2];
        for h in -1_078i32..=1_026 {
            let half = f64::from(h) + 0.5;
            let guess = half / std::f64::consts::LOG2_E;
            for k in -8..=8 {
                let x = ulps_from(guess, k);
                if x * std::f64::consts::LOG2_E == half {
                    ties[usize::from(half > 0.0)] += 1;
                    assert_matches_oracle(x);
                }
            }
        }
        assert!(ties[0] > 100 && ties[1] > 100, "half-integer products found: {ties:?}");
    }

    #[test]
    fn shifter_rounding_keeps_specials_and_range_edges() {
        for x in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY] {
            assert_matches_oracle(x);
        }
        assert!(exp1(f64::NAN).is_nan() && exp_round_oracle(f64::NAN).is_nan());
        assert!(exp1(-f64::NAN).is_nan());
        // The smallest normal result (2⁻¹⁰²², x ≈ −708.40), the smallest
        // subnormal (x ≈ −744.44 … −745.13), the underflow and overflow
        // cut-offs and the largest finite result (x ≈ 709.78), each
        // swept ±2000 ulps and on a coarse grid around it.
        let edges = [
            f64::MIN_POSITIVE.ln(),
            (f64::MIN_POSITIVE * f64::EPSILON).ln(),
            EXP_UNDERFLOW,
            EXP_UNDERFLOW - 1.0,
            EXP_OVERFLOW,
            EXP_OVERFLOW + 1.0,
            f64::MAX.ln(),
        ];
        for edge in edges {
            for k in -2_000..=2_000 {
                assert_matches_oracle(ulps_from(edge, k));
                assert_matches_oracle(edge + k as f64 * 1e-4);
            }
        }
        assert!(exp1(f64::MIN_POSITIVE.ln() - 1.0).is_subnormal());
        assert!(exp1(f64::MAX.ln()).is_finite() && exp1(f64::MAX.ln() + 1e-3).is_infinite());
    }

    #[test]
    fn exp_shifted_matches_scalar_tail_at_any_length() {
        for len in 0..23usize {
            let src: Vec<f64> = (0..len).map(|i| -3.0 + i as f64 * 0.61).collect();
            let mut dst = vec![0.0; len];
            exp_shifted(&src, 0.75, &mut dst);
            for (i, &s) in src.iter().enumerate() {
                assert_eq!(dst[i], exp_core(s - 0.75), "len {len} idx {i}");
            }
        }
    }

    #[test]
    fn accumulate_matches_sequential_scalar_passes() {
        let n = 37;
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|r| (0..n).map(|i| ((r * n + i) as f64).sin() * 3.0).collect())
            .collect();
        let coefs = [2.0, 5.0, 0.25, 11.0];
        for take in 1..=4usize {
            let mut fused = vec![0.125f64; n];
            let refs: Vec<(&[f64], f64)> =
                rows.iter().take(take).zip(coefs).map(|(r, c)| (r.as_slice(), c)).collect();
            accumulate_scaled_rows(&mut fused, &refs);
            let mut scalar = vec![0.125f64; n];
            for i in 0..n {
                let mut g = scalar[i];
                for (row, c) in &refs {
                    g += c * row[i];
                }
                scalar[i] = g;
            }
            assert_eq!(fused, scalar, "take = {take}");
        }
    }

    #[test]
    fn accumulate_propagates_neg_infinity() {
        let mut acc = vec![0.0f64; 9];
        let row = vec![f64::NEG_INFINITY; 9];
        accumulate_scaled_rows(&mut acc, &[(&row, 3.0)]);
        assert!(acc.iter().all(|v| *v == f64::NEG_INFINITY));
    }
}
