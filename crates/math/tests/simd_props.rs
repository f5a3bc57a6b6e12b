//! The lane kernels' one load-bearing promise, property-tested: a
//! 4-wide pass plus scalar tail produces the SAME BITS as an all-scalar
//! loop, for every length (so every remainder-lane split) and for the
//! sentinel values the DP solver actually feeds them — exact zeros,
//! subnormals, and the `−∞` log-survival marker. Comparisons are on
//! `to_bits()`: "close" is a miss here, and NaN outcomes (e.g. a
//! `0 · −∞` coefficient hit) must agree bit-for-bit too.

use ckpt_math::simd::{self, F64x4, LANES};
use proptest::prelude::*;

/// Values the DP grids contain: ordinary magnitudes across many
/// octaves, exact ±0, subnormals, and the −∞ sentinel rows. (The
/// vendored proptest has no `prop_oneof`; a selector + `prop_map`
/// does the same mixing.)
fn grid_value() -> impl Strategy<Value = f64> {
    (0u32..15, -700.0..700.0f64).prop_map(|(sel, v)| match sel {
        0..=7 => v,
        8 | 9 => v * 1.0e-6,
        10 => 0.0,
        11 => -0.0,
        12 => f64::MIN_POSITIVE / 4.0, // subnormal
        13 => -f64::MIN_POSITIVE / 4.0,
        _ => f64::NEG_INFINITY,
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `accumulate_scaled_rows` (the fused near-row sweep) must equal
    /// one scalar pass per element with rows added in index order —
    /// independent of where the lane boundary falls (`len % 4`) and of
    /// how many rows are fused (1..=LANES).
    #[test]
    fn fused_sweep_is_bit_identical_to_scalar_passes(
        len in 0usize..67,
        take in 1usize..=LANES,
        seed_vals in proptest::collection::vec(grid_value(), 5 * 67),
        coefs in proptest::collection::vec(-3.0..3.0f64, 4),
    ) {
        let rows: Vec<Vec<f64>> = (0..take)
            .map(|r| seed_vals[r * len..(r + 1) * len].to_vec())
            .collect();
        let init = seed_vals[4 * 67..4 * 67 + len].to_vec();

        let refs: Vec<(&[f64], f64)> = rows
            .iter()
            .zip(&coefs)
            .map(|(r, &c)| (r.as_slice(), c))
            .collect();
        let mut fused = init.clone();
        simd::accumulate_scaled_rows(&mut fused, &refs);

        let mut scalar = init;
        for (i, g) in scalar.iter_mut().enumerate() {
            for (row, c) in &refs {
                *g += c * row[i];
            }
        }
        prop_assert_eq!(bits(&fused), bits(&scalar));
    }

    /// `exp_shifted` (the egrid log→linear fill) must not care where the
    /// lane boundary falls: every element equals the scalar-tail form
    /// `exp1(src − shift)` exactly, including the −∞ → 0 sentinel.
    #[test]
    fn exp_shifted_is_bit_identical_to_scalar_loop(
        src in proptest::collection::vec(grid_value(), 0..67),
        shift in -50.0..50.0f64,
    ) {
        let mut dst = vec![f64::NAN; src.len()];
        simd::exp_shifted(&src, shift, &mut dst);
        let scalar: Vec<f64> = src.iter().map(|&x| simd::exp1(x - shift)).collect();
        prop_assert_eq!(bits(&dst), bits(&scalar));
    }

    /// The lane primitive itself: `exp4` is the per-lane twin of `exp1`
    /// by construction — pin it against reordering.
    #[test]
    fn lane_ops_match_scalar_twins(vals in proptest::collection::vec(grid_value(), 4)) {
        let v = F64x4::from_slice(&vals);
        let e4 = simd::exp4(v);
        for (i, &x) in vals.iter().enumerate().take(LANES) {
            prop_assert_eq!(e4.0[i].to_bits(), simd::exp1(x).to_bits());
        }
    }

    /// The lane arithmetic the fused sweep is built from: `+`, `−`, `·`
    /// and the `from_slice`/`write_to` round trip act lane by lane,
    /// exactly as the scalar operators do, sentinels included.
    #[test]
    fn lane_arithmetic_matches_scalar_ops(
        a in proptest::collection::vec(grid_value(), 4),
        b in proptest::collection::vec(grid_value(), 4),
    ) {
        let (va, vb) = (F64x4::from_slice(&a), F64x4::from_slice(&b));
        let mut out = [0.0; LANES];
        (va + vb).write_to(&mut out);
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        prop_assert_eq!(bits(&out), bits(&sum));
        (va - vb).write_to(&mut out);
        let diff: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
        prop_assert_eq!(bits(&out), bits(&diff));
        (va * vb).write_to(&mut out);
        let prod: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
        prop_assert_eq!(bits(&out), bits(&prod));
        F64x4::splat(a[0]).write_to(&mut out);
        prop_assert_eq!(bits(&out), bits(&[a[0]; LANES]));
    }
}
