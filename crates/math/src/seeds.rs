//! Deterministic seed derivation.
//!
//! §4.3 of the paper requires coherent trace sets: the traces used for a
//! `p`-processor experiment must be the first `p` traces of the
//! `b`-processor set. We get this by deriving every per-processor,
//! per-trace RNG seed from a stable `(label, trace, processor)` triple via
//! SplitMix64 mixing — independent of thread scheduling or iteration order.

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
pub fn mix_seed(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stable, order-independent seed hierarchy.
///
/// ```
/// use ckpt_math::SeedSequence;
/// let root = SeedSequence::from_label("table2");
/// let trace7 = root.child(7);
/// let proc3 = trace7.child(3);
/// assert_ne!(trace7.seed(), proc3.seed());
/// // Deterministic: rebuilding the hierarchy gives the same seeds.
/// assert_eq!(proc3.seed(), SeedSequence::from_label("table2").child(7).child(3).seed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    state: u64,
}

impl SeedSequence {
    /// Root sequence from a raw 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: mix_seed(seed) }
    }

    /// Root sequence from a human-readable experiment label (FNV-1a hash).
    pub fn from_label(label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Self::new(h)
    }

    /// Derive the `i`-th child sequence:
    /// `self.child_at(SeedSequence::index_term(i))`.
    #[must_use]
    pub fn child(&self, i: u64) -> Self {
        self.child_at(Self::index_term(i))
    }

    /// The part of [`Self::child`] that depends on the index alone. A
    /// loop that derives child `i` of many parents mixes it once.
    #[inline]
    pub fn index_term(i: u64) -> u64 {
        mix_seed(i.wrapping_add(0x51_7c_c1_b7_27_22_0a_95))
    }

    /// The child whose index term ([`Self::index_term`]) is `term`.
    #[inline]
    #[must_use]
    pub fn child_at(&self, term: u64) -> Self {
        Self { state: mix_seed(self.state ^ term) }
    }

    /// The seed value to hand to an RNG.
    pub fn seed(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mixing_is_bijective_sample() {
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix_seed(i)), "collision at {i}");
        }
    }

    #[test]
    fn children_are_distinct() {
        let root = SeedSequence::from_label("x");
        let mut seen = HashSet::new();
        for i in 0..10_000 {
            assert!(seen.insert(root.child(i).seed()));
        }
    }

    #[test]
    fn a_hoisted_index_term_gives_the_same_child() {
        let parents = [SeedSequence::new(0), SeedSequence::from_label("exa"), SeedSequence::new(7).child(3)];
        for i in [0, 1, 63, 64, 1 << 20, u64::MAX] {
            let term = SeedSequence::index_term(i);
            for p in parents {
                assert_eq!(p.child_at(term), p.child(i), "child {i} of {p:?}");
            }
        }
    }

    #[test]
    fn labels_differ() {
        assert_ne!(
            SeedSequence::from_label("table2").seed(),
            SeedSequence::from_label("table3").seed()
        );
    }

    #[test]
    fn hierarchy_is_stable() {
        let a = SeedSequence::from_label("fig4").child(10).child(2).seed();
        let b = SeedSequence::from_label("fig4").child(10).child(2).seed();
        assert_eq!(a, b);
    }

    #[test]
    fn sibling_order_does_not_matter() {
        let root = SeedSequence::new(42);
        let c5_then_c9 = (root.child(5).seed(), root.child(9).seed());
        let c9_then_c5 = (root.child(9).seed(), root.child(5).seed());
        assert_eq!(c5_then_c9.0, c9_then_c5.1);
        assert_eq!(c5_then_c9.1, c9_then_c5.0);
    }

    #[test]
    fn mix_seed_avalanches() {
        // Flipping one input bit flips about half of the 64 output bits.
        let mut flipped = 0u64;
        let mut trials = 0u64;
        for i in 0..256u64 {
            let base = mix_seed(i.wrapping_mul(0x1234_5678_9abc_def1));
            for bit in 0..64 {
                let other = mix_seed(i.wrapping_mul(0x1234_5678_9abc_def1) ^ (1 << bit));
                flipped += u64::from((base ^ other).count_ones());
                trials += 1;
            }
        }
        let mean = flipped as f64 / trials as f64;
        assert!((30.0..34.0).contains(&mean), "mean flipped bits {mean}");
    }

    #[test]
    fn child_seed_differs_from_parent_and_root_seed() {
        let root = SeedSequence::new(7);
        assert_ne!(root.seed(), 7, "the raw seed is mixed, not passed through");
        assert_ne!(root.child(0).seed(), root.seed());
        assert_ne!(root.child(0).child(0).seed(), root.child(0).seed());
    }
}
