//! Failure traces: per-unit sampled failure dates and the merged platform
//! event stream (§4.3 "Scenario generation").
//!
//! A *unit* is the granularity at which failures strike — a processor for
//! synthetic distributions, a 4-processor node for the log-based setups.
//! Each unit's trace is the sequence of absolute failure dates obtained by
//! iid sampling of inter-arrival times from time 0 until the horizon.
//!
//! A trace set stores its failures compactly ([`UnitTraces`]): a CSR over
//! the units that fail at least once, so a unit that never fails within
//! the horizon — almost every one at Exascale — costs nothing but a count.
//!
//! Sampling works on a *block* of trace sets at once
//! ([`UnitTraces::sample_block`]): one pass over the new units screens
//! every set of the block. A unit's first draw is compared with the
//! horizon before any sampler runs, and the screen costs two hashes: the
//! unit's child seed, whose index half is mixed once for the whole
//! block, and the one word of the generator's state its first output
//! reads. A unit that passes runs the full sampler from its seed, so the
//! traces are exactly those of sampling every unit, one at a time.
//!
//! The merged [`PlatformEvents`] stream tags each event with its unit's
//! *slot*, the unit's rank among the failing units, so per-unit state
//! downstream can be dense in the failing units rather than in `p`.
//! Slots, like the traces, are prefix-stable, and sets can be widened
//! ([`TraceSet::widen`]) by sampling only the units they lack.
//!
//! Under the failed-only rejuvenation model a unit's lifetime restarts
//! exactly at its own failures, so the whole trace can be pre-sampled —
//! failure dates do not depend on what the job does. (Downtime is *not*
//! modelled as delaying subsequent failures: the paper assumes failures
//! cannot happen during a downtime, which the simulator enforces by
//! construction when it consumes these events.)

use crate::error::PlatformError;
use crate::topology::Topology;
use ckpt_math::{mix_seed, SeedSequence};
use ckpt_dist::FailureDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Failure dates of one unit, strictly increasing, within `[0, horizon)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureTrace {
    /// Absolute failure dates in seconds from the trace origin.
    pub failures: Vec<f64>,
}

/// Append the failure dates of one unit to `out`, accumulating iid
/// inter-arrival times drawn from `seed` until the horizon is passed.
fn sample_dates(dist: &dyn FailureDistribution, horizon: f64, seed: u64, out: &mut Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    loop {
        t += dist.sample(&mut rng);
        if t >= horizon || t.is_nan() {
            break;
        }
        out.push(t);
    }
}

/// SplitMix64's increment, which `StdRng::seed_from_u64` adds once per
/// state word.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Units whose index terms [`UnitTraces::sample_block`] mixes at once.
const UNIT_BLOCK: usize = 256;

/// The first `next_u64` of `StdRng::seed_from_u64(seed)`, from the one
/// state word it reads: xoshiro256** outputs `rotl(s₁·5, 7)·9`, and the
/// SplitMix64 seeding makes `s₁` its second output, the finaliser of
/// `seed + 2γ`, which is `mix_seed(seed + γ)`.
#[inline]
fn first_output(seed: u64) -> u64 {
    mix_seed(seed.wrapping_add(GAMMA)).wrapping_mul(5).rotate_left(7).wrapping_mul(9)
}

/// The [`survival_draw`](ckpt_dist::survival_draw) of a generator whose first `next_u64` is `x`:
/// `1 − (x >> 11)·2⁻⁵³`, every step exact.
fn draw_of(x: u64) -> f64 {
    1.0 - (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The integer form of the first-draw screen: a first output `x` draws
/// at least `cutoff` exactly when `x >> 11` is below the returned limit.
/// The draw falls strictly as `x >> 11` grows, so the limit is the
/// count of the values that reach the cutoff, found by a search from
/// the float estimate. The limit is at least 1 even for a cutoff no
/// draw reaches (above 1, or NaN): an output of 0 comes from a zero
/// state word, which a generator's guard against an all-zero state may
/// rewrite, so such a unit always runs the full sampler.
fn first_draw_limit(cutoff: f64) -> u64 {
    const SPAN: u64 = 1 << 53;
    let reaches = |m: u64| draw_of(m << 11) >= cutoff;
    // The cast saturates: a NaN or negative estimate starts at 0.
    let mut m = (((1.0 - cutoff) * SPAN as f64) as u64).min(SPAN);
    while m > 0 && !reaches(m - 1) {
        m -= 1;
    }
    while m < SPAN && reaches(m) {
        m += 1;
    }
    m.max(1)
}

/// Whether the unit seeded by `seed` may fail within the horizon whose
/// screen is `limit` ([`first_draw_limit`]).
#[inline]
fn may_fail(seed: u64, limit: u64) -> bool {
    first_output(seed) >> 11 < limit
}

/// One unit's failure dates, borrowed from a [`UnitTraces`] store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitTrace<'a> {
    /// Absolute failure dates in seconds, strictly increasing.
    pub failures: &'a [f64],
}

/// The failure dates of every unit of a trace set, stored as a CSR over
/// the units that fail at least once.
///
/// At Exascale almost no unit fails within a trace, so the store costs
/// O(failures), not O(units): a unit that never fails is only counted.
/// The `k`-th failing unit (its *slot*) is `ids[k]`, and its dates are
/// `dates[ends[k - 1]..ends[k]]` (from 0 for `k = 0`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitTraces {
    /// Number of units, failing or not.
    count: usize,
    /// Ids of the failing units, ascending.
    ids: Vec<u32>,
    /// End of each failing unit's dates in `dates`.
    ends: Vec<usize>,
    /// Every failing unit's dates, unit after unit.
    dates: Vec<f64>,
}

impl UnitTraces {
    /// Number of units, failing or not.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the set has no unit at all.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of units that fail at least once.
    pub fn failing_count(&self) -> usize {
        self.ids.len()
    }

    /// The failing units in id order (slot order), with their dates.
    pub fn failing(&self) -> impl Iterator<Item = (u32, &[f64])> + '_ {
        self.ids.iter().enumerate().map(|(k, &id)| (id, self.dates_of(k)))
    }

    /// Every unit in id order, never-failing ones with no dates. Walks
    /// all units: prefer [`Self::failing`] on hot paths.
    pub fn iter(&self) -> impl Iterator<Item = UnitTrace<'_>> + '_ {
        let mut failing = self.failing().peekable();
        (0..self.count).map(move |u| {
            let failures = match failing.peek() {
                Some(&(id, dates)) if id as usize == u => {
                    failing.next();
                    dates
                }
                _ => &[],
            };
            UnitTrace { failures }
        })
    }

    /// Append one unit with the given failure dates.
    pub fn push(&mut self, failures: &[f64]) {
        self.dates.extend_from_slice(failures);
        if !failures.is_empty() {
            self.ids.push(self.count as u32);
            self.ends.push(self.dates.len());
        }
        self.count += 1;
    }

    /// The first `units` units (prefix-coherent; at most [`Self::len`]).
    pub fn prefix(&self, units: usize) -> Self {
        let units = units.min(self.count);
        let k = self.ids.partition_point(|&id| (id as usize) < units);
        let end = k.checked_sub(1).map_or(0, |j| self.ends[j]);
        Self {
            count: units,
            ids: self.ids[..k].to_vec(),
            ends: self.ends[..k].to_vec(),
            dates: self.dates[..end].to_vec(),
        }
    }

    /// A store of `units` units, none failing: the head of a piece that
    /// [`Self::sample_block`] fills from unit `units` on and
    /// [`Self::append`] joins onto a store of `units` units.
    pub fn never_failing(units: usize) -> Self {
        Self { count: units, ..Self::default() }
    }

    /// Join `tail`'s units from [`Self::len`] on onto this store.
    ///
    /// # Panics
    /// When `tail` is shorter than this store or has a failing unit
    /// below its length: `tail` must be a piece begun with
    /// [`Self::never_failing`] at this store's length or later.
    pub fn append(&mut self, tail: UnitTraces) {
        let joins = tail.count >= self.count
            && tail.ids.first().is_none_or(|&id| id as usize >= self.count);
        assert!(joins, "a tail of {} units does not continue {} units", tail.count, self.count);
        let base = self.dates.len();
        self.ids.extend(tail.ids);
        self.ends.extend(tail.ends.iter().map(|end| end + base));
        self.dates.extend(tail.dates);
        self.count = tail.count;
    }

    /// The block routine of trace generation: sample, into each store of
    /// `block`, its units from its own [`Self::len`] up to `units`, unit
    /// `u` of store `j` from the child seed `seeds[j].child(u)`. A store
    /// already `units` long is left as it is.
    ///
    /// One pass over the new units screens every store. The units go by
    /// in runs of `UNIT_BLOCK`, whose index terms
    /// ([`SeedSequence::index_term`]) are mixed once for all the stores.
    /// A unit whose first [`survival_draw`](ckpt_dist::survival_draw) lies below the distribution's
    /// [`first_draw_cutoff`](FailureDistribution::first_draw_cutoff)
    /// cannot fail within the horizon: it costs its child seed and one
    /// generator word, compared as an integer, and leaves no trace in
    /// the store. Every other unit runs the full sampler from its seed,
    /// so the traces are exactly those of sampling every unit. Without a
    /// cutoff (0) every unit is sampled.
    ///
    /// # Panics
    /// When `seeds` does not hold one sequence per store.
    pub fn sample_block(
        block: &mut [UnitTraces],
        seeds: &[SeedSequence],
        dist: &dyn FailureDistribution,
        horizon: f64,
        units: usize,
    ) {
        assert_eq!(block.len(), seeds.len(), "one seed sequence per store");
        let Some(from) = block.iter().map(Self::len).min() else { return };
        let limit = first_draw_limit(dist.first_draw_cutoff(horizon).unwrap_or(0.0));
        let mut terms = [0u64; UNIT_BLOCK];
        for lo in (from..units).step_by(UNIT_BLOCK) {
            let hi = (lo + UNIT_BLOCK).min(units);
            for (term, u) in terms.iter_mut().zip(lo..hi) {
                *term = SeedSequence::index_term(u as u64);
            }
            for (store, &seeds) in block.iter_mut().zip(seeds) {
                let start = store.count.clamp(lo, hi);
                for (u, &term) in (start..hi).zip(&terms[start - lo..hi - lo]) {
                    let seed = seeds.child_at(term).seed();
                    if may_fail(seed, limit) {
                        store.sample_unit(u, dist, horizon, seed);
                    }
                }
                store.count = store.count.max(hi);
            }
        }
    }

    /// Run the full sampler for unit `u` from `seed` and record the unit
    /// as failing when it fails within the horizon.
    fn sample_unit(&mut self, u: usize, dist: &dyn FailureDistribution, horizon: f64, seed: u64) {
        let before = self.dates.len();
        sample_dates(dist, horizon, seed, &mut self.dates);
        if self.dates.len() > before {
            self.ids.push(u as u32);
            self.ends.push(self.dates.len());
        }
    }

    fn dates_of(&self, k: usize) -> &[f64] {
        let start = k.checked_sub(1).map_or(0, |j| self.ends[j]);
        &self.dates[start..self.ends[k]]
    }
}

impl<'a> FromIterator<UnitTrace<'a>> for UnitTraces {
    fn from_iter<I: IntoIterator<Item = UnitTrace<'a>>>(iter: I) -> Self {
        let mut out = Self::default();
        for tr in iter {
            out.push(tr.failures);
        }
        out
    }
}

impl FromIterator<FailureTrace> for UnitTraces {
    fn from_iter<I: IntoIterator<Item = FailureTrace>>(iter: I) -> Self {
        let mut out = Self::default();
        for tr in iter {
            out.push(&tr.failures);
        }
        out
    }
}

impl From<Vec<FailureTrace>> for UnitTraces {
    fn from(traces: Vec<FailureTrace>) -> Self {
        traces.into_iter().collect()
    }
}

/// A full trace set: the failure dates of every unit, plus the topology
/// that maps units to processors.
#[derive(Debug, Clone)]
pub struct TraceSet {
    /// Failure dates per failure unit (processor or node).
    pub units: UnitTraces,
    /// Unit → processor mapping.
    pub topology: Topology,
    /// Horizon the traces were sampled to, seconds.
    pub horizon: f64,
    /// Job start time `t0` within the horizon (§4.3: 1 year for parallel
    /// platforms to avoid synchronous-initialisation side effects, 0 for
    /// the single-processor experiments).
    pub start_time: f64,
}

impl TraceSet {
    /// Generate traces for `units` failure units.
    ///
    /// Each unit's RNG seed derives from `seeds.child(unit_index)`, which
    /// delivers the §4.3 prefix property: generating for `b` units and
    /// truncating to `p ≤ b` equals generating for `p` units directly.
    ///
    /// # Panics
    /// Panics on invalid inputs; the fallible form is
    /// [`TraceSet::try_generate`].
    pub fn generate(
        dist: &dyn FailureDistribution,
        units: usize,
        topology: Topology,
        horizon: f64,
        start_time: f64,
        seeds: SeedSequence,
    ) -> Self {
        match Self::try_generate(dist, units, topology, horizon, start_time, seeds) {
            Ok(set) => set,
            Err(e) => panic!("TraceSet::generate: {e}"),
        }
    }

    /// Generate traces for `units` failure units, reporting a typed
    /// [`PlatformError`] instead of panicking on invalid inputs.
    pub fn try_generate(
        dist: &dyn FailureDistribution,
        units: usize,
        topology: Topology,
        horizon: f64,
        start_time: f64,
        seeds: SeedSequence,
    ) -> Result<Self, PlatformError> {
        if units < 1 {
            return Err(PlatformError::NoUnits);
        }
        if !(horizon.is_finite() && horizon > 0.0) {
            return Err(PlatformError::BadHorizon { horizon });
        }
        if !(0.0..horizon).contains(&start_time) {
            return Err(PlatformError::StartOutsideHorizon { start: start_time, horizon });
        }
        let mut store = [UnitTraces::default()];
        UnitTraces::sample_block(&mut store, &[seeds], dist, horizon, units);
        let [units] = store;
        Ok(Self { units, topology, horizon, start_time })
    }

    /// [`UnitTraces::sample_block`] over whole sets: each set of `block`
    /// grown to `units` units, set `j` from `seeds[j]`. The existing units
    /// are kept and only the new ones are sampled, so by the prefix
    /// property each result equals generating `units` units directly with
    /// the same seeds and `dist`; a set already that wide comes back
    /// unchanged. One set is a block of one.
    ///
    /// # Panics
    /// When `seeds` does not hold one sequence per set, or the sets do
    /// not share one horizon.
    pub fn widen(
        block: &[&TraceSet],
        dist: &dyn FailureDistribution,
        units: usize,
        seeds: &[SeedSequence],
    ) -> Vec<TraceSet> {
        let Some(first) = block.first() else { return Vec::new() };
        let shared = block.iter().all(|s| s.horizon.to_bits() == first.horizon.to_bits());
        assert!(shared, "the sets of a block share one horizon");
        let mut stores: Vec<UnitTraces> = block.iter().map(|s| s.units.clone()).collect();
        UnitTraces::sample_block(&mut stores, seeds, dist, first.horizon, units);
        block
            .iter()
            .zip(stores)
            .map(|(s, units)| Self { units, topology: s.topology, horizon: s.horizon, start_time: s.start_time })
            .collect()
    }

    /// Number of failure units.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Number of processors covered (`units × procs_per_unit`).
    pub fn proc_count(&self) -> usize {
        self.units.len() * self.topology.procs_per_unit()
    }

    /// Restrict to the first `units` traces (prefix-coherent subset).
    ///
    /// # Panics
    /// Panics when `units` is zero or exceeds the generated unit count;
    /// the fallible form is [`TraceSet::try_prefix`].
    pub fn prefix(&self, units: usize) -> Self {
        match self.try_prefix(units) {
            Ok(set) => set,
            Err(e) => panic!("TraceSet::prefix: {e}"),
        }
    }

    /// Restrict to the first `units` traces, reporting a typed error when
    /// the request exceeds the generated unit count.
    pub fn try_prefix(&self, units: usize) -> Result<Self, PlatformError> {
        if units < 1 || units > self.units.len() {
            return Err(PlatformError::BadPrefix { want: units, have: self.units.len() });
        }
        Ok(Self {
            units: self.units.prefix(units),
            topology: self.topology,
            horizon: self.horizon,
            start_time: self.start_time,
        })
    }

    /// Merge into the platform-wide event stream used by the simulator.
    /// Walks the failing units only, so it costs O(failures log failures)
    /// whatever the unit count.
    pub fn platform_events(&self) -> PlatformEvents {
        let mut events: Vec<(f64, u32, u32)> = self
            .units
            .failing()
            .enumerate()
            .flat_map(|(k, (u, dates))| dates.iter().map(move |&t| (t, u, k as u32)))
            .collect();
        // Stable: equal dates keep unit order.
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        PlatformEvents {
            times: events.iter().map(|e| e.0).collect(),
            units: events.iter().map(|e| e.1).collect(),
            slots: events.iter().map(|e| e.2).collect(),
            slot_count: self.units.failing_count(),
        }
    }

    /// Empirical platform MTBF over `[start_time, horizon)` — used to
    /// sanity-check the analytic formulas of [`crate::mtbf`].
    pub fn empirical_platform_mtbf(&self) -> Option<f64> {
        let n = self.units.dates.iter().filter(|&&t| t >= self.start_time).count();
        if n == 0 {
            None
        } else {
            Some((self.horizon - self.start_time) / n as f64)
        }
    }
}

/// Time-sorted failure events for one platform trace, stored as a
/// structure of arrays: the simulator's hot path scans dates only (to find
/// the next failure past a time), so keeping dates densely packed halves
/// the bytes touched per probe versus a `Vec<(f64, u32)>`.
///
/// Each event also carries its unit's *slot*: the unit's rank among the
/// units that ever fail in the set. Slots are dense in
/// `0..slot_count()`, so per-unit state indexed by slot costs
/// O(failing units), not O(units). They are prefix-stable like the
/// traces: a unit keeps its slot in every wider set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlatformEvents {
    times: Vec<f64>,
    units: Vec<u32>,
    slots: Vec<u32>,
    slot_count: usize,
}

impl PlatformEvents {
    /// Event dates in ascending order.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Failing unit of each event, parallel to [`Self::times`].
    pub fn units(&self) -> &[u32] {
        &self.units
    }

    /// Slot of each event's unit, parallel to [`Self::times`].
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// Number of slots: the failing units of the trace set.
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// The `i`-th event as a `(date, unit)` pair.
    pub fn get(&self, i: usize) -> (f64, u32) {
        (self.times[i], self.units[i])
    }

    /// Number of failures in the stream.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the platform never fails within the horizon.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Index of the first event at or after time `t`.
    pub fn first_at_or_after(&self, t: f64) -> usize {
        self.times.partition_point(|&d| d < t)
    }

    /// The first `(date, unit)` failure at or after `t`, if any.
    pub fn next_failure(&self, t: f64) -> Option<(f64, u32)> {
        let i = self.first_at_or_after(t);
        (i < self.times.len()).then(|| self.get(i))
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "an integer multiple of an ulp is exact")]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use ckpt_dist::{survival_draw, Exponential, Weibull};
    use rand::RngCore;

    fn seeds() -> SeedSequence {
        SeedSequence::from_label("trace-tests")
    }

    #[test]
    fn traces_are_sorted_and_within_horizon() {
        let d = Exponential::from_mtbf(10.0);
        let set = TraceSet::generate(&d, 1, Topology::per_processor(), 1000.0, 0.0, seeds());
        let tr = set.units.iter().next().unwrap().failures;
        assert!(!tr.is_empty());
        for w in tr.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(*tr.last().unwrap() < 1000.0);
    }

    #[test]
    fn expected_failure_count_matches_mtbf() {
        let d = Exponential::from_mtbf(10.0);
        let set = TraceSet::generate(&d, 200, Topology::per_processor(), 1000.0, 0.0, seeds());
        let n: usize = set.units.iter().map(|u| u.failures.len()).sum();
        let avg = n as f64 / 200.0;
        assert!((avg - 100.0).abs() < 3.0, "avg failures {avg}");
    }

    #[test]
    fn prefix_stability() {
        // §4.3: first p traces of a b-unit set == the p-unit set, whether
        // every unit fails (MTBF 50) or some never do (MTBF 2000).
        for (mtbf, failing) in [(50.0, 64..=64), (2_000.0, 1..=63)] {
            let d = Weibull::from_mtbf(0.7, mtbf);
            let t = Topology::per_processor();
            let big = TraceSet::generate(&d, 64, t, 500.0, 0.0, seeds());
            assert!(failing.contains(&big.units.failing_count()), "mtbf {mtbf}");
            for narrow in [1, 16, 40, 64] {
                let small = TraceSet::generate(&d, narrow, t, 500.0, 0.0, seeds());
                assert_eq!(big.units.prefix(narrow), small.units);
                assert_eq!(big.prefix(narrow).units, small.units);
                let wide = TraceSet::widen(&[&small], &d, 64, &[seeds()]);
                assert_eq!(wide[0].units, big.units, "mtbf {mtbf}");
            }
        }
    }

    #[test]
    fn compact_store_round_trips_sparse_units() {
        let units: UnitTraces = vec![
            FailureTrace { failures: vec![] },
            FailureTrace { failures: vec![3.0, 9.0] },
            FailureTrace { failures: vec![] },
            FailureTrace { failures: vec![1.0] },
            FailureTrace { failures: vec![] },
        ]
        .into();
        assert_eq!((units.len(), units.failing_count()), (5, 2));
        let lens: Vec<usize> = units.iter().map(|u| u.failures.len()).collect();
        assert_eq!(lens, [0, 2, 0, 1, 0]);
        let failing: Vec<(u32, &[f64])> = units.failing().collect();
        assert_eq!(failing, [(1, &[3.0, 9.0][..]), (3, &[1.0][..])]);
        assert_eq!(units.prefix(3), units.iter().take(3).collect());
        assert_eq!(units.prefix(3).failing_count(), 1);
    }

    #[test]
    fn events_carry_dense_prefix_stable_slots() {
        let set = TraceSet {
            units: vec![
                FailureTrace { failures: vec![] },
                FailureTrace { failures: vec![4.0, 8.0] },
                FailureTrace { failures: vec![] },
                FailureTrace { failures: vec![4.0, 6.0] },
            ]
            .into(),
            topology: Topology::per_processor(),
            horizon: 100.0,
            start_time: 0.0,
        };
        let ev = set.platform_events();
        assert_eq!(ev.times(), &[4.0, 4.0, 6.0, 8.0]);
        // Equal dates keep unit order; slots rank the failing units.
        assert_eq!(ev.units(), &[1, 3, 3, 1]);
        assert_eq!(ev.slots(), &[0, 1, 1, 0]);
        assert_eq!(ev.slot_count(), 2);
        // A unit keeps its slot in every prefix that holds it.
        let narrow = set.prefix(2).platform_events();
        assert_eq!(narrow.units(), &[1, 1]);
        assert_eq!(narrow.slots(), &[0, 0]);
        assert_eq!(narrow.slot_count(), 1);
    }

    #[test]
    fn platform_events_are_merged_and_sorted() {
        let d = Exponential::from_mtbf(20.0);
        let set = TraceSet::generate(&d, 8, Topology::per_processor(), 400.0, 0.0, seeds());
        let ev = set.platform_events();
        let total: usize = set.units.iter().map(|t| t.failures.len()).sum();
        assert_eq!(ev.len(), total);
        assert_eq!(ev.times().len(), ev.units().len());
        for w in ev.times().windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn next_failure_scans_correctly() {
        let set = TraceSet {
            units: vec![
                FailureTrace { failures: vec![5.0, 50.0] },
                FailureTrace { failures: vec![10.0] },
            ]
            .into(),
            topology: Topology::per_processor(),
            horizon: 100.0,
            start_time: 0.0,
        };
        let ev = set.platform_events();
        assert_eq!(ev.next_failure(0.0), Some((5.0, 0)));
        assert_eq!(ev.next_failure(6.0), Some((10.0, 1)));
        assert_eq!(ev.next_failure(10.0), Some((10.0, 1)));
        assert_eq!(ev.next_failure(60.0), None);
    }

    #[test]
    fn empirical_platform_mtbf_scales_inversely_with_units() {
        let d = Exponential::from_mtbf(1000.0);
        let one = TraceSet::generate(&d, 4, Topology::per_processor(), 100_000.0, 0.0, seeds());
        let many = TraceSet::generate(&d, 64, Topology::per_processor(), 100_000.0, 0.0, seeds());
        let m1 = one.empirical_platform_mtbf().unwrap();
        let m2 = many.empirical_platform_mtbf().unwrap();
        // 16× more units → roughly 16× smaller platform MTBF.
        let ratio = m1 / m2;
        assert!((8.0..32.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn try_generate_reports_typed_errors() {
        let d = Exponential::from_mtbf(10.0);
        let t = Topology::per_processor();
        assert_eq!(
            TraceSet::try_generate(&d, 0, t, 100.0, 0.0, seeds()).err(),
            Some(PlatformError::NoUnits)
        );
        assert_eq!(
            TraceSet::try_generate(&d, 1, t, f64::NAN, 0.0, seeds()).err().map(|e| e.to_string()),
            Some("horizon must be positive and finite, got NaN".into())
        );
        assert!(matches!(
            TraceSet::try_generate(&d, 1, t, 10.0, 20.0, seeds()),
            Err(PlatformError::StartOutsideHorizon { .. })
        ));
        let set = TraceSet::try_generate(&d, 2, t, 100.0, 0.0, seeds()).expect("valid");
        assert_eq!(
            set.try_prefix(3).err(),
            Some(PlatformError::BadPrefix { want: 3, have: 2 })
        );
    }

    #[test]
    fn node_topology_proc_count() {
        let d = Exponential::from_mtbf(100.0);
        let set = TraceSet::generate(&d, 10, Topology::nodes_of(4), 100.0, 0.0, seeds());
        assert_eq!(set.unit_count(), 10);
        assert_eq!(set.proc_count(), 40);
    }

    #[test]
    fn empirical_platform_mtbf_counts_only_failures_after_start() {
        let mut set = TraceSet {
            units: vec![
                FailureTrace { failures: vec![10.0, 60.0] },
                FailureTrace { failures: vec![70.0] },
            ]
            .into(),
            topology: Topology::per_processor(),
            horizon: 100.0,
            start_time: 50.0,
        };
        // Two failures in the 50 s after the start.
        assert_eq!(set.empirical_platform_mtbf(), Some(25.0));
        set.start_time = 80.0;
        assert_eq!(set.empirical_platform_mtbf(), None);
    }

    #[test]
    fn try_prefix_rejects_an_empty_prefix() {
        let d = Exponential::from_mtbf(10.0);
        let set = TraceSet::generate(&d, 2, Topology::per_processor(), 100.0, 0.0, seeds());
        assert_eq!(set.try_prefix(0).err(), Some(PlatformError::BadPrefix { want: 0, have: 2 }));
        assert_eq!(set.try_prefix(2).map(|s| s.units).ok(), Some(set.units.clone()));
    }

    #[test]
    fn first_at_or_after_is_a_lower_bound() {
        let set = TraceSet {
            units: vec![FailureTrace { failures: vec![5.0, 10.0, 50.0] }].into(),
            topology: Topology::per_processor(),
            horizon: 100.0,
            start_time: 0.0,
        };
        let ev = set.platform_events();
        assert!(!ev.is_empty());
        assert_eq!(ev.first_at_or_after(0.0), 0);
        assert_eq!(ev.first_at_or_after(10.0), 1);
        assert_eq!(ev.first_at_or_after(10.5), 2);
        assert_eq!(ev.first_at_or_after(51.0), ev.len());
        assert_eq!(ev.get(2), (50.0, 0));
        assert!(PlatformEvents::default().is_empty());
    }

    /// Sampling before the screen: every unit runs the full sampler.
    fn unscreened(
        dist: &dyn FailureDistribution,
        units: usize,
        horizon: f64,
        seeds: &SeedSequence,
    ) -> UnitTraces {
        let mut out = UnitTraces::default();
        let mut dates = Vec::new();
        for unit in 0..units {
            dates.clear();
            sample_dates(dist, horizon, seeds.child(unit as u64).seed(), &mut dates);
            out.push(&dates);
        }
        out
    }

    /// The per-unit screen the block routine replaces: `from` grown to
    /// `units` units, each new unit's first draw taken from its own
    /// generator and compared with the float cutoff.
    fn screened_per_unit(
        dist: &dyn FailureDistribution,
        from: &UnitTraces,
        units: usize,
        horizon: f64,
        seeds: &SeedSequence,
    ) -> UnitTraces {
        let cutoff = dist.first_draw_cutoff(horizon).unwrap_or(0.0);
        let mut out = from.clone();
        let mut dates = Vec::new();
        for unit in from.len()..units {
            let seed = seeds.child(unit as u64).seed();
            dates.clear();
            if survival_draw(&mut StdRng::seed_from_u64(seed)) >= cutoff {
                sample_dates(dist, horizon, seed, &mut dates);
            }
            out.push(&dates);
        }
        out
    }

    /// Byte equality of two stores and of their merged event streams.
    fn assert_bit_identical(got: &UnitTraces, want: &UnitTraces, what: &str) {
        let bits = |u: &UnitTraces| {
            let dates: Vec<u64> = u.dates.iter().map(|d| d.to_bits()).collect();
            (u.count, u.ids.clone(), u.ends.clone(), dates)
        };
        assert_eq!(bits(got), bits(want), "{what}: unit traces");
        let events = |units: &UnitTraces| {
            let set = TraceSet {
                units: units.clone(),
                topology: Topology::per_processor(),
                horizon: f64::INFINITY,
                start_time: 0.0,
            };
            let ev = set.platform_events();
            let times: Vec<u64> = ev.times().iter().map(|t| t.to_bits()).collect();
            (times, ev.units().to_vec(), ev.slots().to_vec(), ev.slot_count())
        };
        assert_eq!(events(got), events(want), "{what}: platform events");
    }

    /// Exponential and Weibull laws with `−ln S(horizon) = l`.
    fn laws_at(l: f64, horizon: f64) -> Vec<Box<dyn FailureDistribution>> {
        let mut laws: Vec<Box<dyn FailureDistribution>> =
            vec![Box::new(Exponential::new(l / horizon))];
        for k in [0.5, 0.7, 1.0, 1.5] {
            laws.push(Box::new(Weibull::new(k, horizon / l.powf(1.0 / k))));
        }
        laws
    }

    #[test]
    fn screened_sampling_equals_sampling_every_unit() {
        let h = 1_000.0;
        // From almost no unit failing to every unit failing (−ln S(h) past
        // 37 puts the cutoff below every draw) and to S(h) underflowing to
        // 0; the long horizons keep fewer units.
        let grid: [(f64, &[usize]); 7] = [
            (1e-6, &[1, 63, 64, 65, 1000]),
            (1e-3, &[1, 63, 64, 65, 1000]),
            (0.1, &[1, 63, 64, 65, 1000]),
            (1.0, &[1, 63, 64, 65, 1000]),
            (10.0, &[1, 65]),
            (40.0, &[1, 65]),
            (800.0, &[1, 2]),
        ];
        for (l, counts) in grid {
            for dist in laws_at(l, h) {
                let cutoff = dist.first_draw_cutoff(h).unwrap();
                assert_eq!(cutoff == 0.0, l > 745.0, "{dist:?}: cutoff {cutoff}");
                for &n in counts {
                    let want = unscreened(dist.as_ref(), n, h, &seeds());
                    let t = Topology::per_processor();
                    let set = TraceSet::generate(dist.as_ref(), n, t, h, 0.0, seeds());
                    assert_bit_identical(&set.units, &want, &format!("{dist:?} at {n} units"));
                    // Widening from narrower sets gives the same traces.
                    for from in [1, 30, 64, 100].into_iter().filter(|&w| w < n) {
                        let narrow = set.prefix(from);
                        let wide = TraceSet::widen(&[&narrow], dist.as_ref(), n, &[seeds()]);
                        let what = format!("{dist:?} widened {from} → {n}");
                        assert_bit_identical(&wide[0].units, &want, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn distributions_without_a_cutoff_sample_every_unit() {
        // A LANL-like node log: the empirical law has no cutoff.
        let durations = (1..=200).map(|i| 3_600.0 * f64::from(i).powf(1.7)).collect();
        let d = ckpt_dist::Empirical::from_durations(durations);
        assert_eq!(d.first_draw_cutoff(1e9), None);
        let h = 4.0 * 365.25 * 86_400.0;
        for n in [1, 65, 1000] {
            let set = TraceSet::generate(&d, n, Topology::nodes_of(4), h, 0.0, seeds());
            let want = unscreened(&d, n, h, &seeds());
            assert_bit_identical(&set.units, &want, &format!("{n} nodes"));
            assert_eq!(set.units.failing_count(), n);
        }
    }

    /// An RNG whose every `u64` is fixed, so `gen::<f64>()` is fixed.
    struct Fixed(u64);

    impl rand::RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            (self.0 >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(0);
        }
    }

    #[test]
    fn the_cutoff_is_exact_at_the_float_level() {
        let h = 1_000.0;
        let ulp = 1.0 / (1u64 << 53) as f64;
        for l in [1e-6, 1e-3, 0.1, 1.0, 10.0, 30.0] {
            for dist in laws_at(l, h) {
                let c = dist.first_draw_cutoff(h).unwrap();
                assert!(c > 0.0 && c < 1.0, "{dist:?}: cutoff {c}");
                // Every double around the cutoff: below it, the inverse
                // survival clears the horizon.
                let mut u = (0..256).fold(c, |u, _| u.next_up());
                for _ in 0..512 {
                    u = u.next_down();
                    if u < c {
                        assert!(dist.inverse_survival(u) >= h, "{dist:?}: u {u} below {c}");
                    }
                }
                // Every draw `1 − U` the generator can make around the
                // cutoff: `sample` is the inverse survival of that draw,
                // bit for bit, and a draw below the cutoff never fails.
                let m = (c / ulp) as u64;
                for mu in m.saturating_sub(256).max(1)..=(m + 256).min(1 << 53) {
                    let bits = ((1u64 << 53) - mu) << 11;
                    let u = survival_draw(&mut Fixed(bits));
                    assert_eq!(u, mu as f64 * ulp);
                    let x = dist.sample(&mut Fixed(bits));
                    assert_eq!(x.to_bits(), dist.inverse_survival(u).to_bits(), "{dist:?}: u {u}");
                    if u < c {
                        assert!(x >= h, "{dist:?}: u {u} below {c} samples {x} < {h}");
                    }
                }
            }
        }
    }

    #[test]
    fn generation_depends_only_on_the_seeds() {
        let d = Weibull::from_mtbf(0.7, 100.0);
        let t = Topology::per_processor();
        let a = TraceSet::generate(&d, 8, t, 1_000.0, 0.0, seeds());
        let b = TraceSet::generate(&d, 8, t, 1_000.0, 0.0, seeds());
        let c = TraceSet::generate(&d, 8, t, 1_000.0, 0.0, SeedSequence::from_label("other"));
        assert_eq!(a.units, b.units);
        assert_ne!(a.units, c.units);
    }

    /// The inverse of [`mix_seed`]: undo the finaliser's xor-shifts and
    /// odd multipliers, then the increment.
    fn unmix(mut z: u64) -> u64 {
        fn unshift(y: u64, by: u32) -> u64 {
            let mut x = y;
            for _ in 0..64 / by {
                x = y ^ (x >> by);
            }
            x
        }
        fn inverse(c: u64) -> u64 {
            (0..6).fold(c, |inv, _| inv.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(inv))))
        }
        z = unshift(z, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        z = unshift(z, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        unshift(z, 30).wrapping_sub(GAMMA)
    }

    /// A seed whose generator's first `next_u64` is `x`, or whose
    /// second state word is 0 for `x = 0` read as a word.
    fn seed_with_word(word: u64) -> u64 {
        unmix(word).wrapping_sub(GAMMA)
    }

    fn seed_with_first_output(x: u64) -> u64 {
        let inv = |c: u64| (0..6).fold(c, |i: u64, _| i.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(i))));
        seed_with_word(x.wrapping_mul(inv(9)).rotate_right(7).wrapping_mul(inv(5)))
    }

    /// A root whose child `unit` has the child seed `seed`.
    fn root_with_child(unit: u64, seed: u64) -> SeedSequence {
        SeedSequence::new(unmix(unmix(seed) ^ SeedSequence::index_term(unit)))
    }

    #[test]
    fn the_crafting_helpers_invert_the_seeding() {
        for z in [0, 1, GAMMA, u64::MAX, 0x0123_4567_89ab_cdef] {
            assert_eq!(mix_seed(unmix(z)), z);
            assert_eq!(StdRng::seed_from_u64(seed_with_first_output(z)).next_u64(), z);
        }
        let root = root_with_child(5, 42);
        assert_eq!(root.child(5).seed(), 42);
    }

    #[test]
    fn first_output_is_the_generators_first_draw() {
        let seeds = (0..50_000u64).chain((0..50_000).map(mix_seed)).chain([u64::MAX, GAMMA]);
        for seed in seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let want = survival_draw(&mut StdRng::seed_from_u64(seed));
            let x = first_output(seed);
            assert_eq!(x, rng.next_u64(), "seed {seed:#x}");
            assert_eq!(draw_of(x).to_bits(), want.to_bits(), "seed {seed:#x}");
        }
        // `seed + 2γ = 0`: the second SplitMix64 output, the word the first
        // output reads, is the finaliser of 0, which is 0.
        let zero = 0u64.wrapping_sub(2u64.wrapping_mul(GAMMA));
        assert_eq!(zero, seed_with_word(0));
        assert_eq!(first_output(zero), 0);
        assert_eq!(StdRng::seed_from_u64(zero).next_u64(), 0);
        assert_eq!(survival_draw(&mut StdRng::seed_from_u64(zero)), 1.0);
    }

    #[test]
    fn a_zero_word_passes_every_screen() {
        let zero = seed_with_word(0);
        for c in [0.0, 0.5, 1.0, 1.0f64.next_up(), 2.0, f64::INFINITY, f64::NAN] {
            let limit = first_draw_limit(c);
            assert!(may_fail(zero, limit), "cutoff {c}: a zero word runs the full sampler");
            if c.is_nan() || c > 1.0 {
                // No draw reaches the cutoff: only outputs below 2^11 pass.
                assert!(!may_fail(seed_with_first_output(1 << 11), limit), "cutoff {c}");
            }
        }
    }

    #[test]
    fn the_integer_screen_is_the_float_screen_at_its_limit() {
        let h = 1_000.0;
        let mut cutoffs = vec![0.0, 0.5, 1.0, 1.0f64.next_up(), f64::NAN, 1.0 / (1u64 << 53) as f64];
        cutoffs.push(1.0 - 1.0 / (1u64 << 53) as f64);
        for l in [1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 30.0] {
            cutoffs.extend(laws_at(l, h).iter().filter_map(|d| d.first_draw_cutoff(h)));
        }
        for c in cutoffs {
            let limit = first_draw_limit(c);
            assert!(limit <= 1 << 53, "cutoff {c}: limit {limit}");
            for m in limit.saturating_sub(4)..=(limit + 4).min((1 << 53) - 1) {
                // Either extreme of the low bits the draw drops.
                for low in [0, 0x7ff] {
                    let seed = seed_with_first_output(m << 11 | low);
                    let draw = survival_draw(&mut StdRng::seed_from_u64(seed));
                    // Outputs below 2^11, the zero word's among them, pass
                    // even a cutoff no draw reaches.
                    let want = draw >= c || m == 0;
                    assert_eq!(may_fail(seed, limit), want, "cutoff {c}: x = {m} << 11 | {low:#x}, limit {limit}");
                }
            }
        }
    }

    #[test]
    fn a_zero_word_unit_runs_the_full_sampler() {
        // Unit 3's generator word is 0: its first draw is 1, which the
        // Exponential sampler turns into a failure at time 0.
        let seeds = root_with_child(3, seed_with_word(0));
        let d = Exponential::new(0.1 / 1_000.0);
        let set = TraceSet::generate(&d, 8, Topology::per_processor(), 1_000.0, 0.0, seeds);
        let want = screened_per_unit(&d, &UnitTraces::default(), 8, 1_000.0, &seeds);
        assert_bit_identical(&set.units, &want, "zero word");
        let failing: Vec<u32> = set.units.failing().map(|(id, _)| id).collect();
        assert!(failing.contains(&3), "failing units {failing:?}");
        assert_eq!(set.units.failing().find(|&(id, _)| id == 3).map(|(_, d)| d[0]), Some(0.0));
    }

    #[test]
    fn pieces_append_in_unit_order() {
        let d = Weibull::from_mtbf(0.7, 20_000.0);
        let (h, n) = (1_000.0, 700);
        let whole = TraceSet::generate(&d, n, Topology::per_processor(), h, 0.0, seeds());
        for cuts in [&[0, 700][..], &[0, 256, 700], &[0, 1, 255, 513, 700], &[0, 699, 700]] {
            let mut joined = UnitTraces::default();
            for w in cuts.windows(2) {
                let mut piece = [UnitTraces::never_failing(w[0])];
                UnitTraces::sample_block(&mut piece, &[seeds()], &d, h, w[1]);
                let [piece] = piece;
                joined.append(piece);
            }
            assert_bit_identical(&joined, &whole.units, &format!("cuts {cuts:?}"));
        }
    }

    #[test]
    #[should_panic(expected = "does not continue")]
    fn a_piece_that_overlaps_the_store_is_refused() {
        let mut store = UnitTraces::never_failing(10);
        store.append(vec![FailureTrace { failures: vec![1.0] }].into());
    }

    /// A law without a first-draw cutoff, so every unit is sampled.
    fn uncut_law() -> Box<dyn FailureDistribution> {
        let durations = (1..=200).map(|i| 3_600.0 * f64::from(i).powf(1.7)).collect();
        Box::new(ckpt_dist::Empirical::from_durations(durations))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The block routine against the per-unit screen it replaces, and
        /// against sampling every unit: stores and event streams equal bit
        /// for bit, for blocks of 1–4 sets of mixed narrow widths (0 and
        /// wider than the block included), unit counts on both sides of
        /// `UNIT_BLOCK`, and
        /// laws with and without a cutoff; cut at a unit and joined, the
        /// pieces give the same stores.
        #[test]
        fn block_sampling_is_the_per_unit_screen(
            label in 0u32..1_000_000,
            law in 0usize..4,
            l_exp in -4.0..0.7f64,
            units in 0usize..700,
            widths in proptest::collection::vec(0.0..1.3f64, 1..=4),
            cut in 0.0..1.0f64,
        ) {
            let h = 1.0e7;
            let l = 10f64.powf(l_exp);
            let dist: Box<dyn FailureDistribution> = match law {
                0 => Box::new(Exponential::new(l / h)),
                1 => Box::new(Weibull::new(0.7, h / l.powf(1.0 / 0.7))),
                2 => Box::new(Weibull::new(1.5, h / l.powf(1.0 / 1.5))),
                _ => uncut_law(),
            };
            let dist = dist.as_ref();
            let root = SeedSequence::from_label(&format!("block-{label}"));
            let seeds: Vec<SeedSequence> = (0..widths.len() as u64).map(|i| root.child(i)).collect();
            let t = Topology::per_processor();
            let narrow: Vec<TraceSet> = widths
                .iter()
                .zip(&seeds)
                .map(|(&w, &s)| {
                    // A tenth of the draws start from no unit; some start
                    // wider than the block is grown.
                    let width = if w < 0.1 { 0 } else { (w * units as f64) as usize };
                    let units = screened_per_unit(dist, &UnitTraces::default(), width, h, &s);
                    TraceSet { units, topology: t, horizon: h, start_time: 0.0 }
                })
                .collect();
            let refs: Vec<&TraceSet> = narrow.iter().collect();
            let wide = TraceSet::widen(&refs, dist, units, &seeds);
            let cut = ((cut * units as f64) as usize).max(narrow.iter().map(TraceSet::unit_count).min().unwrap_or(0));
            for (j, (set, s)) in narrow.iter().zip(&seeds).enumerate() {
                let what = format!("{dist:?}, set {j} of {}: {} → {units} units", widths.len(), set.unit_count());
                let want = screened_per_unit(dist, &set.units, units, h, s);
                assert_bit_identical(&wide[j].units, &want, &what);
                if set.unit_count() <= units {
                    assert_bit_identical(&wide[j].units, &unscreened(dist, units, h, s), &what);
                }
                // Split at `cut`: the head grown in place, the tail a piece.
                let mut head = [set.units.clone()];
                UnitTraces::sample_block(&mut head, &[*s], dist, h, cut);
                let [mut head] = head;
                let mut tail = [UnitTraces::never_failing(cut.max(set.unit_count()))];
                UnitTraces::sample_block(&mut tail, &[*s], dist, h, units);
                let [tail] = tail;
                head.append(tail);
                assert_bit_identical(&head, &want, &format!("{what}, cut at {cut}"));
            }
        }
    }
}
