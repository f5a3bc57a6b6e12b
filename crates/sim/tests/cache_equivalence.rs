//! Cache sharing must be observationally invisible.
//!
//! `DpNextFailure` instances now share one process-wide plan/kernel-row
//! cache ([`DpCaches::global`]); a policy built with a private cache
//! ([`DpCaches::private`]) recomputes every solve from scratch. Whatever
//! the cache serves, the simulated [`RunStats`] must stay *bit-identical*:
//! plans are keyed by the exact quantised state, kernel rows are pure
//! functions of their key, and FIFO eviction only ever forces a
//! recompute — never a different value. This property test drives random
//! Weibull scenarios through both configurations (and through a warm
//! shared cache a second time) and compares the full stats structs.

use ckpt_dist::Weibull;
use ckpt_math::SeedSequence;
use ckpt_platform::{Topology, TraceSet};
use ckpt_policies::plan_cache::KernelRowKey;
use ckpt_policies::{DistId, DpCaches, DpNextFailure, DpNextFailureConfig, Policy, ShardedCache};
use ckpt_sim::engine::simulate_traceset;
use ckpt_sim::{RunStats, SimOptions};
use ckpt_workload::JobSpec;
use proptest::prelude::*;
use std::sync::Arc;

fn run(policy: &DpNextFailure, spec: &JobSpec, traces: &TraceSet) -> RunStats {
    let mut session = policy.session();
    simulate_traceset(spec, &mut *session, traces, SimOptions::default())
}

proptest! {
    // DP solves are the expensive part of a case; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn run_stats_bit_identical_across_cache_sharing(
        shape in 0.5..1.3f64,
        mtbf in 20_000.0..400_000.0f64,
        work in 5_000.0..80_000.0f64,
        checkpoint in 60.0..900.0f64,
        units in 1usize..4,
        seed in 0u64..1_000u64,
    ) {
        let dist = Weibull::from_mtbf(shape, mtbf);
        let traces = TraceSet::generate(
            &dist,
            units,
            Topology::per_processor(),
            1e9,
            0.0,
            SeedSequence::new(seed),
        );
        let spec = JobSpec {
            procs: units as u64,
            ..JobSpec::sequential(work, checkpoint, checkpoint, 60.0)
        };
        let cfg = DpNextFailureConfig { quanta: Some(30) };

        let shared =
            DpNextFailure::new(&spec, Box::new(dist), mtbf, cfg);
        let private = DpNextFailure::with_caches(
            &spec,
            Box::new(Weibull::from_mtbf(shape, mtbf)),
            mtbf,
            cfg,
            DpCaches::private(),
        );

        let via_shared = run(&shared, &spec, &traces);
        let via_private = run(&private, &spec, &traces);
        // Second pass over the shared instance: one-age states now hit
        // their memoised plans, and multi-age states (`units > 1`) solve
        // again from the kernel rows the first pass cached.
        let via_warm = run(&shared, &spec, &traces);

        prop_assert_eq!(&via_shared, &via_private);
        prop_assert_eq!(&via_shared, &via_warm);
    }
}

/// The value a cache entry must hold for `key` — a pure function of the
/// key, like real plan/row entries.
fn row_for(key: &KernelRowKey) -> Arc<[f64]> {
    let seed = key.bucket as f64 + key.x_max as f64 * 0.5;
    Arc::from(vec![seed, seed * 1.5, f64::from_bits(key.u_bits)])
}

/// 8 threads hammering one 16-way sharded cache under heavy eviction
/// pressure, with colliding `DistId` fingerprints so distinct logical
/// keys contend on the same shards. Whatever interleaving happens:
/// every lookup is counted exactly once, eviction keeps every shard at
/// its cap, and a served value is always the pure function of its key.
#[test]
fn contended_sharded_cache_counters_stay_consistent() {
    const THREADS: u64 = 8;
    const ROUNDS: u64 = 40;
    const KEYS: u64 = 512;
    const SHARDS: usize = 16;
    const CAP: usize = 8; // 16 × 8 = 128 resident max « 512 keys: constant eviction.

    let cache: Arc<ShardedCache<KernelRowKey, Arc<[f64]>>> =
        Arc::new(ShardedCache::new(SHARDS, CAP));

    let key_of = |k: u64| KernelRowKey {
        // Only 4 distinct fingerprints: instances collide on identity,
        // exactly what value-identical Weibulls do in a study batch.
        dist: DistId::Shared(k % 4),
        u_bits: (3600.0f64 + (k / 4) as f64).to_bits(),
        checkpoint_bits: 600.0f64.to_bits(),
        x_max: 256,
        bucket: k % 37,
    };

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let mut lookups = 0u64;
                for round in 0..ROUNDS {
                    for i in 0..KEYS {
                        // Each thread sweeps the key space phase-shifted,
                        // so threads constantly race on the same keys.
                        let k = (i * (t + 1) + round * 7) % KEYS;
                        let key = key_of(k);
                        let got = cache.get_or_insert_with(key, || row_for(&key_of(k)));
                        assert_eq!(
                            got.as_ref(),
                            row_for(&key_of(k)).as_ref(),
                            "cache served a value that is not the pure function of its key"
                        );
                        lookups += 1;
                    }
                }
                lookups
            })
        })
        .collect();

    let total_lookups: u64 = handles.into_iter().map(|h| h.join().expect("worker")).sum();
    assert_eq!(total_lookups, THREADS * ROUNDS * KEYS);

    let s = cache.stats();
    // `get_or_insert_with` counts exactly one hit or miss per call.
    assert_eq!(s.hits + s.misses, total_lookups, "every lookup counted exactly once");
    assert!(s.entries <= (SHARDS * CAP) as u64, "eviction must bound the resident set");
    // Every miss inserts (racing duplicates replace in place); each
    // inserted entry is either still resident or was evicted.
    assert!(s.entries + s.evictions <= s.misses, "insert/evict bookkeeping drifted");
    assert!(s.evictions > 0, "test must actually exercise eviction");
    assert!(s.hits > 0, "test must actually exercise sharing");
}

/// End-to-end contention: 8 threads simulate on ONE shared cache pair,
/// in pairs built from value-identical (same-fingerprint) Weibulls, so
/// plan and kernel-row entries are produced and consumed concurrently
/// across policy instances. Every thread's `RunStats` must be
/// bit-identical to a cold, private-cache baseline of its scenario.
#[test]
fn contended_shared_caches_match_cold_private_baseline() {
    const SCENARIOS: [(f64, f64, u64); 4] = [
        (0.7, 100_000.0, 11),
        (0.7, 100_000.0, 12), // same dist as above: fingerprints collide
        (1.1, 50_000.0, 13),
        (0.5, 250_000.0, 14),
    ];

    let run_scenario = |shape: f64, mtbf: f64, seed: u64, caches: DpCaches| -> RunStats {
        let dist = Weibull::from_mtbf(shape, mtbf);
        let traces = TraceSet::generate(
            &dist,
            2,
            Topology::per_processor(),
            1e9,
            0.0,
            SeedSequence::new(seed),
        );
        let spec = JobSpec { procs: 2, ..JobSpec::sequential(20_000.0, 300.0, 300.0, 60.0) };
        let cfg = DpNextFailureConfig { quanta: Some(30) };
        let policy = DpNextFailure::with_caches(&spec, Box::new(dist), mtbf, cfg, caches);
        run(&policy, &spec, &traces)
    };

    // Cold baselines, each on its own fresh cache: nothing shared.
    let baselines: Vec<RunStats> = SCENARIOS
        .iter()
        .map(|&(shape, mtbf, seed)| run_scenario(shape, mtbf, seed, DpCaches::private()))
        .collect();

    // 8 threads (2 per scenario) race on one shared cache pair.
    let shared = DpCaches::private();
    let before = shared.stats();
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let caches = shared.clone();
            std::thread::spawn(move || {
                let (shape, mtbf, seed) = SCENARIOS[t % SCENARIOS.len()];
                (t % SCENARIOS.len(), run_scenario(shape, mtbf, seed, caches))
            })
        })
        .collect();

    for h in handles {
        let (idx, stats) = h.join().expect("sim worker");
        assert_eq!(
            stats, baselines[idx],
            "shared-cache run diverged from cold private baseline (scenario {idx})"
        );
    }

    let d = shared.stats().delta_since(&before);
    assert!(
        d.kernel_rows.hits + d.plans.hits > 0,
        "threads never actually shared an entry — the contention test tested nothing"
    );
}
