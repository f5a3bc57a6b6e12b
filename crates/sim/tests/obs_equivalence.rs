//! Recording must be observationally invisible to the engine.
//!
//! The pipeline's correctness contract is *bit-identical results at any
//! thread count*, and `ckpt-obs` instrumentation must not bend it: the
//! engine and the DP solver count into locals and flush to the registry
//! only after their results are final, so an open session can never
//! feed back into control flow. This property test drives random
//! Weibull scenarios through [`simulate_traceset`] once without a
//! session, then on 1 and on 8 concurrent threads under one recording
//! session each, and compares every thread's full [`RunStats`] to the
//! unrecorded baseline bit for bit.
//!
//! Without the `obs` feature sessions cannot open and the test reduces
//! to a determinism check; `scripts/check.sh` runs it with the feature
//! on so the live recorder is exercised.

use ckpt_dist::Weibull;
use ckpt_math::SeedSequence;
use ckpt_platform::{Topology, TraceSet};
use ckpt_policies::{DpCaches, DpNextFailure, DpNextFailureConfig, Policy};
use ckpt_sim::engine::simulate_traceset;
use ckpt_sim::{RunStats, SimOptions};
use ckpt_workload::JobSpec;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct Case {
    shape: f64,
    mtbf: f64,
    work: f64,
    checkpoint: f64,
    units: usize,
    seed: u64,
}

fn run_case(c: Case) -> RunStats {
    let dist = Weibull::from_mtbf(c.shape, c.mtbf);
    let traces = TraceSet::generate(
        &dist,
        c.units,
        Topology::per_processor(),
        1e9,
        0.0,
        SeedSequence::new(c.seed),
    );
    let spec = JobSpec {
        procs: c.units as u64,
        ..JobSpec::sequential(c.work, c.checkpoint, c.checkpoint, 60.0)
    };
    let cfg = DpNextFailureConfig { quanta: Some(30), ..Default::default() };
    // Private caches: every pass recomputes from scratch, so warm shared
    // state cannot mask (or cause) a difference between passes.
    let policy =
        DpNextFailure::with_caches(&spec, Box::new(dist), c.mtbf, cfg, DpCaches::private());
    let mut session = policy.session();
    simulate_traceset(&spec, &mut *session, &traces, SimOptions::default())
}

proptest! {
    // DP solves are the expensive part of a case; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn run_stats_bit_identical_with_and_without_recording(
        shape in 0.5..1.3f64,
        mtbf in 20_000.0..400_000.0f64,
        work in 5_000.0..80_000.0f64,
        checkpoint in 60.0..900.0f64,
        units in 1usize..4,
        seed in 0u64..1_000u64,
    ) {
        let case = Case { shape, mtbf, work, checkpoint, units, seed };
        let baseline = run_case(case);

        for threads in [1usize, 8] {
            let obs = ckpt_obs::ObsSession::start(); // None without `obs`
            let recorded: Vec<RunStats> = std::thread::scope(|scope| {
                let handles: Vec<_> =
                    (0..threads).map(|_| scope.spawn(|| run_case(case))).collect();
                handles.into_iter().map(|h| h.join().expect("case thread")).collect()
            });
            if let Some(obs) = obs {
                let data = obs.finish();
                prop_assert!(
                    data.counter("sim.runs") >= threads as u64,
                    "session must actually have recorded every run"
                );
            }
            for stats in &recorded {
                prop_assert_eq!(
                    &baseline,
                    stats,
                    "recording on {} concurrent thread(s) changed RunStats",
                    threads
                );
            }
        }
    }
}
