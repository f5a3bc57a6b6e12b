//! Pins the shared-cursor wave executor (`ckpt_exp::steal`).
//!
//! * **Claim order** — heavy task IDs first, then the rest, each class
//!   in task order; a pure function, so it is checked without threads.
//! * **Bit-identity** — with real threads, the committed output equals
//!   the one-worker drain for any worker count and heavy marking, and
//!   every task is claimed exactly once.
//! * **Poisoning** — a panicking task surfaces the lowest poisoned task
//!   ID deterministically *after* every sibling ran: no hang, no
//!   dropped tasks.
//! * **Slow tasks** — a worker stuck on a slow task does not strand the
//!   rest of the wave.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ckpt_exp::steal::{claim_order, run_wave};
use proptest::collection::vec;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn claim_order_puts_heavy_first_and_keeps_task_order_in_each_class() {
    assert_eq!(claim_order(&[false, true, false, true, false, true]), [1, 3, 5, 0, 2, 4]);
    assert_eq!(claim_order(&[true, true, false]), [0, 1, 2]);
    assert_eq!(claim_order(&[false, false]), [0, 1]);
    assert!(claim_order(&[]).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The claim order is a permutation of the task IDs whose head is
    /// exactly the heavy IDs, and each class keeps task order.
    #[test]
    fn claim_order_is_a_heavy_first_stable_permutation(heavy_sel in vec(0usize..2, 0..64)) {
        let heavy: Vec<bool> = heavy_sel.iter().map(|&h| h == 1).collect();
        let order = claim_order(&heavy);
        let k = heavy.iter().filter(|&&h| h).count();
        let mut ids = order.clone();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..heavy.len()).collect::<Vec<_>>());
        prop_assert!(order[..k].iter().all(|&id| heavy[id]));
        prop_assert!(order[..k].windows(2).all(|p| p[0] < p[1]));
        prop_assert!(order[k..].windows(2).all(|p| p[0] < p[1]));
    }

    /// Real threads: the committed output is bit-identical to the
    /// one-worker drain for any worker count and heavy marking, and
    /// every task is claimed exactly once.
    #[test]
    fn threaded_wave_matches_sequential(
        n in 0usize..48,
        workers in 1usize..9,
        heavy_sel in vec(0usize..2, 48),
    ) {
        let tasks: Vec<u64> = (0..n as u64).collect();
        let heavy = |t: &u64| heavy_sel[*t as usize] == 1;
        let work = |i: usize, t: &u64| (i as u64) ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (seq, seq_stats) = run_wave(&tasks, 1, heavy, work);
        let (par, par_stats) = run_wave(&tasks, workers, heavy, work);
        prop_assert_eq!(seq, par);
        prop_assert_eq!(seq_stats.claims(), n as u64);
        prop_assert_eq!(par_stats.claims(), n as u64);
        prop_assert_eq!(par_stats.per_worker.iter().sum::<u64>(), n as u64);
    }
}

/// A poisoned task must not hang the wave, drop siblings, or surface
/// nondeterministically: the drain runs *every* task at any worker
/// count, then re-raises the panic of the lowest poisoned task ID.
#[test]
fn poisoned_task_surfaces_lowest_id_and_drops_no_sibling() {
    // The default panic hook would print a backtrace per poisoned task
    // across every case below; silence it for this test only.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(|| {
        for (n, workers, poison_stride) in [
            (1usize, 4usize, 1usize),
            (9, 1, 3),
            (9, 2, 3),
            (20, 4, 7),
            (33, 8, 5),
            (16, 16, 4),
            (7, 3, 8),
        ] {
            let tasks: Vec<u64> = (0..n as u64).collect();
            let poisoned: Vec<bool> = (0..n).map(|i| i % poison_stride == poison_stride - 1).collect();
            let lowest = poisoned.iter().position(|&p| p);
            let executed = AtomicU64::new(0);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_wave(&tasks, workers, |_| false, |i, &t| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    assert!(!poisoned[i], "poisoned task {i}");
                    t
                })
            }));
            assert_eq!(executed.load(Ordering::Relaxed), n as u64, "every sibling runs");
            match lowest {
                None => {
                    let (out, _) = outcome.unwrap_or_else(|_| panic!("clean wave must not panic"));
                    assert_eq!(out, tasks);
                }
                Some(lo) => {
                    let payload = outcome.err().unwrap_or_else(|| panic!("poisoned wave must panic"));
                    let msg = payload
                        .downcast_ref::<String>()
                        .unwrap_or_else(|| panic!("assert! panics carry a String"));
                    assert!(msg.contains(&format!("poisoned task {lo}")), "{msg}");
                }
            }
        }
    });
    std::panic::set_hook(hook);
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

/// Heavy-first claiming runs a poisoned heavy task before a poisoned
/// light task with a lower ID; the commit still re-raises the lower ID,
/// the task a drain in task order would have panicked on first.
#[test]
fn lowest_poisoned_id_wins_over_an_earlier_claimed_heavy_task() {
    let tasks: Vec<u64> = (0..12).collect();
    for workers in [1, 3] {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_wave(&tasks, workers, |&t| t >= 9, |i, &t| {
                assert!(i != 2 && i != 10, "poisoned task {i}");
                t
            })
        }));
        let payload = outcome.err().unwrap_or_else(|| panic!("poisoned wave must panic"));
        let msg = payload
            .downcast_ref::<String>()
            .unwrap_or_else(|| panic!("assert! panics carry a String"));
        assert!(msg.contains("poisoned task 2"), "{workers} workers: {msg}");
    }
}

/// A worker that claims a slow task must not hold up the rest: the
/// other workers keep claiming from the cursor, and the wave still
/// completes every task.
#[test]
fn slow_task_does_not_strand_the_rest() {
    // Task 0 is heavy *and slow*: it is claimed first, and while it
    // sleeps the other workers drain everything else.
    let tasks: Vec<u64> = (0..32).collect();
    let (out, stats) = run_wave(
        &tasks,
        4,
        |&t| t < 8,
        |i, &t| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(40));
            }
            t + 1
        },
    );
    assert_eq!(out, (1..=32).collect::<Vec<_>>());
    assert_eq!(stats.claims(), 32);
    assert_eq!(stats.per_worker.iter().sum::<u64>(), 32);
}
