//! Shared-cursor wave executor with a deterministic commit.
//!
//! This is the execution substrate under [`crate::exec`]'s item drain,
//! which both the in-memory run and the checkpointed study runner
//! ([`crate::checkpoint`]) go through. Its whole job is
//! to hand out independent tasks and commit their results in task
//! order:
//!
//! * [`claim_order`] fixes one claim order per wave — the heavy tasks
//!   (long poles) in task order, then the rest in task order;
//! * [`run_wave`] drains that order with one claim rule: every worker
//!   takes the next position with a single `fetch_add` on a shared
//!   cursor. The calling thread is worker 0 and `w − 1` scoped threads
//!   join it, so one worker spawns nothing and runs the same loop;
//! * workers buffer `(task_id, result)` pairs locally, and the commit
//!   scatters them into task-ID order after the wave drains, so every
//!   reduction downstream (and every golden, and every checkpoint
//!   payload) sees the same bytes at any worker count.
//!
//! A panicking task does not hang or poison the wave: the worker
//! catches it, the wave drains every sibling, and the commit step
//! re-raises the panic of the **lowest** poisoned task ID — the same
//! task a sequential drain would have panicked on first.

// Workers share nothing but the claim cursor and commit in task-ID
// order; any other lock, atomic or cell here is a new coordination
// channel (the banned types are listed in clippy.toml).
#![deny(clippy::disallowed_types)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

/// Process-wide worker count, settable from the CLI (`--threads N`).
/// 0 means "not configured": fall back to the machine's available
/// parallelism.
#[expect(
    clippy::disallowed_types,
    reason = "the worker-count knob: written once at CLI parse time, read at wave start; never touches results"
)]
static WORKERS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Set the process-wide worker count (`0` resets to auto-detection).
pub fn set_workers(n: usize) {
    WORKERS.store(n, Ordering::Relaxed);
}

/// The effective worker count for the next wave: the explicitly
/// configured value, else available parallelism.
pub fn workers() -> usize {
    match WORKERS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Scheduling counters of one wave. These describe *how* the wave ran
/// (`per_worker` varies with worker count and timing); the results
/// themselves never do.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Workers the wave ran with.
    pub workers: usize,
    /// Claims of heavy tasks (the head of the claim order).
    pub local_claims: u64,
    /// Claims of every other task (the tail of the claim order).
    pub injector_claims: u64,
    /// Always 0: the shared cursor never steals. Kept so readers of the
    /// old work-stealing counters still compile.
    pub steals: u64,
    /// Always 0, like `steals`.
    pub failed_probes: u64,
    /// Tasks executed per worker (occupancy; sums to the task count).
    pub per_worker: Vec<u64>,
}

impl WaveStats {
    /// Total tasks claimed (= executed, once the wave drains).
    pub fn claims(&self) -> u64 {
        self.local_claims + self.injector_claims
    }
}

/// The claim order of one wave: the IDs of heavy tasks in task order,
/// then every other ID in task order. Starting the long poles first
/// keeps one from trailing the wave.
pub fn claim_order(heavy: &[bool]) -> Vec<usize> {
    let (mut order, rest): (Vec<usize>, Vec<usize>) = (0..heavy.len()).partition(|&id| heavy[id]);
    order.extend(rest);
    order
}

type TaskPanic = Box<dyn std::any::Any + Send + 'static>;

/// Drain `tasks` over `workers` threads and commit the results in
/// task-ID order: `out[i] == run(i, &tasks[i])`, bit-identical at any
/// worker count.
///
/// `is_heavy` marks long-pole tasks; they are claimed first (see
/// [`claim_order`]). The worker count is clamped to the task count,
/// and the calling thread is always worker 0.
///
/// # Panics
/// If a task panics, every sibling still runs to completion, and the
/// panic of the lowest poisoned task ID is re-raised at commit time —
/// the same task a sequential drain panics on, so error surfacing is
/// deterministic too.
pub fn run_wave<T, R, F, H>(tasks: &[T], workers: usize, is_heavy: H, run: F) -> (Vec<R>, WaveStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    H: Fn(&T) -> bool,
{
    let n = tasks.len();
    let w = workers.max(1).min(n.max(1));
    let heavy: Vec<bool> = tasks.iter().map(is_heavy).collect();
    let order = claim_order(&heavy);
    #[expect(
        clippy::disallowed_types,
        reason = "the sanctioned claim path: one cursor over the claim order; results never pass through it"
    )]
    let cursor = std::sync::atomic::AtomicUsize::new(0);

    // One worker's loop: claim the next position, run the task unlocked
    // (a panic is a value here so siblings keep draining), buffer the
    // result locally. `Relaxed` suffices: the cursor publishes no data
    // (`tasks` and `order` are fixed before any worker starts, and
    // results come back through `join`).
    let drain = || {
        let mut local: Vec<(usize, Result<R, TaskPanic>)> = Vec::new();
        while let Some(&id) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            local.push((id, catch_unwind(AssertUnwindSafe(|| run(id, &tasks[id])))));
        }
        local
    };
    // `drain` captures only shared references, so it is `Copy`: each
    // scoped worker gets its own copy of the same loop.
    let buckets: Vec<Vec<(usize, Result<R, TaskPanic>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..w).map(|_| scope.spawn(drain)).collect();
        let mut buckets = vec![drain()];
        // Only an executor bug panics outside a task; don't swallow it.
        buckets.extend(handles.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))));
        buckets
    });

    let heavy_count = heavy.iter().filter(|&&h| h).count() as u64;
    let stats = WaveStats {
        workers: w,
        local_claims: heavy_count,
        injector_claims: n as u64 - heavy_count,
        per_worker: buckets.iter().map(|b| b.len() as u64).collect(),
        ..WaveStats::default()
    };

    // Deterministic commit: scatter the buckets into task-ID order,
    // then surface the lowest poisoned task (if any) before unwrapping.
    let mut slots: Vec<Option<Result<R, TaskPanic>>> = (0..n).map(|_| None).collect();
    for (id, out) in buckets.into_iter().flatten() {
        debug_assert!(slots[id].is_none(), "task {id} committed twice");
        slots[id] = Some(out);
    }
    for slot in slots.iter_mut() {
        if matches!(slot, Some(Err(_))) {
            if let Some(Err(payload)) = slot.take() {
                resume_unwind(payload);
            }
        }
    }
    let out: Vec<R> = slots
        .into_iter()
        .enumerate()
        .map(|(id, slot)| match slot {
            Some(Ok(r)) => r,
            _ => panic!("task {id} was never committed"),
        })
        .collect();
    (out, stats)
}

#[cfg(test)]
// The tests observe the drain through their own shared counters.
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_types)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn one_worker_runs_the_claim_order_on_the_calling_thread() {
        let tasks: Vec<u64> = (0..10).collect();
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let (out, stats) = run_wave(&tasks, 1, |&t| t % 4 == 3, |i, &t| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
            t * 2
        });
        assert_eq!(out, (0..10).map(|t| t * 2).collect::<Vec<_>>());
        assert_eq!(*order.lock().unwrap(), [3, 7, 0, 1, 2, 4, 5, 6, 8, 9]);
        assert_eq!(stats.workers, 1);
        assert_eq!((stats.local_claims, stats.injector_claims), (2, 8));
        assert_eq!(stats.per_worker, [10]);
    }

    #[test]
    fn threaded_wave_commits_in_task_id_order() {
        let tasks: Vec<u64> = (0..97).collect();
        for w in [2, 3, 8] {
            let (out, stats) =
                run_wave(&tasks, w, |&t| t % 7 == 0, |i, &t| (i as u64) * 1000 + t);
            assert_eq!(out, (0..97).map(|t| t * 1000 + t).collect::<Vec<_>>());
            assert_eq!(stats.workers, w);
            assert_eq!(stats.claims(), 97);
            assert_eq!((stats.steals, stats.failed_probes), (0, 0));
            assert_eq!(stats.per_worker.iter().sum::<u64>(), 97);
        }
    }

    #[test]
    fn stats_split_heavy_and_other_claims_at_any_worker_count() {
        let tasks: Vec<u64> = (0..40).collect();
        for w in [1, 2, 5] {
            let (_, stats) = run_wave(&tasks, w, |&t| t % 5 == 0, |_, &t| t);
            assert_eq!((stats.local_claims, stats.injector_claims), (8, 32));
            assert_eq!((stats.steals, stats.failed_probes), (0, 0));
            assert_eq!(stats.per_worker.len(), w);
        }
    }

    #[test]
    fn empty_and_single_task_waves_work() {
        let (out, _) = run_wave(&[] as &[u64], 8, |_| false, |_, &t| t);
        assert!(out.is_empty());
        let (out, stats) = run_wave(&[41u64], 8, |_| true, |_, &t| t + 1);
        assert_eq!(out, [42]);
        // One task clamps to one worker: no thread spawn.
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn more_workers_than_tasks_is_clamped() {
        let tasks: Vec<u64> = (0..3).collect();
        let (out, stats) = run_wave(&tasks, 64, |_| false, |_, &t| t);
        assert_eq!(out, [0, 1, 2]);
        assert_eq!(stats.workers, 3);
    }

    #[test]
    fn panicking_task_surfaces_lowest_id_after_all_siblings_ran() {
        for workers in [1, 4] {
            let executed = AtomicU64::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                run_wave(
                    &(0..20).collect::<Vec<u64>>(),
                    workers,
                    |_| false,
                    |i, _| {
                        executed.fetch_add(1, Ordering::Relaxed);
                        assert!(i != 7 && i != 13, "poisoned task {i}");
                        i
                    },
                )
            }));
            let payload = caught.expect_err("wave must re-raise the task panic");
            let msg = payload
                .downcast_ref::<String>()
                .expect("assert! panics carry a String");
            // Lowest poisoned ID wins, deterministically.
            assert!(msg.contains("poisoned task 7"), "{msg}");
            // ... and no sibling was dropped on the floor.
            assert_eq!(executed.load(Ordering::Relaxed), 20);
        }
    }

    #[test]
    fn claim_order_puts_heavy_ids_first_each_in_task_order() {
        assert!(claim_order(&[]).is_empty());
        assert_eq!(claim_order(&[false, false, false]), [0, 1, 2]);
        assert_eq!(claim_order(&[true, true, true]), [0, 1, 2]);
        assert_eq!(claim_order(&[false, true, false, true, true]), [1, 3, 4, 0, 2]);
    }

    #[test]
    fn every_task_runs_exactly_once_with_its_own_id() {
        let tasks: Vec<u64> = (0..64).map(|t| t * 3 + 1).collect();
        let runs: Vec<AtomicU64> = (0..tasks.len()).map(|_| AtomicU64::new(0)).collect();
        let (out, _) = run_wave(&tasks, 4, |&t| t % 5 == 0, |i, &t| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            assert_eq!(t, tasks[i], "task {i} handed the wrong payload");
            t
        });
        assert_eq!(out, tasks);
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn set_workers_overrides_and_resets() {
        // Not asserting the ambient default (other tests may set it):
        // only that an explicit value round-trips and 0 resets.
        set_workers(5);
        assert_eq!(workers(), 5);
        set_workers(0);
        assert!(workers() >= 1);
    }
}
