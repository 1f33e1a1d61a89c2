//! Dependency-free work-stealing scheduler for the run driver's task grid.
//!
//! [`crate::engine::RunSpec::run`] flattens every suite, sweep and sampled
//! run into a grid of independent tasks (lane part × trace) and drains it
//! through [`run_grid`]. Three strategies cover the grid shapes that occur
//! in practice:
//!
//! * **Inline** — one worker (or ≤ 1 task): no threads are spawned at all.
//! * **Shared index** — small grids (fewer than two tasks per worker):
//!   a single shared atomic cursor; every claim is one `fetch_add`, and
//!   load balance is perfect because there is no ownership to rebalance.
//! * **Work stealing** — larger grids: each worker starts with a
//!   contiguous range of task indices packed into one `AtomicU64`
//!   (`head << 32 | tail`). The owner pops from the head; an idle worker
//!   CASes the *back half* off a victim's range — the tasks the owner
//!   would reach last — and publishes the stolen range as its own. Ranges
//!   only ever split and shrink, and every index is claimed exactly once,
//!   so a packed value can never recur (no ABA) and an all-empty scan is a
//!   safe exit condition.
//!
//! Determinism: the scheduler decides only *where* a task runs, never what
//! it computes. Each task's result is written back to its own slot of the
//! output vector, so the returned `Vec` is in task order regardless of the
//! interleaving — callers get output bit-identical to a serial loop.
//!
//! [`run_tasks`] drains a grid the same way but reads no clock and returns
//! no counters, for callers whose output must not depend on host time.
//!
//! Contiguous initial ranges also give per-worker state (the engine's
//! lane arena) the best possible reuse locality: a
//! worker's consecutive tasks usually share a configuration, so lane
//! allocations reset in place instead of being rebuilt.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Resolve a user-facing thread count: `0` means "use every available
/// hardware thread", anything else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    }
}

/// Which drain strategy [`run_grid`] picked for a grid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Single worker, no threads spawned.
    #[default]
    Inline,
    /// Shared atomic-cursor queue (small grids).
    SharedIndex,
    /// Per-worker deques with back-half stealing.
    Stealing,
}

/// Per-worker counters from one grid drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Tasks this worker executed (its own plus any it stole).
    pub tasks: u64,
    /// Successful steals this worker performed.
    pub steals: u64,
    /// Nanoseconds spent inside task bodies (excludes idle spinning).
    pub busy_ns: u64,
}

/// Scheduler observability for one grid drain.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Strategy the grid was drained with.
    pub strategy: Strategy,
    /// Worker count actually used (after clamping to the task count).
    pub workers: usize,
    /// Total tasks in the grid.
    pub tasks: u64,
    /// Total successful steals across all workers.
    pub steals: u64,
    /// Wall-clock nanoseconds for the whole drain.
    pub wall_ns: u64,
    /// One entry per worker.
    pub per_worker: Vec<WorkerStats>,
}

impl SchedulerStats {
    /// Mean fraction of the drain's wall-clock each worker spent inside
    /// task bodies — 1.0 is a perfectly balanced, never-idle pool.
    pub fn utilization(&self) -> f64 {
        if self.workers == 0 || self.wall_ns == 0 {
            return 0.0;
        }
        let busy: u64 = self.per_worker.iter().map(|w| w.busy_ns).sum();
        // wall_ns covers thread spawn/join too, so this underestimates
        // slightly; it can still nudge past 1.0 from timer granularity.
        (busy as f64 / (self.wall_ns as f64 * self.workers as f64)).min(1.0)
    }

    /// Tasks per wall-clock second.
    pub fn tasks_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.tasks as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Grids are bounded so a task index always fits the 32-bit halves of a
/// packed range. Suite/sweep grids are orders of magnitude smaller.
const MAX_TASKS: u64 = (1 << 32) - 1;

fn to_u64(x: usize) -> u64 {
    // Infallible on every supported target (usize ≤ 64 bits); the
    // fallback is never reached once `run_grid` has validated the grid.
    u64::try_from(x).unwrap_or(MAX_TASKS)
}

fn to_index(x: u64) -> usize {
    usize::try_from(x).unwrap_or(usize::MAX)
}

fn to_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Pack a `head..tail` task-index range into one atomic word.
fn pack(head: u64, tail: u64) -> u64 {
    debug_assert!(head <= MAX_TASKS && tail <= MAX_TASKS && head <= tail);
    (head << 32) | tail
}

fn unpack(v: u64) -> (u64, u64) {
    (v >> 32, v & MAX_TASKS)
}

/// Owner/thief pop from the front of a packed range.
fn pop_front(range: &AtomicU64) -> Option<u64> {
    let mut v = range.load(Ordering::Acquire);
    loop {
        let (head, tail) = unpack(v);
        if head >= tail {
            return None;
        }
        match range.compare_exchange_weak(
            v,
            pack(head + 1, tail),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Some(head),
            Err(cur) => v = cur,
        }
    }
}

/// Steal the back half of `victim`'s range and publish it as `me`'s.
///
/// Only called when `me` is empty, so the plain `store` cannot race a
/// concurrent claim on `me` (thieves never CAS an empty range, and a CAS
/// armed with a stale non-empty value fails by value inequality — exact
/// range values never recur because every task index is claimed once).
fn try_steal(victim: &AtomicU64, me: &AtomicU64) -> bool {
    let mut v = victim.load(Ordering::Acquire);
    loop {
        let (head, tail) = unpack(v);
        let len = tail.saturating_sub(head);
        if len == 0 {
            return false;
        }
        // Ceil-half keeps a lone straggler task stealable, which is what
        // rebalances a heavily skewed grid (one 10× workload).
        let take = len.div_ceil(2);
        match victim.compare_exchange_weak(
            v,
            pack(head, tail - take),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => {
                me.store(pack(tail - take, tail), Ordering::Release);
                return true;
            }
            Err(cur) => v = cur,
        }
    }
}

/// Execute `tasks` independent tasks on `workers` OS threads and return
/// the results **in task order** plus scheduler counters.
///
/// `mk_ctx(worker)` builds one per-worker context (e.g. a lane arena) on
/// the worker's own thread; `run(&mut ctx, task)` executes one task. The
/// scheduler never splits or reorders a task's effects — output is
/// bit-identical to `(0..tasks).map(|t| run(&mut ctx, t))`.
///
/// # Panics
///
/// Panics if `tasks` exceeds the 32-bit grid bound, or propagates the
/// first worker panic.
pub fn run_grid<C, R, F, G>(
    tasks: usize,
    workers: usize,
    mk_ctx: F,
    run: G,
) -> (Vec<R>, SchedulerStats)
where
    R: Send,
    F: Fn(usize) -> C + Sync,
    G: Fn(&mut C, usize) -> R + Sync,
{
    let start = Instant::now();
    let timed = |ctx: &mut C, t: usize| {
        let t0 = Instant::now();
        let r = run(ctx, t);
        (r, to_nanos(t0.elapsed()))
    };
    let (strategy, mut per_worker) = drain(tasks, workers, &mk_ctx, &timed);
    for (results, stats) in &mut per_worker {
        stats.busy_ns = results.iter().map(|(_, (_, busy_ns))| busy_ns).sum();
    }
    let (timed_out, per_worker) = in_task_order(tasks, per_worker);
    let out = timed_out.into_iter().map(|(r, _)| r).collect();
    let sched = SchedulerStats {
        strategy,
        workers: per_worker.len(),
        tasks: to_u64(tasks),
        steals: per_worker.iter().map(|w| w.steals).sum(),
        wall_ns: to_nanos(start.elapsed()),
        per_worker,
    };
    (out, sched)
}

/// [`run_grid`] without its counters: the results in task order, and
/// no clock is read. Deterministic callers — an experiment's render —
/// parallelize through this, so host time cannot reach their output.
///
/// # Panics
///
/// Panics if `tasks` exceeds the 32-bit grid bound, or propagates the
/// first worker panic.
pub fn run_tasks<C, R, F, G>(tasks: usize, workers: usize, mk_ctx: F, run: G) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> C + Sync,
    G: Fn(&mut C, usize) -> R + Sync,
{
    let (_, per_worker) = drain(tasks, workers, &mk_ctx, &run);
    in_task_order(tasks, per_worker).0
}

/// Drain the grid with the strategy its shape calls for, returning each
/// worker's `(task, result)` pairs and its task and steal counts.
fn drain<C, R, F, G>(
    tasks: usize,
    workers: usize,
    mk_ctx: &F,
    run: &G,
) -> (Strategy, Vec<WorkerOut<R>>)
where
    R: Send,
    F: Fn(usize) -> C + Sync,
    G: Fn(&mut C, usize) -> R + Sync,
{
    assert!(
        to_u64(tasks) < MAX_TASKS,
        "task grid exceeds the 32-bit bound"
    );
    let workers = workers.max(1).min(tasks.max(1));
    if workers == 1 || tasks <= 1 {
        let mut ctx = mk_ctx(0);
        let results = (0..tasks).map(|t| (t, run(&mut ctx, t))).collect();
        let stats = WorkerStats {
            tasks: to_u64(tasks),
            ..WorkerStats::default()
        };
        (Strategy::Inline, vec![(results, stats)])
    } else if tasks < 2 * workers {
        (
            Strategy::SharedIndex,
            drain_shared(tasks, workers, mk_ctx, run),
        )
    } else {
        (
            Strategy::Stealing,
            drain_stealing(tasks, workers, mk_ctx, run),
        )
    }
}

/// Put every worker's results back in task order; returns them with the
/// per-worker counters.
fn in_task_order<R>(tasks: usize, per_worker: Vec<WorkerOut<R>>) -> (Vec<R>, Vec<WorkerStats>) {
    let mut slots: Vec<Option<R>> = Vec::with_capacity(tasks);
    slots.resize_with(tasks, || None);
    let mut worker_stats = Vec::with_capacity(per_worker.len());
    for (results, stats) in per_worker {
        for (i, r) in results {
            slots[i] = Some(r);
        }
        worker_stats.push(stats);
    }
    let out: Vec<R> = slots.into_iter().flatten().collect();
    assert_eq!(out.len(), tasks, "scheduler lost a task result");
    (out, worker_stats)
}

type WorkerOut<R> = (Vec<(usize, R)>, WorkerStats);

fn join_all<R>(handles: Vec<std::thread::ScopedJoinHandle<'_, WorkerOut<R>>>) -> Vec<WorkerOut<R>> {
    handles
        .into_iter()
        .map(|h| match h.join() {
            Ok(v) => v,
            Err(payload) => std::panic::resume_unwind(payload),
        })
        .collect()
}

/// Small grids: one shared atomic cursor, one `fetch_add` per claim.
fn drain_shared<C, R, F, G>(tasks: usize, workers: usize, mk_ctx: &F, run: &G) -> Vec<WorkerOut<R>>
where
    R: Send,
    F: Fn(usize) -> C + Sync,
    G: Fn(&mut C, usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                scope.spawn(move || {
                    let mut ctx = mk_ctx(w);
                    let mut results = Vec::new();
                    let mut stats = WorkerStats::default();
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= tasks {
                            break;
                        }
                        results.push((t, run(&mut ctx, t)));
                        stats.tasks += 1;
                    }
                    (results, stats)
                })
            })
            .collect();
        join_all(handles)
    })
}

/// Larger grids: per-worker packed ranges with back-half stealing.
fn drain_stealing<C, R, F, G>(
    tasks: usize,
    workers: usize,
    mk_ctx: &F,
    run: &G,
) -> Vec<WorkerOut<R>>
where
    R: Send,
    F: Fn(usize) -> C + Sync,
    G: Fn(&mut C, usize) -> R + Sync,
{
    // Contiguous initial ranges: worker w owns [w·T/n, (w+1)·T/n).
    let ranges: Vec<AtomicU64> = (0..workers)
        .map(|w| {
            let lo = to_u64(w * tasks / workers);
            let hi = to_u64((w + 1) * tasks / workers);
            AtomicU64::new(pack(lo, hi))
        })
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let ranges = &ranges;
                scope.spawn(move || {
                    let n = ranges.len();
                    let mut ctx = mk_ctx(w);
                    let mut results = Vec::new();
                    let mut stats = WorkerStats::default();
                    'drain: loop {
                        while let Some(t) = pop_front(&ranges[w]) {
                            let i = to_index(t);
                            results.push((i, run(&mut ctx, i)));
                            stats.tasks += 1;
                        }
                        for off in 1..n {
                            let victim = (w + off) % n;
                            if try_steal(&ranges[victim], &ranges[w]) {
                                stats.steals += 1;
                                continue 'drain;
                            }
                        }
                        // Every range observed empty ⇒ all indices are
                        // claimed (ranges only shrink). A steal still in
                        // its publish window only makes *this* worker
                        // exit early; the thief owns those tasks.
                        if ranges.iter().all(|r| {
                            let (h, t) = unpack(r.load(Ordering::Acquire));
                            h >= t
                        }) {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    (results, stats)
                })
            })
            .collect();
        join_all(handles)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestAtomic;

    fn grid_squares(tasks: usize, workers: usize) -> (Vec<usize>, SchedulerStats) {
        run_grid(tasks, workers, |_| (), |(), t| t * t)
    }

    #[test]
    fn inline_small_and_stealing_agree() {
        let (serial, s1) = grid_squares(37, 1);
        assert_eq!(s1.strategy, Strategy::Inline);
        let (shared, s2) = grid_squares(5, 4);
        assert_eq!(s2.strategy, Strategy::SharedIndex);
        assert_eq!(shared, (0..5).map(|t| t * t).collect::<Vec<_>>());
        let (stolen, s3) = grid_squares(37, 4);
        assert_eq!(s3.strategy, Strategy::Stealing);
        assert_eq!(serial, stolen);
        assert_eq!(serial, (0..37).map(|t| t * t).collect::<Vec<_>>());
    }

    #[test]
    fn run_tasks_matches_run_grid_results() {
        for workers in 1..=4 {
            for tasks in [0, 1, 3, 9, 40] {
                let plain = run_tasks(tasks, workers, |_| (), |(), t| t * t);
                assert_eq!(plain, grid_squares(tasks, workers).0);
            }
        }
    }

    #[test]
    fn results_in_task_order_for_every_worker_count() {
        for workers in 1..=8 {
            for tasks in [0, 1, 2, 3, 7, 16, 33] {
                let (out, stats) = grid_squares(tasks, workers);
                assert_eq!(out, (0..tasks).map(|t| t * t).collect::<Vec<_>>());
                assert_eq!(stats.tasks, to_u64(tasks));
                let executed: u64 = stats.per_worker.iter().map(|w| w.tasks).sum();
                assert_eq!(executed, to_u64(tasks), "every task runs exactly once");
            }
        }
    }

    #[test]
    fn skewed_grid_gets_stolen() {
        // Task 0 is ~10× the rest: the owner of the front range gets
        // stuck on it and the others must steal to stay busy.
        let slow = TestAtomic::new(0);
        let (out, stats) = run_grid(
            64,
            4,
            |_| (),
            |(), t| {
                let spins = if t == 0 { 200_000u64 } else { 20_000 };
                let mut acc = 0u64;
                for i in 0..spins {
                    acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                }
                // Sink `acc` so the spin loop cannot be optimized away.
                slow.fetch_add(acc | 1, Ordering::Relaxed);
                to_u64(t)
            },
        );
        assert_eq!(out, (0..64u64).collect::<Vec<_>>());
        assert_eq!(stats.strategy, Strategy::Stealing);
        assert_eq!(stats.per_worker.len(), 4);
    }

    #[test]
    fn per_worker_contexts_are_private() {
        // Each context counts its own tasks; totals must add up even
        // though no locking protects the contexts.
        let (out, stats) = run_grid(
            40,
            3,
            |w| (w, 0usize),
            |ctx, t| {
                ctx.1 += 1;
                (ctx.0, t)
            },
        );
        assert_eq!(out.len(), 40);
        for (i, (_, t)) in out.iter().enumerate() {
            assert_eq!(*t, i);
        }
        assert_eq!(stats.per_worker.iter().map(|w| w.tasks).sum::<u64>(), 40);
    }

    #[test]
    fn utilization_and_rate_are_sane() {
        let (_, stats) = run_grid(
            16,
            2,
            |_| (),
            |(), t| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                t
            },
        );
        assert!(stats.wall_ns > 0);
        assert!(stats.utilization() > 0.0);
        assert!(stats.utilization() <= 1.0);
        assert!(stats.tasks_per_sec() > 0.0);
    }

    #[test]
    fn workers_clamped_to_tasks() {
        let (out, stats) = grid_squares(3, 64);
        assert_eq!(out.len(), 3);
        assert!(stats.workers <= 3);
    }

    #[test]
    fn zero_defaults_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn pack_roundtrip_and_steal_protocol() {
        let r = TestAtomic::new(pack(3, 11));
        assert_eq!(unpack(r.load(Ordering::Relaxed)), (3, 11));
        assert_eq!(pop_front(&r), Some(3));
        let me = TestAtomic::new(pack(0, 0));
        assert!(try_steal(&r, &me));
        // Victim kept its front, the thief published the back half.
        let (vh, vt) = unpack(r.load(Ordering::Relaxed));
        let (mh, mt) = unpack(me.load(Ordering::Relaxed));
        assert_eq!((vh, mt), (4, 11));
        assert_eq!(vt, mh);
        // Stealing drains down to single tasks — nothing is stranded.
        while try_steal(&r, &me) || pop_front(&me).is_some() || pop_front(&r).is_some() {}
        assert_eq!(
            unpack(r.load(Ordering::Relaxed)).0,
            unpack(r.load(Ordering::Relaxed)).1
        );
    }

    #[test]
    #[should_panic(expected = "32-bit bound")]
    fn oversized_grid_panics() {
        let _ = run_grid(usize::MAX, 2, |_| (), |(), t| t);
    }
}
