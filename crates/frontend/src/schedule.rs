//! Dependency-free scheduler for the run driver's task grid.
//!
//! [`crate::engine::RunSpec::run`] flattens every suite, sweep and sampled
//! run into a grid of independent tasks (lane part × trace) and drains it
//! through [`run_grid`]. Two strategies cover every grid:
//!
//! * **Inline** — one worker (or ≤ 1 task): no threads are spawned at all.
//! * **Shared index** — two or more workers: one shared atomic cursor;
//!   every claim is one `fetch_add(Relaxed)`. Load balance is as good as
//!   a task's length allows, because there is no ownership to rebalance:
//!   a worker held by one long task simply claims nothing more while the
//!   others drain the rest. The `Relaxed` ordering suffices because each
//!   index is claimed exactly once and results travel back through the
//!   worker's join, which synchronizes.
//!
//! There is no work stealing: at the grid sizes the experiments run
//! (4–64 tasks on 2 workers) it measured no resolvable gain over the
//! shared cursor (DESIGN §10).
//!
//! Determinism: the scheduler decides only *where* a task runs, never what
//! it computes. Each task's result is written back to its own slot of the
//! output vector, so the returned `Vec` is in task order regardless of the
//! interleaving — callers get output bit-identical to a serial loop.
//!
//! [`run_tasks`] drains a grid the same way but reads no clock and returns
//! no counters, for callers whose output must not depend on host time.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// Shared atomic-cursor queue.
    SharedIndex,
}

/// Per-worker counters from one grid drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub tasks: u64,
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
    /// Always 0: the scheduler no longer steals. Kept so reports that
    /// read it stay stable.
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

fn to_u64(x: usize) -> u64 {
    // Infallible on every supported target (usize ≤ 64 bits).
    u64::try_from(x).unwrap_or(u64::MAX)
}

fn to_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
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
/// Propagates the first worker panic.
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
        steals: 0,
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
/// Propagates the first worker panic.
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
/// worker's `(task, result)` pairs and its task count.
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
    let workers = workers.max(1).min(tasks.max(1));
    if workers == 1 || tasks <= 1 {
        let mut ctx = mk_ctx(0);
        let results = (0..tasks).map(|t| (t, run(&mut ctx, t))).collect();
        let stats = WorkerStats {
            tasks: to_u64(tasks),
            ..WorkerStats::default()
        };
        (Strategy::Inline, vec![(results, stats)])
    } else {
        (
            Strategy::SharedIndex,
            drain_shared(tasks, workers, mk_ctx, run),
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

/// Two or more workers: one shared atomic cursor, one `fetch_add` per
/// claim.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_squares(tasks: usize, workers: usize) -> (Vec<usize>, SchedulerStats) {
        run_grid(tasks, workers, |_| (), |(), t| t * t)
    }

    #[test]
    fn inline_and_shared_cursor_agree() {
        let (serial, s1) = grid_squares(37, 1);
        assert_eq!(s1.strategy, Strategy::Inline);
        for workers in [2, 4] {
            let (shared, s2) = grid_squares(37, workers);
            assert_eq!(s2.strategy, Strategy::SharedIndex);
            assert_eq!(s2.steals, 0);
            assert_eq!(serial, shared);
        }
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
    fn one_long_task_does_not_stall_the_other_workers() {
        // Task 0 holds its worker until every other task has finished (or
        // a generous deadline passes): the other workers must drain the
        // whole rest of the grid meanwhile.
        let tasks = 64;
        let done = AtomicUsize::new(0);
        let (out, stats) = run_grid(
            tasks,
            4,
            |_| (),
            |(), t| {
                if t > 0 {
                    done.fetch_add(1, Ordering::Relaxed);
                    return t;
                }
                let deadline = Instant::now() + Duration::from_secs(30);
                while done.load(Ordering::Relaxed) < tasks - 1 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_micros(100));
                }
                done.load(Ordering::Relaxed)
            },
        );
        assert_eq!(out[0], tasks - 1, "the other tasks waited on task 0");
        assert_eq!(out[1..], (1..tasks).collect::<Vec<_>>());
        // The worker that claimed task 0 first found the grid drained.
        assert!(stats.per_worker.iter().any(|w| w.tasks == 1), "{stats:?}");
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
}
