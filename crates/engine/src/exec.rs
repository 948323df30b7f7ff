//! Persistent scatter-gather execution pool (in-process MPP).
//!
//! The paper's evaluation leans on parallel execution (Sec. 6.3 benchmarks
//! against Greenplum precisely because MPP is what makes interactive
//! investigation possible at scale). This module is the engine's half of
//! that story: a **process-wide pool** of worker threads fed by a task
//! queue, plus a scoped `scatter` primitive the pattern executor uses to
//! fan one pattern's partition scans out across workers and gather the
//! borrowed-row results.
//!
//! Why a persistent pool instead of the old per-query
//! `std::thread::scope` spawn: thread creation is microseconds-to-
//! milliseconds of latency charged to *every* parallel query, and scoped
//! threads give no global admission control — two concurrent 8-way
//! queries would spawn 16 threads on a 4-core box. The pool amortizes
//! spawn cost across the process lifetime and caps total execution
//! threads at [`MAX_WORKERS`].
//!
//! # Scatter contract
//!
//! `scatter` runs `tasks` with up to `width` threads (the coordinator
//! participates, so `width - 1` pool workers are enlisted) and returns
//! every task's result **in task order**. Threads claim tasks from one
//! counter, in task order, each taking the next as soon as it is free: a
//! caller that orders its tasks largest first — the pattern executor, one
//! task per admitted partition — gets largest-first list scheduling
//! (Graham, "Bounds on Multiprocessing Timing Anomalies", 1969): no
//! thread is idle while a task is unstarted. Guarantees:
//!
//! - **Scoped borrows.** Tasks may borrow from the caller's stack:
//!   `scatter` does not return until every task has run, so the borrows
//!   outlive every access. (Internally the closures are lifetime-erased
//!   onto the 'static pool queue; the blocking gather is what makes that
//!   sound — see the safety comment in `scatter`.)
//! - **Panic isolation.** A panicking task does not abort the process and
//!   does not kill the pool worker running it: the panic is caught,
//!   sibling tasks still run to completion, and the panic payload comes
//!   back as [`EngineError::Worker`].
//! - **No deadlock under load.** The coordinator drains the same task
//!   list the pool workers do, so a scatter makes progress even when
//!   every pool worker is busy with other queries' tasks — including the
//!   nested case of a scatter issued from a pool worker.

use crate::error::EngineError;
use crate::metrics::metrics;
use aiql_rdb::PartKey;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on pool worker threads (the coordinator thread is extra).
pub const MAX_WORKERS: usize = 16;

/// Resolves a configured scan width once, at session open: `0` is the
/// machine's parallelism, anything else is taken as given; both capped at
/// [`MAX_WORKERS`] (coordinator included). Width 1 is the sequential scan.
pub(crate) fn resolve_width(workers: usize) -> usize {
    let w = match workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        w => w,
    };
    w.clamp(1, MAX_WORKERS)
}

/// How one scattered scan actually executed — the engine-level complement
/// of `aiql_rdb::ScanProfile`, surfaced per scan record by `EXPLAIN`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScatterProfile {
    /// Threads the scan ran on, coordinator included: the session's width,
    /// capped at the admitted partitions. 1 when pruning left at most one
    /// partition, which runs inline without touching the pool; a width-1
    /// session takes the sequential scan and carries no profile.
    pub workers: u32,
    /// The admitted partitions in dispatch order — largest estimate first,
    /// so stragglers start earliest — each with the rows it matched.
    pub dispatch: Vec<(PartKey, u64)>,
    /// Worst task wait between scatter submission and a thread picking
    /// the task up, in microseconds (0 when the scan ran inline).
    pub queue_wait_micros: u64,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    workers: usize,
}

/// The process-wide execution pool. One instance per process ([`pool`]);
/// workers are spawned lazily up to the first scatter's width and live for
/// the process lifetime.
pub struct ExecPool {
    state: Mutex<PoolState>,
    available: Condvar,
}

/// The process-wide pool instance.
pub fn pool() -> &'static ExecPool {
    static POOL: OnceLock<ExecPool> = OnceLock::new();
    POOL.get_or_init(|| ExecPool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            workers: 0,
        }),
        available: Condvar::new(),
    })
}

impl ExecPool {
    /// Number of worker threads currently alive.
    pub fn worker_count(&self) -> usize {
        self.state.lock().unwrap().workers
    }

    /// Grows the pool to at least `want` workers (capped at
    /// [`MAX_WORKERS`]); never shrinks.
    fn ensure_workers(&self, want: usize) {
        let want = want.clamp(1, MAX_WORKERS);
        let mut st = self.state.lock().unwrap();
        while st.workers < want {
            st.workers += 1;
            let id = st.workers;
            std::thread::Builder::new()
                .name(format!("aiql-exec-{id}"))
                .spawn(|| pool().worker_loop())
                .expect("spawn execution pool worker");
        }
        metrics().pool_workers.set(st.workers as i64);
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut st = self.state.lock().unwrap();
                loop {
                    if let Some(j) = st.queue.pop_front() {
                        break j;
                    }
                    st = self.available.wait(st).unwrap();
                }
            };
            job();
        }
    }

    fn submit(&self, job: Job) {
        self.state.lock().unwrap().queue.push_back(job);
        self.available.notify_one();
    }
}

/// The claiming state one scatter shares between the coordinator and its
/// pool runners. Held in an `Arc` so a runner that fires *after* the
/// scatter completed (its work already claimed by faster threads) still
/// has valid memory to observe the exhausted counter in.
struct ScatterShared {
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Tasks not yet completed; the thread that drops this to 0 wakes the
    /// coordinator and must touch the shared state no further.
    remaining: AtomicUsize,
    done: Mutex<bool>,
    cv: Condvar,
    /// Worst observed submission→start wait, µs.
    max_wait_micros: AtomicU64,
    started: Instant,
    /// The lifetime-erased tasks. Every slot is claimed exactly once (the
    /// `next` counter), so by completion every `Option` is `None` and a
    /// late runner dropping the `Arc` frees no borrowed data.
    slots: Vec<Mutex<Option<Job>>>,
}

impl ScatterShared {
    /// Claims and runs tasks until the counter is exhausted or this call
    /// completes the scatter. Runs on pool workers and the coordinator.
    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::AcqRel);
            if i >= self.slots.len() {
                return;
            }
            let wait = self.started.elapsed().as_micros() as u64;
            self.max_wait_micros.fetch_max(wait, Ordering::Relaxed);
            metrics().pool_queue_wait_micros.record(wait);
            if let Some(task) = self.slots[i].lock().unwrap().take() {
                task();
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last task done: set the flag under the lock, wake the
                // coordinator, and exit without touching shared state
                // again — the coordinator may free its borrows (and drop
                // its Arc) as soon as it reacquires the mutex.
                *self.done.lock().unwrap() = true;
                self.cv.notify_all();
                return;
            }
        }
    }
}

/// Result of one scatter.
#[derive(Debug)]
pub(crate) struct ScatterRun<T> {
    /// Per-task results, in task order.
    pub results: Vec<T>,
    /// Worst task wait between submission and start, µs.
    pub queue_wait_micros: u64,
}

/// Runs `tasks` with up to `width` threads (coordinator included) and
/// returns their results in task order. See the module docs for the
/// scoped-borrow, panic, and progress guarantees.
pub(crate) fn scatter<'env, T, F>(tasks: Vec<F>, width: usize) -> Result<ScatterRun<T>, EngineError>
where
    F: FnOnce() -> T + Send + 'env,
    T: Send + 'env,
{
    let n = tasks.len();
    let mut results: Vec<Mutex<Option<std::thread::Result<T>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    // Single-task / sequential fast path: no pool round-trip.
    if width <= 1 || n <= 1 {
        for (i, f) in tasks.into_iter().enumerate() {
            let r = catch_unwind(AssertUnwindSafe(f));
            *results[i].lock().unwrap() = Some(r);
        }
        return gather(results, 0);
    }

    metrics().pool_tasks.add(n as u64);
    let slots: Vec<Mutex<Option<Job>>> = tasks
        .into_iter()
        .zip(results.iter_mut())
        .map(|(f, slot)| {
            // One task: run the caller's closure panic-caught and park the
            // outcome in its result slot.
            let slot: &Mutex<Option<std::thread::Result<T>>> = slot;
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let r = catch_unwind(AssertUnwindSafe(f));
                *slot.lock().unwrap() = Some(r);
            });
            // SAFETY: the closure borrows `results` (and whatever `f`
            // captured from the caller's stack) for 'env, not 'static. The
            // erasure is sound because every access to those borrows
            // happens before the scatter returns: the coordinator blocks
            // on `done` until `remaining` hits 0, which requires every
            // slot to have been claimed and executed. A pool runner that
            // wakes later observes only the exhausted `next` counter and
            // empty slots inside the `Arc` it co-owns — never the erased
            // borrows.
            let job: Job = unsafe { std::mem::transmute(job) };
            Mutex::new(Some(job))
        })
        .collect();

    let shared = Arc::new(ScatterShared {
        next: AtomicUsize::new(0),
        remaining: AtomicUsize::new(n),
        done: Mutex::new(false),
        cv: Condvar::new(),
        max_wait_micros: AtomicU64::new(0),
        started: Instant::now(),
        slots,
    });

    let p = pool();
    let runners = (width - 1).min(n - 1);
    p.ensure_workers(runners);
    for _ in 0..runners {
        let s = Arc::clone(&shared);
        p.submit(Box::new(move || s.drain()));
    }
    // The coordinator is the `width`th thread: it drains the same task
    // list, so the scatter progresses even if no pool worker is free.
    shared.drain();
    let mut done = shared.done.lock().unwrap();
    while !*done {
        done = shared.cv.wait(done).unwrap();
    }
    drop(done);
    let wait = shared.max_wait_micros.load(Ordering::Relaxed);
    drop(shared);
    gather(results, wait)
}

fn gather<T>(
    results: Vec<Mutex<Option<std::thread::Result<T>>>>,
    queue_wait_micros: u64,
) -> Result<ScatterRun<T>, EngineError> {
    let mut out = Vec::with_capacity(results.len());
    for slot in results {
        match slot.into_inner().unwrap() {
            Some(Ok(v)) => out.push(v),
            Some(Err(payload)) => return Err(EngineError::Worker(panic_message(&*payload))),
            None => return Err(EngineError::Worker("task was never executed".into())),
        }
    }
    Ok(ScatterRun {
        results: out,
        queue_wait_micros,
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_preserves_task_order() {
        for width in [1, 2, 4, 8] {
            let data: Vec<u64> = (0..40).collect();
            let tasks: Vec<_> = data.iter().map(|&x| move || x * 2).collect();
            let run = scatter(tasks, width).unwrap();
            assert_eq!(run.results, (0..40).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn scatter_borrows_from_caller_stack() {
        let rows: Vec<String> = (0..16).map(|i| format!("row{i}")).collect();
        let tasks: Vec<_> = rows
            .chunks(4)
            .map(|chunk| move || chunk.iter().map(|s| s.len()).sum::<usize>())
            .collect();
        let run = scatter(tasks, 4).unwrap();
        assert_eq!(
            run.results.iter().sum::<usize>(),
            rows.iter().map(|s| s.len()).sum()
        );
    }

    #[test]
    fn worker_panic_surfaces_as_engine_error_not_abort() {
        for width in [1, 4] {
            let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0u32..8)
                .map(|i| {
                    Box::new(move || {
                        if i == 5 {
                            panic!("task {i} exploded");
                        }
                        i
                    }) as Box<dyn FnOnce() -> u32 + Send>
                })
                .collect();
            let err = scatter(tasks, width).unwrap_err();
            match err {
                EngineError::Worker(msg) => assert!(msg.contains("task 5 exploded"), "{msg}"),
                other => panic!("expected Worker error, got {other:?}"),
            }
        }
        // The pool survives: a follow-up scatter still works.
        let ok = scatter((0..4).map(|i| move || i).collect::<Vec<_>>(), 4).unwrap();
        assert_eq!(ok.results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn nested_scatter_cannot_deadlock() {
        // Outer tasks each scatter again; coordinator participation means
        // this completes even when the pool is saturated.
        let tasks: Vec<_> = (0..4)
            .map(|i| {
                move || {
                    let inner: Vec<_> = (0..4).map(|j| move || i * 10 + j).collect();
                    scatter(inner, 4).unwrap().results.iter().sum::<i32>()
                }
            })
            .collect();
        let run = scatter(tasks, 4).unwrap();
        assert_eq!(run.results.len(), 4);
    }

    #[test]
    fn pool_is_bounded_and_persistent() {
        let _ = scatter((0..32).map(|i| move || i).collect::<Vec<_>>(), 64);
        assert!(pool().worker_count() <= MAX_WORKERS);
    }
}
