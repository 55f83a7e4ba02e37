//! # autograph-par
//!
//! A process-wide persistent worker pool for intra-op parallelism:
//! tensor kernels split row/element ranges over it with
//! [`parallel_for`]. Graph execution itself stays on the calling thread;
//! the pool never sees whole graph nodes.
//!
//! ## Design
//!
//! * **One global injector queue.** The helper tasks of every concurrent
//!   `parallel_for` — from any session, nested or not — share a single
//!   FIFO. Workers are spawned once ([`configure`]) and park on a
//!   condvar when idle.
//! * **Helping, not blocking.** A `parallel_for` caller waiting for its
//!   chunks pops and executes queued tasks — any job's tasks — instead
//!   of sleeping. This is what makes nested fork-join deadlock-free:
//!   whenever a job is incomplete, its remaining work is either queued
//!   (any helper can pick it up) or already executing on some thread, so
//!   global progress is guaranteed even when every worker is itself
//!   waiting on a nested job.
//! * **Determinism-friendly.** A [`parallel_for`] chunk is computed by
//!   exactly one thread with the same per-element order as the
//!   sequential loop, so results are bitwise identical to a
//!   single-threaded run.
//!
//! Observability: every task execution opens a `par/task` span (visible
//! as per-worker lanes in Chrome traces via `autograph-obs`), and each
//! injection records the queue depth to the `par/queue_depth`
//! distribution. With no recorder installed each is one relaxed load.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use autograph_faults as faults;
use autograph_obs as obs;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A unit of work: an erased function pointer applied to an erased state
/// pointer.
///
/// `Task` is deliberately not a boxed closure: a `parallel_for` job
/// borrows stack-local state and erases the lifetime when injecting; the
/// soundness contract is documented on [`inject`].
struct Task {
    /// Erased pointer to the job state shared by a batch of tasks.
    data: *const (),
    /// Entry point: called exactly once as `run(data)`.
    run: unsafe fn(*const ()),
}

// SAFETY: a Task is only a (pointer, fn) pair; the pointee is required by
// the `inject` contract to be shareable across threads until the task has
// executed.
unsafe impl Send for Task {}

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    cv: Condvar,
    /// Worker threads spawned so far (workers never exit).
    spawned: Mutex<usize>,
    /// Thread budget: the largest `configure(n)` seen, including the
    /// caller thread. Kernels consult this to decide whether splitting
    /// work pays.
    budget: AtomicUsize,
}

fn shared() -> &'static Shared {
    static S: OnceLock<Shared> = OnceLock::new();
    S.get_or_init(|| Shared {
        queue: Mutex::new(VecDeque::new()),
        cv: Condvar::new(),
        spawned: Mutex::new(0),
        budget: AtomicUsize::new(1),
    })
}

/// Lock a pool mutex, shrugging off poisoning: pool state is only
/// mutated under the lock by straight-line code (no panics mid-update),
/// so a poisoned guard's contents are always consistent.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Number of hardware threads, with a floor of 1.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Current thread budget (1 = parallelism disabled). Monotonic: the
/// largest value ever passed to [`configure`].
pub fn threads() -> usize {
    shared().budget.load(Ordering::Relaxed).max(1)
}

/// Raise the pool's thread budget to `threads` (total, including the
/// calling thread) and spawn workers up to `threads - 1`. Budgets only
/// grow; `configure(1)` is a no-op. Workers are persistent — they park
/// when the queue is empty and are reused by every subsequent run.
pub fn configure(threads: usize) {
    let threads = threads.max(1);
    let s = shared();
    s.budget.fetch_max(threads, Ordering::Relaxed);
    let mut spawned = lock_unpoisoned(&s.spawned);
    while *spawned + 1 < threads {
        let idx = *spawned;
        let worker = std::thread::Builder::new()
            .name(format!("par-worker-{idx}"))
            .spawn(move || worker_loop(idx));
        if worker.is_err() {
            // can't get more OS threads: run degraded — callers always
            // help drain the queue themselves, so progress is unaffected
            obs::count("par", "spawn_failures", 1);
            break;
        }
        *spawned += 1;
    }
}

fn worker_loop(_idx: usize) {
    let s = shared();
    loop {
        let task = {
            let mut q = lock_unpoisoned(&s.queue);
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                q = match s.cv.wait_timeout(q, Duration::from_millis(100)) {
                    Ok((guard, _)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        };
        run_task(task);
    }
}

fn run_task(task: Task) {
    let _span = obs::span("par", "task");
    // chaos-test hook: delay rules perturb task timing (never values);
    // one relaxed atomic load when no fault plan is installed
    faults::scheduler_delay("par", "task");
    // The pool must survive a panicking task: without this boundary a
    // panic would kill the worker thread (shrinking the pool forever) or
    // unwind through an unrelated caller helping from `help_until`.
    // Job-level bookkeeping is the task entry's job — `parallel_for`'s
    // entry catches panics itself and stores the payload, so one reaching
    // this backstop has already been accounted for.
    let r = catch_unwind(AssertUnwindSafe(|| {
        // SAFETY: upheld by the `inject` caller — the task state is alive
        // and shareable until the task completes.
        unsafe { (task.run)(task.data) };
    }));
    if r.is_err() {
        obs::count("par", "task_panics", 1);
    }
}

/// Push tasks onto the global queue and wake workers.
///
/// # Safety
///
/// For every task, `data` must point to state that (a) may be shared
/// across threads (`Sync`-like access discipline), and (b) outlives the
/// task's execution. The canonical pattern: the injecting thread keeps
/// the state alive on its stack and calls [`help_until`] with a predicate
/// that only becomes true after every injected task has finished running.
unsafe fn inject<I: IntoIterator<Item = Task>>(tasks: I) {
    let s = shared();
    let depth = {
        let mut q = lock_unpoisoned(&s.queue);
        q.extend(tasks);
        q.len() as u64
    };
    obs::observe("par", "queue_depth", depth);
    s.cv.notify_all();
}

/// Pop and execute one queued task, if any. Returns whether a task ran.
fn try_run_one() -> bool {
    let task = lock_unpoisoned(&shared().queue).pop_front();
    match task {
        Some(t) => {
            run_task(t);
            true
        }
        None => false,
    }
}

/// Execute queued tasks until `done()` is true, yielding when the queue
/// is empty. This is the "wait by helping" primitive: callers never block
/// on in-flight work, they contribute to draining the queue, which makes
/// nested fork-join on the shared pool deadlock-free.
fn help_until(done: impl Fn() -> bool) {
    while !done() {
        if !try_run_one() {
            std::thread::yield_now();
        }
    }
}

/// Data-parallel for-loop over `0..n`, splitting into chunks of at least
/// `grain` items. Falls back to a plain sequential loop when the budget
/// is 1 or the range is too small to split. Each chunk is processed by
/// exactly one thread in ascending index order, so any output written
/// per-index is bitwise identical to the sequential loop.
///
/// Blocks until every chunk has completed. `body` may be called
/// concurrently from several threads with disjoint ranges.
pub fn parallel_for(n: usize, grain: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
    let grain = grain.max(1);
    let t = threads();
    if t <= 1 || n <= grain {
        if n > 0 {
            body(0..n);
        }
        return;
    }
    // enough chunks for load balance, each at least `grain` items
    let chunk = grain.max(n.div_ceil(t * 4));
    let nchunks = n.div_ceil(chunk);

    struct ForJob<'a> {
        body: &'a (dyn Fn(Range<usize>) + Sync),
        n: usize,
        chunk: usize,
        nchunks: usize,
        next: AtomicUsize,
        live: AtomicUsize,
        /// Set when any chunk's body panicked; stops further claiming.
        panicked: AtomicBool,
        /// First captured panic payload, re-thrown on the calling thread.
        payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    }
    /// Claim and run chunks. Panic-safe: a panicking body marks the job
    /// failed and stores its payload instead of unwinding, so `live`
    /// bookkeeping below never deadlocks and sibling workers survive.
    fn claim(job: &ForJob<'_>) {
        loop {
            if job.panicked.load(Ordering::Acquire) {
                break;
            }
            let c = job.next.fetch_add(1, Ordering::Relaxed);
            if c >= job.nchunks {
                break;
            }
            let start = c * job.chunk;
            let range = start..(start + job.chunk).min(job.n);
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| (job.body)(range))) {
                if let Ok(mut slot) = job.payload.lock() {
                    if slot.is_none() {
                        *slot = Some(p);
                    }
                }
                job.panicked.store(true, Ordering::Release);
                break;
            }
        }
    }
    unsafe fn entry(data: *const ()) {
        // SAFETY: `data` points at the ForJob on the injecting thread's
        // stack, kept alive until `live` reaches zero below. `claim`
        // cannot unwind, so the decrement always runs.
        let job = unsafe { &*(data as *const ForJob<'_>) };
        claim(job);
        job.live.fetch_sub(1, Ordering::Release);
    }

    let helpers = (t - 1).min(nchunks - 1);
    let job = ForJob {
        body,
        n,
        chunk,
        nchunks,
        next: AtomicUsize::new(0),
        live: AtomicUsize::new(helpers),
        panicked: AtomicBool::new(false),
        payload: Mutex::new(None),
    };
    // SAFETY: `job` lives on this stack frame; we do not return until
    // every helper task has decremented `live`, i.e. finished executing.
    unsafe {
        inject((0..helpers).map(|_| Task {
            data: &job as *const ForJob<'_> as *const (),
            run: entry,
        }));
    }
    claim(&job);
    help_until(|| job.live.load(Ordering::Acquire) == 0);
    // re-throw the first body panic on the caller — same observable
    // behavior as the sequential loop, and the caller's catch_unwind
    // boundary (the graph executor's) converts it to a structured error
    let payload = job.payload.lock().unwrap_or_else(|p| p.into_inner()).take();
    if let Some(p) = payload {
        resume_unwind(p);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_fallback_when_unconfigured() {
        // budget may already be >1 if another test configured the pool;
        // a small n still runs inline
        let hits = AtomicU64::new(0);
        parallel_for(3, 8, &|r| {
            hits.fetch_add((r.end - r.start) as u64, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn parallel_for_covers_every_index_once() {
        configure(4);
        let n = 100_000;
        let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        parallel_for(n, 1024, &|r| {
            for i in r {
                slots[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(slots.iter().all(|s| s.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_matches_sequential_bitwise() {
        configure(4);
        let n = 65_536;
        let f = |i: usize| ((i as f32) * 0.3).sin() * ((i as f32) + 1.0).sqrt();
        let mut seq = vec![0.0f32; n];
        for (i, s) in seq.iter_mut().enumerate() {
            *s = f(i);
        }
        let mut par = vec![0.0f32; n];
        let ptr = par.as_mut_ptr() as usize;
        parallel_for(n, 512, &|r| {
            for i in r {
                // SAFETY: disjoint ranges, each index written exactly once
                unsafe { *(ptr as *mut f32).add(i) = f(i) };
            }
        });
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn nested_parallel_for_does_not_deadlock() {
        configure(4);
        let total = AtomicU64::new(0);
        parallel_for(16, 1, &|outer| {
            for _ in outer {
                parallel_for(64, 4, &|inner| {
                    total.fetch_add((inner.end - inner.start) as u64, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16 * 64);
    }

    /// Regression for pool poisoning: a panicking `parallel_for` body must
    /// (a) propagate the panic to the caller and (b) leave the worker pool
    /// fully functional for subsequent runs. Before panic isolation, the
    /// unwound helper skipped its `live` decrement and the caller hung in
    /// `help_until` forever.
    #[test]
    fn pool_survives_panicking_bodies_repeatedly() {
        // the expected panics fire on pool threads, whose stderr libtest
        // cannot capture — silence just those to keep test output readable
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let silent = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected body panic"));
            if !silent {
                prev(info);
            }
        }));
        configure(4);
        let n = 4096;
        for iter in 0..50 {
            let r = catch_unwind(AssertUnwindSafe(|| {
                parallel_for(n, 16, &|r| {
                    for i in r {
                        if i == 1234 {
                            panic!("injected body panic (iter {iter})");
                        }
                    }
                });
            }));
            assert!(r.is_err(), "body panic must reach the caller");
            // the pool must still run a clean job to completion, covering
            // every index exactly once
            let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            parallel_for(n, 16, &|r| {
                for i in r {
                    slots[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(slots.iter().all(|s| s.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn budget_is_monotonic() {
        configure(2);
        configure(1);
        assert!(threads() >= 2);
    }
}
