//! # autograph-obs
//!
//! The observability layer for the AutoGraph reproduction: structured
//! span timers, monotonic counters and duration histograms behind a
//! pluggable [`Recorder`], plus exporters — a human-readable summary
//! table sorted by self-time and a Chrome `chrome://tracing` JSON trace.
//!
//! ## Design
//!
//! Instrumented code calls the free functions in this crate
//! ([`span`], [`count`], [`observe`], [`gauge`]). When no recorder
//! is installed every one of them is a **single branch on a relaxed
//! [`AtomicBool`]** — no allocation, no locking, no syscalls — so the
//! hot paths of the graph executor and eager runtime pay nothing in
//! normal operation. Installing a recorder ([`install`]) flips the flag
//! and routes events to it; [`uninstall`] flips it back.
//!
//! Two recorders ship with the crate:
//!
//! * [`AggregateRecorder`] — in-memory per-key histograms and counters;
//!   renders the per-op `count / total / mean / p99` summary table.
//! * [`TraceRecorder`] — buffers begin/end events and writes a Chrome
//!   trace (`chrome://tracing` / Perfetto "load trace" compatible).
//!
//! [`FanoutRecorder`] composes them (the bench binaries' `--profile`
//! installs both). Nothing installs a recorder from the environment.
//!
//! ## The JSON and trace writers
//!
//! [`json::write_str`] is the one function in the workspace that turns
//! a `&str` into a JSON string literal, and [`chrome::TraceWriter`] the
//! one place that spells the Chrome-trace event schema; the run report
//! in `autograph-graph` and the `/stats`, `/debug/trace` and error
//! bodies of `autograph-serve` render through them.

pub(crate) mod chrome;
pub mod json;
pub mod metrics;
pub(crate) mod recorder;

pub use chrome::{TraceRecorder, TraceWriter};
pub use metrics::{AggregateRecorder, AtomicHistogram, HistSnapshot, ShardedCounter, Summary};
pub use recorder::{FanoutRecorder, Recorder};

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Whether a recorder is installed. Inlined to a single relaxed atomic
/// load — the only cost instrumented code pays when profiling is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Lock one of this crate's mutexes, taking the guard even when a
/// thread panicked while holding it. Recorder hooks run from
/// `Span::drop`, possibly during an unwind, where a second panic would
/// abort the process; every critical section here is a push, an insert
/// or an add, so the data is valid at every step.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Install `recorder` as the process-wide sink and enable recording.
pub fn install(recorder: Arc<dyn Recorder>) {
    let mut slot = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(recorder);
    ENABLED.store(true, Ordering::Release);
}

/// Disable recording and return the previously installed recorder.
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    ENABLED.store(false, Ordering::Release);
    RECORDER
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
}

/// Run `f` against the installed recorder, if any.
#[inline]
pub(crate) fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if !enabled() {
        return;
    }
    if let Ok(guard) = RECORDER.read() {
        if let Some(r) = guard.as_ref() {
            f(r.as_ref());
        }
    }
}

/// Nanoseconds since the first observability event in this process
/// (the trace epoch).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static LANE_NAMES: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());

/// A small dense id for the current thread (Chrome traces want an
/// integer `tid`). On first call from a thread its OS thread name is
/// captured into the lane registry so trace exporters
/// can emit human-readable thread labels.
pub fn thread_lane() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static LANE: u64 = {
            let lane = NEXT.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{lane}"));
            if let Ok(mut names) = LANE_NAMES.lock() {
                names.push((lane, name));
            }
            lane
        };
    }
    LANE.with(|l| *l)
}

/// All `(lane, thread name)` pairs registered so far, in registration
/// order. Lanes are registered lazily the first time a thread calls
/// [`thread_lane`] (directly or via any recorder hook).
pub(crate) fn lane_names() -> Vec<(u64, String)> {
    LANE_NAMES.lock().map(|v| v.clone()).unwrap_or_default()
}

thread_local! {
    /// Request id the current thread is working on behalf of (0 = none).
    static REQUEST_CTX: Cell<u64> = const { Cell::new(0) };
}

/// The request id associated with the current thread, or 0 when none
/// was set. Serving layers set this around execution so recorders can
/// attribute executor spans back to the HTTP request that caused them.
#[inline]
pub fn request_ctx() -> u64 {
    REQUEST_CTX.with(|c| c.get())
}

/// Associate `id` with the current thread until the returned guard is
/// dropped (the previous value is restored, so nesting is safe).
#[must_use = "the request context is cleared when the guard drops"]
pub fn set_request_ctx(id: u64) -> RequestCtxGuard {
    let prev = REQUEST_CTX.with(|c| c.replace(id));
    RequestCtxGuard { prev }
}

/// Restores the prior request context on drop. See [`set_request_ctx`].
pub struct RequestCtxGuard {
    prev: u64,
}

impl Drop for RequestCtxGuard {
    fn drop(&mut self) {
        REQUEST_CTX.with(|c| c.set(self.prev));
    }
}

/// An open span: records `(category, name, start, duration)` to the
/// installed recorder when dropped.
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    cat: &'static str,
    name: Cow<'static, str>,
    start_ns: u64,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        let (cat, start_ns) = (self.cat, self.start_ns);
        let name = std::mem::replace(&mut self.name, Cow::Borrowed(""));
        with_recorder(|r| r.span(cat, &name, start_ns, dur_ns));
    }
}

/// Open a span with a `'static` name. Returns `None` (and does nothing
/// else) when no recorder is installed.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Option<Span> {
    if !enabled() {
        return None;
    }
    Some(begin(cat, Cow::Borrowed(name)))
}

/// Open a span with a runtime-constructed name. The allocation happens
/// only when recording is enabled.
#[inline]
pub fn span_dyn(cat: &'static str, name: impl FnOnce() -> String) -> Option<Span> {
    if !enabled() {
        return None;
    }
    Some(begin(cat, Cow::Owned(name())))
}

fn begin(cat: &'static str, name: Cow<'static, str>) -> Span {
    Span {
        cat,
        name,
        start_ns: now_ns(),
        start: Instant::now(),
    }
}

/// Bump the monotonic counter `category/name` by `delta`.
#[inline]
pub fn count(cat: &'static str, name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.count(cat, name, delta));
}

/// Record one observation of a value distribution (loop iteration
/// counts, tape lengths, size deltas, ...).
#[inline]
pub fn observe(cat: &'static str, name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.observe(cat, name, value));
}

/// Record one observation under a runtime-constructed name. The name is
/// only built when a recorder is installed.
#[inline]
pub fn observe_dyn(cat: &'static str, name: impl FnOnce() -> String, value: u64) {
    if !enabled() {
        return;
    }
    let name = name();
    with_recorder(|r| r.observe(cat, &name, value));
}

/// Record an instantaneous level sample (live bytes, queue depth,
/// utilization). Gauges are absolute values, not accumulating counters;
/// the trace exporter renders them as Chrome counter lanes.
#[inline]
pub fn gauge(cat: &'static str, name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.gauge(cat, name, value));
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global recorder slot is process-wide, so exercise the full
    // install → record → uninstall cycle inside one test to avoid
    // cross-test interference.
    #[test]
    fn disabled_paths_are_inert_and_install_cycle_works() {
        assert!(!enabled());
        assert!(span("t", "noop").is_none());
        count("t", "c", 1);
        observe("t", "o", 1);

        let agg = Arc::new(AggregateRecorder::new());
        install(agg.clone());
        assert!(enabled());
        {
            let _s = span("t", "work");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        count("t", "c", 2);
        observe("t", "o", 41);

        let prev = uninstall().expect("was installed");
        assert!(!enabled());
        drop(prev);

        let summary = agg.summary();
        let row = summary.row("t/work").expect("span row");
        assert_eq!(row.count, 1);
        assert!(
            row.total_ns >= 1_000_000,
            "slept ≥ 1ms, got {}",
            row.total_ns
        );
        assert_eq!(summary.counter("t/c"), Some(2));
        // values recorded after uninstall are dropped
        count("t", "c", 100);
        assert_eq!(agg.summary().counter("t/c"), Some(2));
    }

    #[test]
    fn request_ctx_nests_and_restores() {
        assert_eq!(request_ctx(), 0);
        {
            let _outer = set_request_ctx(7);
            assert_eq!(request_ctx(), 7);
            {
                let _inner = set_request_ctx(11);
                assert_eq!(request_ctx(), 11);
            }
            assert_eq!(request_ctx(), 7);
        }
        assert_eq!(request_ctx(), 0);
    }

    #[test]
    fn thread_lane_registers_thread_name() {
        let lane = std::thread::Builder::new()
            .name("lane-name-probe".to_string())
            .spawn(thread_lane)
            .expect("spawn")
            .join()
            .expect("join");
        let names = lane_names();
        let hit = names.iter().find(|(l, _)| *l == lane).expect("registered");
        assert_eq!(hit.1, "lane-name-probe");
    }
}
