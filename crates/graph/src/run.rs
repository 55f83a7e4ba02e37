//! Run-level controls: cancellation tokens, deadlines, and the internal
//! context the executor consults at node-dispatch and
//! while-loop-iteration granularity.
//!
//! Serving staged programs needs the `tf.Session` robustness contract: a
//! runaway loop must be killable, a stuck run must time out, and a caller
//! must always get a structured error (never a hang, never an abort).
//! [`RunOptions`] is the per-run knob set; [`RunCtx`] is the internal
//! carrier threaded through `vm.rs` (and the reference interpreter in
//! `exec.rs`), which also accumulates progress counters so
//! `Session::stats()` reflects work done even when the run fails.

use crate::error::GraphError;
use crate::Result;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A shareable cancellation flag: clone it, hand a copy to another
/// thread, and [`CancelToken::cancel`] aborts the run at its next
/// dispatch check with [`GraphError::cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-triggered token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trigger cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Per-run execution limits for `Session::run_with_options`.
///
/// `Default` reads `AUTOGRAPH_RUN_TIMEOUT_MS` for the deadline (unset ⇒
/// unlimited), so plain `Session::run` calls inherit a process-wide
/// timeout without code changes.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Wall-clock budget for the whole run.
    pub deadline: Option<Duration>,
    /// Iteration cap applied to every staged `While` loop in the run (a
    /// loop's own `max_iters` still applies; the smaller bound wins).
    pub max_while_iters: Option<u64>,
    /// Cooperative cancellation; checked at every node dispatch and loop
    /// iteration.
    pub cancel: Option<CancelToken>,
}

/// `AUTOGRAPH_RUN_TIMEOUT_MS`, parsed once per process.
fn env_timeout() -> Option<Duration> {
    static CACHE: OnceLock<Option<Duration>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("AUTOGRAPH_RUN_TIMEOUT_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(Duration::from_millis)
    })
}

impl RunOptions {
    /// Options with the `AUTOGRAPH_RUN_TIMEOUT_MS` deadline applied when
    /// none was set explicitly. This is what `Session::run` uses.
    pub(crate) fn resolved(mut self) -> RunOptions {
        if self.deadline.is_none() {
            self.deadline = env_timeout();
        }
        self
    }

    /// Set the wall-clock budget.
    pub fn with_deadline(mut self, d: Duration) -> RunOptions {
        self.deadline = Some(d);
        self
    }

    /// Set the global while-loop iteration cap.
    pub fn with_max_while_iters(mut self, n: u64) -> RunOptions {
        self.max_while_iters = Some(n);
        self
    }

    /// Attach a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> RunOptions {
        self.cancel = Some(token);
        self
    }
}

/// The internal per-run state threaded through the executor: limits to
/// enforce plus progress counters. A run stays on the calling thread, so
/// the counters are plain `Cell`s.
#[derive(Debug, Default)]
pub(crate) struct RunCtx {
    /// Absolute wall-clock cutoff, precomputed from the deadline.
    pub deadline: Option<Instant>,
    /// The original budget, echoed in the error message.
    pub deadline_budget: Option<Duration>,
    pub cancel: Option<CancelToken>,
    pub max_while_iters: Option<u64>,
    /// Nodes dispatched so far (all ops, subgraphs included).
    pub nodes_executed: Cell<u64>,
    /// Staged `While` iterations completed so far.
    pub while_iters: Cell<u64>,
    /// Per-node cost collector, present when the session has reporting
    /// enabled. Only top-level plan nodes record into it (subgraph node
    /// ids would collide; their cost folds into the owning node).
    pub collector: Option<crate::report::Collector>,
}

impl RunCtx {
    pub(crate) fn from_options(opts: &RunOptions) -> RunCtx {
        RunCtx {
            deadline: opts.deadline.map(|d| Instant::now() + d),
            deadline_budget: opts.deadline,
            cancel: opts.cancel.clone(),
            max_while_iters: opts.max_while_iters,
            nodes_executed: Cell::new(0),
            while_iters: Cell::new(0),
            collector: None,
        }
    }

    /// Cancellation/deadline check — called before every node dispatch
    /// and every while-loop iteration. Two `Option` checks in the common
    /// (unbounded) case.
    pub fn check(&self) -> Result<()> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(GraphError::cancelled());
            }
        }
        if let Some(cutoff) = self.deadline {
            if Instant::now() >= cutoff {
                return Err(GraphError::deadline_exceeded(
                    self.deadline_budget.unwrap_or_default(),
                ));
            }
        }
        Ok(())
    }

    /// Check limits and count one node dispatch.
    pub(crate) fn before_node(&self) -> Result<()> {
        self.check()?;
        self.nodes_executed.set(self.nodes_executed.get() + 1);
        Ok(())
    }

    /// Count one completed while-loop iteration and re-check limits.
    pub(crate) fn after_while_iter(&self) -> Result<()> {
        self.while_iters.set(self.while_iters.get() + 1);
        self.check()
    }

    /// The while-loop iteration cap for a loop staged with its own
    /// `max_iters`: the smaller of the two bounds.
    pub(crate) fn while_limit(&self, staged: Option<u64>) -> Option<u64> {
        match (staged, self.max_while_iters) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_roundtrip() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let t2 = t.clone();
        std::thread::spawn(move || t2.cancel()).join().unwrap();
        assert!(t.is_cancelled());
    }

    #[test]
    fn unbounded_ctx_never_trips() {
        let ctx = RunCtx::default();
        for _ in 0..1000 {
            ctx.before_node().unwrap();
            ctx.after_while_iter().unwrap();
        }
        assert_eq!(ctx.nodes_executed.get(), 1000);
        assert_eq!(ctx.while_iters.get(), 1000);
    }

    #[test]
    fn deadline_trips_after_budget() {
        let opts = RunOptions::default().with_deadline(Duration::from_millis(5));
        let ctx = RunCtx::from_options(&opts);
        assert!(ctx.check().is_ok());
        std::thread::sleep(Duration::from_millis(10));
        let err = ctx.check().unwrap_err();
        assert!(err.is_deadline_exceeded());
    }

    #[test]
    fn cancel_trips_immediately() {
        let token = CancelToken::new();
        let ctx = RunCtx::from_options(&RunOptions::default().with_cancel(token.clone()));
        assert!(ctx.check().is_ok());
        token.cancel();
        assert!(ctx.check().unwrap_err().is_cancelled());
    }

    #[test]
    fn while_limit_takes_smaller_bound() {
        let ctx = RunCtx::from_options(&RunOptions::default().with_max_while_iters(10));
        assert_eq!(ctx.while_limit(None), Some(10));
        assert_eq!(ctx.while_limit(Some(3)), Some(3));
        assert_eq!(ctx.while_limit(Some(50)), Some(10));
        assert_eq!(RunCtx::default().while_limit(Some(7)), Some(7));
        assert_eq!(RunCtx::default().while_limit(None), None);
    }
}
