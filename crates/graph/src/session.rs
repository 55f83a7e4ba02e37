//! The `tf.Session` analog: owns a graph, its variable state and a cache
//! of compiled execution plans.
//!
//! ## Threads
//!
//! A run executes its plan on the calling thread (the bytecode VM in
//! `crate::vm`); `threads` is only the budget tensor kernels may split
//! over through `autograph_par::parallel_for`. It resolves in priority
//! order:
//!
//! 1. [`Session::set_threads`] on this session;
//! 2. the process-wide default from [`set_default_threads`] (what bench
//!    binaries set from `--threads`);
//! 3. the `AUTOGRAPH_THREADS` environment variable;
//! 4. the machine's available parallelism.
//!
//! The pool's budget is process-wide and only grows
//! (`autograph_par::configure` is a `fetch_max`): once any session ran
//! with `threads = 4`, a later `set_threads(1)` does not stop kernels
//! from splitting. Each kernel chunk is computed by one thread in the
//! sequential element order, so results are bitwise identical at every
//! budget.

use crate::exec::{ExecEnv, Plan};
use crate::ir::{GValue, Graph, NodeId};
use crate::report::{self, RunReport};
use crate::run::{RunCtx, RunOptions};
use crate::Result;
use autograph_obs as obs;
use autograph_par as par;
use autograph_tensor::Tensor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide thread default set by [`set_default_threads`];
/// 0 = unset.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default thread count for sessions that don't
/// call [`Session::set_threads`]. `AUTOGRAPH_THREADS` and machine
/// parallelism are only consulted while this is unset. Like every thread
/// setting it can only raise the process-wide kernel budget (see the
/// module docs).
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads.max(1), Ordering::Relaxed);
}

/// `AUTOGRAPH_THREADS`, parsed once per process.
fn env_threads() -> Option<usize> {
    static CACHE: OnceLock<Option<usize>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        std::env::var("AUTOGRAPH_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
    })
}

/// Resolve the effective thread count for a session (see the module docs
/// for the priority order).
fn resolve_threads(session_threads: Option<usize>) -> usize {
    if let Some(n) = session_threads {
        return n.max(1);
    }
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => env_threads().unwrap_or_else(par::available_parallelism),
        n => n,
    }
}

/// Plan-cache and progress counters for one [`Session`], returned by
/// [`Session::stats`]. A miss means a fetch set was compiled; a hit
/// means an existing plan was reused (one installed by
/// [`Session::install_compiled`] included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Runs that reused a cached plan.
    pub plan_cache_hits: u64,
    /// Runs that compiled (and cached) a new plan.
    pub plan_cache_misses: u64,
    /// Graph nodes dispatched across all runs — including work done
    /// before a failed run's error, so partial progress is visible.
    pub nodes_executed: u64,
    /// Staged `While` iterations completed across all runs (failed runs
    /// included).
    pub while_iters: u64,
}

/// Executes fetches against a graph, with persistent variables and
/// per-fetch-set plan caching. One `run` call per training step is the
/// "Model In Graph, Loop In Python" configuration of Table 2; a single
/// `run` of a `While` node is "Model And Loop In Graph".
#[derive(Debug)]
pub struct Session {
    graph: Graph,
    variables: HashMap<String, Tensor>,
    plans: HashMap<Vec<NodeId>, Plan>,
    stats: SessionStats,
    threads: Option<usize>,
    /// Whether runs collect a [`RunReport`] (memory accounting, per-node
    /// costs). Off by default: the run path then pays only an `Option`
    /// check per node.
    reporting: bool,
    last_report: Option<RunReport>,
}

impl Session {
    /// Create a session; variables start at their registered initial
    /// values.
    pub fn new(graph: Graph) -> Session {
        let variables = graph.variables.iter().cloned().collect();
        Session {
            graph,
            variables,
            plans: HashMap::new(),
            stats: SessionStats::default(),
            threads: None,
            reporting: false,
            last_report: None,
        }
    }

    /// The graph this session executes.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Pin this session's thread count, overriding the process default
    /// and `AUTOGRAPH_THREADS`. The count is the budget tensor kernels
    /// split over; it raises the process-wide pool budget and never
    /// lowers it, so `set_threads(1)` after a wider run does not un-split
    /// kernels. Results are bitwise identical at every count.
    pub fn set_threads(&mut self, threads: usize) -> &mut Session {
        self.threads = Some(threads.max(1));
        self
    }

    /// Enable or disable per-run reporting. While enabled, every run
    /// collects per-node self-times and allocation attribution, diffs
    /// the process-wide tensor-memory ledger, and stores the resulting
    /// [`RunReport`] (see [`Session::last_report`]).
    /// Adds per-node timing overhead; leave off for peak throughput.
    pub fn set_reporting(&mut self, on: bool) -> &mut Session {
        self.reporting = on;
        self
    }

    /// The report of the most recent run (successful or failed), if
    /// reporting was enabled for it.
    pub fn last_report(&self) -> Option<&RunReport> {
        self.last_report.as_ref()
    }

    /// Plan-cache and progress counters accumulated over this session's
    /// runs.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Pre-seed the plan cache from a deserialized
    /// [`CompiledUnit`](crate::artifact::CompiledUnit): the unit's fetch
    /// set gets a plan with the bytecode program already installed, so
    /// the first `run` for those fetches is a plan-cache hit that skips
    /// both plan compilation and VM lowering — the warm-restage path.
    ///
    /// The unit must have been built for this session's graph (the
    /// persistent store's content-hash key guarantees it on the cache
    /// path).
    ///
    /// # Errors
    ///
    /// Returns staging errors if the unit's fetch ids don't fit the
    /// graph.
    pub fn install_compiled(&mut self, unit: &crate::artifact::CompiledUnit) -> Result<()> {
        let plan = unit.plan()?;
        self.plans.insert(unit.outputs.clone(), plan);
        Ok(())
    }

    /// Current value of a variable.
    pub fn variable(&self, name: &str) -> Option<&Tensor> {
        self.variables.get(name)
    }

    /// Run the graph: feed placeholders, fetch node values as tensors.
    ///
    /// # Errors
    ///
    /// Returns staging errors for invalid fetches and runtime errors from
    /// kernels, annotated with node names/spans. Fetching a non-tensor
    /// value (array/tuple) is an error — use [`Session::run_values`].
    pub fn run(&mut self, feeds: &[(&str, Tensor)], fetches: &[NodeId]) -> Result<Vec<Tensor>> {
        self.run_with_options(feeds, fetches, &RunOptions::default())
    }

    /// [`Session::run`] under explicit limits: a wall-clock deadline, a
    /// global while-iteration cap, and/or a [`crate::run::CancelToken`]
    /// another thread can trigger. Limits are checked at every node
    /// dispatch and loop iteration; a tripped limit returns a
    /// [`GraphError`](crate::GraphError) whose
    /// `is_cancelled()`/`is_deadline_exceeded()` predicate holds, with
    /// [`Session::stats`] still reflecting the work done up to that
    /// point.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Session::run`], plus cancellation and
    /// deadline expiry.
    pub fn run_with_options(
        &mut self,
        feeds: &[(&str, Tensor)],
        fetches: &[NodeId],
        options: &RunOptions,
    ) -> Result<Vec<Tensor>> {
        self.run_values_with_options(feeds, fetches, options)?
            .into_iter()
            .map(|v| v.as_tensor().cloned())
            .collect()
    }

    /// Like [`Session::run`] but returns structured [`GValue`]s.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Session::run`].
    pub fn run_values(
        &mut self,
        feeds: &[(&str, Tensor)],
        fetches: &[NodeId],
    ) -> Result<Vec<GValue>> {
        self.run_values_with_options(feeds, fetches, &RunOptions::default())
    }

    /// [`Session::run_with_options`] returning structured [`GValue`]s.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Session::run_with_options`].
    pub(crate) fn run_values_with_options(
        &mut self,
        feeds: &[(&str, Tensor)],
        fetches: &[NodeId],
        options: &RunOptions,
    ) -> Result<Vec<GValue>> {
        self.run_values_on(feeds, fetches, options, Plan::run_vm_ctx)
    }

    /// [`Session::run_values_with_options`] on the op-by-op reference
    /// interpreter in `crate::exec` instead of the VM. Not a production
    /// path: it exists so the differential test walls and the `genprog`
    /// oracles can check the VM against an independent evaluator.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Session::run_values_with_options`].
    #[doc(hidden)]
    pub fn run_values_reference(
        &mut self,
        feeds: &[(&str, Tensor)],
        fetches: &[NodeId],
        options: &RunOptions,
    ) -> Result<Vec<GValue>> {
        self.run_values_on(feeds, fetches, options, Plan::run_ctx)
    }

    /// The plumbing both entry points share: plan cache, feeds, limits,
    /// stats and reports around one `exec` of the plan. Generic over the
    /// executor so a binary that never calls
    /// [`Session::run_values_reference`] does not link the interpreter.
    fn run_values_on(
        &mut self,
        feeds: &[(&str, Tensor)],
        fetches: &[NodeId],
        options: &RunOptions,
        exec: impl FnOnce(&Plan, &Graph, &mut ExecEnv<'_>, &[NodeId], &RunCtx) -> Result<Vec<GValue>>,
    ) -> Result<Vec<GValue>> {
        let key = fetches.to_vec();
        if self.plans.contains_key(&key) {
            self.stats.plan_cache_hits += 1;
            obs::count("session", "plan_cache_hit", 1);
        } else {
            let t0 = std::time::Instant::now();
            let plan = Plan::compile(&self.graph, fetches)?;
            self.stats.plan_cache_misses += 1;
            if obs::enabled() {
                obs::count("session", "plan_cache_miss", 1);
                obs::observe("session", "plan_build_ns", t0.elapsed().as_nanos() as u64);
            }
            self.plans.insert(key.clone(), plan);
        }
        let plan = &self.plans[&key];
        let feed_map: HashMap<String, Tensor> = feeds
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        let mut env = ExecEnv {
            feeds: &feed_map,
            variables: &mut self.variables,
        };
        // the run-level span closes on every exit path (drop guard), so
        // Chrome traces of failed runs stay well-formed
        let _run_span = obs::span("session", "run");
        let threads = resolve_threads(self.threads);
        if threads > 1 {
            par::configure(threads);
        }
        let mut ctx = RunCtx::from_options(&options.clone().resolved());
        // reporting: turn on the process-wide memory ledger for the
        // duration of the run and snapshot it on both sides
        let mem_before = if self.reporting {
            ctx.collector = Some(report::Collector::new(self.graph.nodes.len()));
            autograph_tensor::mem::track_begin();
            autograph_tensor::mem::reset_peak();
            Some(autograph_tensor::mem::snapshot())
        } else {
            None
        };
        let t0 = std::time::Instant::now();
        let result = exec(plan, &self.graph, &mut env, fetches, &ctx);
        // fold progress into the session counters on success AND failure:
        // stats after a failed run reflect the work done before the error
        self.stats.nodes_executed += ctx.nodes_executed.get();
        self.stats.while_iters += ctx.while_iters.get();
        if let (Some(mem_before), Some(collector)) = (mem_before, ctx.collector.as_ref()) {
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let mem_after = autograph_tensor::mem::snapshot();
            autograph_tensor::mem::track_end();
            let run_report = report::build(report::ReportInputs {
                graph: &self.graph,
                order: plan.order(),
                collector,
                wall_ns,
                threads,
                succeeded: result.is_ok(),
                error: result.as_ref().err().map(|e| e.to_string()),
                nodes_executed: ctx.nodes_executed.get(),
                while_iters: ctx.while_iters.get(),
                mem_before,
                mem_after,
            });
            if obs::enabled() {
                obs::gauge("mem", "run_peak_bytes", run_report.mem.peak_bytes);
                obs::gauge("mem", "run_live_bytes", run_report.mem.live_bytes_end);
                obs::gauge("mem", "run_allocated_bytes", run_report.mem.allocated_bytes);
            }
            self.last_report = Some(run_report);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn run_with_feeds() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let y = b.placeholder("y");
        let s = b.add_op(x, y);
        let mut sess = Session::new(b.finish());
        let out = sess
            .run(
                &[
                    ("x", Tensor::scalar_f32(2.0)),
                    ("y", Tensor::scalar_f32(5.0)),
                ],
                &[s],
            )
            .unwrap();
        assert_eq!(out[0].scalar_value_f32().unwrap(), 7.0);
    }

    #[test]
    fn variables_persist_across_runs() {
        let mut b = GraphBuilder::new();
        let w = b.variable("w", Tensor::scalar_f32(0.0));
        let one = b.scalar(1.0);
        let inc = b.add_op(w, one);
        let train = b.assign("w", inc);
        let read = b.variable("w", Tensor::scalar_f32(0.0));
        let mut sess = Session::new(b.finish());
        for _ in 0..5 {
            sess.run(&[], &[train]).unwrap();
        }
        let out = sess.run(&[], &[read]).unwrap();
        assert_eq!(out[0].scalar_value_f32().unwrap(), 5.0);
        assert_eq!(sess.variable("w").unwrap().scalar_value_f32().unwrap(), 5.0);
    }

    #[test]
    fn plan_cached_per_fetch_set() {
        let mut b = GraphBuilder::new();
        let a = b.scalar(1.0);
        let c = b.scalar(2.0);
        let s = b.add_op(a, c);
        let m = b.mul(a, c);
        let mut sess = Session::new(b.finish());
        sess.run(&[], &[s]).unwrap();
        sess.run(&[], &[s]).unwrap();
        sess.run(&[], &[m]).unwrap();
        assert_eq!(sess.plans.len(), 2);
    }

    #[test]
    fn stats_count_hits_and_misses_per_fetch_set() {
        let mut b = GraphBuilder::new();
        let a = b.scalar(1.0);
        let c = b.scalar(2.0);
        let s = b.add_op(a, c);
        let mut sess = Session::new(b.finish());
        // same fetch set twice: one miss (compile), then one hit
        sess.run(&[], &[s]).unwrap();
        assert_eq!(sess.stats().plan_cache_misses, 1);
        assert_eq!(sess.stats().plan_cache_hits, 0);
        sess.run(&[], &[s]).unwrap();
        assert_eq!(sess.stats().plan_cache_misses, 1);
        assert_eq!(sess.stats().plan_cache_hits, 1);
    }

    #[test]
    fn explicit_threads_override_resolution() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let two = b.scalar(2.0);
        let y = b.mul(x, two);
        let mut sess = Session::new(b.finish());
        sess.set_threads(4);
        assert_eq!(resolve_threads(sess.threads), 4);
        let out = sess.run(&[("x", Tensor::scalar_f32(21.0))], &[y]).unwrap();
        assert_eq!(out[0].scalar_value_f32().unwrap(), 42.0);
        sess.set_threads(1);
        assert_eq!(resolve_threads(sess.threads), 1);
    }

    /// A staged `while True: i += 1` with no max_iters — only run limits
    /// can stop it.
    fn infinite_loop_graph() -> (Graph, NodeId) {
        use crate::builder::SubGraphBuilder;
        use crate::ir::OpKind;
        let mut b = GraphBuilder::new();
        let i0 = b.scalar(0.0);
        let (mut cb, _cp) = SubGraphBuilder::new(1);
        let t = cb.b.constant(Tensor::scalar_bool(true));
        let cond_g = cb.finish(vec![t]);
        let (mut bb, bp) = SubGraphBuilder::new(1);
        let one = bb.b.scalar(1.0);
        let i1 = bb.b.add_op(bp[0], one);
        let body_g = bb.finish(vec![i1]);
        let w = b.add(
            OpKind::While {
                cond_g,
                body_g,
                max_iters: None,
            },
            vec![i0],
        );
        (b.finish(), w)
    }

    #[test]
    fn deadline_kills_infinite_loop_at_any_thread_count() {
        use crate::run::RunOptions;
        for threads in [1usize, 4] {
            let (g, w) = infinite_loop_graph();
            let mut sess = Session::new(g);
            sess.set_threads(threads);
            let opts = RunOptions::default().with_deadline(std::time::Duration::from_millis(50));
            let t0 = std::time::Instant::now();
            let err = sess.run_with_options(&[], &[w], &opts).unwrap_err();
            assert!(err.is_deadline_exceeded(), "threads={threads}: {err}");
            assert!(
                t0.elapsed() < std::time::Duration::from_secs(10),
                "terminated promptly"
            );
            // partial progress is visible after the failed run
            let stats = sess.stats();
            assert!(stats.while_iters > 0, "threads={threads}");
            assert!(stats.nodes_executed > 0, "threads={threads}");
        }
    }

    #[test]
    fn cancel_token_kills_infinite_loop_at_any_thread_count() {
        use crate::run::{CancelToken, RunOptions};
        for threads in [1usize, 4] {
            let (g, w) = infinite_loop_graph();
            let mut sess = Session::new(g);
            sess.set_threads(threads);
            let token = CancelToken::new();
            let remote = token.clone();
            let canceller = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                remote.cancel();
            });
            let err = sess
                .run_with_options(&[], &[w], &RunOptions::default().with_cancel(token))
                .unwrap_err();
            canceller.join().unwrap();
            assert!(err.is_cancelled(), "threads={threads}: {err}");
        }
    }

    #[test]
    fn max_while_iters_option_caps_unbounded_loop() {
        use crate::run::RunOptions;
        let (g, w) = infinite_loop_graph();
        let mut sess = Session::new(g);
        sess.set_threads(1);
        let err = sess
            .run_with_options(&[], &[w], &RunOptions::default().with_max_while_iters(10))
            .unwrap_err();
        assert!(err.to_string().contains("max_iters=10"), "{err}");
        assert_eq!(sess.stats().while_iters, 10);
    }

    #[test]
    fn stats_after_failed_run_reflect_partial_work() {
        // regression: counters must cover nodes executed BEFORE the
        // failing node, not reset to zero on error
        let mut b = GraphBuilder::new();
        let a = b.scalar(1.0);
        let c = b.scalar(2.0);
        let ok = b.add_op(a, c);
        let bad = b.constant(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let fail = b.matmul(bad, bad); // rank-1 matmul fails at runtime
        let grp = b.add(crate::ir::OpKind::Group, vec![ok, fail]);
        let mut sess = Session::new(b.finish());
        sess.set_threads(1);
        let err = sess.run(&[], &[grp]).unwrap_err();
        assert!(err.node.is_some(), "{err}");
        let stats = sess.stats();
        assert!(
            stats.nodes_executed >= 3,
            "work before the failure is counted: {stats:?}"
        );
        // a successful follow-up run keeps accumulating
        let before = stats.nodes_executed;
        sess.run(&[], &[ok]).unwrap();
        assert!(sess.stats().nodes_executed > before);
    }
}
