//! The VM-vs-interpreter differential test wall: every corpus program,
//! staged once and executed on the VM at 1 and 4 threads, must produce
//! outputs **bitwise identical** to the op-by-op reference interpreter.
//! The VM (register bytecode, fused elementwise kernels, buffer
//! recycling) is pure cost model — it is never allowed to change a
//! result.
//!
//! Alongside raw outputs, the wall also locks down:
//!
//! * conversion warnings (staging happens before execution, so the sets
//!   must match exactly);
//! * `RunReport` invariants per cell — the memory ledger balances
//!   (allocated − freed == live delta, so arena recycling can't leak),
//!   the run executes the same number of nodes and while-iterations as
//!   the reference, and every node cost resolves to a real source span
//!   (fused kernels split costs across their covered nodes).

use autograph::prelude::*;

#[path = "support/check.rs"]
mod check;
#[path = "support/corpus.rs"]
mod corpus;
#[path = "support/exec.rs"]
mod exec;

use corpus::programs;
use exec::Exec;

/// The tensor ledger is process-global, so the test that reads it must
/// not overlap the tests that allocate: each test holds this lock.
static LEDGER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn ledger_lock() -> std::sync::MutexGuard<'static, ()> {
    LEDGER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Stage a corpus program and run it in the given mode/threads with
/// reporting on; returns the outputs, the report, and the session stats.
fn run_mode(
    graph: &autograph::graph::Graph,
    outputs: &[autograph::graph::NodeId],
    feeds: &[(&str, Tensor)],
    mode: Exec,
    threads: usize,
) -> (
    Vec<Tensor>,
    autograph::graph::RunReport,
    autograph::graph::session::SessionStats,
) {
    let mut sess = Session::new(graph.clone());
    sess.set_threads(threads);
    sess.set_reporting(true);
    let out = exec::run(&mut sess, mode, feeds, outputs, &RunOptions::default())
        .unwrap_or_else(|e| panic!("{mode:?} t{threads}: {e}"));
    let report = sess.last_report().expect("reporting enabled").clone();
    (out, report, sess.stats())
}

#[test]
fn vm_outputs_bitwise_identical_to_interpreter() {
    let _ledger = ledger_lock();
    for p in programs() {
        let mut rt = Runtime::load(p.src, true).unwrap_or_else(|e| panic!("{}: load: {e}", p.name));
        let args: Vec<GraphArg> = p
            .feeds
            .iter()
            .map(|(n, _)| GraphArg::Placeholder((*n).to_string()))
            .collect();
        let staged = rt
            .stage_to_graph("f", args)
            .unwrap_or_else(|e| panic!("{}: stage: {e}", p.name));
        let warnings_before: Vec<String> = rt.warnings().iter().map(|w| format!("{w:?}")).collect();

        let (reference, ref_report, ref_stats) =
            run_mode(&staged.graph, &staged.outputs, &p.feeds, Exec::Reference, 1);

        for (mode, threads) in exec::GRID {
            let (out, report, stats) =
                run_mode(&staged.graph, &staged.outputs, &p.feeds, mode, threads);
            check::assert_bitwise_eq(
                p.name,
                &format!("{mode:?} t{threads} vs Reference t1"),
                &out,
                &reference,
            );

            // running happens after staging, so the warning set
            // cannot have changed
            let warnings_now: Vec<String> =
                rt.warnings().iter().map(|w| format!("{w:?}")).collect();
            assert_eq!(
                warnings_now, warnings_before,
                "{}: {mode:?} t{threads}: conversion warnings drifted",
                p.name
            );

            // ledger balance: every byte the run allocated (arena
            // reuse included) is either freed or still live
            let alloc_delta = report.mem.allocated_bytes as i128 - report.mem.freed_bytes as i128;
            let live_delta =
                report.mem.live_bytes_end as i128 - report.mem.live_bytes_start as i128;
            assert_eq!(
                alloc_delta, live_delta,
                "{}: {mode:?} t{threads}: ledger imbalance",
                p.name
            );

            // same work accounting: the VM's dispatch counts must
            // match the reference interpreter exactly
            assert_eq!(
                stats.nodes_executed, ref_stats.nodes_executed,
                "{}: {mode:?} t{threads}: dispatch count drifted",
                p.name
            );
            assert_eq!(
                stats.while_iters, ref_stats.while_iters,
                "{}: {mode:?} t{threads}: while iterations drifted",
                p.name
            );
            assert_eq!(
                report.while_iters, ref_report.while_iters,
                "{}: {mode:?} t{threads}: report while_iters drifted",
                p.name
            );

            // every attributed cost keeps a real source span — the
            // provenance/explain contract through fused kernels
            for c in &report.node_costs {
                assert!(
                    !c.span.is_synthetic(),
                    "{}: {mode:?} t{threads}: node {} '{}' ({}) lost its span",
                    p.name,
                    c.node,
                    c.name,
                    c.op
                );
                assert!(c.evals > 0, "{}: zero-eval cost entry", p.name);
            }
            assert!(report.succeeded);
        }
    }
}

#[test]
fn vm_repeated_runs_are_bitwise_stable() {
    let _ledger = ledger_lock();
    // plan + bytecode caching across session runs: re-running the same
    // fetch set must reuse the compiled program and reproduce bits
    for p in programs() {
        let mut rt = Runtime::load(p.src, true).unwrap_or_else(|e| panic!("{}: load: {e}", p.name));
        let args: Vec<GraphArg> = p
            .feeds
            .iter()
            .map(|(n, _)| GraphArg::Placeholder((*n).to_string()))
            .collect();
        let staged = rt
            .stage_to_graph("f", args)
            .unwrap_or_else(|e| panic!("{}: stage: {e}", p.name));
        let mut sess = Session::new(staged.graph.clone());
        sess.set_threads(1);
        let first = sess
            .run(&p.feeds, &staged.outputs)
            .unwrap_or_else(|e| panic!("{}: first run: {e}", p.name));
        for i in 0..3 {
            let again = sess
                .run(&p.feeds, &staged.outputs)
                .unwrap_or_else(|e| panic!("{}: run {i}: {e}", p.name));
            check::assert_bitwise_eq(p.name, &format!("vm rerun {i}"), &again, &first);
        }
        assert_eq!(sess.stats().plan_cache_misses, 1, "{}", p.name);
        assert_eq!(sess.stats().plan_cache_hits, 3, "{}", p.name);
    }
}

#[test]
fn vm_live_memory_returns_to_baseline() {
    let _ledger = ledger_lock();
    // the VM's arena recycles buffers within a run but owns nothing
    // beyond it: after the session drops, live bytes return to where
    // they started
    autograph::tensor::mem::track_begin();
    let p = &programs()[0];
    let mut rt = Runtime::load(p.src, true).expect("load");
    let args: Vec<GraphArg> = p
        .feeds
        .iter()
        .map(|(n, _)| GraphArg::Placeholder((*n).to_string()))
        .collect();
    let staged = rt.stage_to_graph("f", args).expect("stage");
    let live0 = autograph::tensor::mem::snapshot().live_bytes;
    {
        let mut sess = Session::new(staged.graph.clone());
        sess.set_threads(1);
        for _ in 0..5 {
            sess.run(&p.feeds, &staged.outputs).expect("run");
        }
    }
    let live1 = autograph::tensor::mem::snapshot().live_bytes;
    assert_eq!(
        live0, live1,
        "live bytes did not return to baseline after VM session drop"
    );
}
