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

use autograph::graph::builder::{GraphBuilder, SubGraphBuilder};
use autograph::graph::ir::Op;
use autograph::graph::{Graph, NodeId, OpKind};
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

/// Run `fetches` on the reference interpreter, then twice on the VM at
/// each thread count of the grid; every VM output must be bitwise equal
/// to the reference. The second run catches a kernel that wrote into a
/// value the first run left behind (a feed, a constant).
fn assert_vm_matches_reference(
    name: &str,
    graph: &Graph,
    fetches: &[NodeId],
    feeds: &[(&str, Tensor)],
) {
    let mut reference: Option<Vec<Tensor>> = None;
    for (mode, threads) in exec::GRID {
        let mut sess = Session::new(graph.clone());
        sess.set_threads(threads);
        for run in 0..2 {
            let out = exec::run(&mut sess, mode, feeds, fetches, &RunOptions::default())
                .unwrap_or_else(|e| panic!("{name}: {mode:?} t{threads} run {run}: {e}"));
            match &reference {
                None => reference = Some(out),
                Some(want) => check::assert_bitwise_eq(
                    name,
                    &format!("{mode:?} t{threads} run {run} vs Reference t1"),
                    &out,
                    want,
                ),
            }
        }
    }
}

fn stage(src: &str, feeds: &[(&str, Tensor)]) -> StagedGraph {
    let mut rt = Runtime::load(src, true).expect("load");
    let args = feeds
        .iter()
        .map(|(n, _)| GraphArg::Placeholder((*n).to_string()))
        .collect();
    rt.stage_to_graph("f", args).expect("stage")
}

/// The aliasing wall: values that are read twice, returned twice, passed
/// through, shared with the caller, or read again after a consuming op.
/// A VM that moves registers and writes kernels' outputs into their
/// inputs must still compute exactly what the value-copying interpreter
/// computes.
#[test]
fn vm_matches_reference_under_aliasing() {
    let _ledger = ledger_lock();
    let x = corpus::v(corpus::wave(12, 0.3), &[3, 4]);
    let y = corpus::v(corpus::wave(4, 1.1), &[4]);
    let m = corpus::v(vec![1.0, -1.0, 0.5], &[3, 1]);
    let staged_cases = [
        (
            "register read twice by one instruction",
            "def f(x, m):\n    s = x\n    i = tf.constant(0)\n    while i < 4:\n        s = tf.tanh(s * s + 0.5)\n        s = tf.where(m > 0.0, s, s)\n        i = i + 1\n    return s\n",
            vec![("x", x.clone()), ("m", m.clone())],
        ),
        (
            "loop variable returned as two outputs",
            "def f(x):\n    a = x\n    b = x\n    i = tf.constant(0)\n    while i < 3:\n        a = tf.tanh(a + b)\n        b = a\n        i = i + 1\n    return a, b\n",
            vec![("x", x.clone())],
        ),
        (
            "parameter the condition ignores",
            "def f(x, y):\n    i = tf.constant(0)\n    while i < 5:\n        x = tf.tanh(x + y)\n        i = i + 1\n    return x\n",
            vec![("x", x.clone()), ("y", y.clone())],
        ),
        (
            "branch returns its parameter unchanged",
            "def f(x):\n    i = tf.constant(0)\n    while i < 4:\n        if tf.reduce_sum(x) > 0.0:\n            x = x - 1.0\n        i = i + 1\n    return x\n",
            vec![("x", x.clone())],
        ),
    ];
    for (name, src, feeds) in &staged_cases {
        let staged = stage(src, feeds);
        assert!(
            staged
                .graph
                .nodes
                .iter()
                .any(|n| matches!(n.op, OpKind::While { .. })),
            "{name}: the loop must stage"
        );
        assert_vm_matches_reference(name, &staged.graph, &staged.outputs, feeds);
    }

    // loop state that starts out as the caller's feeds: the first
    // iteration sees tensors the caller, the feed map and the top-level
    // registers all hold, so nothing may be written into them
    let (graph, fetches) = feed_state_loop();
    let feeds = [("s", x.clone()), ("u", x.clone()), ("c", y), ("m", m)];
    let pristine: Vec<Vec<u32>> = feeds.iter().map(|(_, t)| bits(t)).collect();
    assert_vm_matches_reference("loop state from feeds", &graph, &fetches, &feeds);
    for ((name, t), want) in feeds.iter().zip(&pristine) {
        assert_eq!(&bits(t), want, "feed '{name}' was written through");
    }

    // `ArrayPush(a0, t)` then `ArraySize(a0)`: the size must be the one
    // before the push; and a parameter two nodes bind
    let (graph, fetches) = push_then_size_loop();
    assert_vm_matches_reference("push then size", &graph, &fetches, &[("x", x)]);
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_f32()
        .expect("f32")
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// `while i < 3: s = where(m, tanh(s + c), s); u = tanh(u * c + c)`,
/// with `s` and `u` fed; returns `(s_final + s, u_final + u)` so the
/// feeds are read again after the loop.
fn feed_state_loop() -> (Graph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let s = b.placeholder("s");
    let u = b.placeholder("u");
    let c = b.placeholder("c");
    let m = b.placeholder("m");
    let i0 = b.constant(Tensor::scalar_i64(0));
    let cond_g = {
        let (mut sb, p) = SubGraphBuilder::new(5);
        let three = sb.b.constant(Tensor::scalar_i64(3));
        let lt = sb.b.add(Op::Less, vec![p[0], three]);
        sb.finish(vec![lt])
    };
    let body_g = {
        let (mut sb, p) = SubGraphBuilder::new(5);
        let (i, s, u, c, m) = (p[0], p[1], p[2], p[3], p[4]);
        let sum = sb.b.add_op(s, c);
        let h = sb.b.tanh(sum);
        let zero = sb.b.scalar(0.0);
        let keep = sb.b.add(Op::Greater, vec![m, zero]);
        let s2 = sb.b.add(Op::Select, vec![keep, h, s]);
        let uc = sb.b.mul(u, c);
        let uc2 = sb.b.add_op(uc, c);
        let u2 = sb.b.tanh(uc2);
        let one = sb.b.constant(Tensor::scalar_i64(1));
        let i2 = sb.b.add_op(i, one);
        sb.finish(vec![i2, s2, u2, c, m])
    };
    let w = b.add(
        OpKind::While {
            cond_g,
            body_g,
            max_iters: None,
        },
        vec![i0, s, u, c, m],
    );
    let s_final = b.tuple_get(w, 1);
    let u_final = b.tuple_get(w, 2);
    let s_out = b.add_op(s_final, s);
    let u_out = b.add_op(u_final, u);
    (b.finish(), vec![s_out, u_out])
}

/// `while i < 4: n = size(a); a = push(a, x * i)`, the push first in
/// program order; returns `(stack(a), n)`. The body binds `x` through two
/// `Param` nodes, one read by the product and one returned.
fn push_then_size_loop() -> (Graph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let x = b.placeholder("x");
    let i0 = b.constant(Tensor::scalar_i64(0));
    let a0 = b.add(OpKind::ArrayNew, vec![]);
    let n0 = b.constant(Tensor::scalar_i64(-1));
    let cond_g = {
        let (mut sb, p) = SubGraphBuilder::new(4);
        let four = sb.b.constant(Tensor::scalar_i64(4));
        let lt = sb.b.add(Op::Less, vec![p[0], four]);
        sb.finish(vec![lt])
    };
    let body_g = {
        let (mut sb, p) = SubGraphBuilder::new(4);
        let (i, a, x) = (p[0], p[1], p[3]);
        let fi = sb.b.cast(i, DType::F32);
        let t = sb.b.mul(x, fi);
        let a2 = sb.b.add(OpKind::ArrayPush, vec![a, t]);
        let n = sb.b.add(OpKind::ArraySize, vec![a]);
        let one = sb.b.constant(Tensor::scalar_i64(1));
        let i2 = sb.b.add_op(i, one);
        let x_again = sb.b.add(OpKind::Param(3), vec![]);
        sb.finish(vec![i2, a2, n, x_again])
    };
    let w = b.add(
        OpKind::While {
            cond_g,
            body_g,
            max_iters: None,
        },
        vec![i0, a0, n0, x],
    );
    let a = b.tuple_get(w, 1);
    let stacked = b.add(OpKind::ArrayStack, vec![a]);
    let n = b.tuple_get(w, 2);
    let n_f = b.cast(n, DType::F32);
    (b.finish(), vec![stacked, n_f])
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
