//! Determinism across thread counts: a reduction-heavy graph run
//! repeatedly at varying thread counts must produce results **bitwise
//! identical** to the single-threaded run. Kernels split into disjoint
//! index chunks over the worker pool, but never change any per-element
//! accumulation order and never accumulate through atomics — so
//! floating-point results cannot drift with the thread count.

use autograph::graph::builder::GraphBuilder;
use autograph::graph::ir::{Graph, NodeId, Op};
use autograph::prelude::*;

/// A wide graph of independent reduction chains folded into one scalar:
/// `sum_k reduce_sum(tanh(x W_k + b_k))`, plus a reduce-mean/max mix so
/// several reduction kernels are on the hot path.
fn reduction_heavy_graph(branches: usize) -> (Graph, Vec<NodeId>) {
    let mut rng = Rng64::new(1234);
    let mut b = GraphBuilder::new();
    let x = b.placeholder("x");
    let mut partials = Vec::with_capacity(branches);
    for _ in 0..branches {
        let w = b.constant(rng.normal_tensor(&[16, 16], 0.5));
        let bias = b.constant(rng.normal_tensor(&[16], 0.1));
        let xw = b.matmul(x, w);
        let act0 = b.add_op(xw, bias);
        let act = b.tanh(act0);
        let s = b.add(Op::ReduceSum(None), vec![act]);
        let m = b.add(Op::ReduceMean(None), vec![act]);
        let mx = b.add(Op::ReduceMax(None), vec![act]);
        let sm = b.add_op(s, m);
        partials.push(b.add_op(sm, mx));
    }
    // fold in fixed left-to-right order (the addition order is part of
    // the determinism contract)
    let mut total = partials[0];
    for &p in &partials[1..] {
        total = b.add_op(total, p);
    }
    (b.finish(), vec![total])
}

#[test]
fn parallel_runs_bitwise_identical_to_sequential() {
    let (g, fetches) = reduction_heavy_graph(12);
    let mut rng = Rng64::new(77);
    let x = rng.normal_tensor(&[16, 16], 1.0);
    let feeds = [("x", x)];

    let mut seq = Session::new(g.clone());
    seq.set_threads(1);
    let reference = seq.run(&feeds, &fetches).expect("sequential run");
    let ref_bits: Vec<u32> = reference[0]
        .as_f32()
        .expect("f32 output")
        .iter()
        .map(|v| v.to_bits())
        .collect();

    // 50 parallel runs across varying thread counts, every one must
    // reproduce the sequential bits exactly
    let thread_counts = [2usize, 3, 4, 8];
    for run in 0..50 {
        let threads = thread_counts[run % thread_counts.len()];
        let mut sess = Session::new(g.clone());
        sess.set_threads(threads);
        let out = sess.run(&feeds, &fetches).expect("parallel run");
        let bits: Vec<u32> = out[0]
            .as_f32()
            .expect("f32 output")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            bits, ref_bits,
            "run {run} at threads={threads} diverged from sequential"
        );
    }
}

#[test]
fn parallel_staged_loop_bitwise_identical() {
    // the same guarantee through the full pipeline: a staged while loop
    // with several independent expressions per iteration
    let src = "\
def f(x, w):
    i = 0
    while i < 8:
        a = tf.tanh(tf.matmul(x, w))
        b = tf.sigmoid(tf.matmul(x, w))
        c = tf.relu(x - w)
        x = a + b * 0.5 + c * 0.25
        i = i + 1
    return x
";
    let mut rt = Runtime::load(src, true).expect("load");
    let staged = rt
        .stage_to_graph(
            "f",
            vec![
                GraphArg::Placeholder("x".into()),
                GraphArg::Placeholder("w".into()),
            ],
        )
        .expect("stage");
    let mut rng = Rng64::new(9);
    let feeds = [
        ("x", rng.normal_tensor(&[8, 8], 1.0)),
        ("w", rng.normal_tensor(&[8, 8], 0.5)),
    ];
    let mut seq = Session::new(staged.graph.clone());
    seq.set_threads(1);
    let reference = seq.run(&feeds, &staged.outputs).expect("sequential run");
    for threads in [2usize, 4, 8] {
        let mut sess = Session::new(staged.graph.clone());
        sess.set_threads(threads);
        let out = sess.run(&feeds, &staged.outputs).expect("parallel run");
        for (r, o) in reference.iter().zip(&out) {
            assert_eq!(r.shape(), o.shape());
            for (a, b) in r.as_f32().unwrap().iter().zip(o.as_f32().unwrap()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads} diverged");
            }
        }
    }
}
