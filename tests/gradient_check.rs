//! Gradient correctness via central finite differences: the symbolic
//! graph gradients (`tf.gradients`, staged) and the eager tape gradients
//! (`tf.tape_begin`/`tf.watch`/`tf.grad`) are both checked against a
//! numerical derivative of the same loss for (1) a matmul MSE loss,
//! (2) softmax cross-entropy, and (3) a staged loop (host-counter loops
//! unroll at staging time, which is the differentiable path — `While`
//! nodes have no symbolic adjoint). The matmul adjoints are flagged
//! matmuls (`transpose_a`/`transpose_b`): checked for rank-3 operands on
//! graph, eager and Lantern, for all four flag pairs, and at second order.
//! All three backends run one op vocabulary (`autograph_tensor::op`) and
//! replay one set of rules (`autograph_tensor::grad`): the graph emitter,
//! the kernel emitter and Lantern must agree bitwise on every rule, and an
//! op with no rule fails alike on the graph and on the tape.

use autograph::eager::{Eager, EagerTensor};
use autograph::graph::grad::gradients;
use autograph::graph::ir::Op;
use autograph::graph::{GraphBuilder, NodeId, OpKind};
use autograph::lantern::compile::{symbol, Program};
use autograph::lantern::{sexpr, Engine, LValue};
use autograph::prelude::*;
use autograph::tensor::grad::{vjp, Kernels, Rule};

#[path = "support/check.rs"]
mod check;
use check::{assert_bitwise_eq, assert_close_rel};

/// Evaluate `fname` eagerly and return its scalar f32 value.
fn eager_scalar(rt: &mut Runtime, fname: &str, feeds: &[(&str, Tensor)]) -> f32 {
    let args: Vec<Value> = feeds
        .iter()
        .map(|(_, t)| Value::tensor(t.clone()))
        .collect();
    rt.call(fname, args)
        .expect("eager loss")
        .as_eager_tensor()
        .expect("tensor loss")
        .scalar_value_f32()
        .expect("scalar loss")
}

/// Central finite-difference gradient of scalar `f` at `at`.
fn fd_of(mut f: impl FnMut(&Tensor) -> f32, at: &Tensor, eps: f32) -> Vec<f32> {
    let data = at.as_f32().expect("f32 param").to_vec();
    (0..data.len())
        .map(|i| {
            let mut eval_at = |delta: f32| {
                let mut bumped = data.clone();
                bumped[i] += delta;
                f(&Tensor::from_vec(bumped, at.shape()).expect("bumped tensor"))
            };
            (eval_at(eps) - eval_at(-eps)) / (2.0 * eps)
        })
        .collect()
}

/// Central finite-difference gradient of `fname` w.r.t. `feeds[wrt]`.
fn fd_grad(
    rt: &mut Runtime,
    fname: &str,
    feeds: &[(&str, Tensor)],
    wrt: usize,
    eps: f32,
) -> Vec<f32> {
    let mut feeds2: Vec<(&str, Tensor)> = feeds.to_vec();
    let loss_at = |t: &Tensor| {
        feeds2[wrt].1 = t.clone();
        eager_scalar(rt, fname, &feeds2)
    };
    fd_of(loss_at, &feeds[wrt].1, eps)
}

/// Run `grad_fname` staged (symbolic `tf.gradients`) and eagerly
/// (`tape_fname`, the tape), then check both against finite differences.
fn check_gradients(
    src: &str,
    loss_fname: &str,
    grad_fname: &str,
    tape_fname: &str,
    feeds: &[(&str, Tensor)],
) {
    let mut rt = Runtime::load(src, true).expect("load");

    // symbolic: stage the gradient-returning function, run via Session
    let args: Vec<GraphArg> = feeds
        .iter()
        .map(|(n, _)| GraphArg::Placeholder((*n).to_string()))
        .collect();
    let staged = rt.stage_to_graph(grad_fname, args).expect("stage grads");
    let mut sess = Session::new(staged.graph);
    let symbolic = sess.run(feeds, &staged.outputs).expect("staged grad run");
    let symbolic = symbolic[0].as_f32().expect("f32 grads");

    // eager tape on the same loss
    let tape_args: Vec<Value> = feeds
        .iter()
        .map(|(_, t)| Value::tensor(t.clone()))
        .collect();
    let tape = rt
        .call(tape_fname, tape_args)
        .expect("tape grad")
        .as_eager_tensor()
        .expect("tensor grad");
    let tape = tape.as_f32().expect("f32 grads");

    // numerical reference
    let fd = fd_grad(&mut rt, loss_fname, feeds, 0, 5e-3);

    // FD sets the achievable precision against the numerical reference;
    // symbolic and tape differentiate identical kernels — tight match
    assert_close_rel(grad_fname, "symbolic vs fd", symbolic, &fd, 1e-2);
    assert_close_rel(tape_fname, "tape vs fd", tape, &fd, 1e-2);
    assert_close_rel(grad_fname, "symbolic vs tape", symbolic, tape, 1e-5);
}

#[test]
fn matmul_mse_gradients_match_finite_differences() {
    let src = "\
def loss(w, x, y):
    err = tf.matmul(x, w) - y
    return tf.reduce_mean(tf.square(err))

def loss_grad(w, x, y):
    err = tf.matmul(x, w) - y
    l = tf.reduce_mean(tf.square(err))
    g = tf.gradients(l, [w])
    return g[0]

def loss_tape(w, x, y):
    tf.tape_begin()
    w = tf.watch(w)
    err = tf.matmul(x, w) - y
    l = tf.reduce_mean(tf.square(err))
    g = tf.grad(l, [w])
    return g[0]
";
    let mut rng = Rng64::new(3);
    let feeds = [
        ("w", rng.normal_tensor(&[3, 2], 0.5)),
        ("x", rng.normal_tensor(&[4, 3], 1.0)),
        ("y", rng.normal_tensor(&[4, 2], 1.0)),
    ];
    check_gradients(src, "loss", "loss_grad", "loss_tape", &feeds);
}

#[test]
fn softmax_cross_entropy_gradients_match_finite_differences() {
    let src = "\
def loss(w, x, labels):
    logits = tf.matmul(x, w)
    return tf.softmax_cross_entropy(logits, labels)

def loss_grad(w, x, labels):
    logits = tf.matmul(x, w)
    l = tf.softmax_cross_entropy(logits, labels)
    g = tf.gradients(l, [w])
    return g[0]

def loss_tape(w, x, labels):
    tf.tape_begin()
    w = tf.watch(w)
    logits = tf.matmul(x, w)
    l = tf.softmax_cross_entropy(logits, labels)
    g = tf.grad(l, [w])
    return g[0]
";
    let mut rng = Rng64::new(11);
    // integer class labels over 3 classes for 4 examples (the kernel
    // takes indices and returns the batch mean directly)
    let labels = Tensor::from_vec_i64(vec![0, 1, 2, 1], &[4]).unwrap();
    let feeds = [
        ("w", rng.normal_tensor(&[5, 3], 0.4)),
        ("x", rng.normal_tensor(&[4, 5], 1.0)),
        ("labels", labels),
    ];
    check_gradients(src, "loss", "loss_grad", "loss_tape", &feeds);
}

#[test]
fn broadcasted_div_sub_gradients_match_finite_differences() {
    // w is rank-1 [3] against x, y of shape [4, 3]: the sub and div both
    // broadcast, so the backward pass must sum the adjoint back down to
    // w's shape (SumToShape on the graph, sum_to on the eager tape). The
    // divisor is square(w) + 1 >= 1, keeping the quotient well-conditioned
    // for finite differences.
    let src = "\
def loss(w, x, y):
    pred = x / (tf.square(w) + 1.0) - w
    err = pred - y
    return tf.reduce_mean(tf.square(err))

def loss_grad(w, x, y):
    pred = x / (tf.square(w) + 1.0) - w
    err = pred - y
    l = tf.reduce_mean(tf.square(err))
    g = tf.gradients(l, [w])
    return g[0]

def loss_tape(w, x, y):
    tf.tape_begin()
    w = tf.watch(w)
    pred = x / (tf.square(w) + 1.0) - w
    err = pred - y
    l = tf.reduce_mean(tf.square(err))
    g = tf.grad(l, [w])
    return g[0]
";
    let mut rng = Rng64::new(5);
    let feeds = [
        ("w", rng.normal_tensor(&[3], 0.6)),
        ("x", rng.normal_tensor(&[4, 3], 1.0)),
        ("y", rng.normal_tensor(&[4, 3], 1.0)),
    ];
    check_gradients(src, "loss", "loss_grad", "loss_tape", &feeds);
}

#[test]
fn axis_reduction_gradients_match_finite_differences() {
    // Axis reductions in both positions: a column mean (axis 0) and a row
    // sum (axis 1) feed the scalar loss, so the backward pass has to
    // re-expand the reduced dimension and (for the mean) divide by its
    // size — symbolically via ExpandDims/BroadcastLike and on the eager
    // tape via the reduce_*_axis registry ops.
    let src = "\
def loss(w, x):
    h = tf.tanh(tf.matmul(x, w))
    col = tf.reduce_mean(h, 0)
    row = tf.reduce_sum(tf.square(h), 1)
    return tf.reduce_sum(tf.square(col)) + tf.reduce_mean(row)

def loss_grad(w, x):
    h = tf.tanh(tf.matmul(x, w))
    col = tf.reduce_mean(h, 0)
    row = tf.reduce_sum(tf.square(h), 1)
    l = tf.reduce_sum(tf.square(col)) + tf.reduce_mean(row)
    g = tf.gradients(l, [w])
    return g[0]

def loss_tape(w, x):
    tf.tape_begin()
    w = tf.watch(w)
    h = tf.tanh(tf.matmul(x, w))
    col = tf.reduce_mean(h, 0)
    row = tf.reduce_sum(tf.square(h), 1)
    l = tf.reduce_sum(tf.square(col)) + tf.reduce_mean(row)
    g = tf.grad(l, [w])
    return g[0]
";
    let mut rng = Rng64::new(13);
    let feeds = [
        ("w", rng.normal_tensor(&[3, 3], 0.5)),
        ("x", rng.normal_tensor(&[4, 3], 1.0)),
    ];
    check_gradients(src, "loss", "loss_grad", "loss_tape", &feeds);
}

/// `d/dx [sum(op(x)^2) + sum(x)]` for a shape or dtype op wrapped around
/// `x`: the eager tape must carry the gradient through `op` exactly as
/// `tf.gradients` does, not drop it and leave only the `sum(x)` term.
fn check_op_gradient(op: &str, x: Tensor) {
    let body = format!("tf.reduce_sum(tf.square({op})) + tf.reduce_sum(x)");
    let src = format!(
        "def loss(x):\n    return {body}\n\n\
         def loss_grad(x):\n    g = tf.gradients({body}, [x])\n    return g[0]\n\n\
         def loss_tape(x):\n    tf.tape_begin()\n    x = tf.watch(x)\n    \
         g = tf.grad({body}, [x])\n    return g[0]\n"
    );
    check_gradients(&src, "loss", "loss_grad", "loss_tape", &[("x", x)]);
}

fn probe() -> Tensor {
    Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap()
}

#[test]
fn reshape_gradient_reaches_the_tape() {
    check_op_gradient("tf.reshape(x, (4,))", probe());
}

#[test]
fn transpose_gradient_reaches_the_tape() {
    check_op_gradient("tf.transpose(x, (1, 0))", probe());
}

#[test]
fn expand_dims_gradient_reaches_the_tape() {
    check_op_gradient("tf.expand_dims(x, 1)", probe());
}

#[test]
fn squeeze_gradient_reaches_the_tape() {
    let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap();
    check_op_gradient("tf.squeeze(x, 0)", x);
}

#[test]
fn cast_gradient_reaches_the_tape() {
    check_op_gradient("tf.cast(x, tf.float32)", probe());
}

#[test]
fn stack_gradient_reaches_the_tape() {
    check_op_gradient("tf.stack([x, x])", probe());
}

#[test]
fn staged_loop_gradients_match_finite_differences() {
    // The eager tape differentiates through the actual while loop (it
    // unrolls as it executes). Staging converts the loop into a `While`
    // node, which has no symbolic adjoint, so the staged gradient
    // function writes the three iterations out explicitly — the same
    // computation the loop performs, differentiated symbolically.
    let src = "\
def loss(w, x):
    i = 0
    while i < 3:
        x = tf.tanh(tf.matmul(x, w))
        i = i + 1
    return tf.reduce_mean(tf.square(x))

def loss_grad(w, x):
    x = tf.tanh(tf.matmul(x, w))
    x = tf.tanh(tf.matmul(x, w))
    x = tf.tanh(tf.matmul(x, w))
    l = tf.reduce_mean(tf.square(x))
    g = tf.gradients(l, [w])
    return g[0]

def loss_tape(w, x):
    tf.tape_begin()
    w = tf.watch(w)
    i = 0
    while i < 3:
        x = tf.tanh(tf.matmul(x, w))
        i = i + 1
    l = tf.reduce_mean(tf.square(x))
    g = tf.grad(l, [w])
    return g[0]
";
    let mut rng = Rng64::new(21);
    let feeds = [
        ("w", rng.normal_tensor(&[3, 3], 0.4)),
        ("x", rng.normal_tensor(&[2, 3], 1.0)),
    ];
    check_gradients(src, "loss", "loss_grad", "loss_tape", &feeds);
}

#[test]
fn batched_matmul_gradients_match_finite_differences() {
    // rank-3 operands: the adjoints are flagged matmuls over the trailing
    // two axes, so the batch axis passes straight through (a
    // `Transpose([1, 0])` or `t()` of a rank-3 operand is a rank error)
    let src = "\
def loss(w, x, y):
    err = tf.matmul(x, w) - y
    return tf.reduce_mean(tf.square(err))

def loss_grad(w, x, y):
    err = tf.matmul(x, w) - y
    l = tf.reduce_mean(tf.square(err))
    g = tf.gradients(l, [w])
    return g[0]

def loss_tape(w, x, y):
    tf.tape_begin()
    w = tf.watch(w)
    err = tf.matmul(x, w) - y
    l = tf.reduce_mean(tf.square(err))
    g = tf.grad(l, [w])
    return g[0]

def x_grad(x, w, y):
    err = tf.matmul(x, w) - y
    l = tf.reduce_mean(tf.square(err))
    g = tf.gradients(l, [x])
    return g[0]

def x_tape(x, w, y):
    tf.tape_begin()
    x = tf.watch(x)
    err = tf.matmul(x, w) - y
    l = tf.reduce_mean(tf.square(err))
    g = tf.grad(l, [x])
    return g[0]

def x_loss(x, w, y):
    return loss(w, x, y)
";
    let mut rng = Rng64::new(17);
    let w = rng.normal_tensor(&[2, 4, 5], 0.5);
    let x = rng.normal_tensor(&[2, 3, 4], 1.0);
    let y = rng.normal_tensor(&[2, 3, 5], 1.0);
    let by_w = [("w", w.clone()), ("x", x.clone()), ("y", y.clone())];
    check_gradients(src, "loss", "loss_grad", "loss_tape", &by_w);
    let by_x = [("x", x.clone()), ("w", w.clone()), ("y", y.clone())];
    check_gradients(src, "x_loss", "x_grad", "x_tape", &by_x);

    // Lantern: the same loss, both operands as parameters
    let program = autograph::lantern::sexpr::parse(
        "(program (reduce_mean (square (sub (matmul (param x) (param w)) (extern y)))))",
    )
    .expect("parse");
    let engine = Engine::new(autograph::lantern::Program::compile(&program).expect("compile"));
    let params = [("x", x), ("w", w)];
    let (_, grads) = engine
        .grad(&[("y", LValue::tensor(y))], &params)
        .expect("lantern batched matmul gradient");
    let mut rt = Runtime::load(src, false).expect("load");
    let fd_x = fd_grad(&mut rt, "x_loss", &by_x, 0, 5e-3);
    let fd_w = fd_grad(&mut rt, "loss", &by_w, 0, 5e-3);
    assert_close_rel(
        "lantern",
        "dx vs fd",
        grads[0].as_f32().unwrap(),
        &fd_x,
        1e-2,
    );
    assert_close_rel(
        "lantern",
        "dw vs fd",
        grads[1].as_f32().unwrap(),
        &fd_w,
        1e-2,
    );
}

/// `sum(square(op(a) · op(b)))` through the tensor kernel: the
/// finite-difference side of the flagged checks, whose symbolic side is
/// built with the graph builder (PyLite has no transpose keyword).
fn flagged_matmul_loss(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> f32 {
    let prod = a.matmul_t(b, ta, tb).expect("matmul_t");
    prod.as_f32().expect("f32").iter().map(|v| v * v).sum()
}

#[test]
fn flagged_matmul_gradients_match_finite_differences_in_all_four_cases() {
    let mut rng = Rng64::new(29);
    for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
        // op(a) is [3, 4], op(b) is [4, 2]
        let a = rng.normal_tensor(if ta { &[4, 3] } else { &[3, 4] }, 0.7);
        let b = rng.normal_tensor(if tb { &[2, 4] } else { &[4, 2] }, 0.7);
        let mut g = GraphBuilder::new();
        let (pa, pb) = (g.placeholder("a"), g.placeholder("b"));
        let prod = g.matmul_t(pa, pb, ta, tb);
        let sq = g.add(Op::Square, vec![prod]);
        let loss = g.add(Op::ReduceSum(None), vec![sq]);
        let grads = gradients(&mut g, loss, &[pa, pb]).expect("gradients");
        let graph = g.finish();
        assert!(
            !graph
                .nodes
                .iter()
                .any(|n| matches!(n.op, OpKind::Tensor(Op::Transpose(_)))),
            "({ta}, {tb}): the adjoint materialises a transpose"
        );
        let mut sess = Session::new(graph);
        let feeds = [("a", a.clone()), ("b", b.clone())];
        let got = sess.run(&feeds, &grads).expect("run");
        let what = format!("matmul_t({ta}, {tb})");
        let fd_a = fd_of(|a| flagged_matmul_loss(a, &b, ta, tb), &a, 5e-3);
        let fd_b = fd_of(|b| flagged_matmul_loss(&a, b, ta, tb), &b, 5e-3);
        assert_close_rel(&what, "da vs fd", got[0].as_f32().unwrap(), &fd_a, 1e-2);
        assert_close_rel(&what, "db vs fd", got[1].as_f32().unwrap(), &fd_b, 1e-2);
    }
}

#[test]
fn second_order_matmul_gradient_matches_finite_differences() {
    // grad-of-grad differentiates the flagged adjoints themselves (the
    // MAML path): h(w) = sum(square(d/dw sum(square(x · w)))), checked
    // against finite differences of the first-order symbolic gradient
    let mut rng = Rng64::new(31);
    let x = rng.normal_tensor(&[3, 4], 0.7);
    let w = rng.normal_tensor(&[4, 2], 0.7);
    let mut g = GraphBuilder::new();
    let (px, pw) = (g.placeholder("x"), g.placeholder("w"));
    let prod = g.matmul(px, pw);
    let sq = g.add(Op::Square, vec![prod]);
    let inner = g.add(Op::ReduceSum(None), vec![sq]);
    let dw = gradients(&mut g, inner, &[pw]).expect("first order")[0];
    let dw_sq = g.add(Op::Square, vec![dw]);
    let outer = g.add(Op::ReduceSum(None), vec![dw_sq]);
    let ddw = gradients(&mut g, outer, &[pw]).expect("second order")[0];
    let graph = g.finish();
    assert!(!graph
        .nodes
        .iter()
        .any(|n| matches!(n.op, OpKind::Tensor(Op::Transpose(_)))));
    let mut sess = Session::new(graph);
    let h = |w: &Tensor| {
        let feeds = [("x", x.clone()), ("w", w.clone())];
        let first = sess.run(&feeds, &[dw]).expect("first-order run");
        first[0].as_f32().unwrap().iter().map(|v| v * v).sum()
    };
    let fd = fd_of(h, &w, 5e-3);
    let feeds = [("x", x.clone()), ("w", w.clone())];
    let got = sess.run(&feeds, &[ddw]).expect("second-order run");
    assert_close_rel(
        "second order",
        "ddw vs fd",
        got[0].as_f32().unwrap(),
        &fd,
        2e-2,
    );
}

/// The staged (`tf.gradients`) and tape (`tf.grad`) gradients of
/// `d/dx [body]` at `x`, or each one's error message.
fn staged_and_tape(body: &str, x: Tensor) -> [Result<Vec<f32>, String>; 2] {
    let src = format!(
        "def loss_grad(x):\n    g = tf.gradients({body}, [x])\n    return g[0]\n\n\
         def loss_tape(x):\n    tf.tape_begin()\n    x = tf.watch(x)\n    \
         g = tf.grad({body}, [x])\n    return g[0]\n"
    );
    let mut rt = Runtime::load(&src, true).expect("load");
    let staged = rt
        .stage_to_graph("loss_grad", vec![GraphArg::Placeholder("x".into())])
        .map_err(|e| e.to_string())
        .and_then(|s| {
            let mut sess = Session::new(s.graph);
            let out = sess.run(&[("x", x.clone())], &s.outputs);
            out.map(|t| t[0].to_f32_vec()).map_err(|e| e.to_string())
        });
    let tape = rt
        .call("loss_tape", vec![Value::tensor(x)])
        .and_then(|v| v.as_eager_tensor())
        .map(|t| t.to_f32_vec())
        .map_err(|e| e.to_string());
    [staged, tape]
}

#[test]
fn stop_gradient_blocks_the_tape_as_it_blocks_the_graph() {
    // only the sum(x) term reaches x: [1, 1], not 2x + 1 = [3, 5]
    let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
    let body = "tf.reduce_sum(tf.square(tf.stop_gradient(x))) + tf.reduce_sum(x)";
    for (backend, got) in ["graph", "tape"].into_iter().zip(staged_and_tape(body, x)) {
        assert_eq!(got.expect(backend), [1.0, 1.0], "{backend}");
    }
}

#[test]
fn ops_without_a_rule_fail_alike_on_graph_and_tape() {
    let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
    for (op, call) in [
        ("softmax", "tf.softmax(x)"),
        ("log_softmax", "tf.log_softmax(x)"),
        ("reduce_max", "tf.reduce_max(x, 1)"),
        ("gather", "tf.gather(x, tf.constant([1, 0]))"),
    ] {
        let body = format!("tf.reduce_sum(tf.square({call})) + tf.reduce_sum(x)");
        let want = format!("no gradient registered for op '{op}'");
        let got = staged_and_tape(&body, x.clone());
        for (backend, got) in ["graph", "tape"].into_iter().zip(got) {
            let err = got.expect_err(&format!("{op} on the {backend} has a gradient"));
            assert!(err.contains(&want), "{op} on the {backend}: {err}");
        }
    }
}

#[test]
fn a_loss_reached_only_through_a_comparison_has_zero_gradients() {
    // eager: reduce_sum(cast(x > 0) * c) is tracked, but a comparison
    // passes no adjoint back to x
    let e = Eager::new();
    e.start_tape();
    let x = Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap();
    let x = e.watch(&EagerTensor::from(x)).unwrap();
    let zero = EagerTensor::from(Tensor::scalar_f32(0.0));
    let pos = e.op("greater", &[&x, &zero]).unwrap();
    let mask = e.apply(&Op::Cast(DType::F32), &[&pos]).unwrap();
    let scaled = e.mul(&mask, &EagerTensor::from(Tensor::scalar_f32(3.0)));
    let loss = e.op("reduce_sum", &[&scaled.unwrap()]).unwrap();
    let grads = e.gradient(&loss, &[&x]).expect("eager gradient");
    assert_eq!(grads[0].as_f32().unwrap(), &[0.0, 0.0]);

    // Lantern has no cast: the loss is the comparison itself
    let src = "(program (gt (reduce_sum (mul (param w) (extern c))) 0))";
    let engine = Engine::new(Program::compile(&sexpr::parse(src).unwrap()).unwrap());
    let w = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
    let c = LValue::scalar(3.0);
    let (_, grads) = engine
        .grad(&[("c", c)], &[("w", w)])
        .expect("lantern gradient");
    assert_eq!(grads[0].as_f32().unwrap(), &[0.0, 0.0]);
}

#[test]
fn concat_differentiates_alike_on_graph_and_tape() {
    // each part's gradient is its cut of the adjoint: 2x, along either axis
    let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
    for body in [
        "tf.reduce_sum(tf.square(tf.concat([x, tf.constant([[3.0, 4.0]])], 0)))",
        "tf.reduce_sum(tf.square(tf.concat([tf.constant([[3.0]]), x], 1)))",
    ] {
        for (backend, got) in ["graph", "tape"]
            .into_iter()
            .zip(staged_and_tape(body, x.clone()))
        {
            assert_eq!(got.expect(backend), [2.0, 4.0], "{backend}: {body}");
        }
    }
}

/// Every rule variant, numbered: a new one fails to compile here until
/// the emitter test below covers it.
fn variant(rule: &Rule) -> usize {
    match rule {
        Rule::Zero => 0,
        Rule::Identity => 1,
        Rule::Add => 2,
        Rule::Sub => 3,
        Rule::Mul => 4,
        Rule::Div => 5,
        Rule::Pow => 6,
        Rule::Maximum => 7,
        Rule::Minimum => 8,
        Rule::Neg => 9,
        Rule::Abs => 10,
        Rule::Exp => 11,
        Rule::Log => 12,
        Rule::Sqrt => 13,
        Rule::Square => 14,
        Rule::Tanh => 15,
        Rule::Sigmoid => 16,
        Rule::Relu => 17,
        Rule::SoftmaxXent => 18,
        Rule::Select => 19,
        Rule::MatMul { .. } => 20,
        Rule::Transpose(_) => 21,
        Rule::Reshape => 22,
        Rule::ReduceSum(_) => 23,
        Rule::ReduceMean(_) => 24,
        Rule::Stack => 25,
        Rule::SumToShape => 26,
        Rule::BroadcastLike => 27,
        Rule::Concat(_) => 28,
    }
}

/// One op per case with inputs to differentiate it at, covering every
/// rule.
fn rule_cases() -> Vec<(Op, Vec<Tensor>)> {
    let mut rng = Rng64::new(41);
    let mut n = |shape: &[usize]| rng.normal_tensor(shape, 1.0);
    let pos = |t: Tensor| t.abs().unwrap().add(&Tensor::scalar_f32(0.5)).unwrap();
    let cond = Tensor::from_vec_bool(vec![true, false, false, true, true, false], &[2, 3]).unwrap();
    let labels = Tensor::from_vec_i64(vec![0, 2, 1, 2], &[4]).unwrap();
    let mut cases: Vec<(Op, Vec<Tensor>)> = vec![
        (Op::Add, vec![n(&[3, 4]), n(&[4])]),
        (Op::Sub, vec![n(&[3, 1]), n(&[1, 4])]),
        (Op::Mul, vec![n(&[2, 3]), n(&[])]),
        (Op::Div, vec![n(&[2, 3]), pos(n(&[3]))]),
        (Op::Pow, vec![pos(n(&[2, 3])), n(&[3])]),
        (Op::Maximum, vec![n(&[2, 3]), n(&[3])]),
        (Op::Minimum, vec![n(&[2, 1]), n(&[2, 3])]),
        (Op::Neg, vec![n(&[2, 3])]),
        (Op::Abs, vec![n(&[2, 3])]),
        (Op::Exp, vec![n(&[2, 3])]),
        (Op::Log, vec![pos(n(&[2, 3]))]),
        (Op::Sqrt, vec![pos(n(&[2, 3]))]),
        (Op::Square, vec![n(&[2, 3])]),
        (Op::Tanh, vec![n(&[2, 3])]),
        (Op::Sigmoid, vec![n(&[2, 3])]),
        (Op::Relu, vec![n(&[2, 3])]),
        (Op::SoftmaxCrossEntropy, vec![n(&[4, 3]), labels]),
        (Op::Select, vec![cond.clone(), n(&[3]), n(&[2, 3])]),
        (Op::Select, vec![cond, n(&[2, 3]), n(&[])]),
        (Op::Transpose(vec![1, 2, 0]), vec![n(&[2, 3, 4])]),
        (Op::Reshape(vec![6]), vec![n(&[2, 3])]),
        (Op::ExpandDims(-1), vec![n(&[2, 3])]),
        (Op::Squeeze(Some(0)), vec![n(&[1, 3])]),
        (Op::Cast(DType::F32), vec![n(&[2, 3])]),
        (Op::ReshapeLike, vec![n(&[6]), n(&[2, 3])]),
        (Op::Identity, vec![n(&[2, 3])]),
        (Op::StopGradient, vec![n(&[2, 3])]),
        (Op::Less, vec![n(&[2, 3]), n(&[3])]),
        (Op::ReduceSum(None), vec![n(&[2, 3])]),
        (Op::ReduceSum(Some(-1)), vec![n(&[2, 3])]),
        (Op::ReduceMean(None), vec![n(&[2, 3])]),
        (Op::ReduceMean(Some(0)), vec![n(&[2, 3])]),
        (Op::StackOp, vec![n(&[2, 3]), n(&[2, 3]), n(&[2, 3])]),
        (Op::SumToShape, vec![n(&[2, 3]), n(&[3])]),
        (Op::BroadcastLike, vec![n(&[3]), n(&[2, 3])]),
        (Op::Concat(0), vec![n(&[1, 3]), n(&[2, 3])]),
        (Op::Concat(-1), vec![n(&[2, 1]), n(&[2, 3]), n(&[2, 2])]),
        (Op::Concat(1), vec![n(&[2, 2]), n(&[2, 3])]),
    ];
    for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
        // op(a) is [2, 3, 4] and op(b) is [2, 4, 5]: batched, both flags
        let a = n(if ta { &[2, 4, 3] } else { &[2, 3, 4] });
        let b = n(if tb { &[2, 5, 4] } else { &[2, 4, 5] });
        let op = Op::MatMul {
            transpose_a: ta,
            transpose_b: tb,
        };
        cases.push((op, vec![a, b]));
    }
    cases
}

#[test]
fn every_rule_agrees_bitwise_between_graph_and_kernel_emitters() {
    let mut adjoints = Rng64::new(43);
    let mut covered = Vec::new();
    for (op, inputs) in rule_cases() {
        let rule = op.rule().expect("the op has a rule");
        covered.push(variant(&rule));
        let mut g = GraphBuilder::new();
        let names: Vec<String> = (0..inputs.len()).map(|i| format!("x{i}")).collect();
        let xs: Vec<NodeId> = names.iter().map(|name| g.placeholder(name)).collect();
        let y = g.add(op.clone(), xs.clone());
        let dy = g.placeholder("dy");
        let graph = vjp(&mut g, &rule, &xs, &y, &dy).expect("graph vjp");
        let mut sess = Session::new(g.finish());
        let mut feeds: Vec<(&str, Tensor)> = names
            .iter()
            .map(String::as_str)
            .zip(inputs.iter().cloned())
            .collect();
        let out = sess.run(&feeds, &[y]).expect("forward")[0].clone();
        let dout = adjoints.normal_tensor(out.shape(), 1.0);
        feeds.push(("dy", dout.clone()));

        let kernels = vjp(&mut Kernels, &rule, &inputs, &out, &dout).expect("kernel vjp");
        let (which, fetch): (Vec<usize>, Vec<NodeId>) = graph.into_iter().unzip();
        let (kernel_which, want): (Vec<usize>, Vec<Tensor>) = kernels.into_iter().unzip();
        assert_eq!(which, kernel_which, "{op:?}: contributions");
        for threads in [1, 4] {
            sess.set_threads(threads);
            let got = match fetch.is_empty() {
                true => vec![],
                false => sess.run(&feeds, &fetch).expect("graph adjoint"),
            };
            assert_bitwise_eq(
                &format!("{op:?}"),
                &format!("threads {threads}"),
                &got,
                &want,
            );
        }
    }
    covered.sort_unstable();
    covered.dedup();
    let last = variant(&Rule::Concat(0));
    assert_eq!(covered, (0..=last).collect::<Vec<_>>(), "every rule");
}

#[test]
fn lantern_gradients_agree_bitwise_with_the_kernel_emitter() {
    // loss = sum(op(x...) * dy): the adjoint reaching the op is dy, so
    // each f32 input's gradient is the op's contribution to it (or zeros)
    let mut adjoints = Rng64::new(47);
    let mut checked = Vec::new();
    for (op, inputs) in rule_cases() {
        let (Some(sym), Some(rule)) = (symbol(&op), op.rule()) else {
            continue;
        };
        if rule == Rule::Zero {
            continue; // a comparison: its bool output reaches no loss
        }
        let names: Vec<String> = (0..inputs.len()).map(|i| format!("x{i}")).collect();
        let is_param = |t: &Tensor| t.dtype() == DType::F32;
        let args: Vec<String> = names
            .iter()
            .zip(&inputs)
            .map(|(name, t)| match is_param(t) {
                true => format!("(param {name})"),
                false => format!("(extern {name})"),
            })
            .collect();
        let src = format!(
            "(program (reduce_sum (mul ({sym} {}) (extern dy))))",
            args.join(" ")
        );
        let engine = Engine::new(Program::compile(&sexpr::parse(&src).unwrap()).unwrap());
        let out = op.apply(&mut inputs.clone()[..]).expect("forward");
        let dout = adjoints.normal_tensor(out.shape(), 1.0);
        let mut externs = vec![("dy", LValue::tensor(dout.clone()))];
        let mut params = Vec::new();
        for (name, t) in names.iter().zip(&inputs) {
            match is_param(t) {
                true => params.push((name.as_str(), t.clone())),
                false => externs.push((name.as_str(), LValue::tensor(t.clone()))),
            }
        }
        let (_, got) = engine.grad(&externs, &params).expect("lantern grad");
        let kernels = vjp(&mut Kernels, &rule, &inputs, &out, &dout).expect("kernel vjp");
        let want: Vec<Tensor> = (0..inputs.len())
            .filter(|&i| is_param(&inputs[i]))
            .map(|i| match kernels.iter().find(|(j, _)| *j == i) {
                Some((_, g)) => g.clone(),
                None => Tensor::zeros(DType::F32, inputs[i].shape()),
            })
            .collect();
        assert_bitwise_eq(&format!("{op:?}"), "lantern", &got, &want);
        checked.push(sym);
    }
    checked.dedup();
    let want = [
        "add",
        "sub",
        "mul",
        "div",
        "neg",
        "exp",
        "log",
        "sqrt",
        "square",
        "tanh",
        "sigmoid",
        "relu",
        "softmax_xent",
        "reduce_sum",
        "reduce_mean",
        "concat0",
        "concat1",
        "matmul",
    ];
    assert_eq!(checked, want, "every differentiable Lantern op");
}
