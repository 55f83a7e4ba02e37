//! Table 2 — a single linear layer trained on (synthetic) MNIST with SGD,
//! in the paper's four configurations:
//!
//! 1. **Eager** — model *and* loop interpreted, gradient tape per step;
//! 2. **Model In Graph, Loop In Python** — the traditional TensorFlow
//!    pattern: a single-step graph executed repeatedly by a host loop
//!    (one `Session::run` per step);
//! 3. **Model And Loop In Graph** — a handwritten in-graph `while` loop
//!    running all steps in one `Session::run`;
//! 4. **Model And Loop In AutoGraph** — the imperative training loop
//!    below, converted and staged into the same all-in-graph form.
//!
//! The training data cycles through `num_batches` pre-generated batches so
//! every configuration sees identical inputs.

use autograph_graph::builder::{GraphBuilder, SubGraphBuilder};
use autograph_graph::grad::gradients;
use autograph_graph::ir::{Graph, NodeId, Op, OpKind};
use autograph_graph::Session;
use autograph_runtime::runtime::GraphArg;
use autograph_runtime::{Runtime, RuntimeError, Value};
use autograph_tensor::{Rng64, Tensor};

/// Number of distinct batches the loop cycles through.
pub const NUM_BATCHES: usize = 10;
/// SGD learning rate.
pub const LR: f32 = 0.02;

/// The imperative training code (the AutoGraph configuration), plus the
/// eager-tape variant of the same loop.
pub const TRAIN_SRC: &str = "\
def train_loop(images, labels, w, b, steps):
    i = 0
    while i < steps:
        idx = i % num_batches
        x = images[idx]
        y = labels[idx]
        logits = tf.matmul(x, w) + b
        loss = tf.softmax_cross_entropy(logits, y)
        grads = tf.gradients(loss, [w, b])
        w = w - grads[0] * lr
        b = b - grads[1] * lr
        i = i + 1
    return w, b

def train_eager(images, labels, w, b, steps):
    i = 0
    while i < steps:
        idx = i % num_batches
        x = images[idx]
        y = labels[idx]
        tf.tape_begin()
        w = tf.watch(w)
        b = tf.watch(b)
        logits = tf.matmul(x, w) + b
        loss = tf.softmax_cross_entropy(logits, y)
        grads = tf.grad(loss, [w, b])
        w = w - grads[0] * lr
        b = b - grads[1] * lr
        i = i + 1
    return w, b
";

/// Initial model parameters.
#[derive(Debug, Clone)]
pub struct LinearParams {
    /// Weights `[784, 10]`.
    pub w: Tensor,
    /// Bias `[10]`.
    pub b: Tensor,
}

impl LinearParams {
    /// Deterministic small random init.
    pub fn new(seed: u64) -> LinearParams {
        let mut rng = Rng64::new(seed);
        LinearParams {
            w: rng.normal_tensor(&[784, 10], 0.01),
            b: Tensor::zeros(autograph_tensor::DType::F32, &[10]),
        }
    }
}

/// Load the PyLite module with hyperparameter globals bound.
///
/// # Errors
///
/// Propagates load/conversion errors.
pub fn runtime(convert: bool) -> Result<Runtime, RuntimeError> {
    let rt = Runtime::load(TRAIN_SRC, convert)?;
    rt.globals
        .set("num_batches", Value::Int(NUM_BATCHES as i64));
    rt.globals.set("lr", Value::Float(LR as f64));
    Ok(rt)
}

/// Configuration 1: eager. Runs `steps` SGD steps entirely interpreted.
///
/// # Errors
///
/// Propagates interpreter errors.
pub fn run_eager(
    rt: &mut Runtime,
    images: &Tensor,
    labels: &Tensor,
    params: &LinearParams,
    steps: usize,
) -> Result<LinearParams, RuntimeError> {
    let out = rt.call(
        "train_eager",
        vec![
            Value::tensor(images.clone()),
            Value::tensor(labels.clone()),
            Value::tensor(params.w.clone()),
            Value::tensor(params.b.clone()),
            Value::Int(steps as i64),
        ],
    )?;
    match out {
        Value::Tuple(items) => Ok(LinearParams {
            w: items[0].as_eager_tensor()?,
            b: items[1].as_eager_tensor()?,
        }),
        other => Err(RuntimeError::new(format!(
            "expected (w, b), got {}",
            other.kind()
        ))),
    }
}

/// Configuration 2 support: the single-step graph (placeholders `x`, `y`;
/// variables `w`, `b`; fetch the returned `train_op` to run one step).
pub fn build_step_graph(params: &LinearParams) -> (Graph, NodeId) {
    let mut b = GraphBuilder::new();
    b.push_scope("train_step");
    let x = b.placeholder("x");
    let y = b.placeholder("y");
    let w = b.variable("w", params.w.clone());
    let bias = b.variable("b", params.b.clone());
    let xw = b.matmul(x, w);
    let logits = b.add_op(xw, bias);
    let loss = b.add(Op::SoftmaxCrossEntropy, vec![logits, y]);
    let grads = gradients(&mut b, loss, &[w, bias]).expect("linear model grads");
    let lr = b.scalar(LR);
    let dw = b.mul(grads[0], lr);
    let db = b.mul(grads[1], lr);
    let w2 = b.sub(w, dw);
    let b2 = b.sub(bias, db);
    let aw = b.assign("w", w2);
    let ab = b.assign("b", b2);
    let train_op = b.group(vec![aw, ab, loss]);
    b.pop_scope();
    (b.finish(), train_op)
}

/// Configuration 2: run the host loop (one `Session::run` per step).
///
/// # Errors
///
/// Propagates graph execution errors.
pub fn run_host_loop(
    sess: &mut Session,
    train_op: NodeId,
    images: &Tensor,
    labels: &Tensor,
    steps: usize,
) -> Result<LinearParams, autograph_graph::GraphError> {
    // pre-slice the batch tensors, as a tf input pipeline would
    let batches: Vec<(Tensor, Tensor)> = (0..NUM_BATCHES)
        .map(|i| {
            (
                images.index_axis0(i as i64).expect("batch index"),
                labels.index_axis0(i as i64).expect("batch index"),
            )
        })
        .collect();
    for i in 0..steps {
        let (x, y) = &batches[i % NUM_BATCHES];
        sess.run(&[("x", x.clone()), ("y", y.clone())], &[train_op])?;
    }
    Ok(LinearParams {
        w: sess.variable("w").expect("w").clone(),
        b: sess.variable("b").expect("b").clone(),
    })
}

/// Configuration 3: the handwritten all-in-graph training loop
/// (state `(i, w, b)`, invariants threaded through; one `Session::run`
/// executes every step). Returns the graph and the `(w, b)` fetches.
pub fn build_ingraph_loop(params: &LinearParams) -> (Graph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    b.push_scope("train_in_graph");
    let images = b.placeholder("images"); // [NB, batch, 784]
    let labels = b.placeholder("labels"); // [NB, batch]
    let steps = b.placeholder("steps"); // scalar i64
    let w0 = b.constant(params.w.clone());
    let b0 = b.constant(params.b.clone());
    let zero = b.constant(Tensor::scalar_i64(0));

    // state: 0=i, 1=w, 2=b, 3=steps, 4=images, 5=labels
    let cond_g = {
        let (mut sb, p) = SubGraphBuilder::new(6);
        let lt = sb.b.add(Op::Less, vec![p[0], p[3]]);
        sb.finish(vec![lt])
    };
    let body_g = {
        let (mut sb, p) = SubGraphBuilder::new(6);
        let (i, w, bias, steps, images, labels) = (p[0], p[1], p[2], p[3], p[4], p[5]);
        let nb = sb.b.constant(Tensor::scalar_i64(NUM_BATCHES as i64));
        let idx = sb.b.add(Op::Mod, vec![i, nb]);
        let x = sb.b.add(Op::IndexAxis0, vec![images, idx]);
        let y = sb.b.add(Op::IndexAxis0, vec![labels, idx]);
        let xw = sb.b.matmul(x, w);
        let logits = sb.b.add_op(xw, bias);
        let loss = sb.b.add(Op::SoftmaxCrossEntropy, vec![logits, y]);
        let grads = gradients(&mut sb.b, loss, &[w, bias]).expect("linear model grads");
        let lr = sb.b.scalar(LR);
        let dw = sb.b.mul(grads[0], lr);
        let db = sb.b.mul(grads[1], lr);
        let w2 = sb.b.sub(w, dw);
        let b2 = sb.b.sub(bias, db);
        let one = sb.b.constant(Tensor::scalar_i64(1));
        let i2 = sb.b.add_op(i, one);
        sb.finish(vec![i2, w2, b2, steps, images, labels])
    };
    let wl = b.add(
        OpKind::While {
            cond_g,
            body_g,
            max_iters: None,
        },
        vec![zero, w0, b0, steps, images, labels],
    );
    let w_final = b.tuple_get(wl, 1);
    let b_final = b.tuple_get(wl, 2);
    b.pop_scope();
    (b.finish(), vec![w_final, b_final])
}

/// Configuration 4: stage the imperative `train_loop` through AutoGraph.
/// Placeholders: `images`, `labels`, `w`, `b`, `steps`.
///
/// # Errors
///
/// Propagates staging errors.
pub fn stage_autograph(rt: &mut Runtime) -> Result<autograph_runtime::StagedGraph, RuntimeError> {
    rt.stage_to_graph(
        "train_loop",
        vec![
            GraphArg::Placeholder("images".into()),
            GraphArg::Placeholder("labels".into()),
            GraphArg::Placeholder("w".into()),
            GraphArg::Placeholder("b".into()),
            GraphArg::Placeholder("steps".into()),
        ],
    )
}

/// Mean cross-entropy of parameters on one batch (quality check).
///
/// # Errors
///
/// Propagates kernel errors.
pub fn loss_on(
    params: &LinearParams,
    x: &Tensor,
    y: &Tensor,
) -> Result<f32, autograph_tensor::TensorError> {
    let logits = x.matmul(&params.w)?.add(&params.b)?;
    Tensor::softmax_cross_entropy(&logits, y)?.scalar_value_f32()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::synthetic_mnist;

    fn small_data() -> (Tensor, Tensor) {
        synthetic_mnist(NUM_BATCHES, 8, 123)
    }

    fn close(a: &Tensor, b: &Tensor, tol: f32) {
        for (x, y) in a.as_f32().unwrap().iter().zip(b.as_f32().unwrap()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn all_four_configurations_agree_and_learn() {
        let (images, labels) = small_data();
        let params = LinearParams::new(1);
        let steps = 60;
        let x0 = images.index_axis0(0).unwrap();
        let y0 = labels.index_axis0(0).unwrap();
        let initial_loss = loss_on(&params, &x0, &y0).unwrap();

        // 1. eager
        let mut rt = runtime(false).unwrap();
        let eager = run_eager(&mut rt, &images, &labels, &params, steps).unwrap();

        // 2. graph model + host loop
        let (g, train_op) = build_step_graph(&params);
        let mut sess = Session::new(g);
        let host = run_host_loop(&mut sess, train_op, &images, &labels, steps).unwrap();

        // 3. handwritten in-graph loop
        let (g3, fetches) = build_ingraph_loop(&params);
        let mut sess3 = Session::new(g3);
        let out3 = sess3
            .run(
                &[
                    ("images", images.clone()),
                    ("labels", labels.clone()),
                    ("steps", Tensor::scalar_i64(steps as i64)),
                ],
                &fetches,
            )
            .unwrap();
        let ingraph = LinearParams {
            w: out3[0].clone(),
            b: out3[1].clone(),
        };

        // 4. autograph staged loop
        let mut rt4 = runtime(true).unwrap();
        let staged = stage_autograph(&mut rt4).unwrap();
        let mut sess4 = Session::new(staged.graph);
        let out4 = sess4
            .run(
                &[
                    ("images", images.clone()),
                    ("labels", labels.clone()),
                    ("w", params.w.clone()),
                    ("b", params.b.clone()),
                    ("steps", Tensor::scalar_i64(steps as i64)),
                ],
                &staged.outputs,
            )
            .unwrap();
        let autograph = LinearParams {
            w: out4[0].clone(),
            b: out4[1].clone(),
        };

        // all configurations produce the same trained parameters
        close(&eager.w, &host.w, 1e-4);
        close(&eager.w, &ingraph.w, 1e-4);
        close(&eager.w, &autograph.w, 1e-4);
        close(&eager.b, &autograph.b, 1e-4);

        // and training reduced the loss
        let final_loss = loss_on(&autograph, &x0, &y0).unwrap();
        assert!(
            final_loss < initial_loss * 0.9,
            "no learning: {initial_loss} -> {final_loss}"
        );
    }

    /// The SGD step's `x.T @ dlogits` is a `transpose_a` matmul reading
    /// `x` in place: the optimized staged loop holds no `Transpose` node,
    /// so no `[784, batch]` copy is made per step.
    #[test]
    fn staged_train_loop_materialises_no_transpose() {
        use autograph_graph::{Graph, OpKind};
        fn ops(g: &Graph, out: &mut Vec<OpKind>) {
            for node in &g.nodes {
                match &node.op {
                    OpKind::While { cond_g, body_g, .. } => {
                        ops(&cond_g.graph, out);
                        ops(&body_g.graph, out);
                    }
                    OpKind::Cond { then_g, else_g } => {
                        ops(&then_g.graph, out);
                        ops(&else_g.graph, out);
                    }
                    op => out.push(op.clone()),
                }
            }
        }
        let staged = stage_autograph(&mut runtime(true).unwrap()).unwrap();
        let (optimized, _, _) = autograph_graph::optimize::optimize(&staged.graph, &staged.outputs);
        let mut all = Vec::new();
        ops(&optimized, &mut all);
        assert!(!all
            .iter()
            .any(|op| matches!(op, OpKind::Tensor(Op::Transpose(_)))));
        let tn = OpKind::Tensor(Op::MatMul {
            transpose_a: true,
            transpose_b: false,
        });
        assert!(all.contains(&tn), "the weight gradient is a TN matmul");
    }

    #[test]
    fn variables_persist_between_host_steps() {
        let (images, labels) = small_data();
        let params = LinearParams::new(2);
        let (g, train_op) = build_step_graph(&params);
        let mut sess = Session::new(g);
        let after1 = run_host_loop(&mut sess, train_op, &images, &labels, 1).unwrap();
        let after2 = run_host_loop(&mut sess, train_op, &images, &labels, 1).unwrap();
        // the second step continued from the first
        let d: f32 = after1
            .w
            .as_f32()
            .unwrap()
            .iter()
            .zip(after2.w.as_f32().unwrap())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(d > 0.0, "second step should change parameters");
    }
}
