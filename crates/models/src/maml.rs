//! Appendix D.3 — Model-Agnostic Meta-Learning (MAML) on the sinusoid
//! regression task of Finn et al. (2017).
//!
//! The meta-batch loop (`for t in range(num_tasks)`) iterates a Python
//! hyperparameter, so AutoGraph *unrolls* it at staging time — each task's
//! inner adaptation plus query loss becomes straight-line graph code with
//! `tf.gradients` inside. First-order MAML in both configurations (eager
//! tape / staged symbolic), as DESIGN.md documents.

use autograph_runtime::runtime::GraphArg;
use autograph_runtime::{Runtime, RuntimeError, Value};
use autograph_tensor::{Rng64, Tensor};

/// The imperative MAML meta-step.
pub(crate) const MAML_SRC: &str = "\
def mlp(x, w1, b1, w2, b2, w3, b3):
    h1 = tf.relu(tf.matmul(x, w1) + b1)
    h2 = tf.relu(tf.matmul(h1, w2) + b2)
    return tf.matmul(h2, w3) + b3

def mse(pred, y):
    return tf.reduce_mean(tf.square(pred - y))

def task_grads(x, y, w1, b1, w2, b2, w3, b3):
    if use_tape:
        tf.tape_begin()
        w1 = tf.watch(w1)
        b1 = tf.watch(b1)
        w2 = tf.watch(w2)
        b2 = tf.watch(b2)
        w3 = tf.watch(w3)
        b3 = tf.watch(b3)
        loss = mse(mlp(x, w1, b1, w2, b2, w3, b3), y)
        return tf.grad(loss, [w1, b1, w2, b2, w3, b3])
    loss = mse(mlp(x, w1, b1, w2, b2, w3, b3), y)
    return tf.gradients(loss, [w1, b1, w2, b2, w3, b3])

def maml_step(xs, ys, xq, yq, w1, b1, w2, b2, w3, b3):
    gw1 = w1 * 0.0
    gb1 = b1 * 0.0
    gw2 = w2 * 0.0
    gb2 = b2 * 0.0
    gw3 = w3 * 0.0
    gb3 = b3 * 0.0
    total = 0.0
    for t in range(num_tasks):
        g = task_grads(xs[t], ys[t], w1, b1, w2, b2, w3, b3)
        aw1 = w1 - inner_lr * g[0]
        ab1 = b1 - inner_lr * g[1]
        aw2 = w2 - inner_lr * g[2]
        ab2 = b2 - inner_lr * g[3]
        aw3 = w3 - inner_lr * g[4]
        ab3 = b3 - inner_lr * g[5]
        if second_order:
            qloss = mse(mlp(xq[t], aw1, ab1, aw2, ab2, aw3, ab3), yq[t])
            q = tf.gradients(qloss, [w1, b1, w2, b2, w3, b3])
        else:
            q = task_grads(xq[t], yq[t], aw1, ab1, aw2, ab2, aw3, ab3)
        gw1 = gw1 + q[0]
        gb1 = gb1 + q[1]
        gw2 = gw2 + q[2]
        gb2 = gb2 + q[3]
        gw3 = gw3 + q[4]
        gb3 = gb3 + q[5]
        total = total + mse(mlp(xq[t], aw1, ab1, aw2, ab2, aw3, ab3), yq[t])
    w1 = w1 - meta_lr * gw1 / num_tasks
    b1 = b1 - meta_lr * gb1 / num_tasks
    w2 = w2 - meta_lr * gw2 / num_tasks
    b2 = b2 - meta_lr * gb2 / num_tasks
    w3 = w3 - meta_lr * gw3 / num_tasks
    b3 = b3 - meta_lr * gb3 / num_tasks
    return w1, b1, w2, b2, w3, b3, total / num_tasks
";

/// MLP meta-parameters (1 → hidden → hidden → 1).
#[derive(Debug, Clone)]
pub struct MamlParams {
    /// Weights/biases in `maml_step` argument order.
    pub params: Vec<Tensor>,
}

impl MamlParams {
    /// Deterministic init.
    pub fn new(hidden: usize, seed: u64) -> MamlParams {
        let mut rng = Rng64::new(seed);
        MamlParams {
            params: vec![
                rng.normal_tensor(&[1, hidden], 0.5),
                rng.normal_tensor(&[hidden], 0.05),
                rng.normal_tensor(&[hidden, hidden], 0.3),
                rng.normal_tensor(&[hidden], 0.05),
                rng.normal_tensor(&[hidden, 1], 0.3),
                rng.normal_tensor(&[1], 0.0),
            ],
        }
    }
}

/// A meta-batch of sinusoid tasks: support/query sets
/// `[tasks, k, 1]`.
#[derive(Debug, Clone)]
pub struct TaskBatch {
    /// Support inputs.
    pub xs: Tensor,
    /// Support targets.
    pub ys: Tensor,
    /// Query inputs.
    pub xq: Tensor,
    /// Query targets.
    pub yq: Tensor,
}

/// Sample sinusoid tasks `y = A sin(x + phase)`.
pub fn sample_tasks(num_tasks: usize, k: usize, seed: u64) -> TaskBatch {
    let mut rng = Rng64::new(seed);
    let make = |rng: &mut Rng64, amp: f32, phase: f32, k: usize| -> (Vec<f32>, Vec<f32>) {
        let xs: Vec<f32> = (0..k).map(|_| rng.next_f32() * 10.0 - 5.0).collect();
        let ys: Vec<f32> = xs.iter().map(|&x| amp * (x + phase).sin()).collect();
        (xs, ys)
    };
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut xq = Vec::new();
    let mut yq = Vec::new();
    for _ in 0..num_tasks {
        let amp = 0.1 + rng.next_f32() * 4.9;
        let phase = rng.next_f32() * std::f32::consts::PI;
        let (sx, sy) = make(&mut rng, amp, phase, k);
        let (qx, qy) = make(&mut rng, amp, phase, k);
        xs.extend(sx);
        ys.extend(sy);
        xq.extend(qx);
        yq.extend(qy);
    }
    let shape = &[num_tasks, k, 1];
    TaskBatch {
        xs: Tensor::from_vec(xs, shape).expect("shape"),
        ys: Tensor::from_vec(ys, shape).expect("shape"),
        xq: Tensor::from_vec(xq, shape).expect("shape"),
        yq: Tensor::from_vec(yq, shape).expect("shape"),
    }
}

/// Load the module with hyperparameters bound.
///
/// # Errors
///
/// Propagates load/conversion errors.
pub fn runtime(num_tasks: usize, convert: bool, use_tape: bool) -> Result<Runtime, RuntimeError> {
    runtime_with_order(num_tasks, convert, use_tape, false)
}

/// Like [`runtime`] but selecting second-order meta-gradients: the query
/// loss is differentiated *through* the inner adaptation (gradients of
/// gradients — staged mode only, where symbolic AD composes).
///
/// # Errors
///
/// Propagates load/conversion errors.
pub(crate) fn runtime_with_order(
    num_tasks: usize,
    convert: bool,
    use_tape: bool,
    second_order: bool,
) -> Result<Runtime, RuntimeError> {
    let rt = Runtime::load(MAML_SRC, convert)?;
    rt.globals.set("num_tasks", Value::Int(num_tasks as i64));
    rt.globals.set("inner_lr", Value::Float(0.01));
    rt.globals.set("meta_lr", Value::Float(0.001));
    rt.globals.set("use_tape", Value::Bool(use_tape));
    rt.globals.set("second_order", Value::Bool(second_order));
    Ok(rt)
}

/// Run one eager meta-step; returns updated params and the mean query
/// loss.
///
/// # Errors
///
/// Propagates interpreter errors.
pub fn run_eager(
    rt: &mut Runtime,
    batch: &TaskBatch,
    params: &MamlParams,
) -> Result<(MamlParams, f32), RuntimeError> {
    let mut args = vec![
        Value::tensor(batch.xs.clone()),
        Value::tensor(batch.ys.clone()),
        Value::tensor(batch.xq.clone()),
        Value::tensor(batch.yq.clone()),
    ];
    args.extend(params.params.iter().map(|t| Value::tensor(t.clone())));
    let out = rt.call("maml_step", args)?;
    match out {
        Value::Tuple(items) => {
            let new_params: Vec<Tensor> = items[..6]
                .iter()
                .map(|v| v.as_eager_tensor())
                .collect::<Result<_, _>>()?;
            let loss = items[6].as_eager_tensor()?.scalar_value_f32()?;
            Ok((MamlParams { params: new_params }, loss))
        }
        other => Err(RuntimeError::new(format!(
            "expected meta-step tuple, got {}",
            other.kind()
        ))),
    }
}

/// Stage the meta-step (placeholders: data + each parameter).
///
/// # Errors
///
/// Propagates staging errors.
pub fn stage(rt: &mut Runtime) -> Result<autograph_runtime::StagedGraph, RuntimeError> {
    let names = ["xs", "ys", "xq", "yq", "w1", "b1", "w2", "b2", "w3", "b3"];
    rt.stage_to_graph(
        "maml_step",
        names
            .iter()
            .map(|n| GraphArg::Placeholder((*n).to_string()))
            .collect(),
    )
}

/// Feed list for a staged meta-step.
pub fn feeds<'a>(batch: &'a TaskBatch, params: &'a MamlParams) -> Vec<(&'static str, Tensor)> {
    vec![
        ("xs", batch.xs.clone()),
        ("ys", batch.ys.clone()),
        ("xq", batch.xq.clone()),
        ("yq", batch.yq.clone()),
        ("w1", params.params[0].clone()),
        ("b1", params.params[1].clone()),
        ("w2", params.params[2].clone()),
        ("b2", params.params[3].clone()),
        ("w3", params.params[4].clone()),
        ("b3", params.params[5].clone()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_graph::Session;

    #[test]
    fn eager_and_staged_meta_steps_agree() {
        let num_tasks = 2;
        let params = MamlParams::new(8, 3);
        let batch = sample_tasks(num_tasks, 5, 10);

        let mut rt = runtime(num_tasks, false, true).unwrap();
        let (p_eager, loss_eager) = run_eager(&mut rt, &batch, &params).unwrap();

        let mut rt2 = runtime(num_tasks, true, false).unwrap();
        let staged = stage(&mut rt2).unwrap();
        let mut sess = Session::new(staged.graph);
        let out = sess.run(&feeds(&batch, &params), &staged.outputs).unwrap();
        let loss_staged = out[6].scalar_value_f32().unwrap();

        assert!(
            (loss_eager - loss_staged).abs() < 1e-3 * (1.0 + loss_eager.abs()),
            "{loss_eager} vs {loss_staged}"
        );
        for (i, (a, b)) in p_eager.params.iter().zip(&out[..6]).enumerate() {
            for (x, y) in a.as_f32().unwrap().iter().zip(b.as_f32().unwrap()) {
                assert!((x - y).abs() < 1e-3, "param {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn meta_training_improves_query_loss() {
        let num_tasks = 4;
        let mut params = MamlParams::new(8, 5);
        let mut rt = runtime(num_tasks, false, true).unwrap();
        let batch0 = sample_tasks(num_tasks, 10, 100);
        let (_, first) = run_eager(&mut rt, &batch0, &params).unwrap();
        for step in 0..30 {
            let batch = sample_tasks(num_tasks, 10, 200 + step);
            let (p2, _) = run_eager(&mut rt, &batch, &params).unwrap();
            params = p2;
        }
        let (_, last) = run_eager(&mut rt, &batch0, &params).unwrap();
        assert!(last < first, "meta loss {first} -> {last}");
    }

    #[test]
    fn second_order_meta_gradients_stage_and_differ() {
        // gradients-of-gradients through the inner adaptation: a direct
        // payoff of composable symbolic AD (first-order MAML ignores the
        // curvature term, so the two must differ)
        let num_tasks = 2;
        let params = MamlParams::new(6, 3);
        let batch = sample_tasks(num_tasks, 6, 10);

        let mut rt1 = runtime_with_order(num_tasks, true, false, false).unwrap();
        let staged1 = stage(&mut rt1).unwrap();
        let size1 = staged1.graph.deep_len();
        let mut s1 = autograph_graph::Session::new(staged1.graph);
        let first = s1.run(&feeds(&batch, &params), &staged1.outputs).unwrap();

        let mut rt2 = runtime_with_order(num_tasks, true, false, true).unwrap();
        let staged2 = stage(&mut rt2).unwrap();
        let size2 = staged2.graph.deep_len();
        let mut s2 = autograph_graph::Session::new(staged2.graph);
        let second = s2.run(&feeds(&batch, &params), &staged2.outputs).unwrap();

        // same query loss (forward pass identical) ...
        let l1 = first[6].scalar_value_f32().unwrap();
        let l2 = second[6].scalar_value_f32().unwrap();
        assert!((l1 - l2).abs() < 1e-4, "{l1} vs {l2}");
        // ... but different meta-updates (the curvature term)
        let diff: f32 = first[0]
            .as_f32()
            .unwrap()
            .iter()
            .zip(second[0].as_f32().unwrap())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-7, "second-order update must differ: {diff}");
        // second-order graph is strictly larger (the extra grad-of-grad
        // subgraph)
        assert!(size2 > size1);
    }

    #[test]
    fn unrolling_scales_with_num_tasks() {
        // the staged graph grows with the (macro) meta-batch size
        let params = MamlParams::new(4, 1);
        let _ = params;
        let mut rt1 = runtime(1, true, false).unwrap();
        let g1 = stage(&mut rt1).unwrap().graph.deep_len();
        let mut rt4 = runtime(4, true, false).unwrap();
        let g4 = stage(&mut rt4).unwrap().graph.deep_len();
        assert!(g4 > g1 * 2, "unrolled graph should grow: {g1} vs {g4}");
    }
}
