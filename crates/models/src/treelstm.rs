//! Table 3 — TreeLSTM for sentiment classification (§9.1).
//!
//! The model embeds binary parse trees by recursively embedding the
//! left/right subtrees and combining the `(c, h)` states through an LSTM
//! cell; the root embedding feeds a classifier. It is naturally expressed
//! with *recursive functions*, which the TensorFlow graph IR cannot
//! represent — the reason the paper targets Lantern here.
//!
//! Two configurations:
//!
//! * **Eager ("PyTorch")** — the recursion interpreted per example, with
//!   tape-based autodiff; gradients re-recorded every step.
//! * **AutoGraph → Lantern** — the same source staged *once* into the
//!   Lantern IR (one `(def ...)` with a `(call ...)` at the recursion
//!   sites), compiled, then evaluated with reverse AD on a data tape per
//!   example.

use autograph_eager::EagerTensor;
use autograph_lantern::value::LValue;
use autograph_lantern::{Engine, Program};
use autograph_runtime::runtime::LanternArg;
use autograph_runtime::{Runtime, RuntimeError, Value};
use autograph_tensor::{Rng64, Tensor};
use std::rc::Rc;

/// The recursive TreeLSTM in imperative PyLite.
pub const TREELSTM_SRC: &str = "\
def leaf_state(x):
    c = tf.tanh(tf.matmul(x, w_lc) + b_lc)
    h = tf.tanh(tf.matmul(x, w_lh) + b_lh)
    return c, h

def tree_lstm(tree):
    if tree.is_leaf:
        return leaf_state(tree.embedding)
    cl, hl = tree_lstm(tree.left)
    cr, hr = tree_lstm(tree.right)
    hc = tf.concat([hl, hr], 1)
    i = tf.sigmoid(tf.matmul(hc, w_i) + b_i)
    fl = tf.sigmoid(tf.matmul(hc, w_fl) + b_f)
    fr = tf.sigmoid(tf.matmul(hc, w_fr) + b_f)
    o = tf.sigmoid(tf.matmul(hc, w_o) + b_o)
    g = tf.tanh(tf.matmul(hc, w_g) + b_g)
    c = i * g + fl * cl + fr * cr
    h = o * tf.tanh(c)
    return c, h

def sentiment_loss(tree, label):
    c, h = tree_lstm(tree)
    logits = tf.matmul(h, w_out) + b_out
    return tf.softmax_cross_entropy(logits, label)
";

/// All trainable weights, by name (order fixed for gradient updates).
#[derive(Debug, Clone)]
pub struct TreeWeights {
    /// `(name, tensor)` pairs.
    pub params: Vec<(String, Tensor)>,
}

impl TreeWeights {
    /// Deterministic init. `dim`: embedding and hidden size; `classes`:
    /// sentiment classes (the paper's task uses binary labels).
    pub fn new(dim: usize, classes: usize, seed: u64) -> TreeWeights {
        let mut rng = Rng64::new(seed);
        let mut p = Vec::new();
        let mut add = |name: &str, shape: &[usize], std: f32, rng: &mut Rng64| {
            p.push((name.to_string(), rng.normal_tensor(shape, std)));
        };
        add("w_lc", &[dim, dim], 0.3, &mut rng);
        add("b_lc", &[dim], 0.05, &mut rng);
        add("w_lh", &[dim, dim], 0.3, &mut rng);
        add("b_lh", &[dim], 0.05, &mut rng);
        for g in ["w_i", "w_fl", "w_fr", "w_o", "w_g"] {
            add(g, &[2 * dim, dim], 0.3, &mut rng);
        }
        add("b_i", &[dim], 0.05, &mut rng);
        add("b_f", &[dim], 0.05, &mut rng);
        add("b_o", &[dim], 0.05, &mut rng);
        add("b_g", &[dim], 0.05, &mut rng);
        add("w_out", &[dim, classes], 0.3, &mut rng);
        add("b_out", &[classes], 0.0, &mut rng);
        TreeWeights { params: p }
    }

    /// Apply an SGD update given gradients in `params` order.
    pub fn sgd(&mut self, grads: &[Tensor], lr: f32) {
        let lr = Tensor::scalar_f32(lr);
        for ((_, w), g) in self.params.iter_mut().zip(grads) {
            let step = g.mul(&lr).expect("grad shapes");
            *w = w.sub(&step).expect("grad shapes");
        }
    }
}

/// Load the module with weights bound as eager-tensor globals
/// (the eager/"PyTorch" configuration).
///
/// # Errors
///
/// Propagates load errors.
pub fn eager_runtime(weights: &TreeWeights) -> Result<Runtime, RuntimeError> {
    let rt = Runtime::load(TREELSTM_SRC, false)?;
    for (name, t) in &weights.params {
        rt.globals.set(name, Value::tensor(t.clone()));
    }
    Ok(rt)
}

/// One eager training step: record a tape over the interpreted recursion,
/// compute weight gradients, apply SGD. Returns the loss.
///
/// # Errors
///
/// Propagates interpreter/tape errors.
pub fn eager_train_step(
    rt: &mut Runtime,
    tree: &Value,
    label: &Tensor,
    weights: &mut TreeWeights,
    lr: f32,
) -> Result<f32, RuntimeError> {
    rt.interp.eager.start_tape();
    let mut watched: Vec<EagerTensor> = Vec::with_capacity(weights.params.len());
    for (name, t) in &weights.params {
        let w = rt.interp.eager.watch(&EagerTensor::from(t.clone()))?;
        rt.globals.set(name, Value::Tensor(w.clone()));
        watched.push(w);
    }
    let out = rt.call(
        "sentiment_loss",
        vec![tree.clone(), Value::tensor(label.clone())],
    )?;
    let loss = match out {
        Value::Tensor(t) => t,
        other => {
            return Err(RuntimeError::new(format!(
                "loss must be a tensor, got {}",
                other.kind()
            )))
        }
    };
    let refs: Vec<&EagerTensor> = watched.iter().collect();
    let grads = rt.interp.eager.gradient(&loss, &refs)?;
    weights.sgd(&grads, lr);
    Ok(loss.tensor().scalar_value_f32()?)
}

/// Stage the model into a Lantern program: weights become `(param name)`
/// leaves, the tree and label are externs. Done once; the compiled program
/// then trains any number of examples.
///
/// # Errors
///
/// Propagates staging/compilation errors.
pub fn stage_lantern(weights: &TreeWeights) -> Result<Program, RuntimeError> {
    let mut rt = Runtime::load(TREELSTM_SRC, true)?;
    for (name, _) in &weights.params {
        rt.globals.set(
            name,
            Value::Lantern(Rc::new(autograph_lantern::sexpr::SExpr::list(vec![
                autograph_lantern::sexpr::SExpr::sym("param"),
                autograph_lantern::sexpr::SExpr::sym(name.clone()),
            ]))),
        );
    }
    rt.stage_to_lantern(
        "sentiment_loss",
        vec![
            LanternArg::Extern("tree".into()),
            LanternArg::Extern("label".into()),
        ],
    )
}

/// One Lantern training step on a compiled engine.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn lantern_train_step(
    engine: &Engine,
    tree: &LValue,
    label: &Tensor,
    weights: &mut TreeWeights,
    lr: f32,
) -> Result<f32, autograph_lantern::LanternError> {
    let params: Vec<(&str, Tensor)> = weights
        .params
        .iter()
        .map(|(n, t)| (n.as_str(), t.clone()))
        .collect();
    let (loss, grads_by_program) = engine.grad(
        &[
            ("tree", tree.clone()),
            ("label", LValue::tensor(label.clone())),
        ],
        &params,
    )?;
    // engine returns grads in program param order; map back to our order
    let names = &engine.program().param_names;
    let mut grads = Vec::with_capacity(weights.params.len());
    for (n, t) in &weights.params {
        match names.iter().position(|p| p == n) {
            Some(i) => grads.push(grads_by_program[i].clone()),
            None => grads.push(Tensor::zeros(autograph_tensor::DType::F32, t.shape())),
        }
    }
    weights.sgd(&grads, lr);
    Ok(loss.scalar_value_f32()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{random_tree_lantern, random_tree_value};

    #[test]
    fn eager_and_lantern_losses_match() {
        let dim = 4;
        let weights = TreeWeights::new(dim, 2, 11);
        // identical tree shape/content in both value systems
        let mut rng1 = Rng64::new(33);
        let tree_v = random_tree_value(&mut rng1, 5, dim);
        let mut rng2 = Rng64::new(33);
        let tree_l = random_tree_lantern(&mut rng2, 5, dim);
        let label = Tensor::from_vec_i64(vec![1], &[1]).unwrap();

        // eager forward (no update: lr = 0)
        let mut rt = eager_runtime(&weights).unwrap();
        let mut w1 = weights.clone();
        let eager_loss = eager_train_step(&mut rt, &tree_v, &label, &mut w1, 0.0).unwrap();

        // lantern forward
        let program = stage_lantern(&weights).unwrap();
        // sentiment_loss, tree_lstm and leaf_state staged exactly once
        // each — the two recursive call sites share one definition
        assert_eq!(program.funcs.len(), 3);
        assert_eq!(
            program
                .funcs
                .iter()
                .filter(|f| f.name.starts_with("tree_lstm"))
                .count(),
            1
        );
        let engine = Engine::new(program);
        let mut w2 = weights.clone();
        let lantern_loss = lantern_train_step(&engine, &tree_l, &label, &mut w2, 0.0).unwrap();

        assert!(
            (eager_loss - lantern_loss).abs() < 1e-4,
            "{eager_loss} vs {lantern_loss}"
        );
    }

    #[test]
    fn gradients_agree_between_backends() {
        let dim = 3;
        let weights = TreeWeights::new(dim, 2, 5);
        let mut rng1 = Rng64::new(77);
        let tree_v = random_tree_value(&mut rng1, 4, dim);
        let mut rng2 = Rng64::new(77);
        let tree_l = random_tree_lantern(&mut rng2, 4, dim);
        let label = Tensor::from_vec_i64(vec![0], &[1]).unwrap();
        let lr = 0.1;

        let mut rt = eager_runtime(&weights).unwrap();
        let mut w_eager = weights.clone();
        eager_train_step(&mut rt, &tree_v, &label, &mut w_eager, lr).unwrap();

        let engine = Engine::new(stage_lantern(&weights).unwrap());
        let mut w_lantern = weights.clone();
        lantern_train_step(&engine, &tree_l, &label, &mut w_lantern, lr).unwrap();

        for ((n, a), (_, b)) in w_eager.params.iter().zip(&w_lantern.params) {
            for (x, y) in a.as_f32().unwrap().iter().zip(b.as_f32().unwrap()) {
                assert!((x - y).abs() < 1e-4, "weight {n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn training_reduces_loss() {
        let dim = 4;
        let mut weights = TreeWeights::new(dim, 2, 9);
        let mut rng = Rng64::new(21);
        let tree = random_tree_lantern(&mut rng, 6, dim);
        let label = Tensor::from_vec_i64(vec![1], &[1]).unwrap();
        let engine = Engine::new(stage_lantern(&weights).unwrap());
        let first = lantern_train_step(&engine, &tree, &label, &mut weights, 0.2).unwrap();
        let mut last = first;
        for _ in 0..15 {
            last = lantern_train_step(&engine, &tree, &label, &mut weights, 0.2).unwrap();
        }
        assert!(last < first * 0.8, "loss {first} -> {last}");
    }
}
