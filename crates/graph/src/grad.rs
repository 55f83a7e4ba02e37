//! Symbolic reverse-mode differentiation on the dataflow graph — the
//! `tf.gradients` analog. Gradient nodes are appended to the same builder,
//! so a single staged graph can contain forward pass, gradients, and
//! parameter updates (the ingredient that makes the in-graph training loop
//! of Table 2 possible). The rules are [`autograph_tensor::grad`]'s, the
//! ones the eager tape and Lantern replay; the builder is their emitter.

use crate::builder::GraphBuilder;
use crate::ir::{NodeId, Op, OpKind};
use crate::{GraphError, Result};
use autograph_tensor::grad::{self, Diff, Rule};
use autograph_tensor::{Result as TensorResult, Tensor};
use std::collections::HashMap;

/// Build gradient nodes of scalar `loss` with respect to each node in
/// `wrt`. Returns one gradient node per `wrt` entry.
///
/// # Errors
///
/// Returns a staging error when the loss depends on an op with no
/// registered gradient.
pub fn gradients(b: &mut GraphBuilder, loss: NodeId, wrt: &[NodeId]) -> Result<Vec<NodeId>> {
    // Snapshot the forward graph (gradient nodes are appended after).
    let forward_len = b.len();
    let nodes: Vec<(OpKind, Vec<NodeId>)> = b
        .graph()
        .nodes
        .iter()
        .take(forward_len)
        .map(|n| (n.op.clone(), n.inputs.clone()))
        .collect();

    // Reachability: which forward nodes does the loss depend on?
    let mut needed = vec![false; forward_len];
    let mut stack = vec![loss];
    while let Some(n) = stack.pop() {
        if needed[n] {
            continue;
        }
        needed[n] = true;
        stack.extend(nodes[n].1.iter().copied());
    }

    // Active set: nodes through which a wrt target can influence the loss
    // (forward-reachable from wrt). Adjoints only flow through active
    // nodes, so e.g. a non-differentiable data-indexing path that does not
    // touch the parameters never demands a gradient rule.
    let mut active = vec![false; forward_len];
    for &w in wrt {
        if w < forward_len {
            active[w] = true;
        }
    }
    for id in 0..forward_len {
        if !active[id] && nodes[id].1.iter().any(|&i| active[i]) {
            active[id] = true;
        }
    }

    let mut grads: HashMap<NodeId, NodeId> = HashMap::new();
    let one = b.constant(Tensor::scalar_f32(1.0));
    grads.insert(loss, one);

    // Creation order is topological; walk backwards accumulating adjoints.
    for id in (0..forward_len).rev() {
        if !needed[id] || (!active[id] && id != loss) {
            continue;
        }
        if !nodes[id].1.iter().any(|&i| active[i]) {
            continue; // leaf or no active inputs: nothing to propagate
        }
        let Some(&g) = grads.get(&id) else { continue };
        let (op, inputs) = &nodes[id];
        let rule = match op {
            OpKind::Tensor(op) => op.rule(),
            // a staged print passes its value through
            OpKind::Print(_) => Some(Rule::Identity),
            _ => None,
        };
        let rule = rule.ok_or_else(|| GraphError::staging(grad::no_rule(op.mnemonic())))?;
        for (i, contrib) in grad::vjp(b, &rule, inputs, &id, &g)? {
            let input = inputs[i];
            if !active[input] {
                continue;
            }
            match grads.get(&input) {
                Some(&existing) => {
                    let sum = b.add_op(existing, contrib);
                    grads.insert(input, sum);
                }
                None => {
                    grads.insert(input, contrib);
                }
            }
        }
    }

    // Missing gradients (no dependency path) are zeros of the right shape.
    Ok(wrt
        .iter()
        .map(|&w| match grads.get(&w) {
            Some(&g) => {
                // ensure adjoint has the primal's shape
                b.add(Op::SumToShape, vec![g, w])
            }
            None => {
                let zero = b.constant(Tensor::scalar_f32(0.0));
                b.add(Op::BroadcastLike, vec![zero, w])
            }
        })
        .collect())
}

/// The graph emitter: each op of a rule is one node appended to the
/// builder, in the rule's order.
impl Diff for GraphBuilder {
    type V = NodeId;
    fn scalar(&mut self, v: f32) -> TensorResult<NodeId> {
        Ok(GraphBuilder::scalar(self, v))
    }
    fn op(&mut self, op: Op, x: &[&NodeId]) -> TensorResult<NodeId> {
        Ok(self.add(op, x.iter().map(|&&id| id).collect()))
    }
    fn index_axis0(&mut self, a: &NodeId, i: usize) -> TensorResult<NodeId> {
        let idx = self.constant(Tensor::scalar_i64(i as i64));
        Ok(self.add(Op::IndexAxis0, vec![*a, idx]))
    }
    fn split(&mut self, g: &NodeId, axis: isize, parts: &[NodeId]) -> TensorResult<Vec<NodeId>> {
        let inputs: Vec<NodeId> = std::iter::once(*g).chain(parts.iter().copied()).collect();
        Ok((0..parts.len())
            .map(|index| self.add(Op::SplitLike { axis, index }, inputs.clone()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use autograph_tensor::Rng64;

    /// Finite-difference check of d loss / d x at a placeholder.
    fn check_grad(build: impl Fn(&mut GraphBuilder, NodeId) -> NodeId, x0: Tensor, tol: f32) {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let loss = build(&mut b, x);
        let grads = gradients(&mut b, loss, &[x]).unwrap();
        let gx = grads[0];
        let mut sess = Session::new(b.finish());

        let analytic = sess.run(&[("x", x0.clone())], &[gx]).unwrap()[0].clone();
        let eps = 1e-3f32;
        let base = x0.as_f32().unwrap().to_vec();
        let mut numeric = Vec::with_capacity(base.len());
        for i in 0..base.len() {
            let mut plus = base.clone();
            plus[i] += eps;
            let mut minus = base.clone();
            minus[i] -= eps;
            let lp = sess
                .run(
                    &[("x", Tensor::from_vec(plus, x0.shape()).unwrap())],
                    &[loss],
                )
                .unwrap()[0]
                .scalar_value_f32()
                .unwrap();
            let lm = sess
                .run(
                    &[("x", Tensor::from_vec(minus, x0.shape()).unwrap())],
                    &[loss],
                )
                .unwrap()[0]
                .scalar_value_f32()
                .unwrap();
            numeric.push((lp - lm) / (2.0 * eps));
        }
        let a = analytic.as_f32().unwrap();
        assert_eq!(a.len(), numeric.len());
        for (i, (&av, nv)) in a.iter().zip(&numeric).enumerate() {
            assert!(
                (av - nv).abs() < tol * (1.0 + nv.abs()),
                "grad mismatch at {i}: analytic {av} vs numeric {nv}"
            );
        }
    }

    fn vec_t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(v, &[n]).unwrap()
    }

    #[test]
    fn grad_of_square_sum() {
        check_grad(
            |b, x| {
                let sq = b.add(Op::Square, vec![x]);
                b.add(Op::ReduceSum(None), vec![sq])
            },
            vec_t(vec![1.0, -2.0, 3.0]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_tanh_sigmoid_relu_exp_log() {
        check_grad(
            |b, x| {
                let t = b.tanh(x);
                let s = b.sigmoid(t);
                let r = b.relu(s);
                let e = b.add(Op::Exp, vec![r]);
                let l = b.add(Op::Log, vec![e]);
                b.add(Op::ReduceSum(None), vec![l])
            },
            vec_t(vec![0.5, -0.3, 1.2]),
            1e-2,
        );
    }

    #[test]
    fn grad_through_broadcast_add() {
        // loss = sum((x + c)^2) where c broadcasts
        check_grad(
            |b, x| {
                let c = b.constant(Tensor::scalar_f32(2.0));
                let s = b.add_op(x, c);
                let sq = b.add(Op::Square, vec![s]);
                b.add(Op::ReduceSum(None), vec![sq])
            },
            vec_t(vec![1.0, 2.0]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_matmul_chain() {
        let mut rng = Rng64::new(5);
        let w = rng.normal_tensor(&[3, 2], 1.0);
        check_grad(
            move |b, x| {
                let xm = b.add(Op::Reshape(vec![1, 3]), vec![x]);
                let wc = b.constant(w.clone());
                let y = b.matmul(xm, wc);
                let sq = b.add(Op::Square, vec![y]);
                b.add(Op::ReduceSum(None), vec![sq])
            },
            vec_t(vec![0.7, -0.2, 0.4]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_mean_and_axis_sum() {
        check_grad(
            |b, x| {
                let m = b.add(Op::Reshape(vec![2, 3]), vec![x]);
                let row = b.add(Op::ReduceSum(Some(1)), vec![m]);
                let mean = b.add(Op::ReduceMean(None), vec![row]);
                let sq = b.add(Op::Square, vec![mean]);
                b.add(Op::ReduceSum(None), vec![sq])
            },
            vec_t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_select_and_maximum() {
        check_grad(
            |b, x| {
                let zero = b.scalar(0.0);
                let half = b.scalar(0.5);
                let cond = b.add(Op::Greater, vec![x, half]);
                let nx = b.add(Op::Neg, vec![x]);
                let sel = b.add(Op::Select, vec![cond, x, nx]);
                let mx = b.add(Op::Maximum, vec![sel, zero]);
                let sq = b.add(Op::Square, vec![mx]);
                b.add(Op::ReduceSum(None), vec![sq])
            },
            vec_t(vec![1.0, 0.2, -0.7]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_cross_entropy_matches_fd() {
        let labels = Tensor::from_vec_i64(vec![0, 2], &[2]).unwrap();
        check_grad(
            move |b, x| {
                let logits = b.add(Op::Reshape(vec![2, 3]), vec![x]);
                let lab = b.constant(labels.clone());
                b.add(Op::SoftmaxCrossEntropy, vec![logits, lab])
            },
            vec_t(vec![0.1, 0.5, -0.2, 0.7, 0.0, 0.3]),
            1e-2,
        );
    }

    #[test]
    fn unused_wrt_gets_zero_grad() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let y = b.placeholder("y");
        let loss = b.add(Op::ReduceSum(None), vec![x]);
        let grads = gradients(&mut b, loss, &[y]).unwrap();
        let mut sess = Session::new(b.finish());
        let out = sess
            .run(
                &[("x", vec_t(vec![1.0])), ("y", vec_t(vec![2.0, 3.0]))],
                &[grads[0]],
            )
            .unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[0.0, 0.0]);
    }

    #[test]
    fn fan_out_accumulates() {
        // loss = sum(x*x + 3x): dx = 2x + 3
        check_grad(
            |b, x| {
                let three = b.scalar(3.0);
                let xx = b.mul(x, x);
                let tx = b.mul(x, three);
                let s = b.add_op(xx, tx);
                b.add(Op::ReduceSum(None), vec![s])
            },
            vec_t(vec![1.0, -2.0]),
            1e-2,
        );
    }

    #[test]
    fn unsupported_grad_errors() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let idx = b.constant(Tensor::scalar_i64(0));
        let gathered = b.add(Op::Gather, vec![x, idx]);
        let loss = b.add(Op::ReduceSum(None), vec![gathered]);
        let err = gradients(&mut b, loss, &[x]).unwrap_err();
        assert!(err.to_string().contains("no gradient"));
    }

    #[test]
    fn stop_gradient_blocks() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let s = b.add(Op::StopGradient, vec![x]);
        let sq = b.add(Op::Square, vec![s]);
        let loss = b.add(Op::ReduceSum(None), vec![sq]);
        let grads = gradients(&mut b, loss, &[x]).unwrap();
        let mut sess = Session::new(b.finish());
        let out = sess.run(&[("x", vec_t(vec![3.0]))], &[grads[0]]).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[0.0]);
    }
}
