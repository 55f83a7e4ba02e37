//! Symbolic reverse-mode differentiation on the dataflow graph — the
//! `tf.gradients` analog. Gradient nodes are appended to the same builder,
//! so a single staged graph can contain forward pass, gradients, and
//! parameter updates (the ingredient that makes the in-graph training loop
//! of Table 2 possible).

use crate::builder::GraphBuilder;
use crate::ir::{NodeId, OpKind};
use crate::{GraphError, Result};
use autograph_tensor::Tensor;
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
        let contribs = vjp(b, op, inputs, id, g)?;
        for (input, contrib) in contribs {
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
                b.add(OpKind::SumToShape, vec![g, w])
            }
            None => {
                let zero = b.constant(Tensor::scalar_f32(0.0));
                b.add(OpKind::BroadcastLike, vec![zero, w])
            }
        })
        .collect())
}

/// Vector-Jacobian product: for node `out = op(inputs)` with adjoint `g`,
/// return `(input, contribution)` pairs.
fn vjp(
    b: &mut GraphBuilder,
    op: &OpKind,
    inputs: &[NodeId],
    out: NodeId,
    g: NodeId,
) -> Result<Vec<(NodeId, NodeId)>> {
    use OpKind::*;
    let r = match op {
        Const(_) | Placeholder { .. } | Variable { .. } | Param(_) => vec![],
        Add => {
            let ga = b.add(SumToShape, vec![g, inputs[0]]);
            let gb = b.add(SumToShape, vec![g, inputs[1]]);
            vec![(inputs[0], ga), (inputs[1], gb)]
        }
        Sub => {
            let ga = b.add(SumToShape, vec![g, inputs[0]]);
            let ng = b.add(Neg, vec![g]);
            let gb = b.add(SumToShape, vec![ng, inputs[1]]);
            vec![(inputs[0], ga), (inputs[1], gb)]
        }
        Mul => {
            let gb_full = b.mul(g, inputs[0]);
            let ga_full = b.mul(g, inputs[1]);
            let ga = b.add(SumToShape, vec![ga_full, inputs[0]]);
            let gb = b.add(SumToShape, vec![gb_full, inputs[1]]);
            vec![(inputs[0], ga), (inputs[1], gb)]
        }
        Div => {
            // d(a/b) = g/b ; -g*a/b^2
            let ga_full = b.div(g, inputs[1]);
            let ga = b.add(SumToShape, vec![ga_full, inputs[0]]);
            let b2 = b.add(Square, vec![inputs[1]]);
            let num = b.mul(g, inputs[0]);
            let frac = b.div(num, b2);
            let gb_full = b.add(Neg, vec![frac]);
            let gb = b.add(SumToShape, vec![gb_full, inputs[1]]);
            vec![(inputs[0], ga), (inputs[1], gb)]
        }
        Pow => {
            // da = g * p * a^(p-1);  db = g * out * ln(a)
            let one = b.scalar(1.0);
            let pm1 = b.sub(inputs[1], one);
            let apm1 = b.add(Pow, vec![inputs[0], pm1]);
            let t1 = b.mul(inputs[1], apm1);
            let ga_full = b.mul(g, t1);
            let ga = b.add(SumToShape, vec![ga_full, inputs[0]]);
            let lna = b.add(Log, vec![inputs[0]]);
            let t2 = b.mul(out, lna);
            let gb_full = b.mul(g, t2);
            let gb = b.add(SumToShape, vec![gb_full, inputs[1]]);
            vec![(inputs[0], ga), (inputs[1], gb)]
        }
        Neg => {
            let ga = b.add(Neg, vec![g]);
            vec![(inputs[0], ga)]
        }
        Abs => {
            let zero = b.scalar(0.0);
            let pos = b.add(GreaterEqual, vec![inputs[0], zero]);
            let ng = b.add(Neg, vec![g]);
            let ga = b.add(Select, vec![pos, g, ng]);
            vec![(inputs[0], ga)]
        }
        Exp => {
            let ga = b.mul(g, out);
            vec![(inputs[0], ga)]
        }
        Log => {
            let ga = b.div(g, inputs[0]);
            vec![(inputs[0], ga)]
        }
        Sqrt => {
            let half = b.scalar(0.5);
            let hg = b.mul(g, half);
            let ga = b.div(hg, out);
            vec![(inputs[0], ga)]
        }
        Square => {
            let two = b.scalar(2.0);
            let t = b.mul(inputs[0], two);
            let ga = b.mul(g, t);
            vec![(inputs[0], ga)]
        }
        Tanh => {
            let y2 = b.add(Square, vec![out]);
            let one = b.scalar(1.0);
            let d = b.sub(one, y2);
            let ga = b.mul(g, d);
            vec![(inputs[0], ga)]
        }
        Sigmoid => {
            let one = b.scalar(1.0);
            let om = b.sub(one, out);
            let d = b.mul(out, om);
            let ga = b.mul(g, d);
            vec![(inputs[0], ga)]
        }
        Relu => {
            let zero = b.scalar(0.0);
            let mask = b.add(Greater, vec![inputs[0], zero]);
            let maskf = b.cast(mask, autograph_tensor::DType::F32);
            let ga = b.mul(g, maskf);
            vec![(inputs[0], ga)]
        }
        SoftmaxCrossEntropy => {
            let d = b.add(XentGrad, vec![inputs[0], inputs[1]]);
            let ga = b.mul(g, d);
            vec![(inputs[0], ga)]
        }
        MatMul {
            transpose_a,
            transpose_b,
        } => {
            // TF's _MatMulGrad table: every case is again a flagged
            // matmul, so no transpose is materialised at any order
            let (x, y) = (inputs[0], inputs[1]);
            let (ga, gb) = match (*transpose_a, *transpose_b) {
                (false, false) => (b.matmul_t(g, y, false, true), b.matmul_t(x, g, true, false)),
                (false, true) => (b.matmul(g, y), b.matmul_t(g, x, true, false)),
                (true, false) => (b.matmul_t(y, g, false, true), b.matmul(x, g)),
                (true, true) => (b.matmul_t(y, g, true, true), b.matmul_t(g, x, true, true)),
            };
            vec![(x, ga), (y, gb)]
        }
        Transpose(perm) => {
            let mut inv = vec![0usize; perm.len()];
            for (i, &p) in perm.iter().enumerate() {
                inv[p] = i;
            }
            let ga = b.add(Transpose(inv), vec![g]);
            vec![(inputs[0], ga)]
        }
        Reshape(_) | ExpandDims(_) | Squeeze(_) => {
            let ga = b.add(ReshapeLike, vec![g, inputs[0]]);
            vec![(inputs[0], ga)]
        }
        Cast(_) => {
            let ga = b.add(ReshapeLike, vec![g, inputs[0]]);
            vec![(inputs[0], ga)]
        }
        Identity | Print(_) => vec![(inputs[0], g)],
        StopGradient => vec![],
        ReduceSum(None) => {
            let ga = b.add(BroadcastLike, vec![g, inputs[0]]);
            vec![(inputs[0], ga)]
        }
        ReduceSum(Some(ax)) => {
            let ge = b.add(ExpandDims(*ax), vec![g]);
            let ga = b.add(BroadcastLike, vec![ge, inputs[0]]);
            vec![(inputs[0], ga)]
        }
        ReduceMean(None) => {
            let n = b.add(Size, vec![inputs[0]]);
            let gb = b.add(BroadcastLike, vec![g, inputs[0]]);
            let ga = b.div(gb, n);
            vec![(inputs[0], ga)]
        }
        ReduceMean(Some(ax)) => {
            let ge = b.add(ExpandDims(*ax), vec![g]);
            let gb = b.add(BroadcastLike, vec![ge, inputs[0]]);
            let n = b.add(DimSize(*ax), vec![inputs[0]]);
            let ga = b.div(gb, n);
            vec![(inputs[0], ga)]
        }
        Select => {
            let zero = b.scalar(0.0);
            let zl = b.add(BroadcastLike, vec![zero, inputs[1]]);
            let ga = b.add(Select, vec![inputs[0], g, zl]);
            let zr = b.add(BroadcastLike, vec![zero, inputs[2]]);
            let gb = b.add(Select, vec![inputs[0], zr, g]);
            let gas = b.add(SumToShape, vec![ga, inputs[1]]);
            let gbs = b.add(SumToShape, vec![gb, inputs[2]]);
            vec![(inputs[1], gas), (inputs[2], gbs)]
        }
        Maximum | Minimum => {
            let cmp = if matches!(op, Maximum) {
                b.add(GreaterEqual, vec![inputs[0], inputs[1]])
            } else {
                b.add(LessEqual, vec![inputs[0], inputs[1]])
            };
            let m = b.cast(cmp, autograph_tensor::DType::F32);
            let ga_full = b.mul(g, m);
            let one = b.scalar(1.0);
            let inv = b.sub(one, m);
            let gb_full = b.mul(g, inv);
            let ga = b.add(SumToShape, vec![ga_full, inputs[0]]);
            let gb = b.add(SumToShape, vec![gb_full, inputs[1]]);
            vec![(inputs[0], ga), (inputs[1], gb)]
        }
        StackOp => {
            // each input's grad is the corresponding row of g
            inputs
                .iter()
                .enumerate()
                .map(|(i, &inp)| {
                    let idx = b.constant(Tensor::scalar_i64(i as i64));
                    let gi = b.add(IndexAxis0, vec![g, idx]);
                    (inp, gi)
                })
                .collect()
        }
        SumToShape | BroadcastLike | ReshapeLike => {
            // gradient helpers appear only in gradient graphs; taking
            // second-order gradients of SumToShape is re-broadcasting
            let ga = match op {
                SumToShape => b.add(BroadcastLike, vec![g, inputs[0]]),
                BroadcastLike => b.add(SumToShape, vec![g, inputs[0]]),
                _ => b.add(ReshapeLike, vec![g, inputs[0]]),
            };
            vec![(inputs[0], ga)]
        }
        // comparisons, logicals, integer ops: zero gradient (non-differentiable
        // outputs are never on a differentiable path to an f32 loss)
        Less | LessEqual | Greater | GreaterEqual | Equal | NotEqual | LogicalAnd | LogicalOr
        | LogicalNot | ArgMax(_) | Shape | Size | DimSize(_) | Range | OneHot(_) | FloorDiv
        | Mod => vec![],
        other => {
            return Err(GraphError::staging(format!(
                "no gradient registered for op '{}'",
                other.mnemonic()
            )));
        }
    };
    Ok(r)
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
                let sq = b.add(OpKind::Square, vec![x]);
                b.add(OpKind::ReduceSum(None), vec![sq])
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
                let e = b.add(OpKind::Exp, vec![r]);
                let l = b.add(OpKind::Log, vec![e]);
                b.add(OpKind::ReduceSum(None), vec![l])
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
                let sq = b.add(OpKind::Square, vec![s]);
                b.add(OpKind::ReduceSum(None), vec![sq])
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
                let xm = b.add(OpKind::Reshape(vec![1, 3]), vec![x]);
                let wc = b.constant(w.clone());
                let y = b.matmul(xm, wc);
                let sq = b.add(OpKind::Square, vec![y]);
                b.add(OpKind::ReduceSum(None), vec![sq])
            },
            vec_t(vec![0.7, -0.2, 0.4]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_mean_and_axis_sum() {
        check_grad(
            |b, x| {
                let m = b.add(OpKind::Reshape(vec![2, 3]), vec![x]);
                let row = b.add(OpKind::ReduceSum(Some(1)), vec![m]);
                let mean = b.add(OpKind::ReduceMean(None), vec![row]);
                let sq = b.add(OpKind::Square, vec![mean]);
                b.add(OpKind::ReduceSum(None), vec![sq])
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
                let cond = b.add(OpKind::Greater, vec![x, half]);
                let nx = b.add(OpKind::Neg, vec![x]);
                let sel = b.add(OpKind::Select, vec![cond, x, nx]);
                let mx = b.add(OpKind::Maximum, vec![sel, zero]);
                let sq = b.add(OpKind::Square, vec![mx]);
                b.add(OpKind::ReduceSum(None), vec![sq])
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
                let logits = b.add(OpKind::Reshape(vec![2, 3]), vec![x]);
                let lab = b.constant(labels.clone());
                b.add(OpKind::SoftmaxCrossEntropy, vec![logits, lab])
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
        let loss = b.add(OpKind::ReduceSum(None), vec![x]);
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
                b.add(OpKind::ReduceSum(None), vec![s])
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
        let gathered = b.add(OpKind::Gather, vec![x, idx]);
        let loss = b.add(OpKind::ReduceSum(None), vec![gathered]);
        let err = gradients(&mut b, loss, &[x]).unwrap_err();
        assert!(err.to_string().contains("no gradient"));
    }

    #[test]
    fn stop_gradient_blocks() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let s = b.add(OpKind::StopGradient, vec![x]);
        let sq = b.add(OpKind::Square, vec![s]);
        let loss = b.add(OpKind::ReduceSum(None), vec![sq]);
        let grads = gradients(&mut b, loss, &[x]).unwrap();
        let mut sess = Session::new(b.finish());
        let out = sess.run(&[("x", vec_t(vec![3.0]))], &[grads[0]]).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[0.0]);
    }
}
