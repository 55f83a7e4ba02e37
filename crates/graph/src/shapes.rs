//! Static shape inference and staging-time validation.
//!
//! Appendix B classifies shape errors as *staging errors* that are "only
//! detectable at runtime" and notes better detection as future work — this
//! module implements that extension with TensorFlow-style **partial
//! shapes**: each dimension is independently known or unknown, so
//! constraints propagate through placeholders (e.g. `matmul(x, w)` with
//! known `w` yields `[?, cols(w)]`). Provable inconsistencies are reported
//! **before** execution, attributed to the staged node's original source
//! span.

use crate::ir::{Graph, Op, OpKind};
use crate::{GraphError, Result};

/// One dimension: `Some(n)` known, `None` unknown.
pub(crate) type Dim = Option<usize>;

/// A partial shape: `None` = rank unknown; `Some(dims)` = rank known,
/// individual dims possibly unknown.
pub(crate) type PShape = Option<Vec<Dim>>;

/// Fully-known partial shape from concrete dims.
fn known(dims: &[usize]) -> PShape {
    Some(dims.iter().map(|&d| Some(d)).collect())
}

/// `(rows, cols)` of a rank-2 matmul operand as multiplied: swapped when
/// its transpose flag is set. `None` for any other rank.
fn as_multiplied(s: &[Dim], transpose: bool) -> Option<(Dim, Dim)> {
    match (s, transpose) {
        ([r, c], false) => Some((*r, *c)),
        ([r, c], true) => Some((*c, *r)),
        _ => None,
    }
}

/// Broadcast two partial shapes; `Err(())` when provably incompatible.
fn broadcast(a: &[Dim], b: &[Dim]) -> std::result::Result<Vec<Dim>, ()> {
    let rank = a.len().max(b.len());
    let mut out = Vec::with_capacity(rank);
    for i in 0..rank {
        let x = if i < rank - a.len() {
            Some(1)
        } else {
            a[i - (rank - a.len())]
        };
        let y = if i < rank - b.len() {
            Some(1)
        } else {
            b[i - (rank - b.len())]
        };
        out.push(match (x, y) {
            (Some(1), d) | (d, Some(1)) => d,
            (Some(m), Some(n)) if m == n => Some(m),
            (Some(_), Some(_)) => return Err(()),
            (Some(m), None) | (None, Some(m)) => {
                // the unknown side may be 1 or m — result unknown unless m == 1
                if m == 1 {
                    None
                } else {
                    Some(m) // other side must be m or 1; result is m either way
                }
            }
            (None, None) => None,
        });
    }
    Ok(out)
}

/// Infer per-node partial output shapes (tensor-valued nodes only; arrays,
/// tuples and control flow yield `None`).
pub(crate) fn infer(graph: &Graph) -> Vec<PShape> {
    let mut shapes: Vec<PShape> = Vec::with_capacity(graph.nodes.len());
    for node in &graph.nodes {
        let get = |i: usize| -> PShape { shapes[node.inputs[i]].clone() };
        let s: PShape = match &node.op {
            OpKind::Const(t) => known(t.shape()),
            OpKind::Variable { name } => graph
                .variables
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, t)| known(t.shape())),
            OpKind::Print(_) | OpKind::AssertOp(_) => get(0),
            OpKind::Tensor(op) => infer_op(op, get, node.inputs.len()),
            _ => None,
        };
        shapes.push(s);
    }
    shapes
}

/// The partial output shape of a tensor op, given its inputs' (`get`).
fn infer_op(op: &Op, get: impl Fn(usize) -> PShape, arity: usize) -> PShape {
    use Op::*;
    match op {
        Add | Sub | Mul | Div | FloorDiv | Mod | Pow | Maximum | Minimum | Less | LessEqual
        | Greater | GreaterEqual | Equal | NotEqual | LogicalAnd | LogicalOr => {
            match (get(0), get(1)) {
                (Some(a), Some(b)) => broadcast(&a, &b).ok(),
                _ => None,
            }
        }
        Neg | Abs | Sqrt | Exp | Log | Square | Tanh | Sigmoid | Relu | Softmax | LogSoftmax
        | LogicalNot | Cast(_) | Identity | StopGradient | SetItemAxis0 => get(0),
        MatMul {
            transpose_a,
            transpose_b,
        } => {
            // outer None: shape unknown; inner None: known, not rank 2
            let a = get(0).map(|s| as_multiplied(&s, *transpose_a));
            let b = get(1).map(|s| as_multiplied(&s, *transpose_b));
            match (a, b) {
                (Some(Some((m, _))), Some(Some((_, n)))) => Some(vec![m, n]),
                // one side unknown: rank-2 matmul still pins the other axis
                (Some(Some((m, _))), None) => Some(vec![m, None]),
                (None, Some(Some((_, n)))) => Some(vec![None, n]),
                _ => None,
            }
        }
        Transpose(perm) => get(0).and_then(|s| {
            if perm.len() == s.len() {
                Some(perm.iter().map(|&p| s[p]).collect())
            } else {
                None
            }
        }),
        Reshape(dims) => {
            if dims.contains(&usize::MAX) {
                get(0).map(|s| {
                    let total: Option<usize> = s
                        .iter()
                        .copied()
                        .collect::<Option<Vec<_>>>()
                        .map(|v| v.iter().product());
                    let knowns: usize = dims.iter().filter(|&&d| d != usize::MAX).product();
                    match total {
                        Some(total) if knowns > 0 && total % knowns == 0 => dims
                            .iter()
                            .map(|&d| {
                                if d == usize::MAX {
                                    Some(total / knowns)
                                } else {
                                    Some(d)
                                }
                            })
                            .collect(),
                        _ => dims
                            .iter()
                            .map(|&d| if d == usize::MAX { None } else { Some(d) })
                            .collect(),
                    }
                })
            } else {
                known(dims)
            }
        }
        ExpandDims(ax) => get(0).and_then(|mut s| {
            let rank = s.len() as isize;
            let a = if *ax < 0 { *ax + rank + 1 } else { *ax };
            if a < 0 || a > rank {
                None
            } else {
                s.insert(a as usize, Some(1));
                Some(s)
            }
        }),
        Squeeze(None) => get(0).and_then(|s| {
            // unknown dims might be 1: result rank unknown unless all known
            if s.iter().all(Option::is_some) {
                Some(s.into_iter().filter(|d| *d != Some(1)).collect())
            } else {
                None
            }
        }),
        Squeeze(Some(ax)) => get(0).and_then(|mut s| {
            let rank = s.len() as isize;
            let a = if *ax < 0 { *ax + rank } else { *ax };
            if a < 0 || a >= rank {
                None
            } else {
                s.remove(a as usize);
                Some(s)
            }
        }),
        ReduceSum(ax) | ReduceMean(ax) | ReduceMax(ax) | ReduceMin(ax) | ReduceAll(ax)
        | ReduceAny(ax) => match ax {
            None => Some(vec![]),
            Some(a) => get(0).and_then(|mut s| {
                let rank = s.len() as isize;
                let a = if *a < 0 { *a + rank } else { *a };
                if a < 0 || a >= rank {
                    None
                } else {
                    s.remove(a as usize);
                    Some(s)
                }
            }),
        },
        ArgMax(a) => get(0).and_then(|mut s| {
            let rank = s.len() as isize;
            let a = if *a < 0 { *a + rank } else { *a };
            if a < 0 || a >= rank {
                None
            } else {
                s.remove(a as usize);
                Some(s)
            }
        }),
        Shape => get(0).map(|s| vec![Some(s.len())]),
        Size | DimSize(_) => Some(vec![]),
        IndexAxis0 => get(0).and_then(|s| {
            if s.is_empty() {
                None
            } else {
                Some(s[1..].to_vec())
            }
        }),
        OneHot(depth) => get(0).map(|mut s| {
            s.push(Some(*depth));
            s
        }),
        TopKValues(k) | TopKIndices(k) => get(0).and_then(|mut s| {
            if s.is_empty() {
                None
            } else {
                *s.last_mut().expect("nonempty") = Some(*k);
                Some(s)
            }
        }),
        Gather => match (get(0), get(1)) {
            (Some(x), Some(idx)) if !x.is_empty() => {
                let mut out = idx;
                out.extend_from_slice(&x[1..]);
                Some(out)
            }
            _ => None,
        },
        StackOp => {
            let all: Option<Vec<Vec<Dim>>> = (0..arity).map(&get).collect();
            all.and_then(|shapes| {
                if shapes.windows(2).all(|w| w[0].len() == w[1].len()) && !shapes.is_empty() {
                    let mut out = vec![Some(shapes.len())];
                    out.extend_from_slice(&shapes[0]);
                    Some(out)
                } else {
                    None
                }
            })
        }
        _ => None,
    }
}

/// Render a partial shape for error messages: `[?, 4]`.
fn render(s: &[Dim]) -> String {
    let parts: Vec<String> = s
        .iter()
        .map(|d| match d {
            Some(n) => n.to_string(),
            None => "?".to_string(),
        })
        .collect();
    format!("[{}]", parts.join(", "))
}

/// Validate statically-provable shape constraints, reporting staging
/// errors at the offending node (with its original source span).
///
/// # Errors
///
/// Returns [`GraphError`] (staging phase) for provable mismatches:
/// matmul inner dimensions, broadcast incompatibilities, transpose rank,
/// `select` branch shapes.
pub fn validate(graph: &Graph) -> Result<()> {
    let shapes = infer(graph);
    for node in graph.nodes.iter() {
        let get = |i: usize| -> PShape { shapes[node.inputs[i]].clone() };
        let fail = |msg: String| -> Result<()> {
            Err(GraphError::staging(msg)
                .at_node(node.name.clone())
                .at_span(node.span))
        };
        match &node.op {
            OpKind::Tensor(Op::MatMul {
                transpose_a,
                transpose_b,
            }) => {
                if let (Some(a), Some(b)) = (get(0), get(1)) {
                    let inner = (
                        as_multiplied(&a, *transpose_a),
                        as_multiplied(&b, *transpose_b),
                    );
                    if let (Some((_, Some(k))), Some((Some(j), _))) = inner {
                        if k != j {
                            let mark = |t: bool| if t { "^T" } else { "" };
                            fail(format!(
                                "matmul inner dimensions disagree: {}{} x {}{}",
                                render(&a),
                                mark(*transpose_a),
                                render(&b),
                                mark(*transpose_b)
                            ))?;
                        }
                    }
                }
            }
            OpKind::Tensor(Op::Add | Op::Sub | Op::Mul | Op::Div) => {
                if let (Some(a), Some(b)) = (get(0), get(1)) {
                    if broadcast(&a, &b).is_err() {
                        fail(format!(
                            "cannot broadcast {} with {}",
                            render(&a),
                            render(&b)
                        ))?;
                    }
                }
            }
            OpKind::Tensor(Op::Transpose(perm)) => {
                if let Some(s) = get(0) {
                    if perm.len() != s.len() {
                        fail(format!(
                            "transpose permutation {perm:?} does not match rank {}",
                            s.len()
                        ))?;
                    }
                }
            }
            OpKind::Tensor(Op::Select) => {
                if let (Some(a), Some(b)) = (get(1), get(2)) {
                    if broadcast(&a, &b).is_err() {
                        fail(format!(
                            "select branches have incompatible shapes {} / {}",
                            render(&a),
                            render(&b)
                        ))?;
                    }
                }
            }
            // recurse into subgraphs (their params are unknown, so only
            // internally-provable errors surface)
            OpKind::Cond { then_g, else_g } => {
                validate(&then_g.graph)?;
                validate(&else_g.graph)?;
            }
            OpKind::While { cond_g, body_g, .. } => {
                validate(&cond_g.graph)?;
                validate(&body_g.graph)?;
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use autograph_tensor::{DType, Tensor};

    #[test]
    fn infers_through_arithmetic_and_matmul() {
        let mut b = GraphBuilder::new();
        let a = b.constant(Tensor::zeros(DType::F32, &[2, 3]));
        let w = b.constant(Tensor::zeros(DType::F32, &[3, 4]));
        let m = b.matmul(a, w);
        let bias = b.constant(Tensor::zeros(DType::F32, &[4]));
        let out = b.add_op(m, bias);
        let t = b.tanh(out);
        // the flags swap each operand's axes before the product:
        // [2, 3]^T x [4, 2]^T is [3, 2] x [2, 4]
        let v = b.constant(Tensor::zeros(DType::F32, &[4, 2]));
        let tt = b.matmul_t(a, v, true, true);
        let g = b.finish();
        let shapes = infer(&g);
        assert_eq!(shapes[m], known(&[2, 4]));
        assert_eq!(shapes[tt], known(&[3, 4]));
        assert_eq!(shapes[out], known(&[2, 4]));
        assert_eq!(shapes[t], known(&[2, 4]));
    }

    #[test]
    fn partial_shapes_flow_through_placeholders() {
        // matmul(x_unknown, w[3,4]) -> [?, 4]; then matmul with [5, 2]
        // is provably wrong even though x is a placeholder
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let w1 = b.constant(Tensor::zeros(DType::F32, &[3, 4]));
        let a = b.matmul(x, w1);
        let g = b.finish();
        let shapes = infer(&g);
        assert_eq!(shapes[x], None);
        assert_eq!(shapes[a], Some(vec![None, Some(4)]));
    }

    #[test]
    fn variable_shapes_known() {
        let mut b = GraphBuilder::new();
        let w = b.variable("w", Tensor::zeros(DType::F32, &[5, 2]));
        let g = b.finish();
        assert_eq!(infer(&g)[w], known(&[5, 2]));
    }

    #[test]
    fn reductions_indexing_and_stack() {
        let mut b = GraphBuilder::new();
        let m = b.constant(Tensor::zeros(DType::F32, &[4, 6]));
        let s0 = b.add(Op::ReduceSum(Some(0)), vec![m]);
        let full = b.add(Op::ReduceMean(None), vec![m]);
        let i = b.constant(Tensor::scalar_i64(1));
        let row = b.add(Op::IndexAxis0, vec![m, i]);
        let st = b.add(Op::StackOp, vec![row, row]);
        let oh = {
            let idx = b.constant(Tensor::from_vec_i64(vec![0, 1], &[2]).unwrap());
            b.add(Op::OneHot(7), vec![idx])
        };
        let g = b.finish();
        let shapes = infer(&g);
        assert_eq!(shapes[s0], known(&[6]));
        assert_eq!(shapes[full], known(&[]));
        assert_eq!(shapes[row], known(&[6]));
        assert_eq!(shapes[st], known(&[2, 6]));
        assert_eq!(shapes[oh], known(&[2, 7]));
    }

    #[test]
    fn reshape_with_inferred_dim() {
        let mut b = GraphBuilder::new();
        let m = b.constant(Tensor::zeros(DType::F32, &[3, 4]));
        let r = b.add(Op::Reshape(vec![2, usize::MAX]), vec![m]);
        let g = b.finish();
        assert_eq!(infer(&g)[r], known(&[2, 6]));
        // unknown total -> unknown inferred dim, known static dims kept
        let mut b2 = GraphBuilder::new();
        let x = b2.placeholder("x");
        let r2 = b2.add(Op::Reshape(vec![7, usize::MAX]), vec![x]);
        let g2 = b2.finish();
        assert_eq!(infer(&g2)[r2], None); // input rank unknown
    }

    #[test]
    fn validate_catches_matmul_mismatch_before_execution() {
        let mut b = GraphBuilder::new();
        b.set_span(autograph_pylang::Span::new(7, 5));
        let a = b.constant(Tensor::zeros(DType::F32, &[2, 3]));
        let w = b.constant(Tensor::zeros(DType::F32, &[4, 2]));
        let _m = b.matmul(a, w);
        let g = b.finish();
        let err = validate(&g).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("staging error"), "{msg}");
        assert!(msg.contains("inner dimensions"), "{msg}");
        assert!(msg.contains("7:5"), "original span attached: {msg}");

        // the inner dimension is read through the flags: [2, 3] x [3, 4]
        // is fine, [2, 3]^T x [3, 4] is [3, 2] x [3, 4]
        let mut b = GraphBuilder::new();
        b.set_span(autograph_pylang::Span::new(9, 2));
        let a = b.constant(Tensor::zeros(DType::F32, &[2, 3]));
        let w = b.constant(Tensor::zeros(DType::F32, &[3, 4]));
        let _ok = b.matmul(a, w);
        assert!(validate(b.graph()).is_ok());
        let _m = b.matmul_t(a, w, true, false);
        let msg = validate(&b.finish()).unwrap_err().to_string();
        assert!(msg.contains("staging error"), "{msg}");
        assert!(msg.contains("[2, 3]^T x [3, 4]"), "{msg}");
        assert!(msg.contains("9:2"), "{msg}");
    }

    #[test]
    fn validate_catches_mismatch_through_placeholder() {
        // the key partial-shape payoff: [?, 4] x [5, 2] is provably wrong
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let w1 = b.constant(Tensor::zeros(DType::F32, &[3, 4]));
        let a = b.matmul(x, w1);
        let w2 = b.constant(Tensor::zeros(DType::F32, &[5, 2]));
        let _bad = b.matmul(a, w2);
        let g = b.finish();
        let msg = validate(&g).unwrap_err().to_string();
        assert!(msg.contains("[?, 4]"), "{msg}");
        assert!(msg.contains("[5, 2]"), "{msg}");
    }

    #[test]
    fn validate_catches_broadcast_mismatch() {
        let mut b = GraphBuilder::new();
        let a = b.constant(Tensor::zeros(DType::F32, &[2, 3]));
        let c = b.constant(Tensor::zeros(DType::F32, &[4]));
        let _s = b.add_op(a, c);
        let g = b.finish();
        assert!(validate(&g).unwrap_err().to_string().contains("broadcast"));
    }

    #[test]
    fn unknown_dims_never_false_positive() {
        // [?, 4] broadcast [2, 1] is satisfiable -> no error
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let w = b.constant(Tensor::zeros(DType::F32, &[3, 4]));
        let a = b.matmul(x, w); // [?, 4]
        let c = b.constant(Tensor::zeros(DType::F32, &[2, 1]));
        let _s = b.add_op(a, c);
        let g = b.finish();
        assert!(validate(&g).is_ok());
    }

    #[test]
    fn validate_recurses_into_cond_branches() {
        use crate::builder::SubGraphBuilder;
        let mut b = GraphBuilder::new();
        let pred = b.constant(Tensor::scalar_bool(true));
        let then_g = {
            let (mut sb, _p) = SubGraphBuilder::new(0);
            let x = sb.b.constant(Tensor::zeros(DType::F32, &[2, 3]));
            let y = sb.b.constant(Tensor::zeros(DType::F32, &[5, 7]));
            let bad = sb.b.matmul(x, y);
            sb.finish(vec![bad])
        };
        let else_g = {
            let (mut sb, _p) = SubGraphBuilder::new(0);
            let z = sb.b.scalar(0.0);
            sb.finish(vec![z])
        };
        let _c = b.cond(pred, vec![], then_g, else_g);
        let g = b.finish();
        assert!(validate(&g).is_err());
    }

    #[test]
    fn partial_broadcast_rules() {
        assert_eq!(
            broadcast(&[Some(2), Some(3)], &[Some(3)]).unwrap(),
            vec![Some(2), Some(3)]
        );
        assert_eq!(
            broadcast(&[None, Some(3)], &[Some(3)]).unwrap(),
            vec![None, Some(3)]
        );
        // unknown vs known-non-1: result takes the known dim
        assert_eq!(broadcast(&[None], &[Some(5)]).unwrap(), vec![Some(5)]);
        // unknown vs 1: stays unknown
        assert_eq!(broadcast(&[None], &[Some(1)]).unwrap(), vec![None]);
        assert!(broadcast(&[Some(2)], &[Some(3)]).is_err());
    }
}
