//! Reverse-mode gradient rules, written once for every backend: the
//! TF-Eager design (arXiv:1903.01855), where the tape replays the same
//! gradient functions graph construction uses.
//!
//! Every backend reads an op's [`Rule`] off its [`Op`] ([`Op::rule`]).
//! [`vjp`] writes a rule's adjoint as `Op`s through a [`Diff`] emitter:
//! the graph builder emits one node per op in reverse creation order, and
//! [`Kernels`] runs the op's kernel. The eager runtime and Lantern record
//! into the one [`Tape`] and replay it through [`Kernels`].

use crate::op::Op;
use crate::reduce::normalize_axis;
use crate::{DType, Result, Tensor, TensorError};
use std::ops::Range;

/// One op's gradient rule, with the attributes its adjoint reads.
#[derive(Debug, Clone, PartialEq)]
pub enum Rule {
    /// Contributes nothing: leaves, comparisons, integer and shape ops,
    /// `stop_gradient`.
    Zero,
    /// Passes the adjoint through (`identity`, `print`).
    Identity,
    /// `a + b`, broadcasting (as are the other binary rules).
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b`.
    Div,
    /// `a ** b`.
    Pow,
    /// Elementwise max.
    Maximum,
    /// Elementwise min.
    Minimum,
    /// `-a`.
    Neg,
    /// `|a|`.
    Abs,
    /// `exp(a)`.
    Exp,
    /// `ln(a)`.
    Log,
    /// `sqrt(a)`.
    Sqrt,
    /// `a * a`.
    Square,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear.
    Relu,
    /// Mean softmax cross-entropy of `[logits, labels]`.
    SoftmaxXent,
    /// `select(cond, a, b)`.
    Select,
    /// `op(a) · op(b)`; a flag transposes its operand's trailing two axes.
    MatMul {
        /// Multiply by `aᵀ`.
        transpose_a: bool,
        /// Multiply by `bᵀ`.
        transpose_b: bool,
    },
    /// Axis permutation.
    Transpose(Vec<usize>),
    /// An op that only relabels its input's elements: reshape,
    /// expand_dims, squeeze, cast.
    Reshape,
    /// Sum over one axis, or over all.
    ReduceSum(Option<isize>),
    /// Mean over one axis, or over all.
    ReduceMean(Option<isize>),
    /// Stack along a new axis 0.
    Stack,
    /// Concatenate every input along an axis (negative counts from the
    /// end).
    Concat(isize),
    /// The graph's sum-to-shape gradient helper (second-order gradients).
    SumToShape,
    /// The graph's broadcast-like gradient helper.
    BroadcastLike,
}

/// The message every backend fails with when an adjoint reaches an op
/// that has no rule.
pub fn no_rule(op: &str) -> String {
    format!("no gradient registered for op '{op}'")
}

/// What gradient rules are written in: [`Op`]s, which the graph builder
/// emits as one node per call (`V` is a node id) and [`Kernels`] runs at
/// once (`V` is a tensor).
pub trait Diff {
    /// A value: a graph node id, or a tensor.
    type V: Clone;
    /// An f32 scalar constant.
    fn scalar(&mut self, v: f32) -> Result<Self::V>;
    /// `op` applied to `x`.
    fn op(&mut self, op: Op, x: &[&Self::V]) -> Result<Self::V>;
    /// `a[i]` along axis 0.
    fn index_axis0(&mut self, a: &Self::V, i: usize) -> Result<Self::V>;
    /// [`Tensor::split_like`] into every part: the adjoint of
    /// concatenating them.
    fn split(&mut self, g: &Self::V, axis: isize, parts: &[Self::V]) -> Result<Vec<Self::V>>;
}

/// A flagged matmul.
fn matmul(transpose_a: bool, transpose_b: bool) -> Op {
    Op::MatMul {
        transpose_a,
        transpose_b,
    }
}

/// The vector-Jacobian product of `out = op(x)` under `rule`: given the
/// adjoint `g` of `out`, the `(input index, contribution)` pairs, emitted
/// through `d`.
///
/// # Errors
///
/// Fails when `x` holds too few operands for `rule`, on a transpose
/// permutation that is not one, and on whatever the emitter fails on.
pub fn vjp<D: Diff>(
    d: &mut D,
    rule: &Rule,
    x: &[D::V],
    out: &D::V,
    g: &D::V,
) -> Result<Vec<(usize, D::V)>> {
    use Rule::*;
    Ok(match (rule, x) {
        (Zero, _) => vec![],
        (Identity, [_, ..]) => vec![(0, g.clone())],
        (Add, [a, b, ..]) => vec![
            (0, d.op(Op::SumToShape, &[g, a])?),
            (1, d.op(Op::SumToShape, &[g, b])?),
        ],
        (Sub, [a, b, ..]) => {
            let ga = d.op(Op::SumToShape, &[g, a])?;
            let ng = d.op(Op::Neg, &[g])?;
            vec![(0, ga), (1, d.op(Op::SumToShape, &[&ng, b])?)]
        }
        (Mul, [a, b, ..]) => {
            let gb = d.op(Op::Mul, &[g, a])?;
            let ga = d.op(Op::Mul, &[g, b])?;
            vec![
                (0, d.op(Op::SumToShape, &[&ga, a])?),
                (1, d.op(Op::SumToShape, &[&gb, b])?),
            ]
        }
        (Div, [a, b, ..]) => {
            // d(a/b) = g/b ; -g*a/b^2
            let ga = d.op(Op::Div, &[g, b])?;
            let ga = d.op(Op::SumToShape, &[&ga, a])?;
            let b2 = d.op(Op::Square, &[b])?;
            let num = d.op(Op::Mul, &[g, a])?;
            let frac = d.op(Op::Div, &[&num, &b2])?;
            let gb = d.op(Op::Neg, &[&frac])?;
            vec![(0, ga), (1, d.op(Op::SumToShape, &[&gb, b])?)]
        }
        (Pow, [a, p, ..]) => {
            // da = g * p * a^(p-1);  dp = g * out * ln(a)
            let one = d.scalar(1.0)?;
            let pm1 = d.op(Op::Sub, &[p, &one])?;
            let apm1 = d.op(Op::Pow, &[a, &pm1])?;
            let t1 = d.op(Op::Mul, &[p, &apm1])?;
            let ga = d.op(Op::Mul, &[g, &t1])?;
            let ga = d.op(Op::SumToShape, &[&ga, a])?;
            let lna = d.op(Op::Log, &[a])?;
            let t2 = d.op(Op::Mul, &[out, &lna])?;
            let gp = d.op(Op::Mul, &[g, &t2])?;
            vec![(0, ga), (1, d.op(Op::SumToShape, &[&gp, p])?)]
        }
        (Maximum | Minimum, [a, b, ..]) => {
            let picks_a = match rule {
                Maximum => Op::GreaterEqual,
                _ => Op::LessEqual,
            };
            let picks_a = d.op(picks_a, &[a, b])?;
            let m = d.op(Op::Cast(DType::F32), &[&picks_a])?;
            let ga = d.op(Op::Mul, &[g, &m])?;
            let one = d.scalar(1.0)?;
            let inv = d.op(Op::Sub, &[&one, &m])?;
            let gb = d.op(Op::Mul, &[g, &inv])?;
            vec![
                (0, d.op(Op::SumToShape, &[&ga, a])?),
                (1, d.op(Op::SumToShape, &[&gb, b])?),
            ]
        }
        (Neg, [_, ..]) => vec![(0, d.op(Op::Neg, &[g])?)],
        (Abs, [a, ..]) => {
            let zero = d.scalar(0.0)?;
            let pos = d.op(Op::GreaterEqual, &[a, &zero])?;
            let ng = d.op(Op::Neg, &[g])?;
            vec![(0, d.op(Op::Select, &[&pos, g, &ng])?)]
        }
        (Exp, [_, ..]) => vec![(0, d.op(Op::Mul, &[g, out])?)],
        (Log, [a, ..]) => vec![(0, d.op(Op::Div, &[g, a])?)],
        (Sqrt, [_, ..]) => {
            let half = d.scalar(0.5)?;
            let hg = d.op(Op::Mul, &[g, &half])?;
            vec![(0, d.op(Op::Div, &[&hg, out])?)]
        }
        (Square, [a, ..]) => {
            let two = d.scalar(2.0)?;
            let t = d.op(Op::Mul, &[a, &two])?;
            vec![(0, d.op(Op::Mul, &[g, &t])?)]
        }
        (Tanh, [_, ..]) => {
            let y2 = d.op(Op::Square, &[out])?;
            let one = d.scalar(1.0)?;
            let dy = d.op(Op::Sub, &[&one, &y2])?;
            vec![(0, d.op(Op::Mul, &[g, &dy])?)]
        }
        (Sigmoid, [_, ..]) => {
            let one = d.scalar(1.0)?;
            let om = d.op(Op::Sub, &[&one, out])?;
            let dy = d.op(Op::Mul, &[out, &om])?;
            vec![(0, d.op(Op::Mul, &[g, &dy])?)]
        }
        (Relu, [a, ..]) => {
            let zero = d.scalar(0.0)?;
            let mask = d.op(Op::Greater, &[a, &zero])?;
            let mask = d.op(Op::Cast(DType::F32), &[&mask])?;
            vec![(0, d.op(Op::Mul, &[g, &mask])?)]
        }
        (SoftmaxXent, [logits, labels, ..]) => {
            let dl = d.op(Op::XentGrad, &[logits, labels])?;
            vec![(0, d.op(Op::Mul, &[g, &dl])?)]
        }
        (Select, [cond, a, b, ..]) => {
            let zero = d.scalar(0.0)?;
            let za = d.op(Op::BroadcastLike, &[&zero, a])?;
            let ga = d.op(Op::Select, &[cond, g, &za])?;
            let zb = d.op(Op::BroadcastLike, &[&zero, b])?;
            let gb = d.op(Op::Select, &[cond, &zb, g])?;
            vec![
                (1, d.op(Op::SumToShape, &[&ga, a])?),
                (2, d.op(Op::SumToShape, &[&gb, b])?),
            ]
        }
        (
            MatMul {
                transpose_a,
                transpose_b,
            },
            [a, b, ..],
        ) => {
            // TF's _MatMulGrad table: every case is again a flagged
            // matmul, so no transpose is materialised at any order
            let (ga, gb) = match (*transpose_a, *transpose_b) {
                (false, false) => (
                    d.op(matmul(false, true), &[g, b])?,
                    d.op(matmul(true, false), &[a, g])?,
                ),
                (false, true) => (
                    d.op(matmul(false, false), &[g, b])?,
                    d.op(matmul(true, false), &[g, a])?,
                ),
                (true, false) => (
                    d.op(matmul(false, true), &[b, g])?,
                    d.op(matmul(false, false), &[a, g])?,
                ),
                (true, true) => (
                    d.op(matmul(true, true), &[b, g])?,
                    d.op(matmul(true, true), &[g, a])?,
                ),
            };
            vec![(0, ga), (1, gb)]
        }
        (Transpose(perm), [_, ..]) => {
            let mut inv = vec![0; perm.len()];
            for (i, &p) in perm.iter().enumerate() {
                *inv.get_mut(p).ok_or_else(|| TensorError::InvalidArgument {
                    op: "transpose",
                    detail: format!("{perm:?} is not a permutation"),
                })? = i;
            }
            vec![(0, d.op(Op::Transpose(inv), &[g])?)]
        }
        (Reshape, [a, ..]) => vec![(0, d.op(Op::ReshapeLike, &[g, a])?)],
        (ReduceSum(axis), [a, ..]) => {
            let g = match axis {
                Some(ax) => d.op(Op::ExpandDims(*ax), &[g])?,
                None => g.clone(),
            };
            vec![(0, d.op(Op::BroadcastLike, &[&g, a])?)]
        }
        (ReduceMean(None), [a, ..]) => {
            let n = d.op(Op::Size, &[a])?;
            let gb = d.op(Op::BroadcastLike, &[g, a])?;
            vec![(0, d.op(Op::Div, &[&gb, &n])?)]
        }
        (ReduceMean(Some(ax)), [a, ..]) => {
            let ge = d.op(Op::ExpandDims(*ax), &[g])?;
            let gb = d.op(Op::BroadcastLike, &[&ge, a])?;
            let n = d.op(Op::DimSize(*ax), &[a])?;
            vec![(0, d.op(Op::Div, &[&gb, &n])?)]
        }
        (Stack, _) => (0..x.len())
            .map(|i| Ok((i, d.index_axis0(g, i)?)))
            .collect::<Result<_>>()?,
        (Concat(axis), _) => d.split(g, *axis, x)?.into_iter().enumerate().collect(),
        (SumToShape, [a, ..]) => vec![(0, d.op(Op::BroadcastLike, &[g, a])?)],
        (BroadcastLike, [a, ..]) => vec![(0, d.op(Op::SumToShape, &[g, a])?)],
        _ => {
            return Err(TensorError::InvalidArgument {
                op: "vjp",
                detail: format!("{rule:?} given {} inputs", x.len()),
            })
        }
    })
}

/// The kernel emitter: a rule's adjoint as tensor kernels, run at once.
/// [`Tape`] replays through it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernels;

impl Diff for Kernels {
    type V = Tensor;
    fn scalar(&mut self, v: f32) -> Result<Tensor> {
        Ok(Tensor::scalar_f32(v))
    }
    fn op(&mut self, op: Op, mut x: &[&Tensor]) -> Result<Tensor> {
        op.apply(&mut x)
    }
    fn index_axis0(&mut self, a: &Tensor, i: usize) -> Result<Tensor> {
        a.index_axis0(i as i64)
    }
    fn split(&mut self, g: &Tensor, axis: isize, parts: &[Tensor]) -> Result<Vec<Tensor>> {
        g.split_like(axis, parts, 0..parts.len())
    }
}

/// One recorded op: what its adjoint reads.
#[derive(Debug)]
struct Entry {
    name: &'static str,
    rule: Option<Rule>,
    inputs: Vec<Tensor>,
    nodes: Vec<Option<usize>>,
    output: Tensor,
    node: usize,
}

/// A data tape: tracked values are numbered nodes, and every op with a
/// tracked input is an entry of its rule, its saved inputs and its
/// output. [`Tape::gradients`] replays the entries in reverse through
/// [`vjp`] and [`Kernels`]: the eager runtime's `GradientTape` and
/// Lantern's backward pass (its `shift`/`reset` continuations, run in the
/// same order) alike.
#[derive(Debug, Default)]
pub struct Tape {
    entries: Vec<Entry>,
    nodes: usize,
}

impl Tape {
    /// A fresh node: a leaf to differentiate with respect to.
    pub fn watch(&mut self) -> usize {
        self.nodes += 1;
        self.nodes - 1
    }

    /// Record `output = op(inputs)`, each input with its node if tracked.
    /// Returns the output's node, or `None` when no input is tracked. The
    /// inputs are cloned only into an entry; an op whose rule is
    /// [`Rule::Zero`] (a comparison) gets a node but no entry.
    pub fn record<'a, I>(&mut self, op: &Op, inputs: I, output: &Tensor) -> Option<usize>
    where
        I: IntoIterator<Item = (&'a Tensor, Option<usize>)>,
        I::IntoIter: Clone,
    {
        let inputs = inputs.into_iter();
        if inputs.clone().all(|(_, node)| node.is_none()) {
            return None;
        }
        let node = self.watch();
        let rule = op.rule();
        if rule != Some(Rule::Zero) {
            let (inputs, nodes) = inputs.map(|(t, n)| (t.clone(), n)).unzip();
            self.entries.push(Entry {
                name: op.name(),
                rule,
                inputs,
                nodes,
                output: output.clone(),
                node,
            });
        }
        Some(node)
    }

    /// The gradients of node `loss` (of shape `loss_shape`) with respect
    /// to each `(node, shape)` of `wrt`: the loss's adjoint seeded with
    /// ones, the entries replayed in reverse, and contributions to a node
    /// summed in the order [`vjp`] returns them. A node the adjoint never
    /// reaches gets zeros of its shape.
    ///
    /// # Errors
    ///
    /// Fails with the op's name and the message when the adjoint reaches
    /// an op with no rule ([`no_rule`]) or a kernel fails.
    pub fn gradients(
        self,
        loss: usize,
        loss_shape: &[usize],
        wrt: &[(usize, &[usize])],
    ) -> std::result::Result<Vec<Tensor>, (&'static str, String)> {
        let mut adjoints: Vec<Option<Tensor>> = vec![None; self.nodes];
        if let Some(slot) = adjoints.get_mut(loss) {
            *slot = Some(Tensor::ones(DType::F32, loss_shape));
        }
        // each entry is dropped once replayed, its saved tensors with it
        for e in self.entries.into_iter().rev() {
            let Some(Some(g)) = adjoints.get(e.node).cloned() else {
                continue;
            };
            let rule = e.rule.as_ref().ok_or_else(|| (e.name, no_rule(e.name)))?;
            let failed = |err: TensorError| (e.name, err.to_string());
            for (i, g) in vjp(&mut Kernels, rule, &e.inputs, &e.output, &g).map_err(failed)? {
                let node = e.nodes.get(i).copied().flatten();
                if let Some(slot) = node.and_then(|n| adjoints.get_mut(n)) {
                    *slot = Some(match slot.take() {
                        Some(acc) => acc.add(&g).map_err(failed)?,
                        None => g,
                    });
                }
            }
        }
        Ok(wrt
            .iter()
            .map(|&(node, shape)| {
                adjoints
                    .get(node)
                    .cloned()
                    .flatten()
                    .unwrap_or_else(|| Tensor::zeros(DType::F32, shape))
            })
            .collect())
    }
}

/// The gradient helpers the graph's kernels and [`Kernels`] share.
impl Tensor {
    /// Reduce-sum over the broadcast axes so the shape becomes `target`:
    /// the adjoint of broadcasting.
    ///
    /// # Errors
    ///
    /// Fails when no broadcast of `target` has this shape.
    pub fn sum_to_shape(&self, target: &[usize]) -> Result<Tensor> {
        if self.shape() == target {
            return Ok(self.clone());
        }
        let mut out = self.clone();
        // collapse leading broadcast dimensions
        while out.rank() > target.len() {
            out = out.reduce_sum(Some(0))?;
        }
        // collapse size-1 target dims that were broadcast up, reinstating
        // the size-1 axis
        for (ax, &dim) in target.iter().enumerate() {
            if dim == 1 && out.shape()[ax] != 1 {
                out = out
                    .reduce_sum(Some(ax as isize))?
                    .expand_dims(ax as isize)?;
            }
        }
        if out.shape() != target {
            return Err(TensorError::IncompatibleShapes {
                op: "sum_to_shape",
                detail: format!("cannot reduce {:?} to {target:?}", self.shape()),
            });
        }
        Ok(out)
    }

    /// Broadcast up to `shape`: the adjoint of a reduction.
    ///
    /// # Errors
    ///
    /// Fails when the shapes do not broadcast.
    pub fn broadcast_like(&self, shape: &[usize]) -> Result<Tensor> {
        if self.shape() == shape {
            return Ok(self.clone());
        }
        self.add(&Tensor::zeros(DType::F32, shape))
    }

    /// The gradient of mean softmax cross-entropy with respect to these
    /// logits: `(softmax(logits) - one_hot(labels)) / batch`.
    ///
    /// # Errors
    ///
    /// Fails on rank-0 logits and on labels that do not match them.
    pub fn xent_grad(&self, labels: &Tensor) -> Result<Tensor> {
        let Some(&classes) = self.shape().last() else {
            return Err(TensorError::RankMismatch {
                op: "xent_grad",
                got: 0,
                expected: ">= 1",
            });
        };
        let batch = self.shape()[0].max(1) as f32;
        let oh = labels.one_hot(classes)?;
        self.softmax()?.sub(&oh)?.div(&Tensor::scalar_f32(batch))
    }

    /// The pieces `pieces` of this tensor cut along `axis` into pieces as
    /// wide as `parts` are along it: the adjoint of concatenating `parts`.
    ///
    /// # Errors
    ///
    /// Fails on a bad axis, a range past the parts, and parts that do not
    /// fit.
    pub fn split_like(
        &self,
        axis: isize,
        parts: &[Tensor],
        pieces: Range<usize>,
    ) -> Result<Vec<Tensor>> {
        let ax = normalize_axis("split_like", axis, self.rank())?;
        let width = |part: &Tensor| part.shape().get(ax).map_or(0, |&n| n as i64);
        let mut start: i64 = parts.iter().take(pieces.start).map(width).sum();
        let cut = parts
            .get(pieces.clone())
            .ok_or(TensorError::IndexOutOfRange {
                op: "split_like",
                index: pieces.end as i64,
                bound: parts.len(),
            })?;
        // bring the axis to the front once; each piece is a row range of
        // that, moved back (the swap is its own inverse)
        let mut perm: Vec<usize> = (0..self.rank()).collect();
        perm.swap(0, ax);
        let front = if ax == 0 {
            self.clone()
        } else {
            self.transpose(&perm)?
        };
        cut.iter()
            .map(|part| {
                let stop = start + width(part);
                let piece = front.slice_axis0(Some(start), Some(stop))?;
                start = stop;
                if ax == 0 {
                    Ok(piece)
                } else {
                    piece.transpose(&perm)
                }
            })
            .collect()
    }

    /// The extent of `axis` (negative counts from the end) as an f32
    /// scalar.
    ///
    /// # Errors
    ///
    /// Fails when the axis is out of range.
    pub fn dim_size(&self, axis: isize) -> Result<Tensor> {
        let ax = normalize_axis("dim_size", axis, self.rank())?;
        Ok(Tensor::scalar_f32(self.shape()[ax] as f32))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn records_and_differentiates_chain() {
        // y = (x * x) + x ; dy/dx = 2x + 1 = 7 at x=3
        let mut tape = Tape::default();
        let x = Tensor::scalar_f32(3.0);
        let xn = tape.watch();
        let xx = x.mul(&x).unwrap();
        let xxn = tape.record(&Op::Mul, [(&x, Some(xn)), (&x, Some(xn))], &xx);
        let y = xx.add(&x).unwrap();
        let yn = tape.record(&Op::Add, [(&xx, xxn), (&x, Some(xn))], &y);
        let grads = tape.gradients(yn.unwrap(), &[], &[(xn, &[])]).unwrap();
        assert_eq!(grads[0].scalar_value_f32().unwrap(), 7.0);
    }

    #[test]
    fn unwatched_inputs_are_not_recorded() {
        let mut tape = Tape::default();
        let (a, b) = (Tensor::scalar_f32(2.0), Tensor::scalar_f32(4.0));
        let out = a.mul(&b).unwrap();
        assert_eq!(tape.record(&Op::Mul, [(&a, None), (&b, None)], &out), None);
        // a leaf the loss does not reach gets zeros of its shape
        let (loss, w) = (tape.watch(), tape.watch());
        let grads = tape.gradients(loss, &[], &[(w, &[3])]).unwrap();
        assert_eq!(grads[0].as_f32().unwrap(), &[0.0; 3]);
    }

    #[test]
    fn missing_backward_rule_errors() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let half = Tensor::scalar_f32(1.5);
        // a comparison is tracked but saves nothing and contributes nothing...
        let mut tape = Tape::default();
        let an = tape.watch();
        let out = a.less(&half).unwrap();
        let n = tape.record(&Op::Less, [(&a, Some(an)), (&half, None)], &out);
        assert!(n.is_some() && tape.entries.is_empty());
        let grads = tape.gradients(n.unwrap(), &[2], &[(an, &[2])]).unwrap();
        assert_eq!(grads[0].as_f32().unwrap(), &[0.0, 0.0]);
        // ...and an op with no rule is an error naming it
        let mut tape = Tape::default();
        let an = tape.watch();
        let out = a.softmax().unwrap();
        let n = tape.record(&Op::Softmax, [(&a, Some(an))], &out).unwrap();
        let (op, message) = tape.gradients(n, &[2], &[(an, &[2])]).unwrap_err();
        assert_eq!((op, message), ("softmax", no_rule("softmax")));
    }

    #[test]
    fn fan_in_accumulates() {
        // z = x*y + x ; dz/dx = y + 1, dz/dy = x
        let mut tape = Tape::default();
        let (x, y) = (Tensor::scalar_f32(3.0), Tensor::scalar_f32(5.0));
        let (xn, yn) = (tape.watch(), tape.watch());
        let xy = x.mul(&y).unwrap();
        let xyn = tape.record(&Op::Mul, [(&x, Some(xn)), (&y, Some(yn))], &xy);
        let z = xy.add(&x).unwrap();
        let zn = tape.record(&Op::Add, [(&xy, xyn), (&x, Some(xn))], &z);
        let grads = tape.gradients(zn.unwrap(), &[], &[(xn, &[]), (yn, &[])]);
        let grads = grads.unwrap();
        assert_eq!(grads[0].scalar_value_f32().unwrap(), 6.0);
        assert_eq!(grads[1].scalar_value_f32().unwrap(), 3.0);
    }
}
