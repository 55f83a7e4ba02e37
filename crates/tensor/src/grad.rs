//! Reverse-mode gradient rules, written once for every backend: the
//! TF-Eager design (arXiv:1903.01855), where the tape replays the same
//! gradient functions graph construction uses.
//!
//! A backend maps each of its ops to a [`Rule`] and keeps its own
//! traversal: reverse creation order over graph nodes, the eager tape,
//! Lantern's continuations. [`vjp`] writes a rule's adjoint through a
//! [`Diff`] emitter: the graph builder emits one node per call, and
//! [`Kernels`] runs the kernel, for the eager tape and for Lantern alike.

use crate::reduce::normalize_axis;
use crate::{DType, Result, Tensor, TensorError};

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
    /// Concatenate the first `parts` inputs along `axis`.
    Concat {
        /// The concatenation axis (negative counts from the end).
        axis: isize,
        /// How many inputs are concatenated; any after them are
        /// attributes.
        parts: usize,
    },
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

/// The ops gradient rules are written in. The graph builder emits one
/// node per call (`V` is a node id); [`Kernels`] runs the kernel (`V` is
/// a tensor).
pub trait Diff {
    /// A value: a graph node id, or a tensor.
    type V: Clone;
    /// An f32 scalar constant.
    fn scalar(&mut self, v: f32) -> Result<Self::V>;
    /// `a + b`.
    fn add(&mut self, a: &Self::V, b: &Self::V) -> Result<Self::V>;
    /// `a - b`.
    fn sub(&mut self, a: &Self::V, b: &Self::V) -> Result<Self::V>;
    /// `a * b`.
    fn mul(&mut self, a: &Self::V, b: &Self::V) -> Result<Self::V>;
    /// `a / b`.
    fn div(&mut self, a: &Self::V, b: &Self::V) -> Result<Self::V>;
    /// `a ** b`.
    fn pow(&mut self, a: &Self::V, b: &Self::V) -> Result<Self::V>;
    /// `-a`.
    fn neg(&mut self, a: &Self::V) -> Result<Self::V>;
    /// `ln(a)`.
    fn log(&mut self, a: &Self::V) -> Result<Self::V>;
    /// `a * a`.
    fn square(&mut self, a: &Self::V) -> Result<Self::V>;
    /// `a > b`.
    fn greater(&mut self, a: &Self::V, b: &Self::V) -> Result<Self::V>;
    /// `a >= b`.
    fn greater_equal(&mut self, a: &Self::V, b: &Self::V) -> Result<Self::V>;
    /// `a <= b`.
    fn less_equal(&mut self, a: &Self::V, b: &Self::V) -> Result<Self::V>;
    /// `a` cast to f32.
    fn cast_f32(&mut self, a: &Self::V) -> Result<Self::V>;
    /// `select(cond, a, b)`.
    fn select(&mut self, cond: &Self::V, a: &Self::V, b: &Self::V) -> Result<Self::V>;
    /// `op(a) · op(b)`.
    fn matmul_t(&mut self, a: &Self::V, b: &Self::V, ta: bool, tb: bool) -> Result<Self::V>;
    /// `a` with its axes permuted.
    fn transpose(&mut self, a: &Self::V, perm: &[usize]) -> Result<Self::V>;
    /// `a` reshaped to `like`'s shape.
    fn reshape_like(&mut self, a: &Self::V, like: &Self::V) -> Result<Self::V>;
    /// `a` with a size-1 axis inserted.
    fn expand_dims(&mut self, a: &Self::V, axis: isize) -> Result<Self::V>;
    /// [`Tensor::sum_to_shape`] to `like`'s shape.
    fn sum_to(&mut self, a: &Self::V, like: &Self::V) -> Result<Self::V>;
    /// [`Tensor::broadcast_like`] to `like`'s shape.
    fn broadcast_like(&mut self, a: &Self::V, like: &Self::V) -> Result<Self::V>;
    /// `a`'s element count as an f32 scalar.
    fn size(&mut self, a: &Self::V) -> Result<Self::V>;
    /// [`Tensor::dim_size`].
    fn dim_size(&mut self, a: &Self::V, axis: isize) -> Result<Self::V>;
    /// [`Tensor::xent_grad`].
    fn xent_grad(&mut self, logits: &Self::V, labels: &Self::V) -> Result<Self::V>;
    /// `a[i]` along axis 0.
    fn index_axis0(&mut self, a: &Self::V, i: usize) -> Result<Self::V>;
    /// `g` cut along `axis` into pieces shaped like `parts`: the adjoint
    /// of concatenating them.
    fn split(&mut self, g: &Self::V, axis: isize, parts: &[Self::V]) -> Result<Vec<Self::V>>;
}

/// The vector-Jacobian product of `out = op(x)` under `rule`: given the
/// adjoint `g` of `out`, the `(input index, contribution)` pairs, emitted
/// through `d`. Inputs past the rule's operands (an eager op's attribute
/// inputs) get nothing.
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
        (Add, [a, b, ..]) => vec![(0, d.sum_to(g, a)?), (1, d.sum_to(g, b)?)],
        (Sub, [a, b, ..]) => {
            let ga = d.sum_to(g, a)?;
            let ng = d.neg(g)?;
            vec![(0, ga), (1, d.sum_to(&ng, b)?)]
        }
        (Mul, [a, b, ..]) => {
            let gb = d.mul(g, a)?;
            let ga = d.mul(g, b)?;
            vec![(0, d.sum_to(&ga, a)?), (1, d.sum_to(&gb, b)?)]
        }
        (Div, [a, b, ..]) => {
            // d(a/b) = g/b ; -g*a/b^2
            let ga = d.div(g, b)?;
            let ga = d.sum_to(&ga, a)?;
            let b2 = d.square(b)?;
            let num = d.mul(g, a)?;
            let frac = d.div(&num, &b2)?;
            let gb = d.neg(&frac)?;
            vec![(0, ga), (1, d.sum_to(&gb, b)?)]
        }
        (Pow, [a, p, ..]) => {
            // da = g * p * a^(p-1);  dp = g * out * ln(a)
            let one = d.scalar(1.0)?;
            let pm1 = d.sub(p, &one)?;
            let apm1 = d.pow(a, &pm1)?;
            let t1 = d.mul(p, &apm1)?;
            let ga = d.mul(g, &t1)?;
            let ga = d.sum_to(&ga, a)?;
            let lna = d.log(a)?;
            let t2 = d.mul(out, &lna)?;
            let gp = d.mul(g, &t2)?;
            vec![(0, ga), (1, d.sum_to(&gp, p)?)]
        }
        (Maximum | Minimum, [a, b, ..]) => {
            let picks_a = match rule {
                Maximum => d.greater_equal(a, b)?,
                _ => d.less_equal(a, b)?,
            };
            let m = d.cast_f32(&picks_a)?;
            let ga = d.mul(g, &m)?;
            let one = d.scalar(1.0)?;
            let inv = d.sub(&one, &m)?;
            let gb = d.mul(g, &inv)?;
            vec![(0, d.sum_to(&ga, a)?), (1, d.sum_to(&gb, b)?)]
        }
        (Neg, [_, ..]) => vec![(0, d.neg(g)?)],
        (Abs, [a, ..]) => {
            let zero = d.scalar(0.0)?;
            let pos = d.greater_equal(a, &zero)?;
            let ng = d.neg(g)?;
            vec![(0, d.select(&pos, g, &ng)?)]
        }
        (Exp, [_, ..]) => vec![(0, d.mul(g, out)?)],
        (Log, [a, ..]) => vec![(0, d.div(g, a)?)],
        (Sqrt, [_, ..]) => {
            let half = d.scalar(0.5)?;
            let hg = d.mul(g, &half)?;
            vec![(0, d.div(&hg, out)?)]
        }
        (Square, [a, ..]) => {
            let two = d.scalar(2.0)?;
            let t = d.mul(a, &two)?;
            vec![(0, d.mul(g, &t)?)]
        }
        (Tanh, [_, ..]) => {
            let y2 = d.square(out)?;
            let one = d.scalar(1.0)?;
            let dy = d.sub(&one, &y2)?;
            vec![(0, d.mul(g, &dy)?)]
        }
        (Sigmoid, [_, ..]) => {
            let one = d.scalar(1.0)?;
            let om = d.sub(&one, out)?;
            let dy = d.mul(out, &om)?;
            vec![(0, d.mul(g, &dy)?)]
        }
        (Relu, [a, ..]) => {
            let zero = d.scalar(0.0)?;
            let mask = d.greater(a, &zero)?;
            let mask = d.cast_f32(&mask)?;
            vec![(0, d.mul(g, &mask)?)]
        }
        (SoftmaxXent, [logits, labels, ..]) => {
            let dl = d.xent_grad(logits, labels)?;
            vec![(0, d.mul(g, &dl)?)]
        }
        (Select, [cond, a, b, ..]) => {
            let zero = d.scalar(0.0)?;
            let za = d.broadcast_like(&zero, a)?;
            let ga = d.select(cond, g, &za)?;
            let zb = d.broadcast_like(&zero, b)?;
            let gb = d.select(cond, &zb, g)?;
            vec![(1, d.sum_to(&ga, a)?), (2, d.sum_to(&gb, b)?)]
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
                    d.matmul_t(g, b, false, true)?,
                    d.matmul_t(a, g, true, false)?,
                ),
                (false, true) => (
                    d.matmul_t(g, b, false, false)?,
                    d.matmul_t(g, a, true, false)?,
                ),
                (true, false) => (
                    d.matmul_t(b, g, false, true)?,
                    d.matmul_t(a, g, false, false)?,
                ),
                (true, true) => (d.matmul_t(b, g, true, true)?, d.matmul_t(g, a, true, true)?),
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
            vec![(0, d.transpose(g, &inv)?)]
        }
        (Reshape, [a, ..]) => vec![(0, d.reshape_like(g, a)?)],
        (ReduceSum(axis), [a, ..]) => {
            let g = match axis {
                Some(ax) => d.expand_dims(g, *ax)?,
                None => g.clone(),
            };
            vec![(0, d.broadcast_like(&g, a)?)]
        }
        (ReduceMean(None), [a, ..]) => {
            let n = d.size(a)?;
            let gb = d.broadcast_like(g, a)?;
            vec![(0, d.div(&gb, &n)?)]
        }
        (ReduceMean(Some(ax)), [a, ..]) => {
            let ge = d.expand_dims(g, *ax)?;
            let gb = d.broadcast_like(&ge, a)?;
            let n = d.dim_size(a, *ax)?;
            vec![(0, d.div(&gb, &n)?)]
        }
        (Stack, _) => (0..x.len())
            .map(|i| Ok((i, d.index_axis0(g, i)?)))
            .collect::<Result<_>>()?,
        (Concat { axis, parts }, _) if *parts <= x.len() => d
            .split(g, *axis, &x[..*parts])?
            .into_iter()
            .enumerate()
            .collect(),
        (SumToShape, [a, ..]) => vec![(0, d.broadcast_like(g, a)?)],
        (BroadcastLike, [a, ..]) => vec![(0, d.sum_to(g, a)?)],
        _ => {
            return Err(TensorError::InvalidArgument {
                op: "vjp",
                detail: format!("{rule:?} given {} inputs", x.len()),
            })
        }
    })
}

/// The kernel emitter: a rule's adjoint as tensor kernels, run at once.
/// The eager tape and Lantern's continuations both differentiate through
/// it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Kernels;

impl Diff for Kernels {
    type V = Tensor;
    fn scalar(&mut self, v: f32) -> Result<Tensor> {
        Ok(Tensor::scalar_f32(v))
    }
    fn add(&mut self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        a.add(b)
    }
    fn sub(&mut self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        a.sub(b)
    }
    fn mul(&mut self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        a.mul(b)
    }
    fn div(&mut self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        a.div(b)
    }
    fn pow(&mut self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        a.pow(b)
    }
    fn neg(&mut self, a: &Tensor) -> Result<Tensor> {
        a.neg()
    }
    fn log(&mut self, a: &Tensor) -> Result<Tensor> {
        a.log()
    }
    fn square(&mut self, a: &Tensor) -> Result<Tensor> {
        a.square()
    }
    fn greater(&mut self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        a.greater(b)
    }
    fn greater_equal(&mut self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        a.greater_equal(b)
    }
    fn less_equal(&mut self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        a.less_equal(b)
    }
    fn cast_f32(&mut self, a: &Tensor) -> Result<Tensor> {
        Ok(a.cast(DType::F32))
    }
    fn select(&mut self, cond: &Tensor, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        Tensor::select(cond, a, b)
    }
    fn matmul_t(&mut self, a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Result<Tensor> {
        a.matmul_t(b, ta, tb)
    }
    fn transpose(&mut self, a: &Tensor, perm: &[usize]) -> Result<Tensor> {
        a.transpose(perm)
    }
    fn reshape_like(&mut self, a: &Tensor, like: &Tensor) -> Result<Tensor> {
        a.reshape(like.shape())
    }
    fn expand_dims(&mut self, a: &Tensor, axis: isize) -> Result<Tensor> {
        a.expand_dims(axis)
    }
    fn sum_to(&mut self, a: &Tensor, like: &Tensor) -> Result<Tensor> {
        a.sum_to_shape(like.shape())
    }
    fn broadcast_like(&mut self, a: &Tensor, like: &Tensor) -> Result<Tensor> {
        a.broadcast_like(like.shape())
    }
    fn size(&mut self, a: &Tensor) -> Result<Tensor> {
        Ok(Tensor::scalar_f32(a.num_elements() as f32))
    }
    fn dim_size(&mut self, a: &Tensor, axis: isize) -> Result<Tensor> {
        a.dim_size(axis)
    }
    fn xent_grad(&mut self, logits: &Tensor, labels: &Tensor) -> Result<Tensor> {
        logits.xent_grad(labels)
    }
    fn index_axis0(&mut self, a: &Tensor, i: usize) -> Result<Tensor> {
        a.index_axis0(i as i64)
    }
    fn split(&mut self, g: &Tensor, axis: isize, parts: &[Tensor]) -> Result<Vec<Tensor>> {
        let ax = normalize_axis("concat", axis, g.rank())?;
        // bring the axis to the front once; each piece is a row range of
        // that, moved back (the swap is its own inverse)
        let mut perm: Vec<usize> = (0..g.rank()).collect();
        perm.swap(0, ax);
        let front = if ax == 0 {
            g.clone()
        } else {
            g.transpose(&perm)?
        };
        let mut start = 0;
        parts
            .iter()
            .map(|part| {
                let stop = start + part.shape().get(ax).map_or(0, |&n| n as i64);
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
