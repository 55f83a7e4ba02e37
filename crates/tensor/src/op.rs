//! The pure tensor ops, written once for every backend: the forward half
//! of [`crate::grad`], after TF-Eager (arXiv:1903.01855), where both
//! modes run the same kernels.
//!
//! An [`Op`] carries its attributes. [`Op::apply`] is its kernel,
//! [`Op::rule`] its gradient rule, [`Op::name`] the name errors, fault
//! sites and profiles know it by, and [`Op::fused`] its elementwise step
//! when the graph VM may fuse it. A graph node holds an `Op`, the eager
//! runtime applies one per call, and Lantern's S-expression symbols parse
//! onto one.

use crate::fused::FusedOp;
use crate::grad::Rule;
use crate::{DType, Tensor, TensorError};

/// The operands an [`Op`] reads. Each backend implements it over its own
/// values, so a call builds no operand vector; a backend that hands an
/// operand over lets the kernel consume it (`select` writes its result
/// over a branch nobody else holds).
pub trait Operands {
    /// The backend's error; kernel errors convert into it.
    type Error: From<TensorError>;

    /// How many operands there are.
    fn arity(&self) -> usize;

    /// Operand `i`.
    ///
    /// # Errors
    ///
    /// Fails when there is no operand `i`, or it is not a tensor.
    fn operand(&self, i: usize) -> Result<&Tensor, Self::Error>;

    /// Operand `i`, owned: moved out when the caller handed it over, a
    /// shared handle otherwise.
    ///
    /// # Errors
    ///
    /// As [`Operands::operand`].
    fn take(&mut self, i: usize) -> Result<Tensor, Self::Error> {
        self.operand(i).cloned()
    }
}

/// Borrowed operands: [`Operands::take`] shares them.
impl Operands for [Tensor] {
    type Error = TensorError;
    fn arity(&self) -> usize {
        self.len()
    }
    fn operand(&self, i: usize) -> Result<&Tensor, TensorError> {
        self.get(i).ok_or_else(|| missing(i))
    }
}

/// Borrowed operands, as the gradient rules' kernel emitter holds them.
impl Operands for &[&Tensor] {
    type Error = TensorError;
    fn arity(&self) -> usize {
        self.len()
    }
    fn operand(&self, i: usize) -> Result<&Tensor, TensorError> {
        self.get(i).copied().ok_or_else(|| missing(i))
    }
}

fn missing(i: usize) -> TensorError {
    TensorError::InvalidArgument {
        op: "apply",
        detail: format!("missing operand {i}"),
    }
}

/// A pure tensor op and its attributes. Binary ops broadcast.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b` (true division).
    Div,
    /// `a // b`.
    FloorDiv,
    /// `a % b` (Euclidean).
    Mod,
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
    /// `sqrt(a)`.
    Sqrt,
    /// `exp(a)`.
    Exp,
    /// `ln(a)`.
    Log,
    /// `a * a`.
    Square,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Rectified linear.
    Relu,
    /// Row softmax (last axis).
    Softmax,
    /// Row log-softmax.
    LogSoftmax,
    /// Mean softmax cross-entropy of `[logits, labels]`.
    SoftmaxCrossEntropy,
    /// `a < b`.
    Less,
    /// `a <= b`.
    LessEqual,
    /// `a > b`.
    Greater,
    /// `a >= b`.
    GreaterEqual,
    /// `a == b`.
    Equal,
    /// `a != b`.
    NotEqual,
    /// Boolean and.
    LogicalAnd,
    /// Boolean or.
    LogicalOr,
    /// Boolean not.
    LogicalNot,
    /// `select(cond, a, b)`.
    Select,
    /// `op(a) · op(b)`, where a flag transposes its operand's trailing two
    /// axes (TF's `transpose_a` / `transpose_b`), read in place.
    MatMul {
        /// Multiply by `aᵀ`.
        transpose_a: bool,
        /// Multiply by `bᵀ`.
        transpose_b: bool,
    },
    /// Axis permutation.
    Transpose(Vec<usize>),
    /// Static reshape (`usize::MAX` infers one dimension).
    Reshape(Vec<usize>),
    /// Insert a size-1 axis.
    ExpandDims(isize),
    /// Remove size-1 axes (all, or one).
    Squeeze(Option<isize>),
    /// Cast to dtype.
    Cast(DType),
    /// Shape as an i64 vector.
    Shape,
    /// Total element count as an f32 scalar.
    Size,
    /// Extent of one axis as an f32 scalar.
    DimSize(isize),
    /// `[0..n)` as i64 of a scalar `n`.
    Range,
    /// Tile along axis 0.
    TileAxis0(usize),
    /// Sum (over all axes, or one).
    ReduceSum(Option<isize>),
    /// Mean.
    ReduceMean(Option<isize>),
    /// Max.
    ReduceMax(Option<isize>),
    /// Min.
    ReduceMin(Option<isize>),
    /// Boolean all.
    ReduceAll(Option<isize>),
    /// Boolean any.
    ReduceAny(Option<isize>),
    /// Index of the max along an axis.
    ArgMax(isize),
    /// `x[i]` along axis 0, of `[x, i]`.
    IndexAxis0,
    /// Static range slice along axis 0 (`None`: that end).
    SliceAxis0 {
        /// Lower bound.
        start: Option<i64>,
        /// Upper bound.
        stop: Option<i64>,
    },
    /// Value-semantics element write, of `[x, i, v]`.
    SetItemAxis0,
    /// Row gather, of `[x, indices]`.
    Gather,
    /// One-hot encode.
    OneHot(usize),
    /// Top-k values along the last axis.
    TopKValues(usize),
    /// Top-k indices along the last axis.
    TopKIndices(usize),
    /// Concatenate every operand along an axis.
    Concat(isize),
    /// Stack every operand along a new axis 0.
    StackOp,
    /// [`Tensor::sum_to_shape`] of `[g, like]` to `like`'s shape.
    SumToShape,
    /// [`Tensor::broadcast_like`] of `[g, like]` to `like`'s shape.
    BroadcastLike,
    /// Reshape `[g, like]` to `like`'s shape.
    ReshapeLike,
    /// [`Tensor::xent_grad`] of `[logits, labels]`.
    XentGrad,
    /// [`Tensor::split_like`] of `[g, parts...]`: piece `index` of `g`
    /// cut along `axis` like the parts, the adjoint of concatenating them.
    SplitLike {
        /// The concatenation axis.
        axis: isize,
        /// Which part.
        index: usize,
    },
    /// Identity.
    Identity,
    /// Gradient barrier: identity forward, no gradient.
    StopGradient,
}

/// The ops that take no attribute, or are called by name without one (a
/// matmul without flags, a reduction over every axis).
#[rustfmt::skip]
const PLAIN: &[Op] = {
    use Op::*;
    &[
        Add, Sub, Mul, Div, FloorDiv, Mod, Pow, Maximum, Minimum, Neg, Abs, Sqrt, Exp, Log,
        Square, Tanh, Sigmoid, Relu, Softmax, LogSoftmax, SoftmaxCrossEntropy, Less, LessEqual,
        Greater, GreaterEqual, Equal, NotEqual, LogicalAnd, LogicalOr, LogicalNot, Select,
        MatMul { transpose_a: false, transpose_b: false }, Squeeze(None), Shape, Size, Range,
        ReduceSum(None), ReduceMean(None), ReduceMax(None), ReduceMin(None), ReduceAll(None),
        ReduceAny(None), IndexAxis0, SetItemAxis0, Gather, StackOp, SumToShape, BroadcastLike,
        ReshapeLike, XentGrad, Identity, StopGradient,
    ]
};

impl Op {
    /// The op named `name` that needs no attribute (see [`Op::name`]).
    pub fn named(name: &str) -> Option<Op> {
        PLAIN.iter().find(|op| op.name() == name).cloned()
    }

    /// Run the kernel.
    ///
    /// # Errors
    ///
    /// Fails on a missing or non-tensor operand, and on whatever the
    /// kernel fails on (shapes, dtypes, axes, indices).
    // each backend calls this from one place; inlined there, a tensor op
    // costs one dispatch jump, as before the kernels moved here (a staged
    // RNN run measured 1.5 % slower with the call left in)
    #[inline(always)]
    pub fn apply<X: Operands + ?Sized>(&self, x: &mut X) -> Result<Tensor, X::Error> {
        use Op::*;
        Ok(match self {
            Add => x.operand(0)?.add(x.operand(1)?)?,
            Sub => x.operand(0)?.sub(x.operand(1)?)?,
            Mul => x.operand(0)?.mul(x.operand(1)?)?,
            Div => x.operand(0)?.div(x.operand(1)?)?,
            FloorDiv => x.operand(0)?.floordiv(x.operand(1)?)?,
            Mod => x.operand(0)?.rem(x.operand(1)?)?,
            Pow => x.operand(0)?.pow(x.operand(1)?)?,
            Maximum => x.operand(0)?.maximum(x.operand(1)?)?,
            Minimum => x.operand(0)?.minimum(x.operand(1)?)?,
            Neg => x.operand(0)?.neg()?,
            Abs => x.operand(0)?.abs()?,
            Sqrt => x.operand(0)?.sqrt()?,
            Exp => x.operand(0)?.exp()?,
            Log => x.operand(0)?.log()?,
            Square => x.operand(0)?.square()?,
            Tanh => x.operand(0)?.tanh()?,
            Sigmoid => x.operand(0)?.sigmoid()?,
            Relu => x.operand(0)?.relu()?,
            Softmax => x.operand(0)?.softmax()?,
            LogSoftmax => x.operand(0)?.log_softmax()?,
            SoftmaxCrossEntropy => Tensor::softmax_cross_entropy(x.operand(0)?, x.operand(1)?)?,
            Less => x.operand(0)?.less(x.operand(1)?)?,
            LessEqual => x.operand(0)?.less_equal(x.operand(1)?)?,
            Greater => x.operand(0)?.greater(x.operand(1)?)?,
            GreaterEqual => x.operand(0)?.greater_equal(x.operand(1)?)?,
            Equal => x.operand(0)?.equal(x.operand(1)?)?,
            NotEqual => x.operand(0)?.not_equal(x.operand(1)?)?,
            LogicalAnd => x.operand(0)?.logical_and(x.operand(1)?)?,
            LogicalOr => x.operand(0)?.logical_or(x.operand(1)?)?,
            LogicalNot => x.operand(0)?.logical_not()?,
            Select => {
                let cond = x.operand(0)?.clone();
                let (a, b) = (x.take(1)?, x.take(2)?);
                Tensor::select_owned(&cond, a, b)?
            }
            MatMul {
                transpose_a,
                transpose_b,
            } => x
                .operand(0)?
                .matmul_t(x.operand(1)?, *transpose_a, *transpose_b)?,
            Transpose(perm) => x.operand(0)?.transpose(perm)?,
            Reshape(shape) => x.operand(0)?.reshape(shape)?,
            ExpandDims(axis) => x.operand(0)?.expand_dims(*axis)?,
            Squeeze(axis) => x.operand(0)?.squeeze(*axis)?,
            Cast(dtype) => x.operand(0)?.cast(*dtype),
            Shape => {
                let shape = x.operand(0)?.shape();
                let dims = shape.iter().map(|&d| d as i64).collect();
                Tensor::from_vec_i64(dims, &[shape.len()])?
            }
            Size => Tensor::scalar_f32(x.operand(0)?.num_elements() as f32),
            DimSize(axis) => x.operand(0)?.dim_size(*axis)?,
            Range => Tensor::range_i64(x.operand(0)?.scalar_value_i64()?),
            TileAxis0(reps) => x.operand(0)?.tile_axis0(*reps)?,
            ReduceSum(axis) => x.operand(0)?.reduce_sum(*axis)?,
            ReduceMean(axis) => x.operand(0)?.reduce_mean(*axis)?,
            ReduceMax(axis) => x.operand(0)?.reduce_max(*axis)?,
            ReduceMin(axis) => x.operand(0)?.reduce_min(*axis)?,
            ReduceAll(axis) => x.operand(0)?.reduce_all(*axis)?,
            ReduceAny(axis) => x.operand(0)?.reduce_any(*axis)?,
            ArgMax(axis) => x.operand(0)?.argmax(*axis)?,
            IndexAxis0 => {
                let i = x.operand(1)?.scalar_value_i64()?;
                x.operand(0)?.index_axis0(i)?
            }
            SliceAxis0 { start, stop } => x.operand(0)?.slice_axis0(*start, *stop)?,
            SetItemAxis0 => {
                let i = x.operand(1)?.scalar_value_i64()?;
                x.operand(0)?.set_index_axis0(i, x.operand(2)?)?
            }
            Gather => x.operand(0)?.gather(x.operand(1)?)?,
            OneHot(depth) => x.operand(0)?.one_hot(*depth)?,
            TopKValues(k) => x.operand(0)?.top_k(*k)?.0,
            TopKIndices(k) => x.operand(0)?.top_k(*k)?.1,
            Concat(axis) => Tensor::concat(&shared(x, 0)?, *axis)?,
            StackOp => Tensor::stack(&shared(x, 0)?)?,
            SumToShape => x.operand(0)?.sum_to_shape(x.operand(1)?.shape())?,
            BroadcastLike => x.operand(0)?.broadcast_like(x.operand(1)?.shape())?,
            ReshapeLike => x.operand(0)?.reshape(x.operand(1)?.shape())?,
            XentGrad => x.operand(0)?.xent_grad(x.operand(1)?)?,
            SplitLike { axis, index } => {
                let parts = shared(x, 1)?;
                let pieces = x.operand(0)?.split_like(*axis, &parts, *index..index + 1)?;
                pieces
                    .into_iter()
                    .next()
                    .ok_or(TensorError::IndexOutOfRange {
                        op: "split_like",
                        index: *index as i64,
                        bound: parts.len(),
                    })?
            }
            Identity | StopGradient => x.take(0)?,
        })
    }

    /// The gradient rule; `None` when the op has none, so an adjoint that
    /// reaches it is an error.
    pub fn rule(&self) -> Option<Rule> {
        use Op::*;
        Some(match self {
            // non-differentiable outputs contribute nothing
            Less | LessEqual | Greater | GreaterEqual | Equal | NotEqual | LogicalAnd
            | LogicalOr | LogicalNot | ArgMax(_) | Shape | Size | DimSize(_) | Range
            | OneHot(_) | FloorDiv | Mod | StopGradient => Rule::Zero,
            Identity => Rule::Identity,
            Add => Rule::Add,
            Sub => Rule::Sub,
            Mul => Rule::Mul,
            Div => Rule::Div,
            Pow => Rule::Pow,
            Maximum => Rule::Maximum,
            Minimum => Rule::Minimum,
            Neg => Rule::Neg,
            Abs => Rule::Abs,
            Exp => Rule::Exp,
            Log => Rule::Log,
            Sqrt => Rule::Sqrt,
            Square => Rule::Square,
            Tanh => Rule::Tanh,
            Sigmoid => Rule::Sigmoid,
            Relu => Rule::Relu,
            SoftmaxCrossEntropy => Rule::SoftmaxXent,
            Select => Rule::Select,
            MatMul {
                transpose_a,
                transpose_b,
            } => Rule::MatMul {
                transpose_a: *transpose_a,
                transpose_b: *transpose_b,
            },
            Transpose(perm) => Rule::Transpose(perm.clone()),
            Reshape(_) | ExpandDims(_) | Squeeze(_) | Cast(_) | ReshapeLike => Rule::Reshape,
            ReduceSum(axis) => Rule::ReduceSum(*axis),
            ReduceMean(axis) => Rule::ReduceMean(*axis),
            StackOp => Rule::Stack,
            Concat(axis) => Rule::Concat(*axis),
            SumToShape => Rule::SumToShape,
            BroadcastLike => Rule::BroadcastLike,
            Softmax
            | LogSoftmax
            | ReduceMax(_)
            | ReduceMin(_)
            | ReduceAll(_)
            | ReduceAny(_)
            | TileAxis0(_)
            | IndexAxis0
            | SliceAxis0 { .. }
            | SetItemAxis0
            | Gather
            | TopKValues(_)
            | TopKIndices(_)
            | XentGrad
            | SplitLike { .. } => return None,
        })
    }

    /// The name errors, fault sites, profiles and graph dumps use.
    pub fn name(&self) -> &'static str {
        use Op::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            FloorDiv => "floordiv",
            Mod => "mod",
            Pow => "pow",
            Maximum => "maximum",
            Minimum => "minimum",
            Neg => "neg",
            Abs => "abs",
            Sqrt => "sqrt",
            Exp => "exp",
            Log => "log",
            Square => "square",
            Tanh => "tanh",
            Sigmoid => "sigmoid",
            Relu => "relu",
            Softmax => "softmax",
            LogSoftmax => "log_softmax",
            SoftmaxCrossEntropy => "softmax_xent",
            Less => "less",
            LessEqual => "less_equal",
            Greater => "greater",
            GreaterEqual => "greater_equal",
            Equal => "equal",
            NotEqual => "not_equal",
            LogicalAnd => "logical_and",
            LogicalOr => "logical_or",
            LogicalNot => "logical_not",
            Select => "select",
            MatMul { .. } => "matmul",
            Transpose(_) => "transpose",
            Reshape(_) => "reshape",
            ExpandDims(_) => "expand_dims",
            Squeeze(_) => "squeeze",
            Cast(_) => "cast",
            Shape => "shape",
            Size => "size",
            DimSize(_) => "dim_size",
            Range => "range",
            TileAxis0(_) => "tile",
            ReduceSum(_) => "reduce_sum",
            ReduceMean(_) => "reduce_mean",
            ReduceMax(_) => "reduce_max",
            ReduceMin(_) => "reduce_min",
            ReduceAll(_) => "reduce_all",
            ReduceAny(_) => "reduce_any",
            ArgMax(_) => "argmax",
            IndexAxis0 => "index",
            SliceAxis0 { .. } => "slice",
            SetItemAxis0 => "setitem",
            Gather => "gather",
            OneHot(_) => "one_hot",
            TopKValues(_) => "top_k_values",
            TopKIndices(_) => "top_k_indices",
            Concat(_) => "concat",
            StackOp => "stack",
            SumToShape => "sum_to_shape",
            BroadcastLike => "broadcast_like",
            ReshapeLike => "reshape_like",
            XentGrad => "xent_grad",
            SplitLike { .. } => "split_like",
            Identity => "identity",
            StopGradient => "stop_gradient",
        }
    }

    /// The op's step in a fused elementwise kernel, when it has one.
    pub fn fused(&self) -> Option<FusedOp> {
        Some(match self {
            Op::Add => FusedOp::Add,
            Op::Sub => FusedOp::Sub,
            Op::Mul => FusedOp::Mul,
            Op::Div => FusedOp::Div,
            Op::FloorDiv => FusedOp::FloorDiv,
            Op::Mod => FusedOp::Mod,
            Op::Pow => FusedOp::Pow,
            Op::Maximum => FusedOp::Maximum,
            Op::Minimum => FusedOp::Minimum,
            Op::Neg => FusedOp::Neg,
            Op::Abs => FusedOp::Abs,
            Op::Sqrt => FusedOp::Sqrt,
            Op::Exp => FusedOp::Exp,
            Op::Log => FusedOp::Log,
            Op::Square => FusedOp::Square,
            Op::Tanh => FusedOp::Tanh,
            Op::Sigmoid => FusedOp::Sigmoid,
            Op::Relu => FusedOp::Relu,
            _ => return None,
        })
    }
}

/// Operands `from..` as shared handles.
fn shared<X: Operands + ?Sized>(x: &X, from: usize) -> Result<Vec<Tensor>, X::Error> {
    (from..x.arity()).map(|i| x.operand(i).cloned()).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn plain_ops_are_found_by_name() {
        for op in PLAIN {
            assert_eq!(Op::named(op.name()).as_ref(), Some(op));
        }
        assert_eq!(Op::named("softmax_xent"), Some(Op::SoftmaxCrossEntropy));
        assert_eq!(Op::named("transpose"), None, "an attribute has no default");
        assert_eq!(Op::named("frobnicate"), None);
    }

    #[test]
    fn apply_reads_borrowed_operands() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::scalar_f32(3.0);
        let out = Op::Mul.apply(&mut [a.clone(), b][..]).unwrap();
        assert_eq!(out.as_f32().unwrap(), &[3.0, 6.0]);
        let err = Op::Add.apply(&mut [a][..]).unwrap_err();
        assert!(err.to_string().contains("missing operand 1"), "{err}");
    }

    #[test]
    fn split_like_cuts_the_concatenation_apart() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0], &[2, 1]).unwrap();
        let ab = Op::Concat(-1)
            .apply(&mut [a.clone(), b.clone()][..])
            .unwrap();
        for (index, part) in [a.clone(), b.clone()].iter().enumerate() {
            let op = Op::SplitLike { axis: 1, index };
            let piece = op.apply(&mut [ab.clone(), a.clone(), b.clone()][..]);
            assert_eq!(&piece.unwrap(), part);
        }
    }
}
