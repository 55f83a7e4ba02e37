//! The `tf.*` API surface exposed to PyLite. Every tensor op is declared
//! once, as a [`Row`] of [`ROWS`] whose call parses into one [`Op`], and
//! [`Interp::dispatch`] picks the backend that op runs on — the paper's
//! dynamic dispatch (§4, Table 4): an eager kernel call, a graph node, or
//! a Lantern expression.

use crate::interp::Interp;
use crate::value::{Builtin, Value};
use crate::{Result, RuntimeError};
use autograph_eager::EagerTensor;
use autograph_graph::ir::{Op, OpKind};
use autograph_pylang::ast::CmpOp;
use autograph_tensor::{DType, Tensor};
use std::rc::Rc;

type Args = Vec<Value>;
type Kwargs = Vec<(String, Value)>;

/// How a call's arguments become the op (attributes included) and its
/// tensor operands.
enum Build {
    /// `op(x)`.
    Unary(Op),
    /// `op(x, y)`.
    Binary(Op),
    /// `op(x, axis=None)`.
    Reduce(fn(Option<isize>) -> Op),
    /// Anything else.
    Call(fn(&mut Interp, Args, &Kwargs) -> Result<(Op, Args)>),
}
use Build::{Binary, Call, Reduce, Unary};

/// One tensor op, declared once for every backend.
pub(crate) struct Row {
    /// The `tf.*` name.
    name: &'static str,
    build: Build,
}

const fn row(name: &'static str, build: Build) -> Row {
    Row { name, build }
}

// rows the Python operators (`Interp::{binop, compare, unary}`) and `ag.*`
// dispatch to, besides `tf.*`
pub(crate) const ADD: Row = row("add", Binary(Op::Add));
pub(crate) const SUB: Row = row("subtract", Binary(Op::Sub));
pub(crate) const MUL: Row = row("multiply", Binary(Op::Mul));
pub(crate) const DIV: Row = row("divide", Binary(Op::Div));
pub(crate) const FLOORDIV: Row = row("floordiv", Binary(Op::FloorDiv));
pub(crate) const MOD: Row = row("mod", Binary(Op::Mod));
pub(crate) const POW: Row = row("pow", Binary(Op::Pow));
pub(crate) const LESS: Row = row("less", Binary(Op::Less));
pub(crate) const LESS_EQUAL: Row = row("less_equal", Binary(Op::LessEqual));
pub(crate) const GREATER: Row = row("greater", Binary(Op::Greater));
pub(crate) const GREATER_EQUAL: Row = row("greater_equal", Binary(Op::GreaterEqual));
pub(crate) const EQUAL: Row = row("equal", Binary(Op::Equal));
pub(crate) const NOT_EQUAL: Row = row("not_equal", Binary(Op::NotEqual));
pub(crate) const NEG: Row = row("neg", Unary(Op::Neg));
pub(crate) const ABS: Row = row("abs", Unary(Op::Abs));
pub(crate) const LOGICAL_NOT: Row = row("logical_not", Unary(Op::LogicalNot));
pub(crate) const LOGICAL_AND: Row = row("logical_and", Binary(Op::LogicalAnd));
pub(crate) const LOGICAL_OR: Row = row("logical_or", Binary(Op::LogicalOr));
pub(crate) const STACK: Row = row("stack", Call(stack));
const TOP_K: Row = row("top_k", Call(|_, a, _| int_attr(Op::TopKValues, a)));

/// Every tensor op of `tf.*`.
#[rustfmt::skip]
static ROWS: &[Row] = &[
    row("range", Unary(Op::Range)),
    // ---- elementwise ------------------------------------------------------------
    row("tanh", Unary(Op::Tanh)),
    row("sigmoid", Unary(Op::Sigmoid)),
    row("relu", Unary(Op::Relu)),
    row("exp", Unary(Op::Exp)),
    row("log", Unary(Op::Log)),
    row("sqrt", Unary(Op::Sqrt)),
    row("square", Unary(Op::Square)),
    ABS,
    NEG,
    row("softmax", Unary(Op::Softmax)),
    row("log_softmax", Unary(Op::LogSoftmax)),
    row("stop_gradient", Unary(Op::StopGradient)),
    row("identity", Unary(Op::Identity)),
    ADD,
    SUB,
    MUL,
    DIV,
    FLOORDIV,
    MOD,
    POW,
    row("matmul", Binary(Op::MatMul { transpose_a: false, transpose_b: false })),
    row("maximum", Binary(Op::Maximum)),
    row("minimum", Binary(Op::Minimum)),
    EQUAL,
    NOT_EQUAL,
    LESS,
    LESS_EQUAL,
    GREATER,
    GREATER_EQUAL,
    LOGICAL_AND,
    LOGICAL_OR,
    LOGICAL_NOT,
    row("where", Call(|_, a, _| Ok((Op::Select, exactly(a, 3)?)))),
    row("softmax_cross_entropy", Binary(Op::SoftmaxCrossEntropy)),
    // ---- reductions ---------------------------------------------------------------
    row("reduce_sum", Reduce(Op::ReduceSum)),
    row("reduce_mean", Reduce(Op::ReduceMean)),
    row("reduce_max", Reduce(Op::ReduceMax)),
    row("reduce_min", Reduce(Op::ReduceMin)),
    row("reduce_all", Reduce(Op::ReduceAll)),
    row("reduce_any", Reduce(Op::ReduceAny)),
    row("argmax", Call(|_, a, k| Ok((Op::ArgMax(axis_from(k, &a, 1)?.unwrap_or(-1)), vec![first(a)?])))),
    // ---- shape / indexing -----------------------------------------------------------
    row("shape", Unary(Op::Shape)),
    row("transpose", Call(transpose)),
    row("reshape", Call(reshape)),
    row("expand_dims", Call(expand_dims)),
    row("squeeze", Call(squeeze)),
    row("cast", Call(cast)),
    row("gather", Binary(Op::Gather)),
    row("one_hot", Call(|_, a, _| int_attr(Op::OneHot, a))),
    row("concat", Call(concat)),
    STACK,
    TOP_K,
];

/// A constructor's value is its attribute: a tensor, staged as a graph
/// constant.
type Constructor = fn(&mut Interp, Args, &Kwargs) -> Result<Tensor>;

/// Every constructor of `tf.*`.
static CONSTRUCTORS: &[(&str, Constructor)] = &[
    ("constant", constant),
    ("zeros", |_, a, _| {
        Ok(Tensor::zeros(DType::F32, &shape_arg(&a, 0)?))
    }),
    ("ones", |_, a, _| {
        Ok(Tensor::ones(DType::F32, &shape_arg(&a, 0)?))
    }),
    ("random_normal", random_normal),
];

impl Row {
    fn build(&self, i: &mut Interp, args: Args, kwargs: &Kwargs) -> Result<(Op, Args)> {
        match &self.build {
            Unary(op) => Ok((op.clone(), exactly(args, 1)?)),
            Binary(op) => Ok((op.clone(), exactly(args, 2)?)),
            Reduce(op) => Ok((op(axis_from(kwargs, &args, 1)?), vec![first(args)?])),
            Call(f) => f(i, args, kwargs),
        }
    }
}

fn constant(_: &mut Interp, args: Args, kwargs: &Kwargs) -> Result<Tensor> {
    let [v] = take(args)?;
    let t = value_to_tensor(&v)?;
    Ok(match kwarg(kwargs, "dtype") {
        Some(Value::DType(d)) => t.cast(d),
        _ => t,
    })
}

fn random_normal(i: &mut Interp, args: Args, kwargs: &Kwargs) -> Result<Tensor> {
    let stddev = match kwarg(kwargs, "stddev") {
        Some(v) => v.as_float()? as f32,
        None => 1.0,
    };
    // sampled at trace time; staged graphs embed the sample
    Ok(i.rng.normal_tensor(&shape_arg(&args, 0)?, stddev))
}

fn transpose(_: &mut Interp, args: Args, _: &Kwargs) -> Result<(Op, Args)> {
    let [x, perm] = take(args)?;
    let perm = list(perm)?
        .iter()
        .map(|v| v.as_int().map(|x| x as usize))
        .collect::<Result<_>>()?;
    Ok((Op::Transpose(perm), vec![x]))
}

fn reshape(_: &mut Interp, args: Args, _: &Kwargs) -> Result<(Op, Args)> {
    let shape = shape_arg(&args, 1)?;
    let [x, _] = take(args)?;
    Ok((Op::Reshape(shape), vec![x]))
}

fn expand_dims(_: &mut Interp, args: Args, _: &Kwargs) -> Result<(Op, Args)> {
    let [x, axis] = take(args)?;
    Ok((Op::ExpandDims(axis.as_int()? as isize), vec![x]))
}

fn squeeze(_: &mut Interp, args: Args, _: &Kwargs) -> Result<(Op, Args)> {
    let axis = args.get(1).map(Value::as_int).transpose()?;
    Ok((Op::Squeeze(axis.map(|x| x as isize)), vec![first(args)?]))
}

fn cast(_: &mut Interp, args: Args, _: &Kwargs) -> Result<(Op, Args)> {
    match take(args)? {
        [x, Value::DType(d)] => Ok((Op::Cast(d), vec![x])),
        [_, other] => Err(RuntimeError::new(format!(
            "tf.cast dtype must be a dtype, got {}",
            other.kind()
        ))),
    }
}

fn concat(_: &mut Interp, args: Args, _: &Kwargs) -> Result<(Op, Args)> {
    let [values, axis] = take(args)?;
    Ok((Op::Concat(axis.as_int()? as isize), list(values)?))
}

fn stack(_: &mut Interp, args: Args, _: &Kwargs) -> Result<(Op, Args)> {
    let [values] = take(args)?;
    Ok((Op::StackOp, list(values)?))
}

impl Interp {
    /// The one backend decision for a tensor op (§4 dynamic dispatch): a
    /// staged operand or active graph staging adds a graph node, a Lantern
    /// operand builds a Lantern expression, and anything else runs eagerly,
    /// so the gradient tape records every op.
    ///
    /// # Errors
    ///
    /// Fails when the Lantern IR lacks the op, on uncoercible operands, and
    /// on kernel errors.
    pub(crate) fn dispatch(&mut self, row: &Row, op: Op, operands: &[Value]) -> Result<Value> {
        if self.stages_graph(operands) {
            return self.graph_op(op, operands);
        }
        if operands.iter().any(|v| matches!(v, Value::Lantern(_))) {
            let sym = autograph_lantern::compile::symbol(&op).ok_or_else(|| {
                RuntimeError::new(format!(
                    "tf op '{}' is not supported by the lantern backend",
                    row.name
                ))
            })?;
            return self.lantern_call(sym, operands);
        }
        let inputs = operands
            .iter()
            .map(|v| self.to_eager(v))
            .collect::<Result<Vec<_>>>()?;
        let refs: Vec<&EagerTensor> = inputs.iter().collect();
        Ok(Value::Tensor(self.eager.apply(&op, &refs)?))
    }

    /// Whether a call on `operands` adds a graph node: a staged operand,
    /// or graph staging under way.
    pub(crate) fn stages_graph(&self, operands: &[Value]) -> bool {
        self.staging_graph()
            || operands
                .iter()
                .any(|v| matches!(v, Value::GraphNode { .. }))
    }

    /// Dispatch an attribute-free unary or binary row (a Python operator's
    /// op) on operands already in hand.
    ///
    /// # Errors
    ///
    /// Fails on any other row and whatever [`Interp::dispatch`] raises.
    pub(crate) fn apply(&mut self, row: &Row, operands: &[Value]) -> Result<Value> {
        let (Unary(op) | Binary(op)) = &row.build else {
            return Err(RuntimeError::new(format!(
                "tf.{} needs its arguments parsed",
                row.name
            )));
        };
        self.dispatch(row, op.clone(), operands)
    }

    /// A constructor's tensor: a graph constant while a graph is staged.
    fn constant(&mut self, t: Tensor) -> Result<Value> {
        if self.staging_graph() {
            return self.graph_op(OpKind::Const(t), &[]);
        }
        Ok(Value::tensor(t))
    }
}

/// `print` and `tf.print`: a staged value stages a `Print` node; anything
/// else prints while tracing, because a `str` cannot be staged.
pub(crate) fn print(i: &mut Interp, args: Args, prefix: &str) -> Result<Value> {
    if let [v @ Value::GraphNode { .. }] = args.as_slice() {
        return i.graph_op(OpKind::Print(prefix.into()), std::slice::from_ref(v));
    }
    let rendered: Vec<String> = args.iter().map(Value::render).collect();
    println!("{}", rendered.join(" "));
    Ok(Value::None)
}

fn builtin(name: &str, f: impl Fn(&mut Interp, Args, Kwargs) -> Result<Value> + 'static) -> Value {
    Value::Builtin(Rc::new(Builtin {
        name: format!("tf.{name}"),
        func: Box::new(f),
    }))
}

/// A comparison builtin: Python comparison semantics (Table 4), so host
/// operands compare on the host.
fn comparison(name: &str, op: CmpOp) -> Value {
    builtin(name, move |i, a, _| {
        let [x, y] = take(a)?;
        i.compare(op, x, y)
    })
}

/// Look up a `tf.*` attribute: a builtin function or a dtype constant.
pub fn lookup(name: &str) -> Option<Value> {
    Some(match name {
        // ---- dtypes -------------------------------------------------------
        "float32" | "float64" => Value::DType(DType::F32),
        "int32" | "int64" => Value::DType(DType::I64),
        "bool_" | "boolean" => Value::DType(DType::Bool),

        "equal" => comparison(name, CmpOp::Eq),
        "not_equal" => comparison(name, CmpOp::NotEq),
        "less" => comparison(name, CmpOp::Lt),
        "less_equal" => comparison(name, CmpOp::Le),
        "greater" => comparison(name, CmpOp::Gt),
        "greater_equal" => comparison(name, CmpOp::Ge),
        // two outputs: a staged top_k is one node split into its pair;
        // every other backend runs one op per output
        "top_k" => builtin(name, |i, a, _| {
            let (k, x) = usize_attr(a)?;
            if i.stages_graph(&x) {
                let pair = i.graph_op(OpKind::TopK(k), &x)?;
                let values = i.graph_op(OpKind::TupleGet(0), std::slice::from_ref(&pair))?;
                let indices = i.graph_op(OpKind::TupleGet(1), &[pair])?;
                return Ok(Value::tuple(vec![values, indices]));
            }
            let values = i.dispatch(&TOP_K, Op::TopKValues(k), &x)?;
            let indices = i.dispatch(&TOP_K, Op::TopKIndices(k), &x)?;
            Ok(Value::tuple(vec![values, indices]))
        }),
        "print" => builtin(name, |i, a, _| print(i, a, "tf.print: ")),

        // ---- gradients and control flow ---------------------------------------------
        "gradients" => builtin(name, |i, a, _| {
            let [loss, wrt] = take(a)?;
            let loss_node = i.graph_node_for(&loss)?;
            let mut wrt_nodes = Vec::new();
            for w in list_or_one(wrt) {
                wrt_nodes.push(i.graph_node_for(&w)?);
            }
            let stage = i.graph_stage()?;
            let epoch = stage.top_epoch();
            let grads =
                autograph_graph::grad::gradients(&mut stage.top().builder, loss_node, &wrt_nodes)?;
            Ok(Value::list(
                grads
                    .into_iter()
                    .map(|id| Value::GraphNode { epoch, id })
                    .collect(),
            ))
        }),
        // ---- eager autodiff (the GradientTape analog; eager mode only) --------
        "tape_begin" => builtin(name, |i, _, _| {
            i.eager.start_tape();
            Ok(Value::None)
        }),
        "watch" => builtin(name, |i, a, _| {
            let [v] = take(a)?;
            let t = i.to_eager(&v)?;
            Ok(Value::Tensor(i.eager.watch(&t)?))
        }),
        "grad" => builtin(name, |i, a, _| {
            let [loss, wrt] = take(a)?;
            let Value::Tensor(loss) = loss else {
                return Err(RuntimeError::new(format!(
                    "tf.grad loss must be an eager tensor, got {}",
                    loss.kind()
                )));
            };
            let wrt: Vec<EagerTensor> = list_or_one(wrt)
                .into_iter()
                .map(|v| match v {
                    Value::Tensor(t) => Ok(t),
                    other => Err(RuntimeError::new(format!(
                        "tf.grad parameters must be watched tensors, got {}",
                        other.kind()
                    ))),
                })
                .collect::<Result<_>>()?;
            let refs: Vec<&EagerTensor> = wrt.iter().collect();
            let grads = i.eager.gradient(&loss, &refs)?;
            Ok(Value::list(grads.into_iter().map(Value::tensor).collect()))
        }),
        "cond" => builtin(name, |i, a, _| {
            let [pred, true_fn, false_fn] = take(a)?;
            crate::operators::if_stmt_impl(i, pred, true_fn, false_fn)
        }),
        "while_loop" => builtin(name, |i, a, _| {
            let [cond, body, vars] = take(a)?;
            crate::operators::while_stmt_impl(i, cond, body, vars)
        }),

        _ => match CONSTRUCTORS.iter().find(|(n, _)| *n == name) {
            Some(&(_, make)) => builtin(name, move |i, a, k| {
                let t = make(i, a, &k)?;
                i.constant(t)
            }),
            None => {
                let row = ROWS.iter().find(|r| r.name == name)?;
                builtin(name, move |i, a, k| {
                    let (op, operands) = row.build(i, a, &k)?;
                    i.dispatch(row, op, &operands)
                })
            }
        },
    })
}

/// Exactly `N` call arguments.
///
/// # Errors
///
/// Fails on any other count.
pub(crate) fn take<const N: usize>(args: Args) -> Result<[Value; N]> {
    let got = args.len();
    args.try_into().map_err(|_| arity_error(N, got))
}

/// Exactly `n` call arguments, passed through as they are.
fn exactly(args: Args, n: usize) -> Result<Args> {
    if args.len() == n {
        return Ok(args);
    }
    Err(arity_error(n, args.len()))
}

fn arity_error(n: usize, got: usize) -> RuntimeError {
    let s = if n == 1 { "" } else { "s" };
    RuntimeError::new(format!("expected {n} argument{s}, got {got}"))
}

fn first(args: Args) -> Result<Value> {
    args.into_iter()
        .next()
        .ok_or_else(|| RuntimeError::new("missing argument"))
}

/// `op(x, n)` with an integer attribute `n`.
fn int_attr(op: fn(usize) -> Op, args: Args) -> Result<(Op, Args)> {
    let (n, x) = usize_attr(args)?;
    Ok((op(n), x))
}

/// `(x, n)` with a non-negative integer `n`: `n` and the operand `[x]`.
fn usize_attr(args: Args) -> Result<(usize, Args)> {
    let [x, n] = take(args)?;
    let n = usize::try_from(n.as_int()?)
        .map_err(|_| RuntimeError::new("expected a non-negative integer"))?;
    Ok((n, vec![x]))
}

fn kwarg(kwargs: &Kwargs, name: &str) -> Option<Value> {
    kwargs
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.clone())
}

fn axis_from(kwargs: &Kwargs, args: &Args, pos: usize) -> Result<Option<isize>> {
    match kwarg(kwargs, "axis").or_else(|| args.get(pos).cloned()) {
        None | Some(Value::None) => Ok(None),
        Some(v) => Ok(Some(v.as_int()? as isize)),
    }
}

/// The items of a list or tuple argument.
fn list(v: Value) -> Result<Args> {
    match v {
        Value::List(l) => Ok(l.borrow().clone()),
        Value::Tuple(t) => Ok((*t).clone()),
        other => Err(RuntimeError::new(format!(
            "expected a list or tuple, got {}",
            other.kind()
        ))),
    }
}

/// The items of a list or tuple, or the value itself.
fn list_or_one(v: Value) -> Args {
    match v {
        Value::List(_) | Value::Tuple(_) => list(v).unwrap_or_default(),
        single => vec![single],
    }
}

/// Convert a (possibly nested-list) host value into a dense tensor, like
/// `tf.constant`.
pub(crate) fn value_to_tensor(v: &Value) -> Result<Tensor> {
    fn gather(
        v: &Value,
        out: &mut Vec<f64>,
        shape: &mut Vec<usize>,
        depth: usize,
        all_int: &mut bool,
    ) -> Result<()> {
        let items = match v {
            Value::Int(i) => {
                out.push(*i as f64);
                return Ok(());
            }
            Value::Float(f) => {
                *all_int = false;
                out.push(*f);
                return Ok(());
            }
            Value::Bool(b) => {
                *all_int = false;
                out.push(*b as i64 as f64);
                return Ok(());
            }
            Value::List(items) => items.borrow().clone(),
            Value::Tuple(items) => (**items).clone(),
            other => {
                return Err(RuntimeError::new(format!(
                    "cannot convert {} to a tensor",
                    other.kind()
                )))
            }
        };
        if depth == shape.len() {
            shape.push(items.len());
        } else if shape[depth] != items.len() {
            return Err(RuntimeError::new(format!(
                "ragged nested {} in tf.constant",
                v.kind()
            )));
        }
        for item in &items {
            gather(item, out, shape, depth + 1, all_int)?;
        }
        Ok(())
    }
    match v {
        Value::Tensor(t) => Ok(t.tensor().clone()),
        Value::Int(i) => Ok(Tensor::scalar_i64(*i)),
        Value::Float(f) => Ok(Tensor::scalar_f32(*f as f32)),
        Value::Bool(b) => Ok(Tensor::scalar_bool(*b)),
        _ => {
            let mut flat = Vec::new();
            let mut shape = Vec::new();
            let mut all_int = true;
            gather(v, &mut flat, &mut shape, 0, &mut all_int)?;
            if all_int {
                Ok(Tensor::from_vec_i64(
                    flat.iter().map(|&x| x as i64).collect(),
                    &shape,
                )?)
            } else {
                Ok(Tensor::from_vec(
                    flat.iter().map(|&x| x as f32).collect(),
                    &shape,
                )?)
            }
        }
    }
}

fn shape_arg(args: &Args, i: usize) -> Result<Vec<usize>> {
    let v = args
        .get(i)
        .ok_or_else(|| RuntimeError::new("missing shape argument"))?;
    let to_dim = |v: &Value| -> Result<usize> {
        let i = v.as_int()?;
        if i == -1 {
            Ok(usize::MAX) // inferred dimension
        } else if i < 0 {
            Err(RuntimeError::new("negative dimension in shape"))
        } else {
            Ok(i as usize)
        }
    };
    match v {
        Value::Tuple(items) => items.iter().map(to_dim).collect(),
        Value::List(items) => items.borrow().iter().map(to_dim).collect(),
        Value::Int(_) => Ok(vec![to_dim(v)?]),
        other => Err(RuntimeError::new(format!(
            "shape must be a tuple/list, got {}",
            other.kind()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_names() {
        assert!(lookup("matmul").is_some());
        assert!(lookup("reduce_sum").is_some());
        assert!(matches!(lookup("float32"), Some(Value::DType(DType::F32))));
        assert!(lookup("nonexistent_op").is_none());
    }

    #[test]
    fn value_to_tensor_nested() {
        let v = Value::list(vec![
            Value::list(vec![Value::Int(1), Value::Int(2)]),
            Value::list(vec![Value::Int(3), Value::Int(4)]),
        ]);
        let t = value_to_tensor(&v).unwrap();
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.dtype(), DType::I64);
        // mixed float promotes
        let v2 = Value::list(vec![Value::Int(1), Value::Float(2.5)]);
        assert_eq!(value_to_tensor(&v2).unwrap().dtype(), DType::F32);
        // ragged rejected
        let bad = Value::list(vec![
            Value::list(vec![Value::Int(1)]),
            Value::list(vec![Value::Int(1), Value::Int(2)]),
        ]);
        assert!(value_to_tensor(&bad).is_err());
    }

    /// Argument lists a row is called with: 2×2 operands and, where the
    /// op has attributes, each kind of attribute (a reduction with and
    /// without its axis; concat along both Lantern axes).
    fn samples(row: &Row) -> Vec<Args> {
        let m = || Value::tensor(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let ints = |v: &[i64]| Value::tuple(v.iter().map(|&i| Value::Int(i)).collect());
        let idx = || Value::tensor(Tensor::from_vec_i64(vec![1, 0], &[2]).unwrap());
        match (&row.build, row.name) {
            (Unary(_), _) => vec![vec![m()]],
            (Binary(_), "gather") => vec![vec![m(), idx()]],
            (Binary(_), "softmax_cross_entropy") => vec![vec![m(), idx()]],
            (Binary(_), _) => vec![vec![m(), m()]],
            (Reduce(_), _) => vec![vec![m()], vec![m(), Value::Int(1)]],
            (Call(_), "where") => {
                let cond = Tensor::from_vec_bool(vec![true, false, false, true], &[2, 2]).unwrap();
                vec![vec![Value::tensor(cond), m(), m()]]
            }
            (Call(_), "transpose") => vec![vec![m(), ints(&[1, 0])]],
            (Call(_), "reshape") => vec![vec![m(), ints(&[4])]],
            (Call(_), "squeeze") => {
                let row = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
                vec![vec![Value::tensor(row), Value::Int(0)]]
            }
            (Call(_), "cast") => vec![vec![m(), Value::DType(DType::F32)]],
            (Call(_), "one_hot") => vec![vec![idx(), Value::Int(2)]],
            (Call(_), "concat") => (0..2)
                .map(|axis| vec![Value::list(vec![m(), m()]), Value::Int(axis)])
                .collect(),
            (Call(_), "stack") => vec![vec![Value::list(vec![m(), m()])]],
            // expand_dims, argmax, top_k
            (Call(_), _) => vec![vec![m(), Value::Int(1)]],
        }
    }

    #[test]
    fn every_row_reaches_one_rule_on_every_backend() {
        // a graph node holds the row's op and the eager runtime applies
        // it, so both reach its rule; Lantern does too when its symbol
        // for the op parses back to that op
        let mut no_rule = Vec::new();
        let mut i = Interp::new();
        for row in ROWS {
            for args in samples(row) {
                let (op, _) = row.build(&mut i, args, &Vec::new()).unwrap();
                if let Some(sym) = autograph_lantern::compile::symbol(&op) {
                    let parsed = autograph_lantern::compile::op_of(sym);
                    assert_eq!(parsed, Some(&op), "{}", row.name);
                }
                if op.rule().is_none() {
                    no_rule.push(op.name());
                }
            }
        }
        no_rule.dedup();
        let want = [
            "softmax",
            "log_softmax",
            "reduce_max",
            "reduce_min",
            "reduce_all",
            "reduce_any",
            "gather",
            "top_k_values",
        ];
        assert_eq!(no_rule, want, "the ops an adjoint may not reach");
    }

    #[test]
    fn shape_arg_forms() {
        let args = vec![Value::tuple(vec![Value::Int(2), Value::Int(3)])];
        assert_eq!(shape_arg(&args, 0).unwrap(), vec![2, 3]);
        let inferred = vec![Value::tuple(vec![Value::Int(-1), Value::Int(3)])];
        assert_eq!(shape_arg(&inferred, 0).unwrap(), vec![usize::MAX, 3]);
        let bad = vec![Value::str("x")];
        assert!(shape_arg(&bad, 0).is_err());
    }
}
