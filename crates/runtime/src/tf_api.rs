//! The `tf.*` API surface exposed to PyLite. Every tensor op is declared
//! once, as a [`Row`] of [`ROWS`], and [`Interp::dispatch`] picks the
//! backend each call runs on — the paper's dynamic dispatch (§4, Table 4):
//! eager kernels, graph nodes, or Lantern expressions.

use crate::interp::Interp;
use crate::value::{Builtin, Value};
use crate::{Result, RuntimeError};
use autograph_eager::EagerTensor;
use autograph_graph::ir::OpKind;
use autograph_pylang::ast::CmpOp;
use autograph_tensor::{DType, Tensor};
use std::rc::Rc;

type Args = Vec<Value>;
type Kwargs = Vec<(String, Value)>;

/// How a call's arguments become the graph op (attributes included) and
/// the op's tensor operands.
enum Build {
    /// `op(x)`.
    Unary(OpKind),
    /// `op(x, y)`.
    Binary(OpKind),
    /// `op(x, axis=None)`.
    Reduce(fn(Option<isize>) -> OpKind),
    /// Anything else.
    Call(fn(&mut Interp, Args, &Kwargs) -> Result<(OpKind, Args)>),
}
use Build::{Binary, Call, Reduce, Unary};

/// One tensor op, declared once for every backend.
pub(crate) struct Row {
    /// The `tf.*` name.
    name: &'static str,
    build: Build,
    /// The eager registry op; the graph op's attributes follow the
    /// operands as i64 inputs.
    eager: &'static str,
    /// The Lantern symbol, when the Lantern IR has the op.
    lantern: Option<&'static str>,
}

const fn row(
    name: &'static str,
    build: Build,
    eager: &'static str,
    lantern: Option<&'static str>,
) -> Row {
    Row {
        name,
        build,
        eager,
        lantern,
    }
}

// rows the Python operators (`Interp::{binop, compare, unary}`) and `ag.*`
// dispatch to, besides `tf.*`
pub(crate) const ADD: Row = row("add", Binary(OpKind::Add), "add", Some("add"));
pub(crate) const SUB: Row = row("subtract", Binary(OpKind::Sub), "sub", Some("sub"));
pub(crate) const MUL: Row = row("multiply", Binary(OpKind::Mul), "mul", Some("mul"));
pub(crate) const DIV: Row = row("divide", Binary(OpKind::Div), "div", Some("div"));
pub(crate) const FLOORDIV: Row = row("floordiv", Binary(OpKind::FloorDiv), "floordiv", None);
pub(crate) const MOD: Row = row("mod", Binary(OpKind::Mod), "mod", None);
pub(crate) const POW: Row = row("pow", Binary(OpKind::Pow), "pow", None);
pub(crate) const LESS: Row = row("less", Binary(OpKind::Less), "less", Some("lt"));
pub(crate) const LESS_EQUAL: Row = row(
    "less_equal",
    Binary(OpKind::LessEqual),
    "less_equal",
    Some("le"),
);
pub(crate) const GREATER: Row = row("greater", Binary(OpKind::Greater), "greater", Some("gt"));
pub(crate) const GREATER_EQUAL: Row = row(
    "greater_equal",
    Binary(OpKind::GreaterEqual),
    "greater_equal",
    Some("ge"),
);
pub(crate) const EQUAL: Row = row("equal", Binary(OpKind::Equal), "equal", Some("eq"));
pub(crate) const NOT_EQUAL: Row = row("not_equal", Binary(OpKind::NotEqual), "not_equal", None);
pub(crate) const NEG: Row = row("neg", Unary(OpKind::Neg), "neg", Some("neg"));
pub(crate) const ABS: Row = row("abs", Unary(OpKind::Abs), "abs", None);
pub(crate) const LOGICAL_NOT: Row = row(
    "logical_not",
    Unary(OpKind::LogicalNot),
    "logical_not",
    Some("not"),
);
pub(crate) const LOGICAL_AND: Row = row(
    "logical_and",
    Binary(OpKind::LogicalAnd),
    "logical_and",
    Some("and"),
);
pub(crate) const LOGICAL_OR: Row = row(
    "logical_or",
    Binary(OpKind::LogicalOr),
    "logical_or",
    Some("or"),
);
pub(crate) const STACK: Row = row("stack", Call(stack), "stack", None);
const TOP_K: Row = row(
    "top_k",
    Call(|_, a, _| int_attr(OpKind::TopK, a)),
    "top_k",
    None,
);

/// Every tensor op of `tf.*`.
#[rustfmt::skip]
static ROWS: &[Row] = &[
    // ---- construction: the op's value is its attribute ------------------------
    row("constant", Call(constant), "identity", None),
    row("zeros", Call(|_, a, _| Ok((OpKind::Const(Tensor::zeros(DType::F32, &shape_arg(&a, 0)?)), vec![]))), "identity", None),
    row("ones", Call(|_, a, _| Ok((OpKind::Const(Tensor::ones(DType::F32, &shape_arg(&a, 0)?)), vec![]))), "identity", None),
    row("random_normal", Call(random_normal), "identity", None),
    row("range", Unary(OpKind::Range), "range", None),
    // ---- elementwise ------------------------------------------------------------
    row("tanh", Unary(OpKind::Tanh), "tanh", Some("tanh")),
    row("sigmoid", Unary(OpKind::Sigmoid), "sigmoid", Some("sigmoid")),
    row("relu", Unary(OpKind::Relu), "relu", Some("relu")),
    row("exp", Unary(OpKind::Exp), "exp", Some("exp")),
    row("log", Unary(OpKind::Log), "log", Some("log")),
    row("sqrt", Unary(OpKind::Sqrt), "sqrt", Some("sqrt")),
    row("square", Unary(OpKind::Square), "square", Some("square")),
    ABS,
    NEG,
    row("softmax", Unary(OpKind::Softmax), "softmax", None),
    row("log_softmax", Unary(OpKind::LogSoftmax), "log_softmax", None),
    row("stop_gradient", Unary(OpKind::StopGradient), "stop_gradient", None),
    row("identity", Unary(OpKind::Identity), "identity", None),
    ADD,
    SUB,
    MUL,
    DIV,
    FLOORDIV,
    MOD,
    POW,
    row("matmul", Binary(OpKind::MatMul { transpose_a: false, transpose_b: false }), "matmul", Some("matmul")),
    row("maximum", Binary(OpKind::Maximum), "maximum", None),
    row("minimum", Binary(OpKind::Minimum), "minimum", None),
    EQUAL,
    NOT_EQUAL,
    LESS,
    LESS_EQUAL,
    GREATER,
    GREATER_EQUAL,
    // the Python `and`/`or`/`not` stage to Lantern; `tf.logical_*` never has
    row("logical_and", Binary(OpKind::LogicalAnd), "logical_and", None),
    row("logical_or", Binary(OpKind::LogicalOr), "logical_or", None),
    row("logical_not", Unary(OpKind::LogicalNot), "logical_not", None),
    row("where", Call(|_, a, _| Ok((OpKind::Select, exactly(a, 3)?))), "select", None),
    row("softmax_cross_entropy", Binary(OpKind::SoftmaxCrossEntropy), "softmax_cross_entropy", Some("softmax_xent")),
    // ---- reductions ---------------------------------------------------------------
    row("reduce_sum", Reduce(OpKind::ReduceSum), "reduce_sum", Some("reduce_sum")),
    row("reduce_mean", Reduce(OpKind::ReduceMean), "reduce_mean", Some("reduce_mean")),
    row("reduce_max", Reduce(OpKind::ReduceMax), "reduce_max", None),
    row("reduce_min", Reduce(OpKind::ReduceMin), "reduce_min", None),
    row("reduce_all", Reduce(OpKind::ReduceAll), "reduce_all", None),
    row("reduce_any", Reduce(OpKind::ReduceAny), "reduce_any", None),
    row("argmax", Call(|_, a, k| Ok((OpKind::ArgMax(axis_from(k, &a, 1)?.unwrap_or(-1)), vec![first(a)?]))), "argmax", None),
    // ---- shape / indexing -----------------------------------------------------------
    row("shape", Unary(OpKind::Shape), "shape", None),
    row("transpose", Call(transpose), "transpose", None),
    row("reshape", Call(reshape), "reshape", None),
    row("expand_dims", Call(expand_dims), "expand_dims", None),
    row("squeeze", Call(squeeze), "squeeze", None),
    row("cast", Call(cast), "cast", None),
    row("gather", Binary(OpKind::Gather), "gather", None),
    row("one_hot", Call(|_, a, _| int_attr(OpKind::OneHot, a)), "one_hot", None),
    row("concat", Call(concat), "concat", Some("concat")),
    STACK,
    TOP_K,
];

impl Row {
    fn build(&self, i: &mut Interp, args: Args, kwargs: &Kwargs) -> Result<(OpKind, Args)> {
        match &self.build {
            Unary(op) => Ok((op.clone(), exactly(args, 1)?)),
            Binary(op) => Ok((op.clone(), exactly(args, 2)?)),
            Reduce(op) => Ok((op(axis_from(kwargs, &args, 1)?), vec![first(args)?])),
            Call(f) => f(i, args, kwargs),
        }
    }
}

fn constant(_: &mut Interp, args: Args, kwargs: &Kwargs) -> Result<(OpKind, Args)> {
    let [v] = take(args)?;
    let mut t = value_to_tensor(&v)?;
    if let Some(Value::DType(d)) = kwarg(kwargs, "dtype") {
        t = t.cast(d);
    }
    Ok((OpKind::Const(t), vec![]))
}

fn random_normal(i: &mut Interp, args: Args, kwargs: &Kwargs) -> Result<(OpKind, Args)> {
    let stddev = match kwarg(kwargs, "stddev") {
        Some(v) => v.as_float()? as f32,
        None => 1.0,
    };
    // sampled at trace time; staged graphs embed the sample
    let t = i.rng.normal_tensor(&shape_arg(&args, 0)?, stddev);
    Ok((OpKind::Const(t), vec![]))
}

fn transpose(_: &mut Interp, args: Args, _: &Kwargs) -> Result<(OpKind, Args)> {
    let [x, perm] = take(args)?;
    let perm = list(perm)?
        .iter()
        .map(|v| v.as_int().map(|x| x as usize))
        .collect::<Result<_>>()?;
    Ok((OpKind::Transpose(perm), vec![x]))
}

fn reshape(_: &mut Interp, args: Args, _: &Kwargs) -> Result<(OpKind, Args)> {
    let shape = shape_arg(&args, 1)?;
    let [x, _] = take(args)?;
    Ok((OpKind::Reshape(shape), vec![x]))
}

fn expand_dims(_: &mut Interp, args: Args, _: &Kwargs) -> Result<(OpKind, Args)> {
    let [x, axis] = take(args)?;
    Ok((OpKind::ExpandDims(axis.as_int()? as isize), vec![x]))
}

fn squeeze(_: &mut Interp, args: Args, _: &Kwargs) -> Result<(OpKind, Args)> {
    let axis = args.get(1).map(Value::as_int).transpose()?;
    Ok((
        OpKind::Squeeze(axis.map(|x| x as isize)),
        vec![first(args)?],
    ))
}

fn cast(_: &mut Interp, args: Args, _: &Kwargs) -> Result<(OpKind, Args)> {
    match take(args)? {
        [x, Value::DType(d)] => Ok((OpKind::Cast(d), vec![x])),
        [_, other] => Err(RuntimeError::new(format!(
            "tf.cast dtype must be a dtype, got {}",
            other.kind()
        ))),
    }
}

fn concat(_: &mut Interp, args: Args, _: &Kwargs) -> Result<(OpKind, Args)> {
    let [values, axis] = take(args)?;
    Ok((OpKind::Concat(axis.as_int()? as isize), list(values)?))
}

fn stack(_: &mut Interp, args: Args, _: &Kwargs) -> Result<(OpKind, Args)> {
    let [values] = take(args)?;
    Ok((OpKind::StackOp, list(values)?))
}

impl Interp {
    /// The one backend decision for a tensor op (§4 dynamic dispatch): a
    /// staged operand or active graph staging adds a graph node, a Lantern
    /// operand builds a Lantern expression, and anything else runs through
    /// the eager registry, so the gradient tape records every op.
    ///
    /// # Errors
    ///
    /// Fails when the Lantern IR lacks the op, on uncoercible operands, and
    /// on kernel errors.
    pub(crate) fn dispatch(&mut self, row: &Row, op: OpKind, operands: &[Value]) -> Result<Value> {
        if self.staging_graph()
            || operands
                .iter()
                .any(|v| matches!(v, Value::GraphNode { .. }))
        {
            return self.graph_op(op, operands);
        }
        if operands.iter().any(|v| matches!(v, Value::Lantern(_))) {
            let sym = lantern_symbol(row, &op).ok_or_else(|| {
                RuntimeError::new(format!(
                    "tf op '{}' is not supported by the lantern backend",
                    row.name
                ))
            })?;
            let args = operands
                .iter()
                .map(|v| self.to_lantern_sexpr(v))
                .collect::<Result<_>>()?;
            return Ok(self.lantern_expr(sym, args));
        }
        let mut inputs = operands
            .iter()
            .map(|v| self.to_eager(v))
            .collect::<Result<Vec<_>>>()?;
        inputs.extend(attr_inputs(op)?.into_iter().map(EagerTensor::from));
        let refs: Vec<&EagerTensor> = inputs.iter().collect();
        Ok(Value::Tensor(self.eager.op(row.eager, &refs)?))
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
}

/// The Lantern IR carries no attributes: an attributed op has no Lantern
/// form, except `concat`, whose axes 0 and 1 are two Lantern ops.
fn lantern_symbol(row: &Row, op: &OpKind) -> Option<&'static str> {
    let sym = row.lantern?;
    match op {
        OpKind::Concat(0) => Some("concat0"),
        OpKind::Concat(1) => Some("concat1"),
        OpKind::Concat(_) | OpKind::ReduceSum(Some(_)) | OpKind::ReduceMean(Some(_)) => None,
        _ => Some(sym),
    }
}

/// A graph op's attributes as the eager registry reads them: i64 inputs
/// after the operands (a constant's attribute is its value).
fn attr_inputs(op: OpKind) -> Result<Vec<Tensor>> {
    use OpKind::*;
    let int = |v: i64| vec![Tensor::scalar_i64(v)];
    Ok(match op {
        Const(t) => vec![t],
        ReduceSum(Some(a)) | ReduceMean(Some(a)) | ReduceMax(Some(a)) | ReduceMin(Some(a))
        | ReduceAll(Some(a)) | ReduceAny(Some(a)) | Squeeze(Some(a)) | ArgMax(a)
        | ExpandDims(a) | Concat(a) => int(a as i64),
        OneHot(n) | TopK(n) => int(n as i64),
        Cast(d) => int(d as i64),
        Transpose(dims) | Reshape(dims) => {
            let n = dims.len();
            let dims = dims
                .into_iter()
                .map(|d| i64::try_from(d).unwrap_or(-1))
                .collect();
            vec![Tensor::from_vec_i64(dims, &[n])?]
        }
        _ => vec![],
    })
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
        // two outputs: a staged TopK is split into its pair; the registry
        // has one op per output
        "top_k" => builtin(name, |i, a, k| {
            let (op, x) = TOP_K.build(i, a, &k)?;
            match i.dispatch(&TOP_K, op.clone(), &x)? {
                pair @ Value::GraphNode { .. } => {
                    let values = i.graph_op(OpKind::TupleGet(0), std::slice::from_ref(&pair))?;
                    let indices = i.graph_op(OpKind::TupleGet(1), &[pair])?;
                    Ok(Value::tuple(vec![values, indices]))
                }
                values => {
                    let indices = Row {
                        eager: "top_k_indices",
                        ..TOP_K
                    };
                    Ok(Value::tuple(vec![values, i.dispatch(&indices, op, &x)?]))
                }
            }
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

        _ => {
            let row = ROWS.iter().find(|r| r.name == name)?;
            builtin(name, move |i, a, k| {
                let (op, operands) = row.build(i, a, &k)?;
                i.dispatch(row, op, &operands)
            })
        }
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
fn int_attr(op: fn(usize) -> OpKind, args: Args) -> Result<(OpKind, Args)> {
    let [x, n] = take(args)?;
    let n = usize::try_from(n.as_int()?)
        .map_err(|_| RuntimeError::new("expected a non-negative integer"))?;
    Ok((op(n), vec![x]))
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
            (Call(_), "constant" | "zeros" | "ones" | "random_normal") => vec![vec![ints(&[2])]],
            // expand_dims, argmax, top_k
            (Call(_), _) => vec![vec![m(), Value::Int(1)]],
        }
    }

    #[test]
    fn every_row_reaches_one_rule_on_every_backend() {
        // concat's graph adjoint needs a slice op the IR does not have yet
        let exceptions = [("concat", "graph")];
        let mut hit = Vec::new();
        let mut i = Interp::new();
        // the Python `and`/`or`/`not` rows stage to Lantern; `tf.logical_*` never does
        for row in ROWS.iter().chain([&LOGICAL_AND, &LOGICAL_OR, &LOGICAL_NOT]) {
            for args in samples(row) {
                let (op, operands) = row.build(&mut i, args, &Vec::new()).unwrap();
                if operands.is_empty() {
                    continue; // a constructor: nothing to differentiate
                }
                let mut inputs: Vec<Tensor> = operands
                    .iter()
                    .map(|v| i.to_eager(v).map(|t| t.tensor().clone()))
                    .collect::<Result<_>>()
                    .unwrap();
                inputs.extend(attr_inputs(op.clone()).unwrap());
                let mut rules = vec![
                    ("graph", autograph_graph::grad::rule_of(&op)),
                    ("eager", i.eager.rule(row.eager, &inputs).unwrap()),
                ];
                if let Some(sym) = lantern_symbol(row, &op) {
                    let lantern = autograph_lantern::eval::rule_of(sym, operands.len());
                    rules.push(("lantern", Some(lantern.expect("a Lantern op"))));
                }
                let (excepted, reached): (Vec<_>, Vec<_>) = rules
                    .into_iter()
                    .partition(|(backend, _)| exceptions.contains(&(row.name, *backend)));
                for (backend, rule) in excepted {
                    assert_eq!(
                        rule, None,
                        "{} on {backend} is no longer an exception",
                        row.name
                    );
                    hit.push((row.name, backend));
                }
                for (backend, rule) in &reached {
                    assert_eq!(
                        rule, &reached[0].1,
                        "{} ({op:?}): {backend} and {} disagree",
                        row.name, reached[0].0
                    );
                }
            }
        }
        hit.dedup();
        assert_eq!(hit, exceptions, "every exception is still one");
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
