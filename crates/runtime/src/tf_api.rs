//! The `tf.*` API surface exposed to PyLite, dispatching on the active
//! backend: eager kernels, graph nodes, or (a subset) Lantern expressions.

use crate::interp::{Interp, Stage};
use crate::value::{Builtin, Value};
use crate::{Result, RuntimeError};
use autograph_graph::ir::OpKind;
use autograph_lantern::sexpr::SExpr;
use autograph_tensor::{DType, Tensor};
use std::rc::Rc;

type Args = Vec<Value>;
type Kwargs = Vec<(String, Value)>;

fn builtin(name: &str, f: impl Fn(&mut Interp, Args, Kwargs) -> Result<Value> + 'static) -> Value {
    Value::Builtin(Rc::new(Builtin {
        name: format!("tf.{name}"),
        func: Box::new(f),
    }))
}

fn kwarg(kwargs: &Kwargs, name: &str) -> Option<Value> {
    kwargs
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.clone())
}

fn arity(name: &str, args: &Args, n: usize) -> Result<()> {
    if args.len() != n {
        return Err(RuntimeError::new(format!(
            "tf.{name} expects {n} arguments, got {}",
            args.len()
        )));
    }
    Ok(())
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
        match v {
            Value::Int(i) => {
                out.push(*i as f64);
                Ok(())
            }
            Value::Float(f) => {
                *all_int = false;
                out.push(*f);
                Ok(())
            }
            Value::Bool(b) => {
                *all_int = false;
                out.push(*b as i64 as f64);
                Ok(())
            }
            Value::List(items) => {
                let items = items.borrow();
                if depth == shape.len() {
                    shape.push(items.len());
                } else if shape[depth] != items.len() {
                    return Err(RuntimeError::new("ragged nested list in tf.constant"));
                }
                for item in items.iter() {
                    gather(item, out, shape, depth + 1, all_int)?;
                }
                Ok(())
            }
            Value::Tuple(items) => {
                if depth == shape.len() {
                    shape.push(items.len());
                } else if shape[depth] != items.len() {
                    return Err(RuntimeError::new("ragged nested tuple in tf.constant"));
                }
                for item in items.iter() {
                    gather(item, out, shape, depth + 1, all_int)?;
                }
                Ok(())
            }
            other => Err(RuntimeError::new(format!(
                "cannot convert {} to a tensor",
                other.kind()
            ))),
        }
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

/// Dispatch a unary op across backends.
fn unary_op(
    interp: &mut Interp,
    v: Value,
    eager_name: &str,
    graph_op: OpKind,
    lantern_name: Option<&str>,
) -> Result<Value> {
    match &v {
        Value::GraphNode { .. } => interp.graph_op(graph_op, &[v]),
        Value::Lantern(e) => match lantern_name {
            Some(n) => Ok(interp.lantern_expr(n, vec![(**e).clone()])),
            None => Err(RuntimeError::new(format!(
                "tf op '{eager_name}' is not supported by the lantern backend"
            ))),
        },
        _ => {
            // if the interpreter is staging a graph, host values still stage
            if matches!(interp.stage, Stage::Graph(_)) {
                return interp.graph_op(graph_op, &[v]);
            }
            let t = interp.to_eager(&v)?;
            Ok(Value::Tensor(interp.eager.op(eager_name, &[&t])?))
        }
    }
}

fn binary_op(
    interp: &mut Interp,
    a: Value,
    b: Value,
    eager_name: &str,
    graph_op: OpKind,
    lantern_name: Option<&str>,
) -> Result<Value> {
    if matches!(a, Value::GraphNode { .. })
        || matches!(b, Value::GraphNode { .. })
        || matches!(interp.stage, Stage::Graph(_))
    {
        return interp.graph_op(graph_op, &[a, b]);
    }
    if matches!(a, Value::Lantern(_)) || matches!(b, Value::Lantern(_)) {
        return match lantern_name {
            Some(n) => {
                let x = interp.to_lantern_sexpr(&a)?;
                let y = interp.to_lantern_sexpr(&b)?;
                Ok(interp.lantern_expr(n, vec![x, y]))
            }
            None => Err(RuntimeError::new(format!(
                "tf op '{eager_name}' is not supported by the lantern backend"
            ))),
        };
    }
    let x = interp.to_eager(&a)?;
    let y = interp.to_eager(&b)?;
    Ok(Value::Tensor(interp.eager.op(eager_name, &[&x, &y])?))
}

fn axis_from(kwargs: &Kwargs, args: &Args, pos: usize) -> Result<Option<isize>> {
    let v = kwarg(kwargs, "axis").or_else(|| args.get(pos).cloned());
    match v {
        None | Some(Value::None) => Ok(None),
        Some(v) => Ok(Some(v.as_int()? as isize)),
    }
}

fn reduce_op(
    interp: &mut Interp,
    args: Args,
    kwargs: Kwargs,
    name: &'static str,
    mk: fn(Option<isize>) -> OpKind,
    lantern_full: Option<&str>,
) -> Result<Value> {
    let axis = axis_from(&kwargs, &args, 1)?;
    let v = args
        .into_iter()
        .next()
        .ok_or_else(|| RuntimeError::new(format!("tf.{name} needs an argument")))?;
    match &v {
        Value::GraphNode { .. } => interp.graph_op(mk(axis), &[v]),
        Value::Lantern(e) => match (axis, lantern_full) {
            (None, Some(n)) => Ok(interp.lantern_expr(n, vec![(**e).clone()])),
            _ => Err(RuntimeError::new(format!(
                "tf.{name} with axis is not supported by the lantern backend"
            ))),
        },
        _ => {
            if matches!(interp.stage, Stage::Graph(_)) {
                return interp.graph_op(mk(axis), &[v]);
            }
            // differentiable reductions route through the registry so the
            // gradient tape records them — full reductions as unary ops,
            // axis reductions with the axis as a scalar-i64 input; the
            // non-differentiable reductions use the kernel directly
            if axis.is_none() {
                let et = interp.to_eager(&v)?;
                return Ok(Value::Tensor(interp.eager.op(name, &[&et])?));
            }
            if let (Some(a), "reduce_sum" | "reduce_mean") = (axis, name) {
                let et = interp.to_eager(&v)?;
                let ax = autograph_eager::EagerTensor::from(Tensor::scalar_i64(a as i64));
                let axis_name = format!("{name}_axis");
                return Ok(Value::Tensor(interp.eager.op(&axis_name, &[&et, &ax])?));
            }
            let t = v.as_eager_tensor()?;
            let r = match mk(axis) {
                OpKind::ReduceSum(a) => t.reduce_sum(a)?,
                OpKind::ReduceMean(a) => t.reduce_mean(a)?,
                OpKind::ReduceMax(a) => t.reduce_max(a)?,
                OpKind::ReduceMin(a) => t.reduce_min(a)?,
                OpKind::ReduceAll(a) => t.reduce_all(a)?,
                OpKind::ReduceAny(a) => t.reduce_any(a)?,
                _ => unreachable!(),
            };
            Ok(Value::tensor(r))
        }
    }
}

/// Look up a `tf.*` attribute: a builtin function or a dtype constant.
pub fn lookup(name: &str) -> Option<Value> {
    Some(match name {
        // ---- dtypes -------------------------------------------------------
        "float32" | "float64" => Value::DType(DType::F32),
        "int32" | "int64" => Value::DType(DType::I64),
        "bool_" | "boolean" => Value::DType(DType::Bool),

        // ---- construction ---------------------------------------------------
        "constant" => builtin("constant", |interp, args, kwargs| {
            arity("constant", &args, 1).or_else(|_| {
                if kwarg(&kwargs, "dtype").is_some() && args.len() == 1 {
                    Ok(())
                } else {
                    Err(RuntimeError::new("tf.constant takes one value"))
                }
            })?;
            let mut t = value_to_tensor(&args[0])?;
            if let Some(Value::DType(d)) = kwarg(&kwargs, "dtype") {
                t = t.cast(d);
            }
            match &interp.stage {
                Stage::Graph(_) => interp.graph_op(OpKind::Const(t), &[]),
                _ => Ok(Value::tensor(t)),
            }
        }),
        "zeros" => builtin("zeros", |interp, args, _| {
            let shape = shape_arg(&args, 0)?;
            let t = Tensor::zeros(DType::F32, &shape);
            match &interp.stage {
                Stage::Graph(_) => interp.graph_op(OpKind::Const(t), &[]),
                _ => Ok(Value::tensor(t)),
            }
        }),
        "ones" => builtin("ones", |interp, args, _| {
            let shape = shape_arg(&args, 0)?;
            let t = Tensor::ones(DType::F32, &shape);
            match &interp.stage {
                Stage::Graph(_) => interp.graph_op(OpKind::Const(t), &[]),
                _ => Ok(Value::tensor(t)),
            }
        }),
        "random_normal" => builtin("random_normal", |interp, args, kwargs| {
            let shape = shape_arg(&args, 0)?;
            let stddev = match kwarg(&kwargs, "stddev") {
                Some(v) => v.as_float()? as f32,
                None => 1.0,
            };
            // sampled at trace time; staged graphs embed the sample
            let t = interp.rng.normal_tensor(&shape, stddev);
            match &interp.stage {
                Stage::Graph(_) => interp.graph_op(OpKind::Const(t), &[]),
                _ => Ok(Value::tensor(t)),
            }
        }),
        "range" => builtin("range", |interp, args, _| {
            arity("range", &args, 1)?;
            let v = args.into_iter().next().expect("arity checked");
            match &v {
                Value::GraphNode { .. } => interp.graph_op(OpKind::Range, &[v]),
                _ if matches!(interp.stage, Stage::Graph(_)) => {
                    interp.graph_op(OpKind::Range, &[v])
                }
                _ => Ok(Value::tensor(Tensor::range_i64(v.as_int()?))),
            }
        }),

        // ---- unary math ------------------------------------------------------
        "tanh" => builtin("tanh", |i, a, _| {
            unary_op(i, one(a)?, "tanh", OpKind::Tanh, Some("tanh"))
        }),
        "sigmoid" => builtin("sigmoid", |i, a, _| {
            unary_op(i, one(a)?, "sigmoid", OpKind::Sigmoid, Some("sigmoid"))
        }),
        "relu" => builtin("relu", |i, a, _| {
            unary_op(i, one(a)?, "relu", OpKind::Relu, Some("relu"))
        }),
        "exp" => builtin("exp", |i, a, _| {
            unary_op(i, one(a)?, "exp", OpKind::Exp, Some("exp"))
        }),
        "log" => builtin("log", |i, a, _| {
            unary_op(i, one(a)?, "log", OpKind::Log, Some("log"))
        }),
        "sqrt" => builtin("sqrt", |i, a, _| {
            unary_op(i, one(a)?, "sqrt", OpKind::Sqrt, Some("sqrt"))
        }),
        "square" => builtin("square", |i, a, _| {
            unary_op(i, one(a)?, "square", OpKind::Square, Some("square"))
        }),
        "abs" => builtin("abs", |i, a, _| {
            unary_op(i, one(a)?, "abs", OpKind::Abs, None)
        }),
        "neg" => builtin("neg", |i, a, _| {
            unary_op(i, one(a)?, "neg", OpKind::Neg, Some("neg"))
        }),
        "softmax" => builtin("softmax", |i, a, _| {
            unary_op(i, one(a)?, "softmax", OpKind::Softmax, None)
        }),
        "log_softmax" => builtin("log_softmax", |i, a, _| {
            unary_op(i, one(a)?, "log_softmax", OpKind::LogSoftmax, None)
        }),
        "stop_gradient" => builtin("stop_gradient", |i, a, _| {
            unary_op(i, one(a)?, "identity", OpKind::StopGradient, None)
        }),
        "identity" => builtin("identity", |i, a, _| {
            unary_op(i, one(a)?, "identity", OpKind::Identity, None)
        }),

        // ---- binary ------------------------------------------------------------
        "add" => builtin("add", |i, a, _| {
            let (x, y) = two(a)?;
            binary_op(i, x, y, "add", OpKind::Add, Some("add"))
        }),
        "subtract" => builtin("subtract", |i, a, _| {
            let (x, y) = two(a)?;
            binary_op(i, x, y, "sub", OpKind::Sub, Some("sub"))
        }),
        "multiply" => builtin("multiply", |i, a, _| {
            let (x, y) = two(a)?;
            binary_op(i, x, y, "mul", OpKind::Mul, Some("mul"))
        }),
        "divide" => builtin("divide", |i, a, _| {
            let (x, y) = two(a)?;
            binary_op(i, x, y, "div", OpKind::Div, Some("div"))
        }),
        "matmul" => builtin("matmul", |i, a, _| {
            let (x, y) = two(a)?;
            let op = OpKind::MatMul {
                transpose_a: false,
                transpose_b: false,
            };
            binary_op(i, x, y, "matmul", op, Some("matmul"))
        }),
        "maximum" => builtin("maximum", |i, a, _| {
            let (x, y) = two(a)?;
            binary_op(i, x, y, "maximum", OpKind::Maximum, None)
        }),
        "minimum" => builtin("minimum", |i, a, _| {
            let (x, y) = two(a)?;
            binary_op(i, x, y, "minimum", OpKind::Minimum, None)
        }),
        "equal" => builtin("equal", |i, a, _| {
            let (x, y) = two(a)?;
            i.compare(autograph_pylang::ast::CmpOp::Eq, x, y)
        }),
        "less" => builtin("less", |i, a, _| {
            let (x, y) = two(a)?;
            i.compare(autograph_pylang::ast::CmpOp::Lt, x, y)
        }),
        "greater" => builtin("greater", |i, a, _| {
            let (x, y) = two(a)?;
            i.compare(autograph_pylang::ast::CmpOp::Gt, x, y)
        }),
        "logical_and" => builtin("logical_and", |i, a, _| {
            let (x, y) = two(a)?;
            binary_op(i, x, y, "logical_and", OpKind::LogicalAnd, None)
        }),
        "logical_or" => builtin("logical_or", |i, a, _| {
            let (x, y) = two(a)?;
            binary_op(i, x, y, "logical_or", OpKind::LogicalOr, None)
        }),
        "logical_not" => builtin("logical_not", |i, a, _| {
            unary_op(i, one(a)?, "logical_not", OpKind::LogicalNot, None)
        }),
        "pow" => builtin("pow", |i, a, _| {
            let (x, y) = two(a)?;
            binary_op(i, x, y, "pow", OpKind::Pow, None)
        }),

        // ---- reductions -----------------------------------------------------
        "reduce_sum" => builtin("reduce_sum", |i, a, k| {
            reduce_op(i, a, k, "reduce_sum", OpKind::ReduceSum, Some("reduce_sum"))
        }),
        "reduce_mean" => builtin("reduce_mean", |i, a, k| {
            reduce_op(
                i,
                a,
                k,
                "reduce_mean",
                OpKind::ReduceMean,
                Some("reduce_mean"),
            )
        }),
        "reduce_max" => builtin("reduce_max", |i, a, k| {
            reduce_op(i, a, k, "reduce_max", OpKind::ReduceMax, None)
        }),
        "reduce_min" => builtin("reduce_min", |i, a, k| {
            reduce_op(i, a, k, "reduce_min", OpKind::ReduceMin, None)
        }),
        "reduce_all" => builtin("reduce_all", |i, a, k| {
            reduce_op(i, a, k, "reduce_all", OpKind::ReduceAll, None)
        }),
        "reduce_any" => builtin("reduce_any", |i, a, k| {
            reduce_op(i, a, k, "reduce_any", OpKind::ReduceAny, None)
        }),
        "argmax" => builtin("argmax", |i, a, k| {
            let axis = axis_from(&k, &a, 1)?.unwrap_or(-1);
            let v = one_of(a, 0)?;
            match &v {
                Value::GraphNode { .. } => i.graph_op(OpKind::ArgMax(axis), &[v]),
                _ if matches!(i.stage, Stage::Graph(_)) => i.graph_op(OpKind::ArgMax(axis), &[v]),
                _ => Ok(Value::tensor(v.as_eager_tensor()?.argmax(axis)?)),
            }
        }),

        // ---- shape / indexing --------------------------------------------------
        "shape" => builtin("shape", |i, a, _| {
            let v = one(a)?;
            match &v {
                Value::GraphNode { .. } => i.graph_op(OpKind::Shape, &[v]),
                _ => {
                    let t = v.as_eager_tensor()?;
                    let dims: Vec<i64> = t.shape().iter().map(|&d| d as i64).collect();
                    let n = dims.len();
                    Ok(Value::tensor(Tensor::from_vec_i64(dims, &[n])?))
                }
            }
        }),
        "transpose" => builtin("transpose", |i, a, _| {
            if a.len() != 2 {
                return Err(RuntimeError::new("tf.transpose(x, perm)"));
            }
            let perm: Vec<usize> = match &a[1] {
                Value::Tuple(items) => items
                    .iter()
                    .map(|v| v.as_int().map(|x| x as usize))
                    .collect::<Result<_>>()?,
                Value::List(items) => items
                    .borrow()
                    .iter()
                    .map(|v| v.as_int().map(|x| x as usize))
                    .collect::<Result<_>>()?,
                other => {
                    return Err(RuntimeError::new(format!(
                        "perm must be a tuple, got {}",
                        other.kind()
                    )))
                }
            };
            let v = a.into_iter().next().expect("len checked");
            match &v {
                Value::GraphNode { .. } => i.graph_op(OpKind::Transpose(perm), &[v]),
                _ if matches!(i.stage, Stage::Graph(_)) => {
                    i.graph_op(OpKind::Transpose(perm), &[v])
                }
                _ => Ok(Value::tensor(v.as_eager_tensor()?.transpose(&perm)?)),
            }
        }),
        "reshape" => builtin("reshape", |i, a, _| {
            if a.len() != 2 {
                return Err(RuntimeError::new("tf.reshape(x, shape)"));
            }
            let shape = shape_arg(&a, 1)?;
            let v = a.into_iter().next().expect("len checked");
            match &v {
                Value::GraphNode { .. } => i.graph_op(OpKind::Reshape(shape), &[v]),
                _ => Ok(Value::tensor(v.as_eager_tensor()?.reshape(&shape)?)),
            }
        }),
        "expand_dims" => builtin("expand_dims", |i, a, _| {
            let (x, ax) = two(a)?;
            let ax = ax.as_int()? as isize;
            match &x {
                Value::GraphNode { .. } => i.graph_op(OpKind::ExpandDims(ax), &[x]),
                _ => Ok(Value::tensor(x.as_eager_tensor()?.expand_dims(ax)?)),
            }
        }),
        "squeeze" => builtin("squeeze", |i, a, _| {
            let ax = a
                .get(1)
                .map(|v| v.as_int())
                .transpose()?
                .map(|x| x as isize);
            let x = one_of(a, 0)?;
            match &x {
                Value::GraphNode { .. } => i.graph_op(OpKind::Squeeze(ax), &[x]),
                _ => Ok(Value::tensor(x.as_eager_tensor()?.squeeze(ax)?)),
            }
        }),
        "cast" => builtin("cast", |i, a, _| {
            let (x, d) = two(a)?;
            let d = match d {
                Value::DType(d) => d,
                other => {
                    return Err(RuntimeError::new(format!(
                        "tf.cast dtype must be a dtype, got {}",
                        other.kind()
                    )))
                }
            };
            match &x {
                Value::GraphNode { .. } => i.graph_op(OpKind::Cast(d), &[x]),
                _ => Ok(Value::tensor(x.as_eager_tensor()?.cast(d))),
            }
        }),
        "where" => builtin("where", |i, a, _| {
            if a.len() != 3 {
                return Err(RuntimeError::new("tf.where(cond, a, b)"));
            }
            let mut it = a.into_iter();
            let (c, x, y) = (
                it.next().expect("len"),
                it.next().expect("len"),
                it.next().expect("len"),
            );
            if c.is_staged() || x.is_staged() || y.is_staged() || matches!(i.stage, Stage::Graph(_))
            {
                return i.graph_op(OpKind::Select, &[c, x, y]);
            }
            let ct = i.to_eager(&c)?;
            let xt = i.to_eager(&x)?;
            let yt = i.to_eager(&y)?;
            Ok(Value::Tensor(i.eager.op("select", &[&ct, &xt, &yt])?))
        }),
        "gather" => builtin("gather", |i, a, _| {
            let (x, idx) = two(a)?;
            binary_op(i, x, idx, "gather", OpKind::Gather, None)
        }),
        "one_hot" => builtin("one_hot", |i, a, _| {
            let (x, depth) = two(a)?;
            let depth = depth.as_int()? as usize;
            match &x {
                Value::GraphNode { .. } => i.graph_op(OpKind::OneHot(depth), &[x]),
                _ => Ok(Value::tensor(x.as_eager_tensor()?.one_hot(depth)?)),
            }
        }),
        "concat" => builtin("concat", |i, a, _| {
            if a.len() != 2 {
                return Err(RuntimeError::new("tf.concat(values, axis)"));
            }
            let axis = a[1].as_int()? as isize;
            let items: Vec<Value> = match &a[0] {
                Value::List(l) => l.borrow().clone(),
                Value::Tuple(t) => (**t).clone(),
                other => {
                    return Err(RuntimeError::new(format!(
                        "tf.concat values must be a list, got {}",
                        other.kind()
                    )))
                }
            };
            if items.iter().any(Value::is_staged) || matches!(i.stage, Stage::Graph(_)) {
                if items.iter().any(|v| matches!(v, Value::Lantern(_))) {
                    let name = match axis {
                        0 => "concat0",
                        1 => "concat1",
                        _ => return Err(RuntimeError::new("lantern concat supports axes 0 and 1")),
                    };
                    let sexprs: Vec<SExpr> = items
                        .iter()
                        .map(|v| i.to_lantern_sexpr(v))
                        .collect::<Result<_>>()?;
                    return Ok(i.lantern_expr(name, sexprs));
                }
                return i.graph_op(OpKind::Concat(axis), &items);
            }
            // dispatch through the registry so the gradient tape records
            let ets: Vec<autograph_eager::EagerTensor> =
                items.iter().map(|v| i.to_eager(v)).collect::<Result<_>>()?;
            let refs: Vec<&autograph_eager::EagerTensor> = ets.iter().collect();
            match axis {
                0 => Ok(Value::Tensor(i.eager.op("concat0", &refs)?)),
                1 => Ok(Value::Tensor(i.eager.op("concat1", &refs)?)),
                _ => {
                    let ts: Vec<Tensor> = items
                        .iter()
                        .map(|v| v.as_eager_tensor())
                        .collect::<Result<_>>()?;
                    Ok(Value::tensor(Tensor::concat(&ts, axis)?))
                }
            }
        }),
        "stack" => builtin("stack", |i, a, _| {
            let items: Vec<Value> = match &a[0] {
                Value::List(l) => l.borrow().clone(),
                Value::Tuple(t) => (**t).clone(),
                other => {
                    return Err(RuntimeError::new(format!(
                        "tf.stack values must be a list, got {}",
                        other.kind()
                    )))
                }
            };
            if items.iter().any(Value::is_staged) || matches!(i.stage, Stage::Graph(_)) {
                return i.graph_op(OpKind::StackOp, &items);
            }
            let ts: Vec<Tensor> = items
                .iter()
                .map(|v| v.as_eager_tensor())
                .collect::<Result<_>>()?;
            Ok(Value::tensor(Tensor::stack(&ts)?))
        }),
        "top_k" => builtin("top_k", |i, a, _| {
            let (x, k) = two(a)?;
            let k = k.as_int()? as usize;
            match &x {
                Value::GraphNode { .. } => {
                    let pair = i.graph_op(OpKind::TopK(k), &[x])?;
                    let vals = i.graph_op(OpKind::TupleGet(0), std::slice::from_ref(&pair))?;
                    let idxs = i.graph_op(OpKind::TupleGet(1), &[pair])?;
                    Ok(Value::tuple(vec![vals, idxs]))
                }
                _ => {
                    let (v, idx) = x.as_eager_tensor()?.top_k(k)?;
                    Ok(Value::tuple(vec![Value::tensor(v), Value::tensor(idx)]))
                }
            }
        }),

        // ---- losses --------------------------------------------------------------
        "softmax_cross_entropy" => builtin("softmax_cross_entropy", |i, a, _| {
            let (logits, labels) = two(a)?;
            binary_op(
                i,
                logits,
                labels,
                "softmax_cross_entropy",
                OpKind::SoftmaxCrossEntropy,
                Some("softmax_xent"),
            )
        }),

        // ---- gradients / control flow / effects ------------------------------------
        "gradients" => builtin("gradients", |i, a, _| {
            let (loss, wrt) = two(a)?;
            let wrt_items: Vec<Value> = match &wrt {
                Value::List(l) => l.borrow().clone(),
                Value::Tuple(t) => (**t).clone(),
                single => vec![single.clone()],
            };
            let loss_node = i.graph_node_for(&loss)?;
            let mut wrt_nodes = Vec::with_capacity(wrt_items.len());
            for w in &wrt_items {
                wrt_nodes.push(i.graph_node_for(w)?);
            }
            let stage =
                match &mut i.stage {
                    Stage::Graph(g) => g,
                    _ => return Err(RuntimeError::new(
                        "tf.gradients requires graph staging (use the eager tape in eager mode)",
                    )),
                };
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
        "tape_begin" => builtin("tape_begin", |i, _, _| {
            i.eager.start_tape();
            Ok(Value::None)
        }),
        "watch" => builtin("watch", |i, a, _| {
            let v = one(a)?;
            let t = i.to_eager(&v)?;
            Ok(Value::Tensor(i.eager.watch(&t)?))
        }),
        "grad" => builtin("grad", |i, a, _| {
            let (loss, wrt) = two(a)?;
            let loss_t = match &loss {
                Value::Tensor(t) => t.clone(),
                other => {
                    return Err(RuntimeError::new(format!(
                        "tf.grad loss must be an eager tensor, got {}",
                        other.kind()
                    )))
                }
            };
            let wrt_items: Vec<Value> = match &wrt {
                Value::List(l) => l.borrow().clone(),
                Value::Tuple(t) => (**t).clone(),
                single => vec![single.clone()],
            };
            let wrt_tensors: Vec<autograph_eager::EagerTensor> = wrt_items
                .iter()
                .map(|v| match v {
                    Value::Tensor(t) => Ok(t.clone()),
                    other => Err(RuntimeError::new(format!(
                        "tf.grad parameters must be watched tensors, got {}",
                        other.kind()
                    ))),
                })
                .collect::<Result<_>>()?;
            let refs: Vec<&autograph_eager::EagerTensor> = wrt_tensors.iter().collect();
            let grads = i.eager.gradient(&loss_t, &refs)?;
            Ok(Value::list(grads.into_iter().map(Value::tensor).collect()))
        }),
        "cond" => builtin("cond", |i, a, _| {
            if a.len() != 3 {
                return Err(RuntimeError::new("tf.cond(pred, true_fn, false_fn)"));
            }
            let mut it = a.into_iter();
            let pred = it.next().expect("len");
            let tf_ = it.next().expect("len");
            let ff = it.next().expect("len");
            crate::operators::if_stmt_impl(i, pred, tf_, ff)
        }),
        "while_loop" => builtin("while_loop", |i, a, _| {
            if a.len() != 3 {
                return Err(RuntimeError::new(
                    "tf.while_loop(cond_fn, body_fn, loop_vars)",
                ));
            }
            let mut it = a.into_iter();
            let cond = it.next().expect("len");
            let body = it.next().expect("len");
            let vars = it.next().expect("len");
            crate::operators::while_stmt_impl(i, cond, body, vars)
        }),
        "print" => builtin("print", |i, a, _| {
            let v = one(a)?;
            match &v {
                Value::GraphNode { .. } => i.graph_op(OpKind::Print("tf.print: ".into()), &[v]),
                other => {
                    println!("{}", other.render());
                    Ok(Value::None)
                }
            }
        }),

        _ => return None,
    })
}

fn one(mut args: Args) -> Result<Value> {
    if args.len() != 1 {
        return Err(RuntimeError::new(format!(
            "expected 1 argument, got {}",
            args.len()
        )));
    }
    Ok(args.remove(0))
}

fn one_of(mut args: Args, i: usize) -> Result<Value> {
    if args.len() <= i {
        return Err(RuntimeError::new("missing argument"));
    }
    Ok(args.remove(i))
}

fn two(mut args: Args) -> Result<(Value, Value)> {
    if args.len() != 2 {
        return Err(RuntimeError::new(format!(
            "expected 2 arguments, got {}",
            args.len()
        )));
    }
    let b = args.pop().expect("len checked");
    let a = args.pop().expect("len checked");
    Ok((a, b))
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
