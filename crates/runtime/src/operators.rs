//! The `ag.*` operator namespace — the overloadable functional forms that
//! converted code calls, each implementing the paper's **dynamic dispatch**
//! (Listing 2): Python operands execute imperatively; staged operands
//! lower the construct into the active IR.

use crate::interp::{Interp, Stage};
use crate::value::{Builtin, PyFunction, Value};
use crate::{Result, RuntimeError};
use autograph_graph::ir::OpKind;
use autograph_lantern::sexpr::SExpr;
use autograph_pylang::ast::{Module, StmtKind};
use std::rc::Rc;

type Args = Vec<Value>;
type Kwargs = Vec<(String, Value)>;

fn builtin(name: &str, f: impl Fn(&mut Interp, Args, Kwargs) -> Result<Value> + 'static) -> Value {
    Value::Builtin(Rc::new(Builtin {
        name: format!("ag.{name}"),
        func: Box::new(f),
    }))
}

/// Look up an `ag.*` attribute.
pub fn lookup(name: &str) -> Option<Value> {
    Some(match name {
        "if_stmt" => builtin("if_stmt", |i, mut a, _| {
            if a.len() != 3 {
                return Err(RuntimeError::new("ag.if_stmt(cond, true_fn, false_fn)"));
            }
            let ff = a.pop().expect("len");
            let tf_ = a.pop().expect("len");
            let cond = a.pop().expect("len");
            if_stmt_impl(i, cond, tf_, ff)
        }),
        "while_stmt" => builtin("while_stmt", |i, mut a, _| {
            if a.len() != 3 {
                return Err(RuntimeError::new("ag.while_stmt(test_fn, body_fn, init)"));
            }
            let init = a.pop().expect("len");
            let body = a.pop().expect("len");
            let test = a.pop().expect("len");
            while_stmt_impl(i, test, body, init)
        }),
        "for_stmt" => builtin("for_stmt", |i, mut a, _| {
            if a.len() != 3 {
                return Err(RuntimeError::new("ag.for_stmt(iter, body_fn, init)"));
            }
            let init = a.pop().expect("len");
            let body = a.pop().expect("len");
            let iter = a.pop().expect("len");
            for_stmt_impl(i, iter, body, init)
        }),
        "converted_call" => builtin("converted_call", |i, mut a, k| {
            if a.is_empty() {
                return Err(RuntimeError::new("ag.converted_call needs a callee"));
            }
            let callee = a.remove(0);
            converted_call_impl(i, callee, a, k)
        }),
        "and_" => builtin("and_", |i, a, _| logical_lazy(i, a, true)),
        "or_" => builtin("or_", |i, a, _| logical_lazy(i, a, false)),
        "not_" => builtin("not_", |i, mut a, _| {
            let v = a.pop().ok_or_else(|| RuntimeError::new("ag.not_(x)"))?;
            match &v {
                Value::GraphNode { .. } => i.graph_op(OpKind::LogicalNot, &[v]),
                Value::Lantern(e) => Ok(i.lantern_expr("not", vec![(**e).clone()])),
                Value::Tensor(t) if t.tensor().dtype() == autograph_tensor::DType::Bool => {
                    let r = i.eager.op("logical_not", &[t])?;
                    Ok(Value::Tensor(r))
                }
                other => Ok(Value::Bool(!other.truthy()?)),
            }
        }),
        "eq_" => builtin("eq_", |i, mut a, _| {
            let b = a.pop().ok_or_else(|| RuntimeError::new("ag.eq_(a, b)"))?;
            let x = a.pop().ok_or_else(|| RuntimeError::new("ag.eq_(a, b)"))?;
            i.compare(autograph_pylang::ast::CmpOp::Eq, x, b)
        }),
        "not_eq_" => builtin("not_eq_", |i, mut a, _| {
            let b = a
                .pop()
                .ok_or_else(|| RuntimeError::new("ag.not_eq_(a, b)"))?;
            let x = a
                .pop()
                .ok_or_else(|| RuntimeError::new("ag.not_eq_(a, b)"))?;
            i.compare(autograph_pylang::ast::CmpOp::NotEq, x, b)
        }),
        "list_append" => builtin("list_append", |i, mut a, _| {
            if a.len() != 2 {
                return Err(RuntimeError::new("ag.list_append(list, value)"));
            }
            let x = a.pop().expect("len");
            let l = a.pop().expect("len");
            list_append_impl(i, l, x)
        }),
        "list_pop" => builtin("list_pop", |i, mut a, _| {
            let l = a
                .pop()
                .ok_or_else(|| RuntimeError::new("ag.list_pop(list)"))?;
            list_pop_impl(i, l)
        }),
        "stack" => builtin("stack", |i, mut a, _| {
            let l = a
                .drain(..)
                .next()
                .ok_or_else(|| RuntimeError::new("ag.stack(list)"))?;
            stack_impl(i, l)
        }),
        "setitem" => builtin("setitem", |i, mut a, _| {
            if a.len() != 3 {
                return Err(RuntimeError::new("ag.setitem(x, i, v)"));
            }
            let v = a.pop().expect("len");
            let idx = a.pop().expect("len");
            let x = a.pop().expect("len");
            setitem_impl(i, x, idx, v)
        }),
        "undefined" => builtin("undefined", |_, mut a, _| {
            let name = match a.pop() {
                Some(Value::Str(s)) => (*s).clone(),
                _ => "<unknown>".to_string(),
            };
            Ok(Value::Undefined(Rc::new(name)))
        }),
        "assert_stmt" => builtin("assert_stmt", |i, mut a, _| {
            let msg = a.pop().unwrap_or(Value::None);
            let cond = a
                .pop()
                .ok_or_else(|| RuntimeError::new("ag.assert_stmt(cond, msg)"))?;
            let text = match &msg {
                Value::None => "assertion failed".to_string(),
                m => m.render(),
            };
            match &cond {
                Value::GraphNode { .. } => i.graph_op(OpKind::AssertOp(text), &[cond]),
                other => {
                    if !other.truthy()? {
                        return Err(RuntimeError::new(text));
                    }
                    Ok(Value::None)
                }
            }
        }),
        "print_" => builtin("print_", |i, a, _| {
            if a.len() == 1 && matches!(a[0], Value::GraphNode { .. }) {
                return i.graph_op(OpKind::Print(String::new()), &[a[0].clone()]);
            }
            let rendered: Vec<String> = a.iter().map(Value::render).collect();
            println!("{}", rendered.join(" "));
            Ok(Value::None)
        }),
        "len_" => builtin("len_", |i, mut a, _| {
            let v = a.pop().ok_or_else(|| RuntimeError::new("ag.len_(x)"))?;
            match &v {
                Value::List(l) => Ok(Value::Int(l.borrow().len() as i64)),
                Value::Tuple(t) => Ok(Value::Int(t.len() as i64)),
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                Value::Range { start, stop, step } => {
                    let n = if *step > 0 {
                        (stop - start).max(0) / step + i64::from((stop - start).max(0) % step != 0)
                    } else {
                        (start - stop).max(0) / (-step)
                            + i64::from((start - stop).max(0) % (-step) != 0)
                    };
                    Ok(Value::Int(n))
                }
                Value::Tensor(t) => {
                    let t = t.tensor();
                    if t.rank() == 0 {
                        return Err(RuntimeError::new("len() of a scalar tensor"));
                    }
                    Ok(Value::Int(t.shape()[0] as i64))
                }
                Value::GraphNode { .. } => {
                    let shape = i.graph_op(OpKind::Shape, &[v])?;
                    let zero = Value::Int(0);
                    i.graph_op(OpKind::IndexAxis0, &[shape, zero])
                }
                other => Err(RuntimeError::new(format!(
                    "object of type {} has no len()",
                    other.kind()
                ))),
            }
        }),
        "range_" => builtin("range_", |i, a, _| {
            if a.iter().any(Value::is_staged) {
                if a.len() != 1 {
                    return Err(RuntimeError::new(
                        "staged range() supports a single limit argument",
                    ));
                }
                return i.graph_op(OpKind::Range, &[a[0].clone()]);
            }
            let ints: Vec<i64> = a.iter().map(Value::as_int).collect::<Result<_>>()?;
            let (start, stop, step) = match ints.as_slice() {
                [stop] => (0, *stop, 1),
                [start, stop] => (*start, *stop, 1),
                [start, stop, step] => (*start, *stop, *step),
                _ => return Err(RuntimeError::new("range expects 1-3 arguments")),
            };
            if step == 0 {
                return Err(RuntimeError::new("range() step must not be zero"));
            }
            Ok(Value::Range { start, stop, step })
        }),
        "int_" => builtin("int_", |i, mut a, _| {
            let v = a.pop().ok_or_else(|| RuntimeError::new("int(x)"))?;
            match &v {
                Value::Int(x) => Ok(Value::Int(*x)),
                Value::Float(f) => Ok(Value::Int(*f as i64)),
                Value::Bool(b) => Ok(Value::Int(*b as i64)),
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| RuntimeError::new(format!("invalid int literal: '{s}'"))),
                Value::Tensor(t) => Ok(Value::Int(t.tensor().scalar_value_i64()?)),
                Value::GraphNode { .. } => {
                    i.graph_op(OpKind::Cast(autograph_tensor::DType::I64), &[v])
                }
                other => Err(RuntimeError::new(format!(
                    "int() argument must be numeric, not {}",
                    other.kind()
                ))),
            }
        }),
        "float_" => builtin("float_", |i, mut a, _| {
            let v = a.pop().ok_or_else(|| RuntimeError::new("float(x)"))?;
            match &v {
                Value::GraphNode { .. } => {
                    i.graph_op(OpKind::Cast(autograph_tensor::DType::F32), &[v])
                }
                Value::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| RuntimeError::new(format!("invalid float literal: '{s}'"))),
                other => Ok(Value::Float(other.as_float()?)),
            }
        }),
        "abs_" => builtin("abs_", |i, mut a, _| {
            let v = a.pop().ok_or_else(|| RuntimeError::new("abs(x)"))?;
            match &v {
                Value::Int(x) => Ok(Value::Int(x.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                Value::Tensor(t) => Ok(Value::Tensor(i.eager.op("abs", &[t])?)),
                Value::GraphNode { .. } => i.graph_op(OpKind::Abs, &[v]),
                other => Err(RuntimeError::new(format!(
                    "bad operand for abs(): {}",
                    other.kind()
                ))),
            }
        }),
        "min_" => builtin("min_", |_, a, _| reduce_py(a, true)),
        "max_" => builtin("max_", |_, a, _| reduce_py(a, false)),
        "set_element_type" => builtin("set_element_type", |_, _, _| Ok(Value::None)),
        "set_loop_options" => builtin("set_loop_options", |i, _, kwargs| {
            if let Some((_, v)) = kwargs.iter().find(|(k, _)| k == "max_iterations") {
                i.pending_loop_options = Some(v.as_int()?.max(0) as u64);
            }
            Ok(Value::None)
        }),
        "autograph_artifact" => builtin("autograph_artifact", |_, mut a, _| {
            Ok(a.pop().unwrap_or(Value::None))
        }),
        _ => return None,
    })
}

fn reduce_py(args: Args, min: bool) -> Result<Value> {
    let items: Vec<Value> = if args.len() == 1 {
        match &args[0] {
            Value::List(l) => l.borrow().clone(),
            Value::Tuple(t) => (**t).clone(),
            _ => args,
        }
    } else {
        args
    };
    if items.is_empty() {
        return Err(RuntimeError::new("min()/max() of empty sequence"));
    }
    let mut best = items[0].as_float()?;
    let mut best_i = 0;
    for (i, v) in items.iter().enumerate().skip(1) {
        let f = v.as_float()?;
        if (min && f < best) || (!min && f > best) {
            best = f;
            best_i = i;
        }
    }
    Ok(items[best_i].clone())
}

// ---- control flow: dynamic dispatch ---------------------------------------

/// Call a stored function value with positional args.
fn call(i: &mut Interp, f: &Value, args: Vec<Value>) -> Result<Value> {
    i.call_value(f.clone(), args, Vec::new())
}

/// Flatten a branch/body result into individual values (None → 0 outputs,
/// tuple → n outputs, anything else → 1 output).
fn flatten_result(v: &Value) -> Vec<Value> {
    match v {
        Value::None => Vec::new(),
        Value::Tuple(items) => (**items).clone(),
        single => vec![single.clone()],
    }
}

/// Rebuild a result with the same structure from replacement values.
fn rebuild_result(template: &Value, values: Vec<Value>) -> Value {
    match template {
        Value::None => Value::None,
        Value::Tuple(_) => Value::tuple(values),
        _ => values.into_iter().next().unwrap_or(Value::None),
    }
}

/// The conditional operator (Listing 2).
pub(crate) fn if_stmt_impl(
    i: &mut Interp,
    cond: Value,
    true_fn: Value,
    false_fn: Value,
) -> Result<Value> {
    match &cond {
        Value::GraphNode { .. } => staged_cond(i, cond, true_fn, false_fn),
        Value::Lantern(_) => lantern_cond(i, cond, true_fn, false_fn),
        other => {
            if other.truthy()? {
                call(i, &true_fn, vec![])
            } else {
                call(i, &false_fn, vec![])
            }
        }
    }
}

fn staged_cond(i: &mut Interp, cond: Value, true_fn: Value, false_fn: Value) -> Result<Value> {
    // stage then-branch
    {
        let Stage::Graph(stage) = &mut i.stage else {
            return Err(RuntimeError::new("graph staging inactive"));
        };
        stage.push_layer(0);
    }
    let t_result = call(i, &true_fn, vec![])?;
    let t_values = flatten_result(&t_result);
    let mut t_nodes = Vec::with_capacity(t_values.len());
    for v in &t_values {
        t_nodes.push(i.graph_node_for(v)?);
    }
    let (mut then_g, caps1) = {
        let Stage::Graph(stage) = &mut i.stage else {
            unreachable!()
        };
        stage.pop_layer(t_nodes)
    };

    // stage else-branch, pre-seeded with then's captures
    {
        let Stage::Graph(stage) = &mut i.stage else {
            unreachable!()
        };
        stage.push_layer_with_captures(0, &caps1);
    }
    let f_result = call(i, &false_fn, vec![])?;
    let f_values = flatten_result(&f_result);
    let mut f_nodes = Vec::with_capacity(f_values.len());
    for v in &f_values {
        f_nodes.push(i.graph_node_for(v)?);
    }
    let (else_g, caps_all) = {
        let Stage::Graph(stage) = &mut i.stage else {
            unreachable!()
        };
        stage.pop_layer(f_nodes)
    };

    if t_values.len() != f_values.len() {
        return Err(RuntimeError::new(format!(
            "staged conditional branches must produce the same number of values \
             ({} vs {}); all code paths must initialize the same variables",
            t_values.len(),
            f_values.len()
        )));
    }
    then_g.num_params = caps_all.len();

    // cond node inputs: predicate + resolved captures
    let n_outputs = t_values.len();
    let mut inputs = vec![i.graph_node_for(&cond)?];
    {
        let Stage::Graph(stage) = &mut i.stage else {
            unreachable!()
        };
        for (e, id) in &caps_all {
            inputs.push(stage.resolve(*e, *id)?);
        }
        let (epoch, node) = stage.add(OpKind::Cond { then_g, else_g }, inputs);
        match n_outputs {
            0 => Ok(Value::None),
            1 => Ok(Value::GraphNode { epoch, id: node }),
            n => {
                let mut outs = Vec::with_capacity(n);
                for k in 0..n {
                    let id = stage.add(OpKind::TupleGet(k), vec![node]).1;
                    outs.push(Value::GraphNode { epoch, id });
                }
                Ok(rebuild_result(&t_result, outs))
            }
        }
    }
}

fn lantern_cond(i: &mut Interp, cond: Value, true_fn: Value, false_fn: Value) -> Result<Value> {
    let cond_sexpr = i.to_lantern_sexpr(&cond)?;
    let stage_frame = |i: &mut Interp| {
        if let Stage::Lantern(s) = &mut i.stage {
            s.push_frame();
        }
    };
    let unframe = |i: &mut Interp, body: SExpr| -> SExpr {
        if let Stage::Lantern(s) = &mut i.stage {
            s.pop_frame(body)
        } else {
            body
        }
    };
    stage_frame(i);
    let t = call(i, &true_fn, vec![])?;
    // a branch that modifies no variables returns None (matching the
    // graph path's zero-output Cond); Lantern is pure, so a conditional
    // with no outputs stages to nothing at all
    let t_none = matches!(t, Value::None);
    let t_sexpr = if t_none {
        SExpr::Num(0.0)
    } else {
        i.to_lantern_sexpr(&t)?
    };
    let t_sexpr = unframe(i, t_sexpr);
    stage_frame(i);
    let f = call(i, &false_fn, vec![])?;
    let f_none = matches!(f, Value::None);
    let f_sexpr = if f_none {
        SExpr::Num(0.0)
    } else {
        i.to_lantern_sexpr(&f)?
    };
    let f_sexpr = unframe(i, f_sexpr);
    if t_none != f_none {
        return Err(RuntimeError::new(
            "staged conditional branches must produce the same number of values; \
             all code paths must initialize the same variables",
        ));
    }
    if t_none {
        return Ok(Value::None);
    }
    Ok(Value::Lantern(Rc::new(SExpr::list(vec![
        SExpr::sym("if"),
        cond_sexpr,
        t_sexpr,
        f_sexpr,
    ]))))
}

/// The while operator.
pub(crate) fn while_stmt_impl(
    i: &mut Interp,
    test_fn: Value,
    body_fn: Value,
    init: Value,
) -> Result<Value> {
    let state: Vec<Value> = match &init {
        Value::Tuple(items) => (**items).clone(),
        other => vec![other.clone()],
    };
    // Dispatch on the condition-closure types (Table 4): the loop stages
    // when the first test result OR any loop-state value is staged (a
    // state variable may only become tensor-dependent inside the body,
    // e.g. a lowered `break` guard flipped by a staged conditional).
    let first = call(i, &test_fn, state.clone())?;
    if matches!(i.stage, Stage::Graph(_))
        && (first.is_staged() || state.iter().any(Value::is_staged))
    {
        return staged_while(i, &test_fn, &body_fn, &init, state);
    }
    match &first {
        Value::GraphNode { .. } => staged_while(i, &test_fn, &body_fn, &init, state),
        Value::Lantern(_) => Err(RuntimeError::new(
            "the lantern backend stages loops as recursion; rewrite this loop as a \
             recursive function (§8)",
        )),
        other => {
            let mut keep = other.truthy()?;
            let mut state = state;
            let n = state.len();
            // an ag.set_loop_options inside an imperative loop body applies
            // to nothing staged; consume it so it cannot leak into a later
            // staged loop
            while keep {
                let out = call(i, &body_fn, state.clone())?;
                state = match out {
                    Value::Tuple(items) if items.len() == n => (*items).clone(),
                    other if n == 1 => vec![other],
                    other => {
                        return Err(RuntimeError::new(format!(
                            "loop body must return {n} state values, got {}",
                            other.kind()
                        )))
                    }
                };
                keep = call(i, &test_fn, state.clone())?.truthy()?;
            }
            i.pending_loop_options = None;
            Ok(rebuild_result(&init, state))
        }
    }
}

fn staged_while(
    i: &mut Interp,
    test_fn: &Value,
    body_fn: &Value,
    init: &Value,
    state: Vec<Value>,
) -> Result<Value> {
    let k = state.len();

    // condition subgraph
    let cond_params = {
        let Stage::Graph(stage) = &mut i.stage else {
            return Err(RuntimeError::new("graph staging inactive"));
        };
        stage.push_layer(k)
    };
    let param_values: Vec<Value> = cond_params
        .iter()
        .map(|(e, id)| Value::GraphNode { epoch: *e, id: *id })
        .collect();
    let test_out = call(i, test_fn, param_values)?;
    let test_node = i.graph_node_for(&test_out)?;
    let (mut cond_g, caps_c) = {
        let Stage::Graph(stage) = &mut i.stage else {
            unreachable!()
        };
        stage.pop_layer(vec![test_node])
    };

    // body subgraph (captures pre-seeded with the condition's)
    let body_params = {
        let Stage::Graph(stage) = &mut i.stage else {
            unreachable!()
        };
        stage.push_layer_with_captures(k, &caps_c)
    };
    let param_values: Vec<Value> = body_params
        .iter()
        .map(|(e, id)| Value::GraphNode { epoch: *e, id: *id })
        .collect();
    let body_out = call(i, body_fn, param_values)?;
    let body_values = flatten_result(&body_out);
    if body_values.len() != k {
        return Err(RuntimeError::new(format!(
            "staged loop body must return {k} state values, got {}",
            body_values.len()
        )));
    }
    let mut out_nodes = Vec::with_capacity(k);
    for v in &body_values {
        out_nodes.push(i.graph_node_for(v)?);
    }
    let (body_g, caps_all, passthrough) = {
        let Stage::Graph(stage) = &mut i.stage else {
            unreachable!()
        };
        let passthrough = stage.capture_param_nodes();
        let mut outputs = out_nodes;
        outputs.extend(passthrough.iter().copied());
        let (g, caps) = stage.pop_layer(outputs);
        (g, caps, passthrough)
    };
    let _ = passthrough;
    cond_g.num_params = k + caps_all.len();
    let max_iters = i.pending_loop_options.take();

    // While node: initial state + resolved captures
    let mut inputs = Vec::with_capacity(k + caps_all.len());
    for v in &state {
        inputs.push(i.graph_node_for(v)?);
    }
    {
        let Stage::Graph(stage) = &mut i.stage else {
            unreachable!()
        };
        for (e, id) in &caps_all {
            inputs.push(stage.resolve(*e, *id)?);
        }
        let (epoch, node) = stage.add(
            OpKind::While {
                cond_g,
                body_g,
                max_iters,
            },
            inputs,
        );
        let mut outs = Vec::with_capacity(k);
        for idx in 0..k {
            let id = stage.add(OpKind::TupleGet(idx), vec![node]).1;
            outs.push(Value::GraphNode { epoch, id });
        }
        Ok(rebuild_result(init, outs))
    }
}

/// The for operator.
pub(crate) fn for_stmt_impl(
    i: &mut Interp,
    iter: Value,
    body_fn: Value,
    init: Value,
) -> Result<Value> {
    let state: Vec<Value> = match &init {
        Value::Tuple(items) => (**items).clone(),
        other => vec![other.clone()],
    };
    match &iter {
        Value::GraphNode { .. } => staged_for(i, iter, &body_fn, &init, state),
        Value::Lantern(_) => Err(RuntimeError::new(
            "the lantern backend stages loops as recursion; rewrite this loop as a \
             recursive function (§8)",
        )),
        _ => {
            let items = i.iterate(&iter)?;
            let mut state = state;
            let n = state.len();
            for item in items {
                let mut args = vec![item];
                args.extend(state.iter().cloned());
                let out = call(i, &body_fn, args)?;
                state = match out {
                    Value::Tuple(items) if items.len() == n => (*items).clone(),
                    other if n == 1 => vec![other],
                    other => {
                        return Err(RuntimeError::new(format!(
                            "loop body must return {n} state values, got {}",
                            other.kind()
                        )))
                    }
                };
            }
            i.pending_loop_options = None;
            Ok(rebuild_result(&init, state))
        }
    }
}

/// Staged `for` over a 1-D tensor: lowered to a staged while with an index
/// counter, exactly like `tf.while_loop`-based `dynamic_rnn` (Appendix A).
fn staged_for(
    i: &mut Interp,
    iter: Value,
    body_fn: &Value,
    init: &Value,
    state: Vec<Value>,
) -> Result<Value> {
    let k = state.len();

    // condition subgraph: params [idx, state...]; idx < len(iter)
    let (cond_g, caps_c) = {
        let cond_params = {
            let Stage::Graph(stage) = &mut i.stage else {
                return Err(RuntimeError::new("graph staging inactive"));
            };
            stage.push_layer(k + 1)
        };
        let idx = Value::GraphNode {
            epoch: cond_params[0].0,
            id: cond_params[0].1,
        };
        let shape = i.graph_op(OpKind::Shape, std::slice::from_ref(&iter))?;
        let len = i.graph_op(OpKind::IndexAxis0, &[shape, Value::Int(0)])?;
        let lt = i.graph_op(OpKind::Less, &[idx, len])?;
        let lt_node = i.graph_node_for(&lt)?;
        let Stage::Graph(stage) = &mut i.stage else {
            unreachable!()
        };
        stage.pop_layer(vec![lt_node])
    };

    // body subgraph
    let body_params = {
        let Stage::Graph(stage) = &mut i.stage else {
            unreachable!()
        };
        stage.push_layer_with_captures(k + 1, &caps_c)
    };
    let idx_val = Value::GraphNode {
        epoch: body_params[0].0,
        id: body_params[0].1,
    };
    let target = i.graph_op(OpKind::IndexAxis0, &[iter.clone(), idx_val.clone()])?;
    let mut args = vec![target];
    args.extend(
        body_params[1..]
            .iter()
            .map(|(e, id)| Value::GraphNode { epoch: *e, id: *id }),
    );
    let body_out = call(i, body_fn, args)?;
    let body_values = flatten_result(&body_out);
    if body_values.len() != k {
        return Err(RuntimeError::new(format!(
            "staged loop body must return {k} state values, got {}",
            body_values.len()
        )));
    }
    let next_idx = i.binop(autograph_pylang::ast::BinOp::Add, idx_val, Value::Int(1))?;
    let mut out_nodes = vec![i.graph_node_for(&next_idx)?];
    for v in &body_values {
        out_nodes.push(i.graph_node_for(v)?);
    }
    let (body_g, caps_all) = {
        let Stage::Graph(stage) = &mut i.stage else {
            unreachable!()
        };
        let passthrough = stage.capture_param_nodes();
        out_nodes.extend(passthrough);
        stage.pop_layer(out_nodes)
    };
    let mut cond_g = cond_g;
    cond_g.num_params = k + 1 + caps_all.len();
    let max_iters = i.pending_loop_options.take();

    // While node inputs: idx=0, state inits, captures
    let mut inputs = vec![];
    {
        let zero = Value::Int(0);
        inputs.push(i.graph_node_for(&zero)?);
    }
    for v in &state {
        inputs.push(i.graph_node_for(v)?);
    }
    {
        let Stage::Graph(stage) = &mut i.stage else {
            unreachable!()
        };
        for (e, id) in &caps_all {
            inputs.push(stage.resolve(*e, *id)?);
        }
        let (epoch, node) = stage.add(
            OpKind::While {
                cond_g,
                body_g,
                max_iters,
            },
            inputs,
        );
        let mut outs = Vec::with_capacity(k);
        for idx in 0..k {
            let id = stage.add(OpKind::TupleGet(idx + 1), vec![node]).1;
            outs.push(Value::GraphNode { epoch, id });
        }
        Ok(rebuild_result(init, outs))
    }
}

// ---- logical ----------------------------------------------------------------

/// Lazy `and`/`or`: `args = [a, thunk_b]`.
fn logical_lazy(i: &mut Interp, mut args: Args, is_and: bool) -> Result<Value> {
    if args.len() != 2 {
        return Err(RuntimeError::new("ag.and_/or_(a, lambda: b)"));
    }
    let thunk = args.pop().expect("len");
    let a = args.pop().expect("len");
    match &a {
        Value::GraphNode { .. } => {
            // staged: strict evaluation of the second operand (the paper
            // lowers through tf.cond; our kernel is strict — documented)
            let b = call(i, &thunk, vec![])?;
            let op = if is_and {
                OpKind::LogicalAnd
            } else {
                OpKind::LogicalOr
            };
            i.graph_op(op, &[a, b])
        }
        Value::Lantern(e) => {
            let b = call(i, &thunk, vec![])?;
            let b_sexpr = i.to_lantern_sexpr(&b)?;
            Ok(i.lantern_expr(
                if is_and { "and" } else { "or" },
                vec![(**e).clone(), b_sexpr],
            ))
        }
        other => {
            // Python lazy boolean semantics: return the deciding operand
            let t = other.truthy()?;
            if t == is_and {
                call(i, &thunk, vec![])
            } else {
                Ok(a)
            }
        }
    }
}

// ---- lists -------------------------------------------------------------------

fn list_append_impl(i: &mut Interp, l: Value, x: Value) -> Result<Value> {
    match (&l, &x) {
        (Value::List(items), x) if !x.is_staged() => {
            items.borrow_mut().push(x.clone());
            Ok(l)
        }
        (Value::List(_), _) => {
            // a Python list receiving a staged element becomes a staged list
            let arr = i.graph_node_for(&l)?;
            let stage_epoch = match &i.stage {
                Stage::Graph(g) => g.top_epoch(),
                _ => unreachable!("graph_node_for checked"),
            };
            let arr_v = Value::GraphNode {
                epoch: stage_epoch,
                id: arr,
            };
            i.graph_op(OpKind::ArrayPush, &[arr_v, x])
        }
        (Value::GraphNode { .. }, _) => i.graph_op(OpKind::ArrayPush, &[l, x]),
        (other, _) => Err(RuntimeError::new(format!(
            "cannot append to {}",
            other.kind()
        ))),
    }
}

fn list_pop_impl(i: &mut Interp, l: Value) -> Result<Value> {
    match &l {
        Value::List(items) => {
            let v = items
                .borrow_mut()
                .pop()
                .ok_or_else(|| RuntimeError::new("pop from empty list"))?;
            Ok(Value::tuple(vec![l, v]))
        }
        Value::GraphNode { .. } => {
            let pair = i.graph_op(OpKind::ArrayPop, &[l])?;
            let rest = i.graph_op(OpKind::TupleGet(0), std::slice::from_ref(&pair))?;
            let item = i.graph_op(OpKind::TupleGet(1), &[pair])?;
            Ok(Value::tuple(vec![rest, item]))
        }
        other => Err(RuntimeError::new(format!(
            "cannot pop from {}",
            other.kind()
        ))),
    }
}

fn stack_impl(i: &mut Interp, l: Value) -> Result<Value> {
    match &l {
        Value::List(items) => {
            let items = items.borrow().clone();
            if items.is_empty() {
                return Err(RuntimeError::new("ag.stack of an empty list"));
            }
            if items.iter().any(Value::is_staged) {
                return i.graph_op(OpKind::StackOp, &items);
            }
            let ts: Vec<autograph_tensor::Tensor> = items
                .iter()
                .map(|v| v.as_eager_tensor())
                .collect::<Result<_>>()?;
            Ok(Value::tensor(autograph_tensor::Tensor::stack(&ts)?))
        }
        Value::GraphNode { .. } => i.graph_op(OpKind::ArrayStack, &[l]),
        other => Err(RuntimeError::new(format!("cannot stack {}", other.kind()))),
    }
}

fn setitem_impl(i: &mut Interp, x: Value, idx: Value, v: Value) -> Result<Value> {
    match &x {
        Value::List(items) => {
            let pos = idx.as_int()?;
            let mut items_mut = items.borrow_mut();
            let len = items_mut.len() as i64;
            let p = if pos < 0 { pos + len } else { pos };
            if p < 0 || p >= len {
                return Err(RuntimeError::new(format!(
                    "list assignment index {pos} out of range"
                )));
            }
            items_mut[p as usize] = v;
            drop(items_mut);
            Ok(x)
        }
        Value::Tensor(t) => {
            let pos = idx.as_int()?;
            Ok(Value::tensor(
                t.tensor().set_index_axis0(pos, &v.as_eager_tensor()?)?,
            ))
        }
        Value::GraphNode { .. } => i.graph_op(OpKind::SetItemAxis0, &[x, idx, v]),
        other => Err(RuntimeError::new(format!(
            "cannot set item on {}",
            other.kind()
        ))),
    }
}

// ---- converted_call ---------------------------------------------------------

/// `ag.converted_call` (§7.2 Function Calls): dynamically convert the
/// target, call it as-is, or stage it, depending on its characteristics.
pub(crate) fn converted_call_impl(
    i: &mut Interp,
    callee: Value,
    args: Args,
    kwargs: Kwargs,
) -> Result<Value> {
    match callee {
        Value::Builtin(b) => (b.func)(i, args, kwargs),
        Value::Function(f) => {
            // Lantern: a user-function call with staged args becomes a
            // staged function definition + `(call f ...)` — including
            // recursion (§8).
            let lantern_staged = matches!(i.stage, Stage::Lantern(_))
                && args.iter().any(|a| matches!(a, Value::Lantern(_)));
            if lantern_staged {
                return lantern_staged_call(i, &f, args, kwargs);
            }
            let target = ensure_converted(i, &f)?;
            i.call_function(&target, args, kwargs)
        }
        other => Err(RuntimeError::new(format!(
            "{} is not callable",
            other.kind()
        ))),
    }
}

/// Convert a user function at runtime (recursive mode), caching by
/// function identity.
pub(crate) fn ensure_converted(i: &mut Interp, f: &Rc<PyFunction>) -> Result<Rc<PyFunction>> {
    if f.is_artifact {
        return Ok(f.clone());
    }
    let key = Rc::as_ptr(f) as usize;
    if let Some(c) = i.conversion_cache.get(&key) {
        return Ok(c.clone());
    }
    // Rebuild a module holding just this function and convert it.
    let fdef = autograph_pylang::ast::Stmt::synthetic(StmtKind::FunctionDef {
        name: f.name.clone(),
        params: f.params.clone(),
        body: (*f.body).clone(),
        decorators: vec![],
    });
    let module = Module { body: vec![fdef] };
    let converted = autograph_transforms::convert_module(module, &i.config.clone())?;
    // Under FallbackToEager an unconvertible function comes back verbatim
    // with a warning; marking it as an artifact below caches the decision
    // and lets it run op-by-op in the eager interpreter.
    match i.source.clone() {
        Some(src) => i
            .conversion_warnings
            .extend(converted.warnings.into_iter().map(|w| w.with_source(&src))),
        None => i.conversion_warnings.extend(converted.warnings),
    }
    let body = match converted.module.body.into_iter().next() {
        Some(autograph_pylang::ast::Stmt {
            kind: StmtKind::FunctionDef { body, .. },
            ..
        }) => body,
        _ => return Err(RuntimeError::new("conversion lost the function definition")),
    };
    let new_f = Rc::new(PyFunction {
        name: f.name.clone(),
        def_span: f.def_span,
        params: f.params.clone(),
        body: Rc::new(body),
        closure: f.closure.clone(),
        is_artifact: true,
        defaults: f.defaults.clone(),
    });
    i.conversion_cache.insert(key, new_f.clone());
    // the converted artifact calls itself through converted_call; map its
    // own identity too so recursion does not re-convert
    i.conversion_cache
        .insert(Rc::as_ptr(&new_f) as usize, new_f.clone());
    Ok(new_f)
}

/// Stage a user-function call into the Lantern IR (`__def_staged` /
/// `__call_staged` of §8).
fn lantern_staged_call(
    i: &mut Interp,
    f: &Rc<PyFunction>,
    args: Args,
    kwargs: Kwargs,
) -> Result<Value> {
    if !kwargs.is_empty() {
        return Err(RuntimeError::new(
            "keyword arguments are not supported in staged lantern calls",
        ));
    }
    let target = ensure_converted(i, f)?;
    // staged name keyed on the ORIGINAL function identity
    let key = Rc::as_ptr(f) as usize;
    let key2 = Rc::as_ptr(&target) as usize;

    let existing = match &mut i.stage {
        Stage::Lantern(s) => s.staged.get(&key).cloned(),
        _ => return Err(RuntimeError::new("lantern staging inactive")),
    };
    let name = match existing {
        Some(name) => name,
        None => {
            // register before staging the body so recursion resolves
            let name = {
                let Stage::Lantern(s) = &mut i.stage else {
                    unreachable!()
                };
                let name = s.fresh(&f.name);
                s.staged.insert(key, name.clone());
                s.staged.insert(key2, name.clone());
                s.push_frame();
                name
            };
            // bind params symbolically and interpret the body once
            let sym_args: Vec<Value> = target
                .params
                .iter()
                .map(|p| Value::Lantern(Rc::new(SExpr::sym(p.name.clone()))))
                .collect();
            let result = i.call_function(&target, sym_args, vec![])?;
            let body_sexpr = i.to_lantern_sexpr(&result)?;
            let Stage::Lantern(s) = &mut i.stage else {
                unreachable!()
            };
            let body_sexpr = s.pop_frame(body_sexpr);
            let params = SExpr::list(
                target
                    .params
                    .iter()
                    .map(|p| SExpr::sym(p.name.clone()))
                    .collect(),
            );
            s.defs.push(SExpr::list(vec![
                SExpr::sym("def"),
                SExpr::sym(name.clone()),
                params,
                body_sexpr,
            ]));
            name
        }
    };
    // emit (call name args...)
    let mut items = vec![SExpr::sym("call"), SExpr::sym(name)];
    for a in &args {
        items.push(i.to_lantern_sexpr(a)?);
    }
    Ok(Value::Lantern(Rc::new(SExpr::list(items))))
}
