//! The `ag.*` operator namespace — the overloadable functional forms that
//! converted code calls, each implementing the paper's **dynamic dispatch**
//! (Listing 2): Python operands execute imperatively; staged operands
//! lower the construct into the active IR.

use crate::interp::{Interp, Stage};
use crate::tf_api::{self, take, Row};
use crate::value::{Builtin, PyFunction, Value};
use crate::{Result, RuntimeError};
use autograph_graph::ir::{NodeId, Op, OpKind, SubGraph};
use autograph_lantern::sexpr::SExpr;
use autograph_pylang::ast::{BinOp, CmpOp, Module, StmtKind};
use std::ops::Range;
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
        "if_stmt" => builtin("if_stmt", |i, a, _| {
            let [cond, true_fn, false_fn] = take(a)?;
            if_stmt_impl(i, cond, true_fn, false_fn)
        }),
        "while_stmt" => builtin("while_stmt", |i, a, _| {
            let [test, body, init] = take(a)?;
            while_stmt_impl(i, test, body, init)
        }),
        "for_stmt" => builtin("for_stmt", |i, a, _| {
            let [iter, body, init] = take(a)?;
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
        "not_" => builtin("not_", |i, a, _| {
            let [v] = take(a)?;
            let bool_tensor = matches!(&v, Value::Tensor(t) if t.tensor().dtype() == autograph_tensor::DType::Bool);
            if v.is_staged() || bool_tensor {
                return staged_logic(i, &tf_api::LOGICAL_NOT, "not", &[v]);
            }
            Ok(Value::Bool(!v.truthy()?))
        }),
        "eq_" => builtin("eq_", |i, a, _| {
            let [x, y] = take(a)?;
            i.compare(CmpOp::Eq, x, y)
        }),
        "not_eq_" => builtin("not_eq_", |i, a, _| {
            let [x, y] = take(a)?;
            i.compare(CmpOp::NotEq, x, y)
        }),
        "list_append" => builtin("list_append", |i, a, _| {
            let [l, x] = take(a)?;
            list_append_impl(i, l, x)
        }),
        "list_pop" => builtin("list_pop", |i, a, _| {
            let [l] = take(a)?;
            list_pop_impl(i, l)
        }),
        "stack" => builtin("stack", |i, a, _| {
            let [l] = take(a)?;
            stack_impl(i, l)
        }),
        "setitem" => builtin("setitem", |i, a, _| {
            let [x, idx, v] = take(a)?;
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
        "print_" => builtin("print_", |i, a, _| tf_api::print(i, a, "")),
        "len_" => builtin("len_", |i, a, _| {
            let [v] = take(a)?;
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
                    let shape = i.graph_op(Op::Shape, &[v])?;
                    let zero = Value::Int(0);
                    i.graph_op(Op::IndexAxis0, &[shape, zero])
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
                return i.graph_op(Op::Range, &[a[0].clone()]);
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
        "int_" => builtin("int_", |i, a, _| {
            let [v] = take(a)?;
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
                Value::GraphNode { .. } => i.graph_op(Op::Cast(autograph_tensor::DType::I64), &[v]),
                other => Err(RuntimeError::new(format!(
                    "int() argument must be numeric, not {}",
                    other.kind()
                ))),
            }
        }),
        "float_" => builtin("float_", |i, a, _| {
            let [v] = take(a)?;
            match &v {
                Value::GraphNode { .. } => i.graph_op(Op::Cast(autograph_tensor::DType::F32), &[v]),
                Value::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| RuntimeError::new(format!("invalid float literal: '{s}'"))),
                other => Ok(Value::Float(other.as_float()?)),
            }
        }),
        "abs_" => builtin("abs_", |i, a, _| {
            let [v] = take(a)?;
            match v {
                Value::Int(x) => Ok(Value::Int(x.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                v if v.is_tensor_like() => i.apply(&tf_api::ABS, &[v]),
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
        Value::Lantern(_) => lantern_cond(i, &cond, &true_fn, &false_fn),
        other => {
            let branch = if other.truthy()? { &true_fn } else { &false_fn };
            call(i, branch, vec![])
        }
    }
}

fn staged_cond(i: &mut Interp, cond: Value, true_fn: Value, false_fn: Value) -> Result<Value> {
    let mut template = Value::None;
    let (node, outs) = staged_pair(
        i,
        None,
        |i, _| {
            template = call(i, &true_fn, vec![])?;
            Ok(flatten_result(&template))
        },
        |i, _| Ok(flatten_result(&call(i, &false_fn, vec![])?)),
        |_, then_g, else_g| {
            let (t, f) = (then_g.outputs.len(), else_g.outputs.len());
            if t != f {
                return Err(RuntimeError::new(format!(
                    "staged conditional branches must produce the same number of values \
                     ({t} vs {f}); all code paths must initialize the same variables"
                )));
            }
            // a single output is the Cond node itself
            Ok((
                OpKind::Cond { then_g, else_g },
                if t > 1 { 0..t } else { 0..0 },
            ))
        },
        &[cond],
    )?;
    Ok(match flatten_result(&template).len() {
        0 => Value::None,
        1 => node,
        _ => rebuild_result(&template, outs),
    })
}

/// The one staged lowering of `cond`, `while` and `for` (Listing 2): stage
/// two sibling subgraphs on one capture list — a conditional's branches
/// (`loop_state: None`), or a loop's condition and body over
/// `loop_state` `Param`s — then add the node `make` builds from them, over
/// the `leading` inputs plus the resolved captures, and project the
/// `TupleGet`s `make` names. A loop body passes its captures through
/// unchanged, so they stay loop-invariant.
#[allow(clippy::type_complexity)]
fn staged_pair(
    i: &mut Interp,
    loop_state: Option<usize>,
    first: impl FnOnce(&mut Interp, Vec<Value>) -> Result<Vec<Value>>,
    second: impl FnOnce(&mut Interp, Vec<Value>) -> Result<Vec<Value>>,
    make: impl FnOnce(&mut Interp, SubGraph, SubGraph) -> Result<(OpKind, Range<usize>)>,
    leading: &[Value],
) -> Result<(Value, Vec<Value>)> {
    let n = loop_state.unwrap_or(0);
    let params = i.graph_stage()?.push_layer(n);
    let outs = first(i, node_values(&params))?;
    let nodes = graph_nodes(i, &outs)?;
    let (mut first_g, caps) = i.graph_stage()?.pop_layer(nodes)?;

    let params = i.graph_stage()?.push_layer_with_captures(n, &caps);
    let outs = second(i, node_values(&params))?;
    let mut nodes = graph_nodes(i, &outs)?;
    let stage = i.graph_stage()?;
    if loop_state.is_some() {
        nodes.extend(stage.capture_param_nodes());
    }
    let (second_g, caps) = stage.pop_layer(nodes)?;
    first_g.num_params = n + caps.len();

    let (op, project) = make(i, first_g, second_g)?;
    let mut inputs = graph_nodes(i, leading)?;
    let stage = i.graph_stage()?;
    for (e, id) in &caps {
        inputs.push(stage.resolve(*e, *id)?);
    }
    let (epoch, node) = stage.add(op, inputs);
    let outs = project
        .map(|k| Value::GraphNode {
            epoch,
            id: stage.add(OpKind::TupleGet(k), vec![node]).1,
        })
        .collect();
    Ok((Value::GraphNode { epoch, id: node }, outs))
}

/// A staged loop over `state`: `test` and `body` see one `Param` per state
/// value; returns the final state from `skip` on.
fn staged_loop(
    i: &mut Interp,
    state: &[Value],
    test: impl FnOnce(&mut Interp, Vec<Value>) -> Result<Value>,
    body: impl FnOnce(&mut Interp, Vec<Value>) -> Result<Vec<Value>>,
    skip: usize,
) -> Result<Vec<Value>> {
    let n = state.len();
    let (_, outs) = staged_pair(
        i,
        Some(n),
        |i, params| Ok(vec![test(i, params)?]),
        body,
        |i, cond_g, body_g| {
            let max_iters = i.pending_loop_options.take();
            let op = OpKind::While {
                cond_g,
                body_g,
                max_iters,
            };
            Ok((op, skip..n))
        },
        state,
    )?;
    Ok(outs)
}

fn node_values(params: &[(u64, NodeId)]) -> Vec<Value> {
    params
        .iter()
        .map(|&(epoch, id)| Value::GraphNode { epoch, id })
        .collect()
}

fn graph_nodes(i: &mut Interp, values: &[Value]) -> Result<Vec<NodeId>> {
    values.iter().map(|v| i.graph_node_for(v)).collect()
}

/// A loop's state values: the items of a tuple, or one value.
fn loop_state(init: &Value) -> Vec<Value> {
    match init {
        Value::Tuple(items) => (**items).clone(),
        other => vec![other.clone()],
    }
}

/// A loop body's new state, which must be as long as the old.
fn next_state(out: Value, n: usize) -> Result<Vec<Value>> {
    match out {
        Value::Tuple(items) if items.len() == n => Ok((*items).clone()),
        other if n == 1 => Ok(vec![other]),
        other => Err(RuntimeError::new(format!(
            "loop body must return {n} state values, got {}",
            other.kind()
        ))),
    }
}

/// One Lantern branch in its own frame; `None` when it returns nothing.
fn lantern_branch(i: &mut Interp, branch: &Value) -> Result<Option<SExpr>> {
    i.lantern_stage()?.push_frame();
    let v = call(i, branch, vec![])?;
    let body = match v {
        Value::None => SExpr::Num(0.0),
        _ => i.to_lantern_sexpr(&v)?,
    };
    let body = i.lantern_stage()?.pop_frame(body);
    Ok((!matches!(v, Value::None)).then_some(body))
}

fn lantern_cond(i: &mut Interp, cond: &Value, true_fn: &Value, false_fn: &Value) -> Result<Value> {
    let cond = i.to_lantern_sexpr(cond)?;
    // a branch that modifies no variables returns None (matching the
    // graph path's zero-output Cond); Lantern is pure, so a conditional
    // with no outputs stages to nothing at all
    match (lantern_branch(i, true_fn)?, lantern_branch(i, false_fn)?) {
        (None, None) => Ok(Value::None),
        (Some(t), Some(f)) => Ok(Value::Lantern(Rc::new(SExpr::list(vec![
            SExpr::sym("if"),
            cond,
            t,
            f,
        ])))),
        _ => Err(RuntimeError::new(
            "staged conditional branches must produce the same number of values; \
             all code paths must initialize the same variables",
        )),
    }
}

const LANTERN_LOOP: &str = "the lantern backend stages loops as recursion; rewrite this loop \
                            as a recursive function (§8)";

/// The while operator.
pub(crate) fn while_stmt_impl(
    i: &mut Interp,
    test_fn: Value,
    body_fn: Value,
    init: Value,
) -> Result<Value> {
    let mut state = loop_state(&init);
    let n = state.len();
    // Dispatch on the condition-closure types (Table 4): the loop stages
    // when the first test result OR any loop-state value is staged (a
    // state variable may only become tensor-dependent inside the body,
    // e.g. a lowered `break` guard flipped by a staged conditional).
    let first = call(i, &test_fn, state.clone())?;
    if i.staging_graph() && (first.is_staged() || state.iter().any(Value::is_staged)) {
        let outs = staged_loop(
            i,
            &state,
            |i, params| call(i, &test_fn, params),
            |i, params| next_state(call(i, &body_fn, params)?, n),
            0,
        )?;
        return Ok(rebuild_result(&init, outs));
    }
    if first.is_staged() {
        return Err(RuntimeError::new(LANTERN_LOOP));
    }
    let mut keep = first.truthy()?;
    while keep {
        state = next_state(call(i, &body_fn, state)?, n)?;
        keep = call(i, &test_fn, state.clone())?.truthy()?;
    }
    // an ag.set_loop_options inside an imperative loop body applies to
    // nothing staged; consume it so it cannot leak into a later staged loop
    i.pending_loop_options = None;
    Ok(rebuild_result(&init, state))
}

/// The for operator.
pub(crate) fn for_stmt_impl(
    i: &mut Interp,
    iter: Value,
    body_fn: Value,
    init: Value,
) -> Result<Value> {
    let mut state = loop_state(&init);
    let n = state.len();
    match &iter {
        Value::GraphNode { .. } => {
            let outs = staged_for(i, iter, &body_fn, state)?;
            Ok(rebuild_result(&init, outs))
        }
        Value::Lantern(_) => Err(RuntimeError::new(LANTERN_LOOP)),
        _ => {
            for item in i.iterate(&iter)? {
                let mut args = vec![item];
                args.extend(state);
                state = next_state(call(i, &body_fn, args)?, n)?;
            }
            i.pending_loop_options = None;
            Ok(rebuild_result(&init, state))
        }
    }
}

/// Staged `for` over a 1-D tensor: the `while` lowering with an index
/// counter carried in front of the state, exactly like
/// `tf.while_loop`-based `dynamic_rnn` (Appendix A).
fn staged_for(
    i: &mut Interp,
    iter: Value,
    body_fn: &Value,
    state: Vec<Value>,
) -> Result<Vec<Value>> {
    let n = state.len();
    let mut counted = vec![Value::Int(0)];
    counted.extend(state);
    staged_loop(
        i,
        &counted,
        |i, params| {
            let idx = params.into_iter().next().unwrap_or(Value::None);
            let shape = i.graph_op(Op::Shape, std::slice::from_ref(&iter))?;
            let len = i.graph_op(Op::IndexAxis0, &[shape, Value::Int(0)])?;
            i.graph_op(Op::Less, &[idx, len])
        },
        |i, mut params| {
            let idx = params.remove(0);
            let target = i.graph_op(Op::IndexAxis0, &[iter.clone(), idx.clone()])?;
            params.insert(0, target);
            let state = next_state(call(i, body_fn, params)?, n)?;
            let mut next = vec![i.binop(BinOp::Add, idx, Value::Int(1))?];
            next.extend(state);
            Ok(next)
        },
        1,
    )
}

// ---- logical ----------------------------------------------------------------

/// Lazy `and`/`or`: `args = [a, thunk_b]`.
fn logical_lazy(i: &mut Interp, args: Args, is_and: bool) -> Result<Value> {
    let [a, thunk] = take(args)?;
    if a.is_staged() {
        // staged: strict evaluation of the second operand (the paper
        // lowers through tf.cond; our kernel is strict — documented)
        let b = call(i, &thunk, vec![])?;
        return match is_and {
            true => staged_logic(i, &tf_api::LOGICAL_AND, "and", &[a, b]),
            false => staged_logic(i, &tf_api::LOGICAL_OR, "or", &[a, b]),
        };
    }
    // Python lazy boolean semantics: return the deciding operand
    if a.truthy()? == is_and {
        call(i, &thunk, vec![])
    } else {
        Ok(a)
    }
}

/// A staged Python `and`/`or`/`not`: Lantern's own boolean form (its
/// `symbol`) on a Lantern operand, the tensor op's `row` on any other.
fn staged_logic(i: &mut Interp, row: &Row, symbol: &str, operands: &[Value]) -> Result<Value> {
    let lantern = operands.iter().any(|v| matches!(v, Value::Lantern(_)));
    if lantern && !i.stages_graph(operands) {
        return i.lantern_call(symbol, operands);
    }
    i.apply(row, operands)
}

// ---- lists -------------------------------------------------------------------

fn list_append_impl(i: &mut Interp, l: Value, x: Value) -> Result<Value> {
    match (&l, &x) {
        (Value::List(items), x) if !x.is_staged() => {
            items.borrow_mut().push(x.clone());
            Ok(l)
        }
        // a Python list receiving a staged element becomes a staged list
        (Value::List(_) | Value::GraphNode { .. }, _) => i.graph_op(OpKind::ArrayPush, &[l, x]),
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
            i.dispatch(&tf_api::STACK, Op::StackOp, &items)
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
        Value::GraphNode { .. } => i.graph_op(Op::SetItemAxis0, &[x, idx, v]),
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

    let existing = i.lantern_stage()?.staged.get(&key).cloned();
    let name = match existing {
        Some(name) => name,
        None => {
            // register before staging the body so recursion resolves
            let name = {
                let s = i.lantern_stage()?;
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
            let s = i.lantern_stage()?;
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
