//! Appendix E conformance: one test per row of Tables 4–6, checking the
//! documented conversion trigger, Python semantics, and staged semantics
//! (or the documented rejection).

use autograph::graph::ir::{Op, OpKind};
use autograph::prelude::*;

fn load(src: &str) -> Runtime {
    Runtime::load(src, true).expect("load")
}

fn stage(rt: &mut Runtime, f: &str, names: &[&str]) -> autograph::StagedGraph {
    rt.stage_to_graph(
        f,
        names
            .iter()
            .map(|n| GraphArg::Placeholder((*n).to_string()))
            .collect(),
    )
    .expect("stage")
}

fn has_op(g: &autograph::graph::Graph, pred: fn(&OpKind) -> bool) -> bool {
    fn walk(g: &autograph::graph::Graph, pred: fn(&OpKind) -> bool) -> bool {
        g.nodes.iter().any(|n| {
            pred(&n.op)
                || match &n.op {
                    OpKind::Cond { then_g, else_g } => {
                        walk(&then_g.graph, pred) || walk(&else_g.graph, pred)
                    }
                    OpKind::While { cond_g, body_g, .. } => {
                        walk(&cond_g.graph, pred) || walk(&body_g.graph, pred)
                    }
                    _ => false,
                }
        })
    }
    walk(g, pred)
}

// ---- Table 4: control flow --------------------------------------------------

#[test]
fn t4_if_tensor_condition_becomes_cond() {
    let mut rt = load("def f(x):\n    if x > 0:\n        x = x + 1.0\n    return x\n");
    let staged = stage(&mut rt, "f", &["x"]);
    assert!(has_op(&staged.graph, |op| matches!(
        op,
        OpKind::Cond { .. }
    )));
}

#[test]
fn t4_if_python_condition_stays_imperative() {
    let mut rt = load("def f(x, flag):\n    if flag:\n        x = tf.tanh(x)\n    return x\n");
    let staged = rt
        .stage_to_graph(
            "f",
            vec![
                GraphArg::Placeholder("x".into()),
                GraphArg::Value(Value::Bool(true)),
            ],
        )
        .expect("stage");
    assert!(!has_op(&staged.graph, |op| matches!(
        op,
        OpKind::Cond { .. }
    )));
}

#[test]
fn t4_if_all_paths_must_produce_consistent_values() {
    let mut rt = load("def f(x):\n    if x > 0:\n        y = x\n    return y\n");
    let err = rt
        .stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])
        .unwrap_err();
    assert!(err.to_string().contains("all code paths"), "{err}");
}

#[test]
fn t4_for_over_tensor_becomes_while_loop() {
    let mut rt = load(
        "def f(xs):\n    s = xs[0] * 0.0\n    for v in xs:\n        s = s + v\n    return s\n",
    );
    let staged = stage(&mut rt, "f", &["xs"]);
    assert!(has_op(&staged.graph, |op| matches!(
        op,
        OpKind::While { .. }
    )));
}

#[test]
fn t4_while_on_tensor_condition_stages() {
    let mut rt = load("def f(x):\n    while x < 100.0:\n        x = x * 2.0\n    return x\n");
    let staged = stage(&mut rt, "f", &["x"]);
    assert!(has_op(&staged.graph, |op| matches!(
        op,
        OpKind::While { .. }
    )));
}

#[test]
fn t4_break_continue_return_lowered() {
    let out = convert_source(
        "def f(n):\n    for i in range(n):\n        if i == 2:\n            continue\n        if i == 5:\n            break\n        if i == 7:\n            return i\n    return -1\n",
    )
    .expect("convert");
    assert!(!out.contains("break\n") && !out.contains("continue\n"));
    // the in-loop return took the guard fallback; a single trailing return
    // of the retval variable remains
    assert!(out.contains("do_return"), "{out}");
    assert!(out.contains("return retval"), "{out}");
}

#[test]
fn t4_try_except_outside_subset() {
    // our PyLite subset rejects try at parse time (documented deviation:
    // real AutoGraph passes it through unconverted)
    assert!(Runtime::load("try:\n    pass\n", true).is_err());
}

#[test]
fn t4_yield_not_allowed() {
    assert!(Runtime::load("def f():\n    yield 1\n", true).is_err());
}

#[test]
fn t4_ternary_with_tensor_stages() {
    let mut rt = load("def f(x):\n    y = x * 2.0 if x > 0 else x\n    return y\n");
    let staged = stage(&mut rt, "f", &["x"]);
    assert!(has_op(&staged.graph, |op| matches!(
        op,
        OpKind::Cond { .. }
    )));
}

#[test]
fn t4_lazy_boolean_semantics_preserved() {
    // `0 or 5` must return 5 (the operand, not a bool)
    let mut rt = load("def f():\n    return 0 or 5\n");
    assert_eq!(rt.call("f", vec![]).unwrap().as_int().unwrap(), 5);
}

#[test]
fn t4_equality_dispatches_on_tensor() {
    let mut rt = load("def f(x):\n    return x == 3.0\n");
    let staged = stage(&mut rt, "f", &["x"]);
    assert!(has_op(&staged.graph, |op| matches!(
        op,
        OpKind::Tensor(Op::Equal)
    )));
}

// ---- Table 5: functions and collections -------------------------------------

#[test]
fn t5_user_functions_converted_recursively() {
    // `helper` is defined without conversion markers but called through
    // converted code: converted at runtime, its tensor `if` stages
    let src = "\
def helper(v):
    if v > 0:
        return v * 2.0
    return v

def f(x):
    return helper(x)
";
    let mut rt = load(src);
    let staged = stage(&mut rt, "f", &["x"]);
    assert!(has_op(&staged.graph, |op| matches!(
        op,
        OpKind::Cond { .. }
    )));
}

#[test]
fn t5_lambdas_supported() {
    let mut rt = load("def f(x):\n    g = lambda v: v * 3\n    return g(x)\n");
    assert_eq!(
        rt.call("f", vec![Value::Int(4)]).unwrap().as_int().unwrap(),
        12
    );
}

#[test]
fn t5_builtins_print_len_range_int_float() {
    let mut rt = load(
        "def f(l):\n    n = len(l)\n    r = range(n)\n    total = 0\n    for i in r:\n        total = total + int(l[i])\n    return float(total)\n",
    );
    let l = Value::list(vec![Value::Float(1.9), Value::Float(2.9)]);
    assert_eq!(rt.call("f", vec![l]).unwrap().as_float().unwrap(), 3.0);
}

#[test]
fn t5_list_append_staged_as_tensor_list() {
    let mut rt = load(
        "def f(xs):\n    out = []\n    for v in xs:\n        out.append(v * 2.0)\n    return ag.stack(out)\n",
    );
    let staged = stage(&mut rt, "f", &["xs"]);
    assert!(has_op(&staged.graph, |op| matches!(op, OpKind::ArrayPush)));
    assert!(has_op(&staged.graph, |op| matches!(op, OpKind::ArrayStack)));
}

#[test]
fn t5_list_pop_value_semantics() {
    let mut rt =
        load("def f():\n    l = [1, 2, 3]\n    v = l.pop()\n    return v + len(l) * 100\n");
    assert_eq!(rt.call("f", vec![]).unwrap().as_int().unwrap(), 203);
}

#[test]
fn t5_dict_set_literals_not_converted() {
    assert!(Runtime::load("def f():\n    d = {}\n    return d\n", true).is_err());
}

#[test]
fn t5_getitem_setitem_on_tensors() {
    let mut rt = load("def f(x):\n    x[0] = x[1] + x[2]\n    return x\n");
    let staged = stage(&mut rt, "f", &["x"]);
    assert!(has_op(&staged.graph, |op| matches!(
        op,
        OpKind::Tensor(Op::SetItemAxis0)
    )));
    let mut sess = Session::new(staged.graph);
    let x = Tensor::from_vec(vec![0.0, 2.0, 3.0], &[3]).unwrap();
    let out = sess.run(&[("x", x)], &staged.outputs).unwrap();
    assert_eq!(out[0].as_f32().unwrap(), &[5.0, 2.0, 3.0]);
}

#[test]
fn t5_comprehensions_not_in_subset() {
    // list comprehensions are outside the PyLite grammar
    assert!(Runtime::load("def f(l):\n    return [x for x in l]\n", true).is_err());
}

// ---- Table 6: variables, classes, power features ----------------------------

#[test]
fn t6_undefined_variables_reified() {
    // a variable defined in one branch only errors when staged...
    let mut rt = load("def f(x):\n    if x > 0:\n        y = x\n    return y\n");
    assert!(rt
        .stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])
        .is_err());
    // ...and errors at use when the defining branch was not taken
    let mut rt2 = load("def f(x):\n    if x > 0:\n        y = x\n    return y\n");
    let err = rt2.call("f", vec![Value::Int(-1)]).unwrap_err();
    assert!(
        err.to_string().contains("may be used before assignment"),
        "{err}"
    );
    // but succeeds when it was taken
    let mut rt3 = load("def f(x):\n    if x > 0:\n        y = x\n    return y\n");
    assert_eq!(
        rt3.call("f", vec![Value::Int(2)])
            .unwrap()
            .as_int()
            .unwrap(),
        2
    );
}

#[test]
fn t6_global_not_allowed() {
    match Runtime::load("def f():\n    global a\n    a = 1\n", true) {
        Err(err) => assert!(err.to_string().contains("global")),
        Ok(_) => panic!("global must be rejected"),
    }
}

#[test]
fn t6_nonlocal_not_allowed() {
    assert!(Runtime::load("def f():\n    nonlocal a\n", true).is_err());
}

#[test]
fn t6_records_and_attribute_access() {
    let mut rt = load("def f(obj):\n    obj.count = obj.count + 1\n    return obj.count\n");
    let obj = Value::record(vec![("count", Value::Int(41))]);
    assert_eq!(rt.call("f", vec![obj]).unwrap().as_int().unwrap(), 42);
}

#[test]
fn t6_callable_objects_via_closures() {
    let mut rt = load(
        "def make_counter(start):\n    def step(n):\n        return start + n\n    return step\n\ndef f(x):\n    c = make_counter(100)\n    return c(x)\n",
    );
    assert_eq!(
        rt.call("f", vec![Value::Int(5)]).unwrap().as_int().unwrap(),
        105
    );
}

#[test]
fn t6_decorators_preserved() {
    // the artifact marker is a decorator; user decorators parse and are
    // retained on the AST (conversion is idempotent on artifacts)
    let out = convert_source("def f(x):\n    return x\n").expect("convert");
    let out2 = {
        let m = autograph::pylang::parse_module(&out).expect("reparse");
        let conv = autograph::convert_module(m, &autograph::ConversionConfig::default())
            .expect("reconvert");
        autograph::pylang::codegen::ast_to_source(&conv.module)
    };
    assert_eq!(
        out.matches("@ag.autograph_artifact").count(),
        out2.matches("@ag.autograph_artifact").count()
    );
}

// ---- dynamic dispatch: every `tf.*` row × every operand kind ----------------

/// Which backend a `tf.*` call ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ran {
    /// A Python value came back: host semantics.
    Py,
    /// An eager tensor came back: the eager runtime ran it.
    Eager,
    /// The staged graph holds a node other than constants and placeholders.
    Graph,
    /// Only constants reached the graph: the op ran while tracing.
    Trace,
    /// A Lantern expression was staged.
    Lantern,
    /// A structured error (a `RuntimeError` with a message, never a panic).
    Fail,
}
use Ran::{Eager, Fail, Graph, Lantern, Py, Trace};

/// One row per tensor op of `tf.*`, called on `x` =
/// [Python number `2`, eager `[[1,2],[3,4]]`, staged placeholder, Lantern
/// param, host `2` while staging a graph].
const DISPATCH: &[(&str, [Ran; 5])] = &[
    ("tf.constant(x)", [Eager, Eager, Fail, Fail, Trace]),
    ("tf.zeros((2, 2))", [Eager, Eager, Trace, Fail, Trace]),
    ("tf.ones((2, 2))", [Eager, Eager, Trace, Fail, Trace]),
    (
        "tf.random_normal((2, 2))",
        [Eager, Eager, Trace, Fail, Trace],
    ),
    ("tf.range(x)", [Eager, Fail, Graph, Fail, Graph]),
    ("tf.tanh(x)", [Eager, Eager, Graph, Lantern, Graph]),
    ("tf.sigmoid(x)", [Eager, Eager, Graph, Lantern, Graph]),
    ("tf.relu(x)", [Eager, Eager, Graph, Lantern, Graph]),
    ("tf.exp(x)", [Eager, Eager, Graph, Lantern, Graph]),
    ("tf.log(x)", [Eager, Eager, Graph, Lantern, Graph]),
    ("tf.sqrt(x)", [Eager, Eager, Graph, Lantern, Graph]),
    ("tf.square(x)", [Eager, Eager, Graph, Lantern, Graph]),
    ("tf.abs(x)", [Eager, Eager, Graph, Fail, Graph]),
    ("tf.neg(x)", [Eager, Eager, Graph, Lantern, Graph]),
    ("tf.softmax(x)", [Fail, Eager, Graph, Fail, Graph]),
    ("tf.log_softmax(x)", [Fail, Eager, Graph, Fail, Graph]),
    ("tf.stop_gradient(x)", [Eager, Eager, Graph, Fail, Graph]),
    ("tf.identity(x)", [Eager, Eager, Graph, Fail, Graph]),
    ("tf.add(x, x)", [Eager, Eager, Graph, Lantern, Graph]),
    ("tf.subtract(x, x)", [Eager, Eager, Graph, Lantern, Graph]),
    ("tf.multiply(x, x)", [Eager, Eager, Graph, Lantern, Graph]),
    ("tf.divide(x, x)", [Eager, Eager, Graph, Lantern, Graph]),
    ("tf.matmul(x, x)", [Fail, Eager, Graph, Lantern, Graph]),
    ("tf.maximum(x, x)", [Eager, Eager, Graph, Fail, Graph]),
    ("tf.minimum(x, x)", [Eager, Eager, Graph, Fail, Graph]),
    ("tf.equal(x, x)", [Py, Eager, Graph, Lantern, Trace]),
    ("tf.less(x, x)", [Py, Eager, Graph, Lantern, Trace]),
    ("tf.greater(x, x)", [Py, Eager, Graph, Lantern, Trace]),
    ("tf.logical_and(x, x)", [Fail, Fail, Graph, Fail, Graph]),
    ("tf.logical_or(x, x)", [Fail, Fail, Graph, Fail, Graph]),
    ("tf.logical_not(x)", [Fail, Fail, Graph, Fail, Graph]),
    ("tf.pow(x, x)", [Eager, Eager, Graph, Fail, Graph]),
    ("tf.reduce_sum(x)", [Eager, Eager, Graph, Lantern, Graph]),
    (
        "tf.reduce_sum(x, axis=0)",
        [Fail, Eager, Graph, Fail, Graph],
    ),
    ("tf.reduce_mean(x)", [Eager, Eager, Graph, Lantern, Graph]),
    ("tf.reduce_mean(x, 1)", [Fail, Eager, Graph, Fail, Graph]),
    ("tf.reduce_max(x)", [Eager, Eager, Graph, Fail, Graph]),
    (
        "tf.reduce_min(x, axis=0)",
        [Fail, Eager, Graph, Fail, Graph],
    ),
    ("tf.reduce_all(x)", [Fail, Fail, Graph, Fail, Graph]),
    ("tf.reduce_any(x)", [Fail, Fail, Graph, Fail, Graph]),
    ("tf.argmax(x)", [Fail, Eager, Graph, Fail, Graph]),
    ("tf.shape(x)", [Eager, Eager, Graph, Fail, Graph]),
    ("tf.transpose(x, (1, 0))", [Fail, Eager, Graph, Fail, Graph]),
    ("tf.reshape(x, (-1,))", [Eager, Eager, Graph, Fail, Graph]),
    ("tf.expand_dims(x, 0)", [Eager, Eager, Graph, Fail, Graph]),
    ("tf.squeeze(x)", [Eager, Eager, Graph, Fail, Graph]),
    ("tf.cast(x, tf.int32)", [Eager, Eager, Graph, Fail, Graph]),
    ("tf.where(x, x, x)", [Fail, Fail, Graph, Fail, Graph]),
    ("tf.gather(x, x)", [Fail, Fail, Graph, Fail, Graph]),
    ("tf.one_hot(x, 3)", [Eager, Fail, Graph, Fail, Graph]),
    ("tf.concat([x, x], 0)", [Fail, Eager, Graph, Lantern, Graph]),
    ("tf.concat([x, x], 1)", [Fail, Eager, Graph, Lantern, Graph]),
    ("tf.stack([x, x])", [Eager, Eager, Graph, Fail, Graph]),
    ("tf.top_k(x, 1)", [Fail, Eager, Graph, Fail, Graph]),
    (
        "tf.softmax_cross_entropy(x, x)",
        [Fail, Fail, Graph, Lantern, Graph],
    ),
];

fn ran_value(r: autograph::runtime::Result<Value>) -> Ran {
    match r {
        Ok(Value::Tensor(_)) => Eager,
        Ok(Value::Tuple(items)) => ran_value(Ok(items[0].clone())),
        Ok(_) => Py,
        Err(e) => ran_err(&e),
    }
}

fn ran_staged(r: autograph::runtime::Result<autograph::StagedGraph>) -> Ran {
    match r {
        Ok(s)
            if s.graph
                .nodes
                .iter()
                .any(|n| !matches!(n.op, OpKind::Const(_) | OpKind::Placeholder { .. })) =>
        {
            Graph
        }
        Ok(_) => Trace,
        Err(e) => ran_err(&e),
    }
}

fn ran_err(e: &autograph::RuntimeError) -> Ran {
    assert!(
        !e.to_string().trim().is_empty(),
        "an error without a message"
    );
    Fail
}

#[test]
fn t4_every_tf_op_dispatches_by_one_rule() {
    let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
    let mut wrong = Vec::new();
    for (call, want) in DISPATCH {
        let src = format!("def f(x):\n    return {call}\n");
        let got = [
            ran_value(load(&src).call("f", vec![Value::Int(2)])),
            ran_value(load(&src).call("f", vec![Value::tensor(m.clone())])),
            ran_staged(load(&src).stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])),
            match load(&src).stage_to_lantern("f", vec![LanternArg::Param("x".into())]) {
                Ok(_) => Lantern,
                Err(e) => ran_err(&e),
            },
            ran_staged(load(&src).stage_to_graph("f", vec![GraphArg::Value(Value::Int(2))])),
        ];
        if got != *want {
            wrong.push(format!("    (\"{call}\", {got:?}),  // want {want:?}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "dispatch cells moved:\n{}",
        wrong.join("\n")
    );
}
