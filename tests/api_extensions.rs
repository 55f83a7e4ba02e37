//! Extension-surface tests: compilation directives, the `tf.function`-like
//! compiled callable, the functional `tf.cond`/`tf.while_loop` API that
//! AutoGraph replaces, staged print/assert effects, and second-order
//! symbolic gradients.

use autograph::graph::builder::GraphBuilder;
use autograph::graph::grad::gradients;
use autograph::graph::ir::{Op, OpKind};
use autograph::prelude::*;

#[test]
fn set_loop_options_limits_staged_iterations() {
    // the §7.2 directive: an iteration budget enforced by the staged loop
    let src = "\
def f(x):
    while x < 1000000.0:
        ag.set_loop_options(max_iterations=10)
        x = x + 1.0
    return x
";
    let mut rt = Runtime::load(src, true).expect("load");
    let staged = rt
        .stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])
        .expect("stage");
    // directive reached the IR
    fn find_limit(g: &autograph::graph::Graph) -> Option<u64> {
        g.nodes.iter().find_map(|n| match &n.op {
            OpKind::While { max_iters, .. } => *max_iters,
            _ => None,
        })
    }
    assert_eq!(find_limit(&staged.graph), Some(10));
    let mut sess = Session::new(staged.graph);
    let err = sess
        .run(&[("x", Tensor::scalar_f32(0.0))], &staged.outputs)
        .unwrap_err();
    assert!(err.to_string().contains("max_iters"), "{err}");
    // a loop that finishes within the budget is unaffected
    let src_ok = src.replace("1000000.0", "5.0");
    let mut rt2 = Runtime::load(&src_ok, true).expect("load");
    let staged2 = rt2
        .stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])
        .expect("stage");
    let mut sess2 = Session::new(staged2.graph);
    let out = sess2
        .run(&[("x", Tensor::scalar_f32(0.0))], &staged2.outputs)
        .expect("run");
    assert_eq!(out[0].scalar_value_f32().unwrap(), 5.0);
}

#[test]
fn loop_options_on_for_and_no_leak_from_imperative_loops() {
    // the directive inside a staged for-loop applies to its lowered While
    let src = "\
def f(xs):
    s = xs[0] * 0.0
    for v in xs:
        ag.set_loop_options(max_iterations=3)
        s = s + v
    return s
";
    let mut rt = Runtime::load(src, true).expect("load");
    let staged = rt
        .stage_to_graph("f", vec![GraphArg::Placeholder("xs".into())])
        .expect("stage");
    let mut sess = Session::new(staged.graph);
    // 2 elements: within budget
    let small = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
    assert!(sess.run(&[("xs", small)], &staged.outputs).is_ok());
    // 5 elements: exceeds the 3-iteration budget at run time
    let big = Tensor::from_vec(vec![1.0; 5], &[5]).unwrap();
    let err = sess.run(&[("xs", big)], &staged.outputs).unwrap_err();
    assert!(err.to_string().contains("max_iters"), "{err}");

    // a directive inside an IMPERATIVE (python) loop must not leak into a
    // later staged loop
    let src2 = "\
def g(x, n):
    i = 0
    while i < n:
        ag.set_loop_options(max_iterations=1)
        i = i + 1
    while x < 100.0:
        x = x + 1.0
    return x
";
    let mut rt2 = Runtime::load(src2, true).expect("load");
    let staged2 = rt2
        .stage_to_graph(
            "g",
            vec![
                GraphArg::Placeholder("x".into()),
                GraphArg::Value(Value::Int(4)), // python loop runs 4 times
            ],
        )
        .expect("stage");
    let mut sess2 = Session::new(staged2.graph);
    let out = sess2
        .run(&[("x", Tensor::scalar_f32(0.0))], &staged2.outputs)
        .expect("the staged loop must not inherit the leaked budget");
    assert_eq!(out[0].scalar_value_f32().unwrap(), 100.0);
}

/// Stage `f(xs) = sum of xs` as a staged `for` loop, with `directive`
/// as the loop body's first line.
fn staged_sum(directive: &str) -> StagedGraph {
    let src = format!(
        "def f(xs):\n    s = xs[0] * 0.0\n    for v in xs:\n{directive}        s = s + v\n    return s\n"
    );
    let mut rt = Runtime::load(&src, true).expect("load");
    rt.stage_to_graph("f", vec![GraphArg::Placeholder("xs".into())])
        .expect("stage")
}

/// Run the staged sum over `n` ones under `opts`.
fn run_sum(staged: &StagedGraph, n: usize, opts: &RunOptions) -> Result<f32, String> {
    let mut sess = Session::new(staged.graph.clone());
    let xs = Tensor::from_vec(vec![1.0; n], &[n]).unwrap();
    sess.run_with_options(&[("xs", xs)], &staged.outputs, opts)
        .map(|out| out[0].scalar_value_f32().unwrap())
        .map_err(|e| e.to_string())
}

#[test]
fn loop_directive_cap_admits_exactly_its_budget() {
    // a cap of N lets a loop run N iterations and stops the (N+1)-th
    let staged = staged_sum("        ag.set_loop_options(max_iterations=3)\n");
    let opts = RunOptions::default();
    assert_eq!(run_sum(&staged, 3, &opts), Ok(3.0));
    let err = run_sum(&staged, 4, &opts).unwrap_err();
    assert!(err.contains("max_iters=3"), "{err}");
}

#[test]
fn run_option_cap_admits_exactly_its_budget() {
    let staged = staged_sum("");
    let opts = RunOptions::default().with_max_while_iters(3);
    assert_eq!(run_sum(&staged, 3, &opts), Ok(3.0));
    let err = run_sum(&staged, 4, &opts).unwrap_err();
    assert!(err.contains("max_iters=3"), "{err}");
}

#[test]
fn compiled_function_is_a_cached_callable() {
    let src = "\
def norm_clip(x, limit):
    total = tf.sqrt(tf.reduce_sum(tf.square(x)))
    if total > limit:
        x = x * (limit / total)
    return x
";
    let mut rt = Runtime::load(src, true).expect("load");
    let mut f = rt.compile("norm_clip", &["x", "limit"]).expect("compile");
    // big vector clipped to norm 1
    let x = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
    let out = f.call(&[x, Tensor::scalar_f32(1.0)]).expect("call");
    let v = out[0].as_f32().unwrap();
    assert!(
        (v[0] - 0.6).abs() < 1e-5 && (v[1] - 0.8).abs() < 1e-5,
        "{v:?}"
    );
    // small vector passes through (other branch, same compiled graph)
    let x = Tensor::from_vec(vec![0.1, 0.2], &[2]).unwrap();
    let out = f.call(&[x.clone(), Tensor::scalar_f32(1.0)]).expect("call");
    assert_eq!(out[0].as_f32().unwrap(), x.as_f32().unwrap());
    // arity errors reported
    assert!(f.call(&[Tensor::scalar_f32(1.0)]).is_err());
    // the staged graph is inspectable
    assert!(f.graph().to_dot().contains("digraph"));
}

#[test]
fn functional_tf_cond_and_while_loop_api() {
    // the cumbersome functional style AutoGraph replaces (§3) still works
    let src = "\
def f(x):
    y = tf.cond(x > 0.0, lambda: x * x, lambda: x)
    r = tf.while_loop(lambda v: v < 100.0, lambda v: v * 2.0, (y,))
    return r
";
    let mut rt = Runtime::load(src, true).expect("load");
    // eager
    let out = rt
        .call("f", vec![Value::tensor(Tensor::scalar_f32(3.0))])
        .expect("eager");
    match out {
        Value::Tuple(items) => {
            assert_eq!(
                items[0]
                    .as_eager_tensor()
                    .unwrap()
                    .scalar_value_f32()
                    .unwrap(),
                144.0 // 9 -> 18 -> 36 -> 72 -> 144
            );
        }
        other => panic!("expected tuple, got {}", other.render()),
    }
    // staged
    let staged = rt
        .stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])
        .expect("stage");
    let mut sess = Session::new(staged.graph);
    let out = sess
        .run(&[("x", Tensor::scalar_f32(3.0))], &staged.outputs)
        .expect("run");
    assert_eq!(out[0].scalar_value_f32().unwrap(), 144.0);
}

#[test]
fn second_order_symbolic_gradients() {
    // d²/dx² of sum(x³) = 6x — gradients of gradients, mechanically
    let mut b = GraphBuilder::new();
    let x = b.placeholder("x");
    let x2 = b.mul(x, x);
    let x3 = b.mul(x2, x);
    let loss = b.add(Op::ReduceSum(None), vec![x3]);
    let g1 = gradients(&mut b, loss, &[x]).expect("first order")[0];
    let g1_sum = b.add(Op::ReduceSum(None), vec![g1]);
    let g2 = gradients(&mut b, g1_sum, &[x]).expect("second order")[0];
    let mut sess = Session::new(b.finish());
    let out = sess
        .run(
            &[("x", Tensor::from_vec(vec![1.0, -2.0, 0.5], &[3]).unwrap())],
            &[g2],
        )
        .expect("run");
    let v = out[0].as_f32().unwrap();
    for (got, x) in v.iter().zip([1.0f32, -2.0, 0.5]) {
        assert!((got - 6.0 * x).abs() < 1e-3, "{got} vs {}", 6.0 * x);
    }
}

#[test]
fn staged_print_executes_without_fetch() {
    // prints are effectful: the plan runs them even though nothing fetches
    // their value (the control-dependency wiring)
    let src = "def f(x):\n    print(x)\n    return x + 1.0\n";
    let mut rt = Runtime::load(src, true).expect("load");
    let staged = rt
        .stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])
        .expect("stage");
    assert!(staged
        .graph
        .nodes
        .iter()
        .any(|n| matches!(n.op, OpKind::Print(_))));
    let mut sess = Session::new(staged.graph);
    let out = sess
        .run(&[("x", Tensor::scalar_f32(1.0))], &staged.outputs)
        .expect("run");
    assert_eq!(out[0].scalar_value_f32().unwrap(), 2.0);
}

#[test]
fn staged_node_names_carry_function_scopes() {
    // §7.2 Function Wrappers: converted functions stage under name scopes
    let src = "\
def inner(v):
    return tf.tanh(v)

def outer(x):
    return inner(x) + 1.0
";
    let mut rt = Runtime::load(src, true).expect("load");
    let staged = rt
        .stage_to_graph("outer", vec![GraphArg::Placeholder("x".into())])
        .expect("stage");
    let names: Vec<&str> = staged.graph.nodes.iter().map(|n| n.name.as_str()).collect();
    assert!(
        names.iter().any(|n| n.starts_with("outer/inner/tanh")),
        "{names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("outer/add")),
        "{names:?}"
    );
}

#[test]
fn graphviz_dump_of_staged_function() {
    let mut rt = Runtime::load(
        "def f(x):\n    if x > 0:\n        x = x * 2.0\n    return x\n",
        true,
    )
    .expect("load");
    let staged = rt
        .stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])
        .expect("stage");
    let dot = staged.graph.to_dot();
    assert!(dot.contains("digraph"));
    assert!(dot.contains("cond"), "{dot}");
    assert!(dot.contains("placeholder"), "{dot}");
}

#[test]
fn shape_validation_catches_errors_at_compile_time() {
    // constant weight shapes are statically known: the matmul mismatch is
    // reported by Runtime::compile (staging phase) with the user's line,
    // before any Session::run
    let src = "\
def f(x):
    a = tf.matmul(x, w1)
    return tf.matmul(a, w2)
";
    let mut rt = Runtime::load(src, true).expect("load");
    rt.globals
        .set("w1", Value::tensor(Tensor::zeros(DType::F32, &[3, 4])));
    rt.globals
        .set("w2", Value::tensor(Tensor::zeros(DType::F32, &[5, 2]))); // 4 != 5
    let err = match rt.compile("f", &["x"]) {
        Err(e) => e,
        Ok(_) => panic!("shape mismatch must fail at compile time"),
    };
    let msg = err.to_string();
    assert!(msg.contains("staging error"), "{msg}");
    assert!(msg.contains("inner dimensions"), "{msg}");
    assert!(msg.contains("3:"), "points at line 3: {msg}");
    // fixing the weight compiles fine even though x stays unknown
    let mut rt2 = Runtime::load(src, true).expect("load");
    rt2.globals
        .set("w1", Value::tensor(Tensor::zeros(DType::F32, &[3, 4])));
    rt2.globals
        .set("w2", Value::tensor(Tensor::zeros(DType::F32, &[4, 2])));
    assert!(rt2.compile("f", &["x"]).is_ok());
}

#[test]
fn compiled_function_beats_repeated_staging() {
    // sanity: reusing the compiled callable gives the same result as
    // fresh staging each time
    let src = "def f(x):\n    s = x\n    i = 0\n    while i < 5:\n        s = s + x\n        i = i + 1\n    return s\n";
    let mut rt = Runtime::load(src, true).expect("load");
    let mut compiled = rt.compile("f", &["x"]).expect("compile");
    for v in [1.0f32, 2.5, -3.0] {
        let out = compiled.call(&[Tensor::scalar_f32(v)]).expect("call");
        assert_eq!(out[0].scalar_value_f32().unwrap(), 6.0 * v);
    }
}
