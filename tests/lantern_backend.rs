//! Cross-crate tests of the Lantern backend (§8): recursion staging,
//! gradient correctness against the eager tape, and the properties
//! TensorFlow graphs cannot express.

use autograph::lantern::value::{LValue, Record};
use autograph::lantern::Engine;
use autograph::prelude::*;
use autograph::LanternArg;

fn leaf() -> LValue {
    LValue::Record(Record::new(vec![("is_empty", LValue::Bool(true))]))
}

fn node(l: LValue, r: LValue, v: f32) -> LValue {
    LValue::Record(Record::new(vec![
        ("is_empty", LValue::Bool(false)),
        ("left", l),
        ("right", r),
        ("value", LValue::scalar(v)),
    ]))
}

#[test]
fn paper_tree_prod_example_end_to_end() {
    // §8's running example, from imperative source to evaluated IR
    let src = "\
def tree_prod(base, tree):
    if tree.is_empty:
        return base
    l = tree_prod(base, tree.left)
    r = tree_prod(base, tree.right)
    return l * r * tree.value
";
    let mut rt = Runtime::load(src, true).expect("load");
    let program = rt
        .stage_to_lantern(
            "tree_prod",
            vec![
                LanternArg::Extern("base".into()),
                LanternArg::Extern("tree".into()),
            ],
        )
        .expect("stage");

    // a single staged definition — the recursion did not unroll
    assert_eq!(program.funcs.len(), 1);
    let engine = Engine::new(program);
    let tree = node(node(leaf(), leaf(), 2.0), node(leaf(), leaf(), 5.0), 3.0);
    let out = engine
        .run_values(&[("base", LValue::scalar(1.0)), ("tree", tree)], &[])
        .expect("run");
    assert_eq!(out.as_tensor().unwrap().scalar_value_f32().unwrap(), 30.0);
}

#[test]
fn deep_recursion_beyond_interpreter_limit() {
    // the PyLite interpreter caps recursion (like CPython); the COMPILED
    // Lantern IR recurses far deeper — a concrete payoff of staging
    let src = "\
def count_down(n, acc):
    if n <= 0.0:
        return acc
    return count_down(n - 1.0, acc + 1.0)
";
    // staging interprets the body ONCE, so staging depth is constant
    let mut rt = Runtime::load(src, true).expect("load");
    let program = rt
        .stage_to_lantern(
            "count_down",
            vec![
                LanternArg::Extern("n".into()),
                LanternArg::Extern("acc".into()),
            ],
        )
        .expect("stage");
    let engine = Engine::new(program);
    let src = src.to_string();
    // both checks on a roomy thread: interpreter frames are large in
    // debug builds, and the compiled engine recurses 2000 deep
    let handle = std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(move || {
            // the eager interpreter hits its recursion guard ...
            let mut rt2 = Runtime::load(&src, false).expect("load");
            let err = rt2
                .call("count_down", vec![Value::Float(2000.0), Value::Float(0.0)])
                .unwrap_err();
            assert!(err.to_string().contains("recursion"), "{err}");
            // ... while the compiled engine runs the full depth
            engine
                .run(
                    &[
                        ("n", Tensor::scalar_f32(2000.0)),
                        ("acc", Tensor::scalar_f32(0.0)),
                    ],
                    &[],
                )
                .unwrap()
                .as_tensor()
                .unwrap()
                .scalar_value_f32()
                .unwrap()
        })
        .unwrap();
    assert_eq!(handle.join().unwrap(), 2000.0);
}

#[test]
fn mutual_recursion_stages() {
    let src = "\
def is_even(n):
    if n <= 0.0:
        return 1.0
    return is_odd(n - 1.0)

def is_odd(n):
    if n <= 0.0:
        return 0.0
    return is_even(n - 1.0)
";
    let mut rt = Runtime::load(src, true).expect("load");
    let program = rt
        .stage_to_lantern("is_even", vec![LanternArg::Extern("n".into())])
        .expect("stage");
    assert_eq!(program.funcs.len(), 2, "both functions staged once");
    let engine = Engine::new(program);
    for (n, expected) in [(4.0f32, 1.0f32), (7.0, 0.0), (0.0, 1.0)] {
        let out = engine.run(&[("n", Tensor::scalar_f32(n))], &[]).unwrap();
        assert_eq!(
            out.as_tensor().unwrap().scalar_value_f32().unwrap(),
            expected
        );
    }
}

#[test]
fn gradients_through_recursion_match_eager_tape() {
    // loss(n) = w^n staged through recursion; d/dw = n * w^(n-1)
    let src = "\
def power(n):
    if n <= 0.0:
        return 1.0
    return w * power(n - 1.0)
";
    let mut rt = Runtime::load(src, true).expect("load");
    rt.globals.set(
        "w",
        Value::Lantern(std::rc::Rc::new(
            autograph::lantern::sexpr::parse("(param w)").unwrap(),
        )),
    );
    let program = rt
        .stage_to_lantern("power", vec![LanternArg::Extern("n".into())])
        .expect("stage");
    let engine = Engine::new(program);
    let (loss, grads) = engine
        .grad(
            &[("n", LValue::scalar(4.0))],
            &[("w", Tensor::scalar_f32(1.5))],
        )
        .expect("grad");
    let expected_loss = 1.5f32.powi(4);
    let expected_grad = 4.0 * 1.5f32.powi(3);
    assert!((loss.scalar_value_f32().unwrap() - expected_loss).abs() < 1e-4);
    assert!((grads[0].scalar_value_f32().unwrap() - expected_grad).abs() < 1e-3);
}

#[test]
fn staged_program_renders_as_sexpressions() {
    // the IR is inspectable text, like the paper's S-expression listings
    let src = "\
def tree_sum(tree):
    if tree.is_empty:
        return 0.0
    return tree_sum(tree.left) + tree_sum(tree.right) + tree.value
";
    let mut rt = Runtime::load(src, true).expect("load");
    // capture the S-expression before compilation by re-staging manually
    let program = rt
        .stage_to_lantern("tree_sum", vec![LanternArg::Extern("tree".into())])
        .expect("stage");
    // compiled form retains the recursive structure
    assert_eq!(program.funcs.len(), 1);
    assert!(program.extern_names.contains(&"tree".to_string()));
}

#[test]
fn lantern_loops_rejected_with_guidance() {
    let src = "def f(x):\n    while x > 0.0:\n        x = x - 1.0\n    return x\n";
    let mut rt = Runtime::load(src, true).expect("load");
    let err = rt
        .stage_to_lantern("f", vec![LanternArg::Extern("x".into())])
        .unwrap_err();
    assert!(err.to_string().contains("recursion"), "{err}");
}

#[test]
fn unsupported_ops_name_themselves() {
    // one message for every op the Lantern IR lacks, whether it takes one
    // operand, two, or attributes beside its operand
    for call in [
        "tf.abs(x)",
        "tf.maximum(x, x)",
        "tf.reshape(x, (-1,))",
        "tf.cast(x, tf.int32)",
        "tf.reduce_sum(x, 0)",
    ] {
        let src = format!("def f(x):\n    return {call}\n");
        let mut rt = Runtime::load(&src, true).expect("load");
        let err = rt
            .stage_to_lantern("f", vec![LanternArg::Param("x".into())])
            .unwrap_err()
            .to_string();
        let op = &call[3..call.find('(').unwrap_or(call.len())];
        assert!(
            err.contains(&format!(
                "tf op '{op}' is not supported by the lantern backend"
            )),
            "{call}: {err}"
        );
    }
}
