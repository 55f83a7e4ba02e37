//! Differential test harness: every small PyLite program runs through
//! (1) the eager interpreter, (2) the staged graph executor at
//! `threads = 1`, (3) the staged graph executor at `threads = 4`, and —
//! where the op set allows — (4) the Lantern backend. All backends must
//! agree to 1e-6; the two graph configurations must agree **bitwise**
//! (kernel splitting never changes a result).

use autograph::prelude::*;

#[path = "support/corpus.rs"]
mod corpus;
use corpus::{programs, Program};

#[path = "support/check.rs"]
mod check;
use check::{assert_bitwise_eq, assert_close};

fn run_differential(p: &Program) {
    let mut rt = Runtime::load(p.src, true).unwrap_or_else(|e| panic!("{}: load: {e}", p.name));

    // eager reference
    let eager_args: Vec<Value> = p
        .feeds
        .iter()
        .map(|(_, t)| Value::tensor(t.clone()))
        .collect();
    let eager = rt
        .call("f", eager_args)
        .unwrap_or_else(|e| panic!("{}: eager: {e}", p.name));
    let eager_flat: Vec<Tensor> = match eager {
        Value::Tuple(items) => items
            .iter()
            .map(|x| x.as_eager_tensor().expect("tensor result"))
            .collect(),
        single => vec![single.as_eager_tensor().expect("tensor result")],
    };

    // staged graph, single-threaded
    let placeholder_args: Vec<GraphArg> = p
        .feeds
        .iter()
        .map(|(n, _)| GraphArg::Placeholder((*n).to_string()))
        .collect();
    let staged = rt
        .stage_to_graph("f", placeholder_args)
        .unwrap_or_else(|e| panic!("{}: stage: {e}", p.name));
    let mut sess1 = Session::new(staged.graph.clone());
    sess1.set_threads(1);
    let out1 = sess1
        .run(&p.feeds, &staged.outputs)
        .unwrap_or_else(|e| panic!("{}: graph t1: {e}", p.name));

    // staged graph, kernels split over the pool
    let mut sess4 = Session::new(staged.graph);
    sess4.set_threads(4);
    let out4 = sess4
        .run(&p.feeds, &staged.outputs)
        .unwrap_or_else(|e| panic!("{}: graph t4: {e}", p.name));

    assert_close(p.name, "eager vs graph", &eager_flat, &out1);
    assert_bitwise_eq(p.name, "graph t1 vs t4", &out1, &out4);

    if p.lantern {
        let lantern_args: Vec<LanternArg> = p
            .feeds
            .iter()
            .map(|(n, _)| LanternArg::Extern((*n).to_string()))
            .collect();
        let program = rt
            .stage_to_lantern("f", lantern_args)
            .unwrap_or_else(|e| panic!("{}: lantern stage: {e}", p.name));
        let engine = autograph::lantern::Engine::new(program);
        let out = engine
            .run(&p.feeds, &[])
            .unwrap_or_else(|e| panic!("{}: lantern run: {e}", p.name));
        let lantern_flat: Vec<Tensor> = match out {
            autograph::lantern::value::LValue::Tuple(items) => items
                .iter()
                .map(|x| x.as_tensor().expect("tensor result").clone())
                .collect(),
            single => vec![single.as_tensor().expect("tensor result").clone()],
        };
        assert_close(p.name, "eager vs lantern", &eager_flat, &lantern_flat);
    }
}

#[test]
fn differential_all_backends_agree() {
    let all = programs();
    assert!(all.len() >= 30, "expected ~30 programs, got {}", all.len());
    for p in &all {
        run_differential(p);
    }
}
