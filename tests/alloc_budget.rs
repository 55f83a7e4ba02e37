//! Pins the tensor allocations of one Table 1 RNN run (hidden 16, batch
//! 8, sequence 32) and of one Table 3 TreeLSTM training step on each tape
//! user (the eager runtime and Lantern's `Engine::grad`). The counts are
//! deterministic, so a change that brings back a copy the executor or the
//! tape had learned to avoid fails here, not only in the benchmark's
//! `allocs_per_op`.
//!
//! The ledger (`autograph_tensor::mem`) is process-wide: this binary
//! holds this one test so that nothing else allocates while it counts.

use autograph::graph::{Graph, NodeId};
use autograph::prelude::*;
use autograph_lantern::{Engine, LValue};
use autograph_models::{data, rnn, treelstm};
use autograph_tensor::{mem, Rng64, Tensor};

/// Tensor allocations made by `op`, after one untimed call.
fn allocs<T>(mut op: impl FnMut() -> T) -> u64 {
    op();
    mem::track_begin();
    let before = mem::snapshot().allocs;
    std::hint::black_box(op());
    let after = mem::snapshot().allocs;
    mem::track_end();
    after - before
}

fn graph_allocs(graph: Graph, fetches: &[NodeId], inp: &rnn::RnnInputs) -> u64 {
    let feeds = [
        ("input_data", inp.input_data.clone()),
        ("initial_state", inp.initial_state.clone()),
        ("sequence_len", inp.sequence_len.clone()),
    ];
    let mut sess = Session::new(graph);
    sess.set_threads(1);
    allocs(|| sess.run(&feeds, fetches).expect("run"))
}

#[test]
fn rnn_run_allocation_counts_are_pinned() {
    let (feat, hidden, batch, seq) = (8, 16, 8, 32);
    let weights = rnn::RnnWeights::new(feat, hidden, 31);
    let inp = rnn::inputs(batch, seq, feat, hidden, 32);

    let staged =
        rnn::stage_autograph(&mut rnn::runtime(&weights, true).expect("load")).expect("stage");
    let staged = graph_allocs(staged.graph, &staged.outputs, &inp);
    let (graph, fetches) = rnn::build_handwritten(&weights);
    let handwritten = graph_allocs(graph, &fetches, &inp);
    // the same kernels called directly, unfused and never in place
    let official = allocs(|| rnn::official(&weights, &inp).expect("official"));

    // 490 and 391 while the VM cloned every operand. Now every
    // iteration's fused `tanh` is written over its `matmul` input and,
    // from the second on (the first state is the caller's feed), the
    // mask's `select` over the previous state: 32 + 31 fewer
    let counts = format!("staged {staged}, handwritten {handwritten}, official {official}");
    assert_eq!(staged, 427, "{counts}");
    assert_eq!(handwritten, 328, "{counts}");

    // one TreeLSTM step at the benchmark's size (dim 8, 16 leaves): the
    // eager step re-records its tape and applies SGD, Lantern's
    // `Engine::grad` records and replays its tape
    let (dim, leaves) = (8, 16);
    let weights = treelstm::TreeWeights::new(dim, 2, 5);
    let label = Tensor::from_vec_i64(vec![1], &[1]).expect("label");
    let tree = data::random_tree_value(&mut Rng64::new(7), leaves, dim);
    let mut rt = treelstm::eager_runtime(&weights).expect("load");
    let mut w = weights.clone();
    let eager = allocs(|| {
        treelstm::eager_train_step(&mut rt, &tree, &label, &mut w, 0.05).expect("eager step")
    });
    let engine = Engine::new(treelstm::stage_lantern(&weights).expect("stage"));
    let params: Vec<(&str, Tensor)> = weights
        .params
        .iter()
        .map(|(n, t)| (n.as_str(), t.clone()))
        .collect();
    let externs = [
        (
            "tree",
            data::random_tree_lantern(&mut Rng64::new(7), leaves, dim),
        ),
        ("label", LValue::tensor(label)),
    ];
    let lantern = allocs(|| engine.grad(&externs, &params).expect("lantern grad"));
    let counts = format!("eager step {eager}, lantern grad {lantern}");
    assert_eq!(eager, 1765, "{counts}");
    assert_eq!(lantern, 1734, "{counts}");
}
