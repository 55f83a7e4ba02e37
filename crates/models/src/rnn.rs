//! Table 1 — the dynamic RNN in the paper's four configurations.
//!
//! * **Eager** — the paper's imperative snippet (§9 "RNN cells"), executed
//!   op-by-op by the PyLite interpreter with no conversion;
//! * **AutoGraph** — the *same source*, converted and staged once into a
//!   dataflow graph, then executed through `Session::run`;
//! * **Handwritten** — the cumbersome `tf.while_loop` version of
//!   Appendix A, built directly against the graph builder;
//! * **Official** — a fused kernel (the `tf.dynamic_rnn` analog): a plain
//!   Rust loop over tensor kernels, no interpreter, no graph.

use autograph_graph::builder::{GraphBuilder, SubGraphBuilder};
use autograph_graph::ir::{Graph, NodeId, Op, OpKind};
use autograph_runtime::runtime::GraphArg;
use autograph_runtime::{Runtime, RuntimeError, Value};
use autograph_tensor::{DType, Rng64, Tensor};

/// The paper's §9 code snippet, adapted to PyLite (the `tf.where`
/// condition gains an `expand_dims` so the per-batch mask broadcasts over
/// the hidden dimension).
pub const DYNAMIC_RNN_SRC: &str = "\
def rnn_cell(x, state):
    h = tf.tanh(tf.matmul(x, wx) + tf.matmul(state, wh) + b)
    return h, h

def dynamic_rnn(input_data, initial_state, sequence_len):
    input_data = tf.transpose(input_data, (1, 0, 2))
    outputs = []
    ag.set_element_type(outputs, tf.float32)
    state = initial_state
    max_len = tf.reduce_max(sequence_len)
    for i in tf.range(max_len):
        prev_state = state
        output, state = rnn_cell(input_data[i], state)
        keep = tf.expand_dims(i < sequence_len, 1)
        state = tf.where(keep, state, prev_state)
        outputs.append(output)
    outputs = ag.stack(outputs)
    outputs = tf.transpose(outputs, (1, 0, 2))
    return outputs, state
";

/// RNN cell weights (basic tanh cell: `h' = tanh(x Wx + h Wh + b)`).
#[derive(Debug, Clone)]
pub struct RnnWeights {
    /// Input projection `[feat, hidden]`.
    pub wx: Tensor,
    /// Recurrent projection `[hidden, hidden]`.
    pub wh: Tensor,
    /// Bias `[hidden]`.
    pub b: Tensor,
}

impl RnnWeights {
    /// Deterministic random weights.
    pub fn new(feat: usize, hidden: usize, seed: u64) -> RnnWeights {
        let mut rng = Rng64::new(seed);
        RnnWeights {
            wx: rng.normal_tensor(&[feat, hidden], 0.3),
            wh: rng.normal_tensor(&[hidden, hidden], 0.3),
            b: rng.normal_tensor(&[hidden], 0.1),
        }
    }
}

/// A benchmark workload: inputs `[batch, time, feat]`, zero initial state,
/// per-example sequence lengths.
#[derive(Debug, Clone)]
pub struct RnnInputs {
    /// Input activations.
    pub input_data: Tensor,
    /// Initial state `[batch, hidden]` (zeros).
    pub initial_state: Tensor,
    /// `[batch]` i64 sequence lengths.
    pub sequence_len: Tensor,
}

/// Generate a deterministic workload.
pub fn inputs(batch: usize, time: usize, feat: usize, hidden: usize, seed: u64) -> RnnInputs {
    let mut rng = Rng64::new(seed);
    let input_data = rng.normal_tensor(&[batch, time, feat], 1.0);
    let initial_state = Tensor::zeros(DType::F32, &[batch, hidden]);
    // most sequences full-length, a few shorter (exercises the mask)
    let lens: Vec<i64> = (0..batch)
        .map(|i| {
            if i % 4 == 3 {
                (time / 2).max(1) as i64
            } else {
                time as i64
            }
        })
        .collect();
    let sequence_len = Tensor::from_vec_i64(lens, &[batch]).expect("shape");
    RnnInputs {
        input_data,
        initial_state,
        sequence_len,
    }
}

/// Load the PyLite module (converted or not) with the weights bound as
/// module globals.
///
/// # Errors
///
/// Propagates load/conversion errors.
pub fn runtime(weights: &RnnWeights, convert: bool) -> Result<Runtime, RuntimeError> {
    let rt = Runtime::load(DYNAMIC_RNN_SRC, convert)?;
    rt.globals.set("wx", Value::tensor(weights.wx.clone()));
    rt.globals.set("wh", Value::tensor(weights.wh.clone()));
    rt.globals.set("b", Value::tensor(weights.b.clone()));
    Ok(rt)
}

/// Run the eager (interpreted) configuration once.
///
/// # Errors
///
/// Propagates interpreter errors.
pub fn run_eager(rt: &mut Runtime, inp: &RnnInputs) -> Result<(Tensor, Tensor), RuntimeError> {
    let out = rt.call(
        "dynamic_rnn",
        vec![
            Value::tensor(inp.input_data.clone()),
            Value::tensor(inp.initial_state.clone()),
            Value::tensor(inp.sequence_len.clone()),
        ],
    )?;
    match out {
        Value::Tuple(items) => {
            let o = items[0].as_eager_tensor()?;
            let s = items[1].as_eager_tensor()?;
            Ok((o, s))
        }
        other => Err(RuntimeError::new(format!(
            "expected (outputs, state), got {}",
            other.kind()
        ))),
    }
}

/// Stage the converted function into a graph (placeholders:
/// `input_data`, `initial_state`, `sequence_len`).
///
/// # Errors
///
/// Propagates staging errors.
pub fn stage_autograph(rt: &mut Runtime) -> Result<autograph_runtime::StagedGraph, RuntimeError> {
    rt.stage_to_graph(
        "dynamic_rnn",
        vec![
            GraphArg::Placeholder("input_data".into()),
            GraphArg::Placeholder("initial_state".into()),
            GraphArg::Placeholder("sequence_len".into()),
        ],
    )
}

/// Appendix A: the handwritten `tf.while_loop` implementation, built
/// directly against the graph builder. Returns the graph and its two
/// outputs `(outputs, state)`.
pub fn build_handwritten(weights: &RnnWeights) -> (Graph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    b.push_scope("dynamic_rnn_handwritten");
    let input = b.placeholder("input_data");
    let init_state = b.placeholder("initial_state");
    let seq_len = b.placeholder("sequence_len");
    let wx = b.constant(weights.wx.clone());
    let wh = b.constant(weights.wh.clone());
    let bias = b.constant(weights.b.clone());

    let input_t = b.add(Op::Transpose(vec![1, 0, 2]), vec![input]); // [time,batch,feat]
    let max_len = b.add(Op::ReduceMax(None), vec![seq_len]);
    let zero = b.constant(Tensor::scalar_i64(0));
    let outputs0 = b.add(OpKind::ArrayNew, vec![]);

    // Loop state tuple (9 entries): 0=i, 1=state, 2=outputs, then the
    // loop invariants threaded through as extra state:
    // 3=max_len, 4=input_t, 5=seq_len, 6=wx, 7=wh, 8=bias.
    let cond_g = {
        let (mut sb, p) = SubGraphBuilder::new(9);
        let lt = sb.b.add(Op::Less, vec![p[0], p[3]]);
        sb.finish(vec![lt])
    };
    let body_g = {
        let (mut sb, p) = SubGraphBuilder::new(9);
        let (i, state, outputs) = (p[0], p[1], p[2]);
        let (input_t, seq_len, wx, wh, bias) = (p[4], p[5], p[6], p[7], p[8]);
        let x = sb.b.add(Op::IndexAxis0, vec![input_t, i]);
        let xw = sb.b.matmul(x, wx);
        let hw = sb.b.matmul(state, wh);
        let sum = sb.b.add_op(xw, hw);
        let act = sb.b.add_op(sum, bias);
        let h = sb.b.tanh(act);
        let keep0 = sb.b.add(Op::Less, vec![i, seq_len]);
        let keep = sb.b.add(Op::ExpandDims(1), vec![keep0]);
        let state2 = sb.b.add(Op::Select, vec![keep, h, state]);
        let outputs2 = sb.b.add(OpKind::ArrayPush, vec![outputs, h]);
        let one = sb.b.constant(Tensor::scalar_i64(1));
        let i2 = sb.b.add_op(i, one);
        sb.finish(vec![
            i2, state2, outputs2, p[3], p[4], p[5], p[6], p[7], p[8],
        ])
    };

    let w = b.add(
        OpKind::While {
            cond_g,
            body_g,
            max_iters: None,
        },
        vec![
            zero, init_state, outputs0, max_len, input_t, seq_len, wx, wh, bias,
        ],
    );
    let final_state = b.tuple_get(w, 1);
    let outputs_arr = b.tuple_get(w, 2);
    let stacked = b.add(OpKind::ArrayStack, vec![outputs_arr]);
    let out = b.add(Op::Transpose(vec![1, 0, 2]), vec![stacked]);
    b.pop_scope();
    (b.finish(), vec![out, final_state])
}

/// The "Official" configuration: a fused Rust kernel looping directly over
/// tensor ops (the `tf.dynamic_rnn` built-in analog).
///
/// # Errors
///
/// Propagates kernel errors.
pub fn official(
    weights: &RnnWeights,
    inp: &RnnInputs,
) -> Result<(Tensor, Tensor), autograph_tensor::TensorError> {
    let input_t = inp.input_data.transpose(&[1, 0, 2])?; // [time, batch, feat]
    let time = input_t.shape()[0];
    let max_len = inp.sequence_len.reduce_max(None)?.scalar_value_i64()? as usize;
    let mut state = inp.initial_state.clone();
    let mut outputs = Vec::with_capacity(time);
    for i in 0..max_len.min(time) {
        let x = input_t.index_axis0(i as i64)?;
        let h = x
            .matmul(&weights.wx)?
            .add(&state.matmul(&weights.wh)?)?
            .add(&weights.b)?
            .tanh()?;
        let keep = Tensor::scalar_i64(i as i64)
            .less(&inp.sequence_len)?
            .expand_dims(1)?;
        state = Tensor::select(&keep, &h, &state)?;
        outputs.push(h);
    }
    let stacked = Tensor::stack(&outputs)?; // [time, batch, hidden]
    Ok((stacked.transpose(&[1, 0, 2])?, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_graph::Session;

    fn close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape(), "shape mismatch");
        for (x, y) in a.as_f32().unwrap().iter().zip(b.as_f32().unwrap()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn all_four_configurations_agree() {
        let (batch, time, feat, hidden) = (4, 6, 3, 5);
        let w = RnnWeights::new(feat, hidden, 42);
        let inp = inputs(batch, time, feat, hidden, 7);

        // official (reference)
        let (o_ref, s_ref) = official(&w, &inp).unwrap();
        assert_eq!(o_ref.shape(), &[batch, time, hidden]);

        // eager interpreted
        let mut rt = runtime(&w, false).unwrap();
        let (o_eager, s_eager) = run_eager(&mut rt, &inp).unwrap();
        close(&o_eager, &o_ref, 1e-5);
        close(&s_eager, &s_ref, 1e-5);

        // converted, interpreted eagerly (dynamic dispatch falls through)
        let mut rt_conv = runtime(&w, true).unwrap();
        let (o_conv, _) = run_eager(&mut rt_conv, &inp).unwrap();
        close(&o_conv, &o_ref, 1e-5);

        // autograph staged
        let staged = stage_autograph(&mut rt_conv).unwrap();
        assert!(staged
            .graph
            .nodes
            .iter()
            .any(|n| matches!(n.op, OpKind::While { .. })));
        let mut sess = Session::new(staged.graph);
        let out = sess
            .run(
                &[
                    ("input_data", inp.input_data.clone()),
                    ("initial_state", inp.initial_state.clone()),
                    ("sequence_len", inp.sequence_len.clone()),
                ],
                &staged.outputs,
            )
            .unwrap();
        close(&out[0], &o_ref, 1e-5);
        close(&out[1], &s_ref, 1e-5);

        // handwritten graph
        let (g, fetches) = build_handwritten(&w);
        let mut sess2 = Session::new(g);
        let out2 = sess2
            .run(
                &[
                    ("input_data", inp.input_data.clone()),
                    ("initial_state", inp.initial_state.clone()),
                    ("sequence_len", inp.sequence_len.clone()),
                ],
                &fetches,
            )
            .unwrap();
        close(&out2[0], &o_ref, 1e-5);
        close(&out2[1], &s_ref, 1e-5);
    }

    #[test]
    fn sequence_mask_freezes_state() {
        // with seq_len = 1 for every example, the state after time 1 stays
        let (batch, time, feat, hidden) = (2, 4, 3, 3);
        let w = RnnWeights::new(feat, hidden, 1);
        let mut inp = inputs(batch, time, feat, hidden, 2);
        inp.sequence_len = Tensor::from_vec_i64(vec![1, 1], &[2]).unwrap();
        let (_, s) = official(&w, &inp).unwrap();
        // recompute: single step from zeros
        let x0 = inp
            .input_data
            .transpose(&[1, 0, 2])
            .unwrap()
            .index_axis0(0)
            .unwrap();
        let h1 = x0
            .matmul(&w.wx)
            .unwrap()
            .add(&inp.initial_state.matmul(&w.wh).unwrap())
            .unwrap()
            .add(&w.b)
            .unwrap()
            .tanh()
            .unwrap();
        close(&s, &h1, 1e-6);
    }

    #[test]
    fn staged_graph_reusable_across_batches() {
        let (batch, time, feat, hidden) = (3, 5, 2, 4);
        let w = RnnWeights::new(feat, hidden, 5);
        let mut rt = runtime(&w, true).unwrap();
        let staged = stage_autograph(&mut rt).unwrap();
        let mut sess = Session::new(staged.graph);
        for seed in [11, 12] {
            let inp = inputs(batch, time, feat, hidden, seed);
            let (o_ref, _) = official(&w, &inp).unwrap();
            let out = sess
                .run(
                    &[
                        ("input_data", inp.input_data.clone()),
                        ("initial_state", inp.initial_state.clone()),
                        ("sequence_len", inp.sequence_len.clone()),
                    ],
                    &staged.outputs,
                )
                .unwrap();
            close(&out[0], &o_ref, 1e-5);
        }
    }
}
