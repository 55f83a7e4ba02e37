//! `treelstm_lantern`: Table 3's recursive TreeLSTM staged to the
//! Lantern backend; one operation is one SGD step on one tree. Runs
//! `lantern` and `tensor` and never touches `graph`.

use crate::check::{close, close_f32};
use crate::gen::Rng;
use crate::harness::{Ctx, COLD_SHARE, RUN_SHARE, WARM_SHARE};
use crate::layers::{self, RUN_REPS, STAGE_REPS};
use autograph_lantern::value::{LValue, Record};
use autograph_lantern::Engine;
use autograph_models::treelstm::{self, TreeWeights};
use autograph_runtime::{Runtime, Value};
use autograph_tensor::Tensor;
use std::cell::RefCell;

const DIM: usize = 8;
const LEAVES: usize = 16;
const TREES: usize = 10;
const LR: f32 = 0.05;
/// SGD steps per timed block, about 50 ms: every tree six times.
const N: usize = 60;
/// Untimed warm-up steps.
const WARMUP: usize = 40;
/// Stagings per block, about 50 ms.
const STAGE_N: usize = 125;

/// The forest in both value systems (same shapes and leaves), labels and
/// initial weights. The seed gives weights and leaf embeddings; the ten
/// tree *shapes* are the same for every seed, because a step's time
/// follows the shape (measured: ±5 % between forests) and the seed must
/// not change the amount of work.
struct Data {
    weights: TreeWeights,
    trees_lantern: Vec<LValue>,
    trees_eager: Vec<Value>,
    labels: Vec<Tensor>,
}

/// A binary tree of `leaves` leaves in both value systems: the split at
/// every node comes from `shape`, the leaf embeddings from `leaf`.
fn tree(shape: &mut Rng, leaf: &mut Rng, leaves: usize) -> (LValue, Value) {
    if leaves == 1 {
        let e: Vec<f32> = (0..DIM).map(|_| leaf.uniform(-0.8, 0.8)).collect();
        let e = Tensor::from_vec(e, &[1, DIM]).expect("embedding shape");
        return (
            LValue::Record(Record::new(vec![
                ("is_leaf", LValue::Bool(true)),
                ("embedding", LValue::tensor(e.clone())),
            ])),
            Value::record(vec![
                ("is_leaf", Value::Bool(true)),
                ("embedding", Value::tensor(e)),
            ]),
        );
    }
    let left_n = 1 + shape.below(leaves - 1);
    let (left_l, left_v) = tree(shape, leaf, left_n);
    let (right_l, right_v) = tree(shape, leaf, leaves - left_n);
    (
        LValue::Record(Record::new(vec![
            ("is_leaf", LValue::Bool(false)),
            ("left", left_l),
            ("right", right_l),
        ])),
        Value::record(vec![
            ("is_leaf", Value::Bool(false)),
            ("left", left_v),
            ("right", right_v),
        ]),
    )
}

impl Data {
    fn new(seed: u64) -> Data {
        let (trees_lantern, trees_eager) = (0..TREES)
            .map(|i| {
                tree(
                    &mut Rng::new(0x7EE5, i as u64),
                    &mut Rng::new(seed, i as u64),
                    LEAVES,
                )
            })
            .unzip();
        Data {
            weights: TreeWeights::new(DIM, 2, seed),
            trees_lantern,
            trees_eager,
            labels: (0..TREES)
                .map(|i| Tensor::from_vec_i64(vec![(i % 2) as i64], &[1]).expect("label shape"))
                .collect(),
        }
    }
}

/// A finished step kept for checking: the weights it started from, the
/// tree it used, and what it produced.
struct Step {
    tree: usize,
    before: TreeWeights,
    loss: f32,
    after: TreeWeights,
}

/// Whether the eager interpreter (tape autodiff over the interpreted
/// recursion), started from the same weights on the same tree, arrives
/// at the same loss and the same updated weights.
fn matches_eager(rt: &mut Runtime, data: &Data, step: &Step) -> bool {
    let mut w = step.before.clone();
    let tree = &data.trees_eager[step.tree];
    match treelstm::eager_train_step(rt, tree, &data.labels[step.tree], &mut w, LR) {
        Ok(loss) => {
            close_f32(loss, step.loss)
                && w.params
                    .iter()
                    .zip(&step.after.params)
                    .all(|((_, a), (_, b))| close(a, b))
        }
        Err(_) => false,
    }
}

fn stage(weights: &TreeWeights) -> Result<Engine, String> {
    let program = treelstm::stage_lantern(weights).map_err(|e| e.to_string())?;
    Ok(Engine::new(program))
}

fn train_step(
    engine: &Engine,
    data: &Data,
    tree: usize,
    w: &mut TreeWeights,
) -> Result<f32, String> {
    treelstm::lantern_train_step(engine, &data.trees_lantern[tree], &data.labels[tree], w, LR)
        .map_err(|e| e.to_string())
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    let reference = Data::new(seed);
    let eager_rt =
        RefCell::new(treelstm::eager_runtime(&reference.weights).map_err(|e| e.to_string())?);
    let eager_ok = |step: &Step| matches_eager(&mut eager_rt.borrow_mut(), &reference, step);

    // set-up: generate forest and weights, stage to Lantern, first step,
    // warm-up steps
    let (data, engine) = ctx.measure_setup(
        || {
            let data = Data::new(seed);
            let engine = stage(&data.weights)?;
            let mut w = data.weights.clone();
            let mut steps = Vec::with_capacity(WARMUP + 1);
            for i in 0..=WARMUP {
                let (tree, before) = (i % TREES, w.clone());
                let loss = train_step(&engine, &data, tree, &mut w)?;
                let after = w.clone();
                steps.push(Step {
                    tree,
                    before,
                    loss,
                    after,
                });
            }
            Ok(((data, engine), steps))
        },
        |steps| steps.iter().map(eager_ok).collect(),
    )?;

    // the timed run (Lantern has no warm staging, so it has that share
    // in both runs): weights restart from their initial values at every
    // block, so every block does the same arithmetic; the block's last
    // step keeps what the eager reference needs
    let weights = RefCell::new(data.weights.clone());
    let step = |id: u64| -> Result<Option<Step>, String> {
        let tree = id as usize % TREES;
        let mut w = weights.borrow_mut();
        if id as usize % N + 1 < N {
            return train_step(&engine, &data, tree, &mut w).map(|_| None);
        }
        let before = w.clone();
        let loss = train_step(&engine, &data, tree, &mut w)?;
        let after = w.clone();
        Ok(Some(Step {
            tree,
            before,
            loss,
            after,
        }))
    };
    ctx.measure_run(
        N,
        RUN_SHARE + WARM_SHARE,
        1.0,
        |_, id| step(id),
        |kept, last| {
            last.then(|| {
                *weights.borrow_mut() = data.weights.clone();
                kept.as_ref().is_some_and(eager_ok)
            })
        },
    );

    // cold staging: source text -> engine (Lantern has no plan store,
    // so there is no warm staging)
    ctx.measure_stage(
        "stage_cold_ms",
        "bench.stage_cold",
        STAGE_N,
        COLD_SHARE,
        |tr, id| {
            let program = tr
                .span("lantern.stage", id, || {
                    treelstm::stage_lantern(&data.weights)
                })
                .map_err(|e| e.to_string())?;
            Ok(tr.span("lantern.engine_new", id, || Engine::new(program)))
        },
        |fresh: Engine, last| {
            last.then(|| {
                let (before, mut after) = (data.weights.clone(), data.weights.clone());
                train_step(&fresh, &data, 0, &mut after).is_ok_and(|loss| {
                    eager_ok(&Step {
                        tree: 0,
                        before,
                        loss,
                        after,
                    })
                })
            })
        },
    );

    let mut w = data.weights.clone();
    ctx.measure_allocs(|| train_step(&engine, &data, 0, &mut w).is_ok());

    if ctx.trace {
        layers(ctx, &data, &engine, &mut eager_rt.borrow_mut())?;
    }
    Ok(())
}

/// The Lantern layers one step is made of — forward evaluation,
/// evaluation with reverse AD, the SGD update — against the eager
/// interpreter's step, and the front end on the model's source.
fn layers(
    ctx: &mut Ctx,
    data: &Data,
    engine: &Engine,
    eager_rt: &mut Runtime,
) -> Result<(), String> {
    ctx.span_metric("lantern.stage_us", "lantern.stage");
    ctx.span_metric("lantern.engine_new_us", "lantern.engine_new");
    let params: Vec<(&str, Tensor)> = data
        .weights
        .params
        .iter()
        .map(|(n, t)| (n.as_str(), t.clone()))
        .collect();
    let externs = [
        ("tree", data.trees_lantern[0].clone()),
        ("label", LValue::tensor(data.labels[0].clone())),
    ];
    let mut ok = true;
    ctx.probe_metric("lantern.forward_us", "lantern.forward", RUN_REPS, || {
        ok &= engine.run_values(&externs, &params).is_ok();
    });
    let mut grads = None;
    ctx.probe_metric("lantern.grad_us", "lantern.grad", RUN_REPS, || {
        grads = engine.grad(&externs, &params).ok();
    });
    let (_, grads) = grads.ok_or("lantern gradient failed")?;
    // the engine returns gradients in the program's parameter order:
    // update a copy of the weights laid out the same way
    let mut by_program = TreeWeights {
        params: engine
            .program()
            .param_names
            .iter()
            .filter_map(|n| {
                data.weights
                    .params
                    .iter()
                    .find(|(name, _)| name == n)
                    .cloned()
            })
            .collect(),
    };
    ctx.probe_metric("lantern.sgd_us", "lantern.sgd", RUN_REPS, || {
        by_program.sgd(&grads, LR);
    });
    let mut w = data.weights.clone();
    let eager_us = ctx.probe_metric(
        "eager.treelstm_step_us",
        "eager.treelstm_step",
        STAGE_REPS,
        || {
            ok &= treelstm::eager_train_step(
                eager_rt,
                &data.trees_eager[0],
                &data.labels[0],
                &mut w,
                LR,
            )
            .is_ok();
        },
    );
    ctx.tally.record(ok);
    let step_us = ctx.tracer.median_us("bench.op");
    ctx.metrics.set("eager.call_us", eager_us, STAGE_REPS);
    ctx.metrics
        .set("eager.graph_speedup", eager_us / step_us, STAGE_REPS);

    layers::frontend_probe(ctx, &[treelstm::TREELSTM_SRC], STAGE_REPS)?;
    layers::kernel_probe(ctx, (1, 2 * DIM, DIM), DIM);
    Ok(())
}
