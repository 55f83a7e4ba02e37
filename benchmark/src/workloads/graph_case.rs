//! The three workloads whose operation is one `Session::run` of a
//! function AutoGraph converted and staged: `rnn_small`, `rnn_wide`
//! (Table 1) and `train_loop` (Table 2).

use crate::check::{all_close, ok_close};
use crate::harness::{Ctx, COLD_SHARE, WARM_SHARE};
use crate::layers::{self, Ready, RUN_REPS, STAGE_REPS};
use crate::trace::Tracer;
use autograph_models::data::synthetic_mnist;
use autograph_models::{mnist, rnn};
use autograph_planstore::PlanStore;
use autograph_runtime::{Runtime, RuntimeError, StagedGraph};
use autograph_tensor::Tensor;

type Tensors = Result<Vec<Tensor>, String>;

/// One graph workload, built from the seed.
pub struct GraphCase {
    /// PyLite source (for the front-end probes).
    source: &'static str,
    /// Load the converted module with the workload's globals bound.
    load: Box<dyn Fn() -> Result<Runtime, RuntimeError>>,
    /// Stage the entry function.
    stage: fn(&mut Runtime) -> Result<StagedGraph, RuntimeError>,
    /// Placeholder feeds, in declaration order.
    feeds: Vec<(&'static str, Tensor)>,
    /// Load the unconverted module: the eager interpreter, an
    /// independent path with no converter, no graph and no VM.
    load_eager: Box<dyn Fn() -> Result<Runtime, RuntimeError>>,
    /// The same computation on the same inputs in that interpreter.
    call_eager: Box<dyn Fn(&mut Runtime) -> Tensors>,
    /// The same computation as direct `tensor` kernel calls: the floor a
    /// perfect executor could reach.
    floor: Box<dyn Fn() -> Tensors>,
    /// Work units one operation completes (examples, SGD steps).
    units_per_op: f64,
    /// Operations per timed block.
    n: usize,
    /// Untimed warm-up operations.
    warmup: usize,
    /// Cold stagings per block.
    stage_n: usize,
    /// Dominant matmul shape `[m, k] x [k, n]`.
    matmul: (usize, usize, usize),
}

/// Table 1's dynamic RNN at the given sizes.
fn rnn_case(
    seed: u64,
    hidden: usize,
    feat: usize,
    seq: usize,
    batch: usize,
    n: usize,
) -> GraphCase {
    // a block of `n` operations takes 45 ms at the small size and 55 ms at
    // the wide one, where ten operations are as few as leave a block's p90
    // below its slowest one
    let weights = rnn::RnnWeights::new(feat, hidden, seed);
    let inp = rnn::inputs(batch, seq, feat, hidden, seed.wrapping_add(1));
    let (w_load, w_eager, w_floor) = (weights.clone(), weights.clone(), weights);
    let (i_eager, i_floor) = (inp.clone(), inp.clone());
    GraphCase {
        source: rnn::DYNAMIC_RNN_SRC,
        load: Box::new(move || rnn::runtime(&w_load, true)),
        stage: rnn::stage_autograph,
        feeds: vec![
            ("input_data", inp.input_data),
            ("initial_state", inp.initial_state),
            ("sequence_len", inp.sequence_len),
        ],
        load_eager: Box::new(move || rnn::runtime(&w_eager, false)),
        call_eager: Box::new(move |rt| {
            let (o, s) = rnn::run_eager(rt, &i_eager).map_err(|e| e.to_string())?;
            Ok(vec![o, s])
        }),
        floor: Box::new(move || {
            let (o, s) = rnn::official(&w_floor, &i_floor).map_err(|e| e.to_string())?;
            Ok(vec![o, s])
        }),
        units_per_op: batch as f64,
        n,
        warmup: n / 5,
        stage_n: 150,
        matmul: (batch, hidden, hidden),
    }
}

/// Hidden 16, the paper's headline cell scaled to this box: kernels are
/// tiny, so dispatch, allocation and loop machinery do most of the work.
pub fn rnn_small(seed: u64) -> GraphCase {
    rnn_case(seed, 16, 8, 32, 8, 100)
}

/// Hidden 128: the same program with matmul and tanh dominating.
pub fn rnn_wide(seed: u64) -> GraphCase {
    rnn_case(seed, 128, 32, 32, 16, 10)
}

const TRAIN_BATCH: usize = 64;
const TRAIN_STEPS: usize = 10;

/// Table 2's training loop, staged by AutoGraph; one operation is ten
/// SGD steps in one `Session::run`.
pub fn train_loop(seed: u64) -> GraphCase {
    let (images, labels) = synthetic_mnist(mnist::NUM_BATCHES, TRAIN_BATCH, seed);
    let params = mnist::LinearParams::new(seed.wrapping_add(1));
    let (im_e, la_e, pa_e) = (images.clone(), labels.clone(), params.clone());
    let (im_f, la_f, pa_f) = (images.clone(), labels.clone(), params.clone());
    GraphCase {
        source: mnist::TRAIN_SRC,
        load: Box::new(|| mnist::runtime(true)),
        stage: mnist::stage_autograph,
        feeds: vec![
            ("images", images),
            ("labels", labels),
            ("w", params.w),
            ("b", params.b),
            ("steps", Tensor::scalar_i64(TRAIN_STEPS as i64)),
        ],
        load_eager: Box::new(|| mnist::runtime(false)),
        call_eager: Box::new(move |rt| {
            let p = mnist::run_eager(rt, &im_e, &la_e, &pa_e, TRAIN_STEPS)
                .map_err(|e| e.to_string())?;
            Ok(vec![p.w, p.b])
        }),
        floor: Box::new(move || sgd_floor(&im_f, &la_f, &pa_f).map_err(|e| e.to_string())),
        units_per_op: TRAIN_STEPS as f64,
        n: 10,
        warmup: 8,
        stage_n: 100,
        matmul: (TRAIN_BATCH, 784, 10),
    }
}

/// Ten SGD steps of the linear softmax model as direct kernel calls.
fn sgd_floor(
    images: &Tensor,
    labels: &Tensor,
    params: &mnist::LinearParams,
) -> Result<Vec<Tensor>, autograph_tensor::TensorError> {
    let lr = Tensor::scalar_f32(mnist::LR);
    let inv_batch = Tensor::scalar_f32(1.0 / TRAIN_BATCH as f32);
    let (mut w, mut b) = (params.w.clone(), params.b.clone());
    for i in 0..TRAIN_STEPS {
        let idx = (i % mnist::NUM_BATCHES) as i64;
        let (x, y) = (images.index_axis0(idx)?, labels.index_axis0(idx)?);
        let logits = x.matmul(&w)?.add(&b)?;
        // d(mean cross-entropy)/d(logits) = (softmax - onehot) / batch
        let dlogits = logits.softmax()?.sub(&y.one_hot(10)?)?.mul(&inv_batch)?;
        let dw = x.t()?.matmul(&dlogits)?;
        let db = dlogits.reduce_sum(Some(0))?;
        w = w.sub(&dw.mul(&lr)?)?;
        b = b.sub(&db.mul(&lr)?)?;
    }
    Ok(vec![w, b])
}

/// Plan-store key of the workload's artifact (any fixed value: one
/// artifact per store directory).
const STORE_KEY: u64 = 0xA6_B0_0C;

/// Run one graph workload.
pub fn run(ctx: &mut Ctx, build: fn(u64) -> GraphCase) -> Result<(), String> {
    let seed = ctx.seed;
    let reference = build(seed);
    let mut eager_rt = (reference.load_eager)().map_err(|e| e.to_string())?;
    let want = (reference.call_eager)(&mut eager_rt)?;

    // set-up: generate inputs, stage cold, first run, warm-up
    let (case, mut ready) = ctx.measure_setup(
        || {
            let case = build(seed);
            let mut ready =
                layers::cold_stage(&mut Tracer::new(false), 0, &*case.load, case.stage)?;
            let outs: Vec<Tensors> = (0..=case.warmup).map(|_| ready.run(&case.feeds)).collect();
            Ok(((case, ready), outs))
        },
        |outs| outs.iter().map(|o| ok_close(o, &want)).collect(),
    )?;

    // the timed run
    let feeds = &case.feeds;
    ctx.measure_run(
        case.n,
        ctx.run_share(),
        case.units_per_op,
        |_, _| ready.run(feeds),
        |got, last| last.then(|| all_close(&got, &want)),
    );

    // cold staging: source text -> callable, nothing cached
    let (load, stage) = (&*case.load, case.stage);
    let check_staged =
        |mut staged: Ready, last: bool| last.then(|| ok_close(&staged.run(feeds), &want));
    ctx.measure_stage(
        "stage_cold_ms",
        "bench.stage_cold",
        case.stage_n,
        COLD_SHARE,
        |tr, id| layers::cold_stage(tr, id, load, stage),
        check_staged,
    );

    ctx.measure_allocs(|| ready.run(feeds).is_ok());

    if ctx.trace {
        // warm staging: the same callable restored from a plan store
        let store = PlanStore::open(ctx.scratch.join("store")).map_err(|e| e.to_string())?;
        store
            .save(STORE_KEY, &ready.unit.encode())
            .map_err(|e| e.to_string())?;
        let outputs = ready.outputs.clone();
        ctx.measure_stage(
            "stage_warm_ms",
            "bench.stage_warm",
            case.stage_n * 2,
            WARM_SHARE,
            |tr, id| layers::warm_stage(tr, id, &store, STORE_KEY),
            |mut session, last| last.then(|| ok_close(&session.run(feeds, &outputs), &want)),
        );
        layers::frontend_probe(ctx, &[case.source], STAGE_REPS)?;
        layers::staging_metrics(ctx, &ready, "bench.stage_cold");
        layers::artifact_probe(ctx, &ready.unit, STORE_KEY)?;
        run_probes(ctx, &case, &mut ready, &mut eager_rt, &want)?;
    }
    Ok(())
}

/// Run-side layers: first and steady `Session::run`, the direct-kernel
/// floor on the same inputs (interleaved with the run, so both see the
/// same machine regime), the eager interpreter, kernels alone, dispatch
/// cost, and — last, because the worker-pool budget only grows — two
/// threads against one.
fn run_probes(
    ctx: &mut Ctx,
    case: &GraphCase,
    ready: &mut Ready,
    eager_rt: &mut Runtime,
    want: &[Tensor],
) -> Result<(), String> {
    let feeds = &case.feeds;
    for rep in 0..STAGE_REPS {
        let mut fresh = layers::install(&ready.unit)?;
        let first = ctx.tracer.span("graph.first_run", rep as u64, || {
            fresh.run(feeds, &ready.outputs)
        });
        ctx.tally.record(ok_close(&first, want));
    }
    for rep in 0..RUN_REPS {
        let floor = ctx
            .tracer
            .span("tensor.kernel_floor", rep as u64, || (case.floor)());
        ctx.tally.record(ok_close(&floor, want));
        let run = ctx
            .tracer
            .span("graph.run", rep as u64, || ready.run(feeds));
        ctx.tally.record(run.is_ok());
    }
    let eager_us = ctx.probe_metric("eager.call_us", "eager.call", 10, || {
        (case.call_eager)(eager_rt)
    });
    ctx.span_metric("graph.first_run_us", "graph.first_run");
    let run_us = ctx.span_metric("graph.run_us", "graph.run");
    let floor_us = ctx.span_metric("tensor.kernel_floor_us", "tensor.kernel_floor");
    let m = &mut ctx.metrics;
    m.set("graph.overhead_us", run_us - floor_us, RUN_REPS);
    m.set("tensor.kernel_share", floor_us / run_us, RUN_REPS);
    m.set("eager.graph_speedup", eager_us / run_us, 10);

    let (rows, _, cols) = case.matmul;
    layers::kernel_probe(ctx, case.matmul, rows * cols);
    layers::dispatch_probe(ctx)?;

    let t1 = ctx.probe("par.threads_1", RUN_REPS, || ready.run(feeds));
    // the second thread needs a second CPU: give up the pin (the pool
    // spawns its worker on the first two-thread run, after this)
    if let Some(pinned) = &ctx.pinned {
        pinned.release();
    }
    ready.session.set_threads(2);
    let t2 = ctx.probe("par.threads_2", RUN_REPS, || ready.run(feeds));
    ctx.metrics.set("par.t2_over_t1", t2 / t1, RUN_REPS * 2);
    Ok(())
}
