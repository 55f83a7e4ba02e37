//! Layer probes shared by several workloads, and the harness-driven
//! staging pipeline. Each probe times calls into one crate's public
//! functions from outside; the layer name is the crate name.

use crate::gen;
use crate::harness::Ctx;
use crate::trace::Tracer;
use autograph_analysis::cfg::Cfg;
use autograph_analysis::{dataflow, SymbolSet};
use autograph_graph::artifact::CompiledUnit;
use autograph_graph::ir::NodeId;
use autograph_graph::Session;
use autograph_planstore::{Load, PlanStore};
use autograph_pylang::StmtKind;
use autograph_runtime::runtime::GraphArg;
use autograph_runtime::{Runtime, RuntimeError, StagedGraph};
use autograph_tensor::Tensor;
use autograph_transforms::ConversionConfig;

/// Repetitions of a staging-side probe.
pub const STAGE_REPS: usize = 30;
/// Repetitions of a kernel or run probe.
pub const RUN_REPS: usize = 50;
/// Version tag of every plan-store artifact the benchmark writes.
pub const PLAN_TAG: &str = "autograph-benchmark-v1";

/// A staged, compiled, installed graph function ready to run.
pub struct Ready {
    /// Session with the compiled program installed.
    pub session: Session,
    /// Fetch ids of the function's results.
    pub outputs: Vec<NodeId>,
    /// The compiled unit (what a plan store persists).
    pub unit: CompiledUnit,
    /// Top-level graph nodes as staged.
    pub staged_nodes: usize,
    /// Top-level graph nodes after optimization.
    pub nodes_after_opt: usize,
}

impl Ready {
    /// Run the function on `feeds`.
    pub fn run(&mut self, feeds: &[(&str, Tensor)]) -> Result<Vec<Tensor>, String> {
        self.session
            .run(feeds, &self.outputs)
            .map_err(|e| e.to_string())
    }
}

/// Optimize, validate, compile and install an already staged graph —
/// the back half of cold staging, one span per phase.
pub fn finish_staging(tr: &mut Tracer, id: u64, staged: &StagedGraph) -> Result<Ready, String> {
    let (graph, outputs, _) = tr.span("graph.optimize", id, || {
        autograph_graph::optimize::optimize(&staged.graph, &staged.outputs)
    });
    tr.span("graph.validate", id, || {
        autograph_graph::shapes::validate(&graph)
    })
    .map_err(|e| e.to_string())?;
    let nodes_after_opt = graph.nodes.len();
    let unit = tr
        .span("graph.compile", id, || {
            CompiledUnit::build(graph, outputs.clone())
        })
        .map_err(|e| e.to_string())?;
    let session = tr.span("graph.install", id, || install(&unit))?;
    Ok(Ready {
        session,
        outputs,
        unit,
        staged_nodes: staged.graph.nodes.len(),
        nodes_after_opt,
    })
}

/// Source text → callable with nothing cached: load and convert (with
/// the workload's globals bound), stage, then [`finish_staging`].
pub fn cold_stage(
    tr: &mut Tracer,
    id: u64,
    load: &dyn Fn() -> Result<Runtime, RuntimeError>,
    stage: fn(&mut Runtime) -> Result<StagedGraph, RuntimeError>,
) -> Result<Ready, String> {
    let mut rt = tr
        .span("runtime.load", id, load)
        .map_err(|e| e.to_string())?;
    let staged = tr
        .span("runtime.stage", id, || stage(&mut rt))
        .map_err(|e| e.to_string())?;
    finish_staging(tr, id, &staged)
}

/// A fresh session with `unit`'s program pre-installed.
pub fn install(unit: &CompiledUnit) -> Result<Session, String> {
    let mut session = Session::new(unit.graph.clone());
    session.install_compiled(unit).map_err(|e| e.to_string())?;
    Ok(session)
}

/// Restore a callable from a populated plan store: load, decode,
/// install — warm staging, one span per phase.
pub fn warm_stage(
    tr: &mut Tracer,
    id: u64,
    store: &PlanStore,
    key: u64,
) -> Result<Session, String> {
    let payload = match tr.span("planstore.load", id, || store.load(key)) {
        Load::Hit { payload, .. } => payload,
        other => return Err(format!("plan store did not hit: {other:?}")),
    };
    let unit = tr
        .span("graph.decode", id, || CompiledUnit::decode(&payload))
        .map_err(|e| e.to_string())?;
    tr.span("graph.install", id, || install(&unit))
}

/// Front-end layers on `sources` (one program, or the eight of
/// `stage_chain`): `pylang` lexing and parsing, `analysis` CFG plus
/// dataflow per function body, `transforms` conversion. Counts are
/// per-program averages; every source is processed `reps` times.
pub fn frontend_probe(ctx: &mut Ctx, sources: &[&str], reps: usize) -> Result<(), String> {
    let config = ConversionConfig::default();
    let (mut tokens, mut cfg_nodes, mut converted_bytes) = (0usize, 0usize, 0usize);
    for rep in 0..reps {
        for (i, src) in sources.iter().enumerate() {
            let id = (rep * sources.len() + i) as u64;
            let tr = &mut ctx.tracer;
            let toks = tr
                .span("pylang.tokenize", id, || {
                    autograph_pylang::lexer::tokenize(src)
                })
                .map_err(|e| e.to_string())?;
            let module = tr
                .span("pylang.parse", id, || autograph_pylang::parse_module(src))
                .map_err(|e| e.to_string())?;
            let nodes = tr.span("analysis.cfg_dataflow", id, || {
                let mut nodes = 0;
                for stmt in &module.body {
                    if let StmtKind::FunctionDef { params, body, .. } = &stmt.kind {
                        let cfg = Cfg::build(body);
                        let params: SymbolSet = params.iter().map(|p| p.name.clone()).collect();
                        std::hint::black_box(dataflow::liveness(&cfg, &SymbolSet::new()));
                        std::hint::black_box(dataflow::reaching_definitions(&cfg, &params));
                        nodes += cfg.len();
                    }
                }
                nodes
            });
            let converted = tr
                .span("transforms.convert", id, || {
                    autograph_transforms::convert_module(module, &config)
                })
                .map_err(|e| e.to_string())?;
            if rep == 0 {
                tokens += toks.len();
                cfg_nodes += nodes;
                converted_bytes +=
                    autograph_pylang::codegen::ast_to_source(&converted.module).len();
            }
        }
    }
    let per_program = |total: usize| total as f64 / sources.len() as f64;
    let source_bytes: usize = sources.iter().map(|s| s.len()).sum();
    for (metric, span) in [
        ("pylang.tokenize_us", "pylang.tokenize"),
        ("pylang.parse_us", "pylang.parse"),
        ("analysis.cfg_dataflow_us", "analysis.cfg_dataflow"),
        ("transforms.convert_us", "transforms.convert"),
    ] {
        ctx.span_metric(metric, span);
    }
    for (metric, total) in [
        ("pylang.tokens", tokens),
        ("pylang.source_bytes", source_bytes),
        ("analysis.cfg_nodes", cfg_nodes),
        ("transforms.converted_bytes", converted_bytes),
    ] {
        ctx.metrics.set(metric, per_program(total), sources.len());
    }
    Ok(())
}

/// Report the graph-side staging phases from the spans recorded so far
/// by [`cold_stage`] / [`finish_staging`], and the residual: the share of
/// the one-call cold staging time (`cold_us`, the median of span
/// `cold_span`) that the harness-driven phases do not explain.
/// `runtime.load` spans include parsing and conversion, which
/// [`frontend_probe`] timed on the same source; the difference is the
/// runtime's own share of loading.
pub fn staging_metrics(ctx: &mut Ctx, ready: &Ready, cold_span: &str) {
    let tr = &ctx.tracer;
    let front = tr.median_us("pylang.parse") + tr.median_us("transforms.convert");
    let load_self = (tr.median_us("runtime.load") - front).max(0.0);
    let cold_us = tr.median_us(cold_span);
    let mut explained = front + load_self + tr.median_us("graph.install");
    for (metric, span) in [
        ("runtime.stage_us", "runtime.stage"),
        ("graph.optimize_us", "graph.optimize"),
        ("graph.validate_us", "graph.validate"),
        ("graph.compile_us", "graph.compile"),
    ] {
        explained += ctx.span_metric(metric, span);
    }
    let (tr, m) = (&ctx.tracer, &mut ctx.metrics);
    m.set("runtime.load_self_us", load_self, tr.count("runtime.load"));
    m.set("runtime.staged_nodes", ready.staged_nodes as f64, 1);
    m.set("graph.nodes_after_opt", ready.nodes_after_opt as f64, 1);
    m.set(
        "bench.stage_residual_pct",
        (cold_us - explained) / cold_us * 100.0,
        tr.count(cold_span),
    );
}

/// Artifact layers on one compiled unit: `graph` encode / decode /
/// install and `planstore` save / load, plus the hit share of the loads
/// the harness issued (one deliberate miss among them).
pub fn artifact_probe(ctx: &mut Ctx, unit: &CompiledUnit, key: u64) -> Result<(), String> {
    let store = PlanStore::open(ctx.scratch.join("probe-store")).map_err(|e| e.to_string())?;
    let bytes = unit.encode();
    ctx.metrics.set("artifact_bytes", bytes.len() as f64, 1);
    ctx.probe_metric("graph.encode_us", "graph.encode", STAGE_REPS, || {
        unit.encode()
    });
    let mut saved = true;
    ctx.probe_metric("planstore.save_us", "planstore.save", STAGE_REPS, || {
        saved &= store.save(key, &bytes).is_ok();
    });
    if !saved {
        return Err("plan store save failed".to_string());
    }
    let (mut hits, mut loads) = (0usize, 1usize);
    if matches!(store.load(key ^ 1), Load::Hit { .. }) {
        return Err("plan store hit on a key never saved".to_string());
    }
    for rep in 0..STAGE_REPS {
        loads += 1;
        hits += usize::from(warm_stage(&mut ctx.tracer, rep as u64, &store, key).is_ok());
    }
    ctx.span_metric("planstore.load_us", "planstore.load");
    ctx.span_metric("graph.decode_us", "graph.decode");
    ctx.span_metric("graph.install_us", "graph.install");
    ctx.metrics
        .set("planstore.hit_share", hits as f64 / loads as f64, loads);
    Ok(())
}

/// `tensor` kernels alone at the workload's dominant shapes: an
/// `[m, k] x [k, n]` matmul (skipped when `k == 0`) and `tanh` / `add`
/// over `elems` elements. FLOPs are computed, not counted by hardware.
pub fn kernel_probe(ctx: &mut Ctx, (m, k, n): (usize, usize, usize), elems: usize) {
    let ramp = |len: usize, shape: &[usize]| {
        Tensor::from_vec(
            (0..len).map(|i| (i % 17) as f32 * 0.01 - 0.08).collect(),
            shape,
        )
        .expect("probe shape")
    };
    if k > 0 {
        let (a, b) = (ramp(m * k, &[m, k]), ramp(k * n, &[k, n]));
        let us = ctx.probe_metric("tensor.matmul_us", "tensor.matmul", RUN_REPS * 4, || {
            a.matmul(&b)
        });
        let gflops = (2 * m * k * n) as f64 / (us * 1e3);
        ctx.metrics
            .set("tensor.matmul_gflops", gflops, RUN_REPS * 4);
    }
    let (x, y) = (ramp(elems, &[elems]), ramp(elems, &[elems]));
    let tanh_us = ctx.probe("tensor.tanh", RUN_REPS * 4, || x.tanh());
    let add_us = ctx.probe("tensor.add", RUN_REPS * 4, || x.add(&y));
    let per_elem = |us: f64| us * 1e3 / elems as f64;
    ctx.metrics
        .set("tensor.tanh_ns_per_elem", per_elem(tanh_us), RUN_REPS * 4);
    ctx.metrics
        .set("tensor.add_ns_per_elem", per_elem(add_us), RUN_REPS * 4);
}

/// The price of one dispatched operation in `graph`: a staged `while` of
/// scalar operations, run time divided by operations as written in the
/// source. Also a `CompiledFunction`, so the probe yields the runtime's
/// own share of a call (`call` minus the same graph's `Session::run`).
pub fn dispatch_probe(ctx: &mut Ctx) -> Result<(), String> {
    let art =
        autograph_runtime::compile_cached_with(gen::PROBE_SRC, "probe", &["x"], None, PLAN_TAG)
            .map_err(|e| e.to_string())?;
    let mut func = art.func;
    let x = Tensor::scalar_f32(0.5);
    // the same program through a session the harness owns (spans of
    // this staging would pollute the workload's own, so none are kept)
    let mut own = cold_stage(
        &mut Tracer::new(false),
        0,
        &|| Runtime::load(gen::PROBE_SRC, true),
        |rt| rt.stage_to_graph("probe", vec![GraphArg::Placeholder("x".into())]),
    )?;
    let feeds = [("x", x.clone())];
    let mut ok = true;
    for rep in 0..STAGE_REPS {
        let tr = &mut ctx.tracer;
        let a = tr.span("runtime.call", rep as u64, || {
            func.call(std::slice::from_ref(&x))
        });
        let b = tr.span("graph.probe_run", rep as u64, || own.run(&feeds));
        ok &= match (a, b) {
            (Ok(a), Ok(b)) => crate::check::all_close(&a, &b),
            _ => false,
        };
    }
    ctx.tally.record(ok);
    let (tr, m) = (&ctx.tracer, &mut ctx.metrics);
    let ops = (gen::PROBE_ITERS * gen::PROBE_OPS_PER_ITER) as f64;
    m.set(
        "graph.dispatch_ns_per_node",
        tr.median_us("graph.probe_run") * 1e3 / ops,
        STAGE_REPS,
    );
    m.set(
        "runtime.call_self_us",
        (tr.median_us("runtime.call") - tr.median_us("graph.probe_run")).max(0.0),
        STAGE_REPS,
    );
    Ok(())
}
