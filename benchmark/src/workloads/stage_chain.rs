//! `stage_chain`: the operation is one cold `compile_cached_with` of a
//! generated ~120-line program — lexing, parsing, analysis, conversion,
//! staging, optimization and compilation do all the work and kernels
//! none.

use crate::check::{eager_tensors, ok_close};
use crate::gen::{self, CHAIN_ARGS, CHAIN_FN, CHAIN_LEN, CHAIN_PROGRAMS};
use crate::harness::{Ctx, COLD_SHARE, WARM_SHARE};
use crate::layers::{self, PLAN_TAG, RUN_REPS, STAGE_REPS};
use autograph_planstore::PlanStore;
use autograph_runtime::runtime::GraphArg;
use autograph_runtime::{compile_cached_with, CompiledFunction, Runtime, Value};
use autograph_tensor::Tensor;

/// Stagings per timed block: every program twice, about 140 ms.
const N: usize = 2 * CHAIN_PROGRAMS;
/// Repetitions of the phase-by-phase staging of every program (eight
/// programs, so fewer than a one-program workload needs).
const PHASE_REPS: usize = STAGE_REPS / 3;

struct Program {
    source: String,
    args: [Tensor; 2],
}

fn vector(v: &[f32]) -> Tensor {
    Tensor::from_vec(v.to_vec(), &[CHAIN_LEN]).expect("generated vector length")
}

fn programs(seed: u64) -> Vec<Program> {
    (0..CHAIN_PROGRAMS)
        .map(|i| {
            let p = gen::chain_program(seed, i);
            Program {
                args: [vector(&p.x), vector(&p.y)],
                source: p.source,
            }
        })
        .collect()
}

/// What the unconverted eager interpreter returns for `p`.
fn eager(p: &Program) -> Result<Vec<Tensor>, String> {
    let mut rt = Runtime::load(&p.source, false).map_err(|e| e.to_string())?;
    let args = p.args.iter().cloned().map(Value::tensor).collect();
    eager_tensors(&rt.call(CHAIN_FN, args).map_err(|e| e.to_string())?)
}

fn compile(p: &Program, store: Option<&PlanStore>) -> Result<CompiledFunction, String> {
    compile_cached_with(&p.source, CHAIN_FN, &CHAIN_ARGS, store, PLAN_TAG)
        .map(|art| art.func)
        .map_err(|e| e.to_string())
}

fn call(func: &mut CompiledFunction, p: &Program) -> Result<Vec<Tensor>, String> {
    func.call(&p.args).map_err(|e| e.to_string())
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    let want: Vec<Vec<Tensor>> = programs(seed).iter().map(eager).collect::<Result<_, _>>()?;
    let correct = |got: &Result<Vec<Tensor>, String>, id: u64| {
        ok_close(got, &want[id as usize % CHAIN_PROGRAMS])
    };

    // set-up: generate the programs, stage each once, call each once
    let progs = ctx.measure_setup(
        || {
            let progs = programs(seed);
            let outs: Vec<_> = progs
                .iter()
                .map(|p| compile(p, None).and_then(|mut f| call(&mut f, p)))
                .collect();
            Ok((progs, outs))
        },
        |outs| (0..).zip(&outs).map(|(id, got)| correct(got, id)).collect(),
    )?;
    let pick = |id: u64| &progs[id as usize % CHAIN_PROGRAMS];
    let lines = progs[0].source.lines().count() as f64;

    // the timed run; every compiled function is called and checked,
    // outside the timed region
    ctx.measure_run(
        N,
        ctx.run_share() + COLD_SHARE,
        lines,
        |_, id| compile(pick(id), None).map(|f| (f, id)),
        |(mut f, id), _| Some(correct(&call(&mut f, pick(id)), id)),
    );
    // the operation *is* cold staging: report it in both units
    let (us, blocks) = ctx.metrics.get("run_p50_us");
    ctx.metrics.set("stage_cold_ms", us / 1e3, blocks);

    ctx.measure_allocs(|| compile(&progs[0], None).is_ok());

    if ctx.trace {
        // warm staging: compile_cached_with against a populated store
        let store = PlanStore::open(ctx.scratch.join("store")).map_err(|e| e.to_string())?;
        for p in &progs {
            compile(p, Some(&store))?;
        }
        ctx.measure_stage(
            "stage_warm_ms",
            "bench.stage_warm",
            N * 16,
            WARM_SHARE,
            |_, id| compile(pick(id), Some(&store)).map(|f| (f, id)),
            |(mut f, id), last| last.then(|| correct(&call(&mut f, pick(id)), id)),
        );
        layers(ctx, &progs, &want[CHAIN_PROGRAMS - 1])?;
    }
    Ok(())
}

/// The staging layers, driven phase by phase on the same programs, and
/// what they leave unexplained of the one-call time.
fn layers(ctx: &mut Ctx, progs: &[Program], want_last: &[Tensor]) -> Result<(), String> {
    let sources: Vec<&str> = progs.iter().map(|p| p.source.as_str()).collect();
    layers::frontend_probe(ctx, &sources, PHASE_REPS)?;
    let mut ready = None;
    for rep in 0..PHASE_REPS {
        for (i, p) in progs.iter().enumerate() {
            let id = (rep * progs.len() + i) as u64;
            let one_call = ctx
                .tracer
                .span("bench.one_call_cold", id, || compile(p, None));
            ctx.tally.record(one_call.is_ok());
            ready = Some(layers::cold_stage(
                &mut ctx.tracer,
                id,
                &|| Runtime::load(&p.source, true),
                |rt| {
                    let args = CHAIN_ARGS
                        .iter()
                        .map(|a| GraphArg::Placeholder((*a).into()));
                    rt.stage_to_graph(CHAIN_FN, args.collect())
                },
            )?);
        }
    }
    // `ready` is the last program's; its run is the steady graph run here
    let mut ready = ready.ok_or("no program staged")?;
    let last = &progs[progs.len() - 1];
    layers::staging_metrics(ctx, &ready, "bench.one_call_cold");
    layers::artifact_probe(ctx, &ready.unit, 0x57A6E)?;

    let feeds = [("x", last.args[0].clone()), ("y", last.args[1].clone())];
    let mut fresh = layers::install(&ready.unit)?;
    ctx.probe_metric("graph.first_run_us", "graph.first_run", 1, || {
        fresh.run(&feeds, &ready.outputs)
    });
    let mut ok = true;
    let run_us = ctx.probe_metric("graph.run_us", "graph.run", RUN_REPS, || {
        ok &= ok_close(&ready.run(&feeds), want_last);
    });
    ctx.tally.record(ok);
    // no direct-kernel replay of a generated program exists: the whole
    // run counts as overhead, the kernel share as 0
    ctx.metrics.set("graph.overhead_us", run_us, RUN_REPS);
    let mut eager_rt = Runtime::load(&last.source, false).map_err(|e| e.to_string())?;
    let eager_us = ctx.probe_metric("eager.call_us", "eager.call", 10, || {
        eager_rt.call(
            CHAIN_FN,
            last.args.iter().cloned().map(Value::tensor).collect(),
        )
    });
    ctx.metrics
        .set("eager.graph_speedup", eager_us / run_us, 10);
    layers::kernel_probe(ctx, (0, 0, 0), CHAIN_LEN);
    layers::dispatch_probe(ctx)?;
    Ok(())
}
