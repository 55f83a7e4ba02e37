//! The bytecode VM: a linear fetch–execute loop over programs lowered by
//! [`crate::compile`].
//!
//! Semantics mirror the interpreter in [`crate::exec`] exactly — same
//! errors (message, node name, innermost-wins span attribution), same
//! fault-injection sites, same observability counters and spans, same
//! `RunCtx` dispatch accounting, same cost collection — so the two tiers
//! are differential-testable for bitwise-identical results. What changes
//! is the cost model:
//!
//! * dispatch is a `match` on a pre-resolved instruction, not a graph
//!   walk through an `Option<GValue>` side table;
//! * subgraph frames are flat register files reused across `While`
//!   iterations;
//! * fused instructions evaluate whole elementwise chains strip by
//!   strip with no intermediate tensors (falling back to exact
//!   op-by-op dispatch whenever eligibility — all-f32,
//!   broadcast-compatible — does not hold, or when per-op
//!   observability spans were requested);
//! * registers past their last use are recycled through a
//!   [`FusedArena`], so loop-carried temporaries reuse buffers instead
//!   of round-tripping the allocator.
//!
//! Cost attribution through fusion: a fused instruction's measured time
//! is split across its covered source nodes (each with its real span),
//! so `RunReport` node costs and the `autograph-explain` coverage gate
//! see every source line even when its op never ran standalone.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::compile::{CoverArg, CoverOp, FusedGroup, IKind, Instr, Proc, Program};
use crate::error::panic_message;
use crate::exec::{pack_outputs, ExecEnv};
use crate::ir::GValue;
use crate::ops;
use crate::run::RunCtx;
use crate::{GraphError, Result};
use autograph_faults as faults;
use autograph_obs as obs;
use autograph_tensor::fused::FusedArena;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cheap placeholder for empty / freed registers.
fn nil() -> GValue {
    GValue::Tuple(Vec::new())
}

/// Pool of register frames for sub-procedure calls. `Cond` (and `While`
/// nested inside sub-procedures) would otherwise allocate fresh frames
/// on every execution — every iteration of an enclosing loop.
#[derive(Default)]
struct Frames {
    pool: Vec<Vec<GValue>>,
}

impl Frames {
    fn take(&mut self) -> Vec<GValue> {
        self.pool.pop().unwrap_or_default()
    }
    fn give(&mut self, frame: Vec<GValue>) {
        self.pool.push(frame);
    }
}

/// Execute a lowered program's top-level procedure and serve `fetches`.
///
/// # Errors
///
/// Returns the same runtime errors as the interpreter, annotated with
/// the failing node's name and staged source span.
pub(crate) fn run_program(
    program: &Program,
    env: &mut ExecEnv<'_>,
    fetches: &[crate::ir::NodeId],
    ctx: &RunCtx,
) -> Result<Vec<GValue>> {
    faults::maybe_init_from_env();
    let mut arena = FusedArena::new();
    let mut frames = Frames::default();
    let top = &program.procs[0];
    let mut regs: Vec<GValue> = vec![nil(); top.nregs];
    for instr in &top.code {
        let started = ctx.collector.as_ref().map(|_| {
            (
                std::time::Instant::now(),
                autograph_tensor::mem::thread_allocated(),
            )
        });
        let v = exec_instr_guarded(program, instr, &mut regs, env, ctx, &mut arena, &mut frames);
        if let (Some(col), Some((t0, alloc0))) = (ctx.collector.as_ref(), started) {
            record_cost(
                col,
                instr,
                t0.elapsed().as_nanos() as u64,
                autograph_tensor::mem::thread_allocated().wrapping_sub(alloc0),
            );
        }
        let v = v.map_err(|e| e.at_node(instr.name.clone()).at_span(instr.span))?;
        regs[instr.dst as usize] = v;
        // the top level never frees: any plan node may be fetched
    }
    fetches
        .iter()
        .map(|&f| match program.reg_of_node.get(f).copied().flatten() {
            Some(r) => Ok(regs[r as usize].clone()),
            None => Err(GraphError::runtime(format!("fetch {f} was not computed"))),
        })
        .collect()
}

/// Record one instruction's measured cost. A fused instruction's time is
/// split across its covered source nodes (evenly, remainder to the
/// first, so totals are conserved); allocations go to the root, which
/// owns the output buffer.
fn record_cost(col: &crate::report::Collector, instr: &Instr, elapsed_ns: u64, alloc: u64) {
    if let IKind::Fused(group) = &instr.kind {
        let k = group.cover.len() as u64;
        let share = elapsed_ns / k;
        let rem = elapsed_ns - share * k;
        for (i, c) in group.cover.iter().enumerate() {
            let ns = if i == 0 { share + rem } else { share };
            let alloc_share = if i + 1 == group.cover.len() { alloc } else { 0 };
            col.record(c.node, ns, alloc_share);
        }
    } else {
        col.record(instr.node, elapsed_ns, alloc);
    }
}

/// Execute a sub-procedure with `args` bound to its params. `regs` is a
/// reusable frame (cleared and resized here); dead registers are
/// recycled into the arena as instructions release them.
#[allow(clippy::too_many_arguments)]
fn exec_proc(
    program: &Program,
    proc: &Proc,
    args: &[GValue],
    regs: &mut Vec<GValue>,
    env: &mut ExecEnv<'_>,
    ctx: &RunCtx,
    arena: &mut FusedArena,
    frames: &mut Frames,
) -> Result<Vec<GValue>> {
    if args.len() != proc.num_params {
        return Err(GraphError::runtime(format!(
            "subgraph expects {} arguments, got {}",
            proc.num_params,
            args.len()
        )));
    }
    regs.clear();
    regs.resize(proc.nregs, nil());
    for instr in &proc.code {
        let v = match &instr.kind {
            // params bind without dispatch accounting, like the
            // interpreter's short-circuit
            IKind::Param(i) => args
                .get(*i)
                .cloned()
                .ok_or_else(|| GraphError::runtime(format!("missing subgraph argument {i}"))),
            _ => exec_instr_guarded(program, instr, regs, env, ctx, arena, frames),
        }
        .map_err(|e| e.at_node(instr.name.clone()).at_span(instr.span))?;
        regs[instr.dst as usize] = v;
        for &r in &instr.free_after {
            let dead = std::mem::replace(&mut regs[r as usize], nil());
            reclaim(dead, arena);
        }
    }
    let outs: Vec<GValue> = proc
        .outputs
        .iter()
        .map(|&r| regs[r as usize].clone())
        .collect();
    // drain what's left of the frame into the arena for the next
    // iteration / call (outputs were just cloned, so their buffers are
    // shared and reclaim leaves them alone)
    for r in regs.drain(..) {
        reclaim(r, arena);
    }
    Ok(outs)
}

/// Offer a dead value's buffer to the arena. Only works for uniquely
/// owned f32 tensors; shared or non-f32 values just drop.
fn reclaim(v: GValue, arena: &mut FusedArena) {
    if let GValue::Tensor(t) = v {
        if let Some(buf) = t.into_f32_buffer() {
            arena.give(buf);
        }
    }
}

/// One instruction behind a `catch_unwind` boundary: a panicking kernel
/// surfaces as a [`GraphError`]. Fused fast paths install inner
/// boundaries per covered op, so panics attribute to the innermost
/// failing source node.
#[allow(clippy::too_many_arguments)]
fn exec_instr_guarded(
    program: &Program,
    instr: &Instr,
    regs: &mut [GValue],
    env: &mut ExecEnv<'_>,
    ctx: &RunCtx,
    arena: &mut FusedArena,
    frames: &mut Frames,
) -> Result<GValue> {
    match catch_unwind(AssertUnwindSafe(|| {
        exec_instr(program, instr, regs, env, ctx, arena, frames)
    })) {
        Ok(r) => r,
        Err(payload) => Err(GraphError::panic(format!(
            "kernel panicked: {}",
            panic_message(payload.as_ref())
        ))),
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_instr(
    program: &Program,
    instr: &Instr,
    regs: &mut [GValue],
    env: &mut ExecEnv<'_>,
    ctx: &RunCtx,
    arena: &mut FusedArena,
    frames: &mut Frames,
) -> Result<GValue> {
    if let IKind::Fused(group) = &instr.kind {
        // fused groups account one dispatch per covered node
        return exec_fused(instr, group, regs, ctx, arena);
    }
    ctx.before_node()?;
    match &instr.kind {
        IKind::Const(p) => {
            faults::inject("graph", instr.mnemonic)
                .map_err(|e| GraphError::runtime(e.to_string()))?;
            if obs::enabled() {
                obs::count("graph", "node_evals", 1);
                let _span = obs::span("graph_op", instr.mnemonic);
                Ok(GValue::Tensor(program.pool[*p].clone()))
            } else {
                Ok(GValue::Tensor(program.pool[*p].clone()))
            }
        }
        IKind::Feed(name) => env
            .feeds
            .get(name)
            .cloned()
            .map(GValue::Tensor)
            .ok_or_else(|| GraphError::runtime(format!("placeholder '{name}' was not fed"))),
        IKind::ReadVar(name) => env
            .variables
            .get(name)
            .cloned()
            .map(GValue::Tensor)
            .ok_or_else(|| GraphError::runtime(format!("variable '{name}' is not initialized"))),
        IKind::Assign(name) => {
            let v = regs[instr.srcs[0] as usize].as_tensor()?.clone();
            env.variables.insert(name.clone(), v.clone());
            Ok(GValue::Tensor(v))
        }
        IKind::Group => Ok(instr
            .srcs
            .last()
            .map(|&r| regs[r as usize].clone())
            .unwrap_or(GValue::Tuple(vec![]))),
        IKind::ParamTop(i) => Err(GraphError::staging(format!(
            "param {i} evaluated outside a subgraph"
        ))),
        IKind::Param(i) => Err(GraphError::staging(format!(
            "param {i} evaluated outside a subgraph"
        ))),
        IKind::Op(op) => {
            faults::inject("graph", instr.mnemonic)
                .map_err(|e| GraphError::runtime(e.to_string()))?;
            let run = |inputs: &[GValue]| {
                if obs::enabled() {
                    obs::count("graph", "node_evals", 1);
                    let _span = obs::span("graph_op", instr.mnemonic);
                    ops::execute(op, inputs)
                } else {
                    ops::execute(op, inputs)
                }
            };
            // common arities stay on the stack; only wide ops heap-allocate
            let at = |i: usize| regs[instr.srcs[i] as usize].clone();
            match instr.srcs.len() {
                0 => run(&[]),
                1 => run(&[at(0)]),
                2 => run(&[at(0), at(1)]),
                3 => run(&[at(0), at(1), at(2)]),
                n => {
                    let inputs: Vec<GValue> = (0..n).map(at).collect();
                    run(&inputs)
                }
            }
        }
        IKind::Cond { then_p, else_p } => {
            let pred = ops::as_bool_scalar(&regs[instr.srcs[0] as usize])?;
            if obs::enabled() {
                obs::count(
                    "graph",
                    if pred {
                        "cond_then_taken"
                    } else {
                        "cond_else_taken"
                    },
                    1,
                );
            }
            let args: Vec<GValue> = instr.srcs[1..]
                .iter()
                .map(|&r| regs[r as usize].clone())
                .collect();
            let p = if pred { *then_p } else { *else_p };
            let mut frame = frames.take();
            let outs = exec_proc(
                program,
                &program.procs[p],
                &args,
                &mut frame,
                env,
                ctx,
                arena,
                frames,
            );
            frames.give(frame);
            Ok(pack_outputs(outs?))
        }
        IKind::While {
            cond_p,
            body_p,
            max_iters,
        } => {
            let mut state: Vec<GValue> = instr
                .srcs
                .iter()
                .map(|&r| regs[r as usize].clone())
                .collect();
            let mut iters = 0u64;
            let limit = ctx.while_limit(*max_iters);
            // frames are allocated once and reused across iterations;
            // each iteration's dead registers feed the arena, so
            // loop-carried temporaries recycle buffers
            let mut cond_frame = frames.take();
            let mut body_frame = frames.take();
            let cond_proc = &program.procs[*cond_p];
            let body_proc = &program.procs[*body_p];
            let outcome = loop {
                let keep = match exec_proc(
                    program,
                    cond_proc,
                    &state,
                    &mut cond_frame,
                    env,
                    ctx,
                    arena,
                    frames,
                )
                .and_then(|c| {
                    c.first()
                        .ok_or_else(|| GraphError::runtime("while condition returned nothing"))
                        .and_then(ops::as_bool_scalar)
                }) {
                    Ok(k) => k,
                    Err(e) => break Err(e),
                };
                if !keep {
                    break Ok(());
                }
                let next = match exec_proc(
                    program,
                    body_proc,
                    &state,
                    &mut body_frame,
                    env,
                    ctx,
                    arena,
                    frames,
                ) {
                    Ok(s) => s,
                    Err(e) => break Err(e),
                };
                // the previous state is dead now — recycle its buffers
                for v in std::mem::replace(&mut state, next) {
                    reclaim(v, arena);
                }
                iters += 1;
                if let Err(e) = ctx.after_while_iter() {
                    break Err(e);
                }
                if let Some(limit) = limit {
                    if iters >= limit {
                        break Err(GraphError::runtime(format!(
                            "while loop exceeded max_iters={limit}"
                        )));
                    }
                }
            };
            frames.give(cond_frame);
            frames.give(body_frame);
            obs::observe("graph", "while_iters", iters);
            outcome?;
            Ok(GValue::Tuple(state))
        }
        IKind::Fused(_) => Err(GraphError::runtime("unreachable: fused handled above")),
    }
}

/// Execute a fused elementwise group: strip-mined kernel when eligible,
/// exact op-by-op fallback otherwise. Either way every covered source
/// node keeps its dispatch count, fault-injection site, and error
/// attribution.
fn exec_fused(
    instr: &Instr,
    group: &FusedGroup,
    regs: &mut [GValue],
    ctx: &RunCtx,
    arena: &mut FusedArena,
) -> Result<GValue> {
    // one dispatch check per covered source node — same nodes_executed
    // accounting (and deadline/cancel granularity) as the interpreter
    for _ in &group.cover {
        ctx.before_node()?;
    }
    let srcs = &instr.srcs;
    // per-op spans only exist on the fallback path; when observability
    // is on, take it so profiles see each op
    if !obs::enabled() {
        // eligibility is decided before the fault sites fire and the
        // plan consumed after, so chaos plans behave identically; a
        // non-tensor source cuts the inputs short, which no plan accepts
        let tensors = srcs.iter().map_while(|&r| match &regs[r as usize] {
            GValue::Tensor(t) => Some(t),
            _ => None,
        });
        if let Some(plan) = group.spec.plan(tensors) {
            // fire each covered node's fault site (in execution order)
            // before the kernel
            for c in &group.cover {
                inject_cover(c)?;
            }
            return Ok(GValue::Tensor(group.spec.eval(plan, arena)));
        }
    }
    eval_cover(group, srcs, regs)
}

/// Fire one covered op's fault-injection site under its own panic
/// boundary, attributing failures to that source node (innermost wins).
fn inject_cover(c: &CoverOp) -> Result<()> {
    let r = catch_unwind(AssertUnwindSafe(|| {
        faults::inject("graph", c.mnemonic).map_err(|e| GraphError::runtime(e.to_string()))
    }));
    match r {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(e.at_node(c.name.clone()).at_span(c.span)),
        Err(payload) => Err(GraphError::panic(format!(
            "kernel panicked: {}",
            panic_message(payload.as_ref())
        ))
        .at_node(c.name.clone())
        .at_span(c.span)),
    }
}

/// Exact fallback: evaluate the covered ops one by one through the same
/// kernel table as the interpreter, with per-op fault sites, obs spans,
/// and innermost-wins error attribution.
fn eval_cover(group: &FusedGroup, srcs: &[u32], regs: &[GValue]) -> Result<GValue> {
    let mut vals: Vec<Option<GValue>> = vec![None; group.cover.len()];
    for (k, c) in group.cover.iter().enumerate() {
        let inputs: Vec<GValue> = c
            .args
            .iter()
            .map(|a| match a {
                CoverArg::Ext(s) => Ok(regs[srcs[*s] as usize].clone()),
                CoverArg::Int(i) => vals[*i]
                    .clone()
                    .ok_or_else(|| GraphError::runtime(format!("fused operand {i} not computed"))),
            })
            .collect::<Result<_>>()?;
        let r = catch_unwind(AssertUnwindSafe(|| -> Result<GValue> {
            faults::inject("graph", c.mnemonic).map_err(|e| GraphError::runtime(e.to_string()))?;
            if obs::enabled() {
                obs::count("graph", "node_evals", 1);
                let _span = obs::span("graph_op", c.mnemonic);
                ops::execute(&c.op, &inputs)
            } else {
                ops::execute(&c.op, &inputs)
            }
        }));
        let v = match r {
            Ok(r) => r,
            Err(payload) => Err(GraphError::panic(format!(
                "kernel panicked: {}",
                panic_message(payload.as_ref())
            ))),
        }
        .map_err(|e| e.at_node(c.name.clone()).at_span(c.span))?;
        vals[k] = Some(v);
    }
    vals.pop()
        .flatten()
        .ok_or_else(|| GraphError::runtime("fused group produced no value"))
}
