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
//! * values **move** instead of being copied. In a sub-procedure, an
//!   operand read at its register's last use (the register is in the
//!   instruction's `free_after` and read once by it) moves out of the
//!   frame, and the kernel may consume it: `ArrayPush` grows the array
//!   it was given, `Select` and fused groups write their output over an
//!   input nobody else holds. Parameters bind by move from the argument
//!   slice of a `Cond` branch or `While` body (a `While` condition only
//!   borrows the state and clones the parameters it binds), and outputs
//!   move out of the frame, cloned only when one register is listed
//!   twice. A value still shared — a feed, a constant, a register read
//!   again later — is never written: the kernels check for a sole handle
//!   (`Arc::get_mut`), they never copy on write. The top level keeps
//!   every value for fetches, so nothing moves there;
//! * registers past their last use are recycled through a
//!   [`FusedArena`], so loop-carried temporaries reuse buffers instead
//!   of round-tripping the allocator;
//! * each procedure runs its instruction loop under one `catch_unwind`
//!   boundary, which attributes a panic to the instruction it was on; a
//!   nested procedure's boundary catches first, so the innermost node
//!   wins. Fused groups keep a boundary per covered op.
//!
//! Cost attribution through fusion: a fused instruction's measured time
//! is split across its covered source nodes (each with its real span),
//! so `RunReport` node costs and the `autograph-explain` coverage gate
//! see every source line even when its op never ran standalone.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::compile::{CoverArg, CoverOp, FusedGroup, IKind, Instr, Proc, Program, Reg};
use crate::exec::{pack_outputs, ExecEnv};
use crate::ir::GValue;
use crate::ops;
use crate::report::Collector;
use crate::run::RunCtx;
use crate::{GraphError, Result};
use autograph_faults as faults;
use autograph_obs as obs;
use autograph_tensor::error::panic_message;
use autograph_tensor::fused::FusedArena;
use autograph_tensor::Tensor;
use std::panic::{catch_unwind, AssertUnwindSafe};

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
    let mut vm = Vm {
        program,
        env,
        ctx,
        arena: FusedArena::new(),
        frames: Vec::new(),
    };
    let mut regs = Vec::new();
    vm.run_code(&program.procs[0], Args::Top, &mut regs, &mut Vec::new())?;
    fetches
        .iter()
        .map(|&f| match program.reg_of_node.get(f).copied().flatten() {
            Some(r) => Ok(regs[r as usize].clone()),
            None => Err(GraphError::runtime(format!("fetch {f} was not computed"))),
        })
        .collect()
}

/// How a procedure receives its arguments.
enum Args<'s> {
    /// The top level: no parameters; instruction costs are collected.
    Top,
    /// Cloned out of a borrowed state (a `While` condition, which must
    /// leave the state for the body).
    Borrow(&'s [GValue]),
    /// Moved out of an owned slice (`Cond` branches, the `While` body);
    /// what the procedure does not bind stays behind.
    Move(&'s mut [GValue]),
}

/// One run's executor state.
struct Vm<'a, 'e> {
    program: &'a Program,
    env: &'a mut ExecEnv<'e>,
    ctx: &'a RunCtx,
    arena: FusedArena,
    /// Register frames for sub-procedure calls: taken per call and given
    /// back, so a loop reuses one frame for every iteration.
    frames: Vec<Vec<GValue>>,
}

impl Vm<'_, '_> {
    /// Call a sub-procedure, leaving its outputs in `outs`. Whatever is
    /// left of its frame afterwards feeds the arena.
    fn call(&mut self, proc: &Proc, args: Args<'_>, outs: &mut Vec<GValue>) -> Result<()> {
        let mut regs = self.frames.pop().unwrap_or_default();
        let run = self.run_code(proc, args, &mut regs, outs);
        for v in regs.drain(..) {
            reclaim(v, &mut self.arena);
        }
        self.frames.push(regs);
        run
    }

    /// Run `proc` in the frame `regs` (sized here) and move its outputs
    /// into `outs`, all under one unwind boundary: a panic anywhere
    /// becomes an error at the instruction that was executing, unless a
    /// nested boundary already attributed it further in.
    fn run_code(
        &mut self,
        proc: &Proc,
        mut args: Args<'_>,
        regs: &mut Vec<GValue>,
        outs: &mut Vec<GValue>,
    ) -> Result<()> {
        let given = match &args {
            Args::Top => proc.num_params,
            Args::Borrow(a) => a.len(),
            Args::Move(a) => a.len(),
        };
        if given != proc.num_params {
            return Err(GraphError::runtime(format!(
                "subgraph expects {} arguments, got {given}",
                proc.num_params
            )));
        }
        regs.clear();
        regs.resize_with(proc.nregs, nil);
        outs.clear();
        let ctx = self.ctx;
        let collector = match args {
            Args::Top => ctx.collector.as_ref(),
            _ => None,
        };
        let missing = |i: &usize| GraphError::runtime(format!("missing subgraph argument {i}"));
        let mut at = 0;
        let run = catch_unwind(AssertUnwindSafe(|| -> Result<()> {
            for (idx, instr) in proc.code.iter().enumerate() {
                at = idx;
                let started = collector.map(|_| {
                    (
                        std::time::Instant::now(),
                        autograph_tensor::mem::thread_allocated(),
                    )
                });
                // params bind without dispatch accounting, like the
                // interpreter's short-circuit
                let v = match (&instr.kind, &mut args) {
                    (IKind::Param(i), Args::Move(a)) => {
                        a.get_mut(*i).map(GValue::take).ok_or_else(|| missing(i))
                    }
                    (IKind::Param(i), Args::Borrow(a)) => {
                        a.get(*i).cloned().ok_or_else(|| missing(i))
                    }
                    _ => self.exec_instr(instr, regs),
                };
                if let (Some(col), Some((t0, alloc0))) = (collector, started) {
                    record_cost(
                        col,
                        instr,
                        t0.elapsed().as_nanos() as u64,
                        autograph_tensor::mem::thread_allocated().wrapping_sub(alloc0),
                    );
                }
                regs[instr.dst as usize] =
                    v.map_err(|e| e.at_node(instr.name.clone()).at_span(instr.span))?;
                for &r in &instr.free_after {
                    reclaim(regs[r as usize].take(), &mut self.arena);
                }
            }
            // a register listed twice is cloned for all but its last
            // listing
            for (j, &r) in proc.outputs.iter().enumerate() {
                let slot = regs.get_mut(r as usize).ok_or_else(|| {
                    GraphError::runtime(format!("subgraph output {r} not computed"))
                })?;
                outs.push(if proc.outputs[j + 1..].contains(&r) {
                    slot.clone()
                } else {
                    slot.take()
                });
            }
            Ok(())
        }));
        run.unwrap_or_else(|payload| {
            let e = GraphError::panic(format!(
                "kernel panicked: {}",
                panic_message(payload.as_ref())
            ));
            Err(match proc.code.get(at) {
                Some(instr) => e.at_node(instr.name.clone()).at_span(instr.span),
                None => e,
            })
        })
    }

    fn exec_instr(&mut self, instr: &Instr, regs: &mut [GValue]) -> Result<GValue> {
        if let IKind::Fused(group) = &instr.kind {
            // fused groups account one dispatch per covered node
            return self.exec_fused(instr, group, regs);
        }
        self.ctx.before_node()?;
        match &instr.kind {
            IKind::Const(p) => {
                faults::inject("graph", instr.mnemonic)
                    .map_err(|e| GraphError::runtime(e.to_string()))?;
                if obs::enabled() {
                    obs::count("graph", "node_evals", 1);
                    let _span = obs::span("graph_op", instr.mnemonic);
                    Ok(GValue::Tensor(self.program.pool[*p].clone()))
                } else {
                    Ok(GValue::Tensor(self.program.pool[*p].clone()))
                }
            }
            IKind::Feed(name) => self
                .env
                .feeds
                .get(name)
                .cloned()
                .map(GValue::Tensor)
                .ok_or_else(|| GraphError::runtime(format!("placeholder '{name}' was not fed"))),
            IKind::ReadVar(name) => self
                .env
                .variables
                .get(name)
                .cloned()
                .map(GValue::Tensor)
                .ok_or_else(|| {
                    GraphError::runtime(format!("variable '{name}' is not initialized"))
                }),
            IKind::Assign(name) => {
                let v = regs[instr.srcs[0] as usize].as_tensor()?.clone();
                self.env.variables.insert(name.clone(), v.clone());
                Ok(GValue::Tensor(v))
            }
            IKind::Group => Ok(match instr.srcs.len() {
                0 => GValue::Tuple(vec![]),
                n => operand(instr, regs, n - 1),
            }),
            IKind::ParamTop(i) | IKind::Param(i) => Err(GraphError::staging(format!(
                "param {i} evaluated outside a subgraph"
            ))),
            IKind::Op(op) => {
                faults::inject("graph", instr.mnemonic)
                    .map_err(|e| GraphError::runtime(e.to_string()))?;
                let arena = &mut self.arena;
                let mut run = |inputs: &mut [GValue]| {
                    let out = if obs::enabled() {
                        obs::count("graph", "node_evals", 1);
                        let _span = obs::span("graph_op", instr.mnemonic);
                        ops::execute(op, inputs)
                    } else {
                        ops::execute(op, inputs)
                    };
                    // moved operands the kernel left are dead now
                    for v in inputs {
                        reclaim(v.take(), arena);
                    }
                    out
                };
                // common arities stay on the stack; only wide ops heap-allocate
                let mut at = |k: usize| operand(instr, regs, k);
                match instr.srcs.len() {
                    0 => run(&mut []),
                    1 => run(&mut [at(0)]),
                    2 => run(&mut [at(0), at(1)]),
                    3 => run(&mut [at(0), at(1), at(2)]),
                    n => run(&mut (0..n).map(at).collect::<Vec<_>>()),
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
                let mut args: Vec<GValue> = (1..instr.srcs.len())
                    .map(|k| operand(instr, regs, k))
                    .collect();
                let program = self.program;
                let branch = &program.procs[if pred { *then_p } else { *else_p }];
                let mut outs = Vec::new();
                self.call(branch, Args::Move(&mut args), &mut outs)?;
                // arguments the branch did not bind are dead
                for v in args {
                    reclaim(v, &mut self.arena);
                }
                Ok(pack_outputs(outs))
            }
            IKind::While {
                cond_p,
                body_p,
                max_iters,
            } => {
                let program = self.program;
                let (cond, body) = (&program.procs[*cond_p], &program.procs[*body_p]);
                let mut state: Vec<GValue> = (0..instr.srcs.len())
                    .map(|k| operand(instr, regs, k))
                    .collect();
                let limit = self.ctx.while_limit(*max_iters);
                let mut iters = 0;
                let outcome = self.iterate(cond, body, &mut state, limit, &mut iters);
                // flush the partial count even when the loop failed
                obs::observe("graph", "while_iters", iters);
                outcome?;
                Ok(GValue::Tuple(state))
            }
            IKind::Fused(_) => Err(GraphError::runtime("unreachable: fused handled above")),
        }
    }

    /// Run a `While` to completion over `state`, counting iterations into
    /// `iters`. The body takes the state by move and its outputs become
    /// the next state; what it did not bind is recycled.
    fn iterate(
        &mut self,
        cond: &Proc,
        body: &Proc,
        state: &mut Vec<GValue>,
        limit: Option<u64>,
        iters: &mut u64,
    ) -> Result<()> {
        let mut next = Vec::with_capacity(state.len());
        let mut keep = Vec::with_capacity(1);
        loop {
            self.call(cond, Args::Borrow(state), &mut keep)?;
            let go = keep
                .first()
                .ok_or_else(|| GraphError::runtime("while condition returned nothing"))
                .and_then(ops::as_bool_scalar)?;
            // the predicate dies here, not after the body
            keep.clear();
            if !go {
                return Ok(());
            }
            // a cap of N admits N iterations; only an (N+1)-th fails
            if let Some(limit) = limit.filter(|&limit| *iters >= limit) {
                return Err(GraphError::runtime(format!(
                    "while loop exceeded max_iters={limit}"
                )));
            }
            self.call(body, Args::Move(state), &mut next)?;
            std::mem::swap(state, &mut next);
            for v in next.drain(..) {
                reclaim(v, &mut self.arena);
            }
            *iters += 1;
            self.ctx.after_while_iter()?;
        }
    }

    /// Execute a fused elementwise group: strip-mined kernel when eligible,
    /// exact op-by-op fallback otherwise. Either way every covered source
    /// node keeps its dispatch count, fault-injection site, and error
    /// attribution.
    fn exec_fused(
        &mut self,
        instr: &Instr,
        group: &FusedGroup,
        regs: &mut [GValue],
    ) -> Result<GValue> {
        // one dispatch check per covered source node — same nodes_executed
        // accounting (and deadline/cancel granularity) as the interpreter
        for _ in &group.cover {
            self.ctx.before_node()?;
        }
        let srcs = &instr.srcs;
        // per-op spans only exist on the fallback path; when observability
        // is on, take it so profiles see each op
        if !obs::enabled() {
            // the in-place input moves out at its last use, so the kernel
            // may write the output over it. Eligibility is decided before
            // the fault sites fire and the plan consumed after, so chaos
            // plans behave identically; a non-tensor source cuts the
            // inputs short, which no plan accepts
            let owned = group
                .spec
                .in_place_input()
                .filter(|&k| last_use(instr, k))
                .and_then(|k| Some((k, take_tensor(regs, srcs[k])?)));
            let plan = match owned {
                Some((k, t)) => {
                    let others = srcs.iter().enumerate().filter(|&(j, _)| j != k);
                    match group
                        .spec
                        .plan_owned(others.map_while(|(_, &r)| tensor(&regs[r as usize])), t)
                    {
                        Ok(plan) => Some(plan),
                        Err(t) => {
                            regs[srcs[k] as usize] = GValue::Tensor(t);
                            None
                        }
                    }
                }
                None => group
                    .spec
                    .plan(srcs.iter().map_while(|&r| tensor(&regs[r as usize]))),
            };
            if let Some(plan) = plan {
                // fire each covered node's fault site (in execution order)
                // before the kernel
                for c in &group.cover {
                    inject_cover(c)?;
                }
                return Ok(GValue::Tensor(group.spec.eval(plan, &mut self.arena)));
            }
        }
        eval_cover(group, srcs, regs)
    }
}

/// Cheap placeholder for empty / freed registers.
fn nil() -> GValue {
    GValue::Tuple(Vec::new())
}

fn tensor(v: &GValue) -> Option<&Tensor> {
    match v {
        GValue::Tensor(t) => Some(t),
        _ => None,
    }
}

/// Whether operand `k` is its register's last use and its only read by
/// this instruction, so it may move out of the frame. Only sub-procedure
/// registers are ever freed, so top-level operands never move.
fn last_use(instr: &Instr, k: usize) -> bool {
    let r = instr.srcs[k];
    instr.free_after.contains(&r) && instr.srcs.iter().filter(|&&s| s == r).count() == 1
}

/// Operand `k`: moved out of its register at its last use, cloned
/// otherwise.
fn operand(instr: &Instr, regs: &mut [GValue], k: usize) -> GValue {
    let r = &mut regs[instr.srcs[k] as usize];
    if last_use(instr, k) {
        r.take()
    } else {
        r.clone()
    }
}

/// Move the tensor out of register `r`; any other value stays put.
fn take_tensor(regs: &mut [GValue], r: Reg) -> Option<Tensor> {
    let slot = &mut regs[r as usize];
    match slot.take() {
        GValue::Tensor(t) => Some(t),
        other => {
            *slot = other;
            None
        }
    }
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

/// Record one instruction's measured cost. A fused instruction's time is
/// split across its covered source nodes (evenly, remainder to the
/// first, so totals are conserved); allocations go to the root, which
/// owns the output buffer.
fn record_cost(col: &Collector, instr: &Instr, elapsed_ns: u64, alloc: u64) {
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
        let mut inputs: Vec<GValue> = c
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
                ops::execute(&c.op, &mut inputs)
            } else {
                ops::execute(&c.op, &mut inputs)
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
