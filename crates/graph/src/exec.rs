//! Execution plans and the reference interpreter: evaluates nodes one by
//! one in a precomputed topological plan, handling feeds, variables, and
//! functional control flow. `Session::run*` executes plans on the
//! bytecode VM (`vm.rs`); this op-by-op evaluator is what the
//! differential test walls compare the VM against.
//!
//! Every node evaluation runs inside a `catch_unwind` boundary: a kernel
//! panic becomes a [`GraphError`] carrying the node name and staged
//! source span instead of aborting the process. Run limits (deadline,
//! cancellation, while-iteration caps — see [`crate::run`]) are checked
//! at node-dispatch and loop-iteration granularity.

// The executor error paths must never themselves panic: a stray unwrap
// here would defeat the catch_unwind contract. Enforced by CI.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::ir::{GValue, Graph, NodeId, OpKind, SubGraph};
use crate::ops;
use crate::run::RunCtx;
use crate::{GraphError, Result};
use autograph_faults as faults;
use autograph_obs as obs;
use autograph_tensor::error::panic_message;
use autograph_tensor::Tensor;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The state threaded through one evaluation: feed values and the mutable
/// variable store.
pub(crate) struct ExecEnv<'a> {
    /// Feed values by placeholder name.
    pub feeds: &'a HashMap<String, Tensor>,
    /// Variable store (persists across `Session::run` calls).
    pub variables: &'a mut HashMap<String, Tensor>,
}

/// A compiled execution plan: the nodes needed for a fetch set, in
/// topological order. Computing the plan once and reusing it across run
/// calls is what makes graph execution cheap per step — the "whole-program"
/// half of the paper's performance story.
#[derive(Debug, Clone)]
pub struct Plan {
    order: Vec<NodeId>,
    /// The fetch set the plan was compiled for; fusion in the bytecode
    /// tier must keep these nodes materialized.
    fetches: Vec<NodeId>,
    /// Lazily-lowered bytecode program for [`crate::vm`]; built on first
    /// run and shared across runs (and plan clones made before
    /// the first run compile independently).
    vm: std::sync::OnceLock<std::sync::Arc<crate::compile::Program>>,
}

impl Plan {
    /// Build a plan covering `fetches`.
    pub fn compile(graph: &Graph, fetches: &[NodeId]) -> Result<Plan> {
        let mut needed = vec![false; graph.nodes.len()];
        let mut stack: Vec<NodeId> = fetches.to_vec();
        // Assertions and prints execute even when their value is unused
        // (the control-dependency wiring real AutoGraph adds).
        for (i, n) in graph.nodes.iter().enumerate() {
            if matches!(n.op, OpKind::AssertOp(_) | OpKind::Print(_)) {
                stack.push(i);
            }
        }
        while let Some(n) = stack.pop() {
            if n >= graph.nodes.len() {
                return Err(GraphError::staging(format!(
                    "fetch of unknown node id {n} (graph has {} nodes)",
                    graph.nodes.len()
                )));
            }
            if needed[n] {
                continue;
            }
            needed[n] = true;
            stack.extend(graph.nodes[n].inputs.iter().copied());
        }
        // nodes are stored in creation order, which is already topological
        let order: Vec<NodeId> = (0..graph.nodes.len()).filter(|&i| needed[i]).collect();
        Ok(Plan {
            order,
            fetches: fetches.to_vec(),
            vm: std::sync::OnceLock::new(),
        })
    }

    /// Build a plan covering `fetches` with an already-lowered bytecode
    /// program pre-seeded, so the first run skips lowering —
    /// the warm-restage path of the persistent plan cache.
    pub(crate) fn with_program(
        graph: &Graph,
        fetches: &[NodeId],
        program: std::sync::Arc<crate::compile::Program>,
    ) -> Result<Plan> {
        let plan = Plan::compile(graph, fetches)?;
        let _ = plan.vm.set(program);
        Ok(plan)
    }

    /// Number of nodes the plan executes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The plan's node set in execution (topological) order.
    pub(crate) fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Execute the plan on the reference interpreter, returning the
    /// values of `fetches`, under explicit run limits (deadline/cancel/
    /// loop caps); progress counters accumulate into `ctx` even on
    /// failure.
    ///
    /// # Errors
    ///
    /// Returns runtime errors annotated with the failing node's name and
    /// staged source span.
    pub(crate) fn run_ctx(
        &self,
        graph: &Graph,
        env: &mut ExecEnv<'_>,
        fetches: &[NodeId],
        ctx: &RunCtx,
    ) -> Result<Vec<GValue>> {
        // AUTOGRAPH_FAULTS: install the fault plan from the environment
        // on first use. One OnceLock load afterwards.
        faults::maybe_init_from_env();
        let mut values: Vec<Option<GValue>> = vec![None; graph.nodes.len()];
        let mut inbuf: Vec<GValue> = Vec::with_capacity(8);
        for &id in &self.order {
            let node = &graph.nodes[id];
            // per-node cost collection (reporting sessions only): time
            // the evaluation and attribute this thread's allocations
            let started = ctx.collector.as_ref().map(|_| {
                (
                    std::time::Instant::now(),
                    autograph_tensor::mem::thread_allocated(),
                )
            });
            let v = eval_node_guarded(graph, id, &values, env, &mut inbuf, ctx);
            if let (Some(col), Some((t0, alloc0))) = (ctx.collector.as_ref(), started) {
                col.record(
                    id,
                    t0.elapsed().as_nanos() as u64,
                    autograph_tensor::mem::thread_allocated().wrapping_sub(alloc0),
                );
            }
            let v = v.map_err(|e| e.at_node(node.name.clone()).at_span(node.span))?;
            values[id] = Some(v);
        }
        fetches
            .iter()
            .map(|&f| {
                values[f]
                    .clone()
                    .ok_or_else(|| GraphError::runtime(format!("fetch {f} was not computed")))
            })
            .collect()
    }

    /// Execute the plan through the compiled bytecode tier (see
    /// [`crate::compile`] and [`crate::vm`]). The program is lowered on
    /// the first call and cached on the plan. The instruction stream is
    /// linear on the calling thread; only tensor kernels split work over
    /// the `autograph-par` pool.
    pub(crate) fn run_vm_ctx(
        &self,
        graph: &Graph,
        env: &mut ExecEnv<'_>,
        fetches: &[NodeId],
        ctx: &RunCtx,
    ) -> Result<Vec<GValue>> {
        let program = self
            .vm
            .get_or_init(|| {
                std::sync::Arc::new(crate::compile::compile(graph, &self.order, &self.fetches))
            })
            .clone();
        crate::vm::run_program(&program, env, fetches, ctx)
    }
}

/// Fill `buf` with clones of the node's input values, which the kernel
/// may then consume: the values table itself is never written through.
fn gather_inputs<'a>(
    graph: &Graph,
    id: NodeId,
    values: &[Option<GValue>],
    buf: &'a mut Vec<GValue>,
) -> Result<&'a mut [GValue]> {
    buf.clear();
    for &i in &graph.nodes[id].inputs {
        match &values[i] {
            Some(v) => buf.push(v.clone()),
            None => {
                return Err(GraphError::runtime(format!(
                    "input node {i} not yet computed"
                )))
            }
        }
    }
    Ok(buf)
}

/// Evaluate one node behind a `catch_unwind` boundary: a panicking
/// kernel surfaces as a [`GraphError`] (the caller attaches node name and
/// span) and the process keeps running. Inner control flow installs its
/// own boundaries per node, so panics are attributed to the innermost
/// failing node.
fn eval_node_guarded(
    graph: &Graph,
    id: NodeId,
    values: &[Option<GValue>],
    env: &mut ExecEnv<'_>,
    inbuf: &mut Vec<GValue>,
    ctx: &RunCtx,
) -> Result<GValue> {
    match catch_unwind(AssertUnwindSafe(|| {
        eval_node(graph, id, values, env, inbuf, ctx)
    })) {
        Ok(r) => r,
        Err(payload) => Err(GraphError::panic(format!(
            "kernel panicked: {}",
            panic_message(payload.as_ref())
        ))),
    }
}

fn eval_node(
    graph: &Graph,
    id: NodeId,
    values: &[Option<GValue>],
    env: &mut ExecEnv<'_>,
    inbuf: &mut Vec<GValue>,
    ctx: &RunCtx,
) -> Result<GValue> {
    ctx.before_node()?;
    let node = &graph.nodes[id];
    match &node.op {
        OpKind::Placeholder { name } => env
            .feeds
            .get(name)
            .cloned()
            .map(GValue::Tensor)
            .ok_or_else(|| GraphError::runtime(format!("placeholder '{name}' was not fed"))),
        OpKind::Variable { name } => env
            .variables
            .get(name)
            .cloned()
            .map(GValue::Tensor)
            .ok_or_else(|| GraphError::runtime(format!("variable '{name}' is not initialized"))),
        OpKind::Assign { name } => {
            let inputs = gather_inputs(graph, id, values, inbuf)?;
            let v = inputs[0].as_tensor()?.clone();
            env.variables.insert(name.clone(), v.clone());
            Ok(GValue::Tensor(v))
        }
        OpKind::Group => {
            let inputs = gather_inputs(graph, id, values, inbuf)?;
            Ok(inputs.last().cloned().unwrap_or(GValue::Tuple(vec![])))
        }
        OpKind::Param(i) => Err(GraphError::staging(format!(
            "param {i} evaluated outside a subgraph"
        ))),
        OpKind::Cond { then_g, else_g } => {
            let inputs = gather_inputs(graph, id, values, inbuf)?.to_vec();
            let pred = ops::as_bool_scalar(&inputs[0])?;
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
            let args = &inputs[1..];
            let branch = if pred { then_g } else { else_g };
            let outs = eval_subgraph_ctx(branch, args, env, ctx)?;
            Ok(pack_outputs(outs))
        }
        OpKind::While {
            cond_g,
            body_g,
            max_iters,
        } => {
            let mut state = gather_inputs(graph, id, values, inbuf)?.to_vec();
            let mut iters = 0u64;
            let limit = ctx.while_limit(*max_iters);
            // scratch buffers and pruned execution orders are computed
            // once per loop execution and reused across iterations — the
            // executor's job is to make staged loops cheap per step
            let mut cond_scratch: Vec<Option<GValue>> = vec![None; cond_g.graph.nodes.len()];
            let mut body_scratch: Vec<Option<GValue>> = vec![None; body_g.graph.nodes.len()];
            let cond_order = subgraph_order(cond_g);
            let body_order = subgraph_order(body_g);
            let outcome = loop {
                let keep = match eval_subgraph_pruned(
                    cond_g,
                    &state,
                    env,
                    &mut cond_scratch,
                    &cond_order,
                    ctx,
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
                // a cap of N admits N iterations; only an (N+1)-th fails
                if let Some(limit) = limit.filter(|&limit| iters >= limit) {
                    break Err(GraphError::runtime(format!(
                        "while loop exceeded max_iters={limit}"
                    )));
                }
                state = match eval_subgraph_pruned(
                    body_g,
                    &state,
                    env,
                    &mut body_scratch,
                    &body_order,
                    ctx,
                ) {
                    Ok(s) => s,
                    Err(e) => break Err(e),
                };
                iters += 1;
                if let Err(e) = ctx.after_while_iter() {
                    break Err(e);
                }
            };
            // flush the partial iteration count even when the loop failed,
            // so metrics and traces of failed runs reflect work done.
            // observe() is a no-op (one relaxed atomic load) when disabled
            obs::observe("graph", "while_iters", iters);
            outcome?;
            Ok(GValue::Tuple(state))
        }
        _ => {
            let inputs = gather_inputs(graph, id, values, inbuf)?;
            // chaos-test hook; one relaxed atomic load when no plan is
            // installed
            faults::inject("graph", node.op.mnemonic())
                .map_err(|e| GraphError::runtime(e.to_string()))?;
            if obs::enabled() {
                obs::count("graph", "node_evals", 1);
                let _span = obs::span("graph_op", node.op.mnemonic());
                ops::execute(&node.op, inputs)
            } else {
                ops::execute(&node.op, inputs)
            }
        }
    }
}

pub(crate) fn pack_outputs(mut outs: Vec<GValue>) -> GValue {
    match outs.len() {
        1 => match outs.pop() {
            Some(v) => v,
            None => GValue::Tuple(vec![]),
        },
        _ => GValue::Tuple(outs),
    }
}

/// Evaluate a subgraph with `args` bound to its params under explicit run
/// limits; returns the values of its declared outputs.
pub(crate) fn eval_subgraph_ctx(
    sub: &SubGraph,
    args: &[GValue],
    env: &mut ExecEnv<'_>,
    ctx: &RunCtx,
) -> Result<Vec<GValue>> {
    let mut scratch: Vec<Option<GValue>> = vec![None; sub.graph.nodes.len()];
    // prune to output-reachable (+ effectful) nodes: inside loop bodies a
    // Cond executes per iteration, so skipping dead branch plumbing pays
    let order = subgraph_order(sub);
    eval_subgraph_pruned(sub, args, env, &mut scratch, &order, ctx)
}

/// Pruned execution order for a subgraph: nodes reachable from its
/// outputs, plus effectful nodes (asserts, prints, assigns) which execute
/// unconditionally.
pub(crate) fn subgraph_order(sub: &SubGraph) -> Vec<NodeId> {
    let n = sub.graph.nodes.len();
    let mut needed = vec![false; n];
    let mut stack: Vec<NodeId> = sub.outputs.clone();
    for (i, node) in sub.graph.nodes.iter().enumerate() {
        if matches!(
            node.op,
            OpKind::AssertOp(_) | OpKind::Print(_) | OpKind::Assign { .. }
        ) {
            stack.push(i);
        }
    }
    while let Some(id) = stack.pop() {
        if needed[id] {
            continue;
        }
        needed[id] = true;
        stack.extend(sub.graph.nodes[id].inputs.iter().copied());
    }
    (0..n).filter(|&i| needed[i]).collect()
}

/// Evaluate a subgraph along a precomputed pruned order.
fn eval_subgraph_pruned(
    sub: &SubGraph,
    args: &[GValue],
    env: &mut ExecEnv<'_>,
    values: &mut [Option<GValue>],
    order: &[NodeId],
    ctx: &RunCtx,
) -> Result<Vec<GValue>> {
    if args.len() != sub.num_params {
        return Err(GraphError::runtime(format!(
            "subgraph expects {} arguments, got {}",
            sub.num_params,
            args.len()
        )));
    }
    debug_assert_eq!(values.len(), sub.graph.nodes.len());
    for v in values.iter_mut() {
        *v = None;
    }
    let mut inbuf: Vec<GValue> = Vec::with_capacity(8);
    for &id in order {
        let node = &sub.graph.nodes[id];
        let v = match &node.op {
            OpKind::Param(i) => args
                .get(*i)
                .cloned()
                .ok_or_else(|| GraphError::runtime(format!("missing subgraph argument {i}"))),
            _ => eval_node_guarded(&sub.graph, id, values, env, &mut inbuf, ctx),
        }
        .map_err(|e| e.at_node(node.name.clone()).at_span(node.span))?;
        values[id] = Some(v);
    }
    sub.outputs
        .iter()
        .map(|&o| {
            values[o]
                .clone()
                .ok_or_else(|| GraphError::runtime(format!("subgraph output {o} not computed")))
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::builder::{GraphBuilder, SubGraphBuilder};
    use crate::ir::Op;

    fn env_run(graph: &Graph, fetches: &[NodeId]) -> Vec<GValue> {
        let feeds = HashMap::new();
        let mut vars: HashMap<String, Tensor> = graph.variables.iter().cloned().collect();
        let mut env = ExecEnv {
            feeds: &feeds,
            variables: &mut vars,
        };
        let plan = Plan::compile(graph, fetches).unwrap();
        plan.run_ctx(graph, &mut env, fetches, &RunCtx::default())
            .unwrap()
    }

    #[test]
    fn plan_prunes_unneeded_nodes() {
        let mut b = GraphBuilder::new();
        let a = b.scalar(1.0);
        let c = b.scalar(2.0);
        let used = b.add_op(a, c);
        let _unused = b.mul(a, c);
        let g = b.finish();
        let plan = Plan::compile(&g, &[used]).unwrap();
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn arithmetic_through_plan() {
        let mut b = GraphBuilder::new();
        let a = b.scalar(3.0);
        let c = b.scalar(4.0);
        let s = b.add_op(a, c);
        let sq = b.mul(s, s);
        let g = b.finish();
        let out = env_run(&g, &[sq]);
        assert_eq!(
            out[0].as_tensor().unwrap().scalar_value_f32().unwrap(),
            49.0
        );
    }

    #[test]
    fn placeholder_feed_and_missing_feed() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let two = b.scalar(2.0);
        let y = b.mul(x, two);
        let g = b.finish();
        let mut feeds = HashMap::new();
        feeds.insert("x".to_string(), Tensor::scalar_f32(5.0));
        let mut vars = HashMap::new();
        let mut env = ExecEnv {
            feeds: &feeds,
            variables: &mut vars,
        };
        let plan = Plan::compile(&g, &[y]).unwrap();
        let out = plan
            .run_ctx(&g, &mut env, &[y], &RunCtx::default())
            .unwrap();
        assert_eq!(
            out[0].as_tensor().unwrap().scalar_value_f32().unwrap(),
            10.0
        );

        let empty = HashMap::new();
        let mut env2 = ExecEnv {
            feeds: &empty,
            variables: &mut vars,
        };
        let err = plan
            .run_ctx(&g, &mut env2, &[y], &RunCtx::default())
            .unwrap_err();
        assert!(err.to_string().contains("was not fed"));
    }

    #[test]
    fn variables_and_assign() {
        let mut b = GraphBuilder::new();
        let w = b.variable("w", Tensor::scalar_f32(1.0));
        let one = b.scalar(1.0);
        let next = b.add_op(w, one);
        let assign = b.assign("w", next);
        let g = b.finish();

        let feeds = HashMap::new();
        let mut vars: HashMap<String, Tensor> = g.variables.iter().cloned().collect();
        let plan = Plan::compile(&g, &[assign]).unwrap();
        for step in 1..=3 {
            let mut env = ExecEnv {
                feeds: &feeds,
                variables: &mut vars,
            };
            let out = plan
                .run_ctx(&g, &mut env, &[assign], &RunCtx::default())
                .unwrap();
            assert_eq!(
                out[0].as_tensor().unwrap().scalar_value_f32().unwrap(),
                1.0 + step as f32
            );
        }
        assert_eq!(vars["w"].scalar_value_f32().unwrap(), 4.0);
    }

    #[test]
    fn cond_takes_correct_branch() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let zero = b.scalar(0.0);
        let pred = b.add(Op::Greater, vec![x, zero]);
        let (mut tb, tp) = SubGraphBuilder::new(1);
        let sq = tb.b.mul(tp[0], tp[0]);
        let then_g = tb.finish(vec![sq]);
        let (mut eb, ep) = SubGraphBuilder::new(1);
        let neg = eb.b.add(Op::Neg, vec![ep[0]]);
        let else_g = eb.finish(vec![neg]);
        let c = b.cond(pred, vec![x], then_g, else_g);
        let g = b.finish();

        for (input, expected) in [(3.0f32, 9.0f32), (-4.0, 4.0)] {
            let mut feeds = HashMap::new();
            feeds.insert("x".to_string(), Tensor::scalar_f32(input));
            let mut vars = HashMap::new();
            let mut env = ExecEnv {
                feeds: &feeds,
                variables: &mut vars,
            };
            let plan = Plan::compile(&g, &[c]).unwrap();
            let out = plan
                .run_ctx(&g, &mut env, &[c], &RunCtx::default())
                .unwrap();
            assert_eq!(
                out[0].as_tensor().unwrap().scalar_value_f32().unwrap(),
                expected
            );
        }
    }

    #[test]
    fn while_loop_counts() {
        // while i < 10: i = i + 1; s = s + i
        let mut b = GraphBuilder::new();
        let i0 = b.scalar(0.0);
        let s0 = b.scalar(0.0);
        let (mut cb, cp) = SubGraphBuilder::new(2);
        let ten = cb.b.scalar(10.0);
        let lt = cb.b.add(Op::Less, vec![cp[0], ten]);
        let cond_g = cb.finish(vec![lt]);
        let (mut bb, bp) = SubGraphBuilder::new(2);
        let one = bb.b.scalar(1.0);
        let i1 = bb.b.add_op(bp[0], one);
        let s1 = bb.b.add_op(bp[1], i1);
        let body_g = bb.finish(vec![i1, s1]);
        let w = b.while_loop(vec![i0, s0], cond_g, body_g);
        let s_final = b.tuple_get(w, 1);
        let g = b.finish();
        let out = env_run(&g, &[s_final]);
        assert_eq!(
            out[0].as_tensor().unwrap().scalar_value_f32().unwrap(),
            55.0
        );
    }

    #[test]
    fn while_zero_trips() {
        let mut b = GraphBuilder::new();
        let i0 = b.scalar(100.0);
        let (mut cb, cp) = SubGraphBuilder::new(1);
        let ten = cb.b.scalar(10.0);
        let lt = cb.b.add(Op::Less, vec![cp[0], ten]);
        let cond_g = cb.finish(vec![lt]);
        let (mut bb, bp) = SubGraphBuilder::new(1);
        let one = bb.b.scalar(1.0);
        let i1 = bb.b.add_op(bp[0], one);
        let body_g = bb.finish(vec![i1]);
        let w = b.while_loop(vec![i0], cond_g, body_g);
        let i_final = b.tuple_get(w, 0);
        let g = b.finish();
        let out = env_run(&g, &[i_final]);
        assert_eq!(
            out[0].as_tensor().unwrap().scalar_value_f32().unwrap(),
            100.0
        );
    }

    #[test]
    fn while_max_iters_guard() {
        let mut b = GraphBuilder::new();
        let i0 = b.scalar(0.0);
        let (mut cb, _cp) = SubGraphBuilder::new(1);
        let t = cb.b.constant(Tensor::scalar_bool(true));
        let cond_g = cb.finish(vec![t]);
        let (bb, bp) = SubGraphBuilder::new(1);
        let body_g = bb.finish(vec![bp[0]]);
        let w = b.add(
            OpKind::While {
                cond_g,
                body_g,
                max_iters: Some(5),
            },
            vec![i0],
        );
        let g = b.finish();
        let feeds = HashMap::new();
        let mut vars = HashMap::new();
        let mut env = ExecEnv {
            feeds: &feeds,
            variables: &mut vars,
        };
        let plan = Plan::compile(&g, &[w]).unwrap();
        let err = plan
            .run_ctx(&g, &mut env, &[w], &RunCtx::default())
            .unwrap_err();
        assert!(err.to_string().contains("max_iters"));
    }

    #[test]
    fn error_carries_node_name() {
        let mut b = GraphBuilder::new();
        let bad = b.constant(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let m = b.matmul(bad, bad); // rank-1 matmul fails at runtime
        let g = b.finish();
        let feeds = HashMap::new();
        let mut vars = HashMap::new();
        let mut env = ExecEnv {
            feeds: &feeds,
            variables: &mut vars,
        };
        let plan = Plan::compile(&g, &[m]).unwrap();
        let err = plan
            .run_ctx(&g, &mut env, &[m], &RunCtx::default())
            .unwrap_err();
        assert!(err.to_string().contains("matmul_"), "{err}");
    }

    #[test]
    fn bad_fetch_rejected_at_compile() {
        let g = GraphBuilder::new().finish();
        assert!(Plan::compile(&g, &[3]).is_err());
    }
}
