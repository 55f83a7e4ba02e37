//! Lowering: from a compiled execution plan to a register-based bytecode
//! [`Program`] for the VM in [`crate::vm`].
//!
//! The interpreter in [`crate::exec`] walks `graph.nodes` per dispatch:
//! every node evaluation re-reads the node, matches on its op, and
//! gathers inputs through an `Option<GValue>` side table. This pass does
//! all of that work once, at plan-compile time:
//!
//! * every materialized node gets a dense **register** (value slots are
//!   sized from the plan, so a frame is one `Vec<GValue>`);
//! * constants move into a **constant pool** (an instruction holds the
//!   pool index; execution is one `Arc` bump);
//! * ops are **pre-resolved**: each instruction carries its `OpKind`
//!   (or a fused kernel) plus the node name/span/mnemonic needed for
//!   error attribution, fault sites, observability and cost reporting —
//!   no graph lookups at run time;
//! * `While`/`Cond` become explicit control instructions referencing
//!   sub-procedures compiled from their (pruned) subgraphs;
//! * chains of elementwise ops collapse into single
//!   [`autograph_tensor::fused::FusedSpec`] loop kernels, with a
//!   `cover` table mapping the fused kernel back to every source node it
//!   absorbed (spans survive fusion — the provenance/explain layer and
//!   the chaos fault sites keep working);
//! * each instruction lists the registers whose **last use** it is, so
//!   the VM can move those operands into the instruction instead of
//!   copying them and recycle dead buffers into its arena (loop-carried
//!   temporaries stop hitting the allocator).
//!
//! Lowering is infallible: anything without a better encoding lowers to
//! a generic `Op` instruction that dispatches through the same kernel
//! table as the interpreter.
//!
//! ## Fusion grouping rules
//!
//! A node is absorbed into its consumer's fused group only when all of:
//! it maps to a [`FusedOp`]; it has exactly one consumer inside the same
//! procedure (tree fusion — per-element evaluation never duplicates
//! work); that consumer is itself fusable; it is not a subgraph output,
//! a top-level fetch, or an effect root. Groups respect the spec size
//! limits; a too-large group demotes gracefully into smaller ones.
//! Dtype/shape eligibility is checked per execution by the VM, which
//! falls back to exact op-by-op dispatch when it does not hold.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::exec::subgraph_order;
use crate::ir::{Graph, Node, NodeId, Op, OpKind, SubGraph};
use autograph_pylang::Span;
use autograph_tensor::fused::{FusedOp, FusedSpec};
use autograph_tensor::Tensor;
use std::collections::HashMap;

/// A register index inside one procedure's frame.
pub(crate) type Reg = u32;

/// A lowered plan: procedures (index 0 is the top level) plus the
/// constant pool they share.
#[derive(Debug)]
pub(crate) struct Program {
    pub procs: Vec<Proc>,
    pub pool: Vec<Tensor>,
    /// Top-level node id → register, for resolving run-time fetches.
    pub reg_of_node: Vec<Option<Reg>>,
}

/// One compiled procedure: the top level or a `While`/`Cond` subgraph.
#[derive(Debug)]
pub(crate) struct Proc {
    pub code: Vec<Instr>,
    /// Frame size in registers.
    pub nregs: usize,
    /// Declared outputs (empty for the top level, which serves fetches
    /// through [`Program::reg_of_node`]).
    pub outputs: Vec<Reg>,
    /// Expected argument count (subgraph procedures).
    pub num_params: usize,
}

/// One bytecode instruction. Name/span/mnemonic are carried inline so
/// execution never consults the graph.
#[derive(Debug)]
pub(crate) struct Instr {
    pub kind: IKind,
    pub dst: Reg,
    pub srcs: Vec<Reg>,
    /// Registers whose last use was this instruction. An operand among
    /// them that the instruction reads once moves into it; the rest are
    /// freed (and recycled into the arena) right after it executes.
    /// Populated only in subgraph procedures; the top level keeps every
    /// value for fetches, like the interpreter.
    pub free_after: Vec<Reg>,
    /// The node this instruction materializes (id within its own
    /// graph/subgraph; meaningful for cost collection at the top level).
    pub node: NodeId,
    pub name: String,
    pub span: Span,
    pub mnemonic: &'static str,
}

/// Instruction operations.
#[derive(Debug)]
pub(crate) enum IKind {
    /// Load a constant-pool entry.
    Const(usize),
    /// Read a feed by placeholder name.
    Feed(String),
    /// Read a variable.
    ReadVar(String),
    /// Write `srcs[0]` to a variable (and yield it).
    Assign(String),
    /// Bind subgraph parameter `i` (no dispatch counting, mirroring the
    /// interpreter's param short-circuit).
    Param(usize),
    /// A `Param` op at the top level — errors exactly like the
    /// interpreter.
    ParamTop(usize),
    /// Yield the last input (or an empty tuple).
    Group,
    /// A pure op dispatched through the kernel table.
    Op(OpKind),
    /// A fused chain of elementwise ops.
    Fused(FusedGroup),
    /// Functional conditional over two sub-procedures.
    Cond { then_p: usize, else_p: usize },
    /// Functional loop over two sub-procedures.
    While {
        cond_p: usize,
        body_p: usize,
        max_iters: Option<u64>,
    },
}

/// A fused elementwise group: the strip-mined kernel plus the covered
/// source nodes (in execution order, root last) for fault/obs/cost
/// parity and exact op-by-op fallback.
#[derive(Debug)]
pub(crate) struct FusedGroup {
    pub spec: FusedSpec,
    pub cover: Vec<CoverOp>,
}

/// One node absorbed by a fused kernel.
#[derive(Debug)]
pub(crate) struct CoverOp {
    pub op: OpKind,
    /// The op's inputs, as either external registers or earlier cover
    /// entries — what the fallback path evaluates.
    pub args: Vec<CoverArg>,
    pub node: NodeId,
    pub name: String,
    pub span: Span,
    pub mnemonic: &'static str,
}

/// An argument of a covered op.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CoverArg {
    /// Index into the fused instruction's `srcs`.
    Ext(usize),
    /// Index into the instruction's `cover` list (an absorbed
    /// intermediate).
    Int(usize),
}

/// A node's step in a fused elementwise kernel, when it has one.
fn fused(node: &Node) -> Option<FusedOp> {
    node.op.tensor().and_then(Op::fused)
}

/// Lower a plan into a bytecode program. `order` is the plan's
/// topological node order; `fetches` pins the registers a later run may
/// ask for (fusion never absorbs a fetchable node).
pub(crate) fn compile(graph: &Graph, order: &[NodeId], fetches: &[NodeId]) -> Program {
    let mut b = ProgramBuilder {
        procs: Vec::new(),
        pool: Vec::new(),
    };
    // reserve index 0 for the top level (subprocs get appended during
    // its compilation, so placeholder-swap at the end)
    b.procs.push(Proc {
        code: Vec::new(),
        nregs: 0,
        outputs: Vec::new(),
        num_params: 0,
    });
    let (proc, reg_of) = b.compile_proc(graph, order, &[], 0, true, fetches);
    b.procs[0] = proc;
    let mut reg_of_node = vec![None; graph.nodes.len()];
    for (id, reg) in reg_of {
        reg_of_node[id] = Some(reg);
    }
    Program {
        procs: b.procs,
        pool: b.pool,
        reg_of_node,
    }
}

struct ProgramBuilder {
    procs: Vec<Proc>,
    pool: Vec<Tensor>,
}

impl ProgramBuilder {
    /// Compile a subgraph into a new procedure, returning its index.
    fn compile_sub(&mut self, sub: &SubGraph) -> usize {
        let order = subgraph_order(sub);
        let idx = self.procs.len();
        // reserve the slot first so nested subgraphs allocate after it
        self.procs.push(Proc {
            code: Vec::new(),
            nregs: 0,
            outputs: Vec::new(),
            num_params: 0,
        });
        let (proc, _) =
            self.compile_proc(&sub.graph, &order, &sub.outputs, sub.num_params, false, &[]);
        self.procs[idx] = proc;
        idx
    }

    /// Compile one procedure: fusion grouping, then instruction
    /// emission, then last-use analysis.
    fn compile_proc(
        &mut self,
        graph: &Graph,
        order: &[NodeId],
        outputs: &[NodeId],
        num_params: usize,
        top_level: bool,
        fetches: &[NodeId],
    ) -> (Proc, HashMap<NodeId, Reg>) {
        let n = graph.nodes.len();
        let mut in_order = vec![false; n];
        for &id in order {
            in_order[id] = true;
        }
        let mut pinned = vec![false; n];
        for &o in outputs.iter().chain(fetches.iter()) {
            if o < n {
                pinned[o] = true;
            }
        }

        // data-consumer counts within this procedure
        let mut consumers = vec![0usize; n];
        let mut consumer_of = vec![0usize; n];
        for &id in order {
            for &i in &graph.nodes[id].inputs {
                if in_order[i] {
                    consumers[i] += 1;
                    consumer_of[i] = id;
                }
            }
        }

        // a node fuses upward into its unique consumer when both ends
        // are elementwise and nothing pins its value
        let mut fuse_up = vec![false; n];
        for &id in order {
            if pinned[id] || consumers[id] != 1 {
                continue;
            }
            if fused(&graph.nodes[id]).is_none() {
                continue;
            }
            if fused(&graph.nodes[consumer_of[id]]).is_none() {
                continue;
            }
            fuse_up[id] = true;
        }

        // group assembly, highest root first: a root whose group busts
        // the spec limits demotes its direct fused inputs, which then
        // get their own chance at being (smaller) roots
        let mut covered = vec![false; n];
        let mut groups: HashMap<NodeId, FusedGroup> = HashMap::new();
        for &root in order.iter().rev() {
            if fuse_up[root] || covered[root] || fused(&graph.nodes[root]).is_none() {
                continue;
            }
            let mut members: Vec<NodeId> = Vec::new();
            collect_members(graph, root, &fuse_up, &mut members);
            if members.is_empty() {
                continue;
            }
            match build_group(graph, root, &members) {
                Some(group) => {
                    for &m in &members {
                        covered[m] = true;
                    }
                    groups.insert(root, group);
                }
                None => {
                    // demote: the root materializes; its inputs become
                    // root candidates of their own subtrees
                    for &i in &graph.nodes[root].inputs {
                        if i < n {
                            fuse_up[i] = false;
                        }
                    }
                }
            }
        }

        // emission
        let mut reg_of: HashMap<NodeId, Reg> = HashMap::new();
        let mut param_reg: HashMap<usize, Reg> = HashMap::new();
        let mut next_reg: Reg = 0;
        let mut code: Vec<Instr> = Vec::new();
        for &id in order {
            if covered[id] {
                continue;
            }
            let node = &graph.nodes[id];
            // the VM binds parameters by move, so each binds once: a
            // second `Param` node of the same index shares the register
            if let (OpKind::Param(i), false) = (&node.op, top_level) {
                if let Some(&r) = param_reg.get(i) {
                    reg_of.insert(id, r);
                    continue;
                }
                param_reg.insert(*i, next_reg);
            }
            let (kind, srcs) = match &node.op {
                OpKind::Const(t) => {
                    let p = self.pool.len();
                    self.pool.push(t.clone());
                    (IKind::Const(p), Vec::new())
                }
                OpKind::Placeholder { name } => (IKind::Feed(name.clone()), Vec::new()),
                OpKind::Variable { name } => (IKind::ReadVar(name.clone()), Vec::new()),
                OpKind::Assign { name } => (
                    IKind::Assign(name.clone()),
                    gather_regs(&node.inputs, &reg_of),
                ),
                OpKind::Param(i) => {
                    let kind = if top_level {
                        IKind::ParamTop(*i)
                    } else {
                        IKind::Param(*i)
                    };
                    (kind, Vec::new())
                }
                OpKind::Group => (IKind::Group, gather_regs(&node.inputs, &reg_of)),
                OpKind::Cond { then_g, else_g } => {
                    let then_p = self.compile_sub(then_g);
                    let else_p = self.compile_sub(else_g);
                    (
                        IKind::Cond { then_p, else_p },
                        gather_regs(&node.inputs, &reg_of),
                    )
                }
                OpKind::While {
                    cond_g,
                    body_g,
                    max_iters,
                } => {
                    let cond_p = self.compile_sub(cond_g);
                    let body_p = self.compile_sub(body_g);
                    (
                        IKind::While {
                            cond_p,
                            body_p,
                            max_iters: *max_iters,
                        },
                        gather_regs(&node.inputs, &reg_of),
                    )
                }
                _ => match groups.remove(&id) {
                    Some(group) => {
                        // external inputs were recorded as node ids in
                        // slot order; resolve them to registers now
                        let srcs = group
                            .ext_nodes(graph)
                            .iter()
                            .map(|e| reg_of.get(e).copied().unwrap_or(Reg::MAX))
                            .collect();
                        (IKind::Fused(group), srcs)
                    }
                    None => (
                        IKind::Op(node.op.clone()),
                        gather_regs(&node.inputs, &reg_of),
                    ),
                },
            };
            let dst = next_reg;
            next_reg += 1;
            reg_of.insert(id, dst);
            code.push(Instr {
                kind,
                dst,
                srcs,
                free_after: Vec::new(),
                node: id,
                name: node.name.clone(),
                span: node.span,
                mnemonic: node.op.mnemonic(),
            });
        }

        let out_regs: Vec<Reg> = outputs
            .iter()
            .map(|o| reg_of.get(o).copied().unwrap_or(Reg::MAX))
            .collect();

        // last-use analysis: only subgraph frames free registers (the
        // top level serves arbitrary fetch subsets, like the
        // interpreter's value table)
        if !top_level {
            let mut last_use: Vec<Option<usize>> = vec![None; next_reg as usize];
            let mut def_at: Vec<usize> = vec![0; next_reg as usize];
            for (idx, instr) in code.iter().enumerate() {
                def_at[instr.dst as usize] = idx;
                for &s in &instr.srcs {
                    last_use[s as usize] = Some(idx);
                }
            }
            let mut is_out = vec![false; next_reg as usize];
            for &r in &out_regs {
                if (r as usize) < is_out.len() {
                    is_out[r as usize] = true;
                }
            }
            for r in 0..next_reg as usize {
                if is_out[r] {
                    continue;
                }
                let at = last_use[r].unwrap_or(def_at[r]);
                code[at].free_after.push(r as Reg);
            }
        }

        (
            Proc {
                code,
                nregs: next_reg as usize,
                outputs: out_regs,
                num_params,
            },
            reg_of,
        )
    }
}

/// Registers for a node's inputs (all must be materialized).
fn gather_regs(inputs: &[NodeId], reg_of: &HashMap<NodeId, Reg>) -> Vec<Reg> {
    inputs
        .iter()
        .map(|i| reg_of.get(i).copied().unwrap_or(Reg::MAX))
        .collect()
}

/// DFS from a fused root, collecting every node that fuses (transitively)
/// into it.
fn collect_members(graph: &Graph, at: NodeId, fuse_up: &[bool], members: &mut Vec<NodeId>) {
    for &i in &graph.nodes[at].inputs {
        if i < fuse_up.len() && fuse_up[i] {
            members.push(i);
            collect_members(graph, i, fuse_up, members);
        }
    }
}

impl FusedGroup {
    /// The external input node ids, in slot order (parallel to the
    /// instruction's `srcs`). Recomputed from the cover's `Ext` args.
    fn ext_nodes(&self, graph: &Graph) -> Vec<NodeId> {
        let mut slots: Vec<NodeId> = Vec::new();
        let in_cover = |id: NodeId| self.cover.iter().any(|c| c.node == id);
        for c in &self.cover {
            for (k, &input) in graph.nodes[c.node].inputs.iter().enumerate() {
                if let Some(CoverArg::Ext(slot)) = c.args.get(k).copied() {
                    debug_assert!(!in_cover(input));
                    if slots.len() <= slot {
                        slots.resize(slot + 1, input);
                    }
                    slots[slot] = input;
                }
            }
        }
        slots
    }
}

/// Build the postfix spec + cover table for a root and its members.
/// Returns `None` when the group exceeds the fused-spec limits.
fn build_group(graph: &Graph, root: NodeId, members: &[NodeId]) -> Option<FusedGroup> {
    // cover in execution order (ascending id; the root is last because
    // members are its transitive inputs)
    let mut cover_ids: Vec<NodeId> = members.to_vec();
    cover_ids.sort_unstable();
    cover_ids.dedup();
    cover_ids.push(root);
    let cover_index: HashMap<NodeId, usize> = cover_ids
        .iter()
        .enumerate()
        .map(|(k, &id)| (id, k))
        .collect();

    // postfix emission by recursion over the tree
    let mut ops: Vec<FusedOp> = Vec::new();
    let mut slot_of: HashMap<NodeId, usize> = HashMap::new();
    let mut slot_order: Vec<NodeId> = Vec::new();
    fn emit(
        graph: &Graph,
        id: NodeId,
        cover_index: &HashMap<NodeId, usize>,
        ops: &mut Vec<FusedOp>,
        slot_of: &mut HashMap<NodeId, usize>,
        slot_order: &mut Vec<NodeId>,
    ) -> Option<()> {
        for &i in &graph.nodes[id].inputs {
            if cover_index.contains_key(&i) && i != id {
                emit(graph, i, cover_index, ops, slot_of, slot_order)?;
            } else {
                let next = slot_of.len();
                let slot = *slot_of.entry(i).or_insert(next);
                if slot == next {
                    slot_order.push(i);
                }
                ops.push(FusedOp::Input(u8::try_from(slot).ok()?));
            }
        }
        ops.push(fused(&graph.nodes[id])?);
        Some(())
    }
    emit(
        graph,
        root,
        &cover_index,
        &mut ops,
        &mut slot_of,
        &mut slot_order,
    )?;
    let spec = FusedSpec::new(ops, slot_order.len())?;

    let cover: Vec<CoverOp> = cover_ids
        .iter()
        .map(|&id| {
            let node = &graph.nodes[id];
            let args = node
                .inputs
                .iter()
                .map(|i| match cover_index.get(i) {
                    Some(&k) if *i != id => CoverArg::Int(k),
                    _ => CoverArg::Ext(*slot_of.get(i).unwrap_or(&usize::MAX)),
                })
                .collect();
            CoverOp {
                op: node.op.clone(),
                args,
                node: id,
                name: node.name.clone(),
                span: node.span,
                mnemonic: node.op.mnemonic(),
            }
        })
        .collect();
    Some(FusedGroup { spec, cover })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::exec::Plan;

    #[test]
    fn elementwise_chain_fuses_into_one_instruction() {
        // tanh((x + y) * y) — add and mul are single-consumer, so the
        // whole chain collapses into one fused instr with 3 cover ops
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let y = b.placeholder("y");
        let s = b.add_op(x, y);
        let m = b.mul(s, y);
        let t = b.add(Op::Tanh, vec![m]);
        let g = b.finish();
        let plan = Plan::compile(&g, &[t]).unwrap();
        let prog = compile(&g, plan.order(), &[t]);
        let fused: Vec<&Instr> = prog.procs[0]
            .code
            .iter()
            .filter(|i| matches!(i.kind, IKind::Fused(_)))
            .collect();
        assert_eq!(fused.len(), 1);
        if let IKind::Fused(group) = &fused[0].kind {
            assert_eq!(group.cover.len(), 3);
            assert_eq!(group.cover.last().unwrap().node, t);
            assert_eq!(group.spec.num_inputs(), 2);
        }
        // the intermediates are not materialized
        assert!(prog.reg_of_node[s].is_none());
        assert!(prog.reg_of_node[m].is_none());
        assert!(prog.reg_of_node[t].is_some());
    }

    #[test]
    fn fetched_intermediates_stay_materialized() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let y = b.placeholder("y");
        let s = b.add_op(x, y);
        let t = b.add(Op::Tanh, vec![s]);
        let g = b.finish();
        let plan = Plan::compile(&g, &[s, t]).unwrap();
        let prog = compile(&g, plan.order(), &[s, t]);
        assert!(prog.reg_of_node[s].is_some(), "fetched node must be pinned");
        assert!(prog.reg_of_node[t].is_some());
        assert!(!prog.procs[0]
            .code
            .iter()
            .any(|i| matches!(&i.kind, IKind::Fused(g) if g.cover.iter().any(|c| c.node == s))));
    }

    #[test]
    fn multi_consumer_values_are_not_absorbed() {
        // d = (x+y); out = d * d consumes d twice → d materializes
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let y = b.placeholder("y");
        let d = b.add_op(x, y);
        let out = b.mul(d, d);
        let g = b.finish();
        let plan = Plan::compile(&g, &[out]).unwrap();
        let prog = compile(&g, plan.order(), &[out]);
        assert!(prog.reg_of_node[d].is_some());
    }

    #[test]
    fn constants_move_into_the_pool() {
        let mut b = GraphBuilder::new();
        let a = b.scalar(2.0);
        let c = b.scalar(3.0);
        let m = b.matmul(a, c); // not fusable; consts materialize
        let g = b.finish();
        let plan = Plan::compile(&g, &[m]).unwrap();
        let prog = compile(&g, plan.order(), &[m]);
        assert_eq!(prog.pool.len(), 2);
        assert_eq!(
            prog.procs[0]
                .code
                .iter()
                .filter(|i| matches!(i.kind, IKind::Const(_)))
                .count(),
            2
        );
    }

    #[test]
    fn while_lowering_produces_sub_procedures_with_frees() {
        use crate::builder::SubGraphBuilder;
        let mut b = GraphBuilder::new();
        let i0 = b.scalar(0.0);
        let (mut cb, cp) = SubGraphBuilder::new(1);
        let ten = cb.b.scalar(10.0);
        let lt = cb.b.add(Op::Less, vec![cp[0], ten]);
        let cond_g = cb.finish(vec![lt]);
        let (mut bb, bp) = SubGraphBuilder::new(1);
        let one = bb.b.scalar(1.0);
        let i1 = bb.b.add_op(bp[0], one);
        let body_g = bb.finish(vec![i1]);
        let w = b.while_loop(vec![i0], cond_g, body_g);
        let g = b.finish();
        let plan = Plan::compile(&g, &[w]).unwrap();
        let prog = compile(&g, plan.order(), &[w]);
        assert_eq!(prog.procs.len(), 3, "top level + cond + body");
        let top_while = prog.procs[0]
            .code
            .iter()
            .find(|i| matches!(i.kind, IKind::While { .. }));
        assert!(top_while.is_some());
        // subgraph frames free their non-output registers
        let frees: usize = prog.procs[1..]
            .iter()
            .flat_map(|p| p.code.iter())
            .map(|i| i.free_after.len())
            .sum();
        assert!(frees > 0, "loop frames must recycle dead registers");
        // the top level never frees (fetch semantics)
        assert!(prog.procs[0].code.iter().all(|i| i.free_after.is_empty()));
    }
}
