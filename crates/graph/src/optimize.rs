//! Whole-program graph optimizations — the benefit the paper attributes to
//! graph-based systems ("can benefit from whole-program optimization").
//!
//! Three classic passes:
//!
//! * **constant folding** — pure nodes whose inputs are all constants are
//!   evaluated at optimization time and replaced with `Const`;
//! * **common-subexpression elimination** — identical pure nodes (same op,
//!   same inputs) are merged;
//! * **dead-code elimination** — nodes not reachable from any protected
//!   output are dropped.
//!
//! `optimize` returns the new graph plus the remapped ids of the protected
//! nodes. Subgraphs (`Cond`/`While` bodies) are optimized recursively with
//! their own outputs protected.

use crate::ir::{GValue, Graph, Node, NodeId, OpKind, PassRecord, ProvSource, SubGraph};
use crate::ops;
use autograph_obs as obs;
use autograph_pylang::Span;
use std::collections::HashMap;

/// Statistics from one optimization run (used by the ablation bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Nodes evaluated at optimization time.
    pub folded: usize,
    /// Nodes merged by CSE.
    pub deduped: usize,
    /// Nodes removed as dead.
    pub eliminated: usize,
}

/// A node removed outright by an optimization pass. Surviving nodes carry
/// their own rewrite lineage ([`crate::ir::PassRecord`]); removed ones no
/// longer exist to carry anything, so their record lives here.
#[derive(Debug, Clone, PartialEq)]
pub struct ElimRecord {
    /// The pass that removed the node (`"cse"`, `"dce"`).
    pub pass: &'static str,
    /// The removed node's staged name.
    pub name: String,
    /// Its op mnemonic.
    pub op: &'static str,
    /// Its user-source span.
    pub span: Span,
    /// For CSE merges: the surviving duplicate the users were remapped
    /// to. `None` for plain dead-code removal.
    pub merged_into: Option<String>,
}

/// Everything the optimizer removed, including from nested subgraphs —
/// the complement of the per-node provenance chains.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptTrace {
    /// Removed nodes, in pass-then-graph order (deterministic).
    pub eliminated: Vec<ElimRecord>,
}

/// Run all passes. Returns `(optimized graph, remapped protected ids,
/// stats)`. Use [`optimize_traced`] to also receive the elimination
/// trace.
pub fn optimize(graph: &Graph, protected: &[NodeId]) -> (Graph, Vec<NodeId>, OptStats) {
    let (g, p, stats, _) = optimize_traced(graph, protected);
    (g, p, stats)
}

/// Run all passes, additionally returning an [`OptTrace`] recording every
/// node the passes removed. Surviving nodes carry their rewrite history
/// in [`Node::prov`].
pub fn optimize_traced(
    graph: &Graph,
    protected: &[NodeId],
) -> (Graph, Vec<NodeId>, OptStats, OptTrace) {
    let mut stats = OptStats::default();
    let mut trace = OptTrace::default();
    let nodes_in = graph.nodes.len();
    let (g, remap) = {
        let _span = obs::span("optimize", "fold_and_cse");
        fold_and_cse(graph, &mut stats, &mut trace)
    };
    if obs::enabled() {
        obs::observe(
            "optimize",
            "fold_cse_nodes_removed",
            (nodes_in - g.nodes.len()) as u64,
        );
    }
    let protected_mid: Vec<NodeId> = protected.iter().map(|&p| remap[p]).collect();
    let nodes_mid = g.nodes.len();
    let (g, remap2) = {
        let _span = obs::span("optimize", "dce");
        dce(&g, &protected_mid, &mut stats, &mut trace)
    };
    if obs::enabled() {
        obs::observe(
            "optimize",
            "dce_nodes_removed",
            (nodes_mid - g.nodes.len()) as u64,
        );
    }
    let protected_out = protected_mid
        .iter()
        .map(|&p| remap2[p].expect("protected nodes survive DCE"))
        .collect();
    (g, protected_out, stats, trace)
}

/// The provenance sources of a pre-pass node set (by id, in the graph the
/// pass is reading).
fn sources_of(graph: &Graph, ids: &[NodeId]) -> Vec<ProvSource> {
    ids.iter()
        .map(|&i| ProvSource {
            node: i,
            name: graph.nodes[i].name.clone(),
            span: graph.nodes[i].span,
        })
        .collect()
}

/// Constant folding + CSE in one forward walk.
fn fold_and_cse(graph: &Graph, stats: &mut OptStats, trace: &mut OptTrace) -> (Graph, Vec<NodeId>) {
    let mut out = Graph {
        nodes: Vec::with_capacity(graph.nodes.len()),
        variables: graph.variables.clone(),
    };
    let mut remap: Vec<NodeId> = Vec::with_capacity(graph.nodes.len());
    // key: (mnemonic-discriminated op debug, inputs) — OpKind is PartialEq,
    // so key on a rendered form for hashing.
    let mut seen: HashMap<String, NodeId> = HashMap::new();

    for (node_id, node) in graph.nodes.iter().enumerate() {
        let new_inputs: Vec<NodeId> = node.inputs.iter().map(|&i| remap[i]).collect();

        // Recursively optimize subgraphs.
        let op = match &node.op {
            OpKind::Cond { then_g, else_g } => OpKind::Cond {
                then_g: optimize_sub(then_g, stats, trace),
                else_g: optimize_sub(else_g, stats, trace),
            },
            OpKind::While {
                cond_g,
                body_g,
                max_iters,
            } => OpKind::While {
                cond_g: optimize_sub(cond_g, stats, trace),
                body_g: optimize_sub(body_g, stats, trace),
                max_iters: *max_iters,
            },
            other => other.clone(),
        };

        // Records a CSE merge: the survivor gains a lineage entry naming
        // the absorbed node; the absorbed node goes to the trace.
        let mut merge_into = |out: &mut Graph, existing: NodeId, node: &Node| {
            out.nodes[existing].prov.push(PassRecord {
                pass: "cse",
                action: "absorbed-duplicate",
                sources: vec![ProvSource {
                    node: node_id,
                    name: node.name.clone(),
                    span: node.span,
                }],
            });
            trace.eliminated.push(ElimRecord {
                pass: "cse",
                name: node.name.clone(),
                op: node.op.mnemonic(),
                span: node.span,
                merged_into: Some(out.nodes[existing].name.clone()),
            });
        };

        // Constant folding: all-const inputs to a pure op.
        let foldable = op.is_pure()
            && !matches!(op, OpKind::Const(_))
            && !new_inputs.is_empty()
            && new_inputs
                .iter()
                .all(|&i| matches!(out.nodes[i].op, OpKind::Const(_)));
        if foldable {
            let mut input_values: Vec<GValue> = new_inputs
                .iter()
                .map(|&i| match &out.nodes[i].op {
                    OpKind::Const(t) => GValue::Tensor(t.clone()),
                    _ => unreachable!("checked const"),
                })
                .collect();
            if let Ok(GValue::Tensor(t)) = ops::execute(&op, &mut input_values) {
                stats.folded += 1;
                let folded = OpKind::Const(t);
                let key = cse_key(&folded, &[]);
                if let Some(&existing) = seen.get(&key) {
                    stats.deduped += 1;
                    merge_into(&mut out, existing, node);
                    remap.push(existing);
                    continue;
                }
                let mut prov = node.prov.clone();
                prov.push(PassRecord {
                    pass: "const_fold",
                    action: "folded-inputs",
                    sources: sources_of(graph, &node.inputs),
                });
                out.nodes.push(Node {
                    op: folded.clone(),
                    inputs: vec![],
                    name: node.name.clone(),
                    span: node.span,
                    prov,
                });
                let id = out.nodes.len() - 1;
                seen.insert(key, id);
                remap.push(id);
                continue;
            }
        }

        // CSE for pure ops.
        if op.is_pure() {
            let key = cse_key(&op, &new_inputs);
            if let Some(&existing) = seen.get(&key) {
                stats.deduped += 1;
                merge_into(&mut out, existing, node);
                remap.push(existing);
                continue;
            }
            out.nodes.push(Node {
                op: op.clone(),
                inputs: new_inputs.clone(),
                name: node.name.clone(),
                span: node.span,
                prov: node.prov.clone(),
            });
            let id = out.nodes.len() - 1;
            seen.insert(key, id);
            remap.push(id);
        } else {
            out.nodes.push(Node {
                op,
                inputs: new_inputs,
                name: node.name.clone(),
                span: node.span,
                prov: node.prov.clone(),
            });
            remap.push(out.nodes.len() - 1);
        }
    }
    (out, remap)
}

fn optimize_sub(sub: &SubGraph, stats: &mut OptStats, trace: &mut OptTrace) -> SubGraph {
    let (g, outputs, s, sub_trace) = optimize_traced(&sub.graph, &sub.outputs);
    stats.folded += s.folded;
    stats.deduped += s.deduped;
    stats.eliminated += s.eliminated;
    trace.eliminated.extend(sub_trace.eliminated);
    SubGraph {
        graph: g,
        num_params: sub.num_params,
        outputs,
    }
}

fn cse_key(op: &OpKind, inputs: &[NodeId]) -> String {
    // Tensors render with a truncated preview; include full data for small
    // constants so folding stays sound, and fall back to pointer-free
    // structural identity for the rest.
    match op {
        OpKind::Const(t) if t.num_elements() <= 16 => {
            format!("const:{:?}:{:?}:{:?}", t.dtype(), t.shape(), t.to_f32_vec())
        }
        OpKind::Const(t) => format!("const-big:{:p}", t.data()),
        _ => format!("{op:?}:{inputs:?}"),
    }
}

/// Dead-code elimination: keep only nodes reachable from `protected`.
fn dce(
    graph: &Graph,
    protected: &[NodeId],
    stats: &mut OptStats,
    trace: &mut OptTrace,
) -> (Graph, Vec<Option<NodeId>>) {
    let mut needed = vec![false; graph.nodes.len()];
    let mut stack: Vec<NodeId> = protected.to_vec();
    while let Some(n) = stack.pop() {
        if needed[n] {
            continue;
        }
        needed[n] = true;
        stack.extend(graph.nodes[n].inputs.iter().copied());
    }
    let mut out = Graph {
        nodes: Vec::new(),
        variables: graph.variables.clone(),
    };
    let mut remap: Vec<Option<NodeId>> = vec![None; graph.nodes.len()];
    for (i, node) in graph.nodes.iter().enumerate() {
        if !needed[i] {
            stats.eliminated += 1;
            trace.eliminated.push(ElimRecord {
                pass: "dce",
                name: node.name.clone(),
                op: node.op.mnemonic(),
                span: node.span,
                merged_into: None,
            });
            continue;
        }
        let inputs = node
            .inputs
            .iter()
            .map(|&x| remap[x].expect("inputs precede users"))
            .collect();
        out.nodes.push(Node {
            op: node.op.clone(),
            inputs,
            name: node.name.clone(),
            span: node.span,
            prov: node.prov.clone(),
        });
        remap[i] = Some(out.nodes.len() - 1);
    }
    (out, remap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ir::Op;
    use crate::session::Session;
    use autograph_tensor::Tensor;

    #[test]
    fn folds_constants() {
        let mut b = GraphBuilder::new();
        let a = b.scalar(2.0);
        let c = b.scalar(3.0);
        let s = b.add_op(a, c);
        let x = b.placeholder("x");
        let y = b.mul(s, x);
        let g = b.finish();
        let (og, keep, stats) = optimize(&g, &[y]);
        assert!(stats.folded >= 1);
        // the add node became a const
        assert!(og
            .nodes
            .iter()
            .any(|n| matches!(&n.op, OpKind::Const(t) if t.scalar_value_f32() == Ok(5.0))));
        let mut sess = Session::new(og);
        let out = sess
            .run(&[("x", Tensor::scalar_f32(4.0))], &[keep[0]])
            .unwrap();
        assert_eq!(out[0].scalar_value_f32().unwrap(), 20.0);
    }

    #[test]
    fn cse_merges_duplicates() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let a1 = b.tanh(x);
        let a2 = b.tanh(x);
        let s = b.add_op(a1, a2);
        let g = b.finish();
        let (og, keep, stats) = optimize(&g, &[s]);
        assert_eq!(stats.deduped, 1);
        let tanh_count = og
            .nodes
            .iter()
            .filter(|n| matches!(n.op, OpKind::Tensor(Op::Tanh)))
            .count();
        assert_eq!(tanh_count, 1);
        let mut sess = Session::new(og);
        let out = sess
            .run(&[("x", Tensor::scalar_f32(1.0))], &[keep[0]])
            .unwrap();
        assert!((out[0].scalar_value_f32().unwrap() - 2.0 * 1f32.tanh()).abs() < 1e-6);
    }

    #[test]
    fn dce_drops_unreachable() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let used = b.tanh(x);
        let _dead1 = b.sigmoid(x);
        let _dead2 = b.relu(x);
        let g = b.finish();
        let (og, keep, stats) = optimize(&g, &[used]);
        assert_eq!(stats.eliminated, 2);
        assert_eq!(og.len(), 2);
        assert_eq!(keep.len(), 1);
    }

    #[test]
    fn effectful_nodes_never_folded_or_merged() {
        let mut b = GraphBuilder::new();
        let c = b.scalar(1.0);
        let p1 = b.add(OpKind::Print("a".into()), vec![c]);
        let p2 = b.add(OpKind::Print("a".into()), vec![c]);
        let s = b.add_op(p1, p2);
        let g = b.finish();
        let (og, _, _) = optimize(&g, &[s]);
        let prints = og
            .nodes
            .iter()
            .filter(|n| matches!(n.op, OpKind::Print(_)))
            .count();
        assert_eq!(prints, 2);
    }

    #[test]
    fn subgraphs_optimized_recursively() {
        use crate::builder::SubGraphBuilder;
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let pred = {
            let zero = b.scalar(0.0);
            b.add(Op::Greater, vec![x, zero])
        };
        let (mut tb, tp) = SubGraphBuilder::new(1);
        let c1 = tb.b.scalar(2.0);
        let c2 = tb.b.scalar(3.0);
        let c3 = tb.b.add_op(c1, c2); // foldable inside subgraph
        let r = tb.b.mul(tp[0], c3);
        let then_g = tb.finish(vec![r]);
        let (eb, ep) = SubGraphBuilder::new(1);
        let else_g = eb.finish(vec![ep[0]]);
        let c = b.cond(pred, vec![x], then_g, else_g);
        let g = b.finish();
        let (og, keep, stats) = optimize(&g, &[c]);
        assert!(stats.folded >= 1);
        let mut sess = Session::new(og);
        let out = sess
            .run(&[("x", Tensor::scalar_f32(2.0))], &[keep[0]])
            .unwrap();
        assert_eq!(out[0].scalar_value_f32().unwrap(), 10.0);
    }

    #[test]
    fn provenance_records_fold_cse_and_dce() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let a = b.scalar(2.0);
        let c = b.scalar(3.0);
        let folded = b.add_op(a, c); // const-folds to 5.0
        let t1 = b.tanh(x);
        let t2 = b.tanh(x); // CSE-merges into t1
        let dead = b.sigmoid(x); // DCE'd
        let y = {
            let s = b.add_op(t1, t2);
            b.mul(s, folded)
        };
        let _ = dead;
        let g = b.finish();
        let (og, keep, _, trace) = optimize_traced(&g, &[y]);

        // the folded node carries a const_fold record naming its inputs
        let fold_node = og
            .nodes
            .iter()
            .find(|n| n.prov.iter().any(|r| r.pass == "const_fold"))
            .expect("folded node records its pass");
        let rec = &fold_node.prov[0];
        assert_eq!(rec.action, "folded-inputs");
        assert_eq!(rec.sources.len(), 2);
        assert!(fold_node.lineage().contains("const_fold(folded-inputs:"));

        // the surviving tanh absorbed its duplicate
        let survivor = og
            .nodes
            .iter()
            .find(|n| matches!(n.op, OpKind::Tensor(Op::Tanh)))
            .expect("one tanh survives");
        assert!(survivor
            .prov
            .iter()
            .any(|r| r.pass == "cse" && r.action == "absorbed-duplicate"));

        // the trace covers both removal kinds
        assert!(trace
            .eliminated
            .iter()
            .any(|e| e.pass == "cse" && e.op == "tanh" && e.merged_into.is_some()));
        assert!(trace
            .eliminated
            .iter()
            .any(|e| e.pass == "dce" && e.op == "sigmoid" && e.merged_into.is_none()));

        // the optimized graph still computes the right thing
        let mut sess = Session::new(og);
        let out = sess
            .run(&[("x", Tensor::scalar_f32(1.0))], &[keep[0]])
            .unwrap();
        assert!((out[0].scalar_value_f32().unwrap() - 2.0 * 1f32.tanh() * 5.0).abs() < 1e-5);
    }

    #[test]
    fn provenance_is_deterministic_across_reruns() {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let a = b.scalar(1.0);
        let c = b.scalar(1.0);
        let s = b.add_op(a, c);
        let t1 = b.tanh(x);
        let t2 = b.tanh(x);
        let u = b.add_op(t1, t2);
        let y = b.mul(u, s);
        let g = b.finish();
        let (g1, k1, _, t1_) = optimize_traced(&g, &[y]);
        let (g2, k2, _, t2_) = optimize_traced(&g, &[y]);
        assert_eq!(g1, g2);
        assert_eq!(k1, k2);
        assert_eq!(t1_, t2_);
        assert_eq!(format!("{g1:?}{t1_:?}"), format!("{g2:?}{t2_:?}"));
    }

    #[test]
    fn optimization_preserves_variable_semantics() {
        let mut b = GraphBuilder::new();
        let w = b.variable("w", Tensor::scalar_f32(1.0));
        let two = b.scalar(2.0);
        let doubled = b.mul(w, two);
        let assign = b.assign("w", doubled);
        let g = b.finish();
        let (og, keep, _) = optimize(&g, &[assign]);
        let mut sess = Session::new(og);
        sess.run(&[], &[keep[0]]).unwrap();
        sess.run(&[], &[keep[0]]).unwrap();
        assert_eq!(sess.variable("w").unwrap().scalar_value_f32().unwrap(), 4.0);
    }
}
