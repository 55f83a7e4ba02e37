//! Provenance completeness over the differential corpus: every executed
//! top-level plan node must resolve to a PyLite source span (at 1 and 4
//! threads), and the whole provenance layer — node chains, optimizer
//! trace, spans — must reproduce bitwise when the same function is
//! staged and optimized a second time.

use autograph::prelude::*;
use autograph_graph::optimize::optimize_traced;

#[path = "support/corpus.rs"]
mod corpus;
#[path = "support/exec.rs"]
mod exec;
use corpus::{programs, Program};

fn stage_optimized(
    rt: &mut Runtime,
    p: &Program,
) -> (
    autograph_graph::Graph,
    Vec<autograph_graph::NodeId>,
    autograph_graph::OptTrace,
) {
    let placeholder_args: Vec<GraphArg> = p
        .feeds
        .iter()
        .map(|(n, _)| GraphArg::Placeholder((*n).to_string()))
        .collect();
    let staged = rt
        .stage_to_graph("f", placeholder_args)
        .unwrap_or_else(|e| panic!("{}: stage: {e}", p.name));
    let (graph, outputs, _stats, trace) = optimize_traced(&staged.graph, &staged.outputs);
    (graph, outputs, trace)
}

#[test]
fn every_executed_node_resolves_to_a_source_span() {
    // the VM's fused kernels split their cost across covered source
    // nodes, so every absorbed op still surfaces with its real span —
    // as complete as the reference interpreter's attribution
    for p in programs() {
        let mut rt = Runtime::load(p.src, true).unwrap_or_else(|e| panic!("{}: load: {e}", p.name));
        let (graph, outputs, _trace) = stage_optimized(&mut rt, &p);
        for (mode, threads) in exec::GRID {
            let mut sess = Session::new(graph.clone());
            sess.set_threads(threads);
            sess.set_reporting(true);
            exec::run(&mut sess, mode, &p.feeds, &outputs, &RunOptions::default())
                .unwrap_or_else(|e| panic!("{}: run {mode:?} t{threads}: {e}", p.name));
            let report = sess
                .last_report()
                .unwrap_or_else(|| panic!("{}: reporting was enabled", p.name));
            for c in &report.node_costs {
                assert!(
                        !c.span.is_synthetic(),
                        "{}: {mode:?} t{threads}: executed node {} '{}' ({}, {} evals) has no source span",
                        p.name,
                        c.node,
                        c.name,
                        c.op,
                        c.evals,
                    );
            }
        }
    }
}

#[test]
fn provenance_survives_restaging_bitwise() {
    for p in programs() {
        let mut rt = Runtime::load(p.src, true).unwrap_or_else(|e| panic!("{}: load: {e}", p.name));
        let (g1, o1, t1) = stage_optimized(&mut rt, &p);
        let (g2, o2, t2) = stage_optimized(&mut rt, &p);
        assert_eq!(o1, o2, "{}: outputs differ across restaging", p.name);
        assert_eq!(
            g1, g2,
            "{}: optimized graph (nodes, spans, provenance chains) differs across restaging",
            p.name
        );
        assert_eq!(
            t1, t2,
            "{}: optimizer trace differs across restaging",
            p.name
        );
        // belt and braces: the rendered lineage strings match too
        for (a, b) in g1.nodes.iter().zip(g2.nodes.iter()) {
            assert_eq!(a.lineage(), b.lineage(), "{}: lineage text differs", p.name);
        }
    }
}
