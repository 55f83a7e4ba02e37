//! Classic worklist dataflow over the CFG: liveness (backward may) and
//! reaching definitions (forward may). These are the "standard dataflow
//! analyses" of §7.1.

use crate::cfg::{Cfg, NodeId, ENTRY};
use crate::SymbolSet;
use std::collections::{BTreeSet, VecDeque};

/// Result of liveness analysis: live sets at node entry and exit.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Symbols live on entry to each node.
    pub live_in: Vec<SymbolSet>,
    /// Symbols live on exit from each node.
    pub live_out: Vec<SymbolSet>,
}

/// Run backward liveness to a fixpoint.
///
/// `live_at_exit` seeds the live set at the function's exit node (e.g. the
/// returned variables when analyzing a fragment).
pub fn liveness(cfg: &Cfg, live_at_exit: &SymbolSet) -> Liveness {
    let n = cfg.len();
    let mut live_in = vec![SymbolSet::new(); n];
    let mut live_out = vec![SymbolSet::new(); n];
    live_in[crate::cfg::EXIT] = live_at_exit.clone();

    let mut work: VecDeque<NodeId> = (0..n).rev().collect();
    while let Some(node) = work.pop_front() {
        let mut out = SymbolSet::new();
        for &s in cfg.succs(node) {
            out.extend(live_in[s].iter().cloned());
        }
        if node == crate::cfg::EXIT {
            out.extend(live_at_exit.iter().cloned());
        }
        let mut inn: SymbolSet = out
            .iter()
            .filter(|s| !cfg.nodes[node].defs.contains(*s))
            .cloned()
            .collect();
        inn.extend(cfg.nodes[node].uses.iter().cloned());
        if node == crate::cfg::EXIT {
            inn.extend(live_at_exit.iter().cloned());
        }
        if inn != live_in[node] || out != live_out[node] {
            live_in[node] = inn;
            live_out[node] = out;
            for &p in cfg.preds(node) {
                if !work.contains(&p) {
                    work.push_back(p);
                }
            }
        }
    }
    Liveness { live_in, live_out }
}

/// A definition site: `(node, symbol)`.
pub type Def = (NodeId, String);

/// Result of reaching-definitions analysis.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    /// Definitions reaching each node's entry.
    pub reach_in: Vec<BTreeSet<Def>>,
    /// Definitions reaching each node's exit.
    pub reach_out: Vec<BTreeSet<Def>>,
}

/// Run forward reaching definitions to a fixpoint.
///
/// `params` are treated as definitions at the entry node.
pub fn reaching_definitions(cfg: &Cfg, params: &SymbolSet) -> ReachingDefs {
    let n = cfg.len();
    let mut reach_in = vec![BTreeSet::new(); n];
    let mut reach_out = vec![BTreeSet::new(); n];
    let entry_defs: BTreeSet<Def> = params.iter().map(|p| (ENTRY, p.clone())).collect();
    reach_out[ENTRY] = entry_defs;

    let mut work: VecDeque<NodeId> = (0..n).collect();
    while let Some(node) = work.pop_front() {
        let mut inn: BTreeSet<Def> = BTreeSet::new();
        for &p in cfg.preds(node) {
            inn.extend(reach_out[p].iter().cloned());
        }
        let node_defs = &cfg.nodes[node].defs;
        let mut out: BTreeSet<Def> = inn
            .iter()
            .filter(|(_, s)| !node_defs.contains(s))
            .cloned()
            .collect();
        for d in node_defs {
            out.insert((node, d.clone()));
        }
        if node == ENTRY {
            out.extend(params.iter().map(|p| (ENTRY, p.clone())));
        }
        if inn != reach_in[node] || out != reach_out[node] {
            reach_in[node] = inn;
            reach_out[node] = out;
            for &s in cfg.succs(node) {
                if !work.contains(&s) {
                    work.push_back(s);
                }
            }
        }
    }
    ReachingDefs {
        reach_in,
        reach_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{Cfg, EXIT};
    use autograph_pylang::parse_module;

    fn build(src: &str) -> Cfg {
        Cfg::build(&parse_module(src).unwrap().body)
    }

    fn set(items: &[&str]) -> SymbolSet {
        items.iter().map(|s| s.to_string()).collect()
    }

    /// The definitions of `symbol` that reach the entry of `node`.
    fn defs_of(r: &ReachingDefs, node: NodeId, symbol: &str) -> Vec<NodeId> {
        r.reach_in[node]
            .iter()
            .filter(|(_, s)| s == symbol)
            .map(|(n, _)| *n)
            .collect()
    }

    #[test]
    fn liveness_straight_line() {
        let g = build("y = x + 1\nz = y\n");
        let l = liveness(&g, &set(&["z"]));
        // x live at entry; y not (defined before use)
        assert!(l.live_in[ENTRY].contains("x"));
        assert!(!l.live_in[ENTRY].contains("y"));
        assert!(!l.live_in[ENTRY].contains("z"));
    }

    #[test]
    fn liveness_through_loop() {
        let g = build("while c:\n    x = x + d\nr = x\n");
        let l = liveness(&g, &set(&["r"]));
        for v in ["c", "x", "d"] {
            assert!(l.live_in[ENTRY].contains(v), "{v} should be live at entry");
        }
    }

    #[test]
    fn liveness_kill_in_branch_only() {
        // x defined in one branch only -> still live at entry
        let g = build("if c:\n    x = 1\ny = x\n");
        let l = liveness(&g, &set(&["y"]));
        assert!(l.live_in[ENTRY].contains("x"));
        // but if both branches define it, not live
        let g2 = build("if c:\n    x = 1\nelse:\n    x = 2\ny = x\n");
        let l2 = liveness(&g2, &set(&["y"]));
        assert!(!l2.live_in[ENTRY].contains("x"));
    }

    #[test]
    fn liveness_exit_seed() {
        let g = build("x = 1\n");
        let l = liveness(&g, &set(&["q"]));
        assert!(l.live_in[ENTRY].contains("q"));
        assert!(l.live_in[EXIT].contains("q"));
    }

    #[test]
    fn reaching_defs_linear() {
        let g = build("x = 1\nx = 2\ny = x\n");
        let r = reaching_definitions(&g, &SymbolSet::new());
        let n_y = g.find("stmt@3:1").unwrap();
        let defs = defs_of(&r, n_y, "x");
        // only the second definition reaches
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0], g.find("stmt@2:1").unwrap());
    }

    #[test]
    fn reaching_defs_merge_at_join() {
        let g = build("if c:\n    x = 1\nelse:\n    x = 2\ny = x\n");
        let r = reaching_definitions(&g, &SymbolSet::new());
        let n_y = g.find("stmt@5:1").unwrap();
        assert_eq!(defs_of(&r, n_y, "x").len(), 2);
    }

    #[test]
    fn reaching_defs_params() {
        let g = build("y = x\n");
        let r = reaching_definitions(&g, &set(&["x"]));
        let n_y = g.find("stmt@1:1").unwrap();
        assert_eq!(defs_of(&r, n_y, "x"), vec![ENTRY]);
    }

    #[test]
    fn reaching_defs_loop_carried() {
        let g = build("x = 0\nwhile c:\n    x = x + 1\n");
        let r = reaching_definitions(&g, &SymbolSet::new());
        let n_body = g.find("stmt@3:5").unwrap();
        // both the initial def and the loop-carried def reach the body
        assert_eq!(defs_of(&r, n_body, "x").len(), 2);
    }
}
