//! Standard intra-procedural control-flow graph construction (§7.1).
//!
//! Nodes are individual simple statements plus branch/loop headers; edges
//! follow Python control flow including `break`, `continue` and `return`.
//! The graph backs the classic worklist analyses in [`crate::dataflow`].

use crate::activity::{expr_activity, stmt_activity};
use crate::SymbolSet;
use autograph_pylang::ast::{Stmt, StmtKind};
use autograph_pylang::Span;

/// Index of a CFG node.
pub type NodeId = usize;

/// A node in the control-flow graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable label (used in dumps and tests).
    pub label: String,
    /// Root symbols used (read) by this node.
    pub uses: SymbolSet,
    /// Root symbols fully defined (killed) by this node — simple
    /// assignments only; `x[i] = v` does not kill `x`.
    pub defs: SymbolSet,
    /// Source span of the originating statement.
    pub span: Span,
}

/// An intra-procedural control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// All nodes; index 0 is entry, index 1 is exit.
    pub nodes: Vec<Node>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
}

/// Entry node id.
pub const ENTRY: NodeId = 0;
/// Exit node id.
pub(crate) const EXIT: NodeId = 1;

impl Cfg {
    /// Build the CFG of a function body.
    pub fn build(body: &[Stmt]) -> Cfg {
        let mut b = Builder {
            cfg: Cfg {
                nodes: vec![
                    Node {
                        label: "<entry>".into(),
                        uses: SymbolSet::new(),
                        defs: SymbolSet::new(),
                        span: Span::synthetic(),
                    },
                    Node {
                        label: "<exit>".into(),
                        uses: SymbolSet::new(),
                        defs: SymbolSet::new(),
                        span: Span::synthetic(),
                    },
                ],
                succs: vec![Vec::new(), Vec::new()],
                preds: vec![Vec::new(), Vec::new()],
            },
        };
        let frontier = b.chain(body, vec![ENTRY], &mut Vec::new(), &mut Vec::new());
        for p in frontier {
            b.edge(p, EXIT);
        }
        b.cfg
    }

    /// Successors of a node.
    pub(crate) fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.succs[n]
    }

    /// Predecessors of a node.
    pub(crate) fn preds(&self, n: NodeId) -> &[NodeId] {
        &self.preds[n]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has only entry/exit.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// Find a node id by label (testing helper).
    pub fn find(&self, label: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.label == label)
    }

    /// Render as Graphviz dot (for debugging).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph cfg {\n");
        for (i, n) in self.nodes.iter().enumerate() {
            s.push_str(&format!(
                "  n{} [label=\"{}\"];\n",
                i,
                n.label.replace('"', "'")
            ));
        }
        for (i, ss) in self.succs.iter().enumerate() {
            for t in ss {
                s.push_str(&format!("  n{i} -> n{t};\n"));
            }
        }
        s.push_str("}\n");
        s
    }
}

struct Builder {
    cfg: Cfg,
}

impl Builder {
    fn node(&mut self, label: String, uses: SymbolSet, defs: SymbolSet, span: Span) -> NodeId {
        self.cfg.nodes.push(Node {
            label,
            uses,
            defs,
            span,
        });
        self.cfg.succs.push(Vec::new());
        self.cfg.preds.push(Vec::new());
        self.cfg.nodes.len() - 1
    }

    fn edge(&mut self, from: NodeId, to: NodeId) {
        if !self.cfg.succs[from].contains(&to) {
            self.cfg.succs[from].push(to);
            self.cfg.preds[to].push(from);
        }
    }

    fn connect_all(&mut self, froms: &[NodeId], to: NodeId) {
        for &f in froms {
            self.edge(f, to);
        }
    }

    /// Lay down `body`, entered from `preds`. Returns the fall-through
    /// frontier. `breaks`/`continues` collect jump sources for the
    /// innermost enclosing loop.
    fn chain(
        &mut self,
        body: &[Stmt],
        mut preds: Vec<NodeId>,
        breaks: &mut Vec<NodeId>,
        continues: &mut Vec<NodeId>,
    ) -> Vec<NodeId> {
        for stmt in body {
            if preds.is_empty() {
                break; // unreachable code after return/break/continue
            }
            match &stmt.kind {
                StmtKind::If { test, body, orelse } => {
                    let a = expr_activity(test);
                    let n = self.node(
                        format!("if@{}", stmt.span),
                        a.read_roots(),
                        SymbolSet::new(),
                        stmt.span,
                    );
                    self.connect_all(&preds, n);
                    let body_end = self.chain(body, vec![n], breaks, continues);
                    let orelse_end = if orelse.is_empty() {
                        vec![n]
                    } else {
                        self.chain(orelse, vec![n], breaks, continues)
                    };
                    preds = body_end;
                    preds.extend(orelse_end);
                }
                StmtKind::While { test, body } => {
                    let a = expr_activity(test);
                    let n = self.node(
                        format!("while@{}", stmt.span),
                        a.read_roots(),
                        SymbolSet::new(),
                        stmt.span,
                    );
                    self.connect_all(&preds, n);
                    let mut inner_breaks = Vec::new();
                    let mut inner_continues = Vec::new();
                    let body_end =
                        self.chain(body, vec![n], &mut inner_breaks, &mut inner_continues);
                    self.connect_all(&body_end, n);
                    self.connect_all(&inner_continues, n);
                    preds = vec![n];
                    preds.extend(inner_breaks);
                }
                StmtKind::For { target, iter, body } => {
                    let it = expr_activity(iter);
                    let tgt =
                        crate::activity::body_activity(&[Stmt::synthetic(StmtKind::Assign {
                            target: target.clone(),
                            value: iter.clone(),
                        })]);
                    let n = self.node(
                        format!("for@{}", stmt.span),
                        it.read_roots(),
                        tgt.modified_simple_roots(),
                        stmt.span,
                    );
                    self.connect_all(&preds, n);
                    let mut inner_breaks = Vec::new();
                    let mut inner_continues = Vec::new();
                    let body_end =
                        self.chain(body, vec![n], &mut inner_breaks, &mut inner_continues);
                    self.connect_all(&body_end, n);
                    self.connect_all(&inner_continues, n);
                    preds = vec![n];
                    preds.extend(inner_breaks);
                }
                StmtKind::Break => {
                    let n = self.node(
                        "break".into(),
                        SymbolSet::new(),
                        SymbolSet::new(),
                        stmt.span,
                    );
                    self.connect_all(&preds, n);
                    breaks.push(n);
                    preds = Vec::new();
                }
                StmtKind::Continue => {
                    let n = self.node(
                        "continue".into(),
                        SymbolSet::new(),
                        SymbolSet::new(),
                        stmt.span,
                    );
                    self.connect_all(&preds, n);
                    continues.push(n);
                    preds = Vec::new();
                }
                StmtKind::Return(_) => {
                    let a = stmt_activity(stmt);
                    let n = self.node(
                        format!("return@{}", stmt.span),
                        a.read_roots(),
                        SymbolSet::new(),
                        stmt.span,
                    );
                    self.connect_all(&preds, n);
                    self.edge(n, EXIT);
                    preds = Vec::new();
                }
                _ => {
                    let a = stmt_activity(stmt);
                    let n = self.node(
                        format!("stmt@{}", stmt.span),
                        a.read_roots(),
                        a.modified_simple_roots(),
                        stmt.span,
                    );
                    self.connect_all(&preds, n);
                    preds = vec![n];
                }
            }
        }
        preds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_pylang::parse_module;

    fn cfg(src: &str) -> Cfg {
        Cfg::build(&parse_module(src).unwrap().body)
    }

    #[test]
    fn straight_line() {
        let g = cfg("x = 1\ny = x\n");
        // entry, exit, two statements
        assert_eq!(g.len(), 4);
        assert_eq!(g.succs(ENTRY), &[2]);
        assert_eq!(g.succs(2), &[3]);
        assert_eq!(g.succs(3), &[EXIT]);
        assert_eq!(g.preds(EXIT), &[3]);
    }

    #[test]
    fn if_diamond() {
        let g = cfg("if c:\n    x = 1\nelse:\n    x = 2\ny = x\n");
        let n_if = g.find("if@1:1").unwrap();
        assert_eq!(g.succs(n_if).len(), 2);
        let n_join = g.find("stmt@5:1").unwrap();
        assert_eq!(g.preds(n_join).len(), 2);
    }

    #[test]
    fn if_without_else_falls_through() {
        let g = cfg("if c:\n    x = 1\ny = 2\n");
        let n_if = g.find("if@1:1").unwrap();
        let n_y = g.find("stmt@3:1").unwrap();
        // if-node reaches y both directly (false) and through the body
        assert!(g.preds(n_y).contains(&n_if));
        assert_eq!(g.preds(n_y).len(), 2);
    }

    #[test]
    fn while_loop_back_edge() {
        let g = cfg("while c:\n    x = x + 1\ny = x\n");
        let n_while = g.find("while@1:1").unwrap();
        let n_body = g.find("stmt@2:5").unwrap();
        assert!(g.succs(n_body).contains(&n_while), "back edge missing");
        assert!(g.succs(n_while).contains(&n_body));
    }

    #[test]
    fn break_exits_loop() {
        let g = cfg("while c:\n    if d:\n        break\n    x = 1\ny = 2\n");
        let n_break = g.find("break").unwrap();
        let n_after = g.find("stmt@5:1").unwrap();
        assert!(g.succs(n_break).contains(&n_after));
    }

    #[test]
    fn continue_back_to_header() {
        let g = cfg("while c:\n    if d:\n        continue\n    x = 1\n");
        let n_cont = g.find("continue").unwrap();
        let n_while = g.find("while@1:1").unwrap();
        assert!(g.succs(n_cont).contains(&n_while));
    }

    #[test]
    fn return_goes_to_exit_and_kills_fallthrough() {
        let g = cfg("if c:\n    return 1\nx = 2\n");
        let n_ret = g.find("return@2:5").unwrap();
        assert_eq!(g.succs(n_ret), &[EXIT]);
        let n_x = g.find("stmt@3:1").unwrap();
        // x reachable only via the false edge of if
        assert_eq!(g.preds(n_x).len(), 1);
    }

    #[test]
    fn unreachable_after_return_skipped() {
        let g = cfg("return 1\nx = 2\n");
        assert!(g.find("stmt@2:1").is_none());
    }

    #[test]
    fn for_loop_defs_target() {
        let g = cfg("for i in xs:\n    s = s + i\n");
        let n_for = g.find("for@1:1").unwrap();
        assert!(g.nodes[n_for].defs.contains("i"));
        assert!(g.nodes[n_for].uses.contains("xs"));
    }

    #[test]
    fn subscript_assign_does_not_kill() {
        let g = cfg("x[i] = 1\n");
        let n = g.find("stmt@1:1").unwrap();
        assert!(!g.nodes[n].defs.contains("x"));
        assert!(g.nodes[n].uses.contains("x"));
    }

    #[test]
    fn dot_output() {
        let g = cfg("x = 1\n");
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
    }
}
