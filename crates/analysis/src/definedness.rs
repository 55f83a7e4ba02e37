//! Structured definite-assignment analysis.
//!
//! The control-flow conversion pass must know which symbols are
//! *definitely defined* before a staged conditional or loop: symbols that a
//! branch modifies but that may be undefined on entry are reified with the
//! special "undefined" value (§7.2, Control Flow). It is computed on the
//! tree, statement by statement, rather than on the CFG.

use crate::activity::stmt_activity;
use crate::SymbolSet;
use autograph_pylang::ast::{Stmt, StmtKind};

/// Symbols definitely defined after executing `body`, given those
/// definitely defined before it.
pub fn defined_after(body: &[Stmt], before: &SymbolSet) -> SymbolSet {
    let mut defined = before.clone();
    for stmt in body {
        defined = defined_after_stmt(stmt, &defined);
    }
    defined
}

/// Symbols definitely defined after a single statement.
pub fn defined_after_stmt(stmt: &Stmt, before: &SymbolSet) -> SymbolSet {
    match &stmt.kind {
        StmtKind::If { body, orelse, .. } => {
            let then_out = defined_after(body, before);
            let else_out = defined_after(orelse, before);
            // Paths that return never reach the join; a branch ending in
            // return contributes "everything" (no constraint). Detect the
            // common pattern of a trailing return.
            let then_returns = ends_in_return(body);
            let else_returns = ends_in_return(orelse) && !orelse.is_empty();
            match (then_returns, else_returns) {
                (true, true) => before.clone(),
                (true, false) => else_out,
                (false, true) => then_out,
                (false, false) => then_out.intersection(&else_out).cloned().collect(),
            }
        }
        StmtKind::While { .. } => {
            // Body may never run.
            before.clone()
        }
        StmtKind::For { .. } => before.clone(),
        StmtKind::Del(names) => {
            let mut out = before.clone();
            for n in names {
                out.remove(n);
            }
            out
        }
        StmtKind::Break | StmtKind::Continue | StmtKind::Return(_) | StmtKind::Raise(_) => {
            // No fall-through; value unused at the join.
            before.clone()
        }
        _ => {
            let mut out = before.clone();
            out.extend(stmt_activity(stmt).modified_simple_roots());
            out
        }
    }
}

fn ends_in_return(body: &[Stmt]) -> bool {
    matches!(body.last().map(|s| &s.kind), Some(StmtKind::Return(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_pylang::parse_module;

    fn set(items: &[&str]) -> SymbolSet {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn after(src: &str, before: &[&str]) -> SymbolSet {
        defined_after(&parse_module(src).unwrap().body, &set(before))
    }

    #[test]
    fn linear_defines() {
        let d = after("x = 1\ny, z = f()\n", &[]);
        assert_eq!(d, set(&["x", "y", "z"]));
    }

    #[test]
    fn branch_intersection() {
        let d = after("if c:\n    x = 1\n    y = 1\nelse:\n    x = 2\n", &[]);
        assert!(d.contains("x"));
        assert!(!d.contains("y"));
    }

    #[test]
    fn branch_with_return_contributes_nothing() {
        let d = after("if c:\n    return 0\nx = 1\n", &[]);
        assert!(d.contains("x"));
        let d2 = after("if c:\n    y = 1\n    return y\nelse:\n    x = 2\n", &[]);
        assert!(
            d2.contains("x"),
            "else branch defines x; then branch returns"
        );
    }

    #[test]
    fn loops_guarantee_nothing() {
        let d = after("while c:\n    x = 1\n", &[]);
        assert!(!d.contains("x"));
        let d2 = after("for i in xs:\n    y = 1\n", &[]);
        assert!(!d2.contains("y") && !d2.contains("i"));
    }

    #[test]
    fn del_removes() {
        let d = after("x = 1\ndel x\n", &[]);
        assert!(!d.contains("x"));
    }

    #[test]
    fn subscript_write_not_a_definition() {
        let d = after("x[0] = 1\n", &[]);
        assert!(!d.contains("x"));
    }
}
