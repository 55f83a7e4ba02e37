//! Activity analysis (§7.1): which symbols a statement reads and which it
//! directly modifies, with lexical-scope awareness for nested functions and
//! lambdas.
//!
//! Matching the paper: only *direct* modifications count as writes — in
//! `a.b = c`, the qualified name `a.b` is modified but `a` is not.

use crate::qualname::{qualname_of, QualName};
use crate::SymbolSet;
use autograph_pylang::ast::{Expr, ExprKind, Index, Param, Stmt, StmtKind};
use std::collections::BTreeSet;

/// The read/modified sets of a program fragment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Activity {
    /// Qualified names read (used) by the fragment.
    pub(crate) read: BTreeSet<QualName>,
    /// Qualified names directly modified by the fragment.
    pub(crate) modified: BTreeSet<QualName>,
}

impl Activity {
    /// Merge another activity into this one.
    pub(crate) fn merge(&mut self, other: Activity) {
        self.read.extend(other.read);
        self.modified.extend(other.modified);
    }

    /// Root symbols that are read.
    pub(crate) fn read_roots(&self) -> SymbolSet {
        self.read.iter().map(|q| q.root().to_string()).collect()
    }

    /// Root symbols that are modified (including via `a.b = c`, whose root
    /// is `a` — callers that need the paper's strict semantics should use
    /// the `modified` set directly).
    pub(crate) fn modified_roots(&self) -> SymbolSet {
        self.modified.iter().map(|q| q.root().to_string()).collect()
    }

    /// Root symbols modified through *simple* (undotted) assignments only.
    /// These are the symbols that control-flow functionalization must
    /// thread through branch functions.
    pub fn modified_simple_roots(&self) -> SymbolSet {
        self.modified
            .iter()
            .filter(|q| q.is_simple())
            .map(|q| q.root().to_string())
            .collect()
    }

    /// Whether the fragment reads the given root symbol.
    pub fn reads_root(&self, name: &str) -> bool {
        self.read.iter().any(|q| q.root() == name)
    }

    /// Whether the fragment modifies the given root symbol.
    pub fn modifies_root(&self, name: &str) -> bool {
        self.modified.iter().any(|q| q.root() == name)
    }
}

/// Activity of a whole statement body.
pub fn body_activity(body: &[Stmt]) -> Activity {
    let mut act = Activity::default();
    for s in body {
        act.merge(stmt_activity(s));
    }
    act
}

/// Activity of a single statement (including nested blocks).
pub fn stmt_activity(stmt: &Stmt) -> Activity {
    let mut act = Activity::default();
    match &stmt.kind {
        StmtKind::FunctionDef {
            name,
            params,
            body,
            decorators,
            ..
        } => {
            // The function name is modified at the def site; free variables
            // of the body are reads (captured closure variables).
            act.modified.insert(QualName::simple(name.clone()));
            for d in decorators {
                act.merge(expr_activity(d));
            }
            let free = free_variables(params, body);
            for f in free {
                act.read.insert(QualName::simple(f));
            }
        }
        StmtKind::Return(v) => {
            if let Some(v) = v {
                act.merge(expr_activity(v));
            }
        }
        StmtKind::Assign { target, value } => {
            act.merge(expr_activity(value));
            act.merge(target_activity(target));
        }
        StmtKind::AugAssign { target, value, .. } => {
            // `x += v` both reads and modifies x.
            act.merge(expr_activity(value));
            act.merge(expr_activity(target));
            act.merge(target_activity(target));
        }
        StmtKind::If { test, body, orelse } => {
            act.merge(expr_activity(test));
            act.merge(body_activity(body));
            act.merge(body_activity(orelse));
        }
        StmtKind::While { test, body } => {
            act.merge(expr_activity(test));
            act.merge(body_activity(body));
        }
        StmtKind::For { target, iter, body } => {
            act.merge(expr_activity(iter));
            act.merge(target_activity(target));
            act.merge(body_activity(body));
        }
        StmtKind::Assert { test, msg } => {
            act.merge(expr_activity(test));
            if let Some(m) = msg {
                act.merge(expr_activity(m));
            }
        }
        StmtKind::ExprStmt(e) => act.merge(expr_activity(e)),
        StmtKind::Del(names) => {
            for n in names {
                act.modified.insert(QualName::simple(n.clone()));
            }
        }
        StmtKind::Raise(v) => {
            if let Some(v) = v {
                act.merge(expr_activity(v));
            }
        }
        StmtKind::Break
        | StmtKind::Continue
        | StmtKind::Pass
        | StmtKind::Global(_)
        | StmtKind::Nonlocal(_) => {}
    }
    act
}

/// Activity of an assignment target: the target itself is modified; index
/// and attribute-base expressions are read.
fn target_activity(target: &Expr) -> Activity {
    let mut act = Activity::default();
    match &target.kind {
        ExprKind::Name(_) | ExprKind::Attribute { .. } => {
            if let Some(q) = qualname_of(target) {
                act.modified.insert(q);
            } else if let ExprKind::Attribute { value, .. } = &target.kind {
                // attribute over a non-name (e.g. f(x).a = 1): base is read
                act.merge(expr_activity(value));
            }
        }
        ExprKind::Subscript { value, index } => {
            // x[i] = v modifies the *element* x[i] (recorded as the
            // non-simple qualified name `x.[]` so it never kills `x`)
            // and reads the container x.
            if let Some(q) = qualname_of(value) {
                act.modified.insert(q.attr("[]"));
                act.read.insert(q);
            } else {
                act.merge(expr_activity(value));
            }
            match &**index {
                Index::Single(e) => act.merge(expr_activity(e)),
                Index::Slice { lower, upper } => {
                    if let Some(l) = lower {
                        act.merge(expr_activity(l));
                    }
                    if let Some(u) = upper {
                        act.merge(expr_activity(u));
                    }
                }
            }
        }
        ExprKind::Tuple(items) | ExprKind::List(items) => {
            for i in items {
                act.merge(target_activity(i));
            }
        }
        _ => act.merge(expr_activity(target)),
    }
    act
}

/// Activity of an expression: every qualified name mentioned is a read.
pub(crate) fn expr_activity(expr: &Expr) -> Activity {
    let mut act = Activity::default();
    collect_expr(expr, &mut act);
    act
}

fn collect_expr(expr: &Expr, act: &mut Activity) {
    if let Some(q) = qualname_of(expr) {
        act.read.insert(q);
        return;
    }
    match &expr.kind {
        ExprKind::Attribute { value, .. } => collect_expr(value, act),
        ExprKind::Subscript { value, index } => {
            collect_expr(value, act);
            match &**index {
                Index::Single(e) => collect_expr(e, act),
                Index::Slice { lower, upper } => {
                    if let Some(l) = lower {
                        collect_expr(l, act);
                    }
                    if let Some(u) = upper {
                        collect_expr(u, act);
                    }
                }
            }
        }
        ExprKind::Call { func, args, kwargs } => {
            collect_expr(func, act);
            for a in args {
                collect_expr(a, act);
            }
            for (_, v) in kwargs {
                collect_expr(v, act);
            }
        }
        ExprKind::BinOp { left, right, .. } => {
            collect_expr(left, act);
            collect_expr(right, act);
        }
        ExprKind::UnaryOp { operand, .. } => collect_expr(operand, act),
        ExprKind::BoolOp { values, .. } => {
            for v in values {
                collect_expr(v, act);
            }
        }
        ExprKind::Compare {
            left, comparators, ..
        } => {
            collect_expr(left, act);
            for c in comparators {
                collect_expr(c, act);
            }
        }
        ExprKind::IfExp { test, body, orelse } => {
            collect_expr(test, act);
            collect_expr(body, act);
            collect_expr(orelse, act);
        }
        ExprKind::List(items) | ExprKind::Tuple(items) => {
            for i in items {
                collect_expr(i, act);
            }
        }
        ExprKind::Lambda { params, body } => {
            // free variables of the lambda are reads
            let bound: SymbolSet = params.iter().map(|p| p.name.clone()).collect();
            for p in params {
                if let Some(d) = &p.default {
                    collect_expr(d, act);
                }
            }
            let mut inner = Activity::default();
            collect_expr(body, &mut inner);
            for q in inner.read {
                if !bound.contains(q.root()) {
                    act.read.insert(q);
                }
            }
        }
        ExprKind::Name(_)
        | ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::NoneLit => {}
    }
}

/// Root symbols fully defined by an assignment/loop target (Name and Tuple
/// targets only; subscript/attribute targets do not kill).
pub fn target_defs(target: &Expr) -> SymbolSet {
    let mut out = SymbolSet::new();
    collect_target_defs(target, &mut out);
    out
}

fn collect_target_defs(target: &Expr, out: &mut SymbolSet) {
    match &target.kind {
        ExprKind::Name(n) => {
            out.insert(n.clone());
        }
        ExprKind::Tuple(items) | ExprKind::List(items) => {
            for i in items {
                collect_target_defs(i, out);
            }
        }
        _ => {}
    }
}

/// Free variables of a function: root symbols read anywhere in the body
/// that are neither parameters nor locally assigned.
pub(crate) fn free_variables(params: &[Param], body: &[Stmt]) -> SymbolSet {
    let act = body_activity(body);
    let mut bound: SymbolSet = params.iter().map(|p| p.name.clone()).collect();
    bound.extend(act.modified_roots());
    act.read_roots()
        .into_iter()
        .filter(|r| !bound.contains(r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_pylang::parse_module;

    fn act(src: &str) -> Activity {
        body_activity(&parse_module(src).unwrap().body)
    }

    #[test]
    fn simple_assign() {
        let a = act("x = a + b\n");
        assert!(a.reads_root("a") && a.reads_root("b"));
        assert!(a.modifies_root("x"));
        assert!(!a.reads_root("x"));
    }

    #[test]
    fn attribute_write_is_direct_only() {
        // Paper: in `a.b = c`, a.b is modified but a is not.
        let a = act("a.b = c\n");
        assert!(a.modified.contains(&QualName::simple("a").attr("b")));
        assert!(!a.modified.contains(&QualName::simple("a")));
        // a.b is not a *simple* root modification
        assert!(a.modified_simple_roots().is_empty());
    }

    #[test]
    fn subscript_write_reads_container() {
        let a = act("x[i] = y\n");
        assert!(a.modifies_root("x"));
        assert!(a.reads_root("x"));
        assert!(a.reads_root("i") && a.reads_root("y"));
    }

    #[test]
    fn aug_assign_reads_and_writes() {
        let a = act("x += 1\n");
        assert!(a.reads_root("x") && a.modifies_root("x"));
    }

    #[test]
    fn control_flow_collects_all_branches() {
        let a = act("if c:\n    x = 1\nelse:\n    y = z\nwhile w:\n    q = q + 1\n");
        for r in ["c", "z", "w", "q"] {
            assert!(a.reads_root(r), "missing read {r}");
        }
        for m in ["x", "y", "q"] {
            assert!(a.modifies_root(m), "missing write {m}");
        }
    }

    #[test]
    fn for_target_is_modified() {
        let a = act("for i, v in pairs:\n    s = s + v\n");
        assert!(a.modifies_root("i") && a.modifies_root("v") && a.modifies_root("s"));
        assert!(a.reads_root("pairs"));
    }

    #[test]
    fn nested_def_captures_free_vars() {
        let a = act("def inner():\n    return x + y\n");
        assert!(a.modifies_root("inner"));
        assert!(a.reads_root("x") && a.reads_root("y"));
    }

    #[test]
    fn nested_def_params_and_locals_not_free() {
        let a = act("def inner(x):\n    y = 2\n    return x + y\n");
        assert!(!a.reads_root("x") && !a.reads_root("y"));
    }

    #[test]
    fn lambda_free_vars() {
        let a = act("f = lambda v: v + w\n");
        assert!(a.reads_root("w"));
        assert!(!a.reads_root("v"));
        assert!(a.modifies_root("f"));
    }

    #[test]
    fn call_reads_function_name() {
        let a = act("y = tf.matmul(a, b)\n");
        assert!(a.read.contains(&QualName::simple("tf").attr("matmul")));
        assert!(a.reads_root("tf"));
    }

    #[test]
    fn del_modifies() {
        let a = act("del x\n");
        assert!(a.modifies_root("x"));
    }

    #[test]
    fn free_variable_helper() {
        let m = parse_module("def f(a):\n    b = a + c\n    return b\n").unwrap();
        if let autograph_pylang::StmtKind::FunctionDef { params, body, .. } = &m.body[0].kind {
            let free = free_variables(params, body);
            assert_eq!(free.into_iter().collect::<Vec<_>>(), vec!["c".to_string()]);
        } else {
            panic!();
        }
    }

    #[test]
    fn ternary_and_boolop() {
        let a = act("r = x if c else y\ns = p and q or t\n");
        for r in ["x", "c", "y", "p", "q", "t"] {
            assert!(a.reads_root(r));
        }
    }
}
