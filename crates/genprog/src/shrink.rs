//! Shrinking minimizer: greedy delta debugging over the PyLite AST.
//!
//! Given a failing case and the *name* of the oracle that caught it,
//! the minimizer repeatedly applies one small mutation — statement
//! deletion (single, or half a body at a time), compound-statement
//! unwrapping, branch selection, subexpression hoisting, literal
//! substitution — re-runs the oracle pipeline, and keeps the mutant iff
//! it still fails the **same oracle**. The loop restarts after every
//! accepted mutation and stops at a fixed point (or a round budget), so
//! the result is 1-minimal with respect to the mutation set.
//!
//! Candidates are checked under a watchdog (`oracle::check_src_watchdog`):
//! deleting a loop's counter increment produces an infinite eager loop,
//! which must count as "does not reproduce", not hang the fuzzer.

use crate::oracle::{self, OracleCfg};
use autograph_pylang::ast::{walk_stmts, Expr, ExprKind, Index, Module, Stmt, StmtKind};
use autograph_pylang::codegen::ast_to_source;
use autograph_tensor::Tensor;
use std::time::Duration;

/// Result of a minimization run.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// Minimized PyLite source (still fails the original oracle).
    pub src: String,
    /// Number of accepted mutation steps.
    pub steps: usize,
    /// Statements remaining in the minimized program (function bodies
    /// only — `def` lines are not counted).
    pub stmt_count: usize,
}

/// Statements in function bodies (the "≤ N statements" metric).
pub fn stmt_count(src: &str) -> usize {
    let Ok(module) = autograph_pylang::parse_module(src) else {
        return usize::MAX;
    };
    let mut n = 0;
    walk_stmts(&module.body, &mut |s| {
        if !matches!(s.kind, StmtKind::FunctionDef { .. }) {
            n += 1;
        }
    });
    n
}

// ---- statement-level mutations -----------------------------------------

#[derive(Debug, Clone, Copy)]
enum StmtOp {
    /// Remove the second (or first) half of the body.
    DeleteHalf(bool),
    /// Remove the statement at an index.
    DeleteAt(usize),
    /// Replace an `if`/`while`/`for` with its body (plus `orelse`).
    UnwrapAt(usize),
    /// Drop an `if`'s `orelse`.
    DropElseAt(usize),
    /// Replace an `if` with its `orelse`.
    KeepElseAt(usize),
}

/// Visit every statement list in the module, in pre-order. The visitor
/// sees each `Vec<Stmt>` once; the `usize` is its pre-order index.
fn for_each_body(
    body: &mut Vec<Stmt>,
    next: &mut usize,
    f: &mut impl FnMut(usize, &mut Vec<Stmt>),
) {
    let idx = *next;
    *next += 1;
    f(idx, body);
    for s in body.iter_mut() {
        match &mut s.kind {
            StmtKind::FunctionDef { body, .. } => for_each_body(body, next, f),
            StmtKind::If { body, orelse, .. } => {
                for_each_body(body, next, f);
                for_each_body(orelse, next, f);
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                for_each_body(body, next, f)
            }
            _ => {}
        }
    }
}

fn count_bodies(module: &mut Module) -> usize {
    let mut n = 0;
    for_each_body(&mut module.body, &mut n, &mut |_, _| {});
    n
}

fn body_len(module: &mut Module, body_idx: usize) -> usize {
    let mut len = 0;
    let mut n = 0;
    for_each_body(&mut module.body, &mut n, &mut |i, b| {
        if i == body_idx {
            len = b.len();
        }
    });
    len
}

/// Apply `op` to the `body_idx`-th statement list. Returns false if the
/// op did not apply (out of range / wrong statement kind).
fn apply_stmt_op(module: &mut Module, body_idx: usize, op: StmtOp) -> bool {
    let mut applied = false;
    let mut n = 0;
    for_each_body(&mut module.body, &mut n, &mut |i, body| {
        if i != body_idx || applied {
            return;
        }
        match op {
            StmtOp::DeleteHalf(first) => {
                if body.len() >= 4 {
                    let mid = body.len() / 2;
                    if first {
                        body.drain(..mid);
                    } else {
                        body.drain(mid..);
                    }
                    applied = true;
                }
            }
            StmtOp::DeleteAt(k) => {
                if k < body.len() && !matches!(body[k].kind, StmtKind::FunctionDef { .. }) {
                    body.remove(k);
                    applied = true;
                }
            }
            StmtOp::UnwrapAt(k) => {
                if k < body.len() {
                    let inner = match &mut body[k].kind {
                        StmtKind::If { body, orelse, .. } => {
                            let mut v = std::mem::take(body);
                            v.append(orelse);
                            Some(v)
                        }
                        StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                            Some(std::mem::take(body))
                        }
                        _ => None,
                    };
                    if let Some(inner) = inner {
                        body.splice(k..=k, inner);
                        applied = true;
                    }
                }
            }
            StmtOp::DropElseAt(k) => {
                if k < body.len() {
                    if let StmtKind::If { orelse, .. } = &mut body[k].kind {
                        if !orelse.is_empty() {
                            orelse.clear();
                            applied = true;
                        }
                    }
                }
            }
            StmtOp::KeepElseAt(k) => {
                if k < body.len() {
                    let inner = match &mut body[k].kind {
                        StmtKind::If { orelse, .. } if !orelse.is_empty() => {
                            Some(std::mem::take(orelse))
                        }
                        _ => None,
                    };
                    if let Some(inner) = inner {
                        body.splice(k..=k, inner);
                        applied = true;
                    }
                }
            }
        }
    });
    applied
}

// ---- expression-level mutations ----------------------------------------

#[derive(Debug, Clone, Copy)]
enum ExprOp {
    /// Replace the node with its `i`-th structural child.
    Child(usize),
    /// Replace the node with the literal `1.0`.
    LitOne,
    /// Replace the node with the literal `0.5`.
    LitHalf,
}

fn expr_child(e: &Expr, i: usize) -> Option<Expr> {
    match &e.kind {
        ExprKind::BinOp { left, right, .. } => [left, right].get(i).map(|b| (***b).clone()),
        ExprKind::UnaryOp { operand, .. } => (i == 0).then(|| (**operand).clone()),
        ExprKind::BoolOp { values, .. } => values.get(i).cloned(),
        ExprKind::Compare {
            left, comparators, ..
        } => {
            if i == 0 {
                Some((**left).clone())
            } else {
                comparators.get(i - 1).cloned()
            }
        }
        ExprKind::Call { args, .. } => args.get(i).cloned(),
        // never project a ternary to its (boolean) test
        ExprKind::IfExp { body, orelse, .. } => [body, orelse].get(i).map(|b| (***b).clone()),
        ExprKind::Subscript { value, .. } => (i == 0).then(|| (**value).clone()),
        ExprKind::List(items) | ExprKind::Tuple(items) => items.get(i).cloned(),
        _ => None,
    }
}

fn apply_expr_op(e: &mut Expr, op: ExprOp) -> bool {
    match op {
        ExprOp::Child(i) => match expr_child(e, i) {
            Some(child) => {
                *e = child;
                true
            }
            None => false,
        },
        ExprOp::LitOne | ExprOp::LitHalf => {
            if matches!(
                e.kind,
                ExprKind::Int(_)
                    | ExprKind::Float(_)
                    | ExprKind::Name(_)
                    | ExprKind::Bool(_)
                    | ExprKind::Str(_)
                    | ExprKind::NoneLit
            ) {
                return false; // already atomic
            }
            let v = if matches!(op, ExprOp::LitOne) {
                1.0
            } else {
                0.5
            };
            *e = Expr::synthetic(ExprKind::Float(v));
            true
        }
    }
}

/// Visit expression *nodes* in pre-order; `f` returns `true` to stop
/// the walk (mutation applied). Assignment targets and loop variables
/// are skipped — rewriting them can't shrink anything, only rename it.
fn visit_exprs(body: &mut [Stmt], f: &mut impl FnMut(&mut Expr) -> bool) -> bool {
    fn expr(e: &mut Expr, f: &mut impl FnMut(&mut Expr) -> bool) -> bool {
        if f(e) {
            return true;
        }
        match &mut e.kind {
            ExprKind::Attribute { value, .. } => expr(value, f),
            ExprKind::Subscript { value, index } => {
                if expr(value, f) {
                    return true;
                }
                match &mut **index {
                    Index::Single(i) => expr(i, f),
                    Index::Slice { lower, upper } => {
                        lower.as_mut().is_some_and(|l| expr(l, f))
                            || upper.as_mut().is_some_and(|u| expr(u, f))
                    }
                }
            }
            ExprKind::Call { func, args, kwargs } => {
                expr(func, f)
                    || args.iter_mut().any(|a| expr(a, f))
                    || kwargs.iter_mut().any(|(_, v)| expr(v, f))
            }
            ExprKind::BinOp { left, right, .. } => expr(left, f) || expr(right, f),
            ExprKind::UnaryOp { operand, .. } => expr(operand, f),
            ExprKind::BoolOp { values, .. } => values.iter_mut().any(|v| expr(v, f)),
            ExprKind::Compare {
                left, comparators, ..
            } => expr(left, f) || comparators.iter_mut().any(|c| expr(c, f)),
            ExprKind::IfExp { test, body, orelse } => {
                expr(test, f) || expr(body, f) || expr(orelse, f)
            }
            ExprKind::List(items) | ExprKind::Tuple(items) => items.iter_mut().any(|i| expr(i, f)),
            ExprKind::Lambda { body, .. } => expr(body, f),
            _ => false,
        }
    }
    fn stmts(body: &mut [Stmt], f: &mut impl FnMut(&mut Expr) -> bool) -> bool {
        for s in body {
            let hit = match &mut s.kind {
                StmtKind::FunctionDef { body, .. } => stmts(body, f),
                StmtKind::Return(Some(e)) | StmtKind::ExprStmt(e) => expr(e, f),
                StmtKind::Assign { value, .. } | StmtKind::AugAssign { value, .. } => {
                    expr(value, f)
                }
                StmtKind::If { test, body, orelse } => {
                    expr(test, f) || stmts(body, f) || stmts(orelse, f)
                }
                StmtKind::While { test, body } => expr(test, f) || stmts(body, f),
                StmtKind::For { iter, body, .. } => expr(iter, f) || stmts(body, f),
                StmtKind::Assert { test, msg } => {
                    expr(test, f) || msg.as_mut().is_some_and(|m| expr(m, f))
                }
                StmtKind::Raise(Some(e)) => expr(e, f),
                _ => false,
            };
            if hit {
                return true;
            }
        }
        false
    }
    stmts(body, f)
}

fn count_exprs(module: &mut Module) -> usize {
    let mut n = 0;
    visit_exprs(&mut module.body, &mut |_| {
        n += 1;
        false
    });
    n
}

fn apply_expr_mutation(module: &mut Module, target: usize, op: ExprOp) -> bool {
    let mut idx = 0;
    visit_exprs(&mut module.body, &mut |e| {
        let here = idx == target;
        idx += 1;
        here && apply_expr_op(e, op)
    })
}

// ---- the greedy loop ---------------------------------------------------

/// Per-candidate wall-clock budget (a mutant may loop forever).
const CANDIDATE_TIMEOUT: Duration = Duration::from_secs(10);

/// Minimize `src` while it keeps failing the oracle named `oracle`.
///
/// `feeds` and the gate flags are those of the original case — shrinking
/// never changes the function signature, so they stay valid. Returns the
/// smallest source found; if nothing could be removed, that is the input
/// itself (normalized through `ast_to_source`).
pub fn minimize(
    src: &str,
    feeds: &[(String, Tensor)],
    lantern_ok: bool,
    differentiable: bool,
    cfg: &OracleCfg,
    oracle: &str,
) -> ShrinkResult {
    // only run the oracles that can reproduce this failure: everything
    // else just slows each candidate down (a different-oracle failure is
    // a rejection either way)
    let cfg = OracleCfg {
        check_lantern: cfg.check_lantern && oracle == "eager-vs-lantern",
        check_grad: cfg.check_grad && oracle == "fd-grad",
        check_restage: cfg.check_restage && oracle == "restage-determinism",
        check_explain: cfg.check_explain && oracle.starts_with("explain"),
        ..cfg.clone()
    };
    let reproduces = |candidate: &Module| -> bool {
        let src = ast_to_source(candidate);
        let out = oracle::check_src_watchdog(
            &src,
            feeds,
            lantern_ok,
            differentiable,
            &cfg,
            CANDIDATE_TIMEOUT,
        );
        out.failing_oracle() == Some(oracle)
    };

    let Ok(mut best) = autograph_pylang::parse_module(src) else {
        // unparseable input (shouldn't happen): return it unchanged
        return ShrinkResult {
            src: src.to_string(),
            steps: 0,
            stmt_count: usize::MAX,
        };
    };
    let mut steps = 0;

    // greedy fixed point: scan all mutations, accept the first that
    // still fails the same oracle, restart; bounded for safety
    'rounds: for _ in 0..200 {
        // statement ops, biggest cuts first
        let n_bodies = count_bodies(&mut best);
        for b in 0..n_bodies {
            let len = body_len(&mut best, b);
            let mut ops: Vec<StmtOp> = Vec::new();
            if len >= 4 {
                ops.push(StmtOp::DeleteHalf(false));
                ops.push(StmtOp::DeleteHalf(true));
            }
            for k in (0..len).rev() {
                ops.push(StmtOp::DeleteAt(k));
                ops.push(StmtOp::UnwrapAt(k));
                ops.push(StmtOp::KeepElseAt(k));
                ops.push(StmtOp::DropElseAt(k));
            }
            for op in ops {
                let mut cand = best.clone();
                if apply_stmt_op(&mut cand, b, op) && reproduces(&cand) {
                    best = cand;
                    steps += 1;
                    continue 'rounds;
                }
            }
        }
        // expression ops
        let n_exprs = count_exprs(&mut best);
        for t in 0..n_exprs {
            for op in [
                ExprOp::Child(0),
                ExprOp::Child(1),
                ExprOp::Child(2),
                ExprOp::LitOne,
                ExprOp::LitHalf,
            ] {
                let mut cand = best.clone();
                if apply_expr_mutation(&mut cand, t, op) && reproduces(&cand) {
                    best = cand;
                    steps += 1;
                    continue 'rounds;
                }
            }
        }
        break; // full scan, nothing accepted: fixed point
    }

    let out = ast_to_source(&best);
    let count = stmt_count(&out);
    ShrinkResult {
        src: out,
        steps,
        stmt_count: count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Module {
        autograph_pylang::parse_module(src).expect("parse")
    }

    #[test]
    fn stmt_delete_and_unwrap() {
        let mut m =
            parse("def f(x):\n    y = x\n    if x > 0:\n        y = y + 1.0\n    return y\n");
        // body 0 = module, body 1 = f's body, body 2 = if body
        assert!(apply_stmt_op(&mut m, 1, StmtOp::UnwrapAt(1)));
        let src = ast_to_source(&m);
        assert!(!src.contains("if"), "{src}");
        assert!(
            src.contains("y = (y + 1.0)") || src.contains("y = y + 1.0"),
            "{src}"
        );

        let mut m2 = parse("def f(x):\n    y = x\n    return y\n");
        assert!(apply_stmt_op(&mut m2, 1, StmtOp::DeleteAt(0)));
        assert_eq!(stmt_count(&ast_to_source(&m2)), 1);
    }

    #[test]
    fn keep_else_selects_orelse() {
        let mut m = parse(
            "def f(x):\n    if x > 0:\n        y = x\n    else:\n        y = x * 2.0\n    return y\n",
        );
        assert!(apply_stmt_op(&mut m, 1, StmtOp::KeepElseAt(0)));
        let src = ast_to_source(&m);
        assert!(src.contains("2.0") && !src.contains("if"), "{src}");
    }

    #[test]
    fn expr_projection_and_literals() {
        let mut m = parse("def f(x):\n    return tf.tanh(x + 1.0)\n");
        let n = count_exprs(&mut m);
        assert!(n >= 3, "{n}");
        // find some mutation that strips the call down to its argument
        let mut found = false;
        for t in 0..n {
            let mut cand = m.clone();
            if apply_expr_mutation(&mut cand, t, ExprOp::Child(0)) {
                let src = ast_to_source(&cand);
                if src.contains("return (x + 1.0)") || src.contains("return x + 1.0") {
                    found = true;
                }
            }
        }
        assert!(found);
    }

    #[test]
    fn stmt_counting_ignores_defs() {
        assert_eq!(stmt_count("def f(x):\n    return x\n"), 1);
        assert_eq!(
            stmt_count("def f(x):\n    y = x\n    if y > 0:\n        y = y + 1.0\n    return y\n"),
            4
        );
    }
}
