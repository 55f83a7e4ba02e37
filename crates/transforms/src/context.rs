//! Shared state threaded through conversion passes: fresh-symbol
//! generation and rewrite utilities used by several passes.

use autograph_pylang::ast::{Expr, ExprKind, Stmt, StmtKind};
use autograph_pylang::Span;

/// Per-conversion mutable state shared by all passes.
#[derive(Debug, Default)]
pub struct PassContext {
    counter: u64,
}

impl PassContext {
    /// A fresh context with the symbol counter at zero.
    pub fn new() -> Self {
        PassContext::default()
    }

    /// Generate a fresh symbol with the given prefix, e.g. `retval__3`.
    /// Double underscores keep generated names out of the user namespace,
    /// matching AutoGraph's `ag__` convention.
    pub(crate) fn gensym(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}__{}", self.counter)
    }
}

/// Build `ag.<name>(args...)` with a given span (so errors in generated
/// code point at the user construct that produced it).
pub(crate) fn ag_call(name: &str, args: Vec<Expr>, span: Span) -> Expr {
    Expr::new(
        ExprKind::Call {
            func: Box::new(Expr::new(
                ExprKind::Attribute {
                    value: Box::new(Expr::new(ExprKind::Name("ag".into()), span)),
                    attr: name.to_string(),
                },
                span,
            )),
            args,
            kwargs: Vec::new(),
        },
        span,
    )
}

/// True if the expression is exactly the qualified name `ag.<name>`.
pub(crate) fn is_ag_intrinsic(expr: &Expr, name: &str) -> bool {
    match &expr.kind {
        ExprKind::Attribute { value, attr } => {
            attr == name && matches!(&value.kind, ExprKind::Name(n) if n == "ag")
        }
        _ => false,
    }
}

/// A zero-argument lambda wrapping an expression (used for lazy operands).
pub fn thunk(body: Expr, span: Span) -> Expr {
    Expr::new(
        ExprKind::Lambda {
            params: Vec::new(),
            body: Box::new(body),
        },
        span,
    )
}

/// A tuple expression (or the single expression when exactly one item —
/// functional control flow uses bare values for single-symbol state).
pub(crate) fn tuple_or_single(items: Vec<Expr>, span: Span) -> Expr {
    match <[Expr; 1]>::try_from(items) {
        Ok([only]) => only,
        Err(items) => Expr::new(ExprKind::Tuple(items), span),
    }
}

/// Recursively rebuild all nested statement bodies with `f` applied
/// bottom-up to each body (innermost first). The map receives whole bodies
/// so passes can restructure statement sequences.
pub(crate) fn rewrite_bodies_bottom_up<E>(
    body: Vec<Stmt>,
    f: &mut impl FnMut(Vec<Stmt>) -> Result<Vec<Stmt>, E>,
) -> Result<Vec<Stmt>, E> {
    let mut rebuilt = Vec::with_capacity(body.len());
    for stmt in body {
        let span = stmt.span;
        let kind = match stmt.kind {
            StmtKind::FunctionDef {
                name,
                params,
                body,
                decorators,
            } => StmtKind::FunctionDef {
                name,
                params,
                body: rewrite_bodies_bottom_up(body, f)?,
                decorators,
            },
            StmtKind::If { test, body, orelse } => StmtKind::If {
                test,
                body: rewrite_bodies_bottom_up(body, f)?,
                orelse: rewrite_bodies_bottom_up(orelse, f)?,
            },
            StmtKind::While { test, body } => StmtKind::While {
                test,
                body: rewrite_bodies_bottom_up(body, f)?,
            },
            StmtKind::For { target, iter, body } => StmtKind::For {
                target,
                iter,
                body: rewrite_bodies_bottom_up(body, f)?,
            },
            other => other,
        };
        rebuilt.push(Stmt::new(kind, span));
    }
    f(rebuilt)
}

/// Rebuild every expression in a statement body, applying `f` bottom-up
/// (children first). Decorator expressions are left untouched — they are
/// conversion metadata, not staged code.
pub(crate) fn rewrite_exprs(body: Vec<Stmt>, f: &mut impl FnMut(Expr) -> Expr) -> Vec<Stmt> {
    body.into_iter().map(|s| rewrite_stmt_exprs(s, f)).collect()
}

fn rewrite_stmt_exprs(stmt: Stmt, f: &mut impl FnMut(Expr) -> Expr) -> Stmt {
    let span = stmt.span;
    let kind = match stmt.kind {
        StmtKind::FunctionDef {
            name,
            params,
            body,
            decorators,
        } => StmtKind::FunctionDef {
            name,
            params: params
                .into_iter()
                .map(|p| autograph_pylang::Param {
                    name: p.name,
                    default: p.default.map(|d| rewrite_expr(d, f)),
                })
                .collect(),
            body: rewrite_exprs(body, f),
            decorators,
        },
        StmtKind::Return(v) => StmtKind::Return(v.map(|v| rewrite_expr(v, f))),
        StmtKind::Assign { target, value } => StmtKind::Assign {
            target: rewrite_expr(target, f),
            value: rewrite_expr(value, f),
        },
        StmtKind::AugAssign { target, op, value } => StmtKind::AugAssign {
            target: rewrite_expr(target, f),
            op,
            value: rewrite_expr(value, f),
        },
        StmtKind::If { test, body, orelse } => StmtKind::If {
            test: rewrite_expr(test, f),
            body: rewrite_exprs(body, f),
            orelse: rewrite_exprs(orelse, f),
        },
        StmtKind::While { test, body } => StmtKind::While {
            test: rewrite_expr(test, f),
            body: rewrite_exprs(body, f),
        },
        StmtKind::For { target, iter, body } => StmtKind::For {
            target: rewrite_expr(target, f),
            iter: rewrite_expr(iter, f),
            body: rewrite_exprs(body, f),
        },
        StmtKind::Assert { test, msg } => StmtKind::Assert {
            test: rewrite_expr(test, f),
            msg: msg.map(|m| rewrite_expr(m, f)),
        },
        StmtKind::ExprStmt(e) => StmtKind::ExprStmt(rewrite_expr(e, f)),
        StmtKind::Raise(v) => StmtKind::Raise(v.map(|v| rewrite_expr(v, f))),
        other => other,
    };
    Stmt::new(kind, span)
}

/// Apply `f` to an expression tree bottom-up.
pub(crate) fn rewrite_expr(expr: Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    use autograph_pylang::ast::Index;
    let span = expr.span;
    let kind = match expr.kind {
        ExprKind::Attribute { value, attr } => ExprKind::Attribute {
            value: Box::new(rewrite_expr(*value, f)),
            attr,
        },
        ExprKind::Subscript { value, index } => ExprKind::Subscript {
            value: Box::new(rewrite_expr(*value, f)),
            index: Box::new(match *index {
                Index::Single(e) => Index::Single(rewrite_expr(e, f)),
                Index::Slice { lower, upper } => Index::Slice {
                    lower: lower.map(|e| rewrite_expr(e, f)),
                    upper: upper.map(|e| rewrite_expr(e, f)),
                },
            }),
        },
        ExprKind::Call { func, args, kwargs } => ExprKind::Call {
            func: Box::new(rewrite_expr(*func, f)),
            args: args.into_iter().map(|a| rewrite_expr(a, f)).collect(),
            kwargs: kwargs
                .into_iter()
                .map(|(k, v)| (k, rewrite_expr(v, f)))
                .collect(),
        },
        ExprKind::BinOp { op, left, right } => ExprKind::BinOp {
            op,
            left: Box::new(rewrite_expr(*left, f)),
            right: Box::new(rewrite_expr(*right, f)),
        },
        ExprKind::UnaryOp { op, operand } => ExprKind::UnaryOp {
            op,
            operand: Box::new(rewrite_expr(*operand, f)),
        },
        ExprKind::BoolOp { op, values } => ExprKind::BoolOp {
            op,
            values: values.into_iter().map(|v| rewrite_expr(v, f)).collect(),
        },
        ExprKind::Compare {
            left,
            ops,
            comparators,
        } => ExprKind::Compare {
            left: Box::new(rewrite_expr(*left, f)),
            ops,
            comparators: comparators
                .into_iter()
                .map(|c| rewrite_expr(c, f))
                .collect(),
        },
        ExprKind::IfExp { test, body, orelse } => ExprKind::IfExp {
            test: Box::new(rewrite_expr(*test, f)),
            body: Box::new(rewrite_expr(*body, f)),
            orelse: Box::new(rewrite_expr(*orelse, f)),
        },
        ExprKind::List(items) => {
            ExprKind::List(items.into_iter().map(|i| rewrite_expr(i, f)).collect())
        }
        ExprKind::Tuple(items) => {
            ExprKind::Tuple(items.into_iter().map(|i| rewrite_expr(i, f)).collect())
        }
        ExprKind::Lambda { params, body } => ExprKind::Lambda {
            params,
            body: Box::new(rewrite_expr(*body, f)),
        },
        leaf => leaf,
    };
    f(Expr::new(kind, span))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_pylang::codegen::expr_to_source;

    #[test]
    fn gensym_unique() {
        let mut ctx = PassContext::new();
        let a = ctx.gensym("retval");
        let b = ctx.gensym("retval");
        assert_ne!(a, b);
        assert!(a.starts_with("retval__"));
    }

    #[test]
    fn ag_call_renders() {
        let e = ag_call("if_stmt", vec![Expr::name("c")], Span::synthetic());
        assert_eq!(expr_to_source(&e), "ag.if_stmt(c)");
        assert!(is_ag_intrinsic(
            &Expr::attr_path("ag", &["if_stmt"]),
            "if_stmt"
        ));
        assert!(!is_ag_intrinsic(&Expr::name("if_stmt"), "if_stmt"));
    }

    #[test]
    fn tuple_or_single_behaviour() {
        let one = tuple_or_single(vec![Expr::name("x")], Span::synthetic());
        assert_eq!(expr_to_source(&one), "x");
        let two = tuple_or_single(vec![Expr::name("x"), Expr::name("y")], Span::synthetic());
        assert_eq!(expr_to_source(&two), "(x, y)");
    }

    #[test]
    fn thunk_renders() {
        let t = thunk(Expr::name("x"), Span::synthetic());
        assert_eq!(expr_to_source(&t), "lambda: x");
    }
}
