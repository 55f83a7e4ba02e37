//! The guard lowering of §7.2, shared by the `break`, `continue` and
//! early-`return` passes wherever control flow cannot be restructured: the
//! jump becomes `guard = True`, every statement that could run after it is
//! wrapped in `if not guard:`, and a loop the jump leaves re-tests the
//! guard before each iteration — `while not guard and test:`, or, since a
//! `for` cannot grow a condition in Python syntax, `for t in it:` around
//! `if not guard:` (the loop runs out its iterator with the guard set).
//!
//! Every generated node takes the span of the construct it replaces, so an
//! error in generated code points at the user's jump or loop.

use crate::context::PassContext;
use crate::error::ConversionError;
use autograph_pylang::ast::*;
use autograph_pylang::Span;

/// The jump statement a guard stands for.
#[derive(Clone, Copy)]
pub(crate) enum Jump<'a> {
    Break,
    Continue,
    /// `return v`; the guard lowering stores `v` in the named variable.
    Return(&'a str),
}

impl Jump<'_> {
    fn is(self, kind: &StmtKind) -> bool {
        matches!(
            (self, kind),
            (Jump::Break, StmtKind::Break)
                | (Jump::Continue, StmtKind::Continue)
                | (Jump::Return(_), StmtKind::Return(_))
        )
    }
}

/// Whether `body` holds `jump` at its own level: inside `if`s, inside loops
/// only for `return` (a loop owns its `break`s and `continue`s), never
/// inside nested functions.
pub(crate) fn block_has(body: &[Stmt], jump: Jump) -> bool {
    body.iter().any(|s| match &s.kind {
        StmtKind::If { body, orelse, .. } => block_has(body, jump) || block_has(orelse, jump),
        StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
            matches!(jump, Jump::Return(_)) && block_has(body, jump)
        }
        kind => jump.is(kind),
    })
}

/// Rebuild `body` with every loop's nested loops lowered first, then the
/// loop itself handed to `lower` (which returns its replacement) when its
/// own body holds `jump`. `in_loop` says whether `body` sits inside a loop
/// of the current function; `jump` anywhere else is an error.
pub(crate) fn lower_loops(
    body: Vec<Stmt>,
    ctx: &mut PassContext,
    jump: Jump,
    in_loop: bool,
    lower: &mut impl FnMut(Stmt, &mut PassContext) -> Vec<Stmt>,
) -> Result<Vec<Stmt>, ConversionError> {
    let mut out = Vec::with_capacity(body.len());
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
                body: lower_loops(body, ctx, jump, false, lower)?,
                decorators,
            },
            StmtKind::If { test, body, orelse } => StmtKind::If {
                test,
                body: lower_loops(body, ctx, jump, in_loop, lower)?,
                orelse: lower_loops(orelse, ctx, jump, in_loop, lower)?,
            },
            StmtKind::While { test, body } => StmtKind::While {
                test,
                body: lower_loops(body, ctx, jump, true, lower)?,
            },
            StmtKind::For { target, iter, body } => StmtKind::For {
                target,
                iter,
                body: lower_loops(body, ctx, jump, true, lower)?,
            },
            StmtKind::Break if !in_loop && matches!(jump, Jump::Break) => {
                return Err(ConversionError::new("'break' outside of a loop", span));
            }
            StmtKind::Continue if !in_loop && matches!(jump, Jump::Continue) => {
                return Err(ConversionError::new("'continue' outside of a loop", span));
            }
            other => other,
        };
        match kind {
            StmtKind::While { ref body, .. } | StmtKind::For { ref body, .. }
                if block_has(body, jump) =>
            {
                out.extend(lower(Stmt::new(kind, span), ctx));
            }
            kind => out.push(Stmt::new(kind, span)),
        }
    }
    Ok(out)
}

/// Rewrite a block: each `jump` sets `guard` (a `return` also stores its
/// value), and the statements after anything that may have set it move
/// under `if not guard:`. Returns the new block and whether it may set the
/// guard.
pub(crate) fn guard_block(body: Vec<Stmt>, guard: &str, jump: Jump) -> (Vec<Stmt>, bool) {
    let mut out = Vec::with_capacity(body.len());
    let mut iter = body.into_iter();
    while let Some(stmt) = iter.next() {
        let span = stmt.span;
        let (rewritten, sets) = guard_stmt(stmt, guard, jump);
        out.extend(rewritten);
        if sets {
            let rest: Vec<Stmt> = iter.collect();
            if !rest.is_empty() {
                out.push(guarded_if(guard, guard_block(rest, guard, jump).0, span));
            }
            return (out, true);
        }
    }
    (out, false)
}

fn guard_stmt(stmt: Stmt, guard: &str, jump: Jump) -> (Vec<Stmt>, bool) {
    let span = stmt.span;
    match (stmt.kind, jump) {
        (StmtKind::Return(v), Jump::Return(retval)) => (
            vec![
                assign_bool(guard, true, span),
                assign(
                    retval,
                    v.unwrap_or(Expr::new(ExprKind::NoneLit, span)),
                    span,
                ),
            ],
            true,
        ),
        (StmtKind::If { test, body, orelse }, _) => {
            let (body, in_body) = guard_block(body, guard, jump);
            let (orelse, in_orelse) = guard_block(orelse, guard, jump);
            (
                vec![Stmt::new(StmtKind::If { test, body, orelse }, span)],
                in_body || in_orelse,
            )
        }
        (kind, _) if jump.is(&kind) => (vec![assign_bool(guard, true, span)], true),
        (kind, _) => {
            let stmt = Stmt::new(kind, span);
            if block_has(std::slice::from_ref(&stmt), jump) {
                (vec![guarded_loop(stmt, guard, jump)], true)
            } else {
                (vec![stmt], false)
            }
        }
    }
}

/// The loop `stmt` with `jump` lowered in its body and `guard` re-tested
/// before every iteration.
pub(crate) fn guarded_loop(stmt: Stmt, guard: &str, jump: Jump) -> Stmt {
    let span = stmt.span;
    let kind = match stmt.kind {
        StmtKind::While { test, body } => StmtKind::While {
            test: Expr::new(
                ExprKind::BoolOp {
                    op: BoolOpKind::And,
                    values: vec![not(guard, span), test],
                },
                span,
            ),
            body: guard_block(body, guard, jump).0,
        },
        StmtKind::For { target, iter, body } => StmtKind::For {
            target,
            iter,
            body: vec![guarded_if(guard, guard_block(body, guard, jump).0, span)],
        },
        other => other,
    };
    Stmt::new(kind, span)
}

/// `if not guard: body`
fn guarded_if(guard: &str, body: Vec<Stmt>, span: Span) -> Stmt {
    Stmt::new(
        StmtKind::If {
            test: not(guard, span),
            body,
            orelse: Vec::new(),
        },
        span,
    )
}

fn not(guard: &str, span: Span) -> Expr {
    Expr::new(
        ExprKind::UnaryOp {
            op: UnaryOp::Not,
            operand: Box::new(Expr::new(ExprKind::Name(guard.to_string()), span)),
        },
        span,
    )
}

/// `name = value`
pub(crate) fn assign(name: &str, value: Expr, span: Span) -> Stmt {
    Stmt::new(
        StmtKind::Assign {
            target: Expr::new(ExprKind::Name(name.to_string()), span),
            value,
        },
        span,
    )
}

/// `name = True` / `name = False`
pub(crate) fn assign_bool(name: &str, value: bool, span: Span) -> Stmt {
    assign(name, Expr::new(ExprKind::Bool(value), span), span)
}
