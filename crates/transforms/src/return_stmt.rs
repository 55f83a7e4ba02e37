//! Lowers early `return` statements (§7.2) so every function has at most a
//! single trailing `return`. The paper's example:
//!
//! ```text
//! if cond:                     if cond:
//!     return f(x)        →         retval__1 = f(x)
//! return g(x)                  else:
//!                                  retval__1 = g(x)
//!                              return retval__1
//! ```
//!
//! Two strategies compose:
//!
//! 1. **Structured lowering** (preferred, matches the paper's example):
//!    when each conditional branch either *always* returns or *never*
//!    contains a return, trailing statements move into the non-returning
//!    branch and every `return v` becomes `retval = v`. The result
//!    contains no guard booleans and stages cleanly.
//! 2. **Guard fallback**: returns inside loops cannot be restructured, so
//!    a `do_return` guard is introduced, loop conditions extended with
//!    `not do_return`, and trailing statements wrapped in
//!    `if not do_return:`.

use crate::context::PassContext;
use crate::error::ConversionError;
use crate::guards::{assign, assign_bool, block_has, guard_block, Jump};
use autograph_pylang::ast::*;
use autograph_pylang::{Module, Span};

/// Any `return`, for [`block_has`], which looks only at the statement kind.
const RETURN: Jump = Jump::Return("");

/// Run the return-lowering pass over a module.
///
/// # Errors
///
/// Currently infallible in practice; the `Result` mirrors the other
/// passes' signatures.
pub fn run(module: Module, ctx: &mut PassContext) -> Result<Module, ConversionError> {
    let body = process_functions(module.body, ctx)?;
    Ok(Module { body })
}

fn process_functions(body: Vec<Stmt>, ctx: &mut PassContext) -> Result<Vec<Stmt>, ConversionError> {
    let mut out = Vec::with_capacity(body.len());
    for stmt in body {
        let span = stmt.span;
        let kind = match stmt.kind {
            StmtKind::FunctionDef {
                name,
                params,
                body,
                decorators,
            } => {
                // Recurse into nested functions first.
                let body = process_functions(body, ctx)?;
                StmtKind::FunctionDef {
                    name,
                    params,
                    body: lower_function_body(body, ctx, span),
                    decorators,
                }
            }
            StmtKind::If { test, body, orelse } => StmtKind::If {
                test,
                body: process_functions(body, ctx)?,
                orelse: process_functions(orelse, ctx)?,
            },
            StmtKind::While { test, body } => StmtKind::While {
                test,
                body: process_functions(body, ctx)?,
            },
            StmtKind::For { target, iter, body } => StmtKind::For {
                target,
                iter,
                body: process_functions(body, ctx)?,
            },
            other => other,
        };
        out.push(Stmt::new(kind, span));
    }
    Ok(out)
}

/// Whether every path through the block ends in `return`.
fn always_returns(body: &[Stmt]) -> bool {
    match body.last().map(|s| &s.kind) {
        Some(StmtKind::Return(_)) => true,
        Some(StmtKind::If { body, orelse, .. }) => {
            !orelse.is_empty() && always_returns(body) && always_returns(orelse)
        }
        _ => false,
    }
}

fn lower_function_body(body: Vec<Stmt>, ctx: &mut PassContext, fspan: Span) -> Vec<Stmt> {
    // Fast path: a function whose only return (if any) is the final
    // top-level statement needs no lowering.
    let trailing_only = match body.split_last() {
        None => true,
        Some((last, init)) => {
            !block_has(init, RETURN)
                && (matches!(last.kind, StmtKind::Return(_))
                    || !block_has(std::slice::from_ref(last), RETURN))
        }
    };
    if trailing_only {
        return body;
    }

    let retval = ctx.gensym("retval");

    // Preferred: structured lowering (no guards; stages cleanly).
    if let Some((mut lowered, always)) = lower_structured(body.clone(), &retval) {
        let mut out = Vec::with_capacity(lowered.len() + 2);
        if !always {
            // fall-off-the-end path returns None
            out.push(assign(&retval, Expr::new(ExprKind::NoneLit, fspan), fspan));
        }
        out.append(&mut lowered);
        out.push(Stmt::new(
            StmtKind::Return(Some(Expr::new(ExprKind::Name(retval), fspan))),
            fspan,
        ));
        return out;
    }

    // Fallback: guard-based lowering (handles returns inside loops).
    let guard = ctx.gensym("do_return");
    let (mut guarded, _) = guard_block(body, &guard, Jump::Return(&retval));
    let mut out = vec![
        assign_bool(&guard, false, fspan),
        assign(&retval, Expr::new(ExprKind::NoneLit, fspan), fspan),
    ];
    out.append(&mut guarded);
    out.push(Stmt::new(
        StmtKind::Return(Some(Expr::new(ExprKind::Name(retval), fspan))),
        fspan,
    ));
    out
}

/// Structured lowering. Returns `None` when the block's shape requires the
/// guard fallback (a return inside a loop, or a branch that returns on
/// some paths but falls through on others while its sibling needs trailing
/// code). On success returns the rewritten block and whether every path
/// through it assigns `retval` (i.e. the original always returned).
fn lower_structured(body: Vec<Stmt>, retval: &str) -> Option<(Vec<Stmt>, bool)> {
    let mut out = Vec::with_capacity(body.len());
    let mut iter = body.into_iter();
    while let Some(stmt) = iter.next() {
        let span = stmt.span;
        match stmt.kind {
            StmtKind::Return(v) => {
                out.push(assign(
                    retval,
                    v.unwrap_or(Expr::new(ExprKind::NoneLit, span)),
                    span,
                ));
                // trailing statements are unreachable
                return Some((out, true));
            }
            StmtKind::While { ref body, .. } | StmtKind::For { ref body, .. }
                if block_has(body, RETURN) =>
            {
                return None;
            }
            StmtKind::If { test, body, orelse }
                if block_has(&body, RETURN) || block_has(&orelse, RETURN) =>
            {
                // classify each branch: Always / Never; Partial → fallback
                let b_has = block_has(&body, RETURN);
                let o_has = block_has(&orelse, RETURN);
                let b_always = always_returns(&body);
                let o_always = always_returns(&orelse);
                if (b_has && !b_always) || (o_has && !o_always) {
                    return None;
                }
                let (b, _) = if b_has {
                    lower_structured(body, retval)?
                } else {
                    (body, false)
                };
                let (o, _) = if o_has {
                    lower_structured(orelse, retval)?
                } else {
                    (orelse, false)
                };
                let rest: Vec<Stmt> = iter.collect();
                match (b_always, o_always) {
                    (true, true) => {
                        out.push(Stmt::new(
                            StmtKind::If {
                                test,
                                body: b,
                                orelse: o,
                            },
                            span,
                        ));
                        return Some((out, true));
                    }
                    (true, false) => {
                        // trailing code runs only on the else path
                        let (r, rret) = lower_structured(rest, retval)?;
                        let mut o = o;
                        o.extend(r);
                        out.push(Stmt::new(
                            StmtKind::If {
                                test,
                                body: b,
                                orelse: o,
                            },
                            span,
                        ));
                        return Some((out, rret));
                    }
                    (false, true) => {
                        let (r, rret) = lower_structured(rest, retval)?;
                        let mut b = b;
                        b.extend(r);
                        out.push(Stmt::new(
                            StmtKind::If {
                                test,
                                body: b,
                                orelse: o,
                            },
                            span,
                        ));
                        return Some((out, rret));
                    }
                    (false, false) => unreachable!("guarded by b_has/o_has checks"),
                }
            }
            other => out.push(Stmt::new(other, span)),
        }
    }
    Some((out, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_pylang::codegen::ast_to_source;
    use autograph_pylang::parse_module;

    fn convert(src: &str) -> String {
        let m = parse_module(src).unwrap();
        ast_to_source(&run(m, &mut PassContext::new()).unwrap())
    }

    #[test]
    fn paper_example_structured_shape() {
        let out = convert("def f(x):\n    if cond:\n        return g(x)\n    return h(x)\n");
        // the paper's exact target shape: no guards, trailing return moved
        // into the else branch
        assert!(!out.contains("do_return"), "{out}");
        assert!(out.contains("retval__1 = g(x)"), "{out}");
        assert!(out.contains("else:\n        retval__1 = h(x)"), "{out}");
        assert!(out.trim_end().ends_with("return retval__1"), "{out}");
        assert_eq!(out.matches("return ").count(), 1, "{out}");
    }

    #[test]
    fn single_trailing_return_untouched() {
        let src = "def f(x):\n    y = x + 1\n    return y\n";
        assert_eq!(convert(src), src);
    }

    #[test]
    fn function_without_return_untouched() {
        let src = "def f(x):\n    y = x + 1\n";
        assert_eq!(convert(src), src);
    }

    #[test]
    fn early_return_with_fallthrough_structured() {
        // helper-style: if returns, fall-through continues
        let out = convert("def f(x):\n    if x > 0:\n        return x * 2\n    return x\n");
        assert!(!out.contains("do_return"), "{out}");
        assert!(
            !out.contains("retval__1 = None"),
            "structured path needs no None init:\n{out}"
        );
    }

    #[test]
    fn fallthrough_without_final_return_gets_none_init() {
        let out = convert("def f(c):\n    if c:\n        return 1\n    x = 2\n");
        assert!(out.contains("retval__1 = None"), "{out}");
        assert!(out.trim_end().ends_with("return retval__1"));
        assert!(!out.contains("do_return"), "{out}");
    }

    #[test]
    fn return_inside_while_uses_guard_fallback() {
        let out = convert("def f(x):\n    while c:\n        if p:\n            return x\n        x = g(x)\n    return 0\n");
        assert!(out.contains("while not do_return__2 and c:"), "{out}");
        assert!(out.contains("retval__1 = x"), "{out}");
    }

    #[test]
    fn return_inside_for_masks_body() {
        let out = convert(
            "def f(xs):\n    for i in xs:\n        if p(i):\n            return i\n    return -1\n",
        );
        assert!(
            out.contains("for i in xs:\n        if not do_return__2:"),
            "{out}"
        );
    }

    #[test]
    fn bare_return_becomes_none() {
        let out = convert("def f(x):\n    if c:\n        return\n    x = 1\n");
        assert!(out.contains("retval__1 = None"), "{out}");
    }

    #[test]
    fn nested_early_returns_structured() {
        let out = convert(
            "def f(x):\n    if a:\n        if b:\n            return 1\n        return 2\n    return 3\n",
        );
        assert!(!out.contains("do_return"), "{out}");
        assert_eq!(out.matches("return ").count(), 1, "{out}");
        // all three values present as retval assignments
        for v in ["= 1", "= 2", "= 3"] {
            assert!(out.contains(v), "{out}");
        }
    }

    #[test]
    fn partial_branch_return_falls_back_to_guards() {
        // then-branch returns on SOME paths only -> guards required
        let out = convert(
            "def f(x):\n    if a:\n        if b:\n            return 1\n        x = 2\n    y = 3\n    return y\n",
        );
        assert!(out.contains("do_return"), "{out}");
        assert_eq!(out.matches("return retval").count(), 1, "{out}");
    }

    #[test]
    fn both_branches_return_drops_trailing() {
        let out = convert(
            "def f(c):\n    if c:\n        return 1\n    else:\n        return 2\n    x = 99\n",
        );
        assert!(!out.contains("x = 99"), "unreachable code dropped:\n{out}");
        assert!(!out.contains("do_return"), "{out}");
    }

    #[test]
    fn nested_functions_lowered_independently() {
        let out = convert(
            "def outer(x):\n    def inner(y):\n        if c:\n            return 1\n        return 2\n    if d:\n        return inner(x)\n    return 0\n",
        );
        assert!(
            out.contains("retval__1") && out.contains("retval__2"),
            "{out}"
        );
    }
}
