//! Lowers `continue` statements (§7.2): each loop body containing a
//! `continue` gains a guard variable; the `continue` becomes `guard = True`
//! and every statement that could execute after it is wrapped in
//! `if not guard:`. After this pass no `continue` remains anywhere.
//!
//! ```text
//! while c:                     while c:
//!     if skip:                     continue__1 = False
//!         continue        →        if skip:
//!     x = x + 1                        continue__1 = True
//!                                  if not continue__1:
//!                                      x = x + 1
//! ```

use crate::context::PassContext;
use crate::error::ConversionError;
use crate::guards::{assign_bool, guard_block, lower_loops, Jump};
use autograph_pylang::ast::*;
use autograph_pylang::Module;

/// Run the continue-lowering pass over a module.
///
/// # Errors
///
/// Returns [`ConversionError`] for a `continue` outside any loop.
pub fn run(module: Module, ctx: &mut PassContext) -> Result<Module, ConversionError> {
    let body = lower_loops(module.body, ctx, Jump::Continue, false, &mut |lp, ctx| {
        let guard = ctx.gensym("continue");
        let span = lp.span;
        let lower_body = |body| {
            let mut out = vec![assign_bool(&guard, false, span)];
            out.extend(guard_block(body, &guard, Jump::Continue).0);
            out
        };
        let kind = match lp.kind {
            StmtKind::While { test, body } => StmtKind::While {
                test,
                body: lower_body(body),
            },
            StmtKind::For { target, iter, body } => StmtKind::For {
                target,
                iter,
                body: lower_body(body),
            },
            other => other,
        };
        vec![Stmt::new(kind, span)]
    })?;
    Ok(Module { body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_pylang::codegen::ast_to_source;
    use autograph_pylang::parse_module;

    fn convert(src: &str) -> String {
        let m = parse_module(src).unwrap();
        let mut ctx = PassContext::new();
        ast_to_source(&run(m, &mut ctx).unwrap())
    }

    #[test]
    fn simple_continue_lowered() {
        let out = convert("while c:\n    if skip:\n        continue\n    x = x + 1\n");
        assert!(
            !out.contains("continue\n"),
            "continue should be gone:\n{out}"
        );
        assert!(out.contains("continue__1 = False"));
        assert!(out.contains("continue__1 = True"));
        assert!(out.contains("if not continue__1:"));
        assert!(out.contains("x = x + 1"));
    }

    #[test]
    fn loop_without_continue_untouched() {
        let src = "while c:\n    x = x + 1\n";
        assert_eq!(convert(src), src);
    }

    #[test]
    fn trailing_continue_adds_no_guard_branch() {
        let out = convert("for i in xs:\n    continue\n");
        assert!(out.contains("continue__1 = True"));
        assert!(!out.contains("if not continue__1"), "{out}");
    }

    #[test]
    fn nested_loops_get_separate_guards() {
        let out = convert(
            "while a:\n    for i in xs:\n        if p:\n            continue\n        y = 1\n    if q:\n        continue\n    z = 2\n",
        );
        assert!(
            out.contains("continue__1") && out.contains("continue__2"),
            "{out}"
        );
        assert!(!out.contains("continue\n"));
    }

    #[test]
    fn continue_outside_loop_rejected() {
        let m = parse_module("def f():\n    continue\n").unwrap();
        let mut ctx = PassContext::new();
        let err = run(m, &mut ctx).unwrap_err();
        assert!(err.to_string().contains("outside of a loop"));
        assert_eq!(err.span.line, 2);
    }

    #[test]
    fn continue_in_nested_function_inside_loop_rejected() {
        let m = parse_module("while c:\n    def g():\n        continue\n").unwrap();
        assert!(run(m, &mut PassContext::new()).is_err());
    }

    #[test]
    fn statements_after_if_guarded() {
        let out = convert("while c:\n    if p:\n        continue\n    a = 1\n    b = 2\n");
        // a and b must both be inside the guard
        let guard_pos = out.find("if not continue__1:").unwrap();
        assert!(out.find("a = 1").unwrap() > guard_pos);
        assert!(out.find("b = 2").unwrap() > guard_pos);
    }
}
