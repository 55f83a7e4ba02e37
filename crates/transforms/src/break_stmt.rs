//! Lowers `break` statements (§7.2) into guard variables and expanded loop
//! conditions. After this pass no `break` remains anywhere.
//!
//! ```text
//! while c:                 break__1 = False
//!     if done:             while not break__1 and c:
//!         break       →        if done:
//!     x = f(x)                     break__1 = True
//!                              if not break__1:
//!                                  x = f(x)
//! ```
//!
//! `for` loops cannot grow an extra condition in Python syntax, so the body
//! is additionally wrapped in `if not guard:` — the loop runs out its
//! iterator with a false guard, preserving semantics (TensorFlow's staged
//! loop applies the same masking; real AutoGraph threads an `extra_test`
//! into `for_stmt`, which the runtime here also supports for `while`-based
//! early exit).

use crate::context::PassContext;
use crate::error::ConversionError;
use crate::guards::{assign_bool, guarded_loop, lower_loops, Jump};
use autograph_pylang::Module;

/// Run the break-lowering pass over a module.
///
/// # Errors
///
/// Returns [`ConversionError`] for a `break` outside any loop.
pub fn run(module: Module, ctx: &mut PassContext) -> Result<Module, ConversionError> {
    let body = lower_loops(module.body, ctx, Jump::Break, false, &mut |lp, ctx| {
        let guard = ctx.gensym("break");
        vec![
            assign_bool(&guard, false, lp.span),
            guarded_loop(lp, &guard, Jump::Break),
        ]
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
        ast_to_source(&run(m, &mut PassContext::new()).unwrap())
    }

    #[test]
    fn while_break_lowered() {
        let out = convert("while c:\n    if done:\n        break\n    x = f(x)\n");
        assert!(!out.contains("break\n"), "{out}");
        assert!(out.contains("break__1 = False"));
        assert!(out.contains("while not break__1 and c:"));
        assert!(out.contains("break__1 = True"));
        assert!(out.contains("if not break__1:"));
    }

    #[test]
    fn for_break_masks_body() {
        let out = convert("for i in xs:\n    if i > 3:\n        break\n    s = s + i\n");
        assert!(!out.contains("break\n"));
        assert!(out.contains("for i in xs:\n    if not break__1:"), "{out}");
    }

    #[test]
    fn loop_without_break_untouched() {
        let src = "while c:\n    x = x + 1\n";
        assert_eq!(convert(src), src);
    }

    #[test]
    fn nested_loop_breaks_independent() {
        let out = convert(
            "while a:\n    while b:\n        if p:\n            break\n        x = 1\n    if q:\n        break\n",
        );
        assert!(
            out.contains("break__1") && out.contains("break__2"),
            "{out}"
        );
        assert!(!out.contains("break\n"));
    }

    #[test]
    fn break_outside_loop_rejected() {
        let m = parse_module("break\n").unwrap();
        assert!(run(m, &mut PassContext::new()).is_err());
    }

    #[test]
    fn break_semantics_shape() {
        // beam-search-style loop: break directly at top level of body
        let out = convert("while True:\n    x = step(x)\n    if stop(x):\n        break\n");
        // nothing after the if, so no trailing guard branch needed
        assert!(out.contains("while not break__1 and True:"));
        assert!(out.matches("if not break__1:").count() == 0, "{out}");
    }
}
