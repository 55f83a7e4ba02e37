//! Function wrappers (§7.2): the final pass decorates every converted
//! function with `ag.autograph_artifact`. The runtime uses the marker to
//! (a) skip re-conversion when a converted function flows back into
//! `ag.converted_call`, and (b) push a named function scope while staging,
//! which both names graph nodes readably and lets the error handlers of
//! Appendix B attribute failures to the right user function.

use crate::context::PassContext;
use crate::error::ConversionError;
use autograph_pylang::ast::*;
use autograph_pylang::Module;

/// Marker decorator attached to converted functions.
pub(crate) const ARTIFACT_MARKER: &str = "autograph_artifact";

/// Run the function-wrappers pass.
///
/// # Errors
///
/// Infallible in practice; `Result` for pipeline uniformity.
pub fn run(module: Module, _ctx: &mut PassContext) -> Result<Module, ConversionError> {
    let body = crate::context::rewrite_bodies_bottom_up(module.body, &mut |stmts| {
        Ok::<_, ConversionError>(
            stmts
                .into_iter()
                .map(|s| match s.kind {
                    StmtKind::FunctionDef {
                        name,
                        params,
                        body,
                        mut decorators,
                    } => {
                        let span = s.span;
                        if !decorators
                            .iter()
                            .any(|d| crate::context::is_ag_intrinsic(d, ARTIFACT_MARKER))
                        {
                            decorators.push(Expr::attr_path("ag", &[ARTIFACT_MARKER]));
                        }
                        Stmt::new(
                            StmtKind::FunctionDef {
                                name,
                                params,
                                body,
                                decorators,
                            },
                            span,
                        )
                    }
                    other => Stmt::new(other, s.span),
                })
                .collect(),
        )
    })?;
    Ok(Module { body })
}

/// Whether a function definition carries the converted-artifact marker.
pub fn is_artifact(decorators: &[Expr]) -> bool {
    decorators
        .iter()
        .any(|d| crate::context::is_ag_intrinsic(d, ARTIFACT_MARKER))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_pylang::codegen::ast_to_source;
    use autograph_pylang::parse_module;

    #[test]
    fn marker_added_everywhere() {
        let m =
            parse_module("def f(x):\n    def g(y):\n        return y\n    return g(x)\n").unwrap();
        let out = ast_to_source(&run(m, &mut PassContext::new()).unwrap());
        assert_eq!(out.matches("@ag.autograph_artifact").count(), 2, "{out}");
    }

    #[test]
    fn marker_idempotent() {
        let m = parse_module("@ag.autograph_artifact\ndef f(x):\n    return x\n").unwrap();
        let out = ast_to_source(&run(m, &mut PassContext::new()).unwrap());
        assert_eq!(out.matches("@ag.autograph_artifact").count(), 1);
    }

    #[test]
    fn is_artifact_helper() {
        let m = parse_module("@ag.autograph_artifact\ndef f():\n    pass\n").unwrap();
        if let StmtKind::FunctionDef { decorators, .. } = &m.body[0].kind {
            assert!(is_artifact(decorators));
        } else {
            panic!();
        }
        assert!(!is_artifact(&[Expr::name("other")]));
    }
}
