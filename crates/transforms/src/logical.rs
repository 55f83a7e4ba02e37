//! Logical-expression conversion (§7.2). Python cannot overload `and`,
//! `or`, `not` (they are control flow, not operators) and TensorFlow's
//! `Tensor` does not overload `==`/`!=` for compatibility reasons, so these
//! are replaced with overloadable functional forms:
//!
//! * `a and b` → `ag.and_(a, lambda: b)` (lazy, preserving short-circuit
//!   semantics — the paper lowers this to `tf.cond` when staged)
//! * `a or b` → `ag.or_(a, lambda: b)`
//! * `not a` → `ag.not_(a)`
//! * `a == b` → `ag.eq_(a, b)`, `a != b` → `ag.not_eq_(a, b)`
//!
//! Chained comparisons `a < b <= c` expand into a lazy conjunction of the
//! pairwise comparisons. (Like the paper's treatment of loop conditions,
//! the middle operand expression may be evaluated twice; this is the
//! documented deviation.)

use crate::context::{ag_call, thunk, PassContext};
use crate::error::ConversionError;
use autograph_pylang::ast::*;
use autograph_pylang::Module;

/// Run the logical-expression conversion pass.
///
/// # Errors
///
/// Infallible in practice; `Result` for pipeline uniformity.
pub fn run(module: Module, _ctx: &mut PassContext) -> Result<Module, ConversionError> {
    let body = crate::context::rewrite_exprs(module.body, &mut rewrite);
    Ok(Module { body })
}

fn rewrite(expr: Expr) -> Expr {
    let span = expr.span;
    match expr.kind {
        ExprKind::BoolOp { op, values } => {
            let name = match op {
                BoolOpKind::And => "and_",
                BoolOpKind::Or => "or_",
            };
            fold_lazy(name, values, span).unwrap_or_else(|| {
                Expr::new(
                    ExprKind::BoolOp {
                        op,
                        values: Vec::new(),
                    },
                    span,
                )
            })
        }
        ExprKind::UnaryOp {
            op: UnaryOp::Not,
            operand,
        } => ag_call("not_", vec![*operand], span),
        ExprKind::Compare {
            left,
            ops,
            comparators,
        } => {
            // a < b <= c  =>  and_(a < b, lambda: b <= c)
            let mut left = *left;
            let mut pairs = Vec::with_capacity(ops.len());
            for (op, right) in ops.into_iter().zip(comparators) {
                let l = std::mem::replace(&mut left, right.clone());
                pairs.push(pairwise(l, op, right));
            }
            fold_lazy("and_", pairs, span).unwrap_or(left)
        }
        other => Expr::new(other, span),
    }
}

/// Right-fold operands into nested lazy calls:
/// `[a, b, c]` → `ag.and_(a, lambda: ag.and_(b, lambda: c))`; `None` when
/// there are no operands.
fn fold_lazy(name: &str, values: Vec<Expr>, span: autograph_pylang::Span) -> Option<Expr> {
    values
        .into_iter()
        .rev()
        .reduce(|acc, v| ag_call(name, vec![v, thunk(acc, span)], span))
}

fn pairwise(left: Expr, op: CmpOp, right: Expr) -> Expr {
    let span = left.span;
    match op {
        CmpOp::Eq => ag_call("eq_", vec![left, right], span),
        CmpOp::NotEq => ag_call("not_eq_", vec![left, right], span),
        other => Expr::new(
            ExprKind::Compare {
                left: Box::new(left),
                ops: vec![other],
                comparators: vec![right],
            },
            span,
        ),
    }
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
    fn and_or_not() {
        assert_eq!(convert("r = a and b\n"), "r = ag.and_(a, lambda: b)\n");
        assert_eq!(convert("r = a or b\n"), "r = ag.or_(a, lambda: b)\n");
        assert_eq!(convert("r = not a\n"), "r = ag.not_(a)\n");
    }

    #[test]
    fn three_way_chain_nests_right() {
        assert_eq!(
            convert("r = a and b and c\n"),
            "r = ag.and_(a, lambda: ag.and_(b, lambda: c))\n"
        );
    }

    #[test]
    fn eq_and_not_eq() {
        assert_eq!(convert("r = a == b\n"), "r = ag.eq_(a, b)\n");
        assert_eq!(convert("r = a != b\n"), "r = ag.not_eq_(a, b)\n");
    }

    #[test]
    fn ordering_comparisons_stay_native() {
        let src = "r = a < b\ns = a >= b\n";
        assert_eq!(convert(src), src);
    }

    #[test]
    fn chained_comparison_expands() {
        assert_eq!(
            convert("r = 0 <= x < n\n"),
            "r = ag.and_(0 <= x, lambda: x < n)\n"
        );
    }

    #[test]
    fn chained_with_eq() {
        assert_eq!(
            convert("r = a == b == c\n"),
            "r = ag.and_(ag.eq_(a, b), lambda: ag.eq_(b, c))\n"
        );
    }

    #[test]
    fn is_and_in_stay_native() {
        let src = "r = x is None\ns = a in xs\n";
        assert_eq!(convert(src), src);
    }

    #[test]
    fn nested_inside_control_flow_tests() {
        let out = convert("def f(a, b):\n    while a and b:\n        a = g(a)\n    return a\n");
        assert!(out.contains("while ag.and_(a, lambda: b):"), "{out}");
    }

    #[test]
    fn not_in_loop_condition_from_break_pass() {
        // shape produced by the break pass
        let out = convert("while not done and c:\n    x = 1\n");
        assert!(
            out.contains("while ag.and_(ag.not_(done), lambda: c):"),
            "{out}"
        );
    }
}
