//! Control-flow functionalization (§7.2) — the heart of AutoGraph.
//!
//! Every `if`/`while`/`for` inside a converted function is replaced by an
//! overloadable functional form whose runtime implementation dynamically
//! dispatches on the predicate/iterate type (Listing 2):
//!
//! ```text
//! if x > 0:                    def if_true__1():
//!     x = x * x         →          x = x * x
//!                                  return x
//!                              def if_false__2():
//!                                  return x
//!                              x = ag.if_stmt(x > 0, if_true__1, if_false__2)
//! ```
//!
//! `while` and `for` are stateful: their functional forms thread the
//! variables modified in the loop body (its *state*) through explicit
//! arguments and return values. Liveness analysis prunes state to symbols
//! actually used afterwards or loop-carried; definedness analysis decides
//! which symbols must be reified with `ag.undefined(...)` because a branch
//! or a zero-trip loop may leave them unset.
//!
//! Ternary expressions are converted by [`run_ternary`]:
//! `x if c else y` → `ag.if_stmt(c, lambda: x, lambda: y)`.

use crate::context::{ag_call, thunk, tuple_or_single, PassContext};
use crate::error::ConversionError;
use autograph_analysis::activity::{stmt_activity, target_defs};
use autograph_analysis::definedness::defined_after_stmt;
use autograph_analysis::liveness::live_into_stmt;
use autograph_analysis::SymbolSet;
use autograph_pylang::ast::*;
use autograph_pylang::{Module, Span};

/// Run the control-flow functionalization pass. Only statements inside
/// function definitions are converted; module-level statements remain host
/// ("macro-programming") code.
///
/// # Errors
///
/// Infallible in practice; `Result` for pipeline uniformity.
pub fn run(module: Module, ctx: &mut PassContext) -> Result<Module, ConversionError> {
    let body = module
        .body
        .into_iter()
        .map(|s| convert_toplevel(s, ctx))
        .collect::<Result<_, _>>()?;
    Ok(Module { body })
}

fn convert_toplevel(stmt: Stmt, ctx: &mut PassContext) -> Result<Stmt, ConversionError> {
    let span = stmt.span;
    match stmt.kind {
        StmtKind::FunctionDef {
            name,
            params,
            body,
            decorators,
        } => {
            let defined: SymbolSet = params.iter().map(|p| p.name.clone()).collect();
            let body = convert_block(body, &SymbolSet::new(), defined, ctx)?;
            Ok(Stmt::new(
                StmtKind::FunctionDef {
                    name,
                    params,
                    body,
                    decorators,
                },
                span,
            ))
        }
        other => Ok(Stmt::new(other, span)),
    }
}

/// Convert a statement block. `live_after_block` is the set of symbols
/// live after the whole block; `defined` the symbols definitely defined on
/// entry.
fn convert_block(
    body: Vec<Stmt>,
    live_after_block: &SymbolSet,
    mut defined: SymbolSet,
    ctx: &mut PassContext,
) -> Result<Vec<Stmt>, ConversionError> {
    let live_after = live_after_each(&body, live_after_block);

    let mut out = Vec::with_capacity(body.len());
    for (i, stmt) in body.into_iter().enumerate() {
        let defined_after = defined_after_stmt(&stmt, &defined);
        let span = stmt.span;
        match stmt.kind {
            StmtKind::If { test, body, orelse } => {
                let original = Stmt::new(
                    StmtKind::If {
                        test: test.clone(),
                        body: body.clone(),
                        orelse: orelse.clone(),
                    },
                    span,
                );
                out.extend(functionalize_if(
                    &original,
                    test,
                    body,
                    orelse,
                    &live_after[i],
                    &defined,
                    ctx,
                )?);
            }
            StmtKind::While { test, body } => {
                let original = Stmt::new(
                    StmtKind::While {
                        test: test.clone(),
                        body: body.clone(),
                    },
                    span,
                );
                out.extend(functionalize_while(
                    &original,
                    test,
                    body,
                    &live_after[i],
                    &defined,
                    ctx,
                )?);
            }
            StmtKind::For { target, iter, body } => {
                let original = Stmt::new(
                    StmtKind::For {
                        target: target.clone(),
                        iter: iter.clone(),
                        body: body.clone(),
                    },
                    span,
                );
                out.extend(functionalize_for(
                    &original,
                    target,
                    iter,
                    body,
                    &live_after[i],
                    &defined,
                    ctx,
                )?);
            }
            StmtKind::FunctionDef {
                name,
                params,
                body,
                decorators,
            } => {
                let inner_defined: SymbolSet = params.iter().map(|p| p.name.clone()).collect();
                let body = convert_block(body, &SymbolSet::new(), inner_defined, ctx)?;
                out.push(Stmt::new(
                    StmtKind::FunctionDef {
                        name,
                        params,
                        body,
                        decorators,
                    },
                    span,
                ));
            }
            other => out.push(Stmt::new(other, span)),
        }
        defined = defined_after;
    }
    Ok(out)
}

/// `live_after[i]`: the symbols live right after statement `i`, i.e. live
/// into the suffix `body[i + 1..]` terminated by `live_after_block`.
/// `live_into` is a right fold of `live_into_stmt`, so one backward sweep
/// yields every suffix's answer.
fn live_after_each(body: &[Stmt], live_after_block: &SymbolSet) -> Vec<SymbolSet> {
    let mut live_after = vec![live_after_block.clone(); body.len()];
    for i in (1..body.len()).rev() {
        live_after[i - 1] = live_into_stmt(&body[i], &live_after[i]);
    }
    live_after
}

/// `name = ag.undefined('name')`
fn undefined_stmt(name: &str, span: Span) -> Stmt {
    Stmt::new(
        StmtKind::Assign {
            target: Expr::new(ExprKind::Name(name.to_string()), span),
            value: ag_call(
                "undefined",
                vec![Expr::new(ExprKind::Str(name.to_string()), span)],
                span,
            ),
        },
        span,
    )
}

fn names_expr(syms: &[String], span: Span) -> Vec<Expr> {
    syms.iter()
        .map(|s| Expr::new(ExprKind::Name(s.clone()), span))
        .collect()
}

fn fn_def(name: &str, params: Vec<String>, body: Vec<Stmt>, span: Span) -> Stmt {
    Stmt::new(
        StmtKind::FunctionDef {
            name: name.to_string(),
            params: params
                .into_iter()
                .map(|p| Param {
                    name: p,
                    default: None,
                })
                .collect(),
            body,
            decorators: Vec::new(),
        },
        span,
    )
}

fn functionalize_if(
    original: &Stmt,
    test: Expr,
    body: Vec<Stmt>,
    orelse: Vec<Stmt>,
    live_after: &SymbolSet,
    defined: &SymbolSet,
    ctx: &mut PassContext,
) -> Result<Vec<Stmt>, ConversionError> {
    let span = original.span;
    let modified = stmt_activity(original).modified_simple_roots();
    let out_syms: Vec<String> = modified
        .iter()
        .filter(|s| live_after.contains(*s))
        .cloned()
        .collect();

    let mut stmts = Vec::new();
    let mut branch_defined = defined.clone();
    for s in &out_syms {
        if !defined.contains(s) {
            stmts.push(undefined_stmt(s, span));
        }
        branch_defined.insert(s.clone());
    }

    let out_set: SymbolSet = out_syms.iter().cloned().collect();
    let mut true_body = convert_block(body, &out_set, branch_defined.clone(), ctx)?;
    let mut false_body = convert_block(orelse, &out_set, branch_defined, ctx)?;
    if !out_syms.is_empty() {
        let ret = |span| {
            Stmt::new(
                StmtKind::Return(Some(tuple_or_single(names_expr(&out_syms, span), span))),
                span,
            )
        };
        true_body.push(ret(span));
        false_body.push(ret(span));
    }
    if true_body.is_empty() {
        true_body.push(Stmt::new(StmtKind::Pass, span));
    }
    if false_body.is_empty() {
        false_body.push(Stmt::new(StmtKind::Pass, span));
    }

    let t_name = ctx.gensym("if_true");
    let f_name = ctx.gensym("if_false");
    stmts.push(fn_def(&t_name, vec![], true_body, span));
    stmts.push(fn_def(&f_name, vec![], false_body, span));

    let call = ag_call(
        "if_stmt",
        vec![
            test,
            Expr::new(ExprKind::Name(t_name), span),
            Expr::new(ExprKind::Name(f_name), span),
        ],
        span,
    );
    if out_syms.is_empty() {
        stmts.push(Stmt::new(StmtKind::ExprStmt(call), span));
    } else {
        stmts.push(Stmt::new(
            StmtKind::Assign {
                target: tuple_or_single(names_expr(&out_syms, span), span),
                value: call,
            },
            span,
        ));
    }
    Ok(stmts)
}

/// Compute the loop state: symbols modified in the loop that are either
/// live afterwards or loop-carried (live at loop entry).
fn loop_state(original: &Stmt, live_after: &SymbolSet) -> Vec<String> {
    let modified = stmt_activity(original).modified_simple_roots();
    let live_in = live_into_stmt(original, live_after);
    modified
        .iter()
        .filter(|s| live_after.contains(*s) || live_in.contains(*s))
        .cloned()
        .collect()
}

fn functionalize_while(
    original: &Stmt,
    test: Expr,
    body: Vec<Stmt>,
    live_after: &SymbolSet,
    defined: &SymbolSet,
    ctx: &mut PassContext,
) -> Result<Vec<Stmt>, ConversionError> {
    let span = original.span;
    let state = loop_state(original, live_after);

    let mut stmts = Vec::new();
    let mut inner_defined = defined.clone();
    for s in &state {
        if !defined.contains(s) {
            stmts.push(undefined_stmt(s, span));
        }
        inner_defined.insert(s.clone());
    }

    let state_set: SymbolSet = state.iter().cloned().collect();
    let mut loop_body = convert_block(body, &state_set, inner_defined, ctx)?;
    loop_body.push(Stmt::new(
        StmtKind::Return(Some(Expr::new(
            ExprKind::Tuple(names_expr(&state, span)),
            span,
        ))),
        span,
    ));

    let test_name = ctx.gensym("loop_test");
    let body_name = ctx.gensym("loop_body");
    stmts.push(fn_def(
        &test_name,
        state.clone(),
        vec![Stmt::new(StmtKind::Return(Some(test)), span)],
        span,
    ));
    stmts.push(fn_def(&body_name, state.clone(), loop_body, span));

    let call = ag_call(
        "while_stmt",
        vec![
            Expr::new(ExprKind::Name(test_name), span),
            Expr::new(ExprKind::Name(body_name), span),
            Expr::new(ExprKind::Tuple(names_expr(&state, span)), span),
        ],
        span,
    );
    if state.is_empty() {
        stmts.push(Stmt::new(StmtKind::ExprStmt(call), span));
    } else {
        stmts.push(Stmt::new(
            StmtKind::Assign {
                target: Expr::new(ExprKind::Tuple(names_expr(&state, span)), span),
                value: call,
            },
            span,
        ));
    }
    Ok(stmts)
}

fn functionalize_for(
    original: &Stmt,
    target: Expr,
    iter: Expr,
    body: Vec<Stmt>,
    live_after: &SymbolSet,
    defined: &SymbolSet,
    ctx: &mut PassContext,
) -> Result<Vec<Stmt>, ConversionError> {
    let span = original.span;
    let state = loop_state(original, live_after);
    let tdefs = target_defs(&target);

    let mut stmts = Vec::new();
    let mut inner_defined = defined.clone();
    for s in &state {
        if !defined.contains(s) {
            stmts.push(undefined_stmt(s, span));
        }
        inner_defined.insert(s.clone());
    }
    inner_defined.extend(tdefs.iter().cloned());

    // The iteration variable is the body function's first parameter. Tuple
    // targets unpack from a synthesized parameter.
    let (iter_param, mut prelude) = match &target.kind {
        ExprKind::Name(n) => (n.clone(), Vec::new()),
        _ => {
            let p = ctx.gensym("itervar");
            (
                p.clone(),
                vec![Stmt::new(
                    StmtKind::Assign {
                        target: target.clone(),
                        value: Expr::new(ExprKind::Name(p), span),
                    },
                    span,
                )],
            )
        }
    };

    let state_set: SymbolSet = state.iter().cloned().collect();
    let converted = convert_block(body, &state_set, inner_defined, ctx)?;
    prelude.extend(converted);
    prelude.push(Stmt::new(
        StmtKind::Return(Some(Expr::new(
            ExprKind::Tuple(names_expr(&state, span)),
            span,
        ))),
        span,
    ));

    // State variables that the loop header itself defines (the target) are
    // fed back by the body function returning its parameter.
    let mut params = vec![iter_param.clone()];
    params.extend(state.iter().filter(|s| **s != iter_param).cloned());

    let body_name = ctx.gensym("for_body");
    stmts.push(fn_def(&body_name, params, prelude, span));

    let call = ag_call(
        "for_stmt",
        vec![
            iter,
            Expr::new(ExprKind::Name(body_name), span),
            Expr::new(ExprKind::Tuple(names_expr(&state, span)), span),
        ],
        span,
    );
    if state.is_empty() {
        stmts.push(Stmt::new(StmtKind::ExprStmt(call), span));
    } else {
        stmts.push(Stmt::new(
            StmtKind::Assign {
                target: Expr::new(ExprKind::Tuple(names_expr(&state, span)), span),
                value: call,
            },
            span,
        ));
    }
    Ok(stmts)
}

/// Convert ternary conditional expressions inline (§7.2):
/// `x if cond else y` → `ag.if_stmt(cond, lambda: x, lambda: y)`.
///
/// # Errors
///
/// Infallible in practice; `Result` for pipeline uniformity.
pub(crate) fn run_ternary(
    module: Module,
    _ctx: &mut PassContext,
) -> Result<Module, ConversionError> {
    let body = crate::context::rewrite_exprs(module.body, &mut |expr| {
        let span = expr.span;
        match expr.kind {
            ExprKind::IfExp { test, body, orelse } => ag_call(
                "if_stmt",
                vec![*test, thunk(*body, span), thunk(*orelse, span)],
                span,
            ),
            other => Expr::new(other, span),
        }
    });
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

    /// The `src: "..."` literals of the differential corpus. The corpus
    /// file itself needs the whole workspace (its feeds are tensors), so
    /// it is read as text; every literal there is a one-line string whose
    /// only escapes are `\n` and `\"`.
    fn corpus_sources() -> Vec<String> {
        include_str!("../../../tests/support/corpus.rs")
            .lines()
            .filter_map(|l| l.trim().strip_prefix("src: \""))
            .map(|l| {
                let lit = l.strip_suffix("\",").expect("one-line src literal");
                lit.replace("\\n", "\n").replace("\\\"", "\"")
            })
            .collect()
    }

    /// Every nested statement block of `body`, `body` included.
    fn blocks<'a>(body: &'a [Stmt], out: &mut Vec<&'a [Stmt]>) {
        out.push(body);
        for s in body {
            match &s.kind {
                StmtKind::If { body, orelse, .. } => {
                    blocks(body, out);
                    blocks(orelse, out);
                }
                StmtKind::While { body, .. }
                | StmtKind::For { body, .. }
                | StmtKind::FunctionDef { body, .. } => blocks(body, out),
                _ => {}
            }
        }
    }

    #[test]
    fn liveness_sweep_equals_the_suffix_definition() {
        use autograph_analysis::liveness::live_into;
        let sources = corpus_sources();
        assert!(sources.len() >= 30, "corpus literals not found");
        let outs: [SymbolSet; 2] = [
            SymbolSet::new(),
            ["x", "i", "acc"].iter().map(|s| s.to_string()).collect(),
        ];
        let mut positions = 0;
        for src in &sources {
            let module = parse_module(src).unwrap_or_else(|e| panic!("{e}: {src}"));
            let mut all = Vec::new();
            blocks(&module.body, &mut all);
            for body in all {
                for live_out in &outs {
                    let swept = live_after_each(body, live_out);
                    assert_eq!(swept.len(), body.len());
                    for (i, got) in swept.iter().enumerate() {
                        assert_eq!(got, &live_into(&body[i + 1..], live_out), "{src}");
                        positions += 1;
                    }
                }
            }
        }
        assert!(positions > 400, "only {positions} statement positions");
    }

    #[test]
    fn listing1_if_conversion() {
        let out = convert("def f(x):\n    if x > 0:\n        x = x * x\n    return x\n");
        assert!(out.contains("def if_true__1():"), "{out}");
        assert!(out.contains("def if_false__2():"), "{out}");
        assert!(
            out.contains("x = ag.if_stmt(x > 0, if_true__1, if_false__2)"),
            "{out}"
        );
        // both branches return x
        assert!(out.matches("return x").count() >= 2, "{out}");
        assert!(
            !out.contains("if x > 0:\n"),
            "original if should be gone:\n{out}"
        );
    }

    #[test]
    fn while_conversion_threads_state() {
        let out = convert("def f(x, eps):\n    while x > eps:\n        x = x / 2\n    return x\n");
        assert!(out.contains("def loop_test__1(x):"), "{out}");
        assert!(out.contains("def loop_body__2(x):"), "{out}");
        assert!(
            out.contains("(x,) = ag.while_stmt(loop_test__1, loop_body__2, (x,))"),
            "{out}"
        );
    }

    #[test]
    fn for_conversion() {
        let out =
            convert("def f(xs):\n    s = 0\n    for i in xs:\n        s = s + i\n    return s\n");
        assert!(out.contains("def for_body__1(i, s):"), "{out}");
        assert!(
            out.contains("(s,) = ag.for_stmt(xs, for_body__1, (s,))"),
            "{out}"
        );
    }

    #[test]
    fn for_tuple_target_unpacks() {
        let out = convert(
            "def f(ps):\n    s = 0\n    for a, b in ps:\n        s = s + a * b\n    return s\n",
        );
        assert!(out.contains("def for_body__2(itervar__1, s):"), "{out}");
        assert!(out.contains("(a, b) = itervar__1"), "{out}");
    }

    #[test]
    fn undefined_reified_for_branch_only_symbol() {
        let out = convert("def f(c):\n    if c:\n        y = 1\n    return y\n");
        assert!(out.contains("y = ag.undefined('y')"), "{out}");
    }

    #[test]
    fn defined_symbol_not_reified() {
        let out = convert("def f(c):\n    y = 0\n    if c:\n        y = 1\n    return y\n");
        assert!(!out.contains("ag.undefined"), "{out}");
    }

    #[test]
    fn dead_writes_not_threaded() {
        // t is modified in the branch but never used after -> not an output
        let out =
            convert("def f(c, x):\n    if c:\n        t = 1\n        x = x + t\n    return x\n");
        assert!(out.contains("x = ag.if_stmt"), "{out}");
        assert!(!out.contains("(t, x)"), "{out}");
    }

    #[test]
    fn side_effect_only_if() {
        let out = convert("def f(c, x):\n    if c:\n        ag.print_(x)\n    return x\n");
        assert!(
            out.contains("ag.if_stmt(c, if_true__1, if_false__2)\n"),
            "{out}"
        );
        // statement form, no assignment
        assert!(!out.contains("= ag.if_stmt"), "{out}");
    }

    #[test]
    fn nested_control_flow() {
        let out = convert(
            "def f(n):\n    s = 0\n    for i in n:\n        if i > 2:\n            s = s + i\n    return s\n",
        );
        assert!(out.contains("ag.for_stmt"), "{out}");
        assert!(out.contains("ag.if_stmt"), "{out}");
        // the if is inside the for body function
        let for_pos = out.find("def for_body").unwrap();
        let if_pos = out.find("ag.if_stmt").unwrap();
        assert!(if_pos > for_pos);
    }

    #[test]
    fn module_level_control_flow_untouched() {
        // hyperparameter-style conditional outside a function stays imperative
        let src = "if flag:\n    x = 1\nelse:\n    x = 2\n";
        assert_eq!(convert(src), src);
    }

    #[test]
    fn loop_state_includes_loop_carried_only_vars() {
        // acc is modified + read in loop but dead after: still loop state
        let out = convert("def f(n):\n    acc = 0\n    while n > 0:\n        acc = acc + n\n        n = n - 1\n    return n\n");
        assert!(out.contains("(acc, n)"), "{out}");
    }

    #[test]
    fn ternary_pass() {
        let m = parse_module("y = a if c else b\n").unwrap();
        let out = ast_to_source(&run_ternary(m, &mut PassContext::new()).unwrap());
        assert_eq!(out, "y = ag.if_stmt(c, lambda: a, lambda: b)\n");
    }

    #[test]
    fn else_branch_converted() {
        let out = convert(
            "def f(c):\n    if c:\n        r = 1\n    else:\n        r = 2\n    return r\n",
        );
        assert!(out.contains("r = ag.if_stmt"), "{out}");
        assert!(out.contains("return 1") || out.contains("r = 1"), "{out}");
    }
}
