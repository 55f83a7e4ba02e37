//! # autograph-pylang
//!
//! The "PyLite" frontend: a Python-subset language that plays the role of
//! Python in this AutoGraph reproduction. It provides everything step 1–2
//! and 4–5 of the paper's conversion pipeline (§6) need:
//!
//! * an indentation-aware [`lexer`] and recursive-descent parser
//!   producing a spanned [`ast`];
//! * a source [`codegen`] (`compiler.ast_to_source`).
//!
//! The paper's other Appendix C utilities, `pretty_printer.fmt` and
//! `templates.replace`, are not kept: every conversion pass builds its
//! output AST by hand so each generated node carries the span of the user
//! construct it replaces (DESIGN.md, deviation 9).
//!
//! ## Example
//!
//! ```
//! use autograph_pylang::{parse_module, codegen::ast_to_source};
//!
//! let module = parse_module("def f(x):\n    return x + 1\n")?;
//! let src = ast_to_source(&module);
//! assert!(src.contains("return x + 1"));
//! # Ok::<(), autograph_pylang::ParseError>(())
//! ```

pub mod ast;
pub mod codegen;
pub mod error;
pub mod lexer;
pub(crate) mod parser;
pub(crate) mod span;
pub mod token;

pub use ast::{Expr, ExprKind, Module, Param, Stmt, StmtKind};
pub use error::ParseError;
pub use span::Span;

/// Parse a complete PyLite module from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] carrying the offending line/column on lexical or
/// syntactic errors.
pub fn parse_module(source: &str) -> Result<Module, ParseError> {
    // staging-phase spans: lexing happens inside `Parser::new`, parsing
    // in `parse_module` — both invisible in traces until now (cold-start
    // cost accounting)
    let mut parser = {
        let _s = autograph_obs::span("staging", "lex");
        parser::Parser::new(source)?
    };
    let _s = autograph_obs::span("staging", "parse");
    parser.parse_module()
}
