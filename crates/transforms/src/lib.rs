//! # autograph-transforms
//!
//! The source-code-transformation passes of AutoGraph §7.2. Each pass is a
//! specialized, typically independent AST rewrite; together they convert
//! idiomatic imperative PyLite into a functional form in which every
//! staging-relevant construct is an overloadable `ag.*` call:
//!
//! | pass | rewrite |
//! |---|---|
//! | `directives` | recognizes `ag.set_element_type` / `ag.set_loop_options` |
//! | [`break_stmt`] | lowers `break` into guard variables + loop conditions |
//! | [`continue_stmt`] | lowers `continue` into guard variables + conditionals |
//! | [`return_stmt`] | lowers early `return` into a single trailing return |
//! | `asserts` | `assert c, m` → `ag.assert_stmt(c, m)` |
//! | `lists` | `l.append(x)` → `ag.list_append(l, x)`, `l.pop()` → `ag.list_pop(l)` |
//! | `slices` | `x[i] = y` → `x = ag.setitem(x, i, y)` |
//! | `calls` | `f(x)` → `ag.converted_call(f, x)` |
//! | `control_flow` | `if`/`while`/`for` and ternaries → `ag.if_stmt` / `ag.while_stmt` / `ag.for_stmt` |
//! | `logical` | `and`/`or`/`not`/`==`/`!=` → `ag.and_` / `ag.or_` / `ag.not_` / `ag.eq_` / `ag.not_eq_` |
//! | [`wrappers`] | marks converted functions with `@ag.autograph_artifact` |
//!
//! `break`, `continue` and the early-`return` fallback share one guard
//! lowering (the private `guards` module); they stay three pipeline steps
//! so each can be run and tested on its own.
//!
//! The [`pipeline`] module runs them in the paper's order; [`srcmap`]
//! provides the Appendix B source-map construction (every synthesized node
//! inherits the span of the user construct it replaced, so staging and
//! runtime errors point at original source lines).
//!
//! ## Example
//!
//! ```
//! use autograph_transforms::pipeline::{convert_module, ConversionConfig};
//! use autograph_pylang::{parse_module, codegen::ast_to_source};
//!
//! let m = parse_module("def f(x):\n    if x > 0:\n        x = x * x\n    return x\n")?;
//! let converted = convert_module(m, &ConversionConfig::default())?;
//! let out = ast_to_source(&converted.module);
//! assert!(out.contains("ag.if_stmt"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub(crate) mod asserts;
pub mod break_stmt;
pub(crate) mod calls;
pub mod context;
pub mod continue_stmt;
pub(crate) mod control_flow;
pub(crate) mod directives;
pub mod error;
mod guards;
pub(crate) mod lists;
pub(crate) mod logical;
pub mod pipeline;
pub mod return_stmt;
pub(crate) mod slices;
pub mod srcmap;
pub mod wrappers;

pub use context::PassContext;
pub use error::ConversionError;
pub use pipeline::{
    convert_module, ConversionConfig, ConversionPolicy, ConversionWarning, Converted,
};
