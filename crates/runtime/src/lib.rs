//! # autograph-runtime
//!
//! The AutoGraph runtime: a PyLite interpreter plus the `ag.*` operator
//! library that converted code calls into. This is where the paper's
//! **dynamic dispatch** (§6) lives — `ag.if_stmt`, `ag.while_stmt`,
//! `ag.for_stmt` and friends inspect their operand types at runtime and
//! either execute Python semantics imperatively or stage the construct
//! into the active backend IR:
//!
//! | operand | behaviour |
//! |---|---|
//! | Python bool / list / range | normal imperative execution |
//! | eager tensor | imperative execution (op-by-op, the Eager baseline) |
//! | graph node | staged into the TensorFlow-like graph (`tf.cond` / `tf.while_loop`) |
//! | Lantern expression | staged into the Lantern S-expression IR (recursion supported) |
//!
//! The [`Runtime`] type is the top-level façade: load (optionally
//! converted) PyLite source, call functions eagerly, or stage them into a
//! [`autograph_graph::Graph`] / [`autograph_lantern::Program`].

pub(crate) mod backend;
pub mod env;
pub mod error;
pub mod interp;
pub(crate) mod operators;
pub mod plan_cache;
pub mod runtime;
pub(crate) mod tf_api;
pub mod value;

pub use error::RuntimeError;
pub use plan_cache::compile_cached_with;
pub use runtime::{CompiledFunction, Runtime, StagedGraph};
pub use value::Value;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;
