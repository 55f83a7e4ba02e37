//! # autograph-lantern
//!
//! The alternate staging back-end of §8: a Lantern-style IR that supports
//! features absent from the TensorFlow-graph IR — most importantly
//! **re-entrant (recursive) staged function calls** — enabling recursive
//! models like TreeLSTM.
//!
//! AutoGraph-converted code, staged with the Lantern context, emits
//! Lisp-like **S-expressions** ([`sexpr`]). Those are compiled
//! ([`compile`]) into a compact closure-free instruction tree with
//! pre-resolved variable slots and function indices, then evaluated
//! ([`eval`]) either forward-only or with reverse-mode automatic
//! differentiation.
//!
//! The original Lantern generates C++ with continuation-passing-style
//! backpropagation (`shift`/`reset`); here the forward pass records each
//! differentiable op on a data tape (`autograph_tensor::grad::Tape`, the
//! one the eager runtime uses), replayed in reverse after the forward
//! pass — the same computation in the same order, without a C++
//! toolchain in the loop (see DESIGN.md, substitution table). What matters for the paper's
//! Table 3 is preserved: recursion in the IR, and evaluation that does not
//! pay per-node interpretation or dispatch overhead.
//!
//! ## Example
//!
//! ```
//! use autograph_lantern::{compile::Program, eval::Engine, sexpr::parse};
//!
//! // factorial, staged as a recursive IR function
//! let src = "(program \
//!   (def fact (n) (if (le n (scalar 1)) (scalar 1) (mul n (call fact (sub n (scalar 1)))))) \
//!   (call fact (extern n)))";
//! let program = Program::compile(&parse(src)?)?;
//! let engine = Engine::new(program);
//! let out = engine.run(&[("n", autograph_tensor::Tensor::scalar_f32(5.0))], &[])?;
//! assert_eq!(out.as_tensor()?.scalar_value_f32()?, 120.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod compile;
pub mod error;
pub mod eval;
pub mod sexpr;
pub mod value;

pub use compile::Program;
pub use error::LanternError;
pub use eval::Engine;
pub use value::LValue;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LanternError>;
