//! # autograph
//!
//! A Rust reproduction of **AutoGraph: Imperative-style Coding with
//! Graph-based Performance** (Moldovan et al., MLSys 2019).
//!
//! AutoGraph lets you write idiomatic, imperative code — including
//! data-dependent `if`/`while`/`for`, `break`, `continue` and early
//! `return` — and converts it, via source-code transformation plus runtime
//! dynamic dispatch, into code that *stages* a dataflow-graph IR with
//! whole-program optimization, or the Lantern S-expression IR with support
//! for recursive models.
//!
//! The "Python" here is **PyLite**, a Python-subset language with its own
//! parser and interpreter (see [`autograph_pylang`] and
//! [`autograph_runtime`]); the "TensorFlow" is the dataflow graph of
//! [`autograph_graph`] with an eager counterpart in [`autograph_eager`].
//!
//! ## Quickstart
//!
//! ```
//! use autograph::prelude::*;
//!
//! let src = "
//! def f(x):
//!     if x > 0:
//!         x = x * x
//!     return x
//! ";
//! // 1. convert + load (the @ag.convert() decorator analog)
//! let mut rt = Runtime::load(src, true)?;
//!
//! // 2. imperative call — a Python int dispatches imperatively
//! let y = rt.call("f", vec![Value::Int(3)])?;
//! assert_eq!(y.as_int()?, 9);
//!
//! // 3. staged call — a placeholder stages tf.cond into a graph
//! let staged = rt.stage_to_graph("f", vec![GraphArg::Placeholder("x".into())])?;
//! let mut sess = Session::new(staged.graph);
//! let out = sess.run(&[("x", Tensor::scalar_f32(5.0))], &staged.outputs)?;
//! assert_eq!(out[0].scalar_value_f32()?, 25.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Crate map
//!
//! | layer | crate |
//! |---|---|
//! | PyLite frontend (lexer/parser/AST/codegen) | [`autograph_pylang`] |
//! | static analyses (CFG, activity, liveness, reaching defs) | [`autograph_analysis`] |
//! | conversion passes (§7.2) + source maps | [`autograph_transforms`] |
//! | tensor kernels | [`autograph_tensor`] |
//! | dataflow graph IR, session, symbolic grads, optimizations | [`autograph_graph`] |
//! | eager runtime + tape autodiff | [`autograph_eager`] |
//! | interpreter + `ag.*` dynamic dispatch | [`autograph_runtime`] |
//! | Lantern backend (recursion + tape autodiff) | [`autograph_lantern`] |

pub use autograph_analysis as analysis;
pub use autograph_eager as eager;
pub use autograph_faults as faults;
pub use autograph_graph as graph;
pub use autograph_lantern as lantern;
pub use autograph_pylang as pylang;
pub use autograph_runtime as runtime;
pub use autograph_tensor as tensor;
pub use autograph_transforms as transforms;

pub use autograph_graph::{CancelToken, ErrorKind, GraphError, RunOptions};
pub use autograph_runtime::runtime::{CompiledFunction, GraphArg, LanternArg, StagedGraph};
pub use autograph_runtime::{Runtime, RuntimeError, Value};
pub use autograph_transforms::{
    convert_module, ConversionConfig, ConversionPolicy, ConversionWarning, Converted,
};

/// Convert PyLite source to converted PyLite source — the pure
/// source-to-source view of AutoGraph ("the generated code can be
/// inspected, and even modified by the user", §10).
///
/// # Errors
///
/// Returns conversion errors located in the original source.
///
/// # Example
///
/// ```
/// let out = autograph::convert_source("def f(x):\n    if x > 0:\n        x = x * x\n    return x\n")?;
/// assert!(out.contains("ag.if_stmt"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn convert_source(source: &str) -> Result<String, autograph_transforms::ConversionError> {
    autograph_transforms::pipeline::convert_source(source, &ConversionConfig::default())
}

/// Common imports for working with the library.
pub mod prelude {
    pub use crate::convert_source;
    pub use autograph_graph::{CancelToken, RunOptions, Session};
    pub use autograph_lantern::Engine;
    pub use autograph_runtime::runtime::{CompiledFunction, GraphArg, LanternArg, StagedGraph};
    pub use autograph_runtime::{Runtime, Value};
    pub use autograph_tensor::{DType, Rng64, Tensor};
    pub use autograph_transforms::{ConversionConfig, ConversionPolicy};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn convert_source_listing1() {
        let out =
            crate::convert_source("def f(x):\n    if x > 0:\n        x = x * x\n    return x\n")
                .unwrap();
        assert!(out.contains("ag.if_stmt"));
        assert!(out.contains("@ag.autograph_artifact"));
    }

    #[test]
    fn end_to_end_quickstart_path() {
        let mut rt = Runtime::load(
            "def double_positive(x):\n    if x > 0:\n        return x * 2.0\n    return x\n",
            true,
        )
        .unwrap();
        let staged = rt
            .stage_to_graph("double_positive", vec![GraphArg::Placeholder("x".into())])
            .unwrap();
        let mut sess = Session::new(staged.graph);
        let out = sess
            .run(&[("x", Tensor::scalar_f32(4.0))], &staged.outputs)
            .unwrap();
        assert_eq!(out[0].scalar_value_f32().unwrap(), 8.0);
    }
}
