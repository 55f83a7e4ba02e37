//! # autograph-eager
//!
//! An imperative, op-by-op execution runtime — the "TensorFlow Eager" /
//! "PyTorch" baseline of the paper's evaluation. Every operation runs the
//! moment it is called, through the same kernels the graph runs
//! ([`autograph_tensor::op::Op`]), so the work per op is the same and the
//! *per-op overhead* (operand handles, dispatch, a fresh output, the
//! tape) is paid on every call, every run: the cost structure that makes
//! eager execution slower than a compiled graph plan.
//!
//! Gradients are computed with a tape-based reverse-mode autodiff
//! (`tf.GradientTape` / PyTorch autograd analog) on the data tape Lantern
//! shares ([`autograph_tensor::grad::Tape`]), which re-records on every
//! execution — exactly the "retracing on every execution" cost the paper
//! contrasts with staged graphs.
//!
//! ## Example
//!
//! ```
//! use autograph_eager::{Eager, EagerTensor};
//! use autograph_tensor::Tensor;
//!
//! let eager = Eager::new();
//! let x = EagerTensor::from(Tensor::scalar_f32(3.0));
//! let y = eager.op("mul", &[&x, &x])?;
//! assert_eq!(y.tensor().scalar_value_f32()?, 9.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod context;

pub use context::{Eager, EagerTensor};

use autograph_tensor::TensorError;
use std::fmt;

/// Error from eager execution.
#[derive(Debug, Clone, PartialEq)]
pub struct EagerError {
    /// What failed.
    pub message: String,
    /// The op being dispatched, if any.
    pub op: Option<String>,
}

impl EagerError {
    /// New error with a message.
    pub fn new(message: impl Into<String>) -> Self {
        EagerError {
            message: message.into(),
            op: None,
        }
    }

    /// Attach the op name.
    pub(crate) fn in_op(mut self, op: &str) -> Self {
        self.op = Some(op.to_string());
        self
    }
}

impl fmt::Display for EagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eager execution error")?;
        if let Some(op) = &self.op {
            write!(f, " in op '{op}'")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for EagerError {}

impl From<TensorError> for EagerError {
    fn from(e: TensorError) -> Self {
        EagerError::new(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EagerError>;
