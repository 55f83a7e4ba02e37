//! # autograph-tensor
//!
//! Dense n-dimensional tensor substrate for the AutoGraph reproduction.
//!
//! This crate plays the role of TensorFlow's kernel library: it provides the
//! numeric arrays, the one vocabulary of pure ops ([`op::Op`]) that the
//! eager runtime (`autograph-eager`), the dataflow-graph executor
//! (`autograph-graph`) and Lantern all run, and the one set of gradient
//! rules ([`grad`]) all three differentiate with. Tensors are row-major,
//! contiguous, and carry one of three element types ([`DType::F32`],
//! [`DType::I64`], [`DType::Bool`]).
//!
//! ## Example
//!
//! ```
//! use autograph_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0f32, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::scalar_f32(10.0);
//! let c = a.add(&b)?; // broadcasting
//! assert_eq!(c.as_f32()?, &[11.0, 12.0, 13.0, 14.0]);
//! # Ok::<(), autograph_tensor::TensorError>(())
//! ```

pub(crate) mod dtype;
pub mod error;
pub mod fused;
pub mod grad;
pub(crate) mod index;
pub(crate) mod linalg;
pub mod mem;
pub(crate) mod nn;
pub mod op;
pub mod ops;
pub(crate) mod random;
pub(crate) mod reduce;
pub(crate) mod shape;
pub mod tensor;

pub use dtype::DType;
pub use error::TensorError;
pub use random::Rng64;
pub use shape::Shape;
pub use tensor::{Data, Tensor};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
