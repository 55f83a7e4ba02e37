//! # autograph-graph
//!
//! A TensorFlow-like dataflow-graph IR and executor: the staging target of
//! the AutoGraph reproduction.
//!
//! * [`ir`] — the graph data structure: nodes, ops, subgraphs;
//! * [`builder`] — an ergonomic [`builder::GraphBuilder`]
//!   with name scopes;
//! * [`ops`] — kernel implementations (dispatching to `autograph-tensor`);
//! * [`exec`] — execution plans and the op-by-op reference interpreter
//!   (functional control flow `Cond`/`While`, `TensorArray` semantics)
//!   that the differential tests compare the VM against;
//! * [`session`] — [`session::Session`]: compiled execution plans run on
//!   the bytecode VM, feeds/fetches, stateful variables (the
//!   `tf.Session.run` analog);
//! * [`grad`] — symbolic reverse-mode differentiation, building gradient
//!   nodes into the same graph (what enables in-graph SGD, Table 2);
//! * [`optimize`] — whole-program graph optimizations: constant folding,
//!   common-subexpression elimination, dead-code elimination;
//! * [`report`] — per-run [`report::RunReport`]s: memory accounting and
//!   the per-node cost table;
//! * [`shapes`] — static shape inference + staging-time validation (the
//!   Appendix B future-work extension).
//!
//! ## Example
//!
//! ```
//! use autograph_graph::builder::GraphBuilder;
//! use autograph_graph::session::Session;
//! use autograph_tensor::Tensor;
//!
//! let mut g = GraphBuilder::new();
//! let x = g.placeholder("x");
//! let two = g.constant(Tensor::scalar_f32(2.0));
//! let y = g.mul(x, two);
//! let graph = g.finish();
//!
//! let mut sess = Session::new(graph);
//! let out = sess.run(&[("x", Tensor::scalar_f32(21.0))], &[y])?;
//! assert_eq!(out[0].scalar_value_f32()?, 42.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod artifact;
pub mod builder;
pub(crate) mod compile;
pub mod error;
pub mod exec;
pub mod grad;
pub mod ir;
pub mod ops;
pub mod optimize;
pub mod report;
pub mod run;
pub mod session;
pub mod shapes;
pub(crate) mod vm;

pub use artifact::CompiledUnit;
pub use builder::GraphBuilder;
pub use error::{ErrorKind, GraphError};
pub use ir::{Graph, NodeId, OpKind, PassRecord, SubGraph};
pub use optimize::OptTrace;
pub use report::{MemReport, NodeCost, RunReport};
pub use run::{CancelToken, RunOptions};
pub use session::{Session, SessionStats};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;
