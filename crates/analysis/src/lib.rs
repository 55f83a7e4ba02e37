//! # autograph-analysis
//!
//! The static analyses of AutoGraph §7.1, implemented over the PyLite AST:
//!
//! * [`cfg`](mod@cfg) — standard intra-procedural control-flow-graph construction;
//! * `qualname` — qualified-name resolution (`a.b` as a compound symbol);
//! * [`activity`] — per-node read/modified symbol sets with lexical scope
//!   tracking;
//! * [`dataflow`] — classic worklist **reaching definitions** (forward) and
//!   **liveness** (backward) over the CFG;
//! * [`liveness`] / [`definedness`] — compositional (structured) versions
//!   of the same analyses, which the conversion passes consume while
//!   rebuilding the tree. A property test in the workspace cross-checks the
//!   structured liveness against the CFG fixpoint.
//!
//! ## Example
//!
//! ```
//! use autograph_pylang::parse_module;
//! use autograph_analysis::activity::body_activity;
//!
//! let m = parse_module("x = a + b\ny = x * 2\n")?;
//! let act = body_activity(&m.body);
//! assert!(act.reads_root("a") && act.modifies_root("x"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod activity;
pub mod cfg;
pub mod dataflow;
pub mod definedness;
pub mod liveness;
pub(crate) mod qualname;

use std::collections::BTreeSet;

/// A set of root symbol names, ordered for deterministic output.
pub type SymbolSet = BTreeSet<String>;
