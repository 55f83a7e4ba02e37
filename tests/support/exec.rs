//! The executor cells the test walls run a staged graph in: the VM at 1
//! and 4 threads, and the reference interpreter it is compared against.
//! Include with `#[path = "support/exec.rs"]`.
#![allow(dead_code)]

use autograph::graph::{GraphError, NodeId};
use autograph::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// `Session::run_values_reference` (the interpreter in `exec.rs`).
    Reference,
    /// `Session::run_with_options` (the bytecode VM).
    Vm,
}

/// (executor, threads) cells every wall covers.
pub const GRID: [(Exec, usize); 3] = [(Exec::Reference, 1), (Exec::Vm, 1), (Exec::Vm, 4)];

/// Run `fetches` on the chosen executor, returning tensors.
pub fn run(
    sess: &mut Session,
    exec: Exec,
    feeds: &[(&str, Tensor)],
    fetches: &[NodeId],
    opts: &RunOptions,
) -> Result<Vec<Tensor>, GraphError> {
    match exec {
        Exec::Vm => sess.run_with_options(feeds, fetches, opts),
        Exec::Reference => sess
            .run_values_reference(feeds, fetches, opts)?
            .iter()
            .map(|v| v.as_tensor().cloned())
            .collect(),
    }
}
