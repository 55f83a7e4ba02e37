//! Tape-based reverse-mode autodiff for the eager runtime.
//!
//! While the tape is active, every differentiable dispatched op appends an
//! entry recording its inputs, output and node ids. `Tape::gradient`
//! replays the entries in reverse, applying each op's backward rule. A new
//! tape must be recorded for every execution — the per-run retracing cost
//! the paper attributes to imperative systems.

use crate::registry::OpDef;
use crate::{EagerError, Result};
use autograph_tensor::Tensor;
use std::collections::HashMap;

/// One recorded operation.
#[derive(Debug)]
pub(crate) struct TapeEntry {
    /// Registry name of the op.
    pub op: String,
    /// Tape node ids of the inputs (None = not watched / constant).
    pub input_nodes: Vec<Option<usize>>,
    /// Input values (cheap Arc clones).
    pub inputs: Vec<Tensor>,
    /// Output value.
    pub output: Tensor,
    /// Tape node id of the output.
    pub output_node: usize,
}

/// A gradient tape: watched tensors plus recorded ops.
#[derive(Debug, Default)]
pub struct Tape {
    entries: Vec<TapeEntry>,
    next_node: usize,
}

impl Tape {
    /// A fresh, empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Allocate a node id (for watched leaf tensors).
    pub fn watch(&mut self) -> usize {
        let id = self.next_node;
        self.next_node += 1;
        id
    }

    /// Record one op; returns the output's node id.
    pub fn record(
        &mut self,
        op: &str,
        input_nodes: Vec<Option<usize>>,
        inputs: Vec<Tensor>,
        output: Tensor,
    ) -> usize {
        let output_node = self.watch();
        self.entries.push(TapeEntry {
            op: op.to_string(),
            input_nodes,
            inputs,
            output,
            output_node,
        });
        output_node
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Compute gradients of the (scalar) node `loss_node` with respect to
    /// `wrt_nodes`, looking backward rules up in `registry`.
    ///
    /// # Errors
    ///
    /// Fails when a recorded op on the differentiation path has no
    /// backward rule.
    pub fn gradient(
        &self,
        registry: &HashMap<String, OpDef>,
        loss_node: usize,
        loss_shape: &[usize],
        wrt_nodes: &[usize],
    ) -> Result<Vec<Option<Tensor>>> {
        let mut grads: HashMap<usize, Tensor> = HashMap::new();
        grads.insert(
            loss_node,
            Tensor::ones(autograph_tensor::DType::F32, loss_shape),
        );

        for entry in self.entries.iter().rev() {
            let Some(g) = grads.get(&entry.output_node).cloned() else {
                continue;
            };
            if entry.input_nodes.iter().all(|n| n.is_none()) {
                continue;
            }
            let def = registry
                .get(&entry.op)
                .ok_or_else(|| EagerError::new("op vanished from registry").in_op(&entry.op))?;
            let backward = def
                .backward
                .as_ref()
                .ok_or_else(|| EagerError::new("op has no gradient rule").in_op(&entry.op))?;
            let input_grads = backward(&g, &entry.inputs, &entry.output)
                .map_err(|e| EagerError::new(e.message).in_op(&entry.op))?;
            for (node, grad) in entry.input_nodes.iter().zip(input_grads) {
                if let (Some(node), Some(grad)) = (node, grad) {
                    match grads.remove(node) {
                        Some(acc) => {
                            grads.insert(*node, acc.add(&grad)?);
                        }
                        None => {
                            grads.insert(*node, grad);
                        }
                    }
                }
            }
        }

        Ok(wrt_nodes.iter().map(|n| grads.get(n).cloned()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::default_registry;

    #[test]
    fn records_and_differentiates_chain() {
        // y = (x * x) + x ; dy/dx = 2x + 1 = 7 at x=3
        let reg = default_registry();
        let mut tape = Tape::new();
        let x = Tensor::scalar_f32(3.0);
        let xn = tape.watch();

        let xx = x.mul(&x).unwrap();
        let xxn = tape.record(
            "mul",
            vec![Some(xn), Some(xn)],
            vec![x.clone(), x.clone()],
            xx.clone(),
        );
        let y = xx.add(&x).unwrap();
        let yn = tape.record("add", vec![Some(xxn), Some(xn)], vec![xx, x], y);

        let grads = tape.gradient(&reg, yn, &[], &[xn]).unwrap();
        assert_eq!(grads[0].as_ref().unwrap().scalar_value_f32().unwrap(), 7.0);
    }

    #[test]
    fn unwatched_inputs_skipped() {
        let reg = default_registry();
        let mut tape = Tape::new();
        let a = Tensor::scalar_f32(2.0);
        let b = Tensor::scalar_f32(4.0);
        let out = a.mul(&b).unwrap();
        let n = tape.record("mul", vec![None, None], vec![a, b], out);
        // nothing watched — gradient of n w.r.t. a fresh node is None
        let w = tape.watch();
        let grads = tape.gradient(&reg, n, &[], &[w]).unwrap();
        assert!(grads[0].is_none());
    }

    #[test]
    fn missing_backward_rule_errors() {
        let reg = default_registry();
        let mut tape = Tape::new();
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let an = tape.watch();
        let out = a.less(&Tensor::scalar_f32(1.5)).unwrap();
        let n = tape.record(
            "less",
            vec![Some(an), None],
            vec![a.clone(), Tensor::scalar_f32(1.5)],
            out,
        );
        let err = tape.gradient(&reg, n, &[2], &[an]).unwrap_err();
        assert!(err.to_string().contains("no gradient rule"));
    }

    #[test]
    fn fan_in_accumulates() {
        // z = x*y + x ; dz/dx = y + 1, dz/dy = x
        let reg = default_registry();
        let mut tape = Tape::new();
        let x = Tensor::scalar_f32(3.0);
        let y = Tensor::scalar_f32(5.0);
        let (xn, yn) = (tape.watch(), tape.watch());
        let xy = x.mul(&y).unwrap();
        let xyn = tape.record(
            "mul",
            vec![Some(xn), Some(yn)],
            vec![x.clone(), y.clone()],
            xy.clone(),
        );
        let z = xy.add(&x).unwrap();
        let zn = tape.record("add", vec![Some(xyn), Some(xn)], vec![xy, x], z);
        let grads = tape.gradient(&reg, zn, &[], &[xn, yn]).unwrap();
        assert_eq!(grads[0].as_ref().unwrap().scalar_value_f32().unwrap(), 6.0);
        assert_eq!(grads[1].as_ref().unwrap().scalar_value_f32().unwrap(), 3.0);
    }
}
