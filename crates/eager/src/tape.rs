//! Tape-based reverse-mode autodiff for the eager runtime.
//!
//! While the tape is active, every dispatched op with a tracked input
//! appends an entry recording its gradient rule, inputs, output and node
//! ids. `Tape::gradient` replays the entries in reverse, applying each
//! rule through the shared kernel emitter ([`autograph_tensor::grad`]).
//! A new tape must be recorded for every execution — the per-run
//! retracing cost the paper attributes to imperative systems.

use crate::{EagerError, Result};
use autograph_tensor::grad::{self, Kernels, Rule};
use autograph_tensor::Tensor;
use std::collections::HashMap;

/// One recorded operation.
#[derive(Debug)]
pub(crate) struct TapeEntry {
    /// The op's name.
    pub op: &'static str,
    /// Its gradient rule (None = none registered).
    pub rule: Option<Rule>,
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
        op: &'static str,
        rule: Option<Rule>,
        input_nodes: Vec<Option<usize>>,
        inputs: Vec<Tensor>,
        output: Tensor,
    ) -> usize {
        let output_node = self.watch();
        self.entries.push(TapeEntry {
            op,
            rule,
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
    /// `wrt_nodes`.
    ///
    /// # Errors
    ///
    /// Fails when the adjoint reaches a recorded op with no gradient
    /// rule, and on kernel errors.
    pub fn gradient(
        &self,
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
            let in_op = |e: EagerError| e.in_op(entry.op);
            let rule = entry
                .rule
                .as_ref()
                .ok_or_else(|| in_op(EagerError::new(grad::no_rule(entry.op))))?;
            let input_grads = grad::vjp(&mut Kernels, rule, &entry.inputs, &entry.output, &g)
                .map_err(|e| in_op(e.into()))?;
            for (i, grad) in input_grads {
                if let Some(&Some(node)) = entry.input_nodes.get(i) {
                    match grads.remove(&node) {
                        Some(acc) => {
                            grads.insert(node, acc.add(&grad)?);
                        }
                        None => {
                            grads.insert(node, grad);
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

    #[test]
    fn records_and_differentiates_chain() {
        // y = (x * x) + x ; dy/dx = 2x + 1 = 7 at x=3
        let mut tape = Tape::new();
        let x = Tensor::scalar_f32(3.0);
        let xn = tape.watch();

        let xx = x.mul(&x).unwrap();
        let xxn = tape.record(
            "mul",
            Some(Rule::Mul),
            vec![Some(xn), Some(xn)],
            vec![x.clone(), x.clone()],
            xx.clone(),
        );
        let y = xx.add(&x).unwrap();
        let yn = tape.record(
            "add",
            Some(Rule::Add),
            vec![Some(xxn), Some(xn)],
            vec![xx, x],
            y,
        );

        let grads = tape.gradient(yn, &[], &[xn]).unwrap();
        assert_eq!(grads[0].as_ref().unwrap().scalar_value_f32().unwrap(), 7.0);
    }

    #[test]
    fn unwatched_inputs_skipped() {
        let mut tape = Tape::new();
        let a = Tensor::scalar_f32(2.0);
        let b = Tensor::scalar_f32(4.0);
        let out = a.mul(&b).unwrap();
        let n = tape.record("mul", Some(Rule::Mul), vec![None, None], vec![a, b], out);
        // nothing watched — gradient of n w.r.t. a fresh node is None
        let w = tape.watch();
        let grads = tape.gradient(n, &[], &[w]).unwrap();
        assert!(grads[0].is_none());
    }

    #[test]
    fn missing_backward_rule_errors() {
        let mut tape = Tape::new();
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let an = tape.watch();
        // a non-differentiable output contributes nothing...
        let out = a.less(&Tensor::scalar_f32(1.5)).unwrap();
        let inputs = vec![a.clone(), Tensor::scalar_f32(1.5)];
        let n = tape.record("less", Some(Rule::Zero), vec![Some(an), None], inputs, out);
        assert!(tape.gradient(n, &[2], &[an]).unwrap()[0].is_none());
        // ...and an op with no rule is an error naming it
        let out = a.softmax().unwrap();
        let n = tape.record("softmax", None, vec![Some(an)], vec![a], out);
        let err = tape.gradient(n, &[2], &[an]).unwrap_err();
        assert_eq!(err.op.as_deref(), Some("softmax"));
        assert!(err
            .to_string()
            .contains("no gradient registered for op 'softmax'"));
    }

    #[test]
    fn fan_in_accumulates() {
        // z = x*y + x ; dz/dx = y + 1, dz/dy = x
        let mut tape = Tape::new();
        let x = Tensor::scalar_f32(3.0);
        let y = Tensor::scalar_f32(5.0);
        let (xn, yn) = (tape.watch(), tape.watch());
        let xy = x.mul(&y).unwrap();
        let xyn = tape.record(
            "mul",
            Some(Rule::Mul),
            vec![Some(xn), Some(yn)],
            vec![x.clone(), y.clone()],
            xy.clone(),
        );
        let z = xy.add(&x).unwrap();
        let zn = tape.record(
            "add",
            Some(Rule::Add),
            vec![Some(xyn), Some(xn)],
            vec![xy, x],
            z,
        );
        let grads = tape.gradient(zn, &[], &[xn, yn]).unwrap();
        assert_eq!(grads[0].as_ref().unwrap().scalar_value_f32().unwrap(), 6.0);
        assert_eq!(grads[1].as_ref().unwrap().scalar_value_f32().unwrap(), 3.0);
    }
}
