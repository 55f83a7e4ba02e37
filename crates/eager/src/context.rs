//! The eager execution context: one op at a time, plus optional tape
//! recording.

use crate::{EagerError, Result};
use autograph_faults as faults;
use autograph_obs as obs;
use autograph_tensor::error::panic_message;
use autograph_tensor::grad::Tape;
use autograph_tensor::op::{Op, Operands};
use autograph_tensor::{Tensor, TensorError};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A tensor value in the eager runtime, optionally tracked on the active
/// tape.
#[derive(Debug, Clone)]
pub struct EagerTensor {
    tensor: Tensor,
    node: Option<usize>,
}

impl EagerTensor {
    /// The underlying dense tensor.
    pub fn tensor(&self) -> &Tensor {
        &self.tensor
    }

    /// The tape node id, if this value is tracked.
    pub fn node(&self) -> Option<usize> {
        self.node
    }
}

impl From<Tensor> for EagerTensor {
    fn from(tensor: Tensor) -> Self {
        EagerTensor { tensor, node: None }
    }
}

/// The eager runtime: ops run as they are called, on an optional
/// recording tape.
///
/// Every call pays the per-op cost the paper's benchmarks measure against
/// staged graphs: operand handles gathered, the kernel dispatched through
/// [`Op::apply`], a fresh output allocated, and, under a tape, an entry
/// recorded.
pub struct Eager {
    tape: RefCell<Option<Tape>>,
}

impl Default for Eager {
    fn default() -> Self {
        Eager::new()
    }
}

impl Eager {
    /// Create a context with no tape.
    pub fn new() -> Eager {
        Eager {
            tape: RefCell::new(None),
        }
    }

    /// Run the attribute-free op called `name` (see [`Op::named`]).
    ///
    /// # Errors
    ///
    /// Fails for unknown names and whatever [`Eager::apply`] fails on.
    pub fn op(&self, name: &str, inputs: &[&EagerTensor]) -> Result<EagerTensor> {
        let op = Op::named(name).ok_or_else(|| EagerError::new("unknown op").in_op(name))?;
        self.apply(&op, inputs)
    }

    /// Run `op` on `inputs`, recording it when a tape is active and an
    /// input is tracked.
    ///
    /// # Errors
    ///
    /// Fails on kernel errors (a kernel panic included), named after the
    /// op.
    pub fn apply(&self, op: &Op, inputs: &[&EagerTensor]) -> Result<EagerTensor> {
        let name = op.name();
        // one relaxed atomic load when profiling is off
        let _span = if obs::enabled() {
            obs::count("eager", "dispatches", 1);
            obs::span("eager_op", name)
        } else {
            None
        };
        // per-op memory attribution: when both profiling and the tensor
        // memory ledger are active, report this thread's allocation delta
        // across the dispatch under the op's name
        let alloc0 = if obs::enabled() && autograph_tensor::mem::tracking() {
            Some(autograph_tensor::mem::thread_allocated())
        } else {
            None
        };
        let _mem_guard = alloc0.map(|before| {
            scopeguard(move || {
                let delta = autograph_tensor::mem::thread_allocated().wrapping_sub(before);
                obs::observe("eager_mem", name, delta);
            })
        });
        // Panic isolation: a kernel that panics on malformed shapes becomes
        // a structured per-op error rather than tearing through the caller.
        // The chaos-test inject (one relaxed atomic load when no plan is
        // installed) sits inside the boundary so injected panics exercise
        // it too.
        let out = catch_unwind(AssertUnwindSafe(|| -> Result<Tensor> {
            faults::inject("eager", name).map_err(|e| EagerError::new(e.to_string()))?;
            Ok(op.apply(&mut Handles(inputs))?)
        }))
        .map_err(|p| {
            EagerError::new(format!("kernel panicked: {}", panic_message(p.as_ref()))).in_op(name)
        })?
        .map_err(|e| EagerError::new(e.message).in_op(name))?;

        let node = self
            .tape
            .borrow_mut()
            .as_mut()
            .and_then(|tape| tape.record(op, inputs.iter().map(|t| (&t.tensor, t.node)), &out));
        Ok(EagerTensor { tensor: out, node })
    }

    /// Begin recording a fresh tape (dropping any previous one).
    pub fn start_tape(&self) {
        *self.tape.borrow_mut() = Some(Tape::default());
    }

    /// Mark a tensor as a differentiation root (a trainable parameter).
    ///
    /// # Errors
    ///
    /// Fails if no tape is active.
    pub fn watch(&self, t: &EagerTensor) -> Result<EagerTensor> {
        let mut tape_ref = self.tape.borrow_mut();
        let tape = tape_ref
            .as_mut()
            .ok_or_else(|| EagerError::new("watch() requires an active tape"))?;
        Ok(EagerTensor {
            tensor: t.tensor.clone(),
            node: Some(tape.watch()),
        })
    }

    /// Compute gradients of `loss` with respect to `wrt`, consuming the
    /// active tape. Untracked parameters yield zero gradients of their own
    /// shape.
    ///
    /// # Errors
    ///
    /// Fails if no tape is active, the loss is untracked, or the adjoint
    /// reaches an op with no gradient rule.
    pub fn gradient(&self, loss: &EagerTensor, wrt: &[&EagerTensor]) -> Result<Vec<Tensor>> {
        let tape = self
            .tape
            .borrow_mut()
            .take()
            .ok_or_else(|| EagerError::new("gradient() requires an active tape"))?;
        let loss_node = loss
            .node
            .ok_or_else(|| EagerError::new("loss is not tracked on the tape"))?;
        let wrt: Vec<(usize, &[usize])> = wrt
            .iter()
            .map(|t| {
                let node = t
                    .node
                    .ok_or_else(|| EagerError::new("parameter is not watched on the tape"))?;
                Ok((node, t.tensor.shape()))
            })
            .collect::<Result<_>>()?;
        let _span = obs::span("eager", "tape_backward");
        // the replayed rules run user-shaped tensors through kernels;
        // isolate their panics like forward kernels
        catch_unwind(AssertUnwindSafe(|| {
            tape.gradients(loss_node, loss.tensor.shape(), &wrt)
        }))
        .map_err(|p| {
            EagerError::new(format!(
                "backward pass panicked: {}",
                panic_message(p.as_ref())
            ))
        })?
        .map_err(|(op, message)| EagerError::new(message).in_op(op))
    }

    // ---- common shorthands -------------------------------------------------

    /// `a + b`.
    pub fn add(&self, a: &EagerTensor, b: &EagerTensor) -> Result<EagerTensor> {
        self.op("add", &[a, b])
    }

    /// `a - b`.
    pub fn sub(&self, a: &EagerTensor, b: &EagerTensor) -> Result<EagerTensor> {
        self.op("sub", &[a, b])
    }

    /// `a * b`.
    pub fn mul(&self, a: &EagerTensor, b: &EagerTensor) -> Result<EagerTensor> {
        self.op("mul", &[a, b])
    }

    /// `a @ b`.
    pub fn matmul(&self, a: &EagerTensor, b: &EagerTensor) -> Result<EagerTensor> {
        self.op("matmul", &[a, b])
    }

    /// `tanh(a)`.
    pub fn tanh(&self, a: &EagerTensor) -> Result<EagerTensor> {
        self.op("tanh", &[a])
    }

    /// `sigmoid(a)`.
    pub fn sigmoid(&self, a: &EagerTensor) -> Result<EagerTensor> {
        self.op("sigmoid", &[a])
    }
}

/// Eager operands as a tensor op reads them: no operand vector is built.
struct Handles<'a>(&'a [&'a EagerTensor]);

impl Operands for Handles<'_> {
    type Error = TensorError;
    fn arity(&self) -> usize {
        self.0.len()
    }
    fn operand(&self, i: usize) -> std::result::Result<&Tensor, TensorError> {
        self.0
            .get(i)
            .map(|t| &t.tensor)
            .ok_or_else(|| TensorError::InvalidArgument {
                op: "apply",
                detail: format!("missing operand {i}"),
            })
    }
}

/// Runs `f` on drop — used so per-op memory attribution fires on every
/// exit path of a dispatch, error returns included.
struct DropGuard<F: FnOnce()>(Option<F>);

impl<F: FnOnce()> Drop for DropGuard<F> {
    fn drop(&mut self) {
        if let Some(f) = self.0.take() {
            f()
        }
    }
}

fn scopeguard<F: FnOnce()>(f: F) -> DropGuard<F> {
    DropGuard(Some(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(v: f32) -> EagerTensor {
        EagerTensor::from(Tensor::scalar_f32(v))
    }

    #[test]
    fn dispatch_and_unknown_op() {
        let e = Eager::new();
        let out = e.op("add", &[&scalar(1.0), &scalar(2.0)]).unwrap();
        assert_eq!(out.tensor().scalar_value_f32().unwrap(), 3.0);
        assert!(e.op("frobnicate", &[]).is_err());
    }

    #[test]
    fn missing_operand_is_an_error_named_after_the_op() {
        let e = Eager::new();
        let err = e.op("add", &[&scalar(1.0)]).unwrap_err();
        assert_eq!(err.op.as_deref(), Some("add"));
        assert!(err.message.contains("missing operand 1"), "{}", err.message);
    }

    #[test]
    fn gradient_of_simple_function() {
        // loss = sum((w*x - y)^2), dw = 2x(wx - y)
        let e = Eager::new();
        e.start_tape();
        let w = e.watch(&scalar(2.0)).unwrap();
        let x = scalar(3.0);
        let y = scalar(10.0);
        let pred = e.mul(&w, &x).unwrap();
        let err = e.sub(&pred, &y).unwrap();
        let loss = e.op("square", &[&err]).unwrap();
        let grads = e.gradient(&loss, &[&w]).unwrap();
        // 2 * 3 * (6 - 10) = -24
        assert_eq!(grads[0].scalar_value_f32().unwrap(), -24.0);
        assert!(
            e.gradient(&loss, &[&w]).is_err(),
            "gradient consumes the tape"
        );
    }

    #[test]
    fn attributed_ops_differentiate() {
        // the op carries its axis: reduce_mean over axis -2 (== 0), then
        // concat along axis 1 splits its adjoint back into the parts
        let e = Eager::new();
        e.start_tape();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let x = e.watch(&EagerTensor::from(x)).unwrap();
        let m = e.apply(&Op::ReduceMean(Some(-2)), &[&x]).unwrap();
        assert_eq!(m.tensor().as_f32().unwrap(), &[2.5, 3.5, 4.5]);
        let m = e.apply(&Op::ExpandDims(0), &[&m]).unwrap();
        let b = e.watch(&scalar(7.0)).unwrap();
        let b = e.apply(&Op::Reshape(vec![1, 1]), &[&b]).unwrap();
        let cat = e.apply(&Op::Concat(1), &[&m, &b]).unwrap();
        let w = Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0], &[1, 4]).unwrap();
        let loss = e.mul(&cat, &EagerTensor::from(w)).unwrap();
        let loss = e.op("reduce_sum", &[&loss]).unwrap();
        let grads = e.gradient(&loss, &[&x]).unwrap();
        assert_eq!(
            grads[0].as_f32().unwrap(),
            &[5.0, 10.0, 15.0, 5.0, 10.0, 15.0]
        );
        // an axis out of range is a structured error, not a panic
        assert!(e.apply(&Op::ReduceSum(Some(7)), &[&x]).is_err());
    }

    #[test]
    fn tape_lifecycle_errors() {
        let e = Eager::new();
        assert!(e.watch(&scalar(1.0)).is_err());
    }

    #[test]
    fn untracked_path_gives_zero_grad() {
        let e = Eager::new();
        e.start_tape();
        let w = e.watch(&scalar(1.0)).unwrap();
        let loss = {
            // loss does not depend on w2
            e.mul(&w, &w).unwrap()
        };
        let w2 = e
            .watch(&EagerTensor::from(Tensor::zeros(
                autograph_tensor::DType::F32,
                &[3],
            )))
            .unwrap();
        let grads = e.gradient(&loss, &[&w2]).unwrap();
        assert_eq!(grads[0].shape(), &[3]);
        assert_eq!(grads[0].as_f32().unwrap(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn no_tape_means_no_tracking() {
        let e = Eager::new();
        let a = scalar(1.0);
        let out = e.add(&a, &a).unwrap();
        assert!(out.node().is_none());
    }

    #[test]
    fn linear_regression_converges() {
        // end-to-end eager training sanity: fit y = 3x
        let e = Eager::new();
        let xs = EagerTensor::from(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4, 1]).unwrap());
        let ys = EagerTensor::from(Tensor::from_vec(vec![3.0, 6.0, 9.0, 12.0], &[4, 1]).unwrap());
        let mut w = Tensor::from_vec(vec![0.0], &[1, 1]).unwrap();
        for _ in 0..200 {
            e.start_tape();
            let wt = e.watch(&EagerTensor::from(w.clone())).unwrap();
            let pred = e.matmul(&xs, &wt).unwrap();
            let err = e.sub(&pred, &ys).unwrap();
            let sq = e.op("square", &[&err]).unwrap();
            let loss = e.op("reduce_mean", &[&sq]).unwrap();
            let grads = e.gradient(&loss, &[&wt]).unwrap();
            let step = grads[0].mul(&Tensor::scalar_f32(0.02)).unwrap();
            w = w.sub(&step).unwrap();
        }
        assert!((w.as_f32().unwrap()[0] - 3.0).abs() < 0.05, "w = {w:?}");
    }
}
