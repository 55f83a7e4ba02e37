//! Executing one pure op on already-computed input values: a tensor op
//! runs its [`autograph_tensor::op::Op`] kernel, and the constant, array,
//! tuple, print and assert ops run here. Stateful and structural ops
//! (placeholders, variables, control flow) are handled by the executors
//! in [`crate::exec`] and `vm.rs`.
//!
//! The caller hands its inputs over: a kernel may consume them. The
//! array kernels grow the array they were given, `Select` and the tuple
//! and identity kernels move values instead of copying them, and
//! `Select` writes its result over a branch nobody else holds. A caller
//! that must keep a value (the reference interpreter, any register read
//! again later) passes a clone, which is shared and therefore never
//! written.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::ir::{GValue, Op, OpKind};
use crate::{GraphError, Result};
use autograph_tensor::op::Operands;
use autograph_tensor::Tensor;

fn missing(i: usize) -> GraphError {
    GraphError::runtime(format!("missing input {i}"))
}

fn t(inputs: &[GValue], i: usize) -> Result<&Tensor> {
    inputs.get(i).ok_or_else(|| missing(i))?.as_tensor()
}

fn arr(inputs: &[GValue], i: usize) -> Result<&Vec<Tensor>> {
    inputs.get(i).ok_or_else(|| missing(i))?.as_array()
}

/// Input `i`, moved out of the slice.
fn take(inputs: &mut [GValue], i: usize) -> Result<GValue> {
    inputs
        .get_mut(i)
        .map(GValue::take)
        .ok_or_else(|| missing(i))
}

/// Input `i` as an owned tensor (same errors as [`t`]).
fn t_owned(inputs: &mut [GValue], i: usize) -> Result<Tensor> {
    match take(inputs, i)? {
        GValue::Tensor(x) => Ok(x),
        other => other.as_tensor().cloned(),
    }
}

/// Input `i` as an owned array (same errors as [`arr`]).
fn arr_owned(inputs: &mut [GValue], i: usize) -> Result<Vec<Tensor>> {
    match take(inputs, i)? {
        GValue::Array(a) => Ok(a),
        other => other.as_array().cloned(),
    }
}

/// A node's input values as the operands of a tensor op: read in place,
/// or moved out when the kernel consumes one.
struct Inputs<'a>(&'a mut [GValue]);

impl Operands for Inputs<'_> {
    type Error = GraphError;
    fn arity(&self) -> usize {
        self.0.len()
    }
    fn operand(&self, i: usize) -> Result<&Tensor> {
        t(self.0, i)
    }
    fn take(&mut self, i: usize) -> Result<Tensor> {
        t_owned(self.0, i)
    }
}

/// Execute a pure op over its input values, which it may consume (see
/// the module docs).
///
/// # Errors
///
/// Propagates kernel failures (shape/dtype mismatches etc.) as runtime
/// [`GraphError`]s; returns a staging-phase error for ops the evaluator
/// should have intercepted (control flow, state).
pub fn execute(op: &OpKind, inputs: &mut [GValue]) -> Result<GValue> {
    let out: GValue = match op {
        // identity passes any value through, arrays and tuples too
        OpKind::Tensor(Op::Identity | Op::StopGradient) => inputs
            .first_mut()
            .map(GValue::take)
            .ok_or_else(|| GraphError::runtime("identity with no input"))?,
        OpKind::Tensor(op) => op.apply(&mut Inputs(inputs))?.into(),
        OpKind::Const(c) => c.clone().into(),
        OpKind::TopK(k) => {
            let (v, i) = t(inputs, 0)?.top_k(*k)?;
            GValue::Tuple(vec![GValue::Tensor(v), GValue::Tensor(i)])
        }
        OpKind::ArrayNew => GValue::Array(Vec::new()),
        OpKind::ArrayPush => {
            let mut a = arr_owned(inputs, 0)?;
            a.push(t_owned(inputs, 1)?);
            GValue::Array(a)
        }
        OpKind::ArrayPop => {
            let mut a = arr_owned(inputs, 0)?;
            let v = a
                .pop()
                .ok_or_else(|| GraphError::runtime("pop from empty tensor array"))?;
            GValue::Tuple(vec![GValue::Array(a), GValue::Tensor(v)])
        }
        OpKind::ArrayWrite => {
            let mut a = arr_owned(inputs, 0)?;
            let i = t(inputs, 1)?.scalar_value_i64()?;
            if i < 0 {
                return Err(GraphError::runtime(format!(
                    "array write at negative index {i}"
                )));
            }
            let i = i as usize;
            let v = t_owned(inputs, 2)?;
            if i >= a.len() {
                a.resize(i + 1, Tensor::scalar_f32(0.0));
            }
            a[i] = v;
            GValue::Array(a)
        }
        OpKind::ArrayRead => {
            let a = arr(inputs, 0)?;
            let i = t(inputs, 1)?.scalar_value_i64()?;
            let idx = if i < 0 { i + a.len() as i64 } else { i };
            a.get(idx.max(0) as usize)
                .filter(|_| idx >= 0)
                .cloned()
                .map(GValue::Tensor)
                .ok_or_else(|| {
                    GraphError::runtime(format!(
                        "array read index {i} out of range for length {}",
                        a.len()
                    ))
                })?
        }
        OpKind::ArrayStack => {
            let a = arr(inputs, 0)?;
            if a.is_empty() {
                return Err(GraphError::runtime("cannot stack an empty tensor array"));
            }
            Tensor::stack(a)?.into()
        }
        OpKind::ArraySize => Tensor::scalar_i64(arr(inputs, 0)?.len() as i64).into(),
        OpKind::TupleOp => GValue::Tuple(inputs.iter_mut().map(GValue::take).collect()),
        OpKind::TupleGet(i) => match inputs.first_mut() {
            Some(GValue::Tuple(items)) => items
                .get_mut(*i)
                .map(GValue::take)
                .ok_or_else(|| GraphError::runtime(format!("tuple index {i} out of range")))?,
            _ => return Err(GraphError::runtime("tuple_get on non-tuple")),
        },
        OpKind::Print(prefix) => {
            let v = t(inputs, 0)?;
            println!("{prefix}{v}");
            v.clone().into()
        }
        OpKind::AssertOp(msg) => {
            let v = t(inputs, 0)?;
            if !v.scalar_value_bool().map_err(|e| {
                GraphError::runtime(format!("assert condition must be a scalar bool: {e}"))
            })? {
                return Err(GraphError::runtime(format!("assertion failed: {msg}")));
            }
            v.clone().into()
        }
        OpKind::Placeholder { .. }
        | OpKind::Variable { .. }
        | OpKind::Param(_)
        | OpKind::Assign { .. }
        | OpKind::Group
        | OpKind::Cond { .. }
        | OpKind::While { .. } => {
            return Err(GraphError::staging(format!(
                "op '{}' must be handled by the evaluator, not the kernel table",
                op.mnemonic()
            )));
        }
    };
    Ok(out)
}

/// Cast a boolean scalar out of a value (used by `Cond`/`While`).
pub(crate) fn as_bool_scalar(v: &GValue) -> Result<bool> {
    let t = v.as_tensor()?;
    t.scalar_value_bool()
        .map_err(|e| GraphError::runtime(format!("predicate must be a scalar bool: {e}")))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use autograph_tensor::DType;

    /// The kernel on copies of `inputs`, as the reference interpreter
    /// calls it: the originals must come out unchanged.
    fn run(op: impl Into<OpKind>, inputs: &[GValue]) -> Result<GValue> {
        execute(&op.into(), &mut inputs.to_vec())
    }

    fn tv(v: Vec<f32>) -> GValue {
        let n = v.len();
        GValue::Tensor(Tensor::from_vec(v, &[n]).unwrap())
    }

    #[test]
    fn arithmetic_kernels() {
        let r = run(Op::Add, &[tv(vec![1.0, 2.0]), tv(vec![3.0, 4.0])]).unwrap();
        assert_eq!(r.as_tensor().unwrap().as_f32().unwrap(), &[4.0, 6.0]);
        let r = run(Op::Square, &[tv(vec![3.0])]).unwrap();
        assert_eq!(r.as_tensor().unwrap().as_f32().unwrap(), &[9.0]);
    }

    #[test]
    fn shape_and_size() {
        let m = GValue::Tensor(Tensor::zeros(DType::F32, &[2, 3]));
        let s = run(Op::Shape, std::slice::from_ref(&m)).unwrap();
        assert_eq!(s.as_tensor().unwrap().as_i64().unwrap(), &[2, 3]);
        let n = run(Op::Size, std::slice::from_ref(&m)).unwrap();
        assert_eq!(n.as_tensor().unwrap().scalar_value_f32().unwrap(), 6.0);
        let d = run(Op::DimSize(-1), &[m]).unwrap();
        assert_eq!(d.as_tensor().unwrap().scalar_value_f32().unwrap(), 3.0);
    }

    #[test]
    fn array_ops_value_semantics() {
        let a0 = run(OpKind::ArrayNew, &[]).unwrap();
        let a1 = run(OpKind::ArrayPush, &[a0.clone(), tv(vec![1.0, 2.0])]).unwrap();
        let a2 = run(OpKind::ArrayPush, &[a1.clone(), tv(vec![3.0, 4.0])]).unwrap();
        // a1 unchanged (value semantics)
        assert_eq!(a1.as_array().unwrap().len(), 1);
        assert_eq!(a2.as_array().unwrap().len(), 2);
        let stacked = run(OpKind::ArrayStack, std::slice::from_ref(&a2)).unwrap();
        assert_eq!(stacked.as_tensor().unwrap().shape(), &[2, 2]);
        let size = run(OpKind::ArraySize, std::slice::from_ref(&a2)).unwrap();
        assert_eq!(size.as_tensor().unwrap().scalar_value_i64().unwrap(), 2);
        let popped = run(OpKind::ArrayPop, &[a2]).unwrap();
        match popped {
            GValue::Tuple(items) => {
                assert_eq!(items[0].as_array().unwrap().len(), 1);
                assert_eq!(items[1].as_tensor().unwrap().as_f32().unwrap(), &[3.0, 4.0]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn owned_inputs_are_consumed_in_place() {
        // an array handed over grows where it is, with no copy
        let mut inputs = [GValue::Array(Vec::with_capacity(4)), tv(vec![1.0])];
        let buf = inputs[0].as_array().unwrap().as_ptr();
        let pushed = execute(&OpKind::ArrayPush, &mut inputs).unwrap();
        assert_eq!(pushed.as_array().unwrap().as_ptr(), buf);

        // select writes over the branch nobody else holds...
        let f32_ptr = |v: &GValue| v.as_tensor().unwrap().as_f32().unwrap().as_ptr();
        let cond = GValue::Tensor(Tensor::from_vec_bool(vec![true, false], &[2]).unwrap());
        let a = tv(vec![1.0, 2.0]);
        let a_buf = f32_ptr(&a);
        let out = execute(
            &OpKind::Tensor(Op::Select),
            &mut [cond.clone(), a, tv(vec![8.0, 9.0])],
        )
        .unwrap();
        assert_eq!(out.as_tensor().unwrap().as_f32().unwrap(), &[1.0, 9.0]);
        assert_eq!(f32_ptr(&out), a_buf);
        // ...and leaves a shared one alone
        let shared = tv(vec![1.0, 2.0]);
        let b = tv(vec![8.0, 9.0]);
        let b_buf = f32_ptr(&b);
        let out = execute(&OpKind::Tensor(Op::Select), &mut [cond, shared.clone(), b]).unwrap();
        assert_eq!(out.as_tensor().unwrap().as_f32().unwrap(), &[1.0, 9.0]);
        assert_eq!(f32_ptr(&out), b_buf);
        assert_eq!(shared.as_tensor().unwrap().as_f32().unwrap(), &[1.0, 2.0]);
    }

    #[test]
    fn array_write_grows() {
        let a0 = run(OpKind::ArrayNew, &[]).unwrap();
        let i = GValue::Tensor(Tensor::scalar_i64(2));
        let a1 = run(OpKind::ArrayWrite, &[a0, i.clone(), tv(vec![7.0])]).unwrap();
        assert_eq!(a1.as_array().unwrap().len(), 3);
        let r = run(OpKind::ArrayRead, &[a1, i]).unwrap();
        assert_eq!(r.as_tensor().unwrap().as_f32().unwrap(), &[7.0]);
    }

    #[test]
    fn array_errors() {
        let a0 = run(OpKind::ArrayNew, &[]).unwrap();
        assert!(run(OpKind::ArrayPop, std::slice::from_ref(&a0)).is_err());
        assert!(run(OpKind::ArrayStack, std::slice::from_ref(&a0)).is_err());
        let i = GValue::Tensor(Tensor::scalar_i64(0));
        assert!(run(OpKind::ArrayRead, &[a0, i]).is_err());
    }

    #[test]
    fn tuple_ops() {
        let t = run(OpKind::TupleOp, &[tv(vec![1.0]), tv(vec![2.0])]).unwrap();
        let x = run(OpKind::TupleGet(1), std::slice::from_ref(&t)).unwrap();
        assert_eq!(x.as_tensor().unwrap().as_f32().unwrap(), &[2.0]);
        assert!(run(OpKind::TupleGet(5), &[t]).is_err());
        assert!(run(OpKind::TupleGet(0), &[tv(vec![1.0])]).is_err());
    }

    #[test]
    fn index_and_setitem() {
        let x = GValue::Tensor(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap());
        let i = GValue::Tensor(Tensor::scalar_i64(1));
        let r = run(Op::IndexAxis0, &[x.clone(), i.clone()]).unwrap();
        assert_eq!(r.as_tensor().unwrap().scalar_value_f32().unwrap(), 2.0);
        let v = GValue::Tensor(Tensor::scalar_f32(9.0));
        let w = run(Op::SetItemAxis0, &[x, i, v]).unwrap();
        assert_eq!(w.as_tensor().unwrap().as_f32().unwrap(), &[1.0, 9.0, 3.0]);
    }

    #[test]
    fn structural_ops_rejected_by_kernel_table() {
        assert!(run(OpKind::Param(0), &[]).is_err());
        assert!(run(OpKind::Group, &[]).is_err());
    }

    #[test]
    fn bool_scalar_helper() {
        assert!(as_bool_scalar(&GValue::Tensor(Tensor::scalar_bool(true))).unwrap());
        assert!(as_bool_scalar(&tv(vec![1.0])).is_err());
    }

    #[test]
    fn shape_manipulation_kernels() {
        let m = GValue::Tensor(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let t = run(Op::Transpose(vec![1, 0]), std::slice::from_ref(&m)).unwrap();
        assert_eq!(
            t.as_tensor().unwrap().as_f32().unwrap(),
            &[1.0, 3.0, 2.0, 4.0]
        );
        let r = run(Op::Reshape(vec![4]), std::slice::from_ref(&m)).unwrap();
        assert_eq!(r.as_tensor().unwrap().shape(), &[4]);
        let e = run(Op::ExpandDims(0), std::slice::from_ref(&m)).unwrap();
        assert_eq!(e.as_tensor().unwrap().shape(), &[1, 2, 2]);
        let s = run(Op::Squeeze(Some(0)), &[e]).unwrap();
        assert_eq!(s.as_tensor().unwrap().shape(), &[2, 2]);
        let c = run(Op::Cast(DType::I64), &[m]).unwrap();
        assert_eq!(c.as_tensor().unwrap().as_i64().unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    fn range_slice_tile_kernels() {
        let n = GValue::Tensor(Tensor::scalar_i64(4));
        let r = run(Op::Range, &[n]).unwrap();
        assert_eq!(r.as_tensor().unwrap().as_i64().unwrap(), &[0, 1, 2, 3]);
        let s = run(
            Op::SliceAxis0 {
                start: Some(1),
                stop: Some(3),
            },
            std::slice::from_ref(&r),
        )
        .unwrap();
        assert_eq!(s.as_tensor().unwrap().as_i64().unwrap(), &[1, 2]);
        let t = run(Op::TileAxis0(2), &[s]).unwrap();
        assert_eq!(t.as_tensor().unwrap().as_i64().unwrap(), &[1, 2, 1, 2]);
    }

    #[test]
    fn gather_onehot_concat_stack_kernels() {
        let m = GValue::Tensor(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let idx = GValue::Tensor(Tensor::from_vec_i64(vec![1, 0], &[2]).unwrap());
        let g = run(Op::Gather, &[m.clone(), idx.clone()]).unwrap();
        assert_eq!(
            g.as_tensor().unwrap().as_f32().unwrap(),
            &[3.0, 4.0, 1.0, 2.0]
        );
        let oh = run(Op::OneHot(3), &[idx]).unwrap();
        assert_eq!(oh.as_tensor().unwrap().shape(), &[2, 3]);
        let row = GValue::Tensor(Tensor::from_vec(vec![9.0, 9.0], &[1, 2]).unwrap());
        let cc = run(Op::Concat(0), &[m.clone(), row]).unwrap();
        assert_eq!(cc.as_tensor().unwrap().shape(), &[3, 2]);
        let st = run(Op::StackOp, &[tv(vec![1.0]), tv(vec![2.0])]).unwrap();
        assert_eq!(st.as_tensor().unwrap().shape(), &[2, 1]);
    }

    #[test]
    fn gradient_helper_kernels() {
        let g = GValue::Tensor(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let r = GValue::Tensor(Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap());
        // sum over the broadcast (leading) dim
        let s = run(Op::SumToShape, &[g.clone(), r.clone()]).unwrap();
        assert_eq!(s.as_tensor().unwrap().as_f32().unwrap(), &[4.0, 6.0]);
        // broadcast a row grad back up
        let b = run(Op::BroadcastLike, &[r.clone(), g.clone()]).unwrap();
        assert_eq!(b.as_tensor().unwrap().shape(), &[2, 2]);
        // reshape-like
        let flat = GValue::Tensor(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap());
        let rl = run(Op::ReshapeLike, &[flat, g.clone()]).unwrap();
        assert_eq!(rl.as_tensor().unwrap().shape(), &[2, 2]);
        // sum_to_shape identity fast path
        let same = run(Op::SumToShape, &[g.clone(), g]).unwrap();
        assert_eq!(same.as_tensor().unwrap().shape(), &[2, 2]);
        // xent grad rows sum to ~0 (softmax minus one-hot)
        let logits = GValue::Tensor(Tensor::from_vec(vec![1.0, 2.0, 0.5, 0.1], &[2, 2]).unwrap());
        let labels = GValue::Tensor(Tensor::from_vec_i64(vec![0, 1], &[2]).unwrap());
        let xg = run(Op::XentGrad, &[logits, labels]).unwrap();
        let v = xg.as_tensor().unwrap().as_f32().unwrap().to_vec();
        assert!(
            (v[0] + v[1]).abs() < 1e-5 && (v[2] + v[3]).abs() < 1e-5,
            "{v:?}"
        );
    }

    #[test]
    fn nn_kernels_via_table() {
        let x = tv(vec![0.0, 1.0]);
        for (op, check0) in [(Op::Tanh, 0.0f32), (Op::Sigmoid, 0.5), (Op::Relu, 0.0)] {
            let r = run(op, std::slice::from_ref(&x)).unwrap();
            assert!((r.as_tensor().unwrap().as_f32().unwrap()[0] - check0).abs() < 1e-6);
        }
        let sm = run(Op::Softmax, std::slice::from_ref(&x)).unwrap();
        let total: f32 = sm.as_tensor().unwrap().as_f32().unwrap().iter().sum();
        assert!((total - 1.0).abs() < 1e-5);
        let lsm = run(Op::LogSoftmax, std::slice::from_ref(&x)).unwrap();
        assert!(lsm.as_tensor().unwrap().as_f32().unwrap()[0] < 0.0);
        let labels = GValue::Tensor(Tensor::from_vec_i64(vec![1], &[1]).unwrap());
        let logits = GValue::Tensor(Tensor::from_vec(vec![0.0, 0.0], &[1, 2]).unwrap());
        let ce = run(Op::SoftmaxCrossEntropy, &[logits, labels]).unwrap();
        assert!((ce.as_tensor().unwrap().scalar_value_f32().unwrap() - 2.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn shape_size_dimsize_kernels() {
        let m = GValue::Tensor(Tensor::zeros(DType::F32, &[3, 5]));
        assert_eq!(
            run(Op::Shape, std::slice::from_ref(&m))
                .unwrap()
                .as_tensor()
                .unwrap()
                .as_i64()
                .unwrap(),
            &[3, 5]
        );
        assert_eq!(
            run(Op::Size, std::slice::from_ref(&m))
                .unwrap()
                .as_tensor()
                .unwrap()
                .scalar_value_f32()
                .unwrap(),
            15.0
        );
        assert!(run(Op::DimSize(7), &[m]).is_err());
    }

    #[test]
    fn assert_kernel() {
        let ok = GValue::Tensor(Tensor::scalar_bool(true));
        let r = run(OpKind::AssertOp("m".into()), &[ok]).unwrap();
        assert!(r.as_tensor().unwrap().scalar_value_bool().unwrap());
        let bad = GValue::Tensor(Tensor::scalar_bool(false));
        let err = run(OpKind::AssertOp("boom".into()), &[bad]).unwrap_err();
        assert!(err.to_string().contains("boom"));
        let non_scalar = tv(vec![1.0, 2.0]);
        assert!(run(OpKind::AssertOp("m".into()), &[non_scalar]).is_err());
    }

    #[test]
    fn fused_top_k_matches_parts() {
        let x = tv(vec![3.0, 1.0, 2.0]);
        let fused = run(OpKind::TopK(2), std::slice::from_ref(&x)).unwrap();
        let v = run(Op::TopKValues(2), std::slice::from_ref(&x)).unwrap();
        let i = run(Op::TopKIndices(2), &[x]).unwrap();
        match fused {
            GValue::Tuple(items) => {
                assert_eq!(items[0], v);
                assert_eq!(items[1], i);
            }
            _ => panic!("fused top_k must return a tuple"),
        }
    }

    #[test]
    fn top_k_ops() {
        let x = tv(vec![1.0, 5.0, 3.0]);
        let v = run(Op::TopKValues(2), std::slice::from_ref(&x)).unwrap();
        assert_eq!(v.as_tensor().unwrap().as_f32().unwrap(), &[5.0, 3.0]);
        let i = run(Op::TopKIndices(2), &[x]).unwrap();
        assert_eq!(i.as_tensor().unwrap().as_i64().unwrap(), &[1, 2]);
    }
}
