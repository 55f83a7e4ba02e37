//! The eager op registry: name → boxed forward kernel + optional backward
//! rule. The string-keyed lookup and boxed indirection are deliberate —
//! they model the per-op dispatch cost of real eager runtimes.

use crate::{EagerError, Result};
use autograph_tensor::{DType, Tensor};
use std::collections::HashMap;

/// Forward kernel: tensors in, tensor out.
pub(crate) type ForwardFn = Box<dyn Fn(&[Tensor]) -> Result<Tensor> + Send + Sync>;

/// Backward rule: `(grad_out, inputs, output)` → per-input gradient
/// (None for non-differentiable inputs).
pub(crate) type BackwardFn =
    Box<dyn Fn(&Tensor, &[Tensor], &Tensor) -> Result<Vec<Option<Tensor>>> + Send + Sync>;

/// One registered operation.
pub(crate) struct OpDef {
    /// Forward computation.
    pub forward: ForwardFn,
    /// Gradient rule, when the op is differentiable.
    pub backward: Option<BackwardFn>,
}

/// Build the full default registry.
pub(crate) fn default_registry() -> HashMap<String, OpDef> {
    let mut r: HashMap<String, OpDef> = HashMap::new();

    fn op(
        r: &mut HashMap<String, OpDef>,
        name: &str,
        fwd: impl Fn(&[Tensor]) -> Result<Tensor> + Send + Sync + 'static,
        bwd: Option<BackwardFn>,
    ) {
        r.insert(
            name.to_string(),
            OpDef {
                forward: Box::new(fwd),
                backward: bwd,
            },
        );
    }

    fn bwd(
        f: impl Fn(&Tensor, &[Tensor], &Tensor) -> Result<Vec<Option<Tensor>>> + Send + Sync + 'static,
    ) -> Option<BackwardFn> {
        Some(Box::new(f))
    }

    /// Sum `g` down to `target`'s shape (adjoint of broadcasting).
    fn sum_to(g: &Tensor, target: &Tensor) -> Result<Tensor> {
        let mut out = g.clone();
        while out.rank() > target.rank() {
            out = out.reduce_sum(Some(0))?;
        }
        for ax in 0..target.rank() {
            if target.shape()[ax] == 1 && out.shape()[ax] != 1 {
                let summed = out.reduce_sum(Some(ax as isize))?;
                let mut shape = summed.shape().to_vec();
                shape.insert(ax, 1);
                out = summed.reshape(&shape)?;
            }
        }
        Ok(out)
    }

    /// A reduction's optional axis: the second input, when present.
    fn axis_attr(x: &[Tensor]) -> Result<Option<isize>> {
        x.get(1)
            .map(|a| Ok(a.scalar_value_i64()? as isize))
            .transpose()
    }

    /// An i64 attribute input read as a non-negative size or index.
    fn usize_attr(t: &Tensor) -> Result<usize> {
        usize::try_from(t.scalar_value_i64()?)
            .map_err(|_| EagerError::new("attribute must be non-negative"))
    }

    /// An i64 vector attribute (a shape or a permutation); `-1` is an
    /// inferred dimension.
    fn dims_attr(t: &Tensor) -> Result<Vec<usize>> {
        Ok(t.as_i64()?
            .iter()
            .map(|&d| usize::try_from(d).unwrap_or(usize::MAX))
            .collect())
    }

    /// Adjoint of a reduction: put a reduced axis back as size 1, then
    /// broadcast `g` up to the input's shape. Returns the broadcast
    /// gradient and the number of elements each output summed.
    fn expand_reduced(g: &Tensor, x: &[Tensor]) -> Result<(Tensor, usize)> {
        let input = &x[0];
        let (g, n) = match x.get(1) {
            None => (g.clone(), input.num_elements()),
            Some(axis) => {
                let rank = input.rank() as i64;
                let mut ax = axis.scalar_value_i64()?;
                if ax < 0 {
                    ax += rank;
                }
                if ax < 0 || ax >= rank {
                    return Err(EagerError::new(format!(
                        "reduction axis {ax} out of range for rank {rank}"
                    )));
                }
                let ax = ax as usize;
                let mut shape = g.shape().to_vec();
                shape.insert(ax, 1);
                (g.reshape(&shape)?, input.shape()[ax])
            }
        };
        Ok((g.add(&Tensor::zeros(DType::F32, input.shape()))?, n))
    }

    /// `g` shaped like the input: the adjoint of every op that only
    /// relabels its input's elements (reshape, expand_dims, squeeze, cast).
    fn reshape_like(g: &Tensor, x: &[Tensor]) -> Result<Vec<Option<Tensor>>> {
        let mut grads = vec![Some(g.reshape(x[0].shape())?)];
        grads.resize(x.len(), None);
        Ok(grads)
    }

    /// Rows `start..stop` of `g` along `axis` (moved to the front and back).
    fn slice_along(g: &Tensor, axis: usize, start: usize, stop: usize) -> Result<Tensor> {
        let (start, stop) = (Some(start as i64), Some(stop as i64));
        if axis == 0 {
            return Ok(g.slice_axis0(start, stop)?);
        }
        let mut perm: Vec<usize> = (0..g.rank()).collect();
        perm.swap(0, axis);
        Ok(g.transpose(&perm)?
            .slice_axis0(start, stop)?
            .transpose(&perm)?)
    }

    op(
        &mut r,
        "add",
        |x| Ok(x[0].add(&x[1])?),
        bwd(|g, x, _| Ok(vec![Some(sum_to(g, &x[0])?), Some(sum_to(g, &x[1])?)])),
    );
    op(
        &mut r,
        "sub",
        |x| Ok(x[0].sub(&x[1])?),
        bwd(|g, x, _| {
            Ok(vec![
                Some(sum_to(g, &x[0])?),
                Some(sum_to(&g.neg()?, &x[1])?),
            ])
        }),
    );
    op(
        &mut r,
        "mul",
        |x| Ok(x[0].mul(&x[1])?),
        bwd(|g, x, _| {
            Ok(vec![
                Some(sum_to(&g.mul(&x[1])?, &x[0])?),
                Some(sum_to(&g.mul(&x[0])?, &x[1])?),
            ])
        }),
    );
    op(
        &mut r,
        "div",
        |x| Ok(x[0].div(&x[1])?),
        bwd(|g, x, _| {
            let ga = g.div(&x[1])?;
            let gb = g.mul(&x[0])?.div(&x[1].square()?)?.neg()?;
            Ok(vec![Some(sum_to(&ga, &x[0])?), Some(sum_to(&gb, &x[1])?)])
        }),
    );
    op(
        &mut r,
        "pow",
        |x| Ok(x[0].pow(&x[1])?),
        bwd(|g, x, y| {
            let one = Tensor::scalar_f32(1.0);
            let pm1 = x[1].sub(&one)?;
            let ga = g.mul(&x[1].mul(&x[0].pow(&pm1)?)?)?;
            let gb = g.mul(&y.mul(&x[0].log()?)?)?;
            Ok(vec![Some(sum_to(&ga, &x[0])?), Some(sum_to(&gb, &x[1])?)])
        }),
    );
    op(
        &mut r,
        "neg",
        |x| Ok(x[0].neg()?),
        bwd(|g, _, _| Ok(vec![Some(g.neg()?)])),
    );
    op(
        &mut r,
        "abs",
        |x| Ok(x[0].abs()?),
        bwd(|g, x, _| {
            let pos = x[0].greater_equal(&Tensor::scalar_f32(0.0))?;
            Ok(vec![Some(Tensor::select(&pos, g, &g.neg()?)?)])
        }),
    );
    op(
        &mut r,
        "square",
        |x| Ok(x[0].square()?),
        bwd(|g, x, _| Ok(vec![Some(g.mul(&x[0].mul(&Tensor::scalar_f32(2.0))?)?)])),
    );
    op(
        &mut r,
        "sqrt",
        |x| Ok(x[0].sqrt()?),
        bwd(|g, _, y| Ok(vec![Some(g.mul(&Tensor::scalar_f32(0.5))?.div(y)?)])),
    );
    op(
        &mut r,
        "exp",
        |x| Ok(x[0].exp()?),
        bwd(|g, _, y| Ok(vec![Some(g.mul(y)?)])),
    );
    op(
        &mut r,
        "log",
        |x| Ok(x[0].log()?),
        bwd(|g, x, _| Ok(vec![Some(g.div(&x[0])?)])),
    );
    op(
        &mut r,
        "tanh",
        |x| Ok(x[0].tanh()?),
        bwd(|g, _, y| {
            let one = Tensor::scalar_f32(1.0);
            Ok(vec![Some(g.mul(&one.sub(&y.square()?)?)?)])
        }),
    );
    op(
        &mut r,
        "sigmoid",
        |x| Ok(x[0].sigmoid()?),
        bwd(|g, _, y| {
            let one = Tensor::scalar_f32(1.0);
            Ok(vec![Some(g.mul(&y.mul(&one.sub(y)?)?)?)])
        }),
    );
    op(
        &mut r,
        "relu",
        |x| Ok(x[0].relu()?),
        bwd(|g, x, _| {
            let mask = x[0].greater(&Tensor::scalar_f32(0.0))?.cast(DType::F32);
            Ok(vec![Some(g.mul(&mask)?)])
        }),
    );
    op(
        &mut r,
        "matmul",
        |x| Ok(x[0].matmul(&x[1])?),
        bwd(|g, x, _| {
            let ga = g.matmul_t(&x[1], false, true)?;
            let gb = x[0].matmul_t(g, true, false)?;
            Ok(vec![Some(ga), Some(gb)])
        }),
    );
    op(
        &mut r,
        "maximum",
        |x| Ok(x[0].maximum(&x[1])?),
        bwd(|g, x, _| {
            let m = x[0].greater_equal(&x[1])?.cast(DType::F32);
            let one = Tensor::scalar_f32(1.0);
            let ga = g.mul(&m)?;
            let gb = g.mul(&one.sub(&m)?)?;
            Ok(vec![Some(sum_to(&ga, &x[0])?), Some(sum_to(&gb, &x[1])?)])
        }),
    );
    op(
        &mut r,
        "minimum",
        |x| Ok(x[0].minimum(&x[1])?),
        bwd(|g, x, _| {
            let m = x[0].less_equal(&x[1])?.cast(DType::F32);
            let one = Tensor::scalar_f32(1.0);
            let ga = g.mul(&m)?;
            let gb = g.mul(&one.sub(&m)?)?;
            Ok(vec![Some(sum_to(&ga, &x[0])?), Some(sum_to(&gb, &x[1])?)])
        }),
    );
    // Attributes follow the operands as non-differentiable i64 inputs, so
    // the tape replays an attributed op like any other. A reduction's axis
    // is optional: one input reduces everything.
    op(
        &mut r,
        "reduce_sum",
        |x| Ok(x[0].reduce_sum(axis_attr(x)?)?),
        bwd(|g, x, _| {
            let (gb, _) = expand_reduced(g, x)?;
            Ok(vec![Some(gb), None])
        }),
    );
    op(
        &mut r,
        "reduce_mean",
        |x| Ok(x[0].reduce_mean(axis_attr(x)?)?),
        bwd(|g, x, _| {
            let (gb, n) = expand_reduced(g, x)?;
            Ok(vec![Some(gb.div(&Tensor::scalar_f32(n as f32))?), None])
        }),
    );
    op(
        &mut r,
        "softmax_cross_entropy",
        |x| Ok(Tensor::softmax_cross_entropy(&x[0], &x[1])?),
        bwd(|g, x, _| {
            let sm = x[0].softmax()?;
            let classes = *x[0]
                .shape()
                .last()
                .ok_or_else(|| EagerError::new("softmax_cross_entropy backward: rank-0 logits"))?;
            let oh = x[1].one_hot(classes)?;
            let batch = x[0].shape()[0].max(1) as f32;
            let d = sm.sub(&oh)?.div(&Tensor::scalar_f32(batch))?;
            Ok(vec![Some(d.mul(g)?), None])
        }),
    );
    op(
        &mut r,
        "select",
        |x| Ok(Tensor::select(&x[0], &x[1], &x[2])?),
        bwd(|g, x, _| {
            let zero = Tensor::zeros(DType::F32, g.shape());
            let ga = Tensor::select(&x[0], g, &zero)?;
            let gb = Tensor::select(&x[0], &zero, g)?;
            Ok(vec![
                None,
                Some(sum_to(&ga, &x[1])?),
                Some(sum_to(&gb, &x[2])?),
            ])
        }),
    );
    // concat's axis is its last input
    op(
        &mut r,
        "concat",
        |x| {
            let (axis, parts) = x
                .split_last()
                .ok_or_else(|| EagerError::new("concat of nothing"))?;
            Ok(Tensor::concat(parts, axis.scalar_value_i64()? as isize)?)
        },
        bwd(|g, x, _| {
            let (axis, parts) = x
                .split_last()
                .ok_or_else(|| EagerError::new("concat of nothing"))?;
            let rank = g.rank() as i64;
            let ax = axis.scalar_value_i64()?;
            let ax = usize::try_from(if ax < 0 { ax + rank } else { ax })
                .map_err(|_| EagerError::new("concat axis out of range"))?;
            let mut grads = Vec::with_capacity(x.len());
            let mut offset = 0;
            for part in parts {
                let n = part.shape()[ax];
                grads.push(Some(slice_along(g, ax, offset, offset + n)?));
                offset += n;
            }
            grads.push(None);
            Ok(grads)
        }),
    );
    op(
        &mut r,
        "stack",
        |x| Ok(Tensor::stack(x)?),
        bwd(|g, x, _| {
            (0..x.len())
                .map(|i| Ok(Some(g.index_axis0(i as i64)?)))
                .collect()
        }),
    );
    op(
        &mut r,
        "reshape",
        |x| Ok(x[0].reshape(&dims_attr(&x[1])?)?),
        bwd(|g, x, _| reshape_like(g, x)),
    );
    op(
        &mut r,
        "expand_dims",
        |x| Ok(x[0].expand_dims(x[1].scalar_value_i64()? as isize)?),
        bwd(|g, x, _| reshape_like(g, x)),
    );
    op(
        &mut r,
        "squeeze",
        |x| Ok(x[0].squeeze(axis_attr(x)?)?),
        bwd(|g, x, _| reshape_like(g, x)),
    );
    op(
        &mut r,
        "cast",
        |x| {
            let code = x[1].scalar_value_i64()?;
            let dtype = [DType::F32, DType::I64, DType::Bool]
                .into_iter()
                .find(|&d| d as i64 == code)
                .ok_or_else(|| EagerError::new(format!("no dtype with code {code}")))?;
            Ok(x[0].cast(dtype))
        },
        bwd(|g, x, _| reshape_like(g, x)),
    );
    op(
        &mut r,
        "transpose",
        |x| Ok(x[0].transpose(&dims_attr(&x[1])?)?),
        bwd(|g, x, _| {
            let perm = dims_attr(&x[1])?;
            let mut inv = vec![0; perm.len()];
            for (i, &p) in perm.iter().enumerate() {
                *inv.get_mut(p)
                    .ok_or_else(|| EagerError::new("transpose: bad permutation"))? = i;
            }
            Ok(vec![Some(g.transpose(&inv)?), None])
        }),
    );
    op(&mut r, "softmax", |x| Ok(x[0].softmax()?), None);
    op(&mut r, "log_softmax", |x| Ok(x[0].log_softmax()?), None);

    // ---- non-differentiable / structural ops ------------------------------
    op(&mut r, "less", |x| Ok(x[0].less(&x[1])?), None);
    op(&mut r, "less_equal", |x| Ok(x[0].less_equal(&x[1])?), None);
    op(&mut r, "greater", |x| Ok(x[0].greater(&x[1])?), None);
    op(
        &mut r,
        "greater_equal",
        |x| Ok(x[0].greater_equal(&x[1])?),
        None,
    );
    op(&mut r, "equal", |x| Ok(x[0].equal(&x[1])?), None);
    op(&mut r, "not_equal", |x| Ok(x[0].not_equal(&x[1])?), None);
    op(
        &mut r,
        "logical_and",
        |x| Ok(x[0].logical_and(&x[1])?),
        None,
    );
    op(&mut r, "logical_or", |x| Ok(x[0].logical_or(&x[1])?), None);
    op(&mut r, "logical_not", |x| Ok(x[0].logical_not()?), None);
    op(&mut r, "floordiv", |x| Ok(x[0].floordiv(&x[1])?), None);
    op(&mut r, "mod", |x| Ok(x[0].rem(&x[1])?), None);
    op(
        &mut r,
        "reduce_max",
        |x| Ok(x[0].reduce_max(axis_attr(x)?)?),
        None,
    );
    op(
        &mut r,
        "reduce_min",
        |x| Ok(x[0].reduce_min(axis_attr(x)?)?),
        None,
    );
    op(
        &mut r,
        "reduce_all",
        |x| Ok(x[0].reduce_all(axis_attr(x)?)?),
        None,
    );
    op(
        &mut r,
        "reduce_any",
        |x| Ok(x[0].reduce_any(axis_attr(x)?)?),
        None,
    );
    op(&mut r, "gather", |x| Ok(x[0].gather(&x[1])?), None);
    op(
        &mut r,
        "range",
        |x| Ok(Tensor::range_i64(x[0].scalar_value_i64()?)),
        None,
    );
    op(
        &mut r,
        "shape",
        |x| {
            let s: Vec<i64> = x[0].shape().iter().map(|&d| d as i64).collect();
            let n = s.len();
            Ok(Tensor::from_vec_i64(s, &[n])?)
        },
        None,
    );
    op(
        &mut r,
        "argmax",
        |x| Ok(x[0].argmax(x[1].scalar_value_i64()? as isize)?),
        None,
    );
    op(
        &mut r,
        "one_hot",
        |x| Ok(x[0].one_hot(usize_attr(&x[1])?)?),
        None,
    );
    op(
        &mut r,
        "top_k",
        |x| Ok(x[0].top_k(usize_attr(&x[1])?)?.0),
        None,
    );
    op(
        &mut r,
        "top_k_indices",
        |x| Ok(x[0].top_k(usize_attr(&x[1])?)?.1),
        None,
    );
    op(
        &mut r,
        "identity",
        |x| Ok(x[0].clone()),
        bwd(|g, _, _| Ok(vec![Some(g.clone())])),
    );

    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_core_ops() {
        let r = default_registry();
        for name in [
            "add",
            "matmul",
            "tanh",
            "softmax_cross_entropy",
            "gather",
            "concat",
        ] {
            assert!(r.contains_key(name), "missing {name}");
        }
        assert!(r["add"].backward.is_some());
        assert!(r["less"].backward.is_none());
    }

    #[test]
    fn forward_kernels_work() {
        let r = default_registry();
        let a = Tensor::scalar_f32(2.0);
        let b = Tensor::scalar_f32(5.0);
        let out = (r["mul"].forward)(&[a, b]).unwrap();
        assert_eq!(out.scalar_value_f32().unwrap(), 10.0);
    }

    #[test]
    fn backward_rule_shapes() {
        let r = default_registry();
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::scalar_f32(3.0);
        let out = (r["add"].forward)(&[a.clone(), b.clone()]).unwrap();
        let g = Tensor::ones(DType::F32, &[2]);
        let grads = (r["add"].backward.as_ref().unwrap())(&g, &[a, b], &out).unwrap();
        assert_eq!(grads[0].as_ref().unwrap().shape(), &[2]);
        // broadcast grad reduced back to scalar
        assert_eq!(grads[1].as_ref().unwrap().shape(), &[] as &[usize]);
        assert_eq!(grads[1].as_ref().unwrap().scalar_value_f32().unwrap(), 2.0);
    }

    #[test]
    fn axis_reduction_backward_expands_and_scales() {
        let r = default_registry();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let ax = Tensor::scalar_i64(-2); // negative axis == axis 0
        let out = (r["reduce_mean"].forward)(&[x.clone(), ax.clone()]).unwrap();
        assert_eq!(out.shape(), &[3]);
        assert_eq!(out.as_f32().unwrap(), &[2.5, 3.5, 4.5]);
        let g = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]).unwrap();
        let grads =
            (r["reduce_mean"].backward.as_ref().unwrap())(&g, &[x.clone(), ax], &out).unwrap();
        // each input element contributes 1/2 of its column's grad
        let gx = grads[0].as_ref().unwrap();
        assert_eq!(gx.shape(), &[2, 3]);
        assert_eq!(gx.as_f32().unwrap(), &[5.0, 10.0, 15.0, 5.0, 10.0, 15.0]);
        assert!(grads[1].is_none(), "the axis input is not differentiable");

        let ax1 = Tensor::scalar_i64(1);
        let out = (r["reduce_sum"].forward)(&[x.clone(), ax1.clone()]).unwrap();
        assert_eq!(out.as_f32().unwrap(), &[6.0, 15.0]);
        let g = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let grads = (r["reduce_sum"].backward.as_ref().unwrap())(&g, &[x, ax1], &out).unwrap();
        let gx = grads[0].as_ref().unwrap();
        assert_eq!(gx.as_f32().unwrap(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);

        // out-of-range axis is a structured error, not a panic
        let bad = Tensor::scalar_i64(7);
        let x2 = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        assert!((r["reduce_sum"].forward)(&[x2, bad]).is_err());
    }

    #[test]
    fn concat1_backward_splits() {
        let r = default_registry();
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0], &[1, 1]).unwrap();
        let ax = Tensor::scalar_i64(1);
        let out = (r["concat"].forward)(&[a.clone(), b.clone(), ax.clone()]).unwrap();
        assert_eq!(out.shape(), &[1, 3]);
        let g = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3]).unwrap();
        let grads = (r["concat"].backward.as_ref().unwrap())(&g, &[a, b, ax], &out).unwrap();
        assert_eq!(grads[0].as_ref().unwrap().as_f32().unwrap(), &[10.0, 20.0]);
        assert_eq!(grads[1].as_ref().unwrap().as_f32().unwrap(), &[30.0]);
        assert!(grads[2].is_none(), "the axis input is not differentiable");
    }
}
