//! The eager op registry: name → boxed forward kernel + gradient rule.
//! The string-keyed lookup and boxed indirection are deliberate — they
//! model the per-op dispatch cost of real eager runtimes. The rules are
//! [`autograph_tensor::grad`]'s, the ones graph construction uses: the
//! tape replays them.

use crate::{EagerError, Result};
use autograph_tensor::grad::Rule;
use autograph_tensor::{DType, Tensor};
use std::collections::HashMap;

/// Forward kernel: tensors in, tensor out.
pub(crate) type ForwardFn = Box<dyn Fn(&[Tensor]) -> Result<Tensor> + Send + Sync>;

/// How an op finds its gradient rule.
#[derive(Clone)]
pub(crate) enum Grad {
    /// The same rule on every call.
    Fixed(Rule),
    /// A rule read off the op's attribute inputs.
    Attr(fn(&[Tensor]) -> Result<Rule>),
    /// None: an adjoint that reaches the op is an error.
    Missing,
}
use Grad::{Attr, Fixed, Missing};

/// One registered operation.
pub(crate) struct OpDef {
    /// Forward computation.
    pub forward: ForwardFn,
    /// Where the gradient rule comes from.
    pub grad: Grad,
}

impl OpDef {
    /// The rule the tape replays for a call on `inputs`; `None` when the
    /// op has none.
    pub(crate) fn rule(&self, inputs: &[Tensor]) -> Result<Option<Rule>> {
        match &self.grad {
            Fixed(rule) => Ok(Some(rule.clone())),
            Attr(read) => read(inputs).map(Some),
            Missing => Ok(None),
        }
    }
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

/// concat's parts and its axis, the last input.
fn concat_attr(x: &[Tensor]) -> Result<(&[Tensor], isize)> {
    let (axis, parts) = x
        .split_last()
        .ok_or_else(|| EagerError::new("concat of nothing"))?;
    Ok((parts, axis.scalar_value_i64()? as isize))
}

fn concat(x: &[Tensor]) -> Result<Tensor> {
    let (parts, axis) = concat_attr(x)?;
    Ok(Tensor::concat(parts, axis)?)
}

fn cast(x: &[Tensor]) -> Result<Tensor> {
    let code = x[1].scalar_value_i64()?;
    let dtype = [DType::F32, DType::I64, DType::Bool]
        .into_iter()
        .find(|&d| d as i64 == code)
        .ok_or_else(|| EagerError::new(format!("no dtype with code {code}")))?;
    Ok(x[0].cast(dtype))
}

fn shape(x: &[Tensor]) -> Result<Tensor> {
    let s: Vec<i64> = x[0].shape().iter().map(|&d| d as i64).collect();
    let n = s.len();
    Ok(Tensor::from_vec_i64(s, &[n])?)
}

type Kernel = fn(&[Tensor]) -> Result<Tensor>;

/// Every op: name, forward kernel, gradient rule. Attributes follow the
/// operands as non-differentiable i64 inputs, so the tape replays an
/// attributed op like any other. A reduction's axis is optional (one
/// input reduces everything); concat's axis is its last input.
#[rustfmt::skip]
static OPS: &[(&str, Kernel, Grad)] = &[
    ("add", |x| Ok(x[0].add(&x[1])?), Fixed(Rule::Add)),
    ("sub", |x| Ok(x[0].sub(&x[1])?), Fixed(Rule::Sub)),
    ("mul", |x| Ok(x[0].mul(&x[1])?), Fixed(Rule::Mul)),
    ("div", |x| Ok(x[0].div(&x[1])?), Fixed(Rule::Div)),
    ("pow", |x| Ok(x[0].pow(&x[1])?), Fixed(Rule::Pow)),
    ("maximum", |x| Ok(x[0].maximum(&x[1])?), Fixed(Rule::Maximum)),
    ("minimum", |x| Ok(x[0].minimum(&x[1])?), Fixed(Rule::Minimum)),
    ("neg", |x| Ok(x[0].neg()?), Fixed(Rule::Neg)),
    ("abs", |x| Ok(x[0].abs()?), Fixed(Rule::Abs)),
    ("square", |x| Ok(x[0].square()?), Fixed(Rule::Square)),
    ("sqrt", |x| Ok(x[0].sqrt()?), Fixed(Rule::Sqrt)),
    ("exp", |x| Ok(x[0].exp()?), Fixed(Rule::Exp)),
    ("log", |x| Ok(x[0].log()?), Fixed(Rule::Log)),
    ("tanh", |x| Ok(x[0].tanh()?), Fixed(Rule::Tanh)),
    ("sigmoid", |x| Ok(x[0].sigmoid()?), Fixed(Rule::Sigmoid)),
    ("relu", |x| Ok(x[0].relu()?), Fixed(Rule::Relu)),
    ("matmul", |x| Ok(x[0].matmul(&x[1])?),
        Fixed(Rule::MatMul { transpose_a: false, transpose_b: false })),
    ("softmax_cross_entropy", |x| Ok(Tensor::softmax_cross_entropy(&x[0], &x[1])?),
        Fixed(Rule::SoftmaxXent)),
    ("select", |x| Ok(Tensor::select(&x[0], &x[1], &x[2])?), Fixed(Rule::Select)),
    ("identity", |x| Ok(x[0].clone()), Fixed(Rule::Identity)),
    ("stop_gradient", |x| Ok(x[0].clone()), Fixed(Rule::Zero)),
    ("stack", |x| Ok(Tensor::stack(x)?), Fixed(Rule::Stack)),
    ("concat", concat, Attr(|x| {
        let (parts, axis) = concat_attr(x)?;
        Ok(Rule::Concat { axis, parts: parts.len() })
    })),
    ("reduce_sum", |x| Ok(x[0].reduce_sum(axis_attr(x)?)?),
        Attr(|x| Ok(Rule::ReduceSum(axis_attr(x)?)))),
    ("reduce_mean", |x| Ok(x[0].reduce_mean(axis_attr(x)?)?),
        Attr(|x| Ok(Rule::ReduceMean(axis_attr(x)?)))),
    ("transpose", |x| Ok(x[0].transpose(&dims_attr(&x[1])?)?),
        Attr(|x| Ok(Rule::Transpose(dims_attr(&x[1])?)))),
    ("reshape", |x| Ok(x[0].reshape(&dims_attr(&x[1])?)?), Fixed(Rule::Reshape)),
    ("expand_dims", |x| Ok(x[0].expand_dims(x[1].scalar_value_i64()? as isize)?),
        Fixed(Rule::Reshape)),
    ("squeeze", |x| Ok(x[0].squeeze(axis_attr(x)?)?), Fixed(Rule::Reshape)),
    ("cast", cast, Fixed(Rule::Reshape)),
    // ---- no gradient registered, as on the graph --------------------------
    ("softmax", |x| Ok(x[0].softmax()?), Missing),
    ("log_softmax", |x| Ok(x[0].log_softmax()?), Missing),
    ("reduce_max", |x| Ok(x[0].reduce_max(axis_attr(x)?)?), Missing),
    ("reduce_min", |x| Ok(x[0].reduce_min(axis_attr(x)?)?), Missing),
    ("reduce_all", |x| Ok(x[0].reduce_all(axis_attr(x)?)?), Missing),
    ("reduce_any", |x| Ok(x[0].reduce_any(axis_attr(x)?)?), Missing),
    ("gather", |x| Ok(x[0].gather(&x[1])?), Missing),
    ("top_k", |x| Ok(x[0].top_k(usize_attr(&x[1])?)?.0), Missing),
    ("top_k_indices", |x| Ok(x[0].top_k(usize_attr(&x[1])?)?.1), Missing),
    // ---- non-differentiable outputs: no contribution ----------------------
    ("less", |x| Ok(x[0].less(&x[1])?), Fixed(Rule::Zero)),
    ("less_equal", |x| Ok(x[0].less_equal(&x[1])?), Fixed(Rule::Zero)),
    ("greater", |x| Ok(x[0].greater(&x[1])?), Fixed(Rule::Zero)),
    ("greater_equal", |x| Ok(x[0].greater_equal(&x[1])?), Fixed(Rule::Zero)),
    ("equal", |x| Ok(x[0].equal(&x[1])?), Fixed(Rule::Zero)),
    ("not_equal", |x| Ok(x[0].not_equal(&x[1])?), Fixed(Rule::Zero)),
    ("logical_and", |x| Ok(x[0].logical_and(&x[1])?), Fixed(Rule::Zero)),
    ("logical_or", |x| Ok(x[0].logical_or(&x[1])?), Fixed(Rule::Zero)),
    ("logical_not", |x| Ok(x[0].logical_not()?), Fixed(Rule::Zero)),
    ("floordiv", |x| Ok(x[0].floordiv(&x[1])?), Fixed(Rule::Zero)),
    ("mod", |x| Ok(x[0].rem(&x[1])?), Fixed(Rule::Zero)),
    ("range", |x| Ok(Tensor::range_i64(x[0].scalar_value_i64()?)), Fixed(Rule::Zero)),
    ("shape", shape, Fixed(Rule::Zero)),
    ("argmax", |x| Ok(x[0].argmax(x[1].scalar_value_i64()? as isize)?), Fixed(Rule::Zero)),
    ("one_hot", |x| Ok(x[0].one_hot(usize_attr(&x[1])?)?), Fixed(Rule::Zero)),
];

/// Build the full default registry.
pub(crate) fn default_registry() -> HashMap<String, OpDef> {
    OPS.iter()
        .map(|(name, forward, grad)| {
            let def = OpDef {
                forward: Box::new(*forward),
                grad: grad.clone(),
            };
            (name.to_string(), def)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_tensor::grad::{self, Kernels};

    /// The op's rule on `x`, replayed with adjoint `g`: `(input, grad)`.
    fn backward(name: &str, g: &Tensor, x: &[Tensor]) -> Vec<(usize, Tensor)> {
        let def = &default_registry()[name];
        let out = (def.forward)(x).unwrap();
        let rule = def.rule(x).unwrap().expect("a rule");
        grad::vjp(&mut Kernels, &rule, x, &out, g).unwrap()
    }

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
        assert_eq!(r["add"].rule(&[]).unwrap(), Some(Rule::Add));
        assert_eq!(r["less"].rule(&[]).unwrap(), Some(Rule::Zero));
        assert_eq!(r["gather"].rule(&[]).unwrap(), None);
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
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::scalar_f32(3.0);
        let g = Tensor::ones(DType::F32, &[2]);
        let grads = backward("add", &g, &[a, b]);
        assert_eq!(grads[0].1.shape(), &[2]);
        // broadcast grad reduced back to scalar
        assert_eq!(grads[1].1.shape(), &[] as &[usize]);
        assert_eq!(grads[1].1.scalar_value_f32().unwrap(), 2.0);
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
        let grads = backward("reduce_mean", &g, &[x.clone(), ax]);
        // each input element contributes 1/2 of its column's grad
        let gx = &grads[0].1;
        assert_eq!(gx.shape(), &[2, 3]);
        assert_eq!(gx.as_f32().unwrap(), &[5.0, 10.0, 15.0, 5.0, 10.0, 15.0]);
        assert_eq!(grads.len(), 1, "the axis input is not differentiable");

        let ax1 = Tensor::scalar_i64(1);
        let g = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let grads = backward("reduce_sum", &g, &[x, ax1]);
        assert_eq!(
            grads[0].1.as_f32().unwrap(),
            &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        );

        // out-of-range axis is a structured error, not a panic
        let bad = Tensor::scalar_i64(7);
        let x2 = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        assert!((r["reduce_sum"].forward)(&[x2, bad]).is_err());
    }

    #[test]
    fn concat1_backward_splits() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0], &[1, 1]).unwrap();
        let ax = Tensor::scalar_i64(1);
        let g = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3]).unwrap();
        let grads = backward("concat", &g, &[a, b, ax]);
        assert_eq!(grads[0].1.as_f32().unwrap(), &[10.0, 20.0]);
        assert_eq!(grads[1].1.as_f32().unwrap(), &[30.0]);
        assert_eq!(grads.len(), 2, "the axis input is not differentiable");
    }
}
