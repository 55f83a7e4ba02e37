//! Finite-difference validation of every differentiable op in the eager
//! registry (the tape AD used by the Eager/PyTorch baselines).

use autograph::eager::{Eager, EagerTensor};
use autograph::prelude::*;

/// Check d(loss)/d(x) for `loss = reduce_sum(f(x))` via central finite
/// differences, where `f` is built from registry ops.
fn check(build: impl Fn(&Eager, &EagerTensor) -> EagerTensor, x0: Vec<f32>, tol: f32) {
    let e = Eager::new();
    let n = x0.len();
    let xt = Tensor::from_vec(x0.clone(), &[n]).unwrap();

    e.start_tape();
    let x = e.watch(&EagerTensor::from(xt.clone())).unwrap();
    let y = build(&e, &x);
    let loss = e.op("reduce_sum", &[&y]).unwrap();
    let analytic = e.gradient(&loss, &[&x]).unwrap()[0].clone();

    let eval = |v: Vec<f32>| -> f32 {
        let t = EagerTensor::from(Tensor::from_vec(v, &[n]).unwrap());
        let y = build(&e, &t);
        e.op("reduce_sum", &[&y])
            .unwrap()
            .tensor()
            .scalar_value_f32()
            .unwrap()
    };
    let eps = 1e-3;
    for i in 0..n {
        let mut plus = x0.clone();
        plus[i] += eps;
        let mut minus = x0.clone();
        minus[i] -= eps;
        let numeric = (eval(plus) - eval(minus)) / (2.0 * eps);
        let a = analytic.as_f32().unwrap()[i];
        assert!(
            (a - numeric).abs() < tol * (1.0 + numeric.abs()),
            "component {i}: analytic {a} vs numeric {numeric}"
        );
    }
}

#[test]
fn unary_rules() {
    for name in [
        "tanh", "sigmoid", "relu", "exp", "square", "neg", "abs", "identity",
    ] {
        check(
            move |e, x| e.op(name, &[x]).unwrap(),
            vec![0.5, -0.7, 1.3],
            3e-2,
        );
    }
    // log and sqrt need positive inputs
    for name in ["log", "sqrt"] {
        check(
            move |e, x| e.op(name, &[x]).unwrap(),
            vec![0.5, 1.2, 3.0],
            3e-2,
        );
    }
}

#[test]
fn binary_rules_with_constant_rhs() {
    let c = EagerTensor::from(Tensor::from_vec(vec![2.0, -1.5, 0.5], &[3]).unwrap());
    for name in ["add", "sub", "mul", "div", "maximum", "minimum"] {
        let c = c.clone();
        check(
            move |e, x| e.op(name, &[x, &c]).unwrap(),
            vec![0.6, -0.9, 1.1],
            3e-2,
        );
    }
}

#[test]
fn pow_rule_both_sides() {
    // base gradient (positive base)
    let exp = EagerTensor::from(Tensor::scalar_f32(2.5));
    check(
        move |e, x| e.op("pow", &[x, &exp]).unwrap(),
        vec![0.8, 1.5, 2.2],
        3e-2,
    );
}

#[test]
fn matmul_rule_both_operands() {
    // dL/dA with constant B
    let e = Eager::new();
    let a0 = vec![0.5f32, -0.2, 0.7, 1.1, 0.3, -0.6];
    let b_const = Tensor::from_vec(vec![0.4, -0.9, 1.2, 0.1, -0.5, 0.8], &[3, 2]).unwrap();

    e.start_tape();
    let a = e
        .watch(&EagerTensor::from(
            Tensor::from_vec(a0.clone(), &[2, 3]).unwrap(),
        ))
        .unwrap();
    let b = e.watch(&EagerTensor::from(b_const.clone())).unwrap();
    let y = e.matmul(&a, &b).unwrap();
    let loss = e.op("reduce_sum", &[&y]).unwrap();
    let grads = e.gradient(&loss, &[&a, &b]).unwrap();

    // analytic: dL/dA = ones @ B^T; dL/dB = A^T @ ones
    let ones = Tensor::ones(DType::F32, &[2, 2]);
    let expect_a = ones.matmul(&b_const.t().unwrap()).unwrap();
    let a_mat = Tensor::from_vec(a0, &[2, 3]).unwrap();
    let expect_b = a_mat.t().unwrap().matmul(&ones).unwrap();
    for (g, e_) in grads[0]
        .as_f32()
        .unwrap()
        .iter()
        .zip(expect_a.as_f32().unwrap())
    {
        assert!((g - e_).abs() < 1e-5);
    }
    for (g, e_) in grads[1]
        .as_f32()
        .unwrap()
        .iter()
        .zip(expect_b.as_f32().unwrap())
    {
        assert!((g - e_).abs() < 1e-5);
    }
}

#[test]
fn select_rule_routes_gradient() {
    let e = Eager::new();
    let cond = EagerTensor::from(Tensor::from_vec_bool(vec![true, false, true], &[3]).unwrap());
    e.start_tape();
    let a = e
        .watch(&EagerTensor::from(
            Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap(),
        ))
        .unwrap();
    let b = e
        .watch(&EagerTensor::from(
            Tensor::from_vec(vec![10.0, 20.0, 30.0], &[3]).unwrap(),
        ))
        .unwrap();
    let y = e.op("select", &[&cond, &a, &b]).unwrap();
    let loss = e.op("reduce_sum", &[&y]).unwrap();
    let grads = e.gradient(&loss, &[&a, &b]).unwrap();
    assert_eq!(grads[0].as_f32().unwrap(), &[1.0, 0.0, 1.0]);
    assert_eq!(grads[1].as_f32().unwrap(), &[0.0, 1.0, 0.0]);
}

#[test]
fn broadcast_gradients_reduce_correctly() {
    // y = x + bias, bias scalar: d/d(bias) = count of elements
    let e = Eager::new();
    e.start_tape();
    let x = EagerTensor::from(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
    let bias = e
        .watch(&EagerTensor::from(Tensor::scalar_f32(0.5)))
        .unwrap();
    let y = e.add(&x, &bias).unwrap();
    let loss = e.op("reduce_sum", &[&y]).unwrap();
    let grads = e.gradient(&loss, &[&bias]).unwrap();
    assert_eq!(grads[0].scalar_value_f32().unwrap(), 4.0);
}

#[test]
fn cross_entropy_gradient_direction() {
    // moving the true-class logit up must reduce the loss
    let e = Eager::new();
    e.start_tape();
    let logits = e
        .watch(&EagerTensor::from(
            Tensor::from_vec(vec![0.2, -0.1, 0.5], &[1, 3]).unwrap(),
        ))
        .unwrap();
    let labels = EagerTensor::from(Tensor::from_vec_i64(vec![1], &[1]).unwrap());
    let loss = e.op("softmax_xent", &[&logits, &labels]).unwrap();
    let grads = e.gradient(&loss, &[&logits]).unwrap();
    let g = grads[0].as_f32().unwrap();
    assert!(g[1] < 0.0, "true class gradient negative: {g:?}");
    assert!(g[0] > 0.0 && g[2] > 0.0, "{g:?}");
    let sum: f32 = g.iter().sum();
    assert!(sum.abs() < 1e-5, "rows sum to zero: {g:?}");
}
