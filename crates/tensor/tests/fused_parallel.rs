//! The pooled strip path of the fused evaluator: a chain long enough to
//! split across the worker pool must be bitwise identical at threads 1
//! and 4. Lives in its own test binary because the thread budget is
//! process-global.

use autograph_tensor::fused::{FusedArena, FusedOp, FusedSpec};
use autograph_tensor::{Rng64, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_f32().unwrap().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn pooled_strips_are_bitwise_identical_to_sequential() {
    use FusedOp::*;
    // 2^16 + 13 elements: above the parallel threshold, with pool
    // ranges that end mid-strip and mid-run
    let (rows, cols) = (257, 255);
    let mut rng = Rng64::new(0xd1ce);
    let x = rng.normal_tensor(&[rows, cols], 1.5);
    let bias = rng.normal_tensor(&[cols], 1.0);
    let gate = rng.normal_tensor(&[rows, 1], 1.0);
    let scale = Tensor::scalar_f32(0.37);
    // tanh((x + bias) * gate) - x * scale: three lanes deep, x read twice
    let spec = FusedSpec::new(
        vec![
            Input(0),
            Input(1),
            Add,
            Input(2),
            Mul,
            Tanh,
            Input(0),
            Input(3),
            Mul,
            Sub,
        ],
        4,
    )
    .unwrap();
    let inputs = [&x, &bias, &gate, &scale];
    // tanh((x + bias) * gate), which may be written over x
    let cell = FusedSpec::new(vec![Input(0), Input(1), Add, Input(2), Mul, Tanh], 3).unwrap();
    let mut arena = FusedArena::new();

    autograph_par::configure(1);
    let sequential = spec.try_eval(&inputs, &mut arena).unwrap();
    let unfused = x
        .add(&bias)
        .and_then(|t| t.mul(&gate))
        .and_then(|t| t.tanh())
        .and_then(|t| t.sub(&x.mul(&scale)?))
        .unwrap();
    let cell_sequential = cell.try_eval(&[&x, &bias, &gate], &mut arena).unwrap();
    autograph_par::configure(4);
    let pooled = spec.try_eval(&inputs, &mut arena).unwrap();
    // pooled ranges over a handed-over copy of x
    let owned = Tensor::from_vec(x.as_f32().unwrap().to_vec(), &[rows, cols]).unwrap();
    let buf = owned.as_f32().unwrap().as_ptr();
    let Ok(plan) = cell.plan_owned([&bias, &gate], owned) else {
        panic!("the cell's inputs are eligible");
    };
    let cell_pooled = cell.eval(plan, &mut arena);

    assert_eq!(sequential.shape(), &[rows, cols]);
    assert_eq!(bits(&pooled), bits(&sequential));
    assert_eq!(bits(&sequential), bits(&unfused));
    assert_eq!(
        cell_pooled.as_f32().unwrap().as_ptr(),
        buf,
        "written over x"
    );
    assert_eq!(bits(&cell_pooled), bits(&cell_sequential));
}
