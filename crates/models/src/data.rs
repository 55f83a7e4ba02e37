//! Deterministic synthetic data (the substitutions table in DESIGN.md:
//! MNIST-shaped batches and random parse trees replace the proprietary /
//! external datasets; only shapes and distributions matter for the
//! throughput experiments).

use autograph_runtime::Value;
use autograph_tensor::{Rng64, Tensor};

/// MNIST-shaped synthetic batches: `num_batches` batches of
/// (`[batch, 784]` f32 images in [0,1), `[batch]` i64 labels in [0,10)).
pub fn synthetic_mnist(num_batches: usize, batch: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = Rng64::new(seed);
    let images = rng.uniform_tensor(&[num_batches, batch, 784], 0.0, 1.0);
    let labels = rng.labels_tensor(&[num_batches, batch], 10);
    (images, labels)
}

/// A synthetic binary parse tree with embedded leaves, as a runtime
/// record value (fields: `is_leaf`, `left`, `right`, `embedding`).
pub fn random_tree_value(rng: &mut Rng64, leaves: usize, dim: usize) -> Value {
    if leaves <= 1 {
        return Value::record(vec![
            ("is_leaf", Value::Bool(true)),
            (
                "embedding",
                Value::tensor(rng.normal_tensor(&[1, dim], 0.5)),
            ),
        ]);
    }
    let left_n = 1 + (rng.next_below((leaves - 1) as u64) as usize);
    let left = random_tree_value(rng, left_n, dim);
    let right = random_tree_value(rng, leaves - left_n, dim);
    Value::record(vec![
        ("is_leaf", Value::Bool(false)),
        ("left", left),
        ("right", right),
    ])
}

/// The same tree shape as a Lantern record value (for the Lantern engine).
pub fn random_tree_lantern(
    rng: &mut Rng64,
    leaves: usize,
    dim: usize,
) -> autograph_lantern::value::LValue {
    use autograph_lantern::value::{LValue, Record};
    if leaves <= 1 {
        return LValue::Record(Record::new(vec![
            ("is_leaf", LValue::Bool(true)),
            (
                "embedding",
                LValue::tensor(rng.normal_tensor(&[1, dim], 0.5)),
            ),
        ]));
    }
    let left_n = 1 + (rng.next_below((leaves - 1) as u64) as usize);
    let left = random_tree_lantern(rng, left_n, dim);
    let right = random_tree_lantern(rng, leaves - left_n, dim);
    LValue::Record(Record::new(vec![
        ("is_leaf", LValue::Bool(false)),
        ("left", left),
        ("right", right),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_shapes_and_determinism() {
        let (im, lab) = synthetic_mnist(3, 16, 7);
        assert_eq!(im.shape(), &[3, 16, 784]);
        assert_eq!(lab.shape(), &[3, 16]);
        let (im2, _) = synthetic_mnist(3, 16, 7);
        assert_eq!(im.as_f32().unwrap(), im2.as_f32().unwrap());
        assert!(lab.as_i64().unwrap().iter().all(|&l| (0..10).contains(&l)));
    }

    #[test]
    fn trees_have_requested_leaf_count() {
        fn count(v: &Value) -> usize {
            match v {
                Value::Record(f) => {
                    let f = f.borrow();
                    if matches!(f.get("is_leaf"), Some(Value::Bool(true))) {
                        1
                    } else {
                        count(f.get("left").unwrap()) + count(f.get("right").unwrap())
                    }
                }
                _ => panic!("expected record"),
            }
        }
        let mut rng = Rng64::new(3);
        for leaves in [1, 2, 7, 20] {
            let t = random_tree_value(&mut rng, leaves, 4);
            assert_eq!(count(&t), leaves);
        }
    }
}
