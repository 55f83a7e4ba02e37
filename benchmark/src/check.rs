//! Output checking against the independent reference (the unconverted
//! eager interpreter).

use autograph_runtime::Value;
use autograph_tensor::Tensor;

/// Relative tolerance of every output comparison.
pub const REL_TOL: f32 = 1e-5;

/// Whether two scalars agree within [`REL_TOL`] of the larger magnitude
/// (with a floor of 1, so values near zero compare absolutely).
pub fn close_f32(a: f32, b: f32) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Whether two tensors have the same shape and agree element-wise.
pub fn close(a: &Tensor, b: &Tensor) -> bool {
    if a.shape() != b.shape() {
        return false;
    }
    match (a.as_f32(), b.as_f32()) {
        (Ok(x), Ok(y)) => x.iter().zip(y).all(|(p, q)| close_f32(*p, *q)),
        _ => false,
    }
}

/// Whether two output lists agree tensor by tensor.
pub fn all_close(got: &[Tensor], want: &[Tensor]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| close(g, w))
}

/// Whether an operation succeeded and its outputs agree with `want`.
pub fn ok_close<E>(got: &Result<Vec<Tensor>, E>, want: &[Tensor]) -> bool {
    matches!(got, Ok(got) if all_close(got, want))
}

/// Flatten an eager result (a tensor or a tuple of tensors) to tensors.
pub fn eager_tensors(v: &Value) -> Result<Vec<Tensor>, String> {
    match v {
        Value::Tuple(items) => items
            .iter()
            .map(|i| i.as_eager_tensor().map_err(|e| e.to_string()))
            .collect(),
        single => Ok(vec![single.as_eager_tensor().map_err(|e| e.to_string())?]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_is_relative_with_an_absolute_floor() {
        assert!(close_f32(1000.0, 1000.009));
        assert!(!close_f32(1000.0, 1000.02));
        assert!(close_f32(0.0, 9e-6));
        assert!(!close_f32(0.0, 2e-5));
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).expect("shape");
        let b = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).expect("shape");
        assert!(close(&a, &a) && !close(&a, &b));
        assert!(!all_close(
            std::slice::from_ref(&a),
            &[a.clone(), a.clone()]
        ));
    }
}
