//! Tensor-comparison machinery shared by every differential consumer:
//! the fuzz oracles in this crate and the hand-written test suites
//! (`tests/differential.rs`, `tests/chaos.rs`, `tests/gradient_check.rs`
//! route through `tests/support/check.rs`, which delegates here).
//!
//! Two comparison grades, matching the repo-wide contract:
//!
//! * [`close`] — absolute tolerance (default 1e-6) for *cross-backend*
//!   agreement (eager vs. graph vs. Lantern), where different but
//!   equivalent kernel orderings may round differently;
//! * [`bitwise`] — exact bit equality for *same-backend* determinism
//!   (graph at threads 1 vs. 4, reruns, restaging), where kernel
//!   splitting keeps the floating-point evaluation order identical.
//!
//! Both treat two NaNs (and two identical infinities) as equal: a
//! program that legitimately overflows must overflow the same way on
//! every backend, and `NaN != NaN` must not masquerade as a divergence.

use autograph_tensor::Tensor;

/// Default absolute tolerance for cross-backend value agreement.
pub const DEFAULT_TOL: f32 = 1e-6;

fn arity_shape_check(what: &str, a: &[Tensor], b: &[Tensor]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{what}: arity {} vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.shape() != y.shape() {
            return Err(format!(
                "{what}: output {i} shape {:?} vs {:?}",
                x.shape(),
                y.shape()
            ));
        }
    }
    Ok(())
}

/// Compare two output lists to an absolute tolerance. Shapes must match
/// exactly; values may differ by at most `tol` (bit-identical values,
/// including two NaNs, always pass).
///
/// # Errors
///
/// Returns a human-readable description of the first mismatch.
pub fn close(what: &str, a: &[Tensor], b: &[Tensor], tol: f32) -> Result<(), String> {
    arity_shape_check(what, a, b)?;
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        for (j, (u, w)) in x.to_f32_vec().iter().zip(y.to_f32_vec()).enumerate() {
            if u.to_bits() == w.to_bits() || (u.is_nan() && w.is_nan()) {
                continue;
            }
            if (u - w).abs() <= tol {
                continue;
            }
            return Err(format!(
                "{what}: output {i}[{j}]: {u} vs {w} (|diff| {} > tol {tol})",
                (u - w).abs()
            ));
        }
    }
    Ok(())
}

/// Compare two output lists for exact bit equality (the same-backend
/// determinism contract).
///
/// # Errors
///
/// Returns a human-readable description of the first mismatch.
pub fn bitwise(what: &str, a: &[Tensor], b: &[Tensor]) -> Result<(), String> {
    arity_shape_check(what, a, b)?;
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        for (j, (u, w)) in x.to_f32_vec().iter().zip(y.to_f32_vec()).enumerate() {
            if u.to_bits() != w.to_bits() {
                return Err(format!(
                    "{what}: output {i}[{j}]: {u} vs {w} must be bitwise equal"
                ));
            }
        }
    }
    Ok(())
}

/// Whether every element of every tensor is finite (no NaN/inf).
pub fn all_finite(ts: &[Tensor]) -> bool {
    ts.iter()
        .all(|t| t.to_f32_vec().iter().all(|v| v.is_finite()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(v, &[n]).unwrap()
    }

    #[test]
    fn close_within_tol() {
        assert!(close("x", &[t(vec![1.0, 2.0])], &[t(vec![1.0, 2.0 + 5e-7])], 1e-6).is_ok());
        assert!(close("x", &[t(vec![1.0])], &[t(vec![1.1])], 1e-6).is_err());
    }

    #[test]
    fn shape_and_arity_mismatches_reported() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap();
        assert!(close("x", std::slice::from_ref(&a), &[b], 1e-6)
            .unwrap_err()
            .contains("shape"));
        assert!(close("x", &[a], &[], 1e-6).unwrap_err().contains("arity"));
    }

    #[test]
    fn nan_equals_nan_inf_equals_inf() {
        assert!(close(
            "x",
            &[t(vec![f32::NAN, f32::INFINITY])],
            &[t(vec![f32::NAN, f32::INFINITY])],
            1e-6
        )
        .is_ok());
        assert!(bitwise("x", &[t(vec![f32::INFINITY])], &[t(vec![f32::INFINITY])]).is_ok());
        // but NaN vs a number is a mismatch
        assert!(close("x", &[t(vec![f32::NAN])], &[t(vec![1.0])], 1e-6).is_err());
    }

    #[test]
    fn bitwise_catches_ulp() {
        let a = 1.0f32;
        let b = f32::from_bits(a.to_bits() + 1);
        assert!(bitwise("x", &[t(vec![a])], &[t(vec![b])]).is_err());
        assert!(close("x", &[t(vec![a])], &[t(vec![b])], 1e-6).is_ok());
    }

    #[test]
    fn finiteness() {
        assert!(all_finite(&[t(vec![1.0, -2.0])]));
        assert!(!all_finite(&[t(vec![1.0, f32::NAN])]));
        assert!(!all_finite(&[t(vec![f32::INFINITY])]));
    }
}
