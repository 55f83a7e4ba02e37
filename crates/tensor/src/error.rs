//! Error type for tensor operations.

use crate::DType;
use std::fmt;

/// Error produced by tensor construction and kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// Two shapes could not be broadcast together.
    BroadcastMismatch {
        /// Left-hand shape.
        lhs: Vec<usize>,
        /// Right-hand shape.
        rhs: Vec<usize>,
    },
    /// A shape did not match the number of elements supplied.
    ShapeElementMismatch {
        /// Requested shape.
        shape: Vec<usize>,
        /// Number of elements actually supplied.
        elements: usize,
    },
    /// An operation received a dtype it does not support.
    DTypeMismatch {
        /// Operation name.
        op: &'static str,
        /// The dtype that was supplied.
        got: DType,
        /// The dtype that was expected.
        expected: DType,
    },
    /// An index or axis was out of range.
    IndexOutOfRange {
        /// Operation name.
        op: &'static str,
        /// The offending index.
        index: i64,
        /// The valid exclusive bound.
        bound: usize,
    },
    /// A rank (number of dimensions) requirement was violated.
    RankMismatch {
        /// Operation name.
        op: &'static str,
        /// The rank that was supplied.
        got: usize,
        /// Human-readable requirement, e.g. `">= 2"`.
        expected: &'static str,
    },
    /// Matmul inner dimensions disagree, or other shape incompatibility.
    IncompatibleShapes {
        /// Operation name.
        op: &'static str,
        /// Details of the incompatibility.
        detail: String,
    },
    /// Any other invalid argument.
    InvalidArgument {
        /// Operation name.
        op: &'static str,
        /// Details.
        detail: String,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::BroadcastMismatch { lhs, rhs } => {
                write!(f, "cannot broadcast shapes {lhs:?} and {rhs:?}")
            }
            TensorError::ShapeElementMismatch { shape, elements } => {
                match crate::Shape::checked_count(shape) {
                    Some(n) => write!(f, "shape {shape:?} requires {n} elements")?,
                    None => write!(f, "shape {shape:?} has more elements than usize holds")?,
                }
                write!(f, " but {elements} were supplied")
            }
            TensorError::DTypeMismatch { op, got, expected } => {
                write!(f, "{op}: expected dtype {expected}, got {got}")
            }
            TensorError::IndexOutOfRange { op, index, bound } => {
                write!(f, "{op}: index {index} out of range for bound {bound}")
            }
            TensorError::RankMismatch { op, got, expected } => {
                write!(f, "{op}: expected rank {expected}, got rank {got}")
            }
            TensorError::IncompatibleShapes { op, detail } => {
                write!(f, "{op}: incompatible shapes: {detail}")
            }
            TensorError::InvalidArgument { op, detail } => {
                write!(f, "{op}: invalid argument: {detail}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// The message of a caught panic payload: `panic!("...")` yields a
/// `&str` or a `String`; anything else is opaque.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TensorError::BroadcastMismatch {
            lhs: vec![2, 3],
            rhs: vec![4],
        };
        let s = e.to_string();
        assert!(s.contains("[2, 3]") && s.contains("[4]"));

        let e = TensorError::DTypeMismatch {
            op: "matmul",
            got: DType::Bool,
            expected: DType::F32,
        };
        assert!(e.to_string().contains("matmul"));
    }

    #[test]
    fn overflowing_element_counts_are_errors() {
        // 2^32 * 2^32 wraps to 0 in a plain product, which matched no data
        let huge = [1usize << 32, 1 << 32];
        let err = crate::Tensor::from_vec(vec![], &huge).unwrap_err();
        assert!(matches!(err, TensorError::ShapeElementMismatch { .. }));
        assert!(err.to_string().contains("more elements than usize holds"));
        let err = crate::Tensor::from_vec_i64(vec![], &[usize::MAX, 2]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeElementMismatch { .. }));
    }

    #[test]
    fn panic_message_extraction() {
        let p: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(p.as_ref()), "static str");
        let p: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(p.as_ref()), "owned");
        let p: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(p.as_ref()), "non-string panic payload");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
