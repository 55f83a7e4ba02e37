//! Element types supported by [`crate::Tensor`].

use std::fmt;

/// The element type of a tensor.
///
/// Mirrors the small dtype lattice the paper's workloads need: 32-bit floats
/// for numerics, 64-bit integers for indices/token ids, and booleans for
/// masks and staged predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DType {
    /// 32-bit IEEE-754 float.
    F32,
    /// 64-bit signed integer.
    I64,
    /// Boolean.
    Bool,
}

impl DType {
    /// Short lowercase name, e.g. `"f32"`.
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::I64 => "i64",
            DType::Bool => "bool",
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(DType::F32.name(), "f32");
        assert_eq!(DType::I64.to_string(), "i64");
    }

    #[test]
    fn ordering_is_stable() {
        assert!(DType::F32 < DType::I64);
        assert!(DType::I64 < DType::Bool);
    }
}
