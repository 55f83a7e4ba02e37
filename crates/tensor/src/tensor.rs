//! The dense [`Tensor`] type: storage, constructors and accessors.

use crate::{DType, Result, Shape, TensorError};
use std::fmt;
use std::sync::Arc;

/// Element storage for a tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// Booleans.
    Bool(Vec<bool>),
}

impl Data {
    /// Number of stored elements.
    pub fn len(&self) -> usize {
        match self {
            Data::F32(v) => v.len(),
            Data::I64(v) => v.len(),
            Data::Bool(v) => v.len(),
        }
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dtype of this storage.
    pub fn dtype(&self) -> DType {
        match self {
            Data::F32(_) => DType::F32,
            Data::I64(_) => DType::I64,
            Data::Bool(_) => DType::Bool,
        }
    }

    /// Payload size in bytes (element size × length).
    pub(crate) fn byte_len(&self) -> usize {
        match self {
            Data::F32(v) => v.len() * std::mem::size_of::<f32>(),
            Data::I64(v) => v.len() * std::mem::size_of::<i64>(),
            Data::Bool(v) => v.len(),
        }
    }
}

/// Reference-counted element storage with allocation accounting.
///
/// `counted_bytes` is nonzero iff [`crate::mem::tracking`] was on when
/// the buffer was created; only counted buffers decrement the ledger on
/// drop, which keeps `allocated − freed == live` exact across tracking
/// toggles (see `crate::mem`).
#[derive(Debug)]
pub(crate) struct Storage {
    data: Data,
    counted_bytes: u64,
}

impl Storage {
    fn new(data: Data) -> Storage {
        let counted_bytes = if crate::mem::tracking() {
            let bytes = data.byte_len() as u64;
            if bytes > 0 {
                crate::mem::on_alloc(bytes);
            }
            bytes
        } else {
            0
        };
        Storage {
            data,
            counted_bytes,
        }
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        if self.counted_bytes > 0 {
            crate::mem::on_free(self.counted_bytes);
        }
    }
}

/// A dense, row-major, reference-counted n-dimensional array.
///
/// Cloning a `Tensor` is cheap (an [`Arc`] bump). Tensors are immutable
/// values, as in TensorFlow: copy-on-write ([`Arc::make_mut`]) is
/// intentionally *not* used. The only kernels that write into an input
/// take it by value and do so only when they hold its sole handle
/// ([`Arc::get_mut`] on the tensor and on its storage); a tensor anyone
/// else can see is never changed, and never silently copied either.
#[derive(Clone)]
pub struct Tensor {
    inner: Arc<TensorInner>,
}

#[derive(Debug)]
struct TensorInner {
    shape: Shape,
    data: Arc<Storage>,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.inner.shape == other.inner.shape && self.inner.data.data == other.inner.data.data
    }
}

impl Tensor {
    /// The single funnel through which every new storage buffer is
    /// created — memory accounting hooks live here.
    #[inline]
    fn make(shape: Shape, data: Data) -> Tensor {
        Tensor {
            inner: Arc::new(TensorInner {
                shape,
                data: Arc::new(Storage::new(data)),
            }),
        }
    }

    /// Build a tensor sharing an existing storage buffer (reshape):
    /// no new allocation, no accounting entry.
    #[inline]
    fn make_shared(shape: Shape, data: Arc<Storage>) -> Tensor {
        Tensor {
            inner: Arc::new(TensorInner { shape, data }),
        }
    }

    #[inline]
    fn raw(&self) -> &Data {
        &self.inner.data.data
    }

    /// Reclaim the underlying `f32` buffer when this handle is the sole
    /// owner — the entry point for buffer recycling (see
    /// [`crate::fused::FusedArena`]).
    ///
    /// Consumes the tensor. Returns `None` (dropping the handle
    /// normally) when the storage is shared, was produced by a
    /// zero-copy reshape, or is not `f32`. On success the ledger
    /// records the free, exactly as a plain drop would: the buffer
    /// stops being a tensor allocation, and wrapping it into a new
    /// tensor later counts as a fresh one.
    pub fn into_f32_buffer(self) -> Option<Vec<f32>> {
        let inner = Arc::try_unwrap(self.inner).ok()?;
        let mut storage = Arc::try_unwrap(inner.data).ok()?;
        if storage.data.dtype() != DType::F32 {
            return None;
        }
        // Storage has a Drop impl (ledger accounting), so steal the
        // buffer and let the drop run with an empty payload — the free
        // of the original counted bytes is still recorded.
        let data = std::mem::replace(&mut storage.data, Data::F32(Vec::new()));
        drop(storage);
        match data {
            Data::F32(v) => Some(v),
            _ => None,
        }
    }

    /// The `f32` elements, writable, when this handle is the sole owner of
    /// both the tensor and its storage — the entry point for kernels that
    /// write their output over an input they were given by value. `None`
    /// for a shared or non-`f32` tensor. The ledger is untouched: the
    /// buffer stays the same allocation.
    pub(crate) fn f32_mut(&mut self) -> Option<&mut [f32]> {
        let inner = Arc::get_mut(&mut self.inner)?;
        match &mut Arc::get_mut(&mut inner.data)?.data {
            Data::F32(v) => Some(v),
            _ => None,
        }
    }
}

impl Tensor {
    // ---- constructors -----------------------------------------------------

    /// Build an f32 tensor from a flat vector and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeElementMismatch`] if `shape` does not
    /// describe exactly `data.len()` elements.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Tensor> {
        Self::check_len(data.len(), shape)?;
        Ok(Tensor::make(Shape::new(shape), Data::F32(data)))
    }

    /// Build an i64 tensor from a flat vector and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeElementMismatch`] on element-count
    /// mismatch.
    pub fn from_vec_i64(data: Vec<i64>, shape: &[usize]) -> Result<Tensor> {
        Self::check_len(data.len(), shape)?;
        Ok(Tensor::make(Shape::new(shape), Data::I64(data)))
    }

    /// Build a bool tensor from a flat vector and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeElementMismatch`] on element-count
    /// mismatch.
    pub fn from_vec_bool(data: Vec<bool>, shape: &[usize]) -> Result<Tensor> {
        Self::check_len(data.len(), shape)?;
        Ok(Tensor::make(Shape::new(shape), Data::Bool(data)))
    }

    /// An f32 scalar.
    pub fn scalar_f32(v: f32) -> Tensor {
        Tensor::make(Shape::default(), Data::F32(vec![v]))
    }

    /// An i64 scalar.
    pub fn scalar_i64(v: i64) -> Tensor {
        Tensor::make(Shape::default(), Data::I64(vec![v]))
    }

    /// A bool scalar.
    pub fn scalar_bool(v: bool) -> Tensor {
        Tensor::make(Shape::default(), Data::Bool(vec![v]))
    }

    /// All-zeros tensor of the given dtype and shape.
    pub fn zeros(dtype: DType, shape: &[usize]) -> Tensor {
        let n = shape.iter().product();
        let data = match dtype {
            DType::F32 => Data::F32(vec![0.0; n]),
            DType::I64 => Data::I64(vec![0; n]),
            DType::Bool => Data::Bool(vec![false; n]),
        };
        Tensor::make(Shape::new(shape), data)
    }

    /// All-ones tensor of the given dtype and shape (`true` for bool).
    pub fn ones(dtype: DType, shape: &[usize]) -> Tensor {
        let n = shape.iter().product();
        let data = match dtype {
            DType::F32 => Data::F32(vec![1.0; n]),
            DType::I64 => Data::I64(vec![1; n]),
            DType::Bool => Data::Bool(vec![true; n]),
        };
        Tensor::make(Shape::new(shape), data)
    }

    /// Tensor filled with a single f32 value.
    pub fn full(value: f32, shape: &[usize]) -> Tensor {
        let n = shape.iter().product();
        Tensor::make(Shape::new(shape), Data::F32(vec![value; n]))
    }

    /// `[0, 1, ..., n-1]` as an i64 vector, like `tf.range(n)`.
    pub fn range_i64(n: i64) -> Tensor {
        let v: Vec<i64> = (0..n.max(0)).collect();
        let len = v.len();
        Tensor::make(Shape::new(&[len]), Data::I64(v))
    }

    fn check_len(len: usize, shape: &[usize]) -> Result<()> {
        if Shape::checked_count(shape) != Some(len) {
            return Err(TensorError::ShapeElementMismatch {
                shape: shape.to_vec(),
                elements: len,
            });
        }
        Ok(())
    }

    /// Internal constructor from raw parts; validates element count.
    pub(crate) fn from_data(data: Data, shape: &[usize]) -> Tensor {
        debug_assert_eq!(data.len(), shape.iter().product::<usize>());
        Tensor::make(Shape::new(shape), data)
    }

    // ---- accessors --------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        self.inner.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.inner.shape.rank()
    }

    /// Total element count.
    pub fn num_elements(&self) -> usize {
        self.inner.shape.num_elements()
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.raw().dtype()
    }

    /// Raw storage.
    pub fn data(&self) -> &Data {
        self.raw()
    }

    /// View as an f32 slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] if the dtype is not `F32`.
    pub fn as_f32(&self) -> Result<&[f32]> {
        match self.raw() {
            Data::F32(v) => Ok(v),
            _ => Err(TensorError::DTypeMismatch {
                op: "as_f32",
                got: self.dtype(),
                expected: DType::F32,
            }),
        }
    }

    /// View as an i64 slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] if the dtype is not `I64`.
    pub fn as_i64(&self) -> Result<&[i64]> {
        match self.raw() {
            Data::I64(v) => Ok(v),
            _ => Err(TensorError::DTypeMismatch {
                op: "as_i64",
                got: self.dtype(),
                expected: DType::I64,
            }),
        }
    }

    /// View as a bool slice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DTypeMismatch`] if the dtype is not `Bool`.
    pub fn as_bool(&self) -> Result<&[bool]> {
        match self.raw() {
            Data::Bool(v) => Ok(v),
            _ => Err(TensorError::DTypeMismatch {
                op: "as_bool",
                got: self.dtype(),
                expected: DType::Bool,
            }),
        }
    }

    /// Extract a scalar f32 (accepts any dtype, converting).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor has more than one
    /// element.
    pub fn scalar_value_f32(&self) -> Result<f32> {
        if self.num_elements() != 1 {
            return Err(TensorError::RankMismatch {
                op: "scalar_value_f32",
                got: self.rank(),
                expected: "scalar (1 element)",
            });
        }
        Ok(match self.raw() {
            Data::F32(v) => v[0],
            Data::I64(v) => v[0] as f32,
            Data::Bool(v) => {
                if v[0] {
                    1.0
                } else {
                    0.0
                }
            }
        })
    }

    /// Extract a scalar i64 (accepts any dtype, converting).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor has more than one
    /// element.
    pub fn scalar_value_i64(&self) -> Result<i64> {
        if self.num_elements() != 1 {
            return Err(TensorError::RankMismatch {
                op: "scalar_value_i64",
                got: self.rank(),
                expected: "scalar (1 element)",
            });
        }
        Ok(match self.raw() {
            Data::F32(v) => v[0] as i64,
            Data::I64(v) => v[0],
            Data::Bool(v) => v[0] as i64,
        })
    }

    /// Extract a scalar bool.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not a single-element bool tensor.
    pub fn scalar_value_bool(&self) -> Result<bool> {
        if self.num_elements() != 1 {
            return Err(TensorError::RankMismatch {
                op: "scalar_value_bool",
                got: self.rank(),
                expected: "scalar (1 element)",
            });
        }
        match self.raw() {
            Data::Bool(v) => Ok(v[0]),
            Data::I64(v) => Ok(v[0] != 0),
            Data::F32(_) => Err(TensorError::DTypeMismatch {
                op: "scalar_value_bool",
                got: DType::F32,
                expected: DType::Bool,
            }),
        }
    }

    /// Reinterpret with a new shape of the same element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeElementMismatch`] if element counts
    /// differ. A single `usize::MAX` dimension is inferred (like `-1` in
    /// `tf.reshape`).
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let mut dims = shape.to_vec();
        if let Some(pos) = dims.iter().position(|&d| d == usize::MAX) {
            let known: usize = dims.iter().filter(|&&d| d != usize::MAX).product();
            if known == 0 || !self.num_elements().is_multiple_of(known) {
                return Err(TensorError::ShapeElementMismatch {
                    shape: shape.to_vec(),
                    elements: self.num_elements(),
                });
            }
            dims[pos] = self.num_elements() / known;
        }
        Self::check_len(self.num_elements(), &dims)?;
        Ok(Tensor::make_shared(
            Shape::new(&dims),
            Arc::clone(&self.inner.data),
        ))
    }

    /// Convert elements to a new dtype.
    pub fn cast(&self, dtype: DType) -> Tensor {
        if self.dtype() == dtype {
            return self.clone();
        }
        let data = match (self.raw(), dtype) {
            (Data::F32(v), DType::I64) => Data::I64(v.iter().map(|&x| x as i64).collect()),
            (Data::F32(v), DType::Bool) => Data::Bool(v.iter().map(|&x| x != 0.0).collect()),
            (Data::I64(v), DType::F32) => Data::F32(v.iter().map(|&x| x as f32).collect()),
            (Data::I64(v), DType::Bool) => Data::Bool(v.iter().map(|&x| x != 0).collect()),
            (Data::Bool(v), DType::F32) => {
                Data::F32(v.iter().map(|&x| if x { 1.0 } else { 0.0 }).collect())
            }
            (Data::Bool(v), DType::I64) => Data::I64(v.iter().map(|&x| x as i64).collect()),
            _ => unreachable!("same-dtype cast handled above"),
        };
        Tensor::from_data(data, self.shape())
    }

    /// Convert to a flat `Vec<f32>`, casting if necessary.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        match self.raw() {
            Data::F32(v) => v.clone(),
            Data::I64(v) => v.iter().map(|&x| x as f32).collect(),
            Data::Bool(v) => v.iter().map(|&x| if x { 1.0 } else { 0.0 }).collect(),
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor<{}>{:?}", self.dtype(), self.shape())?;
        const MAX: usize = 8;
        match self.raw() {
            Data::F32(v) => write_preview(f, v, MAX),
            Data::I64(v) => write_preview(f, v, MAX),
            Data::Bool(v) => write_preview(f, v, MAX),
        }
    }
}

fn write_preview<T: fmt::Debug>(f: &mut fmt::Formatter<'_>, v: &[T], max: usize) -> fmt::Result {
    if v.len() <= max {
        write!(f, "{v:?}")
    } else {
        write!(f, "[{:?}, {:?}, ... ({} elements)]", v[0], v[1], v.len())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.num_elements(), 6);
        assert_eq!(t.dtype(), DType::F32);
        assert_eq!(t.as_f32().unwrap()[4], 5.0);
        assert!(t.as_i64().is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec_i64(vec![1], &[2, 2]).is_err());
    }

    #[test]
    fn scalars() {
        assert_eq!(Tensor::scalar_f32(2.5).scalar_value_f32().unwrap(), 2.5);
        assert_eq!(Tensor::scalar_i64(7).scalar_value_i64().unwrap(), 7);
        assert!(Tensor::scalar_bool(true).scalar_value_bool().unwrap());
        // conversions
        assert_eq!(Tensor::scalar_i64(3).scalar_value_f32().unwrap(), 3.0);
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[2])
            .unwrap()
            .scalar_value_f32()
            .is_err());
    }

    #[test]
    fn zeros_ones_full_range() {
        assert_eq!(
            Tensor::zeros(DType::F32, &[2, 2]).as_f32().unwrap(),
            &[0.0; 4]
        );
        assert_eq!(Tensor::ones(DType::I64, &[3]).as_i64().unwrap(), &[1, 1, 1]);
        assert_eq!(Tensor::full(2.0, &[2]).as_f32().unwrap(), &[2.0, 2.0]);
        assert_eq!(Tensor::range_i64(4).as_i64().unwrap(), &[0, 1, 2, 3]);
        assert_eq!(Tensor::range_i64(-1).num_elements(), 0);
    }

    #[test]
    fn reshape_shares_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let r = t.reshape(&[2, 2]).unwrap();
        assert_eq!(r.shape(), &[2, 2]);
        assert_eq!(r.as_f32().unwrap(), t.as_f32().unwrap());
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn reshape_infers_dim() {
        let t = Tensor::from_vec(vec![0.0; 12], &[3, 4]).unwrap();
        assert_eq!(t.reshape(&[2, usize::MAX]).unwrap().shape(), &[2, 6]);
        assert!(t.reshape(&[5, usize::MAX]).is_err());
    }

    #[test]
    fn cast_round_trip() {
        let t = Tensor::from_vec(vec![0.0, 1.5, -2.0], &[3]).unwrap();
        let i = t.cast(DType::I64);
        assert_eq!(i.as_i64().unwrap(), &[0, 1, -2]);
        let b = t.cast(DType::Bool);
        assert_eq!(b.as_bool().unwrap(), &[false, true, true]);
        let f = b.cast(DType::F32);
        assert_eq!(f.as_f32().unwrap(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn debug_preview_truncates() {
        let t = Tensor::zeros(DType::F32, &[100]);
        let s = format!("{t:?}");
        assert!(s.contains("100 elements"));
    }
}
