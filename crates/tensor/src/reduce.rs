//! Reductions: sum, mean, max, min, argmax, all, any.

use crate::{DType, Data, Result, Tensor, TensorError};

/// Which reduction to perform (internal dispatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Red {
    Sum,
    Max,
    Min,
}

fn reduce_full_f32(v: &[f32], red: Red) -> f32 {
    match red {
        Red::Sum => v.iter().sum(),
        Red::Max => v.iter().cloned().fold(f32::NEG_INFINITY, f32::max),
        Red::Min => v.iter().cloned().fold(f32::INFINITY, f32::min),
    }
}

fn reduce_full_i64(v: &[i64], red: Red) -> i64 {
    match red {
        Red::Sum => v.iter().sum(),
        Red::Max => v.iter().cloned().max().unwrap_or(i64::MIN),
        Red::Min => v.iter().cloned().min().unwrap_or(i64::MAX),
    }
}

impl Tensor {
    fn reduce(&self, op: &'static str, axis: Option<isize>, red: Red) -> Result<Tensor> {
        if self.dtype() == DType::Bool {
            return Err(TensorError::DTypeMismatch {
                op,
                got: DType::Bool,
                expected: DType::F32,
            });
        }
        match axis {
            None => match self.data() {
                Data::F32(v) => Ok(Tensor::scalar_f32(reduce_full_f32(v, red))),
                Data::I64(v) => Ok(Tensor::scalar_i64(reduce_full_i64(v, red))),
                Data::Bool(_) => unreachable!(),
            },
            Some(ax) => {
                let ax = normalize_axis(op, ax, self.rank())?;
                let dims = self.shape();
                let outer: usize = dims[..ax].iter().product();
                let mid = dims[ax];
                let inner: usize = dims[ax + 1..].iter().product();
                let mut out_shape = dims.to_vec();
                out_shape.remove(ax);
                match self.data() {
                    Data::F32(v) => {
                        let init = match red {
                            Red::Sum => 0.0,
                            Red::Max => f32::NEG_INFINITY,
                            Red::Min => f32::INFINITY,
                        };
                        let mut out = vec![init; outer * inner];
                        for o in 0..outer {
                            for m in 0..mid {
                                let base = (o * mid + m) * inner;
                                let obase = o * inner;
                                for i in 0..inner {
                                    let x = v[base + i];
                                    let cur = &mut out[obase + i];
                                    *cur = match red {
                                        Red::Sum => *cur + x,
                                        Red::Max => cur.max(x),
                                        Red::Min => cur.min(x),
                                    };
                                }
                            }
                        }
                        Ok(Tensor::from_data(Data::F32(out), &out_shape))
                    }
                    Data::I64(v) => {
                        let init = match red {
                            Red::Sum => 0,
                            Red::Max => i64::MIN,
                            Red::Min => i64::MAX,
                        };
                        let mut out = vec![init; outer * inner];
                        for o in 0..outer {
                            for m in 0..mid {
                                let base = (o * mid + m) * inner;
                                let obase = o * inner;
                                for i in 0..inner {
                                    let x = v[base + i];
                                    let cur = &mut out[obase + i];
                                    *cur = match red {
                                        Red::Sum => *cur + x,
                                        Red::Max => (*cur).max(x),
                                        Red::Min => (*cur).min(x),
                                    };
                                }
                            }
                        }
                        Ok(Tensor::from_data(Data::I64(out), &out_shape))
                    }
                    Data::Bool(_) => unreachable!(),
                }
            }
        }
    }

    /// Sum of all elements (axis `None`) or along one axis.
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors or an out-of-range axis.
    pub fn reduce_sum(&self, axis: Option<isize>) -> Result<Tensor> {
        self.reduce("reduce_sum", axis, Red::Sum)
    }

    /// Maximum element (axis `None`) or per-axis maxima.
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors or an out-of-range axis.
    pub fn reduce_max(&self, axis: Option<isize>) -> Result<Tensor> {
        self.reduce("reduce_max", axis, Red::Max)
    }

    /// Minimum element (axis `None`) or per-axis minima.
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors or an out-of-range axis.
    pub fn reduce_min(&self, axis: Option<isize>) -> Result<Tensor> {
        self.reduce("reduce_min", axis, Red::Min)
    }

    /// Arithmetic mean over all elements or along one axis; always f32.
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors or an out-of-range axis.
    pub fn reduce_mean(&self, axis: Option<isize>) -> Result<Tensor> {
        let count = match axis {
            None => self.num_elements(),
            Some(ax) => {
                let ax = normalize_axis("reduce_mean", ax, self.rank())?;
                self.shape()[ax]
            }
        };
        let s = self.cast(DType::F32).reduce_sum(axis)?;
        s.div(&Tensor::scalar_f32(count as f32))
    }

    /// True when all booleans are true (optionally along one axis).
    ///
    /// # Errors
    ///
    /// Fails for non-boolean tensors or an out-of-range axis.
    pub fn reduce_all(&self, axis: Option<isize>) -> Result<Tensor> {
        self.reduce_bool("reduce_all", axis, true)
    }

    /// True when any boolean is true (optionally along one axis).
    ///
    /// # Errors
    ///
    /// Fails for non-boolean tensors or an out-of-range axis.
    pub fn reduce_any(&self, axis: Option<isize>) -> Result<Tensor> {
        self.reduce_bool("reduce_any", axis, false)
    }

    fn reduce_bool(&self, op: &'static str, axis: Option<isize>, all: bool) -> Result<Tensor> {
        let v = self.as_bool().map_err(|_| TensorError::DTypeMismatch {
            op,
            got: self.dtype(),
            expected: DType::Bool,
        })?;
        match axis {
            None => {
                let r = if all {
                    v.iter().all(|&x| x)
                } else {
                    v.iter().any(|&x| x)
                };
                Ok(Tensor::scalar_bool(r))
            }
            Some(ax) => {
                let ax = normalize_axis(op, ax, self.rank())?;
                let dims = self.shape();
                let outer: usize = dims[..ax].iter().product();
                let mid = dims[ax];
                let inner: usize = dims[ax + 1..].iter().product();
                let mut out = vec![all; outer * inner];
                for o in 0..outer {
                    for m in 0..mid {
                        for i in 0..inner {
                            let x = v[(o * mid + m) * inner + i];
                            let cur = &mut out[o * inner + i];
                            *cur = if all { *cur && x } else { *cur || x };
                        }
                    }
                }
                let mut out_shape = dims.to_vec();
                out_shape.remove(ax);
                Ok(Tensor::from_data(Data::Bool(out), &out_shape))
            }
        }
    }

    /// Index of the maximum along an axis, as i64.
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors or an out-of-range axis.
    pub fn argmax(&self, axis: isize) -> Result<Tensor> {
        if self.dtype() == DType::Bool {
            return Err(TensorError::DTypeMismatch {
                op: "argmax",
                got: DType::Bool,
                expected: DType::F32,
            });
        }
        let ax = normalize_axis("argmax", axis, self.rank())?;
        let t = self.cast(DType::F32);
        let v = t.as_f32()?;
        let dims = self.shape();
        let outer: usize = dims[..ax].iter().product();
        let mid = dims[ax];
        let inner: usize = dims[ax + 1..].iter().product();
        let mut out = vec![0i64; outer * inner];
        for o in 0..outer {
            for i in 0..inner {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0i64;
                for m in 0..mid {
                    let x = v[(o * mid + m) * inner + i];
                    if x > best {
                        best = x;
                        best_idx = m as i64;
                    }
                }
                out[o * inner + i] = best_idx;
            }
        }
        let mut out_shape = dims.to_vec();
        out_shape.remove(ax);
        Ok(Tensor::from_data(Data::I64(out), &out_shape))
    }
}

/// Normalize a possibly-negative axis against `rank`.
pub(crate) fn normalize_axis(op: &'static str, axis: isize, rank: usize) -> Result<usize> {
    let ax = if axis < 0 { axis + rank as isize } else { axis };
    if ax < 0 || ax as usize >= rank {
        return Err(TensorError::IndexOutOfRange {
            op,
            index: axis as i64,
            bound: rank,
        });
    }
    Ok(ax as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t23() -> Tensor {
        Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap()
    }

    #[test]
    fn sum_full_and_axis() {
        assert_eq!(
            t23().reduce_sum(None).unwrap().scalar_value_f32().unwrap(),
            21.0
        );
        let s0 = t23().reduce_sum(Some(0)).unwrap();
        assert_eq!(s0.shape(), &[3]);
        assert_eq!(s0.as_f32().unwrap(), &[5.0, 7.0, 9.0]);
        let s1 = t23().reduce_sum(Some(1)).unwrap();
        assert_eq!(s1.as_f32().unwrap(), &[6.0, 15.0]);
        // negative axis
        let sn = t23().reduce_sum(Some(-1)).unwrap();
        assert_eq!(sn.as_f32().unwrap(), &[6.0, 15.0]);
    }

    #[test]
    fn max_min_mean() {
        assert_eq!(
            t23().reduce_max(None).unwrap().scalar_value_f32().unwrap(),
            6.0
        );
        assert_eq!(
            t23().reduce_min(None).unwrap().scalar_value_f32().unwrap(),
            1.0
        );
        assert_eq!(
            t23().reduce_mean(None).unwrap().scalar_value_f32().unwrap(),
            3.5
        );
        assert_eq!(
            t23().reduce_mean(Some(0)).unwrap().as_f32().unwrap(),
            &[2.5, 3.5, 4.5]
        );
    }

    #[test]
    fn i64_reductions_stay_integer() {
        let a = Tensor::from_vec_i64(vec![3, 1, 2], &[3]).unwrap();
        assert_eq!(a.reduce_sum(None).unwrap().scalar_value_i64().unwrap(), 6);
        assert_eq!(a.reduce_max(None).unwrap().dtype(), DType::I64);
        assert_eq!(a.reduce_max(None).unwrap().scalar_value_i64().unwrap(), 3);
    }

    #[test]
    fn bool_reductions() {
        let a = Tensor::from_vec_bool(vec![true, false, true, true], &[2, 2]).unwrap();
        assert!(!a.reduce_all(None).unwrap().scalar_value_bool().unwrap());
        assert!(a.reduce_any(None).unwrap().scalar_value_bool().unwrap());
        let col = a.reduce_all(Some(0)).unwrap();
        assert_eq!(col.as_bool().unwrap(), &[true, false]);
        assert!(Tensor::scalar_f32(1.0).reduce_all(None).is_err());
        assert!(a.reduce_sum(None).is_err());
    }

    #[test]
    fn argmax_rows() {
        let a = Tensor::from_vec(vec![1.0, 9.0, 3.0, 7.0, 2.0, 5.0], &[2, 3]).unwrap();
        let idx = a.argmax(1).unwrap();
        assert_eq!(idx.as_i64().unwrap(), &[1, 0]);
        let idx0 = a.argmax(0).unwrap();
        assert_eq!(idx0.as_i64().unwrap(), &[1, 0, 1]);
    }

    #[test]
    fn axis_out_of_range() {
        assert!(t23().reduce_sum(Some(2)).is_err());
        assert!(t23().reduce_sum(Some(-3)).is_err());
        assert!(t23().argmax(5).is_err());
    }
}
