//! Indexing, slicing, gathering, stacking, concatenation, one-hot, top-k.

use crate::{DType, Data, Result, Tensor, TensorError};

impl Tensor {
    /// Index along axis 0, returning a tensor of rank `rank - 1`
    /// (the semantics of `x[i]` in the staged language). Negative indices
    /// count from the end.
    ///
    /// # Errors
    ///
    /// Fails on rank-0 input or out-of-range index.
    pub fn index_axis0(&self, index: i64) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                op: "index",
                got: 0,
                expected: ">= 1",
            });
        }
        let d0 = self.shape()[0];
        let idx = if index < 0 { index + d0 as i64 } else { index };
        if idx < 0 || idx as usize >= d0 {
            return Err(TensorError::IndexOutOfRange {
                op: "index",
                index,
                bound: d0,
            });
        }
        let idx = idx as usize;
        let inner: usize = self.shape()[1..].iter().product();
        let out_shape = self.shape()[1..].to_vec();
        let data = match self.data() {
            Data::F32(v) => Data::F32(v[idx * inner..(idx + 1) * inner].to_vec()),
            Data::I64(v) => Data::I64(v[idx * inner..(idx + 1) * inner].to_vec()),
            Data::Bool(v) => Data::Bool(v[idx * inner..(idx + 1) * inner].to_vec()),
        };
        Ok(Tensor::from_data(data, &out_shape))
    }

    /// Replace the `index`-th slice along axis 0 with `value`, returning a
    /// new tensor (value semantics, as required by the slice-conversion pass
    /// in §7.2: `x[i] = y` becomes `x = ag.setitem(x, i, y)`).
    ///
    /// # Errors
    ///
    /// Fails when shapes/dtypes disagree or the index is out of range.
    pub fn set_index_axis0(&self, index: i64, value: &Tensor) -> Result<Tensor> {
        let d0 = if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                op: "setitem",
                got: 0,
                expected: ">= 1",
            });
        } else {
            self.shape()[0]
        };
        let idx = if index < 0 { index + d0 as i64 } else { index };
        if idx < 0 || idx as usize >= d0 {
            return Err(TensorError::IndexOutOfRange {
                op: "setitem",
                index,
                bound: d0,
            });
        }
        if value.shape() != &self.shape()[1..] {
            return Err(TensorError::IncompatibleShapes {
                op: "setitem",
                detail: format!(
                    "slice shape {:?}, value shape {:?}",
                    &self.shape()[1..],
                    value.shape()
                ),
            });
        }
        if value.dtype() != self.dtype() {
            return Err(TensorError::DTypeMismatch {
                op: "setitem",
                got: value.dtype(),
                expected: self.dtype(),
            });
        }
        let idx = idx as usize;
        let inner: usize = self.shape()[1..].iter().product();
        let data = match (self.data(), value.data()) {
            (Data::F32(v), Data::F32(nv)) => {
                let mut v = v.clone();
                v[idx * inner..(idx + 1) * inner].copy_from_slice(nv);
                Data::F32(v)
            }
            (Data::I64(v), Data::I64(nv)) => {
                let mut v = v.clone();
                v[idx * inner..(idx + 1) * inner].copy_from_slice(nv);
                Data::I64(v)
            }
            (Data::Bool(v), Data::Bool(nv)) => {
                let mut v = v.clone();
                v[idx * inner..(idx + 1) * inner].copy_from_slice(nv);
                Data::Bool(v)
            }
            _ => unreachable!("dtype equality checked above"),
        };
        Ok(Tensor::from_data(data, self.shape()))
    }

    /// Contiguous range slice along axis 0: `x[start:stop]` with clamping,
    /// Python slice semantics (negative bounds count from the end).
    ///
    /// # Errors
    ///
    /// Fails on rank-0 input.
    pub fn slice_axis0(&self, start: Option<i64>, stop: Option<i64>) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                op: "slice",
                got: 0,
                expected: ">= 1",
            });
        }
        let d0 = self.shape()[0] as i64;
        let norm = |x: i64| -> i64 {
            let x = if x < 0 { x + d0 } else { x };
            x.clamp(0, d0)
        };
        let s = norm(start.unwrap_or(0));
        let e = norm(stop.unwrap_or(d0));
        let (s, e) = (s as usize, (e.max(s)) as usize);
        let inner: usize = self.shape()[1..].iter().product();
        let mut out_shape = self.shape().to_vec();
        out_shape[0] = e - s;
        let data = match self.data() {
            Data::F32(v) => Data::F32(v[s * inner..e * inner].to_vec()),
            Data::I64(v) => Data::I64(v[s * inner..e * inner].to_vec()),
            Data::Bool(v) => Data::Bool(v[s * inner..e * inner].to_vec()),
        };
        Ok(Tensor::from_data(data, &out_shape))
    }

    /// Gather rows along axis 0 by an i64 index tensor. Output shape is
    /// `indices.shape() ++ self.shape()[1..]`.
    ///
    /// # Errors
    ///
    /// Fails when indices are not i64-compatible or out of range.
    pub fn gather(&self, indices: &Tensor) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                op: "gather",
                got: 0,
                expected: ">= 1",
            });
        }
        let indices = indices.cast(DType::I64);
        let idx = indices.as_i64()?;
        let d0 = self.shape()[0];
        let inner: usize = self.shape()[1..].iter().product();
        let mut out_shape = indices.shape().to_vec();
        out_shape.extend_from_slice(&self.shape()[1..]);

        fn run<T: Copy>(v: &[T], idx: &[i64], d0: usize, inner: usize) -> Result<Vec<T>> {
            let mut out = Vec::with_capacity(idx.len() * inner);
            for &i in idx {
                let i = if i < 0 { i + d0 as i64 } else { i };
                if i < 0 || i as usize >= d0 {
                    return Err(TensorError::IndexOutOfRange {
                        op: "gather",
                        index: i,
                        bound: d0,
                    });
                }
                let i = i as usize;
                out.extend_from_slice(&v[i * inner..(i + 1) * inner]);
            }
            Ok(out)
        }
        let data = match self.data() {
            Data::F32(v) => Data::F32(run(v, idx, d0, inner)?),
            Data::I64(v) => Data::I64(run(v, idx, d0, inner)?),
            Data::Bool(v) => Data::Bool(run(v, idx, d0, inner)?),
        };
        Ok(Tensor::from_data(data, &out_shape))
    }

    /// Stack tensors of identical shape/dtype along a new axis 0
    /// (the `ag.stack` list idiom of §7.2).
    ///
    /// # Errors
    ///
    /// Fails on an empty input or mismatched shapes/dtypes.
    pub fn stack(tensors: &[Tensor]) -> Result<Tensor> {
        let first = tensors.first().ok_or(TensorError::InvalidArgument {
            op: "stack",
            detail: "cannot stack zero tensors".to_string(),
        })?;
        for t in tensors {
            if t.shape() != first.shape() || t.dtype() != first.dtype() {
                return Err(TensorError::IncompatibleShapes {
                    op: "stack",
                    detail: format!(
                        "expected {:?} {}, got {:?} {}",
                        first.shape(),
                        first.dtype(),
                        t.shape(),
                        t.dtype()
                    ),
                });
            }
        }
        let mut out_shape = vec![tensors.len()];
        out_shape.extend_from_slice(first.shape());
        let data = match first.dtype() {
            DType::F32 => {
                let mut v = Vec::with_capacity(first.num_elements() * tensors.len());
                for t in tensors {
                    v.extend_from_slice(t.as_f32()?);
                }
                Data::F32(v)
            }
            DType::I64 => {
                let mut v = Vec::with_capacity(first.num_elements() * tensors.len());
                for t in tensors {
                    v.extend_from_slice(t.as_i64()?);
                }
                Data::I64(v)
            }
            DType::Bool => {
                let mut v = Vec::with_capacity(first.num_elements() * tensors.len());
                for t in tensors {
                    v.extend_from_slice(t.as_bool()?);
                }
                Data::Bool(v)
            }
        };
        Ok(Tensor::from_data(data, &out_shape))
    }

    /// Concatenate along an existing axis.
    ///
    /// # Errors
    ///
    /// Fails on an empty input, a bad axis, or mismatched non-concat dims.
    pub fn concat(tensors: &[Tensor], axis: isize) -> Result<Tensor> {
        let first = tensors.first().ok_or(TensorError::InvalidArgument {
            op: "concat",
            detail: "cannot concat zero tensors".to_string(),
        })?;
        let rank = first.rank();
        let ax = if axis < 0 { axis + rank as isize } else { axis };
        if ax < 0 || ax as usize >= rank {
            return Err(TensorError::IndexOutOfRange {
                op: "concat",
                index: axis as i64,
                bound: rank,
            });
        }
        let ax = ax as usize;
        let mut concat_dim = 0;
        for t in tensors {
            if t.rank() != rank || t.dtype() != first.dtype() {
                return Err(TensorError::IncompatibleShapes {
                    op: "concat",
                    detail: "rank or dtype mismatch".to_string(),
                });
            }
            for d in 0..rank {
                if d != ax && t.shape()[d] != first.shape()[d] {
                    return Err(TensorError::IncompatibleShapes {
                        op: "concat",
                        detail: format!(
                            "{:?} vs {:?} at non-concat dim {d}",
                            first.shape(),
                            t.shape()
                        ),
                    });
                }
            }
            concat_dim += t.shape()[ax];
        }
        let mut out_shape = first.shape().to_vec();
        out_shape[ax] = concat_dim;
        let outer: usize = first.shape()[..ax].iter().product();
        let inner: usize = first.shape()[ax + 1..].iter().product();

        fn run<T: Copy>(parts: Vec<(&[T], usize)>, outer: usize, inner: usize) -> Vec<T> {
            let mut out = Vec::new();
            for o in 0..outer {
                for &(v, mid) in &parts {
                    out.extend_from_slice(&v[o * mid * inner..(o + 1) * mid * inner]);
                }
            }
            out
        }
        let widths = tensors.iter().map(|t| t.shape()[ax]);
        let data = match first.dtype() {
            DType::F32 => {
                let parts = tensors.iter().map(Tensor::as_f32).zip(widths);
                let parts = parts.map(|(v, w)| Ok((v?, w))).collect::<Result<_>>()?;
                Data::F32(run(parts, outer, inner))
            }
            DType::I64 => {
                let parts = tensors.iter().map(Tensor::as_i64).zip(widths);
                let parts = parts.map(|(v, w)| Ok((v?, w))).collect::<Result<_>>()?;
                Data::I64(run(parts, outer, inner))
            }
            DType::Bool => {
                let parts = tensors.iter().map(Tensor::as_bool).zip(widths);
                let parts = parts.map(|(v, w)| Ok((v?, w))).collect::<Result<_>>()?;
                Data::Bool(run(parts, outer, inner))
            }
        };
        Ok(Tensor::from_data(data, &out_shape))
    }

    /// One-hot encode an i64 tensor into f32 with `depth` classes appended
    /// as the last axis.
    ///
    /// # Errors
    ///
    /// Fails when indices are not integer or out of `[0, depth)`.
    pub fn one_hot(&self, depth: usize) -> Result<Tensor> {
        let idx = self.cast(DType::I64);
        let idx = idx.as_i64()?;
        let mut out = vec![0.0f32; idx.len() * depth];
        for (r, &i) in idx.iter().enumerate() {
            if i < 0 || i as usize >= depth {
                return Err(TensorError::IndexOutOfRange {
                    op: "one_hot",
                    index: i,
                    bound: depth,
                });
            }
            out[r * depth + i as usize] = 1.0;
        }
        let mut out_shape = self.shape().to_vec();
        out_shape.push(depth);
        Ok(Tensor::from_data(Data::F32(out), &out_shape))
    }

    /// Top-k values and indices along the last axis, sorted descending
    /// (like `tf.math.top_k`). Returns `(values, indices)`.
    ///
    /// # Errors
    ///
    /// Fails for boolean or rank-0 tensors, or `k` larger than the last
    /// dimension.
    pub fn top_k(&self, k: usize) -> Result<(Tensor, Tensor)> {
        let Some(&cols) = self.shape().last() else {
            return Err(TensorError::RankMismatch {
                op: "top_k",
                got: 0,
                expected: ">= 1",
            });
        };
        let t = self.cast(DType::F32);
        let v = t.as_f32()?;
        if k > cols {
            return Err(TensorError::InvalidArgument {
                op: "top_k",
                detail: format!("k={k} exceeds last dimension {cols}"),
            });
        }
        let rows = t.num_elements() / cols.max(1);
        let mut vals = Vec::with_capacity(rows * k);
        let mut idxs = Vec::with_capacity(rows * k);
        let mut order: Vec<usize> = Vec::with_capacity(cols);
        fn cmp(row: &[f32]) -> impl Fn(&usize, &usize) -> std::cmp::Ordering + '_ {
            move |a: &usize, b: &usize| {
                row[*b]
                    .partial_cmp(&row[*a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(b))
            }
        }
        for r in 0..rows {
            let row = &v[r * cols..(r + 1) * cols];
            order.clear();
            order.extend(0..cols);
            // partial selection first (O(n)), then sort only the top k
            if k > 0 && k < cols {
                order.select_nth_unstable_by(k - 1, cmp(row));
                order.truncate(k);
            }
            order.sort_by(cmp(row));
            for &j in order.iter().take(k) {
                vals.push(row[j]);
                idxs.push(j as i64);
            }
        }
        let mut out_shape = t.shape().to_vec();
        out_shape.pop();
        out_shape.push(k);
        Ok((
            Tensor::from_data(Data::F32(vals), &out_shape),
            Tensor::from_data(Data::I64(idxs), &out_shape),
        ))
    }

    /// Insert a size-1 axis at `axis` (negative counts from the end,
    /// inclusive of rank).
    ///
    /// # Errors
    ///
    /// Fails when `axis` is out of `[-rank-1, rank]`.
    pub fn expand_dims(&self, axis: isize) -> Result<Tensor> {
        let rank = self.rank() as isize;
        let ax = if axis < 0 { axis + rank + 1 } else { axis };
        if ax < 0 || ax > rank {
            return Err(TensorError::IndexOutOfRange {
                op: "expand_dims",
                index: axis as i64,
                bound: self.rank() + 1,
            });
        }
        let mut dims = self.shape().to_vec();
        dims.insert(ax as usize, 1);
        self.reshape(&dims)
    }

    /// Remove all size-1 axes (or one specific axis when given).
    ///
    /// # Errors
    ///
    /// Fails when the named axis does not have extent 1.
    pub fn squeeze(&self, axis: Option<isize>) -> Result<Tensor> {
        match axis {
            None => {
                let dims: Vec<usize> = self.shape().iter().cloned().filter(|&d| d != 1).collect();
                self.reshape(&dims)
            }
            Some(a) => {
                let rank = self.rank() as isize;
                let ax = if a < 0 { a + rank } else { a };
                if ax < 0 || ax >= rank {
                    return Err(TensorError::IndexOutOfRange {
                        op: "squeeze",
                        index: a as i64,
                        bound: self.rank(),
                    });
                }
                if self.shape()[ax as usize] != 1 {
                    return Err(TensorError::InvalidArgument {
                        op: "squeeze",
                        detail: format!("axis {a} has extent {}", self.shape()[ax as usize]),
                    });
                }
                let mut dims = self.shape().to_vec();
                dims.remove(ax as usize);
                self.reshape(&dims)
            }
        }
    }

    /// Tile a tensor `reps` times along axis 0.
    ///
    /// # Errors
    ///
    /// Fails for rank-0 tensors.
    pub fn tile_axis0(&self, reps: usize) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                op: "tile",
                got: 0,
                expected: ">= 1",
            });
        }
        let mut out_shape = self.shape().to_vec();
        out_shape[0] *= reps;
        let data = match self.data() {
            Data::F32(v) => Data::F32(v.iter().cloned().cycle().take(v.len() * reps).collect()),
            Data::I64(v) => Data::I64(v.iter().cloned().cycle().take(v.len() * reps).collect()),
            Data::Bool(v) => Data::Bool(v.iter().cloned().cycle().take(v.len() * reps).collect()),
        };
        Ok(Tensor::from_data(data, &out_shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t23() -> Tensor {
        Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap()
    }

    #[test]
    fn index_axis0() {
        let r = t23().index_axis0(1).unwrap();
        assert_eq!(r.shape(), &[3]);
        assert_eq!(r.as_f32().unwrap(), &[4.0, 5.0, 6.0]);
        let neg = t23().index_axis0(-1).unwrap();
        assert_eq!(neg.as_f32().unwrap(), &[4.0, 5.0, 6.0]);
        assert!(t23().index_axis0(2).is_err());
        assert!(Tensor::scalar_f32(1.0).index_axis0(0).is_err());
    }

    #[test]
    fn setitem_value_semantics() {
        let orig = t23();
        let row = Tensor::from_vec(vec![9.0, 9.0, 9.0], &[3]).unwrap();
        let updated = orig.set_index_axis0(0, &row).unwrap();
        assert_eq!(updated.as_f32().unwrap(), &[9.0, 9.0, 9.0, 4.0, 5.0, 6.0]);
        // original untouched
        assert_eq!(orig.as_f32().unwrap()[0], 1.0);
        assert!(orig.set_index_axis0(5, &row).is_err());
        let bad = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        assert!(orig.set_index_axis0(0, &bad).is_err());
    }

    #[test]
    fn slices() {
        let a = Tensor::from_vec((0..5).map(|x| x as f32).collect(), &[5]).unwrap();
        assert_eq!(
            a.slice_axis0(Some(1), Some(3)).unwrap().as_f32().unwrap(),
            &[1.0, 2.0]
        );
        assert_eq!(
            a.slice_axis0(None, Some(-2)).unwrap().as_f32().unwrap(),
            &[0.0, 1.0, 2.0]
        );
        assert_eq!(a.slice_axis0(Some(4), Some(2)).unwrap().num_elements(), 0);
        assert_eq!(a.slice_axis0(Some(-100), None).unwrap().num_elements(), 5);
    }

    #[test]
    fn gather_rows() {
        let idx = Tensor::from_vec_i64(vec![1, 0, 1], &[3]).unwrap();
        let g = t23().gather(&idx).unwrap();
        assert_eq!(g.shape(), &[3, 3]);
        assert_eq!(g.as_f32().unwrap()[0], 4.0);
        assert!(t23().gather(&Tensor::scalar_i64(7)).is_err());
        // negative index
        let g2 = t23().gather(&Tensor::scalar_i64(-1)).unwrap();
        assert_eq!(g2.shape(), &[3]);
        assert_eq!(g2.as_f32().unwrap(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn stack_and_concat() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        let s = Tensor::stack(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.as_f32().unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        let c = Tensor::concat(&[a.clone(), b.clone()], 0).unwrap();
        assert_eq!(c.shape(), &[4]);
        assert!(Tensor::stack(&[]).is_err());
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let cc = Tensor::concat(&[m.clone(), m.clone()], 1).unwrap();
        assert_eq!(cc.shape(), &[2, 4]);
        assert_eq!(
            cc.as_f32().unwrap(),
            &[1.0, 2.0, 1.0, 2.0, 3.0, 4.0, 3.0, 4.0]
        );
        assert!(Tensor::concat(&[a, m], 0).is_err());
    }

    #[test]
    fn one_hot_encodes() {
        let idx = Tensor::from_vec_i64(vec![0, 2], &[2]).unwrap();
        let oh = idx.one_hot(3).unwrap();
        assert_eq!(oh.shape(), &[2, 3]);
        assert_eq!(oh.as_f32().unwrap(), &[1.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        assert!(Tensor::scalar_i64(5).one_hot(3).is_err());
    }

    #[test]
    fn top_k_sorted_with_ties() {
        let a = Tensor::from_vec(vec![1.0, 5.0, 3.0, 5.0], &[4]).unwrap();
        let (v, i) = a.top_k(3).unwrap();
        assert_eq!(v.as_f32().unwrap(), &[5.0, 5.0, 3.0]);
        assert_eq!(i.as_i64().unwrap(), &[1, 3, 2]); // stable tie-break by index
        assert!(a.top_k(5).is_err());
    }

    #[test]
    fn top_k_batched() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 6.0, 5.0, 4.0], &[2, 3]).unwrap();
        let (v, i) = a.top_k(2).unwrap();
        assert_eq!(v.shape(), &[2, 2]);
        assert_eq!(v.as_f32().unwrap(), &[3.0, 2.0, 6.0, 5.0]);
        assert_eq!(i.as_i64().unwrap(), &[2, 1, 0, 1]);
    }

    #[test]
    fn expand_squeeze_tile() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let e = a.expand_dims(0).unwrap();
        assert_eq!(e.shape(), &[1, 2]);
        let e2 = a.expand_dims(-1).unwrap();
        assert_eq!(e2.shape(), &[2, 1]);
        assert_eq!(e.squeeze(Some(0)).unwrap().shape(), &[2]);
        assert!(e.squeeze(Some(1)).is_err());
        assert_eq!(e.squeeze(None).unwrap().shape(), &[2]);
        let t = a.tile_axis0(3).unwrap();
        assert_eq!(t.shape(), &[6]);
        assert_eq!(t.as_f32().unwrap(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }
}
