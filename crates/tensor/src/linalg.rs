//! Matrix multiplication and axis permutation.

use crate::{DType, Data, Result, Tensor, TensorError};

impl Tensor {
    /// Matrix product of two rank-2 f32 tensors (or batched rank-3, where
    /// the leading dimension is the batch).
    ///
    /// # Errors
    ///
    /// Fails when dtypes are not f32-compatible, ranks are unsupported, or
    /// inner dimensions disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.dtype() == DType::Bool || rhs.dtype() == DType::Bool {
            return Err(TensorError::DTypeMismatch {
                op: "matmul",
                got: DType::Bool,
                expected: DType::F32,
            });
        }
        let a = self.cast(DType::F32);
        let b = rhs.cast(DType::F32);
        match (a.rank(), b.rank()) {
            (2, 2) => {
                let (m, k) = (a.shape()[0], a.shape()[1]);
                let (k2, n) = (b.shape()[0], b.shape()[1]);
                if k != k2 {
                    return Err(TensorError::IncompatibleShapes {
                        op: "matmul",
                        detail: format!("{:?} x {:?}", a.shape(), b.shape()),
                    });
                }
                let out = matmul_2d(a.as_f32()?, b.as_f32()?, m, k, n);
                Ok(Tensor::from_data(Data::F32(out), &[m, n]))
            }
            (3, 3) => {
                let (bt, m, k) = (a.shape()[0], a.shape()[1], a.shape()[2]);
                let (bt2, k2, n) = (b.shape()[0], b.shape()[1], b.shape()[2]);
                if bt != bt2 || k != k2 {
                    return Err(TensorError::IncompatibleShapes {
                        op: "matmul",
                        detail: format!("{:?} x {:?}", a.shape(), b.shape()),
                    });
                }
                let av = a.as_f32()?;
                let bv = b.as_f32()?;
                let mut out = Vec::with_capacity(bt * m * n);
                for i in 0..bt {
                    out.extend(matmul_2d(
                        &av[i * m * k..(i + 1) * m * k],
                        &bv[i * k * n..(i + 1) * k * n],
                        m,
                        k,
                        n,
                    ));
                }
                Ok(Tensor::from_data(Data::F32(out), &[bt, m, n]))
            }
            (ra, _) => Err(TensorError::RankMismatch {
                op: "matmul",
                got: ra,
                expected: "2 (or batched 3)",
            }),
        }
    }

    /// Permute dimensions. `perm` must be a permutation of `0..rank`.
    ///
    /// # Errors
    ///
    /// Fails when `perm` is not a valid permutation of the tensor's axes.
    pub fn transpose(&self, perm: &[usize]) -> Result<Tensor> {
        if perm.len() != self.rank() {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                got: perm.len(),
                expected: "same as tensor rank",
            });
        }
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            if p >= perm.len() || seen[p] {
                return Err(TensorError::InvalidArgument {
                    op: "transpose",
                    detail: format!("{perm:?} is not a permutation"),
                });
            }
            seen[p] = true;
        }
        let in_shape = self.shape();
        let out_shape: Vec<usize> = perm.iter().map(|&p| in_shape[p]).collect();
        let data = match self.data() {
            Data::F32(v) => Data::F32(permute(v, in_shape, perm)),
            Data::I64(v) => Data::I64(permute(v, in_shape, perm)),
            Data::Bool(v) => Data::Bool(permute(v, in_shape, perm)),
        };
        Ok(Tensor::from_data(data, &out_shape))
    }

    /// Rank-2 transpose shorthand (`transpose(&[1, 0])`); identity on rank
    /// 0/1.
    ///
    /// # Errors
    ///
    /// Fails for rank > 2.
    pub fn t(&self) -> Result<Tensor> {
        match self.rank() {
            0 | 1 => Ok(self.clone()),
            2 => self.transpose(&[1, 0]),
            r => Err(TensorError::RankMismatch {
                op: "t",
                got: r,
                expected: "<= 2",
            }),
        }
    }
}

/// Edge of the square tiles a rank-2 transpose copies in, so both the
/// rows it reads and the rows it writes stay in cache.
const TRANSPOSE_TILE: usize = 16;

/// Copy `v` (row-major, `in_shape`) into the axis order `perm`.
///
/// Trailing axes the permutation leaves in place form contiguous runs
/// that move with `extend_from_slice` (the RNN's `(1, 0, 2)`); a rank-2
/// transpose copies tile by tile; anything else walks an odometer over
/// the output with the source offset updated incrementally.
fn permute<T: Copy>(v: &[T], in_shape: &[usize], perm: &[usize]) -> Vec<T> {
    let Some(&first) = v.first() else {
        return Vec::new();
    };
    if perm == [1, 0] {
        let (rows, cols) = (in_shape[0], in_shape[1]);
        let mut out = vec![first; v.len()];
        for i0 in (0..rows).step_by(TRANSPOSE_TILE) {
            for j0 in (0..cols).step_by(TRANSPOSE_TILE) {
                for i in i0..(i0 + TRANSPOSE_TILE).min(rows) {
                    for j in j0..(j0 + TRANSPOSE_TILE).min(cols) {
                        out[j * rows + i] = v[i * cols + j];
                    }
                }
            }
        }
        return out;
    }
    let rank = perm.len();
    let kept = (0..rank).rev().take_while(|&i| perm[i] == i).count();
    let run: usize = in_shape[rank - kept..].iter().product();
    let in_strides = crate::Shape::new(in_shape).strides();
    // the permuted axes as (extent, source stride), innermost first
    let axes: Vec<(usize, usize)> = perm[..rank - kept]
        .iter()
        .rev()
        .map(|&p| (in_shape[p], in_strides[p]))
        .collect();
    let mut coords = vec![0usize; axes.len()];
    let mut out = Vec::with_capacity(v.len());
    let mut src = 0;
    while out.len() < v.len() {
        if run == 1 {
            out.push(v[src]);
        } else {
            out.extend_from_slice(&v[src..src + run]);
        }
        for (coord, &(extent, stride)) in coords.iter_mut().zip(&axes) {
            *coord += 1;
            src += stride;
            if *coord < extent {
                break;
            }
            src -= stride * extent;
            *coord = 0;
        }
    }
    out
}

/// Flop threshold (2*m*k*n) below which splitting a matmul across the
/// worker pool costs more than it saves.
const MATMUL_PAR_MIN_FLOPS: usize = 1 << 18;

/// Inner loop: (m,k) x (k,n) with i-k-j ordering for cache-friendly
/// access. Large products split by output rows across the shared worker
/// pool; each row is produced by exactly one thread with the identical
/// accumulation order of the sequential loop, so the result is bitwise
/// independent of the thread count.
fn matmul_2d(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    if autograph_par::threads() > 1 && m > 1 && 2 * m * k * n >= MATMUL_PAR_MIN_FLOPS {
        // rows are disjoint slices of `out`; share the base pointer as an
        // integer because raw pointers are not Sync
        let out_addr = out.as_mut_ptr() as usize;
        autograph_par::parallel_for(m, 1, &|rows| {
            for i in rows {
                // SAFETY: each row index lands in exactly one chunk, so
                // the m row slices are written by exactly one thread each
                // and none outlives `out`.
                let orow =
                    unsafe { std::slice::from_raw_parts_mut((out_addr as *mut f32).add(i * n), n) };
                matmul_row(&a[i * k..(i + 1) * k], b, n, orow);
            }
        });
    } else {
        for i in 0..m {
            matmul_row(&a[i * k..(i + 1) * k], b, n, &mut out[i * n..(i + 1) * n]);
        }
    }
    out
}

/// One output row: `orow += arow · B`, skipping zero multiplicands.
fn matmul_row(arow: &[f32], b: &[f32], n: usize, orow: &mut [f32]) {
    for (p, &av) in arow.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let brow = &b[p * n..(p + 1) * n];
        for j in 0..n {
            orow[j] += av * brow[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_2x2() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_f32().unwrap(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rect() {
        // (1,3) x (3,2)
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[1, 2]);
        assert_eq!(c.as_f32().unwrap(), &[4.0, 5.0]);
    }

    #[test]
    fn matmul_batched() {
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[2, 2, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0], &[2, 2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(
            c.as_f32().unwrap(),
            &[1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]
        );
    }

    #[test]
    fn matmul_inner_mismatch() {
        let a = Tensor::zeros(DType::F32, &[2, 3]);
        let b = Tensor::zeros(DType::F32, &[4, 2]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_rank_and_dtype_errors() {
        let v = Tensor::zeros(DType::F32, &[3]);
        assert!(v.matmul(&v).is_err());
        let b = Tensor::from_vec_bool(vec![true; 4], &[2, 2]).unwrap();
        assert!(b.matmul(&b).is_err());
    }

    #[test]
    fn matmul_promotes_i64() {
        let a = Tensor::from_vec_i64(vec![1, 2, 3, 4], &[2, 2]).unwrap();
        let c = a.matmul(&a).unwrap();
        assert_eq!(c.dtype(), DType::F32);
        assert_eq!(c.as_f32().unwrap(), &[7.0, 10.0, 15.0, 22.0]);
    }

    #[test]
    fn transpose_2d() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.t().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.as_f32().unwrap(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_3d_102() {
        // the dynamic_rnn transpose: (batch, time, feat) -> (time, batch, feat)
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 3, 2]).unwrap();
        let t = a.transpose(&[1, 0, 2]).unwrap();
        assert_eq!(t.shape(), &[3, 2, 2]);
        assert_eq!(
            t.as_f32().unwrap(),
            &[0.0, 1.0, 6.0, 7.0, 2.0, 3.0, 8.0, 9.0, 4.0, 5.0, 10.0, 11.0]
        );
    }

    /// Every permutation of a rank-4 shape (tiled, run-copy and general
    /// paths, extents that straddle a tile) against the definition:
    /// `out[coords] = in[coords permuted back]`.
    #[test]
    fn transpose_matches_definition_for_all_perms() {
        fn perms(k: usize) -> Vec<Vec<usize>> {
            if k == 0 {
                return vec![vec![]];
            }
            let mut out = Vec::new();
            for p in perms(k - 1) {
                for at in 0..=p.len() {
                    let mut q = p.clone();
                    q.insert(at, k - 1);
                    out.push(q);
                }
            }
            out
        }
        for shape in [
            vec![3usize, 17, 2, 5],
            vec![33, 18],
            vec![1, 40],
            vec![4, 0, 3],
        ] {
            let n: usize = shape.iter().product();
            let a = Tensor::from_vec_i64((0..n as i64).collect(), &shape).unwrap();
            let in_strides = crate::Shape::new(&shape).strides();
            for perm in perms(shape.len()) {
                let t = a.transpose(&perm).unwrap();
                let out_shape: Vec<usize> = perm.iter().map(|&p| shape[p]).collect();
                assert_eq!(t.shape(), out_shape.as_slice());
                let out_strides = crate::Shape::new(&out_shape).strides();
                let want: Vec<i64> = (0..n)
                    .map(|flat| {
                        (0..perm.len())
                            .map(|d| (flat / out_strides[d] % out_shape[d]) * in_strides[perm[d]])
                            .sum::<usize>() as i64
                    })
                    .collect();
                assert_eq!(t.as_i64().unwrap(), want, "{shape:?} perm {perm:?}");
            }
        }
    }

    #[test]
    fn transpose_validates_perm() {
        let a = Tensor::zeros(DType::F32, &[2, 3]);
        assert!(a.transpose(&[0, 0]).is_err());
        assert!(a.transpose(&[0]).is_err());
        assert!(a.transpose(&[0, 2]).is_err());
    }

    #[test]
    fn matmul_parallel_bitwise_matches_sequential() {
        // large enough to clear MATMUL_PAR_MIN_FLOPS (2*64^3 = 524288)
        let (m, k, n) = (64usize, 64usize, 64usize);
        let av: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37 % 101) as f32) * 0.13 - 5.0)
            .collect();
        let bv: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53 % 97) as f32) * 0.11 - 4.0)
            .collect();
        // ground truth with the identical i-k-j accumulation order
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a = av[i * k + p];
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    want[i * n + j] += a * bv[p * n + j];
                }
            }
        }
        autograph_par::configure(4);
        let at = Tensor::from_vec(av, &[m, k]).unwrap();
        let bt = Tensor::from_vec(bv, &[k, n]).unwrap();
        let got = at.matmul(&bt).unwrap();
        for (g, w) in got.as_f32().unwrap().iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]).unwrap();
        let t = a.transpose(&[2, 0, 1]).unwrap();
        let back = t.transpose(&[1, 2, 0]).unwrap();
        assert_eq!(back.as_f32().unwrap(), a.as_f32().unwrap());
    }
}
