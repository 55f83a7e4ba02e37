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
        self.matmul_t(rhs, false, false)
    }

    /// `op(self) · op(rhs)`, where `op` transposes the trailing two axes
    /// of its operand when the matching flag is set (TF's
    /// `transpose_a`/`transpose_b`). The kernel reads a transposed operand
    /// in place; no transposed copy is materialised.
    ///
    /// # Errors
    ///
    /// As [`Tensor::matmul`].
    pub fn matmul_t(&self, rhs: &Tensor, transpose_a: bool, transpose_b: bool) -> Result<Tensor> {
        if self.dtype() == DType::Bool || rhs.dtype() == DType::Bool {
            return Err(TensorError::DTypeMismatch {
                op: "matmul",
                got: DType::Bool,
                expected: DType::F32,
            });
        }
        let a = self.cast(DType::F32);
        let b = rhs.cast(DType::F32);
        let rank = a.rank();
        if !(rank == 2 || rank == 3) || b.rank() != rank {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                got: rank,
                expected: "2 (or batched 3)",
            });
        }
        // as multiplied: op(a) is [m, k], op(b) is [k2, n]
        let dims = |s: &[usize], transpose: bool| {
            let (r, c) = (s[rank - 2], s[rank - 1]);
            if transpose {
                (c, r)
            } else {
                (r, c)
            }
        };
        let (m, k) = dims(a.shape(), transpose_a);
        let (k2, n) = dims(b.shape(), transpose_b);
        let batch = if rank == 3 { a.shape()[0] } else { 1 };
        if k != k2 || (rank == 3 && b.shape()[0] != batch) {
            let mark = |t: bool| if t { "^T" } else { "" };
            return Err(TensorError::IncompatibleShapes {
                op: "matmul",
                detail: format!(
                    "{:?}{} x {:?}{}",
                    a.shape(),
                    mark(transpose_a),
                    b.shape(),
                    mark(transpose_b)
                ),
            });
        }
        let (av, bv) = (a.as_f32()?, b.as_f32()?);
        // one buffer for every batch; slices taken by index, because
        // zipped `chunks` pay three divisions a call, a sixth of a
        // `[1, 8] x [8, 8]` product
        let mut out = vec![0.0f32; batch * m * n];
        // k = 0: an empty sum is the zero `out` already holds
        if k > 0 {
            for i in 0..batch {
                gemm(
                    Operand::new(&av[i * m * k..(i + 1) * m * k], m, k, transpose_a),
                    Operand::new(&bv[i * k * n..(i + 1) * k * n], k, n, transpose_b),
                    (m, k, n),
                    &mut out[i * m * n..(i + 1) * m * n],
                );
            }
        }
        let shape = [batch, m, n];
        Ok(Tensor::from_data(Data::F32(out), &shape[3 - rank..]))
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
/// worker pool costs more than it saves: the hand-off costs tens of
/// microseconds, which is what this many flops take on one thread.
const MATMUL_PAR_MIN_FLOPS: usize = 1 << 20;

/// Output rows per register tile.
const MR: usize = 4;
/// Output columns per register tile: `MR x NR` accumulators fill half of
/// baseline x86-64's sixteen vector registers.
const NR: usize = 8;
/// Columns of the one-row tile rows past the last full `MR` block use:
/// the same accumulator budget laid out in a row, so `m = 1` still runs
/// eight independent vector add chains.
const ROW_NR: usize = MR * NR;
/// Stack scratch (in f32s) for one packed panel of `B`.
const PACK_LEN: usize = 512;

/// One matmul operand as multiplied (`op(X)`), read in place through a
/// (row stride, column stride) pair: a transposed operand swaps the two.
#[derive(Clone, Copy)]
struct Operand<'a> {
    data: &'a [f32],
    row_stride: usize,
    col_stride: usize,
}

impl<'a> Operand<'a> {
    /// `op(X)` of shape `[rows, cols]` over row-major `data`, which holds
    /// `[cols, rows]` when `transpose` is set.
    fn new(data: &'a [f32], rows: usize, cols: usize, transpose: bool) -> Operand<'a> {
        let (row_stride, col_stride) = if transpose { (1, rows) } else { (cols, 1) };
        Operand {
            data,
            row_stride,
            col_stride,
        }
    }
}

/// `out = A · B` for `A: [m, k]`, `B: [k, n]`, `k > 0`, `out` row-major
/// `[m, n]`.
///
/// Every output element is the sum of its `k` products taken in the order
/// `p = 0..k` starting from `+0.0`, whatever the tile it falls in, so the
/// result is bitwise that of the naive triple loop. Large products split
/// by `MR`-row blocks across the shared worker pool; each block is written
/// by exactly one thread, so the result is also independent of the thread
/// count.
fn gemm(a: Operand, b: Operand, (m, k, n): (usize, usize, usize), out: &mut [f32]) {
    let blocks = m.div_ceil(MR);
    if 2 * m * k * n >= MATMUL_PAR_MIN_FLOPS && blocks > 1 && autograph_par::threads() > 1 {
        // row blocks are disjoint slices of `out`; share the base pointer
        // as an integer because raw pointers are not Sync
        let out_addr = out.as_mut_ptr() as usize;
        autograph_par::parallel_for(blocks, 1, &|blocks| {
            let rows = blocks.start * MR..(blocks.end * MR).min(m);
            // SAFETY: each block index lands in exactly one chunk, so the
            // row ranges are disjoint, each is written by exactly one
            // thread, all lie inside `out` (`rows.end <= m`) and none
            // outlives it (`parallel_for` blocks until every chunk is
            // done).
            let out_rows = unsafe {
                std::slice::from_raw_parts_mut(
                    (out_addr as *mut f32).add(rows.start * n),
                    rows.len() * n,
                )
            };
            gemm_rows(a, b, rows, k, n, out_rows);
        });
    } else {
        gemm_rows(a, b, 0..m, k, n, out);
    }
}

/// The output rows `rows` (`out` starts at the first of them): full `MR`
/// blocks in `MR x NR` tiles, the rows left over in one-row tiles.
fn gemm_rows(
    a: Operand,
    b: Operand,
    rows: std::ops::Range<usize>,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    let full = rows.len() / MR * MR;
    let (out_full, out_rest) = out.split_at_mut(full * n);
    let mid = rows.start + full;
    if full > 0 {
        gemm_panels::<MR, NR>(a, b, rows.start..mid, k, n, 0..n, out_full);
    }
    if mid < rows.end {
        let wide = n / ROW_NR * ROW_NR;
        if wide > 0 {
            gemm_panels::<1, ROW_NR>(a, b, mid..rows.end, k, n, 0..wide, out_rest);
        }
        if wide < n {
            gemm_panels::<1, NR>(a, b, mid..rows.end, k, n, wide..n, out_rest);
        }
    }
}

/// The output block `rows x cols` in `R x C` tiles (`rows.len()` is a
/// multiple of `R`; `out` starts at the first row, `n` floats per row).
///
/// Column blocks are the outer loop so one panel of `B` serves every row
/// block. A full-width block of an untransposed `B` is read where it
/// lies. Anything else — a transposed `B`, whose rows a tile would have
/// to gather with stride `k`, or the ragged last block — is first packed
/// into `k x C` form on the stack, `PACK_LEN / C` rows of `k` at a time;
/// the tile resumes from the partial sums in `out`, so chunking does not
/// change the order of additions.
fn gemm_panels<const R: usize, const C: usize>(
    a: Operand,
    b: Operand,
    rows: std::ops::Range<usize>,
    k: usize,
    n: usize,
    cols: std::ops::Range<usize>,
    out: &mut [f32],
) {
    // every row block against the rows `p0..p0 + kc` of one panel
    let mut tiles = |j0: usize, nr: usize, panel: &[f32], ldb: usize, p0: usize, kc: usize| {
        for (block, i0) in rows.clone().step_by(R).enumerate() {
            tile::<R, C>(
                &a.data[i0 * a.row_stride + p0 * a.col_stride..],
                (a.row_stride, a.col_stride),
                (panel, ldb),
                kc,
                p0 > 0,
                (&mut out[block * R * n + j0..], n),
                nr,
            );
        }
    };
    let in_place = if b.col_stride == 1 {
        cols.len() / C * C
    } else {
        0
    };
    let packed_from = cols.start + in_place;
    for j0 in (cols.start..packed_from).step_by(C) {
        tiles(j0, C, &b.data[j0..], b.row_stride, 0, k);
    }
    if packed_from == cols.end {
        return;
    }
    // columns past `nr` keep whatever an earlier block left there: their
    // accumulators are computed and never stored
    let mut pack = [0.0f32; PACK_LEN];
    for j0 in (packed_from..cols.end).step_by(C) {
        let nr = C.min(cols.end - j0);
        for p0 in (0..k).step_by(PACK_LEN / C) {
            let kc = (PACK_LEN / C).min(k - p0);
            for (p, row) in pack.chunks_exact_mut(C).take(kc).enumerate() {
                let src = &b.data[(p0 + p) * b.row_stride + j0 * b.col_stride..];
                for (j, v) in row[..nr].iter_mut().enumerate() {
                    *v = src[j * b.col_stride];
                }
            }
            tiles(j0, nr, &pack, C, p0, kc);
        }
    }
}

/// One `R x C` register tile: `acc[i][j] += a(i, p) · panel[p][j]` for
/// `p = 0..kc` in order, from `+0.0` or (`resume`) from the partial sums
/// in `out`; the first `nr` columns are stored back.
///
/// No zero-multiplicand skip: the accumulator is never `-0.0` (it starts
/// at `+0.0`, and a sum is `-0.0` only when both terms are), so for
/// finite operands adding a `±0.0` product changes nothing, and `0 · inf`
/// is NaN as IEEE 754 says.
#[inline(always)]
// indexed loops: the iterator forms (`chunks`/`zip`) cost 3-25 % here
#[allow(clippy::needless_range_loop)]
fn tile<const R: usize, const C: usize>(
    a: &[f32],
    (a_row, a_col): (usize, usize),
    (panel, ldb): (&[f32], usize),
    kc: usize,
    resume: bool,
    (out, ldo): (&mut [f32], usize),
    nr: usize,
) {
    let mut acc = [[0.0f32; C]; R];
    if resume {
        for i in 0..R {
            acc[i][..nr].copy_from_slice(&out[i * ldo..i * ldo + nr]);
        }
    }
    for p in 0..kc {
        let b_row = &panel[p * ldb..p * ldb + C];
        for i in 0..R {
            let av = a[i * a_row + p * a_col];
            for j in 0..C {
                acc[i][j] += av * b_row[j];
            }
        }
    }
    if nr == C {
        for i in 0..R {
            out[i * ldo..i * ldo + C].copy_from_slice(&acc[i]);
        }
    } else {
        for i in 0..R {
            out[i * ldo..i * ldo + nr].copy_from_slice(&acc[i][..nr]);
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

    /// The definition the kernel must match bit for bit: every output
    /// element sums its products for `p = 0..k` in order from `+0.0`.
    /// `skip_zeros` reproduces the previous kernel, which skipped a zero
    /// multiplicand from `A`. Operands are stored as the flags say.
    fn reference(
        a: &[f32],
        b: &[f32],
        (m, k, n): (usize, usize, usize),
        (ta, tb): (bool, bool),
        skip_zeros: bool,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    let av = if ta { a[p * m + i] } else { a[i * k + p] };
                    let bv = if tb { b[j * k + p] } else { b[p * n + j] };
                    if !(skip_zeros && av == 0.0) {
                        out[i * n + j] += av * bv;
                    }
                }
            }
        }
        out
    }

    /// Finite values of mixed sign and magnitude, salted with both zeros
    /// and subnormals.
    fn payload(len: usize, seed: usize) -> Vec<f32> {
        (0..len)
            .map(|i| match (i * 7 + seed) % 11 {
                0 => 0.0,
                1 => -0.0,
                2 => 1.0e-40,
                3 => -3.0e-42,
                r => ((i * 37 + seed * 13) % 101) as f32 * 0.13 - 5.0 * r as f32,
            })
            .collect()
    }

    fn assert_bitwise(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    /// `shape` as stored: the trailing two axes swap under the flag.
    fn stored(batch: Option<usize>, rows: usize, cols: usize, transpose: bool) -> Vec<usize> {
        let (r, c) = if transpose {
            (cols, rows)
        } else {
            (rows, cols)
        };
        batch.into_iter().chain([r, c]).collect()
    }

    #[test]
    fn matmul_is_bitwise_the_naive_triple_loop_at_every_tile_edge() {
        let edges = [0, 1, MR - 1, MR, MR + 1, NR - 1, NR, NR + 1, 2 * NR + 3];
        // past one one-row tile, and past one packed chunk of k
        let ns = [&edges[..], &[ROW_NR + 1]].concat();
        let ks = [&edges[..], &[PACK_LEN / NR + 1]].concat();
        for &m in &edges {
            for &k in &ks {
                for &n in &ns {
                    for flags in [(false, false), (false, true), (true, false), (true, true)] {
                        for batch in [None, Some(2)] {
                            let bt = batch.unwrap_or(1);
                            let av = payload(bt * m * k, 1);
                            let bv = payload(bt * k * n, 2);
                            let a = Tensor::from_vec(av.clone(), &stored(batch, m, k, flags.0));
                            let b = Tensor::from_vec(bv.clone(), &stored(batch, k, n, flags.1));
                            let got = a.unwrap().matmul_t(&b.unwrap(), flags.0, flags.1).unwrap();
                            let what = format!("{m}x{k}x{n} {flags:?} batch {batch:?}");
                            assert_eq!(got.shape(), stored(batch, m, n, false), "{what}");
                            let want: Vec<f32> = (0..bt)
                                .flat_map(|i| {
                                    reference(
                                        &av[i * m * k..(i + 1) * m * k],
                                        &bv[i * k * n..(i + 1) * k * n],
                                        (m, k, n),
                                        flags,
                                        false,
                                    )
                                })
                                .collect();
                            assert_bitwise(got.as_f32().unwrap(), &want, &what);
                        }
                    }
                }
            }
        }
    }

    /// The one behaviour change against the kernel this one replaced,
    /// which skipped zero multiplicands of `A`: `0 · inf` and `0 · NaN`
    /// are NaN (IEEE 754, as in TF and every BLAS), not 0. For finite
    /// operands the skip was unobservable.
    #[test]
    fn matmul_does_not_skip_zero_multiplicands() {
        let zero = Tensor::from_vec(vec![0.0], &[1, 1]).unwrap();
        for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let p = Tensor::from_vec(vec![poison], &[1, 1]).unwrap();
            assert!(zero.matmul(&p).unwrap().as_f32().unwrap()[0].is_nan());
            assert!(p.matmul(&zero).unwrap().as_f32().unwrap()[0].is_nan());
        }
        let dims = (MR + 1, NR + 3, 2 * NR + 3);
        let (m, k, n) = dims;
        let (av, bv) = (payload(m * k, 3), payload(k * n, 4));
        assert!(av.iter().any(|&v| v == 0.0 && v.is_sign_negative()));
        let a = Tensor::from_vec(av.clone(), &[m, k]).unwrap();
        let b = Tensor::from_vec(bv.clone(), &[k, n]).unwrap();
        let got = a.matmul(&b).unwrap();
        let skipping = reference(&av, &bv, dims, (false, false), true);
        assert_bitwise(got.as_f32().unwrap(), &skipping, "finite operands");
    }

    /// Above `MATMUL_PAR_MIN_FLOPS` the pool splits the output by `MR`-row
    /// blocks, each written by one thread; `m` leaves a ragged last block.
    /// The pool's budget only grows, so every product is taken before and
    /// after raising it to 4, and both must equal the sequential
    /// definition.
    #[test]
    fn matmul_parallel_bitwise_matches_sequential() {
        let dims = (16 * MR + 3, 128, 64);
        let (m, k, n) = dims;
        assert!(2 * m * k * n >= MATMUL_PAR_MIN_FLOPS);
        let (av, bv) = (payload(m * k, 5), payload(k * n, 6));
        let cases: Vec<_> = [(false, false), (true, true)]
            .into_iter()
            .map(|flags| {
                let a = Tensor::from_vec(av.clone(), &stored(None, m, k, flags.0)).unwrap();
                let b = Tensor::from_vec(bv.clone(), &stored(None, k, n, flags.1)).unwrap();
                (flags, a, b, reference(&av, &bv, dims, flags, false))
            })
            .collect();
        for threads in [1, 4] {
            autograph_par::configure(threads);
            for ((ta, tb), a, b, want) in &cases {
                let got = a.matmul_t(b, *ta, *tb).unwrap();
                assert_bitwise(got.as_f32().unwrap(), want, &format!("threads {threads}"));
            }
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
