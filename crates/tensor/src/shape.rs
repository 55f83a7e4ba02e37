//! Shapes, strides and NumPy-style broadcasting.

use crate::{Result, TensorError};

/// A tensor shape: the extent of each dimension, outermost first.
///
/// A scalar has the empty shape `[]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Construct from a slice of dimension extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (1 for scalars).
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// The element count of `dims`; `None` when it overflows `usize`.
    pub fn checked_count(dims: &[usize]) -> Option<usize> {
        dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Row-major strides (in elements) for this shape.
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0; self.0.len()];
        let mut acc = 1;
        for (i, &d) in self.0.iter().enumerate().rev() {
            strides[i] = acc;
            acc *= d;
        }
        strides
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

/// Compute the broadcast of two shapes per NumPy rules.
///
/// Dimensions are aligned from the right; each pair must be equal or one of
/// them must be 1.
///
/// # Errors
///
/// Returns [`TensorError::BroadcastMismatch`] when a dimension pair is
/// incompatible.
pub(crate) fn broadcast_shapes(lhs: &[usize], rhs: &[usize]) -> Result<Vec<usize>> {
    let mut out = lhs.to_vec();
    if broadcast_into(&mut out, rhs) {
        Ok(out)
    } else {
        Err(TensorError::BroadcastMismatch {
            lhs: lhs.to_vec(),
            rhs: rhs.to_vec(),
        })
    }
}

/// Broadcast `shape` into `acc` in place; `false` (with `acc` left
/// partly merged) when they do not broadcast.
pub(crate) fn broadcast_into(acc: &mut Vec<usize>, shape: &[usize]) -> bool {
    if shape.len() > acc.len() {
        let pad = shape.len() - acc.len();
        acc.splice(0..0, std::iter::repeat_n(1, pad));
    }
    let offset = acc.len() - shape.len();
    for (o, &d) in acc[offset..].iter_mut().zip(shape) {
        if *o == 1 {
            *o = d;
        } else if d != *o && d != 1 {
            return false;
        }
    }
    true
}

/// Strip length of the elementwise kernels: fused programs and
/// broadcasting kernels walk their output in strips of this many
/// elements, so per-strip work (op dispatch, operand positioning) is
/// amortised and every inner loop is a straight slice loop over lanes
/// that stay in L1.
pub(crate) const CHUNK: usize = 256;

/// One collapsed outer dimension of a [`RunWalker`], with its odometer
/// coordinate.
#[derive(Debug, Clone)]
struct Axis {
    extent: usize,
    /// Input elements to step per increment of this axis (0 = broadcast).
    stride: usize,
    coord: usize,
}

/// Division-free reader of an operand broadcast up to an output shape.
///
/// The output dimensions collapse into an inner *run* — consecutive
/// output elements that read either consecutive input elements
/// (`copy_from_slice`) or one repeated input element (`fill`) — and an
/// outer odometer over whatever does not merge into the run. Walking the
/// output in order therefore costs one odometer step per run and no
/// division per element; only [`RunWalker::fill`] from a position other
/// than where the previous call stopped pays a seek.
#[derive(Debug, Clone)]
pub(crate) struct RunWalker {
    /// Output elements per run (1 when the output has no extent above 1).
    run: usize,
    /// Whether a run reads consecutive input elements (else one element).
    contiguous: bool,
    /// Collapsed outer dimensions, innermost first.
    outer: Vec<Axis>,
    /// Cursor: flat output index the next sequential `fill` starts at.
    pos: usize,
    /// Cursor: input offset of the current run's first element.
    base: usize,
    /// Cursor: output elements of the current run already produced.
    off: usize,
}

impl RunWalker {
    /// Lay `in_shape` out against the `out_shape` it broadcasts to.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible; callers are
    /// expected to have validated with [`broadcast_shapes`] first.
    pub(crate) fn new(in_shape: &[usize], out_shape: &[usize]) -> Self {
        let offset = out_shape.len() - in_shape.len();
        let mut walker = RunWalker {
            run: 1,
            contiguous: true,
            outer: Vec::new(),
            pos: 0,
            base: 0,
            off: 0,
        };
        // the group being merged, innermost dims first
        let mut group: Option<(usize, usize)> = None;
        let mut in_stride = 1;
        for (i, &extent) in out_shape.iter().enumerate().rev() {
            let d = if i >= offset { in_shape[i - offset] } else { 1 };
            assert!(
                d == extent || d == 1,
                "shape {in_shape:?} does not broadcast to {out_shape:?}"
            );
            let stride = if d == 1 { 0 } else { in_stride };
            in_stride *= d;
            if extent == 1 {
                continue;
            }
            group = match group {
                None => Some((extent, stride)),
                // the outer dim continues the inner group's pattern
                Some((e, s)) if stride == s * e => Some((e * extent, s)),
                Some(done) => {
                    walker.push_group(done);
                    Some((extent, stride))
                }
            };
        }
        if let Some(done) = group {
            walker.push_group(done);
        }
        walker
    }

    /// The innermost group becomes the run, later ones odometer axes.
    fn push_group(&mut self, (extent, stride): (usize, usize)) {
        if self.run == 1 && self.outer.is_empty() {
            // stride is 0 or 1 here: every dim inside the innermost
            // non-unit output dim has extent 1 in the input too
            self.run = extent;
            self.contiguous = stride != 0;
        } else {
            self.outer.push(Axis {
                extent,
                stride,
                coord: 0,
            });
        }
    }

    /// Whether no broadcasting happens: one contiguous run covers the
    /// whole output, so output index `i` reads input index `i`.
    pub(crate) fn is_identity(&self) -> bool {
        self.contiguous && self.outer.is_empty()
    }

    /// Whether every output element reads the same, single input element.
    pub(crate) fn is_single(&self) -> bool {
        !self.contiguous && self.outer.is_empty()
    }

    /// Write output elements `start .. start + dst.len()` of `src`
    /// broadcast to the output shape into `dst`.
    pub(crate) fn fill<T: Copy>(&mut self, src: &[T], start: usize, dst: &mut [T]) {
        if self.outer.is_empty() {
            if self.contiguous {
                dst.copy_from_slice(&src[start..start + dst.len()]);
            } else if let Some(&x) = src.first() {
                dst.fill(x);
            }
            return;
        }
        if self.pos != start {
            self.seek(start);
        }
        let mut done = 0;
        while done < dst.len() {
            let take = (self.run - self.off).min(dst.len() - done);
            let piece = &mut dst[done..done + take];
            if self.contiguous {
                let from = self.base + self.off;
                piece.copy_from_slice(&src[from..from + take]);
            } else {
                piece.fill(src[self.base]);
            }
            done += take;
            self.off += take;
            if self.off == self.run {
                self.off = 0;
                self.next_run();
            }
        }
        self.pos = start + dst.len();
    }

    /// Step the odometer to the next run.
    fn next_run(&mut self) {
        for axis in &mut self.outer {
            axis.coord += 1;
            self.base += axis.stride;
            if axis.coord < axis.extent {
                return;
            }
            self.base -= axis.stride * axis.extent;
            axis.coord = 0;
        }
    }

    /// Position the odometer on the run holding output index `start`.
    fn seek(&mut self, start: usize) {
        let mut r = start / self.run;
        self.off = start % self.run;
        self.base = 0;
        for axis in &mut self.outer {
            axis.coord = r % axis.extent;
            r /= axis.extent;
            self.base += axis.coord * axis.stride;
        }
    }
}

/// Per-element index mapping — the definition of broadcasting the
/// [`RunWalker`] is tested against: maps a flat index in the output
/// shape to a flat index in a (possibly lower-rank, broadcast) input.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct BroadcastMap {
    /// For each output dimension, the input stride (0 where broadcast).
    strides: Vec<usize>,
    out_shape: Vec<usize>,
}

#[cfg(test)]
impl BroadcastMap {
    pub(crate) fn new(in_shape: &[usize], out_shape: &[usize]) -> Self {
        let rank = out_shape.len();
        let offset = rank - in_shape.len();
        let in_strides = Shape::new(in_shape).strides();
        let mut strides = vec![0; rank];
        for i in offset..rank {
            let d = in_shape[i - offset];
            assert!(d == out_shape[i] || d == 1);
            strides[i] = if d == 1 { 0 } else { in_strides[i - offset] };
        }
        BroadcastMap {
            strides,
            out_shape: out_shape.to_vec(),
        }
    }

    pub(crate) fn map(&self, mut flat: usize) -> usize {
        let mut idx = 0;
        for i in (0..self.out_shape.len()).rev() {
            let d = self.out_shape[i];
            let coord = flat % d;
            flat /= d;
            idx += coord * self.strides[i];
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[]).strides(), Vec::<usize>::new());
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
    }

    #[test]
    fn num_elements() {
        assert_eq!(Shape::new(&[]).num_elements(), 1);
        assert_eq!(Shape::new(&[2, 3]).num_elements(), 6);
        assert_eq!(Shape::new(&[0, 3]).num_elements(), 0);
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 3]).unwrap(), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[], &[4]).unwrap(), vec![4]);
        assert_eq!(broadcast_shapes(&[7], &[]).unwrap(), vec![7]);
    }

    #[test]
    fn broadcast_mismatch() {
        assert!(broadcast_shapes(&[2, 3], &[4]).is_err());
        assert!(broadcast_shapes(&[2], &[3]).is_err());
    }

    #[test]
    fn broadcast_map_scalar() {
        let m = BroadcastMap::new(&[], &[2, 2]);
        for i in 0..4 {
            assert_eq!(m.map(i), 0);
        }
    }

    #[test]
    fn broadcast_map_row() {
        // [3] broadcast to [2,3]: output (i,j) -> input j
        let m = BroadcastMap::new(&[3], &[2, 3]);
        assert_eq!(
            (0..6).map(|i| m.map(i)).collect::<Vec<_>>(),
            vec![0, 1, 2, 0, 1, 2]
        );
    }

    #[test]
    fn broadcast_map_col() {
        // [2,1] broadcast to [2,3]: output (i,j) -> input i
        let m = BroadcastMap::new(&[2, 1], &[2, 3]);
        assert_eq!(
            (0..6).map(|i| m.map(i)).collect::<Vec<_>>(),
            vec![0, 0, 0, 1, 1, 1]
        );
    }

    #[test]
    fn identity_detection() {
        assert!(RunWalker::new(&[2, 3], &[2, 3]).is_identity());
        assert!(RunWalker::new(&[2, 1, 3, 1], &[2, 1, 3, 1]).is_identity());
        assert!(RunWalker::new(&[], &[1, 1]).is_identity());
        assert!(!RunWalker::new(&[1, 3], &[2, 3]).is_identity());
        assert!(!RunWalker::new(&[], &[2]).is_identity());
    }

    /// Every output element, read back through `fill` in strips of
    /// `strip` elements.
    fn walk(in_shape: &[usize], out_shape: &[usize], strip: usize) -> Vec<usize> {
        let src: Vec<usize> = (0..in_shape.iter().product()).collect();
        let n: usize = out_shape.iter().product();
        let mut w = RunWalker::new(in_shape, out_shape);
        let mut got = vec![usize::MAX; n];
        let mut start = 0;
        while start < n {
            let len = strip.min(n - start);
            w.fill(&src, start, &mut got[start..start + len]);
            start += len;
        }
        got
    }

    #[test]
    fn walker_matches_per_element_map_on_random_shapes() {
        let mut rng = crate::Rng64::new(0x5eed);
        let mut pick = |options: &[usize]| options[rng.next_below(options.len() as u64) as usize];
        for case in 0..2000 {
            let rank = pick(&[0, 1, 2, 3, 4, 5]);
            let out_shape: Vec<usize> =
                (0..rank).map(|_| pick(&[1, 1, 2, 3, 4, 5, 7, 0])).collect();
            // drop leading dims, broadcast a random subset of the rest
            let keep = pick(&[0, 1, 2, 3, 4, 5]).min(rank);
            let in_shape: Vec<usize> = out_shape[rank - keep..]
                .iter()
                .map(|&d| if pick(&[0, 1, 2]) == 0 { 1 } else { d })
                .collect();
            let oracle = BroadcastMap::new(&in_shape, &out_shape);
            let n: usize = out_shape.iter().product();
            let want: Vec<usize> = (0..n).map(|i| oracle.map(i)).collect();
            for strip in [1, 3, 8, CHUNK] {
                assert_eq!(
                    walk(&in_shape, &out_shape, strip),
                    want,
                    "case {case}: {in_shape:?} -> {out_shape:?}, strips of {strip}"
                );
            }
            // out-of-order strips take the seek path
            let src: Vec<usize> = (0..in_shape.iter().product()).collect();
            let mut w = RunWalker::new(&in_shape, &out_shape);
            for _ in 0..4 {
                if n == 0 {
                    break;
                }
                let start = pick(&[0, 1, 2, 5, 11, 17]) % n;
                let len = pick(&[1, 2, 6, 13]).min(n - start);
                let mut got = vec![usize::MAX; len];
                w.fill(&src, start, &mut got);
                assert_eq!(
                    got,
                    &want[start..start + len],
                    "case {case}: {in_shape:?} -> {out_shape:?}, seek to {start}"
                );
            }
        }
    }

    #[test]
    fn walker_collapses_to_runs() {
        // same shape, and a scalar: one run, no odometer
        assert!(RunWalker::new(&[4, 5], &[4, 5]).outer.is_empty());
        assert!(RunWalker::new(&[], &[4, 5]).outer.is_empty());
        // row bias: a contiguous run per row
        let row = RunWalker::new(&[5], &[4, 5]);
        assert_eq!((row.run, row.contiguous, row.outer.len()), (5, true, 1));
        // column mask: a filled run per row
        let col = RunWalker::new(&[4, 1], &[4, 5]);
        assert_eq!((col.run, col.contiguous, col.outer.len()), (5, false, 1));
        // [a,1,c] into [a,b,c]
        let mixed = RunWalker::new(&[2, 1, 5], &[2, 3, 5]);
        assert_eq!((mixed.run, mixed.outer.len()), (5, 2));
    }
}
