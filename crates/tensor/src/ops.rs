//! Elementwise arithmetic, comparison and logical kernels with broadcasting.

use crate::shape::{broadcast_shapes, RunWalker, CHUNK};
use crate::{DType, Data, Result, Tensor, TensorError};

/// Element count above which a same-shape f32 kernel is split across
/// the worker pool (below it the per-chunk dispatch cost dominates).
const ELEMWISE_PAR_MIN: usize = 1 << 15;

/// One operand of a broadcasting kernel, read strip by strip: in place
/// when it already has the output's shape, through a lane of up to
/// [`CHUNK`] elements filled by its [`RunWalker`] otherwise — so the loop
/// applying the kernel is always a straight slice loop.
struct Strips<'a, T> {
    src: &'a [T],
    walker: RunWalker,
    /// Empty for operands read in place.
    lane: Vec<T>,
}

impl<'a, T: Copy> Strips<'a, T> {
    fn new(src: &'a [T], in_shape: &[usize], out_shape: &[usize]) -> Self {
        let walker = RunWalker::new(in_shape, out_shape);
        let lane = match src.first() {
            Some(&x) if !walker.is_identity() => {
                vec![x; CHUNK.min(out_shape.iter().product())]
            }
            _ => Vec::new(),
        };
        Strips { src, walker, lane }
    }

    /// Output elements `start .. start + len` of the broadcast operand.
    fn get(&mut self, start: usize, len: usize) -> &[T] {
        if self.lane.is_empty() {
            return &self.src[start..start + len];
        }
        self.walker.fill(self.src, start, &mut self.lane[..len]);
        &self.lane[..len]
    }
}

/// `out[i] = f(a[i], b[i])` over `n` output elements, both operands
/// broadcast.
fn zip_broadcast<A: Copy, B: Copy, O>(
    mut a: Strips<'_, A>,
    mut b: Strips<'_, B>,
    n: usize,
    f: impl Fn(A, B) -> O,
) -> Vec<O> {
    // operands read in place need no strips
    let strip = if a.lane.is_empty() && b.lane.is_empty() {
        n
    } else {
        CHUNK
    };
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let (start, len) = (out.len(), strip.min(n - out.len()));
        let (sa, sb) = (a.get(start, len), b.get(start, len));
        out.extend(sa.iter().zip(sb).map(|(&x, &y)| f(x, y)));
    }
    out
}

/// Apply a binary f32 kernel with broadcasting. Integer inputs are promoted
/// to f32 when mixed with floats; pure-integer inputs stay integer for the
/// arithmetic ops that preserve integrality.
///
/// Large same-shape f32 inputs split into disjoint index chunks across
/// the shared worker pool; each element is computed by exactly one
/// thread with the sequential per-element order, so results are bitwise
/// identical at any thread count.
fn binary_numeric(
    op: &'static str,
    lhs: &Tensor,
    rhs: &Tensor,
    f_f32: impl Fn(f32, f32) -> f32 + Sync,
    f_i64: Option<impl Fn(i64, i64) -> i64>,
) -> Result<Tensor> {
    let out_shape = broadcast_shapes(lhs.shape(), rhs.shape())?;
    if lhs.dtype() == DType::Bool || rhs.dtype() == DType::Bool {
        return Err(TensorError::DTypeMismatch {
            op,
            got: DType::Bool,
            expected: DType::F32,
        });
    }
    let n: usize = out_shape.iter().product();
    if lhs.dtype() == DType::I64 && rhs.dtype() == DType::I64 {
        if let Some(fi) = f_i64 {
            let a = Strips::new(lhs.as_i64()?, lhs.shape(), &out_shape);
            let b = Strips::new(rhs.as_i64()?, rhs.shape(), &out_shape);
            let out = zip_broadcast(a, b, n, fi);
            return Ok(Tensor::from_data(Data::I64(out), &out_shape));
        }
    }
    let a = lhs.cast(DType::F32);
    let b = rhs.cast(DType::F32);
    let (a, b) = (a.as_f32()?, b.as_f32()?);
    let same_shape = lhs.shape() == rhs.shape();
    if same_shape && autograph_par::threads() > 1 && n >= ELEMWISE_PAR_MIN {
        let mut out = vec![0.0f32; n];
        let out_addr = out.as_mut_ptr() as usize;
        autograph_par::parallel_for(n, 4096, &|range| {
            for i in range {
                // SAFETY: chunks are disjoint, so each index is written
                // by exactly one thread; the buffer outlives the call.
                unsafe { *(out_addr as *mut f32).add(i) = f_f32(a[i], b[i]) };
            }
        });
        return Ok(Tensor::from_data(Data::F32(out), &out_shape));
    }
    let a = Strips::new(a, lhs.shape(), &out_shape);
    let b = Strips::new(b, rhs.shape(), &out_shape);
    let out = zip_broadcast(a, b, n, f_f32);
    Ok(Tensor::from_data(Data::F32(out), &out_shape))
}

/// Apply a broadcasting comparison producing a bool tensor.
fn binary_compare(
    op: &'static str,
    lhs: &Tensor,
    rhs: &Tensor,
    f: impl Fn(f32, f32) -> bool,
) -> Result<Tensor> {
    let out_shape = broadcast_shapes(lhs.shape(), rhs.shape())?;
    if lhs.dtype() == DType::Bool || rhs.dtype() == DType::Bool {
        return Err(TensorError::DTypeMismatch {
            op,
            got: DType::Bool,
            expected: DType::F32,
        });
    }
    let a = lhs.cast(DType::F32);
    let b = rhs.cast(DType::F32);
    let n: usize = out_shape.iter().product();
    let a = Strips::new(a.as_f32()?, lhs.shape(), &out_shape);
    let b = Strips::new(b.as_f32()?, rhs.shape(), &out_shape);
    let out = zip_broadcast(a, b, n, f);
    Ok(Tensor::from_data(Data::Bool(out), &out_shape))
}

/// Broadcast two bool tensors through `f`.
fn zip_bool(lhs: &Tensor, rhs: &Tensor, f: impl Fn(bool, bool) -> bool) -> Result<Tensor> {
    let out_shape = broadcast_shapes(lhs.shape(), rhs.shape())?;
    let n: usize = out_shape.iter().product();
    let a = Strips::new(lhs.as_bool()?, lhs.shape(), &out_shape);
    let b = Strips::new(rhs.as_bool()?, rhs.shape(), &out_shape);
    let out = zip_broadcast(a, b, n, f);
    Ok(Tensor::from_data(Data::Bool(out), &out_shape))
}

/// `where(cond, a, b)` over `n` output elements, all operands broadcast.
fn select_broadcast<T: Copy>(
    cond: &mut Strips<'_, bool>,
    mut a: Strips<'_, T>,
    mut b: Strips<'_, T>,
    n: usize,
) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let (start, len) = (out.len(), CHUNK.min(n - out.len()));
        let (sc, sa, sb) = (cond.get(start, len), a.get(start, len), b.get(start, len));
        out.extend(
            sc.iter()
                .zip(sa.iter().zip(sb))
                .map(|(&c, (&a, &b))| if c { a } else { b }),
        );
    }
    out
}

impl Tensor {
    /// Elementwise addition with broadcasting.
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch or boolean operands.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        binary_numeric(
            "add",
            self,
            rhs,
            |a, b| a + b,
            Some(|a: i64, b: i64| a.wrapping_add(b)),
        )
    }

    /// Elementwise subtraction with broadcasting.
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch or boolean operands.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        binary_numeric(
            "sub",
            self,
            rhs,
            |a, b| a - b,
            Some(|a: i64, b: i64| a.wrapping_sub(b)),
        )
    }

    /// Elementwise multiplication with broadcasting.
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch or boolean operands.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor> {
        binary_numeric(
            "mul",
            self,
            rhs,
            |a, b| a * b,
            Some(|a: i64, b: i64| a.wrapping_mul(b)),
        )
    }

    /// Elementwise (true) division with broadcasting; always produces f32,
    /// matching `tf.divide`.
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch or boolean operands.
    pub fn div(&self, rhs: &Tensor) -> Result<Tensor> {
        binary_numeric("div", self, rhs, |a, b| a / b, None::<fn(i64, i64) -> i64>)
    }

    /// Elementwise floor-division.
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch or boolean operands.
    pub fn floordiv(&self, rhs: &Tensor) -> Result<Tensor> {
        binary_numeric(
            "floordiv",
            self,
            rhs,
            |a, b| (a / b).floor(),
            Some(|a: i64, b: i64| a.div_euclid(b)),
        )
    }

    /// Elementwise modulo.
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch or boolean operands.
    pub fn rem(&self, rhs: &Tensor) -> Result<Tensor> {
        binary_numeric(
            "mod",
            self,
            rhs,
            |a, b| a.rem_euclid(b),
            Some(|a: i64, b: i64| a.rem_euclid(b)),
        )
    }

    /// Elementwise power.
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch or boolean operands.
    pub fn pow(&self, rhs: &Tensor) -> Result<Tensor> {
        binary_numeric(
            "pow",
            self,
            rhs,
            |a, b| a.powf(b),
            Some(|a: i64, b: i64| a.pow(b.max(0) as u32)),
        )
    }

    /// Elementwise maximum with broadcasting.
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch or boolean operands.
    pub fn maximum(&self, rhs: &Tensor) -> Result<Tensor> {
        binary_numeric(
            "maximum",
            self,
            rhs,
            f32::max,
            Some(|a: i64, b: i64| a.max(b)),
        )
    }

    /// Elementwise minimum with broadcasting.
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch or boolean operands.
    pub fn minimum(&self, rhs: &Tensor) -> Result<Tensor> {
        binary_numeric(
            "minimum",
            self,
            rhs,
            f32::min,
            Some(|a: i64, b: i64| a.min(b)),
        )
    }

    /// Elementwise negation.
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors.
    pub fn neg(&self) -> Result<Tensor> {
        match self.data() {
            Data::F32(v) => Ok(Tensor::from_data(
                Data::F32(v.iter().map(|x| -x).collect()),
                self.shape(),
            )),
            Data::I64(v) => Ok(Tensor::from_data(
                Data::I64(v.iter().map(|x| -x).collect()),
                self.shape(),
            )),
            Data::Bool(_) => Err(TensorError::DTypeMismatch {
                op: "neg",
                got: DType::Bool,
                expected: DType::F32,
            }),
        }
    }

    /// Elementwise absolute value.
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors.
    pub fn abs(&self) -> Result<Tensor> {
        match self.data() {
            Data::F32(v) => Ok(Tensor::from_data(
                Data::F32(v.iter().map(|x| x.abs()).collect()),
                self.shape(),
            )),
            Data::I64(v) => Ok(Tensor::from_data(
                Data::I64(v.iter().map(|x| x.abs()).collect()),
                self.shape(),
            )),
            Data::Bool(_) => Err(TensorError::DTypeMismatch {
                op: "abs",
                got: DType::Bool,
                expected: DType::F32,
            }),
        }
    }

    /// Elementwise square.
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors.
    pub fn square(&self) -> Result<Tensor> {
        self.mul(self)
    }

    /// Elementwise square root (f32).
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors.
    pub fn sqrt(&self) -> Result<Tensor> {
        self.map_f32("sqrt", f32::sqrt)
    }

    /// Elementwise natural exponent (f32).
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors.
    pub fn exp(&self) -> Result<Tensor> {
        self.map_f32("exp", f32::exp)
    }

    /// Elementwise natural logarithm (f32).
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors.
    pub fn log(&self) -> Result<Tensor> {
        self.map_f32("log", f32::ln)
    }

    /// Apply an arbitrary f32 map, promoting integers.
    ///
    /// # Errors
    ///
    /// Fails for boolean tensors.
    pub(crate) fn map_f32(&self, op: &'static str, f: impl Fn(f32) -> f32) -> Result<Tensor> {
        if self.dtype() == DType::Bool {
            return Err(TensorError::DTypeMismatch {
                op,
                got: DType::Bool,
                expected: DType::F32,
            });
        }
        let t = self.cast(DType::F32);
        let v = t.as_f32()?;
        Ok(Tensor::from_data(
            Data::F32(v.iter().map(|&x| f(x)).collect()),
            self.shape(),
        ))
    }

    // ---- comparisons ------------------------------------------------------

    /// Elementwise `<` producing a bool tensor.
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch or boolean operands.
    pub fn less(&self, rhs: &Tensor) -> Result<Tensor> {
        binary_compare("less", self, rhs, |a, b| a < b)
    }

    /// Elementwise `<=` producing a bool tensor.
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch or boolean operands.
    pub fn less_equal(&self, rhs: &Tensor) -> Result<Tensor> {
        binary_compare("less_equal", self, rhs, |a, b| a <= b)
    }

    /// Elementwise `>` producing a bool tensor.
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch or boolean operands.
    pub fn greater(&self, rhs: &Tensor) -> Result<Tensor> {
        binary_compare("greater", self, rhs, |a, b| a > b)
    }

    /// Elementwise `>=` producing a bool tensor.
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch or boolean operands.
    pub fn greater_equal(&self, rhs: &Tensor) -> Result<Tensor> {
        binary_compare("greater_equal", self, rhs, |a, b| a >= b)
    }

    /// Elementwise `==` producing a bool tensor (bools compared as bools).
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch.
    pub fn equal(&self, rhs: &Tensor) -> Result<Tensor> {
        if self.dtype() == DType::Bool && rhs.dtype() == DType::Bool {
            return zip_bool(self, rhs, |a, b| a == b);
        }
        binary_compare("equal", self, rhs, |a, b| a == b)
    }

    /// Elementwise `!=` producing a bool tensor.
    ///
    /// # Errors
    ///
    /// Fails on broadcast mismatch.
    pub fn not_equal(&self, rhs: &Tensor) -> Result<Tensor> {
        let eq = self.equal(rhs)?;
        eq.logical_not()
    }

    // ---- logical ----------------------------------------------------------

    /// Elementwise logical AND of bool tensors with broadcasting.
    ///
    /// # Errors
    ///
    /// Fails when operands are not boolean.
    pub fn logical_and(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary_bool("logical_and", rhs, |a, b| a && b)
    }

    /// Elementwise logical OR of bool tensors with broadcasting.
    ///
    /// # Errors
    ///
    /// Fails when operands are not boolean.
    pub fn logical_or(&self, rhs: &Tensor) -> Result<Tensor> {
        self.binary_bool("logical_or", rhs, |a, b| a || b)
    }

    /// Elementwise logical NOT of a bool tensor.
    ///
    /// # Errors
    ///
    /// Fails when the operand is not boolean.
    pub fn logical_not(&self) -> Result<Tensor> {
        let v = self.as_bool().map_err(|_| TensorError::DTypeMismatch {
            op: "logical_not",
            got: self.dtype(),
            expected: DType::Bool,
        })?;
        Ok(Tensor::from_data(
            Data::Bool(v.iter().map(|x| !x).collect()),
            self.shape(),
        ))
    }

    fn binary_bool(
        &self,
        op: &'static str,
        rhs: &Tensor,
        f: impl Fn(bool, bool) -> bool,
    ) -> Result<Tensor> {
        if self.dtype() != DType::Bool || rhs.dtype() != DType::Bool {
            return Err(TensorError::DTypeMismatch {
                op,
                got: if self.dtype() != DType::Bool {
                    self.dtype()
                } else {
                    rhs.dtype()
                },
                expected: DType::Bool,
            });
        }
        zip_bool(self, rhs, f)
    }

    /// `where(cond, a, b)`: select elements of `a` where `cond` is true,
    /// else of `b`, with broadcasting over all three operands.
    ///
    /// # Errors
    ///
    /// Fails when `cond` is not boolean or shapes do not broadcast.
    pub fn select(cond: &Tensor, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        if cond.dtype() != DType::Bool {
            return Err(TensorError::DTypeMismatch {
                op: "select",
                got: cond.dtype(),
                expected: DType::Bool,
            });
        }
        if a.dtype() != b.dtype() {
            return Err(TensorError::DTypeMismatch {
                op: "select",
                got: b.dtype(),
                expected: a.dtype(),
            });
        }
        let ab = broadcast_shapes(a.shape(), b.shape())?;
        let out_shape = broadcast_shapes(cond.shape(), &ab)?;
        let mut c = Strips::new(cond.as_bool()?, cond.shape(), &out_shape);
        let n: usize = out_shape.iter().product();
        let (sa, sb, so) = (a.shape(), b.shape(), out_shape.as_slice());
        let data = match (a.data(), b.data()) {
            (Data::F32(a), Data::F32(b)) => Data::F32(select_broadcast(
                &mut c,
                Strips::new(a, sa, so),
                Strips::new(b, sb, so),
                n,
            )),
            (Data::I64(a), Data::I64(b)) => Data::I64(select_broadcast(
                &mut c,
                Strips::new(a, sa, so),
                Strips::new(b, sb, so),
                n,
            )),
            (Data::Bool(a), Data::Bool(b)) => Data::Bool(select_broadcast(
                &mut c,
                Strips::new(a, sa, so),
                Strips::new(b, sb, so),
                n,
            )),
            _ => unreachable!("dtype equality checked above"),
        };
        Ok(Tensor::from_data(data, &out_shape))
    }

    /// [`Tensor::select`] with the branches given by value: when one of
    /// them is `f32`, already output-shaped and held by nobody else, the
    /// result is written over it (the other branch's elements copied in
    /// where the condition picks them) instead of into a new buffer. The
    /// values, and any error, are exactly `select`'s.
    ///
    /// # Errors
    ///
    /// As [`Tensor::select`].
    pub fn select_owned(cond: &Tensor, mut a: Tensor, mut b: Tensor) -> Result<Tensor> {
        let f32_branches =
            cond.dtype() == DType::Bool && a.dtype() == DType::F32 && b.dtype() == DType::F32;
        let out_shape = broadcast_shapes(a.shape(), b.shape())
            .and_then(|ab| broadcast_shapes(cond.shape(), &ab));
        if let (true, Ok(shape)) = (f32_branches, out_shape) {
            if a.shape() == shape.as_slice() {
                if let Some(dst) = a.f32_mut() {
                    select_over(dst, cond, &b, &shape, true)?;
                    return Ok(a);
                }
            }
            if b.shape() == shape.as_slice() {
                if let Some(dst) = b.f32_mut() {
                    select_over(dst, cond, &a, &shape, false)?;
                    return Ok(b);
                }
            }
        }
        Tensor::select(cond, &a, &b)
    }
}

/// The in-place half of [`Tensor::select_owned`]: `dst` already holds the
/// branch the condition picks when it equals `kept`; overwrite every other
/// element with `other`'s. `cond` and `other` broadcast to `shape`, which
/// is `dst`'s.
fn select_over(
    dst: &mut [f32],
    cond: &Tensor,
    other: &Tensor,
    shape: &[usize],
    kept: bool,
) -> Result<()> {
    let mut c = Strips::new(cond.as_bool()?, cond.shape(), shape);
    let mut o = Strips::new(other.as_f32()?, other.shape(), shape);
    for (start, strip) in (0..).step_by(CHUNK).zip(dst.chunks_mut(CHUNK)) {
        let (sc, so) = (c.get(start, strip.len()), o.get(start, strip.len()));
        for ((d, &c), &o) in strip.iter_mut().zip(sc).zip(so) {
            if c != kept {
                *d = o;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec(v, s).unwrap()
    }

    #[test]
    fn add_broadcast_row() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(vec![10.0, 20.0, 30.0], &[3]);
        let c = a.add(&b).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.as_f32().unwrap(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn integer_arithmetic_stays_integer() {
        let a = Tensor::from_vec_i64(vec![5, 7], &[2]).unwrap();
        let b = Tensor::scalar_i64(2);
        assert_eq!(a.add(&b).unwrap().dtype(), DType::I64);
        assert_eq!(a.floordiv(&b).unwrap().as_i64().unwrap(), &[2, 3]);
        // true division promotes
        assert_eq!(a.div(&b).unwrap().as_f32().unwrap(), &[2.5, 3.5]);
    }

    #[test]
    fn mixed_promotes_to_f32() {
        let a = Tensor::from_vec_i64(vec![1, 2], &[2]).unwrap();
        let b = t(vec![0.5, 0.5], &[2]);
        let c = a.mul(&b).unwrap();
        assert_eq!(c.dtype(), DType::F32);
        assert_eq!(c.as_f32().unwrap(), &[0.5, 1.0]);
    }

    #[test]
    fn bool_arithmetic_rejected() {
        let a = Tensor::scalar_bool(true);
        let b = Tensor::scalar_f32(1.0);
        assert!(a.add(&b).is_err());
        assert!(b.less(&a).is_err());
    }

    #[test]
    fn comparisons() {
        let a = t(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::scalar_f32(2.0);
        assert_eq!(
            a.less(&b).unwrap().as_bool().unwrap(),
            &[true, false, false]
        );
        assert_eq!(
            a.greater_equal(&b).unwrap().as_bool().unwrap(),
            &[false, true, true]
        );
        assert_eq!(
            a.equal(&b).unwrap().as_bool().unwrap(),
            &[false, true, false]
        );
        assert_eq!(
            a.not_equal(&b).unwrap().as_bool().unwrap(),
            &[true, false, true]
        );
    }

    #[test]
    fn bool_equal() {
        let a = Tensor::from_vec_bool(vec![true, false], &[2]).unwrap();
        let b = Tensor::scalar_bool(true);
        assert_eq!(a.equal(&b).unwrap().as_bool().unwrap(), &[true, false]);
    }

    #[test]
    fn logical_ops() {
        let a = Tensor::from_vec_bool(vec![true, true, false], &[3]).unwrap();
        let b = Tensor::from_vec_bool(vec![true, false, false], &[3]).unwrap();
        assert_eq!(
            a.logical_and(&b).unwrap().as_bool().unwrap(),
            &[true, false, false]
        );
        assert_eq!(
            a.logical_or(&b).unwrap().as_bool().unwrap(),
            &[true, true, false]
        );
        assert_eq!(
            a.logical_not().unwrap().as_bool().unwrap(),
            &[false, false, true]
        );
        assert!(Tensor::scalar_f32(1.0).logical_not().is_err());
    }

    #[test]
    fn select_broadcasts() {
        let c = Tensor::from_vec_bool(vec![true, false], &[2]).unwrap();
        let a = t(vec![1.0, 2.0], &[2]);
        let b = Tensor::scalar_f32(9.0);
        let r = Tensor::select(&c, &a, &b).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[1.0, 9.0]);
        // cond broadcasting across rows: [2] over [2,2] aligns right
        let c2 = Tensor::from_vec_bool(vec![true, false], &[2]).unwrap();
        let a2 = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r2 = Tensor::select(&c2, &a2, &b).unwrap();
        assert_eq!(r2.as_f32().unwrap(), &[1.0, 9.0, 3.0, 9.0]);
    }

    #[test]
    fn select_owned_writes_over_a_sole_branch_bitwise() {
        let bits =
            |t: &Tensor| -> Vec<u32> { t.as_f32().unwrap().iter().map(|v| v.to_bits()).collect() };
        // strips of every length, a row mask, a scalar; inf and NaN values
        let n = 3 * CHUNK + 5;
        let conds = [
            Tensor::from_vec_bool((0..n).map(|i| i % 3 != 0).collect(), &[n]).unwrap(),
            Tensor::from_vec_bool(vec![true, false, true], &[3, 1]).unwrap(),
            Tensor::scalar_bool(false),
        ];
        for cond in &conds {
            let shape: Vec<usize> = if cond.rank() == 2 {
                vec![3, n]
            } else {
                vec![n]
            };
            let full = |phase: f32| {
                let len = shape.iter().product::<usize>();
                let v = (0..len).map(|i| (i as f32 * 0.37 + phase).sin() / (i % 7) as f32);
                t(v.collect(), &shape)
            };
            for (a, b) in [
                (full(0.0), full(1.0)),
                (full(0.5), Tensor::scalar_f32(f32::NAN)),
            ] {
                let want = Tensor::select(cond, &a, &b).unwrap();
                // shared branches: a fresh buffer
                let a_buf = a.as_f32().unwrap().as_ptr();
                let got = Tensor::select_owned(cond, a.clone(), b.clone()).unwrap();
                assert_eq!(bits(&got), bits(&want));
                assert_ne!(got.as_f32().unwrap().as_ptr(), a_buf);
                // a sole, output-shaped branch: written over, same bits
                let b_buf = b.as_f32().unwrap().as_ptr();
                let got = Tensor::select_owned(cond, a, b).unwrap();
                assert_eq!(bits(&got), bits(&want));
                let p = got.as_f32().unwrap().as_ptr();
                assert!(p == a_buf || p == b_buf);
            }
        }
        // errors are select's
        let i = Tensor::from_vec_i64(vec![1, 2], &[2]).unwrap();
        let f = t(vec![1.0, 2.0], &[2]);
        let c = Tensor::from_vec_bool(vec![true, false], &[2]).unwrap();
        assert_eq!(
            Tensor::select_owned(&c, f.clone(), i.clone())
                .unwrap_err()
                .to_string(),
            Tensor::select(&c, &f, &i).unwrap_err().to_string()
        );
        assert!(Tensor::select_owned(&f, f.clone(), f.clone()).is_err());
    }

    #[test]
    fn unary_math() {
        let a = t(vec![-1.0, 4.0], &[2]);
        assert_eq!(a.neg().unwrap().as_f32().unwrap(), &[1.0, -4.0]);
        assert_eq!(a.abs().unwrap().as_f32().unwrap(), &[1.0, 4.0]);
        assert_eq!(a.square().unwrap().as_f32().unwrap(), &[1.0, 16.0]);
        assert_eq!(t(vec![4.0], &[1]).sqrt().unwrap().as_f32().unwrap(), &[2.0]);
        let e = t(vec![0.0], &[1]).exp().unwrap();
        assert_eq!(e.as_f32().unwrap(), &[1.0]);
        let l = t(vec![1.0], &[1]).log().unwrap();
        assert_eq!(l.as_f32().unwrap(), &[0.0]);
    }

    #[test]
    fn pow_and_minmax() {
        let a = t(vec![2.0, 3.0], &[2]);
        assert_eq!(
            a.pow(&Tensor::scalar_f32(2.0)).unwrap().as_f32().unwrap(),
            &[4.0, 9.0]
        );
        assert_eq!(
            a.maximum(&Tensor::scalar_f32(2.5))
                .unwrap()
                .as_f32()
                .unwrap(),
            &[2.5, 3.0]
        );
        assert_eq!(
            a.minimum(&Tensor::scalar_f32(2.5))
                .unwrap()
                .as_f32()
                .unwrap(),
            &[2.0, 2.5]
        );
    }

    #[test]
    fn rem_euclid_semantics() {
        let a = Tensor::from_vec_i64(vec![-3, 7], &[2]).unwrap();
        let b = Tensor::scalar_i64(5);
        assert_eq!(a.rem(&b).unwrap().as_i64().unwrap(), &[2, 2]);
    }

    #[test]
    fn elementwise_parallel_bitwise_matches_sequential() {
        // clears ELEMWISE_PAR_MIN so the parallel identity path engages
        let n = 1 << 16;
        let av: Vec<f32> = (0..n).map(|i| ((i % 251) as f32) * 0.37 - 40.0).collect();
        let bv: Vec<f32> = (0..n).map(|i| ((i % 83) as f32) * 0.59 + 0.5).collect();
        let want: Vec<f32> = av.iter().zip(&bv).map(|(a, b)| a * b + a / b).collect();
        autograph_par::configure(4);
        let at = t(av, &[n]);
        let bt = t(bv, &[n]);
        let got = at.mul(&bt).unwrap().add(&at.div(&bt).unwrap()).unwrap();
        for (g, w) in got.as_f32().unwrap().iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    /// The broadcasting kernels against the per-element definition of
    /// broadcasting, over shapes whose outputs span several strips.
    #[test]
    fn broadcast_kernels_match_per_element_map() {
        use crate::shape::BroadcastMap;
        let mut rng = crate::Rng64::new(0xb0a7);
        let n = CHUNK + 9;
        let pairs: [(Vec<usize>, Vec<usize>); 6] = [
            (vec![3, n], vec![n]),
            (vec![n, 3], vec![n, 1]),
            (vec![3, n], vec![3, 1]),
            (vec![2, 1, n], vec![1, 3, 1]),
            (vec![n], vec![]),
            (vec![2, n], vec![2, n]),
        ];
        for (xs, ys) in pairs {
            let out = broadcast_shapes(&xs, &ys).unwrap();
            let total: usize = out.iter().product();
            let (xm, ym) = (BroadcastMap::new(&xs, &out), BroadcastMap::new(&ys, &out));
            let x = rng.normal_tensor(&xs, 2.0);
            let y = rng.normal_tensor(&ys, 2.0);
            let (xv, yv) = (x.as_f32().unwrap(), y.as_f32().unwrap());

            let want: Vec<u32> = (0..total)
                .map(|i| (xv[xm.map(i)] - yv[ym.map(i)]).to_bits())
                .collect();
            let got = x.sub(&y).unwrap();
            assert_eq!(got.shape(), out.as_slice());
            let got: Vec<u32> = got.as_f32().unwrap().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "sub {xs:?} {ys:?}");

            let want: Vec<bool> = (0..total).map(|i| xv[xm.map(i)] < yv[ym.map(i)]).collect();
            let less = x.less(&y).unwrap();
            assert_eq!(less.as_bool().unwrap(), want, "less {xs:?} {ys:?}");

            let (xi, yi) = (x.cast(DType::I64), y.cast(DType::I64));
            let want: Vec<i64> = (0..total)
                .map(|i| xi.as_i64().unwrap()[xm.map(i)] * yi.as_i64().unwrap()[ym.map(i)])
                .collect();
            assert_eq!(xi.mul(&yi).unwrap().as_i64().unwrap(), want, "i64 mul");

            // select(mask shaped like y, x, y) and the bool kernels
            let mask = y.greater(&Tensor::scalar_f32(0.0)).unwrap();
            let mv = mask.as_bool().unwrap();
            let want: Vec<f32> = (0..total)
                .map(|i| {
                    if mv[ym.map(i)] {
                        xv[xm.map(i)]
                    } else {
                        yv[ym.map(i)]
                    }
                })
                .collect();
            let sel = Tensor::select(&mask, &x, &y).unwrap();
            assert_eq!(sel.as_f32().unwrap(), want, "select {xs:?} {ys:?}");
            let xb = x.greater(&Tensor::scalar_f32(0.5)).unwrap();
            let xbv = xb.as_bool().unwrap();
            let want: Vec<bool> = (0..total)
                .map(|i| xbv[xm.map(i)] && mv[ym.map(i)])
                .collect();
            assert_eq!(xb.logical_and(&mask).unwrap().as_bool().unwrap(), want);
            let want: Vec<bool> = (0..total)
                .map(|i| xbv[xm.map(i)] == mv[ym.map(i)])
                .collect();
            assert_eq!(xb.equal(&mask).unwrap().as_bool().unwrap(), want);
        }
    }
}
