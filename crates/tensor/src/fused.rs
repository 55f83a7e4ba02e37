//! Fused elementwise kernels: strip-mined evaluation of a chain of
//! elementwise ops, the execution substrate for the graph VM's fusion
//! tier.
//!
//! A [`FusedSpec`] is a small postfix (stack) program over up to
//! `FUSED_MAX_INPUTS` input tensors whose steps are drawn from the
//! closed set of elementwise ops in [`FusedOp`].
//!
//! ## Evaluation: strips, not elements
//!
//! The output is walked in strips of `CHUNK` (256) elements and the postfix
//! program runs once per *strip*: the operand stack holds lanes (slices
//! of up to `CHUNK` floats) instead of scalars, an `Input` step fills a
//! lane through the input's `RunWalker` (a `copy_from_slice` or a
//! `fill` per run — no division, whatever the broadcast), and every
//! other step is one straight slice loop over its lane(s). Op dispatch
//! is thus paid once per strip, the arithmetic loops auto-vectorise, and
//! the transcendental ones make the same scalar libm calls as before.
//! Stack slot 0 is the output strip itself; deeper slots are scratch
//! lanes owned by the [`FusedArena`], sized by the program's real
//! maximum depth, so a one-element program touches a handful of floats.
//!
//! Each output element still sees exactly the chain of `f32` operations
//! — same ops, same order, no reassociation — that the op-by-op kernels
//! in [`crate::ops`] and `nn` compute; only the loop nesting changed
//! (strip → op → element instead of element → op). The result is
//! therefore **bitwise identical** to unfused execution, at any thread
//! count: large outputs hand disjoint index ranges to the worker pool,
//! and every range runs the same strip evaluator.
//!
//! ## Legality (what may be fused)
//!
//! * only the ops enumerated in [`FusedOp`] — pure, elementwise,
//!   `f32 → f32`, with per-element semantics copied verbatim from the
//!   scalar bodies of the unfused kernels;
//! * all inputs must be `f32` tensors (integer operands take different
//!   per-op paths — `i64` wrapping arithmetic, `div` promotion — which a
//!   fused `f32` loop cannot reproduce), and their shapes must broadcast
//!   through the program without error;
//! * the program must be a tree (each intermediate consumed once), so
//!   evaluation never recomputes divergent state.
//!
//! Eligibility is a *runtime* property of the actual inputs: the caller
//! asks for a [`Plan`] per execution ([`FusedSpec::plan`]) and falls
//! back to op-by-op dispatch — which reproduces error messages, integer
//! semantics and observability exactly — when there is none.
//!
//! ## Buffer reuse
//!
//! [`FusedArena`] is a small free-list of `f32` buffers. Executors feed
//! it the buffers of dead intermediates (via
//! [`crate::Tensor::into_f32_buffer`]) and fused evaluation draws output
//! buffers from it, so loop-carried temporaries recycle their
//! allocations across iterations instead of round-tripping the system
//! allocator. The memory ledger stays exact: reclaiming records a free,
//! wrapping a recycled buffer into a tensor records a fresh allocation.
//!
//! Better than a recycled buffer is none at all: a caller that owns an
//! input it will not read again hands it over ([`FusedSpec::plan_owned`]),
//! and when that input is the program's [in-place
//! input](FusedSpec::in_place_input), holds the output's shape and is
//! held by nobody else, the output is written over it — no buffer, no
//! tensor, no ledger entry.

use crate::shape::{broadcast_into, RunWalker, CHUNK};
use crate::{DType, Data, Tensor};

/// Maximum number of distinct input tensors a fused program may read.
pub(crate) const FUSED_MAX_INPUTS: usize = 64;
/// Maximum number of postfix steps in a fused program.
pub(crate) const FUSED_MAX_OPS: usize = 64;
/// Maximum operand-stack depth a fused program may need.
pub(crate) const FUSED_MAX_STACK: usize = 16;

/// One step of a fused elementwise postfix program.
///
/// Binary steps pop the right operand first (`a ○ b` is emitted as
/// `…a…, …b…, Op`). The per-element semantics of each op are exactly the
/// scalar bodies used by the unfused `f32` kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedOp {
    /// Push element of input `i` (broadcast-mapped to the output index).
    Input(u8),
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `(a / b).floor()`
    FloorDiv,
    /// `a.rem_euclid(b)`
    Mod,
    /// `a.powf(b)`
    Pow,
    /// `a.max(b)`
    Maximum,
    /// `a.min(b)`
    Minimum,
    /// `-a`
    Neg,
    /// `a.abs()`
    Abs,
    /// `a.sqrt()`
    Sqrt,
    /// `a.exp()`
    Exp,
    /// `a.ln()`
    Log,
    /// `a * a`
    Square,
    /// `a.tanh()`
    Tanh,
    /// `1 / (1 + (-a).exp())`
    Sigmoid,
    /// `a.max(0.0)`
    Relu,
}

/// The right operand of a binary step over one strip.
#[derive(Clone, Copy)]
enum Rhs<'a> {
    /// One value per element.
    Lane(&'a [f32]),
    /// One value for the whole strip (a single-element input).
    Splat(f32),
}

#[inline(always)]
fn map1(lane: &mut [f32], f: impl Fn(f32) -> f32) {
    for x in lane {
        *x = f(*x);
    }
}

/// `dst[i] = f(lhs[i], rhs[i])`, where the left operand is `dst` itself
/// unless `lhs` names an input to read in place.
#[inline(always)]
fn map2(dst: &mut [f32], lhs: Option<&[f32]>, rhs: Rhs<'_>, f: impl Fn(f32, f32) -> f32) {
    match (lhs, rhs) {
        (None, Rhs::Lane(r)) => {
            for (x, &b) in dst.iter_mut().zip(r) {
                *x = f(*x, b);
            }
        }
        (None, Rhs::Splat(b)) => {
            for x in dst {
                *x = f(*x, b);
            }
        }
        (Some(l), Rhs::Lane(r)) => {
            for ((x, &a), &b) in dst.iter_mut().zip(l).zip(r) {
                *x = f(a, b);
            }
        }
        (Some(l), Rhs::Splat(b)) => {
            for (x, &a) in dst.iter_mut().zip(l) {
                *x = f(a, b);
            }
        }
    }
}

impl FusedOp {
    /// How many operands the step pops (0 for `Input`).
    pub fn arity(&self) -> usize {
        match self {
            FusedOp::Input(_) => 0,
            FusedOp::Neg
            | FusedOp::Abs
            | FusedOp::Sqrt
            | FusedOp::Exp
            | FusedOp::Log
            | FusedOp::Square
            | FusedOp::Tanh
            | FusedOp::Sigmoid
            | FusedOp::Relu => 1,
            _ => 2,
        }
    }

    /// Apply a unary step to every element of `lane`, in place.
    fn map_unary(self, lane: &mut [f32]) {
        match self {
            FusedOp::Neg => map1(lane, |a| -a),
            FusedOp::Abs => map1(lane, f32::abs),
            FusedOp::Sqrt => map1(lane, f32::sqrt),
            FusedOp::Exp => map1(lane, f32::exp),
            FusedOp::Log => map1(lane, f32::ln),
            FusedOp::Square => map1(lane, |a| a * a),
            FusedOp::Tanh => map1(lane, f32::tanh),
            FusedOp::Sigmoid => map1(lane, |a| 1.0 / (1.0 + (-a).exp())),
            FusedOp::Relu => map1(lane, |a| a.max(0.0)),
            _ => unreachable!("{self:?} is not unary"),
        }
    }

    /// Apply a binary step elementwise: `dst[i] = lhs[i] ○ rhs[i]`, the
    /// left operand being `dst` itself when `lhs` is `None`.
    fn map_binary(self, dst: &mut [f32], lhs: Option<&[f32]>, rhs: Rhs<'_>) {
        match self {
            FusedOp::Add => map2(dst, lhs, rhs, |a, b| a + b),
            FusedOp::Sub => map2(dst, lhs, rhs, |a, b| a - b),
            FusedOp::Mul => map2(dst, lhs, rhs, |a, b| a * b),
            FusedOp::Div => map2(dst, lhs, rhs, |a, b| a / b),
            FusedOp::FloorDiv => map2(dst, lhs, rhs, |a, b| (a / b).floor()),
            FusedOp::Mod => map2(dst, lhs, rhs, f32::rem_euclid),
            FusedOp::Pow => map2(dst, lhs, rhs, f32::powf),
            FusedOp::Maximum => map2(dst, lhs, rhs, f32::max),
            FusedOp::Minimum => map2(dst, lhs, rhs, f32::min),
            _ => unreachable!("{self:?} is not binary"),
        }
    }
}

/// A validated fused elementwise program: a postfix op sequence over
/// `num_inputs` tensors that leaves exactly one value on the stack.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedSpec {
    ops: Vec<FusedOp>,
    num_inputs: usize,
    /// Deepest the operand stack gets (≥ 1), which sizes the scratch lanes.
    depth: usize,
    /// See [`FusedSpec::in_place_input`].
    in_place: Option<u8>,
}

/// A fused program bound to one execution's inputs: the output shape and
/// a run walker per input. Obtained from [`FusedSpec::plan`] or
/// [`FusedSpec::plan_owned`] (which is where eligibility is decided) and
/// consumed by [`FusedSpec::eval`].
pub struct Plan<'a> {
    out_shape: Vec<usize>,
    /// Per input slot; the handed-over input's entry has no data.
    srcs: Vec<Src<'a>>,
    /// The in-place input, when the caller handed it over.
    owned: Option<Tensor>,
}

/// One input's elements and the walker mapping output positions to them.
type Src<'a> = (&'a [f32], RunWalker);

impl FusedSpec {
    /// Validate and build a spec. Returns `None` when the program is
    /// malformed (stack underflow, >1 final value, an input slot out of
    /// range or never read) or exceeds the size limits.
    pub fn new(ops: Vec<FusedOp>, num_inputs: usize) -> Option<FusedSpec> {
        if num_inputs > FUSED_MAX_INPUTS || ops.is_empty() || ops.len() > FUSED_MAX_OPS {
            return None;
        }
        let mut depth: usize = 0;
        let mut max_depth: usize = 0;
        let mut read: u64 = 0;
        for op in &ops {
            match op {
                FusedOp::Input(i) => {
                    if *i as usize >= num_inputs {
                        return None;
                    }
                    read |= 1 << i;
                    depth += 1;
                }
                other => {
                    let k = other.arity();
                    if depth < k {
                        return None;
                    }
                    depth = depth - k + 1;
                }
            }
            max_depth = max_depth.max(depth);
        }
        // the output shape is the broadcast of the inputs, so a slot no
        // step reads has no defined effect on it
        let all_read = read.count_ones() as usize == num_inputs;
        if depth != 1 || max_depth > FUSED_MAX_STACK || !all_read {
            return None;
        }
        let in_place = match ops[0] {
            FusedOp::Input(i) if ops.iter().filter(|&&op| op == ops[0]).count() == 1 => Some(i),
            _ => None,
        };
        Some(FusedSpec {
            ops,
            num_inputs,
            depth: max_depth,
            in_place,
        })
    }

    /// The input slot the output may be written over: the one read by
    /// the program's first step and by no other. It sits alone in stack
    /// slot 0 — the output strip — until the step consuming that slot
    /// (as its left operand, or its only one) replaces it with the
    /// result, and no later step reads it again.
    pub fn in_place_input(&self) -> Option<usize> {
        self.in_place.map(usize::from)
    }

    /// The postfix steps.
    pub fn ops(&self) -> &[FusedOp] {
        &self.ops
    }

    /// Number of input slots the program reads.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Bind the program to this execution's inputs. `None` — the caller
    /// must then dispatch op-by-op, which reproduces the exact error or
    /// integer semantics — unless the input count is right, all inputs
    /// are `f32`, and their shapes broadcast together.
    ///
    /// Every step of the program broadcasts exactly when all the inputs
    /// broadcast jointly (the program is a tree that reads every input,
    /// and a dimension conflict between two leaves surfaces at their
    /// join), and the output shape is that joint broadcast.
    pub fn plan<'a, I>(&self, inputs: I) -> Option<Plan<'a>>
    where
        I: IntoIterator<Item = &'a Tensor>,
        I::IntoIter: Clone,
    {
        self.bind(inputs.into_iter(), None)
    }

    /// [`FusedSpec::plan`] for a caller that hands over the value of the
    /// [in-place input](FusedSpec::in_place_input): `inputs` are the other
    /// inputs, in slot order. Evaluating the plan writes the output over
    /// `owned` when it has the output's shape and nobody else holds it
    /// (`Arc::get_mut` on the tensor and its storage), and reads it like
    /// any input otherwise. `Err(owned)` when there is no plan.
    pub fn plan_owned<'a, I>(&self, inputs: I, owned: Tensor) -> Result<Plan<'a>, Tensor>
    where
        I: IntoIterator<Item = &'a Tensor>,
        I::IntoIter: Clone,
    {
        match self.bind(inputs.into_iter(), Some(&owned)) {
            Some(plan) => Ok(Plan {
                owned: Some(owned),
                ..plan
            }),
            None => Err(owned),
        }
    }

    /// The plan without the handed-over input itself: `owned` (when
    /// given) takes part in the shape checks and gets the in-place slot's
    /// walker, but no data is borrowed from it.
    fn bind<'a, I>(&self, inputs: I, owned: Option<&Tensor>) -> Option<Plan<'a>>
    where
        I: Iterator<Item = &'a Tensor> + Clone,
    {
        let at = match owned {
            Some(_) => Some(self.in_place_input()?),
            None => None,
        };
        let mut out_shape = Vec::new();
        let mut count = 0;
        for t in inputs.clone() {
            count += 1;
            if t.dtype() != DType::F32 || !broadcast_into(&mut out_shape, t.shape()) {
                return None;
            }
        }
        if let Some(t) = owned {
            count += 1;
            if t.dtype() != DType::F32 || !broadcast_into(&mut out_shape, t.shape()) {
                return None;
            }
        }
        if count != self.num_inputs {
            return None;
        }
        let mut others = inputs;
        let srcs = (0..self.num_inputs)
            .map(|slot| {
                let (t, data) = match owned.filter(|_| at == Some(slot)) {
                    Some(t) => (t, &[][..]),
                    None => {
                        let t = others.next()?;
                        (t, t.as_f32().ok()?)
                    }
                };
                Some((data, RunWalker::new(t.shape(), &out_shape)))
            })
            .collect::<Option<_>>()?;
        Some(Plan {
            out_shape,
            srcs,
            owned: None,
        })
    }

    /// Evaluate a planned program strip by strip, drawing the output
    /// buffer (unless it overwrites a handed-over input) and the scratch
    /// lanes from `arena`.
    ///
    /// The per-element operation chain is identical to op-by-op
    /// execution, so the result is bitwise equal to the unfused path;
    /// large outputs split across the worker pool in disjoint ranges
    /// (which cannot change any element's value).
    pub fn eval(&self, plan: Plan<'_>, arena: &mut FusedArena) -> Tensor {
        let Plan {
            out_shape,
            srcs,
            mut owned,
        } = plan;
        let mut srcs: Vec<Src<'_>> = srcs;
        let written = match owned.as_mut() {
            Some(t) if t.shape() == out_shape.as_slice() => t
                .f32_mut()
                .map(|out| self.fill(&mut srcs, out, self.in_place, arena))
                .is_some(),
            _ => false,
        };
        match (owned, self.in_place) {
            (Some(t), _) if written => t,
            (owned, at) => {
                // a shared or broadcast handed-over input is read in its slot
                if let (Some(t), Some(at)) = (&owned, at) {
                    srcs[usize::from(at)].0 = t.as_f32().unwrap_or_default();
                }
                let mut out = arena.take(out_shape.iter().product());
                self.fill(&mut srcs, &mut out, None, arena);
                Tensor::from_data(Data::F32(out), &out_shape)
            }
        }
    }

    /// Compute every output element into `out`; when `in_place` names a
    /// slot, `out` already holds that input's elements.
    fn fill(
        &self,
        srcs: &mut [Src<'_>],
        out: &mut [f32],
        in_place: Option<u8>,
        arena: &mut FusedArena,
    ) {
        let n = out.len();
        if n >= FUSED_PAR_MIN && autograph_par::threads() > 1 {
            let out_addr = out.as_mut_ptr() as usize;
            let srcs = &*srcs;
            autograph_par::parallel_for(n, 4096, &|range| {
                // SAFETY: ranges are disjoint and within `0..n`, so each
                // output element is borrowed by exactly one thread; the
                // buffer outlives the call.
                let dst = unsafe {
                    std::slice::from_raw_parts_mut(
                        (out_addr as *mut f32).add(range.start),
                        range.len(),
                    )
                };
                let mut lanes = vec![0.0; self.scratch_len(dst.len())];
                self.eval_range(&mut srcs.to_vec(), range.start, dst, &mut lanes, in_place);
            });
        } else {
            let lanes = arena.scratch(self.scratch_len(n));
            self.eval_range(srcs, 0, out, lanes, in_place);
        }
    }

    /// [`FusedSpec::plan`] then [`FusedSpec::eval`]: `None`, with no side
    /// effects, when the inputs are not eligible.
    pub fn try_eval(&self, inputs: &[&Tensor], arena: &mut FusedArena) -> Option<Tensor> {
        Some(self.eval(self.plan(inputs.iter().copied())?, arena))
    }

    /// Scratch floats needed to evaluate `n` output elements: one lane
    /// per stack slot above the first (slot 0 is the output itself).
    fn scratch_len(&self, n: usize) -> usize {
        (self.depth - 1) * CHUNK.min(n)
    }

    /// Compute output elements `start .. start + out.len()` into `out`,
    /// one strip at a time. `scratch` holds `scratch_len(out.len())`
    /// floats.
    ///
    /// Stack slot 0 is the output strip, slot `k > 0` the `k`-th scratch
    /// lane. An `Input` step only marks its slot pending; the step that
    /// consumes it reads an identity or single-element input in place
    /// and fills the lane for any other broadcast, so the common inputs
    /// cost no copy. The `in_place` input is never read: its elements are
    /// already in the output strip, which is where it is pushed.
    fn eval_range(
        &self,
        srcs: &mut [Src<'_>],
        start: usize,
        out: &mut [f32],
        scratch: &mut [f32],
        in_place: Option<u8>,
    ) {
        let lane = CHUNK.min(out.len());
        let mut done = 0;
        while done < out.len() {
            let len = lane.min(out.len() - done);
            let at = start + done;
            let strip = &mut out[done..done + len];
            let mut pending: [Option<u8>; FUSED_MAX_STACK] = [None; FUSED_MAX_STACK];
            let mut top = 0;
            for op in &self.ops {
                match op {
                    FusedOp::Input(i) => {
                        pending[top] = Some(*i).filter(|&i| Some(i) != in_place);
                        top += 1;
                    }
                    op if op.arity() == 1 => {
                        let (dst, _) = slots(strip, scratch, lane, top - 1);
                        if let Some(i) = pending[top - 1].take() {
                            let (src, walker) = &mut srcs[i as usize];
                            walker.fill(src, at, dst);
                        }
                        op.map_unary(dst);
                    }
                    op => {
                        let (dst, rhs_lane) = slots(strip, scratch, lane, top - 2);
                        let rhs = match pending[top - 1].take().map(|i| &mut srcs[i as usize]) {
                            Some((src, walker)) if walker.is_identity() => {
                                Rhs::Lane(&src[at..at + len])
                            }
                            Some((src, walker)) if walker.is_single() => Rhs::Splat(src[0]),
                            Some((src, walker)) => {
                                walker.fill(src, at, rhs_lane);
                                Rhs::Lane(rhs_lane)
                            }
                            None => Rhs::Lane(rhs_lane),
                        };
                        let lhs = match pending[top - 2].take().map(|i| &mut srcs[i as usize]) {
                            Some((src, walker)) if walker.is_identity() => Some(&src[at..at + len]),
                            Some((src, walker)) => {
                                walker.fill(src, at, dst);
                                None
                            }
                            None => None,
                        };
                        op.map_binary(dst, lhs, rhs);
                        top -= 1;
                    }
                }
            }
            // a program that is a lone `Input`
            if let Some(i) = pending[0] {
                let (src, walker) = &mut srcs[i as usize];
                walker.fill(src, at, strip);
            }
            done += len;
        }
    }
}

/// Stack slots `k` and `k + 1` of one strip: slot 0 is the output strip
/// itself, slot `k > 0` the `k`-th `lane`-float piece of `scratch`. The
/// second slot is empty when the stack is not that deep.
fn slots<'s>(
    strip: &'s mut [f32],
    scratch: &'s mut [f32],
    lane: usize,
    k: usize,
) -> (&'s mut [f32], &'s mut [f32]) {
    let len = strip.len();
    let (lo, hi) = scratch.split_at_mut(k * lane);
    let upper_len = len.min(hi.len());
    let upper = &mut hi[..upper_len];
    match k {
        0 => (strip, upper),
        _ => (&mut lo[(k - 1) * lane..][..len], upper),
    }
}

/// Same threshold as the elementwise kernels in [`crate::ops`]: below
/// this many output elements a parallel split costs more than it saves.
const FUSED_PAR_MIN: usize = 1 << 15;

/// Buffers the arena will hold at most (beyond that, freed buffers just
/// drop), and the largest buffer worth keeping.
const ARENA_MAX_BUFS: usize = 16;
const ARENA_MAX_ELEMS: usize = 1 << 22;

/// A small free-list of `f32` buffers for fused outputs: dead
/// intermediates donate their allocations ([`FusedArena::give`]) and
/// fused evaluation reuses them ([`FusedArena::take`]), so loop-carried
/// temporaries stop hitting the allocator once the loop warms up. It
/// also owns the scratch lanes of the strip evaluator.
#[derive(Debug, Default)]
pub struct FusedArena {
    free: Vec<Vec<f32>>,
    scratch: Vec<f32>,
}

impl FusedArena {
    /// A fresh, empty arena.
    pub fn new() -> FusedArena {
        FusedArena::default()
    }

    /// A buffer of `n` elements with unspecified contents — the smallest
    /// donated buffer that is large enough (so a small output does not
    /// use up the buffer a large one could have had), freshly allocated
    /// when none is. A donated buffer keeps what it held, so in a warm
    /// loop nothing is cleared before being overwritten.
    pub fn take(&mut self, n: usize) -> Vec<f32> {
        let best = (0..self.free.len())
            .filter(|&i| self.free[i].capacity() >= n)
            .min_by_key(|&i| self.free[i].capacity());
        match best {
            Some(i) => {
                let mut buf = self.free.swap_remove(i);
                buf.resize(n, 0.0);
                buf
            }
            None => vec![0.0; n],
        }
    }

    /// `len` floats of scratch (contents unspecified), kept across calls.
    fn scratch(&mut self, len: usize) -> &mut [f32] {
        if self.scratch.len() < len {
            self.scratch.resize(len, 0.0);
        }
        &mut self.scratch[..len]
    }

    /// Donate a dead buffer for reuse. Oversized buffers and donations
    /// beyond the arena's capacity are simply dropped.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 || buf.capacity() > ARENA_MAX_ELEMS {
            return;
        }
        if self.free.len() >= ARENA_MAX_BUFS {
            // keep the larger buffer: evict the smallest held one
            if let Some((idx, _)) = self
                .free
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
            {
                if self.free[idx].capacity() < buf.capacity() {
                    self.free[idx] = buf;
                }
            }
            return;
        }
        self.free.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, shape: &[usize]) -> Tensor {
        Tensor::from_vec(v, shape).unwrap()
    }

    /// add → mul → tanh over same-shape inputs matches op-by-op bitwise.
    #[test]
    fn fused_chain_matches_op_by_op_bitwise() {
        let a = t(vec![0.1, -2.5, 3.7, 0.0], &[4]);
        let b = t(vec![1.5, 0.25, -1.0, 9.0], &[4]);
        let c = t(vec![2.0, -0.5, 0.75, 1.25], &[4]);
        // tanh((a + b) * c)
        let spec = FusedSpec::new(
            vec![
                FusedOp::Input(0),
                FusedOp::Input(1),
                FusedOp::Add,
                FusedOp::Input(2),
                FusedOp::Mul,
                FusedOp::Tanh,
            ],
            3,
        )
        .unwrap();
        let mut arena = FusedArena::new();
        let fused = spec.try_eval(&[&a, &b, &c], &mut arena).unwrap();
        let reference = a.add(&b).unwrap().mul(&c).unwrap().tanh().unwrap();
        assert_eq!(
            fused.as_f32().unwrap(),
            reference.as_f32().unwrap(),
            "fused result must be bitwise identical"
        );
        assert_eq!(fused.shape(), reference.shape());
    }

    #[test]
    fn broadcast_scalar_and_row() {
        let m = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let row = t(vec![10.0, 20.0, 30.0], &[3]);
        let s = Tensor::scalar_f32(0.5);
        // (m + row) * s
        let spec = FusedSpec::new(
            vec![
                FusedOp::Input(0),
                FusedOp::Input(1),
                FusedOp::Add,
                FusedOp::Input(2),
                FusedOp::Mul,
            ],
            3,
        )
        .unwrap();
        let mut arena = FusedArena::new();
        let got = spec.try_eval(&[&m, &row, &s], &mut arena).unwrap();
        let want = m.add(&row).unwrap().mul(&s).unwrap();
        assert_eq!(got.as_f32().unwrap(), want.as_f32().unwrap());
        assert_eq!(got.shape(), &[2, 3]);
    }

    #[test]
    fn ineligible_inputs_are_refused_without_side_effects() {
        let spec =
            FusedSpec::new(vec![FusedOp::Input(0), FusedOp::Input(1), FusedOp::Add], 2).unwrap();
        let mut arena = FusedArena::new();
        // i64 input
        let i = Tensor::from_vec_i64(vec![1, 2], &[2]).unwrap();
        let f = t(vec![1.0, 2.0], &[2]);
        assert!(spec.try_eval(&[&i, &f], &mut arena).is_none());
        // broadcast mismatch
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![1.0, 2.0, 3.0], &[3]);
        assert!(spec.try_eval(&[&a, &b], &mut arena).is_none());
        // wrong arity
        assert!(spec.plan([&a]).is_none());
    }

    #[test]
    fn malformed_programs_rejected() {
        // empty
        assert!(FusedSpec::new(vec![], 0).is_none());
        // stack underflow
        assert!(FusedSpec::new(vec![FusedOp::Input(0), FusedOp::Add], 1).is_none());
        // two values left
        assert!(FusedSpec::new(vec![FusedOp::Input(0), FusedOp::Input(0)], 1).is_none());
        // input slot out of range
        assert!(FusedSpec::new(vec![FusedOp::Input(3)], 1).is_none());
        // too deep
        let mut deep = vec![FusedOp::Input(0); FUSED_MAX_STACK + 1];
        for _ in 0..FUSED_MAX_STACK {
            deep.push(FusedOp::Add);
        }
        assert!(FusedSpec::new(deep, 1).is_none());
    }

    #[test]
    fn arena_recycles_buffers() {
        let mut arena = FusedArena::new();
        let mut buf = Vec::with_capacity(128);
        buf.push(1.0f32);
        let cap = buf.capacity();
        arena.give(buf);
        assert_eq!(arena.free.len(), 1);
        let reused = arena.take(64);
        assert_eq!(reused.len(), 64);
        assert_eq!(reused.capacity(), cap, "the donated buffer came back");
        assert_eq!(arena.free.len(), 0);
        // too-small held buffers are skipped
        arena.give(Vec::with_capacity(8));
        let fresh = arena.take(1024);
        assert!(fresh.capacity() >= 1024);
        assert_eq!(arena.free.len(), 1, "small buffer stays for a later fit");
    }

    #[test]
    fn arena_reuse_through_tensor_roundtrip() {
        let mut arena = FusedArena::new();
        let spec = FusedSpec::new(vec![FusedOp::Input(0), FusedOp::Sqrt], 1).unwrap();
        let a = t(vec![4.0, 9.0, 16.0, 25.0], &[4]);
        let out = spec.try_eval(&[&a], &mut arena).unwrap();
        assert_eq!(out.as_f32().unwrap(), &[2.0, 3.0, 4.0, 5.0]);
        // sole owner: the buffer is reclaimable and feeds the next eval
        let buf = out.into_f32_buffer().unwrap();
        arena.give(buf);
        let out2 = spec.try_eval(&[&a], &mut arena).unwrap();
        assert_eq!(out2.as_f32().unwrap(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(arena.free.len(), 0, "recycled buffer was taken");
    }

    #[test]
    fn empty_tensors_fuse() {
        let spec = FusedSpec::new(vec![FusedOp::Input(0), FusedOp::Relu], 1).unwrap();
        let mut arena = FusedArena::new();
        let e = t(vec![], &[0]);
        let out = spec.try_eval(&[&e], &mut arena).unwrap();
        assert_eq!(out.num_elements(), 0);
        assert_eq!(out.shape(), &[0]);
    }

    /// Op-by-op reference: interpret the postfix program on a stack of
    /// tensors with the unfused kernels.
    fn reference(ops: &[FusedOp], inputs: &[&Tensor]) -> Tensor {
        let mut stack: Vec<Tensor> = Vec::new();
        for op in ops {
            let v = match op {
                FusedOp::Input(i) => inputs[*i as usize].clone(),
                op if op.arity() == 1 => {
                    let a = stack.pop().unwrap();
                    match op {
                        FusedOp::Neg => a.neg(),
                        FusedOp::Abs => a.abs(),
                        FusedOp::Sqrt => a.sqrt(),
                        FusedOp::Exp => a.exp(),
                        FusedOp::Log => a.log(),
                        FusedOp::Square => a.square(),
                        FusedOp::Tanh => a.tanh(),
                        FusedOp::Sigmoid => a.sigmoid(),
                        _ => a.relu(),
                    }
                    .unwrap()
                }
                op => {
                    let b = stack.pop().unwrap();
                    let a = stack.pop().unwrap();
                    match op {
                        FusedOp::Add => a.add(&b),
                        FusedOp::Sub => a.sub(&b),
                        FusedOp::Mul => a.mul(&b),
                        FusedOp::Div => a.div(&b),
                        FusedOp::FloorDiv => a.floordiv(&b),
                        FusedOp::Mod => a.rem(&b),
                        FusedOp::Pow => a.pow(&b),
                        FusedOp::Maximum => a.maximum(&b),
                        _ => a.minimum(&b),
                    }
                    .unwrap()
                }
            };
            stack.push(v);
        }
        stack.pop().unwrap()
    }

    /// Values that separate "numerically close" from "bitwise equal".
    const SPECIALS: [f32; 10] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        1.0e-40,  // subnormal
        -3.0e-42, // subnormal
        f32::MIN_POSITIVE,
        f32::MAX,
        -1.0,
    ];

    fn payload(rng: &mut crate::Rng64, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        let v = (0..n)
            .map(|_| match rng.next_below(4) {
                0 => SPECIALS[rng.next_below(SPECIALS.len() as u64) as usize],
                _ => rng.next_normal() * 3.0,
            })
            .collect();
        t(v, shape)
    }

    /// Strip-mined evaluation agrees with op-by-op execution bit for bit:
    /// lengths around the strip boundaries × every broadcast class ×
    /// every op × payloads with NaN, ±inf, −0.0 and subnormals.
    #[test]
    fn strips_match_op_by_op_bitwise() {
        use FusedOp::*;
        let mut programs: Vec<Vec<FusedOp>> = vec![
            // the RNN cell: x read twice, so its walker is re-positioned
            vec![Input(0), Input(1), Add, Input(0), Add, Tanh],
            // three lanes deep
            vec![Input(0), Input(1), Sub, Input(0), Input(1), Mul, Div],
            // four lanes deep, rhs-nested
            vec![Input(1), Input(0), Input(1), Input(0), Add, Mul, Sub, Abs],
        ];
        for bin in [Add, Sub, Mul, Div, FloorDiv, Mod, Pow, Maximum, Minimum] {
            programs.push(vec![Input(0), Input(1), bin]);
        }
        for un in [Neg, Abs, Sqrt, Exp, Log, Square, Tanh, Sigmoid, Relu] {
            programs.push(vec![Input(0), Input(1), Mul, un]);
        }
        let mut rng = crate::Rng64::new(0xf00d);
        let mut arena = FusedArena::new();
        for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
            let classes: [(&str, Vec<usize>, Vec<usize>); 7] = [
                ("same shape", vec![len], vec![len]),
                ("scalar", vec![len], vec![]),
                ("row", vec![3, len], vec![len]),
                ("column", vec![len, 3], vec![len, 1]),
                ("column, long runs", vec![3, len], vec![3, 1]),
                ("leading 1", vec![3, len], vec![1, len]),
                ("rank-3 mixed", vec![2, 1, len], vec![2, 3, 1]),
            ];
            for (class, xs, ys) in classes {
                let x = payload(&mut rng, &xs);
                let y = payload(&mut rng, &ys);
                for ops in &programs {
                    let spec = FusedSpec::new(ops.clone(), 2).unwrap();
                    // both operand orders, so each side is the broadcast one
                    for inputs in [[&x, &y], [&y, &x]] {
                        let got = spec.try_eval(&inputs, &mut arena).unwrap();
                        let want = reference(ops, &inputs);
                        assert_eq!(got.shape(), want.shape(), "{class} len {len} {ops:?}");
                        let bits = |t: &Tensor| -> Vec<u32> {
                            t.as_f32().unwrap().iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(bits(&got), bits(&want), "{class} len {len} {ops:?}");
                        arena.give(got.into_f32_buffer().unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn in_place_input_is_the_first_step_read_once() {
        use FusedOp::*;
        let slot = |ops: Vec<FusedOp>| FusedSpec::new(ops, 2).unwrap().in_place_input();
        assert_eq!(slot(vec![Input(0), Input(1), Add, Tanh]), Some(0));
        assert_eq!(slot(vec![Input(1), Neg, Input(0), Mul]), Some(1));
        // read again later: writing over it would change what is read
        assert_eq!(slot(vec![Input(0), Input(1), Add, Input(0), Mul]), None);
        assert_eq!(slot(vec![Input(0), Input(0), Mul, Input(1), Add]), None);
    }

    /// A handed-over input is written over when it is sole and
    /// output-shaped, read like any input otherwise; the bits are
    /// op-by-op's either way.
    #[test]
    fn handed_over_input_matches_op_by_op_bitwise() {
        use FusedOp::*;
        let programs = [
            vec![Input(0), Input(1), Add, Tanh],
            vec![Input(0), Sqrt, Input(1), Div],
            vec![Input(1), Input(0), Input(0), Mul, Sub, Abs],
        ];
        let bits =
            |t: &Tensor| -> Vec<u32> { t.as_f32().unwrap().iter().map(|v| v.to_bits()).collect() };
        let mut rng = crate::Rng64::new(0xbeef);
        let mut arena = FusedArena::new();
        for len in [1, CHUNK - 1, CHUNK + 1, 3 * CHUNK + 7] {
            for (xs, ys) in [(vec![2, len], vec![2, len]), (vec![2, len], vec![len])] {
                let x = payload(&mut rng, &xs);
                let y = payload(&mut rng, &ys);
                for ops in &programs {
                    let spec = FusedSpec::new(ops.clone(), 2).unwrap();
                    let k = spec.in_place_input().unwrap();
                    let inputs = [&x, &y];
                    let want = reference(ops, &inputs);
                    let copy = |v: &Tensor| t(v.as_f32().unwrap().to_vec(), v.shape());
                    let others = [inputs[1 - k]];

                    // sole: written over when output-shaped
                    let owned = copy(inputs[k]);
                    let buf = owned.as_f32().unwrap().as_ptr();
                    let Ok(plan) = spec.plan_owned(others, owned) else {
                        panic!("eligible");
                    };
                    let got = spec.eval(plan, &mut arena);
                    assert_eq!(bits(&got), bits(&want), "len {len} {ops:?}");
                    let reused = got.as_f32().unwrap().as_ptr() == buf;
                    assert_eq!(
                        reused,
                        inputs[k].shape() == want.shape(),
                        "len {len} {ops:?}"
                    );

                    // shared: read, never written
                    let owned = copy(inputs[k]);
                    let kept = owned.clone();
                    let Ok(plan) = spec.plan_owned(others, owned) else {
                        panic!("eligible");
                    };
                    let got = spec.eval(plan, &mut arena);
                    assert_eq!(bits(&got), bits(&want), "len {len} {ops:?}");
                    assert_eq!(bits(&kept), bits(inputs[k]));
                }
            }
        }
        // ineligible: the input comes back
        let spec = FusedSpec::new(vec![Input(0), Input(1), Add], 2).unwrap();
        let i = Tensor::from_vec_i64(vec![1, 2], &[2]).unwrap();
        assert!(spec.plan_owned([&i], t(vec![1.0, 2.0], &[2])).is_err());
    }

    #[test]
    fn arena_take_is_best_fit() {
        let mut arena = FusedArena::new();
        arena.give(Vec::with_capacity(2048));
        arena.give(Vec::with_capacity(16));
        arena.give(Vec::with_capacity(64));
        assert_eq!(arena.take(16).capacity(), 16);
        assert_eq!(arena.take(20).capacity(), 64);
        assert_eq!(arena.take(20).capacity(), 2048);
    }
}
