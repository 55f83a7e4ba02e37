//! Binary serialization of staged-and-compiled execution plans — the
//! payload format behind `autograph-planstore` (ROADMAP item 3).
//!
//! A [`CompiledUnit`] bundles everything a warm start needs to execute
//! without re-staging: the optimized [`Graph`] (provenance chains
//! included, so the explain layer keeps working), the fetch set, and the
//! eagerly-lowered bytecode [`Program`](crate::compile) the VM runs.
//! Installing a decoded unit into a [`Session`](crate::session::Session)
//! via [`Session::install_compiled`](crate::session::Session::install_compiled)
//! pre-seeds the plan cache so the first `run` call neither compiles a
//! plan nor lowers bytecode.
//!
//! ## Encoding rules
//!
//! * Everything is little-endian; lengths/counts are `u64`, floats are
//!   stored as IEEE-754 bit patterns (decode reproduces them bitwise —
//!   the warm-vs-cold oracle depends on it).
//! * The format is self-describing only down to the field level: the
//!   container (magic/version/checksum) lives in `planstore`, which
//!   versions this payload encoding via its `VERSION_TAG`. Changing
//!   anything here requires bumping that tag.
//! * Decoding is **total**: every read is bounds-checked and every tag
//!   validated, returning `Err(String)` — never a panic, never an
//!   out-of-bounds slice — so a corrupted payload that slipped past the
//!   checksum still degrades to cold staging.
//! * Derived fields are not stored: instruction mnemonics are recomputed
//!   from their op kinds, and `FusedSpec`s are re-validated through
//!   [`FusedSpec::new`] so an invalid spec cannot be smuggled in.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::compile::{self, CoverArg, CoverOp, FusedGroup, IKind, Instr, Proc, Program, Reg};
use crate::exec::Plan;
use crate::ir::{Graph, Node, NodeId, Op, OpKind, PassRecord, ProvSource, SubGraph};
use autograph_pylang::Span;
use autograph_tensor::fused::{FusedOp, FusedSpec};
use autograph_tensor::{DType, Tensor};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Byte-level reader/writer (shared with the runtime/serve layers for
// their metadata envelopes)

/// An append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32` (LE).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64` (LE).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f32` as its IEEE-754 bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append `Some`ness then the value via `f`.
    pub fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut ByteWriter, T)) {
        match v {
            Some(v) => {
                self.u8(1);
                f(self, v);
            }
            None => self.u8(0),
        }
    }
}

/// A bounds-checked little-endian byte reader; every method fails with
/// a description instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Decode failure description.
pub(crate) type DecodeError = String;

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| "length overflow".to_string())?;
        if end > self.buf.len() {
            return Err(format!(
                "unexpected end of payload (need {n} bytes at offset {}, have {})",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(self.u64()? as i64)
    }

    /// Read an `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Read a `u64` and validate it fits a `usize` count bounded by the
    /// remaining payload (every element costs ≥ 1 byte, so any count
    /// beyond the remaining bytes is corrupt — this caps allocations).
    pub fn count(&mut self) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return Err(format!("count {n} exceeds remaining payload {remaining}"));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.count()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|e| format!("invalid utf-8 string: {e}"))
    }

    /// Read an option via `f`.
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut ByteReader<'a>) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            t => Err(format!("invalid option tag {t}")),
        }
    }
}

// ---------------------------------------------------------------------
// Leaf encoders

fn put_span(w: &mut ByteWriter, s: Span) {
    w.u32(s.line);
    w.u32(s.col);
}

fn get_span(r: &mut ByteReader<'_>) -> Result<Span, DecodeError> {
    Ok(Span::new(r.u32()?, r.u32()?))
}

fn put_tensor(w: &mut ByteWriter, t: &Tensor) {
    let shape = t.shape();
    w.u64(shape.len() as u64);
    for &d in shape {
        w.u64(d as u64);
    }
    match t.data() {
        autograph_tensor::Data::F32(v) => {
            w.u8(0);
            w.u64(v.len() as u64);
            for &x in v {
                w.f32(x);
            }
        }
        autograph_tensor::Data::I64(v) => {
            w.u8(1);
            w.u64(v.len() as u64);
            for &x in v {
                w.i64(x);
            }
        }
        autograph_tensor::Data::Bool(v) => {
            w.u8(2);
            w.u64(v.len() as u64);
            for &x in v {
                w.u8(u8::from(x));
            }
        }
    }
}

fn get_tensor(r: &mut ByteReader<'_>) -> Result<Tensor, DecodeError> {
    let rank = r.count()?;
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(r.u64()? as usize);
    }
    let tag = r.u8()?;
    let n = r.count()?;
    let t = match tag {
        0 => {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.f32()?);
            }
            Tensor::from_vec(v, &shape)
        }
        1 => {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.i64()?);
            }
            Tensor::from_vec_i64(v, &shape)
        }
        2 => {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.u8()? != 0);
            }
            Tensor::from_vec_bool(v, &shape)
        }
        t => return Err(format!("invalid tensor dtype tag {t}")),
    };
    t.map_err(|e| format!("tensor reconstruction failed: {e}"))
}

fn put_opt_isize(w: &mut ByteWriter, v: Option<isize>) {
    w.opt(v, |w, v| w.i64(v as i64));
}

fn get_opt_isize(r: &mut ByteReader<'_>) -> Result<Option<isize>, DecodeError> {
    r.opt(|r| Ok(r.i64()? as isize))
}

/// Known optimizer pass/action names, interned back to `&'static str`
/// on decode. Unknown names (a newer writer) fall back to leaking the
/// string — bounded by the artifact's content, read once per load.
fn intern(s: String) -> &'static str {
    match s.as_str() {
        "cse" => "cse",
        "const_fold" => "const_fold",
        "dce" => "dce",
        "absorbed-duplicate" => "absorbed-duplicate",
        "folded-inputs" => "folded-inputs",
        _ => Box::leak(s.into_boxed_str()),
    }
}

// ---------------------------------------------------------------------
// OpKind

fn put_op(w: &mut ByteWriter, op: &OpKind) {
    use OpKind::*;
    match op {
        Placeholder { name } => {
            w.u8(0);
            w.str(name);
        }
        Const(t) => {
            w.u8(1);
            put_tensor(w, t);
        }
        Variable { name } => {
            w.u8(2);
            w.str(name);
        }
        Param(i) => {
            w.u8(3);
            w.u64(*i as u64);
        }
        Tensor(op) => put_tensor_op(w, op),
        TopK(k) => {
            w.u8(58);
            w.u64(*k as u64);
        }
        ArrayNew => w.u8(63),
        ArrayPush => w.u8(64),
        ArrayPop => w.u8(65),
        ArrayWrite => w.u8(66),
        ArrayRead => w.u8(67),
        ArrayStack => w.u8(68),
        ArraySize => w.u8(69),
        TupleOp => w.u8(74),
        TupleGet(i) => {
            w.u8(75);
            w.u64(*i as u64);
        }
        Print(tag) => {
            w.u8(78);
            w.str(tag);
        }
        AssertOp(msg) => {
            w.u8(79);
            w.str(msg);
        }
        Assign { name } => {
            w.u8(80);
            w.str(name);
        }
        Group => w.u8(81),
        Cond { then_g, else_g } => {
            w.u8(82);
            put_subgraph(w, then_g);
            put_subgraph(w, else_g);
        }
        While {
            cond_g,
            body_g,
            max_iters,
        } => {
            w.u8(83);
            put_subgraph(w, cond_g);
            put_subgraph(w, body_g);
            w.opt(*max_iters, |w, v| w.u64(v));
        }
    }
}

/// A pure op keeps the tag its `OpKind` arm had before ops moved into
/// [`Op`], so artifacts encode as they did.
fn put_tensor_op(w: &mut ByteWriter, op: &Op) {
    use Op::*;
    match op {
        Add => w.u8(4),
        Sub => w.u8(5),
        Mul => w.u8(6),
        Div => w.u8(7),
        FloorDiv => w.u8(8),
        Mod => w.u8(9),
        Pow => w.u8(10),
        Maximum => w.u8(11),
        Minimum => w.u8(12),
        Neg => w.u8(13),
        Abs => w.u8(14),
        Sqrt => w.u8(15),
        Exp => w.u8(16),
        Log => w.u8(17),
        Square => w.u8(18),
        Tanh => w.u8(19),
        Sigmoid => w.u8(20),
        Relu => w.u8(21),
        Softmax => w.u8(22),
        LogSoftmax => w.u8(23),
        SoftmaxCrossEntropy => w.u8(24),
        Less => w.u8(25),
        LessEqual => w.u8(26),
        Greater => w.u8(27),
        GreaterEqual => w.u8(28),
        Equal => w.u8(29),
        NotEqual => w.u8(30),
        LogicalAnd => w.u8(31),
        LogicalOr => w.u8(32),
        LogicalNot => w.u8(33),
        Select => w.u8(34),
        MatMul {
            transpose_a,
            transpose_b,
        } => {
            w.u8(35);
            w.u8(u8::from(*transpose_a) | u8::from(*transpose_b) << 1);
        }
        Transpose(perm) => {
            w.u8(36);
            w.u64(perm.len() as u64);
            for &p in perm {
                w.u64(p as u64);
            }
        }
        Reshape(dims) => {
            w.u8(37);
            w.u64(dims.len() as u64);
            for &d in dims {
                w.u64(d as u64);
            }
        }
        ExpandDims(a) => {
            w.u8(38);
            w.i64(*a as i64);
        }
        Squeeze(a) => {
            w.u8(39);
            put_opt_isize(w, *a);
        }
        Cast(dt) => {
            w.u8(40);
            w.u8(match dt {
                DType::F32 => 0,
                DType::I64 => 1,
                DType::Bool => 2,
            });
        }
        Shape => w.u8(41),
        Size => w.u8(42),
        DimSize(a) => {
            w.u8(43);
            w.i64(*a as i64);
        }
        Range => w.u8(44),
        TileAxis0(n) => {
            w.u8(45);
            w.u64(*n as u64);
        }
        ReduceSum(a) => {
            w.u8(46);
            put_opt_isize(w, *a);
        }
        ReduceMean(a) => {
            w.u8(47);
            put_opt_isize(w, *a);
        }
        ReduceMax(a) => {
            w.u8(48);
            put_opt_isize(w, *a);
        }
        ReduceMin(a) => {
            w.u8(49);
            put_opt_isize(w, *a);
        }
        ReduceAll(a) => {
            w.u8(50);
            put_opt_isize(w, *a);
        }
        ReduceAny(a) => {
            w.u8(51);
            put_opt_isize(w, *a);
        }
        ArgMax(a) => {
            w.u8(52);
            w.i64(*a as i64);
        }
        IndexAxis0 => w.u8(53),
        SliceAxis0 { start, stop } => {
            w.u8(54);
            w.opt(*start, |w, v| w.i64(v));
            w.opt(*stop, |w, v| w.i64(v));
        }
        SetItemAxis0 => w.u8(55),
        Gather => w.u8(56),
        OneHot(n) => {
            w.u8(57);
            w.u64(*n as u64);
        }
        TopKValues(k) => {
            w.u8(59);
            w.u64(*k as u64);
        }
        TopKIndices(k) => {
            w.u8(60);
            w.u64(*k as u64);
        }
        Concat(a) => {
            w.u8(61);
            w.i64(*a as i64);
        }
        StackOp => w.u8(62),
        SumToShape => w.u8(70),
        BroadcastLike => w.u8(71),
        ReshapeLike => w.u8(72),
        XentGrad => w.u8(73),
        Identity => w.u8(76),
        StopGradient => w.u8(77),
        SplitLike { axis, index } => {
            w.u8(84);
            w.i64(*axis as i64);
            w.u64(*index as u64);
        }
    }
}

fn get_op(r: &mut ByteReader<'_>) -> Result<OpKind, DecodeError> {
    use OpKind::*;
    Ok(match r.u8()? {
        0 => Placeholder { name: r.str()? },
        1 => Const(get_tensor(r)?),
        2 => Variable { name: r.str()? },
        3 => Param(r.u64()? as usize),
        58 => TopK(r.u64()? as usize),
        63 => ArrayNew,
        64 => ArrayPush,
        65 => ArrayPop,
        66 => ArrayWrite,
        67 => ArrayRead,
        68 => ArrayStack,
        69 => ArraySize,
        74 => TupleOp,
        75 => TupleGet(r.u64()? as usize),
        78 => Print(r.str()?),
        79 => AssertOp(r.str()?),
        80 => Assign { name: r.str()? },
        81 => Group,
        82 => Cond {
            then_g: get_subgraph(r)?,
            else_g: get_subgraph(r)?,
        },
        83 => While {
            cond_g: get_subgraph(r)?,
            body_g: get_subgraph(r)?,
            max_iters: r.opt(|r| r.u64())?,
        },
        tag => Tensor(get_tensor_op(tag, r)?),
    })
}

fn get_tensor_op(tag: u8, r: &mut ByteReader<'_>) -> Result<Op, DecodeError> {
    use Op::*;
    Ok(match tag {
        4 => Add,
        5 => Sub,
        6 => Mul,
        7 => Div,
        8 => FloorDiv,
        9 => Mod,
        10 => Pow,
        11 => Maximum,
        12 => Minimum,
        13 => Neg,
        14 => Abs,
        15 => Sqrt,
        16 => Exp,
        17 => Log,
        18 => Square,
        19 => Tanh,
        20 => Sigmoid,
        21 => Relu,
        22 => Softmax,
        23 => LogSoftmax,
        24 => SoftmaxCrossEntropy,
        25 => Less,
        26 => LessEqual,
        27 => Greater,
        28 => GreaterEqual,
        29 => Equal,
        30 => NotEqual,
        31 => LogicalAnd,
        32 => LogicalOr,
        33 => LogicalNot,
        34 => Select,
        35 => match r.u8()? {
            flags @ 0..=3 => MatMul {
                transpose_a: flags & 1 != 0,
                transpose_b: flags & 2 != 0,
            },
            flags => return Err(format!("invalid matmul flags {flags:#x}")),
        },
        36 => {
            let n = r.count()?;
            let mut perm = Vec::with_capacity(n);
            for _ in 0..n {
                perm.push(r.u64()? as usize);
            }
            Transpose(perm)
        }
        37 => {
            let n = r.count()?;
            let mut dims = Vec::with_capacity(n);
            for _ in 0..n {
                dims.push(r.u64()? as usize);
            }
            Reshape(dims)
        }
        38 => ExpandDims(r.i64()? as isize),
        39 => Squeeze(get_opt_isize(r)?),
        40 => Cast(match r.u8()? {
            0 => DType::F32,
            1 => DType::I64,
            2 => DType::Bool,
            t => return Err(format!("invalid dtype tag {t}")),
        }),
        41 => Shape,
        42 => Size,
        43 => DimSize(r.i64()? as isize),
        44 => Range,
        45 => TileAxis0(r.u64()? as usize),
        46 => ReduceSum(get_opt_isize(r)?),
        47 => ReduceMean(get_opt_isize(r)?),
        48 => ReduceMax(get_opt_isize(r)?),
        49 => ReduceMin(get_opt_isize(r)?),
        50 => ReduceAll(get_opt_isize(r)?),
        51 => ReduceAny(get_opt_isize(r)?),
        52 => ArgMax(r.i64()? as isize),
        53 => IndexAxis0,
        54 => SliceAxis0 {
            start: r.opt(|r| r.i64())?,
            stop: r.opt(|r| r.i64())?,
        },
        55 => SetItemAxis0,
        56 => Gather,
        57 => OneHot(r.u64()? as usize),
        59 => TopKValues(r.u64()? as usize),
        60 => TopKIndices(r.u64()? as usize),
        61 => Concat(r.i64()? as isize),
        62 => StackOp,
        70 => SumToShape,
        71 => BroadcastLike,
        72 => ReshapeLike,
        73 => XentGrad,
        76 => Identity,
        77 => StopGradient,
        84 => SplitLike {
            axis: r.i64()? as isize,
            index: r.u64()? as usize,
        },
        t => return Err(format!("invalid op tag {t}")),
    })
}

// ---------------------------------------------------------------------
// Graph

fn put_node_ids(w: &mut ByteWriter, ids: &[NodeId]) {
    w.u64(ids.len() as u64);
    for &i in ids {
        w.u64(i as u64);
    }
}

fn get_node_ids(r: &mut ByteReader<'_>) -> Result<Vec<NodeId>, DecodeError> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64()? as NodeId);
    }
    Ok(out)
}

fn put_node(w: &mut ByteWriter, node: &Node) {
    put_op(w, &node.op);
    put_node_ids(w, &node.inputs);
    w.str(&node.name);
    put_span(w, node.span);
    w.u64(node.prov.len() as u64);
    for rec in &node.prov {
        w.str(rec.pass);
        w.str(rec.action);
        w.u64(rec.sources.len() as u64);
        for s in &rec.sources {
            w.u64(s.node as u64);
            w.str(&s.name);
            put_span(w, s.span);
        }
    }
}

fn get_node(r: &mut ByteReader<'_>) -> Result<Node, DecodeError> {
    let op = get_op(r)?;
    let inputs = get_node_ids(r)?;
    let name = r.str()?;
    let span = get_span(r)?;
    let nprov = r.count()?;
    let mut prov = Vec::with_capacity(nprov);
    for _ in 0..nprov {
        let pass = intern(r.str()?);
        let action = intern(r.str()?);
        let nsrc = r.count()?;
        let mut sources = Vec::with_capacity(nsrc);
        for _ in 0..nsrc {
            sources.push(ProvSource {
                node: r.u64()? as NodeId,
                name: r.str()?,
                span: get_span(r)?,
            });
        }
        prov.push(PassRecord {
            pass,
            action,
            sources,
        });
    }
    Ok(Node {
        op,
        inputs,
        name,
        span,
        prov,
    })
}

/// Encode a graph (nodes, variables, provenance chains) into `w`.
pub(crate) fn put_graph(w: &mut ByteWriter, g: &Graph) {
    w.u64(g.nodes.len() as u64);
    for n in &g.nodes {
        put_node(w, n);
    }
    w.u64(g.variables.len() as u64);
    for (name, init) in &g.variables {
        w.str(name);
        put_tensor(w, init);
    }
}

/// Decode a graph encoded by [`put_graph`].
///
/// # Errors
///
/// Fails (without panicking) on any malformed byte sequence.
pub(crate) fn get_graph(r: &mut ByteReader<'_>) -> Result<Graph, DecodeError> {
    let nnodes = r.count()?;
    let mut nodes = Vec::with_capacity(nnodes);
    for _ in 0..nnodes {
        nodes.push(get_node(r)?);
    }
    let nvars = r.count()?;
    let mut variables = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        let name = r.str()?;
        let init = get_tensor(r)?;
        variables.push((name, init));
    }
    Ok(Graph { nodes, variables })
}

fn put_subgraph(w: &mut ByteWriter, s: &SubGraph) {
    put_graph(w, &s.graph);
    w.u64(s.num_params as u64);
    put_node_ids(w, &s.outputs);
}

fn get_subgraph(r: &mut ByteReader<'_>) -> Result<SubGraph, DecodeError> {
    Ok(SubGraph {
        graph: get_graph(r)?,
        num_params: r.u64()? as usize,
        outputs: get_node_ids(r)?,
    })
}

// ---------------------------------------------------------------------
// Program

fn put_regs(w: &mut ByteWriter, regs: &[Reg]) {
    w.u64(regs.len() as u64);
    for &r in regs {
        w.u32(r);
    }
}

fn get_regs(r: &mut ByteReader<'_>) -> Result<Vec<Reg>, DecodeError> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u32()?);
    }
    Ok(out)
}

fn put_fused_op(w: &mut ByteWriter, op: FusedOp) {
    use FusedOp::*;
    match op {
        Input(i) => {
            w.u8(0);
            w.u8(i);
        }
        Add => w.u8(1),
        Sub => w.u8(2),
        Mul => w.u8(3),
        Div => w.u8(4),
        FloorDiv => w.u8(5),
        Mod => w.u8(6),
        Pow => w.u8(7),
        Maximum => w.u8(8),
        Minimum => w.u8(9),
        Neg => w.u8(10),
        Abs => w.u8(11),
        Sqrt => w.u8(12),
        Exp => w.u8(13),
        Log => w.u8(14),
        Square => w.u8(15),
        Tanh => w.u8(16),
        Sigmoid => w.u8(17),
        Relu => w.u8(18),
    }
}

fn get_fused_op(r: &mut ByteReader<'_>) -> Result<FusedOp, DecodeError> {
    use FusedOp::*;
    Ok(match r.u8()? {
        0 => Input(r.u8()?),
        1 => Add,
        2 => Sub,
        3 => Mul,
        4 => Div,
        5 => FloorDiv,
        6 => Mod,
        7 => Pow,
        8 => Maximum,
        9 => Minimum,
        10 => Neg,
        11 => Abs,
        12 => Sqrt,
        13 => Exp,
        14 => Log,
        15 => Square,
        16 => Tanh,
        17 => Sigmoid,
        18 => Relu,
        t => return Err(format!("invalid fused-op tag {t}")),
    })
}

fn put_fused_group(w: &mut ByteWriter, g: &FusedGroup) {
    let ops = g.spec.ops();
    w.u64(ops.len() as u64);
    for &op in ops {
        put_fused_op(w, op);
    }
    w.u64(g.spec.num_inputs() as u64);
    w.u64(g.cover.len() as u64);
    for c in &g.cover {
        put_op(w, &c.op);
        w.u64(c.args.len() as u64);
        for &a in &c.args {
            match a {
                CoverArg::Ext(i) => {
                    w.u8(0);
                    w.u64(i as u64);
                }
                CoverArg::Int(i) => {
                    w.u8(1);
                    w.u64(i as u64);
                }
            }
        }
        w.u64(c.node as u64);
        w.str(&c.name);
        put_span(w, c.span);
    }
}

fn get_fused_group(r: &mut ByteReader<'_>) -> Result<FusedGroup, DecodeError> {
    let nops = r.count()?;
    let mut ops = Vec::with_capacity(nops);
    for _ in 0..nops {
        ops.push(get_fused_op(r)?);
    }
    let num_inputs = r.u64()? as usize;
    // revalidate through the public constructor — the spec's structural
    // invariants (arity balance, size limits) are re-proven, not trusted
    let spec = FusedSpec::new(ops, num_inputs)
        .ok_or_else(|| "fused spec failed revalidation".to_string())?;
    let ncover = r.count()?;
    let mut cover = Vec::with_capacity(ncover);
    for _ in 0..ncover {
        let op = get_op(r)?;
        let nargs = r.count()?;
        let mut args = Vec::with_capacity(nargs);
        for _ in 0..nargs {
            args.push(match r.u8()? {
                0 => CoverArg::Ext(r.u64()? as usize),
                1 => CoverArg::Int(r.u64()? as usize),
                t => return Err(format!("invalid cover-arg tag {t}")),
            });
        }
        let node = r.u64()? as NodeId;
        let name = r.str()?;
        let span = get_span(r)?;
        let mnemonic = op.mnemonic();
        cover.push(CoverOp {
            op,
            args,
            node,
            name,
            span,
            mnemonic,
        });
    }
    if cover.is_empty() {
        return Err("fused group with empty cover".to_string());
    }
    Ok(FusedGroup { spec, cover })
}

fn put_instr(w: &mut ByteWriter, i: &Instr) {
    match &i.kind {
        IKind::Const(p) => {
            w.u8(0);
            w.u64(*p as u64);
        }
        IKind::Feed(name) => {
            w.u8(1);
            w.str(name);
        }
        IKind::ReadVar(name) => {
            w.u8(2);
            w.str(name);
        }
        IKind::Assign(name) => {
            w.u8(3);
            w.str(name);
        }
        IKind::Param(p) => {
            w.u8(4);
            w.u64(*p as u64);
        }
        IKind::ParamTop(p) => {
            w.u8(5);
            w.u64(*p as u64);
        }
        IKind::Group => w.u8(6),
        IKind::Op(op) => {
            w.u8(7);
            put_op(w, op);
        }
        IKind::Fused(g) => {
            w.u8(8);
            put_fused_group(w, g);
        }
        IKind::Cond { then_p, else_p } => {
            w.u8(9);
            w.u64(*then_p as u64);
            w.u64(*else_p as u64);
        }
        IKind::While {
            cond_p,
            body_p,
            max_iters,
        } => {
            w.u8(10);
            w.u64(*cond_p as u64);
            w.u64(*body_p as u64);
            w.opt(*max_iters, |w, v| w.u64(v));
        }
    }
    w.u32(i.dst);
    put_regs(w, &i.srcs);
    put_regs(w, &i.free_after);
    w.u64(i.node as u64);
    w.str(&i.name);
    put_span(w, i.span);
    // mnemonic is derived from the kind on decode — not stored
}

/// The mnemonic an instruction kind carries — recomputed on decode so it
/// can never drift from the op it describes.
fn mnemonic_of(kind: &IKind) -> &'static str {
    match kind {
        IKind::Const(_) => "const",
        IKind::Feed(_) => "placeholder",
        IKind::ReadVar(_) => "variable",
        IKind::Assign(_) => "assign",
        IKind::Param(_) | IKind::ParamTop(_) => "param",
        IKind::Group => "group",
        IKind::Op(op) => op.mnemonic(),
        IKind::Fused(g) => g.cover.last().map_or("fused", |c| c.mnemonic),
        IKind::Cond { .. } => "cond",
        IKind::While { .. } => "while",
    }
}

fn get_instr(r: &mut ByteReader<'_>) -> Result<Instr, DecodeError> {
    let kind = match r.u8()? {
        0 => IKind::Const(r.u64()? as usize),
        1 => IKind::Feed(r.str()?),
        2 => IKind::ReadVar(r.str()?),
        3 => IKind::Assign(r.str()?),
        4 => IKind::Param(r.u64()? as usize),
        5 => IKind::ParamTop(r.u64()? as usize),
        6 => IKind::Group,
        7 => IKind::Op(get_op(r)?),
        8 => IKind::Fused(get_fused_group(r)?),
        9 => IKind::Cond {
            then_p: r.u64()? as usize,
            else_p: r.u64()? as usize,
        },
        10 => IKind::While {
            cond_p: r.u64()? as usize,
            body_p: r.u64()? as usize,
            max_iters: r.opt(|r| r.u64())?,
        },
        t => return Err(format!("invalid instruction tag {t}")),
    };
    let dst = r.u32()?;
    let srcs = get_regs(r)?;
    let free_after = get_regs(r)?;
    let node = r.u64()? as NodeId;
    let name = r.str()?;
    let span = get_span(r)?;
    let mnemonic = mnemonic_of(&kind);
    Ok(Instr {
        kind,
        dst,
        srcs,
        free_after,
        node,
        name,
        span,
        mnemonic,
    })
}

fn put_program(w: &mut ByteWriter, p: &Program) {
    w.u64(p.procs.len() as u64);
    for proc in &p.procs {
        w.u64(proc.code.len() as u64);
        for i in &proc.code {
            put_instr(w, i);
        }
        w.u64(proc.nregs as u64);
        put_regs(w, &proc.outputs);
        w.u64(proc.num_params as u64);
    }
    w.u64(p.pool.len() as u64);
    for t in &p.pool {
        put_tensor(w, t);
    }
    w.u64(p.reg_of_node.len() as u64);
    for slot in &p.reg_of_node {
        w.opt(*slot, |w, v| w.u32(v));
    }
}

fn get_program(r: &mut ByteReader<'_>) -> Result<Program, DecodeError> {
    let nprocs = r.count()?;
    let mut procs = Vec::with_capacity(nprocs);
    for _ in 0..nprocs {
        let ncode = r.count()?;
        let mut code = Vec::with_capacity(ncode);
        for _ in 0..ncode {
            code.push(get_instr(r)?);
        }
        let nregs = r.u64()? as usize;
        let outputs = get_regs(r)?;
        let num_params = r.u64()? as usize;
        procs.push(Proc {
            code,
            nregs,
            outputs,
            num_params,
        });
    }
    let npool = r.count()?;
    let mut pool = Vec::with_capacity(npool);
    for _ in 0..npool {
        pool.push(get_tensor(r)?);
    }
    let nreg = r.count()?;
    let mut reg_of_node = Vec::with_capacity(nreg);
    for _ in 0..nreg {
        reg_of_node.push(r.opt(|r| r.u32())?);
    }
    Ok(Program {
        procs,
        pool,
        reg_of_node,
    })
}

// ---------------------------------------------------------------------
// The unit

/// An optimized graph plus its eagerly-lowered bytecode program for one
/// fetch set — everything a warm start needs.
#[derive(Debug, Clone)]
pub struct CompiledUnit {
    /// The optimized graph (provenance chains intact).
    pub graph: Graph,
    /// The fetch set the program was compiled for.
    pub outputs: Vec<NodeId>,
    pub(crate) program: Arc<Program>,
}

impl CompiledUnit {
    /// Compile a plan + bytecode program for `outputs` over `graph` —
    /// the cold half of the pipeline (the `Plan::compile` + VM-lowering
    /// work a warm start skips).
    ///
    /// # Errors
    ///
    /// Propagates plan-compilation failures (unknown fetch ids).
    pub fn build(graph: Graph, outputs: Vec<NodeId>) -> crate::Result<CompiledUnit> {
        let plan = Plan::compile(&graph, &outputs)?;
        let program = Arc::new(compile::compile(&graph, plan.order(), &outputs));
        Ok(CompiledUnit {
            graph,
            outputs,
            program,
        })
    }

    /// The plan with the pre-lowered program installed, ready for a
    /// session's plan cache.
    pub(crate) fn plan(&self) -> crate::Result<Plan> {
        Plan::with_program(&self.graph, &self.outputs, Arc::clone(&self.program))
    }

    /// Serialize to the planstore payload encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_graph(&mut w, &self.graph);
        put_node_ids(&mut w, &self.outputs);
        put_program(&mut w, &self.program);
        w.into_bytes()
    }

    /// Deserialize a payload produced by [`CompiledUnit::encode`].
    ///
    /// # Errors
    ///
    /// Fails with a description on any malformed input; never panics —
    /// callers fall back to cold staging.
    pub fn decode(bytes: &[u8]) -> Result<CompiledUnit, DecodeError> {
        let mut r = ByteReader::new(bytes);
        let unit = CompiledUnit::decode_from(&mut r)?;
        if !r.is_done() {
            return Err("trailing bytes after compiled unit".to_string());
        }
        Ok(unit)
    }

    /// Decode one unit from a reader positioned at its first byte
    /// (for bundle formats that concatenate several units).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`CompiledUnit::decode`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<CompiledUnit, DecodeError> {
        let graph = get_graph(r)?;
        let outputs = get_node_ids(r)?;
        let program = get_program(r)?;
        for &o in &outputs {
            if o >= graph.nodes.len() {
                return Err(format!(
                    "output id {o} out of range (graph has {} nodes)",
                    graph.nodes.len()
                ));
            }
        }
        if program.reg_of_node.len() != graph.nodes.len() {
            return Err("program register map disagrees with graph size".to_string());
        }
        Ok(CompiledUnit {
            graph,
            outputs,
            program: Arc::new(program),
        })
    }

    /// Encode one unit into an existing writer (bundle formats).
    pub fn encode_into(&self, w: &mut ByteWriter) {
        put_graph(w, &self.graph);
        put_node_ids(w, &self.outputs);
        put_program(w, &self.program);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::builder::{GraphBuilder, SubGraphBuilder};
    use crate::session::Session;
    use autograph_tensor::Tensor;

    /// A graph exercising most encoder paths: constants, placeholders,
    /// variables, fusion chains, a While with nested subgraphs, tuple
    /// projection and assignment.
    fn rich_graph() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let x = b.placeholder("x");
        let w = b.variable("w", Tensor::scalar_f32(0.5));
        let two = b.scalar(2.0);
        let m = b.mul(x, two);
        let s = b.add_op(m, w);
        let t = b.add(Op::Tanh, vec![s]);
        let i0 = b.scalar(0.0);
        let (mut cb, cp) = SubGraphBuilder::new(1);
        let ten = cb.b.scalar(3.0);
        let lt = cb.b.add(Op::Less, vec![cp[0], ten]);
        let cond_g = cb.finish(vec![lt]);
        let (mut bb, bp) = SubGraphBuilder::new(1);
        let one = bb.b.scalar(1.0);
        let i1 = bb.b.add_op(bp[0], one);
        let body_g = bb.finish(vec![i1]);
        let lp = b.while_loop(vec![i0], cond_g, body_g);
        let proj = b.tuple_get(lp, 0);
        let asn = b.assign("w", t);
        let grp = b.add(OpKind::Group, vec![asn]);
        (b.finish(), vec![t, proj, grp])
    }

    #[test]
    fn graph_round_trips_bitwise_including_provenance() {
        let (g, outputs) = rich_graph();
        let (opt, opt_outputs, _) = crate::optimize::optimize(&g, &outputs);
        let mut w = ByteWriter::new();
        put_graph(&mut w, &opt);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = get_graph(&mut r).unwrap();
        assert!(r.is_done());
        // Graph derives PartialEq over nodes (ops, names, spans, prov
        // chains) and variables — equality IS the bitwise contract
        assert_eq!(back, opt);
        let _ = opt_outputs;
    }

    #[test]
    fn unit_round_trip_executes_identically() {
        let (g, outputs) = rich_graph();
        let (opt, opt_outputs, _) = crate::optimize::optimize(&g, &outputs);
        let unit = CompiledUnit::build(opt.clone(), opt_outputs.clone()).unwrap();
        let bytes = unit.encode();
        let back = CompiledUnit::decode(&bytes).unwrap();
        assert_eq!(back.graph, opt);
        assert_eq!(back.outputs, opt_outputs);

        let feeds = [("x", Tensor::scalar_f32(1.25))];
        let mut cold = Session::new(opt.clone());
        let want = cold.run(&feeds, &opt_outputs).unwrap();
        let mut warm = Session::new(back.graph.clone());
        warm.install_compiled(&back).unwrap();
        let got = warm.run(&feeds, &opt_outputs).unwrap();
        assert_eq!(want.len(), got.len());
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.shape(), b.shape());
            assert_eq!(
                a.as_f32()
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                b.as_f32()
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            );
        }
        // the pre-installed plan means the first run was a cache hit
        assert_eq!(warm.stats().plan_cache_hits, 1);
        assert_eq!(warm.stats().plan_cache_misses, 0);
    }

    #[test]
    fn decode_never_panics_on_mutated_payloads() {
        let (g, outputs) = rich_graph();
        let unit = CompiledUnit::build(g, outputs).unwrap();
        let bytes = unit.encode();
        // single-byte flips across the whole payload: decode must return
        // (Ok or Err) — any panic fails the test harness
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x5a;
            let _ = CompiledUnit::decode(&bad);
        }
        // truncations
        for len in (0..bytes.len()).step_by(11) {
            let _ = CompiledUnit::decode(&bytes[..len]);
        }
    }

    #[test]
    fn matmul_flag_byte_round_trips_and_rejects_unknown_bits() {
        for flags in 0..=u8::MAX {
            let decoded = get_op(&mut ByteReader::new(&[35, flags]));
            if flags > 3 {
                assert!(decoded.is_err(), "flag byte {flags:#x} was accepted");
                continue;
            }
            let op = OpKind::Tensor(Op::MatMul {
                transpose_a: flags & 1 != 0,
                transpose_b: flags & 2 != 0,
            });
            assert_eq!(decoded.as_ref(), Ok(&op));
            let mut w = ByteWriter::new();
            put_op(&mut w, &op);
            assert_eq!(w.into_bytes(), [35, flags]);
        }
        // the tag alone is a truncated op, not a plain matmul
        assert!(get_op(&mut ByteReader::new(&[35])).is_err());
    }

    #[test]
    fn tensor_payloads_preserve_exact_bits() {
        let vals = vec![0.1f32, -0.0, f32::MIN_POSITIVE, 1e30, f32::NAN];
        let t = Tensor::from_vec(vals.clone(), &[5]).unwrap();
        let mut w = ByteWriter::new();
        put_tensor(&mut w, &t);
        let bytes = w.into_bytes();
        let back = get_tensor(&mut ByteReader::new(&bytes)).unwrap();
        let got = back.as_f32().unwrap();
        for (a, b) in vals.iter().zip(got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn unknown_pass_names_intern_without_aliasing_known_ones() {
        assert_eq!(intern("cse".to_string()), "cse");
        let leaked = intern("future_pass".to_string());
        assert_eq!(leaked, "future_pass");
    }
}
