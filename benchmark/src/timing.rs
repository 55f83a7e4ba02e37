//! The measurement loop: a calibration kernel that tracks the machine
//! regime, and blocks of individually timed operations bracketed by it.

use crate::stats::{scale_factor, Block};
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// 16 KiB of f32: stays in L1, so the kernel tracks core speed and not
/// the memory system.
const CAL_ELEMS: usize = 4096;
/// Sweeps per timed sub-run; one sub-run takes about 0.4 ms.
const CAL_SWEEPS: usize = 1600;
/// Sub-runs per calibration; the fastest one is the calibration time, so
/// a preemption inside one sub-run cannot inflate it.
const CAL_SUBRUNS: usize = 5;

/// The calibration kernel: a fixed pure-Rust f32 sweep that calls no
/// code of the repository, so no change to the program under test can
/// move it.
pub struct Calibrator {
    buf: Vec<f32>,
}

impl Calibrator {
    /// A calibrator with its buffer initialised.
    pub fn new() -> Calibrator {
        Calibrator {
            buf: (0..CAL_ELEMS).map(|i| i as f32 * 1e-3).collect(),
        }
    }

    /// Calibrate once (about 2 ms); returns the fastest sub-run's wall
    /// time in nanoseconds.
    pub fn run(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..CAL_SUBRUNS {
            let t0 = Instant::now();
            for _ in 0..CAL_SWEEPS {
                for x in self.buf.iter_mut() {
                    // contractive, so values stay finite and never denormal
                    *x = *x * 0.999 + 0.5;
                }
                black_box(&mut self.buf);
            }
            best = best.min(t0.elapsed().as_nanos() as f64);
        }
        best
    }
}

/// Time one call of `f` in nanoseconds.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = black_box(f());
    (out, t0.elapsed().as_nanos() as f64)
}

/// How long a series of blocks runs: until `budget` has elapsed and at
/// least `min_blocks` times.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Wall-time budget for all blocks.
    pub budget: Duration,
    /// Lower bound on the number of blocks.
    pub min_blocks: usize,
    /// Record spans on even blocks only and none on odd ones, so one run
    /// yields the traced and the untraced time of the same operation.
    pub alternate_tracing: bool,
}

/// What one block's body measured: the raw time of every operation in
/// nanoseconds (at least one) and, when several callers overlapped, the
/// block's wall time.
pub type Measured = (Vec<f64>, Option<f64>);

/// Run the blocks of `plan`: calibration, `body`, calibration. `body`
/// receives the tracer and the block's index and times its operations
/// itself; this loop owns the budget, the calibration chain, which blocks
/// record spans and the `bench.block` span.
pub fn run_blocks(
    cal: &mut Calibrator,
    tracer: &mut Tracer,
    plan: Plan,
    mut body: impl FnMut(&mut Tracer, u64) -> Measured,
) -> Vec<Block> {
    let start = Instant::now();
    let tracing = tracer.enabled;
    let mut blocks: Vec<Block> = Vec::new();
    while blocks.len() < plan.min_blocks || start.elapsed() < plan.budget {
        tracer.enabled = tracing && !(plan.alternate_tracing && blocks.len() % 2 == 1);
        let index = blocks.len() as u64;
        tracer.enter("bench.block", index);
        // back to back, one block's closing calibration opens the next
        let cal_before_ns = blocks.last().map_or_else(|| cal.run(), |b| b.cal_after_ns);
        let (raw_ns, wall_ns) = body(tracer, index);
        let cal_after_ns = cal.run();
        tracer.exit();
        blocks.push(Block {
            raw_ns,
            cal_before_ns,
            cal_after_ns,
            traced: tracer.enabled,
            wall_ns,
        });
    }
    tracer.enabled = tracing;
    blocks
}

/// The block body of a single caller: `n` individually timed calls of
/// `op`, each inside a span named `span`. `op` receives the tracer (to
/// record child spans of its own) and the global operation index. After
/// each timed call — outside the timed region — `after` sees the result
/// and whether it was the block's last operation. The operation's own
/// span is opened and closed inside the timed region, so its cost shows
/// as tracing overhead.
pub fn timed_ops<T>(
    span: &'static str,
    n: usize,
    mut op: impl FnMut(&mut Tracer, u64) -> T,
    mut after: impl FnMut(T, bool),
) -> impl FnMut(&mut Tracer, u64) -> Measured {
    move |tracer, block| {
        let mut raw_ns = Vec::with_capacity(n);
        for i in 0..n {
            let index = block * n as u64 + i as u64;
            let (out, ns) = time_ns(|| {
                tracer.enter(span, index);
                let out = op(tracer, index);
                tracer.exit();
                out
            });
            raw_ns.push(ns);
            after(out, i + 1 == n);
        }
        (raw_ns, None)
    }
}

/// A wall-clock span scaled by calibration runs taken right before and
/// after it — how `setup_s` is measured. Returns the result and the
/// scaled nanoseconds.
pub fn scaled_span<T>(cal: &mut Calibrator, f: impl FnOnce() -> T) -> (T, f64) {
    let before = cal.run();
    let (out, raw_ns) = time_ns(f);
    let after = cal.run();
    (out, raw_ns * scale_factor(before, after))
}
