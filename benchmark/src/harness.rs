//! The measurement steps every workload shares: set-up, the timed run,
//! staging blocks, the counted allocation pass and layer probes.

use crate::report::{Metrics, Tally};
use crate::stats::{self, Block};
use crate::timing::{run_blocks, scaled_span, timed_ops, Calibrator, Plan};
use crate::trace::Tracer;
use autograph_tensor::mem;
use std::path::PathBuf;
use std::time::Duration;

/// Set-up repetitions of the untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Steady-state operations in the counted allocation pass.
const COUNTED_OPS: usize = 100;

/// Share of `--seconds` for the timed run.
pub const RUN_SHARE: f64 = 0.65;
/// Share of `--seconds` for cold staging.
pub const COLD_SHARE: f64 = 0.2;
/// Share of `--seconds` for warm staging, a layer metric: measured in the
/// traced run only; in the untraced run the timed run has this share too.
pub const WARM_SHARE: f64 = 0.15;
/// Fewest blocks of the timed run, whatever the budget.
pub const MIN_RUN_BLOCKS: usize = 4;

/// State of one run of one workload.
pub struct Ctx {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`: record spans and measure layers instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// The calibration kernel.
    pub cal: Calibrator,
    /// Span recorder (disabled in the untraced run).
    pub tracer: Tracer,
    /// Operations attempted / failed.
    pub tally: Tally,
    /// Metrics measured so far.
    pub metrics: Metrics,
    /// Directory for plan stores; inside `benchmark/out/`, removed at exit.
    pub scratch: PathBuf,
    /// The CPU pin, when the platform granted one.
    pub pinned: Option<crate::pin::Pinned>,
    /// Per block of the timed run: raw median operation time and the two
    /// calibration times, microseconds — written to the result file so
    /// the scaling can be audited block by block.
    pub block_audit: Vec<[f64; 3]>,
}

impl Ctx {
    /// The wall-time budget of a timed phase: its share of `--seconds`,
    /// halved in the traced run, which has the layer probes to fit in.
    pub fn phase_budget(&self, share: f64) -> Duration {
        let seconds = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(seconds * share)
    }

    /// The timed run's share of `--seconds`: its own and, in the untraced
    /// run, warm staging's.
    pub fn run_share(&self) -> f64 {
        if self.trace {
            RUN_SHARE
        } else {
            RUN_SHARE + WARM_SHARE
        }
    }

    /// The plan of the timed run given `share` of `--seconds`. In the
    /// traced run every other block records spans and the difference is
    /// reported as tracing overhead.
    pub fn run_plan(&self, share: f64) -> Plan {
        Plan {
            budget: self.phase_budget(share),
            min_blocks: MIN_RUN_BLOCKS,
            alternate_tracing: true,
        }
    }

    /// Run `setup` — input generation, staging, first run, warm-up —
    /// several times, report the median scaled wall time as `setup_s`,
    /// and hand back the last repetition's product for the timed phases.
    /// `setup` also returns what its operations produced; `check` turns
    /// that into one outcome per operation, outside the timed span.
    pub fn measure_setup<T, W>(
        &mut self,
        mut setup: impl FnMut() -> Result<(T, W), String>,
        mut check: impl FnMut(W) -> Vec<bool>,
    ) -> Result<T, String> {
        let reps = if self.trace { 1 } else { SETUP_REPS };
        let mut times = Vec::with_capacity(reps);
        let mut product = None;
        for _ in 0..reps {
            // drop the previous repetition first: two live copies would
            // make later repetitions pay for a larger heap
            drop(product.take());
            let (out, scaled_ns) = scaled_span(&mut self.cal, &mut setup);
            let (p, warmup) = out?;
            check(warmup)
                .into_iter()
                .for_each(|ok| self.tally.record(ok));
            times.push(scaled_ns);
            product = Some(p);
        }
        self.metrics
            .set("setup_s", stats::median(&times) / 1e9, times.len());
        product.ok_or_else(|| "no set-up repetition ran".to_string())
    }

    /// Run the blocks of `plan`, `n` operations named `span` each, and
    /// tally every operation: failed when it returned an error or `after`
    /// — called outside the timed region with the result and whether it
    /// was the block's last — found its output wrong (`None` means this
    /// one was not checked).
    fn timed_blocks<T>(
        &mut self,
        plan: Plan,
        span: &'static str,
        n: usize,
        op: impl FnMut(&mut Tracer, u64) -> Result<T, String>,
        mut after: impl FnMut(T, bool) -> Option<bool>,
    ) -> Vec<Block> {
        let tally = &mut self.tally;
        let body = timed_ops(span, n, op, |out, last| {
            tally.record(match out {
                Ok(v) => after(v, last).unwrap_or(true),
                Err(_) => false,
            });
        });
        run_blocks(&mut self.cal, &mut self.tracer, plan, body)
    }

    /// The timed run: blocks of `n` operations for `share` of the budget,
    /// `units_per_op` work units each; `op` and `after` as in
    /// [`Ctx::timed_blocks`].
    pub fn measure_run<T>(
        &mut self,
        n: usize,
        share: f64,
        units_per_op: f64,
        op: impl FnMut(&mut Tracer, u64) -> Result<T, String>,
        after: impl FnMut(T, bool) -> Option<bool>,
    ) {
        let blocks = self.timed_blocks(self.run_plan(share), "bench.op", n, op, after);
        self.report_run(&blocks, units_per_op * n as f64);
    }

    /// Report the timed run's metrics from its blocks, each of which
    /// completed `units_per_block` work units; see [`stats::Summary`] for
    /// which blocks count.
    pub fn report_run(&mut self, blocks: &[Block], units_per_block: f64) {
        let s = stats::summarize(blocks);
        self.block_audit = blocks
            .iter()
            .map(|b| {
                [
                    stats::median(&b.raw_ns) / 1e3,
                    b.cal_before_ns / 1e3,
                    b.cal_after_ns / 1e3,
                ]
            })
            .collect();
        let m = &mut self.metrics;
        m.set("run_p50_us", s.p50_ns / 1e3, s.kept_blocks);
        m.set("run_p99_us", s.p99_ns / 1e3, s.kept_samples);
        m.set(
            "throughput_per_s",
            units_per_block / (s.block_busy_ns / 1e9),
            s.kept_blocks,
        );
        m.set("bench.raw_run_p50_us", s.raw_p50_ns / 1e3, s.kept_blocks);
        m.set("bench.cal_us", s.cal_ns / 1e3, blocks.len() * 2);
        m.set("bench.cal_spread_pct", s.cal_spread_pct, blocks.len() * 2);
        if self.trace {
            let side = |traced: bool| -> Vec<Block> {
                blocks
                    .iter()
                    .filter(|b| b.traced == traced)
                    .cloned()
                    .collect()
            };
            let (on, off) = (side(true), side(false));
            let overhead = stats::summarize(&on).p50_ns / stats::summarize(&off).p50_ns - 1.0;
            m.set(
                "bench.trace_overhead_pct",
                overhead * 100.0,
                on.len() + off.len(),
            );
        }
    }

    /// Staging blocks: `n` stagings per block for `share` of the budget;
    /// reports the scaled time of one staging (see
    /// [`stats::Summary::p50_ns`]), in milliseconds, as `metric`. `op` and
    /// `after` as in [`Ctx::timed_blocks`]. Warm staging is measured by
    /// the traced run only (`share` is [`WARM_SHARE`] there).
    pub fn measure_stage<T>(
        &mut self,
        metric: &'static str,
        span: &'static str,
        n: usize,
        share: f64,
        op: impl FnMut(&mut Tracer, u64) -> Result<T, String>,
        after: impl FnMut(T, bool) -> Option<bool>,
    ) {
        let plan = Plan {
            budget: self.phase_budget(share),
            min_blocks: 3,
            alternate_tracing: false,
        };
        let blocks = self.timed_blocks(plan, span, n, op, after);
        let s = stats::summarize(&blocks);
        self.metrics.set(metric, s.p50_ns / 1e6, s.kept_blocks);
    }

    /// The counted pass: tensor-ledger deltas, and the ledger peak above
    /// the live level, over [`COUNTED_OPS`] steady-state operations. The
    /// ledger is process-wide, so `op` must be the only tensor work in
    /// flight. `op` returns whether it succeeded.
    pub fn measure_allocs(&mut self, mut op: impl FnMut() -> bool) {
        mem::track_begin();
        mem::reset_peak();
        let before = mem::snapshot();
        for _ in 0..COUNTED_OPS {
            let ok = op();
            self.tally.record(ok);
        }
        let after = mem::snapshot();
        mem::track_end();
        let per_op = |a: u64, b: u64| (a - b) as f64 / COUNTED_OPS as f64;
        let n = COUNTED_OPS;
        let m = &mut self.metrics;
        m.set("allocs_per_op", per_op(after.allocs, before.allocs), n);
        m.set(
            "tensor.alloc_bytes_per_op",
            per_op(after.allocated_bytes, before.allocated_bytes),
            n,
        );
        let peak = after.peak_bytes.saturating_sub(before.live_bytes);
        m.set("peak_tensor_bytes", peak as f64, n);
    }

    /// A layer probe: call `f` `reps` times, each as one span `name`;
    /// returns the median duration in microseconds of all spans of that
    /// name recorded so far. Traced run only.
    pub fn probe<T>(&mut self, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
        for i in 0..reps {
            std::hint::black_box(self.tracer.span(name, i as u64, &mut f));
        }
        self.tracer.median_us(name)
    }

    /// Report the median duration of the spans named `span` recorded so
    /// far as the `_us` layer metric `metric`; returns it.
    pub fn span_metric(&mut self, metric: &'static str, span: &str) -> f64 {
        let us = self.tracer.median_us(span);
        self.metrics.set(metric, us, self.tracer.count(span));
        us
    }

    /// [`Ctx::probe`] followed by [`Ctx::span_metric`].
    pub fn probe_metric<T>(
        &mut self,
        metric: &'static str,
        span: &'static str,
        reps: usize,
        f: impl FnMut() -> T,
    ) -> f64 {
        self.probe(span, reps, f);
        self.span_metric(metric, span)
    }
}
