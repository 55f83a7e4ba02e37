//! Order statistics and the block-scaling arithmetic every timed metric
//! goes through.

/// The calibration kernel's run time on the reference machine regime, in
/// nanoseconds. Every timed sample is multiplied by
/// `CAL_REF_NS / (calibration time measured around its block)`, which
/// expresses it in "reference-regime nanoseconds": when the shared box
/// slows down by 20 % the calibration kernel slows by the same share and
/// the scaled sample stays put. The constant only fixes the unit; it is
/// the calibration time in the regime this box was in most often when the
/// benchmark was defined.
pub const CAL_REF_NS: f64 = 436_000.0;

/// Nearest-rank percentile over ascending `sorted`: the value at 1-based
/// rank `ceil(p * N)`, clamped to `[1, N]` — always an observed sample.
///
/// # Panics
///
/// Panics on an empty slice: a metric without samples is a harness bug.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Sort ascending; times are finite by construction.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Nearest-rank median (`percentile(.., 0.5)`) of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// The factor that maps a raw time measured between two calibration
/// runs onto the reference regime.
pub fn scale_factor(cal_before_ns: f64, cal_after_ns: f64) -> f64 {
    CAL_REF_NS / ((cal_before_ns + cal_after_ns) / 2.0)
}

/// One measured block: `n` individually timed operations bracketed by
/// two calibration runs.
#[derive(Debug, Clone)]
pub struct Block {
    /// Raw per-operation times, nanoseconds, in execution order.
    pub raw_ns: Vec<f64>,
    /// Calibration time before the first operation, nanoseconds.
    pub cal_before_ns: f64,
    /// Calibration time after the last operation, nanoseconds.
    pub cal_after_ns: f64,
    /// Whether the operations of this block recorded spans.
    pub traced: bool,
    /// Wall time from the first operation's start to the last one's end
    /// when several callers overlapped, nanoseconds; `None` for a single
    /// caller, whose busy time is the sum of its operation times.
    pub wall_ns: Option<f64>,
}

impl Block {
    /// This block's scale factor.
    pub fn scale(&self) -> f64 {
        scale_factor(self.cal_before_ns, self.cal_after_ns)
    }

    /// Per-operation times mapped onto the reference regime.
    pub fn scaled_ns(&self) -> Vec<f64> {
        let s = self.scale();
        self.raw_ns.iter().map(|t| t * s).collect()
    }

    /// Scaled time the block's operations kept the system busy.
    pub fn busy_scaled_ns(&self) -> f64 {
        self.wall_ns.unwrap_or_else(|| self.raw_ns.iter().sum()) * self.scale()
    }
}

/// What a series of blocks says about one operation.
///
/// Other tenants of the box slow it down in bursts of 5 to 25 ms, several
/// a second at times, and for seconds at a time. So a block counts as
/// quiet by the scaled time that nine tenths of its operations stayed
/// under, the blocks are ranked by it, and every timed figure is computed
/// over the quieter half of them (half rounded up): the median of the
/// block medians, the p99 of all their samples pooled, the median of
/// their busy times. The ranking looks at neither the middle nor the top
/// tenth of a block, so it does not choose blocks for the figures they
/// report: a change to the program moves every block and these figures
/// by as much, and a tail the program itself produces in 1 % or more of
/// its operations is in the pool (up to 10 % it does not touch the
/// ranking; above, it touches every block's alike).
#[derive(Debug, Clone)]
pub struct Summary {
    /// Median over the kept blocks of the block-median scaled time, ns.
    pub p50_ns: f64,
    /// Nearest-rank p99 of the kept blocks' scaled samples pooled, ns.
    pub p99_ns: f64,
    /// Median over the kept blocks of the block-median raw time, ns.
    pub raw_p50_ns: f64,
    /// Median over the kept blocks of the block's scaled busy time, ns.
    pub block_busy_ns: f64,
    /// Number of kept blocks.
    pub kept_blocks: usize,
    /// Number of samples in the kept blocks: what the p99 is read from.
    pub kept_samples: usize,
    /// Median calibration time over all blocks, ns.
    pub cal_ns: f64,
    /// (max − min) ÷ median of all calibration times, percent.
    pub cal_spread_pct: f64,
}

/// Summarize blocks (at least one, each with at least one sample).
pub fn summarize(blocks: &[Block]) -> Summary {
    let mut ranked: Vec<(f64, &Block)> = blocks
        .iter()
        .map(|b| (percentile(&sorted(b.scaled_ns()), 0.9), b))
        .collect();
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite samples"));
    ranked.truncate(blocks.len().div_ceil(2));
    let kept = || ranked.iter().map(|(_, b)| *b);
    let pooled = sorted(kept().flat_map(Block::scaled_ns).collect());
    let block_p50: Vec<f64> = kept().map(|b| median(&b.scaled_ns())).collect();
    let block_raw_p50: Vec<f64> = kept().map(|b| median(&b.raw_ns)).collect();
    let cals = sorted(
        blocks
            .iter()
            .flat_map(|b| [b.cal_before_ns, b.cal_after_ns])
            .collect(),
    );
    let cal_ns = percentile(&cals, 0.5);
    Summary {
        p50_ns: median(&block_p50),
        p99_ns: percentile(&pooled, 0.99),
        raw_p50_ns: median(&block_raw_p50),
        block_busy_ns: median(&kept().map(Block::busy_scaled_ns).collect::<Vec<f64>>()),
        kept_blocks: ranked.len(),
        kept_samples: pooled.len(),
        cal_ns,
        cal_spread_pct: (cals[cals.len() - 1] - cals[0]) / cal_ns * 100.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        // one sample answers every percentile
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // odd count: the middle sample, never an interpolation
        assert_eq!(median(&[9.0, 1.0, 4.0]), 4.0);
        assert_eq!(median(&[4.0, 1.0]), 1.0);
    }

    #[test]
    fn block_scaling_maps_onto_the_reference_regime() {
        // a regime 25 % slower than the reference: calibration and work
        // both take 1.25x, the scaled time reads as in the reference
        let slow = Block {
            raw_ns: vec![1250.0, 2500.0],
            cal_before_ns: CAL_REF_NS * 1.25,
            cal_after_ns: CAL_REF_NS * 1.25,
            traced: false,
            wall_ns: None,
        };
        assert!((slow.scale() - 0.8).abs() < 1e-12);
        let s = slow.scaled_ns();
        assert!((s[0] - 1000.0).abs() < 1e-9 && (s[1] - 2000.0).abs() < 1e-9);
        // the two calibrations are averaged
        assert!((scale_factor(CAL_REF_NS * 0.5, CAL_REF_NS * 1.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_reads_the_quieter_half_of_the_blocks() {
        let mk = |raw: Vec<f64>| Block {
            raw_ns: raw,
            cal_before_ns: CAL_REF_NS,
            cal_after_ns: CAL_REF_NS,
            traced: false,
            wall_ns: None,
        };
        let rep = |v: f64, n: usize| vec![v; n];
        let mut blocks = vec![
            mk([rep(10.0, 9), rep(500.0, 1)].concat()), // quiet, one slow sample
            mk([rep(8.0, 5), rep(50.0, 5)].concat()),   // lowest median, but half of it slow
            mk(rep(12.0, 10)),
            mk(rep(100.0, 10)),
            mk(rep(11.0, 10)),
        ];
        // ranked by the 9th of ten samples {10, 50, 12, 100, 11}: the first,
        // third and fifth block are kept
        let s = summarize(&blocks);
        assert_eq!((s.kept_blocks, s.kept_samples), (3, 30));
        assert_eq!(s.p50_ns, 11.0); // of the block medians {10, 11, 12}
        assert_eq!(s.raw_p50_ns, 11.0);
        // pooled, not per block: the one slow sample of a quiet block counts
        assert_eq!(s.p99_ns, 500.0);
        assert_eq!(s.block_busy_ns, 120.0); // of {590, 110, 120}
        assert_eq!(s.cal_spread_pct, 0.0);
        // a tail the program produces in 1.3 % of its operations shows in
        // the pooled p99 although a third of the blocks hold none of it
        let ramps: Vec<Block> = (0..40)
            .map(|k| {
                let slow = |i| k % 3 != 0 && i == 7;
                mk((0..50)
                    .map(|i| if slow(i) { 900.0 } else { 100.0 + f64::from(k) })
                    .collect())
            })
            .collect();
        let s = summarize(&ramps);
        assert_eq!((s.kept_blocks, s.kept_samples), (20, 1000));
        assert_eq!(s.p99_ns, 900.0);
        // overlapping callers: busy time is the block's wall time
        blocks.iter_mut().for_each(|b| b.wall_ns = Some(40.0));
        assert_eq!(summarize(&blocks).block_busy_ns, 40.0);
        // one block is its own quieter half
        assert_eq!(summarize(&blocks[..1]).kept_blocks, 1);
    }
}
