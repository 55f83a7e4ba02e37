//! In-memory aggregation: log-bucketed histograms, saturating counters,
//! and the per-op summary table exporter — plus the lock-free
//! fixed-bucket primitives ([`ShardedCounter`], [`AtomicHistogram`])
//! the live `/metrics` exporter is built on.

use crate::lock;
use crate::recorder::Recorder;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shards per [`ShardedCounter`]; must be a power of two so the lane
/// index reduces to a mask.
const COUNTER_SHARDS: usize = 8;

/// One cache line per shard so concurrent writers on different cores
/// never contend on the same line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// A monotonic counter sharded across cache lines.
///
/// [`add`](ShardedCounter::add) is a single relaxed `fetch_add` on the
/// shard picked by the caller's [`thread lane`](crate::thread_lane) —
/// no locks, no allocation — so it is safe on the serving hot path.
/// [`get`](ShardedCounter::get) sums the shards; under concurrent
/// writers the result is a consistent lower bound that never decreases
/// across successive reads (each shard is monotonic). Shards are plain
/// wrapping `u64`s — at one event per nanosecond that is ~585 years to
/// a wrap, so saturation logic is not worth a CAS loop here.
#[derive(Debug, Default)]
pub struct ShardedCounter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl ShardedCounter {
    /// A zeroed counter.
    pub fn new() -> ShardedCounter {
        ShardedCounter::default()
    }

    /// Add `delta`. One relaxed atomic RMW, zero allocation.
    #[inline]
    pub fn add(&self, delta: u64) {
        let idx = crate::thread_lane() as usize & (COUNTER_SHARDS - 1);
        self.shards[idx].0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::saturating_add)
    }
}

/// Default latency buckets in nanoseconds: 50µs → 10s, roughly
/// logarithmic, matching the sub-millisecond-to-seconds range the
/// serving layer sees. The exporter renders these as Prometheus `le`
/// bounds in seconds.
pub const LATENCY_BUCKETS_NS: &[u64] = &[
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_500_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// Buckets for ratios expressed in permille (‰): deadline budget
/// consumed, utilization. 1000 = the full budget; >1000 = overrun.
pub const PERMILLE_BUCKETS: &[u64] = &[10, 25, 50, 100, 250, 500, 750, 900, 1000, 1500, 2000];

/// A fixed-bucket histogram recordable concurrently without locks.
///
/// `record` is two relaxed atomic `fetch_add`s (the bucket counter and
/// the sharded sum) and zero allocation. Bucket bounds are *inclusive*
/// upper bounds in ascending order; values above the last bound land in
/// the overflow bucket. Prometheus histogram semantics (`le` bounds,
/// cumulative buckets, `+Inf`) are derived at export time from a
/// [`snapshot`](AtomicHistogram::snapshot).
#[derive(Debug)]
pub struct AtomicHistogram {
    bounds: &'static [u64],
    /// `bounds.len() + 1` counters; the last is the overflow bucket.
    buckets: Box<[AtomicU64]>,
    sum: ShardedCounter,
}

impl AtomicHistogram {
    /// A histogram over `bounds` (inclusive upper bounds, ascending,
    /// non-empty — typically [`LATENCY_BUCKETS_NS`]).
    pub fn new(bounds: &'static [u64]) -> AtomicHistogram {
        debug_assert!(!bounds.is_empty());
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let buckets = (0..bounds.len() + 1)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        AtomicHistogram {
            bounds,
            buckets,
            sum: ShardedCounter::new(),
        }
    }

    /// Record one value. Two relaxed atomics, zero allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.add(v);
    }

    /// The configured bucket bounds.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// A point-in-time copy of the bucket counts and sum.
    ///
    /// Concurrent `record`s may or may not be included (each whole
    /// observation lands in exactly one bucket, so nothing is ever
    /// double-counted); the snapshot's count is derived from the bucket
    /// counts themselves and is therefore always internally consistent.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistSnapshot {
            bounds: self.bounds,
            buckets,
            sum: self.sum.get(),
        }
    }
}

/// A point-in-time copy of an [`AtomicHistogram`]: per-bucket
/// (non-cumulative) counts, the value sum, and the bounds they were
/// recorded against.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Inclusive upper bounds, ascending (the overflow bucket has no
    /// bound and is `buckets.last()`).
    pub bounds: &'static [u64],
    /// `bounds.len() + 1` per-bucket counts (last = overflow).
    pub buckets: Vec<u64>,
    /// Saturating sum of recorded values.
    pub sum: u64,
}

impl HistSnapshot {
    /// An empty snapshot over `bounds`.
    pub fn empty(bounds: &'static [u64]) -> HistSnapshot {
        HistSnapshot {
            bounds,
            buckets: vec![0; bounds.len() + 1],
            sum: 0,
        }
    }

    /// Total observations (the sum of the bucket counts).
    pub fn count(&self) -> u64 {
        self.buckets.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// The observations that happened after `earlier` was taken:
    /// bucket-wise saturating subtraction. Both snapshots must share
    /// bounds. Used by the rolling SLO windows.
    pub fn delta_since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        debug_assert_eq!(self.bounds.as_ptr(), earlier.bounds.as_ptr());
        let buckets = self
            .buckets
            .iter()
            .zip(earlier.buckets.iter())
            .map(|(&now, &then)| now.saturating_sub(then))
            .collect();
        HistSnapshot {
            bounds: self.bounds,
            buckets,
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Estimate the `q`-quantile by nearest rank over the buckets with
    /// linear interpolation inside the bucket. Returns 0 for an empty
    /// snapshot; observations in the overflow bucket report the last
    /// finite bound (the histogram cannot know how far past it they
    /// landed). `q` outside `[0, 1]` is clamped; NaN behaves as 0.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        // 1-based nearest rank: ceil(q * N), clamped into [1, N]
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = seen;
            seen = seen.saturating_add(n);
            if seen >= rank {
                if idx >= self.bounds.len() {
                    // overflow: no upper bound to interpolate toward
                    return self.bounds[self.bounds.len() - 1];
                }
                let lower = if idx == 0 { 0 } else { self.bounds[idx - 1] };
                let upper = self.bounds[idx];
                let into = (rank - before) as f64 / n as f64;
                return lower + ((upper - lower) as f64 * into) as u64;
            }
        }
        self.bounds[self.bounds.len() - 1]
    }

    /// Fraction of observations strictly above `threshold` (0.0 when
    /// empty). `threshold` should be one of the bucket bounds for an
    /// exact answer; otherwise the containing bucket counts as "over".
    pub fn frac_over(&self, threshold: u64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let cut = self.bounds.partition_point(|&b| b <= threshold);
        let over: u64 = self.buckets[cut..]
            .iter()
            .fold(0u64, |a, &b| a.saturating_add(b));
        over as f64 / count as f64
    }
}

/// Number of histogram buckets: 16 exact small-value buckets plus 4
/// sub-buckets per power of two up to `u64::MAX`.
const BUCKETS: usize = 16 + 60 * 4;

/// A duration/value histogram with bounded (≤ 12.5%) relative error.
///
/// Values 0..16 are exact; larger values land in one of four
/// logarithmically spaced sub-buckets per power of two, so recording is
/// allocation-free and O(1) regardless of the value range.
#[derive(Debug)]
pub(crate) struct Histogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    /// Saturating sum of all recorded values.
    total: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // >= 4
        let sub = ((v >> (exp - 2)) & 0b11) as usize;
        16 + (exp - 4) * 4 + sub
    }
}

fn bucket_representative(idx: usize) -> u64 {
    if idx < 16 {
        idx as u64
    } else {
        let exp = 4 + (idx - 16) / 4;
        let sub = ((idx - 16) % 4) as u64;
        let base = 1u64 << exp;
        let quarter = base / 4;
        // midpoint of the sub-bucket [base + sub*quarter, base + (sub+1)*quarter)
        base + sub * quarter + quarter / 2
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value. Counts and totals saturate instead of wrapping.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] = self.buckets[bucket_index(v)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.total = self.total.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile.
    ///
    /// Contract (all cases defined, no bucket-boundary surprises):
    ///
    /// * empty histogram → `0` for every `q`;
    /// * `q <= 0.0` → the exact minimum;
    /// * `q >= 1.0` → the exact [`max`](Histogram::max);
    /// * a single recorded sample → that exact value for every `q`;
    /// * otherwise the bucket-representative answer, clamped to the
    ///   observed `[min, max]`, within the 12.5% bucket error.
    ///
    /// `q` values outside `[0, 1]` (including NaN) are clamped; NaN
    /// behaves as `q = 0.0`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // NaN fails both comparisons below and falls through to min.
        if q >= 1.0 {
            return self.max;
        }
        if q.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || self.count == 1 {
            // q <= 0 (or NaN): exact minimum. A single sample has
            // min == max == the sample, so it is exact for any q too.
            return self.min;
        }
        // rank of the target observation, 1-based
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_representative(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// One row of the summary table.
#[derive(Debug, Clone)]
pub struct SummaryRow {
    /// `category/name` key.
    pub key: String,
    /// Observations.
    pub count: u64,
    /// Total nanoseconds (or raw value sum for `observe` series).
    pub total_ns: u64,
    /// Mean value.
    pub mean_ns: f64,
    /// Estimated 99th percentile.
    pub p99_ns: u64,
    /// Largest observation.
    pub max_ns: u64,
}

/// A point-in-time aggregate snapshot: histogram rows plus counters.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Histogram rows, sorted by total descending (self-time order).
    pub rows: Vec<SummaryRow>,
    /// Counter values by `category/name`.
    pub counters: Vec<(String, u64)>,
    /// Gauge `(last, max)` samples by `category/name`.
    pub gauges: Vec<(String, u64, u64)>,
}

impl Summary {
    /// Find a row by its `category/name` key.
    pub fn row(&self, key: &str) -> Option<&SummaryRow> {
        self.rows.iter().find(|r| r.key == key)
    }

    /// Find a counter by its `category/name` key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }

    /// Find a gauge by its `category/name` key; returns `(last, max)`.
    pub fn gauge(&self, key: &str) -> Option<(u64, u64)> {
        self.gauges
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, last, max)| (*last, *max))
    }

    /// Render the human-readable table (count / total / mean / p99 per
    /// key, sorted by total time; counters below).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<40} {:>10} {:>14} {:>12} {:>12}\n",
            "span", "count", "total", "mean", "p99"
        ));
        out.push_str(&"-".repeat(92));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!(
                "{:<40} {:>10} {:>14} {:>12} {:>12}\n",
                r.key,
                r.count,
                fmt_ns(r.total_ns as f64),
                fmt_ns(r.mean_ns),
                fmt_ns(r.p99_ns as f64),
            ));
        }
        if !self.counters.is_empty() {
            out.push('\n');
            out.push_str(&format!("{:<40} {:>10}\n", "counter", "value"));
            out.push_str(&"-".repeat(51));
            out.push('\n');
            for (k, v) in &self.counters {
                out.push_str(&format!("{k:<40} {v:>10}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push('\n');
            out.push_str(&format!("{:<40} {:>12} {:>12}\n", "gauge", "last", "max"));
            out.push_str(&"-".repeat(66));
            out.push('\n');
            for (k, last, max) in &self.gauges {
                out.push_str(&format!("{k:<40} {last:>12} {max:>12}\n"));
            }
        }
        out
    }
}

/// Format nanoseconds with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[derive(Default)]
struct AggregateState {
    hists: HashMap<String, Histogram>,
    counters: HashMap<String, u64>,
    /// Gauges keep `(last sample, max sample)` per key.
    gauges: HashMap<String, (u64, u64)>,
}

/// The in-memory aggregate recorder: histograms per span/observe key,
/// saturating counters and gauges.
#[derive(Default)]
pub struct AggregateRecorder {
    state: Mutex<AggregateState>,
}

impl AggregateRecorder {
    /// An empty aggregate recorder.
    pub fn new() -> AggregateRecorder {
        AggregateRecorder::default()
    }

    /// Snapshot the aggregates, rows sorted by total time descending.
    pub fn summary(&self) -> Summary {
        let state = lock(&self.state);
        let mut rows: Vec<SummaryRow> = state
            .hists
            .iter()
            .map(|(key, h)| SummaryRow {
                key: key.clone(),
                count: h.count(),
                total_ns: h.total(),
                mean_ns: h.mean(),
                p99_ns: h.quantile(0.99),
                max_ns: h.max(),
            })
            .collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.key.cmp(&b.key)));
        let mut counters: Vec<(String, u64)> = state
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, u64, u64)> = state
            .gauges
            .iter()
            .map(|(k, (last, max))| (k.clone(), *last, *max))
            .collect();
        gauges.sort();
        Summary {
            rows,
            counters,
            gauges,
        }
    }
}

impl Recorder for AggregateRecorder {
    fn span(&self, cat: &'static str, name: &str, _start_ns: u64, dur_ns: u64) {
        let mut state = lock(&self.state);
        state
            .hists
            .entry(format!("{cat}/{name}"))
            .or_default()
            .record(dur_ns);
    }

    fn count(&self, cat: &'static str, name: &'static str, delta: u64) {
        let mut state = lock(&self.state);
        let c = state.counters.entry(format!("{cat}/{name}")).or_insert(0);
        *c = c.saturating_add(delta);
    }

    fn observe(&self, cat: &'static str, name: &str, value: u64) {
        let mut state = lock(&self.state);
        state
            .hists
            .entry(format!("{cat}/{name}"))
            .or_default()
            .record(value);
    }

    fn gauge(&self, cat: &'static str, name: &str, value: u64) {
        let mut state = lock(&self.state);
        let g = state
            .gauges
            .entry(format!("{cat}/{name}"))
            .or_insert((0, 0));
        g.0 = value;
        g.1 = g.1.max(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_error_is_bounded() {
        for v in [0u64, 1, 5, 15, 16, 100, 1_000, 123_456, u64::MAX / 2] {
            let rep = bucket_representative(bucket_index(v));
            let err = (rep as f64 - v as f64).abs() / (v.max(1) as f64);
            assert!(err <= 0.125, "v={v} rep={rep} err={err}");
        }
    }

    #[test]
    fn exact_small_values() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.total(), 16);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.max(), 7);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 7);
        assert_eq!(h.quantile(0.0), 3);
    }

    #[test]
    fn percentiles_on_uniform_distribution() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.50) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 <= 0.15, "p50={p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 <= 0.15, "p99={p99}");
        assert!(h.quantile(0.999) <= h.max());
    }

    #[test]
    fn quantile_clamped_to_observed_range() {
        let mut h = Histogram::new();
        h.record(1_000);
        // one observation: every quantile is that observation's bucket,
        // clamped into [min, max]
        assert_eq!(h.quantile(0.99), 1_000);
        assert_eq!(h.quantile(0.01), 1_000);
    }

    #[test]
    fn quantile_contract_edge_cases() {
        // empty: 0 for every q
        let h = Histogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0, f64::NAN] {
            assert_eq!(h.quantile(q), 0);
        }
        // single sample: the exact value for every q, even when the
        // value would round to a bucket representative (1000 → 1056)
        let mut h = Histogram::new();
        h.record(1_000);
        for q in [-1.0, 0.0, 0.25, 0.5, 0.99, 1.0, 2.0, f64::NAN] {
            assert_eq!(h.quantile(q), 1_000, "q={q}");
        }
        // q=0.0 / q=1.0 are the exact min/max, not bucket boundaries
        let mut h = Histogram::new();
        for v in [17u64, 1_000, 123_456] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 17);
        assert_eq!(h.quantile(1.0), 123_456);
        assert_eq!(h.quantile(-0.5), 17);
        assert_eq!(h.quantile(1.5), 123_456);
        assert_eq!(h.quantile(f64::NAN), 17);
    }

    #[test]
    fn gauges_track_last_and_max() {
        let r = AggregateRecorder::new();
        r.gauge("mem", "live_bytes", 100);
        r.gauge("mem", "live_bytes", 700);
        r.gauge("mem", "live_bytes", 300);
        let s = r.summary();
        assert_eq!(s.gauge("mem/live_bytes"), Some((300, 700)));
        let table = s.render_table();
        assert!(table.contains("mem/live_bytes"), "{table}");
        assert!(table.contains("gauge"), "{table}");
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let r = AggregateRecorder::new();
        r.count("c", "n", u64::MAX - 1);
        r.count("c", "n", 5);
        assert_eq!(r.summary().counter("c/n"), Some(u64::MAX));
        // histogram totals saturate too
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.total(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn summary_sorted_by_total_and_renders() {
        let r = AggregateRecorder::new();
        r.span("graph_op", "matmul", 0, 900);
        r.span("graph_op", "matmul", 0, 1_100);
        r.span("graph_op", "add", 0, 10);
        r.count("session", "plan_hit", 3);
        let s = r.summary();
        assert_eq!(s.rows[0].key, "graph_op/matmul");
        assert_eq!(s.rows[0].count, 2);
        assert_eq!(s.rows[0].total_ns, 2_000);
        let table = s.render_table();
        assert!(table.contains("graph_op/matmul"), "{table}");
        assert!(table.contains("session/plan_hit"), "{table}");
        assert!(table.contains("p99"), "{table}");
    }

    // ---- AtomicHistogram / ShardedCounter edge cases ----

    #[test]
    fn sharded_counter_sums_across_threads_exactly() {
        let c = std::sync::Arc::new(ShardedCounter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.add(1);
                }
            }));
        }
        for h in handles {
            h.join().expect("join");
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn atomic_histogram_bucket_placement_and_overflow() {
        let h = AtomicHistogram::new(LATENCY_BUCKETS_NS);
        // exactly on a bound → that bucket (bounds are inclusive)
        h.record(50_000);
        // between bounds → the next bucket up
        h.record(60_000);
        // above the last bound → overflow bucket
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1, "50µs lands in the first bucket");
        assert_eq!(s.buckets[1], 1, "60µs lands in the 100µs bucket");
        assert_eq!(
            s.buckets[LATENCY_BUCKETS_NS.len()],
            1,
            "u64::MAX lands in the overflow bucket"
        );
        assert_eq!(s.count(), 3);
        // quantiles with mass in the overflow bucket report the last
        // finite bound — never a wrapped or invented value
        assert_eq!(s.quantile(1.0), *LATENCY_BUCKETS_NS.last().expect("bounds"));
    }

    #[test]
    fn atomic_histogram_zero_observations() {
        let h = AtomicHistogram::new(LATENCY_BUCKETS_NS);
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.sum, 0);
        for q in [0.0, 0.5, 0.99, 1.0, f64::NAN] {
            assert_eq!(s.quantile(q), 0);
        }
        assert_eq!(s.frac_over(0), 0.0);
        // delta of two empty snapshots is empty
        let d = s.delta_since(&HistSnapshot::empty(LATENCY_BUCKETS_NS));
        assert_eq!(d.count(), 0);
    }

    #[test]
    fn atomic_histogram_concurrent_recording_sums_exactly() {
        let h = std::sync::Arc::new(AtomicHistogram::new(LATENCY_BUCKETS_NS));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    // spread across many buckets
                    h.record((t + 1) * 40_000 + i * 1_000);
                }
            }));
        }
        for h in handles {
            h.join().expect("join");
        }
        let s = h.snapshot();
        assert_eq!(
            s.count(),
            40_000,
            "every record lands in exactly one bucket"
        );
        let expected: u64 = (0..8u64)
            .flat_map(|t| (0..5_000u64).map(move |i| (t + 1) * 40_000 + i * 1_000))
            .sum();
        assert_eq!(s.sum, expected);
    }

    #[test]
    fn snapshot_while_recording_never_double_counts() {
        let h = std::sync::Arc::new(AtomicHistogram::new(LATENCY_BUCKETS_NS));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut writers = Vec::new();
        for _ in 0..4 {
            let h = h.clone();
            let stop = stop.clone();
            writers.push(std::thread::spawn(move || {
                let mut n = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    h.record(1_000_000);
                    n += 1;
                }
                n
            }));
        }
        // snapshot continuously while writers hammer the histogram:
        // counts must be monotonic (no double-counting, no tearing)
        let mut last = 0u64;
        for _ in 0..200 {
            let c = h.snapshot().count();
            assert!(c >= last, "snapshot count went backwards: {last} -> {c}");
            last = c;
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let total: u64 = writers.into_iter().map(|w| w.join().expect("join")).sum();
        assert_eq!(h.snapshot().count(), total, "final count is exact");
    }

    #[test]
    fn hist_snapshot_delta_and_quantiles() {
        let h = AtomicHistogram::new(LATENCY_BUCKETS_NS);
        for _ in 0..90 {
            h.record(200_000); // 0.2ms → (100µs, 250µs] bucket
        }
        let early = h.snapshot();
        for _ in 0..10 {
            h.record(2_000_000_000); // 2s → (1s, 2.5s] bucket
        }
        let late = h.snapshot();
        let delta = late.delta_since(&early);
        assert_eq!(delta.count(), 10);
        assert_eq!(delta.sum, 20_000_000_000);
        // only the slow tail is in the delta window
        assert!(delta.quantile(0.5) > 1_000_000_000);
        // full snapshot: p50 in the fast bucket, p99+ in the slow one
        let p50 = late.quantile(0.50);
        assert!(
            (100_000..=250_000).contains(&p50),
            "p50={p50} expected in the 0.1–0.25ms bucket"
        );
        assert!(late.quantile(0.99) > 1_000_000_000);
        // SLO burn helper: 10% of requests exceed a 1s threshold
        let over = late.frac_over(1_000_000_000);
        assert!((over - 0.10).abs() < 1e-9, "over={over}");
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        let h = AtomicHistogram::new(LATENCY_BUCKETS_NS);
        for _ in 0..100 {
            h.record(150_000); // all mass in the (100µs, 250µs] bucket
        }
        let s = h.snapshot();
        let q10 = s.quantile(0.10);
        let q90 = s.quantile(0.90);
        assert!(
            (100_000..=250_000).contains(&q10) && (100_000..=250_000).contains(&q90),
            "quantiles stay inside the bucket: q10={q10} q90={q90}"
        );
        assert!(q10 < q90, "interpolation is monotonic in q");
    }
}
