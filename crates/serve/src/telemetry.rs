//! The live telemetry plane: request-scoped tracing, per-function
//! metrics, rolling SLO windows, and the bounded ring of sampled
//! request span-trees behind `GET /debug/trace`.
//!
//! ## Cost model
//!
//! Metric recording is always on and is a handful of relaxed atomics
//! per request ([`ShardedCounter`] / [`AtomicHistogram`] — no locks, no
//! allocation on the hot path). *Tracing* is sampled: with
//! `trace_sample == 0` every per-request tracing decision is one branch
//! on `RequestTrace::sampled`. When a request IS sampled, its phase
//! breakdown (admission → queue → batch assembly → session checkout →
//! run → response serialization) is collected under a small per-request
//! mutex, and the executor's own obs spans are attributed to it through
//! the thread-local [`obs request context`](autograph_obs::request_ctx)
//! — [`Telemetry`] implements [`Recorder`] for exactly that purpose and
//! is only installed when sampling is enabled (installing any recorder
//! also drops the bytecode VM into its exact op-by-op fallback, so
//! sampling-off must stay recorder-free).

use autograph_obs::json::write_str;
use autograph_obs::metrics::{
    AtomicHistogram, HistSnapshot, ShardedCounter, LATENCY_BUCKETS_NS, PERMILLE_BUCKETS,
};
use autograph_obs::{Recorder, TraceWriter};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Window ring capacity: one histogram snapshot per second, 5 minutes
/// plus the in-progress second.
const WINDOW_SLOTS: usize = 301;

/// Most phases a single trace will hold (executor spans included);
/// beyond this they are dropped, never reallocated unbounded.
const MAX_PHASES: usize = 512;

/// Telemetry tuning, part of [`crate::ServerConfig`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Sample 1-in-N requests for span-tree tracing (0 = off). With
    /// sampling off the per-request tracing cost is a single branch.
    pub trace_sample: u64,
    /// How many finished sampled traces `/debug/trace` retains.
    pub trace_ring: usize,
    /// Latency SLO threshold (ms) the rolling windows report burn
    /// against (burn = fraction over SLO ÷ a 1% error budget).
    pub slo_ms: u64,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            trace_sample: 0,
            trace_ring: 64,
            slo_ms: 25,
        }
    }
}

/// Lock-free per-function counters and histograms (all values in ns
/// unless stated otherwise). One of these per registry entry, fixed at
/// server start, so the hot path indexes a vector — no map lookups
/// under a lock.
pub(crate) struct FnMetrics {
    /// The function name (label value in `/metrics`).
    pub name: String,
    /// 2xx responses.
    pub resp_2xx: ShardedCounter,
    /// 4xx responses.
    pub resp_4xx: ShardedCounter,
    /// 5xx responses.
    pub resp_5xx: ShardedCounter,
    /// End-to-end request latency (route dispatch → response written).
    pub latency: AtomicHistogram,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: AtomicHistogram,
    /// Graph/VM execution time (the session run itself).
    pub run: AtomicHistogram,
    /// Deadline budget consumed at response time, in permille of the
    /// request's budget (1000 = the whole budget).
    pub budget_permille: AtomicHistogram,
    /// Sessions currently checked out running this function.
    pub running: AtomicU64,
    /// High-water mark of `running` (pool occupancy peak).
    pub running_peak: AtomicU64,
}

impl FnMetrics {
    fn new(name: &str) -> FnMetrics {
        FnMetrics {
            name: name.to_string(),
            resp_2xx: ShardedCounter::new(),
            resp_4xx: ShardedCounter::new(),
            resp_5xx: ShardedCounter::new(),
            latency: AtomicHistogram::new(LATENCY_BUCKETS_NS),
            queue_wait: AtomicHistogram::new(LATENCY_BUCKETS_NS),
            run: AtomicHistogram::new(LATENCY_BUCKETS_NS),
            budget_permille: AtomicHistogram::new(PERMILLE_BUCKETS),
            running: AtomicU64::new(0),
            running_peak: AtomicU64::new(0),
        }
    }

    /// Count one response of the given status class.
    pub(crate) fn count_status(&self, status: u16) {
        match status {
            200..=299 => self.resp_2xx.add(1),
            400..=499 => self.resp_4xx.add(1),
            _ => self.resp_5xx.add(1),
        }
    }

    /// RAII occupancy bump while a session is checked out.
    pub(crate) fn running_guard(self: &Arc<FnMetrics>) -> RunningGuard {
        let now = self.running.fetch_add(1, Ordering::Relaxed) + 1;
        self.running_peak.fetch_max(now, Ordering::Relaxed);
        RunningGuard {
            m: Arc::clone(self),
        }
    }
}

/// Decrements [`FnMetrics::running`] on drop.
pub(crate) struct RunningGuard {
    m: Arc<FnMetrics>,
}

impl Drop for RunningGuard {
    fn drop(&mut self) {
        self.m.running.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One timed phase (or attributed executor span) of a sampled request.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name (`queue_wait`, `run`, ...) or the executor span's
    /// `cat/name`.
    pub name: String,
    /// Start on the obs trace clock ([`autograph_obs::now_ns`]).
    pub start_ns: u64,
    /// Duration.
    pub dur_ns: u64,
    /// The recording thread's lane ([`autograph_obs::thread_lane`]).
    pub lane: u64,
}

/// The per-request trace context, threaded (as an `Arc`) from route
/// dispatch through admission, the worker, and back to the response
/// writer. Always carries the request id; phase recording is a no-op
/// unless the request was sampled.
pub struct RequestTrace {
    /// The stable request id (client-supplied `X-Request-Id` after
    /// sanitization, else generated `req-<n>`).
    pub id: String,
    /// Process-unique numeric id; the key the obs request context
    /// carries so executor spans find their trace.
    pub num: u64,
    /// The requested function.
    pub fn_name: String,
    /// Request arrival on the obs trace clock.
    pub start_ns: u64,
    /// Whether this request's span tree is being collected.
    pub sampled: bool,
    phases: Mutex<Vec<Phase>>,
}

impl RequestTrace {
    /// An unsampled trace with the given id, for tests that need a `Job`
    /// without a server.
    #[cfg(test)]
    pub(crate) fn detached(id: &str) -> Arc<RequestTrace> {
        Arc::new(RequestTrace {
            id: id.to_string(),
            num: 0,
            fn_name: String::new(),
            start_ns: autograph_obs::now_ns(),
            sampled: false,
            phases: Mutex::new(Vec::new()),
        })
    }

    /// Record a phase that started at `start_ns` (obs clock) and just
    /// ended. One branch when the request is not sampled.
    pub(crate) fn phase_from(&self, name: &str, start_ns: u64) {
        if !self.sampled {
            return;
        }
        let dur = autograph_obs::now_ns().saturating_sub(start_ns);
        self.push_phase(name, start_ns, dur);
    }

    /// Record a fully-specified phase (for durations measured with
    /// `Instant` rather than the obs clock).
    pub fn phase(&self, name: &str, start_ns: u64, dur_ns: u64) {
        if !self.sampled {
            return;
        }
        self.push_phase(name, start_ns, dur_ns);
    }

    fn push_phase(&self, name: &str, start_ns: u64, dur_ns: u64) {
        let lane = autograph_obs::thread_lane();
        let mut phases = self.phases.lock().unwrap_or_else(|p| p.into_inner());
        if phases.len() < MAX_PHASES {
            phases.push(Phase {
                name: name.to_string(),
                start_ns,
                dur_ns,
                lane,
            });
        }
    }

    fn take_phases(&self) -> Vec<Phase> {
        std::mem::take(&mut *self.phases.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

/// A completed sampled request, as retained by the trace ring.
pub(crate) struct FinishedTrace {
    /// Request id.
    pub id: String,
    /// Requested function.
    pub fn_name: String,
    /// Final HTTP status.
    pub status: u16,
    /// End-to-end duration.
    pub total_ns: u64,
    /// Phase breakdown + attributed executor spans.
    pub phases: Vec<Phase>,
    /// Arrival on the obs clock.
    pub start_ns: u64,
}

struct Windows {
    /// One global-latency snapshot per elapsed second, newest last.
    ring: VecDeque<HistSnapshot>,
}

/// Computed stats for one rolling window (all ns).
pub(crate) struct WindowStats {
    /// Window length actually covered (≤ requested; short after boot).
    pub covered_s: u64,
    /// Requests completed in the window.
    pub count: u64,
    /// p50 latency.
    pub p50_ns: u64,
    /// p90 latency.
    pub p90_ns: u64,
    /// p99 latency.
    pub p99_ns: u64,
    /// Fraction of requests over the SLO threshold.
    pub over_slo: f64,
}

/// The telemetry plane. One per [`crate::Server`], shared with every
/// connection and worker thread.
pub struct Telemetry {
    /// Tuning (sampling rate, ring size, SLO threshold).
    pub cfg: TelemetryConfig,
    started: Instant,
    next_id: AtomicU64,
    /// Requests sampled for tracing.
    pub sampled_total: ShardedCounter,
    fns: Vec<Arc<FnMetrics>>,
    by_name: HashMap<String, usize>,
    /// End-to-end latency across all `/run` requests; feeds the rolling
    /// windows.
    pub latency_all: AtomicHistogram,
    windows: Mutex<Windows>,
    last_rotate_s: AtomicU64,
    inflight: Mutex<HashMap<u64, Arc<RequestTrace>>>,
    ring: Mutex<VecDeque<FinishedTrace>>,
}

impl Telemetry {
    /// Build the plane for the functions of `registry`.
    pub fn new(fn_names: &[String], cfg: TelemetryConfig) -> Arc<Telemetry> {
        let fns: Vec<Arc<FnMetrics>> = fn_names
            .iter()
            .map(|n| Arc::new(FnMetrics::new(n)))
            .collect();
        let by_name = fn_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        Arc::new(Telemetry {
            cfg,
            started: Instant::now(),
            next_id: AtomicU64::new(0),
            sampled_total: ShardedCounter::new(),
            fns,
            by_name,
            latency_all: AtomicHistogram::new(LATENCY_BUCKETS_NS),
            windows: Mutex::new(Windows {
                ring: VecDeque::with_capacity(WINDOW_SLOTS),
            }),
            last_rotate_s: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
            ring: Mutex::new(VecDeque::new()),
        })
    }

    /// Per-function metrics, in registry order.
    pub(crate) fn fns(&self) -> &[Arc<FnMetrics>] {
        &self.fns
    }

    /// Metrics for one function.
    pub(crate) fn for_fn(&self, name: &str) -> Option<&Arc<FnMetrics>> {
        self.by_name.get(name).map(|i| &self.fns[*i])
    }

    /// Open a trace for an arriving `/run` request. `header_id` is the
    /// sanitized client-supplied id, if any.
    pub fn begin_request(&self, header_id: Option<String>, fn_name: &str) -> Arc<RequestTrace> {
        let num = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let id = header_id.unwrap_or_else(|| format!("req-{num}"));
        let sampled = self.cfg.trace_sample > 0 && num.is_multiple_of(self.cfg.trace_sample);
        let trace = Arc::new(RequestTrace {
            id,
            num,
            fn_name: fn_name.to_string(),
            start_ns: autograph_obs::now_ns(),
            sampled,
            phases: Mutex::new(Vec::new()),
        });
        if sampled {
            self.sampled_total.add(1);
            self.inflight
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(num, Arc::clone(&trace));
        }
        trace
    }

    /// Close a trace: if sampled, move it into the `/debug/trace` ring.
    pub fn finish_request(&self, trace: &Arc<RequestTrace>, status: u16, total_ns: u64) {
        if !trace.sampled {
            return;
        }
        self.inflight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&trace.num);
        let finished = FinishedTrace {
            id: trace.id.clone(),
            fn_name: trace.fn_name.clone(),
            status,
            total_ns,
            phases: trace.take_phases(),
            start_ns: trace.start_ns,
        };
        let mut ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        while ring.len() >= self.cfg.trace_ring.max(1) {
            ring.pop_front();
        }
        ring.push_back(finished);
    }

    /// Rotate the window ring when a second boundary has passed. Called
    /// opportunistically (acceptor tick, stats endpoints); cheap no-op
    /// within a second.
    pub(crate) fn maybe_rotate(&self) {
        let now_s = self.started.elapsed().as_secs();
        let last = self.last_rotate_s.load(Ordering::Relaxed);
        if now_s <= last
            || self
                .last_rotate_s
                .compare_exchange(last, now_s, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        let snap = self.latency_all.snapshot();
        let mut w = self.windows.lock().unwrap_or_else(|p| p.into_inner());
        // fill skipped seconds with the same snapshot so "N seconds ago"
        // stays an index; bounded by the ring size
        let gap = (now_s - last).min(WINDOW_SLOTS as u64);
        for _ in 0..gap {
            if w.ring.len() >= WINDOW_SLOTS {
                w.ring.pop_front();
            }
            w.ring.push_back(snap.clone());
        }
    }

    /// Stats over the trailing `window_s` seconds.
    pub(crate) fn window_stats(&self, window_s: u64) -> WindowStats {
        let current = self.latency_all.snapshot();
        let (baseline, covered_s) = {
            let w = self.windows.lock().unwrap_or_else(|p| p.into_inner());
            let len = w.ring.len() as u64;
            if len >= window_s {
                (w.ring[(len - window_s) as usize].clone(), window_s)
            } else if let Some(front) = w.ring.front() {
                (front.clone(), len.max(1))
            } else {
                (
                    HistSnapshot::empty(LATENCY_BUCKETS_NS),
                    self.started.elapsed().as_secs().clamp(1, window_s),
                )
            }
        };
        let delta = current.delta_since(&baseline);
        let slo_ns = self.cfg.slo_ms.saturating_mul(1_000_000);
        WindowStats {
            covered_s,
            count: delta.count(),
            p50_ns: delta.quantile(0.50),
            p90_ns: delta.quantile(0.90),
            p99_ns: delta.quantile(0.99),
            over_slo: delta.frac_over(slo_ns),
        }
    }

    /// The `/stats` `windows` subtree: a stable JSON schema —
    /// `{"slo_ms":N,"10s":{...},"1m":{...},"5m":{...}}` where each
    /// window object has `covered_s`, `count`, `rate_rps`, `p50_ms`,
    /// `p90_ms`, `p99_ms`, `over_slo_frac`, `slo_burn` (fraction over
    /// SLO ÷ a 1% error budget).
    pub(crate) fn windows_json(&self) -> String {
        self.maybe_rotate();
        let mut out = String::from("{\"slo_ms\":");
        out.push_str(&self.cfg.slo_ms.to_string());
        for (label, secs) in [("10s", 10u64), ("1m", 60), ("5m", 300)] {
            let s = self.window_stats(secs);
            let rate = s.count as f64 / s.covered_s.max(1) as f64;
            out.push_str(&format!(
                ",\"{label}\":{{\"covered_s\":{},\"count\":{},\"rate_rps\":{:.3},\
                 \"p50_ms\":{:.3},\"p90_ms\":{:.3},\"p99_ms\":{:.3},\
                 \"over_slo_frac\":{:.6},\"slo_burn\":{:.3}}}",
                s.covered_s,
                s.count,
                rate,
                s.p50_ns as f64 / 1e6,
                s.p90_ns as f64 / 1e6,
                s.p99_ns as f64 / 1e6,
                s.over_slo,
                s.over_slo / 0.01,
            ));
        }
        out.push('}');
        out
    }

    /// The last `n` sampled request span-trees as a Chrome-trace JSON
    /// document (one `X` event per phase, `args.request_id` on every
    /// event, `M` metadata naming threads).
    pub fn traces_json(&self, n: usize) -> String {
        let ring = self.ring.lock().unwrap_or_else(|p| p.into_inner());
        let take = ring.len().saturating_sub(n.max(1));
        let mut w = TraceWriter::with_capacity(256);
        for t in ring.iter().skip(take) {
            let mut request_id = String::from("\"request_id\":");
            write_str(&mut request_id, &t.id);
            // one umbrella event for the whole request
            w.complete(
                &format!("request {}", t.fn_name),
                "request",
                0,
                t.start_ns,
                t.total_ns,
                &format!("{request_id},\"status\":{}", t.status),
            );
            for p in &t.phases {
                w.complete(&p.name, "phase", p.lane, p.start_ns, p.dur_ns, &request_id);
            }
        }
        w.finish("autograph-serve", None)
    }
}

/// Executor spans reach their request's trace through this impl: the
/// worker sets the obs request context around the session run, and any
/// span closing on that thread lands here with the context still set.
/// Installed as the process recorder only when sampling is on.
impl Recorder for Telemetry {
    fn span(&self, cat: &'static str, name: &str, start_ns: u64, dur_ns: u64) {
        let ctx = autograph_obs::request_ctx();
        if ctx == 0 {
            return;
        }
        let trace = {
            let inflight = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
            inflight.get(&ctx).cloned()
        };
        if let Some(t) = trace {
            t.phase(&format!("{cat}/{name}"), start_ns, dur_ns);
        }
    }

    fn count(&self, _cat: &'static str, _name: &'static str, _delta: u64) {}

    fn observe(&self, _cat: &'static str, _name: &str, _value: u64) {}
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tel(sample: u64) -> Arc<Telemetry> {
        Telemetry::new(
            &["f".to_string()],
            TelemetryConfig {
                trace_sample: sample,
                trace_ring: 4,
                slo_ms: 25,
            },
        )
    }

    #[test]
    fn ids_honor_header_else_generate() {
        let t = tel(0);
        let a = t.begin_request(Some("client-7".to_string()), "f");
        assert_eq!(a.id, "client-7");
        assert!(!a.sampled, "sampling off");
        let b = t.begin_request(None, "f");
        assert!(b.id.starts_with("req-"), "{}", b.id);
        assert_ne!(a.num, b.num);
    }

    #[test]
    fn sampling_collects_phases_and_ring_is_bounded() {
        let t = tel(1);
        for i in 0..6 {
            let tr = t.begin_request(None, "f");
            assert!(tr.sampled);
            tr.phase("queue_wait", 0, 1_000);
            t.finish_request(&tr, 200, 5_000);
            let ring = t.ring.lock().unwrap();
            assert!(ring.len() <= 4, "ring bounded, i={i}");
        }
        let doc = t.traces_json(10);
        let parsed: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON");
        let events = parsed["traceEvents"].as_array().expect("events");
        // 4 retained requests × (umbrella + 1 phase) + metadata
        let umbrella = events
            .iter()
            .filter(|e| e["cat"].as_str() == Some("request"))
            .count();
        assert_eq!(umbrella, 4);
        assert!(events
            .iter()
            .filter(|e| e["ph"].as_str() != Some("M"))
            .all(|e| e["args"]["request_id"].as_str().is_some()));
    }

    #[test]
    fn recorder_attributes_spans_via_request_ctx() {
        let t = tel(1);
        let tr = t.begin_request(None, "f");
        {
            let _ctx = autograph_obs::set_request_ctx(tr.num);
            t.span("graph_op", "matmul", 10, 20);
        }
        t.span("graph_op", "unattributed", 10, 20); // ctx cleared: dropped
        t.finish_request(&tr, 200, 100);
        let ring = t.ring.lock().unwrap();
        let phases = &ring.back().unwrap().phases;
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].name, "graph_op/matmul");
    }

    #[test]
    fn windows_report_counts_and_percentiles() {
        let t = tel(0);
        for _ in 0..100 {
            t.latency_all.record(5_000_000); // 5ms
        }
        let s = t.window_stats(10);
        assert_eq!(s.count, 100);
        assert!(
            s.p50_ns > 1_000_000 && s.p50_ns <= 10_000_000,
            "{}",
            s.p50_ns
        );
        assert_eq!(s.over_slo, 0.0, "5ms < 25ms SLO");
        let json = t.windows_json();
        for key in [
            "\"10s\"", "\"1m\"", "\"5m\"", "slo_ms", "p99_ms", "slo_burn",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        let parsed: Result<serde_json::Value, _> = serde_json::from_str(&json);
        assert!(parsed.is_ok(), "windows JSON parses: {json}");
    }

    #[test]
    fn unsampled_requests_skip_phase_collection() {
        let t = tel(0);
        let tr = t.begin_request(None, "f");
        tr.phase("queue_wait", 0, 1_000);
        assert!(tr.phases.lock().unwrap().is_empty());
        t.finish_request(&tr, 200, 100); // no-op, must not panic
        assert_eq!(t.ring.lock().unwrap().len(), 0);
    }
}
