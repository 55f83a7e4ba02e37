//! Chrome-trace export: [`TraceWriter`] renders the JSON document that
//! `chrome://tracing` and Perfetto load, and [`TraceRecorder`] buffers
//! complete (`ph: "X"`) events to feed it.

use crate::json::write_str;
use crate::recorder::Recorder;
use crate::{lock, thread_lane};
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// Writes one Chrome-trace JSON document event by event. The only place
/// the workspace spells the event schema: [`TraceRecorder::to_json`]
/// (`--profile` traces) and the serving layer's `/debug/trace` both
/// render through it.
pub struct TraceWriter {
    /// The document so far. Every data event ends in a comma: the
    /// process-name event [`TraceWriter::finish`] writes always follows.
    out: String,
}

impl TraceWriter {
    /// Start a document, reserving `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> TraceWriter {
        let mut out = String::with_capacity(capacity);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        TraceWriter { out }
    }

    /// Append `{"name":<name>,"cat":<cat>`, the two fields every data
    /// event opens with.
    fn open_event(&mut self, name: &str, cat: &str) {
        self.out.push_str("{\"name\":");
        write_str(&mut self.out, name);
        self.out.push_str(",\"cat\":");
        write_str(&mut self.out, cat);
    }

    /// One complete (`"ph":"X"`) event on lane `tid`. Times are on the
    /// trace clock ([`crate::now_ns`]) and are written as fractional
    /// microseconds, which is what Chrome wants and keeps ns precision.
    /// `args` holds the already-rendered members of the event's `args`
    /// object (`"request_id":"r-1","status":200`); empty means no `args`.
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        tid: u64,
        ts_ns: u64,
        dur_ns: u64,
        args: &str,
    ) {
        self.open_event(name, cat);
        let _ = write!(
            self.out,
            ",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}",
            ts_ns as f64 / 1e3,
            dur_ns as f64 / 1e3,
        );
        if !args.is_empty() {
            let _ = write!(self.out, ",\"args\":{{{args}}}");
        }
        self.out.push_str("},");
    }

    /// One counter (`"ph":"C"`) sample.
    pub(crate) fn counter(&mut self, name: &str, cat: &str, ts_ns: u64, value: u64) {
        self.open_event(name, cat);
        let _ = write!(
            self.out,
            ",\"ph\":\"C\",\"pid\":1,\"ts\":{:.3},\"args\":{{\"value\":{value}}}}},",
            ts_ns as f64 / 1e3,
        );
    }

    /// Close the document: the metadata (`"ph":"M"`) events that make
    /// the viewer show `process` and the registered thread names
    /// (`serve-worker-N`, `par-worker-N`, `main`)
    /// instead of bare ids, then `otherData.droppedEvents` when the
    /// producer counts drops.
    pub fn finish(mut self, process: &str, dropped_events: Option<u64>) -> String {
        self.out
            .push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":");
        write_str(&mut self.out, process);
        self.out.push_str("}}");
        for (lane, name) in crate::lane_names() {
            let _ = write!(
                self.out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"args\":{{\"name\":"
            );
            write_str(&mut self.out, &name);
            self.out.push_str("}}");
        }
        self.out.push(']');
        if let Some(dropped) = dropped_events {
            let _ = write!(self.out, ",\"otherData\":{{\"droppedEvents\":{dropped}}}");
        }
        self.out.push('}');
        self.out
    }
}

/// Default cap on buffered events; one complete event is ~100 bytes of
/// JSON, so the default bounds a runaway trace near 100 MB.
pub(crate) const DEFAULT_MAX_EVENTS: usize = 1_000_000;

#[derive(Debug, Clone)]
struct TraceEvent {
    name: String,
    cat: &'static str,
    ts_ns: u64,
    dur_ns: u64,
    tid: u64,
}

#[derive(Debug, Default)]
struct TraceState {
    events: Vec<TraceEvent>,
    dropped: u64,
    counters: Vec<(u64, &'static str, String, u64)>, // (ts, cat, name, running total)
    gauges: Vec<(u64, &'static str, String, u64)>,   // (ts, cat, name, absolute value)
    totals: std::collections::HashMap<String, u64>,
}

/// Buffers span events (and counter updates) for Chrome-trace export.
#[derive(Debug)]
pub struct TraceRecorder {
    state: Mutex<TraceState>,
    max_events: usize,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// A recorder buffering up to `DEFAULT_MAX_EVENTS` span events.
    pub fn new() -> TraceRecorder {
        TraceRecorder::with_capacity(DEFAULT_MAX_EVENTS)
    }

    /// A recorder buffering at most `max_events` span events; further
    /// events are counted as dropped (reported in the trace metadata).
    pub fn with_capacity(max_events: usize) -> TraceRecorder {
        TraceRecorder {
            state: Mutex::new(TraceState::default()),
            max_events,
        }
    }

    /// Number of buffered span events.
    pub fn len(&self) -> usize {
        lock(&self.state).events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the Chrome trace JSON document.
    pub fn to_json(&self) -> String {
        let state = lock(&self.state);
        let mut w = TraceWriter::with_capacity(128 + state.events.len() * 96);
        for e in &state.events {
            w.complete(&e.name, e.cat, e.tid, e.ts_ns, e.dur_ns, "");
        }
        for (ts_ns, cat, name, value) in state.counters.iter().chain(state.gauges.iter()) {
            w.counter(name, cat, *ts_ns, *value);
        }
        w.finish("autograph", Some(state.dropped))
    }

    /// Write the trace JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

impl Recorder for TraceRecorder {
    fn span(&self, cat: &'static str, name: &str, start_ns: u64, dur_ns: u64) {
        let tid = thread_lane();
        let mut state = lock(&self.state);
        if state.events.len() >= self.max_events {
            state.dropped += 1;
            return;
        }
        state.events.push(TraceEvent {
            name: name.to_string(),
            cat,
            ts_ns: start_ns,
            dur_ns,
            tid,
        });
    }

    fn count(&self, cat: &'static str, name: &'static str, delta: u64) {
        let ts = crate::now_ns();
        let mut state = lock(&self.state);
        let key = format!("{cat}/{name}");
        let total = state.totals.entry(key).or_insert(0);
        *total = total.saturating_add(delta);
        let total = *total;
        if state.counters.len() < self.max_events {
            state.counters.push((ts, cat, name.to_string(), total));
        }
    }

    fn observe(&self, _cat: &'static str, _name: &str, _value: u64) {
        // distributions are an aggregate concern; traces keep spans only
    }

    fn gauge(&self, cat: &'static str, name: &str, value: u64) {
        let ts = crate::now_ns();
        let mut state = lock(&self.state);
        if state.gauges.len() < self.max_events {
            state.gauges.push((ts, cat, name.to_string(), value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_json_parses_back_with_serde_json() {
        let t = TraceRecorder::new();
        t.span("graph_op", "matmul", 1_000, 2_500);
        t.span("graph_op", "weird \"name\"\n", 4_000, 10);
        t.count("session", "plan_miss", 1);
        let doc = serde_json::from_str(&t.to_json()).expect("valid JSON");
        let all = doc["traceEvents"].as_array().expect("traceEvents array");
        // metadata ("M") events are appended by the exporter; the
        // data events keep their order ahead of them
        let events: Vec<_> = all
            .iter()
            .filter(|e| e["ph"].as_str() != Some("M"))
            .collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0]["name"].as_str(), Some("matmul"));
        assert_eq!(events[0]["ph"].as_str(), Some("X"));
        assert_eq!(events[0]["ts"].as_f64(), Some(1.0)); // 1000ns = 1us
        assert_eq!(events[0]["dur"].as_f64(), Some(2.5));
        assert_eq!(events[1]["name"].as_str(), Some("weird \"name\"\n"));
        assert_eq!(events[2]["ph"].as_str(), Some("C"));
        assert_eq!(events[2]["args"]["value"].as_u64(), Some(1));
        assert_eq!(doc["otherData"]["droppedEvents"].as_u64(), Some(0));
        // the process is always named
        assert!(
            all.iter().any(
                |e| e["ph"].as_str() == Some("M") && e["name"].as_str() == Some("process_name")
            ),
            "process_name metadata event missing"
        );
    }

    #[test]
    fn named_threads_get_thread_name_metadata_events() {
        // touching thread_lane() from a named thread registers its lane;
        // registration is process-global, so any recorder exports it
        std::thread::Builder::new()
            .name("serve-worker-99".to_string())
            .spawn(crate::thread_lane)
            .expect("spawn")
            .join()
            .expect("join");
        let t = TraceRecorder::new();
        let doc = serde_json::from_str(&t.to_json()).expect("valid JSON");
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        let named = events.iter().any(|e| {
            e["ph"].as_str() == Some("M")
                && e["name"].as_str() == Some("thread_name")
                && e["args"]["name"].as_str() == Some("serve-worker-99")
                && e["tid"].as_u64().is_some()
        });
        assert!(named, "expected a thread_name M event for serve-worker-99");
    }

    #[test]
    fn gauges_are_absolute_not_accumulating() {
        let t = TraceRecorder::new();
        t.gauge("sched", "queue_depth", 5);
        t.gauge("sched", "queue_depth", 3);
        let doc = serde_json::from_str(&t.to_json()).expect("valid JSON");
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        assert_eq!(events[0]["args"]["value"].as_u64(), Some(5));
        assert_eq!(events[1]["args"]["value"].as_u64(), Some(3));
    }

    #[test]
    fn capacity_cap_counts_drops() {
        let t = TraceRecorder::with_capacity(2);
        for i in 0..5 {
            t.span("c", "s", i, 1);
        }
        assert_eq!(t.len(), 2);
        let doc = serde_json::from_str(&t.to_json()).expect("valid JSON");
        assert_eq!(doc["otherData"]["droppedEvents"].as_u64(), Some(3));
    }

    #[test]
    fn write_to_creates_parseable_file() {
        let t = TraceRecorder::new();
        t.span("c", "s", 0, 42);
        let path = std::env::temp_dir().join("autograph_obs_chrome_test.json");
        t.write_to(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let doc = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(doc["traceEvents"][0]["dur"].as_f64(), Some(0.042));
        let _ = std::fs::remove_file(&path);
    }
}
