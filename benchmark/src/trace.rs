//! Harness-side spans: one per call into a layer's public function,
//! kept in memory and written out when the traced run ends.
//!
//! The spans are recorded from outside the program (this PR changes no
//! crate), so a layer's number is the time of a call into it. A span's
//! *self* time is its duration minus the part its child spans cover —
//! for an operation span that is harness glue, for a block span it is
//! calibration and output checking.

use crate::stats;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.optimize`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op_id: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span recorder. With `enabled == false` every call is a
/// plain pass-through, so the same workload code serves the untraced run.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Whether spans are recorded.
    pub enabled: bool,
}

impl Tracer {
    /// A tracer; `enabled` decides whether it records anything.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            enabled,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now();
        let i = self.stack.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Record `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op_id);
        let out = f();
        self.exit();
        out
    }

    /// All spans, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median duration, in microseconds, of the spans called `name`
    /// (0 when there are none: the layer was bypassed).
    pub fn median_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            stats::median(&d) / 1e3
        }
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Serialize as `{"workload": .., "spans": [..]}`; every span carries
    /// its self time so a reader needs no second pass.
    pub fn to_json(&self, workload: &str) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.duration_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_nested_and_sibling() {
        let spans = vec![
            span("op", 0, 100, None),         // 0: two children + a grandchild
            span("load", 10, 40, Some(0)),    // 1: one child
            span("parse", 15, 25, Some(1)),   // 2: leaf, nested two deep
            span("stage", 50, 90, Some(0)),   // 3: sibling of 1
            span("other_op", 100, 130, None), // 4: unrelated root
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40, 30]);
    }

    #[test]
    fn tracer_nests_by_open_span_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.enter("block", 0);
        let v = t.span("op", 7, || 41 + 1);
        t.span("op", 8, || ());
        t.exit();
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!((s[1].parent, s[1].op_id), (Some(0), 7));
        assert_eq!((s[2].parent, s[2].op_id), (Some(0), 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(t.count("op"), 2);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("op", 1, || 5), 5);
        assert!(off.spans().is_empty());
        assert_eq!(off.median_us("op"), 0.0);
    }

    #[test]
    fn trace_json_parses() {
        let mut t = Tracer::new(true);
        t.enter("block", 0);
        t.span("graph.run", 1, || ());
        t.exit();
        let doc = serde_json::from_str(&t.to_json("rnn_small")).expect("valid JSON");
        assert_eq!(doc["workload"].as_str(), Some("rnn_small"));
        let spans = doc["spans"].as_array().expect("spans array");
        assert_eq!(spans.len(), 2);
        assert!(spans[0]["parent"].is_null());
        assert_eq!(spans[1]["parent"].as_u64(), Some(0));
        assert_eq!(spans[1]["name"].as_str(), Some("graph.run"));
    }
}
