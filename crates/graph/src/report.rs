//! Per-run structured reports: the tensor-memory ledger delta and the
//! per-node cost table (self-time, allocation, evaluation count) of one
//! `Session::run`.
//!
//! When [`crate::Session::set_reporting`] is on, every run collects
//! per-node self-times and allocation deltas (a [`Collector`] threaded
//! through [`crate::run::RunCtx`]) and diffs the tensor memory ledger
//! (`autograph_tensor::mem`) around the run. The result is a
//! [`RunReport`] with a JSON serialization and a human-readable text
//! rendering; `autograph-explain` folds its `node_costs` back onto
//! source lines through each node's span.
//!
//! Attribution notes: node self-times are measured around each
//! *top-level plan node* — a `While`/`Cond` node's time includes its
//! whole subgraph execution. Per-node allocation is attributed via a
//! thread-local ledger, so bytes allocated by a nested parallel kernel
//! on *other* worker threads count toward the run's totals but not the
//! node's line item. The memory ledger is process-wide; concurrent
//! reporting sessions see each other's traffic.

use crate::ir::{Graph, NodeId};
use autograph_obs::json::write_str;
use autograph_pylang::Span;
use std::cell::Cell;
use std::fmt::Write as _;

/// Per-node cost accumulators for one run, indexed by `NodeId`. The
/// executor records through the shared `&RunCtx`, hence `Cell`.
#[derive(Debug, Default)]
pub(crate) struct Collector {
    self_ns: Vec<Cell<u64>>,
    alloc_bytes: Vec<Cell<u64>>,
    evals: Vec<Cell<u64>>,
}

impl Collector {
    pub(crate) fn new(nodes: usize) -> Collector {
        Collector {
            self_ns: vec![Cell::new(0); nodes],
            alloc_bytes: vec![Cell::new(0); nodes],
            evals: vec![Cell::new(0); nodes],
        }
    }

    /// Record one evaluation of `id`: wall time and thread-local
    /// allocation delta.
    pub(crate) fn record(&self, id: NodeId, self_ns: u64, alloc_bytes: u64) {
        if id < self.self_ns.len() {
            self.self_ns[id].set(self.self_ns[id].get() + self_ns);
            self.alloc_bytes[id].set(self.alloc_bytes[id].get() + alloc_bytes);
            self.evals[id].set(self.evals[id].get() + 1);
        }
    }

    fn self_ns_vec(&self) -> Vec<u64> {
        self.self_ns.iter().map(Cell::get).collect()
    }
}

/// Memory-ledger delta for one run (see `autograph_tensor::mem`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemReport {
    /// Bytes allocated during the run.
    pub allocated_bytes: u64,
    /// Bytes freed during the run.
    pub freed_bytes: u64,
    /// Live bytes at run start (counted allocations only).
    pub live_bytes_start: u64,
    /// Live bytes at run end; `end - start` is what the run retained
    /// (variables, fetched outputs).
    pub live_bytes_end: u64,
    /// Peak working set during the run.
    pub peak_bytes: u64,
    /// Counted allocations during the run.
    pub allocs: u64,
    /// Counted frees during the run.
    pub frees: u64,
}

/// One row of the per-node cost table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeCost {
    /// Node id in the session graph.
    pub node: NodeId,
    /// The node's staged name.
    pub name: String,
    /// Op mnemonic.
    pub op: &'static str,
    /// The user-source span that staged the node (synthetic when the
    /// node has no source origin), threading the provenance chain into
    /// cost data so time folds back onto source lines.
    pub span: Span,
    /// Accumulated self-time (a `While` node includes its subgraphs).
    pub self_ns: u64,
    /// Bytes attributed to this node via the thread-local ledger.
    pub alloc_bytes: u64,
    /// Times the node was evaluated this run.
    pub evals: u64,
}

/// A structured account of one `Session::run`: where the time and
/// memory went. Retrieved via `Session::last_report`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Wall time of the run.
    pub wall_ns: u64,
    /// Resolved thread count the run used.
    pub threads: usize,
    /// Whether the run returned Ok.
    pub succeeded: bool,
    /// The error rendering for a failed run.
    pub error: Option<String>,
    /// Nodes dispatched (subgraphs included).
    pub nodes_executed: u64,
    /// Staged `While` iterations completed.
    pub while_iters: u64,
    /// Memory-ledger delta.
    pub mem: MemReport,
    /// Sum of all top-level node self-times. At threads=1 this tracks
    /// wall time closely (executor overhead excluded).
    pub total_self_ns: u64,
    /// Per-node costs, sorted by self-time descending.
    pub node_costs: Vec<NodeCost>,
}

pub(crate) struct ReportInputs<'a> {
    pub graph: &'a Graph,
    pub order: &'a [NodeId],
    pub collector: &'a Collector,
    pub wall_ns: u64,
    pub threads: usize,
    pub succeeded: bool,
    pub error: Option<String>,
    pub nodes_executed: u64,
    pub while_iters: u64,
    pub mem_before: autograph_tensor::mem::MemSnapshot,
    pub mem_after: autograph_tensor::mem::MemSnapshot,
}

pub(crate) fn build(inp: ReportInputs<'_>) -> RunReport {
    let self_ns = inp.collector.self_ns_vec();
    let total_self_ns: u64 = inp.order.iter().map(|&id| self_ns[id]).sum();

    let node_cost = |id: NodeId| NodeCost {
        node: id,
        name: inp.graph.nodes[id].name.clone(),
        op: inp.graph.nodes[id].op.mnemonic(),
        span: inp.graph.nodes[id].span,
        self_ns: self_ns[id],
        alloc_bytes: inp.collector.alloc_bytes[id].get(),
        evals: inp.collector.evals[id].get(),
    };

    let mut node_costs: Vec<NodeCost> = inp
        .order
        .iter()
        .map(|&id| node_cost(id))
        .filter(|c| c.evals > 0)
        .collect();
    node_costs.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.node.cmp(&b.node)));

    let mem = MemReport {
        allocated_bytes: inp
            .mem_after
            .allocated_bytes
            .saturating_sub(inp.mem_before.allocated_bytes),
        freed_bytes: inp
            .mem_after
            .freed_bytes
            .saturating_sub(inp.mem_before.freed_bytes),
        live_bytes_start: inp.mem_before.live_bytes,
        live_bytes_end: inp.mem_after.live_bytes,
        peak_bytes: inp.mem_after.peak_bytes,
        allocs: inp.mem_after.allocs.saturating_sub(inp.mem_before.allocs),
        frees: inp.mem_after.frees.saturating_sub(inp.mem_before.frees),
    };

    RunReport {
        wall_ns: inp.wall_ns,
        threads: inp.threads,
        succeeded: inp.succeeded,
        error: inp.error,
        nodes_executed: inp.nodes_executed,
        while_iters: inp.while_iters,
        mem,
        total_self_ns,
        node_costs,
    }
}

// ---- serialization ---------------------------------------------------------

fn write_node_cost(out: &mut String, c: &NodeCost) {
    let _ = write!(out, "{{\"node\":{},\"name\":", c.node);
    write_str(out, &c.name);
    out.push_str(",\"op\":");
    write_str(out, c.op);
    let _ = write!(
        out,
        ",\"line\":{},\"col\":{},\"self_ns\":{},\"alloc_bytes\":{},\"evals\":{}}}",
        c.span.line, c.span.col, c.self_ns, c.alloc_bytes, c.evals
    );
}

impl RunReport {
    /// Serialize as a self-contained JSON document (`"version":2`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"kind\":\"autograph_run_report\",\"version\":2,\"wall_ns\":{},\"threads\":{},\"succeeded\":{},\"error\":",
            self.wall_ns, self.threads, self.succeeded
        );
        match &self.error {
            Some(e) => write_str(&mut out, e),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"nodes_executed\":{},\"while_iters\":{},\"mem\":{{\"allocated_bytes\":{},\"freed_bytes\":{},\"live_bytes_start\":{},\"live_bytes_end\":{},\"peak_bytes\":{},\"allocs\":{},\"frees\":{}}},\"total_self_ns\":{},\"node_costs\":[",
            self.nodes_executed,
            self.while_iters,
            self.mem.allocated_bytes,
            self.mem.freed_bytes,
            self.mem.live_bytes_start,
            self.mem.live_bytes_end,
            self.mem.peak_bytes,
            self.mem.allocs,
            self.mem.frees,
            self.total_self_ns
        );
        for (i, c) in self.node_costs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_node_cost(&mut out, c);
        }
        out.push_str("]}");
        out
    }

    /// Render a human-readable multi-section summary.
    pub fn render_text(&self) -> String {
        fn ms(ns: u64) -> String {
            format!("{:.3}ms", ns as f64 / 1e6)
        }
        fn kb(b: u64) -> String {
            if b >= 1 << 20 {
                format!("{:.2}MiB", b as f64 / (1 << 20) as f64)
            } else {
                format!("{:.1}KiB", b as f64 / 1024.0)
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "run report: wall {} · threads {} · {}\n",
            ms(self.wall_ns),
            self.threads,
            if self.succeeded {
                "ok".to_string()
            } else {
                format!(
                    "FAILED: {}",
                    self.error.as_deref().unwrap_or("unknown error")
                )
            }
        ));
        out.push_str(&format!(
            "  nodes executed {} · while iters {} · node self-time total {}\n",
            self.nodes_executed,
            self.while_iters,
            ms(self.total_self_ns)
        ));
        out.push_str(&format!(
            "memory: peak {} · allocated {} in {} allocs · freed {} · retained {}\n",
            kb(self.mem.peak_bytes),
            kb(self.mem.allocated_bytes),
            self.mem.allocs,
            kb(self.mem.freed_bytes),
            kb(self
                .mem
                .live_bytes_end
                .saturating_sub(self.mem.live_bytes_start)),
        ));
        out.push_str("top nodes by self-time:\n");
        for c in self.node_costs.iter().take(10) {
            out.push_str(&format!(
                "  {:>6} {:<24} {:<10} {:<8} {} · {} · {} evals\n",
                c.node,
                truncate(&c.name, 24),
                c.op,
                c.span.to_string(),
                ms(c.self_ns),
                kb(c.alloc_bytes),
                c.evals
            ));
        }
        out
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_parses_and_text_renders() {
        let report = RunReport {
            wall_ns: 1_000_000,
            threads: 4,
            succeeded: true,
            error: None,
            nodes_executed: 12,
            while_iters: 3,
            mem: MemReport {
                allocated_bytes: 4096,
                freed_bytes: 2048,
                live_bytes_start: 100,
                live_bytes_end: 2148,
                peak_bytes: 4196,
                allocs: 7,
                frees: 3,
            },
            total_self_ns: 900_000,
            node_costs: vec![NodeCost {
                node: 2,
                name: "matmul \"weird\"".to_string(),
                op: "matmul",
                span: Span::new(3, 7),
                self_ns: 600_000,
                alloc_bytes: 1024,
                evals: 1,
            }],
        };
        let doc = serde_json::from_str(&report.to_json()).expect("valid JSON");
        assert_eq!(doc["kind"].as_str(), Some("autograph_run_report"));
        assert_eq!(doc["version"].as_u64(), Some(2));
        assert_eq!(doc["wall_ns"].as_u64(), Some(1_000_000));
        assert_eq!(doc["mem"]["peak_bytes"].as_u64(), Some(4196));
        assert_eq!(doc["total_self_ns"].as_u64(), Some(900_000));
        assert_eq!(
            doc["node_costs"][0]["name"].as_str(),
            Some("matmul \"weird\"")
        );
        assert_eq!(doc["node_costs"][0]["line"].as_u64(), Some(3));
        assert_eq!(doc["node_costs"][0]["col"].as_u64(), Some(7));
        assert_eq!(doc["node_costs"][0]["self_ns"].as_u64(), Some(600_000));
        // exactly these keys: the scheduler-era sections are gone from
        // the document, and from the text below
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "error",
                "kind",
                "mem",
                "node_costs",
                "nodes_executed",
                "succeeded",
                "threads",
                "total_self_ns",
                "version",
                "wall_ns",
                "while_iters"
            ]
        );
        let text = report.render_text();
        assert!(text.contains("memory: peak"), "{text}");
        assert!(text.contains("top nodes by self-time"), "{text}");
        assert!(
            !text.contains("scheduler") && !text.contains("critical path"),
            "{text}"
        );

        // failed-run rendering stays well-formed
        let failed = RunReport {
            succeeded: false,
            error: Some("deadline \"exceeded\"\n".to_string()),
            ..report
        };
        let doc = serde_json::from_str(&failed.to_json()).expect("valid JSON");
        assert_eq!(doc["succeeded"].as_bool(), Some(false));
        assert_eq!(doc["error"].as_str(), Some("deadline \"exceeded\"\n"));
        assert!(failed.render_text().contains("FAILED"));
    }
}
