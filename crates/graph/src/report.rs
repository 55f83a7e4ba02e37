//! Per-run structured reports: memory accounting, worker-pool
//! utilization, and critical-path analysis over the executed plan.
//!
//! When [`crate::Session::set_reporting`] is on, every run collects
//! per-node self-times and allocation deltas (a [`Collector`] threaded
//! through [`crate::run::RunCtx`]), diffs the tensor memory ledger
//! (`autograph_tensor::mem`) and the worker-pool meters
//! (`autograph_par::pool_snapshot`) around the run, and folds the
//! per-node self-times over the plan DAG — data edges plus
//! per-resource control edges (`consumer_lists`) — to find the critical
//! path. The result is a [`RunReport`] with a JSON serialization and a
//! human-readable text rendering.
//!
//! Attribution notes: node self-times are measured around each
//! *top-level plan node* — a `While`/`Cond` node's time includes its
//! whole subgraph execution. Per-node allocation is attributed via a
//! thread-local ledger, so bytes allocated by a nested parallel kernel
//! on *other* worker threads count toward the run's totals but not the
//! node's line item. Memory and pool counters are process-wide;
//! concurrent reporting sessions see each other's traffic.

use crate::ir::{Graph, NodeId, OpKind};
use autograph_pylang::Span;
use std::cell::Cell;
use std::collections::HashMap;

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

/// One pool thread's share of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerReport {
    /// Thread label (`par-worker-N`, or the helping caller thread's name).
    pub label: String,
    /// Nanoseconds this thread spent executing pool tasks.
    pub busy_ns: u64,
    /// Tasks this thread executed.
    pub tasks: u64,
    /// `busy_ns / wall_ns`.
    pub utilization: f64,
}

/// Worker-pool utilization for one run (the pool only runs kernel
/// chunks that `parallel_for` split off).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedReport {
    /// Threads whose metered counters advanced during the run.
    pub workers: Vec<WorkerReport>,
    /// Aggregate utilization: total busy time across workers divided by
    /// `threads × wall`. 0 when no kernel split (no pool tasks).
    pub utilization: f64,
    /// Largest ready-queue depth observed at injection.
    pub queue_depth_max: u64,
    /// Mean ready-queue depth over injections.
    pub queue_depth_mean: f64,
    /// Tasks injected into the pool during the run.
    pub tasks_injected: u64,
}

/// One node on the critical path (or in the per-node cost table).
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

/// The longest self-time-weighted chain through the plan DAG.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    /// The chain, in execution order.
    pub nodes: Vec<NodeCost>,
    /// Sum of self-times along the chain.
    pub path_ns: u64,
    /// `path_ns / wall_ns` — how much of the run the chain explains.
    pub share_of_wall: f64,
    /// Amdahl-style bound: `total_self_ns / path_ns`. No schedule can
    /// beat this speedup over the sequential sum, whatever the thread
    /// count.
    pub speedup_bound: f64,
}

/// A structured account of one `Session::run`: where the time, memory
/// and parallelism went. Retrieved via `Session::last_report`.
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
    /// Worker-pool utilization.
    pub sched: SchedReport,
    /// Longest chain through the plan DAG.
    pub critical_path: CriticalPath,
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
    pub pool_before: autograph_par::PoolSnapshot,
    pub pool_after: autograph_par::PoolSnapshot,
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

    let critical_path = critical_path(
        inp.graph,
        inp.order,
        &self_ns,
        total_self_ns,
        inp.wall_ns,
        &node_cost,
    );

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

    let sched = sched_report(&inp.pool_before, &inp.pool_after, inp.wall_ns, inp.threads);

    RunReport {
        wall_ns: inp.wall_ns,
        threads: inp.threads,
        succeeded: inp.succeeded,
        error: inp.error,
        nodes_executed: inp.nodes_executed,
        while_iters: inp.while_iters,
        mem,
        sched,
        critical_path,
        total_self_ns,
        node_costs,
    }
}

fn sched_report(
    before: &autograph_par::PoolSnapshot,
    after: &autograph_par::PoolSnapshot,
    wall_ns: u64,
    threads: usize,
) -> SchedReport {
    // the worker registry only ever appends, so `before` is a prefix of
    // `after` and per-index diffs line up
    let mut workers = Vec::new();
    let mut busy_total = 0u64;
    for (i, w) in after.workers.iter().enumerate() {
        let (busy0, tasks0) = before
            .workers
            .get(i)
            .map(|b| (b.busy_ns, b.tasks))
            .unwrap_or((0, 0));
        let busy_ns = w.busy_ns.saturating_sub(busy0);
        let tasks = w.tasks.saturating_sub(tasks0);
        if busy_ns == 0 && tasks == 0 {
            continue;
        }
        busy_total += busy_ns;
        workers.push(WorkerReport {
            label: w.label.clone(),
            busy_ns,
            tasks,
            utilization: ratio(busy_ns as f64, wall_ns as f64),
        });
    }
    let samples = after.queue_samples.saturating_sub(before.queue_samples);
    let depth_sum = after.queue_depth_sum.saturating_sub(before.queue_depth_sum);
    SchedReport {
        workers,
        utilization: ratio(busy_total as f64, wall_ns as f64 * threads.max(1) as f64),
        // max is cumulative (not resettable per-run); report it only if
        // this run injected anything, otherwise it describes other runs
        queue_depth_max: if samples > 0 {
            after.queue_depth_max
        } else {
            0
        },
        queue_depth_mean: ratio(depth_sum as f64, samples as f64),
        tasks_injected: after.injected_tasks.saturating_sub(before.injected_tasks),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A stateful resource that forces ordering between nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Resource {
    /// A named session variable (read = `Variable`, write = `Assign`).
    Var(String),
    /// The output stream shared by `Print` and `Assert` nodes.
    Io,
}

/// Record `op`'s resource accesses into `acc` (`true` = write). Control
/// flow recurses into its subgraphs so a `While`/`Cond` is ordered
/// against everything its body touches.
fn node_accesses(op: &OpKind, acc: &mut HashMap<Resource, bool>) {
    fn touch(acc: &mut HashMap<Resource, bool>, res: Resource, write: bool) {
        let e = acc.entry(res).or_insert(false);
        *e = *e || write;
    }
    match op {
        OpKind::Variable { name } => touch(acc, Resource::Var(name.clone()), false),
        OpKind::Assign { name } => touch(acc, Resource::Var(name.clone()), true),
        OpKind::Print(_) | OpKind::AssertOp(_) => touch(acc, Resource::Io, true),
        OpKind::Cond { then_g, else_g } => {
            graph_accesses(&then_g.graph, acc);
            graph_accesses(&else_g.graph, acc);
        }
        OpKind::While { cond_g, body_g, .. } => {
            graph_accesses(&cond_g.graph, acc);
            graph_accesses(&body_g.graph, acc);
        }
        _ => {}
    }
}

fn graph_accesses(g: &Graph, acc: &mut HashMap<Resource, bool>) {
    for n in &g.nodes {
        node_accesses(&n.op, acc);
    }
}

/// The plan DAG's adjacency for `order`: per-node consumer lists over
/// data edges plus per-resource control edges in creation (= program)
/// order. A variable read orders after the preceding write and a write
/// after every read since the previous write (reads of one variable stay
/// unordered); `Print`/`Assert` nodes form one chain; a `Cond`/`While`
/// inherits every resource its subgraphs touch. These are the orderings
/// any schedule of the plan must keep, so the critical path counts them.
fn consumer_lists(graph: &Graph, order: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); graph.nodes.len()];
    for &id in order {
        for &inp in &graph.nodes[id].inputs {
            consumers[inp].push(id);
        }
    }
    struct Chain {
        last_write: Option<NodeId>,
        reads_since: Vec<NodeId>,
    }
    let mut chains: HashMap<Resource, Chain> = HashMap::new();
    let mut acc: HashMap<Resource, bool> = HashMap::new();
    for &id in order {
        acc.clear();
        node_accesses(&graph.nodes[id].op, &mut acc);
        for (res, write) in acc.drain() {
            let chain = chains.entry(res).or_insert(Chain {
                last_write: None,
                reads_since: Vec::new(),
            });
            if write {
                if chain.reads_since.is_empty() {
                    if let Some(w) = chain.last_write {
                        consumers[w].push(id);
                    }
                } else {
                    for r in chain.reads_since.drain(..) {
                        consumers[r].push(id);
                    }
                }
                chain.last_write = Some(id);
            } else {
                if let Some(w) = chain.last_write {
                    consumers[w].push(id);
                }
                chain.reads_since.push(id);
            }
        }
    }
    consumers
}

/// Longest path over the plan DAG, weighting each node by its measured
/// self-time. Edges are the data inputs plus the per-resource control
/// edges of [`consumer_lists`], so the chain reflects what any schedule
/// of the plan must serialize.
fn critical_path(
    graph: &Graph,
    order: &[NodeId],
    self_ns: &[u64],
    total_self_ns: u64,
    wall_ns: u64,
    node_cost: &dyn Fn(NodeId) -> NodeCost,
) -> CriticalPath {
    if order.is_empty() {
        return CriticalPath::default();
    }
    let n = graph.nodes.len();
    let consumers = consumer_lists(graph, order);
    let mut dist: Vec<u64> = vec![0; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    for &id in order {
        dist[id] = dist[id].max(self_ns[id]);
        for &c in &consumers[id] {
            let through = dist[id] + self_ns[c];
            if through > dist[c] {
                dist[c] = through;
                prev[c] = Some(id);
            }
        }
    }
    let mut end = order[0];
    for &id in order {
        if dist[id] > dist[end] {
            end = id;
        }
    }
    let mut chain = vec![end];
    while let Some(p) = prev[chain[chain.len() - 1]] {
        chain.push(p);
    }
    chain.reverse();
    let path_ns = dist[end];
    CriticalPath {
        nodes: chain.into_iter().map(node_cost).collect(),
        path_ns,
        share_of_wall: ratio(path_ns as f64, wall_ns as f64),
        speedup_bound: if path_ns > 0 {
            total_self_ns as f64 / path_ns as f64
        } else {
            1.0
        },
    }
}

// ---- serialization ---------------------------------------------------------

/// Escape a string as a JSON literal (quotes included).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a finite nonnegative JSON number from an `f64`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0".to_string()
    }
}

fn node_cost_json(c: &NodeCost) -> String {
    format!(
        "{{\"node\":{},\"name\":{},\"op\":{},\"line\":{},\"col\":{},\"self_ns\":{},\"alloc_bytes\":{},\"evals\":{}}}",
        c.node,
        esc(&c.name),
        esc(c.op),
        c.span.line,
        c.span.col,
        c.self_ns,
        c.alloc_bytes,
        c.evals
    )
}

impl RunReport {
    /// Serialize as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"kind\":\"autograph_run_report\",\"version\":1");
        out.push_str(&format!(",\"wall_ns\":{}", self.wall_ns));
        out.push_str(&format!(",\"threads\":{}", self.threads));
        out.push_str(&format!(",\"succeeded\":{}", self.succeeded));
        match &self.error {
            Some(e) => out.push_str(&format!(",\"error\":{}", esc(e))),
            None => out.push_str(",\"error\":null"),
        }
        out.push_str(&format!(",\"nodes_executed\":{}", self.nodes_executed));
        out.push_str(&format!(",\"while_iters\":{}", self.while_iters));
        out.push_str(&format!(
            ",\"mem\":{{\"allocated_bytes\":{},\"freed_bytes\":{},\"live_bytes_start\":{},\"live_bytes_end\":{},\"peak_bytes\":{},\"allocs\":{},\"frees\":{}}}",
            self.mem.allocated_bytes,
            self.mem.freed_bytes,
            self.mem.live_bytes_start,
            self.mem.live_bytes_end,
            self.mem.peak_bytes,
            self.mem.allocs,
            self.mem.frees
        ));
        out.push_str(&format!(
            ",\"sched\":{{\"utilization\":{},\"queue_depth_max\":{},\"queue_depth_mean\":{},\"tasks_injected\":{},\"workers\":[",
            num(self.sched.utilization),
            self.sched.queue_depth_max,
            num(self.sched.queue_depth_mean),
            self.sched.tasks_injected
        ));
        for (i, w) in self.sched.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":{},\"busy_ns\":{},\"tasks\":{},\"utilization\":{}}}",
                esc(&w.label),
                w.busy_ns,
                w.tasks,
                num(w.utilization)
            ));
        }
        out.push_str("]}");
        out.push_str(&format!(
            ",\"critical_path\":{{\"path_ns\":{},\"share_of_wall\":{},\"speedup_bound\":{},\"nodes\":[",
            self.critical_path.path_ns,
            num(self.critical_path.share_of_wall),
            num(self.critical_path.speedup_bound)
        ));
        for (i, c) in self.critical_path.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&node_cost_json(c));
        }
        out.push_str("]}");
        out.push_str(&format!(",\"total_self_ns\":{}", self.total_self_ns));
        out.push_str(",\"node_costs\":[");
        for (i, c) in self.node_costs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&node_cost_json(c));
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
        out.push_str(&format!(
            "scheduler: utilization {:.1}% · {} tasks injected · queue depth max {} mean {:.1}\n",
            self.sched.utilization * 100.0,
            self.sched.tasks_injected,
            self.sched.queue_depth_max,
            self.sched.queue_depth_mean,
        ));
        for w in &self.sched.workers {
            out.push_str(&format!(
                "  {:<16} busy {} ({:.1}%) · {} tasks\n",
                w.label,
                ms(w.busy_ns),
                w.utilization * 100.0,
                w.tasks
            ));
        }
        out.push_str(&format!(
            "critical path: {} of wall ({:.1}%) · speedup bound {:.2}x\n",
            ms(self.critical_path.path_ns),
            self.critical_path.share_of_wall * 100.0,
            self.critical_path.speedup_bound,
        ));
        for c in &self.critical_path.nodes {
            out.push_str(&format!(
                "  {:>6} {:<24} {:<10} {:<8} {}\n",
                c.node,
                truncate(&c.name, 24),
                c.op,
                c.span.to_string(),
                ms(c.self_ns)
            ));
        }
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
    use crate::builder::GraphBuilder;

    fn diamond() -> (Graph, Vec<NodeId>) {
        // a -> b, a -> c, (b,c) -> d : two parallel arms
        let mut b = GraphBuilder::new();
        let a = b.scalar(1.0);
        let x = b.add_op(a, a);
        let y = b.mul(a, a);
        let d = b.add_op(x, y);
        (b.finish(), vec![a, x, y, d])
    }

    #[test]
    fn critical_path_picks_heavier_arm() {
        let (g, ids) = diamond();
        let order: Vec<NodeId> = (0..g.nodes.len()).collect();
        let mut self_ns = vec![0u64; g.nodes.len()];
        self_ns[ids[0]] = 10;
        self_ns[ids[1]] = 100; // heavy arm
        self_ns[ids[2]] = 5;
        self_ns[ids[3]] = 20;
        let total: u64 = self_ns.iter().sum();
        let cost = |id: NodeId| NodeCost {
            node: id,
            name: g.nodes[id].name.clone(),
            op: g.nodes[id].op.mnemonic(),
            span: g.nodes[id].span,
            self_ns: self_ns[id],
            alloc_bytes: 0,
            evals: 1,
        };
        let cp = critical_path(&g, &order, &self_ns, total, 200, &cost);
        assert_eq!(cp.path_ns, 10 + 100 + 20);
        let chain: Vec<NodeId> = cp.nodes.iter().map(|c| c.node).collect();
        assert_eq!(chain, vec![ids[0], ids[1], ids[3]]);
        assert!((cp.speedup_bound - total as f64 / 130.0).abs() < 1e-9);
        assert!((cp.share_of_wall - 130.0 / 200.0).abs() < 1e-9);
    }

    #[test]
    fn control_edges_chain_stateful_nodes_on_the_critical_path() {
        use crate::builder::SubGraphBuilder;
        use autograph_tensor::Tensor;
        let zero = || Tensor::scalar_f32(0.0);
        let mut b = GraphBuilder::new();
        let c = b.scalar(1.0);
        // assign then read of one variable: no data edge between them
        let write_v = b.assign("v", c);
        let read_v = b.variable("v", zero());
        // two reads of another variable stay unordered
        let read_u1 = b.variable("u", zero());
        let read_u2 = b.variable("u", zero());
        let print1 = b.add(OpKind::Print("a".into()), vec![c]);
        let print2 = b.add(OpKind::Print("b".into()), vec![c]);
        // a While whose body assigns `w`, read after the loop
        let (mut cb, _) = SubGraphBuilder::new(1);
        let stop = cb.b.constant(Tensor::scalar_bool(false));
        let cond_g = cb.finish(vec![stop]);
        let (mut bb, bp) = SubGraphBuilder::new(1);
        let write_w = bb.b.assign("w", bp[0]);
        let body_g = bb.finish(vec![write_w]);
        let looped = b.while_loop(vec![c], cond_g, body_g);
        let read_w = b.variable("w", zero());
        let g = b.finish();
        let order: Vec<NodeId> = (0..g.nodes.len()).collect();

        // weigh only `first` and `second`: they are on one chain exactly
        // when the path carries both weights
        let path_through = |first: NodeId, second: NodeId| {
            let mut self_ns = vec![0u64; g.nodes.len()];
            self_ns[first] = 50;
            self_ns[second] = 50;
            let cost = |id: NodeId| NodeCost {
                node: id,
                name: g.nodes[id].name.clone(),
                op: g.nodes[id].op.mnemonic(),
                span: g.nodes[id].span,
                self_ns: self_ns[id],
                alloc_bytes: 0,
                evals: 1,
            };
            let cp = critical_path(&g, &order, &self_ns, 100, 100, &cost);
            let chain: Vec<NodeId> = cp.nodes.iter().map(|n| n.node).collect();
            (cp.path_ns, chain)
        };
        for (first, second) in [(write_v, read_v), (print1, print2), (looped, read_w)] {
            let (path_ns, chain) = path_through(first, second);
            assert_eq!(path_ns, 100, "{first} -> {second} not chained");
            assert!(chain.ends_with(&[first, second]), "{chain:?}");
        }
        assert_eq!(path_through(read_u1, read_u2).0, 50, "reads were ordered");
    }

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
            sched: SchedReport {
                workers: vec![WorkerReport {
                    label: "par-worker-0".to_string(),
                    busy_ns: 900_000,
                    tasks: 11,
                    utilization: 0.9,
                }],
                utilization: 0.225,
                queue_depth_max: 5,
                queue_depth_mean: 2.5,
                tasks_injected: 11,
            },
            critical_path: CriticalPath {
                nodes: vec![NodeCost {
                    node: 2,
                    name: "matmul \"weird\"".to_string(),
                    op: "matmul",
                    span: Span::new(3, 7),
                    self_ns: 600_000,
                    alloc_bytes: 1024,
                    evals: 1,
                }],
                path_ns: 600_000,
                share_of_wall: 0.6,
                speedup_bound: 1.5,
            },
            total_self_ns: 900_000,
            node_costs: vec![],
        };
        let doc = serde_json::from_str(&report.to_json()).expect("valid JSON");
        assert_eq!(doc["kind"].as_str(), Some("autograph_run_report"));
        assert_eq!(doc["wall_ns"].as_u64(), Some(1_000_000));
        assert_eq!(doc["mem"]["peak_bytes"].as_u64(), Some(4196));
        assert_eq!(doc["sched"]["workers"][0]["tasks"].as_u64(), Some(11));
        assert_eq!(
            doc["critical_path"]["nodes"][0]["name"].as_str(),
            Some("matmul \"weird\"")
        );
        assert_eq!(doc["critical_path"]["nodes"][0]["line"].as_u64(), Some(3));
        assert_eq!(doc["critical_path"]["nodes"][0]["col"].as_u64(), Some(7));
        assert!(doc["sched"]["utilization"].as_f64().unwrap() > 0.2);
        let text = report.render_text();
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("utilization"), "{text}");

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
