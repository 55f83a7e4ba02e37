//! # autograph-explain
//!
//! The provenance/explain layer: folds per-node runtime cost
//! ([`autograph_graph::RunReport`]) back onto the PyLite source lines
//! that staged each node, using the span every graph node carries and
//! the rewrite lineage the optimizer records
//! ([`autograph_graph::PassRecord`] / [`autograph_graph::OptTrace`]).
//!
//! Three outputs (see the `autograph-explain` binary):
//!
//! * **annotated source** — the program with per-line cumulative time,
//!   allocations and eval counts;
//! * **plan dump** — the optimized graph as text and Graphviz DOT, each
//!   node showing its source span and rewrite lineage;
//! * **fallback report** — every [`ConversionWarning`] with the exact
//!   source construct, why it was unstageable, and what the eager
//!   fallback cost at runtime.

use autograph_graph::optimize::{optimize_traced, OptTrace};
use autograph_graph::{Graph, NodeId, RunReport, Session};
use autograph_runtime::runtime::GraphArg;
use autograph_runtime::{Runtime, Value};
use autograph_tensor::Tensor;
use autograph_transforms::{ConversionConfig, ConversionPolicy, ConversionWarning};
use std::collections::BTreeMap;
use std::time::Instant;

/// Options for [`explain_source`].
#[derive(Debug, Clone)]
pub struct ExplainOptions {
    /// The function to stage and profile.
    pub func: String,
    /// Thread count for the profiled graph runs.
    pub threads: usize,
    /// Number of runs; costs come from the last (warmed) run.
    pub runs: usize,
}

impl Default for ExplainOptions {
    fn default() -> Self {
        ExplainOptions {
            func: "f".to_string(),
            threads: 1,
            runs: 3,
        }
    }
}

/// Aggregated cost of one source line across the nodes it staged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineCost {
    /// 1-based source line.
    pub line: u32,
    /// Summed self-time of the line's nodes.
    pub self_ns: u64,
    /// Summed attributed allocation.
    pub alloc_bytes: u64,
    /// Summed evaluation count.
    pub evals: u64,
    /// Number of executed top-level nodes attributed to the line.
    pub nodes: usize,
}

/// How much of the executed plan resolved to a source span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Executed top-level nodes with a non-synthetic span.
    pub attributed_nodes: usize,
    /// All executed top-level nodes.
    pub total_nodes: usize,
    /// Self-time carried by attributed nodes.
    pub attributed_self_ns: u64,
    /// Self-time across all executed top-level nodes.
    pub total_self_ns: u64,
}

impl Coverage {
    /// Fraction of executed nodes attributed to a source line (1.0 when
    /// nothing executed).
    pub fn node_fraction(&self) -> f64 {
        if self.total_nodes == 0 {
            1.0
        } else {
            self.attributed_nodes as f64 / self.total_nodes as f64
        }
    }

    /// Fraction of node self-time attributed to a source line (1.0 when
    /// no time was measured).
    pub fn time_fraction(&self) -> f64 {
        if self.total_self_ns == 0 {
            1.0
        } else {
            self.attributed_self_ns as f64 / self.total_self_ns as f64
        }
    }
}

/// Runtime cost attributed to one conversion fallback.
#[derive(Debug, Clone, PartialEq)]
pub struct FallbackCost {
    /// The recorded degradation.
    pub warning: ConversionWarning,
    /// Wall time spent in eager dispatch of the fallen-back function
    /// (0 when it was not invoked by this explain run).
    pub eager_ns: u64,
    /// Eager calls timed.
    pub calls: u64,
}

/// The staged-and-profiled half of an explanation (absent when the
/// target function itself fell back to eager execution).
#[derive(Debug)]
pub struct StagedExplain {
    /// The optimized graph.
    pub graph: Graph,
    /// Its output nodes.
    pub outputs: Vec<NodeId>,
    /// Nodes the optimizer removed (with pass + span).
    pub trace: OptTrace,
    /// Cost data from the last profiled run.
    pub report: RunReport,
}

/// A full explanation of one program: staged cost attribution plus
/// fallback accounting.
#[derive(Debug)]
pub struct Explain {
    /// The original source text.
    pub source: String,
    /// The explained function.
    pub func: String,
    /// Staged graph + run report; `None` when `func` fell back.
    pub staged: Option<StagedExplain>,
    /// All recorded conversion warnings.
    pub warnings: Vec<ConversionWarning>,
    /// Warnings with runtime cost attributed.
    pub fallbacks: Vec<FallbackCost>,
    /// Per-line cost aggregation, ascending by line.
    pub lines: Vec<LineCost>,
    /// Node-to-span attribution coverage of the executed plan.
    pub coverage: Coverage,
}

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

/// Load `source` (FallbackToEager policy), stage `opts.func` over the
/// feed names, optimize with tracing, run `opts.runs` times with
/// reporting on, and fold node costs back onto source lines.
///
/// # Errors
///
/// Returns a rendered error for parse/load failures, staging errors not
/// explained by a recorded fallback, and graph-execution failures.
pub fn explain_source(
    source: &str,
    feeds: &[(String, Tensor)],
    opts: &ExplainOptions,
) -> Result<Explain, String> {
    let cfg = ConversionConfig {
        policy: ConversionPolicy::FallbackToEager,
        ..ConversionConfig::default()
    };
    let mut rt = Runtime::load_with(source, &cfg).map_err(|e| format!("load: {e}"))?;
    let warnings: Vec<ConversionWarning> = rt.warnings().to_vec();
    let target_fell_back = warnings.iter().any(|w| w.function == opts.func);

    let mut fallbacks: Vec<FallbackCost> = warnings
        .iter()
        .map(|w| FallbackCost {
            warning: w.clone(),
            eager_ns: 0,
            calls: 0,
        })
        .collect();

    if target_fell_back {
        // The function cannot stage; attribute its eager dispatch cost.
        let runs = opts.runs.max(1) as u64;
        let start = Instant::now();
        for _ in 0..runs {
            let args: Vec<Value> = feeds
                .iter()
                .map(|(_, t)| Value::tensor(t.clone()))
                .collect();
            rt.call(&opts.func, args)
                .map_err(|e| format!("eager fallback call: {e}"))?;
        }
        let eager_ns = start.elapsed().as_nanos() as u64;
        for fb in &mut fallbacks {
            if fb.warning.function == opts.func {
                fb.eager_ns = eager_ns;
                fb.calls = runs;
            }
        }
        return Ok(Explain {
            source: source.to_string(),
            func: opts.func.clone(),
            staged: None,
            warnings,
            fallbacks,
            lines: Vec::new(),
            coverage: Coverage::default(),
        });
    }

    let staged = rt
        .stage_to_graph(
            &opts.func,
            feeds
                .iter()
                .map(|(n, _)| GraphArg::Placeholder(n.clone()))
                .collect(),
        )
        .map_err(|e| format!("stage: {e}"))?;
    let (graph, outputs, _stats, trace) = optimize_traced(&staged.graph, &staged.outputs);
    autograph_graph::shapes::validate(&graph).map_err(|e| format!("shapes: {e}"))?;

    let mut sess = Session::new(graph.clone());
    sess.set_threads(opts.threads.max(1));
    sess.set_reporting(true);
    let feed_refs: Vec<(&str, Tensor)> =
        feeds.iter().map(|(n, t)| (n.as_str(), t.clone())).collect();
    for _ in 0..opts.runs.max(1) {
        sess.run(&feed_refs, &outputs)
            .map_err(|e| format!("run: {e}"))?;
    }
    let report = sess
        .last_report()
        .cloned()
        .ok_or_else(|| "reporting enabled but no report collected".to_string())?;

    // ---- fold node costs onto source lines --------------------------------
    let mut per_line: BTreeMap<u32, LineCost> = BTreeMap::new();
    let mut coverage = Coverage::default();
    for c in &report.node_costs {
        coverage.total_nodes += 1;
        coverage.total_self_ns += c.self_ns;
        if c.span.is_synthetic() {
            continue;
        }
        coverage.attributed_nodes += 1;
        coverage.attributed_self_ns += c.self_ns;
        let entry = per_line.entry(c.span.line).or_insert(LineCost {
            line: c.span.line,
            self_ns: 0,
            alloc_bytes: 0,
            evals: 0,
            nodes: 0,
        });
        entry.self_ns += c.self_ns;
        entry.alloc_bytes += c.alloc_bytes;
        entry.evals += c.evals;
        entry.nodes += 1;
    }

    Ok(Explain {
        source: source.to_string(),
        func: opts.func.clone(),
        staged: Some(StagedExplain {
            graph,
            outputs,
            trace,
            report,
        }),
        warnings,
        fallbacks,
        lines: per_line.into_values().collect(),
        coverage,
    })
}

impl Explain {
    /// The annotated-source rendering: each line with its cumulative
    /// time, allocation and eval count; fallback warnings appear under
    /// the line that caused them.
    pub fn annotated_source(&self) -> String {
        let mut by_line: BTreeMap<u32, &LineCost> = BTreeMap::new();
        for lc in &self.lines {
            by_line.insert(lc.line, lc);
        }
        let mut out = String::new();
        out.push_str(&format!(
            "annotated source for '{}' (time | alloc | evals):\n",
            self.func
        ));
        for (i, text) in self.source.lines().enumerate() {
            let line = i as u32 + 1;
            match by_line.get(&line) {
                Some(lc) => out.push_str(&format!(
                    "{:>4} | {:<48} {:>10} {:>10} {:>6}\n",
                    line,
                    text.trim_end(),
                    ms(lc.self_ns),
                    kb(lc.alloc_bytes),
                    lc.evals,
                )),
                None => out.push_str(&format!("{line:>4} | {}\n", text.trim_end())),
            }
            for w in &self.warnings {
                if w.span.line == line {
                    out.push_str(&format!(
                        "     ! falls back to eager: {} (col {})\n",
                        w.reason, w.span.col
                    ));
                }
            }
        }
        out.push_str(&format!(
            "attribution: {:.1}% of node self-time ({}/{} executed nodes) mapped to source lines\n",
            self.coverage.time_fraction() * 100.0,
            self.coverage.attributed_nodes,
            self.coverage.total_nodes,
        ));
        out
    }

    /// The plan dump as text: every optimized node with its span and
    /// rewrite lineage, then what the optimizer removed.
    pub fn plan_text(&self) -> String {
        let mut out = String::new();
        let Some(staged) = &self.staged else {
            out.push_str(&format!(
                "no plan: '{}' fell back to eager execution\n",
                self.func
            ));
            return out;
        };
        out.push_str(&format!(
            "optimized plan for '{}' ({} nodes, outputs {:?}):\n",
            self.func,
            staged.graph.nodes.len(),
            staged.outputs
        ));
        for (i, n) in staged.graph.nodes.iter().enumerate() {
            out.push_str(&format!(
                "  {:>4} {:<28} {:<12} @ {:<8} <- {:?}",
                i,
                n.name,
                n.op.mnemonic(),
                n.span.to_string(),
                n.inputs
            ));
            let lineage = n.lineage();
            if !lineage.is_empty() {
                out.push_str(&format!("  [{lineage}]"));
            }
            out.push('\n');
        }
        if !staged.trace.eliminated.is_empty() {
            out.push_str("removed by optimizer:\n");
            for e in &staged.trace.eliminated {
                match &e.merged_into {
                    Some(into) => out.push_str(&format!(
                        "  {:<6} {:<28} {:<12} @ {:<8} merged into {}\n",
                        e.pass,
                        e.name,
                        e.op,
                        e.span.to_string(),
                        into
                    )),
                    None => out.push_str(&format!(
                        "  {:<6} {:<28} {:<12} @ {}\n",
                        e.pass, e.name, e.op, e.span
                    )),
                }
            }
        }
        out
    }

    /// The plan as Graphviz DOT (node labels carry span + lineage).
    pub fn plan_dot(&self) -> String {
        match &self.staged {
            Some(staged) => staged.graph.to_dot(),
            None => String::from("digraph g {\n}\n"),
        }
    }

    /// The fallback/graph-break report: every conversion warning with
    /// its exact source construct and attributed runtime cost.
    pub fn fallback_report(&self) -> String {
        if self.warnings.is_empty() {
            return "no fallbacks: every function converted\n".to_string();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{} fallback(s) to eager execution:\n",
            self.warnings.len()
        ));
        for fb in &self.fallbacks {
            let w = &fb.warning;
            out.push_str(&format!(
                "  function '{}' at {}: {}\n",
                w.function, w.span, w.reason
            ));
            if let Some(line) = &w.source_line {
                out.push_str(&format!("      {} | {}\n", w.span.line, line));
            }
            if fb.calls > 0 {
                out.push_str(&format!(
                    "      runtime cost: {} over {} eager call(s)\n",
                    ms(fb.eager_ns),
                    fb.calls
                ));
            } else {
                out.push_str("      runtime cost: not invoked by this run\n");
            }
        }
        out
    }

    /// One-paragraph summary: wall time, coverage, fallback count.
    pub fn summary(&self) -> String {
        match &self.staged {
            Some(staged) => format!(
                "explained '{}': wall {} · {} executed nodes · attribution {:.1}% by time ({:.1}% by node) · {} fallback(s)\n",
                self.func,
                ms(staged.report.wall_ns),
                self.coverage.total_nodes,
                self.coverage.time_fraction() * 100.0,
                self.coverage.node_fraction() * 100.0,
                self.warnings.len(),
            ),
            None => format!(
                "explained '{}': fell back to eager execution · {} fallback(s)\n",
                self.func,
                self.warnings.len(),
            ),
        }
    }
}

/// Parse a feed spec (`scalar:2.5`, `int:7`, `vec:1,2,3`,
/// `mat:2x2:1,2,3,4`) into a tensor.
///
/// # Errors
///
/// Returns a usage message for malformed specs.
pub fn parse_feed_spec(spec: &str) -> Result<Tensor, String> {
    let err = |m: &str| format!("bad feed spec '{spec}': {m}");
    let (kind, rest) = spec
        .split_once(':')
        .ok_or_else(|| err("expected kind:data"))?;
    match kind {
        "scalar" => {
            let v: f32 = rest.parse().map_err(|_| err("not a float"))?;
            Ok(Tensor::scalar_f32(v))
        }
        "int" => {
            let v: i64 = rest.parse().map_err(|_| err("not an int"))?;
            Ok(Tensor::scalar_i64(v))
        }
        "vec" => {
            let vals: Vec<f32> = rest
                .split(',')
                .map(|s| s.trim().parse().map_err(|_| err("not a float list")))
                .collect::<Result<_, _>>()?;
            let n = vals.len();
            Tensor::from_vec(vals, &[n]).map_err(|e| err(&e.to_string()))
        }
        "mat" => {
            let (dims, data) = rest.split_once(':').ok_or_else(|| err("mat:RxC:data"))?;
            let (r, c) = dims.split_once('x').ok_or_else(|| err("RxC"))?;
            let r: usize = r.parse().map_err(|_| err("bad rows"))?;
            let c: usize = c.parse().map_err(|_| err("bad cols"))?;
            let vals: Vec<f32> = data
                .split(',')
                .map(|s| s.trim().parse().map_err(|_| err("not a float list")))
                .collect::<Result<_, _>>()?;
            if vals.len() != r * c {
                return Err(err("data length != rows*cols"));
            }
            Tensor::from_vec(vals, &[r, c]).map_err(|e| err(&e.to_string()))
        }
        _ => Err(err("unknown kind (scalar|int|vec|mat)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "\
def f(x):
    total = tf.constant(0.0)
    i = 0
    while i < 8:
        total = total + tf.reduce_mean(x * x)
        x = x * 0.9
        i = i + 1
    return total
";

    fn feeds() -> Vec<(String, Tensor)> {
        vec![(
            "x".to_string(),
            Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap(),
        )]
    }

    #[test]
    fn explains_staged_program_with_full_attribution() {
        let opts = ExplainOptions {
            runs: 1,
            ..Default::default()
        };
        let ex = explain_source(SRC, &feeds(), &opts).unwrap();
        assert!(ex.staged.is_some());
        assert!(ex.coverage.total_nodes > 0);
        assert_eq!(
            ex.coverage.attributed_nodes, ex.coverage.total_nodes,
            "all executed top-level nodes resolve to source lines"
        );
        assert!(ex.coverage.time_fraction() >= 0.95);
        let ann = ex.annotated_source();
        assert!(ann.contains("while i < 8"), "{ann}");
        assert!(ann.contains("attribution:"), "{ann}");
        assert!(!ann.contains("CP"), "no critical-path column: {ann}");
        let dot = ex.plan_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains('@'), "spans in dot labels: {dot}");
        assert!(ex.summary().contains("attribution"));
    }

    #[test]
    fn fallback_report_lists_warning_with_span_and_cost() {
        // append buried in a tuple is unstageable (lists pass) but runs
        // fine eagerly, so FallbackToEager degrades with a warning.
        let src = "\
def f(x):
    l = []
    y = (l.append(x), 0)
    return x * 2.0
";
        let opts = ExplainOptions {
            runs: 1,
            ..Default::default()
        };
        let ex = explain_source(src, &[("x".to_string(), Tensor::scalar_f32(1.0))], &opts)
            .expect("eager fallback still explains");
        assert!(ex.staged.is_none());
        assert_eq!(ex.warnings.len(), 1);
        let report = ex.fallback_report();
        assert!(
            report.contains("falls back") || report.contains("fallback"),
            "{report}"
        );
        assert!(report.contains("3:"), "span rendered: {report}");
        assert!(report.contains("l.append"), "construct quoted: {report}");
        assert!(report.contains("eager call"), "cost attributed: {report}");
        let ann = ex.annotated_source();
        assert!(ann.contains("! falls back to eager"), "{ann}");
    }

    #[test]
    fn feed_specs_parse() {
        assert_eq!(
            parse_feed_spec("scalar:2.5").unwrap().scalar_value_f32(),
            Ok(2.5)
        );
        assert_eq!(parse_feed_spec("vec:1,2,3").unwrap().shape(), &[3]);
        assert_eq!(parse_feed_spec("mat:2x2:1,2,3,4").unwrap().shape(), &[2, 2]);
        assert!(parse_feed_spec("mat:2x2:1,2,3").is_err());
        assert!(parse_feed_spec("nope:1").is_err());
    }
}
