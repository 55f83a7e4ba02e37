//! Metric tables and the output formats: human lines, the driver's
//! last-line JSON object, and the result file under `benchmark/out/`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric declaration: `(name, unit)`.
pub type Decl = (&'static str, &'static str);

/// End-to-end metrics, printed by the untraced run (`--trace 0`). Must
/// match `end_to_end` in `BENCHMARK.json` (checked by `ci.sh`).
pub const END_TO_END: &[Decl] = &[
    ("setup_s", "s"),
    ("run_p50_us", "us"),
    ("run_p99_us", "us"),
    ("throughput_per_s", "1/s"),
    ("stage_cold_ms", "ms"),
    ("allocs_per_op", "count"),
    ("peak_tensor_bytes", "bytes"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`). Must match
/// `per_layer` in `BENCHMARK.json`. A layer the workload bypasses
/// reports 0.
pub const PER_LAYER: &[Decl] = &[
    ("pylang.tokenize_us", "us"),
    ("pylang.parse_us", "us"),
    ("pylang.tokens", "count"),
    ("pylang.source_bytes", "bytes"),
    ("analysis.cfg_dataflow_us", "us"),
    ("analysis.cfg_nodes", "count"),
    ("transforms.convert_us", "us"),
    ("transforms.converted_bytes", "bytes"),
    ("runtime.load_self_us", "us"),
    ("runtime.stage_us", "us"),
    ("runtime.staged_nodes", "count"),
    ("runtime.call_self_us", "us"),
    ("graph.optimize_us", "us"),
    ("graph.validate_us", "us"),
    ("graph.compile_us", "us"),
    ("graph.nodes_after_opt", "count"),
    ("graph.encode_us", "us"),
    ("graph.decode_us", "us"),
    ("graph.install_us", "us"),
    ("planstore.save_us", "us"),
    ("planstore.load_us", "us"),
    ("planstore.hit_share", "ratio"),
    ("stage_warm_ms", "ms"),
    ("artifact_bytes", "bytes"),
    ("bench.stage_residual_pct", "%"),
    ("graph.first_run_us", "us"),
    ("graph.run_us", "us"),
    ("graph.dispatch_ns_per_node", "ns"),
    ("tensor.kernel_floor_us", "us"),
    ("graph.overhead_us", "us"),
    ("tensor.kernel_share", "ratio"),
    ("tensor.matmul_us", "us"),
    ("tensor.matmul_gflops", "gflop/s"),
    ("tensor.tanh_ns_per_elem", "ns"),
    ("tensor.add_ns_per_elem", "ns"),
    ("tensor.alloc_bytes_per_op", "bytes"),
    ("eager.call_us", "us"),
    ("eager.graph_speedup", "ratio"),
    ("par.t2_over_t1", "ratio"),
    ("serve.registry_load_us", "us"),
    ("serve.boot_us", "us"),
    ("serve.healthz_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.json_encode_us", "us"),
    ("serve.session_run_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.metrics_scrape_us", "us"),
    ("serve.http_2xx", "count"),
    ("serve.http_4xx", "count"),
    ("serve.http_5xx", "count"),
    ("serve.shed_503", "count"),
    ("serve.deadline_504", "count"),
    ("serve.transport_errors", "count"),
    ("lantern.stage_us", "us"),
    ("lantern.engine_new_us", "us"),
    ("lantern.forward_us", "us"),
    ("lantern.grad_us", "us"),
    ("lantern.sgd_us", "us"),
    ("eager.treelstm_step_us", "us"),
    ("bench.raw_run_p50_us", "us"),
    ("bench.cal_us", "us"),
    ("bench.cal_spread_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("failed_share", "ratio"),
];

/// Operations attempted and failed, over warm-up, timed and counted
/// passes. A failure is an error, an output mismatch, a non-2xx status
/// or a transport failure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one attempted operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The values measured by one run, keyed by declared metric name, each
/// with the number of samples behind it.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Metrics {
    /// Set `name` from `samples` samples.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name or a non-finite value — both harness
    /// bugs that must not reach a result file.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric '{name}' is not declared"
        );
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        self.values.insert(name, (value, samples));
    }

    /// The value of `name`; 0 with 0 samples when it was never set.
    pub fn get(&self, name: &str) -> (f64, usize) {
        self.values.get(name).copied().unwrap_or((0.0, 0))
    }
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Operation counts.
    pub tally: Tally,
    /// Measured metrics.
    pub metrics: Metrics,
    /// The CPU the run was pinned to, if it was.
    pub pinned_cpu: Option<usize>,
    /// Whether the allocator was told to keep freed memory mapped.
    pub keeps_freed_memory: bool,
    /// Per block of the timed run: `[raw p50, calibration before,
    /// calibration after]`, microseconds.
    pub block_audit: Vec<[f64; 3]>,
}

/// Environment facts recorded beside the numbers.
pub struct RunInfo {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub trace: bool,
}

fn declared(trace: bool) -> &'static [Decl] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The human-readable lines: `workload metric value unit (n samples)`.
pub fn human_lines(o: &Outcome, trace: bool) -> String {
    let mut out = String::new();
    for (name, unit) in declared(trace) {
        let (v, n) = o.metrics.get(name);
        let _ = writeln!(out, "{} {name} {v} {unit} (n={n})", o.workload);
    }
    let _ = writeln!(
        out,
        "{} attempted {} failed {}",
        o.workload, o.tally.attempted, o.tally.failed
    );
    out
}

fn metrics_json(o: &Outcome, trace: bool, with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in declared(trace).iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let (v, n) = o.metrics.get(name);
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"");
        if with_samples {
            let _ = write!(out, ", \"samples\": {n}");
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// The one-line JSON object the driver reads from the last line of
/// standard output: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn driver_line(o: &Outcome, trace: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.tally.failed == 0,
        o.tally.attempted,
        o.tally.failed,
        metrics_json(o, trace, false)
    )
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The result file: the driver line's content plus what is needed to
/// read it later — seed, machine, toolchain, calibration constant and
/// per-metric sample counts.
pub fn result_file(o: &Outcome, info: &RunInfo) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned_cpu = o.pinned_cpu.map_or("null".to_string(), |c| c.to_string());
    let blocks: Vec<String> = o
        .block_audit
        .iter()
        .map(|[raw, before, after]| format!("[{raw}, {before}, {after}]"))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"pinned_cpu\": {pinned_cpu}, \"keeps_freed_memory\": {}, \"autograph_threads\": 1, \"git_commit\": \"{}\", \
         \"rustc\": \"{}\", \"cal_ref_ns\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {}, \"run_blocks_raw_p50_cal_before_cal_after_us\": [{}]}}\n",
        o.workload,
        info.seed,
        info.seconds,
        info.trace,
        o.keeps_freed_memory,
        command_output("git", &["rev-parse", "HEAD"]),
        command_output("rustc", &["--version"]),
        crate::stats::CAL_REF_NS,
        o.tally.failed == 0,
        o.tally.attempted,
        o.tally.failed,
        metrics_json(o, info.trace, true),
        blocks.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut metrics = Metrics::default();
        metrics.set("setup_s", 0.0625, 5);
        metrics.set("run_p50_us", 431.25, 20);
        metrics.set("graph.run_us", 12.5, 3);
        let mut tally = Tally::default();
        tally.record(true);
        tally.record(true);
        Outcome {
            workload: "rnn_small",
            tally,
            metrics,
            pinned_cpu: Some(1),
            keeps_freed_memory: true,
            block_audit: vec![[431.5, 436.0, 437.25]],
        }
    }

    #[test]
    fn driver_line_round_trips_with_exactly_the_contract_keys() {
        let o = outcome();
        for (trace, decls) in [(false, END_TO_END), (true, PER_LAYER)] {
            let doc = serde_json::from_str(&driver_line(&o, trace)).expect("valid JSON");
            let keys: Vec<&str> = doc
                .as_object()
                .expect("object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(doc["correct"].as_bool(), Some(true));
            assert_eq!(doc["attempted"].as_u64(), Some(2));
            let metrics = doc["metrics"].as_object().expect("metrics object");
            assert_eq!(metrics.len(), decls.len());
            for (name, unit) in decls {
                assert_eq!(metrics[*name]["unit"].as_str(), Some(*unit), "{name}");
                assert!(metrics[*name]["value"].as_f64().is_some(), "{name}");
            }
        }
        let doc = serde_json::from_str(&driver_line(&o, false)).expect("valid JSON");
        assert_eq!(doc["metrics"]["run_p50_us"]["value"].as_f64(), Some(431.25));
        let doc = serde_json::from_str(&driver_line(&o, true)).expect("valid JSON");
        assert_eq!(doc["metrics"]["graph.run_us"]["value"].as_f64(), Some(12.5));
        assert_eq!(doc["metrics"]["serve.boot_us"]["value"].as_f64(), Some(0.0));
    }

    #[test]
    fn result_file_round_trips_with_sample_counts() {
        let info = RunInfo {
            seed: 9,
            seconds: 1.5,
            trace: false,
        };
        let doc = serde_json::from_str(&result_file(&outcome(), &info)).expect("valid JSON");
        assert_eq!(doc["seed"].as_u64(), Some(9));
        assert_eq!(doc["workload"].as_str(), Some("rnn_small"));
        assert_eq!(doc["metrics"]["setup_s"]["samples"].as_u64(), Some(5));
        assert_eq!(doc["cal_ref_ns"].as_f64(), Some(crate::stats::CAL_REF_NS));
        assert!(doc["rustc"].as_str().is_some() && doc["nproc"].as_u64().is_some());
        assert_eq!(doc["pinned_cpu"].as_u64(), Some(1));
        assert_eq!(doc["keeps_freed_memory"].as_bool(), Some(true));
        let block = &doc["run_blocks_raw_p50_cal_before_cal_after_us"][0];
        assert_eq!(block[2].as_f64(), Some(437.25));
    }

    #[test]
    fn failures_flip_correct() {
        let mut o = outcome();
        o.tally.record(false);
        let doc = serde_json::from_str(&driver_line(&o, false)).expect("valid JSON");
        assert_eq!(doc["correct"].as_bool(), Some(false));
        assert_eq!(doc["failed"].as_u64(), Some(1));
    }

    #[test]
    fn metric_names_are_unique_and_within_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
