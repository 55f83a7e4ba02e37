//! The repository benchmark: six paper-shaped workloads, end-to-end
//! metrics with tracing off, per-layer metrics from a separate traced
//! run. See `README.md` in this directory.
//!
//! ```text
//! autograph-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload` it runs that workload in this process and ends with
//! the one-line JSON object the driver reads. Without it, it runs every
//! workload, each in a child process of its own (a workload leaves
//! process-wide state behind: the worker-pool budget, the tensor ledger,
//! the staging memo), and collects their result files into
//! `benchmark/out/results.json`.

mod check;
mod gen;
mod harness;
mod layers;
mod pin;
mod report;
mod stats;
mod timing;
mod trace;
mod workloads;

use harness::Ctx;
use report::{Outcome, RunInfo};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{graph_case, serve_mlp, stage_chain, treelstm_lantern};

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 6] = [
    "rnn_small",
    "rnn_wide",
    "train_loop",
    "stage_chain",
    "serve_mlp",
    "treelstm_lantern",
];

/// `run_seconds` of `BENCHMARK.json`, the default for `--seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<&'static str>,
    info: RunInfo,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        info: RunInfo {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                let known = WORKLOADS.iter().find(|w| **w == value);
                args.workload = Some(known.copied().ok_or_else(bad)?);
            }
            "--seed" => args.info.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.info.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                args.info.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(args)
}

/// `benchmark/out/`: under the package directory cargo reports at run
/// time, else the one it was built in.
fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest_dir).join("out")
}

fn result_path(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!("result-{workload}-trace{}.json", u8::from(trace)))
}

/// Run one workload in this process.
fn run_workload(workload: &'static str, info: &RunInfo, out: &Path) -> Result<Outcome, String> {
    // one thread everywhere, and nothing inherited from the caller's
    // environment that changes what is measured; set before first use
    std::env::set_var("AUTOGRAPH_THREADS", "1");
    for var in ["AUTOGRAPH_EXEC", "AUTOGRAPH_PLAN_CACHE", "PROFILE_NODES"] {
        std::env::remove_var(var);
    }
    let pinned = pin::pin_to_current_cpu();
    let keeps_freed_memory = pin::keep_freed_memory();
    let scratch = out.join(format!("tmp-{}-{workload}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut ctx = Ctx {
        seed: info.seed,
        seconds: info.seconds,
        trace: info.trace,
        cal: timing::Calibrator::new(),
        tracer: trace::Tracer::new(info.trace),
        tally: report::Tally::default(),
        metrics: report::Metrics::default(),
        scratch: scratch.clone(),
        pinned,
        block_audit: Vec::new(),
    };
    let ran = match workload {
        "rnn_small" => graph_case::run(&mut ctx, graph_case::rnn_small),
        "rnn_wide" => graph_case::run(&mut ctx, graph_case::rnn_wide),
        "train_loop" => graph_case::run(&mut ctx, graph_case::train_loop),
        "stage_chain" => stage_chain::run(&mut ctx),
        "serve_mlp" => serve_mlp::run(&mut ctx),
        "treelstm_lantern" => treelstm_lantern::run(&mut ctx),
        other => Err(format!("unknown workload '{other}'")),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    ran?;
    let failed_share = ctx.tally.failed as f64 / ctx.tally.attempted.max(1) as f64;
    ctx.metrics
        .set("failed_share", failed_share, ctx.tally.attempted as usize);
    if info.trace {
        let path = out.join(format!("trace-{workload}.json"));
        std::fs::write(&path, ctx.tracer.to_json(workload))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Outcome {
        workload,
        tally: ctx.tally,
        metrics: ctx.metrics,
        pinned_cpu: ctx.pinned.map(|p| p.cpu),
        keeps_freed_memory,
        block_audit: ctx.block_audit,
    })
}

/// Run every workload, each in its own child process, and collect the
/// result files.
fn run_all(info: &RunInfo, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &info.seed.to_string()])
            .args(["--seconds", &info.seconds.to_string()])
            .args(["--trace", if info.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{workload}: {e}"))?;
        all_ok &= status.success();
        let path = result_path(out, workload, info.trace);
        if let Ok(text) = std::fs::read_to_string(&path) {
            results.push(text.trim_end().to_string());
        }
    }
    let path = out.join("results.json");
    std::fs::write(
        &path,
        format!("{{\"runs\": [\n{}\n]}}\n", results.join(",\n")),
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("autograph-benchmark: {e}");
            eprintln!("usage: [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("autograph-benchmark: {}: {e}", out.display());
        return ExitCode::from(2);
    }
    let Some(workload) = args.workload else {
        return match run_all(&args.info, &out) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("autograph-benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    };
    match run_workload(workload, &args.info, &out) {
        Ok(outcome) => {
            print!("{}", report::human_lines(&outcome, args.info.trace));
            let path = result_path(&out, workload, args.info.trace);
            if let Err(e) = std::fs::write(&path, report::result_file(&outcome, &args.info)) {
                eprintln!("autograph-benchmark: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("{}", report::driver_line(&outcome, args.info.trace));
            if outcome.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("autograph-benchmark: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
