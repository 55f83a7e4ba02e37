//! # autograph-bench
//!
//! The benchmark harness that regenerates every table in the paper's
//! evaluation. Each `src/bin/*` binary prints one table in the paper's
//! format (means ± standard deviations over repeated runs). These are
//! paper-table printers, not a regression gate: the repository benchmark
//! (`BENCHMARK.json`, package `benchmark/`) is what a change is weighed by.
//!
//! Absolute numbers will not match the paper's testbeds (see DESIGN.md);
//! the *shape* — which configuration wins and by roughly what factor —
//! is the reproduction target, recorded in EXPERIMENTS.md.

use std::time::Instant;

/// Mean/standard deviation of a set of timed runs.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Mean seconds per run.
    pub mean: f64,
    /// Standard deviation of seconds per run.
    pub std: f64,
}

impl Stats {
    /// Convert to a rate (`units_per_run / seconds`), with the std
    /// propagated to first order.
    pub fn rate(&self, units_per_run: f64) -> Stats {
        let mean = units_per_run / self.mean;
        let std = if self.mean > 0.0 {
            mean * (self.std / self.mean)
        } else {
            0.0
        };
        Stats { mean, std }
    }

    /// `mean ± std` with a scale factor (e.g. 1e-3 for thousands).
    pub fn display(&self, scale: f64, decimals: usize) -> String {
        format!(
            "{:.prec$} ± {:.prec$}",
            self.mean * scale,
            self.std * scale,
            prec = decimals
        )
    }
}

/// Time `runs` invocations of `f` after `warmup` untimed ones.
///
/// # Panics
///
/// Panics when `runs == 0`.
pub fn measure(warmup: usize, runs: usize, mut f: impl FnMut()) -> Stats {
    assert!(runs > 0, "need at least one measured run");
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    // shared machines produce heavy-tailed samples; trim the extremes
    // (interquartile mean) so one preempted run cannot dominate
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let trim = samples.len() / 4;
    let core = &samples[trim..samples.len() - trim];
    let mean = core.iter().sum::<f64>() / core.len() as f64;
    let var = core.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / core.len() as f64;
    Stats {
        mean,
        std: var.sqrt(),
    }
}

/// Print a fixed-width table row.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<34}");
    for c in cells {
        print!("{c:>22}");
    }
    println!();
}

/// Print a rule line sized for `n` cells.
pub fn rule(n: usize) {
    println!("{}", "-".repeat(34 + 22 * n));
}

/// Parse `--full` / `--runs N` / `--profile PATH` / `--threads N` style
/// flags from `std::env::args`.
pub struct HarnessArgs {
    /// Use paper-scale workloads (slow) instead of laptop-scale defaults.
    pub full: bool,
    /// Measured runs per configuration.
    pub runs: usize,
    /// Write a Chrome trace (`chrome://tracing` JSON) to this path and
    /// print a per-op summary table at exit.
    pub profile: Option<String>,
    /// Executor thread count (`--threads N`); `None` leaves the session
    /// default resolution (`AUTOGRAPH_THREADS`, then machine
    /// parallelism) in effect.
    pub threads: Option<usize>,
    /// Remaining positional arguments.
    pub rest: Vec<String>,
}

impl HarnessArgs {
    /// Parse from the process arguments.
    pub fn parse() -> HarnessArgs {
        let mut full = false;
        let mut runs = 5;
        let mut profile = None;
        let mut threads = None;
        let mut rest = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => full = true,
                "--runs" => {
                    runs = args.next().and_then(|v| v.parse().ok()).unwrap_or(runs);
                }
                "--profile" => profile = args.next(),
                "--threads" => threads = args.next().and_then(|v| v.parse().ok()),
                other => rest.push(other.to_string()),
            }
        }
        HarnessArgs {
            full,
            runs,
            profile,
            threads,
            rest,
        }
    }

    /// Apply `--threads` to the process: raise the worker-pool budget and
    /// set the session default so every `Session::run` in the benchmark
    /// uses it. A no-op without the flag (sessions then fall back to
    /// `AUTOGRAPH_THREADS` / machine parallelism).
    pub fn apply_threads(&self) {
        if let Some(n) = self.threads {
            autograph_par::configure(n);
            autograph_graph::session::set_default_threads(n);
        }
    }

    /// Start profiling if `--profile` was given. Call
    /// [`Profiler::finish`] after the workload to write the trace and
    /// print the summary. Inert (and free) without the flag.
    pub fn profiler(&self) -> Profiler {
        Profiler::start(self.profile.clone())
    }
}

/// Bench-side exporter: installs a fan-out of a Chrome-trace buffer and
/// an aggregating recorder, then writes the trace file and prints the
/// per-op summary table (sorted by total self-time) on [`Profiler::finish`].
pub struct Profiler {
    sinks: Option<(
        std::sync::Arc<autograph_obs::TraceRecorder>,
        std::sync::Arc<autograph_obs::AggregateRecorder>,
        String,
    )>,
}

impl Profiler {
    /// Install recorders when `path` is given; otherwise a no-op guard.
    pub fn start(path: Option<String>) -> Profiler {
        use std::sync::Arc;
        let sinks = path.map(|path| {
            let trace = Arc::new(autograph_obs::TraceRecorder::new());
            let agg = Arc::new(autograph_obs::AggregateRecorder::new());
            autograph_obs::install(Arc::new(autograph_obs::FanoutRecorder::new(vec![
                trace.clone() as Arc<dyn autograph_obs::Recorder>,
                agg.clone() as Arc<dyn autograph_obs::Recorder>,
            ])));
            (trace, agg, path)
        });
        Profiler { sinks }
    }

    /// Write the Chrome trace and print the summary table.
    pub fn finish(self) {
        if let Some((trace, agg, path)) = self.sinks {
            autograph_obs::uninstall();
            match trace.write_to(&path) {
                Ok(()) => eprintln!("\nwrote Chrome trace to {path} (open in chrome://tracing)"),
                Err(e) => eprintln!("\nfailed to write Chrome trace to {path}: {e}"),
            }
            println!("\n{}", agg.summary().render_table());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_runs() {
        let mut n = 0;
        let s = measure(2, 3, || n += 1);
        assert_eq!(n, 5);
        assert!(s.mean >= 0.0 && s.std >= 0.0);
    }

    #[test]
    fn rate_inverts_mean() {
        let s = Stats {
            mean: 0.5,
            std: 0.05,
        };
        let r = s.rate(100.0);
        assert!((r.mean - 200.0).abs() < 1e-9);
        assert!((r.std - 20.0).abs() < 1e-9);
    }

    #[test]
    fn display_scales() {
        let s = Stats {
            mean: 1234.5,
            std: 67.8,
        };
        assert_eq!(s.display(1e-3, 2), "1.23 ± 0.07");
    }
}
