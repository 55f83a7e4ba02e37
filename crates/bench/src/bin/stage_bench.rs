//! Cold-vs-warm staging benchmark for the persistent plan cache.
//!
//! Measures the full cold pipeline (lex → parse → convert → stage →
//! optimize → shape-check → compile) against a warm start that
//! deserializes the same program's optimized graph + VM bytecode from
//! an on-disk [`PlanStore`] artifact. Three properties are enforced, not
//! just reported:
//!
//! 1. the warm path must never enter the staging pipeline — an
//!    [`AggregateRecorder`] is installed around the warm runs and any
//!    `staging/*` span row is a hard failure (exit 1);
//! 2. the warm function must reproduce the cold function's results
//!    bitwise (exit 1 otherwise);
//! 3. the warm best-of-N must be at least [`MIN_SPEEDUP`]× faster than
//!    the cold best-of-N (exit 1 otherwise).
//!
//! All three compare two sides of one run, so `scripts/ci.sh` gates on
//! the exit code alone; absolute cold/warm staging times are the
//! repository benchmark's `stage_chain` workload.
//!
//! Usage: `stage_bench [--runs N] [--cache-dir DIR] [--lines N]`

use autograph_obs as obs;
use autograph_planstore::PlanStore;
use autograph_runtime::plan_cache::compile_cached_with;
use autograph_tensor::Tensor;
use std::time::Instant;

/// The CI floor: warm restaging must beat cold staging by at least
/// this factor on the benchmark program. Measured 3.6–4.1× (cold
/// 1.1–1.9 ms, warm 0.25–0.47 ms), so 2 leaves room for a noisy box
/// without letting warm degrade to a re-stage.
const MIN_SPEEDUP: f64 = 2.0;

/// A staging-heavy PyLite program: a long straight-line chain of
/// elementwise ops (converter + optimizer + compiler all scale with
/// it) feeding a `while` loop, so the artifact carries subgraphs too.
fn build_src(lines: usize) -> String {
    let mut src = String::from("def f(x):\n    acc = x * 1.0001\n");
    for i in 0..lines {
        let c = 1.0 + (i % 7) as f64 * 1e-4;
        match i % 3 {
            0 => src.push_str(&format!("    acc = tf.tanh(acc * {c:.4}) + 0.125\n")),
            1 => src.push_str(&format!("    acc = acc + tf.sigmoid(acc) * {c:.4}\n")),
            _ => src.push_str(&format!("    acc = acc * {c:.4} - 0.0625\n")),
        }
    }
    src.push_str(
        "    i = tf.constant(0.0)\n    while i < 8.0:\n        acc = acc * 0.999 + 0.001\n        i = i + 1.0\n    return tf.reduce_sum(acc)\n",
    );
    src
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let runs: usize = flag(&args, "--runs")
        .map(|v| v.parse().expect("--runs must be a number"))
        .unwrap_or(5);
    let lines: usize = flag(&args, "--lines")
        .map(|v| v.parse().expect("--lines must be a number"))
        .unwrap_or(120);
    let cache_dir = flag(&args, "--cache-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("agplan-bench-{}", std::process::id()))
        });

    let src = build_src(lines);
    let tag = autograph_planstore::VERSION_TAG;
    let probe = Tensor::from_vec(vec![0.5f32, -1.25, 2.0, 0.0], &[4]).expect("probe tensor");

    // fresh store; one untimed cold pass populates the artifact
    let _ = std::fs::remove_dir_all(&cache_dir);
    let store = PlanStore::open(&cache_dir).expect("open plan cache dir");
    let seeded = compile_cached_with(&src, "f", &["x"], Some(&store), tag).expect("seed staging");
    assert!(!seeded.from_cache, "fresh store reported a cache hit");

    // cold best-of-N: the full pipeline, no store in the loop
    let mut cold_best = f64::INFINITY;
    let mut cold_func = None;
    for _ in 0..runs {
        let t = Instant::now();
        let art = compile_cached_with(&src, "f", &["x"], None, tag).expect("cold staging");
        cold_best = cold_best.min(t.elapsed().as_secs_f64());
        cold_func = Some(art.func);
    }

    // warm best-of-N under an aggregate recorder: any `staging/*` span
    // firing here means the cache failed to skip the pipeline
    let recorder = std::sync::Arc::new(obs::AggregateRecorder::new());
    obs::install(recorder.clone());
    let mut warm_best = f64::INFINITY;
    let mut warm_func = None;
    for _ in 0..runs {
        let t = Instant::now();
        let art =
            compile_cached_with(&src, "f", &["x"], Some(&store), tag).expect("warm restaging");
        warm_best = warm_best.min(t.elapsed().as_secs_f64());
        assert!(art.from_cache, "populated store missed");
        warm_func = Some(art.func);
    }
    obs::uninstall();
    let summary = recorder.summary();
    let staging_rows: Vec<&str> = summary
        .rows
        .iter()
        .map(|r| r.key.as_str())
        .filter(|k| k.starts_with("staging/"))
        .collect();
    let warm_skips_staging = staging_rows.is_empty();

    // the warm function must not just be fast — it must be the same
    // function, bitwise
    let (mut cf, mut wf) = (
        cold_func.expect("cold runs executed"),
        warm_func.expect("warm runs executed"),
    );
    let a = cf.call(std::slice::from_ref(&probe)).expect("cold call");
    let b = wf.call(std::slice::from_ref(&probe)).expect("warm call");
    let bitwise_identical = a.len() == b.len()
        && a.iter().zip(&b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.as_f32()
                    .ok()
                    .zip(y.as_f32().ok())
                    .is_some_and(|(xa, ya)| {
                        xa.iter().zip(ya).all(|(p, q)| p.to_bits() == q.to_bits())
                    })
        });

    let speedup = cold_best / warm_best;
    println!("Stage bench: cold staging vs warm plan-cache restore");
    println!(
        "source lines: {}   best of {runs} runs",
        src.lines().count()
    );
    println!("cold:  {:>9.3} ms", cold_best * 1e3);
    println!("warm:  {:>9.3} ms", warm_best * 1e3);
    println!("speedup: {speedup:.1}x   (floor {MIN_SPEEDUP}x)");
    println!("warm skipped staging pipeline: {warm_skips_staging}");
    println!("cold/warm results bitwise identical: {bitwise_identical}");

    let _ = std::fs::remove_dir_all(&cache_dir);

    if !warm_skips_staging {
        eprintln!("FAIL: warm start entered the staging pipeline: {staging_rows:?}");
        std::process::exit(1);
    }
    if !bitwise_identical {
        eprintln!("FAIL: warm results diverged from cold results");
        std::process::exit(1);
    }
    if speedup < MIN_SPEEDUP {
        eprintln!("FAIL: warm speedup {speedup:.1}x is below the {MIN_SPEEDUP}x floor");
        std::process::exit(1);
    }
}
