//! Run-report integration suite: memory-ledger invariants over the
//! differential corpus at threads 1 and 4, self-time-vs-wall accuracy on
//! a chunky single-threaded chain, partial reports from cancelled and
//! deadline-exceeded runs, and the injected-delay span category.
//!
//! One test function: the tensor memory ledger and the obs recorder
//! registry are process-global, and the default test harness runs
//! `#[test]` fns in parallel threads — splitting these checks up would
//! make every assertion race against a sibling's allocations.

use autograph::prelude::*;
use autograph_graph::RunReport;

#[path = "support/corpus.rs"]
mod corpus;
use corpus::{programs, v, Program};

#[test]
fn run_reports_end_to_end() {
    corpus_memory_invariants();
    live_bytes_return_to_baseline_after_drop();
    chunky_chain_self_time_tracks_wall();
    failed_runs_yield_partial_reports();
    injected_delays_get_their_own_span_category();
}

/// Stage `p` and run it once with reporting on; return the report.
fn reported_run(p: &Program, threads: usize) -> RunReport {
    let mut rt = Runtime::load(p.src, true).unwrap_or_else(|e| panic!("{}: load: {e}", p.name));
    let placeholder_args: Vec<GraphArg> = p
        .feeds
        .iter()
        .map(|(n, _)| GraphArg::Placeholder((*n).to_string()))
        .collect();
    let staged = rt
        .stage_to_graph("f", placeholder_args)
        .unwrap_or_else(|e| panic!("{}: stage: {e}", p.name));
    let mut sess = Session::new(staged.graph);
    sess.set_threads(threads);
    sess.set_reporting(true);
    sess.run(&p.feeds, &staged.outputs)
        .unwrap_or_else(|e| panic!("{}: run: {e}", p.name));
    sess.last_report()
        .unwrap_or_else(|| panic!("{}: reporting was enabled", p.name))
        .clone()
}

/// Ledger invariants that must hold for every corpus program on both
/// executor paths: the run's allocation delta balances against the live
/// delta, the peak bounds both live watermarks, tensor-producing
/// programs show a nonzero working set, and the JSON round-trips through
/// a parser.
fn corpus_memory_invariants() {
    for p in &programs() {
        for threads in [1usize, 4] {
            let r = reported_run(p, threads);
            let ctx = format!("{} (threads={threads})", p.name);
            assert!(r.succeeded, "{ctx}: report marked failed");
            assert_eq!(r.threads, threads, "{ctx}: threads");
            assert!(r.wall_ns > 0, "{ctx}: wall_ns");
            assert!(r.nodes_executed > 0, "{ctx}: nodes_executed");
            assert!(r.total_self_ns > 0, "{ctx}: total_self_ns");
            assert!(!r.node_costs.is_empty(), "{ctx}: node_costs");

            // allocated − freed == live_end − live_start, exactly: the
            // ledger counts a free only for storage it counted at
            // allocation, so toggling tracking mid-flight cannot skew
            // the balance (see autograph_tensor::mem docs)
            let alloc_delta = r.mem.allocated_bytes as i128 - r.mem.freed_bytes as i128;
            let live_delta = r.mem.live_bytes_end as i128 - r.mem.live_bytes_start as i128;
            assert_eq!(
                alloc_delta, live_delta,
                "{ctx}: ledger imbalance: allocated-freed={alloc_delta} live delta={live_delta}"
            );
            // every corpus program materializes at least one tensor
            assert!(r.mem.allocated_bytes > 0, "{ctx}: no allocations counted");
            assert!(r.mem.allocs > 0, "{ctx}: alloc count");
            // the peak is reset to the live level at run start and only
            // raised by allocations, so it bounds both ends of the run
            assert!(
                r.mem.peak_bytes >= r.mem.live_bytes_start
                    && r.mem.peak_bytes >= r.mem.live_bytes_end,
                "{ctx}: peak {} below live start {} / end {}",
                r.mem.peak_bytes,
                r.mem.live_bytes_start,
                r.mem.live_bytes_end
            );
            assert!(r.mem.peak_bytes > 0, "{ctx}: zero peak working set");

            let doc = serde_json::from_str(&r.to_json())
                .unwrap_or_else(|e| panic!("{ctx}: report JSON does not parse: {e}"));
            assert_eq!(
                doc.get("kind").and_then(|k| k.as_str()),
                Some("autograph_run_report"),
                "{ctx}: kind"
            );
            assert_eq!(
                doc.get("wall_ns").and_then(|w| w.as_u64()),
                Some(r.wall_ns),
                "{ctx}: wall_ns round-trip"
            );
            assert_eq!(
                doc.get("mem")
                    .and_then(|m| m.get("peak_bytes"))
                    .and_then(|b| b.as_u64()),
                Some(r.mem.peak_bytes),
                "{ctx}: peak round-trip"
            );
            assert!(!r.render_text().is_empty(), "{ctx}: text rendering");
        }
    }
}

/// Everything a run allocates must come back: with tracking held open
/// across the whole lifecycle (load → stage → run → drop), the ledger's
/// live level returns to its starting point once the session, its
/// outputs and the staged graph are gone.
fn live_bytes_return_to_baseline_after_drop() {
    autograph::tensor::mem::track_begin();
    let live0 = autograph::tensor::mem::snapshot().live_bytes;
    {
        let p = &programs()[0];
        let _r = reported_run(p, 1);
    }
    let live1 = autograph::tensor::mem::snapshot().live_bytes;
    autograph::tensor::mem::track_end();
    assert_eq!(
        live0, live1,
        "live bytes did not return to baseline after drop: {live0} -> {live1}"
    );
}

/// At threads=1 on a compute-bound chain, the per-node self-time sum
/// must explain the wall time: the executor's own overhead (dispatch,
/// readiness bookkeeping) is bounded by 10% of the run. Noisy shared
/// machines get three attempts; the best run must clear the bar.
fn chunky_chain_self_time_tracks_wall() {
    let n = 128usize;
    let data = |seed: u32| -> Vec<f32> {
        (0..n * n)
            .map(|i| {
                (((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 16) % 1000) as f32
                    / 10000.0
                    - 0.05
            })
            .collect()
    };
    let p = Program {
        name: "chunky_matmul_chain",
        src: "def f(x, w):\n    i = 0\n    while i < 20:\n        x = tf.tanh(tf.matmul(x, w))\n        i = i + 1\n    return x\n",
        feeds: vec![
            ("x", v(data(1), &[n, n])),
            ("w", v(data(2), &[n, n])),
        ],
        lantern: false,
    };
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let r = reported_run(&p, 1);
        let wall = r.wall_ns as f64;
        let gap = (wall - r.total_self_ns as f64).abs() / wall;
        best = best.min(gap);
        if best <= 0.10 {
            break;
        }
    }
    assert!(
        best <= 0.10,
        "self-time sum strays {:.1}% from wall at threads=1 (limit 10%)",
        best * 100.0
    );
}

/// Cancelled and deadline-exceeded runs still produce a well-formed
/// partial report: marked failed, carrying the error text, with valid
/// JSON — the profile of the work done *before* the abort.
fn failed_runs_yield_partial_reports() {
    let src = "def f(x):\n    while tf.reduce_sum(x) > 0.0:\n        x = x + 1.0\n    return x\n";
    let feeds: Vec<(&str, Tensor)> = vec![("x", v(vec![1.0, 2.0], &[2]))];

    for threads in [1usize, 4] {
        // deadline
        let mut rt = Runtime::load(src, true).expect("load");
        let staged = rt
            .stage_to_graph("f", vec![GraphArg::Placeholder("x".to_string())])
            .expect("stage");
        let mut sess = Session::new(staged.graph.clone());
        sess.set_threads(threads);
        sess.set_reporting(true);
        let opts = RunOptions::default().with_deadline(std::time::Duration::from_millis(40));
        let err = sess
            .run_with_options(&feeds, &staged.outputs, &opts)
            .expect_err("infinite loop must hit the deadline");
        assert!(err.is_deadline_exceeded(), "threads={threads}: {err}");
        let r = sess
            .last_report()
            .expect("failed run still reports")
            .clone();
        assert!(!r.succeeded, "threads={threads}: deadline report succeeded");
        let msg = r.error.as_deref().unwrap_or("");
        assert!(
            msg.to_lowercase().contains("deadline"),
            "threads={threads}: error text: {msg:?}"
        );
        assert!(r.while_iters > 0, "threads={threads}: no progress recorded");
        serde_json::from_str(&r.to_json())
            .unwrap_or_else(|e| panic!("threads={threads}: partial report JSON: {e}"));

        // pre-cancelled token: aborts immediately, report still forms
        let token = CancelToken::new();
        token.cancel();
        let mut sess = Session::new(staged.graph.clone());
        sess.set_threads(threads);
        sess.set_reporting(true);
        let err = sess
            .run_with_options(
                &feeds,
                &staged.outputs,
                &RunOptions::default().with_cancel(token),
            )
            .expect_err("cancelled run must fail");
        assert!(err.is_cancelled(), "threads={threads}: {err}");
        let r = sess.last_report().expect("cancelled run still reports");
        assert!(!r.succeeded, "threads={threads}: cancel report succeeded");
        serde_json::from_str(&r.to_json())
            .unwrap_or_else(|e| panic!("threads={threads}: cancelled report JSON: {e}"));
    }
}

/// Injected delays (`AUTOGRAPH_FAULTS` delay rules) show up
/// under their own `fault_delay` span category, so traces distinguish
/// injected stalls from real work.
fn injected_delays_get_their_own_span_category() {
    use std::sync::Arc;
    let agg = Arc::new(autograph_obs::AggregateRecorder::new());
    autograph_obs::install(agg.clone());
    autograph::faults::install(
        autograph::faults::FaultPlan::parse("delay@graph/*@1.0:7").expect("plan"),
    );
    let _ = reported_run(&programs()[0], 1);
    autograph::faults::clear();
    autograph_obs::uninstall();
    let summary = agg.summary();
    assert!(
        summary
            .rows
            .iter()
            .any(|row| row.key.starts_with("fault_delay/")),
        "no fault_delay span recorded; rows: {:?}",
        summary
            .rows
            .iter()
            .map(|r| r.key.clone())
            .collect::<Vec<_>>()
    );
}
