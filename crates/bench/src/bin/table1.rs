//! Regenerates **Table 1 — RNN Cell Performance (1K examples/sec)**.
//!
//! Four configurations (Eager / Official / Handwritten / AutoGraph)
//! over a grid of sequence lengths and batch sizes, hidden size 256 in
//! `--full` mode (the paper's setting) or a laptop-scale default
//! otherwise. `--json-table` writes the table for the perf gate to diff.

use autograph_bench::{measure, row, rule, HarnessArgs};
use autograph_graph::Session;
use autograph_models::rnn;

fn main() {
    let args = HarnessArgs::parse();
    let threads = args.apply_threads();
    let profiler = args.profiler();
    let (hidden, feat, seqs, batches) = if args.full {
        (256, 64, vec![64, 128], vec![32, 64, 128])
    } else {
        (16, 8, vec![16, 32], vec![2, 4, 8])
    };
    let warmup = if args.full { 5 } else { 2 };
    let runs = args.runs;

    println!("Table 1. RNN Cell Performance (1K examples/sec)");
    println!("hidden={hidden} feat={feat} warmup={warmup} runs={runs}\n");
    let header: Vec<String> = seqs
        .iter()
        .flat_map(|s| batches.iter().map(move |b| format!("seq {s} / batch {b}")))
        .collect();
    row("Configuration", &header);
    rule(header.len());

    let weights = rnn::RnnWeights::new(feat, hidden, 42);
    let mut rows: Vec<(String, Vec<String>)> = vec![
        ("Eager".into(), vec![]),
        ("Official".into(), vec![]),
        ("Handwritten".into(), vec![]),
        ("AutoGraph (Vm)".into(), vec![]),
    ];
    // (config, cell, rate stats) for --json-table
    let mut cells: Vec<(usize, String, autograph_bench::Stats)> = Vec::new();

    for &seq in &seqs {
        for &batch in &batches {
            let inp = rnn::inputs(batch, seq, feat, hidden, 7);
            let k_examples = batch as f64 / 1000.0;
            let cell = format!("seq{seq}_batch{batch}");

            // Eager: interpret the imperative source per run
            let mut rt = rnn::runtime(&weights, false).expect("load");
            let s = measure(warmup, runs, || {
                rnn::run_eager(&mut rt, &inp).expect("eager run");
            })
            .rate(k_examples);
            rows[0].1.push(s.display(1.0, 2));
            cells.push((0, cell.clone(), s));

            // Official: fused kernel
            let s = measure(warmup, runs, || {
                rnn::official(&weights, &inp).expect("official run");
            })
            .rate(k_examples);
            rows[1].1.push(s.display(1.0, 2));
            cells.push((1, cell.clone(), s));

            // Handwritten graph
            let (g, fetches) = rnn::build_handwritten(&weights);
            let mut sess = Session::new(g);
            let feeds = [
                ("input_data", inp.input_data.clone()),
                ("initial_state", inp.initial_state.clone()),
                ("sequence_len", inp.sequence_len.clone()),
            ];
            let s = measure(warmup, runs, || {
                sess.run(&feeds, &fetches).expect("handwritten run");
            })
            .rate(k_examples);
            rows[2].1.push(s.display(1.0, 2));
            cells.push((2, cell.clone(), s));

            // AutoGraph: converted + staged once, then Session::run
            let mut rt = rnn::runtime(&weights, true).expect("load");
            let staged = rnn::stage_autograph(&mut rt).expect("stage");
            let mut sess = Session::new(staged.graph);
            let s = measure(warmup, runs, || {
                sess.run(&feeds, &staged.outputs).expect("autograph run");
            })
            .rate(k_examples);
            rows[3].1.push(s.display(1.0, 2));
            cells.push((3, cell.clone(), s));
        }
    }

    for (label, cells) in &rows {
        row(label, cells);
    }
    rule(header.len());
    println!("\nPaper shape: Eager slowest by ~2-3x; Official ≈ Handwritten ≈ AutoGraph.");

    if let Some(path) = &args.json_table {
        write_table_json(path, &args, threads, hidden, feat, &rows, &cells);
    }

    if let Some(path) = &args.report {
        multi_branch_report(path, args.full, hidden, feat);
    }
    profiler.finish();
}

/// Emit the main table as JSON keyed `rates.<config>.<cell>.rate` —
/// `rate` gates as higher-is-better in `autograph-report diff`, `std`
/// stays informational.
fn write_table_json(
    path: &str,
    args: &HarnessArgs,
    threads: usize,
    hidden: usize,
    feat: usize,
    rows: &[(String, Vec<String>)],
    cells: &[(usize, String, autograph_bench::Stats)],
) {
    let mut json = String::from("{\n  \"bench\": \"table1\",\n");
    json.push_str(&format!(
        "  \"full\": {},\n  \"runs\": {},\n  \"threads\": {threads},\n  \"hidden\": {hidden},\n  \"feat\": {feat},\n  \"rates\": {{\n",
        args.full, args.runs
    ));
    for (ci, (config, _)) in rows.iter().enumerate() {
        json.push_str(&format!("    \"{config}\": {{"));
        let mut first = true;
        for (rc, cell, s) in cells.iter().filter(|(rc, _, _)| *rc == ci) {
            let _ = rc;
            if !first {
                json.push(',');
            }
            first = false;
            json.push_str(&format!(
                "\n      \"{cell}\": {{\"rate\": {:.6}, \"std\": {:.6}}}",
                s.mean, s.std
            ));
        }
        json.push_str("\n    }");
        if ci + 1 < rows.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  }\n}\n");
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("wrote table JSON to {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// One fully-instrumented pass over K independent RNN `While` branches
/// in one graph: memory accounting, pool utilization and critical path
/// go to stdout and, as `RunReport` JSON, to `path` (`--report`).
fn multi_branch_report(path: &str, full: bool, hidden: usize, feat: usize) {
    let branches = 4;
    let (seq, batch) = if full { (64, 64) } else { (16, 8) };
    let weights: Vec<rnn::RnnWeights> = (0..branches)
        .map(|k| rnn::RnnWeights::new(feat, hidden, 100 + k as u64))
        .collect();
    let inp = rnn::inputs(batch, seq, feat, hidden, 7);
    let feeds = [
        ("input_data", inp.input_data),
        ("initial_state", inp.initial_state),
        ("sequence_len", inp.sequence_len),
    ];
    let (g, fetches) = rnn::build_multi_branch(&weights);
    let mut sess = Session::new(g);
    // the unreported first run lowers the plan, so the report shows a
    // steady-state run
    sess.run(&feeds, &fetches).expect("warm-up run");
    sess.set_reporting(true);
    sess.run(&feeds, &fetches).expect("reported run");
    let report = sess.last_report().expect("reporting was enabled");
    println!("\nRun report: {branches} independent RNN branches (seq {seq} / batch {batch})");
    println!("{}", report.render_text());
    match std::fs::write(path, report.to_json()) {
        Ok(()) => eprintln!("wrote run report to {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}
