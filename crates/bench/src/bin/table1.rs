//! Regenerates **Table 1 — RNN Cell Performance (1K examples/sec)**.
//!
//! Four configurations (Eager / Official / Handwritten / AutoGraph)
//! over a grid of sequence lengths and batch sizes, hidden size 256 in
//! `--full` mode (the paper's setting) or a laptop-scale default
//! otherwise. Under the table it prints the three same-run ratios the
//! paper's claim rests on — Vm÷Eager, Vm÷Handwritten, Vm÷Official per
//! cell — which hold on a noisy box where the absolute rates do not.

use autograph_bench::{measure, row, rule, HarnessArgs, Stats};
use autograph_graph::Session;
use autograph_models::rnn;

fn main() {
    let args = HarnessArgs::parse();
    args.apply_threads();
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
    const EAGER: usize = 0;
    const OFFICIAL: usize = 1;
    const HANDWRITTEN: usize = 2;
    const VM: usize = 3;
    let mut rows: [(&str, Vec<Stats>); 4] = [
        ("Eager", vec![]),
        ("Official", vec![]),
        ("Handwritten", vec![]),
        ("AutoGraph (Vm)", vec![]),
    ];

    for &seq in &seqs {
        for &batch in &batches {
            let inp = rnn::inputs(batch, seq, feat, hidden, 7);
            let k_examples = batch as f64 / 1000.0;

            // Eager: interpret the imperative source per run
            let mut rt = rnn::runtime(&weights, false).expect("load");
            let s = measure(warmup, runs, || {
                rnn::run_eager(&mut rt, &inp).expect("eager run");
            })
            .rate(k_examples);
            rows[EAGER].1.push(s);

            // Official: fused kernel
            let s = measure(warmup, runs, || {
                rnn::official(&weights, &inp).expect("official run");
            })
            .rate(k_examples);
            rows[OFFICIAL].1.push(s);

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
            rows[HANDWRITTEN].1.push(s);

            // AutoGraph: converted + staged once, then Session::run
            let mut rt = rnn::runtime(&weights, true).expect("load");
            let staged = rnn::stage_autograph(&mut rt).expect("stage");
            let mut sess = Session::new(staged.graph);
            let s = measure(warmup, runs, || {
                sess.run(&feeds, &staged.outputs).expect("autograph run");
            })
            .rate(k_examples);
            rows[VM].1.push(s);
        }
    }

    for (label, cells) in &rows {
        let cells: Vec<String> = cells.iter().map(|s| s.display(1.0, 2)).collect();
        row(label, &cells);
    }
    rule(header.len());
    // same-run ratios: each cell's four configurations were timed back to
    // back, so these survive clock drift between runs of the binary
    for (label, denom) in [
        ("Vm ÷ Eager", EAGER),
        ("Vm ÷ Handwritten", HANDWRITTEN),
        ("Vm ÷ Official", OFFICIAL),
    ] {
        let cells: Vec<String> = rows[VM]
            .1
            .iter()
            .zip(&rows[denom].1)
            .map(|(vm, d)| format!("{:.2}", vm.mean / d.mean))
            .collect();
        row(label, &cells);
    }
    println!("\nPaper shape: Eager slowest by ~2-3x; Official ≈ Handwritten ≈ AutoGraph.");

    profiler.finish();
}
