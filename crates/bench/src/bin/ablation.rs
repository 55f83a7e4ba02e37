//! Ablations for the design choices DESIGN.md calls out:
//!
//! * `ablation graphopt` — whole-graph optimization on/off (constant
//!   folding + CSE + DCE) on the staged RNN;
//! * `ablation dispatch` — the §6 claim that dynamic dispatch makes
//!   *unstaged* converted code slower than unconverted code;
//! * `ablation amortize` — staging cost vs per-run cost: how many runs it
//!   takes for AutoGraph's one-time conversion+staging to pay for itself
//!   against eager execution;
//! * `ablation fusion` — fused ÷ op-by-op kernel time on the RNN cell's
//!   `tanh(a + c + bias)` and the SGD update `w - dw * lr`, measured in
//!   the same run in back-to-back pairs; exits non-zero when fusing
//!   loses to not fusing in at least three quarters of the pairs.

use autograph_bench::{measure, row, rule, HarnessArgs};
use autograph_graph::{optimize::optimize, Session};
use autograph_models::rnn;
use autograph_runtime::{Runtime, Value};
use autograph_tensor::fused::{FusedArena, FusedOp, FusedSpec};
use autograph_tensor::{Rng64, Tensor};
use std::time::Instant;

fn ablate_graphopt(args: &HarnessArgs) {
    println!("\nAblation: graph optimization passes (staged RNN)\n");
    let (batch, seq, feat, hidden) = (8, 16, 8, 32);
    let weights = rnn::RnnWeights::new(feat, hidden, 42);
    let inp = rnn::inputs(batch, seq, feat, hidden, 7);
    let mut rt = rnn::runtime(&weights, true).expect("load");
    let staged = rnn::stage_autograph(&mut rt).expect("stage");

    let raw_nodes = staged.graph.deep_len();
    let (opt_graph, opt_outputs, stats) = optimize(&staged.graph, &staged.outputs);
    let opt_nodes = opt_graph.deep_len();
    println!(
        "nodes: {raw_nodes} -> {opt_nodes}  (folded {}, deduped {}, eliminated {})\n",
        stats.folded, stats.deduped, stats.eliminated
    );

    let feeds = [
        ("input_data", inp.input_data.clone()),
        ("initial_state", inp.initial_state.clone()),
        ("sequence_len", inp.sequence_len.clone()),
    ];
    let mut sess_raw = Session::new(staged.graph);
    let outputs = staged.outputs.clone();
    let t_raw = measure(2, args.runs, || {
        sess_raw.run(&feeds, &outputs).expect("raw");
    });
    let mut sess_opt = Session::new(opt_graph);
    let t_opt = measure(2, args.runs, || {
        sess_opt.run(&feeds, &opt_outputs).expect("opt");
    });
    row(
        "unoptimized graph",
        &[format!("{:.3} ms", t_raw.mean * 1e3)],
    );
    row("optimized graph", &[format!("{:.3} ms", t_opt.mean * 1e3)]);
    rule(1);
    println!("speedup: {:.2}x", t_raw.mean / t_opt.mean);
}

fn ablate_dispatch(args: &HarnessArgs) {
    println!("\nAblation: dynamic-dispatch overhead on unstaged code (§6)\n");
    // pure Python computation: converted code pays ag.* dispatch per
    // construct without any staging payoff
    let src = "\
def count(n):
    total = 0
    i = 0
    while i < n:
        if i % 3 == 0:
            total = total + i
        i = i + 1
    return total
";
    let n = 2000i64;
    let mut plain = Runtime::load(src, false).expect("load");
    let mut converted = Runtime::load(src, true).expect("load");
    let a = plain.call("count", vec![Value::Int(n)]).expect("run");
    let b = converted.call("count", vec![Value::Int(n)]).expect("run");
    assert!(a.py_eq(&b), "semantics preserved");

    let t_plain = measure(2, args.runs, || {
        plain.call("count", vec![Value::Int(n)]).expect("run");
    });
    let t_conv = measure(2, args.runs, || {
        converted.call("count", vec![Value::Int(n)]).expect("run");
    });
    row(
        "unconverted (native semantics)",
        &[format!("{:.3} ms", t_plain.mean * 1e3)],
    );
    row(
        "converted, unstaged",
        &[format!("{:.3} ms", t_conv.mean * 1e3)],
    );
    rule(1);
    println!(
        "dispatch overhead: {:.2}x slower (the paper: \"if AutoGraph was used to\n\
         perform normal unstaged Python computation, it would be slower\")",
        t_conv.mean / t_plain.mean
    );
}

fn ablate_amortize(args: &HarnessArgs) {
    println!("\nAblation: staging amortization (RNN workload)\n");
    let (batch, seq, feat, hidden) = (8, 16, 8, 32);
    let weights = rnn::RnnWeights::new(feat, hidden, 42);
    let inp = rnn::inputs(batch, seq, feat, hidden, 7);

    // one-time cost: convert + stage
    let t_stage = measure(1, args.runs, || {
        let mut rt = rnn::runtime(&weights, true).expect("load");
        rnn::stage_autograph(&mut rt).expect("stage");
    });

    // per-run costs
    let mut rt_eager = rnn::runtime(&weights, false).expect("load");
    let t_eager = measure(2, args.runs, || {
        rnn::run_eager(&mut rt_eager, &inp).expect("eager");
    });
    let mut rt = rnn::runtime(&weights, true).expect("load");
    let staged = rnn::stage_autograph(&mut rt).expect("stage");
    let mut sess = Session::new(staged.graph);
    let outputs = staged.outputs.clone();
    let feeds = [
        ("input_data", inp.input_data.clone()),
        ("initial_state", inp.initial_state.clone()),
        ("sequence_len", inp.sequence_len.clone()),
    ];
    let t_run = measure(2, args.runs, || {
        sess.run(&feeds, &outputs).expect("staged");
    });

    row(
        "convert + stage (once)",
        &[format!("{:.3} ms", t_stage.mean * 1e3)],
    );
    row("eager, per run", &[format!("{:.3} ms", t_eager.mean * 1e3)]);
    row("staged, per run", &[format!("{:.3} ms", t_run.mean * 1e3)]);
    rule(1);
    let gain = t_eager.mean - t_run.mean;
    if gain > 0.0 {
        println!(
            "staging pays for itself after {:.1} runs",
            t_stage.mean / gain
        );
    } else {
        println!("staging does not pay off at this size");
    }
}

/// `runs` back-to-back pairs of (fused, op-by-op) seconds per
/// evaluation, sorted by their ratio; pairing keeps drift in machine
/// speed out of the ratio.
fn fusion_pairs(
    runs: usize,
    spec: &FusedSpec,
    inputs: &[&Tensor],
    unfused: impl Fn() -> Tensor,
) -> Vec<(f64, f64)> {
    const REPS: u32 = 200;
    let mut arena = FusedArena::new();
    let mut fused = || {
        let out = spec.try_eval(inputs, &mut arena).expect("eligible");
        // the VM recycles dead fused outputs the same way
        arena.give(out.into_f32_buffer().expect("sole owner"));
    };
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..REPS {
            f();
        }
        t0.elapsed().as_secs_f64() / f64::from(REPS)
    };
    let mut pairs: Vec<(f64, f64)> = (0..runs.max(1) + 1)
        .map(|_| {
            (
                time(&mut fused),
                time(&mut || {
                    std::hint::black_box(unfused());
                }),
            )
        })
        .skip(1) // warm-up pair
        .collect();
    pairs.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
    pairs
}

/// Returns whether fusion held its own on every chain. On the tanh chain
/// both sides are the same 2048 libm calls and differ by a few percent,
/// less than this box's run-to-run noise, so a single ratio above 1.0
/// proves nothing: fusion has lost when the fused side is the slower one
/// in at least three quarters of the pairs.
fn ablate_fusion(args: &HarnessArgs) -> bool {
    use FusedOp::*;
    println!("\nAblation: fused vs op-by-op elementwise kernels (same run)\n");
    let mut rng = Rng64::new(7);
    let a = rng.normal_tensor(&[16, 128], 1.0);
    let c = rng.normal_tensor(&[16, 128], 1.0);
    let bias = rng.normal_tensor(&[128], 1.0);
    let cell = FusedSpec::new(vec![Input(0), Input(1), Add, Input(2), Add, Tanh], 3).expect("spec");
    let w = rng.normal_tensor(&[784, 10], 0.1);
    let dw = rng.normal_tensor(&[784, 10], 0.1);
    let lr = Tensor::scalar_f32(0.01);
    let sgd = FusedSpec::new(vec![Input(0), Input(1), Input(2), Mul, Sub], 3).expect("spec");

    let rows = [
        (
            "tanh(a + c + bias)  [16,128]+[128]",
            fusion_pairs(args.runs, &cell, &[&a, &c, &bias], || {
                (a.add(&c))
                    .and_then(|t| t.add(&bias))
                    .and_then(|t| t.tanh())
                    .expect("kernels")
            }),
        ),
        (
            "w - dw * lr  [784,10]*scalar",
            fusion_pairs(args.runs, &sgd, &[&w, &dw, &lr], || {
                dw.mul(&lr).and_then(|t| w.sub(&t)).expect("kernels")
            }),
        ),
    ];
    row(
        "chain (median pair)",
        &[
            "fused".into(),
            "op-by-op".into(),
            "fused/op-by-op".into(),
            "pairs lost".into(),
        ],
    );
    rule(4);
    let mut ok = true;
    for (label, pairs) in rows {
        let (fused, unfused) = pairs[pairs.len() / 2];
        let lost = pairs.iter().filter(|(f, u)| f > u).count();
        ok &= lost * 4 < pairs.len() * 3;
        row(
            label,
            &[
                format!("{:.2} us", fused * 1e6),
                format!("{:.2} us", unfused * 1e6),
                format!("{:.3}", fused / unfused),
                format!("{lost}/{}", pairs.len()),
            ],
        );
    }
    if !ok {
        println!("FAIL: a fused chain is slower than its op-by-op kernels");
    }
    ok
}

fn main() {
    let args = HarnessArgs::parse();
    args.apply_threads();
    let profiler = args.profiler();
    let which = args.rest.first().map(String::as_str).unwrap_or("all");
    let mut fusion_ok = true;
    match which {
        "graphopt" => ablate_graphopt(&args),
        "dispatch" => ablate_dispatch(&args),
        "amortize" => ablate_amortize(&args),
        "fusion" => fusion_ok = ablate_fusion(&args),
        "all" => {
            ablate_graphopt(&args);
            ablate_dispatch(&args);
            ablate_amortize(&args);
            fusion_ok = ablate_fusion(&args);
        }
        other => {
            eprintln!("unknown ablation '{other}'; use graphopt|dispatch|amortize|fusion|all");
            std::process::exit(2);
        }
    }
    profiler.finish();
    if !fusion_ok {
        std::process::exit(1);
    }
}
