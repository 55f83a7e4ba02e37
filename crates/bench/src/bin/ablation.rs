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
//!   loses to not fusing in at least three quarters of the pairs;
//! * `ablation matmul` — the tiled matmul kernel ÷ the i-k-j loop it
//!   replaced, and transposed-operand entry points ÷
//!   transpose-then-multiply, paired and gated the same way, each pair of
//!   sides also checked bit-equal.

use autograph_bench::{measure, row, rule, HarnessArgs};
use autograph_graph::{optimize::optimize, Session};
use autograph_models::rnn;
use autograph_runtime::{Runtime, Value};
use autograph_tensor::fused::{FusedArena, FusedOp, FusedSpec};
use autograph_tensor::{DType, Rng64, Tensor};
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

/// `runs` back-to-back pairs of (candidate, baseline) seconds per call,
/// sorted by their ratio; pairing keeps drift in machine speed out of
/// the ratio.
fn paired(
    runs: usize,
    reps: u32,
    candidate: &mut dyn FnMut(),
    baseline: &mut dyn FnMut(),
) -> Vec<(f64, f64)> {
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_secs_f64() / f64::from(reps)
    };
    let mut pairs: Vec<(f64, f64)> = (0..runs.max(1) + 1)
        .map(|_| (time(candidate), time(baseline)))
        .skip(1) // warm-up pair
        .collect();
    pairs.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
    pairs
}

/// Print one row per paired measurement and return whether the candidate
/// held its own on every row. Two sides a few percent apart differ by
/// less than this box's run-to-run noise, so a single ratio above 1.0
/// proves nothing: the candidate has lost when it is the slower side in
/// at least three quarters of the pairs.
fn paired_table(what: &str, sides: [&str; 2], rows: Vec<(String, Vec<(f64, f64)>)>) -> bool {
    row(
        &format!("{what} (median pair)"),
        &[
            sides[0].into(),
            sides[1].into(),
            format!("{}/{}", sides[0], sides[1]),
            "pairs lost".into(),
        ],
    );
    rule(4);
    let mut ok = true;
    for (label, pairs) in rows {
        let (candidate, baseline) = pairs[pairs.len() / 2];
        let lost = pairs.iter().filter(|(c, b)| c > b).count();
        ok &= lost * 4 < pairs.len() * 3;
        row(
            &label,
            &[
                format!("{:.2} us", candidate * 1e6),
                format!("{:.2} us", baseline * 1e6),
                format!("{:.3}", candidate / baseline),
                format!("{lost}/{}", pairs.len()),
            ],
        );
    }
    ok
}

/// Returns whether fusion held its own on every chain (on the tanh chain
/// both sides are the same 2048 libm calls and differ by a few percent).
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

    let mut arena = FusedArena::new();
    let mut fused_pairs = |spec: &FusedSpec, inputs: &[&Tensor], unfused: &dyn Fn() -> Tensor| {
        paired(
            args.runs,
            200,
            &mut || {
                let out = spec.try_eval(inputs, &mut arena).expect("eligible");
                // the VM recycles dead fused outputs the same way
                arena.give(out.into_f32_buffer().expect("sole owner"));
            },
            &mut || {
                std::hint::black_box(unfused());
            },
        )
    };
    let rows = vec![
        (
            "tanh(a + c + bias)  [16,128]+[128]".to_string(),
            fused_pairs(&cell, &[&a, &c, &bias], &|| {
                (a.add(&c))
                    .and_then(|t| t.add(&bias))
                    .and_then(|t| t.tanh())
                    .expect("kernels")
            }),
        ),
        (
            "w - dw * lr  [784,10]*scalar".to_string(),
            fused_pairs(&sgd, &[&w, &dw, &lr], &|| {
                dw.mul(&lr).and_then(|t| w.sub(&t)).expect("kernels")
            }),
        ),
    ];
    let ok = paired_table("chain", ["fused", "op-by-op"], rows);
    if !ok {
        println!("FAIL: a fused chain is slower than its op-by-op kernels");
    }
    ok
}

/// `Tensor::matmul` as it was before the tiled kernel: i-k-j over
/// row-major operands, skipping zero multiplicands.
fn ikj_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (a, b) = (a.cast(DType::F32), b.cast(DType::F32));
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    let (av, bv) = (a.as_f32().expect("f32"), b.as_f32().expect("f32"));
    let mut out = vec![0.0f32; m * n];
    for (arow, orow) in av.chunks(k).zip(out.chunks_mut(n)) {
        for (&x, brow) in arow.iter().zip(bv.chunks(n)) {
            if x != 0.0 {
                for (o, &y) in orow.iter_mut().zip(brow) {
                    *o += x * y;
                }
            }
        }
    }
    Tensor::from_vec(out, &[m, n]).expect("shape")
}

/// Returns whether the tiled kernel held its own against the loop it
/// replaced, and the flagged entry points against transposing first. No
/// workload of the repository benchmark is dominated by the `m = 1` or
/// the `B`-transposed shapes, so this is what keeps them from regressing.
fn ablate_matmul(args: &HarnessArgs) -> bool {
    println!("\nAblation: tiled matmul kernel (same run, both sides bit-equal)\n");
    let mut rng = Rng64::new(11);
    let mut pairs_of = |stored_a: [usize; 2],
                        stored_b: [usize; 2],
                        candidate: &dyn Fn(&Tensor, &Tensor) -> Tensor,
                        baseline: &dyn Fn(&Tensor, &Tensor) -> Tensor| {
        let a = rng.normal_tensor(&stored_a, 1.0);
        let b = rng.normal_tensor(&stored_b, 1.0);
        let bits = |t: &Tensor| -> Vec<u32> {
            let v = t.as_f32().expect("f32");
            v.iter().map(|x| x.to_bits()).collect()
        };
        let product = candidate(&a, &b);
        assert_eq!(bits(&product), bits(&baseline(&a, &b)));
        // a millisecond or two per timing at any size: `a` holds m * k
        // elements however it is stored
        let flops = 2 * a.num_elements() * product.shape()[1];
        let reps = (4_000_000 / flops).clamp(20, 20_000) as u32;
        paired(
            args.runs,
            reps,
            &mut || {
                std::hint::black_box(candidate(&a, &b));
            },
            &mut || {
                std::hint::black_box(baseline(&a, &b));
            },
        )
    };
    let tiled = |a: &Tensor, b: &Tensor| a.matmul(b).expect("matmul");
    let kernel_rows = [
        ([64, 784], [784, 10]),
        ([16, 128], [128, 128]),
        ([1, 16], [16, 8]),
    ]
    .into_iter()
    .map(|(a, b)| {
        (
            format!("{a:?} x {b:?}"),
            pairs_of(a, b, &tiled, &ikj_matmul),
        )
    })
    .collect();
    let kernel_ok = paired_table("product", ["tiled", "i-k-j"], kernel_rows);
    if !kernel_ok {
        println!("FAIL: the tiled kernel is slower than the i-k-j loop it replaced");
    }
    println!();
    let tn = |a: &Tensor, b: &Tensor| a.matmul_t(b, true, false).expect("matmul");
    let tn_copy = |a: &Tensor, b: &Tensor| a.t().and_then(|at| at.matmul(b)).expect("matmul");
    let nt = |a: &Tensor, b: &Tensor| a.matmul_t(b, false, true).expect("matmul");
    let nt_copy = |a: &Tensor, b: &Tensor| b.t().and_then(|bt| a.matmul(&bt)).expect("matmul");
    let flag_rows = vec![
        (
            "[64, 784]^T x [64, 10]".to_string(),
            pairs_of([64, 784], [64, 10], &tn, &tn_copy),
        ),
        (
            "[64, 10] x [784, 10]^T".to_string(),
            pairs_of([64, 10], [784, 10], &nt, &nt_copy),
        ),
        (
            "[1, 8] x [16, 8]^T".to_string(),
            pairs_of([1, 8], [16, 8], &nt, &nt_copy),
        ),
    ];
    let flags_ok = paired_table("product", ["in place", "copy first"], flag_rows);
    if !flags_ok {
        println!("FAIL: a flagged matmul is slower than transposing first");
    }
    kernel_ok && flags_ok
}

fn main() {
    let args = HarnessArgs::parse();
    args.apply_threads();
    let profiler = args.profiler();
    let which = args.rest.first().map(String::as_str).unwrap_or("all");
    let mut gates_ok = true;
    match which {
        "graphopt" => ablate_graphopt(&args),
        "dispatch" => ablate_dispatch(&args),
        "amortize" => ablate_amortize(&args),
        "fusion" => gates_ok = ablate_fusion(&args),
        "matmul" => gates_ok = ablate_matmul(&args),
        "all" => {
            ablate_graphopt(&args);
            ablate_dispatch(&args);
            ablate_amortize(&args);
            gates_ok = ablate_fusion(&args);
            gates_ok &= ablate_matmul(&args);
        }
        other => {
            eprintln!(
                "unknown ablation '{other}'; use graphopt|dispatch|amortize|fusion|matmul|all"
            );
            std::process::exit(2);
        }
    }
    profiler.finish();
    if !gates_ok {
        std::process::exit(1);
    }
}
