//! Regenerates **Table 3 — TreeLSTM Targeting Lantern (SGD steps/sec)**:
//! the recursive sentiment model trained with batch size 1, eager
//! ("PyTorch"-style, interpreted + tape) vs AutoGraph→Lantern (staged
//! once, compiled IR). Both differentiate on the one data tape
//! (`autograph_tensor::grad::Tape`); Lantern's replay computes what the
//! paper's `shift`/`reset` continuations compute, in the same order.

use autograph_bench::{measure, row, rule, HarnessArgs};
use autograph_models::data::{random_tree_lantern, random_tree_value};
use autograph_models::treelstm;
use autograph_tensor::{Rng64, Tensor};

fn main() {
    let args = HarnessArgs::parse();
    args.apply_threads();
    let profiler = args.profiler();
    let (dim, leaves, examples) = if args.full { (64, 24, 20) } else { (8, 16, 10) };
    let warmup = 1;
    let runs = args.runs;
    let lr = 0.05;

    println!("Table 3. TreeLSTM Targeting Lantern (SGD steps/sec, batch 1)");
    println!("dim={dim} leaves/tree={leaves} examples-per-run={examples} runs={runs}\n");
    row("Configuration", &["SGD steps / sec".to_string()]);
    rule(1);

    let weights = treelstm::TreeWeights::new(dim, 2, 11);
    // identical forest in both value representations
    let trees_v: Vec<_> = (0..examples)
        .map(|i| {
            let mut rng = Rng64::new(1000 + i as u64);
            random_tree_value(&mut rng, leaves, dim)
        })
        .collect();
    let trees_l: Vec<_> = (0..examples)
        .map(|i| {
            let mut rng = Rng64::new(1000 + i as u64);
            random_tree_lantern(&mut rng, leaves, dim)
        })
        .collect();
    let labels: Vec<Tensor> = (0..examples)
        .map(|i| Tensor::from_vec_i64(vec![(i % 2) as i64], &[1]).expect("shape"))
        .collect();

    // Eager ("PyTorch"): interpret the recursion + tape per example
    let mut rt = treelstm::eager_runtime(&weights).expect("load");
    let mut w_eager = weights.clone();
    let eager = measure(warmup, runs, || {
        for (tree, label) in trees_v.iter().zip(&labels) {
            treelstm::eager_train_step(&mut rt, tree, label, &mut w_eager, lr).expect("step");
        }
    });
    row(
        "Loop and Model in PyTorch-style eager",
        &[eager.rate(examples as f64).display(1.0, 2)],
    );

    // AutoGraph -> Lantern: stage once, run the compiled engine
    let program = treelstm::stage_lantern(&weights).expect("stage");
    let engine = autograph_lantern::Engine::new(program);
    let mut w_lantern = weights.clone();
    let lantern = measure(warmup, runs, || {
        for (tree, label) in trees_l.iter().zip(&labels) {
            treelstm::lantern_train_step(&engine, tree, label, &mut w_lantern, lr).expect("step");
        }
    });
    row(
        "Loop and Model in AutoGraph/Lantern",
        &[lantern.rate(examples as f64).display(1.0, 2)],
    );
    rule(1);

    println!(
        "\nAutoGraph/Lantern speedup over eager: {:.2}x (paper: ~2.38x)",
        eager.mean / lantern.mean
    );
    profiler.finish();
}
