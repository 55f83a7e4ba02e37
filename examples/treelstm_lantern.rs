//! Recursive TreeLSTM staged to the Lantern backend (§8, Table 3):
//! a recursive model TensorFlow graphs cannot express, staged once into an
//! S-expression IR with a *single* definition per function, then trained
//! with reverse-mode AD on a data tape.
//!
//! ```sh
//! cargo run --release --example treelstm_lantern
//! ```

use autograph_models::data::random_tree_lantern;
use autograph_models::treelstm;
use autograph_tensor::{Rng64, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dim = 8;
    let mut weights = treelstm::TreeWeights::new(dim, 2, 11);

    println!("--- the recursive imperative model ---");
    println!("{}", treelstm::TREELSTM_SRC);

    let program = treelstm::stage_lantern(&weights)?;
    println!("--- staged Lantern functions (recursion preserved) ---");
    for f in &program.funcs {
        println!("(def {} ...)  [{} params]", f.name, f.num_params);
    }
    println!("note: tree_lstm appears once, despite two recursive call sites\n");

    let engine = autograph_lantern::Engine::new(program);
    let mut rng = Rng64::new(21);
    let trees: Vec<_> = (0..8)
        .map(|_| random_tree_lantern(&mut rng, 6, dim))
        .collect();
    let labels: Vec<Tensor> = (0..8)
        .map(|i| Tensor::from_vec_i64(vec![(i % 2) as i64], &[1]).expect("label"))
        .collect();

    for epoch in 0..10 {
        let mut total = 0.0;
        for (tree, label) in trees.iter().zip(&labels) {
            total += treelstm::lantern_train_step(&engine, tree, label, &mut weights, 0.1)?;
        }
        println!("epoch {epoch}: mean loss {:.4}", total / trees.len() as f32);
    }
    Ok(())
}
