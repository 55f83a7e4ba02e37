//! Appendix D.2 — L-BFGS.
//!
//! The two-loop recursion iterates over a *fixed-size* history — a Python
//! hyperparameter — so dynamic dispatch unrolls those loops at staging
//! time while the outer iteration loop stages as a single in-graph
//! `while`. History buffers are fixed tensors updated with value-semantics
//! `setitem` (the slice-conversion pass).
//!
//! Objective: least squares `f(x) = mean((A x - b)²)` (the "parameter
//! estimation" workload), with gradients from the tape in eager mode and
//! from `tf.gradients` when staged — chosen by the `use_tape` Python flag,
//! itself an example of hyperparameter macro-programming.

use autograph_runtime::runtime::GraphArg;
use autograph_runtime::{Runtime, RuntimeError, Value};
use autograph_tensor::{DType, Rng64, Tensor};

/// The imperative L-BFGS optimizer.
pub(crate) const LBFGS_SRC: &str = "\
def objective(x):
    return tf.reduce_mean(tf.square(tf.matmul(a_mat, x) - b_vec))

def grad_f(x):
    if use_tape:
        tf.tape_begin()
        xw = tf.watch(x)
        loss = objective(xw)
        g = tf.grad(loss, [xw])
        return g[0]
    loss = objective(x)
    g = tf.gradients(loss, [x])
    return g[0]

def dot(a, b):
    return tf.reduce_sum(a * b)

def lbfgs(x, iters):
    s_hist = tf.zeros((hist, n, 1))
    y_hist = tf.zeros((hist, n, 1))
    rho = tf.zeros((hist,))
    g = grad_f(x)
    k = 0
    while k < iters:
        q = g
        alphas = [0.0, 0.0, 0.0, 0.0, 0.0]
        for j in range(hist):
            idx = (k - 1 - j) % hist
            alpha = rho[idx] * dot(s_hist[idx], q)
            q = q - alpha * y_hist[idx]
            alphas[j] = alpha
        r = q * gamma
        for j2 in range(hist):
            jj = hist - 1 - j2
            idx2 = (k - 1 - jj) % hist
            beta = rho[idx2] * dot(y_hist[idx2], r)
            r = r + s_hist[idx2] * (alphas[jj] - beta)
        x_new = x - lr * r
        g_new = grad_f(x_new)
        s_new = x_new - x
        y_new = g_new - g
        denom = dot(y_new, s_new) + 0.0000001
        slot = k % hist
        s_hist[slot] = s_new
        y_hist[slot] = y_new
        rho[slot] = 1.0 / denom
        x = x_new
        g = g_new
        k = k + 1
    return x, objective(x)
";

/// History length (must match the `alphas` literal in the source).
pub(crate) const HIST: usize = 5;

/// Problem instance: minimize `mean((A x - b)^2)`.
#[derive(Debug, Clone)]
pub struct LbfgsProblem {
    /// Data matrix `[m, n]`.
    pub a: Tensor,
    /// Targets `[m, 1]`.
    pub b: Tensor,
    /// Parameter dimension.
    pub n: usize,
}

impl LbfgsProblem {
    /// Deterministic random problem. `batch` scales the number of rows
    /// (the paper's batch-size axis).
    pub fn new(n: usize, batch: usize, seed: u64) -> LbfgsProblem {
        let mut rng = Rng64::new(seed);
        let m = batch * n;
        LbfgsProblem {
            a: rng.normal_tensor(&[m, n], 1.0),
            b: rng.normal_tensor(&[m, 1], 1.0),
            n,
        }
    }
}

/// Load the module with problem data and hyperparameters bound.
/// `use_tape` selects eager-tape gradients (for the unconverted, eager
/// configuration) vs `tf.gradients` (for staging).
///
/// # Errors
///
/// Propagates load/conversion errors.
pub fn runtime(p: &LbfgsProblem, convert: bool, use_tape: bool) -> Result<Runtime, RuntimeError> {
    let rt = Runtime::load(LBFGS_SRC, convert)?;
    rt.globals.set("a_mat", Value::tensor(p.a.clone()));
    rt.globals.set("b_vec", Value::tensor(p.b.clone()));
    rt.globals.set("n", Value::Int(p.n as i64));
    rt.globals.set("hist", Value::Int(HIST as i64));
    rt.globals.set("lr", Value::Float(0.5));
    rt.globals.set("gamma", Value::Float(1.0));
    rt.globals.set("use_tape", Value::Bool(use_tape));
    Ok(rt)
}

/// Run eagerly. Returns `(x, final_loss)`.
///
/// # Errors
///
/// Propagates interpreter errors.
pub fn run_eager(
    rt: &mut Runtime,
    x0: &Tensor,
    iters: usize,
) -> Result<(Tensor, f32), RuntimeError> {
    let out = rt.call(
        "lbfgs",
        vec![Value::tensor(x0.clone()), Value::Int(iters as i64)],
    )?;
    match out {
        Value::Tuple(items) => Ok((
            items[0].as_eager_tensor()?,
            items[1].as_eager_tensor()?.scalar_value_f32()?,
        )),
        other => Err(RuntimeError::new(format!(
            "expected (x, loss), got {}",
            other.kind()
        ))),
    }
}

/// Stage the optimizer loop (placeholders `x0`, `iters`).
///
/// # Errors
///
/// Propagates staging errors.
pub fn stage(rt: &mut Runtime) -> Result<autograph_runtime::StagedGraph, RuntimeError> {
    rt.stage_to_graph(
        "lbfgs",
        vec![
            GraphArg::Placeholder("x0".into()),
            GraphArg::Placeholder("iters".into()),
        ],
    )
}

/// Fresh start point.
pub fn x0(n: usize) -> Tensor {
    Tensor::zeros(DType::F32, &[n, 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograph_graph::Session;

    #[test]
    fn eager_and_staged_agree_and_converge() {
        let p = LbfgsProblem::new(6, 1, 17);
        let start = x0(p.n);
        let iters = 25;

        let mut rt = runtime(&p, false, true).unwrap();
        let (x_eager, loss_eager) = run_eager(&mut rt, &start, iters).unwrap();

        let mut rt2 = runtime(&p, true, false).unwrap();
        let staged = stage(&mut rt2).unwrap();
        let mut sess = Session::new(staged.graph);
        let out = sess
            .run(
                &[
                    ("x0", start.clone()),
                    ("iters", Tensor::scalar_i64(iters as i64)),
                ],
                &staged.outputs,
            )
            .unwrap();
        let loss_staged = out[1].scalar_value_f32().unwrap();

        assert!(
            (loss_eager - loss_staged).abs() < 1e-3 * (1.0 + loss_eager.abs()),
            "{loss_eager} vs {loss_staged}"
        );
        for (a, b) in x_eager
            .as_f32()
            .unwrap()
            .iter()
            .zip(out[0].as_f32().unwrap())
        {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }

        // converged well below the initial loss
        let initial =
            p.b.square()
                .unwrap()
                .reduce_mean(None)
                .unwrap()
                .scalar_value_f32()
                .unwrap();
        assert!(
            loss_staged < initial * 0.05,
            "no convergence: {initial} -> {loss_staged}"
        );
    }

    #[test]
    fn loss_monotone_enough() {
        // L-BFGS on a convex quadratic should decrease the loss quickly
        let p = LbfgsProblem::new(4, 4, 3);
        let mut rt = runtime(&p, false, true).unwrap();
        let (_, l3) = run_eager(&mut rt, &x0(p.n), 3).unwrap();
        let (_, l10) = run_eager(&mut rt, &x0(p.n), 10).unwrap();
        assert!(l10 <= l3 + 1e-5, "{l3} -> {l10}");
    }
}
