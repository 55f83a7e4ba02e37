//! Multi-oracle differential harness.
//!
//! One generated (or replayed) program is pushed through every backend
//! configuration the repo supports, in a fixed order, and the first
//! disagreement is reported with the oracle that caught it:
//!
//! | oracle | checks |
//! |---|---|
//! | `convert-load` | conversion + module load succeeds |
//! | `eager-run` | the eager interpreter runs the program |
//! | `stage` | staging to a dataflow graph succeeds |
//! | `graph-run-tN` | the staged graph runs at `N` threads |
//! | `eager-vs-graph` | eager and graph agree to 1e-6 |
//! | `graph-bitwise` | all thread counts agree **bitwise** |
//! | `vm-vs-interp` | the bytecode VM reproduces the reference interpreter **bitwise** |
//! | `rerun-determinism` | running the same session twice is bitwise-stable |
//! | `restage-determinism` | staging twice gives bitwise-identical results |
//! | `warm-vs-cold` | a plan-store round trip reproduces cold staging **bitwise**: results at every thread count, warnings, and provenance chains |
//! | `explain` / `explain-attribution` | the explain layer renders and ≥95% of executed nodes carry source spans (gated) |
//! | `eager-vs-lantern` | the Lantern backend agrees to 1e-6 (gated) |
//! | `fd-grad` | tape gradient matches central finite differences (gated) |
//! | `hang` | the whole pipeline finished inside the watchdog budget |
//!
//! Oracle *names* are stable identifiers: the shrinker accepts a
//! reduction step only if the reduced program still fails the **same**
//! oracle, and regression files record the name in their header.

use crate::compare;
use autograph::lantern;
use autograph::prelude::*;
use autograph::RunOptions;
use autograph_tensor::Tensor as T;
use std::time::Duration;

/// One generated test case: a PyLite program plus its feeds and the
/// oracle gates the generator derived from the constructs it used.
#[derive(Debug, Clone)]
pub struct GenCase {
    /// The seed that produced this case (0 for hand-written replays).
    pub seed: u64,
    /// PyLite source defining `def f(...)`.
    pub src: String,
    /// Feed tensors, in parameter order.
    pub feeds: Vec<(String, Tensor)>,
    /// Whether the op set is inside the Lantern backend's support.
    pub lantern_ok: bool,
    /// Whether the program is smooth enough for finite-difference
    /// gradient checking (no branches/kinks, single output).
    pub differentiable: bool,
}

/// Which oracles to run and how strictly.
#[derive(Debug, Clone)]
pub struct OracleCfg {
    /// Absolute tolerance for cross-backend value agreement.
    pub tol: f32,
    /// Thread counts to run the staged graph at; the first entry is the
    /// reference (compared against eager), the rest must match it
    /// bitwise.
    pub threads: Vec<usize>,
    /// Run the Lantern oracle on `lantern_ok` cases.
    pub check_lantern: bool,
    /// Run the finite-difference gradient oracle on `differentiable`
    /// cases.
    pub check_grad: bool,
    /// Stage a second time and require bitwise-identical results.
    pub check_restage: bool,
    /// Round-trip the compiled plan through the persistent plan store
    /// and require the warm path to reproduce the cold path bitwise
    /// (results, warnings, provenance chains) at every thread count.
    pub check_warm_cold: bool,
    /// Run the explain layer and require well-formed output with ≥95%
    /// node-to-span attribution.
    pub check_explain: bool,
    /// Safety net for staged loops (generated loops terminate by
    /// construction; shrunk mutants may not).
    pub max_while_iters: u64,
}

impl Default for OracleCfg {
    fn default() -> Self {
        OracleCfg {
            tol: compare::DEFAULT_TOL,
            threads: vec![1, 4],
            check_lantern: true,
            check_grad: true,
            check_restage: true,
            check_warm_cold: true,
            check_explain: true,
            max_while_iters: 100_000,
        }
    }
}

/// A reproducible oracle failure.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Stable oracle identifier (see the module table).
    pub oracle: String,
    /// Human-readable description of the first mismatch.
    pub detail: String,
}

/// Result of pushing one case through the oracle pipeline.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Every applicable oracle agreed.
    Pass,
    /// The program legitimately produced non-finite values eagerly;
    /// value comparisons would be meaningless, so the case is skipped
    /// (counted separately so a generator gating bug shows up as a
    /// skip-rate spike, not silence).
    NonFinite,
    /// An oracle caught a divergence.
    Fail(Divergence),
}

impl Outcome {
    /// The failing oracle's name, if this outcome is a failure.
    pub(crate) fn failing_oracle(&self) -> Option<&str> {
        match self {
            Outcome::Fail(d) => Some(&d.oracle),
            _ => None,
        }
    }
}

fn fail(oracle: &str, detail: impl std::fmt::Display) -> Outcome {
    Outcome::Fail(Divergence {
        oracle: oracle.to_string(),
        detail: detail.to_string(),
    })
}

/// Flatten an eager call result into a tensor list.
fn flatten_value(v: Value) -> Result<Vec<T>, String> {
    match v {
        Value::Tuple(items) => items
            .iter()
            .map(|x| {
                x.as_eager_tensor()
                    .map_err(|e| format!("non-tensor output: {e}"))
            })
            .collect(),
        single => Ok(vec![single
            .as_eager_tensor()
            .map_err(|e| format!("non-tensor output: {e}"))?]),
    }
}

fn flatten_lvalue(v: lantern::value::LValue) -> Result<Vec<T>, String> {
    match v {
        lantern::value::LValue::Tuple(items) => items
            .iter()
            .map(|x| {
                x.as_tensor()
                    .cloned()
                    .map_err(|e| format!("non-tensor lantern output: {e}"))
            })
            .collect(),
        single => Ok(vec![single
            .as_tensor()
            .map_err(|e| format!("non-tensor lantern output: {e}"))?
            .clone()]),
    }
}

/// Run the full oracle pipeline on one case. See the module docs for
/// the oracle order; the first failure wins.
pub fn check(case: &GenCase, cfg: &OracleCfg) -> Outcome {
    check_src(
        &case.src,
        &case.feeds,
        case.lantern_ok,
        case.differentiable,
        cfg,
    )
}

/// [`check`] over borrowed parts — the shrinker calls this with mutated
/// sources against the original feeds/gates.
pub fn check_src(
    src: &str,
    feeds: &[(String, Tensor)],
    lantern_ok: bool,
    differentiable: bool,
    cfg: &OracleCfg,
) -> Outcome {
    // 1. convert + load
    let mut rt = match Runtime::load(src, true) {
        Ok(rt) => rt,
        Err(e) => return fail("convert-load", e),
    };

    // 2. eager reference
    let eager_args: Vec<Value> = feeds
        .iter()
        .map(|(_, t)| Value::tensor(t.clone()))
        .collect();
    let eager = match rt.call("f", eager_args) {
        Ok(v) => v,
        Err(e) => return fail("eager-run", e),
    };
    let eager_flat = match flatten_value(eager) {
        Ok(ts) => ts,
        Err(e) => return fail("eager-run", e),
    };
    if !compare::all_finite(&eager_flat) {
        return Outcome::NonFinite;
    }

    // 3. stage to graph
    let placeholder_args: Vec<GraphArg> = feeds
        .iter()
        .map(|(n, _)| GraphArg::Placeholder(n.clone()))
        .collect();
    let staged = match rt.stage_to_graph("f", placeholder_args.clone()) {
        Ok(s) => s,
        Err(e) => return fail("stage", e),
    };

    // 4. graph at every configured thread count
    let feed_refs: Vec<(&str, Tensor)> =
        feeds.iter().map(|(n, t)| (n.as_str(), t.clone())).collect();
    let opts = RunOptions {
        max_while_iters: Some(cfg.max_while_iters),
        ..RunOptions::default()
    };
    let mut per_thread: Vec<(usize, Vec<T>)> = Vec::new();
    for &n in &cfg.threads {
        let mut sess = Session::new(staged.graph.clone());
        sess.set_threads(n);
        match sess.run_with_options(&feed_refs, &staged.outputs, &opts) {
            Ok(out) => per_thread.push((n, out)),
            Err(e) => return fail(&format!("graph-run-t{n}"), e),
        }
    }
    let Some((t0, ref_out)) = per_thread.first().cloned() else {
        return fail("graph-run", "no thread counts configured");
    };

    // 5. eager vs graph (tolerance)
    if let Err(e) = compare::close("eager vs graph", &eager_flat, &ref_out, cfg.tol) {
        return fail("eager-vs-graph", e);
    }

    // 6. cross-thread bitwise determinism
    for (n, out) in &per_thread[1..] {
        if let Err(e) = compare::bitwise(&format!("graph t{t0} vs t{n}"), &ref_out, out) {
            return fail("graph-bitwise", e);
        }
    }

    // 6b. VM vs interpreter: the VM (register bytecode, fused
    // elementwise kernels, buffer recycling) is pure cost model — the
    // step-4 result must reproduce op-by-op reference dispatch bit for
    // bit
    let mut reference = Session::new(staged.graph.clone());
    reference.set_threads(t0);
    let interp = reference
        .run_values_reference(&feed_refs, &staged.outputs, &opts)
        .and_then(|vs| vs.iter().map(|v| v.as_tensor().cloned()).collect());
    let interp: Vec<T> = match interp {
        Ok(o) => o,
        Err(e) => return fail("vm-vs-interp", e),
    };
    if let Err(e) = compare::bitwise("vm vs interp", &interp, &ref_out) {
        return fail("vm-vs-interp", e);
    }

    // 7. rerun determinism: same session, same plan, run again
    if let Some(&last) = cfg.threads.last() {
        let mut sess = Session::new(staged.graph.clone());
        sess.set_threads(last);
        let a = match sess.run_with_options(&feed_refs, &staged.outputs, &opts) {
            Ok(out) => out,
            Err(e) => return fail("rerun-determinism", e),
        };
        let b = match sess.run_with_options(&feed_refs, &staged.outputs, &opts) {
            Ok(out) => out,
            Err(e) => return fail("rerun-determinism", e),
        };
        if let Err(e) = compare::bitwise("rerun", &a, &b) {
            return fail("rerun-determinism", e);
        }
    }

    // 8. idempotent staging: stage the same function again, run at the
    // reference thread count, require bitwise-identical results
    if cfg.check_restage {
        match rt.stage_to_graph("f", placeholder_args) {
            Ok(staged2) => {
                let mut sess = Session::new(staged2.graph);
                sess.set_threads(t0);
                match sess.run_with_options(&feed_refs, &staged2.outputs, &opts) {
                    Ok(out) => {
                        if let Err(e) = compare::bitwise("restage", &ref_out, &out) {
                            return fail("restage-determinism", e);
                        }
                    }
                    Err(e) => return fail("restage-determinism", e),
                }
            }
            Err(e) => return fail("restage-determinism", e),
        }
    }

    // 8b. warm-vs-cold: persist the compiled plan, reload it, and
    // require the warm function to be indistinguishable from the cold
    // one — results bitwise at every thread count, identical warnings,
    // identical graphs (provenance chains included, via Graph's
    // PartialEq)
    if cfg.check_warm_cold {
        if let Outcome::Fail(d) = check_warm_cold(src, feeds, cfg) {
            return Outcome::Fail(d);
        }
    }

    // 9. explain layer: the provenance/attribution pipeline must accept
    // every program the differential pipeline accepts, produce parseable
    // DOT, and attribute ≥95% of executed nodes to source spans
    if cfg.check_explain {
        let opts = autograph_explain::ExplainOptions {
            func: "f".to_string(),
            threads: *cfg.threads.first().unwrap_or(&1),
            runs: 1,
        };
        match autograph_explain::explain_source(src, feeds, &opts) {
            Ok(ex) => {
                if ex.staged.is_some() {
                    if ex.coverage.node_fraction() < 0.95 {
                        return fail(
                            "explain-attribution",
                            format!(
                                "only {}/{} executed nodes carry source spans",
                                ex.coverage.attributed_nodes, ex.coverage.total_nodes
                            ),
                        );
                    }
                    if !ex.plan_dot().starts_with("digraph") {
                        return fail("explain", "plan DOT is not a digraph");
                    }
                }
                if ex.annotated_source().is_empty() || ex.summary().is_empty() {
                    return fail("explain", "empty render");
                }
            }
            Err(e) => return fail("explain", e),
        }
    }

    // 10. Lantern (gated on the generator's op-support flag)
    if lantern_ok && cfg.check_lantern {
        let lantern_args: Vec<LanternArg> = feeds
            .iter()
            .map(|(n, _)| LanternArg::Extern(n.clone()))
            .collect();
        match rt.stage_to_lantern("f", lantern_args) {
            Ok(program) => {
                let engine = lantern::Engine::new(program);
                match engine.run(&feed_refs, &[]) {
                    Ok(out) => match flatten_lvalue(out) {
                        Ok(lantern_flat) => {
                            if let Err(e) = compare::close(
                                "eager vs lantern",
                                &eager_flat,
                                &lantern_flat,
                                cfg.tol,
                            ) {
                                return fail("eager-vs-lantern", e);
                            }
                        }
                        Err(e) => return fail("eager-vs-lantern", e),
                    },
                    Err(e) => return fail("eager-vs-lantern", e),
                }
            }
            Err(e) => return fail("eager-vs-lantern", e),
        }
    }

    // 11. finite-difference gradient of a scalarized loss w.r.t. the
    // first parameter, vs the eager tape
    if differentiable && cfg.check_grad {
        if let Outcome::Fail(d) = check_gradient(src, feeds, &eager_flat, cfg) {
            return Outcome::Fail(d);
        }
    }

    Outcome::Pass
}

/// Gradient oracle: wrap `f` in a scalar loss, differentiate it with
/// the eager tape, and compare against central finite differences.
/// Non-finite gradients (the loss wandered into saturation) skip the
/// check rather than failing it.
fn check_gradient(
    src: &str,
    feeds: &[(String, Tensor)],
    eager_flat: &[T],
    _cfg: &OracleCfg,
) -> Outcome {
    let params: Vec<&str> = feeds.iter().map(|(n, _)| n.as_str()).collect();
    let plist = params.join(", ");
    // the first output's rank decides how the loss is scalarized
    let scalarize = if eager_flat[0].shape().is_empty() {
        "tf.square(r)".to_string()
    } else {
        "tf.reduce_sum(tf.square(r))".to_string()
    };
    let wrapper = format!(
        "\ndef gp_loss({plist}):\n    r = f({plist})\n    return {scalarize}\n\n\
         def gp_loss_tape({plist}):\n    tf.tape_begin()\n    {p0} = tf.watch({p0})\n    \
         r = f({plist})\n    l = {scalarize}\n    g = tf.grad(l, [{p0}])\n    return g[0]\n",
        p0 = params[0],
    );
    let full = format!("{src}{wrapper}");
    let mut rt = match Runtime::load(&full, true) {
        Ok(rt) => rt,
        Err(e) => return fail("fd-grad", format!("loss wrapper load: {e}")),
    };

    // eager tape gradient
    let tape_args: Vec<Value> = feeds
        .iter()
        .map(|(_, t)| Value::tensor(t.clone()))
        .collect();
    let tape = match rt.call("gp_loss_tape", tape_args) {
        Ok(v) => v,
        Err(e) => return fail("fd-grad", format!("tape: {e}")),
    };
    let tape = match tape.as_eager_tensor() {
        Ok(t) => t,
        Err(e) => return fail("fd-grad", format!("tape result: {e}")),
    };
    let tape_vals = tape.to_f32_vec();
    if !tape_vals.iter().all(|v| v.is_finite()) {
        return Outcome::Pass; // saturated — FD would be meaningless
    }

    // central finite differences w.r.t. feeds[0]
    let eps = 5e-3f32;
    let base = feeds[0].1.to_f32_vec();
    let shape = feeds[0].1.shape().to_vec();
    if tape_vals.len() != base.len() {
        return fail(
            "fd-grad",
            format!(
                "grad arity: tape {} vs param {}",
                tape_vals.len(),
                base.len()
            ),
        );
    }
    let mut eval = |bumped: Vec<f32>| -> Result<f32, String> {
        let t = Tensor::from_vec(bumped, &shape).map_err(|e| e.to_string())?;
        let mut args: Vec<Value> = Vec::with_capacity(feeds.len());
        args.push(Value::tensor(t));
        for (_, t) in &feeds[1..] {
            args.push(Value::tensor(t.clone()));
        }
        let v = rt.call("gp_loss", args).map_err(|e| e.to_string())?;
        let t = v.as_eager_tensor().map_err(|e| e.to_string())?;
        t.scalar_value_f32().map_err(|e| e.to_string())
    };
    for i in 0..base.len() {
        let mut plus = base.clone();
        plus[i] += eps;
        let mut minus = base.clone();
        minus[i] -= eps;
        let (lp, lm) = match (eval(plus), eval(minus)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => return fail("fd-grad", format!("fd eval: {e}")),
        };
        if !lp.is_finite() || !lm.is_finite() {
            return Outcome::Pass; // bumped into saturation — skip
        }
        let fd = (lp - lm) / (2.0 * eps);
        let tol = 3e-2 * fd.abs().max(tape_vals[i].abs()).max(1.0);
        if (fd - tape_vals[i]).abs() > tol {
            return fail(
                "fd-grad",
                format!(
                    "d loss/d {}[{i}]: tape {} vs fd {fd} (tol {tol})",
                    feeds[0].0, tape_vals[i]
                ),
            );
        }
    }
    Outcome::Pass
}

/// Warm-vs-cold oracle: compile through the persistent plan store
/// twice (cold populate, warm reload) and require the warm function to
/// be indistinguishable from the cold one. "Indistinguishable" means:
/// identical conversion warnings, an identical optimized graph
/// (provenance chains ride in the graph's nodes, so `Graph`'s
/// `PartialEq` covers them), and bitwise-identical call results at
/// every configured thread count.
///
/// The cached pipeline additionally runs shape validation and unit
/// compilation; a program it rejects that plain staging accepted is a
/// validator-strictness question, not a cache defect, so those cases
/// skip rather than fail.
fn check_warm_cold(src: &str, feeds: &[(String, Tensor)], cfg: &OracleCfg) -> Outcome {
    use autograph::runtime::plan_cache::compile_cached_with;
    use autograph_planstore::{content_hash, PlanStore, VERSION_TAG};

    let arg_names: Vec<&str> = feeds.iter().map(|(n, _)| n.as_str()).collect();
    let dir = std::env::temp_dir().join(format!(
        "agplan-genprog-{}-{:016x}",
        std::process::id(),
        content_hash(src, "oracle")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = match PlanStore::open(&dir) {
        Ok(s) => s,
        // an unwritable temp dir is an environment problem, not a cache bug
        Err(_) => return Outcome::Pass,
    };
    let cleanup = || {
        let _ = std::fs::remove_dir_all(&dir);
    };

    let cold = match compile_cached_with(src, "f", &arg_names, Some(&store), VERSION_TAG) {
        Ok(a) => a,
        Err(_) => {
            cleanup();
            return Outcome::Pass; // rejected by the stricter cached pipeline
        }
    };
    if cold.from_cache {
        cleanup();
        return fail("warm-vs-cold", "fresh store reported a cache hit");
    }
    let warm = match compile_cached_with(src, "f", &arg_names, Some(&store), VERSION_TAG) {
        Ok(a) => a,
        Err(e) => {
            cleanup();
            return fail("warm-vs-cold", format!("warm reload failed: {e}"));
        }
    };
    if !warm.from_cache {
        cleanup();
        return fail(
            "warm-vs-cold",
            "populated store missed — artifact not written back or not found",
        );
    }

    // conversion warnings must replay verbatim from the artifact
    if cold.warnings.len() != warm.warnings.len() {
        cleanup();
        return fail(
            "warm-vs-cold",
            format!(
                "warning count: cold {} vs warm {}",
                cold.warnings.len(),
                warm.warnings.len()
            ),
        );
    }
    for (i, (a, b)) in cold.warnings.iter().zip(&warm.warnings).enumerate() {
        if a.function != b.function
            || a.span != b.span
            || a.reason != b.reason
            || a.source_line != b.source_line
        {
            cleanup();
            return fail(
                "warm-vs-cold",
                format!("warning[{i}]: cold {a:?} vs warm {b:?}"),
            );
        }
    }

    // optimized graph + provenance chains survive the round trip
    if cold.func.graph() != warm.func.graph() {
        cleanup();
        return fail(
            "warm-vs-cold",
            "optimized graph (or its provenance chains) changed across the store round trip",
        );
    }

    // bitwise-identical results at every configured thread count
    let feed_tensors: Vec<Tensor> = feeds.iter().map(|(_, t)| t.clone()).collect();
    let (mut cf, mut wf) = (cold.func, warm.func);
    for &n in &cfg.threads {
        cf.set_threads(n);
        wf.set_threads(n);
        match (cf.call(&feed_tensors), wf.call(&feed_tensors)) {
            (Ok(a), Ok(b)) => {
                if let Err(e) = compare::bitwise(&format!("warm vs cold t{n}"), &a, &b) {
                    cleanup();
                    return fail("warm-vs-cold", e);
                }
            }
            (Err(a), Err(b)) => {
                if a.to_string() != b.to_string() {
                    cleanup();
                    return fail(
                        "warm-vs-cold",
                        format!("t{n}: cold error {a:?} vs warm error {b:?}"),
                    );
                }
            }
            (Ok(_), Err(e)) => {
                cleanup();
                return fail("warm-vs-cold", format!("t{n}: cold ran, warm failed: {e}"));
            }
            (Err(e), Ok(_)) => {
                cleanup();
                return fail("warm-vs-cold", format!("t{n}: warm ran, cold failed: {e}"));
            }
        }
    }

    cleanup();
    Outcome::Pass
}

/// [`check_src`] under a wall-clock watchdog. Shrink mutants can turn a
/// terminating loop into an infinite one (e.g. by deleting a counter
/// increment); the eager interpreter has no fuel limit, so the check
/// runs on a helper thread and a timeout is reported as the stable
/// oracle name `hang`. The stuck thread is detached — acceptable for a
/// short-lived fuzz/shrink process, which exits soon after.
pub(crate) fn check_src_watchdog(
    src: &str,
    feeds: &[(String, Tensor)],
    lantern_ok: bool,
    differentiable: bool,
    cfg: &OracleCfg,
    timeout: Duration,
) -> Outcome {
    let (tx, rx) = std::sync::mpsc::channel();
    let src = src.to_string();
    let feeds = feeds.to_vec();
    let cfg = cfg.clone();
    std::thread::spawn(move || {
        let out = check_src(&src, &feeds, lantern_ok, differentiable, &cfg);
        let _ = tx.send(out);
    });
    match rx.recv_timeout(timeout) {
        Ok(out) => out,
        Err(_) => fail("hang", format!("no verdict within {timeout:?}")),
    }
}
