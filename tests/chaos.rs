//! Chaos suite: deterministic fault injection across the whole corpus.
//!
//! Every injected fault — kernel errors, allocation failures, panics,
//! pool-task delays — must surface as a structured, node- and
//! span-attributed `Err` from `Session::run` (never a process abort), on
//! the VM at `threads = 1` and `threads = 4` (kernels split over the
//! pool) and on the reference interpreter. After a faulted run, clearing
//! the plan and re-running must produce bitwise-identical results: chaos
//! must not leave residue.
//!
//! The fault plan is process-global, so every test here serializes on one
//! mutex; the driver (`scripts/ci.sh`) runs this suite as its own process
//! with two seeds (`AUTOGRAPH_CHAOS_SEED`).

use autograph::faults::{self, FaultPlan};
use autograph::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

#[path = "support/corpus.rs"]
mod corpus;
use corpus::{programs, Program};

#[path = "support/check.rs"]
mod check;
use check::assert_bitwise_eq;

#[path = "support/exec.rs"]
mod exec;
use exec::{Exec, GRID};

/// Serialize tests: `faults::install` is process-global state. Also
/// silences the default panic hook for *injected* panics — they fire on
/// pool worker threads, whose stderr libtest cannot capture, and every
/// one of them is expected and caught.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected panic fault") {
                prev(info);
            }
        }));
    });
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Clears the installed plan even when an assertion unwinds.
struct PlanGuard;
impl PlanGuard {
    fn install(spec: &str) -> PlanGuard {
        faults::install(FaultPlan::parse(spec).expect("chaos spec"));
        PlanGuard
    }
}
impl Drop for PlanGuard {
    fn drop(&mut self) {
        faults::clear();
    }
}

/// The two seeds for this process: from `AUTOGRAPH_CHAOS_SEED` when the
/// driver sets it, defaults otherwise.
fn seeds() -> [u64; 2] {
    match std::env::var("AUTOGRAPH_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
    {
        Some(s) => [s, s.wrapping_mul(6364136223846793005).wrapping_add(1)],
        None => [7, 40499],
    }
}

struct StagedProgram {
    name: &'static str,
    feeds: Vec<(&'static str, Tensor)>,
    graph: autograph::graph::Graph,
    outputs: Vec<autograph::graph::NodeId>,
}

/// Stage the whole corpus once, with no faults active.
fn stage_corpus() -> Vec<StagedProgram> {
    programs()
        .into_iter()
        .map(|p: Program| {
            let mut rt =
                Runtime::load(p.src, true).unwrap_or_else(|e| panic!("{}: load: {e}", p.name));
            let args: Vec<GraphArg> = p
                .feeds
                .iter()
                .map(|(n, _)| GraphArg::Placeholder((*n).to_string()))
                .collect();
            let staged = rt
                .stage_to_graph("f", args)
                .unwrap_or_else(|e| panic!("{}: stage: {e}", p.name));
            StagedProgram {
                name: p.name,
                feeds: p.feeds,
                graph: staged.graph,
                outputs: staged.outputs,
            }
        })
        .collect()
}

fn run_at(
    p: &StagedProgram,
    threads: usize,
    mode: Exec,
) -> Result<Vec<Tensor>, autograph::GraphError> {
    let mut sess = Session::new(p.graph.clone());
    sess.set_threads(threads);
    exec::run(
        &mut sess,
        mode,
        &p.feeds,
        &p.outputs,
        &RunOptions::default(),
    )
}

/// Kernel errors and allocation failures at every graph kernel: every run
/// must fail with a structured, attributed error on both executors.
#[test]
fn injected_kernel_errors_surface_attributed_on_both_executors() {
    let _l = chaos_lock();
    let staged = stage_corpus();
    for seed in seeds() {
        for kind in ["error", "alloc"] {
            let _g = PlanGuard::install(&format!("{kind}@graph/*:{seed}"));
            for p in &staged {
                for (mode, threads) in GRID {
                    let err = run_at(p, threads, mode).expect_err(p.name);
                    let msg = err.to_string();
                    assert!(
                        msg.contains("injected"),
                        "{}: {mode:?} t{threads}: not an injected fault: {msg}",
                        p.name
                    );
                    assert!(
                        msg.contains("(node '"),
                        "{}: {mode:?} t{threads}: missing node attribution: {msg}",
                        p.name
                    );
                    assert!(
                        msg.contains("[from original source"),
                        "{}: {mode:?} t{threads}: missing span attribution: {msg}",
                        p.name
                    );
                }
            }
        }
    }
}

/// Injected panics must be caught at the kernel boundary — never abort
/// the process, never poison the pool — and attribute like errors.
#[test]
fn injected_panics_are_isolated_on_both_executors() {
    let _l = chaos_lock();
    let staged = stage_corpus();
    for seed in seeds() {
        let _g = PlanGuard::install(&format!("panic@graph/*:{seed}"));
        for p in &staged {
            for (mode, threads) in GRID {
                let err = run_at(p, threads, mode).expect_err(p.name);
                let msg = err.to_string();
                assert!(
                    msg.contains("kernel panicked") && msg.contains("injected panic fault"),
                    "{}: {mode:?} t{threads}: {msg}",
                    p.name
                );
                assert!(
                    msg.contains("(node '") && msg.contains("[from original source"),
                    "{}: {mode:?} t{threads}: missing attribution: {msg}",
                    p.name
                );
            }
        }
    }
}

/// Probabilistic faults: a run either completes with reference-identical
/// values or fails with a well-formed injected error — nothing in between,
/// and the same seed makes the same choice every time.
#[test]
fn partial_rate_faults_fail_cleanly_or_not_at_all() {
    let _l = chaos_lock();
    let staged = stage_corpus();
    let reference: Vec<Vec<Tensor>> = staged
        .iter()
        .map(|p| {
            run_at(p, 1, Exec::Reference).unwrap_or_else(|e| panic!("{}: reference: {e}", p.name))
        })
        .collect();
    for seed in seeds() {
        let spec = format!("error@graph/*@0.02:{seed}");
        // fused groups fire their injection sites at the kernel's
        // position, so the per-site decision sequence is a per-mode
        // contract: replay within a mode must agree; modes may differ
        for mode in [Exec::Reference, Exec::Vm] {
            let mut failed = 0usize;
            for (p, r) in staged.iter().zip(&reference) {
                let outcome = {
                    let _g = PlanGuard::install(&spec);
                    run_at(p, 1, mode)
                };
                match outcome {
                    Ok(out) => assert_bitwise_eq(p.name, "survived faulted run", &out, r),
                    Err(e) => {
                        failed += 1;
                        let msg = e.to_string();
                        assert!(msg.contains("injected"), "{}: {mode:?}: {msg}", p.name);
                    }
                }
                // determinism of the injection decision itself: the counter
                // restarts at install, so the same plan re-run from scratch
                // fails (or survives) identically
                let outcome2 = {
                    let _g = PlanGuard::install(&spec);
                    run_at(p, 1, mode)
                };
                match outcome2 {
                    Ok(out) => assert_bitwise_eq(p.name, "replayed faulted run", &out, r),
                    Err(_) => assert!(failed > 0, "{}: {mode:?}: replay diverged", p.name),
                }
            }
        }
    }
}

/// Delay faults perturb pool-task timing only — values stay bitwise
/// identical on both executors.
#[test]
fn delay_faults_never_change_values() {
    let _l = chaos_lock();
    let staged = stage_corpus();
    let reference: Vec<Vec<Tensor>> = staged
        .iter()
        .map(|p| {
            run_at(p, 1, Exec::Reference).unwrap_or_else(|e| panic!("{}: reference: {e}", p.name))
        })
        .collect();
    let seed = seeds()[0];
    let _g = PlanGuard::install(&format!("delay@*/*@0.25:{seed}"));
    for (p, r) in staged.iter().zip(&reference) {
        for (mode, threads) in GRID {
            let out = run_at(p, threads, mode)
                .unwrap_or_else(|e| panic!("{}: delayed {mode:?} t{threads}: {e}", p.name));
            assert_bitwise_eq(p.name, "delayed run", &out, r);
        }
    }
}

/// After any amount of chaos, clearing the plan restores bitwise-identical
/// results at both thread counts — twice, to catch lingering state.
#[test]
fn non_faulted_reruns_are_bitwise_identical_after_chaos() {
    let _l = chaos_lock();
    let staged = stage_corpus();
    let reference: Vec<Vec<Tensor>> = staged
        .iter()
        .map(|p| {
            run_at(p, 1, Exec::Reference).unwrap_or_else(|e| panic!("{}: reference: {e}", p.name))
        })
        .collect();
    for seed in seeds() {
        {
            let _g = PlanGuard::install(&format!(
                "panic@graph/*@0.5,error@graph/*@0.5,delay@par/*@0.5:{seed}"
            ));
            for p in &staged {
                for (mode, threads) in GRID {
                    // outcome irrelevant — only that it never aborts
                    let _ = run_at(p, threads, mode);
                }
            }
        }
        // plan cleared by the guard: everything must be pristine again
        for (p, r) in staged.iter().zip(&reference) {
            for (mode, threads) in GRID {
                for rerun in 0..2 {
                    let out = run_at(p, threads, mode).unwrap_or_else(|e| {
                        panic!("{}: clean rerun {rerun} {mode:?} t{threads}: {e}", p.name)
                    });
                    assert_bitwise_eq(p.name, "clean rerun", &out, r);
                }
            }
        }
    }
}

/// Faults at the eager site surface as structured runtime errors from the
/// op-by-op interpreter too.
#[test]
fn eager_site_faults_surface_as_errors() {
    let _l = chaos_lock();
    let seed = seeds()[0];
    for kind in ["error", "panic"] {
        let mut rt = Runtime::load("def f(x):\n    return x * 2.0 + 1.0\n", true).expect("load");
        let _g = PlanGuard::install(&format!("{kind}@eager/*:{seed}"));
        let err = rt
            .call("f", vec![Value::tensor(Tensor::scalar_f32(3.0))])
            .expect_err("eager fault must surface");
        let msg = err.to_string();
        assert!(msg.contains("injected"), "{kind}: {msg}");
    }
}

/// The serve axis: faults at the `serve` site (admission, batcher,
/// respond) plus injected graph panics, under concurrent in-flight
/// requests, must yield clean HTTP error responses — never a hung
/// connection, never a poisoned session. Once the plan clears, the
/// same request serves a bitwise-identical response again.
#[test]
fn serve_faults_yield_clean_errors_never_hung_connections() {
    let _l = chaos_lock();
    use autograph_serve::client::{wait_ready, Client};
    use autograph_serve::{ModelRegistry, RegistryConfig, Server, ServerConfig};
    use std::time::{Duration, Instant};

    let src = "def f(x):\n    return x * 2.0 + 1.0\n";
    let reg_cfg = RegistryConfig {
        // `f` batchable so the batcher fault site is actually reachable
        batch_fns: Some(vec!["f".to_string()]),
        breaker_cooldown: Duration::from_millis(50),
        ..RegistryConfig::default()
    };
    let reg = ModelRegistry::load(src, &reg_cfg).expect("load");
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(reg, cfg).expect("start");
    let addr = server.addr().to_string();
    assert!(wait_ready(&addr, Duration::from_secs(10)));

    // pristine reference response
    let pre = {
        let mut c = Client::connect(&addr).expect("connect");
        let r = c.run("f", "{\"args\":[3.0]}", Some(10_000)).expect("pre");
        assert_eq!(r.status, 200, "{}", r.text());
        r.text()
    };

    for seed in seeds() {
        let _g = PlanGuard::install(&format!(
            "error@serve/admission@0.3,error@serve/respond@0.3,\
             error@serve/batcher@0.5,panic@graph/*@0.3:{seed}"
        ));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    for i in 0..8 {
                        let resp = match c.run("f", "{\"args\":[3.0]}", Some(5_000)) {
                            Ok(r) => r,
                            Err(_) => {
                                // the server closed this connection after a
                                // failed response write; reconnecting must
                                // always work — refusal yes, hanging no
                                c = Client::connect(&addr).expect("reconnect");
                                continue;
                            }
                        };
                        assert!(
                            matches!(resp.status, 200 | 500 | 503 | 504),
                            "request {i}: unclean status {}: {}",
                            resp.status,
                            resp.text()
                        );
                    }
                });
            }
        });
    }

    // chaos must leave no residue: the injected panics may have tripped
    // the breaker, so allow it its (shortened) cooldown, then demand a
    // bitwise-identical response.
    let mut c = Client::connect(&addr).expect("connect");
    let t0 = Instant::now();
    let post = loop {
        let r = c.run("f", "{\"args\":[3.0]}", Some(10_000)).expect("post");
        if r.status == 200 {
            break r.text();
        }
        assert_eq!(
            r.status,
            503,
            "only breaker cooldown may delay recovery: {}",
            r.text()
        );
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "breaker never recovered after chaos: {}",
            r.text()
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(post, pre, "post-chaos response differs from pre-chaos");
    let report = server.shutdown(Duration::from_secs(10));
    assert!(
        report.clean,
        "drain left {} request(s) in flight",
        report.abandoned
    );
}
