//! `serve_mlp`: an in-process `autograph-serve` on loopback, two
//! keep-alive clients in a closed loop posting `[1, 4]` rows to
//! `/run/predict`. The graph run is a few microseconds, so HTTP, JSON,
//! admission and session checkout dominate.
//!
//! Clients and server share the one CPU the process is pinned to (see
//! `pin.rs` for the measurements behind that), so the workload measures
//! the CPU work of a request along its whole path — client, connection
//! thread, admission queue, worker, and the context switches between
//! them — and the wait behind the other client's request. No two threads
//! ever hold or spin on a lock at the same instant.

use crate::check::{eager_tensors, ok_close};
use crate::gen::{self, MLP_ROWS, MLP_SRC};
use crate::harness::{Ctx, COLD_SHARE, WARM_SHARE};
use crate::layers::{self, RUN_REPS, STAGE_REPS};
use crate::stats::Block;
use crate::timing::{run_blocks, time_ns};
use crate::trace::Tracer;
use autograph_runtime::runtime::GraphArg;
use autograph_runtime::{Runtime, Value};
use autograph_serve::client::{Client, Response};
use autograph_serve::{
    json, reset_stage_memo, ModelRegistry, RegistryConfig, Server, ServerConfig,
};
use autograph_tensor::Tensor;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

/// Closed-loop clients. Two, so that the admission queue, the worker
/// pool and the session pool all see a second request while the first is
/// in flight.
const CLIENTS: usize = 2;
/// Requests per client per timed block, about 45 ms.
const N: usize = 1000;
/// Untimed warm-up requests per client.
const WARMUP: usize = 100;
/// Registry loads per staging block.
const STAGE_N: usize = 400;
const FN: &str = "predict";

/// Request bodies and the reference answers, generated from the seed.
struct Traffic {
    bodies: Vec<String>,
    /// Eager interpreter result per row.
    want: Vec<Vec<Tensor>>,
    /// The response text a correct server gives per row.
    expected: Vec<String>,
}

impl Traffic {
    fn new(seed: u64) -> Result<Traffic, String> {
        let mut rt = Runtime::load(MLP_SRC, false).map_err(|e| e.to_string())?;
        let (mut bodies, mut want, mut expected) = (Vec::new(), Vec::new(), Vec::new());
        for row in gen::mlp_rows(seed) {
            let x = Tensor::from_vec(row.to_vec(), &[1, 4]).map_err(|e| e.to_string())?;
            let mut body = String::from("{\"args\":[");
            json::write_tensor(&x, &mut body);
            body.push_str("]}");
            let out = rt
                .call(FN, vec![Value::tensor(x)])
                .map_err(|e| e.to_string())?;
            let out = eager_tensors(&out)?;
            bodies.push(body);
            expected.push(json::outputs_body(&out));
            want.push(out);
        }
        Ok(Traffic {
            bodies,
            want,
            expected,
        })
    }

    /// A response is correct when it is a 200 whose body is the expected
    /// text or, failing that, decodes to the reference within tolerance.
    fn correct(&self, row: usize, resp: &Response) -> bool {
        resp.status == 200
            && (resp.body == self.expected[row].as_bytes()
                || ok_close(&json::parse_outputs(&resp.text()), &self.want[row]))
    }
}

/// Client-side status counts.
#[derive(Default, Clone, Copy)]
struct Statuses {
    http_2xx: u64,
    http_4xx: u64,
    http_5xx: u64,
    shed_503: u64,
    deadline_504: u64,
    transport_errors: u64,
}

impl Statuses {
    fn record(&mut self, resp: &std::io::Result<Response>) {
        match resp {
            Err(_) => self.transport_errors += 1,
            Ok(r) => match r.status {
                200..=299 => self.http_2xx += 1,
                400..=499 => self.http_4xx += 1,
                503 => {
                    self.http_5xx += 1;
                    self.shed_503 += 1;
                }
                504 => {
                    self.http_5xx += 1;
                    self.deadline_504 += 1;
                }
                _ => self.http_5xx += 1,
            },
        }
    }

    fn add(&mut self, o: Statuses) {
        self.http_2xx += o.http_2xx;
        self.http_4xx += o.http_4xx;
        self.http_5xx += o.http_5xx;
        self.shed_503 += o.shed_503;
        self.deadline_504 += o.deadline_504;
        self.transport_errors += o.transport_errors;
    }
}

/// A running server; shut down (threads joined) when dropped.
struct Running {
    server: Option<Server>,
    addr: SocketAddr,
}

impl Running {
    /// Start serving `registry`: batching and trace sampling off, two
    /// workers.
    fn boot(registry: ModelRegistry) -> Result<Running, String> {
        let cfg = ServerConfig {
            workers: 2,
            queue_depth: 64,
            max_batch: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(registry, cfg).map_err(|e| e.to_string())?;
        Ok(Running {
            addr: server.addr(),
            server: Some(server),
        })
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown(Duration::from_secs(5));
        }
    }
}

/// Load the registry with nothing cached in the process.
fn load_registry(plan_cache: Option<std::path::PathBuf>) -> Result<ModelRegistry, String> {
    reset_stage_memo();
    ModelRegistry::load(
        MLP_SRC,
        &RegistryConfig {
            plan_cache,
            ..RegistryConfig::default()
        },
    )
}

fn request(client: &mut Client, traffic: &Traffic, row: usize) -> std::io::Result<Response> {
    client.run(FN, &traffic.bodies[row], None)
}

/// One request, counted and checked; returns whether it was correct.
fn checked(client: &mut Client, traffic: &Traffic, row: usize, statuses: &mut Statuses) -> bool {
    let resp = request(client, traffic, row);
    statuses.record(&resp);
    matches!(&resp, Ok(r) if traffic.correct(row, r))
}

/// What a series of requests was answered with.
#[derive(Default)]
struct Answers {
    /// Per request, whether the answer was correct.
    outcomes: Vec<bool>,
    statuses: Statuses,
}

/// One client's share of a block: `N` individually timed requests, rows
/// cycling from `first`; returns the raw times.
fn timed_requests(
    client: &mut Client,
    traffic: &Traffic,
    first: usize,
    tracer: &mut Tracer,
    answers: &mut Answers,
) -> Vec<f64> {
    let mut raw_ns = Vec::with_capacity(N);
    for sent in first..first + N {
        let row = sent % MLP_ROWS;
        let (resp, ns) =
            time_ns(|| tracer.span("bench.op", sent as u64, || request(client, traffic, row)));
        raw_ns.push(ns);
        answers.statuses.record(&resp);
        answers
            .outcomes
            .push(matches!(&resp, Ok(r) if traffic.correct(row, r)));
    }
    raw_ns
}

/// The timed run: `CLIENTS` threads, every block entered and left through
/// a barrier. The calling thread is one of the clients and runs the block
/// loop; it calibrates while the others wait at the barrier, so
/// calibration never competes with a request for the CPU.
fn closed_loop(
    ctx: &mut Ctx,
    addr: SocketAddr,
    traffic: &Traffic,
) -> Result<(Vec<Block>, Answers), String> {
    let plan = ctx.run_plan(ctx.run_share());
    let mut clients = (0..CLIENTS)
        .map(|_| Client::connect(addr))
        .collect::<std::io::Result<Vec<Client>>>()
        .map_err(|e| format!("connect to {addr}: {e}"))?;
    let mut leader = clients.remove(0);
    let barrier = Barrier::new(CLIENTS);
    let done = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(Vec<f64>, Answers)>();

    std::thread::scope(|scope| {
        for (k, mut client) in (1..).zip(clients) {
            let (barrier, done, tx) = (&barrier, &done, tx.clone());
            scope.spawn(move || {
                let mut untraced = Tracer::new(false);
                for block in 0.. {
                    barrier.wait();
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    let mut answers = Answers::default();
                    let first = k * 31 + block * N;
                    let raw_ns =
                        timed_requests(&mut client, traffic, first, &mut untraced, &mut answers);
                    barrier.wait();
                    // the leader waits for exactly one message per block
                    let _ = tx.send((raw_ns, answers));
                }
            });
        }
        let mut answers = Answers::default();
        let blocks = run_blocks(&mut ctx.cal, &mut ctx.tracer, plan, |tracer, block| {
            barrier.wait();
            let t0 = Instant::now();
            let first = block as usize * N;
            let mut raw_ns = timed_requests(&mut leader, traffic, first, tracer, &mut answers);
            barrier.wait();
            let wall_ns = t0.elapsed().as_nanos() as f64;
            for (theirs, a) in rx.iter().take(CLIENTS - 1) {
                raw_ns.extend(theirs);
                answers.outcomes.extend(a.outcomes);
                answers.statuses.add(a.statuses);
            }
            (raw_ns, Some(wall_ns))
        });
        done.store(true, Ordering::SeqCst);
        barrier.wait();
        Ok((blocks, answers))
    })
}

/// Run the workload.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let traffic = Traffic::new(ctx.seed)?;
    let mut statuses = Statuses::default();

    // set-up: stage the program, boot, connect, warm every client up
    let running = {
        let traffic = &traffic;
        let mut warmup_statuses = Statuses::default();
        let running = ctx.measure_setup(
            || {
                let running = Running::boot(load_registry(None)?)?;
                let addr = running.addr;
                let warm = |k: usize| {
                    move || -> Result<(Vec<bool>, Statuses), String> {
                        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                        let mut st = Statuses::default();
                        let ok = (0..WARMUP)
                            .map(|i| {
                                checked(&mut client, traffic, (k * 31 + i) % MLP_ROWS, &mut st)
                            })
                            .collect();
                        Ok((ok, st))
                    }
                };
                let results: Vec<_> = std::thread::scope(|scope| {
                    let threads: Vec<_> = (0..CLIENTS).map(|k| scope.spawn(warm(k))).collect();
                    threads.into_iter().map(|t| t.join()).collect()
                });
                let mut outcomes = Vec::new();
                for r in results {
                    let (ok, st) = r.map_err(|_| "warm-up thread panicked".to_string())??;
                    outcomes.extend(ok);
                    warmup_statuses.add(st);
                }
                Ok((running, outcomes))
            },
            // a response is compared to its expected text as it arrives
            // (a byte comparison), so the outcomes are already known
            |outcomes| outcomes,
        )?;
        statuses.add(warmup_statuses);
        running
    };

    // the timed run
    let (blocks, answers) = closed_loop(ctx, running.addr, &traffic)?;
    answers.outcomes.iter().for_each(|ok| ctx.tally.record(*ok));
    statuses.add(answers.statuses);
    ctx.report_run(&blocks, (N * CLIENTS) as f64);

    // cold staging: registry load with no memo and no plan cache
    ctx.measure_stage(
        "stage_cold_ms",
        "serve.registry_load",
        STAGE_N,
        COLD_SHARE,
        |_, _| load_registry(None),
        |reg, _| Some(reg.get(FN).is_some()),
    );

    // counted pass: one client, one request in flight. A worker drops
    // what it holds of a request after the answer has gone out, so the
    // client pauses until the server's threads have all gone idle: without
    // the pause the next request's tensors were at times allocated first
    // and the ledger's peak read 80 bytes instead of 64 in 6 runs of 30.
    let mut client = Client::connect(running.addr).map_err(|e| e.to_string())?;
    let mut row = 0;
    ctx.measure_allocs(|| {
        row = (row + 1) % MLP_ROWS;
        let ok = checked(&mut client, &traffic, row, &mut statuses);
        std::thread::sleep(Duration::from_millis(1));
        ok
    });

    if ctx.trace {
        // warm staging: no memo, populated plan cache
        let cache = ctx.scratch.join("plan-cache");
        load_registry(Some(cache.clone()))?;
        ctx.measure_stage(
            "stage_warm_ms",
            "bench.stage_warm",
            STAGE_N * 2,
            WARM_SHARE,
            |_, _| load_registry(Some(cache.clone())),
            |reg, _| Some(reg.get(FN).is_some()),
        );
        layers(ctx, &mut client, &traffic, &mut statuses)?;
    }
    let m = &mut ctx.metrics;
    let total = ctx.tally.attempted as usize;
    m.set("serve.http_2xx", statuses.http_2xx as f64, total);
    m.set("serve.http_4xx", statuses.http_4xx as f64, total);
    m.set("serve.http_5xx", statuses.http_5xx as f64, total);
    m.set("serve.shed_503", statuses.shed_503 as f64, total);
    m.set("serve.deadline_504", statuses.deadline_504 as f64, total);
    m.set(
        "serve.transport_errors",
        statuses.transport_errors as f64,
        total,
    );
    Ok(())
}

/// The serving layers: what one request costs outside HTTP (JSON decode,
/// session run, JSON encode), the rest of the round trip, boot and
/// scrape costs, and the staging layers under the registry.
fn layers(
    ctx: &mut Ctx,
    client: &mut Client,
    traffic: &Traffic,
    statuses: &mut Statuses,
) -> Result<(), String> {
    ctx.span_metric("serve.registry_load_us", "serve.registry_load");
    // boot: Server::start until /healthz answers
    for rep in 0..10 {
        let registry = load_registry(None)?;
        ctx.tracer.enter("serve.boot", rep);
        let booted = Running::boot(registry)?;
        let ready =
            Client::connect(booted.addr).and_then(|mut c| c.request("GET", "/healthz", "", ""));
        ctx.tracer.exit();
        ctx.tally.record(matches!(ready, Ok(r) if r.status == 200));
    }
    ctx.span_metric("serve.boot_us", "serve.boot");

    let mut ok = true;
    ctx.probe_metric("serve.healthz_us", "serve.healthz", RUN_REPS * 4, || {
        ok &= matches!(client.request("GET", "/healthz", "", ""), Ok(r) if r.status == 200);
    });
    ctx.probe_metric(
        "serve.metrics_scrape_us",
        "serve.metrics_scrape",
        20,
        || {
            ok &= matches!(client.request("GET", "/metrics", "", ""), Ok(r) if r.status == 200);
        },
    );
    // one sequential client: the round trip without contention
    let mut row = 0;
    let request_us = ctx.probe("serve.request", RUN_REPS * 10, || {
        row = (row + 1) % MLP_ROWS;
        ok &= checked(client, traffic, row, statuses);
    });
    ctx.tally.record(ok);

    // the same bodies through the layers under HTTP, one at a time
    let registry = ModelRegistry::load(MLP_SRC, &RegistryConfig::default())?;
    let entry = registry.get(FN).ok_or("predict is not served")?;
    let args = json::parse_run_request(&traffic.bodies[0])?;
    let feeds = autograph_serve::registry::feeds(&entry.arg_names, &args);
    let outs = entry
        .with_session(|s| s.run(&feeds, &entry.outputs))
        .map_err(|e| e.to_string())?;
    let parse_us = ctx.probe_metric(
        "serve.json_parse_us",
        "serve.json_parse",
        RUN_REPS * 4,
        || json::parse_run_request(&traffic.bodies[0]),
    );
    let run_us = ctx.probe_metric(
        "serve.session_run_us",
        "serve.session_run",
        RUN_REPS * 4,
        || entry.with_session(|s| s.run(&feeds, &entry.outputs)),
    );
    let encode_us = ctx.probe_metric(
        "serve.json_encode_us",
        "serve.json_encode",
        RUN_REPS * 4,
        || json::outputs_body(&outs),
    );
    let m = &mut ctx.metrics;
    m.set(
        "serve.overhead_us",
        request_us - parse_us - run_us - encode_us,
        RUN_REPS * 10,
    );
    m.set("graph.run_us", run_us, RUN_REPS * 4);
    m.set("graph.overhead_us", run_us, RUN_REPS * 4);

    // staging layers under the registry, phase by phase
    layers::frontend_probe(ctx, &[MLP_SRC], STAGE_REPS)?;
    let mut ready = None;
    for rep in 0..STAGE_REPS {
        ready = Some(layers::cold_stage(
            &mut ctx.tracer,
            rep as u64,
            &|| Runtime::load(MLP_SRC, true),
            |rt| rt.stage_to_graph(FN, vec![GraphArg::Placeholder("x".into())]),
        )?);
    }
    let mut ready = ready.ok_or("no staging repetition ran")?;
    layers::staging_metrics(ctx, &ready, "serve.registry_load");
    layers::artifact_probe(ctx, &ready.unit, 0x5E_47E)?;
    let mut fresh = layers::install(&ready.unit)?;
    let x = [("x", args[0].clone())];
    ctx.probe_metric("graph.first_run_us", "graph.first_run", 1, || {
        fresh.run(&x, &ready.outputs)
    });
    ctx.tally.record(ok_close(&ready.run(&x), &traffic.want[0]));
    let mut eager_rt = Runtime::load(MLP_SRC, false).map_err(|e| e.to_string())?;
    let eager_us = ctx.probe_metric("eager.call_us", "eager.call", RUN_REPS, || {
        eager_rt.call(FN, vec![Value::tensor(args[0].clone())])
    });
    ctx.metrics
        .set("eager.graph_speedup", eager_us / run_us, RUN_REPS);
    layers::kernel_probe(ctx, (1, 4, 4), 4);
    layers::dispatch_probe(ctx)?;
    Ok(())
}
