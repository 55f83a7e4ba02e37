//! The server proper: acceptor, connection threads, executor workers,
//! and the drain choreography that ties SIGTERM to "finish what you
//! started, refuse the rest".
//!
//! ## Thread anatomy
//!
//! ```text
//! acceptor ── spawns ──► connection thread (≤ max_connections)
//!                          │  parse HTTP, decode args, breaker check
//!                          │  try_admit ──► AdmissionQueue ◄── pop ── worker × N
//!                          │                                     │ batch? run graph
//!                          ◄───────────── mpsc response ─────────┘
//! ```
//!
//! Connection threads never execute graphs; workers never touch
//! sockets. The queue between them is the only coupling, so overload
//! shows up as queue depth — which admission turns into 503s — instead
//! of unbounded thread pileup or latency.

use crate::admission::{AdmissionQueue, Job};
use crate::batch;
use crate::breaker::Admit;
use crate::error::ServeError;
use crate::http::{HttpConn, ReadError, Request};
use crate::json;
use crate::prom::PromWriter;
use crate::registry::{feeds, FnEntry, ModelRegistry};
use crate::telemetry::{FnMetrics, RequestTrace, Telemetry, TelemetryConfig};
use autograph_graph::run::{CancelToken, RunOptions};
use autograph_obs::json::write_str;
use autograph_obs::metrics::{AtomicHistogram, HistSnapshot};
use autograph_obs::{FanoutRecorder, Recorder};
use autograph_planstore::stats as plan_store;
use autograph_tensor::error::panic_message;
use autograph_tensor::mem::snapshot as ledger;
use autograph_tensor::Tensor;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning. `Default` is sized for a small container.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Executor workers (graph runs in flight).
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_depth: usize,
    /// Concurrent connections; beyond this, accepts are refused at the
    /// socket (the listener simply stops accepting).
    pub max_connections: usize,
    /// Deadline applied when a request carries no `X-Deadline-Ms`.
    pub default_deadline: Duration,
    /// Largest accepted request body.
    pub max_body: usize,
    /// Largest batch the worker will assemble (which functions are
    /// batchable at all is decided at registry load, see
    /// [`crate::registry::RegistryConfig::batch_fns`]).
    pub max_batch: usize,
    /// Telemetry plane tuning (trace sampling, ring size, SLO).
    pub telemetry: TelemetryConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            max_connections: 64,
            default_deadline: Duration::from_secs(10),
            max_body: 8 * 1024 * 1024,
            max_batch: 16,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Counters beyond admission's, exported via `/stats`.
#[derive(Default)]
pub(crate) struct ServerStats {
    /// Responses written, by class.
    pub resp_2xx: AtomicU64,
    /// 4xx responses (bad request / unknown function / cancelled-499).
    pub resp_4xx: AtomicU64,
    /// 5xx responses (shed, breaker, graph errors, deadline).
    pub resp_5xx: AtomicU64,
    /// Batched runs executed.
    pub batches: AtomicU64,
    /// Total members across batched runs.
    pub batch_members: AtomicU64,
    /// Batched runs that fell back to individual execution.
    pub batch_fallbacks: AtomicU64,
    /// Runs cancelled because the client disconnected.
    pub cancelled: AtomicU64,
    /// Worker panics contained into 500s.
    pub worker_panics: AtomicU64,
}

struct Shared {
    registry: ModelRegistry,
    queue: AdmissionQueue,
    cfg: ServerConfig,
    draining: AtomicBool,
    conns: AtomicUsize,
    inflight: AtomicUsize,
    stats: ServerStats,
    started: Instant,
    tel: Arc<Telemetry>,
}

/// A running server. Dropping it without [`Server::shutdown`] aborts
/// ungracefully (threads are detached); call `shutdown` for the drain
/// path.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    /// Whether this server installed the telemetry recorder (sampling
    /// on), plus whatever recorder was installed before, to restore at
    /// shutdown.
    recorder_installed: bool,
    prev_recorder: Option<Arc<dyn Recorder>>,
}

/// What `shutdown` observed.
#[derive(Debug)]
pub struct DrainReport {
    /// Whether all in-flight work finished inside the drain deadline.
    pub clean: bool,
    /// Requests still in flight when the deadline hit (0 when clean).
    pub abandoned: usize,
}

impl Server {
    /// Bind, spawn workers + acceptor, and start serving `registry`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn start(registry: ModelRegistry, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let queue = AdmissionQueue::new(cfg.queue_depth, cfg.workers.max(1));
        let fn_names: Vec<String> = registry.entries.iter().map(|e| e.name.clone()).collect();
        let tel = Telemetry::new(&fn_names, cfg.telemetry.clone());
        // the tensor ledger feeds the live/peak bytes gauges in /metrics
        autograph_tensor::mem::track_begin();
        // Tracing needs the executor's obs spans, and any installed
        // recorder drops the bytecode VM into its exact fallback — so the
        // telemetry recorder only goes in when sampling is actually on,
        // composed with (and later restored to) whatever was installed.
        let mut recorder_installed = false;
        let mut prev_recorder = None;
        if cfg.telemetry.trace_sample > 0 {
            let prev = autograph_obs::uninstall();
            let tel_rec: Arc<dyn Recorder> = Arc::clone(&tel) as Arc<dyn Recorder>;
            let installed: Arc<dyn Recorder> = match &prev {
                Some(p) => Arc::new(FanoutRecorder::new(vec![Arc::clone(p), tel_rec])),
                None => tel_rec,
            };
            autograph_obs::install(installed);
            recorder_installed = true;
            prev_recorder = prev;
        }
        let shared = Arc::new(Shared {
            registry,
            queue,
            cfg,
            draining: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            stats: ServerStats::default(),
            started: Instant::now(),
            tel,
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Server {
            addr,
            shared,
            workers,
            acceptor: Some(acceptor),
            recorder_installed,
            prev_recorder,
        })
    }

    /// The bound address (real port even when configured as `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin refusing new work without blocking: the acceptor stops,
    /// admission answers 503 `draining`. Idempotent.
    pub(crate) fn start_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.queue.start_drain();
    }

    /// Graceful shutdown: stop accepting, let queued + in-flight work
    /// finish for up to `drain_deadline`, then return what happened.
    pub fn shutdown(mut self, drain_deadline: Duration) -> DrainReport {
        self.start_drain();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        let t0 = Instant::now();
        // workers exit once the queue is drained
        for w in self.workers.drain(..) {
            let remaining = drain_deadline.saturating_sub(t0.elapsed());
            if remaining.is_zero() {
                break; // abandoned threads are detached, not joined
            }
            let _ = w.join();
        }
        // connection threads finish writing responses
        while self.shared.inflight.load(Ordering::SeqCst) > 0 && t0.elapsed() < drain_deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let abandoned = self.shared.inflight.load(Ordering::SeqCst);
        // restore whatever recorder was installed before this server
        if self.recorder_installed {
            let _ = autograph_obs::uninstall();
            if let Some(prev) = self.prev_recorder.take() {
                autograph_obs::install(prev);
            }
        }
        DrainReport {
            clean: abandoned == 0,
            abandoned,
        }
    }

    /// The server's telemetry plane.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.tel
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.conns.load(Ordering::SeqCst) >= shared.cfg.max_connections {
                    // refuse at the door with a shed, not a hang
                    let mut conn = HttpConn::new(stream, 0);
                    let err = ServeError::Shed {
                        reason: "connection_limit".to_string(),
                        retry_after_ms: 100,
                    };
                    let _ = conn.write_response(
                        err.status(),
                        &retry_headers(&err),
                        &json::error_body(&err, None, None),
                    );
                    continue;
                }
                shared.conns.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        connection_loop(stream, &conn_shared);
                        conn_shared.conns.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    shared.conns.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // idle tick doubles as the window-ring rotation heartbeat
                shared.tel.maybe_rotate();
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn retry_headers(err: &ServeError) -> Vec<(&'static str, String)> {
    match err.retry_after_ms() {
        // Retry-After is whole seconds; round up so "10ms" isn't "0"
        Some(ms) => vec![("Retry-After", ms.div_ceil(1000).max(1).to_string())],
        None => Vec::new(),
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    // Nagle + the peer's delayed ACK would add ~40ms to every
    // keep-alive response written as head + body; send eagerly
    let _ = stream.set_nodelay(true);
    // short read timeout so idle keep-alive connections notice drain
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut conn = HttpConn::new(stream, shared.cfg.max_body);
    loop {
        let req = match conn.read_request() {
            Ok(r) => r,
            Err(ReadError::Closed) => return,
            Err(ReadError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.draining.load(Ordering::SeqCst) {
                    return; // idle connection during drain: close
                }
                continue;
            }
            Err(ReadError::Io(_)) => return,
            Err(ReadError::Malformed(m)) => {
                let err = ServeError::BadRequest(m);
                let _ = conn.write_response(err.status(), &[], &json::error_body(&err, None, None));
                return;
            }
        };
        let wants_close = req.wants_close();
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        let keep = handle_request(&mut conn, &req, shared);
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        if !keep || wants_close {
            return;
        }
    }
}

/// Route and answer one request. Returns whether to keep the connection.
fn handle_request(conn: &mut HttpConn, req: &Request, shared: &Arc<Shared>) -> bool {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let draining = shared.draining.load(Ordering::SeqCst);
            let body = format!(
                "{{\"status\":\"{}\",\"uptime_ms\":{}}}",
                if draining { "draining" } else { "ok" },
                shared.started.elapsed().as_millis()
            );
            conn.write_response(if draining { 503 } else { 200 }, &[], &body)
                .is_ok()
        }
        ("GET", "/stats") => conn.write_response(200, &[], &stats_json(shared)).is_ok(),
        ("GET", "/metrics") => conn
            .write_response_typed(200, "text/plain; version=0.0.4", &[], &metrics_text(shared))
            .is_ok(),
        ("GET", path) if path == "/debug/trace" || path.starts_with("/debug/trace?") => {
            let n = path
                .split_once('?')
                .and_then(|(_, q)| q.split('&').find_map(|kv| kv.strip_prefix("n=")))
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(shared.cfg.telemetry.trace_ring);
            conn.write_response(200, &[], &shared.tel.traces_json(n))
                .is_ok()
        }
        ("POST", "/admin/drain") => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.queue.start_drain();
            conn.write_response(200, &[], "{\"status\":\"draining\"}")
                .is_ok()
        }
        ("POST", path) if path.starts_with("/run/") => {
            let name = &path["/run/".len()..];
            let trace = shared.tel.begin_request(req.request_id(), name);
            let budget = req
                .deadline_ms()
                .map(Duration::from_millis)
                .unwrap_or(shared.cfg.default_deadline);
            let t0 = Instant::now();
            let result = run_request(conn, req, name, shared, &trace, budget);
            write_run_response(conn, shared, &trace, t0, budget, result)
        }
        (_, path) if path.starts_with("/run/") => {
            let err = ServeError::BadRequest(format!("{} not allowed on {path}", req.method));
            let _ = conn.write_response(405, &[], &json::error_body(&err, None, None));
            true
        }
        _ => {
            let err = ServeError::UnknownFunction(format!("no route for {}", req.path));
            let _ = conn.write_response(err.status(), &[], &json::error_body(&err, None, None));
            true
        }
    }
}

fn write_run_response(
    conn: &mut HttpConn,
    shared: &Arc<Shared>,
    trace: &Arc<RequestTrace>,
    t0: Instant,
    budget: Duration,
    result: Result<Vec<Tensor>, ServeError>,
) -> bool {
    let respond_start = autograph_obs::now_ns();
    let result = match autograph_faults::inject("serve", "respond") {
        Ok(()) => result,
        Err(fault) => {
            autograph_obs::count("serve", "fault_respond", 1);
            Err(ServeError::Internal(format!("injected fault: {fault}")))
        }
    };
    let (status, mut headers, body) = match &result {
        Ok(outputs) => {
            shared.stats.resp_2xx.fetch_add(1, Ordering::Relaxed);
            (200u16, Vec::new(), json::outputs_body(outputs))
        }
        Err(err) => {
            let status = err.status();
            if status >= 500 {
                shared.stats.resp_5xx.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.stats.resp_4xx.fetch_add(1, Ordering::Relaxed);
            }
            if matches!(err, ServeError::Cancelled) {
                shared.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            let body = json::error_body(err, Some(&shared.registry.source), Some(&trace.id));
            (status, retry_headers(err), body)
        }
    };
    headers.push(("X-Request-Id", trace.id.clone()));
    let total_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    shared.tel.latency_all.record(total_ns);
    if let Some(m) = shared.tel.for_fn(&trace.fn_name) {
        m.count_status(status);
        m.latency.record(total_ns);
        let budget_ns = (budget.as_nanos().min(u128::from(u64::MAX)) as u64).max(1);
        m.budget_permille
            .record(total_ns.saturating_mul(1000) / budget_ns);
    }
    let keep = conn.write_response(status, &headers, &body).is_ok();
    trace.phase_from("respond", respond_start);
    shared.tel.finish_request(trace, status, total_ns);
    // a cancelled run means the client is gone anyway
    keep && !matches!(result, Err(ServeError::Cancelled))
}

/// Decode, admit and await one `POST /run/<fn>`.
fn run_request(
    conn: &HttpConn,
    req: &Request,
    name: &str,
    shared: &Arc<Shared>,
    trace: &Arc<RequestTrace>,
    budget: Duration,
) -> Result<Vec<Tensor>, ServeError> {
    let decode_start = autograph_obs::now_ns();
    let entry = match shared.registry.get(name) {
        Some(e) => Arc::clone(e),
        None => {
            let detail = match shared.registry.staging_error(name) {
                Some(err) => format!("'{name}' failed staging: {err}"),
                None => format!("'{name}' is not defined by the loaded program"),
            };
            return Err(ServeError::UnknownFunction(detail));
        }
    };
    let body = std::str::from_utf8(&req.body)
        .map_err(|_| ServeError::BadRequest("request body is not UTF-8".to_string()))?;
    let args = json::parse_run_request(body).map_err(ServeError::BadRequest)?;
    if args.len() != entry.arg_names.len() {
        return Err(ServeError::BadRequest(format!(
            "'{name}' takes {} argument(s), got {}",
            entry.arg_names.len(),
            args.len()
        )));
    }
    trace.phase_from("decode", decode_start);
    // fast-fail before consuming queue space
    match entry.breaker.admit() {
        Admit::Yes | Admit::Probe => {}
        Admit::No { retry_after } => {
            return Err(ServeError::BreakerOpen {
                retry_after_ms: retry_after.as_millis() as u64,
            })
        }
    }
    let admit_start = autograph_obs::now_ns();
    let now = Instant::now();
    let cancel = CancelToken::new();
    let (tx, rx) = sync_channel(1);
    shared.queue.try_admit(Job {
        entry,
        args,
        enqueued: now,
        deadline: now + budget,
        cancel: cancel.clone(),
        resp: tx,
        trace: Arc::clone(trace),
    })?;
    trace.phase_from("admit", admit_start);
    await_result(conn, &rx, cancel, now + budget)
}

/// Wait for the worker's answer while watching the socket for client
/// disconnect (which cancels the run).
fn await_result(
    conn: &HttpConn,
    rx: &Receiver<Result<Vec<Tensor>, ServeError>>,
    cancel: CancelToken,
    deadline: Instant,
) -> Result<Vec<Tensor>, ServeError> {
    // hard cap: the graph run enforces the deadline itself, this bound
    // only guards against a lost worker — a hung connection is the one
    // failure mode this server must never exhibit
    let hard_cap = deadline + Duration::from_secs(10);
    loop {
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(result) => return result,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(ServeError::Internal(
                    "worker dropped the response channel".to_string(),
                ))
            }
            Err(RecvTimeoutError::Timeout) => {
                if !cancel.is_cancelled() && conn.peer_closed() {
                    cancel.cancel();
                    // keep waiting: the worker will answer Cancelled
                }
                if Instant::now() > hard_cap {
                    return Err(ServeError::Internal(
                        "run overran its deadline and the hard cap".to_string(),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// workers

/// Record how long a job sat queued — called exactly once per job, at
/// the moment a worker takes ownership of it (pop or batch harvest).
fn note_dequeue(shared: &Arc<Shared>, job: &Job) {
    let waited_ns = job.enqueued.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    if let Some(m) = shared.tel.for_fn(&job.entry.name) {
        m.queue_wait.record(waited_ns);
    }
    job.trace.phase(
        "queue_wait",
        autograph_obs::now_ns().saturating_sub(waited_ns),
        waited_ns,
    );
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        note_dequeue(shared, &job);
        let batchable = job.entry.batchable.load(Ordering::Relaxed)
            && !job.entry.stateful
            && shared.cfg.max_batch > 1
            && autograph_faults::inject("serve", "batcher").is_ok();
        if batchable {
            let members = {
                let mut m = vec![job];
                let probe = &m[0];
                let assembly_start = autograph_obs::now_ns();
                let taken = shared
                    .queue
                    .take_compatible(probe, shared.cfg.max_batch - 1, |c| {
                        batch::compatible(probe, c)
                    });
                probe.trace.phase_from("batch_assembly", assembly_start);
                for t in &taken {
                    note_dequeue(shared, t);
                }
                m.extend(taken);
                m
            };
            if members.len() > 1 {
                run_batch(shared, members);
                continue;
            }
            run_single(
                shared,
                members
                    .into_iter()
                    .next()
                    .unwrap_or_else(|| unreachable!("members built from vec![job]")),
            );
        } else {
            run_single(shared, job);
        }
    }
}

/// Execute one job on its own; report to breaker, EWMA, telemetry and
/// the waiting connection.
fn run_single(shared: &Arc<Shared>, job: Job) {
    let fnm = shared.tel.for_fn(&job.entry.name).cloned();
    // while the ctx guard lives, executor obs spans closing on this
    // thread are attributed to this request's trace
    let _ctx = job
        .trace
        .sampled
        .then(|| autograph_obs::set_request_ctx(job.trace.num));
    let t0 = Instant::now();
    let run_start = autograph_obs::now_ns();
    let occupancy = fnm.as_ref().map(FnMetrics::running_guard);
    let result = execute(
        shared,
        &job.entry,
        &job.args,
        job.remaining(),
        Some(&job.cancel),
        Some(&job.trace),
    );
    drop(occupancy);
    let run_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    if let Some(m) = &fnm {
        m.run.record(run_ns);
    }
    job.trace.phase("run", run_start, run_ns);
    finish(&job, t0, result);
}

/// Execute a coalesced batch; fall back to individual runs when the
/// batch shape contract does not hold.
fn run_batch(shared: &Arc<Shared>, members: Vec<Job>) {
    let n = members.len();
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .batch_members
        .fetch_add(n as u64, Ordering::Relaxed);
    autograph_obs::observe("serve", "batch_size", n as u64);
    let entry = Arc::clone(&members[0].entry);
    // the batch runs under the most generous member deadline and no
    // cancel token: one client's disconnect must not fail the others
    let budget = members
        .iter()
        .map(Job::remaining)
        .max()
        .unwrap_or(Duration::ZERO);
    let fnm = shared.tel.for_fn(&entry.name).cloned();
    let t0 = Instant::now();
    let run_start = autograph_obs::now_ns();
    let occupancy = fnm.as_ref().map(FnMetrics::running_guard);
    let outcome = batch::stack_args(&members)
        .map_err(ServeError::Internal)
        .and_then(|stacked| execute(shared, &entry, &stacked, budget, None, None));
    drop(occupancy);
    let run_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    match outcome {
        Ok(outputs) => match batch::split_outputs(&outputs, n) {
            Some(per_member) => {
                // one VM run served the whole batch: record it once
                if let Some(m) = &fnm {
                    m.run.record(run_ns);
                }
                for (job, outs) in members.iter().zip(per_member) {
                    job.trace.phase("run", run_start, run_ns);
                    finish(job, t0, Ok(outs));
                }
            }
            None => {
                // declared batch-legality was wrong: learn and fall back
                entry.batchable.store(false, Ordering::Relaxed);
                autograph_obs::count("serve", "batch_disabled", 1);
                fallback_individual(shared, members);
            }
        },
        Err(_) => fallback_individual(shared, members),
    }
}

fn fallback_individual(shared: &Arc<Shared>, members: Vec<Job>) {
    shared.stats.batch_fallbacks.fetch_add(1, Ordering::Relaxed);
    for job in members {
        run_single(shared, job);
    }
}

/// One guarded graph run: deadline + optional cancel, panics contained.
fn execute(
    shared: &Arc<Shared>,
    entry: &Arc<FnEntry>,
    args: &[Tensor],
    budget: Duration,
    cancel: Option<&CancelToken>,
    trace: Option<&Arc<RequestTrace>>,
) -> Result<Vec<Tensor>, ServeError> {
    let mut options = RunOptions::default().with_deadline(budget);
    if let Some(c) = cancel {
        options = options.with_cancel(c.clone());
    }
    let checkout_start = autograph_obs::now_ns();
    let run = catch_unwind(AssertUnwindSafe(|| {
        entry.with_session(|sess| {
            // with_session blocks while the pool is exhausted; the gap
            // between these two timestamps is that contention
            if let Some(t) = trace {
                t.phase_from("session_checkout", checkout_start);
            }
            sess.run_with_options(&feeds(&entry.arg_names, args), &entry.outputs, &options)
        })
    }));
    match run {
        Ok(Ok(outputs)) => Ok(outputs),
        Ok(Err(e)) => Err(ServeError::from_graph(e)),
        Err(panic) => {
            // the panicked-through session was dropped, not repooled
            shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            autograph_obs::count("serve", "worker_panic", 1);
            let msg = panic_message(panic.as_ref());
            Err(ServeError::Internal(format!("panic in graph run: {msg}")))
        }
    }
}

/// Report a job's outcome: breaker bookkeeping, EWMA update, response.
fn finish(job: &Job, t0: Instant, result: Result<Vec<Tensor>, ServeError>) {
    match &result {
        Ok(_) => {
            job.entry.breaker.on_success();
            job.entry
                .record_service_ns(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        Err(e) if e.trips_breaker() => job.entry.breaker.on_failure(),
        Err(_) => {} // client-budget outcome: breaker untouched
    }
    // the connection thread may have given up (hard cap) — ignore
    let _ = job.resp.try_send(result);
}

// ---------------------------------------------------------------------
// /stats and /metrics: one declaration per served number, two renderings

/// Metric families the CI scrape validator and the loadgen assert are
/// present in every `/metrics` response. Hand-written on purpose: it is
/// the contract the table below is checked against.
pub const REQUIRED_METRIC_FAMILIES: &[&str] = &[
    "autograph_requests_total",
    "autograph_request_latency_seconds",
    "autograph_queue_wait_seconds",
    "autograph_run_seconds",
    "autograph_deadline_budget_consumed_permille",
    "autograph_queue_depth",
    "autograph_admitted_total",
    "autograph_shed_total",
    "autograph_sessions_running",
    "autograph_tensor_live_bytes",
    "autograph_plan_cache_total",
];

/// A served value. The type decides how each view prints it: `/stats`
/// writes a `Flag` as `true`/`false`, `/metrics` as `1`/`0`.
enum Reading {
    Count(u64),
    Flag(bool),
    Seconds(f64),
}
use Reading::{Count, Flag, Seconds};

impl Reading {
    fn as_f64(&self) -> f64 {
        match *self {
            Count(n) => n as f64,
            Flag(b) => u8::from(b).into(),
            Seconds(s) => s,
        }
    }
}

/// One `/metrics` family and the scalars under it. `R` is the reader:
/// [`ServerRead`] for the server-wide table, [`FnRead`] for the table
/// rendered once per function (every sample then leads with `fn=`).
struct Family<R: 'static> {
    /// `None` groups scalars that `/stats` serves and `/metrics` does not.
    name: Option<&'static str>,
    help: &'static str,
    scalars: &'static [Scalar<R>],
}

/// `# TYPE` of a scalar family: a name ending in `_total` is a counter
/// (the Prometheus naming rule these families follow), any other a gauge.
fn kind(name: &str) -> &'static str {
    if name.ends_with("_total") {
        "counter"
    } else {
        "gauge"
    }
}

/// One served number: its key in `/stats` (top level, or inside each
/// `functions[]` object for the per-function table; `None` = `/metrics`
/// only), the label pairs of its `/metrics` sample, and the reader.
type Scalar<R> = (
    Option<&'static str>,
    &'static [(&'static str, &'static str)],
    R,
);
type ServerRead = fn(&Shared) -> Reading;
type FnRead = fn(&FnEntry, &FnMetrics) -> Reading;

/// Readers are relaxed loads — a scrape never blocks the hot path.
fn load(counter: &AtomicU64) -> Reading {
    Count(counter.load(Ordering::Relaxed))
}

fn load_usize(gauge: &AtomicUsize) -> Reading {
    Count(gauge.load(Ordering::SeqCst) as u64)
}

fn admission(s: &Shared) -> &crate::admission::AdmissionStats {
    &s.queue.stats
}

/// Every server-wide counter and gauge, declared once.
const SERVER_SCALARS: &[Family<ServerRead>] = &[
    Family {
        name: None,
        help: "",
        scalars: &[
            (Some("uptime_ms"), &[], |s| {
                Count(s.started.elapsed().as_millis() as u64)
            }),
            (Some("resp_2xx"), &[], |s| load(&s.stats.resp_2xx)),
            (Some("resp_4xx"), &[], |s| load(&s.stats.resp_4xx)),
            (Some("resp_5xx"), &[], |s| load(&s.stats.resp_5xx)),
        ],
    },
    Family {
        name: Some("autograph_uptime_seconds"),
        help: "seconds since server start",
        scalars: &[(None, &[], |s| Seconds(s.started.elapsed().as_secs_f64()))],
    },
    Family {
        name: Some("autograph_draining"),
        help: "1 while the server is refusing new work",
        scalars: &[(Some("draining"), &[], |s| {
            Flag(s.draining.load(Ordering::SeqCst))
        })],
    },
    Family {
        name: Some("autograph_connections"),
        help: "open client connections",
        scalars: &[(Some("connections"), &[], |s| load_usize(&s.conns))],
    },
    Family {
        name: Some("autograph_inflight"),
        help: "requests currently being handled",
        scalars: &[(Some("inflight"), &[], |s| load_usize(&s.inflight))],
    },
    Family {
        name: Some("autograph_queue_depth"),
        help: "jobs in the admission queue",
        scalars: &[(Some("queue_depth"), &[], |s| Count(s.queue.depth() as u64))],
    },
    Family {
        name: Some("autograph_admitted_total"),
        help: "requests admitted into the queue",
        scalars: &[(Some("admitted"), &[], |s| load(&admission(s).admitted))],
    },
    Family {
        name: Some("autograph_shed_total"),
        help: "requests refused by admission control, by reason",
        scalars: &[
            (Some("shed_queue_full"), &[("reason", "queue_full")], |s| {
                load(&admission(s).shed_queue_full)
            }),
            (
                Some("shed_predicted_late"),
                &[("reason", "predicted_late")],
                |s| load(&admission(s).shed_predicted_late),
            ),
        ],
    },
    Family {
        name: Some("autograph_expired_in_queue_total"),
        help: "jobs whose deadline expired while queued",
        scalars: &[(Some("expired_in_queue"), &[], |s| {
            load(&admission(s).expired_in_queue)
        })],
    },
    Family {
        name: Some("autograph_rejected_draining_total"),
        help: "requests refused because the server was draining",
        scalars: &[(Some("rejected_draining"), &[], |s| {
            load(&admission(s).rejected_draining)
        })],
    },
    Family {
        name: Some("autograph_batches_total"),
        help: "batched runs executed",
        scalars: &[(Some("batches"), &[], |s| load(&s.stats.batches))],
    },
    Family {
        name: Some("autograph_batch_members_total"),
        help: "total members across batched runs",
        scalars: &[(Some("batch_members"), &[], |s| load(&s.stats.batch_members))],
    },
    Family {
        name: Some("autograph_batch_fallbacks_total"),
        help: "batched runs that fell back to individual execution",
        scalars: &[(Some("batch_fallbacks"), &[], |s| {
            load(&s.stats.batch_fallbacks)
        })],
    },
    Family {
        name: Some("autograph_cancelled_total"),
        help: "runs cancelled because the client disconnected",
        scalars: &[(Some("cancelled"), &[], |s| load(&s.stats.cancelled))],
    },
    Family {
        name: Some("autograph_worker_panics_total"),
        help: "worker panics contained into 500s",
        scalars: &[(Some("worker_panics"), &[], |s| load(&s.stats.worker_panics))],
    },
    Family {
        name: Some("autograph_sampled_traces_total"),
        help: "requests sampled for span-tree tracing",
        scalars: &[(None, &[], |s| Count(s.tel.sampled_total.get()))],
    },
    Family {
        name: Some("autograph_plan_cache_total"),
        help: "persistent plan-store events by kind (hit/miss/corrupt/write)",
        scalars: &[
            (None, &[("event", "hit")], |_| Count(plan_store().hits)),
            (None, &[("event", "miss")], |_| Count(plan_store().misses)),
            (None, &[("event", "corrupt")], |_| {
                Count(plan_store().corrupt)
            }),
            (None, &[("event", "write")], |_| Count(plan_store().writes)),
        ],
    },
    Family {
        name: Some("autograph_plan_cache_bytes_total"),
        help: "persistent plan-store bytes by direction",
        scalars: &[
            (None, &[("direction", "read")], |_| {
                Count(plan_store().bytes_read)
            }),
            (None, &[("direction", "written")], |_| {
                Count(plan_store().bytes_written)
            }),
        ],
    },
    Family {
        name: Some("autograph_plan_cache_load_seconds_total"),
        help: "wall time spent loading + validating persistent plan artifacts",
        scalars: &[(None, &[], |_| Seconds(plan_store().load_ns as f64 / 1e9))],
    },
    Family {
        name: Some("autograph_tensor_live_bytes"),
        help: "bytes currently held by tensor buffers (ledger)",
        scalars: &[(None, &[], |_| Count(ledger().live_bytes))],
    },
    Family {
        name: Some("autograph_tensor_peak_bytes"),
        help: "high-water mark of live tensor bytes",
        scalars: &[(None, &[], |_| Count(ledger().peak_bytes))],
    },
    Family {
        name: Some("autograph_tensor_allocated_bytes_total"),
        help: "cumulative tensor bytes allocated",
        scalars: &[(None, &[], |_| Count(ledger().allocated_bytes))],
    },
    Family {
        name: Some("autograph_tensor_freed_bytes_total"),
        help: "cumulative tensor bytes freed",
        scalars: &[(None, &[], |_| Count(ledger().freed_bytes))],
    },
];

/// Every per-function counter and gauge, declared once.
const FN_SCALARS: &[Family<FnRead>] = &[
    Family {
        name: None,
        help: "",
        scalars: &[
            (Some("stateful"), &[], |e, _| Flag(e.stateful)),
            (Some("batchable"), &[], |e, _| {
                Flag(e.batchable.load(Ordering::Relaxed))
            }),
            (Some("ewma_service_us"), &[], |e, _| {
                Count(e.ewma_service_ns.load(Ordering::Relaxed) / 1000)
            }),
        ],
    },
    Family {
        name: Some("autograph_requests_total"),
        help: "completed /run responses by function and status class",
        scalars: &[
            (None, &[("class", "2xx")], |_, m| Count(m.resp_2xx.get())),
            (None, &[("class", "4xx")], |_, m| Count(m.resp_4xx.get())),
            (None, &[("class", "5xx")], |_, m| Count(m.resp_5xx.get())),
        ],
    },
    Family {
        name: Some("autograph_sessions_running"),
        help: "sessions currently checked out executing, by function",
        scalars: &[(Some("running"), &[], |_, m| load(&m.running))],
    },
    Family {
        name: Some("autograph_sessions_running_peak"),
        help: "high-water mark of concurrently executing sessions, by function",
        scalars: &[(Some("running_peak"), &[], |_, m| load(&m.running_peak))],
    },
    Family {
        name: Some("autograph_breaker_open"),
        help: "1 while the function's circuit breaker is open",
        scalars: &[(Some("breaker_open"), &[], |e, _| Flag(e.breaker.is_open()))],
    },
];

/// The per-function histogram families: name, help, the writer (bucket
/// bounds are nanoseconds exported as seconds, or raw permille) and the
/// reader.
type FnHistogram = (
    &'static str,
    &'static str,
    fn(&mut PromWriter, &str, &[(&str, &str)], &HistSnapshot),
    fn(&FnMetrics) -> &AtomicHistogram,
);
const FN_HISTOGRAMS: &[FnHistogram] = &[
    (
        "autograph_request_latency_seconds",
        "end-to-end /run latency by function (route dispatch to response written)",
        PromWriter::histogram,
        |m| &m.latency,
    ),
    (
        "autograph_queue_wait_seconds",
        "time jobs spent in the admission queue before a worker took them",
        PromWriter::histogram,
        |m| &m.queue_wait,
    ),
    (
        "autograph_run_seconds",
        "graph/VM execution self-time by function (session run only)",
        PromWriter::histogram,
        |m| &m.run,
    ),
    (
        "autograph_deadline_budget_consumed_permille",
        "deadline budget consumed at response time, permille of the request budget",
        PromWriter::histogram_raw,
        |m| &m.budget_permille,
    ),
];

/// The registry's functions with their metrics. `Telemetry::new` is
/// built from the registry's names, so the two are parallel.
fn functions(shared: &Shared) -> impl Iterator<Item = (&FnEntry, &FnMetrics)> {
    shared
        .registry
        .entries
        .iter()
        .zip(shared.tel.fns())
        .map(|(e, m)| (&**e, &**m))
}

fn stats_json(shared: &Shared) -> String {
    fn member(out: &mut String, key: &str, value: Reading) {
        if !out.ends_with('{') {
            out.push(',');
        }
        let _ = match value {
            Count(n) => write!(out, "\"{key}\":{n}"),
            Flag(b) => write!(out, "\"{key}\":{b}"),
            Seconds(s) => write!(out, "\"{key}\":{s}"),
        };
    }
    let mut out = String::with_capacity(1024);
    out.push('{');
    for &(key, _, read) in SERVER_SCALARS.iter().flat_map(|f| f.scalars) {
        if let Some(key) = key {
            member(&mut out, key, read(shared));
        }
    }
    out.push_str(",\"functions\":[");
    for (i, (e, m)) in functions(shared).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_str(&mut out, &e.name);
        for &(key, _, read) in FN_SCALARS.iter().flat_map(|f| f.scalars) {
            if let Some(key) = key {
                member(&mut out, key, read(e, m));
            }
        }
        out.push('}');
    }
    out.push_str("],\"windows\":");
    out.push_str(&shared.tel.windows_json());
    out.push('}');
    out
}

/// Render the Prometheus text document for `GET /metrics`.
fn metrics_text(shared: &Shared) -> String {
    shared.tel.maybe_rotate();
    let mut w = PromWriter::new();
    for f in SERVER_SCALARS {
        let Some(name) = f.name else {
            continue;
        };
        w.family(name, kind(name), f.help);
        for &(_, labels, read) in f.scalars {
            w.sample(name, labels, read(shared).as_f64());
        }
    }
    for f in FN_SCALARS {
        let Some(name) = f.name else {
            continue;
        };
        w.family(name, kind(name), f.help);
        for (e, m) in functions(shared) {
            for &(_, labels, read) in f.scalars {
                let labels: Vec<_> = [("fn", m.name.as_str())]
                    .into_iter()
                    .chain(labels.iter().copied())
                    .collect();
                w.sample(name, &labels, read(e, m).as_f64());
            }
        }
    }
    for &(name, help, write, read) in FN_HISTOGRAMS {
        w.family(name, "histogram", help);
        for m in shared.tel.fns() {
            write(&mut w, name, &[("fn", &m.name)], &read(m).snapshot());
        }
    }
    let all = "autograph_request_latency_all_seconds";
    w.family(
        all,
        "histogram",
        "end-to-end /run latency across all functions (feeds the rolling windows)",
    );
    w.histogram(all, &[], &shared.tel.latency_all.snapshot());
    w.finish()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::prom;
    use crate::registry::RegistryConfig;
    use serde_json::Value;

    const SRC: &str = "def double(x):\n    return x * 2.0\n\ndef negate(x):\n    return -x\n";

    fn label_block(labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{{{}}}", pairs.join(","))
    }

    fn as_number(v: &Value) -> Option<f64> {
        v.as_bool().map(|b| u8::from(b).into()).or(v.as_f64())
    }

    /// The two views are renderings of one table, so after traffic every
    /// scalar served in both reads the same in both, and the table
    /// honours the hand-written family contract.
    #[test]
    fn stats_and_metrics_agree_on_every_scalar_they_share() {
        let registry = ModelRegistry::load(SRC, &RegistryConfig::default()).expect("load");
        let server = Server::start(registry, ServerConfig::default()).expect("start");
        let mut c = Client::connect(server.addr()).expect("connect");
        for i in 0..7 {
            let resp = c.run("double", &format!("{{\"args\":[{i}.5]}}"), None);
            assert_eq!(resp.expect("run").status, 200);
        }
        assert_eq!(
            c.run("negate", "{\"args\":[1.0]}", None).unwrap().status,
            200
        );
        // wrong arity, malformed JSON, unknown function: the 4xx side
        assert_eq!(c.run("negate", "{\"args\":[]}", None).unwrap().status, 400);
        assert_eq!(c.run("negate", "{\"args\":", None).unwrap().status, 400);
        assert_eq!(c.run("absent", "{\"args\":[]}", None).unwrap().status, 404);
        // the connection thread counts a request out after the client has
        // its response; let the last one land
        let settled = Instant::now() + Duration::from_secs(5);
        while server.shared.inflight.load(Ordering::SeqCst) > 0 {
            assert!(Instant::now() < settled, "request never counted out");
            std::thread::yield_now();
        }

        let stats: Value = serde_json::from_str(&stats_json(&server.shared)).expect("stats JSON");
        let scrape = prom::parse_and_validate(&metrics_text(&server.shared)).expect("exposition");
        let mut compared = 0;
        for f in SERVER_SCALARS {
            let Some(family) = f.name else {
                continue;
            };
            for &(key, labels, _) in f.scalars {
                let sample = scrape
                    .value(family, &label_block(labels))
                    .unwrap_or_else(|| panic!("{family}{labels:?} not in /metrics"));
                if let Some(key) = key {
                    let served = as_number(&stats[key])
                        .unwrap_or_else(|| panic!("'{key}' not a number in /stats"));
                    assert_eq!(served, sample, "{key} vs {family}{labels:?}");
                    compared += 1;
                }
            }
        }
        for (i, name) in ["double", "negate"].into_iter().enumerate() {
            let served_fn = &stats["functions"][i];
            assert_eq!(served_fn["name"].as_str(), Some(name));
            for f in FN_SCALARS {
                let Some(family) = f.name else {
                    continue;
                };
                for &(key, labels, _) in f.scalars {
                    let labels: Vec<_> = [("fn", name)]
                        .into_iter()
                        .chain(labels.iter().copied())
                        .collect();
                    let sample = scrape
                        .value(family, &label_block(&labels))
                        .unwrap_or_else(|| panic!("{family}{labels:?} not in /metrics"));
                    if let Some(key) = key {
                        let served = as_number(&served_fn[key])
                            .unwrap_or_else(|| panic!("'{key}' not a number in /stats"));
                        assert_eq!(served, sample, "{name}.{key} vs {family}{labels:?}");
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared >= 20, "only {compared} shared scalars compared");
        // the traffic above is visible, so equal does not mean both zero
        assert_eq!(stats["admitted"].as_u64(), Some(8));
        assert_eq!(stats["resp_2xx"].as_u64(), Some(8));
        assert_eq!(stats["resp_4xx"].as_u64(), Some(3));
        assert_eq!(stats["functions"][0]["running_peak"].as_u64(), Some(1));
        assert_eq!(
            scrape.value("autograph_requests_total", "{fn=\"double\",class=\"2xx\"}"),
            Some(7.0)
        );

        // one declaration per family, and the contract is covered
        let declared: Vec<&str> = SERVER_SCALARS
            .iter()
            .filter_map(|f| f.name)
            .chain(FN_SCALARS.iter().filter_map(|f| f.name))
            .chain(FN_HISTOGRAMS.iter().map(|h| h.0))
            .collect();
        for (i, name) in declared.iter().enumerate() {
            assert!(!declared[..i].contains(name), "{name} declared twice");
        }
        for required in REQUIRED_METRIC_FAMILIES {
            assert!(declared.contains(required), "{required} not declared");
        }

        assert!(server.shutdown(Duration::from_secs(5)).clean);
    }
}
