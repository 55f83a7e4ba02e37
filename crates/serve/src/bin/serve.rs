//! `autograph-serve`: load a PyLite program, stage every function, and
//! serve `POST /run/<fn>` until SIGTERM (or SIGINT), then drain
//! gracefully: stop accepting, finish in-flight work up to the drain
//! deadline, exit 0 when everything finished cleanly.
//!
//! ```text
//! autograph-serve --program examples/serve/mlp.pylite \
//!     --addr 127.0.0.1:0 --addr-file /tmp/serve.addr \
//!     --workers 2 --queue-depth 64 --deadline-ms 1000 \
//!     --batch-fns predict --max-batch 8
//! ```
//!
//! `--addr-file` writes the *bound* address (resolving `:0`) once the
//! server is listening — the handshake `ci.sh` and tests use instead of
//! fixed ports.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use autograph_serve::{ModelRegistry, RegistryConfig, Server, ServerConfig, TelemetryConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set by the signal handler; the main loop polls it.
static TERM: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    unsafe extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }
    // libc is already linked through std; declaring `signal` directly
    // avoids a dependency the offline registry could not provide
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
        signal(SIGINT, on_term as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

struct Args {
    program: String,
    addr: String,
    addr_file: Option<String>,
    workers: usize,
    queue_depth: usize,
    max_connections: usize,
    deadline_ms: u64,
    max_body: usize,
    batch_fns: Vec<String>,
    max_batch: usize,
    exec_threads: usize,
    breaker_threshold: u32,
    breaker_cooldown_ms: u64,
    plan_cache: Option<String>,
    drain_deadline_ms: u64,
    trace_sample: u64,
    trace_ring: usize,
    slo_ms: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: autograph-serve --program FILE [--addr HOST:PORT] [--addr-file FILE]\n\
         \x20  [--workers N] [--queue-depth N] [--max-connections N] [--deadline-ms N]\n\
         \x20  [--max-body BYTES] [--batch-fns f,g] [--max-batch N] [--exec-threads N]\n\
         \x20  [--breaker-threshold N] [--breaker-cooldown-ms N] [--plan-cache DIR]\n\
         \x20  [--drain-deadline-ms N] [--trace-sample N] [--trace-ring N] [--slo-ms N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        program: String::new(),
        addr: "127.0.0.1:0".to_string(),
        addr_file: None,
        workers: 2,
        queue_depth: 64,
        max_connections: 64,
        deadline_ms: 10_000,
        max_body: 8 * 1024 * 1024,
        batch_fns: Vec::new(),
        max_batch: 16,
        exec_threads: 1,
        breaker_threshold: 5,
        breaker_cooldown_ms: 100,
        plan_cache: None,
        drain_deadline_ms: 5_000,
        trace_sample: 0,
        trace_ring: 64,
        slo_ms: 25,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            match it.next() {
                Some(v) => v,
                None => {
                    eprintln!("{name} needs a value");
                    usage()
                }
            }
        };
        match flag.as_str() {
            "--program" => args.program = value("--program"),
            "--addr" => args.addr = value("--addr"),
            "--addr-file" => args.addr_file = Some(value("--addr-file")),
            "--workers" => args.workers = parse_num(&value("--workers"), "--workers"),
            "--queue-depth" => {
                args.queue_depth = parse_num(&value("--queue-depth"), "--queue-depth")
            }
            "--max-connections" => {
                args.max_connections = parse_num(&value("--max-connections"), "--max-connections")
            }
            "--deadline-ms" => {
                args.deadline_ms = parse_num(&value("--deadline-ms"), "--deadline-ms")
            }
            "--max-body" => args.max_body = parse_num(&value("--max-body"), "--max-body"),
            "--batch-fns" => {
                args.batch_fns = value("--batch-fns")
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--max-batch" => args.max_batch = parse_num(&value("--max-batch"), "--max-batch"),
            "--exec-threads" => {
                args.exec_threads = parse_num(&value("--exec-threads"), "--exec-threads")
            }
            "--breaker-threshold" => {
                args.breaker_threshold =
                    parse_num(&value("--breaker-threshold"), "--breaker-threshold")
            }
            "--breaker-cooldown-ms" => {
                args.breaker_cooldown_ms =
                    parse_num(&value("--breaker-cooldown-ms"), "--breaker-cooldown-ms")
            }
            "--plan-cache" => args.plan_cache = Some(value("--plan-cache")),
            "--drain-deadline-ms" => {
                args.drain_deadline_ms =
                    parse_num(&value("--drain-deadline-ms"), "--drain-deadline-ms")
            }
            "--trace-sample" => {
                args.trace_sample = parse_num(&value("--trace-sample"), "--trace-sample")
            }
            "--trace-ring" => args.trace_ring = parse_num(&value("--trace-ring"), "--trace-ring"),
            "--slo-ms" => args.slo_ms = parse_num(&value("--slo-ms"), "--slo-ms"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }
    if args.program.is_empty() {
        eprintln!("--program is required");
        usage()
    }
    args
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    match s.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("{flag}: '{s}' is not a number");
            usage()
        }
    }
}

fn main() {
    let args = parse_args();
    autograph_faults::maybe_init_from_env();
    install_signal_handlers();

    let source = match std::fs::read_to_string(&args.program) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.program);
            std::process::exit(1);
        }
    };
    let reg_cfg = RegistryConfig {
        exec_threads: args.exec_threads.max(1),
        batch_fns: if args.batch_fns.is_empty() {
            None
        } else {
            Some(args.batch_fns.clone())
        },
        breaker_threshold: args.breaker_threshold,
        breaker_cooldown: Duration::from_millis(args.breaker_cooldown_ms),
        plan_cache: args.plan_cache.clone().map(std::path::PathBuf::from),
    };
    let registry = match ModelRegistry::load(&source, &reg_cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot load {}: {e}", args.program);
            std::process::exit(1);
        }
    };
    eprintln!(
        "loaded {} (content hash {:016x}): {} function(s) staged, {} failed",
        args.program,
        registry.hash,
        registry.entries.len(),
        registry.failed.len()
    );
    for e in &registry.entries {
        eprintln!(
            "  {}({}){}{}",
            e.name,
            e.arg_names.join(", "),
            if e.stateful { " [stateful]" } else { "" },
            if e.batchable.load(Ordering::Relaxed) {
                " [batchable]"
            } else {
                ""
            }
        );
    }
    for f in &registry.failed {
        eprintln!("  {} UNSTAGEABLE: {}", f.name, f.error);
    }
    if registry.entries.is_empty() {
        eprintln!("nothing servable; exiting");
        std::process::exit(1);
    }

    let cfg = ServerConfig {
        addr: args.addr.clone(),
        workers: args.workers.max(1),
        queue_depth: args.queue_depth.max(1),
        max_connections: args.max_connections.max(1),
        default_deadline: Duration::from_millis(args.deadline_ms),
        max_body: args.max_body,
        max_batch: args.max_batch.max(1),
        telemetry: TelemetryConfig {
            trace_sample: args.trace_sample,
            trace_ring: args.trace_ring.max(1),
            slo_ms: args.slo_ms,
        },
    };
    let server = match Server::start(registry, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    let addr = server.addr();
    eprintln!("serving on http://{addr} (SIGTERM drains)");
    if let Some(path) = &args.addr_file {
        // written only once the socket is live: the readiness handshake
        if let Err(e) = std::fs::write(path, addr.to_string()) {
            eprintln!("cannot write addr file {path}: {e}");
            std::process::exit(1);
        }
    }

    while !TERM.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!(
        "signal received; draining (deadline {}ms)",
        args.drain_deadline_ms
    );
    let report = server.shutdown(Duration::from_millis(args.drain_deadline_ms));
    if report.clean {
        eprintln!("drained cleanly");
    } else {
        eprintln!(
            "drain deadline hit with {} request(s) in flight",
            report.abandoned
        );
        std::process::exit(1);
    }
}
