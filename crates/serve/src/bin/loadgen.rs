//! `autograph-loadgen`: closed-loop load generator for `autograph-serve`.
//!
//! N client threads hammer one function over keep-alive connections and
//! the tool reports admitted-request latency percentiles, throughput,
//! and shed/error rates. The numbers are for reading; what gates is the
//! exit code, nonzero unless
//!
//! * every request was answered without a 5xx, a transport error or a
//!   mismatched `X-Request-Id` echo (shed 503s and 504s are the server
//!   *keeping* its latency promise, not breaking it), and
//! * with `--scrape-metrics`, `/metrics` parsed strictly before and after
//!   the burst, carried every required family, and no counter went
//!   backwards.
//!
//! Absolute serving latency and throughput are the repository
//! benchmark's `serve_mlp` workload.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use autograph_serve::client::{wait_ready, Client};
use autograph_serve::prom::{self, Scrape};
use autograph_serve::server::REQUIRED_METRIC_FAMILIES;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    addr: Option<String>,
    addr_file: Option<String>,
    function: String,
    body: String,
    threads: usize,
    requests: usize,
    deadline_ms: Option<u64>,
    warmup: usize,
    scrape_metrics: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: autograph-loadgen (--addr HOST:PORT | --addr-file FILE) --function NAME\n\
         \x20  [--body JSON] [--threads N] [--requests N] [--deadline-ms N] [--warmup N]\n\
         \x20  [--scrape-metrics]"
    );
    std::process::exit(2);
}

/// Latency percentile by the **nearest-rank** definition: over `N`
/// ascending values, the p-th percentile is the value at 1-based rank
/// `⌈p·N⌉` (clamped to `[1, N]`) — an actually-observed sample, never
/// an interpolation. Input is ascending microseconds; the result is
/// milliseconds. Empty input yields 0.
fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let n = sorted_us.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted_us[rank - 1] as f64 / 1000.0
}

/// `GET /metrics` and strictly parse/validate the exposition document.
fn scrape_metrics(addr: &str) -> Result<Scrape, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect for /metrics: {e}"))?;
    let resp = c
        .request("GET", "/metrics", "", "")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/metrics returned {}", resp.status));
    }
    prom::parse_and_validate(&resp.text())
}

/// Cross-scrape invariants: every required family is present after the
/// burst, and no counter (or histogram bucket/sum/count) went backwards.
fn check_scrapes(before: &Scrape, after: &Scrape) -> Result<(), String> {
    for fam in REQUIRED_METRIC_FAMILIES {
        if !after.has_family(fam) {
            return Err(format!("required metric family '{fam}' is missing"));
        }
    }
    let earlier = before.monotonic_samples();
    for (key, v_after) in after.monotonic_samples() {
        if let Some(v_before) = earlier.get(&key) {
            if v_after < *v_before {
                return Err(format!(
                    "counter '{key}' went backwards across scrapes: {v_before} -> {v_after}"
                ));
            }
        }
    }
    Ok(())
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        addr_file: None,
        function: String::new(),
        body: "{\"args\":[1.0]}".to_string(),
        threads: 2,
        requests: 50,
        deadline_ms: None,
        warmup: 5,
        scrape_metrics: false,
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
            "--addr" => args.addr = Some(value("--addr")),
            "--addr-file" => args.addr_file = Some(value("--addr-file")),
            "--function" => args.function = value("--function"),
            "--body" => args.body = value("--body"),
            "--threads" => args.threads = parse_num(&value("--threads"), "--threads"),
            "--requests" => args.requests = parse_num(&value("--requests"), "--requests"),
            "--deadline-ms" => {
                args.deadline_ms = Some(parse_num(&value("--deadline-ms"), "--deadline-ms"))
            }
            "--warmup" => args.warmup = parse_num(&value("--warmup"), "--warmup"),
            "--scrape-metrics" => args.scrape_metrics = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
    }
    if args.function.is_empty() {
        eprintln!("--function is required");
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

#[derive(Default)]
struct Counters {
    ok: AtomicU64,
    shed: AtomicU64,        // 503
    deadline: AtomicU64,    // 504
    client_4xx: AtomicU64,  // 4xx incl. 499
    server_5xx: AtomicU64,  // 500 (real failures)
    transport: AtomicU64,   // socket-level trouble
    id_mismatch: AtomicU64, // X-Request-Id echo didn't match what we sent
}

fn main() {
    let args = parse_args();
    let addr = match (&args.addr, &args.addr_file) {
        (Some(a), _) => a.clone(),
        (None, Some(path)) => {
            // the server writes the file only once its socket is live;
            // poll so `autograph-serve ... & autograph-loadgen ...` works
            let t0 = std::time::Instant::now();
            loop {
                match std::fs::read_to_string(path) {
                    Ok(s) if !s.trim().is_empty() => break s.trim().to_string(),
                    _ if t0.elapsed() > Duration::from_secs(10) => {
                        eprintln!("addr file {path} never appeared");
                        std::process::exit(1);
                    }
                    _ => std::thread::sleep(Duration::from_millis(50)),
                }
            }
        }
        (None, None) => usage(),
    };
    if !wait_ready(&addr, Duration::from_secs(10)) {
        eprintln!("server at {addr} never became ready");
        std::process::exit(1);
    }

    // warmup primes session pools and the EWMA the shed policy uses
    if args.warmup > 0 {
        if let Ok(mut c) = Client::connect(&addr) {
            for _ in 0..args.warmup {
                let _ = c.run(&args.function, &args.body, args.deadline_ms);
            }
        }
    }

    // scrape /metrics before the burst so the post-burst scrape can
    // assert counters only ever moved forward
    let scrape_before = if args.scrape_metrics {
        match scrape_metrics(&addr) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("pre-burst /metrics scrape failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    let counters = Arc::new(Counters::default());
    let t0 = Instant::now();
    let handles: Vec<_> = (0..args.threads.max(1))
        .map(|ti| {
            let addr = addr.clone();
            let function = args.function.clone();
            let body = args.body.clone();
            let deadline_ms = args.deadline_ms;
            let requests = args.requests;
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || {
                let run_path = format!("/run/{function}");
                let mut latencies_us: Vec<u64> = Vec::with_capacity(requests);
                let mut client = Client::connect(&addr).ok();
                for seq in 0..requests {
                    let c = match client.as_mut() {
                        Some(c) => c,
                        None => match Client::connect(&addr) {
                            Ok(c) => {
                                client = Some(c);
                                match client.as_mut() {
                                    Some(c) => c,
                                    None => continue,
                                }
                            }
                            Err(_) => {
                                counters.transport.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                        },
                    };
                    // every request carries a propagatable id the server
                    // echoes back and threads through its span tree
                    let req_id = format!("lg-{ti}-{seq}");
                    let mut extra = format!("X-Request-Id: {req_id}\r\n");
                    if let Some(ms) = deadline_ms {
                        extra.push_str(&format!("X-Deadline-Ms: {ms}\r\n"));
                    }
                    let rt0 = Instant::now();
                    match c.request("POST", &run_path, &extra, &body) {
                        Ok(resp) => {
                            if resp.header("x-request-id") != Some(req_id.as_str()) {
                                counters.id_mismatch.fetch_add(1, Ordering::Relaxed);
                            }
                            match resp.status {
                                200 => {
                                    counters.ok.fetch_add(1, Ordering::Relaxed);
                                    latencies_us
                                        .push(rt0.elapsed().as_micros().min(u128::from(u64::MAX))
                                            as u64);
                                }
                                503 => {
                                    counters.shed.fetch_add(1, Ordering::Relaxed);
                                }
                                504 => {
                                    counters.deadline.fetch_add(1, Ordering::Relaxed);
                                }
                                s if (400..500).contains(&s) => {
                                    counters.client_4xx.fetch_add(1, Ordering::Relaxed);
                                }
                                _ => {
                                    counters.server_5xx.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            // honor Retry-After so a shedding server sees
                            // well-behaved backoff, not a stampede
                            if resp.status == 503 {
                                if let Some(secs) = resp
                                    .header("retry-after")
                                    .and_then(|v| v.parse::<u64>().ok())
                                {
                                    std::thread::sleep(Duration::from_millis(
                                        (secs * 1000).min(200),
                                    ));
                                }
                            }
                        }
                        Err(_) => {
                            counters.transport.fetch_add(1, Ordering::Relaxed);
                            client = None; // reconnect next iteration
                        }
                    }
                }
                latencies_us
            })
        })
        .collect();
    let mut latencies_us: Vec<u64> = Vec::new();
    for h in handles {
        if let Ok(mut l) = h.join() {
            latencies_us.append(&mut l);
        }
    }
    let wall = t0.elapsed();

    latencies_us.sort_unstable();
    let p50_ms = percentile_ms(&latencies_us, 0.50);
    let p99_ms = percentile_ms(&latencies_us, 0.99);
    let mean_ms = if latencies_us.is_empty() {
        0.0
    } else {
        latencies_us.iter().sum::<u64>() as f64 / latencies_us.len() as f64 / 1000.0
    };
    let ok = counters.ok.load(Ordering::Relaxed);
    let shed = counters.shed.load(Ordering::Relaxed);
    let deadline = counters.deadline.load(Ordering::Relaxed);
    let client_4xx = counters.client_4xx.load(Ordering::Relaxed);
    let server_5xx = counters.server_5xx.load(Ordering::Relaxed);
    let transport = counters.transport.load(Ordering::Relaxed);
    let id_mismatch = counters.id_mismatch.load(Ordering::Relaxed);
    let total = ok + shed + deadline + client_4xx + server_5xx + transport;
    let throughput_rps = ok as f64 / wall.as_secs_f64().max(1e-9);
    let shed_fraction = if total == 0 {
        0.0
    } else {
        shed as f64 / total as f64
    };
    let all_ok = server_5xx == 0 && transport == 0 && id_mismatch == 0;

    // the post-burst scrape must parse, carry every required family, and
    // show every counter at-or-above its pre-burst value
    let metrics_ok = match (&scrape_before, args.scrape_metrics) {
        (Some(before), true) => match scrape_metrics(&addr) {
            Ok(after) => match check_scrapes(before, &after) {
                Ok(()) => {
                    eprintln!(
                        "metrics: {} samples, {} families, counters monotonic",
                        after.samples.len(),
                        after.types.len()
                    );
                    Some(true)
                }
                Err(e) => {
                    eprintln!("metrics validation failed: {e}");
                    Some(false)
                }
            },
            Err(e) => {
                eprintln!("post-burst /metrics scrape failed: {e}");
                Some(false)
            }
        },
        _ => None,
    };

    println!(
        "loadgen {}x{} on {} ({}): {} ok, {} shed, {} deadline, {} 4xx, {} 5xx, {} transport",
        args.threads,
        args.requests,
        args.function,
        addr,
        ok,
        shed,
        deadline,
        client_4xx,
        server_5xx,
        transport
    );
    println!(
        "  latency ms (admitted, nearest-rank): p50 {p50_ms:.3}  p99 {p99_ms:.3}  mean {mean_ms:.3}  |  {throughput_rps:.1} req/s  shed {:.1}%",
        shed_fraction * 100.0
    );
    println!(
        "  request ids lg-0-0 .. lg-{}-{} propagated; {} echo mismatch(es)",
        args.threads.max(1) - 1,
        args.requests.saturating_sub(1),
        id_mismatch
    );

    if !all_ok || metrics_ok == Some(false) {
        eprintln!("FAIL: all_ok={all_ok} metrics_ok={metrics_ok:?}");
        std::process::exit(1);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::percentile_ms;

    #[test]
    fn nearest_rank_matches_the_definition() {
        // canonical nearest-rank example: N=5, p95 → rank ⌈0.95·5⌉ = 5
        let v = [15_000, 20_000, 35_000, 40_000, 50_000];
        assert_eq!(percentile_ms(&v, 0.05), 15.0); // rank ⌈0.25⌉ = 1
        assert_eq!(percentile_ms(&v, 0.30), 20.0); // rank ⌈1.5⌉ = 2
        assert_eq!(percentile_ms(&v, 0.40), 20.0); // rank 2 exactly
        assert_eq!(percentile_ms(&v, 0.50), 35.0); // rank ⌈2.5⌉ = 3
        assert_eq!(percentile_ms(&v, 0.95), 50.0); // rank ⌈4.75⌉ = 5
        assert_eq!(percentile_ms(&v, 1.00), 50.0); // rank 5
    }

    #[test]
    fn percentile_always_returns_an_observed_sample() {
        let v: Vec<u64> = (1..=100).map(|i| i * 1000).collect();
        for p in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let got = percentile_ms(&v, p);
            assert!(
                v.iter().any(|&us| us as f64 / 1000.0 == got),
                "p{p} = {got} is not an observed value"
            );
        }
        // p99 over 100 samples is exactly the 99th value (rank 99)
        assert_eq!(percentile_ms(&v, 0.99), 99.0);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
        assert_eq!(percentile_ms(&[7_000], 0.0), 7.0); // rank clamps to 1
        assert_eq!(percentile_ms(&[7_000], 1.0), 7.0);
        assert_eq!(percentile_ms(&[1_000, 2_000], 0.0), 1.0);
    }
}
