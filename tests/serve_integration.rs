//! Integration suite for `crates/serve`: the HTTP serving layer must be
//! a transparent, resilient shell around `Session::run` —
//!
//! * **transparent**: results over HTTP/JSON are bitwise-equal to a
//!   direct session run of the same staged graph, under concurrent
//!   clients and under dynamic batching;
//! * **resilient**: overload sheds with 503 + `Retry-After` instead of
//!   queueing to death, deadlines propagate into the run (504), client
//!   disconnects cancel work (499 + stats), circuit breakers trip and
//!   recover, and graceful drain finishes in-flight work while leaving
//!   the tensor memory ledger exactly where it started.
//!
//! Servers in this suite share process-global state (the content-hash
//! staging cache, the tensor memory ledger), so every test serializes
//! on one mutex, same as `tests/chaos.rs`.

use autograph_serve::client::{wait_ready, Client};
use autograph_serve::json::{parse_outputs, write_tensor};
use autograph_serve::prom;
use autograph_serve::server::REQUIRED_METRIC_FAMILIES;
use autograph_serve::{ModelRegistry, RegistryConfig, Server, ServerConfig, TelemetryConfig};
use autograph_tensor::{mem, Tensor};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

#[path = "support/corpus.rs"]
mod corpus;

#[path = "support/check.rs"]
mod check;
use check::assert_bitwise_eq;

fn lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn boot(src: &str, cfg: ServerConfig, reg_cfg: &RegistryConfig) -> Server {
    let registry = ModelRegistry::load(src, reg_cfg).expect("registry load");
    let server = Server::start(registry, cfg).expect("server start");
    assert!(
        wait_ready(&server.addr().to_string(), Duration::from_secs(10)),
        "server never became ready"
    );
    server
}

fn body_for(args: &[&Tensor]) -> String {
    let mut out = String::from("{\"args\":[");
    for (i, t) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_tensor(t, &mut out);
    }
    out.push_str("]}");
    out
}

fn stat(stats_body: &str, key: &str) -> u64 {
    let v: serde_json::Value = serde_json::from_str(stats_body).expect("stats JSON");
    v.get(key)
        .and_then(serde_json::Value::as_f64)
        .unwrap_or_else(|| panic!("stats missing '{key}': {stats_body}")) as u64
}

/// A corpus program whose single `def f` can be renamed into a combined
/// module. Returns `None` for multi-function programs or self-calls.
fn rename_f(src: &str, i: usize) -> Option<String> {
    if src.matches("def ").count() != 1 {
        return None;
    }
    let renamed = src.replacen("def f(", &format!("def f_{i}("), 1);
    if !renamed.contains(&format!("def f_{i}(")) {
        return None;
    }
    // a bare `f(` left over means the function calls itself — renaming
    // call sites is not worth the fragility, skip such programs
    let bytes = renamed.as_bytes();
    for (pos, _) in renamed.match_indices("f(") {
        let prev = if pos == 0 { b'\n' } else { bytes[pos - 1] };
        if !(prev.is_ascii_alphanumeric() || prev == b'_' || prev == b'.') {
            return None;
        }
    }
    Some(renamed)
}

/// The whole (single-function) corpus over HTTP, four concurrent client
/// threads, every response bitwise-equal to a direct `Session::run` of
/// the same staged entry.
#[test]
fn corpus_over_http_is_bitwise_equal_to_direct_session_run() {
    let _l = lock();
    let progs = corpus::programs();
    let mut combined = String::new();
    let mut cases: Vec<(String, Vec<(&'static str, Tensor)>)> = Vec::new();
    for (i, p) in progs.iter().enumerate() {
        if let Some(renamed) = rename_f(p.src, i) {
            combined.push_str(&renamed);
            combined.push('\n');
            cases.push((format!("f_{i}"), p.feeds.clone()));
        }
    }
    assert!(
        cases.len() >= 15,
        "corpus shrank unexpectedly: only {} single-function programs",
        cases.len()
    );

    let reg_cfg = RegistryConfig::default();
    let registry = ModelRegistry::load(&combined, &reg_cfg).expect("combined registry");
    assert!(
        registry.failed.is_empty(),
        "combined corpus staging failures: {:?}",
        registry
            .failed
            .iter()
            .map(|f| format!("{}: {}", f.name, f.error))
            .collect::<Vec<_>>()
    );

    // reference: direct session runs of the same staged entries
    let mut expected: Vec<Vec<Tensor>> = Vec::new();
    for (name, feeds) in &cases {
        let entry = registry
            .get(name)
            .unwrap_or_else(|| panic!("{name} staged"));
        let args: Vec<Tensor> = entry
            .arg_names
            .iter()
            .map(|n| {
                feeds
                    .iter()
                    .find(|(fn_name, _)| fn_name == n)
                    .map(|(_, t)| t.clone())
                    .unwrap_or_else(|| panic!("{name}: feed {n} missing"))
            })
            .collect();
        let out = entry
            .with_session(|sess| {
                let pairs: Vec<(&str, Tensor)> = entry
                    .arg_names
                    .iter()
                    .map(String::as_str)
                    .zip(args.iter().cloned())
                    .collect();
                sess.run(&pairs, &entry.outputs)
            })
            .unwrap_or_else(|e| panic!("{name}: direct run: {e}"));
        expected.push(out);
    }

    let server = Server::start(registry, ServerConfig::default()).expect("server start");
    let addr = server.addr().to_string();
    assert!(wait_ready(&addr, Duration::from_secs(10)));

    // the same workload from four concurrent keep-alive clients
    let reg2 = ModelRegistry::load(&combined, &reg_cfg).expect("cache hit");
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let addr = addr.clone();
            let cases = &cases;
            let expected = &expected;
            let reg2 = &reg2;
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for ((name, feeds), want) in cases.iter().zip(expected) {
                    let entry = reg2.get(name).unwrap_or_else(|| panic!("{name}"));
                    let args: Vec<&Tensor> = entry
                        .arg_names
                        .iter()
                        .map(|n| {
                            feeds
                                .iter()
                                .find(|(fn_name, _)| fn_name == n)
                                .map(|(_, t)| t)
                                .unwrap_or_else(|| panic!("{name}: feed {n}"))
                        })
                        .collect();
                    let resp = client
                        .run(name, &body_for(&args), Some(30_000))
                        .unwrap_or_else(|e| panic!("{name}: request: {e}"));
                    assert_eq!(resp.status, 200, "{name}: {}", resp.text());
                    let got = parse_outputs(&resp.text()).unwrap_or_else(|e| panic!("{name}: {e}"));
                    assert_bitwise_eq(name, "http vs direct", &got, want);
                }
            });
        }
    });
    let report = server.shutdown(Duration::from_secs(5));
    assert!(report.clean, "drain left {} in flight", report.abandoned);
}

/// `spin(x)` counts to `x` through a graph `While` node (the bound is
/// data-dependent, so staging cannot unroll it): the knob the tests use
/// to hold a worker busy for a controlled time (~6µs/iteration in a
/// debug build), while staying deadline- and cancel-responsive.
const SPIN: &str = "\
def spin(x):
    i = 0.0
    while i < x:
        i = i + 1.0
    return i

def quick(x):
    return x * 2.0
";

/// ~0.3–0.5s of graph work in a debug build.
const SPIN_BUSY: &str = "{\"args\":[60000.0]}";
/// Far beyond any test deadline — must be cut short by deadline/cancel.
const SPIN_FOREVER: &str = "{\"args\":[1000000000.0]}";

/// Under overload the server sheds with 503 + Retry-After instead of
/// queueing to death; afterwards it serves bitwise-identical results.
#[test]
fn overload_sheds_instead_of_queueing_to_death() {
    let _l = lock();
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 2,
        ..ServerConfig::default()
    };
    let server = boot(SPIN, cfg, &RegistryConfig::default());
    let addr = server.addr().to_string();

    let pre = {
        let mut c = Client::connect(&addr).expect("connect");
        let resp = c
            .run("quick", "{\"args\":[21.0]}", Some(30_000))
            .expect("pre");
        assert_eq!(resp.status, 200, "{}", resp.text());
        resp.text()
    };

    // 10 concurrent slow requests against 1 worker + queue of 2: at
    // least 7 must shed, every client must get an answer promptly
    let t0 = Instant::now();
    let statuses: Vec<(u16, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..10)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    let resp = c.run("spin", SPIN_BUSY, Some(60_000)).expect("response");
                    (resp.status, resp.header("retry-after").map(str::to_string))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let ok = statuses.iter().filter(|(s, _)| *s == 200).count();
    let shed = statuses.iter().filter(|(s, _)| *s == 503).count();
    assert_eq!(ok + shed, 10, "unexpected statuses: {statuses:?}");
    assert!(ok >= 1, "some requests must be admitted: {statuses:?}");
    assert!(shed >= 5, "expected mass shedding: {statuses:?}");
    for (s, retry) in &statuses {
        if *s == 503 {
            let retry = retry.as_ref().expect("503 carries Retry-After");
            assert!(retry.parse::<u64>().expect("integer Retry-After") >= 1);
        }
    }
    assert!(
        elapsed < Duration::from_secs(60),
        "overload burst took {elapsed:?} — queued to death"
    );

    // post-burst: bitwise-identical to pre-burst
    let mut c = Client::connect(&addr).expect("connect");
    let resp = c
        .run("quick", "{\"args\":[21.0]}", Some(30_000))
        .expect("post");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(
        resp.text(),
        pre,
        "post-burst response differs from pre-burst"
    );
    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.clean, "drain left {} in flight", report.abandoned);
}

/// `X-Deadline-Ms` propagates into the graph run and expires as 504
/// with a structured body; the connection survives for the next request.
#[test]
fn deadline_propagates_and_expires_as_504() {
    let _l = lock();
    let server = boot(SPIN, ServerConfig::default(), &RegistryConfig::default());
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");
    let t0 = Instant::now();
    let resp = c.run("spin", SPIN_FOREVER, Some(100)).expect("resp");
    assert_eq!(resp.status, 504, "{}", resp.text());
    assert!(
        resp.text().contains("\"kind\":\"deadline_exceeded\""),
        "{}",
        resp.text()
    );
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "deadline did not bound the run: {:?}",
        t0.elapsed()
    );
    // keep-alive survives a 504
    let resp = c
        .run("quick", "{\"args\":[1.0]}", Some(10_000))
        .expect("resp");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let report = server.shutdown(Duration::from_secs(5));
    assert!(report.clean);
}

/// Dropping the connection mid-run cancels the graph run (visible in
/// `/stats` as `cancelled`), so abandoned work doesn't occupy workers.
#[test]
fn client_disconnect_cancels_the_run() {
    let _l = lock();
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = boot(SPIN, cfg, &RegistryConfig::default());
    let addr = server.addr().to_string();
    {
        // fire the request raw, let it get picked up, then vanish
        let body = SPIN_FOREVER;
        let head = format!(
            "POST /run/spin HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nX-Deadline-Ms: 60000\r\n\r\n{body}",
            body.len()
        );
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        raw.write_all(head.as_bytes()).expect("send");
        std::thread::sleep(Duration::from_millis(300));
        drop(raw);
    }
    // the cancel must free the single worker well before the deadline
    let t0 = Instant::now();
    let mut cancelled_seen = false;
    let mut c = Client::connect(&addr).expect("stats connect");
    while t0.elapsed() < Duration::from_secs(20) {
        let resp = c.request("GET", "/stats", "", "").expect("stats");
        if stat(&resp.text(), "cancelled") >= 1 {
            cancelled_seen = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(cancelled_seen, "disconnect never cancelled the run");
    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.clean, "drain left {} in flight", report.abandoned);
}

/// Consecutive execution failures trip the per-function breaker into
/// fast-fail 503s; after the cooldown a half-open probe re-admits
/// traffic and a success closes the breaker. Error bodies carry the
/// structured GraphError attribution (node, line, source line).
#[test]
fn breaker_trips_fast_fails_and_recovers_via_half_open_probe() {
    let _l = lock();
    let src = "def mm(a, b):\n    return tf.matmul(a, b)\n";
    let reg_cfg = RegistryConfig {
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(200),
        ..RegistryConfig::default()
    };
    let server = boot(src, ServerConfig::default(), &reg_cfg);
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");

    let good = {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).expect("a");
        body_for(&[&a, &a])
    };
    let bad = "{\"args\":[1.0, 2.0]}"; // scalars: matmul wants rank 2

    // a healthy run first (also seeds the session pool)
    let resp = c.run("mm", &good, Some(10_000)).expect("good");
    assert_eq!(resp.status, 200, "{}", resp.text());

    // three consecutive execution failures trip the breaker...
    for i in 0..3 {
        let resp = c.run("mm", bad, Some(10_000)).expect("bad");
        assert_eq!(resp.status, 500, "bad #{i}: {}", resp.text());
        let text = resp.text();
        assert!(text.contains("\"kind\":\"graph_error\""), "{text}");
        assert!(
            text.contains("\"node\":") && text.contains("\"line\":"),
            "500 body lacks GraphError attribution: {text}"
        );
        assert!(
            text.contains("\"source_line\":\"    return tf.matmul(a, b)\""),
            "500 body lacks provenance source line: {text}"
        );
    }
    // ...and now even a good request fast-fails
    let resp = c.run("mm", &good, Some(10_000)).expect("tripped");
    assert_eq!(resp.status, 503, "{}", resp.text());
    assert!(
        resp.text().contains("\"kind\":\"breaker_open\""),
        "{}",
        resp.text()
    );
    assert!(
        resp.header("retry-after").is_some(),
        "breaker 503 carries Retry-After"
    );

    // after the cooldown, the half-open probe succeeds and closes it
    std::thread::sleep(Duration::from_millis(300));
    let resp = c.run("mm", &good, Some(10_000)).expect("probe");
    assert_eq!(resp.status, 200, "probe: {}", resp.text());
    let resp = c.run("mm", &good, Some(10_000)).expect("closed");
    assert_eq!(resp.status, 200, "closed: {}", resp.text());
    let report = server.shutdown(Duration::from_secs(5));
    assert!(report.clean);
}

/// Concurrent same-function requests coalesce into batched runs when
/// the function is declared batchable — without changing any result.
#[test]
fn dynamic_batching_coalesces_without_changing_results() {
    let _l = lock();
    let cfg = ServerConfig {
        workers: 1, // one worker: batchable work piles up behind `spin`
        max_batch: 8,
        ..ServerConfig::default()
    };
    let reg_cfg = RegistryConfig {
        batch_fns: Some(vec!["quick".to_string()]),
        ..RegistryConfig::default()
    };
    let server = boot(SPIN, cfg, &reg_cfg);
    let addr = server.addr().to_string();

    let before = {
        let mut c = Client::connect(&addr).expect("connect");
        let resp = c.request("GET", "/stats", "", "").expect("stats");
        (
            stat(&resp.text(), "batches"),
            stat(&resp.text(), "batch_members"),
        )
    };

    std::thread::scope(|scope| {
        // occupy the single worker...
        let spin_addr = addr.clone();
        let spin = scope.spawn(move || {
            let mut c = Client::connect(&spin_addr).expect("connect");
            let resp = c.run("spin", SPIN_BUSY, Some(60_000)).expect("spin");
            assert_eq!(resp.status, 200, "{}", resp.text());
        });
        std::thread::sleep(Duration::from_millis(150)); // let spin get picked up
                                                        // ...while four batchable requests queue behind it
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    let x = 1.0 + i as f32;
                    let resp = c
                        .run("quick", &format!("{{\"args\":[{x}]}}"), Some(60_000))
                        .expect("quick");
                    assert_eq!(resp.status, 200, "{}", resp.text());
                    let out = parse_outputs(&resp.text()).expect("outputs");
                    assert_eq!(out.len(), 1);
                    assert_eq!(
                        out[0].scalar_value_f32().expect("scalar").to_bits(),
                        (x * 2.0).to_bits(),
                        "member {i} got a wrong value"
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().expect("quick thread");
        }
        spin.join().expect("spin thread");
    });

    let mut c = Client::connect(&addr).expect("connect");
    let resp = c.request("GET", "/stats", "", "").expect("stats");
    let batches = stat(&resp.text(), "batches");
    let members = stat(&resp.text(), "batch_members");
    assert!(
        batches > before.0 && members >= before.1 + 2,
        "no batch formed: batches {} -> {batches}, members {} -> {members}",
        before.0,
        before.1
    );
    let report = server.shutdown(Duration::from_secs(10));
    assert!(report.clean);
}

/// Every response carries an `X-Request-Id` — echoed (sanitized) when
/// the client supplies one, generated otherwise — and error bodies
/// carry the same id, so a client-side log line joins against the
/// server's trace of that exact request.
#[test]
fn request_ids_echo_and_join_error_bodies() {
    let _l = lock();
    let server = boot(SPIN, ServerConfig::default(), &RegistryConfig::default());
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");

    // success: the supplied id comes back in the response header
    let resp = c
        .request(
            "POST",
            "/run/quick",
            "X-Request-Id: it-works-1\r\n",
            "{\"args\":[1.0]}",
        )
        .expect("ok request");
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.header("x-request-id"), Some("it-works-1"));

    // error: the id rides both the header and the structured body
    let resp = c
        .request(
            "POST",
            "/run/quick",
            "X-Request-Id: it-fails-2\r\n",
            "{\"args\":[]}",
        )
        .expect("bad request");
    assert!(
        (400..=599).contains(&resp.status),
        "arity error expected: {} {}",
        resp.status,
        resp.text()
    );
    assert_eq!(resp.header("x-request-id"), Some("it-fails-2"));
    assert!(
        resp.text().contains("\"request_id\":\"it-fails-2\""),
        "error body lacks request_id: {}",
        resp.text()
    );

    // no id supplied: the server mints one
    let resp = c
        .run("quick", "{\"args\":[1.0]}", Some(10_000))
        .expect("no-id request");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let minted = resp
        .header("x-request-id")
        .expect("server-minted X-Request-Id");
    assert!(!minted.is_empty());

    let report = server.shutdown(Duration::from_secs(5));
    assert!(report.clean);
}

/// A body of 200 000 unclosed brackets used to overflow the connection
/// thread's stack inside the JSON parser and abort the whole process.
/// It is a 400 with a structured body, and the server keeps serving — on
/// the same connection and on a new one.
#[test]
fn deeply_nested_json_is_a_400_not_an_abort() {
    let _l = lock();
    let server = boot(SPIN, ServerConfig::default(), &RegistryConfig::default());
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");

    let hostile = format!("{{\"args\":{}", "[".repeat(200_000));
    let resp = c.run("quick", &hostile, Some(10_000)).expect("answered");
    assert_eq!(resp.status, 400, "{}", resp.text());
    let doc: serde_json::Value = serde_json::from_str(&resp.text()).expect("structured body");
    assert_eq!(doc["error"]["kind"].as_str(), Some("bad_request"));
    assert_eq!(doc["error"]["status"].as_u64(), Some(400));
    let message = doc["error"]["message"].as_str().expect("message");
    assert!(message.contains("recursion limit"), "{message}");
    assert!(doc["error"]["request_id"].as_str().is_some());

    for mut client in [c, Client::connect(&addr).expect("reconnect")] {
        let resp = client
            .run("quick", "{\"args\":[21.0]}", Some(10_000))
            .expect("served after the hostile body");
        assert_eq!(resp.status, 200, "{}", resp.text());
        let out = parse_outputs(&resp.text()).expect("outputs");
        assert_eq!(out[0].scalar_value_f32().expect("scalar"), 42.0);
    }

    let report = server.shutdown(Duration::from_secs(5));
    assert!(report.clean);
}

/// A tensor argument whose shape holds more elements than `usize` used to
/// pass the element-count check (the product wrapped to 0, which an empty
/// `data` matched) and ran with a 200. It is a 400.
#[test]
fn overflowing_tensor_shape_is_a_400() {
    let _l = lock();
    let server = boot(SPIN, ServerConfig::default(), &RegistryConfig::default());
    let mut c = Client::connect(server.addr().to_string()).expect("connect");
    let body = "{\"args\":[{\"shape\":[4294967296,4294967296],\"data\":[]}]}";
    let resp = c.run("quick", body, Some(10_000)).expect("answered");
    assert_eq!(resp.status, 400, "{}", resp.text());
    let doc: serde_json::Value = serde_json::from_str(&resp.text()).expect("structured body");
    let message = doc["error"]["message"].as_str().expect("message");
    assert!(
        message.contains("more elements than usize holds"),
        "{message}"
    );
    let report = server.shutdown(Duration::from_secs(5));
    assert!(report.clean);
}

/// `GET /metrics` stays a valid Prometheus exposition while four client
/// threads hammer `/run` and a fifth scrapes concurrently; counters
/// never go backwards between scrapes and every required family is
/// present.
#[test]
fn metrics_endpoint_stays_valid_under_concurrent_scrapes() {
    let _l = lock();
    let server = boot(SPIN, ServerConfig::default(), &RegistryConfig::default());
    let addr = server.addr().to_string();

    let scrape = |c: &mut Client| -> prom::Scrape {
        let resp = c.request("GET", "/metrics", "", "").expect("GET /metrics");
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert!(
            resp.header("content-type")
                .is_some_and(|ct| ct.starts_with("text/plain")),
            "metrics content type: {:?}",
            resp.header("content-type")
        );
        prom::parse_and_validate(&resp.text()).expect("valid exposition")
    };

    let mut c = Client::connect(&addr).expect("connect");
    let before = scrape(&mut c);

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                for _ in 0..25 {
                    let resp = c
                        .run("quick", "{\"args\":[2.0]}", Some(30_000))
                        .expect("run");
                    assert_eq!(resp.status, 200, "{}", resp.text());
                }
            });
        }
        // scrape continuously while the load runs: every intermediate
        // document must parse and validate (cumulative buckets, +Inf,
        // count == +Inf bucket), even mid-update
        let stop = &stop;
        let addr = addr.clone();
        scope.spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            let mut scrapes = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let resp = c.request("GET", "/metrics", "", "").expect("GET /metrics");
                assert_eq!(resp.status, 200);
                prom::parse_and_validate(&resp.text())
                    .unwrap_or_else(|e| panic!("mid-load scrape invalid: {e}"));
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(scrapes >= 1, "scraper never ran");
        });
        // the load threads finish on their own; release the scraper once
        // the scope's other children are done is not expressible, so just
        // give the scraper a slice of the burst and stop it
        std::thread::sleep(Duration::from_millis(200));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    let after = scrape(&mut c);
    for fam in REQUIRED_METRIC_FAMILIES {
        assert!(after.has_family(fam), "missing required family {fam}");
    }
    // all 100 requests landed in the right counter series
    let served = after
        .value("autograph_requests_total", "{fn=\"quick\",class=\"2xx\"}")
        .expect("requests_total{fn=quick,class=2xx}");
    assert!(served >= 100.0, "only {served} counted");
    // monotonic counters never decrease across scrapes
    let b = before.monotonic_samples();
    let a = after.monotonic_samples();
    for (series, v0) in &b {
        let v1 = a
            .get(series)
            .unwrap_or_else(|| panic!("series {series} vanished between scrapes"));
        assert!(v1 >= v0, "{series} went backwards: {v0} -> {v1}");
    }

    let report = server.shutdown(Duration::from_secs(5));
    assert!(report.clean);
}

/// With `trace_sample: 1` every request is traced: `/debug/trace`
/// returns Chrome-trace span trees whose phase events share the
/// client's request id, plus thread-name metadata events.
#[test]
fn debug_trace_exposes_sampled_span_trees() {
    let _l = lock();
    let cfg = ServerConfig {
        telemetry: TelemetryConfig {
            trace_sample: 1,
            trace_ring: 16,
            slo_ms: 25,
        },
        ..ServerConfig::default()
    };
    let server = boot(SPIN, cfg, &RegistryConfig::default());
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");
    for i in 0..3 {
        let resp = c
            .request(
                "POST",
                "/run/quick",
                &format!("X-Request-Id: traced-{i}\r\n"),
                "{\"args\":[1.0]}",
            )
            .expect("traced request");
        assert_eq!(resp.status, 200, "{}", resp.text());
    }

    let resp = c
        .request("GET", "/debug/trace?n=8", "", "")
        .expect("GET /debug/trace");
    assert_eq!(resp.status, 200, "{}", resp.text());
    let doc: serde_json::Value = serde_json::from_str(&resp.text()).expect("trace JSON");
    let events = doc
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");

    let for_id = |id: &str| -> Vec<&serde_json::Value> {
        events
            .iter()
            .filter(|e| {
                e.get("args")
                    .and_then(|a| a.get("request_id"))
                    .and_then(serde_json::Value::as_str)
                    == Some(id)
            })
            .collect()
    };
    for i in 0..3 {
        let id = format!("traced-{i}");
        let evs = for_id(&id);
        let request = evs
            .iter()
            .find(|e| e.get("cat").and_then(serde_json::Value::as_str) == Some("request"))
            .unwrap_or_else(|| panic!("{id}: no umbrella request event"));
        assert_eq!(
            request
                .get("args")
                .and_then(|a| a.get("status"))
                .and_then(serde_json::Value::as_f64),
            Some(200.0)
        );
        let phases: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("cat").and_then(serde_json::Value::as_str) == Some("phase"))
            .filter_map(|e| e.get("name").and_then(serde_json::Value::as_str))
            .collect();
        for want in ["decode", "admit", "queue_wait", "run", "respond"] {
            assert!(
                phases.contains(&want),
                "{id}: phase {want} missing from {phases:?}"
            );
        }
    }
    // metadata events name the process and its worker threads
    let thread_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(serde_json::Value::as_str) == Some("M"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(serde_json::Value::as_str)
        })
        .collect();
    assert!(
        thread_names.contains(&"autograph-serve"),
        "{thread_names:?}"
    );
    assert!(
        thread_names.iter().any(|n| n.starts_with("serve-worker-")),
        "no serve-worker-N metadata: {thread_names:?}"
    );

    let report = server.shutdown(Duration::from_secs(5));
    assert!(report.clean);
}

/// `/stats` exposes rolling 10s/1m/5m windows with nearest-rank
/// percentiles and SLO burn, updated live as requests land.
#[test]
fn stats_windows_carry_rolling_percentiles() {
    let _l = lock();
    let server = boot(SPIN, ServerConfig::default(), &RegistryConfig::default());
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");
    for _ in 0..5 {
        let resp = c
            .run("quick", "{\"args\":[3.0]}", Some(30_000))
            .expect("run");
        assert_eq!(resp.status, 200, "{}", resp.text());
    }

    let resp = c.request("GET", "/stats", "", "").expect("GET /stats");
    assert_eq!(resp.status, 200);
    let doc: serde_json::Value = serde_json::from_str(&resp.text()).expect("stats JSON");
    let windows = doc.get("windows").expect("stats carries windows");
    assert!(
        windows
            .get("slo_ms")
            .and_then(serde_json::Value::as_f64)
            .is_some_and(|v| v > 0.0),
        "windows.slo_ms: {windows:?}"
    );
    for label in ["10s", "1m", "5m"] {
        let w = windows
            .get(label)
            .unwrap_or_else(|| panic!("window {label} missing: {windows:?}"));
        for key in [
            "covered_s",
            "count",
            "rate_rps",
            "p50_ms",
            "p90_ms",
            "p99_ms",
            "over_slo_frac",
            "slo_burn",
        ] {
            assert!(
                w.get(key).and_then(serde_json::Value::as_f64).is_some(),
                "window {label} lacks numeric {key}: {w:?}"
            );
        }
        // all five requests are within every window span
        let count = w.get("count").and_then(serde_json::Value::as_f64);
        assert!(
            count.is_some_and(|n| n >= 5.0),
            "window {label} count {count:?} < 5"
        );
    }

    let report = server.shutdown(Duration::from_secs(5));
    assert!(report.clean);
}

/// Graceful drain: in-flight work finishes, new work is refused with
/// 503 `draining`, and after teardown the tensor memory ledger is back
/// at its pre-server baseline — serving leaks nothing.
#[test]
fn graceful_drain_finishes_inflight_and_restores_memory_ledger() {
    let _l = lock();
    mem::track_begin();
    let src = SPIN;
    let reg_cfg = RegistryConfig::default();

    // warm cycle: populate the process-global staging cache and any
    // lazily-allocated constants, then measure the baseline
    {
        let server = boot(src, ServerConfig::default(), &reg_cfg);
        let mut c = Client::connect(server.addr().to_string()).expect("connect");
        let resp = c
            .run("quick", "{\"args\":[1.0]}", Some(30_000))
            .expect("warm");
        assert_eq!(resp.status, 200);
        drop(c);
        let report = server.shutdown(Duration::from_secs(10));
        assert!(report.clean);
    }
    std::thread::sleep(Duration::from_millis(100)); // detached threads wind down
    let baseline = mem::snapshot().live_bytes;

    // serving cycle with work in flight across the drain
    {
        let cfg = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let server = boot(src, cfg, &reg_cfg);
        let addr = server.addr().to_string();
        let slow = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                c.run("spin", SPIN_BUSY, Some(60_000)).expect("slow")
            })
        };
        std::thread::sleep(Duration::from_millis(100)); // in flight now
        let drain_t0 = Instant::now();
        let report = server.shutdown(Duration::from_secs(30));
        assert!(report.clean, "drain left {} in flight", report.abandoned);
        // the in-flight request finished with a real answer
        let resp = slow.join().expect("slow thread");
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert!(drain_t0.elapsed() < Duration::from_secs(30));
        // a post-drain connection is refused cleanly, not hung
        if let Ok(mut c) = Client::connect(&addr) {
            let outcome = c.run("quick", "{\"args\":[1.0]}", Some(1_000));
            if let Ok(resp) = outcome {
                assert_eq!(
                    resp.status,
                    503,
                    "draining server must refuse: {}",
                    resp.text()
                );
            } // a connection error is equally acceptable — the listener is gone
        }
    }

    // ledger must return to baseline once the server is torn down
    let t0 = Instant::now();
    let mut live = mem::snapshot().live_bytes;
    while live != baseline && t0.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(50));
        live = mem::snapshot().live_bytes;
    }
    mem::track_end();
    assert_eq!(
        live,
        baseline,
        "serving cycle leaked {} bytes of tensors",
        live.saturating_sub(baseline)
    );
}

/// Warm restart against a populated plan cache: the second boot must
/// never enter the staging pipeline (no `staging/*` or
/// `serve/stage_program` obs spans), must report the disk hit through
/// the stage-cache counters and `/metrics`, and must serve responses
/// bitwise-identical to the cold boot's.
#[test]
fn warm_restart_skips_staging_and_serves_identical_responses() {
    let _l = lock();
    // a source unique to this test so no other test's in-process memo
    // or plan-cache artifact can satisfy it
    const SRC: &str = "\
def restart_f(x):
    y = tf.constant(0.0)
    while y < x:
        y = y + 0.75
    return tf.tanh(y) * 3.0

def restart_g(x):
    return x * x + 0.5
";
    let cache_dir =
        std::env::temp_dir().join(format!("agplan-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let reg_cfg = RegistryConfig {
        plan_cache: Some(cache_dir.clone()),
        ..RegistryConfig::default()
    };
    let cases: [(&str, f32); 3] = [("restart_f", 5.0), ("restart_f", 0.0), ("restart_g", 1.25)];

    // cold boot: populates the on-disk bundle
    autograph_serve::reset_stage_memo();
    let run_all = |addr: &str| -> Vec<Vec<Tensor>> {
        let mut client = Client::connect(addr).expect("connect");
        cases
            .iter()
            .map(|(name, v)| {
                let arg = Tensor::scalar_f32(*v);
                let resp = client
                    .run(name, &body_for(&[&arg]), Some(30_000))
                    .expect("run");
                assert_eq!(resp.status, 200, "{name}: {}", resp.text());
                parse_outputs(&resp.text()).expect("outputs")
            })
            .collect()
    };
    let server = boot(SRC, ServerConfig::default(), &reg_cfg);
    let cold_out = run_all(&server.addr().to_string());
    let report = server.shutdown(Duration::from_secs(5));
    assert!(report.clean);
    assert!(
        std::fs::read_dir(&cache_dir).expect("cache dir").any(|e| e
            .expect("entry")
            .path()
            .extension()
            .is_some_and(|x| x == "agpc")),
        "cold boot wrote no artifact"
    );

    // simulate a fresh process: drop the in-process memo, then reload
    // the registry under a recorder that would catch any staging work
    autograph_serve::reset_stage_memo();
    let hits_before = autograph_planstore::stats().hits;
    let recorder = std::sync::Arc::new(autograph_obs::AggregateRecorder::new());
    autograph_obs::install(recorder.clone());
    let registry = ModelRegistry::load(SRC, &reg_cfg).expect("warm registry load");
    autograph_obs::uninstall();
    let summary = recorder.summary();
    let staging_spans: Vec<&str> = summary
        .rows
        .iter()
        .map(|r| r.key.as_str())
        .filter(|k| {
            k.starts_with("staging/") || *k == "serve/stage_program" || *k == "serve/optimize"
        })
        .collect();
    assert!(
        staging_spans.is_empty(),
        "warm restart entered the staging pipeline: {staging_spans:?}"
    );
    assert_eq!(summary.counter("serve/stage_cache_hit"), Some(1));
    assert_eq!(summary.counter("serve/stage_cache_disk_hit"), Some(1));
    assert_eq!(summary.counter("serve/stage_cache_miss"), None);
    assert!(
        autograph_planstore::stats().hits > hits_before,
        "plan store recorded no hit on warm boot"
    );
    assert!(
        registry.failed.is_empty(),
        "warm staging failures: {:?}",
        registry
            .failed
            .iter()
            .map(|f| format!("{}: {}", f.name, f.error))
            .collect::<Vec<_>>()
    );

    // the warm server answers bitwise-identically to the cold one
    let server = Server::start(registry, ServerConfig::default()).expect("server start");
    let addr = server.addr().to_string();
    assert!(wait_ready(&addr, Duration::from_secs(10)));
    let warm_out = run_all(&addr);
    for (((name, _), cold), warm) in cases.iter().zip(&cold_out).zip(&warm_out) {
        assert_bitwise_eq(name, "warm vs cold boot", warm, cold);
    }

    // and /metrics carries the plan-cache hit
    let mut c = Client::connect(&addr).expect("connect");
    let resp = c.request("GET", "/metrics", "", "").expect("GET /metrics");
    assert_eq!(resp.status, 200);
    let scrape = prom::parse_and_validate(&resp.text()).expect("valid exposition");
    assert!(scrape.has_family("autograph_plan_cache_total"));
    let hit = scrape
        .value("autograph_plan_cache_total", "{event=\"hit\"}")
        .expect("plan_cache_total{event=hit}");
    assert!(hit >= 1.0, "plan cache hit not exported: {hit}");

    let report = server.shutdown(Duration::from_secs(5));
    assert!(report.clean);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
