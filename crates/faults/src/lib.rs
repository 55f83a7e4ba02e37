//! # autograph-faults
//!
//! Deterministic fault injection for chaos testing the execution layer.
//!
//! A [`FaultPlan`] is a list of rules — *inject fault kind K at sites
//! matching pattern P with probability R* — plus a seed. Executors call
//! [`inject`] at their kernel-dispatch points; the decision for each call
//! is a pure function of `(seed, site, op, call counter)`, so a given
//! plan produces a reproducible fault pattern on a fixed execution order.
//!
//! ## Cost when disabled
//!
//! [`inject`] is one relaxed atomic load when no plan is installed — the
//! same zero-cost-when-off discipline as `autograph-obs`. Production
//! builds never pay for the chaos machinery.
//!
//! ## Spec syntax
//!
//! Plans parse from `<rules>:<seed>`, where `<rules>` is a comma list of
//! `kind@pattern[@rate]` entries:
//!
//! ```text
//! AUTOGRAPH_FAULTS="error@matmul@0.5,panic@graph/*@0.01:42"
//! ```
//!
//! * `kind` — `error` (kernel returns an injected error), `panic`
//!   (kernel panics; executors must convert it to an error), `alloc`
//!   (simulated allocation failure, surfaced as an error), `delay`
//!   (scheduler sleep; perturbs timing, never values).
//! * `pattern` — `op`, `site/op`, either segment may be `*`. Sites in
//!   use: `graph` (both executors' kernel dispatch), `eager` (per-op
//!   dispatch), `par` (worker task entry — only `delay` applies there),
//!   `serve` (the HTTP serving layer: ops `admission` — fires as a shed
//!   before the request enters the queue, `batcher` — disables batch
//!   coalescing for the hit request, `respond` — fails the response
//!   write into a clean 500).
//! * `rate` — hit probability in `[0, 1]`, default `1`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What an injected fault does at the injection site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// The site returns an injected kernel error.
    Error,
    /// The site panics (exercises `catch_unwind` boundaries).
    Panic,
    /// The site reports an allocation failure (surfaced as an error).
    Alloc,
    /// The site sleeps briefly (exercises scheduler timing, not values).
    Delay,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Error => "error",
            FaultKind::Panic => "panic",
            FaultKind::Alloc => "alloc",
            FaultKind::Delay => "delay",
        })
    }
}

/// One injection rule: a kind, a site/op pattern, and a hit rate.
#[derive(Debug, Clone)]
pub(crate) struct FaultRule {
    /// What to inject.
    pub kind: FaultKind,
    /// `op`, `site/op`, with `*` wildcards per segment.
    pub pattern: String,
    /// Hit probability in `[0, 1]`.
    pub rate: f64,
}

impl FaultRule {
    fn matches(&self, site: &str, op: &str) -> bool {
        match self.pattern.split_once('/') {
            Some((s, o)) => (s == "*" || s == site) && (o == "*" || o == op),
            None => self.pattern == "*" || self.pattern == op,
        }
    }
}

/// A seeded set of injection rules.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The rules, applied in order; the first hit wins.
    pub(crate) rules: Vec<FaultRule>,
    /// Seed mixed into every hit decision.
    pub seed: u64,
}

impl FaultPlan {
    /// Parse a `kind@pattern[@rate],...:seed` spec (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the malformed component.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let (rules_str, seed_str) = spec
            .rsplit_once(':')
            .ok_or_else(|| format!("fault spec '{spec}' is missing the ':<seed>' suffix"))?;
        let seed: u64 = seed_str
            .trim()
            .parse()
            .map_err(|_| format!("fault seed '{seed_str}' is not a u64"))?;
        let mut rules = Vec::new();
        for entry in rules_str.split(',').filter(|e| !e.trim().is_empty()) {
            let mut parts = entry.trim().split('@');
            let kind = match parts.next() {
                Some("error") => FaultKind::Error,
                Some("panic") => FaultKind::Panic,
                Some("alloc") => FaultKind::Alloc,
                Some("delay") => FaultKind::Delay,
                other => {
                    return Err(format!(
                        "unknown fault kind '{}' (want error|panic|alloc|delay)",
                        other.unwrap_or("")
                    ))
                }
            };
            let pattern = parts
                .next()
                .ok_or_else(|| format!("fault rule '{entry}' is missing a pattern"))?
                .to_string();
            let rate = match parts.next() {
                None => 1.0,
                Some(r) => {
                    let v: f64 = r
                        .parse()
                        .map_err(|_| format!("fault rate '{r}' is not a number"))?;
                    if !(0.0..=1.0).contains(&v) {
                        return Err(format!("fault rate {v} outside [0, 1]"));
                    }
                    v
                }
            };
            if parts.next().is_some() {
                return Err(format!("fault rule '{entry}' has too many '@' fields"));
            }
            rules.push(FaultRule {
                kind,
                pattern,
                rate,
            });
        }
        if rules.is_empty() {
            return Err(format!("fault spec '{spec}' has no rules"));
        }
        Ok(FaultPlan { rules, seed })
    }
}

/// An injected fault surfaced as an error value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// Which kind fired ([`FaultKind::Error`] or [`FaultKind::Alloc`]).
    pub(crate) kind: FaultKind,
    /// The injection site (`graph`, `eager`, ...).
    pub(crate) site: String,
    /// The op being dispatched when the fault fired.
    pub(crate) op: String,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Alloc => write!(
                f,
                "injected allocation failure (out of memory) at {}/{}",
                self.site, self.op
            ),
            _ => write!(
                f,
                "injected {} fault at {}/{}",
                self.kind, self.site, self.op
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// Fast-path flag: true only while a plan is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Per-process call counter; part of each hit decision's key.
static COUNTER: AtomicU64 = AtomicU64::new(0);

fn plan_slot() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Install a fault plan process-wide (replacing any previous one) and
/// reset the call counter so runs under the same plan are comparable.
pub fn install(plan: FaultPlan) {
    let mut slot = plan_slot().lock().unwrap_or_else(|p| p.into_inner());
    *slot = Some(Arc::new(plan));
    COUNTER.store(0, Ordering::Relaxed);
    ACTIVE.store(true, Ordering::Release);
}

/// Remove the installed plan; [`inject`] returns to its one-atomic-load
/// fast path.
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    let mut slot = plan_slot().lock().unwrap_or_else(|p| p.into_inner());
    *slot = None;
}

/// Whether a plan is installed.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Install a plan from `AUTOGRAPH_FAULTS` on first call; later calls are
/// a no-op. A malformed spec is reported once on stderr, bumps the
/// `faults/spec_parse_error` obs counter (so harnesses that swallow
/// stderr still see the misconfiguration), and is otherwise ignored.
pub fn maybe_init_from_env() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if let Ok(spec) = std::env::var("AUTOGRAPH_FAULTS") {
            init_from_spec(&spec);
        }
    });
}

/// Install a plan from a spec string; a malformed spec is reported on
/// stderr and via the `faults/spec_parse_error` counter instead of being
/// silently dropped. Returns whether the spec parsed.
pub(crate) fn init_from_spec(spec: &str) -> bool {
    match FaultPlan::parse(spec) {
        Ok(plan) => {
            install(plan);
            true
        }
        Err(e) => {
            autograph_obs::count("faults", "spec_parse_error", 1);
            eprintln!("AUTOGRAPH_FAULTS ignored: {e}");
            false
        }
    }
}

/// SplitMix64: decorrelates the (seed, site, op, counter) key into a hit
/// decision. Stable across platforms — fault patterns reproduce anywhere.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn str_hash(s: &str) -> u64 {
    // FNV-1a; stable, dependency-free
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn decide(seed: u64, site: &str, op: &str, counter: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    let h = splitmix64(seed ^ str_hash(site).rotate_left(17) ^ str_hash(op) ^ counter);
    // top 53 bits → uniform in [0, 1)
    ((h >> 11) as f64) / ((1u64 << 53) as f64) < rate
}

/// Consult the installed plan at a dispatch site. May sleep (delay
/// faults) or panic (panic faults — the caller's `catch_unwind` boundary
/// is exactly what's under test); error/alloc faults return `Err`.
///
/// One relaxed atomic load when no plan is installed.
///
/// # Errors
///
/// Returns a [`FaultError`] when an `error` or `alloc` rule fires.
pub fn inject(site: &str, op: &str) -> Result<(), FaultError> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Ok(());
    }
    inject_slow(site, op, false)
}

/// Like [`inject`] but only honors `delay` rules — for sites (the worker
/// pool) where an error has no structured channel and a panic would be
/// indistinguishable from a task bug.
pub fn scheduler_delay(site: &str, op: &str) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let _ = inject_slow(site, op, true);
}

fn inject_slow(site: &str, op: &str, delay_only: bool) -> Result<(), FaultError> {
    let plan = {
        let slot = plan_slot().lock().unwrap_or_else(|p| p.into_inner());
        match slot.as_ref() {
            Some(p) => Arc::clone(p),
            None => return Ok(()),
        }
    };
    let counter = COUNTER.fetch_add(1, Ordering::Relaxed);
    for rule in &plan.rules {
        if delay_only && rule.kind != FaultKind::Delay {
            continue;
        }
        if !rule.matches(site, op) {
            continue;
        }
        if !decide(plan.seed, site, op, counter, rule.rate) {
            continue;
        }
        match rule.kind {
            FaultKind::Delay => {
                // short, bounded: perturbs interleavings without stalling.
                // The sleep gets its own span category so injected delays
                // are distinguishable from real work in traces.
                let us = 20 + splitmix64(plan.seed ^ counter) % 180;
                let _span = autograph_obs::span_dyn("fault_delay", || format!("{site}/{op}"));
                std::thread::sleep(std::time::Duration::from_micros(us));
                continue; // a delay doesn't consume the site
            }
            FaultKind::Panic => panic!("injected panic fault at {site}/{op}"),
            kind => {
                return Err(FaultError {
                    kind,
                    site: site.to_string(),
                    op: op.to_string(),
                })
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Global-state tests must not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static L: StdMutex<()> = StdMutex::new(());
        L.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse("error@matmul@0.5,panic@graph/*@0.01,delay@par/task:42").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.rules.len(), 3);
        assert_eq!(p.rules[0].kind, FaultKind::Error);
        assert_eq!(p.rules[0].rate, 0.5);
        assert_eq!(p.rules[2].rate, 1.0);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(FaultPlan::parse("error@x@0.5").is_err()); // no seed
        assert!(FaultPlan::parse("flub@x:1").is_err()); // bad kind
        assert!(FaultPlan::parse("error@x@2.0:1").is_err()); // bad rate
        assert!(FaultPlan::parse(":7").is_err()); // no rules
        assert!(FaultPlan::parse("error@x@1@1:7").is_err()); // extra field
    }

    #[test]
    fn pattern_matching() {
        let r = |p: &str| FaultRule {
            kind: FaultKind::Error,
            pattern: p.to_string(),
            rate: 1.0,
        };
        assert!(r("*").matches("graph", "matmul"));
        assert!(r("matmul").matches("graph", "matmul"));
        assert!(!r("matmul").matches("graph", "add"));
        assert!(r("graph/*").matches("graph", "add"));
        assert!(!r("graph/*").matches("eager", "add"));
        assert!(r("*/add").matches("eager", "add"));
        assert!(r("eager/add").matches("eager", "add"));
        assert!(!r("eager/add").matches("eager", "mul"));
    }

    #[test]
    fn disabled_is_noop() {
        let _g = lock();
        clear();
        assert!(!active());
        assert!(inject("graph", "matmul").is_ok());
    }

    #[test]
    fn malformed_spec_bumps_obs_counter_instead_of_vanishing() {
        let _g = lock();
        clear();
        let rec = std::sync::Arc::new(autograph_obs::AggregateRecorder::new());
        autograph_obs::install(rec.clone());
        assert!(!init_from_spec("flub@x:nope"));
        assert!(!active(), "malformed spec must not install a plan");
        assert!(init_from_spec("error@matmul:7"), "good spec installs");
        assert!(active());
        autograph_obs::uninstall();
        let parse_errors = rec
            .summary()
            .counters
            .iter()
            .find(|(k, _)| k == "faults/spec_parse_error")
            .map(|(_, v)| *v);
        assert_eq!(parse_errors, Some(1));
        clear();
    }

    #[test]
    fn error_rule_fires_deterministically() {
        let _g = lock();
        install(FaultPlan::parse("error@matmul:7").unwrap());
        let e = inject("graph", "matmul").unwrap_err();
        assert_eq!(e.kind, FaultKind::Error);
        assert!(e
            .to_string()
            .contains("injected error fault at graph/matmul"));
        assert!(inject("graph", "add").is_ok(), "non-matching op passes");
        clear();
    }

    #[test]
    fn alloc_rule_reports_oom() {
        let _g = lock();
        install(FaultPlan::parse("alloc@*:7").unwrap());
        let e = inject("graph", "reshape").unwrap_err();
        assert!(e.to_string().contains("allocation failure"));
        clear();
    }

    #[test]
    fn panic_rule_panics_and_is_catchable() {
        let _g = lock();
        install(FaultPlan::parse("panic@boom:3").unwrap());
        let r = std::panic::catch_unwind(|| inject("graph", "boom"));
        clear();
        assert!(r.is_err());
    }

    #[test]
    fn scheduler_delay_ignores_error_rules() {
        let _g = lock();
        install(FaultPlan::parse("error@*,delay@par/task:3").unwrap());
        scheduler_delay("par", "task"); // must not panic or error
        clear();
    }

    #[test]
    fn rate_decisions_reproduce_for_fixed_key() {
        for counter in 0..64 {
            let a = decide(9, "graph", "mul", counter, 0.3);
            let b = decide(9, "graph", "mul", counter, 0.3);
            assert_eq!(a, b);
        }
        // and the seed actually changes the pattern
        let p1: Vec<bool> = (0..256).map(|c| decide(1, "g", "op", c, 0.5)).collect();
        let p2: Vec<bool> = (0..256).map(|c| decide(2, "g", "op", c, 0.5)).collect();
        assert_ne!(p1, p2);
    }
}
