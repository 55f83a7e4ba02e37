//! The model registry: load a PyLite program, stage **every** top-level
//! function once, and hold the immutable optimized graphs that concurrent
//! requests run against.
//!
//! Staging is keyed by content hash (FNV-1a over source + conversion
//! flags): loading byte-identical source a second time — another
//! `--program` flag, a test re-boot — reuses the staged entries instead
//! of re-running lex/parse/convert/stage/optimize.
//!
//! ## Concurrency model
//!
//! `Runtime` is single-threaded (`Rc` inside), so staging happens on the
//! loading thread; what comes out — `Graph`, `Tensor`, output ids — is
//! `Send + Sync` and immutable. Each worker that needs to *run* a
//! function checks a [`Session`] out of the entry's store:
//!
//! * **stateless** functions (no graph variables) use a session *pool*:
//!   up to one session per concurrent worker, each holding its own plan
//!   cache over the shared immutable graph;
//! * **stateful** functions (graph variables ⇒ `Assign` nodes) pin a
//!   single session behind a mutex so variable updates keep program
//!   order — concurrent requests serialize, which is the only sound
//!   default.

use crate::breaker::CircuitBreaker;
use autograph_graph::artifact::{ByteReader, ByteWriter, CompiledUnit};
use autograph_graph::ir::NodeId;
use autograph_graph::{Graph, Session};
use autograph_planstore::{self as planstore, Load, PlanStore};
use autograph_pylang::ast::StmtKind;
use autograph_runtime::runtime::GraphArg;
use autograph_runtime::Runtime;
use autograph_tensor::Tensor;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// The FNV-1a staging-memo hash historically lived here; it is now the
// shared definition in `autograph-planstore`, so the in-process memo and
// the on-disk cache key can never diverge.
pub use autograph_planstore::content_hash;

/// Where an entry's sessions live (see the module docs).
enum SessionStore {
    /// Stateless: a free-list of sessions over the shared graph.
    Pool(Mutex<Vec<Session>>),
    /// Stateful: one session, runs serialize.
    Single(Box<Mutex<Session>>),
}

/// One servable staged function.
pub struct FnEntry {
    /// The function's name (the `<fn>` in `POST /run/<fn>`).
    pub name: String,
    /// Placeholder names, in declaration order.
    pub arg_names: Vec<String>,
    /// The optimized immutable graph.
    pub graph: Graph,
    /// Fetch ids for the function's outputs.
    pub outputs: Vec<NodeId>,
    /// Whether the function returned a tuple.
    pub tuple_result: bool,
    /// Whether the graph carries variables (forces the single-session
    /// store and disables batching).
    pub stateful: bool,
    /// Whether dynamic batching is allowed for this function (config
    /// opt-in AND stateless).
    pub batchable: AtomicBool,
    /// Per-function circuit breaker.
    pub(crate) breaker: CircuitBreaker,
    /// EWMA of per-request service time in ns (shed-prediction input);
    /// 0 until the first completed run.
    pub ewma_service_ns: AtomicU64,
    sessions: SessionStore,
    exec_threads: usize,
    /// The staged unit (optimized graph + lowered VM program); every
    /// session this entry builds gets the program pre-installed, so a
    /// warm boot never re-lowers bytecode.
    unit: Arc<CompiledUnit>,
}

impl FnEntry {
    /// Update the service-time estimate: `ewma ← 7/8·ewma + 1/8·sample`
    /// (first sample seeds it directly).
    pub(crate) fn record_service_ns(&self, sample_ns: u64) {
        let prev = self.ewma_service_ns.load(Ordering::Relaxed);
        let next = if prev == 0 {
            sample_ns
        } else {
            prev - prev / 8 + sample_ns / 8
        };
        self.ewma_service_ns.store(next, Ordering::Relaxed);
    }

    fn build_session(&self) -> Session {
        let mut sess = Session::new(self.graph.clone());
        sess.set_threads(self.exec_threads);
        // pre-seed the plan cache with the already-lowered program;
        // install failure is impossible for a unit staged from this
        // graph, but degrade to lazy compilation rather than panic
        let _ = sess.install_compiled(&self.unit);
        sess
    }

    /// Run `f` with a session checked out of this entry's store.
    ///
    /// Pool entries: the session is returned to the pool only when `f`
    /// returns normally — if `f` unwinds (a panic that escaped every
    /// kernel boundary), the possibly-inconsistent session is dropped
    /// rather than recycled, so one poisoned run can never contaminate a
    /// later request. Single (stateful) entries serialize on the mutex;
    /// a poisoned mutex is recovered into a fresh state via
    /// `into_inner` semantics.
    pub fn with_session<R>(&self, f: impl FnOnce(&mut Session) -> R) -> R {
        match &self.sessions {
            SessionStore::Single(slot) => {
                let mut sess = slot.lock().unwrap_or_else(|p| p.into_inner());
                f(&mut sess)
            }
            SessionStore::Pool(pool) => {
                let mut sess = {
                    let mut free = pool.lock().unwrap_or_else(|p| p.into_inner());
                    free.pop()
                }
                .unwrap_or_else(|| self.build_session());
                let out = f(&mut sess);
                // only reached when `f` did not unwind
                pool.lock().unwrap_or_else(|p| p.into_inner()).push(sess);
                out
            }
        }
    }
}

/// Tuning for entry construction.
pub struct RegistryConfig {
    /// Threads each session runs with (1 on small containers: the
    /// serving layer gets its parallelism across requests, not within a
    /// kernel).
    pub exec_threads: usize,
    /// Function names dynamic batching may coalesce (stacking along the
    /// leading axis must be sound for them — see DESIGN.md); `None`
    /// means batching is off for every function.
    pub batch_fns: Option<Vec<String>>,
    /// Breaker: consecutive execution failures before fast-fail.
    pub breaker_threshold: u32,
    /// Breaker: first cooldown (doubles per failed probe).
    pub breaker_cooldown: Duration,
    /// Persistent plan-cache directory (`--plan-cache`); `None` falls
    /// back to `AUTOGRAPH_PLAN_CACHE`, and neither set means staging is
    /// memoized in-process only.
    pub plan_cache: Option<PathBuf>,
}

impl Default for RegistryConfig {
    fn default() -> RegistryConfig {
        RegistryConfig {
            exec_threads: 1,
            batch_fns: None,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(100),
            plan_cache: None,
        }
    }
}

/// A function the loader could not stage; requests for it get a 404
/// carrying the staging error.
pub struct FailedFn {
    /// Function name.
    pub name: String,
    /// The staging error, verbatim.
    pub error: String,
}

/// The loaded program: every stageable function, staged once.
pub struct ModelRegistry {
    /// Content hash of (source, flags).
    pub hash: u64,
    /// The program source (error bodies echo offending lines from it).
    pub source: Arc<str>,
    /// Servable functions.
    pub entries: Vec<Arc<FnEntry>>,
    /// Functions that failed staging.
    pub failed: Vec<FailedFn>,
    by_name: HashMap<String, usize>,
}

impl ModelRegistry {
    /// Load source and stage every top-level function. Staged artifacts
    /// for an identical (source, flags) pair are reused process-wide.
    ///
    /// # Errors
    ///
    /// Fails when the source does not parse/convert at all; individual
    /// functions that fail *staging* are recorded in `failed` instead.
    pub fn load(source: &str, config: &RegistryConfig) -> Result<ModelRegistry, String> {
        let flags = format!(
            "exec_threads={};v1",
            config.exec_threads // staging itself is thread-independent, but the
                                // cache key stays honest if that ever changes
        );
        let hash = content_hash(source, &flags);
        let store = match &config.plan_cache {
            Some(dir) => PlanStore::open(dir)
                .map_err(|e| format!("plan cache dir {}: {e}", dir.display()))
                .map(Some)?,
            None => PlanStore::from_env(),
        };
        let staged = staged_for_hash(hash, source, &flags, store.as_ref())?;
        let mut entries = Vec::new();
        let mut failed = Vec::new();
        let mut by_name = HashMap::new();
        for item in staged.iter() {
            match item {
                StagedFn::Ok(s) => {
                    let stateful = !s.graph.variables.is_empty();
                    let batchable = !stateful
                        && config
                            .batch_fns
                            .as_ref()
                            .is_some_and(|fns| fns.iter().any(|f| f == &s.name));
                    let sessions = if stateful {
                        SessionStore::Single(Box::new(Mutex::new({
                            let mut sess = Session::new(s.graph.clone());
                            sess.set_threads(config.exec_threads);
                            let _ = sess.install_compiled(&s.unit);
                            sess
                        })))
                    } else {
                        SessionStore::Pool(Mutex::new(Vec::new()))
                    };
                    by_name.insert(s.name.clone(), entries.len());
                    entries.push(Arc::new(FnEntry {
                        name: s.name.clone(),
                        arg_names: s.arg_names.clone(),
                        graph: s.graph.clone(),
                        outputs: s.outputs.clone(),
                        tuple_result: s.tuple_result,
                        stateful,
                        batchable: AtomicBool::new(batchable),
                        breaker: CircuitBreaker::new(
                            config.breaker_threshold,
                            config.breaker_cooldown,
                            config.breaker_cooldown * 32,
                        ),
                        ewma_service_ns: AtomicU64::new(0),
                        sessions,
                        exec_threads: config.exec_threads,
                        unit: Arc::clone(&s.unit),
                    }));
                }
                StagedFn::Failed { name, error } => failed.push(FailedFn {
                    name: name.clone(),
                    error: error.clone(),
                }),
            }
        }
        Ok(ModelRegistry {
            hash,
            source: Arc::from(source),
            entries,
            failed,
            by_name,
        })
    }

    /// Look up a servable function by name.
    pub fn get(&self, name: &str) -> Option<&Arc<FnEntry>> {
        self.by_name.get(name).map(|i| &self.entries[*i])
    }

    /// The staging error for a function that loaded but failed to
    /// stage, if that is why `get` missed.
    pub(crate) fn staging_error(&self, name: &str) -> Option<&str> {
        self.failed
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.error.as_str())
    }
}

/// One staged function as cached per content hash.
enum StagedFn {
    Ok(StagedEntry),
    Failed { name: String, error: String },
}

struct StagedEntry {
    name: String,
    arg_names: Vec<String>,
    graph: Graph,
    outputs: Vec<NodeId>,
    tuple_result: bool,
    unit: Arc<CompiledUnit>,
}

/// The in-process staged-program memo.
static STAGE_MEMO: Mutex<Option<HashMap<u64, Arc<Vec<StagedFn>>>>> = Mutex::new(None);

/// Drop the in-process staging memo, forcing the next load to consult
/// the persistent store (or stage cold). Tests use this to simulate a
/// fresh process without actually restarting one.
pub fn reset_stage_memo() {
    let mut cache = STAGE_MEMO.lock().unwrap_or_else(|p| p.into_inner());
    *cache = None;
}

/// Process-wide staged-program cache: hash → staged functions. Staging
/// is deterministic, so the first loader wins and later identical loads
/// are free ("staged once per content-hash"). When a persistent store
/// is configured, a memo miss consults the on-disk bundle before
/// staging cold — the warm-restart path — and a cold stage writes the
/// bundle back.
fn staged_for_hash(
    hash: u64,
    source: &str,
    flags: &str,
    store: Option<&PlanStore>,
) -> Result<Arc<Vec<StagedFn>>, String> {
    {
        let cache = STAGE_MEMO.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(hit) = cache.as_ref().and_then(|m| m.get(&hash)) {
            autograph_obs::count("serve", "stage_cache_hit", 1);
            return Ok(Arc::clone(hit));
        }
    }
    let disk_key = planstore::cache_key(source, flags, planstore::VERSION_TAG);
    if let Some(store) = store {
        if let Load::Hit { payload, .. } = store.load(disk_key) {
            match decode_bundle(&payload) {
                Ok(staged) => {
                    autograph_obs::count("serve", "stage_cache_hit", 1);
                    autograph_obs::count("serve", "stage_cache_disk_hit", 1);
                    let staged = Arc::new(staged);
                    let mut cache = STAGE_MEMO.lock().unwrap_or_else(|p| p.into_inner());
                    return Ok(Arc::clone(
                        cache
                            .get_or_insert_with(HashMap::new)
                            .entry(hash)
                            .or_insert(staged),
                    ));
                }
                Err(e) => planstore::note_corrupt(&e),
            }
        }
    }
    autograph_obs::count("serve", "stage_cache_miss", 1);
    let staged = Arc::new(stage_all(source)?);
    if let Some(store) = store {
        if store.save(disk_key, &encode_bundle(&staged)).is_err() {
            autograph_obs::count("planstore", "plan_cache_write_failed", 1);
        }
    }
    let mut cache = STAGE_MEMO.lock().unwrap_or_else(|p| p.into_inner());
    Ok(Arc::clone(
        cache
            .get_or_insert_with(HashMap::new)
            .entry(hash)
            .or_insert(staged),
    ))
}

// ---------------------------------------------------------------------
// On-disk bundle: every staged function of one program under one key

fn encode_bundle(staged: &[StagedFn]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(staged.len() as u64);
    for item in staged {
        match item {
            StagedFn::Ok(s) => {
                w.u8(0);
                w.str(&s.name);
                w.u64(s.arg_names.len() as u64);
                for a in &s.arg_names {
                    w.str(a);
                }
                w.u8(u8::from(s.tuple_result));
                s.unit.encode_into(&mut w);
            }
            StagedFn::Failed { name, error } => {
                w.u8(1);
                w.str(name);
                w.str(error);
            }
        }
    }
    w.into_bytes()
}

fn decode_bundle(payload: &[u8]) -> Result<Vec<StagedFn>, String> {
    let mut r = ByteReader::new(payload);
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        match r.u8()? {
            0 => {
                let name = r.str()?;
                let nargs = r.count()?;
                let mut arg_names = Vec::with_capacity(nargs);
                for _ in 0..nargs {
                    arg_names.push(r.str()?);
                }
                let tuple_result = match r.u8()? {
                    0 => false,
                    1 => true,
                    t => return Err(format!("invalid tuple_result tag {t}")),
                };
                let unit = Arc::new(CompiledUnit::decode_from(&mut r)?);
                out.push(StagedFn::Ok(StagedEntry {
                    name,
                    arg_names,
                    graph: unit.graph.clone(),
                    outputs: unit.outputs.clone(),
                    tuple_result,
                    unit,
                }));
            }
            1 => {
                let name = r.str()?;
                let error = r.str()?;
                out.push(StagedFn::Failed { name, error });
            }
            t => return Err(format!("invalid bundle entry tag {t}")),
        }
    }
    if !r.is_done() {
        return Err("trailing bytes after staged bundle".to_string());
    }
    Ok(out)
}

/// Stage every top-level function of `source` (on the calling thread —
/// `Runtime` is not `Send`).
fn stage_all(source: &str) -> Result<Vec<StagedFn>, String> {
    let _s = autograph_obs::span("serve", "stage_program");
    let module = autograph_pylang::parse_module(source).map_err(|e| e.to_string())?;
    // param names per function, from the AST
    let mut fns: Vec<(String, Vec<String>)> = Vec::new();
    for stmt in &module.body {
        if let StmtKind::FunctionDef { name, params, .. } = &stmt.kind {
            fns.push((
                name.clone(),
                params.iter().map(|p| p.name.clone()).collect(),
            ));
        }
    }
    if fns.is_empty() {
        return Err("program defines no functions".to_string());
    }
    let mut out = Vec::with_capacity(fns.len());
    for (name, arg_names) in fns {
        // a fresh Runtime per function: staging mutates interpreter
        // state, and a failed stage must not poison the next one
        let staged = Runtime::load(source, true)
            .map_err(|e| e.to_string())
            .and_then(|mut rt| {
                rt.stage_to_graph(
                    &name,
                    arg_names
                        .iter()
                        .map(|n| GraphArg::Placeholder(n.clone()))
                        .collect(),
                )
                .map_err(|e| e.to_string())
            });
        match staged {
            Ok(s) => {
                let _o = autograph_obs::span("serve", "optimize");
                let (graph, outputs, _trace) =
                    autograph_graph::optimize::optimize(&s.graph, &s.outputs);
                if let Err(e) = autograph_graph::shapes::validate(&graph) {
                    out.push(StagedFn::Failed {
                        name,
                        error: e.to_string(),
                    });
                    continue;
                }
                let unit = match CompiledUnit::build(graph, outputs) {
                    Ok(u) => Arc::new(u),
                    Err(e) => {
                        out.push(StagedFn::Failed {
                            name,
                            error: e.to_string(),
                        });
                        continue;
                    }
                };
                out.push(StagedFn::Ok(StagedEntry {
                    name,
                    arg_names,
                    graph: unit.graph.clone(),
                    outputs: unit.outputs.clone(),
                    tuple_result: s.tuple_result,
                    unit,
                }));
            }
            Err(error) => out.push(StagedFn::Failed { name, error }),
        }
    }
    Ok(out)
}

/// Shorthand for tests/bins: feeds from arg names + tensors.
pub fn feeds<'a>(names: &'a [String], args: &[Tensor]) -> Vec<(&'a str, Tensor)> {
    names
        .iter()
        .map(String::as_str)
        .zip(args.iter().cloned())
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    const SRC: &str = "\
def double(x):
    return x * 2.0

def counter(x):
    v = tf.Variable(1.0)
    return x + v
";

    #[test]
    fn stages_all_functions_and_detects_statefulness() {
        let reg = ModelRegistry::load(SRC, &RegistryConfig::default()).unwrap();
        let d = reg.get("double").expect("double staged");
        assert!(!d.stateful);
        assert_eq!(d.arg_names, vec!["x".to_string()]);
        // `counter` may or may not stage depending on tf.Variable
        // support; either way lookups behave
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn content_hash_cache_reuses_staging() {
        let cfg = RegistryConfig::default();
        let src = "def h(x):\n    return x + 41.0\n";
        let a = ModelRegistry::load(src, &cfg).unwrap();
        let b = ModelRegistry::load(src, &cfg).unwrap();
        assert_eq!(a.hash, b.hash);
        // both registries serve the same staged graph object tree
        assert_eq!(
            a.get("h").unwrap().graph.nodes.len(),
            b.get("h").unwrap().graph.nodes.len()
        );
    }

    #[test]
    fn sessions_run_the_staged_function() {
        let reg = ModelRegistry::load(SRC, &RegistryConfig::default()).unwrap();
        let d = reg.get("double").unwrap();
        let out = d
            .with_session(|sess| {
                sess.run(
                    &feeds(&d.arg_names, &[Tensor::scalar_f32(21.0)]),
                    &d.outputs,
                )
            })
            .unwrap();
        assert_eq!(out[0].scalar_value_f32().unwrap(), 42.0);
    }

    #[test]
    fn ewma_seeds_then_smooths() {
        let reg =
            ModelRegistry::load("def f(x):\n    return x\n", &RegistryConfig::default()).unwrap();
        let e = reg.get("f").unwrap();
        e.record_service_ns(8000);
        assert_eq!(e.ewma_service_ns.load(Ordering::Relaxed), 8000);
        e.record_service_ns(0);
        assert_eq!(e.ewma_service_ns.load(Ordering::Relaxed), 7000);
    }

    #[test]
    fn unstageable_function_is_recorded_not_fatal() {
        // data-dependent branch with inconsistent values fails staging
        let src = "\
def good(x):
    return x + 1.0

def bad(x):
    if x > 0.0:
        y = x
    return y
";
        let reg = ModelRegistry::load(src, &RegistryConfig::default()).unwrap();
        assert!(reg.get("good").is_some());
        assert!(reg.get("bad").is_none());
        assert!(reg.staging_error("bad").is_some());
    }
}
