//! Warm restaging through the persistent plan store (ROADMAP item 3).
//!
//! [`compile_cached_with`] is the cache-aware twin of [`Runtime::compile`]:
//! on a store hit it deserializes the optimized graph + compiled VM
//! program straight into a ready [`CompiledFunction`], skipping
//! lex/parse/convert/stage/optimize/compile entirely (no `"staging"`
//! obs spans fire); on a miss it runs the cold pipeline and writes the
//! artifact back atomically.
//!
//! ## Cache key
//!
//! `planstore::cache_key(source, flags, version_tag)` where `flags`
//! covers the staging request (function name + placeholder names +
//! conversion pipeline revision). Any axis changing produces a
//! different key — the invalidation matrix in `tests/plan_cache.rs`
//! locks this down.
//!
//! ## What is persisted
//!
//! The payload carries the function's `tuple_result` flag, its
//! conversion warnings (a warm start never runs the converter, but must
//! report identical degradations), and the
//! [`CompiledUnit`](autograph_graph::artifact::CompiledUnit) — the
//! optimized graph with provenance chains plus the lowered bytecode
//! program. Anything malformed (bad checksum at the store layer, or a
//! payload that fails structural decode here) falls back to cold
//! staging; a cache can make results faster, never different.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::runtime::{CompiledFunction, GraphArg, Runtime};
use crate::Result;
use autograph_graph::artifact::{ByteReader, ByteWriter, CompiledUnit};
use autograph_graph::Session;
use autograph_obs as obs;
use autograph_planstore::{self as planstore, Load, PlanStore};
use autograph_pylang::Span;
use autograph_transforms::ConversionWarning;

/// A compiled function together with the staging byproducts a caller
/// may need even on a warm start.
pub struct CachedArtifacts {
    /// The ready-to-call compiled function.
    pub func: CompiledFunction,
    /// Conversion warnings — recorded at cold staging time, replayed
    /// verbatim from the artifact on a warm start.
    pub warnings: Vec<ConversionWarning>,
    /// Whether this function came from the persistent store (`true`) or
    /// was staged cold this call (`false`).
    pub from_cache: bool,
}

/// Revision of the flags layout + payload encoding below. Folded into
/// the flags string so changing how artifacts are produced invalidates
/// older ones even under the same `version_tag`.
const FLAGS_REV: &str = "r1";

/// The flags-axis string for a staging request: which function, which
/// placeholders, which pipeline revision.
fn flags_for(name: &str, arg_names: &[&str]) -> String {
    format!("fn={name};args={};{FLAGS_REV}", arg_names.join(","))
}

/// Compile `name` from `source`, consulting `store` under `version_tag`
/// (no store → always cold, no I/O; tests pass a bumped tag to exercise
/// invalidation).
///
/// # Errors
///
/// Propagates cold-pipeline staging errors. Store/decode failures are
/// not errors — they fall back to cold staging.
pub fn compile_cached_with(
    source: &str,
    name: &str,
    arg_names: &[&str],
    store: Option<&PlanStore>,
    version_tag: &str,
) -> Result<CachedArtifacts> {
    let flags = flags_for(name, arg_names);
    let key = planstore::cache_key(source, &flags, version_tag);

    if let Some(store) = store {
        match store.load(key) {
            Load::Hit { payload, .. } => match decode_payload(&payload, arg_names) {
                Ok(art) => {
                    return Ok(CachedArtifacts {
                        func: art.func,
                        warnings: art.warnings,
                        from_cache: true,
                    });
                }
                Err(e) => {
                    // the checksum passed but the payload didn't decode:
                    // count it as corruption and stage cold
                    planstore::note_corrupt(&e);
                }
            },
            Load::Miss => {}
            Load::Corrupt(_) => {
                // already counted by the store; fall through to cold
            }
        }
    }

    let art = compile_cold(source, name, arg_names)?;
    if let Some(store) = store {
        let payload = encode_payload(&art);
        if let Err(e) = store.save(key, &payload) {
            // a read-only cache dir must not break staging
            obs::count("planstore", "plan_cache_write_failed", 1);
            let _ = e;
        }
    }
    Ok(CachedArtifacts {
        func: art.func,
        warnings: art.warnings,
        from_cache: false,
    })
}

/// The cold pipeline: convert, stage, optimize, validate — identical to
/// [`Runtime::compile`] but keeping the optimized graph/outputs in hand
/// so the artifact can be encoded without re-staging.
struct ColdArtifacts {
    func: CompiledFunction,
    warnings: Vec<ConversionWarning>,
    unit: CompiledUnit,
    tuple_result: bool,
}

impl ColdArtifacts {
    fn as_cached(&self) -> (&CompiledFunction, &[ConversionWarning]) {
        (&self.func, &self.warnings)
    }
}

fn compile_cold(source: &str, name: &str, arg_names: &[&str]) -> Result<ColdArtifacts> {
    let mut rt = Runtime::load(source, true)?;
    let staged = rt.stage_to_graph(
        name,
        arg_names
            .iter()
            .map(|n| GraphArg::Placeholder((*n).to_string()))
            .collect(),
    )?;
    let warnings = rt.warnings().to_vec();
    let tuple_result = staged.tuple_result;
    let (graph, outputs) = {
        let _s = obs::span("staging", "optimize");
        let (g, o, _) = autograph_graph::optimize::optimize(&staged.graph, &staged.outputs);
        (g, o)
    };
    autograph_graph::shapes::validate(&graph)?;
    let unit = CompiledUnit::build(graph, outputs.clone())?;
    let mut session = Session::new(unit.graph.clone());
    session.install_compiled(&unit)?;
    let func = CompiledFunction::from_parts(
        session,
        outputs,
        arg_names.iter().map(|n| (*n).to_string()).collect(),
        tuple_result,
    );
    Ok(ColdArtifacts {
        func,
        warnings,
        unit,
        tuple_result,
    })
}

// ---------------------------------------------------------------------
// Payload encoding: tuple_result + warnings + compiled unit

fn encode_payload(art: &ColdArtifacts) -> Vec<u8> {
    let (_, warnings) = art.as_cached();
    let mut w = ByteWriter::new();
    w.u8(u8::from(art.tuple_result));
    w.u64(warnings.len() as u64);
    for warn in warnings {
        w.str(&warn.function);
        w.u32(warn.span.line);
        w.u32(warn.span.col);
        w.str(&warn.reason);
        w.opt(warn.source_line.as_deref(), |w, s| w.str(s));
    }
    art.unit.encode_into(&mut w);
    w.into_bytes()
}

struct DecodedArtifacts {
    func: CompiledFunction,
    warnings: Vec<ConversionWarning>,
}

fn decode_payload(
    payload: &[u8],
    arg_names: &[&str],
) -> std::result::Result<DecodedArtifacts, String> {
    let mut r = ByteReader::new(payload);
    let tuple_result = match r.u8()? {
        0 => false,
        1 => true,
        t => return Err(format!("invalid tuple_result tag {t}")),
    };
    let nwarn = r.count()?;
    let mut warnings = Vec::with_capacity(nwarn);
    for _ in 0..nwarn {
        let function = r.str()?;
        let line = r.u32()?;
        let col = r.u32()?;
        let reason = r.str()?;
        let source_line = r.opt(|r| r.str())?;
        warnings.push(ConversionWarning {
            function,
            span: Span::new(line, col),
            reason,
            source_line,
        });
    }
    let unit = CompiledUnit::decode_from(&mut r)?;
    if !r.is_done() {
        return Err("trailing bytes after compiled unit".to_string());
    }
    let mut session = Session::new(unit.graph.clone());
    session
        .install_compiled(&unit)
        .map_err(|e| format!("decoded unit rejected by session: {e}"))?;
    let outputs = unit.outputs.clone();
    let func = CompiledFunction::from_parts(
        session,
        outputs,
        arg_names.iter().map(|n| (*n).to_string()).collect(),
        tuple_result,
    );
    Ok(DecodedArtifacts { func, warnings })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use autograph_tensor::Tensor;

    const SRC: &str = "\
def f(x):
    y = tf.constant(0.0)
    while y < x:
        y = y + 1.5
    return y * 2.0
";

    fn tmp_store(tag: &str) -> PlanStore {
        let dir = std::env::temp_dir().join(format!("agplan-rt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        PlanStore::open(&dir).unwrap()
    }

    #[test]
    fn cold_then_warm_bitwise_identical() {
        let store = tmp_store("warm");
        // the store's counters are process-wide and other tests load and
        // save concurrently, so the deltas are lower bounds
        let before = planstore::stats();
        let cold = compile_cached_with(SRC, "f", &["x"], Some(&store), "test-v1").unwrap();
        assert!(!cold.from_cache);
        let warm = compile_cached_with(SRC, "f", &["x"], Some(&store), "test-v1").unwrap();
        assert!(warm.from_cache);
        let after = planstore::stats();
        assert!(after.misses > before.misses, "the cold lookup missed");
        assert!(after.writes > before.writes, "and wrote the artifact back");
        assert!(after.hits > before.hits, "the warm lookup hit");
        let (mut c, mut w) = (cold.func, warm.func);
        for v in [0.0f32, 1.0, 7.3] {
            let a = c.call(&[Tensor::scalar_f32(v)]).unwrap();
            let b = w.call(&[Tensor::scalar_f32(v)]).unwrap();
            assert_eq!(
                a[0].scalar_value_f32().unwrap().to_bits(),
                b[0].scalar_value_f32().unwrap().to_bits()
            );
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn no_store_stays_cold() {
        let a = compile_cached_with(SRC, "f", &["x"], None, "test-v1").unwrap();
        assert!(!a.from_cache);
        let b = compile_cached_with(SRC, "f", &["x"], None, "test-v1").unwrap();
        assert!(!b.from_cache);
    }

    #[test]
    fn warnings_replay_from_artifact() {
        // a function the converter degrades on (generator expressions are
        // unsupported) plus a stageable one
        let src = "\
def g(x):
    return x + 1.0
";
        let store = tmp_store("warn");
        let cold = compile_cached_with(src, "g", &["x"], Some(&store), "test-v1").unwrap();
        let warm = compile_cached_with(src, "g", &["x"], Some(&store), "test-v1").unwrap();
        assert!(warm.from_cache);
        assert_eq!(cold.warnings.len(), warm.warnings.len());
        for (a, b) in cold.warnings.iter().zip(&warm.warnings) {
            assert_eq!(a.function, b.function);
            assert_eq!(a.span, b.span);
            assert_eq!(a.reason, b.reason);
            assert_eq!(a.source_line, b.source_line);
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
