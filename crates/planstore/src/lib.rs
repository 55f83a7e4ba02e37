//! # autograph-planstore
//!
//! A versioned on-disk cache for staged-and-compiled execution plans:
//! the persistence layer behind `AUTOGRAPH_PLAN_CACHE` (ROADMAP item 3).
//!
//! Staging (lex → parse → convert → stage → optimize → compile) is a
//! one-time cost amortized over many executions — the paper's central
//! premise. This crate extends that amortization across *process
//! lifetimes*: a warm start deserializes the staged artifact instead of
//! re-running the pipeline.
//!
//! ## Design rules
//!
//! * **Keys are content hashes** over (source text, conversion flags,
//!   optimizer/compiler version tag) — see [`cache_key`]. The
//!   same FNV-1a core ([`content_hash`]) backs the in-process staging
//!   memo in `autograph-serve`, so in-memory and on-disk keys can never
//!   diverge.
//! * **Payloads are opaque bytes.** The graph crate owns the plan
//!   serialization; this crate only frames it (magic, version, key,
//!   length) and seals it with a CRC-32 trailer.
//! * **Corruption falls back, never lies.** Any framing, key, length or
//!   checksum mismatch is a [`Load::Corrupt`] — callers stage cold and
//!   overwrite. A cache can cost time; it must never change results.
//! * **Writes are atomic**: temp file + rename in the same directory,
//!   safe under concurrent processes warming the same cache (last
//!   writer wins; both wrote identical bytes for identical keys).
//! * **std-only**: no serialization or filesystem dependencies.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Bump when the artifact *payload* encoding changes (graph/program
/// serialization, optimizer rewrites that must invalidate old plans).
/// Part of every cache key, so stale artifacts miss instead of decode.
pub const VERSION_TAG: &str = "agplan-v2";

/// Artifact file magic: "AutoGraph Plan Cache".
pub(crate) const MAGIC: [u8; 4] = *b"AGPC";

/// Version of the *container framing* (header/trailer layout), distinct
/// from [`VERSION_TAG`] which versions the payload encoding.
pub(crate) const FORMAT_VERSION: u16 = 1;

// ---------------------------------------------------------------------
// Hashing

/// FNV-1a over the program source + staging flags — byte-identical to
/// the staging memo historically embedded in `autograph-serve`, now the
/// single shared definition.
pub fn content_hash(source: &str, flags: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in source.as_bytes().iter().chain(flags.as_bytes()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The on-disk cache key: FNV-1a over all three invalidation axes, each
/// terminated by a `0xff` separator (no byte of valid UTF-8, so
/// `("ab", "c")` can never collide with `("a", "bc")`).
///
/// Any change to the function source text, the conversion flags, or the
/// optimizer/compiler [`VERSION_TAG`] yields a different key — a stale
/// artifact is unreachable, not misread.
pub fn cache_key(source: &str, flags: &str, version_tag: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for part in [source, flags, version_tag] {
        for b in part.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE), computed via a lazily-built 256-entry table.

fn crc32_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xedb88320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    })
}

/// CRC-32 (IEEE 802.3 polynomial) over `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c: u32 = 0xffff_ffff;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------
// Artifact framing

/// Why a cached artifact was rejected. Every variant is a clean
/// fall-back-to-cold signal; none can surface as wrong results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Corruption {
    /// File shorter than the fixed header + trailer.
    Truncated,
    /// Magic bytes are not `AGPC`.
    BadMagic,
    /// Container format version unknown to this build.
    BadFormatVersion(u16),
    /// The embedded key differs from the requested one (hash collision
    /// in the file name, or a renamed file).
    KeyMismatch,
    /// Declared payload length disagrees with the file size.
    LengthMismatch,
    /// CRC-32 trailer does not match header + payload.
    ChecksumMismatch,
}

impl std::fmt::Display for Corruption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Corruption::Truncated => write!(f, "artifact truncated"),
            Corruption::BadMagic => write!(f, "bad magic (not an AGPC artifact)"),
            Corruption::BadFormatVersion(v) => write!(f, "unknown container format version {v}"),
            Corruption::KeyMismatch => write!(f, "embedded key does not match request"),
            Corruption::LengthMismatch => write!(f, "declared payload length disagrees with file"),
            Corruption::ChecksumMismatch => write!(f, "checksum trailer mismatch"),
        }
    }
}

/// Header layout: `MAGIC(4) | format_version(2 LE) | key(8 LE) |
/// payload_len(8 LE)`, then the payload, then `crc32(4 LE)` over
/// everything before the trailer.
const HEADER_LEN: usize = 4 + 2 + 8 + 8;
const TRAILER_LEN: usize = 4;

/// Frame a payload into a self-describing artifact with a checksum
/// trailer.
pub(crate) fn encode_artifact(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validate framing + checksum and return the payload slice.
///
/// # Errors
///
/// Returns the specific [`Corruption`] detected; callers must treat
/// every variant identically — fall back to cold staging.
pub(crate) fn decode_artifact(bytes: &[u8], expect_key: u64) -> Result<&[u8], Corruption> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(Corruption::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(Corruption::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(Corruption::BadFormatVersion(version));
    }
    let mut k = [0u8; 8];
    k.copy_from_slice(&bytes[6..14]);
    if u64::from_le_bytes(k) != expect_key {
        return Err(Corruption::KeyMismatch);
    }
    let mut l = [0u8; 8];
    l.copy_from_slice(&bytes[14..22]);
    let payload_len = u64::from_le_bytes(l) as usize;
    if bytes.len() != HEADER_LEN + payload_len + TRAILER_LEN {
        return Err(Corruption::LengthMismatch);
    }
    let body = &bytes[..HEADER_LEN + payload_len];
    let mut c = [0u8; 4];
    c.copy_from_slice(&bytes[HEADER_LEN + payload_len..]);
    if crc32(body) != u32::from_le_bytes(c) {
        return Err(Corruption::ChecksumMismatch);
    }
    Ok(&bytes[HEADER_LEN..HEADER_LEN + payload_len])
}

// ---------------------------------------------------------------------
// Process-wide counters (feed Session::stats, obs and /metrics)

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    load_ns: AtomicU64,
}

fn counters() -> &'static Counters {
    static C: std::sync::OnceLock<Counters> = std::sync::OnceLock::new();
    C.get_or_init(Counters::default)
}

/// A snapshot of the process-wide plan-cache counters (all stores in
/// this process), exported through `/metrics` by `autograph-serve`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Artifacts loaded and validated successfully.
    pub hits: u64,
    /// Lookups that found no artifact file.
    pub misses: u64,
    /// Artifacts rejected by framing/checksum validation (each also
    /// counted the `plan_cache_corrupt` obs counter).
    pub corrupt: u64,
    /// Artifacts written (atomic temp-file + rename completions).
    pub writes: u64,
    /// Total artifact bytes read on hits.
    pub bytes_read: u64,
    /// Total artifact bytes written.
    pub bytes_written: u64,
    /// Total wall time spent reading + validating artifacts, ns.
    pub load_ns: u64,
}

/// Count a payload-level corruption discovered *after* the container
/// checksum passed (e.g. a structural decode failure in the graph
/// deserializer). Keeps all corruption — framing or payload — on the
/// same `plan_cache_corrupt` counter the test wall watches.
pub fn note_corrupt(detail: &str) {
    counters().corrupt.fetch_add(1, Ordering::Relaxed);
    autograph_obs::count("planstore", "plan_cache_corrupt", 1);
    let _ = detail;
}

/// Snapshot the process-wide counters.
pub fn stats() -> StoreStats {
    let c = counters();
    StoreStats {
        hits: c.hits.load(Ordering::Relaxed),
        misses: c.misses.load(Ordering::Relaxed),
        corrupt: c.corrupt.load(Ordering::Relaxed),
        writes: c.writes.load(Ordering::Relaxed),
        bytes_read: c.bytes_read.load(Ordering::Relaxed),
        bytes_written: c.bytes_written.load(Ordering::Relaxed),
        load_ns: c.load_ns.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// The store

/// Result of a cache lookup.
#[derive(Debug)]
pub enum Load {
    /// A valid artifact: its payload and on-disk size.
    Hit {
        /// The framed payload, checksum-verified.
        payload: Vec<u8>,
        /// Whole-file size in bytes.
        bytes: u64,
    },
    /// No artifact file for this key.
    Miss,
    /// An artifact file exists but failed validation (or could not be
    /// read); callers stage cold.
    Corrupt(String),
}

/// A directory of plan artifacts, one file per cache key
/// (`<key:016x>.agpc`).
#[derive(Debug, Clone)]
pub struct PlanStore {
    dir: PathBuf,
}

impl PlanStore {
    /// Open (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<PlanStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(PlanStore { dir })
    }

    /// The store configured by `AUTOGRAPH_PLAN_CACHE`, if the variable
    /// is set, non-empty and the directory is creatable. An unusable
    /// directory disables caching (with an obs counter) rather than
    /// failing the pipeline.
    pub fn from_env() -> Option<PlanStore> {
        let dir = std::env::var("AUTOGRAPH_PLAN_CACHE").ok()?;
        let dir = dir.trim();
        if dir.is_empty() {
            return None;
        }
        match PlanStore::open(dir) {
            Ok(s) => Some(s),
            Err(_) => {
                autograph_obs::count("planstore", "plan_cache_open_failed", 1);
                None
            }
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The artifact path for a key.
    pub(crate) fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.agpc"))
    }

    /// Look up an artifact. Corruption of any kind — truncation, bit
    /// flips, bad framing — returns [`Load::Corrupt`] and bumps the
    /// `planstore/plan_cache_corrupt` counter; it never returns wrong
    /// payload bytes (checksum-sealed).
    pub fn load(&self, key: u64) -> Load {
        let t0 = Instant::now();
        let bytes = match std::fs::read(self.path_for(key)) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                counters().misses.fetch_add(1, Ordering::Relaxed);
                autograph_obs::count("planstore", "plan_cache_miss", 1);
                return Load::Miss;
            }
            Err(e) => {
                counters().corrupt.fetch_add(1, Ordering::Relaxed);
                autograph_obs::count("planstore", "plan_cache_corrupt", 1);
                return Load::Corrupt(format!("read failed: {e}"));
            }
        };
        match decode_artifact(&bytes, key) {
            Ok(payload) => {
                let load_ns = t0.elapsed().as_nanos() as u64;
                let c = counters();
                c.hits.fetch_add(1, Ordering::Relaxed);
                c.bytes_read
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                c.load_ns.fetch_add(load_ns, Ordering::Relaxed);
                if autograph_obs::enabled() {
                    autograph_obs::count("planstore", "plan_cache_hit", 1);
                    autograph_obs::count("planstore", "plan_cache_bytes_read", bytes.len() as u64);
                    autograph_obs::observe("planstore", "plan_cache_load_ns", load_ns);
                }
                Load::Hit {
                    payload: payload.to_vec(),
                    bytes: bytes.len() as u64,
                }
            }
            Err(c) => {
                counters().corrupt.fetch_add(1, Ordering::Relaxed);
                autograph_obs::count("planstore", "plan_cache_corrupt", 1);
                Load::Corrupt(c.to_string())
            }
        }
    }

    /// Atomically persist an artifact: the framed payload is written to
    /// a unique temp file in the cache directory and renamed into
    /// place, so concurrent writers (or a crash mid-write) can never
    /// leave a partially-written artifact under the final name.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; callers treat a failed save as "cache
    /// stays cold", never as a pipeline error.
    pub fn save(&self, key: u64, payload: &[u8]) -> std::io::Result<()> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let framed = encode_artifact(key, payload);
        let tmp = self.dir.join(format!(
            ".{key:016x}.{}.{}.tmp",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&framed)?;
            f.sync_all()?;
        }
        match std::fs::rename(&tmp, self.path_for(key)) {
            Ok(()) => {
                let c = counters();
                c.writes.fetch_add(1, Ordering::Relaxed);
                c.bytes_written
                    .fetch_add(framed.len() as u64, Ordering::Relaxed);
                if autograph_obs::enabled() {
                    autograph_obs::count("planstore", "plan_cache_write", 1);
                    autograph_obs::count(
                        "planstore",
                        "plan_cache_bytes_written",
                        framed.len() as u64,
                    );
                }
                Ok(())
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("agplanstore-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// The store counters are process-global and the harness runs tests
    /// on parallel threads: every test that saves or loads holds this, so
    /// the `==` deltas below see only their own traffic.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn counters_lock() -> std::sync::MutexGuard<'static, ()> {
        // a poisoned lock only means a sibling test failed; the guard is
        // still exclusive
        COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn content_hash_matches_the_historical_serve_memo() {
        // the FNV-1a constants are a compatibility contract with the
        // in-process staging memo; a change here silently invalidates
        // every deployed cache, so lock the exact values down
        assert_eq!(content_hash("", ""), 0xcbf29ce484222325);
        assert_eq!(content_hash("a", ""), content_hash("", "a"));
        assert_ne!(content_hash("ab", "c"), content_hash("a", "bc") ^ 1);
    }

    #[test]
    fn cache_key_separates_all_three_axes() {
        let base = cache_key("src", "flags", "v1");
        assert_ne!(base, cache_key("src2", "flags", "v1"), "source");
        assert_ne!(base, cache_key("src", "flags2", "v1"), "flags");
        assert_ne!(base, cache_key("src", "flags", "v2"), "version");
        // the separator keeps adjacent axes from bleeding into each other
        assert_ne!(cache_key("ab", "c", ""), cache_key("a", "bc", ""));
        assert_ne!(cache_key("", "ab", "c"), cache_key("", "a", "bc"));
        assert_eq!(base, cache_key("src", "flags", "v1"));
    }

    #[test]
    fn artifact_round_trips() {
        let payload = b"hello plan".to_vec();
        let framed = encode_artifact(42, &payload);
        assert_eq!(decode_artifact(&framed, 42).unwrap(), &payload[..]);
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let framed = encode_artifact(7, b"payload bytes under test");
        for i in 0..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_artifact(&bad, 7).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let framed = encode_artifact(7, b"payload bytes under test");
        for len in 0..framed.len() {
            assert!(
                decode_artifact(&framed[..len], 7).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn key_mismatch_is_detected() {
        let framed = encode_artifact(1, b"x");
        assert_eq!(decode_artifact(&framed, 2), Err(Corruption::KeyMismatch));
    }

    #[test]
    fn store_save_load_round_trip_and_counters() {
        let _counters = counters_lock();
        let store = PlanStore::open(tmp_dir("roundtrip")).unwrap();
        let before = stats();
        assert!(matches!(store.load(9), Load::Miss));
        store.save(9, b"unit payload").unwrap();
        match store.load(9) {
            Load::Hit { payload, bytes, .. } => {
                assert_eq!(payload, b"unit payload");
                assert!(bytes > b"unit payload".len() as u64, "framing adds bytes");
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let after = stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.writes, before.writes + 1);
        assert!(after.bytes_read > before.bytes_read);
        assert!(after.bytes_written > before.bytes_written);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_file_loads_as_corrupt_and_counts() {
        let _counters = counters_lock();
        let store = PlanStore::open(tmp_dir("corrupt")).unwrap();
        store.save(3, b"soon to be damaged").unwrap();
        let path = store.path_for(3);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let before = stats().corrupt;
        assert!(matches!(store.load(3), Load::Corrupt(_)));
        assert_eq!(stats().corrupt, before + 1);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn no_tmp_files_survive_a_save() {
        let _counters = counters_lock();
        let store = PlanStore::open(tmp_dir("tmpfiles")).unwrap();
        store.save(11, b"a").unwrap();
        store.save(12, b"b").unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
