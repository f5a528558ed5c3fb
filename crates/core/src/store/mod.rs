//! The pluggable result-store layer: where `(scope, FaultKey) -> RunDigest`
//! memo entries live.
//!
//! PR 5's [`crate::engine::ResultCache`] kept every memoized run in one
//! in-process map, so each CI run and each process restart re-executed the
//! entire fault-injection world. This module splits the *storage* of
//! completed digests out of the cache's *claim coordination*:
//!
//! * [`ResultStore`] — the storage trait: load and save completed
//!   [`RunDigest`]s keyed by `(scope, FaultKey)`. Implementations must be
//!   thread-safe; the cache calls them from suite workers.
//! * [`MemoryStore`] — the process-local backend: a mutex-guarded map,
//!   exactly the storage the old cache embedded.
//! * [`DiskStore`] — the persistent content-addressed backend
//!   ([`disk`]): one segment file per scope, read once per handle; a
//!   versioned store header; per-record checksums; one segment writer,
//!   which rewrites a segment under its advisory lock with its valid lines
//!   as read plus the new records, sorted by key, through a temp file and
//!   a rename, so a reader never sees a partial segment and identical runs
//!   leave identical bytes; per-segment LRU/TTL pruning; and lookup by full
//!   key text, so a 64-bit digest collision can never replay the wrong run.
//! * [`SuiteManifest`] — the lockfile-style campaign manifest
//!   ([`manifest`]): the exact `(spec fingerprint, plan, store keys)` of a
//!   suite run, so a warm re-run can be verified complete before any job
//!   is scheduled.
//!
//! The [`crate::engine::ResultCache`] stays the engine-facing handle: it
//! keeps the claim/`Pending`/`Ready` protocol (no `(scope, key)` ever
//! executes twice) and its `Ready` map doubles as the hot tier, while a
//! backend from this module — installed with
//! [`crate::engine::ResultCache::with_store`] — persists every digest and
//! serves cross-process warm hits. Hot keys therefore stay lock-cheap:
//! the disk is consulted at most once per `(scope, key)` per process.

use std::path::{Path, PathBuf};

use shim_sync::sync::{Mutex, PoisonError};
use std::collections::BTreeMap;

use crate::engine::planner::{FaultKey, RunDigest};

pub mod disk;
pub mod manifest;

pub use disk::{
    decode_entry, encode_entry, install, DecodedEntry, DiskStats, DiskStore, EntryError, PruneOptions, PruneReport,
    VerifyReport, STORE_FORMAT_VERSION,
};
pub use manifest::{AppManifest, ManifestCheck, ManifestKey, SuiteManifest, MANIFEST_FILE, MANIFEST_VERSION};

/// The environment variable naming the persistent store directory
/// (mirrors `EPA_WORKERS`: an explicit CLI flag wins over it).
pub const EPA_CACHE_DIR: &str = "EPA_CACHE_DIR";

/// Storage for completed run digests, keyed by `(scope, FaultKey)`.
///
/// `scope` is the campaign's `(application, setup fingerprint)` hash — see
/// [`crate::campaign::TestSetup::fingerprint`] — so an entry can only be
/// served where the *entire* run would be byte-identical. Implementations
/// are consulted under concurrency from suite workers and must be
/// internally synchronized; they must also be **conservative**: any doubt
/// about an entry (corruption, version skew, key mismatch) must read as a
/// miss, never as a wrong digest.
pub trait ResultStore: Send + Sync {
    /// Returns the digest of an identical prior run, or `None` on a miss.
    fn load(&self, scope: u64, key: &FaultKey) -> Option<RunDigest>;

    /// Persists the digest of an executed run: the record is stored when
    /// `save` returns. Must be idempotent: an explicit
    /// [`crate::engine::ResultCache::insert`] of a known key, or a second
    /// process over the same store, saves the same `(scope, key, digest)`
    /// again.
    fn save(&self, scope: u64, key: &FaultKey, digest: &RunDigest);

    /// Persists many executed runs of one scope, as [`ResultStore::save`]
    /// does each. The engine calls it once per campaign, after the
    /// campaign's last record, with every run the campaign executed; a
    /// claim fulfilled outside a campaign saves its one record through it
    /// at once. The default saves the records one by one; a backend that
    /// can write a scope's records together overrides it.
    fn save_all(&self, scope: u64, records: &[(FaultKey, RunDigest)]) {
        for (key, digest) in records {
            self.save(scope, key, digest);
        }
    }

    /// Number of entries currently stored.
    fn entries(&self) -> usize;

    /// A short backend label (`"memory"`, `"disk"`) for diagnostics.
    fn kind(&self) -> &'static str;
}

/// The process-local [`ResultStore`]: a poison-tolerant mutex-guarded map.
///
/// This is exactly the storage the pre-refactor `ResultCache` embedded,
/// extracted behind the trait. It is useful on its own for tests and as
/// the fallback when no persistent directory is configured.
#[derive(Default)]
pub struct MemoryStore {
    map: Mutex<BTreeMap<u64, BTreeMap<String, RunDigest>>>,
}

impl MemoryStore {
    /// An empty in-memory store.
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }
}

impl ResultStore for MemoryStore {
    fn load(&self, scope: u64, key: &FaultKey) -> Option<RunDigest> {
        let map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        map.get(&scope).and_then(|m| m.get(key.repr())).cloned()
    }

    fn save(&self, scope: u64, key: &FaultKey, digest: &RunDigest) {
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        map.entry(scope)
            .or_default()
            .insert(key.repr().to_string(), digest.clone());
    }

    fn entries(&self) -> usize {
        let map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        map.values().map(BTreeMap::len).sum()
    }

    fn kind(&self) -> &'static str {
        "memory"
    }
}

/// The outcome of resolving a persistent-store directory from the CLI flag
/// and `EPA_CACHE_DIR`: the validated directory (absent when no store was
/// requested or the request had to be refused) plus, for a refused request,
/// why. The caller decides what a refusal means: a suite run warns and
/// runs without a store (the same contract as the
/// executor's `EPA_WORKERS` parsing); a store operation on an explicit
/// directory fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreResolution {
    /// The canonicalized, writability-probed store directory.
    pub dir: Option<PathBuf>,
    /// Why a requested directory was refused.
    pub refusal: Option<String>,
}

/// Resolves the persistent-store directory from an explicit `--store`
/// value and the raw `EPA_CACHE_DIR` environment value (pure, for tests;
/// [`resolve_store_dir_env`] feeds it the real environment).
///
/// The explicit flag wins over the environment. A blank value means "no
/// store". Relative paths are canonicalized against the current directory
/// (the directory is created first, so canonicalization cannot fail on a
/// fresh path). A directory that cannot be created or written is refused,
/// with the reason in [`StoreResolution::refusal`]; so is a symbolic link
/// whose target does not exist.
pub fn resolve_store_dir(explicit: Option<&str>, env_value: Option<&str>) -> StoreResolution {
    let raw = match explicit.or(env_value).map(str::trim) {
        Some(r) if !r.is_empty() => r,
        _ => {
            return StoreResolution {
                dir: None,
                refusal: None,
            }
        }
    };
    let path = PathBuf::from(raw);
    // A symlink to nothing makes `create_dir_all` fail with a bare
    // "File exists"; name the link and its target instead.
    if let Ok(target) = std::fs::read_link(&path) {
        if std::fs::metadata(&path).is_err_and(|e| e.kind() == std::io::ErrorKind::NotFound) {
            return StoreResolution {
                dir: None,
                refusal: Some(format!(
                    "store directory `{raw}` is a dangling symbolic link to `{}`",
                    target.display()
                )),
            };
        }
    }
    if let Err(e) = std::fs::create_dir_all(&path) {
        return StoreResolution {
            dir: None,
            refusal: Some(format!("store directory `{raw}` cannot be created ({e})")),
        };
    }
    let canonical = match path.canonicalize() {
        Ok(c) => c,
        Err(e) => {
            return StoreResolution {
                dir: None,
                refusal: Some(format!("store directory `{raw}` cannot be canonicalized ({e})")),
            }
        }
    };
    if let Err(e) = probe_writable(&canonical) {
        return StoreResolution {
            dir: None,
            refusal: Some(format!(
                "store directory `{}` is not writable ({e})",
                canonical.display()
            )),
        };
    }
    StoreResolution {
        dir: Some(canonical),
        refusal: None,
    }
}

/// [`resolve_store_dir`] against the live `EPA_CACHE_DIR` environment.
pub fn resolve_store_dir_env(explicit: Option<&str>) -> StoreResolution {
    let env_value = std::env::var(EPA_CACHE_DIR).ok();
    resolve_store_dir(explicit, env_value.as_deref())
}

/// Creates and removes a probe file to prove `dir` is writable. The probe
/// is created only as a new file: a link planted at its predictable name,
/// dangling or not, fails the probe instead of being followed, and is left
/// where it is.
fn probe_writable(dir: &Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let probe = dir.join(format!(".epa-probe-{}", std::process::id()));
    let mut file = std::fs::File::options().write(true).create_new(true).open(&probe)?;
    let written = file.write_all(b"probe");
    drop(file);
    let removed = std::fs::remove_file(&probe);
    written.and(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_dir(tag: &str) -> PathBuf {
        static SEQ: shim_sync::sync::atomic::AtomicU64 = shim_sync::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, shim_sync::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("epa-store-{tag}-{}-{n}", std::process::id()))
    }

    fn digest(exit: i32) -> RunDigest {
        RunDigest {
            applied: true,
            exit: Some(exit),
            crashed: None,
            audit_events: 2,
            violations: Vec::new(),
        }
    }

    #[test]
    fn memory_store_round_trips_and_isolates_scopes() {
        let store = MemoryStore::new();
        let key = FaultKey::synthetic("s#0|-|{}");
        assert!(store.load(1, &key).is_none());
        store.save(1, &key, &digest(0));
        assert_eq!(store.load(1, &key), Some(digest(0)));
        assert!(store.load(2, &key).is_none(), "scopes must not bleed");
        assert_eq!(store.entries(), 1);
        assert_eq!(store.kind(), "memory");
        // Idempotent re-save keeps one entry.
        store.save(1, &key, &digest(0));
        assert_eq!(store.entries(), 1);
    }

    #[test]
    fn unset_and_blank_store_requests_resolve_to_none_silently() {
        assert_eq!(
            resolve_store_dir(None, None),
            StoreResolution {
                dir: None,
                refusal: None
            }
        );
        assert_eq!(resolve_store_dir(Some("  "), None).dir, None);
        assert_eq!(resolve_store_dir(Some("  "), None).refusal, None);
        assert_eq!(resolve_store_dir(None, Some("")).dir, None);
    }

    #[test]
    fn explicit_flag_wins_over_the_environment() {
        let flag_dir = unique_dir("flag");
        let env_dir = unique_dir("env");
        let resolved = resolve_store_dir(
            Some(flag_dir.to_str().expect("utf-8 temp path")),
            Some(env_dir.to_str().expect("utf-8 temp path")),
        );
        assert_eq!(resolved.refusal, None);
        assert_eq!(
            resolved.dir.as_deref(),
            Some(flag_dir.canonicalize().expect("created").as_path())
        );
        assert!(!env_dir.exists(), "the losing source must not be touched");
        let _ = std::fs::remove_dir_all(&flag_dir);
    }

    #[test]
    fn relative_paths_are_canonicalized_to_absolute() {
        // A relative request must come back absolute (anchored at the
        // current directory), so later chdirs cannot silently retarget it.
        let tag = format!("epa-store-rel-{}", std::process::id());
        let resolved = resolve_store_dir(None, Some(&format!("target/{tag}")));
        let dir = resolved.dir.expect("relative dir resolves");
        assert!(dir.is_absolute());
        assert!(dir.ends_with(&tag));
        assert_eq!(resolved.refusal, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncreatable_and_unwritable_directories_warn_and_fall_back() {
        // A path under a plain file cannot be created as a directory.
        let base = unique_dir("unwritable");
        std::fs::create_dir_all(&base).expect("temp base");
        let file = base.join("plain-file");
        std::fs::write(&file, b"x").expect("plain file");
        let under_file = file.join("sub");
        let resolved = resolve_store_dir(Some(under_file.to_str().expect("utf-8 temp path")), None);
        assert_eq!(resolved.dir, None);
        let refusal = resolved.refusal.expect("a refused request says why");
        assert!(refusal.contains("cannot be created"), "{refusal}");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[cfg(unix)]
    #[test]
    fn a_dangling_symlink_is_refused_by_name() {
        let base = unique_dir("dangling");
        std::fs::create_dir_all(&base).expect("temp base");
        let link = base.join("store-link");
        let target = base.join("gone");
        std::os::unix::fs::symlink(&target, &link).expect("a dangling link");
        let raw = link.to_str().expect("utf-8 temp path");
        let resolved = resolve_store_dir(Some(raw), None);
        assert_eq!(resolved.dir, None);
        assert_eq!(
            resolved.refusal.as_deref(),
            Some(
                format!(
                    "store directory `{raw}` is a dangling symbolic link to `{}`",
                    target.display()
                )
                .as_str()
            )
        );
        assert!(!target.exists(), "resolution creates nothing behind the link");
        // A link to a real directory resolves to that directory.
        std::fs::create_dir_all(&target).expect("link target");
        let resolved = resolve_store_dir(Some(raw), None);
        assert_eq!(resolved.dir, Some(target.canonicalize().expect("target exists")));
        let _ = std::fs::remove_dir_all(&base);
    }
}
