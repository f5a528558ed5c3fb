//! The lockfile-style campaign manifest: the exact
//! `(spec fingerprint, plan, store keys)` of a suite run.
//!
//! A warm re-run is only trustworthy when every key the plan will schedule
//! is already persisted. The manifest pins that set: one [`AppManifest`]
//! per registered application, carrying the campaign's memoization scope
//! (the `(application, setup fingerprint)` hash), the plan size, and the
//! full canonical key text of every distinct executable key — statically
//! pruned jobs are excluded because they never execute and never populate
//! the store. [`SuiteManifest::verify`] then
//! answers "would this suite replay entirely from the store?" without
//! scheduling a single job, and `reproduce -- store verify` gates on it
//! in CI.
//!
//! Like the store entries, the manifest is versioned: a reader rejects a
//! manifest written by a different format generation instead of
//! misinterpreting it.

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::engine::planner::FaultKey;
use crate::store::ResultStore;

/// Version of the manifest schema. Bump on incompatible change.
pub const MANIFEST_VERSION: u32 = 1;

/// The manifest's file name inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// One canonical store key of a plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestKey {
    /// The key's 64-bit content address, hex (the entry's file name stem).
    pub digest: String,
    /// The full canonical [`FaultKey`] text (what lookups compare).
    pub key: String,
}

/// One application's slice of the suite manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppManifest {
    /// The application under test.
    pub app: String,
    /// Its memoization scope — `fnv1a("{app}\n{fingerprint:016x}")`, hex.
    pub scope: String,
    /// Total jobs the plan schedules.
    pub jobs: usize,
    /// The distinct executable keys, in plan order.
    pub keys: Vec<ManifestKey>,
}

/// The lockfile: what a suite run planned and which store keys back it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuiteManifest {
    /// Manifest schema version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Per-application slices, in suite registration order.
    pub apps: Vec<AppManifest>,
}

/// The outcome of checking a manifest against a store.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ManifestCheck {
    /// Keys present in the store.
    pub present: usize,
    /// Missing keys as `(app, key digest)` pairs.
    pub missing: Vec<(String, String)>,
}

impl ManifestCheck {
    /// True when every manifest key is backed by a store entry — i.e. a
    /// warm re-run of the manifested suite executes zero jobs.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }
}

impl SuiteManifest {
    /// Total canonical store keys across all applications.
    pub fn store_keys(&self) -> usize {
        self.apps.iter().map(|a| a.keys.len()).sum()
    }

    /// Writes the manifest as pretty JSON to `dir/MANIFEST.json`, through a
    /// temp file renamed into place: a link planted there is replaced, not
    /// followed out of the store.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(MANIFEST_FILE);
        let text = serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("manifest serialization: {e}")))?;
        crate::store::disk::install(&path, &text, None)?;
        Ok(path)
    }

    /// Reads `dir/MANIFEST.json`. `Ok(None)` when no manifest exists.
    ///
    /// # Errors
    ///
    /// Filesystem errors, unparseable JSON, or a foreign
    /// [`MANIFEST_VERSION`] (rejected rather than misread).
    pub fn load_from(dir: &Path) -> io::Result<Option<SuiteManifest>> {
        let path = dir.join(MANIFEST_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let manifest: SuiteManifest = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{}: {e}", path.display())))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: manifest version {} (this build reads {MANIFEST_VERSION})",
                    path.display(),
                    manifest.version
                ),
            ));
        }
        Ok(Some(manifest))
    }

    /// Checks that every manifested key is present in `store`.
    pub fn verify(&self, store: &dyn ResultStore) -> ManifestCheck {
        let mut check = ManifestCheck::default();
        for app in &self.apps {
            let Ok(scope) = u64::from_str_radix(&app.scope, 16) else {
                for key in &app.keys {
                    check.missing.push((app.app.clone(), key.digest.clone()));
                }
                continue;
            };
            for key in &app.keys {
                if store.load(scope, &FaultKey::synthetic(&key.key)).is_some() {
                    check.present += 1;
                } else {
                    check.missing.push((app.app.clone(), key.digest.clone()));
                }
            }
        }
        check
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::planner::RunDigest;
    use crate::store::MemoryStore;

    fn manifest_with(keys: &[&str]) -> SuiteManifest {
        SuiteManifest {
            version: MANIFEST_VERSION,
            apps: vec![AppManifest {
                app: "lpr".to_string(),
                scope: format!("{:016x}", 42u64),
                jobs: keys.len() + 1,
                keys: keys
                    .iter()
                    .map(|k| ManifestKey {
                        digest: format!("{}", FaultKey::synthetic(k)),
                        key: (*k).to_string(),
                    })
                    .collect(),
            }],
        }
    }

    fn digest() -> RunDigest {
        RunDigest {
            applied: true,
            exit: Some(0),
            crashed: None,
            audit_events: 1,
            violations: Vec::new(),
        }
    }

    #[test]
    fn verify_reports_missing_keys_until_the_store_is_complete() {
        let manifest = manifest_with(&["a#0|-|{}", "b#0|-|{}"]);
        assert_eq!(manifest.store_keys(), 2);
        let store = MemoryStore::new();
        let partial = manifest.verify(&store);
        assert!(!partial.is_complete());
        assert_eq!(partial.missing.len(), 2);
        store.save(42, &FaultKey::synthetic("a#0|-|{}"), &digest());
        store.save(42, &FaultKey::synthetic("b#0|-|{}"), &digest());
        let complete = manifest.verify(&store);
        assert!(complete.is_complete());
        assert_eq!(complete.present, 2);
    }

    #[test]
    fn manifests_round_trip_on_disk_and_reject_foreign_versions() {
        let dir = std::env::temp_dir().join(format!("epa-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        assert_eq!(SuiteManifest::load_from(&dir).expect("absent is fine"), None);
        let manifest = manifest_with(&["a#0|-|{}"]);
        manifest.write_to(&dir).expect("writes");
        assert_eq!(SuiteManifest::load_from(&dir).expect("reads"), Some(manifest.clone()));
        let mut foreign = manifest;
        foreign.version = MANIFEST_VERSION + 1;
        foreign.write_to(&dir).expect("writes");
        let err = SuiteManifest::load_from(&dir).expect_err("foreign versions are rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
