//! Cross-process warm replay: a suite executed against a persistent store
//! in one "process" (one `ResultCache::persistent` handle, dropped
//! entirely) must replay in a fresh one with **zero** executed runs and
//! byte-identical verdicts — the `cache_hit` provenance flag is the only
//! permitted difference. Also covers the conservative-miss contract end to
//! end: a corrupted entry re-executes exactly its own job, heals the
//! store, and never changes a verdict. Finally, each executed run reaches
//! the backend exactly once, and a replayed one never does.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use epa::apps::{standard_suite, ScriptedApp};
use epa::core::corpus::{synthesize_one, DEFAULT_CORPUS_SEED};
use epa::core::engine::{FaultKey, ResultCache, RunDigest, Session, Suite, SuiteReport};
use epa::core::store::{DiskStore, MemoryStore, ResultStore, SuiteManifest};

/// An empty per-test store directory under `target/` (kept out of the
/// source tree; recreated from scratch on every run).
fn fresh_store_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("test-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The two-scenario corpus suite the schema tests also use, wired to a
/// fresh persistent cache handle over `dir` — building it anew per call is
/// exactly the cross-process shape: no memory is shared between calls.
fn corpus_suite(dir: &Path) -> Suite {
    let cache = ResultCache::persistent(dir).expect("the test store directory opens");
    let mut suite = Suite::new().sequential().with_result_cache(cache);
    for index in [1usize, 4] {
        let scenario = synthesize_one(DEFAULT_CORPUS_SEED, index);
        let setup = scenario.spec.materialize().expect("corpus worlds materialize");
        suite.register_session(ScriptedApp::for_scenario(&scenario), Session::from_setup(setup));
    }
    suite
}

/// The report serialized with every record's `cache_hit` flag cleared:
/// replay provenance is the one field a warm run may legitimately change.
fn stripped(report: &SuiteReport) -> String {
    let mut normalized = report.clone();
    for campaign in &mut normalized.reports {
        for record in &mut campaign.records {
            record.cache_hit = false;
        }
    }
    serde_json::to_string_pretty(&normalized).expect("suite reports serialize")
}

/// Every `*.entry` file below the store root, for targeted corruption.
fn entry_files(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(listing) = std::fs::read_dir(&dir) else { continue };
        for entry in listing.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "entry") {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

#[test]
fn a_fresh_process_replays_the_suite_with_zero_executed_runs() {
    let dir = fresh_store_dir("replay");

    // "Process one": execute cold, persist every digest and the manifest.
    let cold_suite = corpus_suite(&dir);
    let cold = cold_suite.execute();
    let manifest = cold_suite.manifest();
    manifest.write_to(&dir).expect("the campaign manifest writes");
    assert!(cold.total_runs_executed() > 0, "the cold pass must actually execute");
    drop(cold_suite); // nothing in memory survives past this line

    // "Process two": a brand-new suite and cache handle over the same dir.
    let warm_suite = corpus_suite(&dir);
    let warm = warm_suite.execute();
    assert_eq!(
        warm.total_runs_executed(),
        0,
        "a warm re-run over a populated store must execute nothing"
    );
    assert_eq!(cold.total_injected(), warm.total_injected());
    assert_eq!(cold.total_violated(), warm.total_violated());
    assert_eq!(
        stripped(&cold),
        stripped(&warm),
        "warm verdicts must be byte-identical to live execution (modulo cache_hit)"
    );

    // The lockfile contract: the persisted manifest matches the fresh
    // suite's plan and accounts for every key actually in the store.
    let reloaded = SuiteManifest::load_from(&dir)
        .expect("the manifest reads back")
        .expect("the manifest exists");
    assert_eq!(reloaded, manifest, "the manifest must round-trip through disk");
    assert_eq!(
        warm_suite.manifest(),
        manifest,
        "a fresh process must derive the identical manifest from the specs"
    );
    let store = DiskStore::open(&dir).expect("the populated store re-opens");
    let check = reloaded.verify(&store);
    assert!(check.is_complete(), "no manifest key may be missing from the store");
    assert_eq!(
        check.present,
        store.entries(),
        "the manifest must cover the whole store"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupted_entry_re_executes_only_its_own_job_and_heals_the_store() {
    let dir = fresh_store_dir("heal");
    let cold = corpus_suite(&dir).execute();

    // Bit-flip one persisted entry mid-body — a crash-truncated or
    // disk-damaged record.
    let entries = entry_files(&dir);
    assert!(!entries.is_empty(), "the cold pass must persist entries");
    let victim = &entries[entries.len() / 2];
    let mut bytes = std::fs::read(victim).expect("the victim entry reads");
    let flip = bytes.len() - 2;
    bytes[flip] ^= 0x40;
    std::fs::write(victim, &bytes).expect("the corrupted entry writes");

    // The damaged entry is detected, logged, and treated as a miss: the
    // warm pass re-executes exactly that one job, with verdicts unchanged.
    let warm = corpus_suite(&dir).execute();
    assert_eq!(
        warm.total_runs_executed(),
        1,
        "exactly the corrupted job must re-execute"
    );
    assert_eq!(
        stripped(&cold),
        stripped(&warm),
        "corruption must cause re-execution, never a wrong verdict"
    );

    // The re-execution wrote the entry back: the store is healed and the
    // next process replays everything again.
    assert!(victim.exists(), "the healed entry must be rewritten in place");
    let healed = corpus_suite(&dir).execute();
    assert_eq!(healed.total_runs_executed(), 0, "the store must be healed");
    assert_eq!(stripped(&cold), stripped(&healed));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_truncated_entry_is_a_conservative_miss_not_a_parse_panic() {
    let dir = fresh_store_dir("truncate");
    let cold = corpus_suite(&dir).execute();

    let entries = entry_files(&dir);
    let victim = &entries[0];
    let bytes = std::fs::read(victim).expect("the victim entry reads");
    std::fs::write(victim, &bytes[..bytes.len() / 2]).expect("the truncated entry writes");

    let warm = corpus_suite(&dir).execute();
    assert_eq!(warm.total_runs_executed(), 1, "the truncated job must re-execute");
    assert_eq!(stripped(&cold), stripped(&warm));

    let _ = std::fs::remove_dir_all(&dir);
}

/// A [`ResultStore`] that counts the saves reaching its inner store.
#[derive(Default)]
struct CountingStore {
    inner: MemoryStore,
    saves: AtomicUsize,
}

impl ResultStore for CountingStore {
    fn load(&self, scope: u64, key: &FaultKey) -> Option<RunDigest> {
        self.inner.load(scope, key)
    }

    fn save(&self, scope: u64, key: &FaultKey, digest: &RunDigest) {
        self.saves.fetch_add(1, Ordering::SeqCst);
        self.inner.save(scope, key, digest);
    }

    fn entries(&self) -> usize {
        self.inner.entries()
    }

    fn kind(&self) -> &'static str {
        "counting"
    }
}

#[test]
fn each_executed_run_is_saved_exactly_once() {
    // Sequential (`None`), and pooled with the caller as worker 0 beside
    // one or two spawned threads.
    for workers in [None, Some(2), Some(3)] {
        let store = Arc::new(CountingStore::default());
        let suite = || {
            let suite = standard_suite().expect("valid specs").with_store(store.clone());
            match workers {
                None => suite.sequential(),
                Some(w) => suite.with_workers(w),
            }
        };
        let cold = suite().execute();
        assert_eq!(cold.total_runs_executed(), 216, "{workers:?}: the cold suite executes");
        assert_eq!(
            store.saves.load(Ordering::SeqCst),
            216,
            "{workers:?}: the claim that executes a run is its only save"
        );
        assert_eq!(store.entries(), 216);

        // A fresh hot tier over the same store: everything replays from it.
        store.saves.store(0, Ordering::SeqCst);
        let warm = suite().execute();
        assert_eq!(warm.total_runs_executed(), 0, "{workers:?}: the warm suite replays");
        assert_eq!(
            store.saves.load(Ordering::SeqCst),
            0,
            "{workers:?}: a replay saves nothing"
        );
        assert_eq!(stripped(&cold), stripped(&warm));
    }
}
