//! Cross-process warm replay: a suite executed against a persistent store
//! in one "process" (one `ResultCache::persistent` handle, dropped
//! entirely) must replay in a fresh one with **zero** executed runs and
//! byte-identical verdicts — the `cache_hit` provenance flag is the only
//! permitted difference. Also covers the conservative-miss contract end to
//! end: a corrupted or torn record re-executes exactly its own job, heals
//! the store, and never changes a verdict. Two handles writing to the
//! same segments from many threads never corrupt one another. Finally,
//! each executed run reaches the backend exactly once, a campaign's runs
//! reach it in one `save_all` after the campaign's last record, and a
//! replayed run never does.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;

use epa::apps::{standard_apps, standard_suite, standard_suite_with_options, ScriptedApp};
use epa::core::campaign::CampaignOptions;
use epa::core::corpus::{synthesize_one, DEFAULT_CORPUS_SEED};
use epa::core::engine::{FaultKey, ResultCache, RunDigest, Session, Suite, SuiteReport};
use epa::core::report::CampaignReport;
use epa::core::store::{DiskStore, MemoryStore, ResultStore, SuiteManifest, STORE_FORMAT_VERSION};

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
    let mut suite = Suite::new().with_workers(1).with_result_cache(cache);
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

/// The directory below the store root that holds the segments.
fn segment_dir() -> String {
    format!("v{STORE_FORMAT_VERSION}")
}

/// Every segment file below the store root, sorted.
fn segment_files(root: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(root.join(segment_dir()))
        .map(|listing| listing.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    found.retain(|p| p.extension().is_some_and(|e| e == "seg"));
    found.sort();
    found
}

/// The lines of a segment file, header first.
fn segment_lines(segment: &Path) -> Vec<Vec<u8>> {
    let bytes = std::fs::read(segment).expect("the segment reads");
    bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(<[u8]>::to_vec)
        .collect()
}

/// Damages record `record` (0 = the first record after the header) of a
/// segment in place with `damage`, which gets that line's bytes.
fn corrupt_record(segment: &Path, record: usize, damage: impl FnOnce(&mut Vec<u8>)) {
    let mut lines = segment_lines(segment);
    damage(&mut lines[record + 1]);
    let mut text = lines.join(&b'\n');
    text.push(b'\n');
    std::fs::write(segment, text).expect("the damaged segment writes");
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

    // Bit-flip one persisted record mid-body — a disk-damaged record.
    let segments = segment_files(&dir);
    assert_eq!(segments.len(), 2, "one segment per campaign scope");
    let victim = &segments[1];
    let records = segment_lines(victim).len() - 1;
    assert!(records > 1, "the cold pass must persist records");
    corrupt_record(victim, records / 2, |line| {
        let flip = line.len() - 2;
        line[flip] ^= 0x40;
    });

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

    // The re-execution's write replaced the damaged record with a healed
    // one: the store is healed and the next process replays everything
    // again.
    assert_eq!(
        segment_lines(victim).len() - 1,
        records,
        "the healed record must replace the damaged one"
    );
    assert!(DiskStore::open(&dir).expect("the store reopens").verify().is_clean());
    let healed = corpus_suite(&dir).execute();
    assert_eq!(healed.total_runs_executed(), 0, "the store must be healed");
    assert_eq!(stripped(&cold), stripped(&healed));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_truncated_entry_is_a_conservative_miss_not_a_parse_panic() {
    let dir = fresh_store_dir("truncate");
    let cold = corpus_suite(&dir).execute();

    // Cut the first segment mid-way through its final record, as a
    // damaged disk would.
    let victim = &segment_files(&dir)[0];
    let bytes = std::fs::read(victim).expect("the victim segment reads");
    let last_start = bytes[..bytes.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("a record line")
        + 1;
    let cut = last_start + (bytes.len() - last_start) / 2;
    std::fs::write(victim, &bytes[..cut]).expect("the truncated segment writes");

    let warm = corpus_suite(&dir).execute();
    assert_eq!(warm.total_runs_executed(), 1, "the truncated job must re-execute");
    assert_eq!(stripped(&cold), stripped(&warm));
    let healed = corpus_suite(&dir).execute();
    assert_eq!(healed.total_runs_executed(), 0, "the torn record must be healed");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every record of `reports` serialized with both provenance flags
/// (`cache_hit`, `pruned`) cleared: what replay and pruning may not change.
fn outcomes<'a>(reports: impl IntoIterator<Item = &'a CampaignReport>) -> String {
    let mut normalized: Vec<CampaignReport> = reports.into_iter().cloned().collect();
    for record in normalized.iter_mut().flat_map(|campaign| &mut campaign.records) {
        record.cache_hit = false;
        record.pruned = false;
    }
    serde_json::to_string_pretty(&normalized).expect("campaign reports serialize")
}

/// The exhaustive reference: every standard application through its own
/// cache-less session, with default options (static pruning off).
fn exhaustive_outcomes() -> String {
    let reports: Vec<CampaignReport> = standard_apps()
        .into_iter()
        .map(|(app, spec)| Session::new(&spec).expect("valid specs").execute(app.as_ref()))
        .collect();
    assert_eq!(reports.iter().map(CampaignReport::runs_executed).sum::<usize>(), 245);
    outcomes(&reports)
}

/// Runs the standard suite over one fresh store once per entry of
/// `static_prune`, each pass in a fresh handle with pruning set so. Every
/// pass reaches the exhaustive outcomes. Per pass, the result is `[runs
/// executed, pruned, cache hits, records in the store after it]`.
fn store_passes(tag: &str, static_prune: &[bool]) -> Vec<[usize; 4]> {
    let dir = fresh_store_dir(tag);
    let exhaustive = exhaustive_outcomes();
    let pass = |&static_prune: &bool| {
        let options = CampaignOptions {
            static_prune,
            ..CampaignOptions::default()
        };
        let report = standard_suite_with_options(options)
            .expect("valid specs")
            .with_result_cache(ResultCache::persistent(&dir).expect("the test store directory opens"))
            .execute();
        assert_eq!(outcomes(&report.reports), exhaustive);
        let records = DiskStore::open(&dir).expect("the store reopens").entries();
        [
            report.total_runs_executed(),
            report.total_pruned(),
            report.total_cache_hits(),
            records,
        ]
    };
    let counts = static_prune.iter().map(pass).collect();
    let _ = std::fs::remove_dir_all(&dir);
    counts
}

#[test]
fn a_store_written_without_pruning_replays_before_the_analyzer() {
    // The schedule looks each job up before classifying it, so under
    // pruning the jobs the analyzer would prove inert replay from the
    // store as cache hits.
    assert_eq!(
        store_passes("unpruned", &[false, true]),
        [[245, 0, 0, 245], [0, 0, 245, 245]]
    );
}

#[test]
fn a_store_written_with_pruning_replays_its_inert_jobs_as_pruned() {
    // Pruned digests are never saved: under pruning the inert jobs miss and
    // are pruned again. Such a store (every store written while pruning was
    // on by default) holds 216 records: the first default pass over it
    // executes exactly the 29 unsaved inert jobs, and the next none.
    let passes = store_passes("pruned", &[true, true, false, false]);
    assert_eq!(
        passes,
        [
            [216, 29, 0, 216],
            [0, 29, 216, 216],
            [29, 0, 216, 245],
            [0, 0, 245, 245]
        ]
    );
}

/// A [`ResultStore`] that counts the records saved into its inner store
/// and records each `save_all` call: its scope and keys, in order.
#[derive(Default)]
struct CountingStore {
    inner: MemoryStore,
    saves: AtomicUsize,
    batches: Mutex<Vec<(u64, Vec<String>)>>,
}

impl ResultStore for CountingStore {
    fn load(&self, scope: u64, key: &FaultKey) -> Option<RunDigest> {
        self.inner.load(scope, key)
    }

    fn save(&self, scope: u64, key: &FaultKey, digest: &RunDigest) {
        self.saves.fetch_add(1, Ordering::SeqCst);
        self.inner.save(scope, key, digest);
    }

    fn save_all(&self, scope: u64, records: &[(FaultKey, RunDigest)]) {
        self.saves.fetch_add(records.len(), Ordering::SeqCst);
        let keys = records.iter().map(|(key, _)| key.repr().to_string()).collect();
        self.batches.lock().expect("unpoisoned").push((scope, keys));
        self.inner.save_all(scope, records);
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
    // One worker, and pooled with the caller as worker 0 beside one or two
    // spawned threads.
    for workers in [1, 2, 3] {
        let store = Arc::new(CountingStore::default());
        let suite = || {
            standard_suite()
                .expect("valid specs")
                .with_store(store.clone())
                .with_workers(workers)
        };
        let cold = suite().execute();
        assert_eq!(
            cold.total_runs_executed(),
            245,
            "{workers} workers: the cold suite executes"
        );
        assert_eq!(
            store.saves.load(Ordering::SeqCst),
            245,
            "{workers} workers: the claim that executes a run is its only save"
        );
        assert_eq!(store.entries(), 245);

        // A fresh hot tier over the same store: everything replays from it.
        store.saves.store(0, Ordering::SeqCst);
        let warm = suite().execute();
        assert_eq!(
            warm.total_runs_executed(),
            0,
            "{workers} workers: the warm suite replays"
        );
        assert_eq!(
            store.saves.load(Ordering::SeqCst),
            0,
            "{workers} workers: a replay saves nothing"
        );
        assert_eq!(stripped(&cold), stripped(&warm));
    }
}

#[test]
fn a_cold_standard_suite_writes_one_segment_per_application() {
    let dir = fresh_store_dir("segments");
    let cache = ResultCache::persistent(&dir).expect("the test store directory opens");
    let cold = standard_suite()
        .expect("valid specs")
        .with_result_cache(cache)
        .execute();
    assert_eq!(cold.total_runs_executed(), 245);
    let segments = segment_files(&dir);
    assert_eq!(segments.len(), 8, "one segment per application scope");
    let records: usize = segments.iter().map(|s| segment_lines(s).len() - 1).sum();
    assert_eq!(records, 245, "one record per executed run");
    let store = DiskStore::open(&dir).expect("the populated store re-opens");
    assert_eq!(store.entries(), 245);
    assert!(store.verify().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The digest `concurrent_handles_never_corrupt_a_segment` saves for key `i`.
fn numbered_digest(i: usize) -> RunDigest {
    RunDigest {
        applied: i.is_multiple_of(2),
        exit: Some(i32::try_from(i).expect("small")),
        crashed: None,
        audit_events: i * 3,
        violations: Vec::new(),
    }
}

#[test]
fn concurrent_handles_never_corrupt_a_segment() {
    // Two handles on one directory — two processes, in-process — each
    // save an overlapping key range from four threads of their own; every
    // thread writes into all four segments, and all eight start at once.
    let dir = fresh_store_dir("concurrent");
    let keys: Vec<(u64, FaultKey)> = (0..120)
        .map(|i| (i as u64 % 4, FaultKey::synthetic(&format!("k{i}#0|-|{{}}"))))
        .collect();
    let handles = [
        DiskStore::open(&dir).expect("the first handle opens"),
        DiskStore::open(&dir).expect("the second handle opens"),
    ];
    let start = Barrier::new(8);
    thread::scope(|scope| {
        for (h, range) in [(0, 0..80), (1, 40..120)] {
            for t in 0..4 {
                let (store, keys, range, start) = (&handles[h], &keys, range.clone(), &start);
                scope.spawn(move || {
                    start.wait();
                    for i in range.filter(|i| (i / 4) % 4 == t) {
                        store.save(keys[i].0, &keys[i].1, &numbered_digest(i));
                    }
                });
            }
        }
    });
    let third = DiskStore::open(&dir).expect("a third handle opens");
    for (i, (scope, key)) in keys.iter().enumerate() {
        assert_eq!(third.load(*scope, key), Some(numbered_digest(i)), "key {i}");
    }
    let report = third.verify();
    assert!(report.corrupt.is_empty(), "{:?}", report.corrupt);
    assert!(report.is_clean());
    assert_eq!(third.entries(), 120, "each key counts once");
    assert_eq!(segment_files(&dir).len(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn processes_racing_to_create_a_store_all_open_it() {
    // Each opener does what `reproduce` does: create the directory, write
    // and remove a writability probe (`.epa-probe-<pid>`), and open it.
    for round in 0..20 {
        let dir = fresh_store_dir(&format!("race-{round}"));
        let start = Barrier::new(4);
        thread::scope(|scope| {
            for opener in 0..4 {
                let (dir, start) = (&dir, &start);
                scope.spawn(move || {
                    start.wait();
                    std::fs::create_dir_all(dir).expect("the directory creates");
                    let probe = dir.join(format!(".epa-probe-{opener}"));
                    std::fs::write(&probe, "probe").expect("the probe writes");
                    let store = DiskStore::open(dir);
                    std::fs::remove_file(&probe).expect("the probe is removed");
                    store.expect("a racing opener never sees a foreign directory");
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_torn_final_record_then_a_save_loses_only_the_torn_key() {
    let dir = fresh_store_dir("torn");
    let key = |i: usize| FaultKey::synthetic(&format!("t{i}#0|-|{{}}"));
    let store = DiskStore::open(&dir).expect("the store opens");
    for i in 0..5 {
        store.save(3, &key(i), &numbered_digest(i));
    }
    drop(store);
    // A damaged disk: the last record loses its second half.
    let segment = &segment_files(&dir)[0];
    let bytes = std::fs::read(segment).expect("the segment reads");
    std::fs::write(segment, &bytes[..bytes.len() - 20]).expect("the torn segment writes");
    assert_eq!(
        DiskStore::open(&dir).expect("the store reopens").verify().corrupt.len(),
        1,
        "only the torn record is damaged"
    );

    let store = DiskStore::open(&dir).expect("the store reopens");
    store.save(3, &key(5), &numbered_digest(5));
    assert!(
        store.verify().corrupt.is_empty(),
        "the save rewrote the segment without the torn record"
    );
    drop(store);
    let reread = DiskStore::open(&dir).expect("the store reopens");
    for i in 0..6 {
        let want = (i != 4).then(|| numbered_digest(i));
        assert_eq!(reread.load(3, &key(i)), want, "key {i}");
    }
    assert_eq!(reread.entries(), 5);
    assert!(reread.verify().is_clean(), "the store stays clean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closing_a_handle_mid_append_loses_no_record() {
    // One handle saves from four threads while others repeatedly open,
    // save and close — and so rewrite the same segment under its feet.
    let dir = fresh_store_dir("compact-race");
    let key = |i: usize| FaultKey::synthetic(&format!("r{i}#0|-|{{}}"));
    let writer = DiskStore::open(&dir).expect("the store opens");
    thread::scope(|scope| {
        for t in 0..4 {
            let (writer, key) = (&writer, &key);
            scope.spawn(move || {
                for i in (t..400).step_by(4) {
                    writer.save(1, &key(i), &numbered_digest(i));
                }
            });
        }
        for i in 400..440 {
            let closer = DiskStore::open(&dir).expect("the store opens");
            closer.save(1, &key(i), &numbered_digest(i));
        }
    });
    drop(writer);
    let reread = DiskStore::open(&dir).expect("the store reopens");
    for i in 0..440 {
        assert_eq!(reread.load(1, &key(i)), Some(numbered_digest(i)), "key {i}");
    }
    assert!(reread.verify().is_clean());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file below the store root as `(relative path, bytes)`, sorted.
fn store_files(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut pending = vec![root.to_path_buf()];
    while let Some(dir) = pending.pop() {
        for path in std::fs::read_dir(&dir)
            .expect("the store lists")
            .flatten()
            .map(|e| e.path())
        {
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("store files read");
                files.push((path.strip_prefix(root).expect("below the root").to_path_buf(), bytes));
            }
        }
    }
    files.sort();
    files
}

#[test]
fn identical_cold_runs_leave_byte_identical_stores() {
    // Pooled runs complete in a different order each time; every write
    // sorts its segment by key.
    let dirs = [fresh_store_dir("identical-a"), fresh_store_dir("identical-b")];
    let stores: Vec<_> = dirs
        .iter()
        .map(|dir| {
            let cache = ResultCache::persistent(dir).expect("the test store directory opens");
            let suite = standard_suite().expect("valid specs").with_workers(4);
            assert_eq!(suite.with_result_cache(cache).execute().total_runs_executed(), 245);
            store_files(dir)
        })
        .collect();
    assert_eq!(
        stores[0].iter().filter(|(p, _)| p.starts_with(segment_dir())).count(),
        8
    );
    assert!(
        stores[0] == stores[1],
        "two identical cold runs left different store bytes"
    );
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_cold_suite_saves_each_campaign_in_one_call_after_its_last_record() {
    for workers in [1, 2] {
        let store = Arc::new(CountingStore::default());
        let suite = || {
            standard_suite()
                .expect("valid specs")
                .with_store(store.clone())
                .with_workers(workers)
        };
        let manifest = suite().manifest();
        let cold = suite().execute();
        assert_eq!(cold.total_runs_executed(), 245, "{workers} workers");
        let mut batches = store.batches.lock().expect("unpoisoned").clone();
        assert_eq!(batches.len(), 8, "{workers} workers: one call per campaign");
        // Each call holds every key its campaign executes, in plan order
        // (so it came after the campaign's last executed record), and the
        // calls hold every save.
        batches.sort();
        let mut want: Vec<(u64, Vec<String>)> = manifest
            .apps
            .iter()
            .map(|app| {
                let scope = u64::from_str_radix(&app.scope, 16).expect("a hex scope");
                (scope, app.keys.iter().map(|k| k.key.clone()).collect())
            })
            .collect();
        want.sort();
        assert_eq!(batches, want, "{workers} workers");
        let distinct: std::collections::BTreeSet<_> = batches
            .iter()
            .flat_map(|(scope, keys)| keys.iter().map(move |key| (scope, key)))
            .collect();
        assert_eq!((distinct.len(), store.saves.load(Ordering::SeqCst)), (245, 245));
        assert_eq!(store.entries(), 245);

        // A warm pass replays everything and writes nothing.
        let warm = suite().execute();
        assert_eq!(warm.total_runs_executed(), 0, "{workers} workers");
        let calls = store.batches.lock().expect("unpoisoned").len();
        assert_eq!(
            (calls, store.saves.load(Ordering::SeqCst)),
            (8, 245),
            "{workers} workers"
        );
    }
}

#[test]
fn a_session_on_a_persistent_cache_has_saved_every_run_when_execute_returns() {
    let dir = fresh_store_dir("session");
    // Each session's cache handle is still open while a fresh one reads.
    let sessions: Vec<_> = standard_apps()
        .into_iter()
        .map(|(app, spec)| {
            let cache = ResultCache::persistent(&dir).expect("the test store directory opens");
            let session = Session::new(&spec).expect("valid specs").with_result_cache(cache);
            let report = session.execute(app.as_ref());
            assert_eq!(report.runs_executed(), report.injected(), "{}", report.app);
            session
        })
        .collect();
    let fresh = DiskStore::open(&dir).expect("a fresh handle opens");
    let manifest = standard_suite().expect("valid specs").manifest();
    let mut loaded = 0;
    for app in &manifest.apps {
        let scope = u64::from_str_radix(&app.scope, 16).expect("a hex scope");
        for key in &app.keys {
            assert!(
                fresh.load(scope, &FaultKey::synthetic(&key.key)).is_some(),
                "{}: {}",
                app.app,
                key.key
            );
            loaded += 1;
        }
    }
    assert_eq!(loaded, 245);
    drop(sessions);
    let _ = std::fs::remove_dir_all(&dir);
}
