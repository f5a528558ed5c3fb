//! Store compatibility across releases.
//!
//! `tests/fixtures/store-v3/` holds a v3 store (its `HEADER` and one
//! segment per standard-suite application) written by an earlier build by
//! a cold `reproduce suite --store`. Replaying a copy of it must execute
//! no run and give the verdicts a store-less run gives. This pins what a
//! user's warm store depends on: every world fingerprint (the segment
//! scopes), every `FaultKey`, and the v3 wire form. A change that moves
//! any of them fails here, not in a user's store. A cold run into an empty
//! store must also write the fixture's exact bytes, at any worker count.

use std::path::{Path, PathBuf};

use epa::apps::standard_suite;
use epa::core::engine::{ResultCache, SuiteReport};
use epa::core::store::STORE_FORMAT_VERSION;

/// The committed fixture.
fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store-v3")
}

/// Copies the fixture into a fresh directory under `target/`: a replay
/// writes its manifest into the store, and the fixture must not change.
fn fixture_copy(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("test-store-fixture-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let segments = dir.join(format!("v{STORE_FORMAT_VERSION}"));
    std::fs::create_dir_all(&segments).expect("the copy's directory is created");
    std::fs::copy(fixture().join("HEADER"), dir.join("HEADER")).expect("the header copies");
    let from = fixture().join(format!("v{STORE_FORMAT_VERSION}"));
    for entry in std::fs::read_dir(&from).expect("the fixture's segments list") {
        let path = entry.expect("a segment entry reads").path();
        std::fs::copy(&path, segments.join(path.file_name().expect("a segment has a name"))).expect("a segment copies");
    }
    dir
}

/// The report as JSON with every record's `cache_hit` flag cleared: replay
/// provenance is the one field a replay may change.
fn stripped(report: &SuiteReport) -> String {
    let mut normalized = report.clone();
    for campaign in &mut normalized.reports {
        for record in &mut campaign.records {
            record.cache_hit = false;
        }
    }
    serde_json::to_string_pretty(&normalized).expect("suite reports serialize")
}

#[test]
fn the_committed_v3_store_replays_the_standard_suite_with_zero_runs() {
    assert_eq!(STORE_FORMAT_VERSION, 3, "the fixture is a v3 store");
    let dir = fixture_copy("replay");
    let cache = ResultCache::persistent(&dir).expect("the fixture copy opens as a store");
    let replayed = standard_suite()
        .expect("the standard suite builds")
        .with_result_cache(cache)
        .execute();
    let live = standard_suite().expect("the standard suite builds").execute();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        replayed.total_runs_executed(),
        0,
        "every record replays from the fixture"
    );
    assert_eq!((replayed.total_injected(), live.total_injected()), (245, 245));
    assert!(replayed.reports.iter().flat_map(|r| &r.records).all(|r| r.cache_hit));
    assert_eq!(
        stripped(&replayed),
        stripped(&live),
        "replayed verdicts must equal a store-less run's"
    );
}

#[test]
fn the_fixture_holds_one_segment_per_application() {
    let segments = std::fs::read_dir(fixture().join(format!("v{STORE_FORMAT_VERSION}")))
        .expect("the fixture's segments list")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "seg"))
        })
        .count();
    assert_eq!(segments, epa::apps::standard_apps().len());
    let header = std::fs::read_to_string(fixture().join("HEADER")).expect("the header reads");
    assert_eq!(header.trim_end(), format!("epa-result-store v{STORE_FORMAT_VERSION}"));
}

/// Every file of the store at `root` but its manifest, as `(path below
/// the root, bytes)`, sorted.
fn store_bytes(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let segments = format!("v{STORE_FORMAT_VERSION}");
    let mut files = vec![(
        PathBuf::from("HEADER"),
        std::fs::read(root.join("HEADER")).expect("the header reads"),
    )];
    for entry in std::fs::read_dir(root.join(&segments)).expect("the segments list") {
        let path = entry.expect("a segment entry reads").path();
        let name = Path::new(&segments).join(path.file_name().expect("a segment has a name"));
        files.push((name, std::fs::read(&path).expect("a segment reads")));
    }
    files.sort();
    files
}

#[test]
fn a_cold_standard_suite_writes_the_fixtures_bytes() {
    let fixture = store_bytes(&fixture());
    assert_eq!(fixture.len(), 9, "the header and 8 segments");
    for workers in [1, 2] {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("test-store-fixture-{}-cold-{workers}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = standard_suite()
            .expect("the standard suite builds")
            .with_workers(workers)
            .with_result_cache(ResultCache::persistent(&dir).expect("an empty directory opens as a store"))
            .execute();
        assert_eq!(cold.total_runs_executed(), 245, "{workers} workers");
        let written = store_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            written == fixture,
            "{workers} workers: the cold store's bytes differ from the fixture's"
        );
    }
}
