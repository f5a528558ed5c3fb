//! Schema regression: the machine-readable artifacts (`SUITE_report.json`,
//! `CORPUS_report.json`, and the persistent store's on-disk records) must
//! round-trip — serialize → parse → re-serialize byte-identical, and the
//! parsed value must equal the original — so a field rename or
//! representation change in any artifact breaks CI here instead of
//! silently breaking dashboard consumers or warm store replays.

use epa::apps::ScriptedApp;
use epa::core::corpus::{run_corpus, synthesize, synthesize_one, CorpusConfig, CorpusReport, DEFAULT_CORPUS_SEED};
use epa::core::engine::{Session, Suite, SuiteReport};
use serde::{Deserialize, Serialize};

/// Serialize → parse → re-serialize; both the bytes and the value must
/// survive unchanged.
fn assert_roundtrips<T>(what: &str, report: &T)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let first = serde_json::to_string_pretty(report).expect("reports serialize");
    let parsed: T =
        serde_json::from_str(&first).unwrap_or_else(|e| panic!("{what}: the emitted JSON no longer parses: {e}"));
    assert_eq!(&parsed, report, "{what}: parsing lost or mangled a field");
    let second = serde_json::to_string_pretty(&parsed).expect("reports re-serialize");
    assert_eq!(first, second, "{what}: re-serialization is not byte-identical");
    assert!(first.len() > 2, "{what}: the artifact is empty");
}

/// The suite artifact, exercised over two corpus campaigns (same shape as
/// the eight-app `SUITE_report.json`, at test-budget scale).
#[test]
fn suite_report_schema_roundtrips() {
    let mut suite = Suite::new().with_workers(1);
    for index in [1usize, 4] {
        let scenario = synthesize_one(DEFAULT_CORPUS_SEED, index);
        let setup = scenario.spec.materialize().expect("corpus worlds materialize");
        suite.register_session(ScriptedApp::for_scenario(&scenario), Session::from_setup(setup));
    }
    let report: SuiteReport = suite.execute();
    assert_eq!(report.reports.len(), 2);
    assert_roundtrips("SUITE_report.json", &report);
}

/// The persistent store's on-disk record format: encode → decode →
/// re-encode must be byte-identical (a record is one segment line), and a
/// record stamped with a foreign format version must be rejected outright
/// — never half-parsed into a wrong digest.
#[test]
fn store_entry_wire_format_roundtrips_and_rejects_version_skew() {
    use epa::core::engine::{FaultKey, RunDigest};
    use epa::core::store::{decode_entry, encode_entry, EntryError, STORE_FORMAT_VERSION};

    let scope = 0xdead_beef_cafe_f00d_u64;
    let key = FaultKey::synthetic("site=lpr:create occ=1 fault=F-E-7");
    let digest = RunDigest {
        applied: true,
        exit: Some(1),
        crashed: None,
        audit_events: 42,
        violations: Vec::new(),
    };
    let first = encode_entry(scope, &key, &digest);
    let parsed = decode_entry(&first).expect("store entry: the emitted record no longer parses");
    assert_eq!(parsed.scope, scope, "store entry: parsing mangled the scope");
    assert_eq!(parsed.key, key.repr(), "store entry: parsing mangled the key text");
    assert_eq!(
        parsed.digest, digest,
        "store entry: parsing lost or mangled a digest field"
    );
    let second = encode_entry(parsed.scope, &FaultKey::synthetic(&parsed.key), &parsed.digest);
    assert_eq!(first, second, "store entry: re-serialization is not byte-identical");

    assert_eq!(first.lines().count(), 1, "store entry: a record is one segment line");
    let skewed = first.replacen(&format!("v{STORE_FORMAT_VERSION} "), "v999 ", 1);
    assert!(
        matches!(decode_entry(&skewed), Err(EntryError::Version { .. })),
        "store entry: a foreign format version must be rejected as version skew"
    );
}

/// The corpus artifact, including the nested adequacy points, histograms
/// and per-scenario rows of the dashboard.
#[test]
fn corpus_report_schema_roundtrips() {
    let factory = ScriptedApp::factory();
    let scenarios = synthesize(&CorpusConfig {
        seed: DEFAULT_CORPUS_SEED,
        count: 6,
    });
    let report: CorpusReport = run_corpus(DEFAULT_CORPUS_SEED, &scenarios, &factory);
    assert_eq!(report.scenarios, 6);
    assert_eq!(report.divergences, 0, "the pinned corpus slice must not diverge");
    assert_roundtrips("CORPUS_report.json", &report);
}
