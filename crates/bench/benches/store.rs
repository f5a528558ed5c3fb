//! Persistent result-store bench: cold-vs-warm suite wall-clock and
//! cross-process replay correctness, written to `BENCH_store.json`.
//!
//! `main` runs the eight-application standard suite twice against the same
//! store directory through *separate* `ResultCache::persistent` handles —
//! the cross-process shape: the warm pass shares nothing in memory with the
//! cold pass, only the on-disk entries and the campaign manifest. Gates:
//!
//! * the warm pass executes **zero** runs (every job replays from disk);
//! * warm verdicts are byte-identical to live execution (the `cache_hit`
//!   provenance flag is the only permitted difference);
//! * the campaign manifest written by the cold pass verifies complete
//!   against the store and is reproduced bit-for-bit by the warm pass;
//! * warm wall-clock beats cold wall-clock (replay must not cost more
//!   than execution);
//! * warm wall-clock beats the same suite re-executed over a fresh
//!   in-memory cache (`memory_suite_ns`): replaying from disk must beat
//!   having no store at all.
//!
//! The same replay contract is then property-tested over randomized corpus
//! worlds (`synthesize_one` + `ScriptedApp`), where world shapes, fault
//! plans and verdicts vary per scenario instead of being the eight pinned
//! case studies.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use epa_apps::ScriptedApp;
use epa_bench::experiments;
use epa_core::corpus::{synthesize_one, DEFAULT_CORPUS_SEED};
use epa_core::engine::{ResultCache, Session};
use epa_core::report::CampaignReport;
use epa_core::store::DiskStore;

/// Median wall-clock nanoseconds of `f` over `samples` runs.
fn median_ns<O>(samples: usize, mut f: impl FnMut() -> O) -> u128 {
    let _ = std::hint::black_box(f());
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let _ = std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2].as_nanos()
}

/// An empty per-invocation store directory under the system temp dir.
fn fresh_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("epa-bench-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A cache over a fresh persistent handle — what a new process would open.
fn persistent_cache(dir: &Path) -> ResultCache {
    ResultCache::persistent(dir).expect("the bench store directory opens")
}

/// One comparable line per record: identity plus the serialized verdicts.
/// `cache_hit` is provenance, not a verdict, and is deliberately excluded —
/// it is the one field warm replay is allowed to change.
fn campaign_verdicts(app: &str, report: &CampaignReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for rec in &report.records {
        let verdicts = serde_json::to_string(&rec.violations).expect("verdicts serialize");
        let _ = writeln!(out, "{app}|{}|{}|{}|{verdicts}", rec.site, rec.occurrence, rec.fault_id);
    }
    out
}

/// The whole-suite verdict set, in report order.
fn suite_verdicts(report: &epa_core::engine::SuiteReport) -> String {
    report.reports.iter().map(|r| campaign_verdicts(&r.app, r)).collect()
}

/// The replay contract over randomized corpus worlds: for each synthesized
/// scenario, a cold campaign populates the store and a warm campaign
/// through a fresh handle must execute zero runs with byte-identical
/// verdicts. Returns `(scenarios, total injected)`.
fn replay_randomized_worlds(dir: &Path, scenarios: usize) -> usize {
    let mut injected = 0usize;
    for index in 0..scenarios {
        let scenario = synthesize_one(DEFAULT_CORPUS_SEED, index);
        let setup = scenario.spec.materialize().expect("corpus worlds materialize");
        let app = ScriptedApp::for_scenario(&scenario);
        let cold = Session::from_setup(setup.clone())
            .with_result_cache(persistent_cache(dir))
            .execute(&app);
        let warm = Session::from_setup(setup)
            .with_result_cache(persistent_cache(dir))
            .execute(&app);
        assert_eq!(
            warm.runs_executed(),
            0,
            "corpus scenario {index}: a warm campaign over a populated store must execute nothing"
        );
        assert_eq!(
            campaign_verdicts(&scenario.id, &cold),
            campaign_verdicts(&scenario.id, &warm),
            "corpus scenario {index}: warm verdicts must be byte-identical to live execution"
        );
        injected += cold.injected();
    }
    injected
}

/// Measures the cold (execute + persist) suite against the warm
/// (replay-from-disk) suite over the same store directory, asserts the
/// replay-correctness gates, and writes `BENCH_store.json`.
fn emit_store_bench_json() {
    let dir = fresh_store_dir("suite");

    // Deterministic passes, outside the timed region. Two independent
    // persistent handles = the two-process shape.
    let cold_cache = persistent_cache(&dir);
    let (cold, manifest) = experiments::suite_with_cache(cold_cache.clone());
    manifest.write_to(&dir).expect("the campaign manifest writes");
    let warm_cache = persistent_cache(&dir);
    let (warm, warm_manifest) = experiments::suite_with_cache(warm_cache.clone());

    assert_eq!(
        warm.total_runs_executed(),
        0,
        "the warm suite must replay every job from the store"
    );
    assert_eq!(cold.total_injected(), warm.total_injected());
    assert_eq!(cold.total_violated(), warm.total_violated());
    assert_eq!(
        suite_verdicts(&cold),
        suite_verdicts(&warm),
        "warm suite verdicts must be byte-identical to live execution"
    );
    assert_eq!(
        manifest, warm_manifest,
        "the campaign manifest must be reproducible from a warm run"
    );
    let warm_store_hits = warm_cache.stats().store_hits;
    assert!(
        warm_store_hits > 0,
        "the warm pass must be served by the persistent backend, not process memory"
    );

    // The manifest must account for every store key it promises.
    let store = DiskStore::open(&dir).expect("the populated store re-opens");
    let check = manifest.verify(&store);
    assert!(
        check.is_complete(),
        "the cold manifest must verify complete against the store ({} missing)",
        check.missing.len()
    );
    let entries = store.stats().entries;
    drop(store);

    // Timed region: each cold sample starts from an empty directory; each
    // warm sample opens a fresh handle over the populated one.
    let samples = 9;
    let cold_ns = median_ns(samples, || {
        let d = fresh_store_dir("suite-cold");
        let (report, m) = experiments::suite_with_cache(persistent_cache(&d));
        let _ = m.write_to(&d);
        report.total_runs_executed()
    });
    let warm_ns = median_ns(samples, || {
        experiments::suite_with_cache(persistent_cache(&dir))
            .0
            .total_runs_executed()
    });
    let memory_ns = median_ns(samples, || {
        experiments::suite_with_cache(ResultCache::new())
            .0
            .total_runs_executed()
    });
    let speedup = cold_ns as f64 / warm_ns.max(1) as f64;

    let corpus_scenarios = 8;
    let corpus_dir = fresh_store_dir("corpus");
    let corpus_injected = replay_randomized_worlds(&corpus_dir, corpus_scenarios);

    let json = format!(
        "{{\n  \"bench\": \"store\",\n  \"suite_apps\": {},\n  \"samples\": {samples},\n  \
         \"cold_suite_ns\": {cold_ns},\n  \"warm_suite_ns\": {warm_ns},\n  \"memory_suite_ns\": {memory_ns},\n  \
         \"cold_over_warm\": {speedup:.2},\n  \"cold_runs_executed\": {},\n  \
         \"warm_runs_executed\": {},\n  \"warm_store_hits\": {warm_store_hits},\n  \
         \"store_entries\": {entries},\n  \"manifest_keys\": {},\n  \
         \"verdict_sets_identical\": true,\n  \"manifest_complete\": true,\n  \
         \"corpus_scenarios\": {corpus_scenarios},\n  \"corpus_injected\": {corpus_injected},\n  \
         \"corpus_warm_runs_executed\": 0\n}}\n",
        cold.reports.len(),
        cold.total_runs_executed(),
        warm.total_runs_executed(),
        manifest.store_keys(),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_store.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "wrote {} (warm replay {speedup:.2}x faster than cold; {warm_store_hits} disk replays, {entries} entries)",
            path.display()
        ),
        Err(e) => eprintln!("BENCH_store.json not written: {e}"),
    }

    // The wall-clock gate: replaying a suite from the store must beat
    // re-executing it, or persistence is pure overhead.
    assert!(
        warm_ns < cold_ns,
        "warm suite replay must be faster than cold execution \
         (warm {warm_ns}ns >= cold {cold_ns}ns)"
    );
    // It must also beat re-executing with no store at all: a replay slower
    // than the runs it saves costs more than it saves.
    assert!(
        warm_ns < memory_ns,
        "warm suite replay must be faster than in-memory execution \
         (warm {warm_ns}ns >= memory {memory_ns}ns)"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(fresh_store_dir("suite-cold"));
    let _ = std::fs::remove_dir_all(&corpus_dir);
}

fn main() {
    emit_store_bench_json();
}
