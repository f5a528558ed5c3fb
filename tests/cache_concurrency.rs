//! Concurrency test: one [`ResultCache`] shared by two simultaneous suites.
//!
//! Two threads execute the *same* two-campaign suite at the same time over
//! one shared cache. The claim protocol must guarantee (a) no `(setup
//! fingerprint, FaultKey)` pair is ever executed twice — across both
//! threads, the total number of executed runs equals one cold suite's —
//! and (b) every replayed record is byte-identical (minus the replay flag)
//! to the verdicts of an exhaustive cache-free run.

use epa::apps::ScriptedApp;
use epa::core::corpus::{synthesize_one, DEFAULT_CORPUS_SEED};
use epa::core::engine::planner::{Claim, FaultKey, ResultCache, RunDigest};
use epa::core::engine::{Session, Suite};
use epa::core::report::CampaignReport;

/// The two corpus worlds the racing suites run (fixed indices so the test
/// is deterministic; both provoke injectable sites).
const INDICES: [usize; 2] = [3, 5];

/// Strips the replay flag so replayed and executed twins compare equal.
fn executed_view(report: &CampaignReport) -> CampaignReport {
    let mut stripped = report.clone();
    for r in &mut stripped.records {
        r.cache_hit = false;
    }
    stripped
}

/// Builds the standard racing suite: both corpus apps, one worker within
/// the thread (the race under test is *between* threads, on the cache).
fn build_suite(cache: &ResultCache) -> Suite {
    let mut suite = Suite::new().with_result_cache(cache.clone()).with_workers(1);
    for index in INDICES {
        let scenario = synthesize_one(DEFAULT_CORPUS_SEED, index);
        let setup = scenario.spec.materialize().expect("corpus worlds materialize");
        suite.register_session(ScriptedApp::for_scenario(&scenario), Session::from_setup(setup));
    }
    suite
}

/// The same registrations pinned to an explicit pooled worker count —
/// what the sharded-queue determinism test drives at 1/4/8 workers.
fn build_pooled_suite(workers: usize) -> Suite {
    let mut suite = Suite::new().with_result_cache(ResultCache::new()).with_workers(workers);
    for index in INDICES {
        let scenario = synthesize_one(DEFAULT_CORPUS_SEED, index);
        let setup = scenario.spec.materialize().expect("corpus worlds materialize");
        suite.register_session(ScriptedApp::for_scenario(&scenario), Session::from_setup(setup));
    }
    suite
}

#[test]
fn pinned_worker_pools_stay_byte_identical_to_sequential() {
    // The executor's map must return plan order regardless of how many
    // workers raced for the next campaign: the full report — records,
    // replay flags, verdicts — serializes byte-identically to sequential.
    let sequential = build_suite(&ResultCache::new()).execute();
    let sequential_json = serde_json::to_string(&sequential).expect("serialize");
    for workers in [1usize, 4, 8] {
        let pooled = build_pooled_suite(workers).execute();
        assert_eq!(pooled, sequential, "suite at {workers} pinned workers diverged");
        let pooled_json = serde_json::to_string(&pooled).expect("serialize");
        assert_eq!(
            pooled_json.as_bytes(),
            sequential_json.as_bytes(),
            "suite at {workers} pinned workers must serialize byte-identically to sequential"
        );
    }
}

#[test]
fn panicking_job_neither_strands_waiters_nor_poisons_the_shared_cache() {
    // Regression test for worker-panic liveness: a claimant whose job
    // panics drops its token during the unwind, which both abandons the
    // claim *and* poisons the cache's internal mutex (the token's drop
    // holds the lock while the thread is panicking). Before the cache
    // tolerated poisoning, every later suite sharing this cache died on
    // `lock().unwrap()`; before abandoned claims woke waiters, a suite
    // blocked on the same key hung forever.
    let shared = ResultCache::new();
    let key = FaultKey::synthetic("panicky-site#0|-|{}");
    const SCOPE: u64 = 7;

    let claimant = std::thread::spawn({
        let shared = shared.clone();
        let key = key.clone();
        move || {
            let Claim::Execute(_token) = shared.begin(SCOPE, &key) else {
                panic!("the first claimant must win the claim");
            };
            panic!("injected job panic (expected; the token drops mid-unwind)");
        }
    });
    assert!(claimant.join().is_err(), "the claimant thread must have panicked");

    // Liveness: the abandoned claim is immediately reclaimable, and the
    // reclaimed slot settles into a replayable digest as usual.
    let Claim::Execute(token) = shared.begin(SCOPE, &key) else {
        panic!("an abandoned claim must be reclaimable, not stuck Pending");
    };
    token.fulfill(RunDigest {
        applied: true,
        exit: Some(0),
        crashed: None,
        audit_events: 0,
        violations: Vec::new(),
    });
    assert!(
        matches!(shared.begin(SCOPE, &key), Claim::Replay(_)),
        "the rescued slot must replay"
    );

    // The poisoned cache must still drive full racing suites to
    // completion, with verdicts identical to a cold run's.
    let cold = build_suite(&ResultCache::new()).execute();
    let (a, b) = std::thread::scope(|scope| {
        let ta = scope.spawn(|| build_suite(&shared).execute());
        let tb = scope.spawn(|| build_suite(&shared).execute());
        (ta.join().expect("suite thread A"), tb.join().expect("suite thread B"))
    });
    for (label, report) in [("A", &a), ("B", &b)] {
        assert_eq!(report.reports.len(), cold.reports.len());
        for (got, want) in report.reports.iter().zip(&cold.reports) {
            assert_eq!(
                executed_view(got),
                executed_view(want),
                "suite {label} over the poisoned cache diverged from the cold run"
            );
        }
    }
}

#[test]
fn simultaneous_suites_share_one_cache_without_duplicate_executions() {
    // Exhaustive cache-free baseline: the verdict set every path must find.
    let exhaustive: Vec<CampaignReport> = INDICES
        .iter()
        .map(|&index| {
            let scenario = synthesize_one(DEFAULT_CORPUS_SEED, index);
            let setup = scenario.spec.materialize().unwrap();
            Session::from_setup(setup).execute(&ScriptedApp::for_scenario(&scenario))
        })
        .collect();
    let injected: usize = exhaustive.iter().map(CampaignReport::injected).sum();
    assert!(injected > 0, "the corpus worlds must provoke injectable sites");

    // Cold single-threaded suite: the canonical execution count.
    let cold = build_suite(&ResultCache::new()).execute();
    let cold_runs: usize = cold.reports.iter().map(CampaignReport::runs_executed).sum();
    assert!(cold_runs > 0);

    // The race: two identical suites, one cache, simultaneous execution.
    let shared = ResultCache::new();
    let (a, b) = std::thread::scope(|scope| {
        let ta = scope.spawn(|| build_suite(&shared).execute());
        let tb = scope.spawn(|| build_suite(&shared).execute());
        (ta.join().expect("suite thread A"), tb.join().expect("suite thread B"))
    });

    // (a) No duplicate executions: each (fingerprint, FaultKey) ran exactly
    // once across both threads, so the executed-run totals sum to one cold
    // suite's worth — the claim protocol parked the loser of every race.
    let runs_a: usize = a.reports.iter().map(CampaignReport::runs_executed).sum();
    let runs_b: usize = b.reports.iter().map(CampaignReport::runs_executed).sum();
    assert_eq!(
        runs_a + runs_b,
        cold_runs,
        "racing suites re-executed a cached run (A={runs_a}, B={runs_b}, cold={cold_runs})"
    );
    let hits: usize = a.reports.iter().chain(&b.reports).map(CampaignReport::cache_hits).sum();
    let pruned: usize = a.reports.iter().chain(&b.reports).map(CampaignReport::pruned).sum();
    assert_eq!(
        runs_a + runs_b + hits + pruned,
        2 * injected,
        "every planned run is accounted for"
    );

    // (b) Byte-identical verdicts: both racing suites reproduce the
    // exhaustive cache-free reports exactly, replay flag aside.
    for (label, report) in [("A", &a), ("B", &b)] {
        assert_eq!(report.reports.len(), exhaustive.len());
        for (got, want) in report.reports.iter().zip(&exhaustive) {
            assert_eq!(
                &executed_view(got),
                want,
                "thread {label} diverged from the exhaustive baseline"
            );
        }
    }
}
