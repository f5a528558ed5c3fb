//! Integration: the work-stealing executor every campaign runs on — thread
//! ceiling, deterministic reassembly, and agreement with the one-worker
//! path.
//!
//! The pool's worker gauge is process-global, so every test in this binary
//! that runs a pool takes `POOL_LOCK` first; the ceiling assertions then
//! observe only their own run.

use std::sync::Mutex;

use epa::apps::{standard_suite, standard_suite_with_options};
use epa::core::campaign::CampaignOptions;
use epa::core::engine::executor;
use epa::core::engine::{Suite, SuiteEvent, SuiteReport};

static POOL_LOCK: Mutex<()> = Mutex::new(());

fn available() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZero::get)
}

#[test]
fn pooled_suite_live_threads_never_exceed_available_parallelism() {
    let _guard = POOL_LOCK.lock().unwrap();
    executor::reset_peak_live_workers();
    let report = standard_suite().expect("valid specs").execute();
    assert_eq!(report.reports.len(), 8);
    // The calling thread is worker 0 of the expanding pool and enters the
    // gauge while it works, so the peak is the total number of live pool
    // threads, the caller included.
    let peak = executor::peak_live_workers();
    assert!(
        peak <= available(),
        "suite execution kept {peak} threads live on {} cores",
        available()
    );
}

#[test]
fn pooled_suite_reports_are_byte_identical_to_sequential() {
    let _guard = POOL_LOCK.lock().unwrap();
    let pooled = standard_suite().expect("valid specs").execute();
    let sequential = standard_suite().expect("valid specs").with_workers(1).execute();
    assert_eq!(pooled, sequential);
    let pooled_json = serde_json::to_string(&pooled).expect("serialize");
    let sequential_json = serde_json::to_string(&sequential).expect("serialize");
    assert_eq!(
        pooled_json.as_bytes(),
        sequential_json.as_bytes(),
        "pooled and sequential suite reports must serialize byte-identically"
    );
}

#[test]
fn pinned_worker_counts_reassemble_byte_identical_reports() {
    let _guard = POOL_LOCK.lock().unwrap();
    // The sharded queue's determinism contract on the full workload: the
    // standard suite pinned to 1, 4 and 8 workers must reproduce the
    // sequential report byte-for-byte, and the pinned counts must bound
    // the worker high-water regardless of the hardware.
    let sequential = standard_suite().expect("valid specs").with_workers(1).execute();
    let sequential_json = serde_json::to_string(&sequential).expect("serialize");
    for workers in [1usize, 4, 8] {
        executor::reset_peak_live_workers();
        let pooled = standard_suite().expect("valid specs").with_workers(workers).execute();
        let peak = executor::peak_live_workers();
        assert!(
            peak <= workers,
            "suite pinned to {workers} workers recorded a {peak} high-water"
        );
        assert_eq!(pooled, sequential, "suite at {workers} pinned workers diverged");
        assert_eq!(
            serde_json::to_string(&pooled).expect("serialize").as_bytes(),
            sequential_json.as_bytes(),
            "suite at {workers} pinned workers must serialize byte-identically to sequential"
        );
    }
}

/// Every `SuiteEvent::Record` a run streams, as sorted `(app, record)`
/// JSON pairs: the stream's multiset, independent of completion order.
fn streamed_records(suite: &Suite) -> (SuiteReport, Vec<(String, String)>) {
    let mut streamed = Vec::new();
    let report = suite.execute_with(&mut |event| {
        if let SuiteEvent::Record { app, record } = event {
            streamed.push((app, serde_json::to_string(&record).expect("serialize")));
        }
    });
    streamed.sort();
    (report, streamed)
}

#[test]
fn reports_and_record_streams_match_sequential_at_every_worker_count() {
    let _guard = POOL_LOCK.lock().unwrap();
    for dedup in [true, false] {
        let suite = || {
            standard_suite_with_options(CampaignOptions {
                dedup,
                ..CampaignOptions::default()
            })
            .expect("valid specs")
        };
        let (sequential, sequential_stream) = streamed_records(&suite().with_workers(1));
        assert_eq!(
            sequential_stream.len(),
            245,
            "dedup={dedup}: one streamed record per planned job"
        );
        for workers in [1usize, 2, 3, 8] {
            let (pooled, pooled_stream) = streamed_records(&suite().with_workers(workers));
            assert_eq!(pooled, sequential, "dedup={dedup}, {workers} workers: report diverged");
            assert_eq!(
                pooled_stream, sequential_stream,
                "dedup={dedup}, {workers} workers: streamed records diverged"
            );
        }
    }
}

#[test]
fn a_forced_multi_worker_pool_still_reassembles_plan_order() {
    let _guard = POOL_LOCK.lock().unwrap();
    // Even above the hardware ceiling (this is the machinery test, not the
    // suite ceiling test), a session's records come back in plan order.
    use epa::apps::{turnin, Turnin};
    use epa::core::engine::Session;
    let session = Session::new(&turnin::spec()).expect("valid spec");
    let plan_order: Vec<String> = session
        .plan(&Turnin)
        .jobs()
        .iter()
        .map(|job| format!("{}#{}#{}", job.site, job.occurrence, job.fault.id))
        .collect();
    let mut streamed = 0usize;
    let report = session
        .with_options(CampaignOptions {
            workers: Some(4),
            ..Default::default()
        })
        .execute_streaming(&Turnin, &mut |_| streamed += 1);
    let report_order: Vec<String> = report
        .records
        .iter()
        .map(|r| format!("{}#{}#{}", r.site, r.occurrence, r.fault_id))
        .collect();
    assert_eq!(streamed, plan_order.len());
    assert_eq!(report_order, plan_order);
}

#[test]
fn campaign_parallelism_also_respects_the_ceiling() {
    let _guard = POOL_LOCK.lock().unwrap();
    executor::reset_peak_live_workers();
    use epa::apps::{turnin, Turnin};
    use epa::core::engine::Session;
    let report = Session::new(&turnin::spec())
        .expect("valid spec")
        .with_options(CampaignOptions {
            workers: Some(available()),
            ..Default::default()
        })
        .execute(&Turnin);
    assert_eq!(report.injected(), 41);
    assert!(
        executor::peak_live_workers() <= available(),
        "campaign pool exceeded available_parallelism"
    );
}
