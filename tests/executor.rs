//! Integration: the work-stealing executor every campaign runs on — thread
//! ceiling, deterministic reassembly, and agreement with the one-worker
//! path.
//!
//! The pool's worker gauge is process-global, so every test in this binary
//! that runs a pool takes `POOL_LOCK` first; the ceiling assertions then
//! observe only their own run.

use std::sync::Mutex;

use epa::apps::standard_suite;
use epa::core::engine::executor;
use epa::core::engine::Suite;

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

#[test]
fn reports_match_sequential_at_every_worker_count() {
    let _guard = POOL_LOCK.lock().unwrap();
    // 2 and 3 workers: counts the pinned 1/4/8 test above does not cover.
    let suite = || standard_suite().expect("valid specs");
    let sequential = suite().with_workers(1).execute();
    assert_eq!(sequential.total_injected(), 245, "one record per planned job");
    for workers in [1usize, 2, 3, 8] {
        let pooled = suite().with_workers(workers).execute();
        assert_eq!(pooled, sequential, "{workers} workers: report diverged");
    }
}

#[test]
fn a_forced_multi_worker_pool_still_reassembles_plan_order() {
    let _guard = POOL_LOCK.lock().unwrap();
    // Even above the hardware ceiling (this is the machinery test, not the
    // suite ceiling test), a campaign's records come back in plan order.
    use epa::apps::{turnin, Turnin};
    use epa::core::engine::Session;
    let session = Session::new(&turnin::spec()).expect("valid spec");
    let plan_order: Vec<String> = session
        .plan(&Turnin)
        .jobs()
        .iter()
        .map(|job| format!("{}#{}#{}", job.site, job.occurrence, job.fault.id))
        .collect();
    let mut suite = Suite::new().with_workers(4);
    suite.register_session(Turnin, session);
    let report = suite.execute().reports.remove(0);
    let report_order: Vec<String> = report
        .records
        .iter()
        .map(|r| format!("{}#{}#{}", r.site, r.occurrence, r.fault_id))
        .collect();
    assert_eq!(report_order, plan_order);
}
