//! Integration: the ordered map every campaign runs on — input order,
//! exactly-once items, the thread ceiling, and agreement with the
//! one-worker path.
//!
//! The pool's worker gauge is process-global, so every test in this binary
//! that runs a pool takes `POOL_LOCK` first; the ceiling assertions then
//! observe only their own run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;

use epa::apps::{standard_apps, standard_suite, BoxedApp};
use epa::core::engine::executor;
use epa::core::engine::{Executor, Session, Suite};
use epa::sandbox::app::Application;
use epa::sandbox::os::Os;
use epa::sandbox::process::Pid;

static POOL_LOCK: Mutex<()> = Mutex::new(());

/// Takes `POOL_LOCK`, even after a failed test poisoned it, so one failure
/// is reported once rather than in every later test.
fn pool_lock() -> MutexGuard<'static, ()> {
    POOL_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn available() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZero::get)
}

#[test]
fn map_returns_results_in_input_order_and_runs_every_item_once() {
    let _guard = pool_lock();
    for workers in [1usize, 2, 4] {
        let runs: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let results = Executor::with_workers(workers).map((0..100).collect(), |i: usize| {
            runs[i].fetch_add(1, Ordering::SeqCst);
            i * i
        });
        assert_eq!(
            results,
            (0..100).map(|i| i * i).collect::<Vec<_>>(),
            "{workers} workers"
        );
        assert!(
            runs.iter().all(|count| count.load(Ordering::SeqCst) == 1),
            "{workers} workers: an item ran other than once"
        );
    }
}

#[test]
fn zero_and_one_item_run_inline() {
    let _guard = pool_lock();
    let caller = std::thread::current().id();
    executor::reset_peak_live_workers();
    let none = Executor::with_workers(4).map(Vec::new(), |i: usize| i);
    assert!(none.is_empty());
    let one = Executor::with_workers(4).map(vec![7usize], |i| (i, std::thread::current().id()));
    assert_eq!(one, vec![(7, caller)], "one item runs on the calling thread");
    assert_eq!(executor::peak_live_workers(), 0, "an inline map counts no worker");
}

#[test]
fn a_two_worker_map_peaks_at_exactly_two_live_workers() {
    let _guard = pool_lock();
    // The caller counts from before it spawns its one worker until the
    // join, so the spawned worker always overlaps it.
    executor::reset_peak_live_workers();
    let results = Executor::with_workers(2).map(vec![1usize, 2], |i| i);
    assert_eq!(results, vec![1, 2]);
    assert_eq!(executor::peak_live_workers(), 2);
}

#[test]
fn pooled_suite_live_threads_never_exceed_available_parallelism() {
    let _guard = pool_lock();
    executor::reset_peak_live_workers();
    let report = standard_suite().expect("valid specs").execute();
    assert_eq!(report.reports.len(), 8);
    // The calling thread is worker 0 of the map and enters the gauge
    // while it works, so the peak is the total number of live pool
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
    let _guard = pool_lock();
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
    let _guard = pool_lock();
    // The map's determinism contract on the full workload: the
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
    let _guard = pool_lock();
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
    let _guard = pool_lock();
    // Even above the hardware ceiling (this is the machinery test, not the
    // suite ceiling test), a campaign's records come back in plan order.
    // A map never has more workers than items, so four campaigns fill
    // all four.
    use epa::apps::{turnin, Turnin};
    let session = Session::new(&turnin::spec()).expect("valid spec");
    let plan_order: Vec<String> = session
        .plan(&Turnin)
        .jobs()
        .iter()
        .map(|job| format!("{}#{}#{}", job.site, job.occurrence, job.fault.id))
        .collect();
    let mut suite = Suite::new().with_workers(4);
    for _ in 0..4 {
        suite.register_session(Turnin, session.clone());
    }
    for report in suite.execute().reports {
        let report_order: Vec<String> = report
            .records
            .iter()
            .map(|r| format!("{}#{}#{}", r.site, r.occurrence, r.fault_id))
            .collect();
        assert_eq!(report_order, plan_order);
    }
}

/// A standard application that notes the thread every one of its runs
/// executes on.
struct ThreadNoting {
    inner: BoxedApp,
    threads: Arc<Mutex<Vec<ThreadId>>>,
}

impl Application for ThreadNoting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        self.threads.lock().unwrap().push(std::thread::current().id());
        self.inner.run(os, pid)
    }
}

#[test]
fn each_campaign_runs_on_one_worker() {
    let _guard = pool_lock();
    // The campaign is the pool's unit of work: its clean run and every
    // injected run execute on the thread that took it, while the suite's
    // eight campaigns spread over the workers.
    for workers in [2usize, 4] {
        let mut suite = Suite::new().with_workers(workers);
        let mut noted = Vec::new();
        for (app, spec) in standard_apps() {
            let threads = Arc::new(Mutex::new(Vec::new()));
            noted.push(Arc::clone(&threads));
            let session = Session::new(&spec).expect("valid specs");
            suite.register_session(ThreadNoting { inner: app, threads }, session);
        }
        let report = suite.execute();
        assert_eq!(report.reports.len(), 8);
        for (campaign, threads) in report.reports.iter().zip(&noted) {
            let threads = threads.lock().unwrap();
            assert_eq!(
                threads.len(),
                1 + campaign.injected(),
                "{workers} workers, {}: one clean run plus every injected run",
                campaign.app
            );
            assert!(
                threads.iter().all(|&id| id == threads[0]),
                "{workers} workers, {}: runs spread over {} threads",
                campaign.app,
                threads.iter().collect::<std::collections::HashSet<_>>().len()
            );
        }
    }
}

#[test]
fn a_one_campaign_suite_runs_inline() {
    let _guard = pool_lock();
    // A map never has more workers than items: asked for four, a
    // one-campaign suite runs on the calling thread and spawns none.
    let (app, spec) = standard_apps().swap_remove(1);
    let threads = Arc::new(Mutex::new(Vec::new()));
    let mut suite = Suite::new().with_workers(4);
    let session = Session::new(&spec).expect("valid specs");
    suite.register_session(
        ThreadNoting {
            inner: app,
            threads: Arc::clone(&threads),
        },
        session,
    );
    executor::reset_peak_live_workers();
    let report = suite.execute();
    assert_eq!(executor::peak_live_workers(), 0, "an inline pool counts no worker");
    let threads = threads.lock().unwrap();
    assert_eq!(threads.len(), 1 + report.total_injected());
    assert!(threads.iter().all(|&id| id == std::thread::current().id()));
}
