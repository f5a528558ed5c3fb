//! The engine's work pool: one ordered map over a shared next index, its
//! worker count bounded by the hardware (overridable via `EPA_WORKERS`).
//!
//! [`Executor::map`] is the pool's one entry point. The engine's driver
//! ([`crate::engine::Suite`], or a [`crate::engine::Session`] as a one-app
//! suite) maps each campaign to its plan-ordered records, and the corpus
//! sweep ([`crate::corpus::run_corpus`]) maps each scenario to its
//! differential outcome. Workers take items through one atomic next index,
//! so every item runs exactly once, start to finish, on the thread that
//! took it. The calling thread is worker 0: it spawns `workers - 1`
//! threads and takes items beside them, so a pool of `workers` puts at
//! most `workers` threads on the machine, and one worker runs everything
//! inline. Results come back in input order, which keeps reports
//! byte-identical at every worker count.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use shim_sync::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use shim_sync::sync::Mutex;
use shim_sync::thread;

/// Live worker-thread gauge (process-wide, across all executors).
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE_WORKERS`] since the last reset.
static PEAK_WORKERS: AtomicUsize = AtomicUsize::new(0);
/// Set once a malformed `EPA_WORKERS` has been reported, so the warning
/// prints once per process rather than once per pool.
static WARNED_WORKERS: AtomicBool = AtomicBool::new(false);

/// The highest number of executor worker threads that were alive at the
/// same moment since the last [`reset_peak_live_workers`] — the observable
/// proof that pooled execution respects the hardware ceiling. The calling
/// thread of [`Executor::map`] counts as a worker from before it spawns
/// the others until they have joined, so this is the total number of live
/// pool threads, caller included: a two-worker map peaks at exactly 2. A
/// map that runs inline (one worker, or at most one item) is not counted.
pub fn peak_live_workers() -> usize {
    PEAK_WORKERS.load(Ordering::SeqCst)
}

/// Resets the peak gauge (call before the run you want to measure).
pub fn reset_peak_live_workers() {
    PEAK_WORKERS.store(LIVE_WORKERS.load(Ordering::SeqCst), Ordering::SeqCst);
}

/// RAII guard bumping the worker gauges for the lifetime of a worker.
struct WorkerGauge;

impl WorkerGauge {
    fn enter() -> WorkerGauge {
        let live = LIVE_WORKERS.fetch_add(1, Ordering::SeqCst) + 1;
        PEAK_WORKERS.fetch_max(live, Ordering::SeqCst);
        WorkerGauge
    }
}

impl Drop for WorkerGauge {
    fn drop(&mut self) {
        LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A bounded pool that maps a list of items to their results, in input
/// order. With one worker, or at most one item, it runs inline on the
/// calling thread and spawns nothing.
#[derive(Debug, Clone)]
pub struct Executor {
    workers: usize,
}

impl Default for Executor {
    fn default() -> Executor {
        Executor::new()
    }
}

impl Executor {
    /// A pool sized to the hardware (`available_parallelism` workers),
    /// unless the `EPA_WORKERS` environment variable overrides the count
    /// (benches and CI use it to measure fixed worker counts on arbitrary
    /// hardware). Malformed or absurd overrides are clamped to
    /// `1..=available_parallelism * 4` with a warning on stderr rather
    /// than silently ignored. The variable is re-read on every call; the
    /// warning prints at most once per process.
    pub fn new() -> Executor {
        let hw = thread::available_parallelism().map_or(4, std::num::NonZero::get);
        let raw = std::env::var("EPA_WORKERS").ok();
        let (workers, warning) = parse_workers(raw.as_deref(), hw);
        if let Some(warning) = warning {
            if !WARNED_WORKERS.swap(true, Ordering::SeqCst) {
                eprintln!("epa: {warning}");
            }
        }
        Executor::with_workers(workers)
    }

    /// A pool with an explicit worker ceiling (clamped to at least 1).
    pub fn with_workers(workers: usize) -> Executor {
        Executor {
            workers: workers.max(1),
        }
    }

    /// The worker ceiling.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item and returns the results in input order.
    ///
    /// Runs on `workers.min(items.len())` threads, the calling thread being
    /// worker 0: it spawns the others and takes items beside them, each
    /// thread taking the next index from one shared counter until the
    /// items run out. One thread runs every item inline, in order.
    ///
    /// A panicking item stops every worker from taking another item; the
    /// items already running finish, and the first panic (in worker
    /// order) is re-raised on the calling thread once the scope has
    /// joined.
    pub fn map<J, T, F>(&self, items: Vec<J>, f: F) -> Vec<T>
    where
        J: Send,
        T: Send,
        F: Fn(J) -> T + Sync,
    {
        let workers = self.workers.min(items.len());
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }
        let slots: Vec<Mutex<Option<J>>> = items.into_iter().map(|item| Mutex::new(Some(item))).collect();
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        // One worker's share: `(index, result)` pairs, or the panic that
        // stopped it.
        let work = || -> Result<Vec<(usize, T)>, Box<dyn Any + Send>> {
            let mut done = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(slot) = slots.get(i) else { break };
                let item = slot.lock().expect("item slot").take().expect("an index is taken once");
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(result) => done.push((i, result)),
                    Err(payload) => {
                        stop.store(true, Ordering::SeqCst);
                        return Err(payload);
                    }
                }
            }
            Ok(done)
        };
        let _gauge = WorkerGauge::enter();
        let shares = thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let _gauge = WorkerGauge::enter();
                        work()
                    })
                })
                .collect();
            let mut shares = vec![work()];
            shares.extend(spawned.into_iter().map(|h| h.join().unwrap_or_else(Err)));
            shares
        });
        let mut results = Vec::with_capacity(slots.len());
        for share in shares {
            results.extend(share.unwrap_or_else(|payload| resume_unwind(payload)));
        }
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, result)| result).collect()
    }

    /// Runs `seed` and every follow-up job in rounds of [`Executor::map`]:
    /// each round's results go to `on_done` in input order, and the
    /// follow-ups it returns form the next round.
    ///
    /// No engine path calls it. It stays only so the benchmark harness
    /// (`perfbench/`) builds unchanged, and it goes with
    /// [`crate::campaign::CampaignOptions::dedup`] and `plan_budget` in the
    /// benchmark change of ROADMAP item 4.
    pub fn run_expanding<J, T, F>(&self, seed: Vec<J>, step: F, on_done: &mut dyn FnMut(T) -> Vec<J>)
    where
        J: Send,
        T: Send,
        F: Fn(J) -> T + Sync,
    {
        let mut round = seed;
        while !round.is_empty() {
            round = self.map(round, &step).into_iter().flat_map(&mut *on_done).collect();
        }
    }
}

/// Parses and validates an `EPA_WORKERS` override against the hardware.
///
/// Accepted values are integers in `1..=hw * 4` (the 4x headroom covers
/// oversubscription experiments without letting a typo spawn thousands
/// of threads). Out-of-range values clamp to the nearest bound and
/// non-numeric values fall back to `hw`; both return a warning for the
/// caller to surface.
fn parse_workers(raw: Option<&str>, hw: usize) -> (usize, Option<String>) {
    let ceiling = hw.saturating_mul(4).max(1);
    let Some(raw) = raw else {
        return (hw, None);
    };
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => (
            1,
            Some("EPA_WORKERS=0 is not a usable worker count; clamped to 1".into()),
        ),
        Ok(n) if n > ceiling => (
            ceiling,
            Some(format!(
                "EPA_WORKERS={n} exceeds 4x available parallelism ({hw}); clamped to {ceiling}"
            )),
        ),
        Ok(n) => (n, None),
        Err(_) => (
            hw,
            Some(format!(
                "EPA_WORKERS={trimmed:?} is not a positive integer; using {hw} workers"
            )),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn run_expanding_runs_follow_ups_to_completion() {
        // Seed jobs expand into 3 children each; children expand into none.
        for workers in [1, 3] {
            let pool = Executor::with_workers(workers);
            let mut seen: Vec<(usize, bool)> = Vec::new();
            pool.run_expanding(
                vec![(0usize, true), (1, true)],
                |job: (usize, bool)| job,
                &mut |(id, is_seed)| {
                    seen.push((id, is_seed));
                    if is_seed {
                        (0..3).map(|k| (id * 10 + k, false)).collect()
                    } else {
                        Vec::new()
                    }
                },
            );
            // Each round reaches the callback in input order.
            let expected = [
                (0, true),
                (1, true),
                (0, false),
                (1, false),
                (2, false),
                (10, false),
                (11, false),
                (12, false),
            ];
            assert_eq!(seen, expected, "{workers} workers");
        }
    }

    #[test]
    fn map_reraises_an_item_panic_after_the_join() {
        for workers in [1usize, 2, 3] {
            let caught = std::panic::catch_unwind(|| {
                Executor::with_workers(workers).map(vec![0usize, 1, 2, 3], |item| {
                    assert_ne!(item, 2, "deliberate item panic");
                    item
                })
            });
            assert!(caught.is_err(), "{workers} workers: the panic must propagate");
        }
        // At 2 workers, force the panic onto each thread in turn: each
        // thread's first item waits (bounded) until both threads hold one,
        // then the item on the chosen thread panics and the other waits
        // out the panic. No later item may start: both threads stop taking
        // items once the panic is seen.
        let wait_for = |done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !done() && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
        };
        let caller = thread::current().id();
        for on_caller in [true, false] {
            let started: Vec<AtomicBool> = (0..16).map(|_| AtomicBool::new(false)).collect();
            let holding = AtomicUsize::new(0);
            let panicked = AtomicBool::new(false);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Executor::with_workers(2).map((0..16).collect(), |item: usize| {
                    started[item].store(true, Ordering::SeqCst);
                    holding.fetch_add(1, Ordering::SeqCst);
                    wait_for(&|| holding.load(Ordering::SeqCst) >= 2);
                    if (thread::current().id() == caller) == on_caller {
                        panicked.store(true, Ordering::SeqCst);
                        panic!("deliberate item panic");
                    }
                    wait_for(&|| panicked.load(Ordering::SeqCst));
                    // Let the panicking thread raise the stop flag.
                    thread::sleep(Duration::from_millis(100));
                })
            }));
            let thread = if on_caller { "calling thread" } else { "spawned worker" };
            assert!(caught.is_err(), "a panic on the {thread} must propagate");
            let late: Vec<usize> = (2..16).filter(|&i| started[i].load(Ordering::SeqCst)).collect();
            assert!(
                late.is_empty(),
                "panic on the {thread}: items {late:?} started after it"
            );
        }
    }

    #[test]
    fn epa_workers_parsing_clamps_and_warns() {
        // Unset: hardware count, no warning.
        assert_eq!(parse_workers(None, 8), (8, None));
        // Plain valid values pass through (whitespace tolerated).
        assert_eq!(parse_workers(Some("4"), 8), (4, None));
        assert_eq!(parse_workers(Some(" 32 "), 8), (32, None));
        // Zero clamps up to one worker.
        let (w, warn) = parse_workers(Some("0"), 8);
        assert_eq!(w, 1);
        assert!(warn.expect("warns").contains("clamped to 1"));
        // Absurd values clamp down to 4x the hardware.
        let (w, warn) = parse_workers(Some("1000000"), 8);
        assert_eq!(w, 32);
        assert!(warn.expect("warns").contains("clamped to 32"));
        // Non-numeric (including negatives, which `usize` rejects) falls
        // back to the hardware count with a warning.
        for bad in ["bananas", "-3", "2.5", ""] {
            let (w, warn) = parse_workers(Some(bad), 8);
            assert_eq!(w, 8, "input {bad:?}");
            assert!(warn.expect("warns").contains("not a positive integer"), "input {bad:?}");
        }
        // Degenerate hardware report still yields a sane ceiling.
        assert_eq!(
            parse_workers(Some("9"), 1),
            (
                4,
                Some("EPA_WORKERS=9 exceeds 4x available parallelism (1); clamped to 4".into())
            )
        );
    }

    #[test]
    fn worker_gauge_observes_spawned_workers() {
        // The gauge is process-global (other tests may run pools
        // concurrently), so only the lower bound is assertable here; the
        // exact peaks are pinned by the integration test
        // `tests/executor.rs`, which serializes its pool runs.
        reset_peak_live_workers();
        Executor::with_workers(2).map((0..32).collect(), |j: usize| j);
        assert!(peak_live_workers() >= 1, "workers never entered the gauge");
    }
}
