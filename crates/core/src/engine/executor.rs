//! The engine's work pool: sharded per-worker deques with a steal path,
//! worker count bounded by the hardware (overridable via `EPA_WORKERS`).
//!
//! [`Executor::run_expanding`] is the pool's one entry point, and every
//! campaign runs through it: the engine's driver
//! ([`crate::engine::Suite`], or a [`crate::engine::Session`] as a one-app
//! suite) seeds one scheduling job per campaign, and each completion may
//! enqueue follow-up jobs. Each worker owns a deque, pops its own front,
//! and steals from sibling tails when empty, so queue contention is
//! spread over `workers` locks instead of one. The calling thread is
//! worker 0: it spawns `workers - 1` threads and runs jobs itself whenever
//! no finished result is waiting, so a pool of `workers` puts at most
//! `workers` threads on the machine, and one worker runs everything
//! inline. Results stream back over an `mpsc` channel to the calling
//! thread (so callbacks need no `Sync`), where the driver reassembles
//! them into plan order by job index, keeping reports byte-identical at
//! every worker count.

use std::collections::VecDeque;

use shim_sync::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use shim_sync::sync::{mpsc, Condvar, Mutex};
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
/// thread of [`Executor::run_expanding`] counts as a worker while it works
/// the queue, so this is the total number of live pool threads, caller
/// included. A one-worker pool runs inline and is not counted.
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

/// The sharded job queue backing [`Executor::run_expanding`]: one deque
/// per worker plus a pool-wide pending count and sleep signal.
///
/// A worker pops the *front* of its own shard and steals from the *back*
/// of sibling shards, so under load each worker mostly touches its own
/// lock. `pending` counts queued-but-unclaimed jobs; it is decremented
/// inside the owning shard's critical section, which orders every
/// decrement before [`ShardedQueue::close`]'s final reset (close takes
/// each shard lock while draining).
pub(crate) struct ShardedQueue<J> {
    shards: Vec<Mutex<VecDeque<J>>>,
    pending: AtomicUsize,
    /// `true` once the pool is closed; the mutex also anchors the condvar
    /// sleep of idle workers.
    closed: Mutex<bool>,
    ready: Condvar,
}

impl<J> ShardedQueue<J> {
    pub(crate) fn new(workers: usize) -> ShardedQueue<J> {
        ShardedQueue {
            shards: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            closed: Mutex::new(false),
            ready: Condvar::new(),
        }
    }

    /// Distributes `jobs` round-robin across shards starting at `from`,
    /// then wakes every sleeping worker. Only the calling thread pushes,
    /// so distribution order is deterministic for a given completion order.
    ///
    /// Each job is counted into `pending` **inside the shard critical
    /// section that makes it poppable**. Counting after the push loop (as
    /// this method originally did) leaves a window where a stealing
    /// worker pops a not-yet-counted job while a sibling pops the counted
    /// one — two decrements against one increment underflows `pending`,
    /// and a worker whose `pending > 0` fast path short-circuits the
    /// `closed` check then spins forever past `close`, hanging
    /// [`Executor::run_expanding`] at scope join. Found by the
    /// model checker (`engine::modelcheck::check_expanding_reassembly`).
    pub(crate) fn push_many(&self, from: usize, jobs: Vec<J>) {
        if jobs.is_empty() {
            return;
        }
        for (k, job) in jobs.into_iter().enumerate() {
            let shard = (from + k) % self.shards.len();
            let mut guard = self.shards[shard].lock().expect("shard lock");
            guard.push_back(job);
            self.pending.fetch_add(1, Ordering::SeqCst);
            drop(guard);
        }
        // Empty critical section: pairs the wake-up with the sleep below
        // so a worker cannot check `pending`, miss this push, and then
        // sleep through the notify.
        drop(self.closed.lock().expect("queue lock"));
        self.ready.notify_all();
    }

    /// One pass over the shards: own front first, then sibling tails.
    /// Never blocks: `None` means every shard was empty when visited.
    pub(crate) fn try_pop(&self, worker: usize) -> Option<J> {
        let n = self.shards.len();
        for k in 0..n {
            let victim = (worker + k) % n;
            let mut shard = self.shards[victim].lock().expect("shard lock");
            let job = if k == 0 { shard.pop_front() } else { shard.pop_back() };
            if let Some(job) = job {
                // Decrement while still holding the shard lock (see the
                // struct docs for why this orders against `close`).
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }

    /// The blocking pop workers loop on: `None` means closed and empty.
    pub(crate) fn pop(&self, worker: usize) -> Option<J> {
        loop {
            if self.pending.load(Ordering::SeqCst) > 0 {
                if let Some(job) = self.try_pop(worker) {
                    return Some(job);
                }
                // Raced with a sibling for the last job; fall through to
                // the sleep check rather than spinning.
            }
            let mut closed = self.closed.lock().expect("queue lock");
            loop {
                if self.pending.load(Ordering::SeqCst) > 0 {
                    break;
                }
                if *closed {
                    return None;
                }
                closed = self.ready.wait(closed).expect("queue lock");
            }
        }
    }

    /// Closes the pool (optionally discarding queued jobs) and wakes every
    /// sleeper. Only the calling thread calls this, so the drain cannot
    /// race a concurrent push.
    pub(crate) fn close(&self, drain: bool) {
        if drain {
            for shard in &self.shards {
                shard.lock().expect("shard lock").clear();
            }
            self.pending.store(0, Ordering::SeqCst);
        }
        *self.closed.lock().expect("queue lock") = true;
        self.ready.notify_all();
    }
}

/// A bounded pool executing jobs from one shared queue: a **dynamic**
/// queue where completing a job may enqueue follow-up jobs (each
/// campaign's scheduling job fans out into its injected-run jobs); the
/// caller assembles results and works the queue as worker 0. With one
/// worker it runs inline on the calling thread — no threads are spawned.
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

    /// Executes an expanding queue: every completed job is handed to
    /// `on_done` on the calling thread, and whatever jobs `on_done` returns
    /// are pushed onto the shared queue for idle workers to steal.
    ///
    /// The calling thread is **worker 0**: it spawns `workers - 1` threads
    /// and works the queue itself between completions, so the pool never
    /// puts more than `workers` busy threads on the machine. Each turn of
    /// its loop first drains a finished result (`try_recv`); when none is
    /// waiting it pops and runs a job from its own shard (stealing like
    /// any worker); only with the queue empty does it block on `recv`.
    /// A panic in any step — the caller's own included — closes the pool
    /// and re-raises on the calling thread.
    ///
    /// Identity/ordering is the caller's concern — jobs and results carry
    /// their own indices (the engine's driver reassembles per-campaign
    /// reports in plan order from `(app, job)` indices).
    pub fn run_expanding<J, T, F>(&self, seed: Vec<J>, step: F, on_done: &mut dyn FnMut(T) -> Vec<J>)
    where
        J: Send,
        T: Send,
        F: Fn(J) -> T + Sync,
    {
        if self.workers <= 1 {
            let mut queue: VecDeque<J> = seed.into();
            while let Some(job) = queue.pop_front() {
                queue.extend(on_done(step(job)));
            }
            return;
        }
        let mut outstanding = seed.len();
        if outstanding == 0 {
            return;
        }
        let queue = ShardedQueue::new(self.workers);
        queue.push_many(0, seed);
        // Follow-up batches keep rotating through the shards so no worker
        // starves when completions cluster on one job's children.
        let mut next_shard = 0usize;
        // Steps run under `catch_unwind` on every thread: a silently dead
        // worker would leave its siblings asleep on the condvar and the
        // caller blocked on `recv` forever, so panics travel as results.
        let run = |job: J| std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| step(job)));
        thread::scope(|scope| {
            type Caught = Box<dyn std::any::Any + Send>;
            let (tx, rx) = mpsc::channel::<Result<T, Caught>>();
            for w in 1..self.workers {
                let tx = tx.clone();
                let queue = &queue;
                let run = &run;
                scope.spawn(move || {
                    let _gauge = WorkerGauge::enter();
                    while let Some(job) = queue.pop(w) {
                        let outcome = run(job);
                        let failed = outcome.is_err();
                        if tx.send(outcome).is_err() || failed {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            let _gauge = WorkerGauge::enter();
            while outstanding > 0 {
                let outcome = match rx.try_recv() {
                    Ok(outcome) => outcome,
                    Err(_) => match queue.try_pop(0) {
                        Some(job) => run(job),
                        None => rx.recv().expect("workers alive while jobs outstanding"),
                    },
                };
                let done = match outcome {
                    Ok(done) => done,
                    Err(payload) => {
                        // Wake and release every worker before re-raising,
                        // or the scope join below would deadlock.
                        queue.close(true);
                        std::panic::resume_unwind(payload);
                    }
                };
                outstanding -= 1;
                // The callback can panic too (it runs user code); release
                // the workers before letting it unwind.
                let follow_ups = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| on_done(done))) {
                    Ok(follow_ups) => follow_ups,
                    Err(payload) => {
                        queue.close(true);
                        std::panic::resume_unwind(payload);
                    }
                };
                if !follow_ups.is_empty() {
                    outstanding += follow_ups.len();
                    let count = follow_ups.len();
                    queue.push_many(next_shard, follow_ups);
                    next_shard = (next_shard + count) % self.workers;
                }
            }
            queue.close(false);
        });
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
    use shim_sync::sync::atomic::AtomicBool;

    #[test]
    fn expanding_queue_runs_follow_ups() {
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
            assert_eq!(seen.len(), 8, "2 seeds + 6 children");
            assert_eq!(seen.iter().filter(|(_, s)| *s).count(), 2);
        }
    }

    #[test]
    fn expanding_queue_propagates_panics_instead_of_hanging() {
        // A panicking step must surface as a panic of `run_expanding`
        // (with all workers released), never as a silent hang.
        for workers in [1usize, 3] {
            let pool = Executor::with_workers(workers);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run_expanding(
                    vec![0usize, 1, 2, 3],
                    |job| {
                        if job == 2 {
                            panic!("deliberate step panic");
                        }
                        job
                    },
                    &mut |_| Vec::new(),
                );
            }));
            assert!(caught.is_err(), "workers={workers}: the panic must propagate");
        }
        // At 2 workers the pool is the calling thread plus one spawned
        // worker: force the panic onto each in turn. The other thread's
        // steps wait (bounded) until the panicking thread has taken its
        // job, so the panic cannot be dodged by one thread draining the
        // queue alone.
        let caller = thread::current().id();
        for on_caller in [true, false] {
            let panicked = AtomicBool::new(false);
            let pool = Executor::with_workers(2);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run_expanding(
                    vec![0usize, 1, 2, 3],
                    |job| {
                        if (thread::current().id() == caller) == on_caller {
                            panicked.store(true, Ordering::SeqCst);
                            panic!("deliberate step panic");
                        }
                        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                        while !panicked.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
                            thread::sleep(std::time::Duration::from_millis(1));
                        }
                        job
                    },
                    &mut |_| Vec::new(),
                );
            }));
            assert!(
                caught.is_err(),
                "a step panic on the {} must propagate",
                if on_caller { "calling thread" } else { "spawned worker" }
            );
        }
        // A panicking completion callback likewise.
        let pool = Executor::with_workers(3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_expanding(vec![0usize, 1], |job| job, &mut |_| -> Vec<usize> {
                panic!("deliberate callback panic");
            });
        }));
        assert!(caught.is_err());
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
        // `<= available_parallelism` ceiling is pinned by the integration
        // test `tests/executor.rs`, which serializes its pool runs.
        reset_peak_live_workers();
        let pool = Executor::with_workers(2);
        pool.run_expanding((0..32).collect(), |j: usize| j, &mut |_| Vec::new());
        assert!(peak_live_workers() >= 1, "workers never entered the gauge");
    }
}
