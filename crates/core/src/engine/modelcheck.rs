//! Model-check fixtures for the engine's concurrency protocols
//! (`model-check` feature only).
//!
//! Each fixture wraps one protocol in a small closed scenario — 2–3
//! workers, 3–6 jobs — and hands it to the shim's cooperative scheduler
//! ([`shim_sync::model::check`]), which explores every interleaving
//! within the preemption bound. The *production* types are checked, not
//! copies: under the `model-check` feature [`ShardedQueue`],
//! [`ResultCache`], and [`Executor`] compile against the shim's model
//! personality, so the code paths explored here are byte-for-byte the
//! ones tier-1 builds run under `std`.
//!
//! Three **seeded mutants** accompany the real protocols as a mutation
//! gate for the checker itself (if the checker cannot kill a bug we
//! once shipped, its green runs mean nothing):
//!
//! * [`check_close_protocol_mutant`] re-introduces the pre-PR-8 close
//!   race: the queue's `pending` counter decremented *outside* the
//!   owning shard's critical section. A sibling that reads the stale
//!   count spins between "pending says there is work" and "every shard
//!   is empty" for as long as the popping worker stays preempted — the
//!   checker reports the livelock via its step bound.
//! * [`check_claim_protocol_mutant`] breaks the cache claim protocol's
//!   exactly-once guarantee: `fulfill` drops the `Pending` slot and
//!   signals *before* publishing the digest. A waiter that rechecks in
//!   the gap finds no slot at all, concludes the claim was abandoned,
//!   and re-executes the run — the fixture's execution counter turns
//!   that into an assertion failure on the offending schedule.
//! * [`check_caller_works_the_queue_mutant`] breaks the expanding
//!   pool's caller-as-worker contract: the calling thread spawns
//!   `workers - 1` threads but never works the queue, blocking on `recv`
//!   while a job that only its shard holds waits to run. With the one
//!   spawned worker parked on that job's outcome, nothing is runnable —
//!   the checker reports the deadlock.

use std::collections::{BTreeMap, VecDeque};

use shim_sync::model::{check, Config, Report};
use shim_sync::sync::atomic::{AtomicUsize, Ordering};
use shim_sync::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use shim_sync::thread;

use crate::engine::executor::{Executor, ShardedQueue};
use crate::engine::planner::{Claim, FaultKey, ResultCache, RunDigest};

/// A digest with recognizable content for replay assertions.
fn digest(exit: i32) -> RunDigest {
    RunDigest {
        applied: true,
        exit: Some(exit),
        crashed: None,
        audit_events: 1,
        violations: Vec::new(),
    }
}

/// The close/pending protocol of the executor's sharded queue: two
/// workers drain three jobs while the collector closes the pool after
/// the last result arrives. Every schedule must deliver all three jobs
/// exactly once and both workers must terminate (`pop -> None`).
pub fn check_close_protocol(cfg: &Config) -> Report {
    check("executor.close_protocol", cfg, || {
        let queue: ShardedQueue<usize> = ShardedQueue::new(2);
        queue.push_many(0, vec![10, 20, 30]);
        let (tx, rx) = mpsc::channel::<usize>();
        thread::scope(|scope| {
            for w in 0..2 {
                let tx = tx.clone();
                let queue = &queue;
                scope.spawn(move || {
                    while let Some(job) = queue.pop(w) {
                        if tx.send(job).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            let mut got: Vec<usize> = (0..3).map(|_| rx.recv().expect("job result")).collect();
            queue.close(false);
            got.sort_unstable();
            assert_eq!(got, vec![10, 20, 30], "every job delivered exactly once");
        });
    })
}

/// Seeded mutant of [`check_close_protocol`]: the queue decrements
/// `pending` after releasing the shard lock (the pre-PR-8 bug). See the
/// module docs for the failing schedule; the expected verdict is a
/// step-bound livelock report.
pub fn check_close_protocol_mutant(cfg: &Config) -> Report {
    check("executor.close_protocol.mutant", cfg, || {
        let queue: MutantQueue<usize> = MutantQueue::new(2);
        queue.push_many(vec![10, 20, 30]);
        let (tx, rx) = mpsc::channel::<usize>();
        thread::scope(|scope| {
            for w in 0..2 {
                let tx = tx.clone();
                let queue = &queue;
                scope.spawn(move || {
                    while let Some(job) = queue.pop(w) {
                        if tx.send(job).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            let mut got: Vec<usize> = (0..3).map(|_| rx.recv().expect("job result")).collect();
            queue.close();
            got.sort_unstable();
            assert_eq!(got, vec![10, 20, 30]);
        });
    })
}

/// The result cache's claim protocol on the **production**
/// [`ResultCache`]: two racing claimants, one key. Exactly one may
/// execute; the other must block and replay the published digest.
pub fn check_claim_protocol(cfg: &Config) -> Report {
    check("cache.claim_protocol", cfg, || {
        let cache = ResultCache::new();
        let key = FaultKey::synthetic("site#0|-|{}");
        let executed = Arc::new(AtomicUsize::new(0));
        thread::scope(|scope| {
            for _ in 0..2 {
                let cache = cache.clone();
                let key = key.clone();
                let executed = executed.clone();
                scope.spawn(move || match cache.begin(7, &key) {
                    Claim::Execute(token) => {
                        executed.fetch_add(1, Ordering::SeqCst);
                        token.fulfill(digest(0));
                    }
                    Claim::Replay(d) => assert_eq!(d.exit, Some(0), "replayed the published digest"),
                });
            }
        });
        assert_eq!(executed.load(Ordering::SeqCst), 1, "exactly one claimant executes");
        assert_eq!(cache.stats().entries, 1);
    })
}

/// The claim protocol's abandonment path (the worker-panic liveness
/// fix): the first claimant drops its token unfulfilled — exactly what
/// a panicking job's unwind does — and a blocked second claimant must
/// wake, re-claim, and complete the run.
pub fn check_claim_abandon(cfg: &Config) -> Report {
    check("cache.claim_abandon", cfg, || {
        let cache = ResultCache::new();
        let key = FaultKey::synthetic("site#0|-|{}");
        // Claim on the root thread (no contention yet, so this always
        // wins), then abandon while the rescuer may already be blocked.
        let Claim::Execute(token) = cache.begin(7, &key) else {
            panic!("empty cache cannot replay");
        };
        let rescuer = {
            let cache = cache.clone();
            let key = key.clone();
            thread::spawn(move || match cache.begin(7, &key) {
                Claim::Execute(token) => token.fulfill(digest(1)),
                Claim::Replay(_) => panic!("nothing was published before the abandon"),
            })
        };
        drop(token); // abandon, as an unwinding worker would
        rescuer.join().expect("rescuer completes despite the abandoned claim");
        assert!(matches!(cache.begin(7, &key), Claim::Replay(_)));
    })
}

/// Seeded mutant of [`check_claim_protocol`]: a claim protocol whose
/// `fulfill` drops the `Pending` slot and signals before publishing.
/// The checker must find the schedule where a waiter rechecks in the
/// gap and re-executes (the fixture asserts exactly-once execution).
pub fn check_claim_protocol_mutant(cfg: &Config) -> Report {
    check("cache.claim_protocol.mutant", cfg, || {
        let cache = Arc::new(MutantCache::default());
        let executed = Arc::new(AtomicUsize::new(0));
        thread::scope(|scope| {
            for _ in 0..2 {
                let cache = cache.clone();
                let executed = executed.clone();
                scope.spawn(move || match cache.begin("k") {
                    MutantClaim::Execute => {
                        executed.fetch_add(1, Ordering::SeqCst);
                        cache.fulfill("k", 0);
                    }
                    MutantClaim::Replay(v) => assert_eq!(v, 0),
                });
            }
        });
        assert_eq!(executed.load(Ordering::SeqCst), 1, "exactly one claimant executes");
    })
}

/// The suite-pool shape on [`Executor::run_expanding`] at `workers`
/// workers (2 and 3 in the gate: the calling thread as worker 0 plus one
/// or two spawned threads): 2 seed jobs (one per "application plan") each
/// fan out into 2 follow-up jobs on completion, so the steal path — and
/// the caller working its own shard between completions — delivers
/// children maximally out-of-order. The caller-side reassembly by job
/// index must match the sequential run byte-for-byte in every schedule.
pub fn check_expanding_reassembly(cfg: &Config, workers: usize) -> Report {
    let sequential = format!("{:?}", expanding_slots(1));
    check(&format!("executor.expanding_reassembly.{workers}w"), cfg, move || {
        assert_eq!(
            format!("{:?}", expanding_slots(workers)),
            sequential,
            "steal-path delivery order must not leak into the report"
        );
    })
}

/// The caller-as-worker liveness property of [`Executor::run_expanding`]
/// at 2 workers (the caller plus one spawned thread): the spawned worker
/// pops [`WAITER`] from its own shard and blocks until [`GATE`] has run,
/// while `GATE` sits on the caller's shard. Only the calling thread can
/// run it, so every schedule completes only if the caller works the queue
/// instead of blocking on `recv` while a job is queued.
pub fn check_caller_works_the_queue(cfg: &Config) -> Report {
    check("executor.caller_works_the_queue", cfg, || {
        let latch = Latch::default();
        let mut done = Vec::new();
        Executor::with_workers(2).run_expanding(vec![GATE, WAITER], |job| latch.step(job), &mut |job| {
            done.push(job);
            Vec::new()
        });
        done.sort_unstable();
        assert_eq!(done, vec![GATE, WAITER], "both jobs complete");
    })
}

/// Seeded mutant of [`check_caller_works_the_queue`]: the caller spawns
/// `workers - 1` threads, as worker 0 must, but then only collects
/// results with a blocking `recv` and never pops a job itself. With the
/// spawned worker parked on the gate and the gate queued on the caller's
/// shard, nothing can run: the checker must report the deadlock.
pub fn check_caller_works_the_queue_mutant(cfg: &Config) -> Report {
    check("executor.caller_works_the_queue.mutant", cfg, || {
        let latch = Latch::default();
        let done = mutant_run_expanding(2, vec![GATE, WAITER], |job| latch.step(job));
        assert_eq!(done.len(), 2, "both jobs complete");
    })
}

/// Runs the suite-shaped expanding workload on `workers` workers and
/// reassembles results by job index (as `Suite::execute_with` does).
fn expanding_slots(workers: usize) -> BTreeMap<usize, usize> {
    let pool = Executor::with_workers(workers);
    let mut slots: BTreeMap<usize, usize> = BTreeMap::new();
    // Seeds 1 and 2 expand into children 10*id+1 / 10*id+2.
    pool.run_expanding(vec![1usize, 2], |job| (job, job * 100), &mut |(job, result)| {
        slots.insert(job, result);
        if job < 10 {
            vec![job * 10 + 1, job * 10 + 2]
        } else {
            Vec::new()
        }
    });
    slots
}

/// The job of [`check_caller_works_the_queue`] that opens the latch.
const GATE: usize = 0;
/// The job of [`check_caller_works_the_queue`] that waits for [`GATE`].
const WAITER: usize = 1;

/// A one-shot gate between the two jobs of
/// [`check_caller_works_the_queue`].
#[derive(Default)]
struct Latch {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Latch {
    /// Runs one job: [`GATE`] opens the latch, [`WAITER`] blocks until it
    /// is open.
    fn step(&self, job: usize) -> usize {
        let mut open = self.open.lock().expect("latch lock");
        if job == GATE {
            *open = true;
            drop(open);
            self.opened.notify_all();
        } else {
            while !*open {
                open = self.opened.wait(open).expect("latch lock");
            }
        }
        job
    }
}

/// [`Executor::run_expanding`] (without follow-up jobs) with the seeded
/// caller bug (see [`check_caller_works_the_queue_mutant`]): `workers - 1`
/// spawned threads over the production [`ShardedQueue`], and a caller that
/// only ever blocks on `recv`.
fn mutant_run_expanding<J: Send, T: Send>(workers: usize, seed: Vec<J>, step: impl Fn(J) -> T + Sync) -> Vec<T> {
    let jobs = seed.len();
    let queue = ShardedQueue::new(workers);
    queue.push_many(0, seed);
    thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<T>();
        for w in 1..workers {
            let tx = tx.clone();
            let queue = &queue;
            let step = &step;
            scope.spawn(move || {
                while let Some(job) = queue.pop(w) {
                    if tx.send(step(job)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // BUG under test: blocks for each result even while a job that
        // only this thread's shard holds is waiting to run.
        let done = (0..jobs)
            .map(|_| rx.recv().expect("workers alive while jobs outstanding"))
            .collect();
        queue.close(false);
        done
    })
}

/// [`ShardedQueue`] with the pre-PR-8 seeded bug: `pending` decremented
/// *after* the shard lock is released (see the module docs).
struct MutantQueue<J> {
    shards: Vec<Mutex<VecDeque<J>>>,
    pending: AtomicUsize,
    closed: Mutex<bool>,
    ready: Condvar,
}

impl<J> MutantQueue<J> {
    fn new(workers: usize) -> MutantQueue<J> {
        MutantQueue {
            shards: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            closed: Mutex::new(false),
            ready: Condvar::new(),
        }
    }

    fn push_many(&self, jobs: Vec<J>) {
        let n = jobs.len();
        for (k, job) in jobs.into_iter().enumerate() {
            self.shards[k % self.shards.len()]
                .lock()
                .expect("shard lock")
                .push_back(job);
        }
        self.pending.fetch_add(n, Ordering::SeqCst);
        drop(self.closed.lock().expect("queue lock"));
        self.ready.notify_all();
    }

    fn try_pop(&self, worker: usize) -> Option<J> {
        let n = self.shards.len();
        for k in 0..n {
            let victim = (worker + k) % n;
            let job = {
                let mut shard = self.shards[victim].lock().expect("shard lock");
                if k == 0 {
                    shard.pop_front()
                } else {
                    shard.pop_back()
                }
                // BUG under test: the shard lock is released here, BEFORE
                // the pending decrement below — a sibling can observe
                // `pending > 0` with every shard already empty.
            };
            if let Some(job) = job {
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some(job);
            }
        }
        None
    }

    fn pop(&self, worker: usize) -> Option<J> {
        loop {
            if self.pending.load(Ordering::SeqCst) > 0 {
                if let Some(job) = self.try_pop(worker) {
                    return Some(job);
                }
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

    fn close(&self) {
        *self.closed.lock().expect("queue lock") = true;
        self.ready.notify_all();
    }
}

/// Outcome of [`MutantCache::begin`].
enum MutantClaim {
    Execute,
    Replay(u32),
}

/// One memo slot of the mutant claim protocol.
enum MutantSlot {
    Pending,
    Ready(u32),
}

/// A distilled claim protocol with the seeded fulfill bug (see the
/// module docs). `begin` mirrors [`ResultCache::begin`]; only `fulfill`
/// differs from the production ordering.
#[derive(Default)]
struct MutantCache {
    state: Mutex<BTreeMap<String, MutantSlot>>,
    settled: Condvar,
}

impl MutantCache {
    fn begin(&self, key: &str) -> MutantClaim {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match state.get(key) {
                Some(MutantSlot::Ready(v)) => return MutantClaim::Replay(*v),
                Some(MutantSlot::Pending) => {
                    state = self.settled.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    state.insert(key.to_string(), MutantSlot::Pending);
                    return MutantClaim::Execute;
                }
            }
        }
    }

    fn fulfill(&self, key: &str, value: u32) {
        // BUG under test: the Pending slot is dropped and waiters are
        // signaled BEFORE the digest is published. A waiter that
        // rechecks in the gap finds no slot, concludes the claim was
        // abandoned, and re-executes the run.
        {
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.remove(key);
        }
        self.settled.notify_all();
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.insert(key.to_string(), MutantSlot::Ready(value));
    }
}
