//! Model-check fixtures for the engine's concurrency protocols
//! (`model-check` feature only).
//!
//! Each fixture wraps one protocol in a small closed scenario — 2–3
//! workers, 2–3 items — and hands it to the shim's cooperative scheduler
//! ([`shim_sync::model::check`]), which explores every interleaving
//! within the preemption bound. The *production* types are checked, not
//! copies: under the `model-check` feature [`Executor`] and
//! [`ResultCache`] compile against the shim's model personality, so the
//! code paths explored here are byte-for-byte the ones tier-1 builds run
//! under `std`.
//!
//! Three **seeded mutants** accompany the real protocols as a mutation
//! gate for the checker itself (if the checker cannot kill a bug, its
//! green runs mean nothing):
//!
//! * [`check_map_order_mutant`] takes the map's next index with a
//!   separate load and store instead of one `fetch_add`. Two workers that
//!   both load before either stores take the same index; the second finds
//!   the item gone and panics.
//! * [`check_caller_runs_an_item_mutant`] breaks the map's
//!   caller-as-worker contract: the calling thread spawns `workers - 1`
//!   threads, as worker 0 must, but then only joins them. With the one
//!   spawned worker parked on an item that waits for the other, nothing
//!   can run — the checker reports the deadlock.
//! * [`check_claim_protocol_mutant`] breaks the cache claim protocol's
//!   exactly-once guarantee: `fulfill` drops the `Pending` slot and
//!   signals *before* publishing the digest. A waiter that rechecks in
//!   the gap finds no slot at all, concludes the claim was abandoned,
//!   and re-executes the run — the fixture's execution counter turns
//!   that into an assertion failure on the offending schedule.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use shim_sync::model::{check, Config, Report};
use shim_sync::sync::atomic::{AtomicUsize, Ordering};
use shim_sync::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use shim_sync::thread;

use crate::engine::executor::Executor;
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

/// [`Executor::map`] at `workers` workers (2 and 3 in the gate: the
/// calling thread as worker 0 plus one or two spawned threads) over three
/// items: in every schedule, every index runs exactly once and the results
/// come back in input order.
pub fn check_map_order(cfg: &Config, workers: usize) -> Report {
    check(&format!("executor.map_order.{workers}w"), cfg, move || {
        map_order(|items, f| Executor::with_workers(workers).map(items, f));
    })
}

/// Seeded mutant of [`check_map_order`]: the next index is taken by a
/// separate load and store. The checker must find the schedule where two
/// workers take the same index.
pub fn check_map_order_mutant(cfg: &Config) -> Report {
    check("executor.map_order.mutant", cfg, || {
        map_order(|items, f| mutant_map(2, items, f, Bug::SplitIndex));
    })
}

/// The caller-as-worker property of [`Executor::map`] at 2 workers (the
/// caller plus one spawned thread): [`WAITER`] blocks until [`GATE`] has
/// run. In the schedules where the spawned worker takes `WAITER`, only the
/// calling thread can run `GATE`, so every schedule completes only if the
/// caller takes items instead of just joining.
pub fn check_caller_runs_an_item(cfg: &Config) -> Report {
    check("executor.caller_runs_an_item", cfg, || {
        let latch = Latch::new();
        let done = Executor::with_workers(2).map(vec![WAITER, GATE], |item| latch.step(item));
        assert_eq!(done, vec![WAITER, GATE], "both items complete");
    })
}

/// Seeded mutant of [`check_caller_runs_an_item`]: the caller spawns
/// `workers - 1` threads and only joins them. The spawned worker takes
/// `WAITER` and parks, and nothing runs `GATE`: the checker must report
/// the deadlock.
pub fn check_caller_runs_an_item_mutant(cfg: &Config) -> Report {
    check("executor.caller_runs_an_item.mutant", cfg, || {
        let latch = Latch::new();
        let done = mutant_map(2, vec![WAITER, GATE], |item| latch.step(item), Bug::IdleCaller);
        assert_eq!(done, vec![WAITER, GATE], "both items complete");
    })
}

/// A panicking item releases the pool: at 2 workers, the middle of three
/// items panics, and in every schedule the other worker stops, the scope
/// joins, and [`Executor::map`] re-raises that item's panic.
pub fn check_panic_releases_the_pool(cfg: &Config) -> Report {
    check("executor.panic_releases_the_pool", cfg, || {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            Executor::with_workers(2).map(vec![0usize, 1, 2], |item| {
                if item == 1 {
                    // Unwinds without the panic hook's message.
                    resume_unwind(Box::new("deliberate item panic"));
                }
                item
            })
        }));
        let payload = caught.expect_err("the item's panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"deliberate item panic"));
    })
}

/// Maps items `0..3` through `map`, counting each item's runs: every index
/// must run exactly once, and its result must come back at its index.
fn map_order(map: impl FnOnce(Vec<usize>, &(dyn Fn(usize) -> usize + Sync)) -> Vec<usize>) {
    let runs: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
    let results = map(vec![0, 1, 2], &|i| {
        runs[i].fetch_add(1, Ordering::SeqCst);
        i * 10
    });
    assert_eq!(results, vec![0, 10, 20], "results come back in input order");
    for count in &runs {
        assert_eq!(count.load(Ordering::SeqCst), 1, "every index runs exactly once");
    }
}

/// The item of [`check_caller_runs_an_item`] that opens the latch.
const GATE: usize = 1;
/// The item of [`check_caller_runs_an_item`] that waits for [`GATE`].
const WAITER: usize = 0;

/// A one-shot gate between the two items of
/// [`check_caller_runs_an_item`]. The waiter blocks on a channel rather
/// than a condvar, so a run where nobody can open the gate reads as a
/// deadlock.
struct Latch {
    open: mpsc::Sender<()>,
    opened: Mutex<mpsc::Receiver<()>>,
}

impl Latch {
    fn new() -> Latch {
        let (open, opened) = mpsc::channel();
        Latch {
            open,
            opened: Mutex::new(opened),
        }
    }

    /// Runs one item: [`GATE`] opens the latch, [`WAITER`] blocks until it
    /// is open.
    fn step(&self, item: usize) -> usize {
        if item == GATE {
            self.open.send(()).expect("the waiter's receiver lives");
        } else {
            self.opened.lock().expect("latch lock").recv().expect("the gate opens");
        }
        item
    }
}

/// The seeded bugs of [`mutant_map`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Bug {
    /// The next index is taken by a separate load and store.
    SplitIndex,
    /// The caller spawns `workers - 1` threads and only joins them.
    IdleCaller,
}

/// [`Executor::map`] with one seeded [`Bug`] (and without the worker gauge
/// or the panic hand-off, which neither mutant exercises).
fn mutant_map<J: Send, T: Send>(workers: usize, items: Vec<J>, f: impl Fn(J) -> T + Sync, bug: Bug) -> Vec<T> {
    let slots: Vec<Mutex<Option<J>>> = items.into_iter().map(|item| Mutex::new(Some(item))).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = if bug == Bug::SplitIndex {
                // BUG under test: a sibling can load the same index before
                // this store.
                let i = next.load(Ordering::SeqCst);
                next.store(i + 1, Ordering::SeqCst);
                i
            } else {
                next.fetch_add(1, Ordering::SeqCst)
            };
            let Some(slot) = slots.get(i) else { break };
            let item = slot.lock().expect("item slot").take().expect("an index is taken once");
            done.push((i, f(item)));
        }
        done
    };
    let mut results = thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        // BUG under test (`IdleCaller`): the caller takes no item.
        let mut results = if bug == Bug::IdleCaller { Vec::new() } else { work() };
        for handle in spawned {
            results.extend(handle.join().expect("mutant worker"));
        }
        results
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, result)| result).collect()
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
