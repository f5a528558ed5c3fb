//! The deterministic-schedule model checker.
//!
//! [`check`] runs a closure many times, each time under a different
//! thread interleaving, with exactly one thread running at a time. The
//! scheduler is cooperative: every synchronization operation performed
//! through the `shim_sync` facade is a *scheduling point* where the
//! checker may preempt the running thread, and blocking operations
//! (lock contention, condvar waits, joins, channel receives) are
//! *forced* switches. Between scheduling points threads run real code
//! at full speed — the state space is the space of schedules, not of
//! instructions.
//!
//! Exploration strategies:
//!
//! * [`Strategy::Dfs`] — depth-first enumeration of schedules by
//!   recording, replaying, and backtracking the sequence of scheduling
//!   choices. Voluntary preemptions are budgeted by
//!   [`Config::preemption_bound`] (CHESS-style iterative context
//!   bounding); forced switches are free and always fully explored.
//!   When the bounded space is exhausted, [`Report::complete`] is true.
//! * [`Strategy::Random`] — a seeded random walk over schedules,
//!   useful for state spaces too large to enumerate.
//!
//! Detectors, all of which stop exploration with a [`Failure`]:
//!
//! * **Deadlock** — no thread is runnable and at least one is blocked
//!   on a lock, join, or channel.
//! * **Lost wakeup** — no thread is runnable and every blocked thread
//!   is parked on a condvar: nobody is left to signal.
//! * **Lock-order cycle** — the static lock acquisition graph
//!   (held-lock → acquired-lock edges) develops a cycle.
//! * **Happens-before race** — a [`crate::cell::RaceCell`] access is
//!   unordered (by vector clock) with a prior access from another
//!   thread.
//! * **Step bound** — one execution exceeds [`Config::max_steps`]
//!   scheduling points: a livelock or unbounded spin.
//! * **Panic** — any model thread panics (assertion failures in
//!   fixtures surface here).
//!
//! Happens-before edges tracked by vector clocks: thread spawn/join,
//! mutex & rwlock release → acquire, condvar notify → wakeup, atomic
//! release-store → acquire-load (per object), channel send → receive,
//! and `OnceLock` initialization → observation.

use std::cell::RefCell;
use std::collections::{BTreeSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, Once, PoisonError};

// ---------------------------------------------------------------------------
// Public configuration and report types
// ---------------------------------------------------------------------------

/// How [`check`] explores the schedule space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Exhaustive bounded-preemption depth-first search.
    Dfs,
    /// Seeded random walk: `max_iterations` independent random schedules.
    Random {
        /// Seed for the deterministic splitmix64 stream of choices.
        seed: u64,
    },
}

/// Exploration limits and strategy for one [`check`] call.
#[derive(Debug, Clone)]
pub struct Config {
    /// Max voluntary preemptions per schedule under DFS (`None` =
    /// unbounded). Forced switches are never counted.
    pub preemption_bound: Option<usize>,
    /// Stop after this many schedules even if DFS has not exhausted the
    /// space (`Report::complete` stays false).
    pub max_iterations: usize,
    /// Per-execution scheduling-point budget; exceeding it reports a
    /// livelock ([`FailureKind::StepBound`]).
    pub max_steps: usize,
    /// DFS or random walk.
    pub strategy: Strategy,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            preemption_bound: Some(2),
            max_iterations: 500_000,
            max_steps: 20_000,
            strategy: Strategy::Dfs,
        }
    }
}

impl Config {
    /// The default DFS config with a different preemption bound.
    pub fn with_bound(bound: usize) -> Config {
        Config {
            preemption_bound: Some(bound),
            ..Config::default()
        }
    }

    /// A seeded random walk of `iterations` schedules.
    pub fn random(seed: u64, iterations: usize) -> Config {
        Config {
            preemption_bound: None,
            max_iterations: iterations,
            strategy: Strategy::Random { seed },
            ..Config::default()
        }
    }
}

/// What kind of property violation a schedule exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Unsynchronized shared access (no happens-before edge).
    Race,
    /// No runnable thread; someone is blocked on a lock/join/channel.
    Deadlock,
    /// No runnable thread and every blocked thread waits on a condvar.
    LostWakeup,
    /// The lock acquisition-order graph has a cycle.
    LockCycle,
    /// One execution exceeded the scheduling-step budget (livelock).
    StepBound,
    /// A model thread panicked (assertion failure, explicit panic…).
    Panic,
}

impl FailureKind {
    /// Stable lowercase name (used in BENCH JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Race => "race",
            FailureKind::Deadlock => "deadlock",
            FailureKind::LostWakeup => "lost_wakeup",
            FailureKind::LockCycle => "lock_cycle",
            FailureKind::StepBound => "step_bound",
            FailureKind::Panic => "panic",
        }
    }
}

/// A property violation, with the schedule prefix that reproduces it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Violation class.
    pub kind: FailureKind,
    /// Human-readable diagnosis (threads, objects, labels).
    pub detail: String,
    /// 1-based index of the schedule that failed.
    pub iteration: usize,
    /// The sequence of branch choices taken by the failing schedule.
    pub schedule: Vec<usize>,
}

/// The result of one [`check`] call.
#[derive(Debug, Clone)]
pub struct Report {
    /// Fixture name (caller-chosen, lands in BENCH JSON).
    pub name: String,
    /// Schedules actually executed.
    pub iterations: usize,
    /// Deepest schedule, in scheduling decisions with >1 alternative.
    pub max_depth: usize,
    /// True iff DFS exhausted the preemption-bounded schedule space.
    pub complete: bool,
    /// The preemption bound in force (`None` for random walks).
    pub preemption_bound: Option<usize>,
    /// The first violation found, if any.
    pub failure: Option<Failure>,
}

impl Report {
    /// Panics (with the diagnosis) if any schedule found a violation.
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "model check `{}` failed at iteration {} ({}): {}\nschedule: {:?}",
                self.name,
                f.iteration,
                f.kind.as_str(),
                f.detail,
                f.schedule
            );
        }
    }

    /// Panics unless the bounded DFS space was fully enumerated.
    pub fn assert_complete(&self) {
        self.assert_ok();
        assert!(
            self.complete,
            "model check `{}` did not exhaust its schedule space in {} iterations",
            self.name, self.iterations
        );
    }

    /// The failure, which must exist (mutation-gate helper).
    pub fn expect_failure(&self, why: &str) -> &Failure {
        self.failure.as_ref().unwrap_or_else(|| {
            panic!(
                "model check `{}` explored {} schedules without finding the seeded bug: {}",
                self.name, self.iterations, why
            )
        })
    }
}

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// A grow-on-demand vector clock indexed by model thread id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct VClock(Vec<u64>);

impl VClock {
    pub(crate) fn get(&self, i: usize) -> u64 {
        self.0.get(i).copied().unwrap_or(0)
    }

    fn set(&mut self, i: usize, v: u64) {
        if self.0.len() <= i {
            self.0.resize(i + 1, 0);
        }
        self.0[i] = v;
    }

    fn bump(&mut self, i: usize) {
        let v = self.get(i) + 1;
        self.set(i, v);
    }

    pub(crate) fn join(&mut self, other: &VClock) {
        for (i, &v) in other.0.iter().enumerate() {
            if v > self.get(i) {
                self.set(i, v);
            }
        }
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

// ---------------------------------------------------------------------------
// Per-object identity: survives statics across executions via epochs
// ---------------------------------------------------------------------------

/// A sync object's identity slot. Objects (including `static`s) carry a
/// `Handle`; the first operation of each execution re-registers the
/// object under the current epoch, so state never leaks between
/// schedules.
pub(crate) struct Handle(StdMutex<HandleInner>);

struct HandleInner {
    epoch: u64,
    id: usize,
}

impl Handle {
    pub(crate) const fn new() -> Handle {
        Handle(StdMutex::new(HandleInner {
            epoch: 0,
            id: usize::MAX,
        }))
    }
}

impl Default for Handle {
    fn default() -> Handle {
        Handle::new()
    }
}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Handle")
    }
}

struct ObjMeta {
    label: &'static str,
    /// Release/publish clock (lock releases, atomic release stores,
    /// once-init publication).
    clock: VClock,
    /// Exclusive holder (mutex owner / rwlock writer / once initializer).
    owner: Option<usize>,
    /// Shared holders (rwlock readers; may repeat for reentrant reads).
    readers: Vec<usize>,
    /// Threads parked on this condvar, FIFO.
    cv_waiters: Vec<usize>,
    /// RaceCell: per-thread clock of the last write / read.
    write_clock: VClock,
    read_clock: VClock,
}

impl ObjMeta {
    fn new(label: &'static str) -> ObjMeta {
        ObjMeta {
            label,
            clock: VClock::default(),
            owner: None,
            readers: Vec::new(),
            cv_waiters: Vec::new(),
            write_clock: VClock::default(),
            read_clock: VClock::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    Lock(usize),
    Cv(usize),
    Join(usize),
    Recv(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    Runnable,
    Blocked(Block),
    Exited,
}

struct ThreadInfo {
    state: RunState,
    clock: VClock,
    held: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
struct ChoicePoint {
    taken: usize,
    total: usize,
}

struct ExecState {
    threads: Vec<ThreadInfo>,
    current: usize,
    abort: bool,
    failure: Option<Failure>,
    steps: usize,
    preemptions: usize,
    /// DFS: replay prefix + appended new choice points.
    choices: Vec<ChoicePoint>,
    cursor: usize,
    /// Random walk state (None under DFS).
    rng: Option<u64>,
    /// Choice indices actually taken (failure reproduction info).
    trace: Vec<usize>,
    iteration: usize,
    objects: Vec<ObjMeta>,
    lock_edges: BTreeSet<(usize, usize)>,
    /// Ring buffer of the most recent operations (diagnostics for
    /// step-bound reports, where the repeating tail IS the livelock).
    recent: VecDeque<String>,
}

impl ExecState {
    fn note(&mut self, tid: usize, op: &str, label: &str) {
        if self.recent.len() >= 48 {
            self.recent.pop_front();
        }
        self.recent.push_back(format!("t{tid}:{op}({label})"));
    }
}

/// One model execution: the scheduler shared by all its threads.
pub(crate) struct Execution {
    state: StdMutex<ExecState>,
    turn: StdCondvar,
    epoch: u64,
    max_steps: usize,
    preemption_bound: Option<usize>,
}

/// Sentinel panic payload used to unwind every thread of an aborted
/// execution; filtered out of panic-hook output and failure reports.
pub(crate) struct ModelAbort;

type Guard<'a> = StdMutexGuard<'a, ExecState>;

static EPOCH: AtomicU64 = AtomicU64::new(1);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub(crate) fn payload_str(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Execution {
    fn new(cfg: &Config, iteration: usize, prefix: Vec<ChoicePoint>, rng: Option<u64>) -> Execution {
        let mut root_clock = VClock::default();
        root_clock.set(0, 1);
        Execution {
            state: StdMutex::new(ExecState {
                threads: vec![ThreadInfo {
                    state: RunState::Runnable,
                    clock: root_clock,
                    held: Vec::new(),
                }],
                current: 0,
                abort: false,
                failure: None,
                steps: 0,
                preemptions: 0,
                choices: prefix,
                cursor: 0,
                rng,
                trace: Vec::new(),
                iteration,
                objects: Vec::new(),
                lock_edges: BTreeSet::new(),
                recent: VecDeque::new(),
            }),
            turn: StdCondvar::new(),
            epoch: EPOCH.fetch_add(1, Ordering::Relaxed),
            max_steps: cfg.max_steps,
            preemption_bound: if rng.is_some() { None } else { cfg.preemption_bound },
        }
    }

    fn lock_state(&self) -> Guard<'_> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a violation, wake everyone, and unwind this thread.
    fn fail(&self, mut st: Guard<'_>, kind: FailureKind, detail: String) -> ! {
        if st.failure.is_none() {
            let failure = Failure {
                kind,
                detail,
                iteration: st.iteration,
                schedule: st.trace.clone(),
            };
            st.failure = Some(failure);
        }
        st.abort = true;
        drop(st);
        self.turn.notify_all();
        panic::panic_any(ModelAbort);
    }

    /// Park until this thread holds the token (is `current` and
    /// runnable). Unwinds with [`ModelAbort`] if the execution aborted —
    /// unless this thread is already panicking, in which case the guard
    /// is returned so drop-side bookkeeping can proceed unblocked.
    fn wait_turn<'a>(&'a self, mut st: Guard<'a>, tid: usize) -> Guard<'a> {
        loop {
            if st.abort {
                if std::thread::panicking() {
                    return st;
                }
                drop(st);
                panic::panic_any(ModelAbort);
            }
            if st.current == tid && st.threads[tid].state == RunState::Runnable {
                return st;
            }
            st = self.turn.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Consume (or extend) the choice sequence: pick one of `total`
    /// alternatives.
    fn choose(&self, st: &mut ExecState, total: usize) -> usize {
        let pick = if let Some(rng) = st.rng.as_mut() {
            (splitmix(rng) % total as u64) as usize
        } else if st.cursor < st.choices.len() {
            let c = st.choices[st.cursor];
            debug_assert_eq!(c.total, total, "schedule replay diverged");
            c.taken.min(total - 1)
        } else {
            st.choices.push(ChoicePoint { taken: 0, total });
            0
        };
        st.cursor += 1;
        st.trace.push(pick);
        pick
    }

    /// The scheduling decision. `forced` means the current thread can no
    /// longer run (blocked or exited): the switch is mandatory and free.
    /// A non-forced decision may preempt within the preemption budget.
    /// Detects deadlock / lost wakeup when nothing is runnable.
    fn reschedule<'a>(&'a self, mut st: Guard<'a>, tid: usize, forced: bool) -> Guard<'a> {
        let enabled: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == RunState::Runnable)
            .map(|(i, _)| i)
            .collect();
        if enabled.is_empty() {
            if st.threads.iter().all(|t| t.state == RunState::Exited) {
                st.current = usize::MAX;
                drop(st);
                self.turn.notify_all();
                return self.lock_state();
            }
            // A join counts as condvar-equivalent when its target is
            // itself (transitively, through join chains) parked on a
            // condvar: the joiner would run again if the wakeup came.
            fn terminal_block(st: &ExecState, mut b: Block) -> Block {
                let mut hops = 0;
                while let Block::Join(j) = b {
                    match st.threads[j].state {
                        RunState::Blocked(next) => b = next,
                        _ => break,
                    }
                    hops += 1;
                    if hops > st.threads.len() {
                        break;
                    }
                }
                b
            }
            let mut parked = Vec::new();
            let mut all_cv = true;
            for (i, t) in st.threads.iter().enumerate() {
                if let RunState::Blocked(b) = t.state {
                    if !matches!(terminal_block(&st, b), Block::Cv(_)) {
                        all_cv = false;
                    }
                    let what = match b {
                        Block::Lock(o) => format!("lock `{}`", st.objects[o].label),
                        Block::Cv(o) => format!("condvar `{}`", st.objects[o].label),
                        Block::Join(j) => format!("join of t{j}"),
                        Block::Recv(o) => format!("recv on `{}`", st.objects[o].label),
                    };
                    parked.push(format!("t{i} blocked on {what}"));
                }
            }
            let kind = if all_cv {
                FailureKind::LostWakeup
            } else {
                FailureKind::Deadlock
            };
            let detail = if all_cv {
                format!(
                    "no thread is runnable and every blocked thread waits on a condvar \
                     (directly or through a join of a condvar waiter) — a wakeup was \
                     lost: {}",
                    parked.join("; ")
                )
            } else {
                format!("no thread is runnable: {}", parked.join("; "))
            };
            self.fail(st, kind, detail);
        }
        let alternatives: Vec<usize> = if forced {
            enabled
        } else {
            let can_preempt = self.preemption_bound.is_none_or(|b| st.preemptions < b);
            if can_preempt {
                let mut v = vec![tid];
                v.extend(enabled.into_iter().filter(|&t| t != tid));
                v
            } else {
                vec![tid]
            }
        };
        let pick = if alternatives.len() == 1 {
            0
        } else {
            self.choose(&mut st, alternatives.len())
        };
        let next = alternatives[pick];
        if !forced && next != tid {
            st.preemptions += 1;
        }
        if st.current != next {
            st.current = next;
            self.turn.notify_all();
        }
        st
    }

    /// Entry point of every operation: count a step and offer a
    /// preemption. Returns with the token held (or in teardown mode —
    /// `abort && panicking` — immediately, so drops never block).
    fn op_enter(&self, tid: usize) -> Guard<'_> {
        let st = self.lock_state();
        let mut st = self.wait_turn(st, tid);
        if st.abort {
            return st;
        }
        st.steps += 1;
        if st.steps > self.max_steps {
            let max = self.max_steps;
            let tail: Vec<String> = st.recent.iter().cloned().collect();
            self.fail(
                st,
                FailureKind::StepBound,
                format!(
                    "execution exceeded {max} scheduling points: livelock or unbounded spin; \
                     recent ops: {}",
                    tail.join(" ")
                ),
            );
        }
        let st = self.reschedule(st, tid, false);
        self.wait_turn(st, tid)
    }

    fn obj_id(&self, st: &mut ExecState, handle: &Handle, label: &'static str) -> usize {
        let mut h = handle.0.lock().unwrap_or_else(PoisonError::into_inner);
        if h.epoch != self.epoch {
            h.epoch = self.epoch;
            h.id = st.objects.len();
            st.objects.push(ObjMeta::new(label));
        }
        h.id
    }

    /// Any path `from -> … -> from` in the acquisition-order graph?
    fn lock_cycle(&self, st: &ExecState, from: usize) -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            for &(a, b) in &st.lock_edges {
                if a == n {
                    if b == from {
                        return true;
                    }
                    if seen.insert(b) {
                        stack.push(b);
                    }
                }
            }
        }
        false
    }

    fn acquire_exclusive(&self, st: &mut Guard<'_>, tid: usize, obj: usize) {
        let held: Vec<usize> = st.threads[tid].held.clone();
        for h in held {
            if h != obj {
                st.lock_edges.insert((h, obj));
            }
        }
        let release_clock = st.objects[obj].clock.clone();
        st.threads[tid].clock.join(&release_clock);
        st.objects[obj].owner = Some(tid);
        st.threads[tid].held.push(obj);
    }

    fn release_exclusive(&self, st: &mut Guard<'_>, tid: usize, obj: usize) {
        st.threads[tid].clock.bump(tid);
        let tc = st.threads[tid].clock.clone();
        let m = &mut st.objects[obj];
        m.clock.join(&tc);
        if m.owner == Some(tid) {
            m.owner = None;
        }
        st.threads[tid].held.retain(|&h| h != obj);
        for t in &mut st.threads {
            if t.state == RunState::Blocked(Block::Lock(obj)) {
                t.state = RunState::Runnable;
            }
        }
    }

    /// Model-level `Mutex::lock` (also rwlock write, once-init section).
    pub(crate) fn lock(&self, tid: usize, handle: &Handle, label: &'static str) {
        let mut st = self.op_enter(tid);
        if st.abort {
            return;
        }
        let obj = self.obj_id(&mut st, handle, label);
        st.note(tid, "lock", label);
        loop {
            if st.threads[tid].held.contains(&obj) {
                self.fail(
                    st,
                    FailureKind::Deadlock,
                    format!("t{tid} re-locked `{label}` it already holds (self-deadlock)"),
                );
            }
            let free = {
                let m = &st.objects[obj];
                m.owner.is_none() && m.readers.is_empty()
            };
            if free {
                self.acquire_exclusive(&mut st, tid, obj);
                if self.lock_cycle(&st, obj) {
                    self.fail(
                        st,
                        FailureKind::LockCycle,
                        format!("acquiring `{label}` closes a cycle in the lock-order graph"),
                    );
                }
                return;
            }
            st.threads[tid].state = RunState::Blocked(Block::Lock(obj));
            st = self.reschedule(st, tid, true);
            st = self.wait_turn(st, tid);
            if st.abort {
                return;
            }
        }
    }

    /// Model-level `Mutex::unlock` (guard drop). Not a scheduling point:
    /// the next operation's `op_enter` provides the preemption.
    pub(crate) fn unlock(&self, tid: usize, handle: &Handle, label: &'static str) {
        let mut st = self.lock_state();
        let obj = self.obj_id(&mut st, handle, label);
        st.note(tid, "unlock", label);
        self.release_exclusive(&mut st, tid, obj);
    }

    /// Model-level shared (read) lock.
    pub(crate) fn lock_shared(&self, tid: usize, handle: &Handle, label: &'static str) {
        let mut st = self.op_enter(tid);
        if st.abort {
            return;
        }
        let obj = self.obj_id(&mut st, handle, label);
        st.note(tid, "read", label);
        loop {
            if st.objects[obj].owner.is_none() {
                let held: Vec<usize> = st.threads[tid].held.clone();
                for h in held {
                    if h != obj {
                        st.lock_edges.insert((h, obj));
                    }
                }
                let release_clock = st.objects[obj].clock.clone();
                st.threads[tid].clock.join(&release_clock);
                st.objects[obj].readers.push(tid);
                st.threads[tid].held.push(obj);
                return;
            }
            st.threads[tid].state = RunState::Blocked(Block::Lock(obj));
            st = self.reschedule(st, tid, true);
            st = self.wait_turn(st, tid);
            if st.abort {
                return;
            }
        }
    }

    /// Model-level shared (read) unlock.
    pub(crate) fn unlock_shared(&self, tid: usize, handle: &Handle, label: &'static str) {
        let mut st = self.lock_state();
        let obj = self.obj_id(&mut st, handle, label);
        st.threads[tid].clock.bump(tid);
        let tc = st.threads[tid].clock.clone();
        let m = &mut st.objects[obj];
        m.clock.join(&tc);
        if let Some(pos) = m.readers.iter().position(|&r| r == tid) {
            m.readers.remove(pos);
        }
        st.threads[tid].held.retain(|&h| h != obj);
        if st.objects[obj].readers.is_empty() {
            for t in &mut st.threads {
                if t.state == RunState::Blocked(Block::Lock(obj)) {
                    t.state = RunState::Runnable;
                }
            }
        }
    }

    /// Model-level `Condvar::wait`: atomically release the mutex and
    /// park; on wakeup, reacquire the mutex before returning.
    pub(crate) fn condvar_wait(
        &self,
        tid: usize,
        cv_handle: &Handle,
        cv_label: &'static str,
        mutex_handle: &Handle,
        mutex_label: &'static str,
    ) {
        let mut st = self.op_enter(tid);
        if st.abort {
            return;
        }
        let cv = self.obj_id(&mut st, cv_handle, cv_label);
        st.note(tid, "wait", cv_label);
        let mx = self.obj_id(&mut st, mutex_handle, mutex_label);
        self.release_exclusive(&mut st, tid, mx);
        st.objects[cv].cv_waiters.push(tid);
        st.threads[tid].state = RunState::Blocked(Block::Cv(cv));
        st = self.reschedule(st, tid, true);
        st = self.wait_turn(st, tid);
        // Woken (or aborting): reacquire the mutex.
        loop {
            if st.abort {
                return;
            }
            let free = {
                let m = &st.objects[mx];
                m.owner.is_none() && m.readers.is_empty()
            };
            if free {
                self.acquire_exclusive(&mut st, tid, mx);
                return;
            }
            st.threads[tid].state = RunState::Blocked(Block::Lock(mx));
            st = self.reschedule(st, tid, true);
            st = self.wait_turn(st, tid);
        }
    }

    /// Model-level notify. `all` wakes every waiter; otherwise the
    /// longest-waiting thread (deterministic FIFO).
    pub(crate) fn condvar_notify(&self, tid: usize, handle: &Handle, label: &'static str, all: bool) {
        let mut st = self.op_enter(tid);
        if st.abort {
            return;
        }
        let cv = self.obj_id(&mut st, handle, label);
        st.note(tid, "notify", label);
        st.threads[tid].clock.bump(tid);
        let tc = st.threads[tid].clock.clone();
        let woken: Vec<usize> = if all {
            std::mem::take(&mut st.objects[cv].cv_waiters)
        } else if st.objects[cv].cv_waiters.is_empty() {
            Vec::new()
        } else {
            vec![st.objects[cv].cv_waiters.remove(0)]
        };
        for w in woken {
            st.threads[w].state = RunState::Runnable;
            st.threads[w].clock.join(&tc);
        }
    }

    /// Model-level atomic access: a scheduling point plus the
    /// acquire/release clock transfer the memory ordering implies. The
    /// value operation itself happens in the caller (exclusively — the
    /// token is held until its next operation).
    pub(crate) fn atomic_op(&self, tid: usize, handle: &Handle, label: &'static str, acquire: bool, release: bool) {
        let mut st = self.op_enter(tid);
        if st.abort {
            return;
        }
        let obj = self.obj_id(&mut st, handle, label);
        st.note(tid, "atomic", label);
        if acquire {
            let c = st.objects[obj].clock.clone();
            st.threads[tid].clock.join(&c);
        }
        if release {
            st.threads[tid].clock.bump(tid);
            let tc = st.threads[tid].clock.clone();
            st.objects[obj].clock.join(&tc);
        }
    }

    /// RaceCell access: happens-before check against every other
    /// thread's last conflicting access.
    pub(crate) fn cell_access(&self, tid: usize, handle: &Handle, label: &'static str, write: bool) {
        let mut st = self.op_enter(tid);
        if st.abort {
            return;
        }
        let obj = self.obj_id(&mut st, handle, label);
        let me = st.threads[tid].clock.clone();
        let mut conflict: Option<(usize, &'static str)> = None;
        {
            let m = &st.objects[obj];
            for u in 0..m.write_clock.len() {
                if u != tid && m.write_clock.get(u) > me.get(u) {
                    conflict = Some((u, "write"));
                }
            }
            if write && conflict.is_none() {
                for u in 0..m.read_clock.len() {
                    if u != tid && m.read_clock.get(u) > me.get(u) {
                        conflict = Some((u, "read"));
                    }
                }
            }
        }
        if let Some((other, what)) = conflict {
            let access = if write { "write" } else { "read" };
            self.fail(
                st,
                FailureKind::Race,
                format!(
                    "{access} of `{label}` by t{tid} is unordered with a prior {what} by \
                     t{other}: no happens-before edge connects them"
                ),
            );
        }
        let stamp = me.get(tid);
        let m = &mut st.objects[obj];
        if write {
            m.write_clock.set(tid, stamp);
        } else {
            m.read_clock.set(tid, stamp);
        }
    }

    /// Channel send: stamps the message with the sender's clock and
    /// wakes blocked receivers.
    pub(crate) fn chan_send(&self, tid: usize, handle: &Handle, label: &'static str) -> VClock {
        let mut st = self.op_enter(tid);
        if st.abort {
            return VClock::default();
        }
        let obj = self.obj_id(&mut st, handle, label);
        st.note(tid, "send", label);
        st.threads[tid].clock.bump(tid);
        let tc = st.threads[tid].clock.clone();
        for t in &mut st.threads {
            if t.state == RunState::Blocked(Block::Recv(obj)) {
                t.state = RunState::Runnable;
            }
        }
        tc
    }

    /// Channel receive: blocks until `try_pop` yields a message or
    /// `disconnected` reports every sender gone. `Err(())` maps to
    /// `RecvError`.
    pub(crate) fn chan_recv<T>(
        &self,
        tid: usize,
        handle: &Handle,
        label: &'static str,
        mut try_pop: impl FnMut() -> Option<(T, VClock)>,
        disconnected: impl Fn() -> bool,
    ) -> Result<T, ()> {
        let mut st = self.op_enter(tid);
        if st.abort {
            return Err(());
        }
        let obj = self.obj_id(&mut st, handle, label);
        st.note(tid, "recv", label);
        loop {
            if let Some((value, clock)) = try_pop() {
                st.threads[tid].clock.join(&clock);
                return Ok(value);
            }
            if disconnected() {
                return Err(());
            }
            st.threads[tid].state = RunState::Blocked(Block::Recv(obj));
            st = self.reschedule(st, tid, true);
            st = self.wait_turn(st, tid);
            if st.abort {
                return Err(());
            }
        }
    }

    /// Non-blocking channel receive: a scheduling point that takes the
    /// next message if one is queued (joining its sender's clock, as
    /// [`Execution::chan_recv`] does) and otherwise returns `None` at once.
    pub(crate) fn chan_try_recv<T>(
        &self,
        tid: usize,
        label: &'static str,
        try_pop: impl FnOnce() -> Option<(T, VClock)>,
    ) -> Option<T> {
        let mut st = self.op_enter(tid);
        if st.abort {
            return None;
        }
        st.note(tid, "try_recv", label);
        let (value, clock) = try_pop()?;
        st.threads[tid].clock.join(&clock);
        Some(value)
    }

    /// The last sender disconnected: wake blocked receivers so they can
    /// observe the hangup. Not a scheduling point (runs from drops).
    pub(crate) fn chan_hangup(&self, handle: &Handle, label: &'static str) {
        let mut st = self.lock_state();
        let obj = self.obj_id(&mut st, handle, label);
        for t in &mut st.threads {
            if t.state == RunState::Blocked(Block::Recv(obj)) {
                t.state = RunState::Runnable;
            }
        }
        drop(st);
        self.turn.notify_all();
    }

    /// Register a new model thread; returns its tid. The child starts
    /// runnable (it runs when first scheduled).
    pub(crate) fn spawn_thread(&self, parent: usize) -> usize {
        let mut st = self.op_enter(parent);
        let child = st.threads.len();
        st.threads[parent].clock.bump(parent);
        let mut clock = st.threads[parent].clock.clone();
        clock.set(child, 1);
        st.threads.push(ThreadInfo {
            state: RunState::Runnable,
            clock,
            held: Vec::new(),
        });
        child
    }

    /// First thing a model thread does: park until first scheduled.
    pub(crate) fn thread_begin(&self, tid: usize) {
        let st = self.lock_state();
        let _st = self.wait_turn(st, tid);
    }

    /// Last thing a model thread does: mark exited, wake joiners, hand
    /// off the token (detecting deadlock among the survivors).
    pub(crate) fn thread_exit(&self, tid: usize) {
        let mut st = self.lock_state();
        st.threads[tid].state = RunState::Exited;
        let tc = st.threads[tid].clock.clone();
        for t in &mut st.threads {
            if t.state == RunState::Blocked(Block::Join(tid)) {
                t.state = RunState::Runnable;
                t.clock.join(&tc);
            }
        }
        if !st.abort && st.current == tid {
            st = self.reschedule(st, tid, true);
        }
        drop(st);
        self.turn.notify_all();
    }

    /// Model-level join: park until `target` exits (idempotent).
    pub(crate) fn join_thread(&self, joiner: usize, target: usize) {
        let mut st = self.op_enter(joiner);
        loop {
            if st.abort {
                return;
            }
            if st.threads[target].state == RunState::Exited {
                let tc = st.threads[target].clock.clone();
                st.threads[joiner].clock.join(&tc);
                return;
            }
            st.threads[joiner].state = RunState::Blocked(Block::Join(target));
            st = self.reschedule(st, joiner, true);
            st = self.wait_turn(st, joiner);
        }
    }

    /// A pure preemption point (`yield_now`, model `sleep`).
    pub(crate) fn yield_op(&self, tid: usize) {
        let _st = self.op_enter(tid);
    }

    /// A child thread panicked with a real (non-abort) payload: record
    /// it as the execution's failure and abort the schedule.
    pub(crate) fn record_child_panic(&self, tid: usize, msg: String) {
        let mut st = self.lock_state();
        if st.failure.is_none() {
            let failure = Failure {
                kind: FailureKind::Panic,
                detail: format!("t{tid} panicked: {msg}"),
                iteration: st.iteration,
                schedule: st.trace.clone(),
            };
            st.failure = Some(failure);
        }
        st.abort = true;
        drop(st);
        self.turn.notify_all();
    }

    /// Root returned from the checked closure: mark it exited and wait
    /// for every other thread to finish (fails on deadlocked leftovers).
    fn finish_root(&self) {
        let mut st = self.lock_state();
        st.threads[0].state = RunState::Exited;
        if !st.abort && st.threads.iter().any(|t| t.state != RunState::Exited) {
            st = self.reschedule(st, 0, true);
        }
        drop(st);
        self.turn.notify_all();
    }

    /// Wait (std-level) until every non-root thread has exited, so no
    /// stale thread leaks into the next schedule.
    fn drain_threads(&self) {
        let mut st = self.lock_state();
        while st.threads.iter().any(|t| t.state != RunState::Exited) {
            if st.threads.iter().skip(1).all(|t| t.state == RunState::Exited) {
                // Only the root is unfinished; the controller owns it.
                break;
            }
            st = self.turn.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local execution context
// ---------------------------------------------------------------------------

/// A thread's registration in an active execution.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) exec: Arc<Execution>,
    pub(crate) tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// The calling thread's model context, if it belongs to an execution.
pub(crate) fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

struct CtxGuard {
    prev: Option<Ctx>,
}

impl CtxGuard {
    fn install(exec: Arc<Execution>, tid: usize) -> CtxGuard {
        let prev = CTX.with(|c| c.borrow_mut().replace(Ctx { exec, tid }));
        CtxGuard { prev }
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CTX.with(|c| *c.borrow_mut() = prev);
    }
}

/// Body wrapper for every spawned model thread: register, run, record
/// panics, deregister. Used by `crate::thread`.
pub(crate) fn thread_body<T>(exec: Arc<Execution>, tid: usize, f: impl FnOnce() -> T) -> T {
    let guard = CtxGuard::install(exec.clone(), tid);
    exec.thread_begin(tid);
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    if let Err(p) = &result {
        if !p.is::<ModelAbort>() {
            exec.record_child_panic(tid, payload_str(p.as_ref()));
        }
    }
    let exit = panic::catch_unwind(AssertUnwindSafe(|| exec.thread_exit(tid)));
    drop(guard);
    match result {
        Ok(v) => {
            if let Err(p) = exit {
                panic::resume_unwind(p);
            }
            v
        }
        Err(p) => panic::resume_unwind(p),
    }
}

// ---------------------------------------------------------------------------
// The exploration driver
// ---------------------------------------------------------------------------

/// Serializes model checks process-wide: object identity (epochs on
/// statics) assumes a single active execution.
fn check_gate() -> StdMutexGuard<'static, ()> {
    static GATE: StdMutex<()> = StdMutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Silence the panic-hook spam from [`ModelAbort`] unwinds (every
/// aborted schedule unwinds every thread); real panics still print.
fn install_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ModelAbort>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Model-check `f` under every schedule the configured strategy
/// generates, stopping at the first violation.
///
/// `f` runs once per schedule on the controller thread (model tid 0);
/// any thread it spawns through `shim_sync::thread` joins the execution.
/// All threads must be joined before `f` returns (scopes handle this).
pub fn check(name: &str, cfg: &Config, f: impl Fn()) -> Report {
    let _gate = check_gate();
    install_hook();
    let mut report = Report {
        name: name.to_string(),
        iterations: 0,
        max_depth: 0,
        complete: false,
        preemption_bound: match cfg.strategy {
            Strategy::Dfs => cfg.preemption_bound,
            Strategy::Random { .. } => None,
        },
        failure: None,
    };
    let mut prefix: Vec<ChoicePoint> = Vec::new();
    let mut seed = match cfg.strategy {
        Strategy::Random { seed } => Some(seed),
        Strategy::Dfs => None,
    };
    while report.iterations < cfg.max_iterations {
        report.iterations += 1;
        let rng = if let Some(s) = seed {
            let mut next = s;
            let _ = splitmix(&mut next);
            seed = Some(next);
            Some(s)
        } else {
            None
        };
        let exec = Arc::new(Execution::new(cfg, report.iterations, std::mem::take(&mut prefix), rng));
        let body = panic::catch_unwind(AssertUnwindSafe(|| {
            let _g = CtxGuard::install(exec.clone(), 0);
            f();
        }));
        let _fin = panic::catch_unwind(AssertUnwindSafe(|| exec.finish_root()));
        exec.drain_threads();
        let mut st = exec.lock_state();
        if let Err(p) = body {
            if st.failure.is_none() && !p.is::<ModelAbort>() {
                let failure = Failure {
                    kind: FailureKind::Panic,
                    detail: payload_str(p.as_ref()),
                    iteration: st.iteration,
                    schedule: st.trace.clone(),
                };
                st.failure = Some(failure);
            }
        }
        report.max_depth = report.max_depth.max(st.choices.len());
        if st.failure.is_some() {
            report.failure = st.failure.clone();
            break;
        }
        match cfg.strategy {
            Strategy::Random { .. } => {}
            Strategy::Dfs => {
                prefix = std::mem::take(&mut st.choices);
                drop(st);
                loop {
                    match prefix.last_mut() {
                        None => {
                            report.complete = true;
                            break;
                        }
                        Some(c) if c.taken + 1 < c.total => {
                            c.taken += 1;
                            break;
                        }
                        Some(_) => {
                            prefix.pop();
                        }
                    }
                }
                if report.complete {
                    break;
                }
            }
        }
    }
    report
}
