//! The adaptive fault-space planner: canonical-fault dedup, cross-run
//! memoization, static pruning of the misses, and optional yield-guided
//! prioritization.
//!
//! The paper's §3.2 adequacy metric and §3.3 step 5 assume the fault plan
//! enumerates the *useful* perturbation space, but a naive planner
//! materializes every `(site × catalog pattern)` pair and re-runs
//! byte-identical faults across the suite. This module sits between the
//! fault plan ([`crate::campaign::CampaignPlan`]) and the work-stealing
//! [`crate::engine::Executor`] and prunes that space without losing a
//! single detection:
//!
//! 1. **Canonicalization** — every planned job collapses to a
//!    content-addressed [`FaultKey`]: fault variant + normalized target +
//!    struck occurrence (+ input semantics for indirect faults). Identity
//!    fields that cannot change what the run *does* — the fault id, its
//!    human-readable description, its EAI category label — are excluded,
//!    so two catalog patterns that compile to the same executable
//!    perturbation share a key.
//! 2. **Dedup** — within one plan, only the first job of each key executes;
//!    the rest are *aliases*, replayed from the canonical job's
//!    [`RunDigest`] with their own identity fields and `cache_hit: true`.
//! 3. **Memoization, first** — a suite-scoped [`ResultCache`] maps
//!    `(setup fingerprint, FaultKey) -> RunDigest`. Identical runs across
//!    applications, repeated campaigns, or whole suite re-executions are
//!    replayed from cache instead of re-executed. The fingerprint
//!    ([`crate::campaign::TestSetup::fingerprint`]) is a structural hash of
//!    the frozen world, computed once per campaign, not once per run.
//! 4. **Static pruning, of the misses only** — a job the cache does not
//!    answer goes to the analyzer's [`PruneFn`]; a provably inert job
//!    replays a synthesized clean-run digest as `pruned`. Pruned digests are
//!    never saved, so a warm pass asks the analyzer about those jobs alone.
//! 5. **Prioritization** (opt-in) — with
//!    [`crate::campaign::CampaignOptions::plan_budget`] set, remaining jobs
//!    are ordered by observed per-EAI-category verdict yield ([`YieldStats`])
//!    and only `budget` runs execute. The default (`None`) keeps exhaustive
//!    plan order, so all paper numbers are reproduced exactly.
//!
//! Cache hits never become executor jobs of their own: a campaign's
//! [`Schedule`] — keys, dedup, every cache or store lookup, then static
//! pruning of what missed — is built once, inside that campaign's planning
//! job, on whichever pool thread runs it (in a suite, a spawned worker or
//! the calling thread working as worker 0). Only the true misses are handed
//! back to the pool as injected-run jobs, each carrying its key.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hasher;

use serde::{Deserialize, Serialize};
use shim_sync::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::inject::InjectionPlan;
use crate::model::EaiCategory;
use crate::perturb::{DirectFault, FaultPayload};
use crate::report::FaultRecord;
use crate::store::ResultStore;

/// 64-bit FNV-1a over a byte string — the workspace's content-address hash
/// (stable across runs and platforms, no external dependency).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a::default();
    hasher.write(bytes);
    hasher.finish()
}

/// [`fnv1a`] as a [`Hasher`], for hashing structured values through their
/// [`std::hash::Hash`] impls: bytes written in pieces hash as their
/// concatenation. Integers are written little-endian and `usize` as `u64`,
/// so a value hashes the same on every platform.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.write(&n.to_le_bytes());
    }

    fn write_u32(&mut self, n: u32) {
        self.write(&n.to_le_bytes());
    }

    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The payload with its file-system target fields lexically cleaned
/// ([`epa_sandbox::path::clean`]: `//` and `.` collapsed), so two catalog
/// entries addressing the same object through cosmetically different
/// spellings canonicalize to one [`FaultKey`]. `..` components are
/// deliberately **kept**: the VFS resolves them physically (across
/// symlinked directories), so textual `..` resolution could conflate
/// faults that actually strike different inodes. Indirect faults are
/// returned untouched: they are literal value mutations and their planted
/// text must stay byte-exact.
///
/// Cleaning goes through the process-wide path interner
/// ([`epa_sandbox::intern`]): a campaign canonicalizes the same catalog
/// targets over and over, so after the first job per target the clean is
/// a table hit instead of a re-scan.
fn normalized_payload(payload: &FaultPayload) -> FaultPayload {
    let FaultPayload::Direct(df) = payload else {
        return payload.clone();
    };
    let n = |p: &str| epa_sandbox::intern::intern(p).as_str().to_string();
    let direct = match df {
        DirectFault::FileMakeExist { path } => DirectFault::FileMakeExist { path: n(path) },
        DirectFault::FileMakeMissing { path } => DirectFault::FileMakeMissing { path: n(path) },
        DirectFault::FileChownAttacker { path } => DirectFault::FileChownAttacker { path: n(path) },
        DirectFault::FileChownRoot { path } => DirectFault::FileChownRoot { path: n(path) },
        DirectFault::FilePermRestrict { path } => DirectFault::FilePermRestrict { path: n(path) },
        DirectFault::FilePermOpen { path } => DirectFault::FilePermOpen { path: n(path) },
        DirectFault::FilePermNoExec { path } => DirectFault::FilePermNoExec { path: n(path) },
        DirectFault::SymlinkSwap { path, target } => DirectFault::SymlinkSwap {
            path: n(path),
            target: n(target),
        },
        DirectFault::ModifyContent { path, content } => DirectFault::ModifyContent {
            path: n(path),
            content: content.clone(),
        },
        DirectFault::RenameAway { path } => DirectFault::RenameAway { path: n(path) },
        DirectFault::WorkingDirectory { dir } => DirectFault::WorkingDirectory { dir: n(dir) },
        other => other.clone(),
    };
    FaultPayload::Direct(direct)
}

/// The content-addressed canonical identity of one planned injection.
///
/// Two jobs with equal keys perform byte-identical perturbations at the
/// same point of the same execution, so they must produce byte-identical
/// outcomes; the planner executes one and replays the other.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultKey {
    repr: String,
    digest: u64,
}

impl FaultKey {
    /// Canonicalizes a planned injection.
    ///
    /// The key covers everything that determines execution: the targeted
    /// site, the struck occurrence (normalized to 0 for faults that are not
    /// [`crate::perturb::ConcreteFault::occurrence_sensitive`] — the hook
    /// strikes the first matching input for those regardless of the planned
    /// occurrence), the input semantics an indirect fault is aimed at, and
    /// the normalized executable payload. It deliberately excludes the
    /// fault id, description, and EAI category: those ride along on the
    /// record but cannot change what the run does.
    pub fn of(job: &InjectionPlan) -> FaultKey {
        let occurrence = if job.fault.occurrence_sensitive() {
            job.occurrence
        } else {
            0
        };
        let semantic = match job.fault.semantic {
            Some(s) => format!("{s:?}"),
            None => "-".to_string(),
        };
        let payload = serde_json::to_string(&normalized_payload(&job.fault.payload))
            .expect("fault payloads serialize infallibly");
        let repr = format!("{}#{occurrence}|{semantic}|{payload}", job.site);
        let digest = fnv1a(repr.as_bytes());
        FaultKey { repr, digest }
    }

    /// A key from raw canonical text — for concurrency test fixtures
    /// only (the model-check protocol fixtures and the panicking-claimant
    /// regression test), which exercise the claim protocol without
    /// dragging the whole payload machinery into the explored state
    /// space.
    pub fn synthetic(repr: &str) -> FaultKey {
        FaultKey {
            repr: repr.to_string(),
            digest: fnv1a(repr.as_bytes()),
        }
    }

    /// The canonical text the key hashes.
    pub fn repr(&self) -> &str {
        &self.repr
    }

    /// The FNV-1a content address of [`FaultKey::repr`].
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl fmt::Display for FaultKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.digest)
    }
}

/// The outcome fields of one executed run — everything a [`FaultRecord`]
/// carries except the plan-side identity (site, occurrence, fault id,
/// category, description), which each replayed record takes from its own
/// job.
///
/// Serializable: this is the payload of a persistent
/// [`crate::store::DiskStore`] entry, wrapped in the versioned,
/// checksummed wire format of [`crate::store::encode_entry`]. A field
/// change here is a wire-format change — bump
/// [`crate::store::STORE_FORMAT_VERSION`] with it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunDigest {
    /// Whether the fault fired during the run.
    pub applied: bool,
    /// The application's exit status.
    pub exit: Option<i32>,
    /// The panic payload, if the application crashed.
    pub crashed: Option<String>,
    /// Length of the run's audit log.
    pub audit_events: usize,
    /// The oracle's verdicts, with evidence chains.
    pub violations: Vec<epa_sandbox::policy::Verdict>,
}

impl RunDigest {
    /// Extracts the outcome of an executed record.
    pub fn of(record: &FaultRecord) -> RunDigest {
        RunDigest {
            applied: record.applied,
            exit: record.exit,
            crashed: record.crashed.clone(),
            audit_events: record.audit_events,
            violations: record.violations.clone(),
        }
    }

    /// Materializes a record for `job` from this digest: identity fields
    /// from the job, outcome fields from the digest, flagged as a replay.
    pub fn replay(&self, job: &InjectionPlan) -> FaultRecord {
        FaultRecord {
            site: job.site.to_string(),
            occurrence: job.occurrence,
            fault_id: job.fault.id.clone(),
            category: job.fault.category,
            description: job.fault.description.clone(),
            applied: self.applied,
            exit: self.exit,
            crashed: self.crashed.clone(),
            audit_events: self.audit_events,
            cache_hit: true,
            pruned: false,
            violations: self.violations.clone(),
        }
    }

    /// Materializes a record for `job` from this digest, flagged as
    /// **statically pruned**: the analysis layer proved the fault inert and
    /// synthesized this digest from the clean run, so no run (and no cache
    /// entry) backs it. Mirrors [`RunDigest::replay`], with `pruned` set
    /// instead of `cache_hit`.
    pub fn replay_pruned(&self, job: &InjectionPlan) -> FaultRecord {
        FaultRecord {
            site: job.site.to_string(),
            occurrence: job.occurrence,
            fault_id: job.fault.id.clone(),
            category: job.fault.category,
            description: job.fault.description.clone(),
            applied: self.applied,
            exit: self.exit,
            crashed: self.crashed.clone(),
            audit_events: self.audit_events,
            cache_hit: false,
            pruned: true,
            violations: self.violations.clone(),
        }
    }
}

/// Observable counters of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Distinct `(scope, key)` entries in the in-memory hot tier.
    pub entries: usize,
    /// Lookups that found a digest (hot tier or backend).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// The subset of `hits` served by the persistent backend (and promoted
    /// into the hot tier) rather than by process-local memory.
    pub store_hits: u64,
}

/// One memo slot: either an in-flight claim or a completed digest.
#[derive(Debug, Clone)]
enum CacheSlot {
    /// Some thread holds a [`ClaimToken`] for this key and is executing the
    /// run right now; concurrent claimants block in [`ResultCache::begin`]
    /// until the slot turns [`CacheSlot::Ready`] (or the claim is
    /// abandoned).
    Pending,
    /// The run completed with this digest.
    Ready(RunDigest),
}

#[derive(Default)]
struct CacheInner {
    /// Scope → canonical key text → slot. Two levels so lookups index by
    /// `&str` without cloning the (payload-carrying) key text; the text is
    /// only cloned on an actual insertion.
    map: BTreeMap<u64, BTreeMap<String, CacheSlot>>,
    hits: u64,
    misses: u64,
    store_hits: u64,
}

#[derive(Default)]
struct CacheShared {
    state: Mutex<CacheInner>,
    /// Signalled whenever a slot changes state (fulfilled or abandoned),
    /// waking [`ResultCache::begin`] waiters.
    settled: Condvar,
    /// The persistent tier, when configured. Consulted outside the state
    /// lock (disk I/O must not stall waiters); hits are promoted into the
    /// in-memory map, so each `(scope, key)` pays for the disk at most
    /// once per process. `None` = memory-only, the pre-store behavior.
    backend: Option<Arc<dyn ResultStore>>,
}

impl CacheShared {
    /// Publishes `digest` into the in-memory map unless a completed digest
    /// already occupies the slot (an in-flight claim is overwritten: by
    /// the scope/key contract the claimant is computing this exact
    /// digest). Returns with waiters still asleep; callers notify.
    fn promote(state: &mut CacheInner, scope: u64, repr: &str, digest: &RunDigest) {
        let slot = state.map.entry(scope).or_default().entry(repr.to_string());
        match slot {
            std::collections::btree_map::Entry::Occupied(mut o) => {
                if matches!(o.get(), CacheSlot::Pending) {
                    o.insert(CacheSlot::Ready(digest.clone()));
                }
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(CacheSlot::Ready(digest.clone()));
            }
        }
    }
}

/// A suite-scoped memo of executed runs: `(scope, FaultKey) -> RunDigest`.
///
/// `scope` is the campaign's setup fingerprint (application identity plus
/// the frozen world's content hash — see
/// [`crate::campaign::TestSetup::fingerprint`]), so a hit is only possible
/// when the *entire* run would be byte-identical. Entries are keyed by the
/// key's full canonical text, not its 64-bit digest, so hash collisions
/// cannot replay the wrong run.
///
/// The handle is cheaply cloneable (`Arc`-backed) and thread-safe; a
/// [`crate::engine::Suite`] installs one shared cache across all of its
/// campaigns, and callers can hold onto it across suite executions for
/// cross-run memoization. For cross-**process** memoization, layer the
/// cache over a persistent [`crate::store::ResultStore`] backend
/// ([`ResultCache::with_store`] / [`ResultCache::persistent`]): the
/// in-memory map stays the hot tier — lock-cheap, claim-coordinating —
/// and the backend serves first-touch hits and receives every completed
/// digest.
///
/// Beyond completed digests the cache tracks *in-flight claims*
/// ([`ResultCache::begin`]): when two threads — pool workers, or two
/// whole suites sharing one cache — race to execute the same
/// `(scope, key)`, exactly one wins the claim and executes; the others
/// block until the winner's digest lands and then replay it. No
/// `(fingerprint, FaultKey)` ever executes twice through claim-aware call
/// paths.
#[derive(Clone, Default)]
pub struct ResultCache {
    inner: Arc<CacheShared>,
}

/// The outcome of [`ResultCache::begin`]: either a digest to replay, or an
/// exclusive license to execute the run.
#[derive(Debug)]
pub enum Claim {
    /// An identical run already completed (possibly on another thread,
    /// which this call waited for): replay its digest.
    Replay(RunDigest),
    /// This caller owns the run. Execute it and call
    /// [`ClaimToken::fulfill`]; dropping the token unfulfilled (for
    /// example, during a panic) abandons the claim and wakes any waiters
    /// so one of them can claim instead.
    Execute(ClaimToken),
}

/// Exclusive license to execute one `(scope, key)` run; see [`Claim`].
pub struct ClaimToken {
    shared: Arc<CacheShared>,
    scope: u64,
    repr: String,
    fulfilled: bool,
}

impl fmt::Debug for ClaimToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClaimToken")
            .field("scope", &self.scope)
            .field("repr", &self.repr)
            .field("fulfilled", &self.fulfilled)
            .finish()
    }
}

impl ClaimToken {
    /// Publishes the executed run's digest, releasing every waiter blocked
    /// on this claim and writing through to the persistent backend.
    pub fn fulfill(mut self, digest: RunDigest) {
        {
            let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            state
                .map
                .entry(self.scope)
                .or_default()
                .insert(self.repr.clone(), CacheSlot::Ready(digest.clone()));
        }
        self.fulfilled = true;
        self.shared.settled.notify_all();
        if let Some(backend) = &self.shared.backend {
            backend.save(self.scope, &FaultKey::synthetic(&self.repr), &digest);
        }
    }
}

impl Drop for ClaimToken {
    fn drop(&mut self) {
        if self.fulfilled {
            return;
        }
        // Abandon: clear the pending slot (unless someone already published
        // a digest over it) and wake waiters so one of them re-claims.
        // Recover from poison rather than panicking inside a panic.
        let mut state = self.shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(slots) = state.map.get_mut(&self.scope) {
            if matches!(slots.get(self.repr.as_str()), Some(CacheSlot::Pending)) {
                slots.remove(self.repr.as_str());
            }
        }
        drop(state);
        self.shared.settled.notify_all();
    }
}

impl ResultCache {
    /// An empty, memory-only cache.
    pub fn new() -> ResultCache {
        ResultCache::default()
    }

    /// A cache layered over a [`ResultStore`] backend: the in-memory map
    /// stays the hot tier (and the claim-coordination layer — hot keys
    /// never touch the backend), while every completed digest is written
    /// through to `store` and backend hits are promoted on first touch.
    pub fn with_store(store: Arc<dyn ResultStore>) -> ResultCache {
        ResultCache {
            inner: Arc::new(CacheShared {
                backend: Some(store),
                ..CacheShared::default()
            }),
        }
    }

    /// A cache backed by a persistent [`crate::store::DiskStore`] at
    /// `dir` — the one-call setup for cross-process memoization.
    ///
    /// # Errors
    ///
    /// Any [`crate::store::DiskStore::open`] failure (filesystem errors, a
    /// foreign store version, a non-empty non-store directory).
    pub fn persistent(dir: impl AsRef<std::path::Path>) -> std::io::Result<ResultCache> {
        Ok(ResultCache::with_store(Arc::new(crate::store::DiskStore::open(dir)?)))
    }

    /// The persistent backend, when one is configured.
    pub fn store(&self) -> Option<&Arc<dyn ResultStore>> {
        self.inner.backend.as_ref()
    }

    /// The state lock, recovering from poison: a job that panics mid-run
    /// unwinds through cache operations, and the cache's invariants hold
    /// at every drop of the guard, so the racing suite must keep going —
    /// a poisoned mutex here would turn one bad job into a suite-wide
    /// liveness failure (every later `begin`/`lookup`/`fulfill` panicking
    /// in turn).
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up the digest of an identical prior run, counting the outcome.
    ///
    /// Never blocks on other threads: an in-flight claim reads as a miss,
    /// so schedule construction (a suite planning job, sharing its pool
    /// thread with every other job) stays non-blocking; the executing path resolves the race in
    /// [`ResultCache::begin`] instead. A vacant slot consults the
    /// persistent backend (outside the lock) and promotes a hit into the
    /// hot tier, so the disk is read at most once per `(scope, key)`.
    pub fn lookup(&self, scope: u64, key: &FaultKey) -> Option<RunDigest> {
        let mut inner = self.lock();
        match inner.map.get(&scope).and_then(|m| m.get(key.repr())) {
            Some(CacheSlot::Ready(d)) => {
                let d = d.clone();
                inner.hits += 1;
                Some(d)
            }
            Some(CacheSlot::Pending) => {
                inner.misses += 1;
                None
            }
            None => {
                let Some(backend) = &self.inner.backend else {
                    inner.misses += 1;
                    return None;
                };
                drop(inner);
                let fetched = backend.load(scope, key);
                let mut inner = self.lock();
                match fetched {
                    Some(d) => {
                        CacheShared::promote(&mut inner, scope, key.repr(), &d);
                        inner.hits += 1;
                        inner.store_hits += 1;
                        drop(inner);
                        // The promotion may have settled a claim raced in
                        // while the lock was down; wake its waiters.
                        self.inner.settled.notify_all();
                        Some(d)
                    }
                    None => {
                        inner.misses += 1;
                        None
                    }
                }
            }
        }
    }

    /// Claims the right to execute `(scope, key)`, or waits out a
    /// concurrent executor and replays its digest.
    ///
    /// Exactly one caller receives [`Claim::Execute`] per unsettled key;
    /// everyone else blocks until the claim settles. A completed digest
    /// returns [`Claim::Replay`] immediately. Callers must not hold the
    /// returned token across another `begin` on the same thread (the
    /// engine executes one job at a time per worker, so this cannot
    /// deadlock in practice).
    pub fn begin(&self, scope: u64, key: &FaultKey) -> Claim {
        let mut state = self.lock();
        // The backend is consulted at most once per call: on the first
        // vacant sighting, outside the lock. A second vacant sighting
        // (the entry was abandoned while we read the disk) claims
        // directly — the disk answer cannot have changed, only this
        // process writes it through.
        let mut backend_checked = false;
        loop {
            match state.map.get(&scope).and_then(|m| m.get(key.repr())) {
                Some(CacheSlot::Ready(d)) => {
                    let d = d.clone();
                    state.hits += 1;
                    return Claim::Replay(d);
                }
                Some(CacheSlot::Pending) => {
                    state = self.inner.settled.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
                None => {
                    if !backend_checked {
                        if let Some(backend) = &self.inner.backend {
                            drop(state);
                            let fetched = backend.load(scope, key);
                            backend_checked = true;
                            state = self.lock();
                            if let Some(d) = fetched {
                                CacheShared::promote(&mut state, scope, key.repr(), &d);
                                state.hits += 1;
                                state.store_hits += 1;
                                drop(state);
                                self.inner.settled.notify_all();
                                return Claim::Replay(d);
                            }
                            // Re-match: the slot may have changed while
                            // the lock was down.
                            continue;
                        }
                    }
                    state
                        .map
                        .entry(scope)
                        .or_default()
                        .insert(key.repr().to_string(), CacheSlot::Pending);
                    state.misses += 1;
                    return Claim::Execute(ClaimToken {
                        shared: Arc::clone(&self.inner),
                        scope,
                        repr: key.repr().to_string(),
                        fulfilled: false,
                    });
                }
            }
        }
    }

    /// Stores the digest of an executed run, settling any in-flight claim
    /// for the same key and writing through to the persistent backend.
    pub fn insert(&self, scope: u64, key: &FaultKey, digest: RunDigest) {
        {
            let mut inner = self.lock();
            inner
                .map
                .entry(scope)
                .or_default()
                .insert(key.repr.clone(), CacheSlot::Ready(digest.clone()));
        }
        self.inner.settled.notify_all();
        if let Some(backend) = &self.inner.backend {
            backend.save(scope, key, &digest);
        }
    }

    /// Current counters. `entries` counts the in-memory hot tier's
    /// completed digests only — not in-flight claims, and not backend
    /// entries that were never touched this process.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner
                .map
                .values()
                .flat_map(BTreeMap::values)
                .filter(|slot| matches!(slot, CacheSlot::Ready(_)))
                .count(),
            hits: inner.hits,
            misses: inner.misses,
            store_hits: inner.store_hits,
        }
    }
}

impl fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("ResultCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("store_hits", &stats.store_hits)
            .field("backend", &self.inner.backend.as_ref().map_or("none", |b| b.kind()))
            .finish()
    }
}

/// One plan's jobs after canonicalization: who executes, who replays.
///
/// Indices throughout refer to positions in the job list the schedule was
/// built from (plan order).
#[derive(Debug)]
pub struct Schedule {
    keys: Vec<FaultKey>,
    canonical: Vec<usize>,
    aliases: BTreeMap<usize, Vec<usize>>,
    /// Canonical jobs resolved from the [`ResultCache`] at schedule time,
    /// with their digests — these (and their aliases) replay inline and
    /// never reach the executor or the analyzer.
    pub resolved: Vec<(usize, RunDigest)>,
    /// Canonical cache misses the static analysis proved inert at schedule
    /// time, with their synthesized clean-run digests — these (and their
    /// aliases) replay inline as `pruned` records, never reach the
    /// executor, and are never saved to the cache.
    pub pruned: Vec<(usize, RunDigest)>,
    /// Canonical jobs that must execute, in plan order.
    pub pending: Vec<usize>,
}

/// A static pruning oracle for [`Schedule::build`], asked only about jobs
/// the cache missed: `Some(digest)` means the job is provably inert and
/// `digest` is the synthesized outcome to replay (never saved to the
/// cache); `None` means the job must execute. Must be content-
/// deterministic per job (equal jobs ⇒ equal answers) so canonicalization
/// on or off classifies identically.
pub type PruneFn<'a> = &'a dyn Fn(&InjectionPlan) -> Option<RunDigest>;

impl Schedule {
    /// Canonicalizes `jobs` and splits them into cache-resolved replays,
    /// statically pruned replays, and pending executions.
    ///
    /// Per canonical job the cache is consulted **first**, and `prune` only
    /// on a miss: replaying a stored digest is cheaper than proving the job
    /// inert, so a warm pass classifies only the jobs the cache cannot
    /// answer. Pruned digests are never saved, so with pruning on the
    /// inert jobs miss every time and still replay as `pruned`; a job that
    /// a store holds as executed (written with pruning off) replays as
    /// `cache_hit` instead, with the same outcome. With `dedup` off every
    /// job is its own canonical (no aliasing); the cache, when given, is
    /// still consulted per job. With no dedup, no cache, and no pruner this
    /// degenerates to the exhaustive plan: every job pending, in plan order.
    pub fn build(
        jobs: &[InjectionPlan],
        scope: u64,
        cache: Option<&ResultCache>,
        dedup: bool,
        prune: Option<PruneFn<'_>>,
    ) -> Schedule {
        let keys: Vec<FaultKey> = jobs.iter().map(FaultKey::of).collect();
        let mut first_of: BTreeMap<&str, usize> = BTreeMap::new();
        let mut canonical = Vec::with_capacity(jobs.len());
        let mut aliases: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, key) in keys.iter().enumerate() {
            let canon = if dedup {
                *first_of.entry(key.repr()).or_insert(i)
            } else {
                i
            };
            canonical.push(canon);
            if canon != i {
                aliases.entry(canon).or_default().push(i);
            }
        }
        let mut resolved = Vec::new();
        let mut pruned = Vec::new();
        let mut pending = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if canonical[i] != i {
                continue;
            }
            if let Some(digest) = cache.and_then(|c| c.lookup(scope, key)) {
                resolved.push((i, digest));
            } else if let Some(digest) = prune.and_then(|p| p(&jobs[i])) {
                pruned.push((i, digest));
            } else {
                pending.push(i);
            }
        }
        Schedule {
            keys,
            canonical,
            aliases,
            resolved,
            pruned,
            pending,
        }
    }

    /// The canonical key of job `idx`.
    pub fn key(&self, idx: usize) -> &FaultKey {
        &self.keys[idx]
    }

    /// The canonical job index job `idx` collapsed onto (itself when it is
    /// the canonical).
    pub fn canonical_of(&self, idx: usize) -> usize {
        self.canonical[idx]
    }

    /// The later plan positions that replay canonical job `idx`.
    pub fn aliases_of(&self, idx: usize) -> &[usize] {
        self.aliases.get(&idx).map_or(&[], Vec::as_slice)
    }

    /// Total jobs the schedule covers.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the schedule covers no jobs.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Per-EAI-category verdict-yield statistics driving budgeted
/// prioritization.
///
/// Every observed record updates its category's `(runs, violated)` pair;
/// [`YieldStats::pick`] selects the remaining job whose category currently
/// scores highest under a Laplace-smoothed yield estimate
/// `(violated + 1) / (runs + 2)`, breaking ties toward the earliest plan
/// position. Unobserved categories score 0.5 — optimistic enough to get
/// sampled, pessimistic enough that a productive category dominates.
#[derive(Debug, Clone, Default)]
pub struct YieldStats {
    by_category: BTreeMap<EaiCategory, (usize, usize)>,
}

impl YieldStats {
    /// An empty observer.
    pub fn new() -> YieldStats {
        YieldStats::default()
    }

    /// Folds one record (executed or replayed) into the statistics.
    pub fn observe(&mut self, category: EaiCategory, violated: bool) {
        let e = self.by_category.entry(category).or_insert((0, 0));
        e.0 += 1;
        if violated {
            e.1 += 1;
        }
    }

    /// The current yield score of a category.
    pub fn score(&self, category: EaiCategory) -> f64 {
        let (runs, violated) = self.by_category.get(&category).copied().unwrap_or((0, 0));
        (violated + 1) as f64 / (runs + 2) as f64
    }

    /// Picks the position (into `remaining`) of the next job to run:
    /// highest category score, ties to the lowest plan index.
    /// Deterministic for a given observation history.
    pub fn pick(&self, remaining: &[usize], jobs: &[InjectionPlan]) -> usize {
        let mut best = 0usize;
        let mut best_score = f64::MIN;
        for (pos, &idx) in remaining.iter().enumerate() {
            let s = self.score(jobs[idx].fault.category);
            if s > best_score {
                best = pos;
                best_score = s;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::IndirectKind;
    use crate::perturb::{ConcreteFault, IndirectFault};
    use epa_sandbox::trace::{InputSemantic, SiteId};

    fn direct_job(id: &str, site: &str, occurrence: usize, path: &str) -> InjectionPlan {
        InjectionPlan {
            site: SiteId::new(site),
            occurrence,
            fault: ConcreteFault {
                id: id.to_string(),
                category: EaiCategory::Other,
                semantic: None,
                description: format!("make {path} exist"),
                payload: FaultPayload::Direct(DirectFault::FileMakeExist { path: path.to_string() }),
            },
        }
    }

    fn indirect_job(id: &str, site: &str, occurrence: usize) -> InjectionPlan {
        InjectionPlan {
            site: SiteId::new(site),
            occurrence,
            fault: ConcreteFault {
                id: id.to_string(),
                category: EaiCategory::Indirect(IndirectKind::UserInput),
                semantic: Some(InputSemantic::UserFileName),
                description: "lengthen".to_string(),
                payload: FaultPayload::Indirect(IndirectFault::Lengthen { by: 64 }),
            },
        }
    }

    #[test]
    fn equivalent_payloads_share_a_key_distinct_ids_do_not_matter() {
        let a = direct_job("direct:fs:exist@/tmp/f", "s", 0, "/tmp/f");
        let b = direct_job("some:other:id", "s", 0, "/tmp//./f");
        assert_eq!(FaultKey::of(&a), FaultKey::of(&b));
        let c = direct_job("direct:fs:exist@/tmp/g", "s", 0, "/tmp/g");
        assert_ne!(FaultKey::of(&a), FaultKey::of(&c));
        let d = direct_job("direct:fs:exist@/tmp/f", "other-site", 0, "/tmp/f");
        assert_ne!(FaultKey::of(&a), FaultKey::of(&d), "the struck site changes the run");
    }

    #[test]
    fn dotdot_targets_never_dedup_lexically() {
        // The VFS resolves `..` physically (across symlinked parents), so
        // `/var/run/../f` and `/var/f` may be different inodes — their
        // faults must keep distinct keys.
        let via_parent = direct_job("x", "s", 0, "/var/run/../f");
        let direct = direct_job("y", "s", 0, "/var/f");
        assert_ne!(FaultKey::of(&via_parent), FaultKey::of(&direct));
    }

    #[test]
    fn occurrence_canonicalizes_only_for_semantics_addressed_faults() {
        // Direct faults are occurrence-sensitive: later hits are distinct.
        let d0 = direct_job("x", "s", 0, "/tmp/f");
        let d1 = direct_job("x", "s", 1, "/tmp/f");
        assert_ne!(FaultKey::of(&d0), FaultKey::of(&d1));
        // Semantics-addressed indirect faults strike the first matching
        // input regardless of the planned occurrence: the keys collapse.
        let i0 = indirect_job("y", "s", 0);
        let i1 = indirect_job("y", "s", 1);
        assert_eq!(FaultKey::of(&i0), FaultKey::of(&i1));
    }

    #[test]
    fn schedule_dedups_within_a_plan() {
        let jobs = vec![
            direct_job("a", "s", 0, "/tmp/f"),
            direct_job("b", "s", 0, "/tmp//f"),
            direct_job("c", "s", 0, "/tmp/g"),
        ];
        let schedule = Schedule::build(&jobs, 7, None, true, None);
        assert_eq!(schedule.pending, vec![0, 2]);
        assert_eq!(schedule.canonical_of(1), 0);
        assert_eq!(schedule.aliases_of(0), &[1]);
        assert!(schedule.resolved.is_empty());
        assert_eq!(schedule.len(), 3);
        // With dedup off every job stands alone.
        let exhaustive = Schedule::build(&jobs, 7, None, false, None);
        assert_eq!(exhaustive.pending, vec![0, 1, 2]);
        assert!(exhaustive.aliases_of(0).is_empty());
    }

    #[test]
    fn cache_resolves_across_schedules_and_scopes_isolate() {
        let jobs = vec![direct_job("a", "s", 0, "/tmp/f")];
        let cache = ResultCache::new();
        let first = Schedule::build(&jobs, 1, Some(&cache), true, None);
        assert_eq!(first.pending, vec![0]);
        let digest = RunDigest {
            applied: true,
            exit: Some(0),
            crashed: None,
            audit_events: 3,
            violations: Vec::new(),
        };
        cache.insert(1, first.key(0), digest.clone());
        // Same scope: replayed. Different scope (another app/world): miss.
        let again = Schedule::build(&jobs, 1, Some(&cache), true, None);
        assert!(again.pending.is_empty());
        assert_eq!(again.resolved.len(), 1);
        assert_eq!(again.resolved[0].1, digest);
        let other = Schedule::build(&jobs, 2, Some(&cache), true, None);
        assert_eq!(other.pending, vec![0]);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.hits >= 1 && stats.misses >= 2);
    }

    #[test]
    fn the_pruner_sees_only_cache_misses_and_pruned_digests_are_not_saved() {
        let jobs = vec![direct_job("a", "s", 0, "/tmp/f"), direct_job("b", "s", 0, "/tmp/g")];
        let digest = RunDigest {
            applied: false,
            exit: Some(0),
            crashed: None,
            audit_events: 1,
            violations: Vec::new(),
        };
        let asked = std::cell::RefCell::new(Vec::new());
        let prune = |job: &InjectionPlan| {
            asked.borrow_mut().push(job.fault.id.clone());
            Some(digest.clone())
        };
        let cache = ResultCache::new();
        cache.insert(4, &FaultKey::of(&jobs[0]), digest.clone());
        let schedule = Schedule::build(&jobs, 4, Some(&cache), true, Some(&prune));
        assert_eq!(*asked.borrow(), ["b"], "the cached job is never classified");
        assert_eq!(schedule.resolved, vec![(0, digest.clone())]);
        assert_eq!(schedule.pruned, vec![(1, digest)]);
        assert!(schedule.pending.is_empty());
        assert_eq!(cache.stats().entries, 1, "the pruned digest is not saved");
    }

    #[test]
    fn replayed_records_keep_their_own_identity() {
        let canon = direct_job("direct:fs:exist@/tmp/f", "s", 0, "/tmp/f");
        let alias = direct_job("another:pattern", "s", 0, "/tmp//f");
        let digest = RunDigest {
            applied: true,
            exit: Some(1),
            crashed: None,
            audit_events: 9,
            violations: Vec::new(),
        };
        let r = digest.replay(&alias);
        assert_eq!(r.fault_id, "another:pattern");
        assert_eq!(r.site, "s");
        assert!(r.cache_hit);
        assert_eq!(r.exit, Some(1));
        assert_eq!(r.audit_events, 9);
        let c = digest.replay(&canon);
        assert_eq!(c.fault_id, "direct:fs:exist@/tmp/f");
    }

    #[test]
    fn yield_stats_prioritize_productive_categories_deterministically() {
        let jobs = vec![
            indirect_job("i0", "s", 0),         // Indirect(UserInput)
            direct_job("d0", "s", 0, "/tmp/f"), // Other
            direct_job("d1", "s", 0, "/tmp/g"), // Other
        ];
        let mut stats = YieldStats::new();
        // Nothing observed: every category scores 0.5, ties to plan order.
        assert_eq!(stats.pick(&[0, 1, 2], &jobs), 0);
        // The Other category keeps violating: it wins.
        stats.observe(EaiCategory::Other, true);
        stats.observe(EaiCategory::Other, true);
        stats.observe(EaiCategory::Indirect(IndirectKind::UserInput), false);
        assert!(stats.score(EaiCategory::Other) > stats.score(EaiCategory::Indirect(IndirectKind::UserInput)));
        assert_eq!(stats.pick(&[0, 1, 2], &jobs), 1, "earliest job of the best category");
        // A dead category decays below an unobserved one.
        let mut cold = YieldStats::new();
        for _ in 0..8 {
            cold.observe(EaiCategory::Other, false);
        }
        assert!(cold.score(EaiCategory::Other) < 0.5);
    }

    #[test]
    fn claims_serialize_concurrent_executions_of_one_key() {
        // begin() hands out exactly one Execute; a concurrent begin blocks
        // until fulfill and replays the published digest.
        let job = direct_job("a", "s", 0, "/tmp/f");
        let key = FaultKey::of(&job);
        let cache = ResultCache::new();
        let Claim::Execute(token) = cache.begin(9, &key) else {
            panic!("first claim must execute");
        };
        let waiter = {
            let cache = cache.clone();
            let key = key.clone();
            shim_sync::thread::spawn(move || match cache.begin(9, &key) {
                Claim::Replay(d) => d,
                Claim::Execute(_) => panic!("claimed key must not re-execute"),
            })
        };
        // Give the waiter a moment to block, then publish.
        shim_sync::thread::sleep(std::time::Duration::from_millis(20));
        let digest = RunDigest {
            applied: true,
            exit: Some(0),
            crashed: None,
            audit_events: 1,
            violations: Vec::new(),
        };
        token.fulfill(digest.clone());
        assert_eq!(waiter.join().expect("waiter thread"), digest);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn abandoned_claims_wake_waiters_who_reclaim() {
        let job = direct_job("a", "s", 0, "/tmp/f");
        let key = FaultKey::of(&job);
        let cache = ResultCache::new();
        let token = match cache.begin(3, &key) {
            Claim::Execute(t) => t,
            Claim::Replay(_) => panic!("empty cache cannot replay"),
        };
        // Pending slots read as misses and are invisible to stats/lookup.
        assert_eq!(cache.lookup(3, &key), None);
        assert_eq!(cache.stats().entries, 0);
        drop(token); // abandon, as a panicking worker would
        match cache.begin(3, &key) {
            Claim::Execute(t) => t.fulfill(RunDigest {
                applied: false,
                exit: Some(0),
                crashed: None,
                audit_events: 0,
                violations: Vec::new(),
            }),
            Claim::Replay(_) => panic!("abandoned claim must be reclaimable"),
        }
        assert!(matches!(cache.begin(3, &key), Claim::Replay(_)));
    }

    #[test]
    fn panicking_claim_holder_releases_blocked_waiters() {
        // Liveness regression: a claim holder that panics mid-run (its
        // unwinding drops the token) must wake a waiter already blocked in
        // begin() on another thread and hand it the claim — and the panic
        // must not poison the protocol for later callers.
        let job = direct_job("a", "s", 0, "/tmp/f");
        let key = FaultKey::of(&job);
        let cache = ResultCache::new();
        let Claim::Execute(token) = cache.begin(5, &key) else {
            panic!("first claim must execute");
        };
        let waiter = {
            let cache = cache.clone();
            let key = key.clone();
            shim_sync::thread::spawn(move || match cache.begin(5, &key) {
                Claim::Execute(t) => {
                    t.fulfill(RunDigest {
                        applied: true,
                        exit: Some(0),
                        crashed: None,
                        audit_events: 2,
                        violations: Vec::new(),
                    });
                }
                Claim::Replay(_) => panic!("nothing was published; waiter must reclaim"),
            })
        };
        shim_sync::thread::sleep(std::time::Duration::from_millis(20));
        let holder = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _token = token;
            panic!("deliberate mid-run panic");
        }));
        assert!(holder.is_err());
        waiter.join().expect("waiter completes after the holder panics");
        // The waiter's digest landed; the cache still works.
        assert!(matches!(cache.begin(5, &key), Claim::Replay(_)));
    }

    #[test]
    fn a_backend_serves_first_touch_hits_and_receives_write_through() {
        use crate::store::{MemoryStore, ResultStore};
        let job = direct_job("a", "s", 0, "/tmp/f");
        let key = FaultKey::of(&job);
        let digest = RunDigest {
            applied: true,
            exit: Some(0),
            crashed: None,
            audit_events: 4,
            violations: Vec::new(),
        };
        // Pre-populate the backend as a previous process would have.
        let store = Arc::new(MemoryStore::new());
        store.save(11, &key, &digest);
        let cache = ResultCache::with_store(store.clone());
        // First touch: served from the backend, promoted, counted.
        assert_eq!(cache.lookup(11, &key), Some(digest.clone()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.store_hits, stats.entries), (1, 1, 1));
        // Second touch: hot tier only; store_hits does not move.
        assert_eq!(cache.lookup(11, &key), Some(digest.clone()));
        assert_eq!(cache.stats().store_hits, 1);
        // begin() replays from the backend instead of claiming.
        let other = direct_job("b", "s", 0, "/tmp/g");
        let other_key = FaultKey::of(&other);
        store.save(11, &other_key, &digest);
        assert!(matches!(cache.begin(11, &other_key), Claim::Replay(_)));
        // A fulfilled claim writes through to the backend.
        let fresh = direct_job("c", "s", 0, "/tmp/h");
        let fresh_key = FaultKey::of(&fresh);
        let Claim::Execute(token) = cache.begin(11, &fresh_key) else {
            panic!("backend miss must hand out the claim");
        };
        token.fulfill(digest.clone());
        assert_eq!(store.load(11, &fresh_key), Some(digest.clone()));
        // insert() writes through too.
        let ins = direct_job("d", "s", 0, "/tmp/i");
        let ins_key = FaultKey::of(&ins);
        cache.insert(11, &ins_key, digest.clone());
        assert_eq!(store.load(11, &ins_key), Some(digest));
    }

    #[test]
    fn a_fresh_cache_over_a_shared_backend_replays_cross_process_style() {
        use crate::store::MemoryStore;
        let job = direct_job("a", "s", 0, "/tmp/f");
        let key = FaultKey::of(&job);
        let digest = RunDigest {
            applied: true,
            exit: Some(1),
            crashed: None,
            audit_events: 2,
            violations: Vec::new(),
        };
        let store = Arc::new(MemoryStore::new());
        // "Process one": execute and fulfill through a claim.
        {
            let cache = ResultCache::with_store(store.clone());
            let Claim::Execute(token) = cache.begin(21, &key) else {
                panic!("cold backend must hand out the claim");
            };
            token.fulfill(digest.clone());
        }
        // "Process two": a brand-new cache, same backend — pure replay.
        let cache = ResultCache::with_store(store);
        assert!(matches!(cache.begin(21, &key), Claim::Replay(d) if d == digest));
        assert_eq!(cache.stats().store_hits, 1);
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned so cache keys stay comparable across runs and platforms.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        // The hasher continues the same stream across writes, and writes
        // integers little-endian whatever the platform.
        let mut h = Fnv1a::default();
        h.write(b"a");
        h.write_u32(0x0403_0201);
        assert_eq!(h.finish(), fnv1a(b"a\x01\x02\x03\x04"));
    }
}
