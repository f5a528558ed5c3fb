//! The fault-space planner: canonical fault keys, cross-run memoization
//! and static pruning of the misses.
//!
//! The paper's §3.2 adequacy metric and §3.3 step 5 assume the fault plan
//! enumerates the *useful* perturbation space, but a naive planner
//! materializes every `(site × catalog pattern)` pair and re-runs
//! byte-identical faults across the suite. This module sits between the
//! fault plan ([`crate::campaign::CampaignPlan`]) and the
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
//! 2. **Memoization, first, where a caller installs a cache** — a
//!    [`ResultCache`] maps `(setup fingerprint, FaultKey) -> RunDigest`.
//!    Under it, equal jobs — within one plan, across applications,
//!    repeated campaigns, or whole suite re-executions — execute once: the
//!    first claims the key ([`ResultCache::begin`]), every later one
//!    replays its digest with its own identity fields and `cache_hit:
//!    true`. A campaign without a cache (the default) computes no scope,
//!    builds no key, and executes every job it does not prune. The
//!    fingerprint ([`crate::campaign::TestSetup::fingerprint`]) is a
//!    structural hash of the frozen world, computed once per campaign.
//! 3. **Static pruning, of the misses only** — a job the cache does not
//!    answer goes to the analyzer's [`PruneFn`]; a provably inert job
//!    replays a synthesized clean-run digest as `pruned`. Pruned digests are
//!    never saved, so a warm pass asks the analyzer about those jobs alone.
//!
//! Every job that neither answers executes, so a report covers the whole
//! plan and all paper numbers are reproduced exactly.
//!
//! A campaign's [`Schedule`] — under a cache, keys and every cache or
//! store lookup; then static pruning of what missed — is built once,
//! inside that campaign's job, on whichever pool thread runs it (in a
//! suite, a spawned worker or the calling thread working as worker 0).
//! The same thread then replays the answered jobs and runs the misses in
//! plan order, each claimed under the key the schedule holds (if any).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::hash::Hasher;

use serde::{Deserialize, Serialize};
use shim_sync::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::inject::InjectionPlan;
use crate::perturb::{DirectFault, FaultPayload, IndirectFault};
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

/// One field value of a payload variant, as [`FaultKey::of`] writes it.
enum Field<'a> {
    /// A file-system target, lexically cleaned through the path interner.
    Path(&'a str),
    /// Literal text, written byte-exact.
    Text(&'a str),
    /// An unsigned integer.
    Num(u64),
    /// A single character, written as a one-character string.
    Char(char),
}

/// Appends `s` as a JSON string literal, escaped exactly as the
/// workspace's `serde_json` writes it: `"`, `\\`, `\n`, `\r` and `\t` by
/// name, other control characters below U+0020 as `\u00XX`, everything
/// else verbatim.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        // Every escaped byte is ASCII, so `i` is a char boundary.
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        let _ = match b {
            b'"' => out.write_str("\\\""),
            b'\\' => out.write_str("\\\\"),
            b'\n' => out.write_str("\\n"),
            b'\r' => out.write_str("\\r"),
            b'\t' => out.write_str("\\t"),
            _ => write!(out, "\\u{b:04x}"),
        };
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// Appends one enum variant in the externally tagged JSON form of the
/// workspace's `serde` derive: a unit variant as `"Name"`, a struct
/// variant as `{"Name":{"field":value,...}}` with fields in declaration
/// order.
fn push_variant(out: &mut String, name: &str, fields: &[(&str, Field<'_>)]) {
    if fields.is_empty() {
        push_json_str(out, name);
        return;
    }
    out.push_str("{\"");
    out.push_str(name);
    out.push_str("\":{");
    for (i, (field, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, field);
        out.push(':');
        match *value {
            Field::Path(p) => push_json_str(out, epa_sandbox::intern::intern(p).as_str()),
            Field::Text(t) => push_json_str(out, t),
            Field::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Field::Char(c) => push_json_str(out, c.encode_utf8(&mut [0; 4])),
        }
    }
    out.push_str("}}");
}

/// Appends the payload's canonical text: its `serde_json` form, with the
/// file-system target fields lexically cleaned
/// ([`epa_sandbox::path::clean`]: `//` and `.` collapsed), so two catalog
/// entries addressing the same object through cosmetically different
/// spellings canonicalize to one [`FaultKey`]. `..` components are
/// deliberately **kept**: the VFS resolves them physically (across
/// symlinked directories), so textual `..` resolution could conflate
/// faults that actually strike different inodes. Indirect faults are
/// written untouched: they are literal value mutations and their planted
/// text must stay byte-exact.
///
/// Cleaning goes through the process-wide path interner
/// ([`epa_sandbox::intern`]): a campaign canonicalizes the same catalog
/// targets over and over, so after the first job per target the clean is
/// a table hit instead of a re-scan.
fn push_payload(out: &mut String, payload: &FaultPayload) {
    use Field::{Char, Num, Path, Text};
    match payload {
        FaultPayload::Direct(df) => {
            out.push_str("{\"Direct\":[");
            let (name, fields): (&str, &[(&str, Field<'_>)]) = match df {
                DirectFault::FileMakeExist { path } => ("FileMakeExist", &[("path", Path(path))]),
                DirectFault::FileMakeMissing { path } => ("FileMakeMissing", &[("path", Path(path))]),
                DirectFault::FileChownAttacker { path } => ("FileChownAttacker", &[("path", Path(path))]),
                DirectFault::FileChownRoot { path } => ("FileChownRoot", &[("path", Path(path))]),
                DirectFault::FilePermRestrict { path } => ("FilePermRestrict", &[("path", Path(path))]),
                DirectFault::FilePermOpen { path } => ("FilePermOpen", &[("path", Path(path))]),
                DirectFault::FilePermNoExec { path } => ("FilePermNoExec", &[("path", Path(path))]),
                DirectFault::SymlinkSwap { path, target } => {
                    ("SymlinkSwap", &[("path", Path(path)), ("target", Path(target))])
                }
                DirectFault::ModifyContent { path, content } => {
                    ("ModifyContent", &[("path", Path(path)), ("content", Text(content))])
                }
                DirectFault::RenameAway { path } => ("RenameAway", &[("path", Path(path))]),
                DirectFault::WorkingDirectory { dir } => ("WorkingDirectory", &[("dir", Path(dir))]),
                DirectFault::RegistryOpenAcl { key } => ("RegistryOpenAcl", &[("key", Text(key))]),
                DirectFault::RegistrySetValue { key, value, new_value } => (
                    "RegistrySetValue",
                    &[
                        ("key", Text(key)),
                        ("value", Text(value)),
                        ("new_value", Text(new_value)),
                    ],
                ),
                DirectFault::NetSpoofNext { port, actual } => (
                    "NetSpoofNext",
                    &[("port", Num((*port).into())), ("actual", Text(actual))],
                ),
                DirectFault::NetOmitStep { port, idx } => (
                    "NetOmitStep",
                    &[("port", Num((*port).into())), ("idx", Num(*idx as u64))],
                ),
                DirectFault::NetDuplicateStep { port, idx } => (
                    "NetDuplicateStep",
                    &[("port", Num((*port).into())), ("idx", Num(*idx as u64))],
                ),
                DirectFault::NetSwapSteps { port, a, b } => (
                    "NetSwapSteps",
                    &[
                        ("port", Num((*port).into())),
                        ("a", Num(*a as u64)),
                        ("b", Num(*b as u64)),
                    ],
                ),
                DirectFault::NetShareSocket { port, with } => {
                    ("NetShareSocket", &[("port", Num((*port).into())), ("with", Text(with))])
                }
                DirectFault::NetDenyService { host, port } => {
                    ("NetDenyService", &[("host", Text(host)), ("port", Num((*port).into()))])
                }
                DirectFault::NetDistrustEntity { host, port } => (
                    "NetDistrustEntity",
                    &[("host", Text(host)), ("port", Num((*port).into()))],
                ),
                DirectFault::DnsDeny => ("DnsDeny", &[]),
                DirectFault::IpcSpoofNext { channel, actual } => {
                    ("IpcSpoofNext", &[("channel", Text(channel)), ("actual", Text(actual))])
                }
                DirectFault::IpcDistrust { channel } => ("IpcDistrust", &[("channel", Text(channel))]),
                DirectFault::IpcDeny { channel } => ("IpcDeny", &[("channel", Text(channel))]),
            };
            push_variant(out, name, fields);
        }
        FaultPayload::Indirect(f) => {
            out.push_str("{\"Indirect\":[");
            let (name, fields): (&str, &[(&str, Field<'_>)]) = match f {
                IndirectFault::Lengthen { by } => ("Lengthen", &[("by", Num(*by as u64))]),
                IndirectFault::MakeRelative => ("MakeRelative", &[]),
                IndirectFault::MakeAbsolute => ("MakeAbsolute", &[]),
                IndirectFault::InsertDotDot { depth } => ("InsertDotDot", &[("depth", Num(*depth as u64))]),
                IndirectFault::InsertSpecial { ch } => ("InsertSpecial", &[("ch", Char(*ch))]),
                IndirectFault::PathListReorder => ("PathListReorder", &[]),
                IndirectFault::PathListInsertUntrusted { dir } => ("PathListInsertUntrusted", &[("dir", Text(dir))]),
                IndirectFault::PathListWrong { dir } => ("PathListWrong", &[("dir", Text(dir))]),
                IndirectFault::PathListRecursive => ("PathListRecursive", &[]),
                IndirectFault::PermMaskZero => ("PermMaskZero", &[]),
                IndirectFault::ChangeExtension { ext } => ("ChangeExtension", &[("ext", Text(ext))]),
                IndirectFault::LengthenExtension => ("LengthenExtension", &[]),
                IndirectFault::Malform => ("Malform", &[]),
            };
            push_variant(out, name, fields);
        }
    }
    out.push_str("]}");
}

/// The content-addressed canonical identity of one planned injection.
///
/// Two jobs with equal keys perform byte-identical perturbations at the
/// same point of the same execution, so they must produce byte-identical
/// outcomes; the planner executes one and replays the other.
///
/// The canonical text is shared (`Arc<str>`): the schedule, the cache
/// map and an in-flight claim all hold the same bytes, so handing a key
/// along never copies them.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultKey {
    repr: Arc<str>,
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
    ///
    /// The text is `site#occurrence|semantic|payload`, where `payload` is
    /// the payload's `serde_json` form with its file-system targets
    /// cleaned. The bytes are written directly into one buffer, with no
    /// serializer in between; the wire form is the one the serializer
    /// produced, so stores and manifests written before keep matching
    /// (`tests/fault_keys.rs` pins every key of the standard suite and a
    /// 120-scenario corpus).
    pub fn of(job: &InjectionPlan) -> FaultKey {
        let occurrence = if job.fault.occurrence_sensitive() {
            job.occurrence
        } else {
            0
        };
        let mut repr = String::with_capacity(128);
        let _ = write!(repr, "{}#{occurrence}|", job.site);
        match job.fault.semantic {
            Some(s) => {
                let _ = write!(repr, "{s:?}");
            }
            None => repr.push('-'),
        }
        repr.push('|');
        push_payload(&mut repr, &job.fault.payload);
        FaultKey::synthetic(&repr)
    }

    /// A key from raw canonical text — for keys read back from a store or
    /// a manifest, and for concurrency test fixtures (the model-check
    /// protocol fixtures and the panicking-claimant regression test),
    /// which exercise the claim protocol without dragging the whole
    /// payload machinery into the explored state space.
    pub fn synthetic(repr: &str) -> FaultKey {
        FaultKey {
            repr: Arc::from(repr),
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
        self.clone().into_record(job, Provenance::Cached)
    }

    /// Materializes a record for `job` from this digest, flagged as
    /// **statically pruned**: the analysis layer proved the fault inert and
    /// synthesized this digest from the clean run, so no run (and no cache
    /// entry) backs it. Mirrors [`RunDigest::replay`], with `pruned` set
    /// instead of `cache_hit`.
    pub fn replay_pruned(&self, job: &InjectionPlan) -> FaultRecord {
        self.clone().into_record(job, Provenance::Pruned)
    }

    /// Moves this digest into the record of `job`: identity fields from the
    /// job, outcome fields from the digest, and the provenance flags. Every
    /// record the engine files is built here.
    pub fn into_record(self, job: &InjectionPlan, provenance: Provenance) -> FaultRecord {
        FaultRecord {
            site: job.site.to_string(),
            occurrence: job.occurrence,
            fault_id: job.fault.id.clone(),
            category: job.fault.category,
            description: job.fault.description.clone(),
            applied: self.applied,
            exit: self.exit,
            crashed: self.crashed,
            audit_events: self.audit_events,
            cache_hit: provenance == Provenance::Cached,
            pruned: provenance == Provenance::Pruned,
            violations: self.violations,
        }
    }
}

/// Where a finished job's digest came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// The job ran.
    Executed,
    /// An equal run's digest, from the [`ResultCache`] or its store
    /// (a claim replay included): the record has `cache_hit` set.
    Cached,
    /// The analysis proved the job inert and synthesized its digest from
    /// the clean run: the record has `pruned` set.
    Pruned,
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
    /// `&str`; an insertion shares the key's text instead of copying it.
    map: BTreeMap<u64, BTreeMap<Arc<str>, CacheSlot>>,
    hits: u64,
    misses: u64,
    store_hits: u64,
    /// Threads parked in [`ResultCache::begin`] on a pending slot. A slot
    /// that settles with none wakes nobody: no futex call.
    waiters: usize,
}

#[derive(Default)]
struct CacheShared {
    state: Mutex<CacheInner>,
    /// Signalled whenever a slot changes state (fulfilled or abandoned)
    /// while [`CacheInner::waiters`] counts a [`ResultCache::begin`] waiter.
    settled: Condvar,
    /// The persistent tier, when configured. Consulted outside the state
    /// lock (disk I/O must not stall waiters); hits are promoted into the
    /// in-memory map, so each `(scope, key)` pays for the disk at most
    /// once per process. `None` = memory-only, the pre-store behavior.
    backend: Option<Arc<dyn ResultStore>>,
}

impl CacheShared {
    /// The state lock, recovering from poison: a job that panics mid-run
    /// unwinds through cache operations, and the cache's invariants hold
    /// at every drop of the guard, so the racing suite must keep going —
    /// a poisoned mutex here would turn one bad job into a suite-wide
    /// liveness failure (every later `begin`/`lookup`/`fulfill` panicking
    /// in turn).
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one writer of a [`CacheSlot::Ready`] slot: settles `(scope,
    /// key)` with `digest` under the held lock, releases it and wakes every
    /// waiter, if any. The first writer wins: a completed digest is never
    /// replaced (equal keys have equal digests), while an in-flight claim is
    /// settled (its claimant is computing this exact digest).
    fn publish(&self, mut state: MutexGuard<'_, CacheInner>, scope: u64, key: &FaultKey, digest: RunDigest) {
        let slot = state
            .map
            .entry(scope)
            .or_default()
            .entry(Arc::clone(&key.repr))
            .or_insert(CacheSlot::Pending);
        if let CacheSlot::Pending = slot {
            *slot = CacheSlot::Ready(digest);
        }
        self.release(state);
    }

    /// Drops the state lock after a slot settled, waking the parked
    /// waiters. Their count is read under the lock: a waiter counted there
    /// is already on the condition variable, and one that parks later finds
    /// the slot settled before it waits.
    fn release(&self, state: MutexGuard<'_, CacheInner>) {
        let parked = state.waiters > 0;
        drop(state);
        if parked {
            self.settled.notify_all();
        }
    }

    /// Publishes an executed run's digest and returns the record it owes
    /// the backend, if there is one. The digest moves into the map; it is
    /// copied only when a backend saves it too.
    fn publish_executed(&self, scope: u64, key: &FaultKey, digest: RunDigest) -> Option<(FaultKey, RunDigest)> {
        let owed = self.backend.is_some().then(|| (key.clone(), digest.clone()));
        self.publish(self.lock(), scope, key, digest);
        owed
    }

    /// Writes executed runs of `scope` through to the backend, in one
    /// [`ResultStore::save_all`].
    fn write_through(&self, scope: u64, records: &[(FaultKey, RunDigest)]) {
        if let (Some(backend), false) = (&self.backend, records.is_empty()) {
            backend.save_all(scope, records);
        }
    }

    /// The one reader of the backend, called with the state lock down (disk
    /// I/O must not stall waiters): a hit is published — so each `(scope,
    /// key)` pays for the disk at most once per process — and counted in
    /// `hits` and `store_hits`.
    fn read_backend(&self, scope: u64, key: &FaultKey) -> Option<RunDigest> {
        let digest = self.backend.as_ref()?.load(scope, key)?;
        let mut state = self.lock();
        state.hits += 1;
        state.store_hits += 1;
        self.publish(state, scope, key, digest.clone());
        Some(digest)
    }
}

/// A memo of executed runs, `(scope, FaultKey) -> RunDigest`, shared by
/// every campaign its caller installs it in.
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
    key: FaultKey,
    fulfilled: bool,
}

impl fmt::Debug for ClaimToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClaimToken")
            .field("scope", &self.scope)
            .field("repr", &self.key.repr())
            .field("fulfilled", &self.fulfilled)
            .finish()
    }
}

impl ClaimToken {
    /// Publishes the executed run's digest, releasing every waiter blocked
    /// on this claim, and writes it through to the persistent backend at
    /// once, as a one-record [`ResultStore::save_all`]. The digest moves
    /// into the cache; it is copied only when a backend saves it too.
    pub fn fulfill(self, digest: RunDigest) {
        let (shared, scope) = (Arc::clone(&self.shared), self.scope);
        let owed = self.settle(digest);
        shared.write_through(scope, owed.as_slice());
    }

    /// Publishes the executed run's digest as [`ClaimToken::fulfill`] does,
    /// but hands its write-through back: the `(key, digest)` the backend
    /// is owed, if the cache has one, for a later
    /// [`ResultCache::write_through`]. The engine's driver collects a
    /// campaign's and writes them in one call after its last record.
    pub(crate) fn settle(mut self, digest: RunDigest) -> Option<(FaultKey, RunDigest)> {
        self.fulfilled = true;
        self.shared.publish_executed(self.scope, &self.key, digest)
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
        let mut state = self.shared.lock();
        if let Some(slots) = state.map.get_mut(&self.scope) {
            if matches!(slots.get(self.key.repr()), Some(CacheSlot::Pending)) {
                slots.remove(self.key.repr());
            }
        }
        self.shared.release(state);
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

    /// Looks up the digest of an identical prior run, counting the outcome.
    ///
    /// Never blocks on other threads: an in-flight claim reads as a miss,
    /// so schedule construction (inside a campaign's job) stays
    /// non-blocking; the executing path resolves the race in
    /// [`ResultCache::begin`] instead. A vacant slot consults the
    /// persistent backend (outside the lock) and promotes a hit into the
    /// hot tier, so the disk is read at most once per `(scope, key)`.
    pub fn lookup(&self, scope: u64, key: &FaultKey) -> Option<RunDigest> {
        let mut state = self.inner.lock();
        match state.map.get(&scope).and_then(|m| m.get(key.repr())) {
            Some(CacheSlot::Ready(d)) => {
                let d = d.clone();
                state.hits += 1;
                return Some(d);
            }
            None if self.inner.backend.is_some() => {
                drop(state);
                if let Some(d) = self.inner.read_backend(scope, key) {
                    return Some(d);
                }
                state = self.inner.lock();
            }
            _ => {}
        }
        state.misses += 1;
        None
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
        let mut state = self.inner.lock();
        // The backend is consulted at most once per call: on the first
        // vacant sighting, outside the lock. A second vacant sighting
        // (the entry was abandoned while we read the disk) claims
        // directly — the disk answer cannot have changed, only this
        // process writes it through.
        let mut backend_read = self.inner.backend.is_none();
        loop {
            match state.map.get(&scope).and_then(|m| m.get(key.repr())) {
                Some(CacheSlot::Ready(d)) => {
                    let d = d.clone();
                    state.hits += 1;
                    return Claim::Replay(d);
                }
                Some(CacheSlot::Pending) => {
                    state.waiters += 1;
                    state = self.inner.settled.wait(state).unwrap_or_else(PoisonError::into_inner);
                    state.waiters -= 1;
                }
                None if !backend_read => {
                    drop(state);
                    backend_read = true;
                    if let Some(d) = self.inner.read_backend(scope, key) {
                        return Claim::Replay(d);
                    }
                    // Re-match: the slot may have changed while the lock
                    // was down.
                    state = self.inner.lock();
                }
                None => {
                    state
                        .map
                        .entry(scope)
                        .or_default()
                        .insert(Arc::clone(&key.repr), CacheSlot::Pending);
                    state.misses += 1;
                    return Claim::Execute(ClaimToken {
                        shared: Arc::clone(&self.inner),
                        scope,
                        key: key.clone(),
                        fulfilled: false,
                    });
                }
            }
        }
    }

    /// Stores the digest of an executed run, settling any in-flight claim
    /// for the same key and writing through to the persistent backend at
    /// once.
    pub fn insert(&self, scope: u64, key: &FaultKey, digest: RunDigest) {
        let owed = self.inner.publish_executed(scope, key, digest);
        self.inner.write_through(scope, owed.as_slice());
    }

    /// Writes runs of `scope` that [`ClaimToken::settle`] published
    /// through to the persistent backend, in one
    /// [`ResultStore::save_all`]; nothing without a backend or records.
    pub(crate) fn write_through(&self, scope: u64, records: &[(FaultKey, RunDigest)]) {
        self.inner.write_through(scope, records);
    }

    /// Current counters. `entries` counts the in-memory hot tier's
    /// completed digests only — not in-flight claims, and not backend
    /// entries that were never touched this process.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
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

/// One plan's jobs after canonicalization: who replays, who executes.
///
/// Indices throughout refer to positions in the job list the schedule was
/// built from (plan order).
#[derive(Debug)]
pub struct Schedule {
    /// The canonical key of every job, in plan order; empty when the
    /// schedule was built without a cache, which is all a key is for.
    keys: Vec<FaultKey>,
    /// Jobs answered at schedule time, in plan order, each with its
    /// provenance and digest: [`Provenance::Cached`] from the
    /// [`ResultCache`], or [`Provenance::Pruned`] for a miss the static
    /// analysis proved inert (a synthesized clean-run digest, never saved
    /// to the cache). These replay inline and never reach the executor.
    pub replays: Vec<(usize, Provenance, RunDigest)>,
    /// Jobs that must run, in plan order. Under a cache, equal keys among
    /// them run once: the first claims the key, the rest replay its digest
    /// through the cache's claim protocol. Without one, each runs.
    pub pending: Vec<usize>,
}

/// A static pruning oracle for [`Schedule::build`], asked only about jobs
/// the cache missed: `Some(digest)` means the job is provably inert and
/// `digest` is the synthesized outcome to replay (never saved to the
/// cache); `None` means the job must execute. Must be content-
/// deterministic per job (equal jobs ⇒ equal answers).
pub type PruneFn<'a> = &'a dyn Fn(&InjectionPlan) -> Option<RunDigest>;

impl Schedule {
    /// Canonicalizes `jobs` and splits them into replays (cache-resolved
    /// or statically pruned) and pending executions.
    ///
    /// Per job the cache is consulted **first**, and `prune` only on a
    /// miss: replaying a stored digest is cheaper than proving the job
    /// inert, so a warm pass classifies only the jobs the cache cannot
    /// answer. Pruned digests are never saved, so with pruning on the
    /// inert jobs miss every time and still replay as `pruned`; a job that
    /// a store holds as executed (written with pruning off) replays as
    /// `cache_hit` instead, with the same outcome. With no cache no key is
    /// built and `scope` is unread; with no pruner too, this is the
    /// exhaustive plan: every job pending, in plan order.
    pub fn build(
        jobs: &[InjectionPlan],
        scope: u64,
        cache: Option<&ResultCache>,
        prune: Option<PruneFn<'_>>,
    ) -> Schedule {
        let keys: Vec<FaultKey> = match cache {
            Some(_) => jobs.iter().map(FaultKey::of).collect(),
            None => Vec::new(),
        };
        let mut replays = Vec::new();
        let mut pending = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            if let Some(digest) = cache.and_then(|c| c.lookup(scope, &keys[i])) {
                replays.push((i, Provenance::Cached, digest));
            } else if let Some(digest) = prune.and_then(|p| p(job)) {
                replays.push((i, Provenance::Pruned, digest));
            } else {
                pending.push(i);
            }
        }
        Schedule { keys, replays, pending }
    }

    /// The canonical key of job `idx`, if the schedule was built under a
    /// cache.
    pub fn key(&self, idx: usize) -> Option<&FaultKey> {
        self.keys.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{EaiCategory, IndirectKind};
    use crate::perturb::{ConcreteFault, IndirectFault};
    use epa_sandbox::trace::{InputSemantic, SiteId};

    fn direct_job(id: &str, site: &str, occurrence: usize, path: &str) -> InjectionPlan {
        InjectionPlan {
            site: SiteId::new(site),
            occurrence,
            fault: ConcreteFault {
                id: id.into(),
                category: EaiCategory::Other,
                semantic: None,
                description: format!("make {path} exist").into(),
                payload: FaultPayload::Direct(DirectFault::FileMakeExist { path: path.to_string() }),
            },
        }
    }

    /// A digest with no crash and no verdicts.
    fn outcome(applied: bool, exit: Option<i32>, audit_events: usize) -> RunDigest {
        RunDigest {
            applied,
            exit,
            crashed: None,
            audit_events,
            violations: Vec::new(),
        }
    }

    fn indirect_job(id: &str, site: &str, occurrence: usize) -> InjectionPlan {
        InjectionPlan {
            site: SiteId::new(site),
            occurrence,
            fault: ConcreteFault {
                id: id.into(),
                category: EaiCategory::Indirect(IndirectKind::UserInput),
                semantic: Some(InputSemantic::UserFileName),
                description: "lengthen".into(),
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
    fn payload_text_matches_the_serializer_byte_for_byte() {
        // Every byte below U+0020, both escaped ASCII characters, and
        // multi-byte text around them.
        let tricky: String = (0u8..0x20).map(char::from).chain("\"\\é→\u{7f}x".chars()).collect();
        let payloads = [
            FaultPayload::Direct(DirectFault::ModifyContent {
                path: "/etc/motd".to_string(),
                content: tricky.clone(),
            }),
            FaultPayload::Direct(DirectFault::RegistrySetValue {
                key: tricky.clone(),
                value: "\\".to_string(),
                new_value: String::new(),
            }),
            FaultPayload::Direct(DirectFault::NetSwapSteps {
                port: u16::MAX,
                a: usize::MAX,
                b: 0,
            }),
            FaultPayload::Direct(DirectFault::DnsDeny),
            FaultPayload::Indirect(IndirectFault::InsertSpecial { ch: '\u{1}' }),
            FaultPayload::Indirect(IndirectFault::InsertSpecial { ch: '→' }),
            FaultPayload::Indirect(IndirectFault::PathListWrong { dir: tricky }),
            FaultPayload::Indirect(IndirectFault::Malform),
        ];
        for payload in payloads {
            let mut written = String::new();
            push_payload(&mut written, &payload);
            assert_eq!(written, serde_json::to_string(&payload).expect("payloads serialize"));
        }
    }

    #[test]
    fn dotdot_targets_never_share_a_key_lexically() {
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
    fn a_cache_claims_equal_keys_within_a_plan_once() {
        let jobs = vec![
            direct_job("a", "s", 0, "/tmp/f"),
            direct_job("b", "s", 0, "/tmp//f"),
            direct_job("c", "s", 0, "/tmp/g"),
        ];
        let cache = ResultCache::new();
        let schedule = Schedule::build(&jobs, 7, Some(&cache), None);
        assert_eq!(schedule.pending, vec![0, 1, 2], "a cold cache answers nothing");
        let key = |i| schedule.key(i).expect("a schedule under a cache keys every job");
        assert_eq!(key(0), key(1));
        let digest = outcome(true, Some(0), 2);
        // The first job of the key claims it; its duplicate replays.
        let Claim::Execute(token) = cache.begin(7, key(0)) else {
            panic!("the first job of a key executes");
        };
        token.fulfill(digest.clone());
        let Claim::Replay(replayed) = cache.begin(7, key(1)) else {
            panic!("an equal key replays");
        };
        let record = replayed.replay(&jobs[1]);
        assert_eq!((&*record.fault_id, record.cache_hit), ("b", true));
        assert!(matches!(cache.begin(7, key(2)), Claim::Execute(_)));
    }

    #[test]
    fn a_cacheless_schedule_builds_no_key() {
        let jobs = vec![
            direct_job("a", "s", 0, "/tmp/f"),
            direct_job("b", "s", 0, "/tmp//f"),
            direct_job("c", "s", 0, "/tmp/g"),
        ];
        let exhaustive = Schedule::build(&jobs, 7, None, None);
        assert!((0..jobs.len()).all(|i| exhaustive.key(i).is_none()), "no key was built");
        // Every job stands alone, equal payloads included, in plan order.
        assert_eq!(exhaustive.pending, vec![0, 1, 2]);
        assert!(exhaustive.replays.is_empty());
    }

    #[test]
    fn cache_resolves_across_schedules_and_scopes_isolate() {
        let jobs = vec![direct_job("a", "s", 0, "/tmp/f")];
        let cache = ResultCache::new();
        let first = Schedule::build(&jobs, 1, Some(&cache), None);
        assert_eq!(first.pending, vec![0]);
        let digest = outcome(true, Some(0), 3);
        cache.insert(1, first.key(0).expect("keyed under a cache"), digest.clone());
        // Same scope: replayed. Different scope (another app/world): miss.
        let again = Schedule::build(&jobs, 1, Some(&cache), None);
        assert!(again.pending.is_empty());
        assert_eq!(again.replays, vec![(0, Provenance::Cached, digest)]);
        let other = Schedule::build(&jobs, 2, Some(&cache), None);
        assert_eq!(other.pending, vec![0]);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.hits >= 1 && stats.misses >= 2);
    }

    #[test]
    fn the_pruner_sees_only_cache_misses_and_pruned_digests_are_not_saved() {
        let jobs = vec![direct_job("a", "s", 0, "/tmp/f"), direct_job("b", "s", 0, "/tmp/g")];
        let digest = outcome(false, Some(0), 1);
        let asked = std::cell::RefCell::new(Vec::new());
        let prune = |job: &InjectionPlan| {
            asked.borrow_mut().push(job.fault.id.to_string());
            Some(digest.clone())
        };
        let cache = ResultCache::new();
        cache.insert(4, &FaultKey::of(&jobs[0]), digest.clone());
        let schedule = Schedule::build(&jobs, 4, Some(&cache), Some(&prune));
        assert_eq!(*asked.borrow(), ["b"], "the cached job is never classified");
        assert_eq!(
            schedule.replays,
            vec![(0, Provenance::Cached, digest.clone()), (1, Provenance::Pruned, digest)]
        );
        assert!(schedule.pending.is_empty());
        assert_eq!(cache.stats().entries, 1, "the pruned digest is not saved");
    }

    #[test]
    fn replayed_records_keep_their_own_identity() {
        let canon = direct_job("direct:fs:exist@/tmp/f", "s", 0, "/tmp/f");
        let alias = direct_job("another:pattern", "s", 0, "/tmp//f");
        let digest = outcome(true, Some(1), 9);
        let r = digest.replay(&alias);
        assert_eq!(&*r.fault_id, "another:pattern");
        assert_eq!(r.site, "s");
        assert!(r.cache_hit);
        assert_eq!(r.exit, Some(1));
        assert_eq!(r.audit_events, 9);
        let c = digest.replay(&canon);
        assert_eq!(&*c.fault_id, "direct:fs:exist@/tmp/f");
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
        let digest = outcome(true, Some(0), 1);
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
            Claim::Execute(t) => t.fulfill(outcome(false, Some(0), 0)),
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
                    t.fulfill(outcome(true, Some(0), 2));
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
        let digest = outcome(true, Some(0), 4);
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
        let digest = outcome(true, Some(1), 2);
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
