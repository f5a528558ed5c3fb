//! Static EAI-site analysis: prove fault relevance *before* execution.
//!
//! The paper derives its perturbation points from the
//! environment–application interactions one execution trace shows (§3.3
//! steps 1–3); the engine's
//! planner, by contrast, enumerates every catalog fault against every
//! traced site and relies on execution to discover that many of them
//! cannot matter. This module closes that gap with three artifacts:
//!
//! 1. **A site model.** The clean-run trace is the model, for hand-written
//!    applications and corpus scripts alike (the paper's step-2 execution
//!    trace): [`AppAnalysis::from_clean_run`] reads one unperturbed run
//!    into the reached sites, their hit counts, and the physical paths
//!    each touches or creates.
//!
//! 2. **A fault-relevance relation.** [`AppAnalysis::classify`] maps each
//!    planned `fault × site × occurrence` job to [`Relevance::Relevant`],
//!    [`Relevance::ProvablyInert`] (with a machine-checkable
//!    [`Justification`]), or [`Relevance::Unknown`]. The planner drops only
//!    `ProvablyInert` jobs (where `CampaignOptions::static_prune` is on), recording
//!    them as `pruned` replays whose outcome is synthesized from the clean
//!    run — sound because an inert fault's run is, by construction,
//!    byte-identical to the clean run.
//!
//! 3. **A world linter.** [`lint`] checks a world spec against the model
//!    and emits stable diagnostics (`EPA0001`…`EPA0005`) with severities,
//!    rendered and JSON output — `reproduce -- lint` in the CLI.
//!
//! # Soundness of `ProvablyInert`
//!
//! Everything rests on determinism: an injected run and the clean run are
//! byte-identical up to the moment the fault first acts. Four proof shapes
//! are used, each carried as a [`Justification`]:
//!
//! - **State no-op** (direct faults). The fault is applied to a
//!   copy-on-write snapshot of the pristine world; if the snapshot's file
//!   system, registry, and network still compare structurally equal to the
//!   pristine ones ([`Os::same_substrate`]), the application is a no-op
//!   *on the pristine state*. The proof transfers to injection time iff
//!   nothing in the clean-trace prefix before the strike point could have
//!   changed the state the fault reads (its *guard set*): no mutation of
//!   the target path, no alias-structure change
//!   (rename/symlink/unlink-of-a-link), no `..`-ambiguity. When any of
//!   those occur the job stays
//!   [`Relevance::Unknown`] and executes normally.
//! - **Grants preserved** (the chown direct faults). Re-owning a file
//!   *does* change state, but the change is unobservable when the target
//!   is a plain, alias-free file whose *untrusted-owner* status does not
//!   flip under the new owner (the `Untrusted` label carries only the
//!   path, so equal status means equal labels), every at-or-after-strike
//!   touch of it is a successful content read (reads are the only file
//!   accesses whose audit record omits the owner), and the read grant is
//!   identical under the old and new ownership for every credential that
//!   performs one plus the invoker (whose read grant decides the `Secret`
//!   label).
//! - **Never fires** (indirect faults). An indirect fault strikes the
//!   first *successful* receive at its site matching its semantic (or, for
//!   semantic-free faults, its exact occurrence). If the clean trace has no
//!   such successful event, the hook never mutates anything and the whole
//!   run replays the clean outcome with `applied: false`.
//! - **Identity transform** (indirect faults). The fault fires, but its
//!   transform maps the value received at the strike point to itself —
//!   checked by running the *actual* [`crate::perturb::IndirectFault`]
//!   mutation on the value recovered from the pristine world (environment
//!   variables and argv are immutable for the whole run; registry values
//!   are guarded against pre-strike writes). `set_bytes` preserves labels,
//!   so an identical byte string means an identical payload.
//!
//! Both proofs are cross-checked dynamically: the corpus differential
//! harness runs every scenario with pruning on and off and asserts
//! byte-identical verdict sets, and `tests/props_analysis.rs` force-runs
//! every pruned job and compares it against its synthesized record.

pub mod lint;
pub mod statics;

pub use lint::{lint_setup, Diagnostic, LintReport, Severity};

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use shim_sync::sync::{Arc, Mutex, PoisonError};

use epa_sandbox::audit::AuditEvent;
use epa_sandbox::cred::{Credentials, Gid, Uid};
use epa_sandbox::data::Data;
use epa_sandbox::fs::Vfs;
use epa_sandbox::mode::Access;
use epa_sandbox::os::Os;
use epa_sandbox::path;
use epa_sandbox::process::Pid;
use epa_sandbox::trace::{ObjectRef, OpKind, SiteId, TraceEvent};

use crate::campaign::{RunOutcome, TestSetup};
use crate::engine::planner::RunDigest;
use crate::inject::InjectionPlan;
use crate::perturb::{DirectFault, FaultPayload, IndirectFault};

/// The machine-checkable reason a fault is provably inert.
///
/// Justifications are data, not prose: each one names the exact facts a
/// checker (or a force-run, as `tests/props_analysis.rs` does) can verify
/// independently.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Justification {
    /// Applying the direct fault to a copy-on-write snapshot of the
    /// pristine world leaves its file system, registry, and network
    /// structurally equal to the pristine ones, and no clean-trace event
    /// before the strike point touches the fault's guard set — so applying
    /// it mid-run is the same no-op.
    StateNoOp {
        /// The fault's guard paths (physical forms).
        guards: Vec<String>,
        /// Clean-trace events checked against the guard set (the strike
        /// point's sequence number — everything before it was scanned).
        prefix_len: usize,
        /// Whether the (no-op) application reports success, i.e. the
        /// `applied` flag the synthesized record carries.
        applies_cleanly: bool,
    },
    /// Chowning the target to `root:root` preserves every access decision
    /// the rest of the run makes: the target is a plain, alias-free file
    /// whose owner is already root or the invoker (so the `Untrusted`
    /// label test is unchanged), every at-or-after-strike touch of it is a
    /// successful content read, and the read grant is unchanged for every
    /// credential that performs one — and for the invoker, whose read
    /// grant decides the `Secret` label.
    GrantsPreserved {
        /// The target's physical path.
        path: String,
        /// Successful at-or-after-strike reads verified.
        suffix_reads: usize,
        /// Credentials checked for read-grant equivalence.
        creds_checked: usize,
    },
    /// The indirect fault's trigger never occurs: no successful receive at
    /// the site matches its semantic/occurrence in the clean trace, so the
    /// hook never rewrites any value.
    NeverFires {
        /// The targeted site.
        site: String,
        /// The targeted occurrence (meaningful for semantic-free faults).
        occurrence: usize,
        /// Successful matching events found in the clean trace (always 0).
        matching_ok_events: usize,
    },
    /// The indirect fault fires, but its transform maps the received value
    /// to itself: the rewrite is byte-identical and label-preserving, so
    /// the application sees exactly the clean payload (with
    /// `applied: true`).
    IdentityTransform {
        /// The strike site.
        site: String,
        /// Where the strike value was recovered from (`env:NAME`, `argv`,
        /// `reg:KEY\VALUE`).
        source: String,
        /// Candidate values verified as fixed points of the transform.
        values_checked: usize,
    },
}

/// The relevance of one planned fault job, as far as static reasoning can
/// tell.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Relevance {
    /// The fault demonstrably perturbs state or input; the run must
    /// execute.
    Relevant,
    /// The run provably replays the clean outcome; executing it would be
    /// wasted work. Carries the synthesized `applied` flag and the proof.
    ProvablyInert {
        /// Whether the (inert) fault would still report "applied".
        applied: bool,
        /// The machine-checkable proof.
        justification: Justification,
    },
    /// Static reasoning could not decide; the run executes normally.
    Unknown {
        /// Why the analysis gave up (diagnostic, not proof).
        reason: String,
    },
}

impl Relevance {
    /// True for [`Relevance::ProvablyInert`].
    pub fn is_inert(&self) -> bool {
        matches!(self, Relevance::ProvablyInert { .. })
    }
}

/// One clean-trace event with the derived facts relevance checks consume.
#[derive(Debug, Clone)]
struct EventFact {
    seq: usize,
    site: SiteId,
    occurrence: usize,
    op: OpKind,
    object: ObjectRef,
    /// Physical forms of a file object: (final-symlink-kept, fully
    /// resolved), both against the *pristine* world.
    physical: Option<(String, String)>,
    semantic: Option<epa_sandbox::trace::InputSemantic>,
    ok: bool,
    /// For a registry read, the value the pristine world holds there.
    pristine_value: Option<String>,
}

impl EventFact {
    fn matches_guard(&self, guard: &str) -> bool {
        let Some((nofollow, follow)) = &self.physical else {
            return false;
        };
        if nofollow == guard || follow == guard {
            return true;
        }
        // Deleting an ancestor directory removes the guarded path with it.
        if self.op == OpKind::Delete {
            let prefix = format!("{}/", follow.trim_end_matches('/'));
            if guard.starts_with(&prefix) {
                return true;
            }
        }
        false
    }
}

/// File-system operations that can change world state (the guard-set scan
/// treats every other op as a pure read).
fn mutates_fs(op: OpKind) -> bool {
    matches!(
        op,
        OpKind::CreateFile
            | OpKind::CreateExcl
            | OpKind::WriteFile
            | OpKind::Delete
            | OpKind::Mkdir
            | OpKind::Chmod
            | OpKind::Chown
            | OpKind::Symlink
            | OpKind::Rename
    )
}

/// Operations that consume or mutate network/IPC state mid-run.
fn mutates_net(op: OpKind) -> bool {
    matches!(
        op,
        OpKind::NetConnect | OpKind::NetSend | OpKind::NetRecv | OpKind::ProcRecv
    )
}

/// What part of the world a direct fault reads and writes.
enum Footprint<'a> {
    /// File-system fault over one target path, or two (a symlink swap's
    /// link and destination).
    Fs(&'a str, Option<&'a str>),
    /// Registry fault (conservatively keyed on any registry write).
    Registry,
    /// Network/IPC/DNS fault (conservatively keyed on any net activity).
    Net,
    /// Process-state fault (working directory) — never analyzed.
    Process,
}

fn footprint(fault: &DirectFault) -> Footprint<'_> {
    match fault {
        DirectFault::FileMakeExist { path }
        | DirectFault::FileMakeMissing { path }
        | DirectFault::FileChownAttacker { path }
        | DirectFault::FileChownRoot { path }
        | DirectFault::FilePermRestrict { path }
        | DirectFault::FilePermOpen { path }
        | DirectFault::FilePermNoExec { path }
        | DirectFault::ModifyContent { path, .. }
        | DirectFault::RenameAway { path } => Footprint::Fs(path, None),
        DirectFault::SymlinkSwap { path, target } => Footprint::Fs(path, Some(target)),
        DirectFault::WorkingDirectory { .. } => Footprint::Process,
        DirectFault::RegistryOpenAcl { .. } => Footprint::Registry,
        // The planted value may also create a payload file, so this fault
        // straddles registry and file system; the fs guard is the payload
        // path itself.
        DirectFault::RegistrySetValue { .. } => Footprint::Registry,
        DirectFault::NetSpoofNext { .. }
        | DirectFault::NetOmitStep { .. }
        | DirectFault::NetDuplicateStep { .. }
        | DirectFault::NetSwapSteps { .. }
        | DirectFault::NetShareSocket { .. }
        | DirectFault::NetDenyService { .. }
        | DirectFault::NetDistrustEntity { .. }
        | DirectFault::DnsDeny
        | DirectFault::IpcSpoofNext { .. }
        | DirectFault::IpcDistrust { .. }
        | DirectFault::IpcDeny { .. } => Footprint::Net,
        // Future catalog growth lands here: never analyzed, always run.
        #[allow(unreachable_patterns)]
        _ => Footprint::Process,
    }
}

/// A direct fault's file-system target as the pristine world resolves
/// it. Computed once per target path ([`AppAnalysis::guard`]) and shared
/// by every job that strikes it, at any site.
#[derive(Debug)]
enum Guard {
    /// Relative, or carrying `..`: no unambiguous physical form.
    Ambiguous,
    /// The target is itself a symlink: god-mode fault application and
    /// app-level access disagree on which object they touch.
    Symlink,
    /// The target's physical path.
    Physical {
        path: String,
        /// Sequence number of the first clean-trace event that mutates
        /// the path (`usize::MAX` when none does).
        first_mutation: usize,
    },
}

/// A classification before any text is built: [`AppAnalysis::classify`]
/// renders it into a [`Relevance`], [`AppAnalysis::pruned_digest`] reads
/// only the `applied` flag, and the linter only whether it is inert.
enum Decision<'a> {
    Relevant,
    Inert { applied: bool, proof: Proof<'a> },
    Unknown(Why),
}

/// The facts behind a [`Justification`].
enum Proof<'a> {
    StateNoOp {
        prefix_len: usize,
        applies_cleanly: bool,
    },
    GrantsPreserved {
        suffix_reads: usize,
        creds_checked: usize,
    },
    NeverFires,
    IdentityTransform {
        strike: &'a EventFact,
        values_checked: usize,
    },
}

/// Why static reasoning gave up on a job.
enum Why {
    /// The struck `site#occurrence` is not in the clean trace.
    OccurrenceAbsent,
    /// The struck site is not in the clean trace at all.
    SiteAbsent,
    ProcessState,
    RegistryMutated,
    NetConsumed,
    AliasHazard,
    /// The fault's `n`th target is ambiguous.
    AmbiguousTarget(usize),
    /// The fault's `n`th target is a symlink.
    SymlinkTarget(usize),
    /// The clean-trace event with this sequence number mutates a guard
    /// path before the strike.
    GuardMutated(usize),
}

/// Physical forms of `path` against `fs`: `(final-symlink-kept, fully
/// resolved)`. Missing suffixes are appended lexically to the deepest
/// resolvable ancestor, so two spellings of the same missing file still
/// collapse onto one physical name.
fn physical_forms(fs: &Vfs, p: &str) -> (String, String) {
    let nofollow = match fs.walk(p, false, None) {
        Ok(w) => w.physical.to_string(),
        Err(_) => lexical_fallback(fs, p),
    };
    let follow = match fs.walk(p, true, None) {
        Ok(w) => w.physical.to_string(),
        Err(_) => nofollow.clone(),
    };
    (nofollow, follow)
}

fn lexical_fallback(fs: &Vfs, p: &str) -> String {
    let cleaned = path::clean(p);
    let Some(parent) = path::parent(&cleaned) else {
        return cleaned;
    };
    let Some(name) = path::file_name(&cleaned) else {
        return cleaned;
    };
    let resolved_parent = match fs.walk(&parent, true, None) {
        Ok(w) => w.physical.to_string(),
        Err(_) => lexical_fallback(fs, &parent),
    };
    if resolved_parent == "/" {
        format!("/{name}")
    } else {
        format!("{resolved_parent}/{name}")
    }
}

/// The per-application analysis: clean-run facts plus the pristine world,
/// ready to classify any planned fault job.
///
/// Built once per campaign plan (the clean run the plan already performs is
/// the model input) and shared read-only afterwards.
pub struct AppAnalysis {
    events: Vec<EventFact>,
    by_site: BTreeMap<SiteId, Vec<usize>>,
    /// First sequence number after which the pristine alias map is no
    /// longer trustworthy (a rename/symlink/unlink-of-a-link or a
    /// `..`-carrying object appeared), `usize::MAX` when the whole trace is
    /// alias-stable.
    hazard_from: usize,
    pristine: Os,
    /// The spawn argument vector (immutable for the whole run).
    setup_args: Arc<[Arc<str>]>,
    /// The spawn environment (immutable: the sandbox has no `setenv`).
    setup_env: Arc<BTreeMap<String, Arc<str>>>,
    /// Credentials that performed each successful content read in the
    /// clean run, keyed by physical path (from the audit log).
    read_creds: BTreeMap<String, Vec<Credentials>>,
    clean_exit: Option<i32>,
    clean_crashed: Option<String>,
    clean_audit_events: usize,
    clean_violations: Vec<epa_sandbox::policy::Verdict>,
    /// Sequence number of the first clean-trace registry write or delete
    /// (`usize::MAX` when none).
    first_reg_write: usize,
    /// Sequence number of the first clean-trace event that consumes or
    /// mutates network/IPC state (`usize::MAX` when none).
    first_net_use: usize,
    /// Direct-fault targets resolved so far, by target path.
    guards: Mutex<BTreeMap<String, Arc<Guard>>>,
}

impl std::fmt::Debug for AppAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppAnalysis")
            .field("events", &self.events.len())
            .field("sites", &self.by_site.len())
            .field("hazard_from", &self.hazard_from)
            .finish()
    }
}

impl AppAnalysis {
    /// Builds the analysis from a setup's pristine world and its clean-run
    /// outcome (the trace must come from an uninjected run).
    pub fn from_clean_run(setup: &TestSetup, clean: &RunOutcome) -> AppAnalysis {
        let pristine = setup.world.clone();
        let mut events = Vec::new();
        let mut by_site: BTreeMap<SiteId, Vec<usize>> = BTreeMap::new();
        let mut hazard_from = usize::MAX;
        // Relative spellings resolve against the working directory, which
        // starts at the spawn cwd and moves with each successful `Chdir` —
        // the same join the sandbox performs.
        let mut cwd = setup.cwd.clone();
        for ev in clean.os.trace.events() {
            let fact = Self::fact_of(&pristine, &cwd, ev);
            if hazard_from == usize::MAX && Self::is_hazard(&pristine.fs, &fact) {
                hazard_from = fact.seq;
            }
            if fact.op == OpKind::Chdir && fact.ok {
                if let Some((_, follow)) = &fact.physical {
                    cwd = follow.clone();
                }
            }
            by_site.entry(fact.site).or_default().push(events.len());
            events.push(fact);
        }
        let first_seq = |hit: fn(OpKind) -> bool| {
            events
                .iter()
                .filter(|e| hit(e.op))
                .map(|e| e.seq)
                .min()
                .unwrap_or(usize::MAX)
        };
        let first_reg_write = first_seq(|op| matches!(op, OpKind::RegWrite | OpKind::RegDelete));
        let first_net_use = first_seq(mutates_net);
        let mut read_creds: BTreeMap<String, Vec<Credentials>> = BTreeMap::new();
        for ev in clean.os.audit.events() {
            if let AuditEvent::FileRead { path, by, .. } = ev {
                read_creds.entry(path.to_string()).or_default().push(*by);
            }
        }
        AppAnalysis {
            events,
            by_site,
            hazard_from,
            pristine,
            setup_args: setup.args.clone(),
            setup_env: setup.env.clone(),
            read_creds,
            clean_exit: clean.exit,
            clean_crashed: clean.crashed.clone(),
            clean_audit_events: clean.os.audit.len(),
            clean_violations: clean.violations.clone(),
            first_reg_write,
            first_net_use,
            guards: Mutex::default(),
        }
    }

    fn fact_of(pristine: &Os, cwd: &str, ev: &TraceEvent) -> EventFact {
        let fs = &pristine.fs;
        let pristine_value = match (ev.op, &ev.object) {
            (OpKind::RegRead, ObjectRef::RegValue(key, value)) => pristine
                .registry
                .get_value(key, value)
                .ok()
                .map(|(text, _)| text.to_string()),
            _ => None,
        };
        let physical = match &ev.object {
            ObjectRef::File(p) if path::is_absolute(p) => Some(physical_forms(fs, p)),
            ObjectRef::File(p) if !path::contains_dotdot(p) => Some(physical_forms(fs, &path::join(cwd, p))),
            _ => None,
        };
        EventFact {
            seq: ev.seq,
            site: ev.site,
            occurrence: ev.occurrence,
            op: ev.op,
            object: ev.object.clone(),
            physical,
            semantic: ev.semantic,
            ok: ev.ok,
            pristine_value,
        }
    }

    /// An event invalidates pristine-world alias reasoning when it changes
    /// (or may change) the link structure, or when its object cannot be
    /// resolved unambiguously.
    fn is_hazard(fs: &Vfs, fact: &EventFact) -> bool {
        match fact.op {
            OpKind::Rename | OpKind::Symlink => true,
            OpKind::Delete => {
                // Unlinking a symlink changes the alias map.
                if let ObjectRef::File(p) = &fact.object {
                    match (fs.walk(p, false, None), fs.walk(p, true, None)) {
                        (Ok(a), Ok(b)) => a.id != b.id,
                        (Ok(_), Err(_)) => true, // dangling link
                        _ => false,
                    }
                } else {
                    false
                }
            }
            _ => match &fact.object {
                // `..` may hop through a symlink'd ancestor; an object
                // that did not resolve has no trustworthy physical form.
                ObjectRef::File(p) => path::contains_dotdot(p) || fact.physical.is_none(),
                _ => false,
            },
        }
    }

    /// The clean-run outcome as a digest with an explicit `applied` flag —
    /// what a pruned job's record replays.
    fn clean_digest(&self, applied: bool) -> RunDigest {
        RunDigest {
            applied,
            exit: self.clean_exit,
            crashed: self.clean_crashed.clone(),
            audit_events: self.clean_audit_events,
            violations: self.clean_violations.clone(),
        }
    }

    /// Physical paths the clean run touched (any file object, read or
    /// write), in pristine-world terms.
    pub fn touched_paths(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for ev in &self.events {
            if let Some((a, b)) = &ev.physical {
                out.insert(a.clone());
                out.insert(b.clone());
            }
        }
        out
    }

    /// Physical paths the clean run created or wrote.
    pub fn written_paths(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for ev in &self.events {
            if ev.ok && mutates_fs(ev.op) {
                if let Some((a, b)) = &ev.physical {
                    out.insert(a.clone());
                    out.insert(b.clone());
                }
            }
        }
        out
    }

    /// Static occurrence bound per site, from the clean trace.
    pub fn site_hits(&self) -> BTreeMap<SiteId, usize> {
        self.by_site.iter().map(|(s, evs)| (*s, evs.len())).collect()
    }

    /// Classifies one planned job. Sound by construction: only jobs whose
    /// runs provably replay the clean outcome come back
    /// [`Relevance::ProvablyInert`].
    ///
    /// This renders the reason or justification text; the engine and the
    /// linter decide without it ([`AppAnalysis::pruned_digest`],
    /// [`AppAnalysis::tally`]), so only tests call it today. It stays for
    /// an `explain` command that prints why a record was pruned.
    pub fn classify(&self, job: &InjectionPlan) -> Relevance {
        match self.decide(job) {
            Decision::Relevant => Relevance::Relevant,
            Decision::Unknown(why) => Relevance::Unknown {
                reason: self.reason(job, why),
            },
            Decision::Inert { applied, proof } => Relevance::ProvablyInert {
                applied,
                justification: self.justification(job, proof),
            },
        }
    }

    /// The synthesized replay digest for a provably inert job, `None` for
    /// anything that must execute. Decides as [`AppAnalysis::classify`]
    /// does, without building its reasons or justifications.
    pub fn pruned_digest(&self, job: &InjectionPlan) -> Option<RunDigest> {
        match self.decide(job) {
            Decision::Inert { applied, .. } => Some(self.clean_digest(applied)),
            _ => None,
        }
    }

    fn decide(&self, job: &InjectionPlan) -> Decision<'_> {
        match &job.fault.payload {
            FaultPayload::Direct(df) => self.decide_direct(job, df),
            FaultPayload::Indirect(f) => self.decide_indirect(job, f),
        }
    }

    fn strike_event(&self, site: &SiteId, occurrence: usize) -> Option<&EventFact> {
        self.by_site
            .get(site)?
            .iter()
            .map(|&i| &self.events[i])
            .find(|e| e.occurrence == occurrence)
    }

    /// The guard facts of one direct-fault target, resolved on first use.
    fn guard(&self, target: &str) -> Arc<Guard> {
        let mut memo = self.guards.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(guard) = memo.get(target) {
            return Arc::clone(guard);
        }
        let guard = Arc::new(if !path::is_absolute(target) || path::contains_dotdot(target) {
            Guard::Ambiguous
        } else {
            let (nofollow, follow) = physical_forms(&self.pristine.fs, target);
            if nofollow == follow {
                let first_mutation = self
                    .events
                    .iter()
                    .find(|e| mutates_fs(e.op) && e.matches_guard(&follow))
                    .map_or(usize::MAX, |e| e.seq);
                Guard::Physical {
                    path: follow,
                    first_mutation,
                }
            } else {
                Guard::Symlink
            }
        });
        memo.insert(target.to_string(), Arc::clone(&guard));
        guard
    }

    fn decide_direct(&self, job: &InjectionPlan, df: &DirectFault) -> Decision<'_> {
        let Some(strike) = self.strike_event(&job.site, job.occurrence) else {
            return Decision::Unknown(Why::OccurrenceAbsent);
        };
        let mut target = None;
        match footprint(df) {
            Footprint::Process => return Decision::Unknown(Why::ProcessState),
            Footprint::Registry => {
                if self.first_reg_write < strike.seq {
                    return Decision::Unknown(Why::RegistryMutated);
                }
            }
            Footprint::Net => {
                if self.first_net_use < strike.seq {
                    return Decision::Unknown(Why::NetConsumed);
                }
            }
            Footprint::Fs(first, second) => {
                if strike.seq > 0 && self.hazard_from < strike.seq {
                    return Decision::Unknown(Why::AliasHazard);
                }
                let mut first_mutation = usize::MAX;
                for (n, t) in std::iter::once(first).chain(second).enumerate() {
                    let guard = self.guard(t);
                    match &*guard {
                        Guard::Ambiguous => return Decision::Unknown(Why::AmbiguousTarget(n)),
                        Guard::Symlink => return Decision::Unknown(Why::SymlinkTarget(n)),
                        Guard::Physical {
                            first_mutation: seq, ..
                        } => first_mutation = first_mutation.min(*seq),
                    }
                    if second.is_none() {
                        target = Some(guard);
                    }
                }
                if first_mutation < strike.seq {
                    return Decision::Unknown(Why::GuardMutated(first_mutation));
                }
            }
        }
        // The guard set is clean: the fault meets exactly the pristine
        // state. Probe whether applying it there changes anything.
        let mut probe = self.pristine.clone();
        let applies_cleanly = df.apply(&mut probe, Pid(0)).is_ok();
        if probe.same_substrate(&self.pristine) {
            return Decision::Inert {
                applied: applies_cleanly,
                proof: Proof::StateNoOp {
                    prefix_len: strike.seq,
                    applies_cleanly,
                },
            };
        }
        // A chown fault changes state, but the change may still be
        // invisible to every remaining access.
        let new_owner = match df {
            DirectFault::FileChownRoot { .. } => Some((Uid::ROOT, Gid::ROOT)),
            DirectFault::FileChownAttacker { .. } => {
                let s = &self.pristine.scenario;
                Some((s.attacker, s.attacker_gid))
            }
            _ => None,
        };
        if let (Some((no, ng)), Some(Guard::Physical { path, .. })) = (new_owner, target.as_deref()) {
            if applies_cleanly {
                if let Some(proof) = self.chown_grants_preserved(path, strike.seq, no, ng) {
                    return Decision::Inert { applied: true, proof };
                }
            }
        }
        Decision::Relevant
    }

    /// Proof attempt for [`Justification::GrantsPreserved`]: re-owning
    /// `target` to `new_owner:new_group` at the strike point is
    /// unobservable.
    ///
    /// Requires the whole trace to be alias-stable (suffix spellings must
    /// keep resolving as in the pristine world), the target to be a plain
    /// non-symlink file whose *untrusted-owner* status does not flip (the
    /// `Untrusted` read label carries only the path, so equal status means
    /// equal labels), every at-or-after-strike event touching it to be a
    /// successful content read — the one file access whose audit record
    /// and payload omit the owner — and the read grant to be identical
    /// under the old and new ownership for the invoker (the `Secret`-label
    /// test) and for every credential the clean run's audit log shows
    /// reading the file.
    fn chown_grants_preserved(
        &self,
        target: &str,
        strike_seq: usize,
        new_owner: Uid,
        new_group: Gid,
    ) -> Option<Proof<'_>> {
        if self.hazard_from != usize::MAX {
            return None;
        }
        let walked = self.pristine.fs.walk(target, false, None).ok()?;
        let inode = self.pristine.fs.inode(walked.id).ok()?;
        if !inode.is_file() {
            return None;
        }
        let (owner, group, mode) = (inode.owner, inode.group, inode.mode);
        let invoker = self.pristine.scenario.invoker;
        let untrusted = |o: Uid| !o.is_root() && o != invoker;
        if untrusted(owner) != untrusted(new_owner) {
            return None;
        }
        let mut suffix_reads = 0usize;
        for e in self.events.iter().filter(|e| e.seq >= strike_seq) {
            if e.matches_guard(target) {
                if e.op == OpKind::ReadFile && e.ok {
                    suffix_reads += 1;
                } else {
                    return None;
                }
            }
        }
        let creds = std::iter::once(self.pristine.invoker_cred())
            .chain(self.read_creds.get(target).into_iter().flatten().copied());
        let mut creds_checked = 0usize;
        for cred in creds {
            if mode.grants(owner, group, &cred, Access::Read) != mode.grants(new_owner, new_group, &cred, Access::Read)
            {
                return None;
            }
            creds_checked += 1;
        }
        Some(Proof::GrantsPreserved {
            suffix_reads,
            creds_checked,
        })
    }

    fn decide_indirect(&self, job: &InjectionPlan, fault: &IndirectFault) -> Decision<'_> {
        let Some(site_events) = self.by_site.get(&job.site) else {
            return Decision::Unknown(Why::SiteAbsent);
        };
        let strike = match job.fault.semantic {
            // Semantic-matched faults strike the first successful receive
            // with that semantic, at any occurrence.
            Some(sem) => site_events
                .iter()
                .map(|&i| &self.events[i])
                .find(|e| e.ok && e.semantic == Some(sem)),
            // Semantic-free faults strike their exact occurrence.
            None => match self.strike_event(&job.site, job.occurrence) {
                Some(e) if e.ok => Some(e),
                Some(_) => None,
                None => return Decision::Unknown(Why::OccurrenceAbsent),
            },
        };
        let Some(strike) = strike else {
            return Decision::Inert {
                applied: false,
                proof: Proof::NeverFires,
            };
        };
        match self.identity_inert(fault, strike) {
            Some(values_checked) => Decision::Inert {
                applied: true,
                proof: Proof::IdentityTransform { strike, values_checked },
            },
            None => Decision::Relevant,
        }
    }

    /// Proof attempt for [`Justification::IdentityTransform`]: the fault
    /// fires at `strike` but rewrites the received value to itself.
    /// Returns how many candidate values were checked.
    ///
    /// The strike value is recovered from the pristine world — spawn
    /// environment and argv are immutable for the whole run (the sandbox
    /// has no `setenv`, and events before the strike are unperturbed), and
    /// registry values are guarded against pre-strike writes. The traced
    /// argv object does not say which index was read, so every argument
    /// must be a fixed point. The check runs the *actual*
    /// [`IndirectFault::apply_to_data`] mutation, which preserves labels,
    /// so byte equality means the payload is identical.
    fn identity_inert(&self, fault: &IndirectFault, strike: &EventFact) -> Option<usize> {
        let values: Vec<&str> = match (strike.op, &strike.object) {
            (OpKind::Getenv, ObjectRef::EnvVar(name)) => vec![self.setup_env.get(name)?],
            (OpKind::ReadArg, ObjectRef::Args) if !self.setup_args.is_empty() => {
                self.setup_args.iter().map(|a| &**a).collect()
            }
            (OpKind::RegRead, ObjectRef::RegValue(..)) if self.first_reg_write >= strike.seq => {
                vec![strike.pristine_value.as_deref()?]
            }
            _ => return None,
        };
        for v in &values {
            let mut data = Data::from(*v);
            fault.apply_to_data(&mut data);
            if data.as_text() != *v {
                return None;
            }
        }
        Some(values.len())
    }

    /// Why [`AppAnalysis::classify`] gave up on `job`, in words.
    fn reason(&self, job: &InjectionPlan, why: Why) -> String {
        let target = |n: usize| match &job.fault.payload {
            FaultPayload::Direct(df) => match footprint(df) {
                Footprint::Fs(first, second) => std::iter::once(first).chain(second).nth(n).unwrap_or_default(),
                _ => "",
            },
            FaultPayload::Indirect(_) => "",
        };
        match why {
            Why::OccurrenceAbsent => format!("site {}#{} absent from the clean trace", job.site, job.occurrence),
            Why::SiteAbsent => format!("site {} absent from the clean trace", job.site),
            Why::ProcessState => "process-state faults are never analyzed statically".to_string(),
            Why::RegistryMutated => "registry mutated before the strike point".to_string(),
            Why::NetConsumed => "network state consumed before the strike point".to_string(),
            Why::AliasHazard => format!("alias structure may change at clean-trace event {}", self.hazard_from),
            Why::AmbiguousTarget(n) => format!("target `{}` is not an unambiguous absolute path", target(n)),
            Why::SymlinkTarget(n) => format!("target `{}` resolves through a symlink", target(n)),
            Why::GuardMutated(seq) => format!("clean-trace event {seq} mutates guard path before the strike"),
        }
    }

    /// The [`Justification`] of an inert `job`.
    fn justification(&self, job: &InjectionPlan, proof: Proof<'_>) -> Justification {
        let guards = || -> Vec<String> {
            let FaultPayload::Direct(df) = &job.fault.payload else {
                return Vec::new();
            };
            let Footprint::Fs(first, second) = footprint(df) else {
                return Vec::new();
            };
            std::iter::once(first)
                .chain(second)
                .filter_map(|t| match &*self.guard(t) {
                    Guard::Physical { path, .. } => Some(path.clone()),
                    _ => None,
                })
                .collect()
        };
        match proof {
            Proof::StateNoOp {
                prefix_len,
                applies_cleanly,
            } => Justification::StateNoOp {
                guards: guards(),
                prefix_len,
                applies_cleanly,
            },
            Proof::GrantsPreserved {
                suffix_reads,
                creds_checked,
            } => Justification::GrantsPreserved {
                path: guards().remove(0),
                suffix_reads,
                creds_checked,
            },
            Proof::NeverFires => Justification::NeverFires {
                site: job.site.to_string(),
                occurrence: job.occurrence,
                matching_ok_events: 0,
            },
            Proof::IdentityTransform { strike, values_checked } => Justification::IdentityTransform {
                site: strike.site.to_string(),
                source: match &strike.object {
                    ObjectRef::Args => "argv".to_string(),
                    other => other.to_string(),
                },
                values_checked,
            },
        }
    }

    /// Relevance tallies over a job list: `(relevant, inert, unknown)`.
    pub fn tally(&self, jobs: &[InjectionPlan]) -> (usize, usize, usize) {
        let mut relevant = 0;
        let mut inert = 0;
        let mut unknown = 0;
        for job in jobs {
            match self.decide(job) {
                Decision::Relevant => relevant += 1,
                Decision::Inert { .. } => inert += 1,
                Decision::Unknown(_) => unknown += 1,
            }
        }
        (relevant, inert, unknown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_once, Campaign, CampaignOptions};
    use crate::engine::spec::WorldSpec;
    use epa_sandbox::app::Application;
    use epa_sandbox::cred::{Gid, Uid};
    use epa_sandbox::os::Os;
    use epa_sandbox::trace::InputSemantic;

    /// Reads a config that exists, probes one that doesn't, then writes a
    /// report — a miniature of the standard apps' shapes.
    struct Probe;
    impl Application for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn run(&self, os: &mut Os, pid: Pid) -> i32 {
            let _ = os.sys_read_file(pid, "probe:conf", "/etc/probe.conf");
            let _ = os.sys_read_file(pid, "probe:opt", "/etc/probe.local");
            let _ = os.sys_getenv(pid, "probe:env", "PROBE_MODE", InputSemantic::EnvValue);
            let _ = os.sys_write_file(pid, "probe:out", "/var/probe.out", "report", 0o644);
            0
        }
    }

    fn setup() -> crate::campaign::TestSetup {
        let scenario = epa_sandbox::os::ScenarioMeta::default();
        WorldSpec::builder()
            .user("root", Uid::ROOT, Gid::ROOT, "/root")
            .user("student", scenario.invoker, scenario.invoker_gid, "/home/student")
            .root_file("/etc/probe.conf", "mode=safe", 0o644)
            .dir("/var", Uid::ROOT, Gid::ROOT, 0o755)
            .build()
            .materialize()
            .expect("probe world materializes")
    }

    fn analysis_of(setup: &crate::campaign::TestSetup) -> AppAnalysis {
        let clean = run_once(setup, &Probe, None);
        AppAnalysis::from_clean_run(setup, &clean)
    }

    fn job(site: &str, occurrence: usize, fault: crate::perturb::ConcreteFault) -> InjectionPlan {
        InjectionPlan {
            site: SiteId::new(site),
            occurrence,
            fault,
        }
    }

    #[test]
    fn missing_file_direct_noops_are_inert_and_existing_targets_are_relevant() {
        let setup = setup();
        let analysis = analysis_of(&setup);
        let mk = |df: DirectFault| crate::perturb::ConcreteFault {
            id: "t".into(),
            category: crate::model::EaiCategory::Other,
            semantic: None,
            description: "".into(),
            payload: FaultPayload::Direct(df),
        };
        // Removing a file that is not there is a no-op.
        let inert = analysis.classify(&job(
            "probe:opt",
            0,
            mk(DirectFault::FileMakeMissing {
                path: "/etc/probe.local".into(),
            }),
        ));
        assert!(inert.is_inert(), "got {inert:?}");
        // Removing a file that *is* there changes the world.
        let relevant = analysis.classify(&job(
            "probe:conf",
            0,
            mk(DirectFault::FileMakeMissing {
                path: "/etc/probe.conf".into(),
            }),
        ));
        assert_eq!(relevant, Relevance::Relevant);
        // Chowning an already-root-owned file to root is a no-op.
        let chown = analysis.classify(&job(
            "probe:conf",
            0,
            mk(DirectFault::FileChownRoot {
                path: "/etc/probe.conf".into(),
            }),
        ));
        assert!(chown.is_inert(), "got {chown:?}");
        // Working-directory faults are never analyzed.
        let wd = analysis.classify(&job(
            "probe:conf",
            0,
            mk(DirectFault::WorkingDirectory { dir: "/tmp".into() }),
        ));
        assert!(matches!(wd, Relevance::Unknown { .. }));
    }

    #[test]
    fn failed_receive_makes_indirect_faults_inert() {
        let setup = setup();
        let analysis = analysis_of(&setup);
        let indirect = |sem| crate::perturb::ConcreteFault {
            id: "t".into(),
            category: crate::model::EaiCategory::Other,
            semantic: sem,
            description: "".into(),
            payload: FaultPayload::Indirect(crate::perturb::IndirectFault::MakeRelative),
        };
        // PROBE_MODE is unset: the getenv fails, nothing to rewrite.
        let env = analysis.classify(&job("probe:env", 0, indirect(Some(InputSemantic::EnvValue))));
        assert!(env.is_inert(), "got {env:?}");
        // The existing config read succeeds: the fault fires.
        let conf = analysis.classify(&job("probe:conf", 0, indirect(None)));
        assert_eq!(conf, Relevance::Relevant);
        // The missing-file read fails: occurrence-matched fault never fires.
        let opt = analysis.classify(&job("probe:opt", 0, indirect(None)));
        assert!(opt.is_inert(), "got {opt:?}");
    }

    #[test]
    fn pruned_digest_replays_the_clean_outcome() {
        let setup = setup();
        let clean = run_once(&setup, &Probe, None);
        let analysis = AppAnalysis::from_clean_run(&setup, &clean);
        let fault = crate::perturb::ConcreteFault {
            id: "t".into(),
            category: crate::model::EaiCategory::Other,
            semantic: None,
            description: "".into(),
            payload: FaultPayload::Direct(DirectFault::FileMakeMissing {
                path: "/etc/probe.local".into(),
            }),
        };
        let digest = analysis
            .pruned_digest(&job("probe:opt", 0, fault.clone()))
            .expect("provably inert");
        assert_eq!(digest.exit, clean.exit);
        assert_eq!(digest.audit_events, clean.os.audit.len());
        assert_eq!(digest.violations.len(), clean.violations.len());
        // The no-op still "applies" (the god-mode mutation reports Ok).
        assert!(digest.applied);
        // Force-run the job: the real record must match the synthesis.
        let campaign = Campaign::build(&Probe, &setup, CampaignOptions::default());
        let record = campaign.run_job(&shim_sync::sync::Arc::from([job("probe:opt", 0, fault)]), 0);
        assert_eq!(record.applied, digest.applied);
        assert_eq!(record.exit, digest.exit);
        assert_eq!(record.audit_events, digest.audit_events);
        assert_eq!(record.violations.len(), digest.violations.len());
    }

    #[test]
    fn guard_mutation_before_the_strike_demotes_to_unknown() {
        struct WriteThenStat;
        impl Application for WriteThenStat {
            fn name(&self) -> &'static str {
                "write-then-stat"
            }
            fn run(&self, os: &mut Os, pid: Pid) -> i32 {
                let _ = os.sys_write_file(pid, "w:make", "/var/w.tmp", "x", 0o644);
                let _ = os.sys_stat(pid, "w:check", "/var/w.tmp");
                0
            }
        }
        let scenario = epa_sandbox::os::ScenarioMeta::default();
        let setup = WorldSpec::builder()
            .user("root", Uid::ROOT, Gid::ROOT, "/root")
            .user("student", scenario.invoker, scenario.invoker_gid, "/home/student")
            .dir("/var", Uid::ROOT, Gid::ROOT, 0o755)
            .build()
            .materialize()
            .expect("world materializes");
        let clean = run_once(&setup, &WriteThenStat, None);
        let analysis = AppAnalysis::from_clean_run(&setup, &clean);
        let fault = crate::perturb::ConcreteFault {
            id: "t".into(),
            category: crate::model::EaiCategory::Other,
            semantic: None,
            description: "".into(),
            payload: FaultPayload::Direct(DirectFault::FileMakeMissing {
                path: "/var/w.tmp".into(),
            }),
        };
        // At the stat site the file exists *because the app created it*:
        // the pristine-world no-op proof must not transfer.
        let v = analysis.classify(&job("w:check", 0, fault));
        assert!(matches!(v, Relevance::Unknown { .. }), "got {v:?}");
    }

    /// `pruned_digest` decides without building text, `classify` renders
    /// the same decision with its reason or proof; both must agree on
    /// every job, and the rendered text is pinned.
    #[test]
    fn classify_and_pruned_digest_agree_and_explain() {
        let setup = setup();
        let analysis = analysis_of(&setup);
        let direct = |site: &str, df: DirectFault| {
            job(
                site,
                0,
                crate::perturb::ConcreteFault {
                    id: "t".into(),
                    category: crate::model::EaiCategory::Other,
                    semantic: None,
                    description: "".into(),
                    payload: FaultPayload::Direct(df),
                },
            )
        };
        let indirect = |site: &str, semantic| {
            job(
                site,
                0,
                crate::perturb::ConcreteFault {
                    id: "t".into(),
                    category: crate::model::EaiCategory::Other,
                    semantic,
                    description: "".into(),
                    payload: FaultPayload::Indirect(IndirectFault::MakeRelative),
                },
            )
        };
        let missing = |path: &str| DirectFault::FileMakeMissing { path: path.into() };
        let unknown = |reason: &str| Relevance::Unknown { reason: reason.into() };
        let cases = [
            (
                direct("probe:opt", missing("/etc//probe.local")),
                Relevance::ProvablyInert {
                    applied: true,
                    justification: Justification::StateNoOp {
                        guards: vec!["/etc/probe.local".into()],
                        prefix_len: 1,
                        applies_cleanly: true,
                    },
                },
            ),
            (
                direct(
                    "probe:opt",
                    DirectFault::SymlinkSwap {
                        path: "/etc/probe.local".into(),
                        target: "/etc/probe.conf".into(),
                    },
                ),
                Relevance::Relevant,
            ),
            (direct("probe:conf", missing("/etc/probe.conf")), Relevance::Relevant),
            (
                direct("probe:none", missing("/etc/probe.conf")),
                unknown("site probe:none#0 absent from the clean trace"),
            ),
            (
                direct("probe:conf", DirectFault::WorkingDirectory { dir: "/tmp".into() }),
                unknown("process-state faults are never analyzed statically"),
            ),
            (
                direct("probe:conf", missing("etc/probe.conf")),
                unknown("target `etc/probe.conf` is not an unambiguous absolute path"),
            ),
            (
                direct(
                    "probe:conf",
                    DirectFault::SymlinkSwap {
                        path: "/etc/probe.conf".into(),
                        target: "/var/../etc/x".into(),
                    },
                ),
                unknown("target `/var/../etc/x` is not an unambiguous absolute path"),
            ),
            (
                direct("probe:out", missing("/var/probe.out")),
                Relevance::ProvablyInert {
                    applied: true,
                    justification: Justification::StateNoOp {
                        guards: vec!["/var/probe.out".into()],
                        prefix_len: 3,
                        applies_cleanly: true,
                    },
                },
            ),
            (
                indirect("probe:env", Some(epa_sandbox::trace::InputSemantic::EnvValue)),
                Relevance::ProvablyInert {
                    applied: false,
                    justification: Justification::NeverFires {
                        site: "probe:env".into(),
                        occurrence: 0,
                        matching_ok_events: 0,
                    },
                },
            ),
            (indirect("probe:conf", None), Relevance::Relevant),
            (
                indirect("probe:none", None),
                unknown("site probe:none absent from the clean trace"),
            ),
        ];
        for (job, expected) in cases {
            let relevance = analysis.classify(&job);
            assert_eq!(relevance, expected, "{job:?}");
            let applied = match relevance {
                Relevance::ProvablyInert { applied, .. } => Some(applied),
                _ => None,
            };
            assert_eq!(analysis.pruned_digest(&job).map(|d| d.applied), applied, "{job:?}");
        }
    }
}
