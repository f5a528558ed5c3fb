//! The security-policy oracle: a pluggable, evidence-carrying detector
//! pipeline.
//!
//! The paper's methodology needs, at step 8, a decision procedure for
//! "was the security policy violated?". This module provides it as an open
//! pipeline over the [`crate::audit::AuditLog`]:
//!
//! * a [`Detector`] is one named oracle unit — it observes audit events as
//!   they are recorded and, when the run ends, reports [`Verdict`]s;
//! * an [`OracleSet`] composes detectors; [`OracleSet::standard`] holds the
//!   eight rule families the paper's case studies exercise (integrity,
//!   confidentiality, privilege/trust, and memory safety — see
//!   [`detectors`]), and scenarios extend the set with serializable
//!   [`invariant::InvariantSpec`]s;
//! * a [`Verdict`] wraps the [`Violation`] with the detector that produced
//!   it and an [`Evidence`] chain: the implicated audit-event indices plus
//!   their `describe()` snapshots, captured at observation time.
//!
//! Detectors evaluate **incrementally**: campaign code attaches an
//! `OracleSet` to the run's audit log
//! ([`crate::audit::AuditLog::attach_oracle`]), every
//! [`crate::audit::AuditLog::push`] streams the event to the set, and the
//! verdict list is ready the moment the run ends — no post-hoc re-scan of
//! the full log per rule family. [`OracleSet::evaluate_log`] is the batch
//! path over a completed log.
//!
//! The rules are deliberately written so that a **clean (unperturbed) run of
//! a well-configured world produces zero violations**; campaign code asserts
//! this before injecting any fault, so every reported violation is
//! attributable to the injected perturbation.

pub mod detectors;
pub mod invariant;

use std::fmt;
use std::ops::Deref;

use serde::{Deserialize, Serialize};

use crate::audit::{AuditEvent, AuditLog};

pub use detectors::{
    CustomDetector, DisclosureDetector, IntegrityDeleteDetector, IntegrityWriteDetector, MemoryCorruptionDetector,
    SpoofedActionDetector, TaintedPrivilegedOpDetector, UntrustedExecDetector,
};
pub use invariant::InvariantSpec;

/// The policy family a violation falls into.
///
/// `#[non_exhaustive]`: the oracle pipeline is open for extension, so new
/// policy families may appear; downstream matches need a wildcard arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ViolationKind {
    /// A privileged process modified an object its invoker could not write.
    IntegrityWrite,
    /// A privileged process deleted a protected/critical object or one the
    /// invoker could not remove.
    IntegrityDelete,
    /// Secret bytes the invoker may not read reached an invoker-visible sink.
    Disclosure,
    /// A privileged process executed an attacker-controllable program.
    UntrustedExec,
    /// A privileged operation's target was named by untrusted input.
    TaintedPrivilegedOp,
    /// An action was driven by a message whose origin was spoofed.
    SpoofedAction,
    /// A fixed-size buffer was overrun by an unchecked copy.
    MemoryCorruption,
    /// A scenario-declared invariant failed.
    Custom,
}

impl ViolationKind {
    /// Every kind, in declaration order.
    pub const ALL: [ViolationKind; 8] = [
        ViolationKind::IntegrityWrite,
        ViolationKind::IntegrityDelete,
        ViolationKind::Disclosure,
        ViolationKind::UntrustedExec,
        ViolationKind::TaintedPrivilegedOp,
        ViolationKind::SpoofedAction,
        ViolationKind::MemoryCorruption,
        ViolationKind::Custom,
    ];

    /// Stable short name (`"integrity-write"`, ...), the `Display` text.
    pub fn as_str(&self) -> &'static str {
        match self {
            ViolationKind::IntegrityWrite => "integrity-write",
            ViolationKind::IntegrityDelete => "integrity-delete",
            ViolationKind::Disclosure => "disclosure",
            ViolationKind::UntrustedExec => "untrusted-exec",
            ViolationKind::TaintedPrivilegedOp => "tainted-privileged-op",
            ViolationKind::SpoofedAction => "spoofed-action",
            ViolationKind::MemoryCorruption => "memory-corruption",
            ViolationKind::Custom => "custom",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A detected security-policy violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct Violation {
    /// The policy family.
    pub kind: ViolationKind,
    /// The rule that fired, e.g. `"R1-integrity-write"`.
    pub rule: String,
    /// Human-readable account of what happened.
    pub description: String,
    /// Index of the triggering event in the audit log.
    pub event_index: usize,
}

impl Violation {
    /// Builds a violation (the struct is `#[non_exhaustive]`, so downstream
    /// crates construct through this).
    pub fn new(
        kind: ViolationKind,
        rule: impl Into<String>,
        description: impl Into<String>,
        event_index: usize,
    ) -> Self {
        Violation {
            kind,
            rule: rule.into(),
            description: description.into(),
            event_index,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {} ({})", self.kind, self.description, self.rule)
    }
}

/// One implicated audit event: its index in the run's log plus the
/// `describe()` snapshot captured when the detector observed it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvidenceItem {
    /// Index of the event in the audit log.
    pub index: usize,
    /// The event's `describe()` text at observation time.
    pub summary: String,
}

/// The serializable evidence chain attached to a [`Verdict`]: which audit
/// events prove the violation, in implication order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evidence {
    /// The implicated events, in implication order.
    pub items: Vec<EvidenceItem>,
}

impl Evidence {
    /// An empty chain (finish-time verdicts with no triggering event).
    pub fn none() -> Self {
        Evidence::default()
    }

    /// A single-event chain, snapshotting the event's description.
    pub fn single(index: usize, event: &AuditEvent) -> Self {
        Evidence {
            items: vec![EvidenceItem {
                index,
                summary: event.describe(),
            }],
        }
    }

    /// Index of the first implicated event (`None` for an empty chain).
    pub fn first_index(&self) -> Option<usize> {
        self.items.first().map(|i| i.index)
    }

    /// Whether the chain implicates no event.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl fmt::Display for Evidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.items.as_slice() {
            [] => f.write_str("(no implicated events)"),
            items => {
                for (n, item) in items.iter().enumerate() {
                    if n > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "#{} {}", item.index, item.summary)?;
                }
                Ok(())
            }
        }
    }
}

/// A violation as reported by the detector pipeline: the [`Violation`]
/// itself, the detector unit that produced it, and the [`Evidence`] chain
/// linking it back to the audit events that prove it.
///
/// `Verdict` dereferences to its [`Violation`], so existing call sites keep
/// reading `verdict.kind`, `verdict.rule`, `verdict.description`.
///
/// `#[non_exhaustive]`: construct through [`Verdict::new`] /
/// [`Verdict::from_violation`]; future releases may attach more context.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct Verdict {
    /// The violation.
    pub violation: Violation,
    /// Name of the detector unit that produced it.
    pub detector: String,
    /// The implicated audit events.
    pub evidence: Evidence,
}

impl Verdict {
    /// Builds a verdict (the struct is `#[non_exhaustive]`, so downstream
    /// crates construct through this).
    pub fn new(violation: Violation, detector: impl Into<String>, evidence: Evidence) -> Self {
        Verdict {
            violation,
            detector: detector.into(),
            evidence,
        }
    }

    /// Wraps a bare violation with a single-event evidence chain derived
    /// from its `event_index` (no snapshot available — the summary is the
    /// violation description). Meant for tests and migration code; the
    /// pipeline itself always snapshots real events.
    pub fn from_violation(violation: Violation) -> Self {
        let evidence = Evidence {
            items: vec![EvidenceItem {
                index: violation.event_index,
                summary: violation.description.clone(),
            }],
        };
        Verdict {
            detector: violation.kind.as_str().to_string(),
            violation,
            evidence,
        }
    }

    /// The sort key [`OracleSet::finish`] orders verdicts by: first
    /// implicated event (empty chains sort last), then policy family.
    fn sort_key(&self) -> (usize, ViolationKind, &str, usize, &str, &str) {
        (
            self.evidence.first_index().unwrap_or(usize::MAX),
            self.violation.kind,
            self.violation.rule.as_str(),
            self.violation.event_index,
            self.violation.description.as_str(),
            self.detector.as_str(),
        )
    }
}

impl Deref for Verdict {
    type Target = Violation;

    fn deref(&self) -> &Violation {
        &self.violation
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <- {}", self.violation, self.evidence)
    }
}

/// One pluggable oracle unit.
///
/// A detector is streamed every audit event as it is recorded
/// ([`Detector::observe`]) and reports its verdicts when the run ends
/// ([`Detector::finish`]). Implementations must be deterministic: the same
/// event stream yields the same verdicts. `Send + Sync` because worlds —
/// and therefore any subscribed oracle — cross executor threads.
pub trait Detector: Send + Sync {
    /// Stable unit name, recorded on every verdict this detector emits.
    fn name(&self) -> &'static str;

    /// Observes one audit event (called in log order, once per event).
    fn observe(&mut self, idx: usize, event: &AuditEvent);

    /// Drains the verdicts accumulated over the observed stream, called
    /// once after the last event, and resets the detector to its freshly
    /// built state: an [`OracleSet`] is reused across runs, so nothing
    /// observed in one run may reach the next one's verdicts.
    fn finish(&mut self) -> Vec<Verdict>;
}

/// A composable set of [`Detector`]s — the oracle an engine run evaluates
/// against.
///
/// The [`OracleSet::standard`] set holds the eight standard rule families
/// (verdicts in the pipeline's canonical (first-evidence-index, kind)
/// order); scenarios extend it with [`invariant::InvariantSpec`] detectors
/// or any custom [`Detector`].
///
/// ```
/// use epa_sandbox::audit::{AuditEvent, AuditLog};
/// use epa_sandbox::cred::Credentials;
/// use epa_sandbox::policy::OracleSet;
///
/// let mut log = AuditLog::new();
/// log.attach_oracle(OracleSet::standard());
/// log.push(AuditEvent::MemoryCorruption {
///     buffer: "reqline".into(),
///     capacity: 64,
///     attempted: 5000,
///     by: Credentials::root(),
/// });
/// let verdicts = log.detach_oracle().expect("attached above").finish();
/// assert_eq!(verdicts.len(), 1);
/// assert_eq!(verdicts[0].evidence.first_index(), Some(0));
/// ```
pub struct OracleSet {
    detectors: Vec<Box<dyn Detector>>,
}

impl OracleSet {
    /// An empty set (useful for fully custom oracles).
    pub fn empty() -> Self {
        OracleSet { detectors: Vec::new() }
    }

    /// The standard eight-family set: integrity write/delete, disclosure,
    /// untrusted exec, tainted privileged ops, spoofed actions, memory
    /// corruption, and scenario-declared custom checks.
    pub fn standard() -> Self {
        OracleSet::empty()
            .with(Box::new(IntegrityWriteDetector::default()))
            .with(Box::new(IntegrityDeleteDetector::default()))
            .with(Box::new(DisclosureDetector::default()))
            .with(Box::new(UntrustedExecDetector::default()))
            .with(Box::new(TaintedPrivilegedOpDetector::default()))
            .with(Box::new(SpoofedActionDetector::default()))
            .with(Box::new(MemoryCorruptionDetector::default()))
            .with(Box::new(CustomDetector::default()))
    }

    /// Adds a detector (chainable).
    #[must_use]
    pub fn with(mut self, detector: Box<dyn Detector>) -> Self {
        self.detectors.push(detector);
        self
    }

    /// Adds a detector in place.
    pub fn register(&mut self, detector: Box<dyn Detector>) {
        self.detectors.push(detector);
    }

    /// Drops every detector registered after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.detectors.truncate(len);
    }

    /// Number of registered detectors.
    pub fn len(&self) -> usize {
        self.detectors.len()
    }

    /// Whether the set holds no detector.
    pub fn is_empty(&self) -> bool {
        self.detectors.is_empty()
    }

    /// Registered detector names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.detectors.iter().map(|d| d.name()).collect()
    }

    /// Streams one event to every detector.
    pub fn observe(&mut self, idx: usize, event: &AuditEvent) {
        for d in &mut self.detectors {
            d.observe(idx, event);
        }
    }

    /// Streams a whole recorded log (the batch path; the incremental path
    /// attaches the set to the log instead, see
    /// [`crate::audit::AuditLog::attach_oracle`]).
    pub fn observe_log(&mut self, log: &AuditLog) {
        for (idx, event) in log.iter() {
            self.observe(idx, event);
        }
    }

    /// Collects every detector's verdicts into one deterministic list:
    /// sorted by first implicated evidence index, then policy family (then
    /// rule/description as tiebreakers), with exact duplicates removed — so
    /// parallel-executor reports stay byte-identical to sequential runs
    /// regardless of detector registration order. Every detector is reset
    /// ([`Detector::finish`]), so the set can judge another run.
    pub fn finish(&mut self) -> Vec<Verdict> {
        let mut out: Vec<Verdict> = self.detectors.iter_mut().flat_map(|d| d.finish()).collect();
        out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        out.dedup();
        out
    }

    /// Batch convenience: streams `log` through the set and finishes.
    pub fn evaluate_log(mut self, log: &AuditLog) -> Vec<Verdict> {
        self.observe_log(log);
        self.finish()
    }
}

impl Default for OracleSet {
    fn default() -> Self {
        OracleSet::standard()
    }
}

impl fmt::Debug for OracleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OracleSet").field("detectors", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{SinkKind, WriteInfo};
    use crate::cred::{Credentials, Gid, Uid};
    use crate::data::{Label, LabelSet};
    use crate::fs::FileTag;
    use std::collections::BTreeSet;

    fn suid_cred() -> Credentials {
        Credentials::user(Uid(100), Gid(100)).with_euid(Uid::ROOT)
    }

    #[test]
    fn all_lists_every_kind_once_in_declaration_order() {
        // No wildcard arm: a new kind does not compile here until it has a
        // place in `ALL`.
        let place = |kind: ViolationKind| match kind {
            ViolationKind::IntegrityWrite => 0,
            ViolationKind::IntegrityDelete => 1,
            ViolationKind::Disclosure => 2,
            ViolationKind::UntrustedExec => 3,
            ViolationKind::TaintedPrivilegedOp => 4,
            ViolationKind::SpoofedAction => 5,
            ViolationKind::MemoryCorruption => 6,
            ViolationKind::Custom => 7,
        };
        for (i, kind) in ViolationKind::ALL.into_iter().enumerate() {
            assert_eq!(place(kind), i, "{kind}");
        }
    }

    fn clean_write(by: Credentials) -> WriteInfo {
        WriteInfo {
            path: "/var/spool/x".into(),
            existed_before: false,
            owner_before: None,
            invoker_could_write: false,
            target_tags: BTreeSet::new(),
            parent_tags: BTreeSet::new(),
            invoker_could_write_parent: false,
            invoker_could_read_after: false,
            created_by_self: false,
            path_taint: LabelSet::new(),
            data_labels: LabelSet::new(),
            by,
        }
    }

    fn eval(log: &AuditLog) -> Vec<Verdict> {
        OracleSet::standard().evaluate_log(log)
    }

    #[test]
    fn fresh_spool_write_is_clean() {
        let mut log = AuditLog::new();
        log.push(AuditEvent::FileWrite(clean_write(suid_cred())));
        assert!(eval(&log).is_empty());
    }

    #[test]
    fn overwriting_foreign_file_is_integrity_violation() {
        let mut log = AuditLog::new();
        let mut w = clean_write(suid_cred());
        w.path = "/etc/passwd".into();
        w.existed_before = true;
        w.owner_before = Some(Uid::ROOT);
        log.push(AuditEvent::FileWrite(w));
        let v = eval(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::IntegrityWrite);
        assert_eq!(v[0].detector, "integrity-write");
        assert_eq!(v[0].evidence.first_index(), Some(0));
        assert!(v[0].evidence.items[0].summary.contains("/etc/passwd"));
    }

    #[test]
    fn unelevated_process_may_overwrite_its_own_files() {
        let mut log = AuditLog::new();
        let mut w = clean_write(Credentials::user(Uid(100), Gid(100)));
        w.existed_before = true;
        w.invoker_could_write = true;
        log.push(AuditEvent::FileWrite(w));
        assert!(eval(&log).is_empty());
    }

    #[test]
    fn planting_into_protected_dir_is_violation() {
        let mut log = AuditLog::new();
        let mut w = clean_write(suid_cred());
        w.path = "/etc/cron.d/evil".into();
        w.parent_tags = [FileTag::Protected].into_iter().collect();
        log.push(AuditEvent::FileWrite(w));
        let v = eval(&log);
        assert_eq!(v[0].kind, ViolationKind::IntegrityWrite);
    }

    #[test]
    fn secret_to_stdout_is_disclosure() {
        let mut log = AuditLog::new();
        let labels: LabelSet = [Label::Secret {
            path: "/etc/shadow".into(),
            invoker_may_read: false,
        }]
        .into_iter()
        .collect();
        log.push(AuditEvent::Emit {
            sink: SinkKind::Stdout,
            labels,
            by: suid_cred(),
        });
        let v = eval(&log);
        assert_eq!(v[0].kind, ViolationKind::Disclosure);
        assert_eq!(v[0].evidence.items[0].summary, "emit to stdout");
    }

    #[test]
    fn readable_secret_is_not_disclosure() {
        let mut log = AuditLog::new();
        let labels: LabelSet = [Label::Secret {
            path: "/home/me/own".into(),
            invoker_may_read: true,
        }]
        .into_iter()
        .collect();
        log.push(AuditEvent::Emit {
            sink: SinkKind::Stdout,
            labels,
            by: suid_cred(),
        });
        assert!(eval(&log).is_empty());
    }

    #[test]
    fn tainted_delete_fires_for_privileged_process() {
        let mut log = AuditLog::new();
        let taint: LabelSet = [Label::Untrusted {
            source: "registry:Fonts".into(),
        }]
        .into_iter()
        .collect();
        log.push(AuditEvent::FileDelete {
            path: "/winnt/system.ini".into(),
            owner: Uid::ROOT,
            tags: [FileTag::Critical].into_iter().collect(),
            path_taint: taint,
            invoker_could_delete: false,
            by: Credentials::root(),
        });
        let v = eval(&log);
        assert!(v.iter().any(|x| x.kind == ViolationKind::TaintedPrivilegedOp));
    }

    #[test]
    fn untrusted_exec_detected() {
        let mut log = AuditLog::new();
        log.push(AuditEvent::Exec {
            requested: "tar".into(),
            resolved: "/tmp/evil/tar".into(),
            owner: Uid(666),
            world_writable: false,
            dir_untrusted: true,
            path_taint: LabelSet::new(),
            arg_labels: LabelSet::new(),
            by: suid_cred(),
        });
        let v = eval(&log);
        assert_eq!(v[0].kind, ViolationKind::UntrustedExec);
    }

    #[test]
    fn root_owned_binary_exec_is_clean() {
        let mut log = AuditLog::new();
        log.push(AuditEvent::Exec {
            requested: "tar".into(),
            resolved: "/usr/bin/tar".into(),
            owner: Uid::ROOT,
            world_writable: false,
            dir_untrusted: false,
            path_taint: LabelSet::new(),
            arg_labels: LabelSet::new(),
            by: suid_cred(),
        });
        assert!(eval(&log).is_empty());
    }

    #[test]
    fn spoofed_write_detected() {
        let mut log = AuditLog::new();
        let mut w = clean_write(suid_cred());
        w.data_labels = [Label::Spoofed {
            claimed_from: "ta-host".into(),
            actual_from: "evil".into(),
        }]
        .into_iter()
        .collect();
        log.push(AuditEvent::FileWrite(w));
        let v = eval(&log);
        assert!(v.iter().any(|x| x.kind == ViolationKind::SpoofedAction));
    }

    #[test]
    fn custom_rule_fires_only_when_violated() {
        let mut log = AuditLog::new();
        log.push(AuditEvent::Custom {
            rule: "auth-before-cmd".into(),
            violated: false,
            detail: String::new(),
        });
        log.push(AuditEvent::Custom {
            rule: "auth-before-cmd".into(),
            violated: true,
            detail: "cmd without auth".into(),
        });
        let v = eval(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Custom);
        assert_eq!(v[0].event_index, 1);
        assert_eq!(v[0].evidence.first_index(), Some(1));
    }

    #[test]
    fn memory_corruption_always_fires() {
        let mut log = AuditLog::new();
        log.push(AuditEvent::MemoryCorruption {
            buffer: "reqline".into(),
            capacity: 64,
            attempted: 5000,
            by: Credentials::root(),
        });
        let v = eval(&log);
        assert_eq!(v[0].kind, ViolationKind::MemoryCorruption);
    }

    #[test]
    fn verdicts_are_sorted_by_first_evidence_index_then_kind() {
        // One event raising several families plus a later single-family
        // event: the order must be (index, kind), not detector registration.
        let mut log = AuditLog::new();
        let mut w = clean_write(suid_cred());
        w.path = "/etc/passwd".into();
        w.existed_before = true;
        w.invoker_could_read_after = true;
        w.path_taint = [Label::Untrusted { source: "argv".into() }].into_iter().collect();
        w.data_labels = [Label::Secret {
            path: "/etc/shadow".into(),
            invoker_may_read: false,
        }]
        .into_iter()
        .collect();
        log.push(AuditEvent::FileWrite(w));
        log.push(AuditEvent::MemoryCorruption {
            buffer: "b".into(),
            capacity: 8,
            attempted: 64,
            by: Credentials::root(),
        });
        let v = eval(&log);
        let kinds: Vec<ViolationKind> = v.iter().map(|x| x.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ViolationKind::IntegrityWrite,
                ViolationKind::Disclosure,
                ViolationKind::TaintedPrivilegedOp,
                ViolationKind::MemoryCorruption,
            ]
        );
        let keys: Vec<(Option<usize>, ViolationKind)> = v.iter().map(|x| (x.evidence.first_index(), x.kind)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn duplicate_verdicts_are_deduped() {
        struct Echo;
        impl Detector for Echo {
            fn name(&self) -> &'static str {
                "memory-corruption"
            }
            fn observe(&mut self, _idx: usize, _event: &AuditEvent) {}
            fn finish(&mut self) -> Vec<Verdict> {
                vec![Verdict::new(
                    Violation::new(ViolationKind::MemoryCorruption, "R4-memory-safety", "dup", 0),
                    "memory-corruption",
                    Evidence::none(),
                )]
            }
        }
        let mut set = OracleSet::empty().with(Box::new(Echo)).with(Box::new(Echo));
        let v = set.finish();
        assert_eq!(v.len(), 1, "identical verdicts from two units collapse to one");
    }

    #[test]
    fn incremental_attach_equals_batch_scan() {
        let mut incremental = AuditLog::new();
        incremental.attach_oracle(OracleSet::standard());
        let mut batch = AuditLog::new();
        for log in [&mut incremental, &mut batch] {
            let mut w = clean_write(suid_cred());
            w.path = "/etc/passwd".into();
            w.existed_before = true;
            log.push(AuditEvent::FileWrite(w));
            log.push(AuditEvent::Custom {
                rule: "r".into(),
                violated: true,
                detail: "d".into(),
            });
        }
        let via_attach = incremental.detach_oracle().expect("attached").finish();
        let via_batch = OracleSet::standard().evaluate_log(&batch);
        assert_eq!(via_attach, via_batch);
        assert_eq!(via_attach.len(), 2);
    }
}
