//! Scenario-declared invariants as *data*.
//!
//! An [`InvariantSpec`] is a serializable description of a custom oracle
//! check. Where applications previously could only signal scenario
//! invariants from inside their own code (via
//! [`crate::os::Os::emit_custom`], an opaque in-code check), a world spec
//! now *declares* its invariants next to its files and users: the spec
//! rides along in the serialized `WorldSpec`, survives round-trips, and is
//! compiled into a [`Detector`] registered on the run's
//! [`super::OracleSet`].

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::audit::AuditEvent;
use crate::intern::{self, PathSym};

use super::{Detector, Evidence, Verdict, Violation, ViolationKind};

/// One declarative custom invariant. Compile it with
/// [`InvariantSpec::detector`]; verdicts surface as
/// [`ViolationKind::Custom`] with rule `invariant:<label>`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InvariantSpec {
    /// The named path must not be written or deleted during the run.
    FilePristine {
        /// Absolute physical path that must stay untouched.
        path: String,
    },
    /// No program under the given path prefix may be executed.
    ForbidExec {
        /// Absolute path prefix (`/tmp` forbids `/tmp/...` binaries).
        prefix: String,
    },
    /// The named in-application check (a `Custom` audit event with this
    /// rule id) must run at least once — a run that never reaches the check
    /// is itself a violation (e.g. "authentication must happen").
    RequireRule {
        /// The `Custom` event rule id that must appear.
        rule: String,
    },
}

impl InvariantSpec {
    /// Declares that `path` must stay untouched.
    pub fn file_pristine(path: impl Into<String>) -> Self {
        InvariantSpec::FilePristine { path: path.into() }
    }

    /// Declares that nothing under `prefix` may be executed.
    pub fn forbid_exec(prefix: impl Into<String>) -> Self {
        InvariantSpec::ForbidExec { prefix: prefix.into() }
    }

    /// Declares that the in-application check `rule` must run.
    pub fn require_rule(rule: impl Into<String>) -> Self {
        InvariantSpec::RequireRule { rule: rule.into() }
    }

    /// Stable label, used in the verdict's rule id (`invariant:<label>`).
    pub fn label(&self) -> String {
        match self {
            InvariantSpec::FilePristine { path } => format!("file-pristine:{path}"),
            InvariantSpec::ForbidExec { prefix } => format!("forbid-exec:{prefix}"),
            InvariantSpec::RequireRule { rule } => format!("require-rule:{rule}"),
        }
    }

    /// The path the spec constrains, when it names one (used by spec
    /// validation to require absolute paths).
    pub fn constrained_path(&self) -> Option<&str> {
        match self {
            InvariantSpec::FilePristine { path } => Some(path),
            InvariantSpec::ForbidExec { prefix } => Some(prefix),
            InvariantSpec::RequireRule { .. } => None,
        }
    }

    /// Compiles the spec into a detector for one run. The watched path or
    /// prefix is resolved to interned symbols *here*, once — the per-event
    /// [`Detector::observe`] path is then allocation-free on non-matching
    /// events (symbol compares and a precomputed prefix probe).
    pub fn detector(&self) -> Box<dyn Detector> {
        let (watched, exec_prefix) = match self {
            InvariantSpec::FilePristine { path } => (Some(intern::intern(path)), None),
            InvariantSpec::ForbidExec { prefix } => (
                Some(intern::intern(prefix)),
                Some(format!("{}/", prefix.trim_end_matches('/'))),
            ),
            InvariantSpec::RequireRule { .. } => (None, None),
        };
        Box::new(InvariantDetector {
            spec: self.clone(),
            watched,
            exec_prefix,
            satisfied: false,
            events_seen: 0,
            found: Vec::new(),
        })
    }
}

impl fmt::Display for InvariantSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The runtime form of one [`InvariantSpec`].
struct InvariantDetector {
    spec: InvariantSpec,
    /// The constrained path/prefix, interned once at compile time so the
    /// hot `observe` compares symbols instead of strings.
    watched: Option<PathSym>,
    /// For [`InvariantSpec::ForbidExec`]: the `"<prefix>/"` probe string,
    /// built once instead of per `Exec` event.
    exec_prefix: Option<String>,
    /// For [`InvariantSpec::RequireRule`]: whether the check ran.
    satisfied: bool,
    /// Events observed so far (= the audit-log length at finish time, used
    /// to anchor finish-time verdicts past every real event index).
    events_seen: usize,
    found: Vec<Verdict>,
}

impl InvariantDetector {
    fn fire(&mut self, description: String, idx: usize, event: &AuditEvent) {
        self.found.push(Verdict::new(
            Violation::new(
                ViolationKind::Custom,
                format!("invariant:{}", self.spec.label()),
                description,
                idx,
            ),
            "invariant",
            Evidence::single(idx, event),
        ));
    }
}

impl Detector for InvariantDetector {
    fn name(&self) -> &'static str {
        "invariant"
    }

    fn observe(&mut self, idx: usize, event: &AuditEvent) {
        self.events_seen = self.events_seen.max(idx + 1);
        match (&self.spec, event) {
            (InvariantSpec::FilePristine { path }, AuditEvent::FileWrite(w)) if Some(w.path) == self.watched => {
                self.fire(format!("declared-pristine file {path} was written"), idx, event);
            }
            (InvariantSpec::FilePristine { path }, AuditEvent::FileDelete { path: deleted, .. })
                if Some(*deleted) == self.watched =>
            {
                self.fire(format!("declared-pristine file {path} was deleted"), idx, event);
            }
            (InvariantSpec::ForbidExec { prefix }, AuditEvent::Exec { resolved, .. })
                if Some(*resolved) == self.watched
                    || self.exec_prefix.as_deref().is_some_and(|pre| resolved.starts_with(pre)) =>
            {
                self.fire(format!("forbidden exec of {resolved} (under {prefix})"), idx, event);
            }
            (InvariantSpec::RequireRule { rule }, AuditEvent::Custom { rule: seen, .. }) if seen == rule => {
                self.satisfied = true;
            }
            _ => {}
        }
    }

    fn finish(&mut self) -> Vec<Verdict> {
        if let InvariantSpec::RequireRule { rule } = &self.spec {
            if !self.satisfied {
                // No triggering event exists: the violation is the absence
                // of one, so the evidence chain is empty and the verdict
                // sorts after every event-anchored one. `event_index` is
                // anchored one past the last observed event (the log length)
                // so it never implicates a real, unrelated event.
                self.found.push(Verdict::new(
                    Violation::new(
                        ViolationKind::Custom,
                        format!("invariant:{}", self.spec.label()),
                        format!("required check `{rule}` never ran"),
                        self.events_seen,
                    ),
                    "invariant",
                    Evidence::none(),
                ));
            }
        }
        self.satisfied = false;
        self.events_seen = 0;
        std::mem::take(&mut self.found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::WriteInfo;
    use crate::cred::{Credentials, Uid};
    use crate::data::LabelSet;
    use crate::policy::OracleSet;
    use std::collections::BTreeSet;

    fn write_to(path: &str) -> AuditEvent {
        AuditEvent::FileWrite(WriteInfo {
            path: path.into(),
            existed_before: true,
            owner_before: Some(Uid::ROOT),
            invoker_could_write: true,
            target_tags: BTreeSet::new(),
            parent_tags: BTreeSet::new(),
            invoker_could_write_parent: true,
            invoker_could_read_after: false,
            created_by_self: false,
            path_taint: LabelSet::new(),
            data_labels: LabelSet::new(),
            by: Credentials::root(),
        })
    }

    #[test]
    fn file_pristine_fires_on_write_and_delete() {
        let spec = InvariantSpec::file_pristine("/etc/motd");
        let mut d = spec.detector();
        d.observe(0, &write_to("/etc/other"));
        d.observe(1, &write_to("/etc/motd"));
        let v = d.finish();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Custom);
        assert_eq!(v[0].rule, "invariant:file-pristine:/etc/motd");
        assert_eq!(v[0].evidence.first_index(), Some(1));
    }

    #[test]
    fn forbid_exec_matches_prefix_not_siblings() {
        let spec = InvariantSpec::forbid_exec("/tmp");
        let mut d = spec.detector();
        let exec = |resolved: &str| AuditEvent::Exec {
            requested: "x".into(),
            resolved: resolved.into(),
            owner: Uid::ROOT,
            world_writable: false,
            dir_untrusted: false,
            path_taint: LabelSet::new(),
            arg_labels: LabelSet::new(),
            by: Credentials::root(),
        };
        d.observe(0, &exec("/tmpfiles/tool"));
        d.observe(1, &exec("/tmp/evil"));
        let v = d.finish();
        assert_eq!(v.len(), 1);
        assert!(v[0].description.contains("/tmp/evil"));
    }

    #[test]
    fn require_rule_fires_only_when_the_check_never_ran() {
        let spec = InvariantSpec::require_rule("auth");
        let mut silent = spec.detector();
        let v = silent.finish();
        assert_eq!(v.len(), 1);
        assert!(v[0].evidence.is_empty());
        assert!(v[0].description.contains("never ran"));

        let mut ran = spec.detector();
        ran.observe(
            0,
            &AuditEvent::Custom {
                rule: "auth".into(),
                violated: false,
                detail: String::new(),
            },
        );
        assert!(ran.finish().is_empty());
    }

    #[test]
    fn finish_resets_a_detector_for_its_next_run() {
        // A long run, then a short one, through one compiled detector: the
        // second verdict is anchored past the second run's events only.
        let mut d = InvariantSpec::require_rule("auth").detector();
        for idx in 0..5 {
            d.observe(idx, &write_to("/etc/other"));
        }
        assert_eq!(d.finish()[0].event_index, 5);
        d.observe(0, &write_to("/etc/other"));
        assert_eq!(d.finish()[0].event_index, 1);
        assert_eq!(d.finish()[0].event_index, 0, "a run with no event anchors at 0");
    }

    #[test]
    fn specs_serialize_round_trip() {
        for spec in [
            InvariantSpec::file_pristine("/etc/motd"),
            InvariantSpec::forbid_exec("/tmp"),
            InvariantSpec::require_rule("auth"),
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: InvariantSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn invariants_compose_with_the_standard_set() {
        let mut set = OracleSet::standard().with(InvariantSpec::file_pristine("/etc/motd").detector());
        set.observe(0, &write_to("/etc/motd"));
        let v = set.finish();
        assert!(v.iter().any(|x| x.detector == "invariant"));
    }
}
