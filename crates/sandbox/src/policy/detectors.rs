//! The standard detector units: one named [`Detector`] per policy family.
//!
//! Each unit owns exactly one rule family; [`super::OracleSet::standard`]
//! registers all eight. Every verdict carries an [`Evidence`] chain
//! snapshotting the implicated audit event, so reports can point back at
//! the exact syscall effects that prove the violation.

use crate::audit::AuditEvent;
use crate::fs::FileTag;

use super::{Detector, Evidence, Verdict, Violation, ViolationKind};

/// Builds the single-event verdict every standard unit emits.
fn verdict(
    detector: &'static str,
    kind: ViolationKind,
    rule: &str,
    description: String,
    idx: usize,
    event: &AuditEvent,
) -> Verdict {
    Verdict::new(
        Violation::new(kind, rule, description, idx),
        detector,
        Evidence::single(idx, event),
    )
}

/// R1: a privileged process modified an object its invoker could not write
/// — overwrote foreign state or planted a file inside a protected directory.
#[derive(Debug, Default)]
pub struct IntegrityWriteDetector {
    found: Vec<Verdict>,
}

impl Detector for IntegrityWriteDetector {
    fn name(&self) -> &'static str {
        "integrity-write"
    }

    fn observe(&mut self, idx: usize, event: &AuditEvent) {
        let AuditEvent::FileWrite(w) = event else { return };
        if !w.by.is_elevated() {
            return;
        }
        let overwrote_foreign = w.existed_before && !w.invoker_could_write && !w.created_by_self;
        let planted_in_protected =
            !w.existed_before && w.parent_tags.contains(&FileTag::Protected) && !w.invoker_could_write_parent;
        if overwrote_foreign || planted_in_protected {
            let what = if overwrote_foreign {
                format!("overwrote {} which the invoker could not write", w.path)
            } else {
                format!("planted {} inside a protected directory", w.path)
            };
            self.found.push(verdict(
                self.name(),
                ViolationKind::IntegrityWrite,
                "R1-integrity-write",
                what,
                idx,
                event,
            ));
        }
    }

    fn finish(&mut self) -> Vec<Verdict> {
        std::mem::take(&mut self.found)
    }
}

/// R3: a privileged process deleted a protected/critical/secret object the
/// invoker could not have removed.
#[derive(Debug, Default)]
pub struct IntegrityDeleteDetector {
    found: Vec<Verdict>,
}

impl Detector for IntegrityDeleteDetector {
    fn name(&self) -> &'static str {
        "integrity-delete"
    }

    fn observe(&mut self, idx: usize, event: &AuditEvent) {
        let AuditEvent::FileDelete {
            path,
            tags,
            invoker_could_delete,
            by,
            ..
        } = event
        else {
            return;
        };
        let sensitive =
            tags.contains(&FileTag::Protected) || tags.contains(&FileTag::Critical) || tags.contains(&FileTag::Secret);
        if by.is_elevated() && sensitive && !invoker_could_delete {
            self.found.push(verdict(
                self.name(),
                ViolationKind::IntegrityDelete,
                "R3-integrity-delete",
                format!("privileged deletion of protected object {path}"),
                idx,
                event,
            ));
        }
    }

    fn finish(&mut self) -> Vec<Verdict> {
        std::mem::take(&mut self.found)
    }
}

/// R2: secret bytes the invoker may not read reached an invoker-visible
/// sink — an emit to stdout/network, or a file the invoker can read back.
#[derive(Debug, Default)]
pub struct DisclosureDetector {
    found: Vec<Verdict>,
}

impl Detector for DisclosureDetector {
    fn name(&self) -> &'static str {
        "disclosure"
    }

    fn observe(&mut self, idx: usize, event: &AuditEvent) {
        match event {
            AuditEvent::Emit { sink, labels, .. } => {
                for label in labels {
                    if label.is_protected_secret() {
                        self.found.push(verdict(
                            self.name(),
                            ViolationKind::Disclosure,
                            "R2-confidentiality",
                            format!("{label} disclosed to {sink}"),
                            idx,
                            event,
                        ));
                    }
                }
            }
            AuditEvent::FileWrite(w) if w.invoker_could_read_after => {
                for label in &w.data_labels {
                    if label.is_protected_secret() {
                        self.found.push(verdict(
                            self.name(),
                            ViolationKind::Disclosure,
                            "R2-confidentiality",
                            format!("{label} disclosed to file {}", w.path),
                            idx,
                            event,
                        ));
                    }
                }
            }
            _ => {}
        }
    }

    fn finish(&mut self) -> Vec<Verdict> {
        std::mem::take(&mut self.found)
    }
}

/// R6: a privileged process executed an attacker-controllable program — a
/// binary that is neither root's nor the effective user's, world-writable,
/// or found in an untrusted directory.
#[derive(Debug, Default)]
pub struct UntrustedExecDetector {
    found: Vec<Verdict>,
}

impl Detector for UntrustedExecDetector {
    fn name(&self) -> &'static str {
        "untrusted-exec"
    }

    fn observe(&mut self, idx: usize, event: &AuditEvent) {
        let AuditEvent::Exec {
            requested,
            resolved,
            owner,
            world_writable,
            dir_untrusted,
            by,
            ..
        } = event
        else {
            return;
        };
        if !(by.is_elevated() || by.is_privileged()) {
            return;
        }
        // The binary itself must be attacker-controllable; a root-owned
        // binary reached via tainted input is the program's (dangerous but
        // distinct) design decision and is caught by the write/delete rules
        // when it matters.
        let untrusted_binary = (!owner.is_root() && *owner != by.ruid) || *world_writable || *dir_untrusted;
        if untrusted_binary {
            self.found.push(verdict(
                self.name(),
                ViolationKind::UntrustedExec,
                "R6-untrusted-exec",
                format!("privileged exec of {resolved} (requested `{requested}`): attacker-controllable binary"),
                idx,
                event,
            ));
        }
    }

    fn finish(&mut self) -> Vec<Verdict> {
        std::mem::take(&mut self.found)
    }
}

/// R5: the target of a privileged operation (write, delete, registry
/// delete) was named by untrusted input. Deleting attacker-named but
/// harmless objects is the normal job of cleanup tools and does not fire;
/// the delete rules require a *sensitive* target — the NT font-key case
/// study.
#[derive(Debug, Default)]
pub struct TaintedPrivilegedOpDetector {
    found: Vec<Verdict>,
}

impl Detector for TaintedPrivilegedOpDetector {
    fn name(&self) -> &'static str {
        "tainted-privileged-op"
    }

    fn observe(&mut self, idx: usize, event: &AuditEvent) {
        match event {
            AuditEvent::FileWrite(w)
                if w.by.is_privileged() && w.path_taint.iter().any(super::super::data::Label::is_untrusted) =>
            {
                self.found.push(verdict(
                    self.name(),
                    ViolationKind::TaintedPrivilegedOp,
                    "R5-tainted-write",
                    format!("privileged write to attacker-named path {}", w.path),
                    idx,
                    event,
                ));
            }
            AuditEvent::FileDelete {
                path,
                tags,
                path_taint,
                by,
                ..
            } => {
                let sensitive = tags.contains(&FileTag::Protected)
                    || tags.contains(&FileTag::Critical)
                    || tags.contains(&FileTag::Secret);
                if by.is_privileged() && sensitive && path_taint.iter().any(super::super::data::Label::is_untrusted) {
                    self.found.push(verdict(
                        self.name(),
                        ViolationKind::TaintedPrivilegedOp,
                        "R5-tainted-delete",
                        format!("privileged deletion of attacker-named sensitive path {path}"),
                        idx,
                        event,
                    ));
                }
            }
            AuditEvent::RegistryDelete { key, path_taint, by }
                if by.is_privileged() && path_taint.iter().any(super::super::data::Label::is_untrusted) =>
            {
                self.found.push(verdict(
                    self.name(),
                    ViolationKind::TaintedPrivilegedOp,
                    "R5-tainted-regdelete",
                    format!("privileged registry deletion of attacker-named key {key}"),
                    idx,
                    event,
                ));
            }
            _ => {}
        }
    }

    fn finish(&mut self) -> Vec<Verdict> {
        std::mem::take(&mut self.found)
    }
}

/// R7: a privileged write or exec was driven by a message whose origin was
/// spoofed.
#[derive(Debug, Default)]
pub struct SpoofedActionDetector {
    found: Vec<Verdict>,
}

impl Detector for SpoofedActionDetector {
    fn name(&self) -> &'static str {
        "spoofed-action"
    }

    fn observe(&mut self, idx: usize, event: &AuditEvent) {
        match event {
            AuditEvent::FileWrite(w) => {
                let privileged = w.by.is_elevated() || w.by.is_privileged();
                let spoofed = w.data_labels.iter().any(super::super::data::Label::is_spoofed)
                    || w.path_taint.iter().any(super::super::data::Label::is_spoofed);
                if privileged && spoofed {
                    self.found.push(verdict(
                        self.name(),
                        ViolationKind::SpoofedAction,
                        "R7-spoofed-write",
                        format!("write to {} driven by spoofed message", w.path),
                        idx,
                        event,
                    ));
                }
            }
            AuditEvent::Exec {
                resolved,
                path_taint,
                arg_labels,
                by,
                ..
            } => {
                let privileged = by.is_elevated() || by.is_privileged();
                let spoofed = path_taint.iter().any(super::super::data::Label::is_spoofed)
                    || arg_labels.iter().any(super::super::data::Label::is_spoofed);
                if privileged && spoofed {
                    self.found.push(verdict(
                        self.name(),
                        ViolationKind::SpoofedAction,
                        "R7-spoofed-exec",
                        format!("exec of {resolved} driven by spoofed message"),
                        idx,
                        event,
                    ));
                }
            }
            _ => {}
        }
    }

    fn finish(&mut self) -> Vec<Verdict> {
        std::mem::take(&mut self.found)
    }
}

/// R4: a fixed-size buffer was overrun by an unchecked copy — the proxy for
/// memory corruption / arbitrary code execution.
#[derive(Debug, Default)]
pub struct MemoryCorruptionDetector {
    found: Vec<Verdict>,
}

impl Detector for MemoryCorruptionDetector {
    fn name(&self) -> &'static str {
        "memory-corruption"
    }

    fn observe(&mut self, idx: usize, event: &AuditEvent) {
        let AuditEvent::MemoryCorruption {
            buffer,
            capacity,
            attempted,
            ..
        } = event
        else {
            return;
        };
        self.found.push(verdict(
            self.name(),
            ViolationKind::MemoryCorruption,
            "R4-memory-safety",
            format!("unchecked copy of {attempted} bytes into {capacity}-byte buffer `{buffer}`"),
            idx,
            event,
        ));
    }

    fn finish(&mut self) -> Vec<Verdict> {
        std::mem::take(&mut self.found)
    }
}

/// Application- and world-declared invariant outcomes: a `Custom` audit
/// event with `violated: true` becomes a verdict.
#[derive(Debug, Default)]
pub struct CustomDetector {
    found: Vec<Verdict>,
}

impl Detector for CustomDetector {
    fn name(&self) -> &'static str {
        "custom"
    }

    fn observe(&mut self, idx: usize, event: &AuditEvent) {
        let AuditEvent::Custom { rule, violated, detail } = event else {
            return;
        };
        if *violated {
            self.found.push(verdict(
                self.name(),
                ViolationKind::Custom,
                &format!("custom:{rule}"),
                detail.clone(),
                idx,
                event,
            ));
        }
    }

    fn finish(&mut self) -> Vec<Verdict> {
        std::mem::take(&mut self.found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::Credentials;

    #[test]
    fn units_report_their_names_and_drain_on_finish() {
        let mut d = MemoryCorruptionDetector::default();
        assert_eq!(d.name(), "memory-corruption");
        let ev = AuditEvent::MemoryCorruption {
            buffer: "b".into(),
            capacity: 4,
            attempted: 9,
            by: Credentials::root(),
        };
        d.observe(7, &ev);
        let first = d.finish();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].event_index, 7);
        assert_eq!(first[0].evidence.first_index(), Some(7));
        assert!(d.finish().is_empty(), "finish drains");
    }

    #[test]
    fn non_matching_events_are_ignored() {
        let mut d = IntegrityDeleteDetector::default();
        d.observe(
            0,
            &AuditEvent::Custom {
                rule: "r".into(),
                violated: true,
                detail: String::new(),
            },
        );
        assert!(d.finish().is_empty());
    }
}
