//! Indirect-fault patterns: the executable rendition of paper Table 5.
//!
//! Each input semantic maps to the perturbation patterns the paper's
//! vulnerability analysis found *likely to cause security violations* for
//! that semantic — the key insight distinguishing the method from random
//! (Fuzz-style) input perturbation.

use std::fmt;

use epa_sandbox::os::ScenarioMeta;
use epa_sandbox::trace::InputSemantic;

use super::CatalogRow;
use crate::model::{indirect_kind_of, EaiCategory};
use crate::perturb::{shared_text, ConcreteFault, FaultPayload, IndirectFault};

/// Filler length used by "change length" faults: far beyond any of the
/// fixed buffers the model applications declare.
pub const LENGTHEN_BY: usize = 4096;

fn fault(
    semantic: InputSemantic,
    slug: &str,
    description: fmt::Arguments<'_>,
    payload: IndirectFault,
) -> ConcreteFault {
    ConcreteFault {
        id: shared_text(format_args!("indirect:{}:{slug}", semantic_slug(semantic))),
        category: EaiCategory::Indirect(indirect_kind_of(semantic)),
        semantic: Some(semantic),
        description: shared_text(description),
        payload: FaultPayload::Indirect(payload),
    }
}

fn semantic_slug(semantic: InputSemantic) -> &'static str {
    match semantic {
        InputSemantic::UserFileName => "user-file-name",
        InputSemantic::UserCommand => "user-command",
        InputSemantic::EnvPathList => "env-path-list",
        InputSemantic::EnvPermMask => "env-perm-mask",
        InputSemantic::EnvValue => "env-value",
        InputSemantic::FsFileName => "fs-file-name",
        InputSemantic::FsFileExtension => "fs-file-extension",
        InputSemantic::NetIpAddr => "net-ip-addr",
        InputSemantic::NetPacket => "net-packet",
        InputSemantic::NetHostName => "net-host-name",
        InputSemantic::NetDnsReply => "net-dns-reply",
        InputSemantic::ProcMessage => "proc-message",
        InputSemantic::Opaque => "opaque",
    }
}

/// The indirect faults applicable to an input with the given semantics
/// (paper Table 5, rightmost column, made concrete).
pub fn indirect_faults_for(semantic: InputSemantic, scenario: &ScenarioMeta) -> Vec<ConcreteFault> {
    let mut out = Vec::new();
    push_indirect_faults(semantic, scenario, &mut out);
    out
}

/// [`indirect_faults_for`], appended to `out`.
pub(crate) fn push_indirect_faults(semantic: InputSemantic, scenario: &ScenarioMeta, out: &mut Vec<ConcreteFault>) {
    match semantic {
        InputSemantic::UserFileName => out.extend([
            fault(
                semantic,
                "lengthen",
                format_args!("change length of user-supplied file name"),
                IndirectFault::Lengthen { by: LENGTHEN_BY },
            ),
            fault(
                semantic,
                "relative",
                format_args!("use relative path in file name"),
                IndirectFault::MakeRelative,
            ),
            fault(
                semantic,
                "absolute",
                format_args!("use absolute path in file name"),
                IndirectFault::MakeAbsolute,
            ),
            fault(
                semantic,
                "dotdot",
                format_args!("insert `..` in front of the file name"),
                IndirectFault::InsertDotDot { depth: 1 },
            ),
            fault(
                semantic,
                "slash",
                format_args!("insert `/` in file name"),
                IndirectFault::InsertSpecial { ch: '/' },
            ),
        ]),
        InputSemantic::UserCommand => out.extend([
            fault(
                semantic,
                "lengthen",
                format_args!("change length of user-supplied command"),
                IndirectFault::Lengthen { by: LENGTHEN_BY },
            ),
            fault(
                semantic,
                "relative",
                format_args!("use relative path in command"),
                IndirectFault::MakeRelative,
            ),
            fault(
                semantic,
                "absolute",
                format_args!("use absolute path in command"),
                IndirectFault::MakeAbsolute,
            ),
            fault(
                semantic,
                "semicolon",
                format_args!("insert `;` in command"),
                IndirectFault::InsertSpecial { ch: ';' },
            ),
            fault(
                semantic,
                "newline",
                format_args!("insert newline in command"),
                IndirectFault::InsertSpecial { ch: '\n' },
            ),
        ]),
        InputSemantic::EnvValue => out.extend([
            fault(
                semantic,
                "lengthen",
                format_args!("change length of environment value"),
                IndirectFault::Lengthen { by: LENGTHEN_BY },
            ),
            fault(
                semantic,
                "relative",
                format_args!("use relative path in environment value"),
                IndirectFault::MakeRelative,
            ),
            fault(
                semantic,
                "absolute",
                format_args!("use absolute path in environment value"),
                IndirectFault::MakeAbsolute,
            ),
            fault(
                semantic,
                "semicolon",
                format_args!("insert `;` in environment value"),
                IndirectFault::InsertSpecial { ch: ';' },
            ),
        ]),
        InputSemantic::EnvPathList => out.extend([
            fault(
                semantic,
                "lengthen",
                format_args!("change length of the path list"),
                IndirectFault::Lengthen { by: LENGTHEN_BY },
            ),
            fault(
                semantic,
                "reorder",
                format_args!("rearrange order of paths"),
                IndirectFault::PathListReorder,
            ),
            fault(
                semantic,
                "insert-untrusted",
                format_args!("insert untrusted path {} at the front", scenario.untrusted_dir),
                IndirectFault::PathListInsertUntrusted {
                    dir: scenario.untrusted_dir.clone(),
                },
            ),
            fault(
                semantic,
                "wrong",
                format_args!("use incorrect path list"),
                IndirectFault::PathListWrong {
                    dir: "/nonexistent/bin".into(),
                },
            ),
            fault(
                semantic,
                "recursive",
                format_args!("use recursive (current-directory) path"),
                IndirectFault::PathListRecursive,
            ),
        ]),
        InputSemantic::EnvPermMask => out.push(fault(
            semantic,
            "zero",
            format_args!("change mask to 0 so it masks no permission bit"),
            IndirectFault::PermMaskZero,
        )),
        InputSemantic::FsFileName => out.extend([
            fault(
                semantic,
                "lengthen",
                format_args!("change length of file name from file-system input"),
                IndirectFault::Lengthen { by: LENGTHEN_BY },
            ),
            fault(
                semantic,
                "relative",
                format_args!("use relative path"),
                IndirectFault::MakeRelative,
            ),
            fault(
                semantic,
                "absolute",
                format_args!("use absolute path"),
                IndirectFault::MakeAbsolute,
            ),
            fault(
                semantic,
                "semicolon",
                format_args!("insert special character `;`"),
                IndirectFault::InsertSpecial { ch: ';' },
            ),
        ]),
        InputSemantic::FsFileExtension => out.extend([
            fault(
                semantic,
                "exe",
                format_args!("change extension to `.exe`"),
                IndirectFault::ChangeExtension { ext: "exe".into() },
            ),
            fault(
                semantic,
                "lengthen",
                format_args!("change length of file extension"),
                IndirectFault::LengthenExtension,
            ),
        ]),
        InputSemantic::NetIpAddr => out.extend([
            fault(
                semantic,
                "lengthen",
                format_args!("change length of the address"),
                IndirectFault::Lengthen { by: 256 },
            ),
            fault(
                semantic,
                "malform",
                format_args!("use bad-formatted address"),
                IndirectFault::Malform,
            ),
        ]),
        InputSemantic::NetPacket => out.extend([
            fault(
                semantic,
                "oversize",
                format_args!("change size of the packet"),
                IndirectFault::Lengthen { by: 8192 },
            ),
            fault(
                semantic,
                "malform",
                format_args!("use bad-formatted packet"),
                IndirectFault::Malform,
            ),
        ]),
        InputSemantic::NetHostName => out.extend([
            fault(
                semantic,
                "lengthen",
                format_args!("change length of host name"),
                IndirectFault::Lengthen { by: 1024 },
            ),
            fault(
                semantic,
                "malform",
                format_args!("use bad-formatted host name"),
                IndirectFault::Malform,
            ),
        ]),
        InputSemantic::NetDnsReply => out.extend([
            fault(
                semantic,
                "lengthen",
                format_args!("change length of the DNS reply"),
                IndirectFault::Lengthen { by: 1024 },
            ),
            fault(
                semantic,
                "malform",
                format_args!("use bad-formatted reply"),
                IndirectFault::Malform,
            ),
        ]),
        InputSemantic::ProcMessage => out.extend([
            fault(
                semantic,
                "lengthen",
                format_args!("change length of the message"),
                IndirectFault::Lengthen { by: 8192 },
            ),
            fault(
                semantic,
                "malform",
                format_args!("use bad-formatted message"),
                IndirectFault::Malform,
            ),
        ]),
        InputSemantic::Opaque => {}
    }
}

/// The rows of paper Table 5, for the reproduction harness.
pub fn table5_rows() -> Vec<CatalogRow> {
    fn row(entity: &str, item: &str, injections: &[&str]) -> CatalogRow {
        CatalogRow {
            entity: entity.to_string(),
            item: item.to_string(),
            injections: injections.iter().map(std::string::ToString::to_string).collect(),
        }
    }
    vec![
        row(
            "User Input",
            "file name + directory name",
            &[
                "change length",
                "use relative path",
                "use absolute path",
                "insert special characters such as `..`, `/` in the name",
            ],
        ),
        row(
            "User Input",
            "command",
            &[
                "change length",
                "use relative path",
                "use absolute path",
                "insert special characters such as `;`, `|`, `&` or newline in the command",
            ],
        ),
        row(
            "Environment Variable",
            "file name + directory name",
            &[
                "change length",
                "use relative path",
                "use absolute path",
                "use special characters, such as `;`, `|` or `&` in the name",
            ],
        ),
        row(
            "Environment Variable",
            "execution path + library path",
            &[
                "change length",
                "rearrange order of path",
                "insert a untrusted path",
                "use incorrect path",
                "use recursive path",
            ],
        ),
        row(
            "Environment Variable",
            "permission mask",
            &["change mask to 0 so it will not mask any permission bit"],
        ),
        row(
            "File System Input",
            "file name + directory name",
            &[
                "change length",
                "use relative path",
                "use absolute path",
                "use special characters in the name such as `;`, `&` or `/` in name",
            ],
        ),
        row(
            "File System Input",
            "file extension",
            &[
                "change to other file extensions like `.exe` in Windows system",
                "change length of file extension",
            ],
        ),
        row(
            "Network Input",
            "IP address",
            &["change length of the address", "use bad-formatted address"],
        ),
        row(
            "Network Input",
            "packet",
            &["change size of the packet", "use bad-formatted packet"],
        ),
        row(
            "Network Input",
            "host name",
            &["change length of host name", "use bad-formatted host name"],
        ),
        row(
            "Network Input",
            "DNS reply",
            &["change length of the DNS reply", "use bad-formatted reply"],
        ),
        row(
            "Process Input",
            "message",
            &["change length of the message", "use bad-formatted message"],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_counts_match_calibration() {
        let s = ScenarioMeta::default();
        assert_eq!(indirect_faults_for(InputSemantic::UserFileName, &s).len(), 5);
        assert_eq!(indirect_faults_for(InputSemantic::UserCommand, &s).len(), 5);
        assert_eq!(indirect_faults_for(InputSemantic::EnvValue, &s).len(), 4);
        assert_eq!(indirect_faults_for(InputSemantic::EnvPathList, &s).len(), 5);
        assert_eq!(indirect_faults_for(InputSemantic::EnvPermMask, &s).len(), 1);
        assert_eq!(indirect_faults_for(InputSemantic::FsFileName, &s).len(), 4);
        assert_eq!(indirect_faults_for(InputSemantic::FsFileExtension, &s).len(), 2);
        for sem in [
            InputSemantic::NetIpAddr,
            InputSemantic::NetPacket,
            InputSemantic::NetHostName,
            InputSemantic::NetDnsReply,
            InputSemantic::ProcMessage,
        ] {
            assert_eq!(indirect_faults_for(sem, &s).len(), 2, "{sem:?}");
        }
        assert!(indirect_faults_for(InputSemantic::Opaque, &s).is_empty());
    }

    #[test]
    fn every_fault_is_indirect_and_uniquely_named() {
        let s = ScenarioMeta::default();
        let all: Vec<_> = [
            InputSemantic::UserFileName,
            InputSemantic::UserCommand,
            InputSemantic::EnvValue,
            InputSemantic::EnvPathList,
            InputSemantic::EnvPermMask,
            InputSemantic::FsFileName,
            InputSemantic::FsFileExtension,
            InputSemantic::NetIpAddr,
            InputSemantic::NetPacket,
            InputSemantic::NetHostName,
            InputSemantic::NetDnsReply,
            InputSemantic::ProcMessage,
        ]
        .into_iter()
        .flat_map(|sem| indirect_faults_for(sem, &s))
        .collect();
        let ids: std::collections::BTreeSet<_> = all.iter().map(|f| &f.id).collect();
        assert_eq!(ids.len(), all.len());
        assert!(all.iter().all(|f| !f.is_direct()));
        assert!(all.iter().all(|f| f.category.is_indirect()));
    }

    #[test]
    fn path_list_insert_uses_scenario_dir() {
        let s = ScenarioMeta::default();
        let faults = indirect_faults_for(InputSemantic::EnvPathList, &s);
        assert!(faults.iter().any(|f| f.description.contains(&s.untrusted_dir)));
    }

    #[test]
    fn table5_row_count() {
        assert_eq!(table5_rows().len(), 12);
    }
}
