//! The EAI classifier: derives a category from mechanism evidence — for
//! database entries *and* for live oracle verdicts.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use epa_core::engine::SuiteReport;
use epa_core::model::{DirectKind, EaiCategory, FsAttribute, IndirectKind, NetAttribute, ProcAttribute};
use epa_sandbox::policy::ViolationKind;

use crate::entry::{AttributeFault, InputFlaw, InputSource, Mechanism, PlainFault, VulnEntry};

/// Why an entry falls outside the EAI classification (paper §2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Exclusion {
    /// Not enough analysis in the database entry.
    InsufficientInformation,
    /// Design error, out of scope.
    Design,
    /// Configuration error, out of scope.
    Configuration,
}

impl std::fmt::Display for Exclusion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Exclusion::InsufficientInformation => "insufficient information",
            Exclusion::Design => "design error",
            Exclusion::Configuration => "configuration error",
        };
        f.write_str(s)
    }
}

/// The classifier's verdict for one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Classification {
    /// Outside the study scope.
    Excluded(Exclusion),
    /// Classified under the EAI model (including `Other`).
    Eai(EaiCategory),
}

impl Classification {
    /// The EAI category, when classified.
    pub fn category(&self) -> Option<EaiCategory> {
        match self {
            Classification::Eai(c) => Some(*c),
            Classification::Excluded(_) => None,
        }
    }
}

/// Classifies one entry from its mechanism evidence.
pub fn classify(entry: &VulnEntry) -> Classification {
    classify_mechanism(entry.mechanism)
}

/// Classifies bare mechanism evidence (shared by [`classify`] and the
/// oracle-verdict linkage, [`classify_violation`]).
pub fn classify_mechanism(mechanism: Mechanism) -> Classification {
    match mechanism {
        Mechanism::InsufficientInfo => Classification::Excluded(Exclusion::InsufficientInformation),
        Mechanism::DesignError => Classification::Excluded(Exclusion::Design),
        Mechanism::ConfigError => Classification::Excluded(Exclusion::Configuration),
        Mechanism::Input { source, .. } => {
            let kind = match source {
                InputSource::UserArg | InputSource::UserStdin => IndirectKind::UserInput,
                InputSource::EnvVariable => IndirectKind::EnvironmentVariable,
                InputSource::ConfigFile => IndirectKind::FileSystemInput,
                InputSource::NetworkMessage => IndirectKind::NetworkInput,
                InputSource::PeerProcess => IndirectKind::ProcessInput,
            };
            Classification::Eai(EaiCategory::Indirect(kind))
        }
        Mechanism::Attribute(attr) => {
            let kind = match attr {
                AttributeFault::FileExistence => DirectKind::FileSystem(FsAttribute::Existence),
                AttributeFault::FileSymlink => DirectKind::FileSystem(FsAttribute::SymbolicLink),
                AttributeFault::FilePermission => DirectKind::FileSystem(FsAttribute::Permission),
                AttributeFault::FileOwnership => DirectKind::FileSystem(FsAttribute::Ownership),
                AttributeFault::FileInvariance => DirectKind::FileSystem(FsAttribute::ContentInvariance),
                AttributeFault::WorkingDirectory => DirectKind::FileSystem(FsAttribute::WorkingDirectory),
                AttributeFault::NetAuthenticity => DirectKind::Network(NetAttribute::MessageAuthenticity),
                AttributeFault::NetProtocol => DirectKind::Network(NetAttribute::Protocol),
                AttributeFault::NetAvailability => DirectKind::Network(NetAttribute::ServiceAvailability),
                AttributeFault::NetTrust => DirectKind::Network(NetAttribute::EntityTrust),
                AttributeFault::ProcTrust => DirectKind::Process(ProcAttribute::Trust),
            };
            Classification::Eai(EaiCategory::Direct(kind))
        }
        Mechanism::Plain(_) => Classification::Eai(EaiCategory::Other),
    }
}

// ----------------------------------------------------------------------
// Oracle-verdict linkage: ViolationKind × fault category → taxonomy entry
// ----------------------------------------------------------------------

/// Reconstructs the mechanism evidence a live oracle verdict implies: the
/// injected fault's EAI category says *how the fault reached the program*
/// (the database's input-source / attribute-fault axis), and the violation
/// kind says *what flaw it exposed* (the input-flaw refinement).
///
/// This is the inverse direction of the database classifier: campaign
/// verdicts become the same structured evidence `classify_mechanism`
/// consumes, so detected vulnerabilities land in the same paper-table
/// taxonomy as the historical entries.
pub fn mechanism_for_violation(kind: ViolationKind, category: EaiCategory) -> Mechanism {
    match category {
        EaiCategory::Direct(direct) => Mechanism::Attribute(match direct {
            DirectKind::FileSystem(FsAttribute::Existence) => AttributeFault::FileExistence,
            DirectKind::FileSystem(FsAttribute::SymbolicLink) => AttributeFault::FileSymlink,
            DirectKind::FileSystem(FsAttribute::Permission) => AttributeFault::FilePermission,
            DirectKind::FileSystem(FsAttribute::Ownership) => AttributeFault::FileOwnership,
            DirectKind::FileSystem(FsAttribute::ContentInvariance | FsAttribute::NameInvariance) => {
                AttributeFault::FileInvariance
            }
            DirectKind::FileSystem(FsAttribute::WorkingDirectory) => AttributeFault::WorkingDirectory,
            DirectKind::Network(NetAttribute::MessageAuthenticity) => AttributeFault::NetAuthenticity,
            DirectKind::Network(NetAttribute::Protocol) => AttributeFault::NetProtocol,
            DirectKind::Network(NetAttribute::ServiceAvailability) => AttributeFault::NetAvailability,
            DirectKind::Network(NetAttribute::EntityTrust | NetAttribute::Socket) => AttributeFault::NetTrust,
            DirectKind::Process(_) => AttributeFault::ProcTrust,
            // §4.2 treats registry values as named persistent objects; they
            // are counted with the file system (see
            // `DirectKind::table3_column`), and a perturbed value behaves
            // like content that stopped being what the module assumed.
            DirectKind::Registry(_) => AttributeFault::FileInvariance,
        }),
        EaiCategory::Indirect(indirect) => Mechanism::Input {
            source: match indirect {
                IndirectKind::UserInput => InputSource::UserArg,
                IndirectKind::EnvironmentVariable => InputSource::EnvVariable,
                IndirectKind::FileSystemInput => InputSource::ConfigFile,
                IndirectKind::NetworkInput => InputSource::NetworkMessage,
                IndirectKind::ProcessInput => InputSource::PeerProcess,
            },
            flaw: match kind {
                ViolationKind::MemoryCorruption => InputFlaw::UncheckedLength,
                ViolationKind::UntrustedExec => InputFlaw::ShellMetachars,
                // Spoofed actions and breached scenario invariants (the
                // authd skipped-auth class) are both driven by structurally
                // confused input: wrong origin, omitted protocol steps,
                // malformed framing.
                ViolationKind::SpoofedAction | ViolationKind::Custom => InputFlaw::FormatConfusion,
                ViolationKind::IntegrityWrite
                | ViolationKind::IntegrityDelete
                | ViolationKind::Disclosure
                | ViolationKind::TaintedPrivilegedOp => InputFlaw::UnvalidatedPath,
                // `ViolationKind` is `#[non_exhaustive]`; genuinely new
                // families default to the structural-confusion flaw until
                // mapped deliberately.
                _ => InputFlaw::FormatConfusion,
            },
        },
        EaiCategory::Other => Mechanism::Plain(match kind {
            ViolationKind::MemoryCorruption => PlainFault::OffByOne,
            _ => PlainFault::LogicError,
        }),
    }
}

/// Classifies one oracle verdict against the database taxonomy.
pub fn classify_violation(kind: ViolationKind, category: EaiCategory) -> Classification {
    classify_mechanism(mechanism_for_violation(kind, category))
}

/// The rollup label for one verdict: the taxonomy side (`indirect / user
/// input`, `direct / file system / symbolic link`, ...) crossed with the
/// policy family the oracle reported (`disclosure`, `integrity-write`, ...).
pub fn violation_class(kind: ViolationKind, category: EaiCategory) -> String {
    let taxonomy = match classify_violation(kind, category) {
        Classification::Eai(c) => c.to_string(),
        Classification::Excluded(e) => format!("excluded / {e}"),
    };
    format!("{taxonomy} -> {kind}")
}

/// Rolls a suite run up by vulnerability class: every verdict of every
/// fault record, keyed by [`violation_class`], with the number of verdicts
/// and the applications they came from.
pub fn suite_class_rollup(report: &SuiteReport) -> BTreeMap<String, ClassRollup> {
    // Verdicts are tallied by (kind, category) first, with the campaigns
    // they came from, so each class label is rendered once per pair rather
    // than once per verdict.
    let mut by_pair: BTreeMap<(ViolationKind, EaiCategory), (usize, Vec<usize>)> = BTreeMap::new();
    for (i, campaign) in report.reports.iter().enumerate() {
        for record in &campaign.records {
            for verdict in &record.violations {
                let (verdicts, campaigns) = by_pair.entry((verdict.kind, record.category)).or_default();
                *verdicts += 1;
                if campaigns.last() != Some(&i) {
                    campaigns.push(i);
                }
            }
        }
    }
    let mut by_class: BTreeMap<String, (usize, Vec<usize>)> = BTreeMap::new();
    for ((kind, category), (verdicts, campaigns)) in by_pair {
        let entry = by_class.entry(violation_class(kind, category)).or_default();
        entry.0 += verdicts;
        entry.1.extend(campaigns);
    }
    by_class
        .into_iter()
        .map(|(class, (verdicts, mut campaigns))| {
            campaigns.sort_unstable();
            let mut apps: Vec<String> = Vec::new();
            for i in campaigns {
                let app = &report.reports[i].app;
                if !apps.contains(app) {
                    apps.push(app.clone());
                }
            }
            (class, ClassRollup { verdicts, apps })
        })
        .collect()
}

/// One row of [`suite_class_rollup`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassRollup {
    /// Verdicts across the whole suite falling into this class.
    pub verdicts: usize,
    /// Applications (registration order) that produced at least one.
    pub apps: Vec<String>,
}

/// Renders the rollup in the suite report's indentation style.
pub fn render_class_rollup(rollup: &BTreeMap<String, ClassRollup>) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "  vulnerability-class rollup (taxonomy -> policy family):");
    for (class, row) in rollup {
        let _ = writeln!(
            s,
            "    {class:<58} {:>4} verdicts  ({})",
            row.verdicts,
            row.apps.join(", ")
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{InputFlaw, OsFamily};

    fn entry(mechanism: Mechanism) -> VulnEntry {
        VulnEntry {
            id: 1,
            name: "t".into(),
            os: OsFamily::Unix,
            year: 1997,
            mechanism,
        }
    }

    #[test]
    fn exclusions_are_not_categorized() {
        assert_eq!(
            classify(&entry(Mechanism::DesignError)),
            Classification::Excluded(Exclusion::Design)
        );
        assert!(classify(&entry(Mechanism::InsufficientInfo)).category().is_none());
    }

    #[test]
    fn input_sources_map_to_indirect_kinds() {
        let c = classify(&entry(Mechanism::Input {
            source: InputSource::EnvVariable,
            flaw: InputFlaw::UnvalidatedPath,
        }));
        assert_eq!(
            c.category(),
            Some(EaiCategory::Indirect(IndirectKind::EnvironmentVariable))
        );
    }

    #[test]
    fn attributes_map_to_direct_kinds() {
        let c = classify(&entry(Mechanism::Attribute(AttributeFault::FileSymlink)));
        assert_eq!(
            c.category(),
            Some(EaiCategory::Direct(DirectKind::FileSystem(FsAttribute::SymbolicLink)))
        );
    }

    #[test]
    fn plain_faults_are_other() {
        let c = classify(&entry(Mechanism::Plain(crate::entry::PlainFault::Typo)));
        assert_eq!(c.category(), Some(EaiCategory::Other));
    }

    #[test]
    fn verdict_classification_round_trips_through_the_entry_classifier() {
        // A symlink-attack verdict classifies exactly where a database entry
        // with the same mechanism evidence would.
        let category = EaiCategory::Direct(DirectKind::FileSystem(FsAttribute::SymbolicLink));
        let via_verdict = classify_violation(ViolationKind::IntegrityWrite, category);
        let via_entry = classify(&entry(Mechanism::Attribute(AttributeFault::FileSymlink)));
        assert_eq!(via_verdict, via_entry);
        assert_eq!(via_verdict.category(), Some(category));
    }

    #[test]
    fn indirect_verdicts_reconstruct_their_input_source() {
        let category = EaiCategory::Indirect(IndirectKind::EnvironmentVariable);
        let m = mechanism_for_violation(ViolationKind::UntrustedExec, category);
        assert_eq!(
            m,
            Mechanism::Input {
                source: InputSource::EnvVariable,
                flaw: InputFlaw::ShellMetachars,
            }
        );
        assert_eq!(classify_mechanism(m).category(), Some(category));
    }

    #[test]
    fn registry_verdicts_count_with_the_file_system() {
        use epa_core::model::RegAttribute;
        let category = EaiCategory::Direct(DirectKind::Registry(RegAttribute::AclProtection));
        let m = mechanism_for_violation(ViolationKind::TaintedPrivilegedOp, category);
        assert_eq!(m, Mechanism::Attribute(AttributeFault::FileInvariance));
    }

    #[test]
    fn violation_class_labels_cross_taxonomy_and_policy_family() {
        let label = violation_class(
            ViolationKind::Disclosure,
            EaiCategory::Direct(DirectKind::FileSystem(FsAttribute::SymbolicLink)),
        );
        assert_eq!(label, "direct / file system / symbolic link -> disclosure");
        let label = violation_class(ViolationKind::MemoryCorruption, EaiCategory::Other);
        assert_eq!(label, "other -> memory-corruption");
    }
}
