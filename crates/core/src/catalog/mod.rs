//! The fault catalog: executable renditions of the paper's Tables 5 and 6.
//!
//! Two views coexist:
//!
//! * the **documentation view** ([`table5_rows`], [`table6_rows`]) — the
//!   literal rows of the paper's tables, used by the reproduction harness
//!   to print them;
//! * the **generation view** ([`indirect_faults_for`], [`direct_faults_for`],
//!   [`faults_for_site`]) — given an interaction point's descriptor, the
//!   concrete fault list the methodology injects there (paper §3.3 steps
//!   4–5). Semantics select indirect patterns; the operation and object
//!   select direct attribute perturbations; applicability rules (e.g.
//!   name-invariance only for re-accessed objects) prune the rest.

mod direct;
mod indirect;

pub use direct::{direct_faults_for, table6_rows, DirectContext};
pub use indirect::{indirect_faults_for, table5_rows};

use serde::{Deserialize, Serialize};

use epa_sandbox::trace::SiteSummary;

use crate::perturb::ConcreteFault;

/// One printable catalog row (Table 5 or Table 6 shape).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogRow {
    /// The entity column ("User Input", "File System", ...).
    pub entity: String,
    /// The semantic-attribute column ("file name + directory name",
    /// "symbolic link", ...).
    pub item: String,
    /// The fault-injection column.
    pub injections: Vec<String>,
}

/// Builds the full fault list for one interaction point: the union of
/// direct faults (per operation/object) and indirect faults (per input
/// semantics), deduplicated by fault id (the first fault with an id wins).
///
/// Every generator appends to one list, and duplicates are found by
/// comparing ids in place: a site's list is a few dozen faults, and no id
/// is copied.
pub fn faults_for_site(summary: &SiteSummary, ctx: &DirectContext<'_>) -> Vec<ConcreteFault> {
    let mut out: Vec<ConcreteFault> = Vec::new();
    for (op, object) in &summary.ops {
        direct::push_direct_faults(*op, object, ctx, &mut out);
    }
    for sem in &summary.inputs {
        indirect::push_indirect_faults(*sem, ctx.scenario, &mut out);
    }
    let mut kept = 0;
    for i in 0..out.len() {
        if !out[..kept].iter().any(|f| f.id == out[i].id) {
            out.swap(kept, i);
            kept += 1;
        }
    }
    out.truncate(kept);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_sandbox::os::ScenarioMeta;
    use epa_sandbox::trace::{InputSemantic, ObjectRef, OpKind, SiteId};
    use std::collections::BTreeMap;

    #[test]
    fn site_fault_list_unions_and_dedups() {
        let scenario = ScenarioMeta::default();
        let resolutions = BTreeMap::new();
        let ctx = DirectContext {
            scenario: &scenario,
            reaccessed: &[],
            exec_resolutions: &resolutions,
            cwd: "/",
        };
        let summary = SiteSummary {
            site: SiteId::new("app:read_cf"),
            first_seq: 0,
            hits: 1,
            ops: vec![
                (OpKind::ReadFile, ObjectRef::File("/etc/app.cf".into())),
                (OpKind::ReadFile, ObjectRef::File("/etc/app.cf".into())),
            ],
            inputs: vec![InputSemantic::FsFileName],
        };
        let faults = faults_for_site(&summary, &ctx);
        // 5 direct read faults + 4 indirect fs-file-name faults.
        assert_eq!(faults.len(), 9, "{faults:#?}");
        let ids: std::collections::BTreeSet<_> = faults.iter().map(|f| f.id.clone()).collect();
        assert_eq!(ids.len(), faults.len(), "ids must be unique");
    }

    #[test]
    fn tables_have_paper_shapes() {
        let t5 = table5_rows();
        // Five origins appear in the entity column.
        let entities: std::collections::BTreeSet<_> = t5.iter().map(|r| r.entity.clone()).collect();
        assert!(entities.contains("User Input"));
        assert!(entities.contains("Environment Variable"));
        assert!(entities.contains("File System Input"));
        assert!(entities.contains("Network Input"));
        assert!(entities.contains("Process Input"));

        let t6 = table6_rows();
        let entities6: std::collections::BTreeSet<_> = t6.iter().map(|r| r.entity.clone()).collect();
        assert!(entities6.contains("File System"));
        assert!(entities6.contains("Network"));
        assert!(entities6.contains("Process"));
        // Seven file-system attribute rows, as in the paper.
        assert_eq!(t6.iter().filter(|r| r.entity == "File System").count(), 7);
        assert_eq!(t6.iter().filter(|r| r.entity == "Network").count(), 5);
        assert_eq!(t6.iter().filter(|r| r.entity == "Process").count(), 3);
    }
}
