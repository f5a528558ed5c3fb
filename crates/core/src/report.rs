//! Campaign reports: per-fault records, coverage, and the vulnerability
//! assessment score of the paper's step 10.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};
use shim_sync::sync::Arc;

use epa_sandbox::policy::Verdict;

use crate::coverage::{AdequacyPoint, AdequacyThresholds, Ratio};
use crate::model::EaiCategory;

/// Per-category counts keyed by each category's name. Counts are tallied
/// by category first, so each name is rendered once, into one allocation.
pub(crate) fn named_categories(counts: BTreeMap<EaiCategory, (usize, usize)>) -> BTreeMap<String, (usize, usize)> {
    let mut out: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for (category, (injected, violated)) in counts {
        // The longest name, "direct / file system / content invariance",
        // is 41 bytes.
        let mut name = String::with_capacity(48);
        let _ = write!(name, "{category}");
        let e = out.entry(name).or_insert((0, 0));
        e.0 += injected;
        e.1 += violated;
    }
    out
}

/// The outcome of one injected run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// The perturbed site.
    pub site: String,
    /// The occurrence that was struck.
    pub occurrence: usize,
    /// Fault identifier: the plan's [`crate::perturb::ConcreteFault::id`],
    /// shared, not copied.
    pub fault_id: Arc<str>,
    /// Fault classification.
    pub category: EaiCategory,
    /// Human-readable perturbation description (shared with the plan).
    pub description: Arc<str>,
    /// Whether the fault actually fired during the run.
    pub applied: bool,
    /// The application's exit status (`None` when it panicked).
    pub exit: Option<i32>,
    /// `Some(panic message)` when the application panicked under the fault.
    pub crashed: Option<String>,
    /// Length of the run's audit log — the bound every evidence index in
    /// `violations` must stay inside (machine-checkable from the serialized
    /// record alone).
    pub audit_events: usize,
    /// True when this record was **replayed** rather than executed: the
    /// planner resolved it from a [`crate::engine::planner::ResultCache`]
    /// (an equal run in this plan or an earlier one) instead of occupying
    /// a worker slot. Its outcome fields are byte-identical to the source
    /// run's.
    pub cache_hit: bool,
    /// True when this record was **statically pruned**: the analysis layer
    /// proved the fault inert ([`crate::analysis::Relevance::ProvablyInert`])
    /// and the planner synthesized the record from the clean run instead of
    /// executing it. Mirrors [`FaultRecord::cache_hit`] — outcome fields are
    /// byte-identical to what the run would have produced.
    pub pruned: bool,
    /// Verdicts the oracle pipeline detected, each carrying its evidence
    /// chain (a `Verdict` dereferences to its `Violation`).
    pub violations: Vec<Verdict>,
}

impl FaultRecord {
    /// The paper's toleration criterion: no security violation occurred.
    pub fn tolerated(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether the application panicked under this fault.
    pub fn has_crashed(&self) -> bool {
        self.crashed.is_some()
    }
}

/// The full report of one campaign over one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The application under test.
    pub app: String,
    /// Perturbable interaction points the traced execution exposed (sites
    /// with at least one applicable catalog fault).
    pub total_sites: usize,
    /// Interaction points actually perturbed.
    pub perturbed_sites: usize,
    /// Violations in the *unperturbed* run (must be zero for the campaign's
    /// attribution to be sound; kept for transparency).
    pub clean_violations: usize,
    /// Every injected run.
    pub records: Vec<FaultRecord>,
}

impl CampaignReport {
    /// Number of faults injected (paper's `n`).
    pub fn injected(&self) -> usize {
        self.records.len()
    }

    /// Number of injected runs that violated the policy (paper's `count`).
    pub fn violated(&self) -> usize {
        self.records.iter().filter(|r| !r.tolerated()).count()
    }

    /// Fault coverage: tolerated / injected.
    pub fn fault_coverage(&self) -> Ratio {
        Ratio::new(self.injected() - self.violated(), self.injected())
    }

    /// Interaction coverage: perturbed sites / total sites.
    pub fn interaction_coverage(&self) -> Ratio {
        Ratio::new(self.perturbed_sites, self.total_sites)
    }

    /// The paper's step-10 vulnerability assessment score: `count / n`.
    /// An empty campaign scores 0.0 (never `NaN`): no injected runs means
    /// no observed violations.
    pub fn vulnerability_score(&self) -> f64 {
        Ratio::new(self.violated(), self.injected()).value_or(0.0)
    }

    /// Number of records resolved from the planner's result cache instead
    /// of executed.
    pub fn cache_hits(&self) -> usize {
        self.records.iter().filter(|r| r.cache_hit).count()
    }

    /// Number of records the static analysis pruned (synthesized from the
    /// clean run instead of executed).
    pub fn pruned(&self) -> usize {
        self.records.iter().filter(|r| r.pruned).count()
    }

    /// Number of records that actually occupied a worker slot: injected
    /// runs minus cache hits minus statically pruned records.
    pub fn runs_executed(&self) -> usize {
        self.injected() - self.cache_hits() - self.pruned()
    }

    /// The Figure 2 adequacy point for this campaign.
    ///
    /// Fault coverage keeps its vacuous-truth reading (zero injected faults
    /// means zero intolerated faults, so 1.0); interaction coverage does
    /// **not** — a world exposing zero perturbable interaction points has
    /// *undefined* interaction coverage, and the campaign classifies as
    /// [`crate::coverage::AdequacyRegion::Inadequate`], never Safe.
    pub fn adequacy(&self) -> AdequacyPoint {
        let fault = self.fault_coverage().value_or(1.0);
        match self.interaction_coverage().fraction() {
            Some(interaction) => AdequacyPoint::new(interaction, fault),
            None => AdequacyPoint::vacuous(fault),
        }
    }

    /// Iterates all violating records.
    pub fn violations(&self) -> impl Iterator<Item = &FaultRecord> {
        self.records.iter().filter(|r| !r.tolerated())
    }

    /// Per-category (injected, violated) counts, by category name.
    pub fn by_category(&self) -> BTreeMap<String, (usize, usize)> {
        let mut counts = BTreeMap::new();
        self.tally_categories(&mut counts);
        named_categories(counts)
    }

    /// Adds this report's per-category (injected, violated) counts to
    /// `counts`.
    pub(crate) fn tally_categories(&self, counts: &mut BTreeMap<EaiCategory, (usize, usize)>) {
        for r in &self.records {
            let e = counts.entry(r.category).or_insert((0, 0));
            e.0 += 1;
            if !r.tolerated() {
                e.1 += 1;
            }
        }
    }

    /// Per-site (injected, violated) counts, in record order.
    pub fn by_site(&self) -> Vec<(String, usize, usize)> {
        let mut order: Vec<String> = Vec::new();
        let mut map: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for r in &self.records {
            if !map.contains_key(&r.site) {
                order.push(r.site.clone());
            }
            let e = map.entry(r.site.clone()).or_insert((0, 0));
            e.0 += 1;
            if !r.tolerated() {
                e.1 += 1;
            }
        }
        order
            .into_iter()
            .map(|s| {
                let (i, v) = map[&s];
                (s, i, v)
            })
            .collect()
    }

    /// A human-readable multi-line summary.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "campaign: {}", self.app);
        let _ = writeln!(
            s,
            "  interaction coverage: {}   fault coverage: {}",
            self.interaction_coverage(),
            self.fault_coverage()
        );
        let _ = writeln!(
            s,
            "  injected: {}   violations: {}   vulnerability score: {:.3}",
            self.injected(),
            self.violated(),
            self.vulnerability_score()
        );
        let _ = writeln!(
            s,
            "  runs executed: {}   replayed from cache: {}   statically pruned: {}",
            self.runs_executed(),
            self.cache_hits(),
            self.pruned()
        );
        let region = self.adequacy().region(AdequacyThresholds::default());
        let _ = writeln!(s, "  adequacy: {} -> {}", self.adequacy(), region);
        let _ = writeln!(s, "  per-site results:");
        for (site, injected, violated) in self.by_site() {
            let _ = writeln!(s, "    {site}: {injected} injected, {violated} violations");
        }
        for r in self.violations() {
            for v in &r.violations {
                let evidence = match v.evidence.items.first() {
                    Some(item) => format!("event #{} {}", item.index, item.summary),
                    None => "no implicated event".to_string(),
                };
                let _ = writeln!(
                    s,
                    "  VIOLATION {} @ {}: [{}] {} <- {}",
                    r.fault_id, r.site, v.kind, v.description, evidence
                );
            }
        }
        for r in self.records.iter().filter(|r| r.has_crashed()) {
            let msg = r.crashed.as_deref().unwrap_or_default();
            let _ = writeln!(s, "  CRASH {} @ {}: panicked with `{msg}`", r.fault_id, r.site);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::IndirectKind;
    use epa_sandbox::policy::{Violation, ViolationKind};

    fn record(site: &str, fault: &str, violated: bool) -> FaultRecord {
        FaultRecord {
            site: site.into(),
            occurrence: 0,
            fault_id: fault.into(),
            category: EaiCategory::Indirect(IndirectKind::UserInput),
            description: "".into(),
            applied: true,
            exit: Some(0),
            crashed: None,
            audit_events: 1,
            cache_hit: false,
            pruned: false,
            violations: if violated {
                vec![Verdict::from_violation(Violation::new(
                    ViolationKind::Disclosure,
                    "R2",
                    "leak",
                    0,
                ))]
            } else {
                Vec::new()
            },
        }
    }

    fn report() -> CampaignReport {
        CampaignReport {
            app: "demo".into(),
            total_sites: 8,
            perturbed_sites: 8,
            clean_violations: 0,
            records: vec![
                record("s1", "f1", false),
                record("s1", "f2", true),
                record("s2", "f3", false),
                record("s2", "f4", false),
            ],
        }
    }

    #[test]
    fn coverage_and_score() {
        let r = report();
        assert_eq!(r.injected(), 4);
        assert_eq!(r.violated(), 1);
        assert_eq!(r.fault_coverage().fraction(), Some(0.75));
        assert_eq!(r.interaction_coverage().fraction(), Some(1.0));
        assert!((r.vulnerability_score() - 0.25).abs() < 1e-9);
        assert_eq!(r.cache_hits(), 0);
        assert_eq!(r.runs_executed(), 4);
    }

    #[test]
    fn by_site_preserves_order() {
        let r = report();
        let per = r.by_site();
        assert_eq!(per[0], ("s1".to_string(), 2, 1));
        assert_eq!(per[1], ("s2".to_string(), 2, 0));
    }

    #[test]
    fn render_mentions_violation_with_evidence() {
        let text = report().render_text();
        assert!(
            text.contains("VIOLATION f2 @ s1: [disclosure] leak <- event #0"),
            "{text}"
        );
        assert!(text.contains("vulnerability score: 0.250"));
    }

    #[test]
    fn render_surfaces_panic_payloads() {
        let mut r = report();
        r.records[2].crashed = Some("index out of bounds".into());
        r.records[2].exit = None;
        let text = r.render_text();
        assert!(text.contains("CRASH f3 @ s2: panicked with `index out of bounds`"));
    }

    #[test]
    fn serde_round_trip() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn empty_report_is_safe_zeroes() {
        let r = CampaignReport {
            app: "x".into(),
            total_sites: 0,
            perturbed_sites: 0,
            clean_violations: 0,
            records: vec![],
        };
        assert_eq!(r.vulnerability_score(), 0.0);
        assert_eq!(
            r.fault_coverage().value_or(1.0),
            1.0,
            "fault coverage stays vacuously true"
        );
        assert_eq!(r.interaction_coverage().fraction(), None);
    }

    #[test]
    fn zero_site_campaign_is_inadequate_not_safe() {
        use crate::coverage::{AdequacyRegion, AdequacyThresholds};
        let r = CampaignReport {
            app: "inert".into(),
            total_sites: 0,
            perturbed_sites: 0,
            clean_violations: 0,
            records: vec![],
        };
        let point = r.adequacy();
        assert!(point.vacuous);
        assert_eq!(
            point.region(AdequacyThresholds::default()),
            AdequacyRegion::Inadequate,
            "a campaign that tested nothing must never read as Safe"
        );
    }

    #[test]
    fn empty_report_renders_na_without_nan() {
        let r = CampaignReport {
            app: "x".into(),
            total_sites: 0,
            perturbed_sites: 0,
            clean_violations: 0,
            records: vec![],
        };
        let text = r.render_text();
        assert!(text.contains("interaction coverage: 0/0 (n/a)"), "{text}");
        assert!(text.contains("fault coverage: 0/0 (n/a)"), "{text}");
        assert!(text.contains("adequacy: (interaction=n/a, fault=1.00)"), "{text}");
        assert!(text.contains("inadequate"), "{text}");
        assert!(text.contains("vulnerability score: 0.000"), "{text}");
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    }

    #[test]
    fn cache_hits_render_and_roll_up() {
        let mut r = report();
        r.records[2].cache_hit = true;
        assert_eq!(r.cache_hits(), 1);
        assert_eq!(r.runs_executed(), 3);
        let text = r.render_text();
        assert!(text.contains("runs executed: 3   replayed from cache: 1"), "{text}");
    }
}
