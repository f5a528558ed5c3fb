//! Experiment runners: every table and figure of the paper.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use epa_apps::{
    fingerd, fontpurge, lpr, mailnotify, ntlogon, turnin, Fingerd, FontPurge, Lpr, MailNotify, NtLogon, Turnin,
    TurninFixed,
};
use epa_core::baselines::ava::{run_ava, AvaOptions};
use epa_core::baselines::fuzz::{run_fuzz, FuzzOptions, FuzzTarget};
use epa_core::baselines::BaselineReport;
use epa_core::campaign::{run_once, CampaignOptions, TestSetup};
use epa_core::coverage::{AdequacyPoint, AdequacyRegion, AdequacyThresholds};
use epa_core::engine::{Session, SuiteReport, WorldSpec};
use epa_core::inject::InjectionPlan;
use epa_core::model::FsAttribute;
use epa_core::perturb::{ConcreteFault, FaultPayload};
use epa_core::report::CampaignReport;
use epa_core::{table5_rows, table6_rows};
use epa_sandbox::app::Application;
use epa_sandbox::error::SysResult;
use epa_sandbox::os::Os;
use epa_sandbox::syscall::{InteractionRef, Interceptor, SysReturn, Syscall};
use epa_sandbox::trace::SiteId;

// ----------------------------------------------------------------------
// Tables 1–4: the vulnerability-database classification
// ----------------------------------------------------------------------

/// A case-study world, materialized (the specs are tested valid).
fn setup(spec: WorldSpec) -> TestSetup {
    spec.materialize().expect("case-study specs are valid")
}

/// A session over a case-study world.
fn session(spec: WorldSpec) -> Session {
    Session::from_setup(setup(spec))
}

/// Computes and renders paper Table 1.
pub fn table1() -> String {
    epa_vulndb::compute(&epa_vulndb::entries()).table1.render()
}

/// Computes and renders paper Table 2.
pub fn table2() -> String {
    epa_vulndb::compute(&epa_vulndb::entries()).table2.render()
}

/// Computes and renders paper Table 3.
pub fn table3() -> String {
    epa_vulndb::compute(&epa_vulndb::entries()).table3.render()
}

/// Computes and renders paper Table 4.
pub fn table4() -> String {
    epa_vulndb::compute(&epa_vulndb::entries()).table4.render()
}

fn render_catalog(title: &str, rows: &[epa_core::catalog::CatalogRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let mut last_entity = String::new();
    for row in rows {
        let entity = if row.entity == last_entity {
            String::new()
        } else {
            row.entity.clone()
        };
        last_entity = row.entity.clone();
        let _ = writeln!(s, "{:<24} {:<28} {}", entity, row.item, row.injections.join("; "));
    }
    s
}

/// Renders paper Table 5 (the indirect-fault catalog).
pub fn table5() -> String {
    render_catalog(
        "Table 5: indirect environment faults and environment perturbations",
        &table5_rows(),
    )
}

/// Renders paper Table 6 (the direct-fault catalog).
pub fn table6() -> String {
    render_catalog(
        "Table 6: direct environment faults and environment perturbations",
        &table6_rows(),
    )
}

// ----------------------------------------------------------------------
// Figure 1: indirect vs direct propagation, measured
// ----------------------------------------------------------------------

/// Measured split of detected violations by propagation path.
#[derive(Debug, Clone)]
pub struct Figure1Result {
    /// Violations triggered by faults that propagated through internal
    /// entities (indirect).
    pub via_internal_entity: usize,
    /// Violations triggered by faults acting through environment entities
    /// (direct).
    pub via_environment_entity: usize,
    /// Total faults injected.
    pub injected: usize,
}

impl Figure1Result {
    /// Renders the figure as annotated ASCII.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Figure 1: interaction model (measured on `turnin`, {} faults)",
            self.injected
        );
        let _ = writeln!(s, "  (a) environment ──input──> internal entity ──use──> violation");
        let _ = writeln!(s, "      indirect-path violations: {}", self.via_internal_entity);
        let _ = writeln!(s, "  (b) environment entity ──interaction──> violation");
        let _ = writeln!(s, "      direct-path violations:   {}", self.via_environment_entity);
        s
    }
}

/// Runs the turnin campaign and splits its violations by propagation path.
pub fn figure1() -> Figure1Result {
    let report = session(turnin::spec()).execute(&Turnin);
    let via_internal_entity = report.violations().filter(|r| r.category.is_indirect()).count();
    let via_environment_entity = report.violations().filter(|r| r.category.is_direct()).count();
    Figure1Result {
        via_internal_entity,
        via_environment_entity,
        injected: report.injected(),
    }
}

// ----------------------------------------------------------------------
// Figure 2: the two-dimensional adequacy metric
// ----------------------------------------------------------------------

/// One measured Figure 2 sample point.
#[derive(Debug, Clone)]
pub struct Figure2Point {
    /// What was run.
    pub label: String,
    /// The coverage point.
    pub point: AdequacyPoint,
    /// Its region.
    pub region: AdequacyRegion,
}

/// The four measured sample points of Figure 2.
#[derive(Debug, Clone)]
pub struct Figure2Result {
    /// Points 1–4, in the paper's numbering.
    pub points: Vec<Figure2Point>,
}

impl Figure2Result {
    /// Renders the measured points.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Figure 2: test adequacy metric (measured sample points)");
        for (i, p) in self.points.iter().enumerate() {
            let _ = writeln!(
                s,
                "  point {}: {:<34} interaction={:.2} fault={:.2} -> {}",
                i + 1,
                p.label,
                p.point.interaction,
                p.point.fault,
                p.region
            );
        }
        s
    }
}

/// Runs four campaigns reproducing the four sample points of Figure 2.
pub fn figure2() -> Figure2Result {
    let thresholds = AdequacyThresholds::default();
    let session = session(turnin::spec());
    let restricted = session.clone().with_options(CampaignOptions {
        max_sites: Some(3),
        max_faults_per_site: Some(2),
        ..Default::default()
    });

    let mk = |label: &str, report: &CampaignReport| {
        let point = report.adequacy();
        Figure2Point {
            label: label.to_string(),
            point,
            region: point.region(thresholds),
        }
    };
    let p1 = restricted.execute(&Turnin);
    let p2 = restricted.execute(&TurninFixed);
    let p3 = session.execute(&Turnin);
    let p4 = session.execute(&TurninFixed);
    Figure2Result {
        points: vec![
            mk("turnin, 3 sites x 2 faults", &p1),
            mk("turnin-fixed, 3 sites x 2 faults", &p2),
            mk("turnin, full campaign", &p3),
            mk("turnin-fixed, full campaign", &p4),
        ],
    }
}

// ----------------------------------------------------------------------
// §3.4: the lpr example
// ----------------------------------------------------------------------

/// The measured §3.4 lpr experiment.
#[derive(Debug, Clone)]
pub struct LprResult {
    /// Table 6 file-system attributes considered (the paper's list of 7).
    pub candidate_attributes: usize,
    /// Attributes applicable at the `create` interaction.
    pub applicable: usize,
    /// Faults injected.
    pub injected: usize,
    /// Faults that caused a violation.
    pub violations: usize,
    /// Per-fault outcome lines.
    pub outcomes: Vec<String>,
}

impl LprResult {
    /// Renders the experiment.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Paper §3.4 — lpr `create` interaction point");
        let _ = writeln!(
            s,
            "  candidate file attributes: {}   applicable: {}   injected: {}   violations: {}",
            self.candidate_attributes, self.applicable, self.injected, self.violations
        );
        for o in &self.outcomes {
            let _ = writeln!(s, "  {o}");
        }
        s
    }
}

/// Reproduces the paper's §3.4 walkthrough: perturb only the `create`
/// interaction of `lpr` and observe which attributes it tolerates.
pub fn lpr_34() -> LprResult {
    let mut filter = BTreeSet::new();
    filter.insert(SiteId::literal("lpr:create_spool"));
    let report = session(lpr::spec())
        .with_options(CampaignOptions {
            site_filter: Some(filter),
            ..Default::default()
        })
        .execute(&Lpr);
    let outcomes = report
        .records
        .iter()
        .map(|r| {
            let verdict = if r.tolerated() { "tolerated" } else { "VIOLATION" };
            format!("{:<55} -> {verdict}", r.fault_id)
        })
        .collect();
    LprResult {
        candidate_attributes: FsAttribute::ALL.len(),
        applicable: report.injected(),
        injected: report.injected(),
        violations: report.violated(),
        outcomes,
    }
}

// ----------------------------------------------------------------------
// §4.1: turnin
// ----------------------------------------------------------------------

/// The measured §4.1 turnin experiment.
#[derive(Debug, Clone)]
pub struct TurninResult {
    /// The full campaign report (vulnerable turnin).
    pub report: CampaignReport,
    /// The fixed variant's report.
    pub fixed: CampaignReport,
}

impl TurninResult {
    /// Renders the experiment against the paper's numbers.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Paper §4.1 — turnin");
        let _ = writeln!(
            s,
            "  interaction points: {} (paper: 8)   perturbations: {} (paper: 41)   violations: {} (paper: 9)",
            self.report.total_sites,
            self.report.injected(),
            self.report.violated()
        );
        for (site, injected, violated) in self.report.by_site() {
            let _ = writeln!(s, "    {site:<28} {injected:>2} injected  {violated} violations");
        }
        for r in self.report.violations() {
            let _ = writeln!(s, "  VIOLATION {:<50} @ {}", r.fault_id, r.site);
        }
        let _ = writeln!(
            s,
            "  turnin-fixed: {} injected, {} violations (fault coverage {})",
            self.fixed.injected(),
            self.fixed.violated(),
            self.fixed.fault_coverage()
        );
        s
    }
}

/// Runs the full turnin campaign (and the fixed variant).
pub fn turnin_41() -> TurninResult {
    let session = session(turnin::spec());
    TurninResult {
        report: session.execute(&Turnin),
        fixed: session.execute(&TurninFixed),
    }
}

// ----------------------------------------------------------------------
// §4.2: the NT registry
// ----------------------------------------------------------------------

/// The measured §4.2 registry experiment.
#[derive(Debug, Clone)]
pub struct RegistryResult {
    /// Unprotected keys in the registry (paper: 29).
    pub unprotected: usize,
    /// Keys consumed by the modeled modules (paper: 9 exercised).
    pub exercised: usize,
    /// Exercised keys whose perturbation produced a violation (paper: 9).
    pub exploited: usize,
    /// Per-key outcome lines.
    pub per_key: Vec<String>,
}

impl RegistryResult {
    /// Renders the experiment.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Paper §4.2 — Windows NT registry");
        let _ = writeln!(
            s,
            "  unprotected keys: {} (paper: 29)   exercised by modules: {}   exploited: {} (paper: 9)",
            self.unprotected, self.exercised, self.exploited
        );
        for k in &self.per_key {
            let _ = writeln!(s, "  {k}");
        }
        let _ = writeln!(
            s,
            "  remaining {} unprotected keys are consumed by no modeled module (the paper's speculation set)",
            self.unprotected - self.exercised
        );
        s
    }
}

/// Runs the fontpurge and ntlogon campaigns and counts exploited keys.
pub fn registry_42() -> RegistryResult {
    let font_session = session(fontpurge::spec());
    let unprotected = font_session.world().registry.unprotected_keys().len();
    let font_report = font_session.execute(&FontPurge);
    let logon_report = session(ntlogon::spec()).execute(&NtLogon);

    let mut per_key = Vec::new();
    let mut exploited = 0usize;
    let mut exercised = 0usize;
    // The five font keys map to fontpurge's read sites.
    for i in 0..epa_apps::fontpurge::FONT_KEYS {
        exercised += 1;
        let site = format!("fontpurge:read_key{i}");
        let violated = font_report
            .records
            .iter()
            .filter(|r| r.site == site && !r.tolerated())
            .count();
        if violated > 0 {
            exploited += 1;
        }
        per_key.push(format!(
            "HKLM/Software/Fonts/Cache{i:<2} -> {violated} violating perturbations ({})",
            if violated > 0 { "EXPLOITED" } else { "held" }
        ));
    }
    // The four logon keys map to ntlogon's read sites.
    for name in epa_apps::ntlogon::LOGON_KEYS {
        exercised += 1;
        let site = format!("ntlogon:read_{}", name.to_lowercase());
        let violated = logon_report
            .records
            .iter()
            .filter(|r| r.site == site && !r.tolerated())
            .count();
        if violated > 0 {
            exploited += 1;
        }
        per_key.push(format!(
            "HKLM/Software/Logon/{name:<10} -> {violated} violating perturbations ({})",
            if violated > 0 { "EXPLOITED" } else { "held" }
        ));
    }
    RegistryResult {
        unprotected,
        exercised,
        exploited,
        per_key,
    }
}

// ----------------------------------------------------------------------
// §5: comparison against Fuzz and AVA
// ----------------------------------------------------------------------

/// One application's comparison row.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Application name.
    pub app: String,
    /// Distinct violation rules EPA (this paper's method) surfaced.
    pub epa_rules: BTreeSet<String>,
    /// Distinct rules Fuzz surfaced.
    pub fuzz_rules: BTreeSet<String>,
    /// Distinct rules AVA surfaced.
    pub ava_rules: BTreeSet<String>,
}

/// The full comparison.
#[derive(Debug, Clone)]
pub struct ComparisonResult {
    /// Rows, one per application.
    pub rows: Vec<ComparisonRow>,
    /// Runs used per baseline.
    pub baseline_runs: usize,
}

impl ComparisonResult {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Paper §5 — what each technique surfaces ({} runs per baseline; distinct violated policy rules)",
            self.baseline_runs
        );
        let _ = writeln!(
            s,
            "  {:<12} {:>5} {:>5} {:>5}   EPA-only rules",
            "app", "EPA", "Fuzz", "AVA"
        );
        for row in &self.rows {
            let epa_only: Vec<&String> = row
                .epa_rules
                .iter()
                .filter(|r| !row.fuzz_rules.contains(*r) && !row.ava_rules.contains(*r))
                .collect();
            let _ = writeln!(
                s,
                "  {:<12} {:>5} {:>5} {:>5}   {}",
                row.app,
                row.epa_rules.len(),
                row.fuzz_rules.len(),
                row.ava_rules.len(),
                epa_only.iter().map(|r| r.as_str()).collect::<Vec<_>>().join(", ")
            );
        }
        s
    }
}

fn rules_of(report: &BaselineReport) -> BTreeSet<String> {
    report.distinct_rules()
}

/// Runs EPA, Fuzz and AVA over three applications with a shared budget.
pub fn comparison() -> ComparisonResult {
    let runs = 60;
    let mut rows = Vec::new();

    let cases: Vec<(&dyn Application, TestSetup, FuzzTarget)> = vec![
        (&Turnin, setup(turnin::spec()), FuzzTarget::Args),
        (
            &Fingerd,
            setup(fingerd::spec()),
            FuzzTarget::Net {
                port: epa_apps::fingerd::FINGER_PORT,
                from: "trusted.cs.example.edu".into(),
            },
        ),
        (
            &MailNotify,
            setup(mailnotify::spec()),
            FuzzTarget::Ipc {
                channel: epa_apps::mailnotify::CHANNEL.into(),
                from: "maild".into(),
            },
        ),
    ];
    for (app, setup, target) in cases {
        let epa_report = Session::from_setup(setup.clone()).execute(app);
        let epa_rules: BTreeSet<String> = epa_report
            .violations()
            .flat_map(|r| r.violations.iter().map(|v| v.rule.clone()))
            .collect();
        let fuzz = run_fuzz(
            &setup,
            app,
            &FuzzOptions {
                runs,
                seed: 17,
                max_len: 6000,
                target,
            },
        );
        let ava = run_ava(
            &setup,
            app,
            &AvaOptions {
                runs,
                seed: 17,
                intensity: 0.8,
            },
        );
        rows.push(ComparisonRow {
            app: app.name().to_string(),
            epa_rules,
            fuzz_rules: rules_of(&fuzz),
            ava_rules: rules_of(&ava),
        });
    }
    ComparisonResult {
        rows,
        baseline_runs: runs,
    }
}

// ----------------------------------------------------------------------
// Ablation: injection placement (paper §3.3 step 6)
// ----------------------------------------------------------------------

/// A deliberately wrong hook: applies direct faults *after* the interaction.
struct AfterPlacementHook {
    plan: InjectionPlan,
    fired: bool,
}

impl Interceptor for AfterPlacementHook {
    fn before(&mut self, _os: &mut Os, _point: &InteractionRef, _call: &Syscall<'_>) {}

    fn after(&mut self, os: &mut Os, point: &InteractionRef, _result: &mut SysResult<SysReturn>) {
        if self.fired || point.site != self.plan.site || point.occurrence != self.plan.occurrence {
            return;
        }
        if let FaultPayload::Direct(df) = &self.plan.fault.payload {
            if df.apply(os, point.pid).is_ok() {
                self.fired = true;
            }
        }
    }
}

/// Placement-ablation outcome.
#[derive(Debug, Clone)]
pub struct PlacementResult {
    /// Violations when direct faults are injected before the point (correct).
    pub before_violations: usize,
    /// Violations when the same faults land after the point (wrong).
    pub after_violations: usize,
    /// Faults used.
    pub injected: usize,
}

impl PlacementResult {
    /// Renders the ablation.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Ablation — direct-fault injection placement (paper §3.3 step 6)");
        let _ = writeln!(
            s,
            "  {} direct faults at lpr's create: before-point -> {} violations; after-point -> {} violations",
            self.injected, self.before_violations, self.after_violations
        );
        let _ = writeln!(
            s,
            "  (a perturbation that arrives after the interaction has already happened misses it)"
        );
        s
    }
}

/// Injects lpr's create-site faults before vs after the interaction point.
pub fn placement() -> PlacementResult {
    let mut filter = BTreeSet::new();
    filter.insert(SiteId::literal("lpr:create_spool"));
    let session = session(lpr::spec()).with_options(CampaignOptions {
        site_filter: Some(filter),
        ..Default::default()
    });
    let plan = session.plan(&Lpr);
    let faults: Vec<ConcreteFault> = plan
        .sites
        .iter()
        .filter(|s| s.included)
        .flat_map(|s| s.faults.clone())
        .collect();
    let before = session.execute_plan(&Lpr, &plan);

    let mut after_violations = 0usize;
    for fault in &faults {
        let hook = AfterPlacementHook {
            plan: InjectionPlan {
                site: SiteId::literal("lpr:create_spool"),
                occurrence: 0,
                fault: fault.clone(),
            },
            fired: false,
        };
        let outcome = run_once(session.setup(), &Lpr, Some(Box::new(hook)));
        if !outcome.violations.is_empty() {
            after_violations += 1;
        }
    }
    PlacementResult {
        before_violations: before.violated(),
        after_violations,
        injected: faults.len(),
    }
}

// ----------------------------------------------------------------------
// Ablation: semantic patterns vs random mutation (paper §3.1)
// ----------------------------------------------------------------------

/// Pattern-vs-random ablation outcome.
#[derive(Debug, Clone)]
pub struct PatternsResult {
    /// Catalog faults injected and the violations they produced.
    pub catalog: (usize, usize),
    /// Random-input runs and the runs that produced violations.
    pub random: (usize, usize),
    /// Distinct rules the catalog surfaced that random input did not.
    pub catalog_only_rules: BTreeSet<String>,
}

impl PatternsResult {
    /// Renders the ablation.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Ablation — semantic fault patterns vs random input (paper §3.1)");
        let _ = writeln!(
            s,
            "  catalog: {} faults -> {} violations   random: {} runs -> {} detecting runs",
            self.catalog.0, self.catalog.1, self.random.0, self.random.1
        );
        let _ = writeln!(
            s,
            "  rules only the semantic catalog surfaced: {}",
            self.catalog_only_rules.iter().cloned().collect::<Vec<_>>().join(", ")
        );
        s
    }
}

/// Compares the 41-fault turnin catalog against an equal-budget random
/// argument fuzz.
pub fn patterns() -> PatternsResult {
    let setup = setup(turnin::spec());
    let report = Session::from_setup(setup.clone()).execute(&Turnin);
    let catalog_rules: BTreeSet<String> = report
        .violations()
        .flat_map(|r| r.violations.iter().map(|v| v.rule.clone()))
        .collect();
    let budget = report.injected();
    let fuzz = run_fuzz(
        &setup,
        &Turnin,
        &FuzzOptions {
            runs: budget,
            seed: 5,
            max_len: 6000,
            target: FuzzTarget::Args,
        },
    );
    let fuzz_rules = fuzz.distinct_rules();
    PatternsResult {
        catalog: (report.injected(), report.violated()),
        random: (fuzz.runs(), fuzz.detections()),
        catalog_only_rules: catalog_rules.difference(&fuzz_rules).cloned().collect(),
    }
}

// ----------------------------------------------------------------------
// Batch: the standard suite over all eight applications
// ----------------------------------------------------------------------

/// Runs the eight-application standard suite as one batch over the engine's
/// `Suite` runner and returns the aggregated report with cross-application
/// rollups.
pub fn suite() -> SuiteReport {
    epa_apps::standard_suite()
        .expect("the case-study specs are valid")
        .execute()
}

/// As [`suite`], layered over `cache` (typically
/// [`epa_core::engine::ResultCache::persistent`]): executes the standard
/// suite with every digest written through to the cache's backend, and
/// returns the report together with the suite's lockfile manifest — the
/// exact store keys a warm cross-process replay needs.
pub fn suite_with_cache(cache: epa_core::engine::ResultCache) -> (SuiteReport, epa_core::store::SuiteManifest) {
    let suite = epa_apps::standard_suite()
        .expect("the case-study specs are valid")
        .with_result_cache(cache);
    let report = suite.execute();
    let manifest = suite.manifest();
    (report, manifest)
}

// ----------------------------------------------------------------------
// The property-based scenario corpus
// ----------------------------------------------------------------------

/// Synthesizes `count` scenarios from `seed`, runs each through every
/// execution path via the differential harness (scripted-adapter apps),
/// and returns the corpus adequacy dashboard.
pub fn corpus(seed: u64, count: usize) -> epa_core::corpus::CorpusReport {
    let factory = epa_apps::ScriptedApp::factory();
    let scenarios = epa_core::corpus::synthesize(&epa_core::corpus::CorpusConfig { seed, count });
    epa_core::corpus::run_corpus(seed, &scenarios, &factory)
}

// ----------------------------------------------------------------------
// Sanity: every clean world is violation-free
// ----------------------------------------------------------------------

/// Checks that every model application runs violation-free unperturbed —
/// the precondition for attributing campaign violations to injected faults.
pub fn clean_baseline() -> Vec<(String, usize)> {
    epa_apps::standard_apps()
        .into_iter()
        .map(|(app, spec)| {
            let setup = setup(spec);
            let out = run_once(&setup, &app, None);
            // Re-judge the completed log through a fresh copy of the
            // setup's own oracle (standard families plus any declared
            // invariants): the batch count must agree with the incremental
            // verdicts the run itself produced.
            let n = setup.oracle().evaluate_log(&out.os.audit).len();
            debug_assert_eq!(n, out.violations.len());
            (app.name().to_string(), n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_baselines_are_all_zero() {
        for (app, violations) in clean_baseline() {
            assert_eq!(violations, 0, "{app} must be violation-free unperturbed");
        }
    }

    #[test]
    fn lpr_34_matches_paper() {
        let r = lpr_34();
        assert_eq!(r.candidate_attributes, 7);
        assert_eq!(r.injected, 4);
        assert_eq!(r.violations, 4);
    }

    #[test]
    fn suite_batch_covers_all_eight_apps() {
        let report = suite();
        assert_eq!(report.reports.len(), 8);
        assert_eq!(report.vulnerable_apps().len(), 8);
        assert!(report.total_injected() > report.total_violated());
        for app in [
            "lpr",
            "turnin",
            "fontpurge",
            "ntlogon",
            "fingerd",
            "authd",
            "mailnotify",
            "backupd",
        ] {
            assert!(report.get(app).is_some(), "{app} missing from suite report");
        }
    }

    #[test]
    fn placement_ablation_shows_the_asymmetry() {
        let r = placement();
        assert_eq!(r.before_violations, 4);
        assert_eq!(r.after_violations, 0);
    }
}

// ----------------------------------------------------------------------
// The static analyzer's world linter
// ----------------------------------------------------------------------

/// One standard-suite world's static-analysis verdict: the lint report
/// plus the fault-relevance tally over its full injection plan.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LintSummary {
    /// Application name (the lint subject).
    pub app: String,
    /// Jobs the analyzer proved must be executed.
    pub relevant: usize,
    /// Jobs the analyzer proved inert (droppable without running).
    pub inert: usize,
    /// Jobs the analyzer could not classify (always executed).
    pub unknown: usize,
    /// World-lint diagnostics (EPA0001–EPA0005).
    pub report: epa_core::LintReport,
}

impl LintSummary {
    /// Renders the tally line plus the lint report.
    pub fn render(&self) -> String {
        format!(
            "{}  [relevance: {} relevant, {} provably inert, {} unknown]\n",
            self.report.render_text(),
            self.relevant,
            self.inert,
            self.unknown
        )
    }
}

/// Lints every standard-suite world through the static analysis layer:
/// materialize the spec, trace one clean run, classify the full fault plan
/// (`Relevant` / `ProvablyInert` / `Unknown`), and check the world
/// declarations for dead or contradictory entries (EPA0001–EPA0005).
pub fn lint() -> Vec<LintSummary> {
    let budget = CampaignOptions::default().max_occurrences_per_site;
    epa_apps::standard_apps()
        .into_iter()
        .map(|(app, spec)| {
            let setup = spec.materialize().expect("the case-study specs are valid");
            let session = Session::from_setup(setup.clone());
            let plan = session.plan(&*app);
            let analysis = epa_core::AppAnalysis::from_clean_run(&setup, &plan.clean);
            let jobs = plan.jobs();
            let (relevant, inert, unknown) = analysis.tally(&jobs);
            let report = epa_core::lint_setup(app.name(), &spec, &analysis, &jobs, Some(budget));
            LintSummary {
                app: app.name().to_string(),
                relevant,
                inert,
                unknown,
                report,
            }
        })
        .collect()
}
