//! Property tests for the static analysis layer: every `ProvablyInert` verdict
//! must survive a force-run, the structural state no-op check must agree
//! with comparing serialized worlds, lint output must be deterministic,
//! and the planner's `FaultKey` canonicalization must stay *more*
//! conservative than the analyzer's alias resolution.

use std::collections::BTreeSet;

use epa::apps::ScriptedApp;
use epa::core::analysis::{lint_setup, AppAnalysis, LintReport};
use epa::core::campaign::CampaignOptions;
use epa::core::corpus::{synthesize, CorpusConfig, DEFAULT_CORPUS_SEED};
use epa::core::engine::planner::{FaultKey, RunDigest};
use epa::core::engine::Session;
use epa::core::report::{CampaignReport, FaultRecord};

/// A handful of distinct corpus seeds, covering the default plus arbitrary
/// offsets — each synthesizes a different randomized world population.
const SEEDS: [u64; 4] = [DEFAULT_CORPUS_SEED, 7, 0xBEEF, 0x1234_5678];

fn corpus(seed: u64, count: usize) -> Vec<epa::core::corpus::Scenario> {
    synthesize(&CorpusConfig { seed, count })
}

/// The soundness property behind `static_prune`: force-running a job the
/// analyzer proved inert produces exactly the synthesized record — same
/// applied flag, same exit, same audit-log length, and zero verdicts beyond
/// the clean run's.
#[test]
fn provably_inert_jobs_survive_a_force_run() {
    let mut checked = 0usize;
    for scenario in corpus(DEFAULT_CORPUS_SEED, 40) {
        let setup = scenario.spec.materialize().expect("corpus worlds materialize");
        let app = ScriptedApp::for_scenario(&scenario);
        let session = Session::from_setup(setup.clone());
        let plan = session.plan(&app);
        let analysis = AppAnalysis::from_clean_run(&setup, &plan.clean);
        let inert: Vec<_> = plan
            .jobs()
            .into_iter()
            .filter(|job| analysis.classify(job).is_inert())
            .collect();
        if inert.is_empty() {
            continue;
        }
        // Force-run the whole plan (pruning is off by default) and compare
        // each inert job's executed record against its synthesized digest.
        let report = session.execute_plan(&app, &plan);
        for job in &inert {
            let synthesized = analysis.pruned_digest(job).expect("inert jobs synthesize a digest");
            let executed = report
                .records
                .iter()
                .find(|r| {
                    r.site == job.site.to_string() && r.occurrence == job.occurrence && r.fault_id == job.fault.id
                })
                .expect("every planned job produces a record");
            assert!(
                !executed.pruned && !executed.cache_hit,
                "{}: the force-run must actually execute {}",
                scenario.id,
                job.fault.id
            );
            assert_eq!(
                RunDigest::of(executed),
                synthesized,
                "{}: force-run of provably-inert {} at {}#{} diverged from its synthesized record",
                scenario.id,
                job.fault.id,
                job.site,
                job.occurrence
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "the corpus must exercise at least one inert proof");
}

/// The serialized file system, registry and network — the reference the
/// structural no-op check must agree with.
fn substrate_json(os: &epa::sandbox::os::Os) -> [String; 3] {
    [
        serde_json::to_string(&os.fs).expect("vfs serializes"),
        serde_json::to_string(&os.registry).expect("registry serializes"),
        serde_json::to_string(&os.net).expect("network serializes"),
    ]
}

/// The state no-op proof compares a fault-applied copy-on-write snapshot
/// against the pristine world structurally (`Os::same_substrate`). Over
/// randomized corpus worlds plus the standard suite's, and every direct
/// fault their plans inject, that comparison must agree exactly with
/// comparing the serialized file system, registry and network.
#[test]
fn structural_no_op_check_agrees_with_serialized_worlds() {
    use epa::core::perturb::FaultPayload;
    use epa::sandbox::process::Pid;

    let mut setups = Vec::new();
    for seed in SEEDS {
        for scenario in corpus(seed, 16) {
            let setup = scenario.spec.materialize().expect("corpus worlds materialize");
            setups.push((
                setup,
                Box::new(ScriptedApp::for_scenario(&scenario)) as epa::apps::BoxedApp,
            ));
        }
    }
    for (app, spec) in epa::apps::standard_apps() {
        setups.push((spec.materialize().expect("standard worlds materialize"), app));
    }
    let (mut unchanged, mut changed) = (0usize, 0usize);
    for (setup, app) in &setups {
        let pristine = &setup.world;
        let pristine_json = substrate_json(pristine);
        let plan = Session::from_setup(setup.clone()).plan(app.as_ref());
        let mut seen = BTreeSet::new();
        for job in plan.jobs() {
            let FaultPayload::Direct(fault) = &job.fault.payload else {
                continue;
            };
            if !seen.insert(serde_json::to_string(fault).expect("faults serialize")) {
                continue;
            }
            let mut probe = pristine.clone();
            let _ = fault.apply(&mut probe, Pid(0));
            let structural = probe.same_substrate(pristine);
            assert_eq!(
                structural,
                substrate_json(&probe) == pristine_json,
                "{}: structural and serialized no-op checks disagree on {fault:?}",
                app.name()
            );
            if structural {
                unchanged += 1;
            } else {
                changed += 1;
            }
        }
    }
    assert!(
        unchanged > 0 && changed > 0,
        "both outcomes must be exercised ({unchanged} no-ops, {changed} changes)"
    );
}

/// `(app, pruned, executed)` per standard-suite application, in suite order.
const PINNED_SUITE_PRUNING: [(&str, usize, usize); 8] = [
    ("lpr", 1, 13),
    ("turnin", 3, 38),
    ("fontpurge", 10, 55),
    ("ntlogon", 8, 57),
    ("fingerd", 3, 12),
    ("authd", 3, 13),
    ("mailnotify", 0, 19),
    ("backupd", 1, 9),
];

/// One record's observable outcome: everything but the `cache_hit` and
/// `pruned` provenance flags, which a pruned or replayed record may differ
/// in.
fn record_line(r: &FaultRecord) -> String {
    let violations = serde_json::to_string(&r.violations).expect("verdicts serialize");
    format!(
        "{}|{}|{}|{}|{:?}|{:?}|{}|{violations}",
        r.site, r.occurrence, r.fault_id, r.applied, r.exit, r.crashed, r.audit_events
    )
}

fn record_lines(report: &CampaignReport) -> Vec<String> {
    report.records.iter().map(record_line).collect()
}

/// The standard suite's pruning is pinned: with `static_prune` on, 29 of
/// 245 records are proven inert and 216 execute, split across the
/// applications as listed; the occurrence-exhaustive baseline executes 277
/// runs, so pruning cuts at least 20%. Pruning changes no record of the
/// default (unpruned) suite, and every pruned-suite record appears verbatim
/// in the exhaustive stream.
#[test]
fn standard_suite_prunes_the_same_jobs() {
    let cold = |options: CampaignOptions| {
        epa::apps::standard_suite_with_options(options)
            .expect("valid specs")
            .execute()
            .reports
    };
    let exhaustive = cold(CampaignOptions {
        max_occurrences_per_site: usize::MAX,
        ..CampaignOptions::default()
    });
    let planned = cold(CampaignOptions::default());
    let report = cold(CampaignOptions {
        static_prune: true,
        ..CampaignOptions::default()
    });
    let per_app: Vec<(&str, usize, usize)> = report
        .iter()
        .map(|r| (r.app.as_str(), r.pruned(), r.runs_executed()))
        .collect();
    assert_eq!(
        per_app, PINNED_SUITE_PRUNING,
        "per-application pruned/executed counts moved"
    );
    let pruned: usize = per_app.iter().map(|&(_, p, _)| p).sum();
    let executed: usize = per_app.iter().map(|&(_, _, e)| e).sum();
    assert_eq!((pruned, executed), (29, 216));

    let runs = |reports: &[CampaignReport]| reports.iter().map(CampaignReport::runs_executed).sum::<usize>();
    let exhaustive_runs = runs(&exhaustive);
    assert_eq!((exhaustive_runs, runs(&planned)), (277, 245));
    assert!(
        5 * (exhaustive_runs - executed) >= exhaustive_runs,
        "the pruned plan must execute >= 20% fewer runs than the exhaustive baseline"
    );
    for ((e, n), p) in exhaustive.iter().zip(&planned).zip(&report) {
        assert_eq!(
            record_lines(n),
            record_lines(p),
            "pruning changed a record of `{}`",
            p.app
        );
        let superset: BTreeSet<String> = record_lines(e).into_iter().collect();
        for line in record_lines(p) {
            assert!(
                superset.contains(&line),
                "`{}`: a pruned-suite record is missing from the exhaustive stream: {line}",
                p.app
            );
        }
    }
}

/// Lints a corpus scenario as `reproduce lint` lints an application: the
/// analysis of its plan's clean run, its jobs and the default budget.
fn lint(scenario: &epa::core::corpus::Scenario) -> LintReport {
    let setup = scenario.spec.materialize().expect("corpus worlds materialize");
    let plan = Session::from_setup(setup.clone()).plan(&ScriptedApp::for_scenario(scenario));
    let analysis = AppAnalysis::from_clean_run(&setup, &plan.clean);
    let budget = CampaignOptions::default().max_occurrences_per_site;
    lint_setup(&scenario.id, &scenario.spec, &analysis, &plan.jobs(), Some(budget))
}

/// Lint output is a pure function of the scenario: re-linting the same
/// world yields byte-identical text and JSON, independent synthesis of the
/// same seed yields the same reports, and different seeds lint without
/// panicking.
#[test]
fn lint_output_is_deterministic() {
    for seed in SEEDS {
        let first = corpus(seed, 12);
        let second = corpus(seed, 12);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            let (ra, rb) = (lint(a), lint(b));
            assert_eq!(ra, rb, "lint diverged across synthesis of seed {seed:#x}");
            assert_eq!(ra.render_text(), rb.render_text());
            assert_eq!(
                serde_json::to_string(&ra).unwrap(),
                serde_json::to_string(&rb).unwrap(),
                "JSON rendering diverged for {} (seed {seed:#x})",
                a.id
            );
            // Re-rendering the same report is stable too.
            assert_eq!(ra.render_text(), ra.render_text());
        }
    }
}

/// Documented divergence between the planner's `FaultKey` canonicalization
/// and the analyzer's alias resolution — audited, intentional, and safe in
/// exactly one direction.
///
/// `FaultKey` normalizes payload paths *lexically* (`path::clean`: `//`
/// and `.` collapse, `..` kept) and never consults the world, so two
/// catalog faults addressing one inode through a symlink and through its
/// physical path get **different** keys: the planner executes both rather
/// than conflating them. The analyzer resolves the same spellings to one
/// physical form. The asymmetry is sound — a missed merge costs a run,
/// while a false merge would replay a wrong outcome — and must stay this
/// way unless `FaultKey` learns to resolve against the frozen world.
#[test]
fn fault_key_stays_lexical_where_alias_analysis_resolves() {
    use epa::core::inject::InjectionPlan;
    use epa::core::model::EaiCategory;
    use epa::core::perturb::{ConcreteFault, DirectFault, FaultPayload};
    use epa::sandbox::trace::SiteId;

    let fault = |path: &str| InjectionPlan {
        site: SiteId::new("probe:read"),
        occurrence: 0,
        fault: ConcreteFault {
            id: format!("probe:{path}"),
            category: EaiCategory::Other,
            description: String::new(),
            semantic: None,
            payload: FaultPayload::Direct(DirectFault::FileMakeMissing { path: path.to_string() }),
        },
    };

    // Lexical cleanups the key does collapse.
    assert_eq!(
        FaultKey::of(&fault("/etc//passwd")),
        FaultKey::of(&fault("/etc/./passwd")),
        "cosmetic spellings must share one canonical key"
    );

    // A symlink alias the key deliberately does NOT collapse, even though
    // the analyzer resolves both spellings to the same physical file.
    let mut spec = epa::core::engine::WorldSpec::default();
    spec.symlinks.push(epa::core::engine::spec::SymlinkSpec {
        link: "/var/log".to_string(),
        target: "/data/log".to_string(),
    });
    let via_link = "/var/log/app.log";
    let physical = "/data/log/app.log";
    let (resolved, aliased) = epa::core::analysis::statics::resolve_alias(&spec, via_link);
    assert!(aliased);
    assert_eq!(resolved, physical, "the analyzer resolves the alias");
    assert_ne!(
        FaultKey::of(&fault(via_link)),
        FaultKey::of(&fault(physical)),
        "FaultKey must keep alias spellings distinct (conservative: no false merges)"
    );

    // `..` components likewise stay distinct: textual resolution could
    // conflate faults that strike different inodes across symlinked dirs.
    assert_ne!(
        FaultKey::of(&fault("/etc/app/../passwd")),
        FaultKey::of(&fault("/etc/passwd")),
        "`..` spellings must not be textually resolved"
    );
}
