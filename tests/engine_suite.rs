//! Integration: the engine facade — batch `Suite` execution over all eight
//! case-study applications and the cross-application rollups.

use epa::apps::*;
use epa::core::campaign::CampaignOptions;
use epa::core::engine::{Engine, Suite, SuiteReport};

#[test]
fn the_standard_suite_runs_all_eight_apps_in_one_batch() {
    let report = standard_suite().expect("valid specs").execute();
    assert_eq!(report.reports.len(), 8);
    let apps: Vec<&str> = report.reports.iter().map(|r| r.app.as_str()).collect();
    assert_eq!(
        apps,
        vec![
            "lpr",
            "turnin",
            "fontpurge",
            "ntlogon",
            "fingerd",
            "authd",
            "mailnotify",
            "backupd"
        ],
        "reports come back in registration order"
    );
    // Every seeded flaw is found in the batch, and the paper's headline
    // campaigns keep their numbers inside the suite.
    assert_eq!(report.vulnerable_apps().len(), 8);
    let turnin = report.get("turnin").expect("turnin present");
    assert_eq!(turnin.injected(), 41);
    assert_eq!(turnin.violated(), 9);
    assert!(report.total_injected() > 100);
    assert!(report.fault_coverage().value_or(1.0) > 0.0 && report.fault_coverage().value_or(1.0) < 1.0);
}

#[test]
fn an_empty_suite_executes_to_an_empty_report_at_any_worker_count() {
    let empty = SuiteReport { reports: Vec::new() };
    assert_eq!(Suite::new().execute(), empty, "default worker count");
    for workers in [1usize, 2, 4] {
        assert_eq!(Suite::new().with_workers(workers).execute(), empty, "{workers} workers");
    }
    assert!(Suite::new().manifest().apps.is_empty());
}

#[test]
fn sequential_and_fanned_out_suites_agree() {
    let fanned = standard_suite().expect("valid specs").execute();
    let sequential = standard_suite().expect("valid specs").with_workers(1).execute();
    assert_eq!(fanned, sequential);
}

#[test]
fn suite_runs_are_deterministic() {
    let a = standard_suite().expect("valid specs").execute();
    let b = standard_suite().expect("valid specs").execute();
    assert_eq!(a, b);
}

#[test]
fn engine_options_propagate_to_sessions() {
    let engine = Engine::new().with_options(CampaignOptions {
        max_sites: Some(1),
        ..Default::default()
    });
    let session = engine.session(&lpr::spec()).expect("valid spec");
    let report = session.execute(&Lpr);
    assert_eq!(report.perturbed_sites, 1, "engine options reached the campaign");
    assert!(report.interaction_coverage().value_or(1.0) < 1.0);
}

#[test]
fn engine_builds_suites_from_heterogeneous_pairs() {
    use epa::sandbox::app::Application;
    let engine = Engine::new();
    let suite = engine
        .suite_of(vec![
            (Box::new(Lpr) as Box<dyn Application + Send + Sync>, lpr::spec()),
            (Box::new(Turnin), turnin::spec()),
        ])
        .expect("valid specs");
    assert_eq!(suite.apps(), vec!["lpr", "turnin"]);
    let report = suite.execute();
    assert_eq!(report.reports.len(), 2);
    assert!(report.get("lpr").unwrap().violated() > 0);
    assert_eq!(report.get("turnin").unwrap().violated(), 9);
}

#[test]
fn suite_reports_serialize_for_downstream_tooling() {
    let mut suite = epa::engine::Suite::new();
    suite.register(Lpr, &lpr::spec()).expect("valid spec");
    let report = suite.execute();
    let json = serde_json::to_string(&report).expect("serialize");
    let back: SuiteReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, report);
    // The pretty form is what `reproduce -- suite --json` writes to
    // SUITE_report.json; it must round-trip identically too.
    let pretty = serde_json::to_string_pretty(&report).expect("serialize pretty");
    let back_pretty: SuiteReport = serde_json::from_str(&pretty).expect("deserialize pretty");
    assert_eq!(back_pretty, report);
    let text = report.render_text();
    assert!(text.contains("suite: 1 applications"));
    assert!(text.contains("lpr"));
}
