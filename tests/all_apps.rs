//! Integration: full campaigns over every model application — the
//! cross-cutting guarantees the methodology depends on — driven through the
//! `engine::Session` facade over each app's exported `WorldSpec`.

use epa::apps::*;
use epa::core::engine::{Session, Suite, WorldSpec};
use epa::sandbox::app::Application;

fn all_cases() -> Vec<(&'static dyn Application, &'static dyn Application, WorldSpec)> {
    vec![
        (&Lpr, &LprFixed, lpr::spec()),
        (&Turnin, &TurninFixed, turnin::spec()),
        (&FontPurge, &FontPurgeFixed, fontpurge::spec()),
        (&NtLogon, &NtLogonFixed, ntlogon::spec()),
        (&Fingerd, &FingerdFixed, fingerd::spec()),
        (&Authd, &AuthdFixed, authd::spec()),
        (&MailNotify, &MailNotifyFixed, mailnotify::spec()),
        (&Backupd, &BackupdFixed, backupd::spec()),
    ]
}

fn session(spec: &WorldSpec) -> Session {
    Session::new(spec).expect("case-study specs are valid")
}

#[test]
fn every_clean_run_is_violation_free() {
    for (app, fixed, spec) in all_cases() {
        let s = session(&spec);
        for a in [app, fixed] {
            let out = s.run(a);
            assert!(
                out.violations.is_empty(),
                "{}: clean-run violations {:?}",
                a.name(),
                out.violations
            );
            assert!(!out.has_crashed(), "{} crashed: {:?}", a.name(), out.crashed);
        }
    }
}

#[test]
fn every_vulnerable_app_fails_some_fault_every_fixed_app_mostly_survives() {
    for (app, fixed, spec) in all_cases() {
        let s = session(&spec);
        let vuln = s.execute(app);
        assert!(vuln.violated() > 0, "{}: the seeded flaws must be found", app.name());
        let patched = s.execute(fixed);
        assert!(
            patched.vulnerability_score() < vuln.vulnerability_score(),
            "{}: fix must lower the score ({} -> {})",
            app.name(),
            vuln.vulnerability_score(),
            patched.vulnerability_score()
        );
    }
}

#[test]
fn fully_fixable_apps_reach_full_fault_coverage() {
    // Authenticity faults are not fixable without cryptographic protocols
    // (documented in EXPERIMENTS.md), so fingerd-fixed is exempt here.
    let fixable: Vec<(&dyn Application, WorldSpec)> = vec![
        (&LprFixed, lpr::spec()),
        (&TurninFixed, turnin::spec()),
        (&FontPurgeFixed, fontpurge::spec()),
        (&NtLogonFixed, ntlogon::spec()),
        (&AuthdFixed, authd::spec()),
        (&MailNotifyFixed, mailnotify::spec()),
        (&BackupdFixed, backupd::spec()),
    ];
    for (app, spec) in fixable {
        let report = session(&spec).execute(app);
        assert_eq!(
            report.violated(),
            0,
            "{}: {:#?}",
            app.name(),
            report.violations().collect::<Vec<_>>()
        );
    }
}

#[test]
fn parallel_campaigns_agree_with_sequential_everywhere() {
    for (app, _, spec) in all_cases() {
        let seq = session(&spec).execute(app);
        let mut suite = Suite::new().with_workers(4);
        suite.register_session(app, session(&spec));
        let par = suite.execute().reports.remove(0);
        assert_eq!(seq.injected(), par.injected(), "{}", app.name());
        assert_eq!(seq.violated(), par.violated(), "{}", app.name());
        let seq_v: Vec<_> = seq.violations().map(|r| r.fault_id.clone()).collect();
        let par_v: Vec<_> = par.violations().map(|r| r.fault_id.clone()).collect();
        assert_eq!(seq_v, par_v, "{}", app.name());
    }
}

#[test]
fn campaigns_are_deterministic() {
    for (app, _, spec) in all_cases() {
        let s = session(&spec);
        let a = s.execute(app);
        let b = s.execute(app);
        assert_eq!(a, b, "{}", app.name());
    }
}

#[test]
fn sessions_from_a_materialized_setup_match_sessions_from_the_spec() {
    // The migration contract: a hand-built `TestSetup` frozen with
    // `Session::from_setup` and `Session::new(&spec)` produce identical
    // reports.
    for (app, _, spec) in all_cases() {
        let setup = spec.materialize().expect("valid spec");
        let from_setup = Session::from_setup(setup).execute(app);
        let engine = session(&spec).execute(app);
        assert_eq!(from_setup, engine, "{}", app.name());
    }
}

#[test]
fn faults_fire_in_almost_all_runs() {
    // `applied == false` is allowed only when the perturbed input point is
    // never reached under the fault; it should be rare.
    for (app, _, spec) in all_cases() {
        let report = session(&spec).execute(app);
        let unapplied = report.records.iter().filter(|r| !r.applied).count();
        assert!(
            unapplied * 5 <= report.injected(),
            "{}: {}/{} faults never fired",
            app.name(),
            unapplied,
            report.injected()
        );
    }
}

#[test]
fn the_suite_wide_executor_matches_per_session_campaigns() {
    // The pooled suite path (one map over all eight apps' campaigns)
    // must reproduce every per-session campaign record-for-record — the
    // migration contract for the retired per-app thread fan-out.
    let batch = standard_suite().expect("valid specs").execute();
    for (app, _, spec) in all_cases() {
        let solo = session(&spec).execute(app);
        assert_eq!(
            batch.get(app.name()).expect("app in suite report"),
            &solo,
            "{}: pooled suite and solo session disagree",
            app.name()
        );
    }
}

#[test]
fn reports_serialize_for_downstream_tooling() {
    let report = session(&turnin::spec()).execute(&Turnin);
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    let back: epa::core::report::CampaignReport = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, report);
    assert!(json.contains("turnin:read_projlist"));
}
