//! Integration: the §4.2 Windows NT registry case study.

use epa::apps::fontpurge::{font_key, FontPurge, FontPurgeFixed, FONT_KEYS};
use epa::apps::ntlogon::{logon_key, NtLogon, NtLogonFixed, LOGON_KEYS};
use epa::apps::{fontpurge, ntlogon};
use epa::core::campaign::run_once;
use epa::core::engine::Session;
use epa::sandbox::policy::ViolationKind;

#[test]
fn the_nt_world_has_29_unprotected_keys() {
    let setup = fontpurge::spec().materialize().unwrap();
    assert_eq!(
        setup.world.registry.unprotected_keys().len(),
        29,
        "paper: 29 unprotected keys"
    );
}

#[test]
fn nine_exercised_keys_all_exploitable() {
    let r = epa_bench::registry_42();
    assert_eq!(r.unprotected, 29);
    assert_eq!(r.exercised, 9, "paper: 9 keys exercised by the tested modules");
    assert_eq!(r.exploited, 9, "paper: all 9 exploited");
}

#[test]
fn font_value_swap_deletes_the_critical_file() {
    let mut setup = fontpurge::spec().materialize().unwrap();
    setup
        .world
        .registry
        .god_set_value(font_key(0), "Path", "/winnt/system.ini");
    let out = run_once(&setup, &FontPurge, None);
    assert!(out
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::TaintedPrivilegedOp));
    assert!(!out.os.fs.exists("/winnt/system.ini"));
}

#[test]
fn font_value_swap_can_also_take_the_sam() {
    let mut setup = fontpurge::spec().materialize().unwrap();
    setup
        .world
        .registry
        .god_set_value(font_key(3), "Path", "/winnt/repair/sam");
    let out = run_once(&setup, &FontPurge, None);
    assert!(!out.violations.is_empty());
    assert!(!out.os.fs.exists("/winnt/repair/sam"));
}

#[test]
fn fixed_fontpurge_survives_every_key_perturbation() {
    let report = Session::new(&fontpurge::spec()).unwrap().execute(&FontPurgeFixed);
    assert_eq!(report.violated(), 0, "{:#?}", report.violations().collect::<Vec<_>>());
    assert!(report.injected() >= FONT_KEYS * 5, "all key faults still injected");
}

#[test]
fn logon_profile_trust_flaw_is_found_by_the_campaign() {
    let report = Session::new(&ntlogon::spec()).unwrap().execute(&NtLogon);
    assert_eq!(report.clean_violations, 0);
    let profile_viol = report
        .records
        .iter()
        .find(|r| r.site == "ntlogon:read_profiledir" && !r.tolerated())
        .expect("the ProfileDir key must be exploitable");
    assert!(
        profile_viol.fault_id.contains("untrusted-dir"),
        "{}",
        profile_viol.fault_id
    );
}

#[test]
fn every_logon_key_is_exploitable_and_the_fix_holds() {
    let setup = ntlogon::spec().materialize().unwrap();
    let session = Session::from_setup(setup);
    let report = session.execute(&NtLogon);
    for name in LOGON_KEYS {
        let site = format!("ntlogon:read_{}", name.to_lowercase());
        assert!(
            report.records.iter().any(|r| r.site == site && !r.tolerated()),
            "{name} should be exploitable"
        );
        assert!(session.world().registry.key(&logon_key(name)).is_some());
    }
    let fixed = session.execute(&NtLogonFixed);
    assert_eq!(fixed.violated(), 0, "{:#?}", fixed.violations().collect::<Vec<_>>());
}

#[test]
fn helpfile_key_discloses_the_sam_when_swapped() {
    let mut setup = ntlogon::spec().materialize().unwrap();
    setup
        .world
        .registry
        .god_set_value(&logon_key("HelpFile"), "Path", "/winnt/repair/sam");
    let out = run_once(&setup, &NtLogon, None);
    assert!(out.violations.iter().any(|v| v.kind == ViolationKind::Disclosure));
    let stdout = out.os.stdout_text(out.pid.unwrap());
    assert!(stdout.contains("NTHASH"), "the hash really reaches the user: {stdout}");
}
