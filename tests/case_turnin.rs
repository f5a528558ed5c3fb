//! Integration: the §4.1 turnin case study — the paper's headline numbers
//! and both published exploits.

use epa::apps::{turnin, Turnin, TurninFixed};
use epa::core::campaign::run_once;
use epa::core::engine::Session;
use epa::sandbox::policy::ViolationKind;

#[test]
fn eight_points_fortyone_perturbations_nine_violations() {
    let setup = turnin::spec().materialize().unwrap();
    let report = Session::from_setup(setup).execute(&Turnin);
    assert_eq!(report.clean_violations, 0, "clean run must be violation-free");
    assert_eq!(report.total_sites, 8, "paper: 8 interaction places");
    assert_eq!(report.injected(), 41, "paper: 41 environment perturbations");
    assert_eq!(
        report.violated(),
        9,
        "paper: 9 perturbations lead to security violation"
    );
}

#[test]
fn the_published_exploits_are_among_the_violations() {
    let setup = turnin::spec().materialize().unwrap();
    let report = Session::from_setup(setup).execute(&Turnin);
    let ids: Vec<&str> = report.violations().map(|r| &*r.fault_id).collect();
    // Exploit 1: the Projlist permission/symlink disclosure.
    assert!(
        ids.contains(&"direct:fs:permission@/home/ta/submit/Projlist"),
        "{ids:?}"
    );
    assert!(ids.contains(&"direct:fs:symlink@/home/ta/submit/Projlist"), "{ids:?}");
    // Exploit 2: the `../` member name.
    assert!(ids.contains(&"indirect:user-file-name:dotdot"), "{ids:?}");
}

#[test]
fn violation_kinds_are_as_analyzed() {
    let setup = turnin::spec().materialize().unwrap();
    let report = Session::from_setup(setup).execute(&Turnin);
    let mut disclosures = 0;
    let mut integrity = 0;
    let mut execs = 0;
    let mut tainted = 0;
    for r in report.violations() {
        for v in &r.violations {
            match v.kind {
                ViolationKind::Disclosure => disclosures += 1,
                ViolationKind::IntegrityWrite => integrity += 1,
                ViolationKind::UntrustedExec => execs += 1,
                ViolationKind::TaintedPrivilegedOp => tainted += 1,
                other => panic!("unexpected violation kind {other:?}"),
            }
        }
    }
    assert_eq!(disclosures, 3, "cf symlink + Projlist permission + Projlist symlink");
    assert_eq!(integrity, 2, "chdir symlink + ../ member name");
    assert_eq!(execs, 3, "PATH insertion + tar ownership + tar symlink");
    assert_eq!(tainted, 1, "attacker-owned config redirects the copy");
}

#[test]
fn shadow_exploit_really_prints_the_shadow_file() {
    let mut setup = turnin::spec().materialize().unwrap();
    setup
        .world
        .fs
        .god_symlink("/home/ta/submit/Projlist", "/etc/shadow")
        .unwrap();
    let out = run_once(&setup, &Turnin, None);
    let stdout = out.os.stdout_text(out.pid.unwrap());
    assert!(
        stdout.contains("root:HASH0x7f"),
        "the student reads the shadow file: {stdout}"
    );
    assert!(out.violations.iter().any(|v| v.kind == ViolationKind::Disclosure));
}

#[test]
fn dotdot_exploit_really_overwrites_the_login_file() {
    let mut setup = turnin::spec().materialize().unwrap();
    setup.args = vec![
        "-c".into(),
        "cs390".into(),
        "-p".into(),
        "proj1".into(),
        "../.login".into(),
    ]
    .into();
    let out = run_once(&setup, &Turnin, None);
    assert!(out.violations.iter().any(|v| v.kind == ViolationKind::IntegrityWrite));
    let login = out.os.fs.god_read("/home/ta/.login").unwrap().text();
    assert!(login.contains("TAR-ARCHIVE"), "TA's .login replaced: {login}");
}

#[test]
fn fixed_turnin_tolerates_all_41_faults() {
    let setup = turnin::spec().materialize().unwrap();
    let report = Session::from_setup(setup).execute(&TurninFixed);
    assert_eq!(report.total_sites, 8, "the fix does not change the interaction surface");
    assert_eq!(report.injected(), 41);
    assert_eq!(report.violated(), 0, "{:#?}", report.violations().collect::<Vec<_>>());
    assert_eq!(report.fault_coverage().fraction(), Some(1.0));
}

#[test]
fn fixed_turnin_still_works_for_honest_students() {
    let setup = turnin::spec().materialize().unwrap();
    let out = run_once(&setup, &TurninFixed, None);
    assert_eq!(out.exit, Some(0));
    assert!(out.os.fs.exists("/home/ta/submit/hw1.c"), "the submission still lands");
}

#[test]
fn violations_per_site_match_the_analysis() {
    let setup = turnin::spec().materialize().unwrap();
    let report = Session::from_setup(setup).execute(&Turnin);
    let per_site: Vec<(String, usize, usize)> = report.by_site();
    let expect = [
        ("turnin:read_args", 5, 1),
        ("turnin:getenv_path", 5, 1),
        ("turnin:read_config", 9, 2),
        ("turnin:read_projlist", 5, 2),
        ("turnin:chdir_submit", 4, 1),
        ("turnin:mktemp", 4, 0),
        ("turnin:exec_tar", 5, 2),
        ("turnin:copy_dest", 4, 0),
    ];
    for (site, injected, violated) in expect {
        let row = per_site
            .iter()
            .find(|(s, _, _)| s == site)
            .unwrap_or_else(|| panic!("missing {site}"));
        assert_eq!((row.1, row.2), (injected, violated), "{site}");
    }
}
