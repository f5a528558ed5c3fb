//! Integration: failure injection against the harness itself — campaigns
//! must survive misbehaving applications and broken worlds.

use std::collections::BTreeMap;

use epa::core::campaign::{run_once, TestSetup};
use epa::core::engine::Session;
use epa::sandbox::app::Application;
use epa::sandbox::cred::{Gid, Uid};
use epa::sandbox::mode::Mode;
use epa::sandbox::os::Os;
use epa::sandbox::process::Pid;
use epa::sandbox::trace::InputSemantic;

fn tiny_world() -> TestSetup {
    let mut os = Os::new();
    os.users
        .add("u", os.scenario.invoker, os.scenario.invoker_gid, "/home/u");
    os.fs
        .mkdir_p(
            "/home/u",
            os.scenario.invoker,
            os.scenario.invoker_gid,
            Mode::new(0o755),
        )
        .unwrap();
    os.fs
        .put_file("/etc/conf", "x=1", Uid::ROOT, Gid::ROOT, Mode::new(0o644))
        .unwrap();
    TestSetup::new(os).cwd("/home/u")
}

struct Panicker;
impl Application for Panicker {
    fn name(&self) -> &'static str {
        "panicker"
    }
    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        let _ = os.sys_read_file(pid, "p:read", "/etc/conf");
        panic!("deliberate panic");
    }
}

#[test]
fn campaigns_survive_panicking_applications() {
    let report = Session::from_setup(tiny_world()).execute(&Panicker);
    // Every record exists, carries the panic payload, and the harness
    // completed.
    assert!(report.injected() > 0);
    assert!(report
        .records
        .iter()
        .all(|r| r.crashed.as_deref() == Some("deliberate panic")));
    // The rendered report surfaces the payload instead of discarding it.
    assert!(report.render_text().contains("panicked with `deliberate panic`"));
}

struct Spinner;
impl Application for Spinner {
    fn name(&self) -> &'static str {
        "spinner"
    }
    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        // A retry loop that never gives up: the syscall budget must stop it.
        loop {
            if let Err(e) = os.sys_read_file(pid, "s:poll", "/etc/missing") {
                if e.errno == epa::sandbox::error::Errno::Eagain {
                    return 99;
                }
            }
        }
    }
}

#[test]
fn syscall_budget_terminates_spinning_applications() {
    let setup = tiny_world();
    let out = run_once(&setup, &Spinner, None);
    assert_eq!(out.exit, Some(99), "the budget fault reached the app");
    assert!(!out.has_crashed());
}

struct ReadsArg;
impl Application for ReadsArg {
    fn name(&self) -> &'static str {
        "readsarg"
    }
    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        match os.sys_arg(pid, "r:arg", 0, InputSemantic::UserFileName) {
            Ok(_) => 0,
            Err(_) => 3,
        }
    }
}

#[test]
fn spawn_failure_yields_a_sound_outcome() {
    // A program file the invoker cannot execute: spawn fails, the outcome
    // reports no pid and no violations, and nothing panics.
    let mut setup = tiny_world();
    setup
        .world
        .fs
        .put_file("/bin/app", "", Uid::ROOT, Gid::ROOT, Mode::new(0o700))
        .unwrap();
    setup.program = Some("/bin/app".into());
    let out = run_once(&setup, &ReadsArg, None);
    assert!(out.pid.is_none());
    assert_eq!(out.exit, None);
    assert!(out.violations.is_empty());
}

#[test]
fn unknown_invoker_is_handled() {
    let mut setup = tiny_world();
    setup.invoker = Uid(123_456);
    let out = run_once(&setup, &ReadsArg, None);
    assert!(out.pid.is_none());
}

#[test]
fn empty_args_reach_the_error_path_not_a_crash() {
    let setup = tiny_world();
    let out = run_once(&setup, &ReadsArg, None);
    assert_eq!(out.exit, Some(3));
    assert!(!out.has_crashed());
}

#[test]
fn campaign_with_no_interaction_points_is_empty_not_broken() {
    struct Inert;
    impl Application for Inert {
        fn name(&self) -> &'static str {
            "inert"
        }
        fn run(&self, _os: &mut Os, _pid: Pid) -> i32 {
            0
        }
    }
    let report = Session::from_setup(tiny_world()).execute(&Inert);
    assert_eq!(report.total_sites, 0);
    assert_eq!(report.injected(), 0);
    assert_eq!(report.vulnerability_score(), 0.0);
    assert_eq!(report.fault_coverage().value_or(1.0), 1.0, "vacuously covered");
    // The vacuous-coverage regression (issue 5): interaction coverage over
    // zero sites is undefined, not 100%, and a campaign that tested
    // nothing must land in the Inadequate region of Figure 2 — never Safe.
    use epa::core::coverage::{AdequacyRegion, AdequacyThresholds};
    assert_eq!(report.interaction_coverage().fraction(), None);
    let point = report.adequacy();
    assert!(point.vacuous);
    assert_eq!(point.region(AdequacyThresholds::default()), AdequacyRegion::Inadequate);
    let text = report.render_text();
    assert!(text.contains("0/0 (n/a)"), "{text}");
    assert!(!text.contains("NaN"), "{text}");
}

#[test]
fn deleted_world_objects_produce_error_paths_not_panics() {
    struct ReadsConf;
    impl Application for ReadsConf {
        fn name(&self) -> &'static str {
            "readsconf"
        }
        fn run(&self, os: &mut Os, pid: Pid) -> i32 {
            match os.sys_read_file(pid, "c:read", "/etc/conf") {
                Ok(_) => 0,
                Err(_) => 4,
            }
        }
    }
    let mut setup = tiny_world();
    setup.world.fs.god_remove("/etc/conf").unwrap();
    let out = run_once(&setup, &ReadsConf, None);
    assert_eq!(out.exit, Some(4));
}

#[test]
fn env_maps_are_isolated_between_runs() {
    struct EnvReader;
    impl Application for EnvReader {
        fn name(&self) -> &'static str {
            "envreader"
        }
        fn run(&self, os: &mut Os, pid: Pid) -> i32 {
            let v = os
                .sys_getenv(pid, "e:get", "MARK", InputSemantic::EnvValue)
                .map(|d| d.text())
                .unwrap_or_default();
            if v == "one" {
                0
            } else {
                5
            }
        }
    }
    let mut setup = tiny_world();
    setup.env = BTreeMap::from([("MARK".to_string(), "one".to_string())]);
    let a = run_once(&setup, &EnvReader, None);
    assert_eq!(a.exit, Some(0));
    // Mutating the returned world must not affect the pristine setup.
    let b = run_once(&setup, &EnvReader, None);
    assert_eq!(b.exit, Some(0));
}
