//! Integration: occurrence-aware fault plans (paper §3.3 perturbs *each
//! occurrence* of each interaction point).
//!
//! The fixture models the check-then-reuse (TOCTTOU) shape: a SUID-root
//! program opens the same configuration file three times at one site,
//! validates only the first read, and finally echoes what it read. A fault
//! struck at occurrence 0 lands *before* the validation and is caught; the
//! same fault struck at occurrence 1 or 2 lands in the trust window after
//! the check — which only an occurrence-aware plan can reach.

use epa::core::campaign::CampaignOptions;
use epa::core::engine::{Session, WorldSpec};
use epa::core::inject::{InjectionHook, InjectionPlan};
use epa::core::perturb::{ConcreteFault, DirectFault, FaultPayload};
use epa::core::report::CampaignReport;
use epa::sandbox::app::Application;
use epa::sandbox::cred::{Gid, Uid};
use epa::sandbox::os::{Os, ScenarioMeta};
use epa::sandbox::process::Pid;
use epa::sandbox::trace::SiteId;
use std::collections::BTreeMap;

/// The re-read configuration file.
const CFG: &str = "/var/lib/reread/target";
/// The content the first (validated) read must observe.
const GENUINE: &str = "all-clear";

/// The fixture: reads `CFG` three times at one site, validates read #1,
/// trusts reads #2 and #3, then prints the final content.
struct Reread;

impl Application for Reread {
    fn name(&self) -> &'static str {
        "reread"
    }
    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        let mut last = None;
        for _ in 0..3 {
            match os.sys_read_file(pid, "reread:open", CFG) {
                Ok(d) => {
                    // Only the first read is validated — the paper's
                    // check-at-one-point, trust-thereafter flaw.
                    if last.is_none() && d.text() != GENUINE {
                        return 1;
                    }
                    last = Some(d);
                }
                Err(_) => return 1,
            }
        }
        let data = last.expect("three reads completed");
        let _ = os.sys_print(pid, "reread:report", data);
        0
    }
}

fn session(max_occurrences: usize) -> Session {
    let scenario = ScenarioMeta::default();
    let spec = WorldSpec::builder()
        .user("root", Uid::ROOT, Gid::ROOT, "/root")
        .user("student", scenario.invoker, scenario.invoker_gid, "/home/student")
        .user("evil", scenario.attacker, scenario.attacker_gid, "/home/evil")
        .root_file("/etc/passwd", "root:x:0:0:\n", 0o644)
        .root_file("/etc/shadow", "root:SECRETHASH\n", 0o600)
        .root_file(CFG, GENUINE, 0o644)
        .suid_root_program("/usr/bin/reread")
        .build();
    Session::new(&spec).expect("valid spec").with_options(CampaignOptions {
        max_occurrences_per_site: max_occurrences,
        ..Default::default()
    })
}

fn symlink_verdicts(report: &CampaignReport) -> BTreeMap<usize, bool> {
    report
        .records
        .iter()
        .filter(|r| r.fault_id.starts_with("direct:fs:symlink"))
        .map(|r| (r.occurrence, !r.tolerated()))
        .collect()
}

#[test]
fn the_clean_run_is_violation_free_and_hits_the_site_three_times() {
    let s = session(1);
    let out = s.run(&Reread);
    assert_eq!(out.exit, Some(0));
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    let sites = out.os.trace.sites();
    let open = sites.iter().find(|s| s.site.as_str() == "reread:open").expect("site");
    assert_eq!(open.hits, 3, "the fixture re-reads the file three times");
    assert_eq!(out.os.trace.hit_count(&SiteId::new("reread:open")), 3);
}

#[test]
fn occurrence_plans_respect_the_cap_and_replan_only_sensitive_faults() {
    // 5 direct read faults at the site; occurrences past the first replan
    // all of them (direct faults are occurrence-sensitive).
    let plan1 = session(1).plan(&Reread);
    let open1 = plan1
        .sites
        .iter()
        .find(|s| s.summary.site.as_str() == "reread:open")
        .expect("site planned");
    assert_eq!(open1.occurrences, 1, "default cap preserves first-hit-only plans");
    assert!(open1.faults.iter().all(ConcreteFault::occurrence_sensitive));

    let plan3 = session(usize::MAX).plan(&Reread);
    let open3 = plan3
        .sites
        .iter()
        .find(|s| s.summary.site.as_str() == "reread:open")
        .expect("site planned");
    assert_eq!(open3.occurrences, 3, "uncapped plans strike every traced hit");
    let jobs = open3.jobs();
    assert_eq!(jobs.len(), 3 * open3.faults.len());
    for occurrence in 0..3 {
        assert_eq!(
            jobs.iter().filter(|j| j.occurrence == occurrence).count(),
            open3.faults.len()
        );
    }
    assert_eq!(plan3.total_faults(), plan3.jobs().len());
}

#[test]
fn the_hook_fires_only_on_the_planned_occurrence() {
    for target in [1usize, 2] {
        let s = session(1);
        let mut os = s.snapshot();
        let fault = ConcreteFault {
            id: "direct:fs:content@test".into(),
            category: epa::core::model::EaiCategory::Other,
            semantic: None,
            description: "modify between reads".into(),
            payload: FaultPayload::Direct(DirectFault::ModifyContent {
                path: CFG.into(),
                content: "perturbed".into(),
            }),
        };
        let (hook, fired) = InjectionHook::new(InjectionPlan {
            site: SiteId::new("reread:open"),
            occurrence: target,
            fault,
        });
        os.set_interceptor(Box::new(hook));
        let pid = os
            .spawn(
                os.scenario.invoker,
                Some("/usr/bin/reread"),
                vec![],
                BTreeMap::new(),
                "/",
            )
            .unwrap();
        for occurrence in 0..3 {
            let got = os.sys_read_file(pid, "reread:open", CFG).unwrap();
            // The content fault persists in the world once applied, so
            // reads before the target occurrence are genuine and reads at
            // or after it observe the perturbation.
            if occurrence < target {
                assert_eq!(got.text(), GENUINE, "occurrence {occurrence} must be untouched");
            } else {
                assert_eq!(got.text(), "perturbed", "occurrence {occurrence} is past the strike");
            }
        }
        assert!(fired.get());
    }
}

#[test]
fn later_occurrences_surface_the_violation_the_first_hit_misses() {
    // Occurrence 0: the symlink swap to /etc/shadow lands before the
    // validated read — the program notices and aborts. Tolerated.
    let first_only = session(1).execute(&Reread);
    let v1 = symlink_verdicts(&first_only);
    assert_eq!(v1.get(&0), Some(&false), "occurrence 0 symlink swap is caught");

    // Occurrences 1 and 2: the swap lands inside the trust window; the
    // program echoes the shadow file. Disclosure — invisible to any
    // occurrence-0 plan.
    let all = session(usize::MAX).execute(&Reread);
    let v3 = symlink_verdicts(&all);
    assert_eq!(v3.get(&0), Some(&false));
    assert_eq!(v3.get(&1), Some(&true), "occurrence 1 must violate");
    assert_eq!(v3.get(&2), Some(&true), "occurrence 2 must violate");
    let disclosure = all
        .records
        .iter()
        .find(|r| r.occurrence == 1 && r.fault_id.starts_with("direct:fs:symlink"))
        .expect("occurrence-1 symlink record");
    assert!(disclosure
        .violations
        .iter()
        .any(|v| v.description.contains("/etc/shadow")));
    assert!(all.violated() > first_only.violated());
}

#[test]
fn occurrence_campaigns_agree_between_sequential_and_parallel() {
    let seq = session(usize::MAX).execute(&Reread);
    let par = session(usize::MAX)
        .with_options(CampaignOptions {
            max_occurrences_per_site: usize::MAX,
            workers: Some(4),
            ..Default::default()
        })
        .execute(&Reread);
    assert_eq!(seq, par, "occurrence-aware plans stay deterministic under the pool");
}
