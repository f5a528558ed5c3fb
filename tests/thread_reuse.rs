//! A run leaves nothing behind on its thread.
//!
//! `run_once` reuses per-thread state (the standard oracle set) and the
//! sandbox keeps thread-local scratch buffers. This test runs the standard
//! suite's injected jobs on one thread in plan order, then in reverse
//! order, and asserts that every job's digest is the same both times: no
//! run can see what the run before it left in a reused buffer.

use epa::core::campaign::{run_once, TestSetup};
use epa::core::engine::{RunDigest, Session};
use epa::core::inject::{InjectionHook, InjectionPlan};
use epa::sandbox::app::Application;

/// One job of the suite: its campaign's setup, its application and the job.
type Job<'a> = (&'a TestSetup, &'a dyn Application, &'a InjectionPlan);

fn digest(job: &Job<'_>) -> RunDigest {
    let (setup, app, plan) = *job;
    let (hook, fired) = InjectionHook::new(plan.clone());
    let out = run_once(setup, app, Some(Box::new(hook)));
    RunDigest {
        applied: fired.get(),
        exit: out.exit,
        crashed: out.crashed,
        audit_events: out.os.audit.len(),
        violations: out.violations,
    }
}

#[test]
fn digests_do_not_depend_on_the_runs_before_them() {
    let apps = epa::apps::standard_apps();
    let campaigns: Vec<(Session, Vec<InjectionPlan>)> = apps
        .iter()
        .map(|(app, spec)| {
            let session = Session::new(spec).expect("the case-study specs are valid");
            let jobs = session.plan(app.as_ref()).jobs();
            (session, jobs)
        })
        .collect();
    let jobs: Vec<Job<'_>> = campaigns
        .iter()
        .zip(&apps)
        .flat_map(|((session, jobs), (app, _))| {
            let app: &dyn Application = app.as_ref();
            jobs.iter().map(move |job| (session.setup(), app, job))
        })
        .collect();
    assert_eq!(jobs.len(), 245, "the standard suite's injected jobs");

    let forward: Vec<RunDigest> = jobs.iter().map(digest).collect();
    let mut backward: Vec<RunDigest> = jobs.iter().rev().map(digest).collect();
    backward.reverse();
    for ((job, f), b) in jobs.iter().zip(&forward).zip(&backward) {
        assert_eq!(
            f,
            b,
            "{} @ {}#{}",
            job.2.fault.id,
            job.2.site.as_str(),
            job.2.occurrence
        );
    }
    assert!(
        forward.iter().any(|d| !d.violations.is_empty()),
        "some jobs find violations"
    );
}
