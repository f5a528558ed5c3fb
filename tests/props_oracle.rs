//! Property tests: oracle-pipeline equivalence — the incremental
//! (audit-log-subscribed) `OracleSet` must report exactly what
//! `OracleSet::evaluate_log` reports over the same run's completed log,
//! across randomized worlds, randomized fault plans, and spec-declared
//! invariants; and both must reproduce the paper's pinned lpr numbers.

use epa::core::campaign::{run_once, CampaignOptions};
use epa::core::engine::{Session, WorldSpec};
use epa::core::inject::InjectionHook;
use epa::sandbox::app::Application;
use epa::sandbox::cred::{Gid, Uid};
use epa::sandbox::os::{Os, ScenarioMeta};
use epa::sandbox::policy::InvariantSpec;
use epa::sandbox::process::Pid;
use epa::sandbox::trace::InputSemantic;
use proptest::prelude::*;

/// A deterministic program parameterized by the randomized world: reads its
/// argument, then every declared data file, then spools a summary.
struct Walker {
    files: Vec<String>,
}

impl Application for Walker {
    fn name(&self) -> &'static str {
        "walker"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        let Ok(arg) = os.sys_arg(pid, "walker:arg", 0, InputSemantic::UserFileName) else {
            return 2;
        };
        let mut seen = 0usize;
        for path in &self.files {
            if let Ok(d) = os.sys_read_file(pid, "walker:read", path.as_str()) {
                seen += d.len();
            }
        }
        let summary = format!("{}:{seen}", arg.text());
        if os
            .sys_write_file(pid, "walker:spool", "/var/spool/walker/out", summary.as_str(), 0o660)
            .is_err()
        {
            return 1;
        }
        let _ = os.sys_print(pid, "walker:done", "done\n");
        0
    }
}

#[derive(Debug, Clone)]
struct RandFile {
    name: String,
    content: String,
    mode: u16,
    owner: u8,
}

fn file_strategy() -> impl Strategy<Value = RandFile> {
    (
        "[a-z]{1,8}",
        ".{0,40}",
        prop_oneof![
            Just(0o600u16),
            Just(0o644u16),
            Just(0o666u16),
            Just(0o700u16),
            Just(0o755u16)
        ],
        0u8..3,
    )
        .prop_map(|(name, content, mode, owner)| RandFile {
            name,
            content,
            mode,
            owner,
        })
}

/// Randomized invariant declarations riding on the spec: none, a pristine
/// shadow file, a forbidden exec prefix, or a required check that never
/// runs (exercising the finish-time, empty-evidence verdict path).
fn invariant_strategy() -> impl Strategy<Value = Vec<InvariantSpec>> {
    prop_oneof![
        Just(Vec::new()),
        Just(vec![InvariantSpec::file_pristine("/etc/shadow")]),
        Just(vec![InvariantSpec::forbid_exec("/home/evil")]),
        Just(vec![
            InvariantSpec::require_rule("never-declared"),
            InvariantSpec::file_pristine("/etc/passwd"),
        ]),
    ]
}

fn build_spec(files: &[RandFile], arg: &str, invariants: &[InvariantSpec]) -> (WorldSpec, Vec<String>) {
    let scenario = ScenarioMeta::default();
    let mut b = WorldSpec::builder()
        .user("root", Uid::ROOT, Gid::ROOT, "/root")
        .user("student", scenario.invoker, scenario.invoker_gid, "/home/student")
        .user("evil", scenario.attacker, scenario.attacker_gid, "/home/evil")
        .dir("/var/spool/walker", Uid::ROOT, Gid::ROOT, 0o755)
        .root_file("/etc/passwd", "root:0:0:", 0o644)
        .root_file("/etc/shadow", "root:HASH", 0o600)
        .suid_root_program("/usr/bin/walker")
        .args([arg]);
    for inv in invariants {
        b = b.invariant(inv.clone());
    }
    let mut paths = Vec::new();
    for (i, f) in files.iter().enumerate() {
        // The index keeps paths unique even when names repeat.
        let path = format!("/data/f{i}-{}", f.name);
        let (owner, group) = match f.owner {
            0 => (Uid::ROOT, Gid::ROOT),
            1 => (scenario.invoker, scenario.invoker_gid),
            _ => (scenario.attacker, scenario.attacker_gid),
        };
        b = b.file(path.clone(), f.content.clone(), owner, group, f.mode);
        paths.push(path);
    }
    (b.build(), paths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The oracle redesign's acceptance property: for every run of a
    /// randomized fault plan over a randomized world, the incremental
    /// pipeline's verdicts equal a fresh oracle's `evaluate_log` over the
    /// same run's completed log.
    #[test]
    fn incremental_verdicts_equal_evaluate_log_on_the_same_run(
        files in proptest::collection::vec(file_strategy(), 0..4),
        arg in "[a-z]{1,6}",
        invariants in invariant_strategy(),
        max_faults in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
        max_occurrences in 1usize..3,
    ) {
        let (spec, paths) = build_spec(&files, &arg, &invariants);
        let app = Walker { files: paths };
        let setup = spec.materialize().expect("generated specs are valid");
        let options = CampaignOptions {
            max_faults_per_site: max_faults,
            max_occurrences_per_site: max_occurrences,
            ..Default::default()
        };

        // The engine session (oracle subscribed to every run's audit log).
        let session = Session::from_setup(setup.clone()).with_options(options.clone());
        let plan = session.plan(&app);
        let report = session.execute_plan(&app, &plan);
        let jobs = plan.jobs();
        prop_assert_eq!(jobs.len(), report.records.len());

        // Re-run the identical jobs and judge each completed log afresh.
        for (job, record) in jobs.iter().zip(&report.records) {
            let (hook, _) = InjectionHook::new(job.clone());
            let run = run_once(&setup, &app, Some(Box::new(hook)));
            prop_assert_eq!(&run.violations, &record.violations, "job {}", job.fault.id);
            prop_assert_eq!(&setup.oracle().evaluate_log(&run.os.audit), &run.violations, "job {}", job.fault.id);
            prop_assert_eq!(run.os.audit.len(), record.audit_events);

            // Every evidence index stays inside the run's audit log.
            for verdict in &record.violations {
                for item in &verdict.evidence.items {
                    prop_assert!(item.index < record.audit_events);
                }
            }
        }
    }
}

/// The paper's §3.4 numbers, pinned through both oracle paths: the
/// incremental session, and `evaluate_log` over each run's completed log.
#[test]
fn lpr_numbers_pin_through_both_oracle_paths() {
    use epa::apps::{lpr, Lpr};
    use epa::sandbox::trace::SiteId;
    use std::collections::BTreeSet;

    let mut filter = BTreeSet::new();
    filter.insert(SiteId::new("lpr:create_spool"));
    let options = CampaignOptions {
        site_filter: Some(filter),
        ..Default::default()
    };
    let setup = lpr::spec().materialize().unwrap();

    // Incremental: the engine session.
    let session = Session::from_setup(setup.clone()).with_options(options);
    let report = session.execute(&Lpr);
    assert_eq!(report.injected(), 4, "existence, ownership, permission, symbolic link");
    assert_eq!(report.violated(), 4, "paper: violations detected for attributes 1-4");

    // Batch: the same four jobs, each completed log judged afresh.
    let mut batch_violated = 0usize;
    for job in session.plan(&Lpr).jobs() {
        let (hook, _) = InjectionHook::new(job);
        let out = run_once(&setup, &Lpr, Some(Box::new(hook)));
        let batch = setup.oracle().evaluate_log(&out.os.audit);
        assert_eq!(batch, out.violations);
        if !batch.is_empty() {
            batch_violated += 1;
        }
    }
    assert_eq!(batch_violated, 4, "batch path keeps the paper's 4/4");
}

/// `run_once` reuses one standard oracle set per thread, so a detector must
/// forget each run when it finishes, and it adds and drops the setup's
/// invariant detectors around each run. Alternating long and short audit
/// logs on one thread, every verdict — the finish-time `RequireRule` one's
/// `event_index` included — equals a fresh `TestSetup::oracle`'s.
#[test]
fn a_reused_oracle_judges_each_run_as_a_fresh_one_does() {
    let invariants = [
        InvariantSpec::file_pristine("/var/spool/walker/out"),
        InvariantSpec::require_rule("never-declared"),
    ];
    let long_files: Vec<RandFile> = (0..6)
        .map(|i| RandFile {
            name: format!("d{i}"),
            content: "x".repeat(i + 1),
            mode: 0o644,
            owner: 0,
        })
        .collect();
    let cases: Vec<_> = [long_files, Vec::new()]
        .iter()
        .map(|files| {
            let (spec, paths) = build_spec(files, "job", &invariants);
            (spec.materialize().expect("valid spec"), Walker { files: paths })
        })
        .collect();
    let mut lengths = Vec::new();
    for round in 0..6 {
        let (setup, app) = &cases[round % 2];
        let run = run_once(setup, app, None);
        assert_eq!(
            run.violations,
            setup.oracle().evaluate_log(&run.os.audit),
            "round {round}"
        );
        let required = run
            .violations
            .iter()
            .find(|v| v.rule == "invariant:require-rule:never-declared")
            .expect("the required check never runs");
        assert_eq!(required.event_index, run.os.audit.len(), "round {round}");
        assert!(run
            .violations
            .iter()
            .any(|v| v.rule == "invariant:file-pristine:/var/spool/walker/out"));
        lengths.push(run.os.audit.len());
    }
    assert!(
        lengths[0] > lengths[1],
        "the runs alternate long and short logs: {lengths:?}"
    );
}
