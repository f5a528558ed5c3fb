//! Property tests: planner equivalence — in-plan replay of equal faults,
//! cross-run memoization, and budgeted yield-guided planning must find the exact
//! verdict set of exhaustive planning across randomized worlds, randomized
//! fault plans, and spec-declared invariants; and the paper's pinned lpr
//! numbers must survive every planner path.

use epa::core::campaign::CampaignOptions;
use epa::core::engine::planner::ResultCache;
use epa::core::engine::{Session, Suite, SuiteReport, WorldSpec};
use epa::core::report::CampaignReport;
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

/// Strips the planner's replay flag: a replayed record must equal its
/// executed twin in every other field, so reports compare field-for-field.
fn executed_view(report: &CampaignReport) -> CampaignReport {
    let mut stripped = report.clone();
    for r in &mut stripped.records {
        r.cache_hit = false;
    }
    stripped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The planner's acceptance property: over randomized worlds, plans,
    /// and invariants —
    ///
    /// 1. a shared cache reproduces the exhaustive (cache-off) report
    ///    exactly, on a cold *and* a fully warmed cache;
    /// 2. the warmed pass executes zero runs;
    /// 3. a budget covering the whole plan is a pure permutation (same
    ///    report); a smaller budget yields a subset whose every record is
    ///    byte-identical to its exhaustive twin.
    #[test]
    fn planner_paths_find_the_exhaustive_verdict_set(
        files in proptest::collection::vec(file_strategy(), 0..4),
        arg in "[a-z]{1,6}",
        invariants in invariant_strategy(),
        max_faults in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
        max_occurrences in 1usize..3,
    ) {
        let (spec, paths) = build_spec(&files, &arg, &invariants);
        let app = Walker { files: paths };
        let setup = spec.materialize().expect("generated specs are valid");
        let base = CampaignOptions {
            max_faults_per_site: max_faults,
            max_occurrences_per_site: max_occurrences,
            ..Default::default()
        };

        // Exhaustive baseline: every job its own run, plan order.
        let exhaustive = Session::from_setup(setup.clone()).with_options(base.clone());
        let e = exhaustive.execute(&app);

        // Memo: two passes over one shared cache.
        let cache = ResultCache::new();
        let planner = Session::from_setup(setup.clone())
            .with_options(base.clone())
            .with_result_cache(cache.clone());
        let p1 = planner.execute(&app);
        let p2 = planner.execute(&app);
        prop_assert_eq!(&executed_view(&p1), &e, "cold planner pass must equal exhaustive");
        prop_assert_eq!(&executed_view(&p2), &e, "warm planner pass must equal exhaustive");
        prop_assert_eq!(p2.runs_executed(), 0, "a warmed cache replays every run");
        prop_assert_eq!(p2.cache_hits() + p2.pruned(), p2.injected());
        prop_assert!(p1.runs_executed() + p2.runs_executed() < 2 * e.injected() || e.injected() == 0);

        // A budget covering the whole plan permutes the execution order but
        // reproduces the identical report (records stay in plan order).
        let generous = Session::from_setup(setup.clone()).with_options(CampaignOptions {
            plan_budget: Some(e.injected()),
            ..base.clone()
        });
        let g = generous.execute(&app);
        prop_assert_eq!(&executed_view(&g), &e, "a covering budget is a pure permutation");

        // A smaller budget selects a subset; every selected record is
        // byte-identical to its exhaustive twin.
        if e.injected() > 1 {
            let budget = e.injected() / 2;
            let partial = Session::from_setup(setup.clone()).with_options(CampaignOptions {
                plan_budget: Some(budget),
                ..base
            });
            let p = partial.execute(&app);
            prop_assert!(p.runs_executed() <= budget);
            for record in &p.records {
                let twin = e
                    .records
                    .iter()
                    .find(|r| r.fault_id == record.fault_id && r.site == record.site && r.occurrence == record.occurrence);
                match twin {
                    Some(t) => {
                        let mut r = record.clone();
                        r.cache_hit = false;
                        prop_assert_eq!(t, &r, "budgeted record diverged from its twin");
                    }
                    None => prop_assert!(false, "budgeted record {} is not in the exhaustive plan", record.fault_id),
                }
            }
        }
    }
}

/// Injecting a hand-duplicated fault (same payload, different catalog id)
/// must execute once and replay the duplicate, with identical verdicts on
/// both records.
#[test]
fn duplicate_payloads_within_a_plan_execute_once() {
    let (spec, paths) = build_spec(&[], "report", &[]);
    let app = Walker { files: paths };
    let setup = spec.materialize().unwrap();
    // Pruning stays off, as by default: this test isolates in-plan replay,
    // and the analyzer may prove the chosen fault inert (which would
    // synthesize both records). In-plan replay goes through a cache, so the
    // session names one.
    let session = Session::from_setup(setup).with_result_cache(ResultCache::new());

    let mut plan = session.plan(&app);
    let site_idx = plan
        .sites
        .iter()
        .position(|s| !s.faults.is_empty())
        .expect("walker has perturbable sites");
    let site = &mut plan.sites[site_idx];
    let mut renamed = site.faults[0].clone();
    renamed.id = format!("{}#duplicate", renamed.id);
    renamed.description = "same perturbation under another catalog name".to_string();
    site.faults.push(renamed.clone());

    let report = session.execute_plan(&app, &plan);
    assert_eq!(report.cache_hits(), 1, "the duplicate must replay, not re-execute");
    assert_eq!(report.runs_executed(), report.injected() - 1);
    let twin: Vec<_> = report
        .records
        .iter()
        .filter(|r| {
            r.fault_id
                .starts_with(&plan.sites.iter().find(|s| !s.faults.is_empty()).unwrap().faults[0].id)
        })
        .collect();
    assert_eq!(twin.len(), 2);
    assert_eq!(
        twin[0].violations, twin[1].violations,
        "replayed verdicts are byte-identical"
    );
    assert_eq!(twin[0].exit, twin[1].exit);
    assert!(!twin[0].cache_hit && twin[1].cache_hit);

    // The plan cut down to the fault and its duplicate. Cache replays are
    // free, so a budget of one run over a cache still delivers both
    // records; with no cache both execute.
    for (i, site) in plan.sites.iter_mut().enumerate() {
        if i == site_idx {
            site.occurrences = 1;
            site.faults.truncate(1);
            site.faults.push(renamed.clone());
        } else {
            site.faults.clear();
        }
    }
    assert_eq!(plan.jobs().len(), 2);
    let run = |options: CampaignOptions| session.clone().with_options(options).execute_plan(&app, &plan);
    let budgeted = run(CampaignOptions {
        plan_budget: Some(1),
        cache: Some(ResultCache::new()),
        ..Default::default()
    });
    assert_eq!(budgeted.injected(), 2, "the spent budget still replays the duplicate");
    assert_eq!((budgeted.runs_executed(), budgeted.cache_hits()), (1, 1));
    assert_eq!(budgeted.records[0].violations, budgeted.records[1].violations);
    let exhaustive = run(CampaignOptions::default());
    assert_eq!((exhaustive.runs_executed(), exhaustive.cache_hits()), (2, 0));
    assert_eq!(exhaustive.records[0].violations, exhaustive.records[1].violations);
}

/// Two registrations of the same application over the same (independently
/// materialized) world spec share a memoization scope: a one-worker suite
/// over a cache replays the whole second campaign from the first one's
/// runs — the fingerprint is content-addressed, not pointer identity.
#[test]
fn suite_replays_identical_campaigns_from_the_shared_cache() {
    use epa::apps::Lpr;
    let mut suite = Suite::new().with_result_cache(ResultCache::new());
    suite.register(Lpr, &epa::apps::lpr::spec()).unwrap();
    suite.register(Lpr, &epa::apps::lpr::spec()).unwrap();
    let report = suite.with_workers(1).execute();
    assert_eq!(report.reports.len(), 2);
    assert_eq!(report.reports[0].cache_hits(), 0);
    assert_eq!(
        report.reports[1].cache_hits(),
        report.reports[1].injected() - report.reports[1].pruned(),
        "the second identical campaign must replay every executed run"
    );
    assert_eq!(report.reports[1].pruned(), report.reports[0].pruned());
    assert_eq!(executed_view(&report.reports[1]), executed_view(&report.reports[0]));
}

/// Two passes of one standard suite over one cache: the second replays
/// every run from the suite's memo, and both find exactly what two passes
/// of fresh cache-less suites find.
#[test]
fn a_second_standard_suite_pass_replays_from_the_memo() {
    let suite = epa::apps::standard_suite()
        .expect("valid specs")
        .with_result_cache(ResultCache::new());
    let memo = [suite.execute(), suite.execute()];
    let exhaustive = || epa::apps::standard_suite().expect("valid specs").execute();
    let cold = [exhaustive(), exhaustive()];
    assert_eq!(memo[1].total_runs_executed(), 0, "the second pass replays");
    assert!(memo[1].total_cache_hits() > 0);
    let runs = |passes: &[SuiteReport; 2]| passes.iter().map(SuiteReport::total_runs_executed).sum::<usize>();
    assert!(runs(&memo) < runs(&cold), "the memo must save runs");
    let stripped = |pass: &SuiteReport| pass.reports.iter().map(executed_view).collect::<Vec<_>>();
    for (m, c) in memo.iter().zip(&cold) {
        assert_eq!(stripped(m), stripped(c), "a memoized pass lost or invented a verdict");
    }
}

/// A cache is opt-in, and the standard suite has no duplicate to replay:
/// with no cache and with a fresh one it gives identical reports,
/// provenance flags included, at 1 and 2 workers — 245 runs executed, 0
/// pruned (static pruning is off by default), 0 cache hits.
#[test]
fn the_standard_suite_reports_the_same_with_and_without_a_cache() {
    for workers in [1, 2] {
        let suite = || epa::apps::standard_suite().expect("valid specs").with_workers(workers);
        let uncached = suite().execute();
        let cached = suite().with_result_cache(ResultCache::new()).execute();
        assert_eq!(uncached, cached, "{workers} workers");
        let counts = (
            uncached.total_runs_executed(),
            uncached.total_pruned(),
            uncached.total_cache_hits(),
        );
        assert_eq!(counts, (245, 0, 0), "{workers} workers");
    }
}

/// `plan_budget` caps executed runs, and cache replays are free: when a
/// second registration of the same campaign replays the first one's claims
/// from the suite-scoped cache, it still executes its own full budget.
#[test]
fn a_budget_spends_only_on_executed_runs_in_a_shared_suite() {
    use epa::apps::Lpr;
    let mut suite = Suite::new().with_result_cache(ResultCache::new());
    for _ in 0..2 {
        let session = Session::new(&epa::apps::lpr::spec())
            .unwrap()
            .with_options(CampaignOptions {
                plan_budget: Some(3),
                ..Default::default()
            });
        suite.register_session(Lpr, session);
    }
    let report = suite.with_workers(1).execute();
    for (i, campaign) in report.reports.iter().enumerate() {
        assert_eq!(
            campaign.runs_executed(),
            3,
            "registration {i} executes its whole budget"
        );
    }
    assert!(
        report.reports[1].cache_hits() > 0,
        "the second registration replays the first's runs"
    );
}

/// The paper's §3.4 numbers, pinned through every planner path: memoized
/// replay, the covering budget, and a half budget (every create-site fault
/// violates, so even the pruned campaign reports violations only).
#[test]
fn lpr_numbers_pin_through_the_planner_paths() {
    use epa::apps::{lpr, Lpr};
    use epa::sandbox::trace::SiteId;
    use std::collections::BTreeSet;

    let mut filter = BTreeSet::new();
    filter.insert(SiteId::new("lpr:create_spool"));
    let base = CampaignOptions {
        site_filter: Some(filter),
        ..Default::default()
    };
    let setup = lpr::spec().materialize().unwrap();

    // Memoized: the warmed pass replays all four runs and keeps 4/4.
    let cache = ResultCache::new();
    let session = Session::from_setup(setup.clone())
        .with_options(base.clone())
        .with_result_cache(cache);
    let first = session.execute(&Lpr);
    assert_eq!(first.injected(), 4, "existence, ownership, permission, symbolic link");
    assert_eq!(first.violated(), 4, "paper: violations detected for attributes 1-4");
    let replayed = session.execute(&Lpr);
    assert_eq!(replayed.violated(), 4);
    assert_eq!(replayed.runs_executed(), 0);
    assert_eq!(executed_view(&replayed), executed_view(&first));

    // Budgeted: a covering budget keeps 4/4; half the budget still finds
    // violations on every executed run.
    let covering = Session::from_setup(setup.clone()).with_options(CampaignOptions {
        plan_budget: Some(4),
        ..base.clone()
    });
    let c = covering.execute(&Lpr);
    assert_eq!((c.injected(), c.violated()), (4, 4));
    let half = Session::from_setup(setup).with_options(CampaignOptions {
        plan_budget: Some(2),
        ..base
    });
    let h = half.execute(&Lpr);
    assert_eq!((h.runs_executed(), h.violated()), (2, 2));
}
