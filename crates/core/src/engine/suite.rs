//! Suites: many `(application, world)` pairs executed as one batch, and
//! the driver every campaign runs through.
//!
//! A [`Suite`] registers applications with their [`WorldSpec`]s (or
//! pre-built [`Session`]s) and executes every campaign in one call. All
//! planning and injected runs across every registered application flow
//! through **one suite-wide [`Executor`] queue** (worker count bounded by
//! the hardware — no per-application thread fan-out, no oversubscription).
//! That queue's Plan → Inject state machine, `drive`, is the engine's
//! only execution path: a [`Session`] runs its campaign as a one-app
//! suite, and "sequential" is the same driver at one worker.
//! Results stream out as [`SuiteEvent`]s the moment they are produced —
//! `AppStarted` markers first, per-fault records as they complete, one
//! finished report per application after — and aggregate into a
//! [`SuiteReport`] with cross-application coverage rollups, following the
//! suite-level adequacy view of Dass & Siami Namin ("Vulnerability Coverage
//! as an Adequacy Testing Criterion"): the unit of adequacy is the whole
//! scenario suite, not a single program.

use shim_sync::sync::Arc;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use epa_sandbox::app::Application;

use crate::campaign::{Campaign, CampaignPlan};
use crate::coverage::{AdequacyPoint, Ratio};
use crate::engine::executor::Executor;
use crate::engine::planner::{FaultKey, ResultCache, RunDigest, Schedule, YieldStats};
use crate::engine::session::Session;
use crate::engine::spec::{SpecError, WorldSpec};
use crate::inject::InjectionPlan;
use crate::report::{CampaignReport, FaultRecord};

/// An application paired with its frozen session.
struct SuiteEntry {
    app: Arc<dyn Application + Send + Sync>,
    session: Session,
}

/// One streamed suite result.
///
/// `#[non_exhaustive]`: the event stream grows with the engine (as
/// `AppStarted` did); downstream matches need a wildcard arm so new
/// variants are non-breaking.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SuiteEvent {
    /// One application's campaign entered the suite-wide queue (emitted
    /// before any of its records, at every worker count, so streaming
    /// consumers can render per-app progress).
    AppStarted {
        /// The application under test.
        app: String,
    },
    /// One injected run finished (streamed in completion order).
    Record {
        /// The application under test.
        app: String,
        /// The fault's outcome.
        record: FaultRecord,
    },
    /// One application's whole campaign finished.
    AppFinished {
        /// The application under test.
        app: String,
        /// Its full report.
        report: CampaignReport,
    },
}

/// A batch of `(application, world)` campaigns executed together.
#[derive(Default)]
pub struct Suite {
    entries: Vec<SuiteEntry>,
    cache: ResultCache,
    workers: Option<usize>,
}

impl Suite {
    /// An empty suite with a fresh suite-scoped [`ResultCache`].
    pub fn new() -> Suite {
        Suite::default()
    }

    /// Replaces the suite-scoped result cache — hand the same cache to
    /// several suites (or keep it across repeated [`Suite::execute`] calls;
    /// the default cache already persists for the suite's lifetime) for
    /// cross-run memoization: any run whose `(setup fingerprint, FaultKey)`
    /// was executed before is replayed instead of re-executed.
    #[must_use]
    pub fn with_result_cache(mut self, cache: ResultCache) -> Suite {
        self.cache = cache;
        self
    }

    /// The suite-scoped result cache (e.g. for
    /// [`crate::engine::planner::ResultCache::stats`]).
    pub fn result_cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Layers the suite's result cache over a persistent
    /// [`crate::store::ResultStore`] backend: shorthand for
    /// [`Suite::with_result_cache`] with
    /// [`ResultCache::with_store`]. A warm backend turns the whole suite
    /// run into replays — zero executed jobs.
    #[must_use]
    pub fn with_store(self, store: Arc<dyn crate::store::ResultStore>) -> Suite {
        self.with_result_cache(ResultCache::with_store(store))
    }

    /// The lockfile-style manifest of this suite: per application, the
    /// memoization scope, the plan size, and every canonical executable
    /// store key — the exact entries a complete warm run needs (see
    /// [`crate::store::SuiteManifest::verify`]). Jobs the schedule prunes
    /// are excluded: they replay from synthesized digests, which are never
    /// saved to the store. Planning is deterministic, so the manifest of a
    /// suite equals the manifest of its execution.
    pub fn manifest(&self) -> crate::store::SuiteManifest {
        use crate::store::{AppManifest, ManifestKey, SuiteManifest, MANIFEST_VERSION};
        let apps = self
            .entries
            .iter()
            .map(|e| {
                let mut campaign = e.session.campaign(e.app.as_ref() as &dyn Application);
                campaign.ensure_cache(self.cache.clone());
                let plan = campaign.plan();
                let jobs = plan.jobs();
                let schedule = campaign.schedule(&jobs);
                let pruned: std::collections::BTreeSet<usize> = schedule.pruned.iter().map(|(i, _)| *i).collect();
                let keys = (0..schedule.len())
                    .filter(|&i| schedule.canonical_of(i) == i && !pruned.contains(&i))
                    .map(|i| ManifestKey {
                        digest: format!("{}", schedule.key(i)),
                        key: schedule.key(i).repr().to_string(),
                    })
                    .collect();
                AppManifest {
                    app: e.app.name().to_string(),
                    scope: format!("{:016x}", campaign.scope()),
                    jobs: schedule.len(),
                    keys,
                }
            })
            .collect();
        SuiteManifest {
            version: MANIFEST_VERSION,
            apps,
        }
    }

    /// Registers an application with a declarative world.
    ///
    /// # Errors
    ///
    /// Any [`SpecError`] from materializing the spec.
    pub fn register(
        &mut self,
        app: impl Application + Send + 'static,
        spec: &WorldSpec,
    ) -> Result<&mut Suite, SpecError> {
        let session = Session::new(spec)?;
        Ok(self.register_session(app, session))
    }

    /// Registers an application with a pre-built session.
    pub fn register_session(&mut self, app: impl Application + Send + 'static, session: Session) -> &mut Suite {
        self.entries.push(SuiteEntry {
            app: Arc::new(app),
            session,
        });
        self
    }

    /// Number of registered campaigns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registered application names, in registration order.
    pub fn apps(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.app.name()).collect()
    }

    /// Pins the pool to an explicit worker count instead of the
    /// hardware/`EPA_WORKERS` default — how benches and the determinism
    /// tests measure 1/4/8-worker throughput on arbitrary machines. One
    /// worker runs everything on the calling thread.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Suite {
        self.workers = Some(workers);
        self
    }

    /// Executes every registered campaign, discarding the event stream.
    pub fn execute(&self) -> SuiteReport {
        self.execute_with(&mut |_| {})
    }

    /// Executes every registered campaign, streaming each [`SuiteEvent`] to
    /// `on_event` as it is produced. Every campaign's planning and injected
    /// runs share **one suite-wide [`Executor`] queue** bounded by
    /// `available_parallelism` workers (or [`Suite::with_workers`]); the
    /// returned report is in registration order and byte-identical at
    /// every worker count.
    pub fn execute_with(&self, on_event: &mut dyn FnMut(SuiteEvent)) -> SuiteReport {
        // Every campaign plans and executes through the suite-scoped result
        // cache (unless its session already carries an explicit one).
        let campaigns: Vec<Campaign<'_>> = self
            .entries
            .iter()
            .map(|e| {
                let mut campaign = e.session.campaign(e.app.as_ref() as &dyn Application);
                campaign.ensure_cache(self.cache.clone());
                campaign
            })
            .collect();
        for entry in &self.entries {
            on_event(SuiteEvent::AppStarted {
                app: entry.app.name().to_string(),
            });
        }
        let mut reports: Vec<Option<CampaignReport>> = vec![None; campaigns.len()];
        let executor = self.workers.map_or_else(Executor::new, Executor::with_workers);
        drive(
            &executor,
            &campaigns,
            vec![None; campaigns.len()],
            &mut |app, progress| {
                let name = self.entries[app].app.name().to_string();
                match progress {
                    Progress::Record(record) => on_event(SuiteEvent::Record {
                        app: name,
                        record: record.clone(),
                    }),
                    Progress::Finished { plan, records } => {
                        let plan = plan.expect("suite campaigns plan on the pool");
                        let report = campaigns[app].report_from(&plan, records);
                        on_event(SuiteEvent::AppFinished {
                            app: name,
                            report: report.clone(),
                        });
                        reports[app] = Some(report);
                    }
                }
            },
        );
        SuiteReport {
            reports: reports
                .into_iter()
                .map(|r| r.expect("every campaign completes"))
                .collect(),
        }
    }
}

/// One campaign's progress through [`drive`], reported on the calling
/// thread.
pub(crate) enum Progress<'a> {
    /// One record is in: executed, replayed from the cache, or pruned
    /// (completion order).
    Record(&'a FaultRecord),
    /// The campaign's last record is in. `plan` is the plan built on the
    /// pool (`None` when the caller handed over a job list); `records` are
    /// in plan order, minus any jobs a budget dropped.
    Finished {
        plan: Option<Box<CampaignPlan>>,
        records: Vec<FaultRecord>,
    },
}

/// The one execution path: every campaign's job stream on one
/// [`Executor::run_expanding`] queue. A [`Suite`] drives all its campaigns
/// at once; a [`Session`] drives one, as a one-app suite.
///
/// `jobs[app]` is `None` to trace and plan campaign `app` on the pool, or
/// the job list to run (a pre-built plan's, or one site batch of
/// `Session::execute_until`). Either way a scheduling job, on whichever
/// thread pops it, builds the schedule: canonical keys, dedup, cache and
/// store lookups, then static pruning of the misses. Back on the calling
/// thread its pruned and cache-resolved records (and their aliases) replay,
/// and only the remaining canonical misses fan back onto the same queue, so
/// idle workers steal across campaign boundaries. A budgeted campaign
/// ([`crate::campaign::CampaignOptions::plan_budget`]) enqueues one job at
/// a time, picked by observed verdict yield, and each finished record with
/// `cache_hit == false` spends one unit of its budget.
pub(crate) fn drive(
    executor: &Executor,
    campaigns: &[Campaign<'_>],
    jobs: Vec<Option<Vec<InjectionPlan>>>,
    on_progress: &mut dyn FnMut(usize, Progress<'_>),
) {
    let mut slots: Vec<AppSlot> = campaigns.iter().map(|_| AppSlot::default()).collect();
    let seed: Vec<Job> = jobs
        .into_iter()
        .enumerate()
        .map(|(app, jobs)| Job::Schedule { app, jobs })
        .collect();
    executor.run_expanding(
        seed,
        |job| match job {
            Job::Schedule { app, jobs } => {
                let (plan, jobs) = match jobs {
                    Some(jobs) => (None, jobs),
                    None => {
                        let plan = campaigns[app].plan();
                        let jobs = plan.jobs();
                        (Some(Box::new(plan)), jobs)
                    }
                };
                let schedule = campaigns[app].schedule(&jobs);
                Done::Scheduled {
                    app,
                    plan,
                    jobs,
                    schedule,
                }
            }
            Job::Inject { app, idx, plan, key } => Done::Ran {
                app,
                idx,
                // Claim-aware: when several suites share one cache, a run
                // another suite is executing right now is waited out and
                // replayed instead of duplicated.
                record: campaigns[app].run_job_keyed(&plan, &key),
            },
        },
        &mut |done| {
            let app = match &done {
                Done::Scheduled { app, .. } | Done::Ran { app, .. } => *app,
            };
            let slot = &mut slots[app];
            let mut emit = |record: &FaultRecord| on_progress(app, Progress::Record(record));
            match done {
                Done::Scheduled {
                    plan, jobs, schedule, ..
                } => {
                    slot.records = (0..jobs.len()).map(|_| None).collect();
                    slot.budget_left = campaigns[app].options.plan_budget;
                    slot.remaining = schedule.pending.clone();
                    slot.plan = plan;
                    // Statically pruned jobs replay their synthesized
                    // clean-run digests, cache hits their stored ones (each
                    // with its aliases).
                    for (idx, digest) in &schedule.pruned {
                        for &i in std::iter::once(idx).chain(schedule.aliases_of(*idx)) {
                            slot.file(i, digest.replay_pruned(&jobs[i]), &mut emit);
                        }
                    }
                    for (idx, digest) in &schedule.resolved {
                        for &i in std::iter::once(idx).chain(schedule.aliases_of(*idx)) {
                            slot.file(i, digest.replay(&jobs[i]), &mut emit);
                        }
                    }
                    slot.jobs = jobs;
                    slot.schedule = Some(schedule);
                }
                Done::Ran { idx, record, .. } => {
                    slot.outstanding -= 1;
                    // A claim replay (another thread already executed this
                    // run) is free: only executions spend the budget.
                    if !record.cache_hit {
                        if let Some(budget) = &mut slot.budget_left {
                            *budget -= 1;
                        }
                    }
                    let schedule = slot.schedule.as_ref().expect("schedule arrives before its records");
                    let aliases = schedule.aliases_of(idx).to_vec();
                    // The claim that executed this run already published
                    // its digest to the cache (and any store); only the
                    // plan's own aliases still need it.
                    let digest = (!aliases.is_empty()).then(|| RunDigest::of(&record));
                    slot.file(idx, record, &mut emit);
                    if let Some(digest) = digest {
                        for alias in aliases {
                            let replay = digest.replay(&slot.jobs[alias]);
                            emit(&replay);
                            slot.records[alias] = Some(replay);
                        }
                    }
                }
            }
            let follow_ups = slot.enqueue_next(app);
            if slot.outstanding == 0 && slot.remaining.is_empty() {
                // Only a budget may legitimately drop jobs; an unbudgeted
                // campaign missing a record is an accounting bug and must
                // fail loudly, not silently truncate the report.
                let records: Vec<FaultRecord> = std::mem::take(&mut slot.records).into_iter().flatten().collect();
                assert!(
                    slot.budget_left.is_some() || records.len() == slot.jobs.len(),
                    "all records complete before the campaign finishes"
                );
                let plan = slot.plan.take();
                on_progress(app, Progress::Finished { plan, records });
            }
            follow_ups
        },
    );
}

/// One unit of work on the driver's queue.
enum Job {
    /// Schedule campaign `app`'s jobs, tracing and planning it first when
    /// no job list was handed over.
    Schedule {
        app: usize,
        jobs: Option<Vec<InjectionPlan>>,
    },
    /// Run injection job `idx` of campaign `app`, claiming it under the
    /// canonical key its schedule already computed.
    Inject {
        app: usize,
        idx: usize,
        plan: InjectionPlan,
        key: FaultKey,
    },
}

/// A completed unit of driver work, back on the calling thread.
enum Done {
    Scheduled {
        app: usize,
        plan: Option<Box<CampaignPlan>>,
        jobs: Vec<InjectionPlan>,
        schedule: Schedule,
    },
    Ran {
        app: usize,
        idx: usize,
        record: FaultRecord,
    },
}

/// Per-campaign assembly state while the driver runs.
#[derive(Default)]
struct AppSlot {
    plan: Option<Box<CampaignPlan>>,
    jobs: Vec<InjectionPlan>,
    schedule: Option<Schedule>,
    records: Vec<Option<FaultRecord>>,
    /// Pending canonical job indices not yet handed to the queue.
    remaining: Vec<usize>,
    /// Jobs on the queue (or running) whose results are still due.
    outstanding: usize,
    /// Runs this campaign may still execute (`None` = unbudgeted).
    budget_left: Option<usize>,
    stats: YieldStats,
}

impl AppSlot {
    /// Streams one finished record, counts it toward the verdict yield, and
    /// files it at its plan position.
    fn file(&mut self, idx: usize, record: FaultRecord, emit: &mut dyn FnMut(&FaultRecord)) {
        self.stats.observe(record.category, !record.tolerated());
        emit(&record);
        self.records[idx] = Some(record);
    }

    /// Moves schedulable canonical jobs from `remaining` onto the shared
    /// queue: all of them in plan order (exhaustive), or exactly one chosen
    /// by observed verdict yield (budgeted — each pick feeds on the
    /// previous outcome, so at most one of this campaign's jobs is in
    /// flight while other campaigns keep the workers busy).
    fn enqueue_next(&mut self, app: usize) -> Vec<Job> {
        let idxs = match self.budget_left {
            None => std::mem::take(&mut self.remaining),
            Some(0) => {
                self.remaining.clear();
                Vec::new()
            }
            Some(_) if self.remaining.is_empty() || self.outstanding > 0 => Vec::new(),
            Some(_) => {
                let pos = self.stats.pick(&self.remaining, &self.jobs);
                vec![self.remaining.remove(pos)]
            }
        };
        self.outstanding += idxs.len();
        let schedule = self.schedule.as_ref().expect("jobs are enqueued after scheduling");
        idxs.into_iter()
            .map(|idx| Job::Inject {
                app,
                idx,
                plan: self.jobs[idx].clone(),
                key: schedule.key(idx).clone(),
            })
            .collect()
    }
}

/// The aggregated outcome of a suite run: per-application reports in
/// registration order plus cross-application rollups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteReport {
    /// One campaign report per registered application.
    pub reports: Vec<CampaignReport>,
}

impl SuiteReport {
    /// Looks up one application's report by name.
    pub fn get(&self, app: &str) -> Option<&CampaignReport> {
        self.reports.iter().find(|r| r.app == app)
    }

    /// Total faults injected across the suite.
    pub fn total_injected(&self) -> usize {
        self.reports.iter().map(CampaignReport::injected).sum()
    }

    /// Total violating runs across the suite.
    pub fn total_violated(&self) -> usize {
        self.reports.iter().map(CampaignReport::violated).sum()
    }

    /// Total records replayed from the planner's result cache (or from an
    /// equivalent earlier job of the same plan) across the suite.
    pub fn total_cache_hits(&self) -> usize {
        self.reports.iter().map(CampaignReport::cache_hits).sum()
    }

    /// Total runs that actually executed across the suite — the planner's
    /// headline number: `total_injected - total_cache_hits`, never more
    /// than the exhaustive plan size.
    pub fn total_runs_executed(&self) -> usize {
        self.reports.iter().map(CampaignReport::runs_executed).sum()
    }

    /// Applications whose campaign surfaced at least one violation.
    pub fn vulnerable_apps(&self) -> Vec<&str> {
        self.reports
            .iter()
            .filter(|r| r.violated() > 0)
            .map(|r| r.app.as_str())
            .collect()
    }

    /// Suite-level fault coverage: tolerated / injected over every campaign.
    pub fn fault_coverage(&self) -> Ratio {
        let injected = self.total_injected();
        Ratio::new(injected - self.total_violated(), injected)
    }

    /// Suite-level interaction coverage: perturbed / perturbable sites over
    /// every campaign.
    pub fn interaction_coverage(&self) -> Ratio {
        Ratio::new(
            self.reports.iter().map(|r| r.perturbed_sites).sum(),
            self.reports.iter().map(|r| r.total_sites).sum(),
        )
    }

    /// The suite's aggregate adequacy point (cross-application rollup of
    /// the paper's Figure 2 metric). As with a single campaign, fault
    /// coverage is vacuously true over zero injections but a suite whose
    /// worlds exposed zero perturbable interaction points is
    /// [`crate::coverage::AdequacyRegion::Inadequate`], never Safe.
    pub fn adequacy(&self) -> AdequacyPoint {
        let fault = self.fault_coverage().value_or(1.0);
        match self.interaction_coverage().fraction() {
            Some(interaction) => AdequacyPoint::new(interaction, fault),
            None => AdequacyPoint::vacuous(fault),
        }
    }

    /// Per-category `(injected, violated)` counts rolled up across every
    /// campaign.
    pub fn by_category(&self) -> BTreeMap<String, (usize, usize)> {
        let mut out: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for report in &self.reports {
            for (category, (injected, violated)) in report.by_category() {
                let e = out.entry(category).or_insert((0, 0));
                e.0 += injected;
                e.1 += violated;
            }
        }
        out
    }

    /// A human-readable multi-line summary.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "suite: {} applications   injected: {}   violations: {}",
            self.reports.len(),
            self.total_injected(),
            self.total_violated()
        );
        if self.total_cache_hits() > 0 {
            let _ = writeln!(
                s,
                "  runs executed: {}   replayed from cache: {}",
                self.total_runs_executed(),
                self.total_cache_hits()
            );
        }
        let _ = writeln!(
            s,
            "  interaction coverage: {}   fault coverage: {}",
            self.interaction_coverage(),
            self.fault_coverage()
        );
        let _ = writeln!(
            s,
            "  {:<16} {:>8} {:>10} {:>7}   coverage (interaction, fault)",
            "app", "injected", "violations", "score"
        );
        for r in &self.reports {
            let _ = writeln!(
                s,
                "  {:<16} {:>8} {:>10} {:>7.3}   ({}, {})",
                r.app,
                r.injected(),
                r.violated(),
                r.vulnerability_score(),
                r.interaction_coverage(),
                r.fault_coverage()
            );
        }
        let _ = writeln!(s, "  per-category rollup:");
        for (category, (injected, violated)) in self.by_category() {
            let _ = writeln!(s, "    {category:<28} {injected:>4} injected  {violated:>3} violations");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{EaiCategory, IndirectKind};

    fn record(violated: bool) -> FaultRecord {
        FaultRecord {
            site: "s".into(),
            occurrence: 0,
            fault_id: "f".into(),
            category: EaiCategory::Indirect(IndirectKind::UserInput),
            description: String::new(),
            applied: true,
            exit: Some(0),
            crashed: None,
            audit_events: 1,
            cache_hit: false,
            pruned: false,
            violations: if violated {
                vec![epa_sandbox::policy::Verdict::from_violation(
                    epa_sandbox::policy::Violation::new(
                        epa_sandbox::policy::ViolationKind::Disclosure,
                        "R2",
                        "leak",
                        0,
                    ),
                )]
            } else {
                Vec::new()
            },
        }
    }

    fn report(app: &str, records: Vec<FaultRecord>) -> CampaignReport {
        CampaignReport {
            app: app.into(),
            total_sites: 4,
            perturbed_sites: 2,
            clean_violations: 0,
            records,
        }
    }

    #[test]
    fn rollups_aggregate_across_reports() {
        let suite = SuiteReport {
            reports: vec![
                report("a", vec![record(true), record(false)]),
                report("b", vec![record(false), record(false)]),
            ],
        };
        assert_eq!(suite.total_injected(), 4);
        assert_eq!(suite.total_violated(), 1);
        assert_eq!(suite.vulnerable_apps(), vec!["a"]);
        assert_eq!(suite.fault_coverage().fraction(), Some(0.75));
        assert_eq!(suite.interaction_coverage().fraction(), Some(0.5));
        let by_cat = suite.by_category();
        assert_eq!(by_cat.len(), 1);
        assert_eq!(by_cat.values().next(), Some(&(4usize, 1usize)));
        assert!(suite.get("b").is_some());
        assert!(suite.get("zzz").is_none());
        let text = suite.render_text();
        assert!(text.contains("suite: 2 applications"));
        assert!(text.contains("per-category rollup"));
    }

    #[test]
    fn cache_rollups_count_replays() {
        let mut a = report("a", vec![record(true), record(false)]);
        a.records[1].cache_hit = true;
        let suite = SuiteReport {
            reports: vec![a, report("b", vec![record(false)])],
        };
        assert_eq!(suite.total_injected(), 3);
        assert_eq!(suite.total_cache_hits(), 1);
        assert_eq!(suite.total_runs_executed(), 2);
        let text = suite.render_text();
        assert!(text.contains("runs executed: 2   replayed from cache: 1"), "{text}");
    }

    #[test]
    fn empty_suite_rolls_up_vacuous_not_safe() {
        use crate::coverage::{AdequacyRegion, AdequacyThresholds};
        let suite = SuiteReport { reports: vec![] };
        assert_eq!(suite.interaction_coverage().fraction(), None);
        let point = suite.adequacy();
        assert!(point.vacuous);
        assert_eq!(point.region(AdequacyThresholds::default()), AdequacyRegion::Inadequate);
        let text = suite.render_text();
        assert!(text.contains("0/0 (n/a)"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }
}
