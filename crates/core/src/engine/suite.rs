//! Suites: many `(application, world)` pairs executed as one batch.
//!
//! A [`Suite`] registers applications with their [`WorldSpec`]s (or
//! pre-built [`Session`]s) and executes every campaign in one call. All
//! planning and injected runs across every registered application flow
//! through **one suite-wide [`Executor`] queue** (worker count bounded by
//! the hardware — no per-application thread fan-out, no oversubscription).
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
    /// before any of its records, from both the sequential and the pooled
    /// paths, so streaming consumers can render per-app progress).
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
    sequential: bool,
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

    /// Runs the campaigns one at a time on the calling thread instead of
    /// fanning out (deterministic event order; useful for debugging).
    #[must_use]
    pub fn sequential(mut self) -> Suite {
        self.sequential = true;
        self
    }

    /// Pins the pooled path to an explicit worker count instead of the
    /// hardware/`EPA_WORKERS` default — how benches and the determinism
    /// tests measure 1/4/8-worker throughput on arbitrary machines.
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
    /// `available_parallelism` workers (unless [`Suite::sequential`], which
    /// runs everything inline on the calling thread); the returned report
    /// is always in registration order and byte-identical between the two
    /// paths.
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

        if self.sequential {
            let mut reports = Vec::with_capacity(self.entries.len());
            for (entry, campaign) in self.entries.iter().zip(&campaigns) {
                let name = entry.app.name().to_string();
                on_event(SuiteEvent::AppStarted { app: name.clone() });
                let plan = campaign.plan();
                let report = campaign.execute_plan_with(&plan, &mut |r| {
                    on_event(SuiteEvent::Record {
                        app: name.clone(),
                        record: r.clone(),
                    });
                });
                on_event(SuiteEvent::AppFinished {
                    app: name,
                    report: report.clone(),
                });
                reports.push(report);
            }
            return SuiteReport { reports };
        }

        // The pooled path: one shared queue for the whole suite. Each
        // application contributes a planning job, which whichever thread
        // pops it (a spawned worker or the calling thread, worker 0) runs
        // end to end: the clean run and fault plan, then the schedule —
        // scope fingerprint, canonical keys, dedup, cache/store lookups and
        // static pruning of the misses. Back on the calling thread its pruned and
        // cache-resolved records (and their aliases) replay, and only the
        // remaining canonical misses fan back onto the same queue, so idle
        // workers steal across application boundaries and the slowest
        // campaign no longer pins a whole thread. A budgeted campaign
        // enqueues one job at a time (each pick feeds on the previous
        // outcome) while other campaigns keep the workers busy.
        for entry in &self.entries {
            on_event(SuiteEvent::AppStarted {
                app: entry.app.name().to_string(),
            });
        }
        let mut slots: Vec<AppSlot> = (0..self.entries.len()).map(|_| AppSlot::default()).collect();
        let seed: Vec<SuiteJob> = (0..self.entries.len()).map(SuiteJob::Plan).collect();
        let executor = match self.workers {
            Some(w) => Executor::with_workers(w),
            None => Executor::new(),
        };
        executor.run_expanding(
            seed,
            |job| match job {
                SuiteJob::Plan(app) => {
                    let plan = campaigns[app].plan();
                    let jobs = plan.jobs();
                    let schedule = campaigns[app].schedule(&jobs);
                    SuiteDone::Planned {
                        app,
                        plan: Box::new(plan),
                        jobs,
                        schedule,
                    }
                }
                SuiteJob::Inject { app, idx, plan, key } => SuiteDone::Ran {
                    app,
                    idx,
                    // Claim-aware: when several suites share one cache, a
                    // run another suite is executing right now is waited
                    // out and replayed instead of duplicated.
                    record: campaigns[app].run_job_keyed(&plan, &key),
                },
            },
            &mut |done| match done {
                SuiteDone::Planned {
                    app,
                    plan,
                    jobs,
                    schedule,
                } => {
                    let name = self.entries[app].app.name();
                    let slot = &mut slots[app];
                    slot.records = (0..jobs.len()).map(|_| None).collect();
                    slot.budget_left = campaigns[app].plan_budget();
                    slot.budgeted = slot.budget_left.is_some();
                    slot.remaining = schedule.pending.clone();
                    slot.plan = Some(plan);
                    // Statically pruned jobs (and their aliases) replay
                    // their synthesized clean-run digests.
                    for (idx, digest) in &schedule.pruned {
                        for &i in std::iter::once(idx).chain(schedule.aliases_of(*idx)) {
                            slot.file(name, i, digest.replay_pruned(&jobs[i]), on_event);
                        }
                    }
                    // Cache replays (and their aliases).
                    for (idx, digest) in &schedule.resolved {
                        for &i in std::iter::once(idx).chain(schedule.aliases_of(*idx)) {
                            slot.file(name, i, digest.replay(&jobs[i]), on_event);
                        }
                    }
                    slot.jobs = jobs;
                    slot.schedule = Some(schedule);
                    let follow_ups = slot.enqueue_next(app);
                    if slot.idle() {
                        finish_app(&campaigns[app], name, slot, on_event);
                    }
                    follow_ups
                }
                SuiteDone::Ran { app, idx, record } => {
                    let name = self.entries[app].app.name();
                    let slot = &mut slots[app];
                    let schedule = slot.schedule.as_ref().expect("schedule arrives before its records");
                    let aliases = schedule.aliases_of(idx).to_vec();
                    // The claim that executed this run already published
                    // its digest to the cache (and any store); only the
                    // plan's own aliases still need it.
                    let digest = (!aliases.is_empty()).then(|| RunDigest::of(&record));
                    slot.file(name, idx, record, on_event);
                    if let Some(digest) = digest {
                        for alias in aliases {
                            let replay = digest.replay(&slot.jobs[alias]);
                            on_event(SuiteEvent::Record {
                                app: name.to_string(),
                                record: replay.clone(),
                            });
                            slot.records[alias] = Some(replay);
                        }
                    }
                    slot.outstanding -= 1;
                    let follow_ups = slot.enqueue_next(app);
                    if slot.idle() {
                        finish_app(&campaigns[app], name, slot, on_event);
                    }
                    follow_ups
                }
            },
        );
        SuiteReport {
            reports: slots
                .into_iter()
                .map(|s| s.report.expect("every campaign completes"))
                .collect(),
        }
    }
}

/// One unit of suite work on the shared queue.
enum SuiteJob {
    /// Trace application `app`, build its fault plan, and schedule it.
    Plan(usize),
    /// Run injection job `idx` of application `app`'s plan, claiming it
    /// under the canonical key its schedule already computed.
    Inject {
        app: usize,
        idx: usize,
        plan: InjectionPlan,
        key: FaultKey,
    },
}

/// A completed unit of suite work, back on the calling thread.
enum SuiteDone {
    Planned {
        app: usize,
        plan: Box<CampaignPlan>,
        jobs: Vec<InjectionPlan>,
        schedule: Schedule,
    },
    Ran {
        app: usize,
        idx: usize,
        record: FaultRecord,
    },
}

/// Per-application assembly state while the pooled suite runs.
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
    /// Whether a budget was ever in force (a budget may legitimately leave
    /// record slots empty; an unbudgeted campaign must fill every one).
    budgeted: bool,
    stats: YieldStats,
    report: Option<CampaignReport>,
}

impl AppSlot {
    /// Streams one finished record, counts it toward the verdict yield, and
    /// files it at its plan position.
    fn file(&mut self, app: &str, idx: usize, record: FaultRecord, on_event: &mut dyn FnMut(SuiteEvent)) {
        self.stats.observe(record.category, !record.tolerated());
        on_event(SuiteEvent::Record {
            app: app.to_string(),
            record: record.clone(),
        });
        self.records[idx] = Some(record);
    }

    /// Moves schedulable canonical jobs from `remaining` onto the shared
    /// queue: all of them in plan order (exhaustive), or exactly one chosen
    /// by observed verdict yield (budgeted — each pick feeds on the
    /// previous outcome, so at most one of this campaign's jobs is in
    /// flight while other campaigns keep the workers busy).
    fn enqueue_next(&mut self, app: usize) -> Vec<SuiteJob> {
        match self.budget_left {
            None => {
                let drained = std::mem::take(&mut self.remaining);
                self.outstanding += drained.len();
                drained.into_iter().map(|idx| self.inject(app, idx)).collect()
            }
            Some(0) => {
                self.remaining.clear();
                Vec::new()
            }
            Some(ref mut budget) => {
                if self.remaining.is_empty() || self.outstanding > 0 {
                    return Vec::new();
                }
                *budget -= 1;
                let pos = self.stats.pick(&self.remaining, &self.jobs);
                let idx = self.remaining.remove(pos);
                self.outstanding = 1;
                vec![self.inject(app, idx)]
            }
        }
    }

    /// The queue job executing canonical job `idx`.
    fn inject(&self, app: usize, idx: usize) -> SuiteJob {
        let schedule = self.schedule.as_ref().expect("jobs are enqueued after scheduling");
        SuiteJob::Inject {
            app,
            idx,
            plan: self.jobs[idx].clone(),
            key: schedule.key(idx).clone(),
        }
    }

    /// True once planning happened, nothing is in flight, and nothing more
    /// will be enqueued — i.e. the campaign is ready to fold into a report.
    fn idle(&self) -> bool {
        self.schedule.is_some() && self.outstanding == 0 && self.remaining.is_empty() && self.report.is_none()
    }
}

/// Folds a finished application's records (already in plan order by index)
/// into its report and emits `AppFinished`.
fn finish_app(campaign: &Campaign<'_>, name: &str, slot: &mut AppSlot, on_event: &mut dyn FnMut(SuiteEvent)) {
    let plan = slot.plan.take().expect("plan arrives before its records");
    // Only a budget may legitimately drop jobs; an unbudgeted campaign
    // missing a record is an accounting bug and must fail loudly, not
    // silently truncate the report.
    let records: Vec<FaultRecord> = if slot.budgeted {
        slot.records.drain(..).flatten().collect()
    } else {
        slot.records
            .drain(..)
            .map(|r| r.expect("all records complete before the app finishes"))
            .collect()
    };
    let report = campaign.report_from(&plan, records);
    on_event(SuiteEvent::AppFinished {
        app: name.to_string(),
        report: report.clone(),
    });
    slot.report = Some(report);
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
