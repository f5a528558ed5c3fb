//! Suites: many `(application, world)` pairs executed as one batch, and
//! the driver every campaign runs through.
//!
//! A [`Suite`] registers applications with their [`WorldSpec`]s (or
//! pre-built [`Session`]s) and executes every campaign in one call. The
//! campaign is the unit of work: each is **one item of one suite-wide
//! [`Executor::map`]** (worker count bounded by the hardware — no
//! per-application thread fan-out, no oversubscription), and the thread
//! that takes it plans the campaign, runs every injected job against the
//! same pristine world and files the records in plan order. That driver,
//! `drive`, is the engine's only execution path: a [`Session`] runs its
//! campaign as a one-app suite, and "sequential" is the same driver at one
//! worker. The finished reports aggregate into a [`SuiteReport`] with
//! cross-application coverage rollups, following the
//! suite-level adequacy view of Dass & Siami Namin ("Vulnerability Coverage
//! as an Adequacy Testing Criterion"): the unit of adequacy is the whole
//! scenario suite, not a single program.

use shim_sync::sync::Arc;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use epa_sandbox::app::Application;

use crate::campaign::{Campaign, PlanTally};
use crate::coverage::{AdequacyPoint, Ratio};
use crate::engine::executor::Executor;
use crate::engine::planner::{FaultKey, Provenance, ResultCache};
use crate::engine::session::Session;
use crate::engine::spec::{SpecError, WorldSpec};
use crate::inject::InjectionPlan;
use crate::report::{CampaignReport, FaultRecord};

/// An application paired with its frozen session.
struct SuiteEntry {
    app: Arc<dyn Application + Send + Sync>,
    session: Session,
}

/// A batch of `(application, world)` campaigns executed together.
#[derive(Default)]
pub struct Suite {
    entries: Vec<SuiteEntry>,
    cache: Option<ResultCache>,
    workers: Option<usize>,
}

impl Suite {
    /// An empty suite with no result cache: each [`Suite::execute`] runs
    /// every planned job (static pruning is off unless a session's
    /// [`crate::campaign::CampaignOptions::static_prune`] turns it on), and
    /// builds no fault key. Memoization is opt-in:
    /// [`Suite::with_result_cache`] or [`Suite::with_store`].
    pub fn new() -> Suite {
        Suite::default()
    }

    /// Installs a suite-scoped result cache in every campaign whose session
    /// carries none. Equal runs then execute once: within a campaign,
    /// across the suite's campaigns, across repeated [`Suite::execute`]
    /// calls, and across every suite handed the same cache. Any run whose
    /// `(setup fingerprint, FaultKey)` was executed before is replayed
    /// instead of re-executed.
    #[must_use]
    pub fn with_result_cache(mut self, cache: ResultCache) -> Suite {
        self.cache = Some(cache);
        self
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
    /// memoization scope, the plan size, and every distinct executable
    /// store key, in plan order — the exact entries a complete warm run
    /// needs (see [`crate::store::SuiteManifest::verify`]). Jobs the static
    /// analysis prunes are excluded: their synthesized digests are never
    /// saved. It reads no cache or store, and planning is deterministic, so
    /// the manifest of a suite equals the manifest of its execution.
    pub fn manifest(&self) -> crate::store::SuiteManifest {
        use crate::store::{AppManifest, ManifestKey, SuiteManifest, MANIFEST_VERSION};
        let apps = self
            .entries
            .iter()
            .map(|e| {
                let mut campaign = e.session.campaign(e.app.as_ref() as &dyn Application);
                // Uncached, the schedule's pending jobs are exactly the
                // jobs the analysis does not prune.
                campaign.options.cache = None;
                let (_, jobs) = campaign.plan().into_jobs();
                let schedule = campaign.schedule(&jobs);
                let mut seen = std::collections::BTreeSet::new();
                let keys = schedule
                    .pending
                    .iter()
                    .map(|&i| FaultKey::of(&jobs[i]))
                    .filter(|key| seen.insert(key.clone()))
                    .map(|key| ManifestKey {
                        digest: format!("{key}"),
                        key: key.repr().to_string(),
                    })
                    .collect();
                AppManifest {
                    app: e.app.name().to_string(),
                    scope: format!("{:016x}", campaign.scope()),
                    jobs: jobs.len(),
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

    /// Executes every registered campaign and returns the report. Each
    /// campaign is one item of **one suite-wide [`Executor::map`]** bounded
    /// by `available_parallelism` workers (or [`Suite::with_workers`]), and
    /// never more workers than campaigns: the worker that takes a campaign
    /// plans it and runs all of its injected jobs, so a suite keeps every
    /// worker busy while it has at least as many campaigns as workers. The
    /// report is in registration order and byte-identical at every worker
    /// count.
    pub fn execute(&self) -> SuiteReport {
        // Every campaign plans and executes through its session's result
        // cache, or else the suite's, if either has one.
        let campaigns: Vec<Campaign<'_>> = self
            .entries
            .iter()
            .map(|e| {
                let mut campaign = e.session.campaign(e.app.as_ref() as &dyn Application);
                campaign.options.cache = campaign.options.cache.take().or_else(|| self.cache.clone());
                campaign
            })
            .collect();
        let executor = self.workers.map_or_else(Executor::new, Executor::with_workers);
        let finished = drive(&executor, &campaigns, vec![None; campaigns.len()]);
        SuiteReport {
            reports: campaigns
                .iter()
                .zip(finished)
                .map(|(campaign, (tally, records))| {
                    campaign.report_from(&tally.expect("suite campaigns plan on the pool"), records)
                })
                .collect(),
        }
    }
}

/// The one execution path: one item per campaign of one
/// [`Executor::map`]. A [`Suite`] drives all its campaigns at once; a
/// [`Session`] drives one, as a one-app suite.
///
/// `jobs[app]` is `None` to trace and plan campaign `app` on the pool, or
/// the job list of a pre-built plan to run. Whichever thread takes a
/// campaign does all of that campaign's work: it builds the schedule
/// (under a cache, canonical keys and cache and store lookups; then static
/// pruning of the misses) and then files every record in plan order. A
/// pruned or cache-resolved job replays its digest; every pending job runs
/// there and then, on the same thread. Each record is built by
/// [`crate::engine::planner::RunDigest::into_record`] with its provenance.
/// Under a cache, a pending job runs through the cache's claim, so equal
/// keys execute once across campaigns and suites. A claim is held only
/// while its own run executes, so no job waits on a claim while holding
/// one; it settles in the cache at once, and the campaign's executed runs
/// reach the cache's store together, in one write after its last record.
/// Without a cache, each pending job runs.
///
/// Returns one `(tally, records)` per campaign, in `campaigns` order:
/// `tally` is what the report reads of the plan built on the pool (`None`
/// when the caller handed over a job list); `records` are the whole plan,
/// in plan order.
pub(crate) fn drive(
    executor: &Executor,
    campaigns: &[Campaign<'_>],
    jobs: Vec<Option<Vec<InjectionPlan>>>,
) -> Vec<(Option<PlanTally>, Vec<FaultRecord>)> {
    executor.map(campaigns.iter().zip(jobs).collect(), |(campaign, jobs)| {
        run_campaign(campaign, jobs)
    })
}

/// One campaign's item of the driver's map: plan it when no job list was
/// handed over, schedule it, and build every record in plan order.
fn run_campaign(campaign: &Campaign<'_>, jobs: Option<Vec<InjectionPlan>>) -> (Option<PlanTally>, Vec<FaultRecord>) {
    let (tally, jobs) = match jobs {
        Some(jobs) => (None, jobs),
        None => {
            let (tally, jobs) = campaign.plan().into_jobs();
            (Some(tally), jobs)
        }
    };
    let mut schedule = campaign.schedule(&jobs);
    // The injection hook shares the list instead of copying its job.
    let jobs: Arc<[InjectionPlan]> = jobs.into();
    // Replays and pending jobs partition the plan, each in plan order: a
    // job that does not replay is pending.
    let mut replays = std::mem::take(&mut schedule.replays).into_iter().peekable();
    let mut unsaved = Vec::new();
    let records = (0..jobs.len())
        .map(|idx| match replays.next_if(|&(i, ..)| i == idx) {
            Some((_, provenance, digest)) => digest.into_record(&jobs[idx], provenance),
            // Claim-aware: when several suites share one cache, a run
            // another suite is executing right now is waited out and
            // replayed instead of duplicated.
            None => match schedule.key(idx) {
                Some(key) => campaign.run_job_keyed(&jobs, idx, key, &mut unsaved),
                // No cache, so no key and no claim: the job runs.
                None => campaign
                    .run_job(&jobs, idx)
                    .into_record(&jobs[idx], Provenance::Executed),
            },
        })
        .collect();
    campaign.write_through(&unsaved);
    (tally, records)
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

    /// Total records replayed from the planner's result cache across the
    /// suite.
    pub fn total_cache_hits(&self) -> usize {
        self.reports.iter().map(CampaignReport::cache_hits).sum()
    }

    /// Total runs that actually executed across the suite — the planner's
    /// headline number: `total_injected - total_cache_hits -
    /// total_pruned`, never more than the exhaustive plan size.
    pub fn total_runs_executed(&self) -> usize {
        self.reports.iter().map(CampaignReport::runs_executed).sum()
    }

    /// Total records synthesized by static pruning across the suite.
    pub fn total_pruned(&self) -> usize {
        self.reports.iter().map(CampaignReport::pruned).sum()
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
        let mut counts = BTreeMap::new();
        for report in &self.reports {
            report.tally_categories(&mut counts);
        }
        crate::report::named_categories(counts)
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
        let _ = writeln!(
            s,
            "  runs executed: {}   replayed from cache: {}   statically pruned: {}",
            self.total_runs_executed(),
            self.total_cache_hits(),
            self.total_pruned()
        );
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
            description: "".into(),
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
        // Nothing replayed or pruned: the line still counts the runs.
        assert!(text.contains("runs executed: 4   replayed from cache: 0   statically pruned: 0"));
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
        assert!(
            text.contains("runs executed: 2   replayed from cache: 1   statically pruned: 0"),
            "{text}"
        );
        // A pruned record is counted apart: it never ran.
        let mut b = report("b", vec![record(false), record(false)]);
        b.records[0].pruned = true;
        let pruned = SuiteReport { reports: vec![b] };
        assert_eq!((pruned.total_pruned(), pruned.total_runs_executed()), (1, 1));
        let text = pruned.render_text();
        assert!(
            text.contains("runs executed: 1   replayed from cache: 0   statically pruned: 1"),
            "{text}"
        );
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
