//! The testing procedure of paper §3.3, as an engine.
//!
//! A campaign — run through [`crate::engine::Session`] for one
//! application or [`crate::engine::Suite`] for many — takes an application,
//! a pristine world, and options, then:
//!
//! 1. runs the application unperturbed and records the execution trace
//!    (steps 1–3: enumerate interaction points and whether they take input);
//! 2. builds the applicable fault list per interaction point from the
//!    catalog (steps 4–5);
//! 3. re-runs the application once per fault from a fresh clone of the
//!    world, injecting the fault before/after the targeted point (steps
//!    6–7) and asking the policy oracle for violations (step 8);
//! 4. reports interaction coverage, fault coverage, and the vulnerability
//!    assessment score (steps 9–10).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::panic::AssertUnwindSafe;

use shim_sync::sync::Arc;

use epa_sandbox::app::Application;
use epa_sandbox::audit::AuditEvent;
use epa_sandbox::cred::Uid;
use epa_sandbox::os::Os;
use epa_sandbox::policy::{InvariantSpec, OracleSet, Verdict};
use epa_sandbox::process::Pid;
use epa_sandbox::syscall::Interceptor;
use epa_sandbox::trace::{SiteId, SiteSummary};

use crate::catalog::{faults_for_site, DirectContext};
use crate::engine::planner::{Claim, FaultKey, Provenance, RunDigest, Schedule};
use crate::inject::{InjectionHook, InjectionPlan};
use crate::perturb::ConcreteFault;
use crate::report::{CampaignReport, FaultRecord};

/// Everything needed to (re)start the application under test: the pristine
/// world plus the spawn parameters.
#[derive(Debug, Clone)]
pub struct TestSetup {
    /// The pristine world; cloned for every run.
    pub world: Os,
    /// Path of the program file to spawn from (SUID semantics apply); `None`
    /// spawns with the invoker's plain credentials.
    pub program: Option<String>,
    /// Who invokes the program.
    pub invoker: Uid,
    /// Argument vector, shared with every run's process, which reads each
    /// argument's text without copying it.
    pub args: Arc<[Arc<str>]>,
    /// Environment variables, shared with every run's process, which reads
    /// each value's text without copying it (write with `Arc::make_mut`).
    pub env: Arc<BTreeMap<String, Arc<str>>>,
    /// Initial working directory.
    pub cwd: String,
    /// Declarative custom invariants; each compiles into a detector
    /// registered on every run's [`OracleSet`] alongside the standard set.
    pub invariants: Vec<InvariantSpec>,
}

impl TestSetup {
    /// Builds a setup with the world's scenario invoker, no program file,
    /// empty args/env, no custom invariants, and `/` as the working
    /// directory.
    pub fn new(world: Os) -> Self {
        let invoker = world.scenario.invoker;
        TestSetup {
            world,
            program: None,
            invoker,
            args: Arc::from([]),
            env: Arc::default(),
            cwd: "/".to_string(),
            invariants: Vec::new(),
        }
    }

    /// Sets the program file (enabling SUID).
    #[must_use]
    pub fn program(mut self, path: impl Into<String>) -> Self {
        self.program = Some(path.into());
        self
    }

    /// Sets the argument vector.
    #[must_use]
    pub fn args<I, S>(mut self, args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.args = args.into_iter().map(|a| Arc::from(a.as_ref())).collect();
        self
    }

    /// Sets one environment variable.
    #[must_use]
    pub fn env(mut self, key: impl Into<String>, value: impl AsRef<str>) -> Self {
        Arc::make_mut(&mut self.env).insert(key.into(), Arc::from(value.as_ref()));
        self
    }

    /// Sets the working directory.
    #[must_use]
    pub fn cwd(mut self, dir: impl Into<String>) -> Self {
        self.cwd = dir.into();
        self
    }

    /// Sets the invoking user (defaults to the world's scenario invoker).
    /// System services are spawned by root while the scenario invoker stays
    /// the user on whose behalf the oracle judges outcomes.
    #[must_use]
    pub fn invoker(mut self, uid: Uid) -> Self {
        self.invoker = uid;
        self
    }

    /// Adds a declarative custom invariant to every run's oracle set.
    #[must_use]
    pub fn invariant(mut self, spec: InvariantSpec) -> Self {
        self.invariants.push(spec);
        self
    }

    /// The oracle set a run of this setup evaluates against: the standard
    /// eight detector families plus one detector per declared invariant.
    pub fn oracle(&self) -> OracleSet {
        let mut oracle = OracleSet::standard();
        for spec in &self.invariants {
            oracle.register(spec.detector());
        }
        oracle
    }

    /// A content fingerprint of the frozen setup: the pristine world's
    /// substrates (file system, users, registry, network, scenario) plus
    /// every spawn parameter and declared invariant.
    ///
    /// This is the memoization scope half of the planner's
    /// `(fingerprint, FaultKey)` cache key: two runs can only replay each
    /// other when they start from identical worlds with identical spawn
    /// parameters. A [`crate::engine::Session`] freezes one pristine world
    /// and snapshots it copy-on-write per run, so the hash runs once per
    /// campaign, never per injected run; the schedule then looks every job
    /// up under this scope before the analyzer sees the misses.
    ///
    /// The hash is structural: each substrate's [`std::hash::Hash`] impl
    /// feeds one [`crate::engine::planner::Fnv1a`] hasher, with no
    /// serialization in between. Persistent stores key their segments by
    /// it, so a change to what it covers, or to any of those impls, needs a
    /// [`crate::store::STORE_FORMAT_VERSION`] bump.
    pub fn fingerprint(&self) -> u64 {
        let world = &self.world;
        let mut hasher = crate::engine::planner::Fnv1a::default();
        (&world.fs, &world.users, &world.registry, &world.net, &world.scenario).hash(&mut hasher);
        (world.procs.len(), world.audit.len(), world.trace.len()).hash(&mut hasher);
        world.created_paths().collect::<Vec<_>>().hash(&mut hasher);
        (
            &self.program,
            self.invoker,
            &self.args,
            &self.env,
            &self.cwd,
            &self.invariants,
        )
            .hash(&mut hasher);
        hasher.finish()
    }
}

/// The observable outcome of one run.
///
/// An unhooked run's world lists every interaction in `os.trace`; the
/// planner and the static analysis read it. A hooked (injected) run's
/// `os.trace` holds only per-site occurrence counts and the sequence
/// counter, with no events: nothing downstream of an injected run reads
/// more than its audit log and its verdicts.
#[derive(Debug)]
pub struct RunOutcome {
    /// The world after the run: audit log, and the trace (full when
    /// unhooked, counts only when hooked).
    pub os: Os,
    /// The spawned process, if the spawn succeeded.
    pub pid: Option<Pid>,
    /// Exit status (`None` when the application panicked or never spawned).
    pub exit: Option<i32>,
    /// `Some(panic message)` when the application panicked.
    pub crashed: Option<String>,
    /// Verdicts the oracle pipeline detected, each carrying its evidence
    /// chain (a `Verdict` dereferences to its `Violation`).
    pub violations: Vec<Verdict>,
}

impl RunOutcome {
    /// Whether the application panicked during the run.
    pub fn has_crashed(&self) -> bool {
        self.crashed.is_some()
    }
}

/// Extracts the payload text from a caught panic (`&str` and `String`
/// payloads; anything else gets a placeholder).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

thread_local! {
    /// This thread's standard oracle set, reused run after run.
    static STANDARD_ORACLE: RefCell<Option<OracleSet>> = const { RefCell::new(None) };
}

/// Runs the application once against a clone of the setup's world, with an
/// optional injection hook installed.
///
/// The oracle evaluates **incrementally**: an [`OracleSet`] for the setup
/// is subscribed to the run's audit log before the application starts,
/// every recorded event streams straight to the detectors, and the verdicts
/// are collected the moment the run ends — no post-hoc re-scan of the log.
/// [`OracleSet::evaluate_log`] over the completed log is the reference the
/// property tests compare these verdicts against. The standard set is not
/// rebuilt per run: each thread keeps one, and finishing a run resets
/// every detector ([`epa_sandbox::policy::Detector::finish`]). A setup's
/// invariant detectors are compiled per run, as [`TestSetup::oracle`]
/// compiles them, so what a run asks of the path interner does not depend
/// on which thread ran the setup before.
///
/// A hooked run keeps only what the hook and the verdicts read: its
/// `os.trace` counts interactions per site and lists no event (see
/// [`epa_sandbox::trace::Trace`]). The planner and the static analysis
/// read the full trace of an unhooked run.
pub fn run_once(setup: &TestSetup, app: &dyn Application, hook: Option<Box<dyn Interceptor>>) -> RunOutcome {
    let mut os = setup.world.clone();
    let mut oracle = STANDARD_ORACLE
        .with(|slot| slot.borrow_mut().take())
        .unwrap_or_else(OracleSet::standard);
    let standard = oracle.len();
    for spec in &setup.invariants {
        oracle.register(spec.detector());
    }
    os.audit.attach_oracle(oracle);
    let verdicts = |os: &mut Os| {
        let mut oracle = os.audit.detach_oracle().expect("attached before the run");
        let verdicts = oracle.finish();
        oracle.truncate(standard);
        STANDARD_ORACLE.with(|slot| *slot.borrow_mut() = Some(oracle));
        verdicts
    };
    if let Some(h) = hook {
        os.set_interceptor(h);
    }
    let Ok(pid) = os.spawn(
        setup.invoker,
        setup.program.as_deref(),
        Arc::clone(&setup.args),
        Arc::clone(&setup.env),
        &setup.cwd,
    ) else {
        let violations = verdicts(&mut os);
        return RunOutcome {
            os,
            pid: None,
            exit: None,
            crashed: None,
            violations,
        };
    };
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| app.run(&mut os, pid)));
    let (exit, crashed) = match result {
        Ok(code) => (Some(code), None),
        Err(payload) => (None, Some(panic_text(payload.as_ref()))),
    };
    if let Some(c) = exit {
        os.set_exit(pid, c);
    }
    let violations = verdicts(&mut os);
    RunOutcome {
        os,
        pid: Some(pid),
        exit,
        crashed,
        violations,
    }
}

/// Campaign tuning knobs.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Perturb only these sites (by id); `None` perturbs all.
    pub site_filter: Option<BTreeSet<SiteId>>,
    /// Perturb at most this many sites (in first-execution order).
    pub max_sites: Option<usize>,
    /// Inject at most this many faults per site.
    pub max_faults_per_site: Option<usize>,
    /// Strike at most this many occurrences of each site (paper §3.3
    /// perturbs *each occurrence* of each interaction point; re-accessed
    /// objects — the lpr TOCTTOU class — only misbehave at later hits).
    /// Occurrences past the first replan only the occurrence-sensitive
    /// faults ([`ConcreteFault::occurrence_sensitive`]). The default of 1
    /// preserves the historical first-hit-only plans; use
    /// `usize::MAX` to cover every traced occurrence.
    pub max_occurrences_per_site: usize,
    /// Has no effect: a campaign collapses equal jobs only through a
    /// [`CampaignOptions::cache`] its caller installs. Kept only so the
    /// benchmark harness (`perfbench/`) builds unchanged; it goes with the
    /// benchmark change of ROADMAP item 4.
    pub dedup: bool,
    /// A shared [`crate::engine::planner::ResultCache`] memoizing
    /// `(setup fingerprint, FaultKey) -> RunDigest` across campaigns and
    /// executions: equal jobs run once, the rest replay with `cache_hit:
    /// true`. It wins over a [`crate::engine::Suite::with_result_cache`].
    /// `None`, the default, runs every job static pruning keeps, unkeyed.
    pub cache: Option<crate::engine::planner::ResultCache>,
    /// Can only be `None`: a campaign executes its whole plan (paper §3.3).
    /// Shrink the plan with [`CampaignOptions::site_filter`],
    /// [`CampaignOptions::max_sites`] or
    /// [`CampaignOptions::max_faults_per_site`], or exclude sites from a
    /// [`CampaignPlan`] and run it with
    /// [`crate::engine::Session::execute_plan`]. Kept only so the benchmark
    /// harness (`perfbench/`) builds unchanged; it goes with
    /// [`CampaignOptions::dedup`] in the benchmark change of ROADMAP item 4.
    ///
    /// No budget can be set:
    ///
    /// ```compile_fail,E0308
    /// use epa_core::campaign::CampaignOptions;
    /// let _ = CampaignOptions { plan_budget: Some(3), ..Default::default() };
    /// ```
    pub plan_budget: Option<std::convert::Infallible>,
    /// Pre-prune the plan with the static analysis layer: jobs the
    /// [`crate::analysis::AppAnalysis`] classifies as
    /// [`crate::analysis::Relevance::ProvablyInert`] are never executed —
    /// their records are synthesized from the clean run and flagged
    /// [`FaultRecord::pruned`], mirroring `cache_hit`. Pruned records are
    /// byte-identical to what the run would have produced (the corpus
    /// differential harness and `tests/props_analysis.rs` pin this), so
    /// verdicts and paper numbers are the same either way.
    ///
    /// Off by default: the campaign runs the exhaustive plan (paper §3.3),
    /// builds no analysis, and every record counted as injected ran. On the
    /// standard suite pruning costs more than it saves: the analysis build
    /// (~0.15 ms a pass) and classifying 245 jobs (~0.5 ms) avoid 29 runs
    /// worth ~0.26 ms, so a pass is 3–7% slower with it on. Turn it on
    /// where a run costs more than a classification.
    pub static_prune: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            site_filter: None,
            max_sites: None,
            max_faults_per_site: None,
            max_occurrences_per_site: 1,
            dedup: true,
            cache: None,
            plan_budget: None,
            static_prune: false,
        }
    }
}

/// One interaction point with its planned fault list.
#[derive(Debug, Clone)]
pub struct PlannedSite {
    /// The traced site.
    pub summary: SiteSummary,
    /// Whether the options include it in the perturbation set.
    pub included: bool,
    /// How many occurrences of the site the plan strikes (the traced hit
    /// count capped by [`CampaignOptions::max_occurrences_per_site`]).
    pub occurrences: usize,
    /// The applicable faults (already truncated to any per-site limit).
    pub faults: Vec<ConcreteFault>,
}

impl PlannedSite {
    /// The `(site, occurrence, fault)` jobs this site contributes, in
    /// deterministic order: occurrence 0 gets the full fault list, later
    /// occurrences only the occurrence-sensitive faults (re-striking a
    /// semantics-addressed indirect fault would duplicate the first run).
    pub fn jobs(&self) -> Vec<InjectionPlan> {
        self.clone().into_jobs()
    }

    /// [`PlannedSite::jobs`], moving each fault into its occurrence-0 job:
    /// only the occurrence-sensitive faults later occurrences replan are
    /// copied.
    fn into_jobs(self) -> Vec<InjectionPlan> {
        if !self.included {
            return Vec::new();
        }
        let site = self.summary.site;
        let mut later = Vec::new();
        for occurrence in 1..self.occurrences {
            for fault in self.faults.iter().filter(|f| f.occurrence_sensitive()) {
                later.push(InjectionPlan {
                    site,
                    occurrence,
                    fault: fault.clone(),
                });
            }
        }
        let mut out: Vec<InjectionPlan> = self
            .faults
            .into_iter()
            .map(|fault| InjectionPlan {
                site,
                occurrence: 0,
                fault,
            })
            .collect();
        out.extend(later);
        out
    }
}

/// What a campaign report reads of its plan: the sites the catalog has
/// faults for, and the clean run's verdict count. The driver keeps this
/// and moves the plan's faults into its job list.
pub(crate) struct PlanTally {
    /// Each site with applicable faults, and whether the options include it.
    perturbable: Vec<(SiteId, bool)>,
    clean_violations: usize,
}

/// The campaign plan: the clean run plus the per-site fault lists.
#[derive(Debug)]
pub struct CampaignPlan {
    /// The unperturbed run.
    pub clean: RunOutcome,
    /// Every traced site, included or not.
    pub sites: Vec<PlannedSite>,
}

impl CampaignPlan {
    /// Total injection jobs across included sites (occurrence-aware:
    /// occurrences past the first contribute their occurrence-sensitive
    /// faults).
    pub fn total_faults(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.included)
            .map(|s| {
                let sensitive = s.faults.iter().filter(|f| f.occurrence_sensitive()).count();
                s.faults.len() + (s.occurrences.max(1) - 1) * sensitive
            })
            .sum()
    }

    /// The flat list of injections to perform, in plan order.
    pub fn jobs(&self) -> Vec<InjectionPlan> {
        self.sites.iter().flat_map(|s| s.clone().into_jobs()).collect()
    }

    /// What a report of this plan reads.
    pub(crate) fn tally(&self) -> PlanTally {
        PlanTally {
            perturbable: self
                .sites
                .iter()
                .filter(|s| !s.faults.is_empty())
                .map(|s| (s.summary.site, s.included))
                .collect(),
            clean_violations: self.clean.violations.len(),
        }
    }

    /// The plan's tally and its [`CampaignPlan::jobs`], with the faults
    /// moved into the jobs rather than copied.
    pub(crate) fn into_jobs(self) -> (PlanTally, Vec<InjectionPlan>) {
        let tally = self.tally();
        (tally, self.sites.into_iter().flat_map(PlannedSite::into_jobs).collect())
    }
}

/// One campaign's bookkeeping behind [`crate::engine::Session`] and
/// [`crate::engine::Suite`]: the application, the frozen setup and the
/// options, plus the memoization scope and static analysis computed at
/// most once. The engine's driver (`engine::suite::drive`) executes its
/// jobs; a campaign only plans, schedules, runs single jobs and folds
/// records into a report.
pub(crate) struct Campaign<'a> {
    app: &'a dyn Application,
    setup: &'a TestSetup,
    pub(crate) options: CampaignOptions,
    /// The memoization scope (app identity + setup fingerprint), computed
    /// at most once per campaign — the world hash is cheap, but not free.
    scope: shim_sync::sync::OnceLock<u64>,
    /// The static analysis of this campaign's clean run, built once by
    /// [`Campaign::adopt_clean_run`] and only when
    /// [`CampaignOptions::static_prune`] is on.
    analysis: shim_sync::sync::OnceLock<crate::analysis::AppAnalysis>,
}

impl<'a> Campaign<'a> {
    pub(crate) fn build(app: &'a dyn Application, setup: &'a TestSetup, options: CampaignOptions) -> Self {
        Campaign {
            app,
            setup,
            options,
            scope: shim_sync::sync::OnceLock::new(),
            analysis: shim_sync::sync::OnceLock::new(),
        }
    }

    /// The `(setup fingerprint, application)` memoization scope of this
    /// campaign's runs — see [`TestSetup::fingerprint`]. The schedule looks
    /// every job up under it first and prunes only the misses; pruned
    /// digests are never saved under it.
    pub(crate) fn scope(&self) -> u64 {
        *self.scope.get_or_init(|| {
            let text = format!("{}\n{:016x}", self.app.name(), self.setup.fingerprint());
            crate::engine::planner::fnv1a(text.as_bytes())
        })
    }

    /// Builds the static analysis (when pre-pruning is enabled) from a
    /// clean run of this campaign's setup — [`Campaign::plan`]'s own, or a
    /// pre-built plan's — so scheduling never repeats the clean run.
    pub(crate) fn adopt_clean_run(&self, clean: &RunOutcome) {
        if self.options.static_prune {
            self.analysis
                .get_or_init(|| crate::analysis::AppAnalysis::from_clean_run(self.setup, clean));
        }
    }

    /// Steps 1–5: trace the application and build the fault plan.
    pub(crate) fn plan(&self) -> CampaignPlan {
        let clean = run_once(self.setup, self.app, None);
        self.adopt_clean_run(&clean);
        let summaries = clean.os.trace.sites();
        let reaccessed = clean.os.trace.reaccessed_files();
        let mut exec_resolutions: BTreeMap<String, String> = BTreeMap::new();
        for ev in clean.os.audit.events() {
            if let AuditEvent::Exec {
                requested, resolved, ..
            } = ev
            {
                exec_resolutions
                    .entry(requested.clone())
                    .or_insert_with(|| resolved.to_string());
            }
        }
        let ctx = DirectContext {
            scenario: &self.setup.world.scenario,
            reaccessed: &reaccessed,
            exec_resolutions: &exec_resolutions,
            cwd: &self.setup.cwd,
        };
        let mut sites = Vec::new();
        let mut taken = 0usize;
        for summary in summaries {
            let mut included = match &self.options.site_filter {
                Some(filter) => filter.contains(&summary.site),
                None => true,
            };
            if included {
                if let Some(max) = self.options.max_sites {
                    if taken >= max {
                        included = false;
                    }
                }
            }
            let mut faults = faults_for_site(&summary, &ctx);
            if let Some(limit) = self.options.max_faults_per_site {
                faults.truncate(limit);
            }
            if included && !faults.is_empty() {
                taken += 1;
            }
            let occurrences = summary.hits.min(self.options.max_occurrences_per_site).max(1);
            sites.push(PlannedSite {
                summary,
                included,
                occurrences,
                faults,
            });
        }
        CampaignPlan { clean, sites }
    }

    /// Runs job `idx` of a shared job list from a fresh snapshot,
    /// bypassing any cache, and digests its outcome. The hook shares the
    /// list instead of copying the job.
    pub(crate) fn run_job(&self, jobs: &Arc<[InjectionPlan]>, idx: usize) -> RunDigest {
        let hook = InjectionHook::shared(Arc::clone(jobs), idx);
        let outcome = run_once(self.setup, self.app, Some(Box::new(hook)));
        RunDigest {
            applied: outcome.os.fault_fired(),
            exit: outcome.exit,
            crashed: outcome.crashed,
            audit_events: outcome.os.audit.len(),
            violations: outcome.violations,
        }
    }

    /// Runs one job through the campaign's result cache, claim-aware: at
    /// most one thread, across the pool and every suite sharing the cache,
    /// executes each `(scope, key)`; the others block on its claim
    /// ([`crate::engine::planner::ResultCache::begin`]) and replay the
    /// digest the winner settles. An executed run's store record is pushed
    /// onto `unsaved`, for [`Campaign::write_through`] after the campaign's
    /// last record. `key` is `FaultKey::of(&jobs[idx])`, which only a
    /// schedule built under the cache computes; without one,
    /// [`Campaign::run_job`].
    pub(crate) fn run_job_keyed(
        &self,
        jobs: &Arc<[InjectionPlan]>,
        idx: usize,
        key: &FaultKey,
        unsaved: &mut Vec<(FaultKey, RunDigest)>,
    ) -> FaultRecord {
        let cache = self
            .options
            .cache
            .as_ref()
            .expect("only a schedule built under a cache keys a job");
        let (digest, provenance) = match cache.begin(self.scope(), key) {
            Claim::Replay(digest) => (digest, Provenance::Cached),
            Claim::Execute(token) => {
                let digest = self.run_job(jobs, idx);
                unsaved.extend(token.settle(digest.clone()));
                (digest, Provenance::Executed)
            }
        };
        digest.into_record(&jobs[idx], provenance)
    }

    /// Writes the runs this campaign executed through to its cache's store
    /// in one call: a campaign's runs reach their segment in one write.
    pub(crate) fn write_through(&self, unsaved: &[(FaultKey, RunDigest)]) {
        if let Some(cache) = &self.options.cache {
            cache.write_through(self.scope(), unsaved);
        }
    }

    /// Splits a flat job list against this campaign's cache (if any) and
    /// static analysis: the planner's entry point, called inside each
    /// campaign's job, which then runs only the pending misses.
    /// Without a cache the scope is never computed.
    pub(crate) fn schedule(&self, jobs: &[InjectionPlan]) -> Schedule {
        let scope = if self.options.cache.is_some() { self.scope() } else { 0 };
        let analysis = self.options.static_prune.then(|| {
            self.analysis
                .get()
                .expect("the campaign's clean run is adopted before scheduling")
        });
        let prune = |job: &InjectionPlan| analysis?.pruned_digest(job);
        Schedule::build(jobs, scope, self.options.cache.as_ref(), Some(&prune))
    }

    /// Folds the driver's records (plan order) into the campaign report.
    pub(crate) fn report_from(&self, tally: &PlanTally, records: Vec<FaultRecord>) -> CampaignReport {
        // Interaction points, in the paper's sense, are the places where the
        // catalog has something to perturb — pure-output sites (prints) have
        // no applicable faults and do not count against coverage.
        CampaignReport {
            app: self.app.name().to_string(),
            total_sites: tally.perturbable.len(),
            perturbed_sites: tally.perturbable.iter().filter(|(_, included)| *included).count(),
            clean_violations: tally.clean_violations,
            records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Session;
    use epa_sandbox::cred::Gid;
    use epa_sandbox::mode::Mode;
    use epa_sandbox::trace::InputSemantic;

    /// A tiny lpr-like program: create a spool file, write the job to it.
    struct MiniLpr;
    impl Application for MiniLpr {
        fn name(&self) -> &'static str {
            "mini-lpr"
        }
        fn run(&self, os: &mut Os, pid: Pid) -> i32 {
            let Ok(job) = os.sys_arg(pid, "lpr:arg", 0, InputSemantic::UserFileName) else {
                return 2;
            };
            // Vulnerable: creat without O_EXCL, like the BSD lpr of §3.4.
            if os
                .sys_write_file(pid, "lpr:create", "/var/spool/lpd/job", job, 0o660)
                .is_err()
            {
                let _ = os.sys_print(pid, "lpr:err", "lpr: cannot create spool file\n");
                return 1;
            }
            0
        }
    }

    fn setup() -> TestSetup {
        let mut os = Os::new();
        os.users.add("root", Uid::ROOT, Gid::ROOT, "/root");
        os.users
            .add("student", os.scenario.invoker, os.scenario.invoker_gid, "/home/student");
        os.users
            .add("evil", os.scenario.attacker, os.scenario.attacker_gid, "/home/evil");
        os.fs
            .mkdir_p("/var/spool/lpd", Uid::ROOT, Gid::ROOT, Mode::new(0o755))
            .unwrap();
        os.fs
            .put_file("/etc/passwd", "root:0:0:", Uid::ROOT, Gid::ROOT, Mode::new(0o644))
            .unwrap();
        os.fs
            .put_file("/etc/shadow", "root:HASH", Uid::ROOT, Gid::ROOT, Mode::new(0o600))
            .unwrap();
        os.fs
            .put_file("/usr/bin/lpr", "", Uid::ROOT, Gid::ROOT, Mode::new(0o4755))
            .unwrap();
        crate::perturb::tag_standard_targets(&mut os);
        TestSetup::new(os).program("/usr/bin/lpr").args(["report.txt"])
    }

    #[test]
    fn clean_run_is_violation_free() {
        let s = setup();
        let out = run_once(&s, &MiniLpr, None);
        assert_eq!(out.exit, Some(0));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.os.trace.sites().len(), 2);
    }

    #[test]
    fn plan_enumerates_sites_and_faults() {
        let s = setup();
        let plan = Session::from_setup(s).plan(&MiniLpr);
        assert_eq!(plan.sites.len(), 2);
        // Site 1 (arg): 5 user-file-name indirect faults.
        assert_eq!(plan.sites[0].faults.len(), 5);
        // Site 2 (create): 4 direct file faults, as in §3.4.
        assert_eq!(plan.sites[1].faults.len(), 4);
        assert_eq!(plan.total_faults(), 9);
    }

    #[test]
    fn execute_detects_the_lpr_vulnerabilities() {
        let s = setup();
        let report = Session::from_setup(s.clone()).execute(&MiniLpr);
        assert_eq!(report.clean_violations, 0);
        assert_eq!(report.injected(), 9);
        // The four create-site perturbations all defeat the naive creat.
        let create_violations: Vec<_> = report
            .records
            .iter()
            .filter(|r| r.site == "lpr:create" && !r.tolerated())
            .map(|r| r.fault_id.clone())
            .collect();
        assert_eq!(create_violations.len(), 4, "{create_violations:?}");
        assert_eq!(report.perturbed_sites, 2);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let s = setup();
        let seq = Session::from_setup(s.clone()).execute(&MiniLpr);
        let mut suite = crate::engine::Suite::new().with_workers(4);
        suite.register_session(MiniLpr, Session::from_setup(s.clone()));
        let par = suite.execute().reports.remove(0);
        assert_eq!(seq.injected(), par.injected());
        assert_eq!(seq.violated(), par.violated());
        let seq_ids: Vec<_> = seq.records.iter().map(|r| &r.fault_id).collect();
        let par_ids: Vec<_> = par.records.iter().map(|r| &r.fault_id).collect();
        assert_eq!(seq_ids, par_ids, "records must come back in plan order");
    }

    #[test]
    fn options_limit_sites_and_faults() {
        let s = setup();
        let report = Session::from_setup(s.clone())
            .with_options(CampaignOptions {
                max_sites: Some(1),
                max_faults_per_site: Some(2),
                ..Default::default()
            })
            .execute(&MiniLpr);
        assert_eq!(report.perturbed_sites, 1);
        assert_eq!(report.injected(), 2);
        assert!(report.interaction_coverage().value_or(1.0) < 1.0);
    }

    #[test]
    fn site_filter_selects_specific_points() {
        let s = setup();
        let mut filter = BTreeSet::new();
        filter.insert(SiteId::new("lpr:create"));
        let report = Session::from_setup(s.clone())
            .with_options(CampaignOptions {
                site_filter: Some(filter),
                ..Default::default()
            })
            .execute(&MiniLpr);
        assert!(report.records.iter().all(|r| r.site == "lpr:create"));
        assert_eq!(report.injected(), 4);
    }

    #[test]
    fn occurrence_cap_expands_plans_with_occurrence_sensitive_faults() {
        let s = setup();
        let base = Session::from_setup(s.clone()).plan(&MiniLpr);
        let expanded = Session::from_setup(s.clone())
            .with_options(CampaignOptions {
                max_occurrences_per_site: usize::MAX,
                ..Default::default()
            })
            .plan(&MiniLpr);
        // MiniLpr hits each site once, so even an uncapped plan matches the
        // default first-hit plan: occurrence awareness adds jobs only when
        // the trace shows re-execution.
        assert_eq!(base.total_faults(), expanded.total_faults());
        assert!(expanded.sites.iter().all(|site| site.occurrences == 1));
        assert_eq!(base.jobs(), expanded.jobs());
    }

    struct Panicker;
    impl Application for Panicker {
        fn name(&self) -> &'static str {
            "panicker"
        }
        fn run(&self, _os: &mut Os, _pid: Pid) -> i32 {
            panic!("deliberate crash for harness robustness");
        }
    }

    #[test]
    fn harness_survives_a_panicking_application_and_keeps_the_payload() {
        let s = setup();
        let out = run_once(&s, &Panicker, None);
        assert!(out.has_crashed());
        assert_eq!(out.crashed.as_deref(), Some("deliberate crash for harness robustness"));
        assert_eq!(out.exit, None);
    }

    /// Strips the planner's replay flag so replayed reports compare equal
    /// to executed ones field-for-field.
    fn without_cache_flags(mut report: CampaignReport) -> CampaignReport {
        for r in &mut report.records {
            r.cache_hit = false;
        }
        report
    }

    #[test]
    fn memoized_rerun_replays_every_record_byte_identically() {
        let s = setup();
        let cache = crate::engine::planner::ResultCache::new();
        let options = CampaignOptions {
            cache: Some(cache.clone()),
            ..Default::default()
        };
        let first = Session::from_setup(s.clone())
            .with_options(options.clone())
            .execute(&MiniLpr);
        assert_eq!(first.cache_hits(), 0, "a cold cache replays nothing");
        let second = Session::from_setup(s.clone()).with_options(options).execute(&MiniLpr);
        assert_eq!(
            second.cache_hits(),
            second.injected() - second.pruned(),
            "a warm cache replays every executed run"
        );
        assert_eq!(second.runs_executed(), 0);
        assert_eq!(without_cache_flags(second), without_cache_flags(first.clone()));
        // And the memoized report still matches the exhaustive baseline.
        let exhaustive = Session::from_setup(s.clone()).execute(&MiniLpr);
        assert_eq!(without_cache_flags(first), exhaustive);
    }

    #[test]
    fn cache_does_not_leak_across_applications() {
        let s = setup();
        let cache = crate::engine::planner::ResultCache::new();
        let options = CampaignOptions {
            cache: Some(cache.clone()),
            ..Default::default()
        };
        let _ = Session::from_setup(s.clone())
            .with_options(options.clone())
            .execute(&MiniLpr);
        // A different application over the same world must not replay the
        // MiniLpr outcomes: its scope differs.
        struct OtherLpr;
        impl Application for OtherLpr {
            fn name(&self) -> &'static str {
                "other-lpr"
            }
            fn run(&self, os: &mut Os, pid: Pid) -> i32 {
                MiniLpr.run(os, pid)
            }
        }
        let other = Session::from_setup(s.clone()).with_options(options).execute(&OtherLpr);
        assert_eq!(other.cache_hits(), 0);
        assert_eq!(other.runs_executed(), other.injected() - other.pruned());
    }

    #[test]
    fn scope_is_stable_and_world_sensitive() {
        let s = setup();
        let a = Campaign::build(&MiniLpr, &s, CampaignOptions::default()).scope();
        let b = Campaign::build(&MiniLpr, &s, CampaignOptions::default()).scope();
        assert_eq!(a, b, "same app, same frozen world, same scope");
        let mut s2 = setup();
        s2.world
            .fs
            .put_file("/etc/extra", "x", Uid::ROOT, Gid::ROOT, Mode::new(0o644))
            .unwrap();
        assert_ne!(
            Campaign::build(&MiniLpr, &s2, CampaignOptions::default()).scope(),
            a,
            "a changed world changes the scope"
        );
    }
}
