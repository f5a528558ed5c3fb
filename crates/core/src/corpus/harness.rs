//! The differential corpus harness: one scenario, every semantic axis of
//! execution, byte-identical verdicts — or a minimized counterexample.
//!
//! Every campaign runs through one driver, so the axes that can still
//! change what executes are the real semantics: worker count, cache cold
//! or warm, a budget, static pruning on or off — plus one reference that
//! bypasses the driver and judges every run twice (incremental oracle vs.
//! [`epa_sandbox::policy::OracleSet::evaluate_log`]). All of them promise
//! the same verdict set; [`differential_check`] holds them to it. Each
//! path's report is flattened to a canonical per-record digest line —
//! deliberately *excluding* the `cache_hit` and `pruned` provenance flags,
//! the only fields a replay (or a statically pruned synthesis) may
//! legitimately differ in — and compared byte-for-byte against the
//! sequential baseline.
//!
//! The `pruned` path is the soundness gate for the static analyzer: the
//! same scenario with [`CampaignOptions::static_prune`] on must reproduce
//! the exhaustive (pruning-off) verdict set exactly, so a `ProvablyInert`
//! classification that was wrong shows up as a corpus divergence.
//!
//! [`run_corpus`] sweeps a whole synthesized corpus, shrinks any divergence
//! to a minimal world diff ([`mod@super::shrink`]), and rolls the results
//! into a [`super::report::CorpusReport`].

use shim_sync::sync::Arc;
use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{Deserialize, Serialize};

use epa_sandbox::app::Application;
use epa_sandbox::syscall::Interceptor;

use super::report::CorpusReport;
use super::{shrink, Scenario};
use crate::campaign::{run_once, CampaignOptions};
use crate::coverage::AdequacyPoint;
use crate::engine::planner::ResultCache;
use crate::engine::{Session, Suite};
use crate::inject::InjectionHook;
use crate::report::CampaignReport;
use crate::report::FaultRecord;

/// Builds the application driven by a scenario's script.
///
/// The corpus layer stays app-crate-free: `epa-core` never names a concrete
/// application type. Callers (the `reproduce` binary, benches, tests) pass
/// a factory producing the `epa-apps` scripted adapter — or any other
/// [`Application`] — for each scenario.
pub type AppFactory<'a> = &'a (dyn Fn(&Scenario) -> Arc<dyn Application + Send + Sync> + Sync);

/// A factory-built application as a suite entry (a suite owns its apps).
struct Shared(Arc<dyn Application + Send + Sync>);

impl Application for Shared {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn run(&self, os: &mut epa_sandbox::os::Os, pid: epa_sandbox::process::Pid) -> i32 {
        self.0.run(os, pid)
    }
}

/// One execution path's flattened outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathOutcome {
    /// Path name (`sequential`, `pooled`, `planner-cold`, `planner-warm`,
    /// `budgeted`, `reference`, `pruned`).
    pub path: String,
    /// Canonical digest lines, one per injected record, in plan order.
    pub lines: Vec<String>,
    /// Runs that occupied a worker slot on this path.
    pub runs_executed: usize,
    /// Records replayed from the planner cache on this path.
    pub cache_hits: usize,
    /// Records synthesized by the static analyzer on this path.
    pub pruned: usize,
}

/// A cross-path disagreement (or a panic) on one scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Divergence {
    /// The diverging path.
    pub path: String,
    /// What differed (first differing digest line, or the panic payload).
    pub detail: String,
    /// The scenario's RNG seed, for exact replay.
    pub seed: u64,
    /// Minimal world diff from pristine that still reproduces the
    /// divergence (filled by [`run_corpus`]'s shrinking pass).
    pub minimized: Vec<String>,
}

/// The differential verdict on one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Scenario identifier.
    pub id: String,
    /// Per-scenario RNG seed (logged for exact CI replay).
    pub seed: u64,
    /// Perturbable interaction points the baseline exposed.
    pub sites: usize,
    /// Faults injected by the baseline.
    pub injected: usize,
    /// Injected runs that violated the policy.
    pub violated: usize,
    /// Violations in the unperturbed run.
    pub clean_violations: usize,
    /// The scenario's Figure 2 adequacy point.
    pub adequacy: AdequacyPoint,
    /// Per-EAI-category `(injected, violated)` counts.
    pub by_category: Vec<(String, usize, usize)>,
    /// Every path's flattened outcome (baseline first).
    pub paths: Vec<PathOutcome>,
    /// The first divergence, if any path disagreed with the baseline.
    pub divergence: Option<Divergence>,
}

/// Canonical digest of one record: every observable field *except*
/// `cache_hit` and `pruned` (replay/prune provenance is the one legitimate
/// cross-path difference) and the free-text description (redundant with
/// `fault_id`).
fn record_line(r: &FaultRecord) -> String {
    let violations = serde_json::to_string(&r.violations).expect("verdicts serialize");
    format!(
        "{}|{}|{}|{}|{:?}|{:?}|{}|{}",
        r.site, r.occurrence, r.fault_id, r.applied, r.exit, r.crashed, r.audit_events, violations
    )
}

fn report_outcome(path: &str, report: &CampaignReport) -> PathOutcome {
    PathOutcome {
        path: path.to_string(),
        lines: report.records.iter().map(record_line).collect(),
        runs_executed: report.runs_executed(),
        cache_hits: report.cache_hits(),
        pruned: report.pruned(),
    }
}

/// The campaign options every path shares: strike every traced occurrence
/// of every site (the corpus is biased toward occurrence-sensitive shapes,
/// so first-hit-only plans would under-exercise it). Static pruning stays
/// off, as by default, so every other path is the exhaustive ground truth;
/// the `pruned` path turns it on and must agree with them byte-for-byte.
fn base_options() -> CampaignOptions {
    CampaignOptions {
        max_occurrences_per_site: usize::MAX,
        ..CampaignOptions::default()
    }
}

/// Runs one path, converting a panic anywhere inside the engine into a
/// divergence instead of tearing the harness down.
fn run_path<T>(name: &str, seed: u64, f: impl FnOnce() -> T) -> Result<T, Divergence> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        Divergence {
            path: name.to_string(),
            detail: format!("panicked: {text}"),
            seed,
            minimized: Vec::new(),
        }
    })
}

/// First difference between a path's lines and the baseline's, as a
/// replay-ready description.
fn diff_lines(baseline: &PathOutcome, candidate: &PathOutcome, seed: u64) -> Option<Divergence> {
    if baseline.lines == candidate.lines {
        return None;
    }
    let detail = if baseline.lines.len() != candidate.lines.len() {
        format!(
            "record count: baseline {} vs {} {}",
            baseline.lines.len(),
            candidate.path,
            candidate.lines.len()
        )
    } else {
        let i = baseline
            .lines
            .iter()
            .zip(&candidate.lines)
            .position(|(a, b)| a != b)
            .expect("unequal line vectors differ somewhere");
        format!(
            "record {i}: baseline `{}` vs {} `{}`",
            baseline.lines[i], candidate.path, candidate.lines[i]
        )
    };
    Some(Divergence {
        path: candidate.path.clone(),
        detail,
        seed,
        minimized: Vec::new(),
    })
}

/// Runs `scenario` along every execution axis and compares verdicts.
///
/// Paths, all against the same materialized setup:
///
/// 1. `sequential` — the baseline: a session on the calling thread, no
///    cache;
/// 2. `pooled` — the scenario as a one-app [`Suite`] on 4 workers;
/// 3. `planner-cold` / `planner-warm` — a session with a fresh
///    [`ResultCache`], executed twice (the warm pass must replay, and still
///    agree byte-for-byte);
/// 4. `budgeted` — the adaptive planner with a budget covering the whole
///    plan, over a fresh [`ResultCache`];
/// 5. `reference` — no driver: [`run_once`] job by job over the plan, each
///    run's incremental verdicts cross-checked against
///    [`epa_sandbox::policy::OracleSet::evaluate_log`] on its completed log
///    (the clean run's too);
/// 6. `pruned` — the static analyzer's pre-pruned plan, over a fresh
///    [`ResultCache`] so claim replay composes with prune synthesis: every
///    record the analyzer refuses to execute must still carry the
///    exhaustive verdict, byte-for-byte.
pub fn differential_check(scenario: &Scenario, factory: AppFactory<'_>) -> ScenarioOutcome {
    let seed = scenario.seed;
    let app = factory(scenario);
    let mut paths: Vec<PathOutcome> = Vec::new();
    let mut divergence: Option<Divergence> = None;

    let outcome = |report: &CampaignReport, sites: usize| ScenarioOutcome {
        id: scenario.id.clone(),
        seed,
        sites,
        injected: report.injected(),
        violated: report.violated(),
        clean_violations: report.clean_violations,
        adequacy: report.adequacy(),
        by_category: report.by_category().into_iter().map(|(c, (i, v))| (c, i, v)).collect(),
        paths: Vec::new(),
        divergence: None,
    };

    let setup = match scenario.spec.materialize() {
        Ok(setup) => setup,
        Err(err) => {
            // Generator-invariant breach: surface it as a divergence rather
            // than panicking the sweep.
            return ScenarioOutcome {
                id: scenario.id.clone(),
                seed,
                sites: 0,
                injected: 0,
                violated: 0,
                clean_violations: 0,
                adequacy: AdequacyPoint::vacuous(1.0),
                by_category: Vec::new(),
                paths: Vec::new(),
                divergence: Some(Divergence {
                    path: "materialize".to_string(),
                    detail: format!("world failed to materialize: {err:?}"),
                    seed,
                    minimized: Vec::new(),
                }),
            };
        }
    };

    let session = |options: CampaignOptions| Session::from_setup(setup.clone()).with_options(options);

    // The baseline: the driver at one worker.
    let baseline_report = match run_path("sequential", seed, || session(base_options()).execute(&*app)) {
        Ok(report) => report,
        Err(d) => {
            return ScenarioOutcome {
                id: scenario.id.clone(),
                seed,
                sites: 0,
                injected: 0,
                violated: 0,
                clean_violations: 0,
                adequacy: AdequacyPoint::vacuous(1.0),
                by_category: Vec::new(),
                paths: Vec::new(),
                divergence: Some(d),
            };
        }
    };
    let baseline = report_outcome("sequential", &baseline_report);
    let mut summary = outcome(&baseline_report, baseline_report.total_sites);
    paths.push(baseline.clone());

    let mut check = |name: &str, run: &mut dyn FnMut() -> PathOutcome| {
        if divergence.is_some() {
            return;
        }
        match run_path(name, seed, &mut *run) {
            Ok(candidate) => {
                if divergence.is_none() {
                    divergence = diff_lines(&baseline, &candidate, seed);
                }
                paths.push(candidate);
            }
            Err(d) => divergence = Some(d),
        }
    };

    check("pooled", &mut || {
        let mut suite = Suite::new().with_workers(4);
        suite.register_session(Shared(Arc::clone(&app)), session(base_options()));
        report_outcome("pooled", &suite.execute().reports[0])
    });

    let cache = ResultCache::new();
    let planner_options = || CampaignOptions {
        cache: Some(cache.clone()),
        ..base_options()
    };
    check("planner-cold", &mut || {
        report_outcome("planner-cold", &session(planner_options()).execute(&*app))
    });
    check("planner-warm", &mut || {
        let report = session(planner_options()).execute(&*app);
        let warm = report_outcome("planner-warm", &report);
        assert!(
            report.injected() == 0 || report.cache_hits() > 0,
            "warm planner pass replayed nothing"
        );
        warm
    });

    check("budgeted", &mut || {
        let options = CampaignOptions {
            cache: Some(ResultCache::new()),
            plan_budget: Some(baseline_report.injected()),
            ..base_options()
        };
        report_outcome("budgeted", &session(options).execute(&*app))
    });

    check("reference", &mut || {
        // No driver: every run is judged twice, incrementally and by a
        // fresh oracle over its completed log, and the two must agree.
        let judged = |hook: Option<Box<dyn Interceptor>>| {
            let run = run_once(&setup, &*app, hook);
            assert_eq!(
                run.violations,
                setup.oracle().evaluate_log(&run.os.audit),
                "incremental vs evaluate_log verdicts differ"
            );
            run
        };
        judged(None);
        let mut lines = Vec::new();
        for job in session(base_options()).plan(&*app).jobs() {
            let (hook, fired) = InjectionHook::new(job.clone());
            let run = judged(Some(Box::new(hook)));
            let violations = serde_json::to_string(&run.violations).expect("verdicts serialize");
            lines.push(format!(
                "{}|{}|{}|{}|{:?}|{:?}|{}|{}",
                job.site,
                job.occurrence,
                job.fault.id,
                fired.get(),
                run.exit,
                run.crashed,
                run.os.audit.len(),
                violations
            ));
        }
        let executed = lines.len();
        PathOutcome {
            path: "reference".to_string(),
            lines,
            runs_executed: executed,
            cache_hits: 0,
            pruned: 0,
        }
    });

    // The statically pre-pruned plan. The analyzer may only drop
    // `ProvablyInert` jobs, whose synthesized records must match the
    // exhaustive baseline's byte-for-byte — any unsound classification
    // diverges here and gets shrunk to a minimal world.
    check("pruned", &mut || {
        let options = CampaignOptions {
            cache: Some(ResultCache::new()),
            static_prune: true,
            ..base_options()
        };
        report_outcome("pruned", &session(options).execute(&*app))
    });

    summary.paths = paths;
    summary.divergence = divergence;
    summary
}

/// Sweeps a corpus synthesized from `seed` (see
/// [`super::generate::synthesize`]) through [`differential_check`],
/// shrinking every divergence to a minimal world diff, and rolls up the
/// dashboard.
pub fn run_corpus(seed: u64, scenarios: &[Scenario], factory: AppFactory<'_>) -> CorpusReport {
    let mut outcomes = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        let mut outcome = differential_check(scenario, factory);
        if let Some(d) = &mut outcome.divergence {
            let failing_path = d.path.clone();
            let result = shrink::shrink(scenario, &mut |candidate| {
                differential_check(candidate, factory)
                    .divergence
                    .is_some_and(|cd| cd.path == failing_path)
            });
            d.minimized = result.diff_from_pristine;
        }
        outcomes.push(outcome);
    }
    CorpusReport::from_outcomes(seed, &outcomes)
}
