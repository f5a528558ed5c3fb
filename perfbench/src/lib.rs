//! The repository's end-to-end benchmark: the wall-clock of a whole
//! campaign batch, from world specs to checked verdicts, on three
//! workloads, plus a traced runner that splits the same batch by layer.
//!
//! A *pass* is one campaign batch. One closed-loop client runs passes back
//! to back, each on the engine's pooled executor pinned to
//! `available_parallelism` workers, and checks every pass's verdicts
//! against an exhaustive sequential reference computed during set-up.
//!
//! * `suite` — the eight-application standard suite, as `reproduce -- suite`
//!   runs it: materialize, pooled `execute` on a fresh in-memory cache,
//!   `render_text` and the vulnerability-class rollup.
//! * `corpus` — 120 synthesized scenarios run as one 120-campaign pooled
//!   suite on a fresh cache: per-campaign fixed costs and cross-campaign
//!   queueing dominate.
//! * `store` — the standard suite replayed from a persistent `DiskStore`
//!   that set-up populated (a cold run that executes and writes): every
//!   pass opens a fresh handle on it, as a second process would, and must
//!   execute nothing.
//!
//! The seed picks the registration order of the eight applications
//! (`suite`, `store`) or the synthesized corpus (`corpus`).

pub mod traced;

use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use epa_apps::{BoxedApp, ScriptedApp};
use epa_core::campaign::CampaignOptions;
use epa_core::corpus::{synthesize, CorpusConfig, Scenario};
use epa_core::engine::{Engine, ResultCache, Session, Suite, SuiteReport, WorldSpec};
use epa_core::report::CampaignReport;
use epa_core::store::{DiskStore, SuiteManifest};

/// Scenarios per corpus pass: the ROADMAP's 120-scenario corpus sweep.
pub const CORPUS_SCENARIOS: usize = 120;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The eight-application standard suite on a fresh in-memory cache.
    Suite,
    /// 120 synthesized scenarios as one pooled suite.
    Corpus,
    /// The standard suite replayed from a persistent disk store populated
    /// at set-up.
    Store,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Suite, Workload::Corpus, Workload::Store];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::Corpus => "corpus",
            Workload::Store => "store",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// splitmix64 finalizer: the seed-derived stream that orders the apps.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generated inputs of one workload. The same seed gives the same
/// inputs; the program only ever sees the specs and apps built from them.
pub struct Inputs {
    /// Which workload the inputs feed.
    pub workload: Workload,
    /// The campaign options every registered session carries.
    pub options: CampaignOptions,
    /// Registration order of the standard applications (`suite`, `store`).
    order: Vec<usize>,
    /// The synthesized scenarios (`corpus`).
    scenarios: Vec<Scenario>,
}

impl Inputs {
    /// Generates a workload's inputs from `seed`.
    pub fn new(workload: Workload, seed: u64, options: CampaignOptions) -> Inputs {
        Inputs::with_scenarios(workload, seed, options, CORPUS_SCENARIOS)
    }

    /// As [`Inputs::new`], with an explicit corpus size (tests use small
    /// corpora; the benchmark always uses [`CORPUS_SCENARIOS`]).
    pub fn with_scenarios(workload: Workload, seed: u64, options: CampaignOptions, scenarios: usize) -> Inputs {
        let (order, scenarios) = match workload {
            Workload::Corpus => (Vec::new(), synthesize(&CorpusConfig { seed, count: scenarios })),
            Workload::Suite | Workload::Store => {
                let mut order: Vec<usize> = (0..epa_apps::standard_apps().len()).collect();
                let mut state = seed;
                for i in (1..order.len()).rev() {
                    state = mix(state);
                    order.swap(i, (state % (i as u64 + 1)) as usize);
                }
                (order, Vec::new())
            }
        };
        Inputs {
            workload,
            options,
            order,
            scenarios,
        }
    }

    /// The campaigns of one pass as `(application, world spec)` pairs in
    /// registration order. Standard-suite specs are rebuilt per call, as
    /// `epa_apps::standard_suite` does; corpus specs are borrowed.
    pub fn campaigns(&self) -> Vec<(BoxedApp, Cow<'_, WorldSpec>)> {
        if self.workload == Workload::Corpus {
            return self
                .scenarios
                .iter()
                .map(|s| {
                    (
                        Box::new(ScriptedApp::for_scenario(s)) as BoxedApp,
                        Cow::Borrowed(&s.spec),
                    )
                })
                .collect();
        }
        let mut apps: Vec<Option<(BoxedApp, WorldSpec)>> = epa_apps::standard_apps().into_iter().map(Some).collect();
        self.order
            .iter()
            .map(|&i| {
                let (app, spec) = apps[i].take().expect("the order is a permutation");
                (app, Cow::Owned(spec))
            })
            .collect()
    }

    /// A freshly registered suite: every spec materialized, a fresh
    /// suite-scoped cache. The first step of every untraced pass.
    pub fn suite(&self) -> Suite {
        if self.workload == Workload::Corpus {
            let mut suite = Suite::new();
            for scenario in &self.scenarios {
                let setup = scenario.spec.materialize().expect("corpus worlds materialize");
                suite.register_session(
                    ScriptedApp::for_scenario(scenario),
                    Session::from_setup(setup).with_options(self.options.clone()),
                );
            }
            return suite;
        }
        let pairs = self
            .campaigns()
            .into_iter()
            .map(|(app, spec)| (app, spec.into_owned()))
            .collect();
        Engine::new()
            .with_options(self.options.clone())
            .suite_of(pairs)
            .expect("the case-study specs are valid")
    }

    /// The exhaustive sequential reference: every campaign through its own
    /// cache-less session with static pruning and dedup off, one after
    /// another on this thread. (`Suite::sequential` would still install a
    /// suite-scoped cache, so the reference uses sessions directly.)
    pub fn reference(&self) -> String {
        let options = CampaignOptions {
            static_prune: false,
            dedup: false,
            cache: None,
            ..self.options.clone()
        };
        let mut out = String::new();
        for (app, spec) in self.campaigns() {
            let session = Session::new(&spec)
                .expect("benchmark specs materialize")
                .with_options(options.clone());
            push_verdicts(&mut out, &session.execute(app.as_ref()));
        }
        out
    }
}

/// One line per record, `app|site|occurrence|fault_id|violations`, in
/// report order. The `cache_hit` and `pruned` provenance flags are left
/// out: they are the only fields replay and pruning may change.
pub fn verdict_set(report: &SuiteReport) -> String {
    let mut out = String::new();
    for campaign in &report.reports {
        push_verdicts(&mut out, campaign);
    }
    out
}

fn push_verdicts(out: &mut String, report: &CampaignReport) {
    for r in &report.records {
        let violations = serde_json::to_string(&r.violations).expect("verdicts serialize");
        let _ = writeln!(
            out,
            "{}|{}|{}|{}|{violations}",
            report.app, r.site, r.occurrence, r.fault_id
        );
    }
}

/// One untraced pass.
pub struct Pass {
    /// Wall-clock of the pass.
    pub wall_ns: u64,
    /// Fault records delivered: executed, replayed or pruned.
    pub records: usize,
    /// The suite reports the pass produced.
    pub reports: Vec<SuiteReport>,
}

/// A set-up workload: inputs, the reference verdicts, and the worker count.
pub struct Bench {
    /// The generated inputs.
    pub inputs: Inputs,
    /// The exhaustive sequential reference verdict set.
    pub reference: String,
    /// Pooled executor workers per pass.
    pub workers: usize,
    /// The store workload's lockfile manifest (planning is deterministic,
    /// so one manifest covers every pass).
    manifest: Option<SuiteManifest>,
    /// Where the store workload creates its directories.
    tmp_root: PathBuf,
    /// The store workload's populated store and the report of the cold run
    /// that populated it. Removed when the bench is dropped.
    populated: Option<(PathBuf, SuiteReport)>,
}

impl Bench {
    /// Set-up: generates the inputs, computes the reference, plans the
    /// store manifest and populates the store, then runs one warm-up pass.
    /// The warm-up's own check is not fatal: every timed pass repeats it
    /// and counts its failure.
    ///
    /// # Panics
    ///
    /// If the store workload's populating run fails its check: no timed
    /// pass could then be checked.
    pub fn setup(workload: Workload, seed: u64, options: CampaignOptions, workers: usize, tmp_root: &Path) -> Bench {
        Bench::from_inputs(Inputs::new(workload, seed, options), workers, tmp_root)
    }

    /// As [`Bench::setup`], over already generated inputs.
    ///
    /// # Panics
    ///
    /// As [`Bench::setup`].
    pub fn from_inputs(inputs: Inputs, workers: usize, tmp_root: &Path) -> Bench {
        let reference = inputs.reference();
        let manifest = (inputs.workload == Workload::Store).then(|| inputs.suite().manifest());
        let mut bench = Bench {
            inputs,
            reference,
            workers,
            manifest,
            tmp_root: tmp_root.to_path_buf(),
            populated: None,
        };
        if bench.inputs.workload == Workload::Store {
            let dir = bench.fresh_dir();
            let cold = bench.persistent_run(&dir).and_then(|cold| {
                bench.check_cold(&cold)?;
                Ok(cold)
            });
            match cold {
                Ok(cold) => bench.populated = Some((dir, cold)),
                Err(e) => {
                    let _ = std::fs::remove_dir_all(&dir);
                    panic!("store population: {e}")
                }
            }
        }
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bench.pass()));
        bench
    }

    /// A fresh, not yet existing store directory.
    pub fn fresh_dir(&self) -> PathBuf {
        // Process-wide, so set-ups repeated in one run never share a name.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        self.tmp_root.join(format!("store-{n}"))
    }

    /// The set-up's cold run into the store (`store` only): the report a
    /// traced pass's cold half must reproduce.
    pub fn cold_report(&self) -> Option<&SuiteReport> {
        self.populated.as_ref().map(|(_, cold)| cold)
    }

    /// One pooled suite run through a fresh persistent handle on `dir`.
    fn persistent_run(&self, dir: &Path) -> Result<SuiteReport, String> {
        let cache = ResultCache::persistent(dir).map_err(|e| format!("store open: {e}"))?;
        Ok(self
            .inputs
            .suite()
            .with_workers(self.workers)
            .with_result_cache(cache)
            .execute())
    }

    /// Runs one untraced pass and checks it.
    ///
    /// # Errors
    ///
    /// A verdict set that differs from the reference, or a failed
    /// workload check.
    pub fn pass(&self) -> Result<Pass, String> {
        let start = Instant::now();
        let report = match &self.populated {
            Some((dir, _)) => self.persistent_run(dir)?,
            None => self.inputs.suite().with_workers(self.workers).execute(),
        };
        if self.inputs.workload == Workload::Suite {
            std::hint::black_box(report.render_text());
            std::hint::black_box(epa_vulndb::suite_class_rollup(&report));
        }
        let wall_ns = elapsed_ns(start);
        match &self.populated {
            Some((dir, _)) => self.check_warm(dir, &report)?,
            None => self.check(&report)?,
        }
        Ok(Pass {
            wall_ns,
            records: report.total_injected(),
            reports: vec![report],
        })
    }

    /// Checks one report's verdicts against the reference.
    ///
    /// # Errors
    ///
    /// A description of the mismatch.
    pub fn check(&self, report: &SuiteReport) -> Result<(), String> {
        if verdict_set(report) == self.reference {
            Ok(())
        } else {
            Err(format!(
                "{}: verdict set differs from the exhaustive sequential reference",
                self.inputs.workload.name()
            ))
        }
    }

    /// A cold run into an empty store matches the reference and executed
    /// runs.
    fn check_cold(&self, cold: &SuiteReport) -> Result<(), String> {
        self.check(cold)?;
        if cold.total_runs_executed() == 0 {
            return Err("store: the cold run executed nothing".into());
        }
        Ok(())
    }

    /// A warm run matches the reference and replayed everything, and the
    /// manifest verifies complete against the directory.
    fn check_warm(&self, dir: &Path, warm: &SuiteReport) -> Result<(), String> {
        self.check(warm)?;
        if warm.total_runs_executed() != 0 {
            return Err(format!(
                "store: the warm run executed {} runs, expected 0",
                warm.total_runs_executed()
            ));
        }
        let manifest = self.manifest.as_ref().expect("the store workload plans a manifest");
        let store = DiskStore::open(dir).map_err(|e| format!("store reopen: {e}"))?;
        let verified = manifest.verify(&store);
        if !verified.is_complete() {
            return Err(format!("store: manifest misses {} keys", verified.missing.len()));
        }
        Ok(())
    }

    /// The checks of a cold half into a fresh store followed by a warm
    /// half from a second handle on it.
    ///
    /// # Errors
    ///
    /// A description of the first failed check.
    pub fn check_store(&self, dir: &Path, halves: &[SuiteReport]) -> Result<(), String> {
        let [cold, warm] = halves else {
            return Err("store: a traced pass has a cold and a warm half".into());
        };
        self.check_cold(cold)?;
        self.check_warm(dir, warm)
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        if let Some((dir, _)) = &self.populated {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Nanoseconds since `start`, saturating.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The `p`-th percentile (0..=100) of `values` by nearest rank; 0 when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle two when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        f64::midpoint(sorted[mid - 1], sorted[mid])
    } else {
        sorted[mid]
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Facts about the host and build recorded with every result.
#[derive(Debug, Clone)]
pub struct Host {
    /// Output of `nproc`.
    pub nproc: String,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Probes the host. Each probe runs to completion before returning.
    pub fn probe() -> Host {
        Host {
            nproc: command_line("nproc", &[]),
            available_parallelism: available_parallelism(),
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The first line a command prints, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}
