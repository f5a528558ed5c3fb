//! The wall-clock gates: every timed bound the engine holds, in one harness.
//!
//! `cargo bench -p epa-bench --bench gates` measures every gate, prints one
//! line per gate (name, measured value, bound, PASS/FAIL/SKIP) and, after
//! the last one, exits non-zero if any gate failed, so one noisy gate
//! cannot hide the others. It writes no file into the repository: the store
//! gates work under the system temp directory and remove it afterwards.
//!
//! Gates with several arms interleave them: every sample runs each arm
//! once, the first arm rotating from sample to sample, and the gate
//! compares the medians. Each arm times only its own run, so what it does
//! not mean to measure (building a fresh suite, emptying a store
//! directory) happens outside the timed region.
//!
//! Beside the `executor` and `corpus.speedup` gates, ungated lines time
//! the same planned jobs through bare `run_once` at the same thread counts
//! (`bare.*`), and two independent ALU loops at one and two threads
//! (`host.alu`): a failing scaling gate can then be pinned on the host or
//! on the engine. `executor.sequential` reads the pooled standard suite
//! over the same suite at one worker: below 1 the pool beats sequential.
//! They print a reading and no bound, and never fail. Each is timed in
//! rounds of its own, after the gate it explains, so no gated sample is
//! taken between them.
//!
//! Both `oracle.incremental` arms reuse one standard oracle set across
//! runs, as `run_once` does: the gate weighs streaming against one scan of
//! the finished log, not oracle construction.
//!
//! Deterministic properties (runs executed, replays, byte-identical reports
//! at small scale) are tier-1 tests. The asserts here are of two kinds:
//! those that keep a timing fair (the arms inject the same faults and
//! reach the same verdict count), and those tier-1 runs only at small
//! scale (zero divergences over the 120-scenario corpus, byte-identical
//! corpus-suite reports at 1/4/8 workers, a worker high-water within the
//! pinned count).

use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

use epa_apps::{standard_apps, standard_suite, BoxedApp, ScriptedApp};
use epa_bench::experiments::suite_with_cache;
use epa_core::campaign::{run_once, TestSetup};
use epa_core::corpus::{run_corpus, synthesize, CorpusConfig, Scenario, DEFAULT_CORPUS_SEED};
use epa_core::engine::{executor, Executor, ResultCache, Session, Suite, SuiteReport, WorldSpec};
use epa_core::inject::{InjectionHook, InjectionPlan};
use epa_sandbox::app::Application;
use epa_sandbox::audit::AuditLog;
use epa_sandbox::os::Os;
use epa_sandbox::policy::detectors::{
    CustomDetector, DisclosureDetector, IntegrityDeleteDetector, IntegrityWriteDetector, MemoryCorruptionDetector,
    SpoofedActionDetector, TaintedPrivilegedOpDetector, UntrustedExecDetector,
};
use epa_sandbox::policy::OracleSet;
use epa_sandbox::syscall::Interceptor;

/// The pinned worker counts of the corpus-suite rows.
const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

/// Runs `f` once, returning its output and how long it took.
fn timed<O>(f: impl FnOnce() -> O) -> (O, Duration) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed())
}

/// Median nanoseconds of each arm over `samples` samples, after one
/// untimed warm-up round. Each arm times its own run (with [`timed`]).
/// Sample `s` starts at arm `s % arms.len()`, so drift on a noisy host
/// falls on every arm alike.
fn medians(samples: usize, arms: &mut [&mut dyn FnMut() -> Duration]) -> Vec<f64> {
    for arm in arms.iter_mut() {
        arm();
    }
    let mut times = vec![Vec::with_capacity(samples); arms.len()];
    for s in 0..samples {
        for k in 0..arms.len() {
            let i = (s + k) % arms.len();
            times[i].push(arms[i]());
        }
    }
    times
        .into_iter()
        .map(|mut t| {
            t.sort();
            t[samples / 2].as_nanos() as f64
        })
        .collect()
}

/// What a gate requires of its measured value.
#[derive(Clone, Copy)]
enum Bound {
    AtLeast(f64),
    AtMost(f64),
    Below(f64),
}

impl Bound {
    fn holds(self, value: f64) -> bool {
        match self {
            Bound::AtLeast(b) => value >= b,
            Bound::AtMost(b) => value <= b,
            Bound::Below(b) => value < b,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::AtLeast(b) => write!(f, ">= {b}"),
            Bound::AtMost(b) => write!(f, "<= {b}"),
            Bound::Below(b) => write!(f, "< {b}"),
        }
    }
}

/// The gate lines printed so far, and how many failed.
#[derive(Default)]
struct Gates {
    checked: usize,
    failed: usize,
}

impl Gates {
    /// Prints one gate line. A gate whose `skip` reason is set is
    /// reported but neither passes nor fails.
    fn check(&mut self, name: &str, value: f64, unit: &str, bound: Bound, skip: Option<&str>) {
        let verdict = match skip {
            Some(reason) => format!("SKIP ({reason})"),
            None if bound.holds(value) => "PASS".to_owned(),
            None => {
                self.failed += 1;
                "FAIL".to_owned()
            }
        };
        self.checked += 1;
        println!("{name:<22} {value:>14.3} {unit:<10} bound {bound:<10} {verdict}");
    }

    /// Prints one ungated reading beside the gates it explains.
    fn note(&self, name: &str, value: f64, unit: &str) {
        println!("{name:<22} {value:>14.3} {unit:<10} ungated");
    }
}

/// Runs `jobs` (each an index into `setups` and a planned injection)
/// through bare `run_once` on `threads` threads, job `i` on thread
/// `i % threads`, with no scheduler, cache or analysis: what the hardware
/// gives the runs themselves. One thread runs on the calling thread.
/// Returns the verdict count.
fn bare_runs(setups: &[(&TestSetup, &dyn Application)], jobs: &[(usize, &InjectionPlan)], threads: usize) -> usize {
    let share = |t: usize| -> usize {
        jobs.iter()
            .skip(t)
            .step_by(threads)
            .map(|&(i, job)| {
                let (setup, app) = setups[i];
                let hook = Box::new(InjectionHook::new(job.clone()).0);
                run_once(setup, app, Some(hook)).violations.len()
            })
            .sum()
    };
    if threads == 1 {
        return share(0);
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|t| scope.spawn(move || share(t))).collect();
        handles.into_iter().map(|h| h.join().expect("bare run thread")).sum()
    })
}

/// A dependent chain of integer operations that touches no memory.
fn alu_loop() -> u64 {
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Two independent ALU loops on two threads, against one loop on one
/// thread: 1.00 when the host runs both at full speed, 2.00 when they
/// share one core.
fn host_line(gates: &Gates) {
    let m = medians(
        9,
        &mut [&mut || timed(alu_loop).1, &mut || {
            timed(|| {
                std::thread::scope(|scope| {
                    [scope.spawn(alu_loop), scope.spawn(alu_loop)].map(|h| h.join().expect("ALU thread"))
                })
            })
            .1
        }],
    );
    gates.note("host.alu", m[1] / m[0], "x 1 loop");
}

/// One application run with no oracle attached: the batch arm judges the
/// completed log afterwards.
fn run_unjudged(setup: &TestSetup, app: &BoxedApp, hook: Option<Box<dyn Interceptor>>) -> Os {
    let mut os = setup.world.clone();
    if let Some(h) = hook {
        os.set_interceptor(h);
    }
    let Ok(pid) = os.spawn(
        setup.invoker,
        setup.program.as_deref(),
        setup.args.clone(),
        setup.env.clone(),
        &setup.cwd,
    ) else {
        return os;
    };
    if let Ok(code) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| app.run(&mut os, pid))) {
        os.set_exit(pid, code);
    }
    os
}

/// Every rule family re-scans the completed log on its own. Standard
/// families only: no standard-suite world declares spec invariants.
fn per_family_rescan(log: &AuditLog) -> usize {
    let families: [OracleSet; 8] = [
        OracleSet::empty().with(Box::new(IntegrityWriteDetector::default())),
        OracleSet::empty().with(Box::new(IntegrityDeleteDetector::default())),
        OracleSet::empty().with(Box::new(DisclosureDetector::default())),
        OracleSet::empty().with(Box::new(UntrustedExecDetector::default())),
        OracleSet::empty().with(Box::new(TaintedPrivilegedOpDetector::default())),
        OracleSet::empty().with(Box::new(SpoofedActionDetector::default())),
        OracleSet::empty().with(Box::new(MemoryCorruptionDetector::default())),
        OracleSet::empty().with(Box::new(CustomDetector::default())),
    ];
    families.into_iter().map(|set| set.evaluate_log(log).len()).sum()
}

/// The standard applications with their sessions and planned jobs.
struct Cases {
    apps: Vec<(BoxedApp, WorldSpec)>,
    sessions: Vec<Session>,
    jobs: Vec<Vec<InjectionPlan>>,
}

impl Cases {
    fn new() -> Cases {
        let apps = standard_apps();
        let sessions: Vec<Session> = apps
            .iter()
            .map(|(_, spec)| Session::new(spec).expect("valid specs"))
            .collect();
        let jobs = apps
            .iter()
            .zip(&sessions)
            .map(|((app, _), session)| session.plan(app.as_ref()).jobs())
            .collect();
        Cases { apps, sessions, jobs }
    }

    /// The standard suite's clean run plus every planned job, judged either
    /// by the oracle `run_once` subscribes to the log (`batch` is `None`)
    /// or by one scan of the completed log with `batch`. Like `run_once`,
    /// the scan reuses one standard set, adding and dropping the setup's
    /// invariant detectors around each run, so both arms pay the same
    /// oracle upkeep and differ only in streaming. Returns the total
    /// verdict count.
    fn judge_every_job(&self, mut batch: Option<&mut OracleSet>) -> usize {
        let mut verdicts = 0;
        for (((app, _), session), jobs) in self.apps.iter().zip(&self.sessions).zip(&self.jobs) {
            let hooks = std::iter::once(None).chain(
                jobs.iter()
                    .map(|job| Some(Box::new(InjectionHook::new(job.clone()).0) as Box<dyn Interceptor>)),
            );
            for hook in hooks {
                verdicts += match batch.as_deref_mut() {
                    None => run_once(session.setup(), app.as_ref(), hook).violations.len(),
                    Some(set) => {
                        let os = run_unjudged(session.setup(), app, hook);
                        let standard = set.len();
                        for spec in &session.setup().invariants {
                            set.register(spec.detector());
                        }
                        set.observe_log(&os.audit);
                        let found = set.finish().len();
                        set.truncate(standard);
                        found
                    }
                };
            }
        }
        verdicts
    }

    /// The suite's combined event stream (each app's clean run and first
    /// injected run), replicated past 50,000 events.
    fn big_log(&self) -> AuditLog {
        let mut big = AuditLog::new();
        while big.len() < 50_000 {
            for (((app, _), session), jobs) in self.apps.iter().zip(&self.sessions).zip(&self.jobs) {
                let first = jobs
                    .first()
                    .map(|job| Box::new(InjectionHook::new(job.clone()).0) as Box<dyn Interceptor>);
                for hook in [None, first] {
                    for (_, event) in run_unjudged(session.setup(), app, hook).audit.iter() {
                        big.push(event.clone());
                    }
                }
            }
        }
        big
    }

    /// The retired suite runner: one thread per application, each running
    /// its whole campaign on its own. Returns the faults injected.
    fn per_app_fanout(&self) -> usize {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .apps
                .iter()
                .zip(&self.sessions)
                .map(|((app, _), session)| scope.spawn(move || session.execute(app.as_ref()).injected()))
                .collect();
            handles.into_iter().map(|h| h.join().expect("campaign thread")).sum()
        })
    }
}

/// Faults injected and verdicts reached: what two arms of one gate must
/// agree on.
fn counts(report: &SuiteReport) -> (usize, usize) {
    (report.total_injected(), report.total_violated())
}

/// Copy-on-write snapshot against a deep clone of the lpr world.
fn snapshot_gate(gates: &mut Gates, cases: &Cases) {
    let world = &cases.sessions[0].setup().world;
    let m = medians(
        200,
        &mut [&mut || timed(|| world.clone()).1, &mut || {
            timed(|| world.deep_clone()).1
        }],
    );
    gates.check("snapshot", m[1] / m[0], "x faster", Bound::AtLeast(2.0), None);
}

/// The pooled suite, built fresh for every sample, against the per-app
/// fan-out; then, ungated, the pooled suite against the same suite at one
/// worker, and the planned jobs through bare `run_once` on as many threads
/// as the pool has workers, against one thread per application.
fn executor_gate(gates: &mut Gates, cases: &Cases) {
    let (mut pooled, mut fanout) = (0, 0);
    let setups: Vec<(&TestSetup, &dyn Application)> = cases
        .apps
        .iter()
        .zip(&cases.sessions)
        .map(|((app, _), session)| (session.setup(), app.as_ref() as &dyn Application))
        .collect();
    let jobs: Vec<(usize, &InjectionPlan)> = cases
        .jobs
        .iter()
        .enumerate()
        .flat_map(|(i, jobs)| jobs.iter().map(move |job| (i, job)))
        .collect();
    let workers = Executor::new().workers();
    let per_app = || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..setups.len())
                .map(|i| {
                    let mine: Vec<_> = jobs.iter().copied().filter(|&(app, _)| app == i).collect();
                    let setups = &setups;
                    scope.spawn(move || bare_runs(setups, &mine, 1))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("bare app thread"))
                .sum::<usize>()
        })
    };
    let m = medians(
        15,
        &mut [
            &mut || {
                let suite = standard_suite().expect("valid specs");
                timed(|| pooled = suite.execute().total_injected()).1
            },
            &mut || timed(|| fanout = cases.per_app_fanout()).1,
        ],
    );
    assert_eq!(pooled, fanout, "both runners inject the same faults");
    gates.check("executor", m[0] / m[1], "x fan-out", Bound::AtMost(1.05), None);

    let mut sequential = 0;
    let m = medians(
        15,
        &mut [
            &mut || {
                let suite = standard_suite().expect("valid specs");
                timed(|| pooled = suite.execute().total_injected()).1
            },
            &mut || {
                let suite = standard_suite().expect("valid specs").with_workers(1);
                timed(|| sequential = suite.execute().total_injected()).1
            },
        ],
    );
    assert_eq!(pooled, sequential, "both suites inject the same faults");
    gates.note("executor.sequential", m[0] / m[1], "x 1 worker");

    let (mut bare_pooled, mut bare_fanout) = (0, 0);
    let m = medians(
        15,
        &mut [
            &mut || timed(|| bare_pooled = bare_runs(&setups, &jobs, workers)).1,
            &mut || timed(|| bare_fanout = per_app()).1,
        ],
    );
    assert_eq!(bare_pooled, bare_fanout, "both bare arms reach the same verdicts");
    gates.note("bare.executor", m[0] / m[1], "x fan-out");
}

/// The subscribed oracle against a batch scan over the suite's whole
/// workload, then the single pass against a per-family re-scan, and the
/// single pass's throughput, on one large log.
fn oracle_gates(gates: &mut Gates, cases: &Cases) {
    let (mut incremental, mut batch) = (0, 0);
    let mut reused = OracleSet::standard();
    let m = medians(
        15,
        &mut [
            &mut || timed(|| incremental = cases.judge_every_job(None)).1,
            &mut || timed(|| batch = cases.judge_every_job(Some(&mut reused))).1,
        ],
    );
    assert_eq!(incremental, batch, "both oracle paths reach the same verdicts");
    gates.check("oracle.incremental", m[0] / m[1], "x batch", Bound::AtMost(1.10), None);

    let big = cases.big_log();
    let (mut single, mut family) = (0, 0);
    let m = medians(
        15,
        &mut [
            &mut || {
                timed(|| {
                    let mut set = OracleSet::standard();
                    set.observe_log(&big);
                    single = set.finish().len();
                })
                .1
            },
            &mut || timed(|| family = per_family_rescan(&big)).1,
        ],
    );
    assert_eq!(single, family, "both scans reach the same verdicts");
    gates.check("oracle.single_pass", m[0] / m[1], "x rescan", Bound::AtMost(1.05), None);
    let events_per_sec = big.len() as f64 / (m[0] / 1e9);
    gates.check(
        "oracle.throughput",
        events_per_sec,
        "events/s",
        Bound::AtLeast(1e6),
        None,
    );
}

/// Two passes of one suite over one result cache, the second replaying
/// from it, against two passes that each execute on a fresh suite with no
/// cache.
fn planner_gate(gates: &mut Gates) {
    let exhaustive = || standard_suite().expect("valid specs");
    let (mut memo, mut cold) = ([(0, 0); 2], [(0, 0); 2]);
    let m = medians(
        9,
        &mut [
            &mut || {
                let suite = standard_suite()
                    .expect("valid specs")
                    .with_result_cache(ResultCache::new());
                timed(|| memo = [counts(&suite.execute()), counts(&suite.execute())]).1
            },
            &mut || {
                let (first, second) = (exhaustive(), exhaustive());
                timed(|| cold = [counts(&first.execute()), counts(&second.execute())]).1
            },
        ],
    );
    assert_eq!(
        memo, cold,
        "both arms inject the same faults and reach the same verdicts"
    );
    gates.check("planner", m[0] / m[1], "x exhaust", Bound::AtMost(1.05), None);
}

/// A warm suite over a populated store, each sample through a fresh
/// handle, against a cold suite into an empty store and against
/// re-executing in memory.
fn store_gates(gates: &mut Gates) {
    let root = std::env::temp_dir().join(format!("epa-gates-{}", std::process::id()));
    let (warm_dir, cold_dir) = (root.join("warm"), root.join("cold"));
    let persistent = |dir: &Path| ResultCache::persistent(dir).expect("the gate's store directory opens");
    let (_, manifest) = suite_with_cache(persistent(&warm_dir));
    manifest.write_to(&warm_dir).expect("the campaign manifest writes");

    let (mut warm, mut cold, mut memory) = ((0, 0), (0, 0), (0, 0));
    let m = medians(
        9,
        &mut [
            &mut || timed(|| warm = counts(&suite_with_cache(persistent(&warm_dir)).0)).1,
            &mut || {
                let _ = std::fs::remove_dir_all(&cold_dir);
                timed(|| {
                    let (report, manifest) = suite_with_cache(persistent(&cold_dir));
                    manifest.write_to(&cold_dir).expect("the campaign manifest writes");
                    cold = counts(&report);
                })
                .1
            },
            &mut || timed(|| memory = counts(&suite_with_cache(ResultCache::new()).0)).1,
        ],
    );
    let _ = std::fs::remove_dir_all(&root);
    assert!(warm == cold && cold == memory, "every arm reaches the same verdicts");
    gates.check("store.warm_vs_cold", m[0] / m[1], "x cold", Bound::Below(1.0), None);
    gates.check("store.warm_vs_memory", m[0] / m[2], "x memory", Bound::Below(1.0), None);
}

/// The corpus registered as one campaign per scenario, with no cache.
fn corpus_suite(scenarios: &[Scenario]) -> Suite {
    let mut suite = Suite::new();
    for scenario in scenarios {
        let setup = scenario.spec.materialize().expect("corpus worlds materialize");
        suite.register_session(ScriptedApp::for_scenario(scenario), Session::from_setup(setup));
    }
    suite
}

/// Ungated: the corpus campaigns' planned jobs through bare `run_once` at
/// each pinned worker count, timed apart from the gated rows.
fn bare_corpus_line(gates: &Gates, scenarios: &[Scenario]) {
    let planned: Vec<(TestSetup, ScriptedApp)> = scenarios
        .iter()
        .map(|scenario| {
            let setup = scenario.spec.materialize().expect("corpus worlds materialize");
            (setup, ScriptedApp::for_scenario(scenario))
        })
        .collect();
    let plans: Vec<Vec<InjectionPlan>> = planned
        .iter()
        .map(|(setup, app)| Session::from_setup(setup.clone()).plan(app).jobs())
        .collect();
    let setups: Vec<(&TestSetup, &dyn Application)> = planned
        .iter()
        .map(|(setup, app)| (setup, app as &dyn Application))
        .collect();
    let jobs: Vec<(usize, &InjectionPlan)> = plans
        .iter()
        .enumerate()
        .flat_map(|(i, jobs)| jobs.iter().map(move |job| (i, job)))
        .collect();
    let row = |threads: usize| {
        let (setups, jobs) = (&setups, &jobs);
        move || timed(|| bare_runs(setups, jobs, threads)).1
    };
    let mut rows = WORKER_COUNTS.map(row);
    let m = medians(5, &mut rows.each_mut().map(|r| r as &mut dyn FnMut() -> Duration));
    gates.note("bare.corpus", m[0] / m[1].min(m[2]), "x 1 thread");
}

/// The 120-scenario corpus, synthesized once: as a suite at each pinned
/// worker count, then through one differential sweep.
fn corpus_gates(gates: &mut Gates, available: usize) {
    let config = CorpusConfig {
        seed: DEFAULT_CORPUS_SEED,
        count: 120,
    };
    let scenarios = synthesize(&config);

    let reports = WORKER_COUNTS.map(|workers| {
        executor::reset_peak_live_workers();
        let report = corpus_suite(&scenarios).with_workers(workers).execute();
        let peak = executor::peak_live_workers();
        // One worker runs inline, on no pool thread the gauge counts.
        let floor = usize::from(workers > 1);
        assert!(
            (floor..=workers).contains(&peak),
            "{workers} pinned workers recorded a {peak} high-water"
        );
        serde_json::to_string(&report).expect("suite reports serialize")
    });
    assert!(
        reports.iter().all(|r| *r == reports[0]),
        "the corpus suite's report depends on its worker count"
    );
    let row = |workers: usize| {
        let scenarios = &scenarios;
        move || {
            let suite = corpus_suite(scenarios).with_workers(workers);
            timed(|| suite.execute()).1
        }
    };
    let mut rows = WORKER_COUNTS.map(row);
    let m = medians(5, &mut rows.each_mut().map(|r| r as &mut dyn FnMut() -> Duration));
    println!(
        "corpus rows: {:.1} ms at 1 worker, {:.1} ms at 4, {:.1} ms at 8",
        m[0] / 1e6,
        m[1] / 1e6,
        m[2] / 1e6
    );
    let skip = (available < 2).then_some("one CPU");
    let speedup = m[0] / m[1].min(m[2]);
    gates.check("corpus.speedup", speedup, "x 1 worker", Bound::AtLeast(1.5), skip);
    gates.check("corpus.one_worker", m[0] / 1e9, "s", Bound::AtMost(60.0), None);
    bare_corpus_line(gates, &scenarios);

    let factory = ScriptedApp::factory();
    let (sweep, took) = timed(|| run_corpus(config.seed, &scenarios, &factory));
    assert_eq!(sweep.scenarios, config.count);
    assert_eq!(
        sweep.divergences, 0,
        "execution paths diverged; `reproduce corpus` prints each scenario's seed"
    );
    gates.check("corpus.sweep", took.as_secs_f64(), "s", Bound::AtMost(180.0), None);
}

fn main() {
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("gates: available_parallelism {available}");
    let cases = Cases::new();
    let mut gates = Gates::default();
    host_line(&gates);
    snapshot_gate(&mut gates, &cases);
    executor_gate(&mut gates, &cases);
    oracle_gates(&mut gates, &cases);
    planner_gate(&mut gates);
    store_gates(&mut gates);
    corpus_gates(&mut gates, available);
    println!("gates: {} of {} failed", gates.failed, gates.checked);
    if gates.failed > 0 {
        std::process::exit(1);
    }
}
