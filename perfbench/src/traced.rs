//! The traced runner: the pooled suite's job shape rebuilt from public
//! calls, with a span around every call into a layer.
//!
//! [`execute`] drives the same Plan → Inject job stream as
//! `Suite::execute_with` through `Executor::run_expanding`: a planning job
//! per campaign, then schedule construction (keys, dedup, static pruning,
//! cache lookups) and replays on the calling thread, then one job per
//! pending canonical run on the workers, claim-aware through
//! `ResultCache::begin`. Its reports must equal `Suite::execute`'s, which
//! the benchmark checks on every traced pass, so the spans describe the
//! program the untraced passes time.
//!
//! Workers time their own calls and send the timings back with their
//! result, so the hot loop takes no lock. Two spans do extra work that the
//! engine does inside `run_once`: `sandbox.snapshot` clones the pristine
//! world once more, and `oracle.replay` feeds the run's audit log through
//! a fresh oracle set, whose verdicts must equal the incremental ones.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use epa_apps::BoxedApp;
use epa_core::analysis::AppAnalysis;
use epa_core::campaign::{run_once, CampaignOptions, CampaignPlan};
use epa_core::engine::planner::{fnv1a, Claim};
use epa_core::engine::{Executor, FaultKey, ResultCache, RunDigest, Session, SuiteReport, WorldSpec};
use epa_core::inject::{InjectionHook, InjectionPlan};
use epa_core::report::{CampaignReport, FaultRecord};
use epa_core::store::{DiskStore, ResultStore};
use epa_sandbox::intern;

use crate::{elapsed_ns, median, percentile, Bench, Workload};

/// Calls and busy time of one layer, with every call's duration.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Calls timed.
    pub calls: u64,
    /// Total busy nanoseconds.
    pub ns: u64,
    /// Each call's nanoseconds, in completion order.
    pub samples: Vec<u64>,
}

/// Everything one traced pass recorded.
#[derive(Debug, Clone, Default)]
pub struct PassTrace {
    /// Per-layer spans, by layer name.
    pub layers: BTreeMap<&'static str, Layer>,
    /// Exact event counts (cache hits, aliases, pruned jobs, ...).
    pub counters: BTreeMap<&'static str, u64>,
    /// Wall-clock of the whole pass.
    pub wall_ns: u64,
    /// Wall-clock spent inside `Executor::run_expanding`.
    pub exec_wall_ns: u64,
    /// Executor workers.
    pub workers: usize,
}

impl PassTrace {
    /// Records one call of `layer`.
    pub fn add(&mut self, layer: &'static str, ns: u64) {
        let entry = self.layers.entry(layer).or_default();
        entry.calls += 1;
        entry.ns += ns;
        entry.samples.push(ns);
    }

    /// Times `f` as one call of `layer`.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(layer, elapsed_ns(start));
        out
    }

    /// Adds `n` to an exact counter.
    pub fn count(&mut self, counter: &'static str, n: u64) {
        *self.counters.entry(counter).or_default() += n;
    }

    /// A layer's record (empty when the layer never ran).
    pub fn layer(&self, name: &str) -> &Layer {
        static NEVER_RAN: Layer = Layer {
            calls: 0,
            ns: 0,
            samples: Vec::new(),
        };
        self.layers.get(name).unwrap_or(&NEVER_RAN)
    }

    /// An exact counter (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// A [`ResultStore`] that times every `load` and `save` of the
/// [`DiskStore`] it wraps and changes nothing else.
pub struct TimedStore {
    inner: DiskStore,
    loads: Mutex<Vec<u64>>,
    saves: Mutex<Vec<u64>>,
    hits: AtomicU64,
}

impl TimedStore {
    /// Wraps an open disk store.
    pub fn new(inner: DiskStore) -> TimedStore {
        TimedStore {
            inner,
            loads: Mutex::new(Vec::new()),
            saves: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
        }
    }

    /// Moves the recorded timings into `trace` as `store.load` and
    /// `store.save`, and the load hits into the `store.hits` counter.
    pub fn drain_into(&self, trace: &mut PassTrace) {
        for (layer, samples) in [("store.load", &self.loads), ("store.save", &self.saves)] {
            let samples = std::mem::take(&mut *samples.lock().unwrap_or_else(PoisonError::into_inner));
            for ns in samples {
                trace.add(layer, ns);
            }
        }
        trace.count("store.hits", self.hits.swap(0, Ordering::Relaxed));
    }
}

impl ResultStore for TimedStore {
    fn load(&self, scope: u64, key: &FaultKey) -> Option<RunDigest> {
        let start = Instant::now();
        let found = self.inner.load(scope, key);
        let ns = elapsed_ns(start);
        self.loads.lock().unwrap_or_else(PoisonError::into_inner).push(ns);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn save(&self, scope: u64, key: &FaultKey, digest: &RunDigest) {
        let start = Instant::now();
        self.inner.save(scope, key, digest);
        let ns = elapsed_ns(start);
        self.saves.lock().unwrap_or_else(PoisonError::into_inner).push(ns);
    }

    fn entries(&self) -> usize {
        self.inner.entries()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// Per-step timings, sent back with the step's result.
type StepSpans = Vec<(&'static str, u64)>;

fn timed<T>(spans: &mut StepSpans, layer: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    spans.push((layer, elapsed_ns(start)));
    out
}

/// One campaign of the batch.
struct Camp {
    app: BoxedApp,
    session: Session,
}

/// One unit of work on the shared queue, stamped when it was enqueued.
enum Job {
    Plan {
        app: usize,
        enqueued: Instant,
    },
    Inject {
        app: usize,
        idx: usize,
        scope: u64,
        job: Box<InjectionPlan>,
        enqueued: Instant,
    },
}

enum Done {
    Planned {
        app: usize,
        plan: Box<CampaignPlan>,
        analysis: Option<Box<AppAnalysis>>,
    },
    Ran {
        app: usize,
        idx: usize,
        record: Box<FaultRecord>,
    },
}

/// A step's result plus what the worker measured around it.
struct StepOut {
    done: Done,
    spans: StepSpans,
    counters: Vec<(&'static str, u64)>,
    wait_ns: u64,
    busy_ns: u64,
}

/// Per-campaign assembly state on the calling thread.
#[derive(Default)]
struct Slot {
    plan: Option<Box<CampaignPlan>>,
    jobs: Vec<InjectionPlan>,
    keys: Vec<FaultKey>,
    aliases: BTreeMap<usize, Vec<usize>>,
    scope: u64,
    records: Vec<Option<FaultRecord>>,
    outstanding: usize,
    report: Option<CampaignReport>,
}

/// Executes one campaign batch the way the pooled `Suite::execute` does,
/// recording spans into `trace`. `options` must carry no cache and no
/// budget: the batch uses `cache`, and budgeted campaigns are not traced.
pub fn execute(
    campaigns: Vec<(BoxedApp, Cow<'_, WorldSpec>)>,
    options: &CampaignOptions,
    cache: &ResultCache,
    workers: usize,
    trace: &mut PassTrace,
) -> SuiteReport {
    assert!(
        options.cache.is_none() && options.plan_budget.is_none(),
        "the traced runner supplies the cache and runs unbudgeted campaigns"
    );
    // Planning runs with pruning off so the analysis is built, and timed,
    // on its own; the schedule then consults it exactly as the engine does.
    let plan_options = CampaignOptions {
        static_prune: false,
        ..options.clone()
    };
    let camps: Vec<Camp> = campaigns
        .into_iter()
        .map(|(app, spec)| {
            let setup = trace.time("spec.materialize", || {
                spec.materialize().expect("benchmark specs materialize")
            });
            Camp {
                app,
                session: Session::from_setup(setup).with_options(plan_options.clone()),
            }
        })
        .collect();
    let prune = options.static_prune;
    let dedup = options.dedup;
    let mut slots: Vec<Slot> = camps.iter().map(|_| Slot::default()).collect();
    let start = Instant::now();
    let seed: Vec<Job> = (0..camps.len()).map(|app| Job::Plan { app, enqueued: start }).collect();
    let run = |job: Job| step(&camps, cache, prune, job);
    Executor::with_workers(workers).run_expanding(seed, run, &mut |out: StepOut| {
        for (layer, ns) in out.spans {
            trace.add(layer, ns);
        }
        for (counter, n) in out.counters {
            trace.count(counter, n);
        }
        trace.add("executor.queue_wait", out.wait_ns);
        trace.add("executor.step", out.busy_ns);
        let began = Instant::now();
        let follow_ups = match out.done {
            Done::Planned { app, plan, analysis } => planned(
                &camps[app],
                &mut slots[app],
                app,
                plan,
                analysis.as_deref(),
                cache,
                dedup,
                trace,
            ),
            Done::Ran { app, idx, record } => {
                ran(&camps[app], &mut slots[app], idx, *record, cache, trace);
                Vec::new()
            }
        };
        trace.add("executor.reassemble", elapsed_ns(began));
        follow_ups
    });
    trace.exec_wall_ns += elapsed_ns(start);
    trace.workers = workers;
    SuiteReport {
        reports: slots
            .into_iter()
            .map(|s| s.report.expect("every campaign completes"))
            .collect(),
    }
}

/// One queue job on a worker (or inline, with one worker).
fn step(camps: &[Camp], cache: &ResultCache, prune: bool, job: Job) -> StepOut {
    let began = Instant::now();
    let mut spans = StepSpans::new();
    let mut counters = Vec::new();
    let (done, enqueued) = match job {
        Job::Plan { app, enqueued } => {
            let camp = &camps[app];
            let plan = timed(&mut spans, "plan", || camp.session.plan(camp.app.as_ref()));
            let analysis = prune.then(|| {
                timed(&mut spans, "analysis.build", || {
                    Box::new(AppAnalysis::from_clean_run(camp.session.setup(), &plan.clean))
                })
            });
            let plan = Box::new(plan);
            (Done::Planned { app, plan, analysis }, enqueued)
        }
        Job::Inject {
            app,
            idx,
            scope,
            job,
            enqueued,
        } => {
            // `Campaign::run_job_cached`: claim, execute, fulfil.
            let key = timed(&mut spans, "planner.key", || FaultKey::of(&job));
            let record = match timed(&mut spans, "cache.begin", || cache.begin(scope, &key)) {
                Claim::Replay(digest) => {
                    counters.push(("cache.begin.replay", 1));
                    timed(&mut spans, "planner.replay", || digest.replay(&job))
                }
                Claim::Execute(token) => {
                    let record = run_job(&camps[app], &job, &mut spans, &mut counters);
                    let digest = timed(&mut spans, "planner.digest", || RunDigest::of(&record));
                    timed(&mut spans, "cache.fulfill", || token.fulfill(digest));
                    record
                }
            };
            let record = Box::new(record);
            (Done::Ran { app, idx, record }, enqueued)
        }
    };
    StepOut {
        done,
        spans,
        counters,
        wait_ns: u64::try_from(began.saturating_duration_since(enqueued).as_nanos()).unwrap_or(u64::MAX),
        busy_ns: elapsed_ns(began),
    }
}

/// `Campaign::run_job`, split into snapshot, run and oracle spans.
fn run_job(
    camp: &Camp,
    job: &InjectionPlan,
    spans: &mut StepSpans,
    counters: &mut Vec<(&'static str, u64)>,
) -> FaultRecord {
    let setup = camp.session.setup();
    timed(spans, "sandbox.snapshot", || {
        drop(std::hint::black_box(setup.world.clone()));
    });
    let (hook, fired) = InjectionHook::new(job.clone());
    let outcome = timed(spans, "run", || {
        run_once(setup, camp.app.as_ref(), Some(Box::new(hook)))
    });
    let replayed = timed(spans, "oracle.replay", || {
        let mut oracle = setup.oracle();
        for (idx, event) in outcome.os.audit.iter() {
            oracle.observe(idx, event);
        }
        oracle.finish()
    });
    counters.push(("oracle.events", outcome.os.audit.len() as u64));
    if replayed != outcome.violations {
        counters.push(("oracle.mismatch", 1));
    }
    FaultRecord {
        site: job.site.to_string(),
        occurrence: job.occurrence,
        fault_id: job.fault.id.clone(),
        category: job.fault.category,
        description: job.fault.description.clone(),
        applied: fired.get(),
        exit: outcome.exit,
        crashed: outcome.crashed,
        audit_events: outcome.os.audit.len(),
        cache_hit: false,
        pruned: false,
        violations: outcome.violations,
    }
}

/// A campaign's plan arrived: build its schedule as `Schedule::build`
/// does (keys, dedup, prune before cache), replay what resolves inline,
/// and hand the pending canonical jobs back to the queue.
#[allow(clippy::too_many_arguments)]
fn planned(
    camp: &Camp,
    slot: &mut Slot,
    app: usize,
    plan: Box<CampaignPlan>,
    analysis: Option<&AppAnalysis>,
    cache: &ResultCache,
    dedup: bool,
    trace: &mut PassTrace,
) -> Vec<Job> {
    let fingerprint = trace.time("fingerprint", || camp.session.setup().fingerprint());
    slot.scope = fnv1a(format!("{}\n{fingerprint:016x}", camp.app.name()).as_bytes());
    slot.jobs = plan.jobs();
    slot.keys = slot
        .jobs
        .iter()
        .map(|job| trace.time("planner.key", || FaultKey::of(job)))
        .collect();
    let mut canonical = Vec::with_capacity(slot.jobs.len());
    {
        let mut first_of: BTreeMap<&str, usize> = BTreeMap::new();
        for (i, key) in slot.keys.iter().enumerate() {
            let canon = if dedup {
                *first_of.entry(key.repr()).or_insert(i)
            } else {
                i
            };
            canonical.push(canon);
            if canon != i {
                slot.aliases.entry(canon).or_default().push(i);
            }
        }
    }
    trace.count("planner.jobs", slot.jobs.len() as u64);
    trace.count("planner.aliases", slot.aliases.values().map(|a| a.len() as u64).sum());
    slot.records = (0..slot.jobs.len()).map(|_| None).collect();
    let mut pending = Vec::new();
    for (i, &canon) in canonical.iter().enumerate() {
        if canon != i {
            continue;
        }
        if let Some(analysis) = analysis {
            let job = &slot.jobs[i];
            if let Some(digest) = trace.time("analysis.classify", || analysis.pruned_digest(job)) {
                trace.count("analysis.pruned", 1);
                replay_group(slot, i, &digest, true, trace);
                continue;
            }
        }
        match trace.time("cache.lookup", || cache.lookup(slot.scope, &slot.keys[i])) {
            Some(digest) => {
                trace.count("cache.lookup.hit", 1);
                replay_group(slot, i, &digest, false, trace);
            }
            None => pending.push(i),
        }
    }
    slot.plan = Some(plan);
    slot.outstanding = pending.len();
    if pending.is_empty() {
        finish(camp, slot);
    }
    let enqueued = Instant::now();
    pending
        .into_iter()
        .map(|idx| Job::Inject {
            app,
            idx,
            scope: slot.scope,
            job: Box::new(slot.jobs[idx].clone()),
            enqueued,
        })
        .collect()
}

/// Replays canonical job `idx` and its aliases from `digest`.
fn replay_group(slot: &mut Slot, idx: usize, digest: &RunDigest, pruned: bool, trace: &mut PassTrace) {
    let group: Vec<usize> = std::iter::once(idx)
        .chain(slot.aliases.get(&idx).into_iter().flatten().copied())
        .collect();
    for i in group {
        let job = &slot.jobs[i];
        let record = trace.time("planner.replay", || {
            if pruned {
                digest.replay_pruned(job)
            } else {
                digest.replay(job)
            }
        });
        slot.records[i] = Some(record);
    }
}

/// An executed (or claim-replayed) record arrived: memoize it, replay its
/// aliases, and fold the campaign once nothing is outstanding.
fn ran(camp: &Camp, slot: &mut Slot, idx: usize, record: FaultRecord, cache: &ResultCache, trace: &mut PassTrace) {
    let digest = trace.time("planner.digest", || RunDigest::of(&record));
    trace.time("cache.insert", || {
        cache.insert(slot.scope, &slot.keys[idx], digest.clone());
    });
    slot.records[idx] = Some(record);
    for alias in slot.aliases.get(&idx).cloned().unwrap_or_default() {
        let job = &slot.jobs[alias];
        let replay = trace.time("planner.replay", || digest.replay(job));
        slot.records[alias] = Some(replay);
    }
    slot.outstanding -= 1;
    if slot.outstanding == 0 {
        finish(camp, slot);
    }
}

/// `Campaign::report_from` for an unbudgeted campaign.
fn finish(camp: &Camp, slot: &mut Slot) {
    let plan = slot.plan.take().expect("plan arrives before its records");
    let records = slot
        .records
        .drain(..)
        .map(|r| r.expect("all records complete before the campaign finishes"))
        .collect();
    slot.report = Some(CampaignReport {
        app: camp.app.name().to_string(),
        total_sites: plan.sites.iter().filter(|s| !s.faults.is_empty()).count(),
        perturbed_sites: plan.sites.iter().filter(|s| s.included && !s.faults.is_empty()).count(),
        clean_violations: plan.clean.violations.len(),
        records,
    });
}

/// One traced pass of a set-up workload, checked like an untraced pass.
/// Returns the trace and the pass's reports. A `store` pass traces both
/// sides of the disk tier: a cold half into a fresh directory, then a warm
/// half from a second handle; removing the directory is not timed.
///
/// # Errors
///
/// A failed check, or an oracle replay that disagrees with the
/// incremental verdicts.
pub fn traced_pass(bench: &Bench) -> Result<(PassTrace, Vec<SuiteReport>), String> {
    let inputs = &bench.inputs;
    let mut trace = PassTrace::default();
    let interned = intern::stats();
    let start = Instant::now();
    let reports = if inputs.workload == Workload::Store {
        let dir = bench.fresh_dir();
        let halves = store_halves(bench, &dir, &mut trace);
        trace.wall_ns = elapsed_ns(start);
        let checked = halves.and_then(|halves| {
            bench.check_store(&dir, &halves)?;
            Ok(halves)
        });
        let _ = std::fs::remove_dir_all(&dir);
        checked?
    } else {
        let report = execute(
            inputs.campaigns(),
            &inputs.options,
            &ResultCache::new(),
            bench.workers,
            &mut trace,
        );
        if inputs.workload == Workload::Suite {
            trace.time("report", || {
                std::hint::black_box(report.render_text());
                std::hint::black_box(epa_vulndb::suite_class_rollup(&report));
            });
        }
        trace.wall_ns = elapsed_ns(start);
        bench.check(&report)?;
        vec![report]
    };
    let after = intern::stats();
    trace.count("intern.hits", after.hits - interned.hits);
    trace.count("intern.misses", after.misses - interned.misses);
    if trace.counter("oracle.mismatch") > 0 {
        return Err("oracle replay disagrees with the incremental verdicts".into());
    }
    Ok((trace, reports))
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("spec.materialize.calls", "count"),
    ("spec.materialize.ms", "ms"),
    ("fingerprint.calls", "count"),
    ("fingerprint.ms", "ms"),
    ("plan.calls", "count"),
    ("plan.ms", "ms"),
    ("analysis.build.calls", "count"),
    ("analysis.build.ms", "ms"),
    ("analysis.classify.calls", "count"),
    ("analysis.classify.ms", "ms"),
    ("analysis.pruned_frac", "ratio"),
    ("analysis.net_ms", "ms"),
    ("planner.key.calls", "count"),
    ("planner.key.ms", "ms"),
    ("planner.digest.calls", "count"),
    ("planner.digest.ms", "ms"),
    ("planner.replay.calls", "count"),
    ("planner.replay.ms", "ms"),
    ("planner.alias_frac", "ratio"),
    ("cache.lookup.calls", "count"),
    ("cache.lookup.ms", "ms"),
    ("cache.begin.calls", "count"),
    ("cache.begin.ms", "ms"),
    ("cache.fulfill.calls", "count"),
    ("cache.fulfill.ms", "ms"),
    ("cache.insert.calls", "count"),
    ("cache.insert.ms", "ms"),
    ("cache.hit_frac", "ratio"),
    ("store.load.calls", "count"),
    ("store.load.ms", "ms"),
    ("store.load.p99_us", "us"),
    ("store.save.calls", "count"),
    ("store.save.ms", "ms"),
    ("store.save.p99_us", "us"),
    ("store.hit_frac", "ratio"),
    ("store.cold_half_ms", "ms"),
    ("store.warm_half_ms", "ms"),
    ("run.calls", "count"),
    ("run.ms", "ms"),
    ("run.p50_us", "us"),
    ("run.p99_us", "us"),
    ("sandbox.snapshot.calls", "count"),
    ("sandbox.snapshot.ms", "ms"),
    ("oracle.replay.calls", "count"),
    ("oracle.replay.ms", "ms"),
    ("oracle.events", "count"),
    ("executor.queue_wait.ms", "ms"),
    ("executor.queue_wait.p99_us", "us"),
    ("executor.reassemble.calls", "count"),
    ("executor.reassemble.ms", "ms"),
    ("executor.busy_frac", "ratio"),
    ("report.calls", "count"),
    ("report.ms", "ms"),
    ("intern.hits", "count"),
    ("intern.misses", "count"),
    ("trace.accounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.pass_ms.p50", "ms"),
];

/// Whether a per-layer metric is an exact count (or a ratio of exact
/// counts) that must repeat across runs and worker counts. Everything
/// else is a timing.
pub fn is_exact(name: &str) -> bool {
    name.ends_with(".calls")
        || name.starts_with("intern.")
        || matches!(
            name,
            "analysis.pruned_frac" | "planner.alias_frac" | "cache.hit_frac" | "store.hit_frac" | "oracle.events"
        )
}

/// Aggregates traced passes into every [`PER_LAYER`] metric. Counts and
/// per-pass busy times are medians over passes; `p50_us`/`p99_us` pool
/// every call of every pass. `untraced_ms` are the untraced passes
/// interleaved with the traced ones, for `trace.overhead_frac`.
pub fn layer_metrics(traces: &[PassTrace], untraced_ms: &[f64]) -> Vec<(&'static str, &'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, layer_metric(traces, untraced_ms, name)))
        .collect()
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn layer_metric(traces: &[PassTrace], untraced_ms: &[f64], name: &str) -> f64 {
    let per_pass = |f: &dyn Fn(&PassTrace) -> f64| median(&traces.iter().map(f).collect::<Vec<f64>>());
    let ms = |ns: u64| ns as f64 / 1e6;
    if let Some(layer) = name.strip_suffix(".calls") {
        return per_pass(&|t| t.layer(layer).calls as f64);
    }
    for (suffix, p) in [(".p50_us", 50.0), (".p99_us", 99.0)] {
        if let Some(layer) = name.strip_suffix(suffix) {
            let samples: Vec<f64> = traces
                .iter()
                .flat_map(|t| t.layer(layer).samples.iter().map(|&ns| ns as f64 / 1e3))
                .collect();
            return percentile(&samples, p);
        }
    }
    let traced_ms: Vec<f64> = traces.iter().map(|t| ms(t.wall_ns)).collect();
    match name {
        "analysis.pruned_frac" => {
            per_pass(&|t| ratio(t.counter("analysis.pruned"), t.layer("analysis.classify").calls))
        }
        // Analysis time minus the runs it avoided, at this pass's mean run
        // cost: positive means pruning costs more than it saves.
        "analysis.net_ms" => per_pass(&|t| {
            let run = t.layer("run");
            let mean_run_ns = if run.calls == 0 {
                0.0
            } else {
                run.ns as f64 / run.calls as f64
            };
            ms(t.layer("analysis.build").ns + t.layer("analysis.classify").ns)
                - t.counter("analysis.pruned") as f64 * mean_run_ns / 1e6
        }),
        "planner.alias_frac" => per_pass(&|t| ratio(t.counter("planner.aliases"), t.counter("planner.jobs"))),
        "cache.hit_frac" => per_pass(&|t| {
            ratio(
                t.counter("cache.lookup.hit") + t.counter("cache.begin.replay"),
                t.layer("cache.lookup").calls + t.layer("cache.begin").calls,
            )
        }),
        "store.hit_frac" => per_pass(&|t| ratio(t.counter("store.hits"), t.layer("store.load").calls)),
        "store.cold_half_ms" => per_pass(&|t| ms(t.layer("store.cold_half").ns)),
        "store.warm_half_ms" => per_pass(&|t| ms(t.layer("store.warm_half").ns)),
        "oracle.events" | "intern.hits" | "intern.misses" => per_pass(&|t| t.counter(name) as f64),
        "executor.busy_frac" => {
            per_pass(&|t| t.layer("executor.step").ns as f64 / (t.workers.max(1) as f64 * t.exec_wall_ns.max(1) as f64))
        }
        // Top-level spans over the pass's thread-time: the calling thread
        // for the whole pass plus every worker while the executor runs
        // (with one worker the executor runs inline on the calling thread).
        "trace.accounted_frac" => per_pass(&|t| {
            let spans = ["spec.materialize", "executor.reassemble", "executor.step", "report"]
                .iter()
                .map(|l| t.layer(l).ns)
                .sum::<u64>();
            let workers = if t.workers > 1 { t.workers as u64 } else { 0 };
            spans as f64 / (t.wall_ns + workers * t.exec_wall_ns).max(1) as f64
        }),
        "trace.overhead_frac" => {
            // `store` times a warm run untraced: compare the warm halves.
            let comparable: Vec<f64> = traces
                .iter()
                .map(|t| ms(t.layers.get("store.warm_half").map_or(t.wall_ns, |l| l.ns)))
                .collect();
            let untraced = median(untraced_ms);
            if untraced > 0.0 {
                median(&comparable) / untraced - 1.0
            } else {
                0.0
            }
        }
        "trace.pass_ms.p50" => median(&traced_ms),
        _ => {
            let layer = name
                .strip_suffix(".ms")
                .expect("every per-layer metric has an aggregation");
            per_pass(&|t| ms(t.layer(layer).ns))
        }
    }
}

/// The store workload's two halves, each through its own timed handle.
fn store_halves(bench: &Bench, dir: &Path, trace: &mut PassTrace) -> Result<Vec<SuiteReport>, String> {
    let mut halves = Vec::with_capacity(2);
    for half in ["store.cold_half", "store.warm_half"] {
        let start = Instant::now();
        let store = Arc::new(TimedStore::new(
            DiskStore::open(dir).map_err(|e| format!("store open: {e}"))?,
        ));
        let cache = ResultCache::with_store(store.clone());
        halves.push(execute(
            bench.inputs.campaigns(),
            &bench.inputs.options,
            &cache,
            bench.workers,
            trace,
        ));
        trace.add(half, elapsed_ns(start));
        store.drain_into(trace);
    }
    Ok(halves)
}
