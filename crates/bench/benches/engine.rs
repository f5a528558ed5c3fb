//! Criterion performance benches: engine overhead and substrate hot paths.
//!
//! Absolute numbers are machine-local; the benches exist so regressions in
//! the injection engine or the VFS resolver are visible. Beyond the
//! criterion groups, `main` measures copy-on-write snapshot setup against
//! the old deep-clone per-fault setup on the lpr-scale world and writes the
//! result to `BENCH_engine.json` (the start of the perf trajectory; the
//! engine redesign requires snapshot ≥ 2× faster than deep clone there),
//! then measures the suite-wide pooled executor against the retired
//! one-thread-per-application fan-out and writes `BENCH_executor.json`
//! (the executor refactor requires pooled wall-clock ≤ the old fan-out and
//! a worker ceiling of `available_parallelism`), and finally measures the
//! incremental (audit-log-subscribed) oracle against the retired post-hoc
//! batch scan over the standard suite's full injected workload and writes
//! `BENCH_oracle.json` (the oracle redesign requires the incremental path
//! to be no slower than the batch scan), and finally measures the
//! dedup+memo planner against exhaustive re-execution over a two-pass
//! suite workload and writes `BENCH_planner.json` (the planner must
//! execute strictly fewer runs with a byte-identical verdict set).

use std::time::{Duration, Instant};

use criterion::{criterion_group, BatchSize, Criterion};

use epa_apps::{worlds, Lpr, Turnin};
use epa_core::campaign::{run_once, CampaignOptions, TestSetup};
use epa_core::engine::{executor, Session};
use epa_core::inject::InjectionHook;
use epa_sandbox::app::Application;
use epa_sandbox::audit::AuditLog;
use epa_sandbox::cred::{Credentials, Gid, Uid};
use epa_sandbox::mode::Mode;
use epa_sandbox::os::Os;
use epa_sandbox::policy::detectors::{
    CustomDetector, DisclosureDetector, IntegrityDeleteDetector, IntegrityWriteDetector, MemoryCorruptionDetector,
    SpoofedActionDetector, TaintedPrivilegedOpDetector, UntrustedExecDetector,
};
use epa_sandbox::policy::OracleSet;
use epa_sandbox::syscall::Interceptor;

fn bench_campaigns(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign");
    g.sample_size(20);
    let lpr = Session::from_setup(worlds::lpr_world());
    g.bench_function("lpr_full_campaign", |b| b.iter(|| lpr.execute(&Lpr)));
    let turnin = Session::from_setup(worlds::turnin_world());
    g.bench_function("turnin_full_campaign", |b| b.iter(|| turnin.execute(&Turnin)));
    let turnin_parallel = turnin.clone().with_options(CampaignOptions {
        workers: Some(executor::Executor::new().workers()),
        ..Default::default()
    });
    g.bench_function("turnin_full_campaign_parallel", |b| {
        b.iter(|| turnin_parallel.execute(&Turnin));
    });
    let suite = epa_apps::standard_suite().expect("valid specs");
    g.bench_function("standard_suite_all_eight_apps", |b| b.iter(|| suite.execute()));
    g.finish();
}

fn bench_setup(c: &mut Criterion) {
    let mut g = c.benchmark_group("setup");
    let setup = worlds::lpr_world();
    g.bench_function("lpr_world_snapshot_clone", |b| {
        b.iter_batched(|| (), |_| setup.world.clone(), BatchSize::SmallInput);
    });
    g.bench_function("lpr_world_deep_clone", |b| {
        b.iter_batched(|| (), |_| setup.world.deep_clone(), BatchSize::SmallInput);
    });
    g.finish();
}

fn bench_single_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("run");
    let setup = worlds::turnin_world();
    g.bench_function("turnin_clean_run", |b| b.iter(|| run_once(&setup, &Turnin, None)));
    g.bench_function("world_clone", |b| {
        b.iter_batched(|| (), |_| setup.world.clone(), BatchSize::SmallInput);
    });
    g.finish();
}

fn bench_vfs(c: &mut Criterion) {
    let mut g = c.benchmark_group("vfs");
    let mut fs = epa_sandbox::fs::Vfs::new();
    for d in 0..50 {
        for f in 0..10 {
            fs.put_file(
                &format!("/srv/data/dir{d}/file{f}"),
                "content",
                Uid::ROOT,
                Gid::ROOT,
                Mode::new(0o644),
            )
            .unwrap();
        }
    }
    fs.god_symlink("/srv/link", "/srv/data/dir25").unwrap();
    let cred = Credentials::user(Uid(1001), Gid(100));
    g.bench_function("resolve_deep_path", |b| {
        b.iter(|| fs.walk("/srv/data/dir25/file5", true, Some(&cred)).unwrap());
    });
    g.bench_function("resolve_through_symlink", |b| {
        b.iter(|| fs.walk("/srv/link/file5", true, Some(&cred)).unwrap());
    });
    g.bench_function("stat", |b| b.iter(|| fs.stat("/srv/data/dir10/file1", None).unwrap()));
    g.finish();
}

fn bench_classifier(c: &mut Criterion) {
    let mut g = c.benchmark_group("vulndb");
    let db = epa_vulndb::entries();
    g.bench_function("classify_195_entries", |b| b.iter(|| epa_vulndb::compute(&db)));
    g.finish();
}

/// Median wall-clock nanoseconds of `f` over `samples` runs.
fn median_ns<O>(samples: usize, mut f: impl FnMut() -> O) -> u128 {
    let _ = std::hint::black_box(f());
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let _ = std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2].as_nanos()
}

/// Measures snapshot-vs-deep-clone per-fault world setup on the lpr-scale
/// world and writes `BENCH_engine.json` next to the workspace root.
fn emit_bench_json() {
    let setup = worlds::lpr_world();
    let samples = 200;
    let snapshot_ns = median_ns(samples, || setup.world.clone());
    let deep_ns = median_ns(samples, || setup.world.deep_clone());
    let session = Session::from_setup(worlds::lpr_world());
    let campaign_ns = median_ns(20, || session.execute(&Lpr));
    let speedup = deep_ns as f64 / snapshot_ns.max(1) as f64;

    let json = format!(
        "{{\n  \"bench\": \"engine\",\n  \"world\": \"lpr\",\n  \"samples\": {samples},\n  \
         \"snapshot_clone_ns\": {snapshot_ns},\n  \"deep_clone_ns\": {deep_ns},\n  \
         \"snapshot_speedup\": {speedup:.2},\n  \"lpr_full_campaign_ns\": {campaign_ns}\n}}\n"
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_engine.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "\nwrote {} (snapshot speedup over deep clone: {speedup:.1}x)",
            path.display()
        ),
        Err(e) => eprintln!("\nBENCH_engine.json not written: {e}"),
    }
    assert!(
        speedup >= 2.0,
        "copy-on-write snapshot setup must beat deep clone by >= 2x on the lpr world, got {speedup:.2}x"
    );
}

/// The pre-executor suite runner, reimplemented for comparison: one scoped
/// thread per registered application, each running its whole campaign
/// sequentially — `apps × campaign` threads regardless of the hardware.
fn per_app_fanout(cases: &[(&dyn Application, Session)]) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = cases
            .iter()
            .map(|(app, session)| scope.spawn(move || session.execute(*app).injected()))
            .collect();
        handles.into_iter().map(|h| h.join().expect("campaign thread")).sum()
    })
}

/// Measures the suite-wide pooled executor against the retired per-app
/// thread fan-out on the full eight-application suite, asserts the worker
/// ceiling and the no-regression bound, and writes `BENCH_executor.json`.
fn emit_executor_bench_json() {
    let cases: Vec<(&dyn Application, Session)> = vec![
        (&epa_apps::Lpr, Session::from_setup(worlds::lpr_world())),
        (&epa_apps::Turnin, Session::from_setup(worlds::turnin_world())),
        (&epa_apps::FontPurge, Session::from_setup(worlds::fontpurge_world())),
        (&epa_apps::NtLogon, Session::from_setup(worlds::ntlogon_world())),
        (&epa_apps::Fingerd, Session::from_setup(worlds::fingerd_world())),
        (&epa_apps::Authd, Session::from_setup(worlds::authd_world())),
        (&epa_apps::MailNotify, Session::from_setup(worlds::mailnotify_world())),
        (&epa_apps::Backupd, Session::from_setup(worlds::backupd_world())),
    ];
    let suite = epa_apps::standard_suite().expect("valid specs");
    let samples = 15;

    executor::reset_peak_live_workers();
    let mut pooled_injected = 0usize;
    let pooled_ns = median_ns(samples, || {
        pooled_injected = suite.execute().total_injected();
    });
    let available = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let peak_workers = executor::peak_live_workers();
    assert!(
        peak_workers <= available,
        "pooled suite must never exceed available_parallelism={available} workers, saw {peak_workers}"
    );

    let mut fanout_injected = 0usize;
    let fanout_ns = median_ns(samples, || {
        fanout_injected = per_app_fanout(&cases);
    });
    // Same workloads: both runners must inject the identical fault count.
    assert_eq!(pooled_injected, fanout_injected);
    let speedup = fanout_ns as f64 / pooled_ns.max(1) as f64;

    // The default path above sizes the pool from `available_parallelism`;
    // with one CPU that is the inline no-thread path and the high-water
    // gauge legitimately reads 0. Re-run at pinned multi-worker counts so
    // the gauge is exercised (and recorded non-zero) on any hardware.
    let overridden: Vec<(usize, usize)> = [4usize, 8]
        .iter()
        .map(|&w| {
            executor::reset_peak_live_workers();
            let suite_w = epa_apps::standard_suite().expect("valid specs").with_workers(w);
            assert_eq!(suite_w.execute().total_injected(), pooled_injected);
            let peak = executor::peak_live_workers();
            assert!(
                (1..=w).contains(&peak),
                "suite pinned to {w} workers must record a 1..={w} high-water, saw {peak}"
            );
            (w, peak)
        })
        .collect();
    let overridden_json = overridden
        .iter()
        .map(|(w, peak)| format!("    {{\"workers\": {w}, \"peak_live_workers\": {peak}}}"))
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        "{{\n  \"bench\": \"executor\",\n  \"suite_apps\": {},\n  \"samples\": {samples},\n  \
         \"pooled_suite_ns\": {pooled_ns},\n  \"per_app_fanout_ns\": {fanout_ns},\n  \
         \"fanout_over_pooled\": {speedup:.2},\n  \"available_parallelism\": {available},\n  \
         \"peak_live_workers\": {peak_workers},\n  \"workers_override\": [\n{overridden_json}\n  ]\n}}\n",
        cases.len()
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_executor.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "wrote {} (pooled suite vs per-app fan-out: {speedup:.2}x, peak workers {peak_workers}/{available})",
            path.display()
        ),
        Err(e) => eprintln!("BENCH_executor.json not written: {e}"),
    }
    // Medians on a machine with >= 8 cores can land near-equal (both paths
    // then reach full parallelism); a 5% margin keeps scheduler noise from
    // failing the no-regression gate without hiding a real slowdown.
    assert!(
        pooled_ns as f64 <= fanout_ns as f64 * 1.05,
        "pooled suite wall-clock must not exceed the old per-app fan-out \
         (pooled {pooled_ns}ns > fanout {fanout_ns}ns + 5% margin)"
    );
}

/// Which oracle evaluation the driver times.
#[derive(Clone, Copy, PartialEq)]
enum OracleMode {
    /// The production path: the set is subscribed to the audit log and
    /// observes events as they are pushed ([`run_once`]).
    Incremental,
    /// The retired monolith's shape: the run executes unobserved, then one
    /// fused pass over the completed log dispatches all rule families
    /// ([`run_unjudged`], then [`OracleSet::evaluate_log`]).
    BatchScan,
    /// The fully decomposed post-hoc worst case: each rule family
    /// independently re-scans the completed log — literal O(rules × events)
    /// passes; reported for context, not gated on.
    PerFamilyRescan,
}

/// Each rule family independently re-scans the completed log — see
/// [`OracleMode::PerFamilyRescan`]. Standard families only: no standard
/// suite world declares spec invariants (asserted against the fused scan
/// below would otherwise undercount).
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

/// One application run with no oracle attached (the retired engine's run
/// phase; judgment happens afterwards in [`per_family_rescan`]).
fn run_unjudged(setup: &TestSetup, app: &dyn Application, hook: Option<Box<dyn Interceptor>>) -> Os {
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

/// Runs the standard suite's whole injected workload — clean run plus every
/// planned `(site, occurrence, fault)` job of every application — through
/// the chosen oracle mode, returning the total verdict count.
fn drive_oracle(
    cases: &[(&dyn Application, Session, Vec<epa_core::inject::InjectionPlan>)],
    mode: OracleMode,
) -> usize {
    let mut verdicts = 0usize;
    for (app, session, jobs) in cases {
        let hooks = std::iter::once(None).chain(
            jobs.iter()
                .map(|job| Some(Box::new(InjectionHook::new(job.clone()).0) as Box<dyn Interceptor>)),
        );
        for hook in hooks {
            verdicts += match mode {
                OracleMode::Incremental => run_once(session.setup(), *app, hook).violations.len(),
                OracleMode::BatchScan => {
                    let os = run_unjudged(session.setup(), *app, hook);
                    session.setup().oracle().evaluate_log(&os.audit).len()
                }
                OracleMode::PerFamilyRescan => per_family_rescan(&run_unjudged(session.setup(), *app, hook).audit),
            };
        }
    }
    verdicts
}

/// Measures the incremental (subscription) oracle against the retired
/// batch re-scan over the standard suite's full injected workload, asserts
/// verdict-count equality and the no-regression bound, and writes
/// `BENCH_oracle.json`.
fn emit_oracle_bench_json() {
    let cases: Vec<(&dyn Application, Session, Vec<epa_core::inject::InjectionPlan>)> = vec![
        (&epa_apps::Lpr, Session::from_setup(worlds::lpr_world()), Vec::new()),
        (
            &epa_apps::Turnin,
            Session::from_setup(worlds::turnin_world()),
            Vec::new(),
        ),
        (
            &epa_apps::FontPurge,
            Session::from_setup(worlds::fontpurge_world()),
            Vec::new(),
        ),
        (
            &epa_apps::NtLogon,
            Session::from_setup(worlds::ntlogon_world()),
            Vec::new(),
        ),
        (
            &epa_apps::Fingerd,
            Session::from_setup(worlds::fingerd_world()),
            Vec::new(),
        ),
        (&epa_apps::Authd, Session::from_setup(worlds::authd_world()), Vec::new()),
        (
            &epa_apps::MailNotify,
            Session::from_setup(worlds::mailnotify_world()),
            Vec::new(),
        ),
        (
            &epa_apps::Backupd,
            Session::from_setup(worlds::backupd_world()),
            Vec::new(),
        ),
    ];
    // Plan once, outside the timed region: both paths replay the identical
    // job list, so the measurement isolates oracle evaluation + run cost.
    let cases: Vec<_> = cases
        .into_iter()
        .map(|(app, session, _)| {
            let jobs = session.plan(app).jobs();
            (app, session, jobs)
        })
        .collect();
    let samples = 15;

    let mut incremental_verdicts = 0usize;
    let incremental_ns = median_ns(samples, || {
        incremental_verdicts = drive_oracle(&cases, OracleMode::Incremental);
    });
    let mut batch_verdicts = 0usize;
    let batch_ns = median_ns(samples, || {
        batch_verdicts = drive_oracle(&cases, OracleMode::BatchScan);
    });
    let rescan_ns = median_ns(samples, || {
        drive_oracle(&cases, OracleMode::PerFamilyRescan);
    });
    // Same workload, same rules: both judged paths must report identical
    // verdicts (the per-family rescan runs standard families only and is
    // timed for context, not counted).
    assert_eq!(incremental_verdicts, batch_verdicts);
    let ratio = batch_ns as f64 / incremental_ns.max(1) as f64;
    let rescan_ratio = rescan_ns as f64 / incremental_ns.max(1) as f64;

    // Suite wall-clock is dominated by the application runs themselves, so
    // the comparison above resolves "no regression", not the oracle itself.
    // Amplify the oracle-only cost on one big log — the suite's combined
    // event stream, replicated — where the single streamed pass (what the
    // subscription does during the run) is measurably distinguishable from
    // the retired O(rules × events) per-family re-scan.
    let mut big = AuditLog::new();
    while big.len() < 50_000 {
        for (app, session, jobs) in &cases {
            let os = run_unjudged(session.setup(), *app, None);
            for (_, ev) in os.audit.iter() {
                big.push(ev.clone());
            }
            if let Some(job) = jobs.first() {
                let (hook, _) = InjectionHook::new(job.clone());
                let os = run_unjudged(session.setup(), *app, Some(Box::new(hook)));
                for (_, ev) in os.audit.iter() {
                    big.push(ev.clone());
                }
            }
        }
    }
    let mut stream_verdicts = 0usize;
    let stream_ns = median_ns(samples, || {
        let mut set = OracleSet::standard();
        set.observe_log(&big);
        stream_verdicts = set.finish().len();
    });
    let mut family_verdicts = 0usize;
    let family_ns = median_ns(samples, || {
        family_verdicts = per_family_rescan(&big);
    });
    assert_eq!(stream_verdicts, family_verdicts);
    let oracle_ratio = family_ns as f64 / stream_ns.max(1) as f64;

    let total_jobs: usize = cases.iter().map(|(_, _, jobs)| jobs.len() + 1).sum();
    let json = format!(
        "{{\n  \"bench\": \"oracle\",\n  \"suite_apps\": {},\n  \"runs_per_sample\": {total_jobs},\n  \
         \"samples\": {samples},\n  \"incremental_ns\": {incremental_ns},\n  \"batch_scan_ns\": {batch_ns},\n  \
         \"per_family_rescan_ns\": {rescan_ns},\n  \"batch_over_incremental\": {ratio:.2},\n  \
         \"rescan_over_incremental\": {rescan_ratio:.2},\n  \"verdicts\": {incremental_verdicts},\n  \
         \"oracle_only_events\": {},\n  \"oracle_single_pass_ns\": {stream_ns},\n  \
         \"oracle_per_family_rescan_ns\": {family_ns},\n  \"per_family_over_single_pass\": {oracle_ratio:.2}\n}}\n",
        cases.len(),
        big.len()
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_oracle.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "wrote {} (suite: batch/incremental {ratio:.2}x; oracle-only on {} events: \
             per-family/single-pass {oracle_ratio:.2}x; {incremental_verdicts} verdicts)",
            path.display(),
            big.len()
        ),
        Err(e) => eprintln!("BENCH_oracle.json not written: {e}"),
    }
    // Two gates. (1) End to end, the subscription must not slow the suite
    // down relative to the retired fused post-run scan. Oracle evaluation is
    // noise next to the shared run cost, so the two arms are equal-cost by
    // design (measured ~1.00x) — a 10% margin keeps scheduler jitter from
    // failing the gate while still catching any real per-event overhead,
    // which the oracle-only gate below bounds far more tightly.
    assert!(
        incremental_ns as f64 <= batch_ns as f64 * 1.10,
        "incremental oracle must not be slower than the retired batch scan \
         (incremental {incremental_ns}ns > batch {batch_ns}ns + 10% margin)"
    );
    // (2) At oracle-only granularity, the single streamed pass must beat
    // the O(rules × events) per-family re-scan it replaced.
    assert!(
        stream_ns as f64 <= family_ns as f64 * 1.05,
        "single-pass oracle must not be slower than the per-family re-scan \
         (single {stream_ns}ns > per-family {family_ns}ns + 5% margin)"
    );
}

/// One comparable line per record: identity plus the serialized verdicts.
/// Two suite reports with equal digests found exactly the same violations
/// on exactly the same jobs — the planner's no-lost-detections criterion.
fn verdict_set(report: &epa_core::engine::suite::SuiteReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in &report.reports {
        for rec in &r.records {
            let verdicts = serde_json::to_string(&rec.violations).expect("verdicts serialize");
            let _ = writeln!(
                out,
                "{}|{}|{}|{}|{verdicts}",
                r.app, rec.site, rec.occurrence, rec.fault_id
            );
        }
    }
    out
}

/// Measures the dedup+memo planner against exhaustive re-execution over a
/// cross-run workload — the eight-application standard suite executed
/// twice, a regression re-run's shape. The exhaustive baseline (dedup off,
/// a cold cache per pass) re-executes every `(site, occurrence, fault)`
/// job both times; the planner suite keeps its suite-scoped `ResultCache`
/// across the passes, so the second pass replays entirely from memo.
/// Asserts strictly fewer runs executed, byte-identical verdict sets, and
/// unchanged suite totals, then writes `BENCH_planner.json`.
fn emit_planner_bench_json() {
    let exhaustive_options = CampaignOptions {
        dedup: false,
        ..Default::default()
    };
    let fresh_exhaustive = || epa_apps::standard_suite_with_options(exhaustive_options.clone()).expect("valid specs");

    // Deterministic counts, outside the timed region.
    let planner_suite = epa_apps::standard_suite().expect("valid specs");
    let p1 = planner_suite.execute();
    let p2 = planner_suite.execute();
    let e1 = fresh_exhaustive().execute();
    let e2 = fresh_exhaustive().execute();

    // The planner must not change a single number the paper reports…
    assert_eq!(p1.total_injected(), e1.total_injected());
    assert_eq!(p1.total_violated(), e1.total_violated());
    assert_eq!(p2.total_injected(), e2.total_injected());
    assert_eq!(p2.total_violated(), e2.total_violated());
    // …and must find the exact verdict set of exhaustive execution.
    assert_eq!(
        verdict_set(&p1),
        verdict_set(&e1),
        "pass 1 verdicts must be byte-identical"
    );
    assert_eq!(
        verdict_set(&p2),
        verdict_set(&e2),
        "pass 2 verdicts must be byte-identical"
    );

    let exhaustive_runs = e1.total_runs_executed() + e2.total_runs_executed();
    let planner_runs = p1.total_runs_executed() + p2.total_runs_executed();
    let planner_hits = p1.total_cache_hits() + p2.total_cache_hits();
    assert_eq!(
        p2.total_runs_executed(),
        0,
        "the second memoized pass must replay entirely from cache"
    );
    assert!(
        planner_runs < exhaustive_runs,
        "dedup+memo must execute strictly fewer runs ({planner_runs} vs {exhaustive_runs})"
    );

    let samples = 9;
    let planner_ns = median_ns(samples, || {
        let suite = epa_apps::standard_suite().expect("valid specs");
        let _ = suite.execute();
        suite.execute().total_runs_executed()
    });
    let exhaustive_ns = median_ns(samples, || {
        let _ = fresh_exhaustive().execute();
        fresh_exhaustive().execute().total_runs_executed()
    });
    let speedup = exhaustive_ns as f64 / planner_ns.max(1) as f64;

    let json = format!(
        "{{\n  \"bench\": \"planner\",\n  \"suite_apps\": {},\n  \"passes\": 2,\n  \"samples\": {samples},\n  \
         \"exhaustive_runs_executed\": {exhaustive_runs},\n  \"planner_runs_executed\": {planner_runs},\n  \
         \"planner_cache_hits\": {planner_hits},\n  \"verdicts\": {},\n  \
         \"verdict_sets_identical\": true,\n  \"exhaustive_ns\": {exhaustive_ns},\n  \
         \"planner_ns\": {planner_ns},\n  \"exhaustive_over_planner\": {speedup:.2}\n}}\n",
        p1.reports.len(),
        p1.total_violated() + p2.total_violated()
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_planner.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "wrote {} (planner {planner_runs} runs vs exhaustive {exhaustive_runs}; \
             {planner_hits} replays; {speedup:.2}x wall-clock)",
            path.display()
        ),
        Err(e) => eprintln!("BENCH_planner.json not written: {e}"),
    }
    // The two-pass wall-clock gate: replaying a pass must not be slower
    // than re-executing it (5% margin for scheduler noise, as elsewhere).
    assert!(
        planner_ns as f64 <= exhaustive_ns as f64 * 1.05,
        "memoized two-pass suite must not be slower than exhaustive \
         (planner {planner_ns}ns > exhaustive {exhaustive_ns}ns + 5% margin)"
    );
}

criterion_group!(
    benches,
    bench_campaigns,
    bench_setup,
    bench_single_run,
    bench_vfs,
    bench_classifier
);

// A hand-rolled `main` instead of `criterion_main!`: the criterion groups
// run first, then the snapshot-vs-deep-clone measurement is written to
// BENCH_engine.json, the pooled-executor-vs-fanout measurement to
// BENCH_executor.json, the incremental-vs-batch oracle measurement to
// BENCH_oracle.json, and the dedup+memo planner measurement to
// BENCH_planner.json.
fn main() {
    benches();
    emit_bench_json();
    emit_executor_bench_json();
    emit_oracle_bench_json();
    emit_planner_bench_json();
}
