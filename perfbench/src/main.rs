//! `perfbench`: one closed-loop client running campaign passes for a fixed
//! time, printing every metric by name and unit.
//!
//! ```text
//! perfbench --workload <suite|corpus|store> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --sizing --seed <n> --seconds <s>
//! ```
//!
//! `--trace 0` times untraced passes and prints the end-to-end metrics;
//! `--trace 1` alternates untraced passes with traced ones and prints the
//! per-layer metrics. The last line of standard output is the result
//! object; the line before it holds host facts and sample counts.
//! `--sizing` records the standard suite under four option sets, once.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use epa_core::campaign::CampaignOptions;
use epa_perfbench::traced::{layer_metrics, traced_pass, PassTrace};
use epa_perfbench::{available_parallelism, elapsed_ns, median, peak_rss_mb, percentile, Bench, Host, Workload};

/// Set-ups per untraced run, `setup_s` being their median. One precedes
/// the timed passes; the others are spread through the run, one every
/// `SETUP_EVERY` between passes, so that they sample the host's fast and
/// slow phases as the passes do (back to back, every set-up of a run
/// landed in one phase). A run makes at least `MIN_SETUPS`.
const MIN_SETUPS: usize = 5;
const SETUP_EVERY: Duration = Duration::from_secs(2);
/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    workers: usize,
    sizing: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Suite,
        seed: 0,
        seconds: 10,
        trace: false,
        workers: available_parallelism(),
        sizing: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--sizing" {
            args.sizing = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?;
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

/// Outcome counts of a run's passes.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Runs one pass, counting a panic or an `Err` as a failure.
    fn attempt<T>(&mut self, what: &str, pass: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(pass)) {
            Ok(Ok(out)) => Some(out),
            Ok(Err(e)) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
            Err(_) => {
                self.failed += 1;
                eprintln!("perfbench: {what} panicked");
                None
            }
        }
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings serialize")
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The result object: the run's last line of output.
fn result_line(tally: &Tally, metrics: &[(&str, &str, f64)]) -> String {
    let body = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                finite(*value),
                json_str(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    )
}

/// Host facts, run parameters and sample counts, printed before the result.
fn detail_line(args: &Args, host: &Host, extra: &str) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workers\": {}, \
         \"nproc\": {}, \"available_parallelism\": {}, \"rustc\": {}, \"commit\": {}, {extra}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workers,
        json_str(&host.nproc),
        host.available_parallelism,
        json_str(&host.rustc),
        json_str(&host.commit),
    )
}

/// Untraced passes until the deadline: the end-to-end metrics.
fn run_trace_off(args: &Args, tmp_root: &Path) -> Vec<String> {
    let mut setups = Vec::new();
    // Dropping a set-up's bench (removing its store) is not timed.
    let timed_setup = |setups: &mut Vec<f64>| {
        let start = Instant::now();
        let bench = Bench::setup(
            args.workload,
            args.seed,
            CampaignOptions::default(),
            args.workers,
            tmp_root,
        );
        setups.push(elapsed_ns(start) as f64 / 1e9);
        bench
    };
    let bench = timed_setup(&mut setups);
    let mut tally = Tally::default();
    let mut pass_ms = Vec::new();
    let mut records = 0usize;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut last_setup = Instant::now();
    while tally.attempted < MIN_PASSES || Instant::now() < deadline {
        if let Some(pass) = tally.attempt("pass", || bench.pass()) {
            pass_ms.push(pass.wall_ns as f64 / 1e6);
            records += pass.records;
        }
        if last_setup.elapsed() >= SETUP_EVERY {
            drop(timed_setup(&mut setups));
            last_setup = Instant::now();
        }
    }
    drop(bench);
    while setups.len() < MIN_SETUPS {
        drop(timed_setup(&mut setups));
    }
    let timed_s = pass_ms.iter().sum::<f64>() / 1e3;
    // The shared host runs in phases several seconds long during which
    // every pass is about 40% slower, so pass times are bimodal and their
    // median (and the whole-run throughput) jumps with the share of the run
    // that fell in slow phases. The 10th percentile is the pass latency of
    // the fast phase, which every run contains.
    let metrics = [
        ("pass_ms.p10", "ms", percentile(&pass_ms, 10.0)),
        ("setup_s", "s", median(&setups)),
        ("peak_rss_mb", "MiB", peak_rss_mb()),
    ];
    let extra = format!(
        "\"passes\": {}, \"setups\": {}, \"pass_ms.p50\": {}, \"pass_ms.p90\": {}, \"records_per_s\": {}, \
         \"failed_frac\": {}, \"records_per_pass\": {}",
        pass_ms.len(),
        setups.len(),
        median(&pass_ms),
        finite(percentile(&pass_ms, 90.0)),
        if timed_s > 0.0 { records as f64 / timed_s } else { 0.0 },
        tally.failed as f64 / tally.attempted.max(1) as f64,
        records / pass_ms.len().max(1),
    );
    vec![detail_line(args, &Host::probe(), &extra), result_line(&tally, &metrics)]
}

/// Traced and untraced passes, alternating until the deadline. Every
/// traced pass must reproduce the untraced pass before it exactly (`store`:
/// its cold half reproduces the set-up's cold run, its warm half the
/// untraced warm pass).
fn traced_passes(bench: &Bench, seconds: u64, tally: &mut Tally) -> (Vec<PassTrace>, Vec<f64>) {
    let mut traces = Vec::new();
    let mut untraced_ms = Vec::new();
    // Warm-up: the traced runner's first pass is not measured.
    tally.attempt("traced warm-up pass", || traced_pass(bench).map(|_| ()));
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while Instant::now() < deadline || (traces.len() < MIN_PASSES && tally.failed == 0) {
        let Some(pass) = tally.attempt("pass", || bench.pass()) else {
            continue;
        };
        untraced_ms.push(pass.wall_ns as f64 / 1e6);
        let traced = tally.attempt("traced pass", || {
            let (trace, reports) = traced_pass(bench)?;
            let expected: Vec<_> = bench.cold_report().into_iter().chain(&pass.reports).collect();
            if !reports.iter().eq(expected) {
                return Err("the traced runner's reports differ from Suite::execute's".into());
            }
            Ok(trace)
        });
        traces.extend(traced);
    }
    (traces, untraced_ms)
}

/// The per-layer metrics.
fn run_trace_on(args: &Args, tmp_root: &Path) -> Vec<String> {
    let bench = Bench::setup(
        args.workload,
        args.seed,
        CampaignOptions::default(),
        args.workers,
        tmp_root,
    );
    let mut tally = Tally::default();
    let (traces, untraced_ms) = traced_passes(&bench, args.seconds, &mut tally);
    let metrics = layer_metrics(&traces, &untraced_ms);
    let extra = format!(
        "\"traced_passes\": {}, \"untraced_passes\": {}, \"untraced_pass_ms.p50\": {}",
        traces.len(),
        untraced_ms.len(),
        median(&untraced_ms)
    );
    vec![detail_line(args, &Host::probe(), &extra), result_line(&tally, &metrics)]
}

/// The one-time sizing note: the standard suite's untraced `pass_ms.p50`
/// and traced `analysis.net_ms` under the four option sets the ROADMAP
/// sized, `--seconds` each.
fn run_sizing(args: &Args, tmp_root: &Path) -> Result<Vec<String>, String> {
    let option_sets = [
        ("default", CampaignOptions::default()),
        (
            "prune_off",
            CampaignOptions {
                static_prune: false,
                ..CampaignOptions::default()
            },
        ),
        (
            "prune_dedup_off",
            CampaignOptions {
                static_prune: false,
                dedup: false,
                ..CampaignOptions::default()
            },
        ),
        (
            "occurrence_exhaustive",
            CampaignOptions {
                static_prune: false,
                dedup: false,
                max_occurrences_per_site: usize::MAX,
                ..CampaignOptions::default()
            },
        ),
    ];
    let mut lines = Vec::new();
    let mut tally = Tally::default();
    for (name, options) in option_sets {
        let bench = Bench::setup(Workload::Suite, args.seed, options, args.workers, tmp_root);
        let (traces, untraced_ms) = traced_passes(&bench, args.seconds, &mut tally);
        let layer = |metric: &str| {
            layer_metrics(&traces, &untraced_ms)
                .into_iter()
                .find(|(n, _, _)| *n == metric)
                .map_or(0.0, |(_, _, v)| v)
        };
        lines.push(format!(
            "{{\"options\": {}, \"pass_ms.p50\": {}, \"untraced_passes\": {}, \"analysis.net_ms\": {}, \
             \"run.calls\": {}, \"analysis.classify.calls\": {}, \"analysis.pruned_frac\": {}, \"traced_passes\": {}}}",
            json_str(name),
            median(&untraced_ms),
            untraced_ms.len(),
            layer("analysis.net_ms"),
            layer("run.calls"),
            layer("analysis.classify.calls"),
            layer("analysis.pruned_frac"),
            traces.len(),
        ));
    }
    if tally.failed > 0 {
        return Err(format!("{} of {} sizing passes failed", tally.failed, tally.attempted));
    }
    lines.push(detail_line(args, &Host::probe(), "\"note\": \"sizing\""));
    Ok(lines)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Store directories live inside the working directory (the checkout),
    // one subdirectory per process, removed before exit.
    let root = PathBuf::from(".perfbench_tmp");
    let tmp_root = root.join(std::process::id().to_string());
    let result = if args.sizing {
        run_sizing(&args, &tmp_root)
    } else if args.trace {
        Ok(run_trace_on(&args, &tmp_root))
    } else {
        Ok(run_trace_off(&args, &tmp_root))
    };
    let _ = std::fs::remove_dir_all(&tmp_root);
    let _ = std::fs::remove_dir(&root);
    match result {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
