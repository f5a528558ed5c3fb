//! The benchmark's own checks: exact per-layer counts repeat, the timing
//! store wrapper changes nothing, and store passes replay what set-up
//! wrote.
//!
//! The tests that run campaigns take one lock, since the interner counters
//! are process-wide: a concurrent test would leak interner lookups into
//! another's per-pass deltas.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use epa_core::campaign::CampaignOptions;
use epa_core::engine::ResultCache;
use epa_core::store::{DiskStore, ResultStore};
use epa_perfbench::traced::{is_exact, layer_metrics, traced_pass, TimedStore, PER_LAYER};
use epa_perfbench::{available_parallelism, verdict_set, Bench, Inputs, Workload};

static SERIAL: Mutex<()> = Mutex::new(());

/// A fresh directory under Cargo's per-target temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The exact per-layer values of one traced pass, by name.
fn exact_counts(bench: &Bench) -> Vec<(&'static str, f64)> {
    let (trace, _) = traced_pass(bench).expect("a traced pass matches the reference");
    layer_metrics(&[trace], &[])
        .into_iter()
        .filter(|(name, _, _)| is_exact(name))
        .map(|(name, _, value)| (name, value))
        .collect()
}

#[test]
fn exact_layer_counts_repeat_across_runs_and_worker_counts() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let pooled = available_parallelism().max(2);
    for workload in Workload::ALL {
        let tmp_root = temp_dir(workload.name());
        let mut runs = Vec::new();
        for workers in [1, pooled] {
            let inputs = Inputs::with_scenarios(workload, 7, CampaignOptions::default(), 12);
            let bench = Bench::from_inputs(inputs, workers, &tmp_root);
            // Warm the interner and the traced runner before counting.
            exact_counts(&bench);
            runs.push((workers, exact_counts(&bench)));
            runs.push((workers, exact_counts(&bench)));
        }
        let (_, first) = &runs[0];
        assert!(
            first.iter().any(|(name, v)| *name == "run.calls" && *v > 0.0),
            "{}: a traced pass executes runs",
            workload.name()
        );
        assert!(
            first.iter().any(|(name, v)| *name == "intern.misses" && *v == 0.0),
            "{}: a warm pass interns nothing new",
            workload.name()
        );
        for (workers, counts) in &runs[1..] {
            assert_eq!(
                counts,
                first,
                "{}: exact layer counts differ at {workers} workers",
                workload.name()
            );
        }
        let _ = std::fs::remove_dir_all(&tmp_root);
    }
}

/// Every entry file under `root` as `(relative path, contents)`, sorted.
fn entry_files(root: &Path) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("store directories list") {
            let path = entry.expect("directory entries read").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let text = std::fs::read_to_string(&path).expect("store files read");
                out.push((path.strip_prefix(root).expect("under the root").to_path_buf(), text));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn the_timing_store_is_transparent() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let inputs = Inputs::new(Workload::Store, 3, CampaignOptions::default());
    let bare_dir = temp_dir("bare");
    let timed_dir = temp_dir("timed");
    let mut results = Vec::new();
    for (dir, timed) in [(&bare_dir, false), (&timed_dir, true)] {
        let mut halves = Vec::new();
        for _ in 0..2 {
            let disk = DiskStore::open(dir).expect("store opens");
            let store: Arc<dyn ResultStore> = if timed {
                Arc::new(TimedStore::new(disk))
            } else {
                Arc::new(disk)
            };
            assert_eq!(store.kind(), "disk");
            let report = inputs
                .suite()
                .with_result_cache(ResultCache::with_store(store.clone()))
                .execute();
            halves.push((report, store.entries()));
        }
        results.push((halves, entry_files(dir)));
    }
    let (bare_halves, bare_files) = &results[0];
    let (timed_halves, timed_files) = &results[1];
    assert_eq!(
        timed_halves, bare_halves,
        "same reports and entry counts, cold and warm"
    );
    assert_eq!(
        bare_halves[1].0.total_runs_executed(),
        0,
        "the warm half replays everything"
    );
    assert_eq!(verdict_set(&timed_halves[0].0), inputs.reference());
    assert!(!bare_files.is_empty());
    assert_eq!(timed_files, bare_files, "byte-identical store directories");
    let _ = std::fs::remove_dir_all(&bare_dir);
    let _ = std::fs::remove_dir_all(&timed_dir);
}

#[test]
fn store_passes_replay_the_populated_store_and_clean_up() {
    let _serial = SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let tmp_root = temp_dir("populated");
    let bench = Bench::setup(Workload::Store, 5, CampaignOptions::default(), 2, &tmp_root);
    let cold = bench.cold_report().expect("set-up populates the store");
    assert!(cold.total_runs_executed() > 0);
    let pass = bench.pass().expect("a warm pass passes its checks");
    assert_eq!(pass.reports.len(), 1);
    assert_eq!(
        pass.reports[0].total_runs_executed(),
        0,
        "a timed pass executes nothing"
    );
    assert_eq!(pass.records, cold.total_injected());
    drop(bench);
    let left = std::fs::read_dir(&tmp_root).map_or(0, Iterator::count);
    assert_eq!(left, 0, "dropping the bench removes its store");
    let _ = std::fs::remove_dir_all(&tmp_root);
}

#[test]
fn benchmark_json_lists_every_per_layer_metric() {
    let text = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let listed: Vec<(String, String)> = text
        .split("\"per_layer\"")
        .nth(1)
        .expect("BENCHMARK.json has a per_layer list")
        .lines()
        .filter_map(|line| {
            let field = |key: &str| {
                let rest = line.split(&format!("\"{key}\": \"")).nth(1)?;
                Some(rest.split('"').next()?.to_string())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect();
    let expected: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(name, unit)| ((*name).to_string(), (*unit).to_string()))
        .collect();
    assert_eq!(listed, expected);
}
