//! The corpus throughput bench and differential gate.
//!
//! Synthesizes a 120-scenario corpus (fixed seed), runs the full
//! differential sweep — every scenario through every execution path — and
//! writes `BENCH_corpus.json`: synthesis and sweep wall-clock, scenario
//! throughput, and the dashboard rollups. Gates: the corpus must hold 100+
//! scenarios, synthesis must be deterministic (byte-identical fingerprints
//! across re-synthesis), and **zero** scenarios may diverge across
//! execution paths.

use std::time::Instant;

use epa_apps::ScriptedApp;
use epa_core::corpus::{run_corpus, synthesize, CorpusConfig, DEFAULT_CORPUS_SEED};

fn main() {
    let config = CorpusConfig {
        seed: DEFAULT_CORPUS_SEED,
        count: 120,
    };
    assert!(config.count >= 100, "the throughput gate runs at 100+-scenario scale");

    // Synthesis throughput + determinism.
    let synth_start = Instant::now();
    let corpus = synthesize(&config);
    let synth_ns = synth_start.elapsed().as_nanos();
    let again = synthesize(&config);
    assert_eq!(corpus.len(), config.count);
    for (a, b) in corpus.iter().zip(&again) {
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "re-synthesis from seed {:#x} must be byte-identical",
            config.seed
        );
    }

    // The differential sweep, timed end to end (synthesis is re-done inside
    // run_corpus; it is noise next to the 7-path execution of each world).
    let factory = ScriptedApp::factory();
    let sweep_start = Instant::now();
    let report = run_corpus(&config, &factory);
    let sweep_ns = sweep_start.elapsed().as_nanos();
    let scenarios_per_sec = report.scenarios as f64 / (sweep_ns as f64 / 1e9).max(1e-9);

    let json = format!(
        "{{\n  \"bench\": \"corpus\",\n  \"seed\": {},\n  \"scenarios\": {},\n  \
         \"synthesize_ns\": {synth_ns},\n  \"sweep_ns\": {sweep_ns},\n  \
         \"scenarios_per_sec\": {scenarios_per_sec:.2},\n  \"divergences\": {},\n  \
         \"safe\": {},\n  \"vulnerable\": {},\n  \"inadequate\": {}\n}}\n",
        config.seed, report.scenarios, report.divergences, report.safe, report.vulnerable, report.inadequate
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_corpus.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "wrote {} ({} scenarios, {scenarios_per_sec:.1}/s, {} divergences)",
            path.display(),
            report.scenarios,
            report.divergences
        ),
        Err(e) => eprintln!("BENCH_corpus.json not written: {e}"),
    }

    assert_eq!(report.scenarios, config.count);
    assert_eq!(
        report.divergences, 0,
        "execution paths diverged; per-scenario seeds are in CORPUS_report.json"
    );
    // Region rollups must partition the corpus.
    assert_eq!(report.safe + report.vulnerable + report.inadequate, report.scenarios);
}
