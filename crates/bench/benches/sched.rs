//! The scheduler model-check bench and mutation gate, written to
//! `BENCH_sched.json` (run via `cargo bench -p epa-bench --features
//! model-check --bench sched`; see the CI `sched` job).
//!
//! Two measurements:
//!
//! 1. **Exploration cost of the clean fixtures** — every production
//!    concurrency protocol fixture (executor close/pending queue, result
//!    cache claim + abandon, expanding plan-order reassembly at 2 and 3
//!    workers, the expanding pool's caller working
//!    as worker 0) is explored to completion under the preemption bound,
//!    recording interleavings explored and max schedule depth. Any
//!    failure here is a regression in a shipped protocol.
//! 2. **Mutation kill gate** — the three seeded bugs (pending decrement
//!    outside the shard critical section; claim fulfilment dropping the
//!    `Pending` slot before publishing `Ready`; an expanding-pool caller
//!    blocking on `recv` beside a job only it can run) must each be
//!    caught within bounded exploration. `mutants_killed == mutants_seeded` is
//!    asserted here and re-validated by CI from the JSON, so a checker
//!    that silently loses detection power fails the build.
//!
//! Without the `model-check` feature this target compiles to a skip
//! stub, keeping tier-1 `cargo bench` runs free of scheduler overhead.

#[cfg(not(feature = "model-check"))]
fn main() {
    println!("sched bench skipped: build with --features model-check");
}

#[cfg(feature = "model-check")]
fn main() {
    use epa_core::engine::modelcheck;
    use shim_sync::model::{Config, Report};

    /// Mirrors the budget in `tests/model_check.rs`: preemption bound 2
    /// with a step ceiling low enough to flag livelocks quickly.
    fn cfg() -> Config {
        Config {
            max_steps: 5_000,
            ..Config::default()
        }
    }

    fn fixture_row(report: &Report) -> String {
        let failure = report
            .failure
            .as_ref()
            .map_or_else(|| "null".to_owned(), |f| format!("\"{}\"", f.kind.as_str()));
        format!(
            "{{\"name\": \"{}\", \"iterations\": {}, \"max_depth\": {}, \
             \"complete\": {}, \"failure\": {failure}}}",
            report.name, report.iterations, report.max_depth, report.complete
        )
    }

    let fixtures: Vec<Report> = vec![
        modelcheck::check_close_protocol(&cfg()),
        modelcheck::check_claim_protocol(&cfg()),
        modelcheck::check_claim_abandon(&cfg()),
        modelcheck::check_expanding_reassembly(&cfg(), 2),
        modelcheck::check_expanding_reassembly(&cfg(), 3),
        modelcheck::check_caller_works_the_queue(&cfg()),
    ];
    let mutants: Vec<Report> = vec![
        modelcheck::check_close_protocol_mutant(&cfg()),
        modelcheck::check_claim_protocol_mutant(&cfg()),
        modelcheck::check_caller_works_the_queue_mutant(&cfg()),
    ];

    let clean = fixtures.iter().filter(|r| r.failure.is_none()).count();
    let mutants_seeded = mutants.len();
    let mutants_killed = mutants.iter().filter(|r| r.failure.is_some()).count();

    let fixture_rows: Vec<String> = fixtures.iter().map(fixture_row).collect();
    let mutant_rows: Vec<String> = mutants.iter().map(fixture_row).collect();
    let preemption_bound = Config::default()
        .preemption_bound
        .map_or_else(|| "null".to_owned(), |b| b.to_string());
    let json = format!(
        "{{\n  \"bench\": \"sched\",\n  \"preemption_bound\": {preemption_bound},\n  \
         \"max_steps\": 5000,\n  \
         \"fixtures\": [\n    {}\n  ],\n  \
         \"mutants\": [\n    {}\n  ],\n  \
         \"mutants_seeded\": {mutants_seeded},\n  \"mutants_killed\": {mutants_killed}\n}}\n",
        fixture_rows.join(",\n    "),
        mutant_rows.join(",\n    "),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_sched.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "wrote {} ({clean}/{} fixtures clean; {mutants_killed}/{mutants_seeded} mutants killed)",
            path.display(),
            fixtures.len()
        ),
        Err(e) => eprintln!("BENCH_sched.json not written: {e}"),
    }

    for report in &fixtures {
        report.assert_complete();
    }
    assert_eq!(
        mutants_killed, mutants_seeded,
        "every seeded mutant must be caught within bounded exploration"
    );
}
