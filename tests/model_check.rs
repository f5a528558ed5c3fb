//! Model-checking the engine's concurrency protocols (run via
//! `cargo test --features model-check --test model_check`; see the CI
//! `sched` job).
//!
//! Three guarantees are pinned here:
//!
//! 1. The production protocols — the executor's ordered map (every index
//!    once, results in input order, the caller working as worker 0, a
//!    panicking item releasing the pool) and the result cache's claim
//!    protocol — explore **exhaustively** (within the preemption bound)
//!    with zero races, deadlocks, lost wakeups, and livelocks.
//! 2. The three seeded mutants (bugs this codebase once shipped or could
//!    plausibly ship) are **killed** within bounded exploration — the
//!    checker's detection power is itself under test.
//! 3. A seeded random walk agrees with the DFS on a mutant, so the
//!    sampling mode usable on bigger state spaces is wired correctly.
#![cfg(feature = "model-check")]

use epa_core::engine::modelcheck;
use shim_sync::model::{Config, FailureKind, Strategy};

/// The fixtures' exploration budget: preemption bound 2 (every bug
/// class seeded here needs at most one adversarial preemption), with a
/// step ceiling low enough to flag livelocks quickly.
fn cfg() -> Config {
    Config {
        max_steps: 5_000,
        ..Config::default()
    }
}

#[test]
fn map_runs_every_index_once_in_input_order() {
    // 2 workers = the caller plus one spawned thread; 3 adds a second
    // spawned thread racing both for the next index.
    for workers in [2, 3] {
        let report = modelcheck::check_map_order(&cfg(), workers);
        report.assert_complete();
        assert!(report.iterations > 1, "the fixture must actually branch");
    }
}

#[test]
fn claim_protocol_is_clean_under_exhaustive_exploration() {
    modelcheck::check_claim_protocol(&cfg()).assert_complete();
}

#[test]
fn abandoned_claims_never_strand_a_waiter() {
    modelcheck::check_claim_abandon(&cfg()).assert_complete();
}

#[test]
fn the_caller_runs_an_item_only_it_can_reach() {
    modelcheck::check_caller_runs_an_item(&cfg()).assert_complete();
}

#[test]
fn a_panicking_item_releases_the_pool() {
    modelcheck::check_panic_releases_the_pool(&cfg()).assert_complete();
}

#[test]
fn seeded_split_index_mutant_is_killed() {
    let report = modelcheck::check_map_order_mutant(&cfg());
    let failure = report.expect_failure("a next index taken by a separate load and store must be caught");
    assert_eq!(
        failure.kind,
        FailureKind::Panic,
        "two workers take the same index: {failure:?}"
    );
}

#[test]
fn seeded_claim_drop_mutant_is_killed() {
    let report = modelcheck::check_claim_protocol_mutant(&cfg());
    let failure = report.expect_failure("the drop-before-signal mutant must be caught");
    assert_eq!(
        failure.kind,
        FailureKind::Panic,
        "the gap between drop and publish double-executes the run: {failure:?}"
    );
}

#[test]
fn seeded_idle_caller_mutant_is_killed() {
    let report = modelcheck::check_caller_runs_an_item_mutant(&cfg());
    let failure = report.expect_failure("a caller that only joins beside an item only it can run must be caught");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock | FailureKind::StepBound),
        "the idle caller strands the gate item behind the parked worker: {failure:?}"
    );
}

#[test]
fn random_walk_also_kills_the_claim_mutant() {
    let cfg = Config {
        strategy: Strategy::Random { seed: 0xEAC5 },
        max_iterations: 5_000,
        max_steps: 5_000,
        ..Config::default()
    };
    let report = modelcheck::check_claim_protocol_mutant(&cfg);
    let failure = report.expect_failure("the random walk must kill the mutant within its iteration budget");
    assert_eq!(failure.kind, FailureKind::Panic);
}
