//! The interner's steady state, in a test binary of its own:
//! `intern::stats` counts process-wide, so a test running beside it in the
//! same process would move the counters.

use epa::sandbox::intern;

/// After one warm-up suite run has populated the symbol table, a second
/// full run over the same worlds, faults and scripts interns nothing new:
/// every path it touches resolves to an existing symbol.
#[test]
fn a_warm_standard_suite_run_interns_no_new_symbol() {
    let suite = || epa::apps::standard_suite().expect("valid specs");
    let _ = suite().execute();
    let before = intern::stats();
    let _ = suite().execute();
    let after = intern::stats();
    assert_eq!(after.misses - before.misses, 0, "a warm run interned new symbols");
    assert!(after.hits > before.hits, "a suite run must go through the interner");
}
