//! Integration: the §5 comparison — environment perturbation vs Fuzz vs AVA.

use epa::apps::{fingerd, turnin, Fingerd, Turnin};
use epa::core::baselines::ava::{run_ava, AvaOptions};
use epa::core::baselines::fuzz::{run_fuzz, FuzzOptions, FuzzTarget};
use epa_bench::comparison;

#[test]
fn epa_surfaces_rules_the_baselines_miss_on_every_app() {
    let c = comparison();
    assert_eq!(c.rows.len(), 3);
    for row in &c.rows {
        assert!(
            row.epa_rules.len() > row.fuzz_rules.len(),
            "{}: EPA ({:?}) must beat Fuzz ({:?})",
            row.app,
            row.epa_rules,
            row.fuzz_rules
        );
        assert!(
            row.epa_rules.len() > row.ava_rules.len(),
            "{}: EPA ({:?}) must beat AVA ({:?})",
            row.app,
            row.epa_rules,
            row.ava_rules
        );
        let epa_only: Vec<_> = row
            .epa_rules
            .iter()
            .filter(|r| !row.fuzz_rules.contains(*r) && !row.ava_rules.contains(*r))
            .collect();
        assert!(!epa_only.is_empty(), "{}: some flaw only EPA finds", row.app);
    }
}

#[test]
fn fuzz_still_finds_the_classic_overflow() {
    // Fuzz's historic strength must survive in the model: random oversized
    // packets trip fingerd's unchecked copy.
    let setup = fingerd::spec().materialize().unwrap();
    let rep = run_fuzz(
        &setup,
        &Fingerd,
        &FuzzOptions {
            runs: 50,
            seed: 3,
            max_len: 6000,
            target: FuzzTarget::Net {
                port: 79,
                from: "trusted.cs.example.edu".into(),
            },
        },
    );
    assert!(
        rep.distinct_rules().contains("R4-memory-safety"),
        "{:?}",
        rep.distinct_rules()
    );
}

#[test]
fn no_baseline_reaches_turnins_environment_flaws() {
    let setup = turnin::spec().materialize().unwrap();
    let fuzz = run_fuzz(
        &setup,
        &Turnin,
        &FuzzOptions {
            runs: 80,
            seed: 11,
            max_len: 4096,
            target: FuzzTarget::Args,
        },
    );
    let ava = run_ava(
        &setup,
        &Turnin,
        &AvaOptions {
            runs: 80,
            seed: 11,
            intensity: 0.9,
        },
    );
    for rules in [fuzz.distinct_rules(), ava.distinct_rules()] {
        assert!(
            !rules.contains("R6-untrusted-exec"),
            "PATH/tar flaws need environment perturbation: {rules:?}"
        );
        assert!(
            !rules.contains("R2-confidentiality"),
            "Projlist disclosure needs file-attribute perturbation: {rules:?}"
        );
    }
}

#[test]
fn baselines_are_deterministic_given_seed() {
    let setup = turnin::spec().materialize().unwrap();
    let o = FuzzOptions {
        runs: 10,
        seed: 42,
        max_len: 512,
        target: FuzzTarget::Args,
    };
    assert_eq!(run_fuzz(&setup, &Turnin, &o), run_fuzz(&setup, &Turnin, &o));
    let a = AvaOptions {
        runs: 10,
        seed: 42,
        intensity: 0.5,
    };
    assert_eq!(run_ava(&setup, &Turnin, &a), run_ava(&setup, &Turnin, &a));
}
