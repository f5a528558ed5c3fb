//! Auditing network daemons: environment perturbation vs random fuzzing.
//!
//! ```text
//! cargo run --example netdaemon_audit
//! ```
//!
//! Runs the EPA campaign over `fingerd` and `authd`, then gives Fuzz the
//! same budget on `fingerd` — showing both what random input *does* find
//! (the overflow) and what only environment perturbation finds
//! (authenticity, protocol, trust and disclosure flaws).

use epa::apps::fingerd::FINGER_PORT;
use epa::apps::{authd, fingerd, Authd, Fingerd};
use epa::core::baselines::fuzz::{run_fuzz, FuzzOptions, FuzzTarget};
use epa::core::engine::Session;

fn main() {
    let finger_setup = fingerd::spec().materialize().unwrap();
    let finger = Session::from_setup(finger_setup.clone()).execute(&Fingerd);
    println!("{}", finger.render_text());

    let authd_setup = authd::spec().materialize().unwrap();
    let authd = Session::from_setup(authd_setup.clone()).execute(&Authd);
    println!("{}", authd.render_text());

    let budget = finger.injected();
    let fuzz = run_fuzz(
        &finger_setup,
        &Fingerd,
        &FuzzOptions {
            runs: budget,
            seed: 7,
            max_len: 6000,
            target: FuzzTarget::Net {
                port: FINGER_PORT,
                from: "trusted.cs.example.edu".into(),
            },
        },
    );
    println!(
        "fuzz on fingerd with the same budget ({budget} runs): {} detecting runs, rules: {:?}",
        fuzz.detections(),
        fuzz.distinct_rules()
    );
    println!(
        "epa on fingerd: {} violations, rules: {:?}",
        finger.violated(),
        finger
            .violations()
            .flat_map(|r| r.violations.iter().map(|v| v.rule.clone()))
            .collect::<std::collections::BTreeSet<_>>()
    );
}
