//! The scripted-behavior application adapter for the synthesized corpus.
//!
//! [`ScriptedApp`] turns a corpus [`BehaviorScript`] — a serializable list
//! of environment interactions the generator synthesizes alongside each
//! world — into a first-class [`Application`] the engine can trace,
//! perturb, and batch like any hand-written case study. The corpus layer
//! in `epa-core` deliberately never names a concrete application type;
//! this adapter is what the `reproduce` binary, the corpus bench, and the
//! property tests hand to
//! [`epa_core::corpus::harness::differential_check`] via its factory
//! argument.

use std::sync::Arc;

use epa_core::corpus::{BehaviorScript, Scenario};
use epa_sandbox::app::Application;
use epa_sandbox::os::Os;
use epa_sandbox::process::Pid;
use epa_sandbox::trace::SiteId;

/// An [`Application`] driven entirely by a corpus behavior script.
#[derive(Debug, Clone)]
pub struct ScriptedApp {
    script: BehaviorScript,
    /// The script's site ids, interned once here and reused by every run.
    sites: Vec<SiteId>,
}

impl ScriptedApp {
    /// Wraps a behavior script.
    pub fn new(script: BehaviorScript) -> ScriptedApp {
        let sites = script.sites();
        ScriptedApp { script, sites }
    }

    /// The adapter for one synthesized scenario.
    pub fn for_scenario(scenario: &Scenario) -> ScriptedApp {
        ScriptedApp::new(scenario.script.clone())
    }

    /// The factory closure the corpus harness consumes: every scenario maps
    /// to its own scripted adapter.
    pub fn factory() -> impl Fn(&Scenario) -> Arc<dyn Application + Send + Sync> + Sync {
        |scenario: &Scenario| Arc::new(ScriptedApp::for_scenario(scenario))
    }
}

impl Application for ScriptedApp {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        self.script.run(&self.sites, os, pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_core::corpus::{differential_check, synthesize_one, DEFAULT_CORPUS_SEED};

    #[test]
    fn scripted_site_ids_are_built_once_and_dedupe_across_steps_and_scripts() {
        let scenarios: Vec<Scenario> = (0..8).map(|i| synthesize_one(DEFAULT_CORPUS_SEED, i)).collect();
        let mut by_label: std::collections::HashMap<&str, &'static str> = std::collections::HashMap::new();
        for scenario in &scenarios {
            let app = ScriptedApp::for_scenario(scenario);
            assert_eq!(app.sites.len(), scenario.script.steps.len(), "one site per step");
            let labels: std::collections::BTreeSet<&str> = app.sites.iter().map(SiteId::as_str).collect();
            assert_eq!(labels.len(), app.sites.len(), "a script's steps have distinct sites");
            // The same label in any script is the one interned text.
            for site in &app.sites {
                let text = *by_label.entry(site.as_str()).or_insert(site.as_str());
                assert!(std::ptr::eq(text, site.as_str()), "{site} interned twice");
            }
            // A run's trace carries the app's ids, not fresh copies.
            let setup = scenario.spec.materialize().expect("corpus worlds materialize");
            let clean = epa_core::campaign::run_once(&setup, &app, None);
            for ev in clean.os.trace.events() {
                assert!(
                    app.sites.iter().any(|s| std::ptr::eq(s.as_str(), ev.site.as_str())),
                    "{}",
                    ev.site
                );
            }
        }
        assert!(by_label.len() < scenarios.iter().map(|s| s.script.steps.len()).sum::<usize>());
    }

    #[test]
    fn scripted_app_drives_a_synthesized_scenario_end_to_end() {
        let scenario = synthesize_one(DEFAULT_CORPUS_SEED, 3);
        let factory = ScriptedApp::factory();
        let outcome = differential_check(&scenario, &factory);
        assert!(outcome.divergence.is_none(), "divergence: {:?}", outcome.divergence);
        assert!(outcome.injected > 0, "scenario exposed no perturbable sites");
        assert!(outcome.paths.len() >= 6, "expected every execution path to run");
    }
}
