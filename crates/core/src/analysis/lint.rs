//! The world linter: stable, machine-readable diagnostics over a world
//! spec and its application model.
//!
//! | Code      | Severity | Meaning                                                      |
//! |-----------|----------|--------------------------------------------------------------|
//! | `EPA0001` | error    | invariant constrains a path that cannot exist (unreachable)  |
//! | `EPA0002` | warning  | dangling symlink in the declared world                       |
//! | `EPA0003` | info     | catalog faults at a site are provably inert (dead faults)    |
//! | `EPA0004` | warning  | invariant on a path no script/trace event touches            |
//! | `EPA0005` | warning  | occurrence budget exceeds the static hit bound               |
//!
//! Codes are stable: tests, CI gates, and downstream tooling key on them.
//! Diagnostics are sorted by `(code, subject)` so output is deterministic
//! for a given world — `tests/props_analysis.rs` pins byte-identical
//! reports across repeated runs.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use epa_sandbox::path;
use epa_sandbox::policy::InvariantSpec;

use crate::engine::spec::WorldSpec;
use crate::inject::InjectionPlan;

use super::statics::{declared_exists, resolve_alias};
use super::{AppAnalysis, Decision};

/// Diagnostic severity. Only `Error` fails `reproduce -- lint` (and the CI
/// lint job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// The world is self-contradictory; campaigns over it measure nothing.
    Error,
    /// Probably a spec mistake; campaigns still run soundly.
    Warning,
    /// Informational (e.g. dead-fault statistics).
    Info,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        })
    }
}

/// One diagnostic: a stable code, a severity, the subject it is about, and
/// a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable code (`EPA0001`…).
    pub code: String,
    /// Severity.
    pub severity: Severity,
    /// What the diagnostic is about (a path, site, or link).
    pub subject: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    fn new(code: &str, severity: Severity, subject: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code: code.to_string(),
            severity,
            subject: subject.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.code, self.severity, self.subject, self.message
        )
    }
}

/// The lint result for one world (an app or a corpus scenario).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintReport {
    /// What was linted (app name or scenario id).
    pub subject: String,
    /// The diagnostics, sorted by `(code, subject)`.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    fn new(subject: impl Into<String>, mut diagnostics: Vec<Diagnostic>) -> LintReport {
        diagnostics.sort_by(|a, b| (&a.code, &a.subject).cmp(&(&b.code, &b.subject)));
        LintReport {
            subject: subject.into(),
            diagnostics,
        }
    }

    /// How many diagnostics carry the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// True when any diagnostic is an error (the CI-failing condition).
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// The human-readable rendering, one line per diagnostic.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "lint {}: {} error(s), {} warning(s), {} info\n",
            self.subject,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        out
    }
}

/// Per-site counts of provably inert faults over a planned job list.
fn dead_fault_tally(analysis: &AppAnalysis, jobs: &[InjectionPlan]) -> BTreeMap<String, usize> {
    let mut out: BTreeMap<String, usize> = BTreeMap::new();
    for job in jobs {
        if matches!(analysis.decide(job), Decision::Inert { .. }) {
            *out.entry(job.site.to_string()).or_default() += 1;
        }
    }
    out
}

/// Lints a world against its application's clean-run analysis (the trace
/// is the model of what the application touches and creates); the planned
/// job list feeds the dead-fault statistics.
pub fn lint_setup(
    name: &str,
    spec: &WorldSpec,
    analysis: &AppAnalysis,
    jobs: &[InjectionPlan],
    occurrence_budget: Option<usize>,
) -> LintReport {
    let touched_paths = analysis.touched_paths();
    let created_paths = analysis.written_paths();
    let mut out = Vec::new();

    // EPA0001 / EPA0004: invariants against the touched/created path sets.
    for inv in &spec.invariants {
        if let InvariantSpec::FilePristine { path: p } = inv {
            let (resolved, _) = resolve_alias(spec, p);
            let exists = declared_exists(spec, &resolved) || declared_exists(spec, p);
            let created = created_paths.contains(&resolved) || created_paths.contains(&path::clean(p));
            let touched = touched_paths.contains(&resolved) || touched_paths.contains(&path::clean(p));
            if !exists && !created {
                out.push(Diagnostic::new(
                    "EPA0001",
                    Severity::Error,
                    p.clone(),
                    "invariant constrains a path that neither exists in the declared world nor is ever created — it can never be meaningfully checked",
                ));
            } else if !touched {
                out.push(Diagnostic::new(
                    "EPA0004",
                    Severity::Warning,
                    p.clone(),
                    "invariant constrains a path no interaction touches; only an injected alias or traversal fault could ever reach it",
                ));
            }
        }
    }

    // EPA0002: dangling symlinks. (A link declared at a file's or
    // directory's path never gets here: `WorldSpec::validate` refuses it.)
    for link in &spec.symlinks {
        let link_path = path::clean(&link.link);
        let (resolved, _) = resolve_alias(spec, &link_path);
        if !declared_exists(spec, &resolved) && !created_paths.contains(&resolved) {
            out.push(Diagnostic::new(
                "EPA0002",
                Severity::Warning,
                link_path,
                format!(
                    "symlink target `{}` resolves to `{resolved}`, which nothing declares or creates (dangling alias)",
                    link.target
                ),
            ));
        }
    }

    // EPA0003: dead catalog faults, aggregated per site.
    for (site, count) in dead_fault_tally(analysis, jobs) {
        out.push(Diagnostic::new(
            "EPA0003",
            Severity::Info,
            site,
            format!("{count} catalog fault(s) at this site are provably inert (dead faults)"),
        ));
    }

    // EPA0005: a finite occurrence budget no site can spend.
    if let Some(budget) = occurrence_budget {
        let max_hits = analysis.site_hits().values().copied().max().unwrap_or(0);
        if budget != usize::MAX && budget > 1 && budget > max_hits {
            out.push(Diagnostic::new(
                "EPA0005",
                Severity::Warning,
                format!("occurrence budget {budget}"),
                format!("exceeds the static hit bound ({max_hits}): occurrences past the bound can never fire"),
            ));
        }
    }

    LintReport::new(name, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_once;
    use crate::corpus::{BehaviorScript, BehaviorStep, Scenario};
    use crate::engine::spec::{DirSpec, FileSpec, SpecError, SymlinkSpec, UserSpec};
    use epa_sandbox::app::Application;
    use epa_sandbox::cred::{Gid, Uid};
    use epa_sandbox::os::Os;
    use epa_sandbox::process::Pid;

    /// A scenario's behavior script as an application.
    struct Script(BehaviorScript);
    impl Application for Script {
        fn name(&self) -> &'static str {
            "script"
        }
        fn run(&self, os: &mut Os, pid: Pid) -> i32 {
            self.0.run(&self.0.sites(), os, pid)
        }
    }

    /// A scenario over `spec` plus the declared invoker every run needs.
    fn scenario(mut spec: WorldSpec, steps: Vec<BehaviorStep>) -> Scenario {
        spec.users.push(UserSpec {
            name: "student".to_string(),
            uid: spec.scenario.invoker,
            gid: spec.scenario.invoker_gid,
            home: "/home/student".to_string(),
        });
        Scenario {
            id: "test-scn".to_string(),
            seed: 0,
            spec,
            script: BehaviorScript::new(steps),
        }
    }

    /// Lints a scenario against its clean-run trace, with no planned jobs
    /// and no occurrence budget (EPA0003 and EPA0005 never fire).
    fn lint(scenario: &Scenario) -> LintReport {
        let setup = scenario.spec.materialize().expect("test worlds materialize");
        let clean = run_once(&setup, &Script(scenario.script.clone()), None);
        let analysis = AppAnalysis::from_clean_run(&setup, &clean);
        lint_setup(&scenario.id, &scenario.spec, &analysis, &[], None)
    }

    fn file(path: &str) -> FileSpec {
        FileSpec {
            path: path.to_string(),
            content: "x".to_string(),
            owner: Uid::ROOT,
            group: Gid::ROOT,
            mode: 0o644,
        }
    }

    #[test]
    fn epa0001_fires_on_unreachable_invariant_paths() {
        let mut spec = WorldSpec::default();
        spec.invariants.push(InvariantSpec::file_pristine("/ghost/never"));
        let report = lint(&scenario(spec, vec![]));
        assert!(report.has_errors());
        assert_eq!(report.diagnostics[0].code, "EPA0001");
        assert_eq!(report.diagnostics[0].subject, "/ghost/never");
    }

    #[test]
    fn epa0001_spares_paths_the_script_creates() {
        let mut spec = WorldSpec::default();
        spec.dirs.push(DirSpec {
            path: "/var".into(),
            owner: Uid::ROOT,
            group: Gid::ROOT,
            mode: 0o777,
        });
        spec.invariants.push(InvariantSpec::file_pristine("/var/out"));
        let report = lint(&scenario(
            spec,
            vec![BehaviorStep::WriteFile {
                path: "/var/out".into(),
                content: "x".into(),
                mode: 0o644,
            }],
        ));
        assert!(!report.has_errors(), "{report:?}");
    }

    #[test]
    fn epa0002_fires_on_dangling_and_shadowed_links() {
        let mut spec = WorldSpec::default();
        spec.symlinks.push(SymlinkSpec {
            link: "/etc/alias".into(),
            target: "/nowhere/real".into(),
        });
        let report = lint(&scenario(spec.clone(), vec![]));
        assert_eq!(report.count(Severity::Warning), 1);
        assert_eq!(report.diagnostics[0].code, "EPA0002");

        // A link shadowed by a file never reaches the linter.
        spec.files.push(file("/etc/alias"));
        assert_eq!(
            spec.validate(),
            Err(SpecError::DuplicatePath {
                path: "/etc/alias".into()
            })
        );
    }

    #[test]
    fn epa0004_fires_on_untouched_invariant_paths() {
        let mut spec = WorldSpec::default();
        spec.files.push(file("/etc/precious"));
        spec.invariants.push(InvariantSpec::file_pristine("/etc/precious"));
        let report = lint(&scenario(
            spec,
            vec![BehaviorStep::ReadFile {
                path: "/etc/other".into(),
                times: 1,
            }],
        ));
        assert!(!report.has_errors());
        assert_eq!(report.count(Severity::Warning), 1);
        assert_eq!(report.diagnostics[0].code, "EPA0004");
    }

    #[test]
    fn clean_worlds_lint_clean() {
        let mut spec = WorldSpec::default();
        spec.files.push(file("/etc/conf"));
        spec.invariants.push(InvariantSpec::file_pristine("/etc/conf"));
        let report = lint(&scenario(
            spec,
            vec![BehaviorStep::ReadFile {
                path: "/etc/conf".into(),
                times: 1,
            }],
        ));
        assert!(report.diagnostics.is_empty(), "{report:?}");
    }

    #[test]
    fn rendering_is_deterministic_and_lists_every_diagnostic() {
        let mut spec = WorldSpec::default();
        spec.invariants.push(InvariantSpec::file_pristine("/ghost/a"));
        spec.invariants.push(InvariantSpec::file_pristine("/ghost/b"));
        let scn = scenario(spec, vec![]);
        let a = lint(&scn);
        let b = lint(&scn);
        assert_eq!(a, b);
        let text = a.render_text();
        assert!(text.contains("/ghost/a") && text.contains("/ghost/b"));
        assert!(text.starts_with("lint test-scn: 2 error(s)"));
        let json = serde_json::to_string(&a).expect("reports serialize");
        assert!(json.contains("EPA0001"));
    }
}
