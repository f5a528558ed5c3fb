//! # epa-core — the EAI fault model and environment fault-injection engine
//!
//! The primary contribution of Du & Mathur, *Testing for Software
//! Vulnerability Using Environment Perturbation* (DSN 2000), as a library:
//!
//! * [`model`] — the Environment–Application Interaction (EAI) taxonomy
//!   (paper §2, Tables 1–4 structure);
//! * [`catalog`] — the fault catalog (paper Tables 5 and 6), both as
//!   printable rows and as per-interaction-point fault generators;
//! * [`perturb`] — executable perturbations (direct = environment mutation,
//!   indirect = received-input mutation);
//! * [`inject`] — the hook that delivers one fault at one interaction point
//!   (paper §3.3 step 6 placement semantics);
//! * [`engine`] — the driver facade: [`engine::WorldSpec`] declarative
//!   worlds, [`engine::Session`] frozen copy-on-write snapshots, and
//!   [`engine::Suite`] batch execution with cross-application rollups;
//! * [`campaign`] — the full testing procedure (paper §3.3 steps 1–10),
//!   the single-campaign primitive underneath the engine;
//! * [`coverage`] — the two-dimensional adequacy metric (paper §3.2,
//!   Figure 2);
//! * [`report`] — per-fault records, coverage and vulnerability scores;
//! * [`analysis`] — the static analysis layer: the reachable-site model,
//!   the fault-relevance relation the Planner pre-prunes with, and the
//!   world linter (`EPA0001`…`EPA0005`);
//! * [`corpus`] — the property-based scenario corpus: seed-reproducible
//!   world synthesis, the differential harness holding every execution
//!   path to byte-identical verdicts, divergence shrinking, and the
//!   corpus adequacy dashboard;
//! * [`store`] — the pluggable result-store layer: the [`store::ResultStore`]
//!   trait behind the planner's memo cache, the persistent content-addressed
//!   [`store::DiskStore`] backend (checksummed, versioned, one append-only
//!   segment per scope, LRU/TTL pruning), and the lockfile-style
//!   [`store::SuiteManifest`];
//! * [`baselines`] — Fuzz and AVA comparators (paper §5).
//!
//! # Example: the paper's §3.4 `lpr` experiment, declaratively
//!
//! ```
//! use epa_core::engine::{Session, WorldSpec};
//! use epa_sandbox::app::Application;
//! use epa_sandbox::cred::{Gid, Uid};
//! use epa_sandbox::os::{Os, ScenarioMeta};
//! use epa_sandbox::process::Pid;
//!
//! struct Lpr;
//! impl Application for Lpr {
//!     fn name(&self) -> &'static str { "lpr" }
//!     fn run(&self, os: &mut Os, pid: Pid) -> i32 {
//!         // creat(n, 0660) without O_EXCL — the flaw from the paper.
//!         match os.sys_write_file(pid, "lpr:create", "/var/spool/lpd/job", "data", 0o660) {
//!             Ok(()) => 0,
//!             Err(_) => 1,
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = ScenarioMeta::default();
//! let spec = WorldSpec::builder()
//!     .user("root", Uid::ROOT, Gid::ROOT, "/root")
//!     .user("student", scenario.invoker, scenario.invoker_gid, "/home/student")
//!     .dir("/var/spool/lpd", Uid::ROOT, Gid::ROOT, 0o755)
//!     .root_file("/etc/passwd", "root:0:0:", 0o644)
//!     .suid_root_program("/usr/bin/lpr")
//!     .build();
//!
//! let report = Session::new(&spec)?.execute(&Lpr);
//! assert_eq!(report.injected(), 4);      // existence, ownership, permission, symlink
//! assert_eq!(report.violated(), 4);      // naive creat tolerates none of them
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod baselines;
pub mod campaign;
pub mod catalog;
pub mod corpus;
pub mod coverage;
pub mod engine;
pub mod inject;
pub mod model;
pub mod perturb;
pub mod report;
pub mod store;

pub use analysis::{lint_scenario, lint_setup, AppAnalysis, Diagnostic, LintReport, Relevance, Severity};
pub use campaign::{run_once, CampaignOptions, CampaignPlan, RunOutcome, TestSetup};
pub use catalog::{direct_faults_for, faults_for_site, indirect_faults_for, table5_rows, table6_rows};
pub use coverage::{AdequacyPoint, AdequacyRegion, AdequacyThresholds, Ratio};
pub use engine::{Engine, ScenarioBuilder, Session, SpecError, Suite, SuiteReport, WorldSpec};
pub use inject::{InjectionHook, InjectionPlan};
pub use model::{DirectKind, EaiCategory, FsAttribute, IndirectKind, NetAttribute, ProcAttribute};
pub use perturb::{ConcreteFault, DirectFault, FaultPayload, IndirectFault};
pub use report::{CampaignReport, FaultRecord};
pub use store::{DiskStore, MemoryStore, ResultStore, SuiteManifest};
