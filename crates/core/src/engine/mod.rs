//! The campaign driver facade: declarative worlds, frozen sessions, batch
//! suites.
//!
//! This module is the public face of the testing engine, layered so each
//! concern stays independent:
//!
//! 1. **[`WorldSpec`] / [`ScenarioBuilder`]** (`spec`) — worlds declared as
//!    data: files, users, registry keys, network services and attack-target
//!    tags, validated once and reusable across campaigns.
//! 2. **[`Session`]** (`session`) — a spec materialized and frozen; every
//!    run starts from a copy-on-write snapshot of the pristine world, so
//!    per-fault setup costs O(touched state) instead of O(world).
//! 3. **[`Suite`]** (`suite`) — many `(application, world)` pairs executed
//!    as one batch, aggregating the finished, plan-ordered campaign reports
//!    into a [`SuiteReport`] with cross-application rollups.
//! 4. **[`planner`]** — the adaptive fault-space planner between the fault
//!    plan and the executor: where a caller installs a
//!    [`planner::ResultCache`], canonicalizes every job into a
//!    content-addressed [`planner::FaultKey`] and memoizes
//!    `(setup fingerprint, FaultKey) -> RunDigest` in it, so equal runs —
//!    in one plan or across runs — execute once and replay after;
//!    where a caller opts in with
//!    [`crate::campaign::CampaignOptions::static_prune`], statically prunes
//!    provably inert jobs; and (opt-in, via
//!    [`crate::campaign::CampaignOptions::plan_budget`]) prioritizes
//!    remaining jobs by observed per-EAI-category verdict yield.
//! 5. **[`Executor`]** (`executor`) — the one work pool: every campaign,
//!    a suite's or a session's (as a one-app suite), runs through the same
//!    driver on [`Executor::run_expanding`], with deterministic plan-order
//!    reassembly of the results. The calling thread is worker 0 of the
//!    pool, and one worker runs everything inline. Only a suite owns a
//!    multi-worker pool; a session runs on the calling thread. Each campaign's
//!    schedule (and with it every cache and store lookup) is built inside
//!    its scheduling job; cache replays never become injected-run jobs.
//!
//! # Example
//!
//! ```
//! use epa_core::engine::{Engine, WorldSpec};
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
//! let session = Engine::new().session(&spec)?;
//! let report = session.execute(&Lpr);
//! assert_eq!(report.injected(), 4);   // existence, ownership, permission, symlink
//! assert_eq!(report.violated(), 4);   // naive creat tolerates none of them
//! # Ok(())
//! # }
//! ```

pub mod executor;
#[cfg(feature = "model-check")]
pub mod modelcheck;
pub mod planner;
pub mod session;
pub mod spec;
pub mod suite;

pub use executor::Executor;
pub use planner::{CacheStats, FaultKey, ResultCache, RunDigest};
pub use session::Session;
pub use spec::{
    DirSpec, FileSpec, InboundSpec, IpcSpec, RegKeySpec, ScenarioBuilder, ServiceSpec, SpecError, SymlinkSpec,
    UserSpec, WorldSpec,
};
pub use suite::{Suite, SuiteReport};

use epa_sandbox::app::Application;

use crate::campaign::CampaignOptions;

/// The top-level facade: a set of default campaign options from which
/// sessions and suites are minted.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    options: CampaignOptions,
}

impl Engine {
    /// An engine with default options.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Replaces the default campaign options handed to new sessions.
    #[must_use]
    pub fn with_options(mut self, options: CampaignOptions) -> Engine {
        self.options = options;
        self
    }

    /// Materializes a spec into a frozen [`Session`] carrying the engine's
    /// options.
    ///
    /// # Errors
    ///
    /// Any [`SpecError`] from [`WorldSpec::materialize`].
    pub fn session(&self, spec: &WorldSpec) -> Result<Session, SpecError> {
        Ok(Session::new(spec)?.with_options(self.options.clone()))
    }

    /// Convenience: build a suite from heterogeneous `(application, spec)`
    /// pairs in one call, each session carrying the engine's options.
    ///
    /// ```
    /// # use epa_core::engine::Engine;
    /// # use epa_sandbox::app::Application;
    /// # use epa_sandbox::os::Os;
    /// # use epa_sandbox::process::Pid;
    /// # struct A; impl Application for A {
    /// #     fn name(&self) -> &'static str { "a" }
    /// #     fn run(&self, _: &mut Os, _: Pid) -> i32 { 0 }
    /// # }
    /// # struct B; impl Application for B {
    /// #     fn name(&self) -> &'static str { "b" }
    /// #     fn run(&self, _: &mut Os, _: Pid) -> i32 { 0 }
    /// # }
    /// # fn spec_for(_: &str) -> epa_core::engine::WorldSpec { unimplemented!() }
    /// # fn no_run(engine: Engine) -> Result<(), epa_core::engine::SpecError> {
    /// let suite = engine.suite_of(vec![
    ///     (Box::new(A) as Box<dyn Application + Send + Sync>, spec_for("a")),
    ///     (Box::new(B), spec_for("b")),
    /// ])?;
    /// # Ok(()) }
    /// ```
    ///
    /// # Errors
    ///
    /// The first [`SpecError`] any spec produces.
    pub fn suite_of(&self, pairs: Vec<(Box<dyn Application + Send + Sync>, WorldSpec)>) -> Result<Suite, SpecError> {
        let mut suite = Suite::new();
        for (app, spec) in pairs {
            let session = self.session(&spec)?;
            suite.register_session(app, session);
        }
        Ok(suite)
    }
}
