//! Sessions: one frozen pristine world, many cheap campaign runs.
//!
//! A [`Session`] materializes a [`WorldSpec`] once (or adopts an existing
//! [`TestSetup`]) and freezes the result. Every run — the clean trace, each
//! injected fault, every repeated campaign — starts from a copy-on-write
//! snapshot of the frozen world ([`Session::snapshot`]), so per-fault setup
//! costs O(touched state) instead of a deep world copy. Each run judges
//! itself through the setup's `OracleSet` (the standard detector families
//! plus any spec-declared invariants), subscribed to the run's audit log so
//! verdicts — with their evidence chains — are ready the moment the run
//! ends.

use epa_sandbox::app::Application;
use epa_sandbox::os::Os;

use crate::campaign::{run_once, Campaign, CampaignOptions, CampaignPlan, PlanTally, RunOutcome, TestSetup};
use crate::engine::executor::Executor;
use crate::engine::planner::ResultCache;
use crate::engine::spec::{SpecError, WorldSpec};
use crate::engine::suite::drive;
use crate::inject::InjectionPlan;
use crate::report::{CampaignReport, FaultRecord};

/// A frozen pristine world plus campaign options.
///
/// The world inside a session is immutable: runs snapshot it, they never
/// mutate it. That is what makes one session reusable across the clean run,
/// a full campaign, an incremental campaign, and any number of repetitions
/// — all observing byte-identical initial state.
#[derive(Debug, Clone)]
pub struct Session {
    setup: TestSetup,
    options: CampaignOptions,
}

impl Session {
    /// Validates and materializes a spec into a frozen session.
    ///
    /// # Errors
    ///
    /// Any [`SpecError`] from [`WorldSpec::materialize`].
    pub fn new(spec: &WorldSpec) -> Result<Session, SpecError> {
        Ok(Session::from_setup(spec.materialize()?))
    }

    /// Freezes an already-built setup (the migration path from hand-built
    /// worlds; see the README's `TestSetup` → `Session` notes).
    pub fn from_setup(setup: TestSetup) -> Session {
        Session {
            setup,
            options: CampaignOptions::default(),
        }
    }

    /// Replaces the campaign options.
    #[must_use]
    pub fn with_options(mut self, options: CampaignOptions) -> Session {
        self.options = options;
        self
    }

    /// Installs a shared [`ResultCache`]: campaigns run from this session
    /// memoize every executed run and replay identical ones (here and in
    /// any other session sharing the cache) instead of re-executing them.
    /// A session without one executes every job it does not prune.
    #[must_use]
    pub fn with_result_cache(mut self, cache: ResultCache) -> Session {
        self.options.cache = Some(cache);
        self
    }

    /// The frozen setup.
    pub fn setup(&self) -> &TestSetup {
        &self.setup
    }

    /// The frozen pristine world.
    pub fn world(&self) -> &Os {
        &self.setup.world
    }

    /// A copy-on-write snapshot of the pristine world: O(1), sharing all
    /// substrate storage until the copy mutates.
    pub fn snapshot(&self) -> Os {
        self.setup.world.clone()
    }

    /// Runs the application once, unperturbed, from a fresh snapshot.
    pub fn run(&self, app: &dyn Application) -> RunOutcome {
        run_once(&self.setup, app, None)
    }

    /// Steps 1–5 of the paper's procedure: trace the application and build
    /// the per-site fault plan.
    pub fn plan(&self, app: &dyn Application) -> CampaignPlan {
        self.campaign(app).plan()
    }

    /// Steps 1–10: the full campaign.
    pub fn execute(&self, app: &dyn Application) -> CampaignReport {
        let campaign = self.campaign(app);
        let (tally, records) = self.drive(&campaign, None);
        campaign.report_from(&tally.expect("the driver planned the campaign"), records)
    }

    /// Executes a pre-built plan (lets callers inspect or prune it first).
    /// The plan's clean run seeds the static analysis, so no second clean
    /// run happens.
    pub fn execute_plan(&self, app: &dyn Application, plan: &CampaignPlan) -> CampaignReport {
        let campaign = self.campaign(app);
        campaign.adopt_clean_run(&plan.clean);
        let (_, records) = self.drive(&campaign, Some(plan.jobs()));
        campaign.report_from(&plan.tally(), records)
    }

    pub(crate) fn campaign<'a>(&'a self, app: &'a dyn Application) -> Campaign<'a> {
        Campaign::build(app, &self.setup, self.options.clone())
    }

    /// Runs one campaign through the engine's driver as a one-app suite, on
    /// the calling thread: the driver's map at one worker runs inline (a
    /// [`crate::engine::Suite`] owns the only pool).
    /// `jobs` as in the driver: `None` plans first.
    fn drive(
        &self,
        campaign: &Campaign<'_>,
        jobs: Option<Vec<InjectionPlan>>,
    ) -> (Option<PlanTally>, Vec<FaultRecord>) {
        let mut finished = drive(&Executor::with_workers(1), std::slice::from_ref(campaign), vec![jobs]);
        finished.pop().expect("the driver finishes every campaign")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_sandbox::cred::{Gid, Uid};
    use epa_sandbox::os::ScenarioMeta;
    use epa_sandbox::process::Pid;
    use epa_sandbox::trace::InputSemantic;
    use shim_sync::sync::atomic::{AtomicUsize, Ordering};

    /// The same mini-lpr the campaign tests use: one input site, one
    /// naive-create site.
    struct MiniLpr;
    impl Application for MiniLpr {
        fn name(&self) -> &'static str {
            "mini-lpr"
        }
        fn run(&self, os: &mut Os, pid: Pid) -> i32 {
            let Ok(job) = os.sys_arg(pid, "lpr:arg", 0, InputSemantic::UserFileName) else {
                return 2;
            };
            if os
                .sys_write_file(pid, "lpr:create", "/var/spool/lpd/job", job, 0o660)
                .is_err()
            {
                return 1;
            }
            0
        }
    }

    fn session() -> Session {
        let scenario = ScenarioMeta::default();
        let spec = WorldSpec::builder()
            .user("root", Uid::ROOT, Gid::ROOT, "/root")
            .user("student", scenario.invoker, scenario.invoker_gid, "/home/student")
            .user("evil", scenario.attacker, scenario.attacker_gid, "/home/evil")
            .dir("/var/spool/lpd", Uid::ROOT, Gid::ROOT, 0o755)
            .root_file("/etc/passwd", "root:0:0:", 0o644)
            .root_file("/etc/shadow", "root:HASH", 0o600)
            .suid_root_program("/usr/bin/lpr")
            .args(["report.txt"])
            .build();
        Session::new(&spec).unwrap()
    }

    #[test]
    fn session_reproduces_the_campaign_numbers() {
        let s = session();
        let report = s.execute(&MiniLpr);
        assert_eq!(report.injected(), 9);
        assert_eq!(report.violated(), 4);
        assert_eq!(report.clean_violations, 0);
    }

    #[test]
    fn snapshots_share_storage_and_leave_the_pristine_world_untouched() {
        let s = session();
        let snap = s.snapshot();
        assert_eq!(snap.fs.shared_inodes_with(&s.world().fs), s.world().fs.inode_count());
        // A full campaign later, the frozen world is still pristine.
        let _ = s.execute(&MiniLpr);
        assert!(s.world().trace.sites().is_empty());
        assert_eq!(s.world().audit.len(), 0);
        assert!(!s.world().fs.exists("/var/spool/lpd/job"));
    }

    /// [`MiniLpr`] counting every run of the application.
    struct Counting(AtomicUsize);
    impl Application for Counting {
        fn name(&self) -> &'static str {
            "mini-lpr"
        }
        fn run(&self, os: &mut Os, pid: Pid) -> i32 {
            self.0.fetch_add(1, Ordering::SeqCst);
            MiniLpr.run(os, pid)
        }
    }

    #[test]
    fn a_pruned_campaign_runs_the_application_once_per_executed_job_plus_one_clean_run() {
        // With static pruning on, the analysis must reuse the plan's clean
        // run, never repeat it.
        let s = session().with_options(CampaignOptions {
            static_prune: true,
            ..CampaignOptions::default()
        });
        let check = |name: &str, execute: &dyn Fn(&Counting) -> CampaignReport| {
            let app = Counting(AtomicUsize::new(0));
            let executed = execute(&app).runs_executed();
            assert_eq!(
                app.0.load(Ordering::SeqCst),
                executed + 1,
                "{name}: app runs = executed runs + one clean run"
            );
        };
        check("execute", &|app| s.execute(app));
        check("execute_plan", &|app| s.execute_plan(app, &s.plan(app)));
    }
}
