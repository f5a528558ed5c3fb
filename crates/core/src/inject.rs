//! The injection hook: delivers exactly one fault at exactly one point.
//!
//! Following the paper's step 6, a direct fault fires in the `before` hook
//! (the environment is perturbed, then the application interacts with it);
//! an indirect fault fires in the `after` hook (the application's received
//! value is perturbed before its internal entity sees it).

use shim_sync::sync::atomic::{AtomicBool, Ordering};
use shim_sync::sync::Arc;

use serde::{Deserialize, Serialize};

use epa_sandbox::error::SysResult;
use epa_sandbox::os::Os;
use epa_sandbox::syscall::{InteractionRef, Interceptor, SysReturn, Syscall};
use epa_sandbox::trace::SiteId;

use crate::perturb::{ConcreteFault, FaultPayload};

/// One planned injection: a concrete fault aimed at one occurrence of one
/// interaction site.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectionPlan {
    /// The targeted site.
    pub site: SiteId,
    /// Which execution of the site (0-based) to strike.
    pub occurrence: usize,
    /// The fault to inject.
    pub fault: ConcreteFault,
}

/// Shared flag reporting whether a hook's fault actually fired during the
/// run (a perturbed input point may not be reached under some faults).
///
/// Only [`InjectionHook::new`] hands one out. The engine reads the same
/// fact back from the run's world ([`Os::fault_fired`]), which costs no
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct Fired(Arc<AtomicBool>);

impl Fired {
    /// True when the fault was applied.
    pub fn get(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    fn set(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// The [`Interceptor`] that executes an [`InjectionPlan`].
pub struct InjectionHook {
    /// The job list the plan belongs to, shared with the engine so a run
    /// never copies its job.
    jobs: Arc<[InjectionPlan]>,
    idx: usize,
    /// Whether the fault was applied in this run.
    fired: bool,
    /// The handle [`InjectionHook::new`] returned, set when the fault is.
    observer: Option<Fired>,
}

impl std::fmt::Debug for InjectionHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InjectionHook")
            .field("plan", self.plan())
            .field("fired", &self.fired)
            .finish()
    }
}

impl InjectionHook {
    /// Builds the hook and a handle for observing whether it fired. The
    /// run's world records the same fact ([`Os::fault_fired`]).
    pub fn new(plan: InjectionPlan) -> (Self, Fired) {
        let fired = Fired::default();
        let mut hook = InjectionHook::shared(Arc::from([plan]), 0);
        hook.observer = Some(fired.clone());
        (hook, fired)
    }

    /// The hook for job `idx` of a shared job list. Whether it fired is
    /// read back from the run's world ([`Os::fault_fired`]).
    ///
    /// # Panics
    ///
    /// If `idx` is out of bounds for `jobs`.
    pub(crate) fn shared(jobs: Arc<[InjectionPlan]>, idx: usize) -> Self {
        assert!(idx < jobs.len(), "injection job {idx} of {}", jobs.len());
        InjectionHook {
            jobs,
            idx,
            fired: false,
            observer: None,
        }
    }

    /// Records that the fault was applied, on the hook, on the run's
    /// world and on any observing handle.
    fn fire(&mut self, os: &mut Os) {
        self.fired = true;
        os.note_fault_fired();
        if let Some(observer) = &self.observer {
            observer.set();
        }
    }

    /// The injection this hook executes.
    fn plan(&self) -> &InjectionPlan {
        &self.jobs[self.idx]
    }

    /// Direct faults strike a specific occurrence of the site.
    fn matches_direct(&self, point: &InteractionRef) -> bool {
        point.site == self.plan().site && point.occurrence == self.plan().occurrence
    }

    /// Indirect faults strike the first interaction at the site whose
    /// declared input semantics match the fault's target semantics (a site
    /// may read several differently-shaped inputs; the Table 5 pattern is
    /// tied to the input kind, not to a positional index).
    fn matches_indirect(&self, point: &InteractionRef) -> bool {
        let plan = self.plan();
        if point.site != plan.site {
            return false;
        }
        match plan.fault.semantic {
            Some(sem) => point.semantic == Some(sem),
            None => point.occurrence == plan.occurrence,
        }
    }
}

impl Interceptor for InjectionHook {
    fn before(&mut self, os: &mut Os, point: &InteractionRef, _call: &Syscall<'_>) {
        if self.fired || !self.matches_direct(point) {
            return;
        }
        if let FaultPayload::Direct(df) = &self.plan().fault.payload {
            // A perturbation that cannot be applied (e.g. target path has no
            // parent) is treated as not-fired; the record will show it.
            if df.apply(os, point.pid).is_ok() {
                self.fire(os);
            }
        }
    }

    fn after(&mut self, os: &mut Os, point: &InteractionRef, result: &mut SysResult<SysReturn>) {
        if self.fired || !self.matches_indirect(point) {
            return;
        }
        if let FaultPayload::Indirect(f) = &self.plan().fault.payload {
            if let Ok(ret) = result {
                f.apply_to_return(ret);
                self.fire(os);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{EaiCategory, IndirectKind};
    use crate::perturb::IndirectFault;
    use epa_sandbox::cred::{Gid, Uid};
    use epa_sandbox::trace::InputSemantic;
    use std::collections::BTreeMap;

    fn world() -> Os {
        let mut os = Os::new();
        os.users
            .add("u", os.scenario.invoker, os.scenario.invoker_gid, "/home/u");
        os.fs
            .mkdir_p(
                "/home/u",
                os.scenario.invoker,
                os.scenario.invoker_gid,
                epa_sandbox::mode::Mode::new(0o755),
            )
            .unwrap();
        os
    }

    fn lengthen_plan(site: &str, occurrence: usize) -> InjectionPlan {
        InjectionPlan {
            site: SiteId::new(site),
            occurrence,
            fault: ConcreteFault {
                id: "indirect:test:lengthen".into(),
                category: EaiCategory::Indirect(IndirectKind::UserInput),
                semantic: Some(InputSemantic::UserFileName),
                description: "test".into(),
                payload: FaultPayload::Indirect(IndirectFault::Lengthen { by: 100 }),
            },
        }
    }

    #[test]
    fn indirect_fault_strikes_first_semantic_match() {
        // The site reads a flag (Opaque) before the file name; the
        // UserFileName-targeted fault must skip the flag and strike the name.
        let mut os = world();
        let (hook, fired) = InjectionHook::new(lengthen_plan("app:arg", 0));
        os.set_interceptor(Box::new(hook));
        let pid = os
            .spawn(
                os.scenario.invoker,
                None,
                vec!["-c".into(), "b".into()],
                BTreeMap::new(),
                "/",
            )
            .unwrap();
        let flag = os.sys_arg(pid, "app:arg", 0, InputSemantic::Opaque).unwrap();
        assert_eq!(flag.text(), "-c", "non-matching semantics untouched");
        assert!(!fired.get());
        let name = os.sys_arg(pid, "app:arg", 1, InputSemantic::UserFileName).unwrap();
        assert_eq!(name.len(), 101, "first matching input perturbed");
        assert!(fired.get());
    }

    #[test]
    fn fault_fires_at_most_once() {
        let mut os = world();
        let (hook, fired) = InjectionHook::new(lengthen_plan("app:arg", 0));
        os.set_interceptor(Box::new(hook));
        let pid = os
            .spawn(
                os.scenario.invoker,
                None,
                vec!["a".into(), "b".into()],
                BTreeMap::new(),
                "/",
            )
            .unwrap();
        os.sys_arg(pid, "app:arg", 0, InputSemantic::UserFileName).unwrap();
        let again = os.sys_arg(pid, "app:arg", 0, InputSemantic::UserFileName);
        // Occurrence numbering means site "app:arg" occurrence 0 happens once;
        // the second call is occurrence 1 and must be untouched.
        assert_eq!(again.unwrap().text(), "a");
        assert!(fired.get());
    }

    #[test]
    fn direct_fault_fires_before_the_call() {
        use crate::perturb::DirectFault;
        let mut os = world();
        os.fs
            .put_file(
                "/etc/cf",
                "genuine",
                Uid::ROOT,
                Gid::ROOT,
                epa_sandbox::mode::Mode::new(0o644),
            )
            .unwrap();
        let plan = InjectionPlan {
            site: SiteId::new("app:read"),
            occurrence: 0,
            fault: ConcreteFault {
                id: "direct:fs:content@/etc/cf".into(),
                category: EaiCategory::Other,
                semantic: None,
                description: "modify".into(),
                payload: FaultPayload::Direct(DirectFault::ModifyContent {
                    path: "/etc/cf".into(),
                    content: "perturbed".into(),
                }),
            },
        };
        let (hook, fired) = InjectionHook::new(plan);
        os.set_interceptor(Box::new(hook));
        let pid = os
            .spawn(os.scenario.invoker, None, vec![], BTreeMap::new(), "/")
            .unwrap();
        let got = os.sys_read_file(pid, "app:read", "/etc/cf").unwrap();
        assert_eq!(got.text(), "perturbed", "the read must observe the perturbed world");
        assert!(fired.get());
    }

    #[test]
    fn indirect_fault_does_not_fire_on_error_result() {
        let mut os = world();
        let (hook, fired) = InjectionHook::new(lengthen_plan("app:getenv", 0));
        os.set_interceptor(Box::new(hook));
        let pid = os
            .spawn(os.scenario.invoker, None, vec![], BTreeMap::new(), "/")
            .unwrap();
        let e = os.sys_getenv(pid, "app:getenv", "UNSET", InputSemantic::EnvValue);
        assert!(e.is_err());
        assert!(!fired.get(), "cannot perturb a value that was never produced");
    }
}
