//! The application interface: what a program under test looks like.

use crate::os::Os;
use crate::process::Pid;

/// A program that runs inside the sandbox.
///
/// Implementations are written exactly like the C programs they model:
/// issue syscalls through [`Os`], handle errors by printing and exiting,
/// and return a process exit status. They must not consult oracle metadata
/// (labels, tags) — only the bytes and errors a real program would see.
///
/// # Examples
///
/// ```
/// use epa_sandbox::app::Application;
/// use epa_sandbox::os::Os;
/// use epa_sandbox::process::Pid;
///
/// struct Hello;
/// impl Application for Hello {
///     fn name(&self) -> &'static str { "hello" }
///     fn run(&self, os: &mut Os, pid: Pid) -> i32 {
///         let _ = os.sys_print(pid, "hello:print", "hello, world\n");
///         0
///     }
/// }
/// ```
pub trait Application: Sync {
    /// The program's name (also used in reports).
    fn name(&self) -> &'static str;

    /// Runs the program to completion, returning its exit status.
    fn run(&self, os: &mut Os, pid: Pid) -> i32;
}

impl<T: Application + ?Sized> Application for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        (**self).run(os, pid)
    }
}

impl<T: Application + ?Sized> Application for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        (**self).run(os, pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::{Gid, Uid};
    use std::collections::BTreeMap;

    struct Echo;
    impl Application for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn run(&self, os: &mut Os, pid: Pid) -> i32 {
            let args = os.procs.get(pid).map_or(0, |p| p.args.len());
            for i in 0..args {
                let Ok(a) = os.sys_arg(pid, "echo:arg", i, crate::trace::InputSemantic::Opaque) else {
                    return 1;
                };
                if os.sys_print(pid, "echo:print", a).is_err() {
                    return 1;
                }
            }
            0
        }
    }

    #[test]
    fn app_runs_and_captures_stdout() {
        let mut os = Os::new();
        os.users.add("u", Uid(1001), Gid(100), "/");
        let pid = os
            .spawn(Uid(1001), None, vec!["hi".into()], BTreeMap::new(), "/")
            .unwrap();
        let code = Echo.run(&mut os, pid);
        os.set_exit(pid, code);
        assert_eq!(code, 0);
        assert_eq!(os.stdout_text(pid), "hi");
        // Blanket impl for references works too.
        let app_ref: &dyn Application = &Echo;
        assert_eq!(app_ref.name(), "echo");
    }
}
