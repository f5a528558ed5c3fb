//! The BSD `lpr` fragment of paper §3.4.
//!
//! `lpr` is set-UID root. It reads the user's file name, reads the job
//! content, and spools it with `creat(n, 0660)` followed by `write` — the
//! exact code the paper quotes. The vulnerable version performs no
//! existence/ownership/symlink checks before `creat`, so all four
//! applicable Table 6 file perturbations defeat it; [`LprFixed`] uses the
//! exclusive-create idiom and survives all of them.

use epa_sandbox::app::Application;
use epa_sandbox::data::PathArg;
use epa_sandbox::os::Os;
use epa_sandbox::process::Pid;
use epa_sandbox::trace::InputSemantic;

/// Spool file path used by the model printer daemon.
pub const SPOOL_FILE: &str = "/var/spool/lpd/cfA100";

/// The `lpr` world of paper §3.4, declared as data: SUID-root printer
/// client, world-writable spool protocol, an unprivileged student invoker.
pub fn spec() -> epa_core::engine::WorldSpec {
    use epa_sandbox::cred::{Gid, Uid};
    use epa_sandbox::os::ScenarioMeta;
    let scenario = ScenarioMeta::default();
    crate::worlds::base_unix_builder()
        .dir("/var/spool/lpd", Uid::ROOT, Gid::ROOT, 0o755)
        .file(
            "/home/student/report.txt",
            "quarterly report\n",
            scenario.invoker,
            scenario.invoker_gid,
            0o644,
        )
        .suid_root_program("/usr/bin/lpr")
        .args(["report.txt"])
        .cwd("/home/student")
        .build()
}

/// The vulnerable `lpr` of paper §3.4.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lpr;

impl Application for Lpr {
    fn name(&self) -> &'static str {
        "lpr"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        // Which file does the user want printed?
        let Ok(job_name) = os.sys_arg(pid, "lpr:read_args", 0, InputSemantic::UserFileName) else {
            let _ = os.sys_print(pid, "lpr:usage", "usage: lpr file\n");
            return 2;
        };
        // Read the job content.
        let job = match os.sys_read_file(pid, "lpr:read_input", PathArg::from(&job_name)) {
            Ok(d) => d,
            Err(e) => {
                let _ = os.sys_print(pid, "lpr:err", format!("lpr: {}: cannot open\n", job_name.as_text()));
                let _ = e;
                return 1;
            }
        };
        // f = creat(n, 0660); ... write(f, buf, i)
        // No O_EXCL, no lstat: the paper's flaw, verbatim.
        if os
            .sys_write_file(pid, "lpr:create_spool", SPOOL_FILE, job, 0o660)
            .is_err()
        {
            let _ = os.sys_print(pid, "lpr:err", "lpr: cannot create spool file\n");
            return 1;
        }
        let _ = os.sys_print(pid, "lpr:done", "lpr: job queued\n");
        0
    }
}

/// The patched `lpr`: exclusive creation, refusing pre-existing spool
/// entries of any kind (including symlinks).
#[derive(Debug, Clone, Copy, Default)]
pub struct LprFixed;

impl Application for LprFixed {
    fn name(&self) -> &'static str {
        "lpr-fixed"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        let Ok(job_name) = os.sys_arg(pid, "lpr:read_args", 0, InputSemantic::UserFileName) else {
            let _ = os.sys_print(pid, "lpr:usage", "usage: lpr file\n");
            return 2;
        };
        // Fix: the access(2) pattern — the *real* uid must be able to read
        // the job file; the SUID program must not become a read oracle.
        let me = os.procs.get(pid).map(|p| p.cred).expect("own credentials");
        match os.sys_stat(pid, "lpr:read_input", PathArg::from(&job_name)) {
            Ok(st) => {
                if !st
                    .mode
                    .grants(st.owner, st.group, &me.invoker(), epa_sandbox::mode::Access::Read)
                {
                    let _ = os.sys_print(
                        pid,
                        "lpr:err",
                        format!("lpr: {}: permission denied\n", job_name.as_text()),
                    );
                    return 1;
                }
            }
            Err(_) => {
                let _ = os.sys_print(pid, "lpr:err", format!("lpr: {}: cannot open\n", job_name.as_text()));
                return 1;
            }
        }
        let Ok(job) = os.sys_read_file(pid, "lpr:read_input", PathArg::from(&job_name)) else {
            let _ = os.sys_print(pid, "lpr:err", format!("lpr: {}: cannot open\n", job_name.as_text()));
            return 1;
        };
        // open(n, O_CREAT|O_EXCL|O_WRONLY, 0660): refuses anything that
        // already occupies the name, dangling symlinks included.
        if os.sys_create_excl(pid, "lpr:create_spool", SPOOL_FILE, 0o660).is_err() {
            let _ = os.sys_print(pid, "lpr:err", "lpr: spool name taken, try again\n");
            return 1;
        }
        if os.sys_append(pid, "lpr:create_spool", SPOOL_FILE, job, 0o660).is_err() {
            let _ = os.sys_print(pid, "lpr:err", "lpr: temp file write error\n");
            return 1;
        }
        let _ = os.sys_print(pid, "lpr:done", "lpr: job queued\n");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_core::campaign::run_once;

    #[test]
    fn vulnerable_lpr_queues_cleanly() {
        let setup = spec().materialize().unwrap();
        let out = run_once(&setup, &Lpr, None);
        assert_eq!(out.exit, Some(0));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.os.fs.exists(SPOOL_FILE));
    }

    #[test]
    fn fixed_lpr_queues_cleanly() {
        let setup = spec().materialize().unwrap();
        let out = run_once(&setup, &LprFixed, None);
        assert_eq!(out.exit, Some(0));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn symlink_swap_defeats_vulnerable_but_not_fixed() {
        let mut setup = spec().materialize().unwrap();
        setup.world.fs.god_symlink(SPOOL_FILE, "/etc/passwd").unwrap();
        let vuln = run_once(&setup, &Lpr, None);
        assert!(
            !vuln.violations.is_empty(),
            "vulnerable lpr must clobber the passwd file"
        );
        let fixed = run_once(&setup, &LprFixed, None);
        assert!(fixed.violations.is_empty(), "{:?}", fixed.violations);
        assert_eq!(fixed.exit, Some(1), "fixed lpr refuses and reports");
    }

    #[test]
    fn symlink_verdict_carries_in_bounds_evidence() {
        let mut setup = spec().materialize().unwrap();
        setup.world.fs.god_symlink(SPOOL_FILE, "/etc/passwd").unwrap();
        let out = run_once(&setup, &Lpr, None);
        crate::assert_evidence_in_bounds(&out);
        assert!(out.violations[0].evidence.items[0].summary.contains("/etc/passwd"));
    }
}
