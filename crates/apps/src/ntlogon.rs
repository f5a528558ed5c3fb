//! The NT user-logon module of paper §4.2.
//!
//! The paper: *"When a user logons, the module will find the user's profile
//! from a directory specified in a registry key. … the program does not
//! deal with the situation when the directory is not trusted."*
//!
//! `ntlogon` runs as the logon service (Administrator privilege) and
//! consumes four world-writable registry keys: the profile directory, the
//! machine logon script, the default shell, and a help/welcome file. The
//! vulnerable version trusts all four blindly; [`NtLogonFixed`] verifies
//! ownership and refuses untrusted objects.

use epa_sandbox::app::Application;
use epa_sandbox::cred::Uid;
use epa_sandbox::data::{Data, PathArg};
use epa_sandbox::os::Os;
use epa_sandbox::process::Pid;
use epa_sandbox::trace::InputSemantic;

/// The four logon registry keys.
pub const LOGON_KEYS: [&str; 4] = ["ProfileDir", "Script", "Shell", "HelpFile"];

/// The NT logon world of paper §4.2, declared as data: the logon service
/// (root) processes `user1001`'s logon over the shared NT base.
pub fn spec() -> epa_core::engine::WorldSpec {
    crate::worlds::base_nt_builder(Uid(1001))
        .invoker(Uid::ROOT)
        .cwd("/")
        .build()
}

/// Full key path for one logon key.
pub fn logon_key(name: &str) -> String {
    format!("HKLM/Software/Logon/{name}")
}

// `logon_key` of each of `LOGON_KEYS`, as the modules read them.
const PROFILE_DIR_KEY: &str = "HKLM/Software/Logon/ProfileDir";
const SCRIPT_KEY: &str = "HKLM/Software/Logon/Script";
const SHELL_KEY: &str = "HKLM/Software/Logon/Shell";
const HELP_FILE_KEY: &str = "HKLM/Software/Logon/HelpFile";

/// The `shell=` entry of a profile, carrying the profile's labels.
fn parse_shell(profile: &Data) -> Option<Data> {
    let text = profile.as_text();
    let rest = text.lines().find_map(|line| line.strip_prefix("shell="))?;
    let mut d = Data::from(rest.trim());
    d.taint_from(profile);
    Some(d)
}

/// The vulnerable logon module.
#[derive(Debug, Clone, Copy, Default)]
pub struct NtLogon;

impl Application for NtLogon {
    fn name(&self) -> &'static str {
        "ntlogon"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        // --- the user profile, from the ProfileDir key -------------------
        if let Ok(dir) = os.sys_reg_read(
            pid,
            "ntlogon:read_profiledir",
            PROFILE_DIR_KEY,
            "Path",
            InputSemantic::FsFileName,
        ) {
            let profile_path = PathArg::from(&dir).join(&PathArg::clean("profile.cfg"));
            match os.sys_read_file(pid, "ntlogon:read_profile", &profile_path) {
                Ok(profile) => {
                    if let Some(raw) = parse_shell(&profile) {
                        if let Ok(shell) =
                            os.sys_bind(pid, "ntlogon:read_profile", "usershell", InputSemantic::FsFileName, raw)
                        {
                            // Flaw: executes whatever the (attacker-reachable)
                            // profile names, with service privilege.
                            if os
                                .sys_exec(pid, "ntlogon:exec_usershell", PathArg::from(&shell), vec![], None)
                                .is_err()
                            {
                                let _ = os.sys_print(pid, "ntlogon:warn", "ntlogon: bad user shell\n");
                            }
                        }
                    }
                }
                Err(_) => {
                    let _ = os.sys_print(pid, "ntlogon:warn", "ntlogon: no profile, using defaults\n");
                }
            }
        }

        // --- the machine logon script ------------------------------------
        if let Ok(script) = os.sys_reg_read(
            pid,
            "ntlogon:read_script",
            SCRIPT_KEY,
            "Path",
            InputSemantic::FsFileName,
        ) {
            if os
                .sys_exec(pid, "ntlogon:exec_script", PathArg::from(&script), vec![], None)
                .is_err()
            {
                let _ = os.sys_print(pid, "ntlogon:warn", "ntlogon: logon script failed\n");
            }
        }

        // --- the default shell --------------------------------------------
        if let Ok(shell) = os.sys_reg_read(pid, "ntlogon:read_shell", SHELL_KEY, "Path", InputSemantic::FsFileName) {
            if os
                .sys_exec(pid, "ntlogon:exec_shell", PathArg::from(&shell), vec![], None)
                .is_err()
            {
                let _ = os.sys_print(pid, "ntlogon:warn", "ntlogon: cannot start shell\n");
            }
        }

        // --- the welcome/help file ----------------------------------------
        if let Ok(help) = os.sys_reg_read(
            pid,
            "ntlogon:read_helpfile",
            HELP_FILE_KEY,
            "Path",
            InputSemantic::FsFileName,
        ) {
            if let Ok(content) = os.sys_read_file(pid, "ntlogon:read_help", PathArg::from(&help)) {
                // Flaw: relays the file's content to the logging-on user.
                let _ = os.sys_print(pid, "ntlogon:welcome", content);
            }
        }
        0
    }
}

/// The patched logon module: verifies every registry-named object is
/// Administrator-owned (and profiles come from the profile tree) before use.
#[derive(Debug, Clone, Copy, Default)]
pub struct NtLogonFixed;

impl NtLogonFixed {
    /// Only Administrator-owned, non-world-writable regular files qualify.
    fn trusted_file(os: &mut Os, pid: Pid, site: &'static str, path: &PathArg<'_>) -> bool {
        match os.sys_lstat(pid, site, path.clone()) {
            Ok(st) => {
                st.file_type == epa_sandbox::fs::FileType::Regular && st.owner == Uid::ROOT && !st.mode.world_writable()
            }
            Err(_) => false,
        }
    }
}

impl Application for NtLogonFixed {
    fn name(&self) -> &'static str {
        "ntlogon-fixed"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        if let Ok(dir) = os.sys_reg_read(
            pid,
            "ntlogon:read_profiledir",
            PROFILE_DIR_KEY,
            "Path",
            InputSemantic::FsFileName,
        ) {
            let dir_text = dir.as_text();
            // Fix: profiles must live under the profile tree.
            if dir_text.starts_with("/profiles/") && !dir_text.contains("..") {
                let profile_path = PathArg::from(&dir).join(&PathArg::clean("profile.cfg"));
                if Self::trusted_file(os, pid, "ntlogon:read_profile", &profile_path) {
                    if let Ok(profile) = os.sys_read_file(pid, "ntlogon:read_profile", &profile_path) {
                        if let Some(raw) = parse_shell(&profile) {
                            if let Ok(shell) =
                                os.sys_bind(pid, "ntlogon:read_profile", "usershell", InputSemantic::FsFileName, raw)
                            {
                                let shell_arg = PathArg::from(&shell);
                                if Self::trusted_file(os, pid, "ntlogon:exec_usershell", &shell_arg) {
                                    let _ = os.sys_exec(pid, "ntlogon:exec_usershell", shell_arg, vec![], None);
                                } else {
                                    let _ = os.sys_print(pid, "ntlogon:warn", "ntlogon: untrusted shell refused\n");
                                }
                            }
                        }
                    }
                }
            } else {
                let _ = os.sys_print(pid, "ntlogon:warn", "ntlogon: untrusted profile directory refused\n");
            }
        }

        if let Ok(script) = os.sys_reg_read(
            pid,
            "ntlogon:read_script",
            SCRIPT_KEY,
            "Path",
            InputSemantic::FsFileName,
        ) {
            let arg = PathArg::from(&script);
            if Self::trusted_file(os, pid, "ntlogon:exec_script", &arg) {
                let _ = os.sys_exec(pid, "ntlogon:exec_script", arg, vec![], None);
            } else {
                let _ = os.sys_print(pid, "ntlogon:warn", "ntlogon: untrusted script refused\n");
            }
        }

        if let Ok(shell) = os.sys_reg_read(pid, "ntlogon:read_shell", SHELL_KEY, "Path", InputSemantic::FsFileName) {
            let arg = PathArg::from(&shell);
            if Self::trusted_file(os, pid, "ntlogon:exec_shell", &arg) {
                let _ = os.sys_exec(pid, "ntlogon:exec_shell", arg, vec![], None);
            } else {
                let _ = os.sys_print(pid, "ntlogon:warn", "ntlogon: untrusted shell refused\n");
            }
        }

        if let Ok(help) = os.sys_reg_read(
            pid,
            "ntlogon:read_helpfile",
            HELP_FILE_KEY,
            "Path",
            InputSemantic::FsFileName,
        ) {
            let arg = PathArg::from(&help);
            // Fix: only relay world-readable, Administrator-owned files.
            let readable = os.sys_lstat(pid, "ntlogon:read_help", arg.clone()).is_ok_and(|st| {
                st.file_type == epa_sandbox::fs::FileType::Regular
                    && st.owner == Uid::ROOT
                    && st.mode.other_allows(epa_sandbox::mode::Access::Read)
            });
            if readable {
                if let Ok(content) = os.sys_read_file(pid, "ntlogon:read_help", arg) {
                    let _ = os.sys_print(pid, "ntlogon:welcome", content);
                }
            } else {
                let _ = os.sys_print(pid, "ntlogon:warn", "ntlogon: help file refused\n");
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_core::campaign::run_once;

    #[test]
    fn the_module_reads_the_documented_keys() {
        let read = [PROFILE_DIR_KEY, SCRIPT_KEY, SHELL_KEY, HELP_FILE_KEY];
        assert_eq!(LOGON_KEYS.map(logon_key), read.map(str::to_string));
    }

    #[test]
    fn clean_logon_is_violation_free() {
        let setup = spec().materialize().unwrap();
        let out = run_once(&setup, &NtLogon, None);
        assert_eq!(out.exit, Some(0));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        let stdout = out.os.stdout_text(out.pid.unwrap());
        assert!(stdout.contains("welcome to the domain"));
    }

    #[test]
    fn untrusted_profile_dir_executes_rootkit() {
        let mut setup = spec().materialize().unwrap();
        setup
            .world
            .registry
            .god_set_value(&logon_key("ProfileDir"), "Path", "/users/evil");
        let out = run_once(&setup, &NtLogon, None);
        assert!(
            out.violations
                .iter()
                .any(|v| v.kind == epa_sandbox::policy::ViolationKind::UntrustedExec),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn helpfile_pointed_at_sam_discloses_it() {
        let mut setup = spec().materialize().unwrap();
        setup
            .world
            .registry
            .god_set_value(&logon_key("HelpFile"), "Path", "/winnt/repair/sam");
        let out = run_once(&setup, &NtLogon, None);
        assert!(
            out.violations
                .iter()
                .any(|v| v.kind == epa_sandbox::policy::ViolationKind::Disclosure),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn fixed_logon_refuses_both_attacks() {
        let mut setup = spec().materialize().unwrap();
        setup
            .world
            .registry
            .god_set_value(&logon_key("ProfileDir"), "Path", "/users/evil");
        setup
            .world
            .registry
            .god_set_value(&logon_key("HelpFile"), "Path", "/winnt/repair/sam");
        let out = run_once(&setup, &NtLogonFixed, None);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn rootkit_exec_verdict_carries_in_bounds_evidence() {
        let mut setup = spec().materialize().unwrap();
        setup
            .world
            .registry
            .god_set_value(&logon_key("ProfileDir"), "Path", "/users/evil");
        let out = run_once(&setup, &NtLogon, None);
        crate::assert_evidence_in_bounds(&out);
        assert!(out.violations.iter().any(|v| v.detector == "untrusted-exec"));
    }
}
