//! The Purdue `turnin` program of paper §4.1.
//!
//! `turnin` is set-UID root: students run it to copy project files into the
//! teaching assistant's protected `submit` directory. The model reproduces
//! the paper's experiment surface — **8 interaction points, 41 injected
//! perturbations, 9 security violations** — including both published
//! exploits:
//!
//! * the `Projlist` trust flaw (the program relays the content of a file
//!   the student could not read — symlink it to `/etc/shadow` and it prints
//!   the shadow file);
//! * the `../` member-name flaw (a submitted file named `../x` lands in the
//!   TA's home directory instead of the submit directory).
//!
//! One deliberate consolidation (documented in `EXPERIMENTS.md`): the paper
//! drove `turnin` with several test cases (`-l` listing and `-p` submission);
//! here the submission flow also emits the project listing, so a single
//! traced run covers the union of the paper's eight interaction points.
//!
//! The invocation is `turnin -c <course> -p <project> <file>`.

use epa_sandbox::app::Application;
use epa_sandbox::data::{Data, PathArg};
use epa_sandbox::os::Os;
use epa_sandbox::process::Pid;
use epa_sandbox::trace::InputSemantic;

/// Path of the course configuration file.
pub const CONFIG_FILE: &str = "/usr/local/lib/turnin.cf";

/// The `turnin` world of paper §4.1, declared as data: course account,
/// protected submit tree, a student invoker, and the attacker's prepared
/// `tar` lookalike.
pub fn spec() -> epa_core::engine::WorldSpec {
    use crate::worlds::TA_UID;
    use epa_sandbox::cred::Gid;
    use epa_sandbox::fs::FileTag;
    use epa_sandbox::os::ScenarioMeta;
    let scenario = ScenarioMeta::default();
    crate::worlds::base_unix_builder()
        .user("ta", TA_UID, Gid(1000), "/home/ta")
        .dir("/home/ta/submit", TA_UID, Gid(1000), 0o755)
        .file("/home/ta/.login", "setenv SHELL /bin/csh\n", TA_UID, Gid(1000), 0o644)
        .file("/home/ta/submit/Projlist", "proj1\nproj2\n", TA_UID, Gid(1000), 0o644)
        .root_file(CONFIG_FILE, "cs390:ta:1000\ncs503:ta:1000\n", 0o644)
        .root_file("/usr/local/bin/tar", "#!tar", 0o755)
        .suid_root_program("/usr/local/bin/turnin")
        .file(
            "/home/student/hw1.c",
            "int main(){}\n",
            scenario.invoker,
            scenario.invoker_gid,
            0o644,
        )
        // The attacker's prepared PATH payload.
        .file(
            "/home/evil/bin/tar",
            "#!evil-tar",
            scenario.attacker,
            scenario.attacker_gid,
            0o755,
        )
        // The TA's home is the victim's territory: planting files there on
        // the student's behalf is an integrity violation.
        .tag("/home/ta", FileTag::Protected)
        .args(["-c", "cs390", "-p", "proj1", "hw1.c"])
        .env("PATH", "/usr/local/bin:/usr/bin:/bin")
        .env("USER", "student")
        .cwd("/home/student")
        .build()
}

const S_ARGS: &str = "turnin:read_args";
const S_PATH: &str = "turnin:getenv_path";
const S_CONFIG: &str = "turnin:read_config";
const S_PROJLIST: &str = "turnin:read_projlist";
const S_CHDIR: &str = "turnin:chdir_submit";
const S_TEMP: &str = "turnin:mktemp";
const S_TAR: &str = "turnin:exec_tar";
const S_DEST: &str = "turnin:copy_dest";

/// Parsed command line.
struct Invocation {
    course: Data,
    project: Data,
    file_name: Data,
}

/// Reads `-c <course> -p <project> <file>` at the argv interaction point.
fn read_args(os: &mut Os, pid: Pid) -> Result<Invocation, i32> {
    let usage = |os: &mut Os| {
        let _ = os.sys_print(pid, "turnin:usage", "usage: turnin -c course -p project file\n");
        2
    };
    let flag_c = os
        .sys_arg(pid, S_ARGS, 0, InputSemantic::Opaque)
        .map_err(|_| usage(os))?;
    let course = os
        .sys_arg(pid, S_ARGS, 1, InputSemantic::Opaque)
        .map_err(|_| usage(os))?;
    let flag_p = os
        .sys_arg(pid, S_ARGS, 2, InputSemantic::Opaque)
        .map_err(|_| usage(os))?;
    let project = os
        .sys_arg(pid, S_ARGS, 3, InputSemantic::Opaque)
        .map_err(|_| usage(os))?;
    let file_name = os
        .sys_arg(pid, S_ARGS, 4, InputSemantic::UserFileName)
        .map_err(|_| usage(os))?;
    if flag_c.as_text() != "-c" || flag_p.as_text() != "-p" {
        return Err(usage(os));
    }
    Ok(Invocation {
        course,
        project,
        file_name,
    })
}

/// Looks up the course account in the already-read configuration content.
/// Lines are `course:account:uid`.
fn find_account(cf: &Data, course: &str) -> Option<(Data, Option<u32>)> {
    for line in cf.as_text().lines() {
        let mut parts = line.splitn(3, ':');
        let c = parts.next()?;
        if c != course {
            continue;
        }
        let account = parts.next()?;
        let uid = parts.next().and_then(|u| u.trim().parse().ok());
        // Every line of the configuration carries its labels.
        let mut d = Data::from(account);
        d.taint_from(cf);
        return Some((d, uid));
    }
    None
}

/// The vulnerable `turnin` of paper §4.1.
#[derive(Debug, Clone, Copy, Default)]
pub struct Turnin;

impl Application for Turnin {
    fn name(&self) -> &'static str {
        "turnin"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        // ---- interaction point 1: argv --------------------------------
        let inv = match read_args(os, pid) {
            Ok(i) => i,
            Err(code) => return code,
        };
        // The paper notes turnin "does a good job in forbidding the `/`
        // character" (leading), but misses `../`.
        if inv.file_name.as_text().starts_with('/') {
            let _ = os.sys_print(pid, "turnin:error", "turnin: absolute file names not allowed\n");
            return 2;
        }

        // ---- interaction point 2: PATH --------------------------------
        let path_list = os
            .sys_getenv(pid, S_PATH, "PATH", InputSemantic::EnvPathList)
            .unwrap_or_else(|_| Data::from("/usr/bin:/bin"));

        // ---- interaction point 3: the configuration file ---------------
        let Ok(cf) = os.sys_read_file(pid, S_CONFIG, CONFIG_FILE) else {
            let _ = os.sys_print(pid, "turnin:error", "turnin: cannot open turnin.cf\n");
            return 1;
        };
        let Some((account_raw, _uid)) = find_account(&cf, &inv.course.as_text()) else {
            // Flaw: the error message echoes the raw configuration —
            // harmless for a malformed config, catastrophic when the
            // config has been swapped for a secret file.
            let mut msg = Data::from("turnin: course not found; config was:\n");
            msg.append(&cf);
            let _ = os.sys_print(pid, "turnin:error", msg);
            return 1;
        };
        // The parsed account name initializes an internal entity.
        let Ok(account) = os.sys_bind(pid, S_CONFIG, "account", InputSemantic::FsFileName, account_raw) else {
            return 1;
        };
        let mut submit = Data::from("/home/");
        submit.append(&account);
        submit.push_str("/submit");
        let submit_dir = PathArg::from(&submit);

        // ---- interaction point 4: the project list ---------------------
        let projlist_path = submit_dir.join(&PathArg::clean("Projlist"));
        let Ok(listing) = os.sys_read_file(pid, S_PROJLIST, &projlist_path) else {
            let _ = os.sys_print(pid, "turnin:error", "turnin: can not find project list file\n");
            return 9;
        };
        // Flaw: relays the file content to the student without asking
        // whether the student could have read it (the paper's first
        // exploit: Projlist -> /etc/shadow).
        let mut banner = Data::from("turnin: projects for ");
        banner.append(&inv.course);
        banner.push_str(":\n");
        banner.append(&listing);
        let _ = os.sys_print(pid, "turnin:print_listing", banner);
        if !listing.as_text().lines().any(|l| l.trim() == inv.project.as_text()) {
            let _ = os.sys_print(pid, "turnin:error", "turnin: no such project\n");
            return 9;
        }

        // ---- interaction point 5: enter the submit directory -----------
        if os.sys_chdir(pid, S_CHDIR, &submit_dir).is_err() {
            let _ = os.sys_print(pid, "turnin:error", "turnin: cannot enter submit directory\n");
            return 1;
        }

        // ---- interaction point 6: the temporary archive ----------------
        let temp = format!("/tmp/turnin.{}", pid.0);
        if os.sys_create_excl(pid, S_TEMP, temp.as_str(), 0o600).is_err() {
            let _ = os.sys_print(pid, "turnin:error", "turnin: temp file error\n");
            return 1;
        }

        // ---- interaction point 7: pack the submission ------------------
        // execve(acTar, nargv, environ) — resolved through PATH.
        let tar_args = vec![Data::from("cf"), Data::from(temp.clone()), inv.file_name.clone()];
        if os.sys_exec(pid, S_TAR, "tar", tar_args, Some(path_list)).is_err() {
            let _ = os.sys_print(pid, "turnin:error", "turnin: cannot run tar\n");
            let _ = os.sys_unlink(pid, S_TEMP, temp.as_str());
            return 1;
        }
        let mut archive = Data::from(format!("TAR-ARCHIVE({})\n", inv.file_name.as_text()));
        archive.taint_from(&inv.file_name);
        if os
            .sys_append(pid, S_TEMP, temp.as_str(), archive.clone(), 0o600)
            .is_err()
        {
            let _ = os.sys_print(pid, "turnin:error", "turnin: temp file write error\n");
            return 1;
        }

        // ---- interaction point 8: install into the submit directory ----
        // Flaw: the destination keeps the student-supplied member name.
        // "hw1.c" is fine; "../hw1.c" escapes into the TA's home.
        let dest = PathArg::from(&inv.file_name);
        if os.sys_lstat(pid, S_DEST, &dest).is_ok() {
            // Resubmission: replace the previous entry (lstat + unlink, so a
            // planted symlink is removed, not followed).
            let _ = os.sys_unlink(pid, S_DEST, &dest);
        }
        if os.sys_write_file(pid, S_DEST, &dest, archive, 0o644).is_err() {
            let _ = os.sys_print(pid, "turnin:error", "turnin: copy failed\n");
            let _ = os.sys_unlink(pid, S_TEMP, temp.as_str());
            return 1;
        }
        let _ = os.sys_unlink(pid, S_TEMP, temp.as_str());
        let _ = os.sys_print(pid, "turnin:done", "turnin: submission complete\n");
        0
    }
}

/// The patched `turnin`: validates member names, refuses symlinked or
/// untrusted configuration objects, and execs its helper by absolute path.
#[derive(Debug, Clone, Copy, Default)]
pub struct TurninFixed;

impl TurninFixed {
    fn valid_member_name(name: &str) -> bool {
        !name.is_empty() && name.len() <= 255 && !name.contains('/') && name != ".." && name != "."
    }

    fn valid_account(account: &str) -> bool {
        !account.is_empty()
            && account.len() <= 32
            && account
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    }
}

impl Application for TurninFixed {
    fn name(&self) -> &'static str {
        "turnin-fixed"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        let inv = match read_args(os, pid) {
            Ok(i) => i,
            Err(code) => return code,
        };
        // Fix: reject `/` anywhere and `..` components, not just a leading `/`.
        if !Self::valid_member_name(&inv.file_name.as_text()) {
            let _ = os.sys_print(pid, "turnin:error", "turnin: invalid file name\n");
            return 2;
        }

        // PATH is read (to build a sanitized child environment) but never
        // used for binary resolution.
        let _path_list = os
            .sys_getenv(pid, S_PATH, "PATH", InputSemantic::EnvPathList)
            .unwrap_or_else(|_| Data::from("/usr/bin:/bin"));

        // Fix: refuse a symlinked or non-root-owned configuration file, and
        // never echo its content.
        match os.sys_lstat(pid, S_CONFIG, CONFIG_FILE) {
            Ok(st) => {
                if st.file_type == epa_sandbox::fs::FileType::Symlink || !st.owner.is_root() || st.mode.world_writable()
                {
                    let _ = os.sys_print(pid, "turnin:error", "turnin: config not trusted\n");
                    return 1;
                }
            }
            Err(_) => {
                let _ = os.sys_print(pid, "turnin:error", "turnin: cannot open turnin.cf\n");
                return 1;
            }
        }
        let Ok(cf) = os.sys_read_file(pid, S_CONFIG, CONFIG_FILE) else {
            let _ = os.sys_print(pid, "turnin:error", "turnin: cannot open turnin.cf\n");
            return 1;
        };
        let Some((account_raw, account_uid)) = find_account(&cf, &inv.course.as_text()) else {
            let _ = os.sys_print(pid, "turnin:error", "turnin: course not found\n");
            return 1;
        };
        let Ok(account) = os.sys_bind(pid, S_CONFIG, "account", InputSemantic::FsFileName, account_raw) else {
            return 1;
        };
        // Fix: validate the parsed account before using it in a path.
        if !Self::valid_account(&account.as_text()) {
            let _ = os.sys_print(pid, "turnin:error", "turnin: malformed account name\n");
            return 1;
        }
        let mut submit = Data::from("/home/");
        submit.append(&account);
        submit.push_str("/submit");
        let submit_dir = PathArg::from(&submit);

        // Fix: refuse a symlinked project list; echo it only when the
        // student could have read it directly.
        let projlist_path = submit_dir.join(&PathArg::clean("Projlist"));
        let printable = match os.sys_lstat(pid, S_PROJLIST, &projlist_path) {
            Ok(st) => {
                if st.file_type == epa_sandbox::fs::FileType::Symlink {
                    let _ = os.sys_print(pid, "turnin:error", "turnin: project list not trusted\n");
                    return 1;
                }
                st.mode.other_allows(epa_sandbox::mode::Access::Read)
            }
            Err(_) => {
                let _ = os.sys_print(pid, "turnin:error", "turnin: can not find project list file\n");
                return 9;
            }
        };
        let Ok(listing) = os.sys_read_file(pid, S_PROJLIST, &projlist_path) else {
            let _ = os.sys_print(pid, "turnin:error", "turnin: can not find project list file\n");
            return 9;
        };
        if printable {
            let mut banner = Data::from("turnin: projects for ");
            banner.append(&inv.course);
            banner.push_str(":\n");
            banner.append(&listing);
            let _ = os.sys_print(pid, "turnin:print_listing", banner);
        }
        if !listing.as_text().lines().any(|l| l.trim() == inv.project.as_text()) {
            let _ = os.sys_print(pid, "turnin:error", "turnin: no such project\n");
            return 9;
        }

        // Fix: refuse a symlinked submit directory, and verify it belongs to
        // the course account named in the (trusted) config.
        match os.sys_lstat(pid, S_CHDIR, &submit_dir) {
            Ok(st) => {
                if st.file_type == epa_sandbox::fs::FileType::Symlink {
                    let _ = os.sys_print(pid, "turnin:error", "turnin: submit directory not trusted\n");
                    return 1;
                }
                if let Some(uid) = account_uid {
                    if st.owner.0 != uid {
                        let _ = os.sys_print(pid, "turnin:error", "turnin: submit directory has wrong owner\n");
                        return 1;
                    }
                }
            }
            Err(_) => {
                let _ = os.sys_print(pid, "turnin:error", "turnin: cannot enter submit directory\n");
                return 1;
            }
        }
        if os.sys_chdir(pid, S_CHDIR, &submit_dir).is_err() {
            let _ = os.sys_print(pid, "turnin:error", "turnin: cannot enter submit directory\n");
            return 1;
        }

        let temp = format!("/tmp/turnin.{}", pid.0);
        if os.sys_create_excl(pid, S_TEMP, temp.as_str(), 0o600).is_err() {
            let _ = os.sys_print(pid, "turnin:error", "turnin: temp file error\n");
            return 1;
        }

        // Fix: absolute helper path, verified root-owned and not a symlink.
        let tar_path = "/usr/local/bin/tar";
        match os.sys_lstat(pid, S_TAR, tar_path) {
            Ok(st) => {
                if st.file_type == epa_sandbox::fs::FileType::Symlink || !st.owner.is_root() || st.mode.world_writable()
                {
                    let _ = os.sys_print(pid, "turnin:error", "turnin: tar binary not trusted\n");
                    let _ = os.sys_unlink(pid, S_TEMP, temp.as_str());
                    return 1;
                }
            }
            Err(_) => {
                let _ = os.sys_print(pid, "turnin:error", "turnin: cannot run tar\n");
                let _ = os.sys_unlink(pid, S_TEMP, temp.as_str());
                return 1;
            }
        }
        let tar_args = vec![Data::from("cf"), Data::from(temp.clone()), inv.file_name.clone()];
        if os.sys_exec(pid, S_TAR, tar_path, tar_args, None).is_err() {
            let _ = os.sys_print(pid, "turnin:error", "turnin: cannot run tar\n");
            let _ = os.sys_unlink(pid, S_TEMP, temp.as_str());
            return 1;
        }
        let mut archive = Data::from(format!("TAR-ARCHIVE({})\n", inv.file_name.as_text()));
        archive.taint_from(&inv.file_name);
        if os
            .sys_append(pid, S_TEMP, temp.as_str(), archive.clone(), 0o600)
            .is_err()
        {
            let _ = os.sys_print(pid, "turnin:error", "turnin: temp file write error\n");
            return 1;
        }

        let dest = PathArg::from(&inv.file_name);
        if os.sys_lstat(pid, S_DEST, &dest).is_ok() {
            let _ = os.sys_unlink(pid, S_DEST, &dest);
        }
        if os.sys_write_file(pid, S_DEST, &dest, archive, 0o644).is_err() {
            let _ = os.sys_print(pid, "turnin:error", "turnin: copy failed\n");
            let _ = os.sys_unlink(pid, S_TEMP, temp.as_str());
            return 1;
        }
        let _ = os.sys_unlink(pid, S_TEMP, temp.as_str());
        let _ = os.sys_print(pid, "turnin:done", "turnin: submission complete\n");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_core::campaign::run_once;
    use epa_core::engine::Session;

    #[test]
    fn clean_submission_succeeds() {
        let setup = spec().materialize().unwrap();
        let out = run_once(&setup, &Turnin, None);
        assert_eq!(out.exit, Some(0), "stdout: {}", out.os.stdout_text(out.pid.unwrap()));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.os.fs.exists("/home/ta/submit/hw1.c"));
        // Temp file cleaned up.
        assert!(!out.os.fs.exists("/tmp/turnin.100"));
    }

    #[test]
    fn clean_fixed_submission_succeeds() {
        let setup = spec().materialize().unwrap();
        let out = run_once(&setup, &TurninFixed, None);
        assert_eq!(out.exit, Some(0), "stdout: {}", out.os.stdout_text(out.pid.unwrap()));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn traces_eight_interaction_points() {
        let setup = spec().materialize().unwrap();
        let plan = Session::from_setup(setup).plan(&Turnin);
        let perturbable: Vec<_> = plan
            .sites
            .iter()
            .filter(|s| !s.faults.is_empty())
            .map(|s| s.summary.site.to_string())
            .collect();
        assert_eq!(perturbable.len(), 8, "{perturbable:?}");
        assert_eq!(
            plan.total_faults(),
            41,
            "per-site: {:?}",
            plan.sites
                .iter()
                .map(|s| (s.summary.site.to_string(), s.faults.len()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn projlist_symlink_discloses_shadow() {
        // Replays the paper's first exploit by hand.
        let mut setup = spec().materialize().unwrap();
        setup
            .world
            .fs
            .god_symlink("/home/ta/submit/Projlist", "/etc/shadow")
            .unwrap();
        let out = run_once(&setup, &Turnin, None);
        assert!(
            out.violations
                .iter()
                .any(|v| v.kind == epa_sandbox::policy::ViolationKind::Disclosure),
            "{:?}",
            out.violations
        );
        let stdout = out.os.stdout_text(out.pid.unwrap());
        assert!(
            stdout.contains("root:HASH"),
            "the shadow content really is printed: {stdout}"
        );
    }

    #[test]
    fn dotdot_member_name_escapes_submit_dir() {
        // Replays the paper's second exploit by hand.
        let mut setup = spec().materialize().unwrap();
        setup.args = vec![
            "-c".into(),
            "cs390".into(),
            "-p".into(),
            "proj1".into(),
            "../.login".into(),
        ]
        .into();
        let out = run_once(&setup, &Turnin, None);
        assert!(
            out.violations
                .iter()
                .any(|v| v.kind == epa_sandbox::policy::ViolationKind::IntegrityWrite),
            "{:?}",
            out.violations
        );
        // The TA's .login really was replaced.
        let login = out.os.fs.god_read("/home/ta/.login").unwrap();
        assert!(login.text().contains("TAR-ARCHIVE"), "{}", login.text());
    }

    #[test]
    fn fixed_rejects_both_exploits() {
        let mut setup = spec().materialize().unwrap();
        setup
            .world
            .fs
            .god_symlink("/home/ta/submit/Projlist", "/etc/shadow")
            .unwrap();
        let out = run_once(&setup, &TurninFixed, None);
        assert!(out.violations.is_empty(), "{:?}", out.violations);

        let mut setup2 = spec().materialize().unwrap();
        setup2.args = vec![
            "-c".into(),
            "cs390".into(),
            "-p".into(),
            "proj1".into(),
            "../.login".into(),
        ]
        .into();
        let out2 = run_once(&setup2, &TurninFixed, None);
        assert!(out2.violations.is_empty(), "{:?}", out2.violations);
        assert_eq!(out2.exit, Some(2), "invalid member name rejected");
    }

    #[test]
    fn disclosure_verdict_carries_in_bounds_evidence() {
        let mut setup = spec().materialize().unwrap();
        setup
            .world
            .fs
            .god_symlink("/home/ta/submit/Projlist", "/etc/shadow")
            .unwrap();
        let out = run_once(&setup, &Turnin, None);
        crate::assert_evidence_in_bounds(&out);
        let disclosure = out
            .violations
            .iter()
            .find(|v| v.kind == epa_sandbox::policy::ViolationKind::Disclosure)
            .expect("shadow disclosure detected");
        assert_eq!(disclosure.detector, "disclosure");
    }
}
