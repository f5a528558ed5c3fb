//! `mailnotify`: a SUID-root biff-style notifier exercising the paper's
//! process-input and environment-variable fault classes.
//!
//! The mail daemon hands it a message over IPC; it appends the notification
//! to the invoking user's mailbox and runs the `mail` helper to refresh the
//! user's mail summary. Seeded flaws in the vulnerable version:
//!
//! * the mailbox is appended to blindly (no ownership/symlink check) — the
//!   classic biff/comsat attack surface;
//! * the relayed content is whatever the IPC peer claims (authenticity);
//! * the `mail` helper is found through the user-controlled `PATH`;
//! * an unchecked copy of the message into a fixed buffer.

use epa_sandbox::app::Application;
use epa_sandbox::buffer::{CopyDiscipline, FixedBuf};
use epa_sandbox::data::Data;
use epa_sandbox::os::Os;
use epa_sandbox::process::Pid;
use epa_sandbox::trace::InputSemantic;

/// The invoking user's mailbox.
pub const MAILBOX: &str = "/var/mail/student";
/// The IPC channel the mail daemon delivers on.
pub const CHANNEL: &str = "maild";

/// The `mailnotify` world, declared as data: a SUID-root biff-style
/// notifier fed by the mail daemon over IPC.
pub fn spec() -> epa_core::engine::WorldSpec {
    use epa_sandbox::os::ScenarioMeta;
    let scenario = ScenarioMeta::default();
    crate::worlds::base_unix_builder()
        .file(
            "/var/mail/student",
            "From: old\n",
            scenario.invoker,
            scenario.invoker_gid,
            0o600,
        )
        .root_file("/usr/bin/mail", "#!mail", 0o755)
        .suid_root_program("/usr/local/bin/mailnotify")
        // Attacker's prepared PATH payload.
        .file(
            "/home/evil/bin/mail",
            "#!evil-mail",
            scenario.attacker,
            scenario.attacker_gid,
            0o755,
        )
        .ipc_message(CHANNEL, "maild", "From: alice\nSubject: lunch?\n")
        .env("PATH", "/usr/bin:/bin")
        .cwd("/home/student")
        .build()
}

/// The vulnerable notifier.
#[derive(Debug, Clone, Copy, Default)]
pub struct MailNotify;

impl Application for MailNotify {
    fn name(&self) -> &'static str {
        "mailnotify"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        let path_list = os
            .sys_getenv(pid, "mailnotify:getenv_path", "PATH", InputSemantic::EnvPathList)
            .unwrap_or_else(|_| Data::from("/usr/bin:/bin"));

        let Ok(msg) = os.sys_proc_recv(pid, "mailnotify:recv", CHANNEL, InputSemantic::ProcMessage) else {
            let _ = os.sys_print(pid, "mailnotify:warn", "mailnotify: no mail\n");
            return 0;
        };
        // Flaw: unchecked copy of the daemon's message.
        let mut headbuf = FixedBuf::new("headbuf", 1024);
        os.mem_copy(pid, &mut headbuf, &msg.data, CopyDiscipline::Unchecked);

        // Flaw: append whatever arrived, wherever the mailbox points.
        let mut entry = Data::from("--- new mail ---\n");
        entry.append(&msg.data);
        entry.push_str("\n");
        if os
            .sys_append(pid, "mailnotify:append_box", MAILBOX, entry, 0o600)
            .is_err()
        {
            let _ = os.sys_print(pid, "mailnotify:warn", "mailnotify: cannot update mailbox\n");
            return 1;
        }

        // Flaw: helper resolved through the invoker's PATH while euid=root.
        if os
            .sys_exec(
                pid,
                "mailnotify:exec_mail",
                "mail",
                vec![Data::from("-s")],
                Some(path_list),
            )
            .is_err()
        {
            let _ = os.sys_print(pid, "mailnotify:warn", "mailnotify: mail helper failed\n");
        }
        let _ = os.sys_print(pid, "mailnotify:done", "You have new mail.\n");
        0
    }
}

/// The patched notifier: verified mailbox, no relayed content, absolute
/// trusted helper, checked copies.
#[derive(Debug, Clone, Copy, Default)]
pub struct MailNotifyFixed;

impl Application for MailNotifyFixed {
    fn name(&self) -> &'static str {
        "mailnotify-fixed"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        // PATH is read but never used for resolution.
        let _ = os.sys_getenv(pid, "mailnotify:getenv_path", "PATH", InputSemantic::EnvPathList);

        let Ok(msg) = os.sys_proc_recv(pid, "mailnotify:recv", CHANNEL, InputSemantic::ProcMessage) else {
            let _ = os.sys_print(pid, "mailnotify:warn", "mailnotify: no mail\n");
            return 0;
        };
        let mut headbuf = FixedBuf::new("headbuf", 1024);
        os.mem_copy(pid, &mut headbuf, &msg.data, CopyDiscipline::Checked);

        // Fix: the mailbox must be a regular file owned by the invoker.
        let expected_owner = os.scenario.invoker;
        let ok = os
            .sys_lstat(pid, "mailnotify:append_box", MAILBOX)
            .is_ok_and(|st| st.file_type == epa_sandbox::fs::FileType::Regular && st.owner == expected_owner);
        if !ok {
            let _ = os.sys_print(pid, "mailnotify:warn", "mailnotify: mailbox not trusted, skipping\n");
            return 1;
        }
        // Fix: never relay unauthenticated content — a static marker only.
        if os
            .sys_append(
                pid,
                "mailnotify:append_box",
                MAILBOX,
                "--- new mail (see spool) ---\n",
                0o600,
            )
            .is_err()
        {
            let _ = os.sys_print(pid, "mailnotify:warn", "mailnotify: cannot update mailbox\n");
            return 1;
        }

        // Fix: absolute, verified helper.
        let helper = "/usr/bin/mail";
        let trusted = os.sys_lstat(pid, "mailnotify:exec_mail", helper).is_ok_and(|st| {
            st.file_type == epa_sandbox::fs::FileType::Regular && st.owner.is_root() && !st.mode.world_writable()
        });
        if trusted {
            let _ = os.sys_exec(pid, "mailnotify:exec_mail", helper, vec![Data::from("-s")], None);
        } else {
            let _ = os.sys_print(pid, "mailnotify:warn", "mailnotify: mail helper not trusted\n");
        }
        let _ = os.sys_print(pid, "mailnotify:done", "You have new mail.\n");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_core::campaign::run_once;
    use epa_sandbox::policy::ViolationKind;

    #[test]
    fn clean_notification_is_violation_free() {
        let setup = spec().materialize().unwrap();
        let out = run_once(&setup, &MailNotify, None);
        assert_eq!(out.exit, Some(0));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        let b = out.os.fs.god_read(MAILBOX).unwrap();
        assert!(b.text().contains("lunch?"));
    }

    #[test]
    fn symlinked_mailbox_clobbers_the_password_file() {
        let mut setup = spec().materialize().unwrap();
        setup.world.fs.god_symlink(MAILBOX, "/etc/passwd").unwrap();
        let out = run_once(&setup, &MailNotify, None);
        assert!(
            out.violations.iter().any(|v| v.kind == ViolationKind::IntegrityWrite),
            "{:?}",
            out.violations
        );
        let fixed = run_once(&setup, &MailNotifyFixed, None);
        assert!(fixed.violations.is_empty(), "{:?}", fixed.violations);
    }

    #[test]
    fn spoofed_ipc_message_is_a_spoofed_action() {
        let mut setup = spec().materialize().unwrap();
        setup.world.net.spoof_next_ipc(CHANNEL, "intruder-process");
        let out = run_once(&setup, &MailNotify, None);
        assert!(
            out.violations.iter().any(|v| v.kind == ViolationKind::SpoofedAction),
            "{:?}",
            out.violations
        );
        let fixed = run_once(&setup, &MailNotifyFixed, None);
        assert!(fixed.violations.is_empty(), "{:?}", fixed.violations);
    }

    #[test]
    fn perturbed_path_runs_the_attacker_helper() {
        let mut setup = spec().materialize().unwrap();
        std::sync::Arc::make_mut(&mut setup.env).insert("PATH".into(), "/home/evil/bin:/usr/bin:/bin".into());
        let out = run_once(&setup, &MailNotify, None);
        assert!(
            out.violations.iter().any(|v| v.kind == ViolationKind::UntrustedExec),
            "{:?}",
            out.violations
        );
        let fixed = run_once(&setup, &MailNotifyFixed, None);
        assert!(fixed.violations.is_empty(), "{:?}", fixed.violations);
    }

    #[test]
    fn spoofed_ipc_verdict_carries_in_bounds_evidence() {
        let mut setup = spec().materialize().unwrap();
        setup.world.net.spoof_next_ipc(CHANNEL, "intruder-process");
        let out = run_once(&setup, &MailNotify, None);
        crate::assert_evidence_in_bounds(&out);
        assert!(out.violations.iter().any(|v| v.detector == "spoofed-action"));
    }
}
