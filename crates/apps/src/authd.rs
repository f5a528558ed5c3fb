//! `authd`: a three-step protocol daemon (HELO → AUTH → CMD) exercising the
//! paper's protocol, authenticity and process-trust perturbations.
//!
//! The daemon registers user keys in the root-owned `/etc/auth_keys`. The
//! protocol requires a successful `AUTH <token>` before any `CMD`. Seeded
//! flaws in the vulnerable version:
//!
//! * a sloppy state machine that executes `CMD` whether or not `AUTH`
//!   succeeded (defeated by the omit-a-step protocol perturbation);
//! * the session identity is taken from the claimed `HELO` origin
//!   (defeated by the authenticity perturbation);
//! * an unchecked copy of each message into a fixed line buffer.

use epa_sandbox::app::Application;
use epa_sandbox::buffer::{CopyDiscipline, FixedBuf};
use epa_sandbox::data::Data;
use epa_sandbox::os::Os;
use epa_sandbox::process::Pid;
use epa_sandbox::trace::InputSemantic;

/// The daemon's listening port.
pub const AUTHD_PORT: u16 = 113;
/// Where the shared secret lives.
pub const SECRET_FILE: &str = "/etc/authd.secret";
/// The key database the daemon appends to.
pub const KEYS_FILE: &str = "/etc/auth_keys";

/// The `authd` world, declared as data: a three-step (HELO/AUTH/CMD)
/// key-registration daemon.
pub fn spec() -> epa_core::engine::WorldSpec {
    use epa_sandbox::cred::{Gid, Uid};
    let mut b = crate::worlds::base_unix_builder()
        .user("user1001", Uid(1001), Gid(100), "/home/user1001")
        .root_file(SECRET_FILE, "s3cret-token", 0o600)
        .root_file(KEYS_FILE, "# authorized keys\n", 0o600)
        .root_file("/usr/sbin/authd", "", 0o755);
    for step in [
        "HELO client.cs.example.edu",
        "AUTH s3cret-token",
        "CMD addkey user1001 ssh-rsa-KEY",
    ] {
        b = b.inbound_message(AUTHD_PORT, "client.cs.example.edu", step);
    }
    b.invoker(Uid::ROOT).cwd("/").build()
}

/// The vulnerable daemon.
#[derive(Debug, Clone, Copy, Default)]
pub struct Authd;

impl Application for Authd {
    fn name(&self) -> &'static str {
        "authd"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        // Flaw: if the secret cannot be read the daemon keeps going with an
        // empty secret instead of shutting down.
        let secret = os
            .sys_read_file(pid, "authd:read_secret", SECRET_FILE)
            .map(|d| d.text())
            .unwrap_or_default();

        let mut authed = false;
        let mut session: Option<Data> = None;
        for _ in 0..3 {
            let Ok(msg) = os.sys_net_recv(pid, "authd:recv", AUTHD_PORT, InputSemantic::NetPacket) else {
                break;
            };
            // Flaw: unchecked copy of the line.
            let mut line = FixedBuf::new("linebuf", 256);
            os.mem_copy(pid, &mut line, &msg.data, CopyDiscipline::Unchecked);
            let text = line.text();
            if let Some(host) = text.strip_prefix("HELO ") {
                // Flaw: identity is whatever the message claims.
                let mut ident = Data::from(host.trim());
                ident.taint_from(&msg.data);
                session = Some(ident);
            } else if let Some(token) = text.strip_prefix("AUTH ") {
                authed = token.trim() == secret.trim();
            } else if let Some(cmd) = text.strip_prefix("CMD addkey ") {
                // Flaw: no check that AUTH happened.
                os.emit_custom(
                    "authd-cmd-without-auth",
                    !authed,
                    format!("CMD executed with authed={authed}"),
                );
                let mut record = Data::from("key ");
                if let Some(ident) = &session {
                    record.append(ident);
                    record.push_str(" ");
                }
                record.push_str(cmd.trim());
                record.push_str("\n");
                record.taint_from(&msg.data);
                if os
                    .sys_append(pid, "authd:append_keys", KEYS_FILE, record, 0o600)
                    .is_err()
                {
                    let _ = os.sys_print(pid, "authd:warn", "authd: cannot update key database\n");
                }
            }
        }
        0
    }
}

/// The patched daemon: strict step ordering, fail-closed secret handling,
/// checked copies, and no unauthenticated identity in records.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuthdFixed;

impl Application for AuthdFixed {
    fn name(&self) -> &'static str {
        "authd-fixed"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        let secret = match os.sys_read_file(pid, "authd:read_secret", SECRET_FILE) {
            Ok(d) => d.text(),
            Err(_) => {
                // Fix: no secret, no service.
                let _ = os.sys_print(pid, "authd:warn", "authd: secret unavailable, shutting down\n");
                return 1;
            }
        };
        if secret.trim().is_empty() {
            let _ = os.sys_print(pid, "authd:warn", "authd: empty secret, shutting down\n");
            return 1;
        }

        // Fix: explicit protocol state machine.
        let mut state = 0u8; // 0 = expect HELO, 1 = expect AUTH, 2 = expect CMD
        let mut authed = false;
        for _ in 0..3 {
            let Ok(msg) = os.sys_net_recv(pid, "authd:recv", AUTHD_PORT, InputSemantic::NetPacket) else {
                break;
            };
            let mut line = FixedBuf::new("linebuf", 256);
            os.mem_copy(pid, &mut line, &msg.data, CopyDiscipline::Checked);
            let text = line.text();
            match state {
                0 if text.starts_with("HELO ") => state = 1,
                1 if text.starts_with("AUTH ") => {
                    let token = text.trim_start_matches("AUTH ").trim();
                    if token == secret.trim() {
                        authed = true;
                        state = 2;
                    } else {
                        let _ = os.sys_print(pid, "authd:warn", "authd: bad token, closing\n");
                        return 1;
                    }
                }
                2 if text.starts_with("CMD addkey ") => {
                    os.emit_custom("authd-cmd-without-auth", !authed, "strict state machine".to_string());
                    if authed {
                        let cmd = text.trim_start_matches("CMD addkey ").trim().to_string();
                        // Fix: the record carries only the authenticated
                        // command payload, never claimed identities.
                        let mut record = Data::from("key ");
                        record.push_str(&cmd);
                        record.push_str("\n");
                        if os
                            .sys_append(pid, "authd:append_keys", KEYS_FILE, record, 0o600)
                            .is_err()
                        {
                            let _ = os.sys_print(pid, "authd:warn", "authd: cannot update key database\n");
                        }
                    }
                }
                _ => {
                    let _ = os.sys_print(pid, "authd:warn", "authd: protocol violation, closing\n");
                    return 1;
                }
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_core::campaign::run_once;
    use epa_sandbox::policy::ViolationKind;

    #[test]
    fn clean_session_registers_key_without_violation() {
        let setup = spec().materialize().unwrap();
        let out = run_once(&setup, &Authd, None);
        assert_eq!(out.exit, Some(0));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        let keys = out.os.fs.god_read(KEYS_FILE).unwrap();
        assert!(keys.text().contains("user1001"), "{}", keys.text());
    }

    #[test]
    fn omitting_the_auth_step_defeats_the_vulnerable_daemon() {
        let mut setup = spec().materialize().unwrap();
        setup.world.net.omit_step(AUTHD_PORT, 1);
        let out = run_once(&setup, &Authd, None);
        assert!(
            out.violations.iter().any(|v| v.kind == ViolationKind::Custom),
            "{:?}",
            out.violations
        );
        let fixed = run_once(&setup, &AuthdFixed, None);
        assert!(fixed.violations.is_empty(), "{:?}", fixed.violations);
    }

    #[test]
    fn spoofed_helo_taints_the_key_record() {
        let mut setup = spec().materialize().unwrap();
        setup.world.net.spoof_next(AUTHD_PORT, "evil.example.net");
        let out = run_once(&setup, &Authd, None);
        assert!(
            out.violations.iter().any(|v| v.kind == ViolationKind::SpoofedAction),
            "{:?}",
            out.violations
        );
        let fixed = run_once(&setup, &AuthdFixed, None);
        assert!(fixed.violations.is_empty(), "{:?}", fixed.violations);
    }

    #[test]
    fn fixed_daemon_shuts_down_without_its_secret() {
        let mut setup = spec().materialize().unwrap();
        setup.world.fs.god_remove(SECRET_FILE).unwrap();
        let out = run_once(&setup, &AuthdFixed, None);
        assert_eq!(out.exit, Some(1));
        assert!(out.violations.is_empty());
    }

    #[test]
    fn custom_check_verdict_carries_in_bounds_evidence() {
        let mut setup = spec().materialize().unwrap();
        setup.world.net.omit_step(AUTHD_PORT, 1);
        let out = run_once(&setup, &Authd, None);
        crate::assert_evidence_in_bounds(&out);
        let custom = out
            .violations
            .iter()
            .find(|v| v.kind == ViolationKind::Custom)
            .expect("skipped-auth check detected");
        assert_eq!(custom.detector, "custom");
        assert!(custom.evidence.items[0].summary.starts_with("custom:"));
    }
}
