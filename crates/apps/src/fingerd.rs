//! A `fingerd`-style network daemon: the network-input case the paper's
//! model motivates (Fuzz-era overflows plus environment trust).
//!
//! The daemon receives a request on port 79, verifies the client host
//! against a DNS-backed allowlist, and serves the named user's `.plan`.
//! Seeded flaws in the vulnerable version:
//!
//! * unchecked copies of the request and of the DNS reply into fixed
//!   buffers (the classic `gets`-era overflow);
//! * fail-open allowlisting — a resolver failure grants access;
//! * trusting the *claimed* message origin (authenticity).

use epa_sandbox::app::Application;
use epa_sandbox::buffer::{CopyDiscipline, FixedBuf};
use epa_sandbox::data::{Data, PathArg};
use epa_sandbox::os::Os;
use epa_sandbox::process::Pid;
use epa_sandbox::trace::InputSemantic;

/// The daemon's listening port.
pub const FINGER_PORT: u16 = 79;
/// Allowlisted client domain.
pub const TRUSTED_DOMAIN: &str = "cs.example.edu";

/// The `fingerd` world, declared as data: a root daemon serving plan files
/// over port 79 with a DNS-based host allowlist. The oracle's invoker is
/// the anonymous remote client (uid 9999).
pub fn spec() -> epa_core::engine::WorldSpec {
    use epa_sandbox::cred::{Gid, Uid};
    use epa_sandbox::os::ScenarioMeta;
    let scenario = ScenarioMeta {
        invoker: Uid(9999),
        invoker_gid: Gid(999),
        ..Default::default()
    };
    crate::worlds::base_unix_builder()
        .scenario(scenario)
        .user("nobody", Uid(9999), Gid(999), "/")
        .user("user1001", Uid(1001), Gid(100), "/home/user1001")
        .file(
            "/home/user1001/.plan",
            "On sabbatical until fall.\n",
            Uid(1001),
            Gid(100),
            0o644,
        )
        .root_file("/usr/sbin/fingerd", "", 0o755)
        .dns("trusted.cs.example.edu", "10.0.5.1")
        .dns("evil.example.net", "198.51.100.66")
        .service("trusted.cs.example.edu", 1023, true)
        .inbound_message(FINGER_PORT, "trusted.cs.example.edu", "user1001")
        .invoker(Uid::ROOT)
        .cwd("/")
        .build()
}

fn serve(os: &mut Os, pid: Pid, username: &str, reply_to: &str, actual_from: &str) -> i32 {
    let plan_path = format!("/home/{username}/.plan");
    let reply = match os.sys_read_file(pid, "fingerd:read_plan", plan_path.as_str()) {
        Ok(plan) => {
            let mut r = Data::from(format!("Plan for {username}:\n"));
            r.append(&plan);
            r
        }
        Err(_) => Data::from(format!("finger: {username}: no such user\n")),
    };
    let _ = os.sys_net_send(pid, "fingerd:reply", reply_to, 1023, reply);
    // Oracle instrumentation: the world's invariant is that plan data only
    // flows to allowlisted hosts; `actual_from` is ground truth.
    let violated = !actual_from.ends_with(TRUSTED_DOMAIN);
    os.emit_custom(
        "fingerd-serves-untrusted",
        violated,
        format!("served {username} to {actual_from}"),
    );
    0
}

/// The vulnerable finger daemon.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fingerd;

impl Application for Fingerd {
    fn name(&self) -> &'static str {
        "fingerd"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        let Ok(msg) = os.sys_net_recv(pid, "fingerd:recv", FINGER_PORT, InputSemantic::NetPacket) else {
            return 1;
        };
        // Flaw 1: unchecked copy of the request line.
        let mut reqbuf = FixedBuf::new("reqbuf", 512);
        os.mem_copy(pid, &mut reqbuf, &msg.data, CopyDiscipline::Unchecked);
        let username = reqbuf.text().trim().to_string();

        // Flaw 2/3: the allowlist check resolves the *claimed* host and
        // fails open on resolver errors.
        let allowed = match os.sys_dns(pid, "fingerd:dns", &msg.claimed_from, InputSemantic::NetDnsReply) {
            Ok(reply) => {
                let mut hostbuf = FixedBuf::new("hostbuf", 128);
                os.mem_copy(pid, &mut hostbuf, &reply, CopyDiscipline::Unchecked);
                msg.claimed_from.ends_with(TRUSTED_DOMAIN)
            }
            Err(_) => true, // fail open
        };
        if !allowed {
            let _ = os.sys_net_send(pid, "fingerd:reply", &msg.claimed_from, 1023, "finger: access denied\n");
            return 0;
        }
        serve(os, pid, &username, &msg.claimed_from, &msg.actual_from)
    }
}

/// The patched daemon: checked copies, fail-closed allowlisting, and no
/// relaying of files the anonymous client could not read itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct FingerdFixed;

impl Application for FingerdFixed {
    fn name(&self) -> &'static str {
        "fingerd-fixed"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        let Ok(msg) = os.sys_net_recv(pid, "fingerd:recv", FINGER_PORT, InputSemantic::NetPacket) else {
            return 1;
        };
        let mut reqbuf = FixedBuf::new("reqbuf", 512);
        os.mem_copy(pid, &mut reqbuf, &msg.data, CopyDiscipline::Checked);
        let username = reqbuf.text().trim().to_string();
        if username.is_empty() || !username.chars().all(|c| c.is_ascii_alphanumeric()) {
            let _ = os.sys_net_send(pid, "fingerd:reply", &msg.claimed_from, 1023, "finger: bad request\n");
            return 0;
        }
        let allowed = match os.sys_dns(pid, "fingerd:dns", &msg.claimed_from, InputSemantic::NetDnsReply) {
            Ok(reply) => {
                let mut hostbuf = FixedBuf::new("hostbuf", 128);
                os.mem_copy(pid, &mut hostbuf, &reply, CopyDiscipline::Checked);
                msg.claimed_from.ends_with(TRUSTED_DOMAIN)
            }
            Err(_) => false, // fail closed
        };
        if !allowed {
            let _ = os.sys_net_send(pid, "fingerd:reply", &msg.claimed_from, 1023, "finger: access denied\n");
            return 0;
        }
        // Fix: only world-readable plan files are served.
        let plan_path = PathArg::clean(format!("/home/{username}/.plan"));
        let readable = os
            .sys_lstat(pid, "fingerd:read_plan", plan_path.clone())
            .is_ok_and(|st| {
                st.file_type == epa_sandbox::fs::FileType::Regular
                    && st.mode.other_allows(epa_sandbox::mode::Access::Read)
            });
        if !readable {
            let _ = os.sys_net_send(pid, "fingerd:reply", &msg.claimed_from, 1023, "finger: not available\n");
            return 0;
        }
        serve(os, pid, &username, &msg.claimed_from, &msg.actual_from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_core::campaign::run_once;
    use epa_sandbox::net::Message;
    use epa_sandbox::policy::ViolationKind;

    #[test]
    fn clean_request_is_served_without_violation() {
        let setup = spec().materialize().unwrap();
        let out = run_once(&setup, &Fingerd, None);
        assert_eq!(out.exit, Some(0));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.os.net.sent.iter().any(|(_, _, d)| d.text().contains("sabbatical")));
    }

    #[test]
    fn oversized_request_overflows_the_buffer() {
        let mut setup = spec().materialize().unwrap();
        setup.world.net.pop_message(FINGER_PORT);
        setup.world.net.push_message(
            FINGER_PORT,
            Message::genuine("trusted.cs.example.edu", "A".repeat(4000)),
        );
        let out = run_once(&setup, &Fingerd, None);
        assert!(out.violations.iter().any(|v| v.kind == ViolationKind::MemoryCorruption));
        let fixed = run_once(&setup, &FingerdFixed, None);
        assert!(fixed.violations.is_empty(), "{:?}", fixed.violations);
    }

    #[test]
    fn spoofed_origin_serves_the_attacker() {
        let mut setup = spec().materialize().unwrap();
        setup.world.net.spoof_next(FINGER_PORT, "evil.example.net");
        let out = run_once(&setup, &Fingerd, None);
        assert!(
            out.violations.iter().any(|v| v.kind == ViolationKind::Custom),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn fixed_fails_closed_on_dns_outage() {
        let mut setup = spec().materialize().unwrap();
        setup.world.net.dns_available = false;
        let out = run_once(&setup, &FingerdFixed, None);
        assert!(out.violations.is_empty());
        assert!(out.os.net.sent.iter().any(|(_, _, d)| d.text().contains("denied")));
        // The vulnerable one serves anyway (fail-open) — tolerated here only
        // because the client happens to be trusted.
        let vuln = run_once(&setup, &Fingerd, None);
        assert!(vuln.os.net.sent.iter().any(|(_, _, d)| d.text().contains("Plan for")));
    }

    #[test]
    fn overflow_verdict_carries_in_bounds_evidence() {
        let mut setup = spec().materialize().unwrap();
        setup.world.net.pop_message(FINGER_PORT);
        setup.world.net.push_message(
            FINGER_PORT,
            Message::genuine("trusted.cs.example.edu", "A".repeat(4000)),
        );
        let out = run_once(&setup, &Fingerd, None);
        crate::assert_evidence_in_bounds(&out);
        let overflow = out
            .violations
            .iter()
            .find(|v| v.kind == ViolationKind::MemoryCorruption)
            .expect("overflow detected");
        assert!(overflow.evidence.items[0].summary.contains("overflow"));
    }
}
