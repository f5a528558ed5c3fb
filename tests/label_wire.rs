//! The wire forms of taint labels.
//!
//! Labels reach users only as text: the JSON of audit events and verdict
//! evidence, and `Display` in reports. Each label here is built the way the
//! sandbox builds it during a run (a file read, a registry read, a network
//! receive, an IPC receive), and its JSON and `Display` text are pinned
//! byte for byte, so a change to how labels are stored cannot show in any
//! report, even one the standard suite does not exercise.

use std::collections::BTreeMap;

use epa::sandbox::audit::AuditEvent;
use epa::sandbox::cred::{Gid, Uid};
use epa::sandbox::data::{Data, Label};
use epa::sandbox::fs::FileTag;
use epa::sandbox::mode::Mode;
use epa::sandbox::net::Message;
use epa::sandbox::os::Os;
use epa::sandbox::process::Pid;
use epa::sandbox::registry::RegAcl;
use epa::sandbox::trace::InputSemantic;

/// A world with a SUID-root reader spawned for the scenario invoker.
fn world() -> (Os, Pid) {
    let mut os = Os::new();
    os.users.add("root", Uid::ROOT, Gid::ROOT, "/root");
    os.users
        .add("student", os.scenario.invoker, os.scenario.invoker_gid, "/home/student");
    os.users
        .add("evil", os.scenario.attacker, os.scenario.attacker_gid, "/home/evil");
    os.fs.mkdir_p("/etc", Uid::ROOT, Gid::ROOT, Mode::new(0o755)).unwrap();
    os.fs
        .mkdir_p(
            "/home/evil",
            os.scenario.attacker,
            os.scenario.attacker_gid,
            Mode::new(0o755),
        )
        .unwrap();
    os.fs
        .put_file("/usr/bin/reader", "#!suid", Uid::ROOT, Gid::ROOT, Mode::new(0o4755))
        .unwrap();
    let pid = os
        .spawn(
            os.scenario.invoker,
            Some("/usr/bin/reader"),
            vec![],
            BTreeMap::new(),
            "/",
        )
        .unwrap();
    (os, pid)
}

/// Each label's JSON and `Display` text, in set order.
fn wire(data: &Data) -> Vec<(String, String)> {
    data.labels()
        .iter()
        .map(|l| (serde_json::to_string(l).unwrap(), l.to_string()))
        .collect()
}

fn pair(json: &str, display: &str) -> (String, String) {
    (json.to_string(), display.to_string())
}

#[test]
fn file_labels_name_the_physical_path() {
    let (mut os, pid) = world();
    os.fs
        .put_file("/etc/shadow", "root:HASH:", Uid::ROOT, Gid::ROOT, Mode::new(0o600))
        .unwrap();
    os.fs.tag("/etc/shadow", FileTag::Secret).unwrap();
    os.fs
        .put_file("/etc/motd", "hi", Uid::ROOT, Gid::ROOT, Mode::new(0o644))
        .unwrap();
    os.fs.tag("/etc/motd", FileTag::Secret).unwrap();
    os.fs
        .put_file(
            "/home/evil/plan",
            "x",
            os.scenario.attacker,
            os.scenario.attacker_gid,
            Mode::new(0o644),
        )
        .unwrap();

    let shadow = os.sys_read_file(pid, "t:shadow", "/etc/shadow").unwrap();
    assert_eq!(
        wire(&shadow),
        [pair(
            r#"{"Secret":{"path":"/etc/shadow","invoker_may_read":false}}"#,
            "secret(/etc/shadow, invoker_may_read=false)",
        )]
    );
    let motd = os.sys_read_file(pid, "t:motd", "/etc/motd").unwrap();
    assert_eq!(
        wire(&motd),
        [pair(
            r#"{"Secret":{"path":"/etc/motd","invoker_may_read":true}}"#,
            "secret(/etc/motd, invoker_may_read=true)",
        )]
    );
    // A relative name through a `..` still labels the physical path.
    let plan = os.sys_read_file(pid, "t:plan", "home/evil/../evil/plan").unwrap();
    assert_eq!(
        wire(&plan),
        [pair(
            r#"{"Untrusted":{"source":"file:/home/evil/plan"}}"#,
            "untrusted(file:/home/evil/plan)",
        )]
    );
}

#[test]
fn registry_labels_name_the_key() {
    let (mut os, pid) = world();
    let key = "HKLM/Software/Fonts/Cache0";
    os.registry.ensure_key(
        key,
        RegAcl {
            owner: Uid::ROOT,
            world_writable: true,
        },
    );
    os.registry.god_set_value(key, "Path", "/winnt/fonts/cache0.fon");
    let value = os
        .sys_reg_read(pid, "t:reg", key, "Path", InputSemantic::FsFileName)
        .unwrap();
    assert_eq!(value.text(), "/winnt/fonts/cache0.fon");
    assert_eq!(
        wire(&value),
        [pair(
            r#"{"Untrusted":{"source":"registry:HKLM/Software/Fonts/Cache0"}}"#,
            "untrusted(registry:HKLM/Software/Fonts/Cache0)",
        )]
    );
}

#[test]
fn network_labels_name_the_peers() {
    let (mut os, pid) = world();
    os.net
        .push_message(79, Message::genuine("trusted.cs.example.edu", "req"));
    os.net.spoof_next(79, "evil.example.net");
    os.net.share_socket(79, "intruder-process");
    let msg = os.sys_net_recv(pid, "t:recv", 79, InputSemantic::NetPacket).unwrap();
    assert_eq!(
        wire(&msg.data),
        [
            pair(
                r#"{"Untrusted":{"source":"shared-socket:intruder-process"}}"#,
                "untrusted(shared-socket:intruder-process)",
            ),
            pair(
                r#"{"Spoofed":{"claimed_from":"trusted.cs.example.edu","actual_from":"evil.example.net"}}"#,
                "spoofed(claimed=trusted.cs.example.edu, actual=evil.example.net)",
            ),
        ]
    );
}

#[test]
fn process_labels_name_the_channel() {
    let (mut os, pid) = world();
    os.net.push_ipc("spooler", Message::genuine("lpd", "job"));
    os.net.spoof_next_ipc("spooler", "intruder-process");
    os.net.distrust_ipc("spooler");
    let msg = os
        .sys_proc_recv(pid, "t:ipc", "spooler", InputSemantic::ProcMessage)
        .unwrap();
    assert_eq!(
        wire(&msg.data),
        [
            pair(r#"{"Untrusted":{"source":"ipc:spooler"}}"#, "untrusted(ipc:spooler)"),
            pair(
                r#"{"Spoofed":{"claimed_from":"lpd","actual_from":"intruder-process"}}"#,
                "spoofed(claimed=lpd, actual=intruder-process)",
            ),
        ]
    );
}

#[test]
fn label_sets_in_audit_events_are_sorted_json_arrays() {
    let (mut os, pid) = world();
    let key = "HKLM/Logon/Script";
    os.registry.ensure_key(
        key,
        RegAcl {
            owner: Uid::ROOT,
            world_writable: true,
        },
    );
    os.registry.god_set_value(key, "Path", "/home/evil/plan");
    os.fs
        .put_file(
            "/home/evil/plan",
            "x",
            os.scenario.attacker,
            os.scenario.attacker_gid,
            Mode::new(0o644),
        )
        .unwrap();
    let name = os
        .sys_reg_read(pid, "t:reg", key, "Path", InputSemantic::FsFileName)
        .unwrap();
    let mut plan = os
        .sys_read_file(pid, "t:read", epa::sandbox::data::PathArg::from(&name))
        .unwrap();
    plan.taint_from(&name);
    os.sys_print(pid, "t:print", plan).unwrap();

    let events = os.audit.events();
    let AuditEvent::FileRead { path_taint, .. } = &events[0] else {
        panic!("first event is the read: {events:?}");
    };
    assert_eq!(
        serde_json::to_string(path_taint).unwrap(),
        r#"[{"Untrusted":{"source":"registry:HKLM/Logon/Script"}}]"#
    );
    let AuditEvent::Emit { labels, .. } = &events[1] else {
        panic!("second event is the print: {events:?}");
    };
    assert_eq!(
        serde_json::to_string(labels).unwrap(),
        r#"[{"Untrusted":{"source":"file:/home/evil/plan"}},{"Untrusted":{"source":"registry:HKLM/Logon/Script"}}]"#
    );
    assert_eq!(
        format!("{labels:?}"),
        r#"{Untrusted { source: "file:/home/evil/plan" }, Untrusted { source: "registry:HKLM/Logon/Script" }}"#
    );
    let labels: Vec<Label> = labels.iter().copied().collect();
    assert!(labels.windows(2).all(|w| w[0] < w[1]), "sets iterate in label order");
}
