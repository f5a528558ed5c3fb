//! World builders: the initial environments of the paper's case studies.
//!
//! The worlds are **declared as data**: every app module exports a
//! [`WorldSpec`] (`epa_apps::lpr::spec()`, …) composed from the shared base
//! builders in this module, and campaigns consume the specs through
//! `epa_core::engine::{Session, Suite}`. A caller that edits a world first
//! materializes its spec (`lpr::spec().materialize()`).

use epa_core::engine::{ScenarioBuilder, WorldSpec};
use epa_sandbox::cred::{Gid, Uid};
use epa_sandbox::os::ScenarioMeta;

/// The teaching assistant's uid in the turnin world.
pub const TA_UID: Uid = Uid(1000);
/// The student/invoker uid used across UNIX worlds.
pub const STUDENT_UID: Uid = Uid(1001);
/// The attacker uid used across worlds.
pub const ATTACKER_UID: Uid = Uid(6666);

/// Number of unprotected (world-writable) registry keys in the NT world,
/// matching the paper's inventory.
pub const NT_UNPROTECTED_KEYS: usize = 29;

/// The shared UNIX base: root/student/attacker accounts, `/tmp`, the
/// password and shadow files, the system config, and the attacker's
/// prepared directory.
pub fn base_unix_builder() -> ScenarioBuilder {
    let scenario = ScenarioMeta::default();
    let (invoker, invoker_gid) = (scenario.invoker, scenario.invoker_gid);
    let (attacker, attacker_gid) = (scenario.attacker, scenario.attacker_gid);
    ScenarioBuilder::new()
        .user("root", Uid::ROOT, Gid::ROOT, "/root")
        .user("student", invoker, invoker_gid, "/home/student")
        .user("evil", attacker, attacker_gid, "/home/evil")
        .dir("/tmp", Uid::ROOT, Gid::ROOT, 0o1777)
        .dir("/etc/cron.d", Uid::ROOT, Gid::ROOT, 0o755)
        .dir("/home/student", invoker, invoker_gid, 0o755)
        .dir("/home/evil/bin", attacker, attacker_gid, 0o755)
        .root_file(
            "/etc/passwd",
            "root:x:0:0:/root\nstudent:x:1001:100:/home/student\n",
            0o644,
        )
        .root_file("/etc/shadow", "root:HASH0x7f:12000\nstudent:HASH0x11:12000\n", 0o600)
        .root_file("/etc/system.conf", "kernel.paranoid=1\n", 0o644)
}

/// Scenario metadata shared by the Windows NT worlds (§4.2).
pub fn nt_scenario(invoker: Uid) -> ScenarioMeta {
    ScenarioMeta {
        invoker,
        invoker_gid: Gid(100),
        attacker: ATTACKER_UID,
        attacker_gid: Gid(666),
        attacker_home: "/users/evil".to_string(),
        untrusted_dir: "/users/evil/bin".to_string(),
        secret_target: "/winnt/repair/sam".to_string(),
        integrity_target: "/winnt/win.ini".to_string(),
        protected_dir: "/winnt/system32".to_string(),
        critical_target: "/winnt/system.ini".to_string(),
        trusted_host: "dc.corp.example.com".to_string(),
        attacker_host: "evil.example.net".to_string(),
    }
}

/// The shared Windows NT base: Administrator/user/attacker accounts, the
/// `/winnt` tree, and the paper's 29 unprotected registry keys (5 font
/// caches + 4 logon keys consumed by modeled modules, 20 speculation-set
/// extras no module reads).
pub fn base_nt_builder(invoker: Uid) -> ScenarioBuilder {
    let mut b = ScenarioBuilder::with_scenario(nt_scenario(invoker))
        .user("Administrator", Uid::ROOT, Gid::ROOT, "/users/administrator")
        .user("user1001", Uid(1001), Gid(100), "/users/user1001")
        .user("evil", ATTACKER_UID, Gid(666), "/users/evil")
        .dir("/winnt/system32", Uid::ROOT, Gid::ROOT, 0o755)
        .dir("/users/evil/bin", ATTACKER_UID, Gid(666), 0o755)
        .root_file("/winnt/system.ini", "[boot]\nshell=explorer\n", 0o644)
        .root_file("/winnt/win.ini", "[fonts]\n", 0o644)
        .root_file("/winnt/repair/sam", "SAM{admin:NTHASH}\n", 0o600);
    // Five font-cache files named by unprotected registry keys.
    for i in 0..5 {
        b = b
            .root_file(format!("/winnt/fonts/cache{i}.fon"), "FONTDATA", 0o644)
            .registry_key(format!("HKLM/Software/Fonts/Cache{i}"), true)
            .registry_value("Path", format!("/winnt/fonts/cache{i}.fon"));
    }
    // Four logon keys, also unprotected.
    let logon: [(&str, &str); 4] = [
        ("ProfileDir", "/profiles/user1001"),
        ("Script", "/winnt/scripts/logon.cmd"),
        ("Shell", "/winnt/system32/cmd.exe"),
        ("HelpFile", "/winnt/help/welcome.txt"),
    ];
    for (name, value) in logon {
        b = b
            .registry_key(format!("HKLM/Software/Logon/{name}"), true)
            .registry_value("Path", value);
    }
    // Twenty further unprotected keys no modeled module consumes — the
    // paper's "other 20 unprotected keys" it could only speculate about.
    for i in 0..20 {
        b = b
            .registry_key(format!("HKLM/Software/Extras/Key{i:02}"), true)
            .registry_value("Value", format!("opaque-{i}"));
    }
    // Logon world objects and the attacker's prepared profile directory.
    b.root_file(
        "/profiles/user1001/profile.cfg",
        "shell=/winnt/system32/csh.exe\n",
        0o644,
    )
    .root_file("/winnt/system32/csh.exe", "#!csh", 0o755)
    .root_file("/winnt/scripts/logon.cmd", "@echo on\n", 0o755)
    .root_file("/winnt/system32/cmd.exe", "#!cmd", 0o755)
    .root_file("/winnt/help/welcome.txt", "welcome to the domain\n", 0o644)
    .file(
        "/users/evil/profile.cfg",
        "shell=/users/evil/rootkit.exe\n",
        ATTACKER_UID,
        Gid(666),
        0o644,
    )
    .file("/users/evil/rootkit.exe", "#!rootkit", ATTACKER_UID, Gid(666), 0o755)
}

/// Every case study's world spec, keyed by application name, in the
/// paper's presentation order.
pub fn all_specs() -> Vec<(&'static str, WorldSpec)> {
    vec![
        ("lpr", crate::lpr::spec()),
        ("turnin", crate::turnin::spec()),
        ("fontpurge", crate::fontpurge::spec()),
        ("ntlogon", crate::ntlogon::spec()),
        ("fingerd", crate::fingerd::spec()),
        ("authd", crate::authd::spec()),
        ("mailnotify", crate::mailnotify::spec()),
        ("backupd", crate::backupd::spec()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nt_world_has_29_unprotected_keys() {
        let setup = crate::fontpurge::spec().materialize().unwrap();
        assert_eq!(setup.world.registry.unprotected_keys().len(), NT_UNPROTECTED_KEYS);
    }

    #[test]
    fn every_spec_validates() {
        for (name, spec) in all_specs() {
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn worlds_pass_fs_invariants() {
        for (name, spec) in all_specs() {
            let setup = spec.materialize().unwrap_or_else(|e| panic!("{name}: {e}"));
            setup.world.fs.check_invariants().unwrap();
        }
    }

    #[test]
    fn standard_targets_are_tagged() {
        let setup = crate::turnin::spec().materialize().unwrap();
        let st = setup.world.fs.stat("/etc/shadow", None).unwrap();
        assert!(st.tags.contains(&epa_sandbox::fs::FileTag::Secret));
        let st = setup.world.fs.stat("/etc/passwd", None).unwrap();
        assert!(st.tags.contains(&epa_sandbox::fs::FileTag::Protected));
    }

    #[test]
    fn specs_are_deterministic_data() {
        for (name, spec) in all_specs() {
            assert_eq!(spec, {
                let again = all_specs();
                again.into_iter().find(|(n, _)| *n == name).unwrap().1
            });
        }
    }
}
