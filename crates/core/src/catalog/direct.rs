//! Direct-fault patterns: the executable rendition of paper Table 6.
//!
//! Direct faults perturb environment-entity *attributes* before the
//! interaction executes. Which attributes apply depends on the operation:
//! a `creat`-style interaction cares whether the file already exists and as
//! what; a read cares about ownership/permission/symlink/content; an exec
//! cares about the binary; a receive cares about authenticity and protocol.
//! Name-invariance (TOCTTOU) faults apply only to objects the program
//! accesses more than once — exactly the paper's §3.4 reasoning for why
//! attributes 5 and 6 were "not applicable" at `lpr`'s `create`.

use std::collections::BTreeMap;
use std::fmt;

use epa_sandbox::os::ScenarioMeta;
use epa_sandbox::path;
use epa_sandbox::trace::{ObjectRef, OpKind};

use super::CatalogRow;
use crate::model::{DirectKind, EaiCategory, FsAttribute, NetAttribute, ProcAttribute, RegAttribute};
use crate::perturb::{shared_text, ConcreteFault, DirectFault, FaultPayload};

/// Context the generator needs to make Table 6 patterns concrete.
#[derive(Debug, Clone)]
pub struct DirectContext<'a> {
    /// Scenario attack targets.
    pub scenario: &'a ScenarioMeta,
    /// File paths the traced run accessed two or more times (TOCTTOU
    /// candidates).
    pub reaccessed: &'a [String],
    /// Program-name → resolved-binary map from the clean run's exec events,
    /// so bare-name exec sites get file faults on the real binary.
    pub exec_resolutions: &'a BTreeMap<String, String>,
    /// The process's initial working directory, for absolutizing relative
    /// object paths.
    pub cwd: &'a str,
}

impl DirectContext<'_> {
    /// Absolutizes and lexically cleans an object path, so every fault id
    /// and payload target is canonical at the source: a site that names
    /// its object `./report.txt` and one that names it `report.txt` yield
    /// byte-identical faults (and therefore one planner
    /// [`crate::engine::planner::FaultKey`], not two). `..` components
    /// survive cleaning — the VFS resolves them physically, so rewriting
    /// them textually could retarget the fault across a symlinked parent.
    fn absolutize(&self, p: &str) -> String {
        if path::is_absolute(p) {
            path::clean(p)
        } else {
            path::clean(&path::join(self.cwd, p))
        }
    }
}

fn fs_fault(attr: FsAttribute, path: &str, description: fmt::Arguments<'_>, payload: DirectFault) -> ConcreteFault {
    let slug = match attr {
        FsAttribute::Existence => "existence",
        FsAttribute::Ownership => "ownership",
        FsAttribute::Permission => "permission",
        FsAttribute::SymbolicLink => "symlink",
        FsAttribute::ContentInvariance => "content",
        FsAttribute::NameInvariance => "name",
        FsAttribute::WorkingDirectory => "workdir",
    };
    ConcreteFault {
        id: shared_text(format_args!("direct:fs:{slug}@{path}")),
        category: EaiCategory::Direct(DirectKind::FileSystem(attr)),
        semantic: None,
        description: shared_text(description),
        payload: FaultPayload::Direct(payload),
    }
}

fn net_fault(attr: NetAttribute, key: &str, description: fmt::Arguments<'_>, payload: DirectFault) -> ConcreteFault {
    let slug = match attr {
        NetAttribute::MessageAuthenticity => "authenticity",
        NetAttribute::Protocol => "protocol",
        NetAttribute::Socket => "socket",
        NetAttribute::ServiceAvailability => "availability",
        NetAttribute::EntityTrust => "trust",
    };
    ConcreteFault {
        id: shared_text(format_args!("direct:net:{slug}@{key}")),
        category: EaiCategory::Direct(DirectKind::Network(attr)),
        semantic: None,
        description: shared_text(description),
        payload: FaultPayload::Direct(payload),
    }
}

fn proc_fault(attr: ProcAttribute, key: &str, description: fmt::Arguments<'_>, payload: DirectFault) -> ConcreteFault {
    let slug = match attr {
        ProcAttribute::MessageAuthenticity => "authenticity",
        ProcAttribute::Trust => "trust",
        ProcAttribute::ServiceAvailability => "availability",
    };
    ConcreteFault {
        id: shared_text(format_args!("direct:proc:{slug}@{key}")),
        category: EaiCategory::Direct(DirectKind::Process(attr)),
        semantic: None,
        description: shared_text(description),
        payload: FaultPayload::Direct(payload),
    }
}

fn reg_fault(attr: RegAttribute, key: &str, description: fmt::Arguments<'_>, payload: DirectFault) -> ConcreteFault {
    let slug = match attr {
        RegAttribute::AclProtection => "acl",
        RegAttribute::ValueInvariance => "value",
    };
    ConcreteFault {
        id: shared_text(format_args!("direct:reg:{slug}@{key}")),
        category: EaiCategory::Direct(DirectKind::Registry(attr)),
        semantic: None,
        description: shared_text(description),
        payload: FaultPayload::Direct(payload),
    }
}

/// Direct faults for a create-style file interaction: the four attributes
/// of paper §3.4 (existence, ownership, permission, symbolic link).
fn create_faults(p: &str, s: &ScenarioMeta, out: &mut Vec<ConcreteFault>) {
    out.extend([
        fs_fault(
            FsAttribute::Existence,
            p,
            format_args!("make {p} exist (attacker-owned) before the create"),
            DirectFault::FileMakeExist { path: p.into() },
        ),
        fs_fault(
            FsAttribute::Ownership,
            p,
            format_args!("make {p} pre-exist owned by root"),
            DirectFault::FileChownRoot { path: p.into() },
        ),
        fs_fault(
            FsAttribute::Permission,
            p,
            format_args!("make {p} pre-exist with restrictive permissions"),
            DirectFault::FilePermRestrict { path: p.into() },
        ),
        fs_fault(
            FsAttribute::SymbolicLink,
            p,
            format_args!("replace {p} with a symlink to {}", s.integrity_target),
            DirectFault::SymlinkSwap {
                path: p.into(),
                target: s.integrity_target.clone(),
            },
        ),
    ]);
}

/// Direct faults for a read-style file interaction; `content` is false for
/// a bare `stat` probe, which does not observe content.
fn read_faults(p: &str, s: &ScenarioMeta, reaccessed: bool, content: bool, out: &mut Vec<ConcreteFault>) {
    out.extend([
        fs_fault(
            FsAttribute::Existence,
            p,
            format_args!("delete {p} before the read"),
            DirectFault::FileMakeMissing { path: p.into() },
        ),
        fs_fault(
            FsAttribute::Ownership,
            p,
            format_args!("change ownership of {p} to the attacker"),
            DirectFault::FileChownAttacker { path: p.into() },
        ),
        fs_fault(
            FsAttribute::Permission,
            p,
            format_args!("restrict {p} to root-only access"),
            DirectFault::FilePermRestrict { path: p.into() },
        ),
        fs_fault(
            FsAttribute::SymbolicLink,
            p,
            format_args!("replace {p} with a symlink to {}", s.secret_target),
            DirectFault::SymlinkSwap {
                path: p.into(),
                target: s.secret_target.clone(),
            },
        ),
    ]);
    if content {
        out.push(fs_fault(
            FsAttribute::ContentInvariance,
            p,
            format_args!("modify the content of {p}"),
            DirectFault::ModifyContent {
                path: p.into(),
                content: "perturbed content".into(),
            },
        ));
    }
    if reaccessed {
        out.push(fs_fault(
            FsAttribute::NameInvariance,
            p,
            format_args!("rename {p} between accesses (TOCTTOU)"),
            DirectFault::RenameAway { path: p.into() },
        ));
    }
}

/// Direct faults for a chdir interaction.
fn chdir_faults(p: &str, s: &ScenarioMeta, out: &mut Vec<ConcreteFault>) {
    out.extend([
        fs_fault(
            FsAttribute::Existence,
            p,
            format_args!("remove directory {p}"),
            DirectFault::FileMakeMissing { path: p.into() },
        ),
        fs_fault(
            FsAttribute::Ownership,
            p,
            format_args!("change ownership of {p} to the attacker"),
            DirectFault::FileChownAttacker { path: p.into() },
        ),
        fs_fault(
            FsAttribute::Permission,
            p,
            format_args!("strip traversal permission from {p}"),
            DirectFault::FilePermRestrict { path: p.into() },
        ),
        fs_fault(
            FsAttribute::SymbolicLink,
            p,
            format_args!("replace {p} with a symlink to {}", s.protected_dir),
            DirectFault::SymlinkSwap {
                path: p.into(),
                target: s.protected_dir.clone(),
            },
        ),
    ]);
}

/// Direct faults for an exec interaction on a resolved binary.
fn exec_faults(p: &str, s: &ScenarioMeta, out: &mut Vec<ConcreteFault>) {
    let payload_path = format!("{}/payload.sh", s.attacker_home);
    out.extend([
        fs_fault(
            FsAttribute::Existence,
            p,
            format_args!("remove the binary {p}"),
            DirectFault::FileMakeMissing { path: p.into() },
        ),
        fs_fault(
            FsAttribute::Ownership,
            p,
            format_args!("change ownership of {p} to the attacker"),
            DirectFault::FileChownAttacker { path: p.into() },
        ),
        fs_fault(
            FsAttribute::Permission,
            p,
            format_args!("strip execute permission from {p}"),
            DirectFault::FilePermNoExec { path: p.into() },
        ),
        fs_fault(
            FsAttribute::SymbolicLink,
            p,
            format_args!("replace {p} with a symlink to {}/payload.sh", s.attacker_home),
            DirectFault::SymlinkSwap {
                path: p.into(),
                target: payload_path,
            },
        ),
        fs_fault(
            FsAttribute::ContentInvariance,
            p,
            format_args!("replace the content of {p} with a trojan"),
            DirectFault::ModifyContent {
                path: p.into(),
                content: "#!trojan".into(),
            },
        ),
    ]);
}

/// Direct faults for a delete interaction.
fn delete_faults(p: &str, s: &ScenarioMeta, out: &mut Vec<ConcreteFault>) {
    out.extend([
        fs_fault(
            FsAttribute::Existence,
            p,
            format_args!("delete {p} before the program does"),
            DirectFault::FileMakeMissing { path: p.into() },
        ),
        fs_fault(
            FsAttribute::Ownership,
            p,
            format_args!("change ownership of {p} to the attacker"),
            DirectFault::FileChownAttacker { path: p.into() },
        ),
        fs_fault(
            FsAttribute::Permission,
            p,
            format_args!("restrict {p} to root-only access"),
            DirectFault::FilePermRestrict { path: p.into() },
        ),
        fs_fault(
            FsAttribute::SymbolicLink,
            p,
            format_args!("replace {p} with a symlink to {}", s.critical_target),
            DirectFault::SymlinkSwap {
                path: p.into(),
                target: s.critical_target.clone(),
            },
        ),
    ]);
}

/// The direct faults applicable to one (operation, object) pair.
pub fn direct_faults_for(op: OpKind, object: &ObjectRef, ctx: &DirectContext<'_>) -> Vec<ConcreteFault> {
    let mut out = Vec::new();
    push_direct_faults(op, object, ctx, &mut out);
    out
}

/// [`direct_faults_for`], appended to `out`.
pub(crate) fn push_direct_faults(
    op: OpKind,
    object: &ObjectRef,
    ctx: &DirectContext<'_>,
    out: &mut Vec<ConcreteFault>,
) {
    let s = ctx.scenario;
    match (op, object) {
        (OpKind::CreateFile | OpKind::CreateExcl | OpKind::WriteFile, ObjectRef::File(p)) => {
            create_faults(&ctx.absolutize(p), s, out);
        }
        (OpKind::ReadFile | OpKind::Stat, ObjectRef::File(p)) => {
            let abs = ctx.absolutize(p);
            let re = ctx.reaccessed.contains(&abs);
            read_faults(&abs, s, re, op == OpKind::ReadFile, out);
        }
        (OpKind::Chdir | OpKind::ListDir, ObjectRef::File(p)) => chdir_faults(&ctx.absolutize(p), s, out),
        (OpKind::Delete, ObjectRef::File(p)) => delete_faults(&ctx.absolutize(p), s, out),
        (OpKind::Exec, ObjectRef::File(p)) => {
            if p.contains('/') {
                exec_faults(&ctx.absolutize(p), s, out);
            } else if let Some(bin) = ctx.exec_resolutions.get(p) {
                exec_faults(bin, s, out);
            }
        }
        (OpKind::RegRead, ObjectRef::RegValue(key, value)) => {
            let swap = |slug: &str, target: &str, what: &str| ConcreteFault {
                id: shared_text(format_args!("direct:reg:value-{slug}@{key}")),
                category: EaiCategory::Direct(DirectKind::Registry(RegAttribute::ValueInvariance)),
                semantic: None,
                description: shared_text(format_args!("point {key}\\{value} at {what} ({target})")),
                payload: FaultPayload::Direct(DirectFault::RegistrySetValue {
                    key: key.clone(),
                    value: value.clone(),
                    new_value: target.to_string(),
                }),
            };
            out.extend([
                reg_fault(
                    RegAttribute::AclProtection,
                    key,
                    format_args!("make registry key {key} world-writable"),
                    DirectFault::RegistryOpenAcl { key: key.clone() },
                ),
                swap("critical", &s.critical_target, "a system-critical file"),
                swap("secret", &s.secret_target, "a confidential file"),
                swap("untrusted-dir", &s.attacker_home, "an attacker-controlled directory"),
                swap(
                    "attacker-file",
                    &format!("{}/payload.sh", s.attacker_home),
                    "an attacker-planted executable",
                ),
            ]);
        }
        (OpKind::NetRecv, ObjectRef::NetPort(port)) => out.extend([
            net_fault(
                NetAttribute::MessageAuthenticity,
                &port.to_string(),
                format_args!(
                    "make the next message on :{port} actually come from {}",
                    s.attacker_host
                ),
                DirectFault::NetSpoofNext {
                    port: *port,
                    actual: s.attacker_host.clone(),
                },
            ),
            net_fault(
                NetAttribute::Protocol,
                &format!("{port}:omit"),
                format_args!("omit a protocol step on :{port}"),
                DirectFault::NetOmitStep { port: *port, idx: 1 },
            ),
            net_fault(
                NetAttribute::Protocol,
                &format!("{port}:extra"),
                format_args!("add an extra protocol step on :{port}"),
                DirectFault::NetDuplicateStep { port: *port, idx: 0 },
            ),
            net_fault(
                NetAttribute::Protocol,
                &format!("{port}:reorder"),
                format_args!("reorder protocol steps on :{port}"),
                DirectFault::NetSwapSteps {
                    port: *port,
                    a: 0,
                    b: 1,
                },
            ),
            net_fault(
                NetAttribute::Socket,
                &port.to_string(),
                format_args!("share the socket on :{port} with another process"),
                DirectFault::NetShareSocket {
                    port: *port,
                    with: "intruder-process".into(),
                },
            ),
        ]),
        (OpKind::NetConnect, ObjectRef::Service(host, port)) => out.extend([
            net_fault(
                NetAttribute::ServiceAvailability,
                &format!("{host}:{port}"),
                format_args!("deny the service at {host}:{port}"),
                DirectFault::NetDenyService {
                    host: host.clone(),
                    port: *port,
                },
            ),
            net_fault(
                NetAttribute::EntityTrust,
                &format!("{host}:{port}"),
                format_args!("make the entity at {host}:{port} untrusted"),
                DirectFault::NetDistrustEntity {
                    host: host.clone(),
                    port: *port,
                },
            ),
        ]),
        (OpKind::DnsResolve, ObjectRef::Host(host)) => out.push(net_fault(
            NetAttribute::ServiceAvailability,
            &format!("dns:{host}"),
            format_args!("deny the DNS service"),
            DirectFault::DnsDeny,
        )),
        (OpKind::ProcRecv, ObjectRef::IpcChannel(c)) => out.extend([
            proc_fault(
                ProcAttribute::MessageAuthenticity,
                c,
                format_args!("make the next IPC message on {c} actually come from an intruder"),
                DirectFault::IpcSpoofNext {
                    channel: c.clone(),
                    actual: "intruder-process".into(),
                },
            ),
            proc_fault(
                ProcAttribute::Trust,
                c,
                format_args!("make the peer on {c} untrusted"),
                DirectFault::IpcDistrust { channel: c.clone() },
            ),
            proc_fault(
                ProcAttribute::ServiceAvailability,
                c,
                format_args!("deny the peer service on {c}"),
                DirectFault::IpcDeny { channel: c.clone() },
            ),
        ]),
        _ => {}
    }
    // Working-directory fault: applicable when the program names the object
    // with a relative path (Table 6, "start application in different
    // directory").
    if let ObjectRef::File(p) = object {
        if !path::is_absolute(p)
            && matches!(
                op,
                OpKind::CreateFile | OpKind::CreateExcl | OpKind::WriteFile | OpKind::ReadFile | OpKind::Delete
            )
        {
            let dir = format!("{}/cwd", ctx.scenario.attacker_home);
            out.push(fs_fault(
                FsAttribute::WorkingDirectory,
                p,
                format_args!(
                    "start the interaction from attacker-controlled directory {}/cwd",
                    ctx.scenario.attacker_home
                ),
                DirectFault::WorkingDirectory { dir },
            ));
        }
    }
}

/// The rows of paper Table 6, for the reproduction harness. The two
/// registry rows are this reproduction's documented NT extension (§4.2).
pub fn table6_rows() -> Vec<CatalogRow> {
    fn row(entity: &str, item: &str, injections: &[&str]) -> CatalogRow {
        CatalogRow {
            entity: entity.to_string(),
            item: item.to_string(),
            injections: injections.iter().map(std::string::ToString::to_string).collect(),
        }
    }
    vec![
        row("File System", "existence", &["delete an existing file or make a non-existing file exist"]),
        row("File System", "ownership", &["change ownership to the owner of the process, other normal users, or root"]),
        row("File System", "permission", &["flip the permission bit"]),
        row(
            "File System",
            "symbolic link",
            &["if the file is a symbolic link, change the target it links to; if the file is not a symbolic link, change it to a symbolic link"],
        ),
        row("File System", "file content invariance", &["modify file"]),
        row("File System", "file name invariance", &["change file name"]),
        row("File System", "working directory", &["start application in different directory"]),
        row(
            "Network",
            "message authenticity",
            &["make the message come from other network entity instead of where it is expected to come from"],
        ),
        row(
            "Network",
            "protocol",
            &["purposely violates underlying protocol by omitting a protocol step, adding an extra step, reordering steps"],
        ),
        row("Network", "socket", &["share the socket with another process"]),
        row("Network", "service availability", &["deny the service that application is asking for"]),
        row("Network", "entity trustability", &["change the entity with which the application interacts to a untrusted one"]),
        row(
            "Process",
            "message authenticity",
            &["make the message come from other process instead of where it is expected to come from"],
        ),
        row("Process", "process trustability", &["change the entity with which the application interacts to a untrusted one"]),
        row("Process", "service availability", &["deny the service that application is asking for"]),
        row("Registry (NT extension)", "ACL protection", &["make the registry key writable by everyone"]),
        row("Registry (NT extension)", "value invariance", &["point the stored value at a security-critical object"]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(s: &'a ScenarioMeta, re: &'a [String], res: &'a BTreeMap<String, String>) -> DirectContext<'a> {
        DirectContext {
            scenario: s,
            reaccessed: re,
            exec_resolutions: res,
            cwd: "/work",
        }
    }

    #[test]
    fn create_gets_the_four_lpr_attributes() {
        let s = ScenarioMeta::default();
        let res = BTreeMap::new();
        let faults = direct_faults_for(
            OpKind::CreateFile,
            &ObjectRef::File("/tmp/sp".into()),
            &ctx(&s, &[], &res),
        );
        assert_eq!(faults.len(), 4);
        let attrs: Vec<&str> = faults
            .iter()
            .map(|f| f.id.split(':').nth(2).unwrap().split('@').next().unwrap())
            .collect();
        assert_eq!(attrs, vec!["existence", "ownership", "permission", "symlink"]);
    }

    #[test]
    fn read_gets_five_without_reaccess_six_with() {
        let s = ScenarioMeta::default();
        let res = BTreeMap::new();
        let f1 = direct_faults_for(
            OpKind::ReadFile,
            &ObjectRef::File("/etc/cf".into()),
            &ctx(&s, &[], &res),
        );
        assert_eq!(f1.len(), 5);
        let re = vec!["/etc/cf".to_string()];
        let f2 = direct_faults_for(
            OpKind::ReadFile,
            &ObjectRef::File("/etc/cf".into()),
            &ctx(&s, &re, &res),
        );
        assert_eq!(f2.len(), 6);
        assert!(f2.iter().any(|f| f.id.starts_with("direct:fs:name")));
    }

    #[test]
    fn bare_exec_resolves_through_hint() {
        let s = ScenarioMeta::default();
        let mut res = BTreeMap::new();
        let none = direct_faults_for(OpKind::Exec, &ObjectRef::File("tar".into()), &ctx(&s, &[], &res));
        assert!(none.is_empty(), "unknown bare name yields no direct faults");
        res.insert("tar".to_string(), "/usr/local/bin/tar".to_string());
        let some = direct_faults_for(OpKind::Exec, &ObjectRef::File("tar".into()), &ctx(&s, &[], &res));
        assert_eq!(some.len(), 5);
        assert!(some.iter().all(|f| f.id.contains("/usr/local/bin/tar")));
    }

    #[test]
    fn relative_paths_gain_workdir_fault_and_absolutize() {
        let s = ScenarioMeta::default();
        let res = BTreeMap::new();
        let faults = direct_faults_for(
            OpKind::CreateFile,
            &ObjectRef::File("out.txt".into()),
            &ctx(&s, &[], &res),
        );
        assert_eq!(faults.len(), 5);
        assert!(faults.iter().any(|f| f.id.starts_with("direct:fs:workdir")));
        assert!(faults.iter().any(|f| f.id.contains("/work/out.txt")));
    }

    #[test]
    fn network_and_process_counts() {
        let s = ScenarioMeta::default();
        let res = BTreeMap::new();
        let c = ctx(&s, &[], &res);
        assert_eq!(direct_faults_for(OpKind::NetRecv, &ObjectRef::NetPort(79), &c).len(), 5);
        assert_eq!(
            direct_faults_for(OpKind::NetConnect, &ObjectRef::Service("h".into(), 25), &c).len(),
            2
        );
        assert_eq!(
            direct_faults_for(OpKind::DnsResolve, &ObjectRef::Host("h".into()), &c).len(),
            1
        );
        assert_eq!(
            direct_faults_for(OpKind::ProcRecv, &ObjectRef::IpcChannel("c".into()), &c).len(),
            3
        );
        assert_eq!(
            direct_faults_for(OpKind::RegRead, &ObjectRef::RegValue("K".into(), "v".into()), &c).len(),
            5
        );
    }

    #[test]
    fn output_ops_get_no_direct_faults() {
        let s = ScenarioMeta::default();
        let res = BTreeMap::new();
        let c = ctx(&s, &[], &res);
        assert!(direct_faults_for(OpKind::Print, &ObjectRef::Terminal, &c).is_empty());
        assert!(direct_faults_for(OpKind::Getenv, &ObjectRef::EnvVar("PATH".into()), &c).is_empty());
    }

    #[test]
    fn table6_row_count_includes_extension() {
        assert_eq!(table6_rows().len(), 17);
    }
}
