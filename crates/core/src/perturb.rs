//! Concrete perturbations: executable environment faults.
//!
//! A [`ConcreteFault`] is one injectable fault instance — a catalog pattern
//! (paper Tables 5/6) made concrete against a specific interaction point
//! and the scenario's attack targets. Direct faults mutate the [`Os`] world
//! *before* the interaction executes; indirect faults mutate the value the
//! application *received* (paper §3.3 step 6).

use std::cell::RefCell;
use std::fmt;

use serde::{Deserialize, Serialize};
use shim_sync::sync::Arc;

use epa_sandbox::cred::Uid;
use epa_sandbox::data::Data;
use epa_sandbox::error::SysResult;
use epa_sandbox::fs::FileTag;
use epa_sandbox::mode::Mode;
use epa_sandbox::os::Os;
use epa_sandbox::process::Pid;
use epa_sandbox::syscall::SysReturn;

use crate::model::EaiCategory;

/// A direct environment fault: a mutation of the environment state applied
/// before the targeted interaction point (Table 6 instantiations).
///
/// `#[non_exhaustive]`: new perturbation kinds are added as the catalog
/// grows; downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DirectFault {
    /// Make the file exist, owned by the attacker (existence fault for
    /// create-style interactions).
    FileMakeExist {
        /// Target path.
        path: String,
    },
    /// Remove the file (existence fault for read-style interactions).
    FileMakeMissing {
        /// Target path.
        path: String,
    },
    /// Ensure the file exists and is owned by the attacker.
    FileChownAttacker {
        /// Target path.
        path: String,
    },
    /// Ensure the file exists owned by root (ownership fault: "change
    /// ownership to ... root").
    FileChownRoot {
        /// Target path.
        path: String,
    },
    /// Ensure the file exists with permissions stripped (readable by no one
    /// but root).
    FilePermRestrict {
        /// Target path.
        path: String,
    },
    /// Ensure the file exists world-writable.
    FilePermOpen {
        /// Target path.
        path: String,
    },
    /// Strip the execute bits (permission fault for exec interactions).
    FilePermNoExec {
        /// Target path.
        path: String,
    },
    /// Replace the path with a symbolic link to `target`.
    SymlinkSwap {
        /// Path to replace.
        path: String,
        /// Where the link points.
        target: String,
    },
    /// Overwrite the file's content (content-invariance fault).
    ModifyContent {
        /// Target path.
        path: String,
        /// New content.
        content: String,
    },
    /// Rename the object away (name-invariance / TOCTTOU fault).
    RenameAway {
        /// Target path.
        path: String,
    },
    /// Start the interaction from a different working directory.
    WorkingDirectory {
        /// The directory the process is moved to.
        dir: String,
    },
    /// Make a registry key world-writable (ACL-protection fault).
    RegistryOpenAcl {
        /// Key path.
        key: String,
    },
    /// Overwrite a registry value, pointing the module at `new_value`
    /// (value-invariance fault — what an attacker does to an unprotected key).
    RegistrySetValue {
        /// Key path.
        key: String,
        /// Value name.
        value: String,
        /// The planted value.
        new_value: String,
    },
    /// The next message on `port` actually comes from the attacker.
    NetSpoofNext {
        /// Local port.
        port: u16,
        /// Actual origin planted.
        actual: String,
    },
    /// Omit the `idx`-th protocol step queued on `port`.
    NetOmitStep {
        /// Local port.
        port: u16,
        /// Step index.
        idx: usize,
    },
    /// Duplicate the `idx`-th protocol step (an extra step).
    NetDuplicateStep {
        /// Local port.
        port: u16,
        /// Step index.
        idx: usize,
    },
    /// Swap protocol steps `a` and `b` (reordering).
    NetSwapSteps {
        /// Local port.
        port: u16,
        /// First step.
        a: usize,
        /// Second step.
        b: usize,
    },
    /// Share the socket on `port` with another process.
    NetShareSocket {
        /// Local port.
        port: u16,
        /// Who shares it.
        with: String,
    },
    /// Deny the remote service.
    NetDenyService {
        /// Remote host.
        host: String,
        /// Remote port.
        port: u16,
    },
    /// Mark the remote entity untrusted.
    NetDistrustEntity {
        /// Remote host.
        host: String,
        /// Remote port.
        port: u16,
    },
    /// Take the resolver down (service-availability fault on DNS).
    DnsDeny,
    /// The next IPC message actually comes from the attacker.
    IpcSpoofNext {
        /// Channel name.
        channel: String,
        /// Actual origin planted.
        actual: String,
    },
    /// Mark the IPC peer untrusted.
    IpcDistrust {
        /// Channel name.
        channel: String,
    },
    /// Deny the IPC peer service.
    IpcDeny {
        /// Channel name.
        channel: String,
    },
}

impl DirectFault {
    /// Applies the fault to the world. `pid` is the process whose
    /// interaction is being perturbed (needed for working-directory faults).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors from god-mode mutations (e.g. a target
    /// path with no parent); callers treat these as "fault not applicable".
    pub fn apply(&self, os: &mut Os, pid: Pid) -> SysResult<()> {
        let attacker = os.scenario.attacker;
        let attacker_gid = os.scenario.attacker_gid;
        match self {
            DirectFault::FileMakeExist { path } => {
                os.fs
                    .put_file(path, "intruder data", attacker, attacker_gid, Mode::new(0o644))?;
            }
            DirectFault::FileMakeMissing { path } => {
                if os.fs.exists(path) {
                    os.fs.god_remove(path)?;
                }
            }
            DirectFault::FileChownAttacker { path } => {
                if !os.fs.exists(path) {
                    os.fs
                        .put_file(path, "intruder data", attacker, attacker_gid, Mode::new(0o644))?;
                } else {
                    os.fs.god_chown(path, attacker, attacker_gid)?;
                }
            }
            DirectFault::FileChownRoot { path } => {
                if !os.fs.exists(path) {
                    os.fs.put_file(
                        path,
                        "planted",
                        Uid::ROOT,
                        epa_sandbox::cred::Gid::ROOT,
                        Mode::new(0o644),
                    )?;
                } else {
                    os.fs.god_chown(path, Uid::ROOT, epa_sandbox::cred::Gid::ROOT)?;
                }
            }
            DirectFault::FilePermRestrict { path } => {
                if !os.fs.exists(path) {
                    os.fs.put_file(
                        path,
                        "restricted",
                        Uid::ROOT,
                        epa_sandbox::cred::Gid::ROOT,
                        Mode::new(0o600),
                    )?;
                } else {
                    os.fs.god_chown(path, Uid::ROOT, epa_sandbox::cred::Gid::ROOT)?;
                    os.fs.god_chmod(path, Mode::new(0o600))?;
                }
            }
            DirectFault::FilePermOpen { path } => {
                if !os.fs.exists(path) {
                    os.fs.put_file(path, "open", attacker, attacker_gid, Mode::new(0o666))?;
                } else {
                    let st = os.fs.lstat(path, None)?;
                    os.fs.god_chmod(path, st.mode.with_world_write())?;
                }
            }
            DirectFault::FilePermNoExec { path } => {
                if os.fs.exists(path) {
                    let st = os.fs.lstat(path, None)?;
                    os.fs.god_chmod(path, st.mode.without_exec())?;
                }
            }
            DirectFault::SymlinkSwap { path, target } => {
                // Ensure a read through the link can find *something* hostile
                // when the target lives in attacker territory.
                if !os.fs.exists(target) && target.starts_with(&os.scenario.attacker_home) {
                    os.fs
                        .put_file(target, "#!payload", attacker, attacker_gid, Mode::new(0o755))?;
                }
                os.fs.god_symlink(path, target)?;
            }
            DirectFault::ModifyContent { path, content } => {
                if os.fs.exists(path) {
                    os.fs.god_write(path, content.as_str())?;
                } else {
                    os.fs
                        .put_file(path, content.as_str(), attacker, attacker_gid, Mode::new(0o644))?;
                }
            }
            DirectFault::RenameAway { path } => {
                if os.fs.exists(path) {
                    let data = os.fs.god_read(path).unwrap_or_default();
                    let st = os.fs.lstat(path, None)?;
                    os.fs.god_remove(path)?;
                    let moved = format!("{path}.moved");
                    os.fs.put_file(&moved, data, st.owner, st.group, st.mode)?;
                }
            }
            DirectFault::WorkingDirectory { dir } => {
                os.fs.mkdir_p(dir, attacker, attacker_gid, Mode::new(0o755))?;
                let w = os.fs.walk(dir, true, None)?;
                if let Ok(p) = os.procs.get_mut(pid) {
                    p.cwd = w.physical;
                    p.cwd_inode = w.id;
                }
            }
            DirectFault::RegistryOpenAcl { key } => {
                os.registry.god_set_acl(
                    key,
                    epa_sandbox::registry::RegAcl {
                        owner: Uid::ROOT,
                        world_writable: true,
                    },
                )?;
            }
            DirectFault::RegistrySetValue { key, value, new_value } => {
                // When the planted value points into attacker territory,
                // make sure something executable is waiting there.
                if new_value.starts_with(&os.scenario.attacker_home) && !os.fs.exists(new_value) {
                    os.fs
                        .put_file(new_value, "#!payload", attacker, attacker_gid, Mode::new(0o755))?;
                }
                os.registry.god_set_value(key, value, new_value.clone());
            }
            DirectFault::NetSpoofNext { port, actual } => os.net.spoof_next(*port, actual.clone()),
            DirectFault::NetOmitStep { port, idx } => os.net.omit_step(*port, *idx),
            DirectFault::NetDuplicateStep { port, idx } => os.net.duplicate_step(*port, *idx),
            DirectFault::NetSwapSteps { port, a, b } => os.net.swap_steps(*port, *a, *b),
            DirectFault::NetShareSocket { port, with } => os.net.share_socket(*port, with.clone()),
            DirectFault::NetDenyService { host, port } => os.net.deny_service(host, *port),
            DirectFault::NetDistrustEntity { host, port } => os.net.distrust_entity(host, *port),
            DirectFault::DnsDeny => os.net.dns_available = false,
            DirectFault::IpcSpoofNext { channel, actual } => os.net.spoof_next_ipc(channel, actual.clone()),
            DirectFault::IpcDistrust { channel } => os.net.distrust_ipc(channel),
            DirectFault::IpcDeny { channel } => os.net.deny_ipc(channel),
        }
        Ok(())
    }
}

/// An indirect environment fault: a mutation of the input value an internal
/// entity receives (Table 5 instantiations).
///
/// `#[non_exhaustive]`: new mutation kinds are added as the catalog grows;
/// downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum IndirectFault {
    /// Grow the value far past any plausible buffer ("change length").
    Lengthen {
        /// Bytes of filler appended.
        by: usize,
    },
    /// Strip a leading `/` ("use relative path").
    MakeRelative,
    /// Prefix with `/` ("use absolute path").
    MakeAbsolute,
    /// Prefix with `../` components (the traversal special-character fault).
    InsertDotDot {
        /// How many `../` components.
        depth: usize,
    },
    /// Insert a special character at the front of the value.
    InsertSpecial {
        /// The character (`;`, `|`, `&`, `/`, newline, …).
        ch: char,
    },
    /// Reverse the order of a `:`-separated path list.
    PathListReorder,
    /// Prepend an untrusted directory to a path list.
    PathListInsertUntrusted {
        /// The inserted directory.
        dir: String,
    },
    /// Replace the path list with a single incorrect path.
    PathListWrong {
        /// The bogus path.
        dir: String,
    },
    /// Insert the relative `.` entry at the front (the classic
    /// current-directory-in-`PATH` fault).
    PathListRecursive,
    /// Zero a permission mask.
    PermMaskZero,
    /// Replace the file extension.
    ChangeExtension {
        /// The planted extension (e.g. `exe`).
        ext: String,
    },
    /// Grow the file extension past its assumed length.
    LengthenExtension,
    /// Replace the value with structurally invalid text ("bad-formatted").
    Malform,
}

impl IndirectFault {
    /// Applies the fault to a received value, preserving labels. The value
    /// is read in place, so text shared with its source is copied only
    /// into the perturbed text.
    pub fn apply_to_data(&self, data: &mut Data) {
        let text = data.as_text();
        let new_text = match self {
            IndirectFault::Lengthen { by } => format!("{text}{}", "A".repeat(*by)),
            IndirectFault::MakeRelative => text.trim_start_matches('/').to_string(),
            IndirectFault::MakeAbsolute => {
                if text.starts_with('/') {
                    text.into_owned()
                } else {
                    format!("/{text}")
                }
            }
            IndirectFault::InsertDotDot { depth } => {
                format!("{}{}", "../".repeat(*depth), text)
            }
            IndirectFault::InsertSpecial { ch } => format!("{ch}{text}"),
            IndirectFault::PathListReorder => {
                let mut parts: Vec<&str> = text.split(':').collect();
                parts.reverse();
                parts.join(":")
            }
            IndirectFault::PathListInsertUntrusted { dir } => format!("{dir}:{text}"),
            IndirectFault::PathListWrong { dir } => dir.clone(),
            IndirectFault::PathListRecursive => format!(".:{text}"),
            IndirectFault::PermMaskZero => "0".to_string(),
            IndirectFault::ChangeExtension { ext } => match text.rsplit_once('.') {
                Some((stem, _)) => format!("{stem}.{ext}"),
                None => format!("{text}.{ext}"),
            },
            IndirectFault::LengthenExtension => format!("{text}.{}", "x".repeat(300)),
            IndirectFault::Malform => format!("\u{1}\u{2}%%%{}%%%\u{3}", "\u{7f}".repeat(16)),
        };
        data.set_text(new_text);
    }

    /// Applies the fault to a syscall result: payloads and deliveries have
    /// their data mutated; other result shapes are untouched.
    pub fn apply_to_return(&self, ret: &mut SysReturn) {
        match ret {
            SysReturn::Payload(d) => self.apply_to_data(d),
            SysReturn::Delivery(m) => self.apply_to_data(&mut m.data),
            _ => {}
        }
    }
}

/// Whether a concrete fault is direct or indirect, with its payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultPayload {
    /// Applied before the interaction: environment mutation.
    Direct(DirectFault),
    /// Applied after the interaction: input mutation.
    Indirect(IndirectFault),
}

/// `args` as a shared text, allocated once: the text is formatted into a
/// per-thread buffer and copied into the `Arc`, so a catalog row costs one
/// allocation per text, as the `format!` it replaces did.
pub(crate) fn shared_text(args: fmt::Arguments<'_>) -> Arc<str> {
    thread_local! {
        static BUF: RefCell<String> = const { RefCell::new(String::new()) };
    }
    if let Some(text) = args.as_str() {
        return Arc::from(text);
    }
    BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        fmt::Write::write_fmt(&mut *buf, args).expect("formatting into a String cannot fail");
        Arc::from(buf.as_str())
    })
}

/// One injectable fault instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConcreteFault {
    /// Stable identifier, unique within a plan (e.g.
    /// `direct:fs:symlink@/var/spool/job`). Shared: every job and record
    /// of the plan points at the one text.
    pub id: Arc<str>,
    /// EAI classification, for category breakdowns.
    pub category: EaiCategory,
    /// For indirect faults: the input semantics the fault targets. The
    /// injection hook strikes the first interaction at the planned site
    /// whose declared semantics match (a site may receive several inputs).
    pub semantic: Option<epa_sandbox::trace::InputSemantic>,
    /// Human-readable description of the perturbation (shared, as `id`).
    pub description: Arc<str>,
    /// The executable payload.
    pub payload: FaultPayload,
}

impl ConcreteFault {
    /// True for direct faults.
    pub fn is_direct(&self) -> bool {
        matches!(self.payload, FaultPayload::Direct(_))
    }

    /// True when re-aiming this fault at a later occurrence of its site
    /// changes what the injection does. Direct faults perturb the
    /// environment immediately before the k-th execution of the site
    /// (the TOCTTOU re-access axis), and occurrence-addressed indirect
    /// faults strike the k-th received value; semantics-addressed indirect
    /// faults always strike the first matching input regardless of the
    /// planned occurrence, so replanning them at k > 0 would only duplicate
    /// the k = 0 run.
    pub fn occurrence_sensitive(&self) -> bool {
        self.is_direct() || self.semantic.is_none()
    }
}

impl fmt::Display for ConcreteFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.id, self.category)
    }
}

/// Tags the scenario's standard attack targets onto a freshly built world —
/// convenience used by world builders so every scenario's oracle sees the
/// same meaning for its targets.
pub fn tag_standard_targets(os: &mut Os) {
    let secret = os.scenario.secret_target.clone();
    let integrity = os.scenario.integrity_target.clone();
    let critical = os.scenario.critical_target.clone();
    let protected_dir = os.scenario.protected_dir.clone();
    if os.fs.exists(&secret) {
        let _ = os.fs.tag(&secret, FileTag::Secret);
    }
    if os.fs.exists(&integrity) {
        let _ = os.fs.tag(&integrity, FileTag::Protected);
    }
    if os.fs.exists(&critical) {
        let _ = os.fs.tag(&critical, FileTag::Critical);
    }
    if os.fs.exists(&protected_dir) {
        let _ = os.fs.tag(&protected_dir, FileTag::Protected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_sandbox::cred::Gid;
    use std::collections::BTreeMap;

    fn world() -> (Os, Pid) {
        let mut os = Os::new();
        os.users
            .add("student", os.scenario.invoker, os.scenario.invoker_gid, "/home/student");
        os.fs.mkdir_p("/tmp", Uid::ROOT, Gid::ROOT, Mode::new(0o1777)).unwrap();
        os.fs
            .put_file("/etc/passwd", "root:", Uid::ROOT, Gid::ROOT, Mode::new(0o644))
            .unwrap();
        let pid = os
            .spawn(os.scenario.invoker, None, vec![], BTreeMap::new(), "/")
            .unwrap();
        (os, pid)
    }

    #[test]
    fn file_existence_faults() {
        let (mut os, pid) = world();
        DirectFault::FileMakeExist {
            path: "/tmp/spool".into(),
        }
        .apply(&mut os, pid)
        .unwrap();
        assert!(os.fs.exists("/tmp/spool"));
        assert_eq!(os.fs.lstat("/tmp/spool", None).unwrap().owner, os.scenario.attacker);
        DirectFault::FileMakeMissing {
            path: "/tmp/spool".into(),
        }
        .apply(&mut os, pid)
        .unwrap();
        assert!(!os.fs.exists("/tmp/spool"));
    }

    #[test]
    fn symlink_swap_points_at_target() {
        let (mut os, pid) = world();
        DirectFault::SymlinkSwap {
            path: "/tmp/spool".into(),
            target: "/etc/passwd".into(),
        }
        .apply(&mut os, pid)
        .unwrap();
        let st = os.fs.stat("/tmp/spool", None).unwrap();
        assert_eq!(st.owner, Uid::ROOT); // resolved through the link
        assert!(os.fs.lstat("/tmp/spool", None).unwrap().file_type == epa_sandbox::fs::FileType::Symlink);
    }

    #[test]
    fn symlink_swap_plants_payload_in_attacker_home() {
        let (mut os, pid) = world();
        let target = format!("{}/payload.sh", os.scenario.attacker_home);
        DirectFault::SymlinkSwap {
            path: "/usr/bin/tar".into(),
            target: target.clone(),
        }
        .apply(&mut os, pid)
        .unwrap();
        assert!(os.fs.exists(&target));
    }

    #[test]
    fn perm_faults() {
        let (mut os, pid) = world();
        os.fs
            .put_file(
                "/tmp/f",
                "x",
                os.scenario.invoker,
                os.scenario.invoker_gid,
                Mode::new(0o644),
            )
            .unwrap();
        DirectFault::FilePermRestrict { path: "/tmp/f".into() }
            .apply(&mut os, pid)
            .unwrap();
        let st = os.fs.lstat("/tmp/f", None).unwrap();
        assert_eq!(st.mode.bits(), 0o600);
        assert_eq!(st.owner, Uid::ROOT);
        DirectFault::FilePermOpen { path: "/tmp/f".into() }
            .apply(&mut os, pid)
            .unwrap();
        assert!(os.fs.lstat("/tmp/f", None).unwrap().mode.world_writable());
    }

    #[test]
    fn working_directory_fault_moves_process() {
        let (mut os, pid) = world();
        DirectFault::WorkingDirectory {
            dir: "/tmp/elsewhere".into(),
        }
        .apply(&mut os, pid)
        .unwrap();
        assert_eq!(os.procs.get(pid).unwrap().cwd, "/tmp/elsewhere");
    }

    #[test]
    fn registry_faults() {
        let (mut os, pid) = world();
        os.registry
            .ensure_key("HKLM/K", epa_sandbox::registry::RegAcl::default());
        os.registry.god_set_value("HKLM/K", "v", "/fonts/a.fon");
        DirectFault::RegistryOpenAcl { key: "HKLM/K".into() }
            .apply(&mut os, pid)
            .unwrap();
        assert_eq!(os.registry.unprotected_keys(), vec!["HKLM/K".to_string()]);
        DirectFault::RegistrySetValue {
            key: "HKLM/K".into(),
            value: "v".into(),
            new_value: "/etc/passwd".into(),
        }
        .apply(&mut os, pid)
        .unwrap();
        assert_eq!(os.registry.get_value("HKLM/K", "v").unwrap().0, "/etc/passwd");
    }

    #[test]
    fn indirect_string_faults() {
        let mut d = Data::from("/home/user/file.txt");
        IndirectFault::MakeRelative.apply_to_data(&mut d);
        assert_eq!(d.text(), "home/user/file.txt");
        IndirectFault::MakeAbsolute.apply_to_data(&mut d);
        assert_eq!(d.text(), "/home/user/file.txt");
        IndirectFault::InsertDotDot { depth: 3 }.apply_to_data(&mut d);
        assert!(d.text().starts_with("../../../"));
        let mut e = Data::from("name");
        IndirectFault::Lengthen { by: 5000 }.apply_to_data(&mut e);
        assert!(e.len() > 5000);
        IndirectFault::InsertSpecial { ch: ';' }.apply_to_data(&mut e);
        assert!(e.text().starts_with(';'));
    }

    #[test]
    fn path_list_faults() {
        let mut d = Data::from("/bin:/usr/bin");
        IndirectFault::PathListReorder.apply_to_data(&mut d);
        assert_eq!(d.text(), "/usr/bin:/bin");
        IndirectFault::PathListInsertUntrusted {
            dir: "/home/evil/bin".into(),
        }
        .apply_to_data(&mut d);
        assert!(d.text().starts_with("/home/evil/bin:"));
        IndirectFault::PathListRecursive.apply_to_data(&mut d);
        assert!(d.text().starts_with(".:"));
        IndirectFault::PathListWrong {
            dir: "/nonexistent".into(),
        }
        .apply_to_data(&mut d);
        assert_eq!(d.text(), "/nonexistent");
    }

    #[test]
    fn extension_and_mask_faults() {
        let mut d = Data::from("font.fon");
        IndirectFault::ChangeExtension { ext: "exe".into() }.apply_to_data(&mut d);
        assert_eq!(d.text(), "font.exe");
        let mut m = Data::from("022");
        IndirectFault::PermMaskZero.apply_to_data(&mut m);
        assert_eq!(m.text(), "0");
    }

    #[test]
    fn labels_survive_indirect_mutation() {
        let mut d = Data::from("x").with_label(epa_sandbox::data::Label::Untrusted { source: "s".into() });
        IndirectFault::Malform.apply_to_data(&mut d);
        assert!(d.has_untrusted());
        assert!(!d.text().is_empty());
    }

    #[test]
    fn apply_to_return_touches_payload_and_delivery_only() {
        let f = IndirectFault::Lengthen { by: 10 };
        let mut r = SysReturn::Payload(Data::from("p"));
        f.apply_to_return(&mut r);
        if let SysReturn::Payload(d) = &r {
            assert_eq!(d.len(), 11);
        } else {
            panic!("payload expected");
        }
        let mut u = SysReturn::Unit;
        f.apply_to_return(&mut u);
        assert_eq!(u, SysReturn::Unit);
    }
}
