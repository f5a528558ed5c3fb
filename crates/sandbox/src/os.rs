//! The sandbox operating system: one world, one process under test.
//!
//! [`Os`] owns every substrate — file system, users, processes, network,
//! registry — plus the audit log, the execution trace, and the optional
//! fault-injection [`Interceptor`]. Applications interact with the world
//! exclusively through [`Os::syscall`] (or its typed `sys_*` wrappers), so
//! every environment interaction is traced, hookable, and audited.
//!
//! `Os` is `Clone` (the interceptor is not carried over): campaigns snapshot
//! a pristine world once and clone it per injected run, which makes every
//! run independent and deterministic. The clone is **copy-on-write**: the
//! file system, registry and network substrates share their storage with
//! the pristine world until the run actually mutates them, so per-fault
//! setup costs O(touched state) instead of O(world). [`Os::deep_clone`]
//! materializes a fully independent world when one is needed.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use shim_sync::sync::Arc;

use crate::audit::{AuditEvent, AuditLog, SinkKind, WriteInfo};
use crate::buffer::{CopyDiscipline, CopyOutcome, FixedBuf};
use crate::cred::{Credentials, Gid, Uid, UserDb};
use crate::data::{Data, Label, LabelSet, PathArg};
use crate::error::{SysError, SysResult};
use crate::fs::{FileTag, Probe, Stat, Vfs, Walked};
use crate::intern::{PathSym, TextSym};
use crate::mode::{Access, Mode};
use crate::net::{Message, Network};
use crate::path;
use crate::process::{Pid, ProcessTable};
use crate::registry::Registry;
use crate::syscall::{arg_labels, ExecOutcome, InteractionRef, Interceptor, SysReturn, Syscall};
use crate::syserr;
use crate::trace::{InputSemantic, ObjectRef, OpKind, SiteId, Trace};

/// Scenario metadata: who the invoker and the hypothetical attacker are,
/// and which objects concrete perturbations should aim at. The fault
/// catalog parameterizes its injections from this (e.g. "replace the file
/// with a symlink to *the secret target*").
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ScenarioMeta {
    /// Real uid of the user who runs the application under test.
    pub invoker: Uid,
    /// The invoker's primary group.
    pub invoker_gid: Gid,
    /// Uid of the hypothetical attacker perturbations impersonate.
    pub attacker: Uid,
    /// The attacker's primary group.
    pub attacker_gid: Gid,
    /// Directory the attacker controls.
    pub attacker_home: String,
    /// Attacker-controlled directory suitable for `PATH` insertion.
    pub untrusted_dir: String,
    /// Confidentiality target for read-side symlink swaps (`/etc/shadow`).
    pub secret_target: String,
    /// Integrity target for write-side symlink swaps (`/etc/passwd`).
    pub integrity_target: String,
    /// A protected directory fresh files should not appear in.
    pub protected_dir: String,
    /// A system-critical file (deletion/replacement breaks the system) —
    /// the target registry-value perturbations point privileged modules at.
    pub critical_target: String,
    /// Host trusted by network applications.
    pub trusted_host: String,
    /// Host the attacker controls.
    pub attacker_host: String,
}

impl Default for ScenarioMeta {
    fn default() -> Self {
        ScenarioMeta {
            invoker: Uid(1001),
            invoker_gid: Gid(100),
            attacker: Uid(6666),
            attacker_gid: Gid(666),
            attacker_home: "/home/evil".to_string(),
            untrusted_dir: "/home/evil/bin".to_string(),
            secret_target: "/etc/shadow".to_string(),
            integrity_target: "/etc/passwd".to_string(),
            protected_dir: "/etc/cron.d".to_string(),
            critical_target: "/etc/system.conf".to_string(),
            trusted_host: "trusted.cs.example.edu".to_string(),
            attacker_host: "evil.example.net".to_string(),
        }
    }
}

/// The sandbox world.
pub struct Os {
    /// The virtual file system.
    pub fs: Vfs,
    /// Known accounts.
    pub users: UserDb,
    /// Running (and finished) processes.
    pub procs: ProcessTable,
    /// The network substrate.
    pub net: Network,
    /// The NT-style registry.
    pub registry: Registry,
    /// The audit log of the current run.
    pub audit: AuditLog,
    /// The execution trace of the current run.
    pub trace: Trace,
    /// Scenario metadata for fault parameterization and the oracle,
    /// shared between world snapshots (read through `Deref`; write with
    /// `Arc::make_mut`).
    pub scenario: Arc<ScenarioMeta>,
    /// Physical paths of files created by this run (oracle support: a
    /// program re-writing its own fresh files is not an integrity problem).
    created_paths: BTreeSet<PathSym>,
    interceptor: Option<Box<dyn Interceptor>>,
    /// Whether the installed hook delivered its fault in this run.
    fault_fired: bool,
}

impl Clone for Os {
    /// Snapshots the whole world state copy-on-write: the file system,
    /// users, registry, network and scenario stay shared with `self` until
    /// either world mutates them, so a snapshot of a pristine world (no
    /// processes, trace or audit events yet) allocates nothing. The
    /// interceptor is deliberately *not* cloned: a cloned world starts
    /// unhooked, with no fault delivered.
    fn clone(&self) -> Self {
        Os {
            fs: self.fs.clone(),
            users: self.users.clone(),
            procs: self.procs.clone(),
            net: self.net.clone(),
            registry: self.registry.clone(),
            audit: self.audit.clone(),
            trace: self.trace.clone(),
            scenario: self.scenario.clone(),
            created_paths: self.created_paths.clone(),
            interceptor: None,
            fault_fired: false,
        }
    }
}

impl fmt::Debug for Os {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Os")
            .field("inodes", &self.fs.inode_count())
            .field("users", &self.users.len())
            .field("procs", &self.procs.len())
            .field("audit_events", &self.audit.len())
            .field("trace_events", &self.trace.len())
            .field("hooked", &self.interceptor.is_some())
            .finish()
    }
}

impl Default for Os {
    fn default() -> Self {
        Self::new()
    }
}

impl Os {
    /// A world with an empty file system and default scenario metadata.
    pub fn new() -> Self {
        Os::with_scenario(ScenarioMeta::default())
    }

    /// A world with explicit scenario metadata.
    pub fn with_scenario(scenario: ScenarioMeta) -> Self {
        Os {
            fs: Vfs::new(),
            users: UserDb::new(),
            procs: ProcessTable::new(),
            net: Network::new(),
            registry: Registry::new(),
            audit: AuditLog::new(),
            trace: Trace::new(),
            scenario: Arc::new(scenario),
            created_paths: BTreeSet::new(),
            interceptor: None,
            fault_fired: false,
        }
    }

    /// A fully materialized copy sharing no substrate storage with `self` —
    /// the pre-copy-on-write per-run setup cost. Kept for snapshot
    /// equivalence tests and the deep-clone-vs-snapshot benches; campaign
    /// code uses the cheap [`Clone`] snapshot.
    pub fn deep_clone(&self) -> Os {
        Os {
            fs: self.fs.deep_clone(),
            users: self.users.clone(),
            procs: self.procs.clone(),
            net: self.net.deep_clone(),
            registry: self.registry.deep_clone(),
            audit: self.audit.clone(),
            trace: self.trace.clone(),
            scenario: self.scenario.clone(),
            created_paths: self.created_paths.clone(),
            interceptor: None,
            fault_fired: false,
        }
    }

    /// Whether `self` and `other` hold the same mutable substrate — file
    /// system, registry and network, the state a direct fault can touch.
    /// A structural comparison over exactly the fields each substrate
    /// serializes; storage a copy-on-write snapshot still shares with its
    /// source compares by pointer, so an untouched substrate costs O(1).
    pub fn same_substrate(&self, other: &Os) -> bool {
        self.fs == other.fs && self.registry == other.registry && self.net == other.net
    }

    /// Physical paths this world has recorded as created by its own run
    /// (oracle support: a program re-writing its own fresh files is not an
    /// integrity problem). A pristine world has none; world fingerprints
    /// include the set so a non-pristine world can never alias a pristine
    /// one.
    pub fn created_paths(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.created_paths.iter().map(crate::intern::PathSym::as_str)
    }

    /// Installs the fault-injection hook for the next run.
    pub fn set_interceptor(&mut self, hook: Box<dyn Interceptor>) {
        self.interceptor = Some(hook);
        self.fault_fired = false;
    }

    /// Records that the installed hook delivered its fault: a hook calls
    /// this from `before` or `after`, and the engine reads it back from
    /// the run's world with [`Os::fault_fired`].
    pub fn note_fault_fired(&mut self) {
        self.fault_fired = true;
    }

    /// Whether a hook delivered its fault since it was installed.
    pub fn fault_fired(&self) -> bool {
        self.fault_fired
    }

    /// Whether a hook is installed.
    pub fn is_hooked(&self) -> bool {
        self.interceptor.is_some()
    }

    /// Credentials of the bare invoker (no program privilege), used by the
    /// oracle's "could the real user have done this?" questions.
    pub fn invoker_cred(&self) -> Credentials {
        Credentials::user(self.scenario.invoker, self.scenario.invoker_gid)
    }

    /// True when files owned by `owner` could be attacker-controlled from
    /// the invoker's standpoint: neither root's nor the invoker's.
    pub fn untrusted_owner(&self, owner: Uid) -> bool {
        !owner.is_root() && owner != self.scenario.invoker
    }

    /// Spawns a process for `invoker` running `program`.
    ///
    /// When `program` names a file whose mode has the setuid (setgid) bit,
    /// the process's effective uid (gid) becomes the file's owner (group) —
    /// the SUID semantics every case study in the paper depends on.
    ///
    /// # Errors
    ///
    /// `EINVAL` for an unknown user, `EACCES` when the invoker may not
    /// execute the program, plus path-resolution errors for `cwd`.
    pub fn spawn(
        &mut self,
        invoker: Uid,
        program: Option<&str>,
        args: impl Into<Arc<[Arc<str>]>>,
        env: impl Into<Arc<BTreeMap<String, Arc<str>>>>,
        cwd: &str,
    ) -> SysResult<Pid> {
        let user = self
            .users
            .get(invoker)
            .ok_or_else(|| syserr!(Einval, "unknown user {invoker}"))?;
        let mut cred = Credentials::user(user.uid, user.gid);
        if let Some(p) = program {
            let st = self.fs.stat(p, None)?;
            if !st.mode.grants(st.owner, st.group, &cred, Access::Exec) {
                return Err(syserr!(Eacces, "cannot execute {p}"));
            }
            if st.mode.is_setuid() {
                cred = cred.with_euid(st.owner);
            }
            if st.mode.is_setgid() {
                cred = cred.with_egid(st.group);
            }
        }
        let w = self.fs.walk(cwd, true, None)?;
        if !self.fs.inode(w.id)?.is_dir() {
            return Err(syserr!(Enotdir, "{cwd}"));
        }
        Ok(self.procs.insert(cred, w.physical, w.id, 0o022, env, args))
    }

    /// Records a process's exit status.
    pub fn set_exit(&mut self, pid: Pid, code: i32) {
        if let Ok(p) = self.procs.get_mut(pid) {
            p.exit = Some(code);
        }
    }

    /// The captured stdout of a process.
    pub fn stdout_text(&self, pid: Pid) -> String {
        self.procs
            .get(pid)
            .map(super::process::Process::stdout_text)
            .unwrap_or_default()
    }

    /// Copies data into a fixed buffer under the given discipline, raising
    /// a `MemoryCorruption` audit event on an unchecked overflow.
    pub fn mem_copy(&mut self, pid: Pid, buf: &mut FixedBuf, data: &Data, discipline: CopyDiscipline) -> CopyOutcome {
        let out = buf.copy_from(data, discipline);
        if let CopyOutcome::Overflowed { attempted } = out {
            let by = self.procs.get(pid).map_or_else(|_| Credentials::root(), |p| p.cred);
            self.audit.push(AuditEvent::MemoryCorruption {
                buffer: buf.name().to_string(),
                capacity: buf.capacity(),
                attempted,
                by,
            });
        }
        out
    }

    /// Declares a scenario invariant outcome (a `Custom` audit event).
    pub fn emit_custom(&mut self, rule: impl Into<String>, violated: bool, detail: impl Into<String>) {
        self.audit.push(AuditEvent::Custom {
            rule: rule.into(),
            violated,
            detail: detail.into(),
        });
    }

    // ------------------------------------------------------------------
    // The dispatcher
    // ------------------------------------------------------------------

    /// Executes one syscall for `pid` at interaction site `site`.
    ///
    /// `site` is a [`SiteId`] or a `&'static str` literal, which becomes a
    /// site id with no lookup. A label built at run time needs
    /// [`SiteId::new`]; build it once, not on every call.
    ///
    /// Unhooked, the call is recorded in the execution trace as a
    /// [`crate::trace::TraceEvent`] and dispatched. Hooked, the trace only
    /// counts it ([`Trace::count`]): the interceptor's `before` hook runs
    /// (direct faults), the call is dispatched, and the `after` hook runs
    /// on the result (indirect faults).
    ///
    /// # Errors
    ///
    /// Whatever the underlying operation produces, plus `EAGAIN` once the
    /// process's syscall budget is exhausted.
    pub fn syscall(&mut self, pid: Pid, site: impl Into<SiteId>, call: Syscall<'_>) -> SysResult<SysReturn> {
        self.procs.get_mut(pid)?.spend_budget()?;
        let site = site.into();
        let op = call.op();
        let semantic = call.semantic();
        let seq = self.trace.interactions();
        let Some(mut hook) = self.interceptor.take() else {
            // Record file objects by their cwd-resolved name so perturbation
            // planning targets what the interaction actually touches. Bare
            // program names stay bare: an exec without `/` resolves through
            // a search path, not the working directory.
            let object = match call.file_path() {
                Some(p) if op != OpKind::Exec || p.contains('/') => {
                    ObjectRef::File(self.abs(pid, p).map_or_else(|_| p.to_string(), Cow::into_owned))
                }
                _ => call.object(),
            };
            self.trace.record(site, op, object, semantic);
            let result = self.dispatch(pid, call);
            self.trace.set_outcome(seq, result.is_ok());
            return result;
        };
        let occurrence = self.trace.count(site);
        let point = InteractionRef {
            pid,
            site,
            seq,
            occurrence,
            op,
            semantic,
        };
        hook.before(self, &point, &call);
        let mut result = self.dispatch(pid, call);
        hook.after(self, &point, &mut result);
        self.interceptor = Some(hook);
        result
    }

    fn dispatch(&mut self, pid: Pid, call: Syscall<'_>) -> SysResult<SysReturn> {
        match call {
            Syscall::Getenv { name, .. } => self.do_getenv(pid, name),
            Syscall::ReadArg { index, .. } => self.do_read_arg(pid, index),
            Syscall::InputBind { value, .. } => Ok(SysReturn::Payload(value)),
            Syscall::ReadFile { path } => self.do_read_file(pid, &path),
            Syscall::WriteFile { path, data, mode } => self.do_write_file(pid, &path, &data, mode),
            Syscall::CreateExcl { path, mode } => self.do_create_excl(pid, &path, mode),
            Syscall::AppendFile { path, data, mode } => self.do_append(pid, &path, &data, mode),
            Syscall::Unlink { path } => self.do_unlink(pid, &path),
            Syscall::Mkdir { path, mode } => self.do_mkdir(pid, &path, mode),
            Syscall::Chdir { path } => self.do_chdir(pid, &path),
            Syscall::StatPath { path } => self.do_stat(pid, &path, true),
            Syscall::LstatPath { path } => self.do_stat(pid, &path, false),
            Syscall::SymlinkCreate { target, link } => self.do_symlink(pid, target, &link),
            Syscall::Readlink { path } => self.do_readlink(pid, &path),
            Syscall::Rename { from, to } => self.do_rename(pid, &from, &to),
            Syscall::Chmod { path, mode } => self.do_chmod(pid, &path, mode),
            Syscall::Chown { path, owner } => self.do_chown(pid, &path, owner),
            Syscall::ListDir { path } => self.do_list_dir(pid, &path),
            Syscall::Exec {
                program,
                args,
                path_list,
            } => self.do_exec(pid, &program, &args, path_list.as_ref()),
            Syscall::Print { data } => self.do_print(pid, data),
            Syscall::RegRead { key, value, .. } => self.do_reg_read(key, value),
            Syscall::RegWrite { key, value, data } => self.do_reg_write(pid, key, value, data),
            Syscall::RegDelete { key, value } => self.do_reg_delete(pid, key, value),
            Syscall::NetConnect { host, port } => self.do_net_connect(host, port),
            Syscall::NetSend { host, port, data } => self.do_net_send(pid, host, port, data),
            Syscall::NetRecv { port, .. } => self.do_net_recv(port),
            Syscall::DnsResolve { host, .. } => self.do_dns(host),
            Syscall::ProcRecv { channel, .. } => self.do_proc_recv(channel),
        }
    }

    // ------------------------------------------------------------------
    // Handlers
    // ------------------------------------------------------------------

    fn cred_of(&self, pid: Pid) -> SysResult<Credentials> {
        Ok(self.procs.get(pid)?.cred)
    }

    /// `p` resolved against the process's working directory; an absolute
    /// path is borrowed as it is.
    fn abs<'p>(&self, pid: Pid, p: &'p str) -> SysResult<Cow<'p, str>> {
        if path::is_absolute(p) {
            Ok(Cow::Borrowed(p))
        } else {
            Ok(Cow::Owned(path::join(&self.procs.get(pid)?.cwd, p)))
        }
    }

    /// Taint on a path argument, including the cwd taint for relative paths
    /// (a relative operation lands wherever the tainted cwd pointed).
    fn effective_taint(&self, pid: Pid, arg: &PathArg<'_>) -> LabelSet {
        let mut taint = arg.taint.clone();
        if !path::is_absolute(&arg.path) {
            if let Ok(p) = self.procs.get(pid) {
                taint.union_with(&p.cwd_taint);
            }
        }
        taint
    }

    fn attach_file_labels(&self, data: &mut Data, st: &Stat, physical: PathSym) {
        let invoker = self.invoker_cred();
        let may_read = st.mode.grants(st.owner, st.group, &invoker, Access::Read);
        if !may_read || st.tags.contains(&FileTag::Secret) {
            data.add_label(Label::Secret {
                path: physical.into(),
                invoker_may_read: may_read,
            });
        }
        if self.untrusted_owner(st.owner) || st.mode.world_writable() {
            data.add_label(Label::untrusted("file", &physical));
        }
    }

    fn do_getenv(&mut self, pid: Pid, name: &str) -> SysResult<SysReturn> {
        let p = self.procs.get(pid)?;
        p.env
            .get(name)
            .map(|v| SysReturn::Payload(Data::from(Arc::clone(v))))
            .ok_or_else(|| syserr!(Enoent, "environment variable {name}"))
    }

    fn do_read_arg(&mut self, pid: Pid, index: usize) -> SysResult<SysReturn> {
        let p = self.procs.get(pid)?;
        p.args
            .get(index)
            .map(|a| SysReturn::Payload(Data::from(Arc::clone(a))))
            .ok_or_else(|| syserr!(Einval, "missing argument {index}"))
    }

    fn do_read_file(&mut self, pid: Pid, path: &PathArg<'_>) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let abs = self.abs(pid, &path.path)?;
        let w = self.fs.open_read(&abs, &cred)?;
        let st = Stat::of(self.fs.inode(w.id)?);
        let mut data = self.fs.read(w.id)?;
        self.attach_file_labels(&mut data, &st, w.physical);
        let taint = self.effective_taint(pid, path);
        self.audit.push(AuditEvent::FileRead {
            path: w.physical,
            tags: st.tags,
            path_taint: taint,
            by: cred,
        });
        Ok(SysReturn::Payload(data))
    }

    /// The write target's state before the write, from the god-mode
    /// `stat` the probe stands for: whether it existed, its owner when a
    /// regular file, whether the invoker could write it, and its tags.
    fn pre_write_state(&self, probe: &Probe<'_>) -> (bool, Option<Uid>, bool, BTreeSet<FileTag>) {
        let invoker = self.invoker_cred();
        match probe.reached().map(|id| self.fs.inode(id)) {
            Some(Ok(ino)) if ino.is_file() => (
                true,
                Some(ino.owner),
                ino.mode.grants(ino.owner, ino.group, &invoker, Access::Write),
                ino.tags.clone(),
            ),
            Some(_) => (true, None, false, BTreeSet::new()),
            None => (false, None, false, BTreeSet::new()),
        }
    }

    /// Audits a write to the file `w` names. Its parent directory and its
    /// mode after the write are read from the walked inodes.
    fn push_write_event(
        &mut self,
        w: &Walked,
        pre: (bool, Option<Uid>, bool, BTreeSet<FileTag>),
        path_taint: LabelSet,
        data: &Data,
        cred: Credentials,
    ) {
        let (existed_before, owner_before, invoker_could_write, target_tags) = pre;
        let physical = w.physical;
        let created_by_self = self.created_paths.contains(&physical);
        if !existed_before {
            self.created_paths.insert(physical);
        }
        let invoker = self.invoker_cred();
        let (parent_tags, invoker_could_write_parent) = match self.fs.inode(w.parent) {
            Ok(dir) => (
                dir.tags.clone(),
                dir.mode.grants(dir.owner, dir.group, &invoker, Access::Write),
            ),
            Err(_) => (BTreeSet::new(), false),
        };
        let invoker_could_read_after = self
            .fs
            .inode(w.id)
            .is_ok_and(|ino| ino.mode.grants(ino.owner, ino.group, &invoker, Access::Read));
        self.audit.push(AuditEvent::FileWrite(WriteInfo {
            path: physical,
            existed_before,
            owner_before,
            invoker_could_write,
            target_tags,
            parent_tags,
            invoker_could_write_parent,
            invoker_could_read_after,
            created_by_self,
            path_taint,
            data_labels: data.labels().clone(),
            by: cred,
        }));
    }

    fn do_write_file(&mut self, pid: Pid, path: &PathArg<'_>, data: &Data, mode: u16) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let umask = self.procs.get(pid)?.umask;
        let abs = self.abs(pid, &path.path)?;
        let taint = self.effective_taint(pid, path);
        let probe = self.fs.probe(&abs, true, &cred);
        let pre = self.pre_write_state(&probe);
        let (w, _) = self.fs.creat_probed(&abs, &probe, Mode::new(mode), &cred, umask)?;
        self.fs.write(w.id, data, false)?;
        self.push_write_event(&w, pre, taint, data, cred);
        Ok(SysReturn::Unit)
    }

    fn do_create_excl(&mut self, pid: Pid, path: &PathArg<'_>, mode: u16) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let umask = self.procs.get(pid)?.umask;
        let abs = self.abs(pid, &path.path)?;
        let taint = self.effective_taint(pid, path);
        let w = self.fs.create_excl(&abs, Mode::new(mode), &cred, umask)?;
        let pre = (false, None, false, BTreeSet::new());
        self.push_write_event(&w, pre, taint, &Data::new(), cred);
        Ok(SysReturn::Unit)
    }

    fn do_append(&mut self, pid: Pid, path: &PathArg<'_>, data: &Data, mode: u16) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let umask = self.procs.get(pid)?.umask;
        let abs = self.abs(pid, &path.path)?;
        let taint = self.effective_taint(pid, path);
        let probe = self.fs.probe(&abs, true, &cred);
        let pre = self.pre_write_state(&probe);
        let w = if pre.0 {
            // Existing target: append with a write-permission check.
            let id = self.fs.checked(&probe)?;
            let ino = self.fs.inode(id)?;
            if !ino.mode.grants(ino.owner, ino.group, &cred, Access::Write) {
                return Err(syserr!(Eacces, "{abs}"));
            }
            self.fs.write(id, data, true)?;
            self.fs.walked(id)
        } else {
            let (w, _) = self.fs.creat_probed(&abs, &probe, Mode::new(mode), &cred, umask)?;
            self.fs.write(w.id, data, false)?;
            w
        };
        self.push_write_event(&w, pre, taint, data, cred);
        Ok(SysReturn::Unit)
    }

    fn do_unlink(&mut self, pid: Pid, path: &PathArg<'_>) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let abs = self.abs(pid, &path.path)?;
        // One walk stands for the god-mode `lstat` and parent walk the
        // audit record needs and for the checked parent walk of `unlink`.
        let probe = self.fs.probe(&abs, false, &cred);
        let target = self.fs.found(&probe)?;
        let name = crate::fs::final_name(&abs)?;
        let dir = self.fs.parent_of(target);
        let w = self.fs.walked(target);
        let invoker = self.invoker_cred();
        let (owner, tags) = {
            let ino = self.fs.inode(target)?;
            (ino.owner, ino.tags.clone())
        };
        let dir_ino = self.fs.inode(dir)?;
        let could = dir_ino
            .mode
            .grants(dir_ino.owner, dir_ino.group, &invoker, Access::Write)
            && !(dir_ino.mode.is_sticky()
                && !invoker.euid.is_root()
                && invoker.euid != owner
                && invoker.euid != dir_ino.owner);
        let taint = self.effective_taint(pid, path);
        self.fs.checked_parent(&probe)?;
        self.fs.unlink_entry(dir, name, &abs, &cred)?;
        self.created_paths.remove(&w.physical);
        self.audit.push(AuditEvent::FileDelete {
            path: w.physical,
            owner,
            tags,
            path_taint: taint,
            invoker_could_delete: could,
            by: cred,
        });
        Ok(SysReturn::Unit)
    }

    fn do_mkdir(&mut self, pid: Pid, path: &PathArg<'_>, mode: u16) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let umask = self.procs.get(pid)?.umask;
        let abs = self.abs(pid, &path.path)?;
        self.fs.mkdir(&abs, Mode::new(mode), &cred, umask)?;
        Ok(SysReturn::Unit)
    }

    fn do_chdir(&mut self, pid: Pid, path: &PathArg<'_>) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let abs = self.abs(pid, &path.path)?;
        let w = self.fs.walk(&abs, true, Some(&cred))?;
        let ino = self.fs.inode(w.id)?;
        if !ino.is_dir() {
            return Err(syserr!(Enotdir, "{abs}"));
        }
        if !ino.mode.grants(ino.owner, ino.group, &cred, Access::Exec) {
            return Err(syserr!(Eacces, "{abs}"));
        }
        let owner = ino.owner;
        let taint = self.effective_taint(pid, path);
        {
            let p = self.procs.get_mut(pid)?;
            p.cwd = w.physical;
            p.cwd_inode = w.id;
            p.cwd_taint = taint.clone();
        }
        self.audit.push(AuditEvent::Chdir {
            path: w.physical,
            owner,
            path_taint: taint,
            by: cred,
        });
        Ok(SysReturn::Unit)
    }

    fn do_stat(&mut self, pid: Pid, path: &PathArg<'_>, follow: bool) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let abs = self.abs(pid, &path.path)?;
        let st = if follow {
            self.fs.stat(&abs, Some(&cred))?
        } else {
            self.fs.lstat(&abs, Some(&cred))?
        };
        Ok(SysReturn::Meta(st))
    }

    fn do_symlink(&mut self, pid: Pid, target: &str, link: &PathArg<'_>) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let abs = self.abs(pid, &link.path)?;
        self.fs.symlink(target, &abs, &cred)?;
        Ok(SysReturn::Unit)
    }

    fn do_readlink(&mut self, pid: Pid, path: &PathArg<'_>) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let abs = self.abs(pid, &path.path)?;
        Ok(SysReturn::Text(self.fs.readlink(&abs, &cred)?))
    }

    fn do_rename(&mut self, pid: Pid, from: &PathArg<'_>, to: &PathArg<'_>) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let fa = self.abs(pid, &from.path)?;
        let ta = self.abs(pid, &to.path)?;
        self.fs.rename(&fa, &ta, &cred)?;
        Ok(SysReturn::Unit)
    }

    fn do_chmod(&mut self, pid: Pid, path: &PathArg<'_>, mode: u16) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let abs = self.abs(pid, &path.path)?;
        self.fs.chmod(&abs, Mode::new(mode), &cred)?;
        Ok(SysReturn::Unit)
    }

    fn do_chown(&mut self, pid: Pid, path: &PathArg<'_>, owner: Uid) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let abs = self.abs(pid, &path.path)?;
        self.fs.chown(&abs, owner, cred.egid, &cred)?;
        Ok(SysReturn::Unit)
    }

    fn do_list_dir(&mut self, pid: Pid, path: &PathArg<'_>) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let abs = self.abs(pid, &path.path)?;
        Ok(SysReturn::Names(self.fs.list_dir(&abs, &cred)?))
    }

    fn do_exec(
        &mut self,
        pid: Pid,
        program: &PathArg<'_>,
        args: &[Data],
        path_list: Option<&Data>,
    ) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let mut taint = program.taint.clone();
        let w = if program.path.contains('/') {
            let abs = self.abs(pid, &program.path)?;
            self.fs.walk(&abs, true, Some(&cred))?
        } else {
            let pl = path_list.ok_or_else(|| syserr!(Einval, "bare program `{}` without search path", program.path))?;
            taint.union_with(pl.labels());
            let mut found = None;
            for dir in pl.as_text().split(':').filter(|s| !s.is_empty()) {
                let cand = path::join(dir, &program.path);
                let abs = self.abs(pid, &cand)?;
                if let Ok(w) = self.fs.walk(&abs, true, Some(&cred)) {
                    if let Ok(ino) = self.fs.inode(w.id) {
                        if ino.is_file() && ino.mode.any_exec() {
                            found = Some(w);
                            break;
                        }
                    }
                }
            }
            found.ok_or_else(|| syserr!(Enoent, "{} not found in search path", program.path))?
        };
        let ino = self.fs.inode(w.id)?;
        if !ino.is_file() {
            return Err(syserr!(Eacces, "{} is not executable", w.physical));
        }
        if !ino.mode.grants(ino.owner, ino.group, &cred, Access::Exec) {
            return Err(syserr!(Eacces, "{}", w.physical));
        }
        let owner = ino.owner;
        let world_writable = ino.mode.world_writable();
        let dir_untrusted = self
            .fs
            .inode(w.parent)
            .is_ok_and(|dir| self.untrusted_owner(dir.owner) || (dir.mode.world_writable() && !dir.mode.is_sticky()));
        self.audit.push(AuditEvent::Exec {
            requested: program.path.to_string(),
            resolved: w.physical,
            owner,
            world_writable,
            dir_untrusted,
            path_taint: taint,
            arg_labels: arg_labels(args),
            by: cred,
        });
        Ok(SysReturn::Launched(ExecOutcome {
            resolved: w.physical,
            owner,
        }))
    }

    fn do_print(&mut self, pid: Pid, data: Data) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let labels = data.labels().clone();
        self.procs.get_mut(pid)?.stdout.push(data);
        self.audit.push(AuditEvent::Emit {
            sink: SinkKind::Stdout,
            labels,
            by: cred,
        });
        Ok(SysReturn::Unit)
    }

    fn do_reg_read(&mut self, key: &str, value: &str) -> SysResult<SysReturn> {
        Ok(SysReturn::Payload(self.registry.read_value(key, value)?))
    }

    fn do_reg_write(&mut self, pid: Pid, key: &str, value: &str, data: &str) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        self.registry.set_value(key, value, data, &cred)?;
        self.audit.push(AuditEvent::RegistryWrite {
            key: key.to_string(),
            by: cred,
        });
        Ok(SysReturn::Unit)
    }

    fn do_reg_delete(&mut self, pid: Pid, key: &str, value: &str) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        self.registry.delete_value(key, value, &cred)?;
        self.audit.push(AuditEvent::RegistryDelete {
            key: key.to_string(),
            path_taint: LabelSet::new(),
            by: cred,
        });
        Ok(SysReturn::Unit)
    }

    fn do_net_connect(&mut self, host: &str, port: u16) -> SysResult<SysReturn> {
        self.net.connect(host, port)?;
        Ok(SysReturn::Unit)
    }

    fn do_net_send(&mut self, pid: Pid, host: &str, port: u16, data: Data) -> SysResult<SysReturn> {
        let cred = self.cred_of(pid)?;
        let labels = data.labels().clone();
        self.net.send(host, port, data);
        self.audit.push(AuditEvent::Emit {
            sink: SinkKind::Network {
                to: format!("{host}:{port}"),
            },
            labels,
            by: cred,
        });
        Ok(SysReturn::Unit)
    }

    fn do_net_recv(&mut self, port: u16) -> SysResult<SysReturn> {
        let mut msg = self
            .net
            .pop_message(port)
            .ok_or_else(|| syserr!(Enomsg, "no message on port {port}"))?;
        if !msg.authentic() {
            msg.data.add_label(Label::Spoofed {
                claimed_from: TextSym::new(&msg.claimed_from),
                actual_from: TextSym::new(&msg.actual_from),
            });
        }
        if let Some(who) = self.net.socket_shared_with(port) {
            msg.data.add_label(Label::untrusted("shared-socket", who));
        }
        self.audit.push(AuditEvent::NetRecv {
            port,
            authentic: msg.authentic(),
            actual_from: msg.actual_from.clone(),
        });
        Ok(SysReturn::Delivery(msg))
    }

    fn do_dns(&mut self, host: &str) -> SysResult<SysReturn> {
        let addr = self.net.resolve(host)?;
        Ok(SysReturn::Payload(Data::from(addr)))
    }

    fn do_proc_recv(&mut self, channel: &str) -> SysResult<SysReturn> {
        let mut msg = self.net.pop_ipc(channel)?;
        if !msg.authentic() {
            msg.data.add_label(Label::Spoofed {
                claimed_from: TextSym::new(&msg.claimed_from),
                actual_from: TextSym::new(&msg.actual_from),
            });
        }
        if !self.net.ipc_trusted(channel) {
            msg.data.add_label(Label::untrusted("ipc", channel));
        }
        Ok(SysReturn::Delivery(msg))
    }
}

// ----------------------------------------------------------------------
// Typed wrappers: ergonomic application-facing API
// ----------------------------------------------------------------------

macro_rules! expect_return {
    ($value:expr, $variant:ident) => {
        match $value {
            SysReturn::$variant(x) => Ok(x),
            other => Err(SysError::new(
                crate::error::Errno::Einval,
                format!("unexpected syscall return {other:?}"),
            )),
        }
    };
}

impl Os {
    /// Reads an environment variable. See [`Syscall::Getenv`].
    pub fn sys_getenv(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        name: &str,
        semantic: InputSemantic,
    ) -> SysResult<Data> {
        let r = self.syscall(pid, site, Syscall::Getenv { name, semantic })?;
        expect_return!(r, Payload)
    }

    /// Reads argv\[index\]. See [`Syscall::ReadArg`].
    pub fn sys_arg(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        index: usize,
        semantic: InputSemantic,
    ) -> SysResult<Data> {
        let r = self.syscall(pid, site, Syscall::ReadArg { index, semantic })?;
        expect_return!(r, Payload)
    }

    /// Binds a parsed input value to an internal entity. See [`Syscall::InputBind`].
    pub fn sys_bind(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        entity: &str,
        semantic: InputSemantic,
        value: Data,
    ) -> SysResult<Data> {
        let r = self.syscall(
            pid,
            site,
            Syscall::InputBind {
                entity,
                semantic,
                value,
            },
        )?;
        expect_return!(r, Payload)
    }

    /// Reads a whole file. See [`Syscall::ReadFile`].
    pub fn sys_read_file<'a>(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        path: impl Into<PathArg<'a>>,
    ) -> SysResult<Data> {
        let r = self.syscall(pid, site, Syscall::ReadFile { path: path.into() })?;
        expect_return!(r, Payload)
    }

    /// Creates-or-truncates and writes a file. See [`Syscall::WriteFile`].
    pub fn sys_write_file<'a>(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        path: impl Into<PathArg<'a>>,
        data: impl Into<Data>,
        mode: u16,
    ) -> SysResult<()> {
        self.syscall(
            pid,
            site,
            Syscall::WriteFile {
                path: path.into(),
                data: data.into(),
                mode,
            },
        )?;
        Ok(())
    }

    /// Exclusive creation. See [`Syscall::CreateExcl`].
    pub fn sys_create_excl<'a>(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        path: impl Into<PathArg<'a>>,
        mode: u16,
    ) -> SysResult<()> {
        self.syscall(
            pid,
            site,
            Syscall::CreateExcl {
                path: path.into(),
                mode,
            },
        )?;
        Ok(())
    }

    /// Appends to a file. See [`Syscall::AppendFile`].
    pub fn sys_append<'a>(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        path: impl Into<PathArg<'a>>,
        data: impl Into<Data>,
        mode: u16,
    ) -> SysResult<()> {
        self.syscall(
            pid,
            site,
            Syscall::AppendFile {
                path: path.into(),
                data: data.into(),
                mode,
            },
        )?;
        Ok(())
    }

    /// Removes a file. See [`Syscall::Unlink`].
    pub fn sys_unlink<'a>(&mut self, pid: Pid, site: impl Into<SiteId>, path: impl Into<PathArg<'a>>) -> SysResult<()> {
        self.syscall(pid, site, Syscall::Unlink { path: path.into() })?;
        Ok(())
    }

    /// Changes the working directory. See [`Syscall::Chdir`].
    pub fn sys_chdir<'a>(&mut self, pid: Pid, site: impl Into<SiteId>, path: impl Into<PathArg<'a>>) -> SysResult<()> {
        self.syscall(pid, site, Syscall::Chdir { path: path.into() })?;
        Ok(())
    }

    /// `stat`. See [`Syscall::StatPath`].
    pub fn sys_stat<'a>(&mut self, pid: Pid, site: impl Into<SiteId>, path: impl Into<PathArg<'a>>) -> SysResult<Stat> {
        let r = self.syscall(pid, site, Syscall::StatPath { path: path.into() })?;
        expect_return!(r, Meta)
    }

    /// `lstat`. See [`Syscall::LstatPath`].
    pub fn sys_lstat<'a>(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        path: impl Into<PathArg<'a>>,
    ) -> SysResult<Stat> {
        let r = self.syscall(pid, site, Syscall::LstatPath { path: path.into() })?;
        expect_return!(r, Meta)
    }

    /// Reads a symlink target. See [`Syscall::Readlink`].
    pub fn sys_readlink<'a>(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        path: impl Into<PathArg<'a>>,
    ) -> SysResult<String> {
        let r = self.syscall(pid, site, Syscall::Readlink { path: path.into() })?;
        expect_return!(r, Text)
    }

    /// Lists a directory. See [`Syscall::ListDir`].
    pub fn sys_list_dir<'a>(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        path: impl Into<PathArg<'a>>,
    ) -> SysResult<Vec<String>> {
        let r = self.syscall(pid, site, Syscall::ListDir { path: path.into() })?;
        expect_return!(r, Names)
    }

    /// Executes a program. See [`Syscall::Exec`].
    pub fn sys_exec<'a>(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        program: impl Into<PathArg<'a>>,
        args: Vec<Data>,
        path_list: Option<Data>,
    ) -> SysResult<ExecOutcome> {
        let r = self.syscall(
            pid,
            site,
            Syscall::Exec {
                program: program.into(),
                args,
                path_list,
            },
        )?;
        expect_return!(r, Launched)
    }

    /// Prints to stdout. See [`Syscall::Print`].
    pub fn sys_print(&mut self, pid: Pid, site: impl Into<SiteId>, data: impl Into<Data>) -> SysResult<()> {
        self.syscall(pid, site, Syscall::Print { data: data.into() })?;
        Ok(())
    }

    /// Reads a registry value. See [`Syscall::RegRead`].
    pub fn sys_reg_read(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        key: &str,
        value: &str,
        semantic: InputSemantic,
    ) -> SysResult<Data> {
        let r = self.syscall(pid, site, Syscall::RegRead { key, value, semantic })?;
        expect_return!(r, Payload)
    }

    /// Writes a registry value. See [`Syscall::RegWrite`].
    pub fn sys_reg_write(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        key: &str,
        value: &str,
        data: &str,
    ) -> SysResult<()> {
        self.syscall(pid, site, Syscall::RegWrite { key, value, data })?;
        Ok(())
    }

    /// Connects to a service. See [`Syscall::NetConnect`].
    pub fn sys_net_connect(&mut self, pid: Pid, site: impl Into<SiteId>, host: &str, port: u16) -> SysResult<()> {
        self.syscall(pid, site, Syscall::NetConnect { host, port })?;
        Ok(())
    }

    /// Sends a network message. See [`Syscall::NetSend`].
    pub fn sys_net_send(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        host: &str,
        port: u16,
        data: impl Into<Data>,
    ) -> SysResult<()> {
        self.syscall(
            pid,
            site,
            Syscall::NetSend {
                host,
                port,
                data: data.into(),
            },
        )?;
        Ok(())
    }

    /// Receives a network message. See [`Syscall::NetRecv`].
    pub fn sys_net_recv(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        port: u16,
        semantic: InputSemantic,
    ) -> SysResult<Message> {
        let r = self.syscall(pid, site, Syscall::NetRecv { port, semantic })?;
        expect_return!(r, Delivery)
    }

    /// Resolves a host name. See [`Syscall::DnsResolve`].
    pub fn sys_dns(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        host: &str,
        semantic: InputSemantic,
    ) -> SysResult<Data> {
        let r = self.syscall(pid, site, Syscall::DnsResolve { host, semantic })?;
        expect_return!(r, Payload)
    }

    /// Receives an IPC message. See [`Syscall::ProcRecv`].
    pub fn sys_proc_recv(
        &mut self,
        pid: Pid,
        site: impl Into<SiteId>,
        channel: &str,
        semantic: InputSemantic,
    ) -> SysResult<Message> {
        let r = self.syscall(pid, site, Syscall::ProcRecv { channel, semantic })?;
        expect_return!(r, Delivery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::OracleSet;

    /// A minimal lpr-like world: root-SUID binary, spool dir, invoker.
    fn world() -> Os {
        let mut os = Os::new();
        os.users.add("root", Uid::ROOT, Gid::ROOT, "/root");
        os.users
            .add("student", os.scenario.invoker, os.scenario.invoker_gid, "/home/student");
        os.users
            .add("evil", os.scenario.attacker, os.scenario.attacker_gid, "/home/evil");
        os.fs.mkdir_p("/tmp", Uid::ROOT, Gid::ROOT, Mode::new(0o1777)).unwrap();
        os.fs
            .mkdir_p("/var/spool", Uid::ROOT, Gid::ROOT, Mode::new(0o755))
            .unwrap();
        os.fs
            .mkdir_p(
                "/home/student",
                os.scenario.invoker,
                os.scenario.invoker_gid,
                Mode::new(0o755),
            )
            .unwrap();
        os.fs
            .put_file("/etc/passwd", "root:0:0:", Uid::ROOT, Gid::ROOT, Mode::new(0o644))
            .unwrap();
        os.fs.tag("/etc/passwd", FileTag::Protected).unwrap();
        os.fs
            .put_file("/etc/shadow", "root:HASH:", Uid::ROOT, Gid::ROOT, Mode::new(0o600))
            .unwrap();
        os.fs.tag("/etc/shadow", FileTag::Secret).unwrap();
        os.fs
            .put_file("/usr/bin/lpr", "#!suid", Uid::ROOT, Gid::ROOT, Mode::new(0o4755))
            .unwrap();
        os
    }

    #[test]
    fn spawn_suid_elevates_euid() {
        let mut os = world();
        let pid = os
            .spawn(os.scenario.invoker, Some("/usr/bin/lpr"), vec![], BTreeMap::new(), "/")
            .unwrap();
        let cred = os.procs.get(pid).unwrap().cred;
        assert_eq!(cred.ruid, os.scenario.invoker);
        assert!(cred.euid.is_root());
        assert!(cred.is_elevated());
    }

    #[test]
    fn spawn_without_exec_permission_fails() {
        let mut os = world();
        os.fs.god_chmod("/usr/bin/lpr", Mode::new(0o4700)).unwrap();
        let e = os
            .spawn(os.scenario.invoker, Some("/usr/bin/lpr"), vec![], BTreeMap::new(), "/")
            .unwrap_err();
        assert!(e.is_permission());
    }

    #[test]
    fn clean_suid_spool_write_has_no_violations() {
        let mut os = world();
        let pid = os
            .spawn(os.scenario.invoker, Some("/usr/bin/lpr"), vec![], BTreeMap::new(), "/")
            .unwrap();
        os.sys_write_file(pid, "lpr:create", "/var/spool/job1", "print me", 0o660)
            .unwrap();
        assert!(OracleSet::standard().evaluate_log(&os.audit).is_empty());
    }

    #[test]
    fn symlink_swap_write_is_integrity_violation() {
        let mut os = world();
        // Perturbation: spool file is a symlink to /etc/passwd.
        os.fs.god_symlink("/var/spool/job1", "/etc/passwd").unwrap();
        let pid = os
            .spawn(os.scenario.invoker, Some("/usr/bin/lpr"), vec![], BTreeMap::new(), "/")
            .unwrap();
        os.sys_write_file(pid, "lpr:create", "/var/spool/job1", "evil", 0o660)
            .unwrap();
        let v = OracleSet::standard().evaluate_log(&os.audit);
        assert!(
            v.iter().any(|x| x.kind == crate::policy::ViolationKind::IntegrityWrite),
            "expected integrity violation, got {v:?}"
        );
        // The password file was really clobbered.
        assert_eq!(os.fs.god_read("/etc/passwd").unwrap().text(), "evil");
    }

    #[test]
    fn reading_shadow_and_printing_is_disclosure() {
        let mut os = world();
        let pid = os
            .spawn(os.scenario.invoker, Some("/usr/bin/lpr"), vec![], BTreeMap::new(), "/")
            .unwrap();
        let secret = os.sys_read_file(pid, "app:read", "/etc/shadow").unwrap();
        os.sys_print(pid, "app:print", secret).unwrap();
        let v = OracleSet::standard().evaluate_log(&os.audit);
        assert!(v.iter().any(|x| x.kind == crate::policy::ViolationKind::Disclosure));
    }

    #[test]
    fn exec_via_perturbed_path_is_untrusted_exec() {
        let mut os = world();
        os.fs
            .mkdir_p(
                "/home/evil/bin",
                os.scenario.attacker,
                os.scenario.attacker_gid,
                Mode::new(0o755),
            )
            .unwrap();
        os.fs
            .put_file(
                "/home/evil/bin/tar",
                "#!evil",
                os.scenario.attacker,
                os.scenario.attacker_gid,
                Mode::new(0o755),
            )
            .unwrap();
        os.fs
            .put_file("/usr/bin/tar", "#!tar", Uid::ROOT, Gid::ROOT, Mode::new(0o755))
            .unwrap();
        let pid = os
            .spawn(os.scenario.invoker, Some("/usr/bin/lpr"), vec![], BTreeMap::new(), "/")
            .unwrap();
        // PATH perturbed to put the attacker dir first.
        let path_list = Data::from("/home/evil/bin:/usr/bin");
        let out = os.sys_exec(pid, "app:exec", "tar", vec![], Some(path_list)).unwrap();
        assert_eq!(out.resolved, "/home/evil/bin/tar");
        let v = OracleSet::standard().evaluate_log(&os.audit);
        assert!(v.iter().any(|x| x.kind == crate::policy::ViolationKind::UntrustedExec));
    }

    #[test]
    fn trace_records_sites_and_occurrences() {
        let mut os = world();
        let pid = os
            .spawn(
                os.scenario.invoker,
                Some("/usr/bin/lpr"),
                vec!["a".into(), "b".into()],
                BTreeMap::new(),
                "/",
            )
            .unwrap();
        os.sys_arg(pid, "app:args", 0, InputSemantic::UserFileName).unwrap();
        os.sys_arg(pid, "app:args", 1, InputSemantic::UserFileName).unwrap();
        let sites = os.trace.sites();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].hits, 2);
        assert!(sites[0].has_input());
    }

    #[test]
    fn hook_before_and_after_fire() {
        struct Hook {
            fired_before: shim_sync::sync::Arc<shim_sync::sync::atomic::AtomicUsize>,
        }
        impl Interceptor for Hook {
            fn before(&mut self, _os: &mut Os, _p: &InteractionRef, _c: &Syscall<'_>) {
                self.fired_before
                    .fetch_add(1, shim_sync::sync::atomic::Ordering::SeqCst);
            }
            fn after(&mut self, _os: &mut Os, _p: &InteractionRef, result: &mut SysResult<SysReturn>) {
                if let Ok(SysReturn::Payload(d)) = result {
                    d.push_str("-mutated");
                }
            }
        }
        let mut os = world();
        let counter = shim_sync::sync::Arc::new(shim_sync::sync::atomic::AtomicUsize::new(0));
        os.set_interceptor(Box::new(Hook {
            fired_before: counter.clone(),
        }));
        let pid = os
            .spawn(
                os.scenario.invoker,
                None,
                vec![],
                [("USER".to_string(), "student".into())]
                    .into_iter()
                    .collect::<BTreeMap<_, _>>(),
                "/",
            )
            .unwrap();
        let v = os
            .sys_getenv(pid, "app:getenv", "USER", InputSemantic::EnvValue)
            .unwrap();
        assert_eq!(v.text(), "student-mutated");
        assert_eq!(counter.load(shim_sync::sync::atomic::Ordering::SeqCst), 1);
        assert!(os.is_hooked());
    }

    #[test]
    fn clone_drops_interceptor_but_keeps_world() {
        struct Nop;
        impl Interceptor for Nop {
            fn before(&mut self, _: &mut Os, _: &InteractionRef, _: &Syscall<'_>) {}
            fn after(&mut self, _: &mut Os, _: &InteractionRef, _: &mut SysResult<SysReturn>) {}
        }
        let mut os = world();
        os.set_interceptor(Box::new(Nop));
        let copy = os.clone();
        assert!(!copy.is_hooked());
        assert_eq!(copy.fs.inode_count(), os.fs.inode_count());
    }

    #[test]
    fn clone_is_cow_snapshot_and_deep_clone_materializes() {
        let os = world();
        let snap = os.clone();
        assert_eq!(snap.fs.shared_inodes_with(&os.fs), os.fs.inode_count());
        assert!(snap.net.shares_storage_with(&os.net));
        assert!(snap.registry.shares_storage_with(&os.registry));
        let deep = os.deep_clone();
        assert_eq!(deep.fs.shared_inodes_with(&os.fs), 0);
        assert!(!deep.net.shares_storage_with(&os.net));
        assert!(!deep.registry.shares_storage_with(&os.registry));
        assert_eq!(deep.fs, os.fs);
        assert!(snap.same_substrate(&os) && deep.same_substrate(&os));
        let mut touched = os.clone();
        touched.net.dns_available = !touched.net.dns_available;
        assert!(!touched.same_substrate(&os));
    }

    #[test]
    fn relative_paths_resolve_against_cwd() {
        let mut os = world();
        let pid = os
            .spawn(os.scenario.invoker, None, vec![], BTreeMap::new(), "/home/student")
            .unwrap();
        os.sys_write_file(pid, "app:create", "notes.txt", "hi", 0o644).unwrap();
        assert!(os.fs.exists("/home/student/notes.txt"));
        os.sys_chdir(pid, "app:chdir", "/tmp").unwrap();
        os.sys_write_file(pid, "app:create2", "t.txt", "x", 0o644).unwrap();
        assert!(os.fs.exists("/tmp/t.txt"));
    }

    #[test]
    fn registry_read_from_unprotected_key_is_tainted() {
        let mut os = world();
        os.registry.ensure_key(
            "HKLM/Software/Fonts",
            crate::registry::RegAcl {
                owner: Uid::ROOT,
                world_writable: true,
            },
        );
        os.registry
            .god_set_value("HKLM/Software/Fonts", "F0", "/winnt/arial.fon");
        os.users.add("admin", Uid::ROOT, Gid::ROOT, "/root");
        let pid = os.spawn(Uid::ROOT, None, vec![], BTreeMap::new(), "/").unwrap();
        let v = os
            .sys_reg_read(
                pid,
                "mod:regread",
                "HKLM/Software/Fonts",
                "F0",
                InputSemantic::FsFileName,
            )
            .unwrap();
        assert!(v.has_untrusted());
    }

    #[test]
    fn spoofed_message_carries_label() {
        let mut os = world();
        os.net
            .push_message(79, Message::genuine("trusted.cs.example.edu", "req"));
        os.net.spoof_next(79, "evil.example.net");
        let pid = os
            .spawn(os.scenario.invoker, None, vec![], BTreeMap::new(), "/")
            .unwrap();
        let m = os.sys_net_recv(pid, "srv:recv", 79, InputSemantic::NetPacket).unwrap();
        assert!(m.data.has_spoofed());
    }

    #[test]
    fn overflow_audit_event_from_mem_copy() {
        let mut os = world();
        let pid = os
            .spawn(os.scenario.invoker, None, vec![], BTreeMap::new(), "/")
            .unwrap();
        let mut buf = FixedBuf::new("line", 4);
        let out = os.mem_copy(pid, &mut buf, &Data::from("AAAAAAAA"), CopyDiscipline::Unchecked);
        assert!(matches!(out, CopyOutcome::Overflowed { .. }));
        let v = OracleSet::standard().evaluate_log(&os.audit);
        assert!(v
            .iter()
            .any(|x| x.kind == crate::policy::ViolationKind::MemoryCorruption));
    }
}
