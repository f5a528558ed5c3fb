//! Processes: credentials, environment variables, working directory,
//! captured output, and run budgets.
//!
//! The process model is single-program-per-run: a campaign spawns the
//! application under test as one process whose credentials follow the SUID
//! semantics of the program file it was spawned from. Helper programs the
//! application `exec`s are *recorded* (for the policy oracle) rather than
//! scheduled — the interesting security decisions all happen before or at
//! the exec boundary.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::cred::Credentials;
use crate::data::{Data, LabelSet};
use crate::error::SysResult;
use crate::fs::InodeId;
use crate::intern::PathSym;
use crate::syserr;
use shim_sync::sync::Arc;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Pid(pub u32);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// Default syscall budget per process; generous, exists only so that a
/// perturbed application stuck in a retry loop cannot wedge a campaign.
pub const DEFAULT_SYSCALL_BUDGET: usize = 100_000;

/// A process.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Process {
    /// Its pid.
    pub pid: Pid,
    /// Real/effective identities.
    pub cred: Credentials,
    /// Current working directory: the physical path it was entered by.
    pub cwd: PathSym,
    /// Physical inode of the current working directory.
    pub cwd_inode: InodeId,
    /// Taint labels carried by the path the process last `chdir`ed through;
    /// relative-path operations inherit them (the write lands wherever the
    /// tainted directory name pointed).
    pub cwd_taint: LabelSet,
    /// File-creation mask.
    pub umask: u16,
    /// Environment variables, shared with the setup that spawned the
    /// process; a read shares a value's text.
    pub env: Arc<BTreeMap<String, Arc<str>>>,
    /// Argument vector (argv[1..]; the program name is implicit), shared
    /// with the setup that spawned the process; a read shares an
    /// argument's text.
    pub args: Arc<[Arc<str>]>,
    /// Captured standard output (one entry per `Print`).
    pub stdout: Vec<Data>,
    /// Exit status once the program finished.
    pub exit: Option<i32>,
    /// Remaining syscall budget.
    pub budget: usize,
}

impl Process {
    /// The captured stdout as one string.
    pub fn stdout_text(&self) -> String {
        self.stdout.iter().map(Data::as_text).collect()
    }

    /// Decrements the budget, failing with `EAGAIN` at exhaustion.
    pub fn spend_budget(&mut self) -> SysResult<()> {
        if self.budget == 0 {
            return Err(syserr!(Eagain, "syscall budget exhausted for {}", self.pid));
        }
        self.budget -= 1;
        Ok(())
    }
}

/// The process table.
///
/// A run spawns one process, which the table holds inline: spawning it
/// allocates nothing. Later processes go to a list in pid order. The
/// serialized form is the `procs` map from pid to process and the `next`
/// pid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessTable {
    /// The first process spawned.
    first: Option<Process>,
    /// Every later process, in pid order.
    rest: Vec<Process>,
    next: u32,
}

impl ProcessTable {
    /// An empty table.
    pub fn new() -> Self {
        ProcessTable {
            next: 100,
            ..ProcessTable::default()
        }
    }

    /// Inserts a new process built by the caller; assigns the pid.
    pub fn insert(
        &mut self,
        cred: Credentials,
        cwd: PathSym,
        cwd_inode: InodeId,
        umask: u16,
        env: impl Into<Arc<BTreeMap<String, Arc<str>>>>,
        args: impl Into<Arc<[Arc<str>]>>,
    ) -> Pid {
        let pid = Pid(self.next);
        self.next += 1;
        let process = Process {
            pid,
            cred,
            cwd,
            cwd_inode,
            cwd_taint: LabelSet::new(),
            umask,
            env: env.into(),
            args: args.into(),
            stdout: Vec::new(),
            exit: None,
            budget: DEFAULT_SYSCALL_BUDGET,
        };
        if self.first.is_none() {
            self.first = Some(process);
        } else {
            self.rest.push(process);
        }
        pid
    }

    /// Borrows a process.
    pub fn get(&self, pid: Pid) -> SysResult<&Process> {
        self.iter()
            .find(|p| p.pid == pid)
            .ok_or_else(|| syserr!(Ebadf, "no such process {pid}"))
    }

    /// Mutably borrows a process.
    pub fn get_mut(&mut self, pid: Pid) -> SysResult<&mut Process> {
        self.first
            .iter_mut()
            .chain(&mut self.rest)
            .find(|p| p.pid == pid)
            .ok_or_else(|| syserr!(Ebadf, "no such process {pid}"))
    }

    /// Number of processes ever spawned in this table.
    pub fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    /// True when no process exists.
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// Iterates processes in pid order.
    pub fn iter(&self) -> impl Iterator<Item = &Process> {
        self.first.iter().chain(&self.rest)
    }
}

impl Serialize for ProcessTable {
    fn ser(&self) -> serde::Value {
        let procs = self
            .iter()
            .map(|p| serde::Value::Seq(vec![p.pid.0.ser(), p.ser()]))
            .collect();
        serde::Value::Map(vec![
            ("procs".to_string(), serde::Value::Seq(procs)),
            ("next".to_string(), self.next.ser()),
        ])
    }
}

impl Deserialize for ProcessTable {
    fn de(v: &serde::Value) -> Result<Self, serde::DeError> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::DeError::expected("map", "ProcessTable"))?;
        let procs: BTreeMap<u32, Process> = Deserialize::de(serde::field(map, "procs", "ProcessTable")?)?;
        let mut table = ProcessTable {
            next: Deserialize::de(serde::field(map, "next", "ProcessTable")?)?,
            ..ProcessTable::default()
        };
        let mut procs = procs.into_values();
        table.first = procs.next();
        table.rest = procs.collect();
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::{Gid, Uid};

    #[test]
    fn insert_assigns_increasing_pids() {
        let mut t = ProcessTable::new();
        let a = t.insert(
            Credentials::root(),
            "/".into(),
            InodeId(1),
            0o22,
            BTreeMap::new(),
            vec![],
        );
        let b = t.insert(
            Credentials::user(Uid(5), Gid(5)),
            "/".into(),
            InodeId(1),
            0o22,
            BTreeMap::new(),
            vec![],
        );
        assert!(b.0 > a.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(b).unwrap().cred.euid, Uid(5));
        assert_eq!(t.iter().map(|p| p.pid).collect::<Vec<_>>(), [a, b]);
    }

    #[test]
    fn serialized_form_is_the_pid_map() {
        let mut t = ProcessTable::new();
        for _ in 0..3 {
            t.insert(
                Credentials::root(),
                "/".into(),
                InodeId(1),
                0o22,
                BTreeMap::new(),
                vec![],
            );
        }
        // The derived form of the map-backed table this one replaced.
        #[derive(Serialize)]
        struct MapTable {
            procs: BTreeMap<u32, Process>,
            next: u32,
        }
        let reference = MapTable {
            procs: t.iter().map(|p| (p.pid.0, p.clone())).collect(),
            next: 103,
        };
        assert_eq!(
            serde_json::to_string(&t).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
        let back: ProcessTable = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn budget_exhaustion_is_eagain() {
        let mut t = ProcessTable::new();
        let pid = t.insert(Credentials::root(), "/".into(), InodeId(1), 0, BTreeMap::new(), vec![]);
        t.get_mut(pid).unwrap().budget = 1;
        assert!(t.get_mut(pid).unwrap().spend_budget().is_ok());
        let e = t.get_mut(pid).unwrap().spend_budget().unwrap_err();
        assert_eq!(e.errno, crate::error::Errno::Eagain);
    }

    #[test]
    fn stdout_text_concatenates() {
        let mut t = ProcessTable::new();
        let pid = t.insert(Credentials::root(), "/".into(), InodeId(1), 0, BTreeMap::new(), vec![]);
        let p = t.get_mut(pid).unwrap();
        p.stdout.push(Data::from("a\n"));
        p.stdout.push(Data::from("b\n"));
        assert_eq!(p.stdout_text(), "a\nb\n");
    }

    #[test]
    fn missing_pid_is_error() {
        let t = ProcessTable::new();
        assert!(t.get(Pid(42)).is_err());
    }
}
