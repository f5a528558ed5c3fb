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
    /// process.
    pub env: Arc<BTreeMap<String, String>>,
    /// Argument vector (argv[1..]; the program name is implicit), shared
    /// with the setup that spawned the process.
    pub args: Arc<[String]>,
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
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessTable {
    procs: BTreeMap<u32, Process>,
    next: u32,
}

impl ProcessTable {
    /// An empty table.
    pub fn new() -> Self {
        ProcessTable {
            procs: BTreeMap::new(),
            next: 100,
        }
    }

    /// Inserts a new process built by the caller; assigns the pid.
    pub fn insert(
        &mut self,
        cred: Credentials,
        cwd: PathSym,
        cwd_inode: InodeId,
        umask: u16,
        env: impl Into<Arc<BTreeMap<String, String>>>,
        args: impl Into<Arc<[String]>>,
    ) -> Pid {
        let pid = Pid(self.next);
        self.next += 1;
        self.procs.insert(
            pid.0,
            Process {
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
            },
        );
        pid
    }

    /// Borrows a process.
    pub fn get(&self, pid: Pid) -> SysResult<&Process> {
        self.procs
            .get(&pid.0)
            .ok_or_else(|| syserr!(Ebadf, "no such process {pid}"))
    }

    /// Mutably borrows a process.
    pub fn get_mut(&mut self, pid: Pid) -> SysResult<&mut Process> {
        self.procs
            .get_mut(&pid.0)
            .ok_or_else(|| syserr!(Ebadf, "no such process {pid}"))
    }

    /// Number of processes ever spawned in this table.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True when no process exists.
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Iterates processes in pid order.
    pub fn iter(&self) -> impl Iterator<Item = &Process> {
        self.procs.values()
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
