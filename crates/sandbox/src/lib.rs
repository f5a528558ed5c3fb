//! # epa-sandbox — the simulated operating-system substrate
//!
//! An in-memory UNIX-like (plus NT-registry) environment purpose-built for
//! **environment fault injection**, the security-testing technique of
//! Du & Mathur, *Testing for Software Vulnerability Using Environment
//! Perturbation* (DSN 2000).
//!
//! The paper's methodology perturbs the *environment* of a program — file
//! attributes, `PATH`, registry keys, network messages — at the points where
//! the program interacts with it, and asks a security-policy oracle whether
//! the program tolerated the perturbation. This crate supplies everything
//! that sentence needs:
//!
//! * [`fs`] — a virtual file system with permissions, ownership, symlinks,
//!   sticky bits, and physical `..`/symlink resolution;
//! * [`cred`]/[`process`] — users and SUID process semantics;
//! * [`net`] — messages with authenticity, protocol scripts, DNS, services;
//! * [`registry`] — an NT-style registry with per-key ACLs;
//! * [`syscall`]/[`os`] — the traced, hookable interaction layer;
//! * [`audit`]/[`policy`] — the executable security-policy oracle;
//! * [`buffer`] — the memory-safety (buffer-overflow) model;
//! * [`app`] — the trait model applications implement.
//!
//! # Quick example
//!
//! ```
//! use std::collections::BTreeMap;
//! use epa_sandbox::cred::{Gid, Uid};
//! use epa_sandbox::mode::Mode;
//! use epa_sandbox::os::Os;
//! use epa_sandbox::policy::OracleSet;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut os = Os::new();
//! os.users.add("student", os.scenario.invoker, os.scenario.invoker_gid, "/home/student");
//! os.fs.mkdir_p("/var/spool", Uid::ROOT, Gid::ROOT, Mode::new(0o755))?;
//! os.fs.put_file("/usr/bin/lpr", "", Uid::ROOT, Gid::ROOT, Mode::new(0o4755))?;
//!
//! // Subscribe the detector pipeline, then spawn a SUID-root process for
//! // an unprivileged invoker and write a spool file.
//! os.audit.attach_oracle(OracleSet::standard());
//! let pid = os.spawn(os.scenario.invoker, Some("/usr/bin/lpr"), vec![], BTreeMap::new(), "/")?;
//! os.sys_write_file(pid, "lpr:create", "/var/spool/job", "data", 0o660)?;
//!
//! // The oracle finds nothing wrong with the unperturbed run.
//! let verdicts = os.audit.detach_oracle().expect("attached above").finish();
//! assert!(verdicts.is_empty());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod app;
pub mod audit;
pub mod buffer;
pub mod cred;
pub mod data;
pub mod error;
pub mod fs;
pub mod intern;
pub mod mode;
pub mod net;
pub mod os;
pub mod path;
pub mod policy;
pub mod process;
pub mod registry;
pub mod syscall;
pub mod trace;

pub use app::Application;
pub use cred::{Credentials, Gid, Uid};
pub use data::{Data, Label, LabelSet, PathArg};
pub use error::{Errno, SysError, SysResult};
pub use intern::{PathSym, TextSym};
pub use mode::{Access, Mode};
pub use os::{Os, ScenarioMeta};
pub use policy::{Detector, Evidence, InvariantSpec, OracleSet, Verdict, Violation, ViolationKind};
pub use process::Pid;
pub use syscall::{InteractionRef, Interceptor, SysReturn, Syscall};
pub use trace::{InputSemantic, ObjectRef, OpKind, SiteId};
