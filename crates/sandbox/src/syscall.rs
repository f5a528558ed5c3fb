//! The syscall vocabulary: what applications may ask of their environment,
//! and the hook interface the fault injector uses to perturb those asks.
//!
//! Each [`Syscall`] names one environment–application interaction. The
//! dispatcher in [`crate::os`] stamps every call into the execution trace
//! and surrounds it with the [`Interceptor`] hook: `before` runs with the
//! call *about to happen* (where **direct** environment faults are applied,
//! paper §3.3 step 6), `after` runs with the produced result (where
//! **indirect** faults mutate the value the internal entity receives).

use serde::{Deserialize, Serialize};

use crate::cred::Uid;
use crate::data::{Data, LabelSet, PathArg};
use crate::error::SysResult;
use crate::fs::Stat;
use crate::intern::PathSym;
use crate::net::Message;
use crate::os::Os;
use crate::trace::{InputSemantic, ObjectRef, OpKind, SiteId};

/// A request an application makes of its environment.
///
/// A call borrows its names, keys and path text from the application for
/// the length of the dispatch, so issuing one copies no argument; only the
/// payloads it hands over (`Data` to write, print or send) are owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Syscall<'a> {
    /// Read an environment variable (fails `ENOENT` when unset).
    Getenv {
        /// Variable name.
        name: &'a str,
        /// Semantics of the value.
        semantic: InputSemantic,
    },
    /// Read argv\[index\] (fails `EINVAL` when absent).
    ReadArg {
        /// Zero-based argument index.
        index: usize,
        /// Semantics of the argument.
        semantic: InputSemantic,
    },
    /// Bind an already-parsed input value to an internal entity. A no-op
    /// passthrough that exists so indirect faults can strike *after* the
    /// application extracts a field from raw input.
    InputBind {
        /// Internal-entity name, for diagnostics.
        entity: &'a str,
        /// Semantics of the value.
        semantic: InputSemantic,
        /// The value being bound.
        value: Data,
    },
    /// Read a whole file.
    ReadFile {
        /// The file.
        path: PathArg<'a>,
    },
    /// `creat`: create-or-truncate, then write `data`.
    WriteFile {
        /// The file.
        path: PathArg<'a>,
        /// Content to write.
        data: Data,
        /// Creation mode bits.
        mode: u16,
    },
    /// `open(O_CREAT|O_EXCL)`: exclusive creation of an empty file.
    CreateExcl {
        /// The file.
        path: PathArg<'a>,
        /// Creation mode bits.
        mode: u16,
    },
    /// Append to a file, creating it if missing.
    AppendFile {
        /// The file.
        path: PathArg<'a>,
        /// Content to append.
        data: Data,
        /// Creation mode bits if the file must be created.
        mode: u16,
    },
    /// Remove a file.
    Unlink {
        /// The file.
        path: PathArg<'a>,
    },
    /// Create a directory.
    Mkdir {
        /// The directory.
        path: PathArg<'a>,
        /// Creation mode bits.
        mode: u16,
    },
    /// Change the working directory.
    Chdir {
        /// The directory.
        path: PathArg<'a>,
    },
    /// `stat` (follows symlinks).
    StatPath {
        /// The path.
        path: PathArg<'a>,
    },
    /// `lstat` (does not follow a final symlink).
    LstatPath {
        /// The path.
        path: PathArg<'a>,
    },
    /// Create a symbolic link.
    SymlinkCreate {
        /// Link target text.
        target: &'a str,
        /// Where the link is created.
        link: PathArg<'a>,
    },
    /// Read a symlink's target.
    Readlink {
        /// The link.
        path: PathArg<'a>,
    },
    /// Rename a file.
    Rename {
        /// Source path.
        from: PathArg<'a>,
        /// Destination path.
        to: PathArg<'a>,
    },
    /// Change permission bits.
    Chmod {
        /// The path.
        path: PathArg<'a>,
        /// New mode bits.
        mode: u16,
    },
    /// Change ownership (root only).
    Chown {
        /// The path.
        path: PathArg<'a>,
        /// New owner.
        owner: Uid,
    },
    /// List a directory.
    ListDir {
        /// The directory.
        path: PathArg<'a>,
    },
    /// Execute a program. With a bare program name, `path_list` (usually
    /// the value of `PATH`) is searched, carrying its taint into the
    /// resolution.
    Exec {
        /// Program path or bare name.
        program: PathArg<'a>,
        /// Argument vector.
        args: Vec<Data>,
        /// Search path for bare names.
        path_list: Option<Data>,
    },
    /// Write to standard output.
    Print {
        /// The data (labels ride along to the sink).
        data: Data,
    },
    /// Read a registry value.
    RegRead {
        /// Key path (`/`-separated).
        key: &'a str,
        /// Value name.
        value: &'a str,
        /// Semantics of the stored value.
        semantic: InputSemantic,
    },
    /// Write a registry value.
    RegWrite {
        /// Key path.
        key: &'a str,
        /// Value name.
        value: &'a str,
        /// New data.
        data: &'a str,
    },
    /// Delete a registry value.
    RegDelete {
        /// Key path.
        key: &'a str,
        /// Value name.
        value: &'a str,
    },
    /// Connect to a network service.
    NetConnect {
        /// Remote host.
        host: &'a str,
        /// Remote port.
        port: u16,
    },
    /// Send a network message.
    NetSend {
        /// Destination host.
        host: &'a str,
        /// Destination port.
        port: u16,
        /// Payload.
        data: Data,
    },
    /// Receive the next message on a local port.
    NetRecv {
        /// Local port.
        port: u16,
        /// Semantics of the payload.
        semantic: InputSemantic,
    },
    /// Resolve a host name.
    DnsResolve {
        /// The name.
        host: &'a str,
        /// Semantics of the reply.
        semantic: InputSemantic,
    },
    /// Receive the next IPC message on a named channel.
    ProcRecv {
        /// Channel name.
        channel: &'a str,
        /// Semantics of the payload.
        semantic: InputSemantic,
    },
}

impl Syscall<'_> {
    /// The operation kind for tracing.
    pub fn op(&self) -> OpKind {
        match self {
            Syscall::Getenv { .. } => OpKind::Getenv,
            Syscall::ReadArg { .. } => OpKind::ReadArg,
            Syscall::InputBind { .. } => OpKind::InputBind,
            Syscall::ReadFile { .. } => OpKind::ReadFile,
            Syscall::WriteFile { .. } => OpKind::CreateFile,
            Syscall::CreateExcl { .. } => OpKind::CreateExcl,
            Syscall::AppendFile { .. } => OpKind::WriteFile,
            Syscall::Unlink { .. } => OpKind::Delete,
            Syscall::Mkdir { .. } => OpKind::Mkdir,
            Syscall::Chdir { .. } => OpKind::Chdir,
            Syscall::StatPath { .. } | Syscall::LstatPath { .. } => OpKind::Stat,
            Syscall::SymlinkCreate { .. } => OpKind::Symlink,
            Syscall::Readlink { .. } => OpKind::Readlink,
            Syscall::Rename { .. } => OpKind::Rename,
            Syscall::Chmod { .. } => OpKind::Chmod,
            Syscall::Chown { .. } => OpKind::Chown,
            Syscall::ListDir { .. } => OpKind::ListDir,
            Syscall::Exec { .. } => OpKind::Exec,
            Syscall::Print { .. } => OpKind::Print,
            Syscall::RegRead { .. } => OpKind::RegRead,
            Syscall::RegWrite { .. } => OpKind::RegWrite,
            Syscall::RegDelete { .. } => OpKind::RegDelete,
            Syscall::NetConnect { .. } => OpKind::NetConnect,
            Syscall::NetSend { .. } => OpKind::NetSend,
            Syscall::NetRecv { .. } => OpKind::NetRecv,
            Syscall::DnsResolve { .. } => OpKind::DnsResolve,
            Syscall::ProcRecv { .. } => OpKind::ProcRecv,
        }
    }

    /// The path of the file object the call touches, as the application
    /// named it (`None` for calls on other objects).
    pub(crate) fn file_path(&self) -> Option<&str> {
        match self {
            Syscall::ReadFile { path }
            | Syscall::WriteFile { path, .. }
            | Syscall::CreateExcl { path, .. }
            | Syscall::AppendFile { path, .. }
            | Syscall::Unlink { path }
            | Syscall::Mkdir { path, .. }
            | Syscall::Chdir { path }
            | Syscall::StatPath { path }
            | Syscall::LstatPath { path }
            | Syscall::Readlink { path }
            | Syscall::Chmod { path, .. }
            | Syscall::Chown { path, .. }
            | Syscall::ListDir { path }
            | Syscall::SymlinkCreate { link: path, .. }
            | Syscall::Rename { from: path, .. }
            | Syscall::Exec { program: path, .. } => Some(&*path.path),
            _ => None,
        }
    }

    /// The environment object the call touches, for tracing.
    pub fn object(&self) -> ObjectRef {
        match self {
            Syscall::Getenv { name, .. } => ObjectRef::EnvVar((*name).to_string()),
            Syscall::ReadArg { .. } => ObjectRef::Args,
            Syscall::InputBind { entity, .. } => ObjectRef::Value((*entity).to_string()),
            Syscall::Print { .. } => ObjectRef::Terminal,
            Syscall::RegRead { key, value, .. }
            | Syscall::RegWrite { key, value, .. }
            | Syscall::RegDelete { key, value } => ObjectRef::RegValue((*key).to_string(), (*value).to_string()),
            Syscall::NetConnect { host, port } | Syscall::NetSend { host, port, .. } => {
                ObjectRef::Service((*host).to_string(), *port)
            }
            Syscall::NetRecv { port, .. } => ObjectRef::NetPort(*port),
            Syscall::DnsResolve { host, .. } => ObjectRef::Host((*host).to_string()),
            Syscall::ProcRecv { channel, .. } => ObjectRef::IpcChannel((*channel).to_string()),
            _ => ObjectRef::File(self.file_path().expect("every other call touches a file").to_string()),
        }
    }

    /// The input semantics the call declares, if any.
    pub fn semantic(&self) -> Option<InputSemantic> {
        match self {
            Syscall::Getenv { semantic, .. }
            | Syscall::ReadArg { semantic, .. }
            | Syscall::InputBind { semantic, .. }
            | Syscall::RegRead { semantic, .. }
            | Syscall::NetRecv { semantic, .. }
            | Syscall::DnsResolve { semantic, .. }
            | Syscall::ProcRecv { semantic, .. } => Some(*semantic),
            _ => None,
        }
    }
}

/// Outcome of an executed program resolution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecOutcome {
    /// Physical path of the resolved binary.
    pub resolved: PathSym,
    /// Owner of the binary.
    pub owner: Uid,
}

/// The value a syscall produces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SysReturn {
    /// No value.
    Unit,
    /// A (labeled) data payload.
    Payload(Data),
    /// Plain text (e.g. a symlink target).
    Text(String),
    /// File metadata.
    Meta(Stat),
    /// Directory entry names.
    Names(Vec<String>),
    /// A received message.
    Delivery(Message),
    /// An exec resolution.
    Launched(ExecOutcome),
}

/// One interaction point as seen by the hook: the static site plus dynamic
/// position in the trace. A hooked run lists no trace event, so the
/// environment object is not built here; a hook that needs it asks the
/// call ([`Syscall::object`], with file paths as the application named
/// them).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InteractionRef {
    /// The process issuing the call.
    pub pid: crate::process::Pid,
    /// The static site.
    pub site: SiteId,
    /// Global sequence number.
    pub seq: usize,
    /// Occurrence index of this site (0-based).
    pub occurrence: usize,
    /// Operation kind.
    pub op: OpKind,
    /// Input semantics, if any.
    pub semantic: Option<InputSemantic>,
}

/// The fault-injection hook. Installed on an [`Os`] before a run; the
/// dispatcher calls `before` ahead of executing each syscall and `after`
/// with its result. Implementations mutate the environment (`before`, for
/// direct faults) or the result (`after`, for indirect faults).
///
/// While a hook is installed the run's [`crate::trace::Trace`] only counts
/// interactions: per-site occurrences and the sequence counter, which is
/// all an [`InteractionRef`] carries. No trace event is listed, so a hooked
/// run's `os.trace.events()` is empty; its `hit_count`s, and the `seq` and
/// `occurrence` of every interaction, equal an unhooked run's.
pub trait Interceptor: Send + Sync {
    /// Called before the syscall executes. `call` is read-only: direct
    /// faults perturb the *environment*, never the application's request.
    fn before(&mut self, os: &mut Os, point: &InteractionRef, call: &Syscall<'_>);

    /// Called after the syscall executes, with the mutable result.
    fn after(&mut self, os: &mut Os, point: &InteractionRef, result: &mut SysResult<SysReturn>);
}

/// Collects the union of labels across an argument vector.
pub fn arg_labels(args: &[Data]) -> LabelSet {
    let mut out = LabelSet::new();
    for a in args {
        out.union_with(a.labels());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Label;

    #[test]
    fn op_object_semantic_are_consistent() {
        let c = Syscall::Getenv {
            name: "PATH",
            semantic: InputSemantic::EnvPathList,
        };
        assert_eq!(c.op(), OpKind::Getenv);
        assert_eq!(c.object(), ObjectRef::EnvVar("PATH".into()));
        assert_eq!(c.semantic(), Some(InputSemantic::EnvPathList));

        let w = Syscall::WriteFile {
            path: "/tmp/x".into(),
            data: Data::from("d"),
            mode: 0o644,
        };
        assert_eq!(w.op(), OpKind::CreateFile);
        assert_eq!(w.object(), ObjectRef::File("/tmp/x".into()));
        assert_eq!(w.semantic(), None);
    }

    #[test]
    fn input_ops_declare_semantics() {
        let calls: Vec<Syscall<'_>> = vec![
            Syscall::ReadArg {
                index: 0,
                semantic: InputSemantic::UserFileName,
            },
            Syscall::RegRead {
                key: "K",
                value: "v",
                semantic: InputSemantic::FsFileName,
            },
            Syscall::NetRecv {
                port: 79,
                semantic: InputSemantic::NetPacket,
            },
            Syscall::DnsResolve {
                host: "h",
                semantic: InputSemantic::NetDnsReply,
            },
            Syscall::ProcRecv {
                channel: "c",
                semantic: InputSemantic::ProcMessage,
            },
        ];
        for c in calls {
            assert!(c.semantic().is_some(), "{c:?} should declare a semantic");
            assert!(c.op().is_input(), "{c:?} should be an input op");
        }
    }

    #[test]
    fn arg_label_union() {
        let a = Data::from("x");
        let b = Data::from("y").with_label(Label::Untrusted { source: "s".into() });
        let labels = arg_labels(&[a, b]);
        assert_eq!(labels.len(), 1);
    }
}
