//! The audit-event stream: everything the policy oracle needs to judge a run.
//!
//! Every security-relevant syscall effect appends an [`AuditEvent`]. Events
//! are *self-contained*: they capture, at emission time, the facts the
//! policy rules need (could the invoker have written this file? was the file
//! protected? what taint rode on the path?), so [`crate::policy`] can
//! evaluate a run as a pure function over the log. This mirrors the paper's
//! step 8 — "detect if security policy is violated" — as an executable
//! oracle rather than a human judgment.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cred::{Credentials, Uid};
use crate::data::LabelSet;
use crate::fs::FileTag;
use crate::intern::PathSym;
use shim_sync::sync::Arc;

/// Where emitted data became observable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SinkKind {
    /// The invoking user's terminal.
    Stdout,
    /// A file the invoker can read.
    File {
        /// Physical path of the file.
        path: String,
    },
    /// A network peer.
    Network {
        /// Destination description (`host:port`).
        to: String,
    },
}

impl fmt::Display for SinkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinkKind::Stdout => f.write_str("stdout"),
            SinkKind::File { path } => write!(f, "file:{path}"),
            SinkKind::Network { to } => write!(f, "net:{to}"),
        }
    }
}

/// Facts captured when a file is written or created.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteInfo {
    /// Physical path written (symlinks already expanded). An interned
    /// symbol: copying the event copies a pointer, and `Display` renders
    /// lazily — no owned `String` per event.
    pub path: PathSym,
    /// Whether the (post-symlink) target existed before the write.
    pub existed_before: bool,
    /// Owner of the pre-existing target, if any.
    pub owner_before: Option<Uid>,
    /// Could the *invoker alone* have written the target (if it existed) or
    /// created in its parent (if not)?
    pub invoker_could_write: bool,
    /// Tags on the pre-existing target.
    pub target_tags: BTreeSet<FileTag>,
    /// Tags on the parent directory.
    pub parent_tags: BTreeSet<FileTag>,
    /// Could the invoker alone have written into the parent directory?
    pub invoker_could_write_parent: bool,
    /// Can the invoker read the file after the write (for disclosure-to-file)?
    pub invoker_could_read_after: bool,
    /// Whether the target was created earlier in this same run (a program
    /// appending to its own temp file is not overwriting foreign state).
    pub created_by_self: bool,
    /// Taint carried by the path argument.
    pub path_taint: LabelSet,
    /// Labels on the written data.
    pub data_labels: LabelSet,
    /// Credentials of the writing process.
    pub by: Credentials,
}

/// One security-relevant effect.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditEvent {
    /// A file's content was read.
    FileRead {
        /// Physical path (interned).
        path: PathSym,
        /// Tags on the file.
        tags: BTreeSet<FileTag>,
        /// Taint carried by the path argument.
        path_taint: LabelSet,
        /// Reader credentials.
        by: Credentials,
    },
    /// A file was written, created, truncated or appended.
    FileWrite(WriteInfo),
    /// A directory entry was removed.
    FileDelete {
        /// Physical path (interned).
        path: PathSym,
        /// Owner of the removed object.
        owner: Uid,
        /// Tags on the removed object.
        tags: BTreeSet<FileTag>,
        /// Taint carried by the path argument.
        path_taint: LabelSet,
        /// Could the invoker alone have removed it?
        invoker_could_delete: bool,
        /// Deleter credentials.
        by: Credentials,
    },
    /// The process changed its working directory.
    Chdir {
        /// Physical path of the new cwd (interned).
        path: PathSym,
        /// Owner of the directory.
        owner: Uid,
        /// Taint carried by the path argument.
        path_taint: LabelSet,
        /// Credentials.
        by: Credentials,
    },
    /// A program was executed.
    Exec {
        /// The program as named by the application.
        requested: String,
        /// The resolved binary's physical path (interned).
        resolved: PathSym,
        /// Owner of the resolved binary.
        owner: Uid,
        /// Whether the binary is world-writable.
        world_writable: bool,
        /// Whether the directory the binary was found in is controllable by
        /// someone other than root/the invoker.
        dir_untrusted: bool,
        /// Taint on the program path (e.g. from `PATH` or a registry key).
        path_taint: LabelSet,
        /// Labels on the argument vector's data.
        arg_labels: LabelSet,
        /// Credentials at exec time.
        by: Credentials,
    },
    /// Labeled data reached an observable sink.
    Emit {
        /// The sink.
        sink: SinkKind,
        /// Labels on the emitted data.
        labels: LabelSet,
        /// Credentials of the emitting process.
        by: Credentials,
    },
    /// An unchecked copy overflowed a fixed-size buffer: the proxy for
    /// memory corruption / arbitrary code execution.
    MemoryCorruption {
        /// Name of the overflowed buffer.
        buffer: String,
        /// Buffer capacity.
        capacity: usize,
        /// Bytes the copy attempted to place.
        attempted: usize,
        /// Credentials of the corrupted process.
        by: Credentials,
    },
    /// A registry value was written.
    RegistryWrite {
        /// Key path.
        key: String,
        /// Credentials.
        by: Credentials,
    },
    /// A registry key/value was deleted.
    RegistryDelete {
        /// Key path.
        key: String,
        /// Taint carried on the key name.
        path_taint: LabelSet,
        /// Credentials.
        by: Credentials,
    },
    /// A network message was received.
    NetRecv {
        /// Local port.
        port: u16,
        /// Whether claimed and actual origin matched.
        authentic: bool,
        /// Actual origin, shared with the message.
        actual_from: Arc<str>,
    },
    /// An application- or world-declared invariant check.
    Custom {
        /// Rule identifier.
        rule: String,
        /// Whether the invariant was violated.
        violated: bool,
        /// Human-readable detail.
        detail: String,
    },
}

impl AuditEvent {
    /// Short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            AuditEvent::FileRead { path, .. } => format!("read {path}"),
            AuditEvent::FileWrite(w) => format!("write {}", w.path),
            AuditEvent::FileDelete { path, .. } => format!("delete {path}"),
            AuditEvent::Chdir { path, .. } => format!("chdir {path}"),
            AuditEvent::Exec { resolved, .. } => format!("exec {resolved}"),
            AuditEvent::Emit { sink, .. } => format!("emit to {sink}"),
            AuditEvent::MemoryCorruption { buffer, .. } => format!("overflow of {buffer}"),
            AuditEvent::RegistryWrite { key, .. } => format!("regwrite {key}"),
            AuditEvent::RegistryDelete { key, .. } => format!("regdelete {key}"),
            AuditEvent::NetRecv { port, .. } => format!("netrecv :{port}"),
            AuditEvent::Custom { rule, .. } => format!("custom:{rule}"),
        }
    }
}

/// The events a run's log makes room for at its first event: the standard
/// suite's runs record 5.4 on average.
const EVENTS_PER_RUN: usize = 8;

/// The append-only audit log of one run, with an optional *oracle
/// subscription*: an attached [`crate::policy::OracleSet`] observes every
/// event at [`AuditLog::push`] time, so the policy oracle evaluates
/// incrementally during the run instead of re-scanning the completed log.
///
/// The subscription is runtime-only state: clones, equality comparisons and
/// (de)serialization see the recorded events alone — a cloned world starts
/// unsubscribed, exactly as it starts unhooked from the fault interceptor.
#[derive(Debug, Default)]
pub struct AuditLog {
    events: Vec<AuditEvent>,
    oracle: Option<crate::policy::OracleSet>,
}

impl Clone for AuditLog {
    /// Clones the recorded events; the oracle subscription stays behind.
    fn clone(&self) -> Self {
        AuditLog {
            events: self.events.clone(),
            oracle: None,
        }
    }
}

impl PartialEq for AuditLog {
    /// Two logs are equal when they recorded the same events; the
    /// subscription is runtime-only state.
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
    }
}

impl Eq for AuditLog {}

impl Serialize for AuditLog {
    fn ser(&self) -> serde::Value {
        serde::Value::Map(vec![("events".to_string(), self.events.ser())])
    }
}

impl Deserialize for AuditLog {
    fn de(v: &serde::Value) -> Result<Self, serde::DeError> {
        let map = v.as_map().ok_or_else(|| serde::DeError::expected("map", "AuditLog"))?;
        Ok(AuditLog {
            events: Vec::de(serde::field(map, "events", "AuditLog")?)?,
            oracle: None,
        })
    }
}

impl AuditLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event, returning its index. An attached oracle observes
    /// the event immediately.
    pub fn push(&mut self, event: AuditEvent) -> usize {
        if self.events.capacity() == 0 {
            // A run records a handful of events: one allocation holds them.
            self.events.reserve(EVENTS_PER_RUN);
        }
        self.events.push(event);
        let idx = self.events.len() - 1;
        if let Some(oracle) = &mut self.oracle {
            oracle.observe(idx, &self.events[idx]);
        }
        idx
    }

    /// Subscribes an oracle set to this log. Events already recorded are
    /// replayed to the set first (so attachment order cannot lose
    /// evidence); every subsequent [`AuditLog::push`] streams to it.
    /// Replaces any previous subscription.
    pub fn attach_oracle(&mut self, mut oracle: crate::policy::OracleSet) {
        oracle.observe_log(self);
        self.oracle = Some(oracle);
    }

    /// Removes and returns the subscribed oracle set, ready for
    /// [`crate::policy::OracleSet::finish`].
    pub fn detach_oracle(&mut self) -> Option<crate::policy::OracleSet> {
        self.oracle.take()
    }

    /// Whether an oracle set is subscribed.
    pub fn has_oracle(&self) -> bool {
        self.oracle.is_some()
    }

    /// All events in order.
    pub fn events(&self) -> &[AuditEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates events with their indices.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &AuditEvent)> {
        self.events.iter().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_preserves_order() {
        let mut log = AuditLog::new();
        let a = log.push(AuditEvent::Custom {
            rule: "a".into(),
            violated: false,
            detail: String::new(),
        });
        let b = log.push(AuditEvent::Custom {
            rule: "b".into(),
            violated: true,
            detail: String::new(),
        });
        assert_eq!((a, b), (0, 1));
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[1].describe(), "custom:b");
    }

    #[test]
    fn sink_display() {
        assert_eq!(SinkKind::Stdout.to_string(), "stdout");
        assert_eq!(SinkKind::File { path: "/x".into() }.to_string(), "file:/x");
        assert_eq!(SinkKind::Network { to: "h:79".into() }.to_string(), "net:h:79");
    }

    #[test]
    fn describe_covers_variants() {
        let by = Credentials::root();
        let ev = AuditEvent::MemoryCorruption {
            buffer: "line".into(),
            capacity: 8,
            attempted: 99,
            by,
        };
        assert!(ev.describe().contains("line"));
    }
}
