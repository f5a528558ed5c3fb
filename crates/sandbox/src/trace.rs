//! Execution traces of environment–application interaction points.
//!
//! The paper's methodology (§3.3, step 3) walks "each interaction point in
//! the execution trace". The sandbox builds that trace automatically: every
//! syscall an application issues is stamped with a static [`SiteId`] (the
//! source location of the interaction in the application), the kind of
//! operation, the environment object it touches, and — when the application
//! receives an input there — the *semantics* of that input, which selects
//! the applicable Table 5 fault patterns.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::intern::TextSym;

/// A static interaction site in an application, e.g. `"lpr:create_spool"`.
///
/// Sites are the unit of *interaction coverage*: the campaign perturbs
/// sites, and coverage is sites-perturbed over sites-observed.
///
/// A `Copy` handle over the label's `&'static str` (a [`TextSym`]): the
/// trace event, the per-site hit counter and the hook's
/// [`crate::syscall::InteractionRef`] copy a pointer, never the text.
/// Every case-study application names its
/// sites with string literals, and a literal becomes a site id with no
/// lookup at all, through [`SiteId::literal`] or `From<&'static str>`
/// (which is what [`crate::os::Os::syscall`] and the `sys_*` helpers
/// take). A label made at run time — the corpus's scripted app builds
/// `gen<i>:<tag>` — goes through [`SiteId::new`], which interns it once
/// per distinct text in the process-wide text table
/// ([`crate::intern::TextSym`]); build such ids once, not per syscall.
///
/// Equality compares the pointers first and then the text, so a literal
/// and an interned id of the same label are equal; order and hashing are
/// the text's. It serializes as the one-element sequence holding the
/// label, as the `String` newtype it replaced did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(TextSym);

impl SiteId {
    /// The site id of a literal label: no lookup, no allocation.
    pub const fn literal(label: &'static str) -> SiteId {
        SiteId(TextSym::literal(label))
    }

    /// The site id of a label made at run time, interned once per distinct
    /// text for the life of the process.
    pub fn new(label: impl AsRef<str>) -> SiteId {
        SiteId(TextSym::new(label.as_ref()))
    }

    /// The label text.
    pub fn as_str(&self) -> &'static str {
        self.0.as_str()
    }

    /// True when both ids point at the same label text — a literal against
    /// itself, or two interned ids — so equality needs no text compare.
    fn same_text(self, other: SiteId) -> bool {
        std::ptr::eq(self.as_str(), other.as_str())
    }
}

impl From<&'static str> for SiteId {
    fn from(label: &'static str) -> SiteId {
        SiteId::literal(label)
    }
}

impl AsRef<str> for SiteId {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for SiteId {
    /// Sound because equality, order and hashing are the text's.
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl Serialize for SiteId {
    fn ser(&self) -> serde::Value {
        serde::Value::Seq(vec![self.as_str().ser()])
    }
}

impl Deserialize for SiteId {
    fn de(v: &serde::Value) -> Result<SiteId, serde::DeError> {
        match v.as_seq() {
            Some([serde::Value::Str(label)]) => Ok(SiteId::new(label)),
            Some([_]) => Err(serde::DeError::expected("string", "String")),
            _ => Err(serde::DeError::expected("one-element sequence", "SiteId")),
        }
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The kind of operation performed at an interaction point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Read an environment variable.
    Getenv,
    /// Read a command-line argument.
    ReadArg,
    /// Bind an input value to an internal entity (post-parse).
    InputBind,
    /// Read a file's content.
    ReadFile,
    /// Create-or-truncate a file (`creat`).
    CreateFile,
    /// Exclusive creation (`O_CREAT|O_EXCL`).
    CreateExcl,
    /// Overwrite/append to a file.
    WriteFile,
    /// Remove a file.
    Delete,
    /// Make a directory.
    Mkdir,
    /// Change working directory.
    Chdir,
    /// `stat`/`lstat`.
    Stat,
    /// Create a symlink.
    Symlink,
    /// Read a symlink target.
    Readlink,
    /// Rename.
    Rename,
    /// Change mode bits.
    Chmod,
    /// Change ownership.
    Chown,
    /// List a directory.
    ListDir,
    /// Execute a program.
    Exec,
    /// Write to stdout.
    Print,
    /// Read a registry value.
    RegRead,
    /// Write a registry value.
    RegWrite,
    /// Delete a registry key/value.
    RegDelete,
    /// Connect to a network service.
    NetConnect,
    /// Send a network message.
    NetSend,
    /// Receive a network message.
    NetRecv,
    /// Resolve a host name.
    DnsResolve,
    /// Receive an IPC message from another process.
    ProcRecv,
}

impl OpKind {
    /// True when the operation *receives* data from the environment —
    /// the precondition for indirect fault injection (paper step 3).
    pub fn is_input(self) -> bool {
        matches!(
            self,
            OpKind::Getenv
                | OpKind::ReadArg
                | OpKind::InputBind
                | OpKind::ReadFile
                | OpKind::RegRead
                | OpKind::NetRecv
                | OpKind::DnsResolve
                | OpKind::ProcRecv
                | OpKind::ListDir
                | OpKind::Readlink
        )
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The environment object an interaction touches.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ObjectRef {
    /// A file-system object (path as named by the application).
    File(String),
    /// An environment variable.
    EnvVar(String),
    /// The argument vector.
    Args,
    /// A registry value (`key`, `value`).
    RegValue(String, String),
    /// A network port on this host.
    NetPort(u16),
    /// A remote host.
    Host(String),
    /// A remote service (`host`, `port`).
    Service(String, u16),
    /// An IPC channel.
    IpcChannel(String),
    /// The terminal.
    Terminal,
    /// An internal entity being initialized from environment input
    /// (post-parse binding; named for diagnostics).
    Value(String),
}

impl fmt::Display for ObjectRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectRef::File(p) => write!(f, "file:{p}"),
            ObjectRef::EnvVar(n) => write!(f, "env:{n}"),
            ObjectRef::Args => f.write_str("argv"),
            ObjectRef::RegValue(k, v) => write!(f, "reg:{k}\\{v}"),
            ObjectRef::NetPort(p) => write!(f, "port:{p}"),
            ObjectRef::Host(h) => write!(f, "host:{h}"),
            ObjectRef::Service(h, p) => write!(f, "service:{h}:{p}"),
            ObjectRef::IpcChannel(c) => write!(f, "ipc:{c}"),
            ObjectRef::Terminal => f.write_str("tty"),
            ObjectRef::Value(v) => write!(f, "value:{v}"),
        }
    }
}

/// The semantics of an input an application receives — the paper's Table 5
/// key. Semantics, not randomness, decide which fault patterns apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum InputSemantic {
    /// A file or directory name supplied by the user (argv, stdin).
    UserFileName,
    /// A command (or command fragment) supplied by the user.
    UserCommand,
    /// An execution/library search path list (`PATH`, `LD_LIBRARY_PATH`).
    EnvPathList,
    /// A permission mask (`UMASK`-style).
    EnvPermMask,
    /// A generic environment-variable value.
    EnvValue,
    /// A file/directory name read from file-system content (config files).
    FsFileName,
    /// A file extension read from file-system content.
    FsFileExtension,
    /// An IP address received from the network.
    NetIpAddr,
    /// A raw network packet.
    NetPacket,
    /// A host name received from the network.
    NetHostName,
    /// A DNS reply.
    NetDnsReply,
    /// A message from another process.
    ProcMessage,
    /// Input with no security-relevant structure.
    Opaque,
}

impl fmt::Display for InputSemantic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One recorded interaction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Global sequence number within the run.
    pub seq: usize,
    /// The static site.
    pub site: SiteId,
    /// Operation kind.
    pub op: OpKind,
    /// Environment object touched.
    pub object: ObjectRef,
    /// Input semantics, when the operation receives data.
    pub semantic: Option<InputSemantic>,
    /// How many times this site had executed before (0-based).
    pub occurrence: usize,
    /// Whether the dispatched operation succeeded — the static analysis
    /// layer's ground truth for "this interaction actually received a
    /// value" (an indirect fault can only strike a successful receive).
    pub ok: bool,
}

/// The per-site count list's first allocation, in sites: room for every
/// site of the largest case-study app.
const SITES_PER_RUN: usize = 16;

/// The trace of one run.
///
/// An unhooked run — the clean run the planner and the static analysis
/// read, or [`crate::os::Os`] used directly — records one [`TraceEvent`]
/// per interaction. A hooked run (a fault injection) only *counts*: the
/// dispatcher calls [`Trace::count`], which keeps the per-site occurrence
/// counts and the sequence counter the hook is handed, and lists no event.
/// Either way [`Trace::hit_count`] and [`Trace::interactions`] read the
/// same, and the `occurrence` and `seq` of each interaction are identical.
///
/// The per-site counts are a short list in order of first execution, not
/// a map: an application has a few dozen sites at most, a run allocates
/// the list once, with room for 16 sites (it grows only in a run that
/// reaches more), and a count finds its site by pointer before it falls
/// back to comparing text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    site_hits: Vec<(SiteId, usize)>,
    /// Interactions so far, listed or only counted: the next one's `seq`.
    interactions: usize,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an interaction as an event, assigning sequence and
    /// occurrence numbers. Returns the event's occurrence index for the
    /// site.
    pub fn record(&mut self, site: SiteId, op: OpKind, object: ObjectRef, semantic: Option<InputSemantic>) -> usize {
        let seq = self.interactions;
        let occurrence = self.count(site);
        self.events.push(TraceEvent {
            seq,
            site,
            op,
            object,
            semantic,
            occurrence,
            ok: true,
        });
        occurrence
    }

    /// Counts an interaction at `site` without listing an event: the
    /// counts-only form a hooked run keeps. Advances the sequence counter
    /// and returns the interaction's occurrence index for the site.
    pub fn count(&mut self, site: SiteId) -> usize {
        self.interactions += 1;
        let slot = self
            .site_hits
            .iter()
            .position(|(s, _)| s.same_text(site))
            .or_else(|| self.site_hits.iter().position(|(s, _)| *s == site));
        match slot {
            Some(i) => {
                self.site_hits[i].1 += 1;
                self.site_hits[i].1 - 1
            }
            None => {
                if self.site_hits.capacity() == 0 {
                    self.site_hits.reserve_exact(SITES_PER_RUN);
                }
                self.site_hits.push((site, 1));
                0
            }
        }
    }

    /// Interactions recorded or counted so far — the `seq` the next one
    /// gets.
    pub fn interactions(&self) -> usize {
        self.interactions
    }

    /// Stamps the dispatch outcome onto event `seq` (recorded optimistically
    /// as `ok: true`; the dispatcher corrects it once the operation ran).
    /// A counted interaction has no event to stamp.
    pub fn set_outcome(&mut self, seq: usize, ok: bool) {
        if let Ok(i) = self.events.binary_search_by_key(&seq, |ev| ev.seq) {
            self.events[i].ok = ok;
        }
    }

    /// All events in order (none for a hooked run, which only counts).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// How many times `site` executed in this trace (0 when never seen) —
    /// the per-site occurrence budget an occurrence-aware fault planner
    /// enumerates (each hit is a distinct strikeable occurrence).
    pub fn hit_count(&self, site: &SiteId) -> usize {
        self.site_hits
            .iter()
            .find(|(s, _)| s == site)
            .map_or(0, |&(_, hits)| hits)
    }

    /// Number of events listed (see [`Trace::interactions`] for the
    /// number counted).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event is listed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Distinct sites in order of first execution, with their merged
    /// descriptors — the paper's interaction-point list.
    pub fn sites(&self) -> Vec<SiteSummary> {
        let mut out: Vec<SiteSummary> = Vec::with_capacity(self.site_hits.len());
        for ev in &self.events {
            let i = match out.iter().position(|s| s.site == ev.site) {
                Some(i) => i,
                None => {
                    out.push(SiteSummary {
                        site: ev.site,
                        first_seq: ev.seq,
                        hits: 0,
                        ops: Vec::new(),
                        inputs: Vec::new(),
                    });
                    out.len() - 1
                }
            };
            let s = &mut out[i];
            s.hits = s.hits.max(ev.occurrence + 1);
            if !s.ops.iter().any(|(op, obj)| *op == ev.op && *obj == ev.object) {
                s.ops.push((ev.op, ev.object.clone()));
            }
            if let Some(sem) = ev.semantic {
                if !s.inputs.contains(&sem) {
                    s.inputs.push(sem);
                }
            }
        }
        out
    }

    /// Paths of file objects touched at two or more *distinct sites* — the
    /// check-at-one-point, use-at-another shape that makes name/content
    /// invariance (TOCTTOU) faults applicable. Multiple operations within a
    /// single interaction point do not qualify.
    pub fn reaccessed_files(&self) -> Vec<String> {
        let mut sites_per_path: BTreeMap<&str, std::collections::BTreeSet<&SiteId>> = BTreeMap::new();
        for ev in &self.events {
            if let ObjectRef::File(p) = &ev.object {
                sites_per_path.entry(p.as_str()).or_default().insert(&ev.site);
            }
        }
        sites_per_path
            .into_iter()
            .filter(|(_, sites)| sites.len() >= 2)
            .map(|(p, _)| p.to_string())
            .collect()
    }
}

/// Aggregated view of one site across a run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteSummary {
    /// The site.
    pub site: SiteId,
    /// Sequence number of its first execution.
    pub first_seq: usize,
    /// Number of times it executed.
    pub hits: usize,
    /// Distinct (operation, object) pairs observed.
    pub ops: Vec<(OpKind, ObjectRef)>,
    /// Distinct input semantics observed.
    pub inputs: Vec<InputSemantic>,
}

impl SiteSummary {
    /// True when the site receives input (step 3's branch condition).
    pub fn has_input(&self) -> bool {
        !self.inputs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occurrences_count_per_site() {
        let mut t = Trace::new();
        let s = SiteId::literal("app:open");
        assert_eq!(t.record(s, OpKind::ReadFile, ObjectRef::File("/a".into()), None), 0);
        assert_eq!(
            t.record(
                SiteId::new("app:open"),
                OpKind::ReadFile,
                ObjectRef::File("/b".into()),
                None
            ),
            1
        );
        assert_eq!(
            t.record(SiteId::new("app:other"), OpKind::Print, ObjectRef::Terminal, None),
            0
        );
        assert_eq!(t.len(), 3);
        assert_eq!(t.hit_count(&s), 2);
        assert_eq!(t.hit_count(&SiteId::new("app:other")), 1);
        assert_eq!(t.hit_count(&SiteId::new("never")), 0);
    }

    #[test]
    fn sites_merge_descriptors_in_first_execution_order() {
        let mut t = Trace::new();
        let a = SiteId::new("a");
        let b = SiteId::new("b");
        t.record(
            b,
            OpKind::Getenv,
            ObjectRef::EnvVar("PATH".into()),
            Some(InputSemantic::EnvPathList),
        );
        t.record(a, OpKind::ReadFile, ObjectRef::File("/f".into()), None);
        t.record(
            b,
            OpKind::Getenv,
            ObjectRef::EnvVar("PATH".into()),
            Some(InputSemantic::EnvPathList),
        );
        let sites = t.sites();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].site, b);
        assert_eq!(sites[0].hits, 2);
        assert_eq!(sites[0].inputs, vec![InputSemantic::EnvPathList]);
        assert!(sites[0].has_input());
        assert!(!sites[1].has_input());
    }

    #[test]
    fn reaccess_detection() {
        let mut t = Trace::new();
        t.record(SiteId::new("s1"), OpKind::Stat, ObjectRef::File("/x".into()), None);
        t.record(SiteId::new("s2"), OpKind::ReadFile, ObjectRef::File("/x".into()), None);
        t.record(SiteId::new("s3"), OpKind::ReadFile, ObjectRef::File("/y".into()), None);
        assert_eq!(t.reaccessed_files(), vec!["/x".to_string()]);
    }

    #[test]
    fn site_ids_serialize_as_the_string_newtype_did() {
        let site = SiteId::new("lpr:create");
        let wire = serde::Value::Seq(vec![serde::Value::Str("lpr:create".into())]);
        assert_eq!(site.ser(), wire);
        assert_eq!(SiteId::de(&wire).unwrap(), site);
        assert!(SiteId::de(&serde::Value::Str("lpr:create".into())).is_err());
    }

    #[test]
    fn a_literal_and_an_interned_label_are_one_site() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: SiteId| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let literal = SiteId::literal("lpr:create");
        let made = SiteId::new(format!("lpr:{}", "create"));
        assert_eq!(literal, made);
        assert_eq!(hash(literal), hash(made));
        assert_eq!(literal.cmp(&made), std::cmp::Ordering::Equal);
        assert_eq!(literal.ser(), made.ser());
        assert_eq!(SiteId::from("lpr:create"), literal);
        // Order is the text's, whichever way an id was made.
        assert!(SiteId::new("a") < SiteId::literal("b") && SiteId::literal("a") < SiteId::new("b"));
        assert_ne!(SiteId::new("lpr:create_spool"), literal);
    }

    #[test]
    fn a_site_label_is_shared_not_copied() {
        let first = SiteId::new(String::from("gen0:read"));
        let second = SiteId::new(format!("gen{}:read", 0));
        assert!(first.same_text(second), "one text, one allocation");
        assert!(std::ptr::eq(first.as_str(), second.as_str()));
    }

    #[test]
    fn counts_find_a_site_by_pointer_or_by_text() {
        let mut t = Trace::new();
        let s = SiteId::literal("s");
        t.record(s, OpKind::Print, ObjectRef::Terminal, None);
        assert_eq!(t.count(SiteId::new("s")), 1);
        assert_eq!(t.count(s), 2);
        assert_eq!(t.count(SiteId::literal("t")), 0);
        assert!(t.events().iter().all(|ev| ev.site.same_text(s)));
        assert_eq!((t.hit_count(&s), t.hit_count(&SiteId::new("t"))), (3, 1));
        assert_eq!((t.interactions(), t.len()), (4, 1));
    }

    #[test]
    fn a_run_allocates_its_site_list_once() {
        let mut t = Trace::new();
        for (i, site) in ["a", "b", "c", "d", "a", "e"].into_iter().enumerate() {
            t.count(SiteId::literal(site));
            assert_eq!(t.site_hits.capacity(), SITES_PER_RUN, "after count {i}");
        }
        assert_eq!((t.hit_count(&SiteId::literal("a")), t.site_hits.len()), (2, 5));
    }

    #[test]
    fn input_op_classification() {
        assert!(OpKind::ReadFile.is_input());
        assert!(OpKind::Getenv.is_input());
        assert!(!OpKind::CreateFile.is_input());
        assert!(!OpKind::Exec.is_input());
    }
}
