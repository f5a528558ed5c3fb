//! The virtual file system.
//!
//! An in-memory UNIX-like file system with inodes, directories, symbolic
//! links, permission bits, ownership, and sticky-bit deletion semantics —
//! everything Table 6 of the paper perturbs. Resolution is *physical*:
//! `..` follows the real parent chain even across symlinked directories,
//! and `creat` follows a final symlink (the behaviour the classic
//! symlink-swap attacks depend on).
//!
//! Two API layers coexist:
//!
//! * **Checked operations** take [`Credentials`] and enforce permissions the
//!   way the real kernel would; these are what [`crate::os::Os`] dispatches
//!   application syscalls through.
//! * **God-mode helpers** (`mkdir_p`, `put_file`, `god_*`) bypass checks;
//!   world builders use them for setup and the fault injector uses them to
//!   perturb the environment ("the attacker could have arranged this").
//!
//! # Copy-on-write snapshots
//!
//! The inode table is a dense vector indexed by [`InodeId`] (ids come from
//! a counter and are never reused), `Arc`-backed at two levels: the vector
//! itself and each inode. `Vfs::clone` is O(1), and the first mutation of
//! a shared snapshot copies one vector of pointers plus the inodes it
//! actually touches. Campaigns exploit this by freezing one pristine world
//! and cloning it per injected fault; [`Vfs::deep_clone`] materializes a
//! fully independent copy for callers that need one (and for the
//! deep-clone-vs-snapshot benches). The table hashes, compares and
//! serializes exactly as the `BTreeMap<u64, Arc<Inode>>` it replaced, so
//! world fingerprints and serialized worlds are unchanged.
//!
//! # Resolution
//!
//! A walk keeps only the inode it stands on: `..` follows the parent-link
//! index, and a physical path is rebuilt from that index once, into one
//! buffer, when a caller asks for it. Components are borrowed from the
//! argument and from symlink targets; a stack of pending text is allocated
//! only when a symlink splices its target in mid-path. The syscall
//! handlers in [`crate::os`] resolve each path once (`Vfs::probe`) and
//! hand the result to crate-private forms of the checked operations.

mod inode;

pub use inode::{FileKind, FileTag, FileType, Inode, InodeId, Stat};

use shim_sync::sync::Arc;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cred::{Credentials, Gid, Uid};
use crate::data::Data;
use crate::error::{Errno, SysError, SysResult};
use crate::intern::{self, PathSym};
use crate::mode::{Access, Mode};
use crate::path;
use crate::syserr;

/// Maximum symlink expansions in a single resolution (mirrors `SYMLOOP_MAX`).
const SYMLINK_BUDGET: usize = 40;

/// Maximum length of a single path component (mirrors `NAME_MAX`) — the
/// limit "change length" perturbations push file names past.
pub const NAME_MAX: usize = 255;

/// The largest `next_id` a deserialized world may carry: the bound on the
/// dense table a serialized world can make this process allocate.
const MAX_NEXT_ID: u64 = 1 << 20;

thread_local! {
    /// The buffer physical paths are rebuilt in before they are interned
    /// (the interner needs the text contiguous): one per thread, kept
    /// across walks, so a walk allocates no text of its own.
    static PHYSICAL: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Slots a snapshot's table copy leaves free, so the entries a run
/// creates do not reallocate the copy it just made.
const TABLE_ROOM: usize = 4;

/// `Arc::make_mut` for a snapshot's dense table: a shared table is copied
/// with [`TABLE_ROOM`] spare slots.
fn unshare_with_room<T: Clone>(table: &mut Arc<Vec<T>>) -> &mut Vec<T> {
    if Arc::get_mut(table).is_none() {
        let mut copy = Vec::with_capacity(table.len() + TABLE_ROOM);
        copy.extend_from_slice(table);
        *table = Arc::new(copy);
    }
    Arc::get_mut(table).expect("a table just copied is unshared")
}

/// The table slot of an inode id (out of range for any table when the id
/// does not fit a `usize`).
fn slot(id: InodeId) -> usize {
    usize::try_from(id.0).unwrap_or(usize::MAX)
}

/// Displays a path as `/` followed by its non-empty components joined by
/// `/` — the spelling `walk_parent` names a parent prefix in.
struct Rooted<'a>(&'a str);

impl fmt::Display for Rooted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("/")?;
        for (i, comp) in path::components(self.0).enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            f.write_str(comp)?;
        }
        Ok(())
    }
}

/// Splits an absolute path into the text before its final component and
/// that component (`None` when the path has no components).
fn split_last(abs_path: &str) -> (&str, Option<&str>) {
    let trimmed = abs_path.trim_end_matches('/');
    match trimmed.rfind('/') {
        Some(i) => (&trimmed[..=i], Some(&trimmed[i + 1..])),
        None => (abs_path, None),
    }
}

/// The final component of `abs_path` when it names an entry (not `.` or
/// `..`), else the `EINVAL` `walk_parent` reports.
pub(crate) fn final_name(abs_path: &str) -> SysResult<&str> {
    match split_last(abs_path).1 {
        Some(n) if n != "." && n != ".." => Ok(n),
        _ => Err(syserr!(Einval, "bad final component in {abs_path}")),
    }
}

/// Pops the next non-empty component off the front of `rest`.
fn pop_component<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let text = rest.trim_start_matches('/');
    let end = text.find('/').unwrap_or(text.len());
    let (comp, tail) = text.split_at(end);
    *rest = tail;
    (!comp.is_empty()).then_some(comp)
}

/// True when `text` has at least one non-empty component.
fn has_component(text: &str) -> bool {
    text.bytes().any(|b| b != b'/')
}

/// Result of a successful path walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Walked {
    /// The resolved inode.
    pub id: InodeId,
    /// Physical absolute path of the resolved inode (symlinks expanded),
    /// rebuilt from the parent links and interned once — `Copy`, and
    /// allocation-free to propagate into audit events.
    pub physical: PathSym,
    /// The physical parent directory (root's parent is root).
    pub parent: InodeId,
}

/// Result of resolving everything but the final component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParentWalk {
    /// Inode of the parent directory.
    pub dir: InodeId,
    /// Physical path of the parent directory (interned).
    pub dir_physical: PathSym,
    /// The final path component, unresolved.
    pub name: String,
}

/// How a walk treats search (execute) permission on the directories it
/// looks names up in.
#[derive(Clone, Copy)]
enum Search<'c> {
    /// God mode: no check.
    Unchecked,
    /// Fail with `EACCES` at the first directory the credentials may not
    /// search, as the kernel does.
    Enforce(&'c Credentials),
    /// Resolve as god mode, noting the first such directory in the
    /// [`Trail`] instead of failing.
    Note(&'c Credentials),
}

impl<'c> Search<'c> {
    fn from_cred(cred: Option<&'c Credentials>) -> Self {
        cred.map_or(Search::Unchecked, Search::Enforce)
    }
}

/// What a walk notes on its way, besides where it ends.
#[derive(Debug, Default)]
struct Trail {
    /// The first directory a [`Search::Note`] walk's credentials may not
    /// search, and whether that lookup was of the path's last component.
    denied: Option<(InodeId, bool)>,
    /// The directory an `ENOENT` struck in, when the missing name was the
    /// last component of the path as given (no symlink expanded).
    missing_in: Option<InodeId>,
}

/// Why a walk stopped short of an inode.
#[derive(Debug, Clone)]
enum Stop<'p> {
    /// `name`, a component of the path as given, is missing from the
    /// directory `dir`. Its `ENOENT`, which names the directory's physical
    /// path, is formatted only where it reaches a caller
    /// ([`Vfs::surface`]): a walk that only asks whether the path exists
    /// formats nothing.
    Missing { dir: InodeId, name: &'p str },
    /// Any other failure.
    Failed(SysError),
}

impl Stop<'_> {
    fn errno(&self) -> Errno {
        match self {
            Stop::Missing { .. } => Errno::Enoent,
            Stop::Failed(e) => e.errno,
        }
    }
}

impl From<SysError> for Stop<'_> {
    fn from(e: SysError) -> Self {
        Stop::Failed(e)
    }
}

/// One god-mode resolution of a path, read two ways: what the unchecked
/// walk found, and what the same walk under a process's credentials
/// returns. A syscall handler that needs both (a god-mode `stat`/`lstat`
/// for its audit record, then the checked operation) walks the path once.
#[derive(Debug)]
pub(crate) struct Probe<'p> {
    /// The inode the unchecked walk reached, or why it stopped.
    found: Result<InodeId, Stop<'p>>,
    trail: Trail,
}

impl Probe<'_> {
    /// The inode the unchecked walk reached, if any.
    pub(crate) fn reached(&self) -> Option<InodeId> {
        self.found.as_ref().ok().copied()
    }
}

/// Inode-indexed slots: `None` for an id that was never allocated or whose
/// inode was removed.
type Slots<T> = Arc<Vec<Option<T>>>;

/// The virtual file system.
///
/// `clone` is a copy-on-write snapshot: the inode table is shared until
/// either copy mutates, and a mutation deep-copies only the touched inodes
/// (plus one vector of pointers). Use [`Vfs::deep_clone`] when a fully
/// materialized copy is required.
#[derive(Debug, Clone)]
pub struct Vfs {
    /// The inode table, dense by [`InodeId`]; always `next_id` slots long.
    inodes: Slots<Arc<Inode>>,
    root: InodeId,
    next_id: u64,
    /// Reverse index `child → (parent, entry name)`, dense by [`InodeId`]
    /// and maintained by the [`Vfs::link_child`]/[`Vfs::unlink_child`]
    /// helpers. Resolution follows it for `..` and rebuilds physical paths
    /// from it, and [`Vfs::path_of`] is O(depth). Pure derived data:
    /// excluded from equality and serialization (rebuilt on deserialize).
    parents: Slots<(InodeId, PathSym)>,
}

impl PartialEq for Vfs {
    fn eq(&self, other: &Vfs) -> bool {
        // `parents` is derived from the tree; comparing it would only
        // re-state what `inodes` already says. Storage shared between
        // snapshots compares by pointer, explicitly rather than through
        // std's `Arc<T: Eq>` specialization, so an untouched snapshot costs
        // O(1) and a touched one a pointer check per unchanged inode.
        if self.root != other.root || self.next_id != other.next_id {
            return false;
        }
        if Arc::ptr_eq(&self.inodes, &other.inodes) {
            return true;
        }
        self.inodes.len() == other.inodes.len()
            && self.inodes.iter().zip(other.inodes.iter()).all(|pair| match pair {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a == b,
                (None, None) => true,
                _ => false,
            })
    }
}

impl Eq for Vfs {}

impl std::hash::Hash for Vfs {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // As in `PartialEq`: `parents` is derived from the tree. The table
        // feeds the stream a `BTreeMap<u64, Arc<Inode>>` of its live
        // inodes did (the length, then each `(id, inode)` pair), so world
        // fingerprints do not depend on the dense layout.
        state.write_usize(self.inode_count());
        for (id, ino) in self.live() {
            (id, ino).hash(state);
        }
        self.root.hash(state);
        self.next_id.hash(state);
    }
}

impl Serialize for Vfs {
    fn ser(&self) -> serde::Value {
        // Mirrors the old derived layout exactly (three fields, in
        // declaration order, the table as the `(id, inode)` pairs a
        // `BTreeMap` serializes to) so serialized worlds are byte-identical.
        let inodes = self
            .live()
            .map(|(id, ino)| serde::Value::Seq(vec![id.ser(), ino.ser()]))
            .collect();
        serde::Value::Map(vec![
            (String::from("inodes"), serde::Value::Seq(inodes)),
            (String::from("root"), self.root.ser()),
            (String::from("next_id"), self.next_id.ser()),
        ])
    }
}

impl Deserialize for Vfs {
    fn de(v: &serde::Value) -> Result<Vfs, serde::DeError> {
        let map = v.as_map().ok_or_else(|| serde::DeError::expected("map", "Vfs"))?;
        let live: BTreeMap<u64, Arc<Inode>> = Deserialize::de(serde::field(map, "inodes", "Vfs")?)?;
        let next_id: u64 = Deserialize::de(serde::field(map, "next_id", "Vfs")?)?;
        if next_id > MAX_NEXT_ID {
            return Err(serde::DeError::custom(format!(
                "Vfs next_id {next_id} exceeds {MAX_NEXT_ID}"
            )));
        }
        let mut inodes = vec![None; slot(InodeId(next_id))];
        for (id, ino) in live {
            let entry = inodes
                .get_mut(slot(InodeId(id)))
                .ok_or_else(|| serde::DeError::custom(format!("inode id {id} is not below next_id {next_id}")))?;
            *entry = Some(ino);
        }
        let mut vfs = Vfs {
            inodes: Arc::new(inodes),
            root: Deserialize::de(serde::field(map, "root", "Vfs")?)?,
            next_id,
            parents: Arc::new(Vec::new()),
        };
        vfs.rebuild_parents();
        Ok(vfs)
    }
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates a file system containing only `/` (root-owned, mode 0755).
    pub fn new() -> Self {
        let root = InodeId(1);
        let root_inode = Arc::new(Inode {
            id: root,
            kind: FileKind::Directory(BTreeMap::new()),
            owner: Uid::ROOT,
            group: Gid::ROOT,
            mode: Mode::new(0o755),
            tags: BTreeSet::new(),
        });
        Vfs {
            inodes: Arc::new(vec![None, Some(root_inode)]),
            root,
            next_id: 2,
            parents: Arc::new(Vec::new()),
        }
    }

    /// The root directory inode.
    pub fn root(&self) -> InodeId {
        self.root
    }

    /// The inode table, unsharing it from any sibling snapshot first.
    fn table_mut(&mut self) -> &mut Vec<Option<Arc<Inode>>> {
        unshare_with_room(&mut self.inodes)
    }

    /// The live inodes in id order.
    fn live(&self) -> impl Iterator<Item = (u64, &Arc<Inode>)> {
        self.inodes
            .iter()
            .enumerate()
            .filter_map(|(i, ino)| Some((u64::try_from(i).ok()?, ino.as_ref()?)))
    }

    /// Borrow an inode.
    pub fn inode(&self, id: InodeId) -> SysResult<&Inode> {
        self.inodes
            .get(slot(id))
            .and_then(Option::as_deref)
            .ok_or_else(|| syserr!(Ebadf, "stale inode {id}"))
    }

    /// Mutably borrow an inode, copy-on-write: a shared inode is deep-copied
    /// before the mutable borrow is handed out.
    pub fn inode_mut(&mut self, id: InodeId) -> SysResult<&mut Inode> {
        self.table_mut()
            .get_mut(slot(id))
            .and_then(Option::as_mut)
            .map(Arc::make_mut)
            .ok_or_else(|| syserr!(Ebadf, "stale inode {id}"))
    }

    /// Removes an inode from the table (its directory entry and parent
    /// link are the caller's to drop).
    fn drop_inode(&mut self, id: InodeId) -> Option<Arc<Inode>> {
        self.table_mut().get_mut(slot(id)).and_then(Option::take)
    }

    /// Total number of live inodes.
    pub fn inode_count(&self) -> usize {
        self.inodes.iter().flatten().count()
    }

    /// A fully materialized copy sharing no storage with `self` — the
    /// pre-snapshot per-fault setup cost, kept for equivalence tests and
    /// benches.
    pub fn deep_clone(&self) -> Vfs {
        Vfs {
            inodes: Arc::new(
                self.inodes
                    .iter()
                    .map(|ino| ino.as_ref().map(|i| Arc::new((**i).clone())))
                    .collect(),
            ),
            root: self.root,
            next_id: self.next_id,
            parents: Arc::new((*self.parents).clone()),
        }
    }

    /// Recomputes the `child → (parent, name)` reverse index from the
    /// tree (used after deserialization, where only the tree travels).
    fn rebuild_parents(&mut self) {
        let mut parents = vec![None; self.inodes.len()];
        let mut seen = vec![false; self.inodes.len()];
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            match seen.get_mut(slot(id)) {
                Some(seen) if !*seen => *seen = true,
                _ => continue,
            }
            if let Some(entries) = self.inode(id).ok().and_then(Inode::entries) {
                for (name, child) in entries {
                    if let Some(link) = parents.get_mut(slot(*child)) {
                        *link = Some((id, *name));
                    }
                    stack.push(*child);
                }
            }
        }
        self.parents = Arc::new(parents);
    }

    /// Sets (or clears) the parent link of `child`.
    fn set_parent_link(&mut self, child: InodeId, link: Option<(InodeId, PathSym)>) {
        let parents = unshare_with_room(&mut self.parents);
        let i = slot(child);
        if parents.len() <= i {
            if link.is_none() {
                return;
            }
            parents.resize(i + 1, None);
        }
        parents[i] = link;
    }

    /// Inserts `child` under `dir` as `name`, keeping the reverse index
    /// in sync. Returns the entry the insert displaced, if any.
    fn link_child(&mut self, dir: InodeId, name: &str, child: InodeId) -> SysResult<Option<InodeId>> {
        let name = intern::intern(name);
        let replaced = self
            .inode_mut(dir)?
            .entries_mut()
            .expect("link_child target is a directory")
            .insert(name, child);
        if let Some(old) = replaced {
            self.set_parent_link(old, None);
        }
        self.set_parent_link(child, Some((dir, name)));
        Ok(replaced)
    }

    /// Removes `name` from `dir`, keeping the reverse index in sync.
    /// Returns the unlinked inode, if the entry existed.
    fn unlink_child(&mut self, dir: InodeId, name: &str) -> SysResult<Option<InodeId>> {
        let removed = self
            .inode_mut(dir)?
            .entries_mut()
            .expect("unlink_child target is a directory")
            .remove(name);
        if let Some(id) = removed {
            self.set_parent_link(id, None);
        }
        Ok(removed)
    }

    /// Number of inodes whose storage is physically shared with `other`
    /// (copy-on-write introspection; equal content in distinct allocations
    /// does not count).
    pub fn shared_inodes_with(&self, other: &Vfs) -> usize {
        if Arc::ptr_eq(&self.inodes, &other.inodes) {
            return self.inode_count();
        }
        self.inodes
            .iter()
            .zip(other.inodes.iter())
            .filter(|pair| matches!(pair, (Some(a), Some(b)) if Arc::ptr_eq(a, b)))
            .count()
    }

    fn alloc(&mut self, kind: FileKind, owner: Uid, group: Gid, mode: Mode) -> InodeId {
        let id = InodeId(self.next_id);
        self.next_id += 1;
        let table = self.table_mut();
        let i = slot(id);
        if table.len() <= i {
            table.resize(i + 1, None);
        }
        table[i] = Some(Arc::new(Inode {
            id,
            kind,
            owner,
            group,
            mode,
            tags: BTreeSet::new(),
        }));
        id
    }

    /// Checks whether `cred` holds `access` on `id`.
    pub fn grants(&self, id: InodeId, cred: &Credentials, access: Access) -> SysResult<bool> {
        let ino = self.inode(id)?;
        Ok(ino.mode.grants(ino.owner, ino.group, cred, access))
    }

    // ------------------------------------------------------------------
    // Path resolution
    // ------------------------------------------------------------------

    /// The parent link of a linked, non-root inode.
    fn parent_link(&self, id: InodeId) -> Option<(InodeId, PathSym)> {
        if id == self.root {
            return None;
        }
        self.parents.get(slot(id)).copied().flatten()
    }

    /// The physical parent directory of a reachable inode (root's parent
    /// is root).
    pub(crate) fn parent_of(&self, id: InodeId) -> InodeId {
        self.parent_link(id).map_or(self.root, |(parent, _)| parent)
    }

    /// Calls `f` with the physical path of a reachable inode, rebuilt from
    /// the parent links into this thread's [`PHYSICAL`] buffer.
    fn with_physical<R>(&self, id: InodeId, f: impl FnOnce(&str) -> R) -> R {
        let mut len = 0;
        let mut cur = id;
        while let Some((parent, name)) = self.parent_link(cur) {
            len += 1 + name.len();
            cur = parent;
        }
        PHYSICAL.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.clear();
            if len == 0 {
                buf.push(b'/');
            }
            buf.resize(len.max(1), 0);
            let mut end = len;
            cur = id;
            while let Some((parent, name)) = self.parent_link(cur) {
                let start = end - name.len();
                buf[start..end].copy_from_slice(name.as_bytes());
                buf[start - 1] = b'/';
                end = start - 1;
                cur = parent;
            }
            f(std::str::from_utf8(&buf).expect("entry names are UTF-8"))
        })
    }

    /// The physical path of a reachable inode, as an owned string (for
    /// relative symlink targets; error text formats it from the buffer).
    fn physical(&self, id: InodeId) -> String {
        self.with_physical(id, str::to_string)
    }

    /// The [`Walked`] for a reachable inode: its physical path, interned
    /// once, and its parent.
    pub(crate) fn walked(&self, id: InodeId) -> Walked {
        Walked {
            id,
            physical: self.with_physical(id, intern::intern),
            parent: self.parent_of(id),
        }
    }

    fn search_denied(&self, dir: InodeId) -> SysError {
        self.with_physical(dir, |p| syserr!(Eacces, "search permission denied in {p}"))
    }

    /// Physically walks an absolute path; the physical path it reaches is
    /// the only text it interns, once, after resolution.
    ///
    /// * `follow_last` — whether a final symlink is expanded (`stat` vs
    ///   `lstat`, `open` vs `unlink`).
    /// * `cred` — when given, directory traversal requires execute
    ///   permission on each directory, as the kernel enforces.
    ///
    /// # Errors
    ///
    /// `ENOENT` for missing components, `ENOTDIR` when a non-directory is
    /// used as one, `ELOOP` after 40 symlink expansions, `EACCES` on a
    /// traversal-permission failure, `EINVAL` for relative paths.
    pub fn walk(&self, abs_path: &str, follow_last: bool, cred: Option<&Credentials>) -> SysResult<Walked> {
        let id = self.lookup(abs_path, follow_last, Search::from_cred(cred))?;
        Ok(self.walked(id))
    }

    /// [`Vfs::walk`] without the physical path: the inode it reaches.
    fn lookup(&self, abs_path: &str, follow_last: bool, search: Search<'_>) -> SysResult<InodeId> {
        self.walk_to(abs_path, follow_last, search)
            .map_err(|stop| self.surface(stop))
    }

    /// [`Vfs::lookup`] for a caller that only asks whether the walk
    /// succeeds: a miss formats no error.
    fn reaches(&self, abs_path: &str, follow_last: bool, search: Search<'_>) -> Option<InodeId> {
        self.walk_to(abs_path, follow_last, search).ok()
    }

    /// The walk behind [`Vfs::lookup`] and [`Vfs::reaches`], a miss not
    /// yet formatted.
    fn walk_to<'p>(&self, abs_path: &'p str, follow_last: bool, search: Search<'_>) -> Result<InodeId, Stop<'p>> {
        self.resolve(abs_path, follow_last, search, &abs_path, &mut Trail::default())
    }

    /// The error a walk's stop reports. A miss names the path it struck:
    /// the missing name under its directory's physical path.
    fn surface(&self, stop: Stop<'_>) -> SysError {
        match stop {
            Stop::Missing { dir, name } => self.with_physical(dir, |p| syserr!(Enoent, "{p}/{name}")),
            Stop::Failed(e) => e,
        }
    }

    /// Resolves `abs_path` once as a god-mode walk, noting what a walk
    /// under `cred` would meet (see [`Probe`]).
    pub(crate) fn probe<'p>(&self, abs_path: &'p str, follow_last: bool, cred: &Credentials) -> Probe<'p> {
        let mut trail = Trail::default();
        let found = self.resolve(abs_path, follow_last, Search::Note(cred), &abs_path, &mut trail);
        Probe { found, trail }
    }

    /// What the unchecked walk of the probed path reached, or its error.
    pub(crate) fn found(&self, probe: &Probe<'_>) -> SysResult<InodeId> {
        probe.found.clone().map_err(|stop| self.surface(stop))
    }

    /// What `walk(abs_path, follow_last, Some(cred))` of the probed path
    /// reaches: the god-mode result unless the credentials were denied
    /// search on the way.
    pub(crate) fn checked(&self, probe: &Probe<'_>) -> SysResult<InodeId> {
        self.checked_stop(probe).map_err(|stop| self.surface(stop))
    }

    /// [`Vfs::checked`], a miss not yet formatted.
    fn checked_stop<'p>(&self, probe: &Probe<'p>) -> Result<InodeId, Stop<'p>> {
        match probe.trail.denied {
            Some((dir, _)) => Err(self.search_denied(dir).into()),
            None => probe.found.clone(),
        }
    }

    /// The error `walk_parent(abs_path, Some(cred))` meets walking the
    /// probed path's parent, whose lookups are the probe's minus its last.
    pub(crate) fn checked_parent(&self, probe: &Probe<'_>) -> SysResult<()> {
        match probe.trail.denied {
            Some((dir, false)) => Err(self.search_denied(dir)),
            _ => Ok(()),
        }
    }

    /// The resolver behind every walk. Returns the inode reached; `shown`
    /// is the spelling error messages name the path by, and `trail`
    /// collects what `search` and a failed lookup note.
    fn resolve<'p>(
        &self,
        abs_path: &'p str,
        follow_last: bool,
        search: Search<'_>,
        shown: &dyn fmt::Display,
        trail: &mut Trail,
    ) -> Result<InodeId, Stop<'p>> {
        if !path::is_absolute(abs_path) {
            return Err(syserr!(Einval, "walk requires absolute path, got {shown}").into());
        }
        // Text still to resolve: `rest` is the source being read (the
        // argument, or the symlink target spliced in last) and `outer`
        // holds what remains of the sources it interrupted, innermost last.
        let mut rest = abs_path;
        let mut outer: Vec<&str> = Vec::new();
        let mut cur = self.root;
        let mut budget = SYMLINK_BUDGET;
        let mut expanded = false;
        loop {
            let Some(comp) = pop_component(&mut rest) else {
                match outer.pop() {
                    Some(text) => {
                        rest = text;
                        continue;
                    }
                    None => return Ok(cur),
                }
            };
            if comp.len() > NAME_MAX {
                return Err(syserr!(Enametoolong, "component of {shown}").into());
            }
            match comp {
                "." => continue,
                ".." => {
                    cur = self.parent_of(cur);
                    continue;
                }
                _ => {}
            }
            let last = outer.is_empty() && !has_component(rest);
            let cur_ino = self.inode(cur)?;
            // Error text names the directory reached so far.
            let entries = cur_ino
                .entries()
                .ok_or_else(|| self.with_physical(cur, |p| syserr!(Enotdir, "{p}")))?;
            match search {
                Search::Enforce(c) if !cur_ino.mode.grants(cur_ino.owner, cur_ino.group, c, Access::Exec) => {
                    return Err(self.search_denied(cur).into());
                }
                Search::Note(c)
                    if trail.denied.is_none()
                        && !cur_ino.mode.grants(cur_ino.owner, cur_ino.group, c, Access::Exec) =>
                {
                    trail.denied = Some((cur, last));
                }
                _ => {}
            }
            let Some(&child) = entries.get(comp) else {
                if expanded {
                    return Err(self.with_physical(cur, |p| syserr!(Enoent, "{p}/{comp}")).into());
                }
                if last {
                    trail.missing_in = Some(cur);
                }
                // Nothing expanded yet: `comp` is the piece of `abs_path`
                // just before `rest`.
                let end = abs_path.len() - rest.len();
                let name = &abs_path[end - comp.len()..end];
                return Err(Stop::Missing { dir: cur, name });
            };
            if let FileKind::Symlink(target) = &self.inode(child)?.kind {
                if !last || follow_last {
                    budget = budget.checked_sub(1).ok_or_else(|| syserr!(Eloop, "{shown}"))?;
                    expanded = true;
                    if path::is_absolute(target) {
                        cur = self.root;
                    }
                    if has_component(rest) {
                        outer.push(rest);
                    }
                    rest = target;
                    continue;
                }
            }
            cur = child;
        }
    }

    /// Resolves the parent directory of `abs_path`, leaving the final
    /// component unresolved (for `creat`, `unlink`, `symlink`, `rename`).
    ///
    /// # Errors
    ///
    /// As [`Vfs::walk`]; additionally `EINVAL` when the final component is
    /// `.` or `..` or the path has no components.
    pub fn walk_parent(&self, abs_path: &str, cred: Option<&Credentials>) -> SysResult<ParentWalk> {
        let (dir, name) = self.resolve_parent(abs_path, Search::from_cred(cred))?;
        Ok(ParentWalk {
            dir,
            dir_physical: self.with_physical(dir, intern::intern),
            name: name.to_string(),
        })
    }

    /// [`Vfs::walk_parent`] without the parent's physical path: the
    /// directory, and the final component borrowed from `abs_path`. The
    /// parent is resolved from the prefix of `abs_path` in place.
    fn resolve_parent<'p>(&self, abs_path: &'p str, search: Search<'_>) -> SysResult<(InodeId, &'p str)> {
        if !path::is_absolute(abs_path) {
            return Err(syserr!(Einval, "walk_parent requires absolute path, got {abs_path}"));
        }
        let name = final_name(abs_path)?;
        if name.len() > NAME_MAX {
            return Err(syserr!(Enametoolong, "{abs_path}"));
        }
        let prefix = Rooted(split_last(abs_path).0);
        let dir = self
            .resolve(prefix.0, true, search, &prefix, &mut Trail::default())
            .map_err(|stop| self.surface(stop))?;
        if !self.inode(dir)?.is_dir() {
            return Err(syserr!(Enotdir, "{prefix}"));
        }
        Ok((dir, name))
    }

    /// Reconstructs the physical path of an inode by following the
    /// parent-link index upward — O(depth), not a tree search. `None` for
    /// an inode no longer linked into the tree.
    pub fn path_of(&self, id: InodeId) -> Option<PathSym> {
        let mut cur = id;
        while cur != self.root {
            cur = self.parent_link(cur)?.0;
        }
        Some(self.with_physical(id, intern::intern))
    }

    // ------------------------------------------------------------------
    // Checked operations (credential-enforcing)
    // ------------------------------------------------------------------

    /// Opens an existing file for reading (follows symlinks).
    ///
    /// # Errors
    ///
    /// `EACCES` without read permission; `EISDIR` for directories; plus any
    /// resolution error.
    pub fn open_read(&self, abs_path: &str, cred: &Credentials) -> SysResult<Walked> {
        let id = self.lookup(abs_path, true, Search::Enforce(cred))?;
        let ino = self.inode(id)?;
        if ino.is_dir() {
            return Err(syserr!(Eisdir, "{abs_path}"));
        }
        if !ino.mode.grants(ino.owner, ino.group, cred, Access::Read) {
            return Err(syserr!(Eacces, "{abs_path}"));
        }
        Ok(self.walked(id))
    }

    /// `creat(2)` semantics: follows a final symlink; truncates an existing
    /// file (needs write permission on it); otherwise creates a fresh file
    /// in the parent (needs write permission on the parent).
    ///
    /// Returns the walked target and whether it existed before.
    ///
    /// # Errors
    ///
    /// `EACCES`/`EISDIR`/resolution errors as appropriate.
    pub fn creat(&mut self, abs_path: &str, mode: Mode, cred: &Credentials, umask: u16) -> SysResult<(Walked, bool)> {
        let probe = self.probe(abs_path, true, cred);
        self.creat_probed(abs_path, &probe, mode, cred, umask)
    }

    /// [`Vfs::creat`] of a path already probed with `follow_last`. When the
    /// walk reached the parent directory without a symlink and only the
    /// final name is missing, the file is created there with no second
    /// walk; every other miss takes the general path.
    pub(crate) fn creat_probed(
        &mut self,
        abs_path: &str,
        probe: &Probe<'_>,
        mode: Mode,
        cred: &Credentials,
        umask: u16,
    ) -> SysResult<(Walked, bool)> {
        match self.checked_stop(probe) {
            Ok(id) => Ok((self.truncate(id, abs_path, cred)?, true)),
            Err(stop) if stop.errno() == Errno::Enoent => match probe.trail.missing_in {
                Some(dir) => Ok((
                    self.create_entry(dir, final_name(abs_path)?, abs_path, mode, cred, umask)?,
                    false,
                )),
                None => self.creat_inner(abs_path, mode, cred, umask, SYMLINK_BUDGET),
            },
            Err(stop) => Err(self.surface(stop)),
        }
    }

    fn creat_inner(
        &mut self,
        abs_path: &str,
        mode: Mode,
        cred: &Credentials,
        umask: u16,
        depth: usize,
    ) -> SysResult<(Walked, bool)> {
        match self.walk_to(abs_path, true, Search::Enforce(cred)) {
            Ok(id) => Ok((self.truncate(id, abs_path, cred)?, true)),
            Err(stop) if stop.errno() == Errno::Enoent => {
                // A dangling symlink at the final component: `creat` creates
                // the *target* (POSIX `open(O_CREAT)` semantics) — the path
                // the planted-symlink perturbations rely on.
                if let Some(id) = self.reaches(abs_path, false, Search::Enforce(cred)) {
                    if let FileKind::Symlink(target) = &self.inode(id)?.kind {
                        if depth == 0 {
                            return Err(syserr!(Eloop, "{abs_path}"));
                        }
                        let target_abs = if path::is_absolute(target) {
                            target.clone()
                        } else {
                            path::join(&self.physical(self.parent_of(id)), target)
                        };
                        return self.creat_inner(&target_abs, mode, cred, umask, depth - 1);
                    }
                }
                Ok((self.create_in_parent(abs_path, mode, cred, umask)?, false))
            }
            Err(stop) => Err(self.surface(stop)),
        }
    }

    /// `creat`'s existing-file branch: truncates the file `abs_path`
    /// reached, after the directory and write-permission checks.
    fn truncate(&mut self, id: InodeId, abs_path: &str, cred: &Credentials) -> SysResult<Walked> {
        let ino = self.inode(id)?;
        if ino.is_dir() {
            return Err(syserr!(Eisdir, "{abs_path}"));
        }
        if !ino.mode.grants(ino.owner, ino.group, cred, Access::Write) {
            return Err(syserr!(Eacces, "{abs_path}"));
        }
        if let FileKind::Regular(d) = &mut self.inode_mut(id)?.kind {
            *d = Data::new();
        }
        Ok(self.walked(id))
    }

    /// `open(O_CREAT|O_EXCL)` semantics: fails with `EEXIST` if the final
    /// component exists *at all*, including as a dangling symlink — the
    /// secure temp-file idiom.
    ///
    /// # Errors
    ///
    /// `EEXIST` when the path exists; otherwise as [`Vfs::creat`].
    pub fn create_excl(&mut self, abs_path: &str, mode: Mode, cred: &Credentials, umask: u16) -> SysResult<Walked> {
        let probe = self.probe(abs_path, false, cred);
        if probe.trail.denied.is_none() && probe.found.is_ok() {
            return Err(syserr!(Eexist, "{abs_path}"));
        }
        match (probe.trail.denied, probe.trail.missing_in) {
            (None, Some(dir)) => self.create_entry(dir, final_name(abs_path)?, abs_path, mode, cred, umask),
            _ => self.create_in_parent(abs_path, mode, cred, umask),
        }
    }

    fn create_in_parent(&mut self, abs_path: &str, mode: Mode, cred: &Credentials, umask: u16) -> SysResult<Walked> {
        let (dir, name) = self.resolve_parent(abs_path, Search::Enforce(cred))?;
        self.create_entry(dir, name, abs_path, mode, cred, umask)
    }

    /// Creates the regular file `name` in `dir`, the parent `abs_path`
    /// resolved to, after the parent-write and existence checks.
    fn create_entry(
        &mut self,
        dir: InodeId,
        name: &str,
        abs_path: &str,
        mode: Mode,
        cred: &Credentials,
        umask: u16,
    ) -> SysResult<Walked> {
        let dir_ino = self.inode(dir)?;
        if !dir_ino.mode.grants(dir_ino.owner, dir_ino.group, cred, Access::Write) {
            return Err(self.with_physical(dir, |p| syserr!(Eacces, "cannot create in {p}")));
        }
        if dir_ino
            .entries()
            .expect("parent checked to be a directory")
            .contains_key(name)
        {
            return Err(syserr!(Eexist, "{abs_path}"));
        }
        let id = self.alloc(
            FileKind::Regular(Data::new()),
            cred.euid,
            cred.egid,
            mode.apply_umask(umask),
        );
        self.link_child(dir, name, id)?;
        Ok(self.walked(id))
    }

    /// Reads a file's content (no permission check — callers check via
    /// [`Vfs::open_read`] first, mirroring the fd model). The content's
    /// text is shared with the inode, not copied.
    pub fn read(&self, id: InodeId) -> SysResult<Data> {
        match &self.inode(id)?.kind {
            FileKind::Regular(d) => Ok(d.clone()),
            _ => Err(syserr!(Eisdir, "read on non-regular inode {id}")),
        }
    }

    /// Overwrites or appends to a file's content. An overwrite keeps the
    /// text shared ([`Data::to_shared`]), so later reads do not copy it.
    pub fn write(&mut self, id: InodeId, data: &Data, append: bool) -> SysResult<()> {
        match &mut self.inode_mut(id)?.kind {
            FileKind::Regular(d) => {
                if append {
                    d.append(data);
                } else {
                    *d = data.to_shared();
                }
                Ok(())
            }
            _ => Err(syserr!(Eisdir, "write on non-regular inode {id}")),
        }
    }

    /// Removes a directory entry (does not follow a final symlink).
    ///
    /// Enforces write permission on the parent directory and the sticky-bit
    /// rule: in a sticky directory only the entry's owner, the directory's
    /// owner, or root may unlink.
    ///
    /// Returns the `Stat` of the removed object.
    pub fn unlink(&mut self, abs_path: &str, cred: &Credentials) -> SysResult<Stat> {
        let (dir, name) = self.resolve_parent(abs_path, Search::Enforce(cred))?;
        self.unlink_entry(dir, name, abs_path, cred)
    }

    /// [`Vfs::unlink`] once the parent walk of `abs_path` reached `dir`,
    /// with `name` its final component.
    pub(crate) fn unlink_entry(
        &mut self,
        dir: InodeId,
        name: &str,
        abs_path: &str,
        cred: &Credentials,
    ) -> SysResult<Stat> {
        let dir_ino = self.inode(dir)?;
        if !dir_ino.mode.grants(dir_ino.owner, dir_ino.group, cred, Access::Write) {
            return Err(syserr!(Eacces, "{abs_path}"));
        }
        let target = *dir_ino
            .entries()
            .expect("parent is a directory")
            .get(name)
            .ok_or_else(|| syserr!(Enoent, "{abs_path}"))?;
        let target_ino = self.inode(target)?;
        if target_ino.is_dir() {
            return Err(syserr!(Eisdir, "{abs_path}"));
        }
        if dir_ino.mode.is_sticky()
            && !cred.euid.is_root()
            && cred.euid != target_ino.owner
            && cred.euid != dir_ino.owner
        {
            return Err(syserr!(Eperm, "sticky: {abs_path}"));
        }
        let st = Stat::of(target_ino);
        self.unlink_child(dir, name)?;
        self.drop_inode(target);
        Ok(st)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, abs_path: &str, mode: Mode, cred: &Credentials, umask: u16) -> SysResult<Walked> {
        if self.reaches(abs_path, false, Search::Enforce(cred)).is_some() {
            return Err(syserr!(Eexist, "{abs_path}"));
        }
        let (dir, name) = self.resolve_parent(abs_path, Search::Enforce(cred))?;
        let dir_ino = self.inode(dir)?;
        if !dir_ino.mode.grants(dir_ino.owner, dir_ino.group, cred, Access::Write) {
            return Err(self.with_physical(dir, |p| syserr!(Eacces, "cannot mkdir in {p}")));
        }
        let id = self.alloc(
            FileKind::Directory(BTreeMap::new()),
            cred.euid,
            cred.egid,
            mode.apply_umask(umask),
        );
        self.link_child(dir, name, id)?;
        Ok(self.walked(id))
    }

    /// Creates a symbolic link at `link` pointing at `target` (text).
    pub fn symlink(&mut self, target: &str, link: &str, cred: &Credentials) -> SysResult<Walked> {
        if self.reaches(link, false, Search::Enforce(cred)).is_some() {
            return Err(syserr!(Eexist, "{link}"));
        }
        let (dir, name) = self.resolve_parent(link, Search::Enforce(cred))?;
        let dir_ino = self.inode(dir)?;
        if !dir_ino.mode.grants(dir_ino.owner, dir_ino.group, cred, Access::Write) {
            return Err(self.with_physical(dir, |p| syserr!(Eacces, "cannot symlink in {p}")));
        }
        let id = self.alloc(
            FileKind::Symlink(target.to_string()),
            cred.euid,
            cred.egid,
            Mode::new(0o777),
        );
        self.link_child(dir, name, id)?;
        Ok(self.walked(id))
    }

    /// Reads a symlink's target text.
    pub fn readlink(&self, abs_path: &str, cred: &Credentials) -> SysResult<String> {
        let id = self.lookup(abs_path, false, Search::Enforce(cred))?;
        match &self.inode(id)?.kind {
            FileKind::Symlink(t) => Ok(t.clone()),
            _ => Err(syserr!(Einval, "{abs_path} is not a symlink")),
        }
    }

    /// Renames a file or symlink. Both parents need write permission.
    pub fn rename(&mut self, from: &str, to: &str, cred: &Credentials) -> SysResult<()> {
        let (from_dir, from_name) = self.resolve_parent(from, Search::Enforce(cred))?;
        let (to_dir, to_name) = self.resolve_parent(to, Search::Enforce(cred))?;
        for dirid in [from_dir, to_dir] {
            let d = self.inode(dirid)?;
            if !d.mode.grants(d.owner, d.group, cred, Access::Write) {
                return Err(syserr!(Eacces, "rename {from} -> {to}"));
            }
        }
        let moving = {
            let d = self.inode(from_dir)?;
            *d.entries()
                .expect("parent is a directory")
                .get(from_name)
                .ok_or_else(|| syserr!(Enoent, "{from}"))?
        };
        self.unlink_child(from_dir, from_name)?;
        self.link_child(to_dir, to_name, moving)?;
        Ok(())
    }

    /// Changes permission bits; only the owner or root may do this.
    pub fn chmod(&mut self, abs_path: &str, mode: Mode, cred: &Credentials) -> SysResult<()> {
        let id = self.lookup(abs_path, true, Search::Enforce(cred))?;
        let ino = self.inode_mut(id)?;
        if !cred.euid.is_root() && cred.euid != ino.owner {
            return Err(syserr!(Eperm, "{abs_path}"));
        }
        ino.mode = mode;
        Ok(())
    }

    /// Changes ownership; only root may do this.
    pub fn chown(&mut self, abs_path: &str, owner: Uid, group: Gid, cred: &Credentials) -> SysResult<()> {
        if !cred.euid.is_root() {
            return Err(syserr!(Eperm, "{abs_path}"));
        }
        let id = self.lookup(abs_path, true, Search::Enforce(cred))?;
        let ino = self.inode_mut(id)?;
        ino.owner = owner;
        ino.group = group;
        Ok(())
    }

    /// `stat` (follows symlinks).
    pub fn stat(&self, abs_path: &str, cred: Option<&Credentials>) -> SysResult<Stat> {
        let id = self.lookup(abs_path, true, Search::from_cred(cred))?;
        Ok(Stat::of(self.inode(id)?))
    }

    /// `lstat` (does not follow a final symlink).
    pub fn lstat(&self, abs_path: &str, cred: Option<&Credentials>) -> SysResult<Stat> {
        let id = self.lookup(abs_path, false, Search::from_cred(cred))?;
        Ok(Stat::of(self.inode(id)?))
    }

    /// Lists a directory's entry names (requires read permission).
    pub fn list_dir(&self, abs_path: &str, cred: &Credentials) -> SysResult<Vec<String>> {
        let id = self.lookup(abs_path, true, Search::Enforce(cred))?;
        let ino = self.inode(id)?;
        if !ino.mode.grants(ino.owner, ino.group, cred, Access::Read) {
            return Err(syserr!(Eacces, "{abs_path}"));
        }
        ino.entries()
            .map(|e| e.keys().map(ToString::to_string).collect())
            .ok_or_else(|| syserr!(Enotdir, "{abs_path}"))
    }

    /// True when the path exists (lstat semantics, god-mode).
    pub fn exists(&self, abs_path: &str) -> bool {
        self.reaches(abs_path, false, Search::Unchecked).is_some()
    }
    // ------------------------------------------------------------------
    // God-mode helpers (world building & fault injection)
    // ------------------------------------------------------------------

    /// Creates every missing directory along `abs_path` with the given
    /// owner and mode. Existing components are left untouched.
    pub fn mkdir_p(&mut self, abs_path: &str, owner: Uid, group: Gid, mode: Mode) -> SysResult<InodeId> {
        if !path::is_absolute(abs_path) {
            return Err(syserr!(Einval, "{abs_path}"));
        }
        let mut cur = self.root;
        for comp in path::components(abs_path) {
            let existing = {
                let ino = self.inode(cur)?;
                let entries = ino.entries().ok_or_else(|| syserr!(Enotdir, "{abs_path}"))?;
                entries.get(comp).copied()
            };
            cur = match existing {
                Some(id) => id,
                None => {
                    let id = self.alloc(FileKind::Directory(BTreeMap::new()), owner, group, mode);
                    self.link_child(cur, comp, id)?;
                    id
                }
            };
        }
        Ok(cur)
    }

    /// The directory a god-mode helper links `abs_path` into (created root-owned
    /// 0755 as needed; `ENOTDIR` if it names a non-directory) and the name to use.
    fn god_parent<'a>(&mut self, abs_path: &'a str) -> SysResult<(InodeId, &'a str)> {
        let parent_path = path::parent_of_clean(abs_path)
            .map(Cow::Borrowed)
            .or_else(|| path::parent(abs_path).map(Cow::Owned))
            .ok_or_else(|| syserr!(Einval, "{abs_path}"))?;
        let dir = self.mkdir_p(&parent_path, Uid::ROOT, Gid::ROOT, Mode::new(0o755))?;
        if !self.inode(dir)?.is_dir() {
            return Err(syserr!(Enotdir, "{parent_path}"));
        }
        Ok((
            dir,
            path::file_name(abs_path).ok_or_else(|| syserr!(Einval, "{abs_path}"))?,
        ))
    }

    /// Installs (or replaces) a regular file with the given content,
    /// creating parents root-owned 0755 as needed.
    pub fn put_file(
        &mut self,
        abs_path: &str,
        content: impl Into<Data>,
        owner: Uid,
        group: Gid,
        mode: Mode,
    ) -> SysResult<InodeId> {
        let (dir, name) = self.god_parent(abs_path)?;
        // Replace any existing entry (link_child drops the displaced
        // entry's parent link; the inode itself is dropped here).
        if let Some(old) = self.inode(dir)?.entries().and_then(|e| e.get(name)).copied() {
            self.drop_inode(old);
        }
        let id = self.alloc(FileKind::Regular(content.into()), owner, group, mode);
        self.link_child(dir, name, id)?;
        Ok(id)
    }

    /// Removes a path unconditionally (no permission checks). Directories
    /// are removed recursively.
    pub fn god_remove(&mut self, abs_path: &str) -> SysResult<()> {
        let (dir, name) = self.resolve_parent(abs_path, Search::Unchecked)?;
        let target = {
            let d = self.inode(dir)?;
            *d.entries()
                .expect("parent is a directory")
                .get(name)
                .ok_or_else(|| syserr!(Enoent, "{abs_path}"))?
        };
        self.unlink_child(dir, name)?;
        // Recursively drop unreachable children (and their parent links).
        let mut stack = vec![target];
        while let Some(id) = stack.pop() {
            self.set_parent_link(id, None);
            if let Some(ino) = self.drop_inode(id) {
                if let FileKind::Directory(entries) = &ino.kind {
                    stack.extend(entries.values().copied());
                }
            }
        }
        Ok(())
    }

    /// Replaces whatever is at `abs_path` with a symlink to `target`
    /// (the symlink-swap perturbation).
    pub fn god_symlink(&mut self, abs_path: &str, target: &str) -> SysResult<InodeId> {
        if self.exists(abs_path) {
            self.god_remove(abs_path)?;
        }
        let (dir, name) = self.god_parent(abs_path)?;
        let id = self.alloc(
            FileKind::Symlink(target.to_string()),
            Uid::ROOT,
            Gid::ROOT,
            Mode::new(0o777),
        );
        self.link_child(dir, name, id)?;
        Ok(id)
    }

    /// Changes owner unconditionally.
    pub fn god_chown(&mut self, abs_path: &str, owner: Uid, group: Gid) -> SysResult<()> {
        let id = self.lookup(abs_path, false, Search::Unchecked)?;
        let ino = self.inode_mut(id)?;
        ino.owner = owner;
        ino.group = group;
        Ok(())
    }

    /// Changes mode unconditionally.
    pub fn god_chmod(&mut self, abs_path: &str, mode: Mode) -> SysResult<()> {
        let id = self.lookup(abs_path, false, Search::Unchecked)?;
        self.inode_mut(id)?.mode = mode;
        Ok(())
    }

    /// Overwrites content unconditionally (follows symlinks).
    pub fn god_write(&mut self, abs_path: &str, content: impl Into<Data>) -> SysResult<()> {
        let id = self.lookup(abs_path, true, Search::Unchecked)?;
        match &mut self.inode_mut(id)?.kind {
            FileKind::Regular(d) => {
                *d = content.into();
                Ok(())
            }
            _ => Err(syserr!(Eisdir, "{abs_path}")),
        }
    }

    /// Attaches an oracle tag to a path (follows symlinks).
    pub fn tag(&mut self, abs_path: &str, tag: FileTag) -> SysResult<()> {
        let id = self.lookup(abs_path, true, Search::Unchecked)?;
        self.inode_mut(id)?.tags.insert(tag);
        Ok(())
    }

    /// Reads content by path without permission checks (oracle/test use).
    pub fn god_read(&self, abs_path: &str) -> SysResult<Data> {
        let id = self.lookup(abs_path, true, Search::Unchecked)?;
        self.read(id)
    }

    /// Verifies internal consistency: every directory entry points at a
    /// live inode, every non-root inode is reachable, and the parent-link
    /// index mirrors the tree exactly. Used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut reachable: BTreeSet<u64> = BTreeSet::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            if !reachable.insert(id.0) {
                continue;
            }
            let ino = self.inode(id).map_err(|_| format!("dangling entry to {id}"))?;
            if let Some(entries) = ino.entries() {
                for (name, child) in entries {
                    match self.parents.get(slot(*child)).copied().flatten() {
                        Some((p, n)) if p == id && n == *name => {}
                        other => return Err(format!("parent link for {child} is {other:?}, expected ({id}, {name})")),
                    }
                    stack.push(*child);
                }
            }
        }
        for (id, _) in self.live() {
            if !reachable.contains(&id) {
                return Err(format!("orphan inode ino:{id}"));
            }
        }
        let links = self.parents.iter().flatten().count();
        if links != reachable.len() - 1 {
            return Err(format!(
                "parent index has {links} entries for {} non-root inodes",
                reachable.len() - 1
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cred(uid: u32) -> Credentials {
        Credentials::user(Uid(uid), Gid(uid))
    }

    fn setup() -> Vfs {
        let mut fs = Vfs::new();
        fs.mkdir_p("/etc", Uid::ROOT, Gid::ROOT, Mode::new(0o755)).unwrap();
        fs.mkdir_p("/tmp", Uid::ROOT, Gid::ROOT, Mode::new(0o1777)).unwrap();
        fs.mkdir_p("/home/alice", Uid(100), Gid(100), Mode::new(0o755)).unwrap();
        fs.put_file("/etc/passwd", "root:0:0:", Uid::ROOT, Gid::ROOT, Mode::new(0o644))
            .unwrap();
        fs.put_file("/etc/shadow", "root:HASH:", Uid::ROOT, Gid::ROOT, Mode::new(0o600))
            .unwrap();
        fs
    }

    #[test]
    fn god_helpers_clean_unclean_paths_as_before() {
        let mut fs = setup();
        let (u, g, m) = (Uid::ROOT, Gid::ROOT, Mode::new(0o644));
        fs.put_file("/var//spool/./job", "j", u, g, m).unwrap();
        fs.put_file("/srv/data/", "d", u, g, m).unwrap();
        fs.put_file("/opt/x/../y", "y", u, g, m).unwrap();
        fs.god_symlink("/lnk//here/", "/etc/passwd").unwrap();
        assert_eq!(fs.god_read("/var/spool/job").unwrap().text(), "j");
        assert_eq!(fs.god_read("/srv/data").unwrap().text(), "d");
        // `..` is resolved lexically: the parent of `/opt/x/../y` is `/opt`.
        assert_eq!(fs.god_read("/opt/y").unwrap().text(), "y");
        assert_eq!(fs.lstat("/lnk/here", None).unwrap().file_type, FileType::Symlink);
        assert!(fs.put_file("/", "r", u, g, m).is_err());
        fs.check_invariants().unwrap();
    }

    #[test]
    fn reads_share_the_inode_text_and_writes_do_not_leak() {
        let mut fs = setup();
        let id = fs.walk("/etc/passwd", true, None).unwrap().id;
        let (a, b) = (fs.read(id).unwrap(), fs.read(id).unwrap());
        assert_eq!(a.as_text().as_ptr(), b.as_text().as_ptr(), "two reads share one text");
        let mut local = a.clone();
        local.push_str("more");
        assert_eq!(fs.read(id).unwrap().text(), "root:0:0:");
        fs.write(id, &Data::from(String::from("new")), false).unwrap();
        let (c, d) = (fs.read(id).unwrap(), fs.read(id).unwrap());
        assert_eq!(
            c.as_text().as_ptr(),
            d.as_text().as_ptr(),
            "a written text is shared too"
        );
        assert_eq!(a.text(), "root:0:0:");
        fs.write(id, &Data::from("+"), true).unwrap();
        assert_eq!(fs.read(id).unwrap().text(), "new+");
        assert_eq!(c.text(), "new");
    }

    #[test]
    fn walk_resolves_and_reports_physical_path() {
        let fs = setup();
        let w = fs.walk("/etc/passwd", true, None).unwrap();
        assert_eq!(w.physical, "/etc/passwd");
        assert!(fs.inode(w.id).unwrap().is_file());
    }

    #[test]
    fn walk_missing_is_enoent() {
        let fs = setup();
        let e = fs.walk("/etc/nothing", true, None).unwrap_err();
        assert_eq!(e.errno, Errno::Enoent);
    }

    #[test]
    fn dotdot_is_physical_across_symlinks() {
        let mut fs = setup();
        // /home/alice/link -> /etc ; /home/alice/link/../shadow2 must be /etc/../shadow2 = /shadow2? No:
        // physical `..` of /etc is /, so the path resolves under /, not under /home/alice.
        fs.god_symlink("/home/alice/link", "/etc").unwrap();
        fs.put_file("/probe", "x", Uid::ROOT, Gid::ROOT, Mode::new(0o644))
            .unwrap();
        let w = fs.walk("/home/alice/link/../probe", true, None).unwrap();
        assert_eq!(w.physical, "/probe");
    }

    #[test]
    fn symlink_loop_detected() {
        let mut fs = setup();
        fs.god_symlink("/a", "/b").unwrap();
        fs.god_symlink("/b", "/a").unwrap();
        let e = fs.walk("/a", true, None).unwrap_err();
        assert_eq!(e.errno, Errno::Eloop);
    }

    #[test]
    fn creat_follows_final_symlink() {
        let mut fs = setup();
        fs.god_symlink("/tmp/spool", "/etc/passwd").unwrap();
        let root = Credentials::root();
        let (w, existed) = fs.creat("/tmp/spool", Mode::new(0o660), &root, 0).unwrap();
        assert!(existed, "creat through symlink hits the existing target");
        assert_eq!(w.physical, "/etc/passwd");
        // Content was truncated — this is the lpr attack in miniature.
        assert_eq!(fs.god_read("/etc/passwd").unwrap().len(), 0);
    }

    #[test]
    fn creat_through_dangling_symlink_creates_target() {
        let mut fs = setup();
        fs.mkdir_p("/etc/cron.d", Uid::ROOT, Gid::ROOT, Mode::new(0o755))
            .unwrap();
        fs.god_symlink("/tmp/spool", "/etc/cron.d/evil").unwrap();
        let (w, existed) = fs
            .creat("/tmp/spool", Mode::new(0o660), &Credentials::root(), 0)
            .unwrap();
        assert!(!existed);
        assert_eq!(w.physical, "/etc/cron.d/evil");
        assert!(fs.exists("/etc/cron.d/evil"));
    }

    #[test]
    fn create_excl_refuses_symlink() {
        let mut fs = setup();
        fs.god_symlink("/tmp/spool", "/etc/passwd").unwrap();
        let e = fs
            .create_excl("/tmp/spool", Mode::new(0o600), &Credentials::root(), 0)
            .unwrap_err();
        assert_eq!(e.errno, Errno::Eexist);
        // Target untouched.
        assert_eq!(fs.god_read("/etc/passwd").unwrap().text(), "root:0:0:");
    }

    #[test]
    fn unchecked_user_cannot_read_shadow() {
        let fs = setup();
        let e = fs.open_read("/etc/shadow", &cred(100)).unwrap_err();
        assert_eq!(e.errno, Errno::Eacces);
        assert!(fs.open_read("/etc/shadow", &Credentials::root()).is_ok());
    }

    #[test]
    fn sticky_tmp_protects_other_users_files() {
        let mut fs = setup();
        fs.put_file("/tmp/victim", "data", Uid(200), Gid(200), Mode::new(0o666))
            .unwrap();
        // /tmp is sticky: alice (100) cannot unlink bob's (200) file.
        let e = fs.unlink("/tmp/victim", &cred(100)).unwrap_err();
        assert_eq!(e.errno, Errno::Eperm);
        assert!(fs.unlink("/tmp/victim", &cred(200)).is_ok());
    }

    #[test]
    fn traversal_requires_exec_permission() {
        let mut fs = setup();
        fs.mkdir_p("/private", Uid(200), Gid(200), Mode::new(0o700)).unwrap();
        fs.put_file("/private/f", "x", Uid(200), Gid(200), Mode::new(0o644))
            .unwrap();
        let e = fs.walk("/private/f", true, Some(&cred(100))).unwrap_err();
        assert_eq!(e.errno, Errno::Eacces);
        assert!(fs.walk("/private/f", true, Some(&cred(200))).is_ok());
    }

    #[test]
    fn create_needs_parent_write() {
        let mut fs = setup();
        let e = fs.creat("/etc/evil", Mode::new(0o644), &cred(100), 0o22).unwrap_err();
        assert_eq!(e.errno, Errno::Eacces);
        // /tmp is world-writable.
        assert!(fs.creat("/tmp/ok", Mode::new(0o644), &cred(100), 0o22).is_ok());
    }

    #[test]
    fn umask_applies_to_new_files() {
        let mut fs = setup();
        fs.creat("/tmp/masked", Mode::new(0o666), &cred(100), 0o077).unwrap();
        assert_eq!(fs.stat("/tmp/masked", None).unwrap().mode.bits(), 0o600);
    }

    #[test]
    fn rename_moves_entries() {
        let mut fs = setup();
        fs.put_file("/tmp/a", "x", Uid(100), Gid(100), Mode::new(0o644))
            .unwrap();
        fs.rename("/tmp/a", "/tmp/b", &cred(100)).unwrap();
        assert!(!fs.exists("/tmp/a"));
        assert!(fs.exists("/tmp/b"));
    }

    #[test]
    fn chmod_owner_only() {
        let mut fs = setup();
        fs.put_file("/tmp/mine", "x", Uid(100), Gid(100), Mode::new(0o644))
            .unwrap();
        assert!(fs.chmod("/tmp/mine", Mode::new(0o600), &cred(200)).is_err());
        assert!(fs.chmod("/tmp/mine", Mode::new(0o600), &cred(100)).is_ok());
        assert!(fs.chmod("/tmp/mine", Mode::new(0o644), &Credentials::root()).is_ok());
    }

    #[test]
    fn chown_root_only() {
        let mut fs = setup();
        fs.put_file("/tmp/mine", "x", Uid(100), Gid(100), Mode::new(0o644))
            .unwrap();
        assert!(fs.chown("/tmp/mine", Uid(200), Gid(200), &cred(100)).is_err());
        assert!(fs.chown("/tmp/mine", Uid(200), Gid(200), &Credentials::root()).is_ok());
        assert_eq!(fs.stat("/tmp/mine", None).unwrap().owner, Uid(200));
    }

    #[test]
    fn stat_vs_lstat_on_symlink() {
        let mut fs = setup();
        fs.god_symlink("/tmp/ln", "/etc/passwd").unwrap();
        assert_eq!(fs.stat("/tmp/ln", None).unwrap().file_type, FileType::Regular);
        assert_eq!(fs.lstat("/tmp/ln", None).unwrap().file_type, FileType::Symlink);
    }

    #[test]
    fn god_remove_is_recursive_and_invariant_safe() {
        let mut fs = setup();
        fs.mkdir_p("/deep/a/b", Uid::ROOT, Gid::ROOT, Mode::new(0o755)).unwrap();
        fs.put_file("/deep/a/b/f", "x", Uid::ROOT, Gid::ROOT, Mode::new(0o644))
            .unwrap();
        let before = fs.inode_count();
        fs.god_remove("/deep").unwrap();
        assert!(fs.inode_count() < before);
        fs.check_invariants().unwrap();
    }

    #[test]
    fn path_of_reconstructs() {
        let fs = setup();
        let w = fs.walk("/etc/shadow", true, None).unwrap();
        assert_eq!(fs.path_of(w.id).map(|p| p.as_str()), Some("/etc/shadow"));
        assert_eq!(fs.path_of(fs.root()).map(|p| p.as_str()), Some("/"));
    }

    #[test]
    fn path_of_tracks_rename_and_removal() {
        let mut fs = setup();
        fs.put_file("/tmp/a", "x", Uid(100), Gid(100), Mode::new(0o644))
            .unwrap();
        let id = fs.walk("/tmp/a", false, None).unwrap().id;
        fs.rename("/tmp/a", "/tmp/b", &cred(100)).unwrap();
        assert_eq!(fs.path_of(id).map(|p| p.as_str()), Some("/tmp/b"));
        fs.unlink("/tmp/b", &cred(100)).unwrap();
        assert_eq!(fs.path_of(id), None);
        fs.check_invariants().unwrap();
    }

    #[test]
    fn tags_round_trip() {
        let mut fs = setup();
        fs.tag("/etc/shadow", FileTag::Secret).unwrap();
        assert!(fs.stat("/etc/shadow", None).unwrap().tags.contains(&FileTag::Secret));
    }

    #[test]
    fn invariants_hold_after_setup() {
        setup().check_invariants().unwrap();
    }

    #[test]
    fn clone_is_copy_on_write_snapshot() {
        let fs = setup();
        let snap = fs.clone();
        assert_eq!(snap.shared_inodes_with(&fs), fs.inode_count());
        let mut mutated = fs.clone();
        mutated.god_write("/etc/passwd", "evil").unwrap();
        // The original snapshot is untouched and only the written inode was
        // unshared.
        assert_eq!(fs.god_read("/etc/passwd").unwrap().text(), "root:0:0:");
        assert_eq!(mutated.god_read("/etc/passwd").unwrap().text(), "evil");
        assert_eq!(mutated.shared_inodes_with(&fs), fs.inode_count() - 1);
        fs.check_invariants().unwrap();
        mutated.check_invariants().unwrap();
    }

    #[test]
    fn deep_clone_shares_nothing_but_compares_equal() {
        let fs = setup();
        let deep = fs.deep_clone();
        assert_eq!(deep, fs);
        assert_eq!(deep.shared_inodes_with(&fs), 0);
        deep.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_equality_tracks_content_not_sharing() {
        let fs = setup();
        let mut snap = fs.clone();
        assert_eq!(snap, fs, "a copy-on-write clone compares equal");
        let original = snap.stat("/etc/passwd", None).unwrap().mode;
        snap.god_chmod("/etc/passwd", Mode::new(0o666)).unwrap();
        assert_ne!(snap, fs, "a chmod on one inode is visible to equality");
        assert_eq!(snap.shared_inodes_with(&fs), fs.inode_count() - 1);
        snap.god_chmod("/etc/passwd", original).unwrap();
        assert_eq!(snap, fs, "restoring the mode restores equality");
        assert_eq!(snap.shared_inodes_with(&fs), fs.inode_count() - 1);
    }

    #[test]
    fn snapshot_mutation_does_not_leak_into_sibling_clones() {
        let fs = setup();
        let mut a = fs.clone();
        let mut b = fs.clone();
        a.put_file("/tmp/a-only", "a", Uid(100), Gid(100), Mode::new(0o644))
            .unwrap();
        b.god_remove("/etc/shadow").unwrap();
        assert!(!fs.exists("/tmp/a-only"));
        assert!(!b.exists("/tmp/a-only"));
        assert!(fs.exists("/etc/shadow"));
        assert!(a.exists("/etc/shadow"));
    }

    #[test]
    fn dense_table_serializes_and_hashes_as_the_map_did() {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut fs = setup();
        fs.god_remove("/etc/shadow").unwrap();
        let map: BTreeMap<u64, Arc<Inode>> = fs.live().map(|(id, ino)| (id, Arc::clone(ino))).collect();
        let wire = fs.ser();
        let fields = wire.as_map().unwrap();
        assert_eq!(fields[0], (String::from("inodes"), map.ser()));
        let (mut dense, mut sparse) = (DefaultHasher::new(), DefaultHasher::new());
        fs.hash(&mut dense);
        (&map, fs.root, fs.next_id).hash(&mut sparse);
        assert_eq!(dense.finish(), sparse.finish());
        let back = Vfs::de(&wire).unwrap();
        assert_eq!(back, fs);
        back.check_invariants().unwrap();
        assert_eq!(
            back.path_of(back.walk("/etc/passwd", true, None).unwrap().id).unwrap(),
            "/etc/passwd"
        );
    }

    #[test]
    fn deserialize_bounds_the_table_it_allocates() {
        let wire = |next_id: u64, id: u64| {
            let mut v = Vfs::new().ser();
            if let serde::Value::Map(fields) = &mut v {
                fields[2].1 = next_id.ser();
                if let serde::Value::Seq(entries) = &mut fields[0].1 {
                    if let serde::Value::Seq(pair) = &mut entries[0] {
                        pair[0] = id.ser();
                    }
                }
            }
            v
        };
        assert!(Vfs::de(&wire(2, 1)).is_ok());
        assert!(
            Vfs::de(&wire(MAX_NEXT_ID + 1, 1)).is_err(),
            "an oversized table is refused"
        );
        assert!(Vfs::de(&wire(2, 7)).is_err(), "an id at or past next_id is refused");
    }

    #[test]
    fn list_dir_requires_read() {
        let mut fs = setup();
        fs.mkdir_p("/secretdir", Uid(200), Gid(200), Mode::new(0o711)).unwrap();
        assert!(fs.list_dir("/secretdir", &cred(100)).is_err());
        let names = fs.list_dir("/etc", &cred(100)).unwrap();
        assert!(names.contains(&"passwd".to_string()));
    }
}
