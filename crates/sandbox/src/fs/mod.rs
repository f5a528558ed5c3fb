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
//! The inode table is `Arc`-backed at two levels (the table itself and each
//! inode), so `Vfs::clone` is O(1) and the first mutation of a shared
//! snapshot pays only for the inodes it actually touches. Campaigns exploit
//! this by freezing one pristine world and cloning it per injected fault;
//! [`Vfs::deep_clone`] materializes a fully independent copy for callers
//! that need one (and for the deep-clone-vs-snapshot benches).

mod inode;

pub use inode::{FileKind, FileTag, FileType, Inode, InodeId, Stat};

use shim_sync::sync::Arc;
use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::cred::{Credentials, Gid, Uid};
use crate::data::Data;
use crate::error::{Errno, SysResult};
use crate::intern::{self, PathSym};
use crate::mode::{Access, Mode};
use crate::path;
use crate::syserr;

/// Maximum symlink expansions in a single resolution (mirrors `SYMLOOP_MAX`).
const SYMLINK_BUDGET: usize = 40;

/// Maximum length of a single path component (mirrors `NAME_MAX`) — the
/// limit "change length" perturbations push file names past.
pub const NAME_MAX: usize = 255;

/// The absolute path whose components are `names` (`/` for none).
fn rooted(names: &[&str]) -> String {
    format!("/{}", names.join("/"))
}

/// Result of a successful path walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Walked {
    /// The resolved inode.
    pub id: InodeId,
    /// Physical absolute path of the resolved inode (symlinks expanded),
    /// interned once at the end of the walk — `Copy`, and allocation-free
    /// to propagate into audit events.
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

/// The virtual file system.
///
/// `clone` is a copy-on-write snapshot: the inode table is shared until
/// either copy mutates, and a mutation deep-copies only the touched inodes
/// (plus one table of pointers). Use [`Vfs::deep_clone`] when a fully
/// materialized copy is required.
#[derive(Debug, Clone)]
pub struct Vfs {
    inodes: Arc<BTreeMap<u64, Arc<Inode>>>,
    root: InodeId,
    next_id: u64,
    /// Reverse index `child → (parent, entry name)`, maintained by the
    /// [`Vfs::link_child`]/[`Vfs::unlink_child`] helpers so
    /// [`Vfs::path_of`] is O(depth) instead of a full-tree search. Pure
    /// derived data: excluded from equality and serialization (rebuilt
    /// on deserialize).
    parents: Arc<BTreeMap<u64, (InodeId, PathSym)>>,
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
            && self
                .inodes
                .iter()
                .zip(other.inodes.iter())
                .all(|((ka, a), (kb, b))| ka == kb && (Arc::ptr_eq(a, b) || a == b))
    }
}

impl Eq for Vfs {}

impl std::hash::Hash for Vfs {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // As in `PartialEq`: `parents` is derived from the tree.
        self.inodes.hash(state);
        self.root.hash(state);
        self.next_id.hash(state);
    }
}

impl Serialize for Vfs {
    fn ser(&self) -> serde::Value {
        // Mirrors the old derived layout exactly (three fields, in
        // declaration order) so serialized worlds are byte-identical.
        serde::Value::Map(vec![
            (String::from("inodes"), self.inodes.ser()),
            (String::from("root"), self.root.ser()),
            (String::from("next_id"), self.next_id.ser()),
        ])
    }
}

impl Deserialize for Vfs {
    fn de(v: &serde::Value) -> Result<Vfs, serde::DeError> {
        let map = v.as_map().ok_or_else(|| serde::DeError::expected("map", "Vfs"))?;
        let mut vfs = Vfs {
            inodes: Deserialize::de(serde::field(map, "inodes", "Vfs")?)?,
            root: Deserialize::de(serde::field(map, "root", "Vfs")?)?,
            next_id: Deserialize::de(serde::field(map, "next_id", "Vfs")?)?,
            parents: Arc::new(BTreeMap::new()),
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
        let mut inodes = BTreeMap::new();
        let root = InodeId(1);
        inodes.insert(
            1,
            Arc::new(Inode {
                id: root,
                kind: FileKind::Directory(BTreeMap::new()),
                owner: Uid::ROOT,
                group: Gid::ROOT,
                mode: Mode::new(0o755),
                tags: BTreeSet::new(),
            }),
        );
        Vfs {
            inodes: Arc::new(inodes),
            root,
            next_id: 2,
            parents: Arc::new(BTreeMap::new()),
        }
    }

    /// The root directory inode.
    pub fn root(&self) -> InodeId {
        self.root
    }

    /// The inode table, unsharing it from any sibling snapshot first.
    fn table_mut(&mut self) -> &mut BTreeMap<u64, Arc<Inode>> {
        Arc::make_mut(&mut self.inodes)
    }

    /// Borrow an inode.
    pub fn inode(&self, id: InodeId) -> SysResult<&Inode> {
        self.inodes
            .get(&id.0)
            .map(Arc::as_ref)
            .ok_or_else(|| syserr!(Ebadf, "stale inode {id}"))
    }

    /// Mutably borrow an inode, copy-on-write: a shared inode is deep-copied
    /// before the mutable borrow is handed out.
    pub fn inode_mut(&mut self, id: InodeId) -> SysResult<&mut Inode> {
        self.table_mut()
            .get_mut(&id.0)
            .map(Arc::make_mut)
            .ok_or_else(|| syserr!(Ebadf, "stale inode {id}"))
    }

    /// Total number of live inodes.
    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }

    /// A fully materialized copy sharing no storage with `self` — the
    /// pre-snapshot per-fault setup cost, kept for equivalence tests and
    /// benches.
    pub fn deep_clone(&self) -> Vfs {
        Vfs {
            inodes: Arc::new(self.inodes.iter().map(|(k, v)| (*k, Arc::new((**v).clone()))).collect()),
            root: self.root,
            next_id: self.next_id,
            parents: Arc::new((*self.parents).clone()),
        }
    }

    /// Recomputes the `child → (parent, name)` reverse index from the
    /// tree (used after deserialization, where only the tree travels).
    fn rebuild_parents(&mut self) {
        let mut parents = BTreeMap::new();
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            if !seen.insert(id.0) {
                continue;
            }
            if let Some(entries) = self.inodes.get(&id.0).and_then(|i| i.entries()) {
                for (name, child) in entries {
                    parents.insert(child.0, (id, intern::intern(name)));
                    stack.push(*child);
                }
            }
        }
        self.parents = Arc::new(parents);
    }

    /// Inserts `child` under `dir` as `name`, keeping the reverse index
    /// in sync. Returns the entry the insert displaced, if any.
    fn link_child(&mut self, dir: InodeId, name: &str, child: InodeId) -> SysResult<Option<InodeId>> {
        let replaced = self
            .inode_mut(dir)?
            .entries_mut()
            .expect("link_child target is a directory")
            .insert(name.to_string(), child);
        let parents = Arc::make_mut(&mut self.parents);
        if let Some(old) = replaced {
            parents.remove(&old.0);
        }
        parents.insert(child.0, (dir, intern::intern(name)));
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
            Arc::make_mut(&mut self.parents).remove(&id.0);
        }
        Ok(removed)
    }

    /// Number of inodes whose storage is physically shared with `other`
    /// (copy-on-write introspection; equal content in distinct allocations
    /// does not count).
    pub fn shared_inodes_with(&self, other: &Vfs) -> usize {
        if Arc::ptr_eq(&self.inodes, &other.inodes) {
            return self.inodes.len();
        }
        self.inodes
            .iter()
            .filter(|(k, v)| other.inodes.get(k).is_some_and(|o| Arc::ptr_eq(v, o)))
            .count()
    }

    fn alloc(&mut self, kind: FileKind, owner: Uid, group: Gid, mode: Mode) -> InodeId {
        let id = InodeId(self.next_id);
        self.next_id += 1;
        self.table_mut().insert(
            id.0,
            Arc::new(Inode {
                id,
                kind,
                owner,
                group,
                mode,
                tags: BTreeSet::new(),
            }),
        );
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
        let mut names = Vec::new();
        let (id, parent) = self.resolve(abs_path, follow_last, cred, &mut names)?;
        Ok(Walked {
            id,
            physical: intern::intern(&rooted(&names)),
            parent,
        })
    }

    /// The resolver behind [`Vfs::walk`], for callers that need no physical
    /// path. Returns `(id, parent)` and leaves in `names` the components of
    /// the physical path, borrowed from `abs_path` and from symlink targets.
    fn resolve<'a>(
        &'a self,
        abs_path: &'a str,
        follow_last: bool,
        cred: Option<&Credentials>,
        names: &mut Vec<&'a str>,
    ) -> SysResult<(InodeId, InodeId)> {
        if !path::is_absolute(abs_path) {
            return Err(syserr!(Einval, "walk requires absolute path, got {abs_path}"));
        }
        // Components still to resolve, the next one last.
        let mut pending: Vec<&str> = path::components(abs_path).rev().collect();
        // `inodes[i + 1]` is the inode `names[i]` names; `inodes[0]` is the
        // root, which is its own parent.
        let mut inodes: Vec<InodeId> = vec![self.root];
        let mut budget = SYMLINK_BUDGET;

        while let Some(comp) = pending.pop() {
            if comp.len() > NAME_MAX {
                return Err(syserr!(Enametoolong, "component of {abs_path}"));
            }
            match comp {
                "." => continue,
                ".." => {
                    if inodes.len() > 1 {
                        inodes.pop();
                        names.pop();
                    }
                    continue;
                }
                _ => {}
            }
            // Error text names the directory reached so far.
            let here = || rooted(names);
            let cur_ino = self.inode(*inodes.last().expect("stack never empty"))?;
            let entries = cur_ino.entries().ok_or_else(|| syserr!(Enotdir, "{}", here()))?;
            if let Some(c) = cred {
                if !cur_ino.mode.grants(cur_ino.owner, cur_ino.group, c, Access::Exec) {
                    return Err(syserr!(Eacces, "search permission denied in {}", here()));
                }
            }
            let child = *entries.get(comp).ok_or_else(|| syserr!(Enoent, "{}/{comp}", here()))?;
            if let FileKind::Symlink(target) = &self.inode(child)?.kind {
                if !pending.is_empty() || follow_last {
                    budget = budget.checked_sub(1).ok_or_else(|| syserr!(Eloop, "{abs_path}"))?;
                    if path::is_absolute(target) {
                        inodes.truncate(1);
                        names.clear();
                    }
                    pending.extend(path::components(target).rev());
                    continue;
                }
            }
            inodes.push(child);
            names.push(comp);
        }

        Ok((inodes[inodes.len() - 1], inodes[inodes.len().saturating_sub(2)]))
    }

    /// Resolves the parent directory of `abs_path`, leaving the final
    /// component unresolved (for `creat`, `unlink`, `symlink`, `rename`).
    ///
    /// # Errors
    ///
    /// As [`Vfs::walk`]; additionally `EINVAL` when the final component is
    /// `.` or `..` or the path has no components.
    pub fn walk_parent(&self, abs_path: &str, cred: Option<&Credentials>) -> SysResult<ParentWalk> {
        if !path::is_absolute(abs_path) {
            return Err(syserr!(Einval, "walk_parent requires absolute path, got {abs_path}"));
        }
        let comps: Vec<&str> = path::components(abs_path).collect();
        let name = match comps.last() {
            Some(n) if *n != "." && *n != ".." => (*n).to_string(),
            _ => return Err(syserr!(Einval, "bad final component in {abs_path}")),
        };
        if name.len() > NAME_MAX {
            return Err(syserr!(Enametoolong, "{abs_path}"));
        }
        let parent_path = rooted(&comps[..comps.len() - 1]);
        let walked = self.walk(&parent_path, true, cred)?;
        let dir_ino = self.inode(walked.id)?;
        if !dir_ino.is_dir() {
            return Err(syserr!(Enotdir, "{parent_path}"));
        }
        Ok(ParentWalk {
            dir: walked.id,
            dir_physical: walked.physical,
            name,
        })
    }

    /// Reconstructs the physical path of an inode by following the
    /// parent-link index upward — O(depth), not a tree search (the old
    /// BFS cloned the full name trail per visited node).
    pub fn path_of(&self, id: InodeId) -> Option<PathSym> {
        if id == self.root {
            return Some(PathSym::root());
        }
        let mut names: Vec<PathSym> = Vec::new();
        let mut cur = id;
        while cur != self.root {
            let (parent, name) = *self.parents.get(&cur.0)?;
            names.push(name);
            cur = parent;
        }
        let mut p = PathSym::root();
        for name in names.iter().rev() {
            p = p.join(name);
        }
        Some(p)
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
        let w = self.walk(abs_path, true, Some(cred))?;
        let ino = self.inode(w.id)?;
        if ino.is_dir() {
            return Err(syserr!(Eisdir, "{abs_path}"));
        }
        if !ino.mode.grants(ino.owner, ino.group, cred, Access::Read) {
            return Err(syserr!(Eacces, "{abs_path}"));
        }
        Ok(w)
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
        self.creat_inner(abs_path, mode, cred, umask, SYMLINK_BUDGET)
    }

    fn creat_inner(
        &mut self,
        abs_path: &str,
        mode: Mode,
        cred: &Credentials,
        umask: u16,
        depth: usize,
    ) -> SysResult<(Walked, bool)> {
        match self.walk(abs_path, true, Some(cred)) {
            Ok(w) => {
                let ino = self.inode(w.id)?;
                if ino.is_dir() {
                    return Err(syserr!(Eisdir, "{abs_path}"));
                }
                if !ino.mode.grants(ino.owner, ino.group, cred, Access::Write) {
                    return Err(syserr!(Eacces, "{abs_path}"));
                }
                let ino = self.inode_mut(w.id)?;
                if let FileKind::Regular(d) = &mut ino.kind {
                    *d = Data::new();
                }
                Ok((w, true))
            }
            Err(e) if e.errno == Errno::Enoent => {
                // A dangling symlink at the final component: `creat` creates
                // the *target* (POSIX `open(O_CREAT)` semantics) — the path
                // the planted-symlink perturbations rely on.
                let mut names = Vec::new();
                if let Ok((id, _)) = self.resolve(abs_path, false, Some(cred), &mut names) {
                    if let FileKind::Symlink(target) = &self.inode(id)?.kind {
                        if depth == 0 {
                            return Err(syserr!(Eloop, "{abs_path}"));
                        }
                        let target = target.clone();
                        let target_abs = if path::is_absolute(&target) {
                            target
                        } else {
                            path::join(&rooted(&names[..names.len() - 1]), &target)
                        };
                        return self.creat_inner(&target_abs, mode, cred, umask, depth - 1);
                    }
                }
                let (w, _) = self.create_in_parent(abs_path, mode, cred, umask)?;
                Ok((w, false))
            }
            Err(e) => Err(e),
        }
    }

    /// `open(O_CREAT|O_EXCL)` semantics: fails with `EEXIST` if the final
    /// component exists *at all*, including as a dangling symlink — the
    /// secure temp-file idiom.
    ///
    /// # Errors
    ///
    /// `EEXIST` when the path exists; otherwise as [`Vfs::creat`].
    pub fn create_excl(&mut self, abs_path: &str, mode: Mode, cred: &Credentials, umask: u16) -> SysResult<Walked> {
        if self.resolve(abs_path, false, Some(cred), &mut Vec::new()).is_ok() {
            return Err(syserr!(Eexist, "{abs_path}"));
        }
        let (w, _) = self.create_in_parent(abs_path, mode, cred, umask)?;
        Ok(w)
    }

    fn create_in_parent(
        &mut self,
        abs_path: &str,
        mode: Mode,
        cred: &Credentials,
        umask: u16,
    ) -> SysResult<(Walked, InodeId)> {
        let pw = self.walk_parent(abs_path, Some(cred))?;
        let dir_ino = self.inode(pw.dir)?;
        if !dir_ino.mode.grants(dir_ino.owner, dir_ino.group, cred, Access::Write) {
            return Err(syserr!(Eacces, "cannot create in {}", pw.dir_physical));
        }
        if dir_ino
            .entries()
            .expect("parent checked to be a directory")
            .contains_key(&pw.name)
        {
            return Err(syserr!(Eexist, "{abs_path}"));
        }
        let id = self.alloc(
            FileKind::Regular(Data::new()),
            cred.euid,
            cred.egid,
            mode.apply_umask(umask),
        );
        self.link_child(pw.dir, &pw.name, id)?;
        Ok((
            Walked {
                id,
                physical: pw.dir_physical.join(&pw.name),
                parent: pw.dir,
            },
            id,
        ))
    }

    /// Reads a file's content (no permission check — callers check via
    /// [`Vfs::open_read`] first, mirroring the fd model).
    pub fn read(&self, id: InodeId) -> SysResult<Data> {
        match &self.inode(id)?.kind {
            FileKind::Regular(d) => Ok(d.clone()),
            _ => Err(syserr!(Eisdir, "read on non-regular inode {id}")),
        }
    }

    /// Overwrites or appends to a file's content.
    pub fn write(&mut self, id: InodeId, data: &Data, append: bool) -> SysResult<()> {
        match &mut self.inode_mut(id)?.kind {
            FileKind::Regular(d) => {
                if append {
                    d.append(data);
                } else {
                    *d = data.clone();
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
        let pw = self.walk_parent(abs_path, Some(cred))?;
        let dir_ino = self.inode(pw.dir)?;
        if !dir_ino.mode.grants(dir_ino.owner, dir_ino.group, cred, Access::Write) {
            return Err(syserr!(Eacces, "{abs_path}"));
        }
        let target = *dir_ino
            .entries()
            .expect("parent is a directory")
            .get(&pw.name)
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
        self.unlink_child(pw.dir, &pw.name)?;
        self.table_mut().remove(&target.0);
        Ok(st)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, abs_path: &str, mode: Mode, cred: &Credentials, umask: u16) -> SysResult<Walked> {
        if self.resolve(abs_path, false, Some(cred), &mut Vec::new()).is_ok() {
            return Err(syserr!(Eexist, "{abs_path}"));
        }
        let pw = self.walk_parent(abs_path, Some(cred))?;
        let dir_ino = self.inode(pw.dir)?;
        if !dir_ino.mode.grants(dir_ino.owner, dir_ino.group, cred, Access::Write) {
            return Err(syserr!(Eacces, "cannot mkdir in {}", pw.dir_physical));
        }
        let id = self.alloc(
            FileKind::Directory(BTreeMap::new()),
            cred.euid,
            cred.egid,
            mode.apply_umask(umask),
        );
        self.link_child(pw.dir, &pw.name, id)?;
        Ok(Walked {
            id,
            physical: pw.dir_physical.join(&pw.name),
            parent: pw.dir,
        })
    }

    /// Creates a symbolic link at `link` pointing at `target` (text).
    pub fn symlink(&mut self, target: &str, link: &str, cred: &Credentials) -> SysResult<Walked> {
        if self.resolve(link, false, Some(cred), &mut Vec::new()).is_ok() {
            return Err(syserr!(Eexist, "{link}"));
        }
        let pw = self.walk_parent(link, Some(cred))?;
        let dir_ino = self.inode(pw.dir)?;
        if !dir_ino.mode.grants(dir_ino.owner, dir_ino.group, cred, Access::Write) {
            return Err(syserr!(Eacces, "cannot symlink in {}", pw.dir_physical));
        }
        let id = self.alloc(
            FileKind::Symlink(target.to_string()),
            cred.euid,
            cred.egid,
            Mode::new(0o777),
        );
        self.link_child(pw.dir, &pw.name, id)?;
        Ok(Walked {
            id,
            physical: pw.dir_physical.join(&pw.name),
            parent: pw.dir,
        })
    }

    /// Reads a symlink's target text.
    pub fn readlink(&self, abs_path: &str, cred: &Credentials) -> SysResult<String> {
        let w = self.walk(abs_path, false, Some(cred))?;
        match &self.inode(w.id)?.kind {
            FileKind::Symlink(t) => Ok(t.clone()),
            _ => Err(syserr!(Einval, "{abs_path} is not a symlink")),
        }
    }

    /// Renames a file or symlink. Both parents need write permission.
    pub fn rename(&mut self, from: &str, to: &str, cred: &Credentials) -> SysResult<()> {
        let from_pw = self.walk_parent(from, Some(cred))?;
        let to_pw = self.walk_parent(to, Some(cred))?;
        for dirid in [from_pw.dir, to_pw.dir] {
            let d = self.inode(dirid)?;
            if !d.mode.grants(d.owner, d.group, cred, Access::Write) {
                return Err(syserr!(Eacces, "rename {from} -> {to}"));
            }
        }
        let moving = {
            let d = self.inode(from_pw.dir)?;
            *d.entries()
                .expect("parent is a directory")
                .get(&from_pw.name)
                .ok_or_else(|| syserr!(Enoent, "{from}"))?
        };
        self.unlink_child(from_pw.dir, &from_pw.name)?;
        self.link_child(to_pw.dir, &to_pw.name, moving)?;
        Ok(())
    }

    /// Changes permission bits; only the owner or root may do this.
    pub fn chmod(&mut self, abs_path: &str, mode: Mode, cred: &Credentials) -> SysResult<()> {
        let w = self.walk(abs_path, true, Some(cred))?;
        let ino = self.inode_mut(w.id)?;
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
        let w = self.walk(abs_path, true, Some(cred))?;
        let ino = self.inode_mut(w.id)?;
        ino.owner = owner;
        ino.group = group;
        Ok(())
    }

    /// `stat` (follows symlinks).
    pub fn stat(&self, abs_path: &str, cred: Option<&Credentials>) -> SysResult<Stat> {
        let (id, _) = self.resolve(abs_path, true, cred, &mut Vec::new())?;
        Ok(Stat::of(self.inode(id)?))
    }

    /// `lstat` (does not follow a final symlink).
    pub fn lstat(&self, abs_path: &str, cred: Option<&Credentials>) -> SysResult<Stat> {
        let (id, _) = self.resolve(abs_path, false, cred, &mut Vec::new())?;
        Ok(Stat::of(self.inode(id)?))
    }

    /// Lists a directory's entry names (requires read permission).
    pub fn list_dir(&self, abs_path: &str, cred: &Credentials) -> SysResult<Vec<String>> {
        let w = self.walk(abs_path, true, Some(cred))?;
        let ino = self.inode(w.id)?;
        if !ino.mode.grants(ino.owner, ino.group, cred, Access::Read) {
            return Err(syserr!(Eacces, "{abs_path}"));
        }
        ino.entries()
            .map(|e| e.keys().cloned().collect())
            .ok_or_else(|| syserr!(Enotdir, "{abs_path}"))
    }

    /// True when the path exists (lstat semantics, god-mode).
    pub fn exists(&self, abs_path: &str) -> bool {
        self.resolve(abs_path, false, None, &mut Vec::new()).is_ok()
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
        let parent_path = path::parent(abs_path).ok_or_else(|| syserr!(Einval, "{abs_path}"))?;
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
            self.table_mut().remove(&old.0);
        }
        let id = self.alloc(FileKind::Regular(content.into()), owner, group, mode);
        self.link_child(dir, name, id)?;
        Ok(id)
    }

    /// Removes a path unconditionally (no permission checks). Directories
    /// are removed recursively.
    pub fn god_remove(&mut self, abs_path: &str) -> SysResult<()> {
        let pw = self.walk_parent(abs_path, None)?;
        let target = {
            let d = self.inode(pw.dir)?;
            *d.entries()
                .expect("parent is a directory")
                .get(&pw.name)
                .ok_or_else(|| syserr!(Enoent, "{abs_path}"))?
        };
        self.unlink_child(pw.dir, &pw.name)?;
        // Recursively drop unreachable children (and their parent links).
        let mut stack = vec![target];
        while let Some(id) = stack.pop() {
            Arc::make_mut(&mut self.parents).remove(&id.0);
            if let Some(ino) = self.table_mut().remove(&id.0) {
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
        let w = self.walk(abs_path, false, None)?;
        let ino = self.inode_mut(w.id)?;
        ino.owner = owner;
        ino.group = group;
        Ok(())
    }

    /// Changes mode unconditionally.
    pub fn god_chmod(&mut self, abs_path: &str, mode: Mode) -> SysResult<()> {
        let w = self.walk(abs_path, false, None)?;
        self.inode_mut(w.id)?.mode = mode;
        Ok(())
    }

    /// Overwrites content unconditionally (follows symlinks).
    pub fn god_write(&mut self, abs_path: &str, content: impl Into<Data>) -> SysResult<()> {
        let w = self.walk(abs_path, true, None)?;
        match &mut self.inode_mut(w.id)?.kind {
            FileKind::Regular(d) => {
                *d = content.into();
                Ok(())
            }
            _ => Err(syserr!(Eisdir, "{abs_path}")),
        }
    }

    /// Attaches an oracle tag to a path (follows symlinks).
    pub fn tag(&mut self, abs_path: &str, tag: FileTag) -> SysResult<()> {
        let w = self.walk(abs_path, true, None)?;
        self.inode_mut(w.id)?.tags.insert(tag);
        Ok(())
    }

    /// Reads content by path without permission checks (oracle/test use).
    pub fn god_read(&self, abs_path: &str) -> SysResult<Data> {
        let w = self.walk(abs_path, true, None)?;
        self.read(w.id)
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
            let ino = self
                .inodes
                .get(&id.0)
                .map(Arc::as_ref)
                .ok_or(format!("dangling entry to {id}"))?;
            if let Some(entries) = ino.entries() {
                for (name, child) in entries {
                    match self.parents.get(&child.0) {
                        Some((p, n)) if *p == id && n.as_str() == name => {}
                        other => return Err(format!("parent link for {child} is {other:?}, expected ({id}, {name})")),
                    }
                    stack.push(*child);
                }
            }
        }
        for id in self.inodes.keys() {
            if !reachable.contains(id) {
                return Err(format!("orphan inode ino:{id}"));
            }
        }
        if self.parents.len() != reachable.len() - 1 {
            return Err(format!(
                "parent index has {} entries for {} non-root inodes",
                self.parents.len(),
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
    fn list_dir_requires_read() {
        let mut fs = setup();
        fs.mkdir_p("/secretdir", Uid(200), Gid(200), Mode::new(0o711)).unwrap();
        assert!(fs.list_dir("/secretdir", &cred(100)).is_err());
        let names = fs.list_dir("/etc", &cred(100)).unwrap();
        assert!(names.contains(&"passwd".to_string()));
    }
}
