//! Inodes: the objects the virtual file system stores.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cred::{Gid, Uid};
use crate::data::Data;
use crate::intern::PathSym;
use crate::mode::Mode;

/// Identifier of an inode within a [`crate::fs::Vfs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InodeId(pub u64);

impl fmt::Display for InodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ino:{}", self.0)
    }
}

/// Oracle-side tags attached to files and directories by the world builder.
///
/// Tags express the *security meaning* of an object so the policy oracle can
/// judge outcomes: they are never consulted by application logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FileTag {
    /// Contents are confidential; reads attach a `Secret` label to the data.
    Secret,
    /// Integrity-critical object (e.g. `/etc/passwd`, a user's `.login`):
    /// modification on behalf of a user who could not write it is a violation.
    Protected,
    /// System-critical object whose *deletion or replacement* breaks the
    /// system (the NT case study's system configuration files).
    Critical,
}

impl fmt::Display for FileTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FileTag::Secret => "secret",
            FileTag::Protected => "protected",
            FileTag::Critical => "critical",
        };
        f.write_str(s)
    }
}

/// What an inode is.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FileKind {
    /// A regular file and its (labeled) content.
    Regular(Data),
    /// A directory mapping names to child inodes. Names are interned, so
    /// copying a directory to write it copies no name text.
    Directory(BTreeMap<PathSym, InodeId>),
    /// A symbolic link and its target path text.
    Symlink(String),
}

/// An inode: kind plus ownership, mode and oracle tags.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Inode {
    /// This inode's id.
    pub id: InodeId,
    /// What it is.
    pub kind: FileKind,
    /// Owning user.
    pub owner: Uid,
    /// Owning group.
    pub group: Gid,
    /// Permission bits.
    pub mode: Mode,
    /// Oracle tags (see [`FileTag`]).
    pub tags: BTreeSet<FileTag>,
}

impl Inode {
    /// True for directories.
    pub fn is_dir(&self) -> bool {
        matches!(self.kind, FileKind::Directory(_))
    }

    /// True for regular files.
    pub fn is_file(&self) -> bool {
        matches!(self.kind, FileKind::Regular(_))
    }

    /// True for symbolic links.
    pub fn is_symlink(&self) -> bool {
        matches!(self.kind, FileKind::Symlink(_))
    }

    /// Size in bytes (0 for directories, target length for symlinks).
    pub fn size(&self) -> usize {
        match &self.kind {
            FileKind::Regular(d) => d.len(),
            FileKind::Directory(_) => 0,
            FileKind::Symlink(t) => t.len(),
        }
    }

    /// Directory entries, or an error-friendly `None` for non-directories.
    pub fn entries(&self) -> Option<&BTreeMap<PathSym, InodeId>> {
        match &self.kind {
            FileKind::Directory(e) => Some(e),
            _ => None,
        }
    }

    /// Mutable directory entries.
    pub fn entries_mut(&mut self) -> Option<&mut BTreeMap<PathSym, InodeId>> {
        match &mut self.kind {
            FileKind::Directory(e) => Some(e),
            _ => None,
        }
    }
}

/// File type reported by `stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link.
    Symlink,
}

impl fmt::Display for FileType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FileType::Regular => "regular",
            FileType::Directory => "directory",
            FileType::Symlink => "symlink",
        };
        f.write_str(s)
    }
}

/// Metadata snapshot returned by `stat`/`lstat`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stat {
    /// Inode id.
    pub id: InodeId,
    /// File type.
    pub file_type: FileType,
    /// Owner.
    pub owner: Uid,
    /// Group.
    pub group: Gid,
    /// Mode bits.
    pub mode: Mode,
    /// Size in bytes.
    pub size: usize,
    /// Oracle tags.
    pub tags: BTreeSet<FileTag>,
}

impl Stat {
    /// Builds a `Stat` from an inode.
    pub fn of(inode: &Inode) -> Stat {
        Stat {
            id: inode.id,
            file_type: match inode.kind {
                FileKind::Regular(_) => FileType::Regular,
                FileKind::Directory(_) => FileType::Directory,
                FileKind::Symlink(_) => FileType::Symlink,
            },
            owner: inode.owner,
            group: inode.group,
            mode: inode.mode,
            size: inode.size(),
            tags: inode.tags.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(id: u64) -> Inode {
        Inode {
            id: InodeId(id),
            kind: FileKind::Regular(Data::from("hello")),
            owner: Uid(1),
            group: Gid(1),
            mode: Mode::new(0o644),
            tags: BTreeSet::new(),
        }
    }

    #[test]
    fn kind_predicates() {
        let f = file(1);
        assert!(f.is_file() && !f.is_dir() && !f.is_symlink());
        assert_eq!(f.size(), 5);
    }

    #[test]
    fn stat_reflects_inode() {
        let mut f = file(2);
        f.tags.insert(FileTag::Secret);
        let st = Stat::of(&f);
        assert_eq!(st.file_type, FileType::Regular);
        assert_eq!(st.size, 5);
        assert!(st.tags.contains(&FileTag::Secret));
    }

    #[test]
    fn directory_entries_access() {
        let mut d = Inode {
            id: InodeId(3),
            kind: FileKind::Directory(BTreeMap::new()),
            owner: Uid(0),
            group: Gid(0),
            mode: Mode::new(0o755),
            tags: BTreeSet::new(),
        };
        d.entries_mut().unwrap().insert("a".into(), InodeId(4));
        assert_eq!(d.entries().unwrap().len(), 1);
        assert!(file(9).entries().is_none());
    }
}
