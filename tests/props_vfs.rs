//! Property tests: virtual file-system invariants under arbitrary
//! operation sequences.

use epa::sandbox::audit::{AuditEvent, WriteInfo};
use epa::sandbox::cred::{Credentials, Gid, Uid};
use epa::sandbox::data::{Data, LabelSet};
use epa::sandbox::error::{Errno, SysError, SysResult};
use epa::sandbox::fs::{FileKind, InodeId, ParentWalk, Vfs, Walked, NAME_MAX};
use epa::sandbox::intern::{intern, PathSym};
use epa::sandbox::mode::{Access, Mode};
use epa::sandbox::os::Os;
use epa::sandbox::path;
use proptest::prelude::*;
use proptest::test_runner::{resolved_seed, TestRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

fn name_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z]{1,8}").expect("regex")
}

fn path_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(name_strategy(), 1..4).prop_map(|parts| format!("/{}", parts.join("/")))
}

/// One random mutation applied to a Vfs.
#[derive(Debug, Clone)]
enum Op {
    PutFile(String, u16),
    MkdirP(String),
    Symlink(String, String),
    Remove(String),
    Chmod(String, u16),
    Chown(String, u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (path_strategy(), 0u16..0o7777).prop_map(|(p, m)| Op::PutFile(p, m)),
        path_strategy().prop_map(Op::MkdirP),
        (path_strategy(), path_strategy()).prop_map(|(a, b)| Op::Symlink(a, b)),
        path_strategy().prop_map(Op::Remove),
        (path_strategy(), 0u16..0o7777).prop_map(|(p, m)| Op::Chmod(p, m)),
        (path_strategy(), 0u32..5000).prop_map(|(p, u)| Op::Chown(p, u)),
    ]
}

fn apply(fs: &mut Vfs, op: &Op) {
    match op {
        Op::PutFile(p, m) => {
            let _ = fs.put_file(p, "data", Uid(1), Gid(1), Mode::new(*m));
        }
        Op::MkdirP(p) => {
            let _ = fs.mkdir_p(p, Uid::ROOT, Gid::ROOT, Mode::new(0o755));
        }
        Op::Symlink(a, b) => {
            let _ = fs.god_symlink(a, b);
        }
        Op::Remove(p) => {
            let _ = fs.god_remove(p);
        }
        Op::Chmod(p, m) => {
            let _ = fs.god_chmod(p, Mode::new(*m));
        }
        Op::Chown(p, u) => {
            let _ = fs.god_chown(p, Uid(*u), Gid(*u));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any sequence of mutations, the inode graph stays consistent:
    /// no dangling directory entries, no orphan inodes.
    #[test]
    fn fs_invariants_hold_under_arbitrary_ops(ops in proptest::collection::vec(op_strategy(), 0..40)) {
        let mut fs = Vfs::new();
        for op in &ops {
            apply(&mut fs, op);
        }
        prop_assert!(fs.check_invariants().is_ok(), "{:?}", fs.check_invariants());
    }

    /// Resolution terminates (no infinite symlink walks) and every success
    /// reports an absolute physical path with no `.`/`..` components.
    #[test]
    fn resolution_terminates_and_physical_paths_are_canonical(
        ops in proptest::collection::vec(op_strategy(), 0..30),
        probe in path_strategy(),
    ) {
        let mut fs = Vfs::new();
        for op in &ops {
            apply(&mut fs, op);
        }
        if let Ok(w) = fs.walk(&probe, true, None) {
            prop_assert!(w.physical.starts_with('/'));
            prop_assert!(!path::contains_dotdot(&w.physical));
            prop_assert!(fs.inode(w.id).is_ok());
        }
    }

    /// Permission monotonicity: anything a plain user may do, root may do
    /// (for read/write access checks on existing files).
    #[test]
    fn root_access_dominates_user_access(
        mode in 0u16..0o777,
        owner in 0u32..10,
        asker in 1u32..10,
    ) {
        let m = Mode::new(mode);
        let user = Credentials::user(Uid(asker), Gid(asker));
        let root = Credentials::root();
        for access in [Access::Read, Access::Write] {
            if m.grants(Uid(owner), Gid(owner), &user, access) {
                prop_assert!(m.grants(Uid(owner), Gid(owner), &root, access));
            }
        }
    }

    /// Lexical normalization is idempotent and join respects absolutes.
    #[test]
    fn normalize_idempotent(p in proptest::string::string_regex("(/?[a-z.]{0,6}){0,6}").expect("regex")) {
        let once = path::normalize(&p);
        prop_assert_eq!(path::normalize(&once), once.clone());
        prop_assert_eq!(path::join("/base", &once), if once.starts_with('/') { once.clone() } else { format!("/base/{once}") });
    }

    /// `creat` never errors with EEXIST-style duplication inconsistencies:
    /// after a successful creat the path resolves to a regular file.
    #[test]
    fn creat_postcondition(ops in proptest::collection::vec(op_strategy(), 0..20), target in path_strategy()) {
        let mut fs = Vfs::new();
        for op in &ops {
            apply(&mut fs, op);
        }
        let root = Credentials::root();
        match fs.creat(&target, Mode::new(0o644), &root, 0o22) {
            Ok((w, _)) => {
                let ino = fs.inode(w.id).expect("resolvable");
                prop_assert!(ino.is_file());
                prop_assert!(fs.check_invariants().is_ok());
            }
            Err(e) => {
                // Acceptable failures only.
                prop_assert!(matches!(
                    e.errno,
                    Errno::Eacces | Errno::Enoent | Errno::Enotdir | Errno::Eisdir | Errno::Eloop | Errno::Eexist | Errno::Enametoolong
                ), "{e}");
            }
        }
    }
}

// ----------------------------------------------------------------------
// Resolution against a reference resolver
// ----------------------------------------------------------------------

/// The interning walk `Vfs::walk` used before resolution borrowed its
/// components: every component and every resolved prefix is a `PathSym`,
/// and prefixes are extended through the interner's join cache. Kept as
/// it was (`self` read as `fs`, `syserr!` spelled out) as the reference
/// the borrowed resolver must agree with.
fn reference_walk(fs: &Vfs, abs_path: &str, follow_last: bool, cred: Option<&Credentials>) -> SysResult<Walked> {
    let err = |errno, context: String| SysError::new(errno, context);
    if !path::is_absolute(abs_path) {
        return Err(err(
            Errno::Einval,
            format!("walk requires absolute path, got {abs_path}"),
        ));
    }
    let mut queue: VecDeque<PathSym> = path::components(abs_path).map(intern).collect();
    let mut inode_stack: Vec<InodeId> = vec![fs.root()];
    let mut path_stack: Vec<PathSym> = vec![PathSym::root()];
    let mut budget = 40;

    while let Some(comp) = queue.pop_front() {
        if comp.len() > NAME_MAX {
            return Err(err(Errno::Enametoolong, format!("component of {abs_path}")));
        }
        match comp.as_str() {
            "." => continue,
            ".." => {
                if inode_stack.len() > 1 {
                    inode_stack.pop();
                    path_stack.pop();
                }
                continue;
            }
            _ => {}
        }
        let cur = *inode_stack.last().expect("stack never empty");
        let here = *path_stack.last().expect("stack never empty");
        let cur_ino = fs.inode(cur)?;
        let entries = cur_ino
            .entries()
            .ok_or_else(|| err(Errno::Enotdir, format!("{here}")))?;
        if let Some(c) = cred {
            if !cur_ino.mode.grants(cur_ino.owner, cur_ino.group, c, Access::Exec) {
                return Err(err(Errno::Eacces, format!("search permission denied in {here}")));
            }
        }
        let child = *entries
            .get(comp.as_str())
            .ok_or_else(|| err(Errno::Enoent, format!("{here}/{comp}")))?;
        let child_ino = fs.inode(child)?;
        let is_last = queue.is_empty();
        if child_ino.is_symlink() && (!is_last || follow_last) {
            if budget == 0 {
                return Err(err(Errno::Eloop, abs_path.to_string()));
            }
            budget -= 1;
            let (target_comps, target_abs) = match &child_ino.kind {
                FileKind::Symlink(t) => (
                    path::components(t).map(intern).collect::<Vec<PathSym>>(),
                    path::is_absolute(t),
                ),
                _ => unreachable!(),
            };
            if target_abs {
                inode_stack.truncate(1);
                path_stack.truncate(1);
            }
            for c in target_comps.into_iter().rev() {
                queue.push_front(c);
            }
            continue;
        }
        inode_stack.push(child);
        path_stack.push(here.join(&comp));
    }

    let id = *inode_stack.last().expect("stack never empty");
    let parent = if inode_stack.len() >= 2 {
        inode_stack[inode_stack.len() - 2]
    } else {
        fs.root()
    };
    Ok(Walked {
        id,
        physical: *path_stack.last().expect("stack never empty"),
        parent,
    })
}

/// `walk_parent` as it was before the parent prefix was resolved in
/// place: the components collected, the final one split off and checked,
/// the rest re-rooted as a fresh path and walked by [`reference_walk`].
fn reference_walk_parent(fs: &Vfs, abs_path: &str, cred: Option<&Credentials>) -> SysResult<ParentWalk> {
    let err = |errno, context: String| SysError::new(errno, context);
    if !path::is_absolute(abs_path) {
        return Err(err(
            Errno::Einval,
            format!("walk_parent requires absolute path, got {abs_path}"),
        ));
    }
    let comps: Vec<&str> = path::components(abs_path).collect();
    let name = match comps.last() {
        Some(n) if *n != "." && *n != ".." => (*n).to_string(),
        _ => return Err(err(Errno::Einval, format!("bad final component in {abs_path}"))),
    };
    if name.len() > NAME_MAX {
        return Err(err(Errno::Enametoolong, abs_path.to_string()));
    }
    let parent_path = format!("/{}", comps[..comps.len() - 1].join("/"));
    let walked = reference_walk(fs, &parent_path, true, cred)?;
    if !fs.inode(walked.id)?.is_dir() {
        return Err(err(Errno::Enotdir, parent_path));
    }
    Ok(ParentWalk {
        dir: walked.id,
        dir_physical: walked.physical,
        name,
    })
}

/// `creat` as it was before a probe stood for its walks, spelled with the
/// reference resolvers and god-mode helpers: walk the path under `cred`
/// and truncate what it reaches; on `ENOENT` follow a dangling final
/// symlink to its target, else create in the parent `walk_parent` finds.
fn reference_creat(
    fs: &mut Vfs,
    abs_path: &str,
    mode: Mode,
    cred: &Credentials,
    umask: u16,
    depth: usize,
) -> SysResult<(Walked, bool)> {
    let err = |errno, context: String| SysError::new(errno, context);
    match reference_walk(fs, abs_path, true, Some(cred)) {
        Ok(w) => {
            let ino = fs.inode(w.id)?;
            if ino.is_dir() {
                return Err(err(Errno::Eisdir, abs_path.to_string()));
            }
            if !ino.mode.grants(ino.owner, ino.group, cred, Access::Write) {
                return Err(err(Errno::Eacces, abs_path.to_string()));
            }
            fs.god_write(&w.physical, "")?;
            Ok((w, true))
        }
        Err(e) if e.errno == Errno::Enoent => {
            if let Ok(link) = reference_walk(fs, abs_path, false, Some(cred)) {
                if let FileKind::Symlink(target) = &fs.inode(link.id)?.kind {
                    if depth == 0 {
                        return Err(err(Errno::Eloop, abs_path.to_string()));
                    }
                    let target_abs = if path::is_absolute(target) {
                        target.clone()
                    } else {
                        path::join(&path::parent(&link.physical).expect("a link is not the root"), target)
                    };
                    return reference_creat(fs, &target_abs, mode, cred, umask, depth - 1);
                }
            }
            Ok((reference_create_in_parent(fs, abs_path, mode, cred, umask)?, false))
        }
        Err(e) => Err(e),
    }
}

/// `create_excl` as it was: `EEXIST` when an `lstat`-style walk under
/// `cred` succeeds, else create in the parent.
fn reference_create_excl(
    fs: &mut Vfs,
    abs_path: &str,
    mode: Mode,
    cred: &Credentials,
    umask: u16,
) -> SysResult<Walked> {
    if reference_walk(fs, abs_path, false, Some(cred)).is_ok() {
        return Err(SysError::new(Errno::Eexist, abs_path.to_string()));
    }
    reference_create_in_parent(fs, abs_path, mode, cred, umask)
}

fn reference_create_in_parent(
    fs: &mut Vfs,
    abs_path: &str,
    mode: Mode,
    cred: &Credentials,
    umask: u16,
) -> SysResult<Walked> {
    let pw = reference_walk_parent(fs, abs_path, Some(cred))?;
    let dir = fs.inode(pw.dir)?;
    if !dir.mode.grants(dir.owner, dir.group, cred, Access::Write) {
        return Err(SysError::new(
            Errno::Eacces,
            format!("cannot create in {}", pw.dir_physical),
        ));
    }
    if dir
        .entries()
        .expect("a parent is a directory")
        .contains_key(pw.name.as_str())
    {
        return Err(SysError::new(Errno::Eexist, abs_path.to_string()));
    }
    let physical = pw.dir_physical.join(&pw.name);
    let id = fs.put_file(&physical, "", cred.euid, cred.egid, mode.apply_umask(umask))?;
    Ok(Walked {
        id,
        physical,
        parent: pw.dir,
    })
}

/// One path component: mostly a name from a three-letter alphabet (so
/// random paths collide often), else `.`, `..`, empty (a `//`), or one
/// byte longer than `NAME_MAX`, each about one time in twenty.
fn component_strategy() -> impl Strategy<Value = String> {
    (0u8..20).prop_map(|k| match k {
        0 => ".".to_string(),
        1 => "..".to_string(),
        2 => String::new(),
        3 => "n".repeat(NAME_MAX + 1),
        k => ["a", "b", "c"][usize::from(k % 3)].to_string(),
    })
}

/// A name from the three-letter alphabet.
fn dense_name_strategy() -> impl Strategy<Value = String> {
    (0u8..3).prop_map(|k| ["a", "b", "c"][usize::from(k)].to_string())
}

/// Clean absolute paths over the three-letter alphabet.
fn dense_path_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(dense_name_strategy(), 1..4).prop_map(|parts| format!("/{}", parts.join("/")))
}

/// Symlink targets: absolute or relative, with `.` and `..` steps, and
/// bare sibling names (which make self- and mutual loops likely).
fn target_strategy() -> impl Strategy<Value = String> {
    let step = (0u8..5).prop_map(|k| ["a", "b", "c", ".", ".."][usize::from(k)].to_string());
    (0u8..2, proptest::collection::vec(step, 0..3), dense_name_strategy()).prop_map(|(abs, mut parts, last)| {
        parts.push(last);
        format!("{}{}", if abs == 0 { "" } else { "/" }, parts.join("/"))
    })
}

/// Mutations over a dense namespace: directories whose modes and owners
/// deny some credentials search permission, and symlinks of every shape.
/// `MkdirP` and `Symlink` are listed twice to weight the draw toward them.
fn dense_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (dense_path_strategy(), 0u16..0o777).prop_map(|(p, m)| Op::PutFile(p, m)),
        dense_path_strategy().prop_map(Op::MkdirP),
        dense_path_strategy().prop_map(Op::MkdirP),
        (dense_path_strategy(), target_strategy()).prop_map(|(a, b)| Op::Symlink(a, b)),
        (dense_path_strategy(), target_strategy()).prop_map(|(a, b)| Op::Symlink(a, b)),
        dense_path_strategy().prop_map(Op::Remove),
        (dense_path_strategy(), 0u16..0o777).prop_map(|(p, m)| Op::Chmod(p, m)),
        (dense_path_strategy(), 0u32..4).prop_map(|(p, u)| Op::Chown(p, u)),
    ]
}

/// Probe text: `.`, `..`, empty components (`//`), names longer than
/// `NAME_MAX`, an optional trailing `/`, and one time in sixteen no
/// leading `/`.
fn probe_strategy() -> impl Strategy<Value = String> {
    (proptest::collection::vec(component_strategy(), 0..6), 0u8..16, 0u8..4).prop_map(|(parts, lead, trail)| {
        let lead = if lead == 0 { "" } else { "/" };
        let trail = if trail == 0 { "/" } else { "" };
        format!("{lead}{}{trail}", parts.join("/"))
    })
}

/// The credentials a probe resolves under: god mode, root, and three
/// plain users whose uids the world's `Chown`s hand out.
fn probe_creds() -> Vec<Option<Credentials>> {
    let mut creds = vec![None, Some(Credentials::root())];
    creds.extend((1..4).map(|u| Some(Credentials::user(Uid(u), Gid(u)))));
    creds
}

/// Calls `check` on every (world, probe, credential) triple of a seeded
/// sweep: 150 dense random worlds, 30 probes each.
fn for_each_probe(mut check: impl FnMut(&Vfs, &str, Option<&Credentials>)) {
    let mut rng = TestRng::from_seed(resolved_seed());
    let ops = proptest::collection::vec(dense_op_strategy(), 0..40);
    let probes = probe_strategy();
    let creds = probe_creds();
    for _ in 0..150 {
        let mut fs = Vfs::new();
        for op in &ops.generate(&mut rng) {
            apply(&mut fs, op);
        }
        for _ in 0..30 {
            let probe = probes.generate(&mut rng);
            for cred in &creds {
                check(&fs, &probe, cred.as_ref());
            }
        }
    }
}

/// The borrowed resolver returns exactly what the interning walk did:
/// an equal `Walked` (inode, physical symbol, parent) on success, and an
/// equal errno and message on failure — over probes that reach every
/// resolution outcome, each of which the sweep must actually produce.
#[test]
fn walk_matches_the_interning_reference_resolver() {
    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    for_each_probe(|fs, probe, cred| {
        for follow_last in [true, false] {
            let got = fs.walk(probe, follow_last, cred);
            let want = reference_walk(fs, probe, follow_last, cred);
            assert_eq!(got, want, "walk({probe:?}, follow_last={follow_last}, {cred:?})");
            let key = match &got {
                Ok(_) => "ok".to_string(),
                Err(e) => e.errno.symbol().to_string(),
            };
            *outcomes.entry(key).or_default() += 1;
        }
    });
    for outcome in ["ok", "ENOENT", "ENOTDIR", "EACCES", "ELOOP", "ENAMETOOLONG", "EINVAL"] {
        assert!(
            outcomes.contains_key(outcome),
            "sweep never produced {outcome}: {outcomes:?}"
        );
    }
}

/// `stat`, `lstat` and `exists` resolve without producing a physical path;
/// they must still agree with `walk` on the inode and the error, and a
/// walk that ends at a directory must name the path `path_of` rebuilds.
#[test]
fn stat_lstat_and_exists_agree_with_walk() {
    let mut directories = 0;
    for_each_probe(|fs, probe, cred| {
        for (follow_last, stat) in [(true, fs.stat(probe, cred)), (false, fs.lstat(probe, cred))] {
            let walked = fs.walk(probe, follow_last, cred);
            assert_eq!(stat.map(|st| st.id), walked.clone().map(|w| w.id), "{probe:?} {cred:?}");
            if let Ok(w) = walked {
                if fs.inode(w.id).expect("walked inode is live").is_dir() {
                    directories += 1;
                    assert_eq!(Some(w.physical), fs.path_of(w.id), "{probe:?}");
                }
            }
        }
        if cred.is_none() {
            assert_eq!(fs.exists(probe), fs.walk(probe, false, None).is_ok(), "{probe:?}");
        }
    });
    assert!(directories > 0, "the sweep must reach directories");
}

/// God-mode installs under a path whose parent is a file fail with
/// `ENOTDIR` and leave the tree consistent (they used to panic linking
/// into the file).
#[test]
fn god_installs_under_a_file_fail_cleanly() {
    let mut fs = Vfs::new();
    fs.put_file("/f", "x", Uid::ROOT, Gid::ROOT, Mode::new(0o644))
        .expect("file");
    let put = fs.put_file("/f/g", "y", Uid::ROOT, Gid::ROOT, Mode::new(0o644));
    assert_eq!(put.map_err(|e| e.errno), Err(Errno::Enotdir));
    assert_eq!(fs.god_symlink("/f/l", "/f").map_err(|e| e.errno), Err(Errno::Enotdir));
    assert!(fs.check_invariants().is_ok(), "{:?}", fs.check_invariants());
}

/// `walk_parent` resolves the parent prefix of its argument in place; it
/// must return exactly what re-rooting the collected components did: an
/// equal `ParentWalk`, or an equal errno and message. The probes carry
/// `//`, a trailing `/`, `.` or `..` as the final component, final names
/// past `NAME_MAX`, and parents reached through symlinks, and the sweep
/// must produce each of those shapes.
#[test]
fn walk_parent_matches_the_reference() {
    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    let mut symlinked_parents = 0;
    for_each_probe(|fs, probe, cred| {
        let got = fs.walk_parent(probe, cred);
        let want = reference_walk_parent(fs, probe, cred);
        assert_eq!(got, want, "walk_parent({probe:?}, {cred:?})");
        let key = match &got {
            Ok(pw) => {
                // The parent's physical path differs from its lexical
                // spelling only when a symlink (or `..`) was resolved.
                let (prefix, _) = probe
                    .trim_end_matches('/')
                    .rsplit_once('/')
                    .expect("ok probes are absolute");
                if pw.dir_physical.as_str() != path::normalize(&format!("/{prefix}")) {
                    symlinked_parents += 1;
                }
                "ok".to_string()
            }
            Err(e) if e.errno == Errno::Einval && e.context.starts_with("bad final") => "EINVAL final".to_string(),
            Err(e) if e.errno == Errno::Enametoolong && !e.context.starts_with("component") => {
                "ENAMETOOLONG final".to_string()
            }
            Err(e) => e.errno.symbol().to_string(),
        };
        *outcomes.entry(key).or_default() += 1;
    });
    for outcome in [
        "ok",
        "EINVAL final",
        "EINVAL",
        "ENAMETOOLONG final",
        "ENAMETOOLONG",
        "ENOENT",
        "ENOTDIR",
        "EACCES",
        "ELOOP",
    ] {
        assert!(
            outcomes.contains_key(outcome),
            "sweep never produced {outcome}: {outcomes:?}"
        );
    }
    assert!(symlinked_parents > 0, "the sweep must reach parents through symlinks");
}

/// `creat` and `create_excl` walk a path once and create in the directory
/// that walk reached; they must return and leave behind exactly what the
/// reference's separate walks did — the same `Walked` and flag, or the
/// same errno and message, and an equal file system afterwards.
#[test]
fn creat_and_create_excl_match_the_reference() {
    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    for_each_probe(|fs, probe, cred| {
        let Some(cred) = cred else { return };
        let mode = Mode::new(0o640);
        let (mut got_fs, mut want_fs) = (fs.clone(), fs.clone());
        let got = got_fs.creat(probe, mode, cred, 0o022);
        let want = reference_creat(&mut want_fs, probe, mode, cred, 0o022, 40);
        assert_eq!(got, want, "creat({probe:?}, {cred:?})");
        assert!(got_fs == want_fs, "creat({probe:?}, {cred:?}) left a different tree");
        let key = match &got {
            Ok((_, existed)) => format!("creat ok existed={existed}"),
            Err(e) => format!("creat {}", e.errno.symbol()),
        };
        *outcomes.entry(key).or_default() += 1;

        let (mut got_fs, mut want_fs) = (fs.clone(), fs.clone());
        let got = got_fs.create_excl(probe, mode, cred, 0o022);
        let want = reference_create_excl(&mut want_fs, probe, mode, cred, 0o022);
        assert_eq!(got, want, "create_excl({probe:?}, {cred:?})");
        assert!(
            got_fs == want_fs,
            "create_excl({probe:?}, {cred:?}) left a different tree"
        );
        let key = match &got {
            Ok(_) => "create_excl ok".to_string(),
            Err(e) => format!("create_excl {}", e.errno.symbol()),
        };
        *outcomes.entry(key).or_default() += 1;
    });
    for outcome in [
        "creat ok existed=true",
        "creat ok existed=false",
        "creat EACCES",
        "creat ENOENT",
        "create_excl ok",
        "create_excl EEXIST",
        "create_excl EACCES",
    ] {
        assert!(
            outcomes.contains_key(outcome),
            "sweep never produced {outcome}: {outcomes:?}"
        );
    }
}

// ----------------------------------------------------------------------
// Syscall handlers that resolve once
// ----------------------------------------------------------------------

/// A sandbox world over `fs` with one process running as `cred` (whose
/// uid and gid are equal, as every probe credential's are) in `/`.
fn os_running_as(fs: &Vfs, cred: &Credentials) -> (Os, epa::sandbox::process::Pid) {
    let mut os = Os::new();
    os.fs = fs.clone();
    os.users.add("probe", cred.euid, cred.egid, "/");
    let pid = os
        .spawn(cred.euid, None, Vec::new(), BTreeMap::new(), "/")
        .expect("spawn in /");
    (os, pid)
}

/// The file-write audit record as the write handlers built it from
/// separate god-mode `stat`s of the target, of its textual parent and of
/// the target after the write.
fn reference_write_event(
    fs: &Vfs,
    invoker: &Credentials,
    physical: PathSym,
    pre: (bool, Option<Uid>, bool, BTreeSet<epa::sandbox::fs::FileTag>),
    data: &Data,
    cred: Credentials,
) -> AuditEvent {
    let (parent_tags, invoker_could_write_parent) = path::parent(&physical)
        .and_then(|pp| fs.stat(&pp, None).ok())
        .map_or((BTreeSet::new(), false), |st| {
            let could = st.mode.grants(st.owner, st.group, invoker, Access::Write);
            (st.tags, could)
        });
    let invoker_could_read_after = fs
        .stat(&physical, None)
        .is_ok_and(|st| st.mode.grants(st.owner, st.group, invoker, Access::Read));
    AuditEvent::FileWrite(WriteInfo {
        path: physical,
        existed_before: pre.0,
        owner_before: pre.1,
        invoker_could_write: pre.2,
        target_tags: pre.3,
        parent_tags,
        invoker_could_write_parent,
        invoker_could_read_after,
        created_by_self: false,
        path_taint: LabelSet::new(),
        data_labels: data.labels().clone(),
        by: cred,
    })
}

/// `sys_write_file`, `sys_append` and `sys_unlink` as they were: a
/// god-mode `stat`/`lstat` and parent walk for the audit record, then the
/// checked `creat`/`walk`/`unlink`, each walking the path again. Returns
/// the audit events the call records.
fn reference_handler(
    fs: &mut Vfs,
    invoker: &Credentials,
    call: &str,
    abs: &str,
    cred: Credentials,
) -> SysResult<Vec<AuditEvent>> {
    let data = Data::from("x");
    if call == "unlink" {
        let st = fs.lstat(abs, None)?;
        let pw = fs.walk_parent(abs, None)?;
        let physical = pw.dir_physical.join(&pw.name);
        let dir = fs.stat(&pw.dir_physical, None)?;
        let could = dir.mode.grants(dir.owner, dir.group, invoker, Access::Write)
            && !(dir.mode.is_sticky()
                && !invoker.euid.is_root()
                && invoker.euid != st.owner
                && invoker.euid != dir.owner);
        fs.unlink(abs, &cred)?;
        return Ok(vec![AuditEvent::FileDelete {
            path: physical,
            owner: st.owner,
            tags: st.tags,
            path_taint: LabelSet::new(),
            invoker_could_delete: could,
            by: cred,
        }]);
    }
    let pre = match fs.stat(abs, None) {
        Ok(st) if st.file_type == epa::sandbox::fs::FileType::Regular => (
            true,
            Some(st.owner),
            st.mode.grants(st.owner, st.group, invoker, Access::Write),
            st.tags,
        ),
        Ok(_) => (true, None, false, BTreeSet::new()),
        Err(_) => (false, None, false, BTreeSet::new()),
    };
    let physical = if call == "append" && pre.0 {
        let w = reference_walk(fs, abs, true, Some(&cred))?;
        if !fs.grants(w.id, &cred, Access::Write)? {
            return Err(SysError::new(Errno::Eacces, abs.to_string()));
        }
        fs.write(w.id, &data, true)?;
        w.physical
    } else {
        let (w, _) = reference_creat(fs, abs, Mode::new(0o640), &cred, 0o022, 40)?;
        fs.write(w.id, &data, false)?;
        w.physical
    };
    Ok(vec![reference_write_event(fs, invoker, physical, pre, &data, cred)])
}

/// The write, append and unlink handlers walk their path once and derive
/// the audit record's facts from that walk; they must return, record and
/// leave behind exactly what the reference's separate walks did.
#[test]
fn write_append_and_unlink_handlers_match_the_reference() {
    let mut outcomes: BTreeMap<String, usize> = BTreeMap::new();
    for_each_probe(|fs, probe, cred| {
        let Some(cred) = cred else { return };
        let abs = path::join("/", probe);
        for call in ["write", "append", "unlink"] {
            let (mut os, pid) = os_running_as(fs, cred);
            let invoker = os.invoker_cred();
            let got = match call {
                "write" => os.sys_write_file(pid, "t:write", probe, "x", 0o640),
                "append" => os.sys_append(pid, "t:append", probe, "x", 0o640),
                _ => os.sys_unlink(pid, "t:unlink", probe),
            };
            let mut want_fs = fs.clone();
            let want = reference_handler(&mut want_fs, &invoker, call, &abs, *cred);
            assert_eq!(got.clone(), want.clone().map(|_| ()), "{call}({probe:?}) as {cred:?}");
            assert_eq!(
                os.audit.events(),
                want.unwrap_or_default().as_slice(),
                "{call}({probe:?}) as {cred:?}"
            );
            assert!(os.fs == want_fs, "{call}({probe:?}) as {cred:?} left a different tree");
            let key = match got {
                Ok(()) => format!("{call} ok"),
                Err(e) => format!("{call} {}", e.errno.symbol()),
            };
            *outcomes.entry(key).or_default() += 1;
        }
    });
    for outcome in [
        "write ok",
        "write EACCES",
        "append ok",
        "append EACCES",
        "unlink ok",
        "unlink EACCES",
        "unlink EINVAL",
        "unlink ENOENT",
    ] {
        assert!(
            outcomes.contains_key(outcome),
            "sweep never produced {outcome}: {outcomes:?}"
        );
    }
}
