//! Lexical path manipulation for the virtual file system.
//!
//! Paths in the sandbox are plain `/`-separated strings. This module offers
//! the *lexical* helpers (join, normalize, split); the *physical* semantics
//! of `..` and symbolic links live in the resolver inside [`crate::fs`],
//! because `..` under a symlinked directory must follow the real parent —
//! the exact subtlety that several file-system perturbations exploit.

/// True when the path starts at the root.
pub fn is_absolute(path: &str) -> bool {
    path.starts_with('/')
}

/// Joins `base` and `rel`. If `rel` is absolute it replaces `base`.
///
/// # Examples
///
/// ```
/// use epa_sandbox::path::join;
/// assert_eq!(join("/home/ta", "submit"), "/home/ta/submit");
/// assert_eq!(join("/home/ta", "/etc/passwd"), "/etc/passwd");
/// ```
pub fn join(base: &str, rel: &str) -> String {
    if is_absolute(rel) || base.is_empty() {
        return rel.to_string();
    }
    if rel.is_empty() {
        return base.to_string();
    }
    let head = base.trim_end_matches('/');
    let tail = rel.trim_start_matches('/');
    let mut out = String::with_capacity(head.len() + 1 + tail.len());
    out.push_str(head);
    out.push('/');
    out.push_str(tail);
    out
}

/// Splits a path into its non-empty components (`.` components are kept;
/// the resolver interprets them).
pub fn components(path: &str) -> impl DoubleEndedIterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty())
}

/// Lexically normalizes a path: collapses `//` and `.`, resolves `..`
/// against the textual parent, clamps `..` at the root.
///
/// Note: this is the *lexical* view only. The VFS resolver performs
/// physical resolution; `normalize` is used for display and for comparing
/// configured target paths.
pub fn normalize(path: &str) -> String {
    let absolute = is_absolute(path);
    let mut stack: Vec<&str> = Vec::new();
    for c in components(path) {
        match c {
            "." => {}
            ".." => {
                if let Some(last) = stack.last() {
                    if *last != ".." {
                        stack.pop();
                        continue;
                    }
                }
                if !absolute {
                    stack.push("..");
                }
                // At the root, `..` is clamped (POSIX: /.. == /).
            }
            other => stack.push(other),
        }
    }
    let body = stack.join("/");
    if absolute {
        format!("/{body}")
    } else if body.is_empty() {
        ".".to_string()
    } else {
        body
    }
}

/// Lexically cleans a path: collapses `//` and `.` components, leaving
/// `..` **untouched**.
///
/// Unlike [`normalize`], this never rewrites which object a path names:
/// the VFS resolves `..` *physically* (following the real parent chain,
/// even across symlinked directories), so `/var/run/../x` and `/var/x`
/// can be different inodes when `/var/run` is a symlink — textual `..`
/// resolution would conflate them. Use `clean` wherever a canonical
/// spelling is wanted without changing resolution semantics (fault
/// targets, content-addressed keys).
pub fn clean(path: &str) -> String {
    let absolute = is_absolute(path);
    let kept: Vec<&str> = components(path).filter(|c| *c != ".").collect();
    let body = kept.join("/");
    if absolute {
        format!("/{body}")
    } else if body.is_empty() {
        ".".to_string()
    } else {
        body
    }
}

/// The final component of a path, if any.
pub fn file_name(path: &str) -> Option<&str> {
    components(path).last()
}

/// The textual parent directory: `/a/b/c` → `/a/b`; `/a` → `/`.
pub fn parent(path: &str) -> Option<String> {
    let norm = normalize(path);
    if norm == "/" {
        return None;
    }
    match norm.rfind('/') {
        Some(0) => Some("/".to_string()),
        Some(idx) => Some(norm[..idx].to_string()),
        None => Some(".".to_string()),
    }
}

/// The textual parent of an absolute path that [`parent`] would return
/// unchanged, borrowed: `/a/b/c` → `/a/b`, `/a` → `/`. `None` when the
/// path is not absolute, is the root, or is not already clean (an empty,
/// `.` or `..` component, or a trailing `/`); [`parent`] handles those.
pub(crate) fn parent_of_clean(path: &str) -> Option<&str> {
    let rest = path.strip_prefix('/')?;
    if rest.split('/').any(|c| c.is_empty() || c == "." || c == "..") {
        return None;
    }
    match path.rfind('/') {
        Some(0) => Some("/"),
        Some(idx) => Some(&path[..idx]),
        None => None,
    }
}

/// True when `path` lexically starts with `prefix` on a component boundary.
pub fn starts_with(path: &str, prefix: &str) -> bool {
    let p = normalize(path);
    let pre = normalize(prefix);
    if pre == "/" {
        return p.starts_with('/');
    }
    p == pre || p.starts_with(&format!("{pre}/"))
}

/// True when the path contains a `..` component — the classic traversal
/// pattern the paper's `turnin` exploit used (`../.login`).
pub fn contains_dotdot(path: &str) -> bool {
    components(path).any(|c| c == "..")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_handles_slashes() {
        assert_eq!(join("/", "etc"), "/etc");
        assert_eq!(join("/etc/", "passwd"), "/etc/passwd");
        assert_eq!(join("/etc", ""), "/etc");
        assert_eq!(join("", "x"), "x");
    }

    #[test]
    fn clean_collapses_but_preserves_dotdot() {
        assert_eq!(clean("/a//b/./c"), "/a/b/c");
        assert_eq!(
            clean("/var/run/../x"),
            "/var/run/../x",
            "`..` resolution is physical, not lexical"
        );
        assert_eq!(clean("./a/./b"), "a/b");
        assert_eq!(clean("/"), "/");
        assert_eq!(clean("."), ".");
    }

    #[test]
    fn normalize_collapses() {
        assert_eq!(normalize("/a//b/./c"), "/a/b/c");
        assert_eq!(normalize("/a/b/../c"), "/a/c");
        assert_eq!(normalize("/../.."), "/");
        assert_eq!(normalize("a/../../b"), "../b");
        assert_eq!(normalize("./"), ".");
        assert_eq!(normalize("/"), "/");
    }

    #[test]
    fn parent_and_file_name() {
        assert_eq!(parent("/a/b/c").as_deref(), Some("/a/b"));
        assert_eq!(parent("/a").as_deref(), Some("/"));
        assert_eq!(parent("/"), None);
        assert_eq!(file_name("/a/b/c"), Some("c"));
        assert_eq!(file_name("/"), None);
        assert_eq!(parent("rel/x").as_deref(), Some("rel"));
    }

    #[test]
    fn a_clean_parent_is_borrowed_and_agrees_with_parent() {
        for clean in ["/a/b/c", "/a", "/a/b..c/.d", "/tmp/x.moved"] {
            assert_eq!(parent_of_clean(clean), parent(clean).as_deref(), "{clean}");
        }
        // Unclean forms are left to `parent`, which normalizes them.
        for unclean in [
            "/", "/a//b", "//a", "/a/./b", "/a/.", "/a/../b", "/a/..", "/a/b/", "rel/x", "",
        ] {
            assert_eq!(parent_of_clean(unclean), None, "{unclean}");
        }
        assert_eq!(parent("/a//b").as_deref(), Some("/a"));
        assert_eq!(parent("/a/./b/").as_deref(), Some("/a"));
        assert_eq!(parent("/a/b/../c").as_deref(), Some("/a"));
    }

    #[test]
    fn starts_with_component_boundaries() {
        assert!(starts_with("/etc/passwd", "/etc"));
        assert!(!starts_with("/etcetera", "/etc"));
        assert!(starts_with("/etc", "/etc"));
        assert!(starts_with("/anything", "/"));
    }

    #[test]
    fn dotdot_detection() {
        assert!(contains_dotdot("../.login"));
        assert!(contains_dotdot("a/../b"));
        assert!(!contains_dotdot("a/b..c/..d"));
    }
}
