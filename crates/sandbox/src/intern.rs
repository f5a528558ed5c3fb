//! Interned path symbols — the hot-loop's answer to per-component
//! `String` churn.
//!
//! Every path the sandbox keeps (a walk's physical result, audit events,
//! fault-key canonicalization) is first *cleaned* with
//! [`crate::path::clean`] and then interned into a process-wide symbol
//! table. Resolution itself walks borrowed text and interns only the
//! physical path it reaches, once: the table sits behind a global
//! `RwLock`, which a per-component lookup contends on from every worker.
//! The resulting [`PathSym`] is a `Copy` handle: cloning an
//! audit event no longer copies path bytes, equality is a pointer
//! compare, and the same path text is stored exactly once for the
//! lifetime of the process.
//!
//! Two invariants make the symbol a drop-in replacement for the owned
//! `String` it displaces:
//!
//! 1. **Symbol equality ≡ clean equality.** `intern(a) == intern(b)`
//!    exactly when `path::clean(a) == path::clean(b)` — including the
//!    `..`-preserving rule pinned in PR 5 (`..` is resolved physically
//!    by the VFS walk, never textually here).
//! 2. **Content uniqueness.** The table never stores two allocations
//!    with equal text, so the pointer-equality fast path and the
//!    content [`Ord`] are mutually consistent.
//!
//! The table leaks its strings (`Box::leak`) — a deliberate arena:
//! the set of distinct paths in a campaign is small and bounded by the
//! scenario corpus, and leaking buys `&'static str` handles with no
//! unsafe code and no lifetime threading. [`stats`] exposes hit/miss
//! counters that double as the allocations-per-run proxy pinned by
//! `tests/intern_steady_state.rs` (a counting global allocator is off the
//! table: the workspace forbids `unsafe_code`).

use shim_sync::sync::atomic::{AtomicU64, Ordering};
use shim_sync::sync::{OnceLock, RwLock};
use std::collections::HashMap;
use std::fmt;

use crate::path;

/// An interned, cleaned path — a `Copy` symbol whose equality is a
/// pointer compare and whose text lives for the life of the process.
///
/// Construct one with [`intern`] (or the `From` impls, which intern).
/// The symbol derefs to `str`, so read-only call sites
/// (`starts_with`, `contains`, formatting) keep working unchanged.
#[derive(Clone, Copy)]
pub struct PathSym(&'static str);

impl PathSym {
    /// The interned root path, `"/"`.
    pub fn root() -> PathSym {
        intern("/")
    }

    /// The symbol's text (already cleaned).
    pub fn as_str(&self) -> &'static str {
        self.0
    }

    /// Interns `self`'s text joined with one more component — a created
    /// entry's path, or one step of `Vfs::path_of` — served from a
    /// `(dir, name)` cache so a re-joined prefix never re-allocates.
    pub fn join(&self, name: &str) -> PathSym {
        table().join(*self, name)
    }
}

impl PartialEq for PathSym {
    fn eq(&self, other: &PathSym) -> bool {
        // Content uniqueness makes pointer equality exact.
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for PathSym {}

impl std::hash::Hash for PathSym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash by content so PathSym and str keys agree in maps that
        // mix them; equality remains the pointer fast path.
        self.0.hash(state);
    }
}

impl PartialOrd for PathSym {
    fn partial_cmp(&self, other: &PathSym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PathSym {
    fn cmp(&self, other: &PathSym) -> std::cmp::Ordering {
        // Content order: deterministic across runs (pointer order is
        // not), which the verdict sort keys rely on.
        self.0.cmp(other.0)
    }
}

impl std::ops::Deref for PathSym {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl std::borrow::Borrow<str> for PathSym {
    /// Sound because content uniqueness makes a symbol's equality, order
    /// and hash those of its text.
    fn borrow(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for PathSym {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl fmt::Display for PathSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl fmt::Debug for PathSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl From<&str> for PathSym {
    fn from(s: &str) -> PathSym {
        intern(s)
    }
}

impl From<&String> for PathSym {
    fn from(s: &String) -> PathSym {
        intern(s)
    }
}

impl From<String> for PathSym {
    fn from(s: String) -> PathSym {
        intern(&s)
    }
}

impl PartialEq<str> for PathSym {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for PathSym {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<String> for PathSym {
    fn eq(&self, other: &String) -> bool {
        self.0 == other.as_str()
    }
}

impl PartialEq<PathSym> for str {
    fn eq(&self, other: &PathSym) -> bool {
        self == other.0
    }
}

impl PartialEq<PathSym> for &str {
    fn eq(&self, other: &PathSym) -> bool {
        *self == other.0
    }
}

impl PartialEq<PathSym> for String {
    fn eq(&self, other: &PathSym) -> bool {
        self.as_str() == other.0
    }
}

impl serde::Serialize for PathSym {
    fn ser(&self) -> serde::Value {
        // Wire format is the plain string — every JSON schema that
        // carried an owned path is byte-identical with symbols.
        serde::Value::Str(self.0.to_string())
    }
}

impl serde::Deserialize for PathSym {
    fn de(v: &serde::Value) -> Result<PathSym, serde::DeError> {
        match v {
            serde::Value::Str(s) => Ok(intern(s)),
            _ => Err(serde::DeError::expected("path string", "PathSym")),
        }
    }
}

/// Interner counters — the bench's allocations-per-run proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Lookups served from the table without allocating.
    pub hits: u64,
    /// Lookups that interned (and leaked) a new string.
    pub misses: u64,
    /// Distinct symbols currently live (equals total leaked strings).
    pub symbols: u64,
    /// `(dir, name)` join-cache lookups served without re-cleaning.
    pub join_hits: u64,
}

struct Table {
    syms: RwLock<HashMap<&'static str, PathSym>>,
    joins: RwLock<HashMap<(PathSym, PathSym), PathSym>>,
    hits: AtomicU64,
    misses: AtomicU64,
    join_hits: AtomicU64,
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| Table {
        syms: RwLock::new(HashMap::new()),
        joins: RwLock::new(HashMap::new()),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        join_hits: AtomicU64::new(0),
    })
}

impl Table {
    /// Interns text that is already clean (private fast path).
    fn intern_clean(&self, cleaned: &str) -> PathSym {
        if let Some(&sym) = self.syms.read().expect("interner poisoned").get(cleaned) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return sym;
        }
        let mut map = self.syms.write().expect("interner poisoned");
        // Double-check: another thread may have interned between locks.
        if let Some(&sym) = map.get(cleaned) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return sym;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let leaked: &'static str = Box::leak(cleaned.to_string().into_boxed_str());
        let sym = PathSym(leaked);
        map.insert(leaked, sym);
        sym
    }

    fn join(&self, dir: PathSym, name: &str) -> PathSym {
        // The component is itself a symbol, so the cache key is Copy
        // and 'static. Cleaning is segment-local, so keying on the
        // cleaned component cannot conflate distinct joined paths.
        let name_sym = intern(name);
        if let Some(&sym) = self.joins.read().expect("interner poisoned").get(&(dir, name_sym)) {
            self.join_hits.fetch_add(1, Ordering::Relaxed);
            return sym;
        }
        let sym = intern(&path::join(dir.as_str(), name_sym.as_str()));
        self.joins
            .write()
            .expect("interner poisoned")
            .insert((dir, name_sym), sym);
        sym
    }
}

/// Interns a path: cleans it with [`path::clean`], then returns the
/// process-wide unique symbol for the cleaned text.
pub fn intern(p: &str) -> PathSym {
    let t = table();
    // Most lookups arrive already clean (walk output, re-interned
    // symbols); probe the raw text first and only clean on miss.
    if let Some(&sym) = t.syms.read().expect("interner poisoned").get(p) {
        // A stored key is always cleaned text, so a raw hit here means
        // `p` was already clean.
        t.hits.fetch_add(1, Ordering::Relaxed);
        return sym;
    }
    let cleaned = path::clean(p);
    t.intern_clean(&cleaned)
}

/// A snapshot of the interner counters (see [`InternStats`]).
pub fn stats() -> InternStats {
    let t = table();
    InternStats {
        hits: t.hits.load(Ordering::Relaxed),
        misses: t.misses.load(Ordering::Relaxed),
        symbols: t.syms.read().expect("interner poisoned").len() as u64,
        join_hits: t.join_hits.load(Ordering::Relaxed),
    }
}

/// Interned text kept verbatim: the provenance a [`crate::data::Label`]
/// names (a physical path, `file:…`, `registry:…`, a peer host). A `Copy`
/// handle, so copying a label or a label set copies pointers, not bytes.
///
/// Unlike [`PathSym`] the text is never path-cleaned, and equality, order
/// and hashing are by content (a symbol made from a [`PathSym`] shares the
/// path table's text instead of being re-interned). The table is a
/// process-wide leaked arena like the path table's, bounded by the distinct
/// label texts a campaign produces, and it keeps no hit counters: a
/// label's text never shows in [`stats`].
#[derive(Clone, Copy)]
pub struct TextSym(&'static str);

/// Concatenations up to this length are looked up from a stack buffer,
/// so a label text the table already holds costs no allocation.
const CONCAT_STACK: usize = 256;

fn texts() -> &'static RwLock<std::collections::HashSet<&'static str>> {
    static TEXTS: OnceLock<RwLock<std::collections::HashSet<&'static str>>> = OnceLock::new();
    TEXTS.get_or_init(|| RwLock::new(std::collections::HashSet::new()))
}

impl TextSym {
    /// The symbol for `text`, interned once per distinct text.
    pub fn new(text: &str) -> TextSym {
        if let Some(&s) = texts().read().expect("text table poisoned").get(text) {
            return TextSym(s);
        }
        let mut table = texts().write().expect("text table poisoned");
        if let Some(&s) = table.get(text) {
            return TextSym(s);
        }
        let leaked: &'static str = Box::leak(text.to_string().into_boxed_str());
        table.insert(leaked);
        TextSym(leaked)
    }

    /// The symbol for a literal's text, without a lookup: equality falls
    /// back to comparing text, so it equals the table's symbol for the
    /// same text.
    pub(crate) const fn literal(text: &'static str) -> TextSym {
        TextSym(text)
    }

    /// The symbol for `parts` joined (`file:` and a path), without
    /// building the joined text on the heap when it is short.
    pub fn concat(parts: &[&str]) -> TextSym {
        let len = parts.iter().map(|p| p.len()).sum();
        if len > CONCAT_STACK {
            return TextSym::new(&parts.concat());
        }
        let mut buf = [0u8; CONCAT_STACK];
        let mut end = 0;
        for part in parts {
            buf[end..end + part.len()].copy_from_slice(part.as_bytes());
            end += part.len();
        }
        TextSym::new(std::str::from_utf8(&buf[..len]).expect("joined strs are a str"))
    }

    /// The text.
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl From<PathSym> for TextSym {
    fn from(p: PathSym) -> TextSym {
        TextSym(p.as_str())
    }
}

impl From<&str> for TextSym {
    fn from(s: &str) -> TextSym {
        TextSym::new(s)
    }
}

impl From<String> for TextSym {
    fn from(s: String) -> TextSym {
        TextSym::new(&s)
    }
}

impl PartialEq for TextSym {
    fn eq(&self, other: &TextSym) -> bool {
        std::ptr::eq(self.0, other.0) || self.0 == other.0
    }
}

impl Eq for TextSym {}

impl PartialEq<str> for TextSym {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for TextSym {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl std::hash::Hash for TextSym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialOrd for TextSym {
    fn partial_cmp(&self, other: &TextSym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TextSym {
    fn cmp(&self, other: &TextSym) -> std::cmp::Ordering {
        self.0.cmp(other.0)
    }
}

impl std::ops::Deref for TextSym {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl AsRef<str> for TextSym {
    fn as_ref(&self) -> &str {
        self.0
    }
}

impl fmt::Display for TextSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl fmt::Debug for TextSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl serde::Serialize for TextSym {
    fn ser(&self) -> serde::Value {
        serde::Value::Str(self.0.to_string())
    }
}

impl serde::Deserialize for TextSym {
    fn de(v: &serde::Value) -> Result<TextSym, serde::DeError> {
        match v {
            serde::Value::Str(s) => Ok(TextSym::new(s)),
            _ => Err(serde::DeError::expected("string", "TextSym")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_cleans_share_a_symbol() {
        assert_eq!(intern("/etc//passwd"), intern("/etc/./passwd"));
        assert_eq!(intern("/etc/passwd").as_str(), "/etc/passwd");
    }

    #[test]
    fn dotdot_is_preserved_not_resolved() {
        // PR 5's rule: clean() collapses `//` and `.` but leaves `..`
        // for the physical walk.
        assert_eq!(intern("/var/run/../x").as_str(), "/var/run/../x");
        assert_ne!(intern("/var/run/../x"), intern("/var/x"));
    }

    #[test]
    fn join_extends_and_caches() {
        let etc = intern("/etc");
        assert_eq!(etc.join("passwd"), intern("/etc/passwd"));
        let before = stats().join_hits;
        assert_eq!(etc.join("passwd"), intern("/etc/passwd"));
        assert!(stats().join_hits > before);
        assert_eq!(PathSym::root().join("etc"), etc);
    }

    #[test]
    fn ordering_is_by_content() {
        assert!(intern("/a") < intern("/b"));
        assert!(intern("/a/b") < intern("/b"));
    }

    #[test]
    fn serde_round_trips_as_plain_string() {
        use serde::{Deserialize, Serialize};
        let sym = intern("/etc/shadow");
        let v = sym.ser();
        assert_eq!(v, serde::Value::Str("/etc/shadow".into()));
        assert_eq!(PathSym::de(&v).unwrap(), sym);
    }

    #[test]
    fn text_symbols_keep_text_verbatim() {
        // No path cleaning: `//` and trailing `/` survive.
        assert_eq!(TextSym::new("file://a/").as_str(), "file://a/");
        assert_eq!(
            TextSym::concat(&["file", ":", "/etc/shadow"]),
            TextSym::new("file:/etc/shadow")
        );
        let long = "x".repeat(CONCAT_STACK + 1);
        assert_eq!(TextSym::concat(&["p:", &long]).as_str(), format!("p:{long}"));
        // A path symbol's text is shared, and compares by content.
        assert_eq!(TextSym::from(intern("/etc/passwd")), TextSym::new("/etc/passwd"));
        assert!(TextSym::new("a") < TextSym::new("b"));
    }
}
