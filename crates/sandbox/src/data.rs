//! Labeled data: the byte payloads applications move around, plus the
//! oracle-side provenance labels that ride along with them.
//!
//! The security-policy oracle needs to answer questions like *"did bytes the
//! invoker may not read reach a sink the invoker can observe?"* without any
//! cooperation from the (possibly buggy) application. Every input an
//! application receives from its environment is therefore a [`Data`] value:
//! raw bytes plus a set of [`Label`]s describing where the bytes came from
//! and how trustworthy they are. Labels are **invisible to application
//! logic** by convention — model applications only look at the bytes — and
//! are consumed exclusively by [`crate::policy`].

use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};
use shim_sync::sync::Arc;

use crate::intern::TextSym;

/// Provenance / sensitivity label attached to data or to a path argument.
///
/// Label text is an interned [`TextSym`], so a label is `Copy`: taint
/// moving through a run copies pointers, not strings. Its `Display` and
/// JSON forms are the plain text (pinned in `tests/label_wire.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Label {
    /// The bytes were read from a secret-tagged file. `invoker_may_read`
    /// records whether the *real* invoking user could have read that file
    /// without the application's privilege; if false, emitting these bytes
    /// to an invoker-visible sink is a confidentiality violation.
    Secret {
        /// Path of the file the bytes came from.
        path: TextSym,
        /// Whether the invoker could read the source directly.
        invoker_may_read: bool,
    },
    /// The bytes came from a source an attacker could control: a file owned
    /// by neither root nor the invoker, a world-writable registry key, an
    /// untrusted network peer.
    Untrusted {
        /// Description of the untrusted source.
        source: TextSym,
    },
    /// The bytes arrived in a message whose claimed origin differs from its
    /// actual origin (authenticity perturbation).
    Spoofed {
        /// Origin the message claimed.
        claimed_from: TextSym,
        /// Where it actually came from.
        actual_from: TextSym,
    },
}

impl Label {
    /// An `Untrusted` label whose source is `kind` and `name` joined by a
    /// colon (`file:/tmp/x`, `registry:HKLM/...`), interned without
    /// building the text on the heap.
    pub fn untrusted(kind: &str, name: &str) -> Label {
        Label::Untrusted {
            source: TextSym::concat(&[kind, ":", name]),
        }
    }

    /// True for a `Secret` label the invoker may *not* read directly.
    pub fn is_protected_secret(&self) -> bool {
        matches!(
            self,
            Label::Secret {
                invoker_may_read: false,
                ..
            }
        )
    }

    /// True for an `Untrusted` label.
    pub fn is_untrusted(&self) -> bool {
        matches!(self, Label::Untrusted { .. })
    }

    /// True for a `Spoofed` label.
    pub fn is_spoofed(&self) -> bool {
        matches!(self, Label::Spoofed { .. })
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Secret { path, invoker_may_read } => {
                write!(f, "secret({path}, invoker_may_read={invoker_may_read})")
            }
            Label::Untrusted { source } => write!(f, "untrusted({source})"),
            Label::Spoofed {
                claimed_from,
                actual_from,
            } => {
                write!(f, "spoofed(claimed={claimed_from}, actual={actual_from})")
            }
        }
    }
}

/// An ordered set of [`Label`]s, the taint one value or path carries.
///
/// Most sets in a run are empty or hold one label; neither allocates.
/// Larger sets share one immutable sorted slice, so cloning any set (a
/// path's taint into an audit event, a read's labels into every line of
/// its text) never allocates, and a union allocates only when it adds
/// something both sides lack. Iteration order, equality, hashing, `Debug`
/// and the JSON sequence are those of the `BTreeSet<Label>` it replaces.
#[derive(Clone, Default)]
pub struct LabelSet(Repr);

#[derive(Clone, Default)]
enum Repr {
    #[default]
    Empty,
    One(Label),
    Many(Arc<[Label]>),
}

impl LabelSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The labels in order.
    pub fn as_slice(&self) -> &[Label] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(label) => std::slice::from_ref(label),
            Repr::Many(labels) => labels,
        }
    }

    /// Iterates the labels in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Label> {
        self.as_slice().iter()
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the set holds no label.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Repr::Empty)
    }

    /// Whether `label` is in the set.
    pub fn contains(&self, label: &Label) -> bool {
        self.as_slice().binary_search(label).is_ok()
    }

    /// Adds a label; false when it was already present.
    pub fn insert(&mut self, label: Label) -> bool {
        let Err(at) = self.as_slice().binary_search(&label) else {
            return false;
        };
        self.0 = match &self.0 {
            Repr::Empty => Repr::One(label),
            _ => {
                let labels = self.as_slice();
                Repr::Many(
                    labels[..at]
                        .iter()
                        .copied()
                        .chain(std::iter::once(label))
                        .chain(labels[at..].iter().copied())
                        .collect(),
                )
            }
        };
        true
    }

    /// Adds every label of `other`, sharing its storage when `self` adds
    /// nothing of its own.
    pub fn union_with(&mut self, other: &LabelSet) {
        if other.is_subset(self) {
            return;
        }
        if self.is_subset(other) {
            *self = other.clone();
            return;
        }
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        let mut merged = Vec::with_capacity(self.len() + other.len());
        loop {
            let next = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => match x.cmp(y) {
                    std::cmp::Ordering::Less => a.next(),
                    std::cmp::Ordering::Greater => b.next(),
                    std::cmp::Ordering::Equal => {
                        b.next();
                        a.next()
                    }
                },
                (Some(_), None) => a.next(),
                (None, Some(_)) => b.next(),
                (None, None) => break,
            };
            merged.extend(next.copied());
        }
        self.0 = Repr::Many(merged.into());
    }

    /// Whether every label of `self` is in `other`.
    fn is_subset(&self, other: &LabelSet) -> bool {
        match (&self.0, &other.0) {
            (Repr::Empty, _) => true,
            (Repr::Many(a), Repr::Many(b)) if Arc::ptr_eq(a, b) => true,
            _ => self.len() <= other.len() && self.iter().all(|l| other.contains(l)),
        }
    }
}

impl PartialEq for LabelSet {
    fn eq(&self, other: &LabelSet) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for LabelSet {}

impl Hash for LabelSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // A length prefix, then each label: what `BTreeSet` feeds a hasher,
        // so world fingerprints are unchanged.
        state.write_usize(self.len());
        for label in self {
            label.hash(state);
        }
    }
}

impl fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a LabelSet {
    type Item = &'a Label;
    type IntoIter = std::slice::Iter<'a, Label>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<Label> for LabelSet {
    fn from_iter<I: IntoIterator<Item = Label>>(labels: I) -> Self {
        let mut labels: Vec<Label> = labels.into_iter().collect();
        labels.sort_unstable();
        labels.dedup();
        LabelSet(match labels.as_slice() {
            [] => Repr::Empty,
            [one] => Repr::One(*one),
            _ => Repr::Many(labels.into()),
        })
    }
}

impl Serialize for LabelSet {
    fn ser(&self) -> serde::Value {
        serde::Value::Seq(self.iter().map(Serialize::ser).collect())
    }
}

impl Deserialize for LabelSet {
    fn de(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Seq(s) => s.iter().map(Label::de).collect(),
            _ => Err(serde::DeError::expected("sequence", "LabelSet")),
        }
    }
}

/// A value's bytes. Nearly all are UTF-8 and are held as text, so reading
/// the text of a value neither validates nor copies it. Text read from the
/// world (a file, a registry value, an argument, a queued message) is
/// `Shared` with the place it was read from: cloning it bumps a count, and
/// only writing into it copies it into an owned `Text`. Hashing, equality,
/// `Debug` and the wire form are the byte vector's, whichever form holds
/// the bytes.
#[derive(Clone)]
enum Content {
    Shared(Arc<str>),
    Text(String),
    Bytes(Vec<u8>),
}

impl Content {
    /// Validates `bytes` once.
    fn of(bytes: Vec<u8>) -> Content {
        match String::from_utf8(bytes) {
            Ok(text) => Content::Text(text),
            Err(e) => Content::Bytes(e.into_bytes()),
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Content::Shared(text) => text.as_bytes(),
            Content::Text(text) => text.as_bytes(),
            Content::Bytes(bytes) => bytes,
        }
    }

    /// The text, when the bytes are UTF-8.
    fn as_str(&self) -> Option<&str> {
        match self {
            Content::Shared(text) => Some(text),
            Content::Text(text) => Some(text),
            Content::Bytes(_) => None,
        }
    }

    /// Appends `tail`; shared text is copied into an owned `Text` first,
    /// with room for the tail.
    fn push_str(&mut self, tail: &str) {
        match self {
            Content::Shared(head) => {
                let mut text = String::with_capacity(head.len() + tail.len());
                text.push_str(head);
                text.push_str(tail);
                *self = Content::Text(text);
            }
            Content::Text(text) => text.push_str(tail),
            Content::Bytes(bytes) => bytes.extend_from_slice(tail.as_bytes()),
        }
    }

    /// Appends `more`, keeping a text form while the result is UTF-8.
    fn push(&mut self, more: &Content) {
        match more.as_str() {
            Some(tail) if self.as_str().is_some() => self.push_str(tail),
            _ => {
                let mut bytes = std::mem::take(self).into_bytes();
                bytes.extend_from_slice(more.as_bytes());
                *self = Content::of(bytes);
            }
        }
    }

    fn into_bytes(self) -> Vec<u8> {
        match self {
            Content::Shared(text) => text.as_bytes().to_vec(),
            Content::Text(text) => text.into_bytes(),
            Content::Bytes(bytes) => bytes,
        }
    }
}

impl Default for Content {
    fn default() -> Self {
        Content::Text(String::new())
    }
}

impl PartialEq for Content {
    fn eq(&self, other: &Content) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Content {}

impl Hash for Content {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Content {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_bytes(), f)
    }
}

impl Serialize for Content {
    fn ser(&self) -> serde::Value {
        serde::Value::Seq(self.as_bytes().iter().map(Serialize::ser).collect())
    }
}

impl Deserialize for Content {
    fn de(v: &serde::Value) -> Result<Self, serde::DeError> {
        Vec::<u8>::de(v).map(Content::of)
    }
}

/// Bytes plus provenance labels.
///
/// A value's text may be shared with the source it was read from: a value
/// made from an `Arc<str>` or a `&str`, or read back out of a file,
/// registry value, argument, environment variable or queued message, holds
/// a reference-counted handle on that text, so cloning or reading it copies
/// no bytes. Writing into a value (`push_str`, `append`) copies its text
/// first, and `set_bytes` or `set_text` replace it; the source never
/// changes. Shared and owned values with the same bytes and labels cannot
/// be told apart: equality, hashing, `Debug` and the JSON form are those
/// of the bytes.
///
/// # Examples
///
/// ```
/// use epa_sandbox::data::{Data, Label};
/// let mut d = Data::from("root:x:0:0:");
/// d.add_label(Label::Secret { path: "/etc/shadow".into(), invoker_may_read: false });
/// assert!(d.has_protected_secret());
/// assert_eq!(d.text(), "root:x:0:0:");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Data {
    bytes: Content,
    labels: LabelSet,
}

impl Data {
    /// Empty, unlabeled data.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style label attachment.
    pub fn with_label(mut self, label: Label) -> Self {
        self.labels.insert(label);
        self
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes.as_bytes()
    }

    /// The bytes decoded as UTF-8 (lossily), as an owned string. See
    /// [`Data::as_text`] for a borrow.
    pub fn text(&self) -> String {
        self.as_text().into_owned()
    }

    /// The bytes decoded as UTF-8 (lossily), borrowed when they are valid
    /// UTF-8: reading a value's text allocates only to repair it.
    pub fn as_text(&self) -> Cow<'_, str> {
        match self.bytes.as_str() {
            Some(text) => Cow::Borrowed(text),
            None => String::from_utf8_lossy(self.bytes.as_bytes()),
        }
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// True when there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.as_bytes().is_empty()
    }

    /// The label set.
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// Attaches a label.
    pub fn add_label(&mut self, label: Label) {
        self.labels.insert(label);
    }

    /// Replaces the byte content, keeping labels (taint survives rewriting).
    pub fn set_bytes(&mut self, bytes: impl Into<Vec<u8>>) {
        self.bytes = Content::of(bytes.into());
    }

    /// Replaces the content with `text`, keeping labels: as
    /// [`Data::set_bytes`], without validating text that is already a
    /// `String`.
    pub fn set_text(&mut self, text: String) {
        self.bytes = Content::Text(text);
    }

    /// Appends text, keeping labels.
    pub fn push_str(&mut self, s: &str) {
        self.bytes.push_str(s);
    }

    /// Appends another `Data`, unioning its labels (label propagation on
    /// concatenation — how indirect faults flow through internal entities).
    pub fn append(&mut self, other: &Data) {
        self.bytes.push(&other.bytes);
        self.labels.union_with(&other.labels);
    }

    /// Copies the labels of `other` onto `self` (propagation on derivation:
    /// a value *computed from* tainted input is tainted).
    pub fn taint_from(&mut self, other: &Data) {
        self.labels.union_with(&other.labels);
    }

    /// This value with its text shared: the copy a store keeps, so that
    /// every later read of it shares the text instead of copying it. Owned
    /// text is copied once into the shared form; shared text and bytes
    /// that are not UTF-8 are cloned as they are.
    pub fn to_shared(&self) -> Data {
        let bytes = match &self.bytes {
            Content::Text(text) => Content::Shared(Arc::from(text.as_str())),
            other => other.clone(),
        };
        Data {
            bytes,
            labels: self.labels.clone(),
        }
    }

    /// `text` with the labels of `self`: a piece of this value's text.
    fn piece(&self, text: &str) -> Data {
        Data {
            bytes: Content::Text(text.to_string()),
            labels: self.labels.clone(),
        }
    }

    /// Splits the text on a separator; every piece inherits all labels.
    pub fn split_text(&self, sep: char) -> Vec<Data> {
        self.as_text().split(sep).map(|piece| self.piece(piece)).collect()
    }

    /// Lines of the text; every line inherits all labels.
    pub fn lines(&self) -> Vec<Data> {
        self.as_text().lines().map(|line| self.piece(line)).collect()
    }

    /// True when any label is a secret the invoker may not read.
    pub fn has_protected_secret(&self) -> bool {
        self.labels.iter().any(Label::is_protected_secret)
    }

    /// True when any label marks the data untrusted.
    pub fn has_untrusted(&self) -> bool {
        self.labels.iter().any(Label::is_untrusted)
    }

    /// True when any label marks the data spoofed.
    pub fn has_spoofed(&self) -> bool {
        self.labels.iter().any(Label::is_spoofed)
    }
}

impl From<&str> for Data {
    /// Copies `s` once into a shared text.
    fn from(s: &str) -> Self {
        Data::from(Arc::<str>::from(s))
    }
}

impl From<Arc<str>> for Data {
    /// Shares `text`: no bytes are copied.
    fn from(text: Arc<str>) -> Self {
        Data {
            bytes: Content::Shared(text),
            labels: LabelSet::new(),
        }
    }
}

impl From<String> for Data {
    fn from(s: String) -> Self {
        Data {
            bytes: Content::Text(s),
            labels: LabelSet::new(),
        }
    }
}

impl From<Vec<u8>> for Data {
    fn from(bytes: Vec<u8>) -> Self {
        Data {
            bytes: Content::of(bytes),
            labels: LabelSet::new(),
        }
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_text())
    }
}

/// A path argument to a syscall, carrying the taint of whatever data the
/// application derived the path from.
///
/// Passing a plain `&str` produces an untainted path; passing a [`Data`]
/// (e.g. a file name read from a registry key) carries its labels so the
/// oracle can flag privileged operations on attacker-influenced names.
/// The text is borrowed from the `&str` or `Data` it was made from where
/// it can be, so naming a path allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathArg<'a> {
    /// The path text.
    pub path: Cow<'a, str>,
    /// Labels inherited from the data the path was derived from.
    pub taint: LabelSet,
}

impl<'a> PathArg<'a> {
    /// An untainted path.
    pub fn clean(path: impl Into<Cow<'a, str>>) -> Self {
        PathArg {
            path: path.into(),
            taint: LabelSet::new(),
        }
    }

    /// True when the taint set contains an `Untrusted` label.
    pub fn has_untrusted(&self) -> bool {
        self.taint.iter().any(Label::is_untrusted)
    }

    /// True when the taint set contains a `Spoofed` label.
    pub fn has_spoofed(&self) -> bool {
        self.taint.iter().any(Label::is_spoofed)
    }

    /// Joins a relative component onto this path, keeping taint and adding
    /// the component's taint.
    pub fn join(&self, component: &PathArg<'_>) -> PathArg<'static> {
        let mut taint = self.taint.clone();
        taint.union_with(&component.taint);
        PathArg {
            path: Cow::Owned(crate::path::join(&self.path, &component.path)),
            taint,
        }
    }
}

impl<'a> From<&'a str> for PathArg<'a> {
    fn from(s: &'a str) -> Self {
        PathArg::clean(s)
    }
}

impl From<String> for PathArg<'_> {
    fn from(s: String) -> Self {
        PathArg::clean(s)
    }
}

impl<'a> From<&'a Data> for PathArg<'a> {
    fn from(d: &'a Data) -> Self {
        PathArg {
            path: d.as_text(),
            taint: d.labels().clone(),
        }
    }
}

impl<'a> From<&'a PathArg<'_>> for PathArg<'a> {
    fn from(p: &'a PathArg<'_>) -> Self {
        PathArg {
            path: Cow::Borrowed(&p.path),
            taint: p.taint.clone(),
        }
    }
}

impl fmt::Display for PathArg<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_propagate_on_append() {
        let mut a = Data::from("PATH=");
        let b = Data::from("/tmp/evil").with_label(Label::Untrusted { source: "env".into() });
        a.append(&b);
        assert!(a.has_untrusted());
        assert_eq!(a.text(), "PATH=/tmp/evil");
    }

    #[test]
    fn split_inherits_labels() {
        let d = Data::from("/bin:/usr/bin").with_label(Label::Untrusted { source: "x".into() });
        let parts = d.split_text(':');
        assert_eq!(parts.len(), 2);
        assert!(parts.iter().all(Data::has_untrusted));
    }

    #[test]
    fn lines_inherit_labels() {
        let d = Data::from("a\nb\n").with_label(Label::Spoofed {
            claimed_from: "ta".into(),
            actual_from: "evil".into(),
        });
        let lines = d.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(Data::has_spoofed));
    }

    #[test]
    fn patharg_from_data_carries_taint() {
        let d = Data::from("/etc/shadow").with_label(Label::Untrusted { source: "reg".into() });
        let p = PathArg::from(&d);
        assert!(p.has_untrusted());
        assert_eq!(p.path, "/etc/shadow");
    }

    #[test]
    fn patharg_join_merges_taint() {
        let base = PathArg::clean("/home/ta/submit");
        let argv = Data::from("../.login").with_label(Label::Untrusted { source: "argv".into() });
        let name = PathArg::from(&argv);
        let joined = base.join(&name);
        assert_eq!(joined.path, "/home/ta/submit/../.login");
        assert!(joined.has_untrusted());
    }

    #[test]
    fn secret_predicates() {
        let readable = Label::Secret {
            path: "/x".into(),
            invoker_may_read: true,
        };
        let hidden = Label::Secret {
            path: "/y".into(),
            invoker_may_read: false,
        };
        assert!(!readable.is_protected_secret());
        assert!(hidden.is_protected_secret());
        let d = Data::from("z").with_label(hidden);
        assert!(d.has_protected_secret());
    }

    #[test]
    fn non_utf8_bytes_are_kept_and_repaired_only_for_text() {
        let mut d = Data::from(vec![b'a', 0xff]);
        assert_eq!(d.as_bytes(), [b'a', 0xff]);
        assert_eq!(d.text(), "a\u{fffd}");
        d.push_str("b");
        assert_eq!(d.as_bytes(), [b'a', 0xff, b'b']);
        // Bytes that complete a split character become text again.
        let mut head = Data::from(vec![0xc3]);
        head.append(&Data::from(vec![0xa9]));
        assert_eq!(head.as_text(), "\u{e9}");
        assert_eq!(head, Data::from("\u{e9}"));
        let json = serde_json::to_string(&Data::from("hi")).unwrap();
        assert_eq!(json, r#"{"bytes":[104,105],"labels":[]}"#);
        assert_eq!(serde_json::from_str::<Data>(&json).unwrap(), Data::from("hi"));
        assert_eq!(
            format!("{:?}", Data::from("hi")),
            "Data { bytes: [104, 105], labels: {} }"
        );
    }

    #[test]
    fn set_bytes_keeps_labels() {
        let mut d = Data::from("orig").with_label(Label::Untrusted { source: "s".into() });
        d.set_bytes("replaced".as_bytes().to_vec());
        assert_eq!(d.text(), "replaced");
        assert!(d.has_untrusted());
        d.set_text("again".to_string());
        assert_eq!(
            d,
            Data::from("again").with_label(Label::Untrusted { source: "s".into() })
        );
    }
}
