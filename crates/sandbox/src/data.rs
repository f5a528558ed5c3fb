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

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Provenance / sensitivity label attached to data or to a path argument.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Label {
    /// The bytes were read from a secret-tagged file. `invoker_may_read`
    /// records whether the *real* invoking user could have read that file
    /// without the application's privilege; if false, emitting these bytes
    /// to an invoker-visible sink is a confidentiality violation.
    Secret {
        /// Path of the file the bytes came from.
        path: String,
        /// Whether the invoker could read the source directly.
        invoker_may_read: bool,
    },
    /// The bytes came from a source an attacker could control: a file owned
    /// by neither root nor the invoker, a world-writable registry key, an
    /// untrusted network peer.
    Untrusted {
        /// Description of the untrusted source.
        source: String,
    },
    /// The bytes arrived in a message whose claimed origin differs from its
    /// actual origin (authenticity perturbation).
    Spoofed {
        /// Origin the message claimed.
        claimed_from: String,
        /// Where it actually came from.
        actual_from: String,
    },
}

impl Label {
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

/// Bytes plus provenance labels.
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
    bytes: Vec<u8>,
    labels: BTreeSet<Label>,
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
        &self.bytes
    }

    /// The bytes decoded as UTF-8 (lossily).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.bytes).into_owned()
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The label set.
    pub fn labels(&self) -> &BTreeSet<Label> {
        &self.labels
    }

    /// Attaches a label.
    pub fn add_label(&mut self, label: Label) {
        self.labels.insert(label);
    }

    /// Replaces the byte content, keeping labels (taint survives rewriting).
    pub fn set_bytes(&mut self, bytes: impl Into<Vec<u8>>) {
        self.bytes = bytes.into();
    }

    /// Appends text, keeping labels.
    pub fn push_str(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// Appends another `Data`, unioning its labels (label propagation on
    /// concatenation — how indirect faults flow through internal entities).
    pub fn append(&mut self, other: &Data) {
        self.bytes.extend_from_slice(&other.bytes);
        self.labels.extend(other.labels.iter().cloned());
    }

    /// Copies the labels of `other` onto `self` (propagation on derivation:
    /// a value *computed from* tainted input is tainted).
    pub fn taint_from(&mut self, other: &Data) {
        self.labels.extend(other.labels.iter().cloned());
    }

    /// Splits the text on a separator; every piece inherits all labels.
    pub fn split_text(&self, sep: char) -> Vec<Data> {
        self.text()
            .split(sep)
            .map(|piece| {
                let mut d = Data::from(piece);
                d.taint_from(self);
                d
            })
            .collect()
    }

    /// Lines of the text; every line inherits all labels.
    pub fn lines(&self) -> Vec<Data> {
        self.text()
            .lines()
            .map(|line| {
                let mut d = Data::from(line);
                d.taint_from(self);
                d
            })
            .collect()
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
    fn from(s: &str) -> Self {
        Data {
            bytes: s.as_bytes().to_vec(),
            labels: BTreeSet::new(),
        }
    }
}

impl From<String> for Data {
    fn from(s: String) -> Self {
        Data {
            bytes: s.into_bytes(),
            labels: BTreeSet::new(),
        }
    }
}

impl From<Vec<u8>> for Data {
    fn from(bytes: Vec<u8>) -> Self {
        Data {
            bytes,
            labels: BTreeSet::new(),
        }
    }
}

impl fmt::Display for Data {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.text())
    }
}

/// A path argument to a syscall, carrying the taint of whatever data the
/// application derived the path from.
///
/// Passing a plain `&str` produces an untainted path; passing a [`Data`]
/// (e.g. a file name read from a registry key) carries its labels so the
/// oracle can flag privileged operations on attacker-influenced names.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathArg {
    /// The path text.
    pub path: String,
    /// Labels inherited from the data the path was derived from.
    pub taint: BTreeSet<Label>,
}

impl PathArg {
    /// An untainted path.
    pub fn clean(path: impl Into<String>) -> Self {
        PathArg {
            path: path.into(),
            taint: BTreeSet::new(),
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
    pub fn join(&self, component: &PathArg) -> PathArg {
        let mut taint = self.taint.clone();
        taint.extend(component.taint.iter().cloned());
        PathArg {
            path: crate::path::join(&self.path, &component.path),
            taint,
        }
    }
}

impl From<&str> for PathArg {
    fn from(s: &str) -> Self {
        PathArg::clean(s)
    }
}

impl From<String> for PathArg {
    fn from(s: String) -> Self {
        PathArg::clean(s)
    }
}

impl From<&Data> for PathArg {
    fn from(d: &Data) -> Self {
        PathArg {
            path: d.text(),
            taint: d.labels().clone(),
        }
    }
}

impl From<&PathArg> for PathArg {
    fn from(p: &PathArg) -> Self {
        p.clone()
    }
}

impl fmt::Display for PathArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.path)
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
        let name = PathArg::from(&Data::from("../.login").with_label(Label::Untrusted { source: "argv".into() }));
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
    fn set_bytes_keeps_labels() {
        let mut d = Data::from("orig").with_label(Label::Untrusted { source: "s".into() });
        d.set_bytes("replaced".as_bytes().to_vec());
        assert_eq!(d.text(), "replaced");
        assert!(d.has_untrusted());
    }
}
