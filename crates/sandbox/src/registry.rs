//! A Windows NT-style registry: a hierarchical key/value store with
//! per-key access control.
//!
//! The paper's §4.2 case study tests NT modules that trust values stored in
//! *unprotected* (world-writable) registry keys. The substrate models
//! exactly the properties those tests need: a key tree, string values, a
//! per-key ACL reduced to its security-relevant essence (who may write),
//! and an enumeration of unprotected keys matching the paper's "29
//! unprotected keys" inventory.

use shim_sync::sync::Arc;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::cred::{Credentials, Uid};
use crate::data::{Data, Label};
use crate::error::SysResult;
use crate::intern::TextSym;
use crate::syserr;

/// Access control for one registry key, reduced to the write-control
/// question the case study turns on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegAcl {
    /// Owning user (Administrator == root in the sandbox's id space).
    pub owner: Uid,
    /// Whether *everyone* may write the key — the "unprotected" condition.
    pub world_writable: bool,
}

impl Default for RegAcl {
    fn default() -> Self {
        RegAcl {
            owner: Uid::ROOT,
            world_writable: false,
        }
    }
}

/// One registry key: values, subkeys, ACL.
///
/// Names and values are shared strings, so copying a key to write it
/// copies its maps' nodes, never their text, and a read hands out the
/// value's text without copying it.
#[derive(Clone, Default)]
pub struct RegKey {
    /// Named string values.
    pub values: BTreeMap<Arc<str>, Arc<str>>,
    /// Child keys, each shared between registry snapshots until written.
    pub subkeys: BTreeMap<Arc<str>, Arc<RegKey>>,
    /// Access control.
    pub acl: RegAcl,
    /// The `registry:<path>` source text of the key's `Untrusted` label,
    /// interned when the key is made world-writable, so reading the key
    /// does not intern it again. Derived from the path and the ACL, so it
    /// takes no part in equality, hashing, `Debug` or the wire form.
    label: Option<TextSym>,
}

impl RegKey {
    /// Sets value `name`, reusing the name's storage when it exists.
    fn put(&mut self, name: &str, value: &str) {
        match self.values.get_mut(name) {
            Some(v) => *v = Arc::from(value),
            None => {
                self.values.insert(Arc::from(name), Arc::from(value));
            }
        }
    }

    /// Sets the ACL; a world-writable key at `path` interns its label.
    fn set_acl(&mut self, path: &str, acl: RegAcl) {
        self.acl = acl;
        if acl.world_writable && !self.has_label_for(path) {
            self.label = Some(TextSym::concat(&["registry:", path]));
        }
    }

    /// Whether the interned label's text is `registry:<path>`.
    fn has_label_for(&self, path: &str) -> bool {
        self.label
            .is_some_and(|sym| sym.as_str().strip_prefix("registry:") == Some(path))
    }

    /// The `Untrusted` label a read of this key through `path` carries.
    fn untrusted_label(&self, path: &str) -> Label {
        match self.label {
            Some(source) if self.has_label_for(path) => Label::Untrusted { source },
            _ => Label::untrusted("registry", path),
        }
    }
}

impl PartialEq for RegKey {
    fn eq(&self, other: &RegKey) -> bool {
        self.values == other.values && self.subkeys == other.subkeys && self.acl == other.acl
    }
}

impl Eq for RegKey {}

impl std::hash::Hash for RegKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.values.hash(state);
        self.subkeys.hash(state);
        self.acl.hash(state);
    }
}

impl std::fmt::Debug for RegKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegKey")
            .field("values", &self.values)
            .field("subkeys", &self.subkeys)
            .field("acl", &self.acl)
            .finish()
    }
}

impl Serialize for RegKey {
    fn ser(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("values".to_string(), self.values.ser()),
            ("subkeys".to_string(), self.subkeys.ser()),
            ("acl".to_string(), self.acl.ser()),
        ])
    }
}

impl Deserialize for RegKey {
    /// Reads the three serialized fields; the label is not serialized, so
    /// a deserialized world-writable key interns it on each read.
    fn de(v: &serde::Value) -> Result<Self, serde::DeError> {
        let map = v.as_map().ok_or_else(|| serde::DeError::expected("map", "RegKey"))?;
        Ok(RegKey {
            values: Deserialize::de(serde::field(map, "values", "RegKey")?)?,
            subkeys: Deserialize::de(serde::field(map, "subkeys", "RegKey")?)?,
            acl: Deserialize::de(serde::field(map, "acl", "RegKey")?)?,
            label: None,
        })
    }
}

/// The registry.
///
/// `clone` is a copy-on-write snapshot: every key is shared until either
/// copy writes, and a write copies only the keys on the path to the key it
/// changes. Use [`Registry::deep_clone`] for an eagerly materialized copy.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Registry {
    root: Arc<RegKey>,
}

/// Splits a `/`-separated key path into components.
fn split(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty())
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fully materialized copy sharing no storage with `self`.
    pub fn deep_clone(&self) -> Registry {
        fn deep(key: &RegKey) -> RegKey {
            RegKey {
                values: key.values.clone(),
                subkeys: key
                    .subkeys
                    .iter()
                    .map(|(name, sub)| (name.clone(), Arc::new(deep(sub))))
                    .collect(),
                acl: key.acl,
                label: key.label,
            }
        }
        Registry {
            root: Arc::new(deep(&self.root)),
        }
    }

    /// Whether the key tree is physically shared with `other` (copy-on-write
    /// introspection).
    pub fn shares_storage_with(&self, other: &Registry) -> bool {
        Arc::ptr_eq(&self.root, &other.root)
    }

    /// Borrows a key.
    pub fn key(&self, path: &str) -> Option<&RegKey> {
        let mut cur: &RegKey = &self.root;
        for comp in split(path) {
            cur = cur.subkeys.get(comp)?;
        }
        Some(cur)
    }

    /// Mutably borrows a key, unsharing the keys on its path first.
    fn key_mut(&mut self, path: &str) -> Option<&mut RegKey> {
        let mut cur = Arc::make_mut(&mut self.root);
        for comp in split(path) {
            cur = Arc::make_mut(cur.subkeys.get_mut(comp)?);
        }
        Some(cur)
    }

    /// Creates a key (and any missing ancestors) with the given ACL,
    /// leaving existing ancestors untouched.
    pub fn ensure_key(&mut self, path: &str, acl: RegAcl) -> &mut RegKey {
        let mut cur = Arc::make_mut(&mut self.root);
        for comp in split(path) {
            if !cur.subkeys.contains_key(comp) {
                cur.subkeys.insert(Arc::from(comp), Arc::default());
            }
            cur = Arc::make_mut(cur.subkeys.get_mut(comp).expect("inserted above"));
        }
        cur.set_acl(path, acl);
        cur
    }

    /// Sets a value, enforcing the ACL.
    ///
    /// # Errors
    ///
    /// `ENOENT` for a missing key; `EACCES` when `cred` is neither the
    /// owner, an administrator, nor covered by world-write.
    pub fn set_value(&mut self, path: &str, name: &str, value: impl AsRef<str>, cred: &Credentials) -> SysResult<()> {
        let key = self
            .key_mut(path)
            .ok_or_else(|| syserr!(Enoent, "registry key {path}"))?;
        if !(key.acl.world_writable || cred.euid.is_root() || cred.euid == key.acl.owner) {
            return Err(syserr!(Eacces, "registry key {path}"));
        }
        key.put(name, value.as_ref());
        Ok(())
    }

    /// Sets a value without ACL checks (world building / perturbation).
    pub fn god_set_value(&mut self, path: &str, name: &str, value: impl AsRef<str>) {
        let key = match self.key_mut(path) {
            Some(k) => k,
            None => self.ensure_key(path, RegAcl::default()),
        };
        key.put(name, value.as_ref());
    }

    /// Reads a value together with the key's world-writability — the fact
    /// the syscall layer folds into an `Untrusted` label.
    ///
    /// # Errors
    ///
    /// `ENOENT` for a missing key or value.
    pub fn get_value(&self, path: &str, name: &str) -> SysResult<(&str, bool)> {
        let (key, v) = self.entry(path, name)?;
        Ok((v, key.acl.world_writable))
    }

    /// The key at `path` and its value `name`.
    fn entry(&self, path: &str, name: &str) -> SysResult<(&RegKey, &Arc<str>)> {
        let key = self.key(path).ok_or_else(|| syserr!(Enoent, "registry key {path}"))?;
        let v = key
            .values
            .get(name)
            .ok_or_else(|| syserr!(Enoent, "registry value {path}\\{name}"))?;
        Ok((key, v))
    }

    /// Reads a value as the syscall layer hands it out: its text shared
    /// with the registry, and labeled `Untrusted` with source
    /// `registry:<path>` when the key is world-writable.
    ///
    /// # Errors
    ///
    /// As [`Registry::get_value`].
    pub fn read_value(&self, path: &str, name: &str) -> SysResult<Data> {
        let (key, v) = self.entry(path, name)?;
        let data = Data::from(Arc::clone(v));
        Ok(if key.acl.world_writable {
            data.with_label(key.untrusted_label(path))
        } else {
            data
        })
    }

    /// Deletes a value, enforcing the ACL.
    ///
    /// # Errors
    ///
    /// As [`Registry::set_value`].
    pub fn delete_value(&mut self, path: &str, name: &str, cred: &Credentials) -> SysResult<()> {
        let key = self
            .key_mut(path)
            .ok_or_else(|| syserr!(Enoent, "registry key {path}"))?;
        if !(key.acl.world_writable || cred.euid.is_root() || cred.euid == key.acl.owner) {
            return Err(syserr!(Eacces, "registry key {path}"));
        }
        key.values
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| syserr!(Enoent, "registry value {path}\\{name}"))
    }

    /// Changes a key's ACL unconditionally (perturbation helper).
    pub fn god_set_acl(&mut self, path: &str, acl: RegAcl) -> SysResult<()> {
        self.key_mut(path)
            .map(|k| k.set_acl(path, acl))
            .ok_or_else(|| syserr!(Enoent, "registry key {path}"))
    }

    /// Every key path whose ACL is world-writable — the paper's
    /// "unprotected keys" inventory.
    pub fn unprotected_keys(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(key: &RegKey, path: &str, out: &mut Vec<String>) {
            for (name, sub) in &key.subkeys {
                let p = if path.is_empty() {
                    name.to_string()
                } else {
                    format!("{path}/{name}")
                };
                if sub.acl.world_writable {
                    out.push(p.clone());
                }
                walk(sub, &p, out);
            }
        }
        walk(&self.root, "", &mut out);
        out
    }

    /// Total number of keys (excluding the implicit root).
    pub fn key_count(&self) -> usize {
        fn walk(key: &RegKey) -> usize {
            key.subkeys.values().map(|k| 1 + walk(k)).sum()
        }
        walk(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::Gid;

    fn admin() -> Credentials {
        Credentials::root()
    }

    fn user(uid: u32) -> Credentials {
        Credentials::user(Uid(uid), Gid(uid))
    }

    #[test]
    fn ensure_and_get() {
        let mut r = Registry::new();
        r.ensure_key(
            "HKLM/Software/Fonts",
            RegAcl {
                owner: Uid::ROOT,
                world_writable: true,
            },
        );
        r.god_set_value("HKLM/Software/Fonts", "F0", "/winnt/fonts/arial.fon");
        let (v, ww) = r.get_value("HKLM/Software/Fonts", "F0").unwrap();
        assert_eq!(v, "/winnt/fonts/arial.fon");
        assert!(ww);
    }

    #[test]
    fn acl_enforced_for_users() {
        let mut r = Registry::new();
        r.ensure_key(
            "HKLM/Secure",
            RegAcl {
                owner: Uid::ROOT,
                world_writable: false,
            },
        );
        assert!(r.set_value("HKLM/Secure", "v", "x", &user(500)).is_err());
        assert!(r.set_value("HKLM/Secure", "v", "x", &admin()).is_ok());
        // World-writable key accepts anyone — the vulnerability precondition.
        r.ensure_key(
            "HKLM/Open",
            RegAcl {
                owner: Uid::ROOT,
                world_writable: true,
            },
        );
        assert!(r.set_value("HKLM/Open", "v", "evil", &user(500)).is_ok());
    }

    #[test]
    fn unprotected_inventory() {
        let mut r = Registry::new();
        r.ensure_key(
            "HKLM/A",
            RegAcl {
                owner: Uid::ROOT,
                world_writable: true,
            },
        );
        r.ensure_key(
            "HKLM/A/Sub",
            RegAcl {
                owner: Uid::ROOT,
                world_writable: false,
            },
        );
        r.ensure_key(
            "HKLM/B",
            RegAcl {
                owner: Uid::ROOT,
                world_writable: true,
            },
        );
        let keys = r.unprotected_keys();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&"HKLM/A".to_string()));
        assert!(keys.contains(&"HKLM/B".to_string()));
        assert!(r.key_count() >= 4); // HKLM, A, A/Sub, B
    }

    #[test]
    fn delete_value_respects_acl() {
        let mut r = Registry::new();
        r.ensure_key(
            "HKLM/K",
            RegAcl {
                owner: Uid(7),
                world_writable: false,
            },
        );
        r.god_set_value("HKLM/K", "v", "1");
        assert!(r.delete_value("HKLM/K", "v", &user(8)).is_err());
        assert!(r.delete_value("HKLM/K", "v", &user(7)).is_ok());
    }

    #[test]
    fn missing_paths_are_enoent() {
        let r = Registry::new();
        assert!(r.get_value("HKLM/None", "v").is_err());
        assert!(r.key("HKLM/None").is_none());
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut r = Registry::new();
        r.ensure_key("HKLM/K", RegAcl::default());
        r.god_set_value("HKLM/K", "v", "1");
        let snap = r.clone();
        assert!(snap.shares_storage_with(&r));
        let mut w = r.clone();
        w.god_set_value("HKLM/K", "v", "2");
        assert!(!w.shares_storage_with(&r));
        assert_eq!(r.get_value("HKLM/K", "v").unwrap().0, "1");
        assert_eq!(w.get_value("HKLM/K", "v").unwrap().0, "2");
        let deep = r.deep_clone();
        assert_eq!(deep, r);
        assert!(!deep.shares_storage_with(&r));
        assert!(!Arc::ptr_eq(&deep.root.subkeys["HKLM"], &r.root.subkeys["HKLM"]));
    }

    #[test]
    fn a_write_copies_only_the_keys_on_its_path() {
        let mut r = Registry::new();
        r.god_set_value("HKLM/A/Deep", "v", "1");
        r.god_set_value("HKLM/B", "v", "1");
        let mut w = r.clone();
        w.god_set_value("HKLM/A/Deep", "v", "2");
        let (old, new) = (&r.root.subkeys["HKLM"], &w.root.subkeys["HKLM"]);
        assert!(!Arc::ptr_eq(old, new), "the written key's ancestors are copied");
        assert!(!Arc::ptr_eq(&old.subkeys["A"], &new.subkeys["A"]));
        assert!(
            Arc::ptr_eq(&old.subkeys["B"], &new.subkeys["B"]),
            "a sibling stays shared"
        );
        assert_eq!(r.get_value("HKLM/A/Deep", "v").unwrap().0, "1");
        assert_eq!(w.get_value("HKLM/A/Deep", "v").unwrap().0, "2");
    }

    #[test]
    fn god_set_acl_flips_protection() {
        let mut r = Registry::new();
        r.ensure_key("HKLM/K", RegAcl::default());
        assert!(r.unprotected_keys().is_empty());
        r.god_set_acl(
            "HKLM/K",
            RegAcl {
                owner: Uid::ROOT,
                world_writable: true,
            },
        )
        .unwrap();
        assert_eq!(r.unprotected_keys(), vec!["HKLM/K".to_string()]);
    }
}
