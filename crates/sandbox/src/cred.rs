//! User identities and process credentials.
//!
//! The paper's case studies all revolve around *set-UID* programs: programs
//! that run with an effective user id (often root) different from the real
//! user id of the person who invoked them. The gap between `ruid` and `euid`
//! is exactly what turns an unhandled environment fault into a security
//! violation, so the credential model keeps both ids explicit.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};
use shim_sync::sync::Arc;

/// A numeric user id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Uid(pub u32);

impl Uid {
    /// The superuser.
    pub const ROOT: Uid = Uid(0);

    /// True for uid 0.
    pub fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Uid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uid:{}", self.0)
    }
}

/// A numeric group id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Gid(pub u32);

impl Gid {
    /// The superuser's primary group.
    pub const ROOT: Gid = Gid(0);
}

impl fmt::Display for Gid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gid:{}", self.0)
    }
}

/// Real and effective identities of a running process.
///
/// # Examples
///
/// ```
/// use epa_sandbox::cred::{Credentials, Uid, Gid};
/// let student = Credentials::user(Uid(1001), Gid(100));
/// assert!(!student.is_privileged());
/// let suid = student.with_euid(Uid::ROOT);
/// assert!(suid.is_privileged() && suid.is_elevated());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Credentials {
    /// Real user id: who invoked the program.
    pub ruid: Uid,
    /// Effective user id: whose privilege the program exercises.
    pub euid: Uid,
    /// Real group id.
    pub rgid: Gid,
    /// Effective group id.
    pub egid: Gid,
}

impl Credentials {
    /// Ordinary (non-SUID) credentials for a user.
    pub fn user(uid: Uid, gid: Gid) -> Self {
        Credentials {
            ruid: uid,
            euid: uid,
            rgid: gid,
            egid: gid,
        }
    }

    /// Root credentials.
    pub fn root() -> Self {
        Credentials::user(Uid::ROOT, Gid::ROOT)
    }

    /// Returns a copy with the effective uid replaced (SUID execution).
    pub fn with_euid(mut self, euid: Uid) -> Self {
        self.euid = euid;
        self
    }

    /// Returns a copy with the effective gid replaced (SGID execution).
    pub fn with_egid(mut self, egid: Gid) -> Self {
        self.egid = egid;
        self
    }

    /// True when the process currently holds superuser privilege.
    pub fn is_privileged(&self) -> bool {
        self.euid.is_root()
    }

    /// True when effective identity differs from real identity — the
    /// process acts with privilege its invoker does not have.
    pub fn is_elevated(&self) -> bool {
        self.ruid != self.euid || self.rgid != self.egid
    }

    /// Credentials of the *invoker only* — used by the policy oracle to ask
    /// "could the real user have done this without the program's privilege?".
    pub fn invoker(&self) -> Credentials {
        Credentials::user(self.ruid, self.rgid)
    }
}

impl fmt::Display for Credentials {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ruid={} euid={} rgid={} egid={}",
            self.ruid.0, self.euid.0, self.rgid.0, self.egid.0
        )
    }
}

/// An account known to the sandbox.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct User {
    /// Numeric uid.
    pub uid: Uid,
    /// Primary group.
    pub gid: Gid,
    /// Login name.
    pub name: String,
    /// Home directory path.
    pub home: String,
}

/// The account database (a tiny `/etc/passwd`).
///
/// The table is `Arc`-shared between world snapshots (copy-on-write):
/// cloning a database allocates nothing, and `add` unshares it first. It
/// hashes, compares and serializes as the table itself.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UserDb {
    by_uid: Arc<BTreeMap<u32, User>>,
}

impl UserDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an account; replaces any previous account with that uid.
    pub fn add(&mut self, name: impl Into<String>, uid: Uid, gid: Gid, home: impl Into<String>) -> Uid {
        let user = User {
            uid,
            gid,
            name: name.into(),
            home: home.into(),
        };
        Arc::make_mut(&mut self.by_uid).insert(uid.0, user);
        uid
    }

    /// Looks up an account by uid.
    pub fn get(&self, uid: Uid) -> Option<&User> {
        self.by_uid.get(&uid.0)
    }

    /// Iterates over accounts in uid order.
    pub fn iter(&self) -> impl Iterator<Item = &User> {
        self.by_uid.values()
    }

    /// Number of registered accounts.
    pub fn len(&self) -> usize {
        self.by_uid.len()
    }

    /// True when no accounts are registered.
    pub fn is_empty(&self) -> bool {
        self.by_uid.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suid_credentials_are_elevated_and_privileged() {
        let c = Credentials::user(Uid(500), Gid(500)).with_euid(Uid::ROOT);
        assert!(c.is_privileged());
        assert!(c.is_elevated());
        assert_eq!(c.invoker(), Credentials::user(Uid(500), Gid(500)));
    }

    #[test]
    fn plain_user_is_not_elevated() {
        let c = Credentials::user(Uid(500), Gid(500));
        assert!(!c.is_privileged());
        assert!(!c.is_elevated());
    }

    #[test]
    fn root_is_privileged_but_not_elevated() {
        let c = Credentials::root();
        assert!(c.is_privileged());
        assert!(!c.is_elevated());
    }

    #[test]
    fn sgid_only_counts_as_elevated() {
        let c = Credentials::user(Uid(500), Gid(500)).with_egid(Gid(7));
        assert!(c.is_elevated());
        assert!(!c.is_privileged());
    }

    #[test]
    fn userdb_lookup_by_name_and_uid() {
        let mut db = UserDb::new();
        db.add("alice", Uid(100), Gid(10), "/home/alice");
        db.add("bob", Uid(101), Gid(10), "/home/bob");
        assert_eq!(db.get(Uid(100)).unwrap().name, "alice");
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn userdb_replaces_same_uid() {
        let mut db = UserDb::new();
        db.add("old", Uid(5), Gid(5), "/home/old");
        db.add("new", Uid(5), Gid(5), "/home/new");
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(Uid(5)).unwrap().name, "new");
    }
}
