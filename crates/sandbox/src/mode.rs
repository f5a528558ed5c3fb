//! UNIX permission bits and access checks.
//!
//! Several of the paper's Table 6 perturbations are pure permission-bit
//! faults ("flip the permission bit", "change mask to 0"), so mode handling
//! is modeled at full fidelity: twelve bits (setuid/setgid/sticky plus
//! rwx for user/group/other), umask application, and the standard owner →
//! group → other access-check resolution with the superuser bypass.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cred::{Credentials, Gid, Uid};

/// Kinds of access a credential can request on an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Access {
    /// Read the object.
    Read,
    /// Write / truncate the object (or create/remove entries in a directory).
    Write,
    /// Execute the object (or traverse a directory).
    Exec,
}

/// A twelve-bit UNIX file mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Mode(u16);

impl Mode {
    /// Set-user-id bit.
    pub const SETUID: u16 = 0o4000;
    /// Set-group-id bit.
    pub const SETGID: u16 = 0o2000;
    /// Sticky bit (restricted deletion on directories, as in `/tmp`).
    pub const STICKY: u16 = 0o1000;

    /// Builds a mode from octal bits; bits above 0o7777 are masked off.
    pub const fn new(bits: u16) -> Mode {
        Mode(bits & 0o7777)
    }

    /// The raw bits.
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// True when the setuid bit is set.
    pub fn is_setuid(self) -> bool {
        self.0 & Self::SETUID != 0
    }

    /// True when the setgid bit is set.
    pub fn is_setgid(self) -> bool {
        self.0 & Self::SETGID != 0
    }

    /// True when the sticky bit is set.
    pub fn is_sticky(self) -> bool {
        self.0 & Self::STICKY != 0
    }

    /// Applies a umask (clears the bits set in `umask`), as `open`/`creat` do.
    pub fn apply_umask(self, umask: u16) -> Mode {
        Mode(self.0 & !(umask & 0o777))
    }

    /// True when "other" holds the given access.
    pub fn other_allows(self, access: Access) -> bool {
        self.class_allows(access, 0)
    }

    /// True when the group class holds the given access.
    pub fn group_allows(self, access: Access) -> bool {
        self.class_allows(access, 3)
    }

    /// True when the owner class holds the given access.
    pub fn owner_allows(self, access: Access) -> bool {
        self.class_allows(access, 6)
    }

    fn class_allows(self, access: Access, shift: u16) -> bool {
        let bit = match access {
            Access::Read => 0o4,
            Access::Write => 0o2,
            Access::Exec => 0o1,
        };
        (self.0 >> shift) & bit != 0
    }

    /// True when any of the three execute bits is set.
    pub fn any_exec(self) -> bool {
        self.0 & 0o111 != 0
    }

    /// True when "other" can write — the classic "world-writable" hazard.
    pub fn world_writable(self) -> bool {
        self.other_allows(Access::Write)
    }

    /// Standard UNIX access resolution for `cred` against an object owned by
    /// `owner:group`.
    ///
    /// Root may read and write anything and may execute anything with at
    /// least one execute bit. Otherwise exactly one permission class applies:
    /// owner if `euid` matches, else group if `egid` matches, else other.
    pub fn grants(self, owner: Uid, group: Gid, cred: &Credentials, access: Access) -> bool {
        if cred.euid.is_root() {
            return match access {
                Access::Exec => self.any_exec(),
                _ => true,
            };
        }
        if cred.euid == owner {
            self.owner_allows(access)
        } else if cred.egid == group {
            self.group_allows(access)
        } else {
            self.other_allows(access)
        }
    }

    /// Mode with the exec bits removed everywhere.
    pub fn without_exec(self) -> Mode {
        Mode(self.0 & !0o111)
    }

    /// Mode with world write added — the perturbation that makes an object
    /// attacker-modifiable.
    pub fn with_world_write(self) -> Mode {
        Mode(self.0 | 0o002)
    }
}

impl Default for Mode {
    fn default() -> Self {
        Mode::new(0o644)
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04o}", self.0)
    }
}

impl From<u16> for Mode {
    fn from(bits: u16) -> Self {
        Mode::new(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user(uid: u32, gid: u32) -> Credentials {
        Credentials::user(Uid(uid), Gid(gid))
    }

    #[test]
    fn owner_class_takes_precedence() {
        // Owner has no read bit, but other does: owner is still denied.
        let m = Mode::new(0o044);
        assert!(!m.grants(Uid(10), Gid(10), &user(10, 10), Access::Read));
        assert!(m.grants(Uid(10), Gid(10), &user(99, 99), Access::Read));
    }

    #[test]
    fn group_class_applies_when_not_owner() {
        let m = Mode::new(0o640);
        assert!(m.grants(Uid(10), Gid(20), &user(11, 20), Access::Read));
        assert!(!m.grants(Uid(10), Gid(20), &user(11, 20), Access::Write));
        assert!(!m.grants(Uid(10), Gid(20), &user(11, 21), Access::Read));
    }

    #[test]
    fn root_bypasses_read_write_but_not_exec_without_bits() {
        let m = Mode::new(0o600);
        let root = Credentials::root();
        assert!(m.grants(Uid(10), Gid(10), &root, Access::Read));
        assert!(m.grants(Uid(10), Gid(10), &root, Access::Write));
        assert!(!m.grants(Uid(10), Gid(10), &root, Access::Exec));
        let mx = Mode::new(0o700);
        assert!(mx.grants(Uid(10), Gid(10), &root, Access::Exec));
    }

    #[test]
    fn umask_clears_bits() {
        let m = Mode::new(0o666).apply_umask(0o022);
        assert_eq!(m.bits(), 0o644);
        // umask never clears the setuid/setgid/sticky bits.
        let s = Mode::new(0o4777).apply_umask(0o777);
        assert_eq!(s.bits(), 0o4000);
    }

    #[test]
    fn special_bits() {
        assert!(Mode::new(0o4755).is_setuid());
        assert!(Mode::new(0o2755).is_setgid());
        assert!(Mode::new(0o1777).is_sticky());
        assert!(!Mode::new(0o755).is_setuid());
    }

    #[test]
    fn perturbation_helpers() {
        let m = Mode::new(0o755);
        assert_eq!(m.without_exec().bits(), 0o644);
        assert!(m.with_world_write().world_writable());
        assert!(!m.world_writable());
    }

    #[test]
    fn display_is_octal() {
        assert_eq!(Mode::new(0o4755).to_string(), "4755");
        assert_eq!(Mode::new(0o644).to_string(), "0644");
    }

    #[test]
    fn new_masks_extra_bits() {
        assert_eq!(Mode::new(0o77_777).bits() & !0o7777, 0);
    }
}
