//! Errno-style error type returned by every sandbox syscall.
//!
//! The sandbox mirrors the POSIX convention that system calls fail with a
//! small closed set of error numbers plus human-readable context. Model
//! applications are written exactly like their real counterparts: they
//! inspect the [`Errno`] and take an error-handling path (print a message,
//! clean up, exit). Environment perturbations frequently manifest as one of
//! these errors, so the *shape* of the error surface is part of the fidelity
//! of the reproduction.

use std::fmt;

use serde::{Deserialize, Serialize};

/// POSIX-like error numbers understood by the sandbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Errno {
    /// No such file or directory.
    Enoent,
    /// Permission denied.
    Eacces,
    /// Operation not permitted (ownership / privilege checks).
    Eperm,
    /// File exists (e.g. `O_CREAT | O_EXCL` on an existing path).
    Eexist,
    /// A path component was not a directory.
    Enotdir,
    /// Target is a directory (e.g. writing to a directory inode).
    Eisdir,
    /// Too many levels of symbolic links.
    Eloop,
    /// Invalid argument.
    Einval,
    /// Directory not empty.
    Enotempty,
    /// Bad file descriptor / stale handle.
    Ebadf,
    /// Connection refused by the remote service.
    Econnrefused,
    /// No route to host (DNS failure, network partition).
    Ehostunreach,
    /// Resource temporarily unavailable (used for exhausted run budgets).
    Eagain,
    /// Function not implemented.
    Enosys,
    /// File name too long.
    Enametoolong,
    /// No message of the desired type (empty IPC queue).
    Enomsg,
}

impl Errno {
    /// The conventional symbolic name, e.g. `ENOENT`.
    pub fn symbol(self) -> &'static str {
        match self {
            Errno::Enoent => "ENOENT",
            Errno::Eacces => "EACCES",
            Errno::Eperm => "EPERM",
            Errno::Eexist => "EEXIST",
            Errno::Enotdir => "ENOTDIR",
            Errno::Eisdir => "EISDIR",
            Errno::Eloop => "ELOOP",
            Errno::Einval => "EINVAL",
            Errno::Enotempty => "ENOTEMPTY",
            Errno::Ebadf => "EBADF",
            Errno::Econnrefused => "ECONNREFUSED",
            Errno::Ehostunreach => "EHOSTUNREACH",
            Errno::Eagain => "EAGAIN",
            Errno::Enosys => "ENOSYS",
            Errno::Enametoolong => "ENAMETOOLONG",
            Errno::Enomsg => "ENOMSG",
        }
    }

    /// The classic `strerror` message.
    pub fn message(self) -> &'static str {
        match self {
            Errno::Enoent => "no such file or directory",
            Errno::Eacces => "permission denied",
            Errno::Eperm => "operation not permitted",
            Errno::Eexist => "file exists",
            Errno::Enotdir => "not a directory",
            Errno::Eisdir => "is a directory",
            Errno::Eloop => "too many levels of symbolic links",
            Errno::Einval => "invalid argument",
            Errno::Enotempty => "directory not empty",
            Errno::Ebadf => "bad file descriptor",
            Errno::Econnrefused => "connection refused",
            Errno::Ehostunreach => "no route to host",
            Errno::Eagain => "resource temporarily unavailable",
            Errno::Enosys => "function not implemented",
            Errno::Enametoolong => "file name too long",
            Errno::Enomsg => "no message of desired type",
        }
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.symbol(), self.message())
    }
}

/// Error type carried by every fallible sandbox operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SysError {
    /// The error number.
    pub errno: Errno,
    /// Free-form context, usually the offending path or object.
    pub context: String,
}

impl SysError {
    /// Creates an error with context.
    ///
    /// # Examples
    ///
    /// ```
    /// use epa_sandbox::error::{Errno, SysError};
    /// let e = SysError::new(Errno::Enoent, "/etc/nothing");
    /// assert_eq!(e.errno, Errno::Enoent);
    /// ```
    pub fn new(errno: Errno, context: impl Into<String>) -> Self {
        SysError {
            errno,
            context: context.into(),
        }
    }

    /// True when the error is a permission failure (`EACCES` or `EPERM`).
    pub fn is_permission(&self) -> bool {
        matches!(self.errno, Errno::Eacces | Errno::Eperm)
    }
}

impl fmt::Display for SysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.context.is_empty() {
            write!(f, "{}", self.errno)
        } else {
            write!(f, "{}: {}", self.context, self.errno)
        }
    }
}

impl std::error::Error for SysError {}

/// Result alias used across the sandbox.
pub type SysResult<T> = Result<T, SysError>;

/// Shorthand constructor: `syserr!(Enoent, "/path/{}", x)`.
#[macro_export]
macro_rules! syserr {
    ($errno:ident, $($arg:tt)*) => {
        $crate::error::SysError::new($crate::error::Errno::$errno, format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context_and_symbol() {
        let e = SysError::new(Errno::Eacces, "/etc/shadow");
        let s = e.to_string();
        assert!(s.contains("/etc/shadow"));
        assert!(s.contains("EACCES"));
    }

    #[test]
    fn display_without_context() {
        let e = SysError::new(Errno::Eloop, "");
        assert!(e.to_string().starts_with("ELOOP"));
    }

    #[test]
    fn predicates() {
        assert!(SysError::new(Errno::Eacces, "x").is_permission());
        assert!(SysError::new(Errno::Eperm, "x").is_permission());
        assert!(!SysError::new(Errno::Eexist, "x").is_permission());
    }

    #[test]
    fn macro_builds_error() {
        let e = syserr!(Enotdir, "bad component in {}", "/a/b");
        assert_eq!(e.errno, Errno::Enotdir);
        assert!(e.context.contains("/a/b"));
    }

    #[test]
    fn every_errno_has_distinct_symbol() {
        let all = [
            Errno::Enoent,
            Errno::Eacces,
            Errno::Eperm,
            Errno::Eexist,
            Errno::Enotdir,
            Errno::Eisdir,
            Errno::Eloop,
            Errno::Einval,
            Errno::Enotempty,
            Errno::Ebadf,
            Errno::Econnrefused,
            Errno::Ehostunreach,
            Errno::Eagain,
            Errno::Enosys,
            Errno::Enametoolong,
            Errno::Enomsg,
        ];
        let mut symbols: Vec<_> = all.iter().map(|e| e.symbol()).collect();
        symbols.sort();
        symbols.dedup();
        assert_eq!(symbols.len(), all.len());
    }
}
