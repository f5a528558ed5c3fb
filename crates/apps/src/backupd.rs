//! `backupd`: a root backup job exercising the paper's *permission mask*
//! fault (Table 5, environment-variable row) and disclosure-to-file.
//!
//! The daemon snapshots the shadow password file into `/var/backups`. The
//! creation mode is `0666 & ~mask`, with the mask taken from the `UMASK`
//! environment variable — exactly the pattern Table 5 perturbs with
//! *"change mask to 0 so it will not mask any permission bit"*. The
//! vulnerable version applies whatever mask the environment supplies; with
//! a zeroed mask the backup comes out world-readable and the secret content
//! is disclosed to every local user.

use epa_sandbox::app::Application;
use epa_sandbox::data::Data;
use epa_sandbox::os::Os;
use epa_sandbox::process::Pid;
use epa_sandbox::trace::InputSemantic;

/// Where the snapshot is written.
pub const BACKUP_FILE: &str = "/var/backups/shadow.bak";

/// The `backupd` world, declared as data: a root cron job snapshotting the
/// shadow file, with the creation mask supplied by the environment.
pub fn spec() -> epa_core::engine::WorldSpec {
    use epa_sandbox::cred::{Gid, Uid};
    crate::worlds::base_unix_builder()
        .dir("/var/backups", Uid::ROOT, Gid::ROOT, 0o755)
        .root_file("/usr/sbin/backupd", "", 0o755)
        .invoker(Uid::ROOT)
        .env("UMASK", "077")
        .cwd("/")
        .build()
}

fn parse_mask(raw: &Data) -> Option<u16> {
    u16::from_str_radix(raw.as_text().trim(), 8).ok()
}

/// The vulnerable backup job.
#[derive(Debug, Clone, Copy, Default)]
pub struct Backupd;

impl Application for Backupd {
    fn name(&self) -> &'static str {
        "backupd"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        // Flaw: the creation mask comes straight from the environment.
        let mask = os
            .sys_getenv(pid, "backupd:getenv_umask", "UMASK", InputSemantic::EnvPermMask)
            .ok()
            .and_then(|raw| parse_mask(&raw))
            .unwrap_or(0o077);
        let Ok(shadow) = os.sys_read_file(pid, "backupd:read_shadow", "/etc/shadow") else {
            let _ = os.sys_print(pid, "backupd:err", "backupd: cannot read shadow\n");
            return 1;
        };
        let mode = 0o666 & !mask;
        if os
            .sys_write_file(pid, "backupd:write_backup", BACKUP_FILE, shadow, mode)
            .is_err()
        {
            let _ = os.sys_print(pid, "backupd:err", "backupd: cannot write backup\n");
            return 1;
        }
        let _ = os.sys_print(pid, "backupd:done", "backupd: snapshot complete\n");
        0
    }
}

/// The patched job: the environment may only *tighten* the fixed 0600 mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackupdFixed;

impl Application for BackupdFixed {
    fn name(&self) -> &'static str {
        "backupd-fixed"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        let mask = os
            .sys_getenv(pid, "backupd:getenv_umask", "UMASK", InputSemantic::EnvPermMask)
            .ok()
            .and_then(|raw| parse_mask(&raw))
            .unwrap_or(0o077);
        let Ok(shadow) = os.sys_read_file(pid, "backupd:read_shadow", "/etc/shadow") else {
            let _ = os.sys_print(pid, "backupd:err", "backupd: cannot read shadow\n");
            return 1;
        };
        // Fix 1: sensitive snapshots are never created wider than 0600,
        // whatever the environment claims the mask is.
        let mode = 0o600 & !mask;
        // Fix 2: never write secrets into a pre-existing object — a planted
        // file (or symlink) would keep its own mode and placement. Remove
        // whatever occupies the name (lstat + unlink, so links are removed,
        // not followed) and create fresh with O_EXCL.
        if os.sys_lstat(pid, "backupd:write_backup", BACKUP_FILE).is_ok() {
            let _ = os.sys_unlink(pid, "backupd:write_backup", BACKUP_FILE);
        }
        if os
            .sys_create_excl(pid, "backupd:write_backup", BACKUP_FILE, mode)
            .is_err()
        {
            let _ = os.sys_print(pid, "backupd:err", "backupd: cannot write backup\n");
            return 1;
        }
        if os
            .sys_append(pid, "backupd:write_backup", BACKUP_FILE, shadow, mode)
            .is_err()
        {
            let _ = os.sys_print(pid, "backupd:err", "backupd: cannot write backup\n");
            return 1;
        }
        let _ = os.sys_print(pid, "backupd:done", "backupd: snapshot complete\n");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_core::campaign::run_once;
    use epa_core::engine::Session;
    use epa_sandbox::policy::ViolationKind;

    #[test]
    fn clean_snapshot_is_violation_free_and_private() {
        let setup = spec().materialize().unwrap();
        let out = run_once(&setup, &Backupd, None);
        assert_eq!(out.exit, Some(0));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        let st = out.os.fs.stat(BACKUP_FILE, None).unwrap();
        assert_eq!(st.mode.bits(), 0o600, "0666 & !0077");
    }

    #[test]
    fn zeroed_mask_discloses_the_snapshot() {
        let mut setup = spec().materialize().unwrap();
        std::sync::Arc::make_mut(&mut setup.env).insert("UMASK".into(), "0".into());
        let out = run_once(&setup, &Backupd, None);
        assert!(
            out.violations.iter().any(|v| v.kind == ViolationKind::Disclosure),
            "{:?}",
            out.violations
        );
        let st = out.os.fs.stat(BACKUP_FILE, None).unwrap();
        assert!(st.mode.other_allows(epa_sandbox::mode::Access::Read));
    }

    #[test]
    fn campaign_finds_the_mask_fault() {
        let setup = spec().materialize().unwrap();
        let report = Session::from_setup(setup).execute(&Backupd);
        assert_eq!(report.clean_violations, 0);
        let mask_record = report
            .records
            .iter()
            .find(|r| &*r.fault_id == "indirect:env-perm-mask:zero")
            .expect("the Table 5 mask fault is injected");
        assert!(!mask_record.tolerated(), "the zeroed mask must defeat backupd");
    }

    #[test]
    fn fixed_backupd_tolerates_every_fault() {
        let setup = spec().materialize().unwrap();
        let report = Session::from_setup(setup).execute(&BackupdFixed);
        assert_eq!(report.violated(), 0, "{:#?}", report.violations().collect::<Vec<_>>());
        // Same interaction surface.
        assert_eq!(report.total_sites, 3, "umask, read, write");
    }

    #[test]
    fn disclosure_verdict_carries_in_bounds_evidence() {
        let mut setup = spec().materialize().unwrap();
        std::sync::Arc::make_mut(&mut setup.env).insert("UMASK".into(), "0".into());
        let out = run_once(&setup, &Backupd, None);
        crate::assert_evidence_in_bounds(&out);
        assert!(out.violations.iter().any(|v| v.detector == "disclosure"));
    }
}
