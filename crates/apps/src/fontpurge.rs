//! The NT font-cache purge module of paper §4.2.
//!
//! The paper: *"One of the keys in the registry directory specifies a file
//! name for a font. It seems pretty safe to give everybody the right to
//! modify this registry key until we have found a module in the system that
//! invokes a function call to actually delete this file."*
//!
//! `fontpurge` walks the five `HKLM/Software/Fonts/Cache*` keys — all
//! world-writable in the NT world — and deletes the stale cache file each
//! names. Because anyone may rewrite those keys, a value perturbation that
//! points one at `system.ini` (or the SAM) makes the administrator's next
//! purge delete a security-critical file.

use epa_sandbox::app::Application;
use epa_sandbox::data::PathArg;
use epa_sandbox::os::Os;
use epa_sandbox::process::Pid;
use epa_sandbox::trace::InputSemantic;

/// Number of font-cache registry keys the module consumes.
pub const FONT_KEYS: usize = 5;

/// The NT font-cache purge world of paper §4.2, declared as data: an
/// administrator runs the module over the shared NT base.
pub fn spec() -> epa_core::engine::WorldSpec {
    use epa_sandbox::cred::Uid;
    crate::worlds::base_nt_builder(Uid::ROOT)
        .invoker(Uid::ROOT)
        .cwd("/")
        .build()
}

/// The registry key path of each cache slot.
const KEY_PATHS: [&str; FONT_KEYS] = [
    "HKLM/Software/Fonts/Cache0",
    "HKLM/Software/Fonts/Cache1",
    "HKLM/Software/Fonts/Cache2",
    "HKLM/Software/Fonts/Cache3",
    "HKLM/Software/Fonts/Cache4",
];

/// The interaction site reading each slot's key.
const READ_SITES: [&str; FONT_KEYS] = [
    "fontpurge:read_key0",
    "fontpurge:read_key1",
    "fontpurge:read_key2",
    "fontpurge:read_key3",
    "fontpurge:read_key4",
];

/// The interaction site purging each slot's file.
const PURGE_SITES: [&str; FONT_KEYS] = [
    "fontpurge:purge0",
    "fontpurge:purge1",
    "fontpurge:purge2",
    "fontpurge:purge3",
    "fontpurge:purge4",
];

/// Registry key path for cache slot `i`.
///
/// # Panics
///
/// If `i` is not below [`FONT_KEYS`].
pub fn font_key(i: usize) -> &'static str {
    KEY_PATHS[i]
}

/// The vulnerable font-cache purge module.
#[derive(Debug, Clone, Copy, Default)]
pub struct FontPurge;

impl Application for FontPurge {
    fn name(&self) -> &'static str {
        "fontpurge"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        let mut purged = 0;
        for ((key, read_site), purge_site) in KEY_PATHS.into_iter().zip(READ_SITES).zip(PURGE_SITES) {
            let Ok(path) = os.sys_reg_read(pid, read_site, key, "Path", InputSemantic::FsFileName) else {
                let _ = os.sys_print(pid, "fontpurge:warn", format!("fontpurge: {key} missing\n"));
                continue;
            };
            // Flaw: the file named by an anyone-writable key is deleted with
            // no check of what it actually is.
            match os.sys_unlink(pid, purge_site, PathArg::from(&path)) {
                Ok(()) => purged += 1,
                Err(_) => {
                    let _ = os.sys_print(
                        pid,
                        "fontpurge:warn",
                        format!("fontpurge: cannot purge {}\n", path.as_text()),
                    );
                }
            }
        }
        let _ = os.sys_print(
            pid,
            "fontpurge:done",
            format!("fontpurge: {purged} cache files purged\n"),
        );
        0
    }
}

/// The patched module: only deletes regular files inside the font
/// directory, never elsewhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct FontPurgeFixed;

impl Application for FontPurgeFixed {
    fn name(&self) -> &'static str {
        "fontpurge-fixed"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        let mut purged = 0;
        for ((key, read_site), purge_site) in KEY_PATHS.into_iter().zip(READ_SITES).zip(PURGE_SITES) {
            let Ok(path) = os.sys_reg_read(pid, read_site, key, "Path", InputSemantic::FsFileName) else {
                continue;
            };
            let text = path.as_text();
            // Fix: confine deletions to the font directory, refuse
            // traversal and symlinks.
            if !text.starts_with("/winnt/fonts/") || text.contains("..") {
                let _ = os.sys_print(pid, "fontpurge:warn", format!("fontpurge: refusing {text}\n"));
                continue;
            }
            match os.sys_lstat(pid, purge_site, PathArg::from(&path)) {
                Ok(st) if st.file_type == epa_sandbox::fs::FileType::Regular => {}
                _ => {
                    let _ = os.sys_print(pid, "fontpurge:warn", format!("fontpurge: refusing {text}\n"));
                    continue;
                }
            }
            if os.sys_unlink(pid, purge_site, PathArg::from(&path)).is_ok() {
                purged += 1;
            }
        }
        let _ = os.sys_print(
            pid,
            "fontpurge:done",
            format!("fontpurge: {purged} cache files purged\n"),
        );
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epa_core::campaign::run_once;

    #[test]
    fn slot_tables_name_each_slot() {
        for i in 0..FONT_KEYS {
            assert_eq!(font_key(i), format!("HKLM/Software/Fonts/Cache{i}"));
            assert_eq!(READ_SITES[i], format!("fontpurge:read_key{i}"));
            assert_eq!(PURGE_SITES[i], format!("fontpurge:purge{i}"));
        }
    }

    #[test]
    fn clean_purge_is_violation_free() {
        let setup = spec().materialize().unwrap();
        let out = run_once(&setup, &FontPurge, None);
        assert_eq!(out.exit, Some(0));
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(!out.os.fs.exists("/winnt/fonts/cache0.fon"), "caches really purged");
    }

    #[test]
    fn planted_value_deletes_system_ini() {
        let mut setup = spec().materialize().unwrap();
        // The attack an unprotected key invites: anyone rewrites the value.
        setup
            .world
            .registry
            .god_set_value(font_key(2), "Path", "/winnt/system.ini");
        let out = run_once(&setup, &FontPurge, None);
        assert!(
            out.violations
                .iter()
                .any(|v| v.kind == epa_sandbox::policy::ViolationKind::TaintedPrivilegedOp),
            "{:?}",
            out.violations
        );
        assert!(
            !out.os.fs.exists("/winnt/system.ini"),
            "the critical file really is gone"
        );
    }

    #[test]
    fn fixed_module_refuses_the_attack() {
        let mut setup = spec().materialize().unwrap();
        setup
            .world
            .registry
            .god_set_value(font_key(2), "Path", "/winnt/system.ini");
        let out = run_once(&setup, &FontPurgeFixed, None);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.os.fs.exists("/winnt/system.ini"));
    }

    #[test]
    fn tainted_delete_verdict_carries_in_bounds_evidence() {
        let mut setup = spec().materialize().unwrap();
        setup
            .world
            .registry
            .god_set_value(font_key(2), "Path", "/winnt/system.ini");
        let out = run_once(&setup, &FontPurge, None);
        crate::assert_evidence_in_bounds(&out);
        assert!(out
            .violations
            .iter()
            .any(|v| v.evidence.items[0].summary.contains("/winnt/system.ini")));
    }
}
