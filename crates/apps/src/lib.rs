//! # epa-apps — the model applications and worlds of the paper's case studies
//!
//! Every application the paper tests (plus the breadth the EAI model
//! implies), reimplemented against the [`epa_sandbox`] syscall API with the
//! published flaws seeded, and a `*Fixed` variant demonstrating the repairs:
//!
//! | module | paper section | flaw family |
//! |---|---|---|
//! | [`lpr`] | §3.4 | naive `creat` of the spool file |
//! | [`turnin`] | §4.1 | config/list trust, `../` member names, PATH |
//! | [`fontpurge`] | §4.2 | privileged delete named by an unprotected registry key |
//! | [`ntlogon`] | §4.2 | profile-directory / script trust at logon |
//! | [`fingerd`] | §5 (Fuzz discussion) | overflow, fail-open allowlist, authenticity |
//! | [`authd`] | Table 6 network rows | protocol-step and authenticity handling |
//! | [`mailnotify`] | Table 6 process rows | mailbox integrity, IPC trust, PATH |
//! | [`backupd`] | Table 5 permission-mask row | environment-supplied creation mask |
//!
//! Every module exports its world declaratively as an
//! [`epa_core::engine::WorldSpec`] (`lpr::spec()`, `turnin::spec()`, …);
//! [`worlds`] holds the shared base builders, and [`standard_suite`]
//! registers all eight vulnerable applications on one
//! [`epa_core::engine::Suite`] for batch execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod authd;
pub mod backupd;
pub mod fingerd;
pub mod fontpurge;
pub mod lpr;
pub mod mailnotify;
pub mod ntlogon;
pub mod scripted;
pub mod turnin;
pub mod worlds;

pub use authd::{Authd, AuthdFixed};
pub use backupd::{Backupd, BackupdFixed};
pub use fingerd::{Fingerd, FingerdFixed};
pub use fontpurge::{FontPurge, FontPurgeFixed};
pub use lpr::{Lpr, LprFixed};
pub use mailnotify::{MailNotify, MailNotifyFixed};
pub use ntlogon::{NtLogon, NtLogonFixed};
pub use scripted::ScriptedApp;
pub use turnin::{Turnin, TurninFixed};

/// Shared assertions for the per-application oracle tests: every verdict
/// must carry an evidence chain whose indices stay inside the run's audit
/// log and whose snapshots match the implicated events.
#[cfg(test)]
pub(crate) fn assert_evidence_in_bounds(out: &epa_core::campaign::RunOutcome) {
    assert!(!out.violations.is_empty(), "expected at least one verdict");
    for v in &out.violations {
        assert!(!v.evidence.is_empty(), "verdict `{}` carries no evidence", v.rule);
        for item in &v.evidence.items {
            assert!(
                item.index < out.os.audit.len(),
                "evidence index {} out of bounds (log has {} events)",
                item.index,
                out.os.audit.len()
            );
            assert_eq!(
                item.summary,
                out.os.audit.events()[item.index].describe(),
                "evidence snapshot must match the implicated event"
            );
        }
    }
}

/// A boxed application ready for suite registration.
pub type BoxedApp = Box<dyn epa_sandbox::app::Application + Send + Sync>;

/// All eight vulnerable case-study applications paired with their world
/// specs, in the canonical suite order — the single source both
/// [`standard_suite`] and the static analyzer's lint/bench sweeps draw
/// from, so "the standard suite" means the same eight worlds everywhere.
pub fn standard_apps() -> Vec<(BoxedApp, epa_core::engine::WorldSpec)> {
    vec![
        (Box::new(Lpr) as BoxedApp, lpr::spec()),
        (Box::new(Turnin), turnin::spec()),
        (Box::new(FontPurge), fontpurge::spec()),
        (Box::new(NtLogon), ntlogon::spec()),
        (Box::new(Fingerd), fingerd::spec()),
        (Box::new(Authd), authd::spec()),
        (Box::new(MailNotify), mailnotify::spec()),
        (Box::new(Backupd), backupd::spec()),
    ]
}

/// All eight vulnerable case-study applications with their worlds,
/// registered on one [`epa_core::engine::Suite`] ready to execute as a
/// batch.
///
/// # Errors
///
/// A [`epa_core::engine::SpecError`] if any world spec fails to
/// materialize (the specs are tested, so this is effectively infallible).
pub fn standard_suite() -> Result<epa_core::engine::Suite, epa_core::engine::SpecError> {
    standard_suite_with_options(epa_core::campaign::CampaignOptions::default())
}

/// As [`standard_suite`], with explicit [`epa_core::campaign::CampaignOptions`]
/// installed on every registered session — how callers opt into budgeted
/// campaigns or static pruning (`static_prune: true`) across the whole
/// suite. The suite has no result cache unless the caller adds one
/// ([`epa_core::engine::Suite::with_result_cache`] or
/// [`epa_core::engine::Suite::with_store`]), so with default options it is
/// the exhaustive reference: every planned job executes.
///
/// # Errors
///
/// A [`epa_core::engine::SpecError`] if any world spec fails to
/// materialize.
pub fn standard_suite_with_options(
    options: epa_core::campaign::CampaignOptions,
) -> Result<epa_core::engine::Suite, epa_core::engine::SpecError> {
    let engine = epa_core::engine::Engine::new().with_options(options);
    engine.suite_of(standard_apps())
}
