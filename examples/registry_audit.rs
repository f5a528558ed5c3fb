//! The paper's §4.2 Windows NT registry audit.
//!
//! ```text
//! cargo run --example registry_audit
//! ```
//!
//! Walks the NT world's 29 unprotected registry keys, runs the two modeled
//! modules (`fontpurge`, `ntlogon`) under environment perturbation, and
//! reports which keys an attacker could exploit — then replays the paper's
//! font-file deletion attack live.

use epa::apps::fontpurge::{font_key, FontPurge};
use epa::apps::{fontpurge, ntlogon, NtLogon};
use epa::core::campaign::run_once;
use epa::core::engine::Session;

fn main() {
    let setup = fontpurge::spec().materialize().unwrap();
    println!(
        "NT registry: {} keys total, {} unprotected (world-writable)",
        setup.world.registry.key_count(),
        setup.world.registry.unprotected_keys().len()
    );

    // Campaigns over the two modules that consume unprotected keys.
    let font_report = Session::from_setup(setup.clone()).execute(&FontPurge);
    println!("\nfontpurge module:\n{}", font_report.render_text());
    let logon_setup = ntlogon::spec().materialize().unwrap();
    let logon_report = Session::from_setup(logon_setup.clone()).execute(&NtLogon);
    println!("ntlogon module:\n{}", logon_report.render_text());

    // The paper's narrative attack: anyone rewrites the font key; the next
    // administrator-run purge deletes a system-critical file.
    println!("--- exploit replay: font key pointed at system.ini ---");
    let mut attack = fontpurge::spec().materialize().unwrap();
    attack
        .world
        .registry
        .god_set_value(font_key(1), "Path", "/winnt/system.ini");
    let before = attack.world.fs.exists("/winnt/system.ini");
    let out = run_once(&attack, &FontPurge, None);
    let after = out.os.fs.exists("/winnt/system.ini");
    println!("system.ini existed before: {before}; exists after the admin's purge: {after}");
    for v in &out.violations {
        println!("oracle: {v}");
    }
}
