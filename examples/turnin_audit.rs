//! The paper's §4.1 `turnin` audit, end to end — including live replays of
//! both published exploits.
//!
//! ```text
//! cargo run --example turnin_audit
//! ```

use epa::apps::{turnin, Turnin, TurninFixed};
use epa::core::campaign::run_once;
use epa::core::engine::Session;

fn main() {
    // ---- the campaign (paper: 8 interaction points, 41 perturbations,
    //      9 violations) ------------------------------------------------
    let setup = turnin::spec().materialize().unwrap();
    let report = Session::from_setup(setup.clone()).execute(&Turnin);
    println!("{}", report.render_text());

    // ---- exploit 1: Projlist -> /etc/shadow ---------------------------
    println!("--- exploit replay 1: the TA symlinks Projlist to /etc/shadow ---");
    let mut attack = turnin::spec().materialize().unwrap();
    attack
        .world
        .fs
        .god_symlink("/home/ta/submit/Projlist", "/etc/shadow")
        .expect("world");
    let out = run_once(&attack, &Turnin, None);
    println!("turnin printed:\n{}", out.os.stdout_text(out.pid.expect("spawned")));
    for v in &out.violations {
        println!("oracle: {v}");
    }

    // ---- exploit 2: a submission named ../.login ----------------------
    println!("--- exploit replay 2: student submits `../.login` ---");
    let mut attack2 = turnin::spec().materialize().unwrap();
    attack2.args = vec![
        "-c".into(),
        "cs390".into(),
        "-p".into(),
        "proj1".into(),
        "../.login".into(),
    ]
    .into();
    let out2 = run_once(&attack2, &Turnin, None);
    let login = attack2.world.fs.god_read("/home/ta/.login").expect("world");
    let after = out2.os.fs.god_read("/home/ta/.login").expect("world");
    println!("TA's .login before: {:?}", login.text());
    println!("TA's .login after:  {:?}", after.text());
    for v in &out2.violations {
        println!("oracle: {v}");
    }

    // ---- the patched program ------------------------------------------
    let fixed = Session::from_setup(setup.clone()).execute(&TurninFixed);
    println!(
        "--- turnin-fixed: {} faults injected, {} violations (fault coverage {}) ---",
        fixed.injected(),
        fixed.violated(),
        fixed.fault_coverage()
    );
}
