//! Property tests: copy-on-write snapshot equivalence — a campaign run
//! from cheap CoW snapshots of the pristine world must be byte-identical
//! to one run from eager deep clones, across randomized worlds. The setup
//! fingerprint that scopes the result store is structural: snapshots,
//! deep clones and reverted worlds share it, and every field changes it.

use epa::core::engine::{Session, WorldSpec};
use epa::core::TestSetup;
use epa::sandbox::app::Application;
use epa::sandbox::cred::{Gid, Uid};
use epa::sandbox::data::Label;
use epa::sandbox::mode::Mode;
use epa::sandbox::os::{Os, ScenarioMeta};
use epa::sandbox::policy::InvariantSpec;
use epa::sandbox::process::Pid;
use epa::sandbox::trace::InputSemantic;
use proptest::prelude::*;

/// A deterministic program parameterized by the randomized world: reads its
/// argument, then every declared data file, then spools a summary.
struct Walker {
    files: Vec<String>,
}

impl Application for Walker {
    fn name(&self) -> &'static str {
        "walker"
    }

    fn run(&self, os: &mut Os, pid: Pid) -> i32 {
        let Ok(arg) = os.sys_arg(pid, "walker:arg", 0, InputSemantic::UserFileName) else {
            return 2;
        };
        let mut seen = 0usize;
        for path in &self.files {
            if let Ok(d) = os.sys_read_file(pid, "walker:read", path.as_str()) {
                seen += d.len();
            }
        }
        let summary = format!("{}:{seen}", arg.text());
        if os
            .sys_write_file(pid, "walker:spool", "/var/spool/walker/out", summary.as_str(), 0o660)
            .is_err()
        {
            return 1;
        }
        let _ = os.sys_print(pid, "walker:done", "done\n");
        0
    }
}

#[derive(Debug, Clone)]
struct RandFile {
    name: String,
    content: String,
    mode: u16,
    owner: u8,
}

fn file_strategy() -> impl Strategy<Value = RandFile> {
    (
        "[a-z]{1,8}",
        ".{0,40}",
        prop_oneof![
            Just(0o600u16),
            Just(0o644u16),
            Just(0o666u16),
            Just(0o700u16),
            Just(0o755u16)
        ],
        0u8..3,
    )
        .prop_map(|(name, content, mode, owner)| RandFile {
            name,
            content,
            mode,
            owner,
        })
}

fn build_spec(files: &[RandFile], arg: &str) -> (WorldSpec, Vec<String>) {
    let scenario = ScenarioMeta::default();
    let mut b = WorldSpec::builder()
        .user("root", Uid::ROOT, Gid::ROOT, "/root")
        .user("student", scenario.invoker, scenario.invoker_gid, "/home/student")
        .user("evil", scenario.attacker, scenario.attacker_gid, "/home/evil")
        .dir("/var/spool/walker", Uid::ROOT, Gid::ROOT, 0o755)
        .root_file("/etc/passwd", "root:0:0:", 0o644)
        .root_file("/etc/shadow", "root:HASH", 0o600)
        .suid_root_program("/usr/bin/walker")
        .args([arg]);
    let mut paths = Vec::new();
    for (i, f) in files.iter().enumerate() {
        // The index keeps paths unique even when names repeat.
        let path = format!("/data/f{i}-{}", f.name);
        let (owner, group) = match f.owner {
            0 => (Uid::ROOT, Gid::ROOT),
            1 => (scenario.invoker, scenario.invoker_gid),
            _ => (scenario.attacker, scenario.attacker_gid),
        };
        b = b.file(path.clone(), f.content.clone(), owner, group, f.mode);
        paths.push(path);
    }
    (b.build(), paths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The engine's acceptance property: snapshot-based campaigns report
    /// exactly what deep-clone-based campaigns report, byte for byte.
    #[test]
    fn snapshot_campaigns_equal_deep_clone_campaigns(
        files in proptest::collection::vec(file_strategy(), 0..4),
        arg in "[a-z]{1,6}",
    ) {
        let (spec, paths) = build_spec(&files, &arg);
        let app = Walker { files: paths };
        let setup = spec.materialize().expect("generated specs are valid");

        // Copy-on-write path: campaigns snapshot the frozen world.
        let cow_report = Session::from_setup(setup.clone()).execute(&app);

        // Deep-clone path: the world is eagerly materialized first, so no
        // run shares any substrate storage with the pristine world.
        let mut deep_setup = setup.clone();
        deep_setup.world = setup.world.deep_clone();
        let deep_report = Session::from_setup(deep_setup).execute(&app);

        prop_assert_eq!(&cow_report, &deep_report);
        let cow_json = serde_json::to_string(&cow_report).expect("serialize");
        let deep_json = serde_json::to_string(&deep_report).expect("serialize");
        prop_assert_eq!(cow_json, deep_json, "reports must be byte-identical");
    }

    /// Campaigns never mutate the frozen pristine world they snapshot from.
    #[test]
    fn campaigns_leave_the_pristine_world_untouched(
        files in proptest::collection::vec(file_strategy(), 0..4),
        arg in "[a-z]{1,6}",
    ) {
        let (spec, paths) = build_spec(&files, &arg);
        let app = Walker { files: paths };
        let session = Session::new(&spec).expect("generated specs are valid");
        let _ = session.execute(&app);
        let rebuilt = spec.materialize().expect("generated specs are valid");
        prop_assert_eq!(&session.world().fs, &rebuilt.world.fs);
        prop_assert_eq!(&session.world().registry, &rebuilt.world.registry);
        prop_assert_eq!(&session.world().net, &rebuilt.world.net);
        prop_assert!(session.world().trace.sites().is_empty());
    }
}

/// The lpr case study's frozen setup, plus a symlink so the table below
/// can retarget one.
fn lpr_setup() -> TestSetup {
    let mut setup = epa::apps::lpr::spec().materialize().expect("the lpr spec is valid");
    setup
        .world
        .fs
        .god_symlink("/tmp/lpr-link", "/etc/passwd")
        .expect("the link is created");
    setup
}

#[test]
fn snapshots_deep_clones_and_reverted_worlds_fingerprint_equal() {
    let setup = lpr_setup();
    let pristine = setup.fingerprint();
    assert_eq!(setup.clone().fingerprint(), pristine, "a copy-on-write snapshot");
    let mut deep = setup.clone();
    deep.world = setup.world.deep_clone();
    assert_eq!(deep.fingerprint(), pristine, "a deep clone");
    // Mutate, then put every value back: the touched inodes are private
    // copies now, but their content is the pristine content again.
    let mut reverted = setup.clone();
    let fs = &mut reverted.world.fs;
    let report = fs.god_read("/home/student/report.txt").expect("the job file reads");
    fs.god_write("/home/student/report.txt", "changed").expect("write");
    fs.god_chmod("/home/student/report.txt", Mode::new(0o600))
        .expect("chmod");
    assert_ne!(reverted.fingerprint(), pristine);
    let fs = &mut reverted.world.fs;
    fs.god_write("/home/student/report.txt", report).expect("write back");
    fs.god_chmod("/home/student/report.txt", Mode::new(0o644))
        .expect("chmod back");
    assert_eq!(reverted.fingerprint(), pristine, "a mutated, then reverted world");
}

#[test]
fn every_setup_field_changes_the_fingerprint() {
    const REPORT: &str = "/home/student/report.txt";
    type Change = fn(&mut TestSetup);
    let changes: [(&str, Change); 17] = [
        ("file byte", |s| {
            let mut data = s.world.fs.god_read(REPORT).expect("read");
            let mut bytes = data.as_bytes().to_vec();
            bytes[0] ^= 1;
            data.set_bytes(bytes);
            s.world.fs.god_write(REPORT, data).expect("write");
        }),
        ("file label", |s| {
            let mut data = s.world.fs.god_read(REPORT).expect("read");
            data.add_label(Label::Untrusted { source: "test".into() });
            s.world.fs.god_write(REPORT, data).expect("write");
        }),
        ("mode", |s| {
            s.world.fs.god_chmod(REPORT, Mode::new(0o640)).expect("chmod");
        }),
        ("owner", |s| {
            s.world.fs.god_chown(REPORT, Uid::ROOT, Gid::ROOT).expect("chown");
        }),
        ("directory entry", |s| {
            s.world
                .fs
                .put_file("/home/student/notes.txt", "", Uid(1001), Gid(100), Mode::new(0o644))
                .expect("put");
        }),
        ("symlink target", |s| {
            s.world.fs.god_remove("/tmp/lpr-link").expect("remove");
            s.world.fs.god_symlink("/tmp/lpr-link", "/etc/shadow").expect("relink");
        }),
        ("user", |s| {
            s.world.users.add("mallory", Uid(4242), Gid(100), "/home/mallory");
        }),
        ("registry value", |s| {
            s.world.registry.god_set_value("HKLM/Software/Lpr", "queue", "lp0");
        }),
        ("network service", |s| {
            s.world.net.add_service("print.example.edu", 515, true);
        }),
        ("DNS entry", |s| s.world.net.add_dns("print.example.edu", "10.0.0.9")),
        ("scenario field", |s| {
            std::sync::Arc::make_mut(&mut s.world.scenario).attacker_home = "/home/eve".into();
        }),
        ("args", |s| {
            s.args = s.args.iter().cloned().chain(["-P".into()]).collect();
        }),
        ("env", |s| {
            std::sync::Arc::make_mut(&mut s.env).insert("PRINTER".into(), "lp0".into());
        }),
        ("cwd", |s| s.cwd = "/tmp".into()),
        ("program", |s| s.program = None),
        ("invoker", |s| s.invoker = Uid::ROOT),
        ("invariant", |s| {
            s.invariants.push(InvariantSpec::file_pristine("/etc/passwd"));
        }),
    ];
    let pristine = lpr_setup().fingerprint();
    let mut seen = std::collections::BTreeSet::from([pristine]);
    for (field, change) in changes {
        let mut setup = lpr_setup();
        change(&mut setup);
        assert!(
            seen.insert(setup.fingerprint()),
            "changing the {field} left the fingerprint as is"
        );
    }
}

#[test]
fn the_lpr_fingerprint_is_pinned() {
    // A tripwire: persistent stores file their records under scopes built
    // from this hash. If this value changes, bump STORE_FORMAT_VERSION
    // (`epa::core::store`) so older stores are upgraded, not misread.
    let setup = epa::apps::lpr::spec().materialize().expect("the lpr spec is valid");
    assert_eq!(format!("{:016x}", setup.fingerprint()), "f2633e0cb30651da");
}

/// The fingerprints of the eight standard setups, pinned. Persistent
/// stores key their segments by these values, so a change to what a
/// fingerprint covers or to any substrate's `Hash` impl (the dense inode
/// table's included) moves them, and must come with a
/// `STORE_FORMAT_VERSION` bump and new pins. FNV-1a hashes integers in
/// native byte order; the pins are the little-endian 64-bit values.
#[test]
fn standard_setup_fingerprints_are_pinned() {
    let pinned: [(&str, u64); 8] = [
        ("lpr", 0xf263_3e0c_b306_51da),
        ("turnin", 0x3bf8_eb1e_f185_d2ad),
        ("fontpurge", 0xd29b_3289_e16f_86d5),
        ("ntlogon", 0x1485_24e0_697e_1181),
        ("fingerd", 0xa562_66f7_b1de_7088),
        ("authd", 0x155d_f342_2dc2_67a8),
        ("mailnotify", 0x3d65_da05_eab3_fbc3),
        ("backupd", 0xd8b9_f7be_44a3_7f19),
    ];
    let fingerprints: Vec<(&str, u64)> = epa::apps::standard_apps()
        .iter()
        .map(|(app, spec)| (app.name(), spec.materialize().expect("standard spec").fingerprint()))
        .collect();
    assert_eq!(fingerprints, pinned);
    assert_eq!(
        epa::core::store::STORE_FORMAT_VERSION,
        3,
        "the pins belong to store format 3"
    );
}
