//! The result store's own environment, perturbed: the paper's method
//! applied to the tool. Each row breaks the disk tier one way and runs the
//! standard suite over it. Every row must *degrade but stay correct*: the
//! verdicts are byte-identical to a run with no store, the store warns
//! exactly once, and no corrupt entry is left behind for a later run.
//!
//! The rows that break the disk itself run `reproduce` and count the
//! warnings it prints: a directory where a segment belongs (unreadable,
//! even for root), a dangling link where a segment belongs, into a missing
//! directory or into an existing one outside the store (the paper's lpr
//! `creat` flaw, §3.4: the store must refuse the link, not create its
//! target), a link at the writability probe's name and the segment
//! directory itself as a link, both out of the store, and a segment whose
//! last record was cut short (a damaged disk, or an older build's torn
//! append). Two
//! more rows drop saves in a [`ResultStore`] wrapper before they reach a
//! real [`DiskStore`], all of them or all after the first 40: the store
//! never sees those writes, so they count no warning and check only the
//! verdicts and what a warm rerun executes. The last row gives one segment
//! a foreign-version header under a handle that has already read it: the
//! handle must quarantine it and never write to it.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use epa_core::engine::planner::{FaultKey, RunDigest};
use epa_core::engine::SuiteReport;
use epa_core::store::{DiskStore, ResultStore, STORE_FORMAT_VERSION};

/// How a perturbation ended, after "Correctness Attraction" (PAPERS.md).
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// Verdicts identical, and nothing was lost: no warning was needed.
    Attracted,
    /// Verdicts identical, some memoization lost, one warning.
    DegradedButCorrect,
    /// Verdicts moved, a warning was repeated or missing, or a corrupt
    /// entry was left behind.
    Failed,
}

/// What one row observed.
struct Observed {
    /// The suite's verdict text, with everything provenance-only stripped.
    verdicts: String,
    /// Warnings the store printed; `None` where the saves were dropped
    /// before they reached the store, which then has nothing to warn of,
    /// and where the suite runs in-process, whose stderr the test cannot
    /// count (the foreign-header row).
    warnings: Option<usize>,
    /// Damaged records left in the store directory.
    corrupt: usize,
}

impl Observed {
    fn outcome(&self, clean: &str) -> Outcome {
        match (self.verdicts == clean, self.warnings, self.corrupt) {
            (true, Some(0), 0) => Outcome::Attracted,
            (true, Some(1) | None, 0) => Outcome::DegradedButCorrect,
            _ => Outcome::Failed,
        }
    }
}

/// One perturbation of the store's environment.
struct Row {
    name: &'static str,
    /// Runs the suite over a store in `dir`, perturbed.
    run: fn(&Path) -> Observed,
    /// Runs the suite with no store: the verdicts every row must reach.
    clean: fn() -> String,
}

const ROWS: [Row; 9] = [
    Row {
        name: "a directory where each segment belongs",
        run: segments_are_directories,
        clean: clean_reproduce_stdout,
    },
    Row {
        name: "a dangling link where each segment belongs",
        run: segments_are_dangling_links,
        clean: clean_reproduce_stdout,
    },
    Row {
        name: "a dangling link into an existing outside directory where each segment belongs",
        run: segments_are_links_out_of_the_store,
        clean: clean_reproduce_stdout,
    },
    Row {
        name: "a link at the writability probe's name to a file outside the store",
        run: link_at_the_probe,
        clean: clean_reproduce_stdout,
    },
    Row {
        name: "the segment directory as a link into an existing outside directory",
        run: segment_directory_is_a_link_out_of_the_store,
        clean: clean_reproduce_stdout,
    },
    Row {
        name: "a segment whose last record was cut short",
        run: torn_record,
        clean: clean_reproduce_stdout,
    },
    Row {
        name: "every save dropped before the store",
        run: |dir| refused_writes(dir, 0),
        clean: clean_suite_verdicts,
    },
    Row {
        name: "saves dropped before the store after 40 records",
        run: |dir| refused_writes(dir, 40),
        clean: clean_suite_verdicts,
    },
    Row {
        name: "a foreign-version header on a segment a held handle has read",
        run: foreign_segment,
        clean: clean_suite_verdicts,
    },
];

#[test]
fn every_store_perturbation_degrades_but_stays_correct() {
    for (i, row) in ROWS.iter().enumerate() {
        let dir = fresh_dir(i);
        let observed = (row.run)(&dir);
        let clean = (row.clean)();
        assert_eq!(observed.verdicts, clean, "{}: verdicts moved", row.name);
        if let Some(warnings) = observed.warnings {
            assert_eq!(warnings, 1, "{}: warnings", row.name);
        }
        assert_eq!(observed.corrupt, 0, "{}: corrupt entries left behind", row.name);
        assert_eq!(observed.outcome(&clean), Outcome::DegradedButCorrect, "{}", row.name);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn fresh_dir(row: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("epa-store-perturb-{}-{row}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `reproduce` with `args` in a clean environment.
fn reproduce(args: &[&OsStr]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .env_remove("EPA_CACHE_DIR")
        .env_remove("EPA_WORKERS")
        .output()
        .expect("reproduce runs")
}

/// Runs `reproduce suite` (with `--store dir`, if given).
fn reproduce_suite(store: Option<&Path>) -> Output {
    let out = match store {
        Some(dir) => reproduce(&["suite".as_ref(), "--store".as_ref(), dir.as_os_str()]),
        None => reproduce(&["suite".as_ref()]),
    };
    assert!(out.status.success(), "reproduce suite failed: {out:?}");
    out
}

/// The line of `reproduce suite`'s stdout that counts the runs, which a
/// warm store changes.
const RUNS_LINE: &str = "  runs executed: ";

/// `reproduce suite`'s stdout minus the lines that name the store and the
/// run counts.
fn verdict_lines(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|line| !line.starts_with("store: ") && !line.starts_with("manifest: ") && !line.starts_with(RUNS_LINE))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// How many runs `reproduce suite` reports it executed.
fn runs_executed(stdout: &[u8]) -> usize {
    let stdout = String::from_utf8_lossy(stdout);
    let line = stdout.lines().find_map(|line| line.strip_prefix(RUNS_LINE));
    let count = line.and_then(|rest| rest.split_whitespace().next());
    count
        .and_then(|n| n.parse().ok())
        .expect("reproduce suite counts its runs")
}

fn clean_reproduce_stdout() -> String {
    static CLEAN: OnceLock<String> = OnceLock::new();
    CLEAN
        .get_or_init(|| verdict_lines(&reproduce_suite(None).stdout))
        .clone()
}

/// The lines `reproduce` printed to stderr on behalf of the store.
fn store_warnings(out: &Output) -> Vec<String> {
    let stderr = String::from_utf8_lossy(&out.stderr);
    stderr
        .lines()
        .filter(|l| l.starts_with("epa-store:"))
        .map(str::to_owned)
        .collect()
}

/// Puts `make(path)` where each standard-suite scope's segment belongs, in
/// a fresh store, then runs `reproduce suite` over it: every run executes
/// and one warning names `covered` and the I/O error `cause`.
fn broken_segments(dir: &Path, make: fn(&Path), covered: &str, cause: &str) -> Observed {
    drop(DiskStore::open(dir).expect("the store opens"));
    let segments = dir.join(format!("v{STORE_FORMAT_VERSION}"));
    std::fs::create_dir_all(&segments).expect("the segment directory");
    let manifest = epa_apps::standard_suite().expect("valid specs").manifest();
    for app in &manifest.apps {
        make(&segments.join(format!("{}.seg", app.scope)));
    }
    let out = reproduce_suite(Some(dir));
    assert_eq!(runs_executed(&out.stdout), 245, "nothing was replayed");
    let warnings = store_warnings(&out);
    if let [warning] = warnings.as_slice() {
        assert!(warning.contains(covered), "{covered}: {warning}");
        assert!(warning.contains(cause), "the I/O error is named: {warning}");
    }
    Observed {
        verdicts: verdict_lines(&out.stdout),
        warnings: Some(warnings.len()),
        corrupt: DiskStore::open(dir).expect("the store reopens").verify().corrupt.len(),
    }
}

/// Every segment of the standard suite's scopes is a directory: no segment
/// can be read. `store verify` then fails with its one reason and no usage
/// table, which only an unknown subcommand gets; a misspelt store operation
/// fails with one reason too, without running `stats` first.
fn segments_are_directories(dir: &Path) -> Observed {
    let make = |path: &Path| std::fs::create_dir(path).expect("a directory as a segment");
    let observed = broken_segments(dir, make, "8 segments could not be read", "Is a directory");
    let verify = reproduce(&["store".as_ref(), "verify".as_ref(), "--store".as_ref(), dir.as_os_str()]);
    let stderr = String::from_utf8_lossy(&verify.stderr);
    assert_eq!(verify.status.code(), Some(2), "store verify fails: {stderr}");
    let reasons = stderr.lines().filter(|l| l.starts_with("reproduce:")).count();
    assert_eq!(reasons, 1, "one reason line: {stderr}");
    assert!(!stderr.contains("subcommands:"), "no usage table: {stderr}");
    let unknown = reproduce(&["no-such-experiment".as_ref()]);
    assert_eq!(unknown.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert!(
        stderr.contains("subcommands:"),
        "an unknown name gets the table: {stderr}"
    );
    let typo = reproduce(&[
        "store".as_ref(),
        "defragment".as_ref(),
        "--store".as_ref(),
        dir.as_os_str(),
    ]);
    let stderr = String::from_utf8_lossy(&typo.stderr);
    assert_eq!(
        typo.status.code(),
        Some(2),
        "an unknown store operation fails: {stderr}"
    );
    let reasons: Vec<&str> = stderr.lines().filter(|l| l.starts_with("reproduce:")).collect();
    assert!(
        matches!(reasons.as_slice(), [reason] if reason.contains("unknown operation `defragment`")),
        "one reason line naming the operation: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&typo.stdout);
    assert!(!stdout.contains("entries:"), "no stats ran: {stdout}");
    observed
}

/// Every segment of the standard suite's scopes is a link into a missing
/// directory: each is refused, so nothing is read from it or written to it.
fn segments_are_dangling_links(dir: &Path) -> Observed {
    let make = |path: &Path| {
        let target = path.with_file_name("missing").join("x.seg");
        std::os::unix::fs::symlink(target, path).expect("a dangling link as a segment");
    };
    broken_segments(dir, make, "8 segments could not be read", "symbolic link")
}

/// Every segment of the standard suite's scopes, and the manifest, is a
/// link to a missing file in an existing directory outside the store,
/// `<root>.outside`. Following one would create its target there; each
/// segment link is refused instead, and the manifest link replaced.
fn segments_are_links_out_of_the_store(dir: &Path) -> Observed {
    let make = |path: &Path| {
        let root = path.parent().and_then(Path::parent).expect("the store root");
        let outside = root.with_extension("outside");
        std::fs::create_dir_all(&outside).expect("the outside directory");
        let target = outside.join(path.file_name().expect("a segment name"));
        std::os::unix::fs::symlink(target, path).expect("a dangling link out of the store");
        // The first segment's call plants it; the later ones find it there.
        let _ = std::os::unix::fs::symlink(outside.join("MANIFEST.json"), root.join("MANIFEST.json"));
    };
    let observed = broken_segments(dir, make, "8 segments could not be read", "symbolic link");
    let outside = dir.with_extension("outside");
    let created = std::fs::read_dir(&outside).expect("the outside directory").count();
    let _ = std::fs::remove_dir_all(&outside);
    assert_eq!(created, 0, "files created outside the store root");
    observed
}

/// A link at `.epa-probe-<pid>`, the name `--store` probes writability
/// with, to a file outside the store. The pid is the one `reproduce` runs
/// under, so a shell plants the link and `exec`s it. The probe is created
/// only as a new file: the store is refused with one line, the suite runs
/// without it, and the outside file keeps its bytes.
fn link_at_the_probe(dir: &Path) -> Observed {
    std::fs::create_dir_all(dir).expect("the store directory");
    let victim = dir.with_extension("victim");
    std::fs::write(&victim, b"outside the store").expect("the outside file");
    let out = Command::new("sh")
        .args([
            "-c",
            r#"ln -s "$1" "$2/.epa-probe-$$" && exec "$3" suite --store "$2""#,
            "sh",
        ])
        .args([
            victim.as_os_str(),
            dir.as_os_str(),
            env!("CARGO_BIN_EXE_reproduce").as_ref(),
        ])
        .env_remove("EPA_CACHE_DIR")
        .env_remove("EPA_WORKERS")
        .output()
        .expect("sh runs");
    assert!(out.status.success(), "reproduce suite failed: {out:?}");
    let kept = std::fs::read(&victim).expect("the outside file is still there");
    let _ = std::fs::remove_file(&victim);
    assert_eq!(kept, b"outside the store", "the probe wrote through the link");
    assert_eq!(runs_executed(&out.stdout), 245, "no store, nothing replayed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let warnings: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("reproduce:") || l.starts_with("epa-store:"))
        .collect();
    if let [warning] = warnings.as_slice() {
        assert!(warning.contains("not writable"), "{warning}");
    }
    Observed {
        verdicts: verdict_lines(&out.stdout),
        warnings: Some(warnings.len()),
        corrupt: DiskStore::open(dir).expect("the store opens").verify().corrupt.len(),
    }
}

/// After a cold pass, the segment directory `v<N>/` is replaced by a link
/// to an existing directory outside the store, `<root>.outside`. Following
/// it would create every segment there, and replay from them on the pass
/// after. The handle turns its disk tier off instead: every run executes,
/// one warning names the link, nothing appears outside the root, and
/// `verify` reports the directory quarantined.
fn segment_directory_is_a_link_out_of_the_store(dir: &Path) -> Observed {
    reproduce_suite(Some(dir));
    let segments = dir.join(format!("v{STORE_FORMAT_VERSION}"));
    let outside = dir.with_extension("outside");
    std::fs::create_dir_all(&outside).expect("the outside directory");
    std::fs::remove_dir_all(&segments).expect("the cold pass wrote segments");
    std::os::unix::fs::symlink(&outside, &segments).expect("a link as the segment directory");
    let out = reproduce_suite(Some(dir));
    let again = reproduce_suite(Some(dir));
    let created = std::fs::read_dir(&outside).expect("the outside directory").count();
    let _ = std::fs::remove_dir_all(&outside);
    assert_eq!(created, 0, "files created outside the store root");
    assert_eq!(runs_executed(&out.stdout), 245, "nothing was replayed");
    assert_eq!(runs_executed(&again.stdout), 245, "nothing was saved to replay");
    let warnings = store_warnings(&out);
    if let [warning] = warnings.as_slice() {
        assert!(warning.contains("symbolic link as the segment directory"), "{warning}");
    }
    let store = DiskStore::open(dir).expect("the store reopens");
    let quarantined = store.verify().quarantined;
    assert_eq!(quarantined, [segments.display().to_string()], "verify names the link");
    Observed {
        verdicts: verdict_lines(&out.stdout),
        warnings: Some(warnings.len()),
        corrupt: store.verify().corrupt.len(),
    }
}

/// A cold `reproduce suite` fills the store; then one segment loses the
/// tail of its last record, as a damaged disk leaves it. `verify` names
/// the torn record; a warm rerun warns once, executes only that run again
/// and its write leaves the segment whole.
fn torn_record(dir: &Path) -> Observed {
    reproduce_suite(Some(dir));
    let path = first_segment(dir);
    let bytes = std::fs::read(&path).expect("the segment reads");
    std::fs::write(&path, &bytes[..bytes.len() - 10]).expect("the segment is cut short");
    let torn = DiskStore::open(dir).expect("the store reopens").verify().corrupt;
    assert_eq!(torn.len(), 1, "verify names the torn record: {torn:?}");
    assert!(torn[0].contains("checksum mismatch"), "{}", torn[0]);

    let out = reproduce_suite(Some(dir));
    assert_eq!(
        runs_executed(&out.stdout),
        1,
        "only the torn record's run executes again"
    );
    let warnings = store_warnings(&out);
    if let [warning] = warnings.as_slice() {
        assert!(warning.contains("checksum mismatch"), "{warning}");
    }
    Observed {
        verdicts: verdict_lines(&out.stdout),
        warnings: Some(warnings.len()),
        corrupt: DiskStore::open(dir).expect("the store reopens").verify().corrupt.len(),
    }
}

/// The store's first segment file, in path order.
fn first_segment(dir: &Path) -> PathBuf {
    let segments = std::fs::read_dir(dir.join(format!("v{STORE_FORMAT_VERSION}"))).expect("a cold run wrote segments");
    let paths = segments.map(|entry| entry.expect("a segment entry").path());
    paths.min().expect("a segment")
}

/// A [`DiskStore`] behind a wrapper that drops every save once `room`
/// records are saved.
struct RefusingStore {
    disk: DiskStore,
    room: usize,
    saved: AtomicUsize,
    refused: AtomicUsize,
}

impl ResultStore for RefusingStore {
    fn load(&self, scope: u64, key: &FaultKey) -> Option<RunDigest> {
        self.disk.load(scope, key)
    }

    fn save(&self, scope: u64, key: &FaultKey, digest: &RunDigest) {
        if self.saved.fetch_add(1, Ordering::Relaxed) < self.room {
            self.disk.save(scope, key, digest);
        } else {
            self.refused.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn entries(&self) -> usize {
        self.disk.entries()
    }

    fn kind(&self) -> &'static str {
        self.disk.kind()
    }
}

/// The standard suite's verdicts, provenance flags cleared.
fn verdicts(report: &SuiteReport) -> String {
    let mut report = report.clone();
    for record in report.reports.iter_mut().flat_map(|r| r.records.iter_mut()) {
        record.cache_hit = false;
    }
    serde_json::to_string(&report).expect("suite reports serialize")
}

fn clean_suite_verdicts() -> String {
    static CLEAN: OnceLock<String> = OnceLock::new();
    let suite = || verdicts(&epa_apps::standard_suite().expect("valid specs").execute());
    CLEAN.get_or_init(suite).clone()
}

/// A cold suite through a wrapper that drops saves past `room`, then a
/// warm suite over what reached the disk: the runs that were not saved
/// execute again, and the verdicts do not move.
fn refused_writes(dir: &Path, room: usize) -> Observed {
    let store = Arc::new(RefusingStore {
        disk: DiskStore::open(dir).expect("the store opens"),
        room,
        saved: AtomicUsize::new(0),
        refused: AtomicUsize::new(0),
    });
    let cold = epa_apps::standard_suite()
        .expect("valid specs")
        .with_store(store.clone())
        .execute();
    let refused = store.refused.load(Ordering::Relaxed);
    assert_eq!(
        refused,
        cold.total_runs_executed() - room.min(cold.total_runs_executed())
    );
    let warm = epa_apps::standard_suite()
        .expect("valid specs")
        .with_store(Arc::new(DiskStore::open(dir).expect("the store reopens")))
        .execute();
    assert_eq!(
        warm.total_runs_executed(),
        refused,
        "exactly the unsaved runs execute again"
    );
    assert_eq!(verdicts(&warm), verdicts(&cold), "a warm run replays what was saved");
    Observed {
        verdicts: verdicts(&cold),
        warnings: None,
        corrupt: DiskStore::open(dir).expect("the store reopens").verify().corrupt.len(),
    }
}

/// A cold suite fills the store; a warm suite through one held handle then
/// reads every segment. One segment is rewritten with a foreign-version
/// header, and a cold suite runs through the same handle: exactly that
/// segment's runs execute again, none of them is saved, and the foreign
/// segment's bytes survive the handle unchanged.
fn foreign_segment(dir: &Path) -> Observed {
    let suite = || epa_apps::standard_suite().expect("valid specs");
    suite()
        .with_store(Arc::new(DiskStore::open(dir).expect("the store opens")))
        .execute();
    let store = Arc::new(DiskStore::open(dir).expect("the store reopens"));
    let warm = suite().with_store(store.clone()).execute();
    assert_eq!(warm.total_runs_executed(), 0, "the handle read every segment");
    let path = first_segment(dir);
    let text = std::fs::read_to_string(&path).expect("the segment reads");
    let foreign = text.replacen(&format!("segment v{STORE_FORMAT_VERSION} "), "segment v9 ", 1);
    assert!(foreign.starts_with("epa-store-segment v9 scope="), "{foreign}");
    std::fs::write(&path, &foreign).expect("the segment is rewritten");
    let cold = suite().with_store(store.clone()).execute();
    assert_eq!(
        cold.total_runs_executed(),
        text.lines().count() - 1,
        "exactly the foreign segment's runs execute again"
    );
    drop(store);
    let after = std::fs::read_to_string(&path).expect("the segment reads");
    assert_eq!(after, foreign, "the foreign segment is never written");
    Observed {
        verdicts: verdicts(&cold),
        warnings: None,
        corrupt: DiskStore::open(dir).expect("the store reopens").verify().corrupt.len(),
    }
}
