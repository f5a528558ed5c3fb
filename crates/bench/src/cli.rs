//! The `reproduce` command-line surface: one table of subcommands, one
//! dispatcher.
//!
//! Every subcommand the binary accepts lives in [`SUBCOMMANDS`] — name,
//! argument syntax, one-line description, and the function that runs it —
//! so the help text, the `all` sweep, and the dispatch can never drift
//! apart: a subcommand that is missing from the table simply does not
//! exist. The binary itself only parses flags and calls [`run`].

use std::io::Write;

use crate::experiments;

/// Options shared by the experiments that take values.
#[derive(Clone, Default)]
pub struct RunOptions {
    /// Also write the machine-readable artifact next to the workspace root.
    pub json: bool,
    /// Corpus RNG seed override (`--seed`).
    pub seed: Option<u64>,
    /// Corpus scenario-count override (`--count`).
    pub count: Option<usize>,
    /// Persistent result-store directory (`--store`; `EPA_CACHE_DIR` when
    /// absent). Validated by [`epa_core::store::resolve_store_dir`].
    pub store: Option<String>,
    /// The `store` subcommand's operation (`stats`, `prune`, `verify`).
    pub store_op: Option<String>,
    /// TTL in seconds for `store prune` (`--ttl`).
    pub ttl: Option<u64>,
}

/// One `reproduce` subcommand: its name, extra-argument syntax, one-line
/// description, and runner.
pub struct Subcommand {
    /// The name given on the command line.
    pub name: &'static str,
    /// Extra flags the subcommand honors (empty when none).
    pub args: &'static str,
    /// One-line description for the help table.
    pub about: &'static str,
    /// Executes the subcommand, printing through the given [`Output`].
    pub run: fn(RunOptions, &mut Output<'_>) -> Result<(), String>,
}

/// Every subcommand of the `reproduce` binary, in `all`-sweep order.
pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "table1",
        args: "",
        about: "vulnerability database by security consequence",
        run: |_, out| write!(out, "{}", experiments::table1()),
    },
    Subcommand {
        name: "table2",
        args: "",
        about: "vulnerability database by intrusion technique",
        run: |_, out| write!(out, "{}", experiments::table2()),
    },
    Subcommand {
        name: "table3",
        args: "",
        about: "vulnerability database by environment dependency",
        run: |_, out| write!(out, "{}", experiments::table3()),
    },
    Subcommand {
        name: "table4",
        args: "",
        about: "environment-object attributes the faults perturb",
        run: |_, out| write!(out, "{}", experiments::table4()),
    },
    Subcommand {
        name: "table5",
        args: "",
        about: "direct fault-injection operators",
        run: |_, out| write!(out, "{}", experiments::table5()),
    },
    Subcommand {
        name: "table6",
        args: "",
        about: "indirect fault-injection operators",
        run: |_, out| write!(out, "{}", experiments::table6()),
    },
    Subcommand {
        name: "figure1",
        args: "",
        about: "fault/failure model of the paper's Figure 1",
        run: |_, out| write!(out, "{}", experiments::figure1().render()),
    },
    Subcommand {
        name: "figure2",
        args: "",
        about: "adequacy regions of the paper's Figure 2",
        run: |_, out| write!(out, "{}", experiments::figure2().render()),
    },
    Subcommand {
        name: "lpr",
        args: "",
        about: "§3.4 lpr spool-file case study",
        run: |_, out| write!(out, "{}", experiments::lpr_34().render()),
    },
    Subcommand {
        name: "turnin",
        args: "",
        about: "§4.1 turnin case study (flawed vs fixed)",
        run: |_, out| write!(out, "{}", experiments::turnin_41().render()),
    },
    Subcommand {
        name: "registry",
        args: "",
        about: "§4.2 registry/profile case studies",
        run: |_, out| write!(out, "{}", experiments::registry_42().render()),
    },
    Subcommand {
        name: "comparison",
        args: "",
        about: "perturbation vs ava/fuzz baseline comparison",
        run: |_, out| write!(out, "{}", experiments::comparison().render()),
    },
    Subcommand {
        name: "placement",
        args: "",
        about: "EAI-site placement sensitivity ablation",
        run: |_, out| write!(out, "{}", experiments::placement().render()),
    },
    Subcommand {
        name: "patterns",
        args: "",
        about: "cross-application vulnerability patterns",
        run: |_, out| write!(out, "{}", experiments::patterns().render()),
    },
    Subcommand {
        name: "suite",
        args: "[--json] [--store DIR]",
        about: "eight-application standard suite + class rollup",
        run: run_suite,
    },
    Subcommand {
        name: "store",
        args: "[stats|prune|verify] [--store DIR] [--count N] [--ttl SECS]",
        about: "persistent result-store maintenance (default: stats)",
        run: run_store,
    },
    Subcommand {
        name: "corpus",
        args: "[--json] [--seed N] [--count N]",
        about: "differential corpus sweep (fails on divergence)",
        run: run_corpus,
    },
    Subcommand {
        name: "lint",
        args: "[--json]",
        about: "static world lint + fault relevance (fails on errors)",
        run: run_lint,
    },
    Subcommand {
        name: "clean",
        args: "",
        about: "clean-run baseline (violations without faults)",
        run: run_clean,
    },
];

/// The one writer every subcommand prints its standard output through.
///
/// A reader that goes away early (`reproduce all | head -1`) ends the
/// output, not the program: the first `BrokenPipe` closes the writer,
/// every later write is dropped, and the command still succeeds. Any
/// other write error fails the subcommand that hit it.
///
/// `write!` and `writeln!` work on it directly and return
/// `Result<(), String>`, so a subcommand forwards failures with `?`.
pub struct Output<'a> {
    sink: &'a mut dyn Write,
    closed: bool,
}

impl<'a> Output<'a> {
    /// Prints to `sink` (the binary passes standard output).
    pub fn new(sink: &'a mut dyn Write) -> Output<'a> {
        Output { sink, closed: false }
    }

    /// Whether the reader has gone away; nothing more is written.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Writes formatted text: the target of `write!` and `writeln!`.
    ///
    /// # Errors
    ///
    /// A write error other than `BrokenPipe`.
    pub fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) -> Result<(), String> {
        if self.closed {
            return Ok(());
        }
        let written = self.sink.write_fmt(args);
        self.settle(written)
    }

    /// Flushes the sink.
    ///
    /// # Errors
    ///
    /// A flush error other than `BrokenPipe`.
    pub fn flush(&mut self) -> Result<(), String> {
        if self.closed {
            return Ok(());
        }
        let flushed = self.sink.flush();
        self.settle(flushed)
    }

    fn settle(&mut self, result: std::io::Result<()>) -> Result<(), String> {
        match result {
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(())
            }
            Err(e) => Err(format!("writing output: {e}")),
            Ok(()) => Ok(()),
        }
    }
}

/// Where machine-readable artifacts land: the workspace root, next to
/// `SUITE_report.json`.
pub fn workspace_artifact(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// Serializes `value` to `name` at the workspace root when `--json` is on.
fn write_artifact<T: serde::Serialize>(out: &mut Output<'_>, json: bool, name: &str, value: &T) -> Result<(), String> {
    if !json {
        return Ok(());
    }
    let path = workspace_artifact(name);
    write_json(&path, value)?;
    writeln!(out, "wrote {}", path.display())
}

/// Writes `value` as pretty JSON to `path` through the store's
/// [`epa_core::store::install`]: a new file beside it, renamed over it, so
/// a link planted at `path` is replaced, never followed.
fn write_json<T: serde::Serialize>(path: &std::path::Path, value: &T) -> Result<(), String> {
    let shown = path.display();
    let text = serde_json::to_string_pretty(value).map_err(|e| format!("serializing {shown}: {e}"))?;
    epa_core::store::install(path, &text, None).map_err(|e| format!("writing {shown}: {e}"))
}

fn run_suite(opts: RunOptions, out: &mut Output<'_>) -> Result<(), String> {
    // A persistent store (from `--store` or `EPA_CACHE_DIR`) turns the
    // suite into a warm-replayable run: every executed digest is written
    // through, and the lockfile manifest pins the plan's store keys.
    // Validation failures warn and fall back to a run without a store —
    // they never fail the experiment (the `EPA_WORKERS` contract).
    let resolution = epa_core::store::resolve_store_dir_env(opts.store.as_deref());
    if let Some(refusal) = &resolution.refusal {
        eprintln!("reproduce: {refusal}; running without a store");
    }
    let persistent = resolution
        .dir
        .and_then(|dir| match epa_core::engine::ResultCache::persistent(&dir) {
            Ok(cache) => Some((dir, cache)),
            Err(e) => {
                eprintln!("reproduce: store at {}: {e}; running without a store", dir.display());
                None
            }
        });
    let report = match &persistent {
        Some((dir, cache)) => {
            let (report, manifest) = experiments::suite_with_cache(cache.clone());
            let path = manifest
                .write_to(dir)
                .map_err(|e| format!("suite: writing manifest: {e}"))?;
            let stats = cache.stats();
            writeln!(
                out,
                "store: {} ({} warm replays from disk this run)",
                dir.display(),
                stats.store_hits
            )?;
            writeln!(
                out,
                "manifest: {} ({} store keys)",
                path.display(),
                manifest.store_keys()
            )?;
            report
        }
        None => experiments::suite(),
    };
    write!(out, "{}", report.render_text())?;
    // Roll the verdict stream up by vulnerability class: each verdict's
    // policy family crossed with its fault's EAI category, classified
    // against the epa-vulndb taxonomy.
    write!(
        out,
        "{}",
        epa_vulndb::render_class_rollup(&epa_vulndb::suite_class_rollup(&report))
    )?;
    write_artifact(out, opts.json, "SUITE_report.json", &report)
}

/// The `store` subcommand: maintenance operations on a persistent result
/// store. Without a configured directory every operation is a no-op with a
/// note (so the `all` sweep stays green on machines without a store); so is
/// one whose `EPA_CACHE_DIR` is refused, after a warning. An explicit
/// `--store` that is refused fails the operation, and an unknown operation
/// fails before any directory is resolved or opened.
fn run_store(opts: RunOptions, out: &mut Output<'_>) -> Result<(), String> {
    use epa_core::store::{DiskStore, PruneOptions, SuiteManifest};
    let op = opts.store_op.as_deref().unwrap_or("stats");
    if !["stats", "prune", "verify"].contains(&op) {
        return Err(format!(
            "store: unknown operation `{op}` (expected stats, prune or verify)"
        ));
    }
    let resolution = epa_core::store::resolve_store_dir_env(opts.store.as_deref());
    if let Some(refusal) = &resolution.refusal {
        if opts.store.as_deref().is_some_and(|s| !s.trim().is_empty()) {
            return Err(format!("store {op}: --store refused: {refusal}"));
        }
        eprintln!("reproduce: {refusal}; running without a store");
    }
    let Some(dir) = resolution.dir else {
        writeln!(
            out,
            "store: no store directory configured (pass --store DIR or set EPA_CACHE_DIR); nothing to {op}"
        )?;
        return Ok(());
    };
    let store = DiskStore::open(&dir).map_err(|e| format!("store: {e}"))?;
    match op {
        "stats" => {
            let stats = store.stats();
            writeln!(out, "store: {}", dir.display())?;
            writeln!(
                out,
                "  entries: {}   bytes: {}   segments: {}   quarantined segments: {}",
                stats.entries, stats.bytes, stats.segments, stats.quarantined_segments
            )?;
            match SuiteManifest::load_from(&dir).map_err(|e| format!("store: {e}"))? {
                Some(manifest) => writeln!(
                    out,
                    "  manifest: {} application(s), {} store keys",
                    manifest.apps.len(),
                    manifest.store_keys()
                ),
                None => writeln!(
                    out,
                    "  manifest: none (run `suite --store {}` to write one)",
                    dir.display()
                ),
            }
        }
        "prune" => {
            // Defaults: keep 4096 entries, expire after 30 days unused.
            let options = PruneOptions {
                max_entries: Some(opts.count.unwrap_or(4096)),
                ttl: Some(std::time::Duration::from_secs(opts.ttl.unwrap_or(30 * 24 * 60 * 60))),
            };
            let report = store.prune(options);
            writeln!(
                out,
                "store: pruned {} — examined {}, expired {}, evicted {}, remaining {}",
                dir.display(),
                report.examined,
                report.expired,
                report.evicted,
                report.remaining
            )?;
            Ok(())
        }
        "verify" => {
            let report = store.verify();
            writeln!(
                out,
                "store: verify {} — {} entr{} ok, {} corrupt, {} quarantined segment(s)",
                dir.display(),
                report.ok,
                if report.ok == 1 { "y" } else { "ies" },
                report.corrupt.len(),
                report.quarantined.len()
            )?;
            for line in &report.corrupt {
                writeln!(out, "  corrupt: {line}")?;
            }
            for segment in &report.quarantined {
                writeln!(out, "  quarantined: {segment}")?;
            }
            let mut failures = Vec::new();
            if !report.is_clean() {
                failures.push(format!(
                    "{} corrupt record(s), {} quarantined segment(s)",
                    report.corrupt.len(),
                    report.quarantined.len()
                ));
            }
            match SuiteManifest::load_from(&dir).map_err(|e| format!("store: {e}"))? {
                Some(manifest) => {
                    let check = manifest.verify(&store);
                    writeln!(
                        out,
                        "  manifest: {} key(s) present, {} missing",
                        check.present,
                        check.missing.len()
                    )?;
                    for (app, digest) in &check.missing {
                        writeln!(out, "  missing: {app} {digest}")?;
                    }
                    if !check.is_complete() {
                        failures.push(format!(
                            "{} manifest key(s) missing from the store",
                            check.missing.len()
                        ));
                    }
                }
                None => writeln!(out, "  manifest: none")?,
            }
            if failures.is_empty() {
                Ok(())
            } else {
                Err(format!("store: verify failed: {}", failures.join("; ")))
            }
        }
        _ => unreachable!("store operations are checked before the store opens"),
    }
}

fn run_corpus(opts: RunOptions, out: &mut Output<'_>) -> Result<(), String> {
    let seed = opts.seed.unwrap_or(epa_core::corpus::DEFAULT_CORPUS_SEED);
    let count = opts.count.unwrap_or(120);
    let report = experiments::corpus(seed, count);
    write!(out, "{}", report.render_text())?;
    write_artifact(out, opts.json, "CORPUS_report.json", &report)?;
    if report.divergences > 0 {
        return Err(format!(
            "corpus: {} scenario(s) diverged across execution paths (seeds are in the dashboard above)",
            report.divergences
        ));
    }
    Ok(())
}

fn run_lint(opts: RunOptions, out: &mut Output<'_>) -> Result<(), String> {
    let summaries = experiments::lint();
    for summary in &summaries {
        write!(out, "{}", summary.render())?;
    }
    let errors: usize = summaries
        .iter()
        .map(|s| s.report.count(epa_core::Severity::Error))
        .sum();
    let warnings: usize = summaries
        .iter()
        .map(|s| s.report.count(epa_core::Severity::Warning))
        .sum();
    writeln!(
        out,
        "lint: {} world(s), {errors} error(s), {warnings} warning(s)",
        summaries.len()
    )?;
    write_artifact(out, opts.json, "LINT_report.json", &summaries)?;
    if errors > 0 {
        return Err(format!("lint: {errors} error-severity diagnostic(s)"));
    }
    Ok(())
}

fn run_clean(_opts: RunOptions, out: &mut Output<'_>) -> Result<(), String> {
    writeln!(out, "Clean-run baseline (violations in unperturbed runs):")?;
    for (app, n) in experiments::clean_baseline() {
        writeln!(out, "  {app:<16} {n}")?;
    }
    Ok(())
}

/// Looks a subcommand up by name.
pub fn find(name: &str) -> Option<&'static Subcommand> {
    SUBCOMMANDS.iter().find(|s| s.name == name)
}

/// Runs one subcommand by name, printing through `out` (`Err` for
/// unknown names or failures).
pub fn run(name: &str, opts: RunOptions, out: &mut Output<'_>) -> Result<(), String> {
    let sub = find(name).ok_or_else(|| format!("unknown experiment `{name}`"))?;
    (sub.run)(opts, out)?;
    writeln!(out)
}

/// Renders the one help table every usage message draws from.
pub fn usage() -> String {
    let width = SUBCOMMANDS
        .iter()
        .map(|s| s.name.len() + if s.args.is_empty() { 0 } else { s.args.len() + 1 })
        .max()
        .unwrap_or(0);
    let mut out = String::from("usage: reproduce -- [SUBCOMMAND...] (default: all)\n\nsubcommands:\n");
    for s in SUBCOMMANDS {
        let invocation = if s.args.is_empty() {
            s.name.to_string()
        } else {
            format!("{} {}", s.name, s.args)
        };
        out.push_str(&format!("  {invocation:<width$}  {}\n", s.about));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_artifact_replaces_a_link_at_its_name_and_leaves_the_target_alone() {
        let dir = std::env::temp_dir().join(format!("epa-artifact-link-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("a scratch directory");
        let outside = dir.join("outside.txt");
        std::fs::write(&outside, b"not a report").expect("the link's target");
        let artifact = dir.join("LINT_report.json");
        std::os::unix::fs::symlink(&outside, &artifact).expect("a link at the artifact name");

        write_json(&artifact, &vec!["EPA0001"]).expect("the artifact is written");
        assert_eq!(std::fs::read(&outside).expect("the target"), b"not a report");
        let meta = std::fs::symlink_metadata(&artifact).expect("the artifact");
        assert!(meta.file_type().is_file(), "the link was replaced by the artifact");
        assert_eq!(
            std::fs::read_to_string(&artifact).expect("the artifact reads"),
            serde_json::to_string_pretty(&vec!["EPA0001"]).expect("serializes")
        );
        let names: Vec<_> = std::fs::read_dir(&dir).expect("the directory").flatten().collect();
        assert_eq!(names.len(), 2, "no transient file is left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs one subcommand into a byte buffer.
    fn run_captured(name: &str, opts: RunOptions) -> Result<(), String> {
        let mut sink = Vec::new();
        run(name, opts, &mut Output::new(&mut sink))
    }

    /// A reader that takes `left` bytes, then goes away.
    struct ClosesAfter {
        left: usize,
        taken: Vec<u8>,
    }

    impl Write for ClosesAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.left == 0 {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            if self.left == 0 {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            Ok(())
        }
    }

    /// A closed pipe ends the output, not the command: the subcommand
    /// succeeds, the writer reports closed, and nothing more is written.
    /// Other write errors still fail the subcommand.
    #[test]
    fn a_reader_that_goes_away_ends_the_output_quietly() {
        let mut sink = ClosesAfter {
            left: 16,
            taken: Vec::new(),
        };
        let mut out = Output::new(&mut sink);
        assert_eq!(run("table1", RunOptions::default(), &mut out), Ok(()));
        assert!(out.is_closed());
        assert_eq!(run("figure1", RunOptions::default(), &mut out), Ok(()));
        assert_eq!(out.flush(), Ok(()));
        assert_eq!(sink.taken.len(), 16, "only what the reader took was written");
        let mut full = Vec::new();
        run("table1", RunOptions::default(), &mut Output::new(&mut full)).expect("table1 prints");
        assert!(full.starts_with(&sink.taken));

        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = run("table1", RunOptions::default(), &mut Output::new(&mut Full)).unwrap_err();
        assert!(err.contains("disk full"), "{err}");
    }

    /// The table is the single source of truth: every subcommand has a
    /// unique name, a non-empty description, and appears in the rendered
    /// help — including the newer `lint` and `corpus` entries.
    #[test]
    fn every_subcommand_is_listed_exactly_once() {
        let mut names = std::collections::BTreeSet::new();
        let help = usage();
        for sub in SUBCOMMANDS {
            assert!(names.insert(sub.name), "duplicate subcommand `{}`", sub.name);
            assert!(!sub.about.is_empty(), "`{}` has no description", sub.name);
            assert!(help.contains(sub.name), "`{}` missing from usage()", sub.name);
            if !sub.args.is_empty() {
                assert!(help.contains(sub.args), "`{}` args missing from usage()", sub.name);
            }
        }
        for expected in ["lint", "corpus", "suite", "store", "clean", "table1", "figure2"] {
            assert!(find(expected).is_some(), "`{expected}` not in SUBCOMMANDS");
        }
    }

    /// `store` without a configured directory is a no-op note, not a
    /// failure — the `all` sweep must stay green on storeless machines.
    /// Unknown operations are rejected with the operation menu.
    #[test]
    fn store_subcommand_is_vacuous_without_a_directory_and_rejects_bad_ops() {
        // The environment is not consulted when an explicit blank wins.
        let vacuous = RunOptions {
            store: Some("   ".to_string()),
            store_op: Some("verify".to_string()),
            ..RunOptions::default()
        };
        assert_eq!(run_captured("store", vacuous), Ok(()));
        let dir = std::env::temp_dir().join(format!("epa-cli-store-{}", std::process::id()));
        let bad = RunOptions {
            store: Some(dir.to_string_lossy().to_string()),
            store_op: Some("defragment".to_string()),
            ..RunOptions::default()
        };
        let err = run_captured("store", bad).unwrap_err();
        assert!(err.contains("unknown operation"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An explicit `--store` that cannot be a store directory (here a
    /// regular file) fails every operation and says why, instead of
    /// falling through to the no-directory note.
    #[test]
    fn store_subcommand_fails_on_a_refused_explicit_directory() {
        let file = std::env::temp_dir().join(format!("epa-cli-store-file-{}", std::process::id()));
        std::fs::write(&file, "not a store").expect("a plain file");
        for op in ["stats", "prune", "verify"] {
            let refused = RunOptions {
                store: Some(file.to_string_lossy().to_string()),
                store_op: Some(op.to_string()),
                ..RunOptions::default()
            };
            let err = run_captured("store", refused).unwrap_err();
            assert!(err.starts_with(&format!("store {op}: --store refused")), "{err}");
            assert!(err.contains("cannot be created"), "the resolution reason: {err}");
        }
        assert_eq!(std::fs::read_to_string(&file).ok().as_deref(), Some("not a store"));
        let _ = std::fs::remove_file(&file);
    }

    /// Unknown names fail with the canonical error, so the binary's exit
    /// path is exercised without running any experiment.
    #[test]
    fn unknown_subcommands_are_rejected() {
        let err = run_captured("no-such-experiment", RunOptions::default()).unwrap_err();
        assert!(err.contains("unknown experiment"), "{err}");
    }
}
