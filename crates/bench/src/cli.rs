//! The `reproduce` command-line surface: one table of subcommands, one
//! dispatcher.
//!
//! Every subcommand the binary accepts lives in [`SUBCOMMANDS`] — name,
//! argument syntax, one-line description, and the function that runs it —
//! so the help text, the `all` sweep, and the dispatch can never drift
//! apart: a subcommand that is missing from the table simply does not
//! exist. The binary itself only parses flags and calls [`run`].

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
    /// Executes the subcommand.
    pub run: fn(RunOptions) -> Result<(), String>,
}

/// Every subcommand of the `reproduce` binary, in `all`-sweep order.
pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "table1",
        args: "",
        about: "vulnerability database by security consequence",
        run: |_| print_ok(experiments::table1()),
    },
    Subcommand {
        name: "table2",
        args: "",
        about: "vulnerability database by intrusion technique",
        run: |_| print_ok(experiments::table2()),
    },
    Subcommand {
        name: "table3",
        args: "",
        about: "vulnerability database by environment dependency",
        run: |_| print_ok(experiments::table3()),
    },
    Subcommand {
        name: "table4",
        args: "",
        about: "environment-object attributes the faults perturb",
        run: |_| print_ok(experiments::table4()),
    },
    Subcommand {
        name: "table5",
        args: "",
        about: "direct fault-injection operators",
        run: |_| print_ok(experiments::table5()),
    },
    Subcommand {
        name: "table6",
        args: "",
        about: "indirect fault-injection operators",
        run: |_| print_ok(experiments::table6()),
    },
    Subcommand {
        name: "figure1",
        args: "",
        about: "fault/failure model of the paper's Figure 1",
        run: |_| print_ok(experiments::figure1().render()),
    },
    Subcommand {
        name: "figure2",
        args: "",
        about: "adequacy regions of the paper's Figure 2",
        run: |_| print_ok(experiments::figure2().render()),
    },
    Subcommand {
        name: "lpr",
        args: "",
        about: "§3.4 lpr spool-file case study",
        run: |_| print_ok(experiments::lpr_34().render()),
    },
    Subcommand {
        name: "turnin",
        args: "",
        about: "§4.1 turnin case study (flawed vs fixed)",
        run: |_| print_ok(experiments::turnin_41().render()),
    },
    Subcommand {
        name: "registry",
        args: "",
        about: "§4.2 registry/profile case studies",
        run: |_| print_ok(experiments::registry_42().render()),
    },
    Subcommand {
        name: "comparison",
        args: "",
        about: "perturbation vs ava/fuzz baseline comparison",
        run: |_| print_ok(experiments::comparison().render()),
    },
    Subcommand {
        name: "placement",
        args: "",
        about: "EAI-site placement sensitivity ablation",
        run: |_| print_ok(experiments::placement().render()),
    },
    Subcommand {
        name: "patterns",
        args: "",
        about: "cross-application vulnerability patterns",
        run: |_| print_ok(experiments::patterns().render()),
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

/// Prints a pre-rendered experiment and succeeds.
#[allow(clippy::unnecessary_wraps)]
fn print_ok(text: String) -> Result<(), String> {
    print!("{text}");
    Ok(())
}

/// Where machine-readable artifacts land: the workspace root, next to
/// `SUITE_report.json`.
pub fn workspace_artifact(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// Serializes `value` to `name` at the workspace root when `--json` is on.
fn write_artifact<T: serde::Serialize>(json: bool, name: &str, value: &T) -> Result<(), String> {
    if !json {
        return Ok(());
    }
    let path = workspace_artifact(name);
    let text = serde_json::to_string_pretty(value).map_err(|e| format!("serializing {name}: {e}"))?;
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run_suite(opts: RunOptions) -> Result<(), String> {
    // A persistent store (from `--store` or `EPA_CACHE_DIR`) turns the
    // suite into a warm-replayable run: every executed digest is written
    // through, and the lockfile manifest pins the plan's store keys.
    // Validation failures warn and fall back to in-memory memoization —
    // they never fail the experiment (the `EPA_WORKERS` contract).
    let resolution = epa_core::store::resolve_store_dir_env(opts.store.as_deref());
    if let Some(refusal) = &resolution.refusal {
        eprintln!("reproduce: {refusal}; falling back to in-memory memoization");
    }
    let persistent = resolution
        .dir
        .and_then(|dir| match epa_core::engine::ResultCache::persistent(&dir) {
            Ok(cache) => Some((dir, cache)),
            Err(e) => {
                eprintln!(
                    "reproduce: store at {}: {e}; falling back to in-memory memoization",
                    dir.display()
                );
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
            println!(
                "store: {} ({} warm replays from disk this run)",
                dir.display(),
                stats.store_hits
            );
            println!("manifest: {} ({} store keys)", path.display(), manifest.store_keys());
            report
        }
        None => experiments::suite(),
    };
    print!("{}", report.render_text());
    // Roll the verdict stream up by vulnerability class: each verdict's
    // policy family crossed with its fault's EAI category, classified
    // against the epa-vulndb taxonomy.
    print!(
        "{}",
        epa_vulndb::render_class_rollup(&epa_vulndb::suite_class_rollup(&report))
    );
    write_artifact(opts.json, "SUITE_report.json", &report)
}

/// The `store` subcommand: maintenance operations on a persistent result
/// store. Without a configured directory every operation is a no-op with a
/// note (so the `all` sweep stays green on machines without a store); so is
/// one whose `EPA_CACHE_DIR` is refused, after a warning. An explicit
/// `--store` that is refused fails the operation.
fn run_store(opts: RunOptions) -> Result<(), String> {
    use epa_core::store::{DiskStore, PruneOptions, SuiteManifest};
    let op = opts.store_op.as_deref().unwrap_or("stats");
    let resolution = epa_core::store::resolve_store_dir_env(opts.store.as_deref());
    if let Some(refusal) = &resolution.refusal {
        if opts.store.as_deref().is_some_and(|s| !s.trim().is_empty()) {
            return Err(format!("store {op}: --store refused: {refusal}"));
        }
        eprintln!("reproduce: {refusal}; falling back to in-memory memoization");
    }
    let Some(dir) = resolution.dir else {
        println!("store: no store directory configured (pass --store DIR or set EPA_CACHE_DIR); nothing to {op}");
        return Ok(());
    };
    let store = DiskStore::open(&dir).map_err(|e| format!("store: {e}"))?;
    match op {
        "stats" => {
            let stats = store.stats();
            println!("store: {}", dir.display());
            println!(
                "  entries: {}   bytes: {}   segments: {}   quarantined segments: {}",
                stats.entries, stats.bytes, stats.segments, stats.quarantined_segments
            );
            match SuiteManifest::load_from(&dir).map_err(|e| format!("store: {e}"))? {
                Some(manifest) => println!(
                    "  manifest: {} application(s), {} store keys",
                    manifest.apps.len(),
                    manifest.store_keys()
                ),
                None => println!("  manifest: none (run `suite --store {}` to write one)", dir.display()),
            }
            Ok(())
        }
        "prune" => {
            // Defaults: keep 4096 entries, expire after 30 days unused.
            let options = PruneOptions {
                max_entries: Some(opts.count.unwrap_or(4096)),
                ttl: Some(std::time::Duration::from_secs(opts.ttl.unwrap_or(30 * 24 * 60 * 60))),
            };
            let report = store.prune(options);
            println!(
                "store: pruned {} — examined {}, expired {}, evicted {}, remaining {}",
                dir.display(),
                report.examined,
                report.expired,
                report.evicted,
                report.remaining
            );
            Ok(())
        }
        "verify" => {
            let report = store.verify();
            println!(
                "store: verify {} — {} entr{} ok, {} corrupt, {} quarantined segment(s)",
                dir.display(),
                report.ok,
                if report.ok == 1 { "y" } else { "ies" },
                report.corrupt.len(),
                report.quarantined.len()
            );
            for line in &report.corrupt {
                println!("  corrupt: {line}");
            }
            for segment in &report.quarantined {
                println!("  quarantined: {segment}");
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
                    println!(
                        "  manifest: {} key(s) present, {} missing",
                        check.present,
                        check.missing.len()
                    );
                    for (app, digest) in &check.missing {
                        println!("  missing: {app} {digest}");
                    }
                    if !check.is_complete() {
                        failures.push(format!(
                            "{} manifest key(s) missing from the store",
                            check.missing.len()
                        ));
                    }
                }
                None => println!("  manifest: none"),
            }
            if failures.is_empty() {
                Ok(())
            } else {
                Err(format!("store: verify failed: {}", failures.join("; ")))
            }
        }
        other => Err(format!(
            "store: unknown operation `{other}` (expected stats, prune or verify)"
        )),
    }
}

fn run_corpus(opts: RunOptions) -> Result<(), String> {
    let seed = opts.seed.unwrap_or(epa_core::corpus::DEFAULT_CORPUS_SEED);
    let count = opts.count.unwrap_or(120);
    let report = experiments::corpus(seed, count);
    print!("{}", report.render_text());
    write_artifact(opts.json, "CORPUS_report.json", &report)?;
    if report.divergences > 0 {
        return Err(format!(
            "corpus: {} scenario(s) diverged across execution paths (seeds are in the dashboard above)",
            report.divergences
        ));
    }
    Ok(())
}

fn run_lint(opts: RunOptions) -> Result<(), String> {
    let summaries = experiments::lint();
    for summary in &summaries {
        print!("{}", summary.render());
    }
    let errors: usize = summaries
        .iter()
        .map(|s| s.report.count(epa_core::Severity::Error))
        .sum();
    let warnings: usize = summaries
        .iter()
        .map(|s| s.report.count(epa_core::Severity::Warning))
        .sum();
    println!(
        "lint: {} world(s), {errors} error(s), {warnings} warning(s)",
        summaries.len()
    );
    write_artifact(opts.json, "LINT_report.json", &summaries)?;
    if errors > 0 {
        return Err(format!("lint: {errors} error-severity diagnostic(s)"));
    }
    Ok(())
}

#[allow(clippy::unnecessary_wraps)]
fn run_clean(_opts: RunOptions) -> Result<(), String> {
    println!("Clean-run baseline (violations in unperturbed runs):");
    for (app, n) in experiments::clean_baseline() {
        println!("  {app:<16} {n}");
    }
    Ok(())
}

/// Looks a subcommand up by name.
pub fn find(name: &str) -> Option<&'static Subcommand> {
    SUBCOMMANDS.iter().find(|s| s.name == name)
}

/// Runs one subcommand by name (`Err` for unknown names or failures).
pub fn run(name: &str, opts: RunOptions) -> Result<(), String> {
    let sub = find(name).ok_or_else(|| format!("unknown experiment `{name}`"))?;
    (sub.run)(opts)?;
    println!();
    Ok(())
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
        assert_eq!(run("store", vacuous), Ok(()));
        let dir = std::env::temp_dir().join(format!("epa-cli-store-{}", std::process::id()));
        let bad = RunOptions {
            store: Some(dir.to_string_lossy().to_string()),
            store_op: Some("defragment".to_string()),
            ..RunOptions::default()
        };
        let err = run("store", bad).unwrap_err();
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
            let err = run("store", refused).unwrap_err();
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
        let err = run("no-such-experiment", RunOptions::default()).unwrap_err();
        assert!(err.contains("unknown experiment"), "{err}");
    }
}
