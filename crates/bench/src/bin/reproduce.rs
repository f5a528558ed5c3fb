//! `reproduce` — regenerate any table, figure or case study of the paper.
//!
//! ```text
//! cargo run -p epa-bench --bin reproduce -- all
//! cargo run -p epa-bench --bin reproduce -- table1 turnin figure2
//! cargo run -p epa-bench --bin reproduce -- suite --json   # + SUITE_report.json
//! cargo run -p epa-bench --bin reproduce -- suite --store .epa-store   # warm-replayable
//! cargo run -p epa-bench --bin reproduce -- store verify --store .epa-store
//! cargo run -p epa-bench --bin reproduce -- corpus --json --seed 7 --count 32
//! cargo run -p epa-bench --bin reproduce -- lint --json    # + LINT_report.json
//! ```
//!
//! `EPA_CACHE_DIR` configures the persistent result store when `--store`
//! is absent (the same flag-beats-environment contract as `EPA_WORKERS`).
//!
//! The subcommand table (names, flags, descriptions, dispatch) lives in
//! [`epa_bench::cli`]; this binary only parses arguments.

use epa_bench::cli::{self, Output, RunOptions};

/// Parses a `--flag value` pair out of `args`, removing both tokens.
/// Accepts decimal or `0x`-prefixed hex values.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<u64>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let raw = args.remove(pos + 1);
    args.remove(pos);
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse::<u64>(),
    };
    parsed.map(Some).map_err(|_| format!("{flag}: `{raw}` is not a number"))
}

/// Parses a `--flag value` pair whose value is arbitrary text (a path),
/// removing both tokens.
fn take_string_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let raw = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(raw))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = (|| {
        Ok::<_, String>((
            take_value(&mut args, "--seed")?,
            take_value(&mut args, "--count")?,
            take_value(&mut args, "--ttl")?,
            take_string_value(&mut args, "--store")?,
        ))
    })();
    let (seed, count, ttl, store) = match parsed {
        Ok(values) => values,
        Err(e) => {
            eprintln!("reproduce: {e}");
            std::process::exit(2);
        }
    };
    let json = args.iter().any(|a| a == "--json");
    let mut opts = RunOptions {
        json,
        seed,
        count: count.map(|c| c as usize),
        store,
        store_op: None,
        ttl,
    };
    // Standard output goes through one writer: a reader that closes
    // early (`reproduce all | head -1`) ends the output quietly, and no
    // later subcommand runs.
    let mut stdout = std::io::stdout();
    let mut out = Output::new(&mut stdout);
    if args.iter().any(|a| a == "--help" || a == "-h" || a == "help") {
        let printed = write!(out, "{}", cli::usage()).and_then(|()| out.flush());
        if let Err(e) = printed {
            eprintln!("reproduce: {e}");
            std::process::exit(2);
        }
        return;
    }
    let mut names: Vec<String> = args.into_iter().filter(|a| a != "--json").collect();
    // The `store` subcommand takes a positional operation; capture it here
    // so the dispatch loop below stays one-name-per-subcommand. Any word
    // that names no subcommand is the operation, so `store` itself rejects
    // a misspelt one before doing anything.
    if let Some(pos) = names.iter().position(|n| n == "store") {
        if let Some(op) = names.get(pos + 1) {
            if op != "all" && cli::find(op).is_none() {
                opts.store_op = Some(names.remove(pos + 1));
            }
        }
    }
    let selected: Vec<&str> = if names.is_empty() || names.iter().any(|n| n == "all") {
        cli::SUBCOMMANDS.iter().map(|s| s.name).collect()
    } else {
        names.iter().map(String::as_str).collect()
    };
    let mut failed = false;
    for name in selected {
        if out.is_closed() {
            break;
        }
        if let Err(e) = cli::run(name, opts.clone(), &mut out) {
            eprintln!("reproduce: {e}");
            // The table helps with a name it does not list, not with a
            // subcommand that ran and failed.
            if cli::find(name).is_none() {
                eprint!("{}", cli::usage());
            }
            failed = true;
        }
    }
    if let Err(e) = out.flush() {
        eprintln!("reproduce: {e}");
        failed = true;
    }
    if failed {
        std::process::exit(2);
    }
}
