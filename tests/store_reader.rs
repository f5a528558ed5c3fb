//! The store's one-pass record reader against a reference decode.
//!
//! `decode_entry` reads exactly the line `encode_entry` writes and calls
//! anything else damage. This suite keeps the general decode it replaced
//! (the version and checksum checks, then `serde_json` into the record's
//! fields) as the reference, and checks on every record of the committed
//! v3 fixture and of a store the standard suite writes, and on generated
//! digests:
//!
//! * the reader and the reference decode a record alike, and the decoded
//!   record re-encodes to the same bytes;
//! * every proper prefix of a record, and every single-byte substitution
//!   with its checksum recomputed, either fails or decodes as the
//!   reference decodes it: the reader never accepts what the general
//!   decode would read otherwise, and never panics.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Deserialize;

use epa::apps::standard_suite;
use epa::core::engine::planner::fnv1a;
use epa::core::engine::{FaultKey, ResultCache, RunDigest};
use epa::core::store::{decode_entry, encode_entry, DecodedEntry, EntryError, STORE_FORMAT_VERSION};
use epa::sandbox::policy::{Evidence, EvidenceItem, Verdict, Violation, ViolationKind};

/// A record body as the general decode reads it.
#[derive(Deserialize)]
struct ReferenceBody {
    scope: String,
    key: String,
    digest: RunDigest,
}

/// The general decode: version tag, checksum, then `serde_json`. `None`
/// for anything it rejects.
fn reference(line: &str) -> Option<DecodedEntry> {
    let mut parts = line.strip_suffix('\n').unwrap_or(line).splitn(3, ' ');
    let version = parts.next()?.strip_prefix('v')?.parse::<u32>().ok()?;
    let (checksum, body) = (parts.next()?, parts.next()?);
    if version != STORE_FORMAT_VERSION || u64::from_str_radix(checksum, 16) != Ok(fnv1a(body.as_bytes())) {
        return None;
    }
    let parsed: ReferenceBody = serde_json::from_str(body).ok()?;
    Some(DecodedEntry {
        scope: u64::from_str_radix(&parsed.scope, 16).ok()?,
        key: parsed.key,
        digest: parsed.digest,
    })
}

/// The line with `body` in place of its body, and the checksum to match.
fn with_body(body: &[u8]) -> Option<String> {
    let body = std::str::from_utf8(body).ok()?;
    Some(format!(
        "v{STORE_FORMAT_VERSION} {:016x} {body}\n",
        fnv1a(body.as_bytes())
    ))
}

/// Damaged text either fails or decodes as the reference decodes it.
fn assert_no_more_lenient(line: &str, what: &str) {
    if let Ok(read) = decode_entry(line) {
        assert_eq!(Some(read), reference(line), "{what}: {line:?}");
    }
}

/// Bytes a substitution writes: JSON structure, digits, escape letters,
/// control characters and a byte that cannot start a character.
const SUBSTITUTES: &[u8] = b"\"\\{}[],:-0179aefnuxtb \x00\x01\x08\x0c\x1f\x7f";

/// Checks one record line, and every prefix and substitution of it. With
/// `every_substitute`, each position takes every byte of [`SUBSTITUTES`];
/// otherwise one, rotating with the position.
fn check_record(line: &str, every_substitute: bool) {
    let read = decode_entry(line).unwrap_or_else(|e| panic!("{e}: {line:?}"));
    assert_eq!(
        Some(&read),
        reference(line).as_ref(),
        "the reader and the reference differ"
    );
    let again = encode_entry(read.scope, &FaultKey::synthetic(&read.key), &read.digest);
    assert_eq!(again, line, "a decoded record re-encodes byte-identically");

    for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
        assert_no_more_lenient(&line[..end], "a prefix");
    }
    let body_at = line.match_indices(' ').nth(1).expect("a record has a body").0 + 1;
    let body = line.trim_end_matches('\n').as_bytes()[body_at..].to_vec();
    for at in 0..body.len() {
        let rotated = [SUBSTITUTES[at % SUBSTITUTES.len()]];
        let substitutes = if every_substitute { SUBSTITUTES } else { &rotated };
        for &byte in substitutes.iter().filter(|&&byte| byte != body[at]) {
            let mut damaged = body.clone();
            damaged[at] = byte;
            if let Some(damaged) = with_body(&damaged) {
                assert_no_more_lenient(&damaged, "a substitution");
            }
        }
    }
}

/// The record lines of every segment under `store`, sorted and distinct.
fn records(store: &Path) -> BTreeSet<String> {
    let mut records = BTreeSet::new();
    let segments = store.join(format!("v{STORE_FORMAT_VERSION}"));
    for entry in std::fs::read_dir(&segments).expect("the segments list") {
        let text = std::fs::read_to_string(entry.expect("a segment entry reads").path()).expect("a segment reads");
        records.extend(text.lines().skip(1).map(|line| format!("{line}\n")));
    }
    records
}

/// Checks every record: each kind's first record against every
/// substitute, the others against one substitute per position.
fn check_records(records: &BTreeSet<String>) {
    let mut first_of_kind = BTreeSet::new();
    for line in records {
        let kinds = decode_entry(line).map(|r| r.digest.violations.iter().map(|v| v.kind).collect::<Vec<_>>());
        let novel = kinds
            .unwrap_or_default()
            .into_iter()
            .any(|kind| first_of_kind.insert(kind));
        check_record(line, novel);
    }
}

#[test]
fn the_reader_reads_the_committed_fixture_as_the_reference_does() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store-v3");
    let records = records(&fixture);
    assert_eq!(records.len(), 245, "the fixture holds the standard suite's records");
    check_records(&records);
}

#[test]
fn the_reader_reads_a_fresh_standard_suite_store_as_the_reference_does() {
    let dir: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("test-store-reader-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::persistent(&dir).expect("a fresh store opens");
    let report = standard_suite()
        .expect("the standard suite builds")
        .with_result_cache(cache)
        .execute();
    assert_eq!(report.total_runs_executed(), 245);
    drop(report);
    let records = records(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(records.len(), 245, "one record per run");
    check_records(&records);
}

/// Text drawn from characters the writer must escape, and some it need not.
fn text(rng: &mut StdRng) -> String {
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '/', '{', '}', '[', ']', ':', ',', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}',
        '\u{1}', '\u{1f}', '\u{7f}', 'é', 'ß', '→', '😀',
    ];
    let len = rng.gen_range(0..12usize);
    (0..len).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect()
}

/// A digest with every field varied: negative, zero and missing exits,
/// crash text, and zero to three verdicts of zero to three evidence items.
fn digest(rng: &mut StdRng) -> RunDigest {
    let exits = [
        None,
        Some(0),
        Some(1),
        Some(-1),
        Some(i32::MIN),
        Some(i32::MAX),
        Some(-42),
    ];
    let verdicts = rng.gen_range(0..4usize);
    RunDigest {
        applied: rng.gen_range(0..2u32) == 1,
        exit: exits[rng.gen_range(0..exits.len())],
        crashed: (rng.gen_range(0..2u32) == 1).then(|| text(rng)),
        audit_events: [0, 1, 9, 10, 4096, usize::MAX][rng.gen_range(0..6usize)],
        violations: (0..verdicts)
            .map(|_| {
                let kind = ViolationKind::ALL[rng.gen_range(0..ViolationKind::ALL.len())];
                let violation = Violation::new(kind, text(rng), text(rng), rng.gen_range(0..1000usize));
                let items = (0..rng.gen_range(0..4usize))
                    .map(|_| EvidenceItem {
                        index: rng.gen_range(0..1000usize),
                        summary: text(rng),
                    })
                    .collect();
                Verdict::new(violation, text(rng), Evidence { items })
            })
            .collect(),
    }
}

#[test]
fn generated_digests_round_trip_through_the_reader() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for n in 0..160u64 {
        let scope = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let key = FaultKey::synthetic(&text(&mut rng));
        let digest = digest(&mut rng);
        let line = encode_entry(scope, &key, &digest);
        let read = decode_entry(&line).unwrap_or_else(|e| panic!("{e}: {line:?}"));
        assert_eq!(
            (read.scope, read.key.as_str(), &read.digest),
            (scope, key.repr(), &digest)
        );
        check_record(&line, n < 8);
    }
}

#[test]
fn every_violation_kind_reads_by_the_name_its_serializer_writes() {
    for kind in ViolationKind::ALL {
        let wire = serde_json::to_string(&kind).expect("a kind serializes");
        assert_eq!(wire, format!("\"{kind:?}\""), "{kind} is written by its variant name");
        let violation = Violation::new(kind, "rule", "description", 0);
        let digest = RunDigest {
            applied: true,
            exit: Some(0),
            crashed: None,
            audit_events: 1,
            violations: vec![Verdict::new(violation, "detector", Evidence::none())],
        };
        let line = encode_entry(7, &FaultKey::synthetic("k"), &digest);
        assert!(line.contains(&format!("\"kind\":{wire}")), "{line}");
        let read = decode_entry(&line).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(read.digest, digest, "{kind} reads back");
    }
}

#[test]
fn escapes_the_writer_never_emits_still_read_as_json() {
    // `\b`, `\f`, `\/` and `\u` escapes of any character are JSON; the
    // writer spells U+0008 and U+000C as `\u0008` and `\u000c`.
    let line = encode_entry(
        1,
        &FaultKey::synthetic("\u{8}\u{c}/A"),
        &RunDigest {
            applied: false,
            exit: None,
            crashed: None,
            audit_events: 0,
            violations: Vec::new(),
        },
    );
    assert!(line.contains(r#""key":"\u0008\u000c/A""#), "{line}");
    let body_at = line.match_indices(' ').nth(1).expect("a body").0 + 1;
    let body = line.trim_end()[body_at..].replace(r"\u0008\u000c/A", r"\b\f\/A");
    let respelled = with_body(body.as_bytes()).expect("UTF-8");
    assert_eq!(decode_entry(&respelled).expect("reads").key, "\u{8}\u{c}/A");
    assert_eq!(decode_entry(&respelled).ok(), reference(&respelled));
    // A surrogate escape is no character: damage, not a replacement.
    let surrogate = with_body(body.replace(r"A", r"\ud800").as_bytes()).expect("UTF-8");
    assert!(decode_entry(&surrogate).is_err());
}

#[test]
fn another_spelling_of_a_record_is_damage_though_it_is_json() {
    // Every current-version line comes from `encode_entry`, so a record
    // spelled any other way was not written by the store: it misses.
    let digest = RunDigest {
        applied: true,
        exit: Some(0),
        crashed: None,
        audit_events: 3,
        violations: Vec::new(),
    };
    let line = encode_entry(2, &FaultKey::synthetic("k"), &digest);
    let body_at = line.match_indices(' ').nth(1).expect("a body").0 + 1;
    let body = &line.trim_end()[body_at..];
    let spaced = body.replacen("\"exit\":", "\"exit\": ", 1);
    let reordered = body.replacen("\"applied\":true,\"exit\":0", "\"exit\":0,\"applied\":true", 1);
    for respelled in [spaced, reordered] {
        let respelled = with_body(respelled.as_bytes()).expect("UTF-8");
        assert_eq!(
            reference(&respelled).map(|r| r.digest),
            Some(digest.clone()),
            "still JSON of the record: {respelled}"
        );
        assert!(
            matches!(decode_entry(&respelled), Err(EntryError::Malformed(_))),
            "{respelled}"
        );
    }
}
