//! The persistent content-addressed [`ResultStore`] backend.
//!
//! # On-disk layout
//!
//! ```text
//! <root>/
//!   HEADER                  "epa-result-store v3"
//!   MANIFEST.json           lockfile-style suite manifest (optional)
//!   v3/
//!     <scope:016x>.seg      one segment per (application, fingerprint)
//! ```
//!
//! # Segment wire format
//!
//! A header line, then one record per line, sorted by key: version, body
//! checksum, body.
//!
//! ```text
//! epa-store-segment v3 scope=<scope:016x>
//! v3 <fnv1a(body):016x> {"scope":"<scope:016x>","key":"<canonical FaultKey text>","digest":{...}}
//! ```
//!
//! v3 keeps v2's layout and records; only the scopes differ, because
//! [`crate::campaign::TestSetup::fingerprint`] became a structural hash.
//! [`DiskStore::open`] upgrades any older store in place.
//!
//! A body is read in one pass by a reader of exactly the line
//! [`encode_entry`] writes: its fields in declaration order, no
//! whitespace, JSON string escapes. A segment's UTF-8 is checked once
//! (line by line only when that fails). Any other spelling, even valid
//! JSON of the same record, is damage: its key misses and the run
//! happens again. That is sound because every current-version record
//! comes from `encode_entry` (the writer keeps a valid line as it read
//! it) and `open` drops older versions' records instead of converting
//! them.
//!
//! Records are looked up by their **full canonical key text**, so a 64-bit
//! key-digest collision can never replay the wrong run. A [`DiskStore`]
//! handle reads a segment once, on the first load or save of its scope.
//! A record failing its checksum, of a foreign version, or malformed is
//! logged and ignored (its key misses); the first valid record of a key
//! wins. A symbolic link where a segment belongs is never followed: the
//! handle quarantines that segment, and warns once.
//!
//! Every write goes through one segment writer: under the segment's
//! advisory lock it reads the segment, keeps each valid, distinct line as
//! read, adds the new records (a key already present keeps its first
//! record), and installs the header and the lines, sorted by key, from
//! one temp file renamed into place. [`ResultStore::save`] is that writer
//! with one record, so a record is on disk when `save` returns;
//! [`ResultStore::save_all`] writes a whole campaign's runs in one call,
//! and [`DiskStore::prune`] compacts through it with none. No reader ever
//! sees a partial segment, equal records give equal bytes, and a crash
//! loses only what had not been saved yet: those runs execute again.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{self, Read, Write};
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use epa_sandbox::policy::{Evidence, EvidenceItem, Verdict, Violation, ViolationKind};
use serde::Serialize;
use shim_sync::sync::atomic::{AtomicU64, Ordering};
use shim_sync::sync::{Arc, Mutex, PoisonError};

use crate::engine::planner::{fnv1a, FaultKey, RunDigest};
use crate::store::ResultStore;

/// Version of the on-disk record format (the store header, segment
/// headers and every record carry it). Bump on any incompatible change,
/// including a change to the scopes records are filed under; readers treat
/// foreign versions as misses, never as parseable data.
pub const STORE_FORMAT_VERSION: u32 = 3;

/// The store-root header file name.
const STORE_HEADER_FILE: &str = "HEADER";

/// The store-root header content.
fn store_header() -> String {
    format!("epa-result-store v{STORE_FORMAT_VERSION}\n")
}

/// Writes `text` to a transient `.epa-*` file beside `path` and renames it
/// over `path`, so no reader sees a partial file and a link at `path` is
/// replaced, never followed. Keeps `mtime` if given.
///
/// # Errors
///
/// Whatever creating, writing or renaming the transient file fails with;
/// the transient file is removed then, and `path` is left as it was.
pub fn install(path: &Path, text: &str, mtime: Option<SystemTime>) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".epa-{name}-{}-{n}.tmp", std::process::id()));
    // A new file only: a link planted at the predictable name is refused,
    // never followed and truncated.
    let created = std::fs::File::options().write(true).create_new(true).open(&tmp);
    let written = created.and_then(|mut file| {
        file.write_all(text.as_bytes())?;
        mtime.map_or(Ok(()), |t| file.set_modified(t))
    });
    let renamed = written.and_then(|()| std::fs::rename(&tmp, path));
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed
}

/// Opens `path` with `options`, refusing a symbolic link there, dangling or
/// not: the store never follows a link out of its root. The check runs
/// after the open, so it also sees a link planted just before it. Pair it
/// with `create_new` to create a file: plain `create` would already have
/// created the link's target.
fn open_unlinked(path: &Path, options: &std::fs::OpenOptions) -> io::Result<std::fs::File> {
    let opened = options.open(path);
    if std::fs::symlink_metadata(path).is_ok_and(|named| named.file_type().is_symlink()) {
        return Err(io::Error::other("a symbolic link, which the store does not follow"));
    }
    opened
}

/// Reads the segment file at `path` whole, refusing a link there. `touch`
/// first refreshes its timestamp (best-effort), for the LRU.
fn read_segment_file(path: &Path, touch: bool) -> io::Result<Vec<u8>> {
    let mut file = open_unlinked(path, std::fs::File::options().read(true))?;
    if touch {
        let _ = file.set_modified(SystemTime::now());
    }
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map(|_| bytes)
}

/// Opens the segment at `path` (creating it empty if asked) under an
/// exclusive advisory lock, held until the file closes. If another writer
/// replaced the file before the lock was granted, the lock is retaken on
/// the file `path` names now, so no write is lost. A link at `path` is
/// refused.
fn lock_segment(path: &Path, create: bool) -> io::Result<std::fs::File> {
    let mut options = std::fs::File::options();
    options.read(true).write(true);
    loop {
        let file = match open_unlinked(path, &options) {
            Err(e) if create && e.kind() == io::ErrorKind::NotFound => {
                match open_unlinked(path, options.clone().create_new(true)) {
                    // Another writer created it first: open theirs.
                    Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                    created => created?,
                }
            }
            opened => opened?,
        };
        file.lock()?;
        let held = file.metadata()?;
        let named = std::fs::symlink_metadata(path);
        if named.is_ok_and(|named| (named.dev(), named.ino()) == (held.dev(), held.ino())) {
            return Ok(file);
        }
    }
}

/// The first line of `scope`'s segment.
fn segment_header(scope: u64) -> String {
    format!("epa-store-segment v{STORE_FORMAT_VERSION} scope={scope:016x}\n")
}

/// The serialized body of one record. `scope` is hex text (JSON numbers
/// are f64-lossy above 2^53; a fingerprint is a full 64-bit hash).
/// Written only: [`decode_entry`] reads it back with [`BodyReader`].
#[derive(Serialize)]
struct EntryBody {
    scope: String,
    key: String,
    digest: RunDigest,
}

/// A parsed store record, as returned by [`decode_entry`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedEntry {
    /// The memoization scope the record belongs to.
    pub scope: u64,
    /// The canonical [`FaultKey`] text.
    pub key: String,
    /// The memoized run outcome.
    pub digest: RunDigest,
}

/// Why a record failed to decode. Every variant is handled as a cache
/// miss by [`DiskStore::load`]; the distinction matters for logging and
/// for [`DiskStore::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryError {
    /// The record was written by a different format version.
    Version {
        /// The version tag actually found.
        found: String,
    },
    /// The body fails its checksum: a torn or bit-flipped record.
    Checksum,
    /// The record is structurally unparseable.
    Malformed(String),
}

impl std::fmt::Display for EntryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntryError::Version { found } => {
                write!(f, "version mismatch (found `{found}`, want `v{STORE_FORMAT_VERSION}`)")
            }
            EntryError::Checksum => write!(f, "checksum mismatch (torn or corrupted record)"),
            EntryError::Malformed(why) => write!(f, "malformed record: {why}"),
        }
    }
}

/// Serializes one `(scope, key, digest)` record into one segment line,
/// newline included. Deterministic: equal inputs give identical text.
pub fn encode_entry(scope: u64, key: &FaultKey, digest: &RunDigest) -> String {
    let body = serde_json::to_string(&EntryBody {
        scope: format!("{scope:016x}"),
        key: key.repr().to_string(),
        digest: digest.clone(),
    })
    .expect("store entries serialize infallibly");
    format!("v{STORE_FORMAT_VERSION} {:016x} {body}\n", fnv1a(body.as_bytes()))
}

/// Parses one record line (its newline optional) back into its record,
/// verifying the version tag and the body checksum.
///
/// # Errors
///
/// [`EntryError::Version`] on a foreign format version,
/// [`EntryError::Checksum`] when the body fails its checksum, and
/// [`EntryError::Malformed`] for structural damage.
pub fn decode_entry(text: &str) -> Result<DecodedEntry, EntryError> {
    let mut parts = text.strip_suffix('\n').unwrap_or(text).splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    match version.strip_prefix('v').map(str::parse::<u32>) {
        Some(Ok(STORE_FORMAT_VERSION)) => {}
        Some(Ok(_)) => return Err(EntryError::Version { found: version.into() }),
        _ => return Err(EntryError::Malformed("unrecognized record prefix".to_string())),
    }
    let (Some(checksum), Some(body)) = (parts.next(), parts.next()) else {
        return Err(EntryError::Malformed("missing checksum or body".to_string()));
    };
    if u64::from_str_radix(checksum, 16) != Ok(fnv1a(body.as_bytes())) {
        return Err(EntryError::Checksum);
    }
    BodyReader { body, pos: 0 }.entry()
}

/// A one-pass reader of exactly the body [`encode_entry`] writes; anything
/// else is [`EntryError::Malformed`] (the module docs say why that is
/// sound).
struct BodyReader<'a> {
    body: &'a str,
    /// The byte the next read starts at.
    pos: usize,
}

impl BodyReader<'_> {
    fn entry(mut self) -> Result<DecodedEntry, EntryError> {
        self.eat("{\"scope\":\"")?;
        let scope = self.scope()?;
        self.eat("\",\"key\":")?;
        let key = self.string()?;
        self.eat(",\"digest\":{\"applied\":")?;
        let applied = self.bool()?;
        self.eat(",\"exit\":")?;
        let exit = self.nullable(Self::i32)?;
        self.eat(",\"crashed\":")?;
        let crashed = self.nullable(Self::string)?;
        self.eat(",\"audit_events\":")?;
        let audit_events = self.usize()?;
        self.eat(",\"violations\":")?;
        let violations = self.seq(Self::verdict)?;
        self.eat("}}")?;
        if self.pos != self.body.len() {
            return self.fail("the end of the body");
        }
        let digest = RunDigest {
            applied,
            exit,
            crashed,
            audit_events,
            violations,
        };
        Ok(DecodedEntry { scope, key, digest })
    }

    fn verdict(&mut self) -> Result<Verdict, EntryError> {
        self.eat("{\"violation\":{\"kind\":")?;
        let kind = self.kind()?;
        self.eat(",\"rule\":")?;
        let rule = self.string()?;
        self.eat(",\"description\":")?;
        let description = self.string()?;
        self.eat(",\"event_index\":")?;
        let event_index = self.usize()?;
        self.eat("},\"detector\":")?;
        let detector = self.string()?;
        self.eat(",\"evidence\":{\"items\":")?;
        let items = self.seq(|r| {
            r.eat("{\"index\":")?;
            let index = r.usize()?;
            r.eat(",\"summary\":")?;
            let summary = r.string()?;
            r.eat("}")?;
            Ok(EvidenceItem { index, summary })
        })?;
        self.eat("}}")?;
        let violation = Violation::new(kind, rule, description, event_index);
        Ok(Verdict::new(violation, detector, Evidence { items }))
    }

    /// The damage at the current byte.
    fn fail<T>(&self, expected: &str) -> Result<T, EntryError> {
        Err(EntryError::Malformed(format!(
            "body does not parse: expected {expected} at byte {}",
            self.pos
        )))
    }

    /// The unread bytes.
    fn rest(&self) -> &[u8] {
        &self.body.as_bytes()[self.pos..]
    }

    /// Consumes `text` if the body continues with it.
    fn take(&mut self, text: &str) -> bool {
        let found = self.rest().starts_with(text.as_bytes());
        if found {
            self.pos += text.len();
        }
        found
    }

    /// Consumes `text`, which the body must continue with.
    fn eat(&mut self, text: &str) -> Result<(), EntryError> {
        if self.take(text) {
            Ok(())
        } else {
            self.fail(&format!("`{text}`"))
        }
    }

    /// The scope: 16 lowercase hex digits, as `{:016x}` writes it.
    fn scope(&mut self) -> Result<u64, EntryError> {
        let digits = self.rest().get(..16).unwrap_or_default();
        let value = digits.iter().try_fold(0u64, |acc, &b| {
            let digit = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                _ => return None,
            };
            Some(acc << 4 | u64::from(digit))
        });
        match value.filter(|_| digits.len() == 16) {
            Some(scope) => {
                self.pos += 16;
                Ok(scope)
            }
            None => self.fail("a 16-digit lowercase hex scope"),
        }
    }

    fn bool(&mut self) -> Result<bool, EntryError> {
        if self.take("true") {
            Ok(true)
        } else if self.take("false") {
            Ok(false)
        } else {
            self.fail("`true` or `false`")
        }
    }

    /// `null`, or what `read` reads.
    fn nullable<T>(&mut self, read: impl FnOnce(&mut Self) -> Result<T, EntryError>) -> Result<Option<T>, EntryError> {
        if self.take("null") {
            Ok(None)
        } else {
            read(self).map(Some)
        }
    }

    /// A JSON array of what `item` reads.
    fn seq<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T, EntryError>) -> Result<Vec<T>, EntryError> {
        self.eat("[")?;
        let mut items = Vec::new();
        if self.take("]") {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.take("]") {
                return Ok(items);
            }
            self.eat(",")?;
        }
    }

    /// A natural number: `0`, or digits without a leading zero.
    fn natural(&mut self) -> Result<u64, EntryError> {
        let digits = self.rest().iter().take_while(|b| b.is_ascii_digit()).count();
        let text = &self.rest()[..digits];
        let value = text
            .iter()
            .try_fold(0u64, |acc, &b| acc.checked_mul(10)?.checked_add(u64::from(b - b'0')));
        match value.filter(|_| digits == 1 || text.first().is_some_and(|&b| b != b'0')) {
            Some(n) => {
                self.pos += digits;
                Ok(n)
            }
            None => self.fail("a number"),
        }
    }

    fn usize(&mut self) -> Result<usize, EntryError> {
        let n = self.natural()?;
        usize::try_from(n).or_else(|_| self.fail("a number in range"))
    }

    fn i32(&mut self) -> Result<i32, EntryError> {
        let negative = self.take("-");
        let n = i64::try_from(self.natural()?).unwrap_or(i64::MAX);
        i32::try_from(if negative { -n } else { n }).or_else(|_| self.fail("a number in range"))
    }

    /// A violation kind, by the variant name its serializer writes.
    fn kind(&mut self) -> Result<ViolationKind, EntryError> {
        let name = self
            .rest()
            .iter()
            .skip(1)
            .take_while(|b| b.is_ascii_alphabetic())
            .count();
        let kind = match self.rest().get(..name + 2) {
            Some([b'"', name @ .., b'"']) => match name {
                b"IntegrityWrite" => ViolationKind::IntegrityWrite,
                b"IntegrityDelete" => ViolationKind::IntegrityDelete,
                b"Disclosure" => ViolationKind::Disclosure,
                b"UntrustedExec" => ViolationKind::UntrustedExec,
                b"TaintedPrivilegedOp" => ViolationKind::TaintedPrivilegedOp,
                b"SpoofedAction" => ViolationKind::SpoofedAction,
                b"MemoryCorruption" => ViolationKind::MemoryCorruption,
                b"Custom" => ViolationKind::Custom,
                _ => return self.fail("a violation kind"),
            },
            _ => return self.fail("a violation kind"),
        };
        self.pos += name + 2;
        Ok(kind)
    }

    /// A JSON string. Text without escapes is copied in one piece.
    fn string(&mut self) -> Result<String, EntryError> {
        self.eat("\"")?;
        let mut text = String::new();
        let mut start = self.pos;
        loop {
            match self.rest().first() {
                Some(b'"') => {
                    text.push_str(&self.body[start..self.pos]);
                    self.pos += 1;
                    return Ok(text);
                }
                Some(b'\\') => {
                    text.push_str(&self.body[start..self.pos]);
                    self.pos += 1;
                    text.push(self.escape()?);
                    start = self.pos;
                }
                Some(0x20..) => self.pos += 1,
                // The writer escapes every control character.
                Some(_) | None => return self.fail("a string character or `\"`"),
            }
        }
    }

    /// The character an escape stands for, past its backslash.
    fn escape(&mut self) -> Result<char, EntryError> {
        let c = match self.rest().first() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hex = self.rest().get(1..5).unwrap_or_default();
                let code = hex
                    .iter()
                    .try_fold(0u32, |acc, &b| Some(acc << 4 | char::from(b).to_digit(16)?));
                // A surrogate is no `char`: the writer never escapes one.
                match code.filter(|_| hex.len() == 4).and_then(char::from_u32) {
                    Some(c) => {
                        self.pos += 4;
                        c
                    }
                    None => return self.fail("four hex digits of a character"),
                }
            }
            _ => return self.fail("an escape"),
        };
        self.pos += 1;
        Ok(c)
    }
}

/// One segment, decoded: the first valid record of every key, and what
/// was wrong with the other lines.
#[derive(Debug, Default)]
struct Segment {
    /// The scope the segment belongs to.
    scope: u64,
    /// Key text → its first valid record's digest until a load hands it to
    /// the cache, which keeps the only copy (`None` after; or if saved here).
    records: HashMap<String, Option<RunDigest>>,
    /// Unreadable, or a missing or foreign header: loads miss, saves refused.
    quarantined: bool,
    /// Damaged records, as `(line number, reason)`.
    damaged: Vec<(usize, String)>,
}

/// The record bytes of `scope`'s segment: past its header, none for a
/// prefix of the header (a torn creation, which the next write replaces),
/// and `None` for a foreign header.
fn segment_records(scope: u64, bytes: &[u8]) -> Option<&[u8]> {
    let header = segment_header(scope);
    match bytes.strip_prefix(header.as_bytes()) {
        Some(records) => Some(records),
        None => header.as_bytes().starts_with(bytes).then_some(&[]),
    }
}

/// A segment's record lines, in file order (the first is the file's line
/// 2). The text is checked once; line by line only when that fails, so a
/// bad byte costs only its own record.
fn record_lines(records: &[u8]) -> Vec<Result<&str, EntryError>> {
    match std::str::from_utf8(records) {
        Ok(text) => text.split('\n').map(Ok).collect(),
        Err(_) => records
            .split(|&b| b == b'\n')
            .map(|line| std::str::from_utf8(line).map_err(|_| EntryError::Malformed("not UTF-8".to_string())))
            .collect(),
    }
}

/// Decodes a read of `scope`'s segment. A missing file, or a prefix of the
/// header, is an empty segment; an unreadable one, or a foreign header, is
/// quarantined.
fn decode_segment(scope: u64, read: io::Result<Vec<u8>>) -> Segment {
    let mut segment = Segment {
        scope,
        ..Segment::default()
    };
    let Ok(bytes) = read.map_err(|e| segment.quarantined = e.kind() != io::ErrorKind::NotFound) else {
        return segment;
    };
    let Some(records) = segment_records(scope, &bytes) else {
        segment.quarantined = true;
        return segment;
    };
    for (i, line) in record_lines(records).into_iter().enumerate() {
        segment.file(i + 2, line);
    }
    segment
}

impl Segment {
    /// Files line `number` of the segment: its record, unless it is damaged
    /// or of a key already filed. An empty line holds no record.
    fn file(&mut self, number: usize, line: Result<&str, EntryError>) {
        if line == Ok("") {
            return;
        }
        match line.and_then(decode_entry) {
            Ok(r) if r.scope != self.scope => self.damaged.push((number, format!("foreign scope {:016x}", r.scope))),
            Ok(r) => {
                self.records.entry(r.key).or_insert(Some(r.digest));
            }
            Err(e) => self.damaged.push((number, e.to_string())),
        }
    }
}

/// Aggregate facts about a store directory, from [`DiskStore::stats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Distinct readable entries on disk.
    pub entries: usize,
    /// Total segment bytes.
    pub bytes: u64,
    /// Segment files (one per scope).
    pub segments: usize,
    /// Segments quarantined (missing or foreign header, or unreadable).
    pub quarantined_segments: usize,
}

/// Retention policy for [`DiskStore::prune`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneOptions {
    /// Keep at most this many entries, evicting whole segments least
    /// recently read first (a handle's first read of a segment refreshes
    /// its timestamp best-effort). `None` = no cap.
    pub max_entries: Option<usize>,
    /// Drop segments unread for longer than this. `None` = no TTL.
    pub ttl: Option<Duration>,
}

/// What [`DiskStore::prune`] did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PruneReport {
    /// Entries examined.
    pub examined: usize,
    /// Entries removed because their segment's age exceeded the TTL.
    pub expired: usize,
    /// Entries evicted, least recently read segment first, to meet the cap.
    pub evicted: usize,
    /// Entries remaining after the prune.
    pub remaining: usize,
}

/// What [`DiskStore::verify`] found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Distinct entries whose first record decoded cleanly.
    pub ok: usize,
    /// Per-record damage descriptions (`segment:line: reason`).
    pub corrupt: Vec<String>,
    /// Quarantined segments.
    pub quarantined: Vec<String>,
}

impl VerifyReport {
    /// True when nothing is damaged or quarantined.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && self.quarantined.is_empty()
    }
}

/// The persistent content-addressed [`ResultStore`] (layout and wire format
/// in the module docs). Filesystem failures on the hot path degrade to
/// misses or skipped writes with a stderr note: a broken disk slows the
/// suite down, it never breaks correctness. Segments that cannot be read
/// and records that cannot be written are counted, and the handle warns
/// once, when it is dropped: how many it missed, and the first I/O error.
/// Nothing about them is printed before then, so a handle that is never
/// dropped (one held for the life of the process, or a process killed
/// mid-suite) reports nothing; the runs it could not save execute again
/// on the next pass.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    /// Each scope's segment, read on its first load or save. One lock per
    /// scope, so different scopes read in parallel.
    segments: Mutex<HashMap<u64, Arc<Mutex<Option<Segment>>>>>,
    /// I/O failures on the hot path, for the warning at close.
    faults: Mutex<IoFaults>,
}

/// What a handle's reads and writes could not do, warned about once, when
/// it closes.
#[derive(Debug, Default)]
struct IoFaults {
    /// Scopes whose segment could not be read (quarantined).
    unreadable: BTreeSet<u64>,
    /// Records whose write failed.
    unsaved: usize,
    /// The first error, and the file it struck.
    first: Option<String>,
}

impl IoFaults {
    fn note(&mut self, e: &io::Error, path: &Path) {
        self.first.get_or_insert_with(|| format!("{e}, at {}", path.display()));
    }

    /// The handle's one warning, if anything failed.
    fn warning(&self, root: &Path) -> Option<String> {
        let first = self.first.as_ref()?;
        let plural = |n: usize| if n == 1 { "" } else { "s" };
        let mut missed = Vec::new();
        if !self.unreadable.is_empty() {
            let n = self.unreadable.len();
            missed.push(format!("{n} segment{} could not be read", plural(n)));
        }
        if self.unsaved > 0 {
            missed.push(format!(
                "{} record{} could not be saved",
                self.unsaved,
                plural(self.unsaved)
            ));
        }
        Some(format!(
            "epa-store: {}: {} ({first}); their runs executed and were not saved",
            root.display(),
            missed.join(", ")
        ))
    }
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// A fresh or empty directory gets the store header; an existing store
    /// must carry the current version. An older store (`vN`, N below the
    /// current version) is upgraded in place with one warning: its `vN/`
    /// entries are deleted (a cache: they re-derive) and its header is
    /// rewritten; `MANIFEST.json` stays, for the next suite run to rewrite.
    /// Segments are checked when first read.
    ///
    /// # Errors
    ///
    /// Filesystem errors, a root header of any other version, or a
    /// non-empty directory that is not a store (refused rather than
    /// adopted: the pruner deletes files, and it must never delete a
    /// directory the user did not dedicate to the store).
    pub fn open(root: impl AsRef<Path>) -> io::Result<DiskStore> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        let header_path = root.join(STORE_HEADER_FILE);
        let shown = root.display();
        let refuse = |why: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{shown} {why}"));
        let found = match std::fs::read_to_string(&header_path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // Only the transient `.epa-*` files of a racing opener may
                // precede the header.
                let mut names = std::fs::read_dir(&root)?.flatten().map(|e| e.file_name());
                if names.all(|n| n.to_string_lossy().starts_with(".epa-")) {
                    install(&header_path, &store_header(), None)?;
                }
                // A racing opener may also have written it meanwhile.
                let err = |_| refuse("is non-empty and has no store header; refusing to adopt it");
                std::fs::read_to_string(&header_path).map_err(err)?
            }
            read => read?,
        };
        let older = (1..STORE_FORMAT_VERSION).find(|v| found == format!("epa-result-store v{v}\n"));
        if let Some(v) = older {
            eprintln!("epa-store: {shown} is a v{v} store; upgrading it (its entries are dropped: they re-derive)");
            match std::fs::remove_dir_all(root.join(format!("v{v}"))) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => install(&header_path, &store_header(), None)?,
            }
        } else if found != store_header() {
            return Err(refuse(&format!("is a {found:?} store, not v{STORE_FORMAT_VERSION}")));
        }
        Ok(DiskStore {
            root,
            segments: Mutex::new(HashMap::new()),
            faults: Mutex::default(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory holding every segment.
    fn segment_dir(&self) -> PathBuf {
        self.root.join(format!("v{STORE_FORMAT_VERSION}"))
    }

    /// The segment file of `scope`.
    fn segment_path(&self, scope: u64) -> PathBuf {
        self.segment_dir().join(format!("{scope:016x}.seg"))
    }

    /// Fails when the segment directory is a symbolic link. Every segment
    /// lives in it, so a link there would carry every read, write and
    /// prune out of the store root: the handle's disk tier goes off.
    fn unlinked_segment_dir(&self) -> io::Result<PathBuf> {
        let dir = self.segment_dir();
        match std::fs::symlink_metadata(&dir) {
            Ok(meta) if meta.file_type().is_symlink() => Err(io::Error::other(
                "a symbolic link as the segment directory, which the store does not follow",
            )),
            _ => Ok(dir),
        }
    }

    /// Runs `f` on `scope`'s segment, read on first use, under its own lock.
    fn with_segment<R>(&self, scope: u64, f: impl FnOnce(&mut Segment) -> R) -> R {
        let slot = {
            let mut segments = self.segments.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(segments.entry(scope).or_default())
        };
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        f(slot.get_or_insert_with(|| self.read_segment(scope)))
    }

    /// Reads and decodes `scope`'s segment for the hot path, logging
    /// damage and refreshing its timestamp (best-effort) for the LRU. A
    /// segment that cannot be read, or a link where it belongs, is
    /// quarantined, and noted for the handle's warning at close: no load or
    /// save touches it again.
    fn read_segment(&self, scope: u64) -> Segment {
        let path = self.segment_path(scope);
        let (read, struck) = match self.unlinked_segment_dir() {
            Ok(_) => (read_segment_file(&path, true), path.clone()),
            Err(e) => (Err(e), self.segment_dir()),
        };
        let shown = path.display();
        let unreadable = read.as_ref().err().filter(|e| e.kind() != io::ErrorKind::NotFound);
        if let Some(e) = unreadable {
            let mut faults = self.faults.lock().unwrap_or_else(PoisonError::into_inner);
            faults.unreadable.insert(scope);
            faults.note(e, &struck);
        }
        let foreign = unreadable.is_none();
        let segment = decode_segment(scope, read);
        if segment.quarantined && foreign {
            eprintln!("epa-store: {shown}: foreign segment header; quarantining it");
        }
        for (line, why) in &segment.damaged {
            eprintln!("epa-store: {shown}:{line}: {why}; ignoring the record");
        }
        segment
    }

    /// The one segment writer. Under `scope`'s segment lock it reads the
    /// segment, keeps each valid, distinct line as read, adds the `records`
    /// (key text, encoded line) whose keys are new, and installs the header
    /// and every line, sorted by key. With no records it is a compaction:
    /// the segment keeps its mtime (the LRU's), and a missing one stays
    /// missing. A torn creation (a prefix of the header) holds no records
    /// and is replaced; a foreign segment is refused.
    fn write_segment(&self, scope: u64, records: &[(String, String)]) -> io::Result<()> {
        let path = self.segment_path(scope);
        std::fs::create_dir_all(self.segment_dir())?;
        self.unlinked_segment_dir()?;
        let mut file = match lock_segment(&path, !records.is_empty()) {
            Err(e) if records.is_empty() && e.kind() == io::ErrorKind::NotFound => return Ok(()),
            locked => locked?,
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let Some(kept) = segment_records(scope, &bytes) else {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "foreign segment header"));
        };
        let mut lines = BTreeMap::new();
        for line in record_lines(kept).into_iter().flatten() {
            match decode_entry(line) {
                Ok(entry) if entry.scope == scope => {
                    lines.entry(entry.key).or_insert(line);
                }
                _ => {}
            }
        }
        for (key, line) in records {
            lines
                .entry(key.clone())
                .or_insert(line.strip_suffix('\n').unwrap_or(line));
        }
        let mut text = segment_header(scope);
        for line in lines.values() {
            text.push_str(line);
            text.push('\n');
        }
        let mtime = records.is_empty().then(|| file.metadata()?.modified()).transpose()?;
        install(&path, &text, mtime)
    }

    /// Writes the `records` of `scope` this handle does not know to be on
    /// disk through [`DiskStore::write_segment`], in one write. Idempotent:
    /// a key already on disk (or saved by this handle) is this record. A
    /// quarantined segment takes no write; a failed write is counted for
    /// the warning at close.
    fn write_records<'r>(&self, scope: u64, records: impl IntoIterator<Item = (&'r FaultKey, &'r RunDigest)>) {
        self.with_segment(scope, |segment| {
            if segment.quarantined {
                return;
            }
            let new: Vec<(String, String)> = records
                .into_iter()
                .filter(|(key, _)| !segment.records.contains_key(key.repr()))
                .map(|(key, digest)| (key.repr().to_string(), encode_entry(scope, key, digest)))
                .collect();
            if new.is_empty() {
                return;
            }
            if let Err(e) = self.write_segment(scope, &new) {
                let mut faults = self.faults.lock().unwrap_or_else(PoisonError::into_inner);
                faults.unsaved += new.len();
                faults.note(&e, &self.segment_path(scope));
                return;
            }
            for (key, _) in new {
                segment.records.insert(key, None);
            }
        });
    }

    /// Every segment file on disk, decoded, in path order. Does not touch
    /// timestamps.
    fn scan(&self) -> Vec<(PathBuf, std::fs::Metadata, Segment)> {
        // A missing segment directory is an empty store, and so is a link
        // there: nothing outside the root is read, compacted or pruned.
        let mut scanned: Vec<_> = self
            .unlinked_segment_dir()
            .and_then(std::fs::read_dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| {
                let path = entry.path();
                let scope = u64::from_str_radix(path.file_name()?.to_str()?.strip_suffix(".seg")?, 16).ok()?;
                let segment = decode_segment(scope, read_segment_file(&path, false));
                Some((path, entry.metadata().ok()?, segment))
            })
            .collect();
        scanned.sort_by(|a, b| a.0.cmp(&b.0));
        scanned
    }

    /// Aggregate store facts (reads every segment).
    pub fn stats(&self) -> DiskStats {
        let mut stats = DiskStats::default();
        for (_, meta, segment) in self.scan() {
            if segment.quarantined {
                stats.quarantined_segments += 1;
            } else {
                stats.segments += 1;
                stats.entries += segment.records.len();
                stats.bytes += meta.len();
            }
        }
        stats
    }

    /// Applies a retention policy per segment: TTL expiry, then eviction of
    /// whole segments, least recently read first, until the entry count is
    /// within the cap; then compacts the survivors. Quarantined segments are
    /// left alone.
    pub fn prune(&self, options: PruneOptions) -> PruneReport {
        let now = SystemTime::now();
        let mut live: Vec<_> = self
            .scan()
            .into_iter()
            .filter(|(_, _, segment)| !segment.quarantined)
            .map(|(path, meta, segment)| (meta.modified().unwrap_or(now), path, segment))
            .collect();
        let mut report = PruneReport {
            examined: live.iter().map(|(_, _, segment)| segment.records.len()).sum(),
            ..PruneReport::default()
        };
        if let Some(ttl) = options.ttl {
            live.retain(|(mtime, path, segment)| {
                let expired = now.duration_since(*mtime).is_ok_and(|age| age > ttl);
                let removed = expired && std::fs::remove_file(path).is_ok();
                report.expired += if removed { segment.records.len() } else { 0 };
                !removed
            });
        }
        // Oldest first; evict whole segments until the cap holds.
        live.sort_by_key(|(mtime, _, _)| *mtime);
        let mut kept = report.examined - report.expired;
        let cap = options.max_entries.unwrap_or(usize::MAX);
        live.retain(|(_, path, segment)| {
            let evicted = kept > cap && std::fs::remove_file(path).is_ok();
            if evicted {
                kept -= segment.records.len();
                report.evicted += segment.records.len();
            }
            !evicted
        });
        for (_, path, segment) in &live {
            if let Err(e) = self.write_segment(segment.scope, &[]) {
                eprintln!("epa-store: {}: compaction failed ({e}); left as is", path.display());
            }
        }
        // This handle's decoded segments may no longer match the disk.
        self.segments.lock().unwrap_or_else(PoisonError::into_inner).clear();
        report.remaining = kept;
        report
    }

    /// Decodes every record of every segment: version tag, checksum, and
    /// that it belongs to the scope its segment names. Damage is reported
    /// as `segment:line`; a duplicate record is not damage. A segment
    /// directory that is a link is reported quarantined, and not read.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        if self.unlinked_segment_dir().is_err() {
            report.quarantined.push(self.segment_dir().display().to_string());
        }
        for (path, _, segment) in self.scan() {
            if segment.quarantined {
                report.quarantined.push(path.display().to_string());
                continue;
            }
            report.ok += segment.records.len();
            for (line, why) in &segment.damaged {
                report.corrupt.push(format!("{}:{line}: {why}", path.display()));
            }
        }
        report
    }
}

impl ResultStore for DiskStore {
    fn load(&self, scope: u64, key: &FaultKey) -> Option<RunDigest> {
        // A quarantined segment holds no records, so it reads as misses. A
        // key whose digest was already handed out is read from disk again.
        self.with_segment(scope, |segment| match segment.records.get_mut(key.repr())?.take() {
            None => {
                *segment = self.read_segment(scope);
                segment.records.get_mut(key.repr())?.take()
            }
            taken => taken,
        })
    }

    fn save(&self, scope: u64, key: &FaultKey, digest: &RunDigest) {
        self.write_records(scope, [(key, digest)]);
    }

    fn save_all(&self, scope: u64, records: &[(FaultKey, RunDigest)]) {
        self.write_records(scope, records.iter().map(|(key, digest)| (key, digest)));
    }

    fn entries(&self) -> usize {
        self.stats().entries
    }

    fn kind(&self) -> &'static str {
        "disk"
    }
}

impl Drop for DiskStore {
    /// Warns once about what this handle could not read or write.
    fn drop(&mut self) {
        let faults = self.faults.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let Some(warning) = faults.warning(&self.root) {
            eprintln!("{warning}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> (PathBuf, DiskStore) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("epa-disk-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).expect("fresh store opens");
        (dir, store)
    }

    fn key(text: &str) -> FaultKey {
        FaultKey::synthetic(text)
    }

    fn digest(exit: i32, events: usize) -> RunDigest {
        RunDigest {
            applied: true,
            exit: Some(exit),
            crashed: None,
            audit_events: events,
            violations: Vec::new(),
        }
    }

    /// The segment's lines, header first.
    fn lines(store: &DiskStore, scope: u64) -> Vec<String> {
        let text = std::fs::read_to_string(store.segment_path(scope)).expect("segment exists");
        text.lines().map(str::to_string).collect()
    }

    /// `scope`'s segment path in the store at `dir`.
    fn store_path(dir: &Path, scope: u64) -> PathBuf {
        dir.join(format!("v{STORE_FORMAT_VERSION}"))
            .join(format!("{scope:016x}.seg"))
    }

    /// Rewrites the segment from `lines`, each ended by a newline.
    fn rewrite(store: &DiskStore, scope: u64, lines: &[String]) {
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(store.segment_path(scope), text).expect("segment rewrites");
    }

    #[test]
    fn entries_round_trip_through_the_wire_format() {
        let k = key("site#1|-|{\"payload\":true}");
        let d = digest(3, 17);
        let text = encode_entry(0xdead_beef, &k, &d);
        assert_eq!(text.matches('\n').count(), 1, "a record is exactly one line");
        let decoded = decode_entry(&text).expect("own encoding decodes");
        assert_eq!(decoded.scope, 0xdead_beef);
        assert_eq!(decoded.key, k.repr());
        assert_eq!(decoded.digest, d);
        // Deterministic: re-encoding the decoded record is byte-identical.
        assert_eq!(encode_entry(decoded.scope, &key(&decoded.key), &decoded.digest), text);
        // Key text with a newline stays on one line (JSON escapes it).
        let multiline = encode_entry(1, &key("a\nb#0|-|{}"), &d);
        assert_eq!(multiline.matches('\n').count(), 1);
        assert_eq!(decode_entry(&multiline).expect("decodes").key, "a\nb#0|-|{}");
    }

    #[test]
    fn save_load_round_trips_and_misses_are_clean() {
        let (dir, store) = temp_store("roundtrip");
        let k = key("a#0|-|{}");
        assert_eq!(store.load(7, &k), None);
        store.save(7, &k, &digest(0, 2));
        assert_eq!(store.load(7, &k), Some(digest(0, 2)));
        assert_eq!(
            store.load(7, &k),
            Some(digest(0, 2)),
            "a handed-out digest is read again"
        );
        assert_eq!(store.load(8, &k), None, "scopes are separate segments");
        // Idempotent: a re-save writes nothing.
        store.save(7, &k, &digest(0, 2));
        assert_eq!(lines(&store, 7).len(), 2, "header and one record");
        assert_eq!(lines(&store, 7)[0], segment_header(7).trim_end());
        assert_eq!(store.entries(), 1);
        assert_eq!(store.kind(), "disk");
        let stats = store.stats();
        assert_eq!((stats.entries, stats.segments, stats.quarantined_segments), (1, 1, 0));
        assert!(stats.bytes > 0);
        assert!(store.verify().is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_handle_sees_the_first_handles_entries() {
        // The cross-process contract, in-process: a fresh DiskStore over
        // the same directory serves everything a dropped one wrote.
        let (dir, store) = temp_store("reopen");
        let k = key("b#0|-|{}");
        store.save(1, &k, &digest(1, 5));
        drop(store);
        let reopened = DiskStore::open(&dir).expect("existing store reopens");
        assert_eq!(reopened.load(1, &k), Some(digest(1, 5)));
        // The reopened handle knows the key is on disk and writes nothing.
        reopened.save(1, &k, &digest(1, 5));
        assert_eq!(lines(&reopened, 1).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_records_are_detected_and_miss() {
        // A segment cut short (a damaged disk) ends in a torn line: the
        // checksum catches it, and the next save rewrites the segment
        // without it. Records are sorted by key, so the torn one is last.
        let (dir, store) = temp_store("truncate");
        let (torn, kept) = (key("c#1|-|{}"), key("c#0|-|{}"));
        store.save(2, &kept, &digest(0, 8));
        store.save(2, &torn, &digest(0, 9));
        let path = store.segment_path(2);
        let full = std::fs::read_to_string(&path).expect("segment exists");
        std::fs::write(&path, &full[..full.len() - 10]).expect("truncate");
        let reopened = DiskStore::open(&dir).expect("store reopens");
        assert_eq!(reopened.load(2, &torn), None, "truncation must read as a miss");
        assert_eq!(reopened.load(2, &kept), Some(digest(0, 8)), "earlier records survive");
        // The re-executed run heals the store.
        reopened.save(2, &torn, &digest(0, 9));
        let healed = DiskStore::open(&dir).expect("store reopens");
        assert_eq!(healed.load(2, &torn), Some(digest(0, 9)));
        assert_eq!(healed.load(2, &kept), Some(digest(0, 8)));
        let verify = healed.verify();
        assert_eq!(
            (verify.ok, verify.corrupt.len()),
            (2, 0),
            "the save rewrote the segment without the torn line"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_segment_header_costs_one_miss_then_heals() {
        // A segment cut mid-way through its header holds no record: its
        // key misses once, and the re-executed run's save replaces it.
        let (dir, store) = temp_store("torn-header");
        let k = key("i#0|-|{}");
        store.save(10, &k, &digest(0, 1));
        drop(store);
        std::fs::write(store_path(&dir, 10), &segment_header(10)[..12]).expect("tear the header");
        let reopened = DiskStore::open(&dir).expect("store reopens");
        assert_eq!(reopened.load(10, &k), None, "the torn segment misses");
        assert_eq!(
            reopened.stats().quarantined_segments,
            0,
            "a torn creation is not foreign"
        );
        reopened.save(10, &k, &digest(0, 1));
        let healed = DiskStore::open(&dir).expect("store reopens");
        assert_eq!(healed.load(10, &k), Some(digest(0, 1)));
        assert!(healed.verify().is_clean());
        assert_eq!(lines(&healed, 10).len(), 2, "header and the healed record");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn saves_write_their_segment_in_key_order() {
        let (dir, store) = temp_store("sorted");
        let record = |name: &str| encode_entry(11, &key(&format!("{name}#0|-|{{}}")), &digest(0, 1));
        for name in ["z", "a", "m"] {
            store.save(11, &key(&format!("{name}#0|-|{{}}")), &digest(0, 1));
        }
        let segment = |names: [&str; 3]| segment_header(11) + &names.map(record).concat();
        let written = std::fs::read_to_string(store_path(&dir, 11)).expect("segment");
        assert_eq!(
            written,
            segment(["a", "m", "z"]),
            "every save leaves the records sorted by key"
        );
        // A handle that only reads, or saves what is on disk, leaves the
        // segment alone.
        drop(store);
        let before = std::fs::metadata(store_path(&dir, 11)).expect("segment").ino();
        let reader = DiskStore::open(&dir).expect("store reopens");
        assert!(reader.load(11, &key("a#0|-|{}")).is_some());
        reader.save(11, &key("m#0|-|{}"), &digest(0, 1));
        drop(reader);
        assert_eq!(std::fs::metadata(store_path(&dir, 11)).expect("segment").ino(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_all_keeps_valid_lines_and_the_first_record_of_a_key() {
        let (dir, store) = temp_store("save-all");
        let name = |n: &str| key(&format!("{n}#0|-|{{}}"));
        store.save(13, &name("b"), &digest(0, 1));
        // Another writer left a damaged line and a second record of `b`.
        let mut segment = lines(&store, 13);
        segment.push(format!("v{STORE_FORMAT_VERSION} 0000000000000000 {{}}"));
        segment.push(encode_entry(13, &name("b"), &digest(9, 9)).trim_end().to_string());
        rewrite(&store, 13, &segment);
        let before = std::fs::metadata(store.segment_path(13)).expect("segment").ino();
        let fresh = DiskStore::open(&dir).expect("store reopens");
        let records = [("c", digest(0, 3)), ("a", digest(0, 2)), ("c", digest(7, 7))].map(|(n, d)| (name(n), d));
        fresh.save_all(13, &records);
        assert_ne!(
            std::fs::metadata(store.segment_path(13)).expect("segment").ino(),
            before
        );
        let want = [("a", digest(0, 2)), ("b", digest(0, 1)), ("c", digest(0, 3))];
        let want: String = want.iter().map(|(n, d)| encode_entry(13, &name(n), d)).collect();
        assert_eq!(
            std::fs::read_to_string(store.segment_path(13)).expect("segment"),
            segment_header(13) + &want,
            "sorted by key: valid lines kept, damage dropped, first records win"
        );
        assert!(fresh.verify().is_clean());
        // Nothing new to save: no write at all.
        let written = std::fs::metadata(store.segment_path(13)).expect("segment").ino();
        fresh.save_all(13, &records);
        assert_eq!(
            std::fs::metadata(store.segment_path(13)).expect("segment").ino(),
            written
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_entries_are_detected_and_miss() {
        let (dir, store) = temp_store("bitflip");
        let k = key("d#0|-|{}");
        store.save(3, &k, &digest(0, 1));
        let mut segment = lines(&store, 3);
        // Flip one bit inside the JSON body of the record.
        let mut bytes = segment[1].clone().into_bytes();
        let body_start = bytes.iter().position(|&b| b == b'{').expect("body starts");
        bytes[body_start + 10] ^= 0x01;
        segment[1] = String::from_utf8(bytes).expect("still UTF-8");
        rewrite(&store, 3, &segment);
        let reopened = DiskStore::open(&dir).expect("store reopens");
        assert_eq!(reopened.load(3, &k), None, "a flipped bit must read as a miss");
        let verify = reopened.verify();
        assert_eq!(verify.corrupt.len(), 1);
        assert!(
            verify.corrupt[0].ends_with(":2: checksum mismatch (torn or corrupted record)"),
            "{verify:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_line_that_is_not_utf8_costs_only_its_own_record() {
        let (dir, store) = temp_store("utf8");
        let (bad, good) = (key("n#0|-|{}"), key("n#1|-|{}"));
        store.save(12, &bad, &digest(0, 1));
        store.save(12, &good, &digest(0, 2));
        drop(store);
        // The records are sorted by key: `bad`'s is the first, line 2.
        let path = store_path(&dir, 12);
        let mut bytes = std::fs::read(&path).expect("segment");
        let record = bytes.iter().position(|&b| b == b'\n').expect("the header ends") + 1;
        bytes[record + 40] = 0xff;
        std::fs::write(&path, bytes).expect("segment rewrites");
        let reopened = DiskStore::open(&dir).expect("store reopens");
        assert_eq!(reopened.load(12, &bad), None);
        assert_eq!(reopened.load(12, &good), Some(digest(0, 2)));
        let verify = reopened.verify();
        assert_eq!((verify.ok, verify.corrupt.len()), (1, 1), "{verify:?}");
        assert!(
            verify.corrupt[0].ends_with(":2: malformed record: not UTF-8"),
            "{verify:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_version_entries_are_rejected_not_parsed() {
        let (dir, store) = temp_store("version");
        let k = key("e#0|-|{}");
        store.save(4, &k, &digest(0, 1));
        let mut segment = lines(&store, 4);
        segment[1] = segment[1].replacen(&format!("v{STORE_FORMAT_VERSION} "), "v99 ", 1);
        assert!(matches!(decode_entry(&segment[1]), Err(EntryError::Version { .. })));
        rewrite(&store, 4, &segment);
        let reopened = DiskStore::open(&dir).expect("store reopens");
        assert_eq!(reopened.load(4, &k), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_collisions_miss_instead_of_replaying_the_wrong_run() {
        // A record of another key and a record of another scope in the
        // probe's segment: neither may answer the probe.
        let (dir, store) = temp_store("collision");
        let probe = key("f#0|-|{}");
        store.save(5, &key("g#0|-|{}"), &digest(0, 1));
        let mut segment = lines(&store, 5);
        segment.push(encode_entry(6, &probe, &digest(0, 1)).trim_end().to_string());
        rewrite(&store, 5, &segment);
        let reopened = DiskStore::open(&dir).expect("store reopens");
        assert_eq!(reopened.load(5, &probe), None);
        let verify = reopened.verify();
        assert_eq!((verify.ok, verify.corrupt.len()), (1, 1), "{verify:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_refuses_foreign_headers_and_nonstore_directories() {
        let (dir, store) = temp_store("header");
        drop(store);
        std::fs::write(dir.join(STORE_HEADER_FILE), "epa-result-store v99\n").expect("forge header");
        let err = DiskStore::open(&dir).expect_err("foreign store version must not open");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);

        // A non-empty directory without a header is not adopted.
        let plain = std::env::temp_dir().join(format!("epa-disk-nonstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&plain);
        std::fs::create_dir_all(&plain).expect("dir");
        std::fs::write(plain.join("precious.txt"), "user data").expect("file");
        let err = DiskStore::open(&plain).expect_err("must not adopt a foreign directory");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(plain.join("precious.txt").exists());
        // A directory holding only a racing opener's transient files is
        // still fresh.
        std::fs::remove_file(plain.join("precious.txt")).expect("remove");
        std::fs::write(plain.join(".epa-probe-1"), "probe").expect("probe");
        DiskStore::open(&plain).expect("transient files do not make a directory foreign");
        let _ = std::fs::remove_dir_all(&plain);
    }

    /// Forges an older store at `dir`: its header, one entry under `vN/`,
    /// and a manifest.
    fn forge_older_store(dir: &Path, version: u32, entry: &str) {
        std::fs::write(dir.join(STORE_HEADER_FILE), format!("epa-result-store v{version}\n")).expect("header");
        let entry = dir.join(format!("v{version}")).join(entry);
        std::fs::create_dir_all(entry.parent().expect("entry parent")).expect("entry tree");
        std::fs::write(&entry, format!("v{version} 0000000000000000 {{}}\n")).expect("entry");
        std::fs::write(dir.join("MANIFEST.json"), "{}").expect("manifest");
    }

    #[test]
    fn v1_stores_upgrade_in_place() {
        // Every older version upgrades the same way. v1: a bucket tree of
        // `.entry` files; v2: today's segment layout, filed under the scopes
        // of the JSON fingerprint.
        let shapes = [
            (1, format!("{:016x}/ab/00000000000000ab.entry", 9u64)),
            (2, format!("{:016x}.seg", 9u64)),
        ];
        for (version, entry) in shapes {
            let (dir, store) = temp_store("upgrade");
            drop(store);
            forge_older_store(&dir, version, &entry);
            let store = DiskStore::open(&dir).expect("an older store upgrades");
            assert!(
                !dir.join(format!("v{version}")).exists(),
                "the v{version} entries are discarded"
            );
            assert_eq!(
                std::fs::read_to_string(dir.join(STORE_HEADER_FILE)).expect("header"),
                store_header()
            );
            assert!(dir.join("MANIFEST.json").exists(), "only the entries go");
            assert_eq!(store.entries(), 0);
            store.save(9, &key("u#0|-|{}"), &digest(0, 1));
            assert_eq!(
                DiskStore::open(&dir).expect("reopens").load(9, &key("u#0|-|{}")),
                Some(digest(0, 1))
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        // A newer store, and a header that only looks versioned, are refused.
        let newer = format!("epa-result-store v{}\n", STORE_FORMAT_VERSION + 1);
        for header in [newer.as_str(), "epa-result-store v0\n", "epa-result-store v02\n"] {
            let (dir, store) = temp_store("upgrade-refused");
            drop(store);
            std::fs::write(dir.join(STORE_HEADER_FILE), header).expect("header");
            let err = DiskStore::open(&dir).expect_err("not an older store");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{header:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn foreign_segments_are_quarantined_for_loads_and_saves() {
        let (dir, store) = temp_store("segment");
        let k = key("h#0|-|{}");
        store.save(6, &k, &digest(0, 1));
        // Forge the segment header to a foreign version and reopen.
        let mut segment = lines(&store, 6);
        segment[0] = "epa-store-segment v9 scope=0000000000000006".to_string();
        rewrite(&store, 6, &segment);
        drop(store);
        let reopened = DiskStore::open(&dir).expect("store reopens");
        assert_eq!(reopened.load(6, &k), None, "quarantined segments read as misses");
        reopened.save(6, &k, &digest(0, 1));
        assert_eq!(lines(&reopened, 6), segment, "quarantined segments refuse writes");
        assert_eq!(DiskStore::open(&dir).expect("reopens").load(6, &k), None);
        assert_eq!(reopened.stats().quarantined_segments, 1);
        assert!(!reopened.verify().is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn a_link_to_a_valid_segment_outside_the_root_is_refused_not_followed() {
        let (dir, store) = temp_store("link");
        let (k, segment) = (key("l#0|-|{}"), store.segment_path(5));
        store.save(5, &k, &digest(0, 1));
        drop(store);
        // The segment moves out of the store, and a link takes its place.
        let outside = dir.with_extension("outside.seg");
        std::fs::rename(&segment, &outside).expect("the segment moves out");
        std::os::unix::fs::symlink(&outside, &segment).expect("a link to it");
        let before = std::fs::read(&outside).expect("the outside segment reads");
        let store = DiskStore::open(&dir).expect("store reopens");
        assert_eq!(store.load(5, &k), None, "a linked segment reads as a miss");
        store.save(5, &key("l#1|-|{}"), &digest(0, 2));
        let warning = store.faults.lock().unwrap().warning(&dir).expect("the handle warns");
        assert!(
            warning.contains("1 segment could not be read (a symbolic link"),
            "{warning}"
        );
        assert_eq!(store.verify().quarantined.len(), 1, "verify names the link");
        drop(store);
        assert_eq!(
            std::fs::read(&outside).expect("reads"),
            before,
            "the outside file is untouched"
        );
        let _ = std::fs::remove_file(&outside);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn unreadable_segments_and_failed_saves_make_one_warning() {
        let (dir, store) = temp_store("io-faults");
        std::fs::create_dir_all(store.segment_dir()).expect("segment dir");
        // Segments that are directories cannot be read, even by root.
        for scope in [1, 2] {
            std::fs::create_dir(store.segment_path(scope)).expect("a directory where a segment belongs");
        }
        // A dangling link planted after the handle read a segment as
        // missing: no write follows it to create its target.
        let target = store.segment_dir().join("elsewhere.seg");
        for scope in [1, 2, 3] {
            for n in 0..2 {
                let k = key(&format!("s#{n}|-|{{}}"));
                assert_eq!(store.load(scope, &k), None);
                if (scope, n) == (3, 0) {
                    std::os::unix::fs::symlink(&target, store.segment_path(3)).expect("dangling link");
                }
                store.save(scope, &k, &digest(0, 1));
            }
        }
        assert!(!target.exists(), "the link's target was not created");
        let faults = store.faults.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!((faults.unreadable.len(), faults.unsaved), (2, 2));
        let warning = faults.warning(&dir).expect("the handle warns");
        assert!(
            warning.contains("2 segments could not be read, 2 records could not be saved"),
            "{warning}"
        );
        assert!(
            warning.contains("Is a directory"),
            "the first error is named: {warning}"
        );
        drop(faults);
        assert!(store.verify().corrupt.is_empty(), "nothing corrupt is left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_applies_ttl_then_lru_cap() {
        let (dir, store) = temp_store("prune");
        // Scope: (entries, age in minutes). Scope 1 is a year old.
        let layout = [(1u64, 2usize, 60 * 24 * 365), (2, 1, 30), (3, 2, 0), (4, 1, 10)];
        for (scope, entries, _) in layout {
            for i in 0..entries {
                store.save(scope, &key(&format!("k{i}#0|-|{{}}")), &digest(0, 1));
            }
        }
        // Scope 3 also carries a duplicate and a damaged record.
        let mut segment = lines(&store, 3);
        segment.push(segment[1].clone());
        segment.push(format!("v{STORE_FORMAT_VERSION} 0000000000000000 {{}}"));
        rewrite(&store, 3, &segment);
        for (scope, _, minutes) in layout {
            let old = SystemTime::now() - Duration::from_secs(60 * minutes);
            let f = std::fs::File::options().write(true).open(store.segment_path(scope));
            f.expect("open segment").set_modified(old).expect("age segment");
        }
        assert_eq!(store.entries(), 6);
        let report = store.prune(PruneOptions {
            max_entries: Some(3),
            ttl: Some(Duration::from_secs(60 * 60)),
        });
        assert_eq!(report.examined, 6);
        assert_eq!(report.expired, 2, "the year-old segment expires whole");
        assert_eq!(report.evicted, 1, "the least recently read segment goes next");
        assert_eq!(report.remaining, 3);
        assert!(!store.segment_path(1).exists() && !store.segment_path(2).exists());
        assert_eq!(store.entries(), 3);
        assert!(store.verify().is_clean(), "compaction drops damaged records");
        assert_eq!(lines(&store, 3).len(), 3, "header and two distinct records");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
