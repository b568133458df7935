//! Persistent snapshots of the content-addressed measurement cache.
//!
//! The [`MeasurementCache`] is keyed purely by *content* — stable
//! 64-bit fingerprints of (machine, spec, groups ⊕ configuration,
//! noise ⊕ seed) — so its entries survive a process boundary by
//! construction: nothing in a cached cell refers to live objects. This
//! module gives the cache a durable form, which is what lets fleet
//! batches, scenario matrices, and CI runs warm-start instead of
//! re-simulating from cold. [`CacheFile`] owns a cache's snapshot file
//! for the fleet, the request API and the campaign service: it preloads
//! the cache ([`preload`]) and keeps the file up to date. [`write_atomic`]
//! is the temp-file + rename that snapshots, the service's reports, and
//! the campaign warehouse's payloads are written through, and the line
//! log ([`append_line`], [`write_lines`], [`read_lines`]) holds the
//! service's queue and the warehouse index.
//!
//! ## Snapshot format (version 1)
//!
//! A snapshot is a 32-byte header followed by fixed-size 64-byte
//! records. A rewrite ([`save`]) sorts them **by cell key**, so its bytes
//! are a deterministic function of cache content; appends follow it
//! unsorted until the next rewrite:
//!
//! ```text
//! header   magic               8 B   b"HMPTCELL"
//!          format_version      4 B   u32 LE — layout of this file
//!          semantics_version   4 B   u32 LE — cache-key semantics
//!          record_count        8 B   u64 LE — records written
//!          header_checksum     8 B   u64 LE — StableHasher over bytes 0..24
//! record   cell key           32 B   4 × u64 LE fingerprints
//!          tag                 8 B   u64 LE — payload discriminant
//!          payload            16 B   2 × u64 LE
//!          record_checksum     8 B   u64 LE — StableHasher over bytes 0..56
//! ```
//!
//! Two version numbers, two failure modes:
//!
//! * [`FORMAT_VERSION`] describes the *bytes*. A reader that does not
//!   know the layout cannot safely skip records, so a mismatch fails
//!   the whole load ([`StoreError::UnsupportedFormat`]).
//! * [`SEMANTICS_VERSION`] describes the *meaning of the keys*: the
//!   fingerprint function ([`hmpt_sim::fingerprint`]), the cell-seed
//!   derivation, and the key composition. If any of those change, every
//!   stored key silently stops matching live keys — worse than useless,
//!   because a stale snapshot would masquerade as an always-cold cache.
//!   Bump [`SEMANTICS_VERSION`] with such a change and old snapshots are
//!   rejected loudly ([`StoreError::SemanticsMismatch`]).
//!
//! ## Corruption tolerance
//!
//! Records are fixed-size and individually checksummed, so damage is
//! contained: a load walks the file in 64-byte steps, skips any record
//! whose checksum or payload fails to decode, and keeps everything
//! else. A truncated tail (partial record, or fewer records than the
//! header declared) is reported, not fatal. Only header-level damage —
//! wrong magic, corrupt header bytes, unknown format, foreign key
//! semantics — discards the snapshot, because past that point the
//! record stream cannot be trusted at all. Callers treat a discarded
//! snapshot as a cold start.
//!
//! ## Appends
//!
//! A long-lived cache that grows a little at a time need not rewrite
//! its whole snapshot for every few new cells. [`append`] writes them
//! after the file's records instead, **unsorted**, in one write, and
//! leaves the header's count as the last rewrite declared it (a file it
//! creates declares 0). A load reads every record, past the declared
//! count too, with the same tolerance: a torn last append loses only
//! the records it did not finish, and a flipped byte skips one record.
//! [`CacheFile`] appends while the appended records stay within the
//! records of the last rewrite, and otherwise rewrites the file sorted:
//! when the appends would outgrow it, after the size bound evicted a
//! cell, after a failed append (whose torn tail nothing may follow),
//! and when its preload did not read the file whole into an empty cache.
//!
//! ## Line logs
//!
//! Small JSON state — the campaign service's job queue, the campaign
//! warehouse's index — is kept as a *line log*: one record per line,
//! `<checksum16> <json>`, the checksum a [`StableHasher`] over the
//! compact JSON that follows. There is no header to corrupt.
//! [`read_lines`] skips each line that fails its checksum or its decode
//! and keeps every other one, so a torn tail or a flipped byte costs the
//! one record it hits. [`append_line`] never continues a torn line: a
//! log that does not end in a line break gets one first, so the new
//! record starts a fresh line. [`write_lines`] rewrites a log whole.
//!
//! ## Merging
//!
//! [`merge_into`] folds any number of snapshots into one cache with
//! last-write-wins on identical keys. That is *not* a resolution
//! policy, it is a no-op: equal content keys imply bit-identical
//! measurements (the key covers everything the simulation depends on),
//! so shards of one campaign can be merged in any order.

use std::fmt;
use std::fs;
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use hmpt_alloc::error::AllocError;
use hmpt_sim::fingerprint::{Fingerprint, StableHasher};
use hmpt_sim::pool::PoolKind;
use serde::{Deserialize, Serialize};

use crate::cache::{CellKey, Mark, MeasurementCache};
use crate::error::TunerError;
use crate::measure::CellOutcome;

/// Identifies a file as a measurement-cache snapshot.
pub const MAGIC: [u8; 8] = *b"HMPTCELL";

/// Byte-layout version of the snapshot format.
pub const FORMAT_VERSION: u32 = 1;

/// Version of the cache-key *semantics*: fingerprint function, cell-seed
/// derivation, key composition. Bump it whenever a change makes old keys
/// incomparable with new ones (see the module docs); snapshots written
/// under a different semantics version are rejected on load.
///
/// v2: the N-pool generalization widened `Config` to a 64-bit word and
/// made machine fingerprints cover the pool vector, so keys written by
/// v1 binaries must not be compared against live keys.
///
/// v3: the third key component is the allocation groups' fingerprint
/// combined with the configuration word, no longer the fingerprint of
/// the placement plan built from them.
pub const SEMANTICS_VERSION: u32 = 3;

const HEADER_LEN: usize = 32;
const RECORD_LEN: usize = 64;
/// Bytes of a record covered by its trailing checksum.
const RECORD_BODY: usize = RECORD_LEN - 8;

/// Why a snapshot could not be used at all (record-level damage is
/// *not* an error — see [`LoadReport`]).
#[derive(Debug)]
pub enum StoreError {
    Io(io::Error),
    /// The file does not start with the snapshot magic.
    NotASnapshot,
    /// The header bytes fail their checksum (the version fields and
    /// record count cannot be trusted).
    CorruptHeader,
    /// The byte layout is newer (or older) than this reader.
    UnsupportedFormat {
        found: u32,
    },
    /// The snapshot's cache keys were computed under different
    /// fingerprint/seed semantics; none of them would match live keys.
    SemanticsMismatch {
        found: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot I/O failure: {e}"),
            StoreError::NotASnapshot => write!(f, "not a measurement-cache snapshot (bad magic)"),
            StoreError::CorruptHeader => write!(f, "snapshot header fails its checksum"),
            StoreError::UnsupportedFormat { found } => {
                write!(f, "unsupported snapshot format version {found} (expected {FORMAT_VERSION})")
            }
            StoreError::SemanticsMismatch { found } => write!(
                f,
                "snapshot uses cache-key semantics version {found} (expected \
                 {SEMANTICS_VERSION}); its keys cannot match live keys — discard it"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What a load recovered (and what it had to give up).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LoadReport {
    /// Records decoded and inserted.
    pub loaded: u64,
    /// Complete records skipped for a bad checksum or undecodable
    /// payload.
    pub skipped: u64,
    /// The file ended early: a partial trailing record, or fewer records
    /// than the header declared.
    pub truncated: bool,
}

impl LoadReport {
    /// Every record the file held was read back: none skipped, none cut.
    pub fn is_clean(&self) -> bool {
        self.skipped == 0 && !self.truncated
    }

    /// Fold another load (e.g. of the next shard snapshot) into this
    /// accounting.
    pub fn absorb(&mut self, other: LoadReport) {
        self.loaded += other.loaded;
        self.skipped += other.skipped;
        self.truncated |= other.truncated;
    }
}

/// What a save wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SaveReport {
    /// Records written.
    pub saved: u64,
    /// Entries with no stable encoding (errors carrying free-form
    /// context, like `TunerError::InvalidMachine`; cell measurement
    /// never produces them).
    pub skipped: u64,
}

/// Payload tags. The low byte discriminates; [`TAG_POOL_EXHAUSTED`]
/// carries the pool kind in its second byte.
const TAG_OK: u64 = 0;
const TAG_POOL_EXHAUSTED: u64 = 1;
const TAG_INVALID_FREE: u64 = 2;
const TAG_BAD_SPLIT: u64 = 3;
const TAG_EMPTY_WORKLOAD: u64 = 4;
const TAG_TOO_MANY_GROUPS: u64 = 5;

fn pool_code(pool: PoolKind) -> u64 {
    pool.index() as u64
}

fn pool_from_code(code: u64) -> Option<PoolKind> {
    if (code as usize) < hmpt_sim::pool::MAX_POOLS {
        Some(PoolKind::of_index(code as usize))
    } else {
        None
    }
}

/// Encode a cached outcome as (tag, payload a, payload b), or `None` if
/// the value has no stable fixed-size encoding. Cached *measurements*
/// always encode; of the error variants, only the ones cell measurement
/// can produce are covered — `TunerError::InvalidMachine` carries
/// free-form strings and is never the outcome of a cell, so it is
/// skipped (and counted) rather than lossily truncated.
fn encode_payload(value: &Result<CellOutcome, TunerError>) -> Option<(u64, u64, u64)> {
    match value {
        Ok(o) => Some((TAG_OK, o.time_s.to_bits(), o.hbm_fraction.to_bits())),
        Err(TunerError::Alloc(AllocError::PoolExhausted { pool, requested, available })) => {
            Some((TAG_POOL_EXHAUSTED | (pool_code(*pool) << 8), *requested, *available))
        }
        Err(TunerError::Alloc(AllocError::InvalidFree { addr })) => {
            Some((TAG_INVALID_FREE, *addr, 0))
        }
        Err(TunerError::Alloc(AllocError::BadSplit { hbm_fraction })) => {
            Some((TAG_BAD_SPLIT, hbm_fraction.to_bits(), 0))
        }
        Err(TunerError::EmptyWorkload) => Some((TAG_EMPTY_WORKLOAD, 0, 0)),
        Err(TunerError::TooManyGroups { groups, limit }) => {
            Some((TAG_TOO_MANY_GROUPS, *groups as u64, *limit as u64))
        }
        Err(TunerError::InvalidMachine { .. }) => None,
    }
}

/// Decode a record payload; `None` marks the record as corrupt.
fn decode_payload(tag: u64, a: u64, b: u64) -> Option<Result<CellOutcome, TunerError>> {
    match tag & 0xff {
        TAG_OK if tag == TAG_OK => {
            Some(Ok(CellOutcome { time_s: f64::from_bits(a), hbm_fraction: f64::from_bits(b) }))
        }
        TAG_POOL_EXHAUSTED => Some(Err(TunerError::Alloc(AllocError::PoolExhausted {
            pool: pool_from_code(tag >> 8)?,
            requested: a,
            available: b,
        }))),
        TAG_INVALID_FREE if tag == TAG_INVALID_FREE => {
            Some(Err(TunerError::Alloc(AllocError::InvalidFree { addr: a })))
        }
        TAG_BAD_SPLIT if tag == TAG_BAD_SPLIT => {
            Some(Err(TunerError::Alloc(AllocError::BadSplit { hbm_fraction: f64::from_bits(a) })))
        }
        TAG_EMPTY_WORKLOAD if tag == TAG_EMPTY_WORKLOAD => Some(Err(TunerError::EmptyWorkload)),
        TAG_TOO_MANY_GROUPS if tag == TAG_TOO_MANY_GROUPS => Some(Err(TunerError::TooManyGroups {
            groups: usize::try_from(a).ok()?,
            limit: usize::try_from(b).ok()?,
        })),
        _ => None,
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

/// The header of a file declaring `records` records (0 for a file
/// [`append`] creates).
fn header(records: u64) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..8].copy_from_slice(&MAGIC);
    out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&SEMANTICS_VERSION.to_le_bytes());
    out[16..24].copy_from_slice(&records.to_le_bytes());
    let sum = checksum(&out[..HEADER_LEN - 8]);
    out[HEADER_LEN - 8..].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Append the records of `entries` to `out`, counting the entries with
/// no stable encoding as skipped.
fn put_records(
    out: &mut Vec<u8>,
    entries: &[(CellKey, Result<CellOutcome, TunerError>)],
) -> SaveReport {
    let mut report = SaveReport::default();
    for (key, value) in entries {
        let Some((tag, a, b)) = encode_payload(value) else {
            report.skipped += 1;
            continue;
        };
        let start = out.len();
        for word in [key.0.raw(), key.1.raw(), key.2.raw(), key.3.raw(), tag, a, b] {
            put_u64(out, word);
        }
        let sum = checksum(&out[start..start + RECORD_BODY]);
        put_u64(out, sum);
        report.saved += 1;
    }
    report
}

/// Serialize the cache to snapshot bytes (sorted records — the bytes
/// are a deterministic function of cache content).
pub fn to_bytes(cache: &MeasurementCache) -> (Vec<u8>, SaveReport) {
    let mut entries = cache.entries();
    entries.sort_by_key(|(k, _)| *k);

    let mut out: Vec<u8> = Vec::with_capacity(HEADER_LEN + entries.len() * RECORD_LEN);
    out.extend_from_slice(&header(0));
    let report = put_records(&mut out, &entries);
    out[..HEADER_LEN].copy_from_slice(&header(report.saved));
    (out, report)
}

/// Decode snapshot bytes into `cache` (skipping damaged records;
/// failing only on header-level damage — see the module docs).
pub fn from_bytes(bytes: &[u8], cache: &MeasurementCache) -> Result<LoadReport, StoreError> {
    if bytes.len() < 8 || bytes[..8] != MAGIC {
        return Err(StoreError::NotASnapshot);
    }
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::CorruptHeader);
    }
    if checksum(&bytes[..HEADER_LEN - 8]) != read_u64(bytes, HEADER_LEN - 8) {
        return Err(StoreError::CorruptHeader);
    }
    let format = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    if format != FORMAT_VERSION {
        return Err(StoreError::UnsupportedFormat { found: format });
    }
    let semantics = u32::from_le_bytes(bytes[12..16].try_into().expect("4-byte slice"));
    if semantics != SEMANTICS_VERSION {
        return Err(StoreError::SemanticsMismatch { found: semantics });
    }
    let declared = read_u64(bytes, 16);

    let mut report = LoadReport::default();
    let records = &bytes[HEADER_LEN..];
    for record in records.chunks(RECORD_LEN) {
        if record.len() < RECORD_LEN {
            report.truncated = true;
            break;
        }
        if checksum(&record[..RECORD_BODY]) != read_u64(record, RECORD_BODY) {
            report.skipped += 1;
            continue;
        }
        let key: CellKey = (
            Fingerprint::from_raw(read_u64(record, 0)),
            Fingerprint::from_raw(read_u64(record, 8)),
            Fingerprint::from_raw(read_u64(record, 16)),
            Fingerprint::from_raw(read_u64(record, 24)),
        );
        let Some(value) =
            decode_payload(read_u64(record, 32), read_u64(record, 40), read_u64(record, 48))
        else {
            report.skipped += 1;
            continue;
        };
        cache.insert(key, value);
        report.loaded += 1;
    }
    if report.loaded + report.skipped < declared {
        report.truncated = true;
    }
    Ok(report)
}

/// Write `bytes` to `path` through a same-directory temp file + rename,
/// so a concurrent reader never observes a half-written file and a
/// crash leaves either the old file or the new one. A failed write or
/// rename removes the temp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let result = fs::write(&tmp, bytes).and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Write the cache to `path` atomically ([`write_atomic`]).
pub fn save(cache: &MeasurementCache, path: impl AsRef<Path>) -> Result<SaveReport, StoreError> {
    let _span = hmpt_obs::span("store.save");
    let (bytes, report) = to_bytes(cache);
    hmpt_obs::counter("store.bytes_written").add(bytes.len() as u64);
    write_atomic(path.as_ref(), &bytes)?;
    Ok(report)
}

/// Append `entries` after the records of the snapshot at `path`,
/// creating it (header first) if it does not exist, in one write. A
/// file that does not end on a record boundary is refused: a record
/// appended after a torn tail would be misaligned, and so lost, with
/// every record after it. A failed write can itself leave a torn tail,
/// so after an error the caller must rewrite the snapshot instead.
pub fn append(
    path: impl AsRef<Path>,
    entries: &[(CellKey, Result<CellOutcome, TunerError>)],
) -> Result<SaveReport, StoreError> {
    let _span = hmpt_obs::span("store.append");
    let mut file = fs::OpenOptions::new().create(true).append(true).open(path)?;
    let (len, header_len) = (file.metadata()?.len(), HEADER_LEN as u64);
    if len > 0 && (len < header_len || !(len - header_len).is_multiple_of(RECORD_LEN as u64)) {
        return Err(StoreError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("snapshot of {len} bytes ends inside a record"),
        )));
    }
    let mut bytes = Vec::with_capacity(HEADER_LEN + entries.len() * RECORD_LEN);
    if len == 0 {
        bytes.extend_from_slice(&header(0));
    }
    let report = put_records(&mut bytes, entries);
    hmpt_obs::counter("store.bytes_written").add(bytes.len() as u64);
    file.write_all(&bytes)?;
    Ok(report)
}

/// Render one line-log record, `<checksum16> <json>`, without its line
/// break. Compact JSON escapes every control character, so the record
/// is one line whatever strings it carries.
fn encode_line<T: Serialize + ?Sized>(value: &T) -> String {
    let json = serde_json::to_string(value).expect("compact JSON serialization is infallible");
    format!("{:016x} {json}", checksum(json.as_bytes()))
}

/// Decode one line-log record, without its line break; `None` marks it
/// damaged: not `<checksum16> <json>` exactly as [`encode_line`] spells
/// it for that JSON, or JSON that does not decode as `T`.
fn decode_line<T: Deserialize>(line: &[u8]) -> Option<T> {
    let (sum, json) = std::str::from_utf8(line).ok()?.split_once(' ')?;
    if sum != format!("{:016x}", checksum(json.as_bytes())) {
        return None;
    }
    serde_json::from_str(json).ok()
}

/// Read the line log at `path`: its intact records in file order, and
/// the number of non-empty lines skipped as damaged. A missing file is
/// an empty log.
pub fn read_lines<T: Deserialize>(path: &Path) -> io::Result<(Vec<T>, u64)> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e),
    };
    let (mut records, mut skipped) = (Vec::new(), 0);
    for line in bytes.split(|&b| b == b'\n').filter(|line| !line.is_empty()) {
        match decode_line(line) {
            Some(record) => records.push(record),
            None => skipped += 1,
        }
    }
    Ok((records, skipped))
}

/// Append `record` to the line log at `path` in one write, creating the
/// file if needed. A log that does not end in a line break — a torn
/// last line — gets one first, so the record starts a fresh line and a
/// reader loses only the torn one. Counted under
/// `store.line_bytes_written`, apart from the cache's binary files.
pub fn append_line<T: Serialize + ?Sized>(path: &Path, record: &T) -> io::Result<()> {
    let mut file = fs::OpenOptions::new().read(true).append(true).create(true).open(path)?;
    let mut text = String::new();
    if file.metadata()?.len() > 0 {
        let mut last = [0u8];
        file.seek(io::SeekFrom::End(-1))?;
        file.read_exact(&mut last)?;
        if last[0] != b'\n' {
            text.push('\n');
        }
    }
    text.push_str(&encode_line(record));
    text.push('\n');
    hmpt_obs::counter("store.line_bytes_written").add(text.len() as u64);
    file.write_all(text.as_bytes())
}

/// Rewrite the line log at `path` to hold exactly `records`, in order,
/// atomically ([`write_atomic`]): the line-log counterpart of [`save`].
/// Counted under `store.line_bytes_written`, like [`append_line`].
pub fn write_lines<'a, T: Serialize + 'a>(
    path: &Path,
    records: impl IntoIterator<Item = &'a T>,
) -> io::Result<()> {
    let text: String = records.into_iter().map(|record| encode_line(record) + "\n").collect();
    hmpt_obs::counter("store.line_bytes_written").add(text.len() as u64);
    write_atomic(path, text.as_bytes())
}

/// Load a snapshot into an existing cache (preload / warm-start path;
/// counters are untouched, last write wins on identical keys).
pub fn load_into(
    cache: &MeasurementCache,
    path: impl AsRef<Path>,
) -> Result<LoadReport, StoreError> {
    let _span = hmpt_obs::span("store.load");
    let bytes = fs::read(path)?;
    hmpt_obs::counter("store.bytes_read").add(bytes.len() as u64);
    from_bytes(&bytes, cache)
}

/// Warm-start `cache` from the snapshot at `path`, if the file exists,
/// and return what the load recovered, or `None` if nothing was read.
/// An unusable snapshot (foreign format or key semantics, header
/// damage, I/O failure) is a cold start, not an error; it and a partial
/// recovery are reported as `target` warnings naming `subject` — a
/// warm start that silently re-simulates from cold is just an
/// unexplained slow run.
pub fn preload(
    cache: &MeasurementCache,
    path: &Path,
    target: &'static str,
    subject: &str,
) -> Option<LoadReport> {
    if !path.exists() {
        return None;
    }
    match load_into(cache, path) {
        Ok(report) => {
            if report.skipped > 0 || report.truncated {
                hmpt_obs::warn(
                    target,
                    format!(
                        "{subject} {} partially recovered ({} cells loaded, {} skipped{})",
                        path.display(),
                        report.loaded,
                        report.skipped,
                        if report.truncated { ", truncated" } else { "" }
                    ),
                );
            }
            Some(report)
        }
        Err(e) => {
            hmpt_obs::warn(
                target,
                format!("{subject} {} ignored (cold start): {e}", path.display()),
            );
            None
        }
    }
}

/// The one owner of a cache's snapshot file, for the CLI's
/// save-on-finish and the campaign service alike: [`Self::open`]
/// preloads the file, [`Self::persist`] appends to it or rewrites it
/// (see the module docs).
#[derive(Debug)]
pub struct CacheFile {
    path: PathBuf,
    /// The `hmpt_obs` target of its warnings.
    target: &'static str,
    /// What the file holds; `None` makes the next persist rewrite it.
    held: Mutex<Option<Held>>,
}

/// The cells a [`CacheFile`] holds: those inserted before `mark`, `len`
/// of them (the cache shrinks only when the size bound evicts, which
/// rewrites), and the `room` left for appends: the records its last
/// rewrite wrote, less those appended since.
#[derive(Debug)]
struct Held {
    mark: Mark,
    len: usize,
    room: u64,
}

impl CacheFile {
    /// Preload the snapshot at `path` into `cache` as [`preload`] does,
    /// and return its owner and what the load recovered. Unless the file
    /// was read whole into an empty cache, the first persist rewrites it.
    pub fn open(
        path: impl Into<PathBuf>,
        cache: &MeasurementCache,
        target: &'static str,
        subject: &str,
    ) -> (CacheFile, Option<LoadReport>) {
        let path = path.into();
        let was_empty = cache.is_empty();
        let load = preload(cache, &path, target, subject);
        let held = match load {
            Some(report) if was_empty && report.is_clean() => declared(&path)
                .ok()
                .map(|declared| declared.saturating_sub(report.loaded.saturating_sub(declared))),
            _ => None,
        }
        .map(|room| Held { mark: cache.mark(), len: cache.len(), room });
        (CacheFile { path, target, held: Mutex::new(held) }, load)
    }

    /// Bring the file up to date with `cache`, evicted to `max_records`
    /// first: append the cells added since the last write, or rewrite
    /// the file sorted ([`save`]; see the module docs). `Ok(None)` when
    /// the file already holds the cache, decided by its length alone.
    pub fn persist(
        &self,
        cache: &MeasurementCache,
        max_records: Option<u64>,
    ) -> Result<Option<SaveReport>, StoreError> {
        let mut held = self.held.lock().expect("cache file state poisoned");
        if max_records.is_some_and(|max| cache.compact(max as usize) > 0) {
            *held = None;
        }
        if let Some(h) = held.as_mut() {
            match cache.len().checked_sub(h.len) {
                Some(0) => return Ok(None),
                Some(added) if added as u64 <= h.room => {
                    let mark = cache.mark();
                    match append(&self.path, &cache.added_since(h.mark)) {
                        Ok(saved) => {
                            *h = Held { mark, len: h.len + added, room: h.room - added as u64 };
                            return Ok(Some(saved));
                        }
                        Err(e) => hmpt_obs::warn(
                            self.target,
                            format!("{}: append failed, rewriting: {e}", self.path.display()),
                        ),
                    }
                }
                _ => {}
            }
        }
        *held = None;
        let (mark, len) = (cache.mark(), cache.len());
        let saved = save(cache, &self.path)?;
        *held = Some(Held { mark, len, room: saved.saved });
        Ok(Some(saved))
    }
}

/// The record count the header of the snapshot at `path` declares: the
/// records of its last rewrite, after which the rest were appended.
fn declared(path: &Path) -> io::Result<u64> {
    let mut header = [0u8; HEADER_LEN];
    fs::File::open(path)?.read_exact(&mut header)?;
    Ok(read_u64(&header, 16))
}

/// Load a snapshot into a fresh cache.
pub fn load(path: impl AsRef<Path>) -> Result<(MeasurementCache, LoadReport), StoreError> {
    let cache = MeasurementCache::new();
    let report = load_into(&cache, path)?;
    Ok((cache, report))
}

/// Merge any number of snapshots into `cache`, last write wins — a
/// no-op resolution, since equal keys imply bit-identical measurements.
/// Fails on the first unusable snapshot (header-level damage).
pub fn merge_into<P: AsRef<Path>>(
    cache: &MeasurementCache,
    paths: &[P],
) -> Result<LoadReport, StoreError> {
    let _span = hmpt_obs::span("store.merge");
    let mut total = LoadReport::default();
    for path in paths {
        total.absorb(load_into(cache, path)?);
    }
    Ok(total)
}

/// What [`compact`] did to a snapshot.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct CompactReport {
    /// Records read from the snapshot (damaged ones were already
    /// dropped by the load — compacting a partially corrupt snapshot
    /// also sheds its unreadable records).
    pub loaded: u64,
    /// Records skipped by the load (failed checksum / undecodable).
    pub unreadable: u64,
    /// Records the size bound evicted.
    pub evicted: u64,
    /// Records in the rewritten snapshot.
    pub kept: u64,
}

/// Bound a snapshot to at most `max_records` records, rewriting it in
/// place (atomic temp-file + rename; records are individually
/// checksummed, so the rewrite never degrades a readable record).
///
/// A snapshot file carries no usage history, so file-level compaction
/// keeps a deterministic subset: the load walks records in file order
/// (a rewrite's key order, then any appends), the newest load stamp
/// wins, so the *last* records survive. For genuinely least-recently-used eviction, bound the live
/// cache instead ([`MeasurementCache::compact`], or
/// `cache.max_records` in a campaign spec) and let save-on-finish
/// persist the swept cache — entries the run never touched age out.
pub fn compact(path: impl AsRef<Path>, max_records: usize) -> Result<CompactReport, StoreError> {
    let path = path.as_ref();
    let cache = MeasurementCache::new();
    let load = load_into(&cache, path)?;
    let evicted = cache.compact(max_records);
    let save = save(&cache, path)?;
    Ok(CompactReport { loaded: load.loaded, unreadable: load.skipped, evicted, kept: save.saved })
}

/// In-memory merge of snapshot byte buffers (the file-less counterpart
/// of [`merge_into`], for tests and embedding).
pub fn merge_bytes(
    cache: &MeasurementCache,
    snapshots: &[&[u8]],
) -> Result<LoadReport, StoreError> {
    let mut total = LoadReport::default();
    for bytes in snapshots {
        total.absorb(from_bytes(bytes, cache)?);
    }
    Ok(total)
}

/// Fold every entry of `src` into `dst` through the snapshot wire
/// format (serialize with [`to_bytes`], absorb with [`merge_bytes`]),
/// so the fold exercises the same checksummed record path as a file
/// round-trip and inherits its last-write-wins collision rule.
pub fn fold(dst: &MeasurementCache, src: &MeasurementCache) -> LoadReport {
    let (bytes, _) = to_bytes(src);
    merge_bytes(dst, &[&bytes]).expect("snapshot bytes from to_bytes always parse")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(a: u64, b: u64, c: u64, d: u64) -> CellKey {
        (
            Fingerprint::from_raw(a),
            Fingerprint::from_raw(b),
            Fingerprint::from_raw(c),
            Fingerprint::from_raw(d),
        )
    }

    fn sample_cache() -> MeasurementCache {
        let cache = MeasurementCache::new();
        cache.insert(key(1, 2, 3, 4), Ok(CellOutcome { time_s: 1.25, hbm_fraction: 0.5 }));
        cache.insert(key(5, 6, 7, 8), Ok(CellOutcome { time_s: 0.75, hbm_fraction: 1.0 }));
        cache.insert(
            key(9, 10, 11, 12),
            Err(TunerError::Alloc(AllocError::PoolExhausted {
                pool: PoolKind::Hbm,
                requested: 1 << 34,
                available: 1 << 33,
            })),
        );
        cache.insert(key(13, 14, 15, 16), Err(TunerError::EmptyWorkload));
        cache
    }

    /// Snapshot bytes with the header's version fields rewritten and its
    /// checksum recomputed, as a writer of that version would stamp them.
    fn restamped(bytes: &[u8], format: u32, semantics: u32) -> Vec<u8> {
        let mut b = bytes.to_vec();
        b[8..12].copy_from_slice(&format.to_le_bytes());
        b[12..16].copy_from_slice(&semantics.to_le_bytes());
        let sum = checksum(&b[..HEADER_LEN - 8]);
        b[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        b
    }

    fn assert_same_entries(a: &MeasurementCache, b: &MeasurementCache) {
        let mut ea = a.entries();
        let mut eb = b.entries();
        ea.sort_by_key(|(k, _)| *k);
        eb.sort_by_key(|(k, _)| *k);
        assert_eq!(ea.len(), eb.len());
        for ((ka, va), (kb, vb)) in ea.iter().zip(&eb) {
            assert_eq!(ka, kb);
            match (va, vb) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.time_s.to_bits(), y.time_s.to_bits());
                    assert_eq!(x.hbm_fraction.to_bits(), y.hbm_fraction.to_bits());
                }
                (Err(x), Err(y)) => assert_eq!(format!("{x}"), format!("{y}")),
                _ => panic!("Ok/Err mismatch at {ka:?}"),
            }
        }
    }

    #[test]
    fn compact_bounds_a_snapshot_in_place() {
        let path = std::env::temp_dir().join(format!("hmpt-compact-{}.bin", std::process::id()));
        let cache = MeasurementCache::new();
        for i in 0..20 {
            cache.insert(key(i, 1, 2, 3), Ok(CellOutcome { time_s: i as f64, hbm_fraction: 0.1 }));
        }
        save(&cache, &path).unwrap();
        let r = compact(&path, 8).unwrap();
        assert_eq!((r.loaded, r.unreadable, r.evicted, r.kept), (20, 0, 12, 8));
        let (compacted, load) = load(&path).unwrap();
        assert_eq!(load.loaded, 8);
        // Load order is file order is key order, so the highest keys
        // carry the newest stamps and survive — deterministically.
        for i in 12..20 {
            assert!(compacted.get(&key(i, 1, 2, 3)).is_some(), "key {i} must survive");
        }
        // Under the bound, a re-compact rewrites without evicting.
        let r2 = compact(&path, 8).unwrap();
        assert_eq!((r2.evicted, r2.kept), (0, 8));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fold_absorbs_a_cache_bit_for_bit_with_last_write_wins() {
        let shared = MeasurementCache::new();
        shared.insert(key(1, 2, 3, 4), Ok(CellOutcome { time_s: 9.0, hbm_fraction: 0.9 }));
        let job = sample_cache();
        let report = fold(&shared, &job);
        assert_eq!(report, LoadReport { loaded: 4, skipped: 0, truncated: false });
        // The job's value for the colliding key wins, like merge_into.
        assert_same_entries(&shared, &job);
        // Folding is idempotent and never fakes cache traffic.
        fold(&shared, &job);
        assert_same_entries(&shared, &job);
        assert_eq!(shared.stats().hits + shared.stats().misses, 0);
    }

    #[test]
    fn round_trip_preserves_every_entry_bit_for_bit() {
        let cache = sample_cache();
        let (bytes, saved) = to_bytes(&cache);
        assert_eq!(saved, SaveReport { saved: 4, skipped: 0 });
        assert_eq!(bytes.len(), HEADER_LEN + 4 * RECORD_LEN);

        let restored = MeasurementCache::new();
        let report = from_bytes(&bytes, &restored).unwrap();
        assert_eq!(report, LoadReport { loaded: 4, skipped: 0, truncated: false });
        assert_same_entries(&cache, &restored);
        // Preloading never fakes cache traffic.
        assert_eq!(restored.stats().hits + restored.stats().misses, 0);
    }

    #[test]
    fn snapshot_bytes_are_deterministic_and_sorted() {
        // Same content inserted in different orders → identical bytes.
        let a = sample_cache();
        let b = MeasurementCache::new();
        let mut entries = a.entries();
        entries.reverse();
        for (k, v) in entries {
            b.insert(k, v);
        }
        assert_eq!(to_bytes(&a).0, to_bytes(&b).0);

        // Records really are key-sorted in the byte stream.
        let (bytes, _) = to_bytes(&a);
        let firsts: Vec<u64> =
            bytes[HEADER_LEN..].chunks(RECORD_LEN).map(|r| read_u64(r, 0)).collect();
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        assert_eq!(firsts, sorted);
    }

    #[test]
    fn empty_cache_round_trips() {
        let (bytes, saved) = to_bytes(&MeasurementCache::new());
        assert_eq!(saved.saved, 0);
        assert_eq!(bytes.len(), HEADER_LEN);
        let restored = MeasurementCache::new();
        let report = from_bytes(&bytes, &restored).unwrap();
        assert_eq!(report, LoadReport::default());
        assert!(restored.is_empty());
    }

    #[test]
    fn unencodable_entries_are_skipped_and_counted() {
        let cache = sample_cache();
        cache.insert(
            key(90, 91, 92, 93),
            Err(TunerError::InvalidMachine { name: "m".into(), reason: "r".into() }),
        );
        let (bytes, saved) = to_bytes(&cache);
        assert_eq!(saved, SaveReport { saved: 4, skipped: 1 });
        let restored = MeasurementCache::new();
        assert_eq!(from_bytes(&bytes, &restored).unwrap().loaded, 4);
    }

    #[test]
    fn flipped_record_byte_skips_only_that_record() {
        let cache = sample_cache();
        let (mut bytes, _) = to_bytes(&cache);
        // Damage one byte inside the second record's payload.
        bytes[HEADER_LEN + RECORD_LEN + 40] ^= 0x40;
        let restored = MeasurementCache::new();
        let report = from_bytes(&bytes, &restored).unwrap();
        assert_eq!(report, LoadReport { loaded: 3, skipped: 1, truncated: false });
        assert_eq!(restored.len(), 3);
    }

    #[test]
    fn truncated_snapshot_loads_the_good_prefix() {
        let cache = sample_cache();
        let (bytes, _) = to_bytes(&cache);
        // Cut mid-way through the third record.
        let cut = HEADER_LEN + 2 * RECORD_LEN + 17;
        let restored = MeasurementCache::new();
        let report = from_bytes(&bytes[..cut], &restored).unwrap();
        assert_eq!(report.loaded, 2);
        assert!(report.truncated);
        // Cut exactly on a record boundary: no partial record, but the
        // declared count exposes the loss.
        let restored = MeasurementCache::new();
        let report = from_bytes(&bytes[..HEADER_LEN + RECORD_LEN], &restored).unwrap();
        assert_eq!(report.loaded, 1);
        assert!(report.truncated);
    }

    #[test]
    fn header_level_damage_discards_the_snapshot() {
        let (bytes, _) = to_bytes(&sample_cache());

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            from_bytes(&bad_magic, &MeasurementCache::new()),
            Err(StoreError::NotASnapshot)
        ));

        // Version flips are caught by the header checksum first…
        let mut bad_version = bytes.clone();
        bad_version[8] ^= 0x02;
        assert!(matches!(
            from_bytes(&bad_version, &MeasurementCache::new()),
            Err(StoreError::CorruptHeader)
        ));

        // …while a *consistent* foreign version (checksum recomputed, as
        // a future writer would) is named precisely.
        let reversion = |format: u32, semantics: u32| restamped(&bytes, format, semantics);
        assert!(matches!(
            from_bytes(&reversion(FORMAT_VERSION + 1, SEMANTICS_VERSION), &MeasurementCache::new()),
            Err(StoreError::UnsupportedFormat { found }) if found == FORMAT_VERSION + 1
        ));
        for semantics in [SEMANTICS_VERSION - 1, SEMANTICS_VERSION + 1] {
            assert!(matches!(
                from_bytes(&reversion(FORMAT_VERSION, semantics), &MeasurementCache::new()),
                Err(StoreError::SemanticsMismatch { found }) if found == semantics
            ));
        }

        assert!(matches!(
            from_bytes(&bytes[..HEADER_LEN - 3], &MeasurementCache::new()),
            Err(StoreError::CorruptHeader)
        ));
        assert!(matches!(from_bytes(b"", &MeasurementCache::new()), Err(StoreError::NotASnapshot)));
    }

    #[test]
    fn merge_is_last_write_wins_on_identical_keys() {
        // Two snapshots sharing key(1,2,3,4) — by the cache-key
        // contract their payloads are identical, so LWW changes nothing.
        let a = sample_cache();
        let b = MeasurementCache::new();
        b.insert(key(1, 2, 3, 4), Ok(CellOutcome { time_s: 1.25, hbm_fraction: 0.5 }));
        b.insert(key(21, 22, 23, 24), Ok(CellOutcome { time_s: 9.0, hbm_fraction: 0.0 }));
        let (ba, _) = to_bytes(&a);
        let (bb, _) = to_bytes(&b);

        let merged = MeasurementCache::new();
        let report = merge_bytes(&merged, &[&ba[..], &bb[..]]).unwrap();
        assert_eq!(report.loaded, 6, "4 + 2 records loaded, one key twice");
        assert_eq!(merged.len(), 5);
        assert_eq!(merged.get(&key(1, 2, 3, 4)).unwrap().unwrap().time_s, 1.25);
        assert_eq!(merged.get(&key(21, 22, 23, 24)).unwrap().unwrap().time_s, 9.0);
    }

    #[test]
    fn preload_warm_starts_what_it_can_and_cold_starts_the_rest() {
        let path = std::env::temp_dir().join(format!("hmpt-preload-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cache = MeasurementCache::new();
        assert_eq!(preload(&cache, &path, "test", "snapshot"), None, "no file: cold start");

        let (mut bytes, _) = to_bytes(&sample_cache());
        bytes[HEADER_LEN + RECORD_LEN + 40] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            preload(&cache, &path, "test", "snapshot"),
            Some(LoadReport { loaded: 3, skipped: 1, truncated: false }),
            "damaged record skipped"
        );

        // A snapshot written under the previous key semantics.
        std::fs::write(&path, restamped(&bytes, FORMAT_VERSION, SEMANTICS_VERSION - 1)).unwrap();
        let cold = MeasurementCache::new();
        assert_eq!(
            preload(&cold, &path, "test", "snapshot"),
            None,
            "foreign semantics: cold start"
        );
        assert!(cold.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_build_a_journal_that_loads_like_a_snapshot() {
        let path = std::env::temp_dir().join(format!("hmpt-journal-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cache = sample_cache();
        let mut entries = cache.entries();
        entries.sort_by_key(|(k, _)| *k);
        assert_eq!(append(&path, &entries[..1]).unwrap(), SaveReport { saved: 1, skipped: 0 });
        assert_eq!(append(&path, &entries[1..]).unwrap(), SaveReport { saved: 3, skipped: 0 });
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), HEADER_LEN + 4 * RECORD_LEN);
        assert_eq!(bytes[..HEADER_LEN], header(0), "a journal's header declares 0 records");

        let (restored, report) = load(&path).unwrap();
        assert_eq!(report, LoadReport { loaded: 4, skipped: 0, truncated: false });
        assert_same_entries(&cache, &restored);

        // A torn tail is never appended after.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(append(&path, &entries), Err(StoreError::Io(_))));
        assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, bytes.len() - 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_cache_file_appends_within_its_last_rewrite_and_rewrites_past_it() {
        let path = std::env::temp_dir().join(format!("hmpt-cache-file-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cell = |i: u64| Ok(CellOutcome { time_s: i as f64, hbm_fraction: 0.5 });
        let add = |cache: &MeasurementCache, keys: std::ops::Range<u64>| {
            keys.for_each(|i| cache.insert(key(i, 0, 0, 0), cell(i)))
        };
        let saved = |n| Some(SaveReport { saved: n, skipped: 0 });
        let cache = MeasurementCache::new();
        let (file, load) = CacheFile::open(&path, &cache, "test", "snapshot");
        assert_eq!(load, None);
        add(&cache, 0..4);
        assert_eq!(file.persist(&cache, None).unwrap(), saved(4));
        let rewrite = std::fs::read(&path).unwrap();
        assert_eq!(rewrite, to_bytes(&cache).0, "a rewrite is the sorted snapshot");
        add(&cache, 4..7);
        assert_eq!(
            file.persist(&cache, None).unwrap(),
            saved(3),
            "three appends fit the rewrite's four"
        );
        let appended = std::fs::read(&path).unwrap();
        assert_eq!(appended.len(), HEADER_LEN + 7 * RECORD_LEN);
        assert!(appended.starts_with(&rewrite));
        assert_eq!(file.persist(&cache, None).unwrap(), None, "the file holds the cache");

        // A fresh owner finds three of the rewrite's four records
        // appended, so room for one more.
        let reopened = MeasurementCache::new();
        let (file, load) = CacheFile::open(&path, &reopened, "test", "snapshot");
        assert_eq!(load, Some(LoadReport { loaded: 7, skipped: 0, truncated: false }));
        add(&reopened, 7..8);
        assert_eq!(file.persist(&reopened, None).unwrap(), saved(1));
        add(&reopened, 8..9);
        assert_eq!(file.persist(&reopened, None).unwrap(), saved(9), "past the room: a rewrite");
        assert_eq!(std::fs::read(&path).unwrap(), to_bytes(&reopened).0);

        // A torn tail refuses the next append, which rewrites instead.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        add(&reopened, 9..10);
        assert_eq!(file.persist(&reopened, None).unwrap(), saved(10));
        assert_eq!(std::fs::read(&path).unwrap(), to_bytes(&reopened).0);

        // An eviction rewrites to the bound, whatever it adds.
        assert_eq!(file.persist(&reopened, Some(6)).unwrap(), saved(6));
        assert_eq!(load_into(&MeasurementCache::new(), &path).unwrap().loaded, 6);

        // A preload into a cache that holds more than the file makes the
        // first persist rewrite, with no cell added.
        let other = MeasurementCache::new();
        add(&other, 20..21);
        let (file, _) = CacheFile::open(&path, &other, "test", "snapshot");
        assert_eq!(file.persist(&other, None).unwrap(), saved(7));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_line_log_skips_damaged_lines_and_never_continues_a_torn_one() {
        let path = std::env::temp_dir().join(format!("hmpt-lines-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_lines::<Vec<String>>(&path).unwrap(), (vec![], 0), "no file: empty log");
        let records: Vec<Vec<String>> =
            vec![vec!["a".into()], vec!["b\nc".into(), "\"".into()], vec![]];
        for record in &records {
            append_line(&path, record).unwrap();
        }
        assert_eq!(read_lines(&path).unwrap(), (records.clone(), 0));

        // Flip a byte of the first record's JSON and tear the last line.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x01;
        bytes.truncate(bytes.len() - 2);
        std::fs::write(&path, &bytes).unwrap();
        append_line(&path, &records[0]).unwrap();
        assert_eq!(read_lines(&path).unwrap(), (vec![records[1].clone(), records[0].clone()], 2));
        // A rewrite holds exactly its records.
        write_lines(&path, &records).unwrap();
        assert_eq!(read_lines(&path).unwrap(), (records, 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failed_rename_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("hmpt-atomic-{}", std::process::id()));
        let target = dir.join("occupied");
        std::fs::create_dir_all(&target).unwrap();
        // Renaming a file onto an existing directory fails.
        assert!(write_atomic(&target, b"payload").is_err());
        let left: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, vec![std::ffi::OsString::from("occupied")], "temp file left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_round_trip_via_temp_path() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("hmpt-store-test-{}.bin", std::process::id()));
        let cache = sample_cache();
        let saved = save(&cache, &path).unwrap();
        assert_eq!(saved.saved, 4);
        let (restored, report) = load(&path).unwrap();
        assert_eq!(report.loaded, 4);
        assert_same_entries(&cache, &restored);
        // load_into on a warm cache merges (LWW).
        let report = load_into(&restored, &path).unwrap();
        assert_eq!(report.loaded, 4);
        assert_eq!(restored.len(), 4);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(load_into(&restored, &path), Err(StoreError::Io(_))));
    }
}
