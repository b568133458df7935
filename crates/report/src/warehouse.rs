//! The warehouse: durable, corruption-tolerant storage for
//! [`CampaignRecord`]s.
//!
//! ## Layout
//!
//! ```text
//! <dir>/
//!   index.jsonl            one line per record: `<checksum16> <entry-json>`
//!   records/
//!     <fp8>-<label>-r<rev>.json    the CampaignRecord payload
//! ```
//!
//! The same discipline as `hmpt_core::store`:
//!
//! * **Atomic payloads** — each record payload is written through
//!   [`hmpt_core::store::write_atomic`]: a `*.tmp.<pid>` sibling renamed
//!   into place, so a concurrent reader never observes a half-written
//!   payload.
//! * **An appended index** — the index is a store line log: an ingest
//!   appends its one entry line ([`store::append_line`]) once the
//!   payload is on disk, and never rewrites the lines before it. Each
//!   line starts with a 16-hex-digit `StableHasher` checksum of the
//!   entry JSON that follows. A damaged or truncated line fails its
//!   checksum and is skipped *individually*; every intact line still
//!   loads ([`LoadReport`] counts the damage), and the next ingest
//!   starts a fresh line after a torn one. There is no header to
//!   corrupt: an index is pure repeated records.
//! * **Payload checksums** — each entry stores the checksum of its
//!   record file's bytes. A record whose bytes no longer match is
//!   reported as [`WarehouseError::RecordDamaged`] on load instead of
//!   being half-trusted.
//!
//! Revisions are monotonic per (`spec_fingerprint`, `label`): ingest
//! stamps `max + 1` unless the caller pinned one explicitly, and
//! refuses to overwrite an existing revision — warehouse history is
//! append-only.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use hmpt_core::store;
use hmpt_sim::fingerprint::StableHasher;
use serde::{Deserialize, Serialize};

use crate::record::CampaignRecord;

/// Name of the index file inside a warehouse directory.
pub const INDEX_FILE: &str = "index.jsonl";

/// Name of the payload subdirectory.
pub const RECORDS_DIR: &str = "records";

/// One index line: where a record lives and how to verify it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexEntry {
    pub fingerprint: String,
    pub label: String,
    pub revision: u64,
    /// Payload path relative to the warehouse directory.
    pub file: String,
    /// `StableHasher` checksum of the payload file's bytes.
    pub payload_checksum: u64,
}

impl IndexEntry {
    /// The `label@revision` selector that resolves back to this entry.
    pub fn selector(&self) -> String {
        format!("{}@{}", self.label, self.revision)
    }
}

/// What an index load recovered (and what it had to give up) — the
/// JSONL analogue of `hmpt_core::store::LoadReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LoadReport {
    /// Index lines decoded and kept.
    pub loaded: u64,
    /// Lines skipped for a bad checksum, undecodable JSON, or a
    /// truncated tail.
    pub skipped: u64,
}

/// Why a warehouse operation failed outright (index-line damage is
/// *not* an error — see [`LoadReport`]).
#[derive(Debug)]
pub enum WarehouseError {
    Io(io::Error),
    /// The (fingerprint, label, revision) slot is already taken —
    /// history is append-only.
    RevisionExists {
        label: String,
        revision: u64,
    },
    /// No index entry matches the selector.
    NoSuchRecord {
        selector: String,
    },
    /// The record file's bytes fail the checksum its index entry
    /// recorded (or fail to parse as a record).
    RecordDamaged {
        file: String,
        detail: String,
    },
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::Io(e) => write!(f, "warehouse I/O failure: {e}"),
            WarehouseError::RevisionExists { label, revision } => write!(
                f,
                "record {label}@{revision} already exists — warehouse history is append-only \
                 (ingest without --rev to get the next free revision)"
            ),
            WarehouseError::NoSuchRecord { selector } => {
                write!(f, "no warehouse record matches `{selector}`")
            }
            WarehouseError::RecordDamaged { file, detail } => {
                write!(f, "record file {file} is damaged: {detail}")
            }
        }
    }
}

impl std::error::Error for WarehouseError {}

impl From<io::Error> for WarehouseError {
    fn from(e: io::Error) -> Self {
        WarehouseError::Io(e)
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Only filename-safe bytes survive into record filenames; everything
/// else becomes `-`. Identity lives in the index entry, not the name.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '-' })
        .collect()
}

/// A warehouse directory, opened (and created) on construction.
#[derive(Debug, Clone)]
pub struct Warehouse {
    dir: PathBuf,
}

impl Warehouse {
    /// Open `dir` as a warehouse, creating it (and `records/`) if
    /// needed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Warehouse, WarehouseError> {
        let dir = dir.into();
        fs::create_dir_all(dir.join(RECORDS_DIR))?;
        Ok(Warehouse { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn index_path(&self) -> PathBuf {
        self.dir.join(INDEX_FILE)
    }

    /// Load the index, skipping damaged lines individually. A missing
    /// index file is an empty warehouse, not an error.
    pub fn index(&self) -> Result<(Vec<IndexEntry>, LoadReport), WarehouseError> {
        let (entries, skipped) = store::read_lines(&self.index_path())?;
        let report = LoadReport { loaded: entries.len() as u64, skipped };
        Ok((entries, report))
    }

    /// Ingest a record: stamp the next free revision (unless the caller
    /// pinned one), write the payload atomically, and append its index
    /// line. Returns the entry under which the record is now
    /// addressable.
    pub fn ingest(&self, mut record: CampaignRecord) -> Result<IndexEntry, WarehouseError> {
        let (entries, _) = self.index()?;
        let series =
            |e: &IndexEntry| e.fingerprint == record.spec_fingerprint && e.label == record.label;
        if record.revision == 0 {
            record.revision =
                entries.iter().filter(|e| series(e)).map(|e| e.revision).max().unwrap_or(0) + 1;
        } else if entries.iter().any(|e| series(e) && e.revision == record.revision) {
            return Err(WarehouseError::RevisionExists {
                label: record.label.clone(),
                revision: record.revision,
            });
        }

        let fp8: String = record.spec_fingerprint.chars().take(8).collect();
        let file = format!(
            "{RECORDS_DIR}/{}-{}-r{}.json",
            sanitize(&fp8),
            sanitize(&record.label),
            record.revision
        );
        let payload = record.to_json_string();
        store::write_atomic(&self.dir.join(&file), payload.as_bytes())?;

        let entry = IndexEntry {
            fingerprint: record.spec_fingerprint.clone(),
            label: record.label.clone(),
            revision: record.revision,
            file,
            payload_checksum: checksum(payload.as_bytes()),
        };
        store::append_line(&self.index_path(), &entry)?;
        Ok(entry)
    }

    /// Load the record an entry points to, verifying its payload
    /// checksum first.
    pub fn load(&self, entry: &IndexEntry) -> Result<CampaignRecord, WarehouseError> {
        let bytes = fs::read(self.dir.join(&entry.file))?;
        if checksum(&bytes) != entry.payload_checksum {
            return Err(WarehouseError::RecordDamaged {
                file: entry.file.clone(),
                detail: "payload bytes fail the index entry's checksum".to_string(),
            });
        }
        let text = String::from_utf8(bytes).map_err(|e| WarehouseError::RecordDamaged {
            file: entry.file.clone(),
            detail: format!("not UTF-8: {e}"),
        })?;
        CampaignRecord::from_artifact_text(&text, &entry.label)
            .map_err(|e| WarehouseError::RecordDamaged { file: entry.file.clone(), detail: e })
    }

    /// Resolve a `label` (latest revision) or `label@rev` (exact)
    /// selector to its index entry.
    pub fn resolve(&self, selector: &str) -> Result<IndexEntry, WarehouseError> {
        let (entries, _) = self.index()?;
        let found = match selector.rsplit_once('@') {
            Some((label, rev)) => match rev.parse::<u64>() {
                Ok(rev) => entries.into_iter().find(|e| e.label == label && e.revision == rev),
                // An `@` with a non-numeric tail is part of the label.
                Err(_) => latest(entries, selector),
            },
            None => latest(entries, selector),
        };
        found.ok_or_else(|| WarehouseError::NoSuchRecord { selector: selector.to_string() })
    }

    /// Every entry (optionally filtered by label), ordered by
    /// (fingerprint, label, revision) — the trend view's input order.
    pub fn series(&self, label: Option<&str>) -> Result<Vec<IndexEntry>, WarehouseError> {
        let (mut entries, _) = self.index()?;
        if let Some(l) = label {
            entries.retain(|e| e.label == l);
        }
        entries.sort_by(|a, b| {
            (&a.fingerprint, &a.label, a.revision).cmp(&(&b.fingerprint, &b.label, b.revision))
        });
        Ok(entries)
    }
}

/// The highest revision carrying `label`, across fingerprints.
fn latest(entries: Vec<IndexEntry>, label: &str) -> Option<IndexEntry> {
    entries.into_iter().filter(|e| e.label == label).max_by_key(|e| e.revision)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hmpt-warehouse-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(label: &str, fp: &str, speedup: f64) -> CampaignRecord {
        let mut r = CampaignRecord::new(label);
        r.spec_fingerprint = fp.to_string();
        r.scenarios.push(crate::record::ScenarioSnapshot {
            key: "m·w".into(),
            machine: "m".into(),
            workload: "w".into(),
            max_speedup: speedup,
            hbm_only_speedup: speedup,
            usage_90_pct: 0.5,
            best_groups: vec!["grid".into()],
            budgeted_config: "grid".into(),
            budgeted_speedup: speedup,
        });
        r
    }

    #[test]
    fn ingest_stamps_monotonic_revisions_and_round_trips() {
        let dir = temp_dir("roundtrip");
        let w = Warehouse::open(&dir).unwrap();
        let e1 = w.ingest(record("zoo", "aa", 2.0)).unwrap();
        let e2 = w.ingest(record("zoo", "aa", 2.1)).unwrap();
        let e3 = w.ingest(record("cold", "bb", 1.5)).unwrap();
        assert_eq!((e1.revision, e2.revision, e3.revision), (1, 2, 1));

        let (entries, report) = w.index().unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(report, LoadReport { loaded: 3, skipped: 0 });

        let back = w.load(&w.resolve("zoo").unwrap()).unwrap();
        assert_eq!(back.revision, 2, "bare label resolves to the latest revision");
        assert_eq!(back.scenarios[0].max_speedup.to_bits(), 2.1f64.to_bits());
        let back = w.load(&w.resolve("zoo@1").unwrap()).unwrap();
        assert_eq!(back.scenarios[0].max_speedup.to_bits(), 2.0f64.to_bits());

        let err = w.resolve("nope").unwrap_err();
        assert!(matches!(err, WarehouseError::NoSuchRecord { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pinned_revisions_are_append_only() {
        let dir = temp_dir("append-only");
        let w = Warehouse::open(&dir).unwrap();
        let mut r = record("zoo", "aa", 2.0);
        r.revision = 7;
        w.ingest(r.clone()).unwrap();
        let err = w.ingest(r).unwrap_err();
        assert!(matches!(err, WarehouseError::RevisionExists { revision: 7, .. }), "{err}");
        // The next auto-stamped revision continues past the pin.
        let e = w.ingest(record("zoo", "aa", 2.0)).unwrap();
        assert_eq!(e.revision, 8);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_index_lines_are_skipped_individually() {
        let dir = temp_dir("damage");
        let w = Warehouse::open(&dir).unwrap();
        for i in 0..4 {
            w.ingest(record("zoo", "aa", 2.0 + i as f64)).unwrap();
        }
        // Flip one byte in the middle of line 2's JSON.
        let path = dir.join(INDEX_FILE);
        let mut lines: Vec<String> =
            fs::read_to_string(&path).unwrap().lines().map(String::from).collect();
        lines[1] = lines[1].replace("\"zoo\"", "\"zXo\"");
        fs::write(&path, lines.join("\n")).unwrap();

        let (entries, report) = w.index().unwrap();
        assert_eq!(report, LoadReport { loaded: 3, skipped: 1 });
        assert_eq!(entries.iter().map(|e| e.revision).collect::<Vec<_>>(), vec![1, 3, 4]);
        for e in &entries {
            w.load(e).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_ingest_after_a_torn_index_line_keeps_every_intact_entry() {
        let dir = temp_dir("torn");
        let w = Warehouse::open(&dir).unwrap();
        for i in 0..3 {
            w.ingest(record("zoo", "aa", 2.0 + i as f64)).unwrap();
        }
        // Cut the index inside its third line.
        let path = dir.join(INDEX_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();

        let e = w.ingest(record("zoo", "aa", 9.0)).unwrap();
        assert_eq!(e.revision, 3, "the torn entry's revision is free again");
        let (entries, report) = w.index().unwrap();
        assert_eq!(report, LoadReport { loaded: 3, skipped: 1 });
        assert_eq!(entries.iter().map(|e| e.revision).collect::<Vec<_>>(), vec![1, 2, 3]);
        let back = w.load(&entries[2]).unwrap();
        assert_eq!(back.scenarios[0].max_speedup.to_bits(), 9.0f64.to_bits());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_payloads_are_reported_not_half_trusted() {
        let dir = temp_dir("payload");
        let w = Warehouse::open(&dir).unwrap();
        let e = w.ingest(record("zoo", "aa", 2.0)).unwrap();
        let path = dir.join(&e.file);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        fs::write(&path, bytes).unwrap();
        let err = w.load(&e).unwrap_err();
        assert!(matches!(err, WarehouseError::RecordDamaged { .. }), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
