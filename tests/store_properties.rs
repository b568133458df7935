//! Property tests for the persistent measurement store
//! (`hmpt_core::store`): snapshots round-trip bit-for-bit for arbitrary
//! cache contents, survive arbitrary truncation and byte flips by
//! skipping exactly the damaged records, merge with last-write-wins,
//! and warm-start a real fleet run with zero new simulated cells.
//! Journals built by `store::append` load to the union of their
//! appends, with the same tolerance of cuts and flipped bytes and the
//! same refusal of foreign key semantics, and save-on-finish appends a
//! run's new cells to the snapshot it preloaded.

use hmpt_repro::core::cache::CellKey;
use hmpt_repro::core::error::TunerError;
use hmpt_repro::core::measure::CellOutcome;
use hmpt_repro::core::store;
use hmpt_repro::core::MeasurementCache;
use hmpt_repro::sim::fingerprint::{Fingerprint, StableHasher};
use hmpt_repro::sim::pool::PoolKind;
use proptest::prelude::*;

type Entry = (CellKey, Result<CellOutcome, TunerError>);

fn arb_key() -> impl Strategy<Value = CellKey> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c, d)| {
        (
            Fingerprint::from_raw(a),
            Fingerprint::from_raw(b),
            Fingerprint::from_raw(c),
            Fingerprint::from_raw(d),
        )
    })
}

/// Any outcome a measured cell can produce (including the cached
/// infeasible-placement errors).
fn arb_value() -> impl Strategy<Value = Result<CellOutcome, TunerError>> {
    prop_oneof![
        4 => (1u64..1 << 52, 0u64..=1000).prop_map(|(t, h)| Ok(CellOutcome {
            time_s: t as f64 * 1e-9,
            hbm_fraction: h as f64 / 1000.0,
        })),
        1 => (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(req, avail, hbm)| {
            Err(TunerError::Alloc(hmpt_repro::alloc::error::AllocError::PoolExhausted {
                pool: if hbm { PoolKind::Hbm } else { PoolKind::Ddr },
                requested: req,
                available: avail,
            }))
        }),
        1 => Just(Err(TunerError::EmptyWorkload)),
    ]
}

fn arb_entries() -> impl Strategy<Value = Vec<Entry>> {
    prop::collection::vec((arb_key(), arb_value()), 0..40)
}

fn cache_of(entries: &[Entry]) -> MeasurementCache {
    let cache = MeasurementCache::new();
    for (k, v) in entries {
        cache.insert(*k, v.clone());
    }
    cache
}

fn entry_matches(
    original: &Result<CellOutcome, TunerError>,
    loaded: &Result<CellOutcome, TunerError>,
) -> bool {
    match (original, loaded) {
        (Ok(a), Ok(b)) => {
            a.time_s.to_bits() == b.time_s.to_bits()
                && a.hbm_fraction.to_bits() == b.hbm_fraction.to_bits()
        }
        (Err(a), Err(b)) => format!("{a}") == format!("{b}"),
        _ => false,
    }
}

/// Write `batches` to a fresh journal, one `store::append` each, and
/// return its bytes and the offset of each append's first record.
fn journal_of(name: &str, batches: &[Vec<Entry>]) -> (Vec<u8>, Vec<usize>) {
    let path = std::env::temp_dir().join(format!("hmpt-journal-{name}-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut starts = Vec::new();
    let mut records = 0;
    for batch in batches {
        starts.push(32 + 64 * records);
        let saved = store::append(&path, batch).expect("append");
        assert_eq!(saved.saved as usize, batch.len());
        records += batch.len();
    }
    let bytes = std::fs::read(&path).unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    (bytes, starts)
}

/// `bytes` with the header's semantics version rewritten and its
/// checksum recomputed, as a writer of that version would stamp it.
fn restamped(bytes: &[u8], semantics: u32) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[12..16].copy_from_slice(&semantics.to_le_bytes());
    let sum = StableHasher::new().write_bytes(&b[..24]).finish();
    b[24..32].copy_from_slice(&sum.to_le_bytes());
    b
}

/// Every entry of `expected` (and nothing else) is in `loaded`, bit for
/// bit.
fn same_content(expected: &MeasurementCache, loaded: &MeasurementCache) -> bool {
    expected.len() == loaded.len()
        && expected
            .entries()
            .iter()
            .all(|(k, v)| loaded.get(k).is_some_and(|l| entry_matches(v, &l)))
}

fn arb_batches() -> impl Strategy<Value = Vec<Vec<Entry>>> {
    prop::collection::vec(prop::collection::vec((arb_key(), arb_value()), 0..12), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A journal of k appends declares 0 records and loads to the union
    /// of the appended entries (a key appended twice: the later value).
    #[test]
    fn a_journal_of_appends_loads_to_their_union(batches in arb_batches()) {
        let (bytes, _) = journal_of("union", &batches);
        let all: Vec<Entry> = batches.concat();
        prop_assert_eq!(bytes.len(), 32 + 64 * all.len());
        prop_assert_eq!(&bytes[16..24], &0u64.to_le_bytes()[..]);

        let restored = MeasurementCache::new();
        let report = store::from_bytes(&bytes, &restored).unwrap();
        prop_assert_eq!(report.loaded as usize, all.len());
        prop_assert!(report.is_clean());
        prop_assert!(same_content(&cache_of(&all), &restored));
    }

    /// Cutting the journal anywhere inside its last append loses only
    /// the records after the cut; everything before it loads.
    #[test]
    fn a_cut_inside_the_last_append_loses_only_the_records_after_it(
        batches in arb_batches(),
        cut_seed in 0usize..1_000_000,
    ) {
        let (bytes, starts) = journal_of("cut", &batches);
        let start = *starts.last().expect("at least one append");
        let cut = start + cut_seed % (bytes.len() - start + 1);
        let kept = (cut - 32) / 64;

        let restored = MeasurementCache::new();
        let report = store::from_bytes(&bytes[..cut], &restored).unwrap();
        prop_assert_eq!(report.loaded as usize, kept);
        prop_assert_eq!(report.skipped, 0);
        prop_assert_eq!(report.truncated, (cut - 32) % 64 != 0);
        prop_assert!(same_content(&cache_of(&batches.concat()[..kept]), &restored));
    }

    /// Flipping one byte of a journal's records skips exactly the record
    /// that holds it.
    #[test]
    fn a_flipped_journal_byte_skips_exactly_one_record(
        batches in arb_batches(),
        last in (arb_key(), arb_value()),
        pos_seed in 0usize..1_000_000,
        flip in 1u8..=255,
    ) {
        let mut batches = batches;
        batches.last_mut().expect("at least one append").push(last);
        let (mut bytes, _) = journal_of("flip", &batches);
        let pos = 32 + pos_seed % (bytes.len() - 32);
        bytes[pos] ^= flip;
        let mut survivors = batches.concat();
        let _damaged = survivors.remove((pos - 32) / 64);

        let restored = MeasurementCache::new();
        let report = store::from_bytes(&bytes, &restored).unwrap();
        prop_assert_eq!(report.skipped, 1);
        prop_assert_eq!(report.loaded as usize, survivors.len());
        prop_assert!(!report.truncated);
        prop_assert!(same_content(&cache_of(&survivors), &restored));
    }

    /// A journal stamped with foreign key semantics is refused whole, as
    /// a snapshot of the same entries is.
    #[test]
    fn a_journal_with_foreign_semantics_is_refused_like_a_snapshot(
        batches in arb_batches(),
        semantics in any::<u32>()
            .prop_map(|v| if v == store::SEMANTICS_VERSION { v + 1 } else { v }),
    ) {
        let (journal, _) = journal_of("semantics", &batches);
        let (snapshot, _) = store::to_bytes(&cache_of(&batches.concat()));
        for bytes in [journal, snapshot] {
            let cache = MeasurementCache::new();
            let refused = store::from_bytes(&restamped(&bytes, semantics), &cache);
            prop_assert!(
                matches!(refused, Err(store::StoreError::SemanticsMismatch { found }) if found == semantics),
                "{:?}", refused
            );
            prop_assert!(cache.is_empty());
        }
    }

    /// Snapshot bytes round-trip every entry bit-for-bit, and are a
    /// deterministic (sorted) function of cache content.
    #[test]
    fn snapshots_round_trip_bit_for_bit(entries in arb_entries()) {
        let cache = cache_of(&entries);
        let (bytes, saved) = store::to_bytes(&cache);
        prop_assert_eq!(saved.saved as usize, cache.len());
        prop_assert_eq!(saved.skipped, 0);

        let restored = MeasurementCache::new();
        let report = store::from_bytes(&bytes, &restored).unwrap();
        prop_assert_eq!(report.loaded as usize, cache.len());
        prop_assert_eq!(report.skipped, 0);
        prop_assert!(!report.truncated);
        prop_assert_eq!(restored.len(), cache.len());
        for (k, v) in cache.entries() {
            let loaded = restored.get(&k).expect("key survives the round trip");
            prop_assert!(entry_matches(&v, &loaded), "entry at {:?} drifted", k);
        }

        // Insertion order never shows in the bytes.
        let mut rev = entries.clone();
        rev.reverse();
        prop_assert_eq!(store::to_bytes(&cache_of(&rev)).0, bytes);
    }

    /// Cutting the snapshot anywhere loses only the tail: every record
    /// the prefix still contains loads, and the loss is reported.
    #[test]
    fn truncation_loses_only_the_tail(entries in arb_entries(), cut_seed in 0usize..1_000_000) {
        let cache = cache_of(&entries);
        let (bytes, _) = store::to_bytes(&cache);
        let cut = cut_seed % (bytes.len() + 1);
        let restored = MeasurementCache::new();
        match store::from_bytes(&bytes[..cut], &restored) {
            Err(_) => prop_assert!(cut < 32, "only header-level cuts may discard the snapshot"),
            Ok(report) => {
                prop_assert!(cut >= 32);
                let whole_records = (cut - 32) / 64;
                prop_assert_eq!(report.loaded as usize, whole_records);
                prop_assert_eq!(report.skipped, 0);
                prop_assert_eq!(report.truncated, whole_records < cache.len());
                // Everything recovered matches the original content.
                for (k, v) in restored.entries() {
                    let original = cache.get(&k).expect("no invented keys");
                    prop_assert!(entry_matches(&original, &v));
                }
            }
        }
    }

    /// Flipping one byte inside the record region damages exactly one
    /// record; the load keeps every other record and counts the loss.
    #[test]
    fn a_flipped_record_byte_skips_exactly_one_record(
        entries in prop::collection::vec((arb_key(), arb_value()), 1..40),
        pos_seed in 0usize..1_000_000,
        flip in 1u8..=255,
    ) {
        let cache = cache_of(&entries);
        let (mut bytes, _) = store::to_bytes(&cache);
        let records = bytes.len() - 32;
        let pos = 32 + pos_seed % records;
        bytes[pos] ^= flip;

        let restored = MeasurementCache::new();
        let report = store::from_bytes(&bytes, &restored).unwrap();
        prop_assert_eq!(report.skipped, 1);
        prop_assert_eq!(report.loaded as usize, cache.len() - 1);
        prop_assert!(!report.truncated);
        for (k, v) in restored.entries() {
            let original = cache.get(&k).expect("undamaged keys only");
            prop_assert!(entry_matches(&original, &v));
        }
    }

    /// Merging snapshots is order-insensitive on content: any split of
    /// the entries into two snapshots merges back to the full cache.
    #[test]
    fn merging_split_snapshots_restores_the_whole_cache(
        entries in arb_entries(),
        split_seed in 0usize..1_000_000,
    ) {
        let split = split_seed % (entries.len() + 1);
        let (a, b) = entries.split_at(split);
        let (bytes_a, _) = store::to_bytes(&cache_of(a));
        let (bytes_b, _) = store::to_bytes(&cache_of(b));

        let merged = MeasurementCache::new();
        store::merge_bytes(&merged, &[&bytes_a[..], &bytes_b[..]]).unwrap();
        let full = cache_of(&entries);
        prop_assert_eq!(merged.len(), full.len());
        // And merged-in-the-other-order produces the same snapshot
        // bytes (identical content — LWW on equal keys is a no-op).
        let merged_rev = MeasurementCache::new();
        store::merge_bytes(&merged_rev, &[&bytes_b[..], &bytes_a[..]]).unwrap();
        prop_assert_eq!(store::to_bytes(&merged).0, store::to_bytes(&merged_rev).0);
    }
}

/// End to end: a fleet batch saved to disk warm-starts a second fleet in
/// a "new process" (fresh cache) with zero new simulated cells and a
/// bit-identical analysis.
#[test]
fn snapshot_warm_starts_a_fleet_with_zero_new_cells() {
    use hmpt_fleet::{Fleet, FleetConfig, TuningJob};

    let path =
        std::env::temp_dir().join(format!("hmpt-store-properties-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = FleetConfig {
        online_check: false,
        cache_path: Some(path.clone()),
        ..FleetConfig::default()
    };
    let jobs = vec![
        TuningJob::new(hmpt_repro::workloads::npb::mg::workload()),
        TuningJob::new(hmpt_repro::workloads::npb::is::workload()),
    ];

    let cold = Fleet::new(cfg.clone()).run(&jobs).unwrap();
    assert!(cold.stats.cache.misses > 0);

    let warm_fleet = Fleet::new(cfg);
    assert!(warm_fleet.preloaded() > 0, "snapshot was loaded");
    let warm = warm_fleet.run(&jobs).unwrap();
    assert_eq!(warm.stats.cache.misses, 0, "zero new cells: {:?}", warm.stats.cache);
    assert_eq!(warm.stats.executed_cells, cold.stats.executed_cells);
    for (c, w) in cold.reports.iter().zip(&warm.reports) {
        assert_eq!(
            c.analysis.table2.max_speedup.to_bits(),
            w.analysis.table2.max_speedup.to_bits()
        );
        assert_eq!(
            c.analysis.table2.usage_90_pct.to_bits(),
            w.analysis.table2.usage_90_pct.to_bits()
        );
    }
    std::fs::remove_file(&path).unwrap();
}

/// Save-on-finish appends: a fleet that preloaded a snapshot and added
/// fewer cells than the snapshot holds appends them after the
/// snapshot's bytes, and a fresh fleet preloads every cell.
#[test]
fn save_on_finish_appends_fewer_cells_than_the_snapshot_holds() {
    use hmpt_fleet::{Fleet, FleetConfig, TuningJob};
    use hmpt_repro::core::measure::CampaignConfig;

    let path = std::env::temp_dir().join(format!("hmpt-save-append-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = FleetConfig {
        online_check: false,
        cache_path: Some(path.clone()),
        ..FleetConfig::default()
    };
    let mg = || TuningJob::new(hmpt_repro::workloads::npb::mg::workload());
    // One run per configuration at another seed: a third of the cells,
    // none of them the first job's.
    let fewer = || {
        mg().with_campaign(CampaignConfig {
            runs_per_config: 1,
            base_seed: 41,
            ..CampaignConfig::default()
        })
    };

    let cold = Fleet::new(cfg.clone());
    cold.run(&[mg()]).unwrap();
    let held = cold.cache().len() as u64;
    let snapshot = std::fs::read(&path).unwrap();
    let warm = Fleet::new(cfg.clone());
    assert_eq!(warm.preloaded(), held);
    let added = warm.run(&[fewer()]).unwrap().stats.cache.misses;
    assert!(0 < added && added < held, "{added} vs {held}");
    let appended = std::fs::read(&path).unwrap();
    assert_eq!(appended.len() as u64, 32 + 64 * (held + added));
    assert!(appended.starts_with(&snapshot), "the run rewrote the snapshot");

    let fresh = Fleet::new(cfg);
    assert_eq!(fresh.preloaded(), held + added);
    assert_eq!(fresh.run(&[mg(), fewer()]).unwrap().stats.cache.misses, 0);
    std::fs::remove_file(&path).unwrap();
}

/// Save-on-finish skips a snapshot that already holds the cache — the
/// preload read all of it and the run added no cell — on both the fleet
/// (batch) and the matrix path, and rewrites one the preload could only
/// partly read. The rename of a rewrite gives the file a new inode.
#[cfg(unix)]
#[test]
fn save_on_finish_skips_an_unchanged_snapshot_and_heals_a_damaged_one() {
    use std::os::unix::fs::MetadataExt;

    use hmpt_fleet::api::{self, Request};
    use hmpt_fleet::spec::CampaignSpec;
    use hmpt_fleet::{Fleet, FleetConfig, TuningJob};

    let inode = |path: &std::path::Path| std::fs::metadata(path).expect("snapshot").ino();
    let dir = std::env::temp_dir().join(format!("hmpt-save-skip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // The fleet path: a second fleet over the same snapshot adds nothing.
    let batch_path = dir.join("batch.bin");
    let cfg = FleetConfig {
        online_check: false,
        cache_path: Some(batch_path.clone()),
        ..FleetConfig::default()
    };
    let jobs = [TuningJob::new(hmpt_repro::workloads::npb::mg::workload())];
    Fleet::new(cfg.clone()).run(&jobs).unwrap();
    let cold = inode(&batch_path);
    let warm = Fleet::new(cfg);
    warm.run(&jobs).unwrap();
    assert_eq!(inode(&batch_path), cold, "a warm batch rewrote an unchanged snapshot");
    assert!(warm.persist().unwrap().is_none());

    // The matrix path.
    let matrix_path = dir.join("matrix.bin");
    let spec = format!(
        "mode = \"matrix\"\nzoo = [\"xeon-max\"]\nworkloads = [\"mg\"]\n\
         [execution]\nverify = false\n[cache]\nfile = \"{}\"\n",
        matrix_path.display()
    );
    let request = Request::from_spec(CampaignSpec::parse(&spec).unwrap()).unwrap();
    api::execute(&request).unwrap();
    let written = std::fs::read(&matrix_path).unwrap();
    let cold = inode(&matrix_path);
    api::execute(&request).unwrap();
    assert_eq!(inode(&matrix_path), cold, "a warm matrix run rewrote an unchanged snapshot");

    // A flipped byte costs the preload one record, so the run rewrites
    // the snapshot whole, with the record it re-simulated.
    let mut damaged = written.clone();
    damaged[32 + 40] ^= 0x40;
    std::fs::write(&matrix_path, &damaged).unwrap();
    let before = inode(&matrix_path);
    api::execute(&request).unwrap();
    assert_ne!(inode(&matrix_path), before, "a partly read snapshot must be rewritten");
    assert_eq!(std::fs::read(&matrix_path).unwrap(), written);
    std::fs::remove_dir_all(&dir).unwrap();
}
