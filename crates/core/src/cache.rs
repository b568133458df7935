//! The content-addressed measurement cache.
//!
//! A cached entry is one campaign **cell** — a single simulated run —
//! keyed by *what* was measured, never by object identity (the cache
//! also memoizes whole profiling runs beside its cells; see the profile
//! memo below):
//!
//! ```text
//! key = ( machine.fingerprint(),   # full platform model
//!         spec.fingerprint(),      # workload allocations + phases
//!         groups_fp ⊕ config,      # allocation groups + configuration word
//!         noise_fp ⊕ cell seed )   # noise model + derived cell seed
//! ```
//!
//! Each component is a stable 64-bit content hash
//! ([`hmpt_sim::fingerprint`]); the composite 256-bit key makes
//! accidental collisions implausible. The placement plan a cell runs
//! under is a pure function of spec, groups and configuration, so the
//! key covers it without building it. Because the key includes the
//! derived per-cell seed, a hit returns the *bit-identical* outcome the
//! simulation would have produced — a warmed cache can never change an
//! analysis result, only skip simulated runs.
//!
//! The cache lives in `hmpt_core` (historically it was private to the
//! `hmpt-fleet` service layer) so any campaign front end — a
//! [`CampaignPlan`], the online tuner, the fleet — can interpose it
//! through [`CachingExecutor`]. The four fingerprints are taken once
//! per campaign by [`CampaignPlan`], the `groups_fp ⊕ config` word once
//! per configuration, and a cell's own key word is one 8-byte hash of
//! its seed — never a serialization of the whole object tree. The map
//! is hashed by [`WordHasher`](hmpt_sim::fingerprint::WordHasher): its
//! keys already are avalanche-mixed fingerprints.
//!
//! Infeasible cells (pool exhaustion under capacity pressure) are cached
//! too: re-asking whether a placement fits is as redundant as re-timing
//! it.
//!
//! Beside the cells the cache keeps a **profile memo**: the profiling
//! run of the Fig 6 pipeline (all-DDR, IBS-sampled) is a pure function
//! of machine, workload and profiling run configuration, so it is keyed
//!
//! ```text
//! key = ( machine.fingerprint(), spec.fingerprint(),
//!         RunConfig::profiling(PROFILE_SEED).fingerprint() )
//! ```
//!
//! and a fleet job that finds its key skips the profiling run
//! ([`MeasurementCache::profile_or_run`]). The memo lives in memory
//! only: it is never persisted, never counted in [`len`] or [`stats`]
//! or listed by [`entries`], and [`compact`] drops it whenever it evicts
//! a cell, so a size bound on the cells bounds the memo too.
//!
//! [`len`]: MeasurementCache::len
//! [`stats`]: MeasurementCache::stats
//! [`entries`]: MeasurementCache::entries
//! [`compact`]: MeasurementCache::compact
//!
//! [`CachingExecutor`]: crate::exec::CachingExecutor
//! [`CampaignPlan`]: crate::campaign::CampaignPlan

use std::collections::hash_map;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use hmpt_sim::fingerprint::{Fingerprint, WordMap};
use hmpt_workloads::runner::RunOutcome;
use serde::{Deserialize, Serialize};

use crate::error::TunerError;
use crate::measure::CellOutcome;

/// Composite content key of one measurement cell: (machine, spec,
/// groups ⊕ configuration, noise ⊕ seed) fingerprints.
pub type CellKey = (Fingerprint, Fingerprint, Fingerprint, Fingerprint);

/// Content key of one profiling run: (machine, spec, profiling
/// `RunConfig`) fingerprints.
pub type ProfileKey = (Fingerprint, Fingerprint, Fingerprint);

/// Cache counters (monotonic over the cache's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter difference since an earlier snapshot (`entries` is the
    /// number of entries added in the interval).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries.saturating_sub(earlier.entries),
        }
    }
}

/// One cached cell plus two ticks of the cache's monotonic use-clock:
/// its recency stamp, refreshed on every hit, peek, or insert, and the
/// tick at which its key first entered the cache.
#[derive(Debug)]
struct Entry {
    value: Result<CellOutcome, TunerError>,
    last_used: u64,
    inserted: u64,
}

/// How [`MeasurementCache::get_or_measure`] answered one lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The key was cached.
    Hit,
    /// The cell was measured and stored; `added` unless a racing
    /// lookup of the same key stored it first.
    Miss { added: bool },
}

/// How [`MeasurementCache::get_or_measure_batch`] answered a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BatchLookup {
    /// Cells answered from the cache.
    pub(crate) hits: u64,
    /// Cells measured.
    pub(crate) misses: u64,
    /// Keys the measured cells added (a racing consult of the same key
    /// may have stored it first).
    pub(crate) added: u64,
}

/// A point on a cache's use-clock ([`MeasurementCache::mark`]); the
/// cells inserted after it are [`MeasurementCache::added_since`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Mark(u64);

/// The `cache.hit` and `cache.miss` counter handles, resolved once per
/// process: looking a counter up takes the metrics-registry lock, which
/// a per-lookup fetch would pay on every cell.
fn hit_miss_counters() -> &'static (hmpt_obs::Counter, hmpt_obs::Counter) {
    static COUNTERS: OnceLock<(hmpt_obs::Counter, hmpt_obs::Counter)> = OnceLock::new();
    COUNTERS.get_or_init(|| (hmpt_obs::counter("cache.hit"), hmpt_obs::counter("cache.miss")))
}

/// Thread-safe content-addressed store of measured cells.
#[derive(Debug, Default)]
pub struct MeasurementCache {
    map: Mutex<WordMap<CellKey, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Monotonic use-clock behind the per-entry recency stamps.
    clock: AtomicU64,
    /// The profile memo ([`Self::profile_or_run`]): a slot per key,
    /// empty until a run of the key succeeds.
    profiles: Mutex<WordMap<ProfileKey, Arc<Mutex<Option<RunOutcome>>>>>,
}

impl MeasurementCache {
    pub fn new() -> Self {
        Self::default()
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up a cell; on a miss, run `measure` and remember its result.
    /// Also says how the lookup was answered, so a caller sharing the
    /// cache with concurrent callers can count its own traffic. A batch
    /// of one (`get_or_measure_batch`).
    pub fn get_or_measure<F>(
        &self,
        key: CellKey,
        measure: F,
    ) -> (Result<CellOutcome, TunerError>, Lookup)
    where
        F: FnOnce() -> Result<CellOutcome, TunerError>,
    {
        let (mut outcomes, batch) = self.get_or_measure_batch(1, |_| key, |_| vec![measure()]);
        let lookup = match batch.hits {
            1 => Lookup::Hit,
            _ => Lookup::Miss { added: batch.added == 1 },
        };
        (outcomes.pop().expect("one cell"), lookup)
    }

    /// Look up and measure a batch of `n` cells with two lock
    /// acquisitions and one update of each counter, not two of each per
    /// cell: the concurrent workers of a run share the lock and the
    /// counters, and per-cell updates bounce them between CPUs.
    ///
    /// `key(i)` is cell `i`'s key. The cells the cache does not hold
    /// are measured together by `measure_missing`, which gets their
    /// indices in order and returns their outcomes in the same order,
    /// outside the lock. Two workers racing on the same key may both
    /// measure it; both produce the identical (seeded, deterministic)
    /// outcome, so the duplicate write is harmless. A key repeated
    /// within the batch is measured once and its later cells count as
    /// hits, as a serial per-cell consult would count them. Hits are
    /// stamped in cell order at the lookup, misses when they are stored.
    pub(crate) fn get_or_measure_batch<K, M>(
        &self,
        n: usize,
        key: K,
        measure_missing: M,
    ) -> (Vec<Result<CellOutcome, TunerError>>, BatchLookup)
    where
        K: Fn(usize) -> CellKey,
        M: FnOnce(&[usize]) -> Vec<Result<CellOutcome, TunerError>>,
    {
        let mut found: Vec<Option<Result<CellOutcome, TunerError>>> = Vec::with_capacity(n);
        let mut missed: Vec<usize> = Vec::new();
        {
            let mut map = self.map.lock().expect("cache poisoned");
            let base = self.clock.fetch_add(n as u64, Ordering::Relaxed);
            for i in 0..n {
                match map.get_mut(&key(i)) {
                    Some(entry) => {
                        entry.last_used = base + i as u64;
                        found.push(Some(entry.value.clone()));
                    }
                    None => {
                        missed.push(i);
                        found.push(None);
                    }
                }
            }
        }

        // Later copies of a missed key wait for its first copy.
        let mut copies: Vec<(usize, usize)> = Vec::new();
        if missed.len() > 1 {
            let mut first: WordMap<CellKey, usize> = WordMap::default();
            missed.retain(|&i| match first.entry(key(i)) {
                hash_map::Entry::Occupied(slot) => {
                    copies.push((i, *slot.get()));
                    false
                }
                hash_map::Entry::Vacant(slot) => {
                    slot.insert(i);
                    true
                }
            });
        }

        let mut added = 0;
        if !missed.is_empty() {
            let measured = measure_missing(&missed);
            assert_eq!(measured.len(), missed.len(), "one outcome per missed cell");
            let mut map = self.map.lock().expect("cache poisoned");
            let base = self.clock.fetch_add(missed.len() as u64, Ordering::Relaxed);
            for (j, (&i, outcome)) in missed.iter().zip(measured).enumerate() {
                let now = base + j as u64;
                match map.entry(key(i)) {
                    hash_map::Entry::Occupied(mut slot) => {
                        let entry = slot.get_mut();
                        entry.value = outcome.clone();
                        entry.last_used = now;
                    }
                    hash_map::Entry::Vacant(slot) => {
                        slot.insert(Entry {
                            value: outcome.clone(),
                            last_used: now,
                            inserted: now,
                        });
                        added += 1;
                    }
                }
                found[i] = Some(outcome);
            }
        }
        for (i, first) in copies {
            found[i] = found[first].clone();
        }

        let lookup =
            BatchLookup { hits: (n - missed.len()) as u64, misses: missed.len() as u64, added };
        self.hits.fetch_add(lookup.hits, Ordering::Relaxed);
        self.misses.fetch_add(lookup.misses, Ordering::Relaxed);
        let (hit, miss) = hit_miss_counters();
        hit.add(lookup.hits);
        miss.add(lookup.misses);
        let outcomes = found.into_iter().map(|o| o.expect("every cell answered")).collect();
        (outcomes, lookup)
    }

    /// The profiling run `key` names: the memoized outcome if the memo
    /// holds it, else `run`'s, memoized when it succeeds. Each call
    /// counts one `profile.memo.hit` or `profile.memo.miss`. A consult
    /// waits for a run of its key that another consult has in flight, so
    /// each key runs once per memo; after a failed run, the next consult
    /// runs it itself.
    pub fn profile_or_run<F>(&self, key: ProfileKey, run: F) -> Result<RunOutcome, TunerError>
    where
        F: FnOnce() -> Result<RunOutcome, TunerError>,
    {
        let slot = Arc::clone(
            self.profiles.lock().expect("profile memo poisoned").entry(key).or_default(),
        );
        // A run that panicked left the slot empty, so a poisoned slot
        // still holds a valid state.
        let mut held = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = held.as_ref() {
            hmpt_obs::counter("profile.memo.hit").incr();
            return Ok(hit.clone());
        }
        hmpt_obs::counter("profile.memo.miss").incr();
        let outcome = run()?;
        *held = Some(outcome.clone());
        Ok(outcome)
    }

    /// How many profiling runs the memo holds.
    pub fn memoized_profiles(&self) -> usize {
        let profiles = self.profiles.lock().expect("profile memo poisoned");
        profiles
            .values()
            .filter(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner).is_some())
            .count()
    }

    /// Peek without measuring (still counts as a use for recency).
    pub fn get(&self, key: &CellKey) -> Option<Result<CellOutcome, TunerError>> {
        let mut map = self.map.lock().expect("cache poisoned");
        let entry = map.get_mut(key)?;
        entry.last_used = self.tick();
        Some(entry.value.clone())
    }

    /// Insert (or overwrite) an entry without touching the hit/miss
    /// counters — the preload path of [`crate::store`]. Last write wins
    /// on an existing key, which is safe because equal content keys
    /// imply bit-identical measurements; for the same reason an
    /// overwrite keeps the key's insertion tick.
    pub fn insert(&self, key: CellKey, value: Result<CellOutcome, TunerError>) {
        self.store(key, value);
    }

    /// [`Self::insert`], returning whether the key is new.
    fn store(&self, key: CellKey, value: Result<CellOutcome, TunerError>) -> bool {
        let now = self.tick();
        match self.map.lock().expect("cache poisoned").entry(key) {
            hash_map::Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                entry.value = value;
                entry.last_used = now;
                false
            }
            hash_map::Entry::Vacant(slot) => {
                slot.insert(Entry { value, last_used: now, inserted: now });
                true
            }
        }
    }

    /// Snapshot every entry (unordered) — the persistence path of
    /// [`crate::store`], which sorts by key before encoding.
    pub fn entries(&self) -> Vec<(CellKey, Result<CellOutcome, TunerError>)> {
        self.map
            .lock()
            .expect("cache poisoned")
            .iter()
            .map(|(k, e)| (*k, e.value.clone()))
            .collect()
    }

    /// The current point on the use-clock. Every key inserted after this
    /// call is in [`Self::added_since`] of the mark; a key inserted
    /// concurrently with the call may or may not be.
    pub(crate) fn mark(&self) -> Mark {
        Mark(self.clock.load(Ordering::Relaxed))
    }

    /// The entries whose keys entered the cache at or after `mark`,
    /// sorted by key — the cells a cache file has yet to append.
    pub(crate) fn added_since(
        &self,
        mark: Mark,
    ) -> Vec<(CellKey, Result<CellOutcome, TunerError>)> {
        let mut added: Vec<_> = self
            .map
            .lock()
            .expect("cache poisoned")
            .iter()
            .filter(|(_, e)| e.inserted >= mark.0)
            .map(|(k, e)| (*k, e.value.clone()))
            .collect();
        added.sort_by_key(|(k, _)| *k);
        added
    }

    /// Evict least-recently-used entries until at most `max_entries`
    /// remain; returns how many were dropped. Ties on the recency stamp
    /// break by key, so eviction is deterministic for a deterministic
    /// use history (concurrent workers race on the use-clock, which can
    /// reorder *which* cells survive — never what a surviving cell
    /// holds: any subset of a content-addressed cache is valid, so
    /// compaction affects future cost only, not results). A compaction
    /// that evicts drops the whole profile memo with the cells.
    pub fn compact(&self, max_entries: usize) -> u64 {
        let mut map = self.map.lock().expect("cache poisoned");
        if map.len() <= max_entries {
            return 0;
        }
        let mut order: Vec<(u64, CellKey)> = map.iter().map(|(k, e)| (e.last_used, *k)).collect();
        // Most recent first; keep the head.
        order.sort_by(|a, b| b.cmp(a));
        let evicted = order.split_off(max_entries);
        for (_, key) in &evicted {
            map.remove(key);
        }
        self.profiles.lock().expect("profile memo poisoned").clear();
        hmpt_obs::counter("cache.evict").add(evicted.len() as u64);
        evicted.len() as u64
    }

    pub fn len(&self) -> usize {
        self.map.lock().expect("cache poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries and the profile memo (counters keep
    /// accumulating).
    pub fn clear(&self) {
        self.map.lock().expect("cache poisoned").clear();
        self.profiles.lock().expect("profile memo poisoned").clear();
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(t: f64) -> Result<CellOutcome, TunerError> {
        Ok(CellOutcome { time_s: t, hbm_fraction: 0.5 })
    }

    fn key(a: u64, b: u64, c: u64, d: u64) -> CellKey {
        (
            Fingerprint::from_raw(a),
            Fingerprint::from_raw(b),
            Fingerprint::from_raw(c),
            Fingerprint::from_raw(d),
        )
    }

    #[test]
    fn second_lookup_hits_without_measuring() {
        let cache = MeasurementCache::new();
        let mut calls = 0;
        let k = key(1, 2, 3, 4);
        for round in 0..3 {
            let (out, lookup) = cache.get_or_measure(k, || {
                calls += 1;
                cell(1.5)
            });
            assert_eq!(out.unwrap().time_s, 1.5);
            let want = if round == 0 { Lookup::Miss { added: true } } else { Lookup::Hit };
            assert_eq!(lookup, want);
        }
        assert_eq!(calls, 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = MeasurementCache::new();
        cache.get_or_measure(key(1, 0, 0, 0), || cell(1.0)).0.unwrap();
        cache.get_or_measure(key(0, 1, 0, 0), || cell(2.0)).0.unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(1, 0, 0, 0)).unwrap().unwrap().time_s, 1.0);
        assert_eq!(cache.get(&key(0, 1, 0, 0)).unwrap().unwrap().time_s, 2.0);
    }

    #[test]
    fn errors_are_cached_like_outcomes() {
        let cache = MeasurementCache::new();
        let k = key(9, 9, 9, 9);
        let mut calls = 0;
        for _ in 0..2 {
            let (r, _) = cache.get_or_measure(k, || {
                calls += 1;
                Err(TunerError::EmptyWorkload)
            });
            assert!(matches!(r, Err(TunerError::EmptyWorkload)));
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn compact_evicts_least_recently_used_first() {
        let cache = MeasurementCache::new();
        for i in 0..10 {
            cache.insert(key(i, 0, 0, 0), cell(i as f64));
        }
        // Refresh two old entries; they must outlive younger untouched ones.
        cache.get(&key(3, 0, 0, 0));
        cache.get(&key(7, 0, 0, 0));
        assert_eq!(cache.compact(4), 6);
        assert_eq!(cache.len(), 4);
        for survivor in [3, 7, 8, 9] {
            assert!(cache.get(&key(survivor, 0, 0, 0)).is_some(), "entry {survivor} must survive");
        }
        assert!(cache.get(&key(0, 0, 0, 0)).is_none());
        assert_eq!(cache.compact(10), 0, "under the cap, compaction is a no-op");
    }

    #[test]
    fn added_since_returns_exactly_the_keys_inserted_after_the_mark() {
        let cache = MeasurementCache::new();
        cache.insert(key(1, 0, 0, 0), cell(1.0));
        cache.insert(key(2, 0, 0, 0), cell(2.0));
        let mark = cache.mark();
        assert!(cache.added_since(mark).is_empty());

        // Hits, peeks and overwrites of old keys add nothing…
        cache.get_or_measure(key(1, 0, 0, 0), || unreachable!("a hit")).0.unwrap();
        cache.get(&key(2, 0, 0, 0));
        cache.insert(key(2, 0, 0, 0), cell(2.0));
        assert!(cache.added_since(mark).is_empty());

        // …new keys do, by either insertion path, sorted by key.
        cache.get_or_measure(key(9, 0, 0, 0), || cell(9.0)).0.unwrap();
        cache.insert(key(5, 0, 0, 0), cell(5.0));
        let added: Vec<CellKey> = cache.added_since(mark).into_iter().map(|(k, _)| k).collect();
        assert_eq!(added, vec![key(5, 0, 0, 0), key(9, 0, 0, 0)]);
        assert!(cache.added_since(cache.mark()).is_empty());
    }

    #[test]
    fn a_batch_answers_and_counts_like_per_cell_lookups() {
        let (batched, single) = (MeasurementCache::new(), MeasurementCache::new());
        for c in [&batched, &single] {
            c.insert(key(2, 0, 0, 0), cell(2.0));
            c.insert(key(5, 0, 0, 0), cell(5.0));
        }
        // Two hits, a key repeated within the batch, and an error.
        let keys: Vec<CellKey> = [1, 2, 3, 5, 3, 4].iter().map(|&k| key(k, 0, 0, 0)).collect();
        let measure = |k: &CellKey| match k.0.raw() {
            4 => Err(TunerError::EmptyWorkload),
            k => cell(k as f64),
        };
        let mark = batched.mark();
        let mut asked = Vec::new();
        let (outcomes, lookup) = batched.get_or_measure_batch(
            keys.len(),
            |i| keys[i],
            |missed| {
                asked.extend_from_slice(missed);
                missed.iter().map(|&i| measure(&keys[i])).collect()
            },
        );
        assert_eq!(asked, vec![0, 2, 5], "each missed key once, in cell order");
        assert_eq!(lookup, BatchLookup { hits: 3, misses: 3, added: 3 });

        for (k, batch_outcome) in keys.iter().zip(&outcomes) {
            let (one, _) = single.get_or_measure(*k, || measure(k));
            match (batch_outcome, one) {
                (Ok(a), Ok(b)) => assert_eq!(a.time_s.to_bits(), b.time_s.to_bits()),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("{a:?} vs {b:?}"),
            }
        }
        assert_eq!(batched.stats(), single.stats());
        let added: Vec<CellKey> = batched.added_since(mark).into_iter().map(|(k, _)| k).collect();
        assert_eq!(added, vec![key(1, 0, 0, 0), key(3, 0, 0, 0), key(4, 0, 0, 0)]);
    }

    #[test]
    fn a_batch_of_hits_measures_nothing() {
        let cache = MeasurementCache::new();
        cache.insert(key(1, 0, 0, 0), cell(1.0));
        let (outcomes, lookup) =
            cache.get_or_measure_batch(2, |_| key(1, 0, 0, 0), |_| unreachable!("every cell hits"));
        assert_eq!(outcomes.len(), 2);
        assert_eq!(lookup, BatchLookup { hits: 2, misses: 0, added: 0 });
    }

    fn profile(t: f64) -> RunOutcome {
        RunOutcome {
            time_s: t,
            counters: hmpt_perf::counters::Counters::new(),
            stats: hmpt_perf::stats::AccessStats::default(),
            hbm_footprint_fraction: 0.0,
            phase_costs: Vec::new(),
        }
    }

    fn profile_key(a: u64) -> ProfileKey {
        (Fingerprint::from_raw(a), Fingerprint::from_raw(0), Fingerprint::from_raw(7))
    }

    /// Serializes this module's profile-memo tests: the memo counters
    /// are process-wide, and one test reads them while recording is on.
    static MEMO_COUNTERS: Mutex<()> = Mutex::new(());

    /// `threads` concurrent consults of one key, whose runs wait until
    /// every thread has started its consult; the first run fails when
    /// `fail_first`. Returns the runs, the consults answered `Ok`, and
    /// the memo hits and misses counted.
    fn consult_concurrently(threads: usize, fail_first: bool) -> (u64, usize, u64, u64) {
        let memo = || {
            let count = |name| hmpt_obs::counter(name).get();
            (count("profile.memo.hit"), count("profile.memo.miss"))
        };
        let (cache, runs) = (&MeasurementCache::new(), &AtomicU64::new(0));
        let gate = &(Mutex::new(false), std::sync::Condvar::new());
        let (started, all_started) = std::sync::mpsc::channel();
        let before = memo();
        let oks = std::thread::scope(|s| {
            let consults: Vec<_> = (0..threads)
                .map(|_| {
                    let started = started.clone();
                    s.spawn(move || {
                        started.send(()).unwrap();
                        cache.profile_or_run(profile_key(1), || {
                            let (open, opened) = gate;
                            drop(opened.wait_while(open.lock().unwrap(), |open| !*open).unwrap());
                            match runs.fetch_add(1, Ordering::SeqCst) {
                                0 if fail_first => Err(TunerError::EmptyWorkload),
                                _ => Ok(profile(2.5)),
                            }
                        })
                    })
                })
                .collect();
            for _ in 0..threads {
                all_started.recv().unwrap();
            }
            *gate.0.lock().unwrap() = true;
            gate.1.notify_all();
            consults.into_iter().filter_map(|c| c.join().unwrap().ok()).count()
        });
        let after = memo();
        (runs.load(Ordering::SeqCst), oks, after.0 - before.0, after.1 - before.1)
    }

    #[test]
    fn concurrent_consults_of_one_key_run_its_profile_once() {
        let _memo = MEMO_COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
        hmpt_obs::install(Arc::new(hmpt_obs::NoopCollector), true);
        let once = consult_concurrently(4, false);
        let failed_first = consult_concurrently(4, true);
        hmpt_obs::reset();
        assert_eq!(once, (1, 4, 3, 1), "(runs, ok consults, hits, misses)");
        // A failed run is not memoized: the next consult runs it itself.
        assert_eq!(failed_first, (2, 3, 2, 2), "(runs, ok consults, hits, misses)");
    }

    #[test]
    fn a_memoized_profile_runs_once_and_stays_out_of_the_cells() {
        let _memo = MEMO_COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
        let cache = MeasurementCache::new();
        cache.insert(key(1, 0, 0, 0), cell(1.0));
        let mark = cache.mark();
        let mut runs = 0;
        for _ in 0..3 {
            let out = cache
                .profile_or_run(profile_key(1), || {
                    runs += 1;
                    Ok(profile(2.5))
                })
                .unwrap();
            assert_eq!(out.time_s.to_bits(), 2.5f64.to_bits());
        }
        assert_eq!(runs, 1);
        assert_eq!(cache.memoized_profiles(), 1);
        // Not a cell: invisible to the snapshot, the counts and the
        // journal.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.entries().len(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 0, entries: 1 });
        assert!(cache.added_since(mark).is_empty());
    }

    #[test]
    fn a_failed_profile_is_not_memoized() {
        let _memo = MEMO_COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
        let cache = MeasurementCache::new();
        let err = cache.profile_or_run(profile_key(1), || Err(TunerError::EmptyWorkload));
        assert!(matches!(err, Err(TunerError::EmptyWorkload)));
        assert_eq!(cache.memoized_profiles(), 0);
        let out = cache.profile_or_run(profile_key(1), || Ok(profile(1.0))).unwrap();
        assert_eq!(out.time_s, 1.0, "the next consult runs the profile");
    }

    #[test]
    fn an_evicting_compaction_drops_the_profile_memo() {
        let _memo = MEMO_COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
        let cache = MeasurementCache::new();
        for i in 0..4 {
            cache.insert(key(i, 0, 0, 0), cell(i as f64));
        }
        cache.profile_or_run(profile_key(1), || Ok(profile(1.0))).unwrap();
        assert_eq!(cache.compact(4), 0);
        assert_eq!(cache.memoized_profiles(), 1, "nothing evicted, nothing dropped");
        assert_eq!(cache.compact(3), 1);
        assert_eq!(cache.memoized_profiles(), 0, "an eviction drops the memo");
        cache.profile_or_run(profile_key(1), || Ok(profile(1.0))).unwrap();
        cache.clear();
        assert_eq!(cache.memoized_profiles(), 0);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = MeasurementCache::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..100u64 {
                        let (out, _) =
                            cache.get_or_measure(key(i % 8, 0, 0, 0), || cell(i as f64 % 8.0));
                        // Whoever inserted first, the value is keyed by
                        // i % 8 in both key and payload.
                        assert_eq!(out.unwrap().time_s, (i % 8) as f64);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 8);
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 400);
        assert!(s.hits >= 400 - 4 * 8, "at most one miss per key per racing thread");
    }
}
