//! Campaign execution backends.
//!
//! The measurement campaign is embarrassingly parallel: every
//! (configuration, repetition) cell is an independent simulated run with
//! its own derived seed. [`ExecutorKind`] names *how* a batch of
//! index-addressed items is evaluated: [`ExecutorKind::Serial`] runs them
//! in order on the calling thread, [`ExecutorKind::Parallel`] fans them
//! out over a work-stealing pool of std threads. Results are always
//! reassembled in canonical index order, so the two strategies are
//! **bit-identical** — the pool changes wall-clock time, never results.
//! The same code runs a batch of campaign cells and the fleet's batch
//! of concurrent jobs (whose cells then run serially).
//!
//! On top of the index level sits the *cell* level: [`CellExecutor`]
//! evaluates batches of campaign cells ([`crate::campaign::CellSpec`]) —
//! [`ExecutorKind`] is one, and [`CachingExecutor`] wraps one with a
//! content-addressed [`MeasurementCache`] consult per cell. Caching at
//! the executor layer (instead of inside one front end) means the
//! campaign plan, the online tuner and the fleet share the same cache
//! plumbing. Every cell reaches every executor with its real content
//! key: deriving one costs two hash mixes, so plain executors simply
//! ignore it.
//!
//! This module is the in-tree home of the abstraction so the tuner
//! pipeline ([`crate::campaign`], [`crate::driver`], [`crate::online`])
//! can thread it through without a dependency cycle; the `hmpt-fleet`
//! crate re-exports it as part of the fleet subsystem's public surface.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::cache::{CacheStats, Lookup, MeasurementCache};
use crate::campaign::CellSpec;
use crate::error::TunerError;
use crate::measure::CellOutcome;

/// The host's available parallelism (≥ 1).
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// How a batch of independent items `f(0) .. f(n-1)` is evaluated.
/// Copyable, so driver, online and fleet configs carry it by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// In order, on the calling thread.
    #[default]
    Serial,
    /// On a work-stealing pool of `workers` threads; `workers == 0`
    /// means one per available CPU, resolved at run time.
    Parallel { workers: usize },
}

impl ExecutorKind {
    /// Auto-sized parallel executor.
    pub fn parallel() -> Self {
        ExecutorKind::Parallel { workers: 0 }
    }

    /// Threads a batch runs on: 1 for [`ExecutorKind::Serial`], the
    /// resolved pool size otherwise.
    pub fn workers(&self) -> usize {
        match *self {
            ExecutorKind::Serial => 1,
            ExecutorKind::Parallel { workers: 0 } => available_workers(),
            ExecutorKind::Parallel { workers } => workers,
        }
    }

    /// Evaluate `f(0) .. f(n-1)`, returning results in index order
    /// regardless of execution order.
    ///
    /// The pool is dynamic: workers pull the next unclaimed index from a
    /// shared atomic counter (a slow item never blocks the queue behind
    /// it), collect `(index, result)` pairs locally, and the results are
    /// scattered back into canonical order at the join.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.workers().min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        // Telemetry: how often the pool spins up, how many workers it
        // spawns, how many items each steals off the shared queue, and
        // how many workers drain the queue dry (went idle). Counter
        // handles are resolved once, outside the claim loop.
        let c_batches = hmpt_obs::counter("exec.parallel.batches");
        let c_workers = hmpt_obs::counter("exec.parallel.workers");
        let c_steals = hmpt_obs::counter("exec.parallel.steals");
        let c_idle = hmpt_obs::counter("exec.parallel.idle");
        c_batches.incr();
        c_workers.add(workers as u64);
        let next = AtomicUsize::new(0);
        let f = &f;
        let next = &next;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            c_steals.incr();
                            local.push((i, f(i)));
                        }
                        c_idle.incr();
                        local
                    })
                })
                .collect();
            let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
            for h in handles {
                for (i, v) in h.join().expect("executor pool worker panicked") {
                    slots[i] = Some(v);
                }
            }
            slots.into_iter().map(|s| s.expect("every item claimed exactly once")).collect()
        })
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            ExecutorKind::Serial => "serial".to_string(),
            ExecutorKind::Parallel { .. } => format!("parallel×{}", self.workers()),
        }
    }
}

/// Evaluate a batch of campaign cells, returning outcomes in cell
/// order. The cell level is where caching composes: a cell carries its
/// content key, so a caching wrapper can short-circuit the measurement
/// without knowing anything about campaigns.
pub trait CellExecutor: Sync {
    fn run_cells(
        &self,
        cells: &[CellSpec],
        measure: &(dyn Fn(&CellSpec) -> Result<CellOutcome, TunerError> + Sync),
    ) -> Vec<Result<CellOutcome, TunerError>>;

    /// Human-readable label for reports.
    fn describe(&self) -> String;
}

/// Every executor strategy evaluates cells by index.
impl CellExecutor for ExecutorKind {
    fn run_cells(
        &self,
        cells: &[CellSpec],
        measure: &(dyn Fn(&CellSpec) -> Result<CellOutcome, TunerError> + Sync),
    ) -> Vec<Result<CellOutcome, TunerError>> {
        self.run(cells.len(), |i| {
            let _cell = hmpt_obs::span("exec.cell");
            measure(&cells[i])
        })
    }

    fn describe(&self) -> String {
        self.label()
    }
}

/// A [`CellExecutor`] adapter that consults a shared
/// [`MeasurementCache`] before (and populates it after) every cell the
/// wrapped executor evaluates. Because a cell's key covers everything
/// the simulation depends on — machine, spec, groups ⊕ configuration,
/// noise ⊕ seed — a hit returns the bit-identical outcome the run
/// would have produced.
///
/// The adapter counts its own lookups ([`Self::stats`]): the fleet
/// gives each job one, so a job's cache traffic stays its own while
/// other jobs use the same cache at the same time.
#[derive(Debug)]
pub struct CachingExecutor {
    inner: ExecutorKind,
    cache: Arc<MeasurementCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    added: AtomicU64,
}

impl CachingExecutor {
    pub fn new(inner: ExecutorKind, cache: Arc<MeasurementCache>) -> Self {
        CachingExecutor {
            inner,
            cache,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            added: AtomicU64::new(0),
        }
    }

    pub fn cache(&self) -> &Arc<MeasurementCache> {
        &self.cache
    }

    pub fn inner(&self) -> ExecutorKind {
        self.inner
    }

    /// The lookups of the cells this executor evaluated: its hits, its
    /// misses, and as `entries` the keys its misses added to the cache.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.added.load(Ordering::Relaxed),
        }
    }
}

impl CellExecutor for CachingExecutor {
    fn run_cells(
        &self,
        cells: &[CellSpec],
        measure: &(dyn Fn(&CellSpec) -> Result<CellOutcome, TunerError> + Sync),
    ) -> Vec<Result<CellOutcome, TunerError>> {
        self.inner.run(cells.len(), |i| {
            // The span sits inside the cache consult: a hit costs no
            // simulate span, so `exec.cell` counts actual simulations.
            let (outcome, lookup) = self.cache.get_or_measure(cells[i].key, || {
                let _cell = hmpt_obs::span("exec.cell");
                measure(&cells[i])
            });
            match lookup {
                Lookup::Hit => self.hits.fetch_add(1, Ordering::Relaxed),
                Lookup::Miss { added } => {
                    self.added.fetch_add(u64::from(added), Ordering::Relaxed);
                    self.misses.fetch_add(1, Ordering::Relaxed)
                }
            };
            outcome
        })
    }

    fn describe(&self) -> String {
        format!("{}+cache", self.inner.label())
    }
}

/// The standard executor stack: an executor strategy, optionally
/// wrapped in a measurement cache. (The fleet builds its
/// [`CachingExecutor`] directly, to read the job's own counts off it.)
pub fn cell_executor(
    kind: ExecutorKind,
    cache: Option<Arc<MeasurementCache>>,
) -> Box<dyn CellExecutor> {
    match cache {
        Some(cache) => Box::new(CachingExecutor::new(kind, cache)),
        None => Box::new(kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_preserves_order() {
        let out = ExecutorKind::Serial.run(8, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let f = |i: usize| (i as f64 * 0.1).sin();
        let serial = ExecutorKind::Serial.run(1000, f);
        for workers in [1, 2, 3, 8] {
            let par = ExecutorKind::Parallel { workers }.run(1000, f);
            assert_eq!(serial, par, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_uses_all_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        ExecutorKind::Parallel { workers: 4 }.run(64, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
        // Work was actually distributed across threads. (Not asserted
        // == 4: on a loaded single-core CI machine a late-spawned
        // worker can legitimately find the queue already drained.)
        assert!(seen.lock().unwrap().len() >= 2, "work never left one thread");
    }

    #[test]
    fn zero_workers_auto_detects() {
        assert_eq!(ExecutorKind::parallel().workers(), available_workers());
        assert_eq!(ExecutorKind::Serial.workers(), 1);
        assert!(available_workers() >= 1);
    }

    #[test]
    fn executor_kind_dispatches() {
        let f = |i: usize| i + 1;
        assert_eq!(ExecutorKind::Serial.run(4, f), vec![1, 2, 3, 4]);
        assert_eq!(ExecutorKind::parallel().run(4, f), vec![1, 2, 3, 4]);
        assert_eq!(ExecutorKind::Serial.label(), "serial");
        assert!(ExecutorKind::Parallel { workers: 3 }.label().contains('3'));
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u32> = ExecutorKind::parallel().run(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    fn synthetic_cells(n: usize) -> Vec<CellSpec> {
        use hmpt_sim::fingerprint::Fingerprint;
        (0..n)
            .map(|i| CellSpec {
                config: crate::configspace::Config(0),
                rep: i,
                seed: i as u64,
                key: (
                    Fingerprint::from_raw(1),
                    Fingerprint::from_raw(2),
                    Fingerprint::from_raw(3),
                    Fingerprint::from_raw(i as u64),
                ),
            })
            .collect()
    }

    #[test]
    fn executor_kinds_are_cell_executors() {
        let cells = synthetic_cells(5);
        let measure = |c: &CellSpec| Ok(CellOutcome { time_s: c.rep as f64, hbm_fraction: 0.0 });
        for kind in [ExecutorKind::Serial, ExecutorKind::Parallel { workers: 2 }] {
            let out = CellExecutor::run_cells(&kind, &cells, &measure);
            assert_eq!(out.len(), 5);
            assert_eq!(out[3].as_ref().unwrap().time_s, 3.0);
        }
        assert_eq!(CellExecutor::describe(&ExecutorKind::Serial), "serial");
    }

    #[test]
    fn caching_executor_deduplicates_by_key() {
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(MeasurementCache::new());
        let exec = CachingExecutor::new(ExecutorKind::Serial, Arc::clone(&cache));
        let cells = synthetic_cells(4);
        let calls = AtomicUsize::new(0);
        let measure = |c: &CellSpec| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(CellOutcome { time_s: c.rep as f64, hbm_fraction: 0.0 })
        };
        let first = exec.run_cells(&cells, &measure);
        let second = exec.run_cells(&cells, &measure);
        assert_eq!(calls.load(Ordering::Relaxed), 4, "second pass fully cached");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap().time_s.to_bits(), b.as_ref().unwrap().time_s.to_bits());
        }
        assert_eq!(cache.stats().hits, 4);
        assert_eq!(exec.stats(), CacheStats { hits: 4, misses: 4, entries: 4 });
        // A second executor over the same cache counts only its own
        // lookups.
        let other = CachingExecutor::new(ExecutorKind::Serial, Arc::clone(&cache));
        other.run_cells(&cells[..2], &measure);
        assert_eq!(other.stats(), CacheStats { hits: 2, misses: 0, entries: 0 });
        assert_eq!(exec.stats().hits, 4);
        assert!(exec.describe().contains("cache"));
        assert_eq!(exec.inner(), ExecutorKind::Serial);
    }
}
