//! Campaign execution backends.
//!
//! The measurement campaign is embarrassingly parallel: every
//! (configuration, repetition) cell is an independent simulated run with
//! its own derived seed. [`RunExecutor`] abstracts *how* a batch of
//! index-addressed cells is evaluated; [`SerialExecutor`] runs them in
//! order on the calling thread, [`ParallelExecutor`] fans them out over a
//! work-stealing pool of std threads. Results are always reassembled in
//! canonical index order, so the two executors are **bit-identical** —
//! the parallel path changes wall-clock time, never results.
//!
//! On top of the index-level abstraction sits the *cell* level:
//! [`CellExecutor`] evaluates batches of campaign cells
//! ([`crate::campaign::CellSpec`]) — every [`RunExecutor`] is trivially
//! a [`CellExecutor`], and [`CachingExecutor`] wraps any of them with a
//! content-addressed [`MeasurementCache`] consult per cell. Caching at
//! the executor layer (instead of inside one front end) means the
//! driver, the online tuner, sensitivity sweeps, and the fleet all
//! share the same cache plumbing. Every cell reaches every executor
//! with its real content key: deriving one costs two hash mixes, so
//! plain executors simply ignore it.
//!
//! This module is the in-tree home of the abstraction so the tuner
//! pipeline ([`crate::measure`], [`crate::driver`], [`crate::online`],
//! [`crate::sensitivity`]) can thread it through without a dependency
//! cycle; the `hmpt-fleet` crate re-exports it as part of the fleet
//! subsystem's public surface.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::cache::MeasurementCache;
use crate::campaign::CellSpec;
use crate::error::TunerError;
use crate::measure::CellOutcome;

/// Evaluate `n` independent cells `f(0) .. f(n-1)`, returning results in
/// index order regardless of execution order.
pub trait RunExecutor: Sync {
    fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync;

    /// Human-readable label for reports.
    fn label(&self) -> String;
}

/// In-order execution on the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialExecutor;

impl RunExecutor for SerialExecutor {
    fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        (0..n).map(f).collect()
    }

    fn label(&self) -> String {
        "serial".to_string()
    }
}

/// The host's available parallelism (≥ 1).
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Work-stealing thread-pool execution.
///
/// Workers pull the next unclaimed cell index from a shared atomic
/// counter (dynamic scheduling: a slow cell never blocks the queue
/// behind it), collect `(index, result)` pairs locally, and the results
/// are scattered back into canonical index order at the join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelExecutor {
    workers: usize,
}

impl ParallelExecutor {
    /// Pool sized to the host's available parallelism.
    pub fn new() -> Self {
        Self::with_workers(available_workers())
    }

    /// Pool with an explicit worker count (`0` = auto-detect).
    pub fn with_workers(workers: usize) -> Self {
        let workers = if workers == 0 { available_workers() } else { workers };
        ParallelExecutor { workers }
    }

    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        Self::new()
    }
}

impl RunExecutor for ParallelExecutor {
    fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.workers.min(n);
        if workers <= 1 {
            return SerialExecutor.run(n, f);
        }
        // Telemetry: how often the pool spins up, how many workers it
        // spawns, how many cells each steals off the shared queue, and
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
                for (i, v) in h.join().expect("campaign worker panicked") {
                    slots[i] = Some(v);
                }
            }
            slots.into_iter().map(|s| s.expect("every cell claimed exactly once")).collect()
        })
    }

    fn label(&self) -> String {
        format!("parallel×{}", self.workers)
    }
}

/// Copyable executor choice carried by driver/online/sensitivity configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    #[default]
    Serial,
    /// `workers == 0` means auto-detect at run time.
    Parallel { workers: usize },
}

impl ExecutorKind {
    /// Auto-sized parallel executor.
    pub fn parallel() -> Self {
        ExecutorKind::Parallel { workers: 0 }
    }
}

impl RunExecutor for ExecutorKind {
    fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self {
            ExecutorKind::Serial => SerialExecutor.run(n, f),
            ExecutorKind::Parallel { workers } => {
                ParallelExecutor::with_workers(*workers).run(n, f)
            }
        }
    }

    fn label(&self) -> String {
        match self {
            ExecutorKind::Serial => SerialExecutor.label(),
            ExecutorKind::Parallel { workers } => ParallelExecutor::with_workers(*workers).label(),
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

/// Every index-level executor evaluates cells by index.
impl<E: RunExecutor> CellExecutor for E {
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
#[derive(Debug, Clone)]
pub struct CachingExecutor<E: RunExecutor = ExecutorKind> {
    inner: E,
    cache: Arc<MeasurementCache>,
}

impl<E: RunExecutor> CachingExecutor<E> {
    pub fn new(inner: E, cache: Arc<MeasurementCache>) -> Self {
        CachingExecutor { inner, cache }
    }

    pub fn cache(&self) -> &Arc<MeasurementCache> {
        &self.cache
    }

    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: RunExecutor> CellExecutor for CachingExecutor<E> {
    fn run_cells(
        &self,
        cells: &[CellSpec],
        measure: &(dyn Fn(&CellSpec) -> Result<CellOutcome, TunerError> + Sync),
    ) -> Vec<Result<CellOutcome, TunerError>> {
        self.inner.run(cells.len(), |i| {
            // The span sits inside the cache consult: a hit costs no
            // simulate span, so `exec.cell` counts actual simulations.
            self.cache.get_or_measure(cells[i].key, || {
                let _cell = hmpt_obs::span("exec.cell");
                measure(&cells[i])
            })
        })
    }

    fn describe(&self) -> String {
        format!("{}+cache", self.inner.label())
    }
}

/// The standard executor stack: an index-level executor choice,
/// optionally wrapped in a measurement cache. The one place the
/// cache-or-plain branch lives — the driver and the fleet both build
/// their stacks here.
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
        let out = SerialExecutor.run(8, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let f = |i: usize| (i as f64 * 0.1).sin();
        let serial = SerialExecutor.run(1000, f);
        for workers in [1, 2, 3, 8] {
            let par = ParallelExecutor::with_workers(workers).run(1000, f);
            assert_eq!(serial, par, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_uses_all_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        ParallelExecutor::with_workers(4).run(64, |_| {
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
        assert_eq!(ParallelExecutor::with_workers(0).workers(), available_workers());
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
        let out: Vec<u32> = ParallelExecutor::new().run(0, |_| unreachable!());
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
    fn run_executors_are_cell_executors() {
        let cells = synthetic_cells(5);
        let measure = |c: &CellSpec| Ok(CellOutcome { time_s: c.rep as f64, hbm_fraction: 0.0 });
        let out = CellExecutor::run_cells(&SerialExecutor, &cells, &measure);
        assert_eq!(out.len(), 5);
        assert_eq!(out[3].as_ref().unwrap().time_s, 3.0);
        assert_eq!(CellExecutor::describe(&SerialExecutor), "serial");
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
        assert!(exec.describe().contains("cache"));
        assert_eq!(exec.inner(), &ExecutorKind::Serial);
    }
}
