//! # hmpt-obs — zero-cost telemetry for the campaign stack
//!
//! A minimal `tracing`-style core in the workspace's vendored,
//! dependency-free idiom: [`span`]s (nestable, thread-aware, timed on
//! the monotonic clock), [`counter`]s and [`gauge`]s (atomic,
//! registry-keyed), structured events ([`info`]/[`warn`]), and a
//! pluggable [`Collector`] (no-op, stderr, JSONL writer, fan-out).
//!
//! This crate is the write side. The read side — folding a run's
//! records into per-span statistics, rollups and the cache-flow view —
//! is `hmpt_fleet::telemetry`, whose one fold reads a `--trace-out`
//! file or, as its `LiveSummary` collector, a live run (`--metrics`).
//!
//! ## The zero-perturbation contract
//!
//! Telemetry observes the campaign stack; it never participates in it.
//! Three rules make that a checkable invariant rather than a hope:
//!
//! 1. **No data flows back.** [`Collector`] methods return `()`; a span
//!    guard exposes nothing the instrumented code can read. Nothing a
//!    collector does can reach a seed, a fingerprint, or a result byte.
//! 2. **Disabled means near-nothing.** Span creation and counter
//!    bumps are gated on one `Relaxed` atomic load ([`recording`]).
//!    When recording is off — the default — a span is an inert `None`
//!    guard: no clock read, no allocation, no registry touch.
//! 3. **Events are diagnostics, not control flow.** Status lines the
//!    binaries used to `eprintln!` now route through the installed
//!    collector, so `--quiet` and `--trace-out` see one stream; with no
//!    collector installed the default sink prints them to stderr
//!    exactly as before.
//!
//! `tests/obs_properties.rs` (workspace root) property-tests the
//! contract: traced runs are byte-identical to untraced runs across
//! serial, parallel, and cached executors.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use hmpt_obs::{Collector, SpanRecord};
//!
//! /// Keeps the name of every closed span.
//! #[derive(Default)]
//! struct Names(Mutex<Vec<&'static str>>);
//!
//! impl Collector for Names {
//!     fn span(&self, record: &SpanRecord) {
//!         self.0.lock().unwrap().push(record.name);
//!     }
//! }
//!
//! let names = Arc::new(Names::default());
//! hmpt_obs::install(names.clone(), true);
//! {
//!     let _outer = hmpt_obs::span("demo.outer");
//!     let _inner = hmpt_obs::span("demo.inner");
//!     hmpt_obs::counter("demo.cells").add(3);
//! }
//! hmpt_obs::flush();
//! // Guards close innermost-first.
//! assert_eq!(*names.0.lock().unwrap(), ["demo.inner", "demo.outer"]);
//! assert_eq!(hmpt_obs::counter("demo.cells").get(), 3);
//! hmpt_obs::reset();
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Severity of a structured event. `Info` is progress chatter a `--quiet`
/// run suppresses; `Warn` is a recoverable anomaly that always prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Routine progress/status (suppressed by quiet collectors).
    Info,
    /// Recoverable anomaly worth surfacing even when quiet.
    Warn,
}

impl Level {
    /// Lower-case wire name used in the JSONL trace schema.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// A closed span, delivered to the collector when its guard drops.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Static span name, e.g. `"fleet.job"`.
    pub name: &'static str,
    /// Optional dynamic label (scenario coordinates, file path, …).
    pub detail: Option<String>,
    /// Process-unique span id (monotonic, never reused).
    pub id: u64,
    /// Id of the innermost enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Small per-thread ordinal (0 = first thread to emit telemetry).
    pub thread: u64,
    /// Start time in microseconds since the process telemetry epoch.
    pub start_us: u64,
    /// Wall duration in nanoseconds, measured on the monotonic clock.
    pub dur_ns: u64,
}

/// A structured event: a named, levelled status line.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Severity.
    pub level: Level,
    /// Static event name, e.g. `"fleet.cache"`.
    pub name: &'static str,
    /// Human-readable message (already formatted).
    pub message: String,
}

// ---------------------------------------------------------------------------
// Collector trait + implementations
// ---------------------------------------------------------------------------

/// A telemetry sink. All methods default to no-ops so collectors opt
/// into exactly the record kinds they care about. Methods take `&self`
/// and must be thread-safe: spans close concurrently on worker threads.
pub trait Collector: Send + Sync {
    /// A span closed.
    fn span(&self, _record: &SpanRecord) {}
    /// A structured event fired.
    fn event(&self, _record: &EventRecord) {}
    /// Final value of a named counter (delivered by [`flush`]).
    fn counter(&self, _name: &'static str, _value: u64) {}
    /// Final value of a named gauge (delivered by [`flush`]).
    fn gauge(&self, _name: &'static str, _value: u64) {}
    /// Flush buffered output; called once at the end of a run.
    fn flush(&self) {}
}

/// Discards everything. The reference point for the zero-perturbation
/// benchmark: a run with `NoopCollector` must be byte-identical to a
/// run with no telemetry at all.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopCollector;

impl Collector for NoopCollector {}

/// Prints events to stderr — the default sink when nothing is
/// installed, preserving the stack's historical `eprintln!` behaviour.
/// Spans, counters and gauges are ignored.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrCollector {
    /// Suppress `Info` events (`Warn` always prints).
    pub quiet: bool,
}

impl Collector for StderrCollector {
    fn event(&self, record: &EventRecord) {
        if self.quiet && record.level == Level::Info {
            return;
        }
        eprintln!("{}", record.message);
    }
}

/// Exact per-span duration percentiles (nearest-rank over every
/// recorded duration — not an approximation sketch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanPercentiles {
    /// Median duration, nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile duration, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile duration, nanoseconds.
    pub p99_ns: u64,
}

impl SpanPercentiles {
    /// Nearest-rank percentiles of a non-empty duration sample
    /// (`durations` need not be sorted; `None` for an empty sample).
    pub fn of(durations: &[u64]) -> Option<SpanPercentiles> {
        if durations.is_empty() {
            return None;
        }
        let mut sorted = durations.to_vec();
        sorted.sort_unstable();
        Some(SpanPercentiles {
            p50_ns: nearest_rank(&sorted, 50),
            p95_ns: nearest_rank(&sorted, 95),
            p99_ns: nearest_rank(&sorted, 99),
        })
    }
}

/// The nearest-rank percentile of a *sorted, non-empty* sample: the
/// smallest value such that at least `pct`% of the sample is ≤ it.
/// Exact by construction — `nearest_rank(&s, 50)` of a 2-element sample
/// is `s[0]`, never an interpolated midpoint.
pub fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    debug_assert!(!sorted.is_empty() && (1..=100).contains(&pct));
    let rank = (pct * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Writes one JSON object per record — the `--trace-out` format.
///
/// Schema (one line per record, LF-terminated):
///
/// ```json
/// {"type":"span","name":"fleet.job","detail":"mg·xeon-max","id":7,"parent":3,"thread":1,"t_us":812,"dur_ns":64000}
/// {"type":"event","level":"info","name":"fleet.job","msg":"job 0 done"}
/// {"type":"counter","name":"cache.hit","value":96}
/// {"type":"gauge","name":"cache.entries","value":128}
/// ```
///
/// Span records are emitted when a span *closes*, so every span line in
/// a complete trace is a closed span (`dur_ns` always present).
pub struct JsonlCollector {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlCollector {
    /// Create (truncate) `path` and write the trace there.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::from_writer(Box::new(file)))
    }

    /// Write the trace to an arbitrary sink (tests, in-memory buffers).
    pub fn from_writer(out: Box<dyn Write + Send>) -> Self {
        Self { out: Mutex::new(BufWriter::new(out)) }
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().unwrap();
        // A full disk mid-trace must not abort the campaign: telemetry
        // failures are swallowed, results are sacred.
        let _ = writeln!(out, "{line}");
    }
}

impl Collector for JsonlCollector {
    fn span(&self, r: &SpanRecord) {
        let mut line = String::with_capacity(96);
        let _ = write!(line, "{{\"type\":\"span\",\"name\":\"{}\"", escape_json(r.name));
        match &r.detail {
            Some(d) => {
                let _ = write!(line, ",\"detail\":\"{}\"", escape_json(d));
            }
            None => line.push_str(",\"detail\":null"),
        }
        let _ = write!(line, ",\"id\":{}", r.id);
        match r.parent {
            Some(p) => {
                let _ = write!(line, ",\"parent\":{p}");
            }
            None => line.push_str(",\"parent\":null"),
        }
        let _ = write!(
            line,
            ",\"thread\":{},\"t_us\":{},\"dur_ns\":{}}}",
            r.thread, r.start_us, r.dur_ns
        );
        self.write_line(&line);
    }

    fn event(&self, r: &EventRecord) {
        self.write_line(&format!(
            "{{\"type\":\"event\",\"level\":\"{}\",\"name\":\"{}\",\"msg\":\"{}\"}}",
            r.level.as_str(),
            escape_json(r.name),
            escape_json(&r.message)
        ));
    }

    fn counter(&self, name: &'static str, value: u64) {
        self.write_line(&format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
            escape_json(name)
        ));
    }

    fn gauge(&self, name: &'static str, value: u64) {
        self.write_line(&format!(
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}",
            escape_json(name)
        ));
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap().flush();
    }
}

/// Fans every record out to several collectors — e.g. stderr events
/// plus a JSONL trace plus the `--metrics` summary.
pub struct Fanout {
    sinks: Vec<Arc<dyn Collector>>,
}

impl Fanout {
    /// Combine `sinks` into one collector.
    pub fn new(sinks: Vec<Arc<dyn Collector>>) -> Self {
        Self { sinks }
    }
}

impl Collector for Fanout {
    fn span(&self, record: &SpanRecord) {
        for s in &self.sinks {
            s.span(record);
        }
    }

    fn event(&self, record: &EventRecord) {
        for s in &self.sinks {
            s.event(record);
        }
    }

    fn counter(&self, name: &'static str, value: u64) {
        for s in &self.sinks {
            s.counter(name, value);
        }
    }

    fn gauge(&self, name: &'static str, value: u64) {
        for s in &self.sinks {
            s.gauge(name, value);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

/// Minimal JSON string escaper for the JSONL schema (quotes,
/// backslashes, control characters).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Global dispatch
// ---------------------------------------------------------------------------

/// Fast-path gate: spans and counters record only when this is true.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// The installed collector; `None` means the default stderr sink.
static COLLECTOR: RwLock<Option<Arc<dyn Collector>>> = RwLock::new(None);

/// Fallback sink when nothing is installed: print events, drop spans.
static DEFAULT_SINK: StderrCollector = StderrCollector { quiet: false };

/// Monotonic epoch all span timestamps are relative to.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Next span id; never reused within a process.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Next per-thread ordinal.
static NEXT_THREAD_ORD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Ids of the open spans on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's small stable ordinal.
    static THREAD_ORD: u64 = NEXT_THREAD_ORD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn dispatch(f: impl FnOnce(&dyn Collector)) {
    let guard = COLLECTOR.read().unwrap();
    match guard.as_deref() {
        Some(c) => f(c),
        None => f(&DEFAULT_SINK),
    }
}

/// Install `collector` as the process-wide sink. `record` turns span
/// timing and counter accumulation on; events flow to the collector
/// either way. Counters are zeroed so each installation observes a
/// fresh window.
pub fn install(collector: Arc<dyn Collector>, record: bool) {
    reset_metrics();
    *COLLECTOR.write().unwrap() = Some(collector);
    RECORDING.store(record, Ordering::SeqCst);
}

/// Tear telemetry back down to the boot state: recording off, default
/// stderr sink, counters zeroed.
pub fn reset() {
    RECORDING.store(false, Ordering::SeqCst);
    *COLLECTOR.write().unwrap() = None;
    reset_metrics();
}

/// Is span/counter recording currently on? One `Relaxed` load — this
/// is the whole cost telemetry adds to an untraced hot path.
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Deliver every non-zero counter and gauge to the collector, then
/// flush it. Call once at the end of a run.
pub fn flush() {
    dispatch(|c| {
        for (name, value) in counters() {
            c.counter(name, value);
        }
        for (name, value) in gauges() {
            c.gauge(name, value);
        }
        c.flush();
    });
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct ActiveSpan {
    name: &'static str,
    detail: Option<String>,
    id: u64,
    parent: Option<u64>,
    thread: u64,
    start_us: u64,
    started: Instant,
}

/// RAII guard returned by [`span`]: the span closes (and reaches the
/// collector) when the guard drops. `!Send` by construction — a span
/// must close on the thread that opened it, because parentage is
/// tracked per thread.
pub struct Span {
    active: Option<ActiveSpan>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Span {
    fn disabled() -> Self {
        Span { active: None, _not_send: std::marker::PhantomData }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else { return };
        let dur_ns = active.started.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            debug_assert_eq!(stack.last().copied(), Some(active.id), "span guards must nest");
            stack.pop();
        });
        let record = SpanRecord {
            name: active.name,
            detail: active.detail,
            id: active.id,
            parent: active.parent,
            thread: active.thread,
            start_us: active.start_us,
            dur_ns,
        };
        dispatch(|c| c.span(&record));
    }
}

/// Open a span. When recording is off this is one atomic load and an
/// inert guard — no clock read, no allocation.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !recording() {
        return Span::disabled();
    }
    open_span(name, None)
}

/// Open a span with a lazily-built dynamic label (scenario coordinates,
/// a file path…). The closure only runs when recording is on.
#[inline]
pub fn span_with<F: FnOnce() -> String>(name: &'static str, detail: F) -> Span {
    if !recording() {
        return Span::disabled();
    }
    open_span(name, Some(detail()))
}

#[cold]
fn open_span(name: &'static str, detail: Option<String>) -> Span {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    let start_us = started.duration_since(epoch()).as_micros() as u64;
    let thread = THREAD_ORD.with(|t| *t);
    let parent = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    Span {
        active: Some(ActiveSpan { name, detail, id, parent, thread, start_us, started }),
        _not_send: std::marker::PhantomData,
    }
}

/// Record a span whose duration was measured by the caller — for
/// intervals that cross threads, where an RAII [`Span`] guard cannot
/// travel (a [`Span`] is `!Send`; a job's queue wait starts on the
/// connection thread but ends on the runner thread). The record gets a
/// fresh id, no parent, and the recording thread's ordinal; `start_us`
/// is back-computed from now minus `dur` so the interval lines up on a
/// timeline next to guard-recorded spans.
pub fn record_span(name: &'static str, detail: Option<String>, dur: Duration) {
    if !recording() {
        return;
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let now_us = Instant::now().duration_since(epoch()).as_micros() as u64;
    let record = SpanRecord {
        name,
        detail,
        id,
        parent: None,
        thread: THREAD_ORD.with(|t| *t),
        start_us: now_us.saturating_sub(dur.as_micros() as u64),
        dur_ns: dur.as_nanos() as u64,
    };
    dispatch(|c| c.span(&record));
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Fire an event. Events flow regardless of [`recording`] — they are
/// the stack's status/diagnostic stream, and the installed collector
/// (or the default stderr sink) decides what to show.
pub fn event(level: Level, name: &'static str, message: String) {
    let record = EventRecord { level, name, message };
    dispatch(|c| c.event(&record));
}

/// [`event`] at `Info` level.
pub fn info(name: &'static str, message: String) {
    event(Level::Info, name, message);
}

/// [`event`] at `Warn` level.
pub fn warn(name: &'static str, message: String) {
    event(Level::Warn, name, message);
}

// ---------------------------------------------------------------------------
// Counters & gauges
// ---------------------------------------------------------------------------

enum MetricKind {
    Counter,
    Gauge,
}

/// Registry of leaked atomics, keyed by static name. BTreeMap so
/// snapshots come out sorted and runs are diff-stable.
static METRICS: Mutex<BTreeMap<&'static str, (&'static AtomicU64, bool)>> =
    Mutex::new(BTreeMap::new());

fn metric_cell(name: &'static str, kind: MetricKind) -> &'static AtomicU64 {
    let mut metrics = METRICS.lock().unwrap();
    let is_gauge = matches!(kind, MetricKind::Gauge);
    metrics.entry(name).or_insert_with(|| (&*Box::leak(Box::new(AtomicU64::new(0))), is_gauge)).0
}

/// A monotonically-increasing counter handle. Cheap to copy; fetch one
/// outside a hot loop and call [`Counter::add`] inside it.
#[derive(Clone, Copy)]
pub struct Counter {
    cell: &'static AtomicU64,
}

impl Counter {
    /// Add `n` (recorded only while [`recording`] is on).
    #[inline]
    pub fn add(&self, n: u64) {
        if recording() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value gauge handle.
#[derive(Clone, Copy)]
pub struct Gauge {
    cell: &'static AtomicU64,
}

impl Gauge {
    /// Store `v` (recorded only while [`recording`] is on).
    #[inline]
    pub fn set(&self, v: u64) {
        if recording() {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Look up (or register) the counter named `name`.
pub fn counter(name: &'static str) -> Counter {
    Counter { cell: metric_cell(name, MetricKind::Counter) }
}

/// Look up (or register) the gauge named `name`.
pub fn gauge(name: &'static str) -> Gauge {
    Gauge { cell: metric_cell(name, MetricKind::Gauge) }
}

/// Snapshot of every non-zero counter, sorted by name.
pub fn counters() -> Vec<(&'static str, u64)> {
    METRICS
        .lock()
        .unwrap()
        .iter()
        .filter(|(_, (_, is_gauge))| !is_gauge)
        .map(|(name, (cell, _))| (*name, cell.load(Ordering::Relaxed)))
        .filter(|(_, v)| *v != 0)
        .collect()
}

/// Snapshot of every non-zero gauge, sorted by name.
pub fn gauges() -> Vec<(&'static str, u64)> {
    METRICS
        .lock()
        .unwrap()
        .iter()
        .filter(|(_, (_, is_gauge))| *is_gauge)
        .map(|(name, (cell, _))| (*name, cell.load(Ordering::Relaxed)))
        .filter(|(_, v)| *v != 0)
        .collect()
}

/// Zero every registered counter and gauge.
pub fn reset_metrics() {
    for (cell, _) in METRICS.lock().unwrap().values() {
        cell.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Telemetry state is process-global; tests that install collectors
    /// serialize on this lock so `cargo test`'s thread pool can't
    /// interleave them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Keeps every closed span, in arrival order.
    #[derive(Default)]
    struct CaptureSpans(Mutex<Vec<SpanRecord>>);

    impl Collector for CaptureSpans {
        fn span(&self, r: &SpanRecord) {
            self.0.lock().unwrap().push(r.clone());
        }
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = exclusive();
        reset();
        let cap = Arc::new(CaptureSpans::default());
        // Collector installed but recording off: spans must not reach it.
        install(cap.clone(), false);
        {
            let _s = span("test.noop");
            let _t = span_with("test.noop2", || panic!("detail closure must not run"));
        }
        counter("test.noop.count").add(5);
        assert!(cap.0.lock().unwrap().is_empty());
        assert_eq!(counter("test.noop.count").get(), 0);
        reset();
    }

    #[test]
    fn span_nesting_tracks_parents_per_thread() {
        let _guard = exclusive();
        reset();

        let cap = Arc::new(CaptureSpans::default());
        install(cap.clone(), true);
        {
            let _a = span("test.outer");
            {
                let _b = span_with("test.mid", || "m".to_string());
                let _c = span("test.inner");
            }
            // A sibling thread gets its own stack: no parent leaks across.
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _t = span("test.thread");
                });
            });
        }
        reset();

        let spans = cap.0.lock().unwrap();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let outer = by_name("test.outer");
        let mid = by_name("test.mid");
        let inner = by_name("test.inner");
        let threaded = by_name("test.thread");
        assert_eq!(outer.parent, None);
        assert_eq!(mid.parent, Some(outer.id));
        assert_eq!(inner.parent, Some(mid.id));
        assert_eq!(mid.detail.as_deref(), Some("m"));
        assert_eq!(threaded.parent, None, "span stacks are per-thread");
        assert_ne!(threaded.thread, outer.thread);
        // Guards close innermost-first, so records arrive inner→outer.
        assert!(
            spans.iter().position(|s| s.id == inner.id)
                < spans.iter().position(|s| s.id == outer.id)
        );
    }

    #[test]
    fn record_span_carries_caller_measured_duration() {
        let _guard = exclusive();
        reset();
        let cap = Arc::new(CaptureSpans::default());
        install(cap.clone(), true);
        record_span("test.manual", Some("job 1".into()), Duration::from_micros(1500));
        reset();
        // Recording off again: a no-op, like the guard API.
        record_span("test.manual", None, Duration::from_micros(9));
        let spans = cap.0.lock().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "test.manual");
        assert_eq!(spans[0].detail.as_deref(), Some("job 1"));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[0].dur_ns, 1_500_000);
    }

    #[test]
    fn counter_registry_is_concurrency_safe() {
        let _guard = exclusive();
        reset();
        install(Arc::new(NoopCollector), true);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let c = counter("test.concurrent");
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(counter("test.concurrent").get(), 8_000);
        gauge("test.gauge").set(42);
        assert_eq!(gauge("test.gauge").get(), 42);
        assert!(counters().contains(&("test.concurrent", 8_000)));
        assert!(gauges().contains(&("test.gauge", 42)));
        reset();
        assert_eq!(counter("test.concurrent").get(), 0);
    }

    #[test]
    fn jsonl_collector_emits_one_escaped_object_per_line() {
        let _guard = exclusive();
        reset();

        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = Arc::new(Mutex::new(Vec::new()));
        let jsonl = Arc::new(JsonlCollector::from_writer(Box::new(Shared(buf.clone()))));
        install(jsonl, true);
        {
            let _s = span_with("test.jsonl", || "a\"b\\c\nd".to_string());
        }
        warn("test.warnline", "tab\there".to_string());
        counter("test.jsonl.count").add(3);
        flush();
        reset();

        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "span + event + counter lines, got: {text}");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
        }
        assert!(lines[0].contains("\"type\":\"span\""));
        assert!(lines[0].contains("\\\"b\\\\c\\n"), "escaping lost: {}", lines[0]);
        assert!(lines.iter().any(|l| l.contains("\"type\":\"event\"") && l.contains("tab\\there")));
        assert!(lines.iter().any(|l| l.contains("\"type\":\"counter\"")
            && l.contains("\"name\":\"test.jsonl.count\"")
            && l.contains("\"value\":3")));
    }

    #[test]
    fn span_percentiles_are_exact() {
        // Durations 1..=100 µs, shuffled: the percentiles are known exactly.
        let durations: Vec<u64> = (1..=100u64).map(|us| (us * 37 % 101) * 1_000).collect();
        let p = SpanPercentiles::of(&durations).unwrap();
        assert_eq!(p.p50_ns, 50_000);
        assert_eq!(p.p95_ns, 95_000);
        assert_eq!(p.p99_ns, 99_000);
        // Nearest-rank is exact, never interpolated: p50 of [1, 3] is 1.
        assert_eq!(SpanPercentiles::of(&[3, 1]).unwrap().p50_ns, 1);
        assert_eq!(SpanPercentiles::of(&[]), None);
        assert_eq!(nearest_rank(&[7], 99), 7);
    }

    #[test]
    fn escape_json_handles_controls() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\u{1}b"), "a\\u0001b");
    }
}
