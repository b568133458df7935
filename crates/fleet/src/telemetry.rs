//! Trace rendering and bench export — the read side of `hmpt_obs`.
//!
//! The write side lives in the `hmpt_obs` crate (spans, counters,
//! collectors); this module folds a run's records, one at a time, into
//! a typed [`TraceSummary`] — per-span statistics with exact
//! p50/p95/p99 percentiles, per-campaign rollups, counter/gauge totals,
//! and the derived cell-throughput and cache-flow views. One fold has
//! two feeds:
//!
//! * [`parse_trace`] feeds it the lines an `hmpt_obs::JsonlCollector`
//!   wrote. It is a pure text → data function, so both renderers and
//!   the campaign warehouse (`hmpt_report`) ingest traces through one
//!   parser.
//! * [`LiveSummary`] is a collector that feeds it a live run's records
//!   — the `--metrics` view, byte-identical to `trace summarize` of the
//!   same run's trace.
//! * [`summarize_trace`] renders the summary the way `hmpt-fleet trace
//!   summarize FILE` shows it; [`summarize_trace_json`] emits the same
//!   content as machine-readable JSON (`trace summarize FILE --json`),
//!   so CI asserts on summaries with `jq` instead of grepping text.
//! * [`bench_jsonl`] emits criterion-compatible
//!   `{"bench":…,"mean_ns":…,"samples":…}` lines (the `BENCH_JSON`
//!   schema of the vendored criterion), so one run's wall-clock numbers
//!   land in the same format the benchmark suite publishes — a CI job
//!   can diff cold vs warm timings across both sources with one jq
//!   expression.
//!
//! A malformed trace is a hard error naming the line, not a partial
//! summary: a trace that half-parses is evidence of a writer bug and
//! must fail loudly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};

use hmpt_obs::{Collector, EventRecord, SpanPercentiles, SpanRecord};
use serde::{Serialize, Value};

/// One criterion-compatible measurement line.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchLine {
    /// Benchmark label, e.g. `matrix.wall` or `matrix.cell`.
    pub bench: String,
    /// Mean duration in nanoseconds.
    pub mean_ns: u64,
    /// How many samples the mean covers (1 for a whole-run wall time;
    /// the executed-cell count for a per-cell mean).
    pub samples: u64,
}

/// Render bench lines as JSONL in the vendored criterion's
/// `BENCH_JSON` schema: one `{"bench":…,"mean_ns":…,"samples":…}`
/// object per line.
pub fn bench_jsonl(lines: &[BenchLine]) -> String {
    let mut out = String::new();
    for line in lines {
        let _ = writeln!(
            out,
            "{{\"bench\":\"{}\",\"mean_ns\":{},\"samples\":{}}}",
            hmpt_obs::escape_json(&line.bench),
            line.mean_ns,
            line.samples
        );
    }
    out
}

/// Statistics of one span name across a whole trace. The percentiles
/// are exact (nearest-rank over every recorded duration).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SpanSummary {
    pub count: u64,
    pub total_ns: u64,
    pub mean_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

/// One labeled `fleet.job` span — the per-campaign rollup entry.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioSpan {
    /// The span's dynamic label, e.g. `#3..6 xeon-max·mg` (scenarios 3–5).
    pub detail: String,
    pub dur_ns: u64,
}

/// One job of the campaign-service rollup: wall time from its labeled
/// `serve.job` span, merge time from the matching `serve.merge` span.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceJob {
    /// The job span's label, e.g. `job 3 ci`.
    pub detail: String,
    pub wall_ns: u64,
    /// Of the wall: merging shard reports + folding the cache (`None`
    /// when the job failed before its merge).
    pub merge_ns: Option<u64>,
}

/// The campaign-service view of a daemon trace: where service time
/// goes, split into queue wait (admission → claim) and per-job wall vs
/// merge time.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceRollup {
    /// Jobs the trace saw execute (`serve.job` spans).
    pub jobs: u64,
    /// Queue-wait statistics (`serve.queue_wait` spans), exact
    /// percentiles included. `None` when every job was claimed without
    /// a recorded wait.
    pub queue_wait: Option<SpanSummary>,
    /// Per-job wall vs merge breakdown, slowest first.
    pub per_job: Vec<ServiceJob>,
}

/// The derived cell-throughput view: how fast the campaign kernel
/// chewed through cells, summed across worker threads (so on a
/// parallel run this is kernel occupancy, not wall-clock rate).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CellThroughput {
    pub cells: u64,
    pub total_ns: u64,
    pub cells_per_s: f64,
}

/// The derived cache-flow view — the counters that tell the
/// warm-vs-cold story.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CacheFlow {
    pub hits: u64,
    pub misses: u64,
    /// `hits / (hits + misses)`, in `0..=1`.
    pub hit_rate: f64,
    pub evicted: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub entries: u64,
}

/// Everything a run's records fold down to — the one typed view behind
/// the human renderer, the `--json` renderer, `--metrics`, and the
/// campaign warehouse's trace ingestion.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Total span lines in the trace.
    pub span_lines: u64,
    /// Total event lines in the trace.
    pub event_lines: u64,
    /// Per-name span statistics, sorted by name.
    pub spans: BTreeMap<String, SpanSummary>,
    /// Labeled `fleet.job` spans, slowest first.
    pub scenarios: Vec<ScenarioSpan>,
    /// Final counter values (last write wins — a flush writes totals).
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values.
    pub gauges: BTreeMap<String, u64>,
    /// Decade-bucket histograms, human renderer only.
    buckets: BTreeMap<String, [u64; 8]>,
    /// Labeled `serve.job` spans (`job N tenant`), for the service view.
    serve_jobs: Vec<ScenarioSpan>,
    /// Labeled `serve.merge` durations, keyed by `job N`.
    serve_merges: BTreeMap<String, u64>,
}

#[derive(Debug, Default, Clone)]
struct Agg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    // Decade buckets: <1µs, <10µs, <100µs, <1ms, <10ms, <100ms, <1s, ≥1s.
    buckets: [u64; 8],
    // Every duration, for the exact percentile view.
    durations: Vec<u64>,
}

impl Agg {
    fn record(&mut self, dur_ns: u64) {
        if self.count == 0 || dur_ns < self.min_ns {
            self.min_ns = dur_ns;
        }
        if dur_ns > self.max_ns {
            self.max_ns = dur_ns;
        }
        self.count += 1;
        self.total_ns += dur_ns;
        self.durations.push(dur_ns);
        let mut bucket = 0;
        let mut bound = 1_000u64;
        while bucket < 7 && dur_ns >= bound {
            bucket += 1;
            bound = bound.saturating_mul(10);
        }
        self.buckets[bucket] += 1;
    }
}

const BUCKET_LABELS: [&str; 8] =
    ["<1µs", "<10µs", "<100µs", "<1ms", "<10ms", "<100ms", "<1s", "≥1s"];

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn field_u64(obj: &Value, key: &str, line_no: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("trace line {line_no}: missing or non-numeric `{key}`"))
}

fn field_str<'v>(obj: &'v Value, key: &str, line_no: usize) -> Result<&'v str, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("trace line {line_no}: missing or non-string `{key}`"))
}

/// The one fold of a run's records, one record at a time. A trace file
/// reaches it through [`parse_trace`], a live run through
/// [`LiveSummary`], so both read the same summary off the same records.
#[derive(Debug, Default)]
struct Fold {
    span_lines: u64,
    event_lines: u64,
    spans: BTreeMap<String, Agg>,
    scenarios: Vec<ScenarioSpan>,  // fleet.job details
    serve_jobs: Vec<ScenarioSpan>, // serve.job details
    serve_merges: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
}

impl Fold {
    fn span(&mut self, name: &str, detail: Option<&str>, dur_ns: u64) {
        self.span_lines += 1;
        self.spans.entry(name.to_string()).or_default().record(dur_ns);
        let Some(detail) = detail else { return };
        let labeled = || ScenarioSpan { detail: detail.to_string(), dur_ns };
        match name {
            "fleet.job" => self.scenarios.push(labeled()),
            "serve.job" => self.serve_jobs.push(labeled()),
            "serve.merge" => {
                self.serve_merges.insert(detail.to_string(), dur_ns);
            }
            _ => {}
        }
    }

    /// Last write wins: a flush delivers totals, not deltas.
    fn counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    fn gauge(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    fn summary(&self) -> TraceSummary {
        let slowest_first = |spans: &[ScenarioSpan]| {
            let mut spans = spans.to_vec();
            spans.sort_by(|a, b| b.dur_ns.cmp(&a.dur_ns).then(a.detail.cmp(&b.detail)));
            spans
        };
        let spans = self
            .spans
            .iter()
            .map(|(name, agg)| {
                let p = SpanPercentiles::of(&agg.durations)
                    .expect("a recorded span name has at least one duration");
                let summary = SpanSummary {
                    count: agg.count,
                    total_ns: agg.total_ns,
                    mean_ns: agg.total_ns / agg.count.max(1),
                    min_ns: agg.min_ns,
                    max_ns: agg.max_ns,
                    p50_ns: p.p50_ns,
                    p95_ns: p.p95_ns,
                    p99_ns: p.p99_ns,
                };
                (name.clone(), summary)
            })
            .collect();
        TraceSummary {
            span_lines: self.span_lines,
            event_lines: self.event_lines,
            spans,
            scenarios: slowest_first(&self.scenarios),
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            buckets: self.spans.iter().map(|(name, agg)| (name.clone(), agg.buckets)).collect(),
            serve_jobs: slowest_first(&self.serve_jobs),
            serve_merges: self.serve_merges.clone(),
        }
    }
}

/// Fold a trace JSONL document into a [`TraceSummary`]. Errors name the
/// offending line; an empty trace is an error (a run that produced no
/// telemetry is a writer bug, not a quiet success).
pub fn parse_trace(text: &str) -> Result<TraceSummary, String> {
    // Every non-blank line is a record or an error.
    if text.trim().is_empty() {
        return Err("trace is empty".to_string());
    }
    let mut fold = Fold::default();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::parse(line)
            .map_err(|e| format!("trace line {line_no}: not valid JSON: {e}"))?;
        match field_str(&value, "type", line_no)? {
            "span" => {
                let name = field_str(&value, "name", line_no)?;
                let dur_ns = field_u64(&value, "dur_ns", line_no)?;
                field_u64(&value, "id", line_no)?;
                field_u64(&value, "thread", line_no)?;
                field_u64(&value, "t_us", line_no)?;
                fold.span(name, value.get("detail").and_then(Value::as_str), dur_ns);
            }
            "event" => {
                field_str(&value, "level", line_no)?;
                field_str(&value, "name", line_no)?;
                field_str(&value, "msg", line_no)?;
                fold.event_lines += 1;
            }
            "counter" => {
                let name = field_str(&value, "name", line_no)?;
                fold.counter(name, field_u64(&value, "value", line_no)?);
            }
            "gauge" => {
                let name = field_str(&value, "name", line_no)?;
                fold.gauge(name, field_u64(&value, "value", line_no)?);
            }
            other => return Err(format!("trace line {line_no}: unknown record type `{other}`")),
        }
    }
    Ok(fold.summary())
}

/// A collector that folds a live run's spans, events, counters and
/// gauges exactly as [`parse_trace`] folds the run's `--trace-out`
/// file — the `--metrics` view, so `--metrics` prints what `hmpt-fleet
/// trace summarize` prints for the same run.
#[derive(Debug, Default)]
pub struct LiveSummary {
    fold: Mutex<Fold>,
}

impl LiveSummary {
    /// The summary of every record seen so far.
    pub fn summary(&self) -> TraceSummary {
        self.fold().summary()
    }

    fn fold(&self) -> MutexGuard<'_, Fold> {
        self.fold.lock().expect("no fold update panics, so nothing poisons the lock")
    }
}

impl Collector for LiveSummary {
    fn span(&self, r: &SpanRecord) {
        self.fold().span(r.name, r.detail.as_deref(), r.dur_ns);
    }

    fn event(&self, _record: &EventRecord) {
        self.fold().event_lines += 1;
    }

    fn counter(&self, name: &'static str, value: u64) {
        self.fold().counter(name, value);
    }

    fn gauge(&self, name: &'static str, value: u64) {
        self.fold().gauge(name, value);
    }
}

impl TraceSummary {
    /// Span names ordered by total time (descending, name-tiebroken) —
    /// the order of the "top spans" table.
    fn by_total(&self) -> Vec<(&String, &SpanSummary)> {
        let mut v: Vec<(&String, &SpanSummary)> = self.spans.iter().collect();
        v.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
        v
    }

    /// The cell-throughput view, when the trace carries `exec.cell`
    /// spans with non-zero total time.
    pub fn cell_throughput(&self) -> Option<CellThroughput> {
        let s = self.spans.get("exec.cell").filter(|s| s.total_ns > 0)?;
        Some(CellThroughput {
            cells: s.count,
            total_ns: s.total_ns,
            cells_per_s: s.count as f64 * 1e9 / s.total_ns as f64,
        })
    }

    /// The campaign-service view, when the trace came from a serving
    /// daemon (`serve.job` / `serve.queue_wait` spans present).
    pub fn service_rollup(&self) -> Option<ServiceRollup> {
        let queue_wait = self.spans.get("serve.queue_wait").copied();
        if self.serve_jobs.is_empty() && queue_wait.is_none() {
            return None;
        }
        let per_job = self
            .serve_jobs
            .iter()
            .map(|s| {
                // The job span's label is `job N tenant`; the merge
                // span's is the `job N` prefix.
                let key: String = s.detail.split_whitespace().take(2).collect::<Vec<_>>().join(" ");
                ServiceJob {
                    detail: s.detail.clone(),
                    wall_ns: s.dur_ns,
                    merge_ns: self.serve_merges.get(&key).copied(),
                }
            })
            .collect();
        Some(ServiceRollup { jobs: self.serve_jobs.len() as u64, queue_wait, per_job })
    }

    /// The cache-flow view, when the trace saw any cache traffic.
    pub fn cache_flow(&self) -> Option<CacheFlow> {
        let get = |k: &str| self.counters.get(k).copied().unwrap_or(0);
        let (hits, misses) = (get("cache.hit"), get("cache.miss"));
        if hits + misses == 0 {
            return None;
        }
        Some(CacheFlow {
            hits,
            misses,
            hit_rate: hits as f64 / (hits + misses) as f64,
            evicted: get("cache.evict"),
            bytes_written: get("store.bytes_written"),
            bytes_read: get("store.bytes_read"),
            entries: self.gauges.get("cache.entries").copied().unwrap_or(0),
        })
    }

    /// The human rendering (the default body of `hmpt-fleet trace
    /// summarize FILE`, and what `--metrics` prints at exit): every span
    /// name, every counter and every gauge.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} spans ({} distinct), {} events, {} counters, {} gauges",
            self.span_lines,
            self.spans.len(),
            self.event_lines,
            self.counters.len(),
            self.gauges.len()
        );

        // Top spans by total time, with the exact percentile columns.
        let by_total = self.by_total();
        if !by_total.is_empty() {
            let _ = writeln!(out, "\ntop spans by total time:");
            let _ = writeln!(
                out,
                "  {:<16} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "span", "count", "total", "mean", "p50", "p95", "p99", "max"
            );
            for (name, s) in &by_total {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    name,
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.mean_ns),
                    fmt_ns(s.p50_ns),
                    fmt_ns(s.p95_ns),
                    fmt_ns(s.p99_ns),
                    fmt_ns(s.max_ns)
                );
            }
        }

        // Duration histograms for the repeated spans (a phase that ran
        // once has no distribution to show).
        let histogrammed: Vec<(&String, &SpanSummary)> =
            by_total.iter().filter(|(_, s)| s.count >= 2).take(6).copied().collect();
        if !histogrammed.is_empty() {
            let _ = writeln!(out, "\nduration histograms (decade buckets):");
            for (name, _) in histogrammed {
                let buckets = &self.buckets[name.as_str()];
                let cells: Vec<String> = BUCKET_LABELS
                    .iter()
                    .zip(buckets.iter())
                    .filter(|(_, n)| **n > 0)
                    .map(|(label, n)| format!("{label}:{n}"))
                    .collect();
                let _ = writeln!(out, "  {:<16} {}", name, cells.join("  "));
            }
        }

        // Per-campaign rollup from the labeled fleet.job spans.
        if !self.scenarios.is_empty() {
            let _ = writeln!(out, "\nslowest scenarios (fleet.job):");
            for s in self.scenarios.iter().take(10) {
                let _ = writeln!(out, "  {:<32} {:>10}", s.detail, fmt_ns(s.dur_ns));
            }
            if self.scenarios.len() > 10 {
                let _ = writeln!(out, "  … and {} more", self.scenarios.len() - 10);
            }
        }

        // The campaign-service rollup: where daemon time goes.
        if let Some(service) = self.service_rollup() {
            let _ = write!(out, "\ncampaign service: {} job(s)", service.jobs);
            match &service.queue_wait {
                Some(w) => {
                    let _ = writeln!(
                        out,
                        "; queue wait p50 {} p95 {} p99 {}",
                        fmt_ns(w.p50_ns),
                        fmt_ns(w.p95_ns),
                        fmt_ns(w.p99_ns)
                    );
                }
                None => {
                    let _ = writeln!(out);
                }
            }
            for job in service.per_job.iter().take(10) {
                let merge = match job.merge_ns {
                    Some(m) => format!(
                        "{} merge ({:.1}%)",
                        fmt_ns(m),
                        100.0 * m as f64 / job.wall_ns.max(1) as f64
                    ),
                    None => "no merge recorded".to_string(),
                };
                let _ = writeln!(
                    out,
                    "  {:<24} {:>10} wall, {}",
                    job.detail,
                    fmt_ns(job.wall_ns),
                    merge
                );
            }
            if service.per_job.len() > 10 {
                let _ = writeln!(out, "  … and {} more", service.per_job.len() - 10);
            }
        }

        if let Some(t) = self.cell_throughput() {
            let _ = writeln!(
                out,
                "\ncell throughput: {} cells in {} of exec.cell time ({:.0} cells/s)",
                t.cells,
                fmt_ns(t.total_ns),
                t.cells_per_s,
            );
        }

        let flow = self.cache_flow();
        if let Some(c) = flow {
            let _ = writeln!(
                out,
                "\ncache flow: {} hits / {} misses (hit-rate {:.1}%), {} evicted, \
                 {} B written / {} B read, {} entries resident",
                c.hits,
                c.misses,
                100.0 * c.hit_rate,
                c.evicted,
                c.bytes_written,
                c.bytes_read,
                c.entries,
            );
        }

        // Every counter and gauge the cache-flow line did not show, raw.
        let shown: &[&str] = match flow {
            Some(_) => &[
                "cache.hit",
                "cache.miss",
                "cache.evict",
                "store.bytes_written",
                "store.bytes_read",
                "cache.entries",
            ],
            None => &[],
        };
        for (title, values) in [("counters", &self.counters), ("gauges", &self.gauges)] {
            let rest: Vec<(&String, &u64)> =
                values.iter().filter(|(k, _)| !shown.contains(&k.as_str())).collect();
            if !rest.is_empty() {
                let _ = writeln!(out, "\n{title}:");
                for (name, v) in rest {
                    let _ = writeln!(out, "  {name} = {v}");
                }
            }
        }
        out
    }

    /// The machine-readable rendering (`trace summarize FILE --json`):
    /// one JSON object carrying the same content as the human summary —
    /// per-span statistics (exact percentiles included), scenario
    /// rollups, counters/gauges, and the derived throughput and
    /// cache-flow views (`null` when the trace lacks them).
    pub fn to_json(&self) -> Value {
        let mut m = serde::Map::new();
        m.insert("span_lines".into(), serde_json::to_value(&self.span_lines));
        m.insert("event_lines".into(), serde_json::to_value(&self.event_lines));
        m.insert("spans".into(), serde_json::to_value(&self.spans));
        m.insert("scenarios".into(), serde_json::to_value(&self.scenarios));
        m.insert("counters".into(), serde_json::to_value(&self.counters));
        m.insert("gauges".into(), serde_json::to_value(&self.gauges));
        let opt = |v: Option<Value>| v.unwrap_or(Value::Null);
        m.insert(
            "cell_throughput".into(),
            opt(self.cell_throughput().map(|t| serde_json::to_value(&t))),
        );
        m.insert("cache_flow".into(), opt(self.cache_flow().map(|c| serde_json::to_value(&c))));
        m.insert("service".into(), opt(self.service_rollup().map(|s| serde_json::to_value(&s))));
        Value::Object(m)
    }
}

/// Render the human summary of a trace JSONL document (the body of
/// `hmpt-fleet trace summarize FILE`). Errors name the offending line.
pub fn summarize_trace(text: &str) -> Result<String, String> {
    Ok(parse_trace(text)?.render_human())
}

/// Render the machine-readable summary of a trace JSONL document (the
/// body of `hmpt-fleet trace summarize FILE --json`).
pub fn summarize_trace_json(text: &str) -> Result<String, String> {
    serde_json::to_string_pretty(&parse_trace(text)?.to_json()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmpt_obs::{Fanout, JsonlCollector, Level};
    use std::sync::Arc;

    fn span_line(name: &str, detail: Option<&str>, dur_ns: u64) -> String {
        format!(
            "{{\"type\":\"span\",\"name\":\"{name}\",\"detail\":{},\"id\":1,\
             \"parent\":null,\"thread\":0,\"t_us\":5,\"dur_ns\":{dur_ns}}}",
            detail.map(|d| format!("\"{d}\"")).unwrap_or_else(|| "null".into())
        )
    }

    fn sample_trace() -> String {
        [
            span_line("exec.cell", None, 900),
            span_line("exec.cell", None, 1_500_000),
            span_line("fleet.job", Some("#0 xeon-max·mg"), 2_000_000),
            span_line("fleet.job", Some("#1 xeon-max·is"), 9_000_000),
            "{\"type\":\"event\",\"level\":\"info\",\"name\":\"x\",\"msg\":\"hi\"}".to_string(),
            "{\"type\":\"counter\",\"name\":\"cache.hit\",\"value\":3}".to_string(),
            "{\"type\":\"counter\",\"name\":\"cache.miss\",\"value\":1}".to_string(),
            "{\"type\":\"counter\",\"name\":\"exec.parallel.steals\",\"value\":7}".to_string(),
            "{\"type\":\"gauge\",\"name\":\"cache.entries\",\"value\":4}".to_string(),
        ]
        .join("\n")
    }

    #[test]
    fn summarize_renders_spans_cache_flow_and_scenarios() {
        let text = summarize_trace(&sample_trace()).unwrap();
        assert!(text.contains("4 spans (2 distinct), 1 events"), "{text}");
        assert!(text.contains("exec.cell"), "{text}");
        assert!(text.contains("<1µs:1"), "histogram bucket for the 900ns cell: {text}");
        assert!(text.contains("<10ms:1"), "histogram bucket for the 1.5ms cell: {text}");
        assert!(text.contains("#1 xeon-max·is"), "scenario rollup: {text}");
        assert!(text.contains("3 hits / 1 misses (hit-rate 75.0%)"), "{text}");
        // 2 cells over 1_500_900ns of exec.cell time → 1333 cells/s.
        assert!(text.contains("cell throughput: 2 cells in 1.50ms"), "{text}");
        assert!(text.contains("(1333 cells/s)"), "{text}");
        assert!(text.contains("exec.parallel.steals = 7"), "{text}");
        // The percentile columns are in the top-spans table.
        assert!(text.contains("p50"), "{text}");
        assert!(text.contains("p99"), "{text}");
        // Scenarios sort by duration, slowest first.
        let is = text.find("#1 xeon-max·is").unwrap();
        let mg = text.find("#0 xeon-max·mg").unwrap();
        assert!(is < mg, "{text}");
    }

    #[test]
    fn parse_trace_computes_exact_percentiles() {
        let trace: String = (1..=100)
            .map(|i| span_line("exec.cell", None, i * 1_000))
            .collect::<Vec<_>>()
            .join("\n");
        let summary = parse_trace(&trace).unwrap();
        let cell = &summary.spans["exec.cell"];
        assert_eq!(cell.count, 100);
        assert_eq!(cell.p50_ns, 50_000);
        assert_eq!(cell.p95_ns, 95_000);
        assert_eq!(cell.p99_ns, 99_000);
        assert_eq!(cell.min_ns, 1_000);
        assert_eq!(cell.max_ns, 100_000);
    }

    #[test]
    fn json_summary_carries_the_same_content() {
        let json = summarize_trace_json(&sample_trace()).unwrap();
        let v: Value = serde_json::parse(&json).unwrap();
        assert_eq!(v.get("span_lines").and_then(Value::as_u64), Some(4));
        let cell = v.get("spans").and_then(|s| s.get("exec.cell")).unwrap();
        assert_eq!(cell.get("count").and_then(Value::as_u64), Some(2));
        assert_eq!(cell.get("p50_ns").and_then(Value::as_u64), Some(900));
        assert_eq!(cell.get("p99_ns").and_then(Value::as_u64), Some(1_500_000));
        let flow = v.get("cache_flow").unwrap();
        assert_eq!(flow.get("hits").and_then(Value::as_u64), Some(3));
        assert_eq!(flow.get("hit_rate").and_then(Value::as_f64), Some(0.75));
        let thru = v.get("cell_throughput").unwrap();
        assert_eq!(thru.get("cells").and_then(Value::as_u64), Some(2));
        let scenarios = v.get("scenarios").and_then(Value::as_array).unwrap();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(
            scenarios[0].get("detail").and_then(Value::as_str),
            Some("#1 xeon-max·is"),
            "slowest first"
        );
        assert_eq!(
            v.get("counters").and_then(|c| c.get("exec.parallel.steals")).and_then(Value::as_u64),
            Some(7)
        );
    }

    #[test]
    fn service_rollup_pairs_job_walls_with_their_merges() {
        let trace = [
            span_line("serve.queue_wait", Some("job 1"), 1_000_000),
            span_line("serve.queue_wait", Some("job 2"), 3_000_000),
            span_line("serve.job", Some("job 1 ci"), 60_000_000),
            span_line("serve.job", Some("job 2 dev"), 20_000_000),
            span_line("serve.merge", Some("job 1"), 6_000_000),
        ]
        .join("\n");
        let summary = parse_trace(&trace).unwrap();
        let service = summary.service_rollup().expect("a daemon trace has a service view");
        assert_eq!(service.jobs, 2);
        let wait = service.queue_wait.unwrap();
        assert_eq!((wait.count, wait.p50_ns, wait.p99_ns), (2, 1_000_000, 3_000_000));
        // Slowest job first; merge paired by the `job N` label prefix.
        assert_eq!(service.per_job[0].detail, "job 1 ci");
        assert_eq!(service.per_job[0].merge_ns, Some(6_000_000));
        assert_eq!(service.per_job[1].detail, "job 2 dev");
        assert_eq!(service.per_job[1].merge_ns, None, "job 2 never merged");

        let human = summary.render_human();
        assert!(human.contains("campaign service: 2 job(s)"), "{human}");
        assert!(human.contains("queue wait p50 1.00ms p95 3.00ms p99 3.00ms"), "{human}");
        assert!(human.contains("6.00ms merge (10.0%)"), "{human}");
        assert!(human.contains("no merge recorded"), "{human}");

        let json = summary.to_json();
        let service = json.get("service").unwrap();
        assert_eq!(service.get("jobs").and_then(Value::as_u64), Some(2));
        let per_job = service.get("per_job").and_then(Value::as_array).unwrap();
        assert_eq!(per_job[0].get("wall_ns").and_then(Value::as_u64), Some(60_000_000));
        // A non-service trace has no service view.
        assert!(parse_trace(&sample_trace()).unwrap().service_rollup().is_none());
        assert_eq!(parse_trace(&sample_trace()).unwrap().to_json().get("service"), {
            Some(&Value::Null)
        });
    }

    #[test]
    fn malformed_traces_fail_naming_the_line() {
        for (doc, what) in [
            ("not json", "line 1"),
            ("{\"type\":\"span\",\"name\":\"x\"}", "dur_ns"),
            ("{\"type\":\"wibble\"}", "unknown record type"),
            ("", "empty"),
        ] {
            let err = summarize_trace(doc).unwrap_err();
            assert!(err.contains(what), "{doc:?} → {err}");
            let err = summarize_trace_json(doc).unwrap_err();
            assert!(err.contains(what), "json path: {doc:?} → {err}");
        }
    }

    /// A writer the test reads back once the collector has flushed.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn span_record(id: u64, name: &'static str, detail: Option<&str>, dur_ns: u64) -> SpanRecord {
        let detail = detail.map(str::to_string);
        SpanRecord { name, detail, id, parent: None, thread: 0, start_us: id, dur_ns }
    }

    #[test]
    fn a_live_summary_equals_the_parse_of_its_own_trace() {
        let buf = SharedBuf::default();
        let live = Arc::new(LiveSummary::default());
        let run = Fanout::new(vec![
            Arc::new(JsonlCollector::from_writer(Box::new(buf.clone()))),
            live.clone(),
        ]);
        let spans = [
            ("exec.cell", None, 900),
            ("exec.cell", None, 1_500_000),
            ("fleet.job", Some("#0..2 xeon-max·mg.D"), 2_000_000),
            ("fleet.job", Some("a \"quoted\\ label\nover\ttwo lines"), 9_000_000),
            ("serve.queue_wait", Some("job 1"), 1_000_000),
            ("serve.job", Some("job 1 ci"), 60_000_000),
            ("serve.merge", Some("job 1"), 6_000_000),
        ];
        for (id, (name, detail, dur_ns)) in (1..).zip(spans) {
            run.span(&span_record(id, name, detail, dur_ns));
        }
        for (level, message) in [(Level::Info, "done \"ok\""), (Level::Warn, "tab\there")] {
            run.event(&EventRecord { level, name: "fleet.status", message: message.into() });
        }
        run.counter("cache.hit", 1);
        run.counter("cache.hit", 3); // a later flush's total wins
        run.counter("cache.miss", 1);
        run.counter("store.bytes_written", 64);
        run.gauge("cache.entries", 4);
        run.gauge("queue.depth", 2);
        run.flush();

        let trace = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let parsed = parse_trace(&trace).unwrap();
        let live = live.summary();
        assert_eq!(live.to_json(), parsed.to_json());
        assert_eq!(live.render_human(), parsed.render_human());
        assert_eq!(live.counters["cache.hit"], 3);
        assert_eq!(live.scenarios[0].detail, "a \"quoted\\ label\nover\ttwo lines");
    }

    #[test]
    fn a_live_summary_aggregates_spans_by_name() {
        let live = LiveSummary::default();
        for (id, dur_ns) in (1..).zip([4_000, 1_000, 3_000, 2_000]) {
            live.span(&span_record(id, "test.agg", None, dur_ns));
        }
        live.event(&EventRecord { level: Level::Info, name: "test.aggline", message: "hi".into() });
        let summary = live.summary();
        assert_eq!(summary.spans.len(), 1);
        let agg = summary.spans["test.agg"];
        assert_eq!((agg.count, agg.total_ns), (4, 10_000));
        assert_eq!((agg.min_ns, agg.mean_ns, agg.max_ns), (1_000, 2_500, 4_000));
        assert_eq!((summary.span_lines, summary.event_lines), (4, 1));
    }

    #[test]
    fn the_human_summary_shows_every_span_counter_and_gauge() {
        let mut trace: Vec<String> =
            (0..14).map(|i| span_line(&format!("phase.{i:02}"), None, 1_000 * (i + 1))).collect();
        for (kind, name, value) in [
            ("counter", "store.bytes_written", 4096),
            ("counter", "store.bytes_read", 1024),
            ("counter", "cache.evict", 5),
            ("counter", "job.merged", 2),
            ("gauge", "queue.depth", 3),
            ("gauge", "cache.entries", 7),
        ] {
            trace.push(format!("{{\"type\":\"{kind}\",\"name\":\"{name}\",\"value\":{value}}}"));
        }
        let text = summarize_trace(&trace.join("\n")).unwrap();
        for i in 0..14 {
            assert!(text.contains(&format!("  phase.{i:02} ")), "span row {i} missing: {text}");
        }
        assert!(!text.contains("cache flow:"), "no lookups, so no cache-flow line: {text}");
        for row in [
            "store.bytes_written = 4096",
            "store.bytes_read = 1024",
            "cache.evict = 5",
            "job.merged = 2",
            "queue.depth = 3",
            "cache.entries = 7",
        ] {
            assert!(text.contains(row), "{row} missing: {text}");
        }
        // With lookups, the cache-flow line shows the cache rows instead.
        let text = summarize_trace(&sample_trace()).unwrap();
        assert!(text.contains("4 entries resident"), "{text}");
        assert!(!text.contains("cache.entries ="), "{text}");
        assert!(!text.contains("cache.hit ="), "{text}");
    }

    #[test]
    fn bench_jsonl_round_trips_through_the_parser() {
        let lines = vec![
            BenchLine { bench: "matrix.wall".into(), mean_ns: 92_800_000, samples: 1 },
            BenchLine { bench: "matrix.cell".into(), mean_ns: 12_345, samples: 480 },
        ];
        let text = bench_jsonl(&lines);
        assert_eq!(text.lines().count(), 2);
        for (line, want) in text.lines().zip(&lines) {
            let v: Value = serde_json::parse(line).unwrap();
            assert_eq!(v.get("bench").and_then(Value::as_str), Some(want.bench.as_str()));
            assert_eq!(v.get("mean_ns").and_then(Value::as_u64), Some(want.mean_ns));
            assert_eq!(v.get("samples").and_then(Value::as_u64), Some(want.samples));
        }
    }
}
