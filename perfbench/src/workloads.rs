//! The untraced runs: each workload's timed loop, exactly as a user of
//! the product would drive it, with every output checked afterwards.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hmpt_core::scenario::MatrixReport;
use hmpt_fleet::api::{self, Request, Response};
use hmpt_fleet::spec::CampaignSpec;
use hmpt_report::record::CampaignRecord;
use hmpt_served::{Client, Coordinator, CoordinatorConfig, JobState, JobStatus, Server};
use serde::Value;

use crate::check;
use crate::specs::{self, ServedJob};
use crate::stats::{median, peak_rss_mb, percentile};

/// Cells one `examples/zoo.toml` campaign plans and executes.
pub const ZOO_CELLS: u64 = 274_077;
/// Cells one `examples/table2.toml` campaign plans and executes.
pub const TABLE2_CELLS: u64 = 3_144;
/// Seconds of `--seconds` per fresh-seed job in the `served-stream`
/// list (three warm jobs ride along with each): 100 jobs at 20 s.
const SERVED_SECONDS_PER_FRESH: f64 = 0.8;
/// How often the `served-stream` client asks for its job's status.
pub const POLL: Duration = Duration::from_millis(1);
/// `served-stream` set-ups (each one runs the zoo warm-up job).
pub const SERVED_SETUPS: usize = 3;
/// `table2-batch` repeats its set-up after every this many requests.
pub const TABLE2_SETUP_EVERY: usize = 25;
/// `table2-batch` campaigns re-run as references after the timed loop.
pub const TABLE2_REFERENCES: usize = 16;
/// Consecutive windows the `table2-batch` timings are medians over.
pub const TABLE2_WINDOWS: usize = 4;
/// The tenant every benchmark job is submitted as.
pub const TENANT: &str = "bench";

/// One measured figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints: result counts, metrics, and human-readable lines.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record one campaign's check; a failure is counted and described.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.failed += 1;
            self.lines.push(format!("FAILED {what}: {e}"));
        }
    }

    /// The end-to-end figures every untraced run reports, from the timed
    /// loop's campaigns in order. With `windows > 1` the campaigns are
    /// split into that many consecutive windows of equal count, and each
    /// timing is the median of its per-window values: a burst of
    /// contention from outside the process then moves one window, not
    /// the figure. A window's rate divides its cells by the wall time of
    /// its campaigns; set-up repetitions between campaigns are not in it.
    fn end_to_end(&mut self, timed: &Timed, windows: usize, setup: &[f64]) {
        let n = timed.campaigns.len();
        let windows = windows.clamp(1, n.max(1));
        let (mut p50, mut p90, mut rate) = (Vec::new(), Vec::new(), Vec::new());
        for w in 0..windows {
            let part = &timed.campaigns[w * n / windows..(w + 1) * n / windows];
            let secs: Vec<f64> = part.iter().map(|c| c.secs).collect();
            p50.push(median(&secs));
            p90.push(percentile(&secs, 90.0));
            rate.push(part.iter().map(|c| c.cells).sum::<u64>() as f64 / secs.iter().sum::<f64>());
        }
        self.metric("campaign_p50_s", median(&p50), "s");
        self.metric("campaign_p90_s", median(&p90), "s");
        self.metric("cells_per_s", median(&rate), "1/s");
        self.metric("setup_s", median(setup), "s");
        self.metric("peak_heap_mb", timed.peak_heap_mb, "MiB");
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        if n <= 20 {
            let ms: Vec<String> =
                timed.campaigns.iter().map(|c| format!("{:.0}", c.secs * 1e3)).collect();
            self.lines.push(format!("campaign times, ms: {}", ms.join(" ")));
        }
        self.lines.push(format!(
            "{n} timed campaigns in {windows} window(s) (each window's p90 rests on {} beyond it), \
             {} set-ups, peak resident set {} MiB, failed_frac {failed_frac} (carried as \
             failed/attempted)",
            n / windows / 10,
            setup.len(),
            timed.peak_rss_mb,
        ));
    }
}

/// One timed campaign.
struct Campaign {
    secs: f64,
    cells: u64,
}

/// A timed loop's campaigns and the process's memory when it ended.
struct Timed {
    start: Instant,
    campaigns: Vec<Campaign>,
    peak_heap_mb: f64,
    peak_rss_mb: f64,
}

impl Timed {
    fn start() -> Timed {
        Timed { start: Instant::now(), campaigns: Vec::new(), peak_heap_mb: 0.0, peak_rss_mb: 0.0 }
    }

    fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn push(&mut self, secs: f64, cells: u64) {
        self.campaigns.push(Campaign { secs, cells });
    }

    fn len(&self) -> usize {
        self.campaigns.len()
    }

    /// The timed loop is over: read the memory figures.
    fn stop(&mut self) {
        self.peak_heap_mb = crate::alloc::peak_heap_mb();
        self.peak_rss_mb = peak_rss_mb();
    }
}

/// Where runs keep scratch state: under `.bench_build/` (the build
/// output directory), inside the tree the benchmark runs from.
pub fn scratch_dir(what: &str) -> PathBuf {
    Path::new(".bench_build").join("perfbench").join(format!("{what}-{}", std::process::id()))
}

fn parse(text: &str) -> Result<Request, String> {
    CampaignSpec::parse(text).and_then(Request::from_spec).map_err(|e| e.to_string())
}

pub fn execute_matrix(text: &str) -> Result<MatrixReport, String> {
    match api::execute(&parse(text)?).map_err(|e| e.to_string())? {
        Response::Matrix(out) => Ok(out.report),
        other => Err(format!("expected a matrix response, got {other:?}")),
    }
}

pub fn execute_batch(text: &str) -> Result<hmpt_fleet::service::FleetReport, String> {
    match api::execute(&parse(text)?).map_err(|e| e.to_string())? {
        Response::Batch(out) => Ok(out.report),
        other => Err(format!("expected a batch response, got {other:?}")),
    }
}

/// Run one set-up step and record its time. `zoo-cold` and
/// `table2-batch` repeat their set-up between campaigns all through the
/// timed loop, and `setup_s` is the median: a burst of contention at
/// the start of a run then moves one repetition, not the figure.
fn time_setup<T>(times: &mut Vec<f64>, step: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let product = step();
    times.push(t.elapsed().as_secs_f64());
    product
}

/// `zoo-cold`'s set-up: parse the pinned baseline and the first spec.
fn zoo_setup() -> (CampaignRecord, Request) {
    let baseline = check::zoo_baseline();
    (baseline, parse(&specs::zoo(specs::zoo_seed())).expect("examples/zoo.toml parses"))
}

/// `table2-batch`'s set-up: parse the checked-in request and run it
/// once, untimed; the digest of its result must equal the first timed
/// request's.
fn table2_setup() -> (Request, Result<u64, String>) {
    let text = specs::table2(specs::TABLE2_SEED);
    let warm = execute_batch(&text).map(|r| check::batch_digest(&r));
    (parse(&text).expect("examples/table2.toml parses"), warm)
}

fn exact_cells(planned: u64, executed: u64, want: u64) -> Result<(), String> {
    if planned == want && executed == want {
        Ok(())
    } else {
        Err(format!("planned {planned} / executed {executed} cells, expected {want}"))
    }
}

/// `zoo-cold`: whole `examples/zoo.toml` campaigns, one
/// `api::execute` each, every campaign at its own seed. It runs by name
/// but is not in `BENCHMARK.json`: its timings drifted by a third
/// across ten runs of identical code (`perfbench/BENCHMARK.md`).
pub fn zoo_cold(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut setup = Vec::new();
    let (baseline, first) = time_setup(&mut setup, zoo_setup);

    // Digests only (plus the checked-in seed's report for the baseline
    // gate), so the retained outputs do not grow the peak heap.
    let mut outputs: Vec<(u64, u64)> = Vec::new();
    let mut first_report: Option<MatrixReport> = None;
    let mut timed = Timed::start();
    let mut request = Some(first);
    while timed.len() == 0 || timed.elapsed_s() < seconds {
        let i = timed.len();
        if i > 0 {
            time_setup(&mut setup, zoo_setup);
        }
        let cseed = specs::campaign_seed(seed, i, specs::zoo_seed());
        let req = match request.take() {
            Some(req) => Ok(req),
            None => parse(&specs::zoo(cseed)),
        };
        let t = Instant::now();
        let result = req.and_then(|req| api::execute(&req).map_err(|e| e.to_string()));
        let secs = t.elapsed().as_secs_f64();
        report.attempted += 1;
        let mut cells = 0;
        match result {
            Ok(Response::Matrix(out)) => {
                let s = &out.report.stats;
                cells = s.executed_cells;
                let counted = exact_cells(s.planned_cells, s.executed_cells, ZOO_CELLS);
                if counted.is_ok() {
                    outputs.push((cseed, check::rows_digest(&out.report)));
                    if i == 0 {
                        first_report = Some(out.report);
                    }
                }
                report.check(&format!("zoo campaign at seed {cseed}"), counted);
            }
            Ok(other) => report.check("zoo campaign", Err(format!("unexpected {other:?}"))),
            Err(e) => report.check(&format!("zoo campaign at seed {cseed}"), Err(e)),
        }
        timed.push(secs, cells);
    }
    timed.stop();

    report.check(
        "zoo campaign at the checked-in seed vs baselines/zoo-baseline.json",
        first_report
            .as_ref()
            .ok_or_else(|| "the first campaign failed".to_string())
            .and_then(|first| check::gate_matrix(&baseline, first, false)),
    );
    for &(cseed, digest) in &outputs {
        let reference = execute_matrix(&specs::matrix_reference(&specs::zoo(cseed)));
        let same = reference.and_then(|r| {
            if check::rows_digest(&r) == digest {
                Ok(())
            } else {
                Err("rows differ from the serial uncached reference".into())
            }
        });
        report.check(&format!("zoo campaign at seed {cseed}"), same);
    }
    report.end_to_end(&timed, 1, &setup);
    report
}

/// `table2-batch`: `examples/table2.toml` requests, one `api::execute`
/// each, every request at its own seed.
pub fn table2_batch(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut setup = Vec::new();
    let (first, warm) = time_setup(&mut setup, table2_setup);
    let mut warm = vec![warm];

    let mut digests: Vec<(u64, u64)> = Vec::new();
    let mut timed = Timed::start();
    let mut request = Some(first);
    while timed.len() == 0 || timed.elapsed_s() < seconds {
        let i = timed.len();
        if i > 0 && i.is_multiple_of(TABLE2_SETUP_EVERY) {
            warm.push(time_setup(&mut setup, table2_setup).1);
        }
        let cseed = specs::campaign_seed(seed, i, specs::TABLE2_SEED);
        let req = match request.take() {
            Some(req) => Ok(req),
            None => parse(&specs::table2(cseed)),
        };
        let t = Instant::now();
        let result = req.and_then(|req| api::execute(&req).map_err(|e| e.to_string()));
        let secs = t.elapsed().as_secs_f64();
        report.attempted += 1;
        let mut cells = 0;
        match result {
            Ok(Response::Batch(out)) => {
                let s = &out.report.stats;
                cells = s.executed_cells;
                let counted = exact_cells(s.planned_cells, s.executed_cells, TABLE2_CELLS);
                if counted.is_ok() {
                    digests.push((cseed, check::batch_digest(&out.report)));
                }
                report.check(&format!("table2 request at seed {cseed}"), counted);
            }
            Ok(other) => report.check("table2 request", Err(format!("unexpected {other:?}"))),
            Err(e) => report.check(&format!("table2 request at seed {cseed}"), Err(e)),
        }
        timed.push(secs, cells);
    }
    timed.stop();

    // A seeded sample (always including the checked-in seed) against
    // serial, uncached, naive-kernel references.
    let mut sample: Vec<usize> = (1..digests.len()).collect();
    specs::Rng::new(seed).shuffle(&mut sample);
    sample.truncate(TABLE2_REFERENCES.saturating_sub(1));
    sample.insert(0, 0);
    for &i in sample.iter().filter(|&&i| i < digests.len()) {
        let (cseed, digest) = digests[i];
        let reference = execute_batch(&specs::table2_reference(&specs::table2(cseed)));
        let same = reference.and_then(|r| {
            if check::batch_digest(&r) == digest {
                Ok(())
            } else {
                Err("results differ from the serial uncached naive-kernel reference".into())
            }
        });
        report.check(&format!("table2 request at seed {cseed}"), same);
    }
    for w in warm {
        report.check(
            "table2 set-up request vs the first timed request",
            w.and_then(|w| match digests.first() {
                Some(&(_, d)) if d == w => Ok(()),
                _ => Err("the set-up and the first timed request differ".into()),
            }),
        );
    }
    report.lines.push(format!(
        "{} of {} requests re-run as references",
        sample.len().min(digests.len()),
        digests.len()
    ));
    report.end_to_end(&timed, TABLE2_WINDOWS, &setup);
    report
}

/// A running service: coordinator, runner thread, TCP server, client.
pub struct Service {
    runner: JoinHandle<()>,
    client: Client,
    pub dir: PathBuf,
}

impl Service {
    /// Open a coordinator on an empty state dir, serve it on loopback,
    /// start its runner, and connect one client — the way `hmpt-fleet
    /// serve` runs them.
    pub fn start(dir: PathBuf) -> Result<Service, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let coordinator =
            Arc::new(Coordinator::open(CoordinatorConfig::new(&dir)).map_err(|e| e.to_string())?);
        let server =
            Server::start(Arc::clone(&coordinator), "127.0.0.1:0").map_err(|e| e.to_string())?;
        let runner = std::thread::spawn(move || coordinator.run());
        let client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        Ok(Service { runner, client, dir })
    }

    /// Submit a spec, poll its status until the job ends, and fetch the
    /// merged report.
    pub fn run_job(&mut self, spec: &str) -> Result<(JobStatus, Value), String> {
        let (job, _) = self.client.submit(TENANT, 0, spec).map_err(|e| e.to_string())?;
        loop {
            let view = self.client.status(Some(job)).map_err(|e| e.to_string())?;
            let status = view.jobs.into_iter().next().ok_or("empty status")?;
            match status.state {
                JobState::Completed => {
                    let report = self.client.report(job).map_err(|e| e.to_string())?;
                    return Ok((status, report));
                }
                state if state.is_terminal() => {
                    return Err(format!("job {job} ended {state}: {:?}", status.error))
                }
                _ => std::thread::sleep(POLL),
            }
        }
    }

    /// Drain the coordinator, wait for its runner, drop the state dir.
    pub fn stop(mut self) -> Result<(), String> {
        self.client.drain().map_err(|e| e.to_string())?;
        self.runner.join().map_err(|_| "the coordinator's runner panicked".to_string())?;
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(())
    }
}

pub fn matrix_of(value: &Value) -> Result<MatrixReport, String> {
    serde_json::from_value::<MatrixReport>(value).map_err(|e| format!("report does not parse: {e}"))
}

/// Fresh-seed jobs in the `served-stream` list of a `seconds` run.
pub fn served_fresh(seconds: f64) -> usize {
    (seconds / SERVED_SECONDS_PER_FRESH).round().max(1.0) as usize
}

/// Set up a service and run the zoo warm-up job through it.
fn served_setup(k: usize) -> Result<(Service, Value), String> {
    let mut service = Service::start(scratch_dir(&format!("served-{k}")))?;
    let (_, warm) = service.run_job(&specs::zoo(specs::zoo_seed()))?;
    Ok((service, warm))
}

/// `served-stream`: an in-process coordinator, its runner and TCP
/// server, one loopback client, and a seeded list of small jobs.
pub fn served_stream(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let baseline = check::zoo_baseline();
    let mut setup = Vec::new();
    let mut service = None;
    for k in 0..SERVED_SETUPS {
        if let Some(old) = service.take() {
            Service::stop(old)?;
        }
        let t = Instant::now();
        let (svc, warm) = served_setup(k)?;
        setup.push(t.elapsed().as_secs_f64());
        report.attempted += 1;
        report.check(
            "zoo warm-up job vs baselines/zoo-baseline.json",
            matrix_of(&warm).and_then(|m| check::gate_matrix(&baseline, &m, false)),
        );
        service = Some(svc);
    }
    let mut service = service.expect("at least one set-up");

    let jobs = specs::served_jobs(seed, served_fresh(seconds));
    let mut outputs: Vec<(&ServedJob, Value)> = Vec::new();
    let (mut cached, mut simulated, mut fresh_misses) = (0u64, 0u64, Vec::new());
    let mut timed = Timed::start();
    for job in &jobs {
        let t = Instant::now();
        let result = service.run_job(&job.spec());
        let secs = t.elapsed().as_secs_f64();
        report.attempted += 1;
        let mut cells = 0;
        match result {
            Ok((status, value)) => match status.stats {
                Some(stats) => {
                    cells = stats.executed_cells;
                    cached += stats.cells_skipped;
                    simulated += stats.simulated_cells;
                    if !job.is_warm() {
                        fresh_misses.push(stats.simulated_cells);
                    }
                    outputs.push((job, value));
                }
                None => report.check("job status", Err("completed job carries no stats".into())),
            },
            Err(e) => report.check(&format!("job {}", job.spec().replace('\n', " ")), Err(e)),
        }
        timed.push(secs, cells);
    }
    timed.stop();
    service.stop()?;

    for (job, value) in &outputs {
        let what = format!(
            "{}×{}+{} job at seed {:?}",
            job.machine, job.workloads[0], job.workloads[1], job.seed
        );
        let checked = matrix_of(value).and_then(|m| match job.seed {
            None => check::gate_matrix(&baseline, &m, true),
            Some(_) => execute_matrix(&specs::matrix_reference(&job.spec()))
                .and_then(|r| check::same_rows(&m, &r)),
        });
        report.check(&what, checked);
    }
    let warm = jobs.iter().filter(|j| j.is_warm()).count();
    report.lines.push(format!(
        "warm share: {warm} jobs at the zoo seed, {} fresh-seed jobs; {cached} cells answered by the \
         shared cache, {simulated} simulated (fresh-job misses {:?}, unchecked: the shard workers race)",
        jobs.len() - warm,
        fresh_misses
    ));
    report.end_to_end(&timed, 1, &setup);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_in_one_window_leaves_the_windowed_timings_alone() {
        let mut timed = Timed::start();
        for i in 0..400 {
            let secs = if (100..160).contains(&i) { 0.1 } else { 0.01 };
            timed.campaigns.push(Campaign { secs, cells: 10 });
        }
        let value =
            |r: &Report, name: &str| r.metrics.iter().find(|m| m.name == name).unwrap().value;
        let mut one = Report::default();
        one.end_to_end(&timed, 1, &[1.0]);
        let mut four = Report::default();
        four.end_to_end(&timed, 4, &[1.0]);
        assert_eq!(value(&one, "campaign_p90_s"), 0.1, "one window: the burst sets the p90");
        assert_eq!(value(&four, "campaign_p90_s"), 0.01, "four windows: it moves one of them");
        assert!((value(&four, "cells_per_s") - 1000.0).abs() < 1e-6);
    }
}
