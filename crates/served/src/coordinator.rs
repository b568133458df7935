//! The coordinator: admission, the runner loop, durable state, and the
//! shared cross-job cache.
//!
//! One [`Coordinator`] owns a state directory:
//!
//! ```text
//! <state-dir>/
//!   queue.log           # the job queue: one JobRecord line per state change
//!   cache.bin           # the shared MeasurementCache: a snapshot, then appended cells
//!   reports/job-<id>.json   # the MatrixReport of each completed job
//! ```
//!
//! Every mutation persists before the verb answers, so a crash at any
//! instant loses at most the frame being processed; [`Coordinator::open`]
//! reloads the state and re-queues whatever was mid-flight (the state
//! machine's adopt edge). The reports are written whole through
//! [`store::write_atomic`]. Each state file takes its own appends, so a
//! verb's persist costs its own change, not the whole state:
//!
//! * each queue mutation appends the job's changed record to
//!   `queue.log`, a store line log ([`store::append_line`]); a served
//!   job appends four (`Queued`, `Running`, `Merging`, `Completed`).
//!   Once the records appended since the log's last rewrite reach the
//!   jobs that rewrite wrote, and after a failed append, the next change
//!   rewrites the log instead, one record per job
//!   ([`store::write_lines`]);
//! * `cache.bin` is a [`CacheFile`]: the cells a job adds are appended
//!   to it or the file is rewritten sorted (see [`store`]), and a job
//!   that adds none writes nothing.
//!
//! `open` replays `queue.log` over an empty queue (the last record of
//! each job wins, a damaged record is skipped), adopts, and preloads
//! `cache.bin`. It writes nothing, and neither does a drain: each file
//! is complete after every verb, and no append continues a torn tail.
//! Neither writer calls fsync: the files survive a process crash, not a
//! power loss. A `queue.log` that cannot be read is renamed aside to
//! `queue.log.corrupt.N`, never overwritten.
//!
//! An older state dir holds each state as a snapshot plus a journal:
//! `queue.json` with `queue.log`, and `cache.bin` with `cache.log`.
//! `open` adopts it: it reads both pairs as before (an unreadable
//! `queue.json` is renamed aside too), rewrites `queue.log` and brings
//! `cache.bin` up to date, and then removes `queue.json` and
//! `cache.log`.
//!
//! The shared cache is the service's reason to exist as a *daemon*
//! rather than a loop around `hmpt-fleet run`: each job is one
//! `api::run_checked` call over it — the matrix path `hmpt-fleet run`
//! takes — its campaign groups spread over the fleet's job pool
//! ([`CoordinatorConfig::workers`] at a time, cells serially), so
//! two jobs whose scenario matrices overlap simulate their shared cells
//! exactly once, service-lifetime-wide. Keys are content addresses, so
//! a cell a job measured stays valid even if that job later fails, and
//! the runner executes one job at a time. The effect is visible in
//! [`JobStats`]: a re-submission of a measured spec reports
//! `simulated_cells == 0`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hmpt_core::cache::MeasurementCache;
use hmpt_core::exec::{available_workers, ExecutorKind};
use hmpt_core::scenario::MatrixReport;
use hmpt_core::store::{self, CacheFile};
use hmpt_fleet::api;
use hmpt_fleet::matrix::MatrixConfig;
use hmpt_fleet::service::Fleet;
use hmpt_fleet::spec::{CampaignSpec, Resolved, ResolvedMatrix};
use serde::Value;

use crate::queue::{JobQueue, QueueConfig, QueueError, QueueSnapshot};
use crate::state::{JobRecord, JobState, JobStats};
use crate::wire::{ErrorKind, StatusView};

/// The queue's and the shared cache's files in the state dir.
const QUEUE_LOG: &str = "queue.log";
const CACHE_BIN: &str = "cache.bin";
/// An older state dir's queue snapshot and cache journal, adopted and
/// removed by `open`.
const QUEUE_JSON: &str = "queue.json";
const CACHE_LOG: &str = "cache.log";

/// How the daemon is shaped. `workers` is how many campaign groups a
/// served job runs at once — a throughput knob only, results are
/// bit-identical at any value.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    pub state_dir: PathBuf,
    /// Campaign groups a job runs at once on the fleet's job pool, each
    /// group's cells serially; 0 means one per available CPU but one,
    /// and at least one, so the service's own threads keep a CPU. This
    /// is a served job's whole width: the spec's `[execution]`
    /// `serial`, `workers` and `job_workers` are ignored.
    pub workers: usize,
    /// Max live (queued + mid-flight) jobs per tenant.
    pub tenant_quota: usize,
    /// LRU bound applied to the shared cache after each job; a job that
    /// evicts rewrites `cache.bin`.
    pub cache_max_records: Option<u64>,
}

impl CoordinatorConfig {
    /// The campaign groups a served job runs at once: `workers`, or for
    /// 0 one per available CPU but one. The runner, the server and the
    /// clients polling it keep that CPU, so they do not preempt a job's
    /// workers. On a 2-vCPU VM a stream of small served jobs on two
    /// workers answered cells 1.2× faster than on one, but its
    /// throughput spread from run to run 1.3–2.4× as widely.
    fn job_width(&self) -> usize {
        match self.workers {
            0 => available_workers().saturating_sub(1).max(1),
            n => n,
        }
    }

    /// A config with the default quota and auto worker count.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        CoordinatorConfig {
            state_dir: state_dir.into(),
            workers: 0,
            tenant_quota: QueueConfig::default().tenant_quota,
            cache_max_records: None,
        }
    }
}

/// Why the coordinator refused a verb. Each variant maps onto one wire
/// [`ErrorKind`], so the server can answer typed errors without string
/// matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The submission failed to parse, resolve, or suit the service.
    BadSpec(String),
    /// The tenant is at its live-job quota.
    Quota {
        tenant: String,
        quota: usize,
    },
    UnknownJob(u64),
    /// The job exists but the verb does not apply in its state.
    WrongState {
        job: u64,
        state: JobState,
    },
    /// The service is draining and takes no new work.
    Draining,
    /// State-dir I/O or another coordinator-side failure.
    Internal(String),
}

impl ServeError {
    /// The wire error kind this refusal travels as.
    pub fn kind(&self) -> ErrorKind {
        match self {
            ServeError::BadSpec(_) => ErrorKind::BadSpec,
            ServeError::Quota { .. } => ErrorKind::QuotaExceeded,
            ServeError::UnknownJob(_) => ErrorKind::UnknownJob,
            ServeError::WrongState { .. } => ErrorKind::WrongState,
            ServeError::Draining => ErrorKind::Draining,
            ServeError::Internal(_) => ErrorKind::Internal,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadSpec(e) => write!(f, "bad spec: {e}"),
            ServeError::Quota { tenant, quota } => {
                write!(f, "tenant `{tenant}` is at its quota of {quota} live jobs")
            }
            ServeError::UnknownJob(job) => write!(f, "no job {job}"),
            ServeError::WrongState { job, state } => write!(f, "job {job} is {state}"),
            ServeError::Draining => write!(f, "service is draining; no new work accepted"),
            ServeError::Internal(e) => write!(f, "internal: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<QueueError> for ServeError {
    fn from(e: QueueError) -> Self {
        match e {
            QueueError::QuotaExceeded { tenant, quota } => ServeError::Quota { tenant, quota },
            QueueError::UnknownJob(job) => ServeError::UnknownJob(job),
            QueueError::WrongState { job, state } => ServeError::WrongState { job, state },
        }
    }
}

struct Inner {
    queue: JobQueue,
    /// Records `queue.log` may still take by appends before it is
    /// rewritten: the jobs its last rewrite wrote, less the records
    /// appended since.
    log_room: u64,
    draining: bool,
    /// Submission instants for the `serve.queue_wait` span; in-memory
    /// only — an adopted job's wait clock restarts at reopen.
    enqueued_at: BTreeMap<u64, Instant>,
}

/// The service core. All verbs are `&self` and thread-safe; the runner
/// loop ([`Coordinator::run`]) executes jobs one at a time while
/// connection threads admit and answer concurrently.
pub struct Coordinator {
    cfg: CoordinatorConfig,
    inner: Mutex<Inner>,
    work: Condvar,
    cache: Arc<MeasurementCache>,
    /// `cache.bin`, the shared cache's file.
    cache_file: CacheFile,
}

/// Intern a per-tenant counter name: `hmpt_obs` counters key on
/// `&'static str`, so each distinct tenant leaks its name once.
fn tenant_counter(tenant: &str) -> hmpt_obs::Counter {
    static NAMES: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let mut names = NAMES.lock().unwrap();
    let name = names
        .entry(tenant.to_string())
        .or_insert_with(|| &*Box::leak(format!("serve.tenant.{tenant}").into_boxed_str()));
    hmpt_obs::counter(name)
}

/// Rename an unreadable state file to `<name>.corrupt.N`, the first N
/// not yet taken, and return the new path.
fn quarantine(path: &Path) -> std::io::Result<PathBuf> {
    let name = path.file_name().unwrap_or_default().to_string_lossy().into_owned();
    let aside = (1..)
        .map(|n| path.with_file_name(format!("{name}.corrupt.{n}")))
        .find(|p| !p.exists())
        .expect("an unbounded range always finds a free name");
    std::fs::rename(path, &aside)?;
    Ok(aside)
}

/// Move the unreadable queue file `what` at `path` aside for an
/// operator ([`quarantine`]) and warn, or refuse to open the state dir
/// if it cannot be moved.
fn quarantine_unreadable(
    path: &Path,
    what: &str,
    error: &dyn std::fmt::Display,
) -> Result<(), ServeError> {
    let aside = quarantine(path).map_err(|io| {
        ServeError::Internal(format!(
            "unreadable {what} {} ({error}) cannot be moved aside: {io}",
            path.display()
        ))
    })?;
    hmpt_obs::warn(
        "serve.state",
        format!(
            "unreadable {what} {} moved to {} (cold start): {error}",
            path.display(),
            aside.display()
        ),
    );
    Ok(())
}

/// Remove an adopted file of an older state dir; one left behind is
/// adopted again by the next `open`, which changes nothing.
fn remove_adopted(path: &Path) {
    if let Err(e) = std::fs::remove_file(path) {
        hmpt_obs::warn("serve.state", format!("adopted {} not removed: {e}", path.display()));
    }
}

fn tenant_ok(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant.len() <= 64
        && tenant.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

impl Coordinator {
    /// Open (or create) a state directory and adopt whatever it holds:
    /// `queue.log` is replayed over an empty queue, mid-flight jobs are
    /// re-queued, and the shared cache is preloaded from `cache.bin`; an
    /// older state dir's `queue.json` and `cache.log` are adopted and
    /// removed (see the module docs). An unreadable cache file is a cold
    /// start with a warning, not a refusal to serve — matching the
    /// fleet's cache-preload contract; an unreadable queue file is
    /// renamed aside, and the queue starts without what it held.
    pub fn open(cfg: CoordinatorConfig) -> Result<Coordinator, ServeError> {
        std::fs::create_dir_all(cfg.state_dir.join("reports")).map_err(|e| {
            ServeError::Internal(format!("create {}: {e}", cfg.state_dir.display()))
        })?;

        let queue_config = QueueConfig { tenant_quota: cfg.tenant_quota };
        let mut queue = JobQueue::new(queue_config);
        let old_queue = cfg.state_dir.join(QUEUE_JSON);
        let mut adopt_old_queue = false;
        if old_queue.exists() {
            let bytes = std::fs::read(&old_queue)
                .map_err(|e| ServeError::Internal(format!("{}: {e}", old_queue.display())))?;
            let parsed = std::str::from_utf8(&bytes).map_err(|e| e.to_string()).and_then(|text| {
                serde_json::from_str::<QueueSnapshot>(text).map_err(|e| e.to_string())
            });
            match parsed {
                Ok(snapshot) => {
                    (queue, adopt_old_queue) = (JobQueue::restore(snapshot, queue_config), true)
                }
                // Adoption removes the file, so move it aside for an
                // operator instead.
                Err(e) => quarantine_unreadable(&old_queue, "queue snapshot", &e)?,
            }
        }
        let log_path = cfg.state_dir.join(QUEUE_LOG);
        let mut log_records = 0;
        match store::read_lines::<JobRecord>(&log_path) {
            Ok((records, skipped)) => {
                log_records = records.len() as u64 + skipped;
                records.into_iter().for_each(|record| queue.replay(record));
                if skipped > 0 {
                    hmpt_obs::warn(
                        "serve.state",
                        format!(
                            "queue log {}: {skipped} damaged record(s) skipped",
                            log_path.display()
                        ),
                    );
                }
            }
            Err(e) => quarantine_unreadable(&log_path, "queue log", &e)?,
        }
        let adopted = queue.adopt_all();
        if adopted > 0 {
            hmpt_obs::info(
                "serve.adopt",
                format!("re-queued {adopted} job(s) interrupted mid-flight"),
            );
        }
        // The log holds a record of every job, so at least the records
        // past one per job were appended since its last rewrite.
        let log_room = (2 * queue.snapshot().jobs.len() as u64).saturating_sub(log_records);

        let cache = Arc::new(MeasurementCache::new());
        let (cache_file, _) =
            CacheFile::open(cfg.state_dir.join(CACHE_BIN), &cache, "serve.cache", "shared cache");
        let old_cache_log = cfg.state_dir.join(CACHE_LOG);
        if old_cache_log.exists() {
            store::preload(&cache, &old_cache_log, "serve.cache", "shared cache journal");
            match cache_file.persist(&cache, cfg.cache_max_records) {
                Ok(_) => remove_adopted(&old_cache_log),
                Err(e) => hmpt_obs::warn("serve.cache", format!("{CACHE_LOG} not adopted: {e}")),
            }
        }

        hmpt_obs::gauge("queue.depth").set(queue.depth() as u64);
        let coordinator = Coordinator {
            cfg,
            inner: Mutex::new(Inner {
                queue,
                log_room,
                draining: false,
                enqueued_at: BTreeMap::new(),
            }),
            work: Condvar::new(),
            cache,
            cache_file,
        };
        if adopt_old_queue {
            match coordinator.rewrite_queue(&mut coordinator.inner.lock().unwrap()) {
                Ok(()) => remove_adopted(&old_queue),
                Err(e) => hmpt_obs::warn("serve.state", format!("{QUEUE_JSON} not adopted: {e}")),
            }
        }
        Ok(coordinator)
    }

    /// Cells currently in the shared cross-job cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Admit a campaign: validate the spec, gate on the tenant quota,
    /// persist the queue, wake the runner. Returns the job id and the
    /// spec fingerprint the merged report will carry.
    pub fn submit(
        &self,
        tenant: &str,
        priority: i64,
        spec_text: &str,
    ) -> Result<(u64, String), ServeError> {
        if !tenant_ok(tenant) {
            return Err(ServeError::BadSpec(format!(
                "tenant `{tenant}` is not a name (1–64 chars of [A-Za-z0-9._-])"
            )));
        }
        let spec =
            CampaignSpec::parse(spec_text).map_err(|e| ServeError::BadSpec(e.to_string()))?;
        let resolved = spec.resolve().map_err(|e| ServeError::BadSpec(e.to_string()))?;
        let fingerprint = resolved.fingerprint().to_string();
        match resolved {
            Resolved::Batch(_) => {
                return Err(ServeError::BadSpec(
                    "the service executes matrix-mode specs; run batch specs directly".into(),
                ))
            }
            Resolved::Matrix(m) => {
                if m.shard.is_some() {
                    return Err(ServeError::BadSpec(
                        "the service owns sharding; submit the spec without a `shard` axis".into(),
                    ));
                }
            }
        }

        let mut inner = self.inner.lock().unwrap();
        if inner.draining {
            return Err(ServeError::Draining);
        }
        let id =
            inner.queue.submit(tenant, priority, spec_text.to_string(), fingerprint.clone())?;
        inner.enqueued_at.insert(id, Instant::now());
        hmpt_obs::gauge("queue.depth").set(inner.queue.depth() as u64);
        hmpt_obs::counter("job.queued").incr();
        tenant_counter(tenant).incr();
        if let Err(e) = self.persist_queue(&mut inner, id) {
            // Roll the admission back: an unpersisted job would silently
            // vanish on restart, which is worse than a typed refusal.
            let _ = inner.queue.cancel(id);
            inner.enqueued_at.remove(&id);
            hmpt_obs::gauge("queue.depth").set(inner.queue.depth() as u64);
            return Err(e);
        }
        self.work.notify_all();
        Ok((id, fingerprint))
    }

    /// Status of one job (typed error if unknown) or of everything.
    pub fn status(&self, job: Option<u64>) -> Result<StatusView, ServeError> {
        let inner = self.inner.lock().unwrap();
        if let Some(id) = job {
            if inner.queue.get(id).is_none() {
                return Err(ServeError::UnknownJob(id));
            }
        }
        Ok(StatusView {
            jobs: inner.queue.statuses(job),
            queue_depth: inner.queue.depth() as u64,
            draining: inner.draining,
        })
    }

    /// The merged `MatrixReport` of a completed job, as parsed JSON.
    pub fn report(&self, job: u64) -> Result<Value, ServeError> {
        {
            let inner = self.inner.lock().unwrap();
            let record = inner.queue.get(job).ok_or(ServeError::UnknownJob(job))?;
            if record.state != JobState::Completed {
                return Err(ServeError::WrongState { job, state: record.state });
            }
        }
        let path = self.report_path(job);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| ServeError::Internal(format!("{}: {e}", path.display())))?;
        serde_json::parse(&text)
            .map_err(|e| ServeError::Internal(format!("{}: {e}", path.display())))
    }

    /// Cancel a queued job (running work is never interrupted).
    pub fn cancel(&self, job: u64) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().unwrap();
        inner.queue.cancel(job)?;
        inner.enqueued_at.remove(&job);
        hmpt_obs::gauge("queue.depth").set(inner.queue.depth() as u64);
        hmpt_obs::counter("job.cancelled").incr();
        self.persist_queue(&mut inner, job)
    }

    /// Stop accepting work. The running job (if any) finishes; queued
    /// jobs stay persisted for the next `open` to adopt. Returns the
    /// (queued, running) counts at the instant the drain took effect.
    pub fn drain(&self) -> (u64, u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.draining = true;
        let counts = (inner.queue.depth() as u64, inner.queue.running() as u64);
        self.work.notify_all();
        counts
    }

    /// Is the service draining?
    pub fn is_draining(&self) -> bool {
        self.inner.lock().unwrap().draining
    }

    /// The runner loop: claim → execute → persist, one job at a time,
    /// until drained. Blocks; the daemon calls this on its main thread
    /// while the TCP server answers on its own.
    pub fn run(&self) {
        loop {
            if self.run_one() {
                continue;
            }
            let inner = self.inner.lock().unwrap();
            if inner.draining {
                break;
            }
            if inner.queue.next_runnable().is_none() {
                // Idle: a submit or a drain wakes the runner.
                let (_inner, _) =
                    self.work.wait_timeout(inner, Duration::from_millis(200)).unwrap();
            }
        }
        // Drained: every verb persisted its change, so the caller may
        // exit. Queued jobs survive for the next open().
        let queued = self.inner.lock().unwrap().queue.depth();
        hmpt_obs::info(
            "serve.drain",
            format!("drained; {queued} queued job(s) persisted for the next start"),
        );
    }

    /// Claim and execute at most one queued job (one step of
    /// [`Coordinator::run`]). Returns whether a job ran.
    pub fn run_one(&self) -> bool {
        let claim = {
            let inner = self.inner.lock().unwrap();
            if inner.draining {
                None
            } else {
                inner.queue.next_runnable()
            }
        };
        match claim {
            Some(id) => {
                self.execute(id);
                true
            }
            None => false,
        }
    }

    /// Run queued jobs until the queue is idle.
    pub fn run_until_idle(&self) {
        while self.run_one() {}
    }

    // -- internals ---------------------------------------------------------

    fn report_path(&self, job: u64) -> PathBuf {
        self.cfg.state_dir.join("reports").join(format!("job-{job}.json"))
    }

    /// Persist job `id`'s new state: append its record to `queue.log`,
    /// or rewrite the log (see the module docs).
    fn persist_queue(&self, inner: &mut Inner, id: u64) -> Result<(), ServeError> {
        if inner.log_room > 0 {
            let log = self.cfg.state_dir.join(QUEUE_LOG);
            let record = inner.queue.get(id).expect("a persisted job is in the queue");
            match store::append_line(&log, record) {
                Ok(()) => {
                    inner.log_room -= 1;
                    return Ok(());
                }
                Err(e) => hmpt_obs::warn(
                    "serve.state",
                    format!("queue log append failed, rewriting: {}: {e}", log.display()),
                ),
            }
        }
        self.rewrite_queue(inner)
    }

    /// Rewrite `queue.log` with one record per job. Until a rewrite
    /// succeeds, every persist rewrites.
    fn rewrite_queue(&self, inner: &mut Inner) -> Result<(), ServeError> {
        inner.log_room = 0;
        let jobs = inner.queue.snapshot().jobs;
        let log = self.cfg.state_dir.join(QUEUE_LOG);
        store::write_lines(&log, &jobs)
            .map_err(|e| ServeError::Internal(format!("{}: {e}", log.display())))?;
        inner.log_room = jobs.len() as u64;
        Ok(())
    }

    /// One job, end to end. State transitions persist as they happen,
    /// so a crash anywhere inside re-queues the job on the next open.
    fn execute(&self, id: u64) {
        let record = {
            let mut inner = self.inner.lock().unwrap();
            let Some(record) = inner.queue.get_mut(id) else { return };
            if record.transition(JobState::Running).is_err() {
                return; // cancelled between claim and lock
            }
            let record = record.clone();
            if let Some(enqueued) = inner.enqueued_at.remove(&id) {
                hmpt_obs::record_span(
                    "serve.queue_wait",
                    Some(format!("job {id}")),
                    enqueued.elapsed(),
                );
            }
            hmpt_obs::gauge("queue.depth").set(inner.queue.depth() as u64);
            hmpt_obs::counter("job.running").incr();
            if let Err(e) = self.persist_queue(&mut inner, id) {
                hmpt_obs::warn("serve.state", format!("job {id}: {e}"));
            }
            record
        };

        let started = Instant::now();
        let _job = hmpt_obs::span_with("serve.job", || format!("job {id} {}", record.tenant));
        let report = match self.simulate(&record) {
            Ok(report) => report,
            Err(message) => return self.finish_failed(id, message),
        };

        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(record) = inner.queue.get_mut(id) {
                let _ = record.transition(JobState::Merging);
            }
            if let Err(e) = self.persist_queue(&mut inner, id) {
                hmpt_obs::warn("serve.state", format!("job {id}: {e}"));
            }
        }

        let merge_started = Instant::now();
        {
            let _m = hmpt_obs::span_with("serve.merge", || format!("job {id}"));
            if let Err(e) = self.cache_file.persist(&self.cache, self.cfg.cache_max_records) {
                hmpt_obs::warn("serve.cache", format!("shared cache not saved: {e}"));
            }
        }
        let merge_s = merge_started.elapsed().as_secs_f64();

        let json = serde_json::to_string_pretty(&report).expect("matrix reports always serialize");
        if let Err(e) = store::write_atomic(&self.report_path(id), json.as_bytes()) {
            return self.finish_failed(id, format!("write report: {e}"));
        }

        // One job runs at a time, so the report's cache traffic is
        // exactly this job's, and the entries it added are the cells it
        // simulated.
        let traffic = report.stats.cache;
        let stats = JobStats {
            scenarios: report.stats.scenarios as u64,
            planned_cells: report.stats.planned_cells,
            executed_cells: report.stats.executed_cells,
            simulated_cells: traffic.entries,
            cells_skipped: (traffic.hits + traffic.misses).saturating_sub(traffic.entries),
            wall_s: started.elapsed().as_secs_f64(),
            merge_s,
        };
        let mut inner = self.inner.lock().unwrap();
        if let Some(record) = inner.queue.get_mut(id) {
            let _ = record.transition(JobState::Completed);
            record.stats = Some(stats);
        }
        hmpt_obs::counter("job.merged").incr();
        if let Err(e) = self.persist_queue(&mut inner, id) {
            hmpt_obs::warn("serve.state", format!("job {id}: {e}"));
        }
    }

    /// Resolve the job's spec, check it against the admission
    /// fingerprint, and run it through `api::run_checked` — run, audit
    /// and the spec's `verify` re-run, as `hmpt-fleet run` does — over
    /// the shared cache, [`CoordinatorConfig::workers`] campaign groups
    /// at a time. Returns the stamped report.
    fn simulate(&self, record: &JobRecord) -> Result<MatrixReport, String> {
        let resolved = CampaignSpec::parse(&record.spec)
            .and_then(|spec| spec.resolve())
            .map_err(|e| e.to_string())?;
        let ResolvedMatrix { matrix, config, verify, .. } = match resolved {
            Resolved::Matrix(m) => m,
            Resolved::Batch(_) => return Err("batch spec reached the runner".into()),
        };
        let fingerprint = config.matrix_fingerprint(&matrix).to_string();
        if fingerprint != record.fingerprint {
            return Err(format!(
                "matrix fingerprint {fingerprint} does not match the spec fingerprint {}",
                record.fingerprint
            ));
        }

        // `workers` is the job's whole width: the groups it runs at once
        // run their cells serially, whatever the spec's executor says.
        let config = MatrixConfig {
            executor: ExecutorKind::Serial,
            job_workers: self.cfg.job_width(),
            ..config
        };
        let fleet = Fleet::with_cache(config.fleet_config(), Arc::clone(&self.cache));
        let (rows, stats) = api::run_checked(&fleet, &matrix, 0..matrix.len(), verify)
            .map_err(|e| e.to_string())?;
        let mut report = MatrixReport::assemble(rows, stats);
        report.spec_fingerprint = Some(fingerprint);
        Ok(report)
    }

    fn finish_failed(&self, id: u64, message: String) {
        hmpt_obs::warn("serve.job", format!("job {id} failed: {message}"));
        let mut inner = self.inner.lock().unwrap();
        if let Some(record) = inner.queue.get_mut(id) {
            let _ = record.transition(JobState::Failed);
            record.error = Some(message);
        }
        hmpt_obs::counter("job.failed").incr();
        if let Err(e) = self.persist_queue(&mut inner, id) {
            hmpt_obs::warn("serve.state", format!("job {id}: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_auto_width_leaves_the_service_a_cpu() {
        let mut cfg = CoordinatorConfig::new("state");
        let cpus = available_workers();
        assert_eq!(cfg.job_width(), if cpus > 1 { cpus - 1 } else { 1 });
        cfg.workers = 3;
        assert_eq!(cfg.job_width(), 3, "an explicit width is kept");
    }
}
