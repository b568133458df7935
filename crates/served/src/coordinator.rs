//! The coordinator: admission, the runner loop, durable state, and the
//! shared cross-job cache.
//!
//! One [`Coordinator`] owns a state directory:
//!
//! ```text
//! <state-dir>/
//!   queue.json          # QueueSnapshot — every job ever admitted
//!   cache.bin           # the shared MeasurementCache snapshot
//!   cache.log           # journal: cells added since cache.bin was written
//!   reports/job-<id>.json   # the MatrixReport of each completed job
//! ```
//!
//! Every mutation persists before the verb answers, so a crash at any
//! instant loses at most the frame being processed; [`Coordinator::open`]
//! reloads the state and re-queues whatever was mid-flight (the state
//! machine's adopt edge). `queue.json`, the reports and `cache.bin` are
//! rewritten whole through [`store::write_atomic`]. The cells a job adds
//! are appended to `cache.log` instead ([`store::append`]), so a job's
//! persist costs its own new cells, not the whole cache, and a job that
//! adds none writes nothing. The coordinator *folds* — rewrites
//! `cache.bin` from the cache, then deletes the log — when the log would
//! outgrow `cache.bin`, when the LRU bound evicted a cell (so no evicted
//! cell survives in the log), after a failed append (whose torn tail
//! nothing may follow), when `open` found a log, and at drain. An
//! unreadable `queue.json` is renamed aside to `queue.json.corrupt.N`,
//! never overwritten.
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

use hmpt_core::cache::{Mark, MeasurementCache};
use hmpt_core::exec::ExecutorKind;
use hmpt_core::scenario::MatrixReport;
use hmpt_core::store;
use hmpt_fleet::api;
use hmpt_fleet::matrix::MatrixConfig;
use hmpt_fleet::service::Fleet;
use hmpt_fleet::spec::{CampaignSpec, Resolved, ResolvedMatrix};
use serde::Value;

use crate::queue::{JobQueue, QueueConfig, QueueError, QueueSnapshot};
use crate::state::{JobRecord, JobState, JobStats};
use crate::wire::{ErrorKind, StatusView};

/// The shared cache's snapshot and journal, in the state dir.
const CACHE_BIN: &str = "cache.bin";
const CACHE_LOG: &str = "cache.log";

/// How the daemon is shaped. `workers` is how many campaign groups a
/// served job runs at once — a throughput knob only, results are
/// bit-identical at any value.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    pub state_dir: PathBuf,
    /// Campaign groups a job runs at once on the fleet's job pool, each
    /// group's cells serially; 0 means one per available CPU. This is a
    /// served job's whole width: the spec's `[execution]` `serial`,
    /// `workers` and `job_workers` are ignored.
    pub workers: usize,
    /// Max live (queued + mid-flight) jobs per tenant.
    pub tenant_quota: usize,
    /// LRU bound applied to the shared cache after each job; a job that
    /// evicts folds the journal into a rewritten `cache.bin`.
    pub cache_max_records: Option<u64>,
}

impl CoordinatorConfig {
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
    draining: bool,
    /// Submission instants for the `serve.queue_wait` span; in-memory
    /// only — an adopted job's wait clock restarts at reopen.
    enqueued_at: BTreeMap<u64, Instant>,
}

/// What of the shared cache is on disk, in `cache.bin` and `cache.log`.
struct Journal {
    /// Cells inserted after this mark are not on disk yet.
    mark: Mark,
    /// The cache's length at `mark`. The cache only shrinks when the LRU
    /// bound evicts, which folds and re-marks (and sets `must_fold`
    /// until a fold succeeds), so otherwise the growth since `mark`
    /// counts the cells not on disk.
    len_at_mark: usize,
    /// Records in `cache.bin` and in `cache.log`.
    snapshot_records: u64,
    log_records: u64,
    /// The log cannot be appended to — `open` found it, an append
    /// failed, or an eviction or a fold is unfinished — so the next
    /// persist folds.
    must_fold: bool,
}

/// The service core. All verbs are `&self` and thread-safe; the runner
/// loop ([`Coordinator::run`]) executes jobs one at a time while
/// connection threads admit and answer concurrently.
pub struct Coordinator {
    cfg: CoordinatorConfig,
    inner: Mutex<Inner>,
    work: Condvar,
    cache: Arc<MeasurementCache>,
    journal: Mutex<Journal>,
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

fn tenant_ok(tenant: &str) -> bool {
    !tenant.is_empty()
        && tenant.len() <= 64
        && tenant.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

impl Coordinator {
    /// Open (or create) a state directory and adopt whatever it holds:
    /// the queue snapshot is reloaded, mid-flight jobs are re-queued,
    /// and the shared cache is preloaded from `cache.bin`, then from
    /// `cache.log`, which is then folded away. An unreadable cache file
    /// is a cold start with a warning, not a refusal to serve — matching
    /// the fleet's cache-preload contract; an unreadable queue snapshot
    /// is a cold start too, after it is renamed aside.
    pub fn open(cfg: CoordinatorConfig) -> Result<Coordinator, ServeError> {
        std::fs::create_dir_all(cfg.state_dir.join("reports")).map_err(|e| {
            ServeError::Internal(format!("create {}: {e}", cfg.state_dir.display()))
        })?;

        let mut queue = JobQueue::new(QueueConfig { tenant_quota: cfg.tenant_quota });
        let queue_path = cfg.state_dir.join("queue.json");
        if queue_path.exists() {
            let bytes = std::fs::read(&queue_path)
                .map_err(|e| ServeError::Internal(format!("{}: {e}", queue_path.display())))?;
            let parsed = std::str::from_utf8(&bytes).map_err(|e| e.to_string()).and_then(|text| {
                serde_json::from_str::<QueueSnapshot>(text).map_err(|e| e.to_string())
            });
            match parsed {
                Ok(snapshot) => {
                    queue =
                        JobQueue::restore(snapshot, QueueConfig { tenant_quota: cfg.tenant_quota });
                    let adopted = queue.adopt_all();
                    if adopted > 0 {
                        hmpt_obs::info(
                            "serve.adopt",
                            format!("re-queued {adopted} job(s) interrupted mid-flight"),
                        );
                    }
                }
                Err(e) => {
                    // The next persist would overwrite the file and every
                    // job it names, so move it aside for an operator.
                    let aside = quarantine(&queue_path).map_err(|io| {
                        ServeError::Internal(format!(
                            "unreadable queue snapshot {} ({e}) cannot be moved aside: {io}",
                            queue_path.display()
                        ))
                    })?;
                    hmpt_obs::warn(
                        "serve.state",
                        format!(
                            "unreadable queue snapshot {} moved to {} (cold start): {e}",
                            queue_path.display(),
                            aside.display()
                        ),
                    );
                }
            }
        }

        let cache = Arc::new(MeasurementCache::new());
        let snapshot =
            store::preload(&cache, &cfg.state_dir.join(CACHE_BIN), "serve.cache", "shared cache");
        let log = cfg.state_dir.join(CACHE_LOG);
        let had_log = log.exists();
        if had_log {
            store::preload(&cache, &log, "serve.cache", "shared cache journal");
        }
        let journal = Journal {
            mark: cache.mark(),
            len_at_mark: cache.len(),
            snapshot_records: snapshot.map_or(0, |r| r.loaded),
            log_records: 0,
            must_fold: had_log,
        };

        hmpt_obs::gauge("queue.depth").set(queue.depth() as u64);
        let coordinator = Coordinator {
            cfg,
            inner: Mutex::new(Inner { queue, draining: false, enqueued_at: BTreeMap::new() }),
            work: Condvar::new(),
            cache,
            journal: Mutex::new(journal),
        };
        if had_log {
            // Fold the replayed log away, so nothing is ever appended
            // after a tail a crash may have torn.
            coordinator.persist_cache(false);
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
        let fingerprint =
            spec.fingerprint().map_err(|e| ServeError::BadSpec(e.to_string()))?.to_string();
        match spec.resolve().map_err(|e| ServeError::BadSpec(e.to_string()))? {
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
        if let Err(e) = self.persist_queue(&inner) {
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
        self.persist_queue(&inner)
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
        // Drained: one final persist of the queue, and a fold of the
        // cache's journal, then the caller may exit. Queued jobs survive
        // for the next open().
        let inner = self.inner.lock().unwrap();
        let queued = inner.queue.depth();
        let persist = self.persist_queue(&inner);
        drop(inner);
        self.persist_cache(true);
        match persist {
            Ok(()) => hmpt_obs::info(
                "serve.drain",
                format!("drained; {queued} queued job(s) persisted for the next start"),
            ),
            Err(e) => hmpt_obs::warn("serve.drain", format!("drained, but: {e}")),
        }
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

    fn persist_queue(&self, inner: &Inner) -> Result<(), ServeError> {
        let snapshot = inner.queue.snapshot();
        let json = serde_json::to_string_pretty(&snapshot)
            .map_err(|e| ServeError::Internal(format!("serialize queue snapshot: {e}")))?;
        let path = self.cfg.state_dir.join("queue.json");
        store::write_atomic(&path, json.as_bytes())
            .map_err(|e| ServeError::Internal(format!("{}: {e}", path.display())))
    }

    /// Bring the cache's files up to date: evict to the LRU bound, then
    /// append the cells added since the last persist to `cache.log`, or
    /// fold (see the module docs). `draining` folds whatever is pending.
    fn persist_cache(&self, draining: bool) {
        let mut journal = self.journal.lock().expect("journal lock poisoned");
        if self.cfg.cache_max_records.is_some_and(|max| self.cache.compact(max as usize) > 0) {
            journal.must_fold = true;
        }
        let log = self.cfg.state_dir.join(CACHE_LOG);
        if !journal.must_fold {
            let added = (self.cache.len() - journal.len_at_mark) as u64;
            if added == 0 && (!draining || journal.log_records == 0) {
                return;
            }
            if !draining && journal.log_records + added <= journal.snapshot_records {
                let mark = self.cache.mark();
                match store::append(&log, &self.cache.added_since(journal.mark)) {
                    Ok(saved) => {
                        journal.log_records += saved.saved;
                        journal.mark = mark;
                        journal.len_at_mark = self.cache.len();
                        return;
                    }
                    Err(e) => hmpt_obs::warn(
                        "serve.cache",
                        format!("journal append failed, folding instead: {}: {e}", log.display()),
                    ),
                }
            }
        }

        journal.must_fold = true;
        let (mark, len) = (self.cache.mark(), self.cache.len());
        let path = self.cfg.state_dir.join(CACHE_BIN);
        let folded = store::save(&self.cache, &path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|saved| match std::fs::remove_file(&log) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    Err(format!("{}: {e}", log.display()))
                }
                _ => Ok(saved),
            });
        match folded {
            Ok(saved) => {
                *journal = Journal {
                    mark,
                    len_at_mark: len,
                    snapshot_records: saved.saved,
                    log_records: 0,
                    must_fold: false,
                }
            }
            Err(e) => hmpt_obs::warn("serve.cache", format!("shared cache not folded: {e}")),
        }
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
            if let Err(e) = self.persist_queue(&inner) {
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
            if let Err(e) = self.persist_queue(&inner) {
                hmpt_obs::warn("serve.state", format!("job {id}: {e}"));
            }
        }

        let merge_started = Instant::now();
        {
            let _m = hmpt_obs::span_with("serve.merge", || format!("job {id}"));
            self.persist_cache(false);
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
        if let Err(e) = self.persist_queue(&inner) {
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
            job_workers: self.cfg.workers,
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
        if let Err(e) = self.persist_queue(&inner) {
            hmpt_obs::warn("serve.state", format!("job {id}: {e}"));
        }
    }
}
