//! The traced run: the same seeded campaigns as the untraced run,
//! replayed through each layer's public functions in the product's
//! order, with every call timed from the benchmark's own code.
//!
//! Each traced campaign runs three times:
//!
//! 1. through the product path, untraced (`api::execute`, or a job on
//!    the real coordinator) — the reference output and the untraced
//!    time `trace_overhead` divides by;
//! 2. as the replay, under a `campaign` root span — the ledger: the
//!    layers' self times plus the root's own (`unattributed_s`) add up
//!    to the traced campaign time by construction;
//! 3. through the product's `exec::cell_executor` stack, cell for cell
//!    (`exec.stack_s`), outside the root span.
//!
//! The replay's output must be bit-identical to the product path's.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hmpt_core::cache::{CacheStats, MeasurementCache};
use hmpt_core::campaign::{CampaignPlan, CellSpec, RepPolicy};
use hmpt_core::driver::{Analysis, Driver};
use hmpt_core::error::TunerError;
use hmpt_core::exec::{cell_executor, CellExecutor, ExecutorKind};
use hmpt_core::grouping::{group, AllocationGroup};
use hmpt_core::measure::{assemble_config, CampaignConfig, CampaignResult, CellOutcome};
use hmpt_core::online::{self, OnlineConfig, OnlineResult};
use hmpt_core::scenario::{MatrixReport, MatrixStats, ScenarioMatrix, ScenarioRow, ShardReport};
use hmpt_core::store;
use hmpt_fleet::matrix::{run_matrix, MatrixConfig};
use hmpt_fleet::spec::{CampaignSpec, Resolved, ResolvedBatch, ResolvedMatrix};
use hmpt_served::queue::{JobQueue, QueueConfig};
use hmpt_served::wire::{self, ErrorKind, RawFrame, StatusView, WireRequest, WireResponse};
use hmpt_served::worker::run_shards;
use hmpt_served::{Client, JobState, JobStats};
use hmpt_sim::machine::Machine;
use hmpt_workloads::model::WorkloadSpec;

use crate::check::{self, Digest};
use crate::specs;
use crate::stats::median;
use crate::trace::{self, Ledger};
use crate::workloads::{
    execute_batch, execute_matrix, matrix_of, scratch_dir, served_fresh, Report, Service, TENANT,
};

/// Span name → per-layer metric (seconds of self time per campaign).
pub const LAYERS: [(&str, &str); 21] = [
    ("spec.resolve", "spec.resolve_s"),
    ("scenario.build_machine", "scenario.build_machine_s"),
    ("driver.profile", "driver.profile_s"),
    ("grouping.group", "grouping.group_s"),
    ("driver.assemble", "driver.assemble_s"),
    ("campaign.plan", "campaign.plan_s"),
    ("campaign.keys", "campaign.keys_s"),
    ("cache.lookup", "cache.lookup_s"),
    ("cache.insert", "cache.insert_s"),
    ("fastpath.compile", "fastpath.compile_s"),
    ("fastpath.simulate", "fastpath.simulate_s"),
    ("online.tune", "online.tune_s"),
    ("api.verify", "api.verify_s"),
    ("scenario.report", "scenario.report_s"),
    ("store.fold", "store.fold_s"),
    ("store.save", "store.save_s"),
    ("coordinator.submit", "coordinator.submit_s"),
    ("coordinator.job", "coordinator.job_s"),
    ("client.submit", "client.submit_s"),
    ("client.report", "client.report_s"),
    ("worker.shards", "worker.shards_s"),
];

/// Run-wide counters of the replay (summed over traced campaigns).
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    verify_cells: AtomicU64,
    fold_cells: AtomicU64,
    snapshot_bytes: AtomicU64,
    queue_bytes: AtomicU64,
    report_frame_bytes: AtomicU64,
}

static COUNTERS: Counters = Counters {
    hits: AtomicU64::new(0),
    misses: AtomicU64::new(0),
    verify_cells: AtomicU64::new(0),
    fold_cells: AtomicU64::new(0),
    snapshot_bytes: AtomicU64::new(0),
    queue_bytes: AtomicU64::new(0),
    report_frame_bytes: AtomicU64::new(0),
};

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Cells: key derivation, cache consult, simulation
// ---------------------------------------------------------------------------

/// Per-cell timings, folded into the enclosing span once per plan.
#[derive(Default)]
struct CellAcc {
    keys: (Duration, u64),
    lookup: (Duration, u64),
    insert: (Duration, u64),
    compile: (Duration, u64),
    simulate: (Duration, u64),
    hits: u64,
    misses: u64,
}

impl CellAcc {
    fn fold(&self) {
        trace::fold("campaign.keys", self.keys.0, self.keys.1);
        trace::fold("cache.lookup", self.lookup.0, self.lookup.1);
        trace::fold("cache.insert", self.insert.0, self.insert.1);
        trace::fold("fastpath.compile", self.compile.0, self.compile.1);
        trace::fold("fastpath.simulate", self.simulate.0, self.simulate.1);
        add(&COUNTERS.hits, self.hits);
        add(&COUNTERS.misses, self.misses);
    }

    fn tick(slot: &mut (Duration, u64), since: Instant) -> Instant {
        let now = Instant::now();
        slot.0 += now - since;
        slot.1 += 1;
        now
    }

    /// One cache consult: lookup, and on a miss simulate and insert.
    /// The first simulated cell of a plan builds (and pre-walks) the
    /// batched kernel, so its time is the kernel's compile time.
    fn consult(
        &mut self,
        cache: &MeasurementCache,
        cell: &CellSpec,
        compiled: &mut bool,
        measure: impl FnOnce(&CellSpec) -> Result<CellOutcome, TunerError>,
    ) -> Result<CellOutcome, TunerError> {
        let t = Instant::now();
        let hit = cache.get(&cell.key);
        let t = Self::tick(&mut self.lookup, t);
        if let Some(outcome) = hit {
            self.hits += 1;
            return outcome;
        }
        self.misses += 1;
        let outcome = measure(cell);
        let t = if *compiled {
            Self::tick(&mut self.simulate, t)
        } else {
            *compiled = true;
            Self::tick(&mut self.compile, t)
        };
        cache.insert(cell.key, outcome.clone());
        Self::tick(&mut self.insert, t);
        outcome
    }
}

/// The product's fixed-repetition campaign, one cell at a time:
/// `CampaignPlan::cells` (key derivation), `MeasurementCache::get` /
/// `insert`, `CampaignPlan::measure_cell`, folded per configuration
/// exactly as the campaign's own assembler folds them.
fn run_plan(plan: &CampaignPlan<'_>, cache: &MeasurementCache) -> Result<CampaignResult, String> {
    if !matches!(plan.policy(), RepPolicy::Fixed) {
        return Err("the replay covers fixed-repetition campaigns".into());
    }
    let reps = plan.config().runs_per_config.max(1);
    let mut acc = CellAcc::default();
    let mut compiled = false;
    let mut measurements = Vec::new();
    let mut current: Vec<Result<CellOutcome, TunerError>> = Vec::with_capacity(reps);
    let mut executed = 0;
    let mut cells = plan.cells();
    loop {
        let t = Instant::now();
        let Some(cell) = cells.next() else { break };
        CellAcc::tick(&mut acc.keys, t);
        current.push(acc.consult(cache, &cell, &mut compiled, |c| plan.measure_cell(c)));
        executed += 1;
        if current.len() == reps {
            match assemble_config(cell.config, &current) {
                Ok(m) => measurements.push(m),
                Err(TunerError::Alloc(hmpt_alloc::error::AllocError::PoolExhausted { .. })) => {}
                Err(e) => return Err(e.to_string()),
            }
            current.clear();
        }
    }
    acc.fold();
    Ok(CampaignResult::with_accounting(measurements, reps, plan.planned_cells(), executed))
}

/// The online tuner's probe executor: serial, consulting the cache the
/// way the product's caching stack does, timing each consult.
struct ProbeExec<'c> {
    cache: &'c MeasurementCache,
    acc: Mutex<CellAcc>,
}

impl CellExecutor for ProbeExec<'_> {
    fn run_cells(
        &self,
        cells: &[CellSpec],
        measure: &(dyn Fn(&CellSpec) -> Result<CellOutcome, TunerError> + Sync),
    ) -> Vec<Result<CellOutcome, TunerError>> {
        let mut acc = self.acc.lock().expect("probe accumulator poisoned");
        let mut compiled = true;
        cells.iter().map(|c| acc.consult(self.cache, c, &mut compiled, measure)).collect()
    }

    fn describe(&self) -> String {
        "serial+cache (traced)".into()
    }
}

fn campaign_digest(result: &CampaignResult) -> u64 {
    let mut d = Digest::new();
    for m in &result.measurements {
        d.word(m.config.0);
        d.word(m.mean_s.to_bits());
        d.word(m.std_s.to_bits());
    }
    d.word(result.planned_runs as u64);
    d.word(result.executed_runs as u64);
    d.finish()
}

/// What the `exec.stack` pass needs to re-run one campaign.
struct StackJob {
    machine: Machine,
    workload: WorkloadSpec,
    groups: Vec<AllocationGroup>,
    campaign: CampaignConfig,
    policy: RepPolicy,
    fast_path: bool,
    digest: u64,
}

/// One job of the Fig 6 pipeline (`Fleet::run_job`): profile, group,
/// plan, campaign, optional online check, assemble.
#[allow(clippy::too_many_arguments)]
fn replay_job(
    machine: &Machine,
    workload: &WorkloadSpec,
    campaign: CampaignConfig,
    policy: RepPolicy,
    grouping: hmpt_core::grouping::GroupingConfig,
    executor: ExecutorKind,
    fast_path: bool,
    online_check: bool,
    cache: &MeasurementCache,
    stack: &mut Vec<StackJob>,
) -> Result<(Analysis, Option<OnlineResult>), String> {
    let driver = Driver::new(machine.clone())
        .with_grouping(grouping)
        .with_campaign(campaign)
        .with_executor(executor)
        .with_fast_path(fast_path);
    let profile = trace::span("driver.profile", || driver.profile(workload)).map_err(err)?;
    let groups = trace::span("grouping.group", || group(workload, &profile.stats, &grouping));
    let plan = trace::span("campaign.plan", || {
        CampaignPlan::new(machine, workload, &groups, campaign)
            .map(|p| p.with_policy(policy).with_fast_path(fast_path))
    })
    .map_err(err)?;
    let result = run_plan(&plan, cache)?;
    let online = if online_check {
        let probe = ProbeExec { cache, acc: Mutex::new(CellAcc::default()) };
        let ocfg = OnlineConfig { campaign, executor, ..OnlineConfig::default() };
        let tuned = trace::span("online.tune", || {
            let tuned = online::tune_plan(&plan, &ocfg, &probe);
            probe.acc.lock().expect("probe accumulator poisoned").fold();
            tuned
        });
        Some(tuned.map_err(err)?)
    } else {
        None
    };
    drop(plan);
    stack.push(StackJob {
        machine: machine.clone(),
        workload: workload.clone(),
        groups: groups.clone(),
        campaign,
        policy,
        fast_path,
        digest: campaign_digest(&result),
    });
    let analysis =
        trace::span("driver.assemble", || driver.assemble(workload, profile, groups, result));
    Ok((analysis, online))
}

/// `run_matrix_range`, scenario by scenario, over `cache`.
fn replay_range(
    matrix: &ScenarioMatrix,
    cfg: &MatrixConfig,
    cache: &MeasurementCache,
    range: Range<usize>,
    stack: &mut Vec<StackJob>,
) -> Result<(Vec<ScenarioRow>, MatrixStats), String> {
    let t0 = Instant::now();
    let (hits0, misses0) = (get(&COUNTERS.hits), get(&COUNTERS.misses));
    let mut rows = Vec::with_capacity(range.len());
    let (mut planned, mut executed) = (0u64, 0u64);
    for i in range {
        let s = matrix.scenario(i);
        let machine = trace::span("scenario.build_machine", || s.build_machine()).map_err(err)?;
        let (analysis, _) = replay_job(
            &machine,
            &s.workload,
            s.campaign,
            s.rep_policy,
            cfg.grouping,
            cfg.executor,
            cfg.fast_path,
            false,
            cache,
            stack,
        )?;
        planned += analysis.campaign.planned_runs as u64;
        executed += analysis.campaign.executed_runs as u64;
        rows.push(trace::span("scenario.report", || ScenarioRow::build(&s, &machine, &analysis)));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = MatrixStats {
        scenarios: rows.len(),
        planned_cells: planned,
        executed_cells: executed,
        cache: CacheStats {
            hits: get(&COUNTERS.hits) - hits0,
            misses: get(&COUNTERS.misses) - misses0,
            entries: cache.len() as u64,
        },
        wall_s,
        scenarios_per_s: if wall_s > 0.0 { rows.len() as f64 / wall_s } else { 0.0 },
    };
    Ok((rows, stats))
}

/// Re-run the traced campaign's cells through the product's executor
/// stack over a fresh cache (the replay's own cache saw the same
/// campaigns in the same order, so hits fall in the same places), and
/// check the stack reproduces the replay bit for bit.
fn stack_pass(jobs: &[StackJob], kind: ExecutorKind) -> Result<Duration, String> {
    let exec = cell_executor(kind, Some(Arc::new(MeasurementCache::new())));
    let mut total = Duration::ZERO;
    for j in jobs {
        let plan = CampaignPlan::new(&j.machine, &j.workload, &j.groups, j.campaign)
            .map_err(err)?
            .with_policy(j.policy)
            .with_fast_path(j.fast_path);
        let t = Instant::now();
        let result = plan.execute(&*exec).map_err(err)?;
        total += t.elapsed();
        if campaign_digest(&result) != j.digest {
            return Err(format!(
                "the executor stack diverged from the replay on {}",
                j.workload.name
            ));
        }
    }
    Ok(total)
}

// ---------------------------------------------------------------------------
// Matrix and batch requests (`api::execute`)
// ---------------------------------------------------------------------------

fn resolve(text: &str) -> Result<(Resolved, String), String> {
    trace::span("spec.resolve", || {
        let spec = CampaignSpec::parse(text).map_err(err)?;
        let fingerprint = spec.fingerprint().map_err(err)?.to_string();
        Ok((spec.resolve().map_err(err)?, fingerprint))
    })
}

/// `api::execute` of a matrix spec without a cache file or shard.
fn replay_matrix(text: &str, stack: &mut Vec<StackJob>) -> Result<MatrixReport, String> {
    let (resolved, fingerprint) = resolve(text)?;
    let Resolved::Matrix(ResolvedMatrix {
        matrix,
        config,
        verify,
        cache_file: None,
        shard: None,
        ..
    }) = resolved
    else {
        return Err("the matrix replay covers unsharded specs without a cache file".into());
    };
    let cache = MeasurementCache::new();
    let (rows, stats) = replay_range(&matrix, &config, &cache, 0..matrix.len(), stack)?;
    let mut report = trace::span("scenario.report", || MatrixReport::assemble(rows, stats));
    report.spec_fingerprint = Some(fingerprint);
    if !report.capacity_ok() {
        return Err("a scenario exceeds its budget or capacity".into());
    }
    if verify {
        trace::span("api.verify", || {
            let serial = MatrixConfig {
                executor: ExecutorKind::Serial,
                job_workers: 1,
                cache_enabled: false,
                ..config
            };
            let parallel = MatrixConfig {
                executor: ExecutorKind::parallel(),
                job_workers: 0,
                cache_enabled: false,
                ..config
            };
            for vcfg in [serial, parallel] {
                let other = run_matrix(&matrix, &vcfg).map_err(err)?;
                add(&COUNTERS.verify_cells, other.stats.executed_cells);
                if !report.bit_identical(&other) {
                    return Err("a verify re-run diverged".to_string());
                }
            }
            Ok(())
        })?;
    }
    Ok(report)
}

/// `api::execute` of a batch spec without comparison or cache file.
fn replay_batch(text: &str, stack: &mut Vec<StackJob>) -> Result<u64, String> {
    let (resolved, _) = resolve(text)?;
    let Resolved::Batch(ResolvedBatch { jobs, fleet, compare: false, .. }) = resolved else {
        return Err("the batch replay covers specs with compare = false".into());
    };
    if fleet.cache_path.is_some() || !fleet.cache_enabled || fleet.job_workers > 1 {
        return Err("the batch replay covers cached, sequential, file-less batches".into());
    }
    let cache = MeasurementCache::new();
    let mut d = Digest::new();
    for job in &jobs {
        let (analysis, online) = replay_job(
            &job.machine,
            &job.spec,
            job.campaign,
            job.rep_policy.unwrap_or(fleet.rep_policy),
            fleet.grouping,
            fleet.executor,
            fleet.fast_path,
            fleet.online_check,
            &cache,
            stack,
        )?;
        check::digest_job(&mut d, &analysis, online.as_ref());
    }
    Ok(d.finish())
}

// ---------------------------------------------------------------------------
// The served job pipeline, rebuilt from the service's public parts
// ---------------------------------------------------------------------------

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path)).map_err(err)
}

/// The coordinator's job pipeline (`Coordinator::submit` / `execute` /
/// `report`) rebuilt from the served crate's public parts: the job
/// queue and its snapshot, the spec layer, `store::fold` / `save`, the
/// shard split, `worker::run_shards` for the verify re-run, and
/// `MatrixReport::merge`. It runs against its own state dir, whose
/// shared cache starts from the real coordinator's snapshot.
struct Replica {
    dir: PathBuf,
    queue: Mutex<JobQueue>,
    shared: MeasurementCache,
    workers: usize,
}

impl Replica {
    fn open(dir: PathBuf, snapshot: &Path) -> Result<Replica, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("reports")).map_err(err)?;
        let shared = MeasurementCache::new();
        store::load_into(&shared, snapshot).map_err(err)?;
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Ok(Replica {
            dir,
            queue: Mutex::new(JobQueue::new(QueueConfig::default())),
            shared,
            workers,
        })
    }

    fn persist_queue(&self, queue: &JobQueue) -> Result<(), String> {
        let json = serde_json::to_string_pretty(&queue.snapshot()).map_err(err)?;
        write_atomic(&self.dir.join("queue.json"), json.as_bytes())?;
        COUNTERS.queue_bytes.store(json.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn transition(&self, id: u64, to: JobState, stats: Option<JobStats>) -> Result<(), String> {
        let mut queue = self.queue.lock().expect("replica queue poisoned");
        let record = queue.get_mut(id).ok_or("unknown job")?;
        record.transition(to).map_err(err)?;
        if stats.is_some() {
            record.stats = stats;
        }
        self.persist_queue(&queue)
    }

    fn submit(&self, tenant: &str, priority: i64, text: &str) -> Result<(u64, String), String> {
        trace::span("coordinator.submit", || {
            let spec = CampaignSpec::parse(text).map_err(err)?;
            let fingerprint = spec.fingerprint().map_err(err)?.to_string();
            match spec.resolve().map_err(err)? {
                Resolved::Matrix(m) if m.shard.is_none() => {}
                _ => return Err("the service executes unsharded matrix specs".to_string()),
            }
            let mut queue = self.queue.lock().expect("replica queue poisoned");
            let id = queue
                .submit(tenant, priority, text.to_string(), fingerprint.clone())
                .map_err(err)?;
            self.persist_queue(&queue)?;
            Ok((id, fingerprint))
        })
    }

    fn report_path(&self, id: u64) -> PathBuf {
        self.dir.join("reports").join(format!("job-{id}.json"))
    }

    /// One job, claim to report on disk.
    fn execute(&self, id: u64) -> Result<(), String> {
        let (text, fingerprint) = {
            let queue = self.queue.lock().expect("replica queue poisoned");
            let record = queue.get(id).ok_or("unknown job")?;
            (record.spec.clone(), record.fingerprint.clone())
        };
        let started = Instant::now();
        self.transition(id, JobState::Running, None)?;
        let (resolved, _) = resolve(&text)?;
        let Resolved::Matrix(ResolvedMatrix { matrix, config, verify, .. }) = resolved else {
            return Err("batch spec reached the runner".into());
        };
        let job_cache = Arc::new(MeasurementCache::new());
        let seeded = trace::span("store.fold", || store::fold(&job_cache, &self.shared));
        add(&COUNTERS.fold_cells, seeded.loaded);

        let total = self.workers.clamp(1, matrix.len().max(1));
        let matrix_fingerprint =
            matrix.fingerprint().combine(config.bits_fingerprint().raw()).to_string();
        let shards = trace::span("worker.shards", || {
            (0..total)
                .map(|k| {
                    let spec = matrix.shard(k, total);
                    // No executor-stack pass for served jobs: their cache
                    // starts from the shared one, which a re-run could not
                    // reproduce without another whole-cache fold.
                    let (rows, stats) =
                        replay_range(&matrix, &config, &job_cache, spec.range(), &mut Vec::new())?;
                    Ok(ShardReport {
                        shard: spec.shard,
                        total_shards: spec.total,
                        matrix_fingerprint: matrix_fingerprint.clone(),
                        rows,
                        stats,
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        if verify {
            trace::span("api.verify", || {
                let vcfg = MatrixConfig {
                    executor: ExecutorKind::Serial,
                    job_workers: 1,
                    cache_enabled: false,
                    ..config
                };
                let others =
                    run_shards(&matrix, &vcfg, shards.len(), &Arc::new(MeasurementCache::new()))
                        .map_err(err)?;
                for (a, b) in shards.iter().zip(&others) {
                    add(&COUNTERS.verify_cells, b.stats.executed_cells);
                    if !a.bit_identical(b) {
                        return Err("diverged from the serial-uncached re-run".to_string());
                    }
                }
                Ok(())
            })?;
        }
        self.transition(id, JobState::Merging, None)?;
        let merge_started = Instant::now();
        let report = trace::span("scenario.report", || {
            if shards.iter().any(|s| s.matrix_fingerprint != fingerprint) {
                return Err("shard fingerprint does not match the spec".to_string());
            }
            let mut report = MatrixReport::merge(&shards).map_err(err)?;
            report.spec_fingerprint = Some(fingerprint.clone());
            if report.capacity_ok() {
                Ok(report)
            } else {
                Err("scenario exceeds machine capacity".to_string())
            }
        })?;
        let folded = trace::span("store.fold", || store::fold(&self.shared, &job_cache));
        add(&COUNTERS.fold_cells, folded.loaded);
        let saved =
            trace::span("store.save", || store::save(&self.shared, self.dir.join("cache.bin")));
        saved.map_err(err)?;
        let snapshot = std::fs::metadata(self.dir.join("cache.bin")).map(|m| m.len()).unwrap_or(0);
        COUNTERS.snapshot_bytes.store(snapshot, Ordering::Relaxed);
        let merge_s = merge_started.elapsed().as_secs_f64();
        let json = serde_json::to_string_pretty(&report).map_err(err)?;
        write_atomic(&self.report_path(id), json.as_bytes())?;
        let stats = JobStats {
            scenarios: report.stats.scenarios as u64,
            planned_cells: report.stats.planned_cells,
            executed_cells: report.stats.executed_cells,
            simulated_cells: report.stats.cache.misses,
            cells_skipped: report.stats.cache.hits,
            wall_s: started.elapsed().as_secs_f64(),
            merge_s,
        };
        self.transition(id, JobState::Completed, Some(stats))
    }

    fn dispatch(&self, req: WireRequest) -> WireResponse {
        let refuse = |message: String| WireResponse::Error { kind: ErrorKind::Internal, message };
        match req {
            WireRequest::Submit { tenant, priority, spec } => {
                match self.submit(&tenant, priority, &spec) {
                    Ok((job, fingerprint)) => WireResponse::Submitted { job, fingerprint },
                    Err(e) => WireResponse::Error { kind: ErrorKind::BadSpec, message: e },
                }
            }
            WireRequest::Status { job } => {
                let queue = self.queue.lock().expect("replica queue poisoned");
                WireResponse::Status(StatusView {
                    jobs: queue.statuses(job),
                    queue_depth: queue.depth() as u64,
                    draining: false,
                })
            }
            WireRequest::Report { job } => match std::fs::read_to_string(self.report_path(job))
                .map_err(err)
                .and_then(|text| serde_json::parse(&text).map_err(err))
            {
                Ok(report) => WireResponse::Report { job, report },
                Err(e) => refuse(e),
            },
            other => refuse(format!("the replay does not serve {other:?}")),
        }
    }

    /// Answer one connection with the product's wire codec.
    fn serve(&self, stream: TcpStream) -> std::io::Result<()> {
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        while let Some(frame) = wire::read_frame(&mut reader)? {
            let RawFrame::Line(line) = frame else { continue };
            let (id, resp) = match wire::decode_request(&line) {
                Ok(frame) => (frame.id, self.dispatch(frame.req)),
                Err(m) => (
                    m.id.unwrap_or(0),
                    WireResponse::Error { kind: ErrorKind::Protocol, message: m.error.to_string() },
                ),
            };
            let encoded = wire::encode_response(id, &resp);
            if matches!(resp, WireResponse::Report { .. }) {
                add(&COUNTERS.report_frame_bytes, encoded.len() as u64);
            }
            writer.write_all(encoded.as_bytes())?;
            writer.flush()?;
        }
        Ok(())
    }
}

/// Serve the replica to one loopback client; the server thread ends
/// when that client disconnects.
fn serve_replica(replica: Arc<Replica>) -> Result<(Client, JoinHandle<()>), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let addr = listener.local_addr().map_err(err)?;
    let server = std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            if let Err(e) = replica.serve(stream) {
                eprintln!("perfbench: replica server: {e}");
            }
        }
    });
    Ok((Client::connect(addr).map_err(err)?, server))
}

// ---------------------------------------------------------------------------
// The traced workloads
// ---------------------------------------------------------------------------

/// A traced run in progress: its report, and the product path's and
/// the executor stack's times next to the replay's spans.
#[derive(Default)]
struct Traced {
    report: Report,
    untraced: Vec<f64>,
    stack_s: f64,
}

impl Traced {
    /// One traced campaign: the product path untraced, the replay under
    /// a `campaign` root span, then (with `kind`) the executor stack.
    fn campaign<T>(
        &mut self,
        id: u64,
        label: &str,
        product: impl FnOnce() -> Result<T, String>,
        replay: impl FnOnce(&mut Vec<StackJob>) -> Result<T, String>,
        same: impl FnOnce(&T, &T) -> Result<(), String>,
        kind: Option<ExecutorKind>,
    ) {
        self.report.attempted += 1;
        let t = Instant::now();
        let reference = product();
        self.untraced.push(t.elapsed().as_secs_f64());
        trace::set_campaign(id);
        let mut stack = Vec::new();
        let replayed =
            trace::span_with(trace::CAMPAIGN, Some(label.to_string()), || replay(&mut stack));
        let checked = match (reference, replayed) {
            (Ok(a), Ok(b)) => same(&a, &b),
            (Err(e), _) => Err(format!("product path: {e}")),
            (_, Err(e)) => Err(format!("replay: {e}")),
        };
        self.report.check(&format!("replay of {label} vs the product path"), checked);
        if let Some(kind) = kind {
            let stacked = stack_pass(&stack, kind).map(|d| self.stack_s += d.as_secs_f64());
            self.report.check(&format!("executor stack over {label}"), stacked);
        }
    }
}

fn same_digest(a: &u64, b: &u64) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err("result digests differ".into())
    }
}

/// The traced run of `workload`.
pub fn traced(workload: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut run = Traced::default();
    let start = Instant::now();
    let more = |i: usize| i == 0 || start.elapsed().as_secs_f64() < seconds;
    let mut i = 0;
    match workload {
        "zoo-cold" => {
            while more(i) {
                let text = specs::zoo(specs::campaign_seed(seed, i, specs::zoo_seed()));
                run.campaign(
                    i as u64 + 1,
                    &format!("zoo campaign {i}"),
                    || execute_matrix(&text),
                    |stack| replay_matrix(&text, stack),
                    check::same_rows,
                    Some(ExecutorKind::parallel()),
                );
                i += 1;
            }
        }
        "table2-batch" => {
            while more(i) {
                let text = specs::table2(specs::campaign_seed(seed, i, specs::TABLE2_SEED));
                run.campaign(
                    i as u64 + 1,
                    &format!("table2 request {i}"),
                    || execute_batch(&text).map(|r| check::batch_digest(&r)),
                    |stack| replay_batch(&text, stack),
                    same_digest,
                    Some(ExecutorKind::parallel()),
                );
                i += 1;
            }
        }
        "served-stream" => served(seed, seconds, &mut run)?,
        other => return Err(format!("unknown workload `{other}`")),
    }

    let spans = trace::drain();
    let path = trace_path(workload, seed);
    trace::write_jsonl(&spans, &path).map_err(err)?;
    run.report.lines.push(format!("{} spans written to {}", spans.len(), path.display()));
    ledger_metrics(&Ledger::of(&spans), &mut run);
    Ok(run.report)
}

/// Where a traced run leaves its spans (inside the checkout's build dir).
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    Path::new(".bench_build").join("perfbench").join(format!("trace-{workload}-seed{seed}.jsonl"))
}

/// `served-stream`, traced: the real service plays each job first
/// (untraced, product path), then the replica replays it.
fn served(seed: u64, seconds: f64, run: &mut Traced) -> Result<(), String> {
    let mut product = Service::start(scratch_dir("traced-served"))?;
    product.run_job(&specs::zoo(specs::zoo_seed()))?;
    let replica =
        Arc::new(Replica::open(scratch_dir("traced-replica"), &product.dir.join("cache.bin"))?);
    let (mut client, server) = serve_replica(Arc::clone(&replica))?;
    let jobs = specs::served_jobs(seed, served_fresh(seconds));
    let start = Instant::now();
    for (i, job) in jobs.iter().enumerate() {
        if i > 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let text = job.spec();
        run.campaign(
            i as u64 + 1,
            &format!("served job {i} ({}×{}+{})", job.machine, job.workloads[0], job.workloads[1]),
            || product.run_job(&text).and_then(|(_, value)| matrix_of(&value)),
            |_| {
                let (id, _) = trace::span("client.submit", || client.submit(TENANT, 0, &text))
                    .map_err(err)?;
                trace::span("coordinator.job", || replica.execute(id))?;
                let value = trace::span("client.report", || {
                    let view = client.status(Some(id)).map_err(err)?;
                    match view.jobs.first().map(|s| s.state) {
                        Some(JobState::Completed) => client.report(id).map_err(err),
                        state => Err(format!("replayed job {id} ended {state:?}")),
                    }
                })?;
                matrix_of(&value)
            },
            check::same_rows,
            None,
        );
    }
    product.stop()?;
    drop(client);
    server.join().map_err(|_| "the replica server panicked".to_string())?;
    let _ = std::fs::remove_dir_all(&replica.dir);
    Ok(())
}

/// The per-layer metrics of a traced run.
fn ledger_metrics(ledger: &Ledger, run: &mut Traced) {
    let report = &mut run.report;
    let n = ledger.campaigns.max(1) as f64;
    let per = |v: f64| v / n;
    for (span, metric) in LAYERS {
        report.metric(metric, ledger.per_campaign_s(span), "s/campaign");
        report.lines.push(format!(
            "layer {span}: {} s self time per campaign over {} calls",
            ledger.per_campaign_s(span),
            ledger.calls(span)
        ));
    }
    let traced_s = ledger.campaign_ns / 1e9 / n;
    let unattributed = ledger.per_campaign_s(trace::CAMPAIGN);
    let attributed: f64 = LAYERS.iter().map(|(span, _)| ledger.per_campaign_s(span)).sum();
    let gap = (attributed + unattributed - traced_s).abs();
    report.check(
        "ledger: layer self times + unattributed_s = traced campaign time",
        if gap <= 1e-9 * traced_s.max(1.0) {
            Ok(())
        } else {
            Err(format!("{attributed} + {unattributed} ≠ {traced_s}"))
        },
    );
    let (hits, misses) = (get(&COUNTERS.hits) as f64, get(&COUNTERS.misses) as f64);
    let keys_s = ledger.per_campaign_s("campaign.keys");
    let cells = (ledger.calls("fastpath.simulate") + ledger.calls("fastpath.compile")) as f64;
    let sim_s =
        ledger.per_campaign_s("fastpath.simulate") + ledger.per_campaign_s("fastpath.compile");
    let serial_s = keys_s
        + ledger.per_campaign_s("cache.lookup")
        + ledger.per_campaign_s("cache.insert")
        + sim_s;
    let stack_s = per(run.stack_s);
    report.metric("campaign.keys", per(ledger.calls("campaign.keys") as f64), "count/campaign");
    report.metric("cache.hits", per(hits), "count/campaign");
    report.metric("cache.misses", per(misses), "count/campaign");
    report.metric(
        "cache.hit_ratio",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
        "ratio",
    );
    report.metric("fastpath.cells", per(cells), "count/campaign");
    report.metric(
        "fastpath.ns_per_cell",
        if cells > 0.0 {
            ledger.per_campaign_s("fastpath.simulate") * 1e9 * n
                / ledger.calls("fastpath.simulate").max(1) as f64
        } else {
            0.0
        },
        "ns",
    );
    report.metric("exec.stack_s", stack_s, "s/campaign");
    report.metric(
        "exec.overhead_s",
        if stack_s > 0.0 { stack_s - serial_s } else { 0.0 },
        "s/campaign",
    );
    report.metric("api.verify_cells", per(get(&COUNTERS.verify_cells) as f64), "count/campaign");
    report.metric("store.fold_cells", per(get(&COUNTERS.fold_cells) as f64), "count/campaign");
    report.metric(
        "store.snapshot_mb",
        get(&COUNTERS.snapshot_bytes) as f64 / (1 << 20) as f64,
        "MiB",
    );
    report.metric("coordinator.queue_kb", get(&COUNTERS.queue_bytes) as f64 / 1024.0, "KiB");
    report.metric(
        "wire.report_kb",
        per(get(&COUNTERS.report_frame_bytes) as f64) / 1024.0,
        "KiB/campaign",
    );
    report.metric("unattributed_s", unattributed, "s/campaign");
    report.metric("traced_campaign_s", traced_s, "s/campaign");
    let (untraced, traced) = (median(&run.untraced), median(&ledger.campaign_s));
    report.metric("trace_overhead", if untraced > 0.0 { traced / untraced } else { 0.0 }, "ratio");
    report.metric("traced_campaigns", ledger.campaigns as f64, "count");
    report.lines.push(format!(
        "{} traced campaigns; median traced {traced} s vs untraced {untraced} s per campaign",
        ledger.campaigns
    ));
    report.lines.push(format!(
        "ledger: layers {attributed} s + unattributed {unattributed} s = traced {traced_s} s per campaign"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(report: &Report, name: &str) -> f64 {
        report.metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("{name}")).value
    }

    #[test]
    fn traced_table2_ledger_adds_up_and_idle_layers_read_zero() {
        let report = traced("table2-batch", 7, 0.05).unwrap();
        assert_eq!(report.failed, 0, "{:?}", report.lines);
        let layers: f64 = LAYERS.iter().map(|(_, metric)| value(&report, metric)).sum();
        let total = value(&report, "traced_campaign_s");
        let unattributed = value(&report, "unattributed_s");
        assert!(total > 0.0);
        assert!((layers + unattributed - total).abs() <= 1e-9 * total.max(1.0));
        for idle in [
            "store.fold_s",
            "store.save_s",
            "coordinator.submit_s",
            "coordinator.job_s",
            "client.submit_s",
            "client.report_s",
            "worker.shards_s",
            "api.verify_s",
            "api.verify_cells",
            "wire.report_kb",
        ] {
            assert_eq!(value(&report, idle), 0.0, "{idle} should be idle on table2-batch");
        }
        assert_eq!(value(&report, "campaign.keys"), 3144.0);
        assert!(value(&report, "online.tune_s") > 0.0);
    }
}
