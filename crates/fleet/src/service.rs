//! The fleet front end: batches of tuning jobs over a shared pool and
//! cache.
//!
//! A run fans out once: `Fleet::pool` sizes one job pool for all of
//! a run's jobs — a batch's jobs, or a matrix's campaign groups — and
//! [`Fleet::run`] (like the matrix path) runs them in a single
//! `ExecutorKind::run` pass. Jobs that run at once run their cells
//! serially; a lone job runs them on [`FleetConfig::executor`].
//!
//! Each job runs the full Fig 6 pipeline (profile → group → measure →
//! analyze). The measurement campaign is planned as a
//! [`CampaignPlan`] — cells enumerated lazily, fingerprints memoized
//! once per job — and streamed through the job's cell executor, wrapped
//! in a [`hmpt_core::exec::CachingExecutor`] over the shared
//! [`MeasurementCache`] unless caching is disabled. An optional per-job *online verification pass*
//! replays the paper's incremental tuner through the same plan and
//! cache — its probes revisit configurations the exhaustive campaign
//! just measured (same derived seeds), so a warmed cache answers them
//! without new simulated runs while proving exhaustive and online
//! tuning agree.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hmpt_core::cache::Mark;
use hmpt_core::campaign::{CampaignPlan, RepPolicy};
use hmpt_core::driver::{Analysis, Driver};
use hmpt_core::error::TunerError;
use hmpt_core::exec::{available_workers, cell_executor, CellExecutor, ExecutorKind};
use hmpt_core::grouping::{group, GroupingConfig};
use hmpt_core::measure::CampaignConfig;
use hmpt_core::online::{self, OnlineConfig, OnlineResult};
use hmpt_core::store::{self, SaveReport, StoreError};
use hmpt_sim::machine::{xeon_max_9468, Machine};
use hmpt_workloads::model::WorkloadSpec;

use crate::cache::{CacheStats, MeasurementCache};

/// Fleet-wide settings.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// How campaign cells are executed while one job runs at a time
    /// (default: auto-sized parallel). Concurrent jobs run their cells
    /// serially.
    pub executor: ExecutorKind,
    /// How many repetitions each configuration gets (default: the
    /// campaign's fixed `n`; [`RepPolicy::ConfidenceTarget`] stops
    /// configurations early once their mean is known tightly enough).
    pub rep_policy: RepPolicy,
    pub grouping: GroupingConfig,
    /// Seed of each job's profiling run.
    pub profile_seed: u64,
    /// Run the online tuner through the warmed cache after each job's
    /// exhaustive campaign (verifies agreement; free on cache hits).
    /// Probes measure at the campaign's nominal `runs_per_config`, so
    /// under an adaptive `rep_policy` they simulate the repetitions
    /// early stopping skipped for the configurations the hill-climb
    /// visits (a fraction of the space; those cells then stay cached) —
    /// disable the check to keep the full early-stop saving.
    pub online_check: bool,
    /// Consult the shared content-addressed cache per cell (`false`
    /// re-simulates everything — useful for timing baselines).
    pub cache_enabled: bool,
    /// How many *jobs* run concurrently. `1` (the default) runs jobs
    /// one at a time, each on [`Self::executor`]; `0` auto-sizes to the
    /// host. Above one, all of a run's jobs share one pool and run their
    /// cells serially, so a run never nests a cell pool under the job
    /// pool. Reports are always delivered in job-index order, and
    /// results are bit-identical to sequential execution; only per-job
    /// cache *attribution* becomes approximate when concurrent jobs race
    /// on shared cells.
    pub job_workers: usize,
    /// On-disk cache snapshot ([`hmpt_core::store`]): loaded into the
    /// shared cache when the fleet is built (a missing or unusable
    /// snapshot is a cold start, not an error) and re-saved when a run
    /// that changed the cache ends — so fleet runs
    /// warm-start across process restarts. Ignored while
    /// `cache_enabled` is off (an empty cache must not clobber a good
    /// snapshot).
    pub cache_path: Option<PathBuf>,
    /// Bound on the shared cache applied at persist time: before
    /// save-on-finish, least-recently-used entries beyond this count
    /// are swept ([`MeasurementCache::compact`]) so long-lived snapshot
    /// files stay bounded. Entries this run touched carry fresh recency
    /// stamps, so a preloaded-but-unused backlog ages out first.
    /// `None` = unbounded.
    pub cache_max_records: Option<u64>,
    /// Evaluate campaign cells through the batched cold-path kernel
    /// (default true). The kernel is bit-identical to the naive
    /// per-cell pipeline by contract, so this is pure scheduling — it
    /// never changes a result bit or a cache key. `false` forces the
    /// naive path (timing baselines, kernel triage).
    pub fast_path: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            executor: ExecutorKind::parallel(),
            rep_policy: RepPolicy::Fixed,
            grouping: GroupingConfig::default(),
            profile_seed: 7,
            online_check: true,
            cache_enabled: true,
            job_workers: 1,
            cache_path: None,
            cache_max_records: None,
            fast_path: true,
        }
    }
}

/// One tuning request: a workload on a machine under campaign settings.
#[derive(Debug, Clone)]
pub struct TuningJob {
    pub spec: WorkloadSpec,
    pub machine: Machine,
    pub campaign: CampaignConfig,
    /// Per-job repetition-policy override (`None` = the fleet's
    /// configured policy). Scenario matrices sweep this as an axis.
    pub rep_policy: Option<RepPolicy>,
    /// Telemetry label for this job's `fleet.job` span (`None` = the
    /// workload name). Pure observability: never hashed, never reported
    /// in results — a label can't change a bit of output.
    pub label: Option<String>,
}

impl TuningJob {
    /// A job on the calibrated Xeon Max with the paper's default
    /// campaign settings.
    pub fn new(spec: WorkloadSpec) -> Self {
        TuningJob {
            spec,
            machine: xeon_max_9468(),
            campaign: CampaignConfig::default(),
            rep_policy: None,
            label: None,
        }
    }

    pub fn with_campaign(mut self, campaign: CampaignConfig) -> Self {
        self.campaign = campaign;
        self
    }

    pub fn with_machine(mut self, machine: Machine) -> Self {
        self.machine = machine;
        self
    }

    pub fn with_rep_policy(mut self, rep_policy: RepPolicy) -> Self {
        self.rep_policy = Some(rep_policy);
        self
    }

    /// Telemetry label for this job's span (scenario coordinates, say).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// What the fleet reports per job.
#[derive(Debug, Clone)]
pub struct JobReport {
    pub analysis: Analysis,
    /// Online-tuner verification (present when
    /// [`FleetConfig::online_check`] is set).
    pub online: Option<OnlineResult>,
    /// Cache traffic attributable to this job.
    pub cache: CacheStats,
    pub wall_s: f64,
}

impl JobReport {
    /// Simulated runs this job actually executed (cache misses), versus
    /// the runs a cache-less tuner would have needed.
    pub fn simulated_runs(&self) -> u64 {
        self.cache.misses
    }

    /// Campaign cells this job's repetition policy never scheduled
    /// (early stopping + retired infeasible configurations).
    pub fn cells_skipped(&self) -> usize {
        self.analysis.campaign.cells_skipped()
    }
}

/// Whole-batch statistics.
#[derive(Debug, Clone, Copy)]
pub struct FleetStats {
    pub jobs: usize,
    pub cache: CacheStats,
    /// Campaign cells the batch's plans could have executed.
    pub planned_cells: u64,
    /// Campaign cells actually evaluated (cache hits + misses).
    pub executed_cells: u64,
    /// Cells the repetition policy skipped (early stopping); on top of
    /// these, `cache.hits` of the executed cells cost no simulation.
    pub cells_skipped: u64,
    pub wall_s: f64,
    /// Campaign cells evaluated per wall-clock second (hits + misses).
    pub cells_per_s: f64,
}

/// A completed batch.
#[derive(Debug, Clone)]
pub struct FleetReport {
    pub reports: Vec<JobReport>,
    pub stats: FleetStats,
}

/// The campaign-execution service: a shared executor + measurement cache
/// answering batches of tuning jobs.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    cache: Arc<MeasurementCache>,
    /// Cells preloaded from the configured snapshot at construction.
    preloaded: u64,
    /// While the snapshot file holds exactly the cells inserted before
    /// this mark: set by a clean preload and by each save.
    synced: Mutex<Option<Mark>>,
}

impl Default for Fleet {
    fn default() -> Self {
        Fleet::new(FleetConfig::default())
    }
}

impl Fleet {
    pub fn new(cfg: FleetConfig) -> Self {
        Fleet::with_cache(cfg, Arc::new(MeasurementCache::new()))
    }

    /// A fleet over an externally owned cache — several fleets (e.g.
    /// the shard runs of one scenario matrix) can share one
    /// content-addressed store. If [`FleetConfig::cache_path`] names an
    /// existing snapshot (and caching is on), it is loaded here —
    /// load-on-start; an unusable snapshot (foreign format or key
    /// semantics, header damage) is reported and treated as a cold
    /// start.
    pub fn with_cache(cfg: FleetConfig, cache: Arc<MeasurementCache>) -> Self {
        let was_empty = cache.is_empty();
        let load = match cfg.cache_path.as_ref() {
            Some(path) if cfg.cache_enabled => {
                store::preload(&cache, path, "fleet.cache", "hmpt-fleet: cache snapshot")
            }
            _ => None,
        };
        // The file holds the whole cache only if it was read whole into
        // a cache that held nothing else.
        let synced = Mutex::new(load.filter(|r| was_empty && r.is_clean()).map(|_| cache.mark()));
        Fleet { cfg, cache, preloaded: load.map_or(0, |r| r.loaded), synced }
    }

    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    pub fn cache(&self) -> &MeasurementCache {
        &self.cache
    }

    /// Cells preloaded from [`FleetConfig::cache_path`] at construction.
    pub fn preloaded(&self) -> u64 {
        self.preloaded
    }

    /// Save the shared cache to [`FleetConfig::cache_path`] (atomic
    /// temp-file + rename). `Ok(None)` when no path is configured,
    /// caching is off, or the file already holds the cache: the preload
    /// or the last save read or wrote it whole, and since then no cell
    /// was added and the size bound evicted none. [`Self::run`] calls
    /// this when a batch ends — save-on-finish — and the matrix path
    /// (`api::execute`) after a checked matrix run over the fleet's
    /// cache.
    pub fn persist(&self) -> Result<Option<SaveReport>, StoreError> {
        let Some(path) = self.cfg.cache_path.as_ref().filter(|_| self.cfg.cache_enabled) else {
            return Ok(None);
        };
        let mut synced = self.synced.lock().expect("snapshot mark poisoned");
        let evicted = self.cfg.cache_max_records.map_or(0, |max| self.cache.compact(max as usize));
        if evicted == 0 && synced.is_some_and(|mark| self.cache.added_since(mark).is_empty()) {
            return Ok(None);
        }
        let mark = self.cache.mark();
        let saved = store::save(&self.cache, path);
        *synced = saved.is_ok().then_some(mark);
        saved.map(Some)
    }

    /// The fleet's executor stack: a cell-level pool, wrapped in the
    /// shared cache unless caching is disabled.
    fn exec_stack(&self, executor: ExecutorKind) -> Box<dyn CellExecutor> {
        cell_executor(executor, self.cfg.cache_enabled.then(|| Arc::clone(&self.cache)))
    }

    /// Run one job through the shared pool and cache.
    pub fn run_job(&self, job: &TuningJob) -> Result<JobReport, TunerError> {
        self.run_job_with(job, self.cfg.executor)
    }

    /// [`Self::run_job`] with an explicit cell-level executor — the one
    /// `Self::pool` picks for the run.
    pub(crate) fn run_job_with(
        &self,
        job: &TuningJob,
        executor: ExecutorKind,
    ) -> Result<JobReport, TunerError> {
        let _job_span = hmpt_obs::span_with("fleet.job", || {
            job.label.clone().unwrap_or_else(|| job.spec.name.clone())
        });
        let t0 = Instant::now();
        let before = self.cache.stats();

        let driver = Driver::new(job.machine.clone())
            .with_grouping(self.cfg.grouping)
            .with_campaign(job.campaign)
            .with_executor(executor)
            .with_fast_path(self.cfg.fast_path);
        let (profile, groups) = {
            let _s = hmpt_obs::span("job.profile");
            let profile = driver.profile(&job.spec)?;
            let groups = group(&job.spec, &profile.stats, &self.cfg.grouping);
            (profile, groups)
        };

        // Plan once per job: fingerprints (machine, spec, noise, per-
        // config placement plans) are memoized on the plan and shared by
        // the campaign cells and every online probe.
        let plan = {
            let _s = hmpt_obs::span("job.plan");
            CampaignPlan::new(&job.machine, &job.spec, &groups, job.campaign)?
                .with_policy(job.rep_policy.unwrap_or(self.cfg.rep_policy))
                .with_fast_path(self.cfg.fast_path)
        };
        let exec = self.exec_stack(executor);
        let campaign = {
            let _s = hmpt_obs::span("job.campaign");
            plan.execute(&*exec)?
        };

        let online = if self.cfg.online_check {
            let _s = hmpt_obs::span("job.online");
            let ocfg = OnlineConfig { campaign: job.campaign, executor, ..OnlineConfig::default() };
            Some(online::tune_plan(&plan, &ocfg, &*exec)?)
        } else {
            None
        };
        drop(plan);

        let analysis = {
            let _s = hmpt_obs::span("job.assemble");
            driver.assemble(&job.spec, profile, groups, campaign)
        };
        Ok(JobReport {
            analysis,
            online,
            cache: self.cache.stats().since(&before),
            wall_s: t0.elapsed().as_secs_f64(),
        })
    }

    /// The one fan-out of a run of `jobs` jobs: the job pool and the
    /// executor of each job's cells. Jobs that run at once run their
    /// cells serially, so no cell pool nests under the job pool; a lone
    /// job (one job, or `job_workers` 1) runs its cells on
    /// [`FleetConfig::executor`].
    pub(crate) fn pool(&self, jobs: usize) -> (ExecutorKind, ExecutorKind) {
        let workers = match self.cfg.job_workers {
            0 => available_workers(),
            n => n,
        };
        match workers.min(jobs) {
            0 | 1 => (ExecutorKind::Serial, self.cfg.executor),
            workers => (ExecutorKind::Parallel { workers }, ExecutorKind::Serial),
        }
    }

    /// Publish the shared cache's residency as the `cache.entries`
    /// gauge. Only a cache-consulting run does: a cache-off pass (a
    /// bit-identity verify re-run) observed nothing and must not zero
    /// the real cache's reading.
    pub(crate) fn observe_cache(&self) {
        if self.cfg.cache_enabled {
            hmpt_obs::gauge("cache.entries").set(self.cache.len() as u64);
        }
    }

    /// Run a batch: every job in one pass over one job pool (sized by
    /// [`FleetConfig::job_workers`]), reports in job-index order. With
    /// one worker the jobs run in order, each on
    /// [`FleetConfig::executor`]. Every result is bit-identical to
    /// sequential execution — cells are seed-deterministic and a racing
    /// cache insert stores the identical outcome. On an error, the
    /// first failing job in index order wins. A configured snapshot is
    /// saved when the batch ends ([`Self::persist`]).
    pub fn run(&self, jobs: &[TuningJob]) -> Result<FleetReport, TunerError> {
        let _batch_span = hmpt_obs::span("fleet.batch");
        let t0 = Instant::now();
        let before = self.cache.stats();
        let (pool, cells) = self.pool(jobs.len());
        let reports = pool
            .run(jobs.len(), |i| self.run_job_with(&jobs[i], cells))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        // Save-on-finish. Failure to persist degrades the *next* run to
        // a colder start; it does not invalidate this one, so report it
        // without failing the batch.
        if let Err(e) = self.persist() {
            hmpt_obs::warn("fleet.cache", format!("hmpt-fleet: cache snapshot not saved: {e}"));
        }
        self.observe_cache();
        let wall_s = t0.elapsed().as_secs_f64();
        let cache = self.cache.stats().since(&before);
        let planned: u64 = reports.iter().map(|r| r.analysis.campaign.planned_runs as u64).sum();
        let executed: u64 = reports.iter().map(|r| r.analysis.campaign.executed_runs as u64).sum();
        let cells = cache.hits + cache.misses;
        Ok(FleetReport {
            reports,
            stats: FleetStats {
                jobs: jobs.len(),
                cache,
                planned_cells: planned,
                executed_cells: executed,
                cells_skipped: planned.saturating_sub(executed),
                wall_s,
                cells_per_s: if wall_s > 0.0 { cells as f64 / wall_s } else { 0.0 },
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mg_job() -> TuningJob {
        TuningJob::new(hmpt_workloads::npb::mg::workload())
    }

    #[test]
    fn fleet_analysis_matches_plain_driver_bitwise() {
        let fleet = Fleet::new(FleetConfig::default());
        let report = fleet.run_job(&mg_job()).unwrap();
        let plain =
            Driver::new(xeon_max_9468()).analyze(&hmpt_workloads::npb::mg::workload()).unwrap();
        assert_eq!(
            report.analysis.table2.max_speedup.to_bits(),
            plain.table2.max_speedup.to_bits()
        );
        assert_eq!(
            report.analysis.table2.usage_90_pct.to_bits(),
            plain.table2.usage_90_pct.to_bits()
        );
        for (a, b) in report.analysis.campaign.measurements.iter().zip(&plain.campaign.measurements)
        {
            assert_eq!(a.mean_s.to_bits(), b.mean_s.to_bits());
        }
    }

    #[test]
    fn online_check_hits_the_warmed_cache() {
        let fleet = Fleet::new(FleetConfig::default());
        let report = fleet.run_job(&mg_job()).unwrap();
        let online = report.online.expect("online check on by default");
        // Online probes revisit campaign cells → answered from cache.
        assert!(report.cache.hits > 0, "stats: {:?}", report.cache);
        // And agree with the exhaustive result.
        assert!(online.speedup > 0.97 * report.analysis.table2.max_speedup);
        // Misses == the exhaustive campaign's simulated cells.
        assert_eq!(report.cache.misses as usize, report.analysis.campaign.total_runs());
    }

    #[test]
    fn repeated_job_is_answered_entirely_from_cache() {
        let fleet = Fleet::new(FleetConfig::default());
        let first = fleet.run_job(&mg_job()).unwrap();
        let second = fleet.run_job(&mg_job()).unwrap();
        assert_eq!(second.cache.misses, 0, "every cell cached: {:?}", second.cache);
        assert_eq!(
            first.analysis.table2.max_speedup.to_bits(),
            second.analysis.table2.max_speedup.to_bits()
        );
    }

    #[test]
    fn disabling_the_cache_re_simulates_identically() {
        let fleet = Fleet::new(FleetConfig { cache_enabled: false, ..Default::default() });
        let first = fleet.run_job(&mg_job()).unwrap();
        let second = fleet.run_job(&mg_job()).unwrap();
        // No cache traffic at all, yet bit-identical results.
        assert_eq!(first.cache, CacheStats::default());
        assert_eq!(second.cache, CacheStats::default());
        assert!(fleet.cache().is_empty());
        assert_eq!(
            first.analysis.table2.max_speedup.to_bits(),
            second.analysis.table2.max_speedup.to_bits()
        );
    }

    #[test]
    fn adaptive_fleet_skips_cells_and_reports_them() {
        let fixed = Fleet::new(FleetConfig { online_check: false, ..Default::default() });
        let adaptive = Fleet::new(FleetConfig {
            online_check: false,
            rep_policy: RepPolicy::confidence(0.02, 3),
            ..Default::default()
        });
        let jobs = vec![mg_job(), TuningJob::new(hmpt_workloads::npb::is::workload())];
        let f = fixed.run(&jobs).unwrap();
        let a = adaptive.run(&jobs).unwrap();
        assert_eq!(f.stats.cells_skipped, 0);
        assert!(a.stats.cells_skipped > 0, "stats: {:?}", a.stats);
        assert!(a.stats.executed_cells < f.stats.executed_cells);
        assert_eq!(a.stats.planned_cells, f.stats.planned_cells);
        // Early stopping keeps the Table II triple within the band.
        for (fr, ar) in f.reports.iter().zip(&a.reports) {
            assert!((fr.analysis.table2.max_speedup - ar.analysis.table2.max_speedup).abs() < 0.05);
        }
    }

    #[test]
    fn different_machines_do_not_share_cells() {
        use hmpt_sim::machine::MachineBuilder;
        let fleet = Fleet::new(FleetConfig { online_check: false, ..Default::default() });
        let a = fleet.run_job(&mg_job()).unwrap();
        let slower = MachineBuilder::xeon_max().with_hbm_bw_factor(0.5).build();
        let b = fleet.run_job(&mg_job().with_machine(slower)).unwrap();
        assert_eq!(a.cache.hits, 0);
        assert_eq!(b.cache.hits, 0, "different machine must re-measure");
        assert!(b.analysis.table2.max_speedup < a.analysis.table2.max_speedup);
    }

    #[test]
    fn parallel_jobs_are_bit_identical_and_stream_in_order() {
        let jobs = vec![
            mg_job(),
            TuningJob::new(hmpt_workloads::npb::is::workload()),
            TuningJob::new(hmpt_workloads::npb::sp::workload()),
        ];
        let sequential = Fleet::new(FleetConfig { online_check: false, ..Default::default() });
        let parallel =
            Fleet::new(FleetConfig { online_check: false, job_workers: 4, ..Default::default() });
        let s = sequential.run(&jobs).unwrap();
        let p = parallel.run(&jobs).unwrap();
        let seen: Vec<_> = p.reports.iter().map(|r| r.analysis.workload.clone()).collect();
        assert_eq!(seen, ["mg.D", "is.Cx4", "sp.D"], "reports must arrive in job-index order");
        for (a, b) in s.reports.iter().zip(&p.reports) {
            assert_eq!(
                a.analysis.table2.max_speedup.to_bits(),
                b.analysis.table2.max_speedup.to_bits()
            );
            assert_eq!(
                a.analysis.table2.usage_90_pct.to_bits(),
                b.analysis.table2.usage_90_pct.to_bits()
            );
            for (x, y) in
                a.analysis.campaign.measurements.iter().zip(&b.analysis.campaign.measurements)
            {
                assert_eq!(x.mean_s.to_bits(), y.mean_s.to_bits());
            }
        }
        assert_eq!(s.stats.planned_cells, p.stats.planned_cells);
        assert_eq!(s.stats.executed_cells, p.stats.executed_cells);
    }

    #[test]
    fn per_job_rep_policy_overrides_the_fleet_default() {
        let fleet = Fleet::new(FleetConfig { online_check: false, ..Default::default() });
        let fixed = fleet.run_job(&mg_job()).unwrap();
        assert_eq!(fixed.cells_skipped(), 0);
        let adaptive =
            fleet.run_job(&mg_job().with_rep_policy(RepPolicy::confidence(0.02, 3))).unwrap();
        assert!(adaptive.cells_skipped() > 0, "override must reach the plan");
        assert_eq!(adaptive.analysis.campaign.planned_runs, fixed.analysis.campaign.planned_runs);
    }

    #[test]
    fn fleets_can_share_one_cache() {
        let cache = Arc::new(MeasurementCache::new());
        let a = Fleet::with_cache(
            FleetConfig { online_check: false, ..Default::default() },
            Arc::clone(&cache),
        );
        let b = Fleet::with_cache(
            FleetConfig { online_check: false, ..Default::default() },
            Arc::clone(&cache),
        );
        let first = a.run_job(&mg_job()).unwrap();
        let second = b.run_job(&mg_job()).unwrap();
        assert!(first.cache.misses > 0);
        assert_eq!(second.cache.misses, 0, "second fleet rides the first one's cells");
        assert_eq!(
            first.analysis.table2.max_speedup.to_bits(),
            second.analysis.table2.max_speedup.to_bits()
        );
    }

    #[test]
    fn cache_path_snapshot_warm_starts_a_new_fleet() {
        let path =
            std::env::temp_dir().join(format!("hmpt-fleet-cache-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let cfg = FleetConfig {
            online_check: false,
            cache_path: Some(path.clone()),
            ..Default::default()
        };
        let cold_fleet = Fleet::new(cfg.clone());
        assert_eq!(cold_fleet.preloaded(), 0, "no snapshot yet");
        let cold = cold_fleet.run(&[mg_job()]).unwrap();
        assert!(cold.stats.cache.misses > 0);
        assert!(path.exists(), "save-on-finish wrote the snapshot");

        // A brand-new fleet (fresh process, as far as the cache is
        // concerned) answers the same batch with zero simulated runs.
        let warm_fleet = Fleet::new(cfg);
        assert_eq!(warm_fleet.preloaded(), cold_fleet.cache().len() as u64);
        let warm = warm_fleet.run(&[mg_job()]).unwrap();
        assert_eq!(warm.stats.cache.misses, 0, "zero new cells: {:?}", warm.stats.cache);
        assert_eq!(
            cold.reports[0].analysis.table2.max_speedup.to_bits(),
            warm.reports[0].analysis.table2.max_speedup.to_bits()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cache_max_records_bounds_the_saved_snapshot() {
        let path =
            std::env::temp_dir().join(format!("hmpt-fleet-capped-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let fleet = Fleet::new(FleetConfig {
            online_check: false,
            cache_path: Some(path.clone()),
            cache_max_records: Some(5),
            ..Default::default()
        });
        let report = fleet.run(&[mg_job()]).unwrap();
        assert!(report.stats.cache.misses > 5, "the campaign outgrows the cap");
        let (_, load) = store::load(&path).unwrap();
        assert_eq!(load.loaded, 5, "save-on-finish swept the cache to the cap");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn disabled_cache_never_touches_the_snapshot_path() {
        let path =
            std::env::temp_dir().join(format!("hmpt-fleet-nocache-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let fleet = Fleet::new(FleetConfig {
            online_check: false,
            cache_enabled: false,
            cache_path: Some(path.clone()),
            ..Default::default()
        });
        fleet.run(&[mg_job()]).unwrap();
        assert!(!path.exists(), "an empty cache must not clobber a snapshot");
        assert!(fleet.persist().unwrap().is_none());
    }

    #[test]
    fn batch_streams_in_order_and_counts_stats() {
        let fleet = Fleet::new(FleetConfig::default());
        let jobs = vec![mg_job(), TuningJob::new(hmpt_workloads::npb::is::workload()), mg_job()];
        let report = fleet.run(&jobs).unwrap();
        let seen: Vec<_> = report.reports.iter().map(|r| r.analysis.workload.clone()).collect();
        assert_eq!(seen, ["mg.D", "is.Cx4", "mg.D"]);
        assert_eq!(report.stats.jobs, 3);
        // The duplicated mg job dedups against the first one.
        assert_eq!(report.reports[2].cache.misses, 0);
        assert!(report.stats.cache.hit_rate() > 0.0);
        assert!(report.stats.cells_per_s > 0.0);
        assert_eq!(
            report.stats.executed_cells,
            report.reports.iter().map(|r| r.analysis.campaign.executed_runs as u64).sum::<u64>()
        );
    }
}
