//! The fleet front end: batches of tuning jobs over a shared pool and
//! cache.
//!
//! A run fans out once, over jobs: [`FleetConfig::pool`] sizes one job
//! pool for all of a run's jobs — a batch's jobs, or a matrix's
//! campaign groups; one worker per CPU by default — and [`Fleet::run`]
//! (like the matrix path) runs them in a single `ExecutorKind::run`
//! pass. Jobs that run at once run their cells serially; a lone job
//! runs them on [`FleetConfig::executor`] (serial by default).
//!
//! Each job runs the full Fig 6 pipeline (profile → group → measure →
//! analyze). Unless caching is disabled, the profile comes from the
//! shared cache's profile memo when an earlier job profiled the same
//! machine × workload under the same profiling seed
//! ([`MeasurementCache::profile_or_run`]). The measurement campaign is
//! planned as a [`CampaignPlan`] — cells enumerated lazily, fingerprints
//! memoized once per job — and streamed through the job's cell
//! executor, wrapped in a [`hmpt_core::exec::CachingExecutor`] over the
//! shared [`MeasurementCache`] unless caching is disabled. An optional
//! per-job *online verification pass* replays the paper's incremental
//! tuner through the same plan and cache — its probes revisit
//! configurations the exhaustive campaign just measured (same derived
//! seeds), so a warmed cache answers them without new simulated runs
//! while proving exhaustive and online tuning agree.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use hmpt_core::campaign::{CampaignPlan, RepPolicy};
use hmpt_core::driver::{Analysis, Driver};
use hmpt_core::error::TunerError;
use hmpt_core::exec::{available_workers, CachingExecutor, CellExecutor, ExecutorKind};
use hmpt_core::grouping::{group, GroupingConfig};
use hmpt_core::measure::CampaignConfig;
use hmpt_core::online::{self, OnlineConfig, OnlineResult};
use hmpt_core::store::{CacheFile, SaveReport, StoreError};
use hmpt_sim::machine::{xeon_max_9468, Machine};
use hmpt_workloads::model::WorkloadSpec;

use crate::cache::{CacheStats, MeasurementCache};

/// Fleet-wide settings.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// How a lone job's campaign cells are executed (default: serial).
    /// Used only while one job runs at a time — a one-job run, or
    /// `job_workers` 1; concurrent jobs run their cells serially.
    pub executor: ExecutorKind,
    /// How many repetitions each configuration gets (default: the
    /// campaign's fixed `n`; [`RepPolicy::ConfidenceTarget`] stops
    /// configurations early once their mean is known tightly enough).
    pub rep_policy: RepPolicy,
    pub grouping: GroupingConfig,
    /// Run the online tuner through the warmed cache after each job's
    /// exhaustive campaign (verifies agreement; free on cache hits).
    /// Probes measure at the campaign's nominal `runs_per_config`, so
    /// under an adaptive `rep_policy` they simulate the repetitions
    /// early stopping skipped for the configurations the hill-climb
    /// visits (a fraction of the space; those cells then stay cached) —
    /// disable the check to keep the full early-stop saving.
    pub online_check: bool,
    /// Consult the shared content-addressed cache per cell and its
    /// profile memo per job (`false` re-profiles and re-simulates
    /// everything — the bit-identity verify re-run, timing baselines).
    pub cache_enabled: bool,
    /// How many *jobs* run concurrently: `0` (the default) is one per
    /// available CPU, resolved at run time ([`Self::pool`]); `1` runs
    /// jobs one at a time, each on [`Self::executor`]. Above one, all of
    /// a run's jobs share one pool and run their cells serially, so a
    /// run never nests a cell pool under the job pool. Reports are
    /// always delivered in job-index order, results are bit-identical to
    /// sequential execution, and each job's cache counts are its own
    /// lookups at any width. Which job pays the miss for a cell that
    /// two concurrent jobs share depends on their timing.
    pub job_workers: usize,
    /// On-disk cache snapshot, owned by a [`CacheFile`]: loaded into
    /// the shared cache when the fleet is built (a missing or unusable
    /// snapshot is a cold start, not an error) and brought up to date
    /// when a run that changed the cache ends — its new cells appended,
    /// or the file rewritten sorted — so fleet runs warm-start across
    /// process restarts. Ignored while `cache_enabled` is off (an empty
    /// cache must not clobber a good snapshot).
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
            executor: ExecutorKind::Serial,
            rep_policy: RepPolicy::Fixed,
            grouping: GroupingConfig::default(),
            online_check: true,
            cache_enabled: true,
            job_workers: 0,
            cache_path: None,
            cache_max_records: None,
            fast_path: true,
        }
    }
}

impl FleetConfig {
    /// The one fan-out of a run of `jobs` jobs: the job pool and the
    /// executor of each job's cells. The pool is `job_workers` wide (0
    /// = one per available CPU), capped at `jobs`. Jobs that run at
    /// once run their cells serially, so no cell pool nests under the
    /// job pool; a lone job (one job, or `job_workers` 1) runs its cells
    /// on [`Self::executor`].
    pub fn pool(&self, jobs: usize) -> (ExecutorKind, ExecutorKind) {
        let workers = match self.job_workers {
            0 => available_workers(),
            n => n,
        };
        match workers.min(jobs) {
            0 | 1 => (ExecutorKind::Serial, self.executor),
            workers => (ExecutorKind::Parallel { workers }, ExecutorKind::Serial),
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
    /// This job's own cache lookups: its hits and misses, and as
    /// `entries` the cells it added.
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
    /// The snapshot at [`FleetConfig::cache_path`], while caching is on.
    file: Option<CacheFile>,
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
        let (file, load) = match cfg.cache_path.as_ref() {
            Some(path) if cfg.cache_enabled => {
                let (file, load) =
                    CacheFile::open(path, &cache, "fleet.cache", "hmpt-fleet: cache snapshot");
                (Some(file), load)
            }
            _ => (None, None),
        };
        Fleet { cfg, cache, preloaded: load.map_or(0, |r| r.loaded), file }
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

    /// Bring the snapshot at [`FleetConfig::cache_path`] up to date
    /// with the shared cache, swept to [`FleetConfig::cache_max_records`]
    /// first ([`CacheFile::persist`]). `Ok(None)` when no path is
    /// configured, caching is off, or the file already holds the cache.
    /// [`Self::run`] calls this when a batch ends — save-on-finish — and
    /// the matrix path (`api::execute`) after a checked matrix run.
    pub fn persist(&self) -> Result<Option<SaveReport>, StoreError> {
        match &self.file {
            Some(file) => file.persist(&self.cache, self.cfg.cache_max_records),
            None => Ok(None),
        }
    }

    /// Run one job through the shared pool and cache.
    pub fn run_job(&self, job: &TuningJob) -> Result<JobReport, TunerError> {
        self.run_job_with(job, self.cfg.executor)
    }

    /// [`Self::run_job`] with an explicit cell-level executor — the one
    /// [`FleetConfig::pool`] picks for the run.
    pub(crate) fn run_job_with(
        &self,
        job: &TuningJob,
        executor: ExecutorKind,
    ) -> Result<JobReport, TunerError> {
        let _job_span = hmpt_obs::span_with("fleet.job", || {
            job.label.clone().unwrap_or_else(|| job.spec.name.clone())
        });
        let t0 = Instant::now();

        let driver = Driver::new(job.machine.clone())
            .with_grouping(self.cfg.grouping)
            .with_campaign(job.campaign)
            .with_executor(executor)
            .with_fast_path(self.cfg.fast_path);
        // The job's machine and spec fingerprints, taken once: they key
        // its profile in the memo and are the first two words of every
        // cell key.
        let fingerprints = (job.machine.fingerprint(), job.spec.fingerprint());
        let (profile, groups) = {
            let _s = hmpt_obs::span("job.profile");
            let profile = if self.cfg.cache_enabled {
                let key = (fingerprints.0, fingerprints.1, driver.profile_config().fingerprint());
                self.cache.profile_or_run(key, || driver.profile(&job.spec))?
            } else {
                driver.profile(&job.spec)?
            };
            let groups = group(&job.spec, &profile.stats, &self.cfg.grouping);
            (profile, groups)
        };

        // Plan once per job: fingerprints (machine, spec, noise, per-
        // config placement plans) are memoized on the plan and shared by
        // the campaign cells and every online probe.
        let plan = {
            let _s = hmpt_obs::span("job.plan");
            CampaignPlan::with_fingerprints(
                &job.machine,
                &job.spec,
                &groups,
                job.campaign,
                fingerprints,
            )?
            .with_policy(job.rep_policy.unwrap_or(self.cfg.rep_policy))
            .with_fast_path(self.cfg.fast_path)
        };
        // The job's own caching layer over the shared cache: it counts
        // this job's lookups, whatever other jobs run beside it.
        let cached =
            self.cfg.cache_enabled.then(|| CachingExecutor::new(executor, Arc::clone(&self.cache)));
        let exec: &dyn CellExecutor = match &cached {
            Some(cached) => cached,
            None => &executor,
        };
        let campaign = {
            let _s = hmpt_obs::span("job.campaign");
            plan.execute(exec)?
        };

        let online = if self.cfg.online_check {
            let _s = hmpt_obs::span("job.online");
            let ocfg = OnlineConfig { campaign: job.campaign, executor, ..OnlineConfig::default() };
            Some(online::tune_plan(&plan, &ocfg, exec)?)
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
            cache: cached.as_ref().map_or_else(CacheStats::default, CachingExecutor::stats),
            wall_s: t0.elapsed().as_secs_f64(),
        })
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

    /// Run a batch: every job in one pass over one job pool
    /// ([`FleetConfig::pool`]), reports in job-index order. With one
    /// worker the jobs run in order, each on [`FleetConfig::executor`].
    /// Every result is bit-identical to sequential execution — cells
    /// are seed-deterministic and a racing cache insert stores the
    /// identical outcome. On an error, the
    /// first failing job in index order wins. A configured snapshot is
    /// saved when the batch ends ([`Self::persist`]).
    pub fn run(&self, jobs: &[TuningJob]) -> Result<FleetReport, TunerError> {
        let _batch_span = hmpt_obs::span("fleet.batch");
        let t0 = Instant::now();
        let before = self.cache.stats();
        let (pool, cells) = self.cfg.pool(jobs.len());
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
        let sequential =
            Fleet::new(FleetConfig { online_check: false, job_workers: 1, ..Default::default() });
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
        let (_, load) = hmpt_core::store::load(&path).unwrap();
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
        // One job at a time, so the duplicated job reuses the first
        // one's cells instead of racing it.
        let fleet = Fleet::new(FleetConfig { job_workers: 1, ..FleetConfig::default() });
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
