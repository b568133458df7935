//! Scenario-matrix execution: the bridge between the lazy
//! [`ScenarioMatrix`] IR and the fleet's executor/cache stack.
//!
//! The unit of work is the *campaign group*
//! ([`ScenarioMatrix::campaigns`]): consecutive scenarios that differ
//! only in HBM budget, the matrix's innermost axis. [`run_matrix`]
//! turns each group into one [`TuningJob`] — the group's zoo entry
//! built into a validated machine, its noise level and repetition
//! policy applied — runs all of a range's jobs in one pass over the
//! [`Fleet`]'s job pool and one shared [`MeasurementCache`] (the matrix
//! is never materialized), and builds every budget's row from its
//! job's single analysis, on the worker that ran the job. A budget only
//! changes which measured configuration `plan_exhaustive` picks, so
//! each campaign is profiled, planned and measured once, however many
//! budget rows read it.
//!
//! Execution strategy — serial or parallel cells, sequential or
//! concurrent jobs, cache on or off — never changes a row's bits
//! (property-tested in `tests/scenario_properties.rs`). A spec's
//! `verify` re-checks one strategy at runtime: `api::run_checked`, the
//! matrix path of `hmpt-fleet run`, a `--shard` and the daemon alike,
//! compares the rows with one serial, uncached re-run.
//!
//! The same machinery executes a *shard*: [`run_matrix_sharded`] runs
//! one index range of the matrix (see [`ScenarioMatrix::shard`]) and
//! emits a [`ShardReport`]; a campaign group split by the shard
//! boundary runs once in each shard. `MatrixReport::merge` reassembles
//! a partition's shard reports into the full report, bit-identical to
//! an unsharded [`run_matrix`]. Combined with an on-disk cache snapshot
//! (`hmpt_core::store`), this turns a matrix into a distributable
//! campaign: N processes, N shard files, one merge.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use hmpt_core::driver::PROFILE_SEED;
use hmpt_core::error::TunerError;
use hmpt_core::exec::ExecutorKind;
use hmpt_core::grouping::GroupingConfig;
use hmpt_core::scenario::{
    MatrixReport, MatrixStats, ScenarioMatrix, ScenarioRow, ShardReport, ShardSpec,
};
use hmpt_sim::fingerprint::Fingerprint;

use crate::cache::MeasurementCache;
use crate::service::{Fleet, FleetConfig, TuningJob};

/// How a scenario matrix is executed.
#[derive(Debug, Clone, Copy)]
pub struct MatrixConfig {
    /// Cell-level executor of each campaign while one campaign group
    /// runs at a time (default: serial); concurrent groups run their
    /// cells serially.
    pub executor: ExecutorKind,
    /// Concurrent campaign groups (default `0` = one per available CPU,
    /// resolved at run time; `1` = sequential).
    pub job_workers: usize,
    /// Consult the shared content-addressed cache per cell.
    pub cache_enabled: bool,
    pub grouping: GroupingConfig,
    /// Evaluate campaign cells through the batched cold-path kernel
    /// (default true; bit-identical by contract, so — like the executor
    /// choice — deliberately excluded from [`Self::bits_fingerprint`]).
    pub fast_path: bool,
}

/// The fleet's defaults: one campaign group per CPU at a time, each
/// group's cells serially, cached.
impl Default for MatrixConfig {
    fn default() -> Self {
        let fleet = FleetConfig::default();
        MatrixConfig {
            executor: fleet.executor,
            job_workers: fleet.job_workers,
            cache_enabled: fleet.cache_enabled,
            grouping: fleet.grouping,
            fast_path: fleet.fast_path,
        }
    }
}

impl MatrixConfig {
    /// Content fingerprint of the execution settings that determine row
    /// *bits*: the grouping parameters, combined with the constant
    /// [`PROFILE_SEED`] (still folded in, so pinned fingerprints stay
    /// put). Executor choice, job workers and caching are deliberately
    /// excluded — bit-identity across those is the subsystem's core
    /// invariant, so they may legitimately differ between shards.
    pub fn bits_fingerprint(&self) -> Fingerprint {
        Fingerprint::of(&self.grouping).combine(PROFILE_SEED)
    }

    /// The fingerprint of running `matrix` under these settings: the
    /// matrix axes combined with [`Self::bits_fingerprint`]. Every
    /// [`ShardReport::matrix_fingerprint`] stamps it, and
    /// `CampaignSpec::fingerprint` of a matrix-mode spec is it — which
    /// is what lets a spec file act as the merge-validation artifact CI
    /// passes between shard jobs, and the daemon check a job against
    /// its admission.
    pub fn matrix_fingerprint(&self, matrix: &ScenarioMatrix) -> Fingerprint {
        matrix.fingerprint().combine(self.bits_fingerprint().raw())
    }

    /// The fleet settings a matrix runs under: these, with the online
    /// check off (a matrix row reads the exhaustive campaign only).
    pub fn fleet_config(&self) -> FleetConfig {
        FleetConfig {
            executor: self.executor,
            grouping: self.grouping,
            online_check: false,
            cache_enabled: self.cache_enabled,
            job_workers: self.job_workers,
            fast_path: self.fast_path,
            ..FleetConfig::default()
        }
    }
}

/// Execute a scenario matrix over a fresh shared cache.
pub fn run_matrix(matrix: &ScenarioMatrix, cfg: &MatrixConfig) -> Result<MatrixReport, TunerError> {
    run_matrix_with_cache(matrix, cfg, Arc::new(MeasurementCache::new()))
}

/// Execute a scenario matrix over an existing cache (warm-start: a
/// matrix sharing machines with an earlier run answers those campaigns
/// without new simulated runs).
pub fn run_matrix_with_cache(
    matrix: &ScenarioMatrix,
    cfg: &MatrixConfig,
    cache: Arc<MeasurementCache>,
) -> Result<MatrixReport, TunerError> {
    let fleet = Fleet::with_cache(cfg.fleet_config(), cache);
    let (rows, stats) = run_range(&fleet, matrix, 0..matrix.len())?;
    Ok(MatrixReport::assemble(rows, stats))
}

/// Execute one shard of a matrix (see [`ScenarioMatrix::shard`]) over
/// an existing cache, producing the [`ShardReport`] that
/// `MatrixReport::merge` reassembles. Rows are bit-identical to the
/// same scenarios' rows in an unsharded run — a scenario's result
/// depends only on its own campaign, never on which process decoded
/// its index.
///
/// The report's `matrix_fingerprint` combines the matrix-axes
/// fingerprint with the execution settings that determine row bits
/// (profiling seed, grouping), so shards run under inconsistent
/// configurations refuse to merge.
pub fn run_matrix_sharded(
    matrix: &ScenarioMatrix,
    cfg: &MatrixConfig,
    shard: ShardSpec,
    cache: Arc<MeasurementCache>,
) -> Result<ShardReport, TunerError> {
    let fleet = Fleet::with_cache(cfg.fleet_config(), cache);
    let (rows, stats) = run_range(&fleet, matrix, shard.range())?;
    Ok(ShardReport {
        shard: shard.shard,
        total_shards: shard.total,
        matrix_fingerprint: cfg.matrix_fingerprint(matrix).to_string(),
        rows,
        stats,
    })
}

/// The range runner behind every matrix entry point: run each campaign
/// group of `range` as one job on `fleet`, all groups in one pass over
/// `Fleet::pool`, and build one row per scenario from its group's
/// analysis on the worker that ran the group — so no more analyses are
/// alive at once than there are workers.
pub(crate) fn run_range(
    fleet: &Fleet,
    matrix: &ScenarioMatrix,
    range: Range<usize>,
) -> Result<(Vec<ScenarioRow>, MatrixStats), TunerError> {
    assert!(range.end <= matrix.len(), "range {range:?} exceeds matrix len {}", matrix.len());
    let _range_span =
        hmpt_obs::span_with("matrix.range", || format!("{}..{}", range.start, range.end));
    let t0 = Instant::now();
    let before = fleet.cache().stats();
    let groups: Vec<Range<usize>> = matrix.campaigns(range.clone()).collect();
    let (pool, cells) = fleet.config().pool(groups.len());
    let group_rows = pool.run(groups.len(), |g| -> Result<Vec<ScenarioRow>, TunerError> {
        let group = groups[g].clone();
        let s = matrix.scenario(group.start);
        let job = TuningJob::new(s.workload.clone())
            .with_machine(s.build_machine()?)
            .with_campaign(s.campaign)
            .with_rep_policy(s.rep_policy)
            // Per-campaign telemetry label: the `fleet.job` span of
            // scenarios 3, 4 and 5 reads "#3..6 machine·workload".
            .with_label(format!("#{group:?} {}·{}", s.entry.name, s.workload.name));
        let analysis = fleet.run_job_with(&job, cells)?.analysis;
        Ok(group
            .map(|i| ScenarioRow::build(&matrix.scenario(i), &job.machine, &analysis))
            .collect())
    });
    let mut rows: Vec<ScenarioRow> = Vec::with_capacity(range.len());
    for group in group_rows {
        rows.extend(group?);
    }
    fleet.observe_cache();

    let wall_s = t0.elapsed().as_secs_f64();
    let stats = MatrixStats {
        scenarios: rows.len(),
        planned_cells: rows.iter().map(|r| r.planned_cells as u64).sum(),
        executed_cells: rows.iter().map(|r| r.executed_cells as u64).sum(),
        cache: fleet.cache().stats().since(&before),
        wall_s,
        scenarios_per_s: if wall_s > 0.0 { rows.len() as f64 / wall_s } else { 0.0 },
    };
    Ok((rows, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmpt_core::campaign::RepPolicy;
    use hmpt_core::measure::CampaignConfig;
    use hmpt_sim::units::gib;
    use hmpt_sim::zoo::Zoo;

    fn tiny_matrix() -> ScenarioMatrix {
        let zoo = Zoo::parse("xeon-max,hbm-flat").unwrap();
        ScenarioMatrix::new(zoo, vec![hmpt_workloads::npb::mg::workload()])
            .with_budgets(vec![None, Some(gib(16))])
    }

    #[test]
    fn budget_rows_read_one_campaign_consulted_once() {
        let matrix = tiny_matrix();
        let report = run_matrix(&matrix, &MatrixConfig::default()).unwrap();
        assert_eq!(report.scenarios.len(), 4);
        // Each machine's campaign is measured once for both budget
        // rows: no cell is looked up twice, yet every row counts the
        // whole campaign.
        let cache = report.stats.cache;
        assert_eq!(cache.hits, 0, "stats: {cache:?}");
        assert_eq!(cache.misses * matrix.budgets().len() as u64, report.stats.executed_cells);
        assert_eq!(cache.entries, cache.misses);
        assert!(report.capacity_ok());
        // Budgeted rows respect their budget.
        let budgeted: Vec<_> =
            report.scenarios.iter().filter(|r| r.budget_bytes.is_some()).collect();
        assert_eq!(budgeted.len(), 2);
        for row in budgeted {
            assert!(row.budgeted.hbm_bytes <= gib(16));
            assert!(row.budgeted.slowdown_vs_best >= 1.0);
        }
    }

    #[test]
    fn execution_strategy_never_changes_row_bits() {
        let matrix = tiny_matrix();
        // The baseline also forces the naive per-cell kernel, so this
        // doubles as a fleet-level check of the fast path's bit-identity.
        let serial = run_matrix(
            &matrix,
            &MatrixConfig {
                executor: ExecutorKind::Serial,
                job_workers: 1,
                cache_enabled: false,
                fast_path: false,
                ..MatrixConfig::default()
            },
        )
        .unwrap();
        let parallel = run_matrix(
            &matrix,
            &MatrixConfig { job_workers: 4, cache_enabled: false, ..MatrixConfig::default() },
        )
        .unwrap();
        let cached =
            run_matrix(&matrix, &MatrixConfig { job_workers: 4, ..MatrixConfig::default() })
                .unwrap();
        assert!(serial.bit_identical(&parallel), "parallel diverged");
        assert!(serial.bit_identical(&cached), "cached diverged");
        assert_eq!(serial.stats.cache.hits + serial.stats.cache.misses, 0, "cache was off");
    }

    #[test]
    fn warm_cache_answers_a_whole_matrix() {
        let matrix = tiny_matrix();
        let cfg = MatrixConfig::default();
        let cache = Arc::new(MeasurementCache::new());
        let cold = run_matrix_with_cache(&matrix, &cfg, Arc::clone(&cache)).unwrap();
        let warm = run_matrix_with_cache(&matrix, &cfg, Arc::clone(&cache)).unwrap();
        assert!(cold.bit_identical(&warm));
        assert_eq!(warm.stats.cache.misses, 0, "everything cached: {:?}", warm.stats.cache);
    }

    #[test]
    fn cross_machine_views_cover_the_zoo() {
        let report = run_matrix(&tiny_matrix(), &MatrixConfig::default()).unwrap();
        assert_eq!(report.bw_curves.len(), 1, "one curve per workload");
        assert_eq!(report.bw_curves[0].points.len(), 2, "one point per machine");
        assert_eq!(report.frontiers.len(), 2, "one frontier per (machine, workload)");
        for frontier in &report.frontiers {
            assert_eq!(frontier.points.len(), 2, "one point per budget");
        }
        assert_eq!(report.resident_groups.len(), 1);
        assert!(
            !report.resident_groups[0].groups.is_empty(),
            "mg's hot groups stay resident on both machines"
        );
    }

    #[test]
    fn rep_policy_axis_changes_cost_not_correctness() {
        let zoo = Zoo::parse("xeon-max").unwrap();
        let matrix = ScenarioMatrix::new(zoo, vec![hmpt_workloads::npb::mg::workload()])
            .with_rep_policies(vec![RepPolicy::Fixed, RepPolicy::confidence(0.02, 3)])
            .with_campaign(CampaignConfig::default());
        let report = run_matrix(&matrix, &MatrixConfig::default()).unwrap();
        assert_eq!(report.scenarios.len(), 2);
        let fixed = &report.scenarios[0];
        let adaptive = &report.scenarios[1];
        assert_eq!(fixed.planned_cells, adaptive.planned_cells);
        assert!(adaptive.executed_cells < fixed.executed_cells);
        assert!((fixed.max_speedup - adaptive.max_speedup).abs() < 0.05);
    }

    #[test]
    fn sharded_run_merges_bit_identical_to_unsharded() {
        let matrix = tiny_matrix();
        let cfg = MatrixConfig::default();
        let full = run_matrix(&matrix, &cfg).unwrap();
        for total in [1, 2, 3, 4] {
            // Each shard in its own fresh cache — the cross-process case.
            let shards: Vec<_> = (0..total)
                .map(|k| {
                    run_matrix_sharded(
                        &matrix,
                        &cfg,
                        matrix.shard(k, total),
                        Arc::new(MeasurementCache::new()),
                    )
                    .unwrap()
                })
                .collect();
            let merged = MatrixReport::merge(&shards).unwrap();
            assert!(full.bit_identical(&merged), "{total} shards diverged");
            assert_eq!(full.stats.planned_cells, merged.stats.planned_cells);
            assert_eq!(full.stats.executed_cells, merged.stats.executed_cells);
            assert_eq!(full.bw_curves.len(), merged.bw_curves.len());
            assert_eq!(full.frontiers.len(), merged.frontiers.len());
        }
    }

    #[test]
    fn shards_split_between_campaigns_simulate_each_cell_once() {
        let matrix = tiny_matrix();
        let cfg = MatrixConfig::default();
        let cache = Arc::new(MeasurementCache::new());
        // Shard 0 = xeon-max × two budgets, shard 1 = hbm-flat × two
        // budgets: the boundary falls between campaign groups.
        let a = run_matrix_sharded(&matrix, &cfg, matrix.shard(0, 2), Arc::clone(&cache)).unwrap();
        let b = run_matrix_sharded(&matrix, &cfg, matrix.shard(1, 2), Arc::clone(&cache)).unwrap();
        let full = run_matrix(&matrix, &cfg).unwrap();
        assert_eq!(a.stats.cache.hits + b.stats.cache.hits, 0);
        assert_eq!(a.stats.cache.misses + b.stats.cache.misses, full.stats.cache.misses);
        assert_eq!(cache.len() as u64, full.stats.cache.misses);
        let merged = MatrixReport::merge(&[a, b]).unwrap();
        assert!(full.bit_identical(&merged));
    }

    #[test]
    fn shards_with_different_execution_settings_refuse_to_merge() {
        let matrix = tiny_matrix();
        let shard = |cfg: &MatrixConfig, k| {
            run_matrix_sharded(&matrix, cfg, matrix.shard(k, 2), Arc::new(MeasurementCache::new()))
                .unwrap()
        };
        let regrouped = MatrixConfig {
            grouping: GroupingConfig { max_groups: 2, ..GroupingConfig::default() },
            ..MatrixConfig::default()
        };
        let a = shard(&MatrixConfig::default(), 0);
        // Same matrix, different grouping: row bits differ, so the
        // combined fingerprint must refuse the merge.
        assert!(
            !hmpt_core::scenario::rows_bit_identical(&a.rows, &shard(&regrouped, 0).rows),
            "the grouping must reach the rows"
        );
        let b = shard(&regrouped, 1);
        assert!(matches!(
            MatrixReport::merge(&[a, b]),
            Err(hmpt_core::scenario::MergeError::MatrixMismatch { .. })
        ));
    }

    #[test]
    fn shards_of_different_matrices_refuse_to_merge() {
        let cfg = MatrixConfig::default();
        let a = tiny_matrix();
        let b = tiny_matrix().with_budgets(vec![None]);
        let sa =
            run_matrix_sharded(&a, &cfg, a.shard(0, 2), Arc::new(MeasurementCache::new())).unwrap();
        let sb =
            run_matrix_sharded(&b, &cfg, b.shard(1, 2), Arc::new(MeasurementCache::new())).unwrap();
        assert!(matches!(
            MatrixReport::merge(&[sa, sb]),
            Err(hmpt_core::scenario::MergeError::MatrixMismatch { .. })
        ));
    }

    #[test]
    fn invalid_zoo_entry_fails_the_run_with_its_name() {
        let zoo = hmpt_sim::zoo::scale_hbm_bw(hmpt_sim::zoo::Preset::XeonMaxSnc4, &[1.0, 0.0]);
        let matrix = ScenarioMatrix::new(zoo, vec![hmpt_workloads::npb::mg::workload()]);
        let err = run_matrix(&matrix, &MatrixConfig::default()).unwrap_err();
        assert!(matches!(err, TunerError::InvalidMachine { .. }), "{err}");
        assert!(err.to_string().contains("hbm-bw:0"));
    }
}
