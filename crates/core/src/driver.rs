//! The driver: the end-to-end pipeline of the paper's Fig 6.
//!
//! 1. **Profile** — run the workload all-in-DDR with IBS sampling to
//!    collect per-site access densities.
//! 2. **Group** — filter and rank allocations into ≤ 8 groups (§III.A).
//! 3. **Measure** — run every `2^|AG|` placement configuration `n` times.
//! 4. **Analyze** — detailed and summary views, the linear estimator,
//!    and the Table II triple.
//! 5. **Plan** — emit the best placement plan (optionally under a
//!    capacity budget via [`crate::planner`]).

use hmpt_alloc::plan::PlacementPlan;
use hmpt_perf::stats::AccessStats;
use hmpt_sim::machine::Machine;
use hmpt_workloads::model::WorkloadSpec;
use hmpt_workloads::runner::{run_once, RunConfig, RunOutcome};

use crate::analysis::{DetailedView, SummaryView};
use crate::campaign::{CampaignPlan, RepPolicy};
use crate::error::TunerError;
use crate::estimate::LinearEstimator;
use crate::exec::ExecutorKind;
use crate::grouping::{group, AllocationGroup, GroupingConfig};
use crate::measure::{CampaignConfig, CampaignResult};
use crate::metrics::Table2Row;

/// Everything the tuner produces for one workload.
#[derive(Debug, Clone)]
pub struct Analysis {
    pub workload: String,
    pub groups: Vec<AllocationGroup>,
    pub stats: AccessStats,
    pub campaign: CampaignResult,
    pub estimator: LinearEstimator,
    pub detailed: DetailedView,
    pub summary: SummaryView,
    pub table2: Table2Row,
    /// The profiling (all-DDR, sampled) run.
    pub profile: RunOutcome,
}

impl Analysis {
    /// The plan realizing the best measured configuration.
    pub fn best_plan(&self, spec: &WorkloadSpec) -> PlacementPlan {
        self.table2.best_config.plan(spec, &self.groups)
    }

    /// The plan reaching ≥90 % of the best gain with minimal HBM.
    pub fn frugal_plan(&self, spec: &WorkloadSpec) -> PlacementPlan {
        self.table2.config_90.plan(spec, &self.groups)
    }

    /// Number of simulated benchmark executions this analysis cost.
    pub fn total_runs(&self) -> usize {
        self.campaign.total_runs() + 1
    }
}

/// Seed of every profiling run. Profiles are memoized by
/// `RunConfig::profiling(PROFILE_SEED)`'s fingerprint, and matrix and
/// batch fingerprints fold it in, so it pins every checked-in artifact.
pub const PROFILE_SEED: u64 = 7;

/// The tuning driver.
///
/// ```
/// use hmpt_core::driver::Driver;
/// use hmpt_sim::machine::xeon_max_9468;
///
/// let driver = Driver::new(xeon_max_9468());
/// let analysis = driver.analyze(&hmpt_workloads::npb::mg::workload()).unwrap();
/// // The paper's Table II row for MG: 2.27 / 2.26 / 69.6 %.
/// assert!((analysis.table2.max_speedup - 2.27).abs() < 0.1);
/// assert!((analysis.table2.usage_90_pct - 69.6).abs() < 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct Driver {
    pub machine: Machine,
    pub grouping: GroupingConfig,
    pub campaign: CampaignConfig,
    /// How campaign cells are executed (serial by default; results are
    /// bit-identical across executors).
    pub executor: ExecutorKind,
    /// How many repetitions each configuration gets (fixed `n` by
    /// default; adaptive policies stop early, bit-identically across
    /// executors).
    pub rep_policy: RepPolicy,
    /// Whether campaign plans may use the batched cold-path kernel
    /// ([`crate::fastpath::FastCampaign`]; bit-identical by contract, so
    /// on by default).
    pub fast_path: bool,
}

impl Driver {
    pub fn new(machine: Machine) -> Self {
        Driver {
            machine,
            grouping: GroupingConfig::default(),
            campaign: CampaignConfig::default(),
            executor: ExecutorKind::Serial,
            rep_policy: RepPolicy::Fixed,
            fast_path: true,
        }
    }

    pub fn with_grouping(mut self, grouping: GroupingConfig) -> Self {
        self.grouping = grouping;
        self
    }

    pub fn with_campaign(mut self, campaign: CampaignConfig) -> Self {
        self.campaign = campaign;
        self
    }

    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    pub fn with_rep_policy(mut self, rep_policy: RepPolicy) -> Self {
        self.rep_policy = rep_policy;
        self
    }

    pub fn with_fast_path(mut self, on: bool) -> Self {
        self.fast_path = on;
        self
    }

    /// The run configuration of [`Self::profile`]: a profile is a pure
    /// function of machine, workload and this, whose fingerprint keys
    /// the profile memo of [`crate::cache::MeasurementCache`].
    pub fn profile_config(&self) -> RunConfig {
        RunConfig::profiling(PROFILE_SEED)
    }

    /// Step 1: the profiling run (all-DDR, IBS on).
    pub fn profile(&self, spec: &WorkloadSpec) -> Result<RunOutcome, TunerError> {
        if spec.allocations.is_empty() {
            return Err(TunerError::EmptyWorkload);
        }
        let plan = PlacementPlan::default();
        Ok(run_once(&self.machine, spec, &plan, &self.profile_config())?)
    }

    /// Step 3: plan the measurement campaign for an already-grouped
    /// workload. The plan carries the driver's repetition policy;
    /// callers pick the executor (and may wrap it in a cache).
    pub fn plan_campaign<'a>(
        &'a self,
        spec: &'a WorkloadSpec,
        groups: &'a [AllocationGroup],
    ) -> Result<CampaignPlan<'a>, TunerError> {
        Ok(CampaignPlan::new(&self.machine, spec, groups, self.campaign)?
            .with_policy(self.rep_policy)
            .with_fast_path(self.fast_path))
    }

    /// Execute a campaign plan with the driver's executor.
    pub fn run_plan(&self, plan: &CampaignPlan<'_>) -> Result<CampaignResult, TunerError> {
        plan.execute(&self.executor)
    }

    /// The full pipeline.
    pub fn analyze(&self, spec: &WorkloadSpec) -> Result<Analysis, TunerError> {
        let profile = self.profile(spec)?;
        let groups = group(spec, &profile.stats, &self.grouping);
        let campaign = self.run_plan(&self.plan_campaign(spec, &groups)?)?;
        Ok(self.assemble(spec, profile, groups, campaign))
    }

    /// Steps 4–5 of the pipeline: turn a profile + grouping + campaign
    /// into the full [`Analysis`]. Exposed so alternative campaign
    /// front ends (the fleet's cached executor) can reuse the exact
    /// analysis construction the driver performs.
    pub fn assemble(
        &self,
        spec: &WorkloadSpec,
        profile: RunOutcome,
        groups: Vec<AllocationGroup>,
        campaign: CampaignResult,
    ) -> Analysis {
        let estimator = LinearEstimator::fit(&campaign, groups.len());
        let table2 = Table2Row::from_campaign(&spec.name, &campaign, &groups);
        let detailed = DetailedView::build(&spec.name, &campaign, &groups, &estimator);
        let summary =
            SummaryView::build(&spec.binary, &campaign, &groups, &estimator, table2.clone());
        Analysis {
            workload: spec.name.clone(),
            groups,
            stats: profile.stats.clone(),
            campaign,
            estimator,
            detailed,
            summary,
            table2,
            profile,
        }
    }

    /// Convenience: Table II for a batch of workloads.
    pub fn table2(&self, specs: &[WorkloadSpec]) -> Result<Vec<Table2Row>, TunerError> {
        specs.iter().map(|s| Ok(self.analyze(s)?.table2)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmpt_sim::machine::xeon_max_9468;

    fn driver() -> Driver {
        // Noise-free, single-run campaigns keep unit tests fast and
        // deterministic; the integration tests exercise noisy campaigns.
        Driver::new(xeon_max_9468()).with_campaign(CampaignConfig {
            runs_per_config: 1,
            noise: hmpt_sim::noise::NoiseModel::none(),
            base_seed: 0,
        })
    }

    #[test]
    fn mg_pipeline_reproduces_fig7() {
        let spec = hmpt_workloads::npb::mg::workload();
        let a = driver().analyze(&spec).unwrap();
        assert_eq!(a.groups.len(), 3);
        // Fig 7a: top two groups hold > 90 % of access samples.
        let top2 = a.groups[0].density + a.groups[1].density;
        assert!(top2 > 0.88, "top-2 density {top2}");
        // Table II row: 2.27 / 2.26 / 69.6.
        assert!((a.table2.max_speedup - 2.27).abs() < 0.1, "{}", a.table2.max_speedup);
        assert!((a.table2.hbm_only_speedup - 2.26).abs() < 0.1);
        assert!((a.table2.usage_90_pct - 69.6).abs() < 3.0, "{}", a.table2.usage_90_pct);
        // Moving either hot group alone yields > 1.5×.
        assert!(a.estimator.single[0] > 1.5 && a.estimator.single[1] > 1.5);
    }

    #[test]
    fn best_plan_promotes_hot_groups_only() {
        let spec = hmpt_workloads::npb::mg::workload();
        let a = driver().analyze(&spec).unwrap();
        let plan = a.best_plan(&spec);
        // MG's optimum is {u, r}: two sites promoted.
        assert_eq!(plan.len(), 2);
        let frugal = a.frugal_plan(&spec);
        assert!(frugal.len() <= plan.len());
    }

    #[test]
    fn empty_workload_is_rejected() {
        let spec = WorkloadSpec::new("empty", "./empty.x");
        assert!(matches!(driver().analyze(&spec), Err(TunerError::EmptyWorkload)));
    }

    #[test]
    fn profile_densities_match_traffic_shares() {
        let spec = hmpt_workloads::npb::is::workload();
        let profile = driver().profile(&spec).unwrap();
        let shares = spec.traffic_share();
        for (i, a) in spec.allocations.iter().enumerate() {
            let d = profile.stats.density(a.site());
            assert!(
                (d - shares[i]).abs() < 0.05,
                "{}: sampled {d:.3} vs true {:.3}",
                a.label,
                shares[i]
            );
        }
    }

    #[test]
    fn parallel_executor_analysis_is_bit_identical() {
        let spec = hmpt_workloads::npb::mg::workload();
        let serial = Driver::new(xeon_max_9468()).analyze(&spec).unwrap();
        let parallel = Driver::new(xeon_max_9468())
            .with_executor(crate::exec::ExecutorKind::parallel())
            .analyze(&spec)
            .unwrap();
        assert_eq!(serial.table2.max_speedup.to_bits(), parallel.table2.max_speedup.to_bits());
        assert_eq!(serial.table2.usage_90_pct.to_bits(), parallel.table2.usage_90_pct.to_bits());
        for (a, b) in serial.campaign.measurements.iter().zip(&parallel.campaign.measurements) {
            assert_eq!(a.mean_s.to_bits(), b.mean_s.to_bits());
            assert_eq!(a.std_s.to_bits(), b.std_s.to_bits());
        }
    }

    #[test]
    fn analysis_run_count_accounting() {
        let spec = hmpt_workloads::npb::mg::workload();
        let d = driver();
        let a = d.analyze(&spec).unwrap();
        // 2^3 configs × 1 run + 1 profile run.
        assert_eq!(a.total_runs(), 9);
    }

    #[test]
    fn adaptive_driver_spends_fewer_runs() {
        let spec = hmpt_workloads::npb::mg::workload();
        // Default (noisy) campaign so the CI target is exercised.
        let fixed = Driver::new(xeon_max_9468()).analyze(&spec).unwrap();
        let adaptive = Driver::new(xeon_max_9468())
            .with_rep_policy(RepPolicy::confidence(0.02, 3))
            .analyze(&spec)
            .unwrap();
        assert!(adaptive.campaign.executed_runs < fixed.campaign.executed_runs);
        assert!(adaptive.campaign.cells_skipped() > 0);
        // The Table II triple stays within the paper band.
        assert!((adaptive.table2.max_speedup - 2.27).abs() < 0.1);
    }
}
