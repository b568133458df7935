//! Incremental online tuning (the paper's stated direction: "a more
//! dynamic approach, which … potentially allows for online profiling and
//! control").
//!
//! Instead of measuring all `2^|AG|` configurations, the online tuner
//! hill-climbs: starting from DDR-only, it repeatedly measures the
//! promotion of the highest-density group not yet in HBM, keeps it if it
//! helps, and stops after `patience` consecutive non-improvements. It
//! also probes *demotions* of latency-suspect groups (high sampled
//! latency), which is how it finds SP-style optima where the best
//! configuration is not a superset chain member.
//!
//! The ablation bench compares measurement counts and achieved speedup
//! against the exhaustive campaign.

use hmpt_sim::machine::Machine;
use hmpt_workloads::model::WorkloadSpec;
use serde::{Deserialize, Serialize};

use crate::campaign::CampaignPlan;
use crate::configspace::Config;
use crate::error::TunerError;
use crate::exec::{CellExecutor, ExecutorKind};
use crate::grouping::AllocationGroup;
use crate::measure::CampaignConfig;

/// Online tuner parameters.
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// Consecutive non-improving probes tolerated before stopping.
    pub patience: usize,
    /// Minimum relative improvement to accept a move.
    pub min_gain: f64,
    pub campaign: CampaignConfig,
    /// Executor for the repetitions of each probed configuration (the
    /// probes themselves are inherently sequential — each depends on the
    /// previous accept/reject decision).
    pub executor: ExecutorKind,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            patience: 2,
            min_gain: 0.002,
            campaign: CampaignConfig::default(),
            executor: ExecutorKind::Serial,
        }
    }
}

/// Result of an online tuning session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineResult {
    pub config: Config,
    pub speedup: f64,
    /// Number of measured configurations (including the baseline).
    pub measurements: usize,
    /// Accepted moves in order (group id, promoted?).
    pub trajectory: Vec<(usize, bool)>,
}

/// Hill-climb a placement for `spec`.
pub fn tune(
    machine: &Machine,
    spec: &WorkloadSpec,
    groups: &[AllocationGroup],
    cfg: &OnlineConfig,
) -> Result<OnlineResult, TunerError> {
    let plan = CampaignPlan::new(machine, spec, groups, cfg.campaign)?;
    tune_plan(&plan, cfg, &cfg.executor)
}

/// Hill-climb over an existing campaign plan through an arbitrary cell
/// executor. The plan's memoized fingerprints make each probe's cache
/// keys cheap, and probe cells are the campaign's own cells (identical
/// derived seeds), so caching layers dedupe them exactly.
pub fn tune_plan<E: CellExecutor + ?Sized>(
    plan: &CampaignPlan<'_>,
    cfg: &OnlineConfig,
    exec: &E,
) -> Result<OnlineResult, TunerError> {
    tune_with_measure(plan.groups(), cfg, &mut |config| {
        Ok(plan.measure_config(exec, config)?.mean_s)
    })
}

/// Hill-climb with a caller-supplied measurement function (custom
/// probe transports; the standard paths are [`tune`] and
/// [`tune_plan`]).
pub fn tune_with_measure(
    groups: &[AllocationGroup],
    cfg: &OnlineConfig,
    measure_mean: &mut dyn FnMut(Config) -> Result<f64, TunerError>,
) -> Result<OnlineResult, TunerError> {
    let mut measurements = 0usize;
    // A probe of an infeasible candidate (HBM capacity pressure) is a
    // rejected move, not a fatal error — mirroring how the exhaustive
    // campaign skips infeasible configurations. Represented as `None`.
    let mut measure = |config: Config| -> Result<Option<f64>, TunerError> {
        measurements += 1;
        match measure_mean(config) {
            Ok(t) => Ok(Some(t)),
            Err(TunerError::Alloc(hmpt_alloc::error::AllocError::PoolExhausted { .. })) => Ok(None),
            Err(e) => Err(e),
        }
    };

    // The all-DDR baseline is always feasible; a failure here is real.
    let baseline = measure(Config::DDR_ONLY)?.ok_or(TunerError::Alloc(
        hmpt_alloc::error::AllocError::PoolExhausted {
            pool: hmpt_sim::pool::PoolKind::Ddr,
            requested: 0,
            available: 0,
        },
    ))?;
    let mut current = Config::DDR_ONLY;
    let mut current_t = baseline;
    let mut trajectory = Vec::new();

    // Promotion order: by sampled density, hottest first.
    let mut order: Vec<&AllocationGroup> = groups.iter().collect();
    order.sort_by(|a, b| b.density.total_cmp(&a.density));

    let mut misses = 0usize;
    for g in &order {
        if misses >= cfg.patience {
            break;
        }
        let candidate = current.with(g.id);
        match measure(candidate)? {
            Some(t) if t < current_t * (1.0 - cfg.min_gain) => {
                current = candidate;
                current_t = t;
                trajectory.push((g.id, true));
                misses = 0;
            }
            _ => misses += 1,
        }
    }

    // Demotion probes: try pulling each accepted group back out, coldest
    // first — catches latency-sensitive groups that only hurt once the
    // bandwidth picture changed. (Demotions only shrink the HBM
    // footprint, so feasibility cannot regress; the `None` arm is for
    // symmetry.)
    for g in order.iter().rev() {
        if !current.contains(g.id) {
            continue;
        }
        let candidate = current.without(g.id);
        match measure(candidate)? {
            Some(t) if t < current_t * (1.0 - cfg.min_gain) => {
                current = candidate;
                current_t = t;
                trajectory.push((g.id, false));
            }
            _ => {}
        }
    }

    Ok(OnlineResult { config: current, speedup: baseline / current_t, measurements, trajectory })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Driver;
    use crate::measure::CampaignConfig;
    use hmpt_sim::machine::xeon_max_9468;
    use hmpt_sim::noise::NoiseModel;

    fn exact_campaign() -> CampaignConfig {
        CampaignConfig { runs_per_config: 1, noise: NoiseModel::none(), base_seed: 0 }
    }

    #[test]
    fn infeasible_probes_are_rejected_moves_not_errors() {
        // Shrink HBM so all-in placements stop fitting: the hill-climb
        // must keep tuning within capacity instead of failing.
        use hmpt_sim::machine::MachineBuilder;
        use hmpt_sim::units::gib;
        let small = MachineBuilder::xeon_max().with_hbm_capacity_per_tile(gib(2)).build();
        let spec = hmpt_workloads::npb::is::workload(); // 20 GB > 16 GiB HBM
        let a =
            Driver::new(xeon_max_9468()).with_campaign(exact_campaign()).analyze(&spec).unwrap();
        let cfg = OnlineConfig { campaign: exact_campaign(), ..Default::default() };
        let r = tune(&small, &spec, &a.groups, &cfg).expect("infeasible probes tolerated");
        // Whatever it settled on fits the small machine's HBM.
        assert!(r.config.hbm_bytes(&a.groups) <= small.hbm_capacity());
        assert!(r.speedup >= 1.0 - 1e-9, "never worse than baseline: {}", r.speedup);
    }

    fn analyzed(spec: &hmpt_workloads::model::WorkloadSpec) -> crate::driver::Analysis {
        Driver::new(xeon_max_9468()).with_campaign(exact_campaign()).analyze(spec).unwrap()
    }

    #[test]
    fn online_matches_exhaustive_on_mg_with_fewer_runs() {
        let m = xeon_max_9468();
        let spec = hmpt_workloads::npb::mg::workload();
        let a = analyzed(&spec);
        let cfg = OnlineConfig { campaign: exact_campaign(), ..Default::default() };
        let r = tune(&m, &spec, &a.groups, &cfg).unwrap();
        assert!(
            r.speedup > 0.97 * a.table2.max_speedup,
            "online {} vs exhaustive {}",
            r.speedup,
            a.table2.max_speedup
        );
        assert!(
            r.measurements < a.campaign.measurements.len(),
            "online used {} measurements vs exhaustive {}",
            r.measurements,
            a.campaign.measurements.len()
        );
    }

    #[test]
    fn online_finds_sp_demotion_optimum() {
        // SP's optimum keeps `lhs` in DDR; the demotion pass must find it
        // (or never promote lhs in the first place).
        let m = xeon_max_9468();
        let spec = hmpt_workloads::npb::sp::workload();
        let a = analyzed(&spec);
        let cfg = OnlineConfig { campaign: exact_campaign(), ..Default::default() };
        let r = tune(&m, &spec, &a.groups, &cfg).unwrap();
        assert!(
            r.speedup > 0.97 * a.table2.max_speedup,
            "online {} vs exhaustive {}",
            r.speedup,
            a.table2.max_speedup
        );
        // lhs (the chase group) must not be in the final config.
        let lhs_group = a.groups.iter().find(|g| g.label == "lhs").expect("lhs group");
        assert!(!r.config.contains(lhs_group.id), "lhs wrongly promoted");
    }

    #[test]
    fn trajectory_is_consistent_with_config() {
        let m = xeon_max_9468();
        let spec = hmpt_workloads::npb::mg::workload();
        let a = analyzed(&spec);
        let cfg = OnlineConfig { campaign: exact_campaign(), ..Default::default() };
        let r = tune(&m, &spec, &a.groups, &cfg).unwrap();
        let mut replay = Config::DDR_ONLY;
        for (gid, promoted) in &r.trajectory {
            replay = if *promoted { replay.with(*gid) } else { replay.without(*gid) };
        }
        assert_eq!(replay, r.config);
    }
}

#[cfg(test)]
mod noisy_tests {
    use super::*;
    use crate::driver::Driver;
    use hmpt_sim::machine::xeon_max_9468;
    use hmpt_sim::noise::NoiseModel;

    /// The online tuner must tolerate realistic measurement noise: with
    /// the default 0.8 % cv and 3-run averaging it still lands within a
    /// few percent of the exhaustive optimum on MG.
    #[test]
    fn online_is_noise_robust() {
        let m = xeon_max_9468();
        let spec = hmpt_workloads::npb::mg::workload();
        let a = Driver::new(m.clone()).analyze(&spec).unwrap();
        let cfg = OnlineConfig {
            campaign: CampaignConfig {
                runs_per_config: 3,
                noise: NoiseModel::default(),
                base_seed: 77,
            },
            ..Default::default()
        };
        let r = tune(&m, &spec, &a.groups, &cfg).unwrap();
        assert!(
            r.speedup > 0.95 * a.table2.max_speedup,
            "noisy online {} vs exhaustive {}",
            r.speedup,
            a.table2.max_speedup
        );
    }

    /// Online probes through a cache warmed by the exhaustive campaign
    /// (one plan → the same cell seeds and keys) cost zero additional
    /// simulated runs — the fleet's own probe path.
    #[test]
    fn cached_online_probes_reuse_campaign_cells() {
        use crate::cache::MeasurementCache;
        use crate::exec::CachingExecutor;
        let m = xeon_max_9468();
        let spec = hmpt_workloads::npb::mg::workload();
        let a = Driver::new(m.clone()).analyze(&spec).unwrap();
        let cfg = OnlineConfig::default();
        let plan = CampaignPlan::new(&m, &spec, &a.groups, cfg.campaign).unwrap();
        let exec = CachingExecutor::new(cfg.executor, std::sync::Arc::new(MeasurementCache::new()));
        let campaign = plan.execute(&exec).unwrap();
        let warmed_misses = exec.cache().stats().misses;
        assert_eq!(warmed_misses as usize, campaign.total_runs());
        let r = tune_plan(&plan, &cfg, &exec).unwrap();
        assert_eq!(exec.cache().stats().misses, warmed_misses, "probes answered from warmed cache");
        assert!(exec.cache().stats().hits > 0);
        assert!(r.speedup > 0.97 * a.table2.max_speedup);
    }

    /// min_gain filters out noise-level "improvements": with a huge
    /// threshold nothing is ever accepted.
    #[test]
    fn min_gain_gates_acceptance() {
        let m = xeon_max_9468();
        let spec = hmpt_workloads::npb::bt::workload();
        let a = Driver::new(m.clone()).analyze(&spec).unwrap();
        let cfg = OnlineConfig { min_gain: 10.0, ..Default::default() };
        let r = tune(&m, &spec, &a.groups, &cfg).unwrap();
        assert_eq!(r.config, Config::DDR_ONLY);
        assert!(r.trajectory.is_empty());
    }
}
