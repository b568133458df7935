//! The scenario-matrix IR: cross-platform campaigns as data.
//!
//! A [`ScenarioMatrix`] describes the cross-product of five axes —
//! machines ([`hmpt_sim::zoo::ZooEntry`]) × workloads × HBM budgets ×
//! repetition policies × noise levels — and enumerates its cells
//! ([`Scenario`]) **lazily**, mirroring the campaign-plan IR's design
//! one level up: a matrix never materializes its product, just as a
//! [`CampaignPlan`](crate::campaign::CampaignPlan) never materializes
//! its `2^|AG|·n` cells. Index `i` decodes to a scenario by mixed-radix
//! arithmetic, so enumeration is deterministic, duplicate-free, and
//! O(1) per cell.
//!
//! Nothing in this module runs anything. Execution lives with the
//! fleet (`hmpt_fleet::matrix::run_matrix`), which runs each campaign
//! group ([`ScenarioMatrix::campaigns`]) as one job through the
//! `Fleet`/[`CellExecutor`](crate::exec::CellExecutor) stack and builds
//! every budget's row from that job's single analysis.
//!
//! The result side is also defined here: [`ScenarioRow`] is one
//! Table-II-style line per scenario, and [`MatrixReport::assemble`]
//! derives the cross-machine views — speedup-vs-HBM-bandwidth curves,
//! budget-vs-slowdown frontiers, and the allocation groups that stay
//! HBM-resident across the whole zoo.
//!
//! The axis order is budget-innermost on purpose: a budget constrains
//! the placement decision, not the measurement campaign, so consecutive
//! scenarios that differ only in budget form one campaign group. Its
//! `2^|AG|·n` campaign is measured once and every budget row reads its
//! decision off it, as the paper does (§III.A).
//!
//! Because enumeration is O(1)-indexed, the scenario space also
//! *partitions* trivially: [`ScenarioMatrix::shard`] splits the index
//! range into `n` balanced contiguous shards, each executable in its
//! own process (or host, or CI job) as a [`ShardReport`], and
//! [`MatrixReport::merge`] reassembles the full report — validating
//! that every shard ran the *same* matrix via
//! [`ScenarioMatrix::fingerprint`] and re-deriving the cross-machine
//! views from the union of rows.

use std::fmt;
use std::ops::Range;

use hmpt_sim::fingerprint::{Fingerprint, StableHasher};
use hmpt_sim::machine::Machine;
use hmpt_sim::noise::NoiseModel;
use hmpt_sim::pool::PoolKind;
use hmpt_sim::units::{as_gib, Bytes};
use hmpt_sim::zoo::{Zoo, ZooEntry};
use hmpt_workloads::model::WorkloadSpec;
use serde::{Deserialize, Serialize};

use crate::cache::CacheStats;
use crate::campaign::RepPolicy;
use crate::driver::Analysis;
use crate::error::TunerError;
use crate::measure::CampaignConfig;
use crate::planner::plan_exhaustive;

/// Position of one scenario along every axis of its matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioCoords {
    pub machine: usize,
    pub workload: usize,
    pub noise: usize,
    pub policy: usize,
    pub budget: usize,
}

/// One cell of a scenario matrix: a complete tuning question (which
/// machine, which workload, under which budget / repetition policy /
/// noise level), ready to be turned into a fleet job.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Position in the matrix's canonical enumeration.
    pub index: usize,
    pub coords: ScenarioCoords,
    /// The platform, as zoo data (built into a [`Machine`] at
    /// execution time).
    pub entry: ZooEntry,
    pub workload: WorkloadSpec,
    /// HBM capacity budget for the placement decision (`None` = the
    /// machine's full HBM). The budget constrains the *plan*, not the
    /// measurement campaign, so scenarios differing only in budget
    /// share one campaign ([`ScenarioMatrix::campaigns`]).
    pub budget: Option<Bytes>,
    pub rep_policy: RepPolicy,
    /// Campaign settings with this scenario's noise level applied.
    pub campaign: CampaignConfig,
}

impl Scenario {
    /// Build (and validate) this scenario's machine.
    pub fn build_machine(&self) -> Result<Machine, TunerError> {
        self.entry.try_build().map_err(|e| TunerError::InvalidMachine {
            name: self.entry.name.clone(),
            reason: e.to_string(),
        })
    }

    /// Human-readable cell label
    /// (`mg.D @ xeon-max | budget 16.0 GiB | fixed×3 | cv 0.80%`).
    pub fn label(&self) -> String {
        let budget = match self.budget {
            Some(b) => format!("budget {:.1} GiB", as_gib(b)),
            None => "unbudgeted".to_string(),
        };
        format!(
            "{} @ {} | {budget} | {} | cv {:.2}%",
            self.workload.name,
            self.entry.name,
            self.rep_policy.label(self.campaign.runs_per_config),
            self.campaign.noise.cv * 100.0,
        )
    }
}

/// One point on the repetition-policy axis: a policy plus an optional
/// `runs_per_config` override, so `fixed:2` and `fixed:5` can coexist
/// in one matrix. Cells are seeded per (config, repetition) — never per
/// repetition *count* — so two points differing only in count share
/// their common prefix of campaign cells in the measurement cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyPoint {
    pub policy: RepPolicy,
    /// `runs_per_config` override for this point (`None` = the base
    /// campaign's count).
    pub reps: Option<usize>,
}

impl PolicyPoint {
    /// The base-campaign fixed policy (the default axis).
    pub fn fixed() -> Self {
        PolicyPoint { policy: RepPolicy::Fixed, reps: None }
    }

    /// Parse the declarative spelling (`fixed`, `fixed:N`, `ci:T`,
    /// `ci:T:M` — see [`RepPolicy::from_spec`]). `default_max_reps`
    /// bounds a `ci:T` spelling with no explicit ceiling.
    pub fn parse(spec: &str, default_max_reps: usize) -> Result<PolicyPoint, String> {
        let (policy, reps) = RepPolicy::from_spec(spec, default_max_reps)?;
        Ok(PolicyPoint { policy, reps })
    }

    /// The canonical declarative spelling (round-trips through
    /// [`PolicyPoint::parse`]).
    pub fn spec_label(&self) -> String {
        self.policy.spec_label(self.reps)
    }

    /// The `runs_per_config` this point runs `base` at.
    pub fn runs_per_config(&self, base: &CampaignConfig) -> usize {
        self.reps.unwrap_or(base.runs_per_config)
    }
}

/// Parse one budget spec: a GiB value, or `none`/`inf` for unbudgeted.
pub fn parse_budget(spec: &str) -> Result<Option<Bytes>, String> {
    match spec {
        "none" | "inf" => Ok(None),
        _ => spec
            .parse::<f64>()
            .map_err(|_| format!("budget `{spec}` is neither a GiB value nor `none`"))
            .and_then(|gib| {
                if gib > 0.0 && gib.is_finite() {
                    Ok(Some((gib * (1u64 << 30) as f64) as u64))
                } else {
                    Err(format!("budget `{spec}` must be positive"))
                }
            }),
    }
}

/// The lazy cross-product of machines × workloads × budgets ×
/// repetition policies × noise levels.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    machines: Vec<ZooEntry>,
    workloads: Vec<WorkloadSpec>,
    budgets: Vec<Option<Bytes>>,
    rep_policies: Vec<PolicyPoint>,
    /// `None` → a single level at the base campaign's noise cv.
    noise_cvs: Option<Vec<f64>>,
    base: CampaignConfig,
}

impl ScenarioMatrix {
    /// A matrix over `zoo` × `workloads` with a single unbudgeted,
    /// fixed-repetition, default-noise level on the remaining axes.
    pub fn new(zoo: Zoo, workloads: Vec<WorkloadSpec>) -> Self {
        ScenarioMatrix {
            machines: zoo.into_entries(),
            workloads,
            budgets: vec![None],
            rep_policies: vec![PolicyPoint::fixed()],
            noise_cvs: None,
            base: CampaignConfig::default(),
        }
    }

    /// Build a matrix from declarative axis spellings — the constructor
    /// behind `CampaignSpec` documents and the `scenarios` CLI flags.
    ///
    /// * `zoo` — [`ZooEntry::parse`] specs; empty = the standard sweep
    ///   ([`Zoo::standard_sweep`]).
    /// * `workloads` — Table II workload names (prefix match); empty =
    ///   all seven.
    /// * `budgets` — [`parse_budget`] specs; empty = unbudgeted.
    /// * `policies` — [`PolicyPoint::parse`] specs; empty = the base
    ///   campaign's fixed policy.
    /// * `noise` — coefficients of variation; empty = the base
    ///   campaign's level.
    pub fn from_spec(
        zoo: &[String],
        workloads: &[String],
        budgets: &[String],
        policies: &[String],
        noise: &[f64],
        base: CampaignConfig,
    ) -> Result<ScenarioMatrix, String> {
        let zoo = if zoo.is_empty() { Zoo::standard_sweep() } else { Zoo::parse_entries(zoo)? };
        let specs = if workloads.is_empty() {
            hmpt_workloads::table2_workloads()
        } else {
            workloads
                .iter()
                .map(|name| {
                    hmpt_workloads::find_table2(name).ok_or_else(|| {
                        format!("unknown workload `{name}`; built-ins: mg bt lu sp ua is kwave")
                    })
                })
                .collect::<Result<_, _>>()?
        };
        let budgets = budgets.iter().map(|b| parse_budget(b)).collect::<Result<Vec<_>, _>>()?;
        let policies = policies
            .iter()
            .map(|p| PolicyPoint::parse(p, base.runs_per_config))
            .collect::<Result<Vec<_>, _>>()?;
        for cv in noise {
            if !cv.is_finite() || *cv < 0.0 {
                return Err(format!("noise level `{cv}` must be ≥ 0"));
            }
        }
        Ok(ScenarioMatrix::new(zoo, specs)
            .with_budgets(budgets)
            .with_policy_axis(policies)
            .with_noise_cvs(noise.to_vec())
            .with_campaign(base))
    }

    /// Set the HBM-budget axis (an empty list resets to unbudgeted).
    pub fn with_budgets(mut self, budgets: Vec<Option<Bytes>>) -> Self {
        self.budgets = if budgets.is_empty() { vec![None] } else { budgets };
        self
    }

    /// Set the repetition-policy axis (empty resets to fixed `n`).
    pub fn with_rep_policies(self, policies: Vec<RepPolicy>) -> Self {
        self.with_policy_axis(
            policies.into_iter().map(|policy| PolicyPoint { policy, reps: None }).collect(),
        )
    }

    /// Set the repetition-policy axis with per-point `runs_per_config`
    /// overrides (empty resets to the base campaign's fixed `n`).
    pub fn with_policy_axis(mut self, policies: Vec<PolicyPoint>) -> Self {
        self.rep_policies = if policies.is_empty() { vec![PolicyPoint::fixed()] } else { policies };
        self
    }

    /// Set the noise axis as coefficients of variation (empty resets to
    /// the base campaign's level).
    pub fn with_noise_cvs(mut self, cvs: Vec<f64>) -> Self {
        self.noise_cvs = if cvs.is_empty() { None } else { Some(cvs) };
        self
    }

    /// Set the base campaign settings (repetitions, seed, default
    /// noise). Per-scenario noise levels override the noise model.
    pub fn with_campaign(mut self, base: CampaignConfig) -> Self {
        self.base = base;
        self
    }

    pub fn machines(&self) -> &[ZooEntry] {
        &self.machines
    }

    pub fn workloads(&self) -> &[WorkloadSpec] {
        &self.workloads
    }

    pub fn budgets(&self) -> &[Option<Bytes>] {
        &self.budgets
    }

    pub fn rep_policies(&self) -> &[PolicyPoint] {
        &self.rep_policies
    }

    /// The noise axis (resolved against the base campaign).
    pub fn noise_cvs(&self) -> Vec<f64> {
        match &self.noise_cvs {
            Some(cvs) => cvs.clone(),
            None => vec![self.base.noise.cv],
        }
    }

    pub fn campaign(&self) -> &CampaignConfig {
        &self.base
    }

    fn noise_len(&self) -> usize {
        self.noise_cvs.as_ref().map_or(1, Vec::len)
    }

    fn noise_cv(&self, i: usize) -> f64 {
        match &self.noise_cvs {
            Some(cvs) => cvs[i],
            None => self.base.noise.cv,
        }
    }

    /// Number of scenarios the matrix describes (never materialized).
    pub fn len(&self) -> usize {
        self.machines.len()
            * self.workloads.len()
            * self.budgets.len()
            * self.rep_policies.len()
            * self.noise_len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode index `i` into its scenario — mixed-radix over
    /// (machine, workload, noise, policy, budget), budget innermost, so
    /// the canonical order keeps campaign-sharing scenarios adjacent.
    pub fn scenario(&self, index: usize) -> Scenario {
        assert!(index < self.len(), "scenario {index} out of range (len {})", self.len());
        let mut i = index;
        let budget = i % self.budgets.len();
        i /= self.budgets.len();
        let policy = i % self.rep_policies.len();
        i /= self.rep_policies.len();
        let noise = i % self.noise_len();
        i /= self.noise_len();
        let workload = i % self.workloads.len();
        let machine = i / self.workloads.len();
        let coords = ScenarioCoords { machine, workload, noise, policy, budget };
        let point = self.rep_policies[policy];
        Scenario {
            index,
            coords,
            entry: self.machines[machine].clone(),
            workload: self.workloads[workload].clone(),
            budget: self.budgets[budget],
            rep_policy: point.policy,
            campaign: CampaignConfig {
                noise: NoiseModel { cv: self.noise_cv(noise) },
                runs_per_config: point.runs_per_config(&self.base),
                ..self.base
            },
        }
    }

    /// Lazily enumerate every scenario in canonical order. Like
    /// [`CampaignPlan::cells`](crate::campaign::CampaignPlan::cells),
    /// this is an index walk — taking the first `k` cells of an
    /// arbitrarily large matrix costs O(k).
    pub fn scenarios(&self) -> impl Iterator<Item = Scenario> + '_ {
        (0..self.len()).map(|i| self.scenario(i))
    }

    /// Split `range` into its campaign groups: runs of consecutive
    /// scenarios that differ only in budget (the innermost axis) and so
    /// share one measured campaign. A shard boundary may cut a group.
    pub fn campaigns(&self, range: Range<usize>) -> impl Iterator<Item = Range<usize>> {
        let (budgets, start, end) = (self.budgets.len(), range.start, range.end);
        range
            .filter(move |&i| i == start || i % budgets == 0)
            .map(move |i| i..((i / budgets + 1) * budgets).min(end))
    }

    /// Content fingerprint of the matrix *axes* (machines, workloads,
    /// budgets, repetition policies, noise levels, base campaign) —
    /// everything that determines what `scenario(i)` decodes to.
    /// Two processes agree on this fingerprint iff they enumerate the
    /// identical scenario space, which is what makes cross-process
    /// sharding safe: [`MatrixReport::merge`] refuses shard reports
    /// whose fingerprints differ.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_str("hmpt-scenario-matrix-v2");
        h.write_u64(self.machines.len() as u64);
        for entry in &self.machines {
            h.write_u64(Fingerprint::of(entry).raw());
        }
        h.write_u64(self.workloads.len() as u64);
        for w in &self.workloads {
            h.write_u64(w.fingerprint().raw());
        }
        h.write_u64(self.budgets.len() as u64);
        for b in &self.budgets {
            match b {
                None => h.write_u8(0),
                Some(bytes) => h.write_u8(1).write_u64(*bytes),
            };
        }
        h.write_u64(self.rep_policies.len() as u64);
        for p in &self.rep_policies {
            match p.policy {
                RepPolicy::Fixed => {
                    h.write_u8(0);
                }
                RepPolicy::ConfidenceTarget { min_reps, max_reps, rel_half_width } => {
                    h.write_u8(1)
                        .write_u64(min_reps as u64)
                        .write_u64(max_reps as u64)
                        .write_f64(rel_half_width);
                }
            }
            match p.reps {
                None => h.write_u8(0),
                Some(n) => h.write_u8(1).write_u64(n as u64),
            };
        }
        let cvs = self.noise_cvs();
        h.write_u64(cvs.len() as u64);
        for cv in cvs {
            h.write_f64(cv);
        }
        h.write_u64(self.base.runs_per_config as u64);
        h.write_f64(self.base.noise.cv);
        h.write_u64(self.base.base_seed);
        Fingerprint::from_raw(h.finish())
    }

    /// Partition the scenario index space into `total` balanced
    /// contiguous shards and return shard `shard` (0-based). Shard sizes
    /// differ by at most one; concatenating shards `0..total` in order
    /// covers `0..len` exactly once. Because `scenario(i)` is O(1), a
    /// shard costs nothing to describe — each process decodes only its
    /// own index range.
    ///
    /// # Panics
    /// If `total == 0` or `shard >= total`.
    pub fn shard(&self, shard: usize, total: usize) -> ShardSpec {
        assert!(total >= 1, "shard count must be at least 1");
        assert!(shard < total, "shard {shard} out of range (total {total})");
        let len = self.len();
        let base = len / total;
        let extra = len % total;
        let start = shard * base + shard.min(extra);
        let end = start + base + usize::from(shard < extra);
        ShardSpec { shard, total, start, end }
    }
}

/// One contiguous slice of a matrix's scenario index space, as produced
/// by [`ScenarioMatrix::shard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// 0-based shard id.
    pub shard: usize,
    /// Total shards in the partition.
    pub total: usize,
    /// First scenario index of this shard (inclusive).
    pub start: usize,
    /// One past the last scenario index of this shard.
    pub end: usize,
}

impl ShardSpec {
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The scenario indices this shard executes.
    pub fn range(&self) -> Range<usize> {
        self.start..self.end
    }
}

/// The budgeted placement decision of one scenario row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BudgetedRow {
    /// The fastest measured configuration fitting the budget.
    pub config: String,
    /// Bytes that configuration places in HBM.
    pub hbm_bytes: Bytes,
    /// Bytes the configuration places in each pool, indexed by pool
    /// index (DDR = 0). Entries sum to the workload footprint —
    /// ungrouped allocations are accounted to DDR, where the shim
    /// leaves them. `None` in pre-N-pool report files, which still
    /// deserialize.
    pub pool_bytes: Option<Vec<Bytes>>,
    /// Its measured speedup over the DDR baseline.
    pub speedup: f64,
    /// How much slower the budgeted optimum is than the unconstrained
    /// one (`max_speedup / speedup`, ≥ 1).
    pub slowdown_vs_best: f64,
    /// The chosen placement respects the budget by two *independent*
    /// accounts: the planner's group-byte arithmetic and the HBM
    /// footprint the allocation shim actually placed during the
    /// configuration's measured runs.
    pub fits: bool,
}

/// One Table-II-style line of the matrix report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioRow {
    pub scenario: usize,
    pub coords: ScenarioCoords,
    pub machine: String,
    /// Content fingerprint of the built machine, the first word of
    /// every campaign cell's cache key.
    pub machine_fingerprint: String,
    pub workload: String,
    pub rep_policy: String,
    pub noise_cv: f64,
    pub budget_bytes: Option<Bytes>,
    pub hbm_capacity_bytes: Bytes,
    /// Total bytes the workload allocates (the mass the per-pool
    /// accounting must conserve). `None` in pre-N-pool report files,
    /// which still deserialize.
    pub footprint_bytes: Option<Bytes>,
    /// Whole-machine capacity of each pool, indexed by pool index
    /// (DDR = 0). `None` in pre-N-pool report files.
    pub pool_capacity_bytes: Option<Vec<Bytes>>,
    /// Sustained HBM socket bandwidth of this machine, GB/s (the
    /// x-coordinate of the speedup-vs-bandwidth view).
    pub hbm_socket_bw_gbs: f64,
    pub max_speedup: f64,
    pub hbm_only_speedup: f64,
    pub usage_90_pct: f64,
    /// Labels of the allocation groups the unconstrained optimum keeps
    /// in HBM.
    pub best_groups: Vec<String>,
    pub budgeted: BudgetedRow,
    pub planned_cells: usize,
    pub executed_cells: usize,
}

impl ScenarioRow {
    /// Fold one executed scenario (its machine and tuning analysis)
    /// into a report row. The budgeted decision reuses the measured
    /// campaign through [`plan_exhaustive`] — no extra runs.
    pub fn build(scenario: &Scenario, machine: &Machine, analysis: &Analysis) -> ScenarioRow {
        let capacity = machine.hbm_capacity();
        let effective = scenario.budget.unwrap_or(capacity).min(capacity);
        let plan = plan_exhaustive(&analysis.campaign, &analysis.groups, effective);
        // `plan_exhaustive` filtered on the planner's own group-byte
        // arithmetic; cross-check against the HBM bytes the allocation
        // shim *measured* during the chosen configuration's runs (an
        // independent accounting — this is what makes `fits`, and the
        // CLI/CI capacity audit on top of it, a real check).
        let footprint_bytes = scenario.workload.footprint();
        let footprint = footprint_bytes as f64;
        let measured_hbm_bytes = analysis
            .campaign
            .get(plan.config)
            .map_or(plan.hbm_bytes as f64, |m| m.hbm_fraction * footprint);
        // Per-pool accounting of the chosen placement. Groups land in
        // the pool their digit names; allocations the grouping pass
        // left out stay in DDR (pool 0), so the vector always sums to
        // the footprint.
        let n_pools = machine.n_pools();
        let mut pool_bytes = plan.config.pool_bytes(&analysis.groups, n_pools);
        let grouped: Bytes = pool_bytes.iter().sum();
        pool_bytes[0] += footprint_bytes.saturating_sub(grouped);
        let pool_capacity_bytes: Vec<Bytes> =
            (0..n_pools).map(|i| machine.pool_capacity(i)).collect();
        let fits = plan.hbm_bytes <= effective
            && measured_hbm_bytes <= effective as f64 * (1.0 + 1e-9)
            && pool_bytes.iter().zip(&pool_capacity_bytes).all(|(b, c)| b <= c);
        let table2 = &analysis.table2;
        let best_groups = analysis
            .groups
            .iter()
            .filter(|g| table2.best_config.contains(g.id))
            .map(|g| g.label.clone())
            .collect();
        ScenarioRow {
            scenario: scenario.index,
            coords: scenario.coords,
            machine: scenario.entry.name.clone(),
            machine_fingerprint: machine.fingerprint().to_string(),
            workload: scenario.workload.name.clone(),
            rep_policy: scenario.rep_policy.label(scenario.campaign.runs_per_config),
            noise_cv: scenario.campaign.noise.cv,
            budget_bytes: scenario.budget,
            hbm_capacity_bytes: capacity,
            footprint_bytes: Some(footprint_bytes),
            pool_capacity_bytes: Some(pool_capacity_bytes),
            hbm_socket_bw_gbs: machine.socket_bw(PoolKind::Hbm, machine.hbm().bw.t_max),
            max_speedup: table2.max_speedup,
            hbm_only_speedup: table2.hbm_only_speedup,
            usage_90_pct: table2.usage_90_pct,
            best_groups,
            budgeted: BudgetedRow {
                config: plan.config.label(),
                hbm_bytes: plan.hbm_bytes,
                pool_bytes: Some(pool_bytes),
                speedup: plan.speedup,
                slowdown_vs_best: table2.max_speedup / plan.speedup,
                fits,
            },
            planned_cells: analysis.campaign.planned_runs,
            executed_cells: analysis.campaign.executed_runs,
        }
    }

    /// Reference rows (first noise level, first repetition policy) feed
    /// the cross-machine views.
    fn is_reference(&self) -> bool {
        self.coords.noise == 0 && self.coords.policy == 0
    }
}

/// One machine's point on a workload's speedup-vs-HBM-bandwidth curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeedupBwPoint {
    pub machine: String,
    pub hbm_socket_bw_gbs: f64,
    pub max_speedup: f64,
}

/// Speedup as a function of HBM bandwidth across the zoo, per workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BwCurveView {
    pub workload: String,
    pub points: Vec<SpeedupBwPoint>,
}

/// One budget's point on a (machine, workload) frontier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontierPoint {
    pub budget_bytes: Option<Bytes>,
    pub hbm_bytes: Bytes,
    pub speedup: f64,
    pub slowdown_vs_best: f64,
}

/// Budget-vs-slowdown frontier of one workload on one machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BudgetFrontier {
    pub machine: String,
    pub workload: String,
    pub points: Vec<FrontierPoint>,
}

/// The allocation groups of one workload whose unconstrained optimum
/// keeps them in HBM on *every* machine of the zoo.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResidentGroups {
    pub workload: String,
    pub groups: Vec<String>,
}

/// Whole-matrix execution statistics.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MatrixStats {
    pub scenarios: usize,
    /// Sum of the rows' `planned_cells`.
    pub planned_cells: u64,
    /// Sum of the rows' `executed_cells` (a campaign read by k budget rows counts k times).
    pub executed_cells: u64,
    /// Shared-cache traffic of the whole matrix (each campaign group
    /// looks up each of its cells once).
    pub cache: CacheStats,
    pub wall_s: f64,
    pub scenarios_per_s: f64,
}

/// What one shard of a sharded matrix run produces: its slice of rows
/// plus enough identity to be merged safely. Cross-machine views are
/// *not* derived per shard — a shard may hold only part of a curve or
/// frontier — they are re-derived from the union of rows by
/// [`MatrixReport::merge`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardReport {
    /// 0-based shard id within the partition.
    pub shard: usize,
    /// Total shards in the partition.
    pub total_shards: usize,
    /// Identity of what this shard ran (hex): producers combine
    /// [`ScenarioMatrix::fingerprint`] with a fingerprint of the
    /// execution settings that determine row bits (see
    /// `hmpt_fleet::matrix::run_matrix_sharded`) — merge refuses to
    /// combine shards of different matrices or inconsistent
    /// configurations.
    pub matrix_fingerprint: String,
    pub rows: Vec<ScenarioRow>,
    pub stats: MatrixStats,
}

impl ShardReport {
    /// Bitwise equality of everything execution determines (same
    /// contract as [`MatrixReport::bit_identical`]).
    pub fn bit_identical(&self, other: &ShardReport) -> bool {
        self.shard == other.shard
            && self.total_shards == other.total_shards
            && self.matrix_fingerprint == other.matrix_fingerprint
            && rows_bit_identical(&self.rows, &other.rows)
    }
}

/// Why shard reports could not be merged into a matrix report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    NoShards,
    /// Two shard reports fingerprint different matrices.
    MatrixMismatch {
        expected: String,
        found: String,
        shard: usize,
    },
    /// A shard disagrees about how many shards the partition has.
    TotalMismatch {
        expected: usize,
        found: usize,
        shard: usize,
    },
    ShardOutOfRange {
        shard: usize,
        total: usize,
    },
    DuplicateShard {
        shard: usize,
    },
    MissingShards {
        missing: Vec<usize>,
        total: usize,
    },
    /// Two shards claim the same scenario index (overlapping ranges).
    DuplicateRow {
        scenario: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoShards => write!(f, "no shard reports to merge"),
            MergeError::MatrixMismatch { expected, found, shard } => write!(
                f,
                "shard {shard} ran matrix {found}, other shards ran {expected} — \
                 shard reports of different matrices cannot be merged"
            ),
            MergeError::TotalMismatch { expected, found, shard } => {
                write!(f, "shard {shard} claims {found} total shards, others claim {expected}")
            }
            MergeError::ShardOutOfRange { shard, total } => {
                write!(f, "shard id {shard} out of range for a {total}-shard partition")
            }
            MergeError::DuplicateShard { shard } => {
                write!(f, "shard {shard} appears more than once")
            }
            MergeError::MissingShards { missing, total } => {
                write!(f, "partition of {total} is missing shard(s) {missing:?}")
            }
            MergeError::DuplicateRow { scenario } => {
                write!(f, "scenario {scenario} reported by more than one shard")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Every row's chosen placement respects its budget and its machine's
/// per-pool capacities, and its per-pool byte accounting conserves the
/// workload footprint — the audit behind [`MatrixReport::capacity_ok`],
/// shared with bare shard rows. The per-pool clauses vacuously pass on
/// rows deserialized from pre-N-pool report files (absent vectors).
pub fn rows_capacity_ok(rows: &[ScenarioRow]) -> bool {
    rows.iter().all(|r| {
        let pool_bytes = r.budgeted.pool_bytes.as_deref().unwrap_or(&[]);
        let pool_caps = r.pool_capacity_bytes.as_deref().unwrap_or(&[]);
        r.budgeted.fits
            && r.budgeted.hbm_bytes <= r.hbm_capacity_bytes
            && r.budget_bytes.is_none_or(|b| r.budgeted.hbm_bytes <= b)
            && pool_bytes.iter().zip(pool_caps).all(|(b, c)| b <= c)
            && (pool_bytes.is_empty()
                || Some(pool_bytes.iter().sum::<Bytes>()) == r.footprint_bytes)
    })
}

/// Bitwise equality of everything execution determines about two row
/// sets (wall-clock and cache statistics excluded — they legitimately
/// differ between execution strategies and shard partitions).
pub fn rows_bit_identical(a: &[ScenarioRow], b: &[ScenarioRow]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(a, b)| {
            a.scenario == b.scenario
                && a.machine == b.machine
                && a.machine_fingerprint == b.machine_fingerprint
                && a.workload == b.workload
                && a.max_speedup.to_bits() == b.max_speedup.to_bits()
                && a.hbm_only_speedup.to_bits() == b.hbm_only_speedup.to_bits()
                && a.usage_90_pct.to_bits() == b.usage_90_pct.to_bits()
                && a.best_groups == b.best_groups
                && a.budgeted.config == b.budgeted.config
                && a.budgeted.hbm_bytes == b.budgeted.hbm_bytes
                && a.budgeted.pool_bytes == b.budgeted.pool_bytes
                && a.budgeted.speedup.to_bits() == b.budgeted.speedup.to_bits()
                && a.planned_cells == b.planned_cells
                && a.executed_cells == b.executed_cells
        })
}

/// Per-shard execution accounting preserved through a merge. A merged
/// [`MatrixStats`] necessarily sums across shards; these rollups keep
/// the per-shard wall-time, executed-cell, and cache hit/miss
/// breakdowns that the sum would otherwise destroy — the difference
/// between "the partition spent 240 ms" and "shard 2 ran cold while
/// shards 0 and 1 warm-started".
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardRollup {
    /// 0-based shard id within the partition.
    pub shard: usize,
    /// Scenario rows this shard produced.
    pub scenarios: usize,
    /// Cells this shard's plans could have executed.
    pub planned_cells: u64,
    /// Cells this shard actually evaluated (hits + simulated runs).
    pub executed_cells: u64,
    /// What this shard's own cache saw.
    pub cache: CacheStats,
    /// This shard's own wall-clock seconds.
    pub wall_s: f64,
}

/// Everything a scenario-matrix run produces: per-scenario rows plus
/// the cross-machine views derived from them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixReport {
    pub scenarios: Vec<ScenarioRow>,
    pub bw_curves: Vec<BwCurveView>,
    pub frontiers: Vec<BudgetFrontier>,
    pub resident_groups: Vec<ResidentGroups>,
    pub stats: MatrixStats,
    /// Per-shard breakdowns, present only on reports produced by
    /// [`MatrixReport::merge`] (`None` for single-process runs; absent
    /// in pre-rollup report files, which still deserialize).
    pub shards: Option<Vec<ShardRollup>>,
    /// Content fingerprint of the campaign spec that produced this
    /// report, stamped by the spec-driven entry points
    /// (`hmpt_fleet::api`). `None` on reports assembled below that
    /// layer and in pre-stamp report files, which still deserialize.
    /// Excluded from [`MatrixReport::bit_identical`] — provenance, not
    /// a result bit.
    pub spec_fingerprint: Option<String>,
}

impl MatrixReport {
    /// Derive the cross-machine views from executed rows. Views use the
    /// *reference* rows (first noise level and repetition policy); the
    /// bandwidth curve and resident-group views additionally fix the
    /// first budget so every machine contributes exactly one row.
    pub fn assemble(rows: Vec<ScenarioRow>, stats: MatrixStats) -> MatrixReport {
        let mut bw_curves: Vec<BwCurveView> = Vec::new();
        let mut frontiers: Vec<BudgetFrontier> = Vec::new();
        let mut resident: Vec<(String, Vec<String>)> = Vec::new();

        for row in rows.iter().filter(|r| r.is_reference()) {
            if row.coords.budget == 0 {
                // Speedup-vs-bandwidth: one point per machine per workload.
                match bw_curves.iter_mut().find(|c| c.workload == row.workload) {
                    Some(curve) => curve.points.push(SpeedupBwPoint {
                        machine: row.machine.clone(),
                        hbm_socket_bw_gbs: row.hbm_socket_bw_gbs,
                        max_speedup: row.max_speedup,
                    }),
                    None => bw_curves.push(BwCurveView {
                        workload: row.workload.clone(),
                        points: vec![SpeedupBwPoint {
                            machine: row.machine.clone(),
                            hbm_socket_bw_gbs: row.hbm_socket_bw_gbs,
                            max_speedup: row.max_speedup,
                        }],
                    }),
                }
                // HBM-resident groups: intersect the optimum's group
                // set across machines, keeping first-machine order.
                match resident.iter_mut().find(|(w, _)| *w == row.workload) {
                    Some((_, groups)) => groups.retain(|g| row.best_groups.contains(g)),
                    None => resident.push((row.workload.clone(), row.best_groups.clone())),
                }
            }
            // Budget frontier: one point per budget per (machine, workload).
            let point = FrontierPoint {
                budget_bytes: row.budget_bytes,
                hbm_bytes: row.budgeted.hbm_bytes,
                speedup: row.budgeted.speedup,
                slowdown_vs_best: row.budgeted.slowdown_vs_best,
            };
            match frontiers
                .iter_mut()
                .find(|fr| fr.machine == row.machine && fr.workload == row.workload)
            {
                Some(frontier) => frontier.points.push(point),
                None => frontiers.push(BudgetFrontier {
                    machine: row.machine.clone(),
                    workload: row.workload.clone(),
                    points: vec![point],
                }),
            }
        }

        MatrixReport {
            scenarios: rows,
            bw_curves,
            frontiers,
            resident_groups: resident
                .into_iter()
                .map(|(workload, groups)| ResidentGroups { workload, groups })
                .collect(),
            stats,
            shards: None,
            spec_fingerprint: None,
        }
    }

    /// Reassemble a full matrix report from the shard reports of one
    /// partition. Validates that every shard ran the same matrix (by
    /// fingerprint), that the partition is complete and non-overlapping
    /// (every shard id `0..total` exactly once, every scenario index at
    /// most once), then re-derives the cross-machine views from the
    /// union of rows in canonical scenario order.
    ///
    /// The merged rows and views are **bit-identical** to an unsharded
    /// [`MatrixReport::assemble`] over the same execution results
    /// (property-tested in `tests/scenario_properties.rs`); statistics
    /// are summed, so `planned_cells`/`executed_cells` match the
    /// unsharded run too, while cache counters reflect what each
    /// shard's *own* cache saw (cells shared by scenarios split across
    /// shard boundaries are simulated once per shard, not once
    /// globally — exactly the cost sharding pays without a shared
    /// snapshot; see `hmpt_core::store`). The per-shard wall-time,
    /// executed-cell, and hit/miss breakdowns the sum destroys are
    /// preserved in [`MatrixReport::shards`].
    pub fn merge(shards: &[ShardReport]) -> Result<MatrixReport, MergeError> {
        let first = shards.first().ok_or(MergeError::NoShards)?;
        let total = first.total_shards;
        let fingerprint = &first.matrix_fingerprint;
        // `total` comes from an untrusted (possibly hand-edited or
        // bit-rotted) shard file — validate without allocating
        // anything proportional to it.
        let mut seen = std::collections::HashSet::new();
        for s in shards {
            if s.matrix_fingerprint != *fingerprint {
                return Err(MergeError::MatrixMismatch {
                    expected: fingerprint.clone(),
                    found: s.matrix_fingerprint.clone(),
                    shard: s.shard,
                });
            }
            if s.total_shards != total {
                return Err(MergeError::TotalMismatch {
                    expected: total,
                    found: s.total_shards,
                    shard: s.shard,
                });
            }
            if s.shard >= total {
                return Err(MergeError::ShardOutOfRange { shard: s.shard, total });
            }
            if !seen.insert(s.shard) {
                return Err(MergeError::DuplicateShard { shard: s.shard });
            }
        }
        if seen.len() != total {
            // List a bounded sample of the gaps (an absurd `total`
            // would otherwise enumerate billions of ids).
            let missing: Vec<usize> = (0..total).filter(|i| !seen.contains(i)).take(32).collect();
            return Err(MergeError::MissingShards { missing, total });
        }

        let mut rows: Vec<ScenarioRow> =
            shards.iter().flat_map(|s| s.rows.iter().cloned()).collect();
        rows.sort_by_key(|r| r.scenario);
        if let Some(w) = rows.windows(2).find(|w| w[0].scenario == w[1].scenario) {
            return Err(MergeError::DuplicateRow { scenario: w[0].scenario });
        }

        let planned = shards.iter().map(|s| s.stats.planned_cells).sum();
        let executed = shards.iter().map(|s| s.stats.executed_cells).sum();
        let cache = shards.iter().fold(CacheStats::default(), |acc, s| CacheStats {
            hits: acc.hits + s.stats.cache.hits,
            misses: acc.misses + s.stats.cache.misses,
            entries: acc.entries + s.stats.cache.entries,
        });
        // Wall-clock sums across shards: total compute spent, not
        // end-to-end latency (shards run concurrently).
        let wall_s = shards.iter().map(|s| s.stats.wall_s).sum::<f64>();
        let stats = MatrixStats {
            scenarios: rows.len(),
            planned_cells: planned,
            executed_cells: executed,
            cache,
            wall_s,
            scenarios_per_s: if wall_s > 0.0 { rows.len() as f64 / wall_s } else { 0.0 },
        };
        // The summed stats above lose the per-shard shape of the run;
        // keep it, ordered by shard id, so a merged report can still
        // say which shard ran cold and which warm-started.
        let mut rollups: Vec<ShardRollup> = shards
            .iter()
            .map(|s| ShardRollup {
                shard: s.shard,
                scenarios: s.stats.scenarios,
                planned_cells: s.stats.planned_cells,
                executed_cells: s.stats.executed_cells,
                cache: s.stats.cache,
                wall_s: s.stats.wall_s,
            })
            .collect();
        rollups.sort_by_key(|r| r.shard);
        let mut report = MatrixReport::assemble(rows, stats);
        report.shards = Some(rollups);
        Ok(report)
    }

    /// Bitwise equality of everything execution determines — used to
    /// assert serial, parallel, cached, and sharded-then-merged matrix
    /// runs agree exactly. Wall-clock and cache statistics are excluded
    /// (they legitimately differ between execution strategies).
    pub fn bit_identical(&self, other: &MatrixReport) -> bool {
        rows_bit_identical(&self.scenarios, &other.scenarios)
    }

    /// Every scenario's chosen placement respects its budget and its
    /// machine's HBM capacity.
    pub fn capacity_ok(&self) -> bool {
        rows_capacity_ok(&self.scenarios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmpt_sim::units::gib;
    use hmpt_sim::zoo::{scale_hbm_bw, Preset};

    fn small_matrix() -> ScenarioMatrix {
        let zoo = Zoo::parse("xeon-max,hbm-flat").unwrap();
        let workloads =
            vec![hmpt_workloads::npb::mg::workload(), hmpt_workloads::npb::is::workload()];
        ScenarioMatrix::new(zoo, workloads)
            .with_budgets(vec![None, Some(gib(16)), Some(gib(8))])
            .with_rep_policies(vec![RepPolicy::Fixed, RepPolicy::confidence(0.02, 3)])
            .with_noise_cvs(vec![0.008, 0.0])
    }

    #[test]
    fn len_is_the_axis_product() {
        let m = small_matrix();
        assert_eq!(m.len(), 2 * 2 * 3 * 2 * 2);
        assert!(!m.is_empty());
        assert_eq!(m.scenarios().count(), m.len());
    }

    #[test]
    fn enumeration_is_deterministic_and_duplicate_free() {
        let m = small_matrix();
        let a: Vec<ScenarioCoords> = m.scenarios().map(|s| s.coords).collect();
        let b: Vec<ScenarioCoords> = m.scenarios().map(|s| s.coords).collect();
        assert_eq!(a, b, "two enumerations must agree");
        let mut seen = std::collections::HashSet::new();
        for (i, c) in a.iter().enumerate() {
            assert!(
                seen.insert((c.machine, c.workload, c.noise, c.policy, c.budget)),
                "coords {c:?} repeated at {i}"
            );
        }
        assert_eq!(seen.len(), m.len());
    }

    #[test]
    fn index_decode_matches_iterator_order() {
        let m = small_matrix();
        for (i, s) in m.scenarios().enumerate() {
            let direct = m.scenario(i);
            assert_eq!(s.index, i);
            assert_eq!(direct.coords, s.coords);
            assert_eq!(direct.label(), s.label());
        }
    }

    #[test]
    fn budget_is_the_innermost_axis() {
        let m = small_matrix();
        let s0 = m.scenario(0);
        let s1 = m.scenario(1);
        // Adjacent scenarios share the campaign (machine, workload,
        // noise, policy) and differ only in budget.
        assert_eq!(s0.entry, s1.entry);
        assert_eq!(s0.workload.name, s1.workload.name);
        assert_eq!(s0.rep_policy, s1.rep_policy);
        assert_eq!(s0.campaign.noise.cv, s1.campaign.noise.cv);
        assert_ne!(s0.budget, s1.budget);
    }

    #[test]
    fn campaign_groups_tile_a_range_at_budget_boundaries() {
        let m = small_matrix(); // 3 budgets innermost
        let groups = |r: Range<usize>| m.campaigns(r).collect::<Vec<_>>();
        assert_eq!(groups(0..7), vec![0..3, 3..6, 6..7]);
        assert_eq!(groups(1..7), vec![1..3, 3..6, 6..7], "a shard boundary cuts a group");
        assert_eq!(groups(4..5), vec![4..5]);
        assert!(groups(3..3).is_empty());
        // Over the whole matrix, every group is one campaign: its
        // scenarios differ only in budget, and consecutive groups tile
        // the index space.
        let all = groups(0..m.len());
        assert_eq!(all.len(), m.len() / 3);
        for (k, g) in all.iter().enumerate() {
            assert_eq!(*g, 3 * k..3 * k + 3);
            let coords: Vec<ScenarioCoords> = g.clone().map(|i| m.scenario(i).coords).collect();
            assert!(coords.iter().all(|c| ScenarioCoords { budget: 0, ..*c } == coords[0]));
        }
    }

    #[test]
    fn noise_axis_overrides_the_base_campaign() {
        let m = small_matrix();
        let cvs: std::collections::HashSet<u64> =
            m.scenarios().map(|s| s.campaign.noise.cv.to_bits()).collect();
        assert_eq!(cvs.len(), 2);
        // Defaulted noise axis follows the base campaign.
        let plain = ScenarioMatrix::new(Zoo::standard(), vec![]);
        assert_eq!(plain.noise_cvs(), vec![CampaignConfig::default().noise.cv]);
        assert!(plain.is_empty(), "no workloads, no scenarios");
    }

    #[test]
    fn enumeration_is_lazy_for_huge_matrices() {
        // 16 machines × 1 workload × 10k budgets × 2 policies × 100
        // noise levels = 32M scenarios; taking three must be instant.
        let zoo = scale_hbm_bw(
            Preset::XeonMaxSnc4,
            &(1..=16).map(|i| i as f64 / 16.0).collect::<Vec<_>>(),
        );
        let m = ScenarioMatrix::new(zoo, vec![hmpt_workloads::npb::mg::workload()])
            .with_budgets((0..10_000).map(|i| Some(gib(1) + i)).collect())
            .with_rep_policies(vec![RepPolicy::Fixed, RepPolicy::confidence(0.02, 3)])
            .with_noise_cvs((0..100).map(|i| i as f64 * 1e-4).collect());
        assert_eq!(m.len(), 16 * 10_000 * 2 * 100);
        let first: Vec<Scenario> = m.scenarios().take(3).collect();
        assert_eq!(first.len(), 3);
        assert_eq!(first[2].coords.budget, 2);
        // And the far end decodes directly, without walking there.
        let last = m.scenario(m.len() - 1);
        assert_eq!(last.coords.machine, 15);
        assert_eq!(last.coords.budget, 9_999);
    }

    fn synthetic_row(
        machine: &str,
        workload: &str,
        coords: ScenarioCoords,
        budget: Option<Bytes>,
        bw: f64,
        speedup: f64,
        best_groups: &[&str],
    ) -> ScenarioRow {
        ScenarioRow {
            scenario: 0,
            coords,
            machine: machine.to_string(),
            machine_fingerprint: format!("fp-{machine}"),
            workload: workload.to_string(),
            rep_policy: "fixed×3".to_string(),
            noise_cv: 0.008,
            budget_bytes: budget,
            hbm_capacity_bytes: gib(128),
            footprint_bytes: Some(gib(40)),
            pool_capacity_bytes: Some(vec![gib(1024), gib(128)]),
            hbm_socket_bw_gbs: bw,
            max_speedup: speedup,
            hbm_only_speedup: speedup,
            usage_90_pct: 70.0,
            best_groups: best_groups.iter().map(|s| s.to_string()).collect(),
            budgeted: BudgetedRow {
                config: "[0]".to_string(),
                hbm_bytes: budget.unwrap_or(gib(20)).min(gib(20)),
                pool_bytes: {
                    let hbm = budget.unwrap_or(gib(20)).min(gib(20));
                    Some(vec![gib(40) - hbm, hbm])
                },
                speedup: speedup * 0.9,
                slowdown_vs_best: 1.0 / 0.9,
                fits: true,
            },
            planned_cells: 24,
            executed_cells: 24,
        }
    }

    #[test]
    fn assemble_derives_the_cross_machine_views() {
        let c = |m, b| ScenarioCoords { machine: m, workload: 0, noise: 0, policy: 0, budget: b };
        let rows = vec![
            synthetic_row("fast", "mg.D", c(0, 0), None, 700.0, 2.3, &["u", "r"]),
            synthetic_row("fast", "mg.D", c(0, 1), Some(gib(8)), 700.0, 2.3, &["u", "r"]),
            synthetic_row("slow", "mg.D", c(1, 0), None, 350.0, 1.6, &["r", "v"]),
            synthetic_row("slow", "mg.D", c(1, 1), Some(gib(8)), 350.0, 1.6, &["r", "v"]),
        ];
        let stats = MatrixStats {
            scenarios: rows.len(),
            planned_cells: 96,
            executed_cells: 96,
            cache: CacheStats::default(),
            wall_s: 1.0,
            scenarios_per_s: 4.0,
        };
        let report = MatrixReport::assemble(rows, stats);

        assert_eq!(report.bw_curves.len(), 1);
        let curve = &report.bw_curves[0];
        assert_eq!(curve.workload, "mg.D");
        assert_eq!(curve.points.len(), 2, "one point per machine");
        assert_eq!(curve.points[0].machine, "fast");
        assert!(curve.points[0].max_speedup > curve.points[1].max_speedup);

        assert_eq!(report.frontiers.len(), 2, "one frontier per (machine, workload)");
        assert_eq!(report.frontiers[0].points.len(), 2, "one point per budget");

        assert_eq!(report.resident_groups.len(), 1);
        // Only `r` stays HBM-resident on both machines.
        assert_eq!(report.resident_groups[0].groups, vec!["r".to_string()]);

        assert!(report.capacity_ok());
        assert!(report.bit_identical(&report.clone()));
    }

    #[test]
    fn bit_identical_detects_any_result_drift() {
        let c = ScenarioCoords { machine: 0, workload: 0, noise: 0, policy: 0, budget: 0 };
        let rows = vec![synthetic_row("m", "w", c, None, 700.0, 2.0, &[])];
        let stats = MatrixStats {
            scenarios: 1,
            planned_cells: 1,
            executed_cells: 1,
            cache: CacheStats::default(),
            wall_s: 0.1,
            scenarios_per_s: 10.0,
        };
        let a = MatrixReport::assemble(rows.clone(), stats);
        let mut drifted_rows = rows;
        drifted_rows[0].max_speedup += 1e-15;
        let b = MatrixReport::assemble(drifted_rows, stats);
        assert!(!a.bit_identical(&b));
    }

    #[test]
    fn capacity_check_catches_over_budget_plans() {
        let c = ScenarioCoords { machine: 0, workload: 0, noise: 0, policy: 0, budget: 0 };
        let mut row = synthetic_row("m", "w", c, Some(gib(8)), 700.0, 2.0, &[]);
        row.budgeted.hbm_bytes = gib(9);
        let stats = MatrixStats {
            scenarios: 1,
            planned_cells: 1,
            executed_cells: 1,
            cache: CacheStats::default(),
            wall_s: 0.1,
            scenarios_per_s: 10.0,
        };
        let report = MatrixReport::assemble(vec![row], stats);
        assert!(!report.capacity_ok());
    }

    #[test]
    fn shards_partition_the_index_space_exactly() {
        let m = small_matrix();
        for total in 1..=8 {
            let shards: Vec<ShardSpec> = (0..total).map(|k| m.shard(k, total)).collect();
            assert_eq!(shards[0].start, 0);
            assert_eq!(shards[total - 1].end, m.len());
            for w in shards.windows(2) {
                assert_eq!(w[0].end, w[1].start, "shards must be contiguous");
            }
            let (min, max) = (
                shards.iter().map(ShardSpec::len).min().unwrap(),
                shards.iter().map(ShardSpec::len).max().unwrap(),
            );
            assert!(max - min <= 1, "balanced within one scenario");
            assert_eq!(shards.iter().map(ShardSpec::len).sum::<usize>(), m.len());
        }
        // More shards than scenarios: the tail shards are empty, the
        // partition still covers everything exactly once.
        let tiny = ScenarioMatrix::new(
            Zoo::parse("xeon-max").unwrap(),
            vec![hmpt_workloads::npb::mg::workload()],
        );
        assert_eq!(tiny.len(), 1);
        assert_eq!(tiny.shard(0, 8).len(), 1);
        assert!(tiny.shard(7, 8).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_must_be_in_range() {
        small_matrix().shard(3, 3);
    }

    #[test]
    fn matrix_fingerprint_tracks_every_axis() {
        let base = small_matrix();
        let fp = base.fingerprint();
        assert_eq!(fp, small_matrix().fingerprint(), "fingerprint is stable");
        assert_ne!(fp, small_matrix().with_budgets(vec![None]).fingerprint());
        assert_ne!(fp, small_matrix().with_noise_cvs(vec![0.008]).fingerprint());
        assert_ne!(fp, small_matrix().with_rep_policies(vec![RepPolicy::Fixed]).fingerprint());
        assert_ne!(
            fp,
            small_matrix()
                .with_campaign(CampaignConfig { base_seed: 99, ..CampaignConfig::default() })
                .fingerprint()
        );
        let zoo = Zoo::parse("xeon-max").unwrap();
        assert_ne!(
            fp,
            ScenarioMatrix::new(zoo, vec![hmpt_workloads::npb::mg::workload()]).fingerprint()
        );
    }

    fn shard_report(shard: usize, total: usize, fp: &str, rows: Vec<ScenarioRow>) -> ShardReport {
        let stats = MatrixStats {
            scenarios: rows.len(),
            planned_cells: 10,
            executed_cells: 8,
            cache: CacheStats { hits: 2, misses: 8, entries: 8 },
            wall_s: 0.5,
            scenarios_per_s: 2.0,
        };
        ShardReport { shard, total_shards: total, matrix_fingerprint: fp.to_string(), rows, stats }
    }

    #[test]
    fn merge_reassembles_rows_in_scenario_order_and_sums_stats() {
        let c = |m, b| ScenarioCoords { machine: m, workload: 0, noise: 0, policy: 0, budget: b };
        let mut r0 = synthetic_row("fast", "mg.D", c(0, 0), None, 700.0, 2.3, &["u", "r"]);
        r0.scenario = 0;
        let mut r1 = synthetic_row("fast", "mg.D", c(0, 1), Some(gib(8)), 700.0, 2.3, &["u", "r"]);
        r1.scenario = 1;
        let mut r2 = synthetic_row("slow", "mg.D", c(1, 0), None, 350.0, 1.6, &["r", "v"]);
        r2.scenario = 2;
        let mut r3 = synthetic_row("slow", "mg.D", c(1, 1), Some(gib(8)), 350.0, 1.6, &["r", "v"]);
        r3.scenario = 3;

        // Shards given out of order, rows interleaved across machines.
        let shards = vec![
            shard_report(1, 2, "fp", vec![r2.clone(), r3.clone()]),
            shard_report(0, 2, "fp", vec![r0.clone(), r1.clone()]),
        ];
        let merged = MatrixReport::merge(&shards).unwrap();
        assert_eq!(
            merged.scenarios.iter().map(|r| r.scenario).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(merged.stats.scenarios, 4);
        assert_eq!(merged.stats.planned_cells, 20);
        assert_eq!(merged.stats.executed_cells, 16);
        assert_eq!(merged.stats.cache.hits, 4);
        assert_eq!(merged.stats.cache.misses, 16);
        assert!((merged.stats.wall_s - 1.0).abs() < 1e-12);

        // The per-shard breakdowns survive the merge, ordered by shard
        // id regardless of input order.
        let rollups = merged.shards.as_ref().expect("merge keeps per-shard rollups");
        assert_eq!(rollups.iter().map(|r| r.shard).collect::<Vec<_>>(), vec![0, 1]);
        for r in rollups {
            assert_eq!(r.scenarios, 2);
            assert_eq!(r.planned_cells, 10);
            assert_eq!(r.executed_cells, 8);
            assert_eq!((r.cache.hits, r.cache.misses), (2, 8));
            assert!((r.wall_s - 0.5).abs() < 1e-12);
        }

        // The merged views equal an unsharded assemble over the rows.
        let unsharded = MatrixReport::assemble(vec![r0, r1, r2, r3], merged.stats);
        assert!(merged.bit_identical(&unsharded));
        assert_eq!(merged.bw_curves.len(), unsharded.bw_curves.len());
        assert_eq!(merged.frontiers.len(), unsharded.frontiers.len());
        assert_eq!(merged.resident_groups[0].groups, unsharded.resident_groups[0].groups);
    }

    #[test]
    fn merge_rejects_inconsistent_partitions() {
        let c = ScenarioCoords { machine: 0, workload: 0, noise: 0, policy: 0, budget: 0 };
        let row = || synthetic_row("m", "w", c, None, 700.0, 2.0, &[]);

        assert_eq!(MatrixReport::merge(&[]).unwrap_err(), MergeError::NoShards);
        assert!(matches!(
            MatrixReport::merge(&[
                shard_report(0, 2, "fp-a", vec![row()]),
                shard_report(1, 2, "fp-b", vec![]),
            ]),
            Err(MergeError::MatrixMismatch { .. })
        ));
        assert!(matches!(
            MatrixReport::merge(&[
                shard_report(0, 2, "fp", vec![row()]),
                shard_report(1, 3, "fp", vec![]),
            ]),
            Err(MergeError::TotalMismatch { .. })
        ));
        assert!(matches!(
            MatrixReport::merge(&[shard_report(5, 2, "fp", vec![row()])]),
            Err(MergeError::ShardOutOfRange { .. })
        ));
        assert!(matches!(
            MatrixReport::merge(&[
                shard_report(0, 2, "fp", vec![row()]),
                shard_report(0, 2, "fp", vec![]),
            ]),
            Err(MergeError::DuplicateShard { shard: 0 })
        ));
        assert_eq!(
            MatrixReport::merge(&[shard_report(0, 2, "fp", vec![row()])]).unwrap_err(),
            MergeError::MissingShards { missing: vec![1], total: 2 }
        );
        let mut dup = row();
        dup.scenario = 0;
        assert!(matches!(
            MatrixReport::merge(&[
                shard_report(0, 2, "fp", vec![row()]),
                shard_report(1, 2, "fp", vec![dup]),
            ]),
            Err(MergeError::DuplicateRow { scenario: 0 })
        ));
    }

    #[test]
    fn shard_report_round_trips_through_json() {
        let c = ScenarioCoords { machine: 0, workload: 0, noise: 0, policy: 0, budget: 1 };
        let report = shard_report(
            1,
            3,
            "abcd",
            vec![synthetic_row("m", "w", c, Some(gib(8)), 1.0, 2.0, &["g"])],
        );
        let json = serde_json::to_string(&report).unwrap();
        let back: ShardReport = serde_json::from_str(&json).unwrap();
        assert!(report.bit_identical(&back));
        assert_eq!(back.stats.cache.hits, report.stats.cache.hits);
        assert_eq!(back.rows[0].budget_bytes, Some(gib(8)));
    }

    #[test]
    fn invalid_zoo_entries_surface_as_tuner_errors() {
        let zoo = scale_hbm_bw(Preset::XeonMaxSnc4, &[0.0]);
        let m = ScenarioMatrix::new(zoo, vec![hmpt_workloads::npb::mg::workload()]);
        let err = m.scenario(0).build_machine().unwrap_err();
        assert!(matches!(err, TunerError::InvalidMachine { .. }), "{err}");
        assert!(err.to_string().contains("hbm-bw:0"));
    }
}
