//! The campaign-plan IR: *what* to measure, separated from *how* (which
//! executor) and *how much* (which repetition policy) to execute.
//!
//! A [`CampaignPlan`] describes a measurement campaign — machine,
//! workload, allocation groups, configurations, campaign settings — and
//! enumerates its **cells** ([`CellSpec`]: configuration × repetition ×
//! derived seed × content key) lazily. Nothing about the plan runs
//! anything; execution is a separate concern:
//!
//! * [`CampaignPlan::stream`] pulls cells in bounded chunks through a
//!   [`CellExecutor`] and feeds completed cells, in canonical order, to
//!   a [`CellSink`] — a campaign never materializes all `2^|AG|·n`
//!   cells at once.
//! * [`CampaignPlan::execute`] drives the configured [`RepPolicy`]:
//!   [`RepPolicy::Fixed`] streams every planned cell;
//!   [`RepPolicy::ConfidenceTarget`] runs cells in deterministic
//!   *rounds* (one repetition of every still-active configuration per
//!   round) and retires a configuration early once the confidence
//!   interval of its mean runtime is tight enough.
//!
//! Every cell carries its content key. The four fingerprints behind it
//! (machine, spec, allocation groups, noise model) are taken once per
//! plan, together with the hash state of each `⊕` after its constant
//! first word ([`Combiner`]). The configuration word is mixed in once
//! per configuration and the cell seed once per cell, each an 8-byte
//! hash with the bits of [`Fingerprint::combine`]. A configuration's
//! placement plan is a pure function of spec, groups and configuration,
//! so the key never builds one. That keeps consulting the
//! [`MeasurementCache`](crate::cache::MeasurementCache) through a
//! [`CachingExecutor`](crate::exec::CachingExecutor) cheap.
//!
//! Because cells are seed-deterministic, chunking, caching, parallel
//! scheduling, and early stopping never change a result's bits — only
//! how many simulated runs it costs ([`CampaignResult::executed_runs`]
//! vs [`CampaignResult::planned_runs`]).

use std::sync::{Arc, Mutex, OnceLock};

use hmpt_alloc::plan::PlacementPlan;
use hmpt_sim::fingerprint::{Combiner, Fingerprint, WordMap};
use hmpt_sim::machine::Machine;
use hmpt_workloads::model::WorkloadSpec;

use crate::cache::CellKey;
use crate::configspace::Config;
use crate::error::TunerError;
use crate::exec::CellExecutor;
use crate::fastpath::FastCampaign;
use crate::grouping::AllocationGroup;
use crate::measure::{
    assemble_config, measure_cell_with_plan, CampaignConfig, CampaignResult, CellOutcome,
    ConfigMeasurement,
};

/// Default number of cells dispatched to the executor per chunk. Large
/// enough to keep a work-stealing pool busy, small enough that a
/// campaign's in-flight state stays O(chunk), not O(2^|AG|·n).
pub const DEFAULT_CHUNK: usize = 64;

/// Normal-approximation z-score for the ~95 % confidence interval used
/// by [`RepPolicy::ConfidenceTarget`].
const CI_Z: f64 = 1.96;

/// How many repetitions of each configuration to execute.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RepPolicy {
    /// Exactly `runs_per_config` repetitions for every configuration —
    /// the paper's fixed `n`.
    #[default]
    Fixed,
    /// Adaptive sampling in deterministic rounds: every configuration
    /// gets at least `min_reps` repetitions; after each round a
    /// configuration is retired once the ~95 % CI half-width of its mean
    /// runtime (`z·s/√n`) falls to `rel_half_width` of the mean, and no
    /// configuration exceeds `max_reps`. The retirement decision is a
    /// pure function of the (seed-deterministic) outcomes, so the set of
    /// executed cells — and therefore the result — is bit-identical
    /// across serial, parallel, and cached execution.
    ConfidenceTarget { min_reps: usize, max_reps: usize, rel_half_width: f64 },
}

impl RepPolicy {
    /// A confidence-targeted policy with the customary floor of two
    /// repetitions (one sample has no variance estimate). A `max_reps`
    /// below the floor lowers the floor too — the ceiling always wins.
    pub fn confidence(rel_half_width: f64, max_reps: usize) -> Self {
        RepPolicy::ConfidenceTarget { min_reps: 2, max_reps, rel_half_width }
    }

    /// Upper bound on repetitions per configuration under this policy.
    /// `max_reps` is a hard ceiling: a `min_reps` above it is clamped
    /// down, never the other way around.
    pub fn planned_reps(&self, runs_per_config: usize) -> usize {
        match *self {
            RepPolicy::Fixed => runs_per_config.max(1),
            RepPolicy::ConfidenceTarget { max_reps, .. } => max_reps.max(1),
        }
    }

    /// Parse the declarative spelling of a repetition policy — the
    /// grammar shared by the `--policies` axis flag and the
    /// `CampaignSpec` document:
    ///
    /// * `fixed` — the campaign's `runs_per_config` repetitions;
    /// * `fixed:N` — exactly `N` repetitions (returned as a
    ///   `runs_per_config` override, since [`RepPolicy::Fixed`] itself
    ///   carries no count);
    /// * `ci:T` — confidence-targeted with relative half-width `T` and
    ///   the ceiling `default_max_reps`;
    /// * `ci:T:M` — confidence-targeted with an explicit ceiling `M`.
    ///
    /// Returns the policy plus the optional `runs_per_config` override
    /// a `fixed:N` spelling denotes.
    pub fn from_spec(
        spec: &str,
        default_max_reps: usize,
    ) -> Result<(RepPolicy, Option<usize>), String> {
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        match head {
            "fixed" => match args.as_slice() {
                [] => Ok((RepPolicy::Fixed, None)),
                [n] => {
                    let n: usize = n
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("policy `{spec}`: `{n}` is not a count ≥ 1"))?;
                    Ok((RepPolicy::Fixed, Some(n)))
                }
                _ => Err(format!("policy `{spec}`: `fixed` takes at most one `:N`")),
            },
            "ci" => {
                let (target, max) = match args.as_slice() {
                    [t] => (*t, None),
                    [t, m] => (*t, Some(*m)),
                    _ => {
                        return Err(format!(
                            "policy `{spec}` is not of the form ci:T or ci:T:M (e.g. ci:0.02:5)"
                        ))
                    }
                };
                let target: f64 =
                    target.parse().ok().filter(|t: &f64| t.is_finite() && *t > 0.0).ok_or_else(
                        || format!("policy `{spec}`: `{target}` is not a target > 0"),
                    )?;
                let max =
                    match max {
                        None => default_max_reps.max(1),
                        Some(m) => m.parse().ok().filter(|&m| m >= 1).ok_or_else(|| {
                            format!("policy `{spec}`: `{m}` is not a ceiling ≥ 1")
                        })?,
                    };
                Ok((RepPolicy::confidence(target, max), None))
            }
            other => Err(format!("unknown policy `{other}` (policies: fixed[:N], ci:T[:M])")),
        }
    }

    /// The canonical declarative spelling ([`RepPolicy::from_spec`]'s
    /// inverse for every spec-constructible policy; a hand-built
    /// `min_reps` other than the customary 2 is not spellable and
    /// round-trips to the spelled policy).
    pub fn spec_label(&self, reps_override: Option<usize>) -> String {
        match *self {
            RepPolicy::Fixed => match reps_override {
                None => "fixed".to_string(),
                Some(n) => format!("fixed:{n}"),
            },
            RepPolicy::ConfidenceTarget { max_reps, rel_half_width, .. } => {
                format!("ci:{rel_half_width}:{max_reps}")
            }
        }
    }

    /// Short label for reports (`fixed×3`, `ci(2%)≤5`).
    pub fn label(&self, runs_per_config: usize) -> String {
        match *self {
            RepPolicy::Fixed => format!("fixed×{}", runs_per_config.max(1)),
            RepPolicy::ConfidenceTarget { rel_half_width, .. } => {
                format!("ci({:.3}%)≤{}", rel_half_width * 100.0, self.planned_reps(runs_per_config))
            }
        }
    }
}

/// One cell of a campaign: a single simulated run of one
/// (configuration, repetition) pair, with its derived seed and memoized
/// content key. Cheap to copy; carries everything an executor or cache
/// needs without touching the plan again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    pub config: Config,
    pub rep: usize,
    /// The derived RNG seed ([`CampaignConfig::cell_seed`]).
    pub seed: u64,
    /// Content key for the measurement cache: (machine, spec,
    /// groups ⊕ configuration, noise ⊕ seed) fingerprints.
    pub key: CellKey,
}

/// Receives completed cells, in canonical (enumeration) order, as
/// chunks finish. Implement this to observe or aggregate a streaming
/// campaign without materializing it.
pub trait CellSink {
    fn accept(
        &mut self,
        cell: &CellSpec,
        outcome: Result<CellOutcome, TunerError>,
    ) -> Result<(), TunerError>;
}

/// The configurations a plan covers: the full `P^|AG|` space is kept
/// implicit (a 24-group campaign should not allocate a 16M-entry
/// vector just to know its own shape).
#[derive(Debug, Clone)]
enum ConfigSet {
    Full { n_groups: usize, n_pools: usize },
    Explicit(Vec<Config>),
}

impl ConfigSet {
    fn is_full(&self) -> bool {
        matches!(self, ConfigSet::Full { .. })
    }

    fn len(&self) -> usize {
        match self {
            ConfigSet::Full { n_groups, n_pools } => n_pools.pow(*n_groups as u32),
            ConfigSet::Explicit(v) => v.len(),
        }
    }

    fn get(&self, i: usize) -> Config {
        match self {
            ConfigSet::Full { n_groups, n_pools } => {
                Config::from_rank(i as u64, *n_groups, *n_pools)
            }
            ConfigSet::Explicit(v) => v[i],
        }
    }
}

/// A campaign, planned: lazily enumerable cells plus the memoized
/// fingerprints that make their cache keys cheap.
#[derive(Debug)]
pub struct CampaignPlan<'a> {
    machine: &'a Machine,
    spec: &'a WorkloadSpec,
    groups: &'a [AllocationGroup],
    cfg: CampaignConfig,
    policy: RepPolicy,
    configs: ConfigSet,
    machine_fp: Fingerprint,
    spec_fp: Fingerprint,
    /// `groups_fp ⊕ ·` and `noise_fp ⊕ ·`, with the constant first word
    /// already hashed.
    groups_key: Combiner,
    noise_key: Combiner,
    /// Per-configuration placement plan for the naive pipeline, built
    /// on first touch and shared by all the configuration's repetitions.
    plans: Mutex<WordMap<u64, Arc<PlacementPlan>>>,
    /// Whether [`measure_cell`](Self::measure_cell) may answer through
    /// the batched cold-path kernel. Purely a scheduling choice — the
    /// kernel is bit-identical by contract and the cache keys never see
    /// this flag — so it defaults to on.
    fast_path: bool,
    /// The compiled fast campaign, built on first measured cell.
    /// `Some(None)` records that this campaign cannot be compiled (the
    /// naive path is used without re-probing).
    fast: OnceLock<Option<FastCampaign>>,
}

impl<'a> CampaignPlan<'a> {
    /// Plan the full exhaustive campaign over all `P^|AG|`
    /// configurations, where `P` is the machine's pool count.
    pub fn new(
        machine: &'a Machine,
        spec: &'a WorkloadSpec,
        groups: &'a [AllocationGroup],
        cfg: CampaignConfig,
    ) -> Result<Self, TunerError> {
        let limit = crate::configspace::max_groups_for(machine.n_pools());
        if groups.len() > limit {
            return Err(TunerError::TooManyGroups { groups: groups.len(), limit });
        }
        Ok(Self::with_config_set(
            machine,
            spec,
            groups,
            ConfigSet::Full { n_groups: groups.len(), n_pools: machine.n_pools() },
            cfg,
        ))
    }

    /// Plan a campaign over an explicit configuration subset (ablation
    /// studies, incremental refinement).
    pub fn with_configs(
        machine: &'a Machine,
        spec: &'a WorkloadSpec,
        groups: &'a [AllocationGroup],
        configs: Vec<Config>,
        cfg: CampaignConfig,
    ) -> Self {
        Self::with_config_set(machine, spec, groups, ConfigSet::Explicit(configs), cfg)
    }

    fn with_config_set(
        machine: &'a Machine,
        spec: &'a WorkloadSpec,
        groups: &'a [AllocationGroup],
        configs: ConfigSet,
        cfg: CampaignConfig,
    ) -> Self {
        CampaignPlan {
            machine,
            spec,
            groups,
            cfg,
            policy: RepPolicy::Fixed,
            configs,
            machine_fp: machine.fingerprint(),
            spec_fp: spec.fingerprint(),
            groups_key: Fingerprint::of(groups).combiner(),
            noise_key: Fingerprint::of(&cfg.noise).combiner(),
            plans: Mutex::new(WordMap::default()),
            fast_path: true,
            fast: OnceLock::new(),
        }
    }

    /// Set the repetition policy (default [`RepPolicy::Fixed`]).
    pub fn with_policy(mut self, policy: RepPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable or disable the batched cold-path kernel (default on). Off
    /// forces every cell through the naive per-cell pipeline — useful
    /// for benchmarking and for CI's off/on equivalence check; results
    /// are bit-identical either way.
    pub fn with_fast_path(mut self, on: bool) -> Self {
        self.fast_path = on;
        self
    }

    /// The compiled fast campaign, if enabled and compilable. Built
    /// lazily on the first cell; full campaigns pre-walk the whole
    /// configuration space in Gray-code order while they are at it.
    fn fast(&self) -> Option<&FastCampaign> {
        if !self.fast_path {
            return None;
        }
        self.fast
            .get_or_init(|| {
                let fast = FastCampaign::build(self.machine, self.spec, self.groups, &self.cfg)?;
                if self.configs.is_full() {
                    fast.precompute_full();
                }
                Some(fast)
            })
            .as_ref()
    }

    pub fn groups(&self) -> &'a [AllocationGroup] {
        self.groups
    }

    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    pub fn policy(&self) -> RepPolicy {
        self.policy
    }

    /// Number of configurations the plan covers.
    pub fn config_count(&self) -> usize {
        self.configs.len()
    }

    /// Upper bound on cells this plan can execute.
    pub fn planned_cells(&self) -> usize {
        self.configs.len() * self.policy.planned_reps(self.cfg.runs_per_config)
    }

    /// The cell of one (configuration, repetition) pair, with its
    /// derived seed and content key.
    pub fn cell(&self, config: Config, rep: usize) -> CellSpec {
        self.cell_keyed(config, self.config_key(config), rep)
    }

    /// The `groups_fp ⊕ config` word of a configuration's cell keys,
    /// shared by all its repetitions.
    fn config_key(&self, config: Config) -> Fingerprint {
        self.groups_key.combine(config.0)
    }

    /// [`Self::cell`], given the configuration's [`Self::config_key`].
    fn cell_keyed(&self, config: Config, config_key: Fingerprint, rep: usize) -> CellSpec {
        let seed = self.cfg.cell_seed(config, rep);
        CellSpec {
            config,
            rep,
            seed,
            key: (self.machine_fp, self.spec_fp, config_key, self.noise_key.combine(seed)),
        }
    }

    /// Lazily enumerate every planned cell, configuration-major /
    /// repetition-minor — the campaign's canonical order.
    pub fn cells(&self) -> impl Iterator<Item = CellSpec> + '_ {
        let reps = self.policy.planned_reps(self.cfg.runs_per_config);
        (0..self.configs.len()).flat_map(move |ci| {
            let config = self.configs.get(ci);
            let config_key = self.config_key(config);
            (0..reps).map(move |rep| self.cell_keyed(config, config_key, rep))
        })
    }

    /// Simulate one cell (ignoring any cache; executors interpose
    /// caching around this). Dispatches to the batched cold-path kernel
    /// when it is enabled and the campaign compiles for it; the kernel
    /// is bit-identical to [`Self::measure_cell_naive`] by contract.
    pub fn measure_cell(&self, cell: &CellSpec) -> Result<CellOutcome, TunerError> {
        if let Some(fast) = self.fast() {
            return fast.outcome(cell.config, cell.seed).map_err(TunerError::Alloc);
        }
        self.measure_cell_naive(cell)
    }

    /// Simulate one cell through the full per-cell pipeline (allocate,
    /// resolve, price every phase), bypassing the fast path. The
    /// reference implementation the kernel is verified against.
    pub fn measure_cell_naive(&self, cell: &CellSpec) -> Result<CellOutcome, TunerError> {
        let plan = Arc::clone(
            self.plans
                .lock()
                .expect("plan memo poisoned")
                .entry(cell.config.0)
                .or_insert_with(|| Arc::new(cell.config.plan(self.spec, self.groups))),
        );
        measure_cell_with_plan(self.machine, self.spec, &plan, cell.config, cell.rep, &self.cfg)
    }

    /// Evaluate a batch of cells through an executor.
    pub fn run_cells<E: CellExecutor + ?Sized>(
        &self,
        exec: &E,
        cells: &[CellSpec],
    ) -> Vec<Result<CellOutcome, TunerError>> {
        exec.run_cells(cells, &|c| self.measure_cell(c))
    }

    /// Stream every planned cell through `exec` in chunks of at most
    /// `chunk`, feeding completed cells to `sink` in canonical order.
    /// In-flight state is bounded by the chunk size.
    pub fn stream<E: CellExecutor + ?Sized>(
        &self,
        exec: &E,
        chunk: usize,
        sink: &mut dyn CellSink,
    ) -> Result<(), TunerError> {
        let chunk = chunk.max(1);
        let mut iter = self.cells();
        // An oversized chunk degrades to eager execution; don't let it
        // oversize the buffer too.
        let mut buf: Vec<CellSpec> = Vec::with_capacity(chunk.min(self.planned_cells()));
        loop {
            buf.clear();
            buf.extend(iter.by_ref().take(chunk));
            if buf.is_empty() {
                return Ok(());
            }
            let outcomes = self.run_cells(exec, &buf);
            for (cell, outcome) in buf.iter().zip(outcomes) {
                sink.accept(cell, outcome)?;
            }
        }
    }

    /// Measure one configuration at the campaign's nominal
    /// `runs_per_config` through an executor — the online tuner's probe
    /// path. Probes of configurations the exhaustive campaign already
    /// covered share its cells (same seeds, same keys), so a warmed
    /// cache answers them without simulated runs.
    pub fn measure_config<E: CellExecutor + ?Sized>(
        &self,
        exec: &E,
        config: Config,
    ) -> Result<ConfigMeasurement, TunerError> {
        let reps = self.cfg.runs_per_config.max(1);
        let config_key = self.config_key(config);
        let cells: Vec<CellSpec> =
            (0..reps).map(|rep| self.cell_keyed(config, config_key, rep)).collect();
        let outcomes = self.run_cells(exec, &cells);
        assemble_config(config, &outcomes)
    }

    /// Execute the plan with the default chunk size.
    pub fn execute<E: CellExecutor + ?Sized>(
        &self,
        exec: &E,
    ) -> Result<CampaignResult, TunerError> {
        self.execute_chunked(exec, DEFAULT_CHUNK)
    }

    /// Execute the plan, dispatching at most `chunk` cells to the
    /// executor at a time. The chunk size affects scheduling only —
    /// results are bit-identical for every chunk size.
    pub fn execute_chunked<E: CellExecutor + ?Sized>(
        &self,
        exec: &E,
        chunk: usize,
    ) -> Result<CampaignResult, TunerError> {
        match self.policy {
            RepPolicy::Fixed => self.execute_fixed(exec, chunk),
            RepPolicy::ConfidenceTarget { min_reps, max_reps: _, rel_half_width } => {
                self.execute_adaptive(exec, chunk, min_reps.max(1), rel_half_width)
            }
        }
    }

    fn execute_fixed<E: CellExecutor + ?Sized>(
        &self,
        exec: &E,
        chunk: usize,
    ) -> Result<CampaignResult, TunerError> {
        let reps = self.cfg.runs_per_config.max(1);
        let mut asm = Assembler::new(reps);
        self.stream(exec, chunk, &mut asm)?;
        Ok(CampaignResult::with_accounting(
            asm.measurements,
            reps,
            self.planned_cells(),
            asm.executed,
        ))
    }

    /// Confidence-targeted rounds: round `r` evaluates repetition `r`
    /// of every still-active configuration (chunked through the
    /// executor), then retires configurations whose mean is already
    /// known tightly enough. Deterministic: the active set after each
    /// round is a pure function of seed-deterministic outcomes.
    fn execute_adaptive<E: CellExecutor + ?Sized>(
        &self,
        exec: &E,
        chunk: usize,
        min_reps: usize,
        rel_half_width: f64,
    ) -> Result<CampaignResult, TunerError> {
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Active,
            Retired,
            Infeasible,
        }
        let n_cfg = self.configs.len();
        let max_reps = self.policy.planned_reps(self.cfg.runs_per_config);
        // The ceiling wins over the floor (a min above max never runs
        // extra rounds; below the floor nothing retires early, so every
        // active config simply runs to the ceiling).
        let min_reps = min_reps.min(max_reps);
        let mut state = vec![State::Active; n_cfg];
        let mut outcomes: Vec<Vec<CellOutcome>> = vec![Vec::new(); n_cfg];
        let config_keys: Vec<Fingerprint> =
            (0..n_cfg).map(|ci| self.config_key(self.configs.get(ci))).collect();
        let mut executed = 0usize;
        let chunk = chunk.max(1);

        for rep in 0..max_reps {
            let round: Vec<(usize, CellSpec)> = (0..n_cfg)
                .filter(|&ci| state[ci] == State::Active)
                .map(|ci| (ci, self.cell_keyed(self.configs.get(ci), config_keys[ci], rep)))
                .collect();
            if round.is_empty() {
                break;
            }
            for batch in round.chunks(chunk) {
                let cells: Vec<CellSpec> = batch.iter().map(|(_, c)| *c).collect();
                let results = self.run_cells(exec, &cells);
                executed += cells.len();
                for ((ci, _), outcome) in batch.iter().zip(results) {
                    match outcome {
                        Ok(o) => outcomes[*ci].push(o),
                        Err(TunerError::Alloc(hmpt_alloc::error::AllocError::PoolExhausted {
                            ..
                        })) => {
                            // Infeasible placement: retire immediately —
                            // re-attempting it each round would only
                            // re-fail the allocation.
                            state[*ci] = State::Infeasible;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            let n = rep + 1;
            if n >= min_reps {
                for ci in 0..n_cfg {
                    if state[ci] == State::Active && ci_converged(&outcomes[ci], rel_half_width) {
                        state[ci] = State::Retired;
                    }
                }
            }
        }

        let mut measurements = Vec::new();
        for ci in 0..n_cfg {
            if state[ci] == State::Infeasible {
                continue;
            }
            let cells: Vec<Result<CellOutcome, TunerError>> =
                outcomes[ci].iter().copied().map(Ok).collect();
            measurements.push(assemble_config(self.configs.get(ci), &cells)?);
        }
        Ok(CampaignResult::with_accounting(
            measurements,
            self.cfg.runs_per_config.max(1),
            self.planned_cells(),
            executed,
        ))
    }
}

/// Has this configuration's mean runtime converged: is the ~95 % CI
/// half-width (`z·s/√n`) within `rel_half_width` of the mean? Uses the
/// same mean/variance arithmetic as [`assemble_config`], so the
/// decision is bit-identical across execution strategies.
fn ci_converged(times: &[CellOutcome], rel_half_width: f64) -> bool {
    let n = times.len();
    if n < 2 {
        // One sample has no variance estimate; converged only if the
        // caller allows a single rep and the target tolerates anything.
        return false;
    }
    let nf = n as f64;
    let mean = times.iter().map(|o| o.time_s).sum::<f64>() / nf;
    let var = times.iter().map(|o| (o.time_s - mean) * (o.time_s - mean)).sum::<f64>() / (nf - 1.0);
    let half_width = CI_Z * (var.sqrt() / nf.sqrt());
    half_width <= rel_half_width * mean
}

/// The streaming sink that folds cells into [`ConfigMeasurement`]s: the
/// canonical configuration-major order means at most one configuration
/// is ever buffered.
struct Assembler {
    reps: usize,
    current: Vec<Result<CellOutcome, TunerError>>,
    current_config: Config,
    measurements: Vec<ConfigMeasurement>,
    executed: usize,
}

impl Assembler {
    fn new(reps: usize) -> Self {
        Assembler {
            reps,
            current: Vec::with_capacity(reps),
            current_config: Config::DDR_ONLY,
            measurements: Vec::new(),
            executed: 0,
        }
    }
}

impl CellSink for Assembler {
    fn accept(
        &mut self,
        cell: &CellSpec,
        outcome: Result<CellOutcome, TunerError>,
    ) -> Result<(), TunerError> {
        debug_assert!(
            self.current.is_empty() || self.current_config == cell.config,
            "cells must arrive configuration-major"
        );
        self.current_config = cell.config;
        self.current.push(outcome);
        self.executed += 1;
        if self.current.len() == self.reps {
            match assemble_config(cell.config, &self.current) {
                Ok(m) => self.measurements.push(m),
                Err(TunerError::Alloc(hmpt_alloc::error::AllocError::PoolExhausted { .. })) => {
                    // Infeasible placement on this machine: skip, not
                    // fatal — the baseline is always feasible, so the
                    // campaign always has at least one measurement.
                }
                Err(e) => return Err(e),
            }
            self.current.clear();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configspace::MAX_GROUPS;
    use crate::exec::{CachingExecutor, ExecutorKind};
    use crate::measure::run_campaign;
    use hmpt_sim::machine::xeon_max_9468;

    fn mg_groups() -> (WorkloadSpec, Vec<AllocationGroup>) {
        let spec = hmpt_workloads::npb::mg::workload();
        let groups = (0..3)
            .map(|id| AllocationGroup {
                id,
                label: spec.allocations[id].label.clone(),
                members: vec![id],
                bytes: spec.allocations[id].bytes,
                density: 0.33,
            })
            .collect();
        (spec, groups)
    }

    fn assert_bit_identical(a: &CampaignResult, b: &CampaignResult) {
        assert_eq!(a.measurements.len(), b.measurements.len());
        for (x, y) in a.measurements.iter().zip(&b.measurements) {
            assert_eq!(x.config, y.config);
            assert_eq!(x.mean_s.to_bits(), y.mean_s.to_bits());
            assert_eq!(x.std_s.to_bits(), y.std_s.to_bits());
            assert_eq!(x.hbm_fraction.to_bits(), y.hbm_fraction.to_bits());
        }
    }

    #[test]
    fn cells_enumerate_config_major_with_derived_seeds() {
        let m = xeon_max_9468();
        let (spec, groups) = mg_groups();
        let cfg = CampaignConfig { runs_per_config: 2, ..Default::default() };
        let plan = CampaignPlan::new(&m, &spec, &groups, cfg).unwrap();
        assert_eq!(plan.planned_cells(), 8 * 2);
        let cells: Vec<CellSpec> = plan.cells().collect();
        assert_eq!(cells.len(), 16);
        assert_eq!(cells[0].config, Config(0));
        assert_eq!(cells[1].config, Config(0));
        assert_eq!(cells[2].config, Config(1));
        for c in &cells {
            assert_eq!(c.seed, cfg.cell_seed(c.config, c.rep));
        }
        // Keys are distinct per cell and stable across enumerations.
        let again: Vec<CellSpec> = plan.cells().collect();
        assert_eq!(cells, again);
        let mut keys: Vec<CellKey> = cells.iter().map(|c| c.key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 16);
    }

    #[test]
    fn streamed_cells_carry_the_enumerated_keys() {
        struct Keys(Vec<CellKey>);
        impl CellSink for Keys {
            fn accept(
                &mut self,
                cell: &CellSpec,
                _: Result<CellOutcome, TunerError>,
            ) -> Result<(), TunerError> {
                self.0.push(cell.key);
                Ok(())
            }
        }
        let m = xeon_max_9468();
        let (spec, groups) = mg_groups();
        let plan = CampaignPlan::new(&m, &spec, &groups, CampaignConfig::default()).unwrap();
        let mut sink = Keys(Vec::new());
        plan.stream(&ExecutorKind::Serial, 5, &mut sink).unwrap();
        let enumerated: Vec<CellKey> = plan.cells().map(|c| c.key).collect();
        assert_eq!(sink.0, enumerated, "a plain executor sees the real content keys");
    }

    #[test]
    fn chunked_streaming_is_bit_identical_to_eager_serial() {
        let m = xeon_max_9468();
        let (spec, groups) = mg_groups();
        let cfg = CampaignConfig::default();
        let eager = run_campaign(&m, &spec, &groups, &cfg).unwrap();
        for chunk in [1, 3, 7, 1024] {
            let plan = CampaignPlan::new(&m, &spec, &groups, cfg).unwrap();
            let streamed = plan.execute_chunked(&ExecutorKind::Serial, chunk).unwrap();
            assert_bit_identical(&eager, &streamed);
            assert_eq!(streamed.executed_runs, streamed.planned_runs);
        }
    }

    #[test]
    fn caching_executor_answers_second_pass_without_runs() {
        let m = xeon_max_9468();
        let (spec, groups) = mg_groups();
        let cfg = CampaignConfig::default();
        let cache = Arc::new(crate::cache::MeasurementCache::new());
        let plan = CampaignPlan::new(&m, &spec, &groups, cfg).unwrap();
        let exec = CachingExecutor::new(ExecutorKind::Serial, Arc::clone(&cache));
        let cold = plan.execute(&exec).unwrap();
        assert_eq!(cache.stats().misses as usize, cold.executed_runs);
        let warm = plan.execute(&exec).unwrap();
        assert_eq!(cache.stats().misses as usize, cold.executed_runs, "no new simulated runs");
        assert_bit_identical(&cold, &warm);
        // And the cached result matches the plain uncached campaign.
        let plain = run_campaign(&m, &spec, &groups, &cfg).unwrap();
        assert_bit_identical(&plain, &warm);
    }

    #[test]
    fn confidence_target_runs_fewer_cells_than_fixed() {
        let m = xeon_max_9468();
        let (spec, groups) = mg_groups();
        let cfg = CampaignConfig::default(); // 3 runs, 0.8 % cv noise
        let plan = CampaignPlan::new(&m, &spec, &groups, cfg)
            .unwrap()
            .with_policy(RepPolicy::confidence(0.02, cfg.runs_per_config));
        let r = plan.execute(&ExecutorKind::Serial).unwrap();
        assert_eq!(r.planned_runs, 24);
        assert!(
            r.executed_runs < r.planned_runs,
            "adaptive {} vs planned {}",
            r.executed_runs,
            r.planned_runs
        );
        assert!(r.executed_runs >= 16, "at least min_reps per config");
        assert_eq!(r.measurements.len(), 8);
        // Every mean still lands near the fixed-rep campaign's mean.
        let fixed = run_campaign(&m, &spec, &groups, &cfg).unwrap();
        for (a, f) in r.measurements.iter().zip(&fixed.measurements) {
            assert!((a.mean_s - f.mean_s).abs() / f.mean_s < 0.02);
        }
    }

    #[test]
    fn confidence_target_is_deterministic_across_executors() {
        let m = xeon_max_9468();
        let (spec, groups) = mg_groups();
        let cfg = CampaignConfig::default();
        let policy = RepPolicy::confidence(0.015, 5);
        let serial = CampaignPlan::new(&m, &spec, &groups, cfg)
            .unwrap()
            .with_policy(policy)
            .execute(&ExecutorKind::Serial)
            .unwrap();
        for workers in [2, 3, 7] {
            let par = CampaignPlan::new(&m, &spec, &groups, cfg)
                .unwrap()
                .with_policy(policy)
                .execute(&ExecutorKind::Parallel { workers })
                .unwrap();
            assert_bit_identical(&serial, &par);
            assert_eq!(serial.executed_runs, par.executed_runs, "workers = {workers}");
        }
        // Cached execution retires the same cells too.
        let cache = Arc::new(crate::cache::MeasurementCache::new());
        let cached = CampaignPlan::new(&m, &spec, &groups, cfg)
            .unwrap()
            .with_policy(policy)
            .execute(&CachingExecutor::new(ExecutorKind::parallel(), cache))
            .unwrap();
        assert_bit_identical(&serial, &cached);
        assert_eq!(serial.executed_runs, cached.executed_runs);
    }

    #[test]
    fn noise_free_adaptive_stops_at_the_floor() {
        let m = xeon_max_9468();
        let (spec, groups) = mg_groups();
        let cfg = CampaignConfig {
            runs_per_config: 5,
            noise: hmpt_sim::noise::NoiseModel::none(),
            base_seed: 0,
        };
        let plan = CampaignPlan::new(&m, &spec, &groups, cfg)
            .unwrap()
            .with_policy(RepPolicy::confidence(0.01, 5));
        let r = plan.execute(&ExecutorKind::Serial).unwrap();
        // Zero variance: every config retires right at min_reps = 2.
        assert_eq!(r.executed_runs, 8 * 2);
        assert_eq!(r.planned_runs, 8 * 5);
        assert_eq!(r.cells_skipped(), 8 * 3);
    }

    #[test]
    fn max_reps_is_a_hard_ceiling() {
        let m = xeon_max_9468();
        let (spec, groups) = mg_groups();
        let cfg = CampaignConfig::default();
        // Ceiling below the 2-rep floor: the ceiling wins.
        let policy = RepPolicy::confidence(0.02, 1);
        assert_eq!(policy.planned_reps(cfg.runs_per_config), 1);
        let r = CampaignPlan::new(&m, &spec, &groups, cfg)
            .unwrap()
            .with_policy(policy)
            .execute(&ExecutorKind::Serial)
            .unwrap();
        assert_eq!(r.planned_runs, 8);
        assert_eq!(r.executed_runs, 8, "one repetition per configuration, never more");
    }

    #[test]
    fn policy_labels_render() {
        assert_eq!(RepPolicy::Fixed.label(3), "fixed×3");
        assert!(RepPolicy::confidence(0.02, 5).label(3).contains("ci(2.000%)"));
        assert_eq!(RepPolicy::confidence(0.02, 5).planned_reps(3), 5);
        assert_eq!(RepPolicy::Fixed.planned_reps(0), 1);
    }

    #[test]
    fn policy_specs_parse_and_roundtrip() {
        assert_eq!(RepPolicy::from_spec("fixed", 3).unwrap(), (RepPolicy::Fixed, None));
        assert_eq!(RepPolicy::from_spec("fixed:5", 3).unwrap(), (RepPolicy::Fixed, Some(5)));
        assert_eq!(
            RepPolicy::from_spec("ci:0.02", 4).unwrap(),
            (RepPolicy::confidence(0.02, 4), None)
        );
        assert_eq!(
            RepPolicy::from_spec("ci:0.02:7", 4).unwrap(),
            (RepPolicy::confidence(0.02, 7), None)
        );
        for spec in ["fixed", "fixed:5", "ci:0.02:7"] {
            let (policy, reps) = RepPolicy::from_spec(spec, 3).unwrap();
            assert_eq!(policy.spec_label(reps), spec, "canonical spellings round-trip");
        }
        for bad in ["fixed:0", "fixed:many", "ci", "ci:-1", "ci:0.02:0", "ci:0.1:2:3", "nightly"] {
            assert!(RepPolicy::from_spec(bad, 3).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn explicit_config_subsets_are_supported() {
        let m = xeon_max_9468();
        let (spec, groups) = mg_groups();
        let cfg = CampaignConfig { runs_per_config: 1, ..Default::default() };
        let subset = vec![Config(0), Config(0b111)];
        let plan = CampaignPlan::with_configs(&m, &spec, &groups, subset, cfg);
        let r = plan.execute(&ExecutorKind::Serial).unwrap();
        assert_eq!(r.measurements.len(), 2);
        let full = run_campaign(&m, &spec, &groups, &cfg).unwrap();
        assert_eq!(
            r.get(Config(0b111)).unwrap().mean_s.to_bits(),
            full.get(Config(0b111)).unwrap().mean_s.to_bits()
        );
    }

    #[test]
    fn too_many_groups_is_rejected() {
        let m = xeon_max_9468();
        let (spec, _) = mg_groups();
        let groups: Vec<AllocationGroup> = (0..MAX_GROUPS + 1)
            .map(|id| AllocationGroup {
                id,
                label: format!("g{id}"),
                members: vec![0],
                bytes: 1,
                density: 0.0,
            })
            .collect();
        assert!(matches!(
            CampaignPlan::new(&m, &spec, &groups, CampaignConfig::default()),
            Err(TunerError::TooManyGroups { .. })
        ));
    }
}
