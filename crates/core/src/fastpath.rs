//! The batched, delta-updating campaign evaluator (the cold-path
//! kernel).
//!
//! A campaign is `2^|AG| · n` cells, and the naive path pays the full
//! pipeline per cell: re-allocate the address space, re-resolve every
//! stream, re-derive machine constants, re-walk the phase pipeline —
//! even though repetitions of a configuration differ *only* in a noise
//! draw, and sibling configurations differ in one group's placement.
//! [`FastCampaign`] exploits exactly that redundancy, under a hard
//! bit-identity contract with [`run_once`]:
//!
//! 1. **Rep batching** — each configuration is evaluated once into a
//!    `CellTemplate` (noise-free `model_time` + `hbm_fraction`, or the
//!    exact [`AllocError`] the shim would produce); a repetition is then
//!    one seeded noise draw ([`perturb_model_time`]), which is all
//!    [`run_once`] does with the cell's RNG in an unsampled run.
//! 2. **Sibling delta updates** — the per-phase traffic accumulators of
//!    [`phase_time`](hmpt_sim::cost::phase_time) are exact `u64` sums,
//!    so each group's contribution ([`TrafficDelta`]) can be subtracted
//!    from one pool column and added to the other when the group flips,
//!    bit-safely and in any order. The evaluator keeps one set of live
//!    accumulators and XOR-seeks them between configurations; full
//!    campaigns are pre-walked in Gray-code order (one flip per step)
//!    while results still stream in the campaign's config-major order.
//!    Pointer-chase time is an order-sensitive `f64` sum, so it is
//!    *re-summed* per configuration from per-entry precomputed seconds
//!    in canonical stream order — never delta-updated.
//! 3. **Kernel flattening** — machine constants are hoisted once per
//!    campaign into a [`MachineCtx`]/[`PhaseTerms`], and per-phase chase
//!    and delta tables are laid out as parallel arrays, so the per-step
//!    work is a handful of integer updates plus
//!    [`phase_time_flat`].
//!
//! Feasibility is replayed exactly: allocations are walked in spec
//! order against per-pool page-rounded live counters, producing the
//! same [`AllocError::PoolExhausted`] (same `requested`, same
//! `available`) as the shim's first failing `malloc`.
//!
//! [`FastCampaign::build`] refuses — returning `None`, so callers fall
//! back to the naive path — any input whose semantics the flat replay
//! cannot reproduce: zero-byte allocations (the shim panics on them),
//! overlapping groups or duplicated sites (placement is then not a
//! per-allocation function of the config mask), or group ids outside
//! the `u32` config word.
//!
//! [`run_once`]: hmpt_workloads::runner::run_once

use std::collections::HashSet;
use std::sync::Mutex;

use hmpt_alloc::error::AllocError;
use hmpt_alloc::vspace::PAGE;
use hmpt_sim::fastpath::{phase_time_flat, MachineCtx, PhaseAccum, PhaseTerms, TrafficDelta};
use hmpt_sim::fingerprint::WordMap;
use hmpt_sim::machine::Machine;
use hmpt_sim::noise::NoiseModel;
use hmpt_sim::pool::{PoolKind, MAX_POOLS};
use hmpt_sim::stream::{AccessPattern, ResolvedStream};
use hmpt_workloads::model::WorkloadSpec;
use hmpt_workloads::runner::perturb_model_time;

use crate::configspace::{Config, MAX_GROUPS};
use crate::grouping::AllocationGroup;
use crate::measure::{CampaignConfig, CellOutcome};

/// Group ids a compiled campaign accepts: the bits of a `u32` word.
const WORD_GROUPS: usize = 32;

/// Deterministic per-configuration evaluation, shared by all its
/// repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellTemplate {
    /// Noise-free total model time, seconds.
    model_time: f64,
    hbm_fraction: f64,
}

/// Per-allocation feasibility data, in spec (shim `malloc`) order.
#[derive(Debug, Clone, Copy)]
struct AllocInfo {
    /// Requested bytes (the `PoolExhausted::requested` field).
    bytes: u64,
    /// Page-rounded reservation charged against pool capacity.
    reserved: u64,
    /// Owning group's *position* (index into `group_bits`); `None` for
    /// ungrouped allocations, which stay in DDR under every config.
    group: Option<usize>,
}

/// One phase, flattened: constants, the all-DDR base accumulator, each
/// group's traffic delta, and the chase table in canonical stream order
/// (parallel arrays — the chase re-sum is a tight gather loop).
#[derive(Debug, Clone)]
struct PhaseData {
    terms: PhaseTerms,
    /// `phase.repeats as f64` (model time accumulates `time_s * repeats`).
    repeats: f64,
    /// Accumulators with every group in DDR.
    base: PhaseAccum,
    /// Per group position: the traffic that moves when the group flips.
    deltas: Vec<TrafficDelta>,
    /// Chase entries, stream order: owning group position (or `None`).
    chase_group: Vec<Option<usize>>,
    /// Chase entries, stream order: seconds if resolved to each pool
    /// (slots beyond the machine's pool count stay zero).
    chase_t: Vec<[f64; MAX_POOLS]>,
}

/// The accumulator walk: which (masked) configuration the live
/// accumulators currently describe, plus the template memo. One lock
/// around both keeps the walk coherent under parallel executors; the
/// per-rep noise draw happens outside it.
#[derive(Debug)]
struct WalkState {
    /// The pool digit each group position currently occupies in the
    /// live accumulators.
    current: Vec<u8>,
    accums: Vec<PhaseAccum>,
    memo: WordMap<u64, Result<CellTemplate, AllocError>>,
}

/// A campaign compiled for batched evaluation. Built once per
/// [`CampaignPlan`](crate::campaign::CampaignPlan); answers any
/// (config, seed) cell bit-identically to the naive path.
#[derive(Debug)]
pub struct FastCampaign {
    mctx: MachineCtx,
    noise: NoiseModel,
    n_pools: usize,
    /// Config-word bit/digit index of each group position (`group.id`).
    group_bits: Vec<usize>,
    /// OR of all group bits: stray binary config bits outside it cannot
    /// move any allocation, so templates are memoized on the masked
    /// word ([`Self::canonical_word`] handles the mixed form).
    group_mask: u64,
    allocs: Vec<AllocInfo>,
    capacity: [u64; MAX_POOLS],
    /// Per group position: summed member bytes (HBM-fraction numerator).
    group_bytes: Vec<u64>,
    total_alloc_bytes: u64,
    phases: Vec<PhaseData>,
    walk: Mutex<WalkState>,
}

fn gray(i: u32) -> u32 {
    i ^ (i >> 1)
}

impl FastCampaign {
    /// Compile the campaign, or `None` when any precondition of the flat
    /// replay fails (callers then use the naive per-cell path, keeping
    /// behavior — including panics on malformed specs — unchanged).
    pub fn build(
        machine: &Machine,
        spec: &WorkloadSpec,
        groups: &[AllocationGroup],
        cfg: &CampaignConfig,
    ) -> Option<FastCampaign> {
        let mctx = MachineCtx::try_new(machine, spec.ctx)?;

        // Placement must be a per-allocation function of the config
        // mask: distinct sites, each allocation in at most one group,
        // every group id a distinct u32 bit.
        let mut sites = HashSet::new();
        for a in &spec.allocations {
            if a.bytes == 0 || !sites.insert(a.site()) {
                return None;
            }
        }
        let n_pools = machine.n_pools();
        let mut group_bits = Vec::with_capacity(groups.len());
        let mut group_mask = 0u64;
        let mut alloc_group: Vec<Option<usize>> = vec![None; spec.allocations.len()];
        let mut group_bytes = vec![0u64; groups.len()];
        for (pos, g) in groups.iter().enumerate() {
            if g.id >= WORD_GROUPS || group_mask >> g.id & 1 == 1 {
                return None;
            }
            // Mixed (≥3-pool) words store two bits per digit, so far-tier
            // campaigns additionally need ids inside the digit span.
            if n_pools > 2 && g.id >= MAX_GROUPS {
                return None;
            }
            group_mask |= 1 << g.id;
            group_bits.push(g.id);
            for &m in &g.members {
                if m >= alloc_group.len() || alloc_group[m].is_some() {
                    return None;
                }
                alloc_group[m] = Some(pos);
                group_bytes[pos] += spec.allocations[m].bytes;
            }
        }

        let mut allocs = Vec::with_capacity(spec.allocations.len());
        let mut total_alloc_bytes = 0u64;
        for (i, a) in spec.allocations.iter().enumerate() {
            let reserved = a.bytes.div_ceil(PAGE).checked_mul(PAGE)?;
            allocs.push(AllocInfo { bytes: a.bytes, reserved, group: alloc_group[i] });
            total_alloc_bytes += a.bytes;
        }

        let mut phases = Vec::with_capacity(spec.phases.len());
        for phase in &spec.phases {
            let terms = PhaseTerms::new(&mctx, phase.eff, phase.flops, phase.gflops_per_core_cap);
            let mut base = PhaseAccum::default();
            let mut deltas = vec![TrafficDelta::default(); groups.len()];
            let mut chase_group = Vec::new();
            let mut chase_t = Vec::new();
            for s in &phase.streams {
                let alloc = spec.allocations.get(s.alloc)?;
                // The single-extent resolve transform of
                // `resolve_streams`: share is exactly 1.0 (bytes > 0),
                // but the f64 round-trip must still be replayed — for
                // byte counts beyond 2^53 it is not the identity.
                let total = alloc.bytes.max(1);
                let share = alloc.bytes as f64 / total as f64;
                let bytes = (s.bytes as f64 * share).round() as u64;
                if bytes == 0 {
                    continue;
                }
                match s.pattern {
                    AccessPattern::PointerChase { window } => {
                        let window = ((window as f64 * share).round() as u64).max(1);
                        chase_group.push(alloc_group[s.alloc]);
                        let mut t = [0.0f64; MAX_POOLS];
                        for (i, slot) in t.iter_mut().enumerate().take(n_pools) {
                            *slot =
                                mctx.chase_seconds(machine, PoolKind::of_index(i), window, bytes);
                        }
                        chase_t.push(t);
                    }
                    pattern => {
                        let rs = ResolvedStream { bytes, pool: PoolKind::Ddr, dir: s.dir, pattern };
                        base.add_stream(&rs, 0);
                        if let Some(pos) = alloc_group[s.alloc] {
                            deltas[pos].add_stream(&rs);
                        }
                    }
                }
            }
            phases.push(PhaseData {
                terms,
                repeats: phase.repeats as f64,
                base,
                deltas,
                chase_group,
                chase_t,
            });
        }

        let accums = phases.iter().map(|p| p.base).collect();
        let mut capacity = [0u64; MAX_POOLS];
        for (i, slot) in capacity.iter_mut().enumerate().take(n_pools) {
            *slot = machine.pool_capacity(i);
        }
        let current = vec![0u8; groups.len()];
        Some(FastCampaign {
            mctx,
            noise: cfg.noise,
            n_pools,
            group_bits,
            group_mask,
            allocs,
            capacity,
            group_bytes,
            total_alloc_bytes,
            phases,
            walk: Mutex::new(WalkState { current, accums, memo: WordMap::default() }),
        })
    }

    /// The canonical memo key of `config`: its digits restricted to this
    /// campaign's groups, re-encoded canonically. For binary words this
    /// is a single AND with the group mask — stray bits outside it
    /// cannot move any allocation.
    fn canonical_word(&self, config: Config) -> u64 {
        if !config.is_mixed() {
            return config.0 & self.group_mask;
        }
        let mut digits = [0u8; WORD_GROUPS];
        for &id in &self.group_bits {
            digits[id] = config.digit(id);
        }
        Config::from_digits(&digits).0
    }

    /// Number of groups (the delta walk's dimensionality).
    pub fn n_groups(&self) -> usize {
        self.group_bits.len()
    }

    /// Evaluate one cell. Repetitions of a configuration share its
    /// memoized `CellTemplate`; only the seeded noise draw is per-rep
    /// (and happens outside the walk lock).
    pub fn outcome(&self, config: Config, seed: u64) -> Result<CellOutcome, AllocError> {
        let masked = self.canonical_word(config);
        let template = {
            let mut walk = self.walk.lock().expect("fast-path walk poisoned");
            match walk.memo.get(&masked) {
                Some(t) => t.clone(),
                None => {
                    let t = self.evaluate(&mut walk, masked);
                    walk.memo.insert(masked, t.clone());
                    t
                }
            }
        }?;
        Ok(CellOutcome {
            time_s: perturb_model_time(&self.noise, template.model_time, seed),
            hbm_fraction: template.hbm_fraction,
        })
    }

    /// Pre-walk the full `P^|AG|` space, filling the template memo.
    /// Two-pool campaigns walk in Gray-code order — exactly one group
    /// flip per step; more pools walk in mixed-radix rank order, whose
    /// odometer increments average `P/(P-1)` digit moves per step.
    /// Campaign streaming then emits results in its usual config-major
    /// order out of the memo. Skipped for spaces big enough that eager
    /// materialization could outweigh the demand-driven walk.
    pub fn precompute_full(&self) {
        let n = self.n_groups();
        let total = match (self.n_pools as u64).checked_pow(n as u32) {
            Some(t) if t <= 1 << 14 => t,
            _ => return,
        };
        let p = self.n_pools as u64;
        let mut walk = self.walk.lock().expect("fast-path walk poisoned");
        for i in 0..total {
            let mut r = if self.n_pools == 2 { gray(i as u32) as u64 } else { i };
            let mut digits = [0u8; WORD_GROUPS];
            for &bit in &self.group_bits {
                digits[bit] = (r % p) as u8;
                r /= p;
            }
            let masked = Config::from_digits(&digits).0;
            if walk.memo.contains_key(&masked) {
                continue;
            }
            let t = self.evaluate(&mut walk, masked);
            walk.memo.insert(masked, t);
        }
    }

    /// Evaluate the template of one masked configuration: seek the live
    /// accumulators to it (one delta pair per differing group), replay
    /// feasibility, then price every phase through the flat kernel.
    fn evaluate(&self, walk: &mut WalkState, masked: u64) -> Result<CellTemplate, AllocError> {
        let target = Config(masked);
        // Digit-seek: each group whose digit differs moves exactly its
        // traffic between two pool columns. u64 sums make the path
        // irrelevant.
        for (pos, &bit) in self.group_bits.iter().enumerate() {
            let to = target.digit(bit) as usize;
            let from = walk.current[pos] as usize;
            if from == to {
                continue;
            }
            for (phase, accum) in self.phases.iter().zip(walk.accums.iter_mut()) {
                let d = phase.deltas[pos];
                if d.is_zero() {
                    continue;
                }
                accum.sub(d, from);
                accum.add(d, to);
            }
            walk.current[pos] = to as u8;
        }

        // Feasibility: the shim's malloc loop in spec order, against
        // page-rounded per-pool live counters.
        let mut live = [0u64; MAX_POOLS];
        for a in &self.allocs {
            let pool = match a.group {
                Some(pos) => target.digit(self.group_bits[pos]) as usize,
                None => 0,
            };
            if live[pool] + a.reserved > self.capacity[pool] {
                return Err(AllocError::PoolExhausted {
                    pool: PoolKind::of_index(pool),
                    requested: a.bytes,
                    available: self.capacity[pool] - live[pool],
                });
            }
            live[pool] += a.reserved;
        }

        // The registry's footprint fraction: HBM-resident requested
        // bytes over all requested bytes (u64 sums — order-independent).
        let mut hbm_bytes = 0u64;
        for (pos, &bytes) in self.group_bytes.iter().enumerate() {
            if target.digit(self.group_bits[pos]) == 1 {
                hbm_bytes += bytes;
            }
        }
        let hbm_fraction = if self.total_alloc_bytes == 0 {
            0.0
        } else {
            hbm_bytes as f64 / self.total_alloc_bytes as f64
        };

        let mut model_time = 0.0f64;
        for (phase, accum) in self.phases.iter().zip(&walk.accums) {
            let mut t_chase = 0.0f64;
            for (group, t) in phase.chase_group.iter().zip(&phase.chase_t) {
                let col = match group {
                    Some(pos) => target.digit(self.group_bits[*pos]) as usize,
                    None => 0,
                };
                t_chase += t[col];
            }
            let cost = phase_time_flat(&self.mctx, &phase.terms, accum, t_chase);
            model_time += cost.time_s * phase.repeats;
        }

        Ok(CellTemplate { model_time, hbm_fraction })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_cell;
    use hmpt_sim::machine::xeon_max_9468;
    use hmpt_sim::stream::Direction;
    use hmpt_sim::units::gib;
    use hmpt_workloads::model::{Phase, StreamSpec, WorkloadSpec};

    fn groups_of(spec: &WorkloadSpec) -> Vec<AllocationGroup> {
        (0..spec.allocations.len())
            .map(|id| AllocationGroup {
                id,
                label: spec.allocations[id].label.clone(),
                members: vec![id],
                bytes: spec.allocations[id].bytes,
                density: 0.1,
            })
            .collect()
    }

    fn assert_cells_match(
        machine: &Machine,
        spec: &WorkloadSpec,
        groups: &[AllocationGroup],
        cfg: &CampaignConfig,
    ) {
        let fast = FastCampaign::build(machine, spec, groups, cfg).expect("buildable");
        for config in crate::configspace::enumerate(groups.len()) {
            for rep in 0..cfg.runs_per_config.max(1) {
                let naive = measure_cell(machine, spec, groups, config, rep, cfg);
                let seed = cfg.cell_seed(config, rep);
                let quick = fast.outcome(config, seed);
                match (naive, quick) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a.time_s.to_bits(),
                            b.time_s.to_bits(),
                            "time for {} rep {rep}",
                            config.label()
                        );
                        assert_eq!(
                            a.hbm_fraction.to_bits(),
                            b.hbm_fraction.to_bits(),
                            "hbm_fraction for {}",
                            config.label()
                        );
                    }
                    (Err(crate::error::TunerError::Alloc(a)), Err(b)) => {
                        assert_eq!(a, b, "error for {}", config.label())
                    }
                    (a, b) => panic!("divergence for {}: {a:?} vs {b:?}", config.label()),
                }
            }
        }
    }

    #[test]
    fn mg_cells_are_bit_identical() {
        let m = xeon_max_9468();
        let spec = hmpt_workloads::npb::mg::workload();
        let groups = groups_of(&spec);
        assert_cells_match(&m, &spec, &groups, &CampaignConfig::default());
    }

    #[test]
    fn sp_cells_are_bit_identical_with_adverse_settings() {
        let m = xeon_max_9468();
        let spec = hmpt_workloads::npb::sp::workload();
        let groups = groups_of(&spec);
        let cfg = CampaignConfig {
            runs_per_config: 2,
            noise: NoiseModel { cv: 0.03 },
            base_seed: 0xdead_beef,
        };
        assert_cells_match(&m, &spec, &groups, &cfg);
    }

    #[test]
    fn infeasible_configs_reproduce_the_exact_shim_error() {
        let m = xeon_max_9468();
        let mut spec = WorkloadSpec::new("big", "./big.x");
        let a = spec.alloc("a", gib(100));
        let b = spec.alloc("b", gib(100)); // together > 128 GiB of HBM
        spec.push_phase(Phase::new(
            "p",
            vec![
                StreamSpec::seq(a, gib(1), Direction::Read),
                StreamSpec::seq(b, gib(1), Direction::Read),
            ],
        ));
        let groups = groups_of(&spec);
        assert_cells_match(&m, &spec, &groups, &CampaignConfig::default());
    }

    #[test]
    fn gray_precompute_matches_lazy_evaluation() {
        let m = xeon_max_9468();
        let spec = hmpt_workloads::npb::mg::workload();
        let groups = groups_of(&spec);
        let cfg = CampaignConfig::default();
        let eager = FastCampaign::build(&m, &spec, &groups, &cfg).unwrap();
        eager.precompute_full();
        let lazy = FastCampaign::build(&m, &spec, &groups, &cfg).unwrap();
        // Visit in an adversarial order; both must agree bit-for-bit.
        let mut order: Vec<Config> = crate::configspace::enumerate(groups.len()).collect();
        order.reverse();
        for config in order {
            let seed = cfg.cell_seed(config, 0);
            let a = eager.outcome(config, seed).unwrap();
            let b = lazy.outcome(config, seed).unwrap();
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
        }
    }

    #[test]
    fn stray_config_bits_share_the_masked_template() {
        let m = xeon_max_9468();
        let spec = hmpt_workloads::npb::mg::workload();
        let groups = groups_of(&spec);
        let cfg = CampaignConfig::default();
        let fast = FastCampaign::build(&m, &spec, &groups, &cfg).unwrap();
        let seed = 42;
        let a = fast.outcome(Config(0b001), seed).unwrap();
        let b = fast.outcome(Config(0b1000_0001), seed).unwrap();
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
    }

    #[test]
    fn unreplayable_inputs_refuse_to_build() {
        let m = xeon_max_9468();
        let cfg = CampaignConfig::default();

        // Zero-byte allocation: the shim panics on it.
        let mut zero = WorkloadSpec::new("z", "./z.x");
        zero.allocations.push(hmpt_workloads::model::AllocSpec::new("z", "a", 0));
        assert!(FastCampaign::build(&m, &zero, &[], &cfg).is_none());

        // Overlapping groups: placement is no longer per-allocation.
        let spec = hmpt_workloads::npb::mg::workload();
        let mut groups = groups_of(&spec);
        groups[1].members = vec![0];
        assert!(FastCampaign::build(&m, &spec, &groups, &cfg).is_none());

        // Group id beyond the config word.
        let mut groups = groups_of(&spec);
        groups[2].id = 33;
        assert!(FastCampaign::build(&m, &spec, &groups, &cfg).is_none());
    }
}
