//! Execute one workload run on the simulated platform.
//!
//! This is the "Evaluated Application/Benchmark" box of the paper's Fig 6
//! wired to the rest of the stack: allocations flow through the shim
//! (placement control), phases are priced by the platform model
//! (measurement), and the IBS sampler observes the traffic (profiling).

use hmpt_alloc::error::AllocError;
use hmpt_alloc::plan::PlacementPlan;
use hmpt_alloc::shim::{Allocation, Shim};
use hmpt_perf::attr::Attribution;
use hmpt_perf::counters::Counters;
use hmpt_perf::ibs::{IbsConfig, Sampler};
use hmpt_perf::stats::AccessStats;
use hmpt_sim::cost::{phase_time, PhaseCost, PhaseLoad};
use hmpt_sim::machine::Machine;
use hmpt_sim::noise::NoiseModel;
use hmpt_sim::pool::PoolKind;
use hmpt_sim::stream::{AccessPattern, ResolvedStream};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::model::WorkloadSpec;

/// Configuration of one run.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct RunConfig {
    pub noise: NoiseModel,
    /// Seed for noise and sampling (vary per repetition).
    pub seed: u64,
    /// Enable IBS sampling with this configuration (profiling runs).
    pub ibs: Option<IbsConfig>,
}

impl RunConfig {
    /// Noise-free, unsampled run (model ground truth).
    pub fn exact() -> Self {
        RunConfig { noise: NoiseModel::none(), seed: 0, ibs: None }
    }

    /// Profiling run with default IBS sampling.
    pub fn profiling(seed: u64) -> Self {
        RunConfig { noise: NoiseModel::default(), seed, ibs: Some(IbsConfig::default()) }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Stable content fingerprint (noise model, seed, sampling setup).
    /// Used as a component of the fleet's content-addressed
    /// measurement-cache keys.
    pub fn fingerprint(&self) -> hmpt_sim::fingerprint::Fingerprint {
        hmpt_sim::fingerprint::Fingerprint::of(self)
    }
}

/// Everything observed during one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Measured wall-clock time (with noise).
    pub time_s: f64,
    /// Hardware counters (noise-free model totals).
    pub counters: Counters,
    /// Attributed per-site access statistics (empty unless profiling
    /// was enabled). The IBS samples behind them are attributed as they
    /// are drawn and not kept.
    pub stats: AccessStats,
    /// Fraction of the footprint placed in HBM during the run.
    pub hbm_footprint_fraction: f64,
    /// Per-phase cost breakdown (one entry per phase, not per repeat).
    pub phase_costs: Vec<PhaseCost>,
}

/// Resolve a workload stream against the extents actually backing its
/// allocation: a split allocation yields one stream per extent with
/// proportional traffic.
fn resolve_streams(
    spec: &WorkloadSpec,
    phase_idx: usize,
    allocations: &[Allocation],
) -> Vec<ResolvedStream> {
    let phase = &spec.phases[phase_idx];
    let mut out = Vec::with_capacity(phase.streams.len());
    for s in &phase.streams {
        let alloc = &allocations[s.alloc];
        let total = alloc.bytes.max(1);
        for e in &alloc.extents {
            let share = e.bytes as f64 / total as f64;
            let bytes = (s.bytes as f64 * share).round() as u64;
            if bytes == 0 {
                continue;
            }
            // A chase over a split allocation wanders a smaller window in
            // each pool.
            let pattern = match s.pattern {
                AccessPattern::PointerChase { window } => AccessPattern::PointerChase {
                    window: ((window as f64 * share).round() as u64).max(1),
                },
                p => p,
            };
            out.push(ResolvedStream { bytes, pool: e.pool, dir: s.dir, pattern });
        }
    }
    out
}

/// Apply the measurement-noise draw of [`run_once`] to a precomputed
/// noise-free model time: the same freshly seeded generator, consumed by
/// the same single `perturb` call. A batched evaluator that knows a
/// configuration's `model_time` uses this to reproduce every
/// repetition's measured time bit-for-bit without re-walking the phase
/// pipeline (in an unsampled run the main RNG feeds nothing else).
pub fn perturb_model_time(noise: &NoiseModel, model_time: f64, seed: u64) -> f64 {
    noise.perturb(model_time, &mut ChaCha8Rng::seed_from_u64(seed))
}

/// Run `spec` once on `machine` under `plan`.
pub fn run_once(
    machine: &Machine,
    spec: &WorkloadSpec,
    plan: &PlacementPlan,
    cfg: &RunConfig,
) -> Result<RunOutcome, AllocError> {
    let mut shim = Shim::new(machine, plan.clone());
    let mut allocations = Vec::with_capacity(spec.allocations.len());
    for a in &spec.allocations {
        allocations.push(shim.malloc(&a.trace, a.bytes)?);
    }
    let hbm_footprint_fraction = shim.hbm_footprint_fraction();

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut sampler = cfg
        .ibs
        .map(|ibs| Sampler::new(ibs, ChaCha8Rng::seed_from_u64(cfg.seed.wrapping_add(0x1b5))));

    let mut counters = Counters::new();
    let mut model_time = 0.0;
    // Every allocation is live from here until `free_all`, so charging
    // a sample to its site as it is drawn reads the same registry an
    // attribution after the last phase would, and a sample inside its
    // stream's own allocation needs no registry walk at all.
    let mut attribution = Attribution::default();
    let mut phase_costs = Vec::with_capacity(spec.phases.len());

    for (i, phase) in spec.phases.iter().enumerate() {
        let streams = resolve_streams(spec, i, &allocations);
        let load = PhaseLoad {
            streams: &streams,
            flops: phase.flops,
            gflops_per_core_cap: phase.gflops_per_core_cap,
            eff: phase.eff,
        };
        let cost = phase_time(machine, spec.ctx, &load);
        counters.add_phase(&cost, phase.repeats);
        model_time += cost.time_s * phase.repeats as f64;

        if let Some(sampler) = sampler.as_mut() {
            for (spec_stream, alloc_ref) in phase.streams.iter().map(|s| (s, &allocations[s.alloc]))
            {
                let traffic = spec_stream.bytes * phase.repeats;
                sampler.sample_stream(
                    &alloc_ref.extents,
                    traffic,
                    spec_stream.dir,
                    |pool: PoolKind| machine.pool(pool).idle_latency_ns,
                    |sample| attribution.record_from(sample, alloc_ref, shim.registry()),
                );
            }
        }
        phase_costs.push(cost);
    }

    let stats = AccessStats::from_attribution(&attribution);

    let time_s = cfg.noise.perturb(model_time, &mut rng);
    shim.free_all();

    Ok(RunOutcome { time_s, counters, stats, hbm_footprint_fraction, phase_costs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Phase, StreamSpec, WorkloadSpec};
    use hmpt_alloc::plan::{Assignment, PlacementPlan};
    use hmpt_alloc::site::SiteId;
    use hmpt_alloc::vspace::PAGE;
    use hmpt_sim::machine::xeon_max_9468;
    use hmpt_sim::stream::Direction;
    use hmpt_sim::units::gib;
    use proptest::prelude::*;

    fn toy() -> WorkloadSpec {
        let mut w = WorkloadSpec::new("toy", "./toy.x");
        let hot = w.alloc("hot", gib(4));
        let cold = w.alloc("cold", gib(4));
        w.push_phase(
            Phase::new(
                "sweep",
                vec![
                    StreamSpec::seq(hot, gib(8), Direction::Read),
                    StreamSpec::seq(cold, gib(1), Direction::Read),
                ],
            )
            .repeats(5),
        );
        w
    }

    #[test]
    fn hbm_placement_speeds_up_hot_workload() {
        let m = xeon_max_9468();
        let w = toy();
        let cfg = RunConfig::exact();
        let ddr = run_once(&m, &w, &PlacementPlan::all_in(PoolKind::Ddr), &cfg).unwrap();
        let hot_site = w.allocations[0].site();
        let promoted = run_once(&m, &w, &PlacementPlan::promote_to_hbm([hot_site]), &cfg).unwrap();
        assert!(promoted.time_s < ddr.time_s * 0.6, "{} vs {}", promoted.time_s, ddr.time_s);
        assert!((promoted.hbm_footprint_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn counters_track_repeats() {
        let m = xeon_max_9468();
        let w = toy();
        let out = run_once(&m, &w, &PlacementPlan::default(), &RunConfig::exact()).unwrap();
        assert_eq!(out.counters.dram_bytes(), 5 * gib(9));
        assert_eq!(out.phase_costs.len(), 1);
    }

    #[test]
    fn profiling_produces_attributed_samples() {
        let m = xeon_max_9468();
        let w = toy();
        let out = run_once(&m, &w, &PlacementPlan::default(), &RunConfig::profiling(3)).unwrap();
        assert!(out.stats.total_samples > 0);
        // Hot allocation gets ~8/9 of the samples.
        let hot = out.stats.density(w.allocations[0].site());
        assert!(hot > 0.8 && hot < 0.95, "hot density {hot}");
        // Unattributed samples only from skid (≤ a few).
        let drawn = out.stats.total_samples + out.stats.unattributed;
        assert!(out.stats.unattributed < drawn / 100 + 5);
    }

    /// The samples of a profiling run of `w` under `plan`, drawn as
    /// `run_once` draws them (the same sampler seed, streams in phase
    /// order), each charged twice: by the fast path's `record_from` and
    /// by the registry alone. Also counts the samples that skid carried
    /// outside their stream's allocation.
    fn both_attributions(
        m: &Machine,
        w: &WorkloadSpec,
        plan: &PlacementPlan,
        cfg: &RunConfig,
    ) -> (Attribution, Attribution, usize) {
        let mut shim = Shim::new(m, plan.clone());
        let allocations: Vec<Allocation> =
            w.allocations.iter().map(|a| shim.malloc(&a.trace, a.bytes).unwrap()).collect();
        let mut sampler = Sampler::new(
            cfg.ibs.expect("a profiling config"),
            ChaCha8Rng::seed_from_u64(cfg.seed.wrapping_add(0x1b5)),
        );
        let (mut fast, mut registry, mut outside) =
            (Attribution::default(), Attribution::default(), 0);
        for phase in &w.phases {
            for s in &phase.streams {
                let own = &allocations[s.alloc];
                sampler.sample_stream(
                    &own.extents,
                    s.bytes * phase.repeats,
                    s.dir,
                    |pool: PoolKind| m.pool(pool).idle_latency_ns,
                    |sample| {
                        outside +=
                            usize::from(!own.extents.iter().any(|e| e.contains(sample.addr)));
                        fast.record_from(sample, own, shim.registry());
                        registry.record(sample, shim.registry());
                    },
                );
            }
        }
        (fast, registry, outside)
    }

    /// A random workload of small allocations under a random placement:
    /// each allocation in DDR, in HBM, or split between them. Some are
    /// whole 2 MiB pages, so skid past their end lands in the next
    /// allocation; the rest end well inside their last page, so skid
    /// past their end lands in the gap.
    fn arb_placed_workload() -> impl Strategy<Value = (WorkloadSpec, PlacementPlan)> {
        let size = prop_oneof![(1u64..3).prop_map(|pages| pages * PAGE), 4096u64..262_144];
        let allocs = prop::collection::vec((size, 0..3u8, 1u64..100), 1..5);
        let stream = (0usize..8, 1u64..64, 0..3u8);
        let phases = prop::collection::vec(prop::collection::vec(stream, 1..4), 1..3);
        (allocs, phases).prop_map(|(allocs, phases)| {
            let mut w = WorkloadSpec::new("placed", "./placed.x");
            let mut plan = PlacementPlan::default();
            for (i, &(bytes, kind, pct)) in allocs.iter().enumerate() {
                let a = w.alloc(&format!("a{i}"), bytes);
                let assignment = match kind {
                    0 => Assignment::Pool(PoolKind::Ddr),
                    1 => Assignment::Pool(PoolKind::Hbm),
                    _ => Assignment::Split { hbm_fraction: pct as f64 / 100.0 },
                };
                plan.set(w.allocations[a].site(), assignment).unwrap();
            }
            for (p, streams) in phases.into_iter().enumerate() {
                let streams = streams
                    .into_iter()
                    .map(|(a, mib, dir)| {
                        let dirs = [Direction::Read, Direction::Write, Direction::ReadWrite];
                        StreamSpec::seq(a % allocs.len(), mib << 20, dirs[dir as usize])
                    })
                    .collect();
                w.push_phase(Phase::new(&format!("p{p}"), streams));
            }
            (w, plan)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Charging a sample inside its stream's allocation straight to
        /// that allocation's site tallies exactly what the registry
        /// would, bit for bit, and `run_once`'s statistics are the
        /// registry path's.
        #[test]
        fn the_attribution_fast_path_is_the_registry_path(
            (w, plan) in arb_placed_workload(),
            seed in 0u64..1_000,
        ) {
            let m = xeon_max_9468();
            // A skid of up to two pages carries many samples past the
            // end of their allocation.
            let ibs = IbsConfig { period_bytes: 64 << 10, skid_bytes: 2 * PAGE, latency_jitter: 0.15 };
            let cfg = RunConfig { ibs: Some(ibs), ..RunConfig::profiling(seed) };
            let (fast, registry, outside) = both_attributions(&m, &w, &plan, &cfg);
            prop_assert!(outside > 0, "no sample skid outside its allocation");
            prop_assert_eq!(fast.unattributed, registry.unattributed);
            prop_assert_eq!(tallies(&fast), tallies(&registry));

            let stats = run_once(&m, &w, &plan, &cfg).unwrap().stats;
            let want = AccessStats::from_attribution(&registry);
            prop_assert_eq!(
                (stats.total_samples, stats.unattributed),
                (want.total_samples, want.unattributed)
            );
            prop_assert_eq!(access_bits(&stats), access_bits(&want));
        }
    }

    /// An attribution's per-site tallies, floats by bit pattern, sorted.
    fn tallies(a: &Attribution) -> Vec<(SiteId, usize, u64, usize)> {
        let mut v: Vec<_> = a
            .by_site
            .iter()
            .map(|(s, t)| (*s, t.samples, t.latency_sum_ns.to_bits(), t.writes))
            .collect();
        v.sort();
        v
    }

    /// Per-site access statistics, floats by bit pattern, sorted.
    fn access_bits(stats: &AccessStats) -> Vec<(SiteId, usize, u64, u64, u64)> {
        let mut v: Vec<_> = stats
            .by_site
            .iter()
            .map(|(s, a)| {
                let bits = (a.density.to_bits(), a.mean_latency_ns.to_bits());
                (*s, a.samples, bits.0, bits.1, a.write_fraction.to_bits())
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn split_plan_splits_traffic() {
        let m = xeon_max_9468();
        let w = toy();
        let mut plan = PlacementPlan::default();
        plan.set(w.allocations[0].site(), Assignment::Split { hbm_fraction: 0.5 }).unwrap();
        let out = run_once(&m, &w, &plan, &RunConfig::exact()).unwrap();
        // hot traffic 40 GiB split evenly + cold 5 GiB in DDR.
        let expect_hbm = 5 * gib(4);
        assert!((out.counters.hbm_bytes() as f64 - expect_hbm as f64).abs() < gib(1) as f64);
    }

    #[test]
    fn infeasible_plan_errors() {
        let m = xeon_max_9468();
        let mut w = WorkloadSpec::new("big", "./big.x");
        w.alloc("huge", gib(200)); // > 128 GiB HBM
        let err = run_once(&m, &w, &PlacementPlan::all_in(PoolKind::Hbm), &RunConfig::exact());
        assert!(err.is_err());
    }

    #[test]
    fn noise_free_runs_are_identical() {
        let m = xeon_max_9468();
        let w = toy();
        let a = run_once(&m, &w, &PlacementPlan::default(), &RunConfig::exact()).unwrap();
        let b = run_once(&m, &w, &PlacementPlan::default(), &RunConfig::exact()).unwrap();
        assert_eq!(a.time_s, b.time_s);
    }

    #[test]
    fn noisy_runs_differ_but_slightly() {
        let m = xeon_max_9468();
        let w = toy();
        let cfg = RunConfig::default();
        let a = run_once(&m, &w, &PlacementPlan::default(), &cfg.with_seed(1)).unwrap();
        let b = run_once(&m, &w, &PlacementPlan::default(), &cfg.with_seed(2)).unwrap();
        assert_ne!(a.time_s, b.time_s);
        assert!((a.time_s / b.time_s - 1.0).abs() < 0.1);
    }
}
