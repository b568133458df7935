//! The fast path's bit-identity contract, property-tested: for random
//! machines, workloads, groupings, noise levels, and repetition
//! policies, the batched delta-updating evaluator must be
//! indistinguishable from the naive per-cell pipeline —
//!
//! * exact float bits on every [`CellOutcome`] (and the exact
//!   [`AllocError`] on infeasible configurations),
//! * byte-identical measurement-cache snapshots,
//! * identical adaptive-retirement decisions (same executed cells, same
//!   statistics) across serial, parallel, and cached executors.

use std::sync::Arc;

use hmpt_core::cache::MeasurementCache;
use hmpt_core::campaign::{CampaignPlan, RepPolicy};
use hmpt_core::configspace;
use hmpt_core::error::TunerError;
use hmpt_core::exec::{CachingExecutor, ExecutorKind};
use hmpt_core::grouping::AllocationGroup;
use hmpt_core::measure::{CampaignConfig, CampaignResult};
use hmpt_core::planner;
use hmpt_core::store;
use hmpt_sim::machine::Machine;
use hmpt_sim::noise::NoiseModel;
use hmpt_sim::stream::Direction;
use hmpt_sim::zoo::{Axis, Preset, ZooEntry};
use hmpt_workloads::model::{Phase, StreamSpec, WorkloadSpec};
use proptest::prelude::*;

/// A machine from the zoo: every preset, optionally capacity-scaled so
/// infeasible configurations (and their error identity) get exercised.
fn arb_machine() -> impl Strategy<Value = Machine> {
    (
        0usize..Preset::ALL.len(),
        prop_oneof![Just(None), (1u32..8).prop_map(|s| Some(s as f64 / 4.0))],
    )
        .prop_map(|(p, cap)| {
            let mut entry = ZooEntry::preset(Preset::ALL[p]);
            if let Some(f) = cap {
                entry = entry.with_axis(Axis::ScaleHbmCapacity(f));
            }
            entry.build()
        })
}

/// A genuinely three-pool machine (DDR + HBM + CXL), optionally
/// HBM-capacity-scaled: [`arb_machine`] only samples these by luck, and
/// binary enumeration never exercises far-tier digits, so the mixed
/// configuration space gets its own dedicated strategy.
fn arb_three_pool_machine() -> impl Strategy<Value = Machine> {
    (
        prop_oneof![Just(Preset::CxlFarTier), Just(Preset::ThreeTier)],
        prop_oneof![Just(None), (1u32..8).prop_map(|s| Some(s as f64 / 4.0))],
    )
        .prop_map(|(p, cap)| {
            let mut entry = ZooEntry::preset(p);
            if let Some(f) = cap {
                entry = entry.with_axis(Axis::ScaleHbmCapacity(f));
            }
            entry.build()
        })
}

fn arb_dir() -> impl Strategy<Value = Direction> {
    prop_oneof![Just(Direction::Read), Just(Direction::Write), Just(Direction::ReadWrite)]
}

/// One stream over allocation `alloc`: sequential, random, or chase.
fn arb_stream(n_allocs: usize) -> impl Strategy<Value = StreamSpec> {
    (0..n_allocs, 100_000_000u64..40_000_000_000, arb_dir(), 0u8..4).prop_map(
        |(alloc, bytes, dir, kind)| match kind {
            0 => StreamSpec::random(alloc, bytes, dir),
            1 => StreamSpec::chase(alloc, bytes / 4, (bytes / 8).max(1)),
            _ => StreamSpec::seq(alloc, bytes, dir),
        },
    )
}

/// A workload with 1–4 allocations (each possibly larger than a scaled
/// HBM pool) and 1–3 phases of random streams, FLOPs, and repeats.
fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
    (1usize..=4)
        .prop_flat_map(|n_allocs| {
            (
                prop::collection::vec(200_000_000u64..60_000_000_000, n_allocs),
                prop::collection::vec(
                    (prop::collection::vec(arb_stream(n_allocs), 1..5), 0u64..2, 1u64..4),
                    1..4,
                ),
            )
        })
        .prop_map(|(alloc_bytes, phases)| {
            let mut w = WorkloadSpec::new("prop", "./prop.x");
            for (i, bytes) in alloc_bytes.iter().enumerate() {
                w.alloc(&format!("a{i}"), *bytes);
            }
            for (i, (streams, teraflops, repeats)) in phases.into_iter().enumerate() {
                w.push_phase(
                    Phase::new(&format!("p{i}"), streams)
                        .flops(teraflops as f64 * 1e12)
                        .repeats(repeats),
                );
            }
            w
        })
}

/// Assign each allocation to one of up to `n_allocs` groups (or leave it
/// ungrouped), then compact to disjoint single- or multi-member groups.
fn groups_for(spec: &WorkloadSpec, assignment: &[usize]) -> Vec<AllocationGroup> {
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); spec.allocations.len() + 1];
    let slots = members.len();
    for (alloc, &g) in assignment.iter().enumerate() {
        members[g % slots].push(alloc);
    }
    members
        .into_iter()
        .filter(|m| !m.is_empty())
        .enumerate()
        .map(|(id, members)| AllocationGroup {
            id,
            label: format!("g{id}"),
            bytes: members.iter().map(|&i| spec.allocations[i].bytes).sum(),
            density: 0.1,
            members,
        })
        .collect()
}

fn arb_campaign() -> impl Strategy<Value = CampaignConfig> {
    (1usize..4, prop_oneof![Just(0.0), Just(0.008), Just(0.05)], any::<u64>()).prop_map(
        |(runs_per_config, cv, base_seed)| CampaignConfig {
            runs_per_config,
            noise: NoiseModel { cv },
            base_seed,
        },
    )
}

fn assert_results_bitwise(a: &CampaignResult, b: &CampaignResult) {
    assert_eq!(a.executed_runs, b.executed_runs, "executed cells differ");
    assert_eq!(a.planned_runs, b.planned_runs);
    assert_eq!(a.measurements.len(), b.measurements.len());
    for (x, y) in a.measurements.iter().zip(&b.measurements) {
        assert_eq!(x.config, y.config);
        assert_eq!(x.mean_s.to_bits(), y.mean_s.to_bits(), "mean for {}", x.config.label());
        assert_eq!(x.std_s.to_bits(), y.std_s.to_bits(), "std for {}", x.config.label());
        assert_eq!(x.hbm_fraction.to_bits(), y.hbm_fraction.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every cell of every configuration: exact float bits on success,
    /// the exact allocation error on failure.
    #[test]
    fn every_cell_is_bit_identical(
        machine in arb_machine(),
        spec in arb_workload(),
        assignment in prop::collection::vec(0usize..5, 4),
        cfg in arb_campaign(),
    ) {
        let groups = groups_for(&spec, &assignment[..spec.allocations.len()]);
        let plan = CampaignPlan::new(&machine, &spec, &groups, cfg).unwrap();
        for config in configspace::enumerate(groups.len()) {
            for rep in 0..cfg.runs_per_config {
                let cell = plan.cell(config, rep);
                let naive = plan.measure_cell_naive(&cell);
                let fast = plan.measure_cell(&cell);
                match (naive, fast) {
                    (Ok(a), Ok(b)) => {
                        prop_assert!(a.time_s.to_bits() == b.time_s.to_bits(),
                            "time bits for {} rep {}", config.label(), rep);
                        prop_assert!(a.hbm_fraction.to_bits() == b.hbm_fraction.to_bits(),
                            "hbm_fraction bits for {}", config.label());
                    }
                    (Err(TunerError::Alloc(a)), Err(TunerError::Alloc(b))) => {
                        prop_assert!(a == b, "alloc error for {}", config.label());
                    }
                    (a, b) => prop_assert!(false, "divergence for {}: {:?} vs {:?}",
                        config.label(), a, b),
                }
            }
        }
    }

    /// Fixed campaigns through serial, parallel, and caching executors:
    /// fast off vs on produce bit-identical results, and the caching
    /// runs leave byte-identical snapshot files behind.
    #[test]
    fn campaigns_and_cache_snapshots_are_identical(
        machine in arb_machine(),
        spec in arb_workload(),
        assignment in prop::collection::vec(0usize..5, 4),
        cfg in arb_campaign(),
    ) {
        let groups = groups_for(&spec, &assignment[..spec.allocations.len()]);
        let plan = |fast: bool| {
            CampaignPlan::new(&machine, &spec, &groups, cfg).unwrap().with_fast_path(fast)
        };
        let naive = plan(false).execute(&ExecutorKind::Serial).unwrap();
        let fast = plan(true).execute(&ExecutorKind::Serial).unwrap();
        assert_results_bitwise(&naive, &fast);
        let parallel = plan(true).execute(&ExecutorKind::Parallel { workers: 3 }).unwrap();
        assert_results_bitwise(&naive, &parallel);

        let snapshot = |fast: bool| {
            let cache = Arc::new(MeasurementCache::new());
            let exec = CachingExecutor::new(ExecutorKind::Serial, Arc::clone(&cache));
            let r = plan(fast).execute(&exec).unwrap();
            assert_results_bitwise(&naive, &r);
            store::to_bytes(&cache).0
        };
        prop_assert!(snapshot(false) == snapshot(true), "cache snapshots diverge");
    }

    /// Adaptive campaigns retire the same configurations after the same
    /// rounds — the retirement decision is a pure function of outcome
    /// bits, so identical bits mean identical executed cells.
    #[test]
    fn adaptive_retirement_decisions_are_identical(
        machine in arb_machine(),
        spec in arb_workload(),
        assignment in prop::collection::vec(0usize..5, 4),
        cfg in arb_campaign(),
        max_reps in 2usize..6,
    ) {
        let groups = groups_for(&spec, &assignment[..spec.allocations.len()]);
        let policy = RepPolicy::confidence(0.02, max_reps);
        let plan = |fast: bool| {
            CampaignPlan::new(&machine, &spec, &groups, cfg)
                .unwrap()
                .with_policy(policy)
                .with_fast_path(fast)
        };
        let naive = plan(false).execute(&ExecutorKind::Serial).unwrap();
        let fast = plan(true).execute(&ExecutorKind::Serial).unwrap();
        assert_results_bitwise(&naive, &fast);
        let cache = Arc::new(MeasurementCache::new());
        let cached = plan(true)
            .execute(&CachingExecutor::new(ExecutorKind::parallel(), cache))
            .unwrap();
        assert_results_bitwise(&naive, &cached);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The bit-identity contract on genuinely three-pool machines, over
    /// the *full* mixed-radix configuration space: every far-tier digit
    /// combination measures to the same float bits (or the same
    /// allocation error) on both paths, the whole campaign round-trips
    /// bitwise, and the exhaustive planner's budget arithmetic conserves
    /// per-pool bytes on whatever configuration it picks.
    #[test]
    fn three_pool_cells_are_bit_identical(
        machine in arb_three_pool_machine(),
        spec in arb_workload(),
        assignment in prop::collection::vec(0usize..5, 4),
        cfg in arb_campaign(),
        budget_gib in 1u64..80,
    ) {
        let groups = groups_for(&spec, &assignment[..spec.allocations.len()]);
        prop_assert!(machine.n_pools() == 3, "strategy must yield three pools");
        let plan = CampaignPlan::new(&machine, &spec, &groups, cfg).unwrap();
        for config in configspace::enumerate_pools(groups.len(), machine.n_pools()) {
            for rep in 0..cfg.runs_per_config {
                let cell = plan.cell(config, rep);
                let naive = plan.measure_cell_naive(&cell);
                let fast = plan.measure_cell(&cell);
                match (naive, fast) {
                    (Ok(a), Ok(b)) => {
                        prop_assert!(a.time_s.to_bits() == b.time_s.to_bits(),
                            "time bits for {} rep {}", config.label(), rep);
                        prop_assert!(a.hbm_fraction.to_bits() == b.hbm_fraction.to_bits(),
                            "hbm_fraction bits for {}", config.label());
                    }
                    (Err(TunerError::Alloc(a)), Err(TunerError::Alloc(b))) => {
                        prop_assert!(a == b, "alloc error for {}", config.label());
                    }
                    (a, b) => prop_assert!(false, "divergence for {}: {:?} vs {:?}",
                        config.label(), a, b),
                }
            }
        }

        let naive = CampaignPlan::new(&machine, &spec, &groups, cfg)
            .unwrap()
            .with_fast_path(false)
            .execute(&ExecutorKind::Serial)
            .unwrap();
        let fast = CampaignPlan::new(&machine, &spec, &groups, cfg)
            .unwrap()
            .with_fast_path(true)
            .execute(&ExecutorKind::Serial)
            .unwrap();
        assert_results_bitwise(&naive, &fast);

        let budgeted = planner::plan_exhaustive(&naive, &groups, budget_gib << 30);
        prop_assert!(budgeted.hbm_bytes <= budgeted.budget, "planner ignored the budget");
        let pool_bytes = budgeted.config.pool_bytes(&groups, machine.n_pools());
        prop_assert!(pool_bytes[1] == budgeted.hbm_bytes, "HBM slot disagrees with the plan");
        let footprint: u64 = groups.iter().map(|g| g.bytes).sum();
        prop_assert!(pool_bytes.iter().sum::<u64>() == footprint,
            "planner placement leaks bytes: {:?} vs footprint {}", pool_bytes, footprint);
    }
}
