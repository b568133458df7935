//! Property tests for the fleet subsystem: the parallel executor is
//! bit-identical to the serial one, a warmed measurement cache never
//! changes an analysis result while eliminating simulated runs, chunked
//! streaming over the campaign-plan IR matches eager execution for any
//! chunk size, adaptive (confidence-targeted) repetition campaigns
//! are deterministic across execution strategies, and each job of a
//! batch counts its own cache traffic however many jobs run at once.

use std::sync::Arc;

use hmpt_fleet::{Fleet, FleetConfig, TuningJob};
use hmpt_repro::core::campaign::{CampaignPlan, RepPolicy};
use hmpt_repro::core::driver::Driver;
use hmpt_repro::core::exec::{CachingExecutor, ExecutorKind};
use hmpt_repro::core::grouping::{group, GroupingConfig};
use hmpt_repro::core::measure::{CampaignConfig, CampaignResult};
use hmpt_repro::core::MeasurementCache;
use hmpt_repro::sim::noise::NoiseModel;
use hmpt_repro::sim::stream::Direction;
use hmpt_repro::workloads::model::{Phase, StreamSpec, WorkloadSpec};
use proptest::prelude::*;

/// A random small workload: 2–6 allocations, 1–4 phases of sequential
/// traffic with optional compute floors (same generator family as
/// `tests/properties.rs`).
fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
    let alloc_count = 2usize..6;
    alloc_count
        .prop_flat_map(|n| {
            let sizes = prop::collection::vec(1u64..8, n);
            let phases = prop::collection::vec(
                (prop::collection::vec((0..n, 1u64..12, 0..3u8), 1..4), prop::option::of(1u64..40)),
                1..4,
            );
            (Just(n), sizes, phases)
        })
        .prop_map(|(_n, sizes, phases)| {
            let mut w = WorkloadSpec::new("synthetic", "./synthetic.x");
            let idx: Vec<usize> = sizes
                .iter()
                .enumerate()
                .map(|(i, &gb)| w.alloc(&format!("a{i}"), gb * 1_000_000_000))
                .collect();
            for (pi, (streams, floor)) in phases.into_iter().enumerate() {
                let specs: Vec<StreamSpec> = streams
                    .into_iter()
                    .map(|(a, gb, dir)| {
                        let dir = match dir {
                            0 => Direction::Read,
                            1 => Direction::Write,
                            _ => Direction::ReadWrite,
                        };
                        StreamSpec::seq(idx[a], gb * 1_000_000_000, dir)
                    })
                    .collect();
                let mut phase = Phase::new(&format!("p{pi}"), specs);
                if let Some(gf) = floor {
                    phase = phase.flops(gf as f64 * 1e9).compute_cap(1.0);
                }
                w.push_phase(phase);
            }
            w
        })
}

fn campaign(seed: u64) -> CampaignConfig {
    CampaignConfig { runs_per_config: 2, noise: NoiseModel::default(), base_seed: seed }
}

/// Profile + group a random workload the way the driver would, so
/// plan-level properties exercise realistic groupings.
fn grouped(spec: &WorkloadSpec) -> Vec<hmpt_repro::core::AllocationGroup> {
    let driver = Driver::new(hmpt_repro::machine());
    let profile = driver.profile(spec).expect("profiling");
    group(spec, &profile.stats, &GroupingConfig::default())
}

fn assert_campaigns_bit_identical(
    a: &CampaignResult,
    b: &CampaignResult,
) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(a.measurements.len(), b.measurements.len());
    prop_assert_eq!(a.executed_runs, b.executed_runs);
    prop_assert_eq!(a.planned_runs, b.planned_runs);
    for (x, y) in a.measurements.iter().zip(&b.measurements) {
        prop_assert_eq!(x.config, y.config);
        prop_assert_eq!(x.mean_s.to_bits(), y.mean_s.to_bits());
        prop_assert_eq!(x.std_s.to_bits(), y.std_s.to_bits());
        prop_assert_eq!(x.hbm_fraction.to_bits(), y.hbm_fraction.to_bits());
    }
    Ok(())
}

fn assert_analyses_bit_identical(
    a: &hmpt_repro::core::driver::Analysis,
    b: &hmpt_repro::core::driver::Analysis,
) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(a.campaign.measurements.len(), b.campaign.measurements.len());
    for (x, y) in a.campaign.measurements.iter().zip(&b.campaign.measurements) {
        prop_assert_eq!(x.config, y.config);
        prop_assert_eq!(x.mean_s.to_bits(), y.mean_s.to_bits());
        prop_assert_eq!(x.std_s.to_bits(), y.std_s.to_bits());
        prop_assert_eq!(x.hbm_fraction.to_bits(), y.hbm_fraction.to_bits());
    }
    prop_assert_eq!(a.table2.max_speedup.to_bits(), b.table2.max_speedup.to_bits());
    prop_assert_eq!(a.table2.hbm_only_speedup.to_bits(), b.table2.hbm_only_speedup.to_bits());
    prop_assert_eq!(a.table2.usage_90_pct.to_bits(), b.table2.usage_90_pct.to_bits());
    prop_assert_eq!(a.table2.best_config, b.table2.best_config);
    for (s, p) in a.estimator.single.iter().zip(&b.estimator.single) {
        prop_assert_eq!(s.to_bits(), p.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `ExecutorKind::Parallel` output is bit-identical to `ExecutorKind::Serial`
    /// for random workloads, seeds, and worker counts.
    #[test]
    fn parallel_executor_is_bit_identical(
        spec in arb_workload(),
        seed in 0u64..1000,
        workers in 2usize..6,
    ) {
        let serial = Driver::new(hmpt_repro::machine())
            .with_campaign(campaign(seed))
            .analyze(&spec)
            .unwrap();
        let parallel = Driver::new(hmpt_repro::machine())
            .with_campaign(campaign(seed))
            .with_executor(ExecutorKind::Parallel { workers })
            .analyze(&spec)
            .unwrap();
        assert_analyses_bit_identical(&serial, &parallel)?;
    }

    /// A warmed `MeasurementCache` never changes an `Analysis` result
    /// while reducing the simulated run count to zero, and the cached
    /// pipeline agrees bit-for-bit with the plain driver.
    #[test]
    fn warmed_cache_preserves_results_and_skips_runs(
        spec in arb_workload(),
        seed in 0u64..1000,
    ) {
        let job = TuningJob::new(spec.clone()).with_campaign(campaign(seed));
        let fleet = Fleet::new(FleetConfig::default());

        let cold = fleet.run_job(&job).unwrap();
        let warm = fleet.run_job(&job).unwrap();

        // The cold pass simulated every campaign cell; the warm pass none.
        prop_assert_eq!(
            cold.cache.misses as usize,
            cold.analysis.campaign.total_runs()
        );
        prop_assert_eq!(warm.cache.misses, 0);
        prop_assert!(warm.cache.hits > 0);
        prop_assert!(warm.simulated_runs() < cold.simulated_runs());

        assert_analyses_bit_identical(&cold.analysis, &warm.analysis)?;

        // And neither deviates from the executor-only (cache-less) path.
        let plain = Driver::new(hmpt_repro::machine())
            .with_campaign(campaign(seed))
            .analyze(&spec)
            .unwrap();
        assert_analyses_bit_identical(&plain, &warm.analysis)?;

        // The online verification rides the warmed cache and agrees.
        let online = warm.online.as_ref().expect("online check on by default");
        prop_assert!(online.speedup >= 0.9 * warm.analysis.table2.max_speedup);
    }

    /// Streaming-chunked execution and `CachingExecutor` are
    /// bit-identical to the eager serial path: any chunk size, with or
    /// without a (cold or warmed) cache, produces the same campaign
    /// bits.
    #[test]
    fn chunked_and_cached_streaming_match_eager_serial(
        spec in arb_workload(),
        seed in 0u64..1000,
        chunk in 1usize..40,
    ) {
        let machine = hmpt_repro::machine();
        let groups = grouped(&spec);
        let cfg = campaign(seed);

        // Eager reference: one chunk spanning every cell.
        let plan = CampaignPlan::new(&machine, &spec, &groups, cfg).unwrap();
        let eager = plan.execute_chunked(&ExecutorKind::Serial, usize::MAX).unwrap();

        let chunked = plan.execute_chunked(&ExecutorKind::Serial, chunk).unwrap();
        assert_campaigns_bit_identical(&eager, &chunked)?;

        let cache = Arc::new(MeasurementCache::new());
        let caching = CachingExecutor::new(ExecutorKind::Serial, Arc::clone(&cache));
        let cold = plan.execute_chunked(&caching, chunk).unwrap();
        assert_campaigns_bit_identical(&eager, &cold)?;
        prop_assert_eq!(cache.stats().misses as usize, eager.executed_runs);

        // Warmed: zero new simulated runs, identical bits.
        let warm = plan.execute_chunked(&caching, chunk).unwrap();
        assert_campaigns_bit_identical(&eager, &warm)?;
        prop_assert_eq!(cache.stats().misses as usize, eager.executed_runs);
    }

    /// `ConfidenceTarget` campaigns are deterministic across serial,
    /// parallel, and cached executors: the same cells retire after the
    /// same rounds, so executed-run counts and every measurement bit
    /// agree.
    #[test]
    fn confidence_target_is_deterministic_across_executors(
        spec in arb_workload(),
        seed in 0u64..1000,
        workers in 2usize..6,
        chunk in 1usize..40,
    ) {
        let machine = hmpt_repro::machine();
        let groups = grouped(&spec);
        let cfg = CampaignConfig { runs_per_config: 3, noise: NoiseModel::default(), base_seed: seed };
        let policy = RepPolicy::confidence(0.02, 5);

        let plan = CampaignPlan::new(&machine, &spec, &groups, cfg).unwrap().with_policy(policy);
        let serial = plan.execute(&ExecutorKind::Serial).unwrap();
        prop_assert!(serial.executed_runs <= serial.planned_runs);

        let par = plan
            .execute_chunked(&ExecutorKind::Parallel { workers }, chunk)
            .unwrap();
        assert_campaigns_bit_identical(&serial, &par)?;

        let cache = Arc::new(MeasurementCache::new());
        let cached = plan
            .execute_chunked(
                &CachingExecutor::new(ExecutorKind::Parallel { workers }, cache),
                chunk,
            )
            .unwrap();
        assert_campaigns_bit_identical(&serial, &cached)?;
    }
}

/// Each job counts its own cache lookups at any job width: the jobs'
/// hits and misses add up to the batch's, which the shared cache's own
/// counters measure. One at a time, a job's counts are what the shared
/// cache's counters moved by while it ran. The duplicated mg job reads
/// cells the first one measured, or races it for them.
#[test]
fn per_job_cache_counts_add_up_to_the_batch_at_any_width() {
    use hmpt_repro::workloads::npb;
    let jobs: Vec<TuningJob> = [npb::mg::workload(), npb::is::workload(), npb::mg::workload()]
        .into_iter()
        .chain([npb::bt::workload()])
        .map(TuningJob::new)
        .collect();
    let mut sequential = None;
    for job_workers in [1, 2, 4] {
        let fleet = Fleet::new(FleetConfig { job_workers, ..FleetConfig::default() });
        let batch = fleet.run(&jobs).unwrap();
        let hits: u64 = batch.reports.iter().map(|r| r.cache.hits).sum();
        let misses: u64 = batch.reports.iter().map(|r| r.cache.misses).sum();
        assert_eq!(
            (hits, misses),
            (batch.stats.cache.hits, batch.stats.cache.misses),
            "job_workers {job_workers}: the jobs' counts must add up to the batch's"
        );
        if job_workers == 1 {
            sequential = Some(batch);
        }
    }
    let sequential = sequential.expect("job_workers 1 ran");
    let reference = Fleet::new(FleetConfig { job_workers: 1, ..FleetConfig::default() });
    for (job, report) in jobs.iter().zip(&sequential.reports) {
        let before = reference.cache().stats();
        reference.run_job(job).unwrap();
        assert_eq!(report.cache, reference.cache().stats().since(&before), "{}", job.spec.name);
    }
}
