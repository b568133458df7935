//! Cold-path kernel bench: the batched delta-updating evaluator versus
//! the naive per-cell pipeline on an 8-group (256-configuration)
//! campaign, cold and warm, plus the fast path alone on the
//! mixed-radix space of a three-pool machine (`cxl-far`, 3^8 = 6,561
//! configurations).
//!
//! *Cold* builds a fresh [`CampaignPlan`] per iteration, so the fast
//! path pays its whole stack inside the measurement — `MachineCtx` +
//! template construction, the Gray-code accumulator walk, and the
//! per-rep noise replay. *Warm* re-answers the campaign through one
//! long-lived plan: the naive path re-simulates every cell while the
//! fast path replays memoized templates. The three-pool pair has no
//! naive side: its 19,683 cells would take the naive pipeline seconds
//! per iteration. The `BENCH_JSON` trail (`BENCH_coldpath.json` in CI)
//! is where the ≥10× cold-speedup claim is checked run-over-run.

use criterion::{criterion_group, criterion_main, Criterion};
use hmpt_core::campaign::CampaignPlan;
use hmpt_core::driver::Driver;
use hmpt_core::exec::ExecutorKind;
use hmpt_core::grouping::{group, AllocationGroup, GroupingConfig};
use hmpt_core::measure::CampaignConfig;
use hmpt_sim::machine::{xeon_max_9468, Machine};
use hmpt_sim::zoo::{Preset, ZooEntry};
use hmpt_workloads::model::WorkloadSpec;
use std::hint::black_box;

/// sp's profile-driven allocation groups on `machine`.
fn sp_groups(machine: &Machine, spec: &WorkloadSpec) -> Vec<AllocationGroup> {
    let profile = Driver::new(machine.clone()).profile(spec).expect("profile");
    let groups = group(spec, &profile.stats, &GroupingConfig::default());
    assert_eq!(groups.len(), 8, "the cold-path claims are quoted on 8-group campaigns");
    groups
}

fn bench(c: &mut Criterion) {
    let spec = hmpt_workloads::npb::sp::workload();
    let cfg = CampaignConfig::default();
    let machine = xeon_max_9468();
    let groups = sp_groups(&machine, &spec);
    let far = ZooEntry::preset(Preset::CxlFarTier).build();
    assert_eq!(far.n_pools(), 3);
    let far_groups = sp_groups(&far, &spec);

    let plan = |fast: bool| {
        CampaignPlan::new(&machine, &spec, &groups, cfg).expect("plan").with_fast_path(fast)
    };
    let far_plan = || CampaignPlan::new(&far, &spec, &far_groups, cfg).expect("plan");

    let mut g = c.benchmark_group("coldpath");
    g.sample_size(10);

    g.bench_function("naive_cold", |b| {
        b.iter(|| black_box(plan(false).execute(&ExecutorKind::Serial).expect("campaign")))
    });
    g.bench_function("fast_cold", |b| {
        b.iter(|| black_box(plan(true).execute(&ExecutorKind::Serial).expect("campaign")))
    });

    let warm_naive = plan(false);
    warm_naive.execute(&ExecutorKind::Serial).expect("warm-up");
    g.bench_function("naive_warm", |b| {
        b.iter(|| black_box(warm_naive.execute(&ExecutorKind::Serial).expect("campaign")))
    });
    let warm_fast = plan(true);
    warm_fast.execute(&ExecutorKind::Serial).expect("warm-up");
    g.bench_function("fast_warm", |b| {
        b.iter(|| black_box(warm_fast.execute(&ExecutorKind::Serial).expect("campaign")))
    });

    g.bench_function("fast_cold_3pool", |b| {
        b.iter(|| black_box(far_plan().execute(&ExecutorKind::Serial).expect("campaign")))
    });
    let warm_far = far_plan();
    warm_far.execute(&ExecutorKind::Serial).expect("warm-up");
    g.bench_function("fast_warm_3pool", |b| {
        b.iter(|| black_box(warm_far.execute(&ExecutorKind::Serial).expect("campaign")))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
