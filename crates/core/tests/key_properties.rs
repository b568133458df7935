//! Cache keys are content addresses: two campaign plans built
//! independently from equal machine, spec, groups and campaign settings
//! key every cell identically, and changing any input a cell's outcome
//! depends on — the grouping, the configuration, the noise model, the
//! seed — moves the key.

use hmpt_core::cache::CellKey;
use hmpt_core::campaign::CampaignPlan;
use hmpt_core::configspace::Config;
use hmpt_core::grouping::AllocationGroup;
use hmpt_core::measure::CampaignConfig;
use hmpt_sim::machine::Machine;
use hmpt_sim::noise::NoiseModel;
use hmpt_sim::zoo::{Preset, ZooEntry};
use hmpt_workloads::model::WorkloadSpec;
use hmpt_workloads::npb;
use proptest::prelude::*;

const WORKLOADS: [fn() -> WorkloadSpec; 4] =
    [npb::mg::workload, npb::is::workload, npb::sp::workload, npb::bt::workload];

/// Singleton groups over the spec's first `n` allocations.
fn singletons(spec: &WorkloadSpec, n: usize) -> Vec<AllocationGroup> {
    (0..n)
        .map(|id| AllocationGroup {
            id,
            label: spec.allocations[id].label.clone(),
            members: vec![id],
            bytes: spec.allocations[id].bytes,
            density: 0.1,
        })
        .collect()
}

/// The same allocations grouped differently: groups 0 and 1 merged.
fn merged(groups: &[AllocationGroup]) -> Vec<AllocationGroup> {
    let mut out = groups[1..].to_vec();
    out[0].members.extend_from_slice(&groups[0].members);
    out[0].bytes += groups[0].bytes;
    for (id, g) in out.iter_mut().enumerate() {
        g.id = id;
    }
    out
}

fn key_of(
    machine: &Machine,
    spec: &WorkloadSpec,
    groups: &[AllocationGroup],
    cfg: CampaignConfig,
    config: Config,
    rep: usize,
) -> CellKey {
    CampaignPlan::new(machine, spec, groups, cfg).unwrap().cell(config, rep).key
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn keys_are_a_function_of_the_campaign_content(
        preset in 0usize..Preset::ALL.len(),
        workload in 0usize..WORKLOADS.len(),
        n_groups in 2usize..=3,
        runs in 1usize..=3,
        cv_milli in 1u64..50,
        base_seed in 0u64..1 << 20,
        pick in 0u64..1 << 20,
        step in 1u64..1 << 20,
    ) {
        let machine = ZooEntry::preset(Preset::ALL[preset]).build();
        let spec = WORKLOADS[workload]();
        let groups = singletons(&spec, n_groups);
        let cfg = CampaignConfig {
            runs_per_config: runs,
            noise: NoiseModel { cv: cv_milli as f64 / 1000.0 },
            base_seed,
        };

        // Equal inputs, independently built: every cell keys identically.
        let (machine2, spec2, groups2) = (machine.clone(), spec.clone(), groups.clone());
        let a = CampaignPlan::new(&machine, &spec, &groups, cfg).unwrap();
        let b = CampaignPlan::new(&machine2, &spec2, &groups2, cfg).unwrap();
        let keys_a: Vec<CellKey> = a.cells().map(|c| c.key).collect();
        let keys_b: Vec<CellKey> = b.cells().map(|c| c.key).collect();
        prop_assert!(keys_a == keys_b, "equal campaigns keyed differently");

        // One cell, then each input changed in turn.
        let n_configs = (machine.n_pools() as u64).pow(n_groups as u32);
        let config = Config::from_rank(pick % n_configs, n_groups, machine.n_pools());
        let other = Config::from_rank(
            (pick + 1 + step % (n_configs - 1)) % n_configs,
            n_groups,
            machine.n_pools(),
        );
        let rep = (pick as usize) % runs;
        let key = key_of(&machine, &spec, &groups, cfg, config, rep);
        prop_assert!(key == a.cell(config, rep).key);

        let regrouped = merged(&groups);
        prop_assert!(key != key_of(&machine, &spec, &regrouped, cfg, config, rep), "grouping");
        prop_assert!(key != key_of(&machine, &spec, &groups, cfg, other, rep), "configuration");
        let noisier = CampaignConfig { noise: NoiseModel { cv: cfg.noise.cv * 2.0 }, ..cfg };
        prop_assert!(key != key_of(&machine, &spec, &groups, noisier, config, rep), "noise model");
        let reseeded = CampaignConfig { base_seed: base_seed + 1, ..cfg };
        prop_assert!(key != key_of(&machine, &spec, &groups, reseeded, config, rep), "seed");
    }
}
