//! Cache keys are content addresses: two campaign plans built
//! independently from equal machine, spec, groups and campaign settings
//! key every cell identically, and changing any input a cell's outcome
//! depends on — the grouping, the configuration, the noise model, the
//! seed — moves the key.
//!
//! A plan derives keys from memoized hash states, and every path that
//! derives one (`cells()`, `cell()`, an adaptive round, an online probe)
//! must give the bits of the reference tuple built directly with
//! `Fingerprint::of` and `Fingerprint::combine`. Persisted snapshots
//! hold these bits, so a slip would otherwise show only as every old
//! snapshot cold-starting.

use std::sync::Mutex;

use hmpt_core::cache::CellKey;
use hmpt_core::campaign::{CampaignPlan, CellSpec, RepPolicy};
use hmpt_core::configspace::Config;
use hmpt_core::error::TunerError;
use hmpt_core::exec::{CellExecutor, ExecutorKind};
use hmpt_core::grouping::AllocationGroup;
use hmpt_core::measure::{CampaignConfig, CellOutcome};
use hmpt_sim::fingerprint::Fingerprint;
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

/// Cell keys built directly, one full `combine` per word: the
/// reference every plan's memoized derivation must reproduce.
fn reference_keys<'a>(
    machine: &Machine,
    spec: &WorkloadSpec,
    groups: &[AllocationGroup],
    cfg: &'a CampaignConfig,
) -> impl Fn(&CellSpec) -> CellKey + 'a {
    let (machine_fp, spec_fp) = (Fingerprint::of(machine), Fingerprint::of(spec));
    let (groups_fp, noise_fp) = (Fingerprint::of(groups), Fingerprint::of(&cfg.noise));
    move |c| {
        (
            machine_fp,
            spec_fp,
            groups_fp.combine(c.config.0),
            noise_fp.combine(cfg.cell_seed(c.config, c.rep)),
        )
    }
}

/// A serial executor that keeps every cell it is handed.
#[derive(Default)]
struct Recording(Mutex<Vec<CellSpec>>);

impl CellExecutor for Recording {
    fn run_cells(
        &self,
        cells: &[CellSpec],
        measure: &(dyn Fn(&CellSpec) -> Result<CellOutcome, TunerError> + Sync),
    ) -> Vec<Result<CellOutcome, TunerError>> {
        self.0.lock().unwrap().extend_from_slice(cells);
        ExecutorKind::Serial.run_cells(cells, measure)
    }

    fn describe(&self) -> String {
        "recording".to_string()
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_derived_key_is_the_reference_tuple(
        workload in 0usize..WORKLOADS.len(),
        n_groups in 2usize..=3,
        runs in 2usize..=3,
        cv_milli in 1u64..50,
        base_seed in 0u64..1 << 20,
        probe in 0u64..1 << 20,
    ) {
        let spec = WORKLOADS[workload]();
        let groups = singletons(&spec, n_groups);
        let cfg = CampaignConfig {
            runs_per_config: runs,
            noise: NoiseModel { cv: cv_milli as f64 / 1000.0 },
            base_seed,
        };
        let mut pool_counts = Vec::new();
        for preset in Preset::ALL {
            let machine = ZooEntry::preset(preset).build();
            let n_pools = machine.n_pools();
            pool_counts.push(n_pools);
            let reference = reference_keys(&machine, &spec, &groups, &cfg);
            let plan = || CampaignPlan::new(&machine, &spec, &groups, cfg).unwrap();

            // The enumeration, and each of its cells asked for alone.
            let p = plan();
            let cells: Vec<CellSpec> = p.cells().collect();
            prop_assert_eq!(cells.len(), n_pools.pow(n_groups as u32) * runs);
            for c in &cells {
                prop_assert_eq!(c.seed, cfg.cell_seed(c.config, c.rep));
                prop_assert_eq!(c.key, reference(c));
                prop_assert_eq!(p.cell(c.config, c.rep), *c);
            }

            // Adaptive rounds: a ceiling above `runs` and a target no
            // configuration meets, so every round runs every feasible
            // configuration.
            let rec = Recording::default();
            plan().with_policy(RepPolicy::confidence(1e-9, runs + 1)).execute(&rec).unwrap();
            let seen = rec.0.into_inner().unwrap();
            prop_assert!(seen.iter().any(|c| c.rep == runs), "the last round ran");
            for c in &seen {
                prop_assert_eq!(c.key, reference(c));
            }

            // An online probe of one configuration.
            let n_configs = (n_pools as u64).pow(n_groups as u32);
            let config = Config::from_rank(probe % n_configs, n_groups, n_pools);
            let rec = Recording::default();
            let _ = plan().measure_config(&rec, config);
            let seen = rec.0.into_inner().unwrap();
            prop_assert_eq!(seen.len(), runs);
            for c in &seen {
                prop_assert_eq!(c.key, reference(c));
            }
        }
        pool_counts.sort_unstable();
        pool_counts.dedup();
        prop_assert!(pool_counts == [2, 3], "two- and three-pool machines, not {pool_counts:?}");
    }
}

/// Golden keys: the derivation is part of the on-disk cache format,
/// like the encoding `hmpt_sim::fingerprint`'s
/// `fingerprint_encoding_is_pinned` pins. A failure means an unchanged
/// campaign now keys its cells differently. If the derivation changed,
/// bump `hmpt_core::store::SEMANTICS_VERSION` and re-pin in the same
/// commit; if the machine presets or the NPB specs changed, the keys
/// rightly moved — re-pin.
#[test]
fn cell_keys_are_pinned() {
    let spec = npb::mg::workload();
    let groups = singletons(&spec, 3);
    let cfg = CampaignConfig::default();
    let key = |preset: Preset, config: Config| {
        let machine = ZooEntry::preset(preset).build();
        let key = CampaignPlan::new(&machine, &spec, &groups, cfg).unwrap().cell(config, 1).key;
        [key.0.raw(), key.1.raw(), key.2.raw(), key.3.raw()]
    };
    // A binary word on the two-pool paper machine.
    assert_eq!(
        key(Preset::XeonMaxSnc4, Config(0b101)),
        [
            0xdd84_ab85_c53c_2512,
            0x9314_0a11_1f2c_09e3,
            0xcd5c_aad1_37f7_1081,
            0xab95_66c2_f0fc_5389
        ]
    );
    // A mixed-radix word (digits [2, 0, 1]) on the three-pool machine.
    assert_eq!(
        key(Preset::CxlFarTier, Config::from_rank(2 + 9, 3, 3)),
        [
            0xaa77_926b_253f_4b2b,
            0x9314_0a11_1f2c_09e3,
            0x333f_a51e_1d2a_4b07,
            0xe8ac_d92f_e381_ea37
        ]
    );
}
