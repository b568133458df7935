//! Campaign-spec text, generated from the workload seed.
//!
//! The benchmark hands the program nothing but spec text: every
//! campaign below is a TOML document that `CampaignSpec::parse` reads,
//! exactly as `hmpt-fleet run` or a `submit` over the wire would.

use hmpt_core::measure::CampaignConfig;

/// The default cross-platform matrix (`examples/zoo.toml`).
pub const ZOO_SPEC: &str = include_str!("../../examples/zoo.toml");
/// The paper's Table II as a batch spec (`examples/table2.toml`).
pub const TABLE2_SPEC: &str = include_str!("../../examples/table2.toml");
/// The pinned zoo campaign record the checked-in seed must reproduce.
pub const ZOO_BASELINE: &str = include_str!("../../baselines/zoo-baseline.json");

/// The zoo's machines, in `examples/zoo.toml` order.
pub const ZOO_MACHINES: [&str; 7] = [
    "xeon-max",
    "xeon-max-quad",
    "hbm-flat",
    "cxl-far",
    "small-hbm",
    "xeon-max*hbm-bw:0.5",
    "xeon-max*hbm-bw:0.25",
];

/// The seven Table II workloads.
pub const WORKLOADS: [&str; 7] = ["mg", "bt", "lu", "sp", "ua", "is", "kwave"];

/// The seed `examples/zoo.toml` runs at (it sets none: the default).
pub fn zoo_seed() -> u64 {
    CampaignConfig::default().base_seed
}

/// The seed `examples/table2.toml` pins in its `[campaign]` table.
pub const TABLE2_SEED: u64 = 3;
const TABLE2_SEED_LINE: &str = "seed = 3\n";

/// SplitMix64: a tiny, well-mixed stream for seed derivation.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic generator over SplitMix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix(seed ^ 0x5eed))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Campaign seed number `i` of a run: the first campaign keeps the
/// checked-in seed, every later one gets its own seed drawn from the
/// workload seed (never the checked-in one, so nothing one campaign
/// computes can answer the next).
pub fn campaign_seed(workload_seed: u64, i: usize, checked_in: u64) -> u64 {
    if i == 0 {
        return checked_in;
    }
    let mut s = splitmix(workload_seed.wrapping_mul(0x1000_0000_01b3) ^ i as u64) >> 16;
    if s == checked_in {
        s += 1;
    }
    s
}

/// The `[execution]` table every generated campaign ends in: the
/// serial cell executor. On a 2-vCPU host shared with other machines,
/// the default cell-parallel executor (a thread pool per 64-cell chunk)
/// made whole zoo campaigns in one process range over 2.9–4.6 s,
/// against 2.5–2.9 s serial, so its timings measured the host's
/// scheduler more than the program. Cache and verify keep the spec's
/// defaults; verify's parallel-uncached re-run still goes through the
/// parallel executor, and `served-stream` still splits each job over
/// the coordinator's shard workers.
const SERIAL: &str = "\n[execution]\nserial = true\n";

/// Matrix spec text at campaign seed `seed`, ending in [`SERIAL`].
fn matrix_spec(text: &str, seed: Option<u64>) -> String {
    let mut text = text.to_string();
    if let Some(seed) = seed {
        text.push_str(&format!("\n[campaign]\nseed = {seed}\n"));
    }
    text.push_str(SERIAL);
    text
}

/// The `zoo-cold` campaign at campaign seed `seed`: `examples/zoo.toml`
/// with the serial cell executor. The `served-stream` warm-up submits
/// it at the zoo's own seed.
pub fn zoo(seed: u64) -> String {
    matrix_spec(ZOO_SPEC, Some(seed).filter(|&s| s != zoo_seed()))
}

/// The serial, uncached, unverified reference run of a generated
/// matrix spec (which ends in its `[execution]` table).
pub fn matrix_reference(spec: &str) -> String {
    assert!(spec.ends_with(SERIAL), "a generated matrix spec ends in its [execution] table");
    format!("{spec}verify = false\n\n[cache]\nenabled = false\n")
}

/// Table II at campaign seed `seed`, with the serial cell executor
/// (`examples/table2.toml` ends in its `[execution]` table).
pub fn table2(seed: u64) -> String {
    assert!(TABLE2_SPEC.contains(TABLE2_SEED_LINE), "examples/table2.toml moved its seed");
    assert!(
        TABLE2_SPEC.ends_with("[execution]\ncompare = false\n"),
        "examples/table2.toml changed"
    );
    let text = TABLE2_SPEC.replacen(TABLE2_SEED_LINE, &format!("seed = {seed}\n"), 1);
    format!("{text}serial = true\n")
}

/// The serial, uncached, naive-kernel reference run of a Table II
/// campaign.
pub fn table2_reference(spec: &str) -> String {
    format!("{spec}fast_path = false\n\n[cache]\nenabled = false\n")
}

/// One `served-stream` job: a small matrix slice.
#[derive(Debug, Clone)]
pub struct ServedJob {
    pub machine: &'static str,
    pub workloads: [&'static str; 2],
    /// `None` keeps the zoo's campaign seed (a warm job: the shared
    /// cache answers every cell); `Some` is a fresh seed.
    pub seed: Option<u64>,
}

impl ServedJob {
    pub fn spec(&self) -> String {
        let text = format!(
            "mode = \"matrix\"\nzoo = [\"{}\"]\nworkloads = [\"{}\", \"{}\"]\n\
             budgets = [\"none\", \"16\", \"8\"]\n",
            self.machine, self.workloads[0], self.workloads[1]
        );
        matrix_spec(&text, self.seed)
    }

    pub fn is_warm(&self) -> bool {
        self.seed.is_none()
    }
}

/// The `served-stream` job list: `fresh` fresh-seed jobs and three
/// warm jobs per fresh one, every fourth job a fresh one. The slices
/// (machine, workload pair, warm or fresh) and their order are fixed;
/// the seed draws the fresh jobs' campaign seeds. A campaign seed never
/// changes how much work a slice is, and the shared cache grows job by
/// job — every later job folds and saves all of it — so a fixed order
/// makes every seed ask for the same work at the same cache size.
pub fn served_jobs(workload_seed: u64, fresh: usize) -> Vec<ServedJob> {
    let pair = |k: usize| [WORKLOADS[k % 7], WORKLOADS[(k % 7 + 1 + (k / 7) % 6) % 7]];
    let mut rng = Rng::new(workload_seed);
    let zoo = zoo_seed();
    let (mut n_fresh, mut n_warm) = (0, 0);
    (0..4 * fresh)
        .map(|p| {
            if p % 4 == 3 {
                let j = n_fresh;
                n_fresh += 1;
                let mut seed = rng.next() >> 16;
                if seed == zoo {
                    seed += 1;
                }
                ServedJob {
                    machine: ZOO_MACHINES[(3 * j + 3) % 7],
                    workloads: pair(j + j / 7),
                    seed: Some(seed),
                }
            } else {
                let j = n_warm;
                n_warm += 1;
                ServedJob {
                    machine: ZOO_MACHINES[j % 7],
                    workloads: pair(3 * j + j / 7),
                    seed: None,
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmpt_core::exec::ExecutorKind;
    use hmpt_fleet::spec::{CampaignSpec, Resolved};

    #[test]
    fn generated_specs_resolve_to_the_intended_settings() {
        let Resolved::Matrix(m) = CampaignSpec::parse(&zoo(42)).unwrap().resolve().unwrap() else {
            panic!("zoo is a matrix")
        };
        assert_eq!(m.matrix.len(), 147);
        assert_eq!(m.matrix.campaign().base_seed, 42);
        assert!(m.verify && m.config.cache_enabled);
        assert_eq!(m.config.executor, ExecutorKind::Serial);

        for reference in
            [matrix_reference(&zoo(42)), matrix_reference(&served_jobs(1, 1)[3].spec())]
        {
            let Resolved::Matrix(r) = CampaignSpec::parse(&reference).unwrap().resolve().unwrap()
            else {
                panic!("a matrix reference is a matrix")
            };
            assert!(!r.verify && !r.config.cache_enabled);
            assert_eq!(r.config.executor, ExecutorKind::Serial);
        }

        let Resolved::Batch(t) = CampaignSpec::parse(&table2(9)).unwrap().resolve().unwrap() else {
            panic!("table2 is a batch")
        };
        assert!(t.fleet.cache_enabled && t.fleet.fast_path && !t.compare);
        assert_eq!(t.fleet.executor, ExecutorKind::Serial);

        let Resolved::Batch(b) =
            CampaignSpec::parse(&table2_reference(&table2(9))).unwrap().resolve().unwrap()
        else {
            panic!("table2 is a batch")
        };
        assert_eq!(b.campaign.base_seed, 9);
        assert_eq!(b.jobs.len(), 7);
        assert!(!b.fleet.cache_enabled && !b.fleet.fast_path && !b.compare);
        assert_eq!(b.fleet.executor, ExecutorKind::Serial);
        assert!(b.fleet.online_check);
    }

    #[test]
    fn checked_in_seeds_reproduce_the_checked_in_campaigns() {
        // The executor choice is outside the spec fingerprint: the
        // generated specs at the checked-in seeds are the same campaigns.
        let fingerprint = |text: &str| CampaignSpec::parse(text).unwrap().fingerprint().unwrap();
        assert_eq!(fingerprint(&zoo(zoo_seed())), fingerprint(ZOO_SPEC));
        assert_eq!(fingerprint(&table2(TABLE2_SEED)), fingerprint(TABLE2_SPEC));
        assert_ne!(fingerprint(&zoo(zoo_seed() + 1)), fingerprint(ZOO_SPEC));
        assert_eq!(campaign_seed(77, 0, 3), 3);
        assert_ne!(campaign_seed(77, 1, 3), campaign_seed(78, 1, 3));
    }

    #[test]
    fn the_seed_draws_fresh_campaign_seeds_only() {
        let key = |j: &ServedJob| (j.machine, j.workloads, j.is_warm());
        let (a, b) = (served_jobs(1, 25), served_jobs(2, 25));
        assert!(a.iter().map(key).eq(b.iter().map(key)), "same slices in the same order");
        let seeds = |jobs: &[ServedJob]| jobs.iter().filter_map(|j| j.seed).collect::<Vec<_>>();
        assert_ne!(seeds(&a), seeds(&b));
        let jobs = served_jobs(1, 25);
        assert_eq!(jobs.len(), 100);
        assert_eq!(jobs.iter().filter(|j| j.is_warm()).count(), 75);
        assert!(jobs.iter().all(|j| j.workloads[0] != j.workloads[1]));
        for job in &jobs {
            CampaignSpec::parse(&job.spec()).unwrap().resolve().unwrap();
        }
    }
}
