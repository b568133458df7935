//! Streamed attribution is bit-identical to reducing the materialised
//! samples: for random sample streams against a random registry, the
//! per-site running totals a profiling run keeps reduce to exactly the
//! `AccessStats` the old path computed from every sample's copy.

use std::collections::HashMap;

use hmpt_alloc::plan::PlacementPlan;
use hmpt_alloc::registry::Registry;
use hmpt_alloc::shim::Shim;
use hmpt_alloc::site::{SiteId, StackTrace};
use hmpt_perf::{AccessStats, Attribution, MemSample, SiteAccess};
use hmpt_sim::machine::xeon_max_9468;
use hmpt_sim::pool::PoolKind;
use proptest::prelude::*;

/// The reduction profiling used while it kept its samples: charge each
/// sample's copy to its site in stream order (`attribute`), then sum
/// each site's latencies and count its writes (`from_attribution`).
fn reference(samples: &[MemSample], registry: &Registry) -> AccessStats {
    let mut by_site: HashMap<SiteId, Vec<MemSample>> = HashMap::new();
    let mut unattributed = 0;
    for s in samples {
        match registry.lookup(s.addr) {
            Some(rec) => by_site.entry(rec.site).or_default().push(*s),
            None => unattributed += 1,
        }
    }
    let total: usize = by_site.values().map(Vec::len).sum();
    let mut stats = HashMap::new();
    for (site, samples) in &by_site {
        let n = samples.len();
        let mean_latency_ns = samples.iter().map(|s| s.latency_ns).sum::<f64>() / n as f64;
        let writes = samples.iter().filter(|s| s.is_write).count();
        stats.insert(
            *site,
            SiteAccess {
                samples: n,
                density: if total > 0 { n as f64 / total as f64 } else { 0.0 },
                mean_latency_ns,
                write_fraction: writes as f64 / n as f64,
            },
        );
    }
    AccessStats { by_site: stats, total_samples: total, unattributed }
}

/// One site's statistics, floats as bits.
type SiteBits = (SiteId, usize, u64, u64, u64);

/// Every field of every site, floats as bits.
fn bits(stats: &AccessStats) -> (usize, usize, Vec<SiteBits>) {
    let mut sites: Vec<_> = stats
        .by_site
        .iter()
        .map(|(site, a)| {
            (
                *site,
                a.samples,
                a.density.to_bits(),
                a.mean_latency_ns.to_bits(),
                a.write_fraction.to_bits(),
            )
        })
        .collect();
    sites.sort();
    (stats.total_samples, stats.unattributed, sites)
}

/// One sample: a target allocation (or none), where in (or just past)
/// it the address falls, in thousandths of its size, a latency draw and
/// a direction.
type RawSample = (Option<usize>, u64, u64, bool);

fn arb_sample() -> impl Strategy<Value = RawSample> {
    (prop::option::of(0usize..64), 0u64..1100, 0u64..1 << 40, any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streamed_stats_equal_the_materialised_reduction(
        allocs in prop::collection::vec((0u8..6, 1u64..64), 1..12),
        freed in prop::collection::vec(any::<bool>(), 12),
        raw in prop::collection::vec(arb_sample(), 0..400),
    ) {
        // A random registry: allocations from a handful of call sites
        // (so sites alias), some of them freed again.
        let machine = xeon_max_9468();
        let mut shim = Shim::new(&machine, PlacementPlan::default());
        let mut live = Vec::new();
        for (i, &(site, mib)) in allocs.iter().enumerate() {
            let trace = StackTrace::from_symbols(&[&format!("site{site}"), "main"]);
            let a = shim.malloc(&trace, mib << 20).expect("DDR holds a few GiB");
            let (addr, bytes) = (a.addr(), a.bytes);
            if freed[i] {
                shim.free(a.id).expect("live allocation");
            }
            live.push((addr, bytes));
        }
        let samples: Vec<MemSample> = raw
            .iter()
            .map(|&(target, at, draw, is_write)| {
                let addr = match target {
                    // Up to 10 % past the end: skid into whatever lies there.
                    Some(k) => {
                        let (addr, bytes) = live[k % live.len()];
                        addr + bytes / 1000 * at
                    }
                    None => 0xdead_beef,
                };
                // 40–400 ns with a full mantissa, so sums round.
                let latency_ns = 40.0 + 360.0 * (draw as f64 / (1u64 << 40) as f64);
                MemSample { addr, latency_ns, is_write, pool: PoolKind::Ddr }
            })
            .collect();

        let mut streamed = Attribution::default();
        for s in &samples {
            streamed.record(*s, shim.registry());
        }
        let streamed = AccessStats::from_attribution(&streamed);
        prop_assert_eq!(bits(&streamed), bits(&reference(&samples, shim.registry())));
    }
}
