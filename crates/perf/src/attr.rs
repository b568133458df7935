//! Sample → allocation attribution through the registry.
//!
//! Attribution is streamed: each sample is charged to its site the
//! moment it is drawn and only the per-site running totals are kept
//! ([`SiteTally`]), so a profiling run never holds its samples. A
//! sample that lands inside the allocation its stream reads is charged
//! to that allocation directly ([`Attribution::record_from`]); only
//! skid past its end consults the registry.

use hmpt_alloc::registry::Registry;
use hmpt_alloc::shim::Allocation;
use hmpt_alloc::site::SiteId;
use hmpt_sim::fingerprint::WordMap;

use crate::ibs::MemSample;

/// Running totals of the samples charged to one site — everything
/// [`AccessStats`](crate::stats::AccessStats) reduces.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SiteTally {
    pub samples: usize,
    /// Sum of the reported latencies, ns, added in sample order.
    pub latency_sum_ns: f64,
    /// Samples that are writes.
    pub writes: usize,
}

/// Per-site totals of the samples attributed so far. The map is keyed
/// by site ids, which are already hashes, so it takes the cheap word
/// hasher: a profile charges one insert per sample.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    pub by_site: WordMap<SiteId, SiteTally>,
    /// Samples whose address matched no live allocation (skid past the
    /// end, freed memory, stack/code addresses on real hardware).
    pub unattributed: usize,
}

impl Attribution {
    /// Charge one sample to the live allocation its address falls in,
    /// using the registry's live address map.
    pub fn record(&mut self, sample: MemSample, registry: &Registry) {
        self.charge(registry.lookup(sample.addr).map(|rec| rec.site), sample);
    }

    /// [`Self::record`] for a sample drawn from a stream over `own`, a
    /// live allocation of `registry`: a sample inside `own`'s extents is
    /// charged to `own`'s site without the registry's range walk. Live
    /// extents never overlap, so the registry would name the same
    /// allocation; only a sample that skid carried outside `own` asks it.
    pub fn record_from(&mut self, sample: MemSample, own: &Allocation, registry: &Registry) {
        let site = if own.extents.iter().any(|e| e.contains(sample.addr)) {
            Some(own.site)
        } else {
            registry.lookup(sample.addr).map(|rec| rec.site)
        };
        self.charge(site, sample);
    }

    fn charge(&mut self, site: Option<SiteId>, sample: MemSample) {
        match site {
            Some(site) => {
                let tally = self.by_site.entry(site).or_default();
                tally.samples += 1;
                tally.latency_sum_ns += sample.latency_ns;
                tally.writes += usize::from(sample.is_write);
            }
            None => self.unattributed += 1,
        }
    }

    /// Total attributed samples.
    pub fn attributed(&self) -> usize {
        self.by_site.values().map(|t| t.samples).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmpt_alloc::plan::PlacementPlan;
    use hmpt_alloc::shim::Shim;
    use hmpt_alloc::site::StackTrace;
    use hmpt_alloc::vspace::PAGE;
    use hmpt_sim::machine::xeon_max_9468;
    use hmpt_sim::pool::PoolKind;
    use hmpt_sim::units::mib;

    fn sample(addr: u64, latency_ns: f64, is_write: bool) -> MemSample {
        MemSample { addr, latency_ns, is_write, pool: PoolKind::Ddr }
    }

    fn attribute(samples: &[MemSample], registry: &Registry) -> Attribution {
        let mut attr = Attribution::default();
        for s in samples {
            attr.record(*s, registry);
        }
        attr
    }

    #[test]
    fn samples_land_on_their_sites() {
        let machine = xeon_max_9468();
        let mut shim = Shim::new(&machine, PlacementPlan::default());
        let ta = StackTrace::from_symbols(&["a", "main"]);
        let tb = StackTrace::from_symbols(&["b", "main"]);
        let a = shim.malloc(&ta, mib(64)).unwrap();
        let b = shim.malloc(&tb, mib(64)).unwrap();

        let samples = vec![
            sample(a.addr(), 90.0, false),
            sample(a.addr() + mib(1), 100.0, true),
            sample(b.addr() + 17, 95.0, false),
            sample(0xdead_beef, 95.0, true), // nowhere
        ];
        let attr = attribute(&samples, shim.registry());
        assert_eq!(attr.attributed(), 3);
        assert_eq!(attr.unattributed, 1);
        assert_eq!(
            attr.by_site[&ta.site_id()],
            SiteTally { samples: 2, latency_sum_ns: 190.0, writes: 1 }
        );
        assert_eq!(
            attr.by_site[&tb.site_id()],
            SiteTally { samples: 1, latency_sum_ns: 95.0, writes: 0 }
        );
    }

    #[test]
    fn a_sample_skid_carried_outside_its_allocation_goes_to_the_registry() {
        let machine = xeon_max_9468();
        let mut shim = Shim::new(&machine, PlacementPlan::default());
        let ta = StackTrace::from_symbols(&["a", "main"]);
        let tb = StackTrace::from_symbols(&["b", "main"]);
        // `a` fills its pages whole, so `b` starts where `a` ends.
        let a = shim.malloc(&ta, PAGE).unwrap();
        let b = shim.malloc(&tb, mib(1)).unwrap();
        assert_eq!(b.addr(), a.addr() + PAGE);

        let samples = [
            sample(a.addr() + 5, 90.0, false),
            sample(a.addr() + PAGE + 3, 95.0, true), // skid into `b`
            sample(b.addr() + mib(1) + 7, 95.0, false), // skid past `b`
        ];
        let mut fast = Attribution::default();
        for s in samples {
            fast.record_from(s, &a, shim.registry());
        }
        assert_eq!(
            fast.by_site[&ta.site_id()],
            SiteTally { samples: 1, latency_sum_ns: 90.0, writes: 0 }
        );
        assert_eq!(
            fast.by_site[&tb.site_id()],
            SiteTally { samples: 1, latency_sum_ns: 95.0, writes: 1 }
        );
        assert_eq!(fast.unattributed, 1);
        let registry = attribute(&samples, shim.registry());
        assert_eq!((fast.by_site, fast.unattributed), (registry.by_site, registry.unattributed));
    }

    #[test]
    fn freed_allocations_do_not_attract_samples() {
        let machine = xeon_max_9468();
        let mut shim = Shim::new(&machine, PlacementPlan::default());
        let t = StackTrace::from_symbols(&["gone", "main"]);
        let a = shim.malloc(&t, mib(8)).unwrap();
        let addr = a.addr();
        shim.free(a.id).unwrap();
        let attr = attribute(&[sample(addr, 95.0, false)], shim.registry());
        assert_eq!(attr.attributed(), 0);
        assert_eq!(attr.unattributed, 1);
    }

    #[test]
    fn empty_input_is_empty() {
        let machine = xeon_max_9468();
        let shim = Shim::new(&machine, PlacementPlan::default());
        let attr = attribute(&[], shim.registry());
        assert_eq!(attr.attributed(), 0);
        assert_eq!(attr.unattributed, 0);
    }
}
