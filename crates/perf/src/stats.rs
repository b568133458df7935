//! Per-site access statistics: the densities behind the paper's analysis.
//!
//! "Relative memory access density \[is\] determined as the fraction of all
//! memory accesses (sampled using IBS/PEBS) falling in the address range
//! of the allocation" — these are the blue crosses of Fig 7a and the
//! ranking signal for allocation grouping.

use std::collections::HashMap;

use hmpt_alloc::site::SiteId;
use serde::{Deserialize, Serialize};

use crate::attr::Attribution;

/// Access statistics for one site.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SiteAccess {
    pub samples: usize,
    /// Fraction of all attributed samples landing in this site.
    pub density: f64,
    /// Mean reported service latency, ns.
    pub mean_latency_ns: f64,
    /// Fraction of the site's samples that are writes.
    pub write_fraction: f64,
}

/// Access statistics for a whole profiling run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AccessStats {
    pub by_site: HashMap<SiteId, SiteAccess>,
    pub total_samples: usize,
    pub unattributed: usize,
}

impl AccessStats {
    /// Reduce an attribution's per-site totals into per-site
    /// statistics.
    pub fn from_attribution(attr: &Attribution) -> Self {
        let total = attr.attributed();
        let mut by_site = HashMap::with_capacity(attr.by_site.len());
        for (site, tally) in &attr.by_site {
            let n = tally.samples;
            if n == 0 {
                continue;
            }
            by_site.insert(
                *site,
                SiteAccess {
                    samples: n,
                    density: if total > 0 { n as f64 / total as f64 } else { 0.0 },
                    mean_latency_ns: tally.latency_sum_ns / n as f64,
                    write_fraction: tally.writes as f64 / n as f64,
                },
            );
        }
        AccessStats { by_site, total_samples: total, unattributed: attr.unattributed }
    }

    /// Density of one site (0 when unseen).
    pub fn density(&self, site: SiteId) -> f64 {
        self.by_site.get(&site).map(|s| s.density).unwrap_or(0.0)
    }

    /// Sites ranked by descending density.
    pub fn ranked(&self) -> Vec<(SiteId, f64)> {
        let mut v: Vec<(SiteId, f64)> = self.by_site.iter().map(|(k, s)| (*k, s.density)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::SiteTally;
    use hmpt_alloc::site::StackTrace;

    fn site(name: &str) -> SiteId {
        StackTrace::from_symbols(&[name]).site_id()
    }

    /// `n` samples of `latency` ns each, `writes` of them writes.
    fn tally(n: usize, latency: f64, writes: usize) -> SiteTally {
        SiteTally { samples: n, latency_sum_ns: n as f64 * latency, writes }
    }

    fn make_stats() -> AccessStats {
        let mut attr = Attribution::default();
        attr.by_site.insert(site("hot"), tally(90, 100.0, 30));
        attr.by_site.insert(site("cold"), tally(10, 120.0, 0));
        attr.unattributed = 5;
        AccessStats::from_attribution(&attr)
    }

    #[test]
    fn densities_sum_to_one() {
        let s = make_stats();
        let sum: f64 = s.by_site.values().map(|x| x.density).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((s.density(site("hot")) - 0.9).abs() < 1e-12);
        assert!((s.density(site("cold")) - 0.1).abs() < 1e-12);
        assert_eq!(s.density(site("never")), 0.0);
    }

    #[test]
    fn ranking_is_descending() {
        let s = make_stats();
        let ranked = s.ranked();
        assert_eq!(ranked[0].0, site("hot"));
        assert_eq!(ranked[1].0, site("cold"));
    }

    #[test]
    fn latency_and_write_stats() {
        let s = make_stats();
        let hot = &s.by_site[&site("hot")];
        assert!((hot.mean_latency_ns - 100.0).abs() < 1e-12);
        assert!((hot.write_fraction - 30.0 / 90.0).abs() < 1e-12);
    }

    #[test]
    fn unattributed_preserved() {
        let s = make_stats();
        assert_eq!(s.unattributed, 5);
        assert_eq!(s.total_samples, 100);
    }

    #[test]
    fn empty_attribution() {
        let s = AccessStats::from_attribution(&Attribution::default());
        assert_eq!(s.total_samples, 0);
        assert!(s.ranked().is_empty());
    }
}
