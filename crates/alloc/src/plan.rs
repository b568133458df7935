//! Placement plans: the site→pool mapping the driver hands to the shim.
//!
//! The real tool writes a plan file after analysis; the shim loads it and
//! redirects every subsequent `malloc` accordingly. Plans here are
//! JSON-serializable and support whole-pool assignment as well as split
//! (interleaved) placement of a single site across both pools.

use std::collections::BTreeMap;

use hmpt_sim::pool::PoolKind;
use serde::{Deserialize, Serialize};

use crate::error::AllocError;
use crate::site::SiteId;

/// Where a site's allocations should live.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Assignment {
    /// Entirely in one pool.
    Pool(PoolKind),
    /// Split across pools: this fraction of each allocation goes to HBM,
    /// the rest to DDR (page-interleaving in the real tool).
    Split { hbm_fraction: f64 },
}

impl Assignment {
    /// Validate the assignment (split fractions must be in `[0, 1]`).
    pub fn validate(&self) -> Result<(), AllocError> {
        match *self {
            Assignment::Pool(_) => Ok(()),
            Assignment::Split { hbm_fraction } => {
                if (0.0..=1.0).contains(&hbm_fraction) && hbm_fraction.is_finite() {
                    Ok(())
                } else {
                    Err(AllocError::BadSplit { hbm_fraction })
                }
            }
        }
    }

    /// Fraction of bytes that land in HBM under this assignment. Far
    /// tiers (CXL/PMEM) count as 0 — only HBM bytes are HBM bytes.
    pub fn hbm_fraction(&self) -> f64 {
        match *self {
            Assignment::Pool(p) => {
                if p == PoolKind::Hbm {
                    1.0
                } else {
                    0.0
                }
            }
            Assignment::Split { hbm_fraction } => hbm_fraction,
        }
    }
}

/// A complete placement plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlacementPlan {
    /// Assignment for sites without an explicit entry.
    pub default: Assignment,
    /// Per-site overrides (BTreeMap for stable serialized order).
    pub by_site: BTreeMap<SiteId, Assignment>,
}

impl Default for PlacementPlan {
    fn default() -> Self {
        Self::all_in(PoolKind::Ddr)
    }
}

impl PlacementPlan {
    /// Everything in one pool (the DDR-only baseline / HBM-only run).
    pub fn all_in(pool: PoolKind) -> Self {
        PlacementPlan { default: Assignment::Pool(pool), by_site: BTreeMap::new() }
    }

    /// DDR default with the given sites promoted to HBM — the shape of
    /// every configuration in the paper's search space.
    pub fn promote_to_hbm<I: IntoIterator<Item = SiteId>>(sites: I) -> Self {
        let mut plan = Self::all_in(PoolKind::Ddr);
        for s in sites {
            plan.by_site.insert(s, Assignment::Pool(PoolKind::Hbm));
        }
        plan
    }

    /// Set one site's assignment.
    pub fn set(&mut self, site: SiteId, assignment: Assignment) -> Result<(), AllocError> {
        assignment.validate()?;
        self.by_site.insert(site, assignment);
        Ok(())
    }

    /// The assignment that applies to `site`.
    pub fn assignment_for(&self, site: SiteId) -> Assignment {
        self.by_site.get(&site).copied().unwrap_or(self.default)
    }

    /// Number of explicit per-site entries.
    pub fn len(&self) -> usize {
        self.by_site.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_site.is_empty()
    }

    /// Serialize to the JSON plan-file format.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plan serialization is infallible")
    }

    /// Load from a JSON plan file.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::StackTrace;

    fn site(name: &str) -> SiteId {
        StackTrace::from_symbols(&[name]).site_id()
    }

    #[test]
    fn default_applies_without_entry() {
        let plan = PlacementPlan::all_in(PoolKind::Ddr);
        assert_eq!(plan.assignment_for(site("x")), Assignment::Pool(PoolKind::Ddr));
    }

    #[test]
    fn promote_overrides_default() {
        let plan = PlacementPlan::promote_to_hbm([site("hot")]);
        assert_eq!(plan.assignment_for(site("hot")), Assignment::Pool(PoolKind::Hbm));
        assert_eq!(plan.assignment_for(site("cold")), Assignment::Pool(PoolKind::Ddr));
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn split_validation() {
        assert!(Assignment::Split { hbm_fraction: 0.5 }.validate().is_ok());
        assert!(Assignment::Split { hbm_fraction: 0.0 }.validate().is_ok());
        assert!(Assignment::Split { hbm_fraction: 1.0 }.validate().is_ok());
        assert!(Assignment::Split { hbm_fraction: -0.1 }.validate().is_err());
        assert!(Assignment::Split { hbm_fraction: 1.1 }.validate().is_err());
        assert!(Assignment::Split { hbm_fraction: f64::NAN }.validate().is_err());
        let mut plan = PlacementPlan::default();
        assert!(plan.set(site("s"), Assignment::Split { hbm_fraction: 2.0 }).is_err());
        assert!(plan.is_empty());
    }

    #[test]
    fn hbm_fraction_of_assignments() {
        assert_eq!(Assignment::Pool(PoolKind::Hbm).hbm_fraction(), 1.0);
        assert_eq!(Assignment::Pool(PoolKind::Ddr).hbm_fraction(), 0.0);
        assert_eq!(Assignment::Split { hbm_fraction: 0.25 }.hbm_fraction(), 0.25);
    }

    #[test]
    fn json_roundtrip() {
        let mut plan = PlacementPlan::promote_to_hbm([site("a"), site("b")]);
        plan.set(site("c"), Assignment::Split { hbm_fraction: 0.3 }).unwrap();
        let json = plan.to_json();
        let back = PlacementPlan::from_json(&json).unwrap();
        assert_eq!(back.assignment_for(site("a")), Assignment::Pool(PoolKind::Hbm));
        assert_eq!(back.assignment_for(site("c")), Assignment::Split { hbm_fraction: 0.3 });
        assert_eq!(back.assignment_for(site("z")), Assignment::Pool(PoolKind::Ddr));
    }
}
