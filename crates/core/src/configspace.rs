//! The placement configuration space.
//!
//! With pools `P = {DDR, HBM}` and allocation groups `AG`, every
//! configuration is a subset of groups promoted to HBM:
//! `C = {(∪x, AC \ ∪x) | x ∈ P(AG)}` — `2^|AG|` configurations
//! (§III.A). A [`Config`] is that subset as a bitmask.
//!
//! # N-pool generalization
//!
//! On machines with more than two pools a group's placement is a *pool
//! index* (a mixed-radix digit in `0..n_pools`), not a bit. The word
//! layout keeps every historical two-pool configuration bit-identical:
//!
//! * **Binary words** (no [`Config::is_mixed`] marker): bit `g` set ⇒
//!   group `g` in HBM — exactly the original bitmask. All configurations
//!   whose digits are ≤ 1 are stored this way (canonical form), so
//!   two-pool campaigns produce the same `Config` words, orderings, and
//!   fingerprints as before the generalization.
//! * **Mixed words** (bit 63 set): digit `g` is stored in bits
//!   `2g..2g+2` (two bits per group, group ids < [`MAX_GROUPS`]). These
//!   only arise on ≥3-pool machines for configurations that actually use
//!   a far tier.
//!
//! [`Config::rank`] / [`Config::from_rank`] convert to and from the
//! mixed-radix enumeration index `Σ digit(g)·P^g` in O(G); for `P = 2`
//! the rank *is* the binary word, so the base-P enumeration embeds the
//! historical order exactly.

use hmpt_alloc::plan::{Assignment, PlacementPlan};
use hmpt_sim::pool::PoolKind;
use hmpt_sim::units::Bytes;
use hmpt_workloads::model::WorkloadSpec;
use serde::{Deserialize, Serialize};

use crate::grouping::AllocationGroup;

/// Hard cap on exhaustively enumerable groups (2^24 configs at 2 pools).
pub const MAX_GROUPS: usize = 24;

/// Marker bit distinguishing mixed-radix words from plain bitmasks.
const MARKER: u64 = 1 << 63;

/// Most digits a configuration word holds: one bit per group in the
/// binary form. Digit vectors are built on the stack at this size.
const WORD_DIGITS: usize = 64;

/// Largest group count whose full base-`n_pools` enumeration stays
/// within the two-pool budget of `2^MAX_GROUPS` configurations
/// (24 at P=2, 15 at P=3, 12 at P=4).
pub fn max_groups_for(n_pools: usize) -> usize {
    let mut g = 0usize;
    let mut total = 1u64;
    while g < MAX_GROUPS {
        match total.checked_mul(n_pools as u64) {
            Some(t) if t <= 1u64 << MAX_GROUPS => {
                total = t;
                g += 1;
            }
            _ => break,
        }
    }
    g
}

/// One placement configuration. On the canonical binary form bit `i`
/// set ⇒ group `i` in HBM; see the module docs for the mixed-radix form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Config(pub u64);

impl Config {
    /// The all-DDR baseline.
    pub const DDR_ONLY: Config = Config(0);

    /// Everything in HBM.
    pub fn all_hbm(n_groups: usize) -> Config {
        Config((1u64 << n_groups) - 1)
    }

    /// Promote a single group.
    pub fn single(group: usize) -> Config {
        Config(1 << group)
    }

    /// Whether this word uses the mixed-radix (≥3-pool) encoding.
    pub fn is_mixed(&self) -> bool {
        self.0 & MARKER != 0
    }

    /// The pool index of `group` (0 = DDR, 1 = HBM, 2 = CXL, 3 = PMEM).
    pub fn digit(&self, group: usize) -> u8 {
        if self.is_mixed() {
            ((self.0 >> (2 * group)) & 0b11) as u8
        } else {
            ((self.0 >> group) & 1) as u8
        }
    }

    /// Canonical encoding of a digit vector: plain bitmask when every
    /// digit is ≤ 1, the marker form otherwise.
    pub(crate) fn from_digits(digits: &[u8]) -> Config {
        if digits.iter().all(|&d| d <= 1) {
            let mut w = 0u64;
            for (g, &d) in digits.iter().enumerate() {
                w |= (d as u64) << g;
            }
            Config(w)
        } else {
            debug_assert!(
                digits.iter().skip(MAX_GROUPS).all(|&d| d == 0),
                "mixed configs need group ids < MAX_GROUPS"
            );
            let mut w = MARKER;
            for (g, &d) in digits.iter().enumerate().take(MAX_GROUPS) {
                debug_assert!(d < 4, "pool index out of range");
                w |= (d as u64) << (2 * g);
            }
            Config(w)
        }
    }

    /// This configuration with `group`'s placement replaced by pool
    /// index `d`, re-encoded canonically.
    pub fn with_digit(self, group: usize, d: u8) -> Config {
        let span = if self.is_mixed() { MAX_GROUPS } else { 32 };
        let n = span.max(group + 1);
        let mut digits = [0u8; WORD_DIGITS];
        for (g, slot) in digits[..n].iter_mut().enumerate() {
            *slot = self.digit(g);
        }
        digits[group] = d;
        Config::from_digits(&digits[..n])
    }

    /// Whether `group` is in HBM.
    pub fn contains(&self, group: usize) -> bool {
        self.digit(group) == 1
    }

    pub fn with(self, group: usize) -> Config {
        if self.is_mixed() {
            self.with_digit(group, 1)
        } else {
            Config(self.0 | 1 << group)
        }
    }

    pub fn without(self, group: usize) -> Config {
        if self.is_mixed() {
            self.with_digit(group, 0)
        } else {
            Config(self.0 & !(1 << group))
        }
    }

    /// Number of groups promoted out of DDR (for binary words: the
    /// number of groups in HBM).
    pub fn popcount(&self) -> u32 {
        if self.is_mixed() {
            (0..MAX_GROUPS).filter(|&g| self.digit(g) != 0).count() as u32
        } else {
            self.0.count_ones()
        }
    }

    /// Paper-style label: `[0 1 2]` (indices of HBM groups), `[]` for
    /// DDR-only. Far-tier placements read `[0 2@CXL]`.
    pub fn label(&self) -> String {
        let idx: Vec<String> = if self.is_mixed() {
            (0..MAX_GROUPS)
                .filter(|&i| self.digit(i) != 0)
                .map(|i| {
                    let d = self.digit(i);
                    if d == 1 {
                        i.to_string()
                    } else {
                        format!("{i}@{}", PoolKind::of_index(d as usize).label())
                    }
                })
                .collect()
        } else {
            (0..32).filter(|&i| self.contains(i)).map(|i| i.to_string()).collect()
        };
        format!("[{}]", idx.join(" "))
    }

    /// Bytes this configuration places in HBM.
    pub fn hbm_bytes(&self, groups: &[AllocationGroup]) -> Bytes {
        groups.iter().filter(|g| self.contains(g.id)).map(|g| g.bytes).sum()
    }

    /// Grouped bytes per pool index. The sum over pools always equals
    /// the total grouped footprint (every group lands in exactly one
    /// pool) — the conservation law the planner proptests pin.
    pub fn pool_bytes(&self, groups: &[AllocationGroup], n_pools: usize) -> Vec<Bytes> {
        let mut bytes = vec![0u64; n_pools];
        for g in groups {
            let d = self.digit(g.id) as usize;
            debug_assert!(d < n_pools, "group {} placed in absent pool {d}", g.id);
            bytes[d.min(n_pools - 1)] += g.bytes;
        }
        bytes
    }

    /// Fraction of the footprint in HBM (the x-axis of Fig 7b/9–15).
    pub fn hbm_fraction(&self, groups: &[AllocationGroup]) -> f64 {
        let total: Bytes = groups.iter().map(|g| g.bytes).sum();
        if total == 0 {
            0.0
        } else {
            self.hbm_bytes(groups) as f64 / total as f64
        }
    }

    /// Combined sampled access density of the HBM groups (Fig 7a's blue
    /// crosses).
    pub fn access_fraction(&self, groups: &[AllocationGroup]) -> f64 {
        groups.iter().filter(|g| self.contains(g.id)).map(|g| g.density).sum()
    }

    /// The mixed-radix enumeration index of this configuration:
    /// `Σ digit(g)·n_pools^g`. For two pools and a binary word this is
    /// the word itself — the historical enumeration order.
    pub fn rank(&self, n_pools: usize) -> u64 {
        if !self.is_mixed() && n_pools == 2 {
            return self.0;
        }
        let p = n_pools as u64;
        let mut r = 0u64;
        let mut scale = 1u64;
        for g in 0..MAX_GROUPS {
            r += self.digit(g) as u64 * scale;
            scale = scale.saturating_mul(p);
        }
        r
    }

    /// Decode the mixed-radix index `rank` over `n_groups` groups and
    /// `n_pools` pools (O(G)). For `n_pools = 2` this is `Config(rank)`.
    pub fn from_rank(rank: u64, n_groups: usize, n_pools: usize) -> Config {
        let p = n_pools as u64;
        // A u64 has at most 64 base-`p` digits for `p ≥ 2`: every digit
        // past the 64th is 0, so the stack array holds every rank.
        let digits = &mut [0u8; WORD_DIGITS][..n_groups.min(WORD_DIGITS)];
        let mut r = rank;
        for d in digits.iter_mut() {
            *d = (r % p) as u8;
            r /= p;
        }
        Config::from_digits(digits)
    }

    /// The placement plan realizing this configuration. For binary
    /// words this is byte-identical to the historical promote-to-HBM
    /// plan (same entries, same fingerprint); far-tier digits add
    /// explicit pool bindings for their sites.
    pub fn plan(&self, spec: &WorkloadSpec, groups: &[AllocationGroup]) -> PlacementPlan {
        let sites = groups.iter().filter(|g| self.contains(g.id)).flat_map(|g| g.sites(spec));
        let mut plan = PlacementPlan::promote_to_hbm(sites);
        plan.default = Assignment::Pool(PoolKind::Ddr);
        if self.is_mixed() {
            for g in groups.iter().filter(|g| self.digit(g.id) >= 2) {
                let pool = PoolKind::of_index(self.digit(g.id) as usize);
                for site in g.sites(spec) {
                    plan.set(site, Assignment::Pool(pool))
                        .unwrap_or_else(|e| unreachable!("pool bindings always validate: {e:?}"));
                }
            }
        }
        plan
    }
}

/// Iterate every two-pool configuration of `n_groups` groups, DDR-only
/// first (the paper's `2^|AG|` enumeration).
pub fn enumerate(n_groups: usize) -> impl Iterator<Item = Config> {
    assert!(n_groups <= MAX_GROUPS, "too many groups for exhaustive enumeration");
    (0..(1u64 << n_groups)).map(Config)
}

/// Iterate every `n_pools`-ary configuration of `n_groups` groups in
/// mixed-radix rank order. For `n_pools = 2` this is exactly
/// [`enumerate`]; for more pools the binary configurations appear
/// embedded in the same relative order.
pub fn enumerate_pools(n_groups: usize, n_pools: usize) -> impl Iterator<Item = Config> {
    assert!(n_pools >= 2, "a placement space needs at least two pools");
    assert!(
        n_groups <= max_groups_for(n_pools),
        "too many groups for exhaustive {n_pools}-pool enumeration"
    );
    let total = (n_pools as u64).pow(n_groups as u32);
    (0..total).map(move |r| Config::from_rank(r, n_groups, n_pools))
}

/// The paper's Fig 7a ordering: singles first, then pairs, then larger
/// combinations; within equal size, ascending mask.
pub fn fig7a_order(n_groups: usize) -> Vec<Config> {
    let mut all: Vec<Config> = enumerate(n_groups).skip(1).collect();
    all.sort_by_key(|c| (c.popcount(), c.0));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_groups() -> Vec<AllocationGroup> {
        (0..3)
            .map(|id| AllocationGroup {
                id,
                label: format!("g{id}"),
                members: vec![id],
                bytes: (id as u64 + 1) * 1_000_000_000,
                density: 0.5 / (id as f64 + 1.0),
            })
            .collect()
    }

    #[test]
    fn enumeration_size_is_two_to_the_g() {
        assert_eq!(enumerate(3).count(), 8);
        assert_eq!(enumerate(8).count(), 256);
        assert_eq!(enumerate(0).count(), 1);
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(Config::DDR_ONLY.label(), "[]");
        assert_eq!(Config::single(1).label(), "[1]");
        assert_eq!(Config(0b101).label(), "[0 2]");
    }

    #[test]
    fn footprint_fractions() {
        let groups = toy_groups();
        assert_eq!(Config::DDR_ONLY.hbm_fraction(&groups), 0.0);
        assert_eq!(Config::all_hbm(3).hbm_fraction(&groups), 1.0);
        let f = Config::single(2).hbm_fraction(&groups);
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn set_operations() {
        let c = Config::DDR_ONLY.with(2).with(0);
        assert!(c.contains(0) && c.contains(2) && !c.contains(1));
        assert_eq!(c.without(2), Config::single(0));
        assert_eq!(c.popcount(), 2);
    }

    #[test]
    fn fig7a_order_is_by_size() {
        let order = fig7a_order(3);
        assert_eq!(order.len(), 7);
        let sizes: Vec<u32> = order.iter().map(Config::popcount).collect();
        assert_eq!(sizes, vec![1, 1, 1, 2, 2, 2, 3]);
        assert_eq!(order[0].label(), "[0]");
        assert_eq!(order[6].label(), "[0 1 2]");
    }

    #[test]
    fn plan_promotes_the_right_sites() {
        let spec = hmpt_workloads::npb::mg::workload();
        let groups: Vec<AllocationGroup> = (0..3)
            .map(|id| AllocationGroup {
                id,
                label: spec.allocations[id].label.clone(),
                members: vec![id],
                bytes: spec.allocations[id].bytes,
                density: 0.3,
            })
            .collect();
        let plan = Config(0b101).plan(&spec, &groups);
        assert_eq!(plan.len(), 2);
        let a0 = plan.assignment_for(spec.allocations[0].site());
        assert_eq!(a0.hbm_fraction(), 1.0);
        let a1 = plan.assignment_for(spec.allocations[1].site());
        assert_eq!(a1.hbm_fraction(), 0.0);
    }

    #[test]
    fn access_fraction_sums_group_densities() {
        let groups = toy_groups();
        let f = Config(0b011).access_fraction(&groups);
        assert!((f - (0.5 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn two_pool_rank_is_the_word_itself() {
        for i in 0..256u64 {
            assert_eq!(Config(i).rank(2), i);
            assert_eq!(Config::from_rank(i, 8, 2), Config(i));
        }
    }

    #[test]
    fn mixed_radix_roundtrips_at_every_pool_count() {
        for n_pools in 2..=4usize {
            let n_groups = 5;
            let total = (n_pools as u64).pow(n_groups as u32);
            for r in 0..total {
                let c = Config::from_rank(r, n_groups, n_pools);
                assert_eq!(c.rank(n_pools), r, "pool count {n_pools}, rank {r}");
            }
        }
    }

    #[test]
    fn binary_configs_embed_order_preserving() {
        // Within the 3-pool enumeration, the all-binary configurations
        // appear in the historical two-pool order.
        let binaries: Vec<Config> = enumerate_pools(4, 3).filter(|c| !c.is_mixed()).collect();
        let expected: Vec<Config> = enumerate(4).collect();
        assert_eq!(binaries, expected);
    }

    #[test]
    fn mixed_words_carry_far_tier_digits() {
        let c = Config::from_rank(2 + 9, 3, 3); // digits [2, 0, 1]
        assert!(c.is_mixed());
        assert_eq!(c.digit(0), 2);
        assert_eq!(c.digit(1), 0);
        assert_eq!(c.digit(2), 1);
        assert!(!c.contains(0), "a CXL group is not in HBM");
        assert!(c.contains(2));
        assert_eq!(c.popcount(), 2);
        assert_eq!(c.label(), "[0@CXL 2]");
        // with/without re-canonicalize: dropping the far-tier digit
        // returns to the plain bitmask form.
        let back = c.with_digit(0, 0);
        assert!(!back.is_mixed());
        assert_eq!(back, Config::single(2));
    }

    #[test]
    fn pool_bytes_conserve_the_grouped_footprint() {
        let groups = toy_groups();
        let total: Bytes = groups.iter().map(|g| g.bytes).sum();
        for n_pools in 2..=4usize {
            let n = groups.len();
            for r in 0..(n_pools as u64).pow(n as u32) {
                let c = Config::from_rank(r, n, n_pools);
                let per_pool = c.pool_bytes(&groups, n_pools);
                assert_eq!(per_pool.iter().sum::<Bytes>(), total);
                assert_eq!(per_pool[1], c.hbm_bytes(&groups));
            }
        }
    }

    #[test]
    fn mixed_plan_binds_far_tier_sites() {
        let spec = hmpt_workloads::npb::mg::workload();
        let groups: Vec<AllocationGroup> = (0..3)
            .map(|id| AllocationGroup {
                id,
                label: spec.allocations[id].label.clone(),
                members: vec![id],
                bytes: spec.allocations[id].bytes,
                density: 0.3,
            })
            .collect();
        // digits [2, 0, 1]: group 0 in CXL, group 2 in HBM.
        let c = Config::from_rank(2 + 9, 3, 3);
        let plan = c.plan(&spec, &groups);
        let a0 = plan.assignment_for(spec.allocations[0].site());
        assert_eq!(a0, Assignment::Pool(PoolKind::Cxl));
        let a2 = plan.assignment_for(spec.allocations[2].site());
        assert_eq!(a2, Assignment::Pool(PoolKind::Hbm));
    }

    #[test]
    fn group_budgets_shrink_with_pool_count() {
        assert_eq!(max_groups_for(2), 24);
        assert_eq!(max_groups_for(3), 15);
        assert_eq!(max_groups_for(4), 12);
    }
}
