//! Allocation grouping (§III.A of the paper).
//!
//! The captured allocations are "filtered and possibly grouped to
//! restrict \[the\] configuration space and thus analysis time. Typically,
//! allocations smaller than L2 or L3 cache size can be assumed to be
//! insignificant and are ignored or folded into a single allocation
//! group. … we decided to aim for 8 allocation groups, which are chosen
//! as the top 7 allocations (when ranked by individual performance
//! impact), while the rest are included in the last group."
//!
//! Ranking uses the sampled access density as the impact proxy; workloads
//! may override the grouping entirely with domain knowledge
//! ([`hmpt_workloads::model::WorkloadSpec::grouping_hint`], used by
//! k-Wave exactly as the paper describes).

use hmpt_alloc::site::SiteId;
use hmpt_perf::stats::AccessStats;
use hmpt_sim::units::Bytes;
use hmpt_workloads::model::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// One allocation group: the placement unit of the configuration space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocationGroup {
    /// Group index (0 = highest impact; the paper's `[0]`, `[1]`, …).
    pub id: usize,
    /// Display label: the allocation's array name, or `rest`.
    pub label: String,
    /// Allocation indices (into the workload spec) in this group.
    pub members: Vec<usize>,
    /// Combined footprint.
    pub bytes: Bytes,
    /// Combined sampled access density.
    pub density: f64,
}

impl AllocationGroup {
    /// The sites whose plan entries move this group.
    pub fn sites(&self, spec: &WorkloadSpec) -> Vec<SiteId> {
        self.members.iter().map(|&i| spec.allocations[i].site()).collect()
    }
}

/// Grouping parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GroupingConfig {
    /// Total number of groups to aim for (paper: 8 = top 7 + rest).
    pub max_groups: usize,
    /// Allocations below this size are folded into the rest group
    /// regardless of density (paper: L2/L3 cache size).
    pub size_threshold: Bytes,
}

impl Default for GroupingConfig {
    fn default() -> Self {
        // 105 MiB ≈ the SPR L3 slice the paper uses as the filter bound.
        GroupingConfig { max_groups: 8, size_threshold: 110_100_480 }
    }
}

/// Group a workload's allocations given profiled access statistics.
///
/// Returns groups ordered by descending density; the fold-everything-else
/// group (if any) is last and labelled `rest`.
pub fn group(
    spec: &WorkloadSpec,
    stats: &AccessStats,
    cfg: &GroupingConfig,
) -> Vec<AllocationGroup> {
    if let Some(hint) = &spec.grouping_hint {
        return group_by_hint(spec, stats, hint);
    }
    let density = |idx: usize| stats.density(spec.allocations[idx].site());

    // Partition into ranked candidates and the rest.
    let mut candidates: Vec<usize> = Vec::new();
    let mut rest: Vec<usize> = Vec::new();
    for (i, a) in spec.allocations.iter().enumerate() {
        if a.bytes < cfg.size_threshold {
            rest.push(i);
        } else {
            candidates.push(i);
        }
    }
    candidates.sort_by(|&a, &b| {
        density(b)
            .total_cmp(&density(a))
            .then(spec.allocations[a].label.cmp(&spec.allocations[b].label))
    });

    let top_n = cfg.max_groups.saturating_sub(1).max(1);
    if candidates.len() > top_n {
        rest.extend(candidates.split_off(top_n));
    }

    let mut groups: Vec<AllocationGroup> = candidates
        .into_iter()
        .map(|i| AllocationGroup {
            id: 0,
            label: spec.allocations[i].label.clone(),
            members: vec![i],
            bytes: spec.allocations[i].bytes,
            density: density(i),
        })
        .collect();
    if !rest.is_empty() {
        groups.push(AllocationGroup {
            id: 0,
            label: "rest".to_string(),
            members: rest.clone(),
            bytes: rest.iter().map(|&i| spec.allocations[i].bytes).sum(),
            density: rest.iter().map(|&i| density(i)).sum(),
        });
    }
    finalize(groups)
}

fn group_by_hint(
    spec: &WorkloadSpec,
    stats: &AccessStats,
    hint: &[Vec<usize>],
) -> Vec<AllocationGroup> {
    let groups = hint
        .iter()
        .map(|members| {
            let density = members.iter().map(|&i| stats.density(spec.allocations[i].site())).sum();
            let label = if members.len() == 1 {
                spec.allocations[members[0]].label.clone()
            } else {
                // Common-prefix label for grouped fields (ux_sgx_x/y/z →
                // "ux_sgx_*"), else "group".
                common_label(members.iter().map(|&i| spec.allocations[i].label.as_str()))
            };
            AllocationGroup {
                id: 0,
                label,
                members: members.clone(),
                bytes: members.iter().map(|&i| spec.allocations[i].bytes).sum(),
                density,
            }
        })
        .collect();
    finalize(groups)
}

fn common_label<'a>(mut labels: impl Iterator<Item = &'a str>) -> String {
    let first = labels.next().unwrap_or("group");
    let mut prefix = first.len();
    for l in labels {
        prefix = prefix.min(l.bytes().zip(first.bytes()).take_while(|(a, b)| a == b).count());
    }
    if prefix == 0 {
        "group".to_string()
    } else {
        format!("{}*", &first[..prefix])
    }
}

/// Sort by descending density (keeping `rest` last) and assign ids.
fn finalize(mut groups: Vec<AllocationGroup>) -> Vec<AllocationGroup> {
    groups.sort_by(|a, b| {
        let a_rest = a.label == "rest";
        let b_rest = b.label == "rest";
        a_rest.cmp(&b_rest).then(b.density.total_cmp(&a.density)).then(a.label.cmp(&b.label))
    });
    for (i, g) in groups.iter_mut().enumerate() {
        g.id = i;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmpt_perf::attr::{Attribution, SiteTally};

    /// Stats assigning each allocation i a density proportional to
    /// `weights[i]`.
    fn fake_stats(spec: &WorkloadSpec, weights: &[usize]) -> AccessStats {
        let mut attr = Attribution::default();
        for (i, &w) in weights.iter().enumerate() {
            let site = spec.allocations[i].site();
            let tally = SiteTally { samples: w, latency_sum_ns: w as f64 * 95.0, writes: 0 };
            attr.by_site.insert(site, tally);
        }
        AccessStats::from_attribution(&attr)
    }

    #[test]
    fn mg_groups_by_density() {
        let spec = hmpt_workloads::npb::mg::workload();
        let stats = fake_stats(&spec, &[48, 8, 44]); // u, v, r
        let groups = group(&spec, &stats, &GroupingConfig::default());
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].label, "u");
        assert_eq!(groups[1].label, "r");
        assert_eq!(groups[2].label, "v");
        assert_eq!(groups.iter().map(|g| g.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn ua_folds_small_arrays_into_rest() {
        let spec = hmpt_workloads::npb::ua::workload();
        let weights: Vec<usize> = (0..spec.allocations.len()).map(|i| 100 - i).collect();
        let stats = fake_stats(&spec, &weights);
        let groups = group(&spec, &stats, &GroupingConfig::default());
        assert_eq!(groups.len(), 8, "top 7 + rest");
        let rest = groups.last().unwrap();
        assert_eq!(rest.label, "rest");
        assert_eq!(rest.members.len(), 49);
    }

    #[test]
    fn kwave_uses_the_manual_hint() {
        let spec = hmpt_workloads::kwave::workload();
        let stats = fake_stats(&spec, &[1; 34]);
        let groups = group(&spec, &stats, &GroupingConfig::default());
        assert_eq!(groups.len(), 7);
        // Field groups keep their three components together.
        assert!(groups.iter().any(|g| g.members.len() == 3));
        assert!(groups.iter().any(|g| g.members.len() == 22));
        // Every allocation appears exactly once.
        let mut all: Vec<usize> = groups.iter().flat_map(|g| g.members.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..34).collect::<Vec<_>>());
    }

    #[test]
    fn bt_rest_group_holds_the_overflow() {
        let spec = hmpt_workloads::npb::bt::workload();
        // Densities mirroring the model's traffic: u, rhs hot.
        let stats = fake_stats(&spec, &[455, 450, 12, 14, 13, 13, 13, 13, 13]);
        let groups = group(&spec, &stats, &GroupingConfig::default());
        assert_eq!(groups.len(), 8);
        assert_eq!(groups[0].label, "u");
        assert_eq!(groups[1].label, "rhs");
        let rest = groups.last().unwrap();
        assert_eq!(rest.members.len(), 2, "9 allocations → 7 singles + rest of 2");
    }

    #[test]
    fn group_bytes_cover_footprint() {
        let spec = hmpt_workloads::npb::sp::workload();
        let stats = fake_stats(&spec, &[5; 10]);
        let groups = group(&spec, &stats, &GroupingConfig::default());
        let total: u64 = groups.iter().map(|g| g.bytes).sum();
        assert_eq!(total, spec.footprint());
    }

    #[test]
    fn common_label_prefixes() {
        assert_eq!(common_label(["ux_a", "ux_b"].into_iter()), "ux_*");
        assert_eq!(common_label(["x", "y"].into_iter()), "group");
    }
}
