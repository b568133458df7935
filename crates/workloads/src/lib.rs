//! # hmpt-workloads — the evaluated applications
//!
//! Rust rebuilds of every workload the paper evaluates, expressed as
//! *phase-level traffic models* over named allocations (the representation
//! the tuner actually observes) plus a set of **native kernels** that
//! really execute on the host for validation and examples.
//!
//! | Paper workload | Module | Role |
//! |---|---|---|
//! | STREAM (copy/scale/add/triad) | [`stream_bench`] | Figs 2, 5 |
//! | Pointer chase (window sweep) | [`pchase`] | Fig 3 |
//! | Random indirect sum / parallel chase | [`randsum`], [`pchase`] | Fig 4 |
//! | NPB mg.D / bt.D / lu.D / sp.D / ua.D / is.C×4 | [`npb`] | Figs 7, 9–14, Tables I & II |
//! | k-Wave 512³ | [`kwave`] | Fig 15, Tables I & II |
//! | (real execution) | [`native`] | host-side kernels |
//!
//! Each model workload declares its allocations (label, size, synthetic
//! call-site) and a list of [`model::Phase`]s; the [`runner`] materializes
//! the allocations through the [`hmpt_alloc::shim::Shim`] under a
//! [`hmpt_alloc::plan::PlacementPlan`], prices every phase with the
//! simulator, samples accesses with the IBS model, and returns the run's
//! time, counters, and samples — one simulated benchmark execution.
//!
//! ## Where the traffic numbers come from
//!
//! Array structure (names, counts, relative sizes) follows the benchmark
//! sources (NPB 3.4.x, k-Wave). Per-phase traffic volumes and effective
//! compute throughputs are *calibrated* so each benchmark reproduces its
//! paper-measured triple (maximum speedup, HBM-only speedup, 90 %-speedup
//! HBM usage) on the simulated platform — see `DESIGN.md` and the
//! doc-comments on each workload for the per-benchmark derivation.

pub mod kwave;
pub mod model;
pub mod native;
pub mod npb;
pub mod pchase;
pub mod randsum;
pub mod runner;
pub mod stream_bench;

pub use model::{AllocSpec, Phase, StreamSpec, WorkloadSpec};
pub use runner::{run_once, RunConfig, RunOutcome};

/// Builds one workload model.
type Constructor = fn() -> WorkloadSpec;

/// Every Table II workload's name and constructor, in paper order —
/// the one table behind [`table2_workloads`] and [`find_table2`].
const TABLE2: [(&str, Constructor); 7] = [
    ("mg.D", npb::mg::workload),
    ("bt.D", npb::bt::workload),
    ("lu.D", npb::lu::workload),
    ("sp.D", npb::sp::workload),
    ("ua.D", npb::ua::workload),
    ("is.Cx4", npb::is::workload),
    ("kwave", kwave::workload),
];

/// Every paper benchmark with a Table II row, in paper order.
pub fn table2_workloads() -> Vec<WorkloadSpec> {
    TABLE2.iter().map(|(_, build)| build()).collect()
}

/// Look up a Table II workload by exact name or unambiguous prefix
/// (`mg` → `mg.D`) — the resolution behind CLI arguments and campaign
/// specs. An empty or ambiguous name resolves to nothing: a spec slip
/// must fail the run, never silently pick a workload. Only the named
/// workload is built.
pub fn find_table2(name: &str) -> Option<WorkloadSpec> {
    resolve(&TABLE2, name).map(|build| build())
}

/// The entry of `table` named `name` exactly, else the one entry whose
/// name `name` prefixes; nothing for an empty or ambiguous name.
fn resolve<'t, T>(table: &'t [(&str, T)], name: &str) -> Option<&'t T> {
    if name.is_empty() {
        return None;
    }
    if let Some((_, entry)) = table.iter().find(|(n, _)| *n == name) {
        return Some(entry);
    }
    let mut matches = table.iter().filter(|(n, _)| n.starts_with(name));
    match (matches.next(), matches.next()) {
        (Some((_, entry)), None) => Some(entry),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_table_name_is_its_constructors_name() {
        for (name, build) in TABLE2 {
            assert_eq!(build().name, name);
        }
        let names: Vec<String> = table2_workloads().into_iter().map(|w| w.name).collect();
        assert_eq!(names, ["mg.D", "bt.D", "lu.D", "sp.D", "ua.D", "is.Cx4", "kwave"]);
    }

    #[test]
    fn find_table2_requires_an_unambiguous_name() {
        assert_eq!(find_table2("mg").unwrap().name, "mg.D");
        assert_eq!(find_table2("is.Cx4").unwrap().name, "is.Cx4");
        assert!(find_table2("").is_none(), "an empty name must not resolve");
        assert!(find_table2("zz").is_none());
        assert!(find_table2("mg.D.x").is_none(), "a longer name is no prefix");
        // Every exact name and every current one-token prefix resolves
        // to itself.
        for w in table2_workloads() {
            assert_eq!(find_table2(&w.name).unwrap().name, w.name);
        }
        // Resolution builds the named workload in full.
        assert_eq!(find_table2("sp").unwrap().fingerprint(), npb::sp::workload().fingerprint());
    }

    #[test]
    fn an_exact_name_wins_and_an_ambiguous_prefix_resolves_to_nothing() {
        // Today's names share no prefix, so the rule is pinned on a
        // table whose names do.
        let table = [("ab.D", 1), ("ac.D", 2), ("ab", 3)];
        assert_eq!(resolve(&table, "ab"), Some(&3), "an exact name beats a longer match");
        assert_eq!(resolve(&table, "ac"), Some(&2));
        assert_eq!(resolve(&table, "ab."), Some(&1));
        assert_eq!(resolve(&table, "a"), None, "`a` prefixes three names");
        assert_eq!(resolve(&table, ""), None);
    }
}
