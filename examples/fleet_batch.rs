//! Fleet batch example: answer a stream of tuning jobs with a shared
//! job pool and content-addressed measurement cache.
//!
//! ```text
//! cargo run --release --example fleet_batch
//! ```
//!
//! Two "customers" ask for overlapping work: the second batch repeats a
//! workload from the first, so its campaign cells (including the shared
//! DDR-only baseline) are answered from the cache without a single new
//! simulated run.

use hmpt_fleet::{Fleet, FleetConfig, FleetReport, TuningJob};

/// One line per job, in job order, once the batch has ended.
fn print_jobs(report: &FleetReport) {
    for r in &report.reports {
        println!(
            "{:<6} max {:.2}x | 90% usage {:.1}% | {} cells simulated, {} cached",
            r.analysis.workload,
            r.analysis.table2.max_speedup,
            r.analysis.table2.usage_90_pct,
            r.cache.misses,
            r.cache.hits,
        );
    }
}

fn main() {
    let fleet = Fleet::new(FleetConfig::default());

    let first: Vec<TuningJob> =
        [hmpt_repro::workloads::npb::mg::workload(), hmpt_repro::workloads::npb::sp::workload()]
            .into_iter()
            .map(TuningJob::new)
            .collect();

    println!("-- batch 1 (cold cache) --");
    let report = fleet.run(&first).expect("batch 1");
    print_jobs(&report);
    println!("batch 1 hit-rate: {:.1}%\n", report.stats.cache.hit_rate() * 100.0);

    // A second customer re-tunes MG (identical job) and adds IS.
    let second: Vec<TuningJob> =
        [hmpt_repro::workloads::npb::mg::workload(), hmpt_repro::workloads::npb::is::workload()]
            .into_iter()
            .map(TuningJob::new)
            .collect();

    println!("-- batch 2 (mg.D dedups against batch 1) --");
    let report = fleet.run(&second).expect("batch 2");
    print_jobs(&report);
    println!("batch 2 hit-rate: {:.1}%", report.stats.cache.hit_rate() * 100.0);

    let stats = fleet.cache().stats();
    println!(
        "\ncache: {} entries | lifetime {} hits / {} misses ({:.1}% hit-rate)",
        stats.entries,
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
    assert!(stats.hits > 0, "the repeated mg.D job must hit the cache");
}
