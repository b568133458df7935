//! `hmpt` — the heterogeneous memory pool tuning CLI.
//!
//! The command-line face of the driver, mirroring how the paper's tool is
//! operated ("driver script"):
//!
//! ```text
//! hmpt list                      # available workloads
//! hmpt analyze <workload>        # full pipeline: summary view + groups
//! hmpt detailed <workload>       # Fig 7a-style per-config table
//! hmpt table1                    # paper Table I
//! hmpt table2                    # paper Table II
//! hmpt roofline                  # Fig 8 rows
//! hmpt plan <workload> <GiB>     # capacity-constrained placement plan
//! hmpt online <workload>         # incremental tuner vs exhaustive cost
//! hmpt baselines <workload>      # numactl-style placements vs tuned
//! hmpt dynamic <workload> <N>    # online migration over N iterations
//! hmpt diagnose <workload>       # per-phase bottlenecks before/after
//! hmpt sensitivity <workload>    # Table II vs machine parameters
//! hmpt export <workload>         # dump the workload spec as JSON
//! ```
//!
//! Workloads are built-in names (`mg`, `bt`, …) or `@file.json` for a
//! custom [`WorkloadSpec`] authored externally.

use hmpt_core::baselines;
use hmpt_core::diagnose::diagnose_before_after;
use hmpt_core::driver::Driver;
use hmpt_core::dynamic::{run_dynamic, DynamicConfig};
use hmpt_core::online::{tune, OnlineConfig};
use hmpt_core::planner::plan_exhaustive;
use hmpt_core::report;
use hmpt_core::roofline::RooflineModel;
use hmpt_core::sensitivity;
use hmpt_sim::machine::xeon_max_9468;
use hmpt_workloads::model::WorkloadSpec;

/// Resolve a workload: a built-in name by the rule campaign specs use
/// ([`hmpt_workloads::find_table2`]: exact, else an unambiguous
/// prefix), or `@file.json` for a user-defined workload in the JSON
/// format `WorkloadSpec::to_json` emits.
fn find_workload(name: &str) -> Option<WorkloadSpec> {
    if let Some(path) = name.strip_prefix('@') {
        let json =
            std::fs::read_to_string(path).map_err(|e| eprintln!("cannot read {path}: {e}")).ok()?;
        return WorkloadSpec::from_json(&json)
            .map_err(|e| eprintln!("invalid workload spec {path}: {e}"))
            .ok();
    }
    hmpt_workloads::find_table2(name)
}

fn usage() -> ! {
    eprintln!(
        "usage: hmpt <command> [args]\n\
         commands:\n\
         \x20 list                    list available workloads\n\
         \x20 analyze  <workload>     run the full tuning pipeline\n\
         \x20 detailed <workload>     per-configuration table (Fig 7a)\n\
         \x20 table1                  paper Table I\n\
         \x20 table2                  paper Table II\n\
         \x20 roofline                paper Fig 8 (text form)\n\
         \x20 plan <workload> <GiB>   placement under an HBM budget\n\
         \x20 online <workload>       incremental tuner\n\
         \x20 baselines <workload>    numactl-style placements vs tuned\n\
         \x20 dynamic <workload> <N>  online migration over N iterations\n\
         \x20 export <workload>       dump the workload spec as JSON\n\
         \x20 diagnose <workload>     per-phase bottlenecks before/after tuning\n\
         \x20 sensitivity <workload>  Table II vs machine parameters\n\
         (workloads: built-in name, or @file.json for a custom spec)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let machine = xeon_max_9468();
    let driver = Driver::new(machine.clone());

    match args.first().map(String::as_str) {
        Some("list") => {
            for w in hmpt_workloads::table2_workloads() {
                println!(
                    "{:<10} {:>7.2} GB  {:>3} allocations  {}",
                    w.name,
                    w.footprint() as f64 / 1e9,
                    w.allocations.len(),
                    w.binary
                );
            }
        }
        Some("analyze") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let spec = find_workload(name).unwrap_or_else(|| {
                eprintln!("unknown workload {name}; try `hmpt list`");
                std::process::exit(1);
            });
            let a = driver.analyze(&spec).expect("analysis");
            println!("{}", report::groups(&a));
            println!("{}", a.summary.render());
            println!("Table II row:            Max    HBM-only  90% Usage [%]");
            println!("{}", a.table2.render());
            println!("\nbest plan (JSON):\n{}", a.best_plan(&spec).to_json());
        }
        Some("detailed") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let spec = find_workload(name).unwrap_or_else(|| usage());
            let a = driver.analyze(&spec).expect("analysis");
            println!("{}", a.detailed.render());
        }
        Some("table1") => {
            let specs = hmpt_workloads::table2_workloads();
            let rows: Vec<(WorkloadSpec, usize)> = specs
                .into_iter()
                .map(|s| {
                    let n = s.allocations.len();
                    (s, n)
                })
                .collect();
            let refs: Vec<(&WorkloadSpec, usize)> = rows.iter().map(|(s, n)| (s, *n)).collect();
            println!("{}", report::table1(&refs));
        }
        Some("table2") => {
            let specs = hmpt_workloads::table2_workloads();
            let rows = driver.table2(&specs).expect("table2");
            println!("{}", report::table2(&rows));
        }
        Some("roofline") => {
            let model =
                RooflineModel::build(&machine, &hmpt_workloads::table2_workloads()).unwrap();
            println!("{}", model.render());
        }
        Some("plan") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let gib: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            let spec = find_workload(name).unwrap_or_else(|| usage());
            let a = driver.analyze(&spec).expect("analysis");
            let budget = (gib * 1024.0 * 1024.0 * 1024.0) as u64;
            let plan = plan_exhaustive(&a.campaign, &a.groups, budget);
            println!(
                "budget {:.1} GiB → config {} ({:.2} GB HBM), speedup {:.2}x",
                gib,
                plan.config.label(),
                plan.hbm_bytes as f64 / 1e9,
                plan.speedup
            );
            println!("{}", plan.config.plan(&spec, &a.groups).to_json());
        }
        Some("online") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let spec = find_workload(name).unwrap_or_else(|| usage());
            let a = driver.analyze(&spec).expect("analysis");
            let r = tune(&machine, &spec, &a.groups, &OnlineConfig::default()).expect("online");
            println!(
                "online: config {} speedup {:.2}x after {} measurements (exhaustive: {:.2}x after {})",
                r.config.label(),
                r.speedup,
                r.measurements,
                a.table2.max_speedup,
                a.campaign.measurements.len()
            );
        }
        Some("baselines") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let spec = find_workload(name).unwrap_or_else(|| usage());
            println!("{}", baselines::render(&machine, &spec).expect("baselines"));
        }
        Some("dynamic") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let iters: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(50);
            let spec = find_workload(name).unwrap_or_else(|| usage());
            let cfg = DynamicConfig::new(iters, machine.hbm_capacity());
            let r = run_dynamic(&machine, &spec, &cfg).expect("dynamic tuning");
            println!(
                "dynamic over {iters} iterations: chose {} ({:.2} GB migrated, {:.3}s cost)",
                r.chosen.label(),
                r.migrated_bytes as f64 / 1e9,
                r.migration_cost_s
            );
            println!(
                "  per-iteration {:.3}s → {:.3}s | session speedup {:.2}x | break-even: {}",
                r.iter_ddr_s,
                r.iter_tuned_s,
                r.speedup(),
                r.break_even_iterations
                    .map(|k| format!("iteration {k}"))
                    .unwrap_or_else(|| "never".into()),
            );
        }
        Some("diagnose") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let spec = find_workload(name).unwrap_or_else(|| usage());
            let a = driver.analyze(&spec).expect("analysis");
            let (before, after) =
                diagnose_before_after(&machine, &spec, &a.best_plan(&spec)).expect("diagnosis");
            println!("--- DDR-only baseline ---\n{}", before.render());
            println!(
                "--- tuned placement {} ---\n{}",
                a.table2.best_config.label(),
                after.render()
            );
        }
        Some("sensitivity") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let spec = find_workload(name).unwrap_or_else(|| usage());
            let bw = sensitivity::sweep_hbm_bandwidth(&spec, &[0.5, 0.75, 1.0, 1.5, 2.0])
                .expect("bw sweep");
            println!("{}", sensitivity::render("HBM bandwidth factor sweep", &bw));
            let lat = sensitivity::sweep_hbm_latency(&spec, &[1.0, 1.2, 1.5, 2.0])
                .expect("latency sweep");
            println!("{}", sensitivity::render("HBM latency penalty sweep", &lat));
        }
        Some("export") => {
            let name = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let spec = find_workload(name).unwrap_or_else(|| usage());
            println!("{}", spec.to_json());
        }
        _ => usage(),
    }
}
