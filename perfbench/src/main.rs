//! `perfbench` — the repository's end-to-end and per-layer campaign
//! benchmark.
//!
//! ```text
//! perfbench --workload zoo-cold|table2-batch|served-stream
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times whole campaigns the way a user runs them and
//! prints the end-to-end metrics; `--trace 1` replays the same seeded
//! campaigns through each layer's public functions and prints the
//! per-layer ledger. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! check exits non-zero. See `perfbench/BENCHMARK.md`.

mod alloc;
mod check;
mod replay;
mod specs;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::sync::Arc;

use workloads::Report;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload zoo-cold|table2-batch|served-stream \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < S ≤ 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let (w, seed, s) = (args.workload.as_str(), args.seed, args.seconds);
    match (w, args.trace) {
        ("zoo-cold", false) => Ok(workloads::zoo_cold(seed, s)),
        ("table2-batch", false) => Ok(workloads::table2_batch(seed, s)),
        ("served-stream", false) => workloads::served_stream(seed, s),
        ("zoo-cold" | "table2-batch" | "served-stream", true) => replay::traced(w, seed, s),
        _ => Err(format!("unknown workload `{w}`")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Drop info events (the coordinator logs per job) and keep
    // in-program recording off: the benchmark times from outside.
    hmpt_obs::install(Arc::new(hmpt_obs::StderrCollector { quiet: true }), false);

    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# {}: available_parallelism = {cpus}", args.workload);
    for line in &report.lines {
        println!("# {}: {line}", args.workload);
    }
    for m in &report.metrics {
        println!("# {}: {} = {} {}", args.workload, m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has
/// (non-finite values, which JSON cannot carry, become `null`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
