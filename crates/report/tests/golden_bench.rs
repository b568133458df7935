//! Golden-file pin of the frozen `BENCH_*.json` JSONL schema
//! (documented in DESIGN.md): one
//! `{"bench":<string>,"mean_ns":<u64>,"samples":<u64>}` object per
//! line, with optional `throughput_bytes` / `throughput_elements`
//! fields that ingestion must tolerate and ignore.
//!
//! Four producers share the schema — the vendored criterion's
//! `BENCH_JSON` writer, `hmpt_fleet::telemetry::bench_jsonl`
//! (`--bench-out`), hand-written fixtures, and the checked-in perf
//! trajectory `BENCH_trajectory.json` — and one consumer reads it
//! (`CampaignRecord::absorb_bench_jsonl`). This test pins both
//! directions against the checked-in golden file so a schema drift in
//! any of them fails loudly here, not in CI's gate job.

use hmpt_fleet::telemetry::{bench_jsonl, BenchLine};
use hmpt_report::CampaignRecord;

const GOLDEN: &str = include_str!("golden/BENCH_example.json");
const TRAJECTORY: &str = include_str!("../../../BENCH_trajectory.json");

#[test]
fn golden_bench_jsonl_ingests_exactly() {
    let mut record = CampaignRecord::new("golden");
    let absorbed = record.absorb_bench_jsonl(GOLDEN).expect("golden file must ingest");
    assert_eq!(absorbed, 4);
    assert_eq!(record.benches.len(), 4);

    let expect = [
        ("coldpath.batch", 183_421u64, 64u64),
        ("coldpath.cell", 2_866, 4_096),
        ("matrix.cell", 51_234, 17_808),
        ("matrix.wall", 912_345_678, 1),
    ];
    let got: Vec<(&str, u64, u64)> =
        record.benches.iter().map(|(k, v)| (k.as_str(), v.mean_ns, v.samples)).collect();
    assert_eq!(got, expect, "ingested benches drifted from the frozen schema");
}

#[test]
fn fleet_writer_round_trips_through_the_golden_schema() {
    // The lines `--bench-out` writes (no throughput fields) must match
    // the golden file's plain lines byte-for-byte.
    let written = bench_jsonl(&[
        BenchLine { bench: "coldpath.batch".into(), mean_ns: 183_421, samples: 64 },
        BenchLine { bench: "matrix.wall".into(), mean_ns: 912_345_678, samples: 1 },
    ]);
    let golden_plain: Vec<&str> = GOLDEN.lines().filter(|l| !l.contains("throughput")).collect();
    assert_eq!(written.lines().collect::<Vec<_>>(), golden_plain);

    // And what the writer emits, the warehouse ingests losslessly.
    let mut record = CampaignRecord::new("roundtrip");
    assert_eq!(record.absorb_bench_jsonl(&written), Ok(2));
    assert_eq!(record.benches["coldpath.batch"].mean_ns, 183_421);
    assert_eq!(record.benches["matrix.wall"].samples, 1);
}

#[test]
fn slurped_array_form_ingests_identically() {
    // CI stores bench trails as `jq -s` arrays (BENCH_coldpath.json,
    // BENCH_traced_matrix.json); ingestion must treat that form as
    // equivalent to the raw JSONL.
    let array = format!("[\n{}\n]", GOLDEN.lines().collect::<Vec<_>>().join(",\n"));
    let mut from_jsonl = CampaignRecord::new("a");
    let mut from_array = CampaignRecord::new("a");
    assert_eq!(from_jsonl.absorb_bench_jsonl(GOLDEN), Ok(4));
    assert_eq!(from_array.absorb_bench_jsonl(&array), Ok(4));
    assert_eq!(from_jsonl.benches, from_array.benches);
}

#[test]
fn malformed_lines_are_rejected_by_number() {
    let mut record = CampaignRecord::new("bad");
    let err = record
        .absorb_bench_jsonl(
            "{\"bench\":\"ok\",\"mean_ns\":1,\"samples\":1}\n{\"bench\":\"no-mean\",\"samples\":1}",
        )
        .unwrap_err();
    assert!(err.contains("line 2"), "{err}");
    assert!(err.contains("mean_ns"), "{err}");
}

/// The perf trajectory at the repository root ingests whole: for each
/// measured change, one `<change>/<workload>/<metric>/<side>` line per
/// gated workload × timing metric × side, each a median over at least
/// ten interleaved runs.
#[test]
fn the_checked_in_perf_trajectory_ingests() {
    let lines = TRAJECTORY.lines().count();
    assert!(lines > 0 && lines.is_multiple_of(12), "2 workloads × 3 metrics × 2 sides per change");
    let mut record = CampaignRecord::new("trajectory");
    assert_eq!(record.absorb_bench_jsonl(TRAJECTORY), Ok(lines));
    assert_eq!(record.benches.len(), lines, "every line names its own bench");
    for (name, point) in &record.benches {
        let parts: Vec<&str> = name.split('/').collect();
        let [change, workload, metric, side] = parts[..] else {
            panic!("{name}: not <change>/<workload>/<metric>/<side>");
        };
        assert!(["served-stream", "table2-batch"].contains(&workload), "{name}");
        assert!(["campaign_p50_s", "campaign_p90_s", "setup_s"].contains(&metric), "{name}");
        let other = if side == "parent" { "change" } else { "parent" };
        assert!(
            record.benches.contains_key(&format!("{change}/{workload}/{metric}/{other}")),
            "{name} has no {other} side"
        );
        assert!(point.mean_ns > 0 && point.samples >= 10, "{name}: {point:?}");
    }
}
