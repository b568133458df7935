//! Integration tests for the `hmpt` CLI binary.

use std::process::Command;

fn hmpt(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hmpt")).args(args).output().expect("run hmpt")
}

fn stdout(args: &[&str]) -> String {
    let out = hmpt(args);
    assert!(out.status.success(), "hmpt {args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf8")
}

#[test]
fn list_shows_all_workloads() {
    let s = stdout(&["list"]);
    for name in ["mg.D", "bt.D", "lu.D", "sp.D", "ua.D", "is.Cx4", "kwave"] {
        assert!(s.contains(name), "{name} missing from list:\n{s}");
    }
    assert!(s.contains("26.46"));
}

#[test]
fn analyze_mg_prints_the_pipeline() {
    let s = stdout(&["analyze", "mg"]);
    assert!(s.contains("3 groups"));
    assert!(s.contains("max speedup"));
    assert!(s.contains("best plan"));
    assert!(s.contains("Hbm"), "plan JSON mentions the HBM pool");
}

#[test]
fn detailed_view_has_paper_labels() {
    let s = stdout(&["detailed", "mg"]);
    assert!(s.contains("[0 1]"));
    assert!(s.contains("measured"));
}

#[test]
fn table2_row_values_in_range() {
    let s = stdout(&["table2"]);
    assert!(s.contains("mg.D"));
    // The mg row carries ≈2.27/2.27/69.6.
    let row = s.lines().find(|l| l.starts_with("mg.D")).unwrap();
    assert!(row.contains("2.2"), "row: {row}");
}

#[test]
fn plan_respects_budget_argument() {
    let s = stdout(&["plan", "mg", "10"]);
    assert!(s.contains("budget 10.0 GiB"));
    assert!(s.contains("speedup"));
}

#[test]
fn online_reports_measurement_savings() {
    let s = stdout(&["online", "mg"]);
    assert!(s.contains("after"));
    assert!(s.contains("exhaustive"));
}

#[test]
fn baselines_table_lists_alternatives() {
    let s = stdout(&["baselines", "mg"]);
    assert!(s.contains("DDR-only"));
    assert!(s.contains("interleave"));
    assert!(s.contains("preferred-spill"));
    assert!(s.contains("tuned"));
}

#[test]
fn dynamic_reports_break_even() {
    let s = stdout(&["dynamic", "mg", "20"]);
    assert!(s.contains("migrated"));
    assert!(s.contains("break-even"));
}

#[test]
fn export_then_analyze_custom_spec_roundtrip() {
    let json = stdout(&["export", "is"]);
    let dir = std::env::temp_dir().join("hmpt-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("is.json");
    std::fs::write(&path, &json).unwrap();
    let arg = format!("@{}", path.display());
    let s = stdout(&["detailed", &arg]);
    assert!(s.contains("is.Cx4"), "custom-spec analysis output:\n{s}");
}

#[test]
fn unknown_command_exits_nonzero_with_usage() {
    let out = hmpt(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"));
}

#[test]
fn unknown_workload_is_reported() {
    let out = hmpt(&["analyze", "does-not-exist"]);
    assert!(!out.status.success());
}

#[test]
fn workload_names_resolve_like_campaign_specs() {
    // An exact name, else an unambiguous prefix; an empty name is refused.
    assert_eq!(stdout(&["export", "mg"]), stdout(&["export", "mg.D"]));
    for command in ["analyze", "detailed", "export"] {
        let out = hmpt(&[command, ""]);
        assert!(!out.status.success(), "hmpt {command} \"\" exited 0");
        assert!(out.stdout.is_empty(), "hmpt {command} \"\" printed a workload");
    }
}

#[test]
fn diagnose_shows_before_and_after() {
    let s = stdout(&["diagnose", "mg"]);
    assert!(s.contains("DDR-only baseline"));
    assert!(s.contains("tuned placement"));
    assert!(s.contains("resid"));
    assert!(s.contains("DdrBandwidth") || s.contains("Compute"));
}

#[test]
fn sensitivity_sweeps_both_parameters() {
    let s = stdout(&["sensitivity", "is"]);
    assert!(s.contains("bandwidth factor sweep"));
    assert!(s.contains("latency penalty sweep"));
}
