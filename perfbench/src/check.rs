//! Output checks: every campaign the benchmark times is checked, and a
//! campaign that fails its check counts towards `failed`.

use hmpt_core::driver::Analysis;
use hmpt_core::online::OnlineResult;
use hmpt_core::scenario::MatrixReport;
use hmpt_fleet::service::FleetReport;
use hmpt_report::diff::diff;
use hmpt_report::gate::{gate, Thresholds};
use hmpt_report::record::CampaignRecord;

use crate::specs::ZOO_BASELINE;

/// The placement flips the repository's own zoo gate allowlists: three
/// budgeted `cxl-far` rows that improved when `cxl-far` became a real
/// three-pool machine, kept without re-pinning the baseline.
pub const ALLOWED_FLIPS: [&str; 3] = [
    "cxl-far·mg.D cv=0.008 reps=fixed×3 budget=17179869184B",
    "cxl-far·mg.D cv=0.008 reps=fixed×3 budget=8589934592B",
    "cxl-far·bt.D cv=0.008 reps=fixed×3 budget=8589934592B",
];

/// The pinned zoo baseline record.
pub fn zoo_baseline() -> CampaignRecord {
    CampaignRecord::from_artifact_text(ZOO_BASELINE, "zoo-baseline")
        .expect("baselines/zoo-baseline.json is a campaign record")
}

/// Gate `head` against `base` at zero tolerance. With `slice`, the one
/// allowed difference is a base scenario the head does not carry.
pub fn gate_records(
    base: &CampaignRecord,
    head: &CampaignRecord,
    slice: bool,
) -> Result<(), String> {
    let thresholds = Thresholds {
        allowed_flips: ALLOWED_FLIPS.iter().map(|s| s.to_string()).collect(),
        ..Thresholds::default()
    };
    let report = gate(&diff(base, head), &thresholds);
    let violations: Vec<String> = report
        .violations
        .iter()
        .filter(|v| !(slice && v.kind == "scenario-missing"))
        .map(|v| format!("{} {}: {}", v.kind, v.subject, v.detail))
        .collect();
    if report.checked_scenarios == 0 {
        return Err("no scenario in common with the baseline".into());
    }
    match violations.first() {
        None => Ok(()),
        Some(first) => Err(format!("{} baseline violation(s), first: {first}", violations.len())),
    }
}

/// Gate a matrix report against the pinned zoo baseline.
pub fn gate_matrix(
    base: &CampaignRecord,
    report: &MatrixReport,
    slice: bool,
) -> Result<(), String> {
    let mut head = CampaignRecord::new("head");
    head.absorb_matrix(report);
    gate_records(base, &head, slice)
}

/// Row-for-row bit identity of two matrix reports.
pub fn same_rows(report: &MatrixReport, reference: &MatrixReport) -> Result<(), String> {
    if report.bit_identical(reference) {
        Ok(())
    } else {
        Err("rows differ from the reference run".into())
    }
}

/// A digest of every field `MatrixReport::bit_identical` compares.
pub fn rows_digest(report: &MatrixReport) -> u64 {
    let mut d = Digest::new();
    for r in &report.scenarios {
        d.word(r.scenario as u64);
        d.text(&r.machine);
        d.text(&r.machine_fingerprint);
        d.text(&r.workload);
        d.word(r.max_speedup.to_bits());
        d.word(r.hbm_only_speedup.to_bits());
        d.word(r.usage_90_pct.to_bits());
        d.word(r.best_groups.len() as u64);
        for g in &r.best_groups {
            d.text(g);
        }
        d.text(&r.budgeted.config);
        d.word(r.budgeted.hbm_bytes);
        for b in r.budgeted.pool_bytes.iter().flatten() {
            d.word(*b);
        }
        d.word(r.budgeted.pool_bytes.as_ref().map_or(u64::MAX, |p| p.len() as u64));
        d.word(r.budgeted.speedup.to_bits());
        d.word(r.planned_cells as u64);
        d.word(r.executed_cells as u64);
    }
    d.finish()
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(b as u64);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fold every result bit of one tuning job into `d`: the Table II
/// triple and configurations, every configuration measurement, and the
/// online tuner's answer.
pub fn digest_job(d: &mut Digest, a: &Analysis, online: Option<&OnlineResult>) {
    d.text(&a.workload);
    d.word(a.table2.max_speedup.to_bits());
    d.word(a.table2.hbm_only_speedup.to_bits());
    d.word(a.table2.usage_90_pct.to_bits());
    d.word(a.table2.best_config.0);
    d.word(a.table2.config_90.0);
    d.word(a.groups.len() as u64);
    for m in &a.campaign.measurements {
        d.word(m.config.0);
        d.word(m.mean_s.to_bits());
        d.word(m.std_s.to_bits());
        d.word(m.hbm_fraction.to_bits());
    }
    match online {
        Some(o) => {
            d.word(o.config.0);
            d.word(o.speedup.to_bits());
            d.word(o.measurements as u64);
            for (g, up) in &o.trajectory {
                d.word(*g as u64);
                d.word(*up as u64);
            }
        }
        None => d.word(u64::MAX),
    }
}

/// A digest of every result bit of a batch: two batches with equal
/// digests agree bit for bit on everything the tuner reports.
pub fn batch_digest(report: &FleetReport) -> u64 {
    let mut d = Digest::new();
    for job in &report.reports {
        digest_job(&mut d, &job.analysis, job.online.as_ref());
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = include_str!("../../examples/reports/base.json");
    const HEAD: &str = include_str!("../../examples/reports/head.json");

    #[test]
    fn the_seeded_regression_pair_counts_as_a_failure() {
        let base = CampaignRecord::from_artifact_text(BASE, "base").unwrap();
        let head = CampaignRecord::from_artifact_text(HEAD, "head").unwrap();
        assert!(gate_records(&base, &head, false).is_err(), "head.json carries a regression");
        assert!(gate_records(&base, &head, true).is_err(), "a slice excuses only absent rows");
        assert!(gate_records(&base, &base, false).is_ok());
    }

    #[test]
    fn a_slice_may_omit_rows_but_not_change_them() {
        let base = zoo_baseline();
        let mut slice = base.clone();
        slice.scenarios.truncate(6);
        assert!(gate_records(&base, &slice, true).is_ok());
        assert!(gate_records(&base, &slice, false).is_err());
        slice.scenarios[0].max_speedup *= 0.99;
        assert!(gate_records(&base, &slice, true).is_err());
    }
}
