//! Machine-parameter sensitivity: how would the paper's conclusions move
//! on a different machine?
//!
//! The evaluated platform has a 3.5× bandwidth ratio and a 1.2× latency
//! penalty. Future parts shift both (HBM3/MCR-DIMMs, CXL pools). This
//! module re-runs the Table II triple while sweeping one machine
//! parameter at a time, quantifying how robust the "60–75 % in HBM"
//! envelope is.

use hmpt_sim::machine::{Machine, MachineBuilder};
use hmpt_workloads::model::WorkloadSpec;
use serde::{Deserialize, Serialize};

use crate::driver::Driver;
use crate::error::TunerError;
use crate::measure::CampaignConfig;

/// One sweep point of the sensitivity study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensitivityRow {
    /// Swept parameter value (bandwidth factor or latency penalty).
    pub value: f64,
    pub max_speedup: f64,
    pub hbm_only_speedup: f64,
    pub usage_90_pct: f64,
}

fn row(machine: Machine, spec: &WorkloadSpec, value: f64) -> Result<SensitivityRow, TunerError> {
    let a = Driver::new(machine)
        .with_campaign(CampaignConfig {
            runs_per_config: 1,
            noise: hmpt_sim::noise::NoiseModel::none(),
            base_seed: 0,
        })
        .analyze(spec)?;
    Ok(SensitivityRow {
        value,
        max_speedup: a.table2.max_speedup,
        hbm_only_speedup: a.table2.hbm_only_speedup,
        usage_90_pct: a.table2.usage_90_pct,
    })
}

/// Sweep the HBM sustained-bandwidth factor (1.0 = the Xeon Max's 700
/// GB/s per socket).
pub fn sweep_hbm_bandwidth(
    spec: &WorkloadSpec,
    factors: &[f64],
) -> Result<Vec<SensitivityRow>, TunerError> {
    factors
        .iter()
        .map(|&f| row(MachineBuilder::xeon_max().with_hbm_bw_factor(f).build(), spec, f))
        .collect()
}

/// Sweep the HBM idle-latency penalty (1.2 = the Xeon Max).
pub fn sweep_hbm_latency(
    spec: &WorkloadSpec,
    penalties: &[f64],
) -> Result<Vec<SensitivityRow>, TunerError> {
    penalties
        .iter()
        .map(|&p| row(MachineBuilder::xeon_max().with_hbm_latency_penalty(p).build(), spec, p))
        .collect()
}

/// Text table for one sweep.
pub fn render(title: &str, rows: &[SensitivityRow]) -> String {
    let mut out = format!(
        "{title}\n  {:>8} {:>12} {:>10} {:>10}\n",
        "value", "max speedup", "HBM-only", "90% usage"
    );
    for r in rows {
        out.push_str(&format!(
            "  {:>8.2} {:>11.2}x {:>9.2}x {:>9.1}%\n",
            r.value, r.max_speedup, r.hbm_only_speedup, r.usage_90_pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_hbm_bandwidth_more_speedup() {
        let spec = hmpt_workloads::npb::mg::workload();
        let rows = sweep_hbm_bandwidth(&spec, &[0.5, 1.0, 2.0]).unwrap();
        assert!(rows[0].max_speedup < rows[1].max_speedup);
        // MG is compute-floored at 2.27 on the stock machine; doubling
        // HBM bandwidth cannot push past the floor.
        assert!(rows[2].max_speedup <= rows[1].max_speedup * 1.05);
        // Half-bandwidth HBM still wins (350 GB/s > 200 GB/s).
        assert!(rows[0].max_speedup > 1.3, "{}", rows[0].max_speedup);
    }

    #[test]
    fn latency_penalty_matters_most_for_sp() {
        let spec = hmpt_workloads::npb::sp::workload();
        let rows = sweep_hbm_latency(&spec, &[1.0, 1.2, 1.5]).unwrap();
        // With no latency penalty, HBM-only catches up to the max (no
        // reason to keep lhs in DDR).
        let no_penalty_gap = rows[0].max_speedup - rows[0].hbm_only_speedup;
        let stock_gap = rows[1].max_speedup - rows[1].hbm_only_speedup;
        let harsh_gap = rows[2].max_speedup - rows[2].hbm_only_speedup;
        assert!(no_penalty_gap < stock_gap, "{no_penalty_gap} vs {stock_gap}");
        assert!(stock_gap < harsh_gap, "{stock_gap} vs {harsh_gap}");
    }

    #[test]
    fn bandwidth_insensitive_benchmark_stays_flat() {
        // BT is compute-dominated: HBM bandwidth barely moves it.
        let spec = hmpt_workloads::npb::bt::workload();
        let rows = sweep_hbm_bandwidth(&spec, &[0.75, 1.5]).unwrap();
        assert!((rows[0].max_speedup - rows[1].max_speedup).abs() < 0.08);
    }

    #[test]
    fn render_has_all_rows() {
        let spec = hmpt_workloads::npb::is::workload();
        let rows = sweep_hbm_bandwidth(&spec, &[1.0]).unwrap();
        let s = render("sweep", &rows);
        assert!(s.contains("1.00"));
        assert_eq!(s.lines().count(), 3);
    }
}
