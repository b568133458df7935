//! Declarative campaign specs: a campaign as a *document*.
//!
//! A [`CampaignSpec`] is the single serializable source of truth for
//! everything the fleet can execute — the workloads, the machine axis,
//! the budget / repetition-policy / noise axes, campaign overrides,
//! execution settings, the cache snapshot, and an optional shard range.
//! Every CLI invocation *compiles* to a spec (`--spec-out` emits it),
//! `hmpt-fleet run spec.toml` executes one directly, and the typed
//! [`crate::api`] facade executes either identically — so a service
//! endpoint, a CI shard job, and a laptop all run the same campaign
//! from the same artifact.
//!
//! ## Schema
//!
//! Field spellings reuse the CLI grammar (one parser, one meaning):
//!
//! ```toml
//! mode      = "matrix"          # "batch" (default) | "matrix"
//! workloads = ["mg", "is"]      # Table II names; omitted = all seven
//! zoo       = ["xeon-max", "hbm-flat*hbm-bw:0.5"]   # matrix only
//! budgets   = ["none", "16", "8"]                   # GiB | "none"
//! policies  = ["fixed", "fixed:5", "ci:0.02:5"]     # rep-policy axis
//! noise     = [0.008, 0.0]      # coefficient-of-variation axis
//! machine   = "xeon-max"        # batch only: the platform (zoo entry)
//! shard     = "1/3"             # matrix only: run one index-range shard
//!
//! [campaign]
//! reps = 3                      # runs per configuration
//! seed = 3                      # base RNG seed
//!
//! [execution]
//! serial      = false           # force the serial cell executor
//! workers     = 0               # cell workers (0 = auto)
//! job_workers = 1               # concurrent jobs/campaigns (0 = auto)
//! compare     = true            # batch: serial-vs-parallel timing pass
//! online      = true            # batch: online-tuner verification
//! verify      = true            # matrix: serial-uncached re-run
//! fast_path   = true            # batched cold-path kernel (bit-identical)
//!
//! [cache]
//! enabled     = true
//! file        = "cells.bin"     # persistent snapshot (load/save)
//! max_records = 100000          # LRU sweep at save time
//!
//! [telemetry]
//! trace   = "trace.jsonl"       # span/counter trace (JSONL)
//! metrics = true                # print the metrics table on finish
//! quiet   = false               # suppress info-level status events
//! bench   = "bench.jsonl"       # BENCH_*-style timing lines (JSONL)
//! ```
//!
//! An omitted field means what the CLI default means; unknown keys are
//! rejected (a typo must not silently change a campaign). Specs read
//! and write both the TOML subset ([`crate::toml`]) and JSON, chosen by
//! file extension.
//!
//! ## Fingerprints
//!
//! [`CampaignSpec::fingerprint`] extends
//! [`ScenarioMatrix::fingerprint`] to whole campaigns: it covers
//! everything that determines result *bits* (axes, campaign settings,
//! profiling seed, grouping) and deliberately excludes everything that
//! must not (executor choice, worker counts, caching, the shard
//! range). For a matrix-mode spec it equals the
//! `ShardReport::matrix_fingerprint` every shard of that spec stamps,
//! so merge validation can check shard reports against the spec file
//! itself.

use std::path::PathBuf;

use hmpt_core::campaign::RepPolicy;
use hmpt_core::exec::ExecutorKind;
use hmpt_core::measure::CampaignConfig;
use hmpt_core::scenario::{parse_budget, ScenarioMatrix, ShardSpec};
use hmpt_sim::fingerprint::{Fingerprint, StableHasher};
use hmpt_sim::zoo::ZooEntry;
use serde::{Deserialize, Serialize, Value};

use crate::matrix::MatrixConfig;
use crate::service::{FleetConfig, TuningJob};
use crate::toml;

/// The declarative campaign document. All fields are optional; an
/// omitted field denotes the CLI default (see the module docs for the
/// schema and defaults).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// `"batch"` or `"matrix"`. Omitted: `"matrix"` when any
    /// matrix-only axis (`zoo`, `budgets`, `noise`, `shard`) is
    /// present, else `"batch"`.
    pub mode: Option<String>,
    /// Table II workload names (prefix match). Omitted: all seven.
    pub workloads: Option<Vec<String>>,
    /// Batch only: the platform as a zoo-entry spec. Omitted: the
    /// paper's `xeon-max`.
    pub machine: Option<String>,
    /// Matrix only: the machine axis as zoo-entry specs. Omitted: the
    /// standard sweep ([`hmpt_sim::zoo::Zoo::standard_sweep`]).
    pub zoo: Option<Vec<String>>,
    /// Matrix only: HBM budgets in GiB (`"none"` = unbudgeted).
    /// Omitted: `["none", "16", "8"]`.
    pub budgets: Option<Vec<String>>,
    /// Repetition-policy axis (`fixed`, `fixed:N`, `ci:T[:M]`). Batch
    /// mode allows exactly one. Omitted: `["fixed"]`.
    pub policies: Option<Vec<String>>,
    /// Matrix only: noise-level axis as coefficients of variation.
    /// Omitted: the campaign's default noise level.
    pub noise: Option<Vec<f64>>,
    /// Matrix only: `"K/N"` (1-based) — execute the K-th of N balanced
    /// index-range shards and emit a shard report.
    pub shard: Option<String>,
    pub campaign: Option<CampaignSection>,
    pub execution: Option<ExecutionSection>,
    pub cache: Option<CacheSection>,
    /// `[telemetry]`: observability only — ignored by
    /// `CampaignSpec::resolve` and therefore structurally excluded
    /// from [`fingerprint`](CampaignSpec::fingerprint): tracing a run
    /// can never change its bits.
    pub telemetry: Option<TelemetrySection>,
}

/// `[campaign]`: overrides of the paper's campaign settings.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignSection {
    /// Runs per configuration (the paper's `n`; default 3).
    pub reps: Option<usize>,
    /// Base RNG seed (default: the paper default).
    pub seed: Option<u64>,
}

/// `[execution]`: how cells are scheduled — never *what* they compute.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionSection {
    /// Force the serial cell executor (default false).
    pub serial: Option<bool>,
    /// Parallel cell workers (0 = auto; default 0). Used only while one
    /// job runs at a time: concurrent jobs run their cells serially.
    pub workers: Option<usize>,
    /// Concurrent jobs/campaigns (0 = auto; default 1). A served job
    /// ignores `serial`, `workers` and this: it runs the daemon's
    /// `--workers` campaign groups at once, each group's cells serially.
    pub job_workers: Option<usize>,
    /// Batch: run the serial-vs-parallel comparison pass (default true).
    pub compare: Option<bool>,
    /// Batch: run the online-tuner verification pass (default true).
    pub online: Option<bool>,
    /// Matrix: re-run once, serial and uncached at the same job width,
    /// and assert bit-identity (default true).
    pub verify: Option<bool>,
    /// Evaluate campaign cells through the batched cold-path kernel
    /// (default true). Scheduling only — the kernel is bit-identical by
    /// contract, so this never participates in campaign identity.
    pub fast_path: Option<bool>,
}

/// `[cache]`: the shared content-addressed measurement cache.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheSection {
    /// Consult the cache per cell (default true).
    pub enabled: Option<bool>,
    /// Persistent snapshot: loaded on start, saved on finish.
    pub file: Option<String>,
    /// LRU bound applied at save time ([`hmpt_core::store`] snapshots
    /// stay ≤ this many records).
    pub max_records: Option<u64>,
}

/// `[telemetry]`: where observability output goes. Every field is
/// advisory — the equivalent CLI flag (`--trace-out`, `--metrics`,
/// `--quiet`, `--bench-out`) overrides it — and none participates in
/// campaign identity.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySection {
    /// Write the span/counter/event trace to this JSONL file.
    pub trace: Option<String>,
    /// Print the aggregated metrics table when the run finishes.
    pub metrics: Option<bool>,
    /// Suppress info-level status events (warnings still print).
    pub quiet: Option<bool>,
    /// Write criterion-compatible `{"bench":…,"mean_ns":…}` timing
    /// lines to this JSONL file.
    pub bench: Option<String>,
}

/// Why a spec document cannot be executed.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The file could not be read.
    Io { path: String, error: String },
    /// The document is not parseable TOML/JSON (or not this schema).
    Parse(String),
    /// The document parsed but denotes no valid campaign (unknown
    /// workload, malformed axis value, a field outside its mode, …).
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Io { path, error } => write!(f, "cannot read spec {path}: {error}"),
            SpecError::Parse(msg) => write!(f, "spec does not parse: {msg}"),
            SpecError::Invalid(msg) => write!(f, "invalid spec: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

fn invalid(msg: impl std::fmt::Display) -> SpecError {
    SpecError::Invalid(msg.to_string())
}

/// The execution mode a spec denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Batch,
    Matrix,
}

/// A spec resolved into the typed objects the fleet executes. This is
/// the bridge the [`crate::api`] facade and the bit-identity tests
/// share: resolving is pure (no execution), and two specs resolving to
/// equal objects run identical campaigns.
#[derive(Debug)]
pub enum Resolved {
    Batch(ResolvedBatch),
    Matrix(ResolvedMatrix),
}

/// A batch-mode spec, resolved.
#[derive(Debug)]
pub struct ResolvedBatch {
    pub jobs: Vec<TuningJob>,
    pub campaign: CampaignConfig,
    pub fleet: FleetConfig,
    /// Run the serial-vs-parallel comparison pass.
    pub compare: bool,
}

/// A matrix-mode spec, resolved.
#[derive(Debug)]
pub struct ResolvedMatrix {
    pub matrix: ScenarioMatrix,
    pub config: MatrixConfig,
    /// Re-run once, serial and uncached, and assert bit-identity
    /// ([`crate::api::run_checked`]).
    pub verify: bool,
    pub cache_file: Option<PathBuf>,
    pub cache_max_records: Option<u64>,
    /// `Some` = execute one shard and report it for `merge`.
    pub shard: Option<ShardSpec>,
}

impl CampaignSpec {
    // ---- reading and writing -------------------------------------

    /// Parse a spec document — TOML subset or JSON, sniffed from the
    /// first non-whitespace byte. Unknown keys are rejected.
    pub fn parse(text: &str) -> Result<CampaignSpec, SpecError> {
        let value: Value = if text.trim_start().starts_with('{') {
            serde_json::parse(text).map_err(|e| SpecError::Parse(e.to_string()))?
        } else {
            toml::parse(text).map_err(SpecError::Parse)?
        };
        check_known_keys(&value)?;
        Deserialize::deserialize_value(&value).map_err(|e| SpecError::Parse(e.to_string()))
    }

    /// Read a spec from a file (`.json` parses as JSON, anything else
    /// as the TOML subset).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<CampaignSpec, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| SpecError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
        })?;
        if path.extension().is_some_and(|e| e == "json") {
            let value = serde_json::parse(&text).map_err(|e| SpecError::Parse(e.to_string()))?;
            check_known_keys(&value)?;
            Deserialize::deserialize_value(&value).map_err(|e| SpecError::Parse(e.to_string()))
        } else {
            CampaignSpec::parse(&text)
        }
    }

    /// The TOML-subset rendering (omitted fields are omitted keys;
    /// parses back to an equal spec).
    pub fn to_toml(&self) -> String {
        toml::to_toml(&serde_json::to_value(self))
            .expect("the spec schema stays inside the TOML subset")
    }

    /// The pretty-printed JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialization is infallible")
    }

    /// Write the spec to `path` — JSON for `.json`, TOML otherwise.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), SpecError> {
        let path = path.as_ref();
        let text = if path.extension().is_some_and(|e| e == "json") {
            self.to_json()
        } else {
            self.to_toml()
        };
        std::fs::write(path, text)
            .map_err(|e| SpecError::Io { path: path.display().to_string(), error: e.to_string() })
    }

    // ---- semantics ------------------------------------------------

    /// The mode this spec denotes (explicit `mode`, else inferred from
    /// which axes are present).
    pub fn mode(&self) -> Result<Mode, SpecError> {
        match self.mode.as_deref() {
            Some("batch") => Ok(Mode::Batch),
            Some("matrix") => Ok(Mode::Matrix),
            Some(other) => Err(invalid(format!("unknown mode `{other}` (modes: batch, matrix)"))),
            None => {
                let matrixish = self.zoo.is_some()
                    || self.budgets.is_some()
                    || self.noise.is_some()
                    || self.shard.is_some();
                Ok(if matrixish { Mode::Matrix } else { Mode::Batch })
            }
        }
    }

    /// Resolve the document into executable objects, applying defaults
    /// and rejecting — uniformly, as hard errors — every field that
    /// does not apply to the spec's mode.
    pub fn resolve(&self) -> Result<Resolved, SpecError> {
        let mode = self.mode()?;
        self.reject_cross_mode_fields(mode)?;

        let mut campaign = CampaignConfig::default();
        let section = self.campaign.clone().unwrap_or_default();
        if let Some(reps) = section.reps {
            if reps == 0 {
                return Err(invalid("campaign.reps must be ≥ 1"));
            }
            campaign.runs_per_config = reps;
        }
        if let Some(seed) = section.seed {
            campaign.base_seed = seed;
        }

        let exec = self.execution.clone().unwrap_or_default();
        let cache = self.cache.clone().unwrap_or_default();
        let cache_enabled = cache.enabled.unwrap_or(true);
        if !cache_enabled && cache.file.is_some() {
            return Err(invalid("cache.file needs the cache enabled (drop `enabled = false`)"));
        }
        if !cache_enabled && cache.max_records.is_some() {
            return Err(invalid(
                "cache.max_records needs the cache enabled (drop `enabled = false`)",
            ));
        }
        let serial = exec.serial.unwrap_or(false);
        let workers = exec.workers.unwrap_or(0);
        if serial && exec.workers.is_some_and(|w| w > 1) {
            return Err(invalid("execution.serial conflicts with execution.workers > 1"));
        }
        let executor =
            if serial { ExecutorKind::Serial } else { ExecutorKind::Parallel { workers } };
        let job_workers = exec.job_workers.unwrap_or(1);
        let fast_path = exec.fast_path.unwrap_or(true);

        let policies = match &self.policies {
            None => Vec::new(),
            Some(list) if list.is_empty() => {
                return Err(invalid("policies names no policies (omit the key instead)"))
            }
            Some(list) => list.clone(),
        };

        match mode {
            Mode::Batch => {
                if policies.len() > 1 {
                    return Err(invalid(
                        "a batch runs one policy; a policies *axis* needs mode = \"matrix\"",
                    ));
                }
                let (rep_policy, reps_override) = match policies.first() {
                    None => (RepPolicy::Fixed, None),
                    Some(spec) => {
                        RepPolicy::from_spec(spec, campaign.runs_per_config).map_err(invalid)?
                    }
                };
                if let Some(n) = reps_override {
                    if section.reps.is_some_and(|r| r != n) {
                        return Err(invalid(format!(
                            "policy `fixed:{n}` conflicts with campaign.reps = {}",
                            campaign.runs_per_config
                        )));
                    }
                    campaign.runs_per_config = n;
                }
                let machine = match &self.machine {
                    None => hmpt_sim::machine::xeon_max_9468(),
                    Some(spec) => ZooEntry::parse(spec)
                        .map_err(invalid)?
                        .try_build()
                        .map_err(|e| invalid(format!("machine `{spec}`: {e}")))?,
                };
                let jobs = self
                    .resolved_workloads()?
                    .into_iter()
                    .map(|w| {
                        TuningJob::new(w).with_campaign(campaign).with_machine(machine.clone())
                    })
                    .collect();
                let fleet = FleetConfig {
                    executor,
                    rep_policy,
                    online_check: exec.online.unwrap_or(true),
                    cache_enabled,
                    job_workers,
                    cache_path: cache.file.as_ref().map(PathBuf::from),
                    cache_max_records: cache.max_records,
                    fast_path,
                    ..FleetConfig::default()
                };
                Ok(Resolved::Batch(ResolvedBatch {
                    jobs,
                    campaign,
                    fleet,
                    compare: exec.compare.unwrap_or(true),
                }))
            }
            Mode::Matrix => {
                let budgets = match &self.budgets {
                    None => vec!["none".into(), "16".into(), "8".into()],
                    Some(list) if list.is_empty() => {
                        return Err(invalid("budgets names no budgets (omit the key instead)"))
                    }
                    Some(list) => list.clone(),
                };
                if self.zoo.as_ref().is_some_and(Vec::is_empty) {
                    return Err(invalid("zoo names no machines (omit the key instead)"));
                }
                if self.workloads.as_ref().is_some_and(Vec::is_empty) {
                    return Err(invalid("workloads names no workloads (omit the key instead)"));
                }
                // Budget strings are validated here (not deferred to the
                // matrix constructor) so the error names the field.
                for b in &budgets {
                    parse_budget(b).map_err(invalid)?;
                }
                let matrix = ScenarioMatrix::from_spec(
                    self.zoo.as_deref().unwrap_or_default(),
                    self.workloads.as_deref().unwrap_or_default(),
                    &budgets,
                    &policies,
                    self.noise.as_deref().unwrap_or_default(),
                    campaign,
                )
                .map_err(invalid)?;
                let shard = match &self.shard {
                    None => None,
                    Some(spec) => {
                        let (k, n) = parse_shard(spec).map_err(invalid)?;
                        Some(matrix.shard(k, n))
                    }
                };
                let config = MatrixConfig {
                    executor,
                    job_workers,
                    cache_enabled,
                    fast_path,
                    ..MatrixConfig::default()
                };
                Ok(Resolved::Matrix(ResolvedMatrix {
                    matrix,
                    config,
                    verify: exec.verify.unwrap_or(true),
                    cache_file: cache.file.as_ref().map(PathBuf::from),
                    cache_max_records: cache.max_records,
                    shard,
                }))
            }
        }
    }

    /// Content fingerprint of everything that determines result bits —
    /// and nothing that must not (executor/worker/caching choices, the
    /// shard range). For a matrix-mode spec this equals the
    /// `matrix_fingerprint` every `ShardReport` of the spec stamps, so
    /// a merge can validate shard reports against the spec file.
    pub fn fingerprint(&self) -> Result<Fingerprint, SpecError> {
        match self.resolve()? {
            Resolved::Matrix(m) => Ok(m.config.matrix_fingerprint(&m.matrix)),
            Resolved::Batch(b) => {
                let mut h = StableHasher::new();
                h.write_str("hmpt-campaign-spec-batch-v1");
                h.write_u64(b.jobs.len() as u64);
                for job in &b.jobs {
                    h.write_u64(job.machine.fingerprint().raw());
                    h.write_u64(job.spec.fingerprint().raw());
                }
                h.write_u64(b.campaign.runs_per_config as u64);
                h.write_u64(b.campaign.base_seed);
                h.write_f64(b.campaign.noise.cv);
                match b.fleet.rep_policy {
                    RepPolicy::Fixed => {
                        h.write_u8(0);
                    }
                    RepPolicy::ConfidenceTarget { min_reps, max_reps, rel_half_width } => {
                        h.write_u8(1)
                            .write_u64(min_reps as u64)
                            .write_u64(max_reps as u64)
                            .write_f64(rel_half_width);
                    }
                }
                h.write_u64(Fingerprint::of(&b.fleet.grouping).raw());
                h.write_u64(b.fleet.profile_seed);
                Ok(Fingerprint::from_raw(h.finish()))
            }
        }
    }

    fn resolved_workloads(&self) -> Result<Vec<hmpt_workloads::model::WorkloadSpec>, SpecError> {
        match &self.workloads {
            None => Ok(hmpt_workloads::table2_workloads()),
            Some(names) if names.is_empty() => {
                Err(invalid("workloads names no workloads (omit the key instead)"))
            }
            Some(names) => names
                .iter()
                .map(|n| {
                    hmpt_workloads::find_table2(n).ok_or_else(|| {
                        invalid(format!(
                            "unknown workload `{n}`; built-ins: mg bt lu sp ua is kwave"
                        ))
                    })
                })
                .collect(),
        }
    }

    /// Every field carries a mode; using one outside it is a hard
    /// error, uniformly — a spec (or flag set) that would silently
    /// ignore a field must not execute.
    fn reject_cross_mode_fields(&self, mode: Mode) -> Result<(), SpecError> {
        let exec = self.execution.clone().unwrap_or_default();
        let offending: &[(&str, bool)] = match mode {
            Mode::Batch => &[
                ("zoo", self.zoo.is_some()),
                ("budgets", self.budgets.is_some()),
                ("noise", self.noise.is_some()),
                ("shard", self.shard.is_some()),
                ("execution.verify", exec.verify.is_some()),
            ],
            Mode::Matrix => &[
                ("machine", self.machine.is_some()),
                ("execution.compare", exec.compare.is_some()),
                ("execution.online", exec.online.is_some()),
            ],
        };
        for (field, given) in offending {
            if *given {
                let (this, other) = match mode {
                    Mode::Batch => ("batch", "matrix"),
                    Mode::Matrix => ("matrix", "batch"),
                };
                return Err(invalid(format!(
                    "`{field}` does not apply to {this} mode (it is {other}-only)"
                )));
            }
        }
        Ok(())
    }
}

/// Parse `"K/N"` (1-based K) into a 0-based (shard, total) pair.
pub fn parse_shard(spec: &str) -> Result<(usize, usize), String> {
    let (k, n) =
        spec.split_once('/').ok_or_else(|| format!("shard `{spec}` is not of the form K/N"))?;
    let k: usize = k.trim().parse().map_err(|_| format!("shard `{spec}`: K is not a number"))?;
    let n: usize = n.trim().parse().map_err(|_| format!("shard `{spec}`: N is not a number"))?;
    if n == 0 || k == 0 || k > n {
        return Err(format!("shard `{spec}`: need 1 ≤ K ≤ N"));
    }
    Ok((k - 1, n))
}

/// Reject unknown keys anywhere in the document: a misspelled axis must
/// fail the run, not silently change the campaign.
fn check_known_keys(value: &Value) -> Result<(), SpecError> {
    const TOP: &[&str] = &[
        "mode",
        "workloads",
        "machine",
        "zoo",
        "budgets",
        "policies",
        "noise",
        "shard",
        "campaign",
        "execution",
        "cache",
        "telemetry",
    ];
    const SECTIONS: &[(&str, &[&str])] = &[
        ("campaign", &["reps", "seed"]),
        (
            "execution",
            &["serial", "workers", "job_workers", "compare", "online", "verify", "fast_path"],
        ),
        ("cache", &["enabled", "file", "max_records"]),
        ("telemetry", &["trace", "metrics", "quiet", "bench"]),
    ];
    let Some(root) = value.as_object() else {
        return Err(SpecError::Parse("a spec document is a table/object".into()));
    };
    for key in root.keys() {
        if !TOP.contains(&key.as_str()) {
            return Err(invalid(format!("unknown key `{key}` (known: {})", TOP.join(", "))));
        }
    }
    for (section, known) in SECTIONS {
        if let Some(table) = root.get(*section).and_then(Value::as_object) {
            for key in table.keys() {
                if !known.contains(&key.as_str()) {
                    return Err(invalid(format!(
                        "unknown key `{section}.{key}` (known: {})",
                        known.join(", ")
                    )));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_specs_resolve_with_cli_defaults() {
        let batch = CampaignSpec::parse("").unwrap();
        assert_eq!(batch, CampaignSpec::default());
        match batch.resolve().unwrap() {
            Resolved::Batch(b) => {
                assert_eq!(b.jobs.len(), 7, "all Table II workloads");
                assert!(b.compare && b.fleet.online_check && b.fleet.cache_enabled);
                assert_eq!(b.campaign.runs_per_config, 3);
            }
            Resolved::Matrix(_) => panic!("empty spec is a batch"),
        }
        let matrix = CampaignSpec::parse("mode = \"matrix\"\n").unwrap();
        match matrix.resolve().unwrap() {
            Resolved::Matrix(m) => {
                assert_eq!(m.matrix.machines().len(), 7, "standard sweep");
                assert_eq!(m.matrix.budgets().len(), 3, "default budget axis");
                assert!(m.verify && m.shard.is_none());
            }
            Resolved::Batch(_) => panic!("mode = matrix"),
        }
    }

    #[test]
    fn mode_is_inferred_from_matrix_axes() {
        let spec = CampaignSpec { budgets: Some(vec!["none".into()]), ..CampaignSpec::default() };
        assert_eq!(spec.mode().unwrap(), Mode::Matrix);
        assert_eq!(CampaignSpec::default().mode().unwrap(), Mode::Batch);
    }

    #[test]
    fn cross_mode_fields_are_hard_errors() {
        for (doc, what) in [
            ("mode = \"batch\"\nzoo = [\"xeon-max\"]\n", "zoo"),
            ("mode = \"batch\"\nshard = \"1/2\"\n", "shard"),
            ("mode = \"batch\"\n[execution]\nverify = true\n", "verify"),
            ("mode = \"matrix\"\nmachine = \"xeon-max\"\n", "machine"),
            ("mode = \"matrix\"\n[execution]\nonline = false\n", "online"),
            ("mode = \"matrix\"\n[execution]\ncompare = false\n", "compare"),
        ] {
            let spec = CampaignSpec::parse(doc).unwrap();
            let err = spec.resolve().unwrap_err();
            assert!(err.to_string().contains(what), "{doc:?} → {err}");
        }
    }

    #[test]
    fn invalid_axis_values_are_rejected_with_the_field_name() {
        for (doc, what) in [
            ("workloads = [\"nope\"]\n", "unknown workload"),
            ("mode = \"matrix\"\nzoo = [\"zen5\"]\n", "unknown machine"),
            ("mode = \"matrix\"\nbudgets = [\"-4\"]\n", "budget"),
            ("policies = [\"nightly\"]\n", "unknown policy"),
            ("policies = [\"fixed\", \"ci:0.02\"]\n", "axis"),
            ("mode = \"matrix\"\nnoise = [-0.5]\n", "noise"),
            ("mode = \"matrix\"\nshard = \"3/2\"\n", "shard"),
            ("[campaign]\nreps = 0\n", "reps"),
            ("[cache]\nenabled = false\nfile = \"c.bin\"\n", "cache.file"),
            ("[execution]\nserial = true\nworkers = 4\n", "serial"),
        ] {
            let spec = CampaignSpec::parse(doc).unwrap();
            let err = spec.resolve().unwrap_err();
            assert!(err.to_string().contains(what), "{doc:?} → {err}");
        }
    }

    #[test]
    fn unknown_keys_are_rejected() {
        for doc in [
            "budgetts = [\"none\"]\n",
            "[campaign]\nrepz = 3\n",
            "[cache]\npath = \"x\"\n",
            "[telemetry]\ntrace_out = \"t\"\n",
        ] {
            assert!(
                matches!(CampaignSpec::parse(doc), Err(SpecError::Invalid(_))),
                "{doc:?} must be rejected"
            );
        }
    }

    #[test]
    fn toml_and_json_renderings_roundtrip() {
        let spec = CampaignSpec {
            mode: Some("matrix".into()),
            workloads: Some(vec!["mg".into(), "is".into()]),
            zoo: Some(vec!["xeon-max".into(), "hbm-flat*hbm-bw:0.5".into()]),
            budgets: Some(vec!["none".into(), "8".into()]),
            policies: Some(vec!["fixed:2".into(), "ci:0.02:5".into()]),
            noise: Some(vec![0.008, 0.0]),
            campaign: Some(CampaignSection { reps: Some(2), seed: Some(9) }),
            execution: Some(ExecutionSection {
                job_workers: Some(0),
                verify: Some(false),
                ..ExecutionSection::default()
            }),
            cache: Some(CacheSection {
                file: Some("cells.bin".into()),
                max_records: Some(1000),
                ..CacheSection::default()
            }),
            telemetry: Some(TelemetrySection {
                trace: Some("trace.jsonl".into()),
                metrics: Some(true),
                ..TelemetrySection::default()
            }),
            ..CampaignSpec::default()
        };
        assert_eq!(CampaignSpec::parse(&spec.to_toml()).unwrap(), spec);
        assert_eq!(CampaignSpec::parse(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn fingerprint_tracks_bits_not_scheduling() {
        let base = CampaignSpec { mode: Some("matrix".into()), ..CampaignSpec::default() };
        let fp = base.fingerprint().unwrap();
        // Scheduling/caching/sharding choices don't move it.
        let mut sched = base.clone();
        sched.execution = Some(ExecutionSection {
            serial: Some(true),
            job_workers: Some(4),
            verify: Some(false),
            fast_path: Some(false),
            ..ExecutionSection::default()
        });
        sched.cache = Some(CacheSection { enabled: Some(false), ..CacheSection::default() });
        sched.shard = Some("1/3".into());
        sched.telemetry = Some(TelemetrySection {
            trace: Some("t.jsonl".into()),
            metrics: Some(true),
            quiet: Some(true),
            bench: Some("b.jsonl".into()),
        });
        assert_eq!(sched.fingerprint().unwrap(), fp);
        // Axis and campaign changes do.
        let mut axis = base.clone();
        axis.budgets = Some(vec!["none".into()]);
        assert_ne!(axis.fingerprint().unwrap(), fp);
        let mut seeded = base.clone();
        seeded.campaign = Some(CampaignSection { seed: Some(99), ..CampaignSection::default() });
        assert_ne!(seeded.fingerprint().unwrap(), fp);
    }
}
