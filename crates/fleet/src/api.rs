//! The unified request API: one typed `Request → Response` entry point
//! over everything the fleet can do.
//!
//! Historically the crate had four front doors — `Fleet::run`,
//! `run_matrix`, `run_matrix_sharded`, and the merge logic inside the
//! CLI binary — each with its own argument conventions and failure
//! modes. This module puts one facade in front of all of them:
//!
//! ```text
//! Request::Batch(spec)  ─┐
//! Request::Matrix(spec) ─┤→ execute(req) → Response::{Batch, Matrix,
//! Request::Merge(req)   ─┘                  Shard, Merge} | ApiError
//! ```
//!
//! A [`Request`] is built from a declarative [`CampaignSpec`]
//! ([`Request::from_spec`]), so the CLI, tests, CI shard jobs, and any
//! future remote endpoint execute the *same* document through the
//! *same* code path — the CLI binary is a thin shell that compiles
//! flags into a spec and renders the response. All verification the
//! old CLI performed inline (serial-vs-parallel comparison, the
//! bit-identity re-run, budget/capacity audits, shard fingerprint
//! validation) lives here, behind one error type ([`ApiError`]), so
//! every entry point enforces it identically. A matrix reaches the
//! simulator through one function, [`run_checked`]: the whole matrix,
//! a shard and a served job (`hmpt_served`'s coordinator) all run,
//! audit and verify the same way.

use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

use hmpt_core::driver::Driver;
use hmpt_core::error::TunerError;
use hmpt_core::exec::ExecutorKind;
use hmpt_core::measure::run_campaign_with;
use hmpt_core::scenario::{
    rows_bit_identical, rows_capacity_ok, MatrixReport, MatrixStats, MergeError, ScenarioMatrix,
    ScenarioRow, ShardReport,
};
use hmpt_core::store::{self, LoadReport, SaveReport, StoreError};
use serde::Serialize;

use crate::cache::MeasurementCache;
use crate::matrix::run_range;
use crate::service::{Fleet, FleetConfig, FleetReport, TuningJob};
use crate::spec::{CampaignSpec, Mode, Resolved, ResolvedBatch, ResolvedMatrix, SpecError};

/// One campaign request, as data.
#[derive(Debug, Clone)]
pub enum Request {
    /// Tune a batch of workloads on one machine (the Table II path).
    Batch(CampaignSpec),
    /// Execute a scenario matrix — the whole matrix, or the one shard
    /// the spec's `shard` range selects.
    Matrix(CampaignSpec),
    /// Reassemble shard reports into the full matrix report.
    Merge(MergeRequest),
}

impl Request {
    /// The request a spec denotes (its mode picks the variant; a
    /// `Merge` request is not spec-denoted — shard reports are inputs,
    /// not campaign settings).
    pub fn from_spec(spec: CampaignSpec) -> Result<Request, SpecError> {
        Ok(match spec.mode()? {
            Mode::Batch => Request::Batch(spec),
            Mode::Matrix => Request::Matrix(spec),
        })
    }
}

/// Inputs of a merge: shard reports plus optional cache-snapshot
/// merging and an optional spec to validate the shards against.
#[derive(Debug, Clone, Default)]
pub struct MergeRequest {
    pub shards: Vec<ShardReport>,
    /// When present, every shard's `matrix_fingerprint` must equal this
    /// spec's fingerprint — the CI handshake: shard jobs and the merge
    /// job share one checked-in spec artifact.
    pub spec: Option<CampaignSpec>,
    /// Cache snapshots to fold (last-write-wins) into `cache_out`.
    pub cache_in: Vec<PathBuf>,
    /// Where the merged snapshot goes (required with `cache_in`).
    pub cache_out: Option<PathBuf>,
}

/// What a request produced.
#[derive(Debug)]
pub enum Response {
    Batch(BatchOutcome),
    Matrix(MatrixOutcome),
    /// A sharded matrix request (`shard` set in the spec).
    Shard(ShardOutcome),
    Merge(MergeOutcome),
}

/// The serial-vs-parallel timing pass of a batch request (also a
/// bit-identity check — a divergence is an [`ApiError::Diverged`], so a
/// comparison you can read implies determinism held).
#[derive(Debug, Clone, Serialize)]
pub struct Comparison {
    pub serial_s: f64,
    pub parallel_s: f64,
    pub speedup: f64,
}

#[derive(Debug)]
pub struct BatchOutcome {
    pub report: FleetReport,
    pub comparison: Option<Comparison>,
    /// Cells preloaded from the cache snapshot at start.
    pub preloaded: u64,
    /// The executed spec's fingerprint (stamped into the CLI report).
    pub fingerprint: String,
}

#[derive(Debug)]
pub struct MatrixOutcome {
    pub report: MatrixReport,
    pub preloaded: u64,
    pub fingerprint: String,
    /// A failed save-on-finish of the cache snapshot (the results above
    /// are still valid — persistence degrades the *next* run).
    pub save_error: Option<String>,
}

#[derive(Debug)]
pub struct ShardOutcome {
    pub report: ShardReport,
    pub preloaded: u64,
    /// Equals `report.matrix_fingerprint` by construction.
    pub fingerprint: String,
    pub save_error: Option<String>,
}

#[derive(Debug)]
pub struct MergeOutcome {
    pub report: MatrixReport,
    /// Cache-snapshot merge accounting, when one was requested.
    pub cache: Option<(LoadReport, SaveReport)>,
}

/// The one failure type every entry point shares.
#[derive(Debug)]
pub enum ApiError {
    /// The spec does not parse or denote a valid campaign.
    Spec(SpecError),
    /// A campaign failed to execute.
    Tuner(TunerError),
    /// Shard reports refuse to merge.
    Merge(MergeError),
    /// A cache snapshot could not be read or written.
    Store { path: String, error: StoreError },
    /// A verification re-run produced different bits — the
    /// determinism contract is broken; nothing should trust the run.
    Diverged { what: String },
    /// A scenario's placement exceeds its budget or machine capacity.
    CapacityExceeded,
    /// A shard report does not match the spec it claims to implement.
    FingerprintMismatch { shard: usize, found: String, expected: String },
    /// A merge request is structurally unusable (no shards, cache-out
    /// without cache-in, …).
    BadRequest(String),
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::Spec(e) => write!(f, "{e}"),
            ApiError::Tuner(e) => write!(f, "campaign failed: {e}"),
            ApiError::Merge(e) => write!(f, "{e}"),
            ApiError::Store { path, error } => write!(f, "cache snapshot {path}: {error}"),
            ApiError::Diverged { what } => {
                write!(f, "{what} diverged from the main run (determinism broken)")
            }
            ApiError::CapacityExceeded => {
                write!(f, "a scenario's placement exceeds its budget or machine capacity")
            }
            ApiError::FingerprintMismatch { shard, found, expected } => {
                write!(f, "shard {shard} ran fingerprint {found}, but the spec denotes {expected}")
            }
            ApiError::BadRequest(msg) => write!(f, "bad request: {msg}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl From<SpecError> for ApiError {
    fn from(e: SpecError) -> Self {
        ApiError::Spec(e)
    }
}

impl From<TunerError> for ApiError {
    fn from(e: TunerError) -> Self {
        ApiError::Tuner(e)
    }
}

impl From<MergeError> for ApiError {
    fn from(e: MergeError) -> Self {
        ApiError::Merge(e)
    }
}

/// Execute a request.
pub fn execute(request: &Request) -> Result<Response, ApiError> {
    match request {
        Request::Batch(spec) => match spec.resolve()? {
            resolved @ Resolved::Batch(_) => execute_resolved(&resolved),
            Resolved::Matrix(_) => {
                Err(ApiError::BadRequest("Request::Batch carries a matrix-mode spec".into()))
            }
        },
        Request::Matrix(spec) => match spec.resolve()? {
            resolved @ Resolved::Matrix(_) => execute_resolved(&resolved),
            Resolved::Batch(_) => {
                Err(ApiError::BadRequest("Request::Matrix carries a batch-mode spec".into()))
            }
        },
        Request::Merge(req) => execute_merge(req).map(Response::Merge),
    }
}

/// Execute an already-resolved spec, as [`execute`] executes the
/// request the spec denotes — for a caller that also reads the
/// resolution, so the spec is resolved once.
pub fn execute_resolved(resolved: &Resolved) -> Result<Response, ApiError> {
    let fingerprint = resolved.fingerprint().to_string();
    match resolved {
        Resolved::Batch(resolved) => execute_batch(resolved, fingerprint).map(Response::Batch),
        Resolved::Matrix(resolved) => execute_matrix(resolved, fingerprint),
    }
}

/// The batch path: optional serial-vs-parallel comparison, then the
/// fleet run (shared cache, snapshot load/save).
fn execute_batch(resolved: &ResolvedBatch, fingerprint: String) -> Result<BatchOutcome, ApiError> {
    let _span = hmpt_obs::span("api.batch");
    let comparison = if resolved.compare {
        // Time against the configured parallel pool (or an auto-sized
        // one when the main run is serial — the pass exists to compare).
        let parallel = match resolved.fleet.executor {
            ExecutorKind::Parallel { .. } => resolved.fleet.executor,
            ExecutorKind::Serial => ExecutorKind::parallel(),
        };
        Some(compare(&resolved.jobs, parallel)?)
    } else {
        None
    };
    let fleet = Fleet::new(resolved.fleet.clone());
    let preloaded = fleet.preloaded();
    let report = fleet.run(&resolved.jobs)?;
    Ok(BatchOutcome { report, comparison, preloaded, fingerprint })
}

/// Serial vs parallel on the same campaigns, checking bit-identity —
/// the timing pass behind `execution.compare`.
fn compare(jobs: &[TuningJob], parallel: ExecutorKind) -> Result<Comparison, ApiError> {
    // Profile + group once per job; time only the campaigns (the part
    // the executor abstraction parallelizes).
    let prepared = jobs
        .iter()
        .map(|job| {
            let driver = Driver::new(job.machine.clone()).with_campaign(job.campaign);
            let profile = driver.profile(&job.spec)?;
            let groups = hmpt_core::grouping::group(
                &job.spec,
                &profile.stats,
                &hmpt_core::grouping::GroupingConfig::default(),
            );
            Ok((job, groups))
        })
        .collect::<Result<Vec<_>, TunerError>>()?;

    let run_all = |exec: ExecutorKind| {
        prepared
            .iter()
            .map(|(job, groups)| {
                run_campaign_with(&exec, &job.machine, &job.spec, groups, &job.campaign)
            })
            .collect::<Result<Vec<_>, TunerError>>()
    };

    let t0 = Instant::now();
    let serial = run_all(ExecutorKind::Serial)?;
    let serial_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let par = run_all(parallel)?;
    let parallel_s = t0.elapsed().as_secs_f64();

    let bit_identical = serial.iter().zip(&par).all(|(a, b)| {
        a.measurements.len() == b.measurements.len()
            && a.measurements.iter().zip(&b.measurements).all(|(x, y)| {
                x.config == y.config
                    && x.mean_s.to_bits() == y.mean_s.to_bits()
                    && x.std_s.to_bits() == y.std_s.to_bits()
            })
    });
    if !bit_identical {
        return Err(ApiError::Diverged { what: "the parallel campaign".into() });
    }
    Ok(Comparison { serial_s, parallel_s, speedup: serial_s / parallel_s.max(1e-12) })
}

/// The matrix path every front end shares — `hmpt-fleet run`, a
/// `--shard` and the daemon: run `range` of `matrix` on `fleet` in one
/// pass, audit every row against its budget and its machine's
/// capacities, and, with `verify`, compare the rows with exactly one
/// serial, uncached re-run at the fleet's job width. The other
/// strategies' bit-identity (cell-parallel, cached, sharded) is proven
/// by the property tests and CI, not re-run here.
pub fn run_checked(
    fleet: &Fleet,
    matrix: &ScenarioMatrix,
    range: Range<usize>,
    verify: bool,
) -> Result<(Vec<ScenarioRow>, MatrixStats), ApiError> {
    let (rows, stats) = run_range(fleet, matrix, range.clone())?;
    if !rows_capacity_ok(&rows) {
        return Err(ApiError::CapacityExceeded);
    }
    if verify {
        let reference = Fleet::new(FleetConfig {
            executor: ExecutorKind::Serial,
            cache_enabled: false,
            cache_path: None,
            ..fleet.config().clone()
        });
        let (other, _) = run_range(&reference, matrix, range)?;
        if !rows_bit_identical(&rows, &other) {
            return Err(ApiError::Diverged { what: "the serial-uncached re-run".into() });
        }
    }
    Ok((rows, stats))
}

/// The matrix request: one [`run_checked`] over the spec's range (the
/// whole matrix, or its one shard) on a fleet that preloads the cache
/// snapshot, then save-on-finish ([`Fleet::persist`], LRU-swept to
/// `cache.max_records`) if the run changed the cache.
fn execute_matrix(resolved: &ResolvedMatrix, fingerprint: String) -> Result<Response, ApiError> {
    let _span = hmpt_obs::span("api.matrix");
    let ResolvedMatrix { matrix, config, verify, cache_file, cache_max_records, shard } = resolved;
    let fleet = Fleet::new(FleetConfig {
        cache_path: cache_file.clone(),
        cache_max_records: *cache_max_records,
        ..config.fleet_config()
    });
    let range = shard.map_or(0..matrix.len(), |s| s.range());
    let (rows, stats) = run_checked(&fleet, matrix, range, *verify)?;
    let preloaded = fleet.preloaded();
    // A failed save degrades the *next* run; these results stand.
    let save_error = match (fleet.persist(), &fleet.config().cache_path) {
        (Err(e), Some(path)) => Some(format!("{}: {e}", path.display())),
        _ => None,
    };
    Ok(match shard {
        Some(shard) => Response::Shard(ShardOutcome {
            report: ShardReport {
                shard: shard.shard,
                total_shards: shard.total,
                matrix_fingerprint: config.matrix_fingerprint(matrix).to_string(),
                rows,
                stats,
            },
            preloaded,
            fingerprint,
            save_error,
        }),
        None => {
            let mut report = MatrixReport::assemble(rows, stats);
            // Provenance stamp: which spec produced these rows. Not a
            // result bit (bit_identical ignores it), so flag-driven and
            // spec-driven runs of the same campaign still compare equal.
            report.spec_fingerprint = Some(fingerprint.clone());
            Response::Matrix(MatrixOutcome { report, preloaded, fingerprint, save_error })
        }
    })
}

/// The merge path: validate the shards (against the spec, when given),
/// reassemble the matrix report, audit capacity, and optionally fold
/// the shards' cache snapshots into one warm-start snapshot.
fn execute_merge(req: &MergeRequest) -> Result<MergeOutcome, ApiError> {
    let _span = hmpt_obs::span("api.merge");
    if req.shards.is_empty() {
        return Err(ApiError::BadRequest("no shard reports given".into()));
    }
    if req.cache_in.is_empty() != req.cache_out.is_none() {
        return Err(ApiError::BadRequest("cache_in and cache_out go together".into()));
    }
    if let Some(spec) = &req.spec {
        let expected = spec.fingerprint()?.to_string();
        for report in &req.shards {
            if report.matrix_fingerprint != expected {
                return Err(ApiError::FingerprintMismatch {
                    shard: report.shard,
                    found: report.matrix_fingerprint.clone(),
                    expected,
                });
            }
        }
    }
    let mut report = MatrixReport::merge(&req.shards)?;
    // For matrix-mode specs a shard's `matrix_fingerprint` *is* the
    // spec fingerprint (`CampaignSpec::fingerprint` reproduces the
    // matrix ⊕ bits combination), so the merged report carries the same
    // provenance stamp a single-process spec run would.
    report.spec_fingerprint = req.shards.first().map(|s| s.matrix_fingerprint.clone());
    if !report.capacity_ok() {
        return Err(ApiError::CapacityExceeded);
    }
    let cache = match (&req.cache_in[..], &req.cache_out) {
        ([], None) => None,
        (paths, Some(out)) => {
            let cache = MeasurementCache::new();
            let loaded = store::merge_into(&cache, paths).map_err(|error| ApiError::Store {
                path: paths.iter().map(|p| p.display().to_string()).collect::<Vec<_>>().join(","),
                error,
            })?;
            let saved = store::save(&cache, out)
                .map_err(|error| ApiError::Store { path: out.display().to_string(), error })?;
            Some((loaded, saved))
        }
        _ => unreachable!("checked above"),
    };
    Ok(MergeOutcome { report, cache })
}
