//! # hmpt-fleet — parallel campaign execution with a measurement cache
//!
//! The paper's dominant cost is the measurement campaign: "roughly
//! `2^|AG|·n` measurements" per workload (§III.A), which the base tuner
//! executes strictly serially. This crate turns the tuner into a small
//! *service* that answers batches of tuning jobs fast:
//!
//! * **Executors** ([`ExecutorKind`], re-exported from
//!   `hmpt_core::exec`): every (configuration, repetition) cell of a
//!   campaign is an independent simulated run with a derived seed, so a
//!   work-stealing pool of std threads evaluates them concurrently and
//!   reassembles results in canonical order — **bit-identical** to
//!   serial execution. The same pool runs a batch's concurrent jobs,
//!   whose cells then run serially: one level of fan-out per run.
//! * **[`MeasurementCache`]** (re-exported from `hmpt_core::cache`): a
//!   content-addressed cell cache keyed by fingerprints of (machine,
//!   workload spec, placement plan, noise ⊕ seed). Identical cells
//!   across jobs — shared DDR-only baselines, sensitivity sweeps
//!   re-visiting the stock machine, online-search probes of
//!   configurations the exhaustive campaign already measured — are
//!   simulated once. Caching composes at the executor layer
//!   ([`CachingExecutor`]), so the campaign and its online probes share it.
//! * **Campaign-plan IR** ([`hmpt_core::campaign::CampaignPlan`]):
//!   campaigns are planned (cells enumerated lazily, fingerprints
//!   memoized) and streamed in bounded chunks; an adaptive
//!   [`RepPolicy`] can retire configurations early once their mean
//!   runtime is known tightly enough — bit-identically across serial,
//!   parallel, and cached execution.
//! * **[`Fleet`]**: the batch front end. It accepts tuning jobs
//!   (workload × machine × campaign settings) and runs them through the
//!   cache in one pass — concurrently across jobs when
//!   [`FleetConfig::job_workers`] allows, each job's cells serially;
//!   otherwise one job at a time on the configured executor — then
//!   returns per-job [`hmpt_core::driver::Analysis`] results in job
//!   order, with cache-hit, early-stop, and throughput statistics.
//! * **Scenario matrices** ([`matrix`], over
//!   [`hmpt_core::scenario::ScenarioMatrix`] and the machine zoo
//!   [`hmpt_sim::zoo`]): lazily enumerated cross-platform campaigns —
//!   machines × workloads × HBM budgets × repetition policies × noise
//!   levels — executed through the same fleet stack, one job per
//!   campaign group in one pass, so all budget rows read one measured
//!   campaign. [`api::run_checked`] is the one checked matrix path
//!   (run, budget/capacity audit, the `verify` re-run) that
//!   `hmpt-fleet run`, its shards and the daemon share.
//!   The aggregated [`MatrixReport`] adds cross-machine views:
//!   speedup-vs-HBM-bandwidth curves, budget-vs-slowdown frontiers,
//!   and zoo-wide HBM-resident groups.
//!
//! * **Persistence and sharding** ([`store`], re-exported from
//!   `hmpt_core::store`, plus [`run_matrix_sharded`] /
//!   [`MatrixReport::merge`]): the cache snapshots to a versioned,
//!   checksummed on-disk format ([`FleetConfig::cache_path`] loads on
//!   start and saves on finish), and a scenario matrix partitions into
//!   balanced index-range shards whose [`ShardReport`]s merge back
//!   bit-identically — N processes, N shard files, one merge.
//!
//! * **Declarative campaign specs and the request API** ([`spec`],
//!   [`api`], [`cli`], [`toml`]): every campaign is a serializable
//!   [`CampaignSpec`] document, every entry point a typed
//!   [`Request`] → [`Response`] through [`execute`] — batch, matrix,
//!   shard, and merge behind one facade and one error type
//!   ([`ApiError`]). CLI flags *compile* to specs (`--spec-out` emits
//!   the document; `hmpt-fleet run spec.toml` executes one), and
//!   `CampaignSpec::fingerprint()` makes a spec file the artifact CI
//!   shard jobs validate their merge against.
//!
//! The `hmpt-fleet` binary runs the paper's entire Table II campaign in
//! one command and emits a JSON report; its `scenarios` mode does the
//! same for a whole machine zoo, its `--shard`/`merge` modes
//! distribute that across processes, and its `run` mode executes
//! campaign-spec files.
//!
//! See `DESIGN.md` (§ "The fleet subsystem") for the cache-key scheme
//! and the bit-identity argument.

pub mod api;
pub mod cache;
pub mod cli;
pub mod matrix;
pub mod service;
pub mod spec;
pub mod telemetry;
pub mod toml;

pub use api::{execute, ApiError, MergeRequest, Request, Response};
pub use cache::{CacheStats, CellKey, MeasurementCache};
pub use hmpt_core::campaign::{CampaignPlan, CellSink, CellSpec, RepPolicy};
pub use hmpt_core::exec::{available_workers, CachingExecutor, CellExecutor, ExecutorKind};
pub use hmpt_core::scenario::{
    MatrixReport, MergeError, Scenario, ScenarioMatrix, ScenarioRow, ShardReport, ShardSpec,
};
pub use hmpt_core::store;
pub use matrix::{run_matrix, run_matrix_sharded, run_matrix_with_cache, MatrixConfig};
pub use service::{Fleet, FleetConfig, FleetReport, FleetStats, JobReport, TuningJob};
pub use spec::{CampaignSpec, SpecError};

/// Send + Sync audit: everything a campaign cell touches crosses thread
/// boundaries in the parallel executor, and the fleet shares its cache
/// across workers. This compiles only while those types stay thread-safe.
#[allow(dead_code)]
fn send_sync_audit() {
    fn ok<T: Send + Sync>() {}
    ok::<hmpt_sim::machine::Machine>();
    ok::<hmpt_workloads::model::WorkloadSpec>();
    ok::<hmpt_alloc::plan::PlacementPlan>();
    ok::<hmpt_core::grouping::AllocationGroup>();
    ok::<hmpt_core::measure::CampaignConfig>();
    ok::<hmpt_core::measure::CampaignResult>();
    ok::<hmpt_core::driver::Analysis>();
    ok::<hmpt_core::error::TunerError>();
    ok::<MeasurementCache>();
    ok::<Fleet>();
}
