//! # hmpt-core — the Heterogeneous Memory Pool Tuner
//!
//! The paper's contribution: a lightweight tool that analyzes and tunes
//! application data placement on platforms with heterogeneous memory
//! pools. It combines, in a single tool, the three components the related
//! work splits across separate systems:
//!
//! 1. **memory usage analysis** — a profiling run with allocation
//!    interception + IBS sampling ([`driver`], using `hmpt-alloc` and
//!    `hmpt-perf`),
//! 2. **a placement algorithm** — allocation grouping ([`grouping`]),
//!    exhaustive configuration-space measurement ([`configspace`],
//!    [`measure`]), the linear independence estimator ([`estimate`]), a
//!    capacity-constrained planner ([`planner`]), and an incremental
//!    online search ([`online`]),
//! 3. **data placement control** — emitting
//!    [`hmpt_alloc::plan::PlacementPlan`]s the shim enforces.
//!
//! [`analysis`] renders the paper's two result views (detailed, Fig 7a;
//! summary, Fig 7b/9–15), [`metrics`] computes the Table II triple,
//! [`roofline`] the Fig 8 model, and [`report`] the text/JSON artifacts.
//! [`scenario`] lifts all of it across platforms: a lazily enumerated
//! matrix of machines × workloads × HBM budgets × repetition policies ×
//! noise levels, with cross-machine report views — shardable by index
//! range across processes ([`scenario::ScenarioMatrix::shard`]) with a
//! fingerprint-validated merge ([`scenario::MatrixReport::merge`]).
//! [`store`] persists the content-addressed measurement cache to disk
//! (versioned, checksummed, corruption-tolerant snapshots), so
//! campaigns warm-start across process restarts and CI runs.

pub mod analysis;
pub mod baselines;
pub mod cache;
pub mod campaign;
pub mod configspace;
pub mod diagnose;
pub mod driver;
pub mod dynamic;
pub mod error;
pub mod estimate;
pub mod exec;
pub mod export;
pub mod fastpath;
pub mod grouping;
pub mod measure;
pub mod metrics;
pub mod online;
pub mod planner;
pub mod report;
pub mod roofline;
pub mod scenario;
pub mod sensitivity;
pub mod store;

pub use analysis::{DetailedView, SummaryView};
pub use cache::{CacheStats, CellKey, MeasurementCache};
pub use campaign::{CampaignPlan, CellSink, CellSpec, RepPolicy};
pub use driver::{Analysis, Driver};
pub use error::TunerError;
pub use exec::{CachingExecutor, CellExecutor, ExecutorKind};
pub use grouping::{AllocationGroup, GroupingConfig};
pub use metrics::Table2Row;
pub use scenario::{
    MatrixReport, MergeError, Scenario, ScenarioMatrix, ScenarioRow, ShardReport, ShardSpec,
};
pub use store::{LoadReport, SaveReport, StoreError};
