//! # hmpt-perf — IBS/PEBS-style access sampling and performance counters
//!
//! The paper's tool combines the Linux perf API with instruction-based
//! sampling (AMD IBS / Intel PEBS) to estimate, for every allocation, the
//! *density* of memory accesses falling into its address range, together
//! with latency and hit-rate statistics.
//!
//! This crate reproduces that measurement channel against the simulated
//! platform:
//!
//! * [`ibs`] — a statistical sampler: every stream of traffic produced by
//!   a workload phase yields `Poisson(bytes / period)` samples, each with
//!   a raw address inside the allocation's extents, an optional *skid*
//!   (IBS attributes the micro-op after the event on real hardware), and
//!   a service latency drawn from the serving pool.
//! * [`attr`] — address→site attribution through the allocation registry
//!   (misattributed or unattributable samples are counted, not hidden),
//!   streamed: each sample updates its site's running totals as it is
//!   drawn, and no sample is kept.
//! * [`stats`] — per-site access densities: the red-dot/blue-cross
//!   numbers of the paper's Fig 7a.
//! * [`counters`] — per-pool byte and FLOP counters, the inputs to the
//!   arithmetic-intensity estimate behind the paper's roofline (Fig 8).

pub mod attr;
pub mod counters;
pub mod histogram;
pub mod ibs;
pub mod stats;

pub use attr::{Attribution, SiteTally};
pub use counters::Counters;
pub use histogram::LatencyHistogram;
pub use ibs::{IbsConfig, MemSample, Sampler};
pub use stats::{AccessStats, SiteAccess};
