//! # hmpt-report — the campaign warehouse
//!
//! Every layer of the stack produces artifacts — matrix reports, batch
//! reports, `BENCH_*.json` timing JSONL, trace files — but an artifact
//! only means something *relative to the last one*. This crate is the
//! read-across-time layer:
//!
//! * [`record`] normalizes any producer's artifact into a
//!   [`record::CampaignRecord`], keyed by (`spec_fingerprint`, `label`,
//!   monotonic `revision`).
//! * [`warehouse`] stores records durably: an appended `index.jsonl`
//!   with per-line checksums (a `hmpt_core::store` line log) plus
//!   checksummed payload files written atomically, all read
//!   corruption-tolerantly — the same discipline as the cache store.
//! * [`mod@diff`] compares two records: per-scenario speedup ratios,
//!   placement flips, Table-II band drift, cache and throughput trends,
//!   bench deltas.
//! * [`mod@gate`] turns a diff plus thresholds into a CI verdict.
//! * [`mod@trend`] lines up a series' revisions into a trajectory view.
//!
//! The CLI surface is `hmpt-fleet report {ingest,diff,gate,trend}`; CI
//! runs the gate against the pinned baseline in `baselines/` on every
//! push.

pub mod diff;
pub mod gate;
pub mod record;
pub mod trend;
pub mod warehouse;

pub use diff::{diff, table2_band, DiffReport};
pub use gate::{gate, GateReport, Thresholds};
pub use record::{CampaignRecord, RECORD_SCHEMA};
pub use trend::{trend, TrendView};
pub use warehouse::{IndexEntry, Warehouse, WarehouseError};
