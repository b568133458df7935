//! The content-addressed measurement cache.
//!
//! The cache implementation lives in [`hmpt_core::cache`] since the
//! campaign-plan IR moved cache integration into the executor layer
//! ([`hmpt_core::exec::CachingExecutor`]), which any campaign plan or
//! online-tuner run can be handed. This module re-exports it under the
//! historical `hmpt_fleet::cache` path.

pub use hmpt_core::cache::{CacheStats, CellKey, MeasurementCache};
