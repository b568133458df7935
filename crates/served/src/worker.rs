//! An in-process shard-worker pool, no longer on the service's path.
//!
//! The coordinator runs each job as one matrix on the fleet's job pool
//! (`hmpt_fleet::matrix::run_matrix_with_cache`), so a campaign group
//! runs once however the workers are set. [`run_shards`] stays public
//! only because the benchmark's served replica (`perfbench/src/replay.rs`)
//! compiles against it; it goes when ROADMAP item 4 deletes the replica.
//!
//! It splits a matrix into balanced contiguous
//! [`hmpt_core::scenario::ShardSpec`] ranges — the split the CLI's
//! `--shard K/N` pipeline uses — and runs each range on its own thread
//! through `run_matrix_sharded` against one cache. A campaign group the
//! split cuts runs once in each shard. Every shard stamps
//! `matrix_fingerprint`, and rows are bit-identical at any worker
//! count, so the shard-ordered reports merge into the unsharded report.

use std::sync::{mpsc, Arc};

use hmpt_core::cache::MeasurementCache;
use hmpt_core::error::TunerError;
use hmpt_core::scenario::{ScenarioMatrix, ShardReport};
use hmpt_fleet::matrix::{run_matrix_sharded, MatrixConfig};

/// Run `matrix` as `workers` parallel shards against one shared cache.
/// Blocks until every shard is done; returns the reports in
/// shard order, or the first shard error (remaining shards still run to
/// completion — their cells stay in the cache for the retry).
pub fn run_shards(
    matrix: &ScenarioMatrix,
    config: &MatrixConfig,
    workers: usize,
    cache: &Arc<MeasurementCache>,
) -> Result<Vec<ShardReport>, TunerError> {
    let total = workers.clamp(1, matrix.len().max(1));
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        for shard in 0..total {
            let tx = tx.clone();
            let cache = Arc::clone(cache);
            scope.spawn(move || {
                let spec = matrix.shard(shard, total);
                let _ = tx.send(run_matrix_sharded(matrix, config, spec, cache));
            });
        }
        drop(tx);
        let mut reports = Vec::with_capacity(total);
        let mut first_err = None;
        for result in rx {
            match result {
                Ok(report) => reports.push(report),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => {
                reports.sort_by_key(|r| r.shard);
                Ok(reports)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmpt_core::scenario::MatrixReport;
    use hmpt_fleet::matrix::run_matrix;
    use hmpt_fleet::spec::{CampaignSpec, Resolved};

    fn tiny_matrix() -> (ScenarioMatrix, MatrixConfig) {
        let spec = CampaignSpec::parse(
            "mode = \"matrix\"\nzoo = [\"xeon-max\", \"hbm-flat\"]\n\
             workloads = [\"mg\", \"is\"]\nbudgets = [\"none\"]\nnoise = [0.0]\n\
             policies = [\"fixed\"]\n",
        )
        .unwrap();
        match spec.resolve().unwrap() {
            Resolved::Matrix(m) => (m.matrix, m.config),
            Resolved::Batch(_) => unreachable!("matrix spec"),
        }
    }

    #[test]
    fn sharded_pool_matches_the_single_process_run_bit_for_bit() {
        let (matrix, config) = tiny_matrix();
        let reference = run_matrix(&matrix, &config).unwrap();

        let cache = Arc::new(MeasurementCache::new());
        let shards = run_shards(&matrix, &config, 3, &cache).unwrap();
        assert_eq!(shards.len(), 3.min(matrix.len()));
        assert_eq!(shards.iter().map(|s| s.shard).collect::<Vec<_>>(), vec![0, 1, 2]);
        let merged = MatrixReport::merge(&shards).unwrap();
        assert!(merged.bit_identical(&reference), "worker count must not change results");
    }

    #[test]
    fn worker_count_is_clamped_to_the_matrix() {
        let (matrix, config) = tiny_matrix();
        let cache = Arc::new(MeasurementCache::new());
        let shards = run_shards(&matrix, &config, 64, &cache).unwrap();
        assert_eq!(shards.len(), matrix.len(), "never more shards than scenarios");
        assert!(MatrixReport::merge(&shards).is_ok());
    }
}
