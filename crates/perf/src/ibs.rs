//! The statistical memory-access sampler.
//!
//! Real IBS tags one in `N` micro-ops and reports the data address,
//! service latency, and source of each tagged load/store. We reproduce
//! the statistics of that process: a traffic stream of `B` bytes yields
//! `Poisson(B / period_bytes)` samples, each placed uniformly within the
//! stream's backing extents (weighted by extent size), with a small
//! forward *skid* and a latency drawn around the serving pool's idle
//! latency.

use hmpt_alloc::vspace::Extent;
use hmpt_sim::pool::PoolKind;
use hmpt_sim::stream::Direction;
use hmpt_sim::units::Bytes;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Sampler configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct IbsConfig {
    /// Average bytes of traffic between samples (the sampling period).
    pub period_bytes: Bytes,
    /// Maximum forward skid applied to sampled addresses, bytes. Skid can
    /// push a sample past the end of its allocation — such samples are
    /// attributed to whatever lives there (or dropped), exactly like on
    /// real hardware.
    pub skid_bytes: Bytes,
    /// Relative jitter of reported latencies (DRAM queueing).
    pub latency_jitter: f64,
}

impl Default for IbsConfig {
    fn default() -> Self {
        // ~one sample per 16 MiB of traffic: a few thousand samples for a
        // tens-of-GB benchmark iteration, matching perf-record overheads
        // the paper aims for ("minimization of the overhead").
        Self { period_bytes: 16 * 1024 * 1024, skid_bytes: 256, latency_jitter: 0.15 }
    }
}

/// One sampled memory access.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MemSample {
    /// Raw (possibly skidded) data address.
    pub addr: u64,
    /// Reported service latency, ns.
    pub latency_ns: f64,
    pub is_write: bool,
    /// Pool that served the access (known to the simulator; real IBS
    /// reports a data-source encoding with the same information).
    pub pool: PoolKind,
}

/// The sampler: owns the RNG so sampling is reproducible per run.
#[derive(Debug)]
pub struct Sampler<R: Rng> {
    cfg: IbsConfig,
    rng: R,
}

impl<R: Rng> Sampler<R> {
    pub fn new(cfg: IbsConfig, rng: R) -> Self {
        Sampler { cfg, rng }
    }

    pub fn config(&self) -> &IbsConfig {
        &self.cfg
    }

    /// Draw `Poisson(lambda)` using inversion for small lambda and a
    /// normal approximation for large lambda (lambda here is
    /// traffic/period, which can reach tens of thousands).
    fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda < 64.0 {
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.rng.random::<f64>();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            // Normal approximation with continuity correction.
            let u1: f64 = self.rng.random::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = self.rng.random();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let n = lambda + lambda.sqrt() * z + 0.5;
            n.max(0.0) as u64
        }
    }

    /// Sample one traffic stream of `bytes` bytes against the given
    /// backing extents, handing each sample to `sink` as it is drawn:
    /// nothing is buffered, so a profiling run's memory does not grow
    /// with its traffic. `idle_latency_of` is the serving pool's idle
    /// latency (per extent, since a split allocation spans pools).
    pub fn sample_stream(
        &mut self,
        extents: &[Extent],
        bytes: Bytes,
        dir: Direction,
        idle_latency_of: impl Fn(PoolKind) -> f64,
        mut sink: impl FnMut(MemSample),
    ) {
        if extents.is_empty() || bytes == 0 {
            return;
        }
        let n = self.poisson(bytes as f64 / self.cfg.period_bytes as f64);
        let total: Bytes = extents.iter().map(|e| e.bytes).sum();
        let write_prob = match dir {
            Direction::Read => 0.0,
            Direction::Write => 1.0,
            Direction::ReadWrite => 0.5,
        };
        for _ in 0..n {
            // Pick an extent weighted by size, then a uniform offset.
            let mut target = self.rng.random_range(0..total);
            let mut chosen = extents[0];
            for e in extents {
                if target < e.bytes {
                    chosen = *e;
                    break;
                }
                target -= e.bytes;
            }
            let offset = self.rng.random_range(0..chosen.bytes);
            let skid = if self.cfg.skid_bytes > 0 {
                self.rng.random_range(0..self.cfg.skid_bytes)
            } else {
                0
            };
            let base_lat = idle_latency_of(chosen.pool);
            let jitter = 1.0 + self.cfg.latency_jitter * (self.rng.random::<f64>() - 0.5) * 2.0;
            sink(MemSample {
                addr: chosen.addr + offset + skid,
                latency_ns: base_lat * jitter,
                is_write: self.rng.random::<f64>() < write_prob,
                pool: chosen.pool,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sampler(period: Bytes) -> Sampler<ChaCha8Rng> {
        Sampler::new(
            IbsConfig { period_bytes: period, skid_bytes: 0, latency_jitter: 0.0 },
            ChaCha8Rng::seed_from_u64(11),
        )
    }

    fn extent(addr: u64, bytes: Bytes, pool: PoolKind) -> Extent {
        Extent { addr, bytes, pool }
    }

    /// The samples one stream yields, in draw order.
    fn collect(
        s: &mut Sampler<ChaCha8Rng>,
        extents: &[Extent],
        bytes: Bytes,
        dir: Direction,
        idle_latency_of: impl Fn(PoolKind) -> f64,
    ) -> Vec<MemSample> {
        let mut out = Vec::new();
        s.sample_stream(extents, bytes, dir, idle_latency_of, |smp| out.push(smp));
        out
    }

    #[test]
    fn sample_count_tracks_traffic() {
        let mut s = sampler(1024 * 1024);
        let e = [extent(0x1000_0000, 1 << 30, PoolKind::Ddr)];
        let samples = collect(&mut s, &e, 1 << 30, Direction::Read, |_| 95.0);
        let lambda = (1u64 << 30) as f64 / (1024.0 * 1024.0); // 1024
        let n = samples.len() as f64;
        assert!((n - lambda).abs() < 5.0 * lambda.sqrt(), "n={n} lambda={lambda}");
    }

    #[test]
    fn zero_traffic_zero_samples() {
        let mut s = sampler(1024);
        let e = [extent(0, 4096, PoolKind::Hbm)];
        assert!(collect(&mut s, &e, 0, Direction::Read, |_| 1.0).is_empty());
        assert!(collect(&mut s, &[], 4096, Direction::Read, |_| 1.0).is_empty());
    }

    #[test]
    fn addresses_fall_inside_extents() {
        let mut s = sampler(64 * 1024);
        let e = [
            extent(0x1000_0000_0000, 1 << 26, PoolKind::Ddr),
            extent(0x2000_0000_0000, 1 << 26, PoolKind::Hbm),
        ];
        let samples = collect(&mut s, &e, 1 << 30, Direction::Read, |_| 95.0);
        assert!(!samples.is_empty());
        for smp in &samples {
            assert!(e.iter().any(|x| x.contains(smp.addr)), "stray sample at {:#x}", smp.addr);
        }
    }

    #[test]
    fn split_extents_sampled_by_size() {
        // 3:1 size ratio should produce ~3:1 sample ratio.
        let mut s = sampler(16 * 1024);
        let e = [
            extent(0x1000_0000_0000, 3 << 24, PoolKind::Ddr),
            extent(0x2000_0000_0000, 1 << 24, PoolKind::Hbm),
        ];
        let samples = collect(&mut s, &e, 1 << 31, Direction::Read, |_| 95.0);
        let ddr = samples.iter().filter(|x| x.pool == PoolKind::Ddr).count() as f64;
        let hbm = samples.iter().filter(|x| x.pool == PoolKind::Hbm).count() as f64;
        let ratio = ddr / hbm;
        assert!(ratio > 2.5 && ratio < 3.6, "ratio {ratio}");
    }

    #[test]
    fn latency_reflects_pool() {
        let mut s = sampler(256 * 1024);
        let e = [extent(0x2000_0000_0000, 1 << 28, PoolKind::Hbm)];
        let samples = collect(&mut s, &e, 1 << 30, Direction::Read, |p| match p {
            PoolKind::Hbm => 114.0,
            _ => 95.0,
        });
        for smp in samples {
            assert!((smp.latency_ns - 114.0).abs() < 1e-9);
        }
    }

    #[test]
    fn write_direction_marks_samples() {
        let mut s = sampler(256 * 1024);
        let e = [extent(0x1000_0000_0000, 1 << 28, PoolKind::Ddr)];
        let reads = collect(&mut s, &e, 1 << 30, Direction::Read, |_| 95.0);
        assert!(reads.iter().all(|x| !x.is_write));
        let writes = collect(&mut s, &e, 1 << 30, Direction::Write, |_| 95.0);
        assert!(writes.iter().all(|x| x.is_write));
        let mixed = collect(&mut s, &e, 1 << 31, Direction::ReadWrite, |_| 95.0);
        let frac = mixed.iter().filter(|x| x.is_write).count() as f64 / mixed.len() as f64;
        assert!(frac > 0.4 && frac < 0.6, "write fraction {frac}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let mut s = sampler(1);
        let mut acc = 0u64;
        let k = 200;
        for _ in 0..k {
            acc += s.poisson(10_000.0);
        }
        let mean = acc as f64 / k as f64;
        assert!((mean - 10_000.0).abs() < 100.0, "mean {mean}");
    }

    #[test]
    fn deterministic_with_seed() {
        let run = || {
            let mut s = sampler(64 * 1024);
            let e = [extent(0x1000_0000_0000, 1 << 26, PoolKind::Ddr)];
            collect(&mut s, &e, 1 << 28, Direction::Read, |_| 95.0)
                .iter()
                .map(|x| x.addr)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
