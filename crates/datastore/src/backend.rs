//! Backend latency/throughput models for the pluggable Distributed Data
//! Store.
//!
//! NotebookOS supports Redis, AWS S3, and HDFS (§3.2.4). The platform only
//! observes the *latency* of large-object reads and writes (Fig. 11), so a
//! backend is modelled as a base per-operation latency plus a
//! size-proportional transfer time, with log-normal jitter on both.

use notebookos_des::time::u64_to_f64;
use notebookos_des::{Distribution, LogNormal, SimRng, SimTime};

/// Which storage system backs the data store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// In-memory Redis cluster: lowest base latency, RAM-bound capacity.
    Redis,
    /// AWS S3: higher base latency, effectively unbounded capacity.
    S3,
    /// HDFS: middle ground.
    Hdfs,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Redis => write!(f, "redis"),
            BackendKind::S3 => write!(f, "s3"),
            BackendKind::Hdfs => write!(f, "hdfs"),
        }
    }
}

/// Latency model for one backend.
#[derive(Debug, Clone)]
pub struct BackendModel {
    kind: BackendKind,
    /// Base (size-independent) latency in seconds, jittered.
    read_base: LogNormal,
    write_base: LogNormal,
    /// Sustained throughput in bytes/second.
    read_throughput: f64,
    write_throughput: f64,
}

impl BackendModel {
    /// The calibration for `kind`.
    ///
    /// Calibrated so the evaluation workload (checkpoint objects of tens of
    /// MB to ~2 GB) reproduces Fig. 11's envelope on S3: p99 read ≈ 3.95 s
    /// and p99 write ≈ 7.07 s.
    pub fn new(kind: BackendKind) -> Self {
        match kind {
            BackendKind::Redis => BackendModel {
                kind,
                read_base: LogNormal::from_quantiles(0.5, 0.000_5, 0.99, 0.003),
                write_base: LogNormal::from_quantiles(0.5, 0.000_7, 0.99, 0.004),
                read_throughput: 1.8e9,
                write_throughput: 1.2e9,
            },
            BackendKind::S3 => BackendModel {
                kind,
                read_base: LogNormal::from_quantiles(0.5, 0.030, 0.99, 0.180),
                write_base: LogNormal::from_quantiles(0.5, 0.045, 0.99, 0.250),
                read_throughput: 5.2e8,
                write_throughput: 2.9e8,
            },
            BackendKind::Hdfs => BackendModel {
                kind,
                read_base: LogNormal::from_quantiles(0.5, 0.008, 0.99, 0.060),
                write_base: LogNormal::from_quantiles(0.5, 0.012, 0.99, 0.090),
                read_throughput: 9.0e8,
                write_throughput: 4.5e8,
            },
        }
    }

    /// The backend kind.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// Samples the latency of reading `size_bytes`.
    pub fn read_latency(&self, size_bytes: u64, rng: &mut SimRng) -> SimTime {
        let base = self.read_base.sample(rng);
        let transfer = u64_to_f64(size_bytes) / self.read_throughput;
        // Transfer jitter: ±20% log-normal-ish via a second base draw scale.
        let jitter = 0.9 + 0.2 * rng.next_f64();
        SimTime::from_secs_f64(base + transfer * jitter)
    }

    /// Samples the latency of writing `size_bytes`.
    pub fn write_latency(&self, size_bytes: u64, rng: &mut SimRng) -> SimTime {
        let base = self.write_base.sample(rng);
        let transfer = u64_to_f64(size_bytes) / self.write_throughput;
        let jitter = 0.9 + 0.2 * rng.next_f64();
        SimTime::from_secs_f64(base + transfer * jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p99(mut v: Vec<f64>) -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[(v.len() as f64 * 0.99) as usize]
    }

    #[test]
    fn redis_is_fastest_s3_slowest_on_base_latency() {
        let mut rng = SimRng::seed(1);
        let small = 1_000u64; // latency-dominated
        let mut med = |kind| {
            let model = BackendModel::new(kind);
            let mut v: Vec<f64> = (0..999)
                .map(|_| model.read_latency(small, &mut rng).as_secs_f64())
                .collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let redis = med(BackendKind::Redis);
        let hdfs = med(BackendKind::Hdfs);
        let s3 = med(BackendKind::S3);
        assert!(
            redis < hdfs && hdfs < s3,
            "redis {redis} hdfs {hdfs} s3 {s3}"
        );
    }

    #[test]
    fn s3_latency_envelope_matches_fig11() {
        // Checkpoint objects in the evaluation: 50 MB – 1.6 GB mix.
        let model = BackendModel::new(BackendKind::S3);
        let mut rng = SimRng::seed(2);
        let sizes: Vec<u64> = (0..4000)
            .map(|_| 50_000_000 + rng.below(1_550_000_000))
            .collect();
        let reads: Vec<f64> = sizes
            .iter()
            .map(|&s| model.read_latency(s, &mut rng).as_secs_f64())
            .collect();
        let writes: Vec<f64> = sizes
            .iter()
            .map(|&s| model.write_latency(s, &mut rng).as_secs_f64())
            .collect();
        let r99 = p99(reads);
        let w99 = p99(writes);
        // Paper: 99% of reads ≤ ~3.95 s, writes ≤ ~7.07 s.
        assert!((2.5..5.5).contains(&r99), "read p99 {r99:.2}");
        assert!((4.5..9.5).contains(&w99), "write p99 {w99:.2}");
        assert!(w99 > r99, "writes slower than reads");
    }

    #[test]
    fn latency_scales_with_size() {
        let model = BackendModel::new(BackendKind::S3);
        let mut rng = SimRng::seed(3);
        let small: f64 = (0..200)
            .map(|_| model.read_latency(1_000_000, &mut rng).as_secs_f64())
            .sum();
        let large: f64 = (0..200)
            .map(|_| model.read_latency(1_000_000_000, &mut rng).as_secs_f64())
            .sum();
        assert!(large > 10.0 * small);
    }

    /// What `read_latency` and `write_latency` computed before the size
    /// converted through `i64`: the plain cast.
    fn latency_by_cast(
        model: &BackendModel,
        write: bool,
        size_bytes: u64,
        rng: &mut SimRng,
    ) -> SimTime {
        let (base, throughput) = if write {
            (model.write_base.sample(rng), model.write_throughput)
        } else {
            (model.read_base.sample(rng), model.read_throughput)
        };
        let transfer = size_bytes as f64 / throughput;
        let jitter = 0.9 + 0.2 * rng.next_f64();
        SimTime::from_secs_f64(base + transfer * jitter)
    }

    #[test]
    fn latencies_match_the_cast_sizes_bit_for_bit() {
        let mut sizes = SimRng::seed(41);
        for kind in [BackendKind::Redis, BackendKind::S3, BackendKind::Hdfs] {
            let model = BackendModel::new(kind);
            let (mut rng, mut reference) = (SimRng::seed(43), SimRng::seed(43));
            for i in 0..20_000u64 {
                // Sizes at every magnitude, half of the uniform ones at or
                // above 2^63 (where the latency saturates).
                let size = match i % 3 {
                    0 => sizes.next_u64(),
                    1 => sizes.next_u64() >> sizes.below(64),
                    _ => sizes.below(2_000_000_000),
                };
                let write = i % 2 == 0;
                let fast = if write {
                    model.write_latency(size, &mut rng)
                } else {
                    model.read_latency(size, &mut rng)
                };
                assert_eq!(
                    fast,
                    latency_by_cast(&model, write, size, &mut reference),
                    "{kind} {size}"
                );
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(BackendKind::Redis.to_string(), "redis");
        assert_eq!(BackendKind::S3.to_string(), "s3");
        assert_eq!(BackendKind::Hdfs.to_string(), "hdfs");
    }
}
