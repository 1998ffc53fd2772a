//! Aggregated measurements from one platform run — everything the
//! evaluation figures consume.

use notebookos_cluster::ResourceBundle;
use notebookos_metrics::{Cdf, Timeline};

use crate::latency_breakdown::BreakdownRecorder;

/// Cumulative event counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Cell executions completed successfully.
    pub executions: u64,
    /// Cell executions aborted (migration gave up).
    pub aborted: u64,
    /// Executions where GPUs were committed immediately on request arrival
    /// (the paper reports 89.6 % for NotebookOS).
    pub immediate_commits: u64,
    /// Executions served by the same executor replica as the previous one
    /// (paper: 89.45 %).
    pub executor_reuse: u64,
    /// Distributed kernels created.
    pub kernel_creations: u64,
    /// Kernel replica migrations performed.
    pub migrations: u64,
    /// Scale-out operations triggered.
    pub scale_outs: u64,
    /// Scale-in operations performed.
    pub scale_ins: u64,
    /// Cold container starts paid on some critical path.
    pub cold_starts: u64,
    /// Pre-warmed containers consumed.
    pub warm_hits: u64,
    /// Injected replica fail-stop failures recovered from (§3.2.5).
    pub replica_failures: u64,
    /// Pre-warm containers discarded because their host left the cluster
    /// while they were warm or still provisioning (§3.2.3 reconciliation).
    pub prewarms_discarded: u64,
}

impl RunCounters {
    /// Fraction of executions with an immediate GPU commit.
    pub fn immediate_commit_rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.immediate_commits as f64 / self.executions as f64
        }
    }

    /// Fraction of executions reusing the previous executor replica.
    pub fn executor_reuse_rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.executor_reuse as f64 / self.executions as f64
        }
    }
}

/// Full measurement record of one run.
///
/// `PartialEq` compares every collected sample bit-for-bit — the equality
/// the sweep engine's determinism guarantee is stated in: a sweep-produced
/// record equals the one a sequential [`crate::Platform::run`] with the
/// same `(config, trace)` produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Interactivity delay per execution, milliseconds (Fig. 9(a)).
    pub interactivity_ms: Cdf,
    /// Task completion time per execution, milliseconds (Fig. 9(b)).
    pub tct_ms: Cdf,
    /// GPUs provisioned under the policy over time (Fig. 8).
    pub provisioned_gpus: Timeline,
    /// GPUs exclusively committed to running trainings over time.
    pub committed_gpus: Timeline,
    /// GPUs that full-lifetime reservations would hold (the Reservation
    /// curve every policy is compared against).
    pub reserved_gpus: Timeline,
    /// Cluster-wide subscription ratio over time (Fig. 10).
    pub subscription_ratio: Timeline,
    /// Kernel-creation event times, seconds (Fig. 10 markers).
    pub kernel_creation_times_s: Vec<f64>,
    /// Migration event times, seconds (Fig. 10 markers).
    pub migration_times_s: Vec<f64>,
    /// Scale-out event times, seconds (Fig. 10 markers).
    pub scale_out_times_s: Vec<f64>,
    /// Raft small-state synchronization latency, milliseconds (Fig. 11).
    pub sync_ms: Cdf,
    /// Large-object read latency, milliseconds (Fig. 11).
    pub read_ms: Cdf,
    /// Large-object write latency, milliseconds (Fig. 11).
    pub write_ms: Cdf,
    /// Per-step critical-path breakdown (Figs. 16–19).
    pub breakdown: BreakdownRecorder,
    /// `(time_s, provider_cost_usd, revenue_usd)` snapshots (Fig. 12).
    pub billing_samples: Vec<(f64, f64, f64)>,
    /// Event counters.
    pub counters: RunCounters,
    /// Hosts provisioned by scale-out, per shape, sorted by
    /// `(gpus, millicpus, memory_mb)`. Scale-out adds only p3.16xlarge
    /// hosts, so this holds at most that one entry.
    pub hosts_provisioned_by_shape: Vec<(ResourceBundle, u64)>,
    /// Hosts retired by scale-in, per shape; same order as
    /// [`RunMetrics::hosts_provisioned_by_shape`].
    pub hosts_retired_by_shape: Vec<(ResourceBundle, u64)>,
    /// Virtual end time of the run, seconds.
    pub end_s: f64,
}

/// Folds `count` hosts of `shape` into a sorted per-shape counter list.
fn bump_shape(counters: &mut Vec<(ResourceBundle, u64)>, shape: ResourceBundle, count: u64) {
    let key = |b: &ResourceBundle| (b.gpus, b.millicpus, b.memory_mb);
    match counters.binary_search_by_key(&key(&shape), |(s, _)| key(s)) {
        Ok(i) => counters[i].1 += count,
        Err(i) => counters.insert(i, (shape, count)),
    }
}

impl RunMetrics {
    /// Creates an empty record for `policy`.
    pub fn new(policy: &str) -> Self {
        RunMetrics {
            interactivity_ms: Cdf::new(format!("{policy}/interactivity-ms")),
            tct_ms: Cdf::new(format!("{policy}/tct-ms")),
            provisioned_gpus: Timeline::new(format!("{policy}/provisioned-gpus")),
            committed_gpus: Timeline::new(format!("{policy}/committed-gpus")),
            reserved_gpus: Timeline::new(format!("{policy}/reserved-gpus")),
            subscription_ratio: Timeline::new(format!("{policy}/sr")),
            kernel_creation_times_s: Vec::new(),
            migration_times_s: Vec::new(),
            scale_out_times_s: Vec::new(),
            sync_ms: Cdf::new(format!("{policy}/sync-ms")),
            read_ms: Cdf::new(format!("{policy}/read-ms")),
            write_ms: Cdf::new(format!("{policy}/write-ms")),
            breakdown: BreakdownRecorder::new(policy),
            billing_samples: Vec::new(),
            counters: RunCounters::default(),
            hosts_provisioned_by_shape: Vec::new(),
            hosts_retired_by_shape: Vec::new(),
            end_s: 0.0,
        }
    }

    /// Records `count` hosts of `shape` provisioned by scale-out.
    pub fn record_hosts_provisioned(&mut self, shape: ResourceBundle, count: u64) {
        bump_shape(&mut self.hosts_provisioned_by_shape, shape, count);
    }

    /// Records one host of `shape` retired by scale-in.
    pub fn record_host_retired(&mut self, shape: ResourceBundle) {
        bump_shape(&mut self.hosts_retired_by_shape, shape, 1);
    }

    /// GPU-hours provisioned over the run (area under the provisioned
    /// curve).
    pub fn provisioned_gpu_hours(&self) -> f64 {
        self.provisioned_gpus.integral(0.0, self.end_s) / 3600.0
    }

    /// GPU-hours the Reservation policy would have held over the run.
    pub fn reserved_gpu_hours(&self) -> f64 {
        self.reserved_gpus.integral(0.0, self.end_s) / 3600.0
    }

    /// GPU-hours saved relative to Reservation (Fig. 8's green region).
    pub fn gpu_hours_saved_vs_reservation(&self) -> f64 {
        self.reserved_gpu_hours() - self.provisioned_gpu_hours()
    }

    /// Final `(provider_cost, revenue)` from the billing snapshots.
    pub fn final_billing(&self) -> Option<(f64, f64)> {
        self.billing_samples.last().map(|&(_, c, r)| (c, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero() {
        let c = RunCounters::default();
        assert_eq!(c.immediate_commit_rate(), 0.0);
        assert_eq!(c.executor_reuse_rate(), 0.0);
    }

    #[test]
    fn gpu_hours_arithmetic() {
        let mut m = RunMetrics::new("test");
        m.end_s = 7200.0;
        m.provisioned_gpus.set(0.0, 8.0);
        m.reserved_gpus.set(0.0, 24.0);
        assert!((m.provisioned_gpu_hours() - 16.0).abs() < 1e-9);
        assert!((m.reserved_gpu_hours() - 48.0).abs() < 1e-9);
        assert!((m.gpu_hours_saved_vs_reservation() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn shape_counters_accumulate_sorted() {
        let mut m = RunMetrics::new("test");
        let big = ResourceBundle::p3_16xlarge();
        let small = ResourceBundle::new(32_000, 249_856, 4);
        m.record_hosts_provisioned(big, 2);
        m.record_hosts_provisioned(small, 1);
        m.record_hosts_provisioned(big, 3);
        assert_eq!(
            m.hosts_provisioned_by_shape,
            vec![(small, 1), (big, 5)],
            "sorted by gpus, counts folded"
        );
        m.record_host_retired(small);
        m.record_host_retired(small);
        assert_eq!(m.hosts_retired_by_shape, vec![(small, 2)]);
    }

    #[test]
    fn final_billing_takes_last_sample() {
        let mut m = RunMetrics::new("test");
        assert!(m.final_billing().is_none());
        m.billing_samples.push((10.0, 1.0, 2.0));
        m.billing_samples.push((20.0, 3.0, 4.0));
        assert_eq!(m.final_billing(), Some((3.0, 4.0)));
    }
}
