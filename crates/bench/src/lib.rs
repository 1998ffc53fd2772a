//! Shared support for the figure-regeneration binaries, plus the
//! live-service load generator ([`serve`]), the Raft chaos drill
//! ([`chaos`]) and the sharded-sweep CLI ([`sweep_cli`]).
//!
//! Each `fig*`/`table*` binary regenerates one evaluation artifact:
//!
//! ```text
//! cargo run --release -p notebookos-bench --bin fig08
//! ```
//!
//! `repro_all` regenerates every artifact, fanning the regenerators out on
//! the sweep engine's worker pool. Performance is measured by the ledger
//! under `benchmark/` (a package of its own), not from this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use notebookos_cluster::ResourceBundle;
use notebookos_core::sweep::{self, Scenario, SweepJob};
use notebookos_core::{Platform, PlatformConfig, PolicyKind, RunMetrics};
use notebookos_trace::{generate, ArrivalPattern, SyntheticConfig, WorkloadTrace};

pub mod chaos;
pub mod serve;
pub mod sweep_cli;

/// The seed every figure uses, so artifacts are mutually consistent.
pub const EVAL_SEED: u64 = 2026;

// ----------------------------------------------------------------------
// Elasticity-study workloads, shared by `elasticity_sweep` (per-policy
// comparison) and `sweep_shard` (placement × elasticity interaction).
// ----------------------------------------------------------------------

/// Base configuration for elasticity studies: the NotebookOS evaluation
/// setup with the pre-warm reconcile loop enabled (the control plane
/// under test).
pub fn elastic_config(policy: PolicyKind) -> PlatformConfig {
    let mut config = PlatformConfig::evaluation(policy);
    config.autoscale.prewarm_reconcile_interval_s = Some(120.0);
    config
}

/// Smoke-mode base configuration: shrinks the fleet floor so
/// quarter-scale workloads still exercise scale-out and scale-in.
pub fn elastic_smoke_config(policy: PolicyKind) -> PlatformConfig {
    let mut config = elastic_config(policy);
    config.initial_hosts = 3;
    config.autoscale.min_hosts = 2;
    config.autoscale.scaling_buffer_hosts = 0;
    config
}

/// CI-speed flash-crowd scenario: the excerpt's burst shape at
/// quarter-scale population and window.
pub fn smoke_flash_crowd() -> Scenario {
    Scenario::new(
        "flash-crowd",
        SyntheticConfig {
            sessions: 18,
            span_s: 3.0 * 3600.0,
            ..SyntheticConfig::flash_crowd_17_5h()
        },
    )
}

/// CI-speed diurnal scenario: hour-long day/night cycles with enough
/// short-lived sessions that the fleet repeatedly grows and shrinks.
pub fn smoke_diurnal() -> Scenario {
    Scenario::new(
        "diurnal",
        SyntheticConfig {
            sessions: 24,
            span_s: 3.0 * 3600.0,
            long_lived_fraction: 0.4,
            arrival: ArrivalPattern::Diurnal {
                period_s: 3600.0,
                peak_to_trough: 4.0,
            },
            ..SyntheticConfig::excerpt_17_5h()
        },
    )
}

/// CI-speed heterogeneous-fleet scenario: mostly-small kernels with an
/// 8-GPU tail on a tiny mixed fleet — tick deficits spill into 4-GPU
/// boxes while 8-GPU shortfalls pull full trainers, the workload both
/// the shape-aware elasticity regression and the placement interaction
/// study lean on.
pub fn smoke_heterogeneous() -> Scenario {
    Scenario::new(
        "heterogeneous-hosts",
        SyntheticConfig {
            sessions: 40,
            span_s: 3.0 * 3600.0,
            gpu_active_fraction: 0.7,
            long_lived_fraction: 0.9,
            gpu_demand: vec![(1, 0.6), (2, 0.25), (8, 0.15)],
            arrival: ArrivalPattern::FlashCrowd {
                waves: 2,
                wave_width_s: 600.0,
            },
            popularity: Default::default(),
        },
    )
    .with_host_mix(vec![
        (ResourceBundle::p3_16xlarge(), 2),
        (ResourceBundle::new(32_000, 249_856, 4), 2),
    ])
}

/// The 17.5-hour AdobeTrace excerpt (§5.2's prototype workload).
pub fn excerpt_trace() -> WorkloadTrace {
    generate(&SyntheticConfig::excerpt_17_5h(), EVAL_SEED)
}

/// The 90-day summer workload (§5.5's simulation study).
pub fn summer_trace() -> WorkloadTrace {
    generate(&SyntheticConfig::summer_90d(), EVAL_SEED)
}

/// Runs one policy over a trace with the evaluation configuration.
pub fn run_policy(policy: PolicyKind, trace: &WorkloadTrace) -> RunMetrics {
    let mut config = PlatformConfig::evaluation(policy);
    config.seed = EVAL_SEED;
    Platform::run(config, trace.clone())
}

/// Runs all four policies over a trace (Reservation, Batch, NotebookOS,
/// LCP — the paper's comparison set) in parallel on the sweep engine's
/// worker pool. Per-policy results are identical to sequential
/// [`run_policy`] calls; only wall-clock changes.
pub fn run_all_policies(trace: &WorkloadTrace) -> Vec<(PolicyKind, RunMetrics)> {
    let shared = std::sync::Arc::new(trace.clone());
    let jobs: Vec<SweepJob> = PolicyKind::ALL
        .iter()
        .map(|&p| {
            SweepJob::new(
                p,
                EVAL_SEED,
                PlatformConfig::evaluation(p),
                std::sync::Arc::clone(&shared),
            )
        })
        .collect();
    let metrics = sweep::run_jobs(jobs, 0);
    PolicyKind::ALL.into_iter().zip(metrics).collect()
}

/// Formats a float for table cells.
pub fn fmt(v: f64) -> String {
    notebookos_metrics::fmt_num(v)
}

/// Formats a gauge value with zero decimals, normalizing `-0`.
pub fn fmt0(v: f64) -> String {
    let v = if v.abs() < 1e-9 { 0.0 } else { v };
    format!("{v:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excerpt_trace_is_reproducible() {
        assert_eq!(excerpt_trace(), excerpt_trace());
        assert!(excerpt_trace().total_events() > 300);
    }

    #[test]
    fn run_policy_produces_metrics() {
        let trace = generate(&SyntheticConfig::smoke(), EVAL_SEED);
        let m = run_policy(PolicyKind::NotebookOs, &trace);
        assert!(m.counters.executions > 0);
    }

    #[test]
    fn parallel_policy_sweep_matches_sequential() {
        let trace = generate(&SyntheticConfig::smoke(), EVAL_SEED);
        for (policy, parallel) in run_all_policies(&trace) {
            assert_eq!(
                parallel,
                run_policy(policy, &trace),
                "{policy}: sweep-produced metrics must be bit-identical"
            );
        }
    }
}
