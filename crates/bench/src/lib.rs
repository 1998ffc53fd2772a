//! The evaluation harness: the figure table behind the `repro` binary
//! ([`figures`]), the live-service load generator ([`serve`]), the Raft
//! chaos drill ([`chaos`]) and the sweep binaries' shared flags
//! ([`sweep_cli`]).
//!
//! `repro` regenerates every table and figure of the paper's evaluation
//! section in one process, or the ones it is given by name:
//!
//! ```text
//! cargo run --release -p notebookos-bench --bin repro
//! cargo run --release -p notebookos-bench --bin repro fig08
//! ```
//!
//! Performance is measured by the ledger under `benchmark/` (a package of
//! its own), not from this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use notebookos_core::sweep::{self, SweepJob};
use notebookos_core::{PlatformConfig, PolicyKind, RunMetrics};
use notebookos_trace::{generate, SyntheticConfig, WorkloadTrace};

pub mod chaos;
pub mod figures;
pub mod serve;
pub mod sweep_cli;

/// The seed every figure uses, so artifacts are mutually consistent.
pub const EVAL_SEED: u64 = 2026;

/// Base configuration for the elasticity studies (`elasticity_sweep`'s
/// per-policy comparison, `interaction_sweep`'s placement × elasticity
/// interaction): the NotebookOS evaluation setup with the pre-warm
/// reconcile loop enabled (the control plane under test).
pub fn elastic_config(policy: PolicyKind) -> PlatformConfig {
    let mut config = PlatformConfig::evaluation(policy);
    config.autoscale.prewarm_reconcile_interval_s = Some(120.0);
    config
}

/// The 17.5-hour AdobeTrace excerpt (§5.2's prototype workload).
pub fn excerpt_trace() -> WorkloadTrace {
    generate(&SyntheticConfig::excerpt_17_5h(), EVAL_SEED)
}

/// The 90-day summer workload (§5.5's simulation study).
pub fn summer_trace() -> WorkloadTrace {
    generate(&SyntheticConfig::summer_90d(), EVAL_SEED)
}

/// Runs all four policies over a trace (Reservation, Batch, NotebookOS,
/// LCP — the paper's comparison set) in parallel on the sweep engine's
/// worker pool. Per-policy results are identical to sequential
/// [`notebookos_core::Platform::run`] calls with the evaluation
/// configuration; only wall-clock changes.
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

/// Formats a gauge value with zero decimals, normalizing `-0`.
pub fn fmt0(v: f64) -> String {
    let v = if v.abs() < 1e-9 { 0.0 } else { v };
    format!("{v:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use notebookos_core::Platform;

    /// One policy over a trace with the evaluation configuration,
    /// sequentially — the reference [`run_all_policies`] is held to.
    fn run_policy(policy: PolicyKind, trace: &WorkloadTrace) -> RunMetrics {
        let mut config = PlatformConfig::evaluation(policy);
        config.seed = EVAL_SEED;
        Platform::run(config, trace.clone())
    }

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
