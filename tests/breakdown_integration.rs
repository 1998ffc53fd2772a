//! Integration checks for the Figs. 16–19 critical-path breakdown: each
//! policy's per-step latency distribution must reproduce the appendix's
//! structure.

use notebookos::core::{Platform, PlatformConfig, PolicyKind, Step};
use notebookos::trace::{generate, ArrivalPattern, SyntheticConfig};

fn run(policy: PolicyKind) -> notebookos::core::RunMetrics {
    let config = SyntheticConfig {
        sessions: 30,
        span_s: 5.0 * 3600.0,
        gpu_active_fraction: 0.6,
        long_lived_fraction: 0.95,
        gpu_demand: vec![(1, 0.6), (2, 0.4)],
        arrival: ArrivalPattern::FrontLoaded,
    };
    Platform::run(PlatformConfig::evaluation(policy), generate(&config, 909))
}

#[test]
fn execute_step_dominates_reservation_and_notebookos() {
    for policy in [PolicyKind::Reservation, PolicyKind::NotebookOs] {
        let m = run(policy);
        let mut exec = m.breakdown.step_cdf(Step::Execute).clone();
        let exec_p50 = exec.percentile(50.0);
        for step in [
            Step::GlobalSchedulerRequest,
            Step::KernelPreprocess,
            Step::IntermediaryInterval,
        ] {
            let cdf = m.breakdown.step_cdf(step);
            if cdf.is_empty() {
                continue;
            }
            let mut cdf = cdf.clone();
            assert!(
                cdf.percentile(50.0) < exec_p50 / 10.0,
                "{policy}: {} not dominated by execution",
                step.label()
            );
        }
    }
}

#[test]
fn batch_pays_in_global_scheduler_step() {
    // Fig. 17: Batch's step 1 carries queuing + cold container time.
    let m = run(PolicyKind::Batch);
    let mut gs = m.breakdown.step_cdf(Step::GlobalSchedulerRequest).clone();
    assert!(
        gs.percentile(50.0) > 10_000.0,
        "Batch GS step p50 {} ms should be tens of seconds",
        gs.percentile(50.0)
    );
    // And its post-processing (write-back) is on the critical path.
    let mut post = m.breakdown.step_cdf(Step::KernelPostprocess).clone();
    assert!(post.percentile(50.0) > 100.0, "write-back visible");
}

#[test]
fn only_notebookos_runs_the_election_step() {
    // Fig. 15: step 6 "only occurs while using NotebookOS".
    let nbos = run(PolicyKind::NotebookOs);
    assert!(
        !nbos
            .breakdown
            .step_cdf(Step::PrimaryReplicaProtocol)
            .is_empty(),
        "NotebookOS records the election step"
    );
    for policy in [
        PolicyKind::Reservation,
        PolicyKind::Batch,
        PolicyKind::NotebookOsLcp,
    ] {
        let m = run(policy);
        assert_eq!(
            m.breakdown.step_cdf(Step::PrimaryReplicaProtocol).len(),
            0,
            "{policy} must not run executor elections"
        );
    }
}

#[test]
fn election_step_is_tens_of_milliseconds() {
    let m = run(PolicyKind::NotebookOs);
    let mut election = m.breakdown.step_cdf(Step::PrimaryReplicaProtocol).clone();
    // Bypassed designations contribute zeros; the elected tail is tens of
    // milliseconds ("does not contribute significantly to the overall
    // end-to-end latency", §E).
    assert!(election.percentile(99.0) < 1_000.0);
    assert!(election.max() > 1.0, "some contested elections happened");
}

#[test]
fn every_completed_execution_appears_in_the_breakdown() {
    for policy in PolicyKind::ALL {
        let m = run(policy);
        assert_eq!(
            m.breakdown.end_to_end_cdf().len() as u64,
            m.counters.executions,
            "{policy}: one E2E sample per completed execution"
        );
        // Aborted cells never reach execution, so step 8's sample count
        // equals completed executions exactly.
        assert_eq!(
            m.breakdown.step_cdf(Step::Execute).len() as u64,
            m.counters.executions,
            "{policy}: execute step count"
        );
    }
}
