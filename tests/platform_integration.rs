//! Cross-crate integration tests: the full platform over calibrated
//! workloads, checking the paper's qualitative results end to end.

use notebookos::core::{Platform, PlatformConfig, PolicyKind};
use notebookos::trace::{generate, ArrivalPattern, SyntheticConfig, WorkloadTrace};

/// A quarter-scale evaluation workload that keeps debug-mode test time low
/// while preserving the excerpt's shape.
fn eval_trace() -> WorkloadTrace {
    let config = SyntheticConfig {
        sessions: 40,
        span_s: 6.0 * 3600.0,
        gpu_active_fraction: 0.55,
        long_lived_fraction: 0.96,
        gpu_demand: vec![(1, 0.60), (2, 0.20), (4, 0.12), (8, 0.08)],
        arrival: ArrivalPattern::FrontLoaded,
    };
    generate(&config, 1234)
}

fn run(policy: PolicyKind, trace: &WorkloadTrace) -> notebookos::core::RunMetrics {
    Platform::run(PlatformConfig::evaluation(policy), trace.clone())
}

#[test]
fn every_policy_executes_every_cell() {
    let trace = eval_trace();
    let total = trace.total_events() as u64;
    assert!(total > 100, "trace has enough events: {total}");
    for policy in PolicyKind::ALL {
        let m = run(policy, &trace);
        assert_eq!(
            m.counters.executions + m.counters.aborted,
            total,
            "{policy} must account for every submitted cell"
        );
        assert!(
            m.counters.aborted * 20 <= total,
            "{policy} aborted too many cells: {}",
            m.counters.aborted
        );
    }
}

#[test]
fn interactivity_ordering_matches_fig9a() {
    // Fig. 9(a): Reservation ≈ NotebookOS ≪ LCP ≪ Batch at the median.
    let trace = eval_trace();
    let mut res = run(PolicyKind::Reservation, &trace);
    let mut nbos = run(PolicyKind::NotebookOs, &trace);
    let mut lcp = run(PolicyKind::NotebookOsLcp, &trace);
    let mut batch = run(PolicyKind::Batch, &trace);

    let p50 = |m: &mut notebookos::core::RunMetrics| m.interactivity_ms.percentile(50.0);
    let (r, n, l, b) = (
        p50(&mut res),
        p50(&mut nbos),
        p50(&mut lcp),
        p50(&mut batch),
    );
    assert!(
        n < 4.0 * r + 500.0,
        "NotebookOS ({n} ms) ~ Reservation ({r} ms)"
    );
    assert!(l > 3.0 * n, "LCP ({l} ms) well above NotebookOS ({n} ms)");
    assert!(b > 2.0 * l, "Batch ({b} ms) well above LCP ({l} ms)");
    assert!(b > 10_000.0, "Batch pays cold starts: {b} ms");
}

#[test]
fn tct_ordering_matches_fig9b() {
    // Fig. 9(b): NotebookOS ≈ Reservation; Batch highest.
    let trace = eval_trace();
    let mut res = run(PolicyKind::Reservation, &trace);
    let mut nbos = run(PolicyKind::NotebookOs, &trace);
    let mut batch = run(PolicyKind::Batch, &trace);
    let res50 = res.tct_ms.percentile(50.0);
    let nbos50 = nbos.tct_ms.percentile(50.0);
    let batch50 = batch.tct_ms.percentile(50.0);
    assert!(
        (nbos50 - res50).abs() / res50 < 0.25,
        "NotebookOS TCT {nbos50} within 25% of Reservation {res50}"
    );
    assert!(
        batch50 > nbos50,
        "Batch TCT {batch50} > NotebookOS {nbos50}"
    );
}

#[test]
fn provisioned_gpu_ordering_matches_fig8() {
    // Fig. 8: Batch < LCP < NotebookOS < Reservation in GPU-hours.
    let trace = eval_trace();
    let span = trace.span_s();
    let hours = |m: &notebookos::core::RunMetrics| m.provisioned_gpus.integral(0.0, span) / 3600.0;
    let res = hours(&run(PolicyKind::Reservation, &trace));
    let batch = hours(&run(PolicyKind::Batch, &trace));
    let nbos = hours(&run(PolicyKind::NotebookOs, &trace));
    let lcp = hours(&run(PolicyKind::NotebookOsLcp, &trace));
    assert!(batch < lcp, "batch {batch} < lcp {lcp}");
    assert!(lcp < nbos, "lcp {lcp} < nbos {nbos}");
    assert!(nbos < res, "nbos {nbos} < reservation {res}");
}

#[test]
fn notebookos_headline_rates() {
    let trace = eval_trace();
    let m = run(PolicyKind::NotebookOs, &trace);
    let immediate = m.counters.immediate_commit_rate();
    assert!(
        (0.80..=1.0).contains(&immediate),
        "immediate-commit rate {immediate} near the paper's 89.6%"
    );
    let reuse = m.counters.executor_reuse_rate();
    assert!(
        reuse > 0.75,
        "executor reuse {reuse} near the paper's 89.45%"
    );
    assert_eq!(m.counters.kernel_creations as usize, trace.sessions.len());
}

#[test]
fn committed_never_exceeds_provisioned_capacity() {
    let trace = eval_trace();
    for policy in [PolicyKind::NotebookOs, PolicyKind::NotebookOsLcp] {
        let m = run(policy, &trace);
        for (t, committed) in m.committed_gpus.points() {
            let capacity = m.provisioned_gpus.value_at(t);
            assert!(
                committed <= capacity + 1e-9,
                "{policy}: {committed} GPUs committed with only {capacity} provisioned at t={t}"
            );
        }
    }
}

#[test]
fn autoscaler_tracks_demand_up_and_down() {
    // Start under-provisioned so growth is forced.
    let trace = eval_trace();
    let mut config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
    config.initial_hosts = 3;
    config.autoscale.min_hosts = 3;
    let m = Platform::run(config, trace);
    assert!(m.counters.scale_outs > 0, "load growth triggers scale-out");
    let peak = m.provisioned_gpus.max_value();
    let start = m.provisioned_gpus.value_at(0.0);
    assert!(peak > start, "cluster grew from {start} to {peak}");
}

#[test]
fn runs_are_deterministic_across_policies() {
    let trace = eval_trace();
    for policy in PolicyKind::ALL {
        let a = run(policy, &trace);
        let b = run(policy, &trace);
        assert_eq!(a.counters, b.counters, "{policy} deterministic");
        assert_eq!(
            a.final_billing(),
            b.final_billing(),
            "{policy} billing deterministic"
        );
    }
}

#[test]
fn reservation_billing_margin_is_thin() {
    // §5.5.1: users pay 1.15×, so Reservation's margin converges toward
    // ~13% once reservations dominate the fleet.
    let trace = eval_trace();
    let m = run(PolicyKind::Reservation, &trace);
    let (cost, revenue) = m.final_billing().expect("billing samples");
    assert!(cost > 0.0 && revenue > 0.0);
    let margin = (revenue - cost) / revenue;
    assert!(margin < 0.20, "reservation margin {margin} stays thin");
}

#[test]
fn cpu_only_sessions_execute_without_gpus() {
    // §3.2.2 motivates replication even for CPU-only notebooks (session
    // durability). A zero-GPU workload must run under every policy without
    // committing GPUs.
    let config = SyntheticConfig {
        sessions: 10,
        span_s: 2.0 * 3600.0,
        gpu_active_fraction: 1.0,
        long_lived_fraction: 1.0,
        gpu_demand: vec![(0, 1.0)],
        arrival: ArrivalPattern::FrontLoaded,
    };
    let trace = generate(&config, 21);
    let expected = trace.total_events() as u64;
    for policy in PolicyKind::ALL {
        let m = run(policy, &trace);
        assert_eq!(m.counters.executions, expected, "{policy}");
        assert_eq!(
            m.committed_gpus.max_value(),
            0.0,
            "{policy} committed GPUs for CPU-only work"
        );
    }
}

#[test]
fn failure_injection_preserves_throughput_at_scale() {
    let trace = eval_trace();
    let mut config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
    config.replica_mtbf_hours = Some(0.25);
    let m = Platform::run(config, trace.clone());
    assert!(m.counters.replica_failures > 10);
    assert_eq!(
        m.counters.executions + m.counters.aborted,
        trace.total_events() as u64
    );
}
