//! Workload pipeline integration: generated traces through the simulator,
//! plus the Fig. 13 reclamation analysis at scale.

use notebookos::core::{analyze_reclamation, fig13_sweep, Platform, PlatformConfig, PolicyKind};
use notebookos::trace::{generate, ArrivalPattern, SyntheticConfig};

#[test]
fn reclamation_sweep_is_monotone_at_scale() {
    let trace = generate(&SyntheticConfig::excerpt_17_5h(), 99);
    let sweep = fig13_sweep(&trace);
    assert_eq!(sweep.len(), 5);
    for pair in sweep.windows(2) {
        assert!(pair[0].total_gpu_hours_saved >= pair[1].total_gpu_hours_saved);
        assert!(pair[0].reclamations >= pair[1].reclamations);
    }
    // The 15-minute interval must actually reclaim on an IDLT workload
    // whose p90 IAT is 25 minutes.
    assert!(sweep[0].reclamations > 0);
}

#[test]
fn reclamation_savings_scale_with_gpu_count() {
    // The same schedule on more GPUs wastes proportionally more on
    // re-execution.
    let mut small = generate(&SyntheticConfig::smoke(), 5);
    let mut big = small.clone();
    for s in &mut small.sessions {
        s.gpus = 1;
    }
    for s in &mut big.sessions {
        s.gpus = 4;
    }
    let a = analyze_reclamation(&small, 15);
    let b = analyze_reclamation(&big, 15);
    assert_eq!(a.reclamations, b.reclamations);
    if a.total_gpu_hours_saved > 0.0 {
        let ratio = b.total_gpu_hours_saved / a.total_gpu_hours_saved;
        assert!((ratio - 4.0).abs() < 1e-6, "ratio {ratio}");
    }
}

#[test]
fn generated_workloads_respect_published_iat_floor() {
    // §5.4: "The shortest event IAT within the AdobeTrace is 240 seconds."
    let trace = generate(&SyntheticConfig::excerpt_17_5h(), 3);
    let mut iats = trace.iat_cdf("iat");
    if !iats.is_empty() {
        assert!(iats.min() >= 240.0, "min IAT {}", iats.min());
    }
}

#[test]
fn oracle_curve_lower_bounds_every_policy() {
    let config = SyntheticConfig {
        sessions: 25,
        span_s: 4.0 * 3600.0,
        gpu_active_fraction: 0.6,
        long_lived_fraction: 0.95,
        gpu_demand: vec![(1, 0.7), (2, 0.3)],
        arrival: ArrivalPattern::FrontLoaded,
    };
    let trace = generate(&config, 11);
    let span = trace.span_s();
    let oracle_hours = trace.oracle_gpu_timeline().integral(0.0, span) / 3600.0;
    for policy in PolicyKind::ALL {
        let m = Platform::run(PlatformConfig::evaluation(policy), trace.clone());
        let provisioned = m.provisioned_gpus.integral(0.0, span) / 3600.0;
        // Batch commits exactly during training plus provisioning windows,
        // so it can only exceed the oracle; everything else is far above.
        assert!(
            provisioned >= oracle_hours * 0.99,
            "{policy}: provisioned {provisioned} below oracle {oracle_hours}"
        );
    }
}
