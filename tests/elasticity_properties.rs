//! Auto-scaler invariants: golden bit-identity of the threshold
//! controller against the pre-refactor platform, and the `min_hosts`
//! floor.

use notebookos::cluster::ResourceBundle;
use notebookos::core::{Platform, PlatformConfig, PolicyKind, RunMetrics};
use notebookos::metrics::Cdf;
use notebookos::trace::{generate, ArrivalPattern, SyntheticConfig};

// ---------------------------------------------------------------------
// Golden bit-identity: the Threshold elasticity policy reproduces the
// pre-refactor platform exactly on homogeneous fleets. The constants
// below were captured by running the platform at commit 1d05edf (before
// the elasticity extraction); every value — counters, virtual end time,
// final billing — must match bit for bit. The medians there were read
// from every sample; the histogram CDF now estimates them, so each is
// pinned bit for bit as the histogram reads it *and* held within
// `Cdf::RELATIVE_ERROR` of the exact 1d05edf median.
// ---------------------------------------------------------------------

struct Golden {
    executions: u64,
    immediate_commits: u64,
    kernel_creations: u64,
    scale_outs: u64,
    scale_ins: u64,
    cold_starts: u64,
    warm_hits: u64,
    prewarms_discarded: u64,
    end_s: f64,
    /// `(histogram estimate, exact median at 1d05edf)`.
    interactivity_p50_ms: (f64, f64),
    /// `(histogram estimate, exact median at 1d05edf)`.
    tct_p50_ms: (f64, f64),
    cost_usd: f64,
    revenue_usd: f64,
}

fn assert_golden(label: &str, mut m: RunMetrics, golden: &Golden) {
    assert_eq!(
        m.counters.executions, golden.executions,
        "{label} executions"
    );
    assert_eq!(
        m.counters.immediate_commits, golden.immediate_commits,
        "{label} immediate commits"
    );
    assert_eq!(
        m.counters.kernel_creations, golden.kernel_creations,
        "{label} kernel creations"
    );
    assert_eq!(
        m.counters.scale_outs, golden.scale_outs,
        "{label} scale-outs"
    );
    assert_eq!(m.counters.scale_ins, golden.scale_ins, "{label} scale-ins");
    assert_eq!(
        m.counters.cold_starts, golden.cold_starts,
        "{label} cold starts"
    );
    assert_eq!(m.counters.warm_hits, golden.warm_hits, "{label} warm hits");
    assert_eq!(
        m.counters.prewarms_discarded, golden.prewarms_discarded,
        "{label} prewarms discarded"
    );
    assert_eq!(m.end_s, golden.end_s, "{label} end_s");
    assert_median(
        label,
        "interactivity",
        m.interactivity_ms.percentile(50.0),
        golden.interactivity_p50_ms,
    );
    assert_median(label, "tct", m.tct_ms.percentile(50.0), golden.tct_p50_ms);
    let (cost, revenue) = m.final_billing().expect("billing samples");
    assert_eq!(cost, golden.cost_usd, "{label} provider cost");
    assert_eq!(revenue, golden.revenue_usd, "{label} revenue");
}

/// Latencies are positive, so the percentile bound
/// ε·((1−f)·|x_lo| + f·|x_hi|) is ε times the exact median.
fn assert_median(label: &str, what: &str, got: f64, (estimate, exact): (f64, f64)) {
    assert_eq!(got, estimate, "{label} {what} p50");
    assert!(
        (estimate - exact).abs() <= Cdf::RELATIVE_ERROR * exact,
        "{label} {what} p50 {estimate} is not within ε of the exact {exact}"
    );
}

#[test]
fn threshold_reproduces_pre_refactor_metrics_bit_identically() {
    // NotebookOS on the smoke trace, seed 6 (the deterministic-run seed).
    let mut config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
    config.seed = 6;
    let m = Platform::run(config, generate(&SyntheticConfig::smoke(), 6));
    assert_golden(
        "nbos-smoke-6",
        m,
        &Golden {
            executions: 17,
            immediate_commits: 16,
            kernel_creations: 12,
            scale_outs: 0,
            scale_ins: 4,
            cold_starts: 32,
            warm_hits: 4,
            prewarms_discarded: 4,
            end_s: 7200.0,
            interactivity_p50_ms: (105.25, 105.373),
            tct_p50_ms: (45696.0, 45661.856),
            cost_usd: 80.50000000000003,
            revenue_usd: 34.52926097095486,
        },
    );

    // LCP exercises the prewarm-heavy path (6 containers per host).
    let mut config = PlatformConfig::evaluation(PolicyKind::NotebookOsLcp);
    config.seed = 11;
    let m = Platform::run(config, generate(&SyntheticConfig::smoke(), 11));
    assert_golden(
        "lcp-smoke-11",
        m,
        &Golden {
            executions: 25,
            immediate_commits: 0,
            kernel_creations: 0,
            scale_outs: 0,
            scale_ins: 5,
            cold_starts: 0,
            warm_hits: 25,
            prewarms_discarded: 30,
            end_s: 7200.0,
            interactivity_p50_ms: (1572.0, 1573.713),
            tct_p50_ms: (59776.0, 59706.161),
            cost_usd: 60.749999999999986,
            revenue_usd: 2.3971940065451367,
        },
    );
}

#[test]
fn threshold_reproduces_pre_refactor_scale_out_path_bit_identically() {
    // The config from `notebookos_provisions_fewer_gpu_hours_than_
    // reservation`: a 2-host floor under front-loaded 2-GPU demand, which
    // exercises scale-out (6 of them pre-refactor), scale-in, and the
    // prewarm in-flight accounting in one run.
    let mut config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
    config.seed = 5;
    config.initial_hosts = 2;
    config.autoscale.min_hosts = 2;
    config.autoscale.scaling_buffer_hosts = 0;
    let workload = SyntheticConfig {
        sessions: 40,
        span_s: 4.0 * 3600.0,
        gpu_active_fraction: 0.3,
        long_lived_fraction: 0.95,
        gpu_demand: vec![(2, 1.0)],
        arrival: ArrivalPattern::FrontLoaded,
    };
    let m = Platform::run(config, generate(&workload, 5));
    assert_eq!(
        m.hosts_provisioned_by_shape,
        vec![(ResourceBundle::p3_16xlarge(), 6)],
        "threshold provisions only the reference shape"
    );
    assert_golden(
        "nbos-scaleout-5",
        m,
        &Golden {
            executions: 56,
            immediate_commits: 53,
            kernel_creations: 40,
            scale_outs: 6,
            scale_ins: 4,
            cold_starts: 114,
            warm_hits: 6,
            prewarms_discarded: 2,
            end_s: 14400.0,
            interactivity_p50_ms: (120.75, 120.72149999999999),
            tct_p50_ms: (123392.0, 123310.42749999999),
            cost_usd: 198.3161210722222,
            revenue_usd: 457.29334655098967,
        },
    );
}

// ---------------------------------------------------------------------
// Fleet-floor invariant: whatever the seed, the fleet never drops below
// `min_hosts`.
// ---------------------------------------------------------------------

#[test]
fn fleet_never_drops_below_min_hosts_under_any_elasticity() {
    for seed in [1u64, 2, 3] {
        let mut config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
        config.seed = seed;
        config.initial_hosts = 3;
        config.autoscale.min_hosts = 3;
        config.autoscale.scaling_buffer_hosts = 0;
        let min_gpus = f64::from(config.autoscale.min_hosts * ResourceBundle::p3_16xlarge().gpus);
        let trace = generate(&SyntheticConfig::smoke(), seed);
        let world = Platform::run_for_inspection(config, trace);
        assert!(
            world.cluster().len() >= 3,
            "seed {seed}: final fleet {} < min_hosts",
            world.cluster().len()
        );
        // The provisioned-GPU gauge (total fleet GPUs for NotebookOS)
        // never dips below the floor at any recorded instant.
        for (t, v) in world.metrics().provisioned_gpus.points() {
            assert!(
                v + 1e-9 >= min_gpus,
                "seed {seed}: fleet {v} GPUs at t={t}s below floor"
            );
        }
    }
}
