//! The sweep engine end to end: a matrix of policies × seeds × workload
//! scenarios — the calibrated excerpt, a flash-crowd arrival burst, and a
//! heterogeneous-GPU fleet — executed on a worker pool, then aggregated
//! into means with 95 % confidence intervals.
//!
//! ```text
//! cargo run --release --example scenario_sweep
//! ```

use notebookos::core::sweep::{Scenario, SweepSpec};
use notebookos::core::PolicyKind;
use notebookos::metrics::Table;
use notebookos::trace::{ArrivalPattern, SyntheticConfig};

fn main() {
    // Compact variants of the bundled scenarios so the example runs in
    // seconds; drop the overrides for evaluation-scale numbers.
    let compact = SyntheticConfig {
        sessions: 24,
        span_s: 3.0 * 3600.0,
        ..SyntheticConfig::excerpt_17_5h()
    };
    let flash = SyntheticConfig {
        arrival: ArrivalPattern::FlashCrowd {
            waves: 3,
            wave_width_s: 300.0,
        },
        ..compact.clone()
    };
    let scenarios = vec![
        Scenario::new("steady", compact.clone()),
        Scenario::new("flash-crowd", flash),
        Scenario::new("mixed-fleet", compact)
            .with_host_mix(Scenario::heterogeneous_hosts().host_mix),
    ];

    let policies = [PolicyKind::NotebookOs, PolicyKind::NotebookOsLcp];
    let spec = SweepSpec::new()
        .policies(policies.to_vec())
        .seeds(vec![1, 2, 3])
        .scenarios(scenarios.clone());
    println!(
        "sweep: {} runs (2 policies × 3 seeds × 3 scenarios)",
        spec.jobs().len()
    );
    let report = spec.run();

    let mut table = Table::new(
        "scenario × policy aggregates (mean ± 95% CI over 3 seeds)",
        &[
            "scenario",
            "policy",
            "delay p50 (ms)",
            "migrations",
            "executions",
        ],
    );
    for scenario in &scenarios {
        for policy in policies {
            let agg = report
                .aggregate(|run| run.scenario == scenario.name && run.policy == policy)
                .expect("the sweep ran every cell");
            table.row_owned(vec![
                scenario.name.clone(),
                policy.to_string(),
                agg.interactivity_p50_ms.to_string(),
                agg.migrations.to_string(),
                agg.executions.to_string(),
            ]);
        }
    }
    println!("{table}");
    println!(
        "Flash crowds concentrate kernel creations into bursts (more\n\
         scale-out pressure), and the mixed fleet shows placement policies\n\
         coping with 4-GPU boxes next to 8-GPU trainers."
    );
}
