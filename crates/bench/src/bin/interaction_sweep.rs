//! `placement × elasticity` interaction sweep (ROADMAP: "Elasticity ×
//! placement interaction study").
//!
//! Crossing all four placement policies with all three elasticity policies
//! over the heterogeneous and diurnal stress scenarios shows which pairings
//! compound: 72 runs of 17.5-hour simulations, 0.13–0.2 s on two cores
//! (≈0.33 s with the 6.6 MB `--out` report), in one process:
//!
//! ```text
//! cargo run --release -p notebookos-bench --bin interaction_sweep -- \
//!     [--workers N] [--out FILE]
//! ```
//!
//! `--out FILE` persists every run's full record as JSON; the report is
//! the same bytes whatever `--workers` is (CI `cmp`s a 1-worker and a
//! 2-worker report).

use notebookos_bench::elastic_config;
use notebookos_bench::sweep_cli::SweepCli;
use notebookos_core::sweep::{Scenario, SweepSpec};
use notebookos_core::{ElasticityKind, PlacementKind, PolicyKind};
use notebookos_metrics::Table;

const USAGE: &str = "interaction_sweep [--workers N] [--out FILE]";

/// The interaction matrix: NotebookOS under every placement × elasticity
/// pairing, on the scenarios where the pairings differ most.
fn interaction_spec() -> SweepSpec {
    SweepSpec::new()
        .policies(vec![PolicyKind::NotebookOs])
        .all_placements()
        .all_elasticities()
        .seeds((0..3).map(|i| 2026 + i).collect())
        .scenarios(vec![Scenario::heterogeneous_hosts(), Scenario::diurnal()])
        .configure(elastic_config)
}

fn main() {
    let cli = SweepCli::parse(std::env::args().skip(1), USAGE).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let spec = interaction_spec();
    eprintln!(
        "interaction_sweep: {} interaction cells ({} scenarios x {} placements x {} elasticities x {} seeds)",
        spec.scenarios.len() * PlacementKind::ALL.len() * ElasticityKind::ALL.len() * spec.seeds.len(),
        spec.scenarios.len(),
        PlacementKind::ALL.len(),
        ElasticityKind::ALL.len(),
        spec.seeds.len()
    );
    let report = cli
        .execute(&spec, "interaction_sweep")
        .unwrap_or_else(|err| {
            eprintln!("interaction_sweep: {err}");
            std::process::exit(1);
        });

    for scenario in &spec.scenarios {
        let mut header: Vec<String> = vec!["placement".into()];
        header.extend(
            ElasticityKind::ALL
                .iter()
                .map(|e| format!("{e} p50 (ms) / cost ($)")),
        );
        let mut table = Table::new(
            format!("NotebookOS placement x elasticity — {}", scenario.name),
            &header.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        for placement in PlacementKind::ALL {
            let mut row = vec![placement.to_string()];
            for elasticity in ElasticityKind::ALL {
                let agg = report
                    .aggregate(|r| {
                        r.scenario == scenario.name
                            && r.placement == placement
                            && r.elasticity == elasticity
                    })
                    .expect("the report has every interaction cell");
                row.push(format!(
                    "{:.1} / {:.2}",
                    agg.interactivity_p50_ms.mean, agg.provider_cost_usd.mean
                ));
            }
            table.row_owned(row);
        }
        println!("{table}");
    }

    // Sanity the CI run enforces: every cell executed work, and
    // the interaction actually varies across pairings (a sweep that
    // produced one flat surface would mean an axis is not being stamped
    // through to the platform).
    assert!(
        report
            .runs
            .iter()
            .all(|r| r.metrics.counters.executions > 0),
        "an interaction cell completed no executions"
    );
    let distinct_migration_profiles: std::collections::BTreeSet<u64> = report
        .runs
        .iter()
        .map(|r| r.metrics.counters.migrations)
        .collect();
    assert!(
        distinct_migration_profiles.len() > 1
            || report
                .runs
                .iter()
                .map(|r| r.metrics.counters.scale_outs)
                .collect::<std::collections::BTreeSet<u64>>()
                .len()
                > 1,
        "placement x elasticity surface is completely flat — axis plumbing broke"
    );
    println!(
        "interaction_sweep: {} interaction cells complete",
        report.len()
    );
}
