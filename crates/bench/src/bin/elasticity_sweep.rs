//! Elasticity control-plane comparison: runs NotebookOS under all three
//! elasticity policies (threshold / shape-aware / hysteresis) across the
//! three stress scenarios they were built for — flash-crowd arrivals,
//! diurnal arrivals, and a heterogeneous host fleet — and reports
//! per-policy cost/latency aggregates with 95 % CIs: 45 runs at excerpt
//! scale, ≈0.27 s on two cores in one process, JSON report included:
//!
//! ```text
//! cargo run --release -p notebookos-bench --bin elasticity_sweep -- \
//!     [--workers N] [--out FILE]
//! ```
//!
//! `--out FILE` names the JSON report of every run's full record
//! (default `results/elasticity/elasticity_sweep.json`); the report is the
//! same bytes whatever `--workers` is.

use notebookos_bench::elastic_config;
use notebookos_bench::sweep_cli::SweepCli;
use notebookos_core::sweep::{Scenario, SweepRun, SweepSpec};
use notebookos_core::{ElasticityKind, PolicyKind};
use notebookos_metrics::Table;

const USAGE: &str = "elasticity_sweep [--workers N] [--out FILE]";

fn main() {
    let mut cli = SweepCli::parse(std::env::args().skip(1), USAGE).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    // Parent directories are created by the engine's atomic writer.
    let out = cli
        .out
        .get_or_insert_with(|| "results/elasticity/elasticity_sweep.json".into())
        .clone();

    // The three stress patterns at excerpt scale (§5.2's 17.5-hour
    // window).
    let scenarios = vec![
        Scenario::flash_crowd(),
        Scenario::diurnal(),
        Scenario::heterogeneous_hosts(),
    ];
    let spec = SweepSpec::new()
        .policies(vec![PolicyKind::NotebookOs])
        .all_elasticities()
        .seeds((0..5).map(|i| 2026 + i).collect())
        .scenarios(scenarios.clone())
        .configure(elastic_config);
    eprintln!(
        "elasticity_sweep: {} runs ({} scenarios x {} elasticities x {} seeds)",
        scenarios.len() * ElasticityKind::ALL.len() * spec.seeds.len(),
        scenarios.len(),
        ElasticityKind::ALL.len(),
        spec.seeds.len()
    );
    let report = cli
        .execute(&spec, "elasticity_sweep")
        .unwrap_or_else(|err| {
            eprintln!("elasticity_sweep: {err}");
            std::process::exit(1);
        });

    println!("per-run records: {} ({} runs)", out.display(), report.len());

    for scenario in &scenarios {
        let mut table = Table::new(
            format!("NotebookOS elasticity policies — {}", scenario.name),
            &[
                "elasticity",
                "interactivity p50 (ms)",
                "provider cost ($)",
                "GPU-h saved",
                "scale-outs",
                "scale-ins",
                "shapes",
            ],
        );
        for kind in ElasticityKind::ALL {
            let in_cell = |r: &SweepRun| r.scenario == scenario.name && r.elasticity == kind;
            let Some(agg) = report.aggregate(in_cell) else {
                continue;
            };
            let shapes = report
                .runs
                .iter()
                .filter(|r| in_cell(r))
                .map(|r| r.metrics.distinct_shapes_provisioned())
                .max()
                .unwrap_or(0);
            table.row_owned(vec![
                kind.to_string(),
                format!(
                    "{:.1} ± {:.1}",
                    agg.interactivity_p50_ms.mean,
                    agg.interactivity_p50_ms.hi() - agg.interactivity_p50_ms.mean
                ),
                format!("{:.2}", agg.provider_cost_usd.mean),
                format!("{:.1}", agg.gpu_hours_saved.mean),
                format!("{:.1}", agg.scale_outs.mean),
                format!("{:.1}", agg.scale_ins.mean),
                format!("{shapes}"),
            ]);
        }
        println!("{table}");
    }

    // Control-plane sanity the CI run enforces: the shape-aware
    // policy must actually diversify on the heterogeneous fleet.
    let diversified = report.runs.iter().any(|r| {
        r.scenario == "heterogeneous-hosts"
            && r.elasticity == ElasticityKind::ShapeAware
            && r.metrics.distinct_shapes_provisioned() >= 2
    });
    let reconciled = report
        .runs
        .iter()
        .any(|r| r.metrics.counters.prewarms_reconciled > 0);
    assert!(
        reconciled,
        "prewarm reconcile loop never fired across the sweep"
    );
    assert!(
        diversified,
        "shape-aware stayed monoculture on the heterogeneous fleet"
    );
}
