//! Quickstart: run the NotebookOS platform on a small synthetic IDLT
//! workload and print what the scheduler did.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use notebookos::core::{Platform, PlatformConfig, PolicyKind};
use notebookos::trace::{generate, SyntheticConfig};

fn main() {
    // A compact interactive-training workload: 12 notebook sessions over
    // two hours, AdobeTrace-shaped durations and think times.
    let trace = generate(&SyntheticConfig::smoke(), 42);
    println!(
        "workload: {} sessions, {} training events over {:.1} h",
        trace.sessions.len(),
        trace.total_events(),
        trace.span_s() / 3600.0
    );

    for policy in PolicyKind::ALL {
        let mut metrics = Platform::run(PlatformConfig::evaluation(policy), trace.clone());
        println!(
            "{policy:>16}: {} executions, interactivity p50 {:>9.1} ms, \
             provisioned {:>7.1} GPU-h, migrations {}",
            metrics.counters.executions,
            metrics.interactivity_ms.percentile(50.0),
            metrics.provisioned_gpu_hours(),
            metrics.counters.migrations,
        );
    }

    println!(
        "\nNotebookOS keeps Reservation-class interactivity while binding GPUs\n\
         only during cell execution. At this toy scale its minimum fleet\n\
         dominates the GPU-hour column; at the paper's scale (90 sessions,\n\
         17.5 h — see `cargo run -p notebookos-bench --bin repro fig08`) it saves\n\
         roughly a third of Reservation's GPU-hours."
    );
}
