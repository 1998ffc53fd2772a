//! `--workload all` against the workloads run one by one. `peak_rss_mb` is
//! the process's high-water mark, which never falls: were `all` one process,
//! every workload after `sim-summer` would report `sim-summer`'s peak, and the
//! memory bound would be blind on five workloads of six.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use notebookos_jupyter::Json;

/// Runs the benchmark at smoke size and returns `workload → peak_rss_mb`
/// from the file it wrote.
fn peaks(workload: &str, out: &Path) -> BTreeMap<String, f64> {
    let status = Command::new(env!("CARGO_BIN_EXE_notebookos-benchmark"))
        .args(["--workload", workload, "--smoke", "--trace", "0", "--out"])
        .arg(out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("the benchmark starts");
    assert!(status.success(), "--workload {workload} failed");
    let source = std::fs::read_to_string(out).expect("--out was written");
    let _ = std::fs::remove_file(out);
    let document = Json::parse(&source).expect("--out is JSON");
    let runs = document.get("runs").and_then(Json::as_arr).expect("runs");
    runs.iter()
        .map(|run| {
            let name = run.get("workload").and_then(Json::as_str).expect("name");
            let peak = run
                .get("metrics")
                .and_then(|m| m.get("peak_rss_mb"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .expect("peak_rss_mb");
            (name.to_string(), peak)
        })
        .collect()
}

#[test]
fn under_all_each_workload_reports_its_own_peak_memory() {
    let out = |tag: &str| -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}.json", std::process::id()))
    };
    let all = peaks("all", &out("all"));
    assert_eq!(all.len(), 6, "one record per workload: {all:?}");
    // `sim-summer` runs first and is the largest even at smoke size; the
    // workloads after it are measured alone for comparison.
    for workload in ["serve-small", "raft-mem"] {
        let alone = peaks(workload, &out(workload))[workload];
        let under_all = all[workload];
        assert!(
            (under_all - alone).abs() <= 0.15 * alone,
            "{workload}: {under_all} MiB under `all`, {alone} MiB alone"
        );
        assert!(
            under_all < 0.8 * all["sim-summer"],
            "{workload} reports sim-summer's peak: {all:?}"
        );
    }
}
