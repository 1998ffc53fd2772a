//! The NotebookOS perf ledger: six fixed-work workloads over `Platform`,
//! `LiveGateway` and `RaftNode`, measured end to end (tracing off) and
//! layer by layer (tracing on) from outside the library crates.
//! `README.md` beside this crate says what each workload and metric is for.

mod harness;
mod inputs;
mod probes;
mod raft;
mod report;
mod serve;
mod sim;
mod span;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::Opts;
use inputs::{ServeKind, SimKind};
use notebookos_jupyter::Json;
use report::{Manifest, Outcome};

/// The six workloads, in ledger order.
const WORKLOADS: [&str; 6] = [
    "sim-summer",
    "sim-fleet",
    "serve-small",
    "serve-large",
    "raft-mem",
    "raft-wal",
];

const USAGE: &str = "\
usage: notebookos-benchmark --workload <name>|all [--seed N] [--seconds S]
                            [--trace 0|1] [--smoke] [--out FILE]
       notebookos-benchmark --compare A.json B.json

workloads: sim-summer sim-fleet serve-small serve-large raft-mem raft-wal
           (all: each in a process of its own, so that each one's peak
           memory is its own)
--seconds S   pass wall to accumulate per workload (default 15)
--trace 1     the per-layer run: spans and probes, same inputs
--smoke       every workload at 1/50 size, one pass
--out FILE    also write every run's metrics to FILE (input of --compare)
--compare     B against baseline A: end-to-end metrics within the bounds of
              BENCHMARK.json, exact counts of traced runs of one seed no
              worse, nothing missing, incorrect or failing more
Every run first checks that BENCHMARK.json names exactly the metrics and
workloads printed. The last line printed for a workload is its result as one
JSON object.";

/// The manifest this binary was built beside.
const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

#[derive(Debug)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 15.0,
        traced: false,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds >= 0.0 && cli.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".to_string());
                }
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(value()?.into()),
            "--compare" => cli.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.workload.is_none() && cli.compare.is_none() {
        return Err("one of --workload or --compare is required".to_string());
    }
    if let Some(w) = &cli.workload {
        if w != "all" && !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    Ok(cli)
}

fn run_workload(name: &'static str, traced: bool, opts: &Opts) -> Outcome {
    let mut outcome = match name {
        "sim-summer" => sim::run(SimKind::Summer, name, traced, opts),
        "sim-fleet" => sim::run(SimKind::Fleet, name, traced, opts),
        "serve-small" => serve::run(ServeKind::Small, name, traced, opts),
        "serve-large" => serve::run(ServeKind::Large, name, traced, opts),
        "raft-mem" => raft::run(false, name, traced, opts),
        "raft-wal" => raft::run(true, name, traced, opts),
        _ => unreachable!("parse_cli admits only names in WORKLOADS"),
    };
    if outcome.attempted == 0 {
        outcome.violate("no operation was attempted");
    }
    outcome
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn read_manifest() -> Result<Manifest, String> {
    Manifest::parse(&read(Path::new(MANIFEST))?).map_err(|e| format!("{MANIFEST}: {e}"))
}

fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let rows = report::compare(&read(a)?, &read(b)?, &read_manifest()?)?;
    if rows.is_empty() {
        return Err("the first file has no run to compare".to_string());
    }
    println!(
        "{:<12} {:<36} {:>16} {:>16} {:>9} {:>6}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let mut within = true;
    for row in &rows {
        let verdict = if row.beyond_bound() {
            "  BEYOND BOUND"
        } else {
            ""
        };
        println!(
            "{:<12} {:<36} {:>16.6} {:>16.6} {:>+9.4} {:>6.2}{verdict}",
            row.workload, row.metric, row.a, row.b, row.worse_by, row.bound
        );
        within &= !row.beyond_bound();
    }
    Ok(within)
}

/// `--workload all`: each workload in a child process of its own, because
/// `peak_rss_mb` is the process's high-water mark and would otherwise be
/// the largest earlier workload's. Children print as they go; with `--out`
/// each writes its record beside the traces and the records are gathered.
fn run_all(cli: &Cli, out_dir: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut ok = true;
    let mut records = Vec::new();
    for name in WORKLOADS {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", name, "--seed", &cli.seed.to_string()]);
        child.args(["--seconds", &cli.seconds.to_string()]);
        child.args(["--trace", if cli.traced { "1" } else { "0" }]);
        if cli.smoke {
            child.arg("--smoke");
        }
        let record = out_dir.join(format!("run-{name}.json"));
        if cli.out.is_some() {
            child.arg("--out").arg(&record);
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        ok &= status.success();
        if cli.out.is_some() {
            let doc = Json::parse(&read(&record)?).map_err(|e| format!("{name}: {e}"))?;
            records.extend(
                doc.get("runs")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .to_vec(),
            );
            let _ = std::fs::remove_file(&record);
        }
    }
    if let Some(path) = &cli.out {
        std::fs::write(path, report::out_document(cli.seed, cli.smoke, records))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(ok)
}

fn run(cli: &Cli) -> Result<bool, String> {
    if let Some((a, b)) = &cli.compare {
        return compare(a, b);
    }
    let disagreements = read_manifest()?.disagreements(&WORKLOADS);
    for d in &disagreements {
        println!("MANIFEST: {d}");
    }
    if !disagreements.is_empty() {
        return Ok(false);
    }
    let opts = Opts {
        seed: cli.seed,
        seconds: if cli.smoke { 0.0 } else { cli.seconds },
        smoke: cli.smoke,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let name = match cli.workload.as_deref() {
        Some("all") | None => return run_all(cli, &opts.out_dir),
        Some(selected) => WORKLOADS
            .into_iter()
            .find(|&name| name == selected)
            .expect("parse_cli admits only names in WORKLOADS"),
    };
    let outcome = run_workload(name, cli.traced, &opts);
    outcome.print_table();
    if let Some(path) = &cli.out {
        let document = report::out_document(cli.seed, cli.smoke, vec![outcome.record_json()]);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        std::fs::write(path, document)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse_cli(&args(
            "--workload raft-wal --seed 42 --seconds 10 --trace 1",
        ))
        .expect("parses");
        assert_eq!(cli.workload.as_deref(), Some("raft-wal"));
        assert_eq!((cli.seed, cli.seconds, cli.traced), (42, 10.0, true));
        let cli = parse_cli(&args("--workload all --smoke --out x.json")).expect("parses");
        assert!(cli.smoke && !cli.traced && cli.out.is_some());
        let cli = parse_cli(&args("--compare a.json b.json")).expect("parses");
        assert!(cli.compare.is_some());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "",
            "--workload nope",
            "--workload sim-fleet --trace 2",
            "--workload sim-fleet --seed x",
            "--workload sim-fleet --seconds -1",
            "--workload",
            "--compare a.json",
            "--workload all --traced",
            "--workload all --manifest BENCHMARK.json",
            "--frobnicate",
        ] {
            assert!(
                parse_cli(&args(line)).is_err(),
                "`{line}` should be refused"
            );
        }
    }
}
