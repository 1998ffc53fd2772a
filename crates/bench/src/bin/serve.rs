//! Live service mode: serve wall-clock Jupyter wire traffic.
//!
//! Replays a time-compressed AdobeTrace-shaped workload against the
//! [`LiveGateway`](notebookos_core::LiveGateway) under the
//! [`RealTimeScheduler`] — real signed wire messages, real sleeps between
//! event deadlines — and reports sustained sessions, executions/sec, and
//! p50/p99 request latency. `--virtual` runs the identical loop under the
//! [`DesScheduler`] (virtual time, finishes instantly), which is also how
//! the test suite drives it.
//!
//! `--shards N` partitions sessions across N gateway shards (one OS
//! thread, scheduler, and gateway each) sharing a single placement owner
//! thread; the merged report is deterministic, and `--check-against`
//! proves it by comparing the shard-invariant fields and the full
//! latency multiset against a previous run's artifact — CI cross-checks
//! `--shards 4 --virtual` against `--shards 1` this way. `--scale-out`
//! measures the virtual-time throughput curve at 1/2/4/8 shards
//! (`serve_ns_per_exec` plus its coordination decomposition), and
//! `--expect-speedup X` fails the run unless 4 shards beat 1 by X on a
//! box with at least 4 cores. `--skew zipf:THETA` makes the generated
//! tenants Zipfian instead of uniform.
//!
//! Usage:
//!
//! ```text
//! serve [--users N] [--duration SECS] [--hosts N] [--seed N]
//!       [--max-cell-ms N] [--out FILE] [--smoke] [--virtual]
//!       [--shards N] [--check-against FILE] [--skew zipf:THETA]
//!       [--scale-out FILE] [--expect-speedup X]
//! ```
//!
//! `--smoke` is the CI job: a few wall-clock seconds of traffic at small
//! user count, exiting nonzero unless executions completed and the run
//! shut down cleanly.

use std::process::ExitCode;

use notebookos_bench::serve::{
    run_serve, run_serve_sharded, ServeEv, ServeOpts, ServeReport, ShardedServeReport,
};
use notebookos_des::{DesScheduler, RealTimeScheduler, Scheduler, SimTime};
use notebookos_jupyter::Json;

const USAGE: &str = "serve [--users N] [--duration SECS] [--hosts N] [--seed N] \
                     [--max-cell-ms N] [--out FILE] [--smoke] [--virtual] \
                     [--shards N] [--check-against FILE] [--skew zipf:THETA] \
                     [--scale-out FILE] [--expect-speedup X]";

struct Cli {
    opts: ServeOpts,
    smoke: bool,
    virtual_time: bool,
    out: Option<String>,
    shards: usize,
    check_against: Option<String>,
    scale_out: Option<String>,
    expect_speedup: Option<f64>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: ServeOpts::new(8, SimTime::from_secs(10)),
        smoke: false,
        virtual_time: false,
        out: None,
        shards: 1,
        check_against: None,
        scale_out: None,
        expect_speedup: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} takes a value; usage: {USAGE}"))
        };
        let positive = |flag: &str, v: String| {
            v.parse::<u64>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{flag} takes a positive integer; usage: {USAGE}"))
        };
        match arg.as_str() {
            "--users" => cli.opts.users = positive("--users", value("--users")?)? as usize,
            "--duration" => {
                cli.opts.duration =
                    SimTime::from_secs(positive("--duration", value("--duration")?)?);
            }
            "--hosts" => cli.opts.hosts = positive("--hosts", value("--hosts")?)? as usize,
            "--seed" => {
                cli.opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| format!("--seed takes an integer; usage: {USAGE}"))?;
            }
            "--max-cell-ms" => {
                cli.opts.max_cell =
                    SimTime::from_millis(positive("--max-cell-ms", value("--max-cell-ms")?)?);
            }
            "--out" => cli.out = Some(value("--out")?),
            "--smoke" => {
                cli.smoke = true;
                let seed = cli.opts.seed;
                let skew = cli.opts.skew;
                cli.opts = ServeOpts::smoke();
                cli.opts.seed = seed;
                cli.opts.skew = skew;
            }
            "--virtual" => cli.virtual_time = true,
            "--shards" => cli.shards = positive("--shards", value("--shards")?)? as usize,
            "--skew" => {
                let spec = value("--skew")?;
                let theta = spec
                    .strip_prefix("zipf:")
                    .and_then(|t| t.parse::<f64>().ok())
                    .filter(|t| t.is_finite() && *t > 0.0)
                    .ok_or_else(|| {
                        format!("--skew takes `zipf:THETA` with THETA > 0; usage: {USAGE}")
                    })?;
                cli.opts.skew = Some(theta);
            }
            "--check-against" => cli.check_against = Some(value("--check-against")?),
            "--scale-out" => cli.scale_out = Some(value("--scale-out")?),
            "--expect-speedup" => {
                cli.expect_speedup = Some(
                    value("--expect-speedup")?
                        .parse::<f64>()
                        .ok()
                        .filter(|x| x.is_finite() && *x >= 1.0)
                        .ok_or_else(|| {
                            format!("--expect-speedup takes a factor >= 1.0; usage: {USAGE}")
                        })?,
                );
            }
            other => return Err(format!("unknown argument {other:?}; usage: {USAGE}")),
        }
    }
    Ok(cli)
}

fn write_artifact(json: &Json, path: &str) -> std::io::Result<()> {
    std::fs::write(path, json.encode())
}

/// Compares this run's report against a previous artifact (the
/// `--check-against` contract between shard counts): every
/// shard-invariant field must match, including `logical_secs`, the gauge
/// floor, and the full latency multiset. Returns the mismatches; empty
/// means the contract held.
fn cross_check(report: &ServeReport, prior: &Json) -> Vec<String> {
    let mut mismatches = Vec::new();
    let counters = [
        ("users", report.users as f64),
        ("sessions_started", report.sessions_started as f64),
        ("sessions_ended", report.sessions_ended as f64),
        ("executions", report.executions as f64),
        ("shortfalls", report.shortfalls as f64),
        ("dropped", report.dropped as f64),
        ("wire_accepted", report.gateway.accepted as f64),
        ("wire_rejected", report.gateway.rejected as f64),
        ("wire_replies", report.gateway.replies as f64),
        ("wire_fan_out_copies", report.gateway.fan_out_copies as f64),
        ("client_sent", report.client_sent as f64),
        ("client_received", report.client_received as f64),
        ("logical_secs", report.logical_secs),
        ("min_viable_hosts", report.min_viable_hosts as f64),
    ];
    for (key, ours) in counters {
        match prior.get(key).and_then(Json::as_f64) {
            Some(theirs) if theirs == ours => {}
            Some(theirs) => mismatches.push(format!("{key}: {ours} here vs {theirs} in prior")),
            None => mismatches.push(format!("{key}: missing from prior artifact")),
        }
    }
    let ours = report.latency.canonical_samples();
    match prior.get("latency_ms").and_then(Json::as_arr) {
        Some(theirs) => {
            let theirs: Vec<f64> = theirs.iter().filter_map(Json::as_f64).collect();
            if theirs != ours {
                let first_diff = ours
                    .iter()
                    .zip(&theirs)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| ours.len().min(theirs.len()));
                mismatches.push(format!(
                    "latency_ms: {} samples here vs {} in prior (first divergence at #{})",
                    ours.len(),
                    theirs.len(),
                    first_diff,
                ));
            }
        }
        None => mismatches.push("latency_ms: missing from prior artifact".into()),
    }
    mismatches
}

/// Virtual-time throughput curve over shard counts: wall-clock ns per
/// completed execution at 1/2/4/8 shards, plus the coordination
/// decomposition (placement channel vs merge vs per-shard wall) the
/// scaling number is read against.
fn scale_out(opts: &ServeOpts, cores: usize) -> (Json, Vec<(usize, f64)>) {
    let mut curve: Vec<(usize, f64)> = Vec::new();
    let mut family = Json::object();
    let mut decomposition: Vec<Json> = Vec::new();
    for &shards in &[1usize, 2, 4, 8] {
        let started = std::time::Instant::now();
        let run = run_serve_sharded(opts, shards, &|_| {
            Box::new(DesScheduler::new()) as Box<dyn Scheduler<ServeEv>>
        });
        let wall = started.elapsed();
        let executions = run.report.executions.max(1);
        let ns_per_exec = wall.as_nanos() as f64 / executions as f64;
        curve.push((shards, ns_per_exec));
        family = family.with(&format!("{shards}"), ns_per_exec);
        let coord = &run.coordination;
        decomposition.push(
            Json::object()
                .with("shards", shards as u64)
                .with("wall_s", wall.as_secs_f64())
                .with("executions", run.report.executions)
                .with("serve_ns_per_exec", ns_per_exec)
                .with("placement_wait_s", coord.placement_wait().as_secs_f64())
                .with("placement_calls", coord.placement_calls())
                .with("merge_s", coord.merge.as_secs_f64())
                .with("service_busy_s", coord.service.busy.as_secs_f64())
                .with("service_wakeups", coord.service.wakeups)
                .with(
                    "service_mean_drained_per_wakeup",
                    coord.service.mean_drained_per_wakeup(),
                ),
        );
        eprintln!(
            "serve: scale-out {shards} shard(s): {:.1} ns/exec over {} executions \
             ({:.3}s wall, {:.3}s placement wait, {:.4}s merge)",
            ns_per_exec,
            run.report.executions,
            wall.as_secs_f64(),
            coord.placement_wait().as_secs_f64(),
            coord.merge.as_secs_f64(),
        );
    }
    let json = Json::object()
        .with("bench", "serve-scale-out")
        .with("cores", cores as u64)
        .with("users", opts.users as u64)
        .with("duration_s", opts.duration.as_secs_f64())
        .with("hosts", opts.hosts as u64)
        .with("serve_ns_per_exec", family)
        .with("decomposition", decomposition);
    (json, curve)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("serve: {message}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    if let Some(path) = &cli.scale_out {
        eprintln!(
            "serve: scale-out curve, {} users over {:.0}s virtual on {} hosts ({cores} cores)",
            cli.opts.users,
            cli.opts.duration.as_secs_f64(),
            cli.opts.hosts,
        );
        let (json, curve) = scale_out(&cli.opts, cores);
        if let Err(error) = write_artifact(&json, path) {
            eprintln!("serve: writing {path}: {error}");
            return ExitCode::FAILURE;
        }
        eprintln!("serve: scale-out curve written to {path}");
        if let Some(expect) = cli.expect_speedup {
            let ns_1 = curve.iter().find(|&&(s, _)| s == 1).map(|&(_, ns)| ns);
            let ns_4 = curve.iter().find(|&&(s, _)| s == 4).map(|&(_, ns)| ns);
            let (Some(ns_1), Some(ns_4)) = (ns_1, ns_4) else {
                eprintln!("serve: SCALE FAIL — curve missing the 1- or 4-shard point");
                return ExitCode::FAILURE;
            };
            let speedup = ns_1 / ns_4;
            if cores < 4 {
                eprintln!(
                    "serve: {speedup:.2}x at 4 shards on {cores} core(s) — \
                     --expect-speedup {expect} needs >= 4 cores, not enforced"
                );
            } else if speedup < expect {
                eprintln!(
                    "serve: SCALE FAIL — 4 shards gave {speedup:.2}x over 1 shard \
                     (expected >= {expect}x on {cores} cores)"
                );
                return ExitCode::FAILURE;
            } else {
                eprintln!("serve: SCALE OK — 4 shards gave {speedup:.2}x over 1 shard");
            }
        }
        return ExitCode::SUCCESS;
    }

    let label = if cli.virtual_time {
        "virtual"
    } else {
        "wall-clock"
    };
    eprintln!(
        "serve: {} users over {:.0}s ({label}), {} hosts, {} shard(s), seed {}",
        cli.opts.users,
        cli.opts.duration.as_secs_f64(),
        cli.opts.hosts,
        cli.shards,
        cli.opts.seed,
    );

    let started = std::time::Instant::now();
    let mut max_lateness = None;
    let mut sharded: Option<ShardedServeReport> = None;
    let report = if cli.shards > 1 {
        let virtual_time = cli.virtual_time;
        let run = run_serve_sharded(&cli.opts, cli.shards, &move |_| {
            if virtual_time {
                Box::new(DesScheduler::new()) as Box<dyn Scheduler<ServeEv>>
            } else {
                Box::new(RealTimeScheduler::new()) as Box<dyn Scheduler<ServeEv>>
            }
        });
        let report = run.report.clone();
        sharded = Some(run);
        report
    } else if cli.virtual_time {
        let mut sched: DesScheduler<_> = DesScheduler::new();
        run_serve(&cli.opts, &mut sched)
    } else {
        let mut sched: RealTimeScheduler<_> = RealTimeScheduler::new();
        let report = run_serve(&cli.opts, &mut sched);
        max_lateness = Some(sched.max_lateness());
        report
    };
    let elapsed = started.elapsed().as_secs_f64();

    println!("{}", report.render());
    println!("wall-clock: {elapsed:.2}s elapsed");
    if let Some(lateness) = max_lateness {
        println!(
            "scheduler: max event lateness {:.2} ms",
            lateness.as_millis_f64()
        );
    }
    if let Some(run) = &sharded {
        let coord = &run.coordination;
        println!(
            "shards: {} over {} core(s); placement wait {:.3}s across {} calls, \
             merge {:.4}s",
            run.shards,
            cores,
            coord.placement_wait().as_secs_f64(),
            coord.placement_calls(),
            coord.merge.as_secs_f64(),
        );
    }

    if let Some(path) = &cli.out {
        let json = match &sharded {
            Some(run) => run.to_json(),
            None => report.to_json(),
        };
        if let Err(error) = write_artifact(&json, path) {
            eprintln!("serve: writing {path}: {error}");
            return ExitCode::FAILURE;
        }
        eprintln!("serve: report written to {path}");
    }

    if let Some(path) = &cli.check_against {
        let prior = match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{e:?}")))
        {
            Ok(json) => json,
            Err(error) => {
                eprintln!("serve: reading {path}: {error}");
                return ExitCode::from(2);
            }
        };
        let mismatches = cross_check(&report, &prior);
        if mismatches.is_empty() {
            eprintln!(
                "serve: CROSS-CHECK OK — {} latencies and all invariant counters \
                 match {path}",
                report.latency.len()
            );
        } else {
            for mismatch in &mismatches {
                eprintln!("serve: CROSS-CHECK MISMATCH — {mismatch}");
            }
            eprintln!(
                "serve: CROSS-CHECK FAIL — {} field(s) diverge from {path}; \
                 sharded and single-shard runs must serve identical latencies",
                mismatches.len(),
            );
            return ExitCode::FAILURE;
        }
    }

    if cli.smoke {
        if report.executions == 0 {
            eprintln!("serve: SMOKE FAIL — no executions completed");
            return ExitCode::FAILURE;
        }
        if report.gateway.replies != report.executions {
            eprintln!(
                "serve: SMOKE FAIL — {} replies for {} executions (unclean shutdown)",
                report.gateway.replies, report.executions
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "serve: SMOKE OK — {} executions, p99 {:.1} ms",
            report.executions, report.latency_p99_ms
        );
    }
    ExitCode::SUCCESS
}
