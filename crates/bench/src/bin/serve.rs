//! Live service mode: serve wall-clock Jupyter wire traffic.
//!
//! Replays a time-compressed AdobeTrace-shaped workload against one
//! [`LiveGateway`](notebookos_core::LiveGateway) under the
//! [`RealTimeScheduler`] — real signed wire messages, real sleeps between
//! event deadlines — and reports sustained sessions, executions/sec, and
//! p50/p99 request latency. `--virtual` runs the identical loop under the
//! [`DesScheduler`] (virtual time, finishes instantly), which is also how
//! the test suite drives it. A seed gives the same `--out` report on every
//! run under `--virtual`.
//!
//! Usage:
//!
//! ```text
//! serve [--users N] [--duration SECS] [--hosts N] [--seed N]
//!       [--max-cell-ms N] [--out FILE] [--smoke] [--virtual]
//! ```
//!
//! `--smoke` is the CI job: a few wall-clock seconds of traffic at small
//! user count, exiting nonzero unless executions completed and the run
//! shut down cleanly. Any other argument is a usage error (exit 2).

use std::process::ExitCode;

use notebookos_bench::serve::{run_serve, ServeOpts};
use notebookos_des::{DesScheduler, RealTimeScheduler, SimTime};

const USAGE: &str = "serve [--users N] [--duration SECS] [--hosts N] [--seed N] \
                     [--max-cell-ms N] [--out FILE] [--smoke] [--virtual]";

struct Cli {
    opts: ServeOpts,
    smoke: bool,
    virtual_time: bool,
    out: Option<String>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: ServeOpts::new(8, SimTime::from_secs(10)),
        smoke: false,
        virtual_time: false,
        out: None,
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
                cli.opts = ServeOpts::smoke();
                cli.opts.seed = seed;
            }
            "--virtual" => cli.virtual_time = true,
            other => return Err(format!("unknown argument {other:?}; usage: {USAGE}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("serve: {message}");
            return ExitCode::from(2);
        }
    };

    let label = if cli.virtual_time {
        "virtual"
    } else {
        "wall-clock"
    };
    eprintln!(
        "serve: {} users over {:.0}s ({label}), {} hosts, seed {}",
        cli.opts.users,
        cli.opts.duration.as_secs_f64(),
        cli.opts.hosts,
        cli.opts.seed,
    );

    let started = std::time::Instant::now();
    let mut max_lateness = None;
    let report = if cli.virtual_time {
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

    if let Some(path) = &cli.out {
        if let Err(error) = std::fs::write(path, report.to_json().encode()) {
            eprintln!("serve: writing {path}: {error}");
            return ExitCode::FAILURE;
        }
        eprintln!("serve: report written to {path}");
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
