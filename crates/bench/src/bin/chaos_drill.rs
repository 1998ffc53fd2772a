//! Kill-anywhere chaos drill over WAL-backed replicated kernels.
//!
//! Runs an uninterrupted golden cluster and a WAL-backed chaos cluster
//! over the same command stream on the seeded virtual-time Raft harness,
//! fail-stops every replica at least once at seeded points, recovers each
//! via the §3.2.5 heartbeat detector + recreate path, and exits nonzero
//! unless every replica's recovered committed state is byte-identical to
//! the golden run. The Raft safety checker is on throughout. The report
//! decomposes each cycle into detect / failover / WAL-replay / catch-up
//! and includes the measured fsync cost per append in both durability
//! modes. Detect, failover, catch-up and the total are virtual time: one
//! seed gives one report, whatever the machine. The WAL replay time and
//! the fsync cost are wall clock, because the files are real. A drill
//! that fails names its seed; `--seed N` runs it again, step for step.
//!
//! Usage:
//!
//! ```text
//! chaos_drill [--replicas N] [--commands N] [--cycles N] [--seed N]
//!             [--fsync-batch N] [--out FILE] [--smoke]
//! ```
//!
//! `--smoke` is the CI job: 3 kill/restart cycles (one per replica) over
//! a short stream — about a second of virtual time, tens of wall-clock
//! milliseconds, most of them in the fsync probe.

use std::process::ExitCode;

use notebookos_bench::chaos::{run_chaos_drill, ChaosOpts};
use notebookos_bench::EVAL_SEED;
use notebookos_jupyter::Json;

const USAGE: &str = "chaos_drill [--replicas N] [--commands N] [--cycles N] [--seed N] \
                     [--fsync-batch N] [--out FILE] [--smoke]\n\
                     runs in virtual time: one --seed, one report (bar the wall-clock \
                     replay_ms and wal_fsync_cost); a failing drill prints its seed";

struct Cli {
    opts: ChaosOpts,
    smoke: bool,
    out: Option<String>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: ChaosOpts::new(EVAL_SEED),
        smoke: false,
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
            "--replicas" => {
                cli.opts.replicas = positive("--replicas", value("--replicas")?)? as usize;
            }
            "--commands" => {
                cli.opts.commands = positive("--commands", value("--commands")?)? as usize;
            }
            "--cycles" => cli.opts.cycles = positive("--cycles", value("--cycles")?)? as usize,
            "--seed" => {
                cli.opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| format!("--seed takes an integer; usage: {USAGE}"))?;
            }
            "--fsync-batch" => {
                cli.opts.fsync_batch = positive("--fsync-batch", value("--fsync-batch")?)? as usize;
            }
            "--out" => cli.out = Some(value("--out")?),
            "--smoke" => {
                let seed = cli.opts.seed;
                cli.smoke = true;
                cli.opts = ChaosOpts::smoke(seed);
            }
            other => return Err(format!("unknown argument {other:?}; usage: {USAGE}")),
        }
    }
    if cli.opts.replicas < 3 {
        return Err("--replicas must be at least 3 (quorum)".into());
    }
    if cli.opts.commands < cli.opts.cycles {
        return Err("--commands must be at least --cycles".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("chaos_drill: {message}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "chaos_drill: {} replicas, {} commands, {} kill/restart cycles, seed {}, \
         fsync batch {}",
        cli.opts.replicas, cli.opts.commands, cli.opts.cycles, cli.opts.seed, cli.opts.fsync_batch,
    );

    let started = std::time::Instant::now();
    let report = run_chaos_drill(&cli.opts);
    let elapsed = started.elapsed().as_secs_f64();

    println!("{}", report.render());
    println!("wall-clock: {elapsed:.2}s elapsed");

    if let Some(path) = &cli.out {
        let json: Json = report.to_json();
        if let Err(error) = std::fs::write(path, json.encode()) {
            eprintln!("chaos_drill: writing {path}: {error}");
            return ExitCode::FAILURE;
        }
        eprintln!("chaos_drill: report written to {path}");
    }

    if !report.state_match {
        eprintln!(
            "chaos_drill: FAIL — recovered state diverged from the golden run: {}",
            report.mismatch.as_deref().unwrap_or("unknown"),
        );
        return ExitCode::FAILURE;
    }
    if report.replicas_killed < cli.opts.replicas {
        eprintln!(
            "chaos_drill: FAIL — only {} of {} replicas were killed",
            report.replicas_killed, cli.opts.replicas,
        );
        return ExitCode::FAILURE;
    }
    if cli.smoke {
        eprintln!(
            "chaos_drill: SMOKE OK — {} replicas each killed and recovered, \
             {} commands byte-identical, fsync {:.1}x over batched",
            report.replicas_killed,
            report.golden_commands,
            report.fsync_cost.slowdown(),
        );
    }
    ExitCode::SUCCESS
}
