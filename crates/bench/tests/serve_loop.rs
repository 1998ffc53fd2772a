//! Integration tests for the live serve loop, driven entirely in
//! virtual time.
//!
//! `run_serve` takes `&mut dyn Scheduler<ServeEv>`, so the exact loop
//! the `serve` binary runs on the wall clock runs here under a
//! [`DesScheduler`] (instant) and a [`RealTimeScheduler`] whose clock is
//! hand-advanced (also instant) — no test ever sleeps. The two paths
//! must produce the same traffic, which is the whole point of putting
//! the clock behind the trait.

use std::time::{Duration, Instant};

use proptest::prelude::*;

use notebookos_bench::serve::{run_serve, ServeOpts};
use notebookos_des::{DesScheduler, ManualClock, RealTimeScheduler, Scheduler, SimTime};

fn opts() -> ServeOpts {
    let mut opts = ServeOpts::new(12, SimTime::from_secs(20));
    opts.hosts = 8;
    opts
}

#[test]
fn serve_loop_sustains_traffic_and_shuts_down_cleanly_under_des() {
    let mut sched = DesScheduler::new();
    let report = run_serve(&opts(), &mut sched);

    assert_eq!(report.users, 12);
    assert!(report.sessions_started > 0, "sessions launched");
    assert!(report.executions > 0, "cells executed end to end");
    assert!(report.execs_per_sec > 0.0);
    // Every execution produced a merged reply that crossed the wire
    // back to the client, and every client message was verified.
    assert_eq!(report.gateway.replies, report.executions);
    assert_eq!(report.client_received, report.executions);
    assert_eq!(report.gateway.rejected, 0, "well-formed traffic only");
    // Latency percentiles are ordered and bounded by the cell cap plus
    // queueing (a generous sanity ceiling, not a perf gate).
    assert!(report.latency_p50_ms > 0.0);
    assert!(report.latency_p50_ms <= report.latency_p99_ms);
    // The viability gauge sampled a live fleet on every tick.
    assert!(report.gauge_samples > 0);
    assert!(report.min_viable_hosts > 0);
    // Clean shutdown: the tick chain stops at the configured duration
    // and the queue drains to empty — nothing is left pending.
    assert_eq!(sched.pending(), 0, "event queue drained");
    assert!(report.logical_secs <= 20.0 + 1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same schedule, same logical timestamps, same wire traffic: the
    /// report — counters, latency multiset, gauge samples — is
    /// bit-identical across the two scheduler implementations, over
    /// random workload sizes, fleets (shortfalls included) and seeds.
    #[test]
    fn serve_loop_is_identical_under_des_and_manual_clock_realtime(
        users in 1usize..10,
        hosts in 3usize..10,
        seed in 0u64..1_000,
    ) {
        let mut opts = ServeOpts::new(users, SimTime::from_secs(20));
        opts.hosts = hosts;
        opts.seed = seed;
        let des_report = run_serve(&opts, &mut DesScheduler::new());

        let mut live = RealTimeScheduler::with_clock(Box::new(ManualClock::new()));
        let started = Instant::now();
        let live_report = run_serve(&opts, &mut live);
        let wall = started.elapsed();

        prop_assert_eq!(
            des_report, live_report,
            "users {}, hosts {}, seed {}", users, hosts, seed
        );
        prop_assert_eq!(
            live.max_lateness(),
            SimTime::ZERO,
            "a manual clock sleeps exactly to each deadline"
        );
        prop_assert!(
            wall < Duration::from_secs_f64(opts.duration.as_secs_f64()),
            "a manual clock must not wall-sleep the serving window (took {:?})", wall
        );
    }
}

#[test]
fn serve_loop_is_deterministic_across_runs() {
    let mut a = DesScheduler::new();
    let mut b = DesScheduler::new();
    assert_eq!(run_serve(&opts(), &mut a), run_serve(&opts(), &mut b));
}
