//! Kill-anywhere chaos drills over WAL-backed Raft replicas, in virtual
//! time on the seeded [`Network`] harness.
//!
//! The drill runs two clusters over the same command stream:
//!
//! 1. a **golden** run — in-memory storage, never interrupted — whose
//!    committed command sequence is the reference state, and
//! 2. the **chaos** run — every replica on a [`WalStorage`] of its own in a
//!    temp directory, each fail-stopped at a seeded point mid-stream at
//!    least once, detected by the §3.2.5 heartbeat [`FailureDetector`],
//!    recovered per [`recovery_action`], and restarted over its own WAL.
//!
//! After the last cycle the drill quiesces and asserts the recovered
//! committed state **byte-for-byte**: every replica's applied sequence is
//! encoded with the same canonical codec the WAL uses
//! ([`encode_commands`]) and compared against the golden bytes. The
//! drill's client is at-least-once — it proposes a command on the current
//! leader, runs the network until some replica has applied it, and
//! proposes it again whenever the leader changes first — so the
//! comparison is over each replica's first-application order with
//! duplicate re-proposals collapsed. Replicas must *also* agree with each
//! other on the raw sequence, which catches divergence that deduplication
//! could mask. A command is in flight, proposed and not yet confirmed,
//! whenever a kill lands.
//!
//! Both runs have the harness's `SafetyChecker` on, after every delivered
//! message and every restart — where a restart may reset a replica's commit
//! index but not the term or the vote its WAL holds.
//!
//! Every kill→recover cycle is decomposed into the [`RecoveryBreakdown`]
//! phases. Detect, failover, catch-up and the total are **virtual**
//! milliseconds, the same for a given seed on any machine. WAL replay is
//! reported exactly, as records replayed, and — the files being real — as
//! wall-clock milliseconds: with the measured [`WalFsyncCost`], the only
//! figures that differ between two runs of one seed. Nothing waits on a
//! wall clock; a step still unfinished after 30 s of virtual time
//! panics with the seed that reproduces it.

use std::cell::Cell;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use notebookos_core::{recovery_action, FailureDetector, RecoveryAction, RecoveryBreakdown};
use notebookos_core::{RecoveryPhase, ReplicaId};
use notebookos_des::{SimRng, SimTime};
use notebookos_jupyter::Json;
use notebookos_raft::harness::Network;
use notebookos_raft::{encode_commands, Entry, EntryPayload, LogIndex, NodeId, RaftConfig, Term};
use notebookos_raft::{RaftStorage, WalOptions, WalStorage};

/// Heartbeat-timeout window of the failure detector, in virtual µs.
const DETECT_TIMEOUT_US: u64 = 150_000;
/// Replicas heartbeat on this grid of virtual time.
const HEARTBEAT_US: u64 = 10_000;
/// How often the client and the detector look at the cluster.
const STEP_US: u64 = 1_000;
/// Virtual time any one wait may take before the drill gives up on it.
const BUDGET_US: u64 = 30_000_000;

/// Chaos-drill parameters.
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// Replicas per kernel (the paper's replication factor, 3).
    pub replicas: usize,
    /// Commands proposed across the whole drill.
    pub commands: usize,
    /// Kill/restart cycles; every replica is killed at least once as long
    /// as `cycles >= replicas`.
    pub cycles: usize,
    /// Seed of the network schedule and of the kill points.
    pub seed: u64,
    /// WAL fsync batching (1 = fsync per input, full durability).
    pub fsync_batch: usize,
    /// Where node WALs live; `None` uses a temp directory of this call's
    /// own. Removed when the drill returns.
    pub dir: Option<PathBuf>,
}

impl ChaosOpts {
    /// Full drill: 3 replicas, 48 commands, 6 cycles.
    pub fn new(seed: u64) -> Self {
        ChaosOpts {
            replicas: 3,
            commands: 48,
            cycles: 6,
            seed,
            fsync_batch: 1,
            dir: None,
        }
    }

    /// CI smoke drill: every replica still dies once, smallest stream
    /// that exercises failover during the outage.
    pub fn smoke(seed: u64) -> Self {
        ChaosOpts {
            commands: 18,
            cycles: 3,
            ..ChaosOpts::new(seed)
        }
    }
}

/// One kill→recover cycle's phases: virtual time, except `replay_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleLatency {
    /// The replica that was killed.
    pub victim: NodeId,
    /// Kill → failure detector declares the replica failed.
    pub detect_ms: f64,
    /// Detection → the surviving quorum has committed the command that was
    /// in flight at the kill and one proposed after it.
    pub failover_ms: f64,
    /// Records the restarted replica replayed from its WAL.
    pub replayed_records: u64,
    /// WAL open + replay on restart, **wall clock** (real file I/O).
    pub replay_ms: f64,
    /// Restart → replica re-applied every command committed so far.
    pub catch_up_ms: f64,
    /// Kill → fully caught up, in virtual time (so without `replay_ms`).
    pub total_ms: f64,
}

/// What the drill did and whether the recovered state matched.
#[derive(Debug)]
pub struct ChaosReport {
    /// Parameters the drill ran with.
    pub opts: ChaosOpts,
    /// Per-cycle recovery latencies, in cycle order.
    pub cycle_latencies: Vec<CycleLatency>,
    /// Phase CDFs across cycles.
    pub recovery: RecoveryBreakdown,
    /// Distinct replicas killed at least once.
    pub replicas_killed: usize,
    /// Commands in the golden committed sequence.
    pub golden_commands: usize,
    /// Duplicate applications observed (client retries across a dying
    /// leader; at-least-once, collapsed before the byte comparison).
    pub duplicates: u64,
    /// Whether every replica's recovered committed state byte-matched the
    /// golden run.
    pub state_match: bool,
    /// Human-readable mismatch description when `state_match` is false.
    pub mismatch: Option<String>,
    /// Measured WAL append cost, batched vs fsync-per-append (wall clock).
    pub fsync_cost: WalFsyncCost,
}

impl ChaosReport {
    /// JSON artifact for `--out` (consumed by CI upload). Two runs of one
    /// seed differ in `replay_ms` and `wal_fsync_cost` and nowhere else.
    pub fn to_json(&self) -> Json {
        let cycles: Vec<Json> = self
            .cycle_latencies
            .iter()
            .map(|c| {
                Json::object()
                    .with("victim", c.victim)
                    .with("detect_ms", c.detect_ms)
                    .with("failover_ms", c.failover_ms)
                    .with("replayed_records", c.replayed_records)
                    .with("replay_ms", c.replay_ms)
                    .with("catch_up_ms", c.catch_up_ms)
                    .with("total_ms", c.total_ms)
            })
            .collect();
        Json::object()
            .with("bench", "chaos-drill")
            .with("replicas", self.opts.replicas as u64)
            .with("commands", self.opts.commands as u64)
            .with("cycles", self.opts.cycles as u64)
            .with("seed", self.opts.seed)
            .with("fsync_batch", self.opts.fsync_batch as u64)
            .with("replicas_killed", self.replicas_killed as u64)
            .with("golden_commands", self.golden_commands as u64)
            .with("duplicates", self.duplicates)
            .with("state_match", self.state_match)
            .with("mismatch", self.mismatch.clone().unwrap_or_default())
            .with("cycle_latencies", cycles)
            .with(
                "wal_fsync_cost",
                Json::object()
                    .with(
                        "buffered_us_per_append",
                        self.fsync_cost.buffered_us_per_append,
                    )
                    .with("fsync_us_per_append", self.fsync_cost.fsync_us_per_append)
                    .with("slowdown", self.fsync_cost.slowdown())
                    .with("appends", self.fsync_cost.appends as u64),
            )
    }

    /// Human rendering: the recovery table plus the fsync cost line.
    pub fn render(&self) -> String {
        let verdict = if self.state_match {
            "STATE MATCH — every replica recovered the golden committed bytes".to_string()
        } else {
            format!(
                "STATE MISMATCH — {} (rerun with --seed {})",
                self.mismatch.as_deref().unwrap_or("unknown divergence"),
                self.opts.seed,
            )
        };
        let replayed: Vec<u64> = self
            .cycle_latencies
            .iter()
            .map(|c| c.replayed_records)
            .collect();
        format!(
            "{}\nvirtual ms, the same on every run of seed {}; only wal-replay is wall clock \
             (WAL records replayed per cycle: {replayed:?})\n\
             {} replicas killed across {} cycles, {} duplicate re-proposals collapsed\n{}\n{}",
            self.recovery.to_table(),
            self.opts.seed,
            self.replicas_killed,
            self.cycle_latencies.len(),
            self.duplicates,
            self.fsync_cost.render(),
            verdict,
        )
    }
}

/// First-application order with duplicate re-proposals collapsed.
fn dedup_applied(applied: &[String]) -> Vec<String> {
    let mut seen = HashSet::new();
    applied
        .iter()
        .filter(|c| seen.insert((*c).clone()))
        .cloned()
        .collect()
}

/// The command stream; unique payloads so first-application order is
/// recoverable under at-least-once client retries.
fn command(i: usize) -> String {
    format!("cell-{i}: acc += grad[{i}]")
}

/// One cluster under the drill's client: the command stream in order, one
/// command outstanding, each confirmed applied before the next is proposed.
struct Drill<'a> {
    opts: &'a ChaosOpts,
    net: Network<String>,
    /// The first command not yet confirmed.
    next: usize,
    /// The leader, and its term, that `next` was last proposed on.
    sent_to: Option<(NodeId, Term)>,
}

impl<'a> Drill<'a> {
    fn new(opts: &'a ChaosOpts, mut net: Network<String>) -> Self {
        net.check_safety();
        net.run_until_leader();
        Drill {
            opts,
            net,
            next: 0,
            sent_to: None,
        }
    }

    /// Runs the network a [`STEP_US`] at a time until `done` says so; panics,
    /// naming the seed, once that has taken [`BUDGET_US`].
    fn run_until(&mut self, what: &str, mut done: impl FnMut(&mut Self) -> bool) {
        let deadline = self.net.now().as_micros() + BUDGET_US;
        while !done(self) {
            assert!(
                self.net.now().as_micros() < deadline,
                "chaos drill: {what} did not finish in {} s of virtual time; \
                 rerun with --seed {}",
                BUDGET_US / 1_000_000,
                self.opts.seed,
            );
            self.net.run_micros(STEP_US);
        }
    }

    /// Proposes the outstanding command on the current leader, unless that
    /// leader took it already in this term (then it is in its log, and
    /// stays there for as long as it leads).
    fn send(&mut self) {
        let Some(leader) = self.net.leader() else {
            return;
        };
        let at = (leader, self.net.node(leader).term());
        if self.next < self.opts.commands
            && self.sent_to != Some(at)
            && self.net.propose(leader, command(self.next)).is_ok()
        {
            self.sent_to = Some(at);
        }
    }

    /// Commits the next `n` commands of the stream (or what is left of it),
    /// one after the other: each is proposed, and proposed again after every
    /// change of leader, until some replica has applied it.
    fn commit(&mut self, n: usize) {
        for _ in 0..n.min(self.opts.commands - self.next) {
            let wanted = command(self.next);
            self.run_until(&format!("committing `{wanted}`"), |drill| {
                let applied = |id| drill.net.applied_by(id).contains(&wanted);
                (1..=drill.opts.replicas as NodeId).any(applied) || {
                    drill.send();
                    false
                }
            });
            self.next += 1;
            self.sent_to = None;
        }
    }

    /// Runs until `replica` has applied every command confirmed so far (and
    /// with them, possibly, re-proposals).
    fn catch_up(&mut self, replica: NodeId) {
        self.run_until(&format!("replica {replica} catching up"), |drill| {
            dedup_applied(drill.net.applied_by(replica)).len() >= drill.next
        });
    }
}

/// Runs the uninterrupted golden cluster over the command stream and
/// returns its committed sequence.
fn golden_run(opts: &ChaosOpts) -> Vec<String> {
    let net = Network::with_config(opts.replicas, opts.seed, RaftConfig::fast());
    let mut drill = Drill::new(opts, net);
    drill.commit(opts.commands);
    drill.catch_up(1);
    dedup_applied(drill.net.applied_by(1))
}

/// A fresh directory for one drill's WALs. Two drills with one seed in one
/// process — the determinism test, or `cargo test` running them in
/// parallel — must not share (and delete) each other's.
fn wal_dir(opts: &ChaosOpts) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let dir = opts.dir.clone().unwrap_or_else(|| {
        let call = CALLS.fetch_add(1, Ordering::Relaxed);
        let name = format!(
            "notebookos-chaos-{}-{}-{call}",
            std::process::id(),
            opts.seed
        );
        std::env::temp_dir().join(name)
    });
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create WAL directory");
    dir
}

/// Runs the full drill; see the module docs for the shape.
///
/// # Panics
///
/// Panics if the drill itself fails — a WAL cannot be opened, a wait
/// exceeds its virtual-time budget, the safety checker finds a broken
/// property — always naming what reproduces it. State divergence is not a
/// panic: it is reported via [`ChaosReport::state_match`].
pub fn run_chaos_drill(opts: &ChaosOpts) -> ChaosReport {
    assert!(opts.replicas >= 3, "need a quorum-capable cluster");
    assert!(opts.cycles >= 1 && opts.commands >= opts.cycles);

    let golden = golden_run(opts);
    let golden_bytes = encode_commands(&golden);

    let dir = wal_dir(opts);
    let wal = WalOptions {
        fsync_batch: opts.fsync_batch,
    };
    // What the most recent WAL open replayed, and how long it took.
    let last_open = Rc::new(Cell::new((0u64, 0.0f64)));
    let factory = {
        let (dir, last_open) = (dir.clone(), last_open.clone());
        move |id| -> Box<dyn RaftStorage<String>> {
            // The drill's one wall-clock reading: the files are real.
            let opening = std::time::Instant::now();
            let wal = WalStorage::<String>::open_with(dir.join(format!("node-{id}.wal")), wal)
                .expect("open node WAL");
            let replay_ms = opening.elapsed().as_secs_f64() * 1e3;
            last_open.set((wal.stats().replayed_records, replay_ms));
            Box::new(wal)
        }
    };
    let net = Network::with_storage(
        opts.replicas,
        opts.seed,
        RaftConfig::fast(),
        Box::new(factory),
    );
    let mut drill = Drill::new(opts, net);
    let ids: Vec<NodeId> = (1..=opts.replicas as NodeId).collect();

    // §3.2.5 wiring: one kernel, R replicas, heartbeat detector.
    let kernel = 1u64;
    let replica_of = |id: NodeId| ReplicaId::new(kernel, id as u32);
    let mut detector = FailureDetector::new(DETECT_TIMEOUT_US);
    for &id in &ids {
        detector.register(replica_of(id), 0);
    }

    let mut kill_points = SimRng::seed(opts.seed);
    let mut recovery = RecoveryBreakdown::new(format!(
        "chaos seed={} fsync_batch={}",
        opts.seed, opts.fsync_batch
    ));
    let mut cycle_latencies = Vec::new();
    let per_cycle = opts.commands / opts.cycles;
    let ms = |from: SimTime, to: SimTime| (to - from).as_millis_f64();

    for cycle in 0..opts.cycles {
        // Round-robin victims guarantee everyone dies at least once; the
        // kill lands at a seeded point inside the cycle's stream (leaving it
        // the two commands of the failover), up to 3 ms after a command was
        // proposed — before, while or after it replicates.
        let victim = ids[cycle % ids.len()];
        let before_kill = kill_points.index(per_cycle.saturating_sub(2) + 1);
        drill.commit(before_kill);
        drill.send();
        drill.net.run_micros(kill_points.below(3_000));

        let t_kill = drill.net.now();
        // The victim's last heartbeat left on the grid point before it died.
        let last_beat = t_kill.as_micros() / HEARTBEAT_US * HEARTBEAT_US;
        for &id in &ids {
            detector.heartbeat(replica_of(id), last_beat);
        }
        assert!(drill.net.kill(victim), "victim {victim} was running");

        // Detection: live replicas keep heartbeating; the victim has gone
        // silent and trips the timeout window. The client meanwhile stays
        // on its outstanding command: if the victim led, the new leader is
        // sent it too, whether or not it inherited the first copy.
        drill.run_until("detecting the failure", |drill| {
            drill.send();
            let now = drill.net.now().as_micros();
            for &id in ids.iter().filter(|&&id| id != victim) {
                detector.heartbeat(replica_of(id), now);
            }
            detector.tick(now).contains(&replica_of(victim))
        });
        let t_detected = drill.net.now();
        assert_eq!(
            recovery_action(&detector.failed_replicas_of(kernel), opts.replicas as u32),
            RecoveryAction::RecreateReplica(replica_of(victim)),
            "single failure with quorum intact recreates the replica"
        );

        // Failover: the surviving quorum commits the command the kill
        // raced, then a fresh one. The rest of the cycle's stream runs
        // against the degraded cluster before the replica comes back.
        drill.commit(2);
        let t_failed_over = drill.net.now();
        drill.commit(per_cycle.saturating_sub(before_kill + 2));

        // Recreate: restart() re-invokes the WAL factory. Then catch-up: the
        // replica re-applies everything committed so far.
        let t_restart = drill.net.now();
        assert!(drill.net.restart(victim), "victim restarts");
        let (replayed_records, replay_ms) = last_open.get();
        detector.register(replica_of(victim), t_restart.as_micros());
        drill.catch_up(victim);
        let t_recovered = drill.net.now();

        let cycle = CycleLatency {
            victim,
            detect_ms: ms(t_kill, t_detected),
            failover_ms: ms(t_detected, t_failed_over),
            replayed_records,
            replay_ms,
            catch_up_ms: ms(t_restart, t_recovered),
            total_ms: ms(t_kill, t_recovered),
        };
        recovery.record_phase(RecoveryPhase::Detect, cycle.detect_ms);
        recovery.record_phase(RecoveryPhase::Failover, cycle.failover_ms);
        recovery.record_phase(RecoveryPhase::Replay, cycle.replay_ms);
        recovery.record_phase(RecoveryPhase::CatchUp, cycle.catch_up_ms);
        recovery.record_total(cycle.total_ms);
        cycle_latencies.push(cycle);
    }

    // Drain any remaining stream and quiesce every replica on the full
    // golden prefix.
    drill.commit(opts.commands);
    for &id in &ids {
        drill.catch_up(id);
    }
    let net = drill.net;

    // Byte-for-byte verdict.
    let mut duplicates = 0u64;
    let mut mismatch = None;
    for &id in &ids {
        let applied = net.applied_by(id);
        let deduped = dedup_applied(applied);
        duplicates += (applied.len() - deduped.len()) as u64;
        if encode_commands(&deduped) != golden_bytes {
            let diverged = deduped
                .iter()
                .zip(&golden)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| deduped.len().min(golden.len()));
            mismatch.get_or_insert(format!(
                "replica {id} recovered {} commands vs golden {} (first divergence at #{diverged})",
                deduped.len(),
                golden.len(),
            ));
        }
        // Replicas must agree on the raw sequence too: a replica that
        // "recovers" by inventing or reordering duplicates is divergent
        // even if deduplication hides it.
        if applied != net.applied_by(ids[0]) {
            mismatch.get_or_insert(format!(
                "replica {id} raw applied sequence disagrees with replica {}",
                ids[0],
            ));
        }
    }

    let fsync_cost =
        measure_wal_fsync_cost(&dir, 256).expect("fsync cost probe on the WAL directory");
    let _ = std::fs::remove_dir_all(&dir);

    let killed: HashSet<NodeId> = cycle_latencies.iter().map(|c| c.victim).collect();
    ChaosReport {
        opts: opts.clone(),
        cycle_latencies,
        recovery,
        replicas_killed: killed.len(),
        golden_commands: golden.len(),
        duplicates,
        state_match: mismatch.is_none(),
        mismatch,
        fsync_cost,
    }
}

// ---------------------------------------------------------------------
// fsync-cost measurement
// ---------------------------------------------------------------------

/// Measured per-append cost of the WAL in both durability modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalFsyncCost {
    /// Mean µs per appended entry with batched (deferred) fsync.
    pub buffered_us_per_append: f64,
    /// Mean µs per appended entry with an fsync per append.
    pub fsync_us_per_append: f64,
    /// Entries appended in each mode.
    pub appends: usize,
}

impl WalFsyncCost {
    /// Multiplicative slowdown of fsync-per-append over batched appends.
    pub fn slowdown(&self) -> f64 {
        if self.buffered_us_per_append <= 0.0 {
            1.0
        } else {
            self.fsync_us_per_append / self.buffered_us_per_append
        }
    }

    /// One-line human rendering for the chaos-drill bin.
    fn render(&self) -> String {
        format!(
            "wal fsync cost: {:.1} µs/append batched vs {:.1} µs/append fsynced \
             ({:.1}x, {} appends measured)",
            self.buffered_us_per_append,
            self.fsync_us_per_append,
            self.slowdown(),
            self.appends,
        )
    }
}

/// Measures what WAL durability actually costs on the disk under `dir`:
/// appends `appends` single-entry records (plus a sync per append — the
/// per-input group-commit pattern
/// [`RaftNode`](notebookos_raft::RaftNode) drives) to a throwaway WAL in
/// each mode and reports the mean per-append wall time. Probe files are
/// removed before returning.
///
/// # Errors
///
/// Fails on I/O errors creating or removing the probe WALs.
fn measure_wal_fsync_cost(dir: &Path, appends: usize) -> std::io::Result<WalFsyncCost> {
    let measure = |batch: usize, name: &str| -> std::io::Result<f64> {
        let path = dir.join(name);
        let mut wal: WalStorage<String> =
            WalStorage::open_with(&path, WalOptions { fsync_batch: batch })?;
        let payload = "x = train_step(batch)".to_string();
        let started = Instant::now();
        for i in 0..appends {
            wal.append_entries(&[Entry {
                term: 1,
                index: (i + 1) as LogIndex,
                payload: EntryPayload::Command(payload.clone()),
            }]);
            RaftStorage::<String>::sync(&mut wal);
        }
        let elapsed = started.elapsed();
        drop(wal);
        std::fs::remove_file(&path)?;
        Ok(elapsed.as_secs_f64() * 1e6 / appends.max(1) as f64)
    };
    Ok(WalFsyncCost {
        // A batch far larger than the probe defers every fsync.
        buffered_us_per_append: measure(appends.max(2), "wal-probe-batched.wal")?,
        fsync_us_per_append: measure(1, "wal-probe-synced.wal")?,
        appends,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_first_application_order() {
        let applied = ["a", "b", "a", "c", "b"].map(String::from);
        assert_eq!(dedup_applied(&applied), ["a", "b", "c"].map(String::from));
    }

    #[test]
    fn fsync_cost_probe_measures_both_modes() {
        let dir =
            std::env::temp_dir().join(format!("notebookos-fsync-cost-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cost = measure_wal_fsync_cost(&dir, 16).expect("measures");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(cost.appends, 16);
        assert!(cost.buffered_us_per_append > 0.0);
        assert!(cost.fsync_us_per_append > 0.0);
        assert!(cost.slowdown() > 0.0);
        assert!(cost.render().contains("µs/append"));
    }

    #[test]
    fn smoke_drill_kills_every_replica_and_recovers_golden_state() {
        let opts = ChaosOpts::smoke(2026);
        let report = run_chaos_drill(&opts);
        assert_eq!(report.replicas_killed, opts.replicas, "everyone died once");
        assert_eq!(report.golden_commands, opts.commands);
        assert!(
            report.state_match,
            "recovered state diverged: {:?}",
            report.mismatch
        );
        assert_eq!(report.recovery.cycles(), opts.cycles);
        assert!(report.fsync_cost.fsync_us_per_append > 0.0);
        for cycle in &report.cycle_latencies {
            let lo = (DETECT_TIMEOUT_US - HEARTBEAT_US) as f64 / 1e3;
            let hi = (DETECT_TIMEOUT_US + STEP_US) as f64 / 1e3;
            assert!((lo..=hi).contains(&cycle.detect_ms), "{cycle:?}");
            assert!(cycle.replayed_records > 0, "the WAL had something in it");
        }
        let json = report.to_json();
        assert_eq!(json.get("state_match").and_then(Json::as_bool), Some(true));
        assert!(report.render().contains("STATE MATCH"));
    }

    /// A report's virtual-time story: everything but the wall-clock readings.
    fn story(report: &ChaosReport) -> (Vec<CycleLatency>, u64, usize, bool) {
        let zeroed = |c: &CycleLatency| CycleLatency {
            replay_ms: 0.0,
            ..*c
        };
        let cycles = report.cycle_latencies.iter().map(zeroed).collect();
        let recovered_golden_bytes = report.state_match;
        (
            cycles,
            report.duplicates,
            report.replicas_killed,
            recovered_golden_bytes,
        )
    }

    #[test]
    fn same_seed_same_report() {
        let first = run_chaos_drill(&ChaosOpts::smoke(7));
        assert!(first.state_match, "{:?}", first.mismatch);
        assert_eq!(story(&first), story(&run_chaos_drill(&ChaosOpts::smoke(7))));
        assert_ne!(story(&first), story(&run_chaos_drill(&ChaosOpts::smoke(8))));
    }

    #[test]
    fn thirty_two_smoke_seeds_recover_the_golden_state_under_the_checker() {
        for seed in 1..=32 {
            println!("smoke seed {seed}"); // shown if the checker panics inside it
            let report = run_chaos_drill(&ChaosOpts::smoke(seed));
            assert!(report.state_match, "seed {seed}: {:?}", report.mismatch);
            assert_eq!(report.replicas_killed, 3, "seed {seed}");
        }
    }
}
