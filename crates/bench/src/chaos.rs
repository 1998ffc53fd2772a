//! Kill-anywhere chaos drills over the WAL-backed live Raft cluster.
//!
//! The drill runs two clusters over the same command stream:
//!
//! 1. a **golden** run — in-memory storage, never interrupted — whose
//!    committed command sequence is the reference state, and
//! 2. the **chaos** run — WAL-backed replicas, each fail-stopped at a
//!    pseudo-random point mid-stream at least once, detected by the
//!    §3.2.5 heartbeat [`FailureDetector`], recovered per
//!    [`recovery_action`], and restarted over its own WAL.
//!
//! After the last cycle the drill quiesces and asserts the recovered
//! committed state **byte-for-byte**: every replica's applied sequence is
//! encoded with the same canonical codec the WAL uses
//! ([`encode_commands`]) and compared against the golden bytes. Client
//! retries across a dying leader give at-least-once delivery, so the
//! comparison is over each replica's first-application order with
//! duplicate re-proposals collapsed — replicas must *also* agree with
//! each other on the raw sequence, which catches divergence that
//! deduplication could mask.
//!
//! The retrying client is the drill's own. `propose_blocking` returns when a
//! leader has *accepted* a command, not when it is committed, and a leader
//! that loses its term before the entry reaches a quorum — an election
//! timer firing on a starved box is enough — has it overwritten by its
//! successor. So before it sends command `i + 1` the drill confirms command
//! `i` applied on some replica, sending it again every `RETRY_AFTER` until
//! it is: first-application order stays issue order, nothing acknowledged
//! is silently missing when a wait counts commands, and the *last* command
//! before each kill is still unconfirmed when the kill lands, so kills keep
//! racing an in-flight entry.
//!
//! Every kill→recover cycle is decomposed into the [`RecoveryBreakdown`]
//! phases (detect / failover / WAL replay / catch-up), and the report
//! carries the measured [`WalFsyncCost`] so the durability tax shows up
//! next to the availability numbers.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use notebookos_core::{recovery_action, FailureDetector, RecoveryAction, RecoveryBreakdown};
use notebookos_core::{RecoveryPhase, ReplicaId};
use notebookos_jupyter::Json;
use notebookos_raft::live::{LiveCluster, NodeSnapshot};
use notebookos_raft::{encode_commands, measure_wal_fsync_cost, NodeId, WalFsyncCost, WalOptions};

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
    /// Seed for the kill-point jitter.
    pub seed: u64,
    /// WAL fsync batching (1 = fsync per input, full durability).
    pub fsync_batch: usize,
    /// Heartbeat-timeout window of the failure detector.
    pub detect_timeout: Duration,
    /// Where node WALs live; `None` uses a per-run temp directory.
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
            detect_timeout: Duration::from_millis(150),
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

/// One kill→recover cycle's measured phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleLatency {
    /// The replica that was killed.
    pub victim: NodeId,
    /// Kill → failure detector declares the replica failed.
    pub detect_ms: f64,
    /// Detection → surviving quorum accepted the next proposal.
    pub failover_ms: f64,
    /// WAL open + replay on restart.
    pub replay_ms: f64,
    /// Restart → replica re-applied every command committed so far.
    pub catch_up_ms: f64,
    /// Kill → fully caught up.
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
    /// Measured WAL append cost, batched vs fsync-per-append.
    pub fsync_cost: WalFsyncCost,
}

impl ChaosReport {
    /// JSON artifact for `--out` (consumed by CI upload).
    pub fn to_json(&self) -> Json {
        let cycles: Vec<Json> = self
            .cycle_latencies
            .iter()
            .map(|c| {
                Json::object()
                    .with("victim", c.victim)
                    .with("detect_ms", c.detect_ms)
                    .with("failover_ms", c.failover_ms)
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
                "STATE MISMATCH — {}",
                self.mismatch.as_deref().unwrap_or("unknown divergence")
            )
        };
        format!(
            "{}\n{} replicas killed across {} cycles, {} duplicate re-proposals collapsed\n{}\n{}",
            self.recovery.to_table(),
            self.replicas_killed,
            self.cycle_latencies.len(),
            self.duplicates,
            self.fsync_cost.render(),
            verdict,
        )
    }
}

/// Deterministic xorshift64* stream for kill-point jitter.
struct Jitter(u64);

impl Jitter {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
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

fn poll<T>(
    deadline: Instant,
    interval: Duration,
    mut probe: impl FnMut() -> Option<T>,
) -> Option<T> {
    loop {
        if let Some(v) = probe() {
            return Some(v);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(interval);
    }
}

/// What a quiescence wait that ran out saw: per node its role, term,
/// `commit_index`, `last_log_index` and how much it applied (raw and with
/// re-proposals collapsed), or that `inspect` did not answer — enough to tell
/// a lost proposal (every node idle below `want`) from a stalled node thread
/// (no answer) from a cluster still electing (terms climbing, no leader).
fn stall_report(cluster: &LiveCluster<String>, waited_for: &str, want: usize) -> String {
    let mut report =
        format!("{waited_for}: waited {QUIESCE_TIMEOUT:?} for {want} distinct commands");
    for id in cluster.node_ids() {
        let line = match cluster.inspect(id, Duration::from_secs(1)) {
            Some(s) => format!(
                "\n  node {id}: {:?} term {} commit_index {} last_index {} applied {} ({} distinct)",
                s.role,
                s.term,
                s.commit_index,
                s.last_log_index,
                s.applied.len(),
                dedup_applied(&s.applied).len(),
            ),
            None if cluster.is_running(id) => format!("\n  node {id}: inspect did not answer"),
            None => format!("\n  node {id}: not running"),
        };
        report.push_str(&line);
    }
    report
}

/// How long the drill's client waits for a command it sent to show up as
/// applied before it sends it again (module docs).
const RETRY_AFTER: Duration = Duration::from_millis(250);

/// Blocks until the last of the `sent` commands is applied on some running
/// replica — and with it, as the client confirms in order, all before it.
fn confirm_last(cluster: &LiveCluster<String>, sent: usize) {
    let Some(last) = sent.checked_sub(1) else {
        return;
    };
    let wanted = command(last);
    let deadline = Instant::now() + QUIESCE_TIMEOUT;
    let applied_somewhere = || {
        cluster.node_ids().into_iter().any(|id| {
            cluster
                .inspect(id, Duration::from_millis(100))
                .is_some_and(|snap| snap.applied.contains(&wanted))
        })
    };
    loop {
        let seen = poll(Instant::now() + RETRY_AFTER, POLL, || {
            applied_somewhere().then_some(())
        });
        if seen.is_some() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{}",
            stall_report(cluster, &format!("confirming `{wanted}`"), sent)
        );
        cluster
            .propose_blocking(wanted.clone(), PROPOSE_TIMEOUT)
            .expect("re-sent proposal accepted");
    }
}

/// Sends command `i` once every command before it is confirmed applied.
fn propose_in_order(cluster: &LiveCluster<String>, i: usize) {
    confirm_last(cluster, i);
    cluster
        .propose_blocking(command(i), PROPOSE_TIMEOUT)
        .expect("proposal accepted");
}

const PROPOSE_TIMEOUT: Duration = Duration::from_secs(20);
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(30);
const POLL: Duration = Duration::from_millis(5);

/// The command stream; unique payloads so first-application order is
/// recoverable under at-least-once client retries.
fn command(i: usize) -> String {
    format!("cell-{i}: acc += grad[{i}]")
}

/// Runs the uninterrupted golden cluster over the same command stream and
/// returns its canonical committed bytes.
fn golden_run(opts: &ChaosOpts) -> (Vec<String>, Vec<u8>) {
    let cluster = LiveCluster::<String>::start(opts.replicas);
    for i in 0..opts.commands {
        propose_in_order(&cluster, i);
    }
    confirm_last(&cluster, opts.commands);
    let deadline = Instant::now() + QUIESCE_TIMEOUT;
    let snap = poll(deadline, POLL, || {
        let snap = cluster.inspect(1, Duration::from_secs(1))?;
        (dedup_applied(&snap.applied).len() == opts.commands).then_some(snap)
    })
    .unwrap_or_else(|| panic!("{}", stall_report(&cluster, "golden run", opts.commands)));
    cluster.shutdown();
    let golden = dedup_applied(&snap.applied);
    let bytes = encode_commands(&golden);
    (golden, bytes)
}

/// Runs the full drill; see the module docs for the shape.
///
/// # Panics
///
/// Panics if the drill infrastructure itself fails (cluster threads dying,
/// timeouts): those are harness bugs, not state divergence — divergence is
/// reported via [`ChaosReport::state_match`].
pub fn run_chaos_drill(opts: &ChaosOpts) -> ChaosReport {
    assert!(opts.replicas >= 3, "need a quorum-capable cluster");
    assert!(opts.cycles >= 1 && opts.commands >= opts.cycles);

    let (golden, golden_bytes) = golden_run(opts);

    let dir = opts.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "notebookos-chaos-{}-{}",
            std::process::id(),
            opts.seed
        ))
    });
    let _ = std::fs::remove_dir_all(&dir);
    let wal_options = WalOptions {
        fsync_batch: opts.fsync_batch,
    };
    let mut cluster = LiveCluster::<String>::start_durable(opts.replicas, &dir, wal_options);
    let ids = cluster.node_ids();

    // §3.2.5 wiring: one kernel, R replicas, heartbeat detector.
    let kernel = 1u64;
    let replica_of = |id: NodeId| ReplicaId::new(kernel, id as u32);
    let epoch = Instant::now();
    let now_us = || epoch.elapsed().as_micros() as u64;
    let mut detector = FailureDetector::new(opts.detect_timeout.as_micros() as u64);
    for &id in &ids {
        detector.register(replica_of(id), now_us());
    }

    let mut jitter = Jitter(opts.seed | 1);
    let mut recovery = RecoveryBreakdown::new(format!(
        "chaos seed={} fsync_batch={}",
        opts.seed, opts.fsync_batch
    ));
    let mut cycle_latencies = Vec::new();
    let mut killed: HashSet<NodeId> = HashSet::new();
    let mut next_cmd = 0usize;
    let per_cycle = opts.commands / opts.cycles;

    let propose_n = |cluster: &LiveCluster<String>, next_cmd: &mut usize, n: usize| {
        for _ in 0..n {
            if *next_cmd >= opts.commands {
                return;
            }
            propose_in_order(cluster, *next_cmd);
            *next_cmd += 1;
        }
    };

    for cycle in 0..opts.cycles {
        // Round-robin victims guarantee everyone dies at least once; the
        // kill lands at a jittered point inside the cycle's stream.
        let victim = ids[cycle % ids.len()];
        let before_kill = (jitter.next() as usize) % per_cycle.max(1);
        propose_n(&cluster, &mut next_cmd, before_kill);
        std::thread::sleep(Duration::from_micros(jitter.next() % 3_000));

        let t_kill = Instant::now();
        assert!(cluster.kill(victim), "victim {victim} was running");

        // Detection: live replicas keep heartbeating (inspect responses
        // stand in for the schedulers' liveness traffic); the victim goes
        // silent and trips the timeout window.
        let t_detected = poll(t_kill + QUIESCE_TIMEOUT, POLL, || {
            for &id in &ids {
                if cluster.is_running(id)
                    && cluster.inspect(id, Duration::from_millis(100)).is_some()
                {
                    detector.heartbeat(replica_of(id), now_us());
                }
            }
            let failed = detector.tick(now_us());
            failed.contains(&replica_of(victim)).then(Instant::now)
        })
        .expect("detector declared the victim failed");
        let detect_ms = (t_detected - t_kill).as_secs_f64() * 1e3;

        let failed = detector.failed_replicas_of(kernel);
        assert_eq!(
            recovery_action(&failed, opts.replicas as u32),
            RecoveryAction::RecreateReplica(replica_of(victim)),
            "single failure with quorum intact recreates the replica"
        );

        // Failover: the surviving quorum must accept the next command.
        propose_n(&cluster, &mut next_cmd, 1);
        let failover_ms = t_detected.elapsed().as_secs_f64() * 1e3;

        // The rest of the cycle's stream runs against the degraded
        // cluster before the replica comes back.
        propose_n(
            &cluster,
            &mut next_cmd,
            per_cycle.saturating_sub(before_kill + 1),
        );

        // Recreate: restart() re-invokes the WAL factory, so open+replay
        // cost is exactly the restart call.
        let t_restart = Instant::now();
        assert!(cluster.restart(victim), "victim restarts");
        let replay_ms = t_restart.elapsed().as_secs_f64() * 1e3;
        detector.register(replica_of(victim), now_us());

        // Catch-up: the replica re-applies everything committed so far —
        // every command sent, once the last of them is confirmed.
        confirm_last(&cluster, next_cmd);
        let target = next_cmd;
        poll(t_restart + QUIESCE_TIMEOUT, POLL, || {
            let snap = cluster.inspect(victim, Duration::from_secs(1))?;
            (dedup_applied(&snap.applied).len() >= target).then_some(())
        })
        .unwrap_or_else(|| {
            let waited_for = format!("restarted replica {victim} catching up");
            panic!("{}", stall_report(&cluster, &waited_for, target))
        });
        let catch_up_ms = t_restart.elapsed().as_secs_f64() * 1e3 - replay_ms;
        let total_ms = t_kill.elapsed().as_secs_f64() * 1e3;

        killed.insert(victim);
        recovery.record_phase(RecoveryPhase::Detect, detect_ms);
        recovery.record_phase(RecoveryPhase::Failover, failover_ms);
        recovery.record_phase(RecoveryPhase::Replay, replay_ms);
        recovery.record_phase(RecoveryPhase::CatchUp, catch_up_ms);
        recovery.record_total(total_ms);
        cycle_latencies.push(CycleLatency {
            victim,
            detect_ms,
            failover_ms,
            replay_ms,
            catch_up_ms,
            total_ms,
        });
    }

    // Drain any remaining stream and quiesce every replica on the full
    // golden prefix.
    propose_n(&cluster, &mut next_cmd, opts.commands);
    confirm_last(&cluster, next_cmd);
    let deadline = Instant::now() + QUIESCE_TIMEOUT;
    let mut snapshots: Vec<NodeSnapshot<String>> = Vec::new();
    for &id in &ids {
        let snap = poll(deadline, POLL, || {
            let snap = cluster.inspect(id, Duration::from_secs(1))?;
            (dedup_applied(&snap.applied).len() >= golden.len()).then_some(snap)
        })
        .unwrap_or_else(|| {
            let waited_for = format!("replica {id} converging");
            panic!("{}", stall_report(&cluster, &waited_for, golden.len()))
        });
        snapshots.push(snap);
    }
    cluster.shutdown();

    // Byte-for-byte verdict.
    let mut duplicates = 0u64;
    let mut state_match = true;
    let mut mismatch = None;
    let raw_reference = &snapshots[0].applied;
    for snap in &snapshots {
        let deduped = dedup_applied(&snap.applied);
        duplicates += (snap.applied.len() - deduped.len()) as u64;
        let bytes = encode_commands(&deduped);
        if bytes != golden_bytes {
            state_match = false;
            let diverged = deduped
                .iter()
                .zip(&golden)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| deduped.len().min(golden.len()));
            mismatch.get_or_insert(format!(
                "replica {} recovered {} commands vs golden {} (first divergence at #{diverged})",
                snap.id,
                deduped.len(),
                golden.len(),
            ));
        }
        // Replicas must agree on the raw sequence too: a replica that
        // "recovers" by inventing or reordering duplicates is divergent
        // even if deduplication hides it.
        if &snap.applied != raw_reference && state_match {
            state_match = false;
            mismatch.get_or_insert(format!(
                "replica {} raw applied sequence disagrees with replica {}",
                snap.id, snapshots[0].id,
            ));
        }
    }

    let fsync_cost =
        measure_wal_fsync_cost(&dir, 256).expect("fsync cost probe on the WAL directory");
    let _ = std::fs::remove_dir_all(&dir);

    ChaosReport {
        opts: opts.clone(),
        cycle_latencies,
        recovery,
        replicas_killed: killed.len(),
        golden_commands: golden.len(),
        duplicates,
        state_match,
        mismatch,
        fsync_cost,
    }
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
        let json = report.to_json();
        assert_eq!(json.get("state_match").and_then(Json::as_bool), Some(true));
        assert!(report.render().contains("STATE MATCH"));
    }
}
