//! `raft-mem` and `raft-wal`: three `RaftNode`s driven by the benchmark's
//! own single-thread loop. Delivery is FIFO with **zero injected delay**,
//! so every latency here is processor (and, on the WAL, disk) time only.
//! The virtual clock advances 1 ms only when no message is in flight, so
//! under the closed loop it stands still: no heartbeat, no election
//! timeout, and every count repeats exactly for a seed.
//!
//! `raft-wal` runs on `WalOptions { fsync_batch: 1 }`: an fsync on every
//! node input that wrote. This box's disk gave 1050, 1660, 2700 and 3080
//! commits/s that way in four sweeps over two hours, so no bound holds on
//! a time that contains the fsyncs. The gated times of `raft-wal` therefore
//! leave out what [`TimedStorage`] clocked inside `sync` calls that had
//! something to flush; the times with the fsyncs in are the ungated
//! `raft.wal.*`, and the fsyncs themselves are counted exactly
//! (`raft.storage.fsyncs_per_commit`).

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use notebookos_raft::{
    Entry, LogIndex, MemStorage, Membership, Message, NodeId, Output, RaftConfig, RaftNode,
    RaftStorage, RecoveredState, Role, Term, WalOptions, WalStats, WalStorage,
};

use crate::harness::{measure, set_end_to_end, write_trace, Off, Opts, PassReport, Passes, Probe};
use crate::inputs::{self, size};
use crate::probes;
use crate::report::Outcome;
use crate::span::{Op, Tracer};
use crate::stats::{lowest, median, median_ns, supports};

type Command = Vec<u8>;

/// Where the nodes keep their logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Backing {
    /// `MemStorage`: storage does nothing.
    Mem,
    /// `WalStorage` with an fsync per input that wrote, one file per node
    /// in a directory of its own per group under this one.
    Wal(PathBuf),
}

/// What a [`TimedStorage`] shares with the driver: the time spent so far
/// in `sync` calls that had something to flush, whether the node input in
/// progress is one of the traced ones, the storage calls timed since the
/// driver last collected them, and the latest `WalStats` copied out.
#[derive(Debug, Default)]
pub struct StorageLog {
    flush_ns: AtomicU64,
    armed: AtomicBool,
    calls: Mutex<Vec<(Op, u64, u64)>>,
    wal: Mutex<Option<WalStats>>,
}

/// Storages that can report WAL counters.
pub trait WalCounters {
    /// The WAL's counters; `None` for storages without a WAL.
    fn wal_stats(&self) -> Option<WalStats>;
}

impl WalCounters for MemStorage {
    fn wal_stats(&self) -> Option<WalStats> {
        None
    }
}

impl WalCounters for WalStorage<Command> {
    fn wal_stats(&self) -> Option<WalStats> {
        Some(self.stats())
    }
}

/// A `RaftStorage` that wraps the real one. It always clocks the `sync`
/// calls that follow a write (on a WAL with an fsync per input, exactly the
/// calls that wait for the disk), and while the driver has it armed it
/// times every trait call. The node owns its storage behind a `Box`, so
/// the wrapper cannot hold the tracer; it stamps calls against the tracer's
/// epoch into a shared log the driver empties into [`Tracer::leaf`] after
/// each node input.
#[derive(Debug)]
pub struct TimedStorage<S: WalCounters> {
    inner: S,
    epoch: Instant,
    log: Arc<StorageLog>,
    /// Written to since the last `sync`.
    dirty: bool,
}

impl<S: WalCounters> TimedStorage<S> {
    fn timed<T>(&mut self, op: Op, call: impl FnOnce(&mut S) -> T) -> T {
        // `armed` is a plain flag the single driver thread sets around a
        // node input; it publishes no other data.
        if !self.log.armed.load(Ordering::Relaxed) {
            return call(&mut self.inner);
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        let result = call(&mut self.inner);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.log
            .calls
            .lock()
            .expect("the driver thread is the only locker")
            .push((op, start, end));
        result
    }
}

/// The WAL's counters are copied out when the node lets go of its storage,
/// which is the only moment they are final.
impl<S: WalCounters> Drop for TimedStorage<S> {
    fn drop(&mut self) {
        if let Ok(mut wal) = self.log.wal.lock() {
            *wal = self.inner.wal_stats();
        }
    }
}

impl<S: RaftStorage<Command> + WalCounters> RaftStorage<Command> for TimedStorage<S> {
    fn replay(&mut self) -> RecoveredState<Command> {
        self.inner.replay()
    }

    fn persist_hard_state(&mut self, term: Term, voted_for: Option<NodeId>) {
        self.dirty = true;
        self.timed(Op::StoreHardState, |s| {
            s.persist_hard_state(term, voted_for)
        });
    }

    fn append_entries(&mut self, entries: &[Entry<Command>]) {
        self.dirty = true;
        self.timed(Op::StoreAppend, |s| s.append_entries(entries));
    }

    fn truncate_suffix(&mut self, to: LogIndex) {
        self.dirty = true;
        self.timed(Op::StoreTruncate, |s| s.truncate_suffix(to));
    }

    fn sync(&mut self) {
        if !std::mem::take(&mut self.dirty) {
            return self.timed(Op::StoreSync, |s| s.sync());
        }
        let t = Instant::now();
        self.timed(Op::StoreSync, |s| s.sync());
        // A running total only the driver thread reads; it publishes
        // nothing else.
        self.log
            .flush_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn durable_index(&self) -> LogIndex {
        self.inner.durable_index()
    }
}

/// What the driver counted while delivering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Messages sent, all kinds.
    pub messages: u64,
    /// `AppendEntries` sent.
    pub appends: u64,
    /// `AppendEntries` sent with no entries.
    pub empty_appends: u64,
    /// Entries carried by all `AppendEntries`.
    pub entries_shipped: u64,
    /// Times any node became a candidate.
    pub elections: u64,
    /// Longest the in-flight queue got.
    pub queue_depth_max: u64,
    /// Proposals a node refused.
    pub refused: u64,
}

/// A reading of the two clocks a pass is timed on: the wall, and the time
/// the group's storages have spent flushing.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    at: Instant,
    flush_ns: u64,
}

impl Stamp {
    /// `(wall, wall outside flushes)` since `earlier`, ns.
    fn since(self, earlier: Stamp) -> (u64, u64) {
        let wall = self.at.duration_since(earlier.at).as_nanos() as u64;
        (wall, wall.saturating_sub(self.flush_ns - earlier.flush_ns))
    }
}

/// Three nodes, the messages in flight between them, and the virtual
/// clock.
pub struct Group {
    nodes: Vec<RaftNode<Command>>,
    queue: VecDeque<(NodeId, NodeId, Message<Command>)>,
    now_us: u64,
    out: Vec<Output<Command>>,
    /// Sequence numbers each node applied, in apply order.
    applied: Vec<Vec<u64>>,
    counts: Counts,
    storage_logs: Vec<Arc<StorageLog>>,
    /// Node inputs fed so far; every [`SAMPLE_EVERY`]-th is traced.
    inputs: u64,
    /// When each command was proposed, by sequence number.
    proposed_at: Vec<Stamp>,
    /// Propose → apply-at-leader time of each command, ns: the wall, and
    /// the wall outside flushes.
    latencies: Vec<(u32, u32)>,
    /// The start of the timed loop and every [`CHUNK_COMMITS`]-th apply at
    /// the leader.
    stamps: Vec<Stamp>,
    leader: Option<usize>,
    /// Where this group's WALs are; removed when the group is dropped.
    wal_dir: Option<PathBuf>,
}

/// Numbers the WAL directories of a run, so that set-up creates a fresh
/// one instead of paying to delete the previous pass's (a millisecond of
/// file-system work that swamped everything else in `setup_s`).
static WAL_DIRS: AtomicUsize = AtomicUsize::new(0);

impl Drop for Group {
    fn drop(&mut self) {
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

const NODES: usize = 3;
/// With tracing on, one node input in this many is traced. Timing every
/// input (and the storage calls under it) slowed `raft-mem` by a third;
/// at one in sixteen the overhead is a few percent. Untraced runs never
/// sample.
const SAMPLE_EVERY: u64 = 16;
/// Commits per timing chunk (about 1 ms at the rates measured here; the
/// stamp is the one every apply at the leader takes anyway).
const CHUNK_COMMITS: usize = 10;
/// Idle 1 ms steps allowed before a phase is declared stuck (an election
/// needs at most 300 of them, a heartbeat 50).
const MAX_IDLE_STEPS: usize = 20_000;

/// Physical fsyncs the dropped storages reported, summed over the nodes.
fn fsyncs(logs: &[Arc<StorageLog>]) -> u64 {
    logs.iter()
        .filter_map(|log| log.wal.lock().ok()?.map(|w| w.fsyncs))
        .sum()
}

fn wal_path(dir: &Path, node: usize) -> PathBuf {
    dir.join(format!("node-{node}.wal"))
}

fn saturating_u32(ns: u64) -> u32 {
    ns.min(u64::from(u32::MAX)) as u32
}

impl Group {
    /// Builds the three nodes on fresh storage. A WAL is always wrapped in
    /// a [`TimedStorage`] (its flushes are clocked); with `epoch` set (the
    /// traced run) so is a `MemStorage`, and the wrappers stamp against it.
    ///
    /// # Errors
    ///
    /// Fails when the WAL directory or files cannot be created.
    pub fn new(backing: &Backing, seed: u64, epoch: Option<Instant>) -> std::io::Result<Group> {
        let wal_dir = match backing {
            Backing::Mem => None,
            Backing::Wal(parent) => {
                let pass = WAL_DIRS.fetch_add(1, Ordering::Relaxed);
                let dir = parent.join(format!("pass-{pass}"));
                std::fs::create_dir_all(&dir)?;
                Some(dir)
            }
        };
        let membership = Membership::new((1..=NODES as NodeId).collect());
        let mut storage_logs = Vec::new();
        let mut nodes = Vec::new();
        for n in 0..NODES {
            let log = Arc::new(StorageLog::default());
            let storage: Box<dyn RaftStorage<Command>> = match (&wal_dir, epoch) {
                (Some(dir), _) => Box::new(TimedStorage {
                    inner: WalStorage::open_with(wal_path(dir, n), WalOptions { fsync_batch: 1 })?,
                    epoch: epoch.unwrap_or_else(Instant::now),
                    log: log.clone(),
                    dirty: false,
                }),
                (None, Some(epoch)) => Box::new(TimedStorage {
                    inner: MemStorage::new(),
                    epoch,
                    log: log.clone(),
                    dirty: false,
                }),
                (None, None) => Box::new(MemStorage::new()),
            };
            storage_logs.push(log);
            nodes.push(RaftNode::with_storage(
                n as NodeId + 1,
                membership.clone(),
                RaftConfig::default(),
                seed,
                0,
                storage,
            ));
        }
        Ok(Group {
            nodes,
            queue: VecDeque::new(),
            now_us: 0,
            out: Vec::new(),
            applied: vec![Vec::new(); NODES],
            counts: Counts::default(),
            storage_logs,
            inputs: 0,
            proposed_at: Vec::new(),
            latencies: Vec::new(),
            stamps: Vec::new(),
            leader: None,
            wal_dir,
        })
    }

    fn stamp(&self) -> Stamp {
        Stamp {
            at: Instant::now(),
            flush_ns: self
                .storage_logs
                .iter()
                .map(|log| log.flush_ns.load(Ordering::Relaxed))
                .sum(),
        }
    }

    /// Feeds node `n` one input. When tracing, every [`SAMPLE_EVERY`]-th
    /// input runs inside an `op` span with the node's storage armed, and
    /// the storage calls it made become that span's children.
    fn feed<T>(
        &mut self,
        n: usize,
        op: Op,
        probe: &mut impl Probe,
        input: impl FnOnce(&mut RaftNode<Command>, &mut Vec<Output<Command>>) -> T,
    ) -> T {
        self.inputs += 1;
        if probe.tracer().is_none() || !self.inputs.is_multiple_of(SAMPLE_EVERY) {
            return input(&mut self.nodes[n], &mut self.out);
        }
        let log = &self.storage_logs[n];
        log.armed.store(true, Ordering::Relaxed);
        probe.enter(op);
        let result = input(&mut self.nodes[n], &mut self.out);
        log.armed.store(false, Ordering::Relaxed);
        if let Some(tracer) = probe.tracer() {
            let mut calls = log
                .calls
                .lock()
                .expect("the driver thread is the only locker");
            for (op, start, end) in calls.drain(..) {
                tracer.leaf(op, start, end);
            }
        }
        probe.exit();
        result
    }

    /// Routes node `n`'s outputs: sends join the queue, applies are
    /// recorded (and timed at the leader), candidacies are counted.
    fn dispatch(&mut self, n: usize) {
        let from = n as NodeId + 1;
        let mut out = std::mem::take(&mut self.out);
        for output in out.drain(..) {
            match output {
                Output::Send { to, message } => {
                    self.counts.messages += 1;
                    if let Message::AppendEntries { entries, .. } = &message {
                        self.counts.appends += 1;
                        self.counts.empty_appends += u64::from(entries.is_empty());
                        self.counts.entries_shipped += entries.len() as u64;
                    }
                    self.queue.push_back((from, to, message));
                }
                Output::Apply(entry) => {
                    let Some(seq) = entry.command().and_then(|c| inputs::raft_command_seq(c))
                    else {
                        continue;
                    };
                    self.applied[n].push(seq);
                    if self.leader == Some(n) {
                        if let Some(&proposed) = self.proposed_at.get(seq as usize) {
                            let now = self.stamp();
                            let (wall, outside) = now.since(proposed);
                            self.latencies
                                .push((saturating_u32(wall), saturating_u32(outside)));
                            if self.applied[n].len().is_multiple_of(CHUNK_COMMITS) {
                                self.stamps.push(now);
                            }
                        }
                    }
                }
                Output::RoleChanged { role, .. } => {
                    self.counts.elections += u64::from(role == Role::Candidate);
                    match role {
                        Role::Leader => self.leader = Some(n),
                        _ if self.leader == Some(n) => self.leader = None,
                        _ => {}
                    }
                }
            }
        }
        self.out = out;
        self.counts.queue_depth_max = self.counts.queue_depth_max.max(self.queue.len() as u64);
    }

    /// Delivers the oldest in-flight message, if any.
    fn deliver(&mut self, probe: &mut impl Probe) -> bool {
        let Some((from, to, message)) = self.queue.pop_front() else {
            return false;
        };
        let n = to as usize - 1;
        let op = match &message {
            Message::AppendEntries { .. } => Op::RaftRecvAppend,
            Message::AppendEntriesResponse { .. } => Op::RaftRecvAppendResp,
            _ => Op::RaftRecvVote,
        };
        let now_us = self.now_us;
        self.feed(n, op, probe, |node, out| {
            node.receive(now_us, from, message, out)
        });
        self.dispatch(n);
        true
    }

    /// Nothing in flight: the virtual clock moves 1 ms and every node
    /// whose deadline has passed ticks.
    fn idle_step(&mut self, probe: &mut impl Probe) {
        self.now_us += 1000;
        for n in 0..NODES {
            if self.nodes[n].next_deadline_us() <= self.now_us {
                let now_us = self.now_us;
                self.feed(n, Op::RaftTick, probe, |node, out| node.tick(now_us, out));
                self.dispatch(n);
            }
        }
    }

    /// Delivers and idles until `done`; `false` if it never came.
    fn run_until(&mut self, probe: &mut impl Probe, done: impl Fn(&Group) -> bool) -> bool {
        let mut idle = 0;
        while !done(self) {
            if !self.deliver(probe) {
                idle += 1;
                if idle > MAX_IDLE_STEPS {
                    return false;
                }
                self.idle_step(probe);
            }
        }
        true
    }

    /// Set-up: runs the group until one node leads and the wire is quiet
    /// (its no-op has gone out and been answered).
    pub fn elect(&mut self, probe: &mut impl Probe) -> bool {
        self.run_until(probe, |g| g.leader.is_some() && g.queue.is_empty())
    }

    /// The timed closed loop: keeps [`size::RAFT_OUTSTANDING`] proposals
    /// outstanding at the leader until all of `commands` are applied
    /// there. Returns `false` if the group stalled or refused a proposal.
    pub fn replicate(&mut self, commands: &[Command], probe: &mut impl Probe) -> bool {
        let Some(leader) = self.leader else {
            return false;
        };
        self.proposed_at.reserve(commands.len());
        self.latencies.reserve(commands.len());
        self.stamps.push(self.stamp());
        let mut idle = 0;
        while self.applied[leader].len() < commands.len() {
            while self.proposed_at.len() < commands.len()
                && self.proposed_at.len() - self.applied[leader].len() < size::RAFT_OUTSTANDING
            {
                let command = commands[self.proposed_at.len()].clone();
                self.proposed_at.push(self.stamp());
                let proposed = self.feed(leader, Op::RaftPropose, probe, |node, out| {
                    node.propose(command, out)
                });
                if proposed.is_err() {
                    self.counts.refused += 1;
                    return false;
                }
                self.dispatch(leader);
            }
            if !self.deliver(probe) {
                idle += 1;
                if idle > MAX_IDLE_STEPS {
                    return false;
                }
                self.idle_step(probe);
            }
        }
        if !commands.len().is_multiple_of(CHUNK_COMMITS) {
            self.stamps.push(self.stamp());
        }
        true
    }

    /// After the timed loop: lets heartbeats carry the commit index until
    /// every node has applied `count` commands.
    pub fn settle(&mut self, count: usize, probe: &mut impl Probe) -> bool {
        self.run_until(probe, |g| g.applied.iter().all(|a| a.len() >= count))
    }

    /// The Raft output check: every node applied exactly the proposed
    /// sequence, in order, and holds exactly those commands in its log.
    pub fn check_applied(&self, commands: &[Command]) -> Vec<String> {
        let mut violations = Vec::new();
        let expected: Vec<u64> = (0..commands.len() as u64).collect();
        for (n, node) in self.nodes.iter().enumerate() {
            if self.applied[n] != expected {
                violations.push(format!(
                    "node {} applied {} commands, not the {} proposed in order",
                    n + 1,
                    self.applied[n].len(),
                    commands.len()
                ));
            }
            if !node
                .log()
                .iter()
                .filter_map(Entry::command)
                .eq(commands.iter())
            {
                violations.push(format!(
                    "node {}'s log differs from the proposed commands",
                    n + 1
                ));
            }
        }
        if self.counts.refused > 0 {
            violations.push(format!("{} proposals refused", self.counts.refused));
        }
        violations
    }

    /// The WAL output check: every node has acknowledged its whole log as
    /// durable (it fsyncs on every input that wrote), and its file,
    /// reopened, replays exactly that log. Nothing to check on
    /// `MemStorage`.
    pub fn check_wal_replay(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let Some(dir) = &self.wal_dir else {
            return violations;
        };
        for (n, node) in self.nodes.iter().enumerate() {
            let held = node.log().iter().count();
            let acknowledged = node.durable_index() as usize;
            if acknowledged != held {
                violations.push(format!(
                    "node {}: acknowledged {acknowledged} of the {held} entries it holds as durable",
                    n + 1
                ));
            }
            match WalStorage::<Command>::open_with(wal_path(dir, n), WalOptions::default()) {
                Ok(mut wal) => {
                    let replayed = wal.replay().entries;
                    if !node.log().iter().eq(replayed.iter()) {
                        violations.push(format!(
                            "node {}: WAL replays {} entries, not the {held} it acknowledged",
                            n + 1,
                            replayed.len()
                        ));
                    }
                }
                Err(e) => violations.push(format!("node {}: cannot reopen WAL: {e}", n + 1)),
            }
        }
        violations
    }
}

/// What one pass measured.
struct PassResult {
    /// Wall seconds outside flushes of each chunk of [`CHUNK_COMMITS`]
    /// commits — on `MemStorage`, simply its wall.
    chunk_walls: Vec<f64>,
    /// Wall seconds of the whole timed loop, flushes included.
    wall_s: f64,
    /// Propose → apply latency at the leader of each command outside
    /// flushes, ns.
    latencies_ns: Vec<u32>,
    /// Median latency with the flushes in, ns.
    wall_p50_ns: f64,
    /// Seconds of the set-up spent in flushes.
    setup_flush_s: f64,
    counts: Counts,
    violations: Vec<String>,
    group: Group,
}

/// Set-up of one pass: fresh storage, three nodes, a leader.
fn setup(backing: &Backing, probe: &mut impl Probe) -> Result<Group, String> {
    let epoch = probe.tracer().map(|t| t.epoch());
    let mut group = Group::new(backing, inputs::RAFT_NODE_SEED, epoch)
        .map_err(|e| format!("cannot create storage: {e}"))?;
    if group.elect(probe) {
        Ok(group)
    } else {
        Err("no leader elected".to_string())
    }
}

/// One pass over an elected group: the timed closed loop, then the
/// untimed settle and the output checks.
fn pass(mut group: Group, commands: &[Command], probe: &mut impl Probe) -> PassResult {
    let setup_flush_s = group.stamp().flush_ns as f64 / 1e9;
    let replicated = group.replicate(commands, probe);
    let spans = group.stamps.windows(2).map(|w| w[1].since(w[0]));
    let (walls, chunk_walls): (Vec<u64>, Vec<f64>) = spans
        .map(|(wall, outside)| (wall, outside as f64 / 1e9))
        .unzip();
    let counts = group.counts;
    let mut violations = Vec::new();
    if !replicated {
        violations.push("the group stalled or refused a proposal".to_string());
    } else if !group.settle(commands.len(), probe) {
        violations.push("followers never caught up".to_string());
    }
    violations.extend(group.check_applied(commands));
    violations.extend(group.check_wal_replay());
    let (mut walls_ns, latencies_ns): (Vec<u32>, Vec<u32>) =
        group.latencies.iter().copied().unzip();
    PassResult {
        chunk_walls,
        wall_s: walls.iter().sum::<u64>() as f64 / 1e9,
        latencies_ns,
        wall_p50_ns: median_ns(&mut walls_ns),
        setup_flush_s,
        counts,
        violations,
        group,
    }
}

/// The workload's backing. For the WAL, whatever an earlier run left under
/// its directory is removed first: a stale file would be replayed into a
/// new node.
fn fresh_backing(wal: bool, opts: &Opts, name: &str) -> Backing {
    if !wal {
        return Backing::Mem;
    }
    let parent = opts.out_dir.join(format!("wal-{name}"));
    let _ = std::fs::remove_dir_all(&parent);
    Backing::Wal(parent)
}

/// What a run is made from: where the logs go, and the seed and number of
/// the commands a pass proposes.
struct Load {
    backing: Backing,
    seed: u64,
    commits: usize,
}

/// One phase of a run: set-up → pass for `budget_s`. Set-up is everything
/// before the closed loop: the pass's commands are generated, the storage
/// created, the nodes built and a leader elected. A pass's commits all
/// count as failed if any output check broke. `keep` sees every pass's
/// result after it has been tallied.
fn passes(
    load: &Load,
    budget_s: f64,
    warm_up: bool,
    probe: &mut impl Probe,
    outcome: &mut Outcome,
    mut keep: impl FnMut(PassResult),
) -> Passes {
    measure(
        probe,
        budget_s,
        warm_up,
        outcome,
        |probe| {
            let commands = inputs::raft_commands(load.commits, load.seed);
            Ok((setup(&load.backing, probe)?, commands))
        },
        |(group, commands), probe| {
            let mut result = pass(group, &commands, probe);
            let commits = load.commits as u64;
            let report = PassReport {
                ops: commits,
                failed: if result.violations.is_empty() {
                    0
                } else {
                    commits
                },
                violations: std::mem::take(&mut result.violations),
                chunk_walls: std::mem::take(&mut result.chunk_walls),
                latencies_ns: std::mem::take(&mut result.latencies_ns),
                setup_left_out_s: result.setup_flush_s,
            };
            keep(result);
            report
        },
    )
}

/// Runs the workload: end to end (untraced), or layer by layer (traced).
pub fn run(wal: bool, name: &'static str, traced: bool, opts: &Opts) -> Outcome {
    let load = Load {
        backing: fresh_backing(wal, opts, name),
        seed: opts.seed,
        commits: inputs::scaled(size::RAFT_COMMITS, opts.smoke, 100),
    };
    let mut outcome = if traced {
        run_traced(&load, name, opts)
    } else {
        let mut outcome = Outcome::new(name, false);
        let p = passes(
            &load,
            opts.seconds,
            !opts.smoke,
            &mut Off,
            &mut outcome,
            drop,
        );
        set_end_to_end(&mut outcome, load.commits as u64, &p);
        outcome
    };
    outcome.notes.push(format!(
        "op = one commit (propose to apply at the leader), {} per pass, {} outstanding, zero injected message delay: latency is processor time only",
        load.commits,
        size::RAFT_OUTSTANDING,
    ));
    if let Backing::Wal(dir) = &load.backing {
        outcome.notes.push(
            "WAL fsync_batch 1; times leave out what sync calls that had something to flush took (with it: the traced run's raft.wal.*)"
                .to_string(),
        );
        // The WALs have been checked; leave nothing behind but traces.
        let _ = std::fs::remove_dir_all(dir);
    }
    outcome
}

/// The per-layer run: untraced reference passes, traced passes on the same
/// inputs, then the batched probes of `RaftLog`.
fn run_traced(load: &Load, name: &'static str, opts: &Opts) -> Outcome {
    let mut outcome = Outcome::new(name, true);
    probes::machine(&mut outcome);
    let commits = load.commits as f64;
    let third = opts.seconds / 3.0;

    let (mut walls, mut wall_p50s) = (Vec::new(), Vec::new());
    let untraced = passes(load, third, !opts.smoke, &mut Off, &mut outcome, |r| {
        walls.push(r.wall_s);
        wall_p50s.push(r.wall_p50_ns);
    });
    let reference_passes = untraced.chunks.len();
    if !supports(load.commits, 99.0) {
        outcome.notes.push(format!(
            "raft.commit_p99_us: {} samples per pass leave fewer than ten beyond p99",
            load.commits
        ));
    }
    outcome.set(
        "raft.commit_p99_us",
        median(&untraced.p99_ns) / 1e3,
        (reference_passes * load.commits) as u64,
    );
    if load.backing != Backing::Mem {
        // With the flushes in, and the warm-up pass's too: ungated.
        let n = walls.len() as u64;
        outcome.set("raft.wal.commits_per_s", commits / lowest(&walls), n);
        outcome.set("raft.wal.commit_p50_us", lowest(&wall_p50s) / 1e3, n);
    }

    let mut tracer = Tracer::new();
    let mut traced_s = 0.0;
    let mut last = None;
    let traced = passes(load, third, false, &mut tracer, &mut outcome, |r| {
        traced_s += r.wall_s;
        last = Some(r);
    });
    let passes = traced.chunks.len() as u64;
    outcome.set(
        "trace_overhead_share",
        traced.best_wall() / untraced.best_wall() - 1.0,
        passes,
    );
    for (metric, op) in [
        ("raft.node.propose_ns", Op::RaftPropose),
        ("raft.node.recv_append_ns", Op::RaftRecvAppend),
        ("raft.node.recv_append_resp_ns", Op::RaftRecvAppendResp),
        ("raft.node.tick_ns", Op::RaftTick),
        ("raft.storage.append_ns", Op::StoreAppend),
        ("raft.storage.sync_ns", Op::StoreSync),
    ] {
        let calls = tracer.calls(op);
        outcome.set(metric, tracer.median_self_ns(op), calls);
    }
    if let Some(result) = last {
        // Counts of the last pass (set-up included); they repeat exactly
        // for a seed, so one pass speaks for all.
        let c = result.counts;
        outcome.set("raft.node.msgs_per_commit", c.messages as f64 / commits, 1);
        outcome.set(
            "raft.node.entries_shipped_per_commit",
            c.entries_shipped as f64 / commits,
            1,
        );
        outcome.set(
            "raft.node.empty_append_share",
            c.empty_appends as f64 / c.appends.max(1) as f64,
            c.appends,
        );
        outcome.set("raft.node.elections", c.elections as f64, 1);
        outcome.set("raft.node.queue_depth_max", c.queue_depth_max as f64, 1);
        // One input in SAMPLE_EVERY was traced, so sampled totals are
        // scaled back up.
        let scale = SAMPLE_EVERY as f64;
        outcome.set(
            "raft.storage.busy_share",
            scale * tracer.layer_self_ns("raft.storage") as f64 / (traced_s * 1e9),
            passes,
        );
        outcome.set(
            "raft.storage.syncs_per_commit",
            scale * tracer.calls(Op::StoreSync) as f64 / (commits * passes as f64),
            passes,
        );
        // The files first, while the group (which removes them when it
        // goes) is alive; then the counters, which the storages publish
        // only when the group drops them.
        if let Some(dir) = &result.group.wal_dir {
            let bytes: u64 = (0..NODES)
                .filter_map(|n| std::fs::metadata(wal_path(dir, n)).ok())
                .map(|m| m.len())
                .sum();
            outcome.set("raft.storage.bytes_per_commit", bytes as f64 / commits, 1);
            let t = Instant::now();
            let reopened =
                WalStorage::<Command>::open_with(wal_path(dir, 0), WalOptions::default());
            outcome.set("raft.storage.replay_s", t.elapsed().as_secs_f64(), 1);
            if reopened.is_err() {
                outcome.violate("cannot reopen node 1's WAL for the replay probe");
            }
            let logs = result.group.storage_logs.clone();
            drop(result);
            outcome.set(
                "raft.storage.fsyncs_per_commit",
                fsyncs(&logs) as f64 / commits,
                1,
            );
        }
    }
    outcome.notes.push(format!(
        "one node input in {SAMPLE_EVERY} was traced (timing every one slows raft-mem by a third); call counts are of the sampled inputs"
    ));

    let commands = inputs::raft_commands(load.commits, load.seed);
    probes::raft_layers(&commands, opts.smoke, &mut outcome);

    write_trace(&tracer, opts, &mut outcome);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()))
    }

    fn small_pass(backing: &Backing, probe: &mut impl Probe) -> (PassResult, Vec<Command>) {
        let commands = inputs::raft_commands(120, 5);
        let group = setup(backing, probe).expect("elects");
        (pass(group, &commands, probe), commands)
    }

    #[test]
    fn mem_pass_applies_everything_everywhere_and_counts_repeat() {
        let (a, commands) = small_pass(&Backing::Mem, &mut Off);
        assert_eq!(a.violations, Vec::<String>::new());
        assert_eq!(a.group.latencies.len(), commands.len());
        assert_eq!(a.chunk_walls.len(), commands.len().div_ceil(CHUNK_COMMITS));
        assert_eq!(a.latencies_ns.len(), commands.len());
        // Nothing flushes on `MemStorage`: both clocks read the same.
        assert_eq!(a.wall_p50_ns, median_ns(&mut a.latencies_ns.clone()));
        assert!((a.wall_s - a.chunk_walls.iter().sum::<f64>()).abs() < 1e-9);
        assert_eq!(a.setup_flush_s, 0.0);
        assert_eq!(a.counts.refused, 0);
        assert_eq!(a.counts.elections, 1);
        let (b, _) = small_pass(&Backing::Mem, &mut Off);
        assert_eq!(a.counts, b.counts, "virtual time: counts repeat exactly");
    }

    #[test]
    fn a_node_that_missed_a_command_is_a_violation() {
        let (mut result, commands) = small_pass(&Backing::Mem, &mut Off);
        result.group.applied[2].pop();
        let violations = result.group.check_applied(&commands);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("node 3 applied 119"));
        // Out of order is caught too.
        result.group.applied[2].push(0);
        assert_eq!(result.group.check_applied(&commands).len(), 1);
    }

    #[test]
    fn wal_pass_replays_what_it_acknowledged_and_a_flipped_byte_does_not() {
        let dir = temp_dir("flip");
        let backing = Backing::Wal(dir.clone());
        let (result, _) = small_pass(&backing, &mut Off);
        assert_eq!(result.violations, Vec::<String>::new());
        // The flushes were clocked and left out of the gated times.
        assert!(result.wall_s > result.chunk_walls.iter().sum::<f64>());
        assert!(result.wall_p50_ns > median_ns(&mut result.latencies_ns.clone()));
        assert!(result.setup_flush_s > 0.0);
        let group = result.group;
        assert!(group.nodes.iter().all(|n| n.durable_index() >= 120));
        assert!(group.check_wal_replay().is_empty());

        // Flip one byte in the middle of node 2's file: replay stops at
        // the corrupt record, short of what the node acknowledged.
        let path = wal_path(group.wal_dir.as_ref().expect("on the WAL"), 1);
        let mut bytes = std::fs::read(&path).expect("read wal");
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x40;
        std::fs::write(&path, bytes).expect("write wal");
        let violations = group.check_wal_replay();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("node 2: WAL replays"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn traced_wal_pass_nests_storage_calls_under_node_inputs() {
        let dir = temp_dir("traced");
        let mut tracer = Tracer::new();
        let (result, _) = small_pass(&Backing::Wal(dir.clone()), &mut tracer);
        assert_eq!(result.violations, Vec::<String>::new());
        // One input in SAMPLE_EVERY is traced, with the storage calls under it.
        let inputs: u64 = [
            Op::RaftPropose,
            Op::RaftRecvAppend,
            Op::RaftRecvAppendResp,
            Op::RaftRecvVote,
            Op::RaftTick,
        ]
        .iter()
        .map(|&op| tracer.calls(op))
        .sum();
        assert_eq!(inputs, result.group.inputs / SAMPLE_EVERY);
        assert_eq!(tracer.calls(Op::StoreSync), inputs, "one sync per input");
        assert!(tracer.calls(Op::StoreAppend) > 0);
        // Every storage span has a node-input parent.
        let inputs: std::collections::HashSet<u32> = tracer
            .kept()
            .iter()
            .filter(|s| s.op.layer() == "raft.node")
            .map(|s| s.id)
            .collect();
        assert!(tracer
            .kept()
            .iter()
            .filter(|s| s.op.layer() == "raft.storage")
            .all(|s| inputs.contains(&s.parent)));
        // The WALs' counters are published when the storages drop.
        let logs = result.group.storage_logs.clone();
        assert_eq!(fsyncs(&logs), 0);
        drop(result);
        assert!(fsyncs(&logs) > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
