//! Replication amplification, counted rather than timed.
//!
//! The floor for three nodes is four messages (two appends, two answers)
//! and two shipped entries per commit. The first test drives three
//! [`RaftNode`]s the way the perf ledger's `raft-mem` workload does — FIFO
//! delivery, no injected delay, sixteen proposals outstanding, a virtual
//! clock that only moves when the wire is empty — so every count repeats
//! exactly on any machine, and holds them to that floor at two log lengths.
//! The second loses one message in ten on the seeded harness and checks
//! that repair stays cheap.

use std::collections::VecDeque;

use notebookos_raft::harness::Network;
use notebookos_raft::{Membership, Message, NodeId, Output, RaftConfig, RaftNode, Role};

const NODES: usize = 3;
const OUTSTANDING: usize = 16;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    messages: u64,
    entries_shipped: u64,
    queue_depth_max: usize,
    elections: u64,
}

struct Group {
    nodes: Vec<RaftNode<u64>>,
    queue: VecDeque<(NodeId, NodeId, Message<u64>)>,
    now_us: u64,
    /// Commands each node applied, in order.
    applied: Vec<Vec<u64>>,
    leader: Option<usize>,
    counts: Counts,
}

impl Group {
    fn new() -> Group {
        let membership = Membership::new((1..=NODES as NodeId).collect());
        let node = |id| RaftNode::new(id, membership.clone(), RaftConfig::default(), 11, 0);
        Group {
            nodes: (1..=NODES as NodeId).map(node).collect(),
            queue: VecDeque::new(),
            now_us: 0,
            applied: vec![Vec::new(); NODES],
            leader: None,
            counts: Counts::default(),
        }
    }

    fn route(&mut self, n: usize, out: Vec<Output<u64>>) {
        for output in out {
            match output {
                Output::Send { to, message } => {
                    self.counts.messages += 1;
                    if let Message::AppendEntries { entries, .. } = &message {
                        self.counts.entries_shipped += entries.len() as u64;
                    }
                    self.queue.push_back((n as NodeId + 1, to, message));
                }
                Output::Apply(entry) => self.applied[n].extend(entry.command()),
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
        self.counts.queue_depth_max = self.counts.queue_depth_max.max(self.queue.len());
    }

    /// Delivers the oldest message in flight, if any.
    fn deliver(&mut self) -> bool {
        let Some((from, to, message)) = self.queue.pop_front() else {
            return false;
        };
        let n = to as usize - 1;
        let mut out = Vec::new();
        self.nodes[n].receive(self.now_us, from, message, &mut out);
        self.route(n, out);
        true
    }

    /// Delivers while anything is in flight; with the wire empty, moves the
    /// clock 1 ms and ticks whoever is due.
    fn run_until(&mut self, done: impl Fn(&Group) -> bool) {
        let mut idle = 0;
        while !done(self) {
            if self.deliver() {
                continue;
            }
            idle += 1;
            assert!(idle < 20_000, "the group is stuck");
            self.now_us += 1000;
            for n in 0..NODES {
                if self.nodes[n].next_deadline_us() <= self.now_us {
                    let mut out = Vec::new();
                    self.nodes[n].tick(self.now_us, &mut out);
                    self.route(n, out);
                }
            }
        }
    }

    /// The closed loop: `OUTSTANDING` proposals in flight at the leader
    /// until it has applied `commits` commands, then whatever is still on
    /// the wire. The clock never moves, so nothing here is a heartbeat.
    fn replicate(&mut self, commits: usize) {
        let leader = self.leader.expect("elected");
        let mut proposed = 0;
        while self.applied[leader].len() < commits {
            while proposed < commits && proposed - self.applied[leader].len() < OUTSTANDING {
                let mut out = Vec::new();
                self.nodes[leader]
                    .propose(proposed as u64, &mut out)
                    .expect("the leader accepts");
                self.route(leader, out);
                proposed += 1;
            }
            assert!(self.deliver(), "the closed loop never idles");
        }
        while self.deliver() {}
    }
}

/// Elects, replicates `commits` commands, settles; returns the counts of
/// the closed loop alone and of the whole run.
fn run(commits: usize) -> (Counts, Counts) {
    let mut group = Group::new();
    group.run_until(|g| g.leader.is_some() && g.queue.is_empty());
    let before = group.counts;
    group.replicate(commits);
    let after = group.counts;
    let closed_loop = Counts {
        messages: after.messages - before.messages,
        entries_shipped: after.entries_shipped - before.entries_shipped,
        ..after
    };
    // A heartbeat carries the last commit index to the followers.
    group.run_until(|g| g.applied.iter().all(|a| a.len() >= commits));
    let expected: Vec<u64> = (0..commits as u64).collect();
    for (n, applied) in group.applied.iter().enumerate() {
        assert_eq!(applied, &expected, "node {} applied", n + 1);
    }
    (closed_loop, group.counts)
}

#[test]
fn amplification_is_at_the_floor_and_flat_in_log_length() {
    for commits in [1000usize, 6000] {
        let (closed_loop, whole) = run(commits);
        let n = commits as u64;
        // The closed loop sits exactly on the floor at either length: no
        // entry is shipped twice, no append goes unanswered or is repeated.
        assert_eq!(closed_loop.messages, 4 * n, "N = {commits}");
        assert_eq!(closed_loop.entries_shipped, 2 * n, "N = {commits}");
        // With the election and the settling heartbeats in, as the perf
        // ledger counts them.
        assert!(whole.messages as f64 / n as f64 <= 4.1, "{whole:?}");
        assert!(whole.entries_shipped as f64 / n as f64 <= 2.1, "{whole:?}");
        assert!(whole.queue_depth_max <= 64, "{whole:?}");
        assert_eq!(whole.elections, 1);
    }
}

/// Replicates `COMMITS` commands on the seeded harness with one message in
/// ten lost, `burst` proposals at a time whenever fewer than `OUTSTANDING`
/// are unapplied, polling every `poll_us`; returns entries shipped per
/// commit. The safety checker watches every step.
fn lossy_run(burst: usize, poll_us: u64) -> f64 {
    const COMMITS: usize = 400;
    let mut net: Network<u64> = Network::new(3, 2026);
    net.check_safety();
    let leader = net.run_until_leader();
    net.set_drop_rate(0.1);
    let mut proposed = 0;
    let mut polls = 0;
    while net.applied_by(leader).len() < COMMITS {
        for _ in 0..burst {
            if proposed < COMMITS && proposed - net.applied_by(leader).len() < OUTSTANDING {
                // On this seed no follower misses enough heartbeats in a
                // row to call an election.
                net.propose(leader, proposed as u64).expect("still leads");
                proposed += 1;
            }
        }
        net.run_micros(poll_us);
        polls += 1;
        assert!(polls < 200_000, "replication stalled");
    }
    net.set_drop_rate(0.0);
    net.run_micros(200_000);
    let expected: Vec<u64> = (0..COMMITS as u64).collect();
    assert!(
        net.all_applied(&expected),
        "every node applied every command"
    );
    assert!(net.safety_checks() > COMMITS as u64);
    net.entries_shipped() as f64 / COMMITS as f64
}

#[test]
fn repair_under_message_loss_is_cheap() {
    // One proposal per millisecond, above the harness's 100-800 us latency
    // spread: appends arrive in order, so what is measured is repair after
    // loss. The floor is 2 / 0.9.
    let paced = lossy_run(1, 1000);
    assert!(paced <= 4.0, "{paced} entries shipped per commit");
    // Sixteen proposals in one instant: their appends overtake each other
    // freely, and most of them bounce. Each bounce costs one resend of the
    // window, not one per proposal and per ack.
    let bursty = lossy_run(OUTSTANDING, 200);
    assert!(bursty <= 8.0, "{bursty} entries shipped per commit");
}
