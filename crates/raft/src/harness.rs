//! Deterministic simulated-network harness for Raft clusters.
//!
//! Drives a set of [`RaftNode`]s over the DES event queue with a
//! configurable message-latency model (independent draws, so messages
//! overtake each other), message drops and duplicates, and per-node
//! disconnects. Used by the test suite, the property tests, the kernel
//! protocol harness in `notebookos-core`, and the chaos drill.
//!
//! Every node's storage comes from a [`StorageFactory`]; [`Network::kill`]
//! drops a node fail-stop and [`Network::restart`] rebuilds it from whatever
//! the factory hands back — nothing with the default [`MemStorage`], the
//! node's acknowledged log and hard state with a
//! [`WalStorage`](crate::WalStorage) reopened on the same file.
//!
//! With [`Network::check_safety`] on (always, in this crate's own tests) a
//! [`SafetyChecker`] looks at every node after every event and proposal,
//! and the harness panics at the first step that breaks a Raft safety
//! property.

use std::collections::HashMap;

use notebookos_des::{EventQueue, Ranked, SimRng, SimTime};

use crate::config::RaftConfig;
use crate::invariants::SafetyChecker;
use crate::message::Message;
use crate::node::{Output, ProposeError, RaftNode, Role};
use crate::storage::{MemStorage, RaftStorage};
use crate::types::{EntryPayload, LogIndex, Membership, NodeId};

/// Builds (or reopens) a node's storage: called once per node when the
/// network starts and again on every [`Network::restart`].
pub type StorageFactory<C> = Box<dyn Fn(NodeId) -> Box<dyn RaftStorage<C>>>;

/// Events flowing through the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NetEvent<C> {
    Deliver {
        from: NodeId,
        to: NodeId,
        message: Message<C>,
    },
    Tick(NodeId),
}

/// Deliveries and ticks due at one instant fire in schedule order.
impl<C> Ranked for NetEvent<C> {}

/// A deterministic in-memory network of Raft nodes.
///
/// See the crate-level example. All timing is virtual; `run_micros` advances
/// the cluster by a fixed budget of virtual time.
pub struct Network<C: Clone + Eq> {
    /// The running nodes; a killed one is absent until it is restarted.
    nodes: HashMap<NodeId, RaftNode<C>>,
    membership: Membership,
    config: RaftConfig,
    storage: StorageFactory<C>,
    queue: EventQueue<NetEvent<C>>,
    now: SimTime,
    rng: SimRng,
    /// Applied commands per node since it last started, in application
    /// order.
    applied: HashMap<NodeId, Vec<C>>,
    /// Scheduled tick deadline per node (to avoid flooding the queue).
    tick_at: HashMap<NodeId, u64>,
    /// Nodes currently cut off from the network.
    disconnected: HashMap<NodeId, bool>,
    /// Probability that any individual message is dropped.
    drop_rate: f64,
    /// Probability that a message that was not dropped arrives twice.
    duplicate_rate: f64,
    /// Message latency bounds (uniform), in microseconds.
    latency_min_us: u64,
    latency_max_us: u64,
    /// Count of messages delivered (for instrumentation).
    delivered: u64,
    /// Count of log entries sent in `AppendEntries`, dropped ones included.
    entries_shipped: u64,
    checker: Option<SafetyChecker<C>>,
}

impl<C: Clone + Eq> std::fmt::Debug for Network<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut running: Vec<NodeId> = self.nodes.keys().copied().collect();
        running.sort_unstable();
        f.debug_struct("Network")
            .field("now", &self.now)
            .field("membership", &self.membership)
            .field("running", &running)
            .field("delivered", &self.delivered)
            .finish_non_exhaustive()
    }
}

impl<C: Clone + Eq> Network<C> {
    /// Creates a cluster of `n` nodes (ids `1..=n`) with [`RaftConfig::fast`]
    /// timeouts and a 100–800 µs uniform message latency.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_config(n, seed, RaftConfig::fast())
    }

    /// Creates a cluster with an explicit Raft configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_config(n: usize, seed: u64, config: RaftConfig) -> Self {
        Self::with_storage(n, seed, config, Box::new(|_| Box::new(MemStorage::new())))
    }

    /// Creates a cluster whose nodes persist through what `storage` builds
    /// for them. Message timing and election jitter depend on `seed` alone,
    /// not on the storage.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_storage(
        n: usize,
        seed: u64,
        config: RaftConfig,
        storage: StorageFactory<C>,
    ) -> Self {
        assert!(n > 0, "cluster must have at least one node");
        let ids: Vec<NodeId> = (1..=n as NodeId).collect();
        let membership = Membership::new(ids.clone());
        let mut rng = SimRng::seed(seed);
        let mut nodes = HashMap::new();
        for &id in &ids {
            let jitter = rng.next_u64();
            let node =
                RaftNode::with_storage(id, membership.clone(), config, jitter, 0, storage(id));
            nodes.insert(id, node);
        }
        let mut net = Network {
            nodes,
            membership,
            config,
            storage,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng,
            applied: ids.iter().map(|&id| (id, Vec::new())).collect(),
            tick_at: HashMap::new(),
            disconnected: HashMap::new(),
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            latency_min_us: 100,
            latency_max_us: 800,
            delivered: 0,
            entries_shipped: 0,
            checker: cfg!(test).then(SafetyChecker::new),
        };
        for &id in &ids {
            net.schedule_tick(id);
        }
        net
    }

    /// Sets the per-message drop probability.
    pub fn set_drop_rate(&mut self, p: f64) {
        self.drop_rate = p.clamp(0.0, 1.0);
    }

    /// Sets the probability that a message is delivered twice, each copy
    /// after a latency of its own.
    pub fn set_duplicate_rate(&mut self, p: f64) {
        self.duplicate_rate = p.clamp(0.0, 1.0);
    }

    /// From now on, checks Raft's safety properties after every event and
    /// proposal, and panics at the first step that breaks one.
    pub fn check_safety(&mut self) {
        self.checker.get_or_insert_with(SafetyChecker::new);
    }

    /// Steps the safety checker has looked at (0 while it is off).
    pub fn safety_checks(&self) -> u64 {
        self.checker.as_ref().map_or(0, SafetyChecker::checks)
    }

    /// Sets the uniform message-latency bounds in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or `max` is zero.
    pub fn set_latency_us(&mut self, min: u64, max: u64) {
        assert!(min <= max && max > 0);
        self.latency_min_us = min;
        self.latency_max_us = max;
    }

    /// Cuts `node` off from the network (messages to and from it vanish).
    pub fn disconnect(&mut self, node: NodeId) {
        self.disconnected.insert(node, true);
    }

    /// Reconnects a previously disconnected node.
    pub fn reconnect(&mut self, node: NodeId) {
        self.disconnected.insert(node, false);
        self.schedule_tick(node);
    }

    /// Fail-stops `node`: it and whatever it had not pushed through its
    /// storage are gone, what it applied is forgotten, and messages and the
    /// queued tick that reach it while it is down find nobody (one that
    /// outlives the outage is an early `tick`, which does nothing).
    /// Messages it had already sent still arrive. Returns `false` if the
    /// node was not running.
    pub fn kill(&mut self, node: NodeId) -> bool {
        if self.nodes.remove(&node).is_none() {
            return false;
        }
        self.tick_at.remove(&node);
        self.applied.insert(node, Vec::new());
        true
    }

    /// Restarts a killed member of the starting cluster over the storage
    /// the factory builds for it now: a reopened WAL brings back its term,
    /// vote and log (and it applies its log again as the commit index
    /// reaches it), [`MemStorage`] nothing. Its election jitter is reseeded
    /// from the harness RNG. Returns `false` if the node is running or was
    /// never part of the starting cluster.
    pub fn restart(&mut self, node: NodeId) -> bool {
        if self.nodes.contains_key(&node) || !self.membership.contains(node) {
            return false;
        }
        let rebuilt = RaftNode::with_storage(
            node,
            self.membership.clone(),
            self.config,
            self.rng.next_u64(),
            self.now.as_micros(),
            (self.storage)(node),
        );
        self.nodes.insert(node, rebuilt);
        if let Some(checker) = &mut self.checker {
            checker.restarted(node);
        }
        self.check();
        self.schedule_tick(node);
        true
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total log entries sent in `AppendEntries` so far, whether or not
    /// the message then arrived.
    pub fn entries_shipped(&self) -> u64 {
        self.entries_shipped
    }

    /// The current leader, if exactly the highest-term node claims
    /// leadership.
    pub fn leader(&self) -> Option<NodeId> {
        self.nodes
            .values()
            .filter(|n| n.role() == Role::Leader && !self.is_disconnected(n.id()))
            .max_by_key(|n| n.term())
            .map(|n| n.id())
    }

    /// Read-only access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or killed.
    pub fn node(&self, id: NodeId) -> &RaftNode<C> {
        &self.nodes[&id]
    }

    /// Commands applied by `node` since it last started, in order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn applied_by(&self, id: NodeId) -> &[C] {
        &self.applied[&id]
    }

    /// Whether every connected node has applied exactly `expect` (in order).
    pub fn all_applied(&self, expect: &[C]) -> bool {
        self.nodes
            .keys()
            .all(|&id| self.is_disconnected(id) || self.applied[&id].as_slice() == expect)
    }

    /// Proposes `command` on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`ProposeError`] if `node` is not the leader.
    ///
    /// # Panics
    ///
    /// Panics if `node` is unknown.
    pub fn propose(&mut self, node: NodeId, command: C) -> Result<LogIndex, ProposeError> {
        let mut out = Vec::new();
        let result = self
            .nodes
            .get_mut(&node)
            .expect("unknown node")
            .propose(command, &mut out);
        self.process_outputs(node, out);
        result
    }

    /// Proposes a membership change on `node`.
    ///
    /// # Errors
    ///
    /// Returns [`ProposeError`] if `node` is not the leader.
    pub fn propose_membership(
        &mut self,
        node: NodeId,
        membership: Membership,
    ) -> Result<LogIndex, ProposeError> {
        let mut out = Vec::new();
        let result = self
            .nodes
            .get_mut(&node)
            .expect("unknown node")
            .propose_membership(membership, &mut out);
        self.process_outputs(node, out);
        result
    }

    /// Adds a fresh node to the harness (it must then be added to the
    /// membership via [`Network::propose_membership`]).
    pub fn spawn_node(&mut self, id: NodeId, config: RaftConfig) {
        let membership = Membership::new(vec![id]);
        // The new node bootstraps with a solitary membership but will adopt
        // the cluster's config entry as soon as the leader replicates to it.
        let seed = self.rng.next_u64();
        let node = RaftNode::new(id, membership, config, seed, self.now.as_micros());
        self.nodes.insert(id, node);
        self.applied.insert(id, Vec::new());
        // Deliberately do NOT schedule a tick: a joining node must not call
        // elections before it learns the real membership.
    }

    /// Runs for `budget_us` of virtual time.
    pub fn run_micros(&mut self, budget_us: u64) {
        let horizon = self.now.saturating_add(SimTime::from_micros(budget_us));
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            let (time, event) = self.queue.pop().expect("peeked");
            self.now = time;
            self.dispatch(event);
        }
        self.now = horizon;
    }

    /// Runs until some node is leader (or the step budget runs out).
    ///
    /// # Panics
    ///
    /// Panics if no leader emerges within ~10 simulated seconds — with fast
    /// timeouts that means the protocol is broken.
    pub fn run_until_leader(&mut self) -> NodeId {
        for _ in 0..10_000 {
            if let Some(l) = self.leader() {
                return l;
            }
            self.run_micros(1_000);
        }
        panic!("no leader elected within the budget");
    }

    /// Runs until every connected node has applied an entry at `index`, or
    /// the time budget elapses. Returns whether the condition was reached.
    pub fn run_until_applied_everywhere(&mut self, index: LogIndex, budget_us: u64) -> bool {
        let deadline = self.now.saturating_add(SimTime::from_micros(budget_us));
        while self.now < deadline {
            let done = self
                .nodes
                .values()
                .filter(|n| !self.is_disconnected(n.id()))
                .all(|n| n.commit_index() >= index);
            if done {
                return true;
            }
            self.run_micros(1_000);
        }
        false
    }

    fn is_disconnected(&self, id: NodeId) -> bool {
        self.disconnected.get(&id).copied().unwrap_or(false)
    }

    fn dispatch(&mut self, event: NetEvent<C>) {
        match event {
            NetEvent::Deliver { from, to, message } => {
                if self.is_disconnected(to) || self.is_disconnected(from) {
                    return;
                }
                if !self.nodes.contains_key(&to) {
                    return;
                }
                self.delivered += 1;
                let mut out = Vec::new();
                let now = self.now.as_micros();
                self.nodes
                    .get_mut(&to)
                    .expect("checked")
                    .receive(now, from, message, &mut out);
                self.process_outputs(to, out);
            }
            NetEvent::Tick(id) => {
                self.tick_at.remove(&id);
                if self.is_disconnected(id) || !self.nodes.contains_key(&id) {
                    return;
                }
                let mut out = Vec::new();
                let now = self.now.as_micros();
                self.nodes
                    .get_mut(&id)
                    .expect("checked")
                    .tick(now, &mut out);
                self.process_outputs(id, out);
            }
        }
    }

    fn process_outputs(&mut self, from: NodeId, outputs: Vec<Output<C>>) {
        for output in outputs {
            match output {
                Output::Send { to, message } => {
                    if let Message::AppendEntries { entries, .. } = &message {
                        self.entries_shipped += entries.len() as u64;
                    }
                    if self.drop_rate > 0.0 && self.rng.chance(self.drop_rate) {
                        continue;
                    }
                    if self.duplicate_rate > 0.0 && self.rng.chance(self.duplicate_rate) {
                        self.send(from, to, message.clone());
                    }
                    self.send(from, to, message);
                }
                Output::Apply(entry) => {
                    if let EntryPayload::Command(c) = entry.payload {
                        self.applied.get_mut(&from).expect("known node").push(c);
                    }
                }
                Output::RoleChanged { .. } => {}
            }
        }
        self.schedule_tick(from);
        self.check();
    }

    fn check(&mut self) {
        if let Some(checker) = &mut self.checker {
            if let Err(violation) = checker.check(self.nodes.values()) {
                panic!("raft safety violated at {}: {violation}", self.now);
            }
        }
    }

    /// Puts `message` on the wire: it arrives after a latency drawn for it
    /// alone.
    fn send(&mut self, from: NodeId, to: NodeId, message: Message<C>) {
        let latency = self
            .rng
            .below(self.latency_max_us - self.latency_min_us + 1)
            + self.latency_min_us;
        self.queue.schedule_in(
            self.now,
            SimTime::from_micros(latency),
            NetEvent::Deliver { from, to, message },
        );
    }

    fn schedule_tick(&mut self, id: NodeId) {
        let Some(node) = self.nodes.get(&id) else {
            return;
        };
        let deadline = node.next_deadline_us();
        if deadline == u64::MAX {
            return;
        }
        let already = self.tick_at.get(&id).copied().unwrap_or(u64::MAX);
        if deadline < already {
            self.tick_at.insert(id, deadline);
            self.queue.schedule(
                SimTime::from_micros(deadline.max(self.now.as_micros())),
                NetEvent::Tick(id),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elects_a_leader() {
        let mut net: Network<String> = Network::new(3, 1);
        let leader = net.run_until_leader();
        assert_eq!(net.node(leader).role(), Role::Leader);
    }

    #[test]
    fn replicates_commands_everywhere() {
        let mut net: Network<String> = Network::new(3, 2);
        let leader = net.run_until_leader();
        net.propose(leader, "a".into()).unwrap();
        net.propose(leader, "b".into()).unwrap();
        net.run_micros(500_000);
        assert!(net.all_applied(&["a".into(), "b".into()]));
    }

    #[test]
    fn survives_leader_disconnect() {
        let mut net: Network<String> = Network::new(3, 3);
        let old = net.run_until_leader();
        net.propose(old, "pre".into()).unwrap();
        net.run_micros(300_000);
        net.disconnect(old);
        // A new leader must emerge among the remaining two.
        let mut new_leader = None;
        for _ in 0..200 {
            net.run_micros(10_000);
            if let Some(l) = net.leader() {
                if l != old {
                    new_leader = Some(l);
                    break;
                }
            }
        }
        let new_leader = new_leader.expect("failover leader");
        net.propose(new_leader, "post".into()).unwrap();
        net.run_micros(500_000);
        assert_eq!(
            net.applied_by(new_leader),
            &["pre".to_string(), "post".to_string()]
        );

        // Old leader reconnects and catches up.
        net.reconnect(old);
        net.run_micros(1_000_000);
        assert_eq!(
            net.applied_by(old),
            &["pre".to_string(), "post".to_string()]
        );
    }

    #[test]
    fn tolerates_message_drops() {
        let mut net: Network<String> = Network::new(3, 4);
        net.set_drop_rate(0.2);
        let leader = net.run_until_leader();
        net.propose(leader, "x".into()).unwrap();
        // Retries via heartbeats should eventually push it through.
        assert!(net.run_until_applied_everywhere(1, 5_000_000));
    }

    #[test]
    fn every_message_delivered_twice_applies_every_command_once() {
        let mut net: Network<String> = Network::new(3, 6);
        net.set_duplicate_rate(1.0);
        let leader = net.run_until_leader();
        net.propose(leader, "x".into()).unwrap();
        net.propose(leader, "y".into()).unwrap();
        net.run_micros(100_000);
        assert!(net.all_applied(&["x".into(), "y".into()]));
        assert!(net.safety_checks() > 0, "the checker is on in this crate");
    }

    fn followers(net: &Network<String>) -> Vec<NodeId> {
        (1..=3)
            .filter(|&id| net.node(id).role() != Role::Leader)
            .collect()
    }

    #[test]
    fn durable_cluster_recovers_acked_entries_across_restart() {
        let dir =
            std::env::temp_dir().join(format!("notebookos-harness-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal_dir = dir.clone();
        let mut net: Network<String> = Network::with_storage(
            3,
            7,
            RaftConfig::fast(),
            Box::new(move |id| {
                let path = wal_dir.join(format!("node-{id}.wal"));
                Box::new(crate::WalStorage::<String>::open(path).expect("open node WAL"))
            }),
        );
        let leader = net.run_until_leader();
        let want: Vec<String> = (0..3).map(|i| format!("delta-{i}")).collect();
        for command in &want {
            net.propose(leader, command.clone()).unwrap();
        }
        net.run_micros(300_000);
        assert!(net.all_applied(&want));

        let victim = followers(&net)[0];
        let (term, vote, last) = {
            let node = net.node(victim);
            assert!(node.durable_index() >= node.commit_index());
            (node.term(), node.voted_for(), node.log().last_index())
        };
        assert!(net.kill(victim));
        assert!(
            net.applied_by(victim).is_empty(),
            "what it applied died with it"
        );
        assert!(net.restart(victim));
        // No event has run since the restart: this is the WAL alone.
        let node = net.node(victim);
        assert_eq!((node.term(), node.voted_for()), (term, vote));
        assert_eq!(node.log().last_index(), last);
        assert!(
            last > want.len() as LogIndex,
            "the commands and the leader's no-op"
        );
        assert_eq!(node.commit_index(), 0, "the commit index is not persisted");

        // The leader's next heartbeat tells it what is committed, and it
        // applies the same commands again — with the checker holding it to
        // the term and vote of its first life.
        net.run_micros(300_000);
        assert_eq!(net.applied_by(victim), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cluster_survives_kill_and_restart_of_a_minority() {
        let mut net: Network<String> = Network::new(3, 8);
        let leader = net.run_until_leader();
        let victim = followers(&net)[0];
        net.propose(leader, "1".into()).unwrap();
        net.run_micros(100_000);
        assert!(net.kill(victim));
        assert!(!net.kill(victim), "double kill is a no-op");
        // Two of three still form a quorum.
        net.propose(leader, "2".into()).unwrap();
        net.run_micros(100_000);
        assert!(net.all_applied(&["1".into(), "2".into()]));

        // `MemStorage` gives nothing back: the node returns in term 0 having
        // forgotten whom it voted for. "One vote per term" and "the term never
        // goes back" cannot be promised for such a node — Raft's safety
        // argument does not cover a group with one in it — so this one test
        // runs with the checker off. A durable restart gets no such waiver.
        net.checker = None;
        assert!(net.restart(victim));
        assert!(!net.restart(victim), "double restart is a no-op");
        assert!(!net.restart(9), "never a member");
        assert_eq!(net.node(victim).log().last_index(), 0);
        net.propose(leader, "3".into()).unwrap();
        net.run_micros(300_000);
        // The amnesiac catches up from the leader's log.
        assert!(net.all_applied(&["1".into(), "2".into(), "3".into()]));
        assert_eq!(net.applied_by(victim).len(), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net: Network<String> = Network::new(3, seed);
            let leader = net.run_until_leader();
            (leader, net.now().as_micros())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn membership_change_adds_learner() {
        let mut net: Network<String> = Network::new(3, 5);
        let leader = net.run_until_leader();
        net.propose(leader, "seed".into()).unwrap();
        net.run_micros(300_000);

        net.spawn_node(4, RaftConfig::fast());
        let grown = Membership::new(vec![1, 2, 3, 4]);
        net.propose_membership(leader, grown).unwrap();
        net.run_micros(1_000_000);
        // The new node learns the log, including the pre-change command.
        assert_eq!(net.applied_by(4), &["seed".to_string()]);
        assert!(net.node(4).membership().contains(4));
    }
}
