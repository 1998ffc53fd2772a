//! The sans-io Raft node state machine.
//!
//! # Replication
//!
//! A leader keeps one `Progress` per peer and ships every entry to it
//! once, in the shape etcd's raft made standard:
//!
//! * **Probe** — the leader does not know where the peer's log ends (it
//!   was just elected, or the peer rejected an append). One append is
//!   outstanding at a time and `next` stands still until it is answered;
//!   a reject moves `next` back to the peer's hint, a success switches the
//!   peer to Replicate.
//! * **Replicate** — the peer is known to match through `match`. Every
//!   append advances `next` past what it carries as soon as it is *sent*,
//!   so the next proposal ships only the new entry instead of the whole
//!   unacknowledged suffix. At most `MAX_IN_FLIGHT` (32) appends are
//!   unanswered; past that the peer's entries wait in the log and leave,
//!   batched, with the next ack or heartbeat.
//!
//! **Repair.** A lost or overtaken append shows up as a gap at the
//! follower, which rejects the next one; the reject sends the peer back to
//! Probe just past the follower's hint and one append from there closes
//! the gap. Every response echoes the `prev_log_index` it answers: a
//! reject that is neither the latest append's answer nor (in Replicate)
//! ahead of `match` was overtaken on the wire, and is dropped rather than
//! answered with another resend. A lost *response* costs nothing — acks
//! are cumulative — and whatever stays unanswered is written off at the
//! next heartbeat, which reopens the window and sends again.
//!
//! **Bookkeeping that does not grow with the log.** No input handler walks
//! the log: the membership in effect comes, by reference, from
//! [`RaftLog::latest_membership`] (the log tracks where its `Config`
//! entries are); entries are persisted and applied from borrowed slices of
//! the log, and a follower moves an append's entries into its log instead
//! of cloning them; the commit rule looks only at the indices above
//! `commit_index`, which are the ones in flight.

use std::collections::{HashMap, HashSet};

use crate::config::RaftConfig;
use crate::log::RaftLog;
use crate::message::Message;
use crate::storage::{MemStorage, RaftStorage};
use crate::types::{Entry, EntryPayload, LogIndex, Membership, NodeId, Term};

/// The three Raft roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Passive replica, replicating from the leader.
    Follower,
    /// Soliciting votes for leadership.
    Candidate,
    /// The replica currently in charge of the log.
    Leader,
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Role::Follower => write!(f, "follower"),
            Role::Candidate => write!(f, "candidate"),
            Role::Leader => write!(f, "leader"),
        }
    }
}

/// Effects a node asks its driver to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output<C> {
    /// Send `message` to peer `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// Message to deliver.
        message: Message<C>,
    },
    /// `entry` is committed; apply it to the state machine.
    Apply(Entry<C>),
    /// The node's role changed (useful for instrumentation and for the
    /// NotebookOS election protocol, which watches for leadership).
    RoleChanged {
        /// The new role.
        role: Role,
        /// The term in which the change happened.
        term: Term,
    },
}

/// Error returned by [`RaftNode::propose`] on a non-leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProposeError {
    /// Where the proposer should retry, if known.
    pub leader_hint: Option<NodeId>,
}

impl std::fmt::Display for ProposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.leader_hint {
            Some(l) => write!(f, "not the leader; try node {l}"),
            None => write!(f, "not the leader; leader unknown"),
        }
    }
}

impl std::error::Error for ProposeError {}

/// Appends a leader leaves unanswered to one replicating peer before it
/// holds further entries back for the next ack or heartbeat. Bounds what a
/// slow peer can pile up on the wire; a three-replica kernel with a
/// handful of proposals outstanding never reaches it.
const MAX_IN_FLIGHT: usize = 32;

/// How a leader is feeding one peer (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProgressState {
    Probe,
    Replicate,
}

/// What a leader knows about one peer's log.
#[derive(Debug, Clone, Copy)]
struct Progress {
    /// Highest index known replicated on the peer.
    match_index: LogIndex,
    /// First index of the next append to it.
    next_index: LogIndex,
    state: ProgressState,
    /// Appends sent and not yet answered (or written off by a heartbeat).
    in_flight: usize,
}

impl Progress {
    fn probe(next_index: LogIndex) -> Self {
        Progress {
            match_index: 0,
            next_index,
            state: ProgressState::Probe,
            in_flight: 0,
        }
    }
}

/// A single Raft participant, driven entirely by explicit inputs.
///
/// See the crate-level docs for the sans-io contract. All time parameters
/// are microseconds on whatever clock the driver uses (virtual time in the
/// simulator and the harness).
///
/// # Durability
///
/// Every node writes its hard state (term, vote) and log mutations through
/// a [`RaftStorage`] before the driver gets a chance to flush the outputs
/// those mutations imply — the ordering Raft's safety proof needs. Nodes
/// built with [`RaftNode::new`] use [`MemStorage`] (no durability, zero
/// cost, bit-identical to the pre-seam behavior); [`RaftNode::with_storage`]
/// accepts any implementation and recovers the node's persistent state
/// from it, which is how a killed replica comes back with its acked log.
#[derive(Debug)]
pub struct RaftNode<C: Clone> {
    id: NodeId,
    config: RaftConfig,
    initial_membership: Membership,
    term: Term,
    voted_for: Option<NodeId>,
    log: RaftLog<C>,
    storage: Box<dyn RaftStorage<C>>,
    commit_index: LogIndex,
    last_applied: LogIndex,
    role: Role,
    leader_hint: Option<NodeId>,
    votes: HashSet<NodeId>,
    /// Leader only: one per voter. Its own records the end of its log as
    /// `match`; nothing is ever sent to it.
    progress: HashMap<NodeId, Progress>,
    election_deadline_us: u64,
    heartbeat_deadline_us: u64,
    rng_state: u64,
}

impl<C: Clone> RaftNode<C> {
    /// Creates a follower at time `now_us` with in-memory (non-durable)
    /// storage — the pre-seam behavior, bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `id` is not a member.
    pub fn new(
        id: NodeId,
        membership: Membership,
        config: RaftConfig,
        seed: u64,
        now_us: u64,
    ) -> Self {
        Self::with_storage(
            id,
            membership,
            config,
            seed,
            now_us,
            Box::new(MemStorage::new()),
        )
    }

    /// Creates a follower at time `now_us` backed by `storage`, recovering
    /// whatever hard state and log entries the storage replays — a node
    /// restarting over its WAL resumes as the follower it crashed as
    /// (`commit_index` restarts at 0 and re-advances from leader contact,
    /// the standard Raft recovery rule).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `id` is not a member of
    /// the bootstrap membership.
    pub fn with_storage(
        id: NodeId,
        membership: Membership,
        config: RaftConfig,
        seed: u64,
        now_us: u64,
        mut storage: Box<dyn RaftStorage<C>>,
    ) -> Self {
        config.validate().expect("invalid raft config");
        assert!(membership.contains(id), "node {id} not in membership");
        let recovered = storage.replay();
        let mut log = RaftLog::new();
        for entry in recovered.entries {
            let index = log.append(entry.term, entry.payload);
            debug_assert_eq!(index, entry.index, "recovered log must be contiguous");
        }
        let mut node = RaftNode {
            id,
            config,
            initial_membership: membership,
            term: recovered.term,
            voted_for: recovered.voted_for,
            log,
            storage,
            commit_index: 0,
            last_applied: 0,
            role: Role::Follower,
            leader_hint: None,
            votes: HashSet::new(),
            progress: HashMap::new(),
            election_deadline_us: 0,
            heartbeat_deadline_us: u64::MAX,
            rng_state: seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1,
        };
        node.reset_election_deadline(now_us);
        node
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current term.
    pub fn term(&self) -> Term {
        self.term
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Most recent leader this node has heard from (or itself when leading).
    #[cfg(test)]
    pub(crate) fn leader_hint(&self) -> Option<NodeId> {
        self.leader_hint
    }

    /// Highest committed log index.
    pub fn commit_index(&self) -> LogIndex {
        self.commit_index
    }

    /// The replicated log (read-only).
    pub fn log(&self) -> &RaftLog<C> {
        &self.log
    }

    /// The candidate this node voted for in the current term, if any.
    pub fn voted_for(&self) -> Option<NodeId> {
        self.voted_for
    }

    /// The membership currently in effect (latest `Config` entry in the
    /// log, falling back to the bootstrap membership).
    pub fn membership(&self) -> &Membership {
        self.log
            .latest_membership()
            .unwrap_or(&self.initial_membership)
    }

    /// Highest log index the node's storage reports durable (0 for
    /// [`MemStorage`], which durably holds nothing).
    pub fn durable_index(&self) -> LogIndex {
        self.storage.durable_index()
    }

    /// The next instant at which the driver must call [`RaftNode::tick`].
    pub fn next_deadline_us(&self) -> u64 {
        match self.role {
            Role::Leader => self.heartbeat_deadline_us,
            _ => self.election_deadline_us,
        }
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// Advances timers to `now_us`: may start an election or emit
    /// heartbeats.
    pub fn tick(&mut self, now_us: u64, out: &mut Vec<Output<C>>) {
        match self.role {
            Role::Leader => {
                if now_us >= self.heartbeat_deadline_us {
                    for peer in self.progress.values_mut() {
                        // Whatever is still unanswered has had a whole
                        // interval: write it off, so a full window or a
                        // vanished probe is tried again.
                        peer.in_flight = 0;
                    }
                    self.broadcast_appends(true, out);
                    self.heartbeat_deadline_us = now_us + self.config.heartbeat_interval_us;
                }
            }
            Role::Follower | Role::Candidate => {
                if now_us >= self.election_deadline_us {
                    self.start_election(now_us, out);
                }
            }
        }
        // Group commit: one durability point per processed input, always
        // before the driver flushes `out` (it only sees `out` after we
        // return) — so nothing leaves this node that isn't persisted.
        self.storage.sync();
    }

    /// Handles a message from peer `from` arriving at `now_us`.
    pub fn receive(
        &mut self,
        now_us: u64,
        from: NodeId,
        message: Message<C>,
        out: &mut Vec<Output<C>>,
    ) {
        if message.term() > self.term {
            self.become_follower(message.term(), now_us, out);
        }
        match message {
            Message::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => self.on_request_vote(now_us, term, candidate, last_log_index, last_log_term, out),
            Message::RequestVoteResponse { term, granted } => {
                self.on_vote_response(now_us, from, term, granted, out)
            }
            Message::AppendEntries {
                term,
                leader,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            } => self.on_append_entries(
                now_us,
                term,
                leader,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
                out,
            ),
            Message::AppendEntriesResponse {
                term,
                success,
                match_index,
                prev_log_index,
            } => self.on_append_response(from, term, success, match_index, prev_log_index, out),
        }
        // Persist-before-send: see `tick`.
        self.storage.sync();
    }

    /// Proposes a command. Only the leader accepts proposals.
    ///
    /// On success the entry is appended locally, replication begins
    /// immediately, and the assigned log index is returned (commitment is
    /// signalled later via [`Output::Apply`]).
    ///
    /// # Errors
    ///
    /// Returns [`ProposeError`] with a leader hint when this node is not the
    /// leader.
    pub fn propose(
        &mut self,
        command: C,
        out: &mut Vec<Output<C>>,
    ) -> Result<LogIndex, ProposeError> {
        self.propose_payload(EntryPayload::Command(command), out)
    }

    /// Proposes a membership change (single-server add/remove composed by
    /// the caller).
    ///
    /// # Errors
    ///
    /// Returns [`ProposeError`] when this node is not the leader.
    pub fn propose_membership(
        &mut self,
        membership: Membership,
        out: &mut Vec<Output<C>>,
    ) -> Result<LogIndex, ProposeError> {
        self.propose_payload(EntryPayload::Config(membership), out)
    }

    fn propose_payload(
        &mut self,
        payload: EntryPayload<C>,
        out: &mut Vec<Output<C>>,
    ) -> Result<LogIndex, ProposeError> {
        if self.role != Role::Leader {
            return Err(ProposeError {
                leader_hint: self.leader_hint,
            });
        }
        let reconfigures = matches!(payload, EntryPayload::Config(_));
        let index = self.log.append(self.term, payload);
        self.storage.append_entries(self.log.range(index, index));
        if reconfigures {
            // A joining peer starts from an empty log.
            self.track_voters(1);
        }
        self.record_own_match(index);
        self.broadcast_appends(false, out);
        self.try_advance_commit(out);
        // Persist-before-send: see `tick`.
        self.storage.sync();
        Ok(index)
    }

    // ------------------------------------------------------------------
    // Elections
    // ------------------------------------------------------------------

    fn start_election(&mut self, now_us: u64, out: &mut Vec<Output<C>>) {
        if !self.membership().contains(self.id) {
            // Removed from the cluster (e.g. a migrated-away kernel
            // replica): stay quiet.
            self.reset_election_deadline(now_us);
            return;
        }
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.storage.persist_hard_state(self.term, self.voted_for);
        self.leader_hint = None;
        self.votes.clear();
        self.votes.insert(self.id);
        self.reset_election_deadline(now_us);
        out.push(Output::RoleChanged {
            role: Role::Candidate,
            term: self.term,
        });
        if self.votes.len() >= self.membership().quorum() {
            // Single-node cluster: win immediately.
            self.become_leader(now_us, out);
            return;
        }
        for &peer in self.membership().voters() {
            if peer == self.id {
                continue;
            }
            out.push(Output::Send {
                to: peer,
                message: Message::RequestVote {
                    term: self.term,
                    candidate: self.id,
                    last_log_index: self.log.last_index(),
                    last_log_term: self.log.last_term(),
                },
            });
        }
    }

    fn on_request_vote(
        &mut self,
        now_us: u64,
        term: Term,
        candidate: NodeId,
        last_log_index: LogIndex,
        last_log_term: Term,
        out: &mut Vec<Output<C>>,
    ) {
        let grant = term == self.term
            && self.role == Role::Follower
            && (self.voted_for.is_none() || self.voted_for == Some(candidate))
            && self
                .log
                .candidate_is_up_to_date(last_log_term, last_log_index);
        if grant {
            self.voted_for = Some(candidate);
            self.storage.persist_hard_state(self.term, self.voted_for);
            self.reset_election_deadline(now_us);
        }
        out.push(Output::Send {
            to: candidate,
            message: Message::RequestVoteResponse {
                term: self.term,
                granted: grant,
            },
        });
    }

    fn on_vote_response(
        &mut self,
        now_us: u64,
        from: NodeId,
        term: Term,
        granted: bool,
        out: &mut Vec<Output<C>>,
    ) {
        if self.role != Role::Candidate || term != self.term || !granted {
            return;
        }
        self.votes.insert(from);
        if self.votes.len() >= self.membership().quorum() {
            self.become_leader(now_us, out);
        }
    }

    fn become_leader(&mut self, now_us: u64, out: &mut Vec<Output<C>>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        self.progress.clear();
        self.track_voters(self.log.last_index() + 1);
        out.push(Output::RoleChanged {
            role: Role::Leader,
            term: self.term,
        });
        // Leader-completeness no-op: lets the new leader commit entries
        // from prior terms.
        let index = self.log.append(self.term, EntryPayload::Noop);
        self.storage.append_entries(self.log.range(index, index));
        self.record_own_match(index);
        self.heartbeat_deadline_us = now_us + self.config.heartbeat_interval_us;
        self.broadcast_appends(false, out);
        self.try_advance_commit(out);
    }

    fn become_follower(&mut self, term: Term, now_us: u64, out: &mut Vec<Output<C>>) {
        let was = self.role;
        if term != self.term {
            // A vote lasts the whole term: stepping down within one (a
            // candidate hearing that term's leader) keeps it.
            self.term = term;
            self.voted_for = None;
            self.storage.persist_hard_state(self.term, self.voted_for);
        }
        self.role = Role::Follower;
        self.votes.clear();
        self.heartbeat_deadline_us = u64::MAX;
        self.reset_election_deadline(now_us);
        if was != Role::Follower {
            out.push(Output::RoleChanged {
                role: Role::Follower,
                term: self.term,
            });
        }
    }

    // ------------------------------------------------------------------
    // Log replication
    // ------------------------------------------------------------------

    /// Brings `progress` in step with the membership in effect: one entry
    /// per voter. Voters already tracked keep theirs; a new one is probed
    /// from `next_index`.
    fn track_voters(&mut self, next_index: LogIndex) {
        let membership = self
            .log
            .latest_membership()
            .unwrap_or(&self.initial_membership);
        self.progress.retain(|&id, _| membership.contains(id));
        for &id in membership.voters() {
            self.progress
                .entry(id)
                .or_insert_with(|| Progress::probe(next_index));
        }
    }

    /// The leader holds what it appends: its own `match` is its log's end.
    fn record_own_match(&mut self, index: LogIndex) {
        if let Some(own) = self.progress.get_mut(&self.id) {
            own.match_index = index;
        }
    }

    /// One append to every peer whose window has room, in voter order.
    fn broadcast_appends(&mut self, allow_empty: bool, out: &mut Vec<Output<C>>) {
        for i in 0..self.membership().len() {
            let peer = self.membership().voters()[i];
            if peer != self.id {
                self.send_append(peer, allow_empty, out);
            }
        }
    }

    /// Sends `to` the entries from its `next` on, unless its window is full
    /// or (without `allow_empty`) there is nothing to send.
    fn send_append(&mut self, to: NodeId, allow_empty: bool, out: &mut Vec<Output<C>>) {
        let last = self.log.last_index();
        let Some(peer) = self.progress.get_mut(&to) else {
            return;
        };
        let window = match peer.state {
            ProgressState::Probe => 1,
            ProgressState::Replicate => MAX_IN_FLIGHT,
        };
        if peer.in_flight >= window || (peer.next_index > last && !allow_empty) {
            return;
        }
        let prev_log_index = peer.next_index - 1;
        let entries = self
            .log
            .slice(peer.next_index, last, self.config.max_entries_per_append);
        if peer.state == ProgressState::Replicate {
            peer.next_index += entries.len() as LogIndex;
        }
        peer.in_flight += 1;
        out.push(Output::Send {
            to,
            message: Message::AppendEntries {
                term: self.term,
                leader: self.id,
                prev_log_index,
                prev_log_term: self.log.term_at(prev_log_index).unwrap_or(0),
                entries,
                leader_commit: self.commit_index,
            },
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn on_append_entries(
        &mut self,
        now_us: u64,
        term: Term,
        leader: NodeId,
        prev_log_index: LogIndex,
        prev_log_term: Term,
        entries: Vec<Entry<C>>,
        leader_commit: LogIndex,
        out: &mut Vec<Output<C>>,
    ) {
        let respond = |term, success, match_index| Output::Send {
            to: leader,
            message: Message::AppendEntriesResponse {
                term,
                success,
                match_index,
                prev_log_index,
            },
        };
        if term < self.term {
            out.push(respond(self.term, false, 0));
            return;
        }
        // Valid leader for our term.
        if self.role != Role::Follower {
            self.become_follower(term, now_us, out);
        }
        self.leader_hint = Some(leader);
        self.reset_election_deadline(now_us);

        let consistent = self.log.term_at(prev_log_index) == Some(prev_log_term);
        if !consistent {
            // Conflict hint: ask the leader to back up to our log end (or
            // one before the probe point, whichever is smaller).
            let hint = self.log.last_index().min(prev_log_index.saturating_sub(1));
            out.push(respond(self.term, false, hint));
            return;
        }
        let last_new = if entries.is_empty() {
            prev_log_index
        } else {
            let outcome = self.log.merge_owned(entries);
            if let Some(first) = outcome.first_written {
                // Mirror the merge into storage exactly: drop the
                // conflicting durable suffix (a no-op for pure appends),
                // then persist what the merge wrote.
                self.storage.truncate_suffix(first - 1);
                self.storage
                    .append_entries(self.log.range(first, outcome.last));
            }
            outcome.last
        };
        // Never backwards: an append that was overtaken on the wire vouches
        // for less of the log than the one already processed.
        let commit = self.commit_index.max(leader_commit.min(last_new));
        if commit > self.commit_index {
            self.commit_index = commit;
            self.apply_committed(out);
        }
        out.push(respond(self.term, true, last_new));
    }

    fn on_append_response(
        &mut self,
        from: NodeId,
        term: Term,
        success: bool,
        match_index: LogIndex,
        prev_log_index: LogIndex,
        out: &mut Vec<Output<C>>,
    ) {
        if self.role != Role::Leader || term != self.term {
            return;
        }
        let Some(peer) = self.progress.get_mut(&from) else {
            return;
        };
        if !success {
            // For real if it answers the latest append, or bounced off a
            // gap ahead of what the peer has acknowledged; anything else
            // was overtaken on the wire and has been dealt with since.
            let answers_latest = prev_log_index + 1 == peer.next_index;
            let bounced_ahead =
                peer.state == ProgressState::Replicate && prev_log_index > peer.match_index;
            if answers_latest || bounced_ahead {
                // Not floored at `match`: a peer restarted on storage that
                // forgot its log is walked back as far as it asks.
                peer.next_index = (match_index + 1).min(prev_log_index).max(1);
                peer.state = ProgressState::Probe;
                peer.in_flight = 0;
                self.send_append(from, true, out);
            }
            return;
        }
        let advanced = match_index > peer.match_index;
        let answers_latest = prev_log_index + 1 == peer.next_index;
        peer.match_index = peer.match_index.max(match_index);
        peer.next_index = peer.next_index.max(match_index + 1);
        match peer.state {
            ProgressState::Replicate => peer.in_flight = peer.in_flight.saturating_sub(1),
            // The probe has been answered, or overtaken by news as good.
            ProgressState::Probe if advanced || answers_latest => {
                peer.state = ProgressState::Replicate;
                peer.in_flight = 0;
            }
            ProgressState::Probe => return,
        }
        if advanced {
            self.try_advance_commit(out);
        }
        self.send_append(from, false, out);
    }

    /// The Raft commit rule, as the paper states it: the highest index of
    /// the current term that a quorum of voters holds is committed. The
    /// indices above `commit_index` are the ones no quorum has acknowledged
    /// yet, so the walk covers what is in flight, not the log.
    fn try_advance_commit(&mut self, out: &mut Vec<Output<C>>) {
        let membership = self.membership();
        let last = self.log.last_index();
        let mut new_commit = self.commit_index;
        for n in (self.commit_index + 1)..=last {
            if self.log.term_at(n) != Some(self.term) {
                continue;
            }
            let holders = membership
                .voters()
                .iter()
                .filter(|&&v| self.progress.get(&v).is_some_and(|p| p.match_index >= n))
                .count();
            if holders >= membership.quorum() {
                new_commit = n;
            }
        }
        if new_commit > self.commit_index {
            self.commit_index = new_commit;
            self.apply_committed(out);
        }
    }

    fn apply_committed(&mut self, out: &mut Vec<Output<C>>) {
        let committed = self.log.range(self.last_applied + 1, self.commit_index);
        out.extend(committed.iter().cloned().map(Output::Apply));
        self.last_applied = self.commit_index;
    }

    // ------------------------------------------------------------------
    // Timing
    // ------------------------------------------------------------------

    fn reset_election_deadline(&mut self, now_us: u64) {
        let window = self.config.election_timeout_max_us - self.config.election_timeout_min_us;
        let jitter = self.next_rand() % window;
        self.election_deadline_us = now_us + self.config.election_timeout_min_us + jitter;
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: deterministic per-node jitter stream.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Node = RaftNode<String>;

    fn trio() -> (Node, Node, Node) {
        let m = Membership::new(vec![1, 2, 3]);
        let cfg = RaftConfig::fast();
        (
            RaftNode::new(1, m.clone(), cfg, 7, 0),
            RaftNode::new(2, m.clone(), cfg, 8, 0),
            RaftNode::new(3, m, cfg, 9, 0),
        )
    }

    /// Forces `node` to start an election by ticking past its deadline.
    fn force_election(node: &mut Node, out: &mut Vec<Output<String>>) {
        let deadline = node.next_deadline_us();
        node.tick(deadline, out);
        assert_eq!(node.role(), Role::Candidate);
    }

    fn sends(out: &[Output<String>]) -> Vec<(NodeId, Message<String>)> {
        out.iter()
            .filter_map(|o| match o {
                Output::Send { to, message } => Some((*to, message.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn follower_becomes_candidate_on_timeout() {
        let (mut n1, _, _) = trio();
        let mut out = Vec::new();
        force_election(&mut n1, &mut out);
        assert_eq!(n1.term(), 1);
        let reqs = sends(&out);
        assert_eq!(reqs.len(), 2); // to peers 2 and 3
        assert!(matches!(reqs[0].1, Message::RequestVote { .. }));
    }

    #[test]
    fn candidate_wins_with_quorum() {
        let (mut n1, mut n2, _) = trio();
        let mut out1 = Vec::new();
        force_election(&mut n1, &mut out1);

        // Node 2 grants the vote.
        let mut out2 = Vec::new();
        let vote_req = sends(&out1).into_iter().find(|(to, _)| *to == 2).unwrap().1;
        n2.receive(100, 1, vote_req, &mut out2);
        let (_, resp) = sends(&out2).into_iter().next().unwrap();
        assert!(matches!(
            resp,
            Message::RequestVoteResponse { granted: true, .. }
        ));

        let mut out3 = Vec::new();
        n1.receive(200, 2, resp, &mut out3);
        assert_eq!(n1.role(), Role::Leader);
        assert_eq!(n1.leader_hint(), Some(1));
        // First leader action is the no-op append broadcast.
        assert!(sends(&out3)
            .iter()
            .any(|(_, m)| matches!(m, Message::AppendEntries { .. })));
    }

    #[test]
    fn votes_are_single_use_per_term() {
        let (_, mut n2, _) = trio();
        let mut out = Vec::new();
        n2.receive(
            0,
            1,
            Message::RequestVote {
                term: 1,
                candidate: 1,
                last_log_index: 0,
                last_log_term: 0,
            },
            &mut out,
        );
        out.clear();
        // Second candidate in the same term is refused.
        n2.receive(
            0,
            3,
            Message::RequestVote {
                term: 1,
                candidate: 3,
                last_log_index: 0,
                last_log_term: 0,
            },
            &mut out,
        );
        let (_, resp) = sends(&out).into_iter().next().unwrap();
        assert!(matches!(
            resp,
            Message::RequestVoteResponse { granted: false, .. }
        ));
    }

    #[test]
    fn stale_candidate_is_refused_on_log() {
        let (_, mut n2, _) = trio();
        // Give n2 a log entry at term 1 (simulating prior replication).
        let mut out = Vec::new();
        n2.receive(
            0,
            1,
            Message::AppendEntries {
                term: 1,
                leader: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![Entry {
                    term: 1,
                    index: 1,
                    payload: EntryPayload::Command("a".to_string()),
                }],
                leader_commit: 0,
            },
            &mut out,
        );
        out.clear();
        // Candidate with an empty log at a later term: refused (log check).
        n2.receive(
            10,
            3,
            Message::RequestVote {
                term: 2,
                candidate: 3,
                last_log_index: 0,
                last_log_term: 0,
            },
            &mut out,
        );
        let granted = sends(&out)
            .iter()
            .any(|(_, m)| matches!(m, Message::RequestVoteResponse { granted: true, .. }));
        assert!(!granted);
    }

    #[test]
    fn higher_term_forces_step_down() {
        let (mut n1, _, _) = trio();
        let mut out = Vec::new();
        force_election(&mut n1, &mut out);
        out.clear();
        n1.receive(
            50,
            2,
            Message::AppendEntries {
                term: 99,
                leader: 2,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![],
                leader_commit: 0,
            },
            &mut out,
        );
        assert_eq!(n1.role(), Role::Follower);
        assert_eq!(n1.term(), 99);
        assert_eq!(n1.leader_hint(), Some(2));
    }

    #[test]
    fn propose_on_follower_fails_with_hint() {
        let (mut n1, _, _) = trio();
        let mut out = Vec::new();
        n1.receive(
            0,
            2,
            Message::AppendEntries {
                term: 1,
                leader: 2,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![],
                leader_commit: 0,
            },
            &mut out,
        );
        let err = n1.propose("x".to_string(), &mut out).unwrap_err();
        assert_eq!(err.leader_hint, Some(2));
    }

    #[test]
    fn single_node_cluster_self_elects_and_commits() {
        let m = Membership::new(vec![1]);
        let mut n: Node = RaftNode::new(1, m, RaftConfig::fast(), 1, 0);
        let mut out = Vec::new();
        n.tick(n.next_deadline_us(), &mut out);
        assert_eq!(n.role(), Role::Leader);
        out.clear();
        let idx = n.propose("solo".to_string(), &mut out).unwrap();
        assert!(out
            .iter()
            .any(|o| matches!(o, Output::Apply(e) if e.index == idx)));
        assert_eq!(n.commit_index(), idx);
    }

    #[test]
    fn append_entries_rejects_on_gap_with_hint() {
        let (mut n1, _, _) = trio();
        let mut out = Vec::new();
        n1.receive(
            0,
            2,
            Message::AppendEntries {
                term: 1,
                leader: 2,
                prev_log_index: 5,
                prev_log_term: 1,
                entries: vec![],
                leader_commit: 0,
            },
            &mut out,
        );
        let resp = sends(&out)
            .into_iter()
            .find_map(|(_, m)| match m {
                Message::AppendEntriesResponse {
                    success,
                    match_index,
                    ..
                } => Some((success, match_index)),
                _ => None,
            })
            .unwrap();
        assert_eq!(resp, (false, 0));
    }

    #[test]
    fn removed_node_stays_quiet() {
        let m = Membership::new(vec![1, 2, 3]);
        let mut n: Node = RaftNode::new(1, m, RaftConfig::fast(), 1, 0);
        let mut out = Vec::new();
        // Learn (via replication) that the membership no longer includes us.
        n.receive(
            0,
            2,
            Message::AppendEntries {
                term: 1,
                leader: 2,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![Entry {
                    term: 1,
                    index: 1,
                    payload: EntryPayload::Config(Membership::new(vec![2, 3, 4])),
                }],
                leader_commit: 1,
            },
            &mut out,
        );
        out.clear();
        n.tick(n.next_deadline_us(), &mut out);
        assert_eq!(n.role(), Role::Follower);
        assert!(sends(&out).is_empty());
    }

    #[test]
    fn conflicting_leader_overwrite_is_mirrored_into_storage() {
        use crate::storage::WalStorage;
        let dir = std::env::temp_dir().join(format!("notebookos-node-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("follower.wal");
        let _ = std::fs::remove_file(&path);
        let entry = |term, index, cmd: &str| Entry {
            term,
            index,
            payload: EntryPayload::Command(cmd.to_string()),
        };
        let m = Membership::new(vec![1, 2, 3]);
        {
            let wal: WalStorage<String> = WalStorage::open(&path).unwrap();
            let mut n: Node =
                RaftNode::with_storage(2, m.clone(), RaftConfig::fast(), 7, 0, Box::new(wal));
            let mut out = Vec::new();
            // Leader 1 (term 1) replicates three entries...
            n.receive(
                0,
                1,
                Message::AppendEntries {
                    term: 1,
                    leader: 1,
                    prev_log_index: 0,
                    prev_log_term: 0,
                    entries: vec![entry(1, 1, "a"), entry(1, 2, "b"), entry(1, 3, "c")],
                    leader_commit: 0,
                },
                &mut out,
            );
            assert_eq!(n.durable_index(), 3);
            // ...then a new leader (term 2) overwrites from index 2.
            n.receive(
                10,
                3,
                Message::AppendEntries {
                    term: 2,
                    leader: 3,
                    prev_log_index: 1,
                    prev_log_term: 1,
                    entries: vec![entry(2, 2, "B")],
                    leader_commit: 0,
                },
                &mut out,
            );
            assert_eq!(n.log().last_index(), 2);
            assert_eq!(n.durable_index(), 2, "truncation reached storage");
        }
        // Crash + restart: the WAL replays exactly the overwritten log —
        // without the merge-outcome mirroring, the stale "b"/"c" suffix
        // would resurface here.
        let wal: WalStorage<String> = WalStorage::open(&path).unwrap();
        let n: Node = RaftNode::with_storage(2, m, RaftConfig::fast(), 7, 0, Box::new(wal));
        assert_eq!(n.term(), 2);
        assert_eq!(n.log().last_index(), 2);
        assert_eq!(n.log().get(1).unwrap().command(), Some(&"a".to_string()));
        let e2 = n.log().get(2).unwrap();
        assert_eq!((e2.term, e2.command()), (2, Some(&"B".to_string())));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn membership_accessor_tracks_config_entries() {
        let (mut n1, _, _) = trio();
        assert_eq!(n1.membership().voters(), &[1, 2, 3]);
        let mut out = Vec::new();
        n1.receive(
            0,
            2,
            Message::AppendEntries {
                term: 1,
                leader: 2,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![Entry {
                    term: 1,
                    index: 1,
                    payload: EntryPayload::Config(Membership::new(vec![1, 2, 4])),
                }],
                leader_commit: 0,
            },
            &mut out,
        );
        assert_eq!(n1.membership().voters(), &[1, 2, 4]);
    }

    // ------------------------------------------------------------------
    // Replication pipeline
    // ------------------------------------------------------------------

    fn appends(out: &[Output<String>]) -> Vec<(NodeId, LogIndex, Vec<LogIndex>)> {
        sends(out)
            .into_iter()
            .filter_map(|(to, m)| match m {
                Message::AppendEntries {
                    prev_log_index,
                    entries,
                    ..
                } => Some((
                    to,
                    prev_log_index,
                    entries.iter().map(|e| e.index).collect(),
                )),
                _ => None,
            })
            .collect()
    }

    fn ack(prev_log_index: LogIndex, match_index: LogIndex) -> Message<String> {
        Message::AppendEntriesResponse {
            term: 1,
            success: true,
            match_index,
            prev_log_index,
        }
    }

    fn reject(prev_log_index: LogIndex, hint: LogIndex) -> Message<String> {
        Message::AppendEntriesResponse {
            term: 1,
            success: false,
            match_index: hint,
            prev_log_index,
        }
    }

    /// Node 1 leading term 1 with its no-op (index 1) sent to both peers and
    /// not yet answered: both are being probed.
    fn fresh_leader() -> Node {
        let (mut n1, _, _) = trio();
        let mut out = Vec::new();
        force_election(&mut n1, &mut out);
        n1.receive(
            100,
            2,
            Message::RequestVoteResponse {
                term: 1,
                granted: true,
            },
            &mut out,
        );
        assert_eq!(n1.role(), Role::Leader);
        n1
    }

    /// [`fresh_leader`] after both peers acknowledged the no-op: both are
    /// replicating.
    fn settled_leader() -> Node {
        let mut n1 = fresh_leader();
        let mut out = Vec::new();
        n1.receive(200, 2, ack(0, 1), &mut out);
        n1.receive(200, 3, ack(0, 1), &mut out);
        assert_eq!(n1.commit_index(), 1);
        assert!(appends(&out).is_empty(), "nothing left to send");
        n1
    }

    #[test]
    fn a_replicating_peer_is_sent_every_entry_exactly_once() {
        let mut n1 = settled_leader();
        let mut out = Vec::new();
        for (i, cmd) in ["a", "b", "c"].iter().enumerate() {
            out.clear();
            let index = n1.propose(cmd.to_string(), &mut out).unwrap();
            // Nothing has been acknowledged, yet each proposal ships only
            // its own entry, from just behind it.
            assert_eq!(
                appends(&out),
                vec![(2, index - 1, vec![index]), (3, index - 1, vec![index])],
                "proposal {i}"
            );
        }
        // Acks catch up one by one: nothing is resent, and the quorum's
        // highest index commits.
        out.clear();
        n1.receive(300, 2, ack(1, 2), &mut out);
        n1.receive(300, 2, ack(2, 3), &mut out);
        n1.receive(300, 3, ack(3, 4), &mut out);
        assert!(appends(&out).is_empty());
        assert_eq!(n1.commit_index(), 4);
    }

    #[test]
    fn a_probed_peer_gets_one_append_at_a_time() {
        let mut n1 = fresh_leader();
        let mut out = Vec::new();
        // The no-op is the outstanding probe: proposals wait in the log.
        n1.propose("a".to_string(), &mut out).unwrap();
        n1.propose("b".to_string(), &mut out).unwrap();
        assert!(appends(&out).is_empty());
        // Its answer releases everything that piled up, in one append, to
        // the peer that answered only.
        n1.receive(200, 2, ack(0, 1), &mut out);
        assert_eq!(appends(&out), vec![(2, 1, vec![2, 3])]);
    }

    #[test]
    fn a_reject_falls_back_to_probe_and_a_stale_one_is_dropped() {
        let mut n1 = settled_leader();
        let mut out = Vec::new();
        for cmd in ["a", "b", "c"] {
            n1.propose(cmd.to_string(), &mut out).unwrap();
        }
        out.clear();
        // Peer 2 never saw the append carrying index 2: it rejects the one
        // behind it (prev 2), holding only index 1.
        n1.receive(300, 2, reject(2, 1), &mut out);
        assert_eq!(appends(&out), vec![(2, 1, vec![2, 3, 4])], "one repair");
        // The reject of the third pipelined append (prev 3) arrives next:
        // it is not the probe's answer, so nothing is sent for it...
        out.clear();
        n1.receive(310, 2, reject(3, 1), &mut out);
        assert!(appends(&out).is_empty());
        // ...and while the probe is out, neither is a new proposal.
        n1.propose("d".to_string(), &mut out).unwrap();
        assert_eq!(appends(&out), vec![(3, 4, vec![5])], "peer 3 only");
        // The probe's answer resumes replication from where it stopped.
        out.clear();
        n1.receive(320, 2, ack(1, 4), &mut out);
        assert_eq!(appends(&out), vec![(2, 4, vec![5])]);
        // A reject that predates what the peer has since acknowledged
        // (prev 3 <= match 4) is recognised by the echoed index.
        out.clear();
        n1.receive(330, 2, reject(3, 1), &mut out);
        assert!(appends(&out).is_empty());
    }

    #[test]
    fn the_window_holds_entries_back_until_an_ack_or_a_heartbeat() {
        let mut n1 = settled_leader();
        let mut out = Vec::new();
        for i in 0..MAX_IN_FLIGHT + 3 {
            out.clear();
            n1.propose(format!("c{i}"), &mut out).unwrap();
            let expect = if i < MAX_IN_FLIGHT { 2 } else { 0 };
            assert_eq!(appends(&out).len(), expect, "proposal {i}");
        }
        let full = MAX_IN_FLIGHT as LogIndex + 1;
        // One ack opens one slot, and the backlog leaves as one batch.
        out.clear();
        n1.receive(300, 2, ack(1, 2), &mut out);
        assert_eq!(
            appends(&out),
            vec![(2, full, vec![full + 1, full + 2, full + 3])]
        );
        // Peer 3 never answers: the heartbeat writes its window off and
        // sends the backlog; peer 2, with nothing new, gets the empty one.
        out.clear();
        n1.tick(n1.next_deadline_us(), &mut out);
        assert_eq!(
            appends(&out),
            vec![
                (2, full + 3, vec![]),
                (3, full, vec![full + 1, full + 2, full + 3])
            ]
        );
    }

    #[test]
    fn a_peer_that_forgot_its_log_is_walked_back_past_what_it_once_acknowledged() {
        let mut n1 = settled_leader();
        let mut out = Vec::new();
        n1.propose("a".to_string(), &mut out).unwrap();
        n1.receive(300, 2, ack(1, 2), &mut out);
        // Peer 2 restarts on storage that kept nothing: it rejects the
        // heartbeat from behind index 2, holding no entry at all.
        out.clear();
        n1.tick(n1.next_deadline_us(), &mut out);
        assert_eq!(appends(&out)[0], (2, 2, vec![]));
        out.clear();
        n1.receive(400, 2, reject(2, 0), &mut out);
        assert_eq!(appends(&out), vec![(2, 0, vec![1, 2])]);
        // Its answer tells the leader nothing it had not been told before
        // the restart, and is not taken as a cue to send it all again.
        out.clear();
        n1.receive(500, 2, ack(0, 2), &mut out);
        assert!(appends(&out).is_empty());
        // It does end the probe: the next proposal goes straight out.
        let index = n1.propose("b".to_string(), &mut out).unwrap();
        assert_eq!(appends(&out)[0], (2, index - 1, vec![index]));
    }

    // ------------------------------------------------------------------
    // Regressions
    // ------------------------------------------------------------------

    #[test]
    fn a_candidate_that_steps_down_in_its_term_keeps_its_vote() {
        use crate::storage::WalStorage;
        let dir = std::env::temp_dir().join(format!("notebookos-node-vote-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("candidate.wal");
        let _ = std::fs::remove_file(&path);
        let m = Membership::new(vec![1, 2, 3]);
        let wal: WalStorage<String> = WalStorage::open(&path).unwrap();
        let mut n1: Node =
            RaftNode::with_storage(1, m.clone(), RaftConfig::fast(), 7, 0, Box::new(wal));
        let mut out = Vec::new();
        force_election(&mut n1, &mut out);
        assert_eq!((n1.term(), n1.voted_for()), (1, Some(1)));
        // Node 2 won term 1: its first append makes the candidate a
        // follower of the same term.
        n1.receive(
            50,
            2,
            Message::AppendEntries {
                term: 1,
                leader: 2,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![],
                leader_commit: 0,
            },
            &mut out,
        );
        assert_eq!(n1.role(), Role::Follower);
        assert_eq!(n1.voted_for(), Some(1), "one vote per term");
        // A third node asking for the same term's vote is refused.
        out.clear();
        n1.receive(
            60,
            3,
            Message::RequestVote {
                term: 1,
                candidate: 3,
                last_log_index: 0,
                last_log_term: 0,
            },
            &mut out,
        );
        assert!(matches!(
            sends(&out)[0].1,
            Message::RequestVoteResponse { granted: false, .. }
        ));
        // Memory and disk agree on the hard state.
        let held = (n1.term(), n1.voted_for());
        drop(n1);
        let wal: WalStorage<String> = WalStorage::open(&path).unwrap();
        let n1: Node = RaftNode::with_storage(1, m, RaftConfig::fast(), 7, 0, Box::new(wal));
        assert_eq!((n1.term(), n1.voted_for()), held);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_overtaken_append_does_not_move_the_commit_index_back() {
        let (_, mut n2, _) = trio();
        let entry = |index| Entry {
            term: 1,
            index,
            payload: EntryPayload::Command(format!("c{index}")),
        };
        let mut out = Vec::new();
        // The later append arrives first: six entries, five committed.
        n2.receive(
            0,
            1,
            Message::AppendEntries {
                term: 1,
                leader: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: (1..=6).map(entry).collect(),
                leader_commit: 5,
            },
            &mut out,
        );
        assert_eq!(n2.commit_index(), 5);
        // The one it overtook vouches for the log only through index 2.
        out.clear();
        n2.receive(
            10,
            1,
            Message::AppendEntries {
                term: 1,
                leader: 1,
                prev_log_index: 2,
                prev_log_term: 1,
                entries: vec![],
                leader_commit: 6,
            },
            &mut out,
        );
        assert_eq!(n2.commit_index(), 5);
        assert!(!out.iter().any(|o| matches!(o, Output::Apply(_))));
        // And once it can vouch for more, the index moves on from there.
        n2.receive(
            20,
            1,
            Message::AppendEntries {
                term: 1,
                leader: 1,
                prev_log_index: 6,
                prev_log_term: 1,
                entries: vec![],
                leader_commit: 6,
            },
            &mut out,
        );
        assert_eq!(n2.commit_index(), 6);
    }
}
