//! Raft's safety properties, stated once and checked after every step.
//!
//! A [`SafetyChecker`] watches a group of [`RaftNode`]s from outside. Fed
//! the nodes after every input any of them processed, it keeps just enough
//! history (who led which term, who voted for whom, what was committed
//! where) to report the first step at which one of these stops holding:
//!
//! * **Election safety** — at most one leader per term.
//! * **Leader append-only** — a leader never overwrites or drops entries
//!   of its own log.
//! * **Log matching** — two logs that agree on the term at an index are
//!   identical up to it.
//! * **Leader completeness** — an entry committed in one term is in the
//!   log of every leader of a later term.
//! * **State-machine safety** — no two nodes commit different entries at
//!   one index.
//! * A node's term and `commit_index` never move back, the latter never
//!   passes the end of its log, and the vote it casts in a term stays cast,
//!   for that one candidate, until the term ends.
//!
//! A node that is killed and rebuilt from its storage
//! ([`SafetyChecker::restarted`]) starts over on what it held in memory —
//! its commit index, its leadership — and on nothing else: the term and the
//! vote it persisted must come back with it.
//!
//! [`crate::harness::Network`] runs one after every event it delivers (in
//! this crate's own tests always, elsewhere on request), so a schedule
//! that breaks a property fails at the step that broke it, with the seed
//! that reproduces it.

use std::collections::HashMap;

use crate::node::{RaftNode, Role};
use crate::types::{Entry, LogIndex, NodeId, Term};

/// What the checker remembers of one node between steps.
#[derive(Debug, Clone, Copy, Default)]
struct Seen {
    term: Term,
    commit_index: LogIndex,
    /// While it leads: the term it leads and the end of its log.
    led: Option<(Term, LogIndex, Term)>,
}

/// Checks the safety properties of a Raft group step by step (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct SafetyChecker<C> {
    leaders: HashMap<Term, NodeId>,
    votes: HashMap<(NodeId, Term), NodeId>,
    seen: HashMap<NodeId, Seen>,
    /// The committed sequence: each entry with the term of the node that
    /// committed it first.
    committed: Vec<(Entry<C>, Term)>,
    checks: u64,
}

impl<C> Default for SafetyChecker<C> {
    fn default() -> Self {
        SafetyChecker {
            leaders: HashMap::new(),
            votes: HashMap::new(),
            seen: HashMap::new(),
            committed: Vec::new(),
            checks: 0,
        }
    }
}

impl<C: Clone + PartialEq> SafetyChecker<C> {
    /// Creates a checker that has seen nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Steps checked so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Records that `node` was killed and rebuilt from its storage: its
    /// commit index starts again from zero and it leads nothing. Its term
    /// and votes stay on record, so the next [`SafetyChecker::check`] fails
    /// a node whose storage gave back an older term or dropped its vote.
    pub fn restarted(&mut self, node: NodeId) {
        if let Some(seen) = self.seen.get_mut(&node) {
            seen.commit_index = 0;
            seen.led = None;
        }
    }

    /// Checks every property over `nodes` as they stand now, against what
    /// earlier calls saw.
    ///
    /// # Errors
    ///
    /// Returns a description of the first property found broken.
    pub fn check<'a>(
        &mut self,
        nodes: impl IntoIterator<Item = &'a RaftNode<C>>,
    ) -> Result<(), String>
    where
        C: 'a,
    {
        // By id, so that what is reported (and which of two nodes is
        // recorded as first to commit) does not depend on the caller's
        // iteration order.
        let mut nodes: Vec<&RaftNode<C>> = nodes.into_iter().collect();
        nodes.sort_by_key(|n| n.id());
        self.checks += 1;
        for node in &nodes {
            self.check_own_history(node)?;
        }
        for node in nodes.iter().filter(|n| n.role() == Role::Leader) {
            self.check_leader(node)?;
        }
        for (i, a) in nodes.iter().enumerate() {
            for b in &nodes[i + 1..] {
                check_log_matching(a, b)?;
            }
        }
        for node in &nodes {
            let seen = self.seen.entry(node.id()).or_default();
            seen.term = node.term();
            seen.commit_index = node.commit_index();
            seen.led = (node.role() == Role::Leader).then(|| {
                let log = node.log();
                (node.term(), log.last_index(), log.last_term())
            });
        }
        Ok(())
    }

    /// One node against its own past: term, vote, commit index, and what
    /// it newly committed against what anyone committed before.
    fn check_own_history(&mut self, node: &RaftNode<C>) -> Result<(), String> {
        let (id, term) = (node.id(), node.term());
        let seen = self.seen.get(&id).copied().unwrap_or_default();
        if term < seen.term {
            return Err(format!("node {id}: term went back {} -> {term}", seen.term));
        }
        match (self.votes.get(&(id, term)), node.voted_for()) {
            (Some(&first), Some(vote)) if first != vote => {
                return Err(format!(
                    "node {id} voted for {first} and for {vote} in term {term}"
                ));
            }
            (Some(first), None) => {
                return Err(format!(
                    "node {id} lost its vote for {first} in term {term}"
                ));
            }
            (None, Some(vote)) => {
                self.votes.insert((id, term), vote);
            }
            _ => {}
        }
        let commit = node.commit_index();
        if commit < seen.commit_index {
            return Err(format!(
                "node {id}: commit_index went back {} -> {commit}",
                seen.commit_index
            ));
        }
        if commit > node.log().last_index() {
            return Err(format!("node {id}: commit_index {commit} is past its log"));
        }
        for entry in node.log().range(seen.commit_index + 1, commit) {
            match self.committed.get(entry.index as usize - 1) {
                Some((first, _)) if first != entry => {
                    return Err(format!(
                        "state-machine safety: node {id} committed a different entry at {}",
                        entry.index
                    ));
                }
                Some(_) => {}
                None => self.committed.push((entry.clone(), term)),
            }
        }
        Ok(())
    }

    /// A leader against the record: alone in its term, its own log only
    /// ever extended, and holding everything committed in earlier terms.
    fn check_leader(&mut self, node: &RaftNode<C>) -> Result<(), String> {
        let (id, term, log) = (node.id(), node.term(), node.log());
        let first = *self.leaders.entry(term).or_insert(id);
        if first != id {
            return Err(format!(
                "election safety: nodes {first} and {id} both led term {term}"
            ));
        }
        if let Some((led, last_index, last_term)) = self.seen.get(&id).and_then(|s| s.led) {
            if led == term && log.term_at(last_index) != Some(last_term) {
                return Err(format!(
                    "leader append-only: leader {id} of term {term} rewrote its log at or before {last_index}"
                ));
            }
        }
        for (entry, committed_in) in &self.committed {
            if *committed_in < term && log.get(entry.index) != Some(entry) {
                return Err(format!(
                    "leader completeness: leader {id} of term {term} lacks entry {} committed in term {committed_in}",
                    entry.index
                ));
            }
        }
        Ok(())
    }
}

/// Log matching for one pair: below the highest index at which the two
/// logs carry the same term, they must be the same log.
fn check_log_matching<C: Clone + PartialEq>(
    a: &RaftNode<C>,
    b: &RaftNode<C>,
) -> Result<(), String> {
    let (la, lb) = (a.log(), b.log());
    let shared = la.last_index().min(lb.last_index());
    let Some(agree) = (1..=shared).rev().find(|&i| la.term_at(i) == lb.term_at(i)) else {
        return Ok(());
    };
    if la.range(1, agree) != lb.range(1, agree) {
        return Err(format!(
            "log matching: nodes {} and {} agree on the term at {agree} but differ before it",
            a.id(),
            b.id()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RaftConfig;
    use crate::message::Message;
    use crate::types::{EntryPayload, Membership};

    type Node = RaftNode<u32>;

    fn node(id: NodeId) -> Node {
        RaftNode::new(
            id,
            Membership::new(vec![1, 2, 3]),
            RaftConfig::fast(),
            id,
            0,
        )
    }

    fn append(
        term: Term,
        prev: (LogIndex, Term),
        entries: &[(Term, u32)],
        commit: LogIndex,
    ) -> Message<u32> {
        Message::AppendEntries {
            term,
            leader: 9,
            prev_log_index: prev.0,
            prev_log_term: prev.1,
            entries: entries
                .iter()
                .enumerate()
                .map(|(i, &(term, c))| Entry {
                    term,
                    index: prev.0 + 1 + i as LogIndex,
                    payload: EntryPayload::Command(c),
                })
                .collect(),
            leader_commit: commit,
        }
    }

    /// Makes `n` the leader of its next term by handing it a peer's vote.
    fn elect(n: &mut Node) {
        let mut out = Vec::new();
        n.tick(n.next_deadline_us(), &mut out);
        let term = n.term();
        n.receive(
            0,
            2,
            Message::RequestVoteResponse {
                term,
                granted: true,
            },
            &mut out,
        );
        assert_eq!(n.role(), Role::Leader);
    }

    #[test]
    fn a_healthy_exchange_passes_and_is_counted() {
        let (mut a, mut b) = (node(1), node(2));
        let mut checker = SafetyChecker::new();
        let mut out = Vec::new();
        a.receive(0, 9, append(1, (0, 0), &[(1, 7), (1, 8)], 1), &mut out);
        checker.check([&a, &b]).unwrap();
        b.receive(0, 9, append(1, (0, 0), &[(1, 7)], 1), &mut out);
        checker.check([&a, &b]).unwrap();
        assert_eq!(checker.checks(), 2);
    }

    #[test]
    fn a_restart_gives_back_the_commit_index_but_not_the_term_or_the_vote() {
        let mut out = Vec::new();
        let mut first_life = node(1);
        first_life.tick(first_life.next_deadline_us(), &mut out);
        assert_eq!((first_life.term(), first_life.voted_for()), (1, Some(1)));
        first_life.receive(0, 9, append(1, (0, 0), &[(1, 7)], 1), &mut out);
        let mut checker = SafetyChecker::new();
        checker.check([&first_life]).unwrap();

        // Rebuilt with its vote and its log, its commit index back at zero.
        let mut durable = node(1);
        durable.tick(durable.next_deadline_us(), &mut out);
        durable.receive(0, 9, append(1, (0, 0), &[(1, 7)], 0), &mut out);
        let err = checker.clone().check([&durable]).unwrap_err();
        assert!(err.contains("commit_index went back"), "{err}");
        checker.restarted(1);
        checker.clone().check([&durable]).unwrap();

        // Rebuilt in its term but without its vote, and with nothing at all.
        let mut no_vote = node(1);
        no_vote.receive(0, 9, append(1, (0, 0), &[(1, 7)], 0), &mut out);
        let err = checker.clone().check([&no_vote]).unwrap_err();
        assert!(err.contains("lost its vote for 1 in term 1"), "{err}");
        let err = checker.check([&node(1)]).unwrap_err();
        assert!(err.contains("term went back"), "{err}");
    }

    #[test]
    fn two_leaders_in_one_term_break_election_safety() {
        let (mut a, mut b) = (node(1), node(3));
        elect(&mut a);
        elect(&mut b);
        assert_eq!(a.term(), b.term());
        let err = SafetyChecker::new().check([&a, &b]).unwrap_err();
        assert!(err.starts_with("election safety"), "{err}");
    }

    #[test]
    fn different_entries_committed_at_one_index_break_state_machine_safety() {
        let (mut a, mut b) = (node(1), node(2));
        let mut out = Vec::new();
        a.receive(0, 9, append(1, (0, 0), &[(1, 7)], 1), &mut out);
        b.receive(0, 9, append(2, (0, 0), &[(2, 8)], 1), &mut out);
        let err = SafetyChecker::new().check([&a, &b]).unwrap_err();
        assert!(err.starts_with("state-machine safety"), "{err}");
    }

    #[test]
    fn same_term_with_a_different_prefix_breaks_log_matching() {
        let (mut a, mut b) = (node(1), node(2));
        let mut out = Vec::new();
        a.receive(0, 9, append(2, (0, 0), &[(1, 7), (2, 9)], 0), &mut out);
        b.receive(0, 9, append(2, (0, 0), &[(1, 8), (2, 9)], 0), &mut out);
        let err = SafetyChecker::new().check([&a, &b]).unwrap_err();
        assert!(err.starts_with("log matching"), "{err}");
    }

    #[test]
    fn a_leader_without_a_committed_entry_breaks_leader_completeness() {
        let (mut a, mut b) = (node(1), node(3));
        let mut out = Vec::new();
        a.receive(0, 9, append(1, (0, 0), &[(1, 7)], 1), &mut out);
        let mut checker = SafetyChecker::new();
        checker.check([&a, &b]).unwrap();
        // Node 3 wins term 2 (the test hands it the vote) with an empty log.
        b.receive(
            0,
            9,
            Message::RequestVoteResponse {
                term: 1,
                granted: false,
            },
            &mut out,
        );
        elect(&mut b);
        assert_eq!(b.term(), 2);
        let err = checker.check([&a, &b]).unwrap_err();
        assert!(err.starts_with("leader completeness"), "{err}");
    }
}
