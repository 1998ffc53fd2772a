//! The Raft wire messages.

use crate::types::{Entry, LogIndex, NodeId, Term};

/// Messages exchanged between Raft peers.
///
/// These are the four RPCs of the Raft paper, expressed as plain data so the
/// transport (the simulated network, a FIFO queue) is the caller's choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message<C> {
    /// Candidate solicits a vote.
    RequestVote {
        /// Candidate's term.
        term: Term,
        /// The candidate's id.
        candidate: NodeId,
        /// Index of candidate's last log entry.
        last_log_index: LogIndex,
        /// Term of candidate's last log entry.
        last_log_term: Term,
    },
    /// Reply to [`Message::RequestVote`].
    RequestVoteResponse {
        /// Responder's current term (for the candidate to update itself).
        term: Term,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader replicates entries / sends heartbeats.
    AppendEntries {
        /// Leader's term.
        term: Term,
        /// The leader's id, so followers can redirect clients.
        leader: NodeId,
        /// Index of the entry immediately preceding `entries`.
        prev_log_index: LogIndex,
        /// Term of the `prev_log_index` entry.
        prev_log_term: Term,
        /// Entries to append (empty for heartbeats).
        entries: Vec<Entry<C>>,
        /// Leader's commit index.
        leader_commit: LogIndex,
    },
    /// Reply to [`Message::AppendEntries`].
    AppendEntriesResponse {
        /// Responder's current term.
        term: Term,
        /// Whether the append matched (`prev_log_*` check passed).
        success: bool,
        /// On success: the index of the last entry now known replicated on
        /// the responder. On failure: the responder's suggestion for where
        /// the leader should back up to (a conflict hint).
        match_index: LogIndex,
        /// The `prev_log_index` of the append this answers, echoed so the
        /// leader can tell the answer to its outstanding probe from a
        /// stale or reordered one.
        prev_log_index: LogIndex,
    },
}

impl<C> Message<C> {
    /// The sender's term carried by any message variant.
    pub fn term(&self) -> Term {
        match self {
            Message::RequestVote { term, .. }
            | Message::RequestVoteResponse { term, .. }
            | Message::AppendEntries { term, .. }
            | Message::AppendEntriesResponse { term, .. } => *term,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_accessor_covers_all_variants() {
        let msgs: Vec<Message<u8>> = vec![
            Message::RequestVote {
                term: 3,
                candidate: 1,
                last_log_index: 0,
                last_log_term: 0,
            },
            Message::RequestVoteResponse {
                term: 3,
                granted: true,
            },
            Message::AppendEntries {
                term: 3,
                leader: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![],
                leader_commit: 0,
            },
            Message::AppendEntriesResponse {
                term: 3,
                success: true,
                match_index: 0,
                prev_log_index: 0,
            },
        ];
        for m in &msgs {
            assert_eq!(m.term(), 3);
        }
    }
}
