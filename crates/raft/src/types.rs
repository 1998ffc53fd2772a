//! Core Raft vocabulary types.

use std::fmt;

/// Identifier of a Raft participant (a kernel replica, in NotebookOS terms).
pub type NodeId = u64;

/// A Raft term number.
pub type Term = u64;

/// A 1-based position in the replicated log. Index 0 means "before the
/// first entry".
pub type LogIndex = u64;

/// The cluster membership: the set of voting nodes.
///
/// NotebookOS uses single-server membership changes when migrating a kernel
/// replica: the Global Scheduler first removes the terminated replica and
/// then adds its replacement (§3.2.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Membership {
    voters: Vec<NodeId>,
}

impl Membership {
    /// Creates a membership from a list of voters (deduplicated, sorted).
    ///
    /// # Panics
    ///
    /// Panics if `voters` is empty.
    pub fn new(mut voters: Vec<NodeId>) -> Self {
        assert!(!voters.is_empty(), "membership must not be empty");
        voters.sort_unstable();
        voters.dedup();
        Membership { voters }
    }

    /// The voting nodes, sorted ascending.
    pub fn voters(&self) -> &[NodeId] {
        &self.voters
    }

    /// Whether `node` is a voter.
    pub fn contains(&self, node: NodeId) -> bool {
        self.voters.binary_search(&node).is_ok()
    }

    /// Number of voters.
    pub fn len(&self) -> usize {
        self.voters.len()
    }

    /// Whether the membership is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.voters.is_empty()
    }

    /// Votes needed for a majority.
    pub fn quorum(&self) -> usize {
        self.voters.len() / 2 + 1
    }
}

impl fmt::Display for Membership {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.voters.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

/// What a log entry carries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EntryPayload<C> {
    /// A no-op appended by a freshly elected leader to commit entries from
    /// earlier terms (the standard "leader completeness" trick).
    Noop,
    /// An application command (for NotebookOS: an SMR state delta, a LEAD or
    /// YIELD proposal, a VOTE, or an execution-complete notification).
    Command(C),
    /// A membership change, applied as soon as it is appended.
    Config(Membership),
}

/// One entry of the replicated log.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Entry<C> {
    /// Term in which the entry was created.
    pub term: Term,
    /// 1-based log position.
    pub index: LogIndex,
    /// The payload.
    pub payload: EntryPayload<C>,
}

impl<C> Entry<C> {
    /// Returns the command carried by this entry, if any.
    pub fn command(&self) -> Option<&C> {
        match &self.payload {
            EntryPayload::Command(c) => Some(c),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_dedupes_and_sorts() {
        let m = Membership::new(vec![3, 1, 2, 3, 1]);
        assert_eq!(m.voters(), &[1, 2, 3]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn quorum_sizes() {
        assert_eq!(Membership::new(vec![1]).quorum(), 1);
        assert_eq!(Membership::new(vec![1, 2]).quorum(), 2);
        assert_eq!(Membership::new(vec![1, 2, 3]).quorum(), 2);
        assert_eq!(Membership::new(vec![1, 2, 3, 4]).quorum(), 3);
        assert_eq!(Membership::new(vec![1, 2, 3, 4, 5]).quorum(), 3);
    }

    #[test]
    #[should_panic(expected = "membership must not be empty")]
    fn empty_membership_panics() {
        Membership::new(vec![]);
    }

    #[test]
    fn entry_command_accessor() {
        let e = Entry {
            term: 1,
            index: 1,
            payload: EntryPayload::Command(7u32),
        };
        assert_eq!(e.command(), Some(&7));
        let n: Entry<u32> = Entry {
            term: 1,
            index: 2,
            payload: EntryPayload::Noop,
        };
        assert_eq!(n.command(), None);
    }

    #[test]
    fn membership_display() {
        let m = Membership::new(vec![2, 1]);
        assert_eq!(format!("{m}"), "{1,2}");
    }
}
