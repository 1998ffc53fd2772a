//! The in-memory replicated log.

use crate::types::{Entry, EntryPayload, LogIndex, Membership, Term};

/// What [`RaftLog::merge`] did to the log, in storage-mirroring terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Index of the last entry covered by the merge (matched or written).
    pub last: LogIndex,
    /// Index of the first entry physically written, when the merge changed
    /// the log. Everything after `first_written - 1` was truncated (if
    /// conflicting) and rewritten; `None` means the log is unchanged.
    pub first_written: Option<LogIndex>,
}

/// An in-memory Raft log with 1-based indexing.
///
/// Kernel-replica logs in NotebookOS are short-lived (one per notebook
/// session) and small (SMR deltas are pointers plus scalars), so an
/// in-memory `Vec` is the honest representation; snapshotting/compaction is
/// out of scope for what the paper's protocols exercise.
#[derive(Debug, Clone)]
pub struct RaftLog<C> {
    entries: Vec<Entry<C>>,
    /// Indices of the `Config` entries, ascending, kept in step with every
    /// push and truncation: the membership in effect is the last one, found
    /// without walking the log.
    config_indices: Vec<LogIndex>,
}

impl<C: Clone> RaftLog<C> {
    /// Creates an empty log.
    pub fn new() -> Self {
        RaftLog {
            entries: Vec::new(),
            config_indices: Vec::new(),
        }
    }

    /// Index of the last entry (0 when empty).
    pub fn last_index(&self) -> LogIndex {
        self.entries.len() as LogIndex
    }

    /// Term of the last entry (0 when empty).
    pub fn last_term(&self) -> Term {
        self.entries.last().map_or(0, |e| e.term)
    }

    /// The entry at 1-based `index`, if present.
    pub fn get(&self, index: LogIndex) -> Option<&Entry<C>> {
        if index == 0 {
            return None;
        }
        self.entries.get(index as usize - 1)
    }

    /// Term of the entry at `index`; 0 for index 0; `None` if out of range.
    pub fn term_at(&self, index: LogIndex) -> Option<Term> {
        if index == 0 {
            return Some(0);
        }
        self.get(index).map(|e| e.term)
    }

    /// Appends a new entry created by a leader in `term`, returning its
    /// index.
    pub fn append(&mut self, term: Term, payload: EntryPayload<C>) -> LogIndex {
        let index = self.last_index() + 1;
        self.push(Entry {
            term,
            index,
            payload,
        });
        index
    }

    /// The one place an entry joins the log, so `config_indices` cannot
    /// fall out of step with it.
    fn push(&mut self, entry: Entry<C>) {
        if matches!(entry.payload, EntryPayload::Config(_)) {
            self.config_indices.push(entry.index);
        }
        self.entries.push(entry);
    }

    /// The entries in `[from, to]` (1-based, inclusive), borrowed.
    pub fn range(&self, from: LogIndex, to: LogIndex) -> &[Entry<C>] {
        if from == 0 || from > to || from > self.last_index() {
            return &[];
        }
        let to = to.min(self.last_index());
        &self.entries[(from as usize - 1)..(to as usize)]
    }

    /// Entries in `[from, to]` (1-based, inclusive), capped at `limit`.
    pub fn slice(&self, from: LogIndex, to: LogIndex, limit: usize) -> Vec<Entry<C>> {
        let range = self.range(from, to);
        range[..range.len().min(limit)].to_vec()
    }

    /// Truncates the log so that `last_index() == index` (entries after
    /// `index` are discarded). Truncating to 0 clears the log.
    pub fn truncate_to(&mut self, index: LogIndex) {
        self.entries.truncate(index as usize);
        while self.config_indices.last().is_some_and(|&c| c > index) {
            self.config_indices.pop();
        }
    }

    /// Follower-side merge of entries received via AppendEntries.
    ///
    /// Assumes the `prev_log` consistency check already passed. Entries that
    /// match (same index and term) are kept; on the first conflict the local
    /// suffix is truncated and the remote suffix appended. The returned
    /// [`MergeOutcome`] reports both the last covered index and where the
    /// log physically changed, so a caller holding durable storage can
    /// mirror the truncation + appends exactly — without it, a
    /// conflicting-leader overwrite would silently diverge from the WAL.
    pub fn merge(&mut self, incoming: &[Entry<C>]) -> MergeOutcome {
        let (held, last) = self.held_prefix(incoming);
        self.write_suffix(last, incoming[held..].iter().cloned())
    }

    /// [`RaftLog::merge`] for a caller that owns the batch (a follower
    /// holding an `AppendEntries`): what the log lacks is moved in, not
    /// cloned.
    pub fn merge_owned(&mut self, mut incoming: Vec<Entry<C>>) -> MergeOutcome {
        let (held, last) = self.held_prefix(&incoming);
        self.write_suffix(last, incoming.drain(held..))
    }

    /// How many leading entries of `incoming` the log already holds (same
    /// index and term), and the index a merge covers if it writes nothing
    /// beyond them.
    fn held_prefix(&self, incoming: &[Entry<C>]) -> (usize, LogIndex) {
        let held = incoming
            .iter()
            .take_while(|e| self.term_at(e.index) == Some(e.term))
            .count();
        let last = match held.checked_sub(1) {
            Some(i) => incoming[i].index,
            None => self.last_index(),
        };
        (held, last)
    }

    /// Replaces everything from the first of `fresh` on with `fresh`.
    fn write_suffix(
        &mut self,
        mut last: LogIndex,
        fresh: impl Iterator<Item = Entry<C>>,
    ) -> MergeOutcome {
        let mut first_written = None;
        for entry in fresh {
            if first_written.is_none() {
                self.truncate_to(entry.index - 1);
                first_written = Some(entry.index);
            }
            last = entry.index;
            self.push(entry);
        }
        MergeOutcome {
            last,
            first_written,
        }
    }

    /// The latest membership recorded anywhere in the log, in constant
    /// time.
    pub fn latest_membership(&self) -> Option<&Membership> {
        self.config_at(*self.config_indices.last()?)
    }

    fn config_at(&self, index: LogIndex) -> Option<&Membership> {
        match &self.get(index)?.payload {
            EntryPayload::Config(m) => Some(m),
            _ => None,
        }
    }

    /// Whether a candidate whose log ends at `(last_term, last_index)` is at
    /// least as up-to-date as this log (the Raft §5.4.1 voting check).
    pub fn candidate_is_up_to_date(&self, last_term: Term, last_index: LogIndex) -> bool {
        (last_term, last_index) >= (self.last_term(), self.last_index())
    }

    /// Iterates over all entries in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Entry<C>> {
        self.entries.iter()
    }
}

impl<C: Clone> Default for RaftLog<C> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(terms: &[Term]) -> RaftLog<u32> {
        let mut log = RaftLog::new();
        for (i, &t) in terms.iter().enumerate() {
            log.append(t, EntryPayload::Command(i as u32));
        }
        log
    }

    #[test]
    fn append_assigns_indices() {
        let mut log = RaftLog::new();
        assert_eq!(log.append(1, EntryPayload::Command(10u32)), 1);
        assert_eq!(log.append(1, EntryPayload::Command(11)), 2);
        assert_eq!(log.last_index(), 2);
        assert_eq!(log.last_term(), 1);
        assert_eq!(log.get(1).unwrap().command(), Some(&10));
        assert!(log.get(0).is_none());
        assert!(log.get(3).is_none());
    }

    #[test]
    fn term_at_handles_sentinel() {
        let log = log_with(&[1, 1, 2]);
        assert_eq!(log.term_at(0), Some(0));
        assert_eq!(log.term_at(3), Some(2));
        assert_eq!(log.term_at(4), None);
    }

    #[test]
    fn slice_respects_bounds_and_limit() {
        let log = log_with(&[1, 1, 1, 1, 1]);
        assert_eq!(log.slice(2, 4, 100).len(), 3);
        assert_eq!(log.slice(2, 4, 2).len(), 2);
        assert_eq!(log.slice(6, 9, 10).len(), 0);
        assert_eq!(log.slice(0, 3, 10).len(), 0);
        assert_eq!(log.slice(4, 100, 10).len(), 2);
    }

    #[test]
    fn merge_keeps_matching_prefix() {
        let mut log = log_with(&[1, 1, 2]);
        // Incoming duplicates entry 3 and extends with 4.
        let incoming = vec![
            Entry {
                term: 2,
                index: 3,
                payload: EntryPayload::Command(99u32),
            },
            Entry {
                term: 2,
                index: 4,
                payload: EntryPayload::Command(100),
            },
        ];
        // Entry 3 matches by (index, term) so it is kept as-is.
        let outcome = log.merge(&incoming);
        assert_eq!(outcome.last, 4);
        assert_eq!(outcome.first_written, Some(4), "only entry 4 was written");
        assert_eq!(log.last_index(), 4);
        assert_eq!(log.get(3).unwrap().command(), Some(&2));
        assert_eq!(log.get(4).unwrap().command(), Some(&100));
    }

    #[test]
    fn merge_truncates_conflicts() {
        let mut log = log_with(&[1, 1, 1, 1]);
        let incoming = vec![Entry {
            term: 2,
            index: 3,
            payload: EntryPayload::Command(42u32),
        }];
        let outcome = log.merge(&incoming);
        // The outcome pinpoints the conflict so storage can truncate to
        // index 2 and rewrite from 3 — the silent-divergence fix.
        assert_eq!(outcome.first_written, Some(3));
        assert_eq!(outcome.last, 3);
        assert_eq!(log.last_index(), 3);
        assert_eq!(log.get(3).unwrap().term, 2);
    }

    #[test]
    fn empty_merge_is_noop() {
        let mut log = log_with(&[1, 2]);
        let outcome = log.merge(&[]);
        assert_eq!(outcome.last, 2);
        assert_eq!(outcome.first_written, None);
        assert_eq!(log.last_index(), 2);
    }

    #[test]
    fn duplicate_merge_writes_nothing() {
        let mut log = log_with(&[1, 1]);
        let dup: Vec<Entry<u32>> = log.iter().cloned().collect();
        let outcome = log.merge(&dup);
        assert_eq!(outcome.last, 2);
        assert_eq!(outcome.first_written, None, "retransmits must not rewrite");
        assert_eq!(log.last_index(), 2);
    }

    #[test]
    fn membership_lookup_covers_a_prefix() {
        let mut log: RaftLog<u32> = RaftLog::new();
        assert_eq!(log.latest_membership(), None);
        log.append(1, EntryPayload::Noop);
        assert_eq!(log.latest_membership(), None);
        log.append(1, EntryPayload::Config(Membership::new(vec![1, 2, 3])));
        assert_eq!(log.latest_membership().unwrap().voters(), &[1, 2, 3]);
        log.append(2, EntryPayload::Config(Membership::new(vec![1, 2, 4])));
        log.append(2, EntryPayload::Noop);
        assert_eq!(log.latest_membership().unwrap().voters(), &[1, 2, 4]);
    }

    #[test]
    fn latest_membership_follows_truncation_and_merge() {
        let config = |term, index, voters: &[u64]| Entry {
            term,
            index,
            payload: EntryPayload::<u32>::Config(Membership::new(voters.to_vec())),
        };
        let mut log: RaftLog<u32> = RaftLog::new();
        log.merge(&[config(1, 1, &[1, 2, 3]), config(1, 2, &[1, 2, 4])]);
        assert_eq!(log.latest_membership().unwrap().voters(), &[1, 2, 4]);
        // A conflicting leader overwrites the second change with a command:
        // the first is in effect again.
        log.merge_owned(vec![Entry {
            term: 2,
            index: 2,
            payload: EntryPayload::Command(7),
        }]);
        assert_eq!(log.latest_membership().unwrap().voters(), &[1, 2, 3]);
        log.merge_owned(vec![config(2, 3, &[1, 2, 5])]);
        assert_eq!(log.latest_membership().unwrap().voters(), &[1, 2, 5]);
        log.truncate_to(0);
        assert_eq!(log.latest_membership(), None);
    }

    #[test]
    fn merge_owned_does_what_merge_does() {
        let local = log_with(&[1, 1, 1, 1]);
        let batch: Vec<Entry<u32>> = [(1, 2), (1, 3), (2, 4), (2, 5)]
            .iter()
            .map(|&(term, index)| Entry {
                term,
                index,
                payload: EntryPayload::Command(index as u32 * 10),
            })
            .collect();
        let (mut borrowed, mut owned) = (local.clone(), local);
        let outcome = borrowed.merge(&batch);
        assert_eq!(owned.merge_owned(batch), outcome);
        assert_eq!((outcome.last, outcome.first_written), (5, Some(4)));
        assert!(borrowed.iter().eq(owned.iter()));
    }

    #[test]
    fn range_borrows_what_slice_clones() {
        let log = log_with(&[1, 1, 2, 2, 3]);
        assert_eq!(log.range(2, 4), log.slice(2, 4, usize::MAX).as_slice());
        assert_eq!(log.range(4, 100).len(), 2);
        assert!(log.range(0, 3).is_empty());
        assert!(log.range(3, 2).is_empty());
        assert!(log.range(6, 9).is_empty());
    }

    #[test]
    fn up_to_date_check() {
        let log = log_with(&[1, 2, 2]);
        // Higher last term wins regardless of length.
        assert!(log.candidate_is_up_to_date(3, 1));
        // Same term, longer or equal log wins.
        assert!(log.candidate_is_up_to_date(2, 3));
        assert!(log.candidate_is_up_to_date(2, 4));
        assert!(!log.candidate_is_up_to_date(2, 2));
        assert!(!log.candidate_is_up_to_date(1, 99));
    }
}
