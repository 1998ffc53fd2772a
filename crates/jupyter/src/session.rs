//! Notebook sessions and deterministic message-id generation.
//!
//! # One slot per live session
//!
//! [`SessionManager`] keeps each live session in one slot of a slab and
//! names it by the slot's index, a [`SessionIdx`]. A session's id is
//! owned once: the slot and the id → slot index share one `Rc<str>`. Its
//! kernel's id is not stored at all: it is [`kernel_id_of`] the session's.
//! An ended session's slot goes on a free list and the next session to
//! start takes it, so the slab spans the most sessions ever live at once,
//! not every session ever started. Callers keep their own per-session
//! columns (the gateway keeps each kernel's route and resources) at the
//! same index.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// What a session's kernel id adds before the session id.
const KERNEL_PREFIX: &str = "kernel-";

/// The id of session `session_id`'s kernel: `kernel-{session_id}`.
pub fn kernel_id_of(session_id: &str) -> String {
    [KERNEL_PREFIX, session_id].concat()
}

/// The index of a live session's slot in its [`SessionManager`]: valid
/// from [`SessionManager::create`] until the session is removed, after
/// which a later session may be given the same index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionIdx(u32);

impl SessionIdx {
    /// The slot's position, for indexing a caller's own columns.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A persistent notebook session: the long-lived working instance whose
/// kernel maintains variables, imports, and other execution context (§2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// The session's unique id, shared with the manager's id index.
    pub id: Rc<str>,
    /// Number of cell executions completed so far.
    pub execution_count: u64,
    /// Last client activity (µs of virtual time); the creation time until
    /// the first execution.
    pub last_activity_us: u64,
}

impl Session {
    /// Records client activity (a cell submission) and bumps the execution
    /// count. Returns the new count.
    pub fn record_execution(&mut self, now_us: u64) -> u64 {
        self.last_activity_us = now_us;
        self.execution_count += 1;
        self.execution_count
    }

    /// Whether `kernel_id` names this session's kernel
    /// ([`kernel_id_of`] its id), compared without building it.
    pub fn runs(&self, kernel_id: &str) -> bool {
        kernel_id.strip_prefix(KERNEL_PREFIX) == Some(&*self.id)
    }
}

/// Tracks the set of live sessions for a Jupyter Server, one slot each
/// (module docs, "One slot per live session").
#[derive(Debug, Default)]
pub struct SessionManager {
    /// The slab: `None` marks a free slot, listed in `free`.
    slots: Vec<Option<Session>>,
    free: Vec<SessionIdx>,
    by_id: HashMap<Rc<str>, SessionIdx>,
}

impl SessionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        SessionManager::default()
    }

    /// Registers session `id`, in a free slot if there is one, and returns
    /// its slot.
    ///
    /// # Panics
    ///
    /// Panics if the session id is already registered, or if more than
    /// `u32::MAX` sessions are live at once.
    pub fn create(&mut self, id: &str, now_us: u64) -> SessionIdx {
        assert!(
            !self.by_id.contains_key(id),
            "session `{id}` already exists"
        );
        let id: Rc<str> = Rc::from(id);
        let session = Session {
            id: Rc::clone(&id),
            execution_count: 0,
            last_activity_us: now_us,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx.index()] = Some(session);
                idx
            }
            None => {
                let idx = SessionIdx(u32::try_from(self.slots.len()).expect("u32 slots"));
                self.slots.push(Some(session));
                idx
            }
        };
        self.by_id.insert(id, idx);
        idx
    }

    /// The slot of live session `id`.
    pub fn find(&self, id: &str) -> Option<SessionIdx> {
        self.by_id.get(id).copied()
    }

    /// Looks up a session.
    pub fn get(&self, id: &str) -> Option<&Session> {
        self.find(id).map(|idx| self.slot(idx))
    }

    /// The session in slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free: `idx` outlived its session.
    pub fn slot(&self, idx: SessionIdx) -> &Session {
        self.slots[idx.index()]
            .as_ref()
            .expect("a live session's slot")
    }

    /// The session in slot `idx`, to change it.
    ///
    /// # Panics
    ///
    /// As [`SessionManager::slot`].
    pub fn slot_mut(&mut self, idx: SessionIdx) -> &mut Session {
        self.slots[idx.index()]
            .as_mut()
            .expect("a live session's slot")
    }

    /// Removes a session, returning the slot it held (now free) and the
    /// session, if it existed.
    pub fn remove(&mut self, id: &str) -> Option<(SessionIdx, Session)> {
        let idx = self.by_id.remove(id)?;
        let session = self.slots[idx.index()]
            .take()
            .expect("an indexed slot is live");
        self.free.push(idx);
        Some((idx, session))
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

/// Deterministic message-id generator.
///
/// Real Jupyter uses random UUIDs; the simulator needs reproducibility, so
/// ids are `"{prefix}-{counter}"`.
#[derive(Debug, Clone)]
pub struct MsgIdGen {
    prefix: String,
    counter: u64,
}

impl MsgIdGen {
    /// Creates a generator with the given prefix.
    pub fn new(prefix: impl Into<String>) -> Self {
        MsgIdGen {
            prefix: prefix.into(),
            counter: 0,
        }
    }

    /// Produces the next unique id.
    pub fn next_id(&mut self) -> String {
        self.counter += 1;
        // Sized up front: `format!` starts small and grows, two allocations
        // an id where one will do. A `u64` has at most 20 digits.
        let mut id = String::with_capacity(self.prefix.len() + 21);
        let _ = write!(id, "{}-{}", self.prefix, self.counter);
        id
    }

    /// Uses up the next `n` ids without formatting them: the id
    /// [`MsgIdGen::next_id`] returns afterwards is the one it would have
    /// returned after `n` more calls.
    pub fn skip(&mut self, n: u64) {
        self.counter += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let mut m = SessionManager::new();
        let idx = m.create("s1", 100);
        assert_eq!(m.find("s1"), Some(idx));
        let session = m.get("s1").unwrap();
        assert_eq!((&*session.id, session.last_activity_us), ("s1", 100));
        assert!(session.runs("kernel-s1"));
        assert_eq!(kernel_id_of("s1"), "kernel-s1");
        for other in ["kernel-s2", "kernel-s", "kernel-s10", "s1", "kernel_s1", ""] {
            assert!(!session.runs(other), "{other}");
        }
        assert_eq!(m.len(), 1);
        assert!(m.get("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_session_panics() {
        let mut m = SessionManager::new();
        m.create("s1", 0);
        m.create("s1", 0);
    }

    #[test]
    fn execution_bumps_activity() {
        let mut m = SessionManager::new();
        let idx = m.create("s1", 0);
        assert_eq!(m.slot_mut(idx).record_execution(500), 1);
        assert_eq!(m.slot_mut(idx).record_execution(900), 2);
        assert_eq!(m.get("s1").unwrap().last_activity_us, 900);
        assert_eq!(m.slot(idx).execution_count, 2);
    }

    #[test]
    fn remove_returns_session() {
        let mut m = SessionManager::new();
        let idx = m.create("s1", 0);
        let (freed, session) = m.remove("s1").unwrap();
        assert_eq!((freed, &*session.id), (idx, "s1"));
        assert!(m.remove("s1").is_none());
        assert!(m.is_empty());
    }

    /// Ended sessions' slots are taken again, most recently freed first,
    /// and the slab spans only the most sessions live at once.
    #[test]
    fn freed_slots_are_reused() {
        let mut m = SessionManager::new();
        let ids: Vec<SessionIdx> = (0..4).map(|i| m.create(&format!("s{i}"), 0)).collect();
        assert_eq!(
            ids.iter().map(|i| i.index()).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        m.remove("s1");
        m.remove("s3");
        assert_eq!(m.create("t0", 5), ids[3]);
        assert_eq!(m.create("t1", 5), ids[1]);
        assert_eq!(m.create("t2", 5).index(), 4);
        assert_eq!(m.slots.len(), 5);
        assert_eq!(m.slot(ids[1]).id.as_ref(), "t1");
        assert_eq!(m.find("s1"), None);
        assert_eq!((m.len(), m.get("s2").unwrap().execution_count), (5, 0));
    }

    #[test]
    fn msg_ids_are_unique_and_deterministic() {
        let mut g = MsgIdGen::new("cli");
        assert_eq!(g.next_id(), "cli-1");
        assert_eq!(g.next_id(), "cli-2");
        let mut h = MsgIdGen::new("cli");
        assert_eq!(h.next_id(), "cli-1");
        // Skipped ids are used up as if generated.
        h.skip(0);
        assert_eq!(h.next_id(), "cli-2");
        h.skip(3);
        assert_eq!(h.next_id(), "cli-6");
    }
}
