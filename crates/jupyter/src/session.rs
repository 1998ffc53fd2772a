//! Notebook sessions and deterministic message-id generation.

use std::collections::HashMap;

/// A persistent notebook session: the long-lived working instance whose
/// kernel maintains variables, imports, and other execution context (§2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// The session's unique id.
    pub id: String,
    /// The backing (distributed) kernel's id.
    pub kernel_id: String,
    /// Number of cell executions completed so far.
    pub execution_count: u64,
    /// Creation time (µs of virtual time).
    pub created_us: u64,
    /// Last client activity (µs of virtual time).
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
}

/// Tracks the set of live sessions for a Jupyter Server.
#[derive(Debug, Default)]
pub struct SessionManager {
    sessions: HashMap<String, Session>,
}

impl SessionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        SessionManager::default()
    }

    /// Registers a session bound to `kernel_id`.
    ///
    /// # Panics
    ///
    /// Panics if the session id is already registered.
    pub fn create(
        &mut self,
        id: impl Into<String>,
        kernel_id: impl Into<String>,
        now_us: u64,
    ) -> &Session {
        let id = id.into();
        assert!(
            !self.sessions.contains_key(&id),
            "session `{id}` already exists"
        );
        let session = Session {
            id: id.clone(),
            kernel_id: kernel_id.into(),
            execution_count: 0,
            created_us: now_us,
            last_activity_us: now_us,
        };
        self.sessions.insert(id.clone(), session);
        &self.sessions[&id]
    }

    /// Looks up a session.
    pub fn get(&self, id: &str) -> Option<&Session> {
        self.sessions.get(id)
    }

    /// Looks up a session to change it.
    pub fn get_mut(&mut self, id: &str) -> Option<&mut Session> {
        self.sessions.get_mut(id)
    }

    /// [`Session::record_execution`] on session `id`. Returns the new
    /// count, or `None` for unknown sessions.
    pub fn record_execution(&mut self, id: &str, now_us: u64) -> Option<u64> {
        Some(self.sessions.get_mut(id)?.record_execution(now_us))
    }

    /// Removes a session, returning it if it existed.
    pub fn remove(&mut self, id: &str) -> Option<Session> {
        self.sessions.remove(id)
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
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
        format!("{}-{}", self.prefix, self.counter)
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
        m.create("s1", "k1", 100);
        assert_eq!(m.get("s1").unwrap().kernel_id, "k1");
        assert_eq!(m.len(), 1);
        assert!(m.get("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_session_panics() {
        let mut m = SessionManager::new();
        m.create("s1", "k1", 0);
        m.create("s1", "k2", 0);
    }

    #[test]
    fn execution_bumps_activity() {
        let mut m = SessionManager::new();
        m.create("s1", "k1", 0);
        assert_eq!(m.record_execution("s1", 500), Some(1));
        assert_eq!(m.record_execution("s1", 900), Some(2));
        assert_eq!(m.get("s1").unwrap().last_activity_us, 900);
        assert_eq!(m.record_execution("ghost", 900), None);
    }

    #[test]
    fn remove_returns_session() {
        let mut m = SessionManager::new();
        m.create("s1", "k1", 0);
        assert!(m.remove("s1").is_some());
        assert!(m.remove("s1").is_none());
        assert!(m.is_empty());
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
