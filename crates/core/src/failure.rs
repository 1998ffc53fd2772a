//! Failure detection and recovery (§3.2.5).
//!
//! Each distributed kernel tolerates a fail-stop failure of a single
//! replica (its Raft cluster has three members). The Global and Local
//! Schedulers exchange heartbeats with every replica; a missed-heartbeat
//! window marks the replica failed. A single failed replica is recreated
//! and rejoins via log replay; if two or more replicas of a kernel fail,
//! the kernel is declared failed, its replicas are terminated and
//! recreated, and state is restored from the remote data store.

use std::collections::HashMap;

use crate::types::ReplicaId;

/// Heartbeat-based failure detector run by the schedulers.
///
/// Sans-io like the rest of the control plane: callers feed heartbeat
/// arrivals and clock advances; the detector reports which replicas passed
/// their deadline.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    /// Time after which a silent replica is deemed failed.
    timeout_us: u64,
    /// Last heartbeat per replica.
    last_seen: HashMap<ReplicaId, u64>,
    /// Replicas already declared failed (until reset).
    failed: HashMap<ReplicaId, u64>,
}

impl FailureDetector {
    /// Creates a detector with the given heartbeat timeout.
    ///
    /// # Panics
    ///
    /// Panics if `timeout_us` is zero.
    pub fn new(timeout_us: u64) -> Self {
        assert!(timeout_us > 0, "timeout must be positive");
        FailureDetector {
            timeout_us,
            last_seen: HashMap::new(),
            failed: HashMap::new(),
        }
    }

    /// Registers a replica at `now_us` (counts as a heartbeat).
    pub fn register(&mut self, replica: ReplicaId, now_us: u64) {
        self.last_seen.insert(replica, now_us);
        self.failed.remove(&replica);
    }

    /// Removes a replica (clean termination — not a failure).
    #[cfg(test)]
    pub(crate) fn deregister(&mut self, replica: ReplicaId) {
        self.last_seen.remove(&replica);
        self.failed.remove(&replica);
    }

    /// Records a heartbeat (or any message — §3.2.5 treats execute traffic
    /// as liveness evidence too).
    pub fn heartbeat(&mut self, replica: ReplicaId, now_us: u64) {
        if let Some(t) = self.last_seen.get_mut(&replica) {
            *t = (*t).max(now_us);
        }
    }

    /// Advances the clock; returns replicas newly declared failed.
    pub fn tick(&mut self, now_us: u64) -> Vec<ReplicaId> {
        let mut newly_failed: Vec<ReplicaId> = self
            .last_seen
            .iter()
            .filter(|(r, &seen)| {
                now_us.saturating_sub(seen) >= self.timeout_us && !self.failed.contains_key(r)
            })
            .map(|(&r, _)| r)
            .collect();
        newly_failed.sort();
        for &r in &newly_failed {
            self.failed.insert(r, now_us);
        }
        newly_failed
    }

    /// Failed replicas of `kernel`.
    pub fn failed_replicas_of(&self, kernel: u64) -> Vec<ReplicaId> {
        let mut v: Vec<ReplicaId> = self
            .failed
            .keys()
            .copied()
            .filter(|r| r.kernel == kernel)
            .collect();
        v.sort();
        v
    }
}

/// The §3.2.5 recovery decision for a kernel given its failed replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// All replicas healthy.
    None,
    /// One replica failed: recreate it and let it replay the Raft log from
    /// its peers (quorum still holds).
    RecreateReplica(ReplicaId),
    /// Quorum lost: terminate and recreate all replicas, restoring state
    /// from the remote data store.
    RebuildKernelFromStore,
}

/// Decides recovery for a kernel with `replication_factor` replicas of
/// which `failed` have failed.
pub fn recovery_action(failed: &[ReplicaId], replication_factor: u32) -> RecoveryAction {
    let quorum = replication_factor / 2 + 1;
    let alive = replication_factor as usize - failed.len();
    match failed {
        [] => RecoveryAction::None,
        [one] if alive >= quorum as usize => RecoveryAction::RecreateReplica(*one),
        _ if alive >= quorum as usize => {
            // More than one failed but quorum intact (R >= 5): recreate the
            // first; callers loop.
            RecoveryAction::RecreateReplica(failed[0])
        }
        _ => RecoveryAction::RebuildKernelFromStore,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(kernel: u64, index: u32) -> ReplicaId {
        ReplicaId::new(kernel, index)
    }

    #[test]
    fn detects_silence() {
        let mut d = FailureDetector::new(1_000_000);
        d.register(r(1, 0), 0);
        d.register(r(1, 1), 0);
        assert!(d.tick(999_999).is_empty());
        d.heartbeat(r(1, 1), 900_000);
        let failed = d.tick(1_200_000);
        assert_eq!(failed, vec![r(1, 0)]);
        assert_eq!(d.failed_replicas_of(1), vec![r(1, 0)]);
    }

    #[test]
    fn failure_reported_once() {
        let mut d = FailureDetector::new(100);
        d.register(r(1, 0), 0);
        assert_eq!(d.tick(200).len(), 1);
        assert!(d.tick(300).is_empty());
    }

    #[test]
    fn reregistration_clears_failure() {
        let mut d = FailureDetector::new(100);
        d.register(r(1, 0), 0);
        d.tick(200);
        assert_eq!(d.failed_replicas_of(1), vec![r(1, 0)]);
        d.register(r(1, 0), 300);
        assert!(d.failed_replicas_of(1).is_empty());
        assert!(d.tick(350).is_empty());
    }

    #[test]
    fn deregistered_replicas_never_fail() {
        let mut d = FailureDetector::new(100);
        d.register(r(1, 0), 0);
        d.deregister(r(1, 0));
        assert!(d.tick(10_000).is_empty());
        assert!(d.failed_replicas_of(1).is_empty());
    }

    #[test]
    fn heartbeats_are_monotone() {
        let mut d = FailureDetector::new(100);
        d.register(r(1, 0), 50);
        d.heartbeat(r(1, 0), 40); // stale heartbeat must not rewind
        assert!(d.tick(149).is_empty());
        assert_eq!(d.tick(150).len(), 1);
    }

    #[test]
    fn per_kernel_failed_query() {
        let mut d = FailureDetector::new(100);
        d.register(r(1, 0), 0);
        d.register(r(1, 2), 0);
        d.register(r(2, 0), 0);
        d.heartbeat(r(2, 0), 0);
        d.tick(200);
        assert_eq!(d.failed_replicas_of(1), vec![r(1, 0), r(1, 2)]);
        assert_eq!(d.failed_replicas_of(9), vec![]);
    }

    #[test]
    fn recovery_decision_matrix() {
        assert_eq!(recovery_action(&[], 3), RecoveryAction::None);
        assert_eq!(
            recovery_action(&[r(1, 0)], 3),
            RecoveryAction::RecreateReplica(r(1, 0))
        );
        // Two of three: quorum lost.
        assert_eq!(
            recovery_action(&[r(1, 0), r(1, 1)], 3),
            RecoveryAction::RebuildKernelFromStore
        );
        // Two of five: quorum intact, recreate one at a time.
        assert_eq!(
            recovery_action(&[r(1, 0), r(1, 1)], 5),
            RecoveryAction::RecreateReplica(r(1, 0))
        );
        // Three of five: quorum lost.
        assert_eq!(
            recovery_action(&[r(1, 0), r(1, 1), r(1, 2)], 5),
            RecoveryAction::RebuildKernelFromStore
        );
    }
}
