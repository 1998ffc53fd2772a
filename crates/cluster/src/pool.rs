//! The pre-warmed container pool (§3.2.3, "Pre-warmed Container Pool").
//!
//! The Container Prewarmer maintains warm containers per host so that
//! replica migrations (and, under the LCP baseline, ordinary cell requests)
//! skip cold container provisioning. The pool keeps a minimum number of
//! warm containers on every host (§3.2.3: "the Container Prewarmer ensures
//! that each server has a specified, minimum number of pre-warmed
//! containers available").

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

use crate::host::HostId;

/// Warm and in-flight containers dropped when a host left the cluster —
/// the reconciliation record callers fold into their own accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForgottenContainers {
    /// Warm containers that were sitting in the pool.
    pub warm: u32,
    /// Provisions that were still in flight; their completions will be
    /// dropped instead of resurrecting counts for the dead host.
    pub in_flight: u32,
}

impl ForgottenContainers {
    /// Total containers lost with the host.
    pub fn total(&self) -> u32 {
        self.warm + self.in_flight
    }
}

/// Tracks warm containers per host, plus provisions still in flight so
/// that deficit accounting does not double-provision and host removal
/// reconciles rather than silently dropping counts.
#[derive(Debug, Default)]
pub struct PrewarmPool {
    warm: HashMap<HostId, u32>,
    /// Containers being provisioned right now, per host.
    in_flight: HashMap<HostId, u32>,
    /// Hosts that left the cluster; late provision completions for them
    /// are discarded (host ids are never reused).
    gone: HashSet<HostId>,
}

impl PrewarmPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        PrewarmPool::default()
    }

    /// Number of warm containers on `host`.
    pub fn warm_on(&self, host: HostId) -> u32 {
        self.warm.get(&host).copied().unwrap_or(0)
    }

    /// Takes a warm container from `host` if one is available. Returns
    /// whether the acquisition hit the pool (miss = cold start needed).
    pub fn acquire(&mut self, host: HostId) -> bool {
        match self.warm.get_mut(&host) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    /// Returns a container to `host`'s pool (LCP returns containers after
    /// execution instead of terminating them).
    pub fn put(&mut self, host: HostId) {
        if !self.gone.contains(&host) {
            *self.warm.entry(host).or_insert(0) += 1;
        }
    }

    /// Number of provisions currently in flight for `host`.
    pub fn in_flight_on(&self, host: HostId) -> u32 {
        self.in_flight.get(&host).copied().unwrap_or(0)
    }

    /// Registers `count` container provisions as started for `host`. Each
    /// must be resolved later with [`PrewarmPool::provision_complete`].
    pub fn begin_provision(&mut self, host: HostId, count: u32) {
        if count > 0 && !self.gone.contains(&host) {
            *self.in_flight.entry(host).or_insert(0) += count;
        }
    }

    /// Resolves one in-flight provision for `host`. Returns `true` when the
    /// warm container entered the pool, `false` when it was dropped: either
    /// the host left the cluster mid-provision, or no matching
    /// [`PrewarmPool::begin_provision`] exists (an unbalanced completion
    /// must not inflate warm counts the deficit accounting trusts).
    pub fn provision_complete(&mut self, host: HostId) -> bool {
        if self.gone.contains(&host) {
            return false;
        }
        let Some(n) = self.in_flight.get_mut(&host) else {
            return false;
        };
        *n -= 1;
        if *n == 0 {
            self.in_flight.remove(&host);
        }
        self.put(host);
        true
    }

    /// Registers that a host left the cluster. Its warm containers vanish
    /// and its in-flight provisions are marked for discard; the returned
    /// record lets the caller reconcile both with its own accounting
    /// instead of having the counts silently disappear.
    pub fn forget_host(&mut self, host: HostId) -> ForgottenContainers {
        let warm = self.warm.remove(&host).unwrap_or(0);
        let in_flight = self.in_flight.remove(&host).unwrap_or(0);
        self.gone.insert(host);
        ForgottenContainers { warm, in_flight }
    }

    /// Computes the warm-container deficit per host against `min_per_host`
    /// warm containers for the given host set: `(host, missing_count)`
    /// pairs, sorted by host id. The caller provisions that many containers (asynchronously), calling
    /// [`PrewarmPool::begin_provision`] up front and
    /// [`PrewarmPool::provision_complete`] as each becomes warm. In-flight
    /// provisions count toward a host's current stock so repeated deficit
    /// evaluations never double-provision.
    pub fn deficits(
        &self,
        hosts: impl IntoIterator<Item = impl Borrow<HostId>>,
        min_per_host: u32,
    ) -> Vec<(HostId, u32)> {
        let mut out: Vec<(HostId, u32)> = hosts
            .into_iter()
            .filter_map(|h| {
                let h = *h.borrow();
                let current = self.warm_on(h) + self.in_flight_on(h);
                (min_per_host > current).then(|| (h, min_per_host - current))
            })
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_hits_and_misses() {
        let mut pool = PrewarmPool::new();
        pool.put(1);
        assert!(pool.acquire(1), "the one warm container is a hit");
        assert!(!pool.acquire(1), "an emptied host misses");
        assert!(!pool.acquire(2), "a host never stocked misses");
        assert_eq!(pool.warm_on(1), 0);
    }

    #[test]
    fn totals() {
        let mut pool = PrewarmPool::new();
        pool.put(1);
        pool.put(1);
        pool.put(2);
        assert_eq!(pool.warm_on(1), 2);
        assert_eq!(pool.warm_on(2), 1);
        let dropped = pool.forget_host(1);
        assert_eq!(
            dropped,
            ForgottenContainers {
                warm: 2,
                in_flight: 0
            }
        );
        assert_eq!(dropped.total(), 2);
        assert_eq!((pool.warm_on(1), pool.warm_on(2)), (0, 1));
    }

    #[test]
    fn in_flight_provisions_reconcile_on_forget() {
        let mut pool = PrewarmPool::new();
        pool.begin_provision(1, 2);
        pool.begin_provision(2, 1);
        assert_eq!((pool.in_flight_on(1), pool.in_flight_on(2)), (2, 1));
        // One completes normally and lands in the pool.
        assert!(pool.provision_complete(1));
        assert_eq!(pool.warm_on(1), 1);
        assert_eq!(pool.in_flight_on(1), 1);
        // The host leaves with one provision still in flight: both the
        // warm container and the in-flight one are reported, not dropped.
        let dropped = pool.forget_host(1);
        assert_eq!(
            dropped,
            ForgottenContainers {
                warm: 1,
                in_flight: 1
            }
        );
        // The late completion is discarded instead of resurrecting counts.
        assert!(!pool.provision_complete(1));
        assert_eq!(pool.warm_on(1), 0);
        // Unrelated hosts are unaffected.
        assert!(pool.provision_complete(2));
        assert_eq!(pool.warm_on(2), 1);
        // Puts and provisions for departed hosts are ignored.
        pool.put(1);
        pool.begin_provision(1, 3);
        assert_eq!(pool.warm_on(1), 0);
        assert_eq!(pool.in_flight_on(1), 0);
    }

    #[test]
    fn unmatched_provision_completion_is_rejected() {
        let mut pool = PrewarmPool::new();
        // No begin_provision: the completion must not conjure a warm
        // container (deficits would then under-provision this host).
        assert!(!pool.provision_complete(1));
        assert_eq!(pool.warm_on(1), 0);
        // Balanced completions still work afterwards.
        pool.begin_provision(1, 1);
        assert!(pool.provision_complete(1));
        assert!(!pool.provision_complete(1), "second resolve is unmatched");
        assert_eq!(pool.warm_on(1), 1);
    }

    #[test]
    fn deficits_count_in_flight_provisions() {
        let mut pool = PrewarmPool::new();
        pool.put(1);
        pool.begin_provision(1, 1);
        pool.begin_provision(2, 2);
        // Host 1 has 1 warm + 1 in flight, host 2 has 2 in flight: neither
        // needs more under a minimum of 2; host 3 still needs both.
        assert_eq!(pool.deficits([1, 2, 3], 2), vec![(3, 2)]);
    }

    #[test]
    fn deficits_follow_policy() {
        let mut pool = PrewarmPool::new();
        pool.put(2);
        pool.put(2);
        let d = pool.deficits([1, 2, 3], 2);
        assert_eq!(d, vec![(1, 2), (3, 2)]);
        // Satisfied hosts are omitted.
        assert!(pool.deficits([2], 2).is_empty());
        // A zero minimum never asks for containers.
        assert!(pool.deficits([1, 2, 3], 0).is_empty());
    }
}
