//! A GPU server: device-level GPU binding plus the two-level resource
//! accounting NotebookOS relies on.
//!
//! Each host tracks resources at two levels (§3.2.1):
//!
//! * **Subscribed** — what the kernel replicas placed on this host have
//!   *requested*. Subscriptions deliberately oversubscribe the host; the
//!   subscription ratio (SR) keeps this bounded.
//! * **Committed** — what is *exclusively bound* right now, i.e. the
//!   resources of replicas actively executing a cell. Committed resources
//!   can never exceed capacity.
//!
//! Reads are public; the methods that change a host's accounting are
//! crate-private, so outside this crate a host changes only through a typed
//! [`Cluster`](crate::Cluster) mutator, which moves the fleet totals and the
//! placement index in the same call.
//!
//! A host's live commitments are a plain `(owner, bundle)` vector: one
//! per replica executing on it right now, so a few dozen at most. A
//! commit scans it for the owner and pushes, a release scans and
//! `swap_remove`s; nothing iterates it in order, so the order a release
//! leaves behind does not matter.

use crate::resources::{ResourceBundle, ResourceRequest};

/// Identifier of a GPU server.
pub type HostId = u64;

/// Opaque identifier of whoever holds a commitment (a kernel-replica id in
/// the platform).
pub type OwnerId = u64;

/// Why a commit attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitError {
    /// Not enough uncommitted capacity in some dimension.
    Insufficient {
        /// What was requested.
        requested: ResourceBundle,
        /// What remains uncommitted.
        available: ResourceBundle,
    },
    /// The owner already holds a commitment on this host.
    AlreadyCommitted(OwnerId),
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::Insufficient {
                requested,
                available,
            } => {
                write!(f, "requested {requested} but only {available} available")
            }
            CommitError::AlreadyCommitted(owner) => {
                write!(f, "owner {owner} already holds a commitment")
            }
        }
    }
}

impl std::error::Error for CommitError {}

/// A GPU server in the NotebookOS cluster.
#[derive(Debug, Clone)]
pub struct Host {
    id: HostId,
    capacity: ResourceBundle,
    /// Device-level GPU ownership: `gpu_owner[d] == Some(owner)` while
    /// device `d` is exclusively bound.
    gpu_owner: Vec<Option<OwnerId>>,
    /// Exclusively bound resources (never exceeds capacity).
    committed: ResourceBundle,
    /// Live commitments, one per owner, in no particular order.
    commitments: Vec<(OwnerId, ResourceBundle)>,
    /// Sum of GPU requests of all replicas scheduled here (the `S` in the
    /// SR formula), including idle replicas.
    subscribed_gpus: u64,
    /// Number of kernel-replica containers scheduled here.
    replica_count: u32,
}

impl Host {
    /// Creates a host with the given capacity.
    pub fn new(id: HostId, capacity: ResourceBundle) -> Self {
        Host {
            id,
            capacity,
            gpu_owner: vec![None; capacity.gpus as usize],
            committed: ResourceBundle::default(),
            commitments: Vec::new(),
            subscribed_gpus: 0,
            replica_count: 0,
        }
    }

    /// An 8-GPU server matching the evaluation's EC2 instances.
    #[cfg(test)]
    pub(crate) fn p3_16xlarge(id: HostId) -> Self {
        Host::new(id, ResourceBundle::p3_16xlarge())
    }

    /// The host id.
    #[inline]
    pub fn id(&self) -> HostId {
        self.id
    }

    /// Total capacity.
    #[inline]
    pub fn capacity(&self) -> ResourceBundle {
        self.capacity
    }

    /// Currently committed (exclusively bound) resources.
    #[cfg(test)]
    pub(crate) fn committed(&self) -> ResourceBundle {
        self.committed
    }

    /// Capacity minus committed.
    #[inline]
    pub fn available(&self) -> ResourceBundle {
        self.capacity.saturating_sub(&self.committed)
    }

    /// Number of GPUs not exclusively bound right now.
    #[inline]
    pub fn idle_gpus(&self) -> u32 {
        self.capacity.gpus - self.committed.gpus
    }

    /// Number of GPUs exclusively bound right now (the `C` of §3.4.2).
    #[inline]
    pub fn committed_gpus(&self) -> u32 {
        self.committed.gpus
    }

    /// Sum of GPU requests subscribed by replicas on this host (`S`).
    #[inline]
    pub fn subscribed_gpus(&self) -> u64 {
        self.subscribed_gpus
    }

    /// Number of replica containers scheduled here.
    #[inline]
    pub fn replica_count(&self) -> u32 {
        self.replica_count
    }

    /// §3.4.2's idle server: no kernel replicas and no commitments.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.replica_count == 0 && self.commitments.is_empty()
    }

    /// The subscription ratio `S / (G · R)` (§3.4.1), where `R` is the
    /// replication factor. Returns 0 for GPU-less hosts.
    #[inline]
    pub fn subscription_ratio(&self, replication_factor: u32) -> f64 {
        let denom = u64::from(self.capacity.gpus) * u64::from(replication_factor.max(1));
        if denom == 0 {
            return 0.0;
        }
        self.subscribed_gpus as f64 / denom as f64
    }

    /// Registers a kernel replica's subscription (does **not** commit
    /// resources).
    pub(crate) fn subscribe(&mut self, request: &ResourceRequest) {
        self.subscribed_gpus += u64::from(request.gpus);
        self.replica_count += 1;
    }

    /// Removes a kernel replica's subscription.
    ///
    /// # Panics
    ///
    /// Panics if no matching subscription exists (accounting bug).
    pub(crate) fn unsubscribe(&mut self, request: &ResourceRequest) {
        assert!(
            self.subscribed_gpus >= u64::from(request.gpus) && self.replica_count > 0,
            "unsubscribe without subscription on host {}",
            self.id
        );
        self.subscribed_gpus -= u64::from(request.gpus);
        self.replica_count -= 1;
    }

    /// Whether `request` could be committed right now.
    #[inline]
    pub fn can_commit(&self, request: &ResourceRequest) -> bool {
        self.available()
            .covers(&ResourceBundle::from_request(request))
    }

    /// Allocating form of [`Host::commit_into`], for this crate's tests.
    #[cfg(test)]
    pub(crate) fn commit(
        &mut self,
        owner: OwnerId,
        request: &ResourceRequest,
    ) -> Result<Vec<u32>, CommitError> {
        let mut devices = Vec::with_capacity(request.gpus as usize);
        self.commit_into(owner, request, &mut devices)?;
        Ok(devices)
    }

    /// Exclusively binds `request` for `owner`, writing the GPU device ids
    /// bound into `devices` (cleared first; §3.3: the Global Scheduler
    /// embeds these into the request metadata), so a caller that reuses the
    /// buffer commits on every cell execution without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`CommitError::Insufficient`] when capacity is lacking and
    /// [`CommitError::AlreadyCommitted`] when `owner` already holds a
    /// commitment here; on error `devices` is left empty and nothing is
    /// bound.
    pub(crate) fn commit_into(
        &mut self,
        owner: OwnerId,
        request: &ResourceRequest,
        devices: &mut Vec<u32>,
    ) -> Result<(), CommitError> {
        devices.clear();
        if self.has_commitment(owner) {
            return Err(CommitError::AlreadyCommitted(owner));
        }
        let bundle = ResourceBundle::from_request(request);
        if !self.available().covers(&bundle) {
            return Err(CommitError::Insufficient {
                requested: bundle,
                available: self.available(),
            });
        }
        for (device, slot) in self.gpu_owner.iter_mut().enumerate() {
            if devices.len() == request.gpus as usize {
                break;
            }
            if slot.is_none() {
                *slot = Some(owner);
                devices.push(device as u32);
            }
        }
        debug_assert_eq!(
            devices.len(),
            request.gpus as usize,
            "device accounting drift"
        );
        self.committed += bundle;
        self.commitments.push((owner, bundle));
        Ok(())
    }

    /// Releases `owner`'s commitment, returning the freed bundle, or
    /// `None` — changing nothing — when `owner` holds no commitment here.
    pub(crate) fn release(&mut self, owner: OwnerId) -> Option<ResourceBundle> {
        let at = self.commitments.iter().position(|&(o, _)| o == owner)?;
        let (_, bundle) = self.commitments.swap_remove(at);
        for slot in &mut self.gpu_owner {
            if *slot == Some(owner) {
                *slot = None;
            }
        }
        self.committed -= bundle;
        Some(bundle)
    }

    /// Whether `owner` currently holds a commitment here.
    pub fn has_commitment(&self, owner: OwnerId) -> bool {
        self.commitments.iter().any(|&(o, _)| o == owner)
    }

    /// Number of live commitments (actively executing replicas).
    pub fn active_commitments(&self) -> usize {
        self.commitments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu_req(gpus: u32) -> ResourceRequest {
        ResourceRequest::new(4000, 16_384, gpus, 16)
    }

    #[test]
    fn commit_binds_distinct_devices() {
        let mut h = Host::p3_16xlarge(1);
        let d1 = h.commit(10, &gpu_req(4)).unwrap();
        let d2 = h.commit(11, &gpu_req(4)).unwrap();
        assert_eq!(d1, vec![0, 1, 2, 3]);
        assert_eq!(d2, vec![4, 5, 6, 7]);
        assert_eq!(h.idle_gpus(), 0);
        assert_eq!(h.active_commitments(), 2);
    }

    #[test]
    fn commit_rejects_over_capacity() {
        let mut h = Host::p3_16xlarge(1);
        h.commit(10, &gpu_req(6)).unwrap();
        let err = h.commit(11, &gpu_req(4)).unwrap_err();
        assert!(matches!(err, CommitError::Insufficient { .. }));
        assert!(h.can_commit(&gpu_req(2)));
        assert!(!h.can_commit(&gpu_req(3)));
    }

    #[test]
    fn double_commit_rejected() {
        let mut h = Host::p3_16xlarge(1);
        h.commit(10, &gpu_req(1)).unwrap();
        assert_eq!(
            h.commit(10, &gpu_req(1)).unwrap_err(),
            CommitError::AlreadyCommitted(10)
        );
    }

    #[test]
    fn release_returns_devices() {
        let mut h = Host::p3_16xlarge(1);
        h.commit(10, &gpu_req(8)).unwrap();
        assert!(h.has_commitment(10));
        let freed = h.release(10).expect("owner 10 holds a commitment");
        assert_eq!(freed.gpus, 8);
        assert_eq!(h.idle_gpus(), 8);
        assert!(!h.has_commitment(10));
        // Devices are reusable afterwards.
        let d = h.commit(11, &gpu_req(2)).unwrap();
        assert_eq!(d, vec![0, 1]);
    }

    #[test]
    fn release_without_commit_returns_none() {
        let mut h = Host::p3_16xlarge(1);
        h.commit(10, &gpu_req(3)).unwrap();
        assert_eq!(h.release(99), None);
        assert_eq!(h.idle_gpus(), 5, "the other owner's devices stay bound");
        assert!(h.has_commitment(10));
    }

    #[test]
    fn subscription_ratio_matches_paper_example() {
        // §3.4.1: 8-GPU host serving 4 kernel containers each requiring 4
        // GPUs → S = 16, SR = 16 / (8·3) = 0.667.
        let mut h = Host::p3_16xlarge(1);
        for _ in 0..4 {
            h.subscribe(&gpu_req(4));
        }
        assert!((h.subscription_ratio(3) - 16.0 / 24.0).abs() < 1e-9);
        assert_eq!(h.subscribed_gpus(), 16);
        assert_eq!(h.replica_count(), 4);
        h.unsubscribe(&gpu_req(4));
        assert_eq!(h.subscribed_gpus(), 12);
    }

    #[test]
    #[should_panic(expected = "unsubscribe without subscription")]
    fn unsubscribe_underflow_panics() {
        let mut h = Host::p3_16xlarge(1);
        h.unsubscribe(&gpu_req(1));
    }

    #[test]
    fn cpu_only_commit_needs_no_devices() {
        let mut h = Host::p3_16xlarge(1);
        let devices = h
            .commit(1, &ResourceRequest::new(1000, 1024, 0, 0))
            .unwrap();
        assert!(devices.is_empty());
        assert_eq!(h.idle_gpus(), 8);
    }

    /// The commitment list with more owners than GPUs (CPU-only owners hold
    /// no device), a refused repeat owner, and a release of an absent
    /// owner, checking `is_idle` and `active_commitments` after each.
    #[test]
    fn commitments_outnumber_gpus_and_refusals_change_nothing() {
        let cpu = ResourceRequest::new(500, 1024, 0, 0);
        let mut h = Host::p3_16xlarge(1);
        assert!(h.is_idle());
        for owner in 0..8 {
            assert_eq!(h.commit(owner, &gpu_req(1)).unwrap(), vec![owner as u32]);
        }
        for owner in 8..20 {
            assert!(h.commit(owner, &cpu).unwrap().is_empty());
        }
        assert_eq!(h.active_commitments(), 20);
        assert_eq!(h.idle_gpus(), 0);
        assert!(!h.is_idle());

        // A second commit by an owner already holding one is refused,
        // GPU or CPU-only, even where capacity would allow it.
        assert_eq!(
            h.commit(3, &cpu).unwrap_err(),
            CommitError::AlreadyCommitted(3)
        );
        assert_eq!(
            h.commit(12, &cpu).unwrap_err(),
            CommitError::AlreadyCommitted(12)
        );
        assert_eq!(h.active_commitments(), 20);
        let before = h.committed();

        // Releasing an owner that holds nothing changes nothing.
        assert_eq!(h.release(99), None);
        assert_eq!(h.active_commitments(), 20);
        assert_eq!(h.committed(), before);
        assert!(!h.is_idle());

        // Releases in an order unlike the commits' (`swap_remove` moves
        // the last entry into the hole) free exactly the owner's devices.
        for owner in [0, 19, 7, 10, 3] {
            assert!(h.release(owner).is_some());
            assert!(!h.has_commitment(owner));
            assert_eq!(h.release(owner), None, "a second release of {owner}");
        }
        assert_eq!(h.active_commitments(), 15);
        assert_eq!(h.idle_gpus(), 3);
        assert_eq!(h.commit(30, &gpu_req(3)).unwrap(), vec![0, 3, 7]);
        for owner in (1..19).chain([30]) {
            if h.has_commitment(owner) {
                assert!(h.release(owner).is_some());
            }
        }
        assert_eq!(h.active_commitments(), 0);
        assert_eq!(h.committed(), ResourceBundle::default());
        assert!(h.is_idle());
    }

    #[test]
    fn gpu_less_host_sr_is_zero() {
        let h = Host::new(1, ResourceBundle::new(1000, 1000, 0));
        assert_eq!(h.subscription_ratio(3), 0.0);
    }
}
