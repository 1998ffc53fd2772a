//! The Fig. 4 kernel-creation control plane: Jupyter Server →
//! `GatewayProvisioner` → Global Scheduler → Local Schedulers → replicas.
//!
//! NotebookOS integrates with vanilla Jupyter through a custom kernel
//! provisioner (§4): creating a kernel issues a `StartKernel` RPC to the
//! Global Scheduler, which picks R candidate hosts and issues
//! `StartKernelReplica` RPCs to their Local Schedulers; each replica
//! registers back and the connection info flows to the Jupyter Server.
//! This module runs that sequence as direct calls on the in-memory
//! cluster: rank R hosts, subscribe each, and hand back the connection
//! info with the replica hosts.

use std::collections::HashMap;

use notebookos_cluster::{Cluster, HostId, ResourceRequest};
use notebookos_jupyter::{ConnectionInfo, KernelResourceSpec, ProvisionError};

use crate::policy::{place_replicas, LeastLoaded};
use crate::serve::GATEWAY_KEY;

/// A launched kernel's placement record: what `shutdown` releases.
#[derive(Debug)]
struct KernelPlacement {
    /// Host of each replica (index = replica index).
    replica_hosts: Vec<HostId>,
    /// The kernel's resources.
    spec: KernelResourceSpec,
}

/// Converts a Jupyter-facing resource spec to the cluster's request type.
pub(crate) fn request_of(spec: KernelResourceSpec) -> ResourceRequest {
    ResourceRequest::new(
        u64::from(spec.millicpus),
        u64::from(spec.memory_mb),
        spec.gpus,
        spec.vram_gb,
    )
}

/// The connection info handed back for kernel `kernel_id` with replicas on
/// `hosts`.
pub(crate) fn connection_info(kernel_id: String, hosts: &[HostId]) -> ConnectionInfo {
    ConnectionInfo {
        kernel_id,
        endpoints: hosts
            .iter()
            .enumerate()
            .map(|(index, host)| format!("host-{host}:59{index}1"))
            .collect(),
        key: GATEWAY_KEY.to_vec(),
    }
}

/// The Global Scheduler's kernel-creation front end.
///
/// Places and releases kernels' replicas over its cluster view through the
/// same step as the DES platform. [`GatewayProvisioner::launch`] and
/// [`GatewayProvisioner::shutdown`] keep a placement record per kernel id;
/// the live gateway keeps its own in each session's slot and places and
/// releases without a key.
#[derive(Debug)]
pub struct GatewayProvisioner {
    cluster: Cluster,
    policy: LeastLoaded,
    replication_factor: u32,
    kernels: HashMap<String, KernelPlacement>,
    /// Reusable placement-ranking buffer: the last placement's hosts.
    rank_buf: Vec<HostId>,
}

impl GatewayProvisioner {
    /// Creates a provisioner over `cluster` that places R =
    /// `replication_factor` replicas least-loaded first (§3.4.1).
    pub fn new(cluster: Cluster, replication_factor: u32) -> Self {
        GatewayProvisioner {
            cluster,
            policy: LeastLoaded::default(),
            replication_factor,
            kernels: HashMap::new(),
            rank_buf: Vec::new(),
        }
    }

    /// The cluster view (for assertions and scheduling decisions).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Live kernel count.
    #[cfg(test)]
    pub(crate) fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Places an R-replica kernel of `spec`: ranks R hosts and subscribes
    /// each. Returns the replica hosts (index = replica index), which the
    /// caller records to [`GatewayProvisioner::release`] them later.
    ///
    /// # Errors
    ///
    /// Returns [`ProvisionError::InsufficientResources`] for fewer than R
    /// viable hosts; nothing changes then.
    pub(crate) fn place(&mut self, spec: KernelResourceSpec) -> Result<&[HostId], ProvisionError> {
        let placed = place_replicas(
            &mut self.policy,
            &mut self.cluster,
            &request_of(spec),
            self.replication_factor,
            &mut self.rank_buf,
        );
        match placed {
            Ok(()) => Ok(&self.rank_buf),
            // §3.2.1: without R viable candidates the Global Scheduler
            // invokes the scale-out handler; at this API layer the caller
            // owns scale-out, so report the shortfall.
            Err(found) => Err(ProvisionError::InsufficientResources(format!(
                "need {} candidate hosts, found {found}",
                self.replication_factor,
            ))),
        }
    }

    /// Releases the replicas [`GatewayProvisioner::place`] placed on
    /// `hosts` for `spec`: unsubscribes each (a no-op for a host that
    /// already left the cluster).
    pub(crate) fn release(&mut self, hosts: &[HostId], spec: KernelResourceSpec) {
        let request = request_of(spec);
        for &host in hosts {
            self.cluster.unsubscribe(host, &request);
        }
    }

    /// Launches a kernel with the given resources, returning its
    /// connection info and its replica hosts (index = replica index): the
    /// route-table entry a gateway registers.
    ///
    /// # Errors
    ///
    /// Returns [`ProvisionError::DuplicateKernel`] for a kernel id that is
    /// already live and [`ProvisionError::InsufficientResources`] for fewer
    /// than R viable hosts; nothing changes in either case.
    pub fn launch(
        &mut self,
        kernel_id: &str,
        spec: KernelResourceSpec,
    ) -> Result<(ConnectionInfo, Vec<HostId>), ProvisionError> {
        if self.kernels.contains_key(kernel_id) {
            return Err(ProvisionError::DuplicateKernel(kernel_id.to_string()));
        }
        let hosts = self.place(spec)?.to_vec();
        let info = connection_info(kernel_id.to_string(), &hosts);
        self.kernels.insert(
            kernel_id.to_string(),
            KernelPlacement {
                replica_hosts: hosts.clone(),
                spec,
            },
        );
        Ok((info, hosts))
    }

    /// Shuts a kernel down, releasing its replicas' subscriptions.
    ///
    /// # Errors
    ///
    /// Returns [`ProvisionError::UnknownKernel`] for an unknown id.
    pub fn shutdown(&mut self, kernel_id: &str) -> Result<(), ProvisionError> {
        let placement = self
            .kernels
            .remove(kernel_id)
            .ok_or_else(|| ProvisionError::UnknownKernel(kernel_id.to_string()))?;
        self.release(&placement.replica_hosts, placement.spec);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use notebookos_cluster::ResourceBundle;

    fn spec() -> KernelResourceSpec {
        KernelResourceSpec {
            millicpus: 4000,
            memory_mb: 16_384,
            gpus: 2,
            vram_gb: 16,
        }
    }

    fn gateway() -> GatewayProvisioner {
        let cluster = Cluster::with_hosts(4, ResourceBundle::p3_16xlarge());
        GatewayProvisioner::new(cluster, 3)
    }

    #[test]
    fn launch_places_replicas_on_distinct_subscribed_hosts() {
        let mut g = gateway();
        let (info, mut hosts) = g.launch("kernel-1", spec()).expect("launches");
        assert_eq!(info.kernel_id, "kernel-1");
        assert_eq!(info.endpoints.len(), 3);
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), 3, "replicas on distinct hosts");
        // The returned hosts are exactly the ones subscribed.
        let mut subscribed: Vec<HostId> = g
            .cluster()
            .hosts()
            .iter()
            .filter(|h| h.replica_count() > 0)
            .map(|h| h.id())
            .collect();
        subscribed.sort_unstable();
        assert_eq!(hosts, subscribed);
        assert_eq!(g.cluster().total_subscribed_gpus(), 6);
    }

    #[test]
    fn shutdown_releases_subscriptions() {
        let mut g = gateway();
        g.launch("kernel-1", spec()).expect("launches");
        g.shutdown("kernel-1").expect("shuts down");
        assert_eq!(g.kernel_count(), 0);
        assert_eq!(g.cluster().total_subscribed_gpus(), 0);
        assert!(matches!(
            g.shutdown("kernel-1"),
            Err(ProvisionError::UnknownKernel(_))
        ));
        assert!(g.launch("kernel-1", spec()).is_ok(), "the id is free again");
    }

    #[test]
    fn duplicate_kernel_ids_rejected() {
        let mut g = gateway();
        g.launch("kernel-1", spec()).expect("launches");
        assert_eq!(
            g.launch("kernel-1", spec()).unwrap_err(),
            ProvisionError::DuplicateKernel("kernel-1".into())
        );
        assert_eq!(g.kernel_count(), 1);
        assert_eq!(g.cluster().total_subscribed_gpus(), 3 * 2);
    }

    #[test]
    fn shortfall_reports_insufficient_resources() {
        let cluster = Cluster::with_hosts(2, ResourceBundle::p3_16xlarge());
        let mut g = GatewayProvisioner::new(cluster, 3);
        // Only 2 candidate hosts for R = 3.
        let err = g.launch("kernel-1", spec()).unwrap_err();
        assert!(matches!(err, ProvisionError::InsufficientResources(_)));
        assert_eq!(g.kernel_count(), 0);
        assert_eq!(
            g.cluster().total_subscribed_gpus(),
            0,
            "no partial placement"
        );
    }

    #[test]
    fn many_kernels_spread_subscriptions() {
        let mut g = gateway();
        for i in 0..8 {
            g.launch(&format!("kernel-{i}"), spec()).expect("launches");
        }
        assert_eq!(g.kernel_count(), 8);
        assert_eq!(g.cluster().total_subscribed_gpus(), 8 * 3 * 2);
        // Least-loaded spreads: every host hosts some replicas.
        for host in g.cluster().hosts() {
            assert!(host.replica_count() > 0, "host {} unused", host.id());
        }
    }
}
