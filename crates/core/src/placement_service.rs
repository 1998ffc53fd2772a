//! A placement owner thread and the channel clients that reach it.
//!
//! [`PlacementService::spawn`] starts a thread that owns a
//! [`GatewayProvisioner`] over a fleet of its own; each [`PlacementClient`]
//! sends it launch and shutdown commands over an mpsc channel and blocks
//! on a per-launch reply channel.
//!
//! The serve path does not use it: one
//! [`LiveGateway`](crate::serve::LiveGateway) owns its provisioner
//! directly, and `Cluster` is `Send + Sync`, so nothing needs a
//! single-writer thread. It exists for the perf ledger's
//! `core.placement_service.launch_roundtrip_ns` probe, which times one
//! launch round trip through the thread — mostly the OS's thread wake.

use std::collections::HashSet;
use std::sync::mpsc::{channel, Receiver, Sender};

use notebookos_cluster::{Cluster, HostId, ResourceBundle};
use notebookos_jupyter::{ConnectionInfo, KernelResourceSpec, ProvisionError};

use crate::gateway::GatewayProvisioner;
use crate::policy::LeastLoaded;

/// Kernel launch and shutdown through a provisioning plane.
/// [`PlacementClient`] is its one implementor.
pub trait ProvisioningBackend {
    /// Launches `kernel_id`'s R-replica kernel, returning its connection
    /// info plus the replica hosts.
    ///
    /// # Errors
    ///
    /// Propagates the placement shortfall when fewer than R viable hosts
    /// exist, and refuses a kernel id that is already live.
    fn launch(
        &mut self,
        kernel_id: &str,
        spec: KernelResourceSpec,
    ) -> Result<(ConnectionInfo, Vec<HostId>), ProvisionError>;

    /// Shuts `kernel_id` down, releasing its replica subscriptions.
    /// Returns `false`, and changes nothing, for a kernel this backend did
    /// not launch or has already shut down.
    fn shutdown(&mut self, kernel_id: &str) -> bool;
}

/// One command to the owner. A launch carries its reply channel; a
/// shutdown is fire-and-forget (a client forwards only kernels it
/// launched, so the owner always holds them).
enum PlacementCmd {
    /// Place and launch an R-replica kernel.
    Launch {
        kernel_id: String,
        spec: KernelResourceSpec,
        #[allow(clippy::type_complexity)]
        reply: Sender<Result<(ConnectionInfo, Vec<HostId>), ProvisionError>>,
    },
    /// Release a kernel's subscriptions.
    Shutdown { kernel_id: String },
}

/// The placement owner: spawns a thread that exclusively owns a
/// [`GatewayProvisioner`] and serves [`PlacementClient`]s until every
/// client (and the service's own handle) has been dropped.
#[derive(Debug)]
pub struct PlacementService {
    tx: Option<Sender<PlacementCmd>>,
    handle: std::thread::JoinHandle<()>,
}

impl PlacementService {
    /// Spawns the owner thread over a fresh cluster of `hosts` servers of
    /// the given shape, placing with the least-loaded policy (the same
    /// wiring as [`LiveGateway::new`](crate::serve::LiveGateway::new)).
    pub fn spawn(hosts: usize, shape: ResourceBundle, replication_factor: u32) -> Self {
        let (tx, rx) = channel();
        let handle = std::thread::Builder::new()
            .name("placement-owner".into())
            .spawn(move || Self::serve(rx, hosts, shape, replication_factor))
            .expect("spawn placement owner thread");
        PlacementService {
            tx: Some(tx),
            handle,
        }
    }

    /// The owner loop: serves commands in arrival order until the last
    /// sender is dropped.
    fn serve(
        rx: Receiver<PlacementCmd>,
        hosts: usize,
        shape: ResourceBundle,
        replication_factor: u32,
    ) {
        let cluster = Cluster::with_hosts(hosts, shape);
        let mut provisioner =
            GatewayProvisioner::new(cluster, LeastLoaded::default(), replication_factor);
        while let Ok(cmd) = rx.recv() {
            match cmd {
                PlacementCmd::Launch {
                    kernel_id,
                    spec,
                    reply,
                } => {
                    // A dropped client is not an owner error.
                    let _ = reply.send(provisioner.launch(&kernel_id, spec));
                }
                PlacementCmd::Shutdown { kernel_id } => {
                    provisioner
                        .shutdown(&kernel_id)
                        .expect("clients shut down only kernels they launched");
                }
            }
        }
    }

    /// A new client of this service. Clients are `Send`.
    pub fn client(&self) -> PlacementClient {
        PlacementClient {
            tx: self.tx.as_ref().expect("service not yet joined").clone(),
            kernels: HashSet::new(),
        }
    }

    /// Drops the service's own sender and joins the owner thread. Blocks
    /// until every [`PlacementClient`] has been dropped (the owner loop
    /// exits when the last sender goes).
    pub fn join(mut self) {
        drop(self.tx.take());
        self.handle.join().expect("placement owner panicked");
    }
}

/// A handle on the placement owner: a [`ProvisioningBackend`] that
/// forwards every call over the service's command channel.
#[derive(Debug)]
pub struct PlacementClient {
    tx: Sender<PlacementCmd>,
    /// Kernels this client launched and has not shut down: the only ones
    /// it asks the owner to shut down.
    kernels: HashSet<String>,
}

impl ProvisioningBackend for PlacementClient {
    fn launch(
        &mut self,
        kernel_id: &str,
        spec: KernelResourceSpec,
    ) -> Result<(ConnectionInfo, Vec<HostId>), ProvisionError> {
        let (reply, rx) = channel();
        self.tx
            .send(PlacementCmd::Launch {
                kernel_id: kernel_id.to_string(),
                spec,
                reply,
            })
            .expect("placement owner alive");
        let result = rx.recv().expect("placement owner replies");
        if result.is_ok() {
            self.kernels.insert(kernel_id.to_string());
        }
        result
    }

    fn shutdown(&mut self, kernel_id: &str) -> bool {
        let Some(kernel_id) = self.kernels.take(kernel_id) else {
            return false;
        };
        self.tx
            .send(PlacementCmd::Shutdown { kernel_id })
            .expect("placement owner alive");
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> KernelResourceSpec {
        KernelResourceSpec {
            millicpus: 4000,
            memory_mb: 16_384,
            gpus: 1,
            vram_gb: 16,
        }
    }

    #[test]
    fn clients_share_one_fleet() {
        let service = PlacementService::spawn(6, ResourceBundle::p3_16xlarge(), 3);
        let mut a = service.client();
        let mut b = service.client();
        let (info, a_hosts) = a.launch("kernel-a", spec()).expect("places");
        assert_eq!(a_hosts.len(), 3);
        assert_eq!(info.kernel_id, "kernel-a");
        // Duplicate ids are rejected across clients too (single owner).
        assert_eq!(
            b.launch("kernel-a", spec()),
            Err(ProvisionError::DuplicateKernel("kernel-a".into()))
        );
        // b places on the fleet a loaded: least-loaded picks the three
        // hosts a left idle.
        let (_, b_hosts) = b.launch("kernel-b", spec()).expect("places");
        assert!(b_hosts.iter().all(|host| !a_hosts.contains(host)));
        assert!(a.shutdown("kernel-a"));
        assert!(b.shutdown("kernel-b"));
        drop(a);
        drop(b);
        service.join();
    }

    #[test]
    fn a_client_shuts_down_only_kernels_it_launched() {
        let service = PlacementService::spawn(6, ResourceBundle::p3_16xlarge(), 3);
        let mut a = service.client();
        let mut b = service.client();
        a.launch("kernel-a", spec()).expect("places");
        // Another client's kernel, one never launched, and one twice: each
        // refused here, and the owner never asked (it would panic, and
        // `join` would re-raise it).
        assert!(!b.shutdown("kernel-a"));
        assert!(!a.shutdown("kernel-ghost"));
        assert!(a.shutdown("kernel-a"));
        assert!(!a.shutdown("kernel-a"));
        drop(a);
        drop(b);
        service.join();
    }
}
