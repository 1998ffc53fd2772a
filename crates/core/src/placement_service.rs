//! The shared placement plane of the sharded gateway: one owner thread
//! exclusively owns the fleet, and N gateway shards reach it over an mpsc
//! command channel.
//!
//! Sharding the serve loop partitions *sessions* (routing, session state,
//! reply merging are all per-kernel), but placement ranks one shared
//! fleet. Rather than wrap the capacity-bucketed `HostIndex` in locks —
//! it is interior-mutable (`Cell`/`RefCell`) and deliberately
//! single-writer — the [`PlacementService`] spawns an owner thread that
//! holds the [`GatewayProvisioner`] outright; every shard holds a
//! [`PlacementClient`] that sends typed `PlacementCmd`s and blocks on a
//! per-call reply channel. Placement stays a sub-microsecond indexed
//! decision on the owner, the channel round trip is paid only on session
//! start/end and gauge ticks — never on the per-execution hot path — and
//! each client tracks the wall time it spent blocked so the serve bench
//! can decompose coordination cost.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use notebookos_cluster::{Cluster, HostId, ResourceBundle};
use notebookos_jupyter::{ConnectionInfo, KernelResourceSpec, ProvisionError};

use crate::gateway::GatewayProvisioner;
use crate::policy::{LeastLoaded, PlacementContext};
use crate::serve::{request_of, ProvisioningBackend};

/// One placement-plane request. Launch and gauge queries carry a reply
/// channel; shutdown is fire-and-forget (its effect — released
/// subscriptions — is observed through later decisions, and kernel ids
/// are unique per shard so no shard ever races its own shutdown).
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
    /// The `(within_cap, over_cap)` viable-host split for a spec.
    ViableCounts {
        spec: KernelResourceSpec,
        reply: Sender<(usize, usize)>,
    },
}

/// Buckets of the drained-per-wakeup histogram: batch sizes 1, 2, 3, 4,
/// 5–8, 9–16, 17–32, and 33+.
pub const DRAIN_BUCKETS: usize = 8;

/// Upper bound (inclusive) of each drained-per-wakeup bucket; the last
/// bucket is open-ended.
const DRAIN_BUCKET_CAPS: [u64; DRAIN_BUCKETS - 1] = [1, 2, 3, 4, 8, 16, 32];

/// Histogram bucket for a wakeup that drained `n` commands.
fn drain_bucket(n: u64) -> usize {
    DRAIN_BUCKET_CAPS
        .iter()
        .position(|&cap| n <= cap)
        .unwrap_or(DRAIN_BUCKETS - 1)
}

/// Human label for drained-per-wakeup bucket `i` (`"5-8"`, `"33+"`, …).
pub fn drain_bucket_label(i: usize) -> String {
    let floor = if i == 0 {
        1
    } else {
        DRAIN_BUCKET_CAPS[i - 1] + 1
    };
    match DRAIN_BUCKET_CAPS.get(i) {
        Some(&cap) if cap == floor => format!("{cap}"),
        Some(&cap) => format!("{floor}-{cap}"),
        None => format!("{floor}+"),
    }
}

/// What the owner thread did over its lifetime, returned by
/// [`PlacementService::join`] — the owner side of the serve bench's
/// coordination breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementServiceStats {
    /// Kernel launches served (successful or shortfall).
    pub launches: u64,
    /// Kernel shutdowns applied.
    pub shutdowns: u64,
    /// Gauge (viable-count) queries served.
    pub gauge_queries: u64,
    /// Wall time spent actually executing commands (excludes waiting on
    /// the channel): the placement plane's busy time.
    pub busy: Duration,
    /// Times the owner's blocking `recv` returned a command. Each wakeup
    /// then drains everything already queued before blocking again, so
    /// `wakeups < commands()` means shards were arriving faster than the
    /// owner served — the batch-drain path was doing work.
    pub wakeups: u64,
    /// Histogram of commands drained per wakeup; bucket `i` spans
    /// [`drain_bucket_label`]`(i)`. Sums to [`Self::wakeups`].
    pub drained_per_wakeup: [u64; DRAIN_BUCKETS],
}

impl PlacementServiceStats {
    /// Total commands served across all wakeups.
    pub fn commands(&self) -> u64 {
        self.launches + self.shutdowns + self.gauge_queries
    }

    /// Mean commands drained per wakeup (0 when the owner never woke).
    pub fn mean_drained_per_wakeup(&self) -> f64 {
        if self.wakeups == 0 {
            0.0
        } else {
            self.commands() as f64 / self.wakeups as f64
        }
    }
}

/// The placement owner: spawns a thread that exclusively owns the fleet's
/// [`GatewayProvisioner`] and serves [`PlacementClient`]s until every
/// client (and the service's own handle) has been dropped.
#[derive(Debug)]
pub struct PlacementService {
    tx: Option<Sender<PlacementCmd>>,
    handle: std::thread::JoinHandle<PlacementServiceStats>,
}

impl PlacementService {
    /// Spawns the owner thread over a fresh cluster of `hosts` servers of
    /// the given shape, placing with the least-loaded policy (the same
    /// wiring as [`crate::serve::LocalBackend`]).
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

    /// The owner loop: single-threaded, so the `HostIndex` under the
    /// provisioner stays single-writer with zero synchronization.
    fn serve(
        rx: Receiver<PlacementCmd>,
        hosts: usize,
        shape: ResourceBundle,
        replication_factor: u32,
    ) -> PlacementServiceStats {
        let cluster = Cluster::with_hosts(hosts, shape);
        let mut provisioner =
            GatewayProvisioner::new(cluster, LeastLoaded::default(), replication_factor);
        let mut stats = PlacementServiceStats::default();
        // Batch drain: one blocking recv per wakeup, then serve everything
        // already queued before sleeping again. Under contention (many
        // shards, one owner) this amortizes the park/unpark cost across
        // the whole backlog instead of paying it per command.
        while let Ok(first) = rx.recv() {
            let start = Instant::now();
            stats.wakeups += 1;
            let mut drained = 0u64;
            let mut next = Some(first);
            while let Some(cmd) = next {
                drained += 1;
                Self::apply(&mut provisioner, replication_factor, &mut stats, cmd);
                next = rx.try_recv().ok();
            }
            stats.drained_per_wakeup[drain_bucket(drained)] += 1;
            stats.busy += start.elapsed();
        }
        stats
    }

    /// Serves one command against the owned provisioner.
    fn apply(
        provisioner: &mut GatewayProvisioner<LeastLoaded>,
        replication_factor: u32,
        stats: &mut PlacementServiceStats,
        cmd: PlacementCmd,
    ) {
        match cmd {
            PlacementCmd::Launch {
                kernel_id,
                spec,
                reply,
            } => {
                stats.launches += 1;
                let result = provisioner.launch(&kernel_id, spec);
                // A dropped client is not an owner error.
                let _ = reply.send(result);
            }
            PlacementCmd::Shutdown { kernel_id } => {
                stats.shutdowns += 1;
                // A client forwards only kernels it launched and has not
                // shut down (`PlacementClient::shutdown`).
                provisioner
                    .shutdown(&kernel_id)
                    .expect("shards shut down only kernels they launched");
            }
            PlacementCmd::ViableCounts { spec, reply } => {
                stats.gauge_queries += 1;
                let request = request_of(spec);
                let counts = PlacementContext {
                    cluster: provisioner.cluster(),
                    request: &request,
                    replication_factor,
                }
                .viable_counts();
                let _ = reply.send(counts);
            }
        }
    }

    /// A new client of this service — one per gateway shard. Clients are
    /// `Send`; move each onto its shard thread.
    pub fn client(&self) -> PlacementClient {
        PlacementClient {
            tx: self.tx.as_ref().expect("service not yet joined").clone(),
            kernels: HashSet::new(),
            wait: Cell::new(Duration::ZERO),
            calls: Cell::new(0),
        }
    }

    /// Drops the service's own sender and joins the owner thread,
    /// returning its stats. Blocks until every [`PlacementClient`] has
    /// been dropped (the owner loop exits when the last sender goes).
    pub fn join(mut self) -> PlacementServiceStats {
        drop(self.tx.take());
        self.handle.join().expect("placement owner panicked")
    }
}

/// A shard's handle on the shared placement plane: a
/// [`ProvisioningBackend`] that forwards every call over the service's
/// command channel and blocks on the reply.
#[derive(Debug)]
pub struct PlacementClient {
    tx: Sender<PlacementCmd>,
    /// Kernels this shard launched and has not shut down: the only ones
    /// it asks the owner to shut down.
    kernels: HashSet<String>,
    /// Cumulative wall time blocked on the owner (request → reply).
    wait: Cell<Duration>,
    /// Round trips awaited (launches + gauge queries).
    calls: Cell<u64>,
}

impl PlacementClient {
    /// Sends `cmd` and blocks on `rx` for the reply, accounting the
    /// blocked wall time.
    fn round_trip<T>(&self, cmd: PlacementCmd, rx: Receiver<T>) -> T {
        let start = Instant::now();
        self.tx.send(cmd).expect("placement owner alive");
        let reply = rx.recv().expect("placement owner replies");
        self.wait.set(self.wait.get() + start.elapsed());
        self.calls.set(self.calls.get() + 1);
        reply
    }
}

impl ProvisioningBackend for PlacementClient {
    fn launch(
        &mut self,
        kernel_id: &str,
        spec: KernelResourceSpec,
    ) -> Result<(ConnectionInfo, Vec<HostId>), ProvisionError> {
        let (reply, rx) = channel();
        let result = self.round_trip(
            PlacementCmd::Launch {
                kernel_id: kernel_id.to_string(),
                spec,
                reply,
            },
            rx,
        );
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

    fn viable_counts(&self, spec: KernelResourceSpec) -> (usize, usize) {
        let (reply, rx) = channel();
        self.round_trip(PlacementCmd::ViableCounts { spec, reply }, rx)
    }

    fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    fn coordination_wait(&self) -> (Duration, u64) {
        (self.wait.get(), self.calls.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use notebookos_cluster::ResourceRequest;
    use notebookos_des::SimTime;
    use notebookos_jupyter::ProvisionError;

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
        let before = a.viable_counts(spec());
        assert_eq!(before.0 + before.1, 6);
        let (info, hosts) = a.launch("kernel-a", spec()).expect("places");
        assert_eq!(hosts.len(), 3);
        assert_eq!(info.kernel_id, "kernel-a");
        // b sees a's subscriptions: the fleet is shared, and with every
        // host still under the cap the split can only move, not shrink.
        let after = b.viable_counts(spec());
        assert_eq!(after.0 + after.1, 6);
        // Duplicate ids are rejected across shards too (single owner).
        assert!(matches!(
            b.launch("kernel-a", spec()),
            Err(ProvisionError::InsufficientResources(_))
        ));
        b.launch("kernel-b", spec()).expect("places");
        assert_eq!(a.kernel_count(), 1);
        assert_eq!(b.kernel_count(), 1);
        a.shutdown("kernel-a");
        b.shutdown("kernel-b");
        assert_eq!(a.kernel_count(), 0);
        let (wait, calls) = a.coordination_wait();
        assert_eq!(calls, 2, "one gauge query + one launch awaited a reply");
        assert!(wait > Duration::ZERO);
        drop(a);
        drop(b);
        let stats = service.join();
        assert_eq!(stats.launches, 3, "two placements + one rejected dup");
        assert_eq!(stats.shutdowns, 2);
        assert!(stats.gauge_queries >= 2);
        // Drain accounting invariants hold regardless of batching luck.
        assert_eq!(stats.commands(), stats.launches + 2 + stats.gauge_queries);
        assert!(stats.wakeups >= 1 && stats.wakeups <= stats.commands());
        assert_eq!(
            stats.drained_per_wakeup.iter().sum::<u64>(),
            stats.wakeups,
            "histogram sums to wakeups"
        );
    }

    #[test]
    fn a_client_shuts_down_only_kernels_it_launched() {
        let service = PlacementService::spawn(6, ResourceBundle::p3_16xlarge(), 3);
        let mut a = service.client();
        let mut b = service.client();
        a.launch("kernel-a", spec()).expect("places");
        // Another shard's kernel, one never launched, and one twice: each
        // refused here, and the owner never asked (it would panic).
        assert!(!b.shutdown("kernel-a"));
        assert!(!a.shutdown("kernel-ghost"));
        assert!(a.shutdown("kernel-a"));
        assert!(!a.shutdown("kernel-a"));
        assert_eq!((a.kernel_count(), b.kernel_count()), (0, 0));
        drop(a);
        drop(b);
        let stats = service.join();
        assert_eq!((stats.launches, stats.shutdowns), (1, 1));
    }

    #[test]
    fn drain_buckets_partition_batch_sizes() {
        assert_eq!(drain_bucket(1), 0);
        assert_eq!(drain_bucket(2), 1);
        assert_eq!(drain_bucket(4), 3);
        assert_eq!(drain_bucket(5), 4);
        assert_eq!(drain_bucket(8), 4);
        assert_eq!(drain_bucket(9), 5);
        assert_eq!(drain_bucket(32), 6);
        assert_eq!(drain_bucket(33), 7);
        assert_eq!(drain_bucket(1_000), 7);
        assert_eq!(drain_bucket_label(0), "1");
        assert_eq!(drain_bucket_label(4), "5-8");
        assert_eq!(drain_bucket_label(DRAIN_BUCKETS - 1), "33+");
    }

    #[test]
    fn owner_drains_a_preloaded_backlog_in_one_wakeup() {
        // Queue a backlog before the owner loop ever runs, then drive the
        // loop directly on this thread: the first blocking recv must
        // drain everything in a single wakeup.
        let (tx, rx) = channel();
        let (launch_reply, launch_rx) = channel();
        tx.send(PlacementCmd::Launch {
            kernel_id: "kernel-a".into(),
            spec: spec(),
            reply: launch_reply,
        })
        .unwrap();
        let mut gauge_rxs = Vec::new();
        for _ in 0..8 {
            let (reply, rx) = channel();
            tx.send(PlacementCmd::ViableCounts {
                spec: spec(),
                reply,
            })
            .unwrap();
            gauge_rxs.push(rx);
        }
        tx.send(PlacementCmd::Shutdown {
            kernel_id: "kernel-a".into(),
        })
        .unwrap();
        drop(tx);

        let stats = PlacementService::serve(rx, 6, ResourceBundle::p3_16xlarge(), 3);
        assert!(launch_rx.recv().unwrap().is_ok());
        for rx in gauge_rxs {
            let (within, over) = rx.recv().unwrap();
            assert_eq!(within + over, 6);
        }
        assert_eq!(stats.commands(), 10);
        assert_eq!(stats.wakeups, 1, "whole backlog drained in one wakeup");
        let mut expected = [0u64; DRAIN_BUCKETS];
        expected[drain_bucket(10)] += 1;
        assert_eq!(stats.drained_per_wakeup, expected);
        assert!((stats.mean_drained_per_wakeup() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn client_drives_a_live_gateway() {
        use crate::serve::{client_request, LiveGateway};
        let service = PlacementService::spawn(6, ResourceBundle::p3_16xlarge(), 3);
        let (mut gw, mut client) = LiveGateway::with_backend(Box::new(service.client()), 3);
        gw.start_session("s1", spec(), SimTime::ZERO)
            .expect("starts");
        assert_eq!(gw.kernel_count(), 1);
        assert!(gw.backend().cluster().is_none(), "no in-process fleet view");
        let req = client_request(
            "m1",
            "s1",
            "kernel-s1",
            "model.fit()",
            SimTime::from_secs(1),
            SimTime::ZERO,
        );
        assert!(client.send(&[], &req));
        let accepted = gw.pump(SimTime::ZERO);
        assert_eq!(accepted.len(), 1, "hot path never touches the channel");
        assert!(gw.finish_execution("m1", SimTime::from_secs(1)));
        assert!(gw.end_session("s1"));
        let request = ResourceRequest::new(4000, 16_384, 1, 16);
        let _ = request; // shape documented by `spec()` above
        drop(gw);
        drop(client);
        let stats = service.join();
        assert_eq!((stats.launches, stats.shutdowns), (1, 1));
    }
}
