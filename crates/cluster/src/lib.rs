//! GPU cluster substrate for the NotebookOS reproduction.
//!
//! Models the fleet of GPU servers the platform schedules onto: per-host
//! device-level GPU binding, the two-level (subscribed vs committed)
//! resource accounting behind the paper's subscription-ratio mechanism
//! (§3.4.1), the pre-warmed container pool (§3.2.3), and calibrated
//! provisioning-latency models.
//!
//! # Example
//!
//! ```
//! use notebookos_cluster::{Cluster, RankScratch, ResourceBundle, ResourceRequest};
//!
//! let mut cluster = Cluster::with_hosts(30, ResourceBundle::p3_16xlarge());
//! assert_eq!(cluster.total_gpus(), 240);
//!
//! // Subscribe a replica, then exclusively commit during a cell execution.
//! // A host's accounting changes only through these typed mutators, which
//! // move the fleet totals and the placement index in the same call.
//! let req = ResourceRequest::one_gpu();
//! let (mut scratch, mut ranked) = (RankScratch::default(), Vec::new());
//! cluster.rank_least_loaded_top(&req, 3, 1.0, 1, &mut scratch, &mut ranked);
//! let host_id = ranked[0];
//! assert!(cluster.subscribe(host_id, &req));
//! let mut devices = Vec::new();
//! assert!(cluster.try_commit(host_id, 7, &req, &mut devices));
//! assert_eq!(devices.len(), 1);
//! assert_eq!(cluster.total_committed_gpus(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod host;
mod idset;
pub mod pool;
pub mod provisioning;
pub mod resources;

pub use cluster::{Cluster, HostMutation, RankScratch, Viability};
pub use host::{CommitError, Host, HostId, OwnerId};
pub use pool::{ForgottenContainers, PrewarmPool};
pub use provisioning::ProvisioningModel;
pub use resources::{ResourceBundle, ResourceRequest};
