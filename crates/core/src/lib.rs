//! NotebookOS — a replicated notebook platform for interactive training
//! with on-demand GPUs (ASPLOS '26), reproduced in Rust.
//!
//! NotebookOS replaces per-session GPU reservations with *distributed
//! kernels*: every logical Jupyter kernel is three Raft-synchronized
//! replicas spread across GPU servers. GPUs bind to a replica only while a
//! cell actually executes; servers are deliberately oversubscribed under a
//! dynamic subscription-ratio cap; replicas migrate when their hosts
//! saturate; and the cluster auto-scales with demand.
//!
//! This crate is the paper's core contribution:
//!
//! * [`smr`] — the executor-election and state-replication protocol on top
//!   of real Raft (§3.2.2, Fig. 5),
//! * [`ast`] — AST-based identification of replicable kernel state
//!   (§3.2.4, Fig. 6),
//! * [`election`] — the calibrated election/sync latency model,
//! * [`platform`] — the full platform (Global/Local Scheduler behaviour,
//!   dynamic GPU binding, migration §3.2.3, auto-scaling §3.4.2) plus the
//!   three baselines (Reservation, Batch, NotebookOS-LCP) in one
//!   discrete-event world,
//! * `elasticity` (crate-private) — the §3.4.2 auto-scaler: scale-out
//!   and scale-in decisions, one controller matched on
//!   [`ElasticityKind`] (threshold / shape-aware / hysteresis),
//! * [`billing`] — the §5.5.1 cost/revenue model,
//! * [`reclamation`] — the Fig. 13 idle-reclamation savings analysis,
//! * [`latency_breakdown`] — Fig. 15–19 critical-path accounting.
//!
//! # Example: run the 17.5-hour evaluation excerpt
//!
//! ```
//! use notebookos_core::{Platform, PlatformConfig, PolicyKind};
//! use notebookos_trace::{generate, SyntheticConfig};
//!
//! let trace = generate(&SyntheticConfig::smoke(), 42);
//! let metrics = Platform::run(PlatformConfig::evaluation(PolicyKind::NotebookOs), trace);
//! assert!(metrics.counters.executions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod billing;
pub mod config;
mod elasticity;
pub mod election;
pub mod failure;
pub mod gateway;
pub mod latency_breakdown;
pub mod placement_service;
pub mod platform;
pub mod policy;
pub mod reclamation;
pub mod results;
pub mod serve;
pub mod smr;
pub mod sweep;
pub mod types;

pub use billing::BillingMeter;
pub use config::{AutoscaleConfig, ElasticityKind, PlacementKind, PlatformConfig, PolicyKind};
pub use election::{Designation, ElectionModel};
pub use failure::{recovery_action, FailureDetector, RecoveryAction};
pub use gateway::GatewayProvisioner;
pub use latency_breakdown::{BreakdownRecorder, RecoveryBreakdown, RecoveryPhase, Step};
pub use placement_service::{PlacementClient, PlacementService, ProvisioningBackend};
pub use platform::Platform;
pub use policy::{
    BinPacking, LeastLoaded, PlacementContext, PlacementPolicy, RandomPlacement, RoundRobin,
};
pub use reclamation::{analyze as analyze_reclamation, fig13_sweep, ReclamationSavings};
pub use results::{RunCounters, RunMetrics};
pub use serve::{
    client_request, AcceptedExecution, GatewayStats, LiveGateway, DURATION_KEY, GATEWAY_KEY,
};
pub use smr::{ElectionOutcome, ElectionTracker, KernelCommand, KernelProtocolHarness, Proposal};
pub use sweep::{Scenario, SweepAggregate, SweepJob, SweepReport, SweepRun, SweepSpec};
pub use types::{KernelId, ReplicaId};
