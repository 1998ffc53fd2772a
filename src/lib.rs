//! Facade crate for the NotebookOS reproduction.
//!
//! Re-exports every workspace crate under a stable path so that examples,
//! integration tests, and downstream users can depend on a single crate.
//!
//! ```
//! use notebookos::des::SimTime;
//! assert_eq!(SimTime::from_secs(1).as_micros(), 1_000_000);
//! ```

pub use notebookos_cluster as cluster;
pub use notebookos_core as core;
pub use notebookos_datastore as datastore;
pub use notebookos_des as des;
pub use notebookos_jupyter as jupyter;
pub use notebookos_metrics as metrics;
pub use notebookos_raft as raft;
pub use notebookos_trace as trace;
