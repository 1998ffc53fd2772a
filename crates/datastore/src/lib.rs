//! Distributed Data Store substrate for the NotebookOS reproduction.
//!
//! NotebookOS offloads large objects (model parameters, training datasets)
//! to a pluggable distributed store — Redis, AWS S3, or HDFS — and appends
//! only *pointers* to the Raft log (§3.2.4). This crate models those
//! backends' latency behaviour and the object-pointer scheme.
//!
//! # Example
//!
//! ```
//! use notebookos_datastore::{BackendKind, DataStore};
//! use notebookos_des::SimRng;
//!
//! let mut store = DataStore::new(BackendKind::S3);
//! let mut rng = SimRng::seed(7);
//! let (pointer, write_latency) = store.write("kernel-1/model", 400_000_000, &mut rng);
//! let read_latency = store.read(&pointer, &mut rng)?;
//! assert!(write_latency > read_latency || read_latency.as_secs_f64() > 0.0);
//! # Ok::<(), notebookos_datastore::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod store;

pub use backend::{BackendKind, BackendModel};
pub use store::{DataStore, ObjectPointer, StoreError, StoreStats};
