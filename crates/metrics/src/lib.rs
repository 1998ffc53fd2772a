//! Measurement primitives shared by every NotebookOS experiment.
//!
//! The paper's evaluation reports three shapes of data, and this crate
//! provides one collector for each:
//!
//! * CDFs of latencies/durations (Figs. 2, 9, 11, 16–19) — [`Cdf`]
//! * Gauge timelines integrated over virtual time (Figs. 7, 8, 10, 12, 14,
//!   20) — [`Timeline`], whose [`Timeline::integral`] is the area under
//!   the gauge GPU-hour accounting reads
//! * Row-oriented summary tables rendered to the terminal — [`Table`]
//!
//! Multi-run sweeps additionally aggregate across seeds: [`MeanCi`]
//! summarizes a scalar metric's per-seed samples with a 95 % confidence
//! interval, and [`Cdf::merged`] pools latency distributions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod cdf;
#[cfg(test)]
mod exact;
pub mod table;
pub mod timeline;

pub use aggregate::MeanCi;
pub use cdf::Cdf;
pub use table::Table;
pub use timeline::Timeline;
