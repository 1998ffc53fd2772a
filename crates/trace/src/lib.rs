//! IDLT workload substrate for the NotebookOS reproduction.
//!
//! The paper characterizes interactive deep-learning training (IDLT)
//! workloads from a production Adobe trace (§2.3) and evaluates on a
//! 17.5-hour excerpt plus a 90-day "summer" window. The production trace is
//! proprietary, so this crate generates statistically equivalent workloads:
//! every quantile the paper publishes (task durations, per-session IATs,
//! session ramps, GPU busy fractions) anchors the generators, and
//! Philly-/Alibaba-shaped profiles exist for the Fig. 2 comparison.
//!
//! # Example
//!
//! ```
//! use notebookos_trace::{generate, SyntheticConfig};
//!
//! let trace = generate(&SyntheticConfig::excerpt_17_5h(), 42);
//! assert!(trace.validate().is_ok());
//! let mut iats = trace.iat_cdf("adobe-iats");
//! // §5.4: the shortest event IAT within the AdobeTrace is 240 seconds.
//! assert!(iats.min() >= 240.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod models;
pub mod synthetic;
pub mod workload;

pub use arrivals::{Arrival, Arrivals};
pub use models::{
    assign_profile, datasets_for, models_for, table1_rows, AppDomain, DatasetSpec, ModelSpec,
    WorkloadProfile,
};
pub use synthetic::{
    generate, generate_with_profile, sample_distributions, ArrivalPattern, SyntheticConfig,
    TraceProfile,
};
pub use workload::{SessionTrace, TrainingEvent, WorkloadTrace};
