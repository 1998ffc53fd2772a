//! The vocabulary of Jupyter's kernel-provisioner extension point.
//!
//! Jupyter Server delegates kernel lifecycle management to a *provisioner*
//! (§4: NotebookOS implements a custom `GatewayProvisioner` that forwards a
//! `StartKernel` RPC to the Global Scheduler). This module defines what a
//! launch takes and returns; `notebookos_core::GatewayProvisioner` is the
//! provisioner.

/// Connection details for a launched kernel, as returned to the Jupyter
/// Server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionInfo {
    /// Kernel id this connection belongs to.
    pub kernel_id: String,
    /// Opaque per-replica endpoints ("host:port" strings in the prototype).
    pub endpoints: Vec<String>,
    /// The signing key for wire messages.
    pub key: Vec<u8>,
}

/// The user's resource request for a kernel (§3.2.1): CPUs in millicpus,
/// memory in MB, whole GPUs, and VRAM in GB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelResourceSpec {
    /// CPU request in millicpus (1000 = one vCPU).
    pub millicpus: u32,
    /// Host memory in megabytes.
    pub memory_mb: u32,
    /// Number of whole GPUs required during cell execution.
    pub gpus: u32,
    /// VRAM per GPU in gigabytes.
    pub vram_gb: u32,
}

/// Errors a provisioner can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvisionError {
    /// The cluster could not place the kernel (and scale-out failed or is
    /// disabled).
    InsufficientResources(String),
    /// The kernel id is unknown.
    UnknownKernel(String),
    /// A kernel with this id is already live.
    DuplicateKernel(String),
}

impl std::fmt::Display for ProvisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProvisionError::InsufficientResources(detail) => {
                write!(f, "insufficient resources: {detail}")
            }
            ProvisionError::UnknownKernel(id) => write!(f, "unknown kernel `{id}`"),
            ProvisionError::DuplicateKernel(id) => write!(f, "kernel `{id}` already exists"),
        }
    }
}

impl std::error::Error for ProvisionError {}
