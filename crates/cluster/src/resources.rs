//! Resource vocabulary: requests, capacities, and accounting arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A kernel's resource request (§3.2.1): CPUs in millicpus (1 millicpu =
/// 1/1000 vCPU), host memory in MB, whole GPUs, and VRAM in GB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ResourceRequest {
    /// CPU in millicpus.
    pub millicpus: u64,
    /// Host memory in megabytes.
    pub memory_mb: u64,
    /// Whole GPUs.
    pub gpus: u32,
    /// VRAM per GPU in gigabytes.
    pub vram_gb: u32,
}

impl ResourceRequest {
    /// Creates a request.
    pub fn new(millicpus: u64, memory_mb: u64, gpus: u32, vram_gb: u32) -> Self {
        ResourceRequest {
            millicpus,
            memory_mb,
            gpus,
            vram_gb,
        }
    }

    /// A typical 1-GPU training notebook.
    pub fn one_gpu() -> Self {
        ResourceRequest::new(4000, 16_384, 1, 16)
    }
}

impl fmt::Display for ResourceRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}mcpu/{}MB/{}gpu/{}GB-vram",
            self.millicpus, self.memory_mb, self.gpus, self.vram_gb
        )
    }
}

/// A bundle of fungible resources, used both as capacity and as usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ResourceBundle {
    /// CPU in millicpus.
    pub millicpus: u64,
    /// Host memory in megabytes.
    pub memory_mb: u64,
    /// Whole GPUs.
    pub gpus: u32,
}

impl ResourceBundle {
    /// Creates a bundle.
    pub fn new(millicpus: u64, memory_mb: u64, gpus: u32) -> Self {
        ResourceBundle {
            millicpus,
            memory_mb,
            gpus,
        }
    }

    /// The shape of an 8-GPU p3.16xlarge-class server (64 vCPUs, 488 GB),
    /// matching the Adobe research cluster node type (§2.4).
    pub fn p3_16xlarge() -> Self {
        ResourceBundle::new(64_000, 499_712, 8)
    }

    /// The footprint a request occupies when **committed** (running a cell):
    /// all dimensions count.
    pub fn from_request(req: &ResourceRequest) -> Self {
        ResourceBundle::new(req.millicpus, req.memory_mb, req.gpus)
    }

    /// Componentwise `self >= other`.
    pub fn covers(&self, other: &ResourceBundle) -> bool {
        self.millicpus >= other.millicpus
            && self.memory_mb >= other.memory_mb
            && self.gpus >= other.gpus
    }

    /// Componentwise saturating subtraction.
    pub fn saturating_sub(&self, other: &ResourceBundle) -> ResourceBundle {
        ResourceBundle::new(
            self.millicpus.saturating_sub(other.millicpus),
            self.memory_mb.saturating_sub(other.memory_mb),
            self.gpus.saturating_sub(other.gpus),
        )
    }
}

impl Add for ResourceBundle {
    type Output = ResourceBundle;

    fn add(self, rhs: ResourceBundle) -> ResourceBundle {
        ResourceBundle::new(
            self.millicpus + rhs.millicpus,
            self.memory_mb + rhs.memory_mb,
            self.gpus + rhs.gpus,
        )
    }
}

impl AddAssign for ResourceBundle {
    fn add_assign(&mut self, rhs: ResourceBundle) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceBundle {
    type Output = ResourceBundle;

    /// # Panics
    ///
    /// Panics in debug builds if any component underflows.
    fn sub(self, rhs: ResourceBundle) -> ResourceBundle {
        ResourceBundle::new(
            self.millicpus - rhs.millicpus,
            self.memory_mb - rhs.memory_mb,
            self.gpus - rhs.gpus,
        )
    }
}

impl SubAssign for ResourceBundle {
    fn sub_assign(&mut self, rhs: ResourceBundle) {
        *self = *self - rhs;
    }
}

impl fmt::Display for ResourceBundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}mcpu/{}MB/{}gpu",
            self.millicpus, self.memory_mb, self.gpus
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_basics() {
        let r = ResourceRequest::one_gpu();
        assert_eq!(r.gpus, 1);
        assert!(format!("{r}").contains("1gpu"));
    }

    #[test]
    fn bundle_arithmetic() {
        let a = ResourceBundle::new(1000, 2000, 2);
        let b = ResourceBundle::new(500, 500, 1);
        assert_eq!(a + b, ResourceBundle::new(1500, 2500, 3));
        assert_eq!(a - b, ResourceBundle::new(500, 1500, 1));
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn covers_is_componentwise() {
        let cap = ResourceBundle::p3_16xlarge();
        assert!(cap.covers(&ResourceBundle::new(64_000, 499_712, 8)));
        assert!(!cap.covers(&ResourceBundle::new(64_001, 1, 1)));
        assert!(!cap.covers(&ResourceBundle::new(1, 1, 9)));
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = ResourceBundle::new(10, 10, 1);
        let b = ResourceBundle::new(100, 5, 2);
        assert_eq!(a.saturating_sub(&b), ResourceBundle::new(0, 5, 0));
    }

    #[test]
    fn from_request_copies_dimensions() {
        let r = ResourceRequest::new(4000, 8192, 2, 16);
        let b = ResourceBundle::from_request(&r);
        assert_eq!(b, ResourceBundle::new(4000, 8192, 2));
    }
}
