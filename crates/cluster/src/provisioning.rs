//! Provisioning-latency models.
//!
//! The evaluation's interactivity results hinge on three latency classes:
//! cold container starts (what Batch pays per cell and NotebookOS pays when
//! the pre-warm pool is exhausted), warm container acquisition, and VM
//! scale-out. The constants below are calibrated to the published behaviour:
//! the paper attributes Batch's multi-second step-1 delays to "on-demand
//! docker container provisioning" and describes cold startup delays as
//! "long" relative to sub-second warm acquisition, with §3.3's host-to-GPU
//! model load taking "up to a couple hundred milliseconds".

use notebookos_des::{Distribution, LogNormal, SimRng, SimTime, Uniform};

/// Samples the latency of every provisioning-flavoured operation in the
/// platform.
#[derive(Debug, Clone)]
pub struct ProvisioningModel {
    cold_container: LogNormal,
    warm_container: LogNormal,
    vm_scale_out: LogNormal,
    network_hop: Uniform,
    gpu_model_load: LogNormal,
    registration: Uniform,
}

impl ProvisioningModel {
    /// The default calibration (see module docs).
    pub fn new() -> Self {
        ProvisioningModel {
            // Cold Docker container + Python runtime + deps: median 18 s,
            // p95 ≈ 45 s (heavy images occasionally much slower).
            cold_container: LogNormal::from_quantiles(0.5, 18.0, 0.95, 45.0),
            // Pre-warmed container handoff: median 350 ms, p95 ≈ 900 ms.
            warm_container: LogNormal::from_quantiles(0.5, 0.35, 0.95, 0.9),
            // EC2 VM provision + Local Scheduler registration: median 95 s,
            // p95 ≈ 180 s.
            vm_scale_out: LogNormal::from_quantiles(0.5, 95.0, 0.95, 180.0),
            // Intra-cluster network hop: 0.2–1.2 ms.
            network_hop: Uniform::new(0.000_2, 0.001_2),
            // Host-memory → GPU model load (§3.3): median 120 ms,
            // p95 ≈ 300 ms ("up to a couple hundred milliseconds").
            gpu_model_load: LogNormal::from_quantiles(0.5, 0.12, 0.95, 0.30),
            // Replica registration with the Local Scheduler: 5–25 ms.
            registration: Uniform::new(0.005, 0.025),
        }
    }

    /// Latency of a cold container start.
    pub fn cold_container_start(&self, rng: &mut SimRng) -> SimTime {
        SimTime::from_secs_f64(self.cold_container.sample(rng))
    }

    /// Latency of acquiring a pre-warmed container.
    pub fn warm_container_start(&self, rng: &mut SimRng) -> SimTime {
        SimTime::from_secs_f64(self.warm_container.sample(rng))
    }

    /// Latency of provisioning an additional GPU server.
    pub fn vm_scale_out(&self, rng: &mut SimRng) -> SimTime {
        SimTime::from_secs_f64(self.vm_scale_out.sample(rng))
    }

    /// One network hop (client ↔ Jupyter Server ↔ Global Scheduler ↔ Local
    /// Scheduler ↔ replica).
    pub fn network_hop(&self, rng: &mut SimRng) -> SimTime {
        SimTime::from_secs_f64(self.network_hop.sample(rng))
    }

    /// Loading model parameters from host memory onto the allocated GPUs
    /// before execution (§3.3) — charged on the critical path.
    pub fn gpu_model_load(&self, rng: &mut SimRng) -> SimTime {
        SimTime::from_secs_f64(self.gpu_model_load.sample(rng))
    }

    /// Replica registration with its Local Scheduler.
    pub fn registration(&self, rng: &mut SimRng) -> SimTime {
        SimTime::from_secs_f64(self.registration.sample(rng))
    }
}

impl Default for ProvisioningModel {
    fn default() -> Self {
        ProvisioningModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median_of(mut samples: Vec<f64>) -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[samples.len() / 2]
    }

    #[test]
    fn cold_starts_dwarf_warm_starts() {
        let model = ProvisioningModel::new();
        let mut rng = SimRng::seed(1);
        let cold: Vec<f64> = (0..2000)
            .map(|_| model.cold_container_start(&mut rng).as_secs_f64())
            .collect();
        let warm: Vec<f64> = (0..2000)
            .map(|_| model.warm_container_start(&mut rng).as_secs_f64())
            .collect();
        let cold_med = median_of(cold);
        let warm_med = median_of(warm);
        assert!(
            cold_med > 20.0 * warm_med,
            "cold {cold_med:.2}s vs warm {warm_med:.2}s"
        );
        assert!(
            (cold_med / 18.0 - 1.0).abs() < 0.15,
            "cold median {cold_med:.2}"
        );
    }

    #[test]
    fn scale_out_is_minutes_scale() {
        let model = ProvisioningModel::new();
        let mut rng = SimRng::seed(2);
        let med = median_of(
            (0..2000)
                .map(|_| model.vm_scale_out(&mut rng).as_secs_f64())
                .collect(),
        );
        assert!((60.0..150.0).contains(&med), "scale-out median {med:.1}");
    }

    #[test]
    fn hops_are_sub_two_millisecond() {
        let model = ProvisioningModel::new();
        let mut rng = SimRng::seed(3);
        for _ in 0..1000 {
            let hop = model.network_hop(&mut rng);
            assert!(hop >= SimTime::from_micros(200));
            assert!(hop <= SimTime::from_micros(1200));
        }
    }

    #[test]
    fn gpu_model_load_matches_paper_claim() {
        // §3.3: "typically only takes up to a couple hundred milliseconds".
        let model = ProvisioningModel::new();
        let mut rng = SimRng::seed(4);
        let med = median_of(
            (0..2000)
                .map(|_| model.gpu_model_load(&mut rng).as_secs_f64())
                .collect(),
        );
        assert!((0.08..0.20).contains(&med), "load median {med:.3}");
    }
}
