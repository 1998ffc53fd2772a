//! Platform configuration: what a caller varies between runs. The
//! evaluation setup the paper fixes (R = 3, p3.16xlarge hosts, the S3
//! data store, the billing rates, the auto-scaler's `f` and tick, the
//! migration retry cap) lives as named constants beside the code that
//! reads it.

use notebookos_cluster::ResourceBundle;

use crate::elasticity::{HYSTERESIS_COOLDOWN_S, HYSTERESIS_SURPLUS_TICKS};

/// Which scheduling policy runs the platform (§5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// One long-running kernel container per session with exclusively
    /// reserved resources — today's notebook platforms (Colab, the Adobe
    /// research cluster).
    Reservation,
    /// FCFS batch scheduling: a fresh container per submitted cell, torn
    /// down afterwards — the GPU-cluster-scheduler family.
    Batch,
    /// The paper's system: replicated kernels, dynamic GPU binding,
    /// oversubscription, migration, auto-scaling.
    NotebookOs,
    /// NotebookOS with a Large Container Pool: warm containers serve cells
    /// directly, trading some interactivity for fewer provisioned GPUs.
    NotebookOsLcp,
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyKind::Reservation => write!(f, "Reservation"),
            PolicyKind::Batch => write!(f, "Batch"),
            PolicyKind::NotebookOs => write!(f, "NotebookOS"),
            PolicyKind::NotebookOsLcp => write!(f, "NotebookOS (LCP)"),
        }
    }
}

impl PolicyKind {
    /// All four evaluated policies, in the paper's presentation order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Reservation,
        PolicyKind::Batch,
        PolicyKind::NotebookOs,
        PolicyKind::NotebookOsLcp,
    ];

    /// Whether the §3.4.2 auto-scaler runs: only the NotebookOS variants
    /// scale; the baselines keep a fixed cluster.
    pub(crate) fn autoscales(self) -> bool {
        matches!(self, PolicyKind::NotebookOs | PolicyKind::NotebookOsLcp)
    }

    /// Minimum pre-warmed containers per host (§3.2.3). NotebookOS keeps
    /// one (migration headroom); LCP keeps a large pool that serves cells
    /// directly; the baselines keep none.
    pub(crate) fn prewarm_min_per_host(self) -> u32 {
        match self {
            PolicyKind::NotebookOsLcp => 6,
            PolicyKind::NotebookOs => 1,
            PolicyKind::Reservation | PolicyKind::Batch => 0,
        }
    }

    /// The cluster-wide subscription ratio the auto-scaler keeps the fleet
    /// at or below. NotebookOS's replicated kernels subscribe capacity
    /// that the committed-GPU signal alone cannot see (§3.4.1/§3.4.2);
    /// `None` disables the term (LCP has no standing subscriptions).
    pub(crate) fn sr_target(self) -> Option<f64> {
        matches!(self, PolicyKind::NotebookOs).then_some(1.6)
    }
}

/// Which replica-placement policy the Global Scheduler uses (§3.4.1 — the
/// policy is pluggable; this selects among the bundled implementations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementKind {
    /// The paper's default: least-loaded with the dynamic SR cap.
    #[default]
    LeastLoaded,
    /// Round-robin over viable hosts.
    RoundRobin,
    /// Consolidate onto the most-subscribed viable hosts.
    BinPacking,
    /// Seeded-random (ablation baseline).
    Random,
}

impl std::fmt::Display for PlacementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementKind::LeastLoaded => write!(f, "least-loaded"),
            PlacementKind::RoundRobin => write!(f, "round-robin"),
            PlacementKind::BinPacking => write!(f, "bin-packing"),
            PlacementKind::Random => write!(f, "random"),
        }
    }
}

impl PlacementKind {
    /// All four bundled placement policies, in ablation order — the
    /// placement sweep axis mirror of [`PolicyKind::ALL`].
    pub const ALL: [PlacementKind; 4] = [
        PlacementKind::LeastLoaded,
        PlacementKind::RoundRobin,
        PlacementKind::BinPacking,
        PlacementKind::Random,
    ];
}

/// Which variant of the §3.4.2 auto-scaler drives scale-out and scale-in
/// decisions. It is the sweepable configuration axis, as [`PlacementKind`]
/// is for replica placement; the platform's controller matches on it
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ElasticityKind {
    /// The paper's §3.4.2 threshold controller: targets
    /// `ΣG' = f · ΣC` in host-equivalents and always provisions
    /// p3.16xlarge hosts. Bit-identical to the pre-elasticity platform on
    /// homogeneous fleets.
    #[default]
    Threshold,
    /// Shape-aware scaling for heterogeneous fleets: provisions the
    /// cheapest shape in the fleet's catalog that satisfies the queued
    /// GPU/VRAM demand, with targets billed in host-equivalents.
    ShapeAware,
    /// Threshold targets wrapped in hysteresis: scale-out is rate-limited
    /// by a 2-minute cooldown and scale-in only fires after 4 consecutive
    /// surplus ticks (2 minutes at the 30 s tick), damping the
    /// provision/release churn diurnal workloads induce.
    Hysteresis,
}

impl ElasticityKind {
    /// The three bundled policies, in sweep order.
    pub const ALL: [ElasticityKind; 3] = [
        ElasticityKind::Threshold,
        ElasticityKind::ShapeAware,
        ElasticityKind::Hysteresis,
    ];
}

impl std::fmt::Display for ElasticityKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElasticityKind::Threshold => write!(f, "threshold"),
            ElasticityKind::ShapeAware => write!(f, "shape-aware"),
            // The parameters stay in the label: persisted reports and the
            // placement-matrix golden carry it.
            ElasticityKind::Hysteresis => write!(
                f,
                "hysteresis(cooldown={HYSTERESIS_COOLDOWN_S}s,surplus={HYSTERESIS_SURPLUS_TICKS})"
            ),
        }
    }
}

/// Auto-scaler parameters (§3.4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// "Extra" servers kept as a burst buffer.
    pub scaling_buffer_hosts: u32,
    /// Hosts released per scale-in step (paper: 1–2 at a time).
    pub max_release_per_step: u32,
    /// Lower bound on cluster size.
    pub min_hosts: u32,
    /// Which variant of the auto-scaler turns these parameters into
    /// scaling decisions.
    pub elasticity: ElasticityKind,
    /// When set, a periodic tick re-evaluates [`PrewarmPool::deficits`]
    /// and provisions the missing warm containers, so pools self-heal
    /// after a flash crowd drains them. `None` keeps the pre-elasticity
    /// behavior (pools refill only at host-ready), preserving bit-exact
    /// reproduction of earlier results.
    ///
    /// [`PrewarmPool::deficits`]: notebookos_cluster::PrewarmPool::deficits
    pub prewarm_reconcile_interval_s: Option<f64>,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            scaling_buffer_hosts: 2,
            max_release_per_step: 2,
            min_hosts: 4,
            elasticity: ElasticityKind::Threshold,
            prewarm_reconcile_interval_s: None,
        }
    }
}

/// Full platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// The scheduling policy under evaluation.
    pub policy: PolicyKind,
    /// p3.16xlarge hosts provisioned at time zero.
    pub initial_hosts: u32,
    /// Optional heterogeneous initial fleet as `(shape, count)` pairs.
    /// When non-empty it replaces the homogeneous
    /// `initial_hosts` × p3.16xlarge fleet, modelling mixed-generation GPU
    /// clusters (e.g. 8-GPU trainers alongside 4-GPU boxes).
    pub host_mix: Vec<(ResourceBundle, u32)>,
    /// Auto-scaling parameters (the auto-scaler runs only for the
    /// NotebookOS variants).
    pub autoscale: AutoscaleConfig,
    /// Mean time between injected replica fail-stop failures, in hours of
    /// virtual time (§3.2.5 fault model). `None` disables injection.
    pub replica_mtbf_hours: Option<f64>,
    /// Replica-placement policy (§3.4.1).
    pub placement: PlacementKind,
    /// RNG seed for the run.
    pub seed: u64,
}

impl PlatformConfig {
    /// The evaluation setup for `policy`: a 30-host × 8-GPU cluster
    /// (§5.1.2), or 8 hosts growing on demand for the auto-scaled
    /// NotebookOS variants.
    pub fn evaluation(policy: PolicyKind) -> Self {
        let lcp = policy == PolicyKind::NotebookOsLcp;
        PlatformConfig {
            policy,
            initial_hosts: if policy.autoscales() { 8 } else { 30 },
            host_mix: Vec::new(),
            // LCP trades interactivity for cost: it keeps a leaner fleet
            // (no replica subscriptions to back, smaller burst buffer).
            autoscale: AutoscaleConfig {
                scaling_buffer_hosts: if lcp { 1 } else { 2 },
                min_hosts: if lcp { 3 } else { 4 },
                ..AutoscaleConfig::default()
            },
            replica_mtbf_hours: None,
            placement: PlacementKind::LeastLoaded,
            seed: 0xC0FFEE,
        }
    }

    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self
            .host_mix
            .iter()
            .any(|&(shape, count)| count > 0 && shape.gpus == 0)
        {
            return Err("host-mix entries must have GPUs".into());
        }
        if !self.host_mix.is_empty() && self.host_mix.iter().all(|&(_, count)| count == 0) {
            return Err("host mix must contain at least one host".into());
        }
        if let Some(interval) = self.autoscale.prewarm_reconcile_interval_s {
            if !interval.is_finite() || interval <= 0.0 {
                return Err("prewarm reconcile interval must be positive".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_configs_validate() {
        for policy in PolicyKind::ALL {
            let cfg = PlatformConfig::evaluation(policy);
            cfg.validate().expect("valid config");
        }
    }

    #[test]
    fn evaluation_setup_per_policy() {
        // (policy, autoscales, initial_hosts, prewarm_min_per_host,
        //  sr_target, scaling_buffer_hosts, min_hosts)
        let table = [
            (PolicyKind::Reservation, false, 30, 0, None, 2, 4),
            (PolicyKind::Batch, false, 30, 0, None, 2, 4),
            (PolicyKind::NotebookOs, true, 8, 1, Some(1.6), 2, 4),
            (PolicyKind::NotebookOsLcp, true, 8, 6, None, 1, 3),
        ];
        for (policy, autoscales, hosts, prewarm, sr_target, buffer, min_hosts) in table {
            let cfg = PlatformConfig::evaluation(policy);
            assert_eq!(policy.autoscales(), autoscales, "{policy} autoscales");
            assert_eq!(cfg.initial_hosts, hosts, "{policy} initial hosts");
            assert_eq!(policy.prewarm_min_per_host(), prewarm, "{policy} pre-warm");
            assert_eq!(policy.sr_target(), sr_target, "{policy} SR target");
            assert_eq!(
                cfg.autoscale.scaling_buffer_hosts, buffer,
                "{policy} burst buffer"
            );
            assert_eq!(cfg.autoscale.min_hosts, min_hosts, "{policy} min hosts");
        }
    }

    #[test]
    fn baselines_have_fixed_clusters() {
        assert!(!PolicyKind::Reservation.autoscales());
        assert!(!PolicyKind::Batch.autoscales());
        assert!(PolicyKind::NotebookOs.autoscales());
        assert_eq!(
            PlatformConfig::evaluation(PolicyKind::Reservation).initial_hosts,
            30
        );
    }

    #[test]
    fn lcp_has_larger_pool() {
        assert!(
            PolicyKind::NotebookOsLcp.prewarm_min_per_host()
                > PolicyKind::NotebookOs.prewarm_min_per_host()
        );
    }

    #[test]
    fn host_mix_validation() {
        let mut cfg = PlatformConfig::evaluation(PolicyKind::NotebookOs);
        cfg.host_mix = vec![
            (ResourceBundle::p3_16xlarge(), 4),
            (ResourceBundle::new(32_000, 249_856, 4), 8),
        ];
        cfg.validate().expect("heterogeneous mix is valid");
        cfg.host_mix = vec![(ResourceBundle::new(32_000, 249_856, 0), 2)];
        assert!(cfg.validate().is_err(), "GPU-less mix entries rejected");
        cfg.host_mix = vec![(ResourceBundle::p3_16xlarge(), 0)];
        assert!(cfg.validate().is_err(), "empty fleet rejected");
    }

    #[test]
    fn policy_display() {
        assert_eq!(PolicyKind::NotebookOsLcp.to_string(), "NotebookOS (LCP)");
    }

    #[test]
    fn elasticity_defaults_and_display() {
        assert_eq!(ElasticityKind::default(), ElasticityKind::Threshold);
        assert_eq!(
            AutoscaleConfig::default().elasticity,
            ElasticityKind::Threshold
        );
        assert_eq!(
            AutoscaleConfig::default().prewarm_reconcile_interval_s,
            None
        );
        assert_eq!(ElasticityKind::Threshold.to_string(), "threshold");
        assert_eq!(ElasticityKind::ShapeAware.to_string(), "shape-aware");
        assert_eq!(
            ElasticityKind::Hysteresis.to_string(),
            "hysteresis(cooldown=120s,surplus=4)",
            "the placement-matrix golden pins this label"
        );
        assert_eq!(ElasticityKind::ALL.len(), 3);
    }

    #[test]
    fn elasticity_validation() {
        let mut cfg = PlatformConfig::evaluation(PolicyKind::NotebookOs);
        cfg.autoscale.prewarm_reconcile_interval_s = Some(0.0);
        assert!(cfg.validate().is_err(), "zero reconcile interval rejected");
        cfg.autoscale.prewarm_reconcile_interval_s = Some(60.0);
        cfg.validate().expect("positive interval is valid");
    }
}
