//! Platform configuration.

use notebookos_cluster::ResourceBundle;
use notebookos_datastore::BackendKind;

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
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ElasticityKind {
    /// The paper's §3.4.2 threshold controller: targets
    /// `ΣG' = f · ΣC` in host-equivalents and always provisions
    /// `host_shape` hosts. Bit-identical to the pre-elasticity platform on
    /// homogeneous fleets.
    #[default]
    Threshold,
    /// Shape-aware scaling for heterogeneous fleets: provisions the
    /// cheapest shape in the fleet's catalog that satisfies the queued
    /// GPU/VRAM demand, with targets billed in host-equivalents.
    ShapeAware,
    /// Threshold targets wrapped in hysteresis: scale-out is rate-limited
    /// by a cooldown and scale-in only fires after a sustained surplus,
    /// damping the provision/release churn diurnal workloads induce.
    Hysteresis {
        /// Minimum seconds between two tick-driven scale-outs.
        cooldown_s: f64,
        /// Consecutive surplus ticks required before any host is released.
        surplus_ticks: u32,
    },
}

impl ElasticityKind {
    /// The three bundled policies with default parameters, in sweep order.
    pub const ALL: [ElasticityKind; 3] = [
        ElasticityKind::Threshold,
        ElasticityKind::ShapeAware,
        ElasticityKind::hysteresis(),
    ];

    /// Hysteresis with the default damping parameters (2-minute cooldown,
    /// 4 surplus ticks ≈ 2 minutes at the default 30 s interval).
    pub const fn hysteresis() -> Self {
        ElasticityKind::Hysteresis {
            cooldown_s: 120.0,
            surplus_ticks: 4,
        }
    }
}

impl std::fmt::Display for ElasticityKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElasticityKind::Threshold => write!(f, "threshold"),
            ElasticityKind::ShapeAware => write!(f, "shape-aware"),
            // Parameters are part of the label: a sweep ranging over
            // differently-tuned hysteresis cells must keep them apart in
            // tables and persisted JSON records.
            ElasticityKind::Hysteresis {
                cooldown_s,
                surplus_ticks,
            } => write!(
                f,
                "hysteresis(cooldown={cooldown_s}s,surplus={surplus_ticks})"
            ),
        }
    }
}

/// Billing parameters (§5.5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BillingConfig {
    /// Provider's hourly cost for one 8-GPU server (the paper's running
    /// example uses $10/hour).
    pub host_hourly_usd: f64,
    /// Users pay this multiple of the provider's rate (1.15×).
    pub user_multiplier: f64,
    /// Standby replicas are charged this fraction of the base rate (12.5 %).
    pub standby_fraction: f64,
}

impl Default for BillingConfig {
    fn default() -> Self {
        BillingConfig {
            host_hourly_usd: 10.0,
            user_multiplier: 1.15,
            standby_fraction: 0.125,
        }
    }
}

/// Auto-scaler parameters (§3.4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Whether auto-scaling runs at all (disabled for the fixed-cluster
    /// baselines).
    pub enabled: bool,
    /// Evaluation interval in seconds.
    pub interval_s: f64,
    /// The aggressiveness multiplier `f` in `ΣG' = f · ΣC` (paper: 1.05).
    pub multiplier: f64,
    /// "Extra" servers kept as a burst buffer.
    pub scaling_buffer_hosts: u32,
    /// Hosts released per scale-in step (paper: 1–2 at a time).
    pub max_release_per_step: u32,
    /// Lower bound on cluster size.
    pub min_hosts: u32,
    /// When set, the auto-scaler also keeps enough hosts that the
    /// cluster-wide subscription ratio stays at or below this value —
    /// NotebookOS's replicated kernels subscribe capacity that the
    /// committed-GPU signal alone cannot see (§3.4.1/§3.4.2). `None`
    /// disables the term (LCP has no standing subscriptions).
    pub sr_target: Option<f64>,
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
            enabled: true,
            interval_s: 30.0,
            multiplier: 1.05,
            scaling_buffer_hosts: 2,
            max_release_per_step: 2,
            min_hosts: 4,
            sr_target: None,
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
    /// Replicas per distributed kernel (paper: 3 — 2 is unsupported by
    /// Raft, 5 costs too much).
    pub replication_factor: u32,
    /// Hosts provisioned at time zero.
    pub initial_hosts: u32,
    /// Shape of every host (default: 8-GPU p3.16xlarge). Scale-out always
    /// adds hosts of this shape.
    pub host_shape: ResourceBundle,
    /// Optional heterogeneous initial fleet as `(shape, count)` pairs.
    /// When non-empty it replaces the homogeneous
    /// `initial_hosts × host_shape` fleet, modelling mixed-generation GPU
    /// clusters (e.g. 8-GPU trainers alongside 4-GPU boxes).
    pub host_mix: Vec<(ResourceBundle, u32)>,
    /// Backend of the Distributed Data Store.
    pub datastore: BackendKind,
    /// Minimum pre-warmed containers per host. NotebookOS keeps this small
    /// (migration headroom); LCP keeps a large pool that serves cells
    /// directly.
    pub prewarm_min_per_host: u32,
    /// Auto-scaling parameters.
    pub autoscale: AutoscaleConfig,
    /// Billing parameters.
    pub billing: BillingConfig,
    /// Migration retry spacing (seconds) and cap (§3.2.3: "periodically
    /// retried, several times if necessary, before ultimately being
    /// aborted").
    pub migration_retry_interval_s: f64,
    /// Maximum migration retries before aborting with an error reply.
    pub migration_max_retries: u32,
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
    /// (§5.1.2), with auto-scaling enabled only for the NotebookOS variants.
    pub fn evaluation(policy: PolicyKind) -> Self {
        let autoscale = AutoscaleConfig {
            enabled: matches!(policy, PolicyKind::NotebookOs | PolicyKind::NotebookOsLcp),
            sr_target: matches!(policy, PolicyKind::NotebookOs).then_some(1.6),
            // LCP trades interactivity for cost: it keeps a leaner fleet
            // (no replica subscriptions to back, smaller burst buffer).
            scaling_buffer_hosts: if policy == PolicyKind::NotebookOsLcp {
                1
            } else {
                2
            },
            min_hosts: if policy == PolicyKind::NotebookOsLcp {
                3
            } else {
                4
            },
            ..AutoscaleConfig::default()
        };
        PlatformConfig {
            policy,
            replication_factor: 3,
            initial_hosts: if autoscale.enabled { 8 } else { 30 },
            host_shape: ResourceBundle::p3_16xlarge(),
            host_mix: Vec::new(),
            datastore: BackendKind::S3,
            prewarm_min_per_host: match policy {
                PolicyKind::NotebookOsLcp => 6,
                PolicyKind::NotebookOs => 1,
                _ => 0,
            },
            autoscale,
            billing: BillingConfig::default(),
            migration_retry_interval_s: 15.0,
            migration_max_retries: 8,
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
        if self.replication_factor < 1 {
            return Err("replication factor must be at least 1".into());
        }
        if self.replication_factor == 2 {
            return Err("replication factor 2 is unsupported by Raft (§3.1)".into());
        }
        if self.autoscale.multiplier < 1.0 {
            return Err("autoscale multiplier must be >= 1".into());
        }
        if self.host_shape.gpus == 0 && self.initial_hosts > 0 {
            return Err("hosts must have GPUs".into());
        }
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
        if !(1.0..10.0).contains(&self.billing.user_multiplier) {
            return Err("user multiplier out of range".into());
        }
        if let Some(interval) = self.autoscale.prewarm_reconcile_interval_s {
            if !interval.is_finite() || interval <= 0.0 {
                return Err("prewarm reconcile interval must be positive".into());
            }
        }
        if let ElasticityKind::Hysteresis {
            cooldown_s,
            surplus_ticks,
        } = self.autoscale.elasticity
        {
            if !cooldown_s.is_finite() || cooldown_s < 0.0 {
                return Err("hysteresis cooldown must be non-negative".into());
            }
            if surplus_ticks == 0 {
                return Err("hysteresis needs at least one surplus tick".into());
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
    fn baselines_have_fixed_clusters() {
        assert!(
            !PlatformConfig::evaluation(PolicyKind::Reservation)
                .autoscale
                .enabled
        );
        assert!(
            !PlatformConfig::evaluation(PolicyKind::Batch)
                .autoscale
                .enabled
        );
        assert!(
            PlatformConfig::evaluation(PolicyKind::NotebookOs)
                .autoscale
                .enabled
        );
        assert_eq!(
            PlatformConfig::evaluation(PolicyKind::Reservation).initial_hosts,
            30
        );
    }

    #[test]
    fn lcp_has_larger_pool() {
        let lcp = PlatformConfig::evaluation(PolicyKind::NotebookOsLcp);
        let nbos = PlatformConfig::evaluation(PolicyKind::NotebookOs);
        assert!(lcp.prewarm_min_per_host > nbos.prewarm_min_per_host);
    }

    #[test]
    fn replication_factor_two_rejected() {
        let mut cfg = PlatformConfig::evaluation(PolicyKind::NotebookOs);
        cfg.replication_factor = 2;
        assert!(cfg.validate().is_err());
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
            ElasticityKind::hysteresis().to_string(),
            "hysteresis(cooldown=120s,surplus=4)",
            "differently-tuned cells must label distinctly"
        );
        assert_ne!(
            ElasticityKind::Hysteresis {
                cooldown_s: 60.0,
                surplus_ticks: 2
            }
            .to_string(),
            ElasticityKind::hysteresis().to_string()
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
        cfg.autoscale.elasticity = ElasticityKind::Hysteresis {
            cooldown_s: -1.0,
            surplus_ticks: 4,
        };
        assert!(cfg.validate().is_err(), "negative cooldown rejected");
        cfg.autoscale.elasticity = ElasticityKind::Hysteresis {
            cooldown_s: 60.0,
            surplus_ticks: 0,
        };
        assert!(cfg.validate().is_err(), "zero surplus ticks rejected");
        cfg.autoscale.elasticity = ElasticityKind::hysteresis();
        cfg.validate().expect("default hysteresis is valid");
    }
}
