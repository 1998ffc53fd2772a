//! The elasticity control plane: the auto-scaler of §3.4.2.
//!
//! [`Elasticity`] holds the configured [`ElasticityKind`] and decides
//! over an [`ElasticityContext`] — a read-only snapshot of the fleet —
//! answering with [`ElasticityAction`]s that [`crate::Platform`] applies
//! (charging provisioning latencies, retiring idle hosts, updating
//! gauges). Only replica placement is a plug-in interface in the paper
//! (§3.4.1); elasticity is one controller with three variants, matched
//! on the kind:
//!
//! * `Threshold` — the paper's §3.4.2 controller, verbatim: target
//!   `ΣG' = f · ΣC` (plus the SR backing term) in host-equivalents,
//!   always provisioning p3.16xlarge hosts. On homogeneous fleets it is
//!   bit-identical to the pre-elasticity platform — the golden regression
//!   test in `tests/elasticity_properties.rs` locks that in.
//! * `ShapeAware` — heterogeneous-fleet scaling: provisions the cheapest
//!   shape from the fleet's catalog that satisfies the queued GPU/VRAM
//!   demand, billing targets in host-equivalents so a 4-GPU box counts as
//!   half an 8-GPU reference host.
//! * `Hysteresis` — Threshold targets wrapped in a scale-out cooldown
//!   and scale-in damping (a sustained surplus is required before hosts
//!   are released), taming churn under diurnal arrival patterns.
//!
//! Decisions are pure: they never draw randomness and never mutate the
//! fleet. All stochastic costs (VM provision latency, warm container
//! starts) are charged by the platform when it applies the actions, which
//! is what makes `Threshold` reproduce the pre-refactor RNG stream
//! exactly.

use notebookos_cluster::{Cluster, HostId, PrewarmPool, ResourceBundle, ResourceRequest};

use crate::config::{AutoscaleConfig, ElasticityKind};
use crate::platform::REPLICATION_FACTOR;

/// The aggressiveness multiplier `f` in the scale-out target
/// `ΣG' = f · ΣC` (§3.4.2: 1.05).
const SCALE_OUT_MULTIPLIER: f64 = 1.05;

/// `Hysteresis`: minimum seconds between two tick-driven scale-outs.
pub(crate) const HYSTERESIS_COOLDOWN_S: f64 = 120.0;

/// `Hysteresis`: consecutive surplus ticks required before any host is
/// released (2 minutes at the 30 s auto-scaler tick).
pub(crate) const HYSTERESIS_SURPLUS_TICKS: u32 = 4;

/// One scaling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ElasticityAction {
    /// Provision `count` new hosts of `shape`; each arrives after a
    /// provisioning delay and then joins the fleet.
    ProvisionHosts {
        /// Shape of every host this action provisions.
        shape: ResourceBundle,
        /// Number of hosts to provision.
        count: u32,
    },
    /// Remove one idle host from the fleet, discarding its warm containers.
    RetireHost {
        /// The host to remove (must be idle; the platform skips it
        /// otherwise).
        host: HostId,
    },
}

/// A pending kernel-creation's resource demand, as the control plane sees
/// it: how many replica subscriptions could not be placed and what each
/// one asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DemandShortfall {
    /// Replica subscriptions that found no viable host.
    pub(crate) replicas: u32,
    /// The per-replica resource request (GPUs + VRAM drive shape choice).
    pub(crate) request: ResourceRequest,
}

/// Read-only view of the fleet a decision is made over.
#[derive(Debug)]
pub(crate) struct ElasticityContext<'a> {
    /// The cluster as the Global Scheduler sees it.
    pub(crate) cluster: &'a Cluster,
    /// Auto-scaler parameters.
    pub(crate) autoscale: &'a AutoscaleConfig,
    /// The subscription ratio the fleet is kept at or below
    /// ([`crate::PolicyKind::sr_target`]); `None` disables the term.
    pub(crate) sr_target: Option<f64>,
    /// Shapes this fleet may provision (the `host_mix` shapes, or just
    /// p3.16xlarge for homogeneous fleets), ascending by GPU count.
    pub(crate) shape_catalog: &'a [ResourceBundle],
    /// Hosts currently being provisioned (any shape).
    pub(crate) hosts_in_flight: u32,
    /// GPUs aboard the in-flight hosts.
    pub(crate) gpus_in_flight: u64,
    /// Resource requests of kernel creations parked on scale-out.
    pub(crate) queued_demand: &'a [ResourceRequest],
    /// Virtual time of the decision, seconds.
    pub(crate) now_s: f64,
}

impl ElasticityContext<'_> {
    /// GPUs per reference host (a p3.16xlarge, §5.1.2).
    fn reference_gpus(&self) -> u32 {
        ResourceBundle::p3_16xlarge().gpus
    }

    /// The fleet in host-equivalents: total GPUs divided by the reference
    /// host's GPUs. Equals the host count on homogeneous fleets and bills
    /// mixed fleets in proportion to their capacity.
    fn host_equivalents(&self) -> f64 {
        self.cluster.total_gpus() as f64 / f64::from(self.reference_gpus())
    }

    /// The §3.4.2 scale-out target in units of reference hosts:
    /// `ceil(f · ΣC / per_host) + buffer`, floored at `min_hosts`, raised
    /// to back the standing subscriptions when `sr_target` is set.
    fn target_hosts(&self) -> u32 {
        let cfg = self.autoscale;
        let committed = self.cluster.total_committed_gpus() as f64;
        let per_host = f64::from(self.reference_gpus());
        let mut target_hosts = ((SCALE_OUT_MULTIPLIER * committed / per_host).ceil() as u32
            + cfg.scaling_buffer_hosts)
            .max(cfg.min_hosts);
        if let Some(sr_target) = self.sr_target {
            let subscribed = self.cluster.total_subscribed_gpus() as f64;
            let r = f64::from(REPLICATION_FACTOR);
            let sr_hosts = (subscribed / (per_host * r * sr_target)).ceil() as u32;
            target_hosts = target_hosts.max(sr_hosts);
        }
        target_hosts
    }

    /// The cheapest catalog shape whose capacity covers `request`
    /// (catalog order is ascending by GPU count, so the first covering
    /// shape is the cheapest in host-equivalents). Falls back to the
    /// reference shape for requests nothing in the catalog covers.
    fn cheapest_covering_shape(&self, request: &ResourceRequest) -> ResourceBundle {
        let footprint = ResourceBundle::from_request(request);
        self.shape_catalog
            .iter()
            .copied()
            .find(|shape| shape.covers(&footprint))
            .unwrap_or(ResourceBundle::p3_16xlarge())
    }

    /// The smallest catalog shape (the cheapest unit of capacity).
    fn smallest_shape(&self) -> ResourceBundle {
        self.shape_catalog
            .first()
            .copied()
            .unwrap_or(ResourceBundle::p3_16xlarge())
    }
}

/// The configured auto-scaler plus the state `Hysteresis` keeps between
/// decisions (the other two kinds are stateless).
#[derive(Debug)]
pub(crate) struct Elasticity {
    kind: ElasticityKind,
    /// Virtual time of the last scale-out (Hysteresis's cooldown clock).
    last_scale_out_s: f64,
    /// Consecutive surplus observations (Hysteresis's scale-in damping).
    consecutive_surplus: u32,
}

impl Elasticity {
    /// The controller a configuration selects, with no history.
    pub(crate) fn new(kind: ElasticityKind) -> Self {
        Elasticity {
            kind,
            last_scale_out_s: f64::NEG_INFINITY,
            consecutive_surplus: 0,
        }
    }

    /// Periodic evaluation (§3.4.2's auto-scaler interval).
    pub(crate) fn on_tick(&mut self, ctx: &ElasticityContext<'_>) -> Vec<ElasticityAction> {
        match self.kind {
            ElasticityKind::Threshold => threshold_tick(ctx),
            ElasticityKind::ShapeAware => shape_aware_tick(ctx),
            ElasticityKind::Hysteresis => self.hysteresis_tick(ctx),
        }
    }

    /// A kernel creation (or migration / LCP placement) found no viable
    /// host; `shortfall` describes the unplaced demand. Every kind
    /// provisions at once — a parked kernel must not wait out a
    /// hysteresis cooldown — and differs only in the shape it picks.
    pub(crate) fn on_shortfall(
        &mut self,
        ctx: &ElasticityContext<'_>,
        shortfall: DemandShortfall,
    ) -> Vec<ElasticityAction> {
        let shape = match self.kind {
            ElasticityKind::Threshold => ResourceBundle::p3_16xlarge(),
            ElasticityKind::ShapeAware => ctx.cheapest_covering_shape(&shortfall.request),
            ElasticityKind::Hysteresis => {
                self.last_scale_out_s = ctx.now_s;
                ResourceBundle::p3_16xlarge()
            }
        };
        vec![ElasticityAction::ProvisionHosts {
            shape,
            count: shortfall.replicas,
        }]
    }

    /// Threshold targets wrapped in hysteresis. Scale-out from ticks is
    /// rate-limited by [`HYSTERESIS_COOLDOWN_S`]; scale-in requires
    /// [`HYSTERESIS_SURPLUS_TICKS`] consecutive surplus observations, so a
    /// diurnal trough must persist before the fleet shrinks and brief
    /// lulls stop thrashing the provision/release cycle.
    fn hysteresis_tick(&mut self, ctx: &ElasticityContext<'_>) -> Vec<ElasticityAction> {
        let current = ctx.host_equivalents() + f64::from(ctx.hosts_in_flight);
        let target = f64::from(ctx.target_hosts());
        if current + 1e-9 < target {
            self.consecutive_surplus = 0;
            if ctx.now_s - self.last_scale_out_s >= HYSTERESIS_COOLDOWN_S {
                self.last_scale_out_s = ctx.now_s;
                return vec![ElasticityAction::ProvisionHosts {
                    shape: ResourceBundle::p3_16xlarge(),
                    count: (target - current).ceil() as u32,
                }];
            }
            Vec::new()
        } else if current > target + 1e-9 {
            self.consecutive_surplus += 1;
            if self.consecutive_surplus >= HYSTERESIS_SURPLUS_TICKS {
                let surplus = (current - target).floor() as u32;
                return retire_candidates(ctx, surplus);
            }
            Vec::new()
        } else {
            self.consecutive_surplus = 0;
            Vec::new()
        }
    }
}

/// Seeds the pre-warm pool at time zero: `min_per_host` warm containers on
/// every host (§3.2.3's Container Prewarmer invariant).
pub(crate) fn seed_prewarm_pool(pool: &mut PrewarmPool, cluster: &Cluster, min_per_host: u32) {
    for host in cluster.hosts() {
        for _ in 0..min_per_host {
            pool.put(host.id());
        }
    }
}

/// The per-step release cap and the `min_hosts` floor: how many hosts a
/// tick may retire whatever the surplus. 0 on a fleet pinned at its floor,
/// where the scale-in arms return without looking for idle hosts.
fn release_budget(ctx: &ElasticityContext<'_>) -> u32 {
    let cfg = ctx.autoscale;
    cfg.max_release_per_step
        .min((ctx.cluster.len() as u32).saturating_sub(cfg.min_hosts))
}

/// Scale-in candidates shared by `Threshold` and `Hysteresis`: idle
/// hosts in ascending-id order, bounded by the per-step release cap and
/// the `min_hosts` floor — exactly the pre-elasticity platform's rule.
/// The slab walk stops at the cap.
fn retire_candidates(ctx: &ElasticityContext<'_>, surplus_hosts: u32) -> Vec<ElasticityAction> {
    let releasable = surplus_hosts.min(release_budget(ctx));
    ctx.cluster
        .hosts()
        .iter()
        .filter(|h| h.is_idle())
        .take(releasable as usize)
        .map(|h| ElasticityAction::RetireHost { host: h.id() })
        .collect()
}

/// The §3.4.2 threshold controller. Targets are computed in
/// host-equivalents of the reference p3.16xlarge and scale-out always
/// provisions that shape — exactly the pre-elasticity platform behavior,
/// bit-identical on homogeneous fleets.
fn threshold_tick(ctx: &ElasticityContext<'_>) -> Vec<ElasticityAction> {
    let current = ctx.host_equivalents() + f64::from(ctx.hosts_in_flight);
    let target = f64::from(ctx.target_hosts());
    if current + 1e-9 < target {
        vec![ElasticityAction::ProvisionHosts {
            shape: ResourceBundle::p3_16xlarge(),
            count: (target - current).ceil() as u32,
        }]
    } else if current > target + 1e-9 {
        let surplus = (current - target).floor() as u32;
        // Pre-elasticity order: ascending host id (idle_hosts order).
        retire_candidates(ctx, surplus)
    } else {
        Vec::new()
    }
}

/// Shape-aware scaling: the target is the same §3.4.2 host-equivalent
/// formula, but the GPUs that fill it come from the cheapest catalog
/// shapes that satisfy the queued demand — small kernels pull in 4-GPU
/// boxes, 8-GPU kernels pull in full trainers — so a mixed fleet grows
/// along its mix instead of monoculture p3.16xlarge additions.
fn shape_aware_tick(ctx: &ElasticityContext<'_>) -> Vec<ElasticityAction> {
    let ref_gpus = u64::from(ctx.reference_gpus());
    let target_gpus = u64::from(ctx.target_hosts()) * ref_gpus;
    let current_gpus = ctx.cluster.total_gpus() + ctx.gpus_in_flight;
    if current_gpus < target_gpus {
        plan_gpus(ctx, target_gpus - current_gpus)
            .into_iter()
            .filter(|&(_, count)| count > 0)
            .map(|(shape, count)| ElasticityAction::ProvisionHosts { shape, count })
            .collect()
    } else if current_gpus > target_gpus {
        // Retire the largest idle shapes first (the fastest way to
        // shed host-equivalents, ties broken by ascending id), but
        // budget in GPUs, never past the target: releasing a host
        // bigger than the remaining surplus would undershoot the
        // fleet and make the next tick re-provision — exactly the
        // churn this policy exists to avoid.
        let mut host_budget = release_budget(ctx);
        if host_budget == 0 {
            return Vec::new();
        }
        let mut surplus_gpus = current_gpus - target_gpus;
        let mut idle: Vec<_> = ctx
            .cluster
            .hosts()
            .iter()
            .filter(|h| h.is_idle())
            .map(|h| (std::cmp::Reverse(h.capacity().gpus), h.id()))
            .collect();
        idle.sort_unstable();
        let mut actions = Vec::new();
        for (std::cmp::Reverse(gpus), host) in idle {
            if host_budget == 0 {
                break;
            }
            let gpus = u64::from(gpus);
            if gpus == 0 || gpus > surplus_gpus {
                continue; // this shape would overshoot; try a smaller one
            }
            surplus_gpus -= gpus;
            host_budget -= 1;
            actions.push(ElasticityAction::RetireHost { host });
        }
        actions
    } else {
        Vec::new()
    }
}

/// Plans enough hosts to add `deficit_gpus` GPUs, as per-shape host
/// counts in first-use order: first one covering host per queued request
/// (largest requests first, so big kernels get big hosts), then the
/// smallest shape fills the remainder.
fn plan_gpus(ctx: &ElasticityContext<'_>, deficit_gpus: u64) -> Vec<(ResourceBundle, u32)> {
    let mut remaining = deficit_gpus as i64;
    let mut plan: Vec<(ResourceBundle, u32)> = Vec::new();
    let mut add = |shape: ResourceBundle, count: u32| {
        if let Some(slot) = plan.iter_mut().find(|(s, _)| *s == shape) {
            slot.1 += count;
        } else {
            plan.push((shape, count));
        }
    };
    let mut queued: Vec<&ResourceRequest> = ctx.queued_demand.iter().collect();
    queued.sort_by_key(|r| std::cmp::Reverse(r.gpus));
    for request in queued {
        if remaining <= 0 {
            break;
        }
        let shape = ctx.cheapest_covering_shape(request);
        add(shape, 1);
        remaining -= i64::from(shape.gpus.max(1));
    }
    if remaining > 0 {
        let filler = ctx.smallest_shape();
        let per = i64::from(filler.gpus.max(1));
        let count = remaining.div_euclid(per) + i64::from(remaining % per != 0);
        add(filler, count as u32);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threshold() -> Elasticity {
        Elasticity::new(ElasticityKind::Threshold)
    }

    fn shape_aware() -> Elasticity {
        Elasticity::new(ElasticityKind::ShapeAware)
    }

    fn small_shape() -> ResourceBundle {
        ResourceBundle::new(32_000, 249_856, 4)
    }

    struct Fixture {
        cluster: Cluster,
        autoscale: AutoscaleConfig,
        catalog: Vec<ResourceBundle>,
        queued: Vec<ResourceRequest>,
    }

    impl Fixture {
        fn homogeneous(hosts: usize) -> Self {
            Fixture {
                cluster: Cluster::with_hosts(hosts, ResourceBundle::p3_16xlarge()),
                autoscale: AutoscaleConfig {
                    min_hosts: 2,
                    scaling_buffer_hosts: 0,
                    ..AutoscaleConfig::default()
                },
                catalog: vec![ResourceBundle::p3_16xlarge()],
                queued: Vec::new(),
            }
        }

        fn heterogeneous() -> Self {
            let mut f = Fixture::homogeneous(0);
            f.cluster =
                Cluster::with_host_mix(&[(ResourceBundle::p3_16xlarge(), 2), (small_shape(), 2)]);
            f.catalog = vec![small_shape(), ResourceBundle::p3_16xlarge()];
            f
        }

        fn ctx(
            &self,
            hosts_in_flight: u32,
            gpus_in_flight: u64,
            now_s: f64,
        ) -> ElasticityContext<'_> {
            ElasticityContext {
                cluster: &self.cluster,
                autoscale: &self.autoscale,
                sr_target: None,
                shape_catalog: &self.catalog,
                hosts_in_flight,
                gpus_in_flight,
                queued_demand: &self.queued,
                now_s,
            }
        }
    }

    fn commit_gpus(cluster: &mut Cluster, host: HostId, owner: u64, gpus: u32) {
        let request = ResourceRequest::new(1000, 1024, gpus, 16);
        assert!(cluster.try_commit(host, owner, &request, &mut Vec::new()));
    }

    #[test]
    fn threshold_scales_out_on_committed_demand() {
        let mut f = Fixture::homogeneous(2);
        // 16 committed GPUs on 2 hosts → target ceil(1.05·16/8) = 3 hosts.
        commit_gpus(&mut f.cluster, 0, 1, 8);
        commit_gpus(&mut f.cluster, 1, 2, 8);
        let actions = threshold().on_tick(&f.ctx(0, 0, 0.0));
        assert_eq!(
            actions,
            vec![ElasticityAction::ProvisionHosts {
                shape: ResourceBundle::p3_16xlarge(),
                count: 1
            }]
        );
        // In-flight hosts count toward the fleet: no double provision.
        assert!(threshold().on_tick(&f.ctx(1, 8, 0.0)).is_empty());
    }

    #[test]
    fn threshold_retires_idle_surplus_only() {
        let mut f = Fixture::homogeneous(5);
        f.autoscale.max_release_per_step = 2;
        // Nothing committed → target = min_hosts = 2, surplus 3, capped at 2
        // releases; host 0 is busy so only idle hosts are offered.
        commit_gpus(&mut f.cluster, 0, 1, 4);
        let actions = threshold().on_tick(&f.ctx(0, 0, 0.0));
        assert_eq!(
            actions,
            vec![
                ElasticityAction::RetireHost { host: 1 },
                ElasticityAction::RetireHost { host: 2 }
            ]
        );
    }

    #[test]
    fn threshold_shortfall_provisions_reference_hosts() {
        let f = Fixture::homogeneous(2);
        let shortfall = DemandShortfall {
            replicas: 2,
            request: ResourceRequest::one_gpu(),
        };
        let actions = threshold().on_shortfall(&f.ctx(0, 0, 0.0), shortfall);
        assert_eq!(
            actions,
            vec![ElasticityAction::ProvisionHosts {
                shape: ResourceBundle::p3_16xlarge(),
                count: 2
            }]
        );
    }

    #[test]
    fn shape_aware_picks_cheapest_covering_shape() {
        let f = Fixture::heterogeneous();
        let ctx = f.ctx(0, 0, 0.0);
        assert_eq!(
            ctx.cheapest_covering_shape(&ResourceRequest::one_gpu()),
            small_shape()
        );
        let big = ResourceRequest::new(4000, 16_384, 8, 16);
        assert_eq!(
            ctx.cheapest_covering_shape(&big),
            ResourceBundle::p3_16xlarge()
        );
        let actions = shape_aware().on_shortfall(
            &ctx,
            DemandShortfall {
                replicas: 3,
                request: ResourceRequest::one_gpu(),
            },
        );
        assert_eq!(
            actions,
            vec![ElasticityAction::ProvisionHosts {
                shape: small_shape(),
                count: 3
            }]
        );
    }

    #[test]
    fn shape_aware_tick_fills_deficit_from_queued_demand() {
        let mut f = Fixture::heterogeneous();
        // Commit every GPU so the target balloons: 24 committed GPUs →
        // ceil(1.05·24/8) = 4 reference hosts = 32 GPUs vs 24 current.
        commit_gpus(&mut f.cluster, 0, 1, 8);
        commit_gpus(&mut f.cluster, 1, 2, 8);
        commit_gpus(&mut f.cluster, 2, 3, 4);
        commit_gpus(&mut f.cluster, 3, 4, 4);
        f.queued = vec![
            ResourceRequest::new(4000, 16_384, 8, 16),
            ResourceRequest::one_gpu(),
        ];
        let actions = shape_aware().on_tick(&f.ctx(0, 0, 0.0));
        // Deficit 8 GPUs: the queued 8-GPU kernel pulls one full trainer
        // first, covering the deficit before the 1-GPU request is reached.
        assert_eq!(
            actions,
            vec![ElasticityAction::ProvisionHosts {
                shape: ResourceBundle::p3_16xlarge(),
                count: 1
            }]
        );
    }

    #[test]
    fn shape_aware_fills_residual_deficit_with_smallest_shape() {
        let mut f = Fixture::heterogeneous();
        commit_gpus(&mut f.cluster, 0, 1, 8);
        commit_gpus(&mut f.cluster, 1, 2, 8);
        commit_gpus(&mut f.cluster, 2, 3, 4);
        commit_gpus(&mut f.cluster, 3, 4, 4);
        // No queued demand: the 8-GPU deficit is filled with 4-GPU boxes.
        let actions = shape_aware().on_tick(&f.ctx(0, 0, 0.0));
        assert_eq!(
            actions,
            vec![ElasticityAction::ProvisionHosts {
                shape: small_shape(),
                count: 2
            }]
        );
    }

    #[test]
    fn shape_aware_retires_largest_idle_first() {
        let mut f = Fixture::heterogeneous();
        f.autoscale.max_release_per_step = 1;
        // Fleet: hosts 0,1 are 8-GPU, hosts 2,3 are 4-GPU; all idle.
        // Target = min_hosts(2) × 8 = 16 GPUs, current 24 → surplus 1
        // equivalent → retire one host, the largest idle one.
        let actions = shape_aware().on_tick(&f.ctx(0, 0, 0.0));
        assert_eq!(actions, vec![ElasticityAction::RetireHost { host: 0 }]);
    }

    #[test]
    fn shape_aware_never_retires_past_the_target() {
        // Fleet: 2×8-GPU + 1×4-GPU, all idle, 20 GPUs total. Target is
        // min_hosts(2) × 8 = 16 GPUs → surplus 4. Releasing either 8-GPU
        // trainer would undershoot the target and trigger re-provision
        // churn, so the policy must skip them and retire the 4-GPU box.
        let mut f = Fixture::heterogeneous();
        f.cluster =
            Cluster::with_host_mix(&[(ResourceBundle::p3_16xlarge(), 2), (small_shape(), 1)]);
        let actions = shape_aware().on_tick(&f.ctx(0, 0, 0.0));
        assert_eq!(actions, vec![ElasticityAction::RetireHost { host: 2 }]);
        // When the 4-GPU box is busy, only the 8-GPU trainers are idle —
        // and both exceed the 4-GPU surplus, so nothing is released
        // rather than undershooting the target.
        // One committed GPU keeps the target at min_hosts (ceil(1.05/8)
        // rounds to 1 < 2 reference hosts), so the surplus is still 4.
        commit_gpus(&mut f.cluster, 2, 1, 1);
        let actions = shape_aware().on_tick(&f.ctx(0, 0, 0.0));
        assert!(
            actions.is_empty(),
            "no idle shape fits the surplus: {actions:?}"
        );
    }

    #[test]
    fn hysteresis_damps_scale_in_and_rate_limits_scale_out() {
        let mut f = Fixture::homogeneous(5);
        let mut policy = Elasticity::new(ElasticityKind::Hysteresis);
        // Surplus must persist for 4 ticks before anything is released.
        assert!(policy.on_tick(&f.ctx(0, 0, 0.0)).is_empty());
        assert!(policy.on_tick(&f.ctx(0, 0, 30.0)).is_empty());
        assert!(policy.on_tick(&f.ctx(0, 0, 60.0)).is_empty());
        let released = policy.on_tick(&f.ctx(0, 0, 90.0));
        assert!(
            !released.is_empty(),
            "fourth consecutive surplus tick releases"
        );
        assert_eq!(policy.consecutive_surplus, HYSTERESIS_SURPLUS_TICKS);

        // A deficit resets the damping counter and scales out at once…
        commit_gpus(&mut f.cluster, 0, 1, 8);
        commit_gpus(&mut f.cluster, 1, 2, 8);
        commit_gpus(&mut f.cluster, 2, 3, 8);
        commit_gpus(&mut f.cluster, 3, 4, 8);
        commit_gpus(&mut f.cluster, 4, 5, 8);
        let out = policy.on_tick(&f.ctx(0, 0, 120.0));
        assert!(matches!(
            out.as_slice(),
            [ElasticityAction::ProvisionHosts { .. }]
        ));
        assert_eq!(policy.consecutive_surplus, 0);
        // …but a second deficit tick inside the cooldown stays quiet.
        assert!(policy.on_tick(&f.ctx(0, 0, 150.0)).is_empty());
        // After the cooldown expires the policy provisions again.
        let later = 120.0 + HYSTERESIS_COOLDOWN_S + 1.0;
        assert!(!policy.on_tick(&f.ctx(0, 0, later)).is_empty());
    }

    #[test]
    fn hysteresis_shortfall_ignores_cooldown() {
        let f = Fixture::homogeneous(2);
        let mut policy = Elasticity::new(ElasticityKind::Hysteresis);
        let shortfall = DemandShortfall {
            replicas: 1,
            request: ResourceRequest::one_gpu(),
        };
        assert!(!policy.on_shortfall(&f.ctx(0, 0, 0.0), shortfall).is_empty());
        assert!(!policy.on_shortfall(&f.ctx(0, 0, 1.0), shortfall).is_empty());
    }

    #[test]
    fn seed_prewarm_fills_every_host() {
        let cluster = Cluster::with_hosts(3, ResourceBundle::p3_16xlarge());
        let mut pool = PrewarmPool::new();
        seed_prewarm_pool(&mut pool, &cluster, 2);
        for host in cluster.hosts() {
            assert_eq!(pool.warm_on(host.id()), 2);
        }
    }
}
