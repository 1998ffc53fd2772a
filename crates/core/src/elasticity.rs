//! The auto-scaler of §3.4.2, as stateless functions over an
//! [`ElasticityContext`] — a read-only snapshot of the fleet — answering
//! with [`ElasticityAction`]s that [`crate::Platform`] applies (charging
//! provisioning latencies, retiring idle hosts, updating gauges).
//!
//! The controller targets `ΣG' = f · ΣC` (plus the SR backing term) in
//! host-equivalents of the reference p3.16xlarge, and scale-out always
//! provisions that shape. On homogeneous fleets it is bit-identical to the
//! platform before the auto-scaler was pulled out of it — the golden
//! regression tests in `tests/elasticity_properties.rs` lock that in.
//!
//! Decisions are pure: they never draw randomness and never mutate the
//! fleet. All stochastic costs (VM provision latency, warm container
//! starts) are charged by the platform when it applies the actions.

use notebookos_cluster::{Cluster, HostId, PrewarmPool, ResourceBundle};

use crate::config::AutoscaleConfig;
use crate::platform::REPLICATION_FACTOR;

/// The aggressiveness multiplier `f` in the scale-out target
/// `ΣG' = f · ΣC` (§3.4.2: 1.05).
const SCALE_OUT_MULTIPLIER: f64 = 1.05;

/// One scaling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ElasticityAction {
    /// Provision this many p3.16xlarge hosts; each arrives after a
    /// provisioning delay and then joins the fleet.
    ProvisionHosts(u32),
    /// Remove one idle host from the fleet, discarding its warm containers
    /// (the platform skips it if it is no longer idle).
    RetireHost(HostId),
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
    /// Hosts currently being provisioned.
    pub(crate) hosts_in_flight: u32,
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

/// The periodic evaluation (§3.4.2's auto-scaler interval). Below the
/// target it provisions the missing reference hosts (in-flight ones
/// count); above it, it retires idle hosts in ascending-id order, bounded
/// by the per-step release cap and the `min_hosts` floor.
pub(crate) fn on_tick(ctx: &ElasticityContext<'_>) -> Vec<ElasticityAction> {
    let current = ctx.host_equivalents() + f64::from(ctx.hosts_in_flight);
    let target = f64::from(ctx.target_hosts());
    if current + 1e-9 < target {
        vec![ElasticityAction::ProvisionHosts(
            (target - current).ceil() as u32
        )]
    } else if current > target + 1e-9 {
        let surplus = (current - target).floor() as u32;
        let cfg = ctx.autoscale;
        let releasable = surplus
            .min(cfg.max_release_per_step)
            .min((ctx.cluster.len() as u32).saturating_sub(cfg.min_hosts));
        // The slab walk stops at the cap.
        ctx.cluster
            .hosts()
            .iter()
            .filter(|h| h.is_idle())
            .take(releasable as usize)
            .map(|h| ElasticityAction::RetireHost(h.id()))
            .collect()
    } else {
        Vec::new()
    }
}

/// A kernel creation (or migration / LCP placement) found no viable host
/// for `replicas` of its replica subscriptions: provision one reference
/// host per unplaced replica at once.
pub(crate) fn on_shortfall(replicas: u32) -> ElasticityAction {
    ElasticityAction::ProvisionHosts(replicas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use notebookos_cluster::ResourceRequest;

    struct Fixture {
        cluster: Cluster,
        autoscale: AutoscaleConfig,
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
            }
        }

        fn ctx(&self, hosts_in_flight: u32) -> ElasticityContext<'_> {
            ElasticityContext {
                cluster: &self.cluster,
                autoscale: &self.autoscale,
                sr_target: None,
                hosts_in_flight,
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
        assert_eq!(
            on_tick(&f.ctx(0)),
            vec![ElasticityAction::ProvisionHosts(1)]
        );
        // In-flight hosts count toward the fleet: no double provision.
        assert!(on_tick(&f.ctx(1)).is_empty());
    }

    #[test]
    fn threshold_retires_idle_surplus_only() {
        let mut f = Fixture::homogeneous(5);
        f.autoscale.max_release_per_step = 2;
        // Nothing committed → target = min_hosts = 2, surplus 3, capped at 2
        // releases; host 0 is busy so only idle hosts are offered.
        commit_gpus(&mut f.cluster, 0, 1, 4);
        assert_eq!(
            on_tick(&f.ctx(0)),
            vec![
                ElasticityAction::RetireHost(1),
                ElasticityAction::RetireHost(2)
            ]
        );
    }

    #[test]
    fn threshold_shortfall_provisions_reference_hosts() {
        assert_eq!(on_shortfall(2), ElasticityAction::ProvisionHosts(2));
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
