//! Replica placement (§3.4.1): the paper's one rule, least-loaded under
//! the dynamic SR cap.
//!
//! [`PlacementPolicy::rank_top_into`] ranks through the cluster's
//! placement index without scanning the fleet: the scheduler only ever
//! consumes the first `R` hosts and the viable total, the caller owns the
//! output buffer and [`LeastLoaded`] owns its scratch, so the per-placement
//! steady state performs no heap allocation. [`scan_rank`] is the
//! full-scan reference the test suites hold the indexed ranking to.

use notebookos_cluster::{Cluster, HostId, RankScratch, ResourceRequest, Viability};

/// Context handed to a placement decision.
#[derive(Debug)]
pub struct PlacementContext<'a> {
    /// The cluster as the Global Scheduler sees it.
    pub cluster: &'a Cluster,
    /// The kernel's resource request.
    pub request: &'a ResourceRequest,
    /// Replicas per kernel (`R`).
    pub replication_factor: u32,
}

impl PlacementContext<'_> {
    /// The effective SR cap placement screens against: the dynamic
    /// cluster-wide limit, floored at 1.0 so an empty cluster can
    /// still accept its first kernels (§3.4.1).
    pub fn sr_cap(&self) -> f64 {
        self.cluster.sr_limit(self.replication_factor).max(1.0)
    }

    /// The viability screen ([`Cluster::viable_hosts_into`]) under this
    /// context's SR cap, refilling a caller-owned buffer: the set
    /// [`PlacementPolicy::rank_top_into`] ranks, split where the SR cap
    /// puts a host behind every admitted one.
    pub fn viable_into(&self, out: &mut Viability) {
        self.cluster
            .viable_hosts_into(self.request, self.replication_factor, self.sr_cap(), out);
    }

    /// The screen's total `len()` without materializing the host lists —
    /// served from the placement index's per-class live counts
    /// ([`Cluster::viable_count`], O(shape classes)). The SR cap only
    /// splits the set into preference segments, so the total is
    /// cap-independent; gauges and screen paths that only need "how many
    /// hosts could take this kernel" should call this instead of paying
    /// the O(hosts) scan.
    #[cfg(test)]
    pub(crate) fn viable_count(&self) -> usize {
        self.cluster.viable_count(self.request)
    }

    /// The `(within_cap, over_cap)` segment lengths of the screen without
    /// materializing the host lists ([`Cluster::viable_counts`]):
    /// homogeneous shape classes resolve from their extreme subscribed
    /// levels, so
    /// screen users that only need the split — SR-pressure gauges,
    /// shortfall diagnostics — skip the O(hosts) scan entirely.
    #[cfg(test)]
    pub(crate) fn viable_counts(&self) -> (usize, usize) {
        self.cluster
            .viable_counts(self.request, self.replication_factor, self.sr_cap())
    }
}

/// Ranks candidate hosts for one replica subscription. [`LeastLoaded`] is
/// its one implementation; the trait stays because the perf ledger
/// (`benchmark/`) ranks through it.
pub trait PlacementPolicy: std::fmt::Debug {
    /// Writes the best `limit` hosts able to take the subscription into
    /// `out` (cleared first), best first, and returns the *total* number
    /// of viable hosts — everything the scheduler consumes per placement
    /// (`R` hosts plus the shortfall count when fewer exist). The ranking
    /// covers the viability screen ([`PlacementContext::viable_into`]):
    /// capacity covers the request, and SR-cap-forbidden hosts never rank
    /// ahead of allowed ones. A caller that reuses `out` ranks without
    /// allocating.
    fn rank_top_into(
        &mut self,
        ctx: &PlacementContext<'_>,
        limit: usize,
        out: &mut Vec<HostId>,
    ) -> usize;
}

/// Places one kernel's `r` replica subscriptions (§3.2.1): ranks the top
/// `r` hosts for `request` into `out` and, when `r` exist, subscribes
/// each. Fewer viable hosts subscribe nothing and return the viable total,
/// for the caller's shortfall path. The one placement step the DES
/// platform and [`crate::GatewayProvisioner`] share.
pub(crate) fn place_replicas(
    policy: &mut LeastLoaded,
    cluster: &mut Cluster,
    request: &ResourceRequest,
    r: u32,
    out: &mut Vec<HostId>,
) -> Result<(), usize> {
    // Top-R only: the index walks a few buckets without rescanning the
    // fleet, and the viable total covers the shortfall.
    let found = policy.rank_top_into(
        &PlacementContext {
            cluster,
            request,
            replication_factor: r,
        },
        r as usize,
        out,
    );
    if (found as u32) < r {
        return Err(found);
    }
    debug_assert_eq!(out.len(), r as usize, "top-R ranking is exact");
    for &host in out.iter() {
        let subscribed = cluster.subscribe(host, request);
        assert!(subscribed, "ranked host exists");
    }
    Ok(())
}

/// The full-scan reference for [`LeastLoaded`]: the complete ranking of
/// `ctx`, derived from a walk of the whole slab instead of the placement
/// index. The policy unit tests and `tests/index_equivalence.rs` hold
/// every `rank_top_into` to a prefix of this; nothing on a placement path
/// calls it.
pub fn scan_rank(ctx: &PlacementContext<'_>) -> Vec<HostId> {
    let mut out = Vec::new();
    ctx.cluster.subscription_candidates_into(
        ctx.request,
        ctx.replication_factor,
        ctx.sr_cap(),
        &mut RankScratch::default(),
        &mut out,
    );
    out
}

/// The paper's placement: most idle GPUs first, dynamic cluster-wide SR
/// cap as a soft preference (§3.4.1).
#[derive(Debug, Default)]
pub struct LeastLoaded {
    /// Decorated-key scratch reused across rankings.
    scratch: RankScratch,
}

impl PlacementPolicy for LeastLoaded {
    fn rank_top_into(
        &mut self,
        ctx: &PlacementContext<'_>,
        limit: usize,
        out: &mut Vec<HostId>,
    ) -> usize {
        ctx.cluster.rank_least_loaded_top(
            ctx.request,
            ctx.replication_factor,
            ctx.sr_cap(),
            limit,
            &mut self.scratch,
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use notebookos_cluster::ResourceBundle;

    fn cluster() -> Cluster {
        let mut c = Cluster::with_hosts(4, ResourceBundle::p3_16xlarge());
        // Host 0 heavily subscribed, host 3 untouched.
        for _ in 0..5 {
            assert!(c.subscribe(0, &ResourceRequest::one_gpu()));
        }
        assert!(c.subscribe(1, &ResourceRequest::one_gpu()));
        let four = ResourceRequest::new(1000, 1024, 4, 16);
        assert!(c.try_commit(2, 9, &four, &mut Vec::new()));
        c
    }

    fn ctx<'a>(c: &'a Cluster, req: &'a ResourceRequest) -> PlacementContext<'a> {
        PlacementContext {
            cluster: c,
            request: req,
            replication_factor: 3,
        }
    }

    /// The materialized viability screen.
    fn viable(ctx: &PlacementContext<'_>) -> Viability {
        let mut out = Viability::default();
        ctx.viable_into(&mut out);
        out
    }

    /// The full least-loaded ranking through the one ranking method.
    fn rank_all(ctx: &PlacementContext<'_>) -> Vec<HostId> {
        let mut out = Vec::new();
        let total = LeastLoaded::default().rank_top_into(ctx, usize::MAX, &mut out);
        assert_eq!(total, out.len(), "viable total");
        out
    }

    #[test]
    fn viable_count_matches_materialized_screen() {
        // The indexed total must agree with the screen's `len()` everywhere the
        // screen's filters bite: mixed shapes, a removed host, and hosts
        // pushed over the SR cap (which moves them between segments but
        // never out of the set).
        let mut c = cluster();
        c.add_host(ResourceBundle::new(8_000, 32_768, 0)); // CPU-only, id 4
        for _ in 0..30 {
            assert!(c.subscribe(1, &ResourceRequest::one_gpu())); // far over the cap
        }
        assert!(c.remove_host(3).is_some());
        for req in [
            ResourceRequest::one_gpu(),
            ResourceRequest::new(4000, 16_384, 4, 16),
            ResourceRequest::new(1000, 2_048, 0, 0),
            ResourceRequest::new(1_000_000, 1, 0, 0), // nothing covers
        ] {
            let context = ctx(&c, &req);
            let v = viable(&context);
            assert_eq!(context.viable_count(), v.len(), "request {req:?}");
            assert_eq!(
                context.viable_counts(),
                (v.within_cap.len(), v.over_cap.len()),
                "split for request {req:?}"
            );
        }
    }

    #[test]
    fn least_loaded_prefers_idle_hosts() {
        let c = cluster();
        let req = ResourceRequest::one_gpu();
        let ranked = rank_all(&ctx(&c, &req));
        // Hosts 0, 1, 3 all have 8 idle GPUs; host 2 has 4 committed.
        assert_eq!(*ranked.last().unwrap(), 2);
        assert_eq!(ranked.len(), 4);
    }

    #[test]
    fn rank_into_refills_a_reused_buffer() {
        let c = cluster();
        let req = ResourceRequest::one_gpu();
        let mut out = vec![99, 99, 99, 99, 99, 99];
        LeastLoaded::default().rank_top_into(&ctx(&c, &req), usize::MAX, &mut out);
        assert_eq!(out.len(), 4, "buffer refilled, not appended");
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn all_policies_rank_sr_capped_hosts_last() {
        // Host 0 subscribed far beyond the SR cap; hosts 1 and 2 idle.
        let mut c = Cluster::with_hosts(3, ResourceBundle::p3_16xlarge());
        let req = ResourceRequest::new(4000, 16_384, 4, 16);
        for _ in 0..30 {
            assert!(c.subscribe(0, &req));
        }
        let context = ctx(&c, &req);
        assert_eq!(viable(&context).over_cap, vec![0], "host 0 is over the cap");
        let ranked = rank_all(&context);
        assert_eq!(ranked.len(), 3, "all hosts stay usable");
        assert_eq!(*ranked.last().unwrap(), 0, "the SR-capped host ranks last");
    }

    #[test]
    fn oversized_requests_yield_no_hosts() {
        let c = cluster();
        let req = ResourceRequest::new(1000, 1024, 99, 16);
        assert!(rank_all(&ctx(&c, &req)).is_empty());
    }

    #[test]
    fn rank_top_into_is_the_rank_prefix_for_every_policy() {
        let mut c = cluster();
        c.add_host(ResourceBundle::new(32_000, 249_856, 4)); // id 4, smaller shape
        for _ in 0..20 {
            assert!(c.subscribe(1, &ResourceRequest::one_gpu())); // push host 1 over the cap
        }
        let req = ResourceRequest::one_gpu();
        let full = scan_rank(&ctx(&c, &req));
        let mut policy = LeastLoaded::default();
        let mut top = Vec::new();
        for limit in [0usize, 1, 3, 5, 8] {
            let total = policy.rank_top_into(&ctx(&c, &req), limit, &mut top);
            assert_eq!(total, full.len(), "total viable");
            assert_eq!(
                top,
                full[..limit.min(full.len())],
                "top-{limit} equals the rank prefix"
            );
        }
    }
}
