//! Pluggable replica-placement policies (§3.4.1).
//!
//! "NotebookOS is designed to be highly modular. The system can support
//! arbitrary resource scheduling policies, and implementing support for a
//! new policy is accomplished by implementing a simple interface." This is
//! that interface, plus four implementations: the paper's default
//! (least-loaded with the dynamic SR cap), round-robin, bin-packing, and
//! seeded-random.
//!
//! The interface ranks through one method,
//! [`PlacementPolicy::rank_top_into`]: the scheduler only ever consumes the
//! first `R` hosts and the viable total, the caller owns the output buffer
//! and each policy owns whatever scratch its ordering needs, so the
//! per-placement steady state performs no heap allocation. The indexed
//! policies answer from the cluster's placement index without scanning the
//! fleet; [`scan_rank`] is the full-scan reference their orderings are
//! held to by the test suites.

use notebookos_cluster::{Cluster, HostId, RankScratch, ResourceRequest, Viability};
use notebookos_des::SimRng;

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
    /// The effective SR cap every bundled policy screens against: the
    /// dynamic cluster-wide limit, floored at 1.0 so an empty cluster can
    /// still accept its first kernels (§3.4.1).
    pub fn sr_cap(&self) -> f64 {
        self.cluster.sr_limit(self.replication_factor).max(1.0)
    }

    /// The shared viability screen ([`Cluster::viable_hosts_into`]) under
    /// this context's SR cap, refilling a caller-owned buffer. All bundled
    /// policies rank this same set, so no baseline prefers a host the SR
    /// cap forbids.
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

/// A replica-placement policy: ranks candidate hosts for one replica
/// subscription. The scheduler takes the first `R` distinct hosts and
/// reports them back via [`PlacementPolicy::placed`].
pub trait PlacementPolicy: std::fmt::Debug {
    /// Human-readable policy name.
    fn name(&self) -> &'static str;

    /// Writes the best `limit` hosts able to take the subscription into
    /// `out` (cleared first), best first, and returns the *total* number
    /// of viable hosts — everything the scheduler consumes per placement
    /// (`R` hosts plus the shortfall count when fewer exist).
    /// Implementations must rank the shared viability screen
    /// ([`PlacementContext::viable_into`]): capacity covers the request,
    /// and SR-cap-forbidden hosts never ahead of allowed ones. Ranking must not consume rotation state — fairness
    /// feedback arrives through [`PlacementPolicy::placed`].
    /// Implementations keep their own scratch, so a caller that reuses
    /// `out` ranks without allocating.
    fn rank_top_into(
        &mut self,
        ctx: &PlacementContext<'_>,
        limit: usize,
        out: &mut Vec<HostId>,
    ) -> usize;

    /// The scheduler consumed these hosts (in ranking order) for one
    /// placement of `R` replicas. Stateful policies advance their rotation
    /// past the *last consumed* host here; ranking alone must not rotate,
    /// or an `R`-replica placement would advance the cursor by one host
    /// and re-offer the other `R - 1` to the next kernel.
    fn placed(&mut self, consumed: &[HostId]) {
        let _ = consumed;
    }
}

/// Places one kernel's `r` replica subscriptions (§3.2.1): ranks the top
/// `r` hosts for `request` into `out` and, when `r` exist, reports them to
/// `policy` and subscribes each. Fewer viable hosts subscribe nothing and
/// return the viable total, for the caller's shortfall path. The one
/// placement step the DES platform and [`crate::GatewayProvisioner`]
/// share.
pub(crate) fn place_replicas<P: PlacementPolicy + ?Sized>(
    policy: &mut P,
    cluster: &mut Cluster,
    request: &ResourceRequest,
    r: u32,
    out: &mut Vec<HostId>,
) -> Result<(), usize> {
    // Top-R only: the indexed policies walk a few index buckets without
    // rescanning the fleet, and the viable total covers the shortfall.
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
    // Report the consumed hosts so stateful policies (RoundRobin) rotate
    // past the whole placement — ranking itself is pure.
    policy.placed(out);
    for &host in out.iter() {
        let subscribed = cluster.subscribe(host, request);
        assert!(subscribed, "ranked host exists");
    }
    Ok(())
}

/// The full-scan reference for the indexed policies: the complete ranking
/// `policy` (a [`PlacementPolicy::name`]) gives `ctx`, derived from a walk
/// of the whole slab instead of the placement index. `last` is the
/// round-robin rotation point (the last host a placement consumed); the
/// other orderings ignore it. The policy unit tests and
/// `tests/index_equivalence.rs` hold every `rank_top_into` to a prefix of
/// this; nothing on a placement path calls it.
///
/// # Panics
///
/// Panics on a name other than `"least-loaded"`, `"round-robin"` or
/// `"bin-packing"` — [`RandomPlacement`] has no index to check: its
/// `rank_top_into` *is* the full scan.
pub fn scan_rank(policy: &str, ctx: &PlacementContext<'_>, last: Option<HostId>) -> Vec<HostId> {
    let mut out = Vec::new();
    if policy == "least-loaded" {
        ctx.cluster.subscription_candidates_into(
            ctx.request,
            ctx.replication_factor,
            ctx.sr_cap(),
            &mut RankScratch::default(),
            &mut out,
        );
        return out;
    }
    let mut viable = Viability::default();
    ctx.viable_into(&mut viable);
    for ids in [&viable.within_cap, &viable.over_cap] {
        match policy {
            // The ascending-id segment rotated to start at the first id
            // strictly after `last` (wrapping to the lowest id).
            "round-robin" => {
                let pivot = last.map_or(0, |last| ids.partition_point(|&h| h <= last));
                out.extend_from_slice(&ids[pivot..]);
                out.extend_from_slice(&ids[..pivot]);
            }
            // Most subscribed, then most committed, then highest id.
            "bin-packing" => {
                let mut keyed: Vec<(u64, u64, HostId)> = ids
                    .iter()
                    .map(|&id| {
                        let h = ctx.cluster.host(id).expect("viable host exists");
                        (h.subscribed_gpus(), u64::from(h.committed_gpus()), id)
                    })
                    .collect();
                keyed.sort_by(|a, b| b.cmp(a));
                out.extend(keyed.iter().map(|&(_, _, id)| id));
            }
            other => panic!("no scan reference for placement policy `{other}`"),
        }
    }
    out
}

/// The paper's default: most idle GPUs first, dynamic cluster-wide SR cap
/// as a soft preference (§3.4.1).
#[derive(Debug, Default)]
pub struct LeastLoaded {
    /// Decorated-key scratch reused across rankings.
    scratch: RankScratch,
}

impl PlacementPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

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

/// Round-robin over host ids, skipping hosts the shared viability screen
/// rejects. The rotation point is the *last host id the scheduler
/// actually consumed* (reported via [`PlacementPolicy::placed`]), not a
/// raw call counter and not merely the first ranked host: an `R`-replica
/// placement consumes `R` hosts, so the next kernel starts after all of
/// them. Anchoring on a host id (rather than an index) survives hosts
/// joining, leaving, or filling up without jumping arbitrarily.
#[derive(Debug, Default)]
pub struct RoundRobin {
    /// The last host id a placement consumed; the next ranking resumes at
    /// the first viable id after it (wrapping).
    last: Option<HostId>,
    /// Over-cap candidates gathered by the indexed top-k walk, reused.
    over_scratch: Vec<HostId>,
}

impl PlacementPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn rank_top_into(
        &mut self,
        ctx: &PlacementContext<'_>,
        limit: usize,
        out: &mut Vec<HostId>,
    ) -> usize {
        ctx.cluster.rank_round_robin_top(
            ctx.request,
            ctx.replication_factor,
            ctx.sr_cap(),
            self.last,
            limit,
            &mut self.over_scratch,
            out,
        )
    }

    fn placed(&mut self, consumed: &[HostId]) {
        // The consumed prefix is in rotated ranking order, so its last
        // element — not its maximum — is where the rotation stopped
        // (a wrapped placement like [3, 4, 0] resumes after 0, not 4).
        if let Some(&host) = consumed.last() {
            self.last = Some(host);
        }
    }
}

/// Bin-packing: most-subscribed viable host first, consolidating kernels
/// onto few servers (frees whole hosts for scale-in, at the cost of
/// contention). SR-cap-forbidden hosts still rank last.
#[derive(Debug, Default)]
pub struct BinPacking {
    /// Decorated `(subscribed, committed, id)` sort keys, reused.
    keyed: Vec<(u64, u64, HostId)>,
}

impl PlacementPolicy for BinPacking {
    fn name(&self) -> &'static str {
        "bin-packing"
    }

    fn rank_top_into(
        &mut self,
        ctx: &PlacementContext<'_>,
        limit: usize,
        out: &mut Vec<HostId>,
    ) -> usize {
        ctx.cluster.rank_bin_packing_top(
            ctx.request,
            ctx.replication_factor,
            ctx.sr_cap(),
            limit,
            &mut self.keyed,
            out,
        )
    }
}

/// Uniformly random viable host order (a sanity baseline for ablations).
///
/// Shuffles the whole screen and then truncates: a Fisher–Yates over only
/// the top `k` would consume a different RNG draw sequence than the full
/// shuffle and change every seeded simulation downstream.
#[derive(Debug)]
pub struct RandomPlacement {
    rng: SimRng,
    /// Viability scratch reused across rankings.
    viable: Viability,
}

impl RandomPlacement {
    /// Creates a seeded random policy.
    pub fn new(seed: u64) -> Self {
        RandomPlacement {
            rng: SimRng::seed(seed),
            viable: Viability::default(),
        }
    }

    /// Fisher–Yates over one segment with the policy's own stream.
    fn shuffle(rng: &mut SimRng, ids: &mut [HostId]) {
        for i in (1..ids.len()).rev() {
            let j = rng.index(i + 1);
            ids.swap(i, j);
        }
    }
}

impl PlacementPolicy for RandomPlacement {
    fn name(&self) -> &'static str {
        "random"
    }

    fn rank_top_into(
        &mut self,
        ctx: &PlacementContext<'_>,
        limit: usize,
        out: &mut Vec<HostId>,
    ) -> usize {
        ctx.viable_into(&mut self.viable);
        out.clear();
        // Shuffle per segment, keeping SR-cap-forbidden hosts behind
        // allowed ones — the same RNG draw sequence as shuffling two
        // standalone vectors.
        out.extend_from_slice(&self.viable.within_cap);
        let within = out.len();
        out.extend_from_slice(&self.viable.over_cap);
        Self::shuffle(&mut self.rng, &mut out[..within]);
        Self::shuffle(&mut self.rng, &mut out[within..]);
        let total = out.len();
        out.truncate(limit);
        total
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

    /// The policy's full ranking through its one ranking method.
    fn rank_all(policy: &mut dyn PlacementPolicy, ctx: &PlacementContext<'_>) -> Vec<HostId> {
        let mut out = Vec::new();
        let total = policy.rank_top_into(ctx, usize::MAX, &mut out);
        assert_eq!(total, out.len(), "{}: viable total", policy.name());
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
        let ranked = rank_all(&mut LeastLoaded::default(), &ctx(&c, &req));
        // Hosts 0, 1, 3 all have 8 idle GPUs; host 2 has 4 committed.
        assert_eq!(*ranked.last().unwrap(), 2);
        assert_eq!(ranked.len(), 4);
    }

    #[test]
    fn rank_into_refills_a_reused_buffer() {
        let c = cluster();
        let req = ResourceRequest::one_gpu();
        let mut out = vec![99, 99, 99, 99, 99, 99];
        let mut policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(LeastLoaded::default()),
            Box::new(RoundRobin::default()),
            Box::new(BinPacking::default()),
            Box::new(RandomPlacement::new(3)),
        ];
        for policy in &mut policies {
            policy.rank_top_into(&ctx(&c, &req), usize::MAX, &mut out);
            assert_eq!(
                out.len(),
                4,
                "{}: buffer refilled, not appended",
                policy.name()
            );
            let mut sorted = out.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "{}", policy.name());
        }
    }

    /// Ranks, then reports the first `r` hosts as consumed — what the
    /// scheduler does for one `R`-replica placement.
    fn place(rr: &mut RoundRobin, c: &Cluster, req: &ResourceRequest, r: usize) -> Vec<HostId> {
        let ranked = rank_all(rr, &ctx(c, req));
        let consumed: Vec<HostId> = ranked.into_iter().take(r).collect();
        rr.placed(&consumed);
        consumed
    }

    #[test]
    fn round_robin_rotates() {
        let c = cluster();
        let req = ResourceRequest::one_gpu();
        let mut rr = RoundRobin::default();
        let first = place(&mut rr, &c, &req, 1)[0];
        let second = place(&mut rr, &c, &req, 1)[0];
        assert_ne!(first, second, "cursor advances");
        // Ranking alone does not rotate — only consumption does.
        assert_eq!(
            rank_all(&mut rr, &ctx(&c, &req))[0],
            rank_all(&mut rr, &ctx(&c, &req))[0]
        );
        // Four single-host placements cycle back to the start.
        place(&mut rr, &c, &req, 1);
        let fourth_start = place(&mut rr, &c, &req, 1)[0];
        let fifth_start = place(&mut rr, &c, &req, 1)[0];
        assert_eq!(first, fifth_start);
        assert_ne!(fourth_start, fifth_start);
    }

    #[test]
    fn round_robin_resumes_after_last_host_despite_churn() {
        let mut c = Cluster::with_hosts(4, ResourceBundle::p3_16xlarge());
        let req = ResourceRequest::one_gpu();
        let mut rr = RoundRobin::default();
        assert_eq!(place(&mut rr, &c, &req, 1)[0], 0);
        // Host 0 leaves: the rotation resumes at 1. (The old raw-cursor
        // implementation computed `1 % 3` over [1, 2, 3] and jumped to 2,
        // starving host 1.)
        c.remove_host(0);
        assert_eq!(place(&mut rr, &c, &req, 1)[0], 1);
        // A host joins mid-rotation: id order continues unperturbed.
        c.add_host(ResourceBundle::p3_16xlarge()); // id 4
        assert_eq!(place(&mut rr, &c, &req, 1)[0], 2);
        // A host leaving just ahead of the cursor is skipped.
        assert!(c.remove_host(3).is_some());
        assert_eq!(place(&mut rr, &c, &req, 1)[0], 4);
        // Wraps to the lowest id after the highest.
        assert_eq!(place(&mut rr, &c, &req, 1)[0], 1);
        assert_eq!(place(&mut rr, &c, &req, 1)[0], 2);
        assert_eq!(place(&mut rr, &c, &req, 1)[0], 4);
    }

    #[test]
    fn round_robin_advances_past_all_consumed_replicas() {
        // Regression: with R = 3 the scheduler consumes three ranked
        // hosts, but the old implementation advanced the rotation by only
        // one, so consecutive kernels piled replicas onto overlapping host
        // sets (kernel 1 → {0,1,2}, kernel 2 → {1,2,3}, …) and high-id
        // hosts starved.
        let mut c = Cluster::with_hosts(5, ResourceBundle::p3_16xlarge());
        let req = ResourceRequest::one_gpu();
        let mut rr = RoundRobin::default();
        assert_eq!(place(&mut rr, &c, &req, 3), vec![0, 1, 2]);
        // The next kernel starts after the whole consumed prefix.
        assert_eq!(place(&mut rr, &c, &req, 3), vec![3, 4, 0]);
        // A wrapped placement resumes after its *last* host (0), not its
        // maximum (4).
        assert_eq!(place(&mut rr, &c, &req, 3), vec![1, 2, 3]);
        // Churn between placements: the last-consumed host itself leaves,
        // and the rotation still resumes at the next surviving id.
        c.remove_host(3);
        c.add_host(ResourceBundle::p3_16xlarge()); // id 5
        assert_eq!(place(&mut rr, &c, &req, 3), vec![4, 5, 0]);
        // Two full passes over 5 hosts with R = 3 touch every host the
        // same number of times (15 consumptions / 5 hosts = 3 each).
        let mut counts = std::collections::HashMap::new();
        for _ in 0..5 {
            for h in place(&mut rr, &c, &req, 3) {
                *counts.entry(h).or_insert(0u32) += 1;
            }
        }
        assert_eq!(counts.len(), 5, "every host served");
        assert!(
            counts.values().all(|&n| n == 3),
            "fair rotation: {counts:?}"
        );
    }

    #[test]
    fn all_policies_rank_sr_capped_hosts_last() {
        // Host 0 subscribed far beyond the SR cap; hosts 1 and 2 idle. The
        // old RoundRobin/BinPacking ranked purely on total capacity and
        // would happily put host 0 first.
        let mut c = Cluster::with_hosts(3, ResourceBundle::p3_16xlarge());
        let req = ResourceRequest::new(4000, 16_384, 4, 16);
        for _ in 0..30 {
            assert!(c.subscribe(0, &req));
        }
        let context = ctx(&c, &req);
        let forbidden = viable(&context).over_cap;
        assert_eq!(forbidden, vec![0], "host 0 is over the cap");
        let mut policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(LeastLoaded::default()),
            Box::new(RoundRobin::default()),
            Box::new(BinPacking::default()),
            Box::new(RandomPlacement::new(3)),
        ];
        for policy in &mut policies {
            let ranked = rank_all(policy.as_mut(), &context);
            assert_eq!(ranked.len(), 3, "{}: all hosts stay usable", policy.name());
            assert_eq!(
                *ranked.last().unwrap(),
                0,
                "{}: the SR-capped host ranks last",
                policy.name()
            );
        }
    }

    #[test]
    fn bin_packing_prefers_most_subscribed() {
        let c = cluster();
        let req = ResourceRequest::one_gpu();
        let ranked = rank_all(&mut BinPacking::default(), &ctx(&c, &req));
        assert_eq!(ranked[0], 0, "most subscribed host first");
    }

    #[test]
    fn random_is_seed_deterministic_and_complete() {
        let c = cluster();
        let req = ResourceRequest::one_gpu();
        let a = rank_all(&mut RandomPlacement::new(5), &ctx(&c, &req));
        let b = rank_all(&mut RandomPlacement::new(5), &ctx(&c, &req));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn oversized_requests_yield_no_hosts() {
        let c = cluster();
        let req = ResourceRequest::new(1000, 1024, 99, 16);
        assert!(rank_all(&mut LeastLoaded::default(), &ctx(&c, &req)).is_empty());
        assert!(rank_all(&mut RoundRobin::default(), &ctx(&c, &req)).is_empty());
        assert!(rank_all(&mut BinPacking::default(), &ctx(&c, &req)).is_empty());
        assert!(rank_all(&mut RandomPlacement::new(1), &ctx(&c, &req)).is_empty());
    }

    #[test]
    fn rank_top_into_is_the_rank_prefix_for_every_policy() {
        let mut c = cluster();
        c.add_host(ResourceBundle::new(32_000, 249_856, 4)); // id 4, smaller shape
        for _ in 0..20 {
            assert!(c.subscribe(1, &ResourceRequest::one_gpu())); // push host 1 over the cap
        }
        let req = ResourceRequest::one_gpu();
        let mut policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(LeastLoaded::default()),
            Box::new(RoundRobin::default()),
            Box::new(BinPacking::default()),
            Box::new(RandomPlacement::new(3)),
        ];
        for policy in &mut policies {
            for limit in [0usize, 1, 3, 5, 8] {
                // Random draws from its RNG per ranking; clone the stream
                // state by re-seeding so both paths see the same draws.
                let (full, mut top) = if policy.name() == "random" {
                    let full = rank_all(&mut RandomPlacement::new(7), &ctx(&c, &req));
                    let mut rng_twin = RandomPlacement::new(7);
                    let mut top = Vec::new();
                    let total = rng_twin.rank_top_into(&ctx(&c, &req), limit, &mut top);
                    assert_eq!(total, full.len(), "random: total viable");
                    (full, top)
                } else {
                    let full = scan_rank(policy.name(), &ctx(&c, &req), None);
                    let mut top = Vec::new();
                    let total = policy.rank_top_into(&ctx(&c, &req), limit, &mut top);
                    assert_eq!(total, full.len(), "{}: total viable", policy.name());
                    (full, top)
                };
                assert_eq!(
                    top,
                    full[..limit.min(full.len())],
                    "{}: top-{limit} equals the rank prefix",
                    policy.name()
                );
                top.clear();
            }
        }
        // RoundRobin's indexed path must honor rotation state too.
        let mut rr = RoundRobin::default();
        let mut top = Vec::new();
        rr.rank_top_into(&ctx(&c, &req), 2, &mut top);
        rr.placed(&top);
        let resumed_full = scan_rank("round-robin", &ctx(&c, &req), top.last().copied());
        let mut resumed_top = Vec::new();
        rr.rank_top_into(&ctx(&c, &req), 3, &mut resumed_top);
        assert_eq!(resumed_top, resumed_full[..3]);
    }

    #[test]
    fn policy_names() {
        assert_eq!(LeastLoaded::default().name(), "least-loaded");
        assert_eq!(RoundRobin::default().name(), "round-robin");
        assert_eq!(BinPacking::default().name(), "bin-packing");
        assert_eq!(RandomPlacement::new(0).name(), "random");
    }
}
