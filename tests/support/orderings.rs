//! Test-local host orderings over the viability screen. A placement storm
//! subscribes replicas in one of these orders, which drives the cluster's
//! index into grid states least-loaded placement alone never reaches:
//! subscriptions piled on a few hosts, spread by id, or scattered at
//! random. They only choose which hosts a storm subscribes; the
//! properties that include this module assert on the index's own queries
//! against their scans.

use notebookos::cluster::{Cluster, HostId, ResourceRequest, Viability};
use notebookos::core::policy::scan_rank;
use notebookos::core::PlacementContext;
use notebookos::des::SimRng;

/// Replicas per placement.
const R: usize = 3;

/// How a storm orders each segment of the screen (admitted hosts always
/// before the ones the SR cap forbids).
#[derive(Debug, Clone, Copy)]
pub enum StormOrder {
    /// The platform's own ranking.
    LeastLoaded,
    /// Most subscribed GPUs first, then most committed, then highest id.
    MostSubscribed,
    /// Ascending ids, starting after this id and wrapping.
    Rotation(HostId),
    /// A shuffle drawn from this seed.
    Shuffle(u64),
}

impl StormOrder {
    /// One of the four orderings, picked by `die`, with `seed` as its
    /// rotation point or shuffle seed.
    pub fn pick(die: u8, seed: u64) -> StormOrder {
        match die % 4 {
            0 => StormOrder::LeastLoaded,
            1 => StormOrder::MostSubscribed,
            2 => StormOrder::Rotation(seed),
            _ => StormOrder::Shuffle(seed),
        }
    }
}

/// Every viable host for `request` in `ordering`'s order.
pub fn rank(c: &Cluster, request: &ResourceRequest, ordering: StormOrder) -> Vec<HostId> {
    let ctx = PlacementContext {
        cluster: c,
        request,
        replication_factor: R as u32,
    };
    if let StormOrder::LeastLoaded = ordering {
        return scan_rank(&ctx);
    }
    let mut viable = Viability::default();
    ctx.viable_into(&mut viable);
    let mut rng = match ordering {
        StormOrder::Shuffle(seed) => Some(SimRng::seed(seed)),
        _ => None,
    };
    let mut out = Vec::with_capacity(viable.len());
    for mut ids in [viable.within_cap, viable.over_cap] {
        match ordering {
            StormOrder::LeastLoaded => unreachable!("ranked by the scan"),
            StormOrder::MostSubscribed => ids.sort_by_key(|&id| {
                let h = c.host(id).expect("viable host exists");
                std::cmp::Reverse((h.subscribed_gpus(), h.committed_gpus(), id))
            }),
            StormOrder::Rotation(last) => {
                let pivot = ids.partition_point(|&id| id <= last);
                ids.rotate_left(pivot);
            }
            StormOrder::Shuffle(_) => {
                let rng = rng.as_mut().expect("a shuffle has its stream");
                for i in (1..ids.len()).rev() {
                    ids.swap(i, rng.index(i + 1));
                }
            }
        }
        out.extend(ids);
    }
    out
}

/// One R-replica placement under `ordering`: subscribes `request` on the
/// first R hosts it ranks and returns them, or places nothing when fewer
/// than R are viable.
pub fn place(c: &mut Cluster, request: &ResourceRequest, ordering: StormOrder) -> Vec<HostId> {
    let mut hosts = rank(c, request, ordering);
    if hosts.len() < R {
        return Vec::new();
    }
    hosts.truncate(R);
    for &host in &hosts {
        assert!(c.subscribe(host, request), "ranked host exists");
    }
    hosts
}
