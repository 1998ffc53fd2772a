//! Index ↔ scan equivalence (PR 6).
//!
//! The capacity-bucketed placement index must reproduce the scan path's
//! ranking order bit for bit — otherwise seeded simulations diverge the
//! moment the platform consults the index. These properties drive random
//! typed-mutation sequences (add/remove/subscribe/unsubscribe/commit/
//! release, and placement storms that subscribe R hosts in one of the
//! `support/orderings.rs` orders) interleaved with typed calls that must
//! change nothing (a refused commit), and after every step compare each
//! indexed query against its scan-based reference:
//!
//! * least-loaded `rank_top_into` vs the prefix of the full-scan
//!   `scan_rank` ordering (plus the viable total),
//! * `viable_count` / `viable_counts` vs the materialized screen,
//! * `best_commit_host` / `best_commit_host_excluding` /
//!   `best_warm_commit_host` vs the reservation/batch, migration, and
//!   LCP baseline scans they replaced.
//!
//! The index buckets host ids in 64-bit words, so one stream starts from a
//! fleet whose ids cross two word boundaries, with holes at the word edges
//! and one host subscribed past 128 GPUs (`wide_fleet`).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use notebookos::cluster::{Cluster, HostId, ResourceBundle, ResourceRequest, Viability};
use notebookos::core::policy::scan_rank;
use notebookos::core::{LeastLoaded, PlacementContext, PlacementPolicy};

#[path = "support/orderings.rs"]
mod orderings;
use orderings::StormOrder;

fn req(gpus: u32) -> ResourceRequest {
    ResourceRequest::new(2000, 8_192, gpus, 16)
}

fn small_shape() -> ResourceBundle {
    ResourceBundle::new(32_000, 249_856, 4)
}

/// One random mutation step: `(op die, host selector, argument)`.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((0u8..16, any::<u8>(), any::<u8>()), 5..50)
}

/// Five hosts of two shapes.
fn small_fleet() -> Cluster {
    Cluster::with_host_mix(&[(ResourceBundle::p3_16xlarge(), 3), (small_shape(), 2)])
}

/// 140 hosts of two shapes, so ids cross the bitset words at 64 and 128;
/// the hosts at both sides of each edge are gone, and host 129 holds 132
/// subscribed GPUs, past the index's 128th subscription level.
fn wide_fleet() -> Cluster {
    let mut c = Cluster::with_host_mix(&[(ResourceBundle::p3_16xlarge(), 70), (small_shape(), 70)]);
    for id in [0, 63, 64, 127, 128] {
        assert!(c.remove_host(id).is_some());
    }
    for _ in 0..33 {
        assert!(c.subscribe(129, &req(4)));
    }
    assert_eq!(c.host(129).map(|h| h.subscribed_gpus()), Some(132));
    c
}

/// [`churned`] from the five-host fleet.
fn churned_cluster(ops: &[(u8, u8, u8)]) -> Cluster {
    churned(small_fleet(), ops)
}

/// Applies `ops` to `c` through the typed mutators (plus occasional typed
/// calls that must be refused or change nothing), tracking live
/// subscriptions/commitments so every inverse operation is legal.
fn churned(mut c: Cluster, ops: &[(u8, u8, u8)]) -> Cluster {
    let mut subs: Vec<(HostId, u32)> = Vec::new();
    let mut commits: Vec<(HostId, u64)> = Vec::new();
    let mut next_owner = 1u64;
    let mut devices = Vec::new();
    for &(op, hsel, arg) in ops {
        let ids: Vec<HostId> = c.hosts().iter().map(|h| h.id()).collect();
        let host = ids[usize::from(hsel) % ids.len()];
        let gpus = u32::from(arg) % 5; // 0 covers CPU-only subscriptions
        match op % 10 {
            0 => {
                let shape = if arg % 2 == 0 {
                    ResourceBundle::p3_16xlarge()
                } else {
                    small_shape()
                };
                c.add_host(shape);
            }
            1 => {
                if c.len() > 1 {
                    subs.retain(|&(h, _)| h != host);
                    commits.retain(|&(h, _)| h != host);
                    c.remove_host(host);
                }
            }
            2 | 3 => {
                assert!(c.subscribe(host, &req(gpus)));
                subs.push((host, gpus));
            }
            4 => {
                if let Some(pos) = subs.iter().position(|&(h, _)| h == host) {
                    let (h, g) = subs.remove(pos);
                    assert!(c.unsubscribe(h, &req(g)));
                }
            }
            5 | 6 => {
                let owner = next_owner;
                next_owner += 1;
                if c.try_commit(host, owner, &req(gpus.max(1)), &mut devices) {
                    commits.push((host, owner));
                }
            }
            7 => {
                if let Some(pos) = commits.iter().position(|&(h, _)| h == host) {
                    let (h, owner) = commits.remove(pos);
                    assert!(c.release(h, owner));
                }
            }
            9 => {
                let ordering = StormOrder::pick(hsel, u64::from(arg));
                for host in orderings::place(&mut c, &req(gpus), ordering) {
                    subs.push((host, gpus));
                }
            }
            // Typed calls that change nothing: a commit the host must
            // refuse — no shape has 99 GPUs, and an owner holds at most one
            // commitment per host.
            _ => {
                assert!(!c.try_commit(host, next_owner, &req(99), &mut devices));
                assert!(devices.is_empty(), "a refused commit binds no device");
                if let Some(&(h, owner)) = commits.iter().find(|&&(h, _)| h == host) {
                    assert!(!c.try_commit(h, owner, &req(1), &mut devices));
                }
            }
        }
    }
    c
}

/// Scan reference for [`Cluster::best_commit_host`] (the reservation and
/// batch baselines' host pick).
fn scan_best_commit(c: &Cluster, request: &ResourceRequest) -> Option<HostId> {
    c.hosts()
        .iter()
        .filter(|h| h.can_commit(request))
        .map(|h| (h.idle_gpus(), h.id()))
        .max()
        .map(|(_, id)| id)
}

/// Scan reference for the migration target pick.
fn scan_migration_target(
    c: &Cluster,
    request: &ResourceRequest,
    exclude: &[HostId],
) -> Option<HostId> {
    c.hosts()
        .iter()
        .filter(|h| !exclude.contains(&h.id()) && h.can_commit(request))
        .map(|h| (h.idle_gpus(), h.id()))
        .max()
        .map(|(_, id)| id)
}

/// Scan reference for the LCP submit pick (warm container preferred).
fn scan_lcp_target(
    c: &Cluster,
    request: &ResourceRequest,
    warm: impl Fn(HostId) -> u32,
) -> Option<HostId> {
    c.hosts()
        .iter()
        .filter(|h| h.can_commit(request))
        .map(|h| (warm(h.id()).min(1), h.idle_gpus(), h.id()))
        .max()
        .map(|(_, _, id)| id)
}

/// Asserts every indexed query equals its scan reference on `c`.
fn assert_index_matches_scan(c: &Cluster) -> Result<(), TestCaseError> {
    for gpus in [0u32, 1, 4] {
        let request = req(gpus);
        let ctx = PlacementContext {
            cluster: c,
            request: &request,
            replication_factor: 3,
        };
        let mut viable = Viability::default();
        ctx.viable_into(&mut viable);
        prop_assert_eq!(c.viable_count(&request), viable.len(), "viable count");
        prop_assert_eq!(
            c.viable_counts(&request, 3, ctx.sr_cap()),
            (viable.within_cap.len(), viable.over_cap.len()),
            "viable split ({} gpus)",
            gpus
        );

        let full = scan_rank(&ctx);
        let mut policy = LeastLoaded::default();
        for limit in [1usize, 3, full.len(), full.len() + 2] {
            let mut top = Vec::new();
            let total = policy.rank_top_into(&ctx, limit, &mut top);
            prop_assert_eq!(total, full.len(), "viable total");
            prop_assert_eq!(
                &top[..],
                &full[..limit.min(full.len())],
                "top-{} ({} gpus)",
                limit,
                gpus
            );
        }

        // Commit-side baseline scans.
        prop_assert_eq!(
            c.best_commit_host(&request),
            scan_best_commit(c, &request),
            "best commit ({} gpus)",
            gpus
        );
        let exclude: Vec<HostId> = c.hosts().iter().map(|h| h.id()).take(2).collect();
        prop_assert_eq!(
            c.best_commit_host_excluding(&request, &exclude),
            scan_migration_target(c, &request, &exclude),
            "migration target ({} gpus)",
            gpus
        );
        let warm = |id: HostId| u32::from(id % 3 == 0);
        prop_assert_eq!(
            c.best_warm_commit_host(&request, warm),
            scan_lcp_target(c, &request, warm),
            "LCP target ({} gpus)",
            gpus
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any random mutation sequence, every indexed query equals its
    /// scan reference.
    #[test]
    fn index_equals_scan_after_random_mutations(ops in arb_ops()) {
        let c = churned_cluster(&ops);
        assert_index_matches_scan(&c)?;
    }

    /// Equivalence also holds at every intermediate state, so incremental
    /// maintenance never drifts mid-sequence (not just at quiescence).
    #[test]
    fn index_equals_scan_at_every_step(ops in proptest::collection::vec((0u8..16, any::<u8>(), any::<u8>()), 1..12)) {
        for prefix in 1..=ops.len() {
            let c = churned_cluster(&ops[..prefix]);
            assert_index_matches_scan(&c)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same at every step of a stream over the fleet whose ids and
    /// subscription levels span several bitset words.
    #[test]
    fn index_equals_scan_across_bitset_words(ops in proptest::collection::vec((0u8..16, any::<u8>(), any::<u8>()), 1..16)) {
        for prefix in 0..=ops.len() {
            let c = churned(wide_fleet(), &ops[..prefix]);
            assert_index_matches_scan(&c)?;
        }
    }
}

/// Scale-in at the slab's front, middle and end until the fleet is empty,
/// then growth: after every mutation `host(id)` is what a linear search of
/// `hosts()` finds for every id ever issued (`None` once removed), and
/// commits and releases reach a host that a removal shifted.
#[test]
fn lookup_after_removing_first_middle_and_last_then_adding() {
    fn check(c: &Cluster, issued: HostId) {
        assert!(c.hosts().windows(2).all(|w| w[0].id() < w[1].id()));
        for id in 0..issued + 2 {
            let found = c.hosts().iter().find(|h| h.id() == id);
            assert_eq!(
                c.host(id).map(|h| h as *const _),
                found.map(|h| h as *const _),
                "host {id}"
            );
        }
    }
    let mut c = small_fleet();
    let mut issued = c.len() as HostId;
    check(&c, issued);
    // `None` adds a host; the fleet is 1 2 3 4, 1 2 4, 1 2, 1 2 5 6, 2 5 6,
    // 2 6, 2, (empty), 7 8 9, 7 9, 7 9 10.
    for victim in [
        Some(0),
        Some(3),
        Some(4),
        None,
        None,
        Some(1),
        Some(5),
        Some(6),
        Some(2),
        None,
        None,
        None,
        Some(8),
        None,
    ] {
        match victim {
            Some(id) => assert_eq!(c.remove_host(id).map(|h| h.id()), Some(id)),
            None => {
                assert_eq!(c.add_host(ResourceBundle::p3_16xlarge()), issued);
                issued += 1;
            }
        }
        check(&c, issued);
    }
    let mut devices = Vec::new();
    for id in [7, 9, 10] {
        assert!(c.try_commit(id, id, &req(2), &mut devices));
    }
    // Host 10 shifts down a slot; commits and releases still find it.
    assert!(c.release(9, 9));
    assert!(c.remove_host(9).is_some());
    check(&c, issued);
    assert!(!c.release(9, 9));
    assert!(c.try_commit(10, 99, &req(1), &mut devices));
    assert_eq!(
        c.host(10).map(|h| (h.committed_gpus(), h.idle_gpus())),
        Some((3, 5))
    );
    assert!(c.release(10, 10));
    assert_eq!(c.host(7).map(|h| h.committed_gpus()), Some(2));
    assert_eq!(c.total_committed_gpus(), 3);
    assert_index_matches_scan(&c).unwrap_or_else(|e| panic!("{e:?}"));
}

/// A burst of hosts carries the ids past the third word edge (192) while
/// the holes at 64 and 128 stay; commits and releases then move hosts on
/// both sides of every edge.
#[test]
fn burst_added_hosts_past_word_edges_match_the_scan() {
    let mut c = wide_fleet();
    for i in 0..70 {
        let shape = if i % 3 == 0 {
            small_shape()
        } else {
            ResourceBundle::p3_16xlarge()
        };
        c.add_host(shape);
    }
    assert_eq!(c.hosts().last().map(|h| h.id()), Some(209));
    assert_index_matches_scan(&c).unwrap_or_else(|e| panic!("after the burst: {e:?}"));
    let mut devices = Vec::new();
    let edges = [1, 62, 65, 126, 129, 130, 191, 192, 193, 209];
    for (owner, &host) in edges.iter().enumerate() {
        assert!(c.try_commit(host, owner as u64, &req(2), &mut devices));
        assert_index_matches_scan(&c).unwrap_or_else(|e| panic!("commit on {host}: {e:?}"));
    }
    for (owner, &host) in edges.iter().enumerate().step_by(2) {
        assert!(c.release(host, owner as u64));
        assert!(c.remove_host(host + 1).is_some());
        assert_index_matches_scan(&c).unwrap_or_else(|e| panic!("release on {host}: {e:?}"));
    }
}

/// The no-op kind drawn for certain, on a host that holds a commitment:
/// refused and unchanged at every step.
#[test]
fn refused_and_no_op_mutations_leave_the_index_exact() {
    let ops = [(5, 0, 2), (8, 0, 0), (8, 0, 1), (8, 0, 2)];
    for prefix in 1..=ops.len() {
        let c = churned_cluster(&ops[..prefix]);
        assert_eq!(c.total_committed_gpus(), 2, "one commit, never a second");
        assert_index_matches_scan(&c).unwrap_or_else(|e| panic!("prefix {prefix}: {e:?}"));
    }
}
