//! Property-based safety tests for the Raft implementation: election
//! safety, log matching, and leader completeness under randomized faults.
//!
//! The last three tests turn on the harness's per-step
//! [`notebookos_raft::SafetyChecker`]: every Raft safety property is
//! checked after every delivered message, tick and proposal, so a schedule
//! that breaks one panics at that step. The harness draws each message's
//! latency independently, so reordering is always part of the schedule.

use proptest::prelude::*;

use notebookos_raft::harness::Network;
use notebookos_raft::{RaftConfig, Role};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Election safety: after the dust settles, at most one node believes
    /// it leads the highest term.
    #[test]
    fn at_most_one_leader_per_term(seed in 0u64..10_000, n in 3usize..6) {
        let mut net: Network<u32> = Network::new(n, seed);
        net.check_safety();
        net.run_until_leader();
        net.run_micros(500_000);
        let max_term = (1..=n as u64).map(|id| net.node(id).term()).max().unwrap();
        let leaders_at_max = (1..=n as u64)
            .filter(|&id| net.node(id).role() == Role::Leader && net.node(id).term() == max_term)
            .count();
        prop_assert!(leaders_at_max <= 1, "{leaders_at_max} leaders at term {max_term}");
    }

    /// Log matching: committed prefixes agree pairwise even when the leader
    /// is partitioned away mid-replication.
    #[test]
    fn log_matching_across_leader_partition(seed in 0u64..10_000, cut_after in 1usize..8) {
        let mut net: Network<u32> = Network::new(3, seed);
        net.check_safety();
        let first = net.run_until_leader();
        for i in 0..cut_after as u32 {
            net.propose(first, i).expect("stable leader");
            net.run_micros(30_000);
        }
        net.disconnect(first);
        // A new leader emerges and appends more entries.
        let mut second = None;
        for _ in 0..300 {
            net.run_micros(10_000);
            if let Some(l) = net.leader() {
                if l != first {
                    second = Some(l);
                    break;
                }
            }
        }
        if let Some(second) = second {
            for i in 100..105u32 {
                let _ = net.propose(second, i);
                net.run_micros(30_000);
            }
        }
        net.reconnect(first);
        net.run_micros(2_000_000);

        let logs: Vec<Vec<u32>> = (1..=3).map(|id| net.applied_by(id).to_vec()).collect();
        for a in 0..3 {
            for b in (a + 1)..3 {
                let common = logs[a].len().min(logs[b].len());
                prop_assert_eq!(&logs[a][..common], &logs[b][..common]);
            }
        }
    }

    /// Commitment durability: once an entry is applied anywhere while the
    /// cluster is healthy, it survives any subsequent single-node outage.
    #[test]
    fn committed_entries_survive_single_failure(seed in 0u64..10_000, victim in 1u64..4) {
        let mut net: Network<u32> = Network::with_config(3, seed, RaftConfig::fast());
        net.check_safety();
        let leader = net.run_until_leader();
        net.propose(leader, 42).expect("leader accepts");
        prop_assert!(net.run_until_applied_everywhere(net.node(leader).log().last_index(), 5_000_000));

        net.disconnect(victim);
        net.run_micros(1_000_000);
        // The surviving majority still exposes the entry.
        for id in (1..=3u64).filter(|&id| id != victim) {
            prop_assert!(
                net.applied_by(id).contains(&42),
                "node {id} lost a committed entry"
            );
        }
    }

    /// Every safety property, at every step, on a network that loses a
    /// fifth of its messages, delivers another fifth twice, and reorders
    /// freely — while whoever leads keeps a window of proposals in flight.
    #[test]
    fn safety_holds_under_drops_reordering_and_duplicates(seed in 0u64..10_000, n in 3usize..6) {
        let mut net: Network<u32> = Network::new(n, seed);
        net.check_safety();
        net.set_drop_rate(0.2);
        net.set_duplicate_rate(0.2);
        let mut next = 0u32;
        for _ in 0..40 {
            if let Some(leader) = net.leader() {
                for _ in 0..4 {
                    if net.propose(leader, next).is_ok() {
                        next += 1;
                    }
                }
            }
            net.run_micros(5_000);
        }
        net.set_drop_rate(0.0);
        net.run_micros(1_000_000);
        prop_assert!(net.safety_checks() > 0);
        prop_assert_applied_agree(&net, n)?;
    }

    /// The leader is cut off with a burst of appends on the wire — some
    /// delivered, some not, their answers lost — goes on accepting
    /// proposals it can never commit, and rejoins under a new leader.
    #[test]
    fn safety_holds_when_the_leader_is_cut_off_mid_flight(
        seed in 0u64..10_000,
        burst in 1u32..12,
        cut_after_us in 0u64..900,
    ) {
        let mut net: Network<u32> = Network::new(3, seed);
        net.check_safety();
        net.set_duplicate_rate(0.1);
        let first = net.run_until_leader();
        net.propose(first, 0).expect("stable leader");
        net.run_micros(30_000);
        for i in 0..burst {
            net.propose(first, 100 + i).expect("stable leader");
        }
        net.run_micros(cut_after_us);
        net.disconnect(first);
        // Still a leader in its own eyes: these can never commit.
        for i in 0..3 {
            let _ = net.propose(first, 200 + i);
        }
        let mut second = None;
        for _ in 0..300 {
            net.run_micros(10_000);
            second = net.leader().filter(|&l| l != first);
            if second.is_some() {
                break;
            }
        }
        let second = second.expect("the majority elects a new leader");
        for i in 0..4 {
            let _ = net.propose(second, 300 + i);
            net.run_micros(500);
        }
        net.reconnect(first);
        net.run_micros(2_000_000);
        prop_assert!(net.safety_checks() > 0);
        prop_assert_applied_agree(&net, 3)?;
        let applied = net.applied_by(second);
        prop_assert!(applied.contains(&0) && applied.contains(&303), "{applied:?}");
        prop_assert!(!applied.iter().any(|c| (200..300).contains(c)), "{applied:?}");
        prop_assert_eq!(net.applied_by(first), applied);
    }
}

/// Frozen seed. Five nodes on a network slow enough (1-25 ms against
/// 30-60 ms election timeouts) that elections split three ways: at 232 ms
/// node 3, a candidate of term 5, hears that term's leader, steps down, and
/// is then asked for its term-5 vote by node 4. Stepping down used to
/// forget the vote it had cast for itself, and it voted again.
#[test]
fn seed_234_a_three_way_split_election_casts_one_vote_per_node_and_term() {
    let mut net: Network<u32> = Network::new(5, 234);
    net.check_safety();
    net.set_latency_us(1_000, 25_000);
    net.run_micros(1_500_000);
    assert!(net.safety_checks() > 0);
}

/// Frozen seed. A follower rejoins thirty entries behind a leader that
/// ships two per append, so appends carrying a `leader_commit` far ahead of
/// their own entries stream to it, three in ten of them twice. Some 190 ms
/// in, node 2 processes a duplicate that vouches for two entries fewer than
/// it has committed; it used to set its `commit_index` back by those two.
#[test]
fn seed_1_a_duplicated_catch_up_append_does_not_move_commit_index_back() {
    let config = RaftConfig {
        max_entries_per_append: 2,
        ..RaftConfig::fast()
    };
    let mut net: Network<u32> = Network::with_config(3, 1, config);
    net.check_safety();
    net.set_duplicate_rate(0.3);
    let leader = net.run_until_leader();
    let lagging = (1..=3).find(|&n| n != leader).expect("a follower");
    net.disconnect(lagging);
    for i in 0..30 {
        net.propose(leader, i)
            .expect("the majority side keeps its leader");
        net.run_micros(2_000);
    }
    net.reconnect(lagging);
    net.run_micros(500_000);
    let expected: Vec<u32> = (0..30).collect();
    assert!(net.all_applied(&expected));
}

/// Applied sequences agree pairwise over their common prefix.
fn prop_assert_applied_agree(net: &Network<u32>, n: usize) -> Result<(), TestCaseError> {
    for a in 1..=n as u64 {
        for b in (a + 1)..=n as u64 {
            let (la, lb) = (net.applied_by(a), net.applied_by(b));
            let common = la.len().min(lb.len());
            prop_assert_eq!(&la[..common], &lb[..common]);
        }
    }
    Ok(())
}
