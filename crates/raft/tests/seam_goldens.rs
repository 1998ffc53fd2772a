//! Golden pins for the `RaftStorage` trait seam.
//!
//! These values were captured from the deterministic simulated-network
//! harness *before* the persistence seam existed (commit b62dfe7, pure
//! in-memory log). `MemStorage` must keep the in-memory path bit-identical:
//! the same seeds must elect the same leaders at the same virtual times,
//! deliver the same message counts, and commit the same log — any drift
//! means the seam changed protocol behavior.
//!
//! The `delivered` counts were captured again when the leader stopped
//! resending its unacknowledged suffix (per-peer Probe/Replicate progress):
//! 230/243/234 became 208/224/208. The five commands are proposed while
//! the new leader's no-op is still the outstanding probe, so they now
//! leave in one append per peer once it is answered, instead of five
//! overlapping resends whose overtaken copies bounced as rejects. Leader,
//! election time, term, commit index and applied commands did not move.

use notebookos_raft::harness::Network;

/// One deterministic run: elect, replicate 5 commands, run to quiescence.
/// Returns everything observable that must not change across the seam.
fn golden_run(seed: u64) -> (u64, u64, u64, u64, u64, Vec<String>) {
    let mut net: Network<String> = Network::new(3, seed);
    let leader = net.run_until_leader();
    let elected_at = net.now().as_micros();
    for i in 0..5 {
        net.propose(leader, format!("cmd-{i}")).unwrap();
    }
    net.run_micros(500_000);
    let node = net.node(leader);
    (
        leader,
        elected_at,
        node.term(),
        node.commit_index(),
        net.delivered(),
        net.applied_by(leader).to_vec(),
    )
}

#[test]
fn harness_behavior_is_bit_identical_through_the_seam() {
    let expect_applied: Vec<String> = (0..5).map(|i| format!("cmd-{i}")).collect();
    for (seed, golden) in [
        (42u64, (3u64, 37000u64, 1u64, 6u64, 208u64)),
        (7, (1, 34000, 1, 6, 224)),
        (2026, (1, 50000, 1, 6, 208)),
    ] {
        let (leader, elected_at, term, commit, delivered, applied) = golden_run(seed);
        assert_eq!(
            (leader, elected_at, term, commit, delivered),
            golden,
            "seed {seed} drifted"
        );
        assert_eq!(applied, expect_applied, "seed {seed} applied drifted");
    }
}
