//! Protocol-level integration: Jupyter messages, the Raft-backed executor
//! election, membership-change migration, and datastore checkpointing
//! working together — the paper's Fig. 5/Fig. 6 flows.

use notebookos::core::ast::analyze_cell;
use notebookos::core::{
    ElectionOutcome, ElectionTracker, KernelCommand, KernelProtocolHarness, Proposal,
};
use notebookos::datastore::{BackendKind, DataStore};
use notebookos::des::SimRng;
use notebookos::jupyter::{merge_replies, wire, JupyterMessage, ReplyStatus};
use notebookos::raft::harness::Network;
use notebookos::raft::{Membership, RaftConfig};

#[test]
fn execute_request_to_reply_full_cycle() {
    let key = b"integration-key";
    // Client → wire → Global Scheduler.
    let request = JupyterMessage::execute_request("m1", "sess", "w = 2\nmodel = Net()\n", 0)
        .with_destination("kernel-1");
    let frames = wire::encode(&[], &request, key);
    let (_, routed) = wire::decode(&frames, key).expect("valid frames");

    // Election on real Raft: replica 2 leads.
    let mut kernel = KernelProtocolHarness::new(21);
    let result = kernel.run_election(&[Proposal::Yield, Proposal::Yield, Proposal::Lead]);
    assert_eq!(result.winner, Some(2));

    // Executor analyzes code, checkpoints large state, replicates small.
    let update = analyze_cell(routed.code().expect("code payload"));
    assert_eq!(update.small, vec!["w"]);
    assert_eq!(update.large, vec!["model"]);
    let mut store = DataStore::new(BackendKind::Redis);
    let mut rng = SimRng::seed(5);
    let (pointer, _) = store.write("kernel-1/model", 45_000_000, &mut rng);
    kernel.complete_execution(0, update.small, vec![pointer.key.clone()]);
    assert!(store.read(&pointer, &mut rng).is_ok());

    // Replies aggregate; the executor's wins.
    let replies: Vec<JupyterMessage> = (0..3)
        .map(|i| routed.execute_reply(format!("r{i}"), ReplyStatus::Ok, 1, i == 2, 10))
        .collect();
    let merged = merge_replies(replies).expect("replies present");
    assert_eq!(merged.header.msg_id, "r2");
}

#[test]
fn migration_via_membership_change_preserves_log() {
    // §3.2.3: replace a kernel replica with a fresh one on another server;
    // the new replica replays the log and the Raft cluster resumes.
    let mut net: Network<String> = Network::new(3, 33);
    let leader = net.run_until_leader();
    net.propose(leader, "x = 1".to_string()).unwrap();
    net.propose(leader, "y = 2".to_string()).unwrap();
    net.run_micros(500_000);

    // Provision the replacement replica (node 4) and reconfigure: add 4,
    // then remove node 2 (simulating the migrated-away replica).
    net.spawn_node(4, RaftConfig::fast());
    let with_new = Membership::new(vec![1, 2, 3, 4]);
    net.propose_membership(leader, with_new).unwrap();
    net.run_micros(1_000_000);
    assert_eq!(
        net.applied_by(4),
        &["x = 1".to_string(), "y = 2".to_string()],
        "replacement replays the full log"
    );

    let without_old = Membership::new(vec![1, 3, 4]);
    net.propose_membership(leader, without_old).unwrap();
    net.disconnect(2);
    net.run_micros(500_000);

    // The reconfigured cluster still commits.
    let leader = net.leader().expect("leader persists");
    net.propose(leader, "z = 3".to_string()).unwrap();
    net.run_micros(1_000_000);
    assert!(net.applied_by(4).contains(&"z = 3".to_string()));
}

#[test]
fn election_tracker_is_replica_order_independent_once_committed() {
    // Raft guarantees identical apply order; given that order, every
    // replica's tracker must agree. Feed the same committed sequence to
    // three trackers and compare.
    let committed = vec![
        KernelCommand::Yield {
            election: 0,
            replica: 0,
        },
        KernelCommand::Lead {
            election: 0,
            replica: 1,
        },
        KernelCommand::Lead {
            election: 0,
            replica: 2,
        },
        KernelCommand::Vote {
            election: 0,
            winner: 1,
            voter: 0,
        },
        KernelCommand::Vote {
            election: 0,
            winner: 1,
            voter: 1,
        },
        KernelCommand::Vote {
            election: 0,
            winner: 1,
            voter: 2,
        },
        KernelCommand::Done { election: 0 },
    ];
    let mut outcomes = Vec::new();
    for _ in 0..3 {
        let mut tracker = ElectionTracker::new(3);
        let mut last = ElectionOutcome::Pending;
        for c in &committed {
            last = tracker.apply(c);
        }
        outcomes.push(last);
    }
    assert!(outcomes.iter().all(|&o| o == ElectionOutcome::Won(1)));
}

#[test]
fn repeated_elections_under_message_drops() {
    let mut kernel = KernelProtocolHarness::new(55);
    kernel.network_mut().set_drop_rate(0.1);
    for round in 0..5 {
        let winner_idx = (round % 3) as usize;
        let mut proposals = [Proposal::Yield; 3];
        proposals[winner_idx] = Proposal::Lead;
        let result = kernel.run_election(&proposals);
        assert_eq!(
            result.winner,
            Some(winner_idx as u32),
            "round {round} elects the only LEAD proposer despite drops"
        );
    }
}

#[test]
fn wire_protocol_rejects_cross_kernel_tampering() {
    let key = b"k";
    let request =
        JupyterMessage::execute_request("m1", "sess", "x=1", 0).with_destination("kernel-a");
    let mut frames = wire::encode(&[], &request, key);
    // Retarget the metadata frame at another kernel.
    let idx = frames.len() - 2;
    frames[idx] = bytes::Bytes::from_static(b"{\"kernel_id\":\"kernel-b\"}");
    assert!(wire::decode(&frames, key).is_err());
}
