//! A distributed kernel up close: the real Raft-backed executor-election
//! protocol (§3.2.2) and state replication (§3.2.4) on the deterministic
//! harness, then the recovery path (§3.2.5): a replica over a write-ahead
//! log is killed, restarted, and comes back with its log.
//!
//! ```text
//! cargo run --release --example replicated_kernel
//! ```

use notebookos::core::ast::analyze_cell;
use notebookos::core::{KernelProtocolHarness, Proposal};
use notebookos::raft::harness::Network;
use notebookos::raft::{RaftConfig, WalStorage};

fn main() {
    // --- Deterministic protocol harness -------------------------------
    let mut kernel = KernelProtocolHarness::new(7);

    // Cell 1: replica 1's host has free GPUs, the others yield.
    let result = kernel.run_election(&[Proposal::Yield, Proposal::Lead, Proposal::Yield]);
    println!(
        "cell 1: replica {:?} elected executor in {:.1} ms of virtual time",
        result.winner,
        result.latency_us as f64 / 1e3
    );

    // The executor analyzes the cell's code to decide what to replicate.
    let code = "import torch\nmodel = VGG16()\nlr = 0.01\nloss = model.fit(train_data)\n";
    let update = analyze_cell(code);
    println!(
        "cell 1: AST analysis → replicate {:?} via Raft, checkpoint {:?} to the data store",
        update.small, update.large
    );
    kernel.complete_execution(
        0,
        update.small.clone(),
        update
            .large
            .iter()
            .map(|n| format!("kernel-7/{n}"))
            .collect(),
    );
    println!("cell 1: state delta committed on all three replicas");

    // Cell 2: everyone yields — the Global Scheduler must migrate (§3.2.3).
    let failed = kernel.run_election(&[Proposal::Yield, Proposal::Yield, Proposal::Yield]);
    assert_eq!(failed.winner, None);
    println!("cell 2: all replicas yielded → election failed → migration path");

    // --- Replication and recovery over a write-ahead log --------------
    // The same sans-io Raft node, three replicas, each persisting through a
    // WAL of its own in a temp directory.
    let dir = std::env::temp_dir().join(format!("notebookos-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create WAL directory");
    let wal_dir = dir.clone();
    let mut net: Network<String> = Network::with_storage(
        3,
        7,
        RaftConfig::fast(),
        Box::new(move |id| {
            let path = wal_dir.join(format!("node-{id}.wal"));
            Box::new(WalStorage::<String>::open(path).expect("open node WAL"))
        }),
    );
    net.check_safety();
    let leader = net.run_until_leader();
    let idx = net
        .propose(leader, "x = 1".to_string())
        .expect("the leader accepts the proposal");
    assert!(net.run_until_applied_everywhere(idx, 1_000_000));
    println!("wal cluster: committed log index {idx}; all 3 replicas applied the delta");

    // Fail-stop a follower and bring it back over its WAL: the log is there
    // before the leader has said a word to it.
    let victim = (1..=3).find(|&id| id != leader).expect("two followers");
    net.kill(victim);
    net.restart(victim);
    let recovered = net.node(victim).log().last_index();
    assert!(
        recovered >= idx,
        "the WAL kept what the replica acknowledged"
    );
    assert!(net.run_until_applied_everywhere(idx, 1_000_000));
    println!(
        "wal cluster: replica {victim} killed and restarted; its WAL gave back {recovered} log \
         entries, and it re-applied {:?} once the leader told it what is committed",
        net.applied_by(victim)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
