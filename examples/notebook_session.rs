//! One notebook session end to end at the protocol level: Jupyter wire
//! messages, the Global Scheduler's yield-request conversion, reply
//! aggregation, AST-driven state classification, and large-object
//! checkpointing to the distributed data store.
//!
//! ```text
//! cargo run --release --example notebook_session
//! ```

use notebookos::core::ast::analyze_cell;
use notebookos::datastore::{BackendKind, DataStore};
use notebookos::des::SimRng;
use notebookos::jupyter::{
    kernel_id_of, merge_replies, wire, JupyterMessage, MsgIdGen, ReplyStatus, SessionManager,
};

fn main() {
    let key = b"notebookos-demo-key";
    let mut ids = MsgIdGen::new("client");
    let mut sessions = SessionManager::new();
    let session = sessions.create("sess-1", 0);

    // 1. The client submits a training cell.
    let code = "model = VGG16()\nhistory = model.fit(train_data, epochs=2)\nacc = history.best\n";
    let request = JupyterMessage::execute_request(ids.next_id(), "sess-1", code, 1_000)
        .with_destination(&kernel_id_of("sess-1"))
        .with_gpu_device_ids(&[0, 1]);
    sessions.slot_mut(session).record_execution(1_000);

    // 2. It crosses the wire to the Global Scheduler.
    let frames = wire::encode(&[], &request, key);
    println!("execute_request: {} wire frames, signed", frames.len());
    let (_, routed) = wire::decode(&frames, key).expect("valid frames");
    assert_eq!(routed.code(), Some(code));

    // 3. The Global Scheduler designates replica 1 as executor and converts
    //    the copies for replicas 0 and 2 into yield_requests (§3.2.2).
    let yield_copy = routed.to_yield_request();
    println!(
        "replica 0/2 receive: {} | replica 1 receives: {}",
        yield_copy.header.msg_type, routed.header.msg_type
    );

    // 4. The executor runs the cell and analyzes which state to replicate.
    let update = analyze_cell(code);
    println!(
        "AST state classification: small (Raft) = {:?}, large (data store) = {:?}",
        update.small, update.large
    );

    // 5. Large objects are checkpointed; the Raft log carries pointers.
    let mut store = DataStore::new(BackendKind::S3);
    let mut rng = SimRng::seed(3);
    for name in &update.large {
        let (pointer, latency) = store.write(format!("kernel-1/{name}"), 528_000_000, &mut rng);
        println!(
            "checkpointed `{}` ({} MB) in {latency} → pointer {}",
            name,
            pointer.size_bytes / 1_000_000,
            pointer.key
        );
    }

    // 6. Every replica replies; the Global Scheduler keeps the executor's.
    let replies = vec![
        routed.execute_reply(ids.next_id(), ReplyStatus::Ok, 1, false, 2_000),
        routed.execute_reply(ids.next_id(), ReplyStatus::Ok, 1, true, 2_001),
        routed.execute_reply(ids.next_id(), ReplyStatus::Ok, 1, false, 2_002),
    ];
    let merged = merge_replies(replies).expect("three replies");
    println!(
        "merged execute_reply: msg {} (executor's), status ok = {}",
        merged.header.msg_id,
        merged.is_ok_reply()
    );
}
