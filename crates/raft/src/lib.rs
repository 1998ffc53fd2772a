//! A from-scratch, sans-io implementation of the Raft consensus protocol
//! (Ongaro & Ousterhout, USENIX ATC '14) — the replication substrate under
//! NotebookOS's distributed kernels (§3.2.2 and §3.2.4 of the paper).
//!
//! NotebookOS replicates each Jupyter kernel across three replicas. The
//! replicas use Raft for (a) state-machine replication of small CPU state and
//! (b) the executor-election protocol that designates which replica runs each
//! submitted cell. This crate provides exactly what those protocols need:
//!
//! * leader election with randomized timeouts,
//! * log replication with the Raft commit rule,
//! * single-server membership change (used when a kernel replica is migrated
//!   to a different GPU server),
//! * a durable log behind the [`RaftStorage`] seam ([`WalStorage`]),
//! * one driver: a deterministic simulated-network harness
//!   ([`harness::Network`]) in seeded virtual time, with message delay,
//!   loss, duplication and partitions, and fail-stop `kill` / `restart` of
//!   a node over whatever storage it was given, and
//! * the Raft safety properties as one step-by-step checker
//!   ([`invariants::SafetyChecker`]) that the harness runs after every
//!   event and every restart.
//!
//! # Design: sans-io
//!
//! [`RaftNode`] performs no I/O and reads no clock. Callers feed it inputs —
//! `tick(now)`, `receive(now, from, msg)`, `propose(cmd)` — and it pushes
//! [`Output`]s (messages to send, committed entries to apply, role changes)
//! into a caller-supplied buffer. This makes the protocol equally usable from
//! the discrete-event simulator, from the seeded harness, from the perf
//! ledger's FIFO driver, and from unit tests that drive pathological
//! schedules by hand.
//!
//! # Replication
//!
//! A leader ships every entry to every peer once. Per peer it keeps a
//! `Progress` — `match`, `next`, a state and a count of unanswered appends
//! — in the shape etcd's raft made standard ([`node`] has the details):
//!
//! * In **Probe** (after an election or a reject) one append is outstanding
//!   at a time, until the leader knows where the peer's log ends.
//! * In **Replicate** `next` moves past an append's entries when it is
//!   sent, not when it is acknowledged, so a proposal ships one entry, not
//!   the unacknowledged suffix. A fixed number of appends (32) may be
//!   unanswered; beyond that, entries wait in the log and leave batched
//!   with the next ack or heartbeat, which bounds what a slow peer piles up
//!   on the wire.
//! * A lost or overtaken append leaves a gap, so the follower rejects the
//!   next one; the reject puts the peer back in Probe at the follower's
//!   hint and one append repairs it. Responses echo the `prev_log_index`
//!   they answer, which is how a stale or reordered reject is recognised
//!   and dropped instead of triggering another resend. Acks are
//!   cumulative, and a heartbeat writes off whatever is still unanswered.
//! * The membership in effect is found in constant time: [`RaftLog`] keeps
//!   the indices of its `Config` entries in step with every append, merge
//!   and truncation (replay included — it goes through `append`), so no
//!   node input walks the log or clones a [`Membership`].
//!
//! Driven FIFO with sixteen proposals outstanding, a three-node group sends
//! 4 messages and ships 2 entries per commit — the floor — at any log
//! length (`tests/amplification.rs`).
//!
//! # Example
//!
//! ```
//! use notebookos_raft::harness::Network;
//!
//! // Three replicas of a notebook kernel; elect a leader and replicate.
//! let mut net = Network::new(3, 42);
//! net.run_until_leader();
//! let leader = net.leader().expect("leader elected");
//! net.propose(leader, "x = 1".to_string()).unwrap();
//! net.run_micros(200_000);
//! assert!(net.all_applied(&["x = 1".to_string()]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod harness;
pub mod invariants;
pub mod log;
pub mod message;
pub mod node;
pub mod storage;
pub mod types;

pub use config::RaftConfig;
pub use invariants::SafetyChecker;
pub use log::{MergeOutcome, RaftLog};
pub use message::Message;
pub use node::{Output, ProposeError, RaftNode, Role};
pub use storage::{
    encode_commands, MemStorage, RaftStorage, RecoveredState, WalCodec, WalOptions, WalStats,
    WalStorage,
};
pub use types::{Entry, EntryPayload, LogIndex, Membership, NodeId, Term};
