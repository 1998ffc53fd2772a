//! The executor-election and state-replication protocol on top of Raft
//! (§3.2.2 and Fig. 5).
//!
//! Each cell execution triggers an *executor election* among the kernel's
//! replicas: every replica appends a `LEAD` or `YIELD` proposal to the Raft
//! log; the first committed `LEAD` wins; replicas confirm with `VOTE`
//! entries; the winner executes and commits a `DONE` notification followed
//! by the state delta. If every replica yields, the election fails and the
//! Global Scheduler migrates a replica (§3.2.3).
//!
//! Two artifacts live here:
//!
//! * [`ElectionTracker`] — the pure decision state machine, driven by the
//!   committed log (usable from any transport).
//! * [`KernelProtocolHarness`] — the full protocol running on the real
//!   [`notebookos_raft`] implementation over the deterministic network, used
//!   by the protocol tests and the benches that calibrate the platform's
//!   round-latency model.

use notebookos_raft::harness::Network;
use notebookos_raft::NodeId;

/// Commands a distributed kernel appends to its Raft log.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KernelCommand {
    /// A replica volunteers to execute cell `election`.
    Lead {
        /// Election (cell execution) sequence number.
        election: u64,
        /// Proposing replica index.
        replica: u32,
    },
    /// A replica declines (no local GPUs, or told to defer by a
    /// `yield_request`).
    Yield {
        /// Election sequence number.
        election: u64,
        /// Proposing replica index.
        replica: u32,
    },
    /// Confirmation vote for the first committed `LEAD`.
    Vote {
        /// Election sequence number.
        election: u64,
        /// The replica being voted for.
        winner: u32,
        /// The voting replica.
        voter: u32,
    },
    /// The executor finished running the cell (Fig. 5 step 7).
    Done {
        /// Election sequence number.
        election: u64,
    },
    /// Post-execution state delta: small variables inline, large objects as
    /// data-store pointers (§3.2.4).
    StateDelta {
        /// Election sequence number.
        election: u64,
        /// Names of small variables replicated inline.
        small: Vec<String>,
        /// Data-store keys of checkpointed large objects.
        pointers: Vec<String>,
    },
}

/// Progress of one election as observed from the committed log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElectionOutcome {
    /// Still collecting proposals.
    Pending,
    /// A `LEAD` committed first; this replica index executes.
    Won(u32),
    /// All replicas yielded — the Global Scheduler must migrate (§3.2.3).
    AllYielded,
}

/// Pure state machine deciding election outcomes from committed commands.
///
/// Deterministic across replicas because every replica applies the same
/// committed log in the same order — the property the protocol borrows from
/// Raft.
#[derive(Debug, Clone)]
pub struct ElectionTracker {
    replicas: u32,
    /// Per-election progress, keyed by election id.
    state: std::collections::HashMap<u64, ElectionRecord>,
}

#[derive(Debug, Clone, Default)]
struct ElectionRecord {
    winner: Option<u32>,
    yields: Vec<u32>,
}

impl ElectionTracker {
    /// Creates a tracker for a kernel with `replicas` replicas.
    pub fn new(replicas: u32) -> Self {
        ElectionTracker {
            replicas,
            state: std::collections::HashMap::new(),
        }
    }

    /// Applies one committed command; returns the election's outcome after
    /// this command. Only `LEAD` and `YIELD` decide an election: the
    /// confirming `VOTE`s, `DONE` and the state delta leave it as it is.
    pub fn apply(&mut self, command: &KernelCommand) -> ElectionOutcome {
        match command {
            KernelCommand::Lead { election, replica } => {
                let record = self.state.entry(*election).or_default();
                if record.winner.is_none() {
                    record.winner = Some(*replica);
                }
                self.outcome_of(*election)
            }
            KernelCommand::Yield { election, replica } => {
                let record = self.state.entry(*election).or_default();
                if !record.yields.contains(replica) {
                    record.yields.push(*replica);
                }
                self.outcome_of(*election)
            }
            KernelCommand::Vote { election, .. }
            | KernelCommand::Done { election }
            | KernelCommand::StateDelta { election, .. } => self.outcome_of(*election),
        }
    }

    /// The outcome of election `election` so far.
    pub fn outcome_of(&self, election: u64) -> ElectionOutcome {
        match self.state.get(&election) {
            None => ElectionOutcome::Pending,
            Some(record) => {
                if let Some(w) = record.winner {
                    ElectionOutcome::Won(w)
                } else if record.yields.len() as u32 >= self.replicas {
                    ElectionOutcome::AllYielded
                } else {
                    ElectionOutcome::Pending
                }
            }
        }
    }
}

/// What each replica intends to propose for an election.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proposal {
    /// Propose to execute.
    Lead,
    /// Defer (converted `yield_request` or no local resources).
    Yield,
}

/// Result of running a full election on the protocol harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessElectionResult {
    /// The winning replica index, if any `LEAD` was proposed.
    pub winner: Option<u32>,
    /// Virtual time consumed from first proposal to decision (all votes
    /// committed, or all-yield detected), in microseconds.
    pub latency_us: u64,
}

/// The full §3.2.2 protocol running over real Raft on the deterministic
/// network harness.
#[derive(Debug)]
pub struct KernelProtocolHarness {
    net: Network<KernelCommand>,
    replicas: u32,
    next_election: u64,
}

impl KernelProtocolHarness {
    /// Boots a 3-replica kernel and waits for its Raft cluster to elect a
    /// log leader.
    pub fn new(seed: u64) -> Self {
        Self::with_replicas(3, seed)
    }

    /// Boots a kernel with an explicit replica count.
    pub fn with_replicas(replicas: u32, seed: u64) -> Self {
        let mut net = Network::new(replicas as usize, seed);
        net.run_until_leader();
        KernelProtocolHarness {
            net,
            replicas,
            next_election: 0,
        }
    }

    /// Access to the underlying network (tests inject faults through it).
    pub fn network_mut(&mut self) -> &mut Network<KernelCommand> {
        &mut self.net
    }

    fn raft_leader(&mut self) -> NodeId {
        match self.net.leader() {
            Some(l) => l,
            None => self.net.run_until_leader(),
        }
    }

    /// Runs one complete executor election: proposals, decision, votes.
    ///
    /// `proposals[i]` is replica `i`'s intent. In the real system each
    /// replica forwards its proposal to the Raft leader; the harness models
    /// that forwarding as a direct propose on the leader (the forwarding
    /// hop is part of the calibrated latency model, not the protocol).
    ///
    /// # Panics
    ///
    /// Panics if `proposals.len()` does not match the replica count.
    pub fn run_election(&mut self, proposals: &[Proposal]) -> HarnessElectionResult {
        assert_eq!(proposals.len() as u32, self.replicas);
        let election = self.next_election;
        self.next_election += 1;

        let started = self.net.now().as_micros();

        // Phase 1: every replica's proposal enters the log (Fig. 5 step 2).
        let leader = self.raft_leader();
        for (i, p) in proposals.iter().enumerate() {
            let cmd = match p {
                Proposal::Lead => KernelCommand::Lead {
                    election,
                    replica: i as u32,
                },
                Proposal::Yield => KernelCommand::Yield {
                    election,
                    replica: i as u32,
                },
            };
            self.net.propose(leader, cmd).expect("leader accepts");
        }
        // Phase 2: wait until the proposals commit everywhere and derive
        // the winner from the committed order (Fig. 5 steps 3–4).
        let decision = self.wait_for(|cmds| {
            let mut t = ElectionTracker::new(proposals.len() as u32);
            let mut outcome;
            let mut seen = 0;
            for c in cmds {
                if election_id_of(c) == Some(election)
                    && matches!(c, KernelCommand::Lead { .. } | KernelCommand::Yield { .. })
                {
                    seen += 1;
                    outcome = t.apply(c);
                    if seen == proposals.len() || matches!(outcome, ElectionOutcome::Won(_)) {
                        return Some(outcome);
                    }
                }
            }
            None
        });

        let winner = match decision {
            ElectionOutcome::Won(w) => Some(w),
            _ => None,
        };

        // Phase 3: votes (Fig. 5 steps 4–5).
        if let Some(w) = winner {
            let leader = self.raft_leader();
            for voter in 0..self.replicas {
                self.net
                    .propose(
                        leader,
                        KernelCommand::Vote {
                            election,
                            winner: w,
                            voter,
                        },
                    )
                    .expect("leader accepts votes");
            }
            let replicas = self.replicas;
            self.wait_for(|cmds| {
                let votes = cmds
                    .iter()
                    .filter(
                        |c| matches!(c, KernelCommand::Vote { election: e, .. } if *e == election),
                    )
                    .count();
                (votes as u32 >= replicas).then_some(())
            });
        }

        HarnessElectionResult {
            winner,
            latency_us: self.net.now().as_micros() - started,
        }
    }

    /// Commits the executor's `DONE` notification plus the state delta and
    /// waits for replication (the off-critical-path tail of Fig. 5).
    pub fn complete_execution(&mut self, election: u64, small: Vec<String>, pointers: Vec<String>) {
        let leader = self.raft_leader();
        self.net
            .propose(leader, KernelCommand::Done { election })
            .expect("leader accepts");
        self.net
            .propose(
                leader,
                KernelCommand::StateDelta {
                    election,
                    small,
                    pointers,
                },
            )
            .expect("leader accepts");
        self.wait_for(|cmds| {
            cmds.iter()
                .any(|c| matches!(c, KernelCommand::StateDelta { election: e, .. } if *e == election))
                .then_some(())
        });
        // Let the followers receive the commit index via the next
        // heartbeats so callers observe the delta on every replica.
        self.net.run_micros(100_000);
    }

    /// Runs the network until `check` returns `Some` on the leader's applied
    /// commands.
    ///
    /// # Panics
    ///
    /// Panics after ~30 simulated seconds without progress.
    fn wait_for<T>(&mut self, check: impl Fn(&[KernelCommand]) -> Option<T>) -> T {
        for _ in 0..30_000 {
            let leader = self.raft_leader();
            if let Some(v) = check(self.net.applied_by(leader)) {
                return v;
            }
            self.net.run_micros(1_000);
        }
        panic!("protocol made no progress within the budget");
    }
}

fn election_id_of(c: &KernelCommand) -> Option<u64> {
    Some(match c {
        KernelCommand::Lead { election, .. }
        | KernelCommand::Yield { election, .. }
        | KernelCommand::Vote { election, .. }
        | KernelCommand::Done { election }
        | KernelCommand::StateDelta { election, .. } => *election,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_first_lead_wins() {
        let mut t = ElectionTracker::new(3);
        assert_eq!(
            t.apply(&KernelCommand::Yield {
                election: 0,
                replica: 1
            }),
            ElectionOutcome::Pending
        );
        assert_eq!(
            t.apply(&KernelCommand::Lead {
                election: 0,
                replica: 2
            }),
            ElectionOutcome::Won(2)
        );
        // A later LEAD does not displace the first committed one.
        assert_eq!(
            t.apply(&KernelCommand::Lead {
                election: 0,
                replica: 0
            }),
            ElectionOutcome::Won(2)
        );
    }

    #[test]
    fn tracker_all_yield_fails() {
        let mut t = ElectionTracker::new(3);
        for r in 0..3 {
            t.apply(&KernelCommand::Yield {
                election: 5,
                replica: r,
            });
        }
        assert_eq!(t.outcome_of(5), ElectionOutcome::AllYielded);
    }

    #[test]
    fn tracker_votes_complete() {
        // A full vote round and DONE confirm the winner; neither moves it.
        let mut t = ElectionTracker::new(3);
        t.apply(&KernelCommand::Lead {
            election: 1,
            replica: 0,
        });
        for voter in 0..3 {
            let outcome = t.apply(&KernelCommand::Vote {
                election: 1,
                winner: 0,
                voter,
            });
            assert_eq!(outcome, ElectionOutcome::Won(0));
        }
        assert_eq!(
            t.apply(&KernelCommand::Done { election: 1 }),
            ElectionOutcome::Won(0)
        );
    }

    #[test]
    fn tracker_duplicate_votes_ignored() {
        // A voter repeating its VOTE, or voting for a replica that did not
        // win, leaves the committed winner as it is.
        let mut t = ElectionTracker::new(3);
        t.apply(&KernelCommand::Lead {
            election: 1,
            replica: 0,
        });
        for (voter, winner) in [(0, 0), (0, 0), (1, 2), (1, 0)] {
            let outcome = t.apply(&KernelCommand::Vote {
                election: 1,
                winner,
                voter,
            });
            assert_eq!(outcome, ElectionOutcome::Won(0));
        }
        // Repeated YIELDs from one replica count once, so they never make
        // an election look all-yielded.
        for _ in 0..3 {
            t.apply(&KernelCommand::Yield {
                election: 2,
                replica: 1,
            });
        }
        assert_eq!(t.outcome_of(2), ElectionOutcome::Pending);
    }

    #[test]
    fn tracker_elections_are_independent() {
        let mut t = ElectionTracker::new(3);
        t.apply(&KernelCommand::Lead {
            election: 0,
            replica: 0,
        });
        assert_eq!(t.outcome_of(1), ElectionOutcome::Pending);
    }

    #[test]
    fn harness_elects_single_lead() {
        let mut h = KernelProtocolHarness::new(7);
        let result = h.run_election(&[Proposal::Yield, Proposal::Lead, Proposal::Yield]);
        assert_eq!(result.winner, Some(1));
        assert!(result.latency_us > 0);
    }

    #[test]
    fn harness_contested_election_is_deterministic() {
        let mut h1 = KernelProtocolHarness::new(9);
        let r1 = h1.run_election(&[Proposal::Lead, Proposal::Lead, Proposal::Lead]);
        let mut h2 = KernelProtocolHarness::new(9);
        let r2 = h2.run_election(&[Proposal::Lead, Proposal::Lead, Proposal::Lead]);
        assert_eq!(r1, r2);
        assert!(r1.winner.is_some());
    }

    #[test]
    fn harness_all_yield_reports_failure() {
        let mut h = KernelProtocolHarness::new(11);
        let result = h.run_election(&[Proposal::Yield, Proposal::Yield, Proposal::Yield]);
        assert_eq!(result.winner, None);
    }

    #[test]
    fn harness_state_delta_replicates() {
        let mut h = KernelProtocolHarness::new(13);
        let result = h.run_election(&[Proposal::Lead, Proposal::Yield, Proposal::Yield]);
        assert_eq!(result.winner, Some(0));
        h.complete_execution(0, vec!["x".into()], vec!["kernel-0/model".into()]);
        // Every replica applied the delta.
        for node in 1..=3u64 {
            let got = h
                .network_mut()
                .applied_by(node)
                .iter()
                .any(|c| matches!(c, KernelCommand::StateDelta { .. }));
            assert!(got, "replica {node} missing state delta");
        }
    }

    #[test]
    fn harness_sequential_elections_increment_ids() {
        let mut h = KernelProtocolHarness::new(17);
        let a = h.run_election(&[Proposal::Lead, Proposal::Yield, Proposal::Yield]);
        let b = h.run_election(&[Proposal::Yield, Proposal::Lead, Proposal::Yield]);
        assert_eq!(a.winner, Some(0));
        assert_eq!(b.winner, Some(1));
    }
}
