//! Seed → inputs. Everything a workload feeds the library crates is made
//! here from `--seed`; the crates themselves never see the seed except as
//! part of a generated input (the trace, the platform config's own RNG
//! seed).

use notebookos_cluster::ResourceBundle;
use notebookos_core::{PlatformConfig, PolicyKind};
use notebookos_des::SimRng;
use notebookos_jupyter::KernelResourceSpec;
use notebookos_trace::{generate, SyntheticConfig, WorkloadTrace};

/// Full-size constants of the six workloads; `--smoke` divides every
/// count by [`SMOKE_DIVISOR`].
pub mod size {
    /// `sim-summer`: cell executions per pass. The generator yields 495 k
    /// to 630 k depending on the seed; thinning to a fixed count keeps the
    /// work of a pass the same for every seed.
    pub const SUMMER_EXECUTIONS: usize = 480_000;
    /// `sim-fleet`: cell executions per pass (the generator yields 134 k to
    /// 142 k).
    pub const FLEET_EXECUTIONS: usize = 130_000;
    /// `sim-fleet`: sessions arriving over one day.
    pub const FLEET_SESSIONS: usize = 20_000;
    /// `sim-fleet`: trace window, seconds.
    pub const FLEET_SPAN_S: f64 = 86_400.0;
    /// `sim-fleet`: sessions still alive at the end of the window.
    pub const FLEET_LONG_LIVED: f64 = 0.1;
    /// `sim-fleet`: hosts the fleet is pinned at (initial = autoscale min).
    pub const FLEET_HOSTS: u32 = 4096;
    /// `serve-*`: hosts behind the gateway.
    pub const SERVE_HOSTS: usize = 64;
    /// `serve-*`: one-GPU sessions started in set-up.
    pub const SERVE_SESSIONS: usize = 512;
    /// `serve-small`: round trips per pass.
    pub const SERVE_SMALL_TRIPS: usize = 25_000;
    /// `serve-large`: round trips per pass.
    pub const SERVE_LARGE_TRIPS: usize = 5_000;
    /// `serve-large`: bytes of cell source per request.
    pub const SERVE_LARGE_CELL_BYTES: usize = 8192;
    /// `serve-*`: virtual time added per round trip, µs.
    pub const SERVE_STEP_US: u64 = 10;
    /// `raft-*`: commands applied at the leader per pass.
    pub const RAFT_COMMITS: usize = 1000;
    /// `raft-*`: proposals the closed loop keeps outstanding.
    pub const RAFT_OUTSTANDING: usize = 16;
    /// `raft-*`: bytes per command.
    pub const RAFT_COMMAND_BYTES: usize = 64;
    /// `--smoke` runs every workload at this fraction of full size.
    pub const SMOKE_DIVISOR: usize = 50;
}

/// Scales a full-size count for `--smoke`, never below `floor`.
pub fn scaled(full: usize, smoke: bool, floor: usize) -> usize {
    if smoke {
        (full / size::SMOKE_DIVISOR).max(floor)
    } else {
        full
    }
}

/// The two simulator workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// The paper's 90-day study on an autoscaled fleet.
    Summer,
    /// One day of 20 000 short sessions on a fleet pinned at 4096 hosts.
    Fleet,
}

/// Trace-generator settings for a simulator workload.
pub fn sim_trace_config(kind: SimKind, smoke: bool) -> SyntheticConfig {
    let summer = SyntheticConfig::summer_90d();
    match kind {
        SimKind::Summer => SyntheticConfig {
            sessions: scaled(summer.sessions, smoke, 8),
            ..summer
        },
        SimKind::Fleet => SyntheticConfig {
            sessions: scaled(size::FLEET_SESSIONS, smoke, 8),
            span_s: size::FLEET_SPAN_S,
            long_lived_fraction: size::FLEET_LONG_LIVED,
            ..summer
        },
    }
}

/// The platform configuration of a simulator workload; the platform's own
/// RNG seed is derived from the workload seed.
pub fn sim_platform_config(kind: SimKind, smoke: bool, seed: u64) -> PlatformConfig {
    let mut config = PlatformConfig::evaluation(PolicyKind::NotebookOs);
    config.seed = SimRng::seed(seed).fork(0x51_4D).next_u64();
    if kind == SimKind::Fleet {
        let hosts = scaled(size::FLEET_HOSTS as usize, smoke, 8) as u32;
        config.initial_hosts = hosts;
        config.autoscale.min_hosts = hosts;
    }
    config
}

/// The hosts the workload's fleet has when the run starts (the size the
/// `cluster.*` probes are taken at).
pub fn sim_fleet_hosts(kind: SimKind, smoke: bool) -> usize {
    match kind {
        // The summer fleet autoscales from 8 to about 71 hosts.
        SimKind::Summer => size::SERVE_HOSTS,
        SimKind::Fleet => scaled(size::FLEET_HOSTS as usize, smoke, 8),
    }
}

/// Drops training events evenly over the whole trace until exactly `keep`
/// remain (all of them, when the trace has no more than `keep`): walking
/// the events in session order, event `j` of `total` survives when
/// `⌊(j+1)·keep/total⌋` exceeds `⌊j·keep/total⌋`.
pub fn thin(trace: &mut WorkloadTrace, keep: usize) {
    let total = trace.total_events();
    if total <= keep {
        return;
    }
    let mut j = 0;
    for session in &mut trace.sessions {
        session.events.retain(|_| {
            let survives = (j + 1) * keep / total > j * keep / total;
            j += 1;
            survives
        });
    }
}

/// Generates the workload trace for `seed`, thinned to the workload's
/// fixed execution count.
pub fn sim_trace(kind: SimKind, smoke: bool, seed: u64) -> WorkloadTrace {
    let mut trace = generate(&sim_trace_config(kind, smoke), seed);
    let executions = match kind {
        SimKind::Summer => size::SUMMER_EXECUTIONS,
        SimKind::Fleet => size::FLEET_EXECUTIONS,
    };
    thin(&mut trace, scaled(executions, smoke, 1));
    trace
}

/// The host shape every workload uses.
pub fn host_shape() -> ResourceBundle {
    ResourceBundle::p3_16xlarge()
}

/// The one-GPU kernel every serve session asks for.
pub fn serve_spec() -> KernelResourceSpec {
    KernelResourceSpec {
        millicpus: 4000,
        memory_mb: 16_384,
        gpus: 1,
        vram_gb: 16,
    }
}

/// The two gateway workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// An 11-byte cell: fixed per-message costs dominate.
    Small,
    /// An 8 KiB cell that needs escaping: byte-proportional costs dominate.
    Large,
}

/// The cell source every request of the workload carries.
pub fn serve_cell(kind: ServeKind, seed: u64) -> String {
    match kind {
        ServeKind::Small => "model.fit()".to_string(),
        ServeKind::Large => {
            // Printable ASCII with the characters a JSON encoder must
            // escape (quote, backslash, newline, tab) mixed in at about
            // one byte in sixteen.
            const ESCAPED: [char; 4] = ['"', '\\', '\n', '\t'];
            let mut rng = SimRng::seed(seed).fork(0xCE11);
            (0..size::SERVE_LARGE_CELL_BYTES)
                .map(|_| {
                    let r = rng.next_u64();
                    if r.is_multiple_of(16) {
                        ESCAPED[(r >> 8) as usize % ESCAPED.len()]
                    } else {
                        char::from(b' ' + ((r >> 8) % 95) as u8)
                    }
                })
                .collect()
        }
    }
}

/// The order in which the single client visits the sessions: a seeded
/// permutation, repeated round-robin.
pub fn serve_session_order(sessions: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..sessions as u32).collect();
    let mut rng = SimRng::seed(seed).fork(0x0DE4);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.index(i + 1));
    }
    order
}

/// The command sequence proposed to the Raft group: an 8-byte little-endian
/// sequence number (how an apply is matched to its proposal) followed by
/// seeded filler.
pub fn raft_commands(count: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SimRng::seed(seed).fork(0x4AF7);
    (0..count as u64)
        .map(|seq| {
            let mut command = seq.to_le_bytes().to_vec();
            while command.len() < size::RAFT_COMMAND_BYTES {
                command.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            command
        })
        .collect()
}

/// The sequence number a command carries.
pub fn raft_command_seq(command: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(command.get(..8)?.try_into().ok()?))
}

/// The jitter seed handed to the Raft nodes: one election schedule for
/// every `--seed`, because the schedule decides how much work set-up is (12
/// to 20 µs on `MemStorage` over ten seeds) and the driver compares runs on
/// different seeds.
pub const RAFT_NODE_SEED: u64 = 0x5EED;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(
            sim_trace(SimKind::Summer, true, 7),
            sim_trace(SimKind::Summer, true, 7)
        );
        assert_ne!(
            sim_trace(SimKind::Summer, true, 7),
            sim_trace(SimKind::Summer, true, 8)
        );
        assert_eq!(
            sim_platform_config(SimKind::Fleet, true, 7).seed,
            sim_platform_config(SimKind::Fleet, true, 7).seed
        );
        assert_eq!(
            serve_cell(ServeKind::Large, 7),
            serve_cell(ServeKind::Large, 7)
        );
        assert_ne!(
            serve_cell(ServeKind::Large, 7),
            serve_cell(ServeKind::Large, 8)
        );
        assert_eq!(serve_session_order(64, 7), serve_session_order(64, 7));
        assert_ne!(serve_session_order(64, 7), serve_session_order(64, 8));
        assert_eq!(raft_commands(32, 7), raft_commands(32, 7));
        assert_ne!(raft_commands(32, 7), raft_commands(32, 8));
    }

    #[test]
    fn thinning_keeps_exactly_the_asked_count_spread_over_the_trace() {
        let config = sim_trace_config(SimKind::Summer, true);
        let full = generate(&config, 7);
        let total = full.total_events();
        let mut thinned = full.clone();
        thin(&mut thinned, total / 3);
        assert_eq!(thinned.total_events(), total / 3);
        assert!(thinned.validate().is_ok());
        // One event in three survives everywhere: no session is cut off.
        for (before, after) in full.sessions.iter().zip(&thinned.sessions) {
            assert!(before.events.len() < 4 || !after.events.is_empty());
            assert!(after.events.iter().all(|e| before.events.contains(e)));
        }
        let mut untouched = full.clone();
        thin(&mut untouched, total);
        assert_eq!(untouched, full);
        // The workload's own trace has its fixed count whatever the seed
        // (or everything the generator gave, when that is less).
        let cap = size::FLEET_EXECUTIONS / size::SMOKE_DIVISOR;
        for seed in [1, 2, 3] {
            let raw = generate(&sim_trace_config(SimKind::Fleet, true), seed).total_events();
            let trace = sim_trace(SimKind::Fleet, true, seed);
            assert_eq!(trace.total_events(), raw.min(cap));
        }
    }

    #[test]
    fn large_cell_is_8_kib_of_printable_text_that_needs_escaping() {
        let cell = serve_cell(ServeKind::Large, 1);
        assert_eq!(cell.len(), size::SERVE_LARGE_CELL_BYTES);
        assert!(cell.contains('"') && cell.contains('\n') && cell.contains('\\'));
        assert!(cell
            .bytes()
            .all(|b| b == b'\n' || b == b'\t' || (b' '..=b'~').contains(&b)));
        assert_eq!(serve_cell(ServeKind::Small, 1).len(), 11);
    }

    #[test]
    fn session_order_is_a_permutation() {
        let mut order = serve_session_order(512, 3);
        order.sort_unstable();
        assert_eq!(order, (0..512).collect::<Vec<u32>>());
    }

    #[test]
    fn commands_carry_their_sequence_number() {
        let commands = raft_commands(5, 9);
        assert!(commands.iter().all(|c| c.len() == size::RAFT_COMMAND_BYTES));
        let seqs: Vec<u64> = commands
            .iter()
            .filter_map(|c| raft_command_seq(c))
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(raft_command_seq(&[1, 2, 3]), None);
    }

    #[test]
    fn smoke_divides_by_fifty_with_a_floor() {
        assert_eq!(scaled(6000, true, 1), 120);
        assert_eq!(scaled(100, true, 8), 8);
        assert_eq!(scaled(6000, false, 1), 6000);
    }
}
